//! `caliqec-obs` — observability substrate for the caliqec decode engine.
//!
//! The engine's determinism contract (bit-identical logical-error
//! estimates at any thread count, PRs 1–6) must survive instrumentation.
//! This crate therefore provides observability that is *passive by
//! construction*: nothing recorded here is ever read back by decoding, and
//! a disabled [`ObsSink`] does no work at all — no clock reads, no
//! atomics, no allocation — so golden fingerprints are identical with
//! observability on or off.
//!
//! Three layers:
//!
//! - **Metrics** ([`metrics`]): closed-enum counters, gauges, and
//!   log-bucketed latency histograms recorded into per-worker [`Shard`]s of
//!   relaxed atomics. The record path is wait-free and uncontended; a
//!   [`Snapshot`] merges shards after the fact and reads p50/p95/p99 off
//!   the histograms.
//! - **Journal** ([`journal`]): structured [`Event`]s (chunk start/finish
//!   with tier outcomes and phase timings, fault/retry/rung transitions)
//!   buffered per worker and appended to one mutex-guarded journal at
//!   chunk boundaries, then sorted in an order that depends only on the
//!   deterministic chunk schedule.
//! - **Exporters** ([`export`]): human summary table, JSON snapshot,
//!   Chrome trace-event JSON (Perfetto-viewable worker/chunk flamegraphs),
//!   and Prometheus text exposition via [`render_prometheus`].
//!
//! The intended wiring: hosts build one [`ObsSink`] (enabled or not), hand
//! clones to the engine, and each worker thread obtains a private
//! [`WorkerObs`] via [`ObsSink::worker`]. After the run,
//! [`ObsSink::snapshot`] produces the merged [`Snapshot`] the exporters
//! consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod journal;
pub mod metrics;
pub mod sink;
pub mod verbosity;

pub use export::{render_chrome_trace, render_json, render_prometheus, render_summary};
pub use journal::{order_key, Event, EventKind};
pub use metrics::{
    bucket_hi, bucket_lo, latency_bucket, Counter, Gauge, Hist, HistSnapshot, Shard, HIST_BUCKETS,
};
pub use sink::{ObsSink, Snapshot, WorkerObs};
pub use verbosity::Verbosity;
