//! # caliqec-match — decoding substrate
//!
//! Syndrome decoders for surface-code experiments, replacing PyMatching in
//! the paper's toolchain:
//!
//! - [`MatchingGraph`]: a weighted matching graph with a virtual boundary,
//!   built from a [`caliqec_stab::DetectorErrorModel`] (hyperedges are
//!   decomposed into graph edges).
//! - [`UnionFindDecoder`]: the weighted union-find decoder
//!   (Delfosse–Nickerson), near-linear time, the primary Monte-Carlo decoder.
//! - [`MwpmDecoder`]: exact minimum-weight perfect matching (early-stopping
//!   Dijkstra plus a bitmask DP) for shots of at most
//!   [`MwpmDecoder::MAX_DEFECTS`] defects, refusing larger ones — the
//!   oracle decoder for small instances.
//! - [`ReferenceUnionFind`]: the pre-optimization allocate-per-call
//!   union-find decoder, kept as a bit-identical reference for benches and
//!   cross-validation.
//! - [`Tiered`]: the [`DecoderFactory`] adapter that keeps a factory's
//!   matching graph (validation, rung-2 fallback) and arms the dense-regime
//!   [`ClusterTier`] under a [`ClusterGate`]. A factory's [`DecodeStack`]
//!   (decoder, cluster tier, gate) is what the engine and the streaming
//!   service decode every window through.
//! - [`Predecoder`]: a conservative certifier that resolves
//!   provably-locally-matchable shots without a full decoder. No decode
//!   stack runs it (it cost more than it saved); it stays a proptested
//!   whole-shot query on a [`ClusterTier`], over the tier's own tables.
//! - [`estimate_ler`]: end-to-end residual logical-error-rate estimation
//!   using the batched Pauli-frame sampler.
//! - [`LerEngine`]: the thread-parallel Monte-Carlo engine behind
//!   `estimate_ler`. Its one run method, [`LerEngine::try_run`], samples
//!   plain Monte Carlo for the shot budget of a [`SampleOptions`] over any
//!   [`DecoderFactory`], deterministically in `(options, base_seed)`
//!   regardless of thread count, with per-run throughput counters in
//!   [`EngineRun`]. Hardened against decoder faults: inputs are validated
//!   up front ([`MatchingGraph::validate`], typed
//!   [`ValidationError`]/[`EngineError`]), each chunk runs panic-isolated
//!   with a deterministic same-seed retry on a degradation ladder, and
//!   [`FaultPlan`] can make chosen chunks' decodes panic (outright or on a
//!   corrupted defect list) to prove it all works.
//! - Calibration-aware reweighting: graphs built from a DEM keep per-edge
//!   provenance, so [`MatchingGraph::reweight`] recomputes probabilities and
//!   weights in place from an updated [`caliqec_stab::RateTable`] without
//!   re-extracting the DEM. New rates reach decoders one way: an ordinary
//!   factory over a reweighted graph (the calibration runtime reweights one
//!   kept graph per layout to each trace point's rate, DESIGN.md §10).
//!
//! # Example
//!
//! ```
//! use caliqec_match::{estimate_ler, graph_for_circuit, SampleOptions, UnionFindDecoder};
//! use caliqec_stab::{Basis, Circuit, Noise1};
//! use rand::SeedableRng;
//!
//! // 3-qubit repetition code under 2% bit-flip noise.
//! let mut c = Circuit::new(5);
//! c.reset(Basis::Z, &[0, 1, 2, 3, 4]);
//! c.noise1(Noise1::XError, 0.02, &[0, 1, 2]);
//! c.cx(0, 3); c.cx(1, 3); c.cx(1, 4); c.cx(2, 4);
//! let m0 = c.measure(3, Basis::Z, 0.0);
//! let m1 = c.measure(4, Basis::Z, 0.0);
//! c.detector(&[m0]);
//! c.detector(&[m1]);
//! let md = c.measure(0, Basis::Z, 0.0);
//! c.observable(0, &[md]);
//!
//! let mut decoder = UnionFindDecoder::new(graph_for_circuit(&c));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let est = estimate_ler(&c, &mut decoder, SampleOptions::default(), &mut rng);
//! assert!(est.per_shot() < 0.02); // decoding suppresses the physical rate
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod decode;
mod engine;
mod error;
mod faults;
mod graph;
mod mwpm;
mod predecode;
mod reference;
mod stream;
mod unionfind;

pub use caliqec_obs as obs;
pub use cluster::{
    cluster_hist_bucket, ClusterOutcome, ClusterTier, CLUSTER_HIST_BUCKETS, MAX_CLUSTER_DEFECTS,
};
pub use decode::{estimate_ler, graph_for_circuit, Decoder, LerEstimate, SampleOptions};
pub use engine::{
    defect_hist_bucket, estimate_ler_seeded, DecodeStack, DecoderFactory, EngineRun, LerEngine,
    DEFECT_HIST_BUCKETS, LADDER_RUNGS,
};
pub use error::{EngineError, ValidationError};
pub use faults::{FaultKind, FaultPlan};
pub use graph::{Edge, MatchingGraph, NodeId};
pub use mwpm::MwpmDecoder;
pub use predecode::{ClusterGate, Predecoder, Tiered, CLUSTER_GATE_MIN_MEAN_DEFECTS};
pub use reference::ReferenceUnionFind;
pub use stream::{
    loopback_serve, Disposition, LoopbackOptions, LoopbackReport, PushOutcome, ServiceHealth,
    StreamConfig, StreamReport, StreamingDecoder, TenantHealth, TenantSpec, WindowResult,
};
pub use unionfind::UnionFindDecoder;
