//! Lock-free metric shards: counters, gauges, and log-bucketed latency
//! histograms.
//!
//! The metric *names* are closed enums ([`Counter`], [`Gauge`], [`Hist`]),
//! so a shard is a handful of fixed-size atomic arrays — no hashing, no
//! allocation, no locking on the record path. Each worker thread records
//! into its own [`Shard`] (handed out by `ObsSink::worker`), so the atomics
//! are uncontended; a snapshot sums the shards after the fact.
//!
//! Histograms bucket latencies by the binary order of magnitude of the
//! nanosecond count: bucket `i` covers `[2^i, 2^{i+1})` ns (bucket 0 also
//! absorbs 0). Sixty-four buckets cover the full `u64` nanosecond range,
//! so no sample can saturate the top bucket. Quantiles are read back with
//! linear interpolation inside the winning bucket, clamped to the exact
//! running maximum, so p50/p95/p99 resolve to ~±50% of the true value —
//! plenty for "did tier-2 p99 regress 3×" questions — and a sparse
//! histogram (one sample pinning every quantile to its bucket's upper
//! bound) can no longer report above the largest sample seen. Cost: one
//! `leading_zeros`, two relaxed increments, and one relaxed `fetch_max`
//! per sample.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log-scaled latency buckets per histogram.
pub const HIST_BUCKETS: usize = 64;

/// Maps a nanosecond latency to its histogram bucket: the binary order of
/// magnitude, saturated to the last bucket.
#[inline]
pub fn latency_bucket(nanos: u64) -> usize {
    if nanos < 2 {
        0
    } else {
        ((63 - nanos.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` in nanoseconds.
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Exclusive upper bound of bucket `i` in nanoseconds (the last bucket
/// saturates to `u64::MAX`, since its true bound `2^64` is unrepresentable).
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// Monotone event counters. Closed set: adding a counter is a code change,
/// which keeps shards allocation-free and exporters exhaustive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Engine runs started on this sink.
    RunsStarted,
    /// Chunks claimed by workers (counted once per chunk, not per attempt).
    ChunksStarted,
    /// Chunks that completed on some ladder rung.
    ChunksFinished,
    /// Shots with an empty defect list (tier 0: decoding skipped).
    ShotsTier0,
    /// Shots decoded by the full decoder (tier 2).
    ShotsTier2,
    /// Dense shots fully resolved by the cluster tier (every flood cluster
    /// certified and peeled — zero full-decoder calls).
    ShotsCluster,
    /// Shots decoded on a degraded ladder rung (rung > 0).
    ShotsDegraded,
    /// Chunk attempts that ended in a caught panic.
    FaultsPanic,
    /// Ladder retries launched in response to faults.
    Retries,
    /// Chunks that finished on the pristine rung 0.
    ChunksRung0,
    /// Chunks that finished on rung 1 (fresh bare decoder).
    ChunksRung1,
    /// Chunks that finished on rung 2 (reference decoder on the fallback
    /// graph).
    ChunksRung2,
    /// Rounds admitted into a streaming tenant's ingress queue.
    RoundsIngested,
    /// Rounds whose streaming window was dequeued within its deadline and
    /// decoded in full.
    RoundsDecoded,
    /// Rounds whose streaming window was dequeued past its deadline and
    /// shed: never decoded, all-zero masks, accounted instead of silently
    /// dropped.
    RoundsShed,
    /// Rounds whose streaming window was deferred after its decode
    /// panicked through both same-window retries: no correction produced.
    RoundsDeferred,
    /// Rounds refused at admission by backpressure (ingress queue at its
    /// configured bound). Rejected rounds are *not* counted as ingested.
    RoundsRejected,
    /// Same-window retries after a streaming decode panic.
    StreamRetries,
    /// Wedged-worker detections by the streaming watchdog.
    WorkerWedges,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 19] = [
        Counter::RunsStarted,
        Counter::ChunksStarted,
        Counter::ChunksFinished,
        Counter::ShotsTier0,
        Counter::ShotsTier2,
        Counter::ShotsCluster,
        Counter::ShotsDegraded,
        Counter::FaultsPanic,
        Counter::Retries,
        Counter::ChunksRung0,
        Counter::ChunksRung1,
        Counter::ChunksRung2,
        Counter::RoundsIngested,
        Counter::RoundsDecoded,
        Counter::RoundsShed,
        Counter::RoundsDeferred,
        Counter::RoundsRejected,
        Counter::StreamRetries,
        Counter::WorkerWedges,
    ];

    /// Stable snake-case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RunsStarted => "runs_started",
            Counter::ChunksStarted => "chunks_started",
            Counter::ChunksFinished => "chunks_finished",
            Counter::ShotsTier0 => "shots_tier0",
            Counter::ShotsTier2 => "shots_tier2",
            Counter::ShotsCluster => "shots_cluster",
            Counter::ShotsDegraded => "shots_degraded",
            Counter::FaultsPanic => "faults_panic",
            Counter::Retries => "retries",
            Counter::ChunksRung0 => "chunks_rung0",
            Counter::ChunksRung1 => "chunks_rung1",
            Counter::ChunksRung2 => "chunks_rung2",
            Counter::RoundsIngested => "rounds_ingested",
            Counter::RoundsDecoded => "rounds_decoded",
            Counter::RoundsShed => "rounds_shed",
            Counter::RoundsDeferred => "rounds_deferred",
            Counter::RoundsRejected => "rounds_rejected",
            Counter::StreamRetries => "stream_retries",
            Counter::WorkerWedges => "worker_wedges",
        }
    }
}

/// Last-value gauges describing the run's shape. Merged across shards by
/// maximum, so any shard that set the value wins over the zero default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Worker threads the engine or the streaming service launched.
    Workers,
    /// Chunks in the deterministic schedule.
    ChunksPlanned,
    /// Tenant patches registered with the streaming service.
    StreamTenants,
    /// High-water mark of the streaming service's global queue depth, in
    /// windows summed over every tenant (at most tenants × the configured
    /// per-tenant queue bound).
    StreamQueuePeak,
}

impl Gauge {
    /// Every gauge, in export order.
    pub const ALL: [Gauge; 4] = [
        Gauge::Workers,
        Gauge::ChunksPlanned,
        Gauge::StreamTenants,
        Gauge::StreamQueuePeak,
    ];

    /// Stable snake-case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::Workers => "workers",
            Gauge::ChunksPlanned => "chunks_planned",
            Gauge::StreamTenants => "stream_tenants",
            Gauge::StreamQueuePeak => "stream_queue_peak",
        }
    }
}

/// Latency histograms. Per-shot tiers are split by decode tier and ladder
/// rung so the service question — "what is p99 decode latency, and does it
/// survive degradation?" — reads straight off the snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Per-shot full-decode latency on the pristine rung 0.
    DecodeShotRung0,
    /// Per-shot full-decode latency on rung 1 (fresh bare decoder).
    DecodeShotRung1,
    /// Per-shot full-decode latency on rung 2 (reference decoder).
    DecodeShotRung2,
    /// Per-shot flood-decomposition latency for a dense shot fully
    /// resolved by the cluster tier (decompose + certify + peel, no
    /// decoder call).
    ClusterShot,
    /// Wall time of one whole chunk attempt (sample + extract + dispatch +
    /// decode).
    ChunkWall,
    /// Streaming round latency: enqueue at admission to disposition
    /// (decoded, shed, or deferred). Includes queueing delay, so this is
    /// the service-level p99 the deadline budget is judged against.
    RoundLatency,
    /// Pure decode time of one streaming window (excludes queueing).
    WindowDecode,
}

impl Hist {
    /// Every histogram, in export order.
    pub const ALL: [Hist; 7] = [
        Hist::DecodeShotRung0,
        Hist::DecodeShotRung1,
        Hist::DecodeShotRung2,
        Hist::ClusterShot,
        Hist::ChunkWall,
        Hist::RoundLatency,
        Hist::WindowDecode,
    ];

    /// Stable snake-case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Hist::DecodeShotRung0 => "decode_shot_rung0",
            Hist::DecodeShotRung1 => "decode_shot_rung1",
            Hist::DecodeShotRung2 => "decode_shot_rung2",
            Hist::ClusterShot => "cluster_shot",
            Hist::ChunkWall => "chunk_wall",
            Hist::RoundLatency => "round_latency",
            Hist::WindowDecode => "window_decode",
        }
    }
}

/// One histogram's atomics inside a shard.
#[derive(Debug)]
struct HistShard {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl HistShard {
    const fn new() -> HistShard {
        HistShard {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

/// One worker's private slab of metric atomics. Only its owning worker
/// writes it (relaxed stores — no contention); snapshots read it from any
/// thread.
#[derive(Debug)]
pub struct Shard {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    hists: [HistShard; Hist::ALL.len()],
}

impl Default for Shard {
    fn default() -> Shard {
        Shard::new()
    }
}

impl Shard {
    /// A zeroed shard.
    pub fn new() -> Shard {
        Shard {
            counters: [const { AtomicU64::new(0) }; Counter::ALL.len()],
            gauges: [const { AtomicU64::new(0) }; Gauge::ALL.len()],
            hists: [const { HistShard::new() }; Hist::ALL.len()],
        }
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, delta: u64) {
        self.counters[c as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&self, g: Gauge, value: u64) {
        self.gauges[g as usize].store(value, Ordering::Relaxed);
    }

    /// Records one latency sample into a histogram.
    #[inline]
    pub fn record(&self, h: Hist, nanos: u64) {
        let hs = &self.hists[h as usize];
        hs.buckets[latency_bucket(nanos)].fetch_add(1, Ordering::Relaxed);
        hs.count.fetch_add(1, Ordering::Relaxed);
        hs.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        hs.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one histogram, merged across shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Stable metric name ([`Hist::name`], or a caller-chosen name for
    /// merged views).
    pub name: &'static str,
    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^{i+1})` ns).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded latencies in nanoseconds.
    pub sum_nanos: u64,
    /// Exact largest sample in nanoseconds (0 for an empty histogram).
    /// Quantiles clamp to it, so a sparse histogram never reports a
    /// percentile above the worst latency actually observed.
    pub max_nanos: u64,
}

impl HistSnapshot {
    /// An empty histogram named `name`.
    pub fn empty(name: &'static str) -> HistSnapshot {
        HistSnapshot {
            name,
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }

    /// Sums several histograms into one view named `name` (e.g. the three
    /// per-rung decode histograms into one tier-2 histogram). The exact
    /// maxima merge by max.
    pub fn merged(name: &'static str, parts: &[&HistSnapshot]) -> HistSnapshot {
        let mut out = HistSnapshot::empty(name);
        for p in parts {
            for (acc, b) in out.buckets.iter_mut().zip(p.buckets.iter()) {
                *acc += b;
            }
            out.count += p.count;
            out.sum_nanos += p.sum_nanos;
            out.max_nanos = out.max_nanos.max(p.max_nanos);
        }
        out
    }

    /// The `q`-quantile latency in nanoseconds (`q` in `[0, 1]`), linearly
    /// interpolated inside the winning bucket and clamped to the exact
    /// running maximum (no quantile can exceed the largest sample — in
    /// particular a single-sample histogram reports that sample exactly
    /// instead of pinning every quantile to its bucket's upper bound).
    /// Returns 0 for an empty histogram.
    pub fn quantile_nanos(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let next = seen + b;
            if (next as f64) >= target {
                let into = (target - seen as f64) / b as f64;
                let lo = bucket_lo(i) as f64;
                let hi = bucket_hi(i) as f64;
                return (lo + into * (hi - lo)).min(self.max_nanos as f64);
            }
            seen = next;
        }
        (bucket_hi(HIST_BUCKETS - 1) as f64).min(self.max_nanos as f64)
    }

    /// Mean latency in nanoseconds (0 for an empty histogram).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }
}

/// Named `(metric, value)` pairs in export order.
pub(crate) type NamedValues = Vec<(&'static str, u64)>;

/// Sums `shards` into `(counters, gauges, histograms)` snapshot vectors.
/// Counters add; gauges take the maximum (only one shard sets each).
pub(crate) fn merge_shards(
    shards: &[std::sync::Arc<Shard>],
) -> (NamedValues, NamedValues, Vec<HistSnapshot>) {
    let counters = Counter::ALL
        .iter()
        .map(|&c| {
            let total: u64 = shards
                .iter()
                .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
                .sum();
            (c.name(), total)
        })
        .collect();
    let gauges = Gauge::ALL
        .iter()
        .map(|&g| {
            let max = shards
                .iter()
                .map(|s| s.gauges[g as usize].load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            (g.name(), max)
        })
        .collect();
    let hists = Hist::ALL
        .iter()
        .map(|&h| {
            let mut out = HistSnapshot::empty(h.name());
            for s in shards {
                let hs = &s.hists[h as usize];
                for (acc, b) in out.buckets.iter_mut().zip(hs.buckets.iter()) {
                    *acc += b.load(Ordering::Relaxed);
                }
                out.count += hs.count.load(Ordering::Relaxed);
                out.sum_nanos += hs.sum_nanos.load(Ordering::Relaxed);
                out.max_nanos = out.max_nanos.max(hs.max_nanos.load(Ordering::Relaxed));
            }
            out
        })
        .collect();
    (counters, gauges, hists)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_binary_orders_of_magnitude() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(4), 2);
        assert_eq!(latency_bucket(1023), 9);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), HIST_BUCKETS - 1);
        for i in 0..HIST_BUCKETS {
            assert_eq!(latency_bucket(bucket_lo(i).max(1)), i.min(HIST_BUCKETS - 1));
            assert!(bucket_lo(i) < bucket_hi(i));
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = HistSnapshot::empty("t");
        assert_eq!(h.quantile_nanos(0.5), 0.0);
        // 100 samples at exactly 1024 ns -> bucket 10 = [1024, 2048).
        h.buckets[10] = 100;
        h.count = 100;
        h.sum_nanos = 100 * 1024;
        h.max_nanos = 1024;
        let p50 = h.quantile_nanos(0.5);
        assert!((1024.0..2048.0).contains(&p50), "{p50}");
        let p99 = h.quantile_nanos(0.99);
        assert!(p99 >= p50, "{p99} < {p50}");
        assert!((h.mean_nanos() - 1024.0).abs() < 1e-9);
    }

    /// Regression: a single sample used to pin p50 == p95 == p99 to its
    /// bucket's upper bound (the d=21 `cluster_p50_us == 65.536` artifact);
    /// the exact running max caps every quantile at the true sample.
    #[test]
    fn sparse_histograms_clamp_quantiles_to_exact_max() {
        let shard = std::sync::Arc::new(Shard::new());
        shard.record(Hist::ClusterShot, 43_000);
        let (_, _, hists) = merge_shards(&[shard]);
        let h = hists.iter().find(|h| h.name == "cluster_shot").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.max_nanos, 43_000);
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_nanos(q), 43_000.0, "q={q}");
        }
    }

    #[test]
    fn shard_record_and_merge_round_trip() {
        let shard = std::sync::Arc::new(Shard::new());
        shard.add(Counter::ShotsTier2, 7);
        shard.add(Counter::ShotsTier2, 3);
        shard.set(Gauge::Workers, 4);
        shard.record(Hist::DecodeShotRung0, 1000);
        shard.record(Hist::DecodeShotRung0, 2000);
        let (counters, gauges, hists) = merge_shards(&[shard]);
        assert!(counters.contains(&("shots_tier2", 10)));
        assert!(gauges.contains(&("workers", 4)));
        let h = hists
            .iter()
            .find(|h| h.name == "decode_shot_rung0")
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_nanos, 3000);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn merged_histograms_sum_parts() {
        let mut a = HistSnapshot::empty("a");
        a.buckets[3] = 5;
        a.count = 5;
        a.sum_nanos = 50;
        let mut b = HistSnapshot::empty("b");
        b.buckets[4] = 2;
        b.count = 2;
        b.sum_nanos = 40;
        let m = HistSnapshot::merged("m", &[&a, &b]);
        assert_eq!(m.count, 7);
        assert_eq!(m.sum_nanos, 90);
        assert_eq!(m.buckets[3], 5);
        assert_eq!(m.buckets[4], 2);
    }
}
