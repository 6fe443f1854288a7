//! Thread-parallel Monte-Carlo logical-error-rate engine.
//!
//! [`LerEngine::try_run`] is the one measured path: it runs plain Monte
//! Carlo over a [`CompiledCircuit`] for the shot budget of a
//! [`SampleOptions`], decoding with the stacks a [`DecoderFactory`] builds.
//! New calibration rates reach a run as a factory over a graph reweighted
//! to them ([`MatchingGraph::reweight`]). 64-shot batches, grouped into
//! fixed-size chunks, go to worker threads. The determinism contract:
//! **results depend only on `(options, base_seed)` — never on the thread
//! count or scheduling order.** Concretely:
//!
//! - The chunk size is a function of the shot budget alone, and every
//!   64-shot batch `b` (numbered globally across the run) samples from its
//!   own RNG seeded by [`chunk_seed`]`(base_seed, b)`. Per-*batch* seeding
//!   makes batches independent streams, which lets a chunk sample
//!   [`LANES`] of them in SIMD lockstep
//!   ([`CompiledCircuit::sample_batches_wide_into`]) and its tail one at a
//!   time ([`CompiledCircuit::sample_batch_into`]) while each batch stays
//!   bit-identical to a narrow replay with the same seed.
//! - Early stopping (`max_failures`) is resolved at chunk granularity: the
//!   run is cut at the *first* chunk whose prefix `0..=k` holds the
//!   failure budget, and only chunks up to the cut contribute to the
//!   estimate. Chunks that other workers had already started are
//!   discarded, so a racing thread can waste work but never change the
//!   answer.
//! - [`estimate_ler_seeded`] runs the identical chunk schedule on the
//!   calling thread; [`LerEngine::estimate`] at any thread count returns
//!   the same [`LerEstimate`] bit-for-bit.
//!
//! Wall-clock, per-phase timing, and throughput land in [`EngineRun`],
//! deliberately outside `LerEstimate` so estimates stay comparable.
//!
//! # Failure model
//!
//! The engine is hardened against decoder faults (see DESIGN.md §9):
//!
//! - Inputs are validated up front — a malformed circuit or matching graph
//!   returns a typed [`EngineError`] instead of panicking inside a worker.
//! - Each chunk's sample+decode runs under `catch_unwind`. A chunk that
//!   panics is quarantined and re-run with the **same** per-batch seed
//!   schedule on the next rung of a degradation ladder: rung 0 is the
//!   factory's full [`DecodeStack`], rung 1 a freshly built bare decoder,
//!   rung 2 a [`ReferenceUnionFind`] over the factory's fallback graph.
//!   Because the sampled shots depend only on the chunk's batch seeds, a
//!   retry re-decodes the *identical* syndrome stream.
//! - A worker panic can no longer cascade: the shared mutex recovers from
//!   poisoning via `PoisonError::into_inner`, and a chunk that faults on
//!   every rung surfaces as one typed [`EngineError::ChunkFailed`].
//! - Every fault is accounted in [`EngineRun`] (`faulted_chunks`,
//!   `retried_chunks`, `degraded_shots`, per-rung counters); when no fault
//!   fires the results are bit-identical to the unhardened engine and all
//!   fault counters are zero.
//!
//! A [`FaultPlan`] makes the decode of chosen chunks panic to exercise
//! this machinery deterministically; injection only ever fires on a
//! chunk's first (rung-0) attempt.

use crate::cluster::{cluster_hist_bucket, ClusterTier, CLUSTER_HIST_BUCKETS, MAX_CLUSTER_DEFECTS};
use crate::decode::{Decoder, LerEstimate, SampleOptions};
use crate::error::{EngineError, ValidationError};
use crate::faults::{FaultKind, FaultPlan};
use crate::graph::MatchingGraph;
use crate::predecode::{ClusterGate, CLUSTER_GATE_MIN_MEAN_DEFECTS};
use crate::reference::ReferenceUnionFind;
use caliqec_obs::{Counter, Event, EventKind, Gauge, Hist, ObsSink, WorkerObs};
use caliqec_stab::{
    chunk_seed, resolve_threads, BatchEvents, CompiledCircuit, FrameState, SparseBatch,
    WideFrameState, BATCH, LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Builds per-worker decoder stacks for parallel estimation.
///
/// Blanket-implemented for any `Fn() -> D` closure that is `Sync`, so the
/// idiomatic call site is:
///
/// ```ignore
/// let graph = graph_for_circuit(&circuit);
/// engine.estimate(&compiled, &|| UnionFindDecoder::new(graph.clone()), opts, seed);
/// ```
pub trait DecoderFactory: Sync {
    /// The decoder type produced.
    type Decoder: Decoder;

    /// Builds one bare decoder. Rung 1 of the degradation ladder calls
    /// this for every retry, since a panicking decoder may leave its
    /// scratch torn.
    fn build(&self) -> Self::Decoder;

    /// Builds one rung-0 decoder stack: the decoder plus whatever front
    /// tier the factory arms (one stack per worker; stacks share their
    /// tables). The default is a bare stack — plain factories decode every
    /// nonempty shot in full. Wrap a factory in [`crate::Tiered`] for the
    /// cluster tier and the rung-2 fallback graph.
    fn stack(&self) -> DecodeStack<Self::Decoder> {
        DecodeStack::new(self.build())
    }

    /// Validates whatever inputs this factory bakes into its decoders.
    /// [`LerEngine::try_run`] calls this before launching workers; the
    /// default factory has nothing visible to check.
    fn validate(&self) -> Result<(), ValidationError> {
        Ok(())
    }

    /// The matching graph backing this factory's decoders, if the factory
    /// exposes one. Rung 2 of the degradation ladder builds a
    /// [`ReferenceUnionFind`] from it; without one the ladder ends at
    /// rung 1.
    fn fallback_graph(&self) -> Option<&MatchingGraph> {
        None
    }
}

impl<D: Decoder, F: Fn() -> D + Sync> DecoderFactory for F {
    type Decoder = D;

    fn build(&self) -> D {
        self()
    }
}

/// A decoder plus the one front tier that may see a shot before it: the
/// dense-regime [`ClusterTier`] under its density [`ClusterGate`].
/// [`DecoderFactory::stack`] builds one per worker; the batch engine and
/// the streaming service decode every window through it.
///
/// Rung 0 dispatches each shot to one of three places: tier 0 (an empty
/// syndrome, identity mask), the cluster tier (more than
/// [`MAX_CLUSTER_DEFECTS`] defects, with a tier armed and its gate
/// on), or the full decoder (everything else).
#[derive(Debug)]
pub struct DecodeStack<D> {
    /// The full decoder every nonempty shot reaches unless the cluster
    /// tier resolves it.
    pub decoder: D,
    /// Flood decomposition for dense shots, if armed.
    pub cluster: Option<ClusterTier>,
    /// When the cluster tier runs (meaningful only with `cluster` armed).
    pub gate: ClusterGate,
}

impl<D> DecodeStack<D> {
    /// A bare stack: `decoder` alone, no front tier.
    pub fn new(decoder: D) -> DecodeStack<D> {
        DecodeStack {
            decoder,
            cluster: None,
            gate: ClusterGate::Off,
        }
    }
}

/// The deterministic work schedule shared by the parallel engine and the
/// serial reference path.
#[derive(Clone, Copy, Debug)]
struct ChunkPlan {
    /// Keys the per-batch RNG schedule.
    base_seed: u64,
    /// Batches per chunk — a function of the shot budget only.
    chunk_batches: usize,
    /// Total chunks covering `max_batches`.
    num_chunks: usize,
    /// Total batch budget.
    max_batches: usize,
    /// Failure budget (0 = run the full batch budget).
    max_failures: usize,
}

impl ChunkPlan {
    fn new(options: &SampleOptions, base_seed: u64) -> ChunkPlan {
        let min_batches = options.min_shots.div_ceil(BATCH).max(1);
        let max_batches = if options.max_shots == 0 {
            min_batches
        } else {
            options.max_shots.div_ceil(BATCH).max(min_batches)
        };
        // Aim for ~64 chunks so early-stopping stays reasonably fine-grained
        // while per-chunk overhead amortizes; never let the chunk size depend
        // on the thread count, or determinism across thread counts breaks.
        let chunk_batches = max_batches.div_ceil(64).clamp(1, 64);
        ChunkPlan {
            base_seed,
            chunk_batches,
            num_chunks: max_batches.div_ceil(chunk_batches),
            max_batches,
            max_failures: options.max_failures,
        }
    }

    /// Global index of the first batch of `chunk` — the unit the
    /// per-batch RNG schedule is keyed on ([`chunk_seed`]`(base_seed,
    /// first_batch + k)` seeds the chunk's `k`-th batch).
    fn first_batch(&self, chunk: usize) -> usize {
        chunk * self.chunk_batches
    }

    /// Number of batches chunk `chunk` samples (the last chunk may be short).
    fn batches_in(&self, chunk: usize) -> usize {
        self.chunk_batches
            .min(self.max_batches - self.first_batch(chunk))
    }
}

/// Per-worker sampling scratch, reused across every rung of every chunk a
/// worker touches: the narrow frame state (tail batches), the [`LANES`]-wide
/// lockstep state, one [`BatchEvents`] per lane, and the sparse extractor.
struct SampleScratch {
    state: FrameState,
    wide: WideFrameState,
    events: [BatchEvents; LANES],
    sparse: SparseBatch,
}

impl SampleScratch {
    fn new(compiled: &CompiledCircuit) -> SampleScratch {
        SampleScratch {
            state: FrameState::new(compiled),
            wide: WideFrameState::new(compiled),
            events: std::array::from_fn(|_| BatchEvents::default()),
            sparse: SparseBatch::new(),
        }
    }
}

/// Buckets of the per-run defect-count histogram: exact counts `0..=31`
/// plus log-scaled tail buckets (32–63, 64–127, 128–255, ≥256). At d = 15
/// a single ≥32 overflow bucket used to swallow >99% of shots; the log tail
/// keeps the dense regime visible.
pub const DEFECT_HIST_BUCKETS: usize = 36;

/// Maps a per-shot defect count to its bucket in
/// [`EngineRun::defect_histogram`]: counts below 32 map to themselves, the
/// tail is log-scaled (32–63 → 32, 64–127 → 33, 128–255 → 34, ≥256 → 35).
pub fn defect_hist_bucket(defects: usize) -> usize {
    match defects {
        0..=31 => defects,
        32..=63 => 32,
        64..=127 => 33,
        128..=255 => 34,
        _ => 35,
    }
}

/// Rungs of the decoder degradation ladder: the factory's full decode
/// stack, a fresh bare decoder, and a [`ReferenceUnionFind`] over the
/// factory's fallback graph.
pub const LADDER_RUNGS: usize = 3;

/// Per-window decode statistics accumulated by
/// [`DecodeStack::decode_window_masks`].
///
/// The batch engine accumulates one of these per chunk (every batch in the
/// chunk sums into the same struct); the streaming service accumulates one
/// per decoded window. All counts are deterministic functions of the
/// window's syndrome content and the decoder configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WindowStats {
    /// Shots with an empty defect list (identity correction, no decoder).
    pub(crate) tier0_shots: usize,
    /// Shots that reached a full-decoder call.
    pub(crate) residual_shots: usize,
    /// Dense shots fully resolved by the cluster tier.
    pub(crate) clustered_shots: usize,
    /// Defects peeled by certified clusters.
    pub(crate) clustered_defects: usize,
    /// Flood clusters decomposed.
    pub(crate) clusters_total: u64,
    /// Cluster-size histogram ([`cluster_hist_bucket`] buckets).
    pub(crate) cluster_size_histogram: [u64; CLUSTER_HIST_BUCKETS],
    /// Per-shot defect-count histogram ([`defect_hist_bucket`] buckets).
    pub(crate) defect_histogram: [u64; DEFECT_HIST_BUCKETS],
    /// Windows the density gate sent through the cluster decomposition
    /// (counted only while a cluster tier is armed).
    pub(crate) cluster_gate_on: usize,
    /// Windows the gate diverted to the monolithic path.
    pub(crate) cluster_gate_off: usize,
    /// Time inside the tier-dispatch classification scan (the batch engine
    /// charges this to its extract phase).
    pub(crate) classify_seconds: f64,
    /// Flood-decomposition time.
    pub(crate) cluster_seconds: f64,
    /// Full-decoder time.
    pub(crate) decode_seconds: f64,
}

impl Default for WindowStats {
    fn default() -> WindowStats {
        WindowStats {
            tier0_shots: 0,
            residual_shots: 0,
            clustered_shots: 0,
            clustered_defects: 0,
            clusters_total: 0,
            cluster_size_histogram: [0; CLUSTER_HIST_BUCKETS],
            defect_histogram: [0; DEFECT_HIST_BUCKETS],
            cluster_gate_on: 0,
            cluster_gate_off: 0,
            classify_seconds: 0.0,
            cluster_seconds: 0.0,
            decode_seconds: 0.0,
        }
    }
}

impl WindowStats {
    /// Adds `other` into `self`, field by field.
    fn add(&mut self, other: &WindowStats) {
        self.tier0_shots += other.tier0_shots;
        self.residual_shots += other.residual_shots;
        self.clustered_shots += other.clustered_shots;
        self.clustered_defects += other.clustered_defects;
        self.clusters_total += other.clusters_total;
        for (acc, b) in self
            .cluster_size_histogram
            .iter_mut()
            .zip(other.cluster_size_histogram)
        {
            *acc += b;
        }
        for (acc, b) in self.defect_histogram.iter_mut().zip(other.defect_histogram) {
            *acc += b;
        }
        self.cluster_gate_on += other.cluster_gate_on;
        self.cluster_gate_off += other.cluster_gate_off;
        self.classify_seconds += other.classify_seconds;
        self.cluster_seconds += other.cluster_seconds;
        self.decode_seconds += other.decode_seconds;
    }
}

impl<D: Decoder> DecodeStack<D> {
    /// Decodes one extracted 64-shot window into per-shot predicted
    /// observable masks — the rung-0 dispatch shared by the batch engine
    /// ([`LerEngine`]) and the streaming service
    /// ([`crate::StreamingDecoder`]).
    ///
    /// `masks[s]` receives the stack's predicted observable mask for shot
    /// `s`: `0` for an empty syndrome, the peel-XOR-residual mask on the
    /// cluster path, and the full decoder's mask otherwise. Callers that
    /// know the ground truth (the batch engine, which sampled the
    /// observables alongside the detectors) XOR against it to count
    /// failures; callers that don't (a streaming service fed detector
    /// events only) forward the masks as corrections. The mask of every
    /// shot is a deterministic function of `(window contents, stack
    /// configuration)` — nothing here depends on wall clock or thread
    /// interleaving.
    ///
    /// Tier accounting accumulates into `stats` (additive across windows),
    /// including the density gate's verdict when a cluster tier is armed.
    /// The `Auto` gate compares the window's mean defect count against
    /// [`CLUSTER_GATE_MIN_MEAN_DEFECTS`]. When `obs` is enabled, per-shot
    /// decode latencies land in its histograms (`decode_hist` selects the
    /// rung-specific decode histogram); a disabled handle costs one branch
    /// per shot and reads no clock.
    pub(crate) fn decode_window_masks(
        &mut self,
        sparse: &SparseBatch,
        obs: &mut WorkerObs,
        decode_hist: Hist,
        stats: &mut WindowStats,
        masks: &mut [u64; BATCH],
    ) {
        let DecodeStack {
            decoder,
            cluster,
            gate,
        } = self;
        // Tier 0 (empty defect list — identity correction) is resolved
        // here, together with the defect histogram and the window's defect
        // total the `Auto` gate reads.
        let t1 = Instant::now();
        let mut window_defects = 0usize;
        for (s, mask) in masks.iter_mut().enumerate() {
            let defects = sparse.defect_count(s);
            stats.defect_histogram[defect_hist_bucket(defects)] += 1;
            window_defects += defects;
            if defects == 0 {
                stats.tier0_shots += 1;
                *mask = 0;
            }
        }
        stats.classify_seconds += t1.elapsed().as_secs_f64();
        // Defect-density gate: below the threshold, the flood decomposition
        // costs more than the monolithic decodes it replaces, so `Auto`
        // diverts sparse windows to the full decoder. The two paths are
        // different decoders — a partially peeled shot can get a different
        // mask than its monolithic decode — so the gate can change a mask
        // and a failure count, not only where the time goes.
        let cluster_ran = cluster.is_some()
            && match gate {
                ClusterGate::On => true,
                ClusterGate::Off => false,
                ClusterGate::Auto => {
                    window_defects as f64 / BATCH as f64 >= CLUSTER_GATE_MIN_MEAN_DEFECTS
                }
            };
        if cluster.is_some() {
            if cluster_ran {
                stats.cluster_gate_on += 1;
            } else {
                stats.cluster_gate_off += 1;
            }
        }
        // Shots past this bound took the cluster path below.
        let mut monolithic_bound = usize::MAX;
        if let Some(clu) = cluster.as_mut().filter(|_| cluster_ran) {
            monolithic_bound = MAX_CLUSTER_DEFECTS;
            // Dense shots: flood-decompose, peel certified clusters, decode
            // the residual union in one full-decoder call, XOR the masks.
            // Phase time is summed per shot (decomposition vs decoding), so
            // loop-tail bookkeeping is charged to neither and the timers
            // stay below wall clock.
            for (s, mask) in masks.iter_mut().enumerate() {
                let defects = sparse.defects(s);
                if defects.len() <= monolithic_bound {
                    continue;
                }
                let c0 = Instant::now();
                let out = clu.decompose(defects);
                let c1 = Instant::now();
                stats.cluster_seconds += (c1 - c0).as_secs_f64();
                stats.clusters_total += out.clusters as u64;
                for &size in clu.cluster_sizes() {
                    stats.cluster_size_histogram[cluster_hist_bucket(size as usize)] += 1;
                }
                stats.clustered_defects += out.peeled_defects as usize;
                *mask = out.mask;
                if out.fully_peeled() {
                    stats.clustered_shots += 1;
                    if obs.enabled() {
                        obs.record(Hist::ClusterShot, (c1 - c0).as_nanos() as u64);
                    }
                } else {
                    stats.residual_shots += 1;
                    let d0 = Instant::now();
                    *mask ^= decoder.decode(clu.residual_defects());
                    let d1 = Instant::now();
                    stats.decode_seconds += (d1 - d0).as_secs_f64();
                    if obs.enabled() {
                        obs.record(decode_hist, (d1 - d0).as_nanos() as u64);
                    }
                }
            }
        }
        // The full decoder takes every other nonempty shot.
        let t2 = Instant::now();
        let mut shot_t = obs.clock();
        for (s, mask) in masks.iter_mut().enumerate() {
            let defects = sparse.defects(s);
            if defects.is_empty() || defects.len() > monolithic_bound {
                continue;
            }
            *mask = decoder.decode(defects);
            stats.residual_shots += 1;
            shot_t = obs.record_since(decode_hist, shot_t);
        }
        stats.decode_seconds += t2.elapsed().as_secs_f64();
    }
}

/// Outcome of sampling and decoding one chunk.
#[derive(Clone, Copy, Debug)]
struct ChunkResult {
    batches: usize,
    failures: usize,
    /// Ladder rung the chunk completed on.
    rung: usize,
    /// Tier and gate accounting and the cluster/decode phase timers.
    stats: WindowStats,
    sample_seconds: f64,
    /// Sparse extraction plus the tier-dispatch classification scan.
    extract_seconds: f64,
}

/// Why one decode attempt did not produce a result: the message of the
/// panic `catch_unwind` caught. Shared by the batch engine's chunk ladder
/// and the streaming service's window retries.
#[derive(Clone, Debug)]
pub(crate) struct ChunkFault(String);

impl fmt::Display for ChunkFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "panicked: {}", self.0)
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work` panic-isolated: a caught panic becomes a [`ChunkFault`]
/// carrying its message.
pub(crate) fn isolate<T>(work: impl FnOnce() -> T) -> Result<T, ChunkFault> {
    std::panic::catch_unwind(AssertUnwindSafe(work))
        .map_err(|payload| ChunkFault(panic_message(payload)))
}

/// Records the journal entry and counter for one faulted attempt on `rung`.
pub(crate) fn observe_chunk_fault(obs: &mut WorkerObs, rung: usize) {
    obs.add(Counter::FaultsPanic, 1);
    obs.event(EventKind::Fault {
        kind: "panic",
        rung: rung as u8,
    });
}

/// Fault bookkeeping: per chunk in a worker, then summed in [`Shared`].
#[derive(Clone, Copy, Debug, Default)]
struct FaultTally {
    faults: usize,
    retries: usize,
}

impl FaultTally {
    fn add(&mut self, other: &FaultTally) {
        self.faults += other.faults;
        self.retries += other.retries;
    }
}

/// Samples and decodes one chunk from its deterministic seed.
///
/// The phases are timed separately and *partition* the chunk's wall time:
/// frame sampling, word-sparse syndrome extraction plus tier-dispatch
/// bookkeeping (defect counting, the histogram, and tier-0 skips are
/// syndrome accounting, so they are charged to `extract_seconds`, not to a
/// decode phase), cluster decomposition, and full decoding of the residual
/// shots — so `sample + extract + cluster + decode <= wall` holds per
/// worker.
///
/// Without a cluster tier, tier dispatch preserves the bare decoder's
/// failure count bit for bit: tier-0 skips reproduce `decode(&[]) == 0`,
/// and every other shot reaches the decoder. An armed cluster tier is a
/// decoder variant (see [`ClusterTier`]).
fn run_chunk<D: Decoder>(
    compiled: &CompiledCircuit,
    plan: &ChunkPlan,
    chunk: usize,
    stack: &mut DecodeStack<D>,
    scratch: &mut SampleScratch,
    obs: &mut WorkerObs,
    rung: usize,
) -> ChunkResult {
    let batches = plan.batches_in(chunk);
    let first_batch = plan.first_batch(chunk) as u64;
    let decode_hist = match rung {
        0 => Hist::DecodeShotRung0,
        1 => Hist::DecodeShotRung1,
        _ => Hist::DecodeShotRung2,
    };
    let mut result = ChunkResult {
        batches,
        failures: 0,
        rung,
        stats: WindowStats::default(),
        sample_seconds: 0.0,
        extract_seconds: 0.0,
    };
    let mut masks = [0u64; BATCH];
    let SampleScratch {
        state,
        wide,
        events: lane_events,
        sparse,
    } = scratch;
    let seed = |b: usize| StdRng::seed_from_u64(chunk_seed(plan.base_seed, first_batch + b as u64));
    let mut b = 0usize;
    while b < batches {
        // Sample the next lane group: LANES batches in lockstep, or one
        // batch of the chunk's tail. Each lane is an independent per-batch
        // RNG stream, so both group sizes produce bit-identical words for a
        // given batch index — only the sampling throughput differs.
        let lanes = if batches - b >= LANES { LANES } else { 1 };
        let t0 = Instant::now();
        if lanes == LANES {
            let mut rngs: [StdRng; LANES] = std::array::from_fn(|l| seed(b + l));
            compiled.sample_batches_wide_into(wide, &mut rngs, lane_events);
        } else {
            compiled.sample_batch_into(state, &mut seed(b), &mut lane_events[0]);
        }
        result.sample_seconds += t0.elapsed().as_secs_f64();
        b += lanes;
        for events in &lane_events[..lanes] {
            let t1 = Instant::now();
            sparse.extract(events);
            result.extract_seconds += t1.elapsed().as_secs_f64();
            stack.decode_window_masks(sparse, obs, decode_hist, &mut result.stats, &mut masks);
            // Score the predicted masks against the sampled ground truth.
            for (s, &mask) in masks.iter().enumerate() {
                if mask != sparse.observables(s) {
                    result.failures += 1;
                }
            }
        }
    }
    // The tier-dispatch classification scan is syndrome accounting, so it
    // is charged to the extract phase, not to a decode phase.
    result.extract_seconds += result.stats.classify_seconds;
    result
}

/// Runs one panic-isolated attempt at a chunk on `rung`, injecting the
/// scheduled fault first (injections only reach rung-0 attempts).
///
/// Both injections end in a panic inside the isolated attempt, as the
/// failures they model would: `Panic` is a decoder bug, `CorruptDefects`
/// hands the decoder an out-of-range node id as corrupted syndrome
/// extraction would.
fn attempt_chunk<F: DecoderFactory, D: Decoder>(
    job: &Job<'_, F>,
    stack: &mut DecodeStack<D>,
    scratch: &mut SampleScratch,
    chunk: usize,
    rung: usize,
    obs: &mut WorkerObs,
) -> Result<ChunkResult, ChunkFault> {
    let injected = job
        .faults
        .filter(|_| rung == 0)
        .and_then(|p| p.injection(chunk));
    isolate(|| {
        match injected {
            None => {}
            Some(FaultKind::Panic) => panic!("injected decoder panic at chunk {chunk}"),
            // A corrupted syndrome stream: one defect id far past every
            // node the decoder knows.
            Some(FaultKind::CorruptDefects) => {
                stack.decoder.decode(&[usize::MAX / 2]);
            }
        }
        run_chunk(job.compiled, &job.plan, chunk, stack, scratch, obs, rung)
    })
}

/// Result of one [`LerEngine::try_run`]: the estimate plus
/// throughput/timing counters.
///
/// Timing covers *all executed* chunks, including any discarded past an
/// early-stop cut, so it reflects true cost; the estimate covers only the
/// deterministic included prefix.
#[derive(Clone, Copy, Debug)]
pub struct EngineRun {
    /// The (thread-count-independent) estimate.
    pub estimate: LerEstimate,
    /// Worker threads used.
    pub threads: usize,
    /// Chunks contributing to the estimate.
    pub chunks_included: usize,
    /// Chunks actually executed (≥ `chunks_included` under early stop).
    pub chunks_executed: usize,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// CPU seconds spent sampling batches, summed across workers.
    pub sample_seconds: f64,
    /// CPU seconds spent extracting sparse syndromes from frame words plus
    /// tier-dispatch bookkeeping (defect counting, the histogram, tier-0
    /// skips), summed across workers.
    pub extract_seconds: f64,
    /// Always 0: no decode stack runs a predecoder. Kept for the
    /// benchmark harness, which still reads it.
    pub predecode_seconds: f64,
    /// CPU seconds spent flood-decomposing dense shots into independent
    /// clusters and peeling the certified ones (the dense-regime cluster
    /// tier). Zero unless the factory arms the tier
    /// ([`crate::Tiered::with_cluster_gate`]). Per-cluster decoder calls on
    /// uncertified clusters are charged to `decode_seconds`.
    pub cluster_seconds: f64,
    /// CPU seconds spent in the full decoder on residual shots, summed
    /// across workers.
    pub decode_seconds: f64,
    /// Shots with an empty defect list (tier 0: skipped decoding).
    ///
    /// Like the timing counters, the per-tier shot counters and the
    /// histogram cover *all executed* chunks; without early stopping they
    /// partition `estimate.shots` exactly: `tier0_shots + clustered_shots +
    /// residual_shots == shots`.
    pub tier0_shots: usize,
    /// Always 0: no decode stack runs a predecoder. Kept for the
    /// benchmark harness, which still reads it.
    pub predecoded_shots: usize,
    /// Shots decoded by the full decoder (tier 2). A dense shot whose
    /// decomposition left at least one uncertified cluster counts here (it
    /// made decoder calls), even though its certified clusters peeled.
    pub residual_shots: usize,
    /// Dense shots fully resolved by the cluster tier — every flood cluster
    /// certified and peeled, zero full-decoder calls. Always zero when the
    /// tier is off.
    pub clustered_shots: usize,
    /// Defects peeled by certified clusters across all dense shots
    /// (including partial peels on shots that still count as residual).
    pub clustered_defects: usize,
    /// Flood clusters produced across all dense-shot decompositions.
    pub clusters_total: u64,
    /// Histogram of flood-cluster sizes: bucket `i < 15` counts clusters of
    /// exactly `i + 1` defects; the last bucket is the ≥16 tail
    /// ([`cluster_hist_bucket`]). Sums to `clusters_total`.
    pub cluster_size_histogram: [u64; CLUSTER_HIST_BUCKETS],
    /// Histogram of per-shot defect counts: bucket `i < 32` counts shots
    /// with exactly `i` defects; the tail is log-scaled per
    /// [`defect_hist_bucket`] (32–63, 64–127, 128–255, ≥256).
    pub defect_histogram: [u64; DEFECT_HIST_BUCKETS],
    /// Fault events observed across all chunk attempts (a chunk that
    /// faults on two rungs counts twice). Zero when no fault fired.
    pub faulted_chunks: usize,
    /// Retry attempts launched in response to faults. In every `Ok` run
    /// each fault triggers exactly one retry on the next rung, so
    /// `retried_chunks == faulted_chunks` — no fault is silently dropped.
    pub retried_chunks: usize,
    /// Shots whose chunk completed on a rung above 0 (decoded by a
    /// degraded configuration).
    pub degraded_shots: usize,
    /// Chunks completed per ladder rung (`rung_chunks[0]` is the pristine
    /// fast path; entries sum to `chunks_executed`).
    pub rung_chunks: [usize; LADDER_RUNGS],
    /// Batches the defect-density gate sent through the cluster
    /// decomposition (counted only while a cluster tier was armed).
    pub cluster_gate_on: usize,
    /// Batches the gate diverted to the monolithic decode path.
    pub cluster_gate_off: usize,
}

impl EngineRun {
    /// Decoded-shot throughput (shots per wall-clock second).
    pub fn shots_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.estimate.shots as f64 / self.wall_seconds
    }

    /// True when any chunk completed on a rung above 0 (the run degraded
    /// but recovered). The `caliqec` CLI's `--strict` mode turns this into
    /// a nonzero exit.
    pub fn degraded(&self) -> bool {
        self.rung_chunks[1..].iter().any(|&c| c > 0)
    }
}

/// Aggregation state shared by workers under a mutex: per-chunk results
/// and the summed fault tally, folded into an [`EngineRun`] once by
/// [`assemble_run`].
struct Shared {
    /// Every executed chunk's result, including any past the cut.
    results: Vec<Option<ChunkResult>>,
    /// First chunk index at which the stop rule is met, once known
    /// (requires the full prefix to have completed).
    cut: Option<usize>,
    /// First ladder-exhaustion error, if any; set once, ends the run.
    fatal: Option<EngineError>,
    faults: FaultTally,
}

impl Shared {
    /// Recomputes the failure-budget cut over the completed prefix.
    ///
    /// The cut is a pure function of the deterministic chunk prefix, so any
    /// thread count stops at the same place: the first chunk index where
    /// the prefix holds `plan.max_failures` failures.
    fn recompute_cut(&mut self, plan: &ChunkPlan) {
        let mut failures = 0usize;
        for (k, res) in self.results.iter().enumerate() {
            let Some(r) = res else { return };
            failures += r.failures;
            if failures >= plan.max_failures {
                self.cut = Some(k);
                return;
            }
        }
    }
}

/// Locks the shared state, recovering from poisoning: a worker that
/// panicked while holding the lock has already been quarantined by
/// `catch_unwind`, and the state it was merging is monotone — the worst
/// case is one chunk's statistics lost, never a torn estimate, so the
/// remaining workers keep going instead of cascading N secondary panics.
fn lock_shared(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a run's workers share: the sampled program, the chunk
/// schedule and the decoder factory, plus the work counter and the
/// aggregation state.
struct Job<'a, F> {
    compiled: &'a CompiledCircuit,
    plan: ChunkPlan,
    factory: &'a F,
    faults: Option<&'a FaultPlan>,
    next: AtomicUsize,
    shared: Mutex<Shared>,
}

/// Thread-parallel Monte-Carlo LER estimator. See the module docs for the
/// determinism contract and the failure model.
///
/// # Examples
///
/// ```
/// use caliqec_match::{graph_for_circuit, LerEngine, SampleOptions, UnionFindDecoder};
/// use caliqec_stab::{Basis, Circuit, CompiledCircuit, Noise1};
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 0.01, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
/// c.observable(0, &[m]);
///
/// let compiled = CompiledCircuit::try_new(&c).unwrap();
/// let graph = graph_for_circuit(&c);
/// let options = SampleOptions { min_shots: 640, ..Default::default() };
/// let run = LerEngine::new(2)
///     .try_run(&compiled, &|| UnionFindDecoder::new(graph.clone()), options, 7)
///     .unwrap();
/// // A single perfectly-heralded error is always corrected.
/// assert_eq!(run.estimate.failures, 0);
/// assert_eq!(run.estimate.shots, 640);
/// assert_eq!(run.faulted_chunks, 0);
/// ```
#[derive(Clone, Debug)]
pub struct LerEngine {
    threads: usize,
    faults: Option<FaultPlan>,
    obs: ObsSink,
}

impl LerEngine {
    /// Creates an engine with `threads` workers (0 = auto: honours the
    /// `CALIQEC_THREADS` environment variable, else all available cores).
    /// No fault plan is armed; [`LerEngine::with_faults`] arms one.
    /// Observability is disabled; [`LerEngine::with_obs`] attaches a sink.
    pub fn new(threads: usize) -> LerEngine {
        LerEngine {
            threads: resolve_threads(threads),
            faults: None,
            obs: ObsSink::disabled(),
        }
    }

    /// Arms a fault-injection plan (empty plans disarm).
    pub fn with_faults(mut self, plan: FaultPlan) -> LerEngine {
        self.faults = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Attaches an observability sink: metrics, per-shot latency
    /// histograms, and the structured event journal record into it during
    /// every subsequent run. Nothing recorded is ever read back by
    /// decoding, so results stay bit-identical whether the sink is enabled
    /// or [`ObsSink::disabled`] (the default).
    pub fn with_obs(mut self, obs: ObsSink) -> LerEngine {
        self.obs = obs;
        self
    }

    /// The attached observability sink (disabled unless
    /// [`LerEngine::with_obs`] replaced it).
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`LerEngine::try_run`], panicking on a typed [`EngineError`].
    pub fn estimate<F: DecoderFactory>(
        &self,
        compiled: &CompiledCircuit,
        factory: &F,
        options: SampleOptions,
        base_seed: u64,
    ) -> EngineRun {
        self.try_run(compiled, factory, options, base_seed)
            .expect("engine run failed")
    }

    /// Runs the shot budget of `options` over `compiled`, decoding with
    /// the stacks `factory` builds. Deterministic in `(options,
    /// base_seed)` at any thread count.
    ///
    /// Validates the circuit and the factory up front, then runs the
    /// hardened chunk loop. Returns a typed [`EngineError`] for invalid
    /// inputs or a chunk that faulted on every rung of the degradation
    /// ladder; all recovered faults are reported in the returned
    /// [`EngineRun`] instead.
    pub fn try_run<F: DecoderFactory>(
        &self,
        compiled: &CompiledCircuit,
        factory: &F,
        options: SampleOptions,
        base_seed: u64,
    ) -> Result<EngineRun, EngineError> {
        compiled.validate()?;
        factory.validate()?;
        let started = Instant::now();
        let plan = ChunkPlan::new(&options, base_seed);

        let run_id = self.obs.begin_run();
        let mut coord = self.obs.worker(run_id, Event::COORDINATOR);
        coord.add(Counter::RunsStarted, 1);
        let threads = self.threads.min(plan.num_chunks).max(1);
        coord.set(Gauge::Workers, threads as u64);
        coord.set(Gauge::ChunksPlanned, plan.num_chunks as u64);
        coord.event(EventKind::RunStart {
            threads: threads as u32,
            chunks: plan.num_chunks as u32,
        });
        coord.flush();

        let job = Job {
            compiled,
            plan,
            factory,
            faults: self.faults.as_ref(),
            next: AtomicUsize::new(0),
            shared: Mutex::new(Shared {
                results: vec![None; plan.num_chunks],
                cut: None,
                fatal: None,
                faults: FaultTally::default(),
            }),
        };
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let obs = self.obs.worker(run_id, worker as u32);
                let job = &job;
                std::thread::Builder::new()
                    .name(format!("caliqec-ler-{worker}"))
                    .spawn_scoped(scope, move || worker_loop(job, obs))
                    .expect("spawn LER worker thread");
            }
        });

        let sh = job
            .shared
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        assemble_run(sh, &plan, threads, started)
    }
}

/// Folds the per-chunk results into the final [`EngineRun`]: counters and
/// timers over every executed chunk, the estimate over the deterministic
/// prefix up to the cut.
fn assemble_run(
    sh: Shared,
    plan: &ChunkPlan,
    threads: usize,
    started: Instant,
) -> Result<EngineRun, EngineError> {
    if let Some(fatal) = sh.fatal {
        return Err(fatal);
    }
    let mut stats = WindowStats::default();
    let (mut sample_seconds, mut extract_seconds) = (0.0f64, 0.0f64);
    let (mut chunks_executed, mut degraded_shots) = (0usize, 0usize);
    let mut rung_chunks = [0usize; LADDER_RUNGS];
    for r in sh.results.iter().flatten() {
        stats.add(&r.stats);
        sample_seconds += r.sample_seconds;
        extract_seconds += r.extract_seconds;
        chunks_executed += 1;
        rung_chunks[r.rung] += 1;
        if r.rung > 0 {
            degraded_shots += r.batches * BATCH;
        }
    }
    let included = sh.cut.map_or(plan.num_chunks, |k| k + 1);
    let mut estimate = LerEstimate::default();
    for r in sh.results[..included].iter().flatten() {
        estimate.shots += r.batches * BATCH;
        estimate.failures += r.failures;
    }
    let faults = sh.faults;
    Ok(EngineRun {
        estimate,
        threads,
        chunks_included: included,
        chunks_executed,
        wall_seconds: started.elapsed().as_secs_f64(),
        sample_seconds,
        extract_seconds,
        predecode_seconds: 0.0,
        cluster_seconds: stats.cluster_seconds,
        decode_seconds: stats.decode_seconds,
        tier0_shots: stats.tier0_shots,
        predecoded_shots: 0,
        residual_shots: stats.residual_shots,
        clustered_shots: stats.clustered_shots,
        clustered_defects: stats.clustered_defects,
        clusters_total: stats.clusters_total,
        cluster_size_histogram: stats.cluster_size_histogram,
        defect_histogram: stats.defect_histogram,
        faulted_chunks: faults.faults,
        retried_chunks: faults.retries,
        degraded_shots,
        rung_chunks,
        cluster_gate_on: stats.cluster_gate_on,
        cluster_gate_off: stats.cluster_gate_off,
    })
}

/// Records the metrics and journal entry for a chunk that completed on
/// `result.rung`. `attempt_started` is the [`WorkerObs::clock`] reading
/// taken when the successful attempt began; on a disabled handle everything
/// no-ops.
fn observe_chunk_finish(
    obs: &mut WorkerObs,
    result: &ChunkResult,
    attempt_started: Option<Instant>,
) {
    if !obs.enabled() {
        return;
    }
    let stats = &result.stats;
    let _ = obs.record_since(Hist::ChunkWall, attempt_started);
    obs.add(Counter::ChunksFinished, 1);
    obs.add(Counter::ShotsTier0, stats.tier0_shots as u64);
    obs.add(Counter::ShotsTier2, stats.residual_shots as u64);
    if stats.clustered_shots > 0 {
        obs.add(Counter::ShotsCluster, stats.clustered_shots as u64);
    }
    let shots = (result.batches * BATCH) as u64;
    // Per-rung chunk counters mirror `EngineRun::rung_chunks` into the
    // exporters, so degradation is visible on `--prom-out` too.
    obs.add(
        match result.rung {
            0 => Counter::ChunksRung0,
            1 => Counter::ChunksRung1,
            _ => Counter::ChunksRung2,
        },
        1,
    );
    if result.rung > 0 {
        obs.add(Counter::ShotsDegraded, shots);
    }
    obs.event(EventKind::ChunkFinish {
        rung: result.rung as u8,
        shots: shots as u32,
        failures: result.failures as u32,
        tier0: stats.tier0_shots as u32,
        tier2: stats.residual_shots as u32,
        sample_nanos: (result.sample_seconds * 1e9) as u64,
        extract_nanos: (result.extract_seconds * 1e9) as u64,
        decode_nanos: (stats.decode_seconds * 1e9) as u64,
    });
    if stats.cluster_gate_on + stats.cluster_gate_off > 0 {
        obs.event(EventKind::ClusterGate {
            on: stats.cluster_gate_on as u32,
            off: stats.cluster_gate_off as u32,
        });
    }
}

/// The body of one worker thread: claim chunks, run each up the
/// degradation ladder, merge results.
///
/// The rung-0 stack is built on the worker's first chunk and quarantined on
/// a rung-0 fault — dropped and rebuilt from the factory on next use, since
/// a panicking decoder may leave its scratch torn.
fn worker_loop<F: DecoderFactory>(job: &Job<'_, F>, mut obs: WorkerObs) {
    let mut stack: Option<DecodeStack<F::Decoder>> = None;
    let mut scratch = SampleScratch::new(job.compiled);
    let fallback = job.factory.fallback_graph();
    loop {
        {
            let sh = lock_shared(&job.shared);
            if sh.cut.is_some() || sh.fatal.is_some() {
                break;
            }
        }
        let chunk = job.next.fetch_add(1, Ordering::Relaxed);
        if chunk >= job.plan.num_chunks {
            break;
        }
        obs.begin_chunk(chunk as u32);
        obs.add(Counter::ChunksStarted, 1);

        // Degradation ladder: rung 0 = the factory's full stack; rung 1 =
        // fresh bare decoder; rung 2 = ReferenceUnionFind over the fallback
        // graph. Every rung re-runs the same chunk seed, so the retried
        // syndrome stream is identical; injected faults only fire at rung 0.
        let mut tally = FaultTally::default();
        let mut rung = 0usize;
        let outcome: Result<ChunkResult, (ChunkFault, usize)> = loop {
            obs.event(EventKind::ChunkStart { rung: rung as u8 });
            let attempt_started = obs.clock();
            let attempt = match rung {
                0 => {
                    let stack = stack.get_or_insert_with(|| job.factory.stack());
                    attempt_chunk(job, stack, &mut scratch, chunk, rung, &mut obs)
                }
                1 => {
                    let mut bare = DecodeStack::new(job.factory.build());
                    attempt_chunk(job, &mut bare, &mut scratch, chunk, rung, &mut obs)
                }
                _ => {
                    let graph = fallback.expect("the ladder reaches rung 2 only with a fallback");
                    let mut reference = DecodeStack::new(ReferenceUnionFind::new(graph.clone()));
                    attempt_chunk(job, &mut reference, &mut scratch, chunk, rung, &mut obs)
                }
            };
            match attempt {
                Ok(result) => {
                    observe_chunk_finish(&mut obs, &result, attempt_started);
                    break Ok(result);
                }
                Err(fault) => {
                    observe_chunk_fault(&mut obs, rung);
                    tally.faults += 1;
                    if rung == 0 {
                        stack = None;
                    }
                    // Rung 2 without a fallback graph cannot be attempted;
                    // stop the ladder one rung early rather than count a
                    // phantom retry.
                    if rung + 1 == LADDER_RUNGS || (rung + 1 == 2 && fallback.is_none()) {
                        break Err((fault, rung));
                    }
                    tally.retries += 1;
                    rung += 1;
                    obs.add(Counter::Retries, 1);
                    obs.event(EventKind::Retry { rung: rung as u8 });
                }
            }
        };

        let mut sh = lock_shared(&job.shared);
        sh.faults.add(&tally);
        match outcome {
            Ok(result) => {
                sh.results[chunk] = Some(result);
                if sh.cut.is_none() && job.plan.max_failures > 0 {
                    sh.recompute_cut(&job.plan);
                }
            }
            Err((fault, rung)) => {
                sh.fatal.get_or_insert(EngineError::ChunkFailed {
                    chunk,
                    rung,
                    reason: fault.to_string(),
                });
            }
        }
        drop(sh);
        obs.flush();
    }
}

/// The serial reference path: runs the engine's exact chunk schedule on
/// the calling thread with a caller-owned decoder. [`LerEngine::estimate`]
/// returns the same [`LerEstimate`] bit-for-bit at any thread count; the
/// classic [`crate::estimate_ler`] wraps this with a base seed drawn from
/// its caller's RNG. This path is deliberately unhardened — it owns no
/// factory to rebuild a decoder from — and exists as the plain-Rust
/// oracle the hardened engine is tested against.
pub fn estimate_ler_seeded<D: Decoder>(
    compiled: &CompiledCircuit,
    decoder: &mut D,
    options: SampleOptions,
    base_seed: u64,
) -> LerEstimate {
    let plan = ChunkPlan::new(&options, base_seed);
    let mut stack = DecodeStack::new(decoder);
    let mut scratch = SampleScratch::new(compiled);
    let mut estimate = LerEstimate::default();
    let mut obs = WorkerObs::disabled();
    for chunk in 0..plan.num_chunks {
        let result = run_chunk(
            compiled,
            &plan,
            chunk,
            &mut stack,
            &mut scratch,
            &mut obs,
            0,
        );
        estimate.shots += result.batches * BATCH;
        estimate.failures += result.failures;
        if plan.max_failures > 0 && estimate.failures >= plan.max_failures {
            break;
        }
    }
    estimate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::graph_for_circuit;
    use crate::predecode::Tiered;
    use crate::unionfind::UnionFindDecoder;
    use caliqec_stab::{Basis, Circuit, Noise1};

    /// Distance-n repetition code, single round, X noise (mirrors the
    /// fixture in `decode.rs`).
    fn rep_circuit(n: usize, p: f64) -> Circuit {
        let data: Vec<u32> = (0..n as u32).collect();
        let anc: Vec<u32> = (n as u32..(2 * n - 1) as u32).collect();
        let mut c = Circuit::new(2 * n - 1);
        c.reset(Basis::Z, &(0..(2 * n - 1) as u32).collect::<Vec<_>>());
        c.noise1(Noise1::XError, p, &data);
        for i in 0..n - 1 {
            c.cx(data[i], anc[i]);
            c.cx(data[i + 1], anc[i]);
        }
        let ms: Vec<_> = anc.iter().map(|&a| c.measure(a, Basis::Z, 0.0)).collect();
        for m in &ms {
            c.detector(&[*m]);
        }
        let md = c.measure(data[0], Basis::Z, 0.0);
        c.observable(0, &[md]);
        c
    }

    #[test]
    fn engine_matches_serial_reference() {
        let c = rep_circuit(5, 0.08);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 5_000,
            ..Default::default()
        };
        let mut decoder = UnionFindDecoder::new(graph.clone());
        let serial = estimate_ler_seeded(&compiled, &mut decoder, opts, 42);
        for threads in [1, 2, 4] {
            let run = LerEngine::new(threads).estimate(
                &compiled,
                &|| UnionFindDecoder::new(graph.clone()),
                opts,
                42,
            );
            assert_eq!(run.estimate, serial, "threads={threads}");
            assert_eq!(run.faulted_chunks, 0);
            assert_eq!(run.retried_chunks, 0);
            assert_eq!(run.degraded_shots, 0);
            assert!(!run.degraded());
        }
    }

    #[test]
    fn early_stop_is_deterministic_across_thread_counts() {
        let c = rep_circuit(3, 0.3);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 64,
            max_failures: 20,
            max_shots: 64 * 4096,
        };
        let mut decoder = UnionFindDecoder::new(graph.clone());
        let serial = estimate_ler_seeded(&compiled, &mut decoder, opts, 7);
        assert!(serial.failures >= 20);
        assert!(serial.shots < 64 * 4096);
        for threads in [1, 2, 8] {
            let run = LerEngine::new(threads).estimate(
                &compiled,
                &|| UnionFindDecoder::new(graph.clone()),
                opts,
                7,
            );
            assert_eq!(run.estimate, serial, "threads={threads}");
            assert!(run.chunks_executed >= run.chunks_included);
        }
    }

    #[test]
    fn run_reports_throughput() {
        let c = rep_circuit(3, 0.05);
        let graph = graph_for_circuit(&c);
        let run = LerEngine::new(2).estimate(
            &CompiledCircuit::new(&c),
            &|| UnionFindDecoder::new(graph.clone()),
            SampleOptions {
                min_shots: 1_000,
                ..Default::default()
            },
            3,
        );
        assert_eq!(run.estimate.shots, 1_024);
        assert!(run.shots_per_sec() > 0.0);
        assert!(run.wall_seconds > 0.0);
        assert!(run.sample_seconds > 0.0);
        assert!(run.extract_seconds > 0.0);
        assert!(run.decode_seconds > 0.0);
    }

    /// The per-phase counters must partition the work, never double-count:
    /// on a single worker every timed phase is a disjoint slice of the
    /// wall-clock, so their sum is bounded by it — per chunk, hence also
    /// for any sum of chunks. Each of `threads` workers lives inside the
    /// run's wall-clock, so their summed phases are bounded by
    /// `threads × wall`.
    #[test]
    fn phase_timers_never_exceed_wall_clock() {
        let c = rep_circuit(5, 0.05);
        let graph = graph_for_circuit(&c);
        // One batch = one chunk: the run-level check *is* the per-chunk
        // check. Then multi-chunk runs check the aggregate, on one worker
        // and on two.
        for (threads, min_shots) in [(1usize, 64usize), (1, 2_000), (2, 20_000)] {
            let run = LerEngine::new(threads).estimate(
                &CompiledCircuit::new(&c),
                &|| UnionFindDecoder::new(graph.clone()),
                SampleOptions {
                    min_shots,
                    ..Default::default()
                },
                11,
            );
            assert_eq!(run.threads, threads);
            let phases = run.sample_seconds
                + run.extract_seconds
                + run.predecode_seconds
                + run.cluster_seconds
                + run.decode_seconds;
            assert!(
                phases <= run.threads as f64 * run.wall_seconds + 1e-9,
                "phase sum {phases} exceeds {threads} × wall {} (min_shots={min_shots})",
                run.wall_seconds
            );
        }
    }

    /// Without early stopping the tier counters partition the shot count
    /// and the defect histogram covers every shot — for a plain factory and
    /// a `Tiered` one, which decode the same shots the same way.
    #[test]
    fn tier_counters_partition_shots() {
        let mem = caliqec_code::memory_circuit(
            &caliqec_code::rotated_patch(3, 3),
            &caliqec_code::NoiseModel::uniform(5e-3),
            3,
            caliqec_code::MemoryBasis::Z,
        );
        let c = mem.circuit;
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 2_000,
            ..Default::default()
        };
        let plain = LerEngine::new(2).estimate(
            &CompiledCircuit::new(&c),
            &|| UnionFindDecoder::new(graph.clone()),
            opts,
            5,
        );
        let tiered_factory = crate::predecode::Tiered::new(&graph, {
            let graph = graph.clone();
            move || UnionFindDecoder::new(graph.clone())
        });
        let tiered =
            LerEngine::new(2).estimate(&CompiledCircuit::new(&c), &tiered_factory, opts, 5);
        assert_eq!(tiered.estimate, plain.estimate, "Tiered changed results");
        for run in [&plain, &tiered] {
            assert_eq!(
                run.tier0_shots + run.clustered_shots + run.residual_shots,
                run.estimate.shots,
                "tier counters must partition the shots"
            );
            assert_eq!(
                run.defect_histogram.iter().sum::<u64>(),
                run.estimate.shots as u64
            );
            assert_eq!(run.defect_histogram[0], run.tier0_shots as u64);
        }
        assert_eq!(plain.clustered_shots, 0, "cluster tier is opt-in");
        assert_eq!(tiered.clustered_shots, 0, "cluster tier is opt-in");
        for run in [&plain, &tiered] {
            assert_eq!(run.predecoded_shots, 0, "no stack runs a predecoder");
        }
        assert_eq!(tiered.residual_shots, plain.residual_shots);
    }

    /// With the cluster tier armed, the partition invariant extends to the
    /// clustered column, the cluster-size histogram sums to the cluster
    /// count, and the estimate matches the documented cluster-on reference
    /// (the tier is a decoder variant: certified clusters peel exactly,
    /// uncertified ones decode per cluster).
    #[test]
    fn cluster_tier_partitions_and_fires_on_dense_shots() {
        // Dense-but-separated regime: at d=11, p=1e-3 most shots carry more
        // than MAX_CERT_DEFECTS defects split across many small clusters, a
        // deterministic handful of which fully peel.
        let mem = caliqec_code::memory_circuit(
            &caliqec_code::rotated_patch(11, 11),
            &caliqec_code::NoiseModel::uniform(1e-3),
            11,
            caliqec_code::MemoryBasis::Z,
        );
        let c = mem.circuit;
        let graph = graph_for_circuit(&c);
        let compiled = CompiledCircuit::new(&c);
        let opts = SampleOptions {
            min_shots: 2_000,
            ..Default::default()
        };
        let factory = crate::predecode::Tiered::new(&graph, {
            let graph = graph.clone();
            move || UnionFindDecoder::new(graph.clone())
        })
        .with_cluster_gate(ClusterGate::On);
        let run = LerEngine::new(2).estimate(&compiled, &factory, opts, 5);
        assert_eq!(
            run.tier0_shots + run.clustered_shots + run.residual_shots,
            run.estimate.shots,
            "cluster partition invariant"
        );
        assert!(run.clusters_total > 0, "no dense shot was decomposed");
        assert_eq!(
            run.cluster_size_histogram.iter().sum::<u64>(),
            run.clusters_total,
            "cluster-size histogram must cover every cluster"
        );
        assert!(
            run.clustered_shots > 0,
            "some dense shot must fully peel at d=11, p=1e-3"
        );
        assert!(run.cluster_seconds > 0.0);
        // Determinism: the cluster-on run is reproducible bit for bit.
        let again = LerEngine::new(1).estimate(&compiled, &factory, opts, 5);
        assert_eq!(again.estimate, run.estimate);
        assert_eq!(again.clustered_shots, run.clustered_shots);
        assert_eq!(again.clusters_total, run.clusters_total);
    }

    /// `Auto` gates each 64-shot batch on its mean defect count. At
    /// d=11, p=1e-3 the mean sits below the threshold, so every batch is
    /// diverted to the monolithic path — zero decompositions; at d=15 it
    /// sits above, so every batch is decomposed. On these seeds the
    /// estimate equals the forced-on tier's; gating is not exact in
    /// general (`golden_engine_fingerprints_cluster_on_off` pins a seed
    /// where it changes a failure count).
    #[test]
    fn auto_gate_diverts_sparse_batches_and_decomposes_dense_ones() {
        for (d, min_shots, dense) in [(11usize, 1_000usize, false), (15, 256, true)] {
            let mem = caliqec_code::memory_circuit(
                &caliqec_code::rotated_patch(d, d),
                &caliqec_code::NoiseModel::uniform(1e-3),
                d,
                caliqec_code::MemoryBasis::Z,
            );
            let c = mem.circuit;
            let graph = graph_for_circuit(&c);
            let compiled = CompiledCircuit::new(&c);
            let opts = SampleOptions {
                min_shots,
                ..Default::default()
            };
            let build = {
                let graph = graph.clone();
                move || UnionFindDecoder::new(graph.clone())
            };
            let auto = crate::predecode::Tiered::new(&graph, build.clone())
                .with_cluster_gate(ClusterGate::Auto);
            let on =
                crate::predecode::Tiered::new(&graph, build).with_cluster_gate(ClusterGate::On);
            let gated = LerEngine::new(2).estimate(&compiled, &auto, opts, 5);
            let forced = LerEngine::new(2).estimate(&compiled, &on, opts, 5);
            if dense {
                assert!(gated.cluster_gate_on > 0, "d={d}: gate never switched on");
                assert_eq!(
                    gated.cluster_gate_off, 0,
                    "d={d} density must clear the gate on every batch"
                );
                assert!(
                    gated.clusters_total > 0,
                    "d={d}: no dense shot was decomposed"
                );
                assert_eq!(
                    gated.cluster_size_histogram.iter().sum::<u64>(),
                    gated.clusters_total,
                    "d={d}: cluster-size histogram must cover every cluster"
                );
            } else {
                assert!(gated.cluster_gate_off > 0, "d={d}: gate never evaluated");
                assert_eq!(
                    gated.cluster_gate_on, 0,
                    "d={d} density must stay below the gate"
                );
                assert_eq!(gated.clustered_shots, 0);
                assert_eq!(gated.clusters_total, 0);
            }
            assert_eq!(
                forced.cluster_gate_on,
                gated.cluster_gate_on + gated.cluster_gate_off
            );
            assert!(forced.clusters_total > 0);
            assert_eq!(
                gated.estimate, forced.estimate,
                "d={d}: gated and forced-on estimates differ on this seed"
            );
            assert_eq!(
                gated.tier0_shots + gated.clustered_shots + gated.residual_shots,
                gated.estimate.shots,
                "d={d}: gated batches keep the partition invariant"
            );
        }
    }

    #[test]
    fn thread_resolution() {
        assert_eq!(LerEngine::new(3).threads(), 3);
        assert!(LerEngine::new(0).threads() >= 1);
    }

    #[test]
    fn malformed_circuits_never_reach_the_engine() {
        use caliqec_stab::{MeasIdx, Op};
        let bad = Circuit::from_ops(1, vec![Op::Detector(vec![MeasIdx(7)])]);
        let graph = graph_for_circuit(&rep_circuit(3, 0.05));
        let result = CompiledCircuit::try_new(&bad)
            .map_err(EngineError::from)
            .and_then(|compiled| {
                LerEngine::new(1).try_run(
                    &compiled,
                    &|| UnionFindDecoder::new(graph.clone()),
                    SampleOptions::default(),
                    1,
                )
            });
        assert!(matches!(result, Err(EngineError::Circuit(_))));
    }

    #[test]
    fn injected_faults_recover_bit_identically() {
        let c = rep_circuit(5, 0.08);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 5_000,
            ..Default::default()
        };
        let factory = Tiered::new(&graph, {
            let graph = graph.clone();
            move || UnionFindDecoder::new(graph.clone())
        });
        let clean = LerEngine::new(2).estimate(&compiled, &factory, opts, 42);
        assert_eq!(clean.faulted_chunks, 0);

        let plan = FaultPlan::new().panic_at(0).corrupt_defects_at(2);
        let faulty = LerEngine::new(2)
            .with_faults(plan)
            .try_run(&compiled, &factory, opts, 42)
            .expect("ladder must recover from injected faults");
        assert_eq!(faulty.estimate, clean.estimate, "retry changed the LER");
        assert_eq!(faulty.faulted_chunks, 2);
        assert_eq!(faulty.retried_chunks, 2);
        assert!(faulty.degraded());
        assert_eq!(faulty.rung_chunks[1], 2);
        assert!(faulty.degraded_shots > 0);
    }

    /// Observability must be passive: an enabled sink changes no result
    /// bit, and its merged view reconciles with the run's own counters.
    #[test]
    fn observed_run_is_bit_identical_and_reconciles() {
        let c = rep_circuit(5, 0.08);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 5_000,
            ..Default::default()
        };
        let factory = Tiered::new(&graph, {
            let graph = graph.clone();
            move || UnionFindDecoder::new(graph.clone())
        });
        let plain = LerEngine::new(2).estimate(&compiled, &factory, opts, 42);

        let sink = ObsSink::enabled();
        let observed = LerEngine::new(2)
            .with_obs(sink.clone())
            .estimate(&compiled, &factory, opts, 42);
        assert_eq!(observed.estimate, plain.estimate, "obs changed the LER");
        assert_eq!(observed.defect_histogram, plain.defect_histogram);
        assert_eq!(observed.tier0_shots, plain.tier0_shots);

        let snap = sink.snapshot();
        assert_eq!(snap.counter("runs_started"), 1);
        assert_eq!(
            snap.counter("chunks_finished"),
            observed.chunks_executed as u64
        );
        assert_eq!(snap.counter("shots_tier0"), observed.tier0_shots as u64);
        assert_eq!(snap.counter("shots_tier2"), observed.residual_shots as u64);
        assert_eq!(snap.counter("faults_panic"), 0);
        let decode_hist = snap.decode_shot_hist();
        assert_eq!(decode_hist.count, observed.residual_shots as u64);

        // Journal: a RunStart, then one ChunkStart+ChunkFinish pair per
        // chunk, in chunk order.
        let starts = snap
            .events
            .iter()
            .filter(|e| e.kind.tag() == "chunk_start")
            .count();
        let finishes: Vec<&Event> = snap
            .events
            .iter()
            .filter(|e| e.kind.tag() == "chunk_finish")
            .collect();
        assert_eq!(starts, observed.chunks_executed);
        assert_eq!(finishes.len(), observed.chunks_executed);
        assert!(finishes.windows(2).all(|w| w[0].chunk < w[1].chunk));
        assert_eq!(snap.events[0].kind.tag(), "run_start");
        let shots: u64 = finishes
            .iter()
            .map(|e| match e.kind {
                EventKind::ChunkFinish { shots, .. } => shots as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(shots, observed.estimate.shots as u64);
    }

    /// The journal (timestamps aside) must be identical at any thread
    /// count: its order depends only on the deterministic chunk schedule.
    #[test]
    fn journal_is_thread_count_independent() {
        let c = rep_circuit(5, 0.08);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 5_000,
            ..Default::default()
        };
        let journal_of = |threads: usize| {
            let sink = ObsSink::enabled();
            LerEngine::new(threads).with_obs(sink.clone()).estimate(
                &compiled,
                &|| UnionFindDecoder::new(graph.clone()),
                opts,
                42,
            );
            sink.snapshot()
                .events
                .iter()
                .map(|e| (e.run, e.chunk, e.seq, e.kind.tag()))
                .collect::<Vec<_>>()
        };
        let single = journal_of(1);
        assert!(!single.is_empty());
        for threads in [2, 4] {
            assert_eq!(journal_of(threads), single, "threads={threads}");
        }
    }

    #[test]
    fn defect_hist_buckets_are_exact_then_logarithmic() {
        for d in 0..32 {
            assert_eq!(defect_hist_bucket(d), d);
        }
        assert_eq!(defect_hist_bucket(32), 32);
        assert_eq!(defect_hist_bucket(63), 32);
        assert_eq!(defect_hist_bucket(64), 33);
        assert_eq!(defect_hist_bucket(127), 33);
        assert_eq!(defect_hist_bucket(128), 34);
        assert_eq!(defect_hist_bucket(255), 34);
        assert_eq!(defect_hist_bucket(256), 35);
        assert_eq!(defect_hist_bucket(usize::MAX), 35);
        assert_eq!(DEFECT_HIST_BUCKETS, 36);
    }
}
