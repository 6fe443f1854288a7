//! Thread-parallel Monte-Carlo logical-error-rate engine.
//!
//! [`LerEngine::try_run`] is the one measured path: it runs a [`RunSpec`]
//! (shot budget, weighting, stop rule) over a [`CompiledCircuit`], decoding
//! with a [`RunSource`] — a [`DecoderFactory`], or an [`Epochs`] schedule
//! of drifting calibrations. 64-shot batches, grouped into fixed-size
//! chunks, go to worker threads. The determinism contract: **results
//! depend only on `(spec, base_seed)` — never on the thread count or
//! scheduling order.** Concretely:
//!
//! - The chunk size is a function of the shot budget alone, and every
//!   64-shot batch `b` (numbered globally across the run) samples from its
//!   own RNG seeded by [`chunk_seed`]`(base_seed, b)`. Per-*batch* seeding
//!   makes batches independent streams, which lets a chunk sample
//!   [`LANES`] of them in SIMD lockstep and its tail one at a time
//!   ([`CompiledCircuit::sample_lanes_into`], which also fills the
//!   per-shot weights of a boosted program) while each batch stays
//!   bit-identical to a narrow `sample_batch_into` replay with the same
//!   seed.
//! - Early stopping ([`StopRule::Failures`], [`StopRule::TargetRse`]) is
//!   resolved at chunk granularity: the run is cut at the *first* chunk
//!   whose prefix `0..=k` meets the rule, and only chunks up to the cut
//!   contribute to the estimate. Chunks that other workers had already
//!   started are discarded, so a racing thread can waste work but never
//!   change the answer.
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
//! - Inputs are validated up front — a malformed circuit, matching graph,
//!   or run spec returns a typed [`EngineError`] instead of panicking
//!   inside a worker.
//! - Each chunk's sample+decode runs under `catch_unwind`. A chunk that
//!   panics (or stalls, or trips graph validation) is quarantined and
//!   re-run with the **same** per-batch seed schedule on the next
//!   rung of a degradation ladder: rung 0 is the context's full
//!   [`DecodeStack`], rung 1 a freshly built bare decoder, rung 2 a
//!   [`ReferenceUnionFind`] over the context's fallback graph. Because the
//!   sampled shots depend only on the chunk's batch seeds, a retry
//!   re-decodes the *identical* syndrome stream.
//! - A worker panic can no longer cascade: the shared mutex recovers from
//!   poisoning via `PoisonError::into_inner`, and a chunk that faults on
//!   every rung surfaces as one typed [`EngineError::ChunkFailed`].
//! - Every fault is accounted in [`EngineRun`] (`faulted_chunks`,
//!   `retried_chunks`, `degraded_shots`, per-rung and per-kind counters);
//!   when no fault fires the results are bit-identical to the unhardened
//!   engine and all fault counters are zero.
//!
//! The [`crate::faults`] module can inject faults at chosen chunk indices
//! to exercise this machinery deterministically; injection only ever fires
//! on a chunk's first (rung-0) attempt.

use crate::cluster::{cluster_hist_bucket, ClusterTier, CLUSTER_HIST_BUCKETS};
use crate::decode::{Decoder, LerEstimate, SampleOptions};
use crate::error::{EngineError, ValidationError};
use crate::faults::{FaultKind, FaultPlan};
use crate::graph::MatchingGraph;
use crate::predecode::{ClusterGate, Predecoder, CLUSTER_GATE_MIN_MEAN_DEFECTS};
use crate::reference::ReferenceUnionFind;
use caliqec_obs::{Counter, Event, EventKind, Gauge, Hist, ObsSink, WorkerObs};
use caliqec_stab::{
    chunk_seed, resolve_threads, BatchEvents, CompiledCircuit, FrameState, RateTable, SparseBatch,
    WideFrameState, BATCH, LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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
    /// tiers the factory arms (one stack per worker; stacks share their
    /// tables). The default is a bare stack — plain factories decode every
    /// nonempty shot in full. Wrap a factory in [`crate::Tiered`] for the
    /// predecoder and cluster tiers.
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

/// Builds decoders over a *given* graph, for [`Epochs`] runs where the
/// engine owns one reweighted graph per calibration epoch.
///
/// Blanket-implemented for any `Fn(&MatchingGraph) -> D` closure that is
/// `Sync`.
pub trait GraphDecoderFactory: Sync {
    /// The decoder type produced.
    type Decoder: Decoder;

    /// Builds one decoder over `graph` (already reweighted for the epoch it
    /// will decode).
    fn build_for(&self, graph: &MatchingGraph) -> Self::Decoder;
}

impl<D: Decoder, F: Fn(&MatchingGraph) -> D + Sync> GraphDecoderFactory for F {
    type Decoder = D;

    fn build_for(&self, graph: &MatchingGraph) -> D {
        self(graph)
    }
}

/// A decoder plus the front tiers that see each shot before it: the tier-1
/// [`Predecoder`], the dense-regime [`ClusterTier`] and its density
/// [`ClusterGate`]. [`DecoderFactory::stack`] builds one per worker; the
/// batch engine and the streaming service decode every window through it.
#[derive(Debug)]
pub struct DecodeStack<D> {
    /// The full decoder every uncertified shot reaches.
    pub decoder: D,
    /// Certifier for provably-local sparse shots, if armed.
    pub predecoder: Option<Predecoder>,
    /// Flood decomposition for dense shots, if armed.
    pub cluster: Option<ClusterTier>,
    /// When the cluster tier runs (meaningful only with `cluster` armed).
    pub gate: ClusterGate,
    pub(crate) scratch: WindowScratch,
}

impl<D> DecodeStack<D> {
    /// A bare stack: `decoder` alone, no front tiers.
    pub fn new(decoder: D) -> DecodeStack<D> {
        DecodeStack {
            decoder,
            predecoder: None,
            cluster: None,
            gate: ClusterGate::Off,
            scratch: WindowScratch::default(),
        }
    }
}

/// One calibration epoch: the per-gate rates in force from `hours` onward
/// (until the next epoch starts).
#[derive(Clone, Debug)]
pub struct CalibrationEpoch {
    /// Simulated device time (hours) at which these rates take effect.
    pub hours: f64,
    /// Per-gate rates characterized at that time.
    pub rates: RateTable,
}

/// A schedule of calibration epochs over a simulated run horizon.
///
/// An [`Epochs`] run spreads the shot budget uniformly over
/// `[0, horizon_hours]` and decodes each chunk with the epoch active at the
/// chunk's midpoint time — the epoch with the largest `hours` not exceeding
/// it (the first epoch covers any earlier time). An empty schedule behaves
/// as a single identity epoch: every chunk decodes with the base graph
/// unchanged.
#[derive(Clone, Debug)]
pub struct EpochSchedule {
    horizon_hours: f64,
    epochs: Vec<CalibrationEpoch>,
}

impl EpochSchedule {
    /// An empty schedule over `horizon_hours` of simulated time.
    pub fn new(horizon_hours: f64) -> EpochSchedule {
        EpochSchedule {
            horizon_hours: horizon_hours.max(0.0),
            epochs: Vec::new(),
        }
    }

    /// Appends an epoch, keeping the list sorted by start time (stable:
    /// among equal start times the later push wins the later slot).
    pub fn push(&mut self, hours: f64, rates: RateTable) {
        let at = self.epochs.partition_point(|e| e.hours <= hours);
        self.epochs.insert(at, CalibrationEpoch { hours, rates });
    }

    /// The simulated run horizon in hours.
    pub fn horizon_hours(&self) -> f64 {
        self.horizon_hours
    }

    /// The epochs, sorted by start time.
    pub fn epochs(&self) -> &[CalibrationEpoch] {
        &self.epochs
    }

    /// Index (into [`EpochSchedule::epochs`]) of the epoch active at
    /// simulated time `hours`: the last epoch starting at or before it,
    /// clamped to the first. Returns 0 for an empty schedule.
    pub fn active_at(&self, hours: f64) -> usize {
        self.epochs
            .partition_point(|e| e.hours <= hours)
            .saturating_sub(1)
    }
}

/// Calibration-aware run source: decode under an [`EpochSchedule`] of
/// drifting per-gate rates.
///
/// Each epoch gets one graph — `graph` incrementally reweighted via
/// [`MatchingGraph::reweight`] (identity rate tables skip the reweight, so
/// a single-epoch identity schedule is bit-identical to a
/// [`crate::Tiered`] factory over `graph`) — plus a fresh [`Predecoder`]
/// over it, since the predecoder's tables are weight-derived. The sampled
/// syndrome stream depends only on `(spec, base_seed)`, never on the
/// schedule; only decode weights vary. Up-front reweight and table-build
/// time is reported as [`EngineRun::reweight_seconds`].
///
/// ```ignore
/// let source = Epochs { graph: &graph, schedule: &schedule,
///     factory: &|g: &MatchingGraph| UnionFindDecoder::new(g.clone()) };
/// engine.try_run(&compiled, &source, &RunSpec::from(opts), seed)?;
/// ```
pub struct Epochs<'a, G> {
    /// The base graph every epoch reweights.
    pub graph: &'a MatchingGraph,
    /// The epochs and the horizon the shot budget spreads over.
    pub schedule: &'a EpochSchedule,
    /// Builds each epoch's decoder over its reweighted graph.
    pub factory: &'a G,
}

impl<G> fmt::Debug for Epochs<'_, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Epochs")
            .field("schedule", self.schedule)
            .finish_non_exhaustive()
    }
}

/// One epoch's decode context for an [`Epochs`] run: the reweighted graph,
/// the predecoder re-derived from it (predecoder tables are
/// weight-dependent — see [`Predecoder::is_current_for`]), and the epoch
/// factory. Its rung-0 stack carries the predecoder; the graph backs rung 2.
#[derive(Debug)]
pub struct EpochContext<'a, G> {
    graph: MatchingGraph,
    predecoder: Predecoder,
    factory: &'a G,
}

impl<G: GraphDecoderFactory> DecoderFactory for EpochContext<'_, G> {
    type Decoder = G::Decoder;

    fn build(&self) -> G::Decoder {
        self.factory.build_for(&self.graph)
    }

    fn stack(&self) -> DecodeStack<G::Decoder> {
        DecodeStack {
            predecoder: Some(self.predecoder.clone()),
            ..DecodeStack::new(self.build())
        }
    }

    fn fallback_graph(&self) -> Option<&MatchingGraph> {
        Some(&self.graph)
    }
}

/// What [`LerEngine::try_run`] decodes with: the per-epoch decode contexts
/// (each a [`DecoderFactory`]) and which one decodes each chunk.
/// Implemented by every [`DecoderFactory`] (one context for the whole run)
/// and by [`Epochs`] (one context per calibration epoch).
pub trait RunSource: Sync {
    /// One epoch's decode context.
    type Context: DecoderFactory;
    /// The run's contexts: borrowed from the source, or built for the run.
    type Contexts<'s>: AsRef<[Self::Context]>
    where
        Self: 's;

    /// Validates the source's inputs before any run state exists.
    fn validate_inputs(&self) -> Result<(), EngineError>;

    /// The decode contexts plus the seconds spent building them; each
    /// build is journaled on `coord`.
    fn contexts(&self, coord: &mut WorkerObs) -> Result<(Self::Contexts<'_>, f64), EngineError>;

    /// Index of the context that decodes chunk `chunk` of `chunks`.
    fn context_of(&self, _chunk: usize, _chunks: usize) -> usize {
        0
    }
}

impl<F: DecoderFactory> RunSource for F {
    type Context = F;
    type Contexts<'s>
        = &'s [F]
    where
        F: 's;

    fn validate_inputs(&self) -> Result<(), EngineError> {
        Ok(self.validate()?)
    }

    fn contexts(&self, _coord: &mut WorkerObs) -> Result<(&[F], f64), EngineError> {
        Ok((std::slice::from_ref(self), 0.0))
    }
}

impl<'a, G: GraphDecoderFactory> RunSource for Epochs<'a, G> {
    type Context = EpochContext<'a, G>;
    type Contexts<'s>
        = Vec<EpochContext<'a, G>>
    where
        Self: 's;

    fn validate_inputs(&self) -> Result<(), EngineError> {
        Ok(self.graph.validate()?)
    }

    /// One context per epoch (an empty schedule is one implicit identity
    /// epoch), each a reweighted clone of the base graph — topology
    /// untouched, weights recomputed from the epoch's rates.
    fn contexts(
        &self,
        coord: &mut WorkerObs,
    ) -> Result<(Vec<EpochContext<'a, G>>, f64), EngineError> {
        let started = Instant::now();
        let identity = RateTable::identity();
        let rates: Vec<&RateTable> = match self.schedule.epochs() {
            [] => vec![&identity],
            epochs => epochs.iter().map(|e| &e.rates).collect(),
        };
        let mut contexts = Vec::with_capacity(rates.len());
        for (epoch, rates) in rates.into_iter().enumerate() {
            let t = coord.clock();
            let mut graph = self.graph.clone();
            if !rates.is_identity() {
                graph.reweight(rates)?;
                graph.validate()?;
            }
            contexts.push(EpochContext {
                predecoder: Predecoder::new(&graph),
                graph,
                factory: self.factory,
            });
            record_reweight(coord, epoch as u32, t);
        }
        Ok((contexts, started.elapsed().as_secs_f64()))
    }

    /// The epoch active at the chunk's midpoint time
    /// `horizon · (chunk + ½) / chunks`.
    fn context_of(&self, chunk: usize, chunks: usize) -> usize {
        let t = self.schedule.horizon_hours() * (chunk as f64 + 0.5) / chunks as f64;
        self.schedule.active_at(t)
    }
}

/// How a run's shots are weighted.
#[derive(Clone, Debug, Default)]
pub enum Weighting {
    /// Plain Monte Carlo at the circuit's own rates: every shot weighs 1.
    #[default]
    Nominal,
    /// Importance sampling: every fault channel fires at `min(β · p, ½)`
    /// (never below its nominal rate) while each shot carries its exact
    /// likelihood weight against the nominal rates, making
    /// [`EngineRun::ler`] an unbiased estimator of the nominal LER with far
    /// more failing shots to average over. `rates` overrides compose with β
    /// exactly like a calibration-epoch reweight
    /// ([`CompiledCircuit::boosted_with_rates`]). `beta == 1` with identity
    /// rates runs the plain sampler itself, bit for bit.
    Boosted {
        /// Rate boost factor β (finite, ≥ 1).
        beta: f64,
        /// Nominal per-channel rates (identity = the circuit's own).
        rates: RateTable,
    },
}

/// When a run stops. Every rule is resolved at chunk granularity over the
/// deterministic chunk prefix, so the cut is thread-count independent.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StopRule {
    /// Run the whole shot budget.
    #[default]
    Shots,
    /// Stop at the first chunk prefix holding this many failures
    /// (0 = never).
    Failures(usize),
    /// Stop at the first chunk prefix, past the budget's `min_shots`, whose
    /// 95% CI half-width is at most this fraction of the (weighted)
    /// estimate. `0` never fires — the run consumes the full budget.
    TargetRse(f64),
}

/// One engine measurement: the shot budget, the weighting and the stop
/// rule. `RunSpec::from(options)` is the plain run the engine has always
/// made from [`SampleOptions`] (its `max_failures` becomes
/// [`StopRule::Failures`]).
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Shot budget: `min_shots`/`max_shots` fix the chunk geometry. A
    /// nonzero `max_failures` must agree with `stop`.
    pub budget: SampleOptions,
    /// Nominal or importance-sampled shots.
    pub weighting: Weighting,
    /// When the run may end before the budget's last shot.
    pub stop: StopRule,
}

impl From<SampleOptions> for RunSpec {
    fn from(budget: SampleOptions) -> RunSpec {
        RunSpec {
            budget,
            weighting: Weighting::Nominal,
            stop: match budget.max_failures {
                0 => StopRule::Shots,
                n => StopRule::Failures(n),
            },
        }
    }
}

impl RunSpec {
    /// Rejects a non-finite or sub-unit boost, a non-finite or negative RSE
    /// target, and a budget failure cap the stop rule contradicts.
    fn validate(&self) -> Result<(), EngineError> {
        let bad = |detail: String| Err(EngineError::Options { detail });
        if let Weighting::Boosted { beta, .. } = self.weighting {
            if !beta.is_finite() || beta < 1.0 {
                return bad(format!("boost_beta must be finite and >= 1 (got {beta})"));
            }
        }
        if let StopRule::TargetRse(rse) = self.stop {
            if !rse.is_finite() || rse < 0.0 {
                return bad(format!("target_rse must be finite and >= 0 (got {rse})"));
            }
        }
        let cap = self.budget.max_failures;
        if cap != 0 && self.stop != StopRule::Failures(cap) {
            return bad(format!(
                "budget.max_failures = {cap} contradicts stop rule {:?}",
                self.stop
            ));
        }
        Ok(())
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
    /// Relative-CI stopping target (0 disables).
    target_rse: f64,
    /// Batches that must complete before the CI rule may fire.
    min_ci_batches: usize,
}

impl ChunkPlan {
    fn new(spec: &RunSpec, base_seed: u64) -> ChunkPlan {
        let min_batches = spec.budget.min_shots.div_ceil(BATCH).max(1);
        let max_batches = if spec.budget.max_shots == 0 {
            min_batches
        } else {
            spec.budget.max_shots.div_ceil(BATCH).max(min_batches)
        };
        // Aim for ~64 chunks so early-stopping stays reasonably fine-grained
        // while per-chunk overhead amortizes; never let the chunk size depend
        // on the thread count, or determinism across thread counts breaks.
        let chunk_batches = max_batches.div_ceil(64).clamp(1, 64);
        let (max_failures, target_rse) = match spec.stop {
            StopRule::Shots => (0, 0.0),
            StopRule::Failures(n) => (n, 0.0),
            StopRule::TargetRse(rse) => (0, rse),
        };
        ChunkPlan {
            base_seed,
            chunk_batches,
            num_chunks: max_batches.div_ceil(chunk_batches),
            max_batches,
            max_failures,
            target_rse,
            min_ci_batches: min_batches,
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
    /// Per-lane log-likelihood ratios for weighted (boosted) sampling;
    /// untouched on plain runs.
    llr: Box<[[f64; BATCH]; LANES]>,
}

impl SampleScratch {
    fn new(compiled: &CompiledCircuit) -> SampleScratch {
        SampleScratch {
            state: FrameState::new(compiled),
            wide: WideFrameState::new(compiled),
            events: std::array::from_fn(|_| BatchEvents::default()),
            sparse: SparseBatch::new(),
            llr: Box::new([[0.0; BATCH]; LANES]),
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

/// Rungs of the decoder degradation ladder: the context's full decode
/// stack, a fresh bare decoder, and a [`ReferenceUnionFind`] over the
/// context's fallback graph.
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
    /// Shots certified by the tier-1 predecoder.
    pub(crate) predecoded_shots: usize,
    /// Defects on those certified shots.
    pub(crate) predecoded_defects: usize,
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
    /// Predecoder certification time.
    pub(crate) predecode_seconds: f64,
    /// Flood-decomposition time.
    pub(crate) cluster_seconds: f64,
    /// Full-decoder time.
    pub(crate) decode_seconds: f64,
}

impl Default for WindowStats {
    fn default() -> WindowStats {
        WindowStats {
            tier0_shots: 0,
            predecoded_shots: 0,
            predecoded_defects: 0,
            residual_shots: 0,
            clustered_shots: 0,
            clustered_defects: 0,
            clusters_total: 0,
            cluster_size_histogram: [0; CLUSTER_HIST_BUCKETS],
            defect_histogram: [0; DEFECT_HIST_BUCKETS],
            cluster_gate_on: 0,
            cluster_gate_off: 0,
            classify_seconds: 0.0,
            predecode_seconds: 0.0,
            cluster_seconds: 0.0,
            decode_seconds: 0.0,
        }
    }
}

impl WindowStats {
    /// Adds `other` into `self`, field by field.
    fn add(&mut self, other: &WindowStats) {
        self.tier0_shots += other.tier0_shots;
        self.predecoded_shots += other.predecoded_shots;
        self.predecoded_defects += other.predecoded_defects;
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
        self.predecode_seconds += other.predecode_seconds;
        self.cluster_seconds += other.cluster_seconds;
        self.decode_seconds += other.decode_seconds;
    }
}

/// Reusable shot-classification scratch for
/// [`DecodeStack::decode_window_masks`]: tier-dispatch index lists whose
/// capacity persists across windows.
#[derive(Clone, Debug, Default)]
pub(crate) struct WindowScratch {
    /// Shots past the certification bound, straight to the full decoder.
    dense: Vec<u32>,
    /// Predecoder candidates.
    cand: Vec<u32>,
    /// Candidates the predecoder declined.
    uncertified: Vec<u32>,
}

impl<D: Decoder> DecodeStack<D> {
    /// Decodes one extracted 64-shot window into per-shot predicted
    /// observable masks — the tier-dispatch core shared by the batch engine
    /// ([`LerEngine`]) and the streaming service
    /// ([`crate::StreamingDecoder`]).
    ///
    /// `masks[s]` receives the stack's predicted observable mask for shot
    /// `s`: `0` for an empty syndrome, the certified mask for a predecoded
    /// shot, the peel-XOR-residual mask on the cluster path, and the full
    /// decoder's mask otherwise. Callers that know the ground truth (the
    /// batch engine, which sampled the observables alongside the detectors)
    /// XOR against it to count failures; callers that don't (a streaming
    /// service fed detector events only) forward the masks as corrections.
    /// The mask of every shot is a deterministic function of `(window
    /// contents, stack configuration)` — nothing here depends on wall clock
    /// or thread interleaving.
    ///
    /// Tier accounting accumulates into `stats` (additive across windows),
    /// including the density gate's verdict when a cluster tier is armed.
    /// The `Auto` gate
    /// compares the window's mean defect count against
    /// [`CLUSTER_GATE_MIN_MEAN_DEFECTS`]. When `obs` is enabled, per-shot
    /// predecode/decode latencies land in its histograms (`decode_hist`
    /// selects the rung-specific decode histogram); a disabled handle costs
    /// one branch per shot and reads no clock.
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
            predecoder,
            cluster,
            gate,
            scratch:
                WindowScratch {
                    dense,
                    cand,
                    uncertified,
                },
        } = self;
        let has_pre = predecoder.is_some();
        // Tier dispatch: tier 0 (empty defect list — identity correction) is
        // resolved here; shots past the certification bound go straight to
        // `dense` (at d ≥ 15 this is nearly every shot, and the predecoder
        // phase used to pay for all of them).
        let t1 = Instant::now();
        dense.clear();
        cand.clear();
        let mut window_defects = 0usize;
        for (s, mask) in masks.iter_mut().enumerate() {
            let defects = sparse.defect_count(s);
            stats.defect_histogram[defect_hist_bucket(defects)] += 1;
            window_defects += defects;
            if defects == 0 {
                stats.tier0_shots += 1;
                *mask = 0;
            } else if has_pre && defects <= Predecoder::MAX_CERT_DEFECTS {
                cand.push(s as u32);
            } else {
                dense.push(s as u32);
            }
        }
        let t2 = Instant::now();
        stats.classify_seconds += (t2 - t1).as_secs_f64();
        uncertified.clear();
        if let Some(pre) = predecoder {
            // Dense configs leave `cand` empty for almost every window;
            // skipping the pass entirely avoids paying the per-shot timer
            // setup just to report a tier that never fired.
            if !cand.is_empty() {
                let mut shot_t = obs.clock();
                for &s in cand.iter() {
                    let s = s as usize;
                    if let Some(mask) = pre.predecode(sparse.defects(s)) {
                        stats.predecoded_shots += 1;
                        stats.predecoded_defects += sparse.defect_count(s);
                        masks[s] = mask;
                    } else {
                        uncertified.push(s as u32);
                    }
                    shot_t = obs.record_since(Hist::PredecodeShot, shot_t);
                }
            }
        }
        let t3 = Instant::now();
        stats.predecode_seconds += (t3 - t2).as_secs_f64();
        // Defect-density gate: below the threshold, the flood decomposition
        // costs more than the monolithic decodes it replaces, so `Auto`
        // diverts sparse windows to the merge path. Both paths decode every
        // shot exactly, so gating never changes a mask — only where the time
        // goes.
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
        if let Some(clu) = cluster.as_mut().filter(|_| cluster_ran) {
            // Dense shots: flood-decompose, peel certified clusters, decode
            // the residual union in one full-decoder call, XOR the masks.
            // Phase time is summed per shot (decomposition vs decoding), so
            // loop-tail bookkeeping is charged to neither and the timers
            // stay below wall clock.
            for &s in dense.iter() {
                let s = s as usize;
                let c0 = Instant::now();
                let out = clu.decompose(sparse.defects(s));
                let c1 = Instant::now();
                stats.cluster_seconds += (c1 - c0).as_secs_f64();
                stats.clusters_total += out.clusters as u64;
                for &size in clu.cluster_sizes() {
                    stats.cluster_size_histogram[cluster_hist_bucket(size as usize)] += 1;
                }
                stats.clustered_defects += out.peeled_defects as usize;
                let mut mask = out.mask;
                if out.fully_peeled() {
                    stats.clustered_shots += 1;
                    if obs.enabled() {
                        obs.record(Hist::ClusterShot, (c1 - c0).as_nanos() as u64);
                    }
                } else {
                    stats.residual_shots += 1;
                    let d0 = Instant::now();
                    mask ^= decoder.decode(clu.residual_defects());
                    let d1 = Instant::now();
                    stats.decode_seconds += (d1 - d0).as_secs_f64();
                    if obs.enabled() {
                        obs.record(decode_hist, (d1 - d0).as_nanos() as u64);
                    }
                }
                masks[s] = mask;
            }
            // The predecoder-declined candidates still decode monolithically
            // (they are at most MAX_CERT_DEFECTS defects — not dense).
            let mut shot_t = obs.clock();
            for &s in uncertified.iter() {
                let s = s as usize;
                let d0 = Instant::now();
                masks[s] = decoder.decode(sparse.defects(s));
                stats.decode_seconds += d0.elapsed().as_secs_f64();
                shot_t = obs.record_since(decode_hist, shot_t);
            }
            stats.residual_shots += uncertified.len();
        } else {
            // Decode dense ∪ uncertified in ascending shot order (both lists
            // are ascending — a two-pointer merge preserves the historic
            // decode order exactly).
            let mut shot_t = obs.clock();
            let (mut i, mut j) = (0usize, 0usize);
            loop {
                let s = match (dense.get(i), uncertified.get(j)) {
                    (Some(&a), Some(&b)) => {
                        if a < b {
                            i += 1;
                            a
                        } else {
                            j += 1;
                            b
                        }
                    }
                    (Some(&a), None) => {
                        i += 1;
                        a
                    }
                    (None, Some(&b)) => {
                        j += 1;
                        b
                    }
                    (None, None) => break,
                } as usize;
                masks[s] = decoder.decode(sparse.defects(s));
                shot_t = obs.record_since(decode_hist, shot_t);
            }
            stats.decode_seconds += (t3.elapsed()).as_secs_f64();
            stats.residual_shots += dense.len() + uncertified.len();
        }
    }
}

/// Outcome of sampling and decoding one chunk.
#[derive(Clone, Copy, Debug)]
struct ChunkResult {
    batches: usize,
    failures: usize,
    /// Ladder rung the chunk completed on.
    rung: usize,
    /// Whether the chunk sampled under boosted rates with per-shot
    /// likelihood weights. On plain chunks the weighted sums below are
    /// filled from the integer counters (weight ≡ 1) — exactly, since
    /// every count fits in f64 — so downstream ESS/CI accounting is
    /// uniform across both kinds of run.
    weighted: bool,
    /// Σ wₛ over the chunk's shots (= shot count when unweighted).
    sum_w: f64,
    /// Σ wₛ² (= shot count when unweighted).
    sum_w2: f64,
    /// Σ wₛ over failing shots (= `failures` when unweighted).
    sum_wf: f64,
    /// Σ wₛ² over failing shots (= `failures` when unweighted).
    sum_w2f: f64,
    /// Tier and gate accounting and the predecode/cluster/decode phase
    /// timers.
    stats: WindowStats,
    sample_seconds: f64,
    /// Sparse extraction plus the tier-dispatch classification scan.
    extract_seconds: f64,
}

/// Why one decode attempt did not produce a result. Shared by the batch
/// engine's chunk ladder and the streaming service's window retries.
#[derive(Clone, Debug)]
pub(crate) enum ChunkFault {
    /// The decode panicked (caught by `catch_unwind`).
    Panicked(String),
    /// The attempt overran its stall deadline.
    Stalled {
        /// How long the attempt took.
        elapsed: Duration,
        /// The deadline it overran.
        deadline: Duration,
    },
    /// The graph presented to the attempt failed validation.
    InvalidGraph(ValidationError),
}

impl fmt::Display for ChunkFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkFault::Panicked(msg) => write!(f, "panicked: {msg}"),
            ChunkFault::Stalled { elapsed, deadline } => write!(
                f,
                "stalled: {:.1} ms exceeded the {:.1} ms deadline",
                elapsed.as_secs_f64() * 1e3,
                deadline.as_secs_f64() * 1e3
            ),
            ChunkFault::InvalidGraph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl ChunkFault {
    /// Stable tag used in journal [`EventKind::Fault`] events.
    fn tag(&self) -> &'static str {
        match self {
            ChunkFault::Panicked(_) => "panic",
            ChunkFault::Stalled { .. } => "stall",
            ChunkFault::InvalidGraph(_) => "invalid_graph",
        }
    }

    /// The obs counter accounting this fault kind.
    fn counter(&self) -> Counter {
        match self {
            ChunkFault::Panicked(_) => Counter::FaultsPanic,
            ChunkFault::Stalled { .. } => Counter::FaultsStall,
            ChunkFault::InvalidGraph(_) => Counter::FaultsGraph,
        }
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

/// Runs `work` panic-isolated: a caught panic becomes
/// [`ChunkFault::Panicked`] carrying its message.
pub(crate) fn isolate<T>(work: impl FnOnce() -> T) -> Result<T, ChunkFault> {
    std::panic::catch_unwind(AssertUnwindSafe(work))
        .map_err(|payload| ChunkFault::Panicked(panic_message(payload)))
}

/// Records the journal entry and counter for one faulted attempt on `rung`.
pub(crate) fn observe_chunk_fault(obs: &mut WorkerObs, fault: &ChunkFault, rung: usize) {
    obs.add(fault.counter(), 1);
    obs.event(EventKind::Fault {
        kind: fault.tag(),
        rung: rung as u8,
    });
}

/// Fault bookkeeping: per chunk in a worker, then summed in [`Shared`].
#[derive(Clone, Copy, Debug, Default)]
struct FaultTally {
    faults: usize,
    retries: usize,
    panics: usize,
    stalls: usize,
    graphs: usize,
}

impl FaultTally {
    fn record(&mut self, fault: &ChunkFault) {
        self.faults += 1;
        match fault {
            ChunkFault::Panicked(_) => self.panics += 1,
            ChunkFault::Stalled { .. } => self.stalls += 1,
            ChunkFault::InvalidGraph(_) => self.graphs += 1,
        }
    }

    fn add(&mut self, other: &FaultTally) {
        self.faults += other.faults;
        self.retries += other.retries;
        self.panics += other.panics;
        self.stalls += other.stalls;
        self.graphs += other.graphs;
    }
}

/// Records one epoch-context build (metrics + journal) on the coordinator
/// handle. `started` is the [`WorkerObs::clock`] reading taken before the
/// build; a disabled handle makes this a no-op.
fn record_reweight(coord: &mut WorkerObs, epoch: u32, started: Option<Instant>) {
    if let Some(t0) = started {
        let nanos = t0.elapsed().as_nanos() as u64;
        coord.add(Counter::EpochReweights, 1);
        coord.record(Hist::EpochReweight, nanos);
        coord.event(EventKind::EpochReweight { epoch, nanos });
    }
}

/// Samples and decodes one chunk from its deterministic seed.
///
/// The phases are timed separately and *partition* the chunk's wall time:
/// frame sampling, word-sparse syndrome extraction plus tier-dispatch
/// bookkeeping (defect counting, the histogram, and tier-0 skips are
/// syndrome accounting, so they are charged to `extract_seconds`, not to a
/// decode phase), predecoder certification, cluster decomposition, and
/// full decoding of the residual shots — so `sample + extract + predecode
/// + cluster + decode <= wall` holds per worker.
///
/// Tier dispatch preserves the failure count bit for bit: tier-0 skips
/// reproduce `decode(&[]) == 0`, a [`Predecoder`] only certifies shots
/// whose local correction provably equals the full decoder's, and the
/// residual shots reach the decoder in ascending shot order.
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
    // Boosted programs sample under importance weights: the sampler fills
    // the per-lane LLR buffers, and every shot's weight is folded into the
    // Σw/Σw² accumulators below. Retries re-run the same boosted program
    // with the same seeds, so a degraded chunk reproduces identical
    // weights.
    let weighted = compiled.is_boosted();
    let mut result = ChunkResult {
        batches,
        failures: 0,
        rung,
        weighted,
        sum_w: 0.0,
        sum_w2: 0.0,
        sum_wf: 0.0,
        sum_w2f: 0.0,
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
        llr,
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
            compiled.sample_lanes_into(wide, &mut rngs, lane_events, llr);
        } else {
            compiled.sample_lanes_into(
                state,
                &mut [seed(b)],
                std::array::from_mut(&mut lane_events[0]),
                std::array::from_mut(&mut llr[0]),
            );
        }
        result.sample_seconds += t0.elapsed().as_secs_f64();
        b += lanes;
        for (l, events) in lane_events[..lanes].iter().enumerate() {
            let t1 = Instant::now();
            sparse.extract(events);
            result.extract_seconds += t1.elapsed().as_secs_f64();
            stack.decode_window_masks(sparse, obs, decode_hist, &mut result.stats, &mut masks);
            // Score the predicted masks against the sampled ground truth.
            let mut failed = 0u64;
            for (s, &mask) in masks.iter().enumerate() {
                if mask != sparse.observables(s) {
                    result.failures += 1;
                    failed |= 1u64 << s;
                }
            }
            if weighted {
                // Loop-tail bookkeeping: charged to no phase timer, so the
                // phase-sum ≤ wall-clock invariant survives the weighted path.
                for (s, lr) in llr[l].iter().enumerate() {
                    let w = lr.exp();
                    result.sum_w += w;
                    result.sum_w2 += w * w;
                    if failed >> s & 1 == 1 {
                        result.sum_wf += w;
                        result.sum_w2f += w * w;
                    }
                }
            }
        }
    }
    if !weighted {
        // Plain chunks carry unit weights; filling the sums from the integer
        // counters keeps the CI/ESS arithmetic uniform and exact (u64 shot
        // counts of this size round-trip through f64 losslessly).
        let n = (batches * BATCH) as f64;
        result.sum_w = n;
        result.sum_w2 = n;
        result.sum_wf = result.failures as f64;
        result.sum_w2f = result.failures as f64;
    }
    // The tier-dispatch classification scan is syndrome accounting, so it
    // is charged to the extract phase, not to a decode phase.
    result.extract_seconds += result.stats.classify_seconds;
    result
}

/// Runs one panic-isolated attempt at a chunk on `rung`, injecting the
/// scheduled fault first (injections only reach rung-0 attempts).
///
/// Injections model real failure classes: `Panic` is a decoder bug,
/// `CorruptDefects` hands the decoder an out-of-range node id as corrupted
/// syndrome extraction would (the resulting index panic is caught like any
/// other), `Stall` sleeps past the stall deadline and is treated as timed
/// out **only on the injected attempt** — legitimate slow chunks are never
/// deadline-checked, so a loaded machine cannot trigger spurious retries —
/// and `BadWeights` validates a weight-poisoned copy of the fallback graph,
/// surfacing the typed [`ValidationError`] a corrupted calibration feed
/// would produce.
fn attempt_chunk<C: DecoderFactory, D: Decoder>(
    job: &Job<'_, C>,
    stack: &mut DecodeStack<D>,
    scratch: &mut SampleScratch,
    chunk: usize,
    rung: usize,
    fallback: Option<&MatchingGraph>,
    obs: &mut WorkerObs,
) -> Result<ChunkResult, ChunkFault> {
    let injected = job
        .faults
        .filter(|_| rung == 0)
        .and_then(|p| p.injection(chunk))
        .filter(|k| !k.is_streaming());
    match injected {
        None => {}
        Some(FaultKind::Stall) => {
            let plan = job
                .faults
                .expect("stall injection comes from an armed plan");
            let started = Instant::now();
            std::thread::sleep(plan.stall_sleep());
            let elapsed = started.elapsed();
            if elapsed >= plan.stall_deadline() {
                return Err(ChunkFault::Stalled {
                    elapsed,
                    deadline: plan.stall_deadline(),
                });
            }
        }
        Some(FaultKind::BadWeights) => {
            if let Err(e) = crate::faults::poison_weights(fallback).validate() {
                return Err(ChunkFault::InvalidGraph(e));
            }
        }
        Some(FaultKind::Panic) => {
            isolate(|| panic!("injected decoder panic at chunk {chunk}"))?;
        }
        Some(FaultKind::ClusterPanic) => {
            // A cluster-tier bug: the flood decomposition blows up before
            // the first decoder call. The retry rung drops the tier
            // entirely (rungs ≥ 1 are bare), so recovery decodes
            // monolithically.
            isolate(|| panic!("injected cluster-tier panic at chunk {chunk}"))?;
        }
        Some(FaultKind::CorruptDefects) => {
            // A corrupted syndrome stream: one defect id far past every
            // node the decoder knows.
            isolate(|| stack.decoder.decode(&[usize::MAX / 2]))?;
        }
        // Streaming injections are the StreamingDecoder's business and are
        // filtered out above.
        Some(kind) => unreachable!("streaming fault {kind} reached the batch engine"),
    }
    isolate(|| run_chunk(job.compiled, &job.plan, chunk, stack, scratch, obs, rung))
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
    /// CPU seconds spent in predecoder certification proper, summed across
    /// workers. Split out of `decode_seconds` so the full-decoder cost
    /// stays comparable with and without the fast path; dispatch
    /// bookkeeping is charged to `extract_seconds`.
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
    /// partition `estimate.shots` exactly: `tier0_shots + predecoded_shots
    /// + clustered_shots + residual_shots == shots`.
    pub tier0_shots: usize,
    /// Shots fully resolved by the tier-1 predecoder (tier 1).
    pub predecoded_shots: usize,
    /// Total defects across predecoded shots.
    pub predecoded_defects: usize,
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
    /// Seconds spent building per-epoch reweighted graphs and predecoder
    /// tables before workers launched. Zero on single-graph runs, where no
    /// reweighting happens.
    pub reweight_seconds: f64,
    /// Calibration epochs active during the run (1 on single-graph runs).
    pub epochs: usize,
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
    /// Fault events that were caught panics.
    pub panic_faults: usize,
    /// Fault events that were stall-deadline overruns.
    pub stall_faults: usize,
    /// Fault events that were graph-validation failures.
    pub graph_faults: usize,
    /// Effective sample size of the included prefix, `(Σw)² / Σw²`. Equals
    /// `estimate.shots` exactly on plain (unweighted) runs.
    pub ess: f64,
    /// 95% confidence-interval half-width on [`EngineRun::ler`] (normal
    /// approximation over per-shot weighted failure indicators).
    pub ci_halfwidth: f64,
    /// Importance-sampling boost factor the run sampled under (1 for plain
    /// Monte Carlo).
    pub boost_beta: f64,
    /// Likelihood-weighted failure mass over the included prefix. Equals
    /// `estimate.failures` exactly on plain runs.
    pub weighted_failures: f64,
    /// Batches the defect-density gate sent through the cluster
    /// decomposition (counted only while a cluster tier was armed).
    pub cluster_gate_on: usize,
    /// Batches the gate diverted to the monolithic decode path.
    pub cluster_gate_off: usize,
}

impl EngineRun {
    /// The logical error rate estimate: likelihood-weighted failure mass
    /// over shots. Bit-identical to `estimate.per_shot()` on plain runs
    /// (the weighted sums are filled from the integer counters there); the
    /// unbiased importance-sampling estimator on boosted runs.
    pub fn ler(&self) -> f64 {
        if self.estimate.shots == 0 {
            return 0.0;
        }
        self.weighted_failures / self.estimate.shots as f64
    }

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
    /// Recomputes the stop-rule cut over the completed prefix.
    ///
    /// The cut is a pure function of the deterministic chunk prefix, so any
    /// thread count stops at the same place: the first chunk index where
    /// the prefix holds `plan.max_failures` failures, or — for an RSE
    /// target — spans at least `plan.min_ci_batches` batches with a nonzero
    /// weighted estimate whose 95% CI half-width has fallen to
    /// `plan.target_rse` of it. Plain chunks fill their weighted sums from
    /// the integer counters, which makes the RSE rule the plain-MC
    /// shots-to-target-CI stopping rule at β = 1.
    fn recompute_cut(&mut self, plan: &ChunkPlan) {
        let (mut failures, mut batches) = (0usize, 0usize);
        let (mut sum_wf, mut sum_w2f) = (0.0f64, 0.0f64);
        for (k, res) in self.results.iter().enumerate() {
            let Some(r) = res else { return };
            failures += r.failures;
            batches += r.batches;
            sum_wf += r.sum_wf;
            sum_w2f += r.sum_w2f;
            let stop = if plan.max_failures > 0 {
                failures >= plan.max_failures
            } else {
                let n = (batches * BATCH) as f64;
                let p_hat = sum_wf / n;
                let var = (sum_w2f / n - p_hat * p_hat).max(0.0) / n;
                batches >= plan.min_ci_batches
                    && p_hat > 0.0
                    && 1.96 * var.sqrt() <= plan.target_rse * p_hat
            };
            if stop {
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
/// schedule, the decode contexts and the chunk → context map, plus the
/// work counter and the aggregation state.
struct Job<'a, C> {
    compiled: &'a CompiledCircuit,
    plan: ChunkPlan,
    contexts: &'a [C],
    chunk_context: Vec<u32>,
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
/// use caliqec_match::{graph_for_circuit, LerEngine, RunSpec, SampleOptions, UnionFindDecoder};
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
/// let spec = RunSpec::from(SampleOptions { min_shots: 640, ..Default::default() });
/// let run = LerEngine::new(2)
///     .try_run(&compiled, &|| UnionFindDecoder::new(graph.clone()), &spec, 7)
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
    /// No fault plan is armed; [`LerEngine::with_faults`] injects one.
    /// Observability is disabled; [`LerEngine::with_obs`] attaches a sink.
    pub fn new(threads: usize) -> LerEngine {
        LerEngine {
            threads: resolve_threads(threads),
            faults: None,
            obs: ObsSink::disabled(),
        }
    }

    /// Arms a fault-injection plan (empty plans disarm). Library
    /// constructors never read the environment; binaries that honour
    /// `CALIQEC_FAULTS` combine this with [`FaultPlan::from_env`].
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

    /// The armed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A plain run of `options` over `factory`:
    /// [`LerEngine::try_run`] with `RunSpec::from(options)`, panicking on
    /// a typed [`EngineError`].
    pub fn estimate<F: DecoderFactory>(
        &self,
        compiled: &CompiledCircuit,
        factory: &F,
        options: SampleOptions,
        base_seed: u64,
    ) -> EngineRun {
        self.try_run(compiled, factory, &RunSpec::from(options), base_seed)
            .expect("engine run failed")
    }

    /// Runs `spec` over `compiled`, decoding with `source`. Deterministic
    /// in `(spec, base_seed)` at any thread count.
    ///
    /// Validates the circuit, the source and the spec up front, then runs
    /// the hardened chunk loop. Returns a typed [`EngineError`] for invalid
    /// inputs or a chunk that faulted on every rung of the degradation
    /// ladder; all recovered faults are reported in the returned
    /// [`EngineRun`] instead. A boosted [`Weighting`] samples a boosted
    /// copy of `compiled` with per-shot likelihood weights;
    /// [`EngineRun::ess`] and [`EngineRun::ci_halfwidth`] report estimator
    /// health. β = 1 with identity rates samples `compiled` itself, so it
    /// is bit-identical to a nominal run of the same budget.
    pub fn try_run<S: RunSource>(
        &self,
        compiled: &CompiledCircuit,
        source: &S,
        spec: &RunSpec,
        base_seed: u64,
    ) -> Result<EngineRun, EngineError> {
        compiled.validate()?;
        source.validate_inputs()?;
        spec.validate()?;
        let started = Instant::now();
        let plan = ChunkPlan::new(spec, base_seed);
        let boosted;
        let (compiled, boost_beta) = match &spec.weighting {
            Weighting::Boosted { beta, rates } if *beta != 1.0 || !rates.is_identity() => {
                boosted = compiled.boosted_with_rates(*beta, rates);
                (&boosted, *beta)
            }
            _ => (compiled, 1.0),
        };

        let run_id = self.obs.begin_run();
        let mut coord = self.obs.worker(run_id, Event::COORDINATOR);
        coord.add(Counter::RunsStarted, 1);
        let (contexts, reweight_seconds) = source.contexts(&mut coord)?;
        let contexts = contexts.as_ref();
        let threads = self.threads.min(plan.num_chunks).max(1);
        coord.set(Gauge::Workers, threads as u64);
        coord.set(Gauge::ChunksPlanned, plan.num_chunks as u64);
        coord.set(Gauge::Epochs, contexts.len() as u64);
        coord.event(EventKind::RunStart {
            threads: threads as u32,
            chunks: plan.num_chunks as u32,
        });
        coord.flush();

        let job = Job {
            compiled,
            plan,
            contexts,
            chunk_context: (0..plan.num_chunks)
                .map(|chunk| source.context_of(chunk, plan.num_chunks) as u32)
                .collect(),
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
        let run = assemble_run(
            sh,
            &plan,
            threads,
            started,
            reweight_seconds,
            contexts.len(),
            boost_beta,
        )?;
        if boost_beta != 1.0 || plan.target_rse > 0.0 {
            // Weighted or CI-stopped runs publish estimator health; plain
            // runs record nothing new, keeping their metrics stream unchanged.
            coord.set(Gauge::Ess, run.ess as u64);
            coord.flush();
        }
        Ok(run)
    }
}

/// Folds the per-chunk results into the final [`EngineRun`]: counters and
/// timers over every executed chunk, the estimate and estimator health
/// over the deterministic prefix up to the cut.
fn assemble_run(
    sh: Shared,
    plan: &ChunkPlan,
    threads: usize,
    started: Instant,
    reweight_seconds: f64,
    epochs: usize,
    boost_beta: f64,
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
    let (mut sum_w, mut sum_w2, mut sum_wf, mut sum_w2f) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for r in sh.results[..included].iter().flatten() {
        estimate.shots += r.batches * BATCH;
        estimate.failures += r.failures;
        sum_w += r.sum_w;
        sum_w2 += r.sum_w2;
        sum_wf += r.sum_wf;
        sum_w2f += r.sum_w2f;
    }
    let n = estimate.shots as f64;
    // ESS ≤ n by Cauchy–Schwarz; the clamp only absorbs f64 rounding.
    let ess = if sum_w2 > 0.0 {
        (sum_w * sum_w / sum_w2).min(n)
    } else {
        0.0
    };
    let ci_halfwidth = if n > 0.0 {
        let p_hat = sum_wf / n;
        1.96 * ((sum_w2f / n - p_hat * p_hat).max(0.0) / n).sqrt()
    } else {
        0.0
    };
    let faults = sh.faults;
    Ok(EngineRun {
        estimate,
        threads,
        chunks_included: included,
        chunks_executed,
        wall_seconds: started.elapsed().as_secs_f64(),
        sample_seconds,
        extract_seconds,
        predecode_seconds: stats.predecode_seconds,
        cluster_seconds: stats.cluster_seconds,
        decode_seconds: stats.decode_seconds,
        tier0_shots: stats.tier0_shots,
        predecoded_shots: stats.predecoded_shots,
        predecoded_defects: stats.predecoded_defects,
        residual_shots: stats.residual_shots,
        clustered_shots: stats.clustered_shots,
        clustered_defects: stats.clustered_defects,
        clusters_total: stats.clusters_total,
        cluster_size_histogram: stats.cluster_size_histogram,
        defect_histogram: stats.defect_histogram,
        reweight_seconds,
        epochs,
        faulted_chunks: faults.faults,
        retried_chunks: faults.retries,
        degraded_shots,
        rung_chunks,
        panic_faults: faults.panics,
        stall_faults: faults.stalls,
        graph_faults: faults.graphs,
        ess,
        ci_halfwidth,
        boost_beta,
        weighted_failures: sum_wf,
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
    obs.add(Counter::ShotsTier1, stats.predecoded_shots as u64);
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
    if result.weighted {
        obs.add(Counter::ShotsWeighted, shots);
    }
    obs.event(EventKind::ChunkFinish {
        rung: result.rung as u8,
        shots: shots as u32,
        failures: result.failures as u32,
        tier0: stats.tier0_shots as u32,
        tier1: stats.predecoded_shots as u32,
        tier2: stats.residual_shots as u32,
        sample_nanos: (result.sample_seconds * 1e9) as u64,
        extract_nanos: (result.extract_seconds * 1e9) as u64,
        predecode_nanos: (stats.predecode_seconds * 1e9) as u64,
        decode_nanos: (stats.decode_seconds * 1e9) as u64,
    });
    // Both payloads are deterministic functions of the chunk's own shots,
    // so the journal stays thread-count independent; plain runs emit
    // neither event and keep their historic journal byte-for-byte.
    if result.weighted {
        let ess = if result.sum_w2 > 0.0 {
            result.sum_w * result.sum_w / result.sum_w2
        } else {
            0.0
        };
        obs.event(EventKind::ChunkWeights {
            sum_w: result.sum_w,
            sum_wf: result.sum_wf,
            ess,
        });
    }
    if stats.cluster_gate_on + stats.cluster_gate_off > 0 {
        obs.event(EventKind::ClusterGate {
            on: stats.cluster_gate_on as u32,
            off: stats.cluster_gate_off as u32,
        });
    }
}

/// The body of one worker thread: claim chunks, run each up the
/// degradation ladder on its epoch's decode context, merge results.
///
/// Rung-0 stacks are built lazily per context (workers typically touch a
/// contiguous band of chunks, hence few epochs) and quarantined on a
/// rung-0 fault — dropped and rebuilt from the context on next use, since
/// a panicking decoder may leave its scratch torn.
fn worker_loop<C: DecoderFactory>(job: &Job<'_, C>, mut obs: WorkerObs) {
    let mut stacks: Vec<Option<DecodeStack<C::Decoder>>> =
        job.contexts.iter().map(|_| None).collect();
    let mut scratch = SampleScratch::new(job.compiled);
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
        let ctx = job.chunk_context[chunk] as usize;
        let context = &job.contexts[ctx];
        let fallback = context.fallback_graph();
        obs.begin_chunk(chunk as u32);
        obs.add(Counter::ChunksStarted, 1);

        // Degradation ladder: rung 0 = the context's full stack; rung 1 =
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
                    let stack = stacks[ctx].get_or_insert_with(|| context.stack());
                    attempt_chunk(job, stack, &mut scratch, chunk, rung, fallback, &mut obs)
                }
                1 => {
                    let mut bare = DecodeStack::new(context.build());
                    attempt_chunk(
                        job,
                        &mut bare,
                        &mut scratch,
                        chunk,
                        rung,
                        fallback,
                        &mut obs,
                    )
                }
                _ => {
                    let graph = fallback.expect("the ladder reaches rung 2 only with a fallback");
                    let mut reference = DecodeStack::new(ReferenceUnionFind::new(graph.clone()));
                    attempt_chunk(
                        job,
                        &mut reference,
                        &mut scratch,
                        chunk,
                        rung,
                        fallback,
                        &mut obs,
                    )
                }
            };
            match attempt {
                Ok(result) => {
                    observe_chunk_finish(&mut obs, &result, attempt_started);
                    break Ok(result);
                }
                Err(fault) => {
                    observe_chunk_fault(&mut obs, &fault, rung);
                    tally.record(&fault);
                    if rung == 0 {
                        stacks[ctx] = None;
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
                if sh.cut.is_none() && (job.plan.max_failures > 0 || job.plan.target_rse > 0.0) {
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
    let plan = ChunkPlan::new(&RunSpec::from(options), base_seed);
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

    /// An importance-sampled spec at identity rates.
    fn boosted(beta: f64, target_rse: f64, min_shots: usize, max_shots: usize) -> RunSpec {
        RunSpec {
            budget: SampleOptions {
                min_shots,
                max_failures: 0,
                max_shots,
            },
            weighting: Weighting::Boosted {
                beta,
                rates: RateTable::identity(),
            },
            stop: StopRule::TargetRse(target_rse),
        }
    }

    /// An epoch source decoding with plain union-find.
    fn uf_epochs<'a>(
        graph: &'a MatchingGraph,
        schedule: &'a EpochSchedule,
    ) -> Epochs<'a, impl Fn(&MatchingGraph) -> UnionFindDecoder + Sync> {
        Epochs {
            graph,
            schedule,
            factory: &|g: &MatchingGraph| UnionFindDecoder::new(g.clone()),
        }
    }

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
    /// for any sum of chunks.
    #[test]
    fn phase_timers_never_exceed_wall_clock() {
        let c = rep_circuit(5, 0.05);
        let graph = graph_for_circuit(&c);
        // One batch = one chunk: the run-level check *is* the per-chunk
        // check. Then a multi-chunk run checks the aggregate.
        for min_shots in [64usize, 2_000] {
            let run = LerEngine::new(1).estimate(
                &CompiledCircuit::new(&c),
                &|| UnionFindDecoder::new(graph.clone()),
                SampleOptions {
                    min_shots,
                    ..Default::default()
                },
                11,
            );
            let phases = run.sample_seconds
                + run.extract_seconds
                + run.predecode_seconds
                + run.cluster_seconds
                + run.decode_seconds;
            assert!(
                phases <= run.wall_seconds + 1e-9,
                "phase sum {phases} exceeds wall {} (min_shots={min_shots})",
                run.wall_seconds
            );
        }
    }

    /// Without early stopping the tier counters partition the shot count
    /// and the defect histogram covers every shot — with and without a
    /// predecoder attached.
    #[test]
    fn tier_counters_partition_shots() {
        // A real surface-code patch: the rep-chain toy graphs are so small
        // that every node sits next to the frustrated seam and the
        // predecoder (correctly) never certifies anything there.
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
        assert_eq!(tiered.estimate, plain.estimate, "fast path changed results");
        for run in [&plain, &tiered] {
            assert_eq!(
                run.tier0_shots + run.predecoded_shots + run.clustered_shots + run.residual_shots,
                run.estimate.shots,
                "tier counters must partition the shots"
            );
            assert_eq!(
                run.defect_histogram.iter().sum::<u64>(),
                run.estimate.shots as u64
            );
            assert_eq!(run.defect_histogram[0], run.tier0_shots as u64);
        }
        assert_eq!(plain.predecoded_shots, 0);
        assert_eq!(plain.clustered_shots, 0, "cluster tier is opt-in");
        assert_eq!(tiered.clustered_shots, 0, "cluster tier is opt-in");
        assert!(tiered.predecoded_shots > 0, "predecoder never fired");
        assert!(tiered.predecoded_defects >= tiered.predecoded_shots);
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
            run.tier0_shots + run.predecoded_shots + run.clustered_shots + run.residual_shots,
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

    /// β = 1 with identity rates is plain Monte Carlo, bit for bit: same
    /// estimate, unit weights, ESS equal to the shot count, and the same
    /// LER from both accessors.
    #[test]
    fn rare_beta_one_is_bit_identical_to_plain() {
        let c = rep_circuit(5, 0.08);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let factory = || UnionFindDecoder::new(graph.clone());
        let opts = SampleOptions {
            min_shots: 5_000,
            ..Default::default()
        };
        let plain = LerEngine::new(2).estimate(&compiled, &factory, opts, 42);
        let rare = LerEngine::new(2)
            .try_run(&compiled, &factory, &boosted(1.0, 0.0, 5_000, 0), 42)
            .unwrap();
        assert_eq!(rare.estimate, plain.estimate);
        assert_eq!(rare.chunks_included, plain.chunks_included);
        assert_eq!(rare.boost_beta, 1.0);
        assert_eq!(rare.ess, rare.estimate.shots as f64);
        assert_eq!(rare.weighted_failures, rare.estimate.failures as f64);
        assert_eq!(rare.ler(), plain.estimate.per_shot());
        assert_eq!(rare.ler(), plain.ler());
    }

    /// A boosted run is bit-identical at any thread count: the weighted
    /// sums are per-chunk and folded in deterministic chunk order, and the
    /// CI cut is a pure function of the chunk prefix.
    #[test]
    fn rare_runs_are_deterministic_across_thread_counts() {
        let c = rep_circuit(5, 0.02);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let factory = || UnionFindDecoder::new(graph.clone());
        let spec = boosted(4.0, 0.1, 2_000, 50_000);
        let run_at = |threads| {
            LerEngine::new(threads)
                .try_run(&compiled, &factory, &spec, 7)
                .unwrap()
        };
        let reference = run_at(1);
        assert!(reference.ess > 0.0);
        for threads in [2, 8] {
            let run = run_at(threads);
            assert_eq!(run.estimate, reference.estimate, "threads={threads}");
            assert_eq!(run.chunks_included, reference.chunks_included);
            assert_eq!(run.weighted_failures, reference.weighted_failures);
            assert_eq!(run.ess, reference.ess);
            assert_eq!(run.ci_halfwidth, reference.ci_halfwidth);
        }
    }

    /// The importance-sampled estimator is unbiased: a boosted run's
    /// weighted LER agrees with a plain run of the same budget to within
    /// their combined confidence intervals, while observing far more raw
    /// failures, and its ESS sits strictly inside (0, shots).
    #[test]
    fn rare_estimate_agrees_with_plain_within_ci() {
        let c = rep_circuit(3, 0.05);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let factory = || UnionFindDecoder::new(graph.clone());
        let plain = LerEngine::new(2).estimate(
            &compiled,
            &factory,
            SampleOptions {
                min_shots: 50_000,
                ..Default::default()
            },
            99,
        );
        let rare = LerEngine::new(2)
            .try_run(&compiled, &factory, &boosted(6.0, 0.0, 50_000, 0), 99)
            .unwrap();
        let p_plain = plain.ler();
        assert!(p_plain > 0.0, "fixture must fail sometimes");
        assert!(
            rare.estimate.failures > plain.estimate.failures,
            "boosting must surface more raw failures ({} vs {})",
            rare.estimate.failures,
            plain.estimate.failures
        );
        assert!(rare.ess > 0.0 && rare.ess < rare.estimate.shots as f64);
        assert!(rare.ci_halfwidth.is_finite() && rare.ci_halfwidth > 0.0);
        let tolerance = 5.0 * (rare.ci_halfwidth + plain.ci_halfwidth);
        assert!(
            (rare.ler() - p_plain).abs() <= tolerance,
            "IS estimate {} vs plain {} outside 5x combined CI {}",
            rare.ler(),
            p_plain,
            tolerance
        );
    }

    /// With a generous shot ceiling and an easy CI target, the run stops at
    /// a deterministic chunk prefix well short of the budget — the
    /// rare-event analogue of the failure-budget early stop. β = 1 here, so
    /// this is also the plain-MC shots-to-target-CI stopping rule.
    #[test]
    fn ci_stop_fires_before_the_full_budget() {
        let c = rep_circuit(3, 0.2);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let factory = || UnionFindDecoder::new(graph.clone());
        let spec = boosted(1.0, 0.2, 1_000, 1_000_000);
        let run = LerEngine::new(4)
            .try_run(&compiled, &factory, &spec, 3)
            .unwrap();
        assert!(run.estimate.shots >= 1_000);
        assert!(
            run.estimate.shots < 1_000_000,
            "CI stop never fired ({} shots)",
            run.estimate.shots
        );
        let p = run.ler();
        assert!(run.ci_halfwidth <= 0.2 * p + f64::EPSILON);
        let serial = LerEngine::new(1)
            .try_run(&compiled, &factory, &spec, 3)
            .unwrap();
        assert_eq!(serial.estimate, run.estimate);
        assert_eq!(serial.chunks_included, run.chunks_included);
    }

    /// At d=11, p=1e-3 the mean defect count sits below the gate threshold,
    /// so `Auto` diverts every batch to the monolithic path — zero
    /// decompositions — while producing the exact same estimate as the
    /// forced-on tier (the tier is exact, so gating only moves time).
    #[test]
    fn auto_gate_diverts_sparse_batches() {
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
            min_shots: 1_000,
            ..Default::default()
        };
        let build = {
            let graph = graph.clone();
            move || UnionFindDecoder::new(graph.clone())
        };
        let auto = crate::predecode::Tiered::new(&graph, build.clone())
            .with_cluster_gate(ClusterGate::Auto);
        let on = crate::predecode::Tiered::new(&graph, build).with_cluster_gate(ClusterGate::On);
        let gated = LerEngine::new(2).estimate(&compiled, &auto, opts, 5);
        let forced = LerEngine::new(2).estimate(&compiled, &on, opts, 5);
        assert!(gated.cluster_gate_off > 0, "gate never evaluated");
        assert_eq!(
            gated.cluster_gate_on, 0,
            "d=11 density must stay below the gate"
        );
        assert_eq!(gated.clustered_shots, 0);
        assert_eq!(gated.clusters_total, 0);
        assert_eq!(forced.cluster_gate_on, gated.cluster_gate_off);
        assert!(forced.clusters_total > 0);
        assert_eq!(
            gated.estimate, forced.estimate,
            "gating must not change failures"
        );
        assert_eq!(
            gated.tier0_shots + gated.predecoded_shots + gated.residual_shots,
            gated.estimate.shots,
            "gated-off batches keep the partition invariant"
        );
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
                    &RunSpec::from(SampleOptions::default()),
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
            .try_run(&compiled, &factory, &RunSpec::from(opts), 42)
            .expect("ladder must recover from injected faults");
        assert_eq!(faulty.estimate, clean.estimate, "retry changed the LER");
        assert_eq!(faulty.faulted_chunks, 2);
        assert_eq!(faulty.retried_chunks, 2);
        assert_eq!(faulty.panic_faults, 2);
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
        assert_eq!(
            snap.counter("shots_tier1"),
            observed.predecoded_shots as u64
        );
        assert_eq!(snap.counter("shots_tier2"), observed.residual_shots as u64);
        assert_eq!(snap.counter("faults_panic"), 0);
        let decode_hist = snap.decode_shot_hist();
        assert_eq!(decode_hist.count, observed.residual_shots as u64);
        assert!(snap.hist(Hist::PredecodeShot).unwrap().count > 0);

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

    /// Epoch runs record one reweight event per context and reconcile the
    /// epoch gauge.
    #[test]
    fn epoch_run_records_reweight_events() {
        let c = rep_circuit(5, 0.08);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 2_000,
            ..Default::default()
        };
        let mut schedule = EpochSchedule::new(10.0);
        schedule.push(0.0, RateTable::identity());
        schedule.push(5.0, RateTable::uniform(0.12));
        let sink = ObsSink::enabled();
        let run = LerEngine::new(2)
            .with_obs(sink.clone())
            .try_run(
                &compiled,
                &uf_epochs(&graph, &schedule),
                &RunSpec::from(opts),
                7,
            )
            .unwrap();
        assert_eq!(run.epochs, 2);
        let snap = sink.snapshot();
        assert_eq!(snap.counter("epoch_reweights"), 2);
        assert_eq!(snap.hist(Hist::EpochReweight).unwrap().count, 2);
        let reweights = snap
            .events
            .iter()
            .filter(|e| e.kind.tag() == "epoch_reweight")
            .count();
        assert_eq!(reweights, 2);
        assert!(snap
            .gauges
            .iter()
            .any(|&(name, value)| name == "epochs" && value == 2));
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

    #[test]
    fn epoch_schedule_resolves_active_epoch() {
        let empty = EpochSchedule::new(10.0);
        assert_eq!(empty.active_at(5.0), 0);

        let mut sched = EpochSchedule::new(12.0);
        sched.push(8.0, RateTable::uniform(0.02));
        sched.push(0.0, RateTable::identity());
        sched.push(4.0, RateTable::uniform(0.01));
        assert_eq!(sched.epochs().len(), 3);
        assert!(sched.epochs()[0].hours <= sched.epochs()[1].hours);
        assert!(sched.epochs()[1].hours <= sched.epochs()[2].hours);
        assert_eq!(sched.active_at(-1.0), 0); // clamped to first epoch
        assert_eq!(sched.active_at(0.0), 0);
        assert_eq!(sched.active_at(3.9), 0);
        assert_eq!(sched.active_at(4.0), 1);
        assert_eq!(sched.active_at(7.9), 1);
        assert_eq!(sched.active_at(8.0), 2);
        assert_eq!(sched.active_at(100.0), 2);
    }

    #[test]
    fn identity_epoch_schedule_matches_tiered_run() {
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
        let baseline = LerEngine::new(2).estimate(&compiled, &factory, opts, 42);

        for schedule in [EpochSchedule::new(10.0), {
            let mut s = EpochSchedule::new(10.0);
            s.push(0.0, RateTable::identity());
            s
        }] {
            let run = LerEngine::new(2)
                .try_run(
                    &compiled,
                    &uf_epochs(&graph, &schedule),
                    &RunSpec::from(opts),
                    42,
                )
                .unwrap();
            assert_eq!(run.estimate, baseline.estimate);
            assert_eq!(run.tier0_shots, baseline.tier0_shots);
            assert_eq!(run.predecoded_shots, baseline.predecoded_shots);
            assert_eq!(run.residual_shots, baseline.residual_shots);
            assert_eq!(run.defect_histogram, baseline.defect_histogram);
            assert_eq!(run.epochs, 1);
            assert!(run.reweight_seconds >= 0.0);
        }
    }

    #[test]
    fn epoch_runs_are_deterministic_across_thread_counts() {
        let c = rep_circuit(5, 0.08);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 5_000,
            ..Default::default()
        };
        let mut schedule = EpochSchedule::new(10.0);
        schedule.push(0.0, RateTable::identity());
        schedule.push(5.0, RateTable::uniform(0.12));
        let source = uf_epochs(&graph, &schedule);
        let run_at = |threads| {
            LerEngine::new(threads)
                .try_run(&compiled, &source, &RunSpec::from(opts), 7)
                .unwrap()
        };
        let first = run_at(1);
        assert_eq!(first.epochs, 2);
        for threads in [2, 4] {
            let run = run_at(threads);
            assert_eq!(run.estimate, first.estimate, "threads={threads}");
            assert_eq!(run.defect_histogram, first.defect_histogram);
        }
    }

    #[test]
    fn epoch_run_recovers_from_injected_faults() {
        let c = rep_circuit(5, 0.08);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let opts = SampleOptions {
            min_shots: 5_000,
            ..Default::default()
        };
        let mut schedule = EpochSchedule::new(10.0);
        schedule.push(0.0, RateTable::identity());
        schedule.push(5.0, RateTable::uniform(0.12));
        let source = uf_epochs(&graph, &schedule);
        let clean = LerEngine::new(2)
            .try_run(&compiled, &source, &RunSpec::from(opts), 7)
            .unwrap();
        assert_eq!(clean.faulted_chunks, 0);

        let plan = FaultPlan::new().panic_at(0).corrupt_defects_at(2);
        let faulty = LerEngine::new(2)
            .with_faults(plan)
            .try_run(&compiled, &source, &RunSpec::from(opts), 7)
            .expect("epoch ladder must recover from injected faults");
        assert_eq!(faulty.estimate, clean.estimate, "retry changed the LER");
        assert_eq!(faulty.faulted_chunks, 2);
        assert_eq!(faulty.retried_chunks, 2);
        assert!(faulty.degraded());
    }
}
