//! `mem_d7_sparse` and `mem_d15_dense`: rotated Z-memory at p = 1e-3 with
//! d rounds, decoded by the production `Tiered` union-find stack with the
//! `Auto` cluster gate, through `LerEngine` on the configured threads with
//! an enabled observability sink, whose per-shot decode histogram gives
//! the latency metrics.

use crate::host::{cpu_seconds, Timing};
use crate::replay::{decode_metrics, replay_sampled, setup_metrics, Layers};
use crate::stats::{median, tail_percentile};
use crate::trace::{by_layer, with_overhead, Tracer};
use crate::{Outcome, RunOpts};
use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    ClusterGate, EngineRun, LerEngine, MatchingGraph, SampleOptions, Tiered, UnionFindDecoder,
};
use caliqec_obs::{HistSnapshot, ObsSink};
use caliqec_stab::{chunk_seed, extract_dem, CompiledCircuit};
use std::time::Instant;

/// Physical error rate of every memory workload.
const P: f64 = 1e-3;

/// Untraced/traced replay pairs timed for the tracing overhead.
const TRACE_REPS: usize = 3;

#[derive(Clone, Copy, Debug)]
pub struct MemSpec {
    pub d: usize,
    /// Set-ups timed per run; the median is reported.
    pub setup_reps: usize,
    /// Shots per `LerEngine::estimate` call (one measured round).
    pub shots_per_round: usize,
    /// Rounds run even when `--seconds` has already elapsed.
    pub min_rounds: u64,
    /// Logical failures per shot, pinned from a long run (README).
    pub ler_ref: f64,
    /// `LANES`-batch groups replayed serially by the traced run.
    pub replay_groups: usize,
    /// Shots of the traced run's engine cross-check.
    pub trace_engine_shots: usize,
}

pub const D7: MemSpec = MemSpec {
    d: 7,
    setup_reps: 21,
    shots_per_round: 524_288,
    min_rounds: 4,
    ler_ref: 5.06e-5,
    replay_groups: 256,
    trace_engine_shots: 1_048_576,
};

pub const D15: MemSpec = MemSpec {
    d: 15,
    setup_reps: 3,
    shots_per_round: 65_536,
    min_rounds: 4,
    ler_ref: 0.0,
    replay_groups: 32,
    trace_engine_shots: 65_536,
};

pub type Factory = Tiered<Box<dyn Fn() -> UnionFindDecoder + Send + Sync>>;

/// The production decode stack over `graph`: predecoder, cluster tier
/// under `gate`, union-find.
pub fn tiered_uf(graph: &MatchingGraph, gate: ClusterGate) -> Factory {
    let g = graph.clone();
    let build: Box<dyn Fn() -> UnionFindDecoder + Send + Sync> =
        Box::new(move || UnionFindDecoder::new(g.clone()));
    Tiered::new(graph, build).with_cluster_gate(gate)
}

/// Everything between the workload's inputs `(d, p)` and its first shot.
pub struct Pipeline {
    pub compiled: CompiledCircuit,
    pub graph: MatchingGraph,
}

impl Pipeline {
    pub fn build(d: usize, p: f64, tracer: &mut Tracer) -> Pipeline {
        let layout = tracer.span("code.deform", |_| rotated_patch(d, d));
        let mem = tracer.span("code.memory_circuit", |_| {
            memory_circuit(&layout, &NoiseModel::uniform(p), d, MemoryBasis::Z)
        });
        let compiled = tracer.span("stab.compile", |_| CompiledCircuit::new(&mem.circuit));
        let dem = tracer.span("stab.extract_dem", |_| extract_dem(&mem.circuit));
        let graph = tracer.span("graph.from_dem", |_| MatchingGraph::from_dem(&dem));
        Pipeline { compiled, graph }
    }
}

/// Checks the engine's accounting on one round.
fn check_round(run: &EngineRun, out: &mut Outcome) {
    let partition =
        run.tier0_shots + run.predecoded_shots + run.clustered_shots + run.residual_shots;
    out.check(
        partition == run.estimate.shots,
        format!(
            "tier partition {} + {} + {} + {} != {} shots",
            run.tier0_shots,
            run.predecoded_shots,
            run.clustered_shots,
            run.residual_shots,
            run.estimate.shots
        ),
    );
    let histogram: u64 = run.defect_histogram.iter().sum();
    out.check(
        histogram == run.estimate.shots as u64,
        format!(
            "defect histogram sums to {histogram}, not {}",
            run.estimate.shots
        ),
    );
}

/// Logical failures must sit within 5σ of the pinned per-shot rate (σ
/// floored at one count, so a zero-rate reference tolerates a single
/// failure).
pub fn check_ler(failures: u64, shots: u64, ler_ref: f64, out: &mut Outcome) {
    let mu = shots as f64 * ler_ref;
    let sigma = (mu * (1.0 - ler_ref)).sqrt().max(1.0);
    out.check(
        (failures as f64 - mu).abs() <= 5.0 * sigma,
        format!("{failures} logical failures in {shots} shots; pinned rate {ler_ref:e} expects {mu:.1} ± {sigma:.1}"),
    );
}

/// Median and 99th percentile of a latency histogram, in µs. A p99 is
/// reported only with at least `MIN_BEYOND_TAIL` samples beyond it.
pub fn p50_p99_us(h: &HistSnapshot, what: &str, out: &mut Outcome) -> (f64, f64) {
    out.check(
        tail_percentile(h.count as usize).is_some_and(|p| p >= 99.0),
        format!("{what}: {} samples are too few for a p99", h.count),
    );
    (h.quantile_nanos(0.5) / 1e3, h.quantile_nanos(0.99) / 1e3)
}

pub fn run(spec: &MemSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Timing::default();
    let mut ready = None;
    for _ in 0..spec.setup_reps {
        let ((built, wall), k) = out.speed.bracket(|| {
            let t0 = Instant::now();
            let pipeline = Pipeline::build(spec.d, P, &mut Tracer::new(false));
            let factory = tiered_uf(&pipeline.graph, ClusterGate::Auto);
            ((pipeline, factory), t0.elapsed().as_secs_f64())
        });
        setup.push_time(wall, k);
        ready = Some(built);
    }
    let (pipeline, factory) = ready.expect("setup_reps > 0");

    let [mut rate, mut cpu, mut p50] = <[Timing; 3]>::default();
    let mut p99 = Vec::new();
    let (mut shots, mut failures, mut degraded) = (0u64, 0u64, 0u64);
    let (mut predecoded, mut clustered) = (0u64, 0u64);
    let started = Instant::now();
    let mut round = 0u64;
    while round < spec.min_rounds || started.elapsed().as_secs_f64() < opts.seconds {
        // A fresh sink per estimate, so its decode-latency histogram holds
        // that estimate's shots only.
        let sink = ObsSink::enabled();
        let engine = LerEngine::new(opts.threads).with_obs(sink.clone());
        let ((run, wall, cpu_s), k) = out.speed.bracket(|| {
            let cpu0 = cpu_seconds();
            let t0 = Instant::now();
            let run = engine.estimate(
                &pipeline.compiled,
                &factory,
                SampleOptions {
                    min_shots: spec.shots_per_round,
                    ..SampleOptions::default()
                },
                chunk_seed(opts.seed, round),
            );
            (run, t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0)
        });
        check_round(&run, &mut out);
        let n = run.estimate.shots as f64;
        rate.push_rate(n / wall, k);
        cpu.push_time(cpu_s / n * 1e6, k);
        let (lat50, lat99) = p50_p99_us(
            &sink.snapshot().decode_shot_hist(),
            "decode latency",
            &mut out,
        );
        p50.push_time(lat50, k);
        p99.push(lat99);
        shots += run.estimate.shots as u64;
        failures += run.estimate.failures as u64;
        degraded += run.degraded_shots as u64;
        predecoded += run.predecoded_shots as u64;
        clustered += run.clustered_shots as u64;
        round += 1;
    }
    check_ler(failures, shots, spec.ler_ref, &mut out);

    out.attempted = shots;
    out.failed = degraded;
    out.timing("setup_s", &setup);
    out.timing("shots_per_s", &rate);
    out.timing("cpu_us_per_shot", &cpu);
    out.timing("lat_p50_us", &p50);
    out.detail("lat_p99_us", median(&p99));
    out.detail("shots_per_round", spec.shots_per_round as f64);
    out.detail("logical_failures", failures as f64);
    out.detail("ler_per_shot", failures as f64 / shots as f64);
    out.detail("predecoded_frac", predecoded as f64 / shots as f64);
    out.detail("clustered_frac", clustered as f64 / shots as f64);
    out
}

/// Per-layer run: set-up builds, a short engine run for its CPU cost and
/// phase split, and untraced and traced serial replays of the same shots.
pub fn trace(spec: &MemSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let pipeline = Pipeline::build(spec.d, P, &mut tracer);
    let mut layers = Layers::new(&pipeline.graph, true, &mut tracer);

    // The engine runs before and after the replays and its two runs are
    // pooled, so a drift in host speed during the trace hits both sides.
    let factory = tiered_uf(&pipeline.graph, ClusterGate::Auto);
    let engine = LerEngine::new(opts.threads);
    let engine_run = |index: u64, out: &mut Outcome| {
        let cpu0 = cpu_seconds();
        let run = engine.estimate(
            &pipeline.compiled,
            &factory,
            SampleOptions {
                min_shots: spec.trace_engine_shots,
                ..SampleOptions::default()
            },
            chunk_seed(opts.seed, index),
        );
        check_round(&run, out);
        (run, cpu_seconds() - cpu0)
    };
    let (before, cpu_before) = engine_run(u64::MAX, &mut out);
    let (overhead, plain, traced) = with_overhead(TRACE_REPS, &mut tracer, |t| {
        replay_sampled(
            &pipeline.compiled,
            &mut layers,
            spec.replay_groups,
            opts.seed,
            t,
        )
    });
    out.check(
        plain == traced,
        "traced replay decoded differently from the untraced one",
    );
    let (after, cpu_after) = engine_run(u64::MAX - 1, &mut out);
    let n = (before.estimate.shots + after.estimate.shots) as f64;
    let engine_ns_per_shot = (cpu_before + cpu_after) / n * 1e9;
    let phase_ns = |phase: fn(&EngineRun) -> f64| (phase(&before) + phase(&after)) / n * 1e9;

    let layer = by_layer(tracer.spans());
    let shots = traced.shots as f64;
    let self_ns = |name: &str| layer.get(name).map_or(0.0, |l| l.self_ns);
    let replay_ns_per_shot: f64 = ["stab.sample", "stab.extract", "predecode", "cluster", "uf"]
        .iter()
        .map(|l| self_ns(l))
        .sum::<f64>()
        / shots;
    setup_metrics(&layer, &mut out);
    decode_metrics(&layer, &traced, &mut out);
    out.metric("stab.sample_ns_per_shot", self_ns("stab.sample") / shots);
    out.metric("engine.cpu_us_per_shot", engine_ns_per_shot / 1e3);
    out.metric(
        "engine.overhead_frac",
        1.0 - replay_ns_per_shot / engine_ns_per_shot,
    );
    out.metric("engine.sample_ns_per_shot", phase_ns(|r| r.sample_seconds));
    out.metric(
        "engine.extract_ns_per_shot",
        phase_ns(|r| r.extract_seconds),
    );
    out.metric(
        "engine.predecode_ns_per_shot",
        phase_ns(|r| r.predecode_seconds),
    );
    out.metric(
        "engine.cluster_ns_per_shot",
        phase_ns(|r| r.cluster_seconds),
    );
    out.metric("engine.decode_ns_per_shot", phase_ns(|r| r.decode_seconds));
    out.metric("trace_overhead_frac", overhead);

    out.attempted = traced.shots + n as u64;
    out.failed = (before.degraded_shots + after.degraded_shots) as u64;
    out.detail("replay_layer_ns_per_shot", replay_ns_per_shot);
    out.detail("engine_trace_shots", n);
    out.tracer = Some(tracer);
    out
}
