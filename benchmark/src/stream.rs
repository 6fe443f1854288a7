//! `stream_d5_open`: four tenants streaming d = 5 memory windows (5 rounds
//! each, p = 1e-3) into one `StreamingDecoder` with a worker per thread.
//! Windows are replayed from a pre-sampled pool so the generator does no
//! sampling while it runs.
//!
//! Phase A is an open loop: window `g` is due at `g / rate` whether or not
//! the service keeps up, with a bounded queue and a deadline. Phase B
//! floods the service with no bound and no deadline to find its saturation
//! throughput.

use crate::host::{cpu_seconds, Timing};
use crate::mem::{check_ler, p50_p99_us, tiered_uf, Factory, Pipeline};
use crate::replay::{decode_metrics, replay_windows, setup_metrics, Layers};
use crate::stats::{median, quantile_sorted, Summary};
use crate::trace::{by_layer, with_overhead, Tracer};
use crate::{Outcome, RunOpts};
use caliqec_match::{
    ClusterGate, Disposition, MatchingGraph, PushOutcome, StreamConfig, StreamReport,
    StreamingDecoder, TenantSpec,
};
use caliqec_obs::{Hist, HistSnapshot, ObsSink};
use caliqec_stab::{chunk_seed, round_bounds, BatchEvents, CompiledCircuit, FrameState, BATCH};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const P: f64 = 1e-3;

/// Untraced/traced replay pairs timed for the tracing overhead.
const TRACE_REPS: usize = 3;

#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    pub d: usize,
    /// Set-ups timed per run; the median is reported.
    pub setup_reps: usize,
    pub tenants: usize,
    /// Pre-sampled windows per tenant, replayed cyclically.
    pub pool: usize,
    /// Phase A arrival rate, windows per second across all tenants.
    pub rate: f64,
    pub queue_bound: usize,
    pub deadline: Duration,
    /// Phase A is split into this many equal open loops; latency
    /// percentiles are medians over them, so one host stall moves one.
    pub latency_segments: usize,
    /// Share of `--seconds` spent in phase A.
    pub open_share: f64,
    /// Phase B floods, each of `flood_windows`; medians over their drains
    /// are reported.
    pub floods: usize,
    pub flood_windows: usize,
    /// Logical failures per shot of a fully decoded window, pinned from a
    /// long run (README).
    pub ler_ref: f64,
    /// Pool windows replayed serially by the traced run.
    pub replay_windows: usize,
}

pub const D5: StreamSpec = StreamSpec {
    d: 5,
    setup_reps: 9,
    tenants: 4,
    pool: 4096,
    rate: 8000.0,
    queue_bound: 256,
    deadline: Duration::from_millis(50),
    latency_segments: 8,
    open_share: 0.6,
    floods: 8,
    flood_windows: 30_000,
    ler_ref: 5.70e-4,
    replay_windows: 2048,
};

/// Detector words and true observable masks of every pool window.
struct Pool {
    events: Vec<Vec<BatchEvents>>,
    truth: Vec<Vec<[u64; BATCH]>>,
}

fn sample_pool(
    spec: &StreamSpec,
    compiled: &CompiledCircuit,
    seed: u64,
    tracer: &mut Tracer,
) -> Pool {
    let mut state = FrameState::new(compiled);
    let mut events = Vec::with_capacity(spec.tenants);
    let mut truth = Vec::with_capacity(spec.tenants);
    for t in 0..spec.tenants {
        let mut rng = StdRng::seed_from_u64(chunk_seed(seed, t as u64));
        let (mut evs, mut tru) = (Vec::with_capacity(spec.pool), Vec::with_capacity(spec.pool));
        for _ in 0..spec.pool {
            let ev = tracer.span("stab.sample", |_| {
                compiled.sample_batch(&mut state, &mut rng)
            });
            let mut masks = [0u64; BATCH];
            for (o, &word) in ev.observables.iter().enumerate() {
                for (s, m) in masks.iter_mut().enumerate() {
                    *m |= (word >> s & 1) << o;
                }
            }
            evs.push(ev);
            tru.push(masks);
        }
        events.push(evs);
        truth.push(tru);
    }
    Pool { events, truth }
}

struct Inputs {
    graph: MatchingGraph,
    pool: Pool,
}

fn inputs(spec: &StreamSpec, seed: u64, tracer: &mut Tracer) -> Inputs {
    let pipeline = Pipeline::build(spec.d, P, tracer);
    let pool = sample_pool(spec, &pipeline.compiled, seed, tracer);
    Inputs {
        graph: pipeline.graph,
        pool,
    }
}

fn start(
    spec: &StreamSpec,
    graph: &MatchingGraph,
    config: StreamConfig,
    sink: ObsSink,
) -> StreamingDecoder<Factory> {
    let tenants: Vec<TenantSpec<Factory>> = (0..spec.tenants)
        .map(|_| TenantSpec {
            factory: tiered_uf(graph, ClusterGate::Off),
            detectors: graph.num_detectors(),
        })
        .collect();
    StreamingDecoder::start(tenants, config, sink).expect("a graph built from a DEM validates")
}

/// The samples recorded into `now` since `before` was taken. The exact
/// maximum stays cumulative, so quantiles clamp no lower than they should.
fn hist_since(now: &HistSnapshot, before: &HistSnapshot) -> HistSnapshot {
    let mut delta = now.clone();
    for (b, old) in delta.buckets.iter_mut().zip(before.buckets.iter()) {
        *b = b.saturating_sub(*old);
    }
    delta.count = now.count.saturating_sub(before.count);
    delta.sum_nanos = now.sum_nanos.saturating_sub(before.sum_nanos);
    delta
}

/// Which pool window each admitted window of each tenant replayed.
#[derive(Default)]
struct Ledger {
    pool_index: Vec<Vec<usize>>,
    offered: u64,
    rejected: u64,
}

/// Pushes global window `g` (tenant `g mod tenants`) round by round.
fn push_window(
    spec: &StreamSpec,
    service: &StreamingDecoder<Factory>,
    pool: &Pool,
    g: usize,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) {
    let t = g % spec.tenants;
    let w = (g / spec.tenants) % spec.pool;
    let det = &pool.events[t][w].detectors;
    let mut outcome = PushOutcome::Buffered { rounds: 0 };
    for r in 0..spec.d {
        let (lo, hi) = round_bounds(det.len(), spec.d, r);
        outcome = tracer
            .span("stream.push", |_| service.push_round(t, &det[lo..hi]))
            .expect("pool rounds tile the window");
    }
    ledger.offered += 1;
    match outcome {
        PushOutcome::Admitted { .. } => ledger.pool_index[t].push(w),
        PushOutcome::Rejected { .. } => ledger.rejected += 1,
        PushOutcome::Buffered { .. } => unreachable!("the last round closes the window"),
    }
}

/// Outcome totals over every scored phase.
#[derive(Default)]
struct Tally {
    offered: u64,
    degraded: u64,
    /// Distinct pool shots scored against the truth, and their failures.
    shots_scored: u64,
    failures: u64,
    /// First fully decoded masks of each (tenant, pool window).
    reference: Vec<Vec<Option<[u64; BATCH]>>>,
}

/// Checks a drained service's accounting and scores its decoded windows
/// against the pool's truth and against earlier decodes of the same window.
fn score(
    spec: &StreamSpec,
    report: &StreamReport,
    ledger: &Ledger,
    pool: &Pool,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let h = &report.health;
    out.check(
        h.rounds_pending() == 0,
        format!("{} rounds pending after drain", h.rounds_pending()),
    );
    for t in &h.tenants {
        out.check(
            t.rounds_ingested == t.rounds_decoded + t.rounds_shed + t.rounds_deferred,
            format!(
                "tenant {}: ingested {} != decoded {} + shed {} + deferred {}",
                t.tenant, t.rounds_ingested, t.rounds_decoded, t.rounds_shed, t.rounds_deferred
            ),
        );
    }
    if tally.reference.is_empty() {
        tally.reference = vec![vec![None; spec.pool]; spec.tenants];
    }
    let mut mismatched = 0u64;
    for (t, results) in report.tenants.iter().enumerate() {
        out.check(
            results.len() == ledger.pool_index[t].len(),
            format!(
                "tenant {t}: {} results for {} admitted windows",
                results.len(),
                ledger.pool_index[t].len()
            ),
        );
        for r in results {
            let Some(&w) = ledger.pool_index[t].get(r.window as usize) else {
                continue;
            };
            if r.disposition != Disposition::Decoded {
                tally.degraded += 1;
                continue;
            }
            // Replays repeat pool windows, so each distinct window is scored
            // against the truth once and every repeat against that decode.
            match &tally.reference[t][w] {
                Some(m) => mismatched += u64::from(*m != r.masks),
                None => {
                    tally.shots_scored += BATCH as u64;
                    tally.failures += r
                        .masks
                        .iter()
                        .zip(&pool.truth[t][w])
                        .filter(|(a, b)| a != b)
                        .count() as u64;
                    tally.reference[t][w] = Some(r.masks);
                }
            }
        }
    }
    out.check(
        mismatched == 0,
        format!("{mismatched} windows decoded differently on replay"),
    );
    tally.offered += ledger.offered;
    tally.degraded += ledger.rejected;
}

/// What phase A measured.
struct OpenLoop {
    report: StreamReport,
    ledger: Ledger,
    /// Per window: due time to the return of its last `push_round`, µs.
    lateness: Vec<f64>,
    /// The service's window-latency histogram, one delta per segment.
    segments: Vec<HistSnapshot>,
}

/// Phase A: windows due at `g / rate`, pushed when due however far the
/// service has fallen behind.
fn open_loop(
    spec: &StreamSpec,
    inp: &Inputs,
    threads: usize,
    seconds: f64,
    sink: ObsSink,
    tracer: &mut Tracer,
) -> OpenLoop {
    let config = StreamConfig {
        workers: threads,
        queue_bound: spec.queue_bound,
        deadline: Some(spec.deadline),
        ..StreamConfig::default()
    };
    let service = start(spec, &inp.graph, config, sink.clone());
    let mut ledger = Ledger {
        pool_index: vec![Vec::new(); spec.tenants],
        ..Ledger::default()
    };
    let windows = (seconds * spec.rate).round() as usize;
    let per_segment = windows.div_ceil(spec.latency_segments).max(1);
    let latency = || {
        sink.snapshot()
            .hist(Hist::RoundLatency)
            .cloned()
            .unwrap_or_else(|| HistSnapshot::empty(Hist::RoundLatency.name()))
    };
    let mut segments = Vec::with_capacity(spec.latency_segments);
    let mut before = latency();
    let mut lateness = Vec::with_capacity(windows);
    let started = Instant::now();
    for g in 0..windows {
        if g > 0 && g % per_segment == 0 {
            let now = latency();
            segments.push(hist_since(&now, &before));
            before = now;
        }
        let due = started + Duration::from_secs_f64(g as f64 / spec.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        push_window(spec, &service, &inp.pool, g, &mut ledger, tracer);
        lateness.push(due.elapsed().as_secs_f64() * 1e6);
    }
    service.drain();
    segments.push(hist_since(&latency(), &before));
    OpenLoop {
        report: service.shutdown(),
        ledger,
        lateness,
        segments,
    }
}

/// The drain that follows a flood's last push: windows the workers
/// decoded with the generator idle, and the wall and CPU seconds it took.
struct Drain {
    windows: u64,
    wall: f64,
    cpu: f64,
}

/// Phase B: one unpaced flood into an unbounded queue, then a timed drain,
/// so the throughput is the workers' alone.
fn flood(
    spec: &StreamSpec,
    inp: &Inputs,
    threads: usize,
    first: usize,
) -> (StreamReport, Ledger, Drain) {
    let config = StreamConfig {
        workers: threads,
        queue_bound: usize::MAX,
        deadline: None,
        ..StreamConfig::default()
    };
    let service = start(spec, &inp.graph, config, ObsSink::disabled());
    let mut ledger = Ledger {
        pool_index: vec![Vec::new(); spec.tenants],
        ..Ledger::default()
    };
    let mut off = Tracer::new(false);
    for g in first..first + spec.flood_windows {
        push_window(spec, &service, &inp.pool, g, &mut ledger, &mut off);
    }
    let decoded = service.health().windows_decoded;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    service.drain();
    let drain = Drain {
        windows: spec.flood_windows as u64 - decoded,
        wall: t0.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - cpu0,
    };
    (service.shutdown(), ledger, drain)
}

pub fn run(spec: &StreamSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Timing::default();
    let mut ready = None;
    for _ in 0..spec.setup_reps {
        let ((inp, wall), k) = out.speed.bracket(|| {
            let t0 = Instant::now();
            let inp = inputs(spec, opts.seed, &mut Tracer::new(false));
            let service = start(
                spec,
                &inp.graph,
                StreamConfig::default(),
                ObsSink::disabled(),
            );
            let wall = t0.elapsed().as_secs_f64();
            service.shutdown();
            (inp, wall)
        });
        setup.push_time(wall, k);
        ready = Some(inp);
    }
    let inp = ready.expect("setup_reps > 0");
    let mut tally = Tally::default();

    let open = open_loop(
        spec,
        &inp,
        opts.threads,
        opts.seconds * spec.open_share,
        ObsSink::enabled(),
        &mut Tracer::new(false),
    );
    score(
        spec,
        &open.report,
        &open.ledger,
        &inp.pool,
        &mut tally,
        &mut out,
    );
    // Window latency is reported as measured: at this rate the workers are
    // mostly idle, so it is set by wake-ups and queueing more than by the
    // host's speed, and scaling it widened its spread (README).
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for h in &open.segments {
        let (lat50, lat99) = p50_p99_us(h, "window latency", &mut out);
        p50.push(lat50);
        p99.push(lat99);
    }
    out.as_measured("lat_p50_us", &p50);
    out.detail("lat_p99_us", median(&p99));
    out.detail("open_queue_peak", open.report.health.queue_peak as f64);

    let (mut rate, mut cpu) = (Timing::default(), Timing::default());
    let mut first = open.lateness.len();
    for _ in 0..spec.floods {
        let ((report, ledger, drain), k) =
            out.speed.bracket(|| flood(spec, &inp, opts.threads, first));
        score(spec, &report, &ledger, &inp.pool, &mut tally, &mut out);
        let shots = (drain.windows * BATCH as u64) as f64;
        out.check(
            drain.windows > 0,
            "a flood left nothing to drain, so its throughput is unmeasured",
        );
        rate.push_rate(shots / drain.wall, k);
        cpu.push_time(drain.cpu / shots * 1e6, k);
        first += spec.flood_windows;
    }
    check_ler(tally.failures, tally.shots_scored, spec.ler_ref, &mut out);

    out.attempted = tally.offered;
    out.failed = tally.degraded;
    out.timing("setup_s", &setup);
    out.timing("shots_per_s", &rate);
    out.timing("cpu_us_per_shot", &cpu);
    let mut lateness = open.lateness;
    lateness.sort_by(f64::total_cmp);
    let late = Summary::of(&lateness);
    out.detail("late_samples", late.n as f64);
    out.detail("late_p50_us", late.p50);
    out.detail("late_p99_us", quantile_sorted(&lateness, 0.99));
    out.detail("late_tail_pct", late.tail_pct.unwrap_or(0.0));
    out.detail("late_tail_us", late.tail);
    out.detail("max_windows_per_s", rate.raw_median() / BATCH as f64);
    out.detail("logical_failures", tally.failures as f64);
    out.detail("shots_scored", tally.shots_scored as f64);
    out
}

/// Per-layer run: set-up and pool sampling, untraced and traced serial
/// replays of pool windows through the decode layers, and a shorter open
/// loop with every `push_round` call spanned.
pub fn trace(spec: &StreamSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let inp = inputs(spec, opts.seed, &mut tracer);
    let mut layers = Layers::new(&inp.graph, false, &mut tracer);

    let slice = &inp.pool.events[0][..spec.replay_windows.min(spec.pool)];
    let (overhead, plain, traced) = with_overhead(TRACE_REPS, &mut tracer, |t| {
        replay_windows(slice, &mut layers, t)
    });
    out.check(
        plain == traced,
        "traced replay decoded differently from the untraced one",
    );

    let sink = ObsSink::enabled();
    let mut open = open_loop(
        spec,
        &inp,
        opts.threads,
        opts.seconds * spec.open_share / 2.0,
        sink.clone(),
        &mut tracer,
    );
    let mut tally = Tally::default();
    score(
        spec,
        &open.report,
        &open.ledger,
        &inp.pool,
        &mut tally,
        &mut out,
    );
    open.lateness.sort_by(f64::total_cmp);
    let mut pushes = tracer.durations("stream.push");
    pushes.sort_by(f64::total_cmp);
    let snap = sink.snapshot();
    let quantile_us = |h: Hist, q: f64| snap.hist(h).map_or(0.0, |h| h.quantile_nanos(q) / 1e3);
    let decode_mean = snap
        .hist(Hist::WindowDecode)
        .map_or(0.0, |h| h.mean_nanos() / 1e3);

    let layer = by_layer(tracer.spans());
    let pool_shots = (spec.tenants * spec.pool * BATCH) as f64;
    let sample_ns = layer.get("stab.sample").map_or(0.0, |l| l.self_ns);
    setup_metrics(&layer, &mut out);
    decode_metrics(&layer, &traced, &mut out);
    out.metric("stab.sample_ns_per_shot", sample_ns / pool_shots);
    out.metric("stream.push_us_p99", quantile_sorted(&pushes, 0.99) / 1e3);
    out.metric("stream.late_p99_us", quantile_sorted(&open.lateness, 0.99));
    out.metric("stream.decode_us_per_window", decode_mean);
    out.metric(
        "stream.queue_wait_us_p50",
        (quantile_us(Hist::RoundLatency, 0.5) - quantile_us(Hist::WindowDecode, 0.5)).max(0.0),
    );
    out.metric("stream.queue_peak", open.report.health.queue_peak as f64);
    out.metric("trace_overhead_frac", overhead);

    out.attempted = tally.offered;
    out.failed = tally.degraded;
    out.detail("push_calls", pushes.len() as f64);
    out.detail("open_windows", open.lateness.len() as f64);
    out.tracer = Some(tracer);
    out
}
