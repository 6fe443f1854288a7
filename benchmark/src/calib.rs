//! `calib_runtime_d11`: a 5×5 synthetic device, `Preparation::run` →
//! `compile` → `run_runtime_observed` at d = 11 over a 24 h horizon with
//! Monte-Carlo LER measured at every trace point — the paper's Fig. 10
//! path. Each point rebuilds the circuit, DEM and matching graph of that
//! instant's (possibly deformed) patch before decoding.

use crate::host::{cpu_seconds, Timing};
use crate::mem::p50_p99_us;
use crate::replay::setup_metrics;
use crate::stats::median;
use crate::trace::{by_layer, with_overhead, Tracer};
use crate::{Outcome, RunOpts};
use caliqec::{
    compile, run_runtime_observed, CaliqecConfig, CompiledPlan, Preparation, RuntimeReport,
};
use caliqec_code::{
    code_distance, memory_circuit, DeformInstruction, DeformedPatch, MemoryBasis, NoiseModel,
    PatchLayout, Side,
};
use caliqec_device::{DeviceConfig, DeviceModel};
use caliqec_match::MatchingGraph;
use caliqec_obs::{EventKind, Hist, ObsSink};
use caliqec_stab::extract_dem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const HORIZON_HOURS: f64 = 24.0;
/// Seed of the synthetic device, its characterization and its plan.
const DEVICE_SEED: u64 = 33;
/// Deformed layouts probed by the traced run, besides the pristine patch.
const TRACED_DEFORMED_LAYOUTS: usize = 2;

#[derive(Clone, Copy, Debug)]
pub struct CalibSpec {
    pub d: usize,
    /// Set-ups timed per run; the median is reported.
    pub setup_reps: usize,
    pub grid: usize,
    /// Trace points per runtime run.
    pub points: usize,
    pub mc_shots: usize,
    /// Runtime runs made even when `--seconds` has already elapsed.
    pub min_runs: usize,
    /// Calibrations one runtime run of the pinned device performs.
    pub pinned_calibrations: usize,
}

pub const D11: CalibSpec = CalibSpec {
    d: 11,
    setup_reps: 41,
    grid: 5,
    points: 8,
    mc_shots: 4096,
    // One runtime run takes 8–10 s on the two-vCPU host of the README, so
    // a 10 s budget would give one run or two depending on the host's
    // speed; two every time keeps the sample count fixed.
    min_runs: 2,
    pinned_calibrations: 187,
};

pub struct Prepared {
    pub device: DeviceModel,
    pub plan: CompiledPlan,
    pub config: CaliqecConfig,
}

/// Inputs to first trace point: device, characterization, compiled plan.
/// All three come from one RNG seeded with [`DEVICE_SEED`], not from the
/// run's seed: the runtime seeds each point's Monte Carlo from the point
/// index, so the device is the workload's only random input, and a device
/// drawn per seed changes the calibration plan and with it the point cost
/// by more than any bound (README).
pub fn prepare(spec: &CalibSpec, threads: usize, tracer: &mut Tracer) -> Prepared {
    let mut rng = StdRng::seed_from_u64(DEVICE_SEED);
    let (device, prep) = tracer.span("device.prepare", |_| {
        let device = DeviceModel::synthetic(
            &DeviceConfig {
                rows: spec.grid,
                cols: spec.grid,
                ..DeviceConfig::default()
            },
            &mut rng,
        );
        let prep = Preparation::run(&device, &mut rng);
        (device, prep)
    });
    let config = CaliqecConfig {
        distance: spec.d,
        threads,
        mc_shots: spec.mc_shots,
        ..CaliqecConfig::default()
    };
    let plan = tracer.span("sched.compile", |_| {
        compile(&device, &prep, &config, &mut rng)
    });
    Prepared {
        device,
        plan,
        config,
    }
}

/// Wall seconds of each trace point, from the sink's journal: point `k`
/// ends with the last event of engine run `k` and begins where point
/// `k − 1` ended (the first when the sink was created), so the points tile
/// the run. Checks that every point started exactly one engine run.
fn point_seconds(spec: &CalibSpec, sink: &ObsSink, out: &mut Outcome) -> Vec<f64> {
    let events = sink.snapshot().events;
    let starts = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RunStart { .. }))
        .count();
    out.check(
        starts == spec.points,
        format!("{starts} engine runs for {} trace points", spec.points),
    );
    let mut ends = vec![0u64; spec.points];
    for e in &events {
        if let Some(end) = ends.get_mut(e.run as usize) {
            *end = (*end).max(e.t_nanos);
        }
    }
    let mut prev = 0;
    ends.iter()
        .map(|&end| {
            let s = end.saturating_sub(prev) as f64 / 1e9;
            prev = prev.max(end);
            s
        })
        .collect()
}

fn check_report(spec: &CalibSpec, report: &RuntimeReport, out: &mut Outcome) {
    out.check(
        report.trace.len() == spec.points,
        format!(
            "trace has {} points, expected {}",
            report.trace.len(),
            spec.points
        ),
    );
    out.check(
        !report.degraded(),
        format!("degraded run: {} faulted chunks", report.faulted_chunks),
    );
    let bad = report
        .trace
        .iter()
        .filter(|p| {
            !p.measured_ler
                .is_some_and(|l| l.is_finite() && (0.0..0.5).contains(&l))
        })
        .count();
    out.check(
        bad == 0,
        format!("{bad} trace points without a sane measured LER"),
    );
}

pub fn run(spec: &CalibSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Timing::default();
    let mut ready = None;
    for _ in 0..spec.setup_reps {
        let ((prepared, wall), k) = out.speed.bracket(|| {
            let t0 = Instant::now();
            let prepared = prepare(spec, opts.threads, &mut Tracer::new(false));
            (prepared, t0.elapsed().as_secs_f64())
        });
        setup.push_time(wall, k);
        ready = Some(prepared);
    }
    let p = ready.expect("setup_reps > 0");

    // A runtime run lasts seconds and cannot be probed inside, so a probe
    // pair around it says little about its speed: scaling by it widened
    // these timings' spread (README), and they are reported as measured.
    let (mut rates, mut cpus, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut degraded, mut calibrations, mut runs) = (0u64, 0usize, 0usize);
    let started = Instant::now();
    while runs < spec.min_runs || started.elapsed().as_secs_f64() < opts.seconds {
        let sink = ObsSink::enabled();
        let cpu0 = cpu_seconds();
        let report = run_runtime_observed(
            &p.device,
            Some(&p.plan),
            &p.config,
            HORIZON_HOURS,
            spec.points,
            None,
            &sink,
        );
        let cpu_s = cpu_seconds() - cpu0;
        check_report(spec, &report, &mut out);
        for s in point_seconds(spec, &sink, &mut out) {
            rates.push(spec.mc_shots as f64 / s);
        }
        cpus.push(cpu_s / (spec.points * spec.mc_shots) as f64 * 1e6);
        let (lat50, lat99) = p50_p99_us(
            &sink.snapshot().decode_shot_hist(),
            "decode latency",
            &mut out,
        );
        p50.push(lat50);
        p99.push(lat99);
        degraded += report.degraded_shots as u64;
        calibrations = report.calibrations;
        runs += 1;
    }
    out.attempted = (runs * spec.points * spec.mc_shots) as u64;
    out.failed = degraded;
    out.timing("setup_s", &setup);
    out.as_measured("shots_per_s", &rates);
    out.as_measured("cpu_us_per_shot", &cpus);
    out.as_measured("lat_p50_us", &p50);
    out.detail("lat_p99_us", median(&p99));
    out.detail("point_s", spec.mc_shots as f64 / median(&rates));
    out.detail("calibrations_per_run", calibrations as f64);
    out.check(
        calibrations == spec.pinned_calibrations,
        format!(
            "{calibrations} calibrations per run, pinned {}",
            spec.pinned_calibrations
        ),
    );
    out
}

/// The runtime's private per-window layout, rebuilt here from public calls:
/// apply a batch's isolation to a fresh patch, then enlarge until the
/// distance is restored.
fn deformed_layout(config: &CaliqecConfig, isolation: &[DeformInstruction]) -> PatchLayout {
    let mut patch = DeformedPatch::new(config.lattice, config.distance, config.distance);
    for instr in isolation {
        let _ = patch.apply(*instr);
    }
    if config.enlarge {
        for i in 0..(2 * config.delta_d) {
            let layout = patch.layout().expect("journal stays valid");
            if code_distance(&layout).min() >= config.distance {
                break;
            }
            let side = if i % 2 == 0 {
                Side::Right
            } else {
                Side::Bottom
            };
            let _ = patch.apply(DeformInstruction::PatchQAd { side });
        }
    }
    patch.layout().expect("journal stays valid")
}

/// Rebuilds one trace point's decode inputs the way the runtime does.
fn probe_layout(config: &CaliqecConfig, isolation: &[DeformInstruction], tracer: &mut Tracer) {
    let layout = tracer.span("code.deform", |_| deformed_layout(config, isolation));
    let mem = tracer.span("code.memory_circuit", |_| {
        memory_circuit(
            &layout,
            &NoiseModel::uniform(config.p0),
            config.distance,
            MemoryBasis::Z,
        )
    });
    let dem = tracer.span("stab.extract_dem", |_| extract_dem(&mem.circuit));
    let graph = tracer.span("graph.from_dem", |_| MatchingGraph::from_dem(&dem));
    std::hint::black_box(graph);
}

/// Per-layer run: the set-up stages, then the per-point rebuild on the
/// pristine patch and on the first deformed layouts of this plan (untraced
/// and traced), then one observed runtime run for the engine's share.
pub fn trace(spec: &CalibSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let p = prepare(spec, opts.threads, &mut tracer);

    let mut isolations: Vec<Vec<DeformInstruction>> = vec![Vec::new()];
    for m in 1..64 {
        for b in p.plan.batches_in_interval(m) {
            if isolations.len() <= TRACED_DEFORMED_LAYOUTS && !isolations.contains(&b.isolation) {
                isolations.push(b.isolation.clone());
            }
        }
    }
    let (overhead, (), ()) = with_overhead(1, &mut tracer, |t| {
        for iso in &isolations {
            probe_layout(&p.config, iso, t);
        }
    });

    let sink = ObsSink::enabled();
    let t2 = Instant::now();
    let report = run_runtime_observed(
        &p.device,
        Some(&p.plan),
        &p.config,
        HORIZON_HOURS,
        spec.points,
        None,
        &sink,
    );
    let runtime_s = t2.elapsed().as_secs_f64();
    check_report(spec, &report, &mut out);
    let engine_s = sink
        .snapshot()
        .hist(Hist::ChunkWall)
        .map_or(0.0, |h| h.sum_nanos as f64 / 1e9);
    let points = point_seconds(spec, &sink, &mut out);

    setup_metrics(&by_layer(tracer.spans()), &mut out);
    out.metric("runtime.engine_frac", engine_s / runtime_s);
    out.detail("point_s", median(&points));
    out.metric("trace_overhead_frac", overhead);

    out.attempted = (spec.points * spec.mc_shots) as u64;
    out.failed = report.degraded_shots as u64;
    out.detail("probed_layouts", isolations.len() as f64);
    out.detail("runtime_s", runtime_s);
    out.detail("calibrations", report.calibrations as f64);
    out.tracer = Some(tracer);
    out
}
