//! The CaliQEC runtime engine (paper Fig. 5, runtime stage).
//!
//! Executes a compiled calibration plan concurrently with computation on a
//! protected patch: at each calibration interval the due batches run back to
//! back; while a batch runs, its isolation instructions deform the patch
//! (and, in the full scheme, `PatchQ_AD` enlargement restores the lost
//! distance). Gate error rates follow their true drift models and reset to
//! `p0` when calibrated. The engine emits a time-resolved trace of mean
//! physical error, effective code distance, physical qubit usage, and model
//! LER — the quantities plotted in the paper's Fig. 10.

use crate::config::CaliqecConfig;
use crate::pipeline::CompiledPlan;
use caliqec_code::{
    code_distance, memory_circuit, DeformInstruction, DeformedPatch, MemoryBasis, NoiseModel,
    PatchLayout, Side,
};
use caliqec_device::DeviceModel;
use caliqec_match::{
    graph_for_circuit, EpochSchedule, Epochs, FaultPlan, LerEngine, MatchingGraph, RunSpec,
    SampleOptions, StopRule, UnionFindDecoder, Weighting,
};
use caliqec_obs::ObsSink;
use caliqec_sched::ler;
use caliqec_stab::{chunk_seed, CompiledCircuit, RateTable};

/// One sample of the runtime trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Absolute time in hours.
    pub hours: f64,
    /// Mean physical error rate across all gates.
    pub mean_p: f64,
    /// Effective code distance of the (possibly deformed) patch.
    pub distance: usize,
    /// Physical qubits currently in use by the patch.
    pub physical_qubits: usize,
    /// Model logical error rate `LER(distance, mean_p)`.
    pub ler: f64,
    /// Monte-Carlo-measured LER of this instant's layout under the parallel
    /// engine (`Some` when `config.mc_shots > 0`). Deterministic in the
    /// trace-point index, independent of `config.threads`.
    pub measured_ler: Option<f64>,
    /// Number of gates currently being calibrated.
    pub calibrating: usize,
}

/// Result of a runtime simulation.
#[derive(Clone, Debug, Default)]
pub struct RuntimeReport {
    /// Time-ordered trace.
    pub trace: Vec<TracePoint>,
    /// Total gate calibrations performed.
    pub calibrations: usize,
    /// Peak physical qubit usage.
    pub max_physical_qubits: usize,
    /// Number of trace points whose LER exceeded the target.
    pub ler_exceedances: usize,
    /// The LER target used for exceedance accounting.
    pub ler_target: f64,
    /// Total decoder-chunk faults observed across all Monte-Carlo
    /// measurements (zero unless faults were injected or a decoder
    /// genuinely misbehaved).
    pub faulted_chunks: usize,
    /// Total quarantined-chunk retries on the degradation ladder. Equals
    /// [`RuntimeReport::faulted_chunks`] whenever every measurement
    /// completed.
    pub retried_chunks: usize,
    /// Total shots decoded on a degraded ladder rung (predecode disabled
    /// or reference decoder).
    pub degraded_shots: usize,
    /// Total seconds spent reweighting cached matching graphs (and
    /// rebuilding their weight-derived predecoder tables) across all
    /// Monte-Carlo measurements. Zero unless `config.drift_aware` is set.
    pub reweight_seconds: f64,
    /// Total shots decoded across rare-event (importance-sampled)
    /// trace-point measurements. Zero unless `config.rare_event` is set.
    pub rare_shots: usize,
    /// Total effective sample size across rare-event measurements
    /// (`Σ ESS ≤ rare_shots`, with equality exactly when β = 1).
    pub rare_ess: f64,
    /// Largest 95% CI half-width observed over rare-event measurements
    /// (finite whenever any rare measurement ran).
    pub rare_max_ci: f64,
}

impl RuntimeReport {
    /// Whether any Monte-Carlo measurement had to fall back to a degraded
    /// decoder configuration (`--strict` in the CLI turns this into a
    /// nonzero exit).
    pub fn degraded(&self) -> bool {
        self.faulted_chunks > 0 || self.degraded_shots > 0
    }

    /// Fraction of the run spent above the LER target.
    pub fn exceedance_fraction(&self) -> f64 {
        if self.trace.is_empty() {
            return 0.0;
        }
        self.ler_exceedances as f64 / self.trace.len() as f64
    }

    /// Maximum LER observed over the run.
    pub fn peak_ler(&self) -> f64 {
        self.trace.iter().map(|p| p.ler).fold(0.0, f64::max)
    }
}

/// Runs the runtime engine for `horizon_hours` with `steps` trace samples.
///
/// Pass `plan: None` for the no-calibration ablation; set
/// `config.enlarge = false` for the isolation-without-enlargement ablation
/// (the middle curve of the paper's Fig. 10).
pub fn run_runtime(
    device: &DeviceModel,
    plan: Option<&CompiledPlan>,
    config: &CaliqecConfig,
    horizon_hours: f64,
    steps: usize,
) -> RuntimeReport {
    run_runtime_with_faults(device, plan, config, horizon_hours, steps, None)
}

/// [`run_runtime`] with an explicit decoder fault-injection plan armed on
/// every Monte-Carlo measurement (chaos testing; see
/// [`caliqec_match::FaultPlan`]). The engine recovers injected faults on
/// its degradation ladder, so the trace stays bit-identical to the
/// fault-free run; the report's `faulted_chunks` / `retried_chunks` /
/// `degraded_shots` counters record what happened.
pub fn run_runtime_with_faults(
    device: &DeviceModel,
    plan: Option<&CompiledPlan>,
    config: &CaliqecConfig,
    horizon_hours: f64,
    steps: usize,
    faults: Option<&FaultPlan>,
) -> RuntimeReport {
    run_runtime_observed(
        device,
        plan,
        config,
        horizon_hours,
        steps,
        faults,
        &ObsSink::disabled(),
    )
}

/// [`run_runtime_with_faults`] with an observability sink attached to every
/// Monte-Carlo measurement engine. The sink is passive: it never steers the
/// engine, so the trace is bit-identical whether `obs` is enabled or
/// disabled — only the sink's metrics, histograms, and journal differ.
/// Each trace-point measurement registers as one engine run in the sink.
#[allow(clippy::too_many_arguments)]
pub fn run_runtime_observed(
    device: &DeviceModel,
    plan: Option<&CompiledPlan>,
    config: &CaliqecConfig,
    horizon_hours: f64,
    steps: usize,
    faults: Option<&FaultPlan>,
    obs: &ObsSink,
) -> RuntimeReport {
    assert!(steps > 0 && horizon_hours > 0.0);
    let d = config.distance;
    let ler_target = ler(d, config.p_tar);
    let mut last_cal = vec![0.0f64; device.gates.len()];
    let mut report = RuntimeReport {
        ler_target,
        ..RuntimeReport::default()
    };

    // Precompute batch activity windows: (start, end, gates, isolation).
    struct Window<'p> {
        start: f64,
        end: f64,
        gates: &'p [usize],
        isolation: &'p [DeformInstruction],
        distance_loss: usize,
        counted: bool,
    }
    let mut windows: Vec<Window> = Vec::new();
    if let Some(plan) = plan {
        let t_cali = plan.t_cali_hours();
        let intervals = (horizon_hours / t_cali).ceil() as usize;
        for m in 1..=intervals {
            let mut cursor = (m - 1) as f64 * t_cali;
            for batch in plan.batches_in_interval(m) {
                windows.push(Window {
                    start: cursor,
                    end: cursor + batch.duration_hours,
                    gates: &batch.gates,
                    isolation: &batch.isolation,
                    distance_loss: batch.distance_loss,
                    counted: false,
                });
                cursor += batch.duration_hours;
            }
        }
    }

    // Cache the deformed layout per active window index to avoid rebuilding.
    let mut cached: Option<(usize, PatchLayout)> = None;
    // Drift-aware decoding: one reference matching graph per layout window,
    // incrementally reweighted to each trace point's rates. Keyed like the
    // layout cache (`None` = pristine patch).
    let mut ref_graph: Option<(Option<usize>, MatchingGraph)> = None;
    let pristine = DeformedPatch::new(config.lattice, d, d);
    let pristine_layout = pristine.layout().expect("pristine patch valid");
    let pristine_qubits = pristine_layout.num_physical_qubits();

    let dt = horizon_hours / steps as f64;
    for k in 0..steps {
        let t = (k as f64 + 0.5) * dt;
        // Complete calibrations whose window has ended.
        for w in windows.iter_mut() {
            if !w.counted && w.end <= t {
                for &g in w.gates {
                    last_cal[g] = w.end;
                }
                report.calibrations += w.gates.len();
                w.counted = true;
            }
        }
        // Active window, if any.
        let active = windows.iter().position(|w| w.start <= t && t < w.end);
        let (distance, qubits, calibrating) = match active {
            None => {
                cached = None;
                (d, pristine_qubits, 0)
            }
            Some(wi) => {
                let w = &windows[wi];
                if cached.as_ref().map(|(i, _)| *i) != Some(wi) {
                    cached = Some((wi, deformed_layout(config, &w.isolation.to_vec())));
                }
                let (_, layout) = cached.as_ref().expect("cache filled above");
                let _ = w.distance_loss;
                (
                    code_distance(layout).min(),
                    layout.num_physical_qubits(),
                    w.gates.len(),
                )
            }
        };
        // Mean drifted error across gates.
        let mean_p = device
            .gates
            .iter()
            .enumerate()
            .map(|(g, info)| info.drift.p_at(t - last_cal[g]).min(0.3))
            .sum::<f64>()
            / device.gates.len() as f64;
        let measured_ler = (config.mc_shots > 0).then(|| {
            let layout = cached.as_ref().map(|(_, l)| l).unwrap_or(&pristine_layout);
            let run = if config.drift_aware {
                measure_point_ler_drift_aware(
                    layout,
                    mean_p,
                    config,
                    k as u64,
                    faults,
                    obs,
                    active,
                    &mut ref_graph,
                )
            } else {
                measure_point_ler(layout, mean_p, config, k as u64, faults, obs)
            };
            report.faulted_chunks += run.faulted_chunks;
            report.retried_chunks += run.retried_chunks;
            report.degraded_shots += run.degraded_shots;
            report.reweight_seconds += run.reweight_seconds;
            if config.rare_event {
                report.rare_shots += run.estimate.shots;
                report.rare_ess += run.ess;
                report.rare_max_ci = report.rare_max_ci.max(run.ci_halfwidth);
            }
            // Weighted LER: bit-identical to `estimate.per_shot()` on plain
            // (unweighted) runs, so non-rare traces are unchanged byte for
            // byte.
            run.ler()
        });
        let point = TracePoint {
            hours: t,
            mean_p,
            distance,
            physical_qubits: qubits,
            ler: ler(distance, mean_p),
            measured_ler,
            calibrating,
        };
        if point.ler > ler_target {
            report.ler_exceedances += 1;
        }
        report.max_physical_qubits = report.max_physical_qubits.max(qubits);
        report.trace.push(point);
    }
    report
}

/// Applies a batch's isolation to a fresh patch (plus enlargement when
/// configured) and returns the resulting layout.
fn deformed_layout(config: &CaliqecConfig, isolation: &Vec<DeformInstruction>) -> PatchLayout {
    let mut patch = DeformedPatch::new(config.lattice, config.distance, config.distance);
    for instr in isolation {
        // Individual isolations may fail (e.g. the qubit fell on a logical
        // path after earlier holes); skip those — the runtime defers that
        // gate to the next interval.
        let _ = patch.apply(*instr);
    }
    if config.enlarge {
        // Dynamic code enlargement: grow alternately until the distance is
        // restored (bounded by Δd growth steps per side).
        for i in 0..(2 * config.delta_d) {
            let layout = patch.layout().expect("journal remains valid");
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
    patch.layout().expect("journal remains valid")
}

/// Measures the LER of one trace point's layout with the parallel engine:
/// a `distance`-round memory experiment under uniform noise at the
/// instant's mean drifted error rate. The base seed is derived from the
/// trace-point index alone, so the trace is reproducible and independent
/// of `config.threads`.
///
/// With `config.rare_event` set the measurement runs under importance
/// sampling at `config.boost_beta` instead: `mc_shots` becomes the shot
/// *ceiling* and the engine's CI stopping rule (at `config.target_rse`)
/// may end the run early at a deterministic chunk prefix. A rare run with
/// `boost_beta == 1` and `target_rse <= 0` schedules the identical chunk
/// plan over the same seeds and therefore reproduces the plain trace bit
/// for bit.
fn measure_point_ler(
    layout: &PatchLayout,
    mean_p: f64,
    config: &CaliqecConfig,
    point_index: u64,
    faults: Option<&FaultPlan>,
    obs: &ObsSink,
) -> caliqec_match::EngineRun {
    let noise = NoiseModel::uniform(mean_p.clamp(1e-9, 0.3));
    let rounds = config.distance.max(1);
    let mem = memory_circuit(layout, &noise, rounds, MemoryBasis::Z);
    let graph = graph_for_circuit(&mem.circuit);
    let mut engine = LerEngine::new(config.threads).with_obs(obs.clone());
    if let Some(plan) = faults {
        engine = engine.with_faults(plan.clone());
    }
    let factory = || UnionFindDecoder::new(graph.clone());
    engine
        .try_run(
            &CompiledCircuit::new(&mem.circuit),
            &factory,
            &point_spec(config),
            chunk_seed(0xCA11_0EC5, point_index),
        )
        .expect("engine run failed")
}

/// The run spec of one measured trace point, shared by both measurement
/// paths: plain Monte Carlo over `mc_shots`, or with `config.rare_event` an
/// importance-sampled run at `config.boost_beta` that treats `mc_shots` as
/// a ceiling and may stop early at `config.target_rse`.
fn point_spec(config: &CaliqecConfig) -> RunSpec {
    if !config.rare_event {
        return RunSpec::from(SampleOptions {
            min_shots: config.mc_shots,
            ..SampleOptions::default()
        });
    }
    // A quarter of the budget must decode before the CI rule may fire, so a
    // lucky early chunk can never stop a run on noise alone.
    RunSpec {
        budget: SampleOptions {
            min_shots: (config.mc_shots / 4).max(256).min(config.mc_shots),
            max_failures: 0,
            max_shots: config.mc_shots,
        },
        weighting: Weighting::Boosted {
            beta: config.boost_beta,
            rates: RateTable::identity(),
        },
        stop: StopRule::TargetRse(config.target_rse.max(0.0)),
    }
}

/// Calibration-aware variant of [`measure_point_ler`]: the matching graph
/// is extracted once per layout window at the freshly-calibrated rate `p0`
/// and incrementally reweighted to the instant's mean drifted rate via a
/// single-epoch schedule, instead of re-extracting a detector error model
/// at every trace point. Because the per-point noise is uniform, the
/// reweighted graph is bit-identical to a freshly extracted one, so the
/// measured trace matches [`measure_point_ler`] exactly; only the decode
/// setup cost (reported as `reweight_seconds`) differs. The sampled
/// circuit is still regenerated per point — physical noise must drift even
/// when the decoder updates incrementally. The run spec is the same
/// [`point_spec`], so `config.rare_event` importance-samples this path too.
#[allow(clippy::too_many_arguments)]
fn measure_point_ler_drift_aware(
    layout: &PatchLayout,
    mean_p: f64,
    config: &CaliqecConfig,
    point_index: u64,
    faults: Option<&FaultPlan>,
    obs: &ObsSink,
    window: Option<usize>,
    ref_graph: &mut Option<(Option<usize>, MatchingGraph)>,
) -> caliqec_match::EngineRun {
    let p = mean_p.clamp(1e-9, 0.3);
    let rounds = config.distance.max(1);
    let mem = memory_circuit(layout, &NoiseModel::uniform(p), rounds, MemoryBasis::Z);
    if ref_graph.as_ref().map(|(k, _)| *k) != Some(window) {
        let p_ref = config.p0.clamp(1e-9, 0.3);
        let ref_mem = memory_circuit(layout, &NoiseModel::uniform(p_ref), rounds, MemoryBasis::Z);
        *ref_graph = Some((window, graph_for_circuit(&ref_mem.circuit)));
    }
    let (_, graph) = ref_graph.as_ref().expect("cache filled above");
    let mut engine = LerEngine::new(config.threads).with_obs(obs.clone());
    if let Some(plan) = faults {
        engine = engine.with_faults(plan.clone());
    }
    let mut schedule = EpochSchedule::new(1.0);
    schedule.push(0.0, RateTable::uniform(p));
    let source = Epochs {
        graph,
        schedule: &schedule,
        factory: &|g: &MatchingGraph| UnionFindDecoder::new(g.clone()),
    };
    engine
        .try_run(
            &CompiledCircuit::new(&mem.circuit),
            &source,
            &point_spec(config),
            chunk_seed(0xCA11_0EC5, point_index),
        )
        .expect("engine run failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, Preparation};
    use caliqec_device::DeviceConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(enlarge: bool) -> (DeviceModel, CompiledPlan, CaliqecConfig) {
        let mut rng = StdRng::seed_from_u64(33);
        let device = DeviceModel::synthetic(
            &DeviceConfig {
                rows: 5,
                cols: 5,
                ..DeviceConfig::default()
            },
            &mut rng,
        );
        let config = CaliqecConfig {
            distance: 5,
            enlarge,
            ..CaliqecConfig::default()
        };
        let prep = Preparation::run(&device, &mut rng);
        let plan = compile(&device, &prep, &config, &mut rng);
        (device, plan, config)
    }

    #[test]
    fn no_calibration_ler_diverges() {
        let (device, _, config) = setup(true);
        let report = run_runtime(&device, None, &config, 48.0, 96);
        let first = report.trace.first().unwrap().ler;
        let last = report.trace.last().unwrap().ler;
        assert!(last > first * 100.0, "LER must grow: {first:e} -> {last:e}");
        assert_eq!(report.calibrations, 0);
    }

    #[test]
    fn calibration_bounds_mean_error() {
        let (device, plan, config) = setup(true);
        let horizon = 48.0;
        let with = run_runtime(&device, Some(&plan), &config, horizon, 96);
        let without = run_runtime(&device, None, &config, horizon, 96);
        assert!(with.calibrations > 0);
        let mean_with = with.trace.iter().map(|p| p.mean_p).sum::<f64>() / with.trace.len() as f64;
        let mean_without =
            without.trace.iter().map(|p| p.mean_p).sum::<f64>() / without.trace.len() as f64;
        assert!(
            mean_with < mean_without / 2.0,
            "calibrated {mean_with:e} vs uncalibrated {mean_without:e}"
        );
    }

    #[test]
    fn isolation_without_enlargement_loses_distance() {
        let (device, plan, config) = setup(false);
        let report = run_runtime(&device, Some(&plan), &config, 24.0, 200);
        let min_d = report.trace.iter().map(|p| p.distance).min().unwrap();
        assert!(
            min_d < config.distance,
            "isolation should dent the distance (min {min_d})"
        );
    }

    #[test]
    fn monte_carlo_trace_is_thread_count_independent() {
        let (device, plan, mut config) = setup(true);
        config.mc_shots = 256;
        config.threads = 1;
        let a = run_runtime(&device, Some(&plan), &config, 8.0, 4);
        config.threads = 2;
        let b = run_runtime(&device, Some(&plan), &config, 8.0, 4);
        let ms_a: Vec<_> = a.trace.iter().map(|p| p.measured_ler).collect();
        let ms_b: Vec<_> = b.trace.iter().map(|p| p.measured_ler).collect();
        assert!(
            ms_a.iter().all(|m| m.is_some()),
            "mc_shots > 0 must measure"
        );
        assert_eq!(ms_a, ms_b, "trace must not depend on thread count");
    }

    #[test]
    fn injected_faults_leave_trace_bit_identical() {
        let (device, plan, mut config) = setup(true);
        config.mc_shots = 256;
        config.threads = 2;
        let clean = run_runtime(&device, Some(&plan), &config, 8.0, 4);
        assert_eq!(clean.faulted_chunks, 0);
        assert_eq!(clean.degraded_shots, 0);
        assert!(!clean.degraded());
        let faults = FaultPlan::new().panic_at(0);
        let chaos = run_runtime_with_faults(&device, Some(&plan), &config, 8.0, 4, Some(&faults));
        let ms_clean: Vec<_> = clean.trace.iter().map(|p| p.measured_ler).collect();
        let ms_chaos: Vec<_> = chaos.trace.iter().map(|p| p.measured_ler).collect();
        assert_eq!(ms_clean, ms_chaos, "ladder retry must preserve the trace");
        // Chunk 0 faults once per measured trace point.
        assert_eq!(chaos.faulted_chunks, chaos.trace.len());
        assert_eq!(chaos.faulted_chunks, chaos.retried_chunks);
        assert!(chaos.degraded_shots > 0);
        assert!(chaos.degraded());
    }

    #[test]
    fn drift_aware_trace_is_bit_identical_to_plain() {
        let (device, plan, mut config) = setup(true);
        config.mc_shots = 256;
        config.threads = 2;
        let plain = run_runtime(&device, Some(&plan), &config, 8.0, 4);
        assert_eq!(plain.reweight_seconds, 0.0);
        config.drift_aware = true;
        let aware = run_runtime(&device, Some(&plan), &config, 8.0, 4);
        let ms_plain: Vec<_> = plain.trace.iter().map(|p| p.measured_ler).collect();
        let ms_aware: Vec<_> = aware.trace.iter().map(|p| p.measured_ler).collect();
        assert_eq!(
            ms_plain, ms_aware,
            "incremental reweighting must not change the measured trace"
        );
        assert!(
            aware.reweight_seconds > 0.0,
            "drift-aware runs must account their reweight time"
        );
    }

    #[test]
    fn observed_runtime_is_bit_identical_and_counts_runs() {
        let (device, plan, mut config) = setup(true);
        config.mc_shots = 256;
        config.threads = 2;
        let plain = run_runtime(&device, Some(&plan), &config, 8.0, 4);
        let sink = ObsSink::enabled();
        let observed = run_runtime_observed(&device, Some(&plan), &config, 8.0, 4, None, &sink);
        let ms_plain: Vec<_> = plain.trace.iter().map(|p| p.measured_ler).collect();
        let ms_obs: Vec<_> = observed.trace.iter().map(|p| p.measured_ler).collect();
        assert_eq!(ms_plain, ms_obs, "observation must not perturb the trace");
        let snap = sink.snapshot();
        assert_eq!(
            snap.counter("runs_started"),
            observed.trace.len() as u64,
            "one engine run per measured trace point"
        );
        assert!(snap.counter("chunks_finished") > 0);
        assert!(!snap.events.is_empty());
    }

    #[test]
    fn degenerate_rare_trace_is_bit_identical_to_plain() {
        let (device, plan, mut config) = setup(true);
        config.mc_shots = 256;
        config.threads = 2;
        let plain = run_runtime(&device, Some(&plan), &config, 8.0, 4);
        assert_eq!(plain.rare_shots, 0, "plain runs keep rare counters zero");
        let ms_plain: Vec<_> = plain.trace.iter().map(|p| p.measured_ler).collect();
        config.rare_event = true;
        config.boost_beta = 1.0;
        config.target_rse = 0.0;
        for drift_aware in [false, true] {
            config.drift_aware = drift_aware;
            let rare = run_runtime(&device, Some(&plan), &config, 8.0, 4);
            let ms_rare: Vec<_> = rare.trace.iter().map(|p| p.measured_ler).collect();
            assert_eq!(
                ms_plain, ms_rare,
                "drift_aware={drift_aware}: beta=1, target_rse=0 must reproduce \
                 the plain trace bit for bit"
            );
            // Unit weights: the ESS of every measurement equals its shot count.
            assert_eq!(rare.rare_ess, rare.rare_shots as f64);
            assert!(rare.rare_shots > 0, "drift_aware={drift_aware}");
            assert!(rare.rare_max_ci.is_finite());
        }
    }

    #[test]
    fn boosted_rare_trace_is_thread_count_independent_and_healthy() {
        let (device, plan, mut config) = setup(true);
        config.mc_shots = 2_048;
        config.rare_event = true;
        config.boost_beta = 4.0;
        config.target_rse = 0.2;
        let mut plain_graph = None;
        for drift_aware in [false, true] {
            config.drift_aware = drift_aware;
            config.threads = 1;
            let a = run_runtime(&device, Some(&plan), &config, 8.0, 4);
            config.threads = 2;
            let b = run_runtime(&device, Some(&plan), &config, 8.0, 4);
            let ms_a: Vec<_> = a.trace.iter().map(|p| p.measured_ler).collect();
            let ms_b: Vec<_> = b.trace.iter().map(|p| p.measured_ler).collect();
            assert!(ms_a.iter().all(|m| m.is_some()));
            assert_eq!(ms_a, ms_b, "rare trace must not depend on thread count");
            assert_eq!((a.rare_shots, a.rare_ess), (b.rare_shots, b.rare_ess));
            assert!(a.rare_ess > 0.0 && a.rare_ess <= a.rare_shots as f64);
            assert!(a.rare_max_ci.is_finite());
            // The reweighted graph equals a fresh one, so the drift-aware
            // path must reproduce the plain-graph rare run exactly.
            let summary = (ms_a, a.rare_shots, a.rare_ess);
            match &plain_graph {
                None => plain_graph = Some(summary),
                Some(want) => assert_eq!(&summary, want, "drift-aware rare run drifted"),
            }
        }
    }

    #[test]
    fn model_only_trace_skips_measurement() {
        let (device, plan, config) = setup(true);
        let report = run_runtime(&device, Some(&plan), &config, 8.0, 4);
        assert!(report.trace.iter().all(|p| p.measured_ler.is_none()));
    }

    #[test]
    fn enlargement_restores_distance_at_cost_of_qubits() {
        let (device, plan, config) = setup(true);
        let report = run_runtime(&device, Some(&plan), &config, 24.0, 200);
        let pristine = DeformedPatch::new(config.lattice, config.distance, config.distance)
            .layout()
            .unwrap()
            .num_physical_qubits();
        // During calibration the patch uses extra qubits...
        assert!(report.max_physical_qubits >= pristine);
        // ...and the distance never drops below target when enlargement is on
        // (allowing the engine one step of slack at window boundaries).
        let low_points = report
            .trace
            .iter()
            .filter(|p| p.distance < config.distance)
            .count();
        assert!(
            low_points * 10 <= report.trace.len(),
            "distance below target in {low_points}/{} points",
            report.trace.len()
        );
    }
}
