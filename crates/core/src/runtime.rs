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
    graph_for_circuit, FaultPlan, LerEngine, MatchingGraph, SampleOptions, UnionFindDecoder,
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
    /// Total decoder faults observed across all Monte-Carlo measurements,
    /// one per degradation-ladder retry (zero unless faults were injected
    /// or a decoder genuinely misbehaved).
    pub faulted_chunks: usize,
    /// Total shots decoded on a degraded ladder rung. The runtime's plain
    /// union-find factory has no fallback graph, so that is rung 1, a
    /// fresh bare decoder.
    pub degraded_shots: usize,
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
    run_runtime_observed(
        device,
        plan,
        config,
        horizon_hours,
        steps,
        None,
        &ObsSink::disabled(),
    )
}

/// [`run_runtime`] with an optional decoder fault-injection plan and an
/// observability sink attached to every Monte-Carlo measurement engine.
///
/// `faults` arms the plan on every measurement (chaos testing; see
/// [`caliqec_match::FaultPlan`]). The engine recovers injected faults on
/// its degradation ladder, so the trace stays bit-identical to the
/// fault-free run; the report's `faulted_chunks` and `degraded_shots`
/// counters record what happened.
///
/// The sink is passive: it never steers the engine, so the trace is
/// bit-identical whether `obs` is enabled or disabled — only the sink's
/// metrics, histograms, and journal differ. Each trace-point measurement
/// registers as one engine run in the sink.
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
                    counted: false,
                });
                cursor += batch.duration_hours;
            }
        }
    }

    // Each layout is realized once, with its distance, qubit count and
    // matching graph: the pristine patch for the whole run (it recurs
    // between windows), the active window's deformed patch until the active
    // window changes.
    let mut pristine = LayoutState::new(
        DeformedPatch::new(config.lattice, d, d)
            .layout()
            .expect("pristine patch valid"),
    );
    let mut window: Option<(usize, LayoutState)> = None;

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
        let calibrating = active.map_or(0, |wi| windows[wi].gates.len());
        let state = match active {
            None => {
                window = None;
                &mut pristine
            }
            Some(wi) => {
                if window.as_ref().map(|(i, _)| *i) != Some(wi) {
                    let layout = deformed_layout(config, windows[wi].isolation);
                    window = Some((wi, LayoutState::new(layout)));
                }
                &mut window.as_mut().expect("window filled above").1
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
            let run = measure_point_ler(state, mean_p, config, k as u64, faults, obs);
            report.faulted_chunks += run.faulted_chunks;
            report.degraded_shots += run.degraded_shots;
            run.estimate.per_shot()
        });
        let point = TracePoint {
            hours: t,
            mean_p,
            distance: state.distance,
            physical_qubits: state.qubits,
            ler: ler(state.distance, mean_p),
            measured_ler,
            calibrating,
        };
        if point.ler > ler_target {
            report.ler_exceedances += 1;
        }
        report.max_physical_qubits = report.max_physical_qubits.max(state.qubits);
        report.trace.push(point);
    }
    report
}

/// One realized patch layout and what every trace point on it reads.
struct LayoutState {
    layout: PatchLayout,
    /// `code_distance(layout).min()`.
    distance: usize,
    /// `layout.num_physical_qubits()`.
    qubits: usize,
    /// The layout's matching graph: built by the first measured point on
    /// the layout at that point's rate, then reweighted to each later
    /// point's rate.
    graph: Option<MatchingGraph>,
}

impl LayoutState {
    fn new(layout: PatchLayout) -> LayoutState {
        LayoutState {
            distance: code_distance(&layout).min(),
            qubits: layout.num_physical_qubits(),
            layout,
            graph: None,
        }
    }
}

/// Applies a batch's isolation to a fresh patch (plus enlargement when
/// configured) and returns the resulting layout.
fn deformed_layout(config: &CaliqecConfig, isolation: &[DeformInstruction]) -> PatchLayout {
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
/// The memory circuit carries the sampled noise and is built per point.
/// The layout's matching graph is built once, at the first measured point;
/// later points reweight it to their rate. Uniform noise changes only
/// component rates, never the graph's topology or which mechanism owns an
/// edge's observable mask, so the reweighted graph equals a fresh
/// extraction bit for bit (`tests/reweight_validation.rs` pins this).
/// Decoders own clones, so none ever mutates the kept graph.
fn measure_point_ler(
    state: &mut LayoutState,
    mean_p: f64,
    config: &CaliqecConfig,
    point_index: u64,
    faults: Option<&FaultPlan>,
    obs: &ObsSink,
) -> caliqec_match::EngineRun {
    let p = mean_p.clamp(1e-9, 0.3);
    let rounds = config.distance.max(1);
    let mem = memory_circuit(
        &state.layout,
        &NoiseModel::uniform(p),
        rounds,
        MemoryBasis::Z,
    );
    if let Some(graph) = &mut state.graph {
        graph
            .reweight(&RateTable::uniform(p))
            .expect("extracted graphs carry provenance");
    }
    let graph = &*state
        .graph
        .get_or_insert_with(|| graph_for_circuit(&mem.circuit));
    let mut engine = LerEngine::new(config.threads).with_obs(obs.clone());
    if let Some(plan) = faults {
        engine = engine.with_faults(plan.clone());
    }
    let factory = || UnionFindDecoder::new(graph.clone());
    engine.estimate(
        &CompiledCircuit::new(&mem.circuit),
        &factory,
        SampleOptions {
            min_shots: config.mc_shots,
            ..SampleOptions::default()
        },
        chunk_seed(0xCA11_0EC5, point_index),
    )
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
        let chaos = run_runtime_observed(
            &device,
            Some(&plan),
            &config,
            8.0,
            4,
            Some(&faults),
            &ObsSink::disabled(),
        );
        let ms_clean: Vec<_> = clean.trace.iter().map(|p| p.measured_ler).collect();
        let ms_chaos: Vec<_> = chaos.trace.iter().map(|p| p.measured_ler).collect();
        assert_eq!(ms_clean, ms_chaos, "ladder retry must preserve the trace");
        // Chunk 0 faults once per measured trace point.
        assert_eq!(chaos.faulted_chunks, chaos.trace.len());
        assert!(chaos.degraded_shots > 0);
        assert!(chaos.degraded());
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
