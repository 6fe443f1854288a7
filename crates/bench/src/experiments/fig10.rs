//! Figure 10: logical-error-rate dynamics across calibration cycles
//! (d = 11, Monte-Carlo).
//!
//! Three scenarios are simulated through two calibration cycles on a
//! distance-`d` square patch whose data qubits drift individually:
//!
//! 1. **No calibration** — the LER grows without bound.
//! 2. **Isolation + calibration** — drifted qubits are isolated (`DataQ_RM`)
//!    during the calibration window; the LER briefly spikes from the
//!    distance loss, then recovers below the pre-calibration level.
//! 3. **Isolation + enlargement + calibration** — `PatchQ_AD` growth
//!    compensates the distance loss, keeping the LER at or below target
//!    throughout, at a modest temporary qubit overhead.
//!
//! Every point is a full stabilizer-simulation + union-find-decoding run on
//! the deformed layout of that instant.

use crate::report::{fmt_num, TextTable};
use caliqec_code::{
    code_distance, memory_circuit, rotated_patch, Coord, DeformInstruction, DeformedPatch, Lattice,
    MemoryBasis, NoiseModel, Side,
};
use caliqec_match::{graph_for_circuit, LerEngine, SampleOptions, UnionFindDecoder};
use caliqec_sched::ler;
use caliqec_stab::CompiledCircuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// The three Fig. 10 scenarios.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Scenario {
    /// Let errors drift.
    NoCalibration,
    /// Isolate + calibrate, no enlargement.
    IsolationOnly,
    /// The full QECali scheme: isolate + enlarge + calibrate.
    Full,
}

impl Scenario {
    /// All scenarios in presentation order.
    pub const ALL: [Scenario; 3] = [
        Scenario::NoCalibration,
        Scenario::IsolationOnly,
        Scenario::Full,
    ];
}

/// Parameters of the LER-dynamics experiment.
///
/// Drift is heterogeneous, as the paper's Fig. 2a depicts: a handful of fast
/// drifters dominate the logical error growth ("even a small number of
/// underperforming qubits can significantly increase logical error rates",
/// Sec. 8.1), while the rest stay near `p0` over the horizon. Each
/// calibration window isolates the due qubits up to the `Δd` budget.
#[derive(Clone, Copy, Debug)]
pub struct Fig10Params {
    /// Code distance (the paper uses 11).
    pub d: usize,
    /// Syndrome-extraction rounds per Monte-Carlo shot.
    pub rounds: usize,
    /// Freshly calibrated per-channel error rate.
    pub p0: f64,
    /// Error rate that marks a qubit as due for calibration.
    pub p_tar: f64,
    /// Number of fast-drifting data qubits.
    pub fast_drifters: usize,
    /// Drift constant of the fast drifters (hours per 10x).
    pub fast_t_drift: f64,
    /// Drift constant of the stable qubits.
    pub slow_t_drift: f64,
    /// Maximum simultaneous isolations (the Δd budget; the paper uses 4).
    pub max_isolations: usize,
    /// Calibration cycle length in hours.
    pub cycle_hours: f64,
    /// Calibration window at the start of each cycle (hours).
    pub window_hours: f64,
    /// Number of cycles simulated.
    pub cycles: usize,
    /// Time samples per cycle.
    pub points_per_cycle: usize,
    /// Monte-Carlo shots per point (rounded up to 64-shot batches).
    pub min_shots: usize,
    /// Early-stop failure budget per point.
    pub max_failures: usize,
    /// Shot cap when chasing failures.
    pub max_shots: usize,
    /// Monte-Carlo worker threads (0 = auto, honouring `CALIQEC_THREADS`).
    /// The measured LERs are identical at any thread count.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig10Params {
    fn default() -> Self {
        Fig10Params {
            d: 11,
            rounds: 11,
            p0: 4e-3,
            p_tar: 8e-3,
            fast_drifters: 6,
            fast_t_drift: 7.0,
            slow_t_drift: 300.0,
            max_isolations: 4,
            cycle_hours: 8.0,
            window_hours: 2.0,
            cycles: 2,
            points_per_cycle: 6,
            min_shots: 100_000,
            max_failures: 100,
            max_shots: 400_000,
            threads: 0,
            seed: 10,
        }
    }
}

impl Fig10Params {
    /// Reduced parameters for fast tests.
    pub fn quick() -> Self {
        Fig10Params {
            d: 5,
            rounds: 3,
            fast_drifters: 2,
            points_per_cycle: 2,
            min_shots: 2_000,
            max_failures: 30,
            max_shots: 8_000,
            ..Fig10Params::default()
        }
    }
}

/// One scenario sample.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioPoint {
    /// Measured logical error rate per shot.
    pub ler: f64,
    /// Binomial standard error.
    pub std_err: f64,
    /// Effective code distance of the layout at this instant.
    pub distance: usize,
    /// Physical qubits in use.
    pub physical_qubits: usize,
}

/// One time sample across the scenarios.
#[derive(Clone, Debug)]
pub struct Fig10Point {
    /// Hours since the start of the run.
    pub hours: f64,
    /// Per-scenario measurements.
    pub scenarios: BTreeMap<Scenario, ScenarioPoint>,
}

/// Result of the Figure 10 experiment.
#[derive(Clone, Debug)]
pub struct Fig10Result {
    /// The LER target line `LER(d, p_tar)`.
    pub ler_target: f64,
    /// Pristine physical qubit count.
    pub baseline_qubits: usize,
    /// Time series.
    pub points: Vec<Fig10Point>,
}

impl Fig10Result {
    /// Peak LER of a scenario over the run.
    pub fn peak(&self, s: Scenario) -> f64 {
        self.points
            .iter()
            .filter_map(|p| p.scenarios.get(&s))
            .map(|sp| sp.ler)
            .fold(0.0, f64::max)
    }

    /// Peak extra physical qubits of a scenario relative to the baseline.
    pub fn peak_qubit_overhead(&self, s: Scenario) -> f64 {
        let peak = self
            .points
            .iter()
            .filter_map(|p| p.scenarios.get(&s))
            .map(|sp| sp.physical_qubits)
            .max()
            .unwrap_or(self.baseline_qubits);
        peak as f64 / self.baseline_qubits as f64 - 1.0
    }
}

/// Per-data-qubit drift state.
struct QubitDrift {
    coord: Coord,
    t_drift: f64,
    last_cal: f64,
}

impl QubitDrift {
    fn p_at(&self, t: f64, p0: f64) -> f64 {
        (p0 * 10f64.powf((t - self.last_cal) / self.t_drift)).min(0.3)
    }
}

/// Runs the Figure 10 experiment.
pub fn run(params: &Fig10Params) -> Fig10Result {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let pristine = rotated_patch(params.d, params.d);
    let baseline_qubits = pristine.num_physical_qubits();
    let data: Vec<Coord> = pristine.data.iter().copied().collect();
    // Heterogeneous drift, shared across scenarios: a few fast drifters
    // (jittered around `fast_t_drift`) among otherwise-stable qubits.
    let mut t_drifts: Vec<f64> = vec![params.slow_t_drift; data.len()];
    let mut fast_idx: Vec<usize> = (0..data.len()).collect();
    // Deterministic shuffle via the seeded rng.
    for i in (1..fast_idx.len()).rev() {
        let j = rand::RngExt::random_range(&mut rng, 0..=i);
        fast_idx.swap(i, j);
    }
    for (k, &i) in fast_idx.iter().take(params.fast_drifters).enumerate() {
        t_drifts[i] = params.fast_t_drift * (0.8 + 0.1 * k as f64);
    }

    let ler_target = ler(params.d, params.p_tar);
    let total_points = params.cycles * params.points_per_cycle;
    let mut points = Vec::new();

    // Per-scenario calibration state.
    let mut states: BTreeMap<Scenario, Vec<QubitDrift>> = Scenario::ALL
        .iter()
        .map(|&s| {
            (
                s,
                data.iter()
                    .zip(&t_drifts)
                    .map(|(&coord, &t_drift)| QubitDrift {
                        coord,
                        t_drift,
                        last_cal: 0.0,
                    })
                    .collect(),
            )
        })
        .collect();

    for k in 0..total_points {
        let t = (k as f64 + 0.5) * params.cycle_hours / params.points_per_cycle as f64;
        let cycle_pos = t % params.cycle_hours;
        let in_window = t >= params.cycle_hours && cycle_pos < params.window_hours;
        let mut samples = BTreeMap::new();
        for s in Scenario::ALL {
            let calibrates = s != Scenario::NoCalibration;
            let enlarges = s == Scenario::Full;
            let qubits = states.get_mut(&s).expect("scenario state");

            // During the window, the most-drifted due qubits are isolated
            // (respecting the Δd budget); they return freshly calibrated
            // when the window closes.
            let mut isolated: Vec<Coord> = Vec::new();
            if calibrates {
                if in_window {
                    let mut due: Vec<(f64, Coord)> = qubits
                        .iter()
                        .filter(|q| q.p_at(t, params.p0) > params.p_tar)
                        .map(|q| (q.p_at(t, params.p0), q.coord))
                        .collect();
                    due.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite rates"));
                    isolated = due
                        .into_iter()
                        .take(params.max_isolations)
                        .map(|(_, c)| c)
                        .collect();
                } else if cycle_pos >= params.window_hours {
                    // Window over: the isolated batch returns calibrated.
                    let window_start = t - cycle_pos + params.window_hours;
                    let mut due: Vec<usize> = (0..qubits.len())
                        .filter(|&i| {
                            t >= params.cycle_hours
                                && qubits[i].p_at(window_start, params.p0) > params.p_tar
                                && qubits[i].last_cal + params.cycle_hours * 0.5 < window_start
                        })
                        .collect();
                    due.sort_by(|&a, &b| {
                        qubits[b]
                            .p_at(window_start, params.p0)
                            .partial_cmp(&qubits[a].p_at(window_start, params.p0))
                            .expect("finite rates")
                    });
                    for &i in due.iter().take(params.max_isolations) {
                        qubits[i].last_cal = window_start;
                    }
                }
            }

            // Build the layout of this instant.
            let mut patch = DeformedPatch::new(Lattice::Square, params.d, params.d);
            let mut actually_isolated = Vec::new();
            for &c in &isolated {
                if patch.apply(DeformInstruction::DataQRm { qubit: c }).is_ok() {
                    actually_isolated.push(c);
                }
            }
            if enlarges {
                for i in 0..(2 * 4) {
                    if code_distance(&patch.layout().expect("valid")).min() >= params.d {
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
            let layout = patch.layout().expect("valid layout");
            let distance = code_distance(&layout).min();

            // Noise of this instant: baseline p0 channels with per-qubit
            // drift overrides (isolated qubits are out of the circuit).
            let mut noise = NoiseModel::uniform(params.p0);
            for q in qubits.iter() {
                if layout.data.contains(&q.coord) {
                    noise.drift_qubit(q.coord, q.p_at(t, params.p0));
                }
            }
            let mem = memory_circuit(&layout, &noise, params.rounds, MemoryBasis::Z);
            let graph = graph_for_circuit(&mem.circuit);
            let est = LerEngine::new(params.threads)
                .estimate(
                    &CompiledCircuit::new(&mem.circuit),
                    &|| UnionFindDecoder::new(graph.clone()),
                    SampleOptions {
                        min_shots: params.min_shots,
                        max_failures: params.max_failures,
                        max_shots: params.max_shots,
                    },
                    rng.random(),
                )
                .estimate;
            samples.insert(
                s,
                ScenarioPoint {
                    ler: est.per_shot(),
                    std_err: est.std_err(),
                    distance,
                    physical_qubits: layout.num_physical_qubits(),
                },
            );
        }
        points.push(Fig10Point {
            hours: t,
            scenarios: samples,
        });
    }
    Fig10Result {
        ler_target,
        baseline_qubits,
        points,
    }
}

impl fmt::Display for Fig10Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: LER dynamics with error drift (target LER = {})",
            fmt_num(self.ler_target)
        )?;
        let mut t = TextTable::new([
            "hours",
            "no-cal LER",
            "iso-only LER (d)",
            "full LER (d, qubits)",
        ]);
        for p in &self.points {
            let nc = &p.scenarios[&Scenario::NoCalibration];
            let iso = &p.scenarios[&Scenario::IsolationOnly];
            let full = &p.scenarios[&Scenario::Full];
            t.row([
                format!("{:.1}", p.hours),
                fmt_num(nc.ler),
                format!("{} (d={})", fmt_num(iso.ler), iso.distance),
                format!(
                    "{} (d={}, {} qubits)",
                    fmt_num(full.ler),
                    full.distance,
                    full.physical_qubits
                ),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(
            f,
            "peak qubit overhead of the full scheme: {:.1}% (paper: ~14%)",
            self.peak_qubit_overhead(Scenario::Full) * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shapes() {
        let r = run(&Fig10Params::quick());
        assert_eq!(r.points.len(), 4);
        // No-calibration LER at the end exceeds the start.
        let first = r.points.first().unwrap().scenarios[&Scenario::NoCalibration].ler;
        let last = r.points.last().unwrap().scenarios[&Scenario::NoCalibration].ler;
        assert!(
            last >= first,
            "no-cal should not improve: {first} -> {last}"
        );
        // Enlargement never reduces qubits below baseline.
        assert!(r.peak_qubit_overhead(Scenario::Full) >= 0.0);
    }

    #[test]
    fn full_scheme_keeps_distance() {
        let r = run(&Fig10Params::quick());
        for p in &r.points {
            let full = &p.scenarios[&Scenario::Full];
            assert!(full.distance >= 5, "full scheme distance {}", full.distance);
        }
    }
}
