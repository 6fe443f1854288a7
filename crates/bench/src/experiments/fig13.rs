//! Figure 13: d = 3 surface-code LER under drift and isolation, on the
//! square (Rigetti-style) and heavy-hexagon (IBM-style) lattices.
//!
//! Five scenarios per lattice (paper Sec. 8.3): *original*, one *drifted*
//! single-qubit gate, one *drifted* two-qubit gate, and the two *isolated
//! drifted* cases where the deformation instruction set removes the drifted
//! element (with enlargement restoring the distance). The paper's hardware
//! result: drift raises the LER by 41.6 %/135.5 % (square, 1Q/2Q) and
//! 55.0 %/178.2 % (heavy-hex), while isolation limits the increase to
//! 13.1 %/21.0 % and 22.8 %/33.6 % — with heavy-hex the more drift-sensitive
//! topology.

use crate::report::{fmt_num, TextTable};
use caliqec_code::{
    memory_circuit, DeformInstruction, DeformedPatch, Lattice, MemoryBasis, NoiseModel, Readout,
    Side, StabKind,
};
use caliqec_match::{graph_for_circuit, LerEngine, SampleOptions, UnionFindDecoder};
use caliqec_stab::CompiledCircuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The five Fig. 13 scenarios.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Fig13Scenario {
    /// Freshly calibrated device.
    Original,
    /// One single-qubit gate drifted for 8 hours.
    Drifted1Q,
    /// One two-qubit gate drifted for 8 hours.
    Drifted2Q,
    /// The drifted single-qubit gate's qubit isolated via deformation.
    IsolatedDrifted1Q,
    /// The drifted two-qubit gate isolated via deformation.
    IsolatedDrifted2Q,
}

impl Fig13Scenario {
    /// All scenarios in presentation order.
    pub const ALL: [Fig13Scenario; 5] = [
        Fig13Scenario::Original,
        Fig13Scenario::Drifted1Q,
        Fig13Scenario::Drifted2Q,
        Fig13Scenario::IsolatedDrifted1Q,
        Fig13Scenario::IsolatedDrifted2Q,
    ];

    /// Display label matching the paper's column names.
    pub fn label(&self) -> &'static str {
        match self {
            Fig13Scenario::Original => "original",
            Fig13Scenario::Drifted1Q => "drifted 1Q",
            Fig13Scenario::Drifted2Q => "drifted 2Q",
            Fig13Scenario::IsolatedDrifted1Q => "isolated drifted 1Q",
            Fig13Scenario::IsolatedDrifted2Q => "isolated drifted 2Q",
        }
    }
}

/// Parameters of the d = 3 device experiment.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Params {
    /// Baseline per-channel error rate.
    pub p0: f64,
    /// Hours of uncompensated drift applied to the drifted gate.
    pub drift_hours: f64,
    /// Drift-time constant of the drifted single-qubit gate.
    pub t_drift_1q_hours: f64,
    /// Drift-time constant of the drifted two-qubit gate (couplers drift
    /// faster, which is why the paper's drifted-2Q columns are worse).
    pub t_drift_2q_hours: f64,
    /// Syndrome rounds per shot.
    pub rounds: usize,
    /// Monte-Carlo shots per scenario.
    pub min_shots: usize,
    /// Early-stop failure budget.
    pub max_failures: usize,
    /// Shot cap.
    pub max_shots: usize,
    /// Monte-Carlo worker threads (0 = auto, honouring `CALIQEC_THREADS`).
    /// The measured LERs are identical at any thread count.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig13Params {
    fn default() -> Self {
        Fig13Params {
            p0: 2e-3,
            drift_hours: 8.0,
            t_drift_1q_hours: 10.0,
            t_drift_2q_hours: 5.5,
            rounds: 3,
            min_shots: 400_000,
            max_failures: 600,
            max_shots: 1_600_000,
            threads: 0,
            seed: 13,
        }
    }
}

impl Fig13Params {
    /// Reduced parameters for fast tests.
    pub fn quick() -> Self {
        Fig13Params {
            min_shots: 10_000,
            max_failures: 100,
            max_shots: 40_000,
            ..Fig13Params::default()
        }
    }

    /// The drifted single-qubit error rate after `drift_hours`.
    pub fn drifted_p_1q(&self) -> f64 {
        self.p0 * 10f64.powf(self.drift_hours / self.t_drift_1q_hours)
    }

    /// The drifted two-qubit error rate after `drift_hours`.
    pub fn drifted_p_2q(&self) -> f64 {
        self.p0 * 10f64.powf(self.drift_hours / self.t_drift_2q_hours)
    }
}

/// One scenario measurement.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Cell {
    /// Scenario.
    pub scenario: Fig13Scenario,
    /// Logical error rate per shot.
    pub ler: f64,
    /// Binomial standard error.
    pub std_err: f64,
    /// Physical qubits used.
    pub physical_qubits: usize,
}

/// Per-lattice results.
#[derive(Clone, Debug)]
pub struct Fig13Lattice {
    /// The lattice.
    pub lattice: Lattice,
    /// Scenario measurements in [`Fig13Scenario::ALL`] order.
    pub cells: Vec<Fig13Cell>,
}

impl Fig13Lattice {
    /// LER of a scenario.
    pub fn ler_of(&self, s: Fig13Scenario) -> f64 {
        self.cells
            .iter()
            .find(|c| c.scenario == s)
            .map(|c| c.ler)
            .unwrap_or(0.0)
    }

    /// Relative LER increase of a scenario over the original.
    pub fn increase(&self, s: Fig13Scenario) -> f64 {
        let base = self.ler_of(Fig13Scenario::Original);
        if base == 0.0 {
            return 0.0;
        }
        self.ler_of(s) / base - 1.0
    }
}

/// Result of the Figure 13 experiment.
#[derive(Clone, Debug)]
pub struct Fig13Result {
    /// Square- and heavy-hex-lattice results.
    pub lattices: Vec<Fig13Lattice>,
}

/// Runs one scenario on one lattice.
fn run_scenario(
    lattice: Lattice,
    scenario: Fig13Scenario,
    params: &Fig13Params,
    rng: &mut StdRng,
) -> Fig13Cell {
    let mut patch = DeformedPatch::new(lattice, 3, 3);
    let pristine = patch.layout().expect("pristine valid");
    // The drifted 1Q gate sits on the central data qubit; the drifted 2Q
    // gate is the coupler between that qubit and its stabilizer readout.
    let drift_target = caliqec_code::data_coord(1, 1);
    let two_q_partner = pristine
        .stabilizers
        .iter()
        .find(|s| s.kind == StabKind::Z && s.support.contains(&drift_target))
        .map(|s| match &s.readout {
            Readout::Direct { ancilla } => *ancilla,
            Readout::Chain { parts } => {
                // The bridge node attached to the drifted qubit.
                let part = &parts[0];
                let (k, _) = part
                    .attach
                    .iter()
                    .find(|&&(_, d)| d == drift_target)
                    .copied()
                    .expect("attachment for support qubit");
                part.chain[k]
            }
        })
        .expect("central qubit has a Z stabilizer");

    let mut noise = NoiseModel::uniform(params.p0);
    match scenario {
        Fig13Scenario::Original => {}
        Fig13Scenario::Drifted1Q => {
            noise.drift_qubit(drift_target, params.drifted_p_1q());
        }
        Fig13Scenario::Drifted2Q => {
            noise.drift_pair(drift_target, two_q_partner, params.drifted_p_2q());
        }
        Fig13Scenario::IsolatedDrifted1Q | Fig13Scenario::IsolatedDrifted2Q => {
            // Isolate the drifted element with the lattice's instruction set.
            let instr = match (lattice, scenario) {
                (Lattice::HeavyHex, Fig13Scenario::IsolatedDrifted2Q) => {
                    // The drifted coupler touches a bridge attach node:
                    // AncQ_RM_Deg3 removes it (and pins the data qubit).
                    DeformInstruction::AncQRmDeg3 {
                        ancilla: two_q_partner,
                    }
                }
                _ => DeformInstruction::DataQRm {
                    qubit: drift_target,
                },
            };
            patch.apply(instr).expect("isolation applies");
            // Dynamic code enlargement restores the original distance.
            for side in [Side::Right, Side::Bottom, Side::Right, Side::Bottom] {
                let layout = patch.layout().expect("valid");
                if caliqec_code::code_distance(&layout).min() >= 3 {
                    break;
                }
                patch
                    .apply(DeformInstruction::PatchQAd { side })
                    .expect("enlargement applies");
            }
        }
    }
    let layout = patch.layout().expect("valid layout");
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
    Fig13Cell {
        scenario,
        ler: est.per_shot(),
        std_err: est.std_err(),
        physical_qubits: layout.num_physical_qubits(),
    }
}

/// Runs the Figure 13 experiment on both lattices.
pub fn run(params: &Fig13Params) -> Fig13Result {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let lattices = [Lattice::Square, Lattice::HeavyHex]
        .into_iter()
        .map(|lattice| Fig13Lattice {
            lattice,
            cells: Fig13Scenario::ALL
                .iter()
                .map(|&s| run_scenario(lattice, s, params, &mut rng))
                .collect(),
        })
        .collect();
    Fig13Result { lattices }
}

impl fmt::Display for Fig13Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 13: d = 3 logical error rate under drift and isolation"
        )?;
        for l in &self.lattices {
            writeln!(f, "\n{:?} lattice:", l.lattice)?;
            let mut t = TextTable::new(["scenario", "LER", "std err", "qubits", "vs original"]);
            for c in &l.cells {
                t.row([
                    c.scenario.label().to_string(),
                    fmt_num(c.ler),
                    fmt_num(c.std_err),
                    c.physical_qubits.to_string(),
                    format!("{:+.1}%", l.increase(c.scenario) * 100.0),
                ]);
            }
            write!(f, "{}", t.render())?;
        }
        writeln!(
            f,
            "\npaper: square +41.6%/+135.5% drifted vs +13.1%/+21.0% isolated;"
        )?;
        writeln!(
            f,
            "       heavy-hex +55.0%/+178.2% drifted vs +22.8%/+33.6% isolated"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_raises_ler_and_isolation_contains_it() {
        let r = run(&Fig13Params {
            min_shots: 60_000,
            max_failures: 400,
            max_shots: 120_000,
            ..Fig13Params::default()
        });
        for l in &r.lattices {
            let orig = l.ler_of(Fig13Scenario::Original);
            let d1 = l.ler_of(Fig13Scenario::Drifted1Q);
            let d2 = l.ler_of(Fig13Scenario::Drifted2Q);
            assert!(orig > 0.0, "{:?}: original LER unmeasured", l.lattice);
            assert!(d1 > orig, "{:?}: drift 1Q must hurt", l.lattice);
            assert!(d2 > orig, "{:?}: drift 2Q must hurt", l.lattice);
            let i1 = l.ler_of(Fig13Scenario::IsolatedDrifted1Q);
            assert!(
                i1 < d1,
                "{:?}: isolation must beat drifting ({i1:e} vs {d1:e})",
                l.lattice
            );
        }
    }
}
