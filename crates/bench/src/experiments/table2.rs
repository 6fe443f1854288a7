//! Table 2: end-to-end comparison of No-Calibration / LSC / QECali on the
//! paper's large-scale benchmarks.
//!
//! Each row evaluates one benchmark at one code distance under one drift
//! model, reporting physical qubits, execution time, and retry risk for all
//! three policies. Row selection mirrors the paper: Hubbard-10-10,
//! Hubbard-20-20, and jellium-250 under the current model; jellium-1024,
//! Grover-100, and Hubbard-10-10 under the future model; two distances each.

use crate::report::{fmt_num, fmt_pct, TextTable};
use caliqec_device::DriftDistribution;
use caliqec_ftqc::{table2_row, BenchProgram, EvalConfig, PolicyResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Which drift model a row uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DriftEra {
    /// Log-normal, mean 14.08 h.
    Current,
    /// Log-normal, mean 28.016 h.
    Future,
}

/// One Table 2 row specification.
#[derive(Clone, Debug)]
pub struct RowSpec {
    /// The benchmark.
    pub program: BenchProgram,
    /// Code distance.
    pub d: usize,
    /// Drift era.
    pub era: DriftEra,
}

/// Parameters of the Table 2 evaluation.
#[derive(Clone, Debug)]
pub struct Table2Params {
    /// Rows to evaluate.
    pub rows: Vec<RowSpec>,
    /// Drift-ensemble sample size.
    pub ensemble_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Table2Params {
    fn default() -> Self {
        let mut rows = Vec::new();
        let current = [
            (BenchProgram::hubbard(10, 10), [25usize, 27]),
            (BenchProgram::hubbard(20, 20), [29, 31]),
            (BenchProgram::jellium(250), [39, 41]),
        ];
        for (p, ds) in current {
            for d in ds {
                rows.push(RowSpec {
                    program: p.clone(),
                    d,
                    era: DriftEra::Current,
                });
            }
        }
        let future = [
            (BenchProgram::jellium(1024), [45usize, 47]),
            (BenchProgram::grover(100), [41, 43]),
            (BenchProgram::hubbard(10, 10), [25, 27]),
        ];
        for (p, ds) in future {
            for d in ds {
                rows.push(RowSpec {
                    program: p.clone(),
                    d,
                    era: DriftEra::Future,
                });
            }
        }
        Table2Params {
            rows,
            ensemble_size: 500,
            seed: 2,
        }
    }
}

impl Table2Params {
    /// Reduced parameters for fast tests: a single row, small ensemble.
    pub fn quick() -> Self {
        Table2Params {
            rows: vec![RowSpec {
                program: BenchProgram::hubbard(10, 10),
                d: 25,
                era: DriftEra::Current,
            }],
            ensemble_size: 150,
            ..Table2Params::default()
        }
    }
}

/// One evaluated row.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// The specification.
    pub spec: RowSpec,
    /// Results for `[NoCalibration, Lsc, Qecali]`.
    pub results: [PolicyResult; 3],
}

impl Table2Row {
    /// LSC qubit overhead over the baseline.
    pub fn lsc_qubit_overhead(&self) -> f64 {
        self.results[1].physical_qubits as f64 / self.results[0].physical_qubits as f64 - 1.0
    }

    /// QECali qubit overhead over the baseline.
    pub fn qecali_qubit_overhead(&self) -> f64 {
        self.results[2].physical_qubits as f64 / self.results[0].physical_qubits as f64 - 1.0
    }

    /// Retry-risk reduction of QECali relative to LSC.
    pub fn risk_reduction_vs_lsc(&self) -> f64 {
        if self.results[1].retry_risk == 0.0 {
            return 0.0;
        }
        1.0 - self.results[2].retry_risk / self.results[1].retry_risk
    }
}

/// Result of the Table 2 evaluation.
#[derive(Clone, Debug)]
pub struct Table2Result {
    /// Evaluated rows.
    pub rows: Vec<Table2Row>,
}

/// Runs the Table 2 evaluation.
pub fn run(params: &Table2Params) -> Table2Result {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let rows = params
        .rows
        .iter()
        .map(|spec| {
            let config = EvalConfig {
                drift: match spec.era {
                    DriftEra::Current => DriftDistribution::current(),
                    DriftEra::Future => DriftDistribution::future(),
                },
                ensemble_size: params.ensemble_size,
                ..EvalConfig::default()
            };
            Table2Row {
                spec: spec.clone(),
                results: table2_row(&spec.program, spec.d, &config, &mut rng),
            }
        })
        .collect();
    Table2Result { rows }
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: No-Calibration vs LSC vs QECali on large-scale programs"
        )?;
        let mut t = TextTable::new([
            "era",
            "benchmark",
            "d",
            "policy",
            "phys qubits",
            "exec (h)",
            "retry risk",
        ]);
        for row in &self.rows {
            for (i, name) in ["No Calibration", "LSC", "QECali"].iter().enumerate() {
                let r = &row.results[i];
                t.row([
                    format!("{:?}", row.spec.era),
                    row.spec.program.name.clone(),
                    row.spec.d.to_string(),
                    name.to_string(),
                    fmt_num(r.physical_qubits as f64),
                    format!("{:.2}", r.exec_hours),
                    fmt_pct(r.retry_risk),
                ]);
            }
        }
        write!(f, "{}", t.render())?;
        let avg_lsc: f64 = self
            .rows
            .iter()
            .map(|r| r.lsc_qubit_overhead())
            .sum::<f64>()
            / self.rows.len() as f64;
        let avg_q: f64 = self
            .rows
            .iter()
            .map(|r| r.qecali_qubit_overhead())
            .sum::<f64>()
            / self.rows.len() as f64;
        writeln!(
            f,
            "mean qubit overhead: LSC {:.0}% (paper: 363%), QECali {:.0}% (paper: 24%)",
            avg_lsc * 100.0,
            avg_q * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_row_has_paper_shape() {
        let r = run(&Table2Params::quick());
        let row = &r.rows[0];
        let [nocal, lsc, qecali] = &row.results;
        assert!(nocal.retry_risk > 0.99);
        assert!(lsc.retry_risk < 0.5);
        assert!(qecali.retry_risk <= lsc.retry_risk * 1.05);
        assert!(row.lsc_qubit_overhead() > 3.0);
        assert!(row.qecali_qubit_overhead() < 1.0);
        assert!(lsc.exec_hours > nocal.exec_hours);
        assert_eq!(qecali.exec_hours, nocal.exec_hours);
    }

    #[test]
    fn default_rows_cover_both_eras() {
        let p = Table2Params::default();
        assert_eq!(p.rows.len(), 12);
        assert!(p.rows.iter().any(|r| r.era == DriftEra::Future));
    }
}
