//! Benchmark program resource models (paper Sec. 7.1 and Table 2).
//!
//! Each benchmark is described by its logical resource footprint: logical
//! qubit count, CX count, and T count. The named variants reproduce the
//! paper's Table 2 columns exactly; the parametric generators are power-law
//! fits through those anchor points (documented in DESIGN.md) so other
//! problem sizes can be explored.

/// Logical resource footprint of a fault-tolerant program.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchProgram {
    /// Display name (e.g. `Hubbard-10-10`).
    pub name: String,
    /// Number of logical qubits.
    pub logical_qubits: usize,
    /// Number of logical CX (lattice-surgery) operations.
    pub cx_count: f64,
    /// Number of T gates (magic-state consumptions).
    pub t_count: f64,
}

impl BenchProgram {
    /// Total logical operations (the multiplier in the paper's retry-risk
    /// definition).
    pub fn logical_ops(&self) -> f64 {
        self.cx_count + self.t_count
    }

    /// Hubbard model simulation on an `nx × ny` site lattice (paper
    /// benchmark \[3\]); two logical qubits per site, gate counts fitted
    /// through the paper's 10×10 and 20×20 anchors.
    pub fn hubbard(nx: usize, ny: usize) -> BenchProgram {
        let sites = (nx * ny) as f64;
        BenchProgram {
            name: format!("Hubbard-{nx}-{ny}"),
            logical_qubits: 2 * nx * ny,
            cx_count: 1.64e9 * (sites / 100.0).powf(2.513),
            t_count: 7.10e8 * (sites / 100.0).powf(2.040),
        }
    }

    /// Jellium (uniform electron gas) simulation with `n` spin orbitals
    /// (paper benchmark \[61\]); fitted through the 250 and 1024 anchors.
    pub fn jellium(n: usize) -> BenchProgram {
        let x = n as f64 / 250.0;
        BenchProgram {
            name: format!("jellium-{n}"),
            logical_qubits: n,
            cx_count: 8.23e9 * x.powf(3.562),
            t_count: 1.10e9 * x.powf(2.604),
        }
    }

    /// Grover search over `n` qubits; T count dominated by the `~2^(n/2)`
    /// iteration count, anchored at the paper's Grover-100.
    pub fn grover(n: usize) -> BenchProgram {
        let iters = 2f64.powf((n as f64 - 100.0) / 2.0);
        BenchProgram {
            name: format!("Grover-{n}"),
            logical_qubits: n,
            cx_count: 6.8e9 * iters * (n as f64 / 100.0).powi(2),
            t_count: 5.4e10 * iters * (n as f64 / 100.0),
        }
    }

    /// FeMoCo catalyst ground-state estimation, the paper's flagship
    /// quantum-chemistry motivation \[40\] (tensor-hypercontraction resource
    /// figures from Lee et al. 2021).
    pub fn femoco() -> BenchProgram {
        BenchProgram {
            name: "FeMoCo".to_string(),
            logical_qubits: 2196,
            cx_count: 1.10e10,
            t_count: 6.00e9,
        }
    }

    /// The five benchmark variants of Table 2, in row order.
    pub fn table2_variants() -> Vec<BenchProgram> {
        vec![
            BenchProgram::hubbard(10, 10),
            BenchProgram::hubbard(20, 20),
            BenchProgram::jellium(250),
            BenchProgram::jellium(1024),
            BenchProgram::grover(100),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() / b < tol
    }

    #[test]
    fn hubbard_anchors_match_table2() {
        let h10 = BenchProgram::hubbard(10, 10);
        assert_eq!(h10.logical_qubits, 200);
        assert!(close(h10.cx_count, 1.64e9, 0.01));
        assert!(close(h10.t_count, 7.10e8, 0.01));
        let h20 = BenchProgram::hubbard(20, 20);
        assert_eq!(h20.logical_qubits, 800);
        assert!(close(h20.cx_count, 5.3e10, 0.03), "{}", h20.cx_count);
        assert!(close(h20.t_count, 1.2e10, 0.03), "{}", h20.t_count);
    }

    #[test]
    fn jellium_anchors_match_table2() {
        let j250 = BenchProgram::jellium(250);
        assert!(close(j250.cx_count, 8.23e9, 0.01));
        assert!(close(j250.t_count, 1.10e9, 0.01));
        let j1024 = BenchProgram::jellium(1024);
        assert!(close(j1024.cx_count, 1.25e12, 0.03), "{}", j1024.cx_count);
        assert!(close(j1024.t_count, 4.3e10, 0.03), "{}", j1024.t_count);
    }

    #[test]
    fn grover_anchor_matches_table2() {
        let g = BenchProgram::grover(100);
        assert_eq!(g.logical_qubits, 100);
        assert!(close(g.cx_count, 6.8e9, 0.01));
        assert!(close(g.t_count, 5.4e10, 0.01));
    }

    #[test]
    fn generators_scale_monotonically() {
        assert!(BenchProgram::hubbard(12, 12).t_count > BenchProgram::hubbard(10, 10).t_count);
        assert!(BenchProgram::jellium(500).cx_count > BenchProgram::jellium(250).cx_count);
        assert!(BenchProgram::grover(102).t_count > BenchProgram::grover(100).t_count);
    }

    #[test]
    fn table2_has_five_rows() {
        let v = BenchProgram::table2_variants();
        assert_eq!(v.len(), 5);
        assert!(v.iter().all(|p| p.logical_ops() > 1e9));
    }

    #[test]
    fn femoco_is_large() {
        let f = BenchProgram::femoco();
        assert!(f.logical_qubits > 2000);
        assert!(f.logical_ops() > 1e10);
    }
}
