//! Resource planning for long-running quantum-chemistry programs: which
//! calibration policy makes a multi-day FeMoCo / Hubbard run feasible?
//!
//! ```text
//! cargo run --release --example chemistry_resource_planning
//! ```
//!
//! The workloads the paper's introduction motivates (nitrogen fixation via
//! FeMoCo, high-Tc superconductivity via the Hubbard model) run for hours to
//! days — far beyond the drift time of today's qubits. This example sizes
//! the machine (distance and physical qubits) for each policy and reports
//! the drift-integrated retry risk.

use caliqec_ftqc::{evaluate, BenchProgram, EvalConfig, Policy};
use caliqec_sched::distance_for;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Retry-risk target the machine is sized for.
const RETRY_TARGET: f64 = 0.01;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let programs = [
        BenchProgram::hubbard(10, 10),
        BenchProgram::jellium(250),
        BenchProgram::femoco(),
    ];
    let config = EvalConfig::default();

    println!(
        "{:<14} {:>4} {:>16} {:>20} {:>12} {:>10}",
        "program", "d", "policy", "physical qubits", "exec (h)", "retry"
    );
    for program in &programs {
        // Size the distance so a sustained run at p ~ 2e-3 meets the target.
        let per_op = RETRY_TARGET / program.logical_ops();
        let d = distance_for(2e-3, per_op).unwrap_or(31);
        for policy in [
            Policy::NoCalibration,
            Policy::Lsc,
            Policy::Qecali { delta_d: 4 },
        ] {
            let r = evaluate(program, d, policy, &config, &mut rng);
            println!(
                "{:<14} {:>4} {:>16} {:>20} {:>12.1} {:>9.2}%",
                program.name,
                d,
                format!("{policy:?}"),
                r.physical_qubits,
                r.exec_hours,
                r.retry_risk * 100.0
            );
        }
        println!();
    }
    println!("QECali keeps the retry risk at the LSC level (or better) while");
    println!("using a fraction of its qubits and adding no execution time —");
    println!("the only policy that makes these runs deployable.");
}
