//! Execution-time model (paper Sec. 7.1).
//!
//! QEC cycles take 1 µs. A lattice-surgery operation (logical CX or magic
//! state consumption) occupies `d` cycles; CX operations overlap across the
//! routing fabric while the T stream is serialized through distillation,
//! which matches the T-dominated runtimes of large chemistry programs. The
//! policies add their own overheads: LSC stalls computation during logical
//! state transfer; QECali runs calibration concurrently and adds none.
//!
//! Absolute times differ from the paper's lattice-surgery-compiler results
//! (see DESIGN.md); the policy *ratios* — LSC slower, QECali at baseline —
//! are the reproduced quantity.

use crate::arch::Policy;
use crate::program::BenchProgram;

/// QEC cycle time in microseconds (standard in FTQC studies).
pub const CYCLE_US: f64 = 1.0;

/// Effective number of logical CX operations commuting through the routing
/// fabric concurrently.
pub const CX_PARALLELISM: f64 = 8.0;

/// Baseline execution time in hours: T consumption serialized, CX routed
/// with [`CX_PARALLELISM`]-way overlap, each op costing `d` cycles.
pub fn base_exec_hours(program: &BenchProgram, d: usize) -> f64 {
    let cycles = (program.t_count + program.cx_count / CX_PARALLELISM) * d as f64;
    cycles * CYCLE_US / 3.6e9
}

/// Routing-congestion penalty while LSC calibration traffic occupies
/// corridors (measured by the routing study in `caliqec-bench`: blocking
/// ~15 % of the corridor fabric slows CX routing by this much).
pub const LSC_CONGESTION: f64 = 0.18;

/// Execution time under a calibration policy.
///
/// `calibration_events_per_hour` and `t_cali_hours` describe the calibration
/// schedule. LSC's logical state transfers occupy routing corridors and
/// staging patches while a calibration is in flight, slowing the
/// lattice-surgery fabric by `LSC_CONGESTION` for the utilized fraction of
/// the run (plus the per-move logical-SWAP latency). QECali calibrates in
/// situ and the no-calibration baseline never calibrates: both run at the
/// baseline time.
pub fn exec_hours(
    program: &BenchProgram,
    d: usize,
    policy: Policy,
    calibration_events_per_hour: f64,
    t_cali_hours: f64,
) -> f64 {
    let base = base_exec_hours(program, d);
    match policy {
        Policy::NoCalibration | Policy::Qecali { .. } => base,
        Policy::Lsc => {
            // Fraction of the run during which at least one calibration (and
            // thus a pair of logical moves through the fabric) is in flight.
            let utilization = (calibration_events_per_hour * t_cali_hours).min(1.0);
            let congestion = base * LSC_CONGESTION * utilization;
            // Logical SWAP latency: 4d cycles per move, two moves per event,
            // serialized through the CX fabric.
            let events = calibration_events_per_hour * base;
            let swaps = events * 8.0 * d as f64 * CYCLE_US / 3.6e9 / CX_PARALLELISM;
            base + congestion + swaps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_time_is_t_dominated_for_chemistry() {
        let p = BenchProgram::hubbard(10, 10);
        let h = base_exec_hours(&p, 25);
        // T-count 7.1e8 at d = 25 alone gives 4.9 h; CX adds ~1.4 h.
        assert!((4.0..8.0).contains(&h), "exec hours {h}");
    }

    #[test]
    fn qecali_adds_no_time() {
        let p = BenchProgram::hubbard(10, 10);
        let base = exec_hours(&p, 25, Policy::NoCalibration, 10.0, 0.1);
        let insitu = exec_hours(&p, 25, Policy::Qecali { delta_d: 4 }, 10.0, 0.1);
        assert_eq!(base, insitu);
    }

    #[test]
    fn lsc_is_slower_and_scales_with_events() {
        let p = BenchProgram::hubbard(10, 10);
        let base = exec_hours(&p, 25, Policy::NoCalibration, 0.0, 0.1);
        let slow = exec_hours(&p, 25, Policy::Lsc, 2.0, 0.1);
        let saturated = exec_hours(&p, 25, Policy::Lsc, 60.0, 0.1);
        assert!(slow > base);
        assert!(saturated > slow);
        // The paper reports ~10-20% slowdown for realistic rates.
        let ratio = saturated / base;
        assert!((1.05..1.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn larger_distance_takes_longer() {
        let p = BenchProgram::jellium(250);
        assert!(base_exec_hours(&p, 41) > base_exec_hours(&p, 39));
    }
}
