//! End-to-end policy evaluation (Table 2 of the paper).
//!
//! For each (benchmark, distance, policy) triple this module produces the
//! three Table 2 quantities: physical qubit count, execution time, and retry
//! risk, by composing the architecture layouts, the execution-time model,
//! and the drift-integrated risk estimate.

use crate::arch::{physical_qubits, Policy};
use crate::exec::exec_hours;
use crate::program::BenchProgram;
use crate::risk::{
    average_ler, events_per_hour, lsc_periods, qecali_periods, retry_risk, CalibrationPeriods,
    DriftEnsemble,
};
use caliqec_device::DriftDistribution;
use rand::Rng;

/// Evaluation configuration shared by all policies of one Table 2 row.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Freshly calibrated physical error rate (the paper starts 10× below
    /// the 1 % threshold).
    pub p0: f64,
    /// Drift-time distribution (current or future model).
    pub drift: DriftDistribution,
    /// Targeted physical error rate the schedules keep every gate below
    /// (the paper holds gates a safe margin under the 1 % threshold).
    pub p_tar: f64,
    /// Mean single-gate calibration duration in hours (drives LSC's
    /// channel-congestion window).
    pub t_cali_hours: f64,
    /// QECali's enlargement headroom Δd.
    pub delta_d: usize,
    /// Number of sampled gates in the drift ensemble.
    pub ensemble_size: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            p0: 1e-3,
            drift: DriftDistribution::current(),
            p_tar: 3e-3,
            t_cali_hours: 0.1,
            delta_d: 4,
            ensemble_size: 500,
        }
    }
}

/// One cell-group of Table 2: a policy's qubits, time, and risk.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyResult {
    /// The evaluated policy.
    pub policy: Policy,
    /// Total physical qubits.
    pub physical_qubits: usize,
    /// Execution time in hours.
    pub exec_hours: f64,
    /// Retry risk in `[0, 1]`.
    pub retry_risk: f64,
}

/// Evaluates one policy on one benchmark at distance `d`.
///
/// # Examples
///
/// ```
/// use caliqec_ftqc::{evaluate, BenchProgram, EvalConfig, Policy};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let program = BenchProgram::hubbard(10, 10);
/// let r = evaluate(&program, 25, Policy::NoCalibration, &EvalConfig::default(), &mut rng);
/// assert!(r.retry_risk > 0.99); // drift kills uncalibrated runs
/// ```
pub fn evaluate<R: Rng>(
    program: &BenchProgram,
    d: usize,
    policy: Policy,
    config: &EvalConfig,
    rng: &mut R,
) -> PolicyResult {
    let ensemble = DriftEnsemble::sample(config.ensemble_size, config.p0, &config.drift, rng);
    let ops = program.logical_ops();
    let p_tar = config.p_tar.max(config.p0 * 1.05);
    let periods = match policy {
        Policy::NoCalibration => CalibrationPeriods::Never,
        Policy::Lsc => lsc_periods(&ensemble, p_tar),
        Policy::Qecali { .. } => qecali_periods(&ensemble, p_tar),
    };
    let events = events_per_hour(&periods);
    let hours = exec_hours(program, d, policy, events, config.t_cali_hours);
    let avg_ler = average_ler(d, &ensemble, &periods, hours, rng);
    PolicyResult {
        policy,
        physical_qubits: physical_qubits(program.logical_qubits, d, policy),
        exec_hours: hours,
        retry_risk: retry_risk(ops, avg_ler),
    }
}

/// Evaluates the full policy trio of one Table 2 row.
pub fn table2_row<R: Rng>(
    program: &BenchProgram,
    d: usize,
    config: &EvalConfig,
    rng: &mut R,
) -> [PolicyResult; 3] {
    [
        evaluate(program, d, Policy::NoCalibration, config, rng),
        evaluate(program, d, Policy::Lsc, config, rng),
        evaluate(
            program,
            d,
            Policy::Qecali {
                delta_d: config.delta_d,
            },
            config,
            rng,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_config() -> EvalConfig {
        EvalConfig {
            ensemble_size: 200,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn table2_row_reproduces_the_paper_ordering() {
        let mut rng = StdRng::seed_from_u64(42);
        let program = BenchProgram::hubbard(10, 10);
        let [nocal, lsc, qecali] = table2_row(&program, 25, &quick_config(), &mut rng);

        // Observation 1: no calibration -> retry risk approaches 100%.
        assert!(nocal.retry_risk > 0.99, "no-cal risk {}", nocal.retry_risk);
        // Observation 2: LSC controls risk but pays ~4.6x qubits and time.
        assert!(lsc.retry_risk < 0.5);
        assert!(lsc.physical_qubits > 4 * nocal.physical_qubits);
        assert!(lsc.exec_hours > nocal.exec_hours);
        // Observation 3: QECali controls risk at least as well with far
        // fewer qubits and no time overhead.
        assert!(qecali.retry_risk <= lsc.retry_risk * 1.05);
        assert!(qecali.physical_qubits < lsc.physical_qubits / 2);
        assert!((qecali.exec_hours - nocal.exec_hours).abs() < 1e-9);
    }

    #[test]
    fn larger_distance_reduces_risk_for_same_policy() {
        let mut rng = StdRng::seed_from_u64(7);
        let program = BenchProgram::hubbard(10, 10);
        let cfg = quick_config();
        let low = evaluate(&program, 25, Policy::Qecali { delta_d: 4 }, &cfg, &mut rng);
        let high = evaluate(&program, 27, Policy::Qecali { delta_d: 4 }, &cfg, &mut rng);
        assert!(high.retry_risk <= low.retry_risk * 1.1);
    }

    #[test]
    fn future_model_still_needs_calibration() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = EvalConfig {
            drift: DriftDistribution::future(),
            ..quick_config()
        };
        let program = BenchProgram::jellium(1024);
        let [nocal, _, qecali] = table2_row(&program, 45, &cfg, &mut rng);
        assert!(nocal.retry_risk > 0.99);
        assert!(qecali.retry_risk < nocal.retry_risk);
    }
}
