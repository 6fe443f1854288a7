//! # caliqec-sched — compile-time calibration scheduling
//!
//! The compilation stage of CaliQEC (paper Sec. 5): given the
//! preparation-time characterization of a device, decide *when* each gate is
//! calibrated and *which* calibrations run together.
//!
//! - [`assign_groups`]: drift-based calibration grouping (Algorithm 1) —
//!   minimizes the total calibration frequency `Σ 1/T_g` subject to every
//!   gate being recalibrated before its error reaches `p_tar`.
//! - [`choose_target`] / [`ler`]: targeted physical-error-rate determination
//!   from the qubit budget and the LER target (Eqns. 4–5).
//! - [`cluster_workloads`] / [`greedy_schedule`] / [`adaptive_schedule`]:
//!   intra-group scheduling balancing dependencies, crosstalk, and the
//!   distance-loss budget `Δd` (Sec. 5.3).
//! - [`build_plan`]: the full compiled [`CalibrationPlan`].
//!
//! # Example
//!
//! ```
//! use caliqec_sched::{assign_groups, GateDrift, ideal_frequency, uniform_frequency};
//!
//! let gates: Vec<GateDrift> = [6.0, 11.0, 13.0, 21.0, 29.0]
//!     .iter()
//!     .enumerate()
//!     .map(|(gate, &drift_hours)| GateDrift { gate, drift_hours })
//!     .collect();
//! let groups = assign_groups(&gates);
//! // Adaptive grouping sits between the ideal bound and the uniform policy.
//! assert!(groups.frequency() <= uniform_frequency(&gates));
//! assert!(groups.frequency() >= ideal_frequency(&gates));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod group;
mod intra;
mod plan;
mod target;

pub use group::{
    assign_groups, frequency_for, ideal_frequency, uniform_frequency, CalibrationGroups, GateDrift,
};
pub use intra::{
    adaptive_schedule, bulk_schedule, cluster_workloads, greedy_schedule, region_loss,
    sequential_schedule, Batch, IntraSchedule, Workload,
};
pub use plan::{build_plan, CalibrationPlan, PlanConfig};
pub use target::{
    choose_target, distance_for, ler, p_tar_for, patch_qubits, TargetChoice, ALPHA, P_TH,
};
