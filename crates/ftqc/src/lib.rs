//! # caliqec-ftqc — FTQC architecture and evaluation substrate
//!
//! The large-scale half of the CaliQEC evaluation (paper Sec. 7–8): surface
//! code tiles with routing channels, the execution-time model, the benchmark
//! programs of Table 2, the two baselines (no calibration and Logical Swap
//! for Calibration), and the drift-integrated retry-risk estimate.
//!
//! # Example: one Table 2 row
//!
//! ```
//! use caliqec_ftqc::{table2_row, BenchProgram, EvalConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let program = BenchProgram::hubbard(10, 10);
//! let [nocal, lsc, qecali] = table2_row(&program, 25, &EvalConfig::default(), &mut rng);
//! assert!(nocal.retry_risk > 0.99);            // calibration is indispensable
//! assert!(qecali.physical_qubits < lsc.physical_qubits); // in-situ wins on qubits
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
mod eval;
mod exec;
mod factory;
mod layout_detail;
mod program;
mod risk;
mod router;

pub use arch::{physical_qubits, qubit_overhead, tile_qubits, Policy, TILES_PER_LOGICAL};
pub use eval::{evaluate, table2_row, EvalConfig, PolicyResult};
pub use exec::{base_exec_hours, exec_hours, CX_PARALLELISM, CYCLE_US};
pub use factory::{
    distill_15_to_1, injected_error, t_error_budget, FactorySpec, LEVEL1_TILES, LEVEL1_TIMESTEPS,
};
pub use layout_detail::{compensation_headroom, detailed_layout, DetailedLayout};
pub use program::BenchProgram;
pub use risk::{
    average_ler, events_per_hour, lsc_periods, qecali_periods, retry_risk, CalibrationPeriods,
    DriftEnsemble,
};
pub use router::{route_random_workload, RoutingStats, Tile, TileLayout};
