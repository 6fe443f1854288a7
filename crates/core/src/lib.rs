//! # caliqec — in-situ qubit calibration for surface-code QEC
//!
//! A from-scratch Rust reproduction of **CaliQEC / QECali** (Fang et al.,
//! ISCA 2025): a framework that calibrates drifting physical qubits *in
//! situ* — concurrently with surface-code-protected computation — by
//! repurposing code deformation to isolate the qubits under calibration and
//! dynamically enlarging the patch to preserve the protection level.
//!
//! The framework runs in three stages (paper Fig. 5):
//!
//! 1. **Preparation** ([`Preparation`]): characterize the device — drift
//!    rates, calibration times, crosstalk neighbourhoods (`caliqec-device`).
//! 2. **Compilation** ([`compile`]): drift-based calibration grouping
//!    (Algorithm 1), intra-group batching, and lowering to the QECali
//!    deformation instruction set (`caliqec-sched`, `caliqec-code`).
//! 3. **Runtime** ([`run_runtime`]): execute the plan concurrently with
//!    computation, deforming and enlarging the patch around each batch.
//!
//! The stabilizer-simulation, decoding, and FTQC-evaluation substrates live
//! in the sibling crates `caliqec-stab`, `caliqec-match`, and `caliqec-ftqc`.
//!
//! # Example: the full pipeline on a synthetic device
//!
//! ```
//! use caliqec::{compile, run_runtime, CaliqecConfig, Preparation};
//! use caliqec_device::{DeviceConfig, DeviceModel};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let device = DeviceModel::synthetic(
//!     &DeviceConfig { rows: 3, cols: 3, ..DeviceConfig::default() },
//!     &mut rng,
//! );
//! let config = CaliqecConfig { distance: 3, ..CaliqecConfig::default() };
//!
//! let preparation = Preparation::run(&device, &mut rng);
//! let plan = compile(&device, &preparation, &config, &mut rng);
//! let report = run_runtime(&device, Some(&plan), &config, 24.0, 48);
//! assert!(report.calibrations > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod pipeline;
mod runtime;

pub use caliqec_obs as obs;
pub use config::CaliqecConfig;
pub use pipeline::{compile, device_qubit_to_patch, CompiledBatch, CompiledPlan, Preparation};
pub use runtime::{run_runtime, run_runtime_observed, RuntimeReport, TracePoint};
