//! # caliqec-device — device, drift, and characterization substrate
//!
//! Models the hardware-facing half of CaliQEC's preparation stage (paper
//! Sec. 4): synthetic quantum devices with per-gate error drift, calibration
//! durations, and calibration-crosstalk neighbourhoods, plus the simulated
//! interleaved-randomized-benchmarking pipeline that estimates those
//! quantities the way the paper does on real hardware.
//!
//! # Example
//!
//! ```
//! use caliqec_device::{
//!     characterize_device, CharacterizeOptions, DeviceConfig, DeviceModel,
//! };
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let device = DeviceModel::synthetic(
//!     &DeviceConfig { rows: 3, cols: 3, ..DeviceConfig::default() },
//!     &mut rng,
//! );
//! // Preparation stage: estimate T_drift / T_cali / nbr(g) for every gate.
//! let characterization = characterize_device(
//!     &device,
//!     &CharacterizeOptions { hours: 4, shots_per_length: 256 },
//!     &mut rng,
//! );
//! assert_eq!(characterization.len(), device.gates.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod characterize;
mod crosstalk;
mod drift;
mod model;
mod probe;

pub use characterize::{
    characterize_device, characterize_gate, CharacterizeOptions, GateCharacterization, RB_LADDER,
};
pub use crosstalk::{crosstalk_neighbourhood, isolation_region_size};
pub use drift::{DriftDistribution, DriftModel};
pub use model::{DeviceConfig, DeviceModel, GateId, GateInfo, GateKind, QubitId};
pub use probe::{
    measure_all_crosstalk, measure_crosstalk, CrosstalkProbe, DisturbanceModel, ProbeOptions,
};
