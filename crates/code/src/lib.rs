//! # caliqec-code — surface-code layouts and the QECali deformation
//! instruction sets
//!
//! This crate implements the code-structure half of the CaliQEC paper:
//!
//! - [`rotated_patch`]: rotated square-lattice surface-code patches (paper
//!   Fig. 3a, Rigetti-style).
//! - [`heavy_hex_patch`]: heavy-hexagon patches with 7-ancilla "S"-shaped
//!   readout bridges (paper Fig. 3d, IBM-style).
//! - [`DeformInstruction`] / [`DeformedPatch`]: the QECali instruction sets
//!   of paper Table 1 — `DataQ_RM`, `SyndromeQ_RM`, `PatchQ_RM`, `PatchQ_AD`
//!   for square lattices plus `AncQ_RM_HorDeg2`, `AncQ_RM_VerDeg2`,
//!   `AncQ_RM_Deg3` for heavy-hex — which isolate qubits behind temporary
//!   boundaries while preserving the encoded state.
//! - [`code_distance`]: code distance of deformed layouts (the `Δd` loss the
//!   scheduler must compensate).
//! - [`memory_circuit`]: noisy memory-experiment circuits for any valid
//!   layout, ready for `caliqec-stab` sampling and `caliqec-match` decoding.
//!
//! # Example: isolate a drifted qubit, measure the cost, heal the patch
//!
//! ```
//! use caliqec_code::{
//!     code_distance, DeformInstruction, DeformedPatch, Lattice, Side,
//! };
//! use caliqec_code::Coord;
//!
//! let mut patch = DeformedPatch::new(Lattice::Square, 5, 5);
//! assert_eq!(code_distance(&patch.layout().unwrap()).min(), 5);
//!
//! // Isolate the drifted data qubit at the patch center for calibration.
//! patch.apply(DeformInstruction::DataQRm { qubit: Coord::new(8, 8) }).unwrap();
//! let hurt = code_distance(&patch.layout().unwrap()).min();
//! assert!(hurt < 5);
//!
//! // Dynamic code enlargement restores the protection level.
//! patch.apply(DeformInstruction::PatchQAd { side: Side::Right }).unwrap();
//! patch.apply(DeformInstruction::PatchQAd { side: Side::Bottom }).unwrap();
//! patch.apply(DeformInstruction::PatchQAd { side: Side::Right }).unwrap();
//! patch.apply(DeformInstruction::PatchQAd { side: Side::Bottom }).unwrap();
//! assert!(code_distance(&patch.layout().unwrap()).min() >= 5);
//!
//! // After calibration, reintegrate the qubit.
//! patch.reintegrate_all();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod deform;
mod distance;
mod draw;
mod heavyhex;
mod layout;
mod memory;
mod square;
mod surgery;

pub use deform::{
    apply_interior, check_gauge_commutation, DeformError, DeformInstruction, DeformedPatch,
    Lattice, Side,
};
pub use distance::{code_distance, CodeDistance};
pub use draw::draw_layout;
pub use heavyhex::{bridge_role, heavy_hex_patch, BridgeRole};
pub use layout::{
    BoundaryInfo, ChainPart, Coord, LayoutError, PatchLayout, Readout, StabKind, Stabilizer,
};
pub use memory::{drift_rate_table, memory_circuit, MemoryBasis, MemoryCircuit, NoiseModel};
pub use square::{data_coord, face_ancilla, face_kind, rotated_patch, PITCH};
pub use surgery::{zz_surgery_circuit, SurgeryCircuit, ZzSurgery};
