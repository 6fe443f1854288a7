//! # caliqec-stab — stabilizer circuit simulation substrate
//!
//! A from-scratch reimplementation of the stabilizer-simulation tooling the
//! CaliQEC paper builds on (the paper uses Stim). It provides:
//!
//! - [`Pauli`] / [`SparsePauli`]: Pauli algebra.
//! - [`Tableau`]: an exact CHP-style (Aaronson–Gottesman) stabilizer
//!   simulator, the ground-truth reference.
//! - [`Circuit`]: a Clifford circuit IR with Pauli noise channels, detectors,
//!   and logical observables.
//! - [`FrameSampler`]: a batched Pauli-frame Monte-Carlo sampler (64 shots
//!   per word) for high-throughput logical-error-rate estimation.
//! - [`SparseBatch`]: word-sparse, allocation-free extraction of per-shot
//!   defect lists and observable masks from a sampled batch — the
//!   decoder-facing hot path of the LER engine.
//! - [`CompiledCircuit`] / [`Frames`]: the one-time-compiled form of a
//!   circuit backing `FrameSampler`, shareable by `&` across threads with
//!   one cheap `Frames` scratch per worker — the substrate of the parallel
//!   LER engine in `caliqec-match`.
//! - [`extract_dem`] / [`DetectorErrorModel`]: reduction of a noisy circuit
//!   to its error mechanisms, the decoder-facing interface.
//!
//! # Example
//!
//! ```
//! use caliqec_stab::{Basis, Circuit, FrameSampler, Noise1, extract_dem};
//! use rand::SeedableRng;
//!
//! // A tiny two-qubit parity check with bit-flip noise.
//! let mut c = Circuit::new(3);
//! c.reset(Basis::Z, &[0, 1, 2]);
//! c.noise1(Noise1::XError, 0.01, &[0, 1]);
//! c.cx(0, 2);
//! c.cx(1, 2);
//! let m = c.measure(2, Basis::Z, 0.0);
//! c.detector(&[m]);
//!
//! // Fast sampling:
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let events = FrameSampler::new(&c).sample_batch(&mut rng);
//! assert_eq!(events.detectors.len(), 1);
//!
//! // Decoder-facing error model:
//! let dem = extract_dem(&c);
//! assert_eq!(dem.mechanisms.len(), 1); // both X errors flip the same check
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod circuit;
mod compiled;
mod dem;
mod error;
mod frame;
mod pauli;
mod rates;
mod sim;
mod stream;
mod tableau;
mod text;

pub use circuit::{Basis, Circuit, DetIdx, Gate1, Gate2, MeasIdx, Noise1, Noise2, Op};
pub use compiled::{
    chunk_seed, resolve_threads, CompiledCircuit, FrameState, Frames, WideFrameState, LANES,
};
pub use dem::{extract_dem, DetectorErrorModel, ErrorMechanism, ErrorSource, SourceContribution};
pub use error::CircuitError;
pub use frame::{
    for_each_set_bit, BatchEvents, FrameSampler, InterpretingSampler, SparseBatch, BATCH,
};
pub use pauli::{Pauli, Qubit, SparsePauli};
pub use rates::RateTable;
pub use sim::{
    check_deterministic_detectors, noiseless_shot, simulate_shot, NondeterministicDetector,
    ShotResult,
};
pub use stream::{round_bounds, RoundStream, WindowBuilder, WindowError};
pub use tableau::Tableau;
pub use text::{from_stim_text, to_stim_text, ParseCircuitError};
