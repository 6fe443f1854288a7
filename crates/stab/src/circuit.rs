//! Clifford circuit intermediate representation with noise annotations,
//! detectors, and logical observables.
//!
//! The IR mirrors the subset of Stim's language that surface-code memory
//! experiments need: Clifford gates, basis measurements/resets, Pauli noise
//! channels, and `DETECTOR` / `OBSERVABLE` annotations defined over absolute
//! measurement-record indices.

use crate::error::{check_probability, check_qubit_index, CircuitError};
use crate::pauli::Qubit;
use std::fmt;

/// A single-qubit Clifford gate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Gate1 {
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate.
    S,
    /// Inverse phase gate.
    SDag,
}

/// A two-qubit Clifford gate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Gate2 {
    /// Controlled-X (first qubit is the control).
    Cx,
    /// Controlled-Z (symmetric).
    Cz,
    /// Qubit exchange.
    Swap,
}

/// A measurement / reset basis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Basis {
    /// Computational basis.
    Z,
    /// Hadamard basis.
    X,
}

/// A single-qubit Pauli noise channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Noise1 {
    /// Uniform over {X, Y, Z}, total probability `p`.
    Depolarize1,
    /// X with probability `p`.
    XError,
    /// Y with probability `p`.
    YError,
    /// Z with probability `p`.
    ZError,
}

/// A two-qubit Pauli noise channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Noise2 {
    /// Uniform over the 15 non-identity two-qubit Paulis, total probability `p`.
    Depolarize2,
}

/// Absolute index of a measurement record within a circuit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MeasIdx(pub u32);

/// Absolute index of a detector within a circuit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DetIdx(pub u32);

/// One instruction of the circuit IR.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A single-qubit gate applied to each listed qubit.
    G1(Gate1, Vec<Qubit>),
    /// A two-qubit gate applied to each listed pair.
    G2(Gate2, Vec<(Qubit, Qubit)>),
    /// A basis measurement of one qubit; the classical outcome is flipped
    /// with probability `flip`.
    Measure {
        /// Measurement basis.
        basis: Basis,
        /// Measured qubit.
        qubit: Qubit,
        /// Classical readout flip probability.
        flip: f64,
    },
    /// A basis reset of the listed qubits.
    Reset(Basis, Vec<Qubit>),
    /// A single-qubit noise channel applied independently to each qubit.
    Noise1(Noise1, f64, Vec<Qubit>),
    /// A two-qubit noise channel applied independently to each pair.
    Noise2(Noise2, f64, Vec<(Qubit, Qubit)>),
    /// A detector: the XOR of the listed measurement records, which must be
    /// deterministic (0) in the noiseless circuit.
    Detector(Vec<MeasIdx>),
    /// Accumulates the XOR of the listed measurement records into a logical
    /// observable.
    Observable(usize, Vec<MeasIdx>),
}

/// A Clifford circuit with noise, detectors, and observables.
///
/// Build circuits through the fluent methods; measurement indices are handed
/// back so detectors/observables can reference them.
///
/// # Examples
///
/// ```
/// use caliqec_stab::{Basis, Circuit};
///
/// let mut c = Circuit::new(2);
/// c.h(0);
/// c.cx(0, 1);
/// let m0 = c.measure(0, Basis::Z, 0.0);
/// let m1 = c.measure(1, Basis::Z, 0.0);
/// c.detector(&[m0, m1]); // Bell-pair parity is deterministic
/// assert_eq!(c.num_measurements(), 2);
/// assert_eq!(c.num_detectors(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Op>,
    num_measurements: u32,
    num_detectors: u32,
    num_observables: usize,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Circuit {
        Circuit {
            num_qubits,
            ..Circuit::default()
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of measurement records produced by one execution.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements as usize
    }

    /// Number of detectors.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors as usize
    }

    /// Number of logical observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// The instruction sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn check_qubit(&self, q: Qubit) {
        assert!(
            (q as usize) < self.num_qubits,
            "qubit {q} out of range (circuit has {} qubits)",
            self.num_qubits
        );
    }

    /// Appends a single-qubit gate on `q`.
    pub fn g1(&mut self, gate: Gate1, q: Qubit) -> &mut Self {
        self.check_qubit(q);
        self.ops.push(Op::G1(gate, vec![q]));
        self
    }

    /// Appends a single-qubit gate on every listed qubit.
    pub fn g1_all(&mut self, gate: Gate1, qs: &[Qubit]) -> &mut Self {
        for &q in qs {
            self.check_qubit(q);
        }
        if !qs.is_empty() {
            self.ops.push(Op::G1(gate, qs.to_vec()));
        }
        self
    }

    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: Qubit) -> &mut Self {
        self.g1(Gate1::H, q)
    }

    /// Appends a two-qubit gate on the pair `(a, b)`.
    pub fn g2(&mut self, gate: Gate2, a: Qubit, b: Qubit) -> &mut Self {
        self.check_qubit(a);
        self.check_qubit(b);
        assert_ne!(a, b, "two-qubit gate targets must differ");
        self.ops.push(Op::G2(gate, vec![(a, b)]));
        self
    }

    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: Qubit, t: Qubit) -> &mut Self {
        self.g2(Gate2::Cx, c, t)
    }

    /// Appends a CZ between `a` and `b`.
    pub fn cz(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.g2(Gate2::Cz, a, b)
    }

    /// Appends a measurement, returning its record index.
    pub fn measure(&mut self, qubit: Qubit, basis: Basis, flip: f64) -> MeasIdx {
        self.check_qubit(qubit);
        assert!((0.0..=1.0).contains(&flip), "flip probability out of range");
        let idx = MeasIdx(self.num_measurements);
        self.num_measurements += 1;
        self.ops.push(Op::Measure { basis, qubit, flip });
        idx
    }

    /// Appends a basis reset of the listed qubits.
    pub fn reset(&mut self, basis: Basis, qs: &[Qubit]) -> &mut Self {
        for &q in qs {
            self.check_qubit(q);
        }
        if !qs.is_empty() {
            self.ops.push(Op::Reset(basis, qs.to_vec()));
        }
        self
    }

    /// Appends a single-qubit noise channel on the listed qubits.
    pub fn noise1(&mut self, kind: Noise1, p: f64, qs: &[Qubit]) -> &mut Self {
        for &q in qs {
            self.check_qubit(q);
        }
        assert!((0.0..=1.0).contains(&p), "noise probability out of range");
        if p > 0.0 && !qs.is_empty() {
            self.ops.push(Op::Noise1(kind, p, qs.to_vec()));
        }
        self
    }

    /// Appends a two-qubit noise channel on the listed pairs.
    pub fn noise2(&mut self, kind: Noise2, p: f64, pairs: &[(Qubit, Qubit)]) -> &mut Self {
        for &(a, b) in pairs {
            self.check_qubit(a);
            self.check_qubit(b);
            assert_ne!(a, b, "two-qubit noise targets must differ");
        }
        assert!((0.0..=1.0).contains(&p), "noise probability out of range");
        if p > 0.0 && !pairs.is_empty() {
            self.ops.push(Op::Noise2(kind, p, pairs.to_vec()));
        }
        self
    }

    /// Appends a detector over the listed measurement records.
    ///
    /// Returns the detector index.
    ///
    /// # Panics
    ///
    /// Panics if any record index refers to a measurement that has not yet
    /// been appended.
    pub fn detector(&mut self, meas: &[MeasIdx]) -> DetIdx {
        for m in meas {
            assert!(
                m.0 < self.num_measurements,
                "detector references future measurement {m:?}"
            );
        }
        let idx = DetIdx(self.num_detectors);
        self.num_detectors += 1;
        self.ops.push(Op::Detector(meas.to_vec()));
        idx
    }

    /// Accumulates the listed measurement records into logical observable
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 64 or more (observables are 64-bit masks), or
    /// if any record index refers to a measurement that has not yet been
    /// appended.
    pub fn observable(&mut self, index: usize, meas: &[MeasIdx]) -> &mut Self {
        assert!(
            index < 64,
            "observable index {index} exceeds the 64-bit observable mask"
        );
        for m in meas {
            assert!(
                m.0 < self.num_measurements,
                "observable references future measurement {m:?}"
            );
        }
        self.num_observables = self.num_observables.max(index + 1);
        self.ops.push(Op::Observable(index, meas.to_vec()));
        self
    }

    /// Returns, for every detector in order, the measurement records it XORs.
    pub fn detector_definitions(&self) -> Vec<Vec<MeasIdx>> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Detector(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    /// Returns, for every observable index, the measurement records it XORs.
    pub fn observable_definitions(&self) -> Vec<Vec<MeasIdx>> {
        let mut defs = vec![Vec::new(); self.num_observables];
        for op in &self.ops {
            if let Op::Observable(i, m) = op {
                defs[*i].extend(m.iter().copied());
            }
        }
        defs
    }

    /// Builds a circuit directly from an instruction list without invariant
    /// checks, recomputing the measurement/detector/observable counters by
    /// scanning `ops`.
    ///
    /// Unlike the fluent builder methods this performs **no** validation, so
    /// it can represent malformed programs — the intended pairing is
    /// [`Circuit::validate`], which reports every defect as a typed
    /// [`CircuitError`] instead of panicking. Fault-injection tests and
    /// deserialization paths construct circuits this way.
    pub fn from_ops(num_qubits: usize, ops: Vec<Op>) -> Circuit {
        let mut num_measurements = 0u32;
        let mut num_detectors = 0u32;
        let mut num_observables = 0usize;
        for op in &ops {
            match op {
                Op::Measure { .. } => num_measurements += 1,
                Op::Detector(_) => num_detectors += 1,
                Op::Observable(i, _) => num_observables = num_observables.max(i + 1),
                _ => {}
            }
        }
        Circuit {
            num_qubits,
            ops,
            num_measurements,
            num_detectors,
            num_observables,
        }
    }

    /// Re-checks every invariant the samplers rely on, returning the first
    /// defect as a typed [`CircuitError`].
    ///
    /// The fluent builder enforces these invariants with asserts at
    /// construction time, but circuits from [`Circuit::from_ops`] or external
    /// text may violate them; validating up front keeps malformed programs
    /// from panicking deep inside the sampling hot path.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.num_observables > 64 {
            return Err(CircuitError::TooManyObservables {
                num_observables: self.num_observables,
            });
        }
        let mut seen_meas = 0u32;
        for op in &self.ops {
            match op {
                Op::G1(_, qs) => {
                    for &q in qs {
                        check_qubit_index(q, self.num_qubits)?;
                    }
                }
                Op::G2(_, pairs) => {
                    for &(a, b) in pairs {
                        check_qubit_index(a, self.num_qubits)?;
                        check_qubit_index(b, self.num_qubits)?;
                        if a == b {
                            return Err(CircuitError::DuplicatePairTarget { qubit: a });
                        }
                    }
                }
                Op::Measure { qubit, flip, .. } => {
                    check_qubit_index(*qubit, self.num_qubits)?;
                    check_probability(*flip)?;
                    seen_meas += 1;
                }
                Op::Reset(_, qs) => {
                    for &q in qs {
                        check_qubit_index(q, self.num_qubits)?;
                    }
                }
                Op::Noise1(_, p, qs) => {
                    check_probability(*p)?;
                    for &q in qs {
                        check_qubit_index(q, self.num_qubits)?;
                    }
                }
                Op::Noise2(_, p, pairs) => {
                    check_probability(*p)?;
                    for &(a, b) in pairs {
                        check_qubit_index(a, self.num_qubits)?;
                        check_qubit_index(b, self.num_qubits)?;
                        if a == b {
                            return Err(CircuitError::DuplicatePairTarget { qubit: a });
                        }
                    }
                }
                Op::Detector(meas) | Op::Observable(_, meas) => {
                    for m in meas {
                        if m.0 >= seen_meas {
                            return Err(CircuitError::RecordOutOfRange {
                                record: m.0,
                                num_measurements: seen_meas as usize,
                            });
                        }
                    }
                }
            }
        }
        if seen_meas != self.num_measurements {
            return Err(CircuitError::TableInconsistent {
                detail: format!(
                    "circuit records {} measurements but ops contain {}",
                    self.num_measurements, seen_meas
                ),
            });
        }
        Ok(())
    }

    /// Total count of elementary noise-channel applications (an upper bound on
    /// distinct error mechanisms before signature merging).
    pub fn num_noise_sites(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Noise1(_, _, qs) => qs.len(),
                Op::Noise2(_, _, pairs) => pairs.len(),
                Op::Measure { flip, .. } if *flip > 0.0 => 1,
                _ => 0,
            })
            .sum()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# circuit: {} qubits, {} measurements, {} detectors, {} observables",
            self.num_qubits, self.num_measurements, self.num_detectors, self.num_observables
        )?;
        let mut next_meas = 0u32;
        for op in &self.ops {
            match op {
                Op::G1(g, qs) => {
                    write!(f, "{g:?}")?;
                    for q in qs {
                        write!(f, " {q}")?;
                    }
                    writeln!(f)?;
                }
                Op::G2(g, pairs) => {
                    write!(f, "{g:?}")?;
                    for (a, b) in pairs {
                        write!(f, " {a} {b}")?;
                    }
                    writeln!(f)?;
                }
                Op::Measure { basis, qubit, flip } => {
                    writeln!(f, "M{basis:?}({flip}) {qubit}  # rec {next_meas}")?;
                    next_meas += 1;
                }
                Op::Reset(basis, qs) => {
                    write!(f, "R{basis:?}")?;
                    for q in qs {
                        write!(f, " {q}")?;
                    }
                    writeln!(f)?;
                }
                Op::Noise1(kind, p, qs) => {
                    write!(f, "{kind:?}({p})")?;
                    for q in qs {
                        write!(f, " {q}")?;
                    }
                    writeln!(f)?;
                }
                Op::Noise2(kind, p, pairs) => {
                    write!(f, "{kind:?}({p})")?;
                    for (a, b) in pairs {
                        write!(f, " {a} {b}")?;
                    }
                    writeln!(f)?;
                }
                Op::Detector(meas) => {
                    write!(f, "DETECTOR")?;
                    for m in meas {
                        write!(f, " rec{}", m.0)?;
                    }
                    writeln!(f)?;
                }
                Op::Observable(i, meas) => {
                    write!(f, "OBSERVABLE({i})")?;
                    for m in meas {
                        write!(f, " rec{}", m.0)?;
                    }
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_indices_are_sequential() {
        let mut c = Circuit::new(2);
        let a = c.measure(0, Basis::Z, 0.0);
        let b = c.measure(1, Basis::Z, 0.0);
        assert_eq!(a, MeasIdx(0));
        assert_eq!(b, MeasIdx(1));
        assert_eq!(c.num_measurements(), 2);
    }

    #[test]
    #[should_panic(expected = "future measurement")]
    fn detector_cannot_reference_future() {
        let mut c = Circuit::new(1);
        c.detector(&[MeasIdx(0)]);
    }

    #[test]
    #[should_panic(expected = "64-bit observable mask")]
    fn observable_index_checked() {
        let mut c = Circuit::new(1);
        let m = c.measure(0, Basis::Z, 0.0);
        c.observable(64, &[m]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn qubit_bounds_checked() {
        let mut c = Circuit::new(1);
        c.h(1);
    }

    #[test]
    fn zero_probability_noise_is_elided() {
        let mut c = Circuit::new(1);
        c.noise1(Noise1::XError, 0.0, &[0]);
        assert!(c.ops().is_empty());
    }

    #[test]
    fn observable_definitions_accumulate() {
        let mut c = Circuit::new(2);
        let a = c.measure(0, Basis::Z, 0.0);
        c.observable(0, &[a]);
        let b = c.measure(1, Basis::Z, 0.0);
        c.observable(0, &[b]);
        assert_eq!(c.observable_definitions(), vec![vec![a, b]]);
    }

    #[test]
    fn noise_site_count() {
        let mut c = Circuit::new(3);
        c.noise1(Noise1::Depolarize1, 0.01, &[0, 1, 2]);
        c.noise2(Noise2::Depolarize2, 0.01, &[(0, 1)]);
        c.measure(0, Basis::Z, 0.01);
        assert_eq!(c.num_noise_sites(), 5);
    }

    #[test]
    fn from_ops_recomputes_counters() {
        let ops = vec![
            Op::Measure {
                basis: Basis::Z,
                qubit: 0,
                flip: 0.0,
            },
            Op::Detector(vec![MeasIdx(0)]),
            Op::Observable(2, vec![MeasIdx(0)]),
        ];
        let c = Circuit::from_ops(1, ops);
        assert_eq!(c.num_measurements(), 1);
        assert_eq!(c.num_detectors(), 1);
        assert_eq!(c.num_observables(), 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_catches_malformed_ops() {
        let c = Circuit::from_ops(1, vec![Op::G1(Gate1::H, vec![5])]);
        assert!(matches!(
            c.validate(),
            Err(crate::CircuitError::QubitOutOfRange { qubit: 5, .. })
        ));

        let c = Circuit::from_ops(2, vec![Op::Noise1(Noise1::XError, 1.5, vec![0])]);
        assert!(matches!(
            c.validate(),
            Err(crate::CircuitError::BadProbability { .. })
        ));

        let c = Circuit::from_ops(2, vec![Op::Noise1(Noise1::XError, f64::NAN, vec![0])]);
        assert!(c.validate().is_err());

        let c = Circuit::from_ops(2, vec![Op::G2(Gate2::Cx, vec![(1, 1)])]);
        assert!(matches!(
            c.validate(),
            Err(crate::CircuitError::DuplicatePairTarget { qubit: 1 })
        ));

        let c = Circuit::from_ops(1, vec![Op::Detector(vec![MeasIdx(3)])]);
        assert!(matches!(
            c.validate(),
            Err(crate::CircuitError::RecordOutOfRange { record: 3, .. })
        ));
    }

    #[test]
    fn validate_accepts_builder_output() {
        let mut c = Circuit::new(3);
        c.reset(Basis::Z, &[0, 1, 2]);
        c.noise1(Noise1::XError, 0.01, &[0, 1]);
        c.cx(0, 2);
        let m = c.measure(2, Basis::Z, 0.0);
        c.detector(&[m]);
        c.observable(0, &[m]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn display_contains_ops() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let m = c.measure(1, Basis::Z, 0.0);
        c.detector(&[m]);
        let s = c.to_string();
        assert!(s.contains("H 0"));
        assert!(s.contains("Cx 0 1"));
        assert!(s.contains("DETECTOR rec0"));
    }
}
