//! Detector error model (DEM) extraction.
//!
//! Every elementary error mechanism in a noisy Clifford circuit — each Pauli
//! component of each noise channel, and each measurement-record flip —
//! flips some set of detectors and logical observables: its signature.
//! Mechanisms with identical signatures are merged (probabilities combine
//! under XOR-convolution). The result is the input to the decoders in
//! `caliqec-match`.
//!
//! Signatures come from one backward pass, as in Stim: walking the circuit
//! in reverse while tracking which detectors and observables an X or a Z
//! error on each qubit would flip, so every noise site reads its signature
//! off the current state instead of propagating a frame through the rest
//! of the circuit.

use crate::circuit::{Basis, Circuit, DetIdx, Gate1, Gate2, Noise1, Noise2, Op};
use crate::pauli::{Pauli, Qubit};
use crate::rates::RateTable;
use crate::sim::two_qubit_pauli;
use std::collections::HashMap;

/// The physical origin of an error-mechanism component: which noise channel
/// acting on which qubit(s) produced it.
///
/// This is the provenance key of the calibration loop. A characterization pass
/// measures per-gate rates keyed by `ErrorSource`; a [`RateTable`] carries the
/// updated rates; [`DetectorErrorModel::reweighted`] (and the incremental
/// `MatchingGraph::reweight` in `caliqec-match`) recompute merged
/// probabilities without re-extracting the DEM.
///
/// Identity is the *gate*, not the circuit site: every instance of the same
/// channel on the same qubit(s) shares one source and therefore one rate.
/// Note that gate-attached and idling depolarization on the same qubit
/// collapse to one `Noise1(Depolarize1, q)` source.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ErrorSource {
    /// A single-qubit noise channel on a qubit.
    Noise1(Noise1, Qubit),
    /// A two-qubit noise channel on an ordered qubit pair.
    Noise2(Noise2, Qubit, Qubit),
    /// A classical readout flip of a measurement on a qubit.
    MeasureFlip(Qubit),
}

/// One recorded contribution of a physical source to a merged mechanism.
///
/// `base` is the component probability exactly as computed at extraction time
/// (e.g. `p / 3.0` for one leg of `Depolarize1`); `divisor` maps an updated
/// per-source rate to the component probability as `rate / divisor`. Storing
/// the divisor — rather than a precomputed reciprocal — makes the reweighted
/// fold bit-identical to extraction whenever the updated rate equals the
/// original one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourceContribution {
    /// Index into [`DetectorErrorModel::sources`].
    pub source: u32,
    /// Component probability recorded at extraction time.
    pub base: f64,
    /// Rate-to-component divisor: 1.0, 3.0 (`Depolarize1`) or 15.0
    /// (`Depolarize2`).
    pub divisor: f64,
}

/// One merged error mechanism: a probability and the detectors/observables it
/// flips.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorMechanism {
    /// Probability that this mechanism fires (after merging same-signature
    /// mechanisms under XOR-convolution).
    pub probability: f64,
    /// Sorted detector indices flipped by this mechanism.
    pub detectors: Vec<DetIdx>,
    /// Bitmask of flipped logical observables.
    pub observables: u64,
    /// Contributing physical sources in the order they were XOR-folded into
    /// `probability` at extraction time. Zero-probability components are not
    /// recorded (folding 0 is an exact no-op), so a mechanism with an empty
    /// list has probability 0 and is frozen under reweighting.
    pub sources: Vec<SourceContribution>,
}

/// A detector error model: the error mechanisms of a circuit reduced to their
/// detector/observable signatures.
#[derive(Clone, Debug, Default)]
pub struct DetectorErrorModel {
    /// Number of detectors in the originating circuit.
    pub num_detectors: usize,
    /// Number of observables in the originating circuit.
    pub num_observables: usize,
    /// Merged error mechanisms, sorted by signature.
    pub mechanisms: Vec<ErrorMechanism>,
    /// Interned physical sources referenced by
    /// [`SourceContribution::source`].
    pub sources: Vec<ErrorSource>,
}

impl DetectorErrorModel {
    /// Mechanisms that flip at most `k` detectors.
    pub fn mechanisms_with_at_most(&self, k: usize) -> impl Iterator<Item = &ErrorMechanism> {
        self.mechanisms
            .iter()
            .filter(move |m| m.detectors.len() <= k)
    }

    /// Number of mechanisms flipping more than two detectors (hyperedges that
    /// matching-based decoders must decompose).
    pub fn num_hyperedges(&self) -> usize {
        self.mechanisms
            .iter()
            .filter(|m| m.detectors.len() > 2)
            .count()
    }

    /// Returns a copy with every mechanism probability recomputed from
    /// `rates`, replaying the extraction-time XOR fold over the recorded
    /// [`SourceContribution`]s.
    ///
    /// Sources absent from `rates` (and every source, under
    /// [`RateTable::identity`]) keep their recorded `base` component, which
    /// makes the identity reweight bit-identical to the original model.
    /// Zero-probability mechanisms have no recorded contributions and are
    /// frozen, so the mechanism set — and hence any graph topology derived
    /// from it — is stable under every rate table.
    pub fn reweighted(&self, rates: &RateTable) -> DetectorErrorModel {
        let mut out = self.clone();
        for mech in &mut out.mechanisms {
            if mech.sources.is_empty() {
                continue;
            }
            let mut acc = 0.0f64;
            for c in &mech.sources {
                let p = match rates.get(&self.sources[c.source as usize]) {
                    Some(rate) => rate / c.divisor,
                    None => c.base,
                };
                acc = acc * (1.0 - p) + p * (1.0 - acc);
            }
            mech.probability = acc;
        }
        out
    }
}

/// What one Pauli error flips: the detectors it flips, sorted and
/// parity-reduced, and the mask of logical observables it flips.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
struct Sensitivity {
    detectors: Vec<DetIdx>,
    observables: u64,
}

impl Sensitivity {
    fn clear(&mut self) {
        self.detectors.clear();
        self.observables = 0;
    }

    fn is_empty(&self) -> bool {
        self.detectors.is_empty() && self.observables == 0
    }

    /// `self ^= other`, merging through `scratch` so no buffer is
    /// reallocated once the lists reach their working size.
    fn xor_assign(&mut self, other: &Sensitivity, scratch: &mut Vec<DetIdx>) {
        xor_sorted(&self.detectors, &other.detectors, scratch);
        std::mem::swap(&mut self.detectors, scratch);
        self.observables ^= other.observables;
    }
}

/// Writes the symmetric difference of two sorted detector lists to `out`.
fn xor_sorted(a: &[DetIdx], b: &[DetIdx], out: &mut Vec<DetIdx>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// `S(m)` for every measurement record `m`: the detectors that contain the
/// record an odd number of times, and the observables likewise. A record
/// no measurement produces (only possible in a malformed
/// [`Circuit::from_ops`] program) can never flip and is skipped.
fn record_sensitivities(circuit: &Circuit) -> Vec<Sensitivity> {
    let mut records = vec![Sensitivity::default(); circuit.num_measurements()];
    let mut det = 0u32;
    for op in circuit.ops() {
        match op {
            Op::Detector(meas) => {
                for m in meas {
                    if let Some(r) = records.get_mut(m.0 as usize) {
                        // Detectors arrive in index order, so each list stays
                        // sorted, and a record listed twice in one detector
                        // toggles it back out.
                        if r.detectors.last() == Some(&DetIdx(det)) {
                            r.detectors.pop();
                        } else {
                            r.detectors.push(DetIdx(det));
                        }
                    }
                }
                det += 1;
            }
            Op::Observable(i, meas) => {
                for m in meas {
                    if let Some(r) = records.get_mut(m.0 as usize) {
                        r.observables ^= 1u64 << i;
                    }
                }
            }
            _ => {}
        }
    }
    records
}

/// Per-qubit sensitivities at one point of the backward pass: entry `2q`
/// is what an X error on qubit `q` at that point would flip, entry
/// `2q + 1` what a Z error would.
struct Sensitivities {
    entries: Vec<Sensitivity>,
    scratch: Vec<DetIdx>,
}

impl Sensitivities {
    fn new(num_qubits: usize) -> Sensitivities {
        Sensitivities {
            entries: vec![Sensitivity::default(); 2 * num_qubits],
            scratch: Vec::new(),
        }
    }

    fn x(q: Qubit) -> usize {
        2 * q as usize
    }

    fn z(q: Qubit) -> usize {
        2 * q as usize + 1
    }

    /// `entries[dst] ^= entries[src]`.
    fn xor(&mut self, dst: usize, src: usize) {
        xor_sorted(
            &self.entries[dst].detectors,
            &self.entries[src].detectors,
            &mut self.scratch,
        );
        let observables = self.entries[src].observables;
        let e = &mut self.entries[dst];
        std::mem::swap(&mut e.detectors, &mut self.scratch);
        e.observables ^= observables;
    }

    /// Steps back over one op, turning the state after it into the state
    /// before it: the transpose of the op's forward frame update. `records`
    /// holds `S(m)` per record; `next_meas` counts the records produced
    /// before the current point, so stepping back over a measurement
    /// decrements it to that measurement's record.
    fn step_back(&mut self, op: &Op, records: &[Sensitivity], next_meas: &mut usize) {
        let (x, z) = (Self::x, Self::z);
        match op {
            Op::G1(g, qs) => {
                for &q in qs.iter().rev() {
                    match g {
                        Gate1::X | Gate1::Y | Gate1::Z => {}
                        Gate1::H => self.entries.swap(x(q), z(q)),
                        Gate1::S | Gate1::SDag => self.xor(x(q), z(q)),
                    }
                }
            }
            Op::G2(g, pairs) => {
                // Pairs apply in order going forward, so in reverse here.
                for &(a, b) in pairs.iter().rev() {
                    match g {
                        Gate2::Cx => {
                            self.xor(x(a), x(b));
                            self.xor(z(b), z(a));
                        }
                        Gate2::Cz => {
                            self.xor(x(a), z(b));
                            self.xor(x(b), z(a));
                        }
                        Gate2::Swap => {
                            self.entries.swap(x(a), x(b));
                            self.entries.swap(z(a), z(b));
                        }
                    }
                }
            }
            Op::Measure { basis, qubit, .. } => {
                *next_meas -= 1;
                // The error that anticommutes with the measurement flips its
                // record and survives; the other is absorbed by the collapse.
                let (flips, absorbed) = match basis {
                    Basis::Z => (x(*qubit), z(*qubit)),
                    Basis::X => (z(*qubit), x(*qubit)),
                };
                self.entries[flips].xor_assign(&records[*next_meas], &mut self.scratch);
                self.entries[absorbed].clear();
            }
            Op::Reset(_, qs) => {
                for &q in qs {
                    self.entries[x(q)].clear();
                    self.entries[z(q)].clear();
                }
            }
            // Noise, detectors and observables leave the frame unchanged.
            Op::Noise1(..) | Op::Noise2(..) | Op::Detector(..) | Op::Observable(..) => {}
        }
    }

    /// Writes the signature of the Pauli product `paulis` at the current
    /// point to `out`: the XOR of its X and Z generators' sensitivities.
    fn signature(&mut self, paulis: &[(Qubit, Pauli)], out: &mut Sensitivity) {
        out.clear();
        for &(q, p) in paulis {
            let (px, pz) = p.xz();
            for (on, entry) in [(px, Self::x(q)), (pz, Self::z(q))] {
                if on {
                    out.xor_assign(&self.entries[entry], &mut self.scratch);
                }
            }
        }
    }
}

/// The Pauli components of a single-qubit channel in extraction order, and
/// the divisor mapping the channel's rate to each component's probability.
fn noise1_components(kind: Noise1) -> (&'static [Pauli], f64) {
    match kind {
        Noise1::Depolarize1 => (&Pauli::NON_IDENTITY, 3.0),
        Noise1::XError => (&[Pauli::X], 1.0),
        Noise1::YError => (&[Pauli::Y], 1.0),
        Noise1::ZError => (&[Pauli::Z], 1.0),
    }
}

/// Components of `Depolarize2`: the 15 non-identity two-qubit Paulis.
const NOISE2_COMPONENTS: usize = 15;

/// Mechanism id of a component that flips nothing.
const INVISIBLE: u32 = u32::MAX;

/// Extracts the detector error model of `circuit`.
///
/// Two passes. The backward pass walks the ops in reverse, keeping for
/// every qubit the detectors and observables an X or a Z error at the
/// current point would flip; each noise component's signature is the XOR
/// of its generators' sensitivities there, interned to a mechanism id. The
/// forward pass then folds each component's probability into its
/// mechanism, records its provenance and interns its source, all in
/// circuit order. The model is bit-identical to propagating every
/// component forward through the rest of the circuit, but costs
/// O(ops × sensitivity size) instead of O(noise sites × ops).
///
/// # Examples
///
/// ```
/// use caliqec_stab::{Basis, Circuit, Noise1, extract_dem};
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 0.125, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
/// let dem = extract_dem(&c);
/// assert_eq!(dem.mechanisms.len(), 1);
/// assert!((dem.mechanisms[0].probability - 0.125).abs() < 1e-12);
/// ```
pub fn extract_dem(circuit: &Circuit) -> DetectorErrorModel {
    let ops = circuit.ops();
    let records = record_sensitivities(circuit);

    // Backward pass: one mechanism id per noise component, last component
    // of the circuit first.
    let mut state = Sensitivities::new(circuit.num_qubits());
    let mut signatures: HashMap<Sensitivity, u32> = HashMap::new();
    let mut component_ids: Vec<u32> = Vec::new();
    let mut signature = Sensitivity::default();
    let mut intern_signature = |signature: &Sensitivity| -> u32 {
        if signature.is_empty() {
            return INVISIBLE;
        }
        if let Some(&id) = signatures.get(signature) {
            return id;
        }
        let id = signatures.len() as u32;
        signatures.insert(signature.clone(), id);
        id
    };
    let mut next_meas = records.len();
    for op in ops.iter().rev() {
        match op {
            Op::Measure { flip, .. } if *flip > 0.0 => {
                component_ids.push(intern_signature(&records[next_meas - 1]));
            }
            Op::Noise1(kind, _, qs) => {
                let (components, _) = noise1_components(*kind);
                for &q in qs.iter().rev() {
                    for &p in components.iter().rev() {
                        state.signature(&[(q, p)], &mut signature);
                        component_ids.push(intern_signature(&signature));
                    }
                }
            }
            Op::Noise2(Noise2::Depolarize2, _, pairs) => {
                for &(a, b) in pairs.iter().rev() {
                    for comp in (0..NOISE2_COMPONENTS).rev() {
                        let (pa, pb) = two_qubit_pauli(comp);
                        state.signature(&[(a, pa), (b, pb)], &mut signature);
                        component_ids.push(intern_signature(&signature));
                    }
                }
            }
            _ => {}
        }
        state.step_back(op, &records, &mut next_meas);
    }

    // Forward pass: fold, record provenance and intern sources in circuit
    // order, consuming the ids from the back.
    let mut folds: Vec<(f64, Vec<SourceContribution>)> = vec![(0.0, Vec::new()); signatures.len()];
    let mut sources: Vec<ErrorSource> = Vec::new();
    let mut source_ids: HashMap<ErrorSource, u32> = HashMap::new();
    let mut intern = |s: ErrorSource| -> u32 {
        *source_ids.entry(s).or_insert_with(|| {
            sources.push(s);
            (sources.len() - 1) as u32
        })
    };
    let mut fold = |p: f64, source: u32, divisor: f64| {
        let id = component_ids
            .pop()
            .expect("both passes visit the same components");
        if id == INVISIBLE {
            return;
        }
        let (acc, contributions) = &mut folds[id as usize];
        *acc = *acc * (1.0 - p) + p * (1.0 - *acc);
        if p > 0.0 {
            contributions.push(SourceContribution {
                source,
                base: p,
                divisor,
            });
        }
    };
    for op in ops {
        match op {
            Op::Measure { qubit, flip, .. } if *flip > 0.0 => {
                fold(*flip, intern(ErrorSource::MeasureFlip(*qubit)), 1.0);
            }
            Op::Noise1(kind, p, qs) => {
                let (components, divisor) = noise1_components(*kind);
                let cp = *p / divisor;
                for &q in qs {
                    let src = intern(ErrorSource::Noise1(*kind, q));
                    for _ in components {
                        fold(cp, src, divisor);
                    }
                }
            }
            Op::Noise2(kind, p, pairs) => {
                let divisor = NOISE2_COMPONENTS as f64;
                let cp = *p / divisor;
                for &(a, b) in pairs {
                    let src = intern(ErrorSource::Noise2(*kind, a, b));
                    for _ in 0..NOISE2_COMPONENTS {
                        fold(cp, src, divisor);
                    }
                }
            }
            _ => {}
        }
    }

    let mut mechanisms: Vec<ErrorMechanism> = signatures
        .into_iter()
        .map(|(signature, id)| {
            let (probability, sources) = std::mem::take(&mut folds[id as usize]);
            ErrorMechanism {
                probability,
                detectors: signature.detectors,
                observables: signature.observables,
                sources,
            }
        })
        .collect();
    mechanisms.sort_by(|a, b| {
        a.detectors
            .cmp(&b.detectors)
            .then(a.observables.cmp(&b.observables))
    });
    DetectorErrorModel {
        num_detectors: circuit.num_detectors(),
        num_observables: circuit.num_observables(),
        mechanisms,
        sources,
    }
}

/// The forward walker `extract_dem` replaced, kept as its test oracle.
#[cfg(test)]
mod forward {
    use super::*;
    use crate::circuit::MeasIdx;

    /// A dense Pauli frame used during single-mechanism propagation.
    ///
    /// Indexed flat by qubit so the per-gate symplectic updates are array
    /// accesses rather than hash lookups — propagation visits every gate
    /// operand whether or not the frame touches it, so lookup cost dominates
    /// extraction. The frame is reused across mechanisms: `touched` remembers
    /// which entries may be non-identity, letting [`PropFrame::reset_to`]
    /// clear in O(support) instead of O(qubits).
    #[derive(Clone, Debug)]
    struct PropFrame {
        /// qubit -> (x, z)
        xz: Vec<(bool, bool)>,
        /// Qubits whose entry may have been set since the last reset (may
        /// contain duplicates).
        touched: Vec<Qubit>,
        /// Number of non-identity entries.
        live: usize,
    }

    impl PropFrame {
        fn new(num_qubits: usize) -> PropFrame {
            PropFrame {
                xz: vec![(false, false); num_qubits],
                touched: Vec::new(),
                live: 0,
            }
        }

        /// Clears the frame and seeds it with `p` on `qubit`.
        fn reset_to(&mut self, qubit: Qubit, p: Pauli) {
            for &q in &self.touched {
                self.xz[q as usize] = (false, false);
            }
            self.touched.clear();
            self.live = 0;
            self.mul(qubit, p);
        }

        fn mul(&mut self, qubit: Qubit, p: Pauli) {
            if p == Pauli::I {
                return;
            }
            let (px, pz) = p.xz();
            let (x, z) = self.xz(qubit);
            self.set(qubit, (x ^ px, z ^ pz));
        }

        #[inline]
        fn xz(&self, qubit: Qubit) -> (bool, bool) {
            self.xz[qubit as usize]
        }

        #[inline]
        fn set(&mut self, qubit: Qubit, xz: (bool, bool)) {
            let e = &mut self.xz[qubit as usize];
            if *e == xz {
                return;
            }
            if *e == (false, false) {
                self.touched.push(qubit);
                self.live += 1;
            } else if xz == (false, false) {
                self.live -= 1;
            }
            *e = xz;
        }

        fn clear(&mut self, qubit: Qubit) {
            self.set(qubit, (false, false));
        }

        #[inline]
        fn is_empty(&self) -> bool {
            self.live == 0
        }
    }

    /// Propagates `frame` through `ops[start..]`, where `meas_base` is the index
    /// of the next measurement record at `ops[start]`.
    fn propagate_from(
        frame: &mut PropFrame,
        ops: &[Op],
        start: usize,
        meas_base: u32,
        flipped: &mut Vec<MeasIdx>,
    ) {
        let mut next_meas = meas_base;
        for op in &ops[start..] {
            if frame.is_empty() {
                // Nothing downstream can repopulate an empty frame (noise ops
                // are transparent here), so no further measurement can flip.
                return;
            }
            match op {
                Op::G1(g, qs) => {
                    for &qb in qs {
                        let (x, z) = frame.xz(qb);
                        if !x && !z {
                            continue;
                        }
                        match g {
                            Gate1::X | Gate1::Y | Gate1::Z => {}
                            Gate1::H => frame.set(qb, (z, x)),
                            Gate1::S | Gate1::SDag => frame.set(qb, (x, z ^ x)),
                        }
                    }
                }
                Op::G2(g, pairs) => {
                    for &(a, b) in pairs {
                        let (xa, za) = frame.xz(a);
                        let (xb, zb) = frame.xz(b);
                        if !xa && !za && !xb && !zb {
                            continue;
                        }
                        match g {
                            Gate2::Cx => {
                                frame.set(a, (xa, za ^ zb));
                                frame.set(b, (xb ^ xa, zb));
                            }
                            Gate2::Cz => {
                                frame.set(a, (xa, za ^ xb));
                                frame.set(b, (xb, zb ^ xa));
                            }
                            Gate2::Swap => {
                                frame.set(a, (xb, zb));
                                frame.set(b, (xa, za));
                            }
                        }
                    }
                }
                Op::Measure { basis, qubit, .. } => {
                    let (x, z) = frame.xz(*qubit);
                    match basis {
                        Basis::Z => {
                            if x {
                                flipped.push(MeasIdx(next_meas));
                            }
                            // Z component is absorbed by the collapse.
                            frame.set(*qubit, (x, false));
                        }
                        Basis::X => {
                            if z {
                                flipped.push(MeasIdx(next_meas));
                            }
                            frame.set(*qubit, (false, z));
                        }
                    }
                    next_meas += 1;
                }
                Op::Reset(_, qs) => {
                    for &qb in qs {
                        frame.clear(qb);
                    }
                }
                // Noise, detectors and observables do not transform the frame.
                Op::Noise1(..) | Op::Noise2(..) | Op::Detector(..) | Op::Observable(..) => {}
            }
        }
    }

    /// The reference extraction: propagates each generator of each noise
    /// site forward through the rest of the circuit.
    pub(super) fn extract_dem(circuit: &Circuit) -> DetectorErrorModel {
        // Map each measurement record to the detectors / observables containing it.
        let mut meas_to_dets: HashMap<u32, Vec<DetIdx>> = HashMap::new();
        let mut meas_to_obs: HashMap<u32, u64> = HashMap::new();
        {
            let mut det = 0u32;
            for op in circuit.ops() {
                match op {
                    Op::Detector(meas) => {
                        for m in meas {
                            meas_to_dets.entry(m.0).or_default().push(DetIdx(det));
                        }
                        det += 1;
                    }
                    Op::Observable(i, meas) => {
                        for m in meas {
                            *meas_to_obs.entry(m.0).or_default() ^= 1u64 << i;
                        }
                    }
                    _ => {}
                }
            }
        }

        let ops = circuit.ops();
        type Signature = (Vec<DetIdx>, u64);
        let mut signatures: HashMap<Signature, (f64, Vec<SourceContribution>)> = HashMap::new();
        let mut flipped = Vec::new();

        // Interned provenance sources: one id per (channel, qubits) gate identity.
        let mut sources: Vec<ErrorSource> = Vec::new();
        let mut source_ids: HashMap<ErrorSource, u32> = HashMap::new();
        let mut intern = |s: ErrorSource| -> u32 {
            *source_ids.entry(s).or_insert_with(|| {
                sources.push(s);
                (sources.len() - 1) as u32
            })
        };

        let record =
            |flipped: &mut Vec<MeasIdx>,
             p: f64,
             source: u32,
             divisor: f64,
             signatures: &mut HashMap<Signature, (f64, Vec<SourceContribution>)>| {
                // Convert flipped measurements to a detector/observable signature.
                let mut det_count: HashMap<DetIdx, usize> = HashMap::new();
                let mut obs = 0u64;
                for m in flipped.iter() {
                    if let Some(ds) = meas_to_dets.get(&m.0) {
                        for &d in ds {
                            *det_count.entry(d).or_default() += 1;
                        }
                    }
                    if let Some(&o) = meas_to_obs.get(&m.0) {
                        obs ^= o;
                    }
                }
                let mut dets: Vec<DetIdx> = det_count
                    .into_iter()
                    .filter_map(|(d, c)| (c % 2 == 1).then_some(d))
                    .collect();
                dets.sort_unstable();
                flipped.clear();
                if dets.is_empty() && obs == 0 {
                    return; // invisible mechanism
                }
                let entry = signatures.entry((dets, obs)).or_insert((0.0, Vec::new()));
                entry.0 = entry.0 * (1.0 - p) + p * (1.0 - entry.0);
                if p > 0.0 {
                    entry.1.push(SourceContribution {
                        source,
                        base: p,
                        divisor,
                    });
                }
            };

        // One reusable frame, plus flip lists for the single-Pauli generators
        // of the current noise site. A k-qubit depolarizing channel has 4^k − 1
        // Pauli components, but propagation is linear over GF(2) — Clifford
        // conjugation, measurement collapse ((x, z) → (x, 0)) and reset are all
        // linear maps on the frame — so every component's flip set is the
        // parity-XOR of the flips of its 2k generators (X and Z on each qubit).
        // Propagating only the generators and composing turns 15 circuit walks
        // per Depolarize2 site into 4, and `record` already reduces repeated
        // measurement indices by parity, so concatenating generator flip lists
        // is exact — the output is bit-identical to walking every component.
        let mut frame = PropFrame::new(circuit.num_qubits());
        let mut gen: [Vec<MeasIdx>; 4] = Default::default();

        let mut next_meas = 0u32;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Measure { qubit, flip, .. } => {
                    if *flip > 0.0 {
                        let src = intern(ErrorSource::MeasureFlip(*qubit));
                        flipped.push(MeasIdx(next_meas));
                        record(&mut flipped, *flip, src, 1.0, &mut signatures);
                    }
                    next_meas += 1;
                }
                Op::Noise1(kind, p, qs) => match kind {
                    Noise1::XError | Noise1::YError | Noise1::ZError => {
                        let pauli = match kind {
                            Noise1::XError => Pauli::X,
                            Noise1::YError => Pauli::Y,
                            Noise1::ZError => Pauli::Z,
                            Noise1::Depolarize1 => unreachable!(),
                        };
                        for &q in qs {
                            let src = intern(ErrorSource::Noise1(*kind, q));
                            frame.reset_to(q, pauli);
                            propagate_from(&mut frame, ops, i + 1, next_meas, &mut flipped);
                            record(&mut flipped, *p, src, 1.0, &mut signatures);
                        }
                    }
                    Noise1::Depolarize1 => {
                        for &q in qs {
                            let src = intern(ErrorSource::Noise1(*kind, q));
                            for (g, pauli) in gen.iter_mut().zip([Pauli::X, Pauli::Z]) {
                                g.clear();
                                frame.reset_to(q, pauli);
                                propagate_from(&mut frame, ops, i + 1, next_meas, g);
                            }
                            let cp = *p / 3.0;
                            for comp in Pauli::NON_IDENTITY {
                                let (x, z) = comp.xz();
                                if x {
                                    flipped.extend_from_slice(&gen[0]);
                                }
                                if z {
                                    flipped.extend_from_slice(&gen[1]);
                                }
                                record(&mut flipped, cp, src, 3.0, &mut signatures);
                            }
                        }
                    }
                },
                Op::Noise2(kind, p, pairs) => match kind {
                    Noise2::Depolarize2 => {
                        for &(a, b) in pairs {
                            let src = intern(ErrorSource::Noise2(*kind, a, b));
                            for (g, (q, pauli)) in gen.iter_mut().zip([
                                (a, Pauli::X),
                                (a, Pauli::Z),
                                (b, Pauli::X),
                                (b, Pauli::Z),
                            ]) {
                                g.clear();
                                frame.reset_to(q, pauli);
                                propagate_from(&mut frame, ops, i + 1, next_meas, g);
                            }
                            for comp in 0..15 {
                                let (pa, pb) = two_qubit_pauli(comp);
                                let (xa, za) = pa.xz();
                                let (xb, zb) = pb.xz();
                                for (on, g) in [xa, za, xb, zb].into_iter().zip(gen.iter()) {
                                    if on {
                                        flipped.extend_from_slice(g);
                                    }
                                }
                                record(&mut flipped, *p / 15.0, src, 15.0, &mut signatures);
                            }
                        }
                    }
                },
                _ => {}
            }
        }

        let mut mechanisms: Vec<ErrorMechanism> = signatures
            .into_iter()
            .map(
                |((detectors, observables), (probability, sources))| ErrorMechanism {
                    probability,
                    detectors,
                    observables,
                    sources,
                },
            )
            .collect();
        mechanisms.sort_by(|a, b| {
            a.detectors
                .cmp(&b.detectors)
                .then(a.observables.cmp(&b.observables))
        });
        DetectorErrorModel {
            num_detectors: circuit.num_detectors(),
            num_observables: circuit.num_observables(),
            mechanisms,
            sources,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Basis, Circuit, MeasIdx, Noise1, Noise2};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::fmt::Debug;

    const GATES1: [Gate1; 6] = [
        Gate1::X,
        Gate1::Y,
        Gate1::Z,
        Gate1::H,
        Gate1::S,
        Gate1::SDag,
    ];
    const GATES2: [Gate2; 3] = [Gate2::Cx, Gate2::Cz, Gate2::Swap];
    const NOISE1: [Noise1; 4] = [
        Noise1::Depolarize1,
        Noise1::XError,
        Noise1::YError,
        Noise1::ZError,
    ];
    const BASES: [Basis; 2] = [Basis::Z, Basis::X];

    /// Asserts two models are equal bit for bit: mechanism order,
    /// signatures, probability bits, every contribution, and the sources.
    fn assert_bit_identical(got: &DetectorErrorModel, want: &DetectorErrorModel, label: &str) {
        assert_eq!(got.num_detectors, want.num_detectors, "{label}: detectors");
        assert_eq!(
            got.num_observables, want.num_observables,
            "{label}: observables"
        );
        assert_eq!(got.sources, want.sources, "{label}: interned sources");
        assert_eq!(
            got.mechanisms.len(),
            want.mechanisms.len(),
            "{label}: mechanisms"
        );
        for (k, (g, w)) in got.mechanisms.iter().zip(&want.mechanisms).enumerate() {
            assert_eq!(g.detectors, w.detectors, "{label}: mechanism {k} detectors");
            assert_eq!(
                g.observables, w.observables,
                "{label}: mechanism {k} observables"
            );
            assert_eq!(
                g.probability.to_bits(),
                w.probability.to_bits(),
                "{label}: mechanism {k} probability"
            );
            let bits = |m: &ErrorMechanism| -> Vec<(u32, u64, u64)> {
                m.sources
                    .iter()
                    .map(|c| (c.source, c.base.to_bits(), c.divisor.to_bits()))
                    .collect()
            };
            assert_eq!(bits(g), bits(w), "{label}: mechanism {k} contributions");
        }
    }

    /// A random valid circuit built with [`Circuit::from_ops`], which —
    /// unlike the builder and the Stim parser — can put several, possibly
    /// overlapping, pairs in one two-qubit op. Targets repeat, detectors
    /// may list a record twice, and some noise has probability 0.
    fn random_circuit(seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..7u32);
        let qubits = |rng: &mut StdRng| -> Vec<Qubit> {
            let k = rng.random_range(1..5usize);
            (0..k).map(|_| rng.random_range(0..n)).collect()
        };
        let pairs = |rng: &mut StdRng| -> Vec<(Qubit, Qubit)> {
            let k = rng.random_range(1..5usize);
            (0..k)
                .map(|_| {
                    let a = rng.random_range(0..n);
                    (a, (a + rng.random_range(1..n)) % n)
                })
                .collect()
        };
        let probability = |rng: &mut StdRng| -> f64 {
            match rng.random_range(0..4u32) {
                0 => 0.0,
                _ => rng.random_range(0.0..0.3),
            }
        };
        let records = |rng: &mut StdRng, num_meas: u32| -> Vec<MeasIdx> {
            let k = rng.random_range(0..5usize);
            (0..k)
                .map(|_| MeasIdx(rng.random_range(0..num_meas)))
                .collect()
        };
        let mut ops = Vec::new();
        let mut num_meas = 0u32;
        for _ in 0..rng.random_range(1..48usize) {
            let op = match rng.random_range(0..8u32) {
                0 => Op::G1(GATES1[rng.random_range(0..6usize)], qubits(&mut rng)),
                1 => Op::G2(GATES2[rng.random_range(0..3usize)], pairs(&mut rng)),
                2 => {
                    num_meas += 1;
                    Op::Measure {
                        basis: BASES[rng.random_range(0..2usize)],
                        qubit: rng.random_range(0..n),
                        flip: probability(&mut rng),
                    }
                }
                3 => Op::Reset(BASES[rng.random_range(0..2usize)], qubits(&mut rng)),
                4 => {
                    let kind = NOISE1[rng.random_range(0..4usize)];
                    Op::Noise1(kind, probability(&mut rng), qubits(&mut rng))
                }
                5 => Op::Noise2(Noise2::Depolarize2, probability(&mut rng), pairs(&mut rng)),
                6 if num_meas > 0 => Op::Detector(records(&mut rng, num_meas)),
                7 if num_meas > 0 => {
                    Op::Observable(rng.random_range(0..4usize), records(&mut rng, num_meas))
                }
                _ => continue,
            };
            ops.push(op);
        }
        Circuit::from_ops(n as usize, ops)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// Backward extraction reproduces the forward walker bit for bit on
        /// random circuits covering every op variant.
        #[test]
        fn backward_matches_forward_oracle_on_random_circuits(seed in any::<u64>()) {
            let c = random_circuit(seed);
            prop_assert!(c.validate().is_ok(), "generator made an invalid circuit");
            assert_bit_identical(&extract_dem(&c), &forward::extract_dem(&c), "random");
        }
    }

    /// The variant of `all` whose `Debug` name is `name`.
    fn variant<T: Copy + Debug>(all: &[T], name: &str) -> Option<T> {
        all.iter().copied().find(|v| format!("{v:?}") == name)
    }

    /// Rebuilds a circuit from its `Display` text. The memory circuits
    /// below come from `caliqec-code`, which links the non-test build of
    /// this crate, so they reach this test build as text.
    fn from_display(text: &str) -> Circuit {
        let mut lines = text.lines();
        let num_qubits = lines
            .next()
            .and_then(|h| h.strip_prefix("# circuit: "))
            .and_then(|h| h.split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("header line");
        let ops = lines
            .map(|line| {
                let line = line.split('#').next().unwrap_or("");
                let mut tokens = line.split_whitespace();
                let head = tokens.next().expect("op name");
                let (name, arg) = head
                    .split_once('(')
                    .map_or((head, ""), |(n, a)| (n, a.trim_end_matches(')')));
                let nums: Vec<u32> = tokens
                    .map(|t| t.trim_start_matches("rec").parse().expect("index"))
                    .collect();
                let p = || arg.parse::<f64>().expect("probability");
                let pairs = || nums.chunks(2).map(|p| (p[0], p[1])).collect();
                let recs = || nums.iter().map(|&m| MeasIdx(m)).collect();
                if let Some(g) = variant(&GATES1, name) {
                    return Op::G1(g, nums.clone());
                }
                if let Some(g) = variant(&GATES2, name) {
                    return Op::G2(g, pairs());
                }
                if let Some(kind) = variant(&NOISE1, name) {
                    return Op::Noise1(kind, p(), nums.clone());
                }
                match name {
                    "Depolarize2" => Op::Noise2(Noise2::Depolarize2, p(), pairs()),
                    "MZ" | "MX" => Op::Measure {
                        basis: if name == "MZ" { Basis::Z } else { Basis::X },
                        qubit: nums[0],
                        flip: p(),
                    },
                    "RZ" => Op::Reset(Basis::Z, nums.clone()),
                    "RX" => Op::Reset(Basis::X, nums.clone()),
                    "DETECTOR" => Op::Detector(recs()),
                    "OBSERVABLE" => Op::Observable(arg.parse().expect("index"), recs()),
                    other => panic!("unknown op {other:?}"),
                }
            })
            .collect();
        Circuit::from_ops(num_qubits, ops)
    }

    /// A deformed-and-enlarged d = 5 patch from a compiled calibration
    /// plan: the plan's first isolation applied to a fresh patch, which then
    /// grows until its distance is back to 5, as the runtime builds each
    /// window's layout.
    fn plan_layout() -> caliqec_code::PatchLayout {
        use caliqec::{compile, CaliqecConfig, Preparation};
        use caliqec_code::{code_distance, DeformInstruction, DeformedPatch, Side};
        use caliqec_device::{DeviceConfig, DeviceModel};
        let mut rng = StdRng::seed_from_u64(33);
        let device = DeviceModel::synthetic(
            &DeviceConfig {
                rows: 5,
                cols: 5,
                ..DeviceConfig::default()
            },
            &mut rng,
        );
        let prep = Preparation::run(&device, &mut rng);
        let config = CaliqecConfig {
            distance: 5,
            ..CaliqecConfig::default()
        };
        let plan = compile(&device, &prep, &config, &mut rng);
        let isolation = (1..64)
            .flat_map(|m| plan.batches_in_interval(m))
            .find(|b| !b.isolation.is_empty())
            .expect("the plan isolates some gate")
            .isolation
            .clone();
        let mut patch = DeformedPatch::new(config.lattice, config.distance, config.distance);
        for instr in isolation {
            let _ = patch.apply(instr);
        }
        for i in 0..2 * config.delta_d {
            let layout = patch.layout().expect("valid journal");
            if code_distance(&layout).min() >= config.distance {
                break;
            }
            let side = if i % 2 == 0 {
                Side::Right
            } else {
                Side::Bottom
            };
            let _ = patch.apply(DeformInstruction::PatchQAd { side });
        }
        patch.layout().expect("valid journal")
    }

    #[test]
    fn backward_matches_forward_oracle_on_memory_circuits() {
        use caliqec_code::{
            heavy_hex_patch, memory_circuit, rotated_patch, MemoryBasis, NoiseModel,
        };
        let noise = NoiseModel::uniform(1e-3);
        let mut cases = Vec::new();
        for d in [3, 5] {
            for basis in [MemoryBasis::Z, MemoryBasis::X] {
                cases.push((
                    format!("rotated d={d} {basis:?}"),
                    rotated_patch(d, d),
                    d,
                    basis,
                ));
            }
        }
        cases.push((
            "heavy-hex 3x3 Z".into(),
            heavy_hex_patch(3, 3),
            3,
            MemoryBasis::Z,
        ));
        let deformed = plan_layout();
        assert!(
            deformed.num_physical_qubits() > rotated_patch(5, 5).num_physical_qubits(),
            "the plan's layout must be enlarged"
        );
        cases.push(("plan layout d=5 Z".into(), deformed, 5, MemoryBasis::Z));
        for (label, layout, rounds, basis) in cases {
            let text = memory_circuit(&layout, &noise, rounds, basis)
                .circuit
                .to_string();
            let c = from_display(&text);
            assert_eq!(c.to_string(), text, "{label}: Display round trip");
            assert_bit_identical(&extract_dem(&c), &forward::extract_dem(&c), &label);
        }
    }

    #[test]
    fn x_error_before_z_measurement_fires_detector() {
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::XError, 0.1, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m]);
        let dem = extract_dem(&c);
        assert_eq!(dem.mechanisms.len(), 1);
        assert_eq!(dem.mechanisms[0].detectors, vec![DetIdx(0)]);
    }

    #[test]
    fn z_error_is_invisible() {
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::ZError, 0.1, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m]);
        let dem = extract_dem(&c);
        assert!(dem.mechanisms.is_empty());
    }

    #[test]
    fn depolarize1_merges_x_and_y() {
        // X and Y both flip a Z measurement: signatures merge.
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::Depolarize1, 0.3, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m]);
        let dem = extract_dem(&c);
        assert_eq!(dem.mechanisms.len(), 1);
        // p = 0.1 xor-combined with 0.1 = 0.1*0.9 + 0.9*0.1 = 0.18
        assert!((dem.mechanisms[0].probability - 0.18).abs() < 1e-12);
    }

    #[test]
    fn observable_flips_are_tracked() {
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::XError, 0.05, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m]);
        c.observable(0, &[m]);
        let dem = extract_dem(&c);
        assert_eq!(dem.mechanisms.len(), 1);
        assert_eq!(dem.mechanisms[0].observables, 1);
    }

    #[test]
    fn error_propagates_through_cx() {
        // X on control propagates to target.
        let mut c = Circuit::new(2);
        c.reset(Basis::Z, &[0, 1]);
        c.noise1(Noise1::XError, 0.1, &[0]);
        c.cx(0, 1);
        let m0 = c.measure(0, Basis::Z, 0.0);
        let m1 = c.measure(1, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        let dem = extract_dem(&c);
        assert_eq!(dem.mechanisms.len(), 1);
        assert_eq!(dem.mechanisms[0].detectors, vec![DetIdx(0), DetIdx(1)]);
    }

    #[test]
    fn measurement_flip_noise_is_local() {
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        let m1 = c.measure(0, Basis::Z, 0.02);
        let m2 = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m1, m2]);
        let dem = extract_dem(&c);
        assert_eq!(dem.mechanisms.len(), 1);
        assert_eq!(dem.mechanisms[0].detectors, vec![DetIdx(0)]);
        assert!((dem.mechanisms[0].probability - 0.02).abs() < 1e-12);
    }

    #[test]
    fn detector_pair_cancellation() {
        // An error flipping a measurement used by two detectors lights both;
        // an error flipping two measurements of the *same* detector cancels.
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::XError, 0.1, &[0]);
        let m1 = c.measure(0, Basis::Z, 0.0);
        // X frame survives the measurement; the same flip appears at m2.
        let m2 = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m1, m2]);
        let dem = extract_dem(&c);
        assert!(dem.mechanisms.is_empty(), "double flip cancels in detector");
    }

    #[test]
    fn depolarize2_components_merge() {
        let mut c = Circuit::new(2);
        c.reset(Basis::Z, &[0, 1]);
        c.noise2(Noise2::Depolarize2, 0.15, &[(0, 1)]);
        let m0 = c.measure(0, Basis::Z, 0.0);
        let m1 = c.measure(1, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        let dem = extract_dem(&c);
        // Signatures: {d0}, {d1}, {d0,d1} (Z components invisible).
        assert_eq!(dem.mechanisms.len(), 3);
        for m in &dem.mechanisms {
            assert!(m.probability > 0.0);
        }
    }

    #[test]
    fn provenance_records_sources_and_divisors() {
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::Depolarize1, 0.3, &[0]);
        let m = c.measure(0, Basis::Z, 0.02);
        c.detector(&[m]);
        let dem = extract_dem(&c);
        assert_eq!(
            dem.sources,
            vec![
                ErrorSource::Noise1(Noise1::Depolarize1, 0),
                ErrorSource::MeasureFlip(0),
            ]
        );
        // X and Y legs merge with the readout flip into one mechanism with
        // three contributions, XOR-folded in extraction order.
        assert_eq!(dem.mechanisms.len(), 1);
        let mech = &dem.mechanisms[0];
        assert_eq!(mech.sources.len(), 3);
        // X and Y legs are recorded first (the noise op precedes the
        // measurement), then the readout flip.
        assert_eq!(mech.sources[0].source, 0);
        assert_eq!(mech.sources[0].divisor, 3.0);
        assert_eq!(mech.sources[0].base, 0.3 / 3.0);
        assert_eq!(mech.sources[1].source, 0);
        assert_eq!(mech.sources[2].source, 1);
        assert_eq!(mech.sources[2].divisor, 1.0);
        assert_eq!(mech.sources[2].base, 0.02);
    }

    #[test]
    fn identity_reweight_is_bit_identical() {
        let mut c = Circuit::new(2);
        c.reset(Basis::Z, &[0, 1]);
        c.noise1(Noise1::Depolarize1, 0.013, &[0, 1]);
        c.noise2(Noise2::Depolarize2, 0.007, &[(0, 1)]);
        let m0 = c.measure(0, Basis::Z, 0.003);
        let m1 = c.measure(1, Basis::Z, 0.003);
        c.detector(&[m0]);
        c.detector(&[m1]);
        let dem = extract_dem(&c);
        let re = dem.reweighted(&RateTable::identity());
        for (a, b) in dem.mechanisms.iter().zip(re.mechanisms.iter()) {
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn reweighted_matches_fresh_extraction() {
        // Reweighting the p=0.1 model with rate 0.2 must reproduce — bit for
        // bit — the model extracted from the p=0.2 circuit.
        let build = |p: f64| {
            let mut c = Circuit::new(2);
            c.reset(Basis::Z, &[0, 1]);
            c.noise1(Noise1::Depolarize1, p, &[0, 1]);
            c.noise2(Noise2::Depolarize2, p, &[(0, 1)]);
            let m0 = c.measure(0, Basis::Z, p);
            let m1 = c.measure(1, Basis::Z, p);
            c.detector(&[m0]);
            c.detector(&[m1]);
            extract_dem(&c)
        };
        let dem = build(0.1);
        let fresh = build(0.2);
        let re = dem.reweighted(&RateTable::uniform(0.2));
        assert_eq!(re.mechanisms.len(), fresh.mechanisms.len());
        for (a, b) in re.mechanisms.iter().zip(fresh.mechanisms.iter()) {
            assert_eq!(a.detectors, b.detectors);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn hyperedge_counting() {
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::XError, 0.1, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m]);
        c.detector(&[m]);
        c.detector(&[m]);
        let dem = extract_dem(&c);
        assert_eq!(dem.num_hyperedges(), 1);
        assert_eq!(dem.mechanisms_with_at_most(2).count(), 0);
    }
}
