//! Batched Pauli-frame Monte-Carlo sampler.
//!
//! Samples 64 shots at a time by tracking, for every qubit, one 64-bit word of
//! X-frame bits and one of Z-frame bits (bit `i` belongs to shot `i`). Errors
//! are sampled per shot, conjugated through Clifford gates word-parallel, and
//! read out as measurement-record flips relative to a noiseless reference
//! execution.
//!
//! # Preconditions
//!
//! The frame sampler reports detector *events* (flips relative to the
//! noiseless run), which equal detector *values* only when the circuit's
//! detectors are noiselessly deterministic and zero — the convention enforced
//! by [`crate::sim::check_deterministic_detectors`] and satisfied by all
//! circuit generators in this workspace.

use crate::circuit::{Basis, Circuit, Gate1, Gate2, Noise1, Noise2, Op};
use crate::compiled::{CompiledCircuit, FrameState};
use crate::pauli::Pauli;
use crate::sim::two_qubit_pauli;
use rand::{Rng, RngExt};

/// Number of shots sampled per batch (bits in a machine word).
pub const BATCH: usize = 64;

/// Calls `f(bit)` for every set bit of `w`, in ascending bit order.
///
/// The shared word-walk helper behind every sparse extraction site
/// ([`SparseBatch::extract`], [`BatchEvents::for_each_shot`]) and the
/// per-hit noise loops of the samplers: cost is one `trailing_zeros` per
/// set bit, so walking a mostly-zero word is nearly free.
#[inline]
pub fn for_each_set_bit(mut w: u64, mut f: impl FnMut(u32)) {
    while w != 0 {
        let s = w.trailing_zeros();
        w &= w - 1;
        f(s);
    }
}

/// Detector and observable events for a batch of [`BATCH`] shots.
///
/// Bit `s` of word `detectors[d]` is the event of detector `d` in shot `s`.
#[derive(Clone, Debug, Default)]
pub struct BatchEvents {
    /// One word per detector.
    pub detectors: Vec<u64>,
    /// One word per observable.
    pub observables: Vec<u64>,
}

impl BatchEvents {
    /// Calls `f(shot, defects, observable_mask)` for every shot in the
    /// batch, where `defects` are the indices of fired detectors and
    /// `observable_mask` packs the observable events as bits.
    ///
    /// # Examples
    ///
    /// ```
    /// use caliqec_stab::{Basis, Circuit, FrameSampler, Noise1};
    /// use rand::SeedableRng;
    ///
    /// let mut c = Circuit::new(1);
    /// c.reset(Basis::Z, &[0]);
    /// c.noise1(Noise1::XError, 1.0, &[0]);
    /// let m = c.measure(0, Basis::Z, 0.0);
    /// c.detector(&[m]);
    /// c.observable(0, &[m]);
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let events = FrameSampler::new(&c).sample_batch(&mut rng);
    /// let mut hits = 0;
    /// events.for_each_shot(|_, defects, obs| {
    ///     assert_eq!(defects, &[0]);
    ///     assert_eq!(obs, 1);
    ///     hits += 1;
    /// });
    /// assert_eq!(hits, 64);
    /// ```
    pub fn for_each_shot(&self, f: impl FnMut(usize, &[usize], u64)) {
        let mut sparse = SparseBatch::new();
        sparse.extract(self);
        sparse.for_each_shot(f);
    }

    /// Extracts the detector events of shot `s` as a bool vector.
    ///
    /// Allocates per call — this is the dense *test oracle* against which
    /// the sparse extraction is validated; the engine hot path never calls
    /// it (it goes through [`SparseBatch`] instead).
    pub fn shot_detectors(&self, s: usize) -> Vec<bool> {
        assert!(s < BATCH);
        self.detectors.iter().map(|w| (w >> s) & 1 == 1).collect()
    }

    /// Extracts the observable events of shot `s` as a bool vector.
    ///
    /// Allocates per call — dense test oracle only; see
    /// [`Self::shot_detectors`].
    pub fn shot_observables(&self, s: usize) -> Vec<bool> {
        assert!(s < BATCH);
        self.observables.iter().map(|w| (w >> s) & 1 == 1).collect()
    }
}

/// Word-sparse, allocation-free view of one [`BatchEvents`] batch: per-shot
/// fired-detector index lists plus per-shot observable masks.
///
/// Owned by the caller and reused across batches, so the steady-state cost
/// of [`Self::extract`] is `O(words + popcount)` — each detector word is
/// visited once, zero words are skipped, and set bits are walked with
/// `trailing_zeros` into per-shot buffers whose capacity persists. This is
/// the decoder-facing extraction path of the Monte-Carlo engine: at low
/// physical error rates almost every word is zero, so extraction cost
/// scales with the number of fired detectors, not with the patch size.
///
/// # Examples
///
/// ```
/// use caliqec_stab::{Basis, Circuit, FrameSampler, Noise1, SparseBatch, BATCH};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 1.0, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
/// c.observable(0, &[m]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let events = FrameSampler::new(&c).sample_batch(&mut rng);
///
/// let mut sparse = SparseBatch::new();
/// sparse.extract(&events);
/// for s in 0..BATCH {
///     assert_eq!(sparse.defects(s), &[0]);
///     assert_eq!(sparse.observables(s), 1);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SparseBatch {
    /// Fired-detector indices per shot, ascending. One buffer per lane,
    /// cleared (capacity kept) on every [`Self::extract`].
    defects: Vec<Vec<usize>>,
    /// Observable event mask per shot (bit `i` = observable `i`).
    observables: Vec<u64>,
}

impl Default for SparseBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseBatch {
    /// Creates an empty scratch batch. Buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> SparseBatch {
        SparseBatch {
            defects: vec![Vec::new(); BATCH],
            observables: vec![0; BATCH],
        }
    }

    /// Scatters `events` into per-shot defect lists and observable masks.
    ///
    /// Iterates each detector word once, skips zero words, and walks set
    /// bits via [`for_each_set_bit`]; defect lists come out in ascending
    /// detector order, identical to the dense [`BatchEvents::shot_detectors`]
    /// oracle.
    #[inline]
    pub fn extract(&mut self, events: &BatchEvents) {
        for buf in &mut self.defects {
            buf.clear();
        }
        self.observables.fill(0);
        for (d, &w) in events.detectors.iter().enumerate() {
            if w == 0 {
                continue;
            }
            for_each_set_bit(w, |s| self.defects[s as usize].push(d));
        }
        for (i, &w) in events.observables.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let bit = 1u64 << i;
            for_each_set_bit(w, |s| self.observables[s as usize] |= bit);
        }
    }

    /// The fired detectors of shot `s`, ascending.
    #[inline]
    pub fn defects(&self, s: usize) -> &[usize] {
        &self.defects[s]
    }

    /// The number of fired detectors of shot `s` — the tier-dispatch /
    /// histogram fast path that avoids materialising the slice.
    #[inline]
    pub fn defect_count(&self, s: usize) -> usize {
        self.defects[s].len()
    }

    /// The observable event mask of shot `s`.
    #[inline]
    pub fn observables(&self, s: usize) -> u64 {
        self.observables[s]
    }

    /// Calls `f(shot, defects, observable_mask)` for every shot, in shot
    /// order — the sparse equivalent of [`BatchEvents::for_each_shot`].
    pub fn for_each_shot(&self, mut f: impl FnMut(usize, &[usize], u64)) {
        for s in 0..BATCH {
            f(s, &self.defects[s], self.observables[s]);
        }
    }
}

/// Samples a Bernoulli(`p`) mask over the 64 shot lanes.
///
/// Uses geometric skipping so the cost is proportional to the number of hits,
/// which is what makes low-physical-error-rate sampling fast.
///
/// Shared with the compiled sampler so both consume RNG draws identically.
pub(crate) fn bernoulli_mask<R: Rng>(p: f64, rng: &mut R) -> u64 {
    bernoulli_mask_with(p, (-p).ln_1p(), rng)
}

/// [`bernoulli_mask`] with `ln(1 - p)` supplied by the caller — the
/// compiled sampler caches it per instruction at compile time, saving an
/// `ln_1p` evaluation per noise site per batch. The arithmetic on the
/// random draws is unchanged, so the sampled masks are bit-identical to
/// the self-computing variant.
pub(crate) fn bernoulli_mask_with<R: Rng>(p: f64, log1p: f64, rng: &mut R) -> u64 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return u64::MAX;
    }
    let mut mask = 0u64;
    // Skip-ahead sampling: the gap between successes is geometric.
    let mut pos = 0f64;
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        pos += (u.ln() / log1p).floor();
        if pos >= BATCH as f64 {
            break;
        }
        mask |= 1u64 << (pos as u32);
        pos += 1.0;
    }
    mask
}

/// Pauli-frame sampler over a fixed circuit.
///
/// Since the compiled-engine refactor this is a thin wrapper that compiles
/// the circuit once ([`crate::CompiledCircuit`]) and samples through the
/// compiled program; it keeps the historical one-object API for callers
/// that don't need to share the compiled circuit across threads. For a
/// fixed seed it produces bit-identical events to [`InterpretingSampler`].
///
/// # Examples
///
/// ```
/// use caliqec_stab::{Basis, Circuit, FrameSampler, Noise1};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 1.0, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
///
/// let mut sampler = FrameSampler::new(&c);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let events = sampler.sample_batch(&mut rng);
/// assert_eq!(events.detectors[0], u64::MAX); // the X error always fires
/// ```
#[derive(Clone, Debug)]
pub struct FrameSampler {
    compiled: CompiledCircuit,
    state: FrameState,
    events: BatchEvents,
}

impl FrameSampler {
    /// Creates a sampler for `circuit`, compiling it once.
    pub fn new(circuit: &Circuit) -> FrameSampler {
        let compiled = CompiledCircuit::new(circuit);
        let state = FrameState::new(&compiled);
        FrameSampler {
            compiled,
            state,
            events: BatchEvents::default(),
        }
    }

    /// The compiled program backing this sampler.
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    /// Samples one batch of [`BATCH`] shots, returning detector and
    /// observable events.
    pub fn sample_batch<R: Rng>(&mut self, rng: &mut R) -> BatchEvents {
        self.compiled
            .sample_batch_into(&mut self.state, rng, &mut self.events);
        self.events.clone()
    }
}

/// The original op-by-op Pauli-frame sampler, kept as the reference
/// implementation: differential tests and the `engine` benchmark compare
/// it against [`crate::CompiledCircuit`], whose RNG draw order it defines.
#[derive(Debug)]
pub struct InterpretingSampler<'c> {
    circuit: &'c Circuit,
    /// X-frame word per qubit.
    x: Vec<u64>,
    /// Z-frame word per qubit.
    z: Vec<u64>,
    /// Measurement-record flip word per measurement.
    meas: Vec<u64>,
}

impl<'c> InterpretingSampler<'c> {
    /// Creates a sampler for `circuit`.
    pub fn new(circuit: &'c Circuit) -> InterpretingSampler<'c> {
        InterpretingSampler {
            circuit,
            x: vec![0; circuit.num_qubits()],
            z: vec![0; circuit.num_qubits()],
            meas: vec![0; circuit.num_measurements()],
        }
    }

    /// Samples one batch of [`BATCH`] shots, returning detector and
    /// observable events.
    pub fn sample_batch<R: Rng>(&mut self, rng: &mut R) -> BatchEvents {
        self.x.fill(0);
        self.z.fill(0);
        self.meas.fill(0);
        let mut events = BatchEvents {
            detectors: Vec::with_capacity(self.circuit.num_detectors()),
            observables: vec![0; self.circuit.num_observables()],
        };
        let mut meas_cursor = 0usize;
        for op in self.circuit.ops() {
            match op {
                Op::G1(g, qs) => {
                    for &q in qs {
                        let q = q as usize;
                        match g {
                            // Paulis commute or anticommute with the frame;
                            // signs are irrelevant to error propagation.
                            Gate1::X | Gate1::Y | Gate1::Z => {}
                            Gate1::H => std::mem::swap(&mut self.x[q], &mut self.z[q]),
                            // S: X -> Y (gains a Z component); Z -> Z.
                            Gate1::S | Gate1::SDag => self.z[q] ^= self.x[q],
                        }
                    }
                }
                Op::G2(g, pairs) => {
                    for &(a, b) in pairs {
                        let (a, b) = (a as usize, b as usize);
                        match g {
                            Gate2::Cx => {
                                self.x[b] ^= self.x[a];
                                self.z[a] ^= self.z[b];
                            }
                            Gate2::Cz => {
                                let (xa, xb) = (self.x[a], self.x[b]);
                                self.z[a] ^= xb;
                                self.z[b] ^= xa;
                            }
                            Gate2::Swap => {
                                self.x.swap(a, b);
                                self.z.swap(a, b);
                            }
                        }
                    }
                }
                Op::Measure { basis, qubit, flip } => {
                    let q = *qubit as usize;
                    let mut flips = match basis {
                        Basis::Z => self.x[q],
                        Basis::X => self.z[q],
                    };
                    if *flip > 0.0 {
                        flips ^= bernoulli_mask(*flip, rng);
                    }
                    self.meas[meas_cursor] = flips;
                    meas_cursor += 1;
                    // Collapse decorrelates the conjugate frame component:
                    // re-randomize it so later anticommutation is harmless.
                    match basis {
                        Basis::Z => self.z[q] = rng.random::<u64>(),
                        Basis::X => self.x[q] = rng.random::<u64>(),
                    }
                }
                Op::Reset(_, qs) => {
                    // Reset discards any accumulated error on the qubit.
                    for &q in qs {
                        self.x[q as usize] = 0;
                        self.z[q as usize] = 0;
                    }
                }
                Op::Noise1(kind, p, qs) => {
                    for &q in qs {
                        let hits = bernoulli_mask(*p, rng);
                        if hits == 0 {
                            continue;
                        }
                        let q = q as usize;
                        match kind {
                            Noise1::XError => self.x[q] ^= hits,
                            Noise1::ZError => self.z[q] ^= hits,
                            Noise1::YError => {
                                self.x[q] ^= hits;
                                self.z[q] ^= hits;
                            }
                            Noise1::Depolarize1 => {
                                for_each_set_bit(hits, |s| {
                                    let bit = 1u64 << s;
                                    match Pauli::NON_IDENTITY[rng.random_range(0..3)] {
                                        Pauli::X => self.x[q] ^= bit,
                                        Pauli::Z => self.z[q] ^= bit,
                                        Pauli::Y => {
                                            self.x[q] ^= bit;
                                            self.z[q] ^= bit;
                                        }
                                        Pauli::I => unreachable!(),
                                    }
                                });
                            }
                        }
                    }
                }
                Op::Noise2(kind, p, pairs) => {
                    for &(a, b) in pairs {
                        let hits = bernoulli_mask(*p, rng);
                        if hits == 0 {
                            continue;
                        }
                        let (a, b) = (a as usize, b as usize);
                        match kind {
                            Noise2::Depolarize2 => {
                                for_each_set_bit(hits, |s| {
                                    let bit = 1u64 << s;
                                    let (pa, pb) = two_qubit_pauli(rng.random_range(0..15));
                                    for (q, pq) in [(a, pa), (b, pb)] {
                                        if pq.has_x() {
                                            self.x[q] ^= bit;
                                        }
                                        if pq.has_z() {
                                            self.z[q] ^= bit;
                                        }
                                    }
                                });
                            }
                        }
                    }
                }
                Op::Detector(meas) => {
                    let w = meas
                        .iter()
                        .fold(0u64, |acc, m| acc ^ self.meas[m.0 as usize]);
                    events.detectors.push(w);
                }
                Op::Observable(i, meas) => {
                    let w = meas
                        .iter()
                        .fold(0u64, |acc, m| acc ^ self.meas[m.0 as usize]);
                    events.observables[*i] ^= w;
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Basis, Circuit, Gate1};
    use crate::sim::simulate_shot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_mask_extremes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(bernoulli_mask(0.0, &mut rng), 0);
        assert_eq!(bernoulli_mask(1.0, &mut rng), u64::MAX);
    }

    #[test]
    fn bernoulli_mask_density_tracks_p() {
        let mut rng = StdRng::seed_from_u64(42);
        for &p in &[0.01, 0.1, 0.5, 0.9] {
            let mut ones = 0u64;
            let trials = 2000;
            for _ in 0..trials {
                ones += bernoulli_mask(p, &mut rng).count_ones() as u64;
            }
            let freq = ones as f64 / (trials as f64 * 64.0);
            assert!((freq - p).abs() < 0.02, "p={p}, freq={freq}");
        }
    }

    /// A 3-qubit repetition-code round with noise and a logical readout.
    fn noisy_rep_circuit(p: f64) -> Circuit {
        let mut c = Circuit::new(5);
        let (d0, d1, d2, a0, a1) = (0, 1, 2, 3, 4);
        c.reset(Basis::Z, &[d0, d1, d2, a0, a1]);
        c.noise1(crate::circuit::Noise1::XError, p, &[d0, d1, d2]);
        c.cx(d0, a0);
        c.cx(d1, a0);
        c.cx(d1, a1);
        c.cx(d2, a1);
        let m0 = c.measure(a0, Basis::Z, 0.0);
        let m1 = c.measure(a1, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        let md = c.measure(d0, Basis::Z, 0.0);
        c.observable(0, &[md]);
        c
    }

    #[test]
    fn frame_matches_tableau_statistics() {
        // Compare detector-fire frequencies between the frame sampler and the
        // exact tableau simulator.
        let p = 0.2;
        let c = noisy_rep_circuit(p);
        let mut rng = StdRng::seed_from_u64(5);

        let mut sampler = FrameSampler::new(&c);
        let mut frame_fires = [0usize; 2];
        let batches = 200;
        for _ in 0..batches {
            let ev = sampler.sample_batch(&mut rng);
            frame_fires[0] += ev.detectors[0].count_ones() as usize;
            frame_fires[1] += ev.detectors[1].count_ones() as usize;
        }
        let frame_freq0 = frame_fires[0] as f64 / (batches * BATCH) as f64;

        let mut tab_fires = 0usize;
        let shots = 4000;
        for _ in 0..shots {
            let shot = simulate_shot(&c, &mut rng);
            tab_fires += shot.detectors[0] as usize;
        }
        let tab_freq0 = tab_fires as f64 / shots as f64;
        assert!(
            (frame_freq0 - tab_freq0).abs() < 0.03,
            "frame={frame_freq0}, tableau={tab_freq0}"
        );
    }

    #[test]
    fn deterministic_error_always_fires() {
        let mut c = Circuit::new(2);
        c.reset(Basis::Z, &[0, 1]);
        c.noise1(crate::circuit::Noise1::XError, 1.0, &[0]);
        c.cx(0, 1);
        let m = c.measure(1, Basis::Z, 0.0);
        c.detector(&[m]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut sampler = FrameSampler::new(&c);
        let ev = sampler.sample_batch(&mut rng);
        assert_eq!(ev.detectors[0], u64::MAX);
    }

    #[test]
    fn z_error_invisible_to_z_measurement() {
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(crate::circuit::Noise1::ZError, 1.0, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut sampler = FrameSampler::new(&c);
        let ev = sampler.sample_batch(&mut rng);
        assert_eq!(ev.detectors[0], 0);
    }

    #[test]
    fn hadamard_turns_z_error_into_x() {
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(crate::circuit::Noise1::ZError, 1.0, &[0]);
        c.g1(Gate1::H, 0);
        let m = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m]);
        // NOTE: noiselessly this detector is random (H|0> measured), but the
        // frame *event* is still well-defined; we only check the event here.
        let mut rng = StdRng::seed_from_u64(0);
        let mut sampler = FrameSampler::new(&c);
        let ev = sampler.sample_batch(&mut rng);
        assert_eq!(ev.detectors[0], u64::MAX);
    }

    #[test]
    fn reset_clears_pending_errors() {
        let mut c = Circuit::new(1);
        c.noise1(crate::circuit::Noise1::XError, 1.0, &[0]);
        c.reset(Basis::Z, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.detector(&[m]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut sampler = FrameSampler::new(&c);
        let ev = sampler.sample_batch(&mut rng);
        assert_eq!(ev.detectors[0], 0);
    }

    #[test]
    fn swap_moves_frames() {
        let mut c = Circuit::new(2);
        c.reset(Basis::Z, &[0, 1]);
        c.noise1(crate::circuit::Noise1::XError, 1.0, &[0]);
        c.g2(crate::circuit::Gate2::Swap, 0, 1);
        let m0 = c.measure(0, Basis::Z, 0.0);
        let m1 = c.measure(1, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut sampler = FrameSampler::new(&c);
        let ev = sampler.sample_batch(&mut rng);
        assert_eq!(ev.detectors[0], 0);
        assert_eq!(ev.detectors[1], u64::MAX);
    }
}
