//! One-time compilation of a [`Circuit`] into a flat sampling program.
//!
//! [`FrameSampler`](crate::FrameSampler) historically re-walked the `Op`
//! enum — with its heap-allocated target lists — on every 64-shot batch.
//! [`CompiledCircuit`] flattens the circuit once into a dense array of
//! `Copy` instructions (one per qubit/pair target, Pauli gates elided,
//! detector/observable definitions pre-resolved into index tables), and
//! all mutable per-batch data lives in a separate, cheap [`Frames`]
//! scratch. A `CompiledCircuit` is therefore shareable by `&` across
//! threads, which is what the parallel LER engine in `caliqec-match`
//! builds on.
//!
//! Every sampler is one kernel, generic over the lane count `L` (how many
//! independent 64-shot batches advance in lockstep) and over a per-noise-
//! site weight tally (a no-op for nominal sampling; likelihood-ratio
//! accumulation on boosted programs). Each lane consumes its RNG in
//! *exactly* the same order as the interpreting sampler, so for a fixed
//! seed every instantiation produces identical [`BatchEvents`] — a
//! property the differential tests rely on.

use crate::circuit::{Basis, Circuit, Gate1, Gate2, Noise1, Noise2, Op};
use crate::dem::ErrorSource;
use crate::error::{check_probability, check_qubit_index, CircuitError};
use crate::frame::{bernoulli_mask_with, for_each_set_bit, BatchEvents, BATCH};
use crate::pauli::Pauli;
use crate::rates::RateTable;
use crate::sim::two_qubit_pauli;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One flattened sampling instruction. Pauli gates compile to nothing;
/// `S` and `SDag` act identically on frames and share one opcode.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Instr {
    /// Hadamard: swap X and Z frames.
    H(u32),
    /// S or SDag: Z frame gains the X component.
    SGate(u32),
    /// CNOT (control, target).
    Cx(u32, u32),
    /// CZ (symmetric).
    Cz(u32, u32),
    /// Qubit exchange.
    Swap(u32, u32),
    /// Reset: discard accumulated error.
    Reset(u32),
    /// Measurement with optional classical flip noise. `l1p` caches
    /// `ln(1 - flip)` for the geometric skip sampler (unused when
    /// `flip` is 0 or 1).
    Meas {
        q: u32,
        basis: Basis,
        flip: f64,
        l1p: f64,
    },
    /// X error with probability `p`; `l1p` caches `ln(1 - p)`.
    NoiseX { q: u32, p: f64, l1p: f64 },
    /// Y error with probability `p`; `l1p` caches `ln(1 - p)`.
    NoiseY { q: u32, p: f64, l1p: f64 },
    /// Z error with probability `p`; `l1p` caches `ln(1 - p)`.
    NoiseZ { q: u32, p: f64, l1p: f64 },
    /// Single-qubit depolarizing channel; `l1p` caches `ln(1 - p)`.
    Dep1 { q: u32, p: f64, l1p: f64 },
    /// Two-qubit depolarizing channel; `l1p` caches `ln(1 - p)`.
    Dep2 { a: u32, b: u32, p: f64, l1p: f64 },
}

/// `ln(1 - p)`, precomputed once at compile time so the per-batch geometric
/// skip sampler ([`bernoulli_mask_with`]) never re-derives it on the hot
/// path. The value is only read for `0 < p < 1`.
#[inline]
fn l1p(p: f64) -> f64 {
    (-p).ln_1p()
}

/// The boosted fire rate of one channel: `min(β·p, ½)`, never below the
/// nominal rate (a channel already at or past ½ keeps its nominal rate —
/// down-boosting deterministic or near-deterministic channels would trade
/// rare-event variance for common-event variance).
#[inline]
fn boost_rate(p: f64, beta: f64) -> f64 {
    let b = (beta * p).min(0.5);
    if b > p {
        b
    } else {
        p
    }
}

/// Log-likelihood-ratio terms of one channel boosted from nominal rate `p`
/// to sampled rate `b`: `(delta, keep)` with `keep = ln((1−p)/(1−b))` (the
/// per-shot constant charged whether or not the channel fires) and
/// `delta = ln(p/b) − keep` (the correction added when it does fire). An
/// un-boosted channel contributes exactly zero to both, so β = 1 yields an
/// identically-zero log-weight.
#[inline]
fn llr_terms(p: f64, b: f64) -> (f64, f64) {
    if p == b {
        return (0.0, 0.0);
    }
    let keep = l1p(p) - l1p(b);
    (p.ln() - b.ln() - keep, keep)
}

/// Per-noise-site importance-sampling tables carried by a boosted
/// [`CompiledCircuit`]: one `delta` entry per noise site (every noise
/// instruction and every measurement, in program order) plus the per-shot
/// constant `base = Σ keep` — see [`llr_terms`]. Weighted sampling
/// accumulates `llr[shot] = base + Σ_{fired sites} delta[site]`, the exact
/// log of `P_nominal(shot) / P_boosted(shot)` (conditional Pauli-choice
/// draws are unchanged by boosting, so only fire bits contribute).
#[derive(Clone, Debug)]
struct LlrTables {
    delta: Vec<f64>,
    base: f64,
    beta: f64,
}

/// Per-noise-site weight accounting threaded through the sampling kernel.
/// The kernel calls [`Tally::next_site`] once per noise site, in program
/// order (every noise instruction and every measurement), then
/// [`Tally::charge`] with each lane's fire word at that site.
trait Tally {
    /// Advances to the next noise site.
    fn next_site(&mut self);
    /// Charges the current site to every shot of `lane` set in `fired`.
    fn charge(&mut self, lane: usize, fired: u64);
}

/// Nominal sampling: no weights. Zero-sized, so it compiles away.
struct Unweighted;

impl Tally for Unweighted {
    #[inline(always)]
    fn next_site(&mut self) {}

    #[inline(always)]
    fn charge(&mut self, _lane: usize, _fired: u64) {}
}

/// Likelihood-ratio accumulation on a boosted program: every shot that
/// fires at a site gains that site's `delta` in its lane's `llr` row.
struct Weighted<'a, const L: usize> {
    delta: &'a [f64],
    /// Index of the next noise site.
    site: usize,
    /// `delta` of the current site.
    d: f64,
    llr: &'a mut [[f64; BATCH]; L],
}

impl<const L: usize> Tally for Weighted<'_, L> {
    #[inline]
    fn next_site(&mut self) {
        self.d = self.delta[self.site];
        self.site += 1;
    }

    #[inline]
    fn charge(&mut self, lane: usize, fired: u64) {
        let d = self.d;
        if d != 0.0 {
            let row = &mut self.llr[lane];
            for_each_set_bit(fired, |s| row[s as usize] += d);
        }
    }
}

/// A [`Circuit`] compiled for repeated batch sampling.
///
/// Immutable after construction and shareable by `&` across threads; pair
/// it with one [`Frames`] scratch per thread. See the module docs for the
/// determinism contract with the interpreting sampler.
///
/// # Examples
///
/// ```
/// use caliqec_stab::{Basis, Circuit, CompiledCircuit, FrameState, Noise1};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 1.0, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
///
/// let compiled = CompiledCircuit::new(&c);
/// let mut state = FrameState::new(&compiled);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let events = compiled.sample_batch(&mut state, &mut rng);
/// assert_eq!(events.detectors[0], u64::MAX);
/// ```
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    num_qubits: usize,
    num_measurements: usize,
    num_detectors: usize,
    num_observables: usize,
    instrs: Vec<Instr>,
    /// CSR offsets into `det_meas`, one entry per detector plus a sentinel.
    det_offsets: Vec<u32>,
    /// Measurement-record indices XORed into each detector.
    det_meas: Vec<u32>,
    /// CSR offsets into `obs_meas`, one entry per observable plus a sentinel.
    obs_offsets: Vec<u32>,
    /// Measurement-record indices XORed into each observable (contributions
    /// from multiple `Observable` ops with the same index are concatenated).
    obs_meas: Vec<u32>,
    /// Importance-sampling tables, present only on programs produced by
    /// [`CompiledCircuit::boosted`] / [`CompiledCircuit::boosted_with_rates`].
    llr: Option<LlrTables>,
}

impl CompiledCircuit {
    /// Validating form of [`CompiledCircuit::new`]: runs
    /// [`Circuit::validate`] first, so malformed IR (e.g. from
    /// [`Circuit::from_ops`]) comes back as a typed [`CircuitError`] instead
    /// of compiling into a program that panics while sampling.
    pub fn try_new(circuit: &Circuit) -> Result<CompiledCircuit, CircuitError> {
        circuit.validate()?;
        Ok(CompiledCircuit::new(circuit))
    }

    /// Compiles `circuit`.
    pub fn new(circuit: &Circuit) -> CompiledCircuit {
        let mut instrs = Vec::new();
        let mut det_offsets = vec![0u32];
        let mut det_meas = Vec::new();
        let mut obs_lists: Vec<Vec<u32>> = vec![Vec::new(); circuit.num_observables()];
        for op in circuit.ops() {
            match op {
                Op::G1(g, qs) => {
                    for &q in qs {
                        match g {
                            // Paulis commute or anticommute with the frame;
                            // signs are irrelevant to error propagation.
                            Gate1::X | Gate1::Y | Gate1::Z => {}
                            Gate1::H => instrs.push(Instr::H(q)),
                            Gate1::S | Gate1::SDag => instrs.push(Instr::SGate(q)),
                        }
                    }
                }
                Op::G2(g, pairs) => {
                    for &(a, b) in pairs {
                        instrs.push(match g {
                            Gate2::Cx => Instr::Cx(a, b),
                            Gate2::Cz => Instr::Cz(a, b),
                            Gate2::Swap => Instr::Swap(a, b),
                        });
                    }
                }
                Op::Measure { basis, qubit, flip } => {
                    instrs.push(Instr::Meas {
                        q: *qubit,
                        basis: *basis,
                        flip: *flip,
                        l1p: l1p(*flip),
                    });
                }
                Op::Reset(_, qs) => {
                    for &q in qs {
                        instrs.push(Instr::Reset(q));
                    }
                }
                Op::Noise1(kind, p, qs) => {
                    for &q in qs {
                        instrs.push(match kind {
                            Noise1::XError => Instr::NoiseX {
                                q,
                                p: *p,
                                l1p: l1p(*p),
                            },
                            Noise1::YError => Instr::NoiseY {
                                q,
                                p: *p,
                                l1p: l1p(*p),
                            },
                            Noise1::ZError => Instr::NoiseZ {
                                q,
                                p: *p,
                                l1p: l1p(*p),
                            },
                            Noise1::Depolarize1 => Instr::Dep1 {
                                q,
                                p: *p,
                                l1p: l1p(*p),
                            },
                        });
                    }
                }
                Op::Noise2(kind, p, pairs) => {
                    for &(a, b) in pairs {
                        instrs.push(match kind {
                            Noise2::Depolarize2 => Instr::Dep2 {
                                a,
                                b,
                                p: *p,
                                l1p: l1p(*p),
                            },
                        });
                    }
                }
                Op::Detector(meas) => {
                    det_meas.extend(meas.iter().map(|m| m.0));
                    det_offsets.push(det_meas.len() as u32);
                }
                Op::Observable(i, meas) => {
                    obs_lists[*i].extend(meas.iter().map(|m| m.0));
                }
            }
        }
        let mut obs_offsets = vec![0u32];
        let mut obs_meas = Vec::new();
        for list in &obs_lists {
            obs_meas.extend_from_slice(list);
            obs_offsets.push(obs_meas.len() as u32);
        }
        CompiledCircuit {
            num_qubits: circuit.num_qubits(),
            num_measurements: circuit.num_measurements(),
            num_detectors: circuit.num_detectors(),
            num_observables: circuit.num_observables(),
            instrs,
            det_offsets,
            det_meas,
            obs_offsets,
            obs_meas,
            llr: None,
        }
    }

    /// Recompiles this program with every noise channel's fire rate boosted
    /// to `min(β · p, ½)` (never below nominal — see module notes on
    /// down-boosting), carrying the per-channel log-likelihood-ratio tables
    /// [`Self::sample_lanes_into`] needs to weight each shot back to the
    /// nominal rates. β = 1 leaves every rate untouched and every ratio term
    /// exactly zero, so the boosted program samples bit-identically to the
    /// original with log-weight ≡ 0.
    ///
    /// Panics unless `beta` is finite and ≥ 1.
    pub fn boosted(&self, beta: f64) -> CompiledCircuit {
        self.boosted_with_rates(beta, &RateTable::identity())
    }

    /// [`CompiledCircuit::boosted`] with calibration-epoch composition: each
    /// noise site's *nominal* rate is looked up in `rates` by its
    /// [`ErrorSource`] (falling back to the compiled rate when absent), then
    /// boosted. The recorded likelihood ratios weight shots back to the
    /// table's rates, so importance sampling composes with per-epoch
    /// reweighting: an identity table reduces to [`CompiledCircuit::boosted`].
    pub fn boosted_with_rates(&self, beta: f64, rates: &RateTable) -> CompiledCircuit {
        assert!(
            beta.is_finite() && beta >= 1.0,
            "boost beta must be finite and >= 1, got {beta}"
        );
        let mut out = self.clone();
        let mut delta = Vec::new();
        let mut base = 0.0f64;
        for instr in &mut out.instrs {
            // One (nominal rate, mutable compiled rate, mutable ln(1-p))
            // triple per noise site, in the exact program order the
            // samplers walk — the `delta` table is indexed by that order.
            let site = match instr {
                Instr::Meas {
                    q, flip, l1p: lp, ..
                } => {
                    let nominal = rates.get(&ErrorSource::MeasureFlip(*q)).unwrap_or(*flip);
                    Some((nominal, flip, lp))
                }
                Instr::NoiseX { q, p, l1p: lp } => {
                    let nominal = rates
                        .get(&ErrorSource::Noise1(Noise1::XError, *q))
                        .unwrap_or(*p);
                    Some((nominal, p, lp))
                }
                Instr::NoiseY { q, p, l1p: lp } => {
                    let nominal = rates
                        .get(&ErrorSource::Noise1(Noise1::YError, *q))
                        .unwrap_or(*p);
                    Some((nominal, p, lp))
                }
                Instr::NoiseZ { q, p, l1p: lp } => {
                    let nominal = rates
                        .get(&ErrorSource::Noise1(Noise1::ZError, *q))
                        .unwrap_or(*p);
                    Some((nominal, p, lp))
                }
                Instr::Dep1 { q, p, l1p: lp } => {
                    let nominal = rates
                        .get(&ErrorSource::Noise1(Noise1::Depolarize1, *q))
                        .unwrap_or(*p);
                    Some((nominal, p, lp))
                }
                Instr::Dep2 { a, b, p, l1p: lp } => {
                    let nominal = rates
                        .get(&ErrorSource::Noise2(Noise2::Depolarize2, *a, *b))
                        .unwrap_or(*p);
                    Some((nominal, p, lp))
                }
                _ => None,
            };
            if let Some((nominal, rate, lp)) = site {
                let boosted = boost_rate(nominal, beta);
                let (d, keep) = llr_terms(nominal, boosted);
                delta.push(d);
                base += keep;
                *rate = boosted;
                *lp = l1p(boosted);
            }
        }
        out.llr = Some(LlrTables { delta, base, beta });
        out
    }

    /// The boost factor this program was compiled with (1.0 for plain,
    /// un-boosted programs).
    pub fn boost_beta(&self) -> f64 {
        self.llr.as_ref().map_or(1.0, |t| t.beta)
    }

    /// Whether this program carries importance-sampling tables (i.e. came
    /// from [`CompiledCircuit::boosted`]), so that
    /// [`Self::sample_lanes_into`] fills per-shot weights.
    pub fn is_boosted(&self) -> bool {
        self.llr.is_some()
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of measurement records per shot.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// Number of detectors.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Re-checks every invariant [`Self::sample_batch_into`] relies on
    /// (instruction qubit bounds, finite probabilities in `[0, 1]`,
    /// measurement count, monotone in-range detector/observable tables),
    /// returning the first defect as a typed [`CircuitError`].
    ///
    /// [`CompiledCircuit::new`] only produces valid programs from valid
    /// circuits, but the LER engine validates before launching workers so a
    /// malformed circuit (e.g. from [`Circuit::from_ops`]) surfaces as one
    /// typed error instead of a panic inside a worker thread.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.num_observables > 64 {
            return Err(CircuitError::TooManyObservables {
                num_observables: self.num_observables,
            });
        }
        let mut meas_count = 0usize;
        for instr in &self.instrs {
            match *instr {
                Instr::H(q) | Instr::SGate(q) | Instr::Reset(q) => {
                    check_qubit_index(q, self.num_qubits)?;
                }
                Instr::Cx(a, b) | Instr::Cz(a, b) | Instr::Swap(a, b) => {
                    check_qubit_index(a, self.num_qubits)?;
                    check_qubit_index(b, self.num_qubits)?;
                    if a == b {
                        return Err(CircuitError::DuplicatePairTarget { qubit: a });
                    }
                }
                Instr::Meas { q, flip, .. } => {
                    check_qubit_index(q, self.num_qubits)?;
                    check_probability(flip)?;
                    meas_count += 1;
                }
                Instr::NoiseX { q, p, .. }
                | Instr::NoiseY { q, p, .. }
                | Instr::NoiseZ { q, p, .. }
                | Instr::Dep1 { q, p, .. } => {
                    check_qubit_index(q, self.num_qubits)?;
                    check_probability(p)?;
                }
                Instr::Dep2 { a, b, p, .. } => {
                    check_qubit_index(a, self.num_qubits)?;
                    check_qubit_index(b, self.num_qubits)?;
                    if a == b {
                        return Err(CircuitError::DuplicatePairTarget { qubit: a });
                    }
                    check_probability(p)?;
                }
            }
        }
        if meas_count != self.num_measurements {
            return Err(CircuitError::TableInconsistent {
                detail: format!(
                    "program records {} measurements but instrs contain {meas_count}",
                    self.num_measurements
                ),
            });
        }
        Self::validate_csr(
            "detector",
            &self.det_offsets,
            &self.det_meas,
            self.num_detectors,
            self.num_measurements,
        )?;
        Self::validate_csr(
            "observable",
            &self.obs_offsets,
            &self.obs_meas,
            self.num_observables,
            self.num_measurements,
        )?;
        Ok(())
    }

    /// Checks one CSR table: `rows + 1` monotone offsets ending at the entry
    /// count, every entry a valid measurement record.
    fn validate_csr(
        table: &str,
        offsets: &[u32],
        entries: &[u32],
        rows: usize,
        num_measurements: usize,
    ) -> Result<(), CircuitError> {
        if offsets.len() != rows + 1
            || offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().copied().unwrap_or(0) as usize != entries.len()
        {
            return Err(CircuitError::TableInconsistent {
                detail: format!(
                    "{table} offsets malformed ({rows} rows, {} entries)",
                    entries.len()
                ),
            });
        }
        for &m in entries {
            if m as usize >= num_measurements {
                return Err(CircuitError::RecordOutOfRange {
                    record: m,
                    num_measurements,
                });
            }
        }
        Ok(())
    }

    /// Samples one batch of [`BATCH`] shots into `events`, reusing its
    /// buffers. `state` carries the per-thread scratch.
    pub fn sample_batch_into<R: Rng>(
        &self,
        state: &mut FrameState,
        rng: &mut R,
        events: &mut BatchEvents,
    ) {
        self.sample_frames(
            state,
            std::array::from_mut(rng),
            std::array::from_mut(events),
            &mut Unweighted,
        );
    }

    /// Samples one batch of [`BATCH`] shots, allocating fresh events.
    pub fn sample_batch<R: Rng>(&self, state: &mut FrameState, rng: &mut R) -> BatchEvents {
        let mut events = BatchEvents::default();
        self.sample_batch_into(state, rng, &mut events);
        events
    }

    /// Samples [`LANES`] independent [`BATCH`]-shot batches in lockstep —
    /// the word-level wide path behind the LER engine's dense configs.
    ///
    /// Lane `l` consumes draws from `rngs[l]` in exactly the order
    /// [`Self::sample_batch_into`] would, so `events[l]` is **bit-identical**
    /// to a narrow call with that RNG: widening is purely an execution
    /// strategy, never a statistics change. What the lockstep buys is
    /// amortisation — one instruction-stream walk (decode, bounds checks,
    /// branch prediction) drives `LANES × 64` shots, and the per-qubit
    /// frame updates become fixed-size `[u64; LANES]` loops the compiler
    /// turns into vector ops. Noise sites remain per-lane serial (each
    /// lane's geometric skip depends on its own RNG stream), so the win
    /// concentrates where dense-circuit sampling spends its time: the gate
    /// conjugation sweep.
    pub fn sample_batches_wide_into<R: Rng>(
        &self,
        state: &mut WideFrameState,
        rngs: &mut [R; LANES],
        events: &mut [BatchEvents; LANES],
    ) {
        self.sample_frames(state, rngs, events, &mut Unweighted);
    }

    /// Samples `L` independent [`BATCH`]-shot batches in lockstep, lane `l`
    /// drawing from `rngs[l]` — the events are bit-identical to
    /// [`Self::sample_batch_into`] replays with those RNGs. On a boosted
    /// program (see [`CompiledCircuit::boosted`]) it also fills `llr[l][s]`
    /// with the log-likelihood ratio of lane `l`'s shot `s` against the
    /// nominal rates (`exp(llr[l][s])` is the shot's importance weight); the
    /// ratio accumulation consumes no RNG draws, so a β = 1 program yields
    /// `llr ≡ 0`. On a plain program `llr` is left untouched.
    pub fn sample_lanes_into<const L: usize, R: Rng>(
        &self,
        frames: &mut Frames<L>,
        rngs: &mut [R; L],
        events: &mut [BatchEvents; L],
        llr: &mut [[f64; BATCH]; L],
    ) {
        let Some(tables) = &self.llr else {
            return self.sample_frames(frames, rngs, events, &mut Unweighted);
        };
        for lane in llr.iter_mut() {
            lane.fill(tables.base);
        }
        let mut tally = Weighted {
            delta: &tables.delta,
            site: 0,
            d: 0.0,
            llr,
        };
        self.sample_frames(frames, rngs, events, &mut tally);
        debug_assert_eq!(
            tally.site,
            tables.delta.len(),
            "noise-site walk out of sync"
        );
    }

    /// The sampling kernel behind every public sampler: one walk over the
    /// program advancing `L` independent batches in lockstep, lane `l`
    /// consuming `rngs[l]` in exactly the interpreting sampler's draw
    /// order. Gate conjugation runs on whole `[u64; L]` rows; noise sites
    /// stay per-lane serial, because each lane's geometric skip depends on
    /// its own RNG stream. `tally` sees every noise site's per-lane fire
    /// words and draws nothing, so it cannot perturb the events.
    ///
    /// Lanes are visited by index rather than through `rngs.iter_mut()`:
    /// the indexed form lets the optimiser keep each lane's RNG state in
    /// registers for the whole walk, which the iterator form did not
    /// (about 5% slower single-batch sampling on x86-64).
    fn sample_frames<const L: usize, R: Rng, T: Tally>(
        &self,
        frames: &mut Frames<L>,
        rngs: &mut [R; L],
        events: &mut [BatchEvents; L],
        tally: &mut T,
    ) {
        debug_assert_eq!(frames.x.len(), self.num_qubits, "state/circuit mismatch");
        frames.x.fill([0; L]);
        frames.z.fill([0; L]);
        frames.meas.fill([0; L]);
        let x = &mut frames.x[..];
        let z = &mut frames.z[..];
        let meas = &mut frames.meas[..];
        let mut meas_cursor = 0usize;
        for instr in &self.instrs {
            match *instr {
                Instr::H(q) => {
                    let q = q as usize;
                    std::mem::swap(&mut x[q], &mut z[q]);
                }
                Instr::SGate(q) => {
                    let q = q as usize;
                    for l in 0..L {
                        z[q][l] ^= x[q][l];
                    }
                }
                Instr::Cx(a, b) => {
                    let (a, b) = (a as usize, b as usize);
                    let (xa, zb) = (x[a], z[b]);
                    for l in 0..L {
                        x[b][l] ^= xa[l];
                        z[a][l] ^= zb[l];
                    }
                }
                Instr::Cz(a, b) => {
                    let (a, b) = (a as usize, b as usize);
                    let (xa, xb) = (x[a], x[b]);
                    for l in 0..L {
                        z[a][l] ^= xb[l];
                        z[b][l] ^= xa[l];
                    }
                }
                Instr::Swap(a, b) => {
                    let (a, b) = (a as usize, b as usize);
                    x.swap(a, b);
                    z.swap(a, b);
                }
                Instr::Reset(q) => {
                    let q = q as usize;
                    x[q] = [0; L];
                    z[q] = [0; L];
                }
                Instr::Meas {
                    q,
                    basis,
                    flip,
                    l1p,
                } => {
                    let q = q as usize;
                    let mut flips = match basis {
                        Basis::Z => x[q],
                        Basis::X => z[q],
                    };
                    tally.next_site();
                    if flip > 0.0 {
                        for l in 0..L {
                            let fired = bernoulli_mask_with(flip, l1p, &mut rngs[l]);
                            flips[l] ^= fired;
                            tally.charge(l, fired);
                        }
                    }
                    meas[meas_cursor] = flips;
                    meas_cursor += 1;
                    // Collapse decorrelates the conjugate frame component:
                    // re-randomize it so later anticommutation is harmless.
                    let conj = match basis {
                        Basis::Z => &mut z[q],
                        Basis::X => &mut x[q],
                    };
                    for l in 0..L {
                        conj[l] = rngs[l].random::<u64>();
                    }
                }
                Instr::NoiseX { q, p, l1p } => {
                    let q = q as usize;
                    tally.next_site();
                    for l in 0..L {
                        let fired = bernoulli_mask_with(p, l1p, &mut rngs[l]);
                        x[q][l] ^= fired;
                        tally.charge(l, fired);
                    }
                }
                Instr::NoiseY { q, p, l1p } => {
                    let q = q as usize;
                    tally.next_site();
                    for l in 0..L {
                        let fired = bernoulli_mask_with(p, l1p, &mut rngs[l]);
                        x[q][l] ^= fired;
                        z[q][l] ^= fired;
                        tally.charge(l, fired);
                    }
                }
                Instr::NoiseZ { q, p, l1p } => {
                    let q = q as usize;
                    tally.next_site();
                    for l in 0..L {
                        let fired = bernoulli_mask_with(p, l1p, &mut rngs[l]);
                        z[q][l] ^= fired;
                        tally.charge(l, fired);
                    }
                }
                Instr::Dep1 { q, p, l1p } => {
                    let q = q as usize;
                    tally.next_site();
                    for l in 0..L {
                        let rng = &mut rngs[l];
                        let fired = bernoulli_mask_with(p, l1p, rng);
                        // The Pauli-choice draws are conditionally uniform and
                        // unchanged by boosting, so only the fire bits weigh in.
                        for_each_set_bit(fired, |s| {
                            let bit = 1u64 << s;
                            match Pauli::NON_IDENTITY[rng.random_range(0..3)] {
                                Pauli::X => x[q][l] ^= bit,
                                Pauli::Z => z[q][l] ^= bit,
                                Pauli::Y => {
                                    x[q][l] ^= bit;
                                    z[q][l] ^= bit;
                                }
                                Pauli::I => unreachable!(),
                            }
                        });
                        tally.charge(l, fired);
                    }
                }
                Instr::Dep2 { a, b, p, l1p } => {
                    let (a, b) = (a as usize, b as usize);
                    tally.next_site();
                    for l in 0..L {
                        let rng = &mut rngs[l];
                        let fired = bernoulli_mask_with(p, l1p, rng);
                        for_each_set_bit(fired, |s| {
                            let bit = 1u64 << s;
                            let (pa, pb) = two_qubit_pauli(rng.random_range(0..15));
                            for (q, pq) in [(a, pa), (b, pb)] {
                                if pq.has_x() {
                                    x[q][l] ^= bit;
                                }
                                if pq.has_z() {
                                    z[q][l] ^= bit;
                                }
                            }
                        });
                        tally.charge(l, fired);
                    }
                }
            }
        }
        // Detector/observable tables are resolved after the sweep: the
        // measurement words are final by then, and the table evaluation
        // consumes no RNG draws, preserving draw-order compatibility with
        // the interpreting sampler.
        resolve_parities(
            events.each_mut().map(|ev| &mut ev.detectors),
            &self.det_offsets,
            &self.det_meas,
            meas,
        );
        resolve_parities(
            events.each_mut().map(|ev| &mut ev.observables),
            &self.obs_offsets,
            &self.obs_meas,
            meas,
        );
    }

    /// Counts raw detector flips (one count per detector) over at least
    /// `min_shots` shots on `threads` worker threads (0 = auto, see
    /// [`resolve_threads`]); this is what crosstalk probes use — their
    /// "deviation" signal is one detector per probed qubit.
    ///
    /// Each 64-shot batch gets its own RNG stream derived from
    /// `(base_seed, batch index)`, and the per-detector sums are
    /// order-independent, so the result is identical at any thread count.
    pub fn count_detector_flips(
        &self,
        min_shots: usize,
        base_seed: u64,
        threads: usize,
    ) -> (usize, Vec<usize>) {
        let batches = min_shots.div_ceil(BATCH).max(1);
        let threads = resolve_threads(threads).min(batches);
        let next = AtomicUsize::new(0);
        let mut per_thread = vec![vec![0usize; self.num_detectors]; threads];
        std::thread::scope(|scope| {
            for counts in &mut per_thread {
                scope.spawn(|| {
                    let mut state = FrameState::new(self);
                    let mut events = BatchEvents::default();
                    loop {
                        let batch = next.fetch_add(1, Ordering::Relaxed);
                        if batch >= batches {
                            break;
                        }
                        let mut rng = StdRng::seed_from_u64(chunk_seed(base_seed, batch as u64));
                        self.sample_batch_into(&mut state, &mut rng, &mut events);
                        for (c, w) in counts.iter_mut().zip(&events.detectors) {
                            *c += w.count_ones() as usize;
                        }
                    }
                });
            }
        });
        let mut totals = vec![0usize; self.num_detectors];
        for counts in &per_thread {
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
        (batches * BATCH, totals)
    }
}

/// Refills each lane's `outs[l]` with one parity word per row of the CSR
/// table `(offsets, entries)`: the XOR of lane `l` of every measurement row
/// the table row lists.
fn resolve_parities<const L: usize>(
    mut outs: [&mut Vec<u64>; L],
    offsets: &[u32],
    entries: &[u32],
    meas: &[[u64; L]],
) {
    for out in outs.iter_mut() {
        out.clear();
        out.reserve(offsets.len().saturating_sub(1));
    }
    for w in offsets.windows(2) {
        let mut acc = [0u64; L];
        for &m in &entries[w[0] as usize..w[1] as usize] {
            let row = &meas[m as usize];
            for l in 0..L {
                acc[l] ^= row[l];
            }
        }
        for l in 0..L {
            outs[l].push(acc[l]);
        }
    }
}

/// Number of 64-shot batches [`CompiledCircuit::sample_batches_wide_into`]
/// samples in lockstep (`LANES × 64 = 256` shots per wide call). Four
/// `u64` words fill one 256-bit vector register on the targets this
/// workspace cares about, while staying portable scalar code everywhere
/// else.
pub const LANES: usize = 4;

/// Per-thread mutable scratch for sampling `L` batches in lockstep from a
/// [`CompiledCircuit`]: one `[u64; L]` row of frame words per qubit and of
/// flip words per measurement record, lane `l` belonging to the `l`-th
/// batch of the group. Cheap to create, reused across calls.
#[derive(Clone, Debug)]
pub struct Frames<const L: usize> {
    /// X-frame row per qubit.
    x: Vec<[u64; L]>,
    /// Z-frame row per qubit.
    z: Vec<[u64; L]>,
    /// Measurement-record flip row per measurement.
    meas: Vec<[u64; L]>,
}

impl<const L: usize> Frames<L> {
    /// Creates scratch sized for `compiled`.
    pub fn new(compiled: &CompiledCircuit) -> Frames<L> {
        Frames {
            x: vec![[0; L]; compiled.num_qubits],
            z: vec![[0; L]; compiled.num_qubits],
            meas: vec![[0; L]; compiled.num_measurements],
        }
    }
}

/// Scratch for single-batch sampling ([`CompiledCircuit::sample_batch_into`]).
pub type FrameState = Frames<1>;

/// Scratch for [`LANES`]-wide lockstep sampling
/// ([`CompiledCircuit::sample_batches_wide_into`]).
pub type WideFrameState = Frames<LANES>;

/// Derives the RNG seed for one work chunk from a base seed, so chunk
/// streams are decorrelated but fully determined by `(base_seed, index)`.
///
/// This is the seeding contract shared by every parallel sampler in the
/// workspace: results must depend only on the base seed, never on the
/// thread count or scheduling order.
pub fn chunk_seed(base_seed: u64, chunk_index: u64) -> u64 {
    // SplitMix64 finalizer over a golden-ratio-stepped counter.
    let mut s = base_seed ^ chunk_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    s ^ (s >> 31)
}

/// Resolves a requested worker-thread count: `0` means "use the
/// `CALIQEC_THREADS` environment variable if set, else all available
/// parallelism"; any other value is taken as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("CALIQEC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Basis, Circuit, Gate1, Gate2, Noise1, Noise2};
    use crate::frame::InterpretingSampler;

    /// A circuit exercising every instruction kind.
    fn kitchen_sink() -> Circuit {
        let mut c = Circuit::new(4);
        c.reset(Basis::Z, &[0, 1, 2, 3]);
        c.g1(Gate1::H, 0);
        c.g1(Gate1::S, 1);
        c.g1(Gate1::SDag, 2);
        c.g1(Gate1::X, 3); // compiles to nothing
        c.noise1(Noise1::XError, 0.1, &[0, 1]);
        c.noise1(Noise1::YError, 0.05, &[2]);
        c.noise1(Noise1::ZError, 0.2, &[3]);
        c.noise1(Noise1::Depolarize1, 0.15, &[0, 3]);
        c.noise2(Noise2::Depolarize2, 0.1, &[(0, 1), (2, 3)]);
        c.g2(Gate2::Cx, 0, 1);
        c.g2(Gate2::Cz, 1, 2);
        c.g2(Gate2::Swap, 2, 3);
        c.g1(Gate1::H, 0);
        let m0 = c.measure(0, Basis::Z, 0.02);
        let m1 = c.measure(1, Basis::X, 0.0);
        let m2 = c.measure(2, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1, m2]);
        c.observable(0, &[m0]);
        c.observable(0, &[m2]); // second contribution to the same observable
        c.observable(1, &[m1]);
        c
    }

    /// One weighted single-batch draw through the 1-lane instantiation.
    fn sample_weighted(
        prog: &CompiledCircuit,
        state: &mut FrameState,
        rng: &mut StdRng,
        events: &mut BatchEvents,
        llr: &mut [f64; BATCH],
    ) {
        prog.sample_lanes_into(
            state,
            std::array::from_mut(rng),
            std::array::from_mut(events),
            std::array::from_mut(llr),
        );
    }

    /// Replays four consecutive `L`-lane `sample` calls per seed against one
    /// [`InterpretingSampler`] per lane, each lane's RNG seeded as its
    /// interpreter's. Every lane's events must match the interpreter's;
    /// with `unit_weights`, every log-likelihood ratio must be exactly 0.
    fn assert_replays_interpreter<const L: usize>(
        c: &Circuit,
        unit_weights: bool,
        mut sample: impl FnMut(&mut [StdRng; L], &mut [BatchEvents; L], &mut [[f64; BATCH]; L]),
    ) {
        let mut events: [BatchEvents; L] = std::array::from_fn(|_| BatchEvents::default());
        let mut llr = [[f64::NAN; BATCH]; L];
        for seed in 0..20 {
            let lane_rng = |l: usize| StdRng::seed_from_u64(chunk_seed(seed, l as u64));
            let mut rngs: [StdRng; L] = std::array::from_fn(lane_rng);
            let mut oracles: [(InterpretingSampler, StdRng); L] =
                std::array::from_fn(|l| (InterpretingSampler::new(c), lane_rng(l)));
            for batch in 0..4 {
                llr.fill([f64::NAN; BATCH]);
                sample(&mut rngs, &mut events, &mut llr);
                for (l, (interp, rng)) in oracles.iter_mut().enumerate() {
                    let want = interp.sample_batch(rng);
                    let at = format!("L={L} seed {seed} lane {l} batch {batch}");
                    assert_eq!(want.detectors, events[l].detectors, "{at}");
                    assert_eq!(want.observables, events[l].observables, "{at}");
                    if unit_weights {
                        assert!(llr[l].iter().all(|&v| v == 0.0), "{at}: llr not 0");
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_matches_interpreter_exactly() {
        // The interpreter is the oracle for every kernel instantiation:
        // 1 lane and LANES lanes, nominal and weighted. β = 1 never changes
        // a rate, so the weighted program must replay the interpreter's RNG
        // stream bit for bit with llr ≡ 0 — the identity the engine's
        // weight ≡ 1 fast path rests on. kitchen_sink includes p up to 0.2
        // and a flip=0 measurement, covering the rate-untouched special
        // case at every instruction kind.
        let c = kitchen_sink();
        let plain = CompiledCircuit::new(&c);
        let mut state = FrameState::new(&plain);
        assert_replays_interpreter::<1>(&c, false, |[rng], [events], _| {
            plain.sample_batch_into(&mut state, rng, events)
        });
        let mut wide = WideFrameState::new(&plain);
        assert_replays_interpreter::<LANES>(&c, false, |rngs, events, _| {
            plain.sample_batches_wide_into(&mut wide, rngs, events)
        });
        let unit = plain.boosted(1.0);
        assert_eq!(unit.boost_beta(), 1.0);
        let mut state = FrameState::new(&unit);
        assert_replays_interpreter::<1>(&c, true, |rngs, events, llr| {
            unit.sample_lanes_into(&mut state, rngs, events, llr)
        });
        let mut wide = WideFrameState::new(&unit);
        assert_replays_interpreter::<LANES>(&c, true, |rngs, events, llr| {
            unit.sample_lanes_into(&mut wide, rngs, events, llr)
        });
    }

    #[test]
    fn wide_lanes_are_bit_identical_to_narrow_batches() {
        // The wide sampler's contract: lane l with rngs[l] produces exactly
        // the events a narrow sample_batch_into would with that RNG, batch
        // after batch — widening is an execution strategy, not a statistics
        // change.
        let c = kitchen_sink();
        let compiled = CompiledCircuit::new(&c);
        let mut wide = WideFrameState::new(&compiled);
        let mut narrow = FrameState::new(&compiled);
        for seed in 0..8 {
            let mut wide_rngs: [StdRng; LANES] =
                std::array::from_fn(|l| StdRng::seed_from_u64(chunk_seed(seed, l as u64)));
            let mut narrow_rngs: [StdRng; LANES] =
                std::array::from_fn(|l| StdRng::seed_from_u64(chunk_seed(seed, l as u64)));
            let mut wide_events: [BatchEvents; LANES] = Default::default();
            // Multiple wide calls per seed prove the lanes' RNG streams
            // carry over between lockstep groups exactly like narrow ones.
            for batch in 0..3 {
                compiled.sample_batches_wide_into(&mut wide, &mut wide_rngs, &mut wide_events);
                for (l, rng) in narrow_rngs.iter_mut().enumerate() {
                    let narrow_ev = compiled.sample_batch(&mut narrow, rng);
                    assert_eq!(
                        narrow_ev.detectors, wide_events[l].detectors,
                        "seed {seed} lane {l} batch {batch} detectors"
                    );
                    assert_eq!(
                        narrow_ev.observables, wide_events[l].observables,
                        "seed {seed} lane {l} batch {batch} observables"
                    );
                }
            }
        }
    }

    #[test]
    fn counters_carry_over() {
        let c = kitchen_sink();
        let compiled = CompiledCircuit::new(&c);
        assert_eq!(compiled.num_qubits(), 4);
        assert_eq!(compiled.num_measurements(), 3);
        assert_eq!(compiled.num_detectors(), 2);
        assert_eq!(compiled.num_observables(), 2);
    }

    #[test]
    fn parallel_detector_counts_are_thread_count_independent() {
        let mut c = Circuit::new(2);
        c.reset(Basis::Z, &[0, 1]);
        c.noise1(Noise1::XError, 0.2, &[0, 1]);
        let m0 = c.measure(0, Basis::Z, 0.0);
        let m1 = c.measure(1, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        let compiled = CompiledCircuit::new(&c);
        let (shots1, counts1) = compiled.count_detector_flips(1000, 7, 1);
        let (shots4, counts4) = compiled.count_detector_flips(1000, 7, 4);
        assert_eq!(shots1, shots4);
        assert_eq!(counts1, counts4);
        let frac = counts1[1] as f64 / shots1 as f64;
        assert!((frac - 0.2).abs() < 0.05, "flip fraction {frac}");
    }

    #[test]
    fn chunk_seed_decorrelates() {
        let a = chunk_seed(1, 0);
        let b = chunk_seed(1, 1);
        let c = chunk_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And is a pure function.
        assert_eq!(chunk_seed(1, 0), a);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn validate_accepts_compiled_builder_output() {
        let compiled = CompiledCircuit::new(&kitchen_sink());
        assert!(compiled.validate().is_ok());
    }

    #[test]
    fn validate_catches_malformed_programs() {
        use crate::circuit::{MeasIdx, Op};

        // Out-of-range qubit reaches the compiled program via from_ops.
        let c = Circuit::from_ops(1, vec![Op::G1(Gate1::H, vec![9])]);
        let compiled = CompiledCircuit::new(&c);
        assert!(matches!(
            compiled.validate(),
            Err(crate::CircuitError::QubitOutOfRange { qubit: 9, .. })
        ));

        // Bad noise probability.
        let c = Circuit::from_ops(1, vec![Op::Noise1(Noise1::XError, -0.5, vec![0])]);
        let compiled = CompiledCircuit::new(&c);
        assert!(matches!(
            compiled.validate(),
            Err(crate::CircuitError::BadProbability { .. })
        ));

        // Detector over a nonexistent record.
        let c = Circuit::from_ops(1, vec![Op::Detector(vec![MeasIdx(5)])]);
        let compiled = CompiledCircuit::new(&c);
        assert!(matches!(
            compiled.validate(),
            Err(crate::CircuitError::RecordOutOfRange { record: 5, .. })
        ));
    }

    #[test]
    fn wide_weighted_matches_narrow_weighted() {
        // Same lockstep contract as the unweighted wide sampler, extended to
        // the ratio accumulators: lane l's events AND llr must equal a
        // narrow weighted replay with rngs[l]. β > 1 has no interpreter
        // oracle, so the two weighted instantiations check each other.
        let c = kitchen_sink();
        let boosted = CompiledCircuit::new(&c).boosted(2.5);
        let mut wide = WideFrameState::new(&boosted);
        let mut narrow = FrameState::new(&boosted);
        let mut narrow_ev = BatchEvents::default();
        let mut narrow_llr = [0.0f64; BATCH];
        for seed in 0..6 {
            let mut wide_rngs: [StdRng; LANES] =
                std::array::from_fn(|l| StdRng::seed_from_u64(chunk_seed(seed, l as u64)));
            let mut narrow_rngs: [StdRng; LANES] =
                std::array::from_fn(|l| StdRng::seed_from_u64(chunk_seed(seed, l as u64)));
            let mut wide_events: [BatchEvents; LANES] = Default::default();
            let mut wide_llr = [[0.0f64; BATCH]; LANES];
            for batch in 0..3 {
                boosted.sample_lanes_into(
                    &mut wide,
                    &mut wide_rngs,
                    &mut wide_events,
                    &mut wide_llr,
                );
                for (l, rng) in narrow_rngs.iter_mut().enumerate() {
                    sample_weighted(&boosted, &mut narrow, rng, &mut narrow_ev, &mut narrow_llr);
                    assert_eq!(
                        narrow_ev.detectors, wide_events[l].detectors,
                        "seed {seed} lane {l} batch {batch} detectors"
                    );
                    assert_eq!(
                        narrow_ev.observables, wide_events[l].observables,
                        "seed {seed} lane {l} batch {batch} observables"
                    );
                    assert_eq!(
                        narrow_llr, wide_llr[l],
                        "seed {seed} lane {l} batch {batch} llr"
                    );
                }
            }
        }
    }

    #[test]
    fn importance_weights_are_unbiased() {
        // One qubit, one X channel at p, observable = its measurement: the
        // raw flip probability is exactly p. Sampling at β·p and averaging
        // w·flip must recover p — the estimator the engine builds on.
        let p = 0.02;
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::XError, p, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.observable(0, &[m]);
        let boosted = CompiledCircuit::new(&c).boosted(8.0);
        assert!(boosted.is_boosted());
        let mut state = FrameState::new(&boosted);
        let mut ev = BatchEvents::default();
        let mut llr = [0.0f64; BATCH];
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        let (mut sum_wf, mut shots) = (0.0f64, 0u64);
        for _ in 0..4000 {
            sample_weighted(&boosted, &mut state, &mut rng, &mut ev, &mut llr);
            let flips = ev.observables[0];
            for (s, lr) in llr.iter().enumerate() {
                if flips >> s & 1 == 1 {
                    sum_wf += lr.exp();
                }
            }
            shots += BATCH as u64;
        }
        let est = sum_wf / shots as f64;
        assert!(
            (est - p).abs() < 0.15 * p,
            "weighted estimate {est} vs true {p}"
        );
    }

    #[test]
    fn rate_table_boosting_composes() {
        // boosted_with_rates treats the RateTable as the nominal truth: at
        // β=1 the program fires at the table's rates with llr ≡ 0 (an
        // epoch reweight, no importance sampling); at β>1 the weighted
        // estimator still recovers the table rate.
        let mut c = Circuit::new(1);
        c.reset(Basis::Z, &[0]);
        c.noise1(Noise1::XError, 0.05, &[0]);
        let m = c.measure(0, Basis::Z, 0.0);
        c.observable(0, &[m]);
        let compiled = CompiledCircuit::new(&c);
        let mut table = RateTable::identity();
        table.set(ErrorSource::Noise1(Noise1::XError, 0), 0.2);

        let run = |prog: &CompiledCircuit, seed: u64| {
            let mut state = FrameState::new(prog);
            let mut ev = BatchEvents::default();
            let mut llr = [0.0f64; BATCH];
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut raw, mut weighted, mut shots) = (0u64, 0.0f64, 0u64);
            let mut llr_all_zero = true;
            for _ in 0..2000 {
                sample_weighted(prog, &mut state, &mut rng, &mut ev, &mut llr);
                let flips = ev.observables[0];
                raw += flips.count_ones() as u64;
                for (s, lr) in llr.iter().enumerate() {
                    llr_all_zero &= *lr == 0.0;
                    if flips >> s & 1 == 1 {
                        weighted += lr.exp();
                    }
                }
                shots += BATCH as u64;
            }
            (
                raw as f64 / shots as f64,
                weighted / shots as f64,
                llr_all_zero,
            )
        };

        // β=1: pure reweight — fires at 0.2, no ratio terms.
        let (raw, weighted, zero) = run(&compiled.boosted_with_rates(1.0, &table), 11);
        assert!(zero, "β=1 reweight must leave llr exactly 0");
        assert!((raw - 0.2).abs() < 0.01, "raw rate {raw} vs table 0.2");
        assert!((weighted - 0.2).abs() < 0.01);

        // β=2: fires at 0.4, weighted estimate recovers the table's 0.2.
        let (raw, weighted, _) = run(&compiled.boosted_with_rates(2.0, &table), 12);
        assert!((raw - 0.4).abs() < 0.01, "boosted raw rate {raw} vs 0.4");
        assert!(
            (weighted - 0.2).abs() < 0.015,
            "weighted estimate {weighted} vs nominal 0.2"
        );
    }
}
