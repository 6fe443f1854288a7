//! Incremental round-by-round syndrome ingestion into decode windows.
//!
//! The batch engine samples a whole circuit execution at once and hands the
//! decoder one [`BatchEvents`] per chunk. A streaming service instead
//! receives detector events *round by round* — a hardware readout line
//! delivers one round's worth of detector words at a time — and must
//! reassemble them into decode windows before any decoder can run.
//!
//! [`WindowBuilder`] is that reassembly buffer: rounds are appended in
//! arrival order and, once they tile the window's detector count exactly,
//! the completed window is swapped out as a [`BatchEvents`] (detector
//! words only; a round stream carries no observable readout). All buffers
//! are reused, so the steady-state ingestion cost is one `memcpy` per
//! round and zero allocations — the same discipline as the
//! [`SparseBatch`](crate::SparseBatch) extraction path downstream.
//!
//! [`RoundStream`] is the loopback source used by tests and the CLI
//! `serve` command: it samples a circuit through the compiled Pauli-frame
//! sampler and replays each 64-shot batch as a sequence of rounds, so a
//! full service stack can be driven deterministically from a seed with no
//! hardware in the loop.

use crate::circuit::Circuit;
use crate::compiled::{CompiledCircuit, FrameState};
use crate::frame::BatchEvents;
use rand::Rng;
use std::fmt;

/// A round that cannot be appended to the current window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowError {
    /// The round carried no detector words.
    EmptyRound,
    /// The round would run past the window boundary: rounds must tile the
    /// window's detector count exactly.
    Misaligned {
        /// Detector words already buffered in the open window.
        buffered: usize,
        /// Detector words in the offending round.
        round: usize,
        /// Detector words per complete window.
        window: usize,
    },
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::EmptyRound => write!(f, "round carries no detector words"),
            WindowError::Misaligned {
                buffered,
                round,
                window,
            } => write!(
                f,
                "round of {round} detectors overruns the window boundary \
                 ({buffered} of {window} buffered)"
            ),
        }
    }
}

impl std::error::Error for WindowError {}

/// Reassembles per-round detector words into fixed-size decode windows.
///
/// Each pushed round is a slice of detector words (bit `s` of word `d` =
/// detector `d` fired in shot lane `s`, exactly as in [`BatchEvents`]).
/// Rounds may vary in length; they must tile the window's total detector
/// count exactly, which [`round_bounds`] guarantees for any even split.
///
/// # Examples
///
/// ```
/// use caliqec_stab::{BatchEvents, WindowBuilder};
///
/// let mut wb = WindowBuilder::new(5);
/// assert!(!wb.push_round(&[1, 2]).unwrap());
/// assert!(wb.push_round(&[3, 4, 5]).unwrap()); // window complete
/// let mut window = BatchEvents::default();
/// wb.finish_window(&mut window);
/// assert_eq!(window.detectors, [1, 2, 3, 4, 5]);
/// assert_eq!(wb.detectors_buffered(), 0); // builder reset for the next window
/// ```
#[derive(Clone, Debug)]
pub struct WindowBuilder {
    window_detectors: usize,
    events: BatchEvents,
    rounds: usize,
}

impl WindowBuilder {
    /// A builder for windows of `window_detectors` detector words (the
    /// decoder graph's detector count).
    ///
    /// # Panics
    ///
    /// Panics if `window_detectors` is zero.
    pub fn new(window_detectors: usize) -> WindowBuilder {
        assert!(window_detectors > 0, "window must hold at least 1 detector");
        WindowBuilder {
            window_detectors,
            events: BatchEvents::default(),
            rounds: 0,
        }
    }

    /// Detector words per complete window.
    pub fn window_detectors(&self) -> usize {
        self.window_detectors
    }

    /// Rounds buffered in the currently open window.
    pub fn rounds_buffered(&self) -> usize {
        self.rounds
    }

    /// Detector words buffered in the currently open window.
    pub fn detectors_buffered(&self) -> usize {
        self.events.detectors.len()
    }

    /// Appends one round. Returns `Ok(true)` when the window is now
    /// complete and ready for [`Self::finish_window`].
    pub fn push_round(&mut self, round: &[u64]) -> Result<bool, WindowError> {
        if round.is_empty() {
            return Err(WindowError::EmptyRound);
        }
        let buffered = self.events.detectors.len();
        if buffered + round.len() > self.window_detectors {
            return Err(WindowError::Misaligned {
                buffered,
                round: round.len(),
                window: self.window_detectors,
            });
        }
        self.events.detectors.extend_from_slice(round);
        self.rounds += 1;
        Ok(self.events.detectors.len() == self.window_detectors)
    }

    /// Swaps the completed window into `out` (its previous buffers come
    /// back for reuse) and resets the builder for the next window. The
    /// window's `observables` are left empty: a round stream carries no
    /// observable readout.
    ///
    /// # Panics
    ///
    /// Panics if the window is not complete.
    pub fn finish_window(&mut self, out: &mut BatchEvents) {
        assert_eq!(
            self.events.detectors.len(),
            self.window_detectors,
            "finish_window on an incomplete window"
        );
        std::mem::swap(out, &mut self.events);
        out.observables.clear();
        self.events.detectors.clear();
        self.events.observables.clear();
        self.rounds = 0;
    }
}

/// The half-open detector range `[lo, hi)` of round `i` when `total`
/// detectors are split into `rounds` nearly-equal contiguous rounds.
///
/// Uses the exact integer partition `lo = i * total / rounds`, so the
/// rounds tile `[0, total)` with sizes differing by at most one — every
/// split produced here satisfies [`WindowBuilder::push_round`]'s tiling
/// requirement.
pub fn round_bounds(total: usize, rounds: usize, i: usize) -> (usize, usize) {
    assert!(rounds > 0 && i < rounds);
    (i * total / rounds, (i + 1) * total / rounds)
}

/// Deterministic loopback round source: samples a circuit batch-by-batch
/// and replays each 64-shot batch as `rounds_per_window` consecutive
/// rounds, window after window.
///
/// One sampled batch is one window, so the stream's window `w` is a pure
/// function of `(circuit, seed)` — independent of how fast rounds are
/// drained — which is what makes golden-replay testing of a streaming
/// service possible.
#[derive(Debug)]
pub struct RoundStream {
    compiled: CompiledCircuit,
    state: FrameState,
    events: BatchEvents,
    rounds_per_window: usize,
    /// Next round index within the current window; `rounds_per_window`
    /// forces a fresh batch on the next call.
    cursor: usize,
    windows_sampled: u64,
}

impl RoundStream {
    /// A round stream over `circuit` emitting `rounds_per_window` rounds
    /// per sampled window. Rounds that would come out empty (more rounds
    /// than detectors) are rejected up front.
    ///
    /// # Panics
    ///
    /// Panics if `rounds_per_window` is zero or exceeds the circuit's
    /// detector count.
    pub fn new(circuit: &Circuit, rounds_per_window: usize) -> RoundStream {
        let compiled = CompiledCircuit::new(circuit);
        assert!(
            rounds_per_window > 0 && rounds_per_window <= compiled.num_detectors(),
            "rounds_per_window must be in 1..={}",
            compiled.num_detectors()
        );
        let state = FrameState::new(&compiled);
        RoundStream {
            compiled,
            state,
            events: BatchEvents::default(),
            rounds_per_window,
            cursor: rounds_per_window,
            windows_sampled: 0,
        }
    }

    /// Detector words per complete window (the circuit's detector count).
    pub fn window_detectors(&self) -> usize {
        self.compiled.num_detectors()
    }

    /// Rounds per window, as configured.
    pub fn rounds_per_window(&self) -> usize {
        self.rounds_per_window
    }

    /// Complete windows sampled so far.
    pub fn windows_sampled(&self) -> u64 {
        self.windows_sampled
    }

    /// The next round's detector words, sampling a fresh 64-shot window
    /// when the previous one is exhausted. Returns `(round_in_window,
    /// words)`; `round_in_window == 0` marks a window boundary.
    pub fn next_round<R: Rng>(&mut self, rng: &mut R) -> (usize, &[u64]) {
        if self.cursor == self.rounds_per_window {
            self.compiled
                .sample_batch_into(&mut self.state, rng, &mut self.events);
            self.cursor = 0;
            self.windows_sampled += 1;
        }
        let i = self.cursor;
        self.cursor += 1;
        let (lo, hi) = round_bounds(self.compiled.num_detectors(), self.rounds_per_window, i);
        (i, &self.events.detectors[lo..hi])
    }

    /// The observable event words of the most recently sampled window
    /// (the ground truth a loopback harness scores decode masks against).
    pub fn window_observables(&self) -> &[u64] {
        &self.events.observables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Basis, Noise1};
    use crate::frame::FrameSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.reset(Basis::Z, &[0, 1, 2]);
        c.noise1(Noise1::XError, 0.3, &[0, 1, 2]);
        let m0 = c.measure(0, Basis::Z, 0.0);
        let m1 = c.measure(1, Basis::Z, 0.0);
        let m2 = c.measure(2, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        c.detector(&[m2]);
        c.detector(&[m0, m1]);
        c.detector(&[m1, m2]);
        c.observable(0, &[m0]);
        c
    }

    #[test]
    fn round_bounds_tile_exactly() {
        for total in 1..40usize {
            for rounds in 1..=total {
                let mut covered = 0;
                for i in 0..rounds {
                    let (lo, hi) = round_bounds(total, rounds, i);
                    assert_eq!(lo, covered, "gap at round {i}");
                    assert!(hi > lo || total < rounds, "empty round {i}");
                    covered = hi;
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn builder_rejects_misaligned_and_empty_rounds() {
        let mut wb = WindowBuilder::new(4);
        assert_eq!(wb.push_round(&[]), Err(WindowError::EmptyRound));
        assert_eq!(wb.push_round(&[1, 2, 3]), Ok(false));
        assert_eq!(
            wb.push_round(&[4, 5]),
            Err(WindowError::Misaligned {
                buffered: 3,
                round: 2,
                window: 4,
            })
        );
        // The failed push left the buffer untouched.
        assert_eq!(wb.detectors_buffered(), 3);
        assert_eq!(wb.push_round(&[4]), Ok(true));
    }

    #[test]
    fn builder_reassembles_windows_and_reuses_buffers() {
        let mut wb = WindowBuilder::new(5);
        let mut out = BatchEvents::default();
        for window in 0u64..3 {
            for i in 0..5 {
                let complete = wb.push_round(&[window * 10 + i]).unwrap();
                assert_eq!(complete, i == 4);
            }
            assert_eq!(wb.rounds_buffered(), 5);
            wb.finish_window(&mut out);
            let expect: Vec<u64> = (0..5).map(|i| window * 10 + i).collect();
            assert_eq!(out.detectors, expect);
            assert!(out.observables.is_empty());
            assert_eq!(wb.rounds_buffered(), 0);
        }
    }

    #[test]
    fn round_stream_reassembles_to_sampled_batches() {
        // Streaming rounds through a WindowBuilder must reproduce, window
        // by window, exactly what the batch sampler produces from the same
        // seed: the round split is pure plumbing.
        let c = tiny_circuit();
        for rounds in [1, 2, 5] {
            let mut stream = RoundStream::new(&c, rounds);
            let mut wb = WindowBuilder::new(stream.window_detectors());
            let mut rng = StdRng::seed_from_u64(7);
            let mut reference = FrameSampler::new(&c);
            let mut ref_rng = StdRng::seed_from_u64(7);
            let mut window = BatchEvents::default();
            for w in 0..4u64 {
                for i in 0..rounds {
                    let (idx, words) = stream.next_round(&mut rng);
                    assert_eq!(idx, i);
                    let complete = wb.push_round(words).unwrap();
                    assert_eq!(complete, i + 1 == rounds);
                }
                wb.finish_window(&mut window);
                let expect = ref_rng_batch(&mut reference, &mut ref_rng);
                assert_eq!(window.detectors, expect.detectors, "window {w}");
                assert_eq!(stream.window_observables(), &expect.observables[..]);
                assert_eq!(stream.windows_sampled(), w + 1);
            }
        }
    }

    fn ref_rng_batch(sampler: &mut FrameSampler, rng: &mut StdRng) -> BatchEvents {
        sampler.sample_batch(rng)
    }
}
