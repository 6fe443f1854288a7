//! Decoder interface and Monte-Carlo logical-error-rate estimation.

use crate::engine::estimate_ler_seeded;
use crate::graph::{MatchingGraph, NodeId};
use caliqec_stab::{extract_dem, Circuit, CompiledCircuit};
use rand::Rng;

/// A syndrome decoder: maps a set of fired detectors to a predicted logical
/// observable flip mask.
pub trait Decoder {
    /// Decodes `defects` (indices of fired detectors) to the bitmask of
    /// logical observables predicted to have flipped.
    ///
    /// The result must depend on `defects` alone, never on earlier calls:
    /// the engine hands chunks to whichever worker is free and decodes a
    /// window's shots in tier order, not shot order.
    fn decode(&mut self, defects: &[NodeId]) -> u64;
}

impl<D: Decoder + ?Sized> Decoder for &mut D {
    fn decode(&mut self, defects: &[NodeId]) -> u64 {
        (**self).decode(defects)
    }
}

/// Result of a Monte-Carlo logical-error-rate estimation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LerEstimate {
    /// Number of shots sampled.
    pub shots: usize,
    /// Number of shots whose residual (post-correction) observable flipped.
    pub failures: usize,
}

impl LerEstimate {
    /// Logical error probability per shot.
    pub fn per_shot(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.failures as f64 / self.shots as f64
    }

    /// Logical error probability per round, assuming `rounds` independent
    /// opportunities per shot: `1 - (1 - p_shot)^(1/rounds)`.
    pub fn per_round(&self, rounds: usize) -> f64 {
        let p = self.per_shot().min(0.5);
        if rounds <= 1 {
            return p;
        }
        1.0 - (1.0 - p).powf(1.0 / rounds as f64)
    }

    /// Standard error of the per-shot estimate (binomial).
    pub fn std_err(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let p = self.per_shot();
        (p * (1.0 - p) / self.shots as f64).sqrt()
    }
}

/// Options controlling [`estimate_ler`] and [`crate::LerEngine::try_run`].
///
/// # `max_failures` / `max_shots` interaction
///
/// - `max_shots == 0` means "sample exactly `min_shots`" (rounded up to
///   whole 64-shot batches); `max_failures` may still cut the run short.
/// - `max_shots > 0` extends the budget past `min_shots` while chasing
///   `max_failures`: sampling proceeds until either the cumulative failure
///   count reaches `max_failures` or `max_shots` is exhausted.
/// - Early-stopping is resolved at *chunk* granularity (a deterministic
///   group of batches — see [`crate::LerEngine`]): the reported `shots`
///   counts **all decoded batches** of every chunk up to and including the
///   one at which the failure budget was met, so the estimate is an
///   unbiased ratio over everything that was decoded and counted.
#[derive(Clone, Copy, Debug)]
pub struct SampleOptions {
    /// Minimum number of shots (rounded up to whole 64-shot batches).
    pub min_shots: usize,
    /// Stop early once this many failures have been observed (0 = never).
    pub max_failures: usize,
    /// Hard cap on shots when chasing `max_failures` (0 = `min_shots`).
    pub max_shots: usize,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions {
            min_shots: 10_000,
            max_failures: 0,
            max_shots: 0,
        }
    }
}

/// Estimates the residual logical error rate of `circuit` under `decoder`.
///
/// For each sampled shot, the fired detectors are decoded and the predicted
/// observable mask is compared with the actual one; a mismatch in any
/// observable bit counts as a failure.
///
/// This is a thin single-threaded wrapper over the chunked schedule of
/// [`crate::LerEngine`]: it draws a 64-bit base seed from `rng` and runs
/// [`estimate_ler_seeded`] on the calling thread, so
/// `LerEngine::estimate(..)` with the same options and base seed returns
/// the identical [`LerEstimate`] at any thread count.
///
/// # Examples
///
/// ```
/// use caliqec_match::{estimate_ler, MatchingGraph, SampleOptions, UnionFindDecoder};
/// use caliqec_stab::{Basis, Circuit, Noise1, extract_dem};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 0.01, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
/// c.observable(0, &[m]);
///
/// let mut dec = UnionFindDecoder::new(MatchingGraph::from_dem(&extract_dem(&c)));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let est = estimate_ler(&c, &mut dec, SampleOptions { min_shots: 640, ..Default::default() }, &mut rng);
/// // A single perfectly-heralded error is always corrected.
/// assert_eq!(est.failures, 0);
/// ```
pub fn estimate_ler<D: Decoder, R: Rng>(
    circuit: &Circuit,
    decoder: &mut D,
    options: SampleOptions,
    rng: &mut R,
) -> LerEstimate {
    let compiled = CompiledCircuit::new(circuit);
    let base_seed: u64 = rng.random();
    estimate_ler_seeded(&compiled, decoder, options, base_seed)
}

/// Convenience: builds a matching graph for `circuit` by extracting its DEM.
pub fn graph_for_circuit(circuit: &Circuit) -> MatchingGraph {
    MatchingGraph::from_dem(&extract_dem(circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unionfind::UnionFindDecoder;
    use caliqec_stab::{Basis, Noise1};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Distance-n repetition code, single round, X noise.
    fn rep_circuit(n: usize, p: f64) -> Circuit {
        let data: Vec<u32> = (0..n as u32).collect();
        let anc: Vec<u32> = (n as u32..(2 * n - 1) as u32).collect();
        let mut c = Circuit::new(2 * n - 1);
        c.reset(Basis::Z, &(0..(2 * n - 1) as u32).collect::<Vec<_>>());
        c.noise1(Noise1::XError, p, &data);
        for i in 0..n - 1 {
            c.cx(data[i], anc[i]);
            c.cx(data[i + 1], anc[i]);
        }
        let ms: Vec<_> = anc.iter().map(|&a| c.measure(a, Basis::Z, 0.0)).collect();
        for m in &ms {
            c.detector(&[*m]);
        }
        // Logical observable: majority-protected bit, read from qubit 0 and
        // corrected by the decoder.
        let md = c.measure(data[0], Basis::Z, 0.0);
        c.observable(0, &[md]);
        c
    }

    #[test]
    fn repetition_code_suppresses_errors() {
        let p = 0.05;
        let mut rng = StdRng::seed_from_u64(9);
        let c3 = rep_circuit(3, p);
        let c7 = rep_circuit(7, p);
        let mut d3 = UnionFindDecoder::new(graph_for_circuit(&c3));
        let mut d7 = UnionFindDecoder::new(graph_for_circuit(&c7));
        let opts = SampleOptions {
            min_shots: 20_000,
            ..Default::default()
        };
        let e3 = estimate_ler(&c3, &mut d3, opts, &mut rng);
        let e7 = estimate_ler(&c7, &mut d7, opts, &mut rng);
        // Physical 5% -> logical must be well below p for d=3 and lower
        // still for d=7.
        assert!(e3.per_shot() < p, "d=3 ler {}", e3.per_shot());
        assert!(
            e7.per_shot() < e3.per_shot(),
            "d=7 {} !< d=3 {}",
            e7.per_shot(),
            e3.per_shot()
        );
    }

    #[test]
    fn ler_estimate_statistics() {
        let est = LerEstimate {
            shots: 1000,
            failures: 10,
        };
        assert!((est.per_shot() - 0.01).abs() < 1e-12);
        assert!(est.std_err() > 0.0);
        assert!(est.per_round(10) < est.per_shot());
        assert_eq!(est.per_round(1), est.per_shot());
    }

    #[test]
    fn early_stop_on_failures() {
        let c = rep_circuit(3, 0.4);
        let mut dec = UnionFindDecoder::new(graph_for_circuit(&c));
        let mut rng = StdRng::seed_from_u64(1);
        let est = estimate_ler(
            &c,
            &mut dec,
            SampleOptions {
                min_shots: 64,
                max_failures: 5,
                max_shots: 64 * 1000,
            },
            &mut rng,
        );
        assert!(est.failures >= 5);
        assert!(est.shots < 64 * 1000);
    }

    #[test]
    fn zero_shots_estimate_is_zero() {
        let est = LerEstimate::default();
        assert_eq!(est.per_shot(), 0.0);
        assert_eq!(est.std_err(), 0.0);
    }
}
