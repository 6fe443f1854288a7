//! Workspace-level validation of the rare-event (importance-sampled) LER
//! engine: β = 1 must reproduce the plain engine's golden fingerprints bit
//! for bit at any thread count, boosted runs must be thread-count
//! deterministic, and a property test checks that the importance-sampled
//! estimate agrees with plain Monte Carlo within their combined confidence
//! intervals across a range of boost factors.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    graph_for_circuit, LerEngine, RunSpec, SampleOptions, StopRule, Tiered, UnionFindDecoder,
    Weighting,
};
use caliqec_stab::{Basis, Circuit, CompiledCircuit, Noise1, RateTable};
use proptest::prelude::*;

/// An importance-sampled spec at boost `beta` and identity rates over
/// `min_shots..=max_shots` (0 = `min_shots` is the budget), CI-stopped at
/// `target_rse` (0 = never).
fn boosted(beta: f64, target_rse: f64, min_shots: usize, max_shots: usize) -> RunSpec {
    RunSpec {
        budget: SampleOptions {
            min_shots,
            max_failures: 0,
            max_shots,
        },
        weighting: Weighting::Boosted {
            beta,
            rates: RateTable::identity(),
        },
        stop: StopRule::TargetRse(target_rse),
    }
}

/// Distance-n repetition code, single round, X noise (mirrors the decoder
/// test fixtures).
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
    let md = c.measure(data[0], Basis::Z, 0.0);
    c.observable(0, &[md]);
    c
}

/// β = 1 with identity rates must reproduce the plain engine's golden
/// surface-code fingerprints exactly — same recorded `(shots, failures)`
/// at the pinned seed (mirroring `golden_engine_fingerprints_cluster_on_off`),
/// unit weights, and ESS equal to the shot count — at every thread count.
#[test]
fn beta_one_reproduces_golden_fingerprints_at_any_thread_count() {
    // (d, p, min_shots, golden shots, golden failures)
    const GOLDENS: [(usize, f64, usize, usize, usize); 2] =
        [(7, 3e-3, 4_096, 4_096, 10), (11, 1e-3, 2_048, 2_048, 0)];
    for (d, p, min_shots, want_shots, want_failures) in GOLDENS {
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p),
            d,
            MemoryBasis::Z,
        );
        let compiled = CompiledCircuit::new(&mem.circuit);
        let graph = graph_for_circuit(&mem.circuit);
        let factory = Tiered::new(&graph, {
            let graph = graph.clone();
            move || UnionFindDecoder::new(graph.clone())
        });
        let plain = LerEngine::new(2).estimate(
            &compiled,
            &factory,
            SampleOptions {
                min_shots,
                ..Default::default()
            },
            0xF1E1D,
        );
        assert_eq!(
            (plain.estimate.shots, plain.estimate.failures),
            (want_shots, want_failures),
            "d={d}: plain golden fingerprint drifted"
        );
        for threads in [1, 2, 8] {
            let rare = LerEngine::new(threads)
                .try_run(
                    &compiled,
                    &factory,
                    &boosted(1.0, 0.0, min_shots, 0),
                    0xF1E1D,
                )
                .unwrap();
            assert_eq!(
                rare.estimate, plain.estimate,
                "d={d} threads={threads}: beta=1 must be bit-identical to plain"
            );
            assert_eq!(rare.ess, rare.estimate.shots as f64, "d={d}: unit weights");
            assert_eq!(rare.weighted_failures, rare.estimate.failures as f64);
            assert_eq!(rare.boost_beta, 1.0);
        }
    }
}

/// Boosted rare-event runs (β > 1, CI stopping armed) are bit-identical
/// across thread counts 1/2/8: estimate, weighted failure mass, ESS, CI
/// half-width, and the stopping prefix. The single-thread run is also
/// pinned to recorded values, so a change that moves every weight the same
/// way at every thread count still fails. Its 25-batch chunks sample six
/// `LANES`-wide groups and one single-batch tail each, so the pin covers
/// both weighted sampler instantiations.
#[test]
fn boosted_runs_are_bit_identical_across_thread_counts() {
    let c = rep_circuit(5, 0.02);
    let compiled = CompiledCircuit::new(&c);
    let graph = graph_for_circuit(&c);
    let factory = || UnionFindDecoder::new(graph.clone());
    let spec = boosted(4.0, 0.1, 2_000, 100_000);
    let run_at = |threads| {
        LerEngine::new(threads)
            .try_run(&compiled, &factory, &spec, 0xBEE)
            .unwrap()
    };
    let reference = run_at(1);
    assert_eq!(
        (reference.estimate.shots, reference.estimate.failures),
        (84_800, 400),
        "boosted golden fingerprint drifted"
    );
    assert_eq!(reference.chunks_included, 53);
    assert_eq!(reference.weighted_failures.to_bits(), 0x401b_5603_df17_b677);
    assert_eq!(reference.ess.to_bits(), 0x40f0_4d4d_e4d9_a262);
    assert_eq!(reference.ci_halfwidth.to_bits(), 0x3ee0_c24a_1e5c_e021);
    for threads in [2, 8] {
        let run = run_at(threads);
        assert_eq!(run.estimate, reference.estimate, "threads={threads}");
        assert_eq!(run.chunks_included, reference.chunks_included);
        assert_eq!(run.weighted_failures, reference.weighted_failures);
        assert_eq!(run.ess, reference.ess);
        assert_eq!(run.ci_halfwidth, reference.ci_halfwidth);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Across random small repetition codes, physical rates high enough to
    /// measure plainly, and a sweep of boost factors, the importance-sampled
    /// estimate agrees with plain Monte Carlo within 5× their combined 95%
    /// CI half-widths, and the estimator health invariants hold
    /// (0 < ESS ≤ shots, finite CI).
    #[test]
    fn is_estimate_agrees_with_plain_within_ci(
        n in 2usize..=3,
        p in 0.03f64..0.15,
        beta in prop_oneof![Just(1.5f64), Just(2.0), Just(4.0), Just(8.0)],
        seed in 0u64..1_000,
    ) {
        let c = rep_circuit(2 * n - 1, p);
        let compiled = CompiledCircuit::new(&c);
        let graph = graph_for_circuit(&c);
        let factory = || UnionFindDecoder::new(graph.clone());
        let shots = 20_000;
        let plain = LerEngine::new(2).estimate(
            &compiled,
            &factory,
            SampleOptions { min_shots: shots, ..Default::default() },
            seed,
        );
        let rare = LerEngine::new(2)
            .try_run(&compiled, &factory, &boosted(beta, 0.0, shots, 0), seed)
            .unwrap();
        prop_assert!(rare.ess > 0.0);
        prop_assert!(rare.ess <= rare.estimate.shots as f64);
        prop_assert!(rare.ci_halfwidth.is_finite());
        let tolerance = 5.0 * (rare.ci_halfwidth + plain.ci_halfwidth) + 1e-12;
        prop_assert!(
            (rare.ler() - plain.ler()).abs() <= tolerance,
            "beta={} IS estimate {} vs plain {} outside tolerance {}",
            beta, rare.ler(), plain.ler(), tolerance
        );
    }
}
