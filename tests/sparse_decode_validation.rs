//! Validation of the syndrome-sparse decode pipeline against its dense /
//! allocating predecessors:
//!
//! - word-sparse extraction ([`SparseBatch`]) versus the dense per-shot
//!   oracles `shot_detectors` / `shot_observables`, bit for bit;
//! - the scratch-reusing [`UnionFindDecoder`] versus the historic
//!   allocate-per-call [`ReferenceUnionFind`], and versus fresh instances
//!   (no state leaks across calls);
//! - the early-terminating [`MwpmDecoder`], reused across shots, versus
//!   fresh instances;
//! - golden engine fingerprints captured on the pre-optimization tree:
//!   `LerEngine::estimate` must stay bit-identical for a fixed
//!   `(options, base_seed)` at any thread count;
//! - a plain MWPM factory refusing, with a typed error, shots beyond the
//!   exact matcher's defect bound.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    estimate_ler_seeded, graph_for_circuit, Decoder, EngineError, LerEngine, MwpmDecoder,
    ReferenceUnionFind, SampleOptions, Tiered, UnionFindDecoder,
};
use caliqec_stab::{CompiledCircuit, FrameSampler, SparseBatch, BATCH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small surface-code memory circuit: the realistic syndrome source.
fn memory(d: usize, p: f64, rounds: usize) -> caliqec_code::MemoryCircuit {
    memory_circuit(
        &rotated_patch(d, d),
        &NoiseModel::uniform(p),
        rounds,
        MemoryBasis::Z,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse extraction reproduces the dense oracles exactly on random
    /// circuit shapes, noise strengths, and seeds.
    #[test]
    fn sparse_extraction_matches_dense_oracle(
        d_idx in 0usize..2,
        rounds in 1usize..4,
        p_milli in 1u32..40,
        seed in 0u64..1_000,
    ) {
        let d = [3usize, 5][d_idx];
        let mem = memory(d, p_milli as f64 * 1e-3, rounds);
        let mut sampler = FrameSampler::new(&mem.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseBatch::new();
        for _ in 0..4 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let dense_d: Vec<usize> = ev
                    .shot_detectors(s)
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| i)
                    .collect();
                prop_assert_eq!(sparse.defects(s), dense_d.as_slice());
                let mut dense_o = 0u64;
                for (i, &b) in ev.shot_observables(s).iter().enumerate() {
                    if b {
                        dense_o |= 1 << i;
                    }
                }
                prop_assert_eq!(sparse.observables(s), dense_o);
            }
        }
    }

    /// The scratch-reusing union-find decoder produces the same correction
    /// as the historic allocate-per-call implementation, and as a fresh
    /// instance per syndrome (its dirty lists leak no state across calls).
    #[test]
    fn union_find_scratch_matches_reference(
        p_milli in 1u32..30,
        seed in 0u64..1_000,
    ) {
        let mem = memory(3, p_milli as f64 * 1e-3, 3);
        let graph = graph_for_circuit(&mem.circuit);
        let mut persistent = UnionFindDecoder::new(graph.clone());
        let mut reference = ReferenceUnionFind::new(graph.clone());
        let mut sampler = FrameSampler::new(&mem.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseBatch::new();
        for _ in 0..2 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects = sparse.defects(s);
                let got = persistent.decode(defects);
                prop_assert_eq!(got, reference.decode(defects));
                prop_assert_eq!(got, UnionFindDecoder::new(graph.clone()).decode(defects));
            }
        }
    }

    /// One MWPM decoder reused across shots — its early-stopped Dijkstra
    /// scratch is reset on every call — matches a fresh instance per shot.
    /// A d = 3, 3-round circuit has 16 detectors, so every shot is within
    /// the exact bound.
    #[test]
    fn mwpm_reused_decoder_matches_fresh(
        p_milli in 1u32..30,
        seed in 0u64..1_000,
    ) {
        let mem = memory(3, p_milli as f64 * 1e-3, 3);
        let graph = graph_for_circuit(&mem.circuit);
        let mut reused = MwpmDecoder::new(graph.clone());
        let mut sampler = FrameSampler::new(&mem.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseBatch::new();
        for _ in 0..2 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects = sparse.defects(s);
                prop_assert_eq!(
                    reused.decode(defects),
                    MwpmDecoder::new(graph.clone()).decode(defects)
                );
            }
        }
    }
}

/// Engine fingerprints pinned at a fixed seed. Re-captured when the
/// sampler moved from per-chunk to per-batch RNG streams (the SIMD
/// lockstep sampler keys each 64-shot batch on its own `chunk_seed`);
/// within a schedule the sparse pipeline, the tiered fast path, and the
/// serial reference must reproduce them bit for bit at every thread
/// count. MWPM runs only at d = 3, whose 16 detectors keep every shot
/// within [`MwpmDecoder::MAX_DEFECTS`];
/// `mwpm_refuses_shots_beyond_its_exact_bound` covers d = 5.
#[test]
fn engine_fingerprints_are_preserved() {
    struct Case {
        d: usize,
        p: f64,
        min_shots: usize,
        seed: u64,
        /// Expected union-find (shots, failures).
        uf_expect: (usize, usize),
        /// Expected MWPM (shots, failures) at `min_shots / 2`, where run.
        mwpm_expect: Option<(usize, usize)>,
    }
    let cases = [
        Case {
            d: 3,
            p: 3e-3,
            min_shots: 20_000,
            seed: 0xABCD,
            uf_expect: (20_032, 315),
            mwpm_expect: Some((10_048, 148)),
        },
        Case {
            d: 5,
            p: 2e-3,
            min_shots: 10_000,
            seed: 0xBEEF,
            uf_expect: (10_048, 31),
            mwpm_expect: None,
        },
        Case {
            d: 7,
            p: 3e-3,
            min_shots: 5_000,
            seed: 0xCAFE,
            uf_expect: (5_056, 11),
            mwpm_expect: None,
        },
    ];
    for Case {
        d,
        p,
        min_shots,
        seed,
        uf_expect,
        mwpm_expect,
    } in cases
    {
        let mem = memory(d, p, d);
        let compiled = CompiledCircuit::new(&mem.circuit);
        let graph = graph_for_circuit(&mem.circuit);
        for threads in [1usize, 2, 8] {
            let run = LerEngine::new(threads).estimate(
                &compiled,
                &|| UnionFindDecoder::new(graph.clone()),
                SampleOptions {
                    min_shots,
                    ..Default::default()
                },
                seed,
            );
            assert_eq!(
                (run.estimate.shots, run.estimate.failures),
                uf_expect,
                "UF d={d} threads={threads}"
            );
            // The two-tier fast path must reproduce the fingerprints bit
            // for bit — tier dispatch is an optimization, not a decoder.
            let tiered = LerEngine::new(threads).estimate(
                &compiled,
                &Tiered::new(&graph, {
                    let graph = graph.clone();
                    move || UnionFindDecoder::new(graph.clone())
                }),
                SampleOptions {
                    min_shots,
                    ..Default::default()
                },
                seed,
            );
            assert_eq!(
                (tiered.estimate.shots, tiered.estimate.failures),
                uf_expect,
                "tiered UF d={d} threads={threads}"
            );
            assert!(
                tiered.predecoded_shots > 0,
                "predecoder never fired at d={d} threads={threads}"
            );
        }
        let serial = estimate_ler_seeded(
            &compiled,
            &mut UnionFindDecoder::new(graph.clone()),
            SampleOptions {
                min_shots,
                ..Default::default()
            },
            seed,
        );
        assert_eq!(
            (serial.shots, serial.failures),
            uf_expect,
            "UF serial d={d}"
        );
        if let Some(expect) = mwpm_expect {
            let run = LerEngine::new(2).estimate(
                &compiled,
                &|| MwpmDecoder::new(graph.clone()),
                SampleOptions {
                    min_shots: min_shots / 2,
                    ..Default::default()
                },
                seed,
            );
            assert_eq!(
                (run.estimate.shots, run.estimate.failures),
                expect,
                "MWPM d={d}"
            );
            let tiered = LerEngine::new(2).estimate(
                &compiled,
                &Tiered::new(&graph, {
                    let graph = graph.clone();
                    move || MwpmDecoder::new(graph.clone())
                }),
                SampleOptions {
                    min_shots: min_shots / 2,
                    ..Default::default()
                },
                seed,
            );
            assert_eq!(
                (tiered.estimate.shots, tiered.estimate.failures),
                expect,
                "tiered MWPM d={d}"
            );
        }
    }
}

/// At d = 5, p = 2e-3 some shots carry more defects than
/// [`MwpmDecoder::MAX_DEFECTS`]. A plain MWPM factory refuses them: the
/// chunk panics on rung 0 and again on rung 1's rebuilt decoder, and
/// without a fallback graph the run ends in a typed error naming the bound.
/// Under `Tiered`, rung 2's reference union-find decodes those chunks and
/// the run reports itself degraded.
#[test]
fn mwpm_refuses_shots_beyond_its_exact_bound() {
    let mem = memory(5, 2e-3, 5);
    let compiled = CompiledCircuit::new(&mem.circuit);
    let graph = graph_for_circuit(&mem.circuit);
    let options = SampleOptions {
        min_shots: 5_000,
        ..Default::default()
    };
    let result = LerEngine::new(2).try_run(
        &compiled,
        &|| MwpmDecoder::new(graph.clone()),
        options,
        0xBEEF,
    );
    match result {
        Err(EngineError::ChunkFailed {
            rung: 1, reason, ..
        }) => assert!(reason.contains("MAX_DEFECTS = 16"), "{reason}"),
        other => panic!("expected a rung-1 ChunkFailed, got {other:?}"),
    }
    let tiered = LerEngine::new(2)
        .try_run(
            &compiled,
            &Tiered::new(&graph, {
                let graph = graph.clone();
                move || MwpmDecoder::new(graph.clone())
            }),
            options,
            0xBEEF,
        )
        .expect("rung 2 decodes the refused chunks");
    assert!(tiered.degraded() && tiered.rung_chunks[2] > 0);
}
