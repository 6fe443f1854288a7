//! Cross-validation of the two decoders: the union-find decoder (fast,
//! near-linear) against exact minimum-weight perfect matching (the oracle),
//! both against the exact tableau simulator's statistics, and the tier-1
//! predecoder against both full decoders on every shot it certifies.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    estimate_ler, graph_for_circuit, ClusterGate, ClusterTier, Decoder, LerEngine, MwpmDecoder,
    Predecoder, SampleOptions, Tiered, UnionFindDecoder, MAX_CLUSTER_DEFECTS,
};
use caliqec_stab::{CompiledCircuit, FrameSampler, SparseBatch, BATCH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every shot the predecoder certifies must decode to exactly the mask
    /// both full decoders produce — across distances, noise strengths,
    /// memory bases and random syndromes. This is the per-shot form of the
    /// two-tier equivalence contract: `Some(mask)` is a proof, never a
    /// heuristic. X memory is where the tables' second gauge certifies
    /// most.
    #[test]
    fn predecoder_certifications_match_full_decoders(
        d_idx in 0usize..3,
        p_milli in 1u32..6,
        x_basis in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let d = [3usize, 5, 7][d_idx];
        let basis = if x_basis { MemoryBasis::X } else { MemoryBasis::Z };
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p_milli as f64 * 1e-3),
            d,
            basis,
        );
        let graph = graph_for_circuit(&mem.circuit);
        let mut pre = Predecoder::new(&graph);
        let mut uf = UnionFindDecoder::new(graph.clone());
        let mut mwpm = MwpmDecoder::new(graph);
        let mut sampler = FrameSampler::new(&mem.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseBatch::new();
        for _ in 0..4 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects = sparse.defects(s);
                if let Some(mask) = pre.predecode(defects) {
                    prop_assert_eq!(mask, uf.decode(defects), "UF d={} {:?} {:?}", d, basis, defects);
                    prop_assert_eq!(mask, mwpm.decode(defects), "MWPM d={} {:?} {:?}", d, basis, defects);
                }
            }
        }
    }

    /// A `Tiered` factory reports the same logical estimate as the plain
    /// closure factory it wraps, for both decoder backends — without a
    /// cluster tier, tier dispatch changes timings and tier counters, never
    /// results. The MWPM backend runs at d = 3 only: larger patches carry
    /// shots beyond [`MwpmDecoder::MAX_DEFECTS`].
    #[test]
    fn tiered_engine_matches_plain_engine(
        d_idx in 0usize..3,
        p_milli in 1u32..6,
        seed in 0u64..1_000,
    ) {
        let d = [3usize, 5, 7][d_idx];
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p_milli as f64 * 1e-3),
            d,
            MemoryBasis::Z,
        );
        let compiled = CompiledCircuit::new(&mem.circuit);
        let graph = graph_for_circuit(&mem.circuit);
        let uf_opts = SampleOptions {
            min_shots: 2_000,
            ..Default::default()
        };
        let on = LerEngine::new(2).estimate(
            &compiled,
            &Tiered::new(&graph, {
                let graph = graph.clone();
                move || UnionFindDecoder::new(graph.clone())
            }),
            uf_opts,
            seed,
        );
        let off = LerEngine::new(2).estimate(
            &compiled,
            &|| UnionFindDecoder::new(graph.clone()),
            uf_opts,
            seed,
        );
        prop_assert_eq!(on.estimate, off.estimate, "UF backend d={}", d);
        prop_assert_eq!(on.predecoded_shots, 0);
        prop_assert_eq!(on.tier0_shots + on.residual_shots, on.estimate.shots);
        if d == 3 {
            let mwpm_opts = SampleOptions {
                min_shots: 1_000,
                ..Default::default()
            };
            let on = LerEngine::new(2).estimate(
                &compiled,
                &Tiered::new(&graph, {
                    let graph = graph.clone();
                    move || MwpmDecoder::new(graph.clone())
                }),
                mwpm_opts,
                seed,
            );
            let off = LerEngine::new(2).estimate(
                &compiled,
                &|| MwpmDecoder::new(graph.clone()),
                mwpm_opts,
                seed,
            );
            prop_assert_eq!(on.estimate, off.estimate, "MWPM backend d={}", d);
        }
    }

    /// Dense-regime contract: flood-decomposing a dense shot into
    /// independent clusters, peeling the certified ones, and decoding the
    /// residual union with the union-find decoder produces exactly the mask
    /// the monolithic union-find decoder produces on the whole defect list
    /// — the decomposition is a decoder *variant*, not an approximation.
    /// Against exact MWPM the comparison is statistical (same treatment as
    /// `union_find_matches_mwpm_on_most_syndromes`): exact matching admits
    /// degenerate equal-weight optima with different observable masks, so
    /// decomposed-MWPM and monolithic-MWPM may legitimately pick different
    /// ones on a small fraction of shots. It runs on the dense shots within
    /// [`MwpmDecoder::MAX_DEFECTS`], of which d = 7 at p ≤ 6e-3 must supply
    /// at least one.
    #[test]
    fn cluster_decomposed_decode_matches_monolithic_decoders(
        d_idx in 0usize..2,
        p_milli in 5u32..9,
        seed in 0u64..10_000,
    ) {
        let d = [7usize, 9][d_idx];
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p_milli as f64 * 1e-3),
            d,
            MemoryBasis::Z,
        );
        let graph = graph_for_circuit(&mem.circuit);
        let mut tier = ClusterTier::new(&graph);
        let mut uf = UnionFindDecoder::new(graph.clone());
        let mut mwpm = MwpmDecoder::new(graph);
        let mut sampler = FrameSampler::new(&mem.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseBatch::new();
        let mut dense_seen = 0usize;
        let mut mwpm_compared = 0usize;
        let mut mwpm_agreed = 0usize;
        for _ in 0..4 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects: Vec<usize> = sparse.defects(s).to_vec();
                if defects.len() <= MAX_CLUSTER_DEFECTS {
                    continue;
                }
                dense_seen += 1;
                let out = tier.decompose(&defects);
                let residual: Vec<usize> = tier.residual_defects().to_vec();
                prop_assert_eq!(
                    out.peeled_defects as usize + residual.len(),
                    defects.len(),
                    "decomposition partitions the defects, d={}",
                    d
                );
                let uf_mask = if residual.is_empty() {
                    out.mask
                } else {
                    out.mask ^ uf.decode(&residual)
                };
                prop_assert_eq!(uf_mask, uf.decode(&defects), "UF d={} {:?}", d, defects);
                if defects.len() > MwpmDecoder::MAX_DEFECTS {
                    continue;
                }
                mwpm_compared += 1;
                let mwpm_mask = if residual.is_empty() {
                    out.mask
                } else {
                    out.mask ^ mwpm.decode(&residual)
                };
                if mwpm_mask == mwpm.decode(&defects) {
                    mwpm_agreed += 1;
                }
            }
        }
        // At these noise strengths the dense regime is the common case;
        // a run that never exercised it would be vacuous.
        prop_assert!(dense_seen > 0, "no dense shots at d={} p={}e-3", d, p_milli);
        if d == 7 && p_milli <= 6 {
            prop_assert!(
                mwpm_compared > 0,
                "no dense shot within the MWPM bound at d=7 p={}e-3",
                p_milli
            );
        }
        prop_assert!(
            mwpm_agreed * 10 >= mwpm_compared * 9,
            "decomposed MWPM agreed on only {}/{} dense shots (d={})",
            mwpm_agreed, mwpm_compared, d
        );
    }
}

/// The predecoder's certification count at d = 7, p = 1e-3, pinned by
/// value in both memory bases: of the shots it is tried on (1 to
/// `MAX_CERT_DEFECTS` defects), how many it certifies, each with union-find's
/// and exact matching's mask. The count moves whenever the certification
/// tables or the margin checks change what they can prove.
#[test]
fn predecoder_certification_count_is_pinned() {
    // (basis, seed, golden (shots tried, shots certified))
    for (basis, seed, golden) in [
        (MemoryBasis::Z, 0x7E57_0007, (876usize, 408usize)),
        (MemoryBasis::X, 0x7E57_0008, (902, 289)),
    ] {
        let mem = memory_circuit(&rotated_patch(7, 7), &NoiseModel::uniform(1e-3), 7, basis);
        let graph = graph_for_circuit(&mem.circuit);
        let mut pre = Predecoder::new(&graph);
        let mut uf = UnionFindDecoder::new(graph.clone());
        let mut mwpm = MwpmDecoder::new(graph);
        let mut sampler = FrameSampler::new(&mem.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseBatch::new();
        let (mut tried, mut certified) = (0usize, 0usize);
        for _ in 0..16 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects = sparse.defects(s);
                if defects.is_empty() || defects.len() > Predecoder::MAX_CERT_DEFECTS {
                    continue;
                }
                tried += 1;
                if let Some(mask) = pre.predecode(defects) {
                    certified += 1;
                    assert_eq!(mask, uf.decode(defects), "UF {basis:?} {defects:?}");
                    assert_eq!(mask, mwpm.decode(defects), "MWPM {basis:?} {defects:?}");
                }
            }
        }
        assert_eq!((tried, certified), golden, "{basis:?}");
    }
}

/// A union-find decoder that counts its calls in a shared atomic.
struct CountingDecoder {
    inner: UnionFindDecoder,
    calls: Arc<AtomicUsize>,
}

impl Decoder for CountingDecoder {
    fn decode(&mut self, defects: &[usize]) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.decode(defects)
    }
}

/// Rung 0 of a `Tiered` union-find stack without a cluster tier calls the
/// decoder once for every nonempty shot: no front tier resolves a shot on
/// its own, and the estimate is the plain factory's.
#[test]
fn tiered_union_find_decodes_every_nonempty_shot() {
    let mem = memory_circuit(
        &rotated_patch(7, 7),
        &NoiseModel::uniform(1e-3),
        7,
        MemoryBasis::Z,
    );
    let compiled = CompiledCircuit::new(&mem.circuit);
    let graph = graph_for_circuit(&mem.circuit);
    let opts = SampleOptions {
        min_shots: 4_096,
        ..Default::default()
    };
    for threads in [1, 2] {
        let calls = Arc::new(AtomicUsize::new(0));
        let tiered = Tiered::new(&graph, {
            let (graph, calls) = (graph.clone(), Arc::clone(&calls));
            move || CountingDecoder {
                inner: UnionFindDecoder::new(graph.clone()),
                calls: Arc::clone(&calls),
            }
        });
        let run = LerEngine::new(threads).estimate(&compiled, &tiered, opts, 0x7E57);
        let plain = LerEngine::new(threads).estimate(
            &compiled,
            &|| UnionFindDecoder::new(graph.clone()),
            opts,
            0x7E57,
        );
        assert_eq!(run.estimate.shots, 4_096);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            run.estimate.shots - run.tier0_shots,
            "threads={threads}: some nonempty shot skipped the decoder"
        );
        assert_eq!(run.predecoded_shots, 0, "threads={threads}");
        assert_eq!(run.estimate, plain.estimate, "threads={threads}");
    }
}

/// Golden fingerprints: the engine's `(shots, failures)` at a pinned seed
/// must match the recorded values with the cluster tier on and off (on
/// these seeds the two agree; `cluster_gate_can_change_a_failure_count`
/// pins one where they do not) — any drift in the sampler's RNG schedule,
/// the tier dispatch, or the decomposition itself shows up here as a diff
/// against the goldens, not as a silent statistical shift.
#[test]
fn golden_engine_fingerprints_cluster_on_off() {
    // Cluster-on tier counters: (predecoded shots, clustered shots, clusters).
    type Tiers = (usize, usize, u64);
    // (d, p, min_shots, golden shots, golden failures, golden tier counters)
    const GOLDENS: [(usize, f64, usize, usize, usize, Tiers); 3] = [
        (7, 3e-3, 4_096, 4_096, 10, (0, 35, 6_922)),
        (11, 1e-3, 2_048, 2_048, 0, (0, 289, 15_046)),
        (15, 1e-3, 1_024, 1_024, 0, (0, 19, 19_998)),
    ];
    for (d, p, min_shots, want_shots, want_failures, want_tiers) in GOLDENS {
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p),
            d,
            MemoryBasis::Z,
        );
        let compiled = CompiledCircuit::new(&mem.circuit);
        let graph = graph_for_circuit(&mem.circuit);
        let opts = SampleOptions {
            min_shots,
            ..Default::default()
        };
        let on = LerEngine::new(2).estimate(
            &compiled,
            &Tiered::new(&graph, {
                let graph = graph.clone();
                move || UnionFindDecoder::new(graph.clone())
            })
            .with_cluster_gate(ClusterGate::On),
            opts,
            0xF1E1D,
        );
        let off = LerEngine::new(2).estimate(
            &compiled,
            &Tiered::new(&graph, {
                let graph = graph.clone();
                move || UnionFindDecoder::new(graph.clone())
            }),
            opts,
            0xF1E1D,
        );
        assert_eq!(
            on.estimate, off.estimate,
            "d={d}: cluster on/off must be bit-identical"
        );
        assert_eq!(
            (on.estimate.shots, on.estimate.failures),
            (want_shots, want_failures),
            "d={d}: golden fingerprint drifted"
        );
        assert_eq!(
            (on.predecoded_shots, on.clustered_shots, on.clusters_total),
            want_tiers,
            "d={d}: tier counters drifted"
        );
        assert_eq!(
            on.tier0_shots + on.predecoded_shots + on.clustered_shots + on.residual_shots,
            on.estimate.shots,
            "d={d}: tier partition must cover every shot"
        );
        if d >= 11 {
            assert!(on.clustered_shots > 0, "d={d}: cluster tier never peeled");
        }
    }
}

/// `ClusterTier::decompose` pinned by value, not only through engine
/// counters: every shot with more than `MAX_CLUSTER_DEFECTS` defects at
/// rotated d = 7 / 11 / 15 and on a deformed-then-enlarged d = 7 layout
/// (a centre data qubit isolated, the patch grown right and bottom until
/// its distance is back, as the calibration runtime does) is decomposed,
/// and its outcome, residual union, residual clusters and cluster sizes
/// are folded into one FNV-1a hash per configuration. Any change to the
/// flood, the grouping or the certification that moves one bit fails here.
#[test]
fn cluster_decomposition_is_pinned_by_value() {
    use caliqec::CaliqecConfig;
    use caliqec_code::{
        code_distance, data_coord, DeformInstruction, DeformedPatch, Lattice, Side,
    };
    let mut deformed = DeformedPatch::new(Lattice::Square, 7, 7);
    deformed
        .apply(DeformInstruction::DataQRm {
            qubit: data_coord(3, 3),
        })
        .expect("the centre data qubit can be isolated");
    for i in 0..2 * CaliqecConfig::default().delta_d {
        if code_distance(&deformed.layout().unwrap()).min() >= 7 {
            break;
        }
        let side = if i % 2 == 0 {
            Side::Right
        } else {
            Side::Bottom
        };
        let _ = deformed.apply(DeformInstruction::PatchQAd { side });
    }
    let deformed = deformed.layout().unwrap();
    assert_ne!(deformed, rotated_patch(7, 7), "the layout is deformed");
    // (label, layout, rounds, p, batches, seed,
    //  golden (dense shots, clusters, peeled defects, residual defects, hash))
    type Golden = (usize, u64, u64, u64, u64);
    let cases: [(&str, _, usize, f64, usize, u64, Golden); 4] = [
        (
            "rotated d=7",
            rotated_patch(7, 7),
            7,
            3e-3,
            8,
            71,
            (343, 830, 772, 5_676, 0x9eab_d690_3a60_89ca),
        ),
        (
            "rotated d=11",
            rotated_patch(11, 11),
            11,
            1e-3,
            6,
            111,
            (348, 2_781, 4_836, 3_438, 0xbd00_1133_e0db_71e6),
        ),
        (
            "rotated d=15",
            rotated_patch(15, 15),
            15,
            1e-3,
            4,
            151,
            (256, 4_964, 8_721, 6_342, 0xd7dd_d2d0_3971_54e4),
        ),
        (
            "deformed+enlarged d=7",
            deformed,
            7,
            3e-3,
            8,
            72,
            (454, 1_275, 1_391, 8_647, 0x564a_d2b7_dad1_4cca),
        ),
    ];
    for (label, layout, rounds, p, batches, seed, golden) in cases {
        let mem = memory_circuit(&layout, &NoiseModel::uniform(p), rounds, MemoryBasis::Z);
        let graph = graph_for_circuit(&mem.circuit);
        let mut tier = ClusterTier::new(&graph);
        let mut sampler = FrameSampler::new(&mem.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseBatch::new();
        let mut words = Vec::new();
        let (mut shots, mut clusters, mut peeled, mut residual) = (0usize, 0u64, 0u64, 0u64);
        for _ in 0..batches {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects = sparse.defects(s);
                if defects.len() <= MAX_CLUSTER_DEFECTS {
                    continue;
                }
                let out = tier.decompose(defects);
                shots += 1;
                clusters += u64::from(out.clusters);
                peeled += u64::from(out.peeled_defects);
                residual += u64::from(out.residual_defects);
                words.extend([
                    out.mask,
                    u64::from(out.clusters),
                    u64::from(out.peeled_clusters),
                    u64::from(out.peeled_defects),
                    u64::from(out.residual_defects),
                ]);
                words.push(tier.residual_defects().len() as u64);
                words.extend(tier.residual_defects().iter().map(|&u| u as u64));
                for cluster in tier.residual_clusters() {
                    words.push(cluster.len() as u64);
                    words.extend(cluster.iter().map(|&u| u as u64));
                }
                words.push(tier.cluster_sizes().len() as u64);
                words.extend(tier.cluster_sizes().iter().map(|&s| u64::from(s)));
            }
        }
        let got = (shots, clusters, peeled, residual, fnv1a_words(words));
        assert_eq!(
            got, golden,
            "{label}: decomposition drifted (got {got:#x?})"
        );
    }
}

/// The cluster tier is a decoder variant, so its gate can change a failure
/// count: at d = 9, p = 4e-3 every batch clears the `Auto` threshold, and
/// on this seed a partially peeled shot decodes differently from its
/// monolithic decode. Pinned by value at 1 and 2 threads.
#[test]
fn cluster_gate_can_change_a_failure_count() {
    let mem = memory_circuit(
        &rotated_patch(9, 9),
        &NoiseModel::uniform(4e-3),
        9,
        MemoryBasis::Z,
    );
    let compiled = CompiledCircuit::new(&mem.circuit);
    let graph = graph_for_circuit(&mem.circuit);
    let opts = SampleOptions {
        min_shots: 2_048,
        ..Default::default()
    };
    for (gate, want_failures) in [
        (ClusterGate::Off, 13),
        (ClusterGate::On, 14),
        (ClusterGate::Auto, 14),
    ] {
        let factory = Tiered::new(&graph, {
            let graph = graph.clone();
            move || UnionFindDecoder::new(graph.clone())
        })
        .with_cluster_gate(gate);
        for threads in [1, 2] {
            let run = LerEngine::new(threads).estimate(&compiled, &factory, opts, 26);
            assert_eq!(
                (run.estimate.shots, run.estimate.failures),
                (2_048, want_failures),
                "{gate:?} threads={threads}"
            );
        }
    }
}

#[test]
fn union_find_matches_mwpm_on_most_syndromes() {
    let mem = memory_circuit(
        &rotated_patch(3, 3),
        &NoiseModel::uniform(3e-3),
        3,
        MemoryBasis::Z,
    );
    let graph = graph_for_circuit(&mem.circuit);
    let mut uf = UnionFindDecoder::new(graph.clone());
    let mut mwpm = MwpmDecoder::new(graph);
    let mut sampler = FrameSampler::new(&mem.circuit);
    let mut rng = StdRng::seed_from_u64(3);

    let mut decoded = 0usize;
    let mut agreed = 0usize;
    for _ in 0..200 {
        let ev = sampler.sample_batch(&mut rng);
        for s in 0..BATCH {
            let defects: Vec<usize> = ev
                .detectors
                .iter()
                .enumerate()
                .filter(|(_, w)| (*w >> s) & 1 == 1)
                .map(|(i, _)| i)
                .collect();
            if defects.is_empty() {
                continue;
            }
            decoded += 1;
            if uf.decode(&defects) == mwpm.decode(&defects) {
                agreed += 1;
            }
        }
    }
    assert!(decoded > 100, "not enough nontrivial syndromes ({decoded})");
    let agreement = agreed as f64 / decoded as f64;
    assert!(
        agreement > 0.9,
        "UF/MWPM agreement only {agreement:.2} over {decoded} syndromes"
    );
}

#[test]
fn both_decoders_achieve_similar_ler() {
    let mem = memory_circuit(
        &rotated_patch(3, 3),
        &NoiseModel::uniform(3e-3),
        3,
        MemoryBasis::Z,
    );
    let graph = graph_for_circuit(&mem.circuit);
    let opts = SampleOptions {
        min_shots: 100_000,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(4);
    let uf = estimate_ler(
        &mem.circuit,
        &mut UnionFindDecoder::new(graph.clone()),
        opts,
        &mut rng,
    );
    let mut rng = StdRng::seed_from_u64(4);
    let mwpm = estimate_ler(&mem.circuit, &mut MwpmDecoder::new(graph), opts, &mut rng);
    let (a, b) = (uf.per_shot(), mwpm.per_shot());
    assert!(a > 0.0 && b > 0.0);
    // Union-find is a constant factor behind exact matching at worst.
    assert!(a < b * 2.0 + 1e-4, "UF {a:e} vs MWPM {b:e}");
    assert!(b < a * 2.0 + 1e-4, "MWPM {b:e} vs UF {a:e}");
}

#[test]
fn trivial_syndrome_never_corrects() {
    let mem = memory_circuit(
        &rotated_patch(3, 3),
        &NoiseModel::uniform(1e-3),
        2,
        MemoryBasis::Z,
    );
    let graph = graph_for_circuit(&mem.circuit);
    let mut uf = UnionFindDecoder::new(graph.clone());
    let mut mwpm = MwpmDecoder::new(graph);
    assert_eq!(uf.decode(&[]), 0);
    assert_eq!(mwpm.decode(&[]), 0);
}

#[test]
fn memory_x_basis_decodes_too() {
    // The X-basis experiment exercises the dual detector structure.
    let mem = memory_circuit(
        &rotated_patch(3, 3),
        &NoiseModel::uniform(2e-3),
        3,
        MemoryBasis::X,
    );
    let mut rng = StdRng::seed_from_u64(5);
    let est = estimate_ler(
        &mem.circuit,
        &mut UnionFindDecoder::new(graph_for_circuit(&mem.circuit)),
        SampleOptions {
            min_shots: 100_000,
            ..Default::default()
        },
        &mut rng,
    );
    assert!(est.per_shot() < 0.05, "X-memory LER {:e}", est.per_shot());
}

#[test]
fn exhaustive_single_error_correction() {
    // Distance-3 property: every single error mechanism in the circuit is
    // corrected, *up to syndrome degeneracy*: when two first-order mechanisms
    // share a detector signature but differ in logical effect (a boundary
    // artifact of the X-memory readout structure, see DESIGN.md), no decoder
    // can satisfy both — the graph resolves toward the more probable one and
    // the minority mass becomes a bounded additive LER floor.
    use caliqec_stab::extract_dem;
    use std::collections::HashMap;
    for (basis, label) in [(MemoryBasis::Z, "Z"), (MemoryBasis::X, "X")] {
        let mem = memory_circuit(&rotated_patch(3, 3), &NoiseModel::uniform(1e-3), 3, basis);
        let dem = extract_dem(&mem.circuit);
        // Group mechanisms by signature; the dominant one must decode right.
        let mut by_sig: HashMap<Vec<usize>, Vec<(f64, u64)>> = HashMap::new();
        for mech in &dem.mechanisms {
            if mech.detectors.len() > 2 {
                continue; // hyperedges decompose; their pieces are covered
            }
            let sig: Vec<usize> = mech.detectors.iter().map(|d| d.0 as usize).collect();
            by_sig
                .entry(sig)
                .or_default()
                .push((mech.probability, mech.observables));
        }
        let graph = graph_for_circuit(&mem.circuit);
        let mut uf = UnionFindDecoder::new(graph.clone());
        let mut mwpm = MwpmDecoder::new(graph);
        let mut checked = 0usize;
        let mut total_mass = 0.0f64;
        let mut mwpm_missed_mass = 0.0f64;
        let mut uf_missed_mass = 0.0f64;
        let mut minority_mass = 0.0f64;
        for (sig, mechs) in &by_sig {
            let (dom_p, dom_obs) = mechs
                .iter()
                .copied()
                .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .expect("nonempty group");
            minority_mass += mechs
                .iter()
                .filter(|&&(_, o)| o != dom_obs)
                .map(|&(p, _)| p)
                .sum::<f64>();
            checked += 1;
            total_mass += dom_p;
            if mwpm.decode(sig) != dom_obs {
                mwpm_missed_mass += dom_p;
            }
            if uf.decode(sig) != dom_obs {
                uf_missed_mass += dom_p;
            }
        }
        assert!(checked > 40, "{label}-memory: only {checked} signatures");
        // Decomposition-based matching (like Stim+PyMatching) does not
        // guarantee every individual mechanism decodes to its own mask, but
        // the probability-weighted miss mass must stay tiny or the LER would
        // have an O(p) floor.
        assert!(
            mwpm_missed_mass < 0.02 * total_mass,
            "{label}-memory: MWPM missed {mwpm_missed_mass:e} of {total_mass:e}"
        );
        assert!(
            uf_missed_mass < 0.05 * total_mass,
            "{label}-memory: UF missed {uf_missed_mass:e} of {total_mass:e}"
        );
        // The irreducible degeneracy floor stays far below the physical rate.
        assert!(
            minority_mass < 5e-3,
            "{label}-memory: degenerate minority mass {minority_mass:e}"
        );
    }
}

/// FNV-1a 64 over the little-endian bytes of `u64` words.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hashes every field of a DEM that decoders and reweighting read: each
/// mechanism's detectors, observables, probability bits and contribution
/// list, then the interned sources in order.
fn dem_fingerprint(dem: &caliqec_stab::DetectorErrorModel) -> u64 {
    use caliqec_stab::{ErrorSource, Noise1};
    let mut words = Vec::new();
    for mech in &dem.mechanisms {
        words.push(mech.detectors.len() as u64);
        words.extend(mech.detectors.iter().map(|d| u64::from(d.0)));
        words.push(mech.observables);
        words.push(mech.probability.to_bits());
        words.push(mech.sources.len() as u64);
        for c in &mech.sources {
            words.extend([u64::from(c.source), c.base.to_bits(), c.divisor.to_bits()]);
        }
    }
    words.push(dem.sources.len() as u64);
    for source in &dem.sources {
        match *source {
            ErrorSource::Noise1(kind, q) => {
                let kind = [
                    Noise1::Depolarize1,
                    Noise1::XError,
                    Noise1::YError,
                    Noise1::ZError,
                ]
                .iter()
                .position(|&k| k == kind)
                .expect("every Noise1 kind is listed");
                words.extend([1, kind as u64, u64::from(q)]);
            }
            ErrorSource::Noise2(_, a, b) => words.extend([2, u64::from(a), u64::from(b)]),
            ErrorSource::MeasureFlip(q) => words.extend([3, u64::from(q)]),
        }
    }
    fnv1a_words(words)
}

/// Golden DEMs: the full detector error model of three memory circuits is
/// pinned by mechanism count, hyperedge count, source count and a hash of
/// every mechanism (detectors, observables, probability bits, provenance)
/// and every interned source. Any change to extraction that moves a single
/// bit of the model fails here.
#[test]
fn golden_dem_fingerprints() {
    use caliqec_code::heavy_hex_patch;
    use caliqec_stab::extract_dem;
    // (label, layout, rounds, basis, mechanisms, hyperedges, sources, fingerprint)
    let goldens = [
        (
            "rotated d=5 Z",
            rotated_patch(5, 5),
            5,
            MemoryBasis::Z,
            1_583,
            1_007,
            215,
            0x1e6a_2240_a65d_ff59u64,
        ),
        (
            "rotated d=5 X",
            rotated_patch(5, 5),
            5,
            MemoryBasis::X,
            1_611,
            1_009,
            215,
            0xf204_b7ac_ce83_d467,
        ),
        (
            "heavy-hex 3x3 Z",
            heavy_hex_patch(3, 3),
            3,
            MemoryBasis::Z,
            202,
            101,
            139,
            0xa9bc_3a6b_9169_e74d,
        ),
    ];
    for (label, layout, rounds, basis, mechanisms, hyperedges, sources, fingerprint) in goldens {
        let mem = memory_circuit(&layout, &NoiseModel::uniform(1e-3), rounds, basis);
        let dem = extract_dem(&mem.circuit);
        assert_eq!(
            (
                dem.mechanisms.len(),
                dem.num_hyperedges(),
                dem.sources.len()
            ),
            (mechanisms, hyperedges, sources),
            "{label}: DEM shape drifted"
        );
        assert_eq!(
            dem_fingerprint(&dem),
            fingerprint,
            "{label}: DEM fingerprint drifted (got {:#018x})",
            dem_fingerprint(&dem)
        );
    }
}
