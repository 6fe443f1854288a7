//! Validation of the calibration-aware reweighting pipeline:
//!
//! - incremental [`MatchingGraph::reweight`] versus a from-scratch rebuild
//!   ([`DetectorErrorModel::reweighted`] + [`MatchingGraph::from_dem`]) —
//!   same CSR topology, probability and weight bits identical, on random
//!   circuits and rate tables;
//! - identity-rate-table reweighting leaves engine output bit-identical to
//!   the golden fingerprints of `sparse_decode_validation.rs` — the
//!   reweight machinery is exact, not merely approximately right;
//! - decoders built over a reweighted graph — how new rates reach a
//!   decoder — agree shot for shot with decoders over a graph freshly
//!   extracted from the drifted circuit, for both [`MwpmDecoder`] and
//!   [`UnionFindDecoder`];
//! - under uniform noise a reweighted graph equals a fresh build down to
//!   its observable masks, on every kind of layout the calibration runtime
//!   decodes — the invariant that lets the runtime keep one graph per
//!   layout;
//! - `drift_trajectory`'s static and drift-aware arms are pinned by value
//!   at peak drift.

use caliqec::CaliqecConfig;
use caliqec_code::{
    code_distance, data_coord, drift_rate_table, memory_circuit, rotated_patch, DeformInstruction,
    DeformedPatch, Lattice, MemoryBasis, NoiseModel, PatchLayout, Readout, Side, StabKind,
};
use caliqec_device::DriftModel;
use caliqec_match::{
    graph_for_circuit, Decoder, LerEngine, MatchingGraph, MwpmDecoder, SampleOptions, Tiered,
    UnionFindDecoder,
};
use caliqec_stab::{extract_dem, CompiledCircuit, FrameSampler, RateTable, SparseBatch, BATCH};
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

/// Asserts that two graphs share their CSR topology and carry bit-identical
/// probabilities and weights. Observable masks are deliberately excluded:
/// reweighting freezes each edge's observable resolution at extraction
/// time, while a fresh build re-resolves it under the drifted
/// probabilities — by design (see DESIGN.md §10).
fn assert_weights_bit_identical(got: &MatchingGraph, want: &MatchingGraph, ctx: &str) {
    assert_eq!(got.num_nodes(), want.num_nodes(), "{ctx}: node count");
    assert_eq!(got.edges().len(), want.edges().len(), "{ctx}: edge count");
    for (i, (a, b)) in got.edges().iter().zip(want.edges()).enumerate() {
        assert_eq!((a.u, a.v), (b.u, b.v), "{ctx}: edge {i} endpoints");
        assert_eq!(
            a.probability.to_bits(),
            b.probability.to_bits(),
            "{ctx}: edge {i} probability {} vs {}",
            a.probability,
            b.probability
        );
        assert_eq!(
            a.weight.to_bits(),
            b.weight.to_bits(),
            "{ctx}: edge {i} weight {} vs {}",
            a.weight,
            b.weight
        );
    }
}

/// A batch's layout the way the calibration runtime builds it: isolate on
/// a fresh `d × d` patch (here every instruction must apply), then grow
/// right and bottom alternately until the distance is restored, at most
/// `2·Δd` steps.
fn runtime_layout(lattice: Lattice, d: usize, isolation: &[DeformInstruction]) -> PatchLayout {
    let mut patch = DeformedPatch::new(lattice, d, d);
    for &instr in isolation {
        patch.apply(instr).expect("test isolation applies");
    }
    for i in 0..2 * CaliqecConfig::default().delta_d {
        if code_distance(&patch.layout().unwrap()).min() >= d {
            break;
        }
        let side = if i % 2 == 0 {
            Side::Right
        } else {
            Side::Bottom
        };
        let _ = patch.apply(DeformInstruction::PatchQAd { side });
    }
    patch.layout().unwrap()
}

/// The first weight-4 stabilizer of `kind` in a pristine `d × d` patch.
fn interior_stabilizer(lattice: Lattice, d: usize, kind: StabKind) -> Readout {
    let layout = DeformedPatch::new(lattice, d, d).layout().unwrap();
    let stab = layout
        .stabilizers
        .into_iter()
        .find(|s| s.weight() == 4 && s.kind == kind)
        .expect("interior stabilizer");
    stab.readout
}

/// The chain node at `index` of an interior heavy-hex X stabilizer's first
/// gauge part: 0 is a data-attached (degree-3) node, 1 a vertical and 3 a
/// horizontal degree-2 bridge.
fn hex_bridge(d: usize, index: usize) -> caliqec_code::Coord {
    match interior_stabilizer(Lattice::HeavyHex, d, StabKind::X) {
        Readout::Chain { parts } => parts[0].chain[index],
        Readout::Direct { .. } => unreachable!("heavy-hex stabilizers read out through chains"),
    }
}

/// The calibration runtime keeps one matching graph per layout, built at
/// the first trace point's rate and reweighted to every later point's
/// uniform rate. That is exact only if the reweighted graph equals a fresh
/// build in everything a decoder reads: endpoints, probability and weight
/// bits, and observable masks. Checked on pristine and
/// deformed-then-enlarged layouts of both lattices, from far below to far
/// above threshold.
#[test]
fn uniform_reweight_equals_fresh_build_on_runtime_layouts() {
    const D: usize = 5;
    const P0: f64 = 1e-3;
    let syndrome = interior_stabilizer(Lattice::Square, D, StabKind::Z).measured_qubits()[0];
    let cases = [
        ("rotated pristine", Lattice::Square, vec![]),
        (
            "rotated two DataQRm",
            Lattice::Square,
            vec![
                DeformInstruction::DataQRm {
                    qubit: data_coord(1, 1),
                },
                DeformInstruction::DataQRm {
                    qubit: data_coord(3, 3),
                },
            ],
        ),
        (
            "rotated SyndromeQRm",
            Lattice::Square,
            vec![DeformInstruction::SyndromeQRm { ancilla: syndrome }],
        ),
        ("heavy-hex pristine", Lattice::HeavyHex, vec![]),
        (
            "heavy-hex AncQRmDeg3",
            Lattice::HeavyHex,
            vec![DeformInstruction::AncQRmDeg3 {
                ancilla: hex_bridge(D, 0),
            }],
        ),
        (
            "heavy-hex AncQRmHorDeg2",
            Lattice::HeavyHex,
            vec![DeformInstruction::AncQRmHorDeg2 {
                ancilla: hex_bridge(D, 3),
            }],
        ),
        (
            "heavy-hex AncQRmVerDeg2",
            Lattice::HeavyHex,
            vec![DeformInstruction::AncQRmVerDeg2 {
                ancilla: hex_bridge(D, 1),
            }],
        ),
    ];
    for (name, lattice, isolation) in cases {
        let layout = runtime_layout(lattice, D, &isolation);
        let pristine = DeformedPatch::new(lattice, D, D).layout().unwrap();
        assert_eq!(layout == pristine, isolation.is_empty(), "{name}: deformed");
        let build = |p: f64| {
            let mem = memory_circuit(&layout, &NoiseModel::uniform(p), D, MemoryBasis::Z);
            graph_for_circuit(&mem.circuit)
        };
        let base = build(P0);
        for p in [1e-5, 1e-3, 5e-3, 3e-2, 0.3] {
            let mut reweighted = base.clone();
            reweighted
                .reweight(&RateTable::uniform(p))
                .expect("graph carries provenance");
            let fresh = build(p);
            let ctx = format!("{name} at p={p}");
            assert_weights_bit_identical(&reweighted, &fresh, &ctx);
            for (i, (a, b)) in reweighted.edges().iter().zip(fresh.edges()).enumerate() {
                assert_eq!(a.observables, b.observables, "{ctx}: edge {i} mask");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incrementally reweighting a provenance-carrying graph produces the
    /// exact bits a from-scratch rebuild from the reweighted DEM produces,
    /// for random circuits, uniform drift levels, and per-source
    /// overrides.
    #[test]
    fn incremental_reweight_matches_fresh_rebuild(
        d_idx in 0usize..2,
        rounds in 1usize..4,
        p_milli in 1u32..30,
        drift_tenth_milli in 1u32..400,
        overrides in 0usize..6,
        override_rate_tenth_milli in 1u32..400,
    ) {
        let d = [3usize, 5][d_idx];
        let mem = memory(d, p_milli as f64 * 1e-3, rounds);
        let dem = extract_dem(&mem.circuit);
        let mut rates = RateTable::uniform(drift_tenth_milli as f64 * 1e-4);
        for source in dem.sources.iter().take(overrides) {
            rates.set(*source, override_rate_tenth_milli as f64 * 1e-4);
        }

        let mut incremental = MatchingGraph::from_dem(&dem);
        incremental.reweight(&rates).expect("graph carries provenance");
        let fresh = MatchingGraph::from_dem(&dem.reweighted(&rates));
        assert_weights_bit_identical(&incremental, &fresh, "proptest");
        prop_assert!(incremental.validate().is_ok());
    }

    /// Under uniform drift, reweighting a graph to the drifted rate gives
    /// the weights of a graph freshly extracted from the drifted circuit,
    /// and decoders built over either agree shot for shot on shots sampled
    /// from that circuit (observable masks included). Two batches run
    /// through each decoder, so the MWPM and union-find scratch are
    /// exercised warm as well as cold.
    #[test]
    fn decoders_on_reweighted_graph_match_fresh_extraction(
        p_milli in 1u32..20,
        drift_milli in 1u32..40,
        seed in 0u64..1_000,
    ) {
        let p_drift = drift_milli as f64 * 1e-3;
        let mem = memory(3, p_milli as f64 * 1e-3, 3);
        let mut reweighted = graph_for_circuit(&mem.circuit);
        reweighted
            .reweight(&RateTable::uniform(p_drift))
            .expect("graph carries provenance");
        let drifted = memory(3, p_drift, 3);
        let fresh = graph_for_circuit(&drifted.circuit);
        assert_weights_bit_identical(&reweighted, &fresh, "drifted circuit");

        let mut mwpm = MwpmDecoder::new(reweighted.clone());
        let mut uf = UnionFindDecoder::new(reweighted);
        let mut fresh_mwpm = MwpmDecoder::new(fresh.clone());
        let mut fresh_uf = UnionFindDecoder::new(fresh);
        let mut sampler = FrameSampler::new(&drifted.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseBatch::new();
        for _ in 0..2 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects = sparse.defects(s);
                prop_assert_eq!(mwpm.decode(defects), fresh_mwpm.decode(defects));
                prop_assert_eq!(uf.decode(defects), fresh_uf.decode(defects));
            }
        }
    }
}

/// Identity-rate-table reweighting must leave engine output bit-identical
/// to the golden fingerprints (the same table as
/// `sparse_decode_validation.rs`, re-captured under the per-batch seed
/// schedule): recording provenance and replaying the probability folds is
/// exact.
#[test]
fn identity_reweight_preserves_engine_fingerprints() {
    struct Case {
        d: usize,
        p: f64,
        min_shots: usize,
        seed: u64,
        uf_expect: (usize, usize),
    }
    let cases = [
        Case {
            d: 3,
            p: 3e-3,
            min_shots: 20_000,
            seed: 0xABCD,
            uf_expect: (20_032, 315),
        },
        Case {
            d: 5,
            p: 2e-3,
            min_shots: 10_000,
            seed: 0xBEEF,
            uf_expect: (10_048, 31),
        },
        Case {
            d: 7,
            p: 3e-3,
            min_shots: 5_000,
            seed: 0xCAFE,
            uf_expect: (5_056, 11),
        },
    ];
    for Case {
        d,
        p,
        min_shots,
        seed,
        uf_expect,
    } in cases
    {
        let mem = memory(d, p, d);
        let compiled = CompiledCircuit::new(&mem.circuit);
        let mut graph = graph_for_circuit(&mem.circuit);
        graph
            .reweight(&RateTable::identity())
            .expect("graph carries provenance");
        let opts = SampleOptions {
            min_shots,
            ..Default::default()
        };
        for threads in [1usize, 2] {
            let run = LerEngine::new(threads).estimate(
                &compiled,
                &|| UnionFindDecoder::new(graph.clone()),
                opts,
                seed,
            );
            assert_eq!(
                (run.estimate.shots, run.estimate.failures),
                uf_expect,
                "identity-reweighted UF d={d} threads={threads}"
            );
            let tiered = LerEngine::new(threads).estimate(
                &compiled,
                &Tiered::new(&graph, {
                    let graph = graph.clone();
                    move || UnionFindDecoder::new(graph.clone())
                }),
                opts,
                seed,
            );
            assert_eq!(
                (tiered.estimate.shots, tiered.estimate.failures),
                uf_expect,
                "identity-reweighted tiered UF d={d} threads={threads}"
            );
        }
    }
}

/// `drift_trajectory`'s peak point, decoded the two ways the experiment
/// decodes it: `Tiered` union-find over the calibration-time graph (static)
/// and over a clone reweighted to the drifted per-gate rates (aware). Both
/// arms see the identical syndrome stream, so the failure gap is pure
/// decode-prior quality; the counts are what the experiment prints at
/// `--shots 20000`, at any thread count.
#[test]
fn drift_aware_arm_is_pinned_by_value() {
    const D: usize = 5;
    const P0: f64 = 1.5e-3;
    const HOURS: f64 = 12.0;
    let layout = rotated_patch(D, D);
    // The experiment's heterogeneous drift: data qubits split by coordinate
    // parity into a fast (10 h per decade) and a slow (40 h) population;
    // ancillas and couplers stay at p0.
    let mut noise = NoiseModel::uniform(P0);
    for &q in &layout.data {
        let t_drift_hours = if (q.r + q.c) % 4 == 0 { 10.0 } else { 40.0 };
        let model = DriftModel {
            p0: P0,
            t_drift_hours,
        };
        noise.drift_qubit(q, model.p_at(HOURS).min(0.1));
    }
    let base_mem = memory_circuit(&layout, &NoiseModel::uniform(P0), D, MemoryBasis::Z);
    let dem = extract_dem(&base_mem.circuit);
    let calibrated = MatchingGraph::from_dem(&dem);
    let mut aware = calibrated.clone();
    aware
        .reweight(&drift_rate_table(&base_mem, &dem, &noise))
        .expect("graph carries provenance");
    let drifted = memory_circuit(&layout, &noise, D, MemoryBasis::Z);
    let compiled = CompiledCircuit::new(&drifted.circuit);
    let opts = SampleOptions {
        min_shots: 20_000,
        ..Default::default()
    };
    let seed = 0xD81F_7A6E + 6;
    for threads in [1usize, 2] {
        for (arm, graph, expect) in [
            ("static", &calibrated, (20_032, 738)),
            ("aware", &aware, (20_032, 597)),
        ] {
            let tiered = Tiered::new(graph, || UnionFindDecoder::new(graph.clone()));
            let run = LerEngine::new(threads).estimate(&compiled, &tiered, opts, seed);
            assert_eq!(
                (run.estimate.shots, run.estimate.failures),
                expect,
                "{arm} arm threads={threads}"
            );
        }
    }
}
