//! Property tests for the hardened input-validation layer: arbitrary
//! malformed matching graphs and circuit IR must always come back as typed
//! [`ValidationError`]/[`EngineError`] values from the public entry points
//! — constructors, validators, and the engine — and never as panics.

use caliqec_match::{
    graph_for_circuit, Edge, EngineError, LerEngine, MatchingGraph, MwpmDecoder,
    ReferenceUnionFind, SampleOptions, Tiered, UnionFindDecoder,
};
use caliqec_stab::{Basis, Circuit, CompiledCircuit, MeasIdx, Noise1, Op};
use proptest::prelude::*;

const MAX_DETECTORS: usize = 5;

/// Edges over a slightly-too-large node range with weights and
/// probabilities drawn from both the valid and the pathological corners
/// (NaN, negative, infinite, zero-probability).
fn edge_strategy() -> impl Strategy<Value = Edge> {
    let weight = prop_oneof![Just(f64::NAN), Just(-1.5), Just(f64::INFINITY), 0.1f64..6.0,];
    let probability = prop_oneof![Just(0.0), Just(f64::NAN), Just(1.5), 0.01f64..0.5];
    (
        0..MAX_DETECTORS + 3,
        0..MAX_DETECTORS + 3,
        weight,
        probability,
        0u64..4,
    )
        .prop_map(|(u, v, weight, probability, observables)| Edge {
            u,
            v,
            probability,
            weight,
            observables,
        })
}

/// A mix of well-formed and malformed circuit operations over 3 qubits:
/// out-of-range qubits, bad probabilities, duplicate pair targets, and
/// dangling measurement records all appear with fair odds.
fn op_strategy() -> impl Strategy<Value = Op> {
    let p = prop_oneof![Just(0.01), Just(f64::NAN), Just(1.5), Just(-0.2)];
    let flip = prop_oneof![Just(0.0), Just(2.0)];
    prop_oneof![
        (0u32..6).prop_map(|q| Op::Reset(Basis::Z, vec![q])),
        (0u32..6, p).prop_map(|(q, p)| Op::Noise1(Noise1::XError, p, vec![q])),
        (0u32..6, flip).prop_map(|(q, flip)| Op::Measure {
            basis: Basis::Z,
            qubit: q,
            flip,
        }),
        (0u32..8).prop_map(|m| Op::Detector(vec![MeasIdx(m)])),
        (0usize..70, 0u32..8).prop_map(|(o, m)| Op::Observable(o, vec![MeasIdx(m)])),
    ]
}

/// A tiny known-good repetition-code workload for driving the engine.
fn valid_workload() -> (Circuit, MatchingGraph) {
    let mut c = Circuit::new(5);
    c.reset(Basis::Z, &[0, 1, 2, 3, 4]);
    c.noise1(Noise1::XError, 0.02, &[0, 1, 2]);
    c.cx(0, 3);
    c.cx(1, 3);
    c.cx(1, 4);
    c.cx(2, 4);
    let m0 = c.measure(3, Basis::Z, 0.0);
    let m1 = c.measure(4, Basis::Z, 0.0);
    c.detector(&[m0]);
    c.detector(&[m1]);
    let md = c.measure(0, Basis::Z, 0.0);
    c.observable(0, &[md]);
    let graph = graph_for_circuit(&c);
    (c, graph)
}

const TINY: SampleOptions = SampleOptions {
    min_shots: 64,
    max_failures: 0,
    max_shots: 0,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Graph construction and validation never panic, and every validating
    /// decoder constructor agrees with `MatchingGraph::validate`.
    #[test]
    fn arbitrary_graphs_validate_without_panicking(
        num_detectors in 1usize..MAX_DETECTORS,
        edges in prop::collection::vec(edge_strategy(), 0..10),
    ) {
        let graph = MatchingGraph::from_edges(num_detectors, 2, edges);
        let verdict = graph.validate();
        let uf = UnionFindDecoder::try_new(graph.clone());
        let mwpm = MwpmDecoder::try_new(graph.clone());
        let reference = ReferenceUnionFind::try_new(graph.clone());
        prop_assert_eq!(verdict.is_ok(), uf.is_ok());
        prop_assert_eq!(verdict.is_ok(), mwpm.is_ok());
        prop_assert_eq!(verdict.is_ok(), reference.is_ok());
    }

    /// A circuit that fails validation is rejected by the validating
    /// compile, `CompiledCircuit::try_new`, before any engine run: the
    /// typed error converts into `EngineError::Circuit` — never a panic.
    #[test]
    fn malformed_circuits_yield_typed_errors(
        ops in prop::collection::vec(op_strategy(), 0..12),
    ) {
        let circuit = Circuit::from_ops(3, ops);
        if circuit.validate().is_err() {
            let (_, graph) = valid_workload();
            let result = CompiledCircuit::try_new(&circuit)
                .map_err(EngineError::from)
                .and_then(|compiled| {
                    LerEngine::new(1).try_run(
                        &compiled,
                        &|| UnionFindDecoder::new(graph.clone()),
                        TINY,
                        7,
                    )
                });
            prop_assert!(matches!(result, Err(EngineError::Circuit(_))));
        }
    }

    /// A factory carrying a malformed graph is rejected up front by
    /// `try_run` (typed `EngineError::Graph`), and `Tiered::try_new`
    /// refuses it at construction.
    #[test]
    fn poisoned_factories_are_rejected(
        num_detectors in 1usize..MAX_DETECTORS,
        edges in prop::collection::vec(edge_strategy(), 1..10),
    ) {
        let bad = MatchingGraph::from_edges(num_detectors, 2, edges);
        if bad.validate().is_err() {
            let (circuit, graph) = valid_workload();
            let make = {
                let graph = graph.clone();
                move || UnionFindDecoder::new(graph.clone())
            };
            prop_assert!(Tiered::try_new(&bad, make.clone()).is_err());
            let factory = Tiered::new(&bad, make);
            let result = LerEngine::new(1).try_run(
                &CompiledCircuit::new(&circuit),
                &factory,
                TINY,
                3,
            );
            prop_assert!(matches!(result, Err(EngineError::Graph(_))));
        }
    }
}
