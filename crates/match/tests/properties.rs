//! Property-based tests of the decoders: totality (every syndrome decodes),
//! determinism, and single-error correction. The exact matcher's
//! optimality against brute force is a unit test in `mwpm.rs`, next to the
//! private DP it checks.

use caliqec_match::{graph_for_circuit, Decoder, MatchingGraph, MwpmDecoder, UnionFindDecoder};
use caliqec_stab::{Basis, Circuit, Noise1};
use proptest::prelude::*;

/// A repetition-chain matching graph with `n` detectors in a path plus
/// boundary edges at both ends.
fn chain_graph(n: usize) -> MatchingGraph {
    let data: Vec<u32> = (0..=n as u32).collect();
    let anc: Vec<u32> = ((n + 1) as u32..(2 * n + 1) as u32).collect();
    let mut c = Circuit::new(2 * n + 1);
    c.reset(Basis::Z, &(0..(2 * n + 1) as u32).collect::<Vec<_>>());
    c.noise1(Noise1::XError, 0.01, &data);
    for i in 0..n {
        c.cx(data[i], anc[i]);
        c.cx(data[i + 1], anc[i]);
    }
    let ms: Vec<_> = anc.iter().map(|&a| c.measure(a, Basis::Z, 0.0)).collect();
    for m in &ms {
        c.detector(&[*m]);
    }
    let md = c.measure(data[0], Basis::Z, 0.0);
    c.observable(0, &[md]);
    graph_for_circuit(&c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both decoders accept any defect subset without panicking, and are
    /// deterministic.
    #[test]
    fn decoders_total_and_deterministic(
        n in 3usize..10,
        raw_defects in prop::collection::btree_set(0usize..9, 0..6),
    ) {
        let graph = chain_graph(n);
        let defects: Vec<usize> = raw_defects.into_iter().filter(|&d| d < n).collect();
        let mut uf = UnionFindDecoder::new(graph.clone());
        let mut mwpm = MwpmDecoder::new(graph);
        let u1 = uf.decode(&defects);
        let u2 = uf.decode(&defects);
        prop_assert_eq!(u1, u2, "union-find must be deterministic");
        let m1 = mwpm.decode(&defects);
        let m2 = mwpm.decode(&defects);
        prop_assert_eq!(m1, m2, "MWPM must be deterministic");
    }

    /// On a chain, any single error's syndrome decodes back to a correction
    /// with the right logical effect: the decoder's prediction must match
    /// the actual observable flip of that error.
    #[test]
    fn single_error_always_corrected(n in 3usize..10, qubit in 0usize..9) {
        let qubit = qubit.min(n); // data qubits 0..=n
        let graph = chain_graph(n);
        // An X on data qubit q flips detectors q-1 and q (when in range);
        // the observable (data qubit 0) flips iff q == 0.
        let mut defects = Vec::new();
        if qubit >= 1 {
            defects.push(qubit - 1);
        }
        if qubit < n {
            defects.push(qubit);
        }
        let actual_obs = u64::from(qubit == 0);
        let mut uf = UnionFindDecoder::new(graph.clone());
        prop_assert_eq!(uf.decode(&defects), actual_obs, "UF mis-corrects X{}", qubit);
        let mut mwpm = MwpmDecoder::new(graph);
        prop_assert_eq!(mwpm.decode(&defects), actual_obs, "MWPM mis-corrects X{}", qubit);
    }
}
