//! Exact minimum-weight perfect matching for small defect sets: the test
//! oracle for the union-find decoder and the small-instance (e.g. d = 3)
//! decoder.
//!
//! Per defect, one Dijkstra on the matching graph finds the shortest paths
//! to every other defect and to the boundary; the optimal pairing — where
//! every defect pairs with another defect or with the boundary — is then
//! solved exactly by bitmask dynamic programming over subsets, in O(2^k · k)
//! time and O(2^k) memory. Up to [`MwpmDecoder::MAX_DEFECTS`] defects that is
//! cheap; above it the decoder refuses the shot (it panics) instead of
//! returning an approximate pairing under the MWPM name.
//!
//! The decode hot path reuses all working storage across calls: each
//! Dijkstra run stops once every current defect and the boundary are
//! settled, and resets its one shortest-path buffer in O(reached).

use crate::decode::Decoder;
use crate::graph::{HeapItem, MatchingGraph, NodeId};
use std::collections::BinaryHeap;

/// Result of a Dijkstra run from one source.
///
/// Only nodes with `settled[v]` carry final values; a run that stopped early
/// leaves tentative `dist`/`obs` on frontier nodes, which must never be read.
/// `touched` lists every node whose entry differs from the pristine state
/// (`dist = ∞`, `obs = 0`, unsettled), so a re-run resets in O(reached).
#[derive(Clone, Debug)]
struct SourcePaths {
    dist: Vec<f64>,
    obs: Vec<u64>,
    settled: Vec<bool>,
    touched: Vec<NodeId>,
}

impl SourcePaths {
    fn new(n: usize) -> SourcePaths {
        SourcePaths {
            dist: vec![f64::INFINITY; n],
            obs: vec![0; n],
            settled: vec![false; n],
            touched: Vec::new(),
        }
    }
}

/// Dijkstra from `source` into `sp`, resetting `sp` first via its touched
/// list. `pending` must equal the number of distinct nodes with
/// `target_mark` set; the search stops as soon as all of them are settled.
///
/// Early termination only decides *when the loop stops*: the pop order (and
/// hence every settled node's `dist`/`obs`) is byte-identical to a full run,
/// because the node-id tie-break in [`HeapItem`] makes relaxation order a
/// function of the graph and source alone.
fn run_dijkstra(
    graph: &MatchingGraph,
    heap: &mut BinaryHeap<HeapItem>,
    sp: &mut SourcePaths,
    source: NodeId,
    target_mark: &[bool],
    mut pending: usize,
) {
    for i in 0..sp.touched.len() {
        let node = sp.touched[i];
        sp.dist[node] = f64::INFINITY;
        sp.obs[node] = 0;
        sp.settled[node] = false;
    }
    sp.touched.clear();
    heap.clear();
    sp.dist[source] = 0.0;
    sp.touched.push(source);
    heap.push(HeapItem(0.0, source));
    while let Some(HeapItem(d, u)) = heap.pop() {
        if sp.settled[u] {
            continue;
        }
        sp.settled[u] = true;
        if target_mark[u] {
            pending -= 1;
            if pending == 0 {
                break;
            }
        }
        for &ei in graph.incident(u) {
            let ei = ei as usize;
            let e = &graph.edges()[ei];
            let v = graph.other_endpoint(ei, u);
            let nd = d + e.weight;
            if nd < sp.dist[v] {
                if sp.dist[v].is_infinite() {
                    sp.touched.push(v);
                }
                sp.dist[v] = nd;
                sp.obs[v] = sp.obs[u] ^ e.observables;
                heap.push(HeapItem(nd, v));
            }
        }
    }
    heap.clear();
}

/// Reusable pairing-stage scratch (DP table and result).
#[derive(Clone, Debug, Default)]
struct PairingScratch {
    best: Vec<f64>,
    choice: Vec<(usize, Option<usize>)>,
    matched: Vec<Option<usize>>,
}

/// Exact minimum-weight perfect matching decoder for shots of at most
/// [`MwpmDecoder::MAX_DEFECTS`] defects.
///
/// A larger shot is refused: [`Decoder::decode`] panics, naming the bound,
/// just as every decoder panics on a defect id outside its graph. Under
/// [`crate::LerEngine::try_run`] that panic is a chunk fault: a plain
/// factory's run fails with [`crate::EngineError::ChunkFailed`] on rung 1,
/// while a [`crate::Tiered`] factory's chunk falls to the rung-2 reference
/// union-find and the run reports itself degraded.
///
/// # Examples
///
/// ```
/// use caliqec_match::{Decoder, MatchingGraph, MwpmDecoder};
/// use caliqec_stab::{Basis, Circuit, Noise1, extract_dem};
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 0.01, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
/// c.observable(0, &[m]);
/// let mut dec = MwpmDecoder::new(MatchingGraph::from_dem(&extract_dem(&c)));
/// assert_eq!(dec.decode(&[0]), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MwpmDecoder {
    graph: MatchingGraph,
    // Dijkstra scratch reused across calls.
    heap: BinaryHeap<HeapItem>,
    paths: SourcePaths,
    target_mark: Vec<bool>,
    target_nodes: Vec<NodeId>,
    // Flat k×k cost/observable matrices, rebuilt per decode (capacity kept).
    pair_cost: Vec<f64>,
    pair_obs: Vec<u64>,
    bnd_cost: Vec<f64>,
    bnd_obs: Vec<u64>,
    pairing: PairingScratch,
}

impl MwpmDecoder {
    /// The most defects one shot may carry: the bitmask DP's tables hold
    /// `2^MAX_DEFECTS` entries.
    pub const MAX_DEFECTS: usize = 16;

    /// Creates a decoder over `graph`.
    pub fn new(graph: MatchingGraph) -> MwpmDecoder {
        let n = graph.num_nodes();
        MwpmDecoder {
            graph,
            heap: BinaryHeap::new(),
            paths: SourcePaths::new(n),
            target_mark: vec![false; n],
            target_nodes: Vec::new(),
            pair_cost: Vec::new(),
            pair_obs: Vec::new(),
            bnd_cost: Vec::new(),
            bnd_obs: Vec::new(),
            pairing: PairingScratch::default(),
        }
    }

    /// Validating constructor: rejects a malformed graph with a typed
    /// error instead of letting NaN weights corrupt the Dijkstra trees or
    /// out-of-range endpoints panic mid-decode.
    pub fn try_new(graph: MatchingGraph) -> Result<MwpmDecoder, crate::error::ValidationError> {
        graph.validate()?;
        Ok(MwpmDecoder::new(graph))
    }

    /// The underlying matching graph.
    pub fn graph(&self) -> &MatchingGraph {
        &self.graph
    }

    /// Exact pairing by DP over subsets, into `s.matched`.
    ///
    /// `pair_cost` is a row-major `k × k` defect-to-defect distance matrix,
    /// `bnd_cost[i]` the defect-to-boundary distance. `s.matched[i]` ends up
    /// `Some(j)` when defect `i` is matched to defect `j` and `None` when
    /// matched to the boundary.
    fn exact_pairing(k: usize, pair_cost: &[f64], bnd_cost: &[f64], s: &mut PairingScratch) {
        let full = 1usize << k;
        s.best.clear();
        s.best.resize(full, f64::INFINITY);
        s.choice.clear();
        s.choice.resize(full, (usize::MAX, None));
        s.best[0] = 0.0;
        for mask in 0..full {
            if !s.best[mask].is_finite() {
                continue;
            }
            // Lowest unmatched defect.
            let Some(i) = (0..k).find(|&i| mask & (1 << i) == 0) else {
                continue;
            };
            // Match i to the boundary.
            let m2 = mask | (1 << i);
            let c = s.best[mask] + bnd_cost[i];
            if c < s.best[m2] {
                s.best[m2] = c;
                s.choice[m2] = (i, None);
            }
            // Match i to another unmatched defect j.
            for j in (i + 1)..k {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let m3 = mask | (1 << i) | (1 << j);
                let c = s.best[mask] + pair_cost[i * k + j];
                if c < s.best[m3] {
                    s.best[m3] = c;
                    s.choice[m3] = (i, Some(j));
                }
            }
        }
        // Reconstruct.
        s.matched.clear();
        s.matched.resize(k, None);
        let mut mask = full - 1;
        while mask != 0 {
            let (i, j) = s.choice[mask];
            debug_assert_ne!(i, usize::MAX, "unreachable matching state");
            match j {
                None => {
                    s.matched[i] = None;
                    mask &= !(1 << i);
                }
                Some(j) => {
                    s.matched[i] = Some(j);
                    s.matched[j] = Some(i);
                    mask &= !(1 << i);
                    mask &= !(1 << j);
                }
            }
        }
    }
}

impl Decoder for MwpmDecoder {
    /// # Panics
    ///
    /// Panics, naming the bound, when `defects` holds more than
    /// [`MwpmDecoder::MAX_DEFECTS`] entries.
    fn decode(&mut self, defects: &[NodeId]) -> u64 {
        let k = defects.len();
        assert!(
            k <= Self::MAX_DEFECTS,
            "MwpmDecoder is exact up to MAX_DEFECTS = {} defects and refuses a shot with {k}",
            Self::MAX_DEFECTS
        );
        if k == 0 {
            return 0;
        }
        let boundary = self.graph.boundary();

        // Mark the target set (defects + boundary, deduplicated) so Dijkstra
        // can stop once all of them are settled. `target_nodes` is the dirty
        // list that unmarks them below.
        debug_assert!(self.target_nodes.is_empty());
        for &d in defects {
            if !self.target_mark[d] {
                self.target_mark[d] = true;
                self.target_nodes.push(d);
            }
        }
        if !self.target_mark[boundary] {
            self.target_mark[boundary] = true;
            self.target_nodes.push(boundary);
        }

        self.pair_cost.clear();
        self.pair_cost.resize(k * k, 0.0);
        self.pair_obs.clear();
        self.pair_obs.resize(k * k, 0);
        self.bnd_cost.clear();
        self.bnd_cost.resize(k, 0.0);
        self.bnd_obs.clear();
        self.bnd_obs.resize(k, 0);

        for (i, &src) in defects.iter().enumerate() {
            let sp = &mut self.paths;
            run_dijkstra(
                &self.graph,
                &mut self.heap,
                sp,
                src,
                &self.target_mark,
                self.target_nodes.len(),
            );
            for (j, &t) in defects.iter().enumerate() {
                self.pair_cost[i * k + j] = sp.dist[t];
                self.pair_obs[i * k + j] = sp.obs[t];
            }
            self.bnd_cost[i] = sp.dist[boundary];
            self.bnd_obs[i] = sp.obs[boundary];
        }
        for i in 0..self.target_nodes.len() {
            self.target_mark[self.target_nodes[i]] = false;
        }
        self.target_nodes.clear();

        Self::exact_pairing(k, &self.pair_cost, &self.bnd_cost, &mut self.pairing);

        let mut correction = 0u64;
        for (i, m) in self.pairing.matched.iter().enumerate() {
            match *m {
                None => correction ^= self.bnd_obs[i],
                Some(j) if j > i => correction ^= self.pair_obs[i * k + j],
                Some(_) => {} // counted once from the smaller index
            }
        }
        correction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::Decoder;
    use caliqec_stab::{extract_dem, Basis, Circuit, Noise1};
    use proptest::prelude::*;

    fn rep_chain(n: usize, p: f64) -> MatchingGraph {
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
        MatchingGraph::from_dem(&extract_dem(&c))
    }

    /// Brute-force minimum total cost over every matching of `defects`
    /// (each pairs with another member or with the boundary).
    fn brute_force_min(defects: &[usize], k: usize, pair: &[f64], bnd: &[f64]) -> f64 {
        let Some((&i, rest)) = defects.split_first() else {
            return 0.0;
        };
        let mut best = bnd[i] + brute_force_min(rest, k, pair, bnd);
        for (pos, &j) in rest.iter().enumerate() {
            let mut others = rest.to_vec();
            others.remove(pos);
            best = best.min(pair[i * k + j] + brute_force_min(&others, k, pair, bnd));
        }
        best
    }

    #[test]
    fn agrees_with_intuition_on_chain() {
        let mut dec = MwpmDecoder::new(rep_chain(5, 0.01));
        assert_eq!(dec.decode(&[]), 0);
        assert_eq!(dec.decode(&[0]), 1); // left boundary, observable flips
        assert_eq!(dec.decode(&[1, 2]), 0); // interior pair
        assert_eq!(dec.decode(&[3]), 0); // right boundary
    }

    #[test]
    fn refuses_shots_beyond_max_defects() {
        let mut dec = MwpmDecoder::new(rep_chain(18, 0.01)); // 17 detectors
        let all: Vec<usize> = (0..17).collect();
        // Sixteen neighbours pair up in the interior.
        assert_eq!(dec.decode(&all[..MwpmDecoder::MAX_DEFECTS]), 0);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dec.decode(&all)))
            .expect_err("17 defects exceed the exact bound");
        let msg = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("MAX_DEFECTS = 16"), "{msg}");
    }

    #[test]
    fn exact_pairing_prefers_cheap_global_solution() {
        // Three defects in a line: 0 -1- 1 -1- 2, boundary cost 10 each
        // except defect 2 with boundary cost 1. Optimal: (0,1) + (2,boundary).
        #[rustfmt::skip]
        let pair = [
            0.0, 1.0, 2.0,
            1.0, 0.0, 1.0,
            2.0, 1.0, 0.0,
        ];
        let bnd = [10.0, 10.0, 1.0];
        let mut s = PairingScratch::default();
        MwpmDecoder::exact_pairing(3, &pair, &bnd, &mut s);
        assert_eq!(s.matched, vec![Some(1), Some(0), None]);
    }

    #[test]
    fn exact_pairing_passes_up_the_cheapest_pair() {
        // Committing to the cheapest pair (1,2) at cost 1 would leave 0 and
        // 3 to pair at 9 (or drain at 10 + 10), a total of 10. Exact takes
        // (0,1) + (2,3) for 2 + 2.
        #[rustfmt::skip]
        let pair = [
            0.0, 2.0, 9.0, 9.0,
            2.0, 0.0, 1.0, 9.0,
            9.0, 1.0, 0.0, 2.0,
            9.0, 9.0, 2.0, 0.0,
        ];
        let bnd = [10.0, 10.0, 10.0, 10.0];
        let mut s = PairingScratch::default();
        MwpmDecoder::exact_pairing(4, &pair, &bnd, &mut s);
        assert_eq!(s.matched, vec![Some(1), Some(0), Some(3), Some(2)]);
    }

    #[test]
    fn scratch_resets_after_an_early_stop() {
        // The first decode settles only a prefix of the graph from source
        // 4; the second query from the same source needs farther targets,
        // and the reused decoder must answer it as a fresh one does.
        let mut dec = MwpmDecoder::new(rep_chain(9, 0.01));
        let a1 = dec.decode(&[4, 5]);
        let a2 = dec.decode(&[0, 4]);
        let mut fresh = MwpmDecoder::new(rep_chain(9, 0.01));
        assert_eq!(fresh.decode(&[4, 5]), a1);
        let mut fresh2 = MwpmDecoder::new(rep_chain(9, 0.01));
        assert_eq!(fresh2.decode(&[0, 4]), a2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random symmetric pair and boundary costs, the pairing the DP
        /// picks costs exactly the brute-force minimum over all matchings.
        /// Integer costs keep every sum exact in f64.
        #[test]
        fn exact_pairing_is_optimal(
            k in 1usize..=8,
            raw_pair in prop::collection::vec(1u32..50, 64),
            raw_bnd in prop::collection::vec(1u32..50, 8),
        ) {
            let mut pair = vec![0.0; k * k];
            for i in 0..k {
                for j in (i + 1)..k {
                    pair[i * k + j] = f64::from(raw_pair[i * 8 + j]);
                    pair[j * k + i] = pair[i * k + j];
                }
            }
            let bnd: Vec<f64> = raw_bnd[..k].iter().map(|&c| f64::from(c)).collect();
            let mut s = PairingScratch::default();
            MwpmDecoder::exact_pairing(k, &pair, &bnd, &mut s);
            let mut cost = 0.0;
            for (i, m) in s.matched.iter().enumerate() {
                match *m {
                    None => cost += bnd[i],
                    Some(j) if j > i => cost += pair[i * k + j],
                    Some(j) => prop_assert_eq!(s.matched[j], Some(i)),
                }
            }
            let all: Vec<usize> = (0..k).collect();
            prop_assert_eq!(cost, brute_force_min(&all, k, &pair, &bnd));
        }
    }
}
