//! Exact minimum-weight perfect matching decoder for small defect sets.
//!
//! All-pairs shortest paths between defects (and to the boundary) are found
//! with Dijkstra on the matching graph; the optimal pairing — where every
//! defect pairs with another defect or with the boundary — is solved exactly
//! by bitmask dynamic programming for up to [`MwpmDecoder::max_exact_defects`]
//! defects, and greedily beyond that. This decoder is the test oracle for the
//! union-find decoder and the small-instance (e.g. d = 3) workhorse.
//!
//! The decode hot path reuses all working storage across calls: Dijkstra runs
//! early-terminate once every current defect and the boundary are settled, and
//! per-source results are kept in a grow-only, byte-bounded cache so repeated
//! defects across shots skip the search entirely (distances from a fixed
//! source never change). [`MwpmDecoder::without_cache`] restores the historic
//! compute-everything-per-call behavior for benchmarking and cross-validation.

use crate::decode::Decoder;
use crate::graph::{MatchingGraph, NodeId};
use std::cmp::Ordering;
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

#[derive(Clone, Debug, PartialEq)]
struct HeapItem(f64, NodeId);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap.
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.1.cmp(&self.1))
    }
}

/// Dijkstra from `source` into `sp`, resetting `sp` first via its touched
/// list. When `pending` is finite it must equal the number of distinct nodes
/// with `target_mark` set; the search stops as soon as all of them are
/// settled. Pass `usize::MAX` to settle the whole graph.
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

/// Reusable pairing-stage scratch (DP table, greedy candidates, result).
#[derive(Clone, Debug, Default)]
struct PairingScratch {
    best: Vec<f64>,
    choice: Vec<(usize, Option<usize>)>,
    cands: Vec<(f64, u32, u32)>,
    assigned: Vec<bool>,
    matched: Vec<Option<usize>>,
}

/// Exact MWPM decoder (with a greedy fallback for large defect sets).
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
    max_exact: usize,
    // Per-source shortest-path cache: slot `s` holds the last Dijkstra run
    // from source `s`, reused whenever every current target is already
    // settled in it. Grow-only and byte-bounded: once `cache_bytes` would
    // exceed `cache_limit`, further sources fall back to `scratch_paths`.
    cache_enabled: bool,
    cache: Vec<Option<Box<SourcePaths>>>,
    cache_bytes: usize,
    cache_limit: usize,
    // Dijkstra scratch reused across calls.
    heap: BinaryHeap<HeapItem>,
    scratch_paths: SourcePaths,
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
    /// Default cap on the number of defects solved exactly.
    pub const DEFAULT_MAX_EXACT: usize = 16;

    /// Default byte budget for the per-source shortest-path cache.
    pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

    /// Creates a decoder with the default exact-solving cap.
    pub fn new(graph: MatchingGraph) -> MwpmDecoder {
        Self::build(graph, Self::DEFAULT_MAX_EXACT, true)
    }

    /// Validating constructor: rejects a malformed graph with a typed
    /// error instead of letting NaN weights corrupt the Dijkstra trees or
    /// out-of-range endpoints panic mid-decode.
    pub fn try_new(graph: MatchingGraph) -> Result<MwpmDecoder, crate::error::ValidationError> {
        graph.validate()?;
        Ok(MwpmDecoder::new(graph))
    }

    /// Creates a decoder solving exactly up to `max_exact` defects.
    ///
    /// # Panics
    ///
    /// Panics if `max_exact > 24` (the bitmask DP table would be too large).
    pub fn with_max_exact(graph: MatchingGraph, max_exact: usize) -> MwpmDecoder {
        assert!(max_exact <= 24, "exact matching capped at 24 defects");
        Self::build(graph, max_exact, true)
    }

    /// Creates a decoder with the per-source cache and Dijkstra early
    /// termination disabled: every decode recomputes full shortest-path
    /// trees, matching the historic behavior. Reference path for benchmarks
    /// and cross-validation.
    pub fn without_cache(graph: MatchingGraph) -> MwpmDecoder {
        Self::build(graph, Self::DEFAULT_MAX_EXACT, false)
    }

    fn build(graph: MatchingGraph, max_exact: usize, cache_enabled: bool) -> MwpmDecoder {
        let n = graph.num_nodes();
        MwpmDecoder {
            graph,
            max_exact,
            cache_enabled,
            cache: (0..n).map(|_| None).collect(),
            cache_bytes: 0,
            cache_limit: Self::DEFAULT_CACHE_BYTES,
            heap: BinaryHeap::new(),
            scratch_paths: SourcePaths::new(n),
            target_mark: vec![false; n],
            target_nodes: Vec::new(),
            pair_cost: Vec::new(),
            pair_obs: Vec::new(),
            bnd_cost: Vec::new(),
            bnd_obs: Vec::new(),
            pairing: PairingScratch::default(),
        }
    }

    /// The number of defects up to which matching is solved exactly.
    pub fn max_exact_defects(&self) -> usize {
        self.max_exact
    }

    /// The underlying matching graph.
    pub fn graph(&self) -> &MatchingGraph {
        &self.graph
    }

    /// How many sources currently hold a cached shortest-path tree.
    pub fn cached_sources(&self) -> usize {
        self.cache.iter().filter(|s| s.is_some()).count()
    }

    /// Approximate heap footprint of one cache entry.
    fn entry_bytes(n: usize) -> usize {
        std::mem::size_of::<SourcePaths>()
            + n * (std::mem::size_of::<f64>()
                + std::mem::size_of::<u64>()
                + 1
                + std::mem::size_of::<NodeId>())
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

    /// Greedy pairing into `s.matched`: repeatedly commit the globally
    /// cheapest available match (pair or boundary). Matrix layout as in
    /// [`Self::exact_pairing`].
    fn greedy_pairing(k: usize, pair_cost: &[f64], bnd_cost: &[f64], s: &mut PairingScratch) {
        // A boundary candidate for defect i is encoded as (i, i); real pairs
        // always have j > i. The (cost, i, j) sort therefore reproduces the
        // historic stable-sort-by-cost order (insertion order was i
        // ascending, boundary before pairs, j ascending).
        s.cands.clear();
        for i in 0..k {
            s.cands.push((bnd_cost[i], i as u32, i as u32));
            for j in (i + 1)..k {
                s.cands.push((pair_cost[i * k + j], i as u32, j as u32));
            }
        }
        s.cands.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        s.matched.clear();
        s.matched.resize(k, None);
        s.assigned.clear();
        s.assigned.resize(k, false);
        let mut remaining = k;
        for idx in 0..s.cands.len() {
            if remaining == 0 {
                break;
            }
            let (_, i, j) = s.cands[idx];
            let (i, j) = (i as usize, j as usize);
            if s.assigned[i] {
                continue;
            }
            if i == j {
                s.assigned[i] = true;
                s.matched[i] = None;
                remaining -= 1;
            } else if !s.assigned[j] {
                s.assigned[i] = true;
                s.assigned[j] = true;
                s.matched[i] = Some(j);
                s.matched[j] = Some(i);
                remaining -= 2;
            }
        }
    }
}

impl Decoder for MwpmDecoder {
    fn decode(&mut self, defects: &[NodeId]) -> u64 {
        let k = defects.len();
        if k == 0 {
            return 0;
        }
        let n = self.graph.num_nodes();
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
        let pending = if self.cache_enabled {
            self.target_nodes.len()
        } else {
            usize::MAX // reference path: settle the whole graph
        };

        self.pair_cost.clear();
        self.pair_cost.resize(k * k, 0.0);
        self.pair_obs.clear();
        self.pair_obs.resize(k * k, 0);
        self.bnd_cost.clear();
        self.bnd_cost.resize(k, 0.0);
        self.bnd_obs.clear();
        self.bnd_obs.resize(k, 0);

        for i in 0..k {
            let src = defects[i];
            let MwpmDecoder {
                graph,
                cache_enabled,
                cache,
                cache_bytes,
                cache_limit,
                heap,
                scratch_paths,
                target_mark,
                target_nodes,
                pair_cost,
                pair_obs,
                bnd_cost,
                bnd_obs,
                ..
            } = self;
            let sp: &SourcePaths = if *cache_enabled {
                if cache[src].is_none() && *cache_bytes + Self::entry_bytes(n) <= *cache_limit {
                    cache[src] = Some(Box::new(SourcePaths::new(n)));
                    *cache_bytes += Self::entry_bytes(n);
                }
                if let Some(entry) = cache[src].as_mut() {
                    let hit = target_nodes.iter().all(|&t| entry.settled[t]);
                    if !hit {
                        run_dijkstra(graph, heap, entry, src, target_mark, pending);
                    }
                    entry
                } else {
                    run_dijkstra(graph, heap, scratch_paths, src, target_mark, pending);
                    scratch_paths
                }
            } else {
                run_dijkstra(graph, heap, scratch_paths, src, target_mark, pending);
                scratch_paths
            };
            for j in 0..k {
                pair_cost[i * k + j] = sp.dist[defects[j]];
                pair_obs[i * k + j] = sp.obs[defects[j]];
            }
            bnd_cost[i] = sp.dist[boundary];
            bnd_obs[i] = sp.obs[boundary];
        }
        for i in 0..self.target_nodes.len() {
            self.target_mark[self.target_nodes[i]] = false;
        }
        self.target_nodes.clear();

        if k <= self.max_exact {
            Self::exact_pairing(k, &self.pair_cost, &self.bnd_cost, &mut self.pairing);
        } else {
            Self::greedy_pairing(k, &self.pair_cost, &self.bnd_cost, &mut self.pairing);
        }

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

    #[test]
    fn agrees_with_intuition_on_chain() {
        let mut dec = MwpmDecoder::new(rep_chain(5, 0.01));
        assert_eq!(dec.decode(&[]), 0);
        assert_eq!(dec.decode(&[0]), 1); // left boundary, observable flips
        assert_eq!(dec.decode(&[1, 2]), 0); // interior pair
        assert_eq!(dec.decode(&[3]), 0); // right boundary
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
    fn exact_beats_greedy_on_crafted_instance() {
        // Greedy takes the (1,2) pair first (cost 1), forcing 0 and 3 to pay
        // boundary costs 10 + 10. Exact takes (0,1) + (2,3) for 2 + 2.
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
        // Greedy grabs (1,2) first and is forced to pair (0,3) at cost 9,
        // for a total of 10 versus the exact solution's 4.
        MwpmDecoder::greedy_pairing(4, &pair, &bnd, &mut s);
        assert_eq!(s.matched, vec![Some(3), Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn greedy_fallback_still_produces_full_matching() {
        let g = rep_chain(9, 0.01);
        let mut dec = MwpmDecoder::with_max_exact(g, 1);
        // Forcing greedy on 2 defects still resolves them.
        let obs = dec.decode(&[1, 2]);
        assert_eq!(obs, 0);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn max_exact_is_bounded() {
        let g = rep_chain(3, 0.01);
        let _ = MwpmDecoder::with_max_exact(g, 30);
    }

    #[test]
    fn cached_decoder_matches_reference_on_chain() {
        let syndromes: [&[usize]; 6] = [&[0], &[1, 2], &[3], &[0, 5], &[2, 3, 6], &[1, 2]];
        let mut cached = MwpmDecoder::new(rep_chain(9, 0.01));
        let mut reference = MwpmDecoder::without_cache(rep_chain(9, 0.01));
        for s in syndromes {
            assert_eq!(cached.decode(s), reference.decode(s));
        }
        assert!(cached.cached_sources() > 0);
        assert_eq!(reference.cached_sources(), 0);
    }

    #[test]
    fn cache_hit_after_early_stop_is_consistent() {
        // First decode settles only a prefix of the graph from source 4;
        // the second query from the same source needs farther targets and
        // must trigger a re-run, not serve tentative values.
        let mut dec = MwpmDecoder::new(rep_chain(9, 0.01));
        let a1 = dec.decode(&[4, 5]);
        let a2 = dec.decode(&[0, 4]);
        let mut fresh = MwpmDecoder::new(rep_chain(9, 0.01));
        assert_eq!(fresh.decode(&[4, 5]), a1);
        let mut fresh2 = MwpmDecoder::new(rep_chain(9, 0.01));
        assert_eq!(fresh2.decode(&[0, 4]), a2);
    }
}
