//! Weighted union-find decoder (Delfosse–Nickerson style).
//!
//! Clusters grow outward from syndrome defects along the weighted matching
//! graph; odd clusters grow until they merge with another cluster or reach the
//! boundary, after which a peeling pass extracts a correction. This is the
//! primary decoder for all Monte-Carlo experiments (the paper uses MWPM via
//! PyMatching; union-find achieves a threshold within ~10 % of it and runs in
//! near-linear time, matching reference [15] of the paper).

use crate::decode::Decoder;
use crate::graph::{MatchingGraph, NodeId};

/// Union-find decoder over a matching graph.
///
/// The decode hot path is allocation-free in the steady state: *all*
/// working storage — cluster state, per-iteration growth rates, and the
/// peeling forest (adjacency restricted to grown edges, visit marks, BFS
/// order) — lives in scratch fields sized once at construction and
/// restored after every call via dirty lists, so the per-call cost scales
/// with the syndrome (defects touched, edges grown), never with the graph.
/// See `DESIGN.md` § "Decode hot path" for the exact invariants each dirty
/// list must restore.
///
/// # Examples
///
/// ```
/// use caliqec_match::{Decoder, MatchingGraph, UnionFindDecoder};
/// use caliqec_stab::{Basis, Circuit, Noise1, extract_dem};
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 0.01, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
/// c.observable(0, &[m]);
/// let graph = MatchingGraph::from_dem(&extract_dem(&c));
/// let mut dec = UnionFindDecoder::new(graph);
/// assert_eq!(dec.decode(&[0]), 1); // the only explanation flips observable 0
/// assert_eq!(dec.decode(&[]), 0);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFindDecoder {
    graph: MatchingGraph,
    // Cluster scratch. Kept clean between decode calls by undoing only the
    // entries each call touched (`dirty_nodes` / `dirty_edges`), so the
    // per-call cost scales with the syndrome, not with the graph.
    parent: Vec<NodeId>,
    parity: Vec<bool>,
    has_boundary: Vec<bool>,
    // Cluster sizes (valid at roots), driving the small-to-large union
    // order. Sizes alone suffice — nothing walks a cluster's member list —
    // so unions are O(1) apart from the frontier merge.
    size: Vec<u32>,
    defect: Vec<bool>,
    dirty_nodes: Vec<NodeId>,
    dirty_edges: Vec<usize>,
    // Growth-phase scratch, cleared within each decode (capacity kept):
    // active cluster roots, per-edge growth rates for one growth step, and
    // the fully-grown edge set handed to peeling.
    roots: Vec<NodeId>,
    roots_next: Vec<NodeId>,
    merged: Vec<NodeId>,
    candidates: Vec<usize>,
    grown: Vec<usize>,
    // Per-edge hot state, laid out for the growth scan. `gw[ei]` interleaves
    // `[growth, weight]` so the scan's slack computation costs one cache
    // line per edge instead of two; `rate_iter[ei]` packs this iteration's
    // accumulated growth rate (low 2 bits, values 0–2) with the iteration
    // tag that rated it (high 30 bits). The weight half is fixed at
    // construction (the decoder owns an immutable graph copy); the growth
    // half is restored to 0 via `dirty_edges`.
    gw: Vec<[f64; 2]>,
    rate_iter: Vec<u32>,
    // Deferred-growth bookkeeping. A growth iteration only *applies*
    // `delta * rate` to the few edges that might complete (the completion
    // candidates); every other rated edge keeps its rate as a pending
    // term, folded into `growth` at the edge's next scan touch using the
    // recorded per-iteration delta (`deltas[tag]`). Each fold performs the
    // identical two-operand `growth += delta * rate` the eager reference
    // performs, in the same per-edge order, so every observed growth value
    // stays bit-for-bit identical.
    deltas: Vec<f64>,
    // Packed per-edge endpoints for completion handling (cheaper than the
    // 40-byte `Edge` records).
    ends: Vec<(u32, u32)>,
    // Per-cluster frontier multisets, kept at the cluster root: one entry
    // per (member, incident edge) pair, pushed when the member joins a
    // growing cluster and lazily swap-removed once the edge completes. A
    // growth iteration then touches only live frontier entries instead of
    // rescanning every member's whole neighborhood; the accumulated rates
    // are identical (each endpoint-in-active-cluster still contributes
    // exactly one count), so growth values, completions, and the final
    // partition are bit-for-bit the member-scan's. `seeded[n]` records that
    // node `n`'s incidences have been pushed (restored via `dirty_nodes`).
    frontier: Vec<Vec<u32>>,
    seeded: Vec<bool>,
    // Peel scratch, restricted to grown-edge endpoints and restored after
    // each call: `peel_adj[n]` holds the grown edges incident to `n`
    // (cleared via the grown list), `peel_visited` marks BFS-reached nodes
    // (cleared via `peel_order`), `peel_order` is the BFS forest in
    // discovery order with each node's parent edge.
    peel_adj: Vec<Vec<usize>>,
    peel_visited: Vec<bool>,
    peel_order: Vec<(NodeId, Option<usize>)>,
}

impl UnionFindDecoder {
    /// Validating constructor: rejects a malformed graph with a typed
    /// error instead of letting NaN weights hang the growth loop or
    /// out-of-range endpoints panic mid-decode.
    pub fn try_new(
        graph: MatchingGraph,
    ) -> Result<UnionFindDecoder, crate::error::ValidationError> {
        graph.validate()?;
        Ok(UnionFindDecoder::new(graph))
    }

    /// Creates a decoder owning its matching graph.
    pub fn new(graph: MatchingGraph) -> UnionFindDecoder {
        let n = graph.num_nodes();
        let e = graph.edges().len();
        let boundary = graph.boundary();
        let mut has_boundary = vec![false; n];
        has_boundary[boundary] = true;
        let gw: Vec<[f64; 2]> = graph.edges().iter().map(|e| [0.0, e.weight]).collect();
        let ends: Vec<(u32, u32)> = graph
            .edges()
            .iter()
            .map(|e| (e.u as u32, e.v as u32))
            .collect();
        UnionFindDecoder {
            graph,
            parent: (0..n).collect(),
            parity: vec![false; n],
            has_boundary,
            size: vec![1; n],
            defect: vec![false; n],
            dirty_nodes: Vec::new(),
            dirty_edges: Vec::new(),
            roots: Vec::new(),
            roots_next: Vec::new(),
            merged: Vec::new(),
            candidates: Vec::new(),
            gw,
            rate_iter: vec![0; e],
            deltas: Vec::new(),
            ends,
            grown: Vec::new(),
            frontier: vec![Vec::new(); n],
            seeded: vec![false; n],
            peel_adj: vec![Vec::new(); n],
            peel_visited: vec![false; n],
            peel_order: Vec::new(),
        }
    }

    /// The underlying matching graph.
    pub fn graph(&self) -> &MatchingGraph {
        &self.graph
    }

    fn find(&mut self, mut a: NodeId) -> NodeId {
        while self.parent[a] != a {
            self.parent[a] = self.parent[self.parent[a]];
            a = self.parent[a];
        }
        a
    }

    fn union(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        self.dirty_nodes.push(ra);
        self.dirty_nodes.push(rb);
        // A merged cluster that still lacks the boundary may keep growing,
        // so newly joined singletons must contribute their incidences to
        // the frontier. Boundary-holding clusters are permanently inactive and are
        // never scanned; skipping their seeding keeps the boundary node's
        // large neighborhood out of the hot path.
        if !self.has_boundary[ra] && !self.has_boundary[rb] {
            for r in [ra, rb] {
                if !self.seeded[r] {
                    self.seeded[r] = true;
                    let UnionFindDecoder {
                        graph, frontier, ..
                    } = self;
                    frontier[r].extend_from_slice(graph.incident(r));
                }
            }
        }
        // Small-to-large merging by cluster size; ties keep `ra` as the
        // surviving root, exactly as the historic member-count comparison
        // did (sizes equal member counts).
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        // Append the small frontier onto the big one; both buffers keep
        // their capacity. The entry order differs from the historic
        // pop/push drain, but scan order never affects results (the delta
        // min is order-free and the grown set is sorted before peeling).
        let (fb, fs) = if big < small {
            let (lo, hi) = self.frontier.split_at_mut(small);
            (&mut lo[big], &mut hi[0])
        } else {
            let (lo, hi) = self.frontier.split_at_mut(big);
            (&mut hi[0], &mut lo[small])
        };
        fb.extend_from_slice(fs);
        fs.clear();
        let p = self.parity[small];
        self.parity[big] ^= p;
        let hb = self.has_boundary[small];
        self.has_boundary[big] |= hb;
        big
    }

    /// Undoes everything the last decode touched, restoring the pristine
    /// scratch state in time proportional to the work done.
    fn cleanup(&mut self) {
        let boundary = self.graph.boundary();
        for i in 0..self.dirty_nodes.len() {
            let n = self.dirty_nodes[i];
            self.parent[n] = n;
            self.parity[n] = false;
            self.has_boundary[n] = n == boundary;
            self.size[n] = 1;
            self.defect[n] = false;
            self.frontier[n].clear();
            self.seeded[n] = false;
        }
        self.dirty_nodes.clear();
        for i in 0..self.dirty_edges.len() {
            let ei = self.dirty_edges[i];
            self.gw[ei][0] = 0.0;
            // Discard any still-pending deferred growth term; a zero rate
            // also keeps stale iteration tags from ever being consulted.
            self.rate_iter[ei] = 0;
        }
        self.dirty_edges.clear();
    }

    /// Grows clusters until every one is neutral, leaving the set of fully
    /// grown edges in `self.grown` (sorted ascending).
    fn grow_clusters(&mut self, defects: &[NodeId]) {
        for &d in defects {
            self.defect[d] = true;
            self.parity[d] = true;
            self.dirty_nodes.push(d);
            if !self.seeded[d] {
                self.seeded[d] = true;
                let UnionFindDecoder {
                    graph, frontier, ..
                } = self;
                frontier[d].extend_from_slice(graph.incident(d));
            }
        }
        // The active set starts as the defects themselves (each its own
        // odd singleton) and is maintained incrementally across
        // iterations: parity only changes through unions, so any cluster
        // that is active now contains an odd boundary-free constituent
        // that was active before — refreshing `find` over the previous
        // root list (with dedup) reproduces the historic rescan over all
        // defects exactly, at O(active clusters) per iteration.
        self.roots.clear();
        self.roots.extend_from_slice(defects);
        self.deltas.clear();
        loop {
            if self.roots.is_empty() {
                break;
            }
            // Scan each active cluster's frontier multiset. Each live entry
            // is one (member, incident edge) incidence, so an edge interior
            // to one cluster appears twice (once per endpoint) exactly as
            // the historic full member scan counted it — it just completes
            // sooner and the union below is a no-op. Entries whose edge has
            // fully grown are dead; they are compacted out (swap_remove) so
            // later iterations never revisit a cluster's interior.
            //
            // Three things happen per entry: the edge's pending deferred
            // growth (if any) is folded in, its rate for this iteration
            // accumulates, and the growth step `delta` is min-ed over the
            // running quotient slack/rate. The running min is exact: a
            // quotient only shrinks as the rate accumulates (slack/1 ≥
            // slack/2), so intermediate values never undercut the final
            // per-edge quotient. Edges whose quotient comes within
            // `CAND_SLOP` of the running min are recorded as completion
            // candidates — a strict superset of the edges that can pass the
            // completion test below, which requires the quotient within
            // ~1e-12/rate of delta.
            const CAND_SLOP: f64 = 1e-9;
            let cur = self.deltas.len() as u32;
            let mut delta = f64::INFINITY;
            {
                let UnionFindDecoder {
                    roots,
                    candidates,
                    frontier,
                    gw,
                    rate_iter,
                    deltas,
                    dirty_edges,
                    ..
                } = self;
                // SAFETY: every frontier entry is an edge id pushed from
                // `graph.incident(..)`, so `ei < gw.len() == rate_iter.len()`;
                // a nonzero rate's iteration tag was written in an earlier
                // iteration of this decode (cleanup zeroes rates between
                // calls), so `tag < deltas.len()`. The unchecked accesses
                // below elide bounds checks on the innermost decode loop.
                let gw_p = gw.as_mut_ptr();
                let ri_p = rate_iter.as_mut_ptr();
                for &r in roots.iter() {
                    let list = &mut frontier[r];
                    // Reserving up front lets the loop append to both output
                    // lists with a plain store plus a conditional length
                    // increment — no capacity check, no branch: the entry is
                    // written unconditionally at the current end and kept
                    // only when the condition holds (the next entry
                    // overwrites it otherwise). Order and contents of the
                    // kept entries are exactly the branching push's.
                    candidates.reserve(list.len());
                    dirty_edges.reserve(list.len());
                    let mut cand_len = candidates.len();
                    let cand_p = candidates.as_mut_ptr();
                    let mut dirty_len = dirty_edges.len();
                    let dirty_p = dirty_edges.as_mut_ptr();
                    let mut i = 0;
                    while i < list.len() {
                        let ei = list[i] as usize;
                        debug_assert!(ei < rate_iter.len());
                        unsafe {
                            let ri = *ri_p.add(ei);
                            let mut rt = ri & 3;
                            let ge = &mut *gw_p.add(ei);
                            if rt != 0 && (ri >> 2) != cur {
                                debug_assert!(((ri >> 2) as usize) < deltas.len());
                                ge[0] += *deltas.get_unchecked((ri >> 2) as usize) * rt as f64;
                                rt = 0;
                            }
                            let [g, w] = *ge;
                            let slack = w - g;
                            if slack <= 0.0 {
                                list.swap_remove(i);
                                continue;
                            }
                            *dirty_p.add(dirty_len) = ei;
                            dirty_len += (rt == 0 && g == 0.0) as usize;
                            rt += 1;
                            *ri_p.add(ei) = (cur << 2) | rt;
                            // rate is 1 or 2, so the quotient slack/rate is an
                            // exact halving — no divide needed.
                            let q = if rt == 1 { slack } else { slack * 0.5 };
                            if q < delta {
                                delta = q;
                            }
                            *cand_p.add(cand_len) = ei;
                            cand_len += (q <= delta + CAND_SLOP) as usize;
                        }
                        i += 1;
                    }
                    // SAFETY: at most `list.len()` entries were appended to
                    // each list beyond the length the reserve call covered.
                    unsafe {
                        candidates.set_len(cand_len);
                        dirty_edges.set_len(dirty_len);
                    }
                }
            }
            if !delta.is_finite() {
                // No growable edges left: disconnected defect; give up on it
                // by declaring its cluster boundary-connected.
                for i in 0..self.roots.len() {
                    let r = self.roots[i];
                    let rr = self.find(r);
                    self.has_boundary[rr] = true;
                    self.dirty_nodes.push(rr);
                }
                self.candidates.clear();
                break;
            }
            // Apply growth only to the candidates; everything else stays
            // pending. A completing edge performs the same `growth + delta
            // * rate` fold the eager reference performed before clamping to
            // the weight; a non-completing candidate is left untouched so
            // its (unchanged) pending term folds at its next scan touch.
            // (The list is moved out of `self` so the borrow checker lets
            // `union` run inside the loop without re-indexing.)
            let mut cands = std::mem::take(&mut self.candidates);
            for &ei in &cands {
                let [g, w] = self.gw[ei];
                if g >= w {
                    // Duplicate candidate entry of an edge completed above.
                    continue;
                }
                let rt = self.rate_iter[ei] & 3;
                let g2 = g + delta * rt as f64;
                if g2 >= w - 1e-12 {
                    self.gw[ei][0] = w;
                    self.rate_iter[ei] = 0;
                    let (u, v) = self.ends[ei];
                    let (u, v) = (u as usize, v as usize);
                    self.dirty_nodes.push(u);
                    self.dirty_nodes.push(v);
                    self.union(u, v);
                }
            }
            cands.clear();
            self.candidates = cands;
            self.deltas.push(delta);
            // Refresh the active roots: follow each previous root to its
            // current cluster, keep the still-active ones, dedup (two
            // previous actives may have merged into one). Roots only change
            // through unions, so a root that is still its own parent is
            // still a distinct root and needs no dedup scan; only roots
            // merged away this iteration (rare) go through find + dedup.
            for i in 0..self.roots.len() {
                let r = self.roots[i];
                if self.parent[r] == r {
                    if self.parity[r] && !self.has_boundary[r] {
                        self.roots_next.push(r);
                    }
                } else {
                    self.merged.push(r);
                }
            }
            for i in 0..self.merged.len() {
                let rr = self.find(self.merged[i]);
                if self.parity[rr] && !self.has_boundary[rr] && !self.roots_next.contains(&rr) {
                    self.roots_next.push(rr);
                }
            }
            self.merged.clear();
            std::mem::swap(&mut self.roots, &mut self.roots_next);
            self.roots_next.clear();
        }
        self.roots.clear();
        // Sorted for determinism: the peeling forest depends on adjacency
        // order, and an unordered grown set would let cluster cycles (e.g.
        // boundary-to-boundary paths) resolve either way.
        let UnionFindDecoder {
            gw,
            dirty_edges,
            grown,
            ..
        } = self;
        grown.clear();
        grown.extend(
            dirty_edges
                .iter()
                .copied()
                .filter(|&ei| gw[ei][0] >= gw[ei][1]),
        );
        grown.sort_unstable();
    }

    /// Peels the grown forest (left in `self.grown` by
    /// [`Self::grow_clusters`]), pairing defects and accumulating the
    /// observable mask of the used edges. Works entirely in scratch
    /// restricted to grown-edge endpoints and restores it before
    /// returning.
    fn peel(&mut self) -> u64 {
        let boundary = self.graph.boundary();
        let UnionFindDecoder {
            graph,
            defect,
            grown,
            peel_adj,
            peel_visited,
            peel_order,
            ..
        } = self;
        // Adjacency restricted to grown edges; only their endpoints are
        // touched, and the same list clears them again below.
        for &ei in grown.iter() {
            let e = &graph.edges()[ei];
            peel_adj[e.u].push(ei);
            peel_adj[e.v].push(ei);
        }
        peel_order.clear();

        /// BFS from `start`, appending `(node, edge to parent)` entries.
        fn component(
            graph: &MatchingGraph,
            adj: &[Vec<usize>],
            visited: &mut [bool],
            order: &mut Vec<(NodeId, Option<usize>)>,
            start: NodeId,
        ) {
            let base = order.len();
            visited[start] = true;
            order.push((start, None));
            let mut head = base;
            while head < order.len() {
                let (node, _) = order[head];
                head += 1;
                for &ei in &adj[node] {
                    let other = graph.other_endpoint(ei, node);
                    if !visited[other] {
                        visited[other] = true;
                        order.push((other, Some(ei)));
                    }
                }
            }
        }

        // Root each component at the boundary when present so leftover
        // parity drains there. The remaining components are discovered by
        // scanning the (sorted) grown edges: the first edge touching a
        // component has the component's minimum node as its `u` endpoint,
        // so BFS roots match the historical full-node scan exactly.
        component(graph, peel_adj, peel_visited, peel_order, boundary);
        for &ei in grown.iter() {
            let e = &graph.edges()[ei];
            for node in [e.u, e.v] {
                if !peel_visited[node] {
                    component(graph, peel_adj, peel_visited, peel_order, node);
                }
            }
        }
        // Peel leaves: reverse BFS order guarantees children before parents.
        let mut correction = 0u64;
        for i in (0..peel_order.len()).rev() {
            let (node, parent_edge) = peel_order[i];
            if !defect[node] {
                continue;
            }
            let Some(ei) = parent_edge else {
                // Root with leftover parity: only legal at the boundary.
                debug_assert!(node == boundary, "non-boundary root retained defect parity");
                continue;
            };
            let e = &graph.edges()[ei];
            correction ^= e.observables;
            let parent = graph.other_endpoint(ei, node);
            defect[node] = false;
            defect[parent] ^= true;
        }
        // Restore the peel scratch: visit marks via the BFS order, the
        // restricted adjacency via the grown edges that populated it.
        for &(node, _) in peel_order.iter() {
            peel_visited[node] = false;
        }
        for &ei in grown.iter() {
            let e = &graph.edges()[ei];
            peel_adj[e.u].clear();
            peel_adj[e.v].clear();
        }
        peel_order.clear();
        correction
    }
}

impl Decoder for UnionFindDecoder {
    fn decode(&mut self, defects: &[NodeId]) -> u64 {
        if defects.is_empty() {
            return 0;
        }
        self.grow_clusters(defects);
        let correction = self.peel();
        self.cleanup();
        correction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::Decoder;
    use caliqec_stab::{extract_dem, Basis, Circuit, Noise1};

    /// A length-`n` repetition code chain with X noise: detectors form a path
    /// with boundary edges at both ends.
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
    fn empty_syndrome_is_trivial() {
        let mut dec = UnionFindDecoder::new(rep_chain(5, 0.01));
        assert_eq!(dec.decode(&[]), 0);
    }

    #[test]
    fn single_interior_defect_pair_matches_through_middle() {
        // Defects at detectors 1 and 2 (an X on data qubit 2 of 5): the
        // correction is interior and must NOT flip the observable (which sits
        // on data qubit 0's boundary edge).
        let mut dec = UnionFindDecoder::new(rep_chain(5, 0.01));
        assert_eq!(dec.decode(&[1, 2]), 0);
    }

    #[test]
    fn defect_next_to_left_boundary_flips_observable() {
        // A single defect at detector 0 is closest to the left boundary; the
        // left boundary edge carries the observable (data qubit 0 flip).
        let mut dec = UnionFindDecoder::new(rep_chain(5, 0.01));
        assert_eq!(dec.decode(&[0]), 1);
    }

    #[test]
    fn defect_next_to_right_boundary_does_not_flip() {
        let g = rep_chain(5, 0.01);
        let last = g.num_detectors() - 1;
        let mut dec = UnionFindDecoder::new(g);
        assert_eq!(dec.decode(&[last]), 0);
    }

    #[test]
    fn two_far_defects_each_go_to_their_boundary() {
        // Defects at both ends of a long chain: cheapest explanation is two
        // boundary matings, flipping the observable exactly once (left side).
        let g = rep_chain(9, 0.01);
        let last = g.num_detectors() - 1;
        let mut dec = UnionFindDecoder::new(g);
        assert_eq!(dec.decode(&[0, last]), 1);
    }

    #[test]
    fn decode_is_deterministic() {
        let mut dec = UnionFindDecoder::new(rep_chain(7, 0.01));
        let a = dec.decode(&[1, 4]);
        let b = dec.decode(&[1, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_restored_between_calls() {
        // After any decode, every scratch structure must be back to its
        // pristine state (this is the allocation-free contract: the next
        // call assumes it).
        let g = rep_chain(7, 0.01);
        let n = g.num_nodes();
        let boundary = g.boundary();
        let mut dec = UnionFindDecoder::new(g);
        for defects in [vec![0], vec![1, 4], vec![0, 2, 3, 5]] {
            dec.decode(&defects);
            for i in 0..n {
                assert_eq!(dec.parent[i], i);
                assert!(!dec.parity[i]);
                assert_eq!(dec.has_boundary[i], i == boundary);
                assert_eq!(dec.size[i], 1);
                assert!(!dec.defect[i]);
                assert!(dec.frontier[i].is_empty());
                assert!(!dec.seeded[i]);
                assert!(dec.peel_adj[i].is_empty());
                assert!(!dec.peel_visited[i]);
            }
            assert!(dec.gw.iter().all(|g| g[0] == 0.0));
            assert!(dec.rate_iter.iter().all(|&r| r == 0));
            assert!(dec.roots.is_empty());
            assert!(dec.roots_next.is_empty());
            assert!(dec.merged.is_empty());
            assert!(dec.dirty_nodes.is_empty());
            assert!(dec.dirty_edges.is_empty());
            assert!(dec.candidates.is_empty());
            assert!(dec.peel_order.is_empty());
        }
    }
}
