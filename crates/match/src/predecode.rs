//! Tier-1 predecoder: provably-exact local matching for sparse syndromes.
//!
//! At the physical error rates that matter for calibration sweeps, the
//! typical shot carries a handful of defects, most of which are an isolated
//! adjacent pair produced by a single error mechanism, or a lone defect
//! near the boundary. [`Predecoder::predecode`] recognises exactly those
//! configurations and *certifies* the whole shot: it proves that both full
//! decoders ([`crate::UnionFindDecoder`] and [`crate::MwpmDecoder`]) would
//! return a correction with precisely the observable mask it computes
//! locally, and returns it without ever touching the union-find / matching
//! machinery. Anything it cannot prove falls through (`None`) to the full
//! decoder untouched.
//!
//! Certification is all-or-nothing by design. Peeling *part* of a syndrome
//! is unsound for both backends: removing a matched pair changes the
//! union-find growth trajectory of the surviving clusters, and opens a
//! corridor the exact matcher could have routed through. The fast path
//! therefore never hands a modified defect list to the slow path — a shot
//! is either fully certified or fully decoded.
//!
//! # Firing condition
//!
//! The defect list is partitioned into *units* via the CSR adjacency
//! (O(degree) per defect): a defect with exactly one defect neighbour is
//! **paired** with it (adjacency is symmetric, so pairing is mutual); a
//! defect with no defect neighbours is a boundary **single**; two or more
//! defect neighbours decline the shot. With `EPS = 1e-9` absorbing the
//! decoders' float tolerances (accumulated rounding on these short paths
//! is ≤ 1e-12), the shot certifies iff every unit satisfies:
//!
//! - **Single** `u`: unit weight `W = bnd(u)`, its exact shortest boundary
//!   distance, with `W > EPS` and the flatness margin below. Mask
//!   contribution `π(u) ^ π(boundary)`.
//! - **Adjacent pair** `(u, v)`: let `w = d(u, v)` (exact boundary-avoiding
//!   distance from the truncated near table) and compare with draining
//!   both to the boundary. If `w + EPS < bnd(u) + bnd(v)`, the unit is an
//!   internal pair with `W = w` for both members. If
//!   `bnd(u) + bnd(v) + EPS < w`, both members demote to singles (their
//!   mutual cross margin is exactly that inequality). An exact tie
//!   declines. Either way the mask contribution is `π(u) ^ π(v)` — the
//!   boundary potential cancels — which is why the tie is the only case
//!   that needs declining at all: it is rejected out of caution for the
//!   union-find growth trajectory, not because the masks differ.
//! - **Flatness**: `frus(x) > W_x + EPS` for every defect `x`, where
//!   `frus` is the distance to the nearest endpoint of a *frustrated*
//!   edge — an edge whose observable mask differs from the gradient
//!   `π(u) ^ π(v)` of the precomputed node potential. Inside a
//!   frustration-free ball, the observable flip of *any* walk depends only
//!   on its endpoints (two walks differ by cycles of zero observable XOR),
//!   so every tying shortest path, every union-find peeling tree, and
//!   every Dijkstra tie-break yields the same mask: the potential
//!   gradient. Degenerate weight ties — ubiquitous in uniform-noise
//!   surface codes — therefore need no uniqueness side conditions.
//! - **Cross margin**: for defects `x`, `y` in *different* units,
//!   `d(x, y) > W_x + W_y + EPS` (near-table lookup, or absence from the
//!   truncated ball when the threshold fits under the ball radius), so
//!   neither cluster growth nor any alternative matching can couple the
//!   units.
//!
//! The certified mask is the XOR of per-unit potential gradients.
//!
//! # Why this equals both decoders
//!
//! **MWPM**: assign each internal-pair member a share `φ` with
//! `φ(u) + φ(v) = W`, `φ(x) < bnd(x)` (possible because
//! `W < bnd(u) + bnd(v)`), and each single `φ = W = bnd`; the certified
//! matching costs `Σ φ`. Any other perfect matching must use a cross-unit
//! connection (cost `> W_x + W_y ≥ φ(x) + φ(y)`), a pair-member-to-boundary
//! mating (cost `bnd(x) > φ(x)`), or a walk through the boundary node
//! (which decomposes into two boundary matings, bounded the same way) —
//! each strictly costlier than the `φ` mass it replaces, so every
//! minimum-cost matching keeps the certified unit structure. Its realised
//! paths may differ from ours by weight ties, but all lie inside the flat
//! balls, so the mask is the same gradient XOR. The margins exceed the
//! decoder's float error by orders of magnitude, so its comparisons
//! resolve the same way.
//!
//! **Union-find**: clusters grow balls at a common rate; a unit's region
//! stays inside its radius-`W` balls until it neutralises. An internal
//! pair merges once combined growth covers `d(u, v)`; if one member sits
//! nearer the boundary than `W/2` it may drain there first and the other
//! joins its frozen, boundary-connected cluster — either trajectory stays
//! inside the radius-`W` balls, and the peel mask telescopes to
//! `π(u) ^ π(v)` in every case (boundary terms cancel pairwise). A single
//! joins the boundary at `bnd(u)`. The cross margin keeps two active
//! units (combined reach `≤ W_x + W_y`) from ever completing a connecting
//! edge. The grown region is confined to the units' flat balls, so
//! whatever spanning forest peeling picks, each component's peel paths
//! telescope to the certified gradient sum.
//!
//! # Scratch discipline
//!
//! Like `UnionFindDecoder`, the per-shot scratch (`is_defect` flags) is
//! restored via the defect list itself after every call, so a `Predecoder`
//! is reusable with zero steady-state allocation. The precomputed tables
//! are immutable and shared across clones via `Arc` — cloning a predecoder
//! for another worker thread costs one atomic increment plus a small flag
//! buffer.

use crate::cluster::ClusterTier;
use crate::engine::{DecodeStack, DecoderFactory};
use crate::graph::{HeapItem, MatchingGraph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Margin absorbing decoder float tolerances; all certification
/// inequalities must clear this gap.
pub(crate) const EPS: f64 = 1e-9;

/// Shots with more defects than this skip certification outright: the
/// O(k²) cross-margin check would cost more than it saves, dense shots
/// essentially never certify, and staying at or below
/// [`crate::MwpmDecoder::MAX_DEFECTS`] keeps every certified shot inside
/// the domain of the exact matcher the certification proof speaks for.
pub(crate) const MAX_CERT_DEFECTS: usize = 12;

/// One gauge of the certification tables, as `(drain, pot, frus)`:
///
/// - `drain`: shortest distances to the boundary (plain Dijkstra from the
///   boundary) under the edge weights plus `crossing_penalty` on every
///   observable-carrying edge — with a zero penalty, the exact boundary
///   distances.
/// - `pot`: the node potential rooted on that shortest-path tree,
///   `π(child) = π(parent) ^ obs(edge)`. Any gauge makes the exactness
///   argument go through (an edge is frustrated iff its mask differs from
///   the gradient of π, and cycles avoiding frustrated edges have zero
///   observable XOR), but the gauge decides *where* the frustrated edges
///   sit, and the certification rate lives or dies by keeping them in a
///   thin seam instead of scattered across the lattice. Rooting π on the
///   boundary's shortest-path tree does exactly that: each node inherits
///   the crossing parity of its shortest drain path, so frustration
///   concentrates where drainage regions of opposite logical parity meet —
///   far from most of the bulk. (A DFS-forest gauge, by contrast,
///   frustrates non-tree edges all over, because its fundamental cycles
///   cross the logical membrane haphazardly; that gauge cut measured
///   certification rates by ~4×.)
/// - `frus`: real-weight distance to the nearest endpoint of an edge
///   frustrated under `pot`.
fn gauge(graph: &MatchingGraph, crossing_penalty: f64) -> (Vec<f64>, Vec<u64>, Vec<f64>) {
    let n = graph.num_nodes();
    let boundary = graph.boundary();
    let mut drain = vec![f64::INFINITY; n];
    let mut par_node = vec![usize::MAX; n];
    let mut par_edge = vec![u32::MAX; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut heap = BinaryHeap::new();
    drain[boundary] = 0.0;
    heap.push(HeapItem(0.0, boundary));
    while let Some(HeapItem(d, u)) = heap.pop() {
        if d > drain[u] {
            continue;
        }
        order.push(u);
        for &ei in graph.incident(u) {
            let e = &graph.edges()[ei as usize];
            let v = graph.other_endpoint(ei as usize, u);
            let crossing = if e.observables != 0 {
                crossing_penalty
            } else {
                0.0
            };
            let nd = d + e.weight + crossing;
            if nd < drain[v] {
                drain[v] = nd;
                par_node[v] = u;
                par_edge[v] = ei;
                heap.push(HeapItem(nd, v));
            }
        }
    }

    let mut pot = vec![0u64; n];
    let mut seen = vec![false; n];
    for &u in &order {
        seen[u] = true;
        if par_edge[u] != u32::MAX {
            let e = &graph.edges()[par_edge[u] as usize];
            pot[u] = pot[par_node[u]] ^ e.observables;
        }
    }
    // Components unreachable from the boundary (rare) get a DFS gauge;
    // their defects can never certify as singles anyway.
    let mut stack: Vec<NodeId> = Vec::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push(root);
        while let Some(u) = stack.pop() {
            for &ei in graph.incident(u) {
                let e = &graph.edges()[ei as usize];
                let v = graph.other_endpoint(ei as usize, u);
                if !seen[v] {
                    seen[v] = true;
                    pot[v] = pot[u] ^ e.observables;
                    stack.push(v);
                }
            }
        }
    }

    // Multi-source Dijkstra from frustrated-edge endpoints (not relaxing
    // through the boundary: cluster growth stops there).
    let mut frus = vec![f64::INFINITY; n];
    heap.clear();
    for e in graph.edges() {
        if pot[e.u] ^ pot[e.v] != e.observables {
            for node in [e.u, e.v] {
                if frus[node] > 0.0 {
                    frus[node] = 0.0;
                    heap.push(HeapItem(0.0, node));
                }
            }
        }
    }
    while let Some(HeapItem(d, u)) = heap.pop() {
        if d > frus[u] || u == boundary {
            continue;
        }
        for &ei in graph.incident(u) {
            let e = &graph.edges()[ei as usize];
            let v = graph.other_endpoint(ei as usize, u);
            let nd = d + e.weight;
            if nd < frus[v] {
                frus[v] = nd;
                heap.push(HeapItem(nd, v));
            }
        }
    }
    (drain, pot, frus)
}

/// Immutable certification tables, built once per graph and shared across
/// predecoder clones (and, via [`crate::ClusterTier`], the dense-regime
/// cluster tier, which reuses the same radius/potential/margin machinery).
#[derive(Debug)]
pub(crate) struct Tables {
    pub(crate) graph: MatchingGraph,
    /// Truncation radius of the near tables: they cover all walks of
    /// length ≤ `radius`, so absence of a node certifies distance > radius.
    pub(crate) radius: f64,
    /// Node potential: `π(root) = 0`, `π(child) = π(parent) ^ obs(edge)`
    /// over a spanning forest. Certified masks are gradients of π.
    pub(crate) pot: Vec<u64>,
    /// Exact shortest boundary distance per node (`INFINITY` if detached).
    pub(crate) bnd: Vec<f64>,
    /// Distance to the nearest endpoint of a frustrated edge (`INFINITY`
    /// when the potential explains every edge). A ball of smaller radius
    /// contains no frustrated edge, so observable flips inside it are
    /// path-independent.
    pub(crate) frus: Vec<f64>,
    /// Second gauge (wide tables only, else empty): a potential whose
    /// frustration wall sits along the observable-crossing columns instead
    /// of the drainage watershed, so units straddling the π-watershed —
    /// which fail the `frus` flatness margin — can still certify. See
    /// [`Tables::single_mask`] / [`Tables::pair_mask`].
    pub(crate) pot2: Vec<u64>,
    /// Distance to the nearest frustrated-edge endpoint under `pot2`
    /// (empty unless the tables are widened).
    pub(crate) frus2: Vec<f64>,
    /// Truncated near tables, CSR over nodes: for node `n`, targets
    /// `near_node[near_off[n]..near_off[n+1]]` (ascending) with exact
    /// boundary-avoiding shortest distances `near_dist`.
    near_off: Vec<u32>,
    near_node: Vec<u32>,
    near_dist: Vec<f64>,
}

impl Tables {
    /// Predecoder tables: truncation radius `2 × median edge weight` (with
    /// headroom), the cheapest balls that still certify single-mechanism
    /// units of median weight.
    pub(crate) fn build(graph: &MatchingGraph) -> Tables {
        Self::build_inner(graph, false)
    }

    /// Cluster-tier tables: the radius is widened to
    /// `2 × max(median, min(max_ball_edge, 4 × median))` so the tier's
    /// unit-weight cap `(radius − EPS) / 2` exceeds every internal edge
    /// weight (any single-edge defect pair fits under it) while the
    /// `min(·, 4 × median)` guard keeps pathological weight tails from
    /// blowing the balls up. On a uniform-weight graph this degenerates to
    /// the predecoder radius.
    pub(crate) fn build_wide(graph: &MatchingGraph) -> Tables {
        Self::build_inner(graph, true)
    }

    fn build_inner(graph: &MatchingGraph, widen: bool) -> Tables {
        let n = graph.num_nodes();
        let boundary = graph.boundary();
        let (bnd, pot, frus) = gauge(graph, 0.0);

        // --- Second gauge (wide tables only). The watershed where
        // drainage basins of opposite crossing parity meet is exactly
        // where π's frustrated edges concentrate — and at dense-regime
        // error rates a steady stream of defect pairs straddles it and
        // fails the flatness margin. A second potential rooted on a
        // shortest-path tree whose metric penalises observable-crossing
        // edges moves the wall: drain paths cross only when forced, so
        // frustration under π₂ hugs the crossing columns at the lattice
        // edge instead of the mid-bulk watershed. Certification then
        // accepts a unit flat under *either* gauge (each gauge's gradient
        // is the physical flip wherever that gauge is flat).
        let (pot2, frus2) = if widen {
            let penalty: f64 = graph
                .edges()
                .iter()
                .map(|e| e.weight)
                .filter(|w| w.is_finite())
                .sum::<f64>()
                + 1.0;
            let (_, pot2, frus2) = gauge(graph, penalty);
            (pot2, frus2)
        } else {
            (Vec::new(), Vec::new())
        };

        // --- Truncation radius: certification thresholds reach at most
        // W_x + W_y for two unit weights, so 2× the median edge weight
        // (with headroom) covers the typical single-mechanism units while
        // keeping the per-node balls to a couple of hops. Heavier units
        // simply fail the `threshold ≤ radius` guard and fall through.
        let mut weights: Vec<f64> = graph
            .edges()
            .iter()
            .map(|e| e.weight)
            .filter(|w| w.is_finite())
            .collect();
        weights.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        let median = weights.get(weights.len() / 2).copied().unwrap_or(0.0);

        // Heaviest edge a boundary-avoiding shortest path can use (the ball
        // Dijkstra below never expands the boundary node, so only edges
        // with two internal endpoints matter).
        let max_ball_edge = graph
            .edges()
            .iter()
            .filter(|e| e.u != boundary && e.v != boundary && e.weight.is_finite())
            .map(|e| e.weight)
            .fold(0.0f64, f64::max);
        let base = if widen {
            median.max(max_ball_edge.min(4.0 * median))
        } else {
            median
        };
        let radius = 2.0 * base * 1.01 + 1e-6;

        // --- Truncated Dijkstra from every node: exact boundary-avoiding
        // shortest distances to every node within `radius`. Absence of a
        // target from a ball proves its distance exceeds `radius`.
        let mut near_off = vec![0u32; n + 1];
        let mut near_node: Vec<u32> = Vec::new();
        let mut near_dist: Vec<f64> = Vec::new();
        let mut dist = vec![f64::INFINITY; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut heap = BinaryHeap::new();
        for src in 0..n {
            if src != boundary {
                heap.clear();
                dist[src] = 0.0;
                touched.push(src as u32);
                heap.push(HeapItem(0.0, src));
                while let Some(HeapItem(d, u)) = heap.pop() {
                    if d > dist[u] || u == boundary {
                        continue; // stale label, or boundary (absorbing)
                    }
                    for &ei in graph.incident(u) {
                        let e = &graph.edges()[ei as usize];
                        let v = graph.other_endpoint(ei as usize, u);
                        let nd = d + e.weight;
                        if nd <= radius && nd < dist[v] {
                            if dist[v].is_infinite() {
                                touched.push(v as u32);
                            }
                            dist[v] = nd;
                            heap.push(HeapItem(nd, v));
                        }
                    }
                }
                touched.sort_unstable();
                for &t in &touched {
                    let tu = t as usize;
                    if tu != src && tu != boundary {
                        near_node.push(t);
                        near_dist.push(dist[tu]);
                    }
                }
                for &t in &touched {
                    dist[t as usize] = f64::INFINITY;
                }
                touched.clear();
            }
            near_off[src + 1] = near_node.len() as u32;
        }

        Tables {
            graph: graph.clone(),
            radius,
            pot,
            bnd,
            frus,
            pot2,
            frus2,
            near_off,
            near_node,
            near_dist,
        }
    }

    /// Exact boundary-avoiding distance from `u` to `v`, or `None` when
    /// `v` lies outside `u`'s truncated ball (distance > [`Self::radius`]).
    #[inline]
    pub(crate) fn near(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let lo = self.near_off[u] as usize;
        let hi = self.near_off[u + 1] as usize;
        let slice = &self.near_node[lo..hi];
        slice
            .binary_search(&(v as u32))
            .ok()
            .map(|i| self.near_dist[lo + i])
    }

    /// All nodes within `u`'s truncated ball (ascending node id). Used by
    /// the cluster tier's flood decomposition: two defects belong to the
    /// same cluster iff one lies in the other's ball.
    #[inline]
    pub(crate) fn ball(&self, u: NodeId) -> &[u32] {
        let lo = self.near_off[u] as usize;
        let hi = self.near_off[u + 1] as usize;
        &self.near_node[lo..hi]
    }

    /// Gauge-aware boundary-drain mask for a single of unit weight `w`:
    /// the observable flip of draining `u` to the boundary, under whichever
    /// potential is frustration-free within radius `w` of `u` (the single's
    /// entire growth region). `None` when neither gauge is flat there.
    /// Wide tables only — with `frus2` absent, this is exactly the
    /// predecoder's single-gauge flatness check.
    #[inline]
    pub(crate) fn single_mask(&self, u: NodeId, w: f64) -> Option<u64> {
        let b = self.graph.boundary();
        if self.frus[u] > w + EPS {
            Some(self.pot[u] ^ self.pot[b])
        } else if !self.frus2.is_empty() && self.frus2[u] > w + EPS {
            Some(self.pot2[u] ^ self.pot2[b])
        } else {
            None
        }
    }

    /// Gauge-aware peel mask for an internal pair of unit weight `w`: both
    /// members' radius-`w` balls (the pair's growth region) must be
    /// frustration-free under a *common* gauge, whose gradient is then the
    /// flip of every walk the decoders can realise between them.
    #[inline]
    pub(crate) fn pair_mask(&self, u: NodeId, v: NodeId, w: f64) -> Option<u64> {
        if self.frus[u] > w + EPS && self.frus[v] > w + EPS {
            Some(self.pot[u] ^ self.pot[v])
        } else if !self.frus2.is_empty() && self.frus2[u] > w + EPS && self.frus2[v] > w + EPS {
            Some(self.pot2[u] ^ self.pot2[v])
        } else {
            None
        }
    }
}

/// Tier-1 predecoder over a [`MatchingGraph`]. See the module docs for the
/// firing condition and the exactness argument.
///
/// Cloning shares the precomputed tables (via `Arc`) and allocates only
/// fresh per-shot scratch, so per-worker instances are cheap.
#[derive(Clone, Debug)]
pub struct Predecoder {
    tables: Arc<Tables>,
    /// Per-shot defect flags; restored via the defect list after each call.
    is_defect: Vec<bool>,
}

impl Predecoder {
    /// Shots with more defects than this can never certify (see the module
    /// constant); callers may early-out on `SparseBatch::defect_count`
    /// before paying any predecode bookkeeping.
    pub const MAX_CERT_DEFECTS: usize = MAX_CERT_DEFECTS;

    /// Builds the certification tables for `graph`. This is the expensive
    /// part (a truncated Dijkstra per node); share the result across
    /// workers by cloning.
    pub fn new(graph: &MatchingGraph) -> Predecoder {
        let tables = Arc::new(Tables::build(graph));
        let n = tables.graph.num_nodes();
        Predecoder {
            tables,
            is_defect: vec![false; n],
        }
    }

    /// The shared certification tables, for the cluster tier to reuse
    /// (one table build serves both tiers).
    pub(crate) fn tables(&self) -> &Arc<Tables> {
        &self.tables
    }

    /// Attempts to certify and locally decode a whole shot.
    ///
    /// Returns `Some(mask)` when every defect is provably part of an
    /// isolated direct-edge pair or an isolated boundary single, in which
    /// case `mask` is exactly the observable mask [`crate::UnionFindDecoder`]
    /// and [`crate::MwpmDecoder`] would return for `defects`. Returns
    /// `None` (certification declined) otherwise — never a wrong mask.
    ///
    /// `defects` must be sorted ascending and duplicate-free, as produced
    /// by [`caliqec_stab::SparseBatch::defects`].
    pub fn predecode(&mut self, defects: &[NodeId]) -> Option<u64> {
        debug_assert!(defects.windows(2).all(|w| w[0] < w[1]));
        if defects.is_empty() {
            return Some(0);
        }
        if defects.len() > MAX_CERT_DEFECTS {
            return None;
        }
        for &d in defects {
            self.is_defect[d] = true;
        }
        let result = self.certify(defects);
        for &d in defects {
            self.is_defect[d] = false;
        }
        result
    }

    /// The certification pass proper (scratch marked by the caller).
    fn certify(&self, defects: &[NodeId]) -> Option<u64> {
        let t = &*self.tables;
        let g = &t.graph;
        let boundary = g.boundary();
        let k = defects.len();
        let mut mask = 0u64;
        // Per-defect unit weight and partner index (usize::MAX = single).
        let mut unit_w = [0.0f64; MAX_CERT_DEFECTS];
        let mut partner = [usize::MAX; MAX_CERT_DEFECTS];

        // Pass 1: O(degree) CSR neighbourhood scan per defect — find the
        // unique defect neighbour, if any. Adjacency is symmetric, so the
        // induced pairing is automatically mutual: if `u`'s only defect
        // neighbour is `v`, then `v` sees `u` too, and any *additional*
        // neighbour of `v` declines the whole shot right here.
        for (i, &u) in defects.iter().enumerate() {
            let mut nbr = usize::MAX;
            for &ei in g.incident(u) {
                let v = g.other_endpoint(ei as usize, u);
                if v == u || v == boundary || !self.is_defect[v] {
                    continue;
                }
                if nbr != usize::MAX && nbr != v {
                    return None; // two distinct defect neighbours
                }
                nbr = v;
            }
            if nbr != usize::MAX {
                let j = defects.binary_search(&nbr).expect("neighbour is a defect");
                partner[i] = j;
            }
        }

        // Pass 2: per-unit weights, margins, and masks.
        for (i, &u) in defects.iter().enumerate() {
            let j = partner[i];
            if j == usize::MAX {
                // Single unit: neutralises against the boundary at its
                // exact boundary distance; the ball up to there must be
                // frustration-free.
                let w = t.bnd[u];
                if !w.is_finite() || w <= EPS {
                    return None;
                }
                if t.frus[u] <= w + EPS {
                    return None;
                }
                unit_w[i] = w;
                mask ^= t.pot[u] ^ t.pot[boundary];
            } else {
                debug_assert_eq!(partner[j], i, "adjacency pairing is mutual");
                if i < j {
                    // Adjacent pair, processed once from the smaller index.
                    // The matcher weighs the internal connection `w` against
                    // draining both defects to the boundary; whichever side
                    // wins strictly, the mask is the same gradient
                    // `π(u) ^ π(v)` (the boundary potential cancels), so we
                    // certify either structure and decline only exact ties.
                    let v = defects[j];
                    let w = match t.near(u, v) {
                        Some(w) => w,
                        None => {
                            return None;
                        }
                    };
                    if !w.is_finite() || w <= EPS {
                        return None;
                    }
                    let bsum = t.bnd[u] + t.bnd[v];
                    if w + EPS < bsum {
                        // Internal pair: clusters merge (or one drains to a
                        // nearer boundary and the other joins it — either
                        // way the grown region stays in the radius-`w`
                        // balls, and the matcher strictly prefers the pair).
                        for x in [u, v] {
                            if t.frus[x] <= w + EPS {
                                return None;
                            }
                        }
                        unit_w[i] = w;
                        unit_w[j] = w;
                    } else if bsum + EPS < w {
                        // Both drain to the boundary: two singles whose
                        // mutual cross margin is exactly this inequality
                        // (pass 3 skips same-partner pairs, so it is
                        // discharged here).
                        for (x, xi) in [(u, i), (v, j)] {
                            let wx = t.bnd[x];
                            if !wx.is_finite() || wx <= EPS {
                                return None;
                            }
                            if t.frus[x] <= wx + EPS {
                                return None;
                            }
                            unit_w[xi] = wx;
                        }
                    } else {
                        return None; // exact tie: structures ambiguous
                    }
                    mask ^= t.pot[u] ^ t.pot[v];
                }
            }
        }

        // Pass 3: cross margins — every pair of defects in different units
        // must be farther apart than the sum of their unit weights, so
        // neither the matcher nor cluster growth can couple them.
        for i in 0..k {
            for j in (i + 1)..k {
                if partner[i] == j {
                    continue; // same unit
                }
                let threshold = unit_w[i] + unit_w[j] + EPS;
                if threshold > t.radius {
                    return None; // truncated ball cannot certify the gap
                }
                match t.near(defects[i], defects[j]) {
                    Some(d) if d <= threshold => {
                        return None;
                    }
                    // In-ball with margin, or outside the ball entirely
                    // (distance > radius ≥ threshold): certified.
                    _ => {}
                }
            }
        }
        Some(mask)
    }
}

/// Gating policy for the dense-regime cluster tier.
///
/// The tier's flood decomposition has a fixed per-shot cost that only pays
/// off when shots are dense enough for certified clusters to peel real
/// decoder work away (at d=11, p=1e-3 the decomposition costs more wall
/// time than the full-decoder calls it saves; at d≥15 it wins). `Auto`
/// makes the call per 64-shot batch from the batch's mean defect count —
/// a deterministic function of the sampled syndrome stream, so gating
/// never perturbs the engine's thread-count-independence, and since the
/// tier is exact (certified clusters peel provably-identical corrections)
/// the gate never changes a failure count either.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClusterGate {
    /// No cluster tier: dense shots decode monolithically.
    #[default]
    Off,
    /// Always decompose dense shots, regardless of density.
    On,
    /// Decompose only batches whose mean defect count clears
    /// [`CLUSTER_GATE_MIN_MEAN_DEFECTS`].
    Auto,
}

/// Minimum mean defects per shot (over one 64-shot batch) for the `Auto`
/// cluster gate to run the decomposition. Calibrated on the d ∈ {11, 15, 21}
/// engine runs measured at commit 19caef5: d=11, p=1e-3 averages ≈20
/// defects/shot and loses wall time to the tier, while d=15 (≈40) and d=21
/// (≈95) win.
pub const CLUSTER_GATE_MIN_MEAN_DEFECTS: f64 = 28.0;

/// [`DecoderFactory`] adapter enabling the two-tier fast path: workers get
/// a shared-table [`Predecoder`] in front of the wrapped factory's decoder.
///
/// ```ignore
/// let tiered = Tiered::new(&graph, || UnionFindDecoder::new(graph.clone()));
/// engine.estimate(&compiled, &tiered, opts, seed); // fast path on
/// ```
///
/// [`Tiered::without_predecode`] is the escape hatch: the same adapter
/// shape with certification disabled, for A/B comparison and
/// cross-validation.
#[derive(Clone, Debug)]
pub struct Tiered<F> {
    factory: F,
    predecoder: Option<Predecoder>,
    /// The decoders' matching graph, kept for engine-side validation and
    /// as the rung-2 degradation fallback.
    fallback: Option<MatchingGraph>,
    /// Opt-in dense-regime cluster tier (see [`crate::ClusterTier`]):
    /// shots too dense for the predecoder are flood-decomposed and decoded
    /// per cluster instead of monolithically, subject to the gate.
    cluster: ClusterGate,
    /// The cluster tier every [`DecoderFactory::stack`] clones (its widened
    /// tables are `Arc`-shared). Built on the first `stack` call, so
    /// constructing an adapter never pays for the wide table build.
    cluster_proto: OnceLock<ClusterTier>,
}

impl<F: DecoderFactory> Tiered<F> {
    /// Wraps `factory` with a predecoder built for `graph` (which must be
    /// the graph the factory's decoders use). The graph is retained as the
    /// engine's rung-2 degradation fallback.
    pub fn new(graph: &MatchingGraph, factory: F) -> Tiered<F> {
        Tiered {
            factory,
            predecoder: Some(Predecoder::new(graph)),
            fallback: Some(graph.clone()),
            cluster: ClusterGate::Off,
            cluster_proto: OnceLock::new(),
        }
    }

    /// Validating form of [`Tiered::new`]: rejects a malformed `graph`
    /// with a typed error *before* the predecoder's Dijkstra table build
    /// ever walks it (NaN weights would poison the distance tables).
    pub fn try_new(
        graph: &MatchingGraph,
        factory: F,
    ) -> Result<Tiered<F>, crate::error::ValidationError> {
        graph.validate()?;
        Ok(Tiered::new(graph, factory))
    }

    /// Wraps `factory` with the fast path disabled: every nonempty shot
    /// goes to the full decoder. No graph is retained; chain
    /// [`Tiered::with_fallback_graph`] to keep rung 2 of the engine's
    /// degradation ladder available.
    pub fn without_predecode(factory: F) -> Tiered<F> {
        Tiered {
            factory,
            predecoder: None,
            fallback: None,
            cluster: ClusterGate::Off,
            cluster_proto: OnceLock::new(),
        }
    }

    /// Retains `graph` for engine-side validation and the rung-2
    /// degradation fallback without enabling the predecoder.
    pub fn with_fallback_graph(mut self, graph: &MatchingGraph) -> Tiered<F> {
        self.fallback = Some(graph.clone());
        self
    }

    /// Arms the dense-regime cluster tier (rung 0 only) under `gate`:
    /// shots with more defects than [`Predecoder::MAX_CERT_DEFECTS`] are
    /// flood-decomposed into independent clusters, certified clusters are
    /// peeled locally, and only the uncertified remainder reaches the full
    /// decoder. `On` decomposes every batch; `Auto` skips batches below
    /// [`CLUSTER_GATE_MIN_MEAN_DEFECTS`], journaling the decision. The tier
    /// shares the predecoder's certification tables, so this is a no-op on
    /// a [`Tiered::without_predecode`] adapter.
    pub fn with_cluster_gate(mut self, gate: ClusterGate) -> Tiered<F> {
        self.cluster = gate;
        self
    }
}

impl<F: DecoderFactory> DecoderFactory for Tiered<F> {
    type Decoder = F::Decoder;

    fn build(&self) -> F::Decoder {
        self.factory.build()
    }

    fn stack(&self) -> DecodeStack<F::Decoder> {
        DecodeStack {
            predecoder: self.predecoder.clone(),
            cluster: self
                .predecoder
                .as_ref()
                .filter(|_| self.cluster != ClusterGate::Off)
                .map(|pre| {
                    self.cluster_proto
                        .get_or_init(|| ClusterTier::from_predecoder(pre))
                        .clone()
                }),
            gate: self.cluster,
            ..DecodeStack::new(self.factory.build())
        }
    }

    fn validate(&self) -> Result<(), crate::error::ValidationError> {
        if let Some(graph) = &self.fallback {
            graph.validate()?;
        }
        self.factory.validate()
    }

    fn fallback_graph(&self) -> Option<&MatchingGraph> {
        self.fallback
            .as_ref()
            .or_else(|| self.factory.fallback_graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{graph_for_circuit, Decoder};
    use crate::mwpm::MwpmDecoder;
    use crate::unionfind::UnionFindDecoder;
    use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
    use caliqec_stab::{FrameSampler, SparseBatch, BATCH};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn memory_graph(d: usize, p: f64) -> MatchingGraph {
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p),
            d,
            MemoryBasis::Z,
        );
        graph_for_circuit(&mem.circuit)
    }

    #[test]
    fn empty_shot_certifies_to_identity() {
        let mut pre = Predecoder::new(&memory_graph(3, 1e-3));
        assert_eq!(pre.predecode(&[]), Some(0));
    }

    #[test]
    fn dense_shots_decline_fast() {
        let g = memory_graph(3, 1e-3);
        let mut pre = Predecoder::new(&g);
        let defects: Vec<usize> = (0..MAX_CERT_DEFECTS + 1).collect();
        assert_eq!(pre.predecode(&defects), None);
    }

    #[test]
    fn certified_shots_match_both_decoders() {
        // Realistic sparse syndromes: every certified shot must agree with
        // union-find and exact matching; a healthy fraction must certify.
        for d in [3usize, 5] {
            let mem = memory_circuit(
                &rotated_patch(d, d),
                &NoiseModel::uniform(2e-3),
                d,
                MemoryBasis::Z,
            );
            let graph = graph_for_circuit(&mem.circuit);
            let mut pre = Predecoder::new(&graph);
            let mut uf = UnionFindDecoder::new(graph.clone());
            let mut mwpm = MwpmDecoder::new(graph.clone());
            let mut sampler = FrameSampler::new(&mem.circuit);
            let mut rng = StdRng::seed_from_u64(17);
            let mut sparse = SparseBatch::new();
            let mut certified = 0usize;
            let mut nonempty = 0usize;
            for _ in 0..40 {
                let ev = sampler.sample_batch(&mut rng);
                sparse.extract(&ev);
                for s in 0..BATCH {
                    let defects = sparse.defects(s);
                    if defects.is_empty() {
                        continue;
                    }
                    nonempty += 1;
                    if let Some(mask) = pre.predecode(defects) {
                        certified += 1;
                        assert_eq!(mask, uf.decode(defects), "UF d={d} {defects:?}");
                        assert_eq!(mask, mwpm.decode(defects), "MWPM d={d} {defects:?}");
                    }
                }
            }
            assert!(
                certified * 4 >= nonempty,
                "d={d}: only {certified}/{nonempty} shots certified"
            );
        }
    }

    #[test]
    fn scratch_is_restored_between_calls() {
        let g = memory_graph(3, 2e-3);
        let mut pre = Predecoder::new(&g);
        let a = pre.predecode(&[0, 1]);
        // Whatever happened, the defect flags must be clean again.
        assert!(pre.is_defect.iter().all(|&b| !b));
        assert_eq!(pre.predecode(&[0, 1]), a);
    }

    #[test]
    fn tables_are_shared_across_clones() {
        let g = memory_graph(3, 1e-3);
        let pre = Predecoder::new(&g);
        let clone = pre.clone();
        assert!(Arc::ptr_eq(&pre.tables, &clone.tables));
    }

    #[test]
    fn without_predecode_provides_no_predecoder() {
        let g = memory_graph(3, 1e-3);
        let tiered = Tiered::new(&g, {
            let g = g.clone();
            move || UnionFindDecoder::new(g.clone())
        });
        assert!(tiered.stack().predecoder.is_some());
        let plain = Tiered::without_predecode({
            let g = g.clone();
            move || UnionFindDecoder::new(g.clone())
        });
        assert!(plain.stack().predecoder.is_none());
    }
}
