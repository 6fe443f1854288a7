//! Shot-level predecoder: provably-exact local matching for sparse
//! syndromes, plus the engine's [`Tiered`] factory adapter and the cluster
//! tier's [`ClusterGate`].
//!
//! No decode stack runs the predecoder. Measured through the engine on a
//! 2-core host, certification cost 0.21 µs per shot at d = 5 and 0.47 µs
//! at d = 7 but saved only 0.04–0.2 µs of union-find, so rung 0 sends
//! every nonempty shot it does not cluster straight to the full decoder.
//! [`Predecoder`] stays as a whole-shot query on a [`ClusterTier`]: it runs
//! the margin checks the tier applies per cluster, on the tier's own
//! tables, and the benchmark harness replays it layer by layer.
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
//! The defect list is partitioned into *units* via the tables' internal
//! neighbour lists (O(degree) per defect): a defect with exactly one
//! defect neighbour is **paired** with it (adjacency is symmetric, so
//! pairing is mutual); a defect with no defect neighbours is a boundary
//! **single**; two or more defect neighbours decline the shot. With
//! `EPS = 1e-9` absorbing the decoders' float tolerances (accumulated
//! rounding on these short paths is ≤ 1e-12), the shot certifies iff every
//! unit satisfies:
//!
//! - **Single** `u`: unit weight `W = bnd(u)`, its exact shortest boundary
//!   distance, with `W > EPS` and the flatness margin below. Mask
//!   contribution `π(u) ^ π(boundary)`.
//! - **Adjacent pair** `(u, v)`: let `w = d(u, v)` (exact boundary-avoiding
//!   distance from `u`'s truncated ball, `u < v`) and compare with draining
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
//!   `π(u) ^ π(v)` of a precomputed node potential. Inside a
//!   frustration-free ball, the observable flip of *any* walk depends only
//!   on its endpoints (two walks differ by cycles of zero observable XOR),
//!   so every tying shortest path, every union-find peeling tree, and
//!   every Dijkstra tie-break yields the same mask: the potential
//!   gradient. Degenerate weight ties — ubiquitous in uniform-noise
//!   surface codes — therefore need no uniqueness side conditions. The
//!   tables hold two potentials (gauges); a unit passes when it is flat
//!   under either one, and contributes that gauge's gradient.
//! - **Cross margin**: for defects `x`, `y` in *different* units,
//!   `d(x, y) > W_x + W_y + EPS` (a lookup in the lower endpoint's
//!   truncated ball, or absence from it when the threshold fits under the
//!   ball radius), so neither cluster growth nor any alternative matching
//!   can couple the units.
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
//! A `Predecoder` keeps no state of its own: the per-shot scratch (node →
//! defect-index slots) lives in the [`ClusterTier`] it queries and is
//! restored via the defect list after every call, so it is reusable with
//! zero steady-state allocation. The precomputed tables are immutable and
//! shared across clones via `Arc` — cloning a predecoder for another
//! worker thread costs one atomic increment plus the tier's scratch.

use crate::cluster::ClusterTier;
use crate::engine::{DecodeStack, DecoderFactory};
use crate::graph::{HeapItem, MatchingGraph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

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

/// One node's certification record. The five per-node quantities every
/// certification step reads sit together, so a lookup touches one record
/// instead of five arrays.
#[derive(Clone, Copy, Debug)]
struct NodeRec {
    /// Exact shortest boundary distance (`INFINITY` if detached).
    bnd: f64,
    /// Distance to the nearest endpoint of an edge frustrated under `pot`
    /// (`INFINITY` when the potential explains every edge). A ball of
    /// smaller radius contains no frustrated edge, so observable flips
    /// inside it are path-independent.
    frus: f64,
    /// The same under the second gauge `pot2`.
    frus2: f64,
    /// Node potential: `π(root) = 0`, `π(child) = π(parent) ^ obs(edge)`
    /// over a spanning forest. Certified masks are gradients of π.
    pot: u64,
    /// Second-gauge potential: its frustration wall sits along the
    /// observable-crossing columns instead of the drainage watershed, so
    /// units straddling the π-watershed, which fail the `frus` flatness
    /// margin, can still certify. See [`Tables::single_mask`] /
    /// [`Tables::pair_mask`].
    pot2: u64,
}

/// Immutable certification tables, built once per graph and shared by
/// `Arc` across every [`crate::ClusterTier`] clone. The standalone
/// [`Predecoder`] is a query on such a tier, so it reads the same tables.
///
/// Three per-node structures (the last two CSR), laid out for the lookups
/// certification and the cluster flood make:
///
/// - `node`: one [`NodeRec`] per node.
/// - Upper-half balls: for source `u`, the nodes `v > u` its truncated
///   Dijkstra reached, ascending, with their distances. Every lookup has
///   `u < v` (defect and cluster lists ascend), so the lower half is never
///   stored. `d(u, v)` and `d(v, u)` come from different Dijkstra runs and
///   may differ in the last bit; each pair keeps its lower endpoint's run.
/// - Internal neighbours: for node `u`, the far endpoint of every incident
///   edge in incident-edge order (boundary edges and self-loops dropped,
///   parallel edges kept), each with the pair distance
///   `near(min, max)`, or `INFINITY` when the pair lies outside the ball.
#[derive(Debug)]
pub(crate) struct Tables {
    boundary: NodeId,
    /// Truncation radius of the balls: they cover all walks of length
    /// ≤ `radius`, so absence of a node certifies distance > radius.
    pub(crate) radius: f64,
    node: Vec<NodeRec>,
    up_off: Vec<u32>,
    up_node: Vec<u32>,
    up_dist: Vec<f64>,
    nbr_off: Vec<u32>,
    nbr_node: Vec<u32>,
    nbr_dist: Vec<f64>,
}

impl Tables {
    /// Builds the tables for `graph`: both gauges, then the truncated balls
    /// at radius `2 × max(median, min(max_ball_edge, 4 × median))`, so the
    /// cluster tier's unit-weight cap `(radius − EPS) / 2` exceeds every
    /// internal edge weight (any single-edge defect pair fits under it)
    /// while the `min(·, 4 × median)` guard keeps pathological weight tails
    /// from blowing the balls up. On a uniform-weight graph the radius is
    /// `2 × median`.
    pub(crate) fn new(graph: &MatchingGraph) -> Tables {
        let n = graph.num_nodes();
        let boundary = graph.boundary();
        let (bnd, pot, frus) = gauge(graph, 0.0);

        // --- Second gauge. The watershed where drainage basins of opposite
        // crossing parity meet is exactly where π's frustrated edges
        // concentrate — and a steady stream of defect pairs straddles it
        // and fails the flatness margin. A second potential rooted on a
        // shortest-path tree whose metric penalises observable-crossing
        // edges moves the wall: drain paths cross only when forced, so
        // frustration under π₂ hugs the crossing columns at the lattice
        // edge instead of the mid-bulk watershed. Certification then
        // accepts a unit flat under *either* gauge (each gauge's gradient
        // is the physical flip wherever that gauge is flat).
        let penalty: f64 = graph
            .edges()
            .iter()
            .map(|e| e.weight)
            .filter(|w| w.is_finite())
            .sum::<f64>()
            + 1.0;
        let (_, pot2, frus2) = gauge(graph, penalty);
        let node = (0..n)
            .map(|u| NodeRec {
                bnd: bnd[u],
                frus: frus[u],
                frus2: frus2[u],
                pot: pot[u],
                pot2: pot2[u],
            })
            .collect();

        // --- Truncation radius: certification thresholds reach at most
        // W_x + W_y for two unit weights, so twice the heaviest edge a
        // ball path can use (with headroom, floored at the median and
        // capped at 4× it) covers single-mechanism units while keeping the
        // per-node balls to a few hops. Heavier units simply fail the
        // `threshold ≤ radius` guard and fall through.
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
        let base = median.max(max_ball_edge.min(4.0 * median));
        let radius = 2.0 * base * 1.01 + 1e-6;

        // --- Truncated Dijkstra from every node: exact boundary-avoiding
        // shortest distances to every node within `radius`. Only the
        // members above the source are kept. Absence of a target `v > u`
        // from `u`'s ball proves their distance exceeds `radius`.
        let mut up_off = vec![0u32; n + 1];
        let mut up_node: Vec<u32> = Vec::new();
        let mut up_dist: Vec<f64> = Vec::new();
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
                    if tu > src && tu != boundary {
                        up_node.push(t);
                        up_dist.push(dist[tu]);
                    }
                }
                for &t in &touched {
                    dist[t as usize] = f64::INFINITY;
                }
                touched.clear();
            }
            up_off[src + 1] = up_node.len() as u32;
        }

        let mut tables = Tables {
            boundary,
            radius,
            node,
            up_off,
            up_node,
            up_dist,
            nbr_off: vec![0; n + 1],
            nbr_node: Vec::new(),
            nbr_dist: Vec::new(),
        };

        // --- Internal neighbours, each with its pair's ball distance.
        let mut nbr_node = Vec::new();
        let mut nbr_dist = Vec::new();
        for u in 0..n {
            if u != boundary {
                for &ei in graph.incident(u) {
                    let v = graph.other_endpoint(ei as usize, u);
                    if v == u || v == boundary {
                        continue;
                    }
                    nbr_node.push(v as u32);
                    nbr_dist.push(tables.near(u.min(v), u.max(v)).unwrap_or(f64::INFINITY));
                }
            }
            tables.nbr_off[u + 1] = nbr_node.len() as u32;
        }
        tables.nbr_node = nbr_node;
        tables.nbr_dist = nbr_dist;
        tables
    }

    /// Exact boundary-avoiding distance from `u` to `v > u` by `u`'s own
    /// truncated Dijkstra, or `None` when `v` lies outside `u`'s ball
    /// (distance > [`Self::radius`]).
    #[inline]
    fn near(&self, u: NodeId, v: NodeId) -> Option<f64> {
        debug_assert!(u < v, "balls hold only their upper half");
        let lo = self.up_off[u] as usize;
        let hi = self.up_off[u + 1] as usize;
        self.up_node[lo..hi]
            .binary_search(&(v as u32))
            .ok()
            .map(|i| self.up_dist[lo + i])
    }

    /// The nodes `v > u` within `u`'s truncated ball, ascending. The
    /// cluster tier's flood joins two defects `u < v` iff `v` is here.
    #[inline]
    pub(crate) fn up_ball(&self, u: NodeId) -> &[u32] {
        let lo = self.up_off[u] as usize;
        let hi = self.up_off[u + 1] as usize;
        &self.up_node[lo..hi]
    }

    /// `u`'s internal neighbours (incident-edge order) and, per entry, the
    /// pair's ball distance or `INFINITY`.
    #[inline]
    fn neighbours(&self, u: NodeId) -> (&[u32], &[f64]) {
        let lo = self.nbr_off[u] as usize;
        let hi = self.nbr_off[u + 1] as usize;
        (&self.nbr_node[lo..hi], &self.nbr_dist[lo..hi])
    }

    /// Gauge-aware boundary-drain mask for a single of unit weight `w`:
    /// the observable flip of draining `u` to the boundary, under whichever
    /// potential is frustration-free within radius `w` of `u` (the single's
    /// entire growth region). `None` when neither gauge is flat there.
    #[inline]
    fn single_mask(&self, u: NodeId, w: f64) -> Option<u64> {
        let r = &self.node[u];
        let b = &self.node[self.boundary];
        if r.frus > w + EPS {
            Some(r.pot ^ b.pot)
        } else if r.frus2 > w + EPS {
            Some(r.pot2 ^ b.pot2)
        } else {
            None
        }
    }

    /// Gauge-aware peel mask for an internal pair of unit weight `w`: both
    /// members' radius-`w` balls (the pair's growth region) must be
    /// frustration-free under a *common* gauge, whose gradient is then the
    /// flip of every walk the decoders can realise between them.
    #[inline]
    fn pair_mask(&self, u: NodeId, v: NodeId, w: f64) -> Option<u64> {
        let (a, b) = (&self.node[u], &self.node[v]);
        if a.frus > w + EPS && b.frus > w + EPS {
            Some(a.pot ^ b.pot)
        } else if a.frus2 > w + EPS && b.frus2 > w + EPS {
            Some(a.pot2 ^ b.pot2)
        } else {
            None
        }
    }
}

/// The three-pass margin check of the module docs over `defects` (sorted
/// ascending, at most [`MAX_CERT_DEFECTS`]), with every accepted unit
/// weight capped at `w_cap`. `slot[x]` must be `x`'s index in `defects` for
/// every member and `u32::MAX` for every other node.
///
/// Returns the certified observable mask, or `None` when any margin fails —
/// never a wrong mask. The predecoder runs it on a whole shot with no cap;
/// the cluster tier runs it per flood cluster under its separation cap.
pub(crate) fn certify(t: &Tables, slot: &[u32], defects: &[NodeId], w_cap: f64) -> Option<u64> {
    let k = defects.len();
    let mut mask = 0u64;
    // Per-defect unit weight, partner index (usize::MAX = single), and the
    // ball distance to the partner.
    let mut unit_w = [0.0f64; MAX_CERT_DEFECTS];
    let mut partner = [usize::MAX; MAX_CERT_DEFECTS];
    let mut pair_w = [f64::INFINITY; MAX_CERT_DEFECTS];

    // Pass 1: O(degree) neighbour-list scan per defect — find the unique
    // defect neighbour, if any. Adjacency is symmetric, so the induced
    // pairing is automatically mutual: if `u`'s only defect neighbour is
    // `v`, then `v` sees `u` too, and any *additional* neighbour of `v`
    // declines the whole set right here. Only members are marked, so a
    // direct edge out of the set proposes no pairing.
    for (i, &u) in defects.iter().enumerate() {
        let (nodes, dists) = t.neighbours(u);
        let mut nbr = u32::MAX;
        for (e, &v) in nodes.iter().enumerate() {
            let j = slot[v as usize];
            if j == u32::MAX {
                continue;
            }
            if nbr != u32::MAX && nbr != j {
                return None; // two distinct defect neighbours
            }
            nbr = j;
            pair_w[i] = dists[e];
        }
        if nbr != u32::MAX {
            partner[i] = nbr as usize;
        }
    }

    // Pass 2: per-unit weights, margins, and masks. A unit flat under
    // either gauge contributes that gauge's gradient.
    for (i, &u) in defects.iter().enumerate() {
        let j = partner[i];
        if j == usize::MAX {
            // Single unit: neutralises against the boundary at its exact
            // boundary distance; the ball up to there must be flat.
            let w = t.node[u].bnd;
            if !w.is_finite() || w <= EPS || w > w_cap {
                return None;
            }
            mask ^= t.single_mask(u, w)?;
            unit_w[i] = w;
        } else {
            debug_assert_eq!(partner[j], i, "adjacency pairing is mutual");
            if i < j {
                // Adjacent pair, processed once from the smaller index.
                // The matcher weighs the internal connection `w` against
                // draining both defects to the boundary; whichever side
                // wins strictly, the mask is the same gradient (the
                // boundary potential cancels), so we certify either
                // structure and decline only exact ties. An out-of-ball
                // pair reads `INFINITY` and declines here.
                let v = defects[j];
                let w = pair_w[i];
                if !w.is_finite() || w <= EPS || w > w_cap {
                    return None;
                }
                let bsum = t.node[u].bnd + t.node[v].bnd;
                if w + EPS < bsum {
                    // Internal pair: clusters merge (or one drains to a
                    // nearer boundary and the other joins it — either way
                    // the grown region stays in the radius-`w` balls, and
                    // the matcher strictly prefers the pair).
                    mask ^= t.pair_mask(u, v, w)?;
                    unit_w[i] = w;
                    unit_w[j] = w;
                } else if bsum + EPS < w {
                    // Both drain to the boundary: two singles whose mutual
                    // cross margin is exactly this inequality (pass 3
                    // skips same-partner pairs, so it is discharged here).
                    // Each may certify under its own gauge.
                    for (x, xi) in [(u, i), (v, j)] {
                        let wx = t.node[x].bnd;
                        if !wx.is_finite() || wx <= EPS || wx > w_cap {
                            return None;
                        }
                        mask ^= t.single_mask(x, wx)?;
                        unit_w[xi] = wx;
                    }
                } else {
                    return None; // exact tie: structures ambiguous
                }
            }
        }
    }

    // Pass 3: cross margins — every pair of defects in different units
    // must be farther apart than the sum of their unit weights, so neither
    // the matcher nor cluster growth can couple them.
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

/// Shot-level predecoder over a [`MatchingGraph`]: a whole-shot query on a
/// [`ClusterTier`], certified with no unit-weight cap. See the module docs
/// for the firing condition and the exactness argument.
///
/// Cloning shares the tier's tables (via `Arc`) and allocates only fresh
/// per-shot scratch, so per-worker instances are cheap.
#[derive(Clone, Debug)]
pub struct Predecoder(pub(crate) ClusterTier);

impl Predecoder {
    /// Shots with more defects than this can never certify (see the module
    /// constant); callers may early-out on `SparseBatch::defect_count`
    /// before paying any predecode bookkeeping.
    pub const MAX_CERT_DEFECTS: usize = MAX_CERT_DEFECTS;

    /// Builds the certification tables for `graph`, exactly as
    /// [`ClusterTier::new`] does. This is the expensive part (a truncated
    /// Dijkstra per node); share the result across workers by cloning.
    pub fn new(graph: &MatchingGraph) -> Predecoder {
        Predecoder(ClusterTier::new(graph))
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
        if defects.len() > MAX_CERT_DEFECTS {
            return None;
        }
        self.0.certify_shot(defects)
    }
}

/// Gating policy for the dense-regime cluster tier.
///
/// The tier's flood decomposition has a per-shot cost that only pays off
/// when certified clusters peel enough decoder work away (at d=11, p=3e-3
/// only 14% of defects peel and the tier saves about what it costs).
/// `Auto` makes the call per
/// 64-shot batch from the batch's mean defect count — a deterministic
/// function of the sampled syndrome stream, so gating never perturbs the
/// engine's thread-count-independence. It can change a failure count: a
/// shot whose clusters only partly certify decodes as the tier's variant
/// (peel, then decode the residual) on one side of the gate and
/// monolithically on the other, and the two can disagree (see
/// [`crate::ClusterTier`]).
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
/// cluster gate to run the decomposition. It sits between the d = 11 and
/// d = 15 means at p = 1e-3: 22.6 and 59.3 defects/shot over 4 096 shots
/// (d = 21 reads 167.9). Through the engine on a 2-core host (2 threads,
/// 7 paired runs per arm) `Auto` beats `Off` at d = 15 (median 56.5k vs
/// 42.3k shots/s, 34.8 vs 46.5 CPU-µs per shot, ahead in 7/7 pairs) and at
/// d = 21 (13.5k vs 10.3k, 7/7). The threshold is not the whole story:
/// forcing the tier on at d = 11, p = 1e-3, where `Auto` stays shut,
/// read 154k vs 137k shots/s, while at d = 11, p = 3e-3 (65 defects/shot,
/// gate open) only 14% of defects peel and the tier is neutral. A mean
/// defect count does not capture the error rate. See DESIGN.md §12.
pub const CLUSTER_GATE_MIN_MEAN_DEFECTS: f64 = 28.0;

/// [`DecoderFactory`] adapter for the engine's decode stack: it keeps the
/// decoders' matching graph (validated up front and used as the rung-2
/// degradation fallback) and can arm the dense-regime cluster tier.
///
/// ```ignore
/// let tiered = Tiered::new(&graph, || UnionFindDecoder::new(graph.clone()))
///     .with_cluster_gate(ClusterGate::Auto);
/// engine.estimate(&compiled, &tiered, opts, seed);
/// ```
///
/// Its stacks run no [`Predecoder`] (the module docs say why).
#[derive(Clone, Debug)]
pub struct Tiered<F> {
    factory: F,
    /// The decoders' matching graph, kept for engine-side validation and
    /// as the rung-2 degradation fallback.
    fallback: MatchingGraph,
    /// Opt-in dense-regime cluster tier (see [`crate::ClusterTier`]):
    /// shots with more than [`crate::MAX_CLUSTER_DEFECTS`] defects are
    /// flood-decomposed and decoded per cluster instead of monolithically,
    /// subject to the gate.
    cluster: ClusterGate,
    /// The cluster tier every [`DecoderFactory::stack`] clones (its
    /// tables are `Arc`-shared). Built on the first `stack` call, so
    /// constructing an adapter never pays for the table build.
    cluster_proto: OnceLock<ClusterTier>,
}

impl<F: DecoderFactory> Tiered<F> {
    /// Wraps `factory`, whose decoders must use `graph`. The graph is
    /// retained for validation and as the engine's rung-2 degradation
    /// fallback; nothing is built from it until a cluster tier is armed.
    pub fn new(graph: &MatchingGraph, factory: F) -> Tiered<F> {
        Tiered {
            factory,
            fallback: graph.clone(),
            cluster: ClusterGate::Off,
            cluster_proto: OnceLock::new(),
        }
    }

    /// Validating form of [`Tiered::new`]: rejects a malformed `graph`
    /// with a typed error at construction instead of at
    /// [`crate::LerEngine::try_run`].
    pub fn try_new(
        graph: &MatchingGraph,
        factory: F,
    ) -> Result<Tiered<F>, crate::error::ValidationError> {
        graph.validate()?;
        Ok(Tiered::new(graph, factory))
    }

    /// Arms the dense-regime cluster tier (rung 0 only) under `gate`:
    /// shots with more defects than [`crate::MAX_CLUSTER_DEFECTS`] are
    /// flood-decomposed into independent clusters, certified clusters are
    /// peeled locally, and only the uncertified remainder reaches the full
    /// decoder. `On` decomposes every batch; `Auto` skips batches below
    /// [`CLUSTER_GATE_MIN_MEAN_DEFECTS`], journaling the decision.
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
        let cluster = (self.cluster != ClusterGate::Off).then(|| {
            self.cluster_proto
                .get_or_init(|| ClusterTier::new(&self.fallback))
                .clone()
        });
        DecodeStack {
            cluster,
            gate: self.cluster,
            ..DecodeStack::new(self.factory.build())
        }
    }

    fn validate(&self) -> Result<(), crate::error::ValidationError> {
        self.fallback.validate()?;
        self.factory.validate()
    }

    fn fallback_graph(&self) -> Option<&MatchingGraph> {
        Some(&self.fallback)
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
}
