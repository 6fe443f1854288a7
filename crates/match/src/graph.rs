//! Weighted matching graphs built from detector error models.
//!
//! Nodes are detectors plus one virtual boundary node. Every error mechanism
//! with one flipped detector becomes a boundary edge; two flipped detectors
//! become an interior edge; more than two (hyperedges, which arise from Y
//! errors under circuit-level noise) are decomposed into existing edges in the
//! style of Stim's `decompose_errors`.

use crate::error::ValidationError;
use caliqec_stab::{DetIdx, DetectorErrorModel, ErrorSource, RateTable};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a node in a [`MatchingGraph`]: a detector or the boundary.
pub type NodeId = usize;

/// Min-heap entry `(distance, node)` for the Dijkstra runs over a
/// [`MatchingGraph`]. Equal distances pop the lower node id first, so pop
/// order is a function of the graph and the sources alone.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HeapItem(pub(crate) f64, pub(crate) NodeId);

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

/// One weighted edge of the matching graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge {
    /// First endpoint (a detector).
    pub u: NodeId,
    /// Second endpoint (a detector, or [`MatchingGraph::boundary`]).
    pub v: NodeId,
    /// Total firing probability of the mechanisms merged into this edge.
    pub probability: f64,
    /// Matching weight `ln((1 - p) / p)`.
    pub weight: f64,
    /// XOR of logical-observable masks flipped when this edge is used.
    pub observables: u64,
}

/// A weighted matching graph with a single virtual boundary node.
///
/// Graphs built by [`MatchingGraph::from_dem`] keep the DEM provenance that
/// [`MatchingGraph::reweight`] replays. It never changes after the build,
/// so clones share one copy and a per-worker clone costs only the edges and
/// adjacency.
///
/// # Examples
///
/// ```
/// use caliqec_match::MatchingGraph;
/// use caliqec_stab::{Basis, Circuit, Noise1, extract_dem};
///
/// let mut c = Circuit::new(1);
/// c.reset(Basis::Z, &[0]);
/// c.noise1(Noise1::XError, 0.01, &[0]);
/// let m = c.measure(0, Basis::Z, 0.0);
/// c.detector(&[m]);
/// let graph = MatchingGraph::from_dem(&extract_dem(&c));
/// assert_eq!(graph.num_detectors(), 1);
/// assert_eq!(graph.edges().len(), 1); // one boundary edge
/// ```
#[derive(Clone, Debug, Default)]
pub struct MatchingGraph {
    num_detectors: usize,
    num_observables: usize,
    edges: Vec<Edge>,
    /// CSR adjacency: `adj_edges[adj_offsets[n]..adj_offsets[n + 1]]` are
    /// the indices (into `edges`) of the edges incident to node `n`, in
    /// ascending edge order. Flat so cluster growth and Dijkstra walk
    /// contiguous memory instead of chasing one heap box per node.
    adj_offsets: Vec<u32>,
    adj_edges: Vec<u32>,
    /// Mechanism provenance retained by [`MatchingGraph::from_dem`] so edge
    /// probabilities can be recomputed from updated per-gate rates without
    /// re-extracting the DEM. `None` for [`MatchingGraph::from_edges`]
    /// graphs. Nothing mutates it after the build, so clones share one
    /// copy: it is several times the size of the rest of the graph, and
    /// every decoder factory clones the graph per worker.
    provenance: Option<Arc<Provenance>>,
}

fn probability_to_weight(p: f64) -> f64 {
    let p = p.clamp(MatchingGraph::P_MIN, MatchingGraph::P_MAX);
    ((1.0 - p) / p).ln()
}

fn xor_combine(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

/// Flattened provenance of a graph built from a DEM: which interned physical
/// sources contribute to each mechanism, and which mechanisms were folded
/// into each edge, both in their exact extraction/absorb order so a replay
/// under the identity rate table is bit-identical to the original build.
#[derive(Clone, Debug, Default)]
struct Provenance {
    /// Interned physical sources, copied from the DEM.
    sources: Vec<ErrorSource>,
    /// CSR over mechanisms: contributions of mechanism `m` occupy
    /// `contrib_*[mech_off[m]..mech_off[m + 1]]`.
    mech_off: Vec<u32>,
    contrib_source: Vec<u32>,
    contrib_base: Vec<f64>,
    contrib_div: Vec<f64>,
    /// CSR over edges: DEM mechanism indices XOR-folded into edge `i`, in
    /// absorb order, occupy `edge_mech[edge_off[i]..edge_off[i + 1]]`.
    edge_off: Vec<u32>,
    edge_mech: Vec<u32>,
}

/// Accumulator for one edge while merging mechanisms.
#[derive(Clone, Debug, Default)]
struct EdgeAcc {
    /// XOR-combined probability of all contributing mechanisms.
    prob: f64,
    /// Observable mask of the edge.
    obs: u64,
    /// Probability of the single strongest mechanism that set `obs`; a
    /// conflicting mechanism only overrides the mask when it is stronger
    /// (its disagreement then becomes bounded decoder noise instead).
    obs_weight: f64,
    /// DEM mechanism indices absorbed into this edge, in absorb order.
    /// Zero-probability mechanisms are skipped: folding 0 is an exact
    /// no-op, and they are frozen under reweighting anyway.
    mechs: Vec<u32>,
}

impl EdgeAcc {
    fn absorb(&mut self, mech: u32, prob: f64, obs: u64) {
        self.prob = xor_combine(self.prob, prob);
        if prob > 0.0 {
            self.mechs.push(mech);
        }
        if obs != self.obs && prob > self.obs_weight {
            self.obs = obs;
            self.obs_weight = prob;
        } else if obs == self.obs {
            self.obs_weight = self.obs_weight.max(prob);
        }
    }
}

impl MatchingGraph {
    /// Builds the matching graph of a detector error model, decomposing
    /// hyperedges into graph edges.
    ///
    /// Observable bookkeeping follows PyMatching/Stim semantics: a
    /// decomposed hyperedge only re-labels an edge when its components'
    /// masks do not already explain the mechanism's observable flips, and
    /// conflicting parallel mechanisms resolve toward the more probable one.
    pub fn from_dem(dem: &DetectorErrorModel) -> MatchingGraph {
        let boundary = dem.num_detectors;
        // First pass: collect genuine edges (1 or 2 detectors).
        let mut edge_map: HashMap<(NodeId, NodeId), EdgeAcc> = HashMap::new();
        let key = |dets: &[DetIdx]| -> Option<(NodeId, NodeId)> {
            match dets {
                [d] => Some((d.0 as NodeId, boundary)),
                [a, b] => Some(ordered(a.0 as NodeId, b.0 as NodeId)),
                _ => None,
            }
        };
        for (mi, mech) in dem.mechanisms.iter().enumerate() {
            if let Some(k) = key(&mech.detectors) {
                edge_map.entry(k).or_default().absorb(
                    mi as u32,
                    mech.probability,
                    mech.observables,
                );
            }
        }
        // Second pass: decompose hyperedges into known edges. The components'
        // existing observable masks usually already explain the hyperedge's
        // flips (e.g. a data Y error = a known X-error edge ⊕ a known
        // Z-error edge); any residual lands on a fresh component.
        for (mi, mech) in dem.mechanisms.iter().enumerate() {
            if mech.detectors.len() <= 2 {
                continue;
            }
            let parts = decompose(&mech.detectors, boundary, &edge_map);
            let mut residual = mech.observables;
            let mut fresh: Option<(NodeId, NodeId)> = None;
            for &part in &parts {
                match edge_map.get(&part) {
                    Some(acc) if acc.prob > 0.0 => residual ^= acc.obs,
                    _ => fresh = fresh.or(Some(part)),
                }
            }
            for &part in &parts {
                let is_fresh_target = fresh == Some(part);
                let entry = edge_map.entry(part).or_default();
                let obs = if is_fresh_target {
                    residual
                } else if entry.prob > 0.0 {
                    entry.obs
                } else {
                    0
                };
                entry.absorb(mi as u32, mech.probability, obs);
            }
            // If every component already existed and their masks do not
            // explain the mechanism (residual != 0 with no fresh edge), the
            // mechanism's logical effect stays as bounded decoder noise —
            // the same compromise PyMatching makes for undecomposable
            // hyperedges.
        }

        let mut keyed: Vec<((NodeId, NodeId), EdgeAcc)> = edge_map
            .into_iter()
            .filter(|(_, acc)| acc.prob > 0.0)
            .collect();
        keyed.sort_by_key(|&((u, v), _)| (u, v));
        let mut edges: Vec<Edge> = Vec::with_capacity(keyed.len());
        let mut edge_off: Vec<u32> = Vec::with_capacity(keyed.len() + 1);
        let mut edge_mech: Vec<u32> = Vec::new();
        edge_off.push(0);
        for ((u, v), acc) in keyed {
            edges.push(Edge {
                u,
                v,
                probability: acc.prob,
                weight: probability_to_weight(acc.prob),
                observables: acc.obs,
            });
            edge_mech.extend_from_slice(&acc.mechs);
            edge_off.push(edge_mech.len() as u32);
        }

        // Flatten the per-mechanism source contributions into a CSR aligned
        // with `dem.mechanisms`.
        let mut mech_off: Vec<u32> = Vec::with_capacity(dem.mechanisms.len() + 1);
        let mut contrib_source: Vec<u32> = Vec::new();
        let mut contrib_base: Vec<f64> = Vec::new();
        let mut contrib_div: Vec<f64> = Vec::new();
        mech_off.push(0);
        for mech in &dem.mechanisms {
            for c in &mech.sources {
                contrib_source.push(c.source);
                contrib_base.push(c.base);
                contrib_div.push(c.divisor);
            }
            mech_off.push(contrib_source.len() as u32);
        }
        let provenance = Provenance {
            sources: dem.sources.clone(),
            mech_off,
            contrib_source,
            contrib_base,
            contrib_div,
            edge_off,
            edge_mech,
        };

        // Two-pass CSR build: count degrees, prefix-sum into offsets, fill.
        // Edges are visited in ascending index order, so each node's
        // incidence list comes out ascending — the same order the old
        // `Vec<Vec<usize>>` adjacency produced.
        let num_nodes = dem.num_detectors + 1;
        let mut degree = vec![0u32; num_nodes];
        for e in &edges {
            degree[e.u] += 1;
            if e.v != e.u {
                degree[e.v] += 1;
            }
        }
        let mut adj_offsets = vec![0u32; num_nodes + 1];
        for n in 0..num_nodes {
            adj_offsets[n + 1] = adj_offsets[n] + degree[n];
        }
        let mut cursor = adj_offsets.clone();
        let mut adj_edges = vec![0u32; adj_offsets[num_nodes] as usize];
        for (i, e) in edges.iter().enumerate() {
            adj_edges[cursor[e.u] as usize] = i as u32;
            cursor[e.u] += 1;
            if e.v != e.u {
                adj_edges[cursor[e.v] as usize] = i as u32;
                cursor[e.v] += 1;
            }
        }
        MatchingGraph {
            num_detectors: dem.num_detectors,
            num_observables: dem.num_observables,
            edges,
            adj_offsets,
            adj_edges,
            provenance: Some(Arc::new(provenance)),
        }
    }

    /// Builds a graph directly from an edge list **without** invariant
    /// checks, recomputing the CSR adjacency.
    ///
    /// Unlike [`MatchingGraph::from_dem`] this can represent malformed
    /// graphs (out-of-range endpoints are skipped during the CSR build so
    /// construction itself cannot panic) — the intended pairing is
    /// [`MatchingGraph::validate`], which reports every defect as a typed
    /// [`ValidationError`]. Fault-injection tests and external graph
    /// sources construct graphs this way.
    pub fn from_edges(
        num_detectors: usize,
        num_observables: usize,
        edges: Vec<Edge>,
    ) -> MatchingGraph {
        let num_nodes = num_detectors + 1;
        let mut degree = vec![0u32; num_nodes];
        for e in &edges {
            if e.u < num_nodes {
                degree[e.u] += 1;
            }
            if e.v != e.u && e.v < num_nodes {
                degree[e.v] += 1;
            }
        }
        let mut adj_offsets = vec![0u32; num_nodes + 1];
        for n in 0..num_nodes {
            adj_offsets[n + 1] = adj_offsets[n] + degree[n];
        }
        let mut cursor = adj_offsets.clone();
        let mut adj_edges = vec![0u32; adj_offsets[num_nodes] as usize];
        for (i, e) in edges.iter().enumerate() {
            if e.u < num_nodes {
                adj_edges[cursor[e.u] as usize] = i as u32;
                cursor[e.u] += 1;
            }
            if e.v != e.u && e.v < num_nodes {
                adj_edges[cursor[e.v] as usize] = i as u32;
                cursor[e.v] += 1;
            }
        }
        MatchingGraph {
            num_detectors,
            num_observables,
            edges,
            adj_offsets,
            adj_edges,
            provenance: None,
        }
    }

    /// Re-checks every invariant the decoders rely on, returning the first
    /// defect as a typed [`ValidationError`]:
    ///
    /// - every edge endpoint is a detector or the boundary;
    /// - every edge weight is finite and non-negative, every probability a
    ///   finite number in `(0, 1]`;
    /// - the CSR adjacency agrees with the edge list (monotone offsets, one
    ///   slot per distinct endpoint, incidence entries point at incident
    ///   edges);
    /// - every edge-bearing detector node can reach the boundary, so any
    ///   single defect is matchable.
    ///
    /// [`MatchingGraph::from_dem`] only produces valid graphs; graphs from
    /// [`MatchingGraph::from_edges`] may not be, and the hardened engine
    /// validates before launching workers.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let num_nodes = self.num_nodes();
        for (i, e) in self.edges.iter().enumerate() {
            for node in [e.u, e.v] {
                if node >= num_nodes {
                    return Err(ValidationError::EndpointOutOfRange {
                        edge: i,
                        node,
                        num_nodes,
                    });
                }
            }
            if !e.weight.is_finite() {
                return Err(ValidationError::NonFiniteWeight {
                    edge: i,
                    weight: e.weight,
                });
            }
            if e.weight < 0.0 {
                return Err(ValidationError::NegativeWeight {
                    edge: i,
                    weight: e.weight,
                });
            }
            if !e.probability.is_finite() || e.probability <= 0.0 || e.probability > 1.0 {
                return Err(ValidationError::BadProbability {
                    edge: i,
                    probability: e.probability,
                });
            }
        }
        self.validate_csr()?;
        // BFS from the boundary: every edge-bearing detector must be
        // reachable, or a single defect there could never be matched.
        let mut reached = vec![false; num_nodes];
        let mut queue = vec![self.boundary()];
        reached[self.boundary()] = true;
        while let Some(node) = queue.pop() {
            for &ei in self.incident(node) {
                let other = self.other_endpoint(ei as usize, node);
                if !reached[other] {
                    reached[other] = true;
                    queue.push(other);
                }
            }
        }
        for (node, seen) in reached.iter().enumerate().take(self.num_detectors) {
            if !seen && !self.incident(node).is_empty() {
                return Err(ValidationError::Unreachable { node });
            }
        }
        Ok(())
    }

    /// Checks the CSR adjacency against the edge list.
    fn validate_csr(&self) -> Result<(), ValidationError> {
        let num_nodes = self.num_nodes();
        if self.adj_offsets.len() != num_nodes + 1
            || self.adj_offsets.first() != Some(&0)
            || self.adj_offsets.windows(2).any(|w| w[0] > w[1])
            || self.adj_offsets.last().copied().unwrap_or(0) as usize != self.adj_edges.len()
        {
            return Err(ValidationError::CsrInconsistent {
                detail: format!(
                    "offsets malformed ({} nodes, {} slots)",
                    num_nodes,
                    self.adj_edges.len()
                ),
            });
        }
        let expected_slots: usize = self
            .edges
            .iter()
            .map(|e| if e.u == e.v { 1 } else { 2 })
            .sum();
        if self.adj_edges.len() != expected_slots {
            return Err(ValidationError::CsrInconsistent {
                detail: format!(
                    "{} incidence slots for {} expected endpoint slots",
                    self.adj_edges.len(),
                    expected_slots
                ),
            });
        }
        for node in 0..num_nodes {
            for &ei in self.incident(node) {
                let incident_to_node = self
                    .edges
                    .get(ei as usize)
                    .is_some_and(|e| e.u == node || e.v == node);
                if !incident_to_node {
                    return Err(ValidationError::CsrInconsistent {
                        detail: format!("node {node} lists non-incident edge {ei}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Probability floor for weight conversion. Drift can push a rate toward
    /// zero, whose weight would be `+inf`; `probability_to_weight` clamps to
    /// `[P_MIN, P_MAX]` so every edge weight stays finite. Matches
    /// [`RateTable::MIN_RATE`].
    pub const P_MIN: f64 = 1e-12;
    /// Probability ceiling for weight conversion. Merged probabilities past
    /// the zero-information point 0.5 would produce negative weights;
    /// clamping caps them at weight 0. Matches [`RateTable::MAX_RATE`].
    pub const P_MAX: f64 = 0.5;

    /// Recomputes every edge probability and weight from updated per-gate
    /// `rates`, in place, on the existing CSR layout.
    ///
    /// Topology (edge list, endpoints, adjacency) and observable masks are
    /// untouched, so [`MatchingGraph::validate`] stays cheap. The
    /// computation replays the extraction-time XOR folds from the retained
    /// provenance: sources absent from `rates` keep their recorded base
    /// component, which makes the [`RateTable::identity`] reweight
    /// bit-identical to the original build, and a reweight equal to a fresh
    /// `MatchingGraph::from_dem(&dem.reweighted(rates))` bit-identical in
    /// probability and weight.
    ///
    /// Decoders and predecoders own immutable graph copies and derive their
    /// weight-dependent state at construction, so build them over the
    /// reweighted graph: hand the engine an ordinary
    /// [`crate::DecoderFactory`] over it, as the calibration runtime does
    /// for every trace point.
    ///
    /// Errors with [`ValidationError::NoProvenance`] on graphs built by
    /// [`MatchingGraph::from_edges`], which carry no provenance.
    pub fn reweight(&mut self, rates: &RateTable) -> Result<(), ValidationError> {
        let prov = self
            .provenance
            .as_deref()
            .ok_or(ValidationError::NoProvenance)?;
        // Resolve each interned source once.
        let resolved: Vec<Option<f64>> = prov.sources.iter().map(|s| rates.get(s)).collect();
        // Replay the extraction-time contribution fold per mechanism.
        let num_mechs = prov.mech_off.len() - 1;
        let mut mech_prob = vec![0.0f64; num_mechs];
        for (m, out) in mech_prob.iter_mut().enumerate() {
            let lo = prov.mech_off[m] as usize;
            let hi = prov.mech_off[m + 1] as usize;
            let mut acc = 0.0f64;
            for c in lo..hi {
                let p = match resolved[prov.contrib_source[c] as usize] {
                    Some(rate) => rate / prov.contrib_div[c],
                    None => prov.contrib_base[c],
                };
                acc = acc * (1.0 - p) + p * (1.0 - acc);
            }
            *out = acc;
        }
        // Replay the per-edge absorb fold.
        for (i, e) in self.edges.iter_mut().enumerate() {
            let lo = prov.edge_off[i] as usize;
            let hi = prov.edge_off[i + 1] as usize;
            let mut acc = 0.0f64;
            for &m in &prov.edge_mech[lo..hi] {
                acc = xor_combine(acc, mech_prob[m as usize]);
            }
            e.probability = acc;
            e.weight = probability_to_weight(acc);
        }
        Ok(())
    }

    /// True when the graph retains the DEM provenance needed by
    /// [`MatchingGraph::reweight`].
    pub fn has_provenance(&self) -> bool {
        self.provenance.is_some()
    }

    /// Number of detector nodes.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables tracked on edges.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// The virtual boundary node id.
    pub fn boundary(&self) -> NodeId {
        self.num_detectors
    }

    /// Total number of nodes (detectors + boundary).
    pub fn num_nodes(&self) -> usize {
        self.num_detectors + 1
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Indices (into [`Self::edges`]) of the edges incident to `node`, in
    /// ascending edge order. A contiguous CSR slice, cheap to walk.
    #[inline]
    pub fn incident(&self, node: NodeId) -> &[u32] {
        let lo = self.adj_offsets[node] as usize;
        let hi = self.adj_offsets[node + 1] as usize;
        &self.adj_edges[lo..hi]
    }

    /// The endpoint of edge `e` opposite to `node`.
    pub fn other_endpoint(&self, e: usize, node: NodeId) -> NodeId {
        let edge = &self.edges[e];
        if edge.u == node {
            edge.v
        } else {
            edge.u
        }
    }
}

/// Decomposes a hyperedge's detector set into node pairs, preferring splits
/// that correspond to existing edges.
fn decompose(
    dets: &[DetIdx],
    boundary: NodeId,
    known: &HashMap<(NodeId, NodeId), EdgeAcc>,
) -> Vec<(NodeId, NodeId)> {
    let mut remaining: Vec<NodeId> = dets.iter().map(|d| d.0 as NodeId).collect();
    let mut parts = Vec::new();
    // Greedily extract pairs that are known edges.
    'outer: loop {
        for i in 0..remaining.len() {
            for j in (i + 1)..remaining.len() {
                let k = ordered(remaining[i], remaining[j]);
                if known.contains_key(&k) {
                    parts.push(k);
                    remaining.swap_remove(j);
                    remaining.swap_remove(i);
                    continue 'outer;
                }
            }
        }
        break;
    }
    // Extract singles that are known boundary edges.
    let mut i = 0;
    while i < remaining.len() {
        let k = ordered(remaining[i], boundary);
        if known.contains_key(&k) {
            parts.push(k);
            remaining.swap_remove(i);
        } else {
            i += 1;
        }
    }
    // Whatever is left: pair arbitrarily, odd one goes to the boundary.
    while remaining.len() >= 2 {
        let a = remaining.pop().expect("len >= 2");
        let b = remaining.pop().expect("len >= 1");
        parts.push(ordered(a, b));
    }
    if let Some(a) = remaining.pop() {
        parts.push(ordered(a, boundary));
    }
    parts
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliqec_stab::{extract_dem, Basis, Circuit, Noise1, Noise2};

    fn chain_circuit(p: f64) -> Circuit {
        // Three data qubits measured through two parity checks; X errors on
        // the middle qubit light both checks -> interior edge; on the outer
        // qubits -> boundary edges.
        let mut c = Circuit::new(5);
        let (d0, d1, d2, a0, a1) = (0, 1, 2, 3, 4);
        c.reset(Basis::Z, &[d0, d1, d2, a0, a1]);
        c.noise1(Noise1::XError, p, &[d0, d1, d2]);
        c.cx(d0, a0);
        c.cx(d1, a0);
        c.cx(d1, a1);
        c.cx(d2, a1);
        let m0 = c.measure(a0, Basis::Z, 0.0);
        let m1 = c.measure(a1, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        let md = c.measure(d0, Basis::Z, 0.0);
        c.observable(0, &[md]);
        c
    }

    #[test]
    fn chain_graph_structure() {
        let g = MatchingGraph::from_dem(&extract_dem(&chain_circuit(0.01)));
        assert_eq!(g.num_detectors(), 2);
        assert_eq!(g.edges().len(), 3);
        let boundary_edges = g.edges().iter().filter(|e| e.v == g.boundary()).count();
        assert_eq!(boundary_edges, 2);
    }

    #[test]
    fn observable_mask_sits_on_d0_boundary_edge() {
        let g = MatchingGraph::from_dem(&extract_dem(&chain_circuit(0.01)));
        let e = g
            .edges()
            .iter()
            .find(|e| e.u == 0 && e.v == g.boundary())
            .expect("boundary edge for detector 0");
        assert_eq!(e.observables, 1);
    }

    #[test]
    fn weights_decrease_with_probability() {
        assert!(probability_to_weight(0.001) > probability_to_weight(0.01));
        assert!(probability_to_weight(0.01) > probability_to_weight(0.1));
    }

    #[test]
    fn weight_conversion_clamps_low_edge() {
        // p -> 0 would be an infinite weight; the floor keeps it finite and
        // saturated at the P_MIN weight.
        let floor = probability_to_weight(MatchingGraph::P_MIN);
        assert!(floor.is_finite() && floor > 0.0);
        assert_eq!(probability_to_weight(0.0).to_bits(), floor.to_bits());
        assert_eq!(probability_to_weight(1e-300).to_bits(), floor.to_bits());
        assert_eq!(probability_to_weight(-0.1).to_bits(), floor.to_bits());
    }

    #[test]
    fn weight_conversion_clamps_high_edge() {
        // Merged p past 0.5 would go negative; the ceiling caps at weight 0.
        assert_eq!(probability_to_weight(MatchingGraph::P_MAX), 0.0);
        assert_eq!(probability_to_weight(0.9), 0.0);
        assert_eq!(probability_to_weight(1.0), 0.0);
    }

    #[test]
    fn identity_reweight_is_bit_identical() {
        let g0 = MatchingGraph::from_dem(&extract_dem(&chain_circuit(0.01)));
        let mut g = g0.clone();
        assert!(g.has_provenance());
        g.reweight(&RateTable::identity()).unwrap();
        for (a, b) in g0.edges().iter().zip(g.edges()) {
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn reweight_matches_fresh_rebuild() {
        let dem = extract_dem(&chain_circuit(0.01));
        let rates = RateTable::uniform(0.05);
        let mut incremental = MatchingGraph::from_dem(&dem);
        incremental.reweight(&rates).unwrap();
        let fresh = MatchingGraph::from_dem(&dem.reweighted(&rates));
        assert_eq!(incremental.edges().len(), fresh.edges().len());
        for (a, b) in incremental.edges().iter().zip(fresh.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn reweight_at_extreme_rates_still_validates() {
        // Legally-drifted rates are clamped to [MIN_RATE, MAX_RATE]; even the
        // extremes must leave a graph that passes validation.
        for rate in [0.0, 1e-30, 0.5, 1.0, f64::INFINITY] {
            let mut g = MatchingGraph::from_dem(&extract_dem(&chain_circuit(0.01)));
            g.reweight(&RateTable::uniform(rate)).unwrap();
            g.validate().unwrap();
        }
    }

    #[test]
    fn reweight_without_provenance_is_rejected() {
        let src = MatchingGraph::from_dem(&extract_dem(&chain_circuit(0.01)));
        let mut g = MatchingGraph::from_edges(
            src.num_detectors(),
            src.num_observables(),
            src.edges().to_vec(),
        );
        assert!(!g.has_provenance());
        assert_eq!(
            g.reweight(&RateTable::identity()),
            Err(ValidationError::NoProvenance)
        );
    }

    #[test]
    fn xor_combine_is_symmetric_and_bounded() {
        let c = xor_combine(0.1, 0.2);
        assert!((c - (0.1 * 0.8 + 0.2 * 0.9)).abs() < 1e-12);
        assert_eq!(xor_combine(0.0, 0.3), 0.3);
    }

    #[test]
    fn hyperedges_are_decomposed() {
        // A depolarizing error between two ancilla-coupled qubits can flip
        // 3 detectors at once; the graph must still only contain pair edges.
        let mut c = Circuit::new(3);
        c.reset(Basis::Z, &[0, 1, 2]);
        c.noise2(Noise2::Depolarize2, 0.01, &[(0, 1)]);
        c.cx(0, 2);
        let m0 = c.measure(0, Basis::Z, 0.0);
        let m1 = c.measure(1, Basis::Z, 0.0);
        let m2 = c.measure(2, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        c.detector(&[m2]);
        let dem = extract_dem(&c);
        let g = MatchingGraph::from_dem(&dem);
        for e in g.edges() {
            assert!(e.u < g.num_nodes() && e.v < g.num_nodes());
            assert!(e.probability > 0.0 && e.probability < 1.0);
        }
    }

    #[test]
    fn validate_accepts_dem_graphs() {
        let g = MatchingGraph::from_dem(&extract_dem(&chain_circuit(0.01)));
        assert!(g.validate().is_ok());
    }

    fn edge(u: NodeId, v: NodeId, probability: f64, weight: f64) -> Edge {
        Edge {
            u,
            v,
            probability,
            weight,
            observables: 0,
        }
    }

    #[test]
    fn validate_catches_malformed_graphs() {
        use crate::error::ValidationError;

        // Endpoint past the boundary.
        let g = MatchingGraph::from_edges(2, 1, vec![edge(0, 7, 0.01, 1.0)]);
        assert!(matches!(
            g.validate(),
            Err(ValidationError::EndpointOutOfRange { node: 7, .. })
        ));

        // NaN weight.
        let g = MatchingGraph::from_edges(2, 1, vec![edge(0, 2, 0.01, f64::NAN)]);
        assert!(matches!(
            g.validate(),
            Err(ValidationError::NonFiniteWeight { .. })
        ));

        // Negative weight.
        let g = MatchingGraph::from_edges(2, 1, vec![edge(0, 2, 0.01, -3.0)]);
        assert!(matches!(
            g.validate(),
            Err(ValidationError::NegativeWeight { .. })
        ));

        // Probability outside (0, 1].
        let g = MatchingGraph::from_edges(2, 1, vec![edge(0, 2, 0.0, 1.0)]);
        assert!(matches!(
            g.validate(),
            Err(ValidationError::BadProbability { .. })
        ));

        // Node 0–1 component stranded away from the boundary (node 2).
        let g = MatchingGraph::from_edges(2, 1, vec![edge(0, 1, 0.01, 1.0)]);
        assert!(matches!(
            g.validate(),
            Err(ValidationError::Unreachable { node: 0 })
        ));

        // Edge-free detectors are fine — they can never fire.
        let g = MatchingGraph::from_edges(3, 1, vec![edge(0, 3, 0.01, 1.0)]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_edges_matches_from_dem_adjacency() {
        let g = MatchingGraph::from_dem(&extract_dem(&chain_circuit(0.01)));
        let rebuilt =
            MatchingGraph::from_edges(g.num_detectors(), g.num_observables(), g.edges().to_vec());
        assert!(rebuilt.validate().is_ok());
        for node in 0..g.num_nodes() {
            assert_eq!(g.incident(node), rebuilt.incident(node));
        }
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = MatchingGraph::from_dem(&extract_dem(&chain_circuit(0.01)));
        let mut slots = 0usize;
        for node in 0..g.num_nodes() {
            let incident = g.incident(node);
            // CSR incidence lists are ascending (matching edge sort order).
            assert!(incident.windows(2).all(|w| w[0] < w[1]));
            for &ei in incident {
                let e = &g.edges()[ei as usize];
                assert!(e.u == node || e.v == node);
                slots += 1;
            }
        }
        // Every edge occupies exactly one slot per distinct endpoint.
        let expected: usize = g
            .edges()
            .iter()
            .map(|e| if e.u == e.v { 1 } else { 2 })
            .sum();
        assert_eq!(slots, expected);
    }
}
