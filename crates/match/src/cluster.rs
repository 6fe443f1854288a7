//! Dense-regime decode tier: flood decomposition plus per-cluster
//! certification for shots too dense for the shot-level certifier.
//!
//! The shot-level predecoder ([`crate::Predecoder`]) is all-or-nothing *per
//! shot*: one uncertifiable defect declines the whole syndrome, so at
//! d = 15 / p = 1e-3 — where every shot carries ~35 defects from ~17
//! independent error mechanisms — it never fires and the full decoder pays
//! for every mechanism of every shot. [`ClusterTier`] moves the
//! certification boundary from the shot to the *cluster*: the defect set is
//! flood-decomposed into connected components of the truncated near-table
//! adjacency (two defects join iff their exact boundary-avoiding distance
//! is at most the table radius), each component is certified independently
//! with the predecoder's own three-pass margin check, certified components
//! are peeled locally (their masks are potential gradients, XORed into the
//! shot mask), and only the union of uncertified clusters is handed — in a
//! single call — to the full decoder.
//!
//! # Separation argument
//!
//! Why may a certified cluster be peeled while other defects remain? The
//! predecoder's cross-margin check (pass 3) certifies a defect pair in
//! different units when their distance exceeds the sum of unit weights —
//! and treats *absence from the truncated near table* as proof of distance
//! greater than the table radius. Flood decomposition makes that proof
//! structural: defects in different flood clusters are, by construction,
//! farther apart than the radius. The tier additionally caps every
//! certified unit weight at `(radius − EPS) / 2`, so for any two defects
//! `x`, `y` in different *certified* clusters,
//! `d(x, y) > radius ≥ W_x + W_y + EPS` — exactly the inequality pass 3
//! needs. Certified clusters therefore satisfy, jointly, every condition of
//! the predecoder's exactness theorem (unit margins, flatness, cross
//! margins), and on a shot where **all** clusters certify the XOR of
//! per-cluster gradients is provably the mask both
//! [`crate::UnionFindDecoder`] and [`crate::MwpmDecoder`] return for the
//! whole defect set.
//!
//! # Widened tables
//!
//! The tier does *not* share the predecoder's tables: it builds its own
//! with [`Tables::build_wide`](crate::predecode), whose radius is sized off
//! the heaviest internal edge (`2 × min(max_ball_edge, 4 × median)`, with
//! the median as a floor) instead of twice the median. On graphs with a
//! realistic weight spread this lifts the unit cap `(radius − EPS) / 2`
//! above *every* single-edge pair weight — the dominant cluster population
//! at `d = 15`, `p = 1e-3`, where the predecoder-radius cap of
//! `≈ 1.01 × median` rejects precisely the pairs whose edge weight sits
//! above the median. The wider balls also let pass 3 resolve intra-cluster
//! cross margins by actual distance lookups (the threshold fits under the
//! radius) instead of declining through the truncation guard, so two
//! merged mechanisms certify whenever their gap clears the summed unit
//! weights. The cost — a coarser flood and a bigger one-off Dijkstra — is
//! charged once per table build (a [`crate::Tiered`] adapter builds one
//! prototype and its workers clone it), not per shot.
//!
//! When some cluster does *not* certify, no margin bounds its growth (a
//! deep bulk single can grow a union-find region of radius `bnd ≫ radius`
//! before draining), so peeling next to it is no longer provably identical
//! to the monolithic decode: the tier is then a documented decoder
//! *variant* that peels certified clusters and decodes the residual union
//! in one full-decoder call. DESIGN.md §12
//! spells out the honest accounting; the engine records separate golden
//! fingerprints for cluster-tier on/off, and the cross-validation proptests
//! pin the provable pieces (per-cluster masks against both full decoders on
//! the cluster's own defect list, and whole-shot equality whenever every
//! cluster certifies).
//!
//! # Scratch discipline
//!
//! Like the predecoder and the union-find decoder, all per-shot scratch
//! (node→defect slots, per-cluster defect flags) is restored via the defect
//! list itself after every call: a [`ClusterTier`] is reusable with zero
//! steady-state allocation, and clones share the widened certification
//! tables via `Arc` (one wide table build serves every clone).

use crate::graph::{MatchingGraph, NodeId};
use crate::predecode::{Predecoder, Tables, EPS, MAX_CERT_DEFECTS};
use std::sync::Arc;

/// Clusters larger than this skip certification outright (the O(k²)
/// intra-cluster cross-margin check would dwarf the decode it replaces, and
/// big clusters essentially never certify); they go straight to the full
/// decoder. Deliberately the predecoder's shot cap: a cluster that fits
/// under it also fits the exact-matching DP bound.
pub const MAX_CLUSTER_DEFECTS: usize = MAX_CERT_DEFECTS;

/// Number of buckets in the per-shot cluster-size histogram the engine
/// aggregates: sizes 1..=15 exactly, 16+ in the last bucket.
pub const CLUSTER_HIST_BUCKETS: usize = 16;

/// Histogram bucket for a flood cluster of `size` defects.
#[inline]
pub fn cluster_hist_bucket(size: usize) -> usize {
    size.clamp(1, CLUSTER_HIST_BUCKETS) - 1
}

/// Per-shot summary returned by [`ClusterTier::decompose`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterOutcome {
    /// XOR of the certified clusters' observable masks (potential
    /// gradients). The shot's full mask is this XORed with one full-decoder
    /// call on [`ClusterTier::residual_defects`].
    pub mask: u64,
    /// Flood clusters the defect set decomposed into.
    pub clusters: u32,
    /// Clusters that certified and were peeled locally.
    pub peeled_clusters: u32,
    /// Defects belonging to peeled clusters.
    pub peeled_defects: u32,
    /// Defects left for the full decoder (in [`ClusterTier::residual_clusters`]).
    pub residual_defects: u32,
}

impl ClusterOutcome {
    /// True when every cluster certified: the shot is fully resolved and
    /// [`ClusterOutcome::mask`] is provably the monolithic decoders' mask.
    #[inline]
    pub fn fully_peeled(&self) -> bool {
        self.residual_defects == 0
    }
}

/// The dense-regime cluster tier. See the module docs for the decomposition
/// and the separation argument; see [`crate::Tiered::with_cluster_gate`] for the
/// engine opt-in.
#[derive(Clone, Debug)]
pub struct ClusterTier {
    tables: Arc<Tables>,
    /// node → index into the current defect list (`u32::MAX` = clean);
    /// restored via the defect list after every call.
    slot: Vec<u32>,
    /// Per-cluster defect flags for certification; restored after each
    /// cluster's certify pass.
    is_defect: Vec<bool>,
    /// Union-find parents over defect indices (rebuilt per shot).
    parent: Vec<u32>,
    /// Defect indices grouped by cluster, clusters in order of smallest
    /// member index, members ascending.
    members: Vec<u32>,
    /// CSR offsets into `members`, one entry per cluster plus a tail.
    cluster_off: Vec<u32>,
    /// Per-cluster fill cursor into `members` while grouping.
    cursor: Vec<u32>,
    /// Sizes of all flood clusters of the current shot, cluster order.
    sizes: Vec<u32>,
    /// Defect node ids of uncertified clusters, concatenated cluster-major.
    residual: Vec<NodeId>,
    /// End offsets into `residual`, one per uncertified cluster.
    residual_ends: Vec<u32>,
    /// Defect index → belongs to an uncertified cluster (current shot).
    res_flag: Vec<bool>,
    /// Sorted-ascending union of all residual defects, ready for a single
    /// full-decoder call.
    residual_union: Vec<NodeId>,
}

impl ClusterTier {
    /// Builds a cluster tier with its own *widened* certification tables
    /// (see the module docs — the radius is sized off the heaviest internal
    /// edge, not the median). Clones share the tables via `Arc`; per-worker
    /// instances should clone a prototype rather than rebuild.
    pub fn new(graph: &MatchingGraph) -> ClusterTier {
        Self::from_tables(Arc::new(Tables::build_wide(graph)))
    }

    /// Builds a cluster tier for the same graph `pre` was built against.
    /// The tier needs wider tables than the predecoder's, so this runs its
    /// own truncated-Dijkstra build — a convenience, not a cheap share.
    pub fn from_predecoder(pre: &Predecoder) -> ClusterTier {
        Self::new(&pre.tables().graph)
    }

    fn from_tables(tables: Arc<Tables>) -> ClusterTier {
        let n = tables.graph.num_nodes();
        ClusterTier {
            tables,
            slot: vec![u32::MAX; n],
            is_defect: vec![false; n],
            parent: Vec::new(),
            members: Vec::new(),
            cluster_off: Vec::new(),
            cursor: Vec::new(),
            sizes: Vec::new(),
            residual: Vec::new(),
            residual_ends: Vec::new(),
            res_flag: Vec::new(),
            residual_union: Vec::new(),
        }
    }

    /// Flood-decomposes `defects` into independent clusters, certifies and
    /// peels each certifiable cluster, and stages the rest for the full
    /// decoder (retrieve the union with [`ClusterTier::residual_defects`],
    /// or cluster by cluster with [`ClusterTier::residual_clusters`] —
    /// both remain valid until the next `decompose` call).
    ///
    /// `defects` must be sorted ascending and duplicate-free, as produced
    /// by [`caliqec_stab::SparseBatch::defects`].
    pub fn decompose(&mut self, defects: &[NodeId]) -> ClusterOutcome {
        debug_assert!(defects.windows(2).all(|w| w[0] < w[1]));
        self.members.clear();
        self.cluster_off.clear();
        self.sizes.clear();
        self.residual.clear();
        self.residual_ends.clear();
        self.residual_union.clear();
        let k = defects.len();
        if k == 0 {
            return ClusterOutcome::default();
        }

        // --- Flood decomposition: defect i and j join iff one lies in the
        // other's truncated ball (distance ≤ radius). Ball membership is
        // symmetric and ball lists ascend, so scanning only the tail of
        // each ball (nodes above the defect itself) finds every edge once;
        // the node→slot array the scan probes is a few kilobytes and stays
        // cache-resident across the whole dense chunk.
        self.parent.clear();
        self.parent.extend(0..k as u32);
        for (i, &u) in defects.iter().enumerate() {
            self.slot[u] = i as u32;
        }
        let tables = Arc::clone(&self.tables);
        for (i, &u) in defects.iter().enumerate() {
            let ball = tables.ball(u);
            let tail = ball.partition_point(|&v| (v as usize) <= u);
            for &v in &ball[tail..] {
                let j = self.slot[v as usize];
                if j != u32::MAX {
                    self.union(i as u32, j);
                }
            }
        }
        for &u in defects {
            self.slot[u] = u32::MAX;
        }

        // --- Group members by root, clusters ordered by smallest member
        // index (roots are minimal members thanks to union-by-min), members
        // ascending. Two counting passes over the parent array.
        let mut outcome = ClusterOutcome::default();
        for i in 0..k as u32 {
            if self.find(i) == i {
                // Root seen in ascending order: assign the next cluster id
                // by reusing `sizes` as a root → cluster map via push order.
                self.cluster_off.push(0);
                self.sizes.push(i); // temporarily: cluster id → root index
            }
        }
        let clusters = self.sizes.len();
        // Count members per cluster into cluster_off (roots ascend, and
        // sizes[] currently maps cluster id → root, so binary search works).
        for i in 0..k as u32 {
            let root = self.find(i);
            let c = self.sizes.binary_search(&root).expect("root is recorded");
            self.cluster_off[c] += 1;
        }
        // Prefix-sum into CSR offsets, then fill members in ascending index
        // order (stable within each cluster).
        let mut acc = 0u32;
        for off in self.cluster_off.iter_mut() {
            let count = *off;
            *off = acc;
            acc += count;
        }
        self.cluster_off.push(acc);
        self.members.resize(k, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.cluster_off[..clusters]);
        for i in 0..k as u32 {
            let root = self.find(i);
            let c = self.sizes.binary_search(&root).expect("root is recorded");
            self.members[self.cursor[c] as usize] = i;
            self.cursor[c] += 1;
        }
        // Replace the temporary root map with the real cluster sizes.
        for c in 0..clusters {
            self.sizes[c] = self.cluster_off[c + 1] - self.cluster_off[c];
        }

        // --- Certify-and-peel, cluster by cluster.
        outcome.clusters = clusters as u32;
        self.res_flag.clear();
        self.res_flag.resize(k, false);
        let mut scratch = [0usize; MAX_CLUSTER_DEFECTS];
        for c in 0..clusters {
            let lo = self.cluster_off[c] as usize;
            let hi = self.cluster_off[c + 1] as usize;
            let size = hi - lo;
            let certified = if size <= MAX_CLUSTER_DEFECTS {
                for (s, &m) in scratch.iter_mut().zip(&self.members[lo..hi]) {
                    *s = defects[m as usize];
                }
                let cluster = &scratch[..size];
                for &u in cluster {
                    self.is_defect[u] = true;
                }
                let mask = certify_cluster(&self.tables, &self.is_defect, cluster);
                for &u in cluster {
                    self.is_defect[u] = false;
                }
                mask
            } else {
                None
            };
            match certified {
                Some(mask) => {
                    outcome.mask ^= mask;
                    outcome.peeled_clusters += 1;
                    outcome.peeled_defects += size as u32;
                }
                None => {
                    for &m in &self.members[lo..hi] {
                        self.residual.push(defects[m as usize]);
                        self.res_flag[m as usize] = true;
                    }
                    self.residual_ends.push(self.residual.len() as u32);
                    outcome.residual_defects += size as u32;
                }
            }
        }
        // Sorted union of the residual clusters for the engine's single
        // full-decoder call (defect order = ascending node id, the same
        // order `SparseBatch::defects` produces).
        for (i, &u) in defects.iter().enumerate() {
            if self.res_flag[i] {
                self.residual_union.push(u);
            }
        }
        outcome
    }

    /// Sorted-ascending union of every uncertified cluster's defects from
    /// the last [`ClusterTier::decompose`] call — what the engine feeds to
    /// the full decoder in a single call. Decoding the union in one call
    /// (rather than cluster by cluster) amortises the decoder's per-call
    /// growth-iteration overhead and is byte-for-byte the monolithic decode
    /// of the residual defect set.
    pub fn residual_defects(&self) -> &[NodeId] {
        &self.residual_union
    }

    /// The uncertified clusters of the last [`ClusterTier::decompose`]
    /// call, each a sorted-ascending defect list. Exposed for diagnostics,
    /// cross-validation tests, and the decomposition benches; the engine
    /// decodes [`ClusterTier::residual_defects`] in one call instead.
    /// Cluster order matches the flood order (smallest member first).
    pub fn residual_clusters(&self) -> impl Iterator<Item = &[NodeId]> {
        let mut start = 0usize;
        self.residual_ends.iter().map(move |&end| {
            let slice = &self.residual[start..end as usize];
            start = end as usize;
            slice
        })
    }

    /// Sizes of *all* flood clusters (peeled and residual) of the last
    /// [`ClusterTier::decompose`] call, in cluster order. Feed through
    /// [`cluster_hist_bucket`] for the engine's cluster-size histogram.
    pub fn cluster_sizes(&self) -> &[u32] {
        &self.sizes
    }

    fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let gp = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = gp;
            i = gp;
        }
        i
    }

    /// Union by minimum root index: keeps roots deterministic and makes
    /// every root the smallest member of its cluster.
    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Per-cluster certification: the predecoder's three-pass margin check
/// restricted to one flood cluster, with the inter-cluster unit-weight cap
/// from the module docs. `is_defect` must mark exactly the members of
/// `cluster` (sorted ascending, `len ≤ MAX_CLUSTER_DEFECTS`).
///
/// Returns the cluster's certified observable mask, or `None` when any
/// margin fails — never a wrong mask.
fn certify_cluster(t: &Tables, is_defect: &[bool], cluster: &[NodeId]) -> Option<u64> {
    let g = &t.graph;
    let boundary = g.boundary();
    let k = cluster.len();
    // Inter-cluster cross margins are discharged by flood separation
    // (distance > radius) only while both unit weights fit under half the
    // radius; heavier units must decline. With the widened tables this cap
    // clears every internal edge weight (see the module docs).
    let w_cap = (t.radius - EPS) / 2.0;
    let mut mask = 0u64;
    let mut unit_w = [0.0f64; MAX_CLUSTER_DEFECTS];
    let mut partner = [usize::MAX; MAX_CLUSTER_DEFECTS];

    // Pass 1: unique defect neighbour via the CSR adjacency. Only members
    // of this cluster are marked, so a (necessarily heavier-than-radius)
    // direct edge into another cluster does not propose a pairing — its
    // members are margin-checked as singles/pairs of their own clusters.
    for (i, &u) in cluster.iter().enumerate() {
        let mut nbr = usize::MAX;
        for &ei in g.incident(u) {
            let v = g.other_endpoint(ei as usize, u);
            if v == u || v == boundary || !is_defect[v] {
                continue;
            }
            if nbr != usize::MAX && nbr != v {
                return None; // two distinct defect neighbours
            }
            nbr = v;
        }
        if nbr != usize::MAX {
            let j = cluster
                .binary_search(&nbr)
                .expect("neighbour is in cluster");
            partner[i] = j;
        }
    }

    // Pass 2: per-unit weights, margins, and masks (see
    // `Predecoder::certify` for the per-branch reasoning; the additions
    // are the `w_cap` clamp on every accepted unit weight and the
    // two-gauge flatness check — a unit flat under either potential
    // contributes that gauge's gradient, see `Tables::single_mask` /
    // `Tables::pair_mask`).
    for (i, &u) in cluster.iter().enumerate() {
        let j = partner[i];
        if j == usize::MAX {
            let w = t.bnd[u];
            if !w.is_finite() || w <= EPS || w > w_cap {
                return None;
            }
            mask ^= t.single_mask(u, w)?;
            unit_w[i] = w;
        } else {
            debug_assert_eq!(partner[j], i, "adjacency pairing is mutual");
            if i < j {
                let v = cluster[j];
                let w = t.near(u, v)?;
                if !w.is_finite() || w <= EPS || w > w_cap {
                    return None;
                }
                let bsum = t.bnd[u] + t.bnd[v];
                if w + EPS < bsum {
                    mask ^= t.pair_mask(u, v, w)?;
                    unit_w[i] = w;
                    unit_w[j] = w;
                } else if bsum + EPS < w {
                    // Demoted singles: each member is a unit of its own and
                    // may certify under its own gauge.
                    for (x, xi) in [(u, i), (v, j)] {
                        let wx = t.bnd[x];
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

    // Pass 3: intra-cluster cross margins. Cross-*cluster* pairs need no
    // lookup: flood separation proves distance > radius ≥ W_x + W_y + EPS
    // (every accepted weight is ≤ (radius − EPS) / 2).
    for i in 0..k {
        for j in (i + 1)..k {
            if partner[i] == j {
                continue; // same unit
            }
            let threshold = unit_w[i] + unit_w[j] + EPS;
            if threshold > t.radius {
                return None; // truncated ball cannot certify the gap
            }
            match t.near(cluster[i], cluster[j]) {
                Some(d) if d <= threshold => {
                    return None;
                }
                _ => {}
            }
        }
    }
    Some(mask)
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

    fn memory_setup(d: usize, p: f64) -> (caliqec_stab::Circuit, MatchingGraph) {
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p),
            d,
            MemoryBasis::Z,
        );
        let graph = graph_for_circuit(&mem.circuit);
        (mem.circuit, graph)
    }

    #[test]
    fn empty_shot_decomposes_to_nothing() {
        let (_, g) = memory_setup(3, 1e-3);
        let mut tier = ClusterTier::new(&g);
        let out = tier.decompose(&[]);
        assert_eq!(out, ClusterOutcome::default());
        assert!(out.fully_peeled());
        assert_eq!(tier.residual_clusters().count(), 0);
        assert!(tier.cluster_sizes().is_empty());
    }

    #[test]
    fn clones_share_the_widened_tables() {
        let (_, g) = memory_setup(3, 1e-3);
        let pre = Predecoder::new(&g);
        let tier = ClusterTier::from_predecoder(&pre);
        // The tier's tables are widened, not the predecoder's...
        assert!(tier.tables.radius >= pre.tables().radius);
        // ...but clones share them, so per-worker instances are cheap.
        let clone = tier.clone();
        assert!(Arc::ptr_eq(&tier.tables, &clone.tables));
    }

    #[test]
    fn tiered_stacks_share_one_cluster_table_build() {
        use crate::engine::DecoderFactory;
        use crate::predecode::{ClusterGate, Tiered};
        let (_, g) = memory_setup(3, 1e-3);
        let tiered =
            Tiered::new(&g, || UnionFindDecoder::new(g.clone())).with_cluster_gate(ClusterGate::On);
        let a = tiered.stack().cluster.expect("gate on arms the tier");
        let b = tiered.stack().cluster.expect("gate on arms the tier");
        assert!(Arc::ptr_eq(&a.tables, &b.tables));
        let off = Tiered::new(&g, || UnionFindDecoder::new(g.clone()));
        assert!(off.stack().cluster.is_none());
    }

    #[test]
    fn scratch_is_restored_between_calls() {
        let (circuit, g) = memory_setup(5, 1e-2);
        let mut tier = ClusterTier::new(&g);
        let mut sampler = FrameSampler::new(&circuit);
        let mut rng = StdRng::seed_from_u64(5);
        let mut sparse = SparseBatch::new();
        let ev = sampler.sample_batch(&mut rng);
        sparse.extract(&ev);
        for s in 0..BATCH {
            let defects = sparse.defects(s);
            let a = tier.decompose(defects);
            assert!(tier.slot.iter().all(|&x| x == u32::MAX), "slot scratch");
            assert!(tier.is_defect.iter().all(|&b| !b), "flag scratch");
            let b = tier.decompose(defects);
            assert_eq!(a, b, "decompose must be deterministic and reusable");
        }
    }

    #[test]
    fn decomposition_partitions_the_defect_list() {
        let (circuit, g) = memory_setup(7, 3e-3);
        let mut tier = ClusterTier::new(&g);
        let mut sampler = FrameSampler::new(&circuit);
        let mut rng = StdRng::seed_from_u64(11);
        let mut sparse = SparseBatch::new();
        for _ in 0..4 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects = sparse.defects(s);
                let out = tier.decompose(defects);
                let sizes: u64 = tier.cluster_sizes().iter().map(|&s| s as u64).sum();
                assert_eq!(sizes, defects.len() as u64, "cluster sizes partition");
                assert_eq!(
                    out.peeled_defects + out.residual_defects,
                    defects.len() as u32,
                    "peeled + residual partition"
                );
                assert_eq!(
                    tier.residual_clusters()
                        .map(|c| c.len() as u32)
                        .sum::<u32>(),
                    out.residual_defects
                );
                for c in tier.residual_clusters() {
                    assert!(c.windows(2).all(|w| w[0] < w[1]), "residual sorted");
                }
                let union = tier.residual_defects();
                assert_eq!(union.len() as u32, out.residual_defects);
                assert!(union.windows(2).all(|w| w[0] < w[1]), "union sorted");
                let mut rebuilt: Vec<usize> = tier.residual_clusters().flatten().copied().collect();
                rebuilt.sort_unstable();
                assert_eq!(rebuilt, union, "union is the sorted cluster concat");
                assert_eq!(
                    out.clusters,
                    out.peeled_clusters + tier.residual_clusters().count() as u32
                );
            }
        }
    }

    #[test]
    fn fully_peeled_shots_match_both_full_decoders() {
        // Whenever every flood cluster certifies, the XOR of per-cluster
        // gradients must equal what union-find and exact matching (within
        // its defect bound) return for the whole defect list — the
        // separation theorem on real syndromes. A healthy fraction of shots
        // must exercise the path.
        let (circuit, g) = memory_setup(7, 3e-3);
        let mut tier = ClusterTier::new(&g);
        let mut uf = UnionFindDecoder::new(g.clone());
        let mut mwpm = MwpmDecoder::new(g.clone());
        let mut sampler = FrameSampler::new(&circuit);
        let mut rng = StdRng::seed_from_u64(23);
        let mut sparse = SparseBatch::new();
        let mut peeled_shots = 0u64;
        let mut peeled_clusters = 0u64;
        let mut mwpm_compared = 0u64;
        for _ in 0..24 {
            let ev = sampler.sample_batch(&mut rng);
            sparse.extract(&ev);
            for s in 0..BATCH {
                let defects = sparse.defects(s);
                if defects.is_empty() {
                    continue;
                }
                let out = tier.decompose(defects);
                peeled_clusters += out.peeled_clusters as u64;
                if out.fully_peeled() {
                    peeled_shots += 1;
                    assert_eq!(out.mask, uf.decode(defects), "UF {defects:?}");
                    if defects.len() <= MwpmDecoder::MAX_DEFECTS {
                        mwpm_compared += 1;
                        assert_eq!(out.mask, mwpm.decode(defects), "MWPM {defects:?}");
                    }
                }
            }
        }
        assert!(peeled_shots > 20, "only {peeled_shots} shots fully peeled");
        assert!(mwpm_compared > 20, "only {mwpm_compared} MWPM comparisons");
        assert!(
            peeled_clusters > peeled_shots,
            "multi-cluster peels expected"
        );
    }

    #[test]
    fn dense_shot_from_separated_mechanisms_fully_peels() {
        // Hand-build a dense syndrome as a union of single-edge error
        // mechanisms whose clusters are pairwise separated: the tier must
        // peel all of it and agree with both monolithic decoders. The
        // union-find check takes up to 12 mechanisms (24 defects); the
        // exact-matching check takes the first 8 of them, the most that fit
        // within its defect bound.
        let (_, g) = memory_setup(15, 1e-3);
        let mut tier = ClusterTier::new(&g);
        let mut uf = UnionFindDecoder::new(g.clone());
        let mut mwpm = MwpmDecoder::new(g.clone());
        let boundary = g.boundary();
        let mut rng = StdRng::seed_from_u64(99);
        use rand::RngExt;
        let mut mwpm_peeled = 0;
        for _ in 0..40 {
            // Sample internal edges and accept those whose endpoints stay
            // clear of every previously selected defect's ball.
            let mut defects: Vec<usize> = Vec::new();
            let mut guard = vec![false; g.num_nodes()];
            let mut attempts = 0;
            while defects.len() < 24 && attempts < 4000 {
                attempts += 1;
                let ei = rng.random_range(0..g.edges().len());
                let e = &g.edges()[ei];
                if e.u == boundary || e.v == boundary || e.u == e.v {
                    continue;
                }
                if guard[e.u] || guard[e.v] || defects.contains(&e.u) || defects.contains(&e.v) {
                    continue;
                }
                defects.push(e.u);
                defects.push(e.v);
                for u in [e.u, e.v] {
                    guard[u] = true;
                    for &v in tier.tables.ball(u) {
                        guard[v as usize] = true;
                        // Pad by one more ball so distinct mechanisms stay
                        // in distinct flood clusters.
                        for &w in tier.tables.ball(v as usize) {
                            guard[w as usize] = true;
                        }
                    }
                }
            }
            let mut few = defects[..defects.len().min(MwpmDecoder::MAX_DEFECTS)].to_vec();
            few.sort_unstable();
            defects.sort_unstable();
            if defects.len() <= Predecoder::MAX_CERT_DEFECTS {
                continue; // not dense enough to be interesting
            }
            let out = tier.decompose(&defects);
            let mut mask = out.mask;
            for c in tier.residual_clusters() {
                mask ^= uf.decode(c);
            }
            assert_eq!(mask, uf.decode(&defects), "UF {defects:?}");
            let out = tier.decompose(&few);
            if out.fully_peeled() {
                mwpm_peeled += 1;
                assert_eq!(out.mask, mwpm.decode(&few), "MWPM {few:?}");
            }
        }
        assert!(
            mwpm_peeled > 20,
            "only {mwpm_peeled} MWPM-sized shots fully peeled"
        );
    }
}
