//! Dense-regime decode tier: flood decomposition plus per-cluster
//! certification for shots too dense for the shot-level certifier.
//!
//! The shot-level predecoder ([`crate::Predecoder`]) is all-or-nothing *per
//! shot*: one uncertifiable defect declines the whole syndrome, so at
//! d = 15 / p = 1e-3 — where the mean shot carries ~59 defects — it never
//! fires and the full decoder pays for every mechanism of every shot.
//! [`ClusterTier`] moves the certification boundary from the shot to the
//! *cluster*: the defect set is flood-decomposed into connected components
//! of the truncated-ball adjacency (defects `u < v` join iff `v` lies in
//! `u`'s ball, i.e. their exact boundary-avoiding distance by `u`'s own
//! Dijkstra is at most the table radius), each component is certified
//! independently with the predecoder's own three-pass margin check,
//! certified components are peeled locally (their masks are potential
//! gradients, XORed into the shot mask), and only the union of uncertified
//! clusters is handed — in a single call — to the full decoder.
//!
//! # Separation argument
//!
//! Why may a certified cluster be peeled while other defects remain? The
//! predecoder's cross-margin check (pass 3) certifies a defect pair in
//! different units when their distance exceeds the sum of unit weights —
//! and treats *absence from the lower endpoint's truncated ball* as proof
//! of distance greater than the table radius. Flood decomposition makes
//! that proof structural: defects in different flood clusters are, by
//! construction, farther apart than the radius. The tier additionally caps
//! every certified unit weight at `(radius − EPS) / 2`, so for any two
//! defects `x`, `y` in different *certified* clusters,
//! `d(x, y) > radius ≥ W_x + W_y + EPS` — exactly the inequality pass 3
//! needs. Certified clusters therefore satisfy, jointly, every condition of
//! the predecoder's exactness theorem (unit margins, flatness, cross
//! margins), and on a shot where **all** clusters certify the XOR of
//! per-cluster gradients is provably the mask both
//! [`crate::UnionFindDecoder`] and [`crate::MwpmDecoder`] return for the
//! whole defect set.
//!
//! # Tables
//!
//! Each graph has one set of certification tables (`Tables` in
//! `predecode`), built by [`ClusterTier::new`] and shared by `Arc` across
//! clones. [`crate::Predecoder`] is a whole-shot query on a tier over them,
//! so [`ClusterTier::from_predecoder`] is a share, not a second build. The
//! radius is sized off the heaviest internal edge
//! (`2 × min(max_ball_edge, 4 × median)`, with the median as a floor)
//! instead of twice the median. On graphs with a realistic weight spread
//! this lifts the unit cap `(radius − EPS) / 2` above *every* single-edge
//! pair weight — the dominant cluster population at `d = 15`, `p = 1e-3`,
//! where a `2 × median` radius would cap units at `≈ 1.01 × median` and
//! reject precisely the pairs whose edge weight sits above the median. The
//! wider balls also let pass 3 resolve intra-cluster cross margins by
//! actual distance lookups (the threshold fits under the radius) instead of
//! declining through the truncation guard, so two merged mechanisms certify
//! whenever their gap clears the summed unit weights. The cost — a coarser
//! flood and a bigger one-off Dijkstra — is charged once per table build (a
//! [`crate::Tiered`] adapter builds one prototype and its workers clone
//! it), not per shot. The tables carry two gauges, and a unit certifies
//! when it is flat under either.
//!
//! The tables are laid out for what `decompose` reads (see `Tables`): one
//! packed record per node, only the upper half (`v > u`) of each ball, and
//! per-node internal-neighbour lists that carry each adjacent pair's ball
//! distance. Every lookup has its lower endpoint first because defect and
//! cluster lists ascend, so the flood scans one upper-half ball per defect
//! with no search for where the tail starts, certification's pass 1 never
//! reads a graph edge, and its pass 2 needs no ball lookup for adjacent
//! pairs. At d = 15 the tables take about 1.6 MB; the full balls they
//! replaced took 2.1 MB on their own.
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
//! Like the union-find decoder, all per-shot scratch lives in the tier and
//! is reused: the node→slot array is restored via the defect list after
//! the flood and via each certified list's members after its
//! certification, and the defect- and cluster-indexed arrays are cleared
//! and refilled per shot. A [`ClusterTier`] is reusable with zero
//! steady-state allocation, and clones share the certification tables via
//! `Arc` (one table build serves every clone).

use crate::graph::{MatchingGraph, NodeId};
use crate::predecode::{certify, Predecoder, Tables, EPS, MAX_CERT_DEFECTS};
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
    /// node → index into the list being worked on (`u32::MAX` = clean): the
    /// shot's defect list during the flood, one cluster's member list
    /// during its certification. Restored after each use.
    slot: Vec<u32>,
    /// Union-find parents over defect indices (rebuilt per shot).
    parent: Vec<u32>,
    /// Defect index → flood cluster id (current shot).
    cluster_of: Vec<u32>,
    /// Defect node ids grouped by cluster, clusters in order of smallest
    /// member, members ascending.
    members: Vec<NodeId>,
    /// CSR offsets into `members`, one entry per cluster plus a tail.
    cluster_off: Vec<u32>,
    /// Sizes of all flood clusters of the current shot, cluster order.
    sizes: Vec<u32>,
    /// Per cluster: certified and peeled (current shot).
    peeled: Vec<bool>,
    /// Sorted-ascending union of all residual defects, ready for a single
    /// full-decoder call.
    residual_union: Vec<NodeId>,
}

impl ClusterTier {
    /// Builds the certification tables for `graph` (a truncated Dijkstra
    /// per node; see the module docs for the radius) and a tier over them.
    /// Clones share the tables via `Arc`; per-worker instances should clone
    /// a prototype rather than rebuild.
    pub fn new(graph: &MatchingGraph) -> ClusterTier {
        ClusterTier {
            tables: Arc::new(Tables::new(graph)),
            slot: vec![u32::MAX; graph.num_nodes()],
            parent: Vec::new(),
            cluster_of: Vec::new(),
            members: Vec::new(),
            cluster_off: Vec::new(),
            sizes: Vec::new(),
            peeled: Vec::new(),
            residual_union: Vec::new(),
        }
    }

    /// The tier `pre` queries: a clone that shares its tables via `Arc`,
    /// not a second build.
    pub fn from_predecoder(pre: &Predecoder) -> ClusterTier {
        pre.0.clone()
    }

    /// Certifies a whole shot with no unit-weight cap: the query behind
    /// [`Predecoder::predecode`], which applies the defect cap first.
    pub(crate) fn certify_shot(&mut self, defects: &[NodeId]) -> Option<u64> {
        certify_list(&self.tables, &mut self.slot, defects, f64::INFINITY)
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
        let ClusterTier {
            tables,
            slot,
            parent,
            cluster_of,
            members,
            cluster_off,
            sizes,
            peeled,
            residual_union,
        } = self;
        let t: &Tables = tables;
        members.clear();
        cluster_off.clear();
        sizes.clear();
        peeled.clear();
        residual_union.clear();
        let k = defects.len();
        if k == 0 {
            return ClusterOutcome::default();
        }

        // --- Flood decomposition: defects u < v join iff v lies in u's
        // truncated ball (distance ≤ radius by u's own Dijkstra). The
        // tables keep only each ball's upper half, so every scan finds each
        // joining pair exactly once; the node→slot array it probes is a few
        // kilobytes and stays cache-resident across the whole dense chunk.
        parent.clear();
        parent.extend(0..k as u32);
        for (i, &u) in defects.iter().enumerate() {
            slot[u] = i as u32;
        }
        for (i, &u) in defects.iter().enumerate() {
            for &v in t.up_ball(u) {
                let j = slot[v as usize];
                if j != u32::MAX {
                    union(parent, i as u32, j);
                }
            }
        }
        for &u in defects {
            slot[u] = u32::MAX;
        }

        // --- Group members by root in one pass. Union by minimum makes
        // every root its cluster's smallest member, and roots precede their
        // members, so numbering roots as they appear orders clusters by
        // smallest member; filling in defect order keeps members ascending.
        cluster_of.clear();
        for i in 0..k as u32 {
            let root = find(parent, i);
            let c = if root == i {
                sizes.push(0);
                sizes.len() as u32 - 1
            } else {
                cluster_of[root as usize]
            };
            cluster_of.push(c);
            sizes[c as usize] += 1;
        }
        let clusters = sizes.len();
        // `cluster_off[c + 1]` starts as cluster c's first member slot and
        // serves as its fill cursor, ending as its end offset.
        cluster_off.push(0);
        let mut acc = 0u32;
        for &size in sizes.iter() {
            cluster_off.push(acc);
            acc += size;
        }
        members.resize(k, 0);
        for (&u, &c) in defects.iter().zip(cluster_of.iter()) {
            let cursor = &mut cluster_off[c as usize + 1];
            members[*cursor as usize] = u;
            *cursor += 1;
        }

        // --- Certify-and-peel, cluster by cluster. Inter-cluster cross
        // margins are discharged by flood separation (distance > radius)
        // only while both unit weights fit under half the radius; heavier
        // units must decline. With the tables' radius this cap clears
        // every internal edge weight (see the module docs).
        let w_cap = (t.radius - EPS) / 2.0;
        let mut outcome = ClusterOutcome {
            clusters: clusters as u32,
            ..ClusterOutcome::default()
        };
        for c in 0..clusters {
            let cluster = &members[cluster_off[c] as usize..cluster_off[c + 1] as usize];
            let certified = if cluster.len() <= MAX_CLUSTER_DEFECTS {
                certify_list(t, slot, cluster, w_cap)
            } else {
                None
            };
            peeled.push(certified.is_some());
            match certified {
                Some(mask) => {
                    outcome.mask ^= mask;
                    outcome.peeled_clusters += 1;
                    outcome.peeled_defects += cluster.len() as u32;
                }
                None => outcome.residual_defects += cluster.len() as u32,
            }
        }
        // Sorted union of the residual clusters for the engine's single
        // full-decoder call (defect order = ascending node id, the same
        // order `SparseBatch::defects` produces).
        residual_union.extend(
            defects
                .iter()
                .zip(cluster_of.iter())
                .filter(|&(_, &c)| !peeled[c as usize])
                .map(|(&u, _)| u),
        );
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
        self.cluster_off
            .windows(2)
            .zip(&self.peeled)
            .filter(|&(_, &peeled)| !peeled)
            .map(|(off, _)| &self.members[off[0] as usize..off[1] as usize])
    }

    /// Sizes of *all* flood clusters (peeled and residual) of the last
    /// [`ClusterTier::decompose`] call, in cluster order. Feed through
    /// [`cluster_hist_bucket`] for the engine's cluster-size histogram.
    pub fn cluster_sizes(&self) -> &[u32] {
        &self.sizes
    }
}

/// [`certify`] on `list` (sorted ascending, at most [`MAX_CERT_DEFECTS`]
/// defects) with `slot` filled for its members, restored afterwards.
fn certify_list(t: &Tables, slot: &mut [u32], list: &[NodeId], w_cap: f64) -> Option<u64> {
    for (i, &u) in list.iter().enumerate() {
        slot[u] = i as u32;
    }
    let mask = certify(t, slot, list, w_cap);
    for &u in list {
        slot[u] = u32::MAX;
    }
    mask
}

fn find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        let gp = parent[parent[i as usize] as usize];
        parent[i as usize] = gp;
        i = gp;
    }
    i
}

/// Union by minimum root index: keeps roots deterministic and makes every
/// root the smallest member of its cluster.
fn union(parent: &mut [u32], a: u32, b: u32) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi as usize] = lo;
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

    /// Every node within boundary-avoiding distance `r` of `src`.
    fn neighbourhood(g: &MatchingGraph, src: NodeId, r: f64) -> Vec<NodeId> {
        use crate::graph::HeapItem;
        use std::collections::{BinaryHeap, HashMap};
        let mut dist = HashMap::from([(src, 0.0)]);
        let mut heap = BinaryHeap::from([HeapItem(0.0, src)]);
        while let Some(HeapItem(d, u)) = heap.pop() {
            if d > dist[&u] || u == g.boundary() {
                continue;
            }
            for &ei in g.incident(u) {
                let v = g.other_endpoint(ei as usize, u);
                let nd = d + g.edges()[ei as usize].weight;
                if nd <= r && dist.get(&v).is_none_or(|&old| nd < old) {
                    dist.insert(v, nd);
                    heap.push(HeapItem(nd, v));
                }
            }
        }
        dist.into_keys().collect()
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
    fn from_predecoder_shares_the_tables() {
        let (_, g) = memory_setup(3, 1e-3);
        let pre = Predecoder::new(&g);
        let tier = ClusterTier::from_predecoder(&pre);
        assert!(Arc::ptr_eq(&pre.0.tables, &tier.tables));
        // Clones share them too, so per-worker instances are cheap.
        assert!(Arc::ptr_eq(&pre.0.tables, &pre.clone().0.tables));
        assert!(Arc::ptr_eq(&tier.tables, &tier.clone().tables));
    }

    #[test]
    fn predecoder_scratch_is_restored_between_calls() {
        let (_, g) = memory_setup(3, 2e-3);
        let mut pre = Predecoder::new(&g);
        let a = pre.predecode(&[0, 1]);
        // Whatever happened, the defect slots must be clean again.
        assert!(pre.0.slot.iter().all(|&s| s == u32::MAX));
        assert_eq!(pre.predecode(&[0, 1]), a);
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
                // Guard two ball radii around each defect: one keeps
                // distinct mechanisms in distinct flood clusters, the
                // other pads it.
                for u in [e.u, e.v] {
                    for v in neighbourhood(&g, u, 2.0 * tier.tables.radius) {
                        guard[v] = true;
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
