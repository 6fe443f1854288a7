//! Micro-benchmarks of the decoders: union-find vs exact MWPM on
//! surface-code syndromes of growing distance and defect density, plus
//! before/after comparisons for the syndrome-sparse decode pipeline —
//! dense vs word-sparse extraction, and the allocate-per-call reference
//! union-find vs the scratch-reusing one.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    graph_for_circuit, ClusterTier, Decoder, MatchingGraph, MwpmDecoder, ReferenceUnionFind,
    UnionFindDecoder, MAX_CLUSTER_DEFECTS,
};
use caliqec_stab::{extract_dem, BatchEvents, FrameSampler, RateTable, SparseBatch, BATCH};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a matching graph and a stream of sampled syndromes for distance d.
fn setup(d: usize, shots: usize) -> (MatchingGraph, Vec<Vec<usize>>) {
    let mem = memory_circuit(
        &rotated_patch(d, d),
        &NoiseModel::uniform(3e-3),
        d,
        MemoryBasis::Z,
    );
    let graph = graph_for_circuit(&mem.circuit);
    let mut sampler = FrameSampler::new(&mem.circuit);
    let mut rng = StdRng::seed_from_u64(3);
    let mut syndromes = Vec::new();
    while syndromes.len() < shots {
        let ev = sampler.sample_batch(&mut rng);
        for s in 0..BATCH {
            let defects: Vec<usize> = ev
                .detectors
                .iter()
                .enumerate()
                .filter(|(_, w)| (*w >> s) & 1 == 1)
                .map(|(i, _)| i)
                .collect();
            if !defects.is_empty() {
                syndromes.push(defects);
            }
            if syndromes.len() >= shots {
                break;
            }
        }
    }
    (graph, syndromes)
}

/// Pre-samples whole 64-shot batches (for extraction / pipeline benches).
fn setup_batches(d: usize, batches: usize) -> (MatchingGraph, Vec<BatchEvents>) {
    let mem = memory_circuit(
        &rotated_patch(d, d),
        &NoiseModel::uniform(3e-3),
        d,
        MemoryBasis::Z,
    );
    let graph = graph_for_circuit(&mem.circuit);
    let mut sampler = FrameSampler::new(&mem.circuit);
    let mut rng = StdRng::seed_from_u64(3);
    let evs = (0..batches)
        .map(|_| sampler.sample_batch(&mut rng))
        .collect();
    (graph, evs)
}

fn bench_union_find(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_find_decode");
    for d in [3usize, 5, 7, 9] {
        let (graph, syndromes) = setup(d, 64);
        group.bench_with_input(BenchmarkId::new("d", d), &(), |b, _| {
            let mut dec = UnionFindDecoder::new(graph.clone());
            let mut i = 0;
            b.iter(|| {
                let s = &syndromes[i % syndromes.len()];
                i += 1;
                dec.decode(s)
            });
        });
    }
    group.finish();
}

/// Exact MWPM on the sampled syndromes within its defect bound (at d = 7
/// some exceed it, and the decoder refuses those).
fn bench_mwpm(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwpm_decode");
    for d in [3usize, 5, 7] {
        let (graph, mut syndromes) = setup(d, 64);
        syndromes.retain(|s| s.len() <= MwpmDecoder::MAX_DEFECTS);
        group.bench_with_input(BenchmarkId::new("d", d), &(), |b, _| {
            let mut dec = MwpmDecoder::new(graph.clone());
            let mut i = 0;
            b.iter(|| {
                let s = &syndromes[i % syndromes.len()];
                i += 1;
                dec.decode(s)
            });
        });
    }
    group.finish();
}

/// Dense per-shot extraction (the historic `for_each_shot` shape: every
/// shot scans every detector word) vs word-sparse extraction, per 64-shot
/// batch on the d = 11 circuit-noise workload.
fn bench_extraction(c: &mut Criterion) {
    let (_, evs) = setup_batches(11, 16);
    let mut group = c.benchmark_group("extraction_d11");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("dense", |b| {
        let mut i = 0;
        b.iter(|| {
            let ev = &evs[i % evs.len()];
            i += 1;
            let mut total = 0usize;
            for s in 0..BATCH {
                let defects: Vec<usize> = ev
                    .detectors
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| (*w >> s) & 1 == 1)
                    .map(|(i, _)| i)
                    .collect();
                total += defects.len();
            }
            total
        });
    });
    group.bench_function("sparse", |b| {
        let mut sparse = SparseBatch::new();
        let mut i = 0;
        b.iter(|| {
            let ev = &evs[i % evs.len()];
            i += 1;
            sparse.extract(ev);
            let mut total = 0usize;
            for s in 0..BATCH {
                total += sparse.defects(s).len();
            }
            total
        });
    });
    group.finish();
}

/// The decode phase end to end (extraction + union-find), per 64-shot batch
/// on d = 11: the historic shape (dense extraction + allocate-per-call
/// reference decoder) vs the sparse pipeline (word-sparse extraction +
/// scratch-reusing decoder). This is the headline before/after number.
fn bench_decode_pipeline(c: &mut Criterion) {
    let (graph, evs) = setup_batches(11, 16);
    let mut group = c.benchmark_group("decode_pipeline_d11");
    group.sample_size(20);
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("dense_reference", |b| {
        let mut dec = ReferenceUnionFind::new(graph.clone());
        let mut i = 0;
        b.iter(|| {
            let ev = &evs[i % evs.len()];
            i += 1;
            let mut failures = 0usize;
            for s in 0..BATCH {
                let defects: Vec<usize> = ev
                    .detectors
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| (*w >> s) & 1 == 1)
                    .map(|(i, _)| i)
                    .collect();
                let mut obs = 0u64;
                for (k, w) in ev.observables.iter().enumerate() {
                    obs |= ((w >> s) & 1) << k;
                }
                if dec.decode(&defects) != obs {
                    failures += 1;
                }
            }
            failures
        });
    });
    group.bench_function("sparse_scratch", |b| {
        let mut dec = UnionFindDecoder::new(graph.clone());
        let mut sparse = SparseBatch::new();
        let mut i = 0;
        b.iter(|| {
            let ev = &evs[i % evs.len()];
            i += 1;
            sparse.extract(ev);
            let mut failures = 0usize;
            for s in 0..BATCH {
                if dec.decode(sparse.defects(s)) != sparse.observables(s) {
                    failures += 1;
                }
            }
            failures
        });
    });
    group.finish();
}

/// The dense-regime cluster tier at the d = 15 wall: monolithic union-find
/// over whole dense shots (`cluster_off`) vs flood-decomposition with
/// certified peeling plus one union-find call on the residual union
/// (`cluster_on`), plus the decomposition cost alone (`decompose_only`).
/// Shots are the p = 1e-3 circuit-noise stream restricted to the dense
/// regime (> MAX_CLUSTER_DEFECTS defects), i.e. exactly the shots the
/// engine routes through the tier.
fn bench_dense_cluster(c: &mut Criterion) {
    let mem = memory_circuit(
        &rotated_patch(15, 15),
        &NoiseModel::uniform(1e-3),
        15,
        MemoryBasis::Z,
    );
    let graph = graph_for_circuit(&mem.circuit);
    let mut sampler = FrameSampler::new(&mem.circuit);
    let mut rng = StdRng::seed_from_u64(15);
    let mut sparse = SparseBatch::new();
    let mut dense: Vec<Vec<usize>> = Vec::new();
    while dense.len() < 128 {
        let ev = sampler.sample_batch(&mut rng);
        sparse.extract(&ev);
        for s in 0..BATCH {
            if sparse.defect_count(s) > MAX_CLUSTER_DEFECTS {
                dense.push(sparse.defects(s).to_vec());
                if dense.len() >= 128 {
                    break;
                }
            }
        }
    }
    let mut group = c.benchmark_group("dense_cluster_d15");
    group.sample_size(20);
    group.bench_function("cluster_off", |b| {
        let mut dec = UnionFindDecoder::new(graph.clone());
        let mut i = 0;
        b.iter(|| {
            let s = &dense[i % dense.len()];
            i += 1;
            dec.decode(s)
        });
    });
    group.bench_function("cluster_on", |b| {
        let mut tier = ClusterTier::new(&graph);
        let mut dec = UnionFindDecoder::new(graph.clone());
        let mut i = 0;
        b.iter(|| {
            let s = &dense[i % dense.len()];
            i += 1;
            let out = tier.decompose(s);
            if out.fully_peeled() {
                out.mask
            } else {
                out.mask ^ dec.decode(tier.residual_defects())
            }
        });
    });
    group.bench_function("decompose_only", |b| {
        let mut tier = ClusterTier::new(&graph);
        let mut i = 0;
        b.iter(|| {
            let s = &dense[i % dense.len()];
            i += 1;
            tier.decompose(s).mask
        });
    });
    group.finish();
}

/// Incremental calibration update vs full rebuild: reweighting the graph
/// in place from provenance (`MatchingGraph::reweight`) against the
/// from-scratch path a naive calibration feed forces (`DetectorErrorModel::
/// reweighted` + `MatchingGraph::from_dem`). The two produce bit-identical
/// weights (see `tests/reweight_validation.rs`); only the cost differs —
/// the incremental path must be at least an order of magnitude cheaper at
/// d = 11, since it skips hyperedge decomposition, edge sorting, and CSR
/// assembly.
fn bench_reweight(c: &mut Criterion) {
    for d in [7usize, 11] {
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(3e-3),
            d,
            MemoryBasis::Z,
        );
        let dem = extract_dem(&mem.circuit);
        let graph = MatchingGraph::from_dem(&dem);
        let rates = RateTable::uniform(4e-3);
        let mut group = c.benchmark_group(format!("reweight_d{d}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(graph.edges().len() as u64));
        group.bench_function("incremental", |b| {
            let mut g = graph.clone();
            b.iter(|| {
                g.reweight(&rates).expect("graph carries provenance");
                g.edges()[0].weight
            });
        });
        group.bench_function("rebuild_from_dem", |b| {
            b.iter(|| {
                let fresh = MatchingGraph::from_dem(&dem.reweighted(&rates));
                fresh.edges().len()
            });
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_union_find,
    bench_mwpm,
    bench_extraction,
    bench_decode_pipeline,
    bench_dense_cluster,
    bench_reweight
);
criterion_main!(benches);
