//! Micro-benchmarks of the stabilizer-simulation substrate: Pauli-frame
//! sampling throughput, tableau execution, and detector-error-model
//! extraction on surface-code memory circuits.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_stab::{
    chunk_seed, extract_dem, noiseless_shot, BatchEvents, CompiledCircuit, FrameSampler,
    FrameState, WideFrameState, BATCH, LANES,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn memory(d: usize, p: f64) -> caliqec_code::MemoryCircuit {
    memory_circuit(
        &rotated_patch(d, d),
        &NoiseModel::uniform(p),
        d,
        MemoryBasis::Z,
    )
}

fn bench_frame_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_sampler");
    for d in [3usize, 5, 7, 9] {
        let mem = memory(d, 1e-3);
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(BenchmarkId::new("memory_z", d), &mem, |b, mem| {
            let mut sampler = FrameSampler::new(&mem.circuit);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| sampler.sample_batch(&mut rng));
        });
    }
    group.finish();
}

fn bench_tableau_shot(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_shot");
    for d in [3usize, 5] {
        let mem = memory(d, 1e-3);
        group.bench_with_input(BenchmarkId::new("memory_z", d), &mem, |b, mem| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| noiseless_shot(&mem.circuit, &mut rng));
        });
    }
    group.finish();
}

/// The word-level SIMD sampler: LANES batches sampled in lockstep over
/// `[u64; LANES]` rows vs the same batches sampled one at a time. Both
/// paths draw from identical per-batch RNG streams and produce
/// bit-identical events (`wide_lanes_are_bit_identical_to_narrow_batches`
/// in caliqec-stab); only throughput differs. d = 15 is the dense-regime
/// workload whose sample phase the engine batches this way. Each noise
/// site stays quiet for a whole batch with probability (1 − p)^64, which
/// decides how often the sampler's no-logarithm shortcut applies: 0.94 of
/// site visits at p = 1e-3, 0.73 at p = 5e-3.
fn bench_sample_simd(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_simd");
    group.sample_size(20);
    for (d, p) in [(11usize, 1e-3), (11, 5e-3), (15, 1e-3), (15, 5e-3)] {
        let mem = memory(d, p);
        let compiled = CompiledCircuit::new(&mem.circuit);
        let id = |name| BenchmarkId::new(name, format!("{d}/p{p}"));
        group.throughput(Throughput::Elements((LANES * BATCH) as u64));
        group.bench_with_input(id("narrow"), &compiled, |b, compiled| {
            let mut state = FrameState::new(compiled);
            let mut events = BatchEvents::default();
            let mut batch = 0u64;
            b.iter(|| {
                for _ in 0..LANES {
                    let mut rng = StdRng::seed_from_u64(chunk_seed(0x50D1, batch));
                    batch += 1;
                    compiled.sample_batch_into(&mut state, &mut rng, &mut events);
                }
                events.detectors.len()
            });
        });
        group.bench_with_input(id("wide"), &compiled, |b, compiled| {
            let mut state = WideFrameState::new(compiled);
            let mut events: [BatchEvents; LANES] = std::array::from_fn(|_| BatchEvents::default());
            let mut batch = 0u64;
            b.iter(|| {
                let mut rngs: [StdRng; LANES] = std::array::from_fn(|l| {
                    StdRng::seed_from_u64(chunk_seed(0x50D1, batch + l as u64))
                });
                batch += LANES as u64;
                compiled.sample_batches_wide_into(&mut state, &mut rngs, &mut events);
                events[0].detectors.len()
            });
        });
    }
    group.finish();
}

fn bench_dem_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("dem_extraction");
    group.sample_size(10);
    for d in [3usize, 5, 7, 11, 15] {
        let mem = memory(d, 1e-3);
        group.bench_with_input(BenchmarkId::new("memory_z", d), &mem, |b, mem| {
            b.iter(|| extract_dem(&mem.circuit));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_frame_sampler,
    bench_tableau_shot,
    bench_sample_simd,
    bench_dem_extraction
);
criterion_main!(benches);
