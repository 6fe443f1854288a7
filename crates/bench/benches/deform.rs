//! Micro-benchmarks of the deformation instruction set: instruction
//! application (layout rewrite + validation), a calibration window's whole
//! journal (many isolations, then enlargement), distance computation, and
//! memory-circuit generation on deformed layouts.

use caliqec_code::{
    code_distance, data_coord, memory_circuit, DeformInstruction, DeformedPatch, Lattice,
    MemoryBasis, NoiseModel, Side,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_data_q_rm(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_q_rm");
    for d in [5usize, 9, 13, 17] {
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            b.iter(|| {
                let mut patch = DeformedPatch::new(Lattice::Square, d, d);
                patch
                    .apply(DeformInstruction::DataQRm {
                        qubit: data_coord(d / 2, d / 2),
                    })
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_enlargement(c: &mut Criterion) {
    let mut group = c.benchmark_group("patch_q_ad");
    for d in [5usize, 9, 13] {
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            b.iter(|| {
                let mut patch = DeformedPatch::new(Lattice::Square, d, d);
                patch
                    .apply(DeformInstruction::DataQRm {
                        qubit: data_coord(d / 2, d / 2),
                    })
                    .unwrap();
                patch
                    .apply(DeformInstruction::PatchQAd { side: Side::Right })
                    .unwrap()
            });
        });
    }
    group.finish();
}

/// A calibration window's layout as the runtime realizes it at d = 11: `k`
/// `DataQ_RM` isolations on distinct interior qubits, then growth right and
/// bottom alternately until the distance is restored, at most 2·Δd = 8
/// steps. Shows how the cost scales with the journal length `k`.
fn bench_journal(c: &mut Criterion) {
    let d = 11;
    let holes: Vec<_> = (0..5)
        .flat_map(|i| (0..5).map(move |j| data_coord(1 + 2 * i, 1 + 2 * j)))
        .collect();
    let mut group = c.benchmark_group("journal_d11");
    group.sample_size(10);
    for k in [4usize, 16, 25] {
        group.bench_with_input(BenchmarkId::new("isolations", k), &k, |b, &k| {
            b.iter(|| {
                let mut patch = DeformedPatch::new(Lattice::Square, d, d);
                for &qubit in &holes[..k] {
                    let _ = patch.apply(DeformInstruction::DataQRm { qubit });
                }
                for i in 0..8 {
                    if code_distance(&patch.layout().unwrap()).min() >= d {
                        break;
                    }
                    let side = if i % 2 == 0 {
                        Side::Right
                    } else {
                        Side::Bottom
                    };
                    let _ = patch.apply(DeformInstruction::PatchQAd { side });
                }
                patch.layout().unwrap()
            });
        });
    }
    group.finish();
}

fn bench_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("code_distance");
    for d in [5usize, 11, 17, 25] {
        let layout = caliqec_code::rotated_patch(d, d);
        group.bench_with_input(BenchmarkId::new("pristine", d), &layout, |b, layout| {
            b.iter(|| code_distance(layout));
        });
    }
    group.finish();
}

fn bench_memory_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_circuit");
    group.sample_size(20);
    for d in [5usize, 9, 13] {
        let layout = caliqec_code::rotated_patch(d, d);
        let noise = NoiseModel::uniform(1e-3);
        group.bench_with_input(BenchmarkId::new("square", d), &layout, |b, layout| {
            b.iter(|| memory_circuit(layout, &noise, d, MemoryBasis::Z));
        });
    }
    let hex = caliqec_code::heavy_hex_patch(5, 5);
    let noise = NoiseModel::uniform(1e-3);
    group.bench_function("heavy_hex_d5", |b| {
        b.iter(|| memory_circuit(&hex, &noise, 5, MemoryBasis::Z));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_data_q_rm,
    bench_enlargement,
    bench_journal,
    bench_distance,
    bench_memory_generation
);
criterion_main!(benches);
