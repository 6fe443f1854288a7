//! Cross-crate integration tests: the full CaliQEC pipeline from device
//! characterization to runtime execution, and the end-to-end
//! stabilizer-simulation path from layouts to decoded logical error rates.

use caliqec::{compile, run_runtime, CaliqecConfig, Preparation};
use caliqec_code::{
    code_distance, data_coord, memory_circuit, DeformInstruction, DeformedPatch, Lattice,
    MemoryBasis, NoiseModel, Side,
};
use caliqec_device::{DeviceConfig, DeviceModel};
use caliqec_match::{estimate_ler, graph_for_circuit, SampleOptions, UnionFindDecoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ler_of(layout: &caliqec_code::PatchLayout, p: f64, shots: usize, seed: u64) -> f64 {
    let mem = memory_circuit(layout, &NoiseModel::uniform(p), 3, MemoryBasis::Z);
    let mut decoder = UnionFindDecoder::new(graph_for_circuit(&mem.circuit));
    let mut rng = StdRng::seed_from_u64(seed);
    estimate_ler(
        &mem.circuit,
        &mut decoder,
        SampleOptions {
            min_shots: shots,
            ..Default::default()
        },
        &mut rng,
    )
    .per_shot()
}

#[test]
fn subthreshold_scaling_between_distances() {
    // Below threshold, d = 5 must beat d = 3; above it, the ordering breaks.
    let p_low = 2e-3;
    let d3 = ler_of(&caliqec_code::rotated_patch(3, 3), p_low, 200_000, 1);
    let d5 = ler_of(&caliqec_code::rotated_patch(5, 5), p_low, 200_000, 2);
    assert!(d3 > 0.0, "d=3 LER should be measurable at p=2e-3");
    assert!(
        d5 < d3,
        "sub-threshold suppression violated: d5 {d5:e} !< d3 {d3:e}"
    );
}

#[test]
fn deformation_hurts_and_enlargement_heals() {
    let p = 3e-3;
    let d = 5;
    let pristine = ler_of(&caliqec_code::rotated_patch(d, d), p, 150_000, 3);

    // Punch a hole: distance 5 -> ~4, LER worsens.
    let mut patch = DeformedPatch::new(Lattice::Square, d, d);
    patch
        .apply(DeformInstruction::DataQRm {
            qubit: data_coord(2, 2),
        })
        .unwrap();
    let hurt_layout = patch.layout().unwrap();
    assert!(code_distance(&hurt_layout).min() < d);
    let hurt = ler_of(&hurt_layout, p, 150_000, 4);
    assert!(
        hurt > pristine,
        "isolation should cost logical fidelity: {hurt:e} !> {pristine:e}"
    );

    // Enlarge until the distance is back: LER recovers most of the loss.
    for side in [Side::Right, Side::Bottom, Side::Right, Side::Bottom] {
        if code_distance(&patch.layout().unwrap()).min() >= d {
            break;
        }
        patch.apply(DeformInstruction::PatchQAd { side }).unwrap();
    }
    let healed_layout = patch.layout().unwrap();
    assert!(code_distance(&healed_layout).min() >= d);
    let healed = ler_of(&healed_layout, p, 150_000, 5);
    assert!(
        healed < hurt,
        "enlargement should recover fidelity: {healed:e} !< {hurt:e}"
    );
}

#[test]
fn heavy_hex_pipeline_end_to_end() {
    // Heavy-hex layout -> memory circuit -> DEM -> decode, with a bridge
    // ancilla removed mid-way.
    let mut patch = DeformedPatch::new(Lattice::HeavyHex, 3, 3);
    let layout = patch.layout().unwrap();
    let stab = layout
        .stabilizers
        .iter()
        .find(|s| s.weight() == 4)
        .expect("interior stabilizer");
    let caliqec_code::Readout::Chain { parts } = &stab.readout else {
        panic!("heavy-hex uses chains")
    };
    let mid = parts[0].chain[3];
    patch
        .apply(DeformInstruction::AncQRmHorDeg2 { ancilla: mid })
        .unwrap();
    let deformed = patch.layout().unwrap();
    let ler = ler_of(&deformed, 1e-3, 100_000, 6);
    // Just shy of a smoke test: the split-gauge circuit must decode sanely
    // (an undecodable structure would yield ~50% failure).
    assert!(ler < 0.1, "split-gauge heavy-hex decodes badly: {ler}");
}

#[test]
fn full_pipeline_keeps_patch_protected() {
    let mut rng = StdRng::seed_from_u64(11);
    let device = DeviceModel::synthetic(
        &DeviceConfig {
            rows: 5,
            cols: 5,
            ..DeviceConfig::default()
        },
        &mut rng,
    );
    let config = CaliqecConfig {
        distance: 5,
        ..CaliqecConfig::default()
    };
    let prep = Preparation::run(&device, &mut rng);
    let plan = compile(&device, &prep, &config, &mut rng);
    let horizon = 48.0;
    let with = run_runtime(&device, Some(&plan), &config, horizon, 96);
    let without = run_runtime(&device, None, &config, horizon, 96);
    // The paper's headline: with in-situ calibration the LER stays bounded,
    // without it the run is lost.
    assert!(with.calibrations > 0);
    assert!(
        with.peak_ler() < without.peak_ler(),
        "calibration must bound the LER: {:e} !< {:e}",
        with.peak_ler(),
        without.peak_ler()
    );
    assert!(without.exceedance_fraction() > 0.5);
}

#[test]
fn runtime_qubit_overhead_is_temporary_and_modest() {
    let mut rng = StdRng::seed_from_u64(17);
    let device = DeviceModel::synthetic(
        &DeviceConfig {
            rows: 5,
            cols: 5,
            ..DeviceConfig::default()
        },
        &mut rng,
    );
    let config = CaliqecConfig {
        distance: 5,
        ..CaliqecConfig::default()
    };
    let prep = Preparation::run(&device, &mut rng);
    let plan = compile(&device, &prep, &config, &mut rng);
    let report = run_runtime(&device, Some(&plan), &config, 24.0, 120);
    let baseline = report.trace.first().unwrap().physical_qubits;
    // Extra qubits only appear during calibration windows and stay bounded
    // (the paper reports ~14% for Δd-compensated enlargement at d=11; small
    // patches pay relatively more per enlargement step).
    assert!(report.max_physical_qubits >= baseline);
    assert!(
        report.max_physical_qubits as f64 <= baseline as f64 * 3.0,
        "enlargement overhead exploded: {} vs {}",
        report.max_physical_qubits,
        baseline
    );
    let quiet_points = report
        .trace
        .iter()
        .filter(|p| p.calibrating == 0 && p.physical_qubits == baseline)
        .count();
    assert!(quiet_points > 0, "patch never returns to baseline size");
}

/// FNV-1a 64 over the little-endian bytes of each value's `to_bits()`.
fn fnv1a_f64_bits(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn runtime_trace_is_pinned_by_value() {
    // The calibration runtime measures every trace point one way (the
    // instant's memory circuit, its layout's matching graph brought to the
    // instant's rate, union-find decode); this pin fixes that path's
    // Monte-Carlo trace bit for bit at two thread counts.
    let mut rng = StdRng::seed_from_u64(33);
    let device = DeviceModel::synthetic(
        &DeviceConfig {
            rows: 5,
            cols: 5,
            ..DeviceConfig::default()
        },
        &mut rng,
    );
    let mut config = CaliqecConfig {
        distance: 5,
        mc_shots: 4096,
        ..CaliqecConfig::default()
    };
    let prep = Preparation::run(&device, &mut rng);
    let plan = compile(&device, &prep, &config, &mut rng);
    for threads in [1, 2] {
        config.threads = threads;
        let report = run_runtime(&device, Some(&plan), &config, 8.0, 8);
        assert_eq!(report.calibrations, 62, "threads={threads}");
        let lers: Vec<f64> = report
            .trace
            .iter()
            .map(|p| p.measured_ler.expect("mc_shots > 0 measures every point"))
            .collect();
        let failures: Vec<f64> = lers.iter().map(|l| l * 4096.0).collect();
        assert_eq!(
            failures,
            [5.0, 2.0, 4.0, 10.0, 17.0, 10.0, 26.0, 9.0],
            "threads={threads}"
        );
        assert_eq!(
            fnv1a_f64_bits(&lers),
            0x3958_6fa4_2aa2_1bb4,
            "threads={threads}"
        );
    }
}
