//! Drift-trajectory experiment: static vs calibration-aware decoding as
//! gate error rates drift away from the rates the decoder was weighted at.
//!
//! A rotated-surface-code memory patch drifts heterogeneously: data qubits
//! split (by coordinate parity) into a fast-drifting and a slow-drifting
//! population, each following the exponential drift model of
//! `caliqec_device::DriftModel` from the same freshly-calibrated rate
//! `p0`. At each swept time point both decode arms see the **identical**
//! syndrome stream — the circuit is sampled at the true drifted rates with
//! the same base seed and chunk schedule — and differ only in decode
//! weights:
//!
//! - **static**: `Tiered` union-find over the matching graph extracted at
//!   calibration time (`p0` everywhere), never updated.
//! - **drift-aware**: `Tiered` union-find over a clone of that graph
//!   incrementally reweighted to the true per-gate rates at the time point
//!   via `MatchingGraph::reweight` (provenance-preserving, no DEM
//!   re-extraction); `reweight_seconds` times the clone and the reweight.
//!
//! Because the streams are paired, any LER gap is pure decode-prior
//! quality. The acceptance bar is statistical, with σ = √(F_aware +
//! F_static) the unpaired Poisson standard deviation of the failure-count
//! difference (conservative, since both arms decode one syndrome stream):
//!
//! - at every time point the aware arm loses by at most 3σ:
//!   F_aware − F_static ≤ 3σ;
//! - at peak drift (the last time point) it wins by more than 3σ:
//!   F_static − F_aware > 3σ.
//!
//! Where the weights are barely stale the two arms differ by a few
//! failures either way, so "never loses" would fail on noise alone.
//! Results land in `results/drift_trajectory.json`; the exit code is 1
//! when the bar fails.
//!
//! Flags: `--shots N` (per point per arm, default 200 000), `--threads N`,
//! `--distance D` (default 5, at least 2), `--out PATH`. A malformed flag
//! exits 2.

use caliqec_code::{
    drift_rate_table, memory_circuit, rotated_patch, MemoryBasis, NoiseModel, PatchLayout,
};
use caliqec_device::DriftModel;
use caliqec_match::{LerEngine, MatchingGraph, SampleOptions, Tiered, UnionFindDecoder};
use caliqec_stab::{extract_dem, CompiledCircuit};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const P0: f64 = 1.5e-3;
const T_FAST_HOURS: f64 = 10.0;
const T_SLOW_HOURS: f64 = 40.0;
const HOURS: [f64; 7] = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
const SEED: u64 = 0xD81F_7A6E;

/// True noise model at `hours`: every data qubit drifted along its own
/// trajectory (fast or slow by coordinate parity), ancillas and couplers
/// held at `p0`. Overrides feed both the gate and idle channels, mirroring
/// how real drifted qubits degrade across the board.
fn drifted_noise(layout: &PatchLayout, hours: f64) -> NoiseModel {
    let mut noise = NoiseModel::uniform(P0);
    for &q in &layout.data {
        let t_drift = if (q.r + q.c) % 4 == 0 {
            T_FAST_HOURS
        } else {
            T_SLOW_HOURS
        };
        let model = DriftModel {
            p0: P0,
            t_drift_hours: t_drift,
        };
        noise.drift_qubit(q, model.p_at(hours).min(0.1));
    }
    noise
}

fn main() -> ExitCode {
    caliqec_bench::accept_flags(&["shots", "threads", "distance", "out"]);
    caliqec_bench::quiet_by_default();
    let shots = caliqec_bench::usize_from_args("shots", 200_000);
    let threads = caliqec_bench::threads_from_args();
    let distance = caliqec_bench::usize_from_args("distance", 5);
    let out = caliqec_bench::string_from_args("out", "results/drift_trajectory.json");
    if distance < 2 {
        eprintln!("error: --distance must be at least 2, got {distance}");
        return ExitCode::from(2);
    }
    let engine = LerEngine::new(threads);
    let opts = SampleOptions {
        min_shots: shots,
        ..Default::default()
    };

    let layout = rotated_patch(distance, distance);
    // Calibration-time extraction: the static arm decodes with this graph
    // forever; the aware arm reweights it per time point.
    let base_mem = memory_circuit(&layout, &NoiseModel::uniform(P0), distance, MemoryBasis::Z);
    let dem = extract_dem(&base_mem.circuit);
    let base_graph = MatchingGraph::from_dem(&dem);

    let mut points = String::new();
    let mut violations = 0usize;
    for (i, &hours) in HOURS.iter().enumerate() {
        let noise = drifted_noise(&layout, hours);
        let mem = memory_circuit(&layout, &noise, distance, MemoryBasis::Z);
        let compiled = CompiledCircuit::new(&mem.circuit);
        let seed = SEED.wrapping_add(i as u64);

        let run = |graph: &MatchingGraph| {
            let tiered = Tiered::new(graph, || UnionFindDecoder::new(graph.clone()));
            engine.estimate(&compiled, &tiered, opts, seed)
        };
        let static_run = run(&base_graph);

        let reweight_started = Instant::now();
        let mut aware_graph = base_graph.clone();
        aware_graph
            .reweight(&drift_rate_table(&base_mem, &dem, &noise))
            .expect("the calibration-time graph carries provenance");
        let reweight_seconds = reweight_started.elapsed().as_secs_f64();
        let aware_run = run(&aware_graph);

        assert_eq!(
            static_run.estimate.shots, aware_run.estimate.shots,
            "paired arms must decode identical shot counts"
        );
        let (f_static, f_aware) = (static_run.estimate.failures, aware_run.estimate.failures);
        let aware_loss = f_aware as f64 - f_static as f64;
        let three_sigma = 3.0 * ((f_aware + f_static) as f64).sqrt();
        let peak = i + 1 == HOURS.len();
        let pass = aware_loss <= three_sigma && (!peak || -aware_loss > three_sigma);
        if !pass {
            violations += 1;
        }
        eprintln!(
            "drift_trajectory: t={hours:>4.1}h  static {}/{} ({:.3e})  aware {}/{} ({:.3e})  aware-static {aware_loss:+} vs 3σ {three_sigma:.1}{}  reweight {:.4}s",
            f_static,
            static_run.estimate.shots,
            static_run.estimate.per_shot(),
            f_aware,
            aware_run.estimate.shots,
            aware_run.estimate.per_shot(),
            match (pass, peak) {
                (true, true) => "  (peak: aware wins)",
                (true, false) => "",
                (false, _) => "  FAIL",
            },
            reweight_seconds,
        );
        if i > 0 {
            points.push_str(",\n");
        }
        write!(
            points,
            concat!(
                "    {{\"hours\": {}, \"shots\": {}, ",
                "\"static_failures\": {}, \"static_ler\": {:e}, ",
                "\"aware_failures\": {}, \"aware_ler\": {:e}, ",
                "\"reweight_seconds\": {:.6}}}"
            ),
            hours,
            static_run.estimate.shots,
            static_run.estimate.failures,
            static_run.estimate.per_shot(),
            aware_run.estimate.failures,
            aware_run.estimate.per_shot(),
            reweight_seconds,
        )
        .expect("write to string");
    }

    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"drift_trajectory\",\n",
            "  \"distance\": {}, \"rounds\": {}, \"p0\": {:e},\n",
            "  \"t_fast_hours\": {}, \"t_slow_hours\": {},\n",
            "  \"shots_per_point\": {}, \"seed\": {},\n",
            "  \"points\": [\n{}\n  ]\n}}\n"
        ),
        distance, distance, P0, T_FAST_HOURS, T_SLOW_HOURS, shots, SEED, points,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("drift_trajectory: error: writing {out}: {e}");
        return ExitCode::from(4);
    }
    eprintln!("drift_trajectory: wrote {out}");

    if violations > 0 {
        eprintln!("drift_trajectory: FAIL — the 3σ bar failed at {violations} time point(s)");
        return ExitCode::from(1);
    }
    eprintln!(
        "drift_trajectory: drift-aware within 3σ of static everywhere and better by more than 3σ at peak drift"
    );
    ExitCode::SUCCESS
}
