//! Rare-event LER experiment: plain Monte Carlo vs importance sampling,
//! shots-to-target-CI, at d ∈ {11, 15}, p = 1e-3 (`results/rare_event.json`).
//!
//! **Operating point.** The measured quantity is the logical error
//! probability of a *few-round* memory experiment (`--rounds`, default 2)
//! — the per-calibration-comparison quantity the runtime resolves point by
//! point — not the full d-round memory experiment. The choice is the
//! method's validity domain, not convenience: a uniform rate tilt
//! `p → β·p` caps its variance gain at `max_β β^k ·
//! exp(−μ(β + 1/β − 2))` where k is the minimal fault weight of a logical
//! error (≈ (d+1)/2) and μ the mean faults per shot (DESIGN.md §13). At
//! rounds = d, μ ≈ 10 > k = 6 for d = 11 and *no* β beats plain MC by more
//! than ~3× — the pilot sweep reproduces that collapse empirically (ESS of
//! a few shots out of 20 k at β ≥ 3). At rounds = 2, μ ≈ 1.8 ≪ k and the
//! same machinery honestly buys orders of magnitude. Both the plain
//! baseline and the IS runs use the identical circuit, so every ratio
//! below is apples to apples.
//!
//! For each distance the binary runs:
//!
//! 1. a **plain-MC reference** at a fixed budget (`--plain-shots`, default
//!    100 000) — sub-threshold this records *zero* failures, which is the
//!    point: the LER is unmeasurable at this budget;
//! 2. a **β sweep pilot** (`β ∈ {2, 3, 4, 5, 6}`, `--pilot-shots` each,
//!    default 50 000): every boost factor gets a fixed-budget
//!    importance-sampled run, scored by the relative CI it achieved — the
//!    auto-tuner keeps the β with the smallest relative half-width
//!    (low β under-boosts and starves the estimator of failures; high β
//!    inflates the weight variance until ESS collapses);
//! 3. a **full importance-sampled run** at the winning β with the engine's
//!    CI stopping rule armed (`--target-rse`, default 0.1): the run stops
//!    at the deterministic chunk prefix where the 95% CI half-width falls
//!    to the target fraction of the estimate, or at `--max-shots`.
//!
//! The JSON row reports both measured costs and the plain-MC **projection**
//! to the same relative CI — `n = (1.96/rse)² · (1−p̂)/p̂` shots at the
//! measured plain-MC shot rate — because the direct plain-MC experiment is
//! precisely the one that is infeasible (that infeasibility ratio is the
//! headline result). All runs are seeded and thread-count independent;
//! wall times obviously are not.
//!
//! Flags: `--threads N`, `--out PATH`, `--rounds N` (at least 1),
//! `--target-rse F`, `--pilot-shots N`, `--plain-shots N`, `--max-shots N`.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    graph_for_circuit, ClusterGate, EngineRun, LerEngine, RunSpec, SampleOptions, StopRule, Tiered,
    UnionFindDecoder, Weighting,
};
use caliqec_stab::CompiledCircuit;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Boost factors swept by the pilot.
const BETAS: [f64; 5] = [2.0, 3.0, 4.0, 5.0, 6.0];

/// An importance-sampled spec at boost `beta` over `min_shots..=max_shots`
/// (0 = `min_shots` is the budget), CI-stopped at `target_rse` (0 = never).
fn boosted(beta: f64, target_rse: f64, min_shots: usize, max_shots: usize) -> RunSpec {
    RunSpec {
        budget: SampleOptions {
            min_shots,
            max_failures: 0,
            max_shots,
        },
        weighting: Weighting::Boosted { beta },
        stop: StopRule::TargetRse(target_rse),
    }
}

/// Achieved relative CI half-width of a run (`inf` when the estimate is
/// zero — an estimator that saw no failure mass has no precision at all).
fn relative_ci(run: &EngineRun) -> f64 {
    let p = run.ler();
    if p > 0.0 {
        run.ci_halfwidth / p
    } else {
        f64::INFINITY
    }
}

fn main() -> ExitCode {
    caliqec_bench::quiet_by_default();
    let threads = caliqec_bench::threads_from_args();
    let out = caliqec_bench::string_from_args("out", "results/rare_event.json");
    let target_rse: f64 = match caliqec_bench::string_from_args("target-rse", "0.1").parse() {
        Ok(v) if v > 0.0 => v,
        _ => {
            eprintln!("rare_event: error: --target-rse wants a positive number");
            return ExitCode::from(2);
        }
    };
    let pilot_shots = caliqec_bench::usize_from_args("pilot-shots", 50_000);
    let plain_shots = caliqec_bench::usize_from_args("plain-shots", 100_000);
    let max_shots = caliqec_bench::usize_from_args("max-shots", 8_000_000);
    let rounds = caliqec_bench::usize_from_args("rounds", 2);
    if rounds == 0 {
        eprintln!("rare_event: error: --rounds must be at least 1");
        return ExitCode::from(2);
    }
    let p = 1e-3;

    let mut rows = String::new();
    for (i, d) in [11usize, 15].into_iter().enumerate() {
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p),
            rounds,
            MemoryBasis::Z,
        );
        let compiled = CompiledCircuit::new(&mem.circuit);
        let graph = graph_for_circuit(&mem.circuit);
        let factory = Tiered::new(&graph, {
            let graph = graph.clone();
            move || UnionFindDecoder::new(graph.clone())
        })
        .with_cluster_gate(ClusterGate::Auto);
        let engine = LerEngine::new(threads);
        let seed = 0x0DD5EED + d as u64;

        eprintln!("rare_event: d={d}: plain MC, {plain_shots} shots...");
        let plain = engine.estimate(
            &compiled,
            &factory,
            SampleOptions {
                min_shots: plain_shots,
                ..Default::default()
            },
            seed,
        );
        eprintln!(
            "rare_event: d={d}: plain MC saw {} failures in {} shots ({:.1}s)",
            plain.estimate.failures, plain.estimate.shots, plain.wall_seconds
        );

        // β sweep pilot: fixed budget per β, scored by achieved relative CI.
        let mut pilot_json = String::new();
        let mut best: Option<(f64, f64)> = None; // (beta, relative ci)
        for (j, beta) in BETAS.into_iter().enumerate() {
            let run = engine
                .try_run(
                    &compiled,
                    &factory,
                    &boosted(beta, 0.0, pilot_shots, 0),
                    seed,
                )
                .expect("pilot run failed");
            let rse = relative_ci(&run);
            eprintln!(
                "rare_event: d={d}: pilot beta={beta}: ler={:.3e}, rse={:.3}, ess={:.0}/{}",
                run.ler(),
                rse,
                run.ess,
                run.estimate.shots
            );
            if j > 0 {
                pilot_json.push_str(", ");
            }
            write!(
                pilot_json,
                concat!(
                    "{{\"beta\": {}, \"ler\": {:e}, \"rse\": {}, ",
                    "\"ess\": {:.1}, \"raw_failures\": {}}}"
                ),
                beta,
                run.ler(),
                if rse.is_finite() {
                    format!("{rse:.4}")
                } else {
                    "null".to_string()
                },
                run.ess,
                run.estimate.failures,
            )
            .expect("write to string");
            if best.is_none_or(|(_, b)| rse < b) {
                best = Some((beta, rse));
            }
        }
        let (best_beta, best_rse) = best.expect("non-empty beta sweep");
        if !best_rse.is_finite() {
            eprintln!(
                "rare_event: error: no pilot beta produced failure mass at d={d} — \
                 raise --pilot-shots"
            );
            return ExitCode::from(3);
        }

        eprintln!(
            "rare_event: d={d}: full IS run at beta={best_beta}, target rse {target_rse}, \
             up to {max_shots} shots..."
        );
        let is_run = engine
            .try_run(
                &compiled,
                &factory,
                &boosted(best_beta, target_rse, pilot_shots, max_shots),
                seed,
            )
            .expect("importance-sampled run failed");
        let p_hat = is_run.ler();
        let is_rse = relative_ci(&is_run);
        let healthy = p_hat > 0.0 && is_run.ci_halfwidth.is_finite();
        if !healthy {
            eprintln!("rare_event: error: IS run produced no finite CI'd estimate at d={d}");
            return ExitCode::from(3);
        }
        eprintln!(
            "rare_event: d={d}: IS ler={p_hat:.3e} +- {:.3e} (rse {is_rse:.3}) in {} shots, \
             {:.1}s, ess {:.0}",
            is_run.ci_halfwidth, is_run.estimate.shots, is_run.wall_seconds, is_run.ess
        );

        // Plain-MC projection to the *achieved* relative CI (so a budget-
        // capped IS run is still compared to its equal-precision plain
        // experiment, never to a better one).
        let project_rse = is_rse.max(target_rse);
        let plain_shots_to_ci =
            ((1.96 / (project_rse * p_hat)).powi(2) * p_hat * (1.0 - p_hat)).ceil();
        let plain_rate = plain.estimate.shots as f64 / plain.wall_seconds.max(1e-9);
        let plain_wall_to_ci = plain_shots_to_ci / plain_rate;
        let shots_ratio = plain_shots_to_ci / is_run.estimate.shots as f64;
        let wall_ratio = plain_wall_to_ci / is_run.wall_seconds.max(1e-9);
        eprintln!(
            "rare_event: d={d}: plain MC would need ~{plain_shots_to_ci:.3e} shots \
             (~{plain_wall_to_ci:.0}s) for the same CI: {shots_ratio:.0}x shots, \
             {wall_ratio:.0}x wall",
        );

        if i > 0 {
            rows.push_str(",\n");
        }
        write!(
            rows,
            concat!(
                "    {{\"d\": {}, \"p\": {}, \"rounds\": {}, \"target_rse\": {}, \"threads\": {},\n",
                "     \"plain\": {{\"shots\": {}, \"failures\": {}, \"wall_seconds\": {:.3}}},\n",
                "     \"pilot\": [{}],\n",
                "     \"best_beta\": {},\n",
                "     \"is\": {{\"shots\": {}, \"raw_failures\": {}, \"ler\": {:e}, ",
                "\"ci_halfwidth\": {:e}, \"rse\": {:.4}, \"ess\": {:.1}, ",
                "\"ci_met\": {}, \"wall_seconds\": {:.3}}},\n",
                "     \"plain_shots_to_same_ci\": {:e}, ",
                "\"plain_wall_to_same_ci_seconds\": {:.1}, ",
                "\"shots_ratio\": {:.1}, \"wall_ratio\": {:.1}}}"
            ),
            d,
            p,
            rounds,
            target_rse,
            is_run.threads,
            plain.estimate.shots,
            plain.estimate.failures,
            plain.wall_seconds,
            pilot_json,
            best_beta,
            is_run.estimate.shots,
            is_run.estimate.failures,
            p_hat,
            is_run.ci_halfwidth,
            is_rse,
            is_run.ess,
            is_rse <= target_rse + 1e-12,
            is_run.wall_seconds,
            plain_shots_to_ci,
            plain_wall_to_ci,
            shots_ratio,
            wall_ratio,
        )
        .expect("write to string");
    }

    let json = format!("{{\n  \"experiment\": \"rare_event\",\n  \"rows\": [\n{rows}\n  ]\n}}\n");
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("rare_event: error: writing {out}: {e}");
        return ExitCode::from(4);
    }
    eprintln!("rare_event: wrote {out}");
    print!("{json}");
    ExitCode::SUCCESS
}
