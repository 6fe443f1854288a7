//! Decode-pipeline performance smoke: runs the Monte-Carlo LER engine on
//! fixed-seed circuit-noise workloads (`--configs`, default d ∈ {7, 11, 15};
//! pass `--configs 7,11,15,21` to opt into the d = 21 row) and writes
//! per-config throughput/phase-timing numbers to a JSON file
//! (`BENCH_decode.json` at the repo root by default), stamped with the
//! current git commit so a checked-in file is traceable to the tree that
//! produced it.
//!
//! The decode stack is the production tiered pipeline: empty shots skip
//! decoding outright (tier 0), certifiable sparse shots resolve in the
//! predecoder (tier 1), dense shots are flood-decomposed by the cluster
//! tier (fully-peeled shots never reach a decoder call), and only the
//! residue reaches the union-find decoder. Per-tier shot counters, the
//! sample/extract/predecode/cluster/decode timing split, the defect-count
//! and cluster-size histograms, and per-tier per-shot latency percentiles
//! (from the engine's observability sink) all land in the JSON. A tier
//! that never fired contributes **no** percentile fields — consumers
//! (including `--compare`) must treat the fields as optional rather than
//! read zeros that were never measured.
//!
//! Each config row also carries its one-off set-up costs, timed once per
//! distance and shared by both thread rows: `dem_seconds` (`extract_dem`),
//! `graph_seconds` (`MatchingGraph::from_dem`), `compile_seconds`
//! (`CompiledCircuit::new`) and `tables_seconds` (`Tiered::new`'s
//! predecoder tables plus one build of the cluster tier's widened tables,
//! which every engine worker repeats inside the run unless the gate is
//! off).
//!
//! The binary also asserts the engine's accounting invariants and exits
//! nonzero when they fail: the four tiers must partition the shot budget,
//! the defect histogram must sum to the shots, the cluster-size histogram
//! must sum to `clusters_total`, and the phase timers must fit the wall
//! budget.
//!
//! Flags: `--shots N` (shot budget per config, default 100 000),
//! `--threads N` (worker count, default auto), `--configs LIST`
//! (comma-separated distances), `--cluster-tier auto|on|off` (`auto`
//! runs the cluster decomposition on batches averaging at least
//! `caliqec_match::CLUSTER_GATE_MIN_MEAN_DEFECTS` defects/shot), `--out PATH`,
//! `--label TEXT` (free-form run label stamped into the JSON),
//! `--compare OLD.json` (after running, print a per-config speedup table
//! against a previously written file — a missing, corrupt, or
//! wrong-schema baseline is a clean error and a nonzero exit, not a
//! panic; see `caliqec_bench::compare` — and warn on stderr when decode
//! time or a p99 latency regressed by more than 10%).
//! Results are deterministic in the shot budget; timings obviously are not.

use caliqec_bench::compare::{compare_table, load_baseline, regression_warnings};
use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    ClusterGate, ClusterTier, LerEngine, MatchingGraph, SampleOptions, Tiered, UnionFindDecoder,
};
use caliqec_obs::{Hist, HistSnapshot, ObsSink};
use caliqec_stab::{extract_dem, CompiledCircuit};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Warn when a compared percentile or decode time regresses by more than
/// this ratio (new > old × threshold).
const REGRESSION_WARN_RATIO: f64 = 1.10;

/// Best-effort current commit hash; "unknown" outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders a tier's latency percentiles as JSON fields, or nothing at all
/// when the tier never fired — absent fields, not zeros.
fn percentile_fields(prefix: &str, h: &HistSnapshot) -> String {
    if h.count == 0 {
        return String::new();
    }
    let us = |q: f64| h.quantile_nanos(q) / 1e3;
    format!(
        concat!(
            "\"{0}_p50_us\": {1:.3}, \"{0}_p95_us\": {2:.3}, ",
            "\"{0}_p99_us\": {3:.3}, \"{0}_max_us\": {4:.3}, "
        ),
        prefix,
        us(0.50),
        us(0.95),
        us(0.99),
        h.max_nanos as f64 / 1e3,
    )
}

/// Runs `f`, returning its result and wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Renders a histogram slice as a JSON array body.
fn histogram_body(hist: &[u64]) -> String {
    let mut out = String::new();
    for (j, count) in hist.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        write!(out, "{count}").expect("write to string");
    }
    out
}

fn main() -> ExitCode {
    let shots = caliqec_bench::usize_from_args("shots", 100_000);
    let threads = caliqec_bench::threads_from_args();
    let out = caliqec_bench::string_from_args("out", "BENCH_decode.json");
    let label = caliqec_bench::string_from_args("label", "");
    let compare = caliqec_bench::string_from_args("compare", "");
    let configs_arg = caliqec_bench::string_from_args("configs", "7,11,15");
    let cluster_tier = caliqec_bench::string_from_args("cluster-tier", "auto");
    let p = 1e-3;

    let gate = match cluster_tier.as_str() {
        "auto" => ClusterGate::Auto,
        "on" => ClusterGate::On,
        "off" => ClusterGate::Off,
        other => {
            eprintln!("perf_smoke: error: --cluster-tier wants auto|on|off, got {other:?}");
            return ExitCode::from(2);
        }
    };

    let mut distances = Vec::new();
    for part in configs_arg.split(',') {
        match part.trim().parse::<usize>() {
            Ok(d) if d >= 3 && d % 2 == 1 => distances.push(d),
            _ => {
                eprintln!(
                    "perf_smoke: error: --configs wants comma-separated odd distances >= 3, \
                     got {part:?}"
                );
                return ExitCode::from(2);
            }
        }
    }

    let mut configs = String::new();
    let mut rows = 0usize;
    for d in distances.iter().copied() {
        let mem = memory_circuit(
            &rotated_patch(d, d),
            &NoiseModel::uniform(p),
            d,
            MemoryBasis::Z,
        );
        let (compiled, compile_seconds) = timed(|| CompiledCircuit::new(&mem.circuit));
        let (dem, dem_seconds) = timed(|| extract_dem(&mem.circuit));
        let (graph, graph_seconds) = timed(|| MatchingGraph::from_dem(&dem));
        drop(dem);
        let (tiered, tables_seconds) = timed(|| {
            if gate != ClusterGate::Off {
                std::hint::black_box(ClusterTier::new(&graph));
            }
            Tiered::new(&graph, {
                let graph = graph.clone();
                move || UnionFindDecoder::new(graph.clone())
            })
            .with_cluster_gate(gate)
        });
        eprintln!(
            "perf_smoke: d={d} set-up: dem {dem_seconds:.3}s, graph {graph_seconds:.3}s, \
             compile {compile_seconds:.3}s, tables {tables_seconds:.3}s"
        );
        // Every config gets a second row pinned to 8 workers so the
        // checked-in JSON tracks parallel scaling across commits (skipped
        // when the primary row already resolves to 8 threads — the results
        // would be byte-identical). Both rows share a seed, so matching
        // shots/failures double as a thread-determinism check.
        let mut thread_rows = vec![threads];
        if LerEngine::new(threads).threads() != 8 {
            thread_rows.push(8);
        }
        for row_threads in thread_rows {
            // One sink per row so the per-tier latency histograms don't mix
            // distances or thread counts; observation is passive, so the
            // estimate is bit-identical to an uninstrumented engine.
            let sink = ObsSink::enabled();
            let engine = LerEngine::new(row_threads).with_obs(sink.clone());
            eprintln!(
                "perf_smoke: d={d}, {shots} shots, {} threads, cluster tier {cluster_tier}...",
                engine.threads()
            );
            let run = engine.estimate(
                &compiled,
                &tiered,
                SampleOptions {
                    min_shots: shots,
                    ..Default::default()
                },
                0xC0FFEE + d as u64,
            );
            eprintln!(
                "perf_smoke: d={d}: {:.0} shots/s (sample {:.3}s, extract {:.3}s, \
             predecode {:.3}s, cluster {:.3}s, decode {:.3}s; tier0 {}, predecoded {}, \
             clustered {}, residual {})",
                run.shots_per_sec(),
                run.sample_seconds,
                run.extract_seconds,
                run.predecode_seconds,
                run.cluster_seconds,
                run.decode_seconds,
                run.tier0_shots,
                run.predecoded_shots,
                run.clustered_shots,
                run.residual_shots,
            );
            // Accounting invariants: the four tiers partition the shot budget
            // and each histogram sums to the population it claims to cover. A
            // violation means the engine's tier dispatch is broken, which
            // would silently skew every number this binary reports.
            let partition =
                run.tier0_shots + run.predecoded_shots + run.clustered_shots + run.residual_shots;
            if partition != run.estimate.shots {
                eprintln!(
                    "perf_smoke: error: tier partition broke at d={d}: \
                 {} + {} + {} + {} = {partition} != {} shots",
                    run.tier0_shots,
                    run.predecoded_shots,
                    run.clustered_shots,
                    run.residual_shots,
                    run.estimate.shots
                );
                return ExitCode::from(3);
            }
            let defect_sum: u64 = run.defect_histogram.iter().sum();
            if defect_sum != run.estimate.shots as u64 {
                eprintln!(
                    "perf_smoke: error: defect histogram sums to {defect_sum}, \
                 expected {} shots at d={d}",
                    run.estimate.shots
                );
                return ExitCode::from(3);
            }
            let cluster_sum: u64 = run.cluster_size_histogram.iter().sum();
            if cluster_sum != run.clusters_total {
                eprintln!(
                    "perf_smoke: error: cluster-size histogram sums to {cluster_sum}, \
                 expected clusters_total = {} at d={d}",
                    run.clusters_total
                );
                return ExitCode::from(3);
            }
            // The phase timers partition each chunk's wall clock per worker, so
            // their sum across workers can never exceed workers × run wall
            // (5% slack for timer granularity).
            let phase_sum = run.sample_seconds
                + run.extract_seconds
                + run.predecode_seconds
                + run.cluster_seconds
                + run.decode_seconds;
            if phase_sum > run.threads as f64 * run.wall_seconds * 1.05 {
                eprintln!(
                    "perf_smoke: error: phase timers exceed the wall budget: \
                 {phase_sum:.6}s over {} × {:.6}s — timing attribution is broken",
                    run.threads, run.wall_seconds
                );
                return ExitCode::from(1);
            }
            let snap = sink.snapshot();
            let tier1 = snap
                .hist(Hist::PredecodeShot)
                .cloned()
                .unwrap_or_else(|| HistSnapshot::empty(Hist::PredecodeShot.name()));
            let cluster_hist = snap
                .hist(Hist::ClusterShot)
                .cloned()
                .unwrap_or_else(|| HistSnapshot::empty(Hist::ClusterShot.name()));
            let tier2 = snap.decode_shot_hist();
            if rows > 0 {
                configs.push_str(",\n");
            }
            rows += 1;
            write!(
                configs,
                concat!(
                    "    {{\"d\": {}, \"p\": {}, \"rounds\": {}, \"threads\": {}, ",
                    "\"shots\": {}, \"failures\": {}, \"shots_per_sec\": {:.1}, ",
                    "\"wall_seconds\": {:.6}, \"sample_seconds\": {:.6}, ",
                    "\"extract_seconds\": {:.6}, \"predecode_seconds\": {:.6}, ",
                    "\"cluster_seconds\": {:.6}, ",
                    "\"decode_seconds\": {:.6}, \"tier0_shots\": {}, ",
                    "\"predecoded_shots\": {}, \"predecoded_defects\": {}, ",
                    "\"clustered_shots\": {}, \"clustered_defects\": {}, ",
                    "\"clusters_total\": {}, ",
                    "\"cluster_gate_on\": {}, \"cluster_gate_off\": {}, ",
                    "\"residual_shots\": {}, \"reweight_seconds\": {:.6}, ",
                    "\"epochs\": {}, ",
                    "\"dem_seconds\": {:.6}, \"graph_seconds\": {:.6}, ",
                    "\"compile_seconds\": {:.6}, \"tables_seconds\": {:.6}, ",
                    "{}{}{}",
                    "\"defect_histogram\": [{}], ",
                    "\"cluster_size_histogram\": [{}]}}"
                ),
                d,
                p,
                d,
                run.threads,
                run.estimate.shots,
                run.estimate.failures,
                run.shots_per_sec(),
                run.wall_seconds,
                run.sample_seconds,
                run.extract_seconds,
                run.predecode_seconds,
                run.cluster_seconds,
                run.decode_seconds,
                run.tier0_shots,
                run.predecoded_shots,
                run.predecoded_defects,
                run.clustered_shots,
                run.clustered_defects,
                run.clusters_total,
                run.cluster_gate_on,
                run.cluster_gate_off,
                run.residual_shots,
                run.reweight_seconds,
                run.epochs,
                dem_seconds,
                graph_seconds,
                compile_seconds,
                tables_seconds,
                percentile_fields("tier1", &tier1),
                percentile_fields("cluster", &cluster_hist),
                percentile_fields("tier2", &tier2),
                histogram_body(&run.defect_histogram),
                histogram_body(&run.cluster_size_histogram),
            )
            .expect("write to string");
        }
    }

    let json = format!(
        "{{\n  \"commit\": \"{}\",\n  \"label\": \"{}\",\n  \"configs\": [\n{configs}\n  ]\n}}\n",
        git_commit(),
        label.replace('"', "'"),
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("perf_smoke: error: writing {out}: {e}");
        return ExitCode::from(4);
    }
    eprintln!("perf_smoke: wrote {out}");

    if !compare.is_empty() {
        let old = match load_baseline(&compare) {
            Ok(old) => old,
            Err(e) => {
                eprintln!("perf_smoke: error: {e}");
                return ExitCode::from(4);
            }
        };
        println!("perf_smoke: this run vs {compare}");
        print!("{}", compare_table(&json, &old));
        for warning in regression_warnings(&json, &old, REGRESSION_WARN_RATIO) {
            eprintln!("perf_smoke: warning: {warning}");
        }
    }
    ExitCode::SUCCESS
}
