//! Benchmark of the CaliQEC decode and calibration stack.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--threads T]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --check
//! ```
//!
//! One workload per process. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of `BENCHMARK.json` when `--trace 0`, its per-layer metrics when
//! `--trace 1`. Each end-to-end timing is a median over sub-measurements.
//! Timings that follow the host's speed are scaled to the reference host's
//! speed by probes timed just before and after each sub-measurement
//! (`host::HostSpeed`; which timings, and the data behind the choice, are
//! in the README), and their medians as measured go to the results file.
//! A results file with the run manifest (and, for traced runs, the spans)
//! is written under `benchmark/out/`. Any failed correctness
//! check makes the run print `"correct": false` and exit 1; a usage error
//! exits 2 without a result. See `benchmark/README.md`.

mod calib;
mod checks;
mod host;
mod mem;
mod replay;
mod spec;
mod stats;
mod stream;
mod trace;

use host::{HostSpeed, Manifest, Timing};
use spec::{END_TO_END, PER_LAYER, UNBOUNDED, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// Threads (engine workers or service workers) every workload runs with,
/// capped at the host's cores.
const DEFAULT_THREADS: usize = 2;
const DEFAULT_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Measurement budget; each workload's loop runs at least this long.
    pub seconds: f64,
    pub threads: usize,
}

/// What one workload run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Results-file-only numbers: sample counts and secondary views.
    pub details: Vec<(String, f64)>,
    pub violations: Vec<String>,
    pub tracer: Option<Tracer>,
    /// Probed around the sub-measurements of untraced runs.
    pub speed: HostSpeed,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64) {
        self.details.push((name.into(), value));
    }

    /// Reports `t` as metric `name` at the reference host's speed; its
    /// median as measured and its sample count go to the results file.
    pub fn timing(&mut self, name: &'static str, t: &Timing) {
        self.check(t.len() > 0, format!("{name} has no samples"));
        self.metric(name, t.scaled_median());
        self.detail(format!("raw_{name}"), t.raw_median());
        self.detail(format!("{name}_samples"), t.len() as f64);
    }

    /// Reports the median of `samples` as metric `name`, as measured, for
    /// the timings that scaling made less steady (README); the sample
    /// count goes to the results file.
    pub fn as_measured(&mut self, name: &'static str, samples: &[f64]) {
        self.check(!samples.is_empty(), format!("{name} has no samples"));
        self.metric(name, stats::median(samples));
        self.detail(format!("{name}_samples"), samples.len() as f64);
    }

    pub fn check(&mut self, ok: bool, violation: impl Into<String>) {
        if !ok {
            self.violations.push(violation.into());
        }
    }

    /// Fails the run on any failed operation. Every workload is sized so
    /// that none fails, and a failure fraction is 0 there, so it is
    /// checked rather than reported as a metric with a bound.
    pub fn check_no_failures(&mut self) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.detail("failed_frac", frac);
        self.check(
            self.failed == 0,
            format!(
                "{} of {} operations failed (failed_frac {frac:e})",
                self.failed, self.attempted
            ),
        );
    }
}

fn run_workload(name: &str, trace: bool, opts: &RunOpts) -> Outcome {
    match (name, trace) {
        ("mem_d7_sparse", false) => mem::run(&mem::D7, opts),
        ("mem_d7_sparse", true) => mem::trace(&mem::D7, opts),
        ("mem_d15_dense", false) => mem::run(&mem::D15, opts),
        ("mem_d15_dense", true) => mem::trace(&mem::D15, opts),
        ("calib_runtime_d11", false) => calib::run(&calib::D11, opts),
        ("calib_runtime_d11", true) => calib::trace(&calib::D11, opts),
        ("stream_d5_open", false) => stream::run(&stream::D5, opts),
        ("stream_d5_open", true) => stream::trace(&stream::D5, opts),
        _ => unreachable!("workload names are validated by the argument parser"),
    }
}

/// Adds the process's peak memory to an untraced run, fills per-layer
/// metrics a workload does not exercise with 0, and flags any metric that
/// is missing, unexpected, or not a finite number.
fn complete_metrics(out: &mut Outcome, trace: bool) {
    let expected = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    if trace {
        for (name, _) in expected {
            out.metrics.entry(name).or_insert(0.0);
        }
    } else {
        out.metric("peak_rss_mb", host::peak_rss_mb());
    }
    let mut problems = Vec::new();
    for (name, _) in expected {
        match out.metrics.get(name) {
            None => problems.push(format!("metric {name} was not measured")),
            Some(v) if !v.is_finite() => problems.push(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    for name in out.metrics.keys() {
        if !expected.iter().any(|(n, _)| n == name) || !spec::valid_metric_name(name) {
            problems.push(format!("unexpected metric {name}"));
        }
    }
    out.violations.extend(problems);
}

fn result_line(out: &Outcome, trace: bool) -> String {
    let units = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in units.iter().enumerate() {
        let v = out
            .metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to string");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed,
    )
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the results file (manifest, result, details, violations) and,
/// for traced runs, the spans. Failing to write is reported, not fatal:
/// the result line on standard output is the measurement of record.
fn write_results(manifest: &Manifest, out: &Outcome, line: &str, wall_s: f64) {
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}{}",
        manifest.workload,
        manifest.seed,
        if manifest.trace { "-trace" } else { "" }
    );
    let mut details = String::new();
    for (i, (k, v)) in out.details.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        write!(details, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" }).expect("write to string");
    }
    let violations: Vec<String> = out
        .violations
        .iter()
        .map(|v| format!("\"{}\"", v.replace('\\', "/").replace('"', "'")))
        .collect();
    let json = format!(
        "{{\n  \"manifest\": {},\n  \"wall_s\": {wall_s},\n  \"result\": {line},\n  \"details\": {{{details}}},\n  \"violations\": [{}]\n}}\n",
        manifest.to_json(host::loadavg()),
        violations.join(", "),
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), json))
        .and_then(|_| match &out.tracer {
            Some(t) => std::fs::write(dir.join(format!("{stem}.spans.tsv")), t.to_tsv()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "benchmark: warning: cannot write results under {}: {e}",
            dir.display()
        );
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    check: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        threads: DEFAULT_THREADS.min(host::available_parallelism()),
        check: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; expected all or one of {WORKLOADS:?}"
                    ));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = number(value)?,
            "--seconds" => args.seconds = number(value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            "--threads" => {
                let t = number(value)? as usize;
                let cores = host::available_parallelism();
                if t == 0 || t > cores {
                    return Err(format!(
                        "refusing --threads {t}: this host has {cores} available cores"
                    ));
                }
                args.threads = t;
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_none() && !args.check {
        return Err("pass --workload <name|all> or --check".into());
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    let manifest = Manifest::capture(workload, args.seed, args.seconds, args.trace, args.threads);
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds as f64,
        threads: args.threads,
    };
    let t0 = Instant::now();
    let mut out = run_workload(workload, args.trace, &opts);
    out.check_no_failures();
    if !args.trace {
        let (probes, probe_s) = (out.speed.probes(), out.speed.median_probe_s());
        out.detail("host_probes", probes as f64);
        out.detail("host_probe_median_s", probe_s);
    }
    complete_metrics(&mut out, args.trace);
    let wall_s = t0.elapsed().as_secs_f64();
    let line = result_line(&out, args.trace);
    write_results(&manifest, &out, &line, wall_s);
    for v in &out.violations {
        eprintln!("benchmark: {workload}: violation: {v}");
    }
    eprintln!(
        "benchmark: {workload}: {wall_s:.1} s, {} threads",
        args.threads
    );
    println!("{line}");
    if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Reads the number that follows `key` in a JSON text.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Runs every workload, each in a fresh process, and prints a table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let units = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut ok = true;
    let mut table = String::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--threads",
                &args.threads.to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let Ok(child) = child else {
            eprintln!("benchmark: {w}: could not start");
            ok = false;
            continue;
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout.lines().last().unwrap_or("").to_string();
        let correct = line.contains("\"correct\": true");
        ok &= child.status.success() && correct;
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        writeln!(table, "{w} (correct: {correct})").expect("write to string");
        for (name, unit) in units {
            let v = number_after(&line, &format!("\"{name}\": {{\"value\": "))
                .map_or("missing".to_string(), |v| format!("{v:.6}"));
            writeln!(table, "  {name:<32} {v:>18} {unit}").expect("write to string");
        }
        if !args.trace {
            let results = out_dir().join(format!("{w}-seed{}.json", args.seed));
            let results = std::fs::read_to_string(results).unwrap_or_default();
            for (name, unit) in UNBOUNDED {
                let v = number_after(&results, &format!("\"{name}\": "))
                    .map_or("n/a".to_string(), |v| format!("{v:.6}"));
                writeln!(table, "  {name:<32} {v:>18} {unit} (no bound)").expect("write to string");
            }
        }
    }
    print!("{table}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every correctness check on small inputs, plus the contract checks:
/// metric names against `BENCHMARK.json` and build-profile parity.
fn run_check(args: &Args) -> ExitCode {
    let t0 = Instant::now();
    let mut problems: Vec<String> = Vec::new();
    let json = include_str!("../../BENCHMARK.json");
    problems.extend(spec::metric_mismatches(json, "end_to_end", &END_TO_END));
    problems.extend(spec::metric_mismatches(json, "per_layer", &PER_LAYER));
    let ours = spec::release_profile(include_str!("../Cargo.toml"));
    let root = spec::release_profile(include_str!("../../Cargo.toml"));
    if ours != root || ours.is_empty() {
        problems.push(format!(
            "[profile.release] differs: benchmark {ours:?}, root {root:?}"
        ));
    }
    let opts = RunOpts {
        seed: 1,
        seconds: 0.0,
        threads: args.threads,
    };
    for (name, mut out, seconds) in checks::all(&opts) {
        out.check_no_failures();
        complete_metrics(&mut out, false);
        eprintln!(
            "benchmark: check {name}: {} violations, {seconds:.1} s",
            out.violations.len()
        );
        problems.extend(out.violations.into_iter().map(|v| format!("{name}: {v}")));
    }
    for p in &problems {
        eprintln!("benchmark: check failed: {p}");
    }
    eprintln!("benchmark: check took {:.1} s", t0.elapsed().as_secs_f64());
    if problems.is_empty() {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload <all|{}> [--seed N] [--seconds S] [--trace 0|1] [--threads T] | --check",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.check {
        return run_check(&args);
    }
    match args.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(w) => run_one(w, &args),
        None => unreachable!("parse_args requires a workload or --check"),
    }
}
