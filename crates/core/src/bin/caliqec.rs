//! `caliqec` — command-line front end to the CaliQEC framework.
//!
//! ```text
//! caliqec characterize [--rows N] [--cols N] [--seed S]
//! caliqec plan         [--rows N] [--cols N] [--distance D] [--delta-d K] [--p-tar P]
//! caliqec simulate     [--rows N] [--cols N] [--distance D] [--hours H] [--no-enlarge]
//!                      [--strict] [--faults SPEC] [--quiet]
//!                      [--trace-csv FILE] [--metrics-out FILE] [--trace-out FILE]
//!                      [--prom-out FILE]
//! caliqec draw         [--distance D] [--lattice square|heavy-hex] [--hole R,C ...]
//! caliqec serve        [--tenants N] [--distance D] [--windows W] [--rounds R]
//!                      [--workers T] [--queue-bound Q] [--deadline-us U]
//!                      [--gap-us G] [--seed S] [--p P] [--strict]
//!                      [--health-out FILE] [--metrics-out FILE] [--prom-out FILE]
//! caliqec help
//! ```
//!
//! Every subcommand builds a synthetic device (the substitution for hardware
//! access documented in DESIGN.md), so the tool runs self-contained. Each
//! subcommand accepts only the flags it reads (plus the global `--quiet`);
//! any other flag is a usage error.
//!
//! Errors map to distinct exit codes so scripts can tell failure classes
//! apart: 1 runtime, 2 usage, 3 validation, 4 I/O, 5 degraded-under-strict.

use caliqec::{compile, run_runtime_observed, CaliqecConfig, Preparation};
use caliqec_code::{
    code_distance, data_coord, draw_layout, DeformInstruction, DeformedPatch, Lattice,
};
use caliqec_device::{DeviceConfig, DeviceModel};
use caliqec_match::{
    graph_for_circuit, loopback_serve, FaultPlan, LoopbackOptions, StreamConfig, TenantSpec,
    Tiered, UnionFindDecoder,
};
use caliqec_obs::{
    render_chrome_trace, render_json, render_prometheus, render_summary, verbosity, ObsSink,
    Verbosity,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

/// Classified CLI failures; each class owns a distinct exit code.
enum CliError {
    /// Anything that went wrong while executing an otherwise-valid request
    /// (exit 1).
    Runtime(String),
    /// Malformed command line or environment configuration (exit 2).
    Usage(String),
    /// Structurally invalid inputs rejected by the framework's validators
    /// (exit 3).
    Validation(String),
    /// Filesystem failures, e.g. an unwritable `--metrics-out` path
    /// (exit 4).
    Io(String),
    /// `--strict` was set and the run needed the decoder degradation
    /// ladder (exit 5).
    Degraded(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Runtime(_) => ExitCode::from(1),
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Validation(_) => ExitCode::from(3),
            CliError::Io(_) => ExitCode::from(4),
            CliError::Degraded(_) => ExitCode::from(5),
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Runtime(m)
            | CliError::Usage(m)
            | CliError::Validation(m)
            | CliError::Io(m)
            | CliError::Degraded(m) => m,
        }
    }
}

/// A subcommand: its name, the flags it reads, and its entry point.
struct Command {
    name: &'static str,
    /// Boolean flags (`--name`).
    switches: &'static [&'static str],
    /// Flags that take a value (`--name VALUE`).
    options: &'static [&'static str],
    run: fn(&Args) -> Result<(), CliError>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "characterize",
        switches: &["probe"],
        options: &["rows", "cols", "seed", "threads"],
        run: cmd_characterize,
    },
    Command {
        name: "plan",
        switches: &[],
        options: &["rows", "cols", "seed", "distance", "delta-d", "p-tar"],
        run: cmd_plan,
    },
    Command {
        name: "simulate",
        switches: &["no-enlarge", "strict"],
        options: &[
            "rows",
            "cols",
            "seed",
            "distance",
            "delta-d",
            "hours",
            "threads",
            "mc-shots",
            "faults",
            "trace-csv",
            "metrics-out",
            "trace-out",
            "prom-out",
        ],
        run: cmd_simulate,
    },
    Command {
        name: "draw",
        switches: &[],
        options: &["distance", "lattice", "hole"],
        run: cmd_draw,
    },
    Command {
        name: "serve",
        switches: &["strict"],
        options: &[
            "tenants",
            "distance",
            "windows",
            "rounds",
            "workers",
            "queue-bound",
            "deadline-us",
            "gap-us",
            "seed",
            "p",
            "health-out",
            "metrics-out",
            "prom-out",
        ],
        run: cmd_serve,
    },
];

struct Args {
    flags: HashMap<String, String>,
    holes: Vec<(usize, usize)>,
}

/// Parses `cmd`'s flags, rejecting any flag it does not read.
fn parse_args(cmd: &Command, argv: &[String]) -> Result<Args, String> {
    let mut flags = HashMap::new();
    let mut holes = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        if key == "quiet" || cmd.switches.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            continue;
        }
        if !cmd.options.contains(&key) {
            return Err(format!(
                "`caliqec {}` does not take --{key} (try `caliqec help`)",
                cmd.name
            ));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?
            .clone();
        if key == "hole" {
            let (r, c) = value
                .split_once(',')
                .ok_or_else(|| format!("--hole wants R,C, got {value:?}"))?;
            holes.push((
                r.trim().parse().map_err(|_| format!("bad row {r:?}"))?,
                c.trim().parse().map_err(|_| format!("bad col {c:?}"))?,
            ));
        } else {
            flags.insert(key.to_string(), value);
        }
    }
    Ok(Args { flags, holes })
}

impl Args {
    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants an integer")),
        }
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a number")),
        }
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants an integer")),
        }
    }
}

fn device_from(args: &Args) -> Result<(DeviceModel, StdRng), CliError> {
    let rows = args.usize_or("rows", 5).map_err(CliError::Usage)?;
    let cols = args.usize_or("cols", 5).map_err(CliError::Usage)?;
    let mut rng = StdRng::seed_from_u64(args.u64_or("seed", 0).map_err(CliError::Usage)?);
    let device = DeviceModel::synthetic(
        &DeviceConfig {
            rows,
            cols,
            ..DeviceConfig::default()
        },
        &mut rng,
    );
    Ok((device, rng))
}

fn cmd_characterize(args: &Args) -> Result<(), CliError> {
    let (device, mut rng) = device_from(args)?;
    let prep = if args.flags.contains_key("probe") {
        let threads = args.usize_or("threads", 0).map_err(CliError::Usage)?;
        Preparation::run_with_probes(&device, threads, &mut rng)
    } else {
        Preparation::run(&device, &mut rng)
    };
    println!("gate  kind            T_drift(h)  T_cali(min)  fit-rms");
    for (i, c) in prep.characterization.iter().enumerate() {
        println!(
            "{i:<5} {:<15} {:>9.2} {:>12.1} {:>8.4}",
            format!("{:?}", device.gates[i].kind),
            c.estimated.t_drift_hours,
            c.t_cali_hours * 60.0,
            c.fit_residual,
        );
    }
    if let Some(probes) = &prep.crosstalk {
        println!("\ngate  measured nbr(g)");
        for p in probes {
            println!("{:<5} {:?}", p.gate, p.nbr);
        }
    }
    Ok(())
}

/// Parses `--distance`, rejecting values the patch builders cannot
/// represent (they assert on dimensions < 2) with a typed validation
/// error instead of a caught panic.
fn distance_flag(args: &Args) -> Result<usize, CliError> {
    let d = args.usize_or("distance", 5).map_err(CliError::Usage)?;
    if d < 2 {
        return Err(CliError::Validation(format!(
            "--distance must be at least 2, got {d}"
        )));
    }
    Ok(d)
}

fn cmd_plan(args: &Args) -> Result<(), CliError> {
    let (device, mut rng) = device_from(args)?;
    let config = CaliqecConfig {
        distance: distance_flag(args)?,
        delta_d: args.usize_or("delta-d", 4).map_err(CliError::Usage)?,
        p_tar: args.f64_or("p-tar", 5e-3).map_err(CliError::Usage)?,
        ..CaliqecConfig::default()
    };
    let prep = Preparation::run(&device, &mut rng);
    let plan = compile(&device, &prep, &config, &mut rng);
    println!(
        "T_Cali = {:.2} h, {} groups, {} calibration ops per 24 h",
        plan.t_cali_hours(),
        plan.groups.groups.len(),
        plan.operations_over(24.0)
    );
    for (k, batches) in &plan.batches {
        let gates: usize = batches.iter().map(|b| b.gates.len()).sum();
        let time: f64 = batches.iter().map(|b| b.duration_hours).sum();
        let delta = plan.chosen_delta_d[k];
        println!(
            "group {k}: every {:.2} h — {gates} gates in {} batches, {:.1} min, Δd = {delta}",
            *k as f64 * plan.t_cali_hours(),
            batches.len(),
            time * 60.0,
        );
    }
    Ok(())
}

/// Silences the default panic hook for the engine's named worker threads
/// while faults are armed, so injected (caught and retried) panics don't
/// spray backtraces over the trace output. Panics on any other thread
/// still print normally.
fn quiet_worker_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("caliqec-ler-"));
        if !worker {
            default_hook(info);
        }
    }));
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let (device, mut rng) = device_from(args)?;
    let config = CaliqecConfig {
        distance: distance_flag(args)?,
        delta_d: args.usize_or("delta-d", 4).map_err(CliError::Usage)?,
        enlarge: !args.flags.contains_key("no-enlarge"),
        threads: args.usize_or("threads", 0).map_err(CliError::Usage)?,
        mc_shots: args.usize_or("mc-shots", 0).map_err(CliError::Usage)?,
        ..CaliqecConfig::default()
    };
    let hours = args.f64_or("hours", 24.0).map_err(CliError::Usage)?;
    if hours.is_nan() || hours <= 0.0 {
        return Err(CliError::Usage(format!(
            "--hours wants a positive number, got {hours}"
        )));
    }
    let strict = args.flags.contains_key("strict");
    let faults = args
        .flags
        .get("faults")
        .map(|spec| {
            FaultPlan::parse(spec).map_err(|e| CliError::Usage(format!("--faults {spec:?}: {e}")))
        })
        .transpose()?;
    if faults.is_some() && config.mc_shots == 0 {
        return Err(CliError::Usage(
            "fault injection needs Monte-Carlo sampling; pass --mc-shots S > 0".to_string(),
        ));
    }
    if faults.is_some() {
        quiet_worker_panics();
    }
    // The observability sink stays disabled (zero-cost) unless an export
    // was requested; the trace is bit-identical either way.
    let want_obs = ["metrics-out", "trace-out", "prom-out"]
        .iter()
        .any(|k| args.flags.contains_key(*k));
    let sink = ObsSink::new(want_obs);
    if want_obs && config.mc_shots == 0 {
        return Err(CliError::Usage(
            "observability exports record the Monte-Carlo engine; pass --mc-shots S > 0"
                .to_string(),
        ));
    }
    let prep = Preparation::run(&device, &mut rng);
    let plan = compile(&device, &prep, &config, &mut rng);
    let report = run_runtime_observed(
        &device,
        Some(&plan),
        &config,
        hours,
        96,
        faults.as_ref(),
        &sink,
    );
    println!("hours  mean_p    distance  qubits  LER       measured  calibrating");
    for p in report.trace.iter().step_by(8) {
        let measured = p
            .measured_ler
            .map_or_else(|| "       -".to_string(), |m| format!("{m:.2e}"));
        println!(
            "{:>5.1}  {:.2e}  {:>8}  {:>6}  {:.2e}  {measured}  {:>3}",
            p.hours, p.mean_p, p.distance, p.physical_qubits, p.ler, p.calibrating
        );
    }
    println!(
        "\n{} calibrations; peak LER {:.2e}; {:.1}% of the run above target; peak qubits {}",
        report.calibrations,
        report.peak_ler(),
        report.exceedance_fraction() * 100.0,
        report.max_physical_qubits
    );
    let loud = verbosity::loud(Verbosity::Info);
    if loud && (report.faulted_chunks > 0 || report.degraded_shots > 0) {
        // Diagnostics go to stderr so the stdout trace stays bit-identical
        // to a fault-free run.
        eprintln!(
            "decoder degradation: {} faulted chunks, {} retries, {} shots on degraded rungs",
            report.faulted_chunks, report.retried_chunks, report.degraded_shots
        );
    }
    if let Some(path) = args.flags.get("trace-csv") {
        write_trace_csv(path, &report)
            .map_err(|e| CliError::Io(format!("cannot write trace to {path:?}: {e}")))?;
        if loud {
            eprintln!("trace CSV written to {path}");
        }
    }
    if sink.is_enabled() {
        let snap = sink.snapshot();
        if let Some(path) = args.flags.get("metrics-out") {
            write_text(path, &render_json(&snap))?;
            if loud {
                eprintln!("metrics snapshot written to {path}");
            }
        }
        if let Some(path) = args.flags.get("trace-out") {
            write_text(path, &render_chrome_trace(&snap))?;
            if loud {
                eprintln!("Chrome trace written to {path} (open in ui.perfetto.dev)");
            }
        }
        if let Some(path) = args.flags.get("prom-out") {
            write_text(path, &render_prometheus(&snap))?;
            if loud {
                eprintln!("Prometheus exposition written to {path}");
            }
        }
        if loud {
            eprint!("{}", render_summary(&snap));
        }
    }
    if strict && report.degraded() {
        return Err(CliError::Degraded(format!(
            "--strict: run needed the degradation ladder ({} faulted chunks, {} degraded shots)",
            report.faulted_chunks, report.degraded_shots
        )));
    }
    Ok(())
}

/// Writes one rendered export to `path`, classifying failures as I/O
/// errors (exit 4).
fn write_text(path: &str, body: &str) -> Result<(), CliError> {
    std::fs::write(path, body).map_err(|e| CliError::Io(format!("cannot write {path:?}: {e}")))
}

/// Writes the runtime trace as CSV, one row per trace point.
fn write_trace_csv(path: &str, report: &caliqec::RuntimeReport) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "hours,mean_p,distance,physical_qubits,ler,measured_ler,calibrating"
    )?;
    for p in &report.trace {
        let measured = p.measured_ler.map_or(String::new(), |m| format!("{m:e}"));
        writeln!(
            out,
            "{:.4},{:e},{},{},{:e},{measured},{}",
            p.hours, p.mean_p, p.distance, p.physical_qubits, p.ler, p.calibrating
        )?;
    }
    out.flush()
}

fn cmd_draw(args: &Args) -> Result<(), CliError> {
    let d = distance_flag(args)?;
    let lattice = match args.flags.get("lattice").map(String::as_str) {
        None | Some("square") => Lattice::Square,
        Some("heavy-hex") | Some("heavyhex") => Lattice::HeavyHex,
        Some(other) => return Err(CliError::Usage(format!("unknown lattice {other:?}"))),
    };
    let mut patch = DeformedPatch::new(lattice, d, d);
    for &(r, c) in &args.holes {
        patch
            .apply(DeformInstruction::DataQRm {
                qubit: data_coord(r, c),
            })
            .map_err(|e| CliError::Validation(format!("cannot isolate ({r},{c}): {e}")))?;
    }
    let layout = patch
        .layout()
        .map_err(|e| CliError::Validation(e.to_string()))?;
    println!("{}", draw_layout(&layout));
    let dist = code_distance(&layout);
    println!(
        "data qubits: {}, ancillas: {}, superstabilizers: {}, distance: z={} x={}",
        layout.data.len(),
        layout.ancillas().len(),
        layout.num_superstabilizers(),
        dist.z,
        dist.x
    );
    Ok(())
}

/// The decoder factory type the streaming service multiplexes: one
/// [`Tiered`] union-find stack per tenant, boxed so every tenant shares a
/// nameable factory type regardless of its captured graph.
type ServeFactory = Tiered<Box<dyn Fn() -> UnionFindDecoder + Send + Sync>>;

/// `caliqec serve`: run the streaming decode service against
/// deterministic loopback tenants.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};

    let tenants = args.usize_or("tenants", 4).map_err(CliError::Usage)?;
    if tenants == 0 {
        return Err(CliError::Validation("--tenants must be positive".into()));
    }
    let d = args
        .usize_or("distance", 3)
        .map_err(CliError::Usage)
        .and_then(|d| {
            if d < 2 {
                Err(CliError::Validation(format!(
                    "--distance must be at least 2, got {d}"
                )))
            } else {
                Ok(d)
            }
        })?;
    let windows = args.u64_or("windows", 64).map_err(CliError::Usage)?;
    let rounds = args.usize_or("rounds", d).map_err(CliError::Usage)?;
    let workers = args.usize_or("workers", 4).map_err(CliError::Usage)?;
    if workers == 0 {
        return Err(CliError::Validation("--workers must be positive".into()));
    }
    let queue_bound = args.usize_or("queue-bound", 4).map_err(CliError::Usage)?;
    if queue_bound == 0 {
        return Err(CliError::Validation(
            "--queue-bound must be positive".into(),
        ));
    }
    let deadline_us = args.u64_or("deadline-us", 0).map_err(CliError::Usage)?;
    let gap_us = args.u64_or("gap-us", 0).map_err(CliError::Usage)?;
    let seed = args.u64_or("seed", 0).map_err(CliError::Usage)?;
    let p = args.f64_or("p", 3e-3).map_err(CliError::Usage)?;
    if !(p.is_finite() && p > 0.0 && p < 0.5) {
        return Err(CliError::Validation(format!(
            "--p wants a probability in (0, 0.5), got {p}"
        )));
    }
    let strict = args.flags.contains_key("strict");
    // Always enabled: the printed latency quantiles read its histograms.
    let sink = ObsSink::enabled();

    // One loopback tenant per logical patch: same code, per-tenant seed.
    let mem = memory_circuit(
        &rotated_patch(d, d),
        &NoiseModel::uniform(p),
        d,
        MemoryBasis::Z,
    );
    let graph = graph_for_circuit(&mem.circuit);
    if rounds == 0 || rounds > graph.num_detectors() {
        return Err(CliError::Validation(format!(
            "--rounds must be in 1..={} for distance {d}",
            graph.num_detectors()
        )));
    }
    let specs: Vec<TenantSpec<ServeFactory>> = (0..tenants)
        .map(|_| {
            let g = graph.clone();
            let factory: Box<dyn Fn() -> UnionFindDecoder + Send + Sync> =
                Box::new(move || UnionFindDecoder::new(g.clone()));
            TenantSpec {
                factory: Tiered::new(&graph, factory),
                detectors: graph.num_detectors(),
            }
        })
        .collect();
    let circuits: Vec<_> = (0..tenants).map(|_| mem.circuit.clone()).collect();
    let config = StreamConfig {
        workers,
        queue_bound,
        deadline: (deadline_us > 0).then(|| std::time::Duration::from_micros(deadline_us)),
    };
    let opts = LoopbackOptions {
        windows_per_tenant: windows,
        rounds_per_window: rounds,
        gap: std::time::Duration::from_micros(gap_us),
        base_seed: seed,
    };
    let (report, driver) = loopback_serve(specs, &circuits, config, &opts, sink.clone())
        .map_err(|e| CliError::Validation(e.to_string()))?;
    let h = &report.health;
    println!(
        "serve: {tenants} tenants x {windows} windows (d={d}, {rounds} rounds/window), \
         {workers} workers, queue bound {queue_bound}"
    );
    println!(
        "decoded {} / shed {} / deferred {} windows; wedges {}, retries {}, queue peak {}",
        h.windows_decoded, h.windows_shed, h.windows_deferred, h.wedges, h.retries, h.queue_peak
    );
    println!(
        "round latency us: p50 {:.1}, p95 {:.1}, p99 {:.1}",
        h.round_latency_p50_us, h.round_latency_p95_us, h.round_latency_p99_us
    );
    println!("tenant  ingested  decoded  shed  deferred  rejected");
    for t in &h.tenants {
        println!(
            "{:>6}  {:>8}  {:>7}  {:>4}  {:>8}  {:>8}",
            t.tenant,
            t.rounds_ingested,
            t.rounds_decoded,
            t.rounds_shed,
            t.rounds_deferred,
            t.rounds_rejected
        );
    }
    println!(
        "scored {} shots, {} logical failures; {} windows rejected by backpressure",
        driver.shots_scored, driver.failures, driver.windows_rejected
    );
    // The accounting invariant is part of the service contract: surface a
    // violation as a runtime error, never silently.
    if h.rounds_pending() != 0 {
        return Err(CliError::Runtime(format!(
            "accounting violation: {} rounds ingested but never disposed",
            h.rounds_pending()
        )));
    }
    if let Some(path) = args.flags.get("health-out") {
        write_text(path, &h.to_json())?;
    }
    if let Some(path) = args.flags.get("metrics-out") {
        write_text(path, &render_json(&sink.snapshot()))?;
    }
    if let Some(path) = args.flags.get("prom-out") {
        write_text(path, &render_prometheus(&sink.snapshot()))?;
    }
    let degraded = h.windows_shed + h.windows_deferred + h.wedges > 0
        || h.tenants.iter().any(|t| t.rounds_rejected > 0);
    if strict && degraded {
        return Err(CliError::Degraded(format!(
            "--strict: service degraded ({} shed, {} deferred, {} wedges, {} windows rejected)",
            h.windows_shed, h.windows_deferred, h.wedges, driver.windows_rejected
        )));
    }
    Ok(())
}

const HELP: &str = "\
caliqec — in-situ qubit calibration for surface-code QEC

USAGE:
  caliqec characterize [--rows N] [--cols N] [--seed S] [--probe] [--threads T]
      Characterize a synthetic device (drift rates, calibration times);
      --probe additionally measures crosstalk neighbourhoods (Fig. 6).
  caliqec plan [--rows N] [--cols N] [--distance D] [--delta-d K] [--p-tar P]
      Compile the calibration plan (Algorithm 1 + adaptive batching).
  caliqec simulate [--rows N] [--cols N] [--distance D] [--hours H] [--no-enlarge]
                   [--threads T] [--mc-shots S] [--strict] [--faults SPEC]
                   [--quiet] [--trace-csv FILE] [--metrics-out FILE]
                   [--trace-out FILE] [--prom-out FILE]
      Run the in-situ calibration runtime and print the LER trace.
      --mc-shots S > 0 measures each trace point by Monte Carlo on the
      parallel LER engine; --threads T sets the worker count (default:
      the CALIQEC_THREADS environment variable, else all cores).
      --faults SPEC makes the decode of chosen engine chunks panic, as
      kind@chunk[,kind@chunk...] with kinds panic (a decoder bug) and
      corrupt (an out-of-range defect id); the engine recovers them on
      its degradation ladder and the summary reports the fallout.
      --strict exits with code 5 if any measurement was degraded.
      --trace-csv FILE writes the full LER trace as CSV.
      Observability (needs --mc-shots; recording is passive, the trace is
      bit-identical with it on or off):
      --metrics-out FILE writes a JSON snapshot of engine counters,
      latency histograms (p50/p95/p99), and the event journal.
      --trace-out FILE writes a Chrome trace-event JSON of chunk/fault/
      retry timelines; open it in ui.perfetto.dev or chrome://tracing.
      --prom-out FILE writes Prometheus text exposition format.
      --quiet silences stderr diagnostics and the metrics summary; the
      CALIQEC_LOG environment variable (quiet|info) sets the same level
      when the flag is absent.
  caliqec draw [--distance D] [--lattice square|heavy-hex] [--hole R,C ...]
      Render a (deformed) patch as ASCII art.
  caliqec serve [--tenants N] [--distance D] [--windows W] [--rounds R]
                [--workers T] [--queue-bound Q] [--deadline-us U] [--gap-us G]
                [--seed S] [--p P] [--strict]
                [--health-out FILE] [--metrics-out FILE] [--prom-out FILE]
                [--quiet]
      Run the streaming decode service against deterministic loopback
      tenants: each tenant replays a distance-D memory circuit round by
      round from seed chunk_seed(S, tenant) and the shared worker pool
      decodes the reassembled windows with union-find (no cluster
      tier). --queue-bound Q bounds each tenant's ingress queue (full
      queues reject windows — backpressure);
      --deadline-us U sheds a window dequeued later than U us after
      admission: it is not decoded or scored (0 disables shedding);
      --gap-us G paces the open-loop arrival schedule. --health-out writes
      the ServiceHealth JSON snapshot (per-tenant round accounting +
      latency quantiles); --metrics-out / --prom-out export the
      observability sink. --strict exits 5 when any window was shed,
      deferred (its decode kept panicking), rejected, or wedged. The
      ingested = decoded + shed + deferred round partition is asserted on
      every run.
  caliqec help

Every subcommand rejects flags it does not read (exit 2); --quiet is
accepted everywhere.

EXIT CODES:
  0 success   1 runtime error   2 usage error   3 invalid input
  4 I/O error 5 degraded run under --strict
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = argv.first() else {
        eprint!("{HELP}");
        return ExitCode::from(2);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command {name:?} (try `caliqec help`)");
        return ExitCode::from(2);
    };
    let args = match parse_args(cmd, &argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.flags.contains_key("quiet") {
        verbosity::set(Verbosity::Quiet);
    }
    // Unrecoverable framework panics (e.g. the LER engine exhausting its
    // degradation ladder) become classified runtime errors instead of an
    // abort, so scripts always see one of the documented exit codes.
    let dispatch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (cmd.run)(&args)));
    let result = dispatch.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "command panicked".to_string());
        Err(CliError::Runtime(msg))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            e.exit_code()
        }
    }
}
