//! The `caliqec` binary's flag handling: each subcommand rejects flags it
//! does not read with a usage error (exit 2) that names the flag, and a
//! valid invocation still runs.

use std::process::{Command, Output};

fn caliqec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_caliqec"))
        .args(args)
        .output()
        .expect("caliqec binary runs")
}

fn assert_usage_error(args: &[&str], names: &str) {
    let out = caliqec(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(names),
        "{args:?}: stderr must name {names:?}, got {stderr:?}"
    );
}

#[test]
fn simulate_rejects_removed_flags() {
    // Skipping a switch the subcommand does not know would silently take
    // `--mc-shots` as its value.
    for removed in [
        &["--drift-aware"][..],
        &["--rare-event"],
        &["--boost-beta", "4"],
        &["--target-rse", "0.1"],
    ] {
        let mut args = vec!["simulate"];
        args.extend_from_slice(removed);
        args.extend_from_slice(&["--mc-shots", "512"]);
        assert_usage_error(&args, removed[0]);
    }
}

#[test]
fn serve_rejects_an_unknown_flag() {
    assert_usage_error(&["serve", "--bogus", "1"], "--bogus");
}

#[test]
fn flags_of_another_subcommand_are_rejected() {
    assert_usage_error(&["draw", "--mc-shots", "512"], "--mc-shots");
}

#[test]
fn stream_smoke_is_not_a_subcommand() {
    assert_usage_error(&["stream-smoke"], "stream-smoke");
}

#[test]
fn tiny_simulate_succeeds() {
    let out = caliqec(&[
        "simulate",
        "--rows",
        "3",
        "--cols",
        "3",
        "--distance",
        "3",
        "--hours",
        "2",
        "--mc-shots",
        "64",
        "--threads",
        "1",
        "--quiet",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("calibrations"));
}

#[test]
fn serve_takes_no_fault_plan() {
    // The streaming service has no injection point: a plan it would
    // silently ignore is refused instead.
    assert_usage_error(
        &[
            "serve",
            "--tenants",
            "2",
            "--windows",
            "8",
            "--faults",
            "panic@0",
        ],
        "--faults",
    );
}

#[test]
fn serve_has_no_cluster_switch() {
    // The service always decodes without the cluster tier; a stale script
    // asking for it is refused rather than silently run without it.
    assert_usage_error(
        &["serve", "--tenants", "2", "--windows", "8", "--cluster"],
        "--cluster",
    );
}

/// The printed round latency is a measurement on every run, not only when
/// an export flag happens to enable the observability sink.
#[test]
fn serve_prints_a_measured_latency_without_exports() {
    let out = caliqec(&[
        "serve",
        "--tenants",
        "2",
        "--windows",
        "8",
        "--workers",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let p50: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("round latency us: p50 "))
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no round latency line in {stdout:?}"));
    assert!(p50 > 0.0, "p50 {p50} is a placeholder, not a measurement");
}

#[test]
fn simulate_refuses_fault_kinds_it_cannot_inject() {
    for spec in ["wedge@0", "stall@1", "badweights@2"] {
        let kind = spec.split('@').next().unwrap();
        assert_usage_error(
            &[
                "simulate",
                "--distance",
                "3",
                "--mc-shots",
                "64",
                "--faults",
                spec,
            ],
            kind,
        );
    }
}

/// The engine recovers injected decoder panics on its degradation ladder
/// without changing a bit of the trace; only `--strict` objects.
#[test]
fn injected_faults_leave_simulate_stdout_unchanged() {
    let base = [
        "simulate",
        "--rows",
        "3",
        "--cols",
        "3",
        "--distance",
        "3",
        "--hours",
        "2",
        "--mc-shots",
        "256",
        "--threads",
        "2",
    ];
    let clean = caliqec(&base);
    assert_eq!(clean.status.code(), Some(0));
    let faults = [&base[..], &["--faults", "panic@0,corrupt@2"]].concat();
    let chaos = caliqec(&faults);
    assert_eq!(
        chaos.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&chaos.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&chaos.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "recovered faults must not change the trace"
    );
    assert!(String::from_utf8_lossy(&chaos.stderr).contains("faulted chunks"));
    let strict = caliqec(&[&faults[..], &["--strict"]].concat());
    assert_eq!(
        strict.status.code(),
        Some(5),
        "--strict refuses a degraded run"
    );
}
