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
