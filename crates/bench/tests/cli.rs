//! The experiment binaries' flag handling: a flag the binary does not read,
//! or a value the experiment cannot run with, is a usage error (exit 2)
//! that names the flag, raised before any work is done.

use std::process::Command;

#[test]
fn drift_trajectory_rejects_a_distance_below_two() {
    let out_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("drift_rejected.json");
    for distance in ["--distance=0", "--distance=1"] {
        let _ = std::fs::remove_file(&out_path);
        let out = Command::new(env!("CARGO_BIN_EXE_drift_trajectory"))
            .args([distance, "--shots", "64", "--threads", "1", "--out"])
            .arg(&out_path)
            .output()
            .expect("drift_trajectory binary runs");
        assert_eq!(out.status.code(), Some(2), "{distance} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--distance"),
            "{distance}: stderr must name --distance, got {stderr:?}"
        );
        assert!(!out_path.exists(), "{distance}: no results file is written");
    }
}

#[test]
fn drift_trajectory_rejects_a_flag_it_does_not_read() {
    let out_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("drift_typo.json");
    let _ = std::fs::remove_file(&out_path);
    // `--shot` is a typo of `--shots`: ignoring it would run the default
    // 200 000 shots per point.
    let out = Command::new(env!("CARGO_BIN_EXE_drift_trajectory"))
        .args(["--shot", "64", "--threads", "1", "--out"])
        .arg(&out_path)
        .output()
        .expect("drift_trajectory binary runs");
    assert_eq!(out.status.code(), Some(2), "--shot must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--shot"),
        "stderr must name --shot, got {stderr:?}"
    );
    assert!(!out_path.exists(), "no results file is written");
}
