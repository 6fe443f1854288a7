//! The experiment binaries' flag handling: a value the experiment cannot
//! run with is a usage error (exit 2) that names the flag, raised before
//! any work is done.

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
fn rare_event_rejects_zero_rounds() {
    let out_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("rare_rejected.json");
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(env!("CARGO_BIN_EXE_rare_event"))
        .args(["--rounds", "0", "--max-shots", "2000"])
        .args(["--pilot-shots", "640", "--plain-shots", "640"])
        .args(["--threads", "1", "--out"])
        .arg(&out_path)
        .output()
        .expect("rare_event binary runs");
    assert_eq!(out.status.code(), Some(2), "--rounds 0 must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--rounds"),
        "stderr must name --rounds, got {stderr:?}"
    );
    assert!(!out_path.exists(), "no results file is written");
}
