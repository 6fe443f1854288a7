//! The `--check` mode's small-input runs: every workload's correctness
//! checks on reduced budgets, seed 1, with the calibration count of a
//! 4-point runtime run on the pinned device.

use crate::{calib, mem, stream, Outcome, RunOpts};
use std::time::Instant;

/// Each check's workload name, outcome and wall seconds.
pub fn all(opts: &RunOpts) -> Vec<(&'static str, Outcome, f64)> {
    let d7 = mem::MemSpec {
        setup_reps: 1,
        shots_per_round: 65_536,
        min_rounds: 4,
        ..mem::D7
    };
    let d15 = mem::MemSpec {
        setup_reps: 1,
        shots_per_round: 8_192,
        min_rounds: 2,
        ..mem::D15
    };
    let calib = calib::CalibSpec {
        setup_reps: 1,
        points: 4,
        mc_shots: 512,
        min_runs: 1,
        pinned_calibrations: 182,
        ..calib::D11
    };
    let stream = stream::StreamSpec {
        setup_reps: 1,
        pool: 256,
        latency_segments: 2,
        floods: 1,
        flood_windows: 8_192,
        ..stream::D5
    };
    let one_second = RunOpts {
        seconds: 1.0,
        ..*opts
    };
    let timed = |name, run: &dyn Fn() -> Outcome| {
        let t0 = Instant::now();
        let out = run();
        (name, out, t0.elapsed().as_secs_f64())
    };
    // The d = 15 and calibration checks spend most of their time in
    // single-threaded DEM extraction, so they share the cores.
    let (dense, runtime) = std::thread::scope(|s| {
        let runtime = s.spawn(|| timed("calib_runtime_d11", &|| calib::run(&calib, opts)));
        let dense = timed("mem_d15_dense", &|| mem::run(&d15, opts));
        (
            dense,
            runtime
                .join()
                .expect("the calibration check thread panicked"),
        )
    });
    vec![
        timed("mem_d7_sparse", &|| mem::run(&d7, opts)),
        dense,
        runtime,
        timed("stream_d5_open", &|| stream::run(&stream, &one_second)),
    ]
}
