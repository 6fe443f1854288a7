//! Regenerates Figure 10: d = 11 LER dynamics through calibration cycles.
//!
//! Full stabilizer simulation + union-find decoding per time sample; expect
//! several minutes in release mode. `--threads N` sets the Monte-Carlo
//! worker count (default: `CALIQEC_THREADS`, else all cores); the results
//! are identical at any thread count.
fn main() {
    caliqec_bench::accept_flags(&["threads"]);
    caliqec_bench::quiet_by_default();
    let params = caliqec_bench::experiments::fig10::Fig10Params {
        threads: caliqec_bench::threads_from_args(),
        ..Default::default()
    };
    eprintln!(
        "fig10: d={}, {} points x 3 scenarios, up to {} shots each...",
        params.d,
        params.cycles * params.points_per_cycle,
        params.max_shots
    );
    println!("{}", caliqec_bench::experiments::fig10::run(&params));
}
