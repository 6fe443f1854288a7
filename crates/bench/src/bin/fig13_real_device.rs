//! Regenerates Figure 13: d = 3 LER under drift and isolation on the square
//! and heavy-hex lattices (the paper's hardware experiment, simulated).
//! `--threads N` sets the Monte-Carlo worker count; results are identical
//! at any thread count.
fn main() {
    caliqec_bench::accept_flags(&["threads"]);
    caliqec_bench::quiet_by_default();
    let params = caliqec_bench::experiments::fig13::Fig13Params {
        threads: caliqec_bench::threads_from_args(),
        ..Default::default()
    };
    println!("{}", caliqec_bench::experiments::fig13::run(&params));
}
