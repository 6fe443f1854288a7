//! Regenerates the fig06 experiment (see the experiments module docs).
//! `--threads N` sets the probe's sampling worker count.
fn main() {
    caliqec_bench::accept_flags(&["threads"]);
    caliqec_bench::quiet_by_default();
    let mut params = caliqec_bench::experiments::fig06::Fig06Params::default();
    params.probe.threads = caliqec_bench::threads_from_args();
    println!("{}", caliqec_bench::experiments::fig06::run(&params));
}
