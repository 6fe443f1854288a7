//! Runs every experiment in paper order and prints the combined report.
//!
//! `cargo run --release -p caliqec-bench --bin reproduce_all [--threads N]`
//!
//! `--threads` sets the Monte-Carlo worker count for the sampling-heavy
//! experiments (fig06, fig10, fig13); the default (0) honours the
//! `CALIQEC_THREADS` environment variable, else uses all cores. Measured
//! results are identical at any thread count.
use caliqec_bench::experiments::*;
use caliqec_bench::threads_from_args;

fn main() {
    caliqec_bench::accept_flags(&["threads"]);
    caliqec_bench::quiet_by_default();
    let threads = threads_from_args();
    let sep = "=".repeat(78);
    println!("{sep}\n{}", fig01::run(&Default::default()));
    println!("{sep}\n{}", fig07::run(&Default::default()));
    println!("{sep}\n{}", fig09::run(&Default::default()));
    eprintln!("running fig06 crosstalk probes...");
    let mut fig06_params = fig06::Fig06Params::default();
    fig06_params.probe.threads = threads;
    println!("{sep}\n{}", fig06::run(&fig06_params));
    println!("{sep}\n{}", table1::run());
    println!("{sep}\n{}", fig11::run(&Default::default()));
    println!("{sep}\n{}", fig12::run(&Default::default()));
    println!("{sep}\n{}", sharing::run(&Default::default()));
    println!("{sep}\n{}", routing::run(&Default::default()));
    eprintln!("running fig13 Monte-Carlo (a minute or two)...");
    let fig13_params = fig13::Fig13Params {
        threads,
        ..Default::default()
    };
    println!("{sep}\n{}", fig13::run(&fig13_params));
    eprintln!("running table 2 evaluation...");
    println!("{sep}\n{}", table2::run(&Default::default()));
    eprintln!("running fig10 Monte-Carlo (several minutes)...");
    let fig10_params = fig10::Fig10Params {
        threads,
        ..Default::default()
    };
    println!("{sep}\n{}", fig10::run(&fig10_params));
}
