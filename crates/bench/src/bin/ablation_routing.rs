//! Regenerates the routing experiment (see the experiments module docs).
fn main() {
    caliqec_bench::accept_flags(&[]);
    caliqec_bench::quiet_by_default();
    println!(
        "{}",
        caliqec_bench::experiments::routing::run(&Default::default())
    );
}
