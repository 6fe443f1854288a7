//! Regenerates the paper's Figure 01 (see the experiments module docs).
fn main() {
    caliqec_bench::accept_flags(&[]);
    caliqec_bench::quiet_by_default();
    println!(
        "{}",
        caliqec_bench::experiments::fig01::run(&Default::default())
    );
}
