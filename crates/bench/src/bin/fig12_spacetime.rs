//! Regenerates the paper's Figure 12 (see the experiments module docs).
fn main() {
    caliqec_bench::accept_flags(&[]);
    caliqec_bench::quiet_by_default();
    println!(
        "{}",
        caliqec_bench::experiments::fig12::run(&Default::default())
    );
}
