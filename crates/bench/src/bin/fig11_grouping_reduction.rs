//! Regenerates the paper's Figure 11 (see the experiments module docs).
fn main() {
    caliqec_bench::accept_flags(&[]);
    caliqec_bench::quiet_by_default();
    println!(
        "{}",
        caliqec_bench::experiments::fig11::run(&Default::default())
    );
}
