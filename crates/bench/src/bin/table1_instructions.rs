//! Regenerates the paper's table1 (see the experiments module docs).
fn main() {
    caliqec_bench::accept_flags(&[]);
    caliqec_bench::quiet_by_default();
    println!("{}", caliqec_bench::experiments::table1::run());
}
