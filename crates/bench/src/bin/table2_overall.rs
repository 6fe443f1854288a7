//! Regenerates Table 2: the No-Calibration / LSC / QECali comparison across
//! all benchmark rows and both drift eras.
fn main() {
    caliqec_bench::accept_flags(&[]);
    caliqec_bench::quiet_by_default();
    let params = caliqec_bench::experiments::table2::Table2Params::default();
    println!("{}", caliqec_bench::experiments::table2::run(&params));
}
