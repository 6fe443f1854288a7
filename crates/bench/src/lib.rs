//! # caliqec-bench — experiment harness for the CaliQEC reproduction
//!
//! One module per table/figure of the paper's evaluation (see
//! [`experiments`]), plus Criterion micro-benchmarks over the substrates
//! (`cargo bench`). Run an individual experiment with e.g.
//! `cargo run --release -p caliqec-bench --bin fig10_ler_dynamics`, or all
//! of them with `--bin reproduce_all`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod experiments;
pub mod report;

/// Drops the default log level to quiet for the figure/table/reproduce
/// binaries: their stdout report is the artifact, so observability chatter
/// stays off unless the user opts back in with `CALIQEC_LOG=info` (the
/// environment variable still wins over this default).
pub fn quiet_by_default() {
    caliqec_obs::verbosity::set_default(caliqec_obs::Verbosity::Quiet);
}

/// Parses `--threads N` (or `--threads=N`) from the process arguments for
/// the experiment binaries. Returns 0 (= auto: `CALIQEC_THREADS` if set,
/// else all cores) when absent or malformed.
pub fn threads_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(n) = a.strip_prefix("--threads=").and_then(|v| v.parse().ok()) {
            return n;
        }
    }
    0
}

/// Parses `--<name> N` (or `--<name>=N`) from the process arguments,
/// falling back to `default` when absent or malformed. Companion to
/// [`threads_from_args`] for the experiment binaries' numeric flags.
pub fn usize_from_args(name: &str, default: usize) -> usize {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(n) = a.strip_prefix(&prefix).and_then(|v| v.parse().ok()) {
            return n;
        }
    }
    default
}

/// Parses `--<name> VALUE` (or `--<name>=VALUE`) from the process
/// arguments, falling back to `default` when absent.
pub fn string_from_args(name: &str, default: &str) -> String {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            if let Some(v) = args.next() {
                return v;
            }
        } else if let Some(v) = a.strip_prefix(&prefix) {
            return v.to_string();
        }
    }
    default.to_string()
}
