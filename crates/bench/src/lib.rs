//! # caliqec-bench — experiment harness for the CaliQEC reproduction
//!
//! One module per table/figure of the paper's evaluation (see
//! [`experiments`]), plus Criterion micro-benchmarks over the substrates
//! (`cargo bench`). Run an individual experiment with e.g.
//! `cargo run --release -p caliqec-bench --bin fig10_ler_dynamics`, or all
//! of them with `--bin reproduce_all`. Each binary accepts only the flags
//! it reads ([`accept_flags`]); any other argument exits 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod report;

/// Drops the default log level to quiet for the figure/table/reproduce
/// binaries: their stdout report is the artifact, so observability chatter
/// stays off unless the user opts back in with `CALIQEC_LOG=info` (the
/// environment variable still wins over this default).
pub fn quiet_by_default() {
    caliqec_obs::verbosity::set_default(caliqec_obs::Verbosity::Quiet);
}

/// Finds `--<name> VALUE` (or `--<name>=VALUE`) in `args`: `None` when the
/// flag is absent, an error naming it when it has no value.
fn flag_value(
    mut args: impl Iterator<Item = String>,
    name: &str,
) -> Result<Option<String>, String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    while let Some(a) = args.next() {
        if a == flag {
            return args
                .next()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value"));
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// Parses `--<name> N` from `args`: `default` when the flag is absent, an
/// error naming it when its value is not a non-negative integer.
fn parse_usize(
    args: impl Iterator<Item = String>,
    name: &str,
    default: usize,
) -> Result<usize, String> {
    match flag_value(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} wants a non-negative integer, got {v:?}")),
    }
}

/// Prints a usage error and exits with status 2, as the `caliqec` CLI does.
fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Checks that every argument in `args` is one of `flags`, spelled
/// `--name VALUE` or `--name=VALUE`; an error names the first that is not.
fn check_flags(mut args: impl Iterator<Item = String>, flags: &[&str]) -> Result<(), String> {
    while let Some(a) = args.next() {
        let Some(rest) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        let (name, inline) = rest
            .split_once('=')
            .map_or((rest, false), |(n, _)| (n, true));
        if !flags.contains(&name) {
            return Err(format!("this binary does not take --{name}"));
        }
        if !inline {
            args.next();
        }
    }
    Ok(())
}

/// Rejects any process argument that is not one of `flags`, the flags the
/// calling binary reads: a usage error names it and the process exits 2.
/// Every experiment binary calls this first, so a mistyped flag fails
/// before any work instead of being ignored.
pub fn accept_flags(flags: &[&str]) {
    check_flags(std::env::args().skip(1), flags).unwrap_or_else(|e| usage_error(e));
}

/// Parses `--threads N` (or `--threads=N`) from the process arguments for
/// the experiment binaries. Returns 0 (= auto: `CALIQEC_THREADS` if set,
/// else all cores) when absent; a malformed value exits 2.
pub fn threads_from_args() -> usize {
    usize_from_args("threads", 0)
}

/// Parses `--<name> N` (or `--<name>=N`) from the process arguments,
/// falling back to `default` when absent. A present but malformed value
/// is a usage error: it is named on stderr and the process exits 2.
pub fn usize_from_args(name: &str, default: usize) -> usize {
    parse_usize(std::env::args().skip(1), name, default).unwrap_or_else(|e| usage_error(e))
}

/// Parses `--<name> VALUE` (or `--<name>=VALUE`) from the process
/// arguments, falling back to `default` when absent. A flag with no value
/// exits 2.
pub fn string_from_args(name: &str, default: &str) -> String {
    flag_value(std::env::args().skip(1), name)
        .unwrap_or_else(|e| usage_error(e))
        .unwrap_or_else(|| default.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn absent_flag_takes_its_default() {
        assert_eq!(parse_usize(args(&[]), "shots", 200_000), Ok(200_000));
        assert_eq!(parse_usize(args(&["--threads", "2"]), "shots", 7), Ok(7));
    }

    #[test]
    fn well_formed_values_parse_in_both_spellings() {
        let ci = ["--shots", "20000", "--threads", "2", "--out", "drift.json"];
        assert_eq!(parse_usize(args(&ci), "shots", 0), Ok(20_000));
        assert_eq!(parse_usize(args(&ci), "threads", 0), Ok(2));
        assert_eq!(parse_usize(args(&["--shots=512"]), "shots", 0), Ok(512));
        assert_eq!(
            flag_value(args(&ci), "out"),
            Ok(Some("drift.json".to_string()))
        );
        assert_eq!(
            flag_value(args(&["--out=a.json"]), "out"),
            Ok(Some("a.json".into()))
        );
    }

    #[test]
    fn malformed_values_are_errors_that_name_the_flag() {
        for (list, name) in [
            (&["--shots", "2e4"][..], "shots"),
            (&["--threads", "two"][..], "threads"),
            (&["--threads=-1"][..], "threads"),
            (&["--distance", ""][..], "distance"),
            (&["--shots"][..], "shots"),
        ] {
            let err = parse_usize(args(list), name, 0).expect_err("malformed value accepted");
            assert!(err.contains(&format!("--{name}")), "{list:?}: {err}");
        }
        let err = flag_value(args(&["--out"]), "out").expect_err("missing value accepted");
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn only_the_flags_a_binary_reads_are_accepted() {
        let drift = ["shots", "threads", "distance", "out"];
        let ci = [
            "--shots",
            "20000",
            "--threads=2",
            "--out",
            "--odd-name.json",
        ];
        assert_eq!(check_flags(args(&ci), &drift), Ok(()));
        assert_eq!(check_flags(args(&[]), &[]), Ok(()));
        for (list, flags, named) in [
            (&["--shot", "2000"][..], &drift[..], "--shot"),
            (&["--shots=5", "--bogus=1"][..], &drift[..], "--bogus"),
            (&["--threads", "2"][..], &[][..], "--threads"),
            (&["--threads", "2", "stray"][..], &["threads"][..], "stray"),
        ] {
            let err = check_flags(args(list), flags).expect_err("unread flag accepted");
            assert!(err.contains(named), "{list:?}: {err}");
        }
    }
}
