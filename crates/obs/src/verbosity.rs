//! Process-wide verbosity control for human-facing stderr output.
//!
//! Two levels: [`Verbosity::Quiet`] (nothing) and [`Verbosity::Info`]
//! (progress lines + summary tables — the interactive default).
//! Resolution order, strongest first: an explicit
//! [`set`] (e.g. a `--quiet` flag), then the `CALIQEC_LOG` environment
//! variable, then the binary's [`set_default`] (scripted binaries like
//! `fig_*`/`reproduce` default to quiet, the CLI to info).
//!
//! The level is a single process-global relaxed atomic — reading it costs
//! one load, and it never feeds back into decoding, so verbosity cannot
//! perturb fingerprints.

use std::sync::atomic::{AtomicU8, Ordering};

/// How much human-facing stderr output to emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Verbosity {
    /// No progress lines, no summary tables. Machine outputs (files,
    /// stdout data) are unaffected.
    Quiet = 0,
    /// Progress lines and summary tables.
    Info = 1,
}

impl Verbosity {
    fn from_u8(v: u8) -> Verbosity {
        match v {
            0 => Verbosity::Quiet,
            _ => Verbosity::Info,
        }
    }

    /// Parses a `CALIQEC_LOG` value. Accepts names (`quiet`/`info`, plus
    /// `off`/`silent`/`none`) and digits `0`/`1`; `debug`, `verbose` and
    /// `2` still parse, as `Info`, so older settings keep their output.
    pub fn parse(s: &str) -> Option<Verbosity> {
        match s.trim().to_ascii_lowercase().as_str() {
            "quiet" | "off" | "silent" | "none" | "0" => Some(Verbosity::Quiet),
            "info" | "1" | "debug" | "verbose" | "2" => Some(Verbosity::Info),
            _ => None,
        }
    }
}

/// Current level; `u8::MAX` means "not explicitly set".
static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);
/// Binary-chosen default used when neither [`set`] nor `CALIQEC_LOG`
/// decided.
static DEFAULT: AtomicU8 = AtomicU8::new(Verbosity::Info as u8);

/// Explicitly sets the verbosity (a CLI flag). Overrides `CALIQEC_LOG`.
pub fn set(v: Verbosity) {
    LEVEL.store(v as u8, Ordering::Relaxed);
}

/// Sets the fallback level a binary wants when the user expressed no
/// preference (scripted binaries call `set_default(Verbosity::Quiet)`).
pub fn set_default(v: Verbosity) {
    DEFAULT.store(v as u8, Ordering::Relaxed);
}

/// Resolves the current verbosity: explicit [`set`], else `CALIQEC_LOG`,
/// else the binary default.
pub fn level() -> Verbosity {
    let explicit = LEVEL.load(Ordering::Relaxed);
    if explicit != u8::MAX {
        return Verbosity::from_u8(explicit);
    }
    if let Ok(env) = std::env::var("CALIQEC_LOG") {
        if let Some(v) = Verbosity::parse(&env) {
            return v;
        }
    }
    Verbosity::from_u8(DEFAULT.load(Ordering::Relaxed))
}

/// Whether output at `v` should currently be emitted.
pub fn loud(v: Verbosity) -> bool {
    level() >= v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_names_and_digits() {
        assert_eq!(Verbosity::parse("quiet"), Some(Verbosity::Quiet));
        assert_eq!(Verbosity::parse(" OFF "), Some(Verbosity::Quiet));
        assert_eq!(Verbosity::parse("0"), Some(Verbosity::Quiet));
        assert_eq!(Verbosity::parse("info"), Some(Verbosity::Info));
        // The retired debug level's spellings read as info.
        assert_eq!(Verbosity::parse("debug"), Some(Verbosity::Info));
        assert_eq!(Verbosity::parse("verbose"), Some(Verbosity::Info));
        assert_eq!(Verbosity::parse("2"), Some(Verbosity::Info));
        assert_eq!(Verbosity::parse("banana"), None);
    }

    #[test]
    fn explicit_set_wins() {
        // Serial with the default-path test via the explicit-set guard:
        // other tests in this crate don't touch the globals.
        set(Verbosity::Quiet);
        assert_eq!(level(), Verbosity::Quiet);
        assert!(!loud(Verbosity::Info));
        assert!(loud(Verbosity::Quiet));
        set(Verbosity::Info);
        assert!(loud(Verbosity::Info));
    }
}
