//! Deterministic fault injection for the hardened LER engine.
//!
//! A [`FaultPlan`] names chunk indices at which the engine's worker loop
//! makes the chunk's decode panic — outright, or by handing the decoder a
//! corrupted defect list. Either way the fault is a real panic inside the
//! real `catch_unwind` of the chunk attempt, so every injection exercises
//! exactly one quarantine + deterministic retry on the degradation ladder.
//! Injection only fires on the *first* attempt of a chunk (rung 0).
//!
//! The plan is plain data carried by [`LerEngine`](crate::LerEngine): when
//! no plan is armed the hot path pays a single `Option` check per chunk and
//! nothing else. Plans come from the builder methods here or from
//! [`FaultPlan::parse`], which the `caliqec simulate --faults` flag uses.

use std::fmt;

/// The kinds of fault the harness can inject into a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the chunk's decode (simulates a decoder bug).
    Panic,
    /// Feed the decoder a defect list with an out-of-range node id
    /// (simulates corrupted syndrome extraction); the decoder's index
    /// panic is caught like any other.
    CorruptDefects,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Panic => "panic",
            FaultKind::CorruptDefects => "corrupt",
        })
    }
}

/// A deterministic schedule of fault injections: `(chunk, kind)` pairs.
///
/// # Examples
///
/// ```
/// use caliqec_match::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new().panic_at(2).corrupt_defects_at(0);
/// assert_eq!(plan.injection(2), Some(FaultKind::Panic));
/// assert_eq!(plan.injection(1), None);
///
/// // The same schedule, parsed from the `--faults` syntax:
/// assert_eq!(FaultPlan::parse("panic@2,corrupt@0").unwrap(), plan);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    injections: Vec<(usize, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a decoder panic at `chunk`.
    pub fn panic_at(mut self, chunk: usize) -> FaultPlan {
        self.injections.push((chunk, FaultKind::Panic));
        self
    }

    /// Schedules a corrupted defect list at `chunk`.
    pub fn corrupt_defects_at(mut self, chunk: usize) -> FaultPlan {
        self.injections.push((chunk, FaultKind::CorruptDefects));
        self
    }

    /// The fault (if any) scheduled for `chunk`. First match wins.
    pub fn injection(&self, chunk: usize) -> Option<FaultKind> {
        self.injections
            .iter()
            .find(|&&(c, _)| c == chunk)
            .map(|&(_, kind)| kind)
    }

    /// True when the plan schedules no injections at all.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Parses a comma-separated list of `kind@chunk` entries, where `kind`
    /// is `panic` or `corrupt` — e.g. `"panic@2,corrupt@0"`. Empty entries
    /// are skipped, so a trailing comma is harmless; any other kind name
    /// is an error, so a typo never silently disables a chaos run.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, chunk) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry '{entry}' is not kind@chunk"))?;
            let chunk: usize = chunk
                .trim()
                .parse()
                .map_err(|_| format!("fault entry '{entry}' has a non-numeric chunk index"))?;
            let kind = match kind.trim() {
                "panic" => FaultKind::Panic,
                "corrupt" => FaultKind::CorruptDefects,
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (expected panic|corrupt)"
                    ))
                }
            };
            plan.injections.push((chunk, kind));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_schedules_injections() {
        let plan = FaultPlan::new()
            .panic_at(1)
            .corrupt_defects_at(3)
            .panic_at(3);
        assert_eq!(plan.injection(1), Some(FaultKind::Panic));
        assert_eq!(
            plan.injection(3),
            Some(FaultKind::CorruptDefects),
            "first match wins"
        );
        assert_eq!(plan.injection(0), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn parse_round_trips_builder() {
        let parsed = FaultPlan::parse("panic@1, corrupt@3 ,panic@4,").unwrap();
        let built = FaultPlan::new()
            .panic_at(1)
            .corrupt_defects_at(3)
            .panic_at(4);
        assert_eq!(parsed, built);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("meltdown@0").is_err());
    }

    #[test]
    fn kinds_display_as_spec_names() {
        assert_eq!(FaultKind::Panic.to_string(), "panic");
        assert_eq!(FaultKind::CorruptDefects.to_string(), "corrupt");
    }
}
