//! Deterministic fault injection for the hardened LER engine.
//!
//! A [`FaultPlan`] names chunk indices at which the engine's worker loop
//! injects a fault — a decoder panic, a timeout-like stall, a corrupted
//! defect list, or a graph with poisoned edge weights — before the chunk's
//! real work runs. Injection only fires on the *first* attempt of a chunk
//! (rung 0 of the degradation ladder), so every injected fault exercises
//! exactly one quarantine + deterministic retry.
//!
//! The plan is plain data carried by [`LerEngine`](crate::LerEngine): when
//! no plan is armed the hot path pays a single `Option` check per chunk and
//! nothing else. Plans come from the builder methods here or from the
//! `CALIQEC_FAULTS` environment variable (see [`FaultPlan::from_env`]),
//! which the `caliqec` CLI honours — library constructors never read the
//! environment, so tests cannot race on it.

use crate::graph::{Edge, MatchingGraph};
use std::fmt;
use std::time::Duration;

/// The kinds of fault the harness can inject into a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the chunk's decode loop (simulates a decoder bug).
    Panic,
    /// Sleep past the stall deadline (simulates a hung decoder); the
    /// attempt is then treated as timed out.
    Stall,
    /// Feed the decoder a defect list with an out-of-range node id
    /// (simulates corrupted syndrome extraction).
    CorruptDefects,
    /// Present the worker with a graph whose edge weights are NaN/negative
    /// (simulates corrupted calibration data reaching the decoder).
    BadWeights,
    /// Streaming only: a tenant stalls between rounds (simulates a slow
    /// control-system feed). The chunk index names the tenant; the stall
    /// delays that tenant's next round by the plan's stall sleep.
    SlowTenant,
    /// Streaming only: a window's admission timestamp is backdated past the
    /// decode deadline (simulates delayed round arrival), forcing the shed
    /// ladder to fire deterministically. The chunk index names the window.
    DelayedArrival,
    /// Streaming only: a burst of windows arrives at once for one tenant
    /// (simulates a bursty feed catching up after a gap). The chunk index
    /// names the tenant.
    BurstArrival,
    /// Streaming only: a worker wedges (sleeps past the wedge deadline)
    /// while holding a window, so the watchdog must detect it and the
    /// window must be retried with the same seed. The chunk index names
    /// the window.
    WorkerWedge,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::CorruptDefects => "corrupt",
            FaultKind::BadWeights => "badweights",
            FaultKind::SlowTenant => "slowtenant",
            FaultKind::DelayedArrival => "delay",
            FaultKind::BurstArrival => "burst",
            FaultKind::WorkerWedge => "wedge",
        };
        f.write_str(name)
    }
}

impl FaultKind {
    /// True for the streaming-service injections, which the batch engine's
    /// worker loops must ignore (they only make sense inside
    /// [`StreamingDecoder`](crate::StreamingDecoder)).
    pub fn is_streaming(self) -> bool {
        matches!(
            self,
            FaultKind::SlowTenant
                | FaultKind::DelayedArrival
                | FaultKind::BurstArrival
                | FaultKind::WorkerWedge
        )
    }
}

/// One scheduled injection: fire `kind` when chunk `chunk` first runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Chunk index the fault fires at.
    pub chunk: usize,
    /// What to inject.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault injections, plus the stall timing knobs.
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
/// // The same schedule, parsed from the CALIQEC_FAULTS syntax:
/// let parsed = FaultPlan::parse("panic@2,corrupt@0").unwrap();
/// assert_eq!(parsed.injection(0), Some(FaultKind::CorruptDefects));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    injections: Vec<Injection>,
    /// How long an injected stall sleeps.
    stall_sleep: Option<Duration>,
    /// Deadline above which a *stall-injected* attempt counts as timed out.
    stall_deadline: Option<Duration>,
}

/// Default sleep for an injected stall.
const DEFAULT_STALL_SLEEP: Duration = Duration::from_millis(20);
/// Default deadline an injected stall must overrun.
const DEFAULT_STALL_DEADLINE: Duration = Duration::from_millis(5);

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a decoder panic at `chunk`.
    pub fn panic_at(mut self, chunk: usize) -> FaultPlan {
        self.injections.push(Injection {
            chunk,
            kind: FaultKind::Panic,
        });
        self
    }

    /// Schedules a timeout-like stall at `chunk`.
    pub fn stall_at(mut self, chunk: usize) -> FaultPlan {
        self.injections.push(Injection {
            chunk,
            kind: FaultKind::Stall,
        });
        self
    }

    /// Schedules a corrupted defect list at `chunk`.
    pub fn corrupt_defects_at(mut self, chunk: usize) -> FaultPlan {
        self.injections.push(Injection {
            chunk,
            kind: FaultKind::CorruptDefects,
        });
        self
    }

    /// Schedules NaN/negative edge weights at `chunk`.
    pub fn bad_weights_at(mut self, chunk: usize) -> FaultPlan {
        self.injections.push(Injection {
            chunk,
            kind: FaultKind::BadWeights,
        });
        self
    }

    /// Schedules a slow-tenant stall for streaming tenant `tenant`.
    pub fn slow_tenant_at(mut self, tenant: usize) -> FaultPlan {
        self.injections.push(Injection {
            chunk: tenant,
            kind: FaultKind::SlowTenant,
        });
        self
    }

    /// Schedules a delayed-arrival injection for streaming window `window`.
    pub fn delayed_arrival_at(mut self, window: usize) -> FaultPlan {
        self.injections.push(Injection {
            chunk: window,
            kind: FaultKind::DelayedArrival,
        });
        self
    }

    /// Schedules a burst-arrival injection for streaming tenant `tenant`.
    pub fn burst_arrival_at(mut self, tenant: usize) -> FaultPlan {
        self.injections.push(Injection {
            chunk: tenant,
            kind: FaultKind::BurstArrival,
        });
        self
    }

    /// Schedules a worker wedge while decoding streaming window `window`.
    pub fn worker_wedge_at(mut self, window: usize) -> FaultPlan {
        self.injections.push(Injection {
            chunk: window,
            kind: FaultKind::WorkerWedge,
        });
        self
    }

    /// Overrides the stall sleep / deadline pair (sleep must exceed the
    /// deadline for the injection to register as a timeout).
    pub fn with_stall_timing(mut self, sleep: Duration, deadline: Duration) -> FaultPlan {
        self.stall_sleep = Some(sleep);
        self.stall_deadline = Some(deadline);
        self
    }

    /// The fault (if any) scheduled for `chunk`. First match wins.
    pub fn injection(&self, chunk: usize) -> Option<FaultKind> {
        self.injections
            .iter()
            .find(|inj| inj.chunk == chunk)
            .map(|inj| inj.kind)
    }

    /// True when the plan schedules no injections at all.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// The scheduled injections.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// How long an injected stall sleeps.
    pub fn stall_sleep(&self) -> Duration {
        self.stall_sleep.unwrap_or(DEFAULT_STALL_SLEEP)
    }

    /// The deadline an injected stall must overrun to count as timed out.
    pub fn stall_deadline(&self) -> Duration {
        self.stall_deadline.unwrap_or(DEFAULT_STALL_DEADLINE)
    }

    /// Parses the `CALIQEC_FAULTS` syntax: a comma-separated list of
    /// `kind@chunk` entries, where `kind` is one of `panic`, `stall`,
    /// `corrupt`, `badweights`, or a streaming kind
    /// `slowtenant`, `delay`, `burst`, `wedge` — e.g. `"panic@2,corrupt@0"`.
    /// For streaming kinds the index names a tenant (`slowtenant`, `burst`)
    /// or a window (`delay`, `wedge`) rather than a chunk. Empty entries
    /// are skipped, so a trailing comma is harmless.
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
                "stall" => FaultKind::Stall,
                "corrupt" => FaultKind::CorruptDefects,
                "badweights" => FaultKind::BadWeights,
                "slowtenant" => FaultKind::SlowTenant,
                "delay" => FaultKind::DelayedArrival,
                "burst" => FaultKind::BurstArrival,
                "wedge" => FaultKind::WorkerWedge,
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (expected \
                         panic|stall|corrupt|badweights|\
                         slowtenant|delay|burst|wedge)"
                    ))
                }
            };
            plan.injections.push(Injection { chunk, kind });
        }
        Ok(plan)
    }

    /// Reads the plan from the `CALIQEC_FAULTS` environment variable.
    /// Returns `None` when the variable is unset or empty; a malformed
    /// value is an error so typos do not silently disable chaos runs.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("CALIQEC_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => {
                let plan = FaultPlan::parse(&spec)?;
                Ok(if plan.is_empty() { None } else { Some(plan) })
            }
            _ => Ok(None),
        }
    }
}

/// Builds the weight-poisoned graph a [`FaultKind::BadWeights`] injection
/// presents to validation: a copy of `base` whose first edge weight is NaN
/// and whose second (if any) is negative. With no base graph (or an
/// edgeless one) a minimal one-detector graph with a NaN boundary edge is
/// used instead, so the injection always produces a graph that
/// [`MatchingGraph::validate`] rejects.
pub fn poison_weights(base: Option<&MatchingGraph>) -> MatchingGraph {
    match base {
        Some(g) if !g.edges().is_empty() => {
            let mut edges = g.edges().to_vec();
            edges[0].weight = f64::NAN;
            if edges.len() > 1 {
                edges[1].weight = -1.0;
            }
            MatchingGraph::from_edges(g.num_detectors(), g.num_observables(), edges)
        }
        _ => MatchingGraph::from_edges(
            1,
            1,
            vec![Edge {
                u: 0,
                v: 1,
                probability: 0.01,
                weight: f64::NAN,
                observables: 0,
            }],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_graphs_fail_validation() {
        assert!(poison_weights(None).validate().is_err());
        let base = MatchingGraph::from_edges(
            2,
            1,
            vec![
                Edge {
                    u: 0,
                    v: 2,
                    probability: 0.01,
                    weight: 2.0,
                    observables: 1,
                },
                Edge {
                    u: 1,
                    v: 2,
                    probability: 0.01,
                    weight: 2.0,
                    observables: 0,
                },
            ],
        );
        assert!(base.validate().is_ok());
        assert!(poison_weights(Some(&base)).validate().is_err());
    }

    #[test]
    fn builder_schedules_injections() {
        let plan = FaultPlan::new()
            .panic_at(1)
            .stall_at(2)
            .corrupt_defects_at(3)
            .bad_weights_at(4);
        assert_eq!(plan.injection(1), Some(FaultKind::Panic));
        assert_eq!(plan.injection(2), Some(FaultKind::Stall));
        assert_eq!(plan.injection(3), Some(FaultKind::CorruptDefects));
        assert_eq!(plan.injection(4), Some(FaultKind::BadWeights));
        assert_eq!(plan.injection(0), None);
        assert!(!plan.is_empty());
        assert_eq!(plan.injections().len(), 4);
    }

    #[test]
    fn parse_round_trips_builder() {
        let parsed = FaultPlan::parse("panic@1, stall@2 ,corrupt@3,badweights@4,wedge@5,").unwrap();
        let built = FaultPlan::new()
            .panic_at(1)
            .stall_at(2)
            .corrupt_defects_at(3)
            .bad_weights_at(4)
            .worker_wedge_at(5);
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
    fn stall_timing_defaults_and_overrides() {
        let plan = FaultPlan::new();
        assert!(plan.stall_sleep() > plan.stall_deadline());
        let plan = plan.with_stall_timing(Duration::from_millis(50), Duration::from_millis(10));
        assert_eq!(plan.stall_sleep(), Duration::from_millis(50));
        assert_eq!(plan.stall_deadline(), Duration::from_millis(10));
    }

    #[test]
    fn kinds_display_as_spec_names() {
        assert_eq!(FaultKind::Panic.to_string(), "panic");
        assert_eq!(FaultKind::BadWeights.to_string(), "badweights");
        assert_eq!(FaultKind::CorruptDefects.to_string(), "corrupt");
        assert_eq!(FaultKind::SlowTenant.to_string(), "slowtenant");
        assert_eq!(FaultKind::DelayedArrival.to_string(), "delay");
        assert_eq!(FaultKind::BurstArrival.to_string(), "burst");
        assert_eq!(FaultKind::WorkerWedge.to_string(), "wedge");
    }

    #[test]
    fn streaming_kinds_parse_and_classify() {
        let parsed = FaultPlan::parse("slowtenant@0,delay@1,burst@2,wedge@3").unwrap();
        let built = FaultPlan::new()
            .slow_tenant_at(0)
            .delayed_arrival_at(1)
            .burst_arrival_at(2)
            .worker_wedge_at(3);
        assert_eq!(parsed, built);
        for inj in parsed.injections() {
            assert!(inj.kind.is_streaming());
        }
        for kind in [
            FaultKind::Panic,
            FaultKind::Stall,
            FaultKind::CorruptDefects,
            FaultKind::BadWeights,
        ] {
            assert!(!kind.is_streaming());
        }
    }
}
