//! The structured event journal: what happened, in a deterministic order.
//!
//! Workers append events to a worker-local buffer and flush it at chunk
//! boundaries into the sink's one mutex-guarded journal (one lock per
//! flush, none on the record path). A snapshot sorts the journal by
//! [`order_key`] — `(run, lane, chunk, seq)` — which depends only on the
//! deterministic chunk schedule, never on thread interleaving, so two runs
//! of the same workload produce the same journal (timestamps aside) at any
//! thread count.

/// One journal entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Engine run this event belongs to (monotone per sink).
    pub run: u32,
    /// Chunk index within the run; coordinator-lane events use 0.
    pub chunk: u32,
    /// Sequence number within `(run, chunk)` (or within the coordinator
    /// lane), assigned by the recording worker.
    pub seq: u32,
    /// Worker that recorded the event ([`Event::COORDINATOR`] for run-level
    /// events recorded outside any worker).
    pub worker: u32,
    /// Monotonic nanoseconds since the sink was created. Payload only —
    /// never part of the deterministic ordering.
    pub t_nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Sentinel worker id for coordinator-lane events.
    pub const COORDINATOR: u32 = u32::MAX;

    /// Whether this event lives on the coordinator lane (run-level events
    /// recorded before/around the worker pool, ordered before all chunk
    /// events of the same run).
    pub fn is_coordinator(&self) -> bool {
        matches!(self.kind, EventKind::RunStart { .. })
    }
}

/// Event payloads. Fault kinds are static strings (today always
/// `"panic"`) so the journal stays allocation-free and this crate stays a
/// leaf dependency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// An engine run began.
    RunStart {
        /// Worker threads launched.
        threads: u32,
        /// Chunks in the deterministic schedule.
        chunks: u32,
    },
    /// A chunk attempt began on the given ladder rung.
    ChunkStart {
        /// Ladder rung of this attempt.
        rung: u8,
    },
    /// A chunk completed on the given rung.
    ChunkFinish {
        /// Rung the chunk completed on.
        rung: u8,
        /// Shots sampled in the chunk.
        shots: u32,
        /// Logical failures observed.
        failures: u32,
        /// Tier-0 (empty-syndrome) shots.
        tier0: u32,
        /// Tier-2 (full-decode) shots.
        tier2: u32,
        /// Frame-sampling time.
        sample_nanos: u64,
        /// Sparse-extraction + tier-dispatch bookkeeping time.
        extract_nanos: u64,
        /// Full-decoder time.
        decode_nanos: u64,
    },
    /// A chunk attempt (or a streaming window's decode) failed.
    Fault {
        /// Always `"panic"`: every fault is a panic caught by the
        /// engine's `catch_unwind`.
        kind: &'static str,
        /// Rung the failed attempt ran on.
        rung: u8,
    },
    /// A faulted chunk was relaunched one rung down the ladder.
    Retry {
        /// Rung the retry runs on.
        rung: u8,
    },
    /// The cluster tier's defect-density gate tally for one chunk (only
    /// emitted when a cluster tier was armed for the chunk).
    ClusterGate {
        /// Batches that ran the cluster decomposition.
        on: u32,
        /// Batches the gate diverted to the monolithic decode path.
        off: u32,
    },
    /// A streaming window was disposed of without a decode: rung 1 = shed,
    /// dequeued past its deadline; rung 2 = deferred, its decode panicked
    /// through both same-window retries.
    Shed {
        /// Tenant patch the window belongs to.
        patch: u32,
        /// Window index within the tenant's stream.
        window: u32,
        /// 1 for a shed window, 2 for a deferred one.
        rung: u8,
    },
    /// The streaming watchdog declared a worker wedged (heartbeat stale
    /// past the wedge deadline while a window was checked out).
    Wedge {
        /// Wedged worker index.
        worker: u32,
        /// Tenant patch of the window the worker held.
        patch: u32,
        /// Window index the worker held.
        window: u32,
    },
}

impl EventKind {
    /// Stable snake-case tag for exporters.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::RunStart { .. } => "run_start",
            EventKind::ChunkStart { .. } => "chunk_start",
            EventKind::ChunkFinish { .. } => "chunk_finish",
            EventKind::Fault { .. } => "fault",
            EventKind::Retry { .. } => "retry",
            EventKind::ClusterGate { .. } => "cluster_gate",
            EventKind::Shed { .. } => "shed",
            EventKind::Wedge { .. } => "wedge",
        }
    }
}

/// Deterministic journal order: run, then coordinator lane before chunk
/// lane, then chunk index, then the worker-assigned sequence number. A
/// chunk (including all its retries) is processed by exactly one worker,
/// so the key is unique and independent of thread scheduling.
pub fn order_key(e: &Event) -> (u32, u8, u32, u32) {
    (e.run, u8::from(!e.is_coordinator()), e.chunk, e.seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(run: u32, chunk: u32, seq: u32) -> Event {
        Event {
            run,
            chunk,
            seq,
            worker: 0,
            t_nanos: 0,
            kind: EventKind::ChunkStart { rung: 0 },
        }
    }

    #[test]
    fn coordinator_events_sort_before_chunks() {
        let run_start = Event {
            run: 1,
            chunk: 0,
            seq: 0,
            worker: Event::COORDINATOR,
            t_nanos: 99,
            kind: EventKind::RunStart {
                threads: 2,
                chunks: 8,
            },
        };
        let chunk0 = ev(1, 0, 0);
        let mut events = [chunk0, run_start];
        events.sort_by_key(order_key);
        assert!(events[0].is_coordinator());
        assert_eq!(events[1], chunk0);
    }
}
