//! [`ObsSink`] — the handle the engine records through — and [`Snapshot`],
//! the merged read-out.
//!
//! A sink is either *enabled* (an `Arc` of shard registry + journal) or
//! *disabled* (no allocation at all). Every record method starts with one
//! branch on that option; disabled sinks never touch a clock, an atomic,
//! or the heap, which is what keeps observability zero-cost when off.
//!
//! The record path is contention-free by construction: each worker thread
//! asks for its own [`WorkerObs`], whose metric shard only that worker
//! writes and whose event buffer is plain worker-local memory. The only
//! cross-thread traffic is one journal lock per flush at chunk boundaries
//! (see [`crate::journal`]) and the once-per-worker shard registration.

use crate::journal::{order_key, Event, EventKind};
use crate::metrics::{merge_shards, Counter, Gauge, Hist, HistSnapshot, Shard};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

struct Inner {
    /// Monotonic anchor every timestamp is measured from.
    epoch: Instant,
    /// Next engine-run id.
    runs: AtomicU32,
    /// Registered worker shards (pushed once per worker handle; the lock
    /// never sits on a record path).
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Every flushed event, sorted by [`order_key`] at snapshot time
    /// (snapshots are cumulative, not destructive).
    journal: Mutex<Vec<Event>>,
}

/// Cloneable observability handle. `disabled()` is a no-op sink the engine
/// uses by default; `enabled()` allocates the shared registry.
#[derive(Clone, Default)]
pub struct ObsSink {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsSink")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl ObsSink {
    /// A sink that records nothing and allocates nothing.
    pub fn disabled() -> ObsSink {
        ObsSink { inner: None }
    }

    /// A live sink; timestamps are measured from this call.
    pub fn enabled() -> ObsSink {
        ObsSink {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                runs: AtomicU32::new(0),
                shards: Mutex::new(Vec::new()),
                journal: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Builds an enabled or disabled sink in one call.
    pub fn new(enabled: bool) -> ObsSink {
        if enabled {
            ObsSink::enabled()
        } else {
            ObsSink::disabled()
        }
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Allocates the next engine-run id (0 on a disabled sink). Runs are
    /// started sequentially by the engine's entry points, so ids are
    /// deterministic for a fixed call sequence.
    pub fn begin_run(&self) -> u32 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.runs.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A recording handle for one worker of run `run`. Pass
    /// [`Event::COORDINATOR`] as `worker` for run-level events recorded
    /// outside the worker pool. On a disabled sink the handle is inert.
    pub fn worker(&self, run: u32, worker: u32) -> WorkerObs {
        let shard = self.inner.as_ref().map(|inner| {
            let shard = Arc::new(Shard::new());
            inner
                .shards
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(shard.clone());
            shard
        });
        WorkerObs {
            inner: self.inner.clone(),
            shard,
            run,
            worker,
            chunk: 0,
            seq: 0,
            buf: Vec::new(),
        }
    }

    /// Merges every shard and the flushed journal into a [`Snapshot`].
    /// Returns an empty snapshot on a disabled sink. Cumulative: events
    /// read here stay visible to later snapshots.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let shards = inner
            .shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let (counters, gauges, histograms) = merge_shards(&shards);
        let mut journal = inner.journal.lock().unwrap_or_else(PoisonError::into_inner);
        journal.sort_by_key(order_key);
        Snapshot {
            counters,
            gauges,
            histograms,
            events: journal.clone(),
        }
    }
}

/// Per-worker recording handle. Not `Clone`: exactly one owner writes the
/// shard and the event buffer, which is what makes the hot path
/// contention-free. Dropping the handle flushes any buffered events.
pub struct WorkerObs {
    inner: Option<Arc<Inner>>,
    shard: Option<Arc<Shard>>,
    run: u32,
    worker: u32,
    chunk: u32,
    seq: u32,
    buf: Vec<Event>,
}

impl fmt::Debug for WorkerObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerObs")
            .field("enabled", &self.inner.is_some())
            .field("run", &self.run)
            .field("worker", &self.worker)
            .finish()
    }
}

impl WorkerObs {
    /// An inert handle (shorthand for `ObsSink::disabled().worker(0, 0)`),
    /// for code paths that need a handle but no sink.
    pub fn disabled() -> WorkerObs {
        ObsSink::disabled().worker(0, 0)
    }

    /// Whether anything is recorded. Callers guard non-trivial work (clock
    /// reads, formatting) behind this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `Instant::now()` when enabled, `None` when disabled — the per-shot
    /// timing pattern is `let t = obs.clock();` ... `obs.record_since(h, t)`.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        self.enabled().then(Instant::now)
    }

    /// Records the elapsed time since `started` (a previous [`clock`]
    /// reading) into `h`, returning the fresh reading so per-shot loops pay
    /// one clock call per sample. No-op when `started` is `None`.
    ///
    /// [`clock`]: WorkerObs::clock
    #[inline]
    pub fn record_since(&mut self, h: Hist, started: Option<Instant>) -> Option<Instant> {
        let t0 = started?;
        let now = Instant::now();
        self.record(h, (now - t0).as_nanos() as u64);
        Some(now)
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, delta: u64) {
        if let Some(shard) = &self.shard {
            shard.add(c, delta);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, g: Gauge, value: u64) {
        if let Some(shard) = &self.shard {
            shard.set(g, value);
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, h: Hist, nanos: u64) {
        if let Some(shard) = &self.shard {
            shard.record(h, nanos);
        }
    }

    /// Starts a new chunk scope: subsequent events carry `chunk` and a
    /// sequence number restarting at 0. Ladder retries inside the chunk
    /// must NOT call this again — their events continue its sequence.
    pub fn begin_chunk(&mut self, chunk: u32) {
        self.chunk = chunk;
        self.seq = 0;
    }

    /// Appends an event to the worker-local buffer (no cross-thread
    /// traffic until [`WorkerObs::flush`]).
    pub fn event(&mut self, kind: EventKind) {
        let Some(inner) = &self.inner else {
            return;
        };
        let seq = self.seq;
        self.seq += 1;
        self.buf.push(Event {
            run: self.run,
            chunk: self.chunk,
            seq,
            worker: self.worker,
            t_nanos: inner.epoch.elapsed().as_nanos() as u64,
            kind,
        });
    }

    /// Appends buffered events to the journal under its lock, keeping the
    /// buffer's capacity. Called at chunk boundaries, so the lock is taken
    /// once per deterministic unit of work; an empty buffer takes none.
    pub fn flush(&mut self) {
        if let Some(inner) = &self.inner {
            if !self.buf.is_empty() {
                inner
                    .journal
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .append(&mut self.buf);
            }
        }
    }
}

impl Drop for WorkerObs {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Point-in-time merged view of a sink: every counter/gauge, every
/// histogram, and the journal in deterministic order.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` for every [`Counter`], in export order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every [`Gauge`], in export order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Every [`Hist`], merged across shards.
    pub histograms: Vec<HistSnapshot>,
    /// The journal, sorted by [`order_key`].
    pub events: Vec<Event>,
}

impl Snapshot {
    /// Looks up a counter by name (0 if absent, e.g. on an empty snapshot).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks up a histogram by its [`Hist::name`].
    pub fn hist(&self, h: Hist) -> Option<&HistSnapshot> {
        self.histograms.iter().find(|s| s.name == h.name())
    }

    /// The three per-rung full-decode histograms merged into one tier-2
    /// per-shot latency view.
    pub fn decode_shot_hist(&self) -> HistSnapshot {
        let parts: Vec<&HistSnapshot> = [
            Hist::DecodeShotRung0,
            Hist::DecodeShotRung1,
            Hist::DecodeShotRung2,
        ]
        .iter()
        .filter_map(|&h| self.hist(h))
        .collect();
        HistSnapshot::merged("decode_shot", &parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = ObsSink::disabled();
        assert!(!sink.is_enabled());
        assert_eq!(sink.begin_run(), 0);
        let mut w = sink.worker(0, 0);
        assert!(!w.enabled());
        assert!(w.clock().is_none());
        w.add(Counter::ShotsTier2, 5);
        w.record(Hist::DecodeShotRung0, 100);
        w.event(EventKind::ChunkStart);
        w.flush();
        let snap = sink.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.counter("shots_tier2"), 0);
    }

    #[test]
    fn enabled_sink_round_trips_events_and_metrics() {
        let sink = ObsSink::enabled();
        let run = sink.begin_run();
        assert_eq!(run, 0);
        assert_eq!(sink.begin_run(), 1);

        let mut w = sink.worker(run, 3);
        w.begin_chunk(7);
        w.event(EventKind::ChunkStart);
        w.event(EventKind::Fault {
            kind: "panic",
            rung: 0,
        });
        w.add(Counter::FaultsPanic, 1);
        w.record(Hist::ChunkWall, 5_000);
        w.flush();

        let snap = sink.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].chunk, 7);
        assert_eq!(snap.events[0].seq, 0);
        assert_eq!(snap.events[1].seq, 1);
        assert_eq!(snap.events[0].worker, 3);
        assert_eq!(snap.counter("faults_panic"), 1);
        assert_eq!(snap.hist(Hist::ChunkWall).unwrap().count, 1);

        // Snapshots are cumulative, not destructive.
        let again = sink.snapshot();
        assert_eq!(again.events.len(), 2);
    }

    #[test]
    fn drop_flushes_buffered_events() {
        let sink = ObsSink::enabled();
        {
            let mut w = sink.worker(0, 0);
            w.event(EventKind::ChunkStart);
            // no explicit flush
        }
        assert_eq!(sink.snapshot().events.len(), 1);
    }

    #[test]
    fn journal_order_is_worker_independent() {
        // Two interleavings of the same chunk schedule must merge to the
        // same journal order.
        let order_of = |assignment: [(u32, u32); 4]| {
            let sink = ObsSink::enabled();
            std::thread::scope(|scope| {
                for w in 0..2u32 {
                    let sink = sink.clone();
                    scope.spawn(move || {
                        let mut obs = sink.worker(0, w);
                        for &(chunk, worker) in &assignment {
                            if worker == w {
                                obs.begin_chunk(chunk);
                                obs.event(EventKind::ChunkStart);
                                obs.event(EventKind::ChunkFinish {
                                    rung: 0,
                                    shots: 64,
                                    failures: 0,
                                    tier0: 0,
                                    tier2: 64,
                                    sample_nanos: 0,
                                    extract_nanos: 0,
                                    decode_nanos: 0,
                                });
                                obs.flush();
                            }
                        }
                    });
                }
            });
            sink.snapshot()
                .events
                .iter()
                .map(|e| (e.chunk, e.seq, e.kind.tag()))
                .collect::<Vec<_>>()
        };
        let a = order_of([(0, 0), (1, 1), (2, 0), (3, 1)]);
        let b = order_of([(0, 1), (1, 0), (2, 1), (3, 0)]);
        assert_eq!(a, b, "journal order leaked thread scheduling");
    }

    #[test]
    fn concurrent_flushes_all_reach_the_snapshot_in_order() {
        let sink = ObsSink::enabled();
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let sink = sink.clone();
                scope.spawn(move || {
                    let mut obs = sink.worker(w, w);
                    for c in 0..50u32 {
                        obs.begin_chunk(c);
                        obs.event(EventKind::ChunkStart);
                        obs.flush();
                    }
                });
            }
        });
        let events = sink.snapshot().events;
        assert_eq!(events.len(), 200);
        assert!(events
            .windows(2)
            .all(|w| order_key(&w[0]) < order_key(&w[1])));
    }

    #[test]
    fn decode_shot_hist_merges_rungs() {
        let sink = ObsSink::enabled();
        let mut w = sink.worker(0, 0);
        w.record(Hist::DecodeShotRung0, 1_000);
        w.record(Hist::DecodeShotRung1, 2_000);
        let snap = sink.snapshot();
        let merged = snap.decode_shot_hist();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum_nanos, 3_000);
    }
}
