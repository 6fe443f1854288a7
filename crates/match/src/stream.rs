//! Streaming decode service: bounded-latency syndrome ingestion with
//! backpressure, deadlines, and graceful overload degradation.
//!
//! The batch engine ([`LerEngine`](crate::LerEngine)) owns its workload: it
//! decides how many chunks exist and samples them as fast as the decoders
//! drain. A real control system is the opposite — syndrome rounds arrive on
//! the hardware's clock, per logical patch, whether or not the decoders are
//! keeping up. [`StreamingDecoder`] is the service shape for that regime:
//!
//! - **Ingestion** reuses the round-by-round reassembly path
//!   ([`caliqec_stab::WindowBuilder`]): [`StreamingDecoder::push_round`]
//!   copies one round's detector words and, when a window completes, admits
//!   it to a bounded per-tenant queue. A full queue *rejects* the window —
//!   the explicit backpressure signal — instead of buffering unboundedly;
//!   rejected rounds are counted separately and never counted as ingested.
//! - **Decoding** runs on a shared worker pool multiplexing all tenants
//!   through the zero-allocation [`SparseBatch`] extraction path and the
//!   engine's per-window core: each (worker, tenant) pair decodes through
//!   its own [`DecodeStack`] from the tenant factory's
//!   [`DecoderFactory::stack`].
//! - **Deadlines** decide decode-or-shed, once, by queue age at dequeue: a
//!   window within its deadline decodes in full; a window past it is
//!   *shed* — no extraction, no decode, all-zero masks, counted degraded
//!   and journaled, never silently dropped. `deadline: None` disables
//!   shedding entirely, which is what makes golden-replay testing possible.
//! - **Watchdog**: a supervisor thread scans per-worker heartbeats and
//!   journals a [`Wedge`](caliqec_obs::EventKind::Wedge) when a worker sits
//!   on one window past a 200 ms wedge deadline. It only detects: the
//!   worker keeps its window, and the decode it finishes is the one the
//!   window gets.
//! - **Retry policy**: a decoder panic is caught by the engine's
//!   panic-isolation helper and journaled like a batch-engine fault, but
//!   the recovery differs on purpose. A batch chunk has no deadline, so
//!   the engine retries it *down* its rung ladder; a stream window races a
//!   wall-clock deadline, so the service rebuilds the same stack and
//!   retries a full decode of the *same* window up to twice, then declares
//!   it deferred. One executor serving both would have to branch on its
//!   caller at every step.
//! - **Accounting invariant**: once drained, every ingested round is
//!   decoded, shed, or deferred — `rounds_ingested = rounds_decoded +
//!   rounds_shed + rounds_deferred` — and [`ServiceHealth`] exposes the
//!   partition per tenant plus latency quantiles from the
//!   [`caliqec_obs`] histograms.
//!
//! Determinism: the decode mask of `(tenant, window)` is a pure function of
//! the window's detector words and the tenant's decoder — independent of
//! worker count, queue interleaving, retries, and wedges. Only latencies
//! and shed/deferred/rejected *counts* may vary with timing, and those are
//! reported as distributions, never folded into the masks.

use crate::engine::{isolate, observe_chunk_fault, DecodeStack, DecoderFactory, WindowStats};
use crate::error::ValidationError;
use caliqec_obs::{Counter, Event, EventKind, Gauge, Hist, ObsSink, WorkerObs};
use caliqec_stab::{
    chunk_seed, for_each_set_bit, BatchEvents, Circuit, RoundStream, SparseBatch, WindowBuilder,
    WindowError, BATCH,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service-level configuration for a [`StreamingDecoder`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Decode worker threads shared by every tenant.
    pub workers: usize,
    /// Maximum windows queued per tenant; admission past the bound is
    /// rejected ([`PushOutcome::Rejected`]).
    pub queue_bound: usize,
    /// Per-window decode deadline, judged by queue age at dequeue: a
    /// window past it is shed undecoded ([`Disposition::Shed`]). `None`
    /// disables shedding — every window decodes in full.
    pub deadline: Option<Duration>,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            workers: 2,
            queue_bound: 4,
            deadline: None,
        }
    }
}

/// How stale a busy worker's heartbeat may grow before the watchdog
/// declares it wedged.
const WEDGE_DEADLINE: Duration = Duration::from_millis(200);

/// Same-window retries after a full-decode panic before the window is
/// declared deferred.
const MAX_RETRIES: u32 = 2;

/// One logical patch served by the pool: its decoder factory and the
/// detector-word count of one decode window (the patch circuit's detector
/// count).
#[derive(Debug)]
pub struct TenantSpec<F> {
    /// Builds this tenant's decoders (one per worker that touches the
    /// tenant, built lazily; rebuilt after a quarantined panic).
    pub factory: F,
    /// Detector words per complete window.
    pub detectors: usize,
}

/// What [`StreamingDecoder::push_round`] did with the round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Round buffered; the window is still open.
    Buffered {
        /// Rounds buffered in the open window so far.
        rounds: u32,
    },
    /// The round completed a window and it was admitted to the queue.
    Admitted {
        /// Tenant-local index of the admitted window (only admitted
        /// windows are numbered, densely from 0).
        window: u64,
    },
    /// The round completed a window but the tenant's queue is full: the
    /// window was dropped and its rounds counted as rejected, not
    /// ingested. This is the backpressure signal — a well-behaved source
    /// slows down when it sees it.
    Rejected {
        /// Queue depth observed at the rejection.
        queue_depth: usize,
    },
}

/// How one admitted window was disposed of. Only [`Disposition::Decoded`]
/// masks are a decode; the other two carry all-zero placeholders and count
/// as degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Dequeued within its deadline (or with none) and decoded in full.
    Decoded,
    /// Dequeued past its deadline: never extracted or decoded. Journaled
    /// as a rung-1 [`Shed`](caliqec_obs::EventKind::Shed).
    Shed,
    /// The decode panicked on the window and on both same-window retries.
    /// Journaled as a rung-2 [`Shed`](caliqec_obs::EventKind::Shed).
    Deferred,
}

/// Outcome record for one admitted window.
#[derive(Clone, Debug)]
pub struct WindowResult {
    /// Tenant-local window index.
    pub window: u64,
    /// How the window was handled.
    pub disposition: Disposition,
    /// Rounds the window was assembled from.
    pub rounds: u32,
    /// Same-window retries spent after full-decode panics.
    pub retries: u32,
    /// Per-shot predicted observable masks (all-zero unless
    /// [`Disposition::Decoded`]).
    pub masks: [u64; BATCH],
}

/// Per-tenant slice of a [`ServiceHealth`] snapshot.
#[derive(Clone, Debug, Default)]
pub struct TenantHealth {
    /// Tenant index.
    pub tenant: u32,
    /// Windows currently queued.
    pub queue_depth: usize,
    /// Rounds admitted into windows.
    pub rounds_ingested: u64,
    /// Rounds whose window decoded in full.
    pub rounds_decoded: u64,
    /// Rounds whose window was shed undecoded past its deadline.
    pub rounds_shed: u64,
    /// Rounds whose window was deferred after its decode kept panicking.
    pub rounds_deferred: u64,
    /// Rounds rejected by backpressure (never ingested).
    pub rounds_rejected: u64,
}

/// Point-in-time service snapshot: queue state, the decoded/shed/deferred
/// partition, and round-latency quantiles.
#[derive(Clone, Debug, Default)]
pub struct ServiceHealth {
    /// Decode workers in the pool.
    pub workers: usize,
    /// Windows queued across all tenants right now.
    pub queue_depth: usize,
    /// Highest global queue depth observed.
    pub queue_peak: usize,
    /// Windows decoded in full.
    pub windows_decoded: u64,
    /// Windows shed undecoded past their deadline.
    pub windows_shed: u64,
    /// Windows deferred after their decode kept panicking.
    pub windows_deferred: u64,
    /// Wedges the watchdog declared.
    pub wedges: u64,
    /// Same-window retries after decoder panics.
    pub retries: u64,
    /// Median admission-to-disposition window latency, microseconds
    /// (0 when the sink is disabled or nothing has finished).
    pub round_latency_p50_us: f64,
    /// 95th-percentile window latency, microseconds.
    pub round_latency_p95_us: f64,
    /// 99th-percentile window latency, microseconds.
    pub round_latency_p99_us: f64,
    /// Per-tenant queue depth and round accounting.
    pub tenants: Vec<TenantHealth>,
}

impl ServiceHealth {
    /// Rounds admitted but not yet disposed (0 once drained). The
    /// partition invariant is `rounds_ingested = rounds_decoded +
    /// rounds_shed + rounds_deferred + rounds_pending()` per tenant and
    /// in aggregate.
    pub fn rounds_pending(&self) -> u64 {
        let t: (u64, u64) = self.tenants.iter().fold((0, 0), |(ing, done), t| {
            (
                ing + t.rounds_ingested,
                done + t.rounds_decoded + t.rounds_shed + t.rounds_deferred,
            )
        });
        t.0 - t.1
    }

    /// Hand-rolled JSON rendering (the repo has no serde), stable key
    /// order, one object per tenant.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + 192 * self.tenants.len());
        out.push_str(&format!(
            "{{\"workers\":{},\"queue_depth\":{},\"queue_peak\":{},\
             \"windows_decoded\":{},\"windows_shed\":{},\"windows_deferred\":{},\
             \"wedges\":{},\"retries\":{},\"rounds_pending\":{},\
             \"round_latency_us\":{{\"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3}}},\
             \"tenants\":[",
            self.workers,
            self.queue_depth,
            self.queue_peak,
            self.windows_decoded,
            self.windows_shed,
            self.windows_deferred,
            self.wedges,
            self.retries,
            self.rounds_pending(),
            self.round_latency_p50_us,
            self.round_latency_p95_us,
            self.round_latency_p99_us,
        ));
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":{},\"queue_depth\":{},\"rounds_ingested\":{},\
                 \"rounds_decoded\":{},\"rounds_shed\":{},\"rounds_deferred\":{},\
                 \"rounds_rejected\":{}}}",
                t.tenant,
                t.queue_depth,
                t.rounds_ingested,
                t.rounds_decoded,
                t.rounds_shed,
                t.rounds_deferred,
                t.rounds_rejected,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Everything a finished service hands back: the final health snapshot and
/// each tenant's window results sorted by window index.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Health at shutdown (queues drained, so `rounds_pending() == 0`).
    pub health: ServiceHealth,
    /// Per-tenant window outcomes, sorted by `window`.
    pub tenants: Vec<Vec<WindowResult>>,
}

/// One queued decode window.
struct Job {
    tenant: u32,
    window: u64,
    /// Global admission sequence — the journal chunk id, unique per job.
    seq: u64,
    rounds: u32,
    enqueued: Instant,
    events: BatchEvents,
}

/// Driver-side reassembly state for one tenant.
struct TenantIngest {
    builder: WindowBuilder,
    /// Next tenant-local window index (admitted windows only).
    admitted: u64,
    rounds_in_window: u32,
}

#[derive(Default)]
struct TenantCounters {
    ingested: AtomicU64,
    decoded: AtomicU64,
    shed: AtomicU64,
    deferred: AtomicU64,
    rejected: AtomicU64,
}

struct Tenant<F> {
    factory: F,
    detectors: usize,
    ingest: Mutex<TenantIngest>,
    depth: AtomicUsize,
    counts: TenantCounters,
    results: Mutex<Vec<WindowResult>>,
}

/// Watchdog-visible state of one worker. `busy` holds the checked-out
/// job's global sequence (`u64::MAX` when idle); `heartbeat` is nanoseconds
/// since the service epoch, written only at checkout — so a decode that
/// runs past the wedge deadline leaves it stale for the watchdog to see.
struct WorkerSlot {
    heartbeat: AtomicU64,
    busy: AtomicU64,
    tenant: AtomicU64,
    window: AtomicU64,
    wedged: AtomicBool,
}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            heartbeat: AtomicU64::new(0),
            busy: AtomicU64::new(u64::MAX),
            tenant: AtomicU64::new(0),
            window: AtomicU64::new(0),
            wedged: AtomicBool::new(false),
        }
    }
}

struct Shared<F> {
    tenants: Vec<Tenant<F>>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    watchdog_stop: AtomicBool,
    pool: Mutex<Vec<BatchEvents>>,
    config: StreamConfig,
    sink: ObsSink,
    epoch: Instant,
    queue_len: AtomicUsize,
    queue_peak: AtomicUsize,
    seq: AtomicU64,
    slots: Vec<WorkerSlot>,
    windows_decoded: AtomicU64,
    windows_shed: AtomicU64,
    windows_deferred: AtomicU64,
    wedges: AtomicU64,
    retries: AtomicU64,
    /// Driver-side recording handle (ingest runs on the caller's thread,
    /// which has no worker shard of its own).
    ingest_obs: Mutex<WorkerObs>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The streaming decode service (DESIGN.md §14 describes the
/// architecture). The lifecycle is [`StreamingDecoder::start`] →
/// [`StreamingDecoder::push_round`] (any number of times) →
/// [`StreamingDecoder::drain`] (optional) → [`StreamingDecoder::shutdown`].
pub struct StreamingDecoder<F: DecoderFactory + Send + Sync + 'static> {
    shared: Arc<Shared<F>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl<F: DecoderFactory + Send + Sync + 'static> std::fmt::Debug for StreamingDecoder<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingDecoder")
            .field("tenants", &self.shared.tenants.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<F: DecoderFactory + Send + Sync + 'static> StreamingDecoder<F> {
    /// Validates every tenant factory, spawns the worker pool and the
    /// watchdog, and returns the running service.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty, any tenant's `detectors` is zero,
    /// `config.workers` is zero, or `config.queue_bound` is zero — all
    /// programming errors, not runtime conditions.
    pub fn start(
        tenants: Vec<TenantSpec<F>>,
        config: StreamConfig,
        sink: ObsSink,
    ) -> Result<StreamingDecoder<F>, ValidationError> {
        assert!(!tenants.is_empty(), "service needs at least one tenant");
        assert!(config.workers > 0, "service needs at least one worker");
        assert!(config.queue_bound > 0, "queue bound must be positive");
        for spec in &tenants {
            assert!(spec.detectors > 0, "tenant window must hold detectors");
            spec.factory.validate()?;
        }
        let run = sink.begin_run();
        let mut coord = sink.worker(run, Event::COORDINATOR);
        coord.event(EventKind::RunStart {
            threads: config.workers as u32,
            chunks: 0,
        });
        coord.set(Gauge::Workers, config.workers as u64);
        coord.set(Gauge::StreamTenants, tenants.len() as u64);
        coord.flush();
        let workers = config.workers;
        let shared = Arc::new(Shared {
            tenants: tenants
                .into_iter()
                .map(|spec| Tenant {
                    ingest: Mutex::new(TenantIngest {
                        builder: WindowBuilder::new(spec.detectors),
                        admitted: 0,
                        rounds_in_window: 0,
                    }),
                    factory: spec.factory,
                    detectors: spec.detectors,
                    depth: AtomicUsize::new(0),
                    counts: TenantCounters::default(),
                    results: Mutex::new(Vec::new()),
                })
                .collect(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            watchdog_stop: AtomicBool::new(false),
            pool: Mutex::new(Vec::new()),
            config,
            epoch: Instant::now(),
            queue_len: AtomicUsize::new(0),
            queue_peak: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            slots: (0..workers).map(|_| WorkerSlot::new()).collect(),
            windows_decoded: AtomicU64::new(0),
            windows_shed: AtomicU64::new(0),
            windows_deferred: AtomicU64::new(0),
            wedges: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            ingest_obs: Mutex::new(sink.worker(run, Event::COORDINATOR)),
            sink,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                let obs = shared.sink.worker(run, i as u32);
                std::thread::Builder::new()
                    .name(format!("caliqec-stream-{i}"))
                    .spawn(move || worker_loop(shared, i, obs))
                    .expect("spawn stream worker")
            })
            .collect();
        let watchdog = {
            let shared = shared.clone();
            let obs = shared.sink.worker(run, Event::COORDINATOR);
            std::thread::Builder::new()
                .name("caliqec-stream-watchdog".to_string())
                .spawn(move || watchdog_loop(shared, obs))
                .expect("spawn stream watchdog")
        };
        Ok(StreamingDecoder {
            shared,
            workers: handles,
            watchdog: Some(watchdog),
        })
    }

    /// Ingests one round of detector words for `tenant`. Rounds must tile
    /// the tenant's window detector count exactly; a misaligned round is
    /// rejected with the buffer untouched. When the round completes a
    /// window, the window is either admitted to the bounded queue or — if
    /// the tenant already has `queue_bound` windows queued — rejected
    /// wholesale (backpressure; the source should slow down).
    pub fn push_round(&self, tenant: usize, round: &[u64]) -> Result<PushOutcome, WindowError> {
        let t = &self.shared.tenants[tenant];
        let mut ingest = lock(&t.ingest);
        let complete = ingest.builder.push_round(round)?;
        ingest.rounds_in_window += 1;
        if !complete {
            return Ok(PushOutcome::Buffered {
                rounds: ingest.rounds_in_window,
            });
        }
        let rounds = std::mem::take(&mut ingest.rounds_in_window);
        let depth = t.depth.load(Ordering::Acquire);
        if depth >= self.shared.config.queue_bound {
            // Reject: swap the completed window out (recycling its buffer)
            // and drop the data. Rejected rounds are *not* ingested.
            let mut scratch = lock(&self.shared.pool).pop().unwrap_or_default();
            ingest.builder.finish_window(&mut scratch);
            lock(&self.shared.pool).push(scratch);
            t.counts
                .rejected
                .fetch_add(rounds as u64, Ordering::Relaxed);
            let mut obs = lock(&self.shared.ingest_obs);
            obs.add(Counter::RoundsRejected, rounds as u64);
            return Ok(PushOutcome::Rejected { queue_depth: depth });
        }
        let window = ingest.admitted;
        ingest.admitted += 1;
        let mut events = lock(&self.shared.pool).pop().unwrap_or_default();
        ingest.builder.finish_window(&mut events);
        drop(ingest);
        let enqueued = Instant::now();
        t.counts
            .ingested
            .fetch_add(rounds as u64, Ordering::Relaxed);
        t.depth.fetch_add(1, Ordering::AcqRel);
        let len = self.shared.queue_len.fetch_add(1, Ordering::AcqRel) + 1;
        self.shared.queue_peak.fetch_max(len, Ordering::AcqRel);
        {
            // Read the peak under the lock, so the last gauge write is the
            // highest peak any push reached, however pushes interleave.
            let mut obs = lock(&self.shared.ingest_obs);
            obs.add(Counter::RoundsIngested, rounds as u64);
            let peak = self.shared.queue_peak.load(Ordering::Acquire);
            obs.set(Gauge::StreamQueuePeak, peak as u64);
        }
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        lock(&self.shared.queue).push_back(Job {
            tenant: tenant as u32,
            window,
            seq,
            rounds,
            enqueued,
            events,
        });
        self.shared.available.notify_one();
        Ok(PushOutcome::Admitted { window })
    }

    /// Blocks until every admitted window has been disposed of (queue
    /// empty and all workers idle).
    pub fn drain(&self) {
        loop {
            let queued = self.shared.queue_len.load(Ordering::Acquire);
            let busy = self
                .shared
                .slots
                .iter()
                .any(|s| s.busy.load(Ordering::Acquire) != u64::MAX);
            if queued == 0 && !busy {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// A point-in-time [`ServiceHealth`] snapshot.
    pub fn health(&self) -> ServiceHealth {
        let shared = &self.shared;
        let snap = shared.sink.snapshot();
        let latency = snap.hist(Hist::RoundLatency);
        let q = |p: f64| latency.map_or(0.0, |h| h.quantile_nanos(p) / 1_000.0);
        ServiceHealth {
            workers: shared.slots.len(),
            queue_depth: shared.queue_len.load(Ordering::Acquire),
            queue_peak: shared.queue_peak.load(Ordering::Acquire),
            windows_decoded: shared.windows_decoded.load(Ordering::Relaxed),
            windows_shed: shared.windows_shed.load(Ordering::Relaxed),
            windows_deferred: shared.windows_deferred.load(Ordering::Relaxed),
            wedges: shared.wedges.load(Ordering::Relaxed),
            retries: shared.retries.load(Ordering::Relaxed),
            round_latency_p50_us: q(0.50),
            round_latency_p95_us: q(0.95),
            round_latency_p99_us: q(0.99),
            tenants: shared
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    // Disposals before ingestion: a disposal this snapshot
                    // sees (Acquire, against the worker's Release) has its
                    // ingestion in view, so a live snapshot never reads
                    // more rounds disposed than ingested.
                    let rounds_decoded = t.counts.decoded.load(Ordering::Acquire);
                    let rounds_shed = t.counts.shed.load(Ordering::Acquire);
                    let rounds_deferred = t.counts.deferred.load(Ordering::Acquire);
                    TenantHealth {
                        tenant: i as u32,
                        queue_depth: t.depth.load(Ordering::Acquire),
                        rounds_ingested: t.counts.ingested.load(Ordering::Acquire),
                        rounds_decoded,
                        rounds_shed,
                        rounds_deferred,
                        rounds_rejected: t.counts.rejected.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }

    /// Drains the queue, stops the pool and the watchdog, and returns the
    /// final report. Windows still queued at the call are decoded (or
    /// shed) before the workers exit — shutdown is graceful, never lossy.
    pub fn shutdown(mut self) -> StreamReport {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.watchdog_stop.store(true, Ordering::Release);
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        lock(&self.shared.ingest_obs).flush();
        let health = self.health();
        let tenants = self
            .shared
            .tenants
            .iter()
            .map(|t| {
                let mut rs = std::mem::take(&mut *lock(&t.results));
                rs.sort_by_key(|r| r.window);
                rs
            })
            .collect();
        StreamReport { health, tenants }
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn worker_loop<F: DecoderFactory + Send + Sync + 'static>(
    shared: Arc<Shared<F>>,
    idx: usize,
    mut obs: WorkerObs,
) {
    // Per-tenant decode stacks, built lazily from the tenant's factory and
    // rebuilt after a quarantined panic.
    let mut stacks: Vec<Option<DecodeStack<F::Decoder>>> =
        (0..shared.tenants.len()).map(|_| None).collect();
    let mut sparse = SparseBatch::new();
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(20))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let slot = &shared.slots[idx];
        slot.wedged.store(false, Ordering::Release);
        slot.tenant.store(job.tenant as u64, Ordering::Relaxed);
        slot.window.store(job.window, Ordering::Relaxed);
        slot.heartbeat
            .store(nanos_since(shared.epoch), Ordering::Release);
        slot.busy.store(job.seq, Ordering::Release);
        shared.queue_len.fetch_sub(1, Ordering::AcqRel);
        shared.tenants[job.tenant as usize]
            .depth
            .fetch_sub(1, Ordering::AcqRel);

        obs.begin_chunk(job.seq as u32);
        process_job(&shared, &mut stacks, &mut sparse, &mut obs, &job);
        slot.busy.store(u64::MAX, Ordering::Release);
        obs.flush();
        lock(&shared.pool).push(job.events);
        shared.available.notify_one();
    }
}

/// Decodes or sheds one window and records the outcome. Its fate is one
/// deadline check, by queue age at dequeue.
fn process_job<F: DecoderFactory + Send + Sync + 'static>(
    shared: &Shared<F>,
    stacks: &mut [Option<DecodeStack<F::Decoder>>],
    sparse: &mut SparseBatch,
    obs: &mut WorkerObs,
    job: &Job,
) {
    let tenant = &shared.tenants[job.tenant as usize];
    let mut retries = 0u32;
    let late = shared
        .config
        .deadline
        .is_some_and(|d| job.enqueued.elapsed() > d);

    let mut masks = [0u64; BATCH];
    let disposition = if late {
        Disposition::Shed
    } else {
        // Full decode, panic-isolated with bounded same-window retries
        // (quarantine rebuilds the stack — a panicking decoder may have
        // torn scratch state).
        let stack = stacks[job.tenant as usize].get_or_insert_with(|| tenant.factory.stack());
        sparse.extract(&job.events);
        loop {
            let mut stats = WindowStats::default();
            let started = Instant::now();
            let attempt = isolate(|| {
                stack.decode_window_masks(
                    sparse,
                    &mut WorkerObs::disabled(),
                    Hist::DecodeShotRung0,
                    &mut stats,
                    &mut masks,
                )
            });
            match attempt {
                Ok(_) => {
                    obs.record(Hist::WindowDecode, started.elapsed().as_nanos() as u64);
                    obs.add(Counter::ShotsTier0, stats.tier0_shots as u64);
                    obs.add(Counter::ShotsTier2, stats.residual_shots as u64);
                    if stats.clustered_shots > 0 {
                        obs.add(Counter::ShotsCluster, stats.clustered_shots as u64);
                    }
                    break Disposition::Decoded;
                }
                Err(_) => {
                    observe_chunk_fault(obs, 0);
                    *stack = tenant.factory.stack();
                    if retries >= MAX_RETRIES {
                        // Retries exhausted: declare the window deferred
                        // rather than pretend it decoded.
                        break Disposition::Deferred;
                    }
                    retries += 1;
                    shared.retries.fetch_add(1, Ordering::Relaxed);
                    obs.add(Counter::StreamRetries, 1);
                    obs.event(EventKind::Retry { rung: 0 });
                }
            }
        }
    };

    let (rounds_by_fate, windows, counter, shed_rung) = match disposition {
        Disposition::Decoded => (
            &tenant.counts.decoded,
            &shared.windows_decoded,
            Counter::RoundsDecoded,
            None,
        ),
        Disposition::Shed => (
            &tenant.counts.shed,
            &shared.windows_shed,
            Counter::RoundsShed,
            Some(1),
        ),
        Disposition::Deferred => (
            &tenant.counts.deferred,
            &shared.windows_deferred,
            Counter::RoundsDeferred,
            Some(2),
        ),
    };
    if let Some(rung) = shed_rung {
        // Only a decode keeps its masks: a faulted attempt may have left
        // partial ones.
        masks = [0u64; BATCH];
        obs.event(EventKind::Shed {
            patch: job.tenant,
            window: job.window as u32,
            rung,
        });
        obs.add(Counter::ShotsDegraded, BATCH as u64);
    }
    let rounds = job.rounds as u64;
    // Release pairs with the Acquire loads in `health`.
    rounds_by_fate.fetch_add(rounds, Ordering::Release);
    windows.fetch_add(1, Ordering::Relaxed);
    obs.add(counter, rounds);
    obs.record(Hist::RoundLatency, job.enqueued.elapsed().as_nanos() as u64);
    lock(&tenant.results).push(WindowResult {
        window: job.window,
        disposition,
        rounds: job.rounds,
        retries,
        masks,
    });
}

fn watchdog_loop<F: DecoderFactory + Send + Sync + 'static>(
    shared: Arc<Shared<F>>,
    mut obs: WorkerObs,
) {
    let interval = WEDGE_DEADLINE / 4;
    let deadline = WEDGE_DEADLINE.as_nanos() as u64;
    while !shared.watchdog_stop.load(Ordering::Acquire) {
        std::thread::sleep(interval);
        let now = nanos_since(shared.epoch);
        for (i, slot) in shared.slots.iter().enumerate() {
            let seq = slot.busy.load(Ordering::Acquire);
            if seq == u64::MAX {
                continue;
            }
            let hb = slot.heartbeat.load(Ordering::Acquire);
            if now.saturating_sub(hb) <= deadline {
                continue;
            }
            if slot
                .wedged
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                obs.begin_chunk(seq as u32);
                obs.event(EventKind::Wedge {
                    worker: i as u32,
                    patch: slot.tenant.load(Ordering::Relaxed) as u32,
                    window: slot.window.load(Ordering::Relaxed) as u32,
                });
                obs.add(Counter::WorkerWedges, 1);
                obs.flush();
                shared.wedges.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Loopback driver
// ---------------------------------------------------------------------------

/// Pacing and workload for [`loopback_serve`]'s deterministic source.
#[derive(Clone, Debug)]
pub struct LoopbackOptions {
    /// Windows to sample per tenant.
    pub windows_per_tenant: u64,
    /// Rounds each window is split into (1..=detectors).
    pub rounds_per_window: usize,
    /// Open-loop inter-round gap; `ZERO` floods the service.
    pub gap: Duration,
    /// Base seed; tenant `t` streams from `chunk_seed(base_seed, t)`.
    pub base_seed: u64,
}

impl Default for LoopbackOptions {
    fn default() -> LoopbackOptions {
        LoopbackOptions {
            windows_per_tenant: 16,
            rounds_per_window: 1,
            gap: Duration::ZERO,
            base_seed: 0,
        }
    }
}

/// What the loopback driver measured, over and above the service's own
/// [`StreamReport`].
#[derive(Clone, Debug, Default)]
pub struct LoopbackReport {
    /// Shots scored against ground truth (decoded windows only: a shed or
    /// deferred window has no decode to score).
    pub shots_scored: u64,
    /// Shots whose predicted mask disagreed with the sampled observables.
    pub failures: u64,
    /// Windows the driver completed (admitted + rejected).
    pub windows_pushed: u64,
    /// Windows rejected by backpressure.
    pub windows_rejected: u64,
}

/// Per-shot ground-truth observable masks of one sampled window.
fn truth_masks(observables: &[u64]) -> [u64; BATCH] {
    let mut t = [0u64; BATCH];
    for (o, &word) in observables.iter().enumerate() {
        for_each_set_bit(word, |s| t[s as usize] |= 1 << o);
    }
    t
}

/// Starts a service over `tenants`, drives it from per-tenant loopback
/// [`RoundStream`]s (tenant `t` replays `circuits[t]` from seed
/// `chunk_seed(base_seed, t)`), shuts down, and scores every decoded
/// window against the sampled ground truth.
///
/// # Panics
///
/// Panics if `circuits.len() != tenants.len()` or a circuit's detector
/// count disagrees with its tenant's `detectors`.
pub fn loopback_serve<F: DecoderFactory + Send + Sync + 'static>(
    tenants: Vec<TenantSpec<F>>,
    circuits: &[Circuit],
    config: StreamConfig,
    opts: &LoopbackOptions,
    sink: ObsSink,
) -> Result<(StreamReport, LoopbackReport), ValidationError> {
    assert_eq!(circuits.len(), tenants.len(), "one circuit per tenant");
    let service = StreamingDecoder::start(tenants, config, sink)?;
    let n = circuits.len();
    let mut streams: Vec<RoundStream> = circuits
        .iter()
        .map(|c| RoundStream::new(c, opts.rounds_per_window))
        .collect();
    for (t, stream) in streams.iter().enumerate() {
        assert_eq!(
            stream.window_detectors(),
            service.shared.tenants[t].detectors,
            "tenant {t}: circuit detector count must match the spec"
        );
    }
    let mut rngs: Vec<StdRng> = (0..n)
        .map(|t| StdRng::seed_from_u64(chunk_seed(opts.base_seed, t as u64)))
        .collect();
    let mut truth: Vec<Vec<[u64; BATCH]>> = vec![Vec::new(); n];
    let mut driver = LoopbackReport::default();
    for _ in 0..opts.windows_per_tenant {
        for t in 0..n {
            let mut outcome = PushOutcome::Buffered { rounds: 0 };
            for _ in 0..opts.rounds_per_window {
                if !opts.gap.is_zero() {
                    std::thread::sleep(opts.gap);
                }
                let (_, words) = streams[t].next_round(&mut rngs[t]);
                // The split is exact by construction, so ingestion errors
                // here are driver bugs, not runtime conditions.
                outcome = service
                    .push_round(t, words)
                    .expect("aligned loopback round");
            }
            driver.windows_pushed += 1;
            match outcome {
                PushOutcome::Admitted { .. } => {
                    truth[t].push(truth_masks(streams[t].window_observables()));
                }
                PushOutcome::Rejected { .. } => driver.windows_rejected += 1,
                PushOutcome::Buffered { .. } => unreachable!("window must close"),
            }
        }
    }
    service.drain();
    let report = service.shutdown();
    for (t, results) in report.tenants.iter().enumerate() {
        for r in results {
            if r.disposition != Disposition::Decoded {
                continue;
            }
            let expect = &truth[t][r.window as usize];
            driver.shots_scored += BATCH as u64;
            for (got, want) in r.masks.iter().zip(expect) {
                if got != want {
                    driver.failures += 1;
                }
            }
        }
    }
    Ok((report, driver))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::Decoder;
    use crate::graph::MatchingGraph;
    use crate::predecode::Tiered;
    use crate::unionfind::UnionFindDecoder;
    use caliqec_stab::{Basis, Noise1};

    fn rep_circuit(p: f64) -> Circuit {
        let mut c = Circuit::new(5);
        c.reset(Basis::Z, &[0, 1, 2, 3, 4]);
        c.noise1(Noise1::XError, p, &[0, 1, 2]);
        c.cx(0, 3);
        c.cx(1, 3);
        c.cx(1, 4);
        c.cx(2, 4);
        let m0 = c.measure(3, Basis::Z, 0.0);
        let m1 = c.measure(4, Basis::Z, 0.0);
        c.detector(&[m0]);
        c.detector(&[m1]);
        let md = c.measure(0, Basis::Z, 0.0);
        c.observable(0, &[md]);
        c
    }

    type TestFactory = Tiered<Box<dyn Fn() -> UnionFindDecoder + Send + Sync>>;

    fn tenant_for(c: &Circuit) -> TenantSpec<TestFactory> {
        let graph = crate::decode::graph_for_circuit(c);
        let g = graph.clone();
        let factory: Box<dyn Fn() -> UnionFindDecoder + Send + Sync> =
            Box::new(move || UnionFindDecoder::new(g.clone()));
        TenantSpec {
            factory: Tiered::new(&graph, factory),
            detectors: MatchingGraph::num_detectors(&graph),
        }
    }

    fn two_tenant_setup() -> (Vec<TenantSpec<TestFactory>>, Vec<Circuit>) {
        let circuits = vec![rep_circuit(0.02), rep_circuit(0.05)];
        let tenants = circuits.iter().map(tenant_for).collect();
        (tenants, circuits)
    }

    #[test]
    fn loopback_partitions_ingested_rounds() {
        let (tenants, circuits) = two_tenant_setup();
        let config = StreamConfig {
            workers: 2,
            queue_bound: 64,
            ..StreamConfig::default()
        };
        let opts = LoopbackOptions {
            windows_per_tenant: 8,
            rounds_per_window: 2,
            ..LoopbackOptions::default()
        };
        let (report, driver) =
            loopback_serve(tenants, &circuits, config, &opts, ObsSink::enabled()).unwrap();
        assert_eq!(driver.windows_rejected, 0);
        assert_eq!(report.health.rounds_pending(), 0);
        for t in &report.health.tenants {
            assert_eq!(t.rounds_ingested, 16, "tenant {}", t.tenant);
            assert_eq!(
                t.rounds_decoded + t.rounds_shed + t.rounds_deferred,
                t.rounds_ingested
            );
            assert_eq!(t.rounds_rejected, 0);
        }
        // No shedding without a deadline: every window fully decoded.
        assert_eq!(report.health.windows_decoded, 16);
        assert_eq!(
            report.health.windows_shed + report.health.windows_deferred,
            0
        );
        assert_eq!(driver.shots_scored, 16 * BATCH as u64);
        // Decoding suppresses the physical rate well below 5%.
        assert!((driver.failures as f64) < 0.05 * driver.shots_scored as f64);
        let json = report.health.to_json();
        assert!(json.contains("\"rounds_pending\":0"));
        assert!(json.contains("\"tenants\":[{"));
    }

    #[test]
    fn masks_are_identical_across_worker_counts() {
        let masks_with = |workers: usize| {
            let (tenants, circuits) = two_tenant_setup();
            let config = StreamConfig {
                workers,
                queue_bound: 64,
                ..StreamConfig::default()
            };
            let opts = LoopbackOptions {
                windows_per_tenant: 6,
                rounds_per_window: 1,
                base_seed: 42,
                ..LoopbackOptions::default()
            };
            let (report, _) =
                loopback_serve(tenants, &circuits, config, &opts, ObsSink::disabled()).unwrap();
            report
                .tenants
                .iter()
                .map(|rs| rs.iter().map(|r| (r.window, r.masks)).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        let one = masks_with(1);
        assert_eq!(one, masks_with(2));
        assert_eq!(one, masks_with(4));
    }

    #[test]
    fn full_queue_rejects_windows() {
        let (tenants, _) = two_tenant_setup();
        let config = StreamConfig {
            workers: 1,
            queue_bound: 1,
            ..StreamConfig::default()
        };
        let service = StreamingDecoder::start(tenants, config, ObsSink::disabled()).unwrap();
        // Stuff tenant 0 faster than one worker can drain a 1-deep queue:
        // with enough back-to-back windows at least one must be rejected,
        // and rejected rounds never count as ingested.
        let round = vec![0u64; 2];
        let mut rejected = 0;
        for _ in 0..64 {
            match service.push_round(0, &round).unwrap() {
                PushOutcome::Rejected { queue_depth } => {
                    assert!(queue_depth >= 1);
                    rejected += 1;
                }
                PushOutcome::Admitted { .. } => {}
                PushOutcome::Buffered { .. } => unreachable!(),
            }
        }
        service.drain();
        let report = service.shutdown();
        let t0 = &report.health.tenants[0];
        assert_eq!(t0.rounds_ingested + t0.rounds_rejected, 64);
        assert_eq!(
            t0.rounds_decoded + t0.rounds_shed + t0.rounds_deferred,
            t0.rounds_ingested
        );
        assert_eq!(rejected as u64, t0.rounds_rejected);
    }

    #[test]
    fn misaligned_round_is_rejected_without_ingesting() {
        let (tenants, _) = two_tenant_setup();
        let service =
            StreamingDecoder::start(tenants, StreamConfig::default(), ObsSink::disabled()).unwrap();
        assert!(matches!(
            service.push_round(0, &[0, 0, 0]),
            Err(WindowError::Misaligned { .. })
        ));
        assert!(matches!(
            service.push_round(0, &[]),
            Err(WindowError::EmptyRound)
        ));
        let report = service.shutdown();
        assert_eq!(report.health.tenants[0].rounds_ingested, 0);
    }

    /// Union-find over `rep_circuit`'s graph that sleeps `nap` on the first
    /// nonempty syndrome any copy of it decodes, holding its worker.
    struct Napper {
        inner: UnionFindDecoder,
        armed: Arc<AtomicBool>,
        nap: Duration,
    }

    impl Decoder for Napper {
        fn decode(&mut self, defects: &[usize]) -> u64 {
            if !defects.is_empty() && self.armed.swap(false, Ordering::SeqCst) {
                std::thread::sleep(self.nap);
            }
            self.inner.decode(defects)
        }
    }

    fn napping_tenant(nap: Duration) -> TenantSpec<impl Fn() -> Napper + Send + Sync + 'static> {
        let graph = crate::decode::graph_for_circuit(&rep_circuit(0.02));
        let armed = Arc::new(AtomicBool::new(true));
        TenantSpec {
            detectors: graph.num_detectors(),
            factory: move || Napper {
                inner: UnionFindDecoder::new(graph.clone()),
                armed: armed.clone(),
                nap,
            },
        }
    }

    #[test]
    fn delayed_arrival_is_shed_and_journaled() {
        // The only worker naps 150 ms on window 0, so the windows queued
        // behind it dequeue past their 50 ms deadline.
        let sink = ObsSink::enabled();
        let config = StreamConfig {
            workers: 1,
            queue_bound: 64,
            deadline: Some(Duration::from_millis(50)),
        };
        let service = StreamingDecoder::start(
            vec![napping_tenant(Duration::from_millis(150))],
            config,
            sink.clone(),
        )
        .unwrap();
        for _ in 0..3 {
            service.push_round(0, &[1, 0]).unwrap();
        }
        service.drain();
        let report = service.shutdown();
        let rs = &report.tenants[0];
        assert_eq!(rs[0].disposition, Disposition::Decoded);
        for r in &rs[1..] {
            assert_eq!(r.disposition, Disposition::Shed);
            assert_eq!(r.masks, [0u64; BATCH]);
        }
        assert_eq!(report.health.windows_shed, 2);
        assert_eq!(report.health.windows_deferred, 0);
        let snap = sink.snapshot();
        let sheds: Vec<_> = snap
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Shed { rung: 1, .. }))
            .collect();
        assert_eq!(sheds.len(), 2);
        assert_eq!(snap.counter("rounds_shed"), 2);
        assert_eq!(
            snap.counter("rounds_ingested"),
            snap.counter("rounds_decoded")
                + snap.counter("rounds_shed")
                + snap.counter("rounds_deferred")
        );
    }

    #[test]
    fn worker_wedge_is_detected_and_journaled() {
        // A decode that holds its worker for twice the wedge deadline is
        // flagged once by the watchdog; the window still decodes in full.
        let sink = ObsSink::enabled();
        let config = StreamConfig {
            workers: 2,
            queue_bound: 64,
            deadline: None,
        };
        let service = StreamingDecoder::start(
            vec![napping_tenant(2 * WEDGE_DEADLINE)],
            config,
            sink.clone(),
        )
        .unwrap();
        service.push_round(0, &[1, 0]).unwrap();
        service.push_round(0, &[0, 1]).unwrap();
        service.drain();
        let report = service.shutdown();
        assert_eq!(report.health.wedges, 1);
        assert_eq!(report.health.retries, 0);
        assert_eq!(report.health.windows_decoded, 2);
        assert!(report.tenants[0].iter().all(|r| r.retries == 0));
        let snap = sink.snapshot();
        assert_eq!(snap.counter("worker_wedges"), 1);
        assert_eq!(snap.counter("stream_retries"), 0);
        let wedges = snap
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Wedge { .. }))
            .count();
        assert_eq!(wedges, 1);
    }
}
