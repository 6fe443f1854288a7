//! Validation suite for the streaming decode service: golden replay
//! (mask bit-identity across worker counts), a backpressure property
//! test (queues stay bounded and every ingested round is accounted
//! for), chaos recovery from decoders that stall or panic on their own —
//! with matching journal evidence — and a deterministic overload
//! acceptance run that sheds through the declared ladder while keeping
//! the round partition exact.

use caliqec_match::{
    graph_for_circuit, loopback_serve, ClusterGate, ClusterTier, DecodeStack, Decoder,
    DecoderFactory, Disposition, Edge, LoopbackOptions, MatchingGraph, Predecoder, PushOutcome,
    StreamConfig, StreamingDecoder, TenantSpec, Tiered, UnionFindDecoder,
};
use caliqec_obs::{EventKind, ObsSink};
use caliqec_stab::{Basis, Circuit, Noise1, BATCH};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::time::Duration;

type Factory = Tiered<Box<dyn Fn() -> UnionFindDecoder + Send + Sync>>;

/// A 5-qubit repetition-code round: two Z-checks, one logical readout.
/// Small on purpose — the suite exercises the service's scheduling and
/// accounting, not decode throughput.
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

fn tenant_for(c: &Circuit) -> TenantSpec<Factory> {
    let graph = graph_for_circuit(c);
    let g = graph.clone();
    let factory: Box<dyn Fn() -> UnionFindDecoder + Send + Sync> =
        Box::new(move || UnionFindDecoder::new(g.clone()));
    TenantSpec {
        detectors: graph.num_detectors(),
        factory: Tiered::new(&graph, factory),
    }
}

/// `n` tenant circuits, tenant `t` at physical rate `0.01 (t + 1)`.
fn fleet_circuits(n: usize) -> Vec<Circuit> {
    (0..n)
        .map(|t| rep_circuit(0.01 + 0.01 * t as f64))
        .collect()
}

fn fleet(n: usize) -> (Vec<TenantSpec<Factory>>, Vec<Circuit>) {
    let circuits = fleet_circuits(n);
    let tenants = circuits.iter().map(tenant_for).collect();
    (tenants, circuits)
}

/// Flattens a report into comparable (tenant, window, disposition, masks)
/// rows.
fn mask_rows(report: &caliqec_match::StreamReport) -> Vec<(usize, u64, Disposition, [u64; BATCH])> {
    report
        .tenants
        .iter()
        .enumerate()
        .flat_map(|(t, rs)| {
            rs.iter()
                .map(move |r| (t, r.window, r.disposition, r.masks))
        })
        .collect()
}

/// Golden replay: the same (tenant, window, seed) stream must produce
/// bit-identical masks no matter how many workers race over the queue.
/// Deadline is off and the queue bound exceeds the total window count, so
/// scheduling jitter cannot shed or reject anything.
#[test]
fn golden_replay_masks_identical_at_worker_counts_1_2_8() {
    let run_with = |workers: usize| {
        let (tenants, circuits) = fleet(3);
        let config = StreamConfig {
            workers,
            queue_bound: 64,
            deadline: None,
        };
        let opts = LoopbackOptions {
            windows_per_tenant: 12,
            rounds_per_window: 2,
            gap: Duration::ZERO,
            base_seed: 0x601D,
        };
        let (report, driver) =
            loopback_serve(tenants, &circuits, config, &opts, ObsSink::disabled()).unwrap();
        assert_eq!(driver.windows_rejected, 0, "workers={workers}");
        assert_eq!(report.health.windows_decoded, 36, "workers={workers}");
        mask_rows(&report)
    };
    let one = run_with(1);
    assert_eq!(one.len(), 36);
    assert_eq!(one, run_with(2), "1 worker vs 2 workers");
    assert_eq!(one, run_with(8), "1 worker vs 8 workers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Backpressure property: for arbitrary queue bounds, worker counts,
    /// and flood lengths, (a) an admitted window never leaves a tenant's
    /// queue deeper than the bound, (b) every rejection reports a depth at
    /// the bound, and (c) after a drain the ingested rounds partition
    /// exactly into decoded + shed + deferred with rejections accounted
    /// separately — no silent drops.
    #[test]
    fn backpressure_bounds_queues_and_partitions_rounds(
        queue_bound in 1usize..4,
        workers in 1usize..4,
        pushes in 1usize..48,
        seed in 0u64..1_000,
    ) {
        let (tenants, _) = fleet(2);
        let config = StreamConfig {
            workers,
            queue_bound,
            ..StreamConfig::default()
        };
        let service = StreamingDecoder::start(tenants, config, ObsSink::disabled()).unwrap();
        let mut word = seed;
        let mut rejected = 0u64;
        for i in 0..pushes {
            // Cheap deterministic syndrome words (xorshift); every push
            // closes a one-round window on tenant 0.
            word ^= word << 13;
            word ^= word >> 7;
            word ^= word << 17;
            match service.push_round(0, &[word, word.rotate_left(19)]).unwrap() {
                PushOutcome::Rejected { queue_depth } => {
                    prop_assert!(queue_depth >= queue_bound, "push {i}");
                    rejected += 1;
                }
                PushOutcome::Admitted { .. } => {}
                PushOutcome::Buffered { .. } => unreachable!("single-round window"),
            }
            let health = service.health();
            for t in &health.tenants {
                prop_assert!(
                    t.queue_depth <= queue_bound,
                    "tenant {} depth {} over bound {queue_bound}",
                    t.tenant,
                    t.queue_depth,
                );
            }
        }
        service.drain();
        let report = service.shutdown();
        let t0 = &report.health.tenants[0];
        prop_assert_eq!(t0.rounds_rejected, rejected);
        prop_assert_eq!(t0.rounds_ingested + t0.rounds_rejected, pushes as u64);
        prop_assert_eq!(
            t0.rounds_decoded + t0.rounds_shed + t0.rounds_deferred,
            t0.rounds_ingested
        );
        prop_assert_eq!(report.health.rounds_pending(), 0);
        // The idle tenant saw nothing.
        prop_assert_eq!(report.health.tenants[1].rounds_ingested, 0);
    }
}

/// Silences the default panic hook for the service's named worker
/// threads, so the decoder panics these tests provoke (caught and retried)
/// don't spray backtraces over the test output.
fn quiet_worker_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("caliqec-stream-"));
            if !worker {
                default_hook(info);
            }
        }));
    });
}

/// What a [`Tripwire`] decoder does when a syndrome reaches it.
#[derive(Clone, Copy)]
enum Trip {
    /// Sleep on the first nonempty syndrome any copy sees, holding the
    /// worker, then decode normally.
    Sleep(Duration),
    /// Panic on the first nonempty syndrome any copy sees; decode normally
    /// ever after.
    PanicOnce,
    /// Panic on every nonempty syndrome.
    PanicAlways,
}

/// Union-find behind a tripwire shared by every copy the factory builds.
struct Tripwire {
    inner: UnionFindDecoder,
    trip: Trip,
    armed: Arc<AtomicBool>,
}

impl Decoder for Tripwire {
    fn decode(&mut self, defects: &[usize]) -> u64 {
        if !defects.is_empty() {
            match self.trip {
                Trip::PanicAlways => panic!("decoder bug on {} defects", defects.len()),
                trip if self.armed.swap(false, Ordering::SeqCst) => match trip {
                    Trip::Sleep(nap) => std::thread::sleep(nap),
                    _ => panic!("one-off decoder bug"),
                },
                _ => {}
            }
        }
        self.inner.decode(defects)
    }
}

/// `fleet(n)`'s circuits, every tenant decoding through tripwired
/// union-find with no front tiers (every nonempty shot reaches the
/// decoder). One wire serves the whole fleet; `Trip::Sleep(ZERO)` makes
/// plain union-find.
fn tripwired_fleet(
    n: usize,
    trip: Trip,
) -> (
    Vec<TenantSpec<impl Fn() -> Tripwire + Send + Sync + 'static>>,
    Vec<Circuit>,
) {
    let circuits = fleet_circuits(n);
    let armed = Arc::new(AtomicBool::new(true));
    let tenants = circuits
        .iter()
        .map(|c| {
            let graph = graph_for_circuit(c);
            let armed = armed.clone();
            TenantSpec {
                detectors: graph.num_detectors(),
                factory: move || Tripwire {
                    inner: UnionFindDecoder::new(graph.clone()),
                    trip,
                    armed: armed.clone(),
                },
            }
        })
        .collect();
    (tenants, circuits)
}

/// One-round window words for `fleet`'s two-detector tenants: shot 0
/// fires detector 0.
const DEFECT: [u64; 2] = [1, 0];
/// A window in which no shot fires anything.
const QUIET: [u64; 2] = [0, 0];

/// A decoder that holds the only worker for 150 ms makes every window
/// queued behind it arrive past twice its 50 ms deadline: each must land
/// on shed rung 2 — declared deferred with zero masks and a matching
/// `shed` journal event, never silently dropped.
#[test]
fn chaos_delayed_arrival_defers_with_journal_evidence() {
    let (tenants, _) = tripwired_fleet(2, Trip::Sleep(Duration::from_millis(150)));
    let sink = ObsSink::enabled();
    let config = StreamConfig {
        workers: 1,
        queue_bound: 64,
        deadline: Some(Duration::from_millis(50)),
    };
    let service = StreamingDecoder::start(tenants, config, sink.clone()).unwrap();
    // Tenant 0's window 0 reaches the decoder first and trips the wire.
    for _ in 0..4 {
        for t in 0..2 {
            service.push_round(t, &DEFECT).unwrap();
        }
    }
    service.drain();
    let report = service.shutdown();
    assert_eq!(report.tenants[0][0].disposition, Disposition::Decoded);
    for (t, rs) in report.tenants.iter().enumerate() {
        assert_eq!(rs.len(), 4, "deferred windows still produce results");
        for r in rs.iter().filter(|r| (t, r.window) != (0, 0)) {
            assert_eq!(r.disposition, Disposition::Deferred, "tenant {t}");
            assert_eq!(r.masks, [0u64; BATCH]);
        }
    }
    assert_eq!(report.health.windows_deferred, 7);
    let snap = sink.snapshot();
    let rung2_sheds = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Shed { rung: 2, .. }))
        .count();
    assert_eq!(rung2_sheds, 7, "one rung-2 shed event per deferred window");
    assert_eq!(snap.counter("rounds_deferred"), 7);
    assert_eq!(
        snap.counter("rounds_ingested"),
        snap.counter("rounds_decoded")
            + snap.counter("rounds_shed")
            + snap.counter("rounds_deferred")
    );
}

/// A decode that holds its worker for twice the 200 ms wedge deadline must
/// be detected by the watchdog and journaled exactly once; the worker
/// keeps its window, which still decodes in full with no retry.
#[test]
fn chaos_worker_wedge_recovers_with_journal_evidence() {
    let (tenants, circuits) = tripwired_fleet(2, Trip::Sleep(Duration::from_millis(400)));
    let sink = ObsSink::enabled();
    let config = StreamConfig {
        workers: 2,
        queue_bound: 64,
        deadline: None,
    };
    let opts = LoopbackOptions {
        windows_per_tenant: 3,
        rounds_per_window: 1,
        gap: Duration::ZERO,
        base_seed: 7,
    };
    let (report, driver) = loopback_serve(tenants, &circuits, config, &opts, sink.clone()).unwrap();
    assert_eq!(report.health.wedges, 1, "one decode overran the deadline");
    assert_eq!(report.health.retries, 0, "a wedge is detected, not retried");
    assert_eq!(
        report.health.windows_decoded, 6,
        "every window still decodes in full"
    );
    assert!(report.tenants.iter().flatten().all(|r| r.retries == 0));
    assert_eq!(driver.shots_scored, 6 * BATCH as u64);
    let snap = sink.snapshot();
    assert_eq!(snap.counter("worker_wedges"), 1);
    assert_eq!(snap.counter("stream_retries"), 0);
    let wedge_events = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Wedge { .. }))
        .count();
    assert_eq!(wedge_events, 1, "the watchdog journals the wedge once");
}

/// A burst on one tenant while a slow decode holds the only worker must be
/// stopped at admission: the tenant's backpressure bound holds, the
/// overflow is rejected (not ingested), a neighbour tenant is still
/// admitted, and everything that WAS admitted decodes once the worker is
/// free.
#[test]
fn chaos_burst_arrival_is_rejected_at_the_bound_and_recovers() {
    let (tenants, _) = tripwired_fleet(2, Trip::Sleep(Duration::from_millis(300)));
    let sink = ObsSink::enabled();
    let config = StreamConfig {
        workers: 1,
        queue_bound: 2,
        deadline: None,
    };
    let service = StreamingDecoder::start(tenants, config, sink.clone()).unwrap();
    service.push_round(0, &DEFECT).unwrap();
    // Wait for the worker to take window 0 into its 300 ms decode.
    while service.health().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut rejected = 0u64;
    for _ in 0..7 {
        if let PushOutcome::Rejected { queue_depth } = service.push_round(0, &QUIET).unwrap() {
            assert!(queue_depth >= 2);
            rejected += 1;
        }
    }
    assert!(
        matches!(
            service.push_round(1, &QUIET).unwrap(),
            PushOutcome::Admitted { .. }
        ),
        "a full queue on tenant 0 must not block tenant 1"
    );
    service.drain();
    let report = service.shutdown();
    let t0 = &report.health.tenants[0];
    assert!(rejected > 0, "the burst must overflow the held queue");
    assert_eq!(t0.rounds_rejected, rejected);
    assert_eq!(t0.rounds_ingested + t0.rounds_rejected, 8);
    assert_eq!(
        t0.rounds_decoded, t0.rounds_ingested,
        "rejected rounds are not ingested; admitted rounds all decode"
    );
    assert_eq!(report.health.tenants[1].rounds_decoded, 1);
    assert!(report.health.queue_peak <= 2 * 2);
    assert_eq!(report.health.rounds_pending(), 0);
    assert_eq!(
        report.health.windows_shed + report.health.windows_deferred,
        0
    );
}

/// A decoder that panics once is quarantined, rebuilt, and its window
/// retried: the masks match a clean run bit for bit, and the one panic is
/// journaled and counted once.
#[test]
fn decoder_that_panics_once_is_retried_bit_identically() {
    quiet_worker_panics();
    let opts = LoopbackOptions {
        windows_per_tenant: 6,
        rounds_per_window: 2,
        gap: Duration::ZERO,
        base_seed: 0x5EED,
    };
    let config = StreamConfig {
        workers: 2,
        queue_bound: 64,
        deadline: None,
    };
    let (tenants, circuits) = tripwired_fleet(3, Trip::Sleep(Duration::ZERO));
    let (clean, _) = loopback_serve(
        tenants,
        &circuits,
        config.clone(),
        &opts,
        ObsSink::disabled(),
    )
    .unwrap();

    let (tenants, circuits) = tripwired_fleet(3, Trip::PanicOnce);
    let sink = ObsSink::enabled();
    let (report, _) = loopback_serve(tenants, &circuits, config, &opts, sink.clone()).unwrap();
    assert_eq!(
        mask_rows(&report),
        mask_rows(&clean),
        "retry changed a mask"
    );
    assert_eq!(report.health.windows_decoded, 18, "every window decodes");
    assert_eq!(report.health.retries, 1);
    assert_eq!(
        report
            .tenants
            .iter()
            .flatten()
            .map(|r| r.retries)
            .sum::<u32>(),
        1
    );
    let snap = sink.snapshot();
    assert_eq!(snap.counter("faults_panic"), 1);
    assert_eq!(snap.counter("stream_retries"), 1);
}

/// A decoder that panics on every nonempty syndrome exhausts its two
/// retries: the window is deferred with zero masks after three journaled
/// faults, while an empty window — which never reaches the decoder —
/// still decodes, and the round partition stays exact.
#[test]
fn decoder_that_always_panics_defers_its_window() {
    quiet_worker_panics();
    let (tenants, _) = tripwired_fleet(1, Trip::PanicAlways);
    let sink = ObsSink::enabled();
    let config = StreamConfig {
        workers: 1,
        queue_bound: 64,
        deadline: None,
    };
    let service = StreamingDecoder::start(tenants, config, sink.clone()).unwrap();
    service.push_round(0, &DEFECT).unwrap();
    service.push_round(0, &QUIET).unwrap();
    service.drain();
    let report = service.shutdown();
    let rs = &report.tenants[0];
    assert_eq!(rs[0].disposition, Disposition::Deferred);
    assert_eq!(rs[0].retries, 2);
    assert_eq!(rs[0].masks, [0u64; BATCH]);
    assert_eq!(rs[1].disposition, Disposition::Decoded);
    assert_eq!(rs[1].retries, 0);
    let t0 = &report.health.tenants[0];
    assert_eq!(
        t0.rounds_decoded + t0.rounds_shed + t0.rounds_deferred,
        t0.rounds_ingested
    );
    assert_eq!(report.health.rounds_pending(), 0);
    let snap = sink.snapshot();
    assert_eq!(snap.counter("faults_panic"), 3);
    assert_eq!(snap.counter("stream_retries"), 2);
    let rung2_sheds = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Shed { rung: 2, .. }))
        .count();
    assert_eq!(rung2_sheds, 1);
}

/// A decoder that returns no correction and sleeps `.0` on every nonempty
/// syndrome.
struct Nap(Duration);

impl Decoder for Nap {
    fn decode(&mut self, defects: &[usize]) -> u64 {
        if !defects.is_empty() {
            std::thread::sleep(self.0);
        }
        0
    }
}

/// A factory whose stack arms a cluster tier built for a one-detector
/// graph, under the `Auto` gate, in front of a [`Nap`] decoder: a shot the
/// tier decomposes that fires any detector past the first indexes past the
/// tier's tables and panics.
struct MisfitFront {
    cluster: ClusterTier,
    nap: Duration,
}

impl DecoderFactory for MisfitFront {
    type Decoder = Nap;

    fn build(&self) -> Nap {
        Nap(self.nap)
    }

    fn stack(&self) -> DecodeStack<Nap> {
        DecodeStack {
            cluster: Some(self.cluster.clone()),
            gate: ClusterGate::Auto,
            ..DecodeStack::new(self.build())
        }
    }
}

/// A panic on the shed fast path must be quarantined like one in the full
/// decode — journaled, the stack rebuilt, the window deferred — not kill
/// the worker and leave `drain()` waiting forever.
#[test]
fn fast_path_panic_is_quarantined_and_deferred() {
    quiet_worker_panics();
    let one_detector = MatchingGraph::from_edges(
        1,
        1,
        vec![Edge {
            u: 0,
            v: 1,
            probability: 0.01,
            weight: (0.99f64 / 0.01).ln(),
            observables: 1,
        }],
    );
    let tenant = TenantSpec {
        factory: MisfitFront {
            cluster: ClusterTier::new(&one_detector),
            nap: Duration::from_millis(300),
        },
        detectors: 16,
    };
    let sink = ObsSink::enabled();
    let config = StreamConfig {
        workers: 1,
        queue_bound: 64,
        deadline: Some(Duration::from_millis(200)),
    };
    let service = StreamingDecoder::start(vec![tenant], config, sink.clone()).unwrap();
    // Window 0's shot 0 fires more detectors than the cluster tier's
    // bound, but the window's mean stays far under the `Auto` gate's
    // threshold, so the shot goes straight to the decoder, which holds the
    // only worker for 300 ms.
    let mut dense = [0u64; 16];
    dense[..=Predecoder::MAX_CERT_DEFECTS].fill(1);
    service.push_round(0, &dense).unwrap();
    // The windows behind it fire detector 5 and dequeue ~300 ms old: past
    // the deadline but inside twice it, so they take the fast path, whose
    // cluster tier decomposes them and panics.
    let mut sparse = [0u64; 16];
    sparse[5] = 1;
    for _ in 0..4 {
        service.push_round(0, &sparse).unwrap();
    }
    let (done, report) = mpsc::channel();
    std::thread::spawn(move || {
        service.drain();
        let _ = done.send(service.shutdown());
    });
    let report = report
        .recv_timeout(Duration::from_secs(10))
        .expect("drain() must return: a fast-path panic may not kill the worker");
    assert_eq!(report.tenants[0].len(), 5, "every window is disposed");
    let h = &report.health;
    assert_eq!(h.rounds_pending(), 0);
    let t0 = &h.tenants[0];
    assert_eq!(
        t0.rounds_decoded + t0.rounds_shed + t0.rounds_deferred,
        t0.rounds_ingested
    );
    assert_eq!(t0.rounds_ingested, 5);
    assert!(
        sink.snapshot().counter("faults_panic") >= 1,
        "at least one window must have reached the fast path and faulted"
    );
}

/// Overload acceptance: at least 8 tenants flooding with no pacing
/// (arrival far above sustained capacity) into short queues under a
/// microsecond deadline. The service must keep every queue at its bound,
/// shed through the declared ladder rather than stalling, and account for
/// every round exactly.
#[test]
fn overload_keeps_bounded_queues_and_exact_partition() {
    let (tenants, circuits) = fleet(8);
    let sink = ObsSink::enabled();
    let config = StreamConfig {
        workers: 2,
        queue_bound: 2,
        deadline: Some(Duration::from_micros(1)),
    };
    let opts = LoopbackOptions {
        windows_per_tenant: 16,
        rounds_per_window: 1,
        gap: Duration::ZERO,
        base_seed: 0x0EAD,
    };
    let (report, driver) = loopback_serve(tenants, &circuits, config, &opts, sink.clone()).unwrap();
    let h = &report.health;
    assert!(
        h.queue_peak <= 8 * 2,
        "global peak {} exceeds tenants x bound",
        h.queue_peak
    );
    assert!(
        h.windows_shed + h.windows_deferred > 0,
        "a microsecond deadline under flood must shed"
    );
    let mut pushed = 0u64;
    for t in &h.tenants {
        assert_eq!(
            t.rounds_decoded + t.rounds_shed + t.rounds_deferred,
            t.rounds_ingested,
            "tenant {}",
            t.tenant
        );
        pushed += t.rounds_ingested + t.rounds_rejected;
    }
    assert_eq!(pushed, 8 * 16, "every pushed round is admitted or rejected");
    assert_eq!(h.rounds_pending(), 0);
    assert_eq!(
        driver.windows_pushed,
        8 * 16,
        "the driver offered every window"
    );
    // The health snapshot serializes and carries the same partition.
    let json = h.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"rounds_pending\":0"));
    let snap = sink.snapshot();
    assert_eq!(
        snap.counter("rounds_ingested"),
        snap.counter("rounds_decoded")
            + snap.counter("rounds_shed")
            + snap.counter("rounds_deferred")
    );
}
