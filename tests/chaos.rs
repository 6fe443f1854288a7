//! Chaos suite for the hardened LER engine: every injectable fault kind,
//! and a front tier that panics inside a chunk on its own, must be
//! recovered on the degradation ladder with a bit-identical logical-error
//! estimate and honest accounting in [`EngineRun`], and a fault-free run
//! must report zero faults.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    graph_for_circuit, ClusterGate, ClusterTier, DecodeStack, Decoder, DecoderFactory, Edge,
    EngineError, EngineRun, FaultKind, FaultPlan, LerEngine, MatchingGraph, SampleOptions, Tiered,
    UnionFindDecoder,
};
use caliqec_obs::{EventKind, ObsSink, Snapshot};
use caliqec_stab::CompiledCircuit;
use std::sync::Once;

/// Silences the default panic hook for the engine's named worker threads,
/// so the injected (caught and retried) panics don't spray backtraces over
/// the test output. Panics on any other thread still print normally.
fn quiet_worker_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("caliqec-ler-"));
            if !worker {
                default_hook(info);
            }
        }));
    });
}

/// A small d = 3 memory workload plus the tiered union-find factory the
/// production pipeline uses (its fallback graph enables all three ladder
/// rungs).
fn workload() -> (
    CompiledCircuit,
    Tiered<impl Fn() -> UnionFindDecoder + Sync>,
) {
    let mem = memory_circuit(
        &rotated_patch(3, 3),
        &NoiseModel::uniform(3e-3),
        3,
        MemoryBasis::Z,
    );
    let compiled = CompiledCircuit::new(&mem.circuit);
    let graph = graph_for_circuit(&mem.circuit);
    let factory = Tiered::new(&graph, {
        let graph = graph.clone();
        move || UnionFindDecoder::new(graph.clone())
    });
    (compiled, factory)
}

const OPTS: SampleOptions = SampleOptions {
    min_shots: 2_000,
    max_failures: 0,
    max_shots: 0,
};
const SEED: u64 = 0xC4A05;

fn run_clean() -> EngineRun {
    let (compiled, factory) = workload();
    LerEngine::new(2).estimate(&compiled, &factory, OPTS, SEED)
}

fn run_with(plan: FaultPlan, threads: usize) -> EngineRun {
    let (compiled, factory) = workload();
    LerEngine::new(threads)
        .with_faults(plan)
        .try_run(&compiled, &factory, OPTS, SEED)
        .expect("engine must recover injected faults on the ladder")
}

fn run_observed(plan: FaultPlan, threads: usize) -> (EngineRun, Snapshot) {
    let (compiled, factory) = workload();
    let sink = ObsSink::enabled();
    let run = LerEngine::new(threads)
        .with_faults(plan)
        .with_obs(sink.clone())
        .try_run(&compiled, &factory, OPTS, SEED)
        .expect("engine must recover injected faults on the ladder");
    (run, sink.snapshot())
}

#[test]
fn every_injection_kind_recovers_bit_identically() {
    quiet_worker_panics();
    let clean = run_clean();
    let kinds = [
        (FaultPlan::new().panic_at(0), FaultKind::Panic),
        (
            FaultPlan::new().corrupt_defects_at(0),
            FaultKind::CorruptDefects,
        ),
    ];
    for (plan, kind) in kinds {
        let chaos = run_with(plan, 2);
        assert_eq!(
            (chaos.estimate.shots, chaos.estimate.failures),
            (clean.estimate.shots, clean.estimate.failures),
            "{kind}: estimate must be bit-identical to the clean run"
        );
        assert_eq!(chaos.faulted_chunks, 1, "{kind}: one injection, one fault");
        assert!(chaos.degraded(), "{kind}: run must admit it degraded");
        assert!(chaos.degraded_shots > 0, "{kind}");
        assert_eq!(chaos.rung_chunks[1], 1, "{kind}: retry lands on rung 1");
    }
}

#[test]
fn faults_off_reports_zero_faulted_chunks() {
    quiet_worker_panics();
    let clean = run_clean();
    assert_eq!(clean.faulted_chunks, 0);
    assert_eq!(clean.degraded_shots, 0);
    assert_eq!(clean.rung_chunks[1], 0);
    assert_eq!(clean.rung_chunks[2], 0);
    assert!(!clean.degraded());

    // Arming an empty plan is the same as not arming at all.
    let (compiled, factory) = workload();
    let empty = LerEngine::new(2)
        .with_faults(FaultPlan::new())
        .try_run(&compiled, &factory, OPTS, SEED)
        .expect("empty plan cannot fault");
    assert_eq!(empty.faulted_chunks, 0);
    assert_eq!(
        (empty.estimate.shots, empty.estimate.failures),
        (clean.estimate.shots, clean.estimate.failures)
    );
}

#[test]
fn recovery_is_thread_count_independent() {
    quiet_worker_panics();
    let clean = run_clean();
    // The second plan alternates both fault kinds on consecutive chunks.
    for (spec, faults) in [
        ("panic@0,corrupt@2", 2),
        ("panic@0,corrupt@1,panic@2,corrupt@3,panic@4", 5),
    ] {
        let plan = FaultPlan::parse(spec).expect("valid fault spec");
        for threads in [1, 4] {
            let run = run_with(plan.clone(), threads);
            assert_eq!(
                (run.estimate.shots, run.estimate.failures),
                (clean.estimate.shots, clean.estimate.failures),
                "{spec} at {threads} threads: ladder retries must not break \
                 thread-count determinism"
            );
            assert_eq!(run.faulted_chunks, faults, "{spec} at {threads} threads");
        }
    }
}

#[test]
fn every_injected_fault_has_a_matching_journal_event() {
    quiet_worker_panics();
    let kinds = [
        (FaultPlan::new().panic_at(0), 0u32, "panic"),
        (FaultPlan::new().corrupt_defects_at(2), 2, "panic"),
    ];
    for (plan, chunk, tag) in kinds {
        let (_run, snap) = run_observed(plan, 2);
        let faults: Vec<_> = snap
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fault { kind, rung } => Some((e.chunk, kind, rung)),
                _ => None,
            })
            .collect();
        assert_eq!(
            faults,
            vec![(chunk, tag, 0u8)],
            "{tag}@{chunk}: exactly one fault event on rung 0"
        );
        let retries: Vec<_> = snap
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Retry { rung } => Some((e.chunk, rung)),
                _ => None,
            })
            .collect();
        assert_eq!(
            retries,
            vec![(chunk, 1u8)],
            "{tag}@{chunk}: the retry relaunches the faulted chunk on rung 1"
        );
        // The journal's retry must be ordered after its fault within the
        // chunk (same worker assigns both sequence numbers).
        let fault_pos = snap
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Fault { .. }))
            .unwrap();
        let retry_pos = snap
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Retry { .. }))
            .unwrap();
        assert!(fault_pos < retry_pos, "{tag}@{chunk}: fault before retry");
    }
}

#[test]
fn journal_counts_reconcile_with_run_accounting() {
    quiet_worker_panics();
    let plan = FaultPlan::new()
        .panic_at(0)
        .corrupt_defects_at(1)
        .panic_at(3);
    let (run, snap) = run_observed(plan, 4);
    let faults = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Fault { kind: "panic", .. }))
        .count();
    assert_eq!(run.faulted_chunks, 3);
    assert_eq!(
        faults, run.faulted_chunks,
        "every fault in the run log appears in the journal"
    );
    let retries = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
        .count();
    assert_eq!(retries, run.faulted_chunks, "every fault is retried once");
    // Chunks finished per rung reconcile with the run's ladder counters.
    for rung in 0..3u8 {
        let finished = snap
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ChunkFinish { rung: r, .. } if r == rung))
            .count();
        assert_eq!(
            finished, run.rung_chunks[rung as usize],
            "rung {rung}: journal finishes match rung_chunks"
        );
    }
    // Snapshot counters agree with both views.
    assert_eq!(snap.counter("faults_panic"), run.faulted_chunks as u64);
    assert_eq!(snap.counter("retries"), run.faulted_chunks as u64);
    assert_eq!(snap.counter("shots_degraded"), run.degraded_shots as u64);
    assert_eq!(snap.counter("chunks_finished"), run.chunks_executed as u64);
}

/// A denser d = 7 memory workload: at 8e-3 a sizable fraction of shots
/// carry more than `Predecoder::MAX_CERT_DEFECTS` defects (every 64-shot
/// chunk of [`OPTS`] holds some), the shots an armed cluster tier takes.
fn dense_memory() -> (CompiledCircuit, MatchingGraph) {
    let mem = memory_circuit(
        &rotated_patch(7, 7),
        &NoiseModel::uniform(8e-3),
        7,
        MemoryBasis::Z,
    );
    (
        CompiledCircuit::new(&mem.circuit),
        graph_for_circuit(&mem.circuit),
    )
}

/// [`dense_memory`] with the cluster tier enabled, so a chunk that faults
/// on rung 0 is one the cluster tier decodes.
fn cluster_workload() -> (
    CompiledCircuit,
    Tiered<impl Fn() -> UnionFindDecoder + Sync>,
) {
    let (compiled, graph) = dense_memory();
    let factory = Tiered::new(&graph, {
        let graph = graph.clone();
        move || UnionFindDecoder::new(graph.clone())
    })
    .with_cluster_gate(ClusterGate::On);
    (compiled, factory)
}

#[test]
fn faulted_cluster_decode_retries_down_the_ladder_bit_identically() {
    quiet_worker_panics();
    let (compiled, factory) = cluster_workload();
    let clean = LerEngine::new(2).estimate(&compiled, &factory, OPTS, SEED);
    assert!(
        clean.clustered_shots + clean.clusters_total as usize > 0,
        "workload must be dense enough for the cluster tier to fire"
    );
    assert_eq!(clean.faulted_chunks, 0);

    let (compiled, factory) = cluster_workload();
    let chaos = LerEngine::new(2)
        .with_faults(FaultPlan::parse("panic@0").expect("panic kind parses"))
        .try_run(&compiled, &factory, OPTS, SEED)
        .expect("a panic on a cluster-armed stack must be recovered on the ladder");
    assert_eq!(
        (chaos.estimate.shots, chaos.estimate.failures),
        (clean.estimate.shots, clean.estimate.failures),
        "rung-1 monolithic retry must reproduce the clean estimate bit-identically"
    );
    assert_eq!(chaos.faulted_chunks, 1);
    assert_eq!(
        chaos.rung_chunks[1], 1,
        "the retry drops the tier and decodes the chunk monolithically on rung 1"
    );
    assert!(chaos.degraded());
    assert!(
        chaos.clustered_shots + chaos.clusters_total as usize
            <= clean.clustered_shots + clean.clusters_total as usize,
        "the rung-1 chunk contributes no clustered shots"
    );
}

/// A decoder that panics on every nonempty syndrome: no retry with a
/// rebuilt copy of it can succeed.
struct Doomed;

impl Decoder for Doomed {
    fn decode(&mut self, defects: &[usize]) -> u64 {
        assert!(
            defects.is_empty(),
            "doomed decoder saw {} defects",
            defects.len()
        );
        0
    }
}

#[test]
fn no_fallback_ladder_ends_at_rung_one() {
    quiet_worker_panics();
    let (compiled, _) = workload();
    // Without a fallback graph, rung 1 is the last rung: the first chunk
    // that faults there fails the run with a typed error.
    let result = LerEngine::new(2).try_run(&compiled, &|| Doomed, OPTS, SEED);
    assert!(
        matches!(result, Err(EngineError::ChunkFailed { rung: 1, .. })),
        "expected a rung-1 ChunkFailed, got {result:?}"
    );
    // With one, rung 2's reference union-find decodes every chunk the
    // doomed decoder could not, bit-identically to the clean run.
    let mem = memory_circuit(
        &rotated_patch(3, 3),
        &NoiseModel::uniform(3e-3),
        3,
        MemoryBasis::Z,
    );
    let graph = graph_for_circuit(&mem.circuit);
    let factory = Tiered::new(&graph, || Doomed);
    let run = LerEngine::new(2)
        .try_run(&compiled, &factory, OPTS, SEED)
        .expect("rung 2 must recover");
    let clean = run_clean();
    assert_eq!(
        (run.estimate.shots, run.estimate.failures),
        (clean.estimate.shots, clean.estimate.failures)
    );
    assert!(run.rung_chunks[2] > 0);
    assert_eq!(run.faulted_chunks, 2 * run.rung_chunks[2]);
}

/// The graph of a single detector with one boundary edge.
fn one_detector_graph() -> MatchingGraph {
    MatchingGraph::from_edges(
        1,
        1,
        vec![Edge {
            u: 0,
            v: 1,
            probability: 0.01,
            weight: (0.99f64 / 0.01).ln(),
            observables: 1,
        }],
    )
}

/// A factory whose rung-0 stack arms a cluster tier built for the wrong
/// (one-detector) graph, gate on, in front of a correct union-find: the
/// first dense shot with a defect past that graph panics inside the
/// cluster tier, in the middle of the chunk's decode. Its bare decoder is
/// sound.
struct MisfitFront {
    graph: MatchingGraph,
    cluster: ClusterTier,
}

impl DecoderFactory for MisfitFront {
    type Decoder = UnionFindDecoder;

    fn build(&self) -> UnionFindDecoder {
        UnionFindDecoder::new(self.graph.clone())
    }

    fn stack(&self) -> DecodeStack<UnionFindDecoder> {
        DecodeStack {
            cluster: Some(self.cluster.clone()),
            gate: ClusterGate::On,
            ..DecodeStack::new(self.build())
        }
    }
}

#[test]
fn front_tier_panic_inside_a_chunk_recovers_on_rung_one() {
    quiet_worker_panics();
    let (compiled, graph) = dense_memory();
    // Rung 1 decodes with the bare union-find, so the reference is the
    // plain union-find run of the same workload.
    let clean = LerEngine::new(2).estimate(
        &compiled,
        &|| UnionFindDecoder::new(graph.clone()),
        OPTS,
        SEED,
    );
    let factory = MisfitFront {
        cluster: ClusterTier::new(&one_detector_graph()),
        graph,
    };
    for threads in [1, 2] {
        let run = LerEngine::new(threads)
            .try_run(&compiled, &factory, OPTS, SEED)
            .expect("rung 1's bare decoder must recover every chunk");
        assert_eq!(
            (run.estimate.shots, run.estimate.failures),
            (clean.estimate.shots, clean.estimate.failures),
            "threads={threads}: rung 1 must reproduce the clean estimate"
        );
        assert_eq!(
            run.faulted_chunks, run.chunks_executed,
            "threads={threads}: every chunk faults on rung 0"
        );
        assert_eq!(run.chunks_executed, 32, "threads={threads}");
        assert_eq!(run.rung_chunks[1], run.faulted_chunks, "threads={threads}");
        // Each fault hits after the window's defect histogram and tier-0
        // shots were counted; only the attempt that succeeded reaches the
        // run's accounting.
        assert_eq!(
            run.tier0_shots + run.clustered_shots + run.residual_shots,
            run.estimate.shots,
            "threads={threads}: a failed attempt leaked its tier counts"
        );
        assert_eq!(
            run.defect_histogram.iter().sum::<u64>(),
            run.estimate.shots as u64,
            "threads={threads}"
        );
    }
}

#[test]
fn spec_grammar_round_trips_through_parse() {
    let plan = FaultPlan::parse("panic@0,corrupt@1,panic@7").expect("valid spec");
    assert_eq!(
        plan,
        FaultPlan::new()
            .panic_at(0)
            .corrupt_defects_at(1)
            .panic_at(7)
    );
    assert_eq!(plan.injection(1), Some(FaultKind::CorruptDefects));
    assert_eq!(plan.injection(6), None);
    assert!(FaultPlan::parse("panic@").is_err());
    assert!(FaultPlan::parse("meltdown@1").is_err());
    // Kinds that no production path can have are not part of the grammar.
    for gone in [
        "stall",
        "badweights",
        "slowtenant",
        "delay",
        "burst",
        "wedge",
    ] {
        assert!(
            FaultPlan::parse(&format!("{gone}@0")).is_err(),
            "{gone} must not parse"
        );
    }
}
