//! Serial, traced replay of the decode stack, one layer call per span:
//! `CompiledCircuit::sample_batches_wide_into` → `SparseBatch::extract` →
//! `Predecoder::predecode` → `ClusterTier::decompose` →
//! `UnionFindDecoder::decode`, dispatched by the same rules the engine and
//! the streaming service apply (empty shots skip decoding, shots with at
//! most `Predecoder::MAX_CERT_DEFECTS` defects try the predecoder, and the
//! cluster tier runs on a 64-shot window only when its mean defect count
//! reaches the gate threshold).

use crate::trace::{LayerTime, Tracer};
use crate::Outcome;
use caliqec_match::{
    ClusterTier, Decoder, MatchingGraph, Predecoder, UnionFindDecoder,
    CLUSTER_GATE_MIN_MEAN_DEFECTS,
};
use caliqec_stab::{
    chunk_seed, BatchEvents, CompiledCircuit, SparseBatch, WideFrameState, BATCH, LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The per-worker decode stack of a `Tiered` union-find factory, with the
/// cluster tier under the `Auto` gate when `cluster` is set.
#[derive(Debug)]
pub struct Layers {
    pub predecoder: Predecoder,
    pub cluster: Option<ClusterTier>,
    pub uf: UnionFindDecoder,
}

impl Layers {
    pub fn new(graph: &MatchingGraph, cluster: bool, tracer: &mut Tracer) -> Layers {
        let predecoder = tracer.span("graph.predecoder_build", |_| Predecoder::new(graph));
        let cluster = cluster.then(|| {
            tracer.span("graph.cluster_build", |_| {
                ClusterTier::from_predecoder(&predecoder)
            })
        });
        Layers {
            predecoder,
            cluster,
            uf: UnionFindDecoder::new(graph.clone()),
        }
    }
}

/// Outcome counts of a replay; call counts and times come from the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub shots: u64,
    pub failures: u64,
    pub predecode_hits: u64,
    pub cluster_defects: u64,
    pub cluster_peeled_defects: u64,
    pub cluster_full_peels: u64,
    pub uf_defects: u64,
}

/// Decodes one extracted 64-shot window, scoring each shot's mask against
/// the sampled observables.
pub fn decode_window(
    sparse: &SparseBatch,
    layers: &mut Layers,
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let mut masks = [0u64; BATCH];
    let mut pending: Vec<usize> = Vec::new();
    let mut dense: Vec<usize> = Vec::new();
    let mut window_defects = 0usize;
    for (s, mask) in masks.iter_mut().enumerate() {
        let defects = sparse.defects(s);
        window_defects += defects.len();
        if defects.is_empty() {
            continue;
        }
        if defects.len() > Predecoder::MAX_CERT_DEFECTS {
            dense.push(s);
            continue;
        }
        match tracer.span("predecode", |_| layers.predecoder.predecode(defects)) {
            Some(m) => {
                *mask = m;
                counts.predecode_hits += 1;
            }
            None => pending.push(s),
        }
    }
    let gate_open = window_defects as f64 / BATCH as f64 >= CLUSTER_GATE_MIN_MEAN_DEFECTS;
    if let Some(cluster) = layers.cluster.as_mut().filter(|_| gate_open) {
        for &s in &dense {
            let defects = sparse.defects(s);
            let out = tracer.span("cluster", |_| cluster.decompose(defects));
            counts.cluster_defects += defects.len() as u64;
            counts.cluster_peeled_defects += u64::from(out.peeled_defects);
            masks[s] = out.mask;
            if out.fully_peeled() {
                counts.cluster_full_peels += 1;
            } else {
                let residual = cluster.residual_defects();
                counts.uf_defects += residual.len() as u64;
                masks[s] ^= tracer.span("uf", |_| layers.uf.decode(residual));
            }
        }
    } else {
        pending.extend_from_slice(&dense);
    }
    for &s in &pending {
        let defects = sparse.defects(s);
        counts.uf_defects += defects.len() as u64;
        masks[s] = tracer.span("uf", |_| layers.uf.decode(defects));
    }
    counts.shots += BATCH as u64;
    for (s, &mask) in masks.iter().enumerate() {
        if mask != sparse.observables(s) {
            counts.failures += 1;
        }
    }
}

/// Samples `groups × LANES` batches from `compiled` with the engine's
/// per-batch seed schedule and decodes each one.
pub fn replay_sampled(
    compiled: &CompiledCircuit,
    layers: &mut Layers,
    groups: usize,
    base_seed: u64,
    tracer: &mut Tracer,
) -> Counts {
    let mut counts = Counts::default();
    let mut wide = WideFrameState::new(compiled);
    let mut events: [BatchEvents; LANES] = Default::default();
    let mut sparse = SparseBatch::new();
    for g in 0..groups {
        let mut rngs: [StdRng; LANES] = std::array::from_fn(|l| {
            StdRng::seed_from_u64(chunk_seed(base_seed, (g * LANES + l) as u64))
        });
        tracer.span("stab.sample", |_| {
            compiled.sample_batches_wide_into(&mut wide, &mut rngs, &mut events)
        });
        for ev in &events {
            tracer.span("stab.extract", |_| sparse.extract(ev));
            decode_window(&sparse, layers, tracer, &mut counts);
        }
    }
    counts
}

/// Decodes already-sampled windows (the stream workload's pool).
pub fn replay_windows(windows: &[BatchEvents], layers: &mut Layers, tracer: &mut Tracer) -> Counts {
    let mut counts = Counts::default();
    let mut sparse = SparseBatch::new();
    for ev in windows {
        tracer.span("stab.extract", |_| sparse.extract(ev));
        decode_window(&sparse, layers, tracer, &mut counts);
    }
    counts
}

/// Mean self time per call of `name`, in ms (0 when never called).
fn ms_per_call(layer: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    layer
        .get(name)
        .map_or(0.0, |l| l.self_ns / l.calls.max(1) as f64 / 1e6)
}

/// The set-up layers' `*_ms` metrics from their spans.
pub fn setup_metrics(layer: &BTreeMap<&'static str, LayerTime>, out: &mut Outcome) {
    for (metric, span) in [
        ("code.deform_ms", "code.deform"),
        ("code.memory_circuit_ms", "code.memory_circuit"),
        ("stab.extract_dem_ms", "stab.extract_dem"),
        ("graph.from_dem_ms", "graph.from_dem"),
        ("graph.predecoder_build_ms", "graph.predecoder_build"),
        ("graph.cluster_build_ms", "graph.cluster_build"),
        ("device.prepare_ms", "device.prepare"),
        ("sched.compile_ms", "sched.compile"),
    ] {
        out.metric(metric, ms_per_call(layer, span));
    }
}

/// The decode layers' metrics from a traced replay's spans and counts.
pub fn decode_metrics(
    layer: &BTreeMap<&'static str, LayerTime>,
    counts: &Counts,
    out: &mut Outcome,
) {
    let shots = counts.shots as f64;
    let self_ns = |name: &str| layer.get(name).map_or(0.0, |l| l.self_ns);
    let calls = |name: &str| layer.get(name).map_or(0.0, |l| l.calls as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.metric("stab.extract_ns_per_shot", self_ns("stab.extract") / shots);
    out.metric("predecode.calls_per_shot", calls("predecode") / shots);
    out.metric(
        "predecode.ns_per_call",
        ratio(self_ns("predecode"), calls("predecode")),
    );
    out.metric(
        "predecode.hit_ratio",
        ratio(counts.predecode_hits as f64, calls("predecode")),
    );
    out.metric("cluster.calls_per_shot", calls("cluster") / shots);
    out.metric(
        "cluster.ns_per_shot",
        ratio(self_ns("cluster"), calls("cluster")),
    );
    out.metric(
        "cluster.peeled_defect_ratio",
        ratio(
            counts.cluster_peeled_defects as f64,
            counts.cluster_defects as f64,
        ),
    );
    out.metric(
        "cluster.full_peel_ratio",
        ratio(counts.cluster_full_peels as f64, calls("cluster")),
    );
    out.metric("uf.calls_per_shot", calls("uf") / shots);
    out.metric("uf.ns_per_call", ratio(self_ns("uf"), calls("uf")));
    out.metric(
        "uf.defects_per_call",
        ratio(counts.uf_defects as f64, calls("uf")),
    );
    out.detail("replay_shots", shots);
    out.detail("replay_logical_failures", counts.failures as f64);
}
