//! Workspace-level proof that observability is passive: the engine's
//! golden fingerprints — estimate, defect histogram, and per-tier shot
//! counters — are bit-identical with the sink enabled or disabled, across
//! decoders (tiered union-find, MWPM), thread counts (1/2/8), and graphs
//! as built or reweighted to new rates. The journal itself is
//! deterministic across thread counts, and the Prometheus rendering passes
//! a line-format sanity parser.

use caliqec_code::{memory_circuit, rotated_patch, MemoryBasis, NoiseModel};
use caliqec_match::{
    graph_for_circuit, EngineRun, LerEngine, MatchingGraph, MwpmDecoder, SampleOptions, Tiered,
    UnionFindDecoder, DEFECT_HIST_BUCKETS,
};
use caliqec_obs::{render_prometheus, ObsSink};
use caliqec_stab::{CompiledCircuit, RateTable};

fn workload(d: usize) -> (CompiledCircuit, MatchingGraph) {
    let mem = memory_circuit(
        &rotated_patch(d, d),
        &NoiseModel::uniform(3e-3),
        d,
        MemoryBasis::Z,
    );
    (
        CompiledCircuit::new(&mem.circuit),
        graph_for_circuit(&mem.circuit),
    )
}

const OPTS: SampleOptions = SampleOptions {
    min_shots: 2_000,
    max_failures: 0,
    max_shots: 0,
};
const SEED: u64 = 0x0B5;

/// Everything the engine computes deterministically: if two runs agree on
/// this, they decoded the same shots the same way.
type Fingerprint = (
    usize,
    usize,
    [u64; DEFECT_HIST_BUCKETS],
    usize,
    usize,
    usize,
);

fn fingerprint(run: &EngineRun) -> Fingerprint {
    (
        run.estimate.shots,
        run.estimate.failures,
        run.defect_histogram,
        run.tier0_shots,
        run.predecoded_shots,
        run.residual_shots,
    )
}

#[test]
fn tiered_union_find_fingerprints_identical_obs_on_off() {
    let (compiled, graph) = workload(3);
    let factory = Tiered::new(&graph, {
        let graph = graph.clone();
        move || UnionFindDecoder::new(graph.clone())
    });
    let mut prints = Vec::new();
    for threads in [1usize, 2, 8] {
        for sink in [ObsSink::disabled(), ObsSink::enabled()] {
            let enabled = sink.is_enabled();
            let run = LerEngine::new(threads)
                .with_obs(sink)
                .estimate(&compiled, &factory, OPTS, SEED);
            prints.push((threads, enabled, fingerprint(&run)));
        }
    }
    let golden = &prints[0].2;
    for (threads, enabled, print) in &prints {
        assert_eq!(
            print, golden,
            "threads={threads} obs_enabled={enabled}: fingerprint drifted"
        );
    }
}

#[test]
fn mwpm_fingerprints_identical_obs_on_off() {
    let (compiled, graph) = workload(3);
    let factory = || MwpmDecoder::new(graph.clone());
    let mut prints = Vec::new();
    for threads in [1usize, 2, 8] {
        for sink in [ObsSink::disabled(), ObsSink::enabled()] {
            let enabled = sink.is_enabled();
            let run = LerEngine::new(threads)
                .with_obs(sink)
                .estimate(&compiled, &factory, OPTS, SEED);
            prints.push((threads, enabled, fingerprint(&run)));
        }
    }
    let golden = &prints[0].2;
    for (threads, enabled, print) in &prints {
        assert_eq!(
            print, golden,
            "threads={threads} obs_enabled={enabled}: MWPM fingerprint drifted"
        );
    }
}

/// New rates reach a decoder as an ordinary factory over a reweighted
/// graph; recording stays passive there too.
#[test]
fn reweighted_graph_fingerprints_identical_obs_on_off() {
    let (compiled, mut graph) = workload(3);
    graph
        .reweight(&RateTable::uniform(5e-3))
        .expect("graph carries provenance");
    let factory = Tiered::new(&graph, {
        let graph = graph.clone();
        move || UnionFindDecoder::new(graph.clone())
    });
    let mut prints = Vec::new();
    for threads in [1usize, 2, 8] {
        for sink in [ObsSink::disabled(), ObsSink::enabled()] {
            let enabled = sink.is_enabled();
            let run = LerEngine::new(threads)
                .with_obs(sink)
                .estimate(&compiled, &factory, OPTS, SEED);
            prints.push((threads, enabled, fingerprint(&run)));
        }
    }
    let golden = &prints[0].2;
    for (threads, enabled, print) in &prints {
        assert_eq!(
            print, golden,
            "threads={threads} obs_enabled={enabled}: reweighted fingerprint drifted"
        );
    }
}

#[test]
fn journal_is_deterministic_across_thread_counts() {
    let (compiled, graph) = workload(3);
    let factory = Tiered::new(&graph, {
        let graph = graph.clone();
        move || UnionFindDecoder::new(graph.clone())
    });
    let journal_of = |threads: usize| {
        let sink = ObsSink::enabled();
        let _ = LerEngine::new(threads)
            .with_obs(sink.clone())
            .estimate(&compiled, &factory, OPTS, SEED);
        sink.snapshot()
            .events
            .iter()
            .map(|e| (e.run, e.chunk, e.seq, e.kind.tag()))
            .collect::<Vec<_>>()
    };
    let one = journal_of(1);
    assert!(!one.is_empty());
    assert_eq!(one, journal_of(2), "1 vs 2 threads");
    assert_eq!(one, journal_of(8), "1 vs 8 threads");
}

/// Minimal Prometheus text-exposition-format checker: every line is a
/// comment (`# HELP` / `# TYPE` with a valid metric name) or a sample
/// (`name{labels} value` with a parseable value); histogram bucket counts
/// are cumulative and end in an `+Inf` bucket that equals `_count`.
fn check_prometheus(text: &str) {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut bucket_last: Option<(String, f64)> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "bad comment line: {line:?}"
            );
            assert!(valid_name(name), "bad metric name in comment: {line:?}");
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or("");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "bad TYPE in {line:?}"
                );
            }
            continue;
        }
        let (name_part, value_part) = line.rsplit_once(' ').expect("sample line needs a value");
        let value: f64 = if value_part == "+Inf" {
            f64::INFINITY
        } else {
            value_part
                .parse()
                .unwrap_or_else(|_| panic!("bad sample value in {line:?}"))
        };
        let bare = name_part.split('{').next().unwrap();
        assert!(valid_name(bare), "bad metric name in sample: {line:?}");
        if let Some(labels) = name_part.strip_prefix(bare) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "bad label block in {line:?}"
                );
            }
        }
        // Histogram buckets must be cumulative within one series.
        if name_part.contains("_bucket{") {
            if let Some((prev_name, prev_v)) = &bucket_last {
                if *prev_name == bare {
                    assert!(
                        value >= *prev_v,
                        "bucket counts must be cumulative at {line:?}"
                    );
                }
            }
            bucket_last = Some((bare.to_string(), value));
        } else {
            if let Some((prev_name, prev_v)) = &bucket_last {
                let base = prev_name.trim_end_matches("_bucket");
                if bare == format!("{base}_count") {
                    assert_eq!(
                        value, *prev_v,
                        "_count must equal the +Inf bucket at {line:?}"
                    );
                    bucket_last = None;
                }
            }
            assert!(
                value.is_finite(),
                "non-bucket sample must be finite: {line:?}"
            );
        }
    }
}

#[test]
fn prometheus_rendering_passes_line_format_sanity() {
    let (compiled, graph) = workload(3);
    let factory = Tiered::new(&graph, {
        let graph = graph.clone();
        move || UnionFindDecoder::new(graph.clone())
    });
    let sink = ObsSink::enabled();
    let _ = LerEngine::new(2)
        .with_obs(sink.clone())
        .estimate(&compiled, &factory, OPTS, SEED);
    let text = render_prometheus(&sink.snapshot());
    assert!(text.contains("caliqec_runs_started_total 1"));
    assert!(text.contains("# TYPE caliqec_chunk_wall_seconds histogram"));
    check_prometheus(&text);
}
