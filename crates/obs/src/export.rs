//! Exporters: human summary table, JSON snapshot, Chrome trace-event JSON
//! (Perfetto-viewable), and Prometheus text exposition.
//!
//! All four render from a [`Snapshot`], so they can run long after the
//! engine finished and never touch the record path. JSON is hand-rolled —
//! the repo deliberately has no serialization dependency — and every
//! string that reaches the output goes through `json_escape`.

use crate::journal::{Event, EventKind};
use crate::metrics::HistSnapshot;
use crate::sink::Snapshot;
use std::fmt::Write as _;

/// Escapes a string for inclusion inside JSON double quotes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a nanosecond latency with a human-friendly unit.
fn human_nanos(nanos: f64) -> String {
    if nanos >= 1e9 {
        format!("{:.2} s", nanos / 1e9)
    } else if nanos >= 1e6 {
        format!("{:.2} ms", nanos / 1e6)
    } else if nanos >= 1e3 {
        format!("{:.2} µs", nanos / 1e3)
    } else {
        format!("{nanos:.0} ns")
    }
}

/// Renders the human-readable summary table (the thing printed to stderr
/// at the end of an observed run).
pub fn render_summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("── observability summary ─────────────────────────────\n");
    out.push_str("counters:\n");
    for (name, value) in &snap.counters {
        if *value != 0 {
            let _ = writeln!(out, "  {name:<18} {value}");
        }
    }
    out.push_str("gauges:\n");
    for (name, value) in &snap.gauges {
        if *value != 0 {
            let _ = writeln!(out, "  {name:<18} {value}");
        }
    }
    out.push_str("latency (p50 / p95 / p99 / max / mean):\n");
    let mut hists: Vec<HistSnapshot> = snap.histograms.clone();
    hists.push(snap.decode_shot_hist());
    for h in &hists {
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<18} {:>10} / {:>10} / {:>10} / {:>10} / {:>10}   (n={})",
            h.name,
            human_nanos(h.quantile_nanos(0.50)),
            human_nanos(h.quantile_nanos(0.95)),
            human_nanos(h.quantile_nanos(0.99)),
            human_nanos(h.max_nanos as f64),
            human_nanos(h.mean_nanos()),
            h.count
        );
    }
    let _ = writeln!(out, "journal: {} events", snap.events.len());
    out.push_str("──────────────────────────────────────────────────────\n");
    out
}

fn hist_json(h: &HistSnapshot) -> String {
    let mut buckets = String::from("{");
    let mut first = true;
    for (i, &b) in h.buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        if !first {
            buckets.push(',');
        }
        first = false;
        let _ = write!(buckets, "\"{}\":{}", crate::metrics::bucket_lo(i), b);
    }
    buckets.push('}');
    format!(
        "{{\"name\":\"{}\",\"count\":{},\"sum_nanos\":{},\"max_nanos\":{},\"p50_nanos\":{:.1},\"p95_nanos\":{:.1},\"p99_nanos\":{:.1},\"mean_nanos\":{:.1},\"buckets\":{}}}",
        json_escape(h.name),
        h.count,
        h.sum_nanos,
        h.max_nanos,
        h.quantile_nanos(0.50),
        h.quantile_nanos(0.95),
        h.quantile_nanos(0.99),
        h.mean_nanos(),
        buckets
    )
}

fn event_json(e: &Event) -> String {
    let mut fields = format!(
        "\"kind\":\"{}\",\"run\":{},\"chunk\":{},\"seq\":{},\"worker\":{},\"t_nanos\":{}",
        e.kind.tag(),
        e.run,
        e.chunk,
        e.seq,
        e.worker as i64 as i32, // COORDINATOR renders as -1
        e.t_nanos
    );
    match e.kind {
        EventKind::RunStart { threads, chunks } => {
            let _ = write!(fields, ",\"threads\":{threads},\"chunks\":{chunks}");
        }
        EventKind::ChunkStart { rung } => {
            let _ = write!(fields, ",\"rung\":{rung}");
        }
        EventKind::ChunkFinish {
            rung,
            shots,
            failures,
            tier0,
            tier2,
            sample_nanos,
            extract_nanos,
            decode_nanos,
        } => {
            let _ = write!(
                fields,
                ",\"rung\":{rung},\"shots\":{shots},\"failures\":{failures},\"tier0\":{tier0},\"tier2\":{tier2},\"sample_nanos\":{sample_nanos},\"extract_nanos\":{extract_nanos},\"decode_nanos\":{decode_nanos}"
            );
        }
        EventKind::Fault { kind, rung } => {
            let _ = write!(
                fields,
                ",\"fault_kind\":\"{}\",\"rung\":{rung}",
                json_escape(kind)
            );
        }
        EventKind::Retry { rung } => {
            let _ = write!(fields, ",\"rung\":{rung}");
        }
        EventKind::ClusterGate { on, off } => {
            let _ = write!(fields, ",\"on\":{on},\"off\":{off}");
        }
        EventKind::Shed {
            patch,
            window,
            rung,
        } => {
            let _ = write!(
                fields,
                ",\"patch\":{patch},\"window\":{window},\"rung\":{rung}"
            );
        }
        EventKind::Wedge {
            worker,
            patch,
            window,
        } => {
            let _ = write!(
                fields,
                ",\"wedged_worker\":{worker},\"patch\":{patch},\"window\":{window}"
            );
        }
    }
    format!("{{{fields}}}")
}

/// Renders the full snapshot as a JSON object: `counters` and `gauges`
/// maps, a `histograms` array (with precomputed p50/p95/p99 and the raw
/// non-empty buckets keyed by lower bound), and the `events` journal.
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", json_escape(name), value);
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", json_escape(name), value);
    }
    out.push_str("\n  },\n  \"histograms\": [");
    let mut hists: Vec<HistSnapshot> = snap.histograms.clone();
    hists.push(snap.decode_shot_hist());
    for (i, h) in hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&hist_json(h));
    }
    out.push_str("\n  ],\n  \"events\": [");
    for (i, e) in snap.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&event_json(e));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders the journal as Chrome trace-event JSON (the `traceEvents`
/// format), viewable in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
///
/// Chunk attempts become `"X"` (complete) events — one slice per
/// start/finish pair on the worker's track — and run starts, faults and
/// retries become `"i"` (instant) markers. `pid` is the engine run, `tid`
/// the worker.
pub fn render_chrome_trace(snap: &Snapshot) -> String {
    let mut items: Vec<String> = Vec::new();
    let us = |nanos: u64| nanos as f64 / 1e3;
    // Pending ChunkStart timestamps keyed by (run, chunk); retries of a
    // chunk nest start/finish pairs in sequence order, so a stack suffices.
    let mut open: Vec<((u32, u32), u64)> = Vec::new();
    for e in &snap.events {
        match e.kind {
            EventKind::RunStart { threads, chunks } => {
                items.push(format!(
                    "{{\"name\":\"run_start\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{:.3},\"pid\":{},\"tid\":0,\"args\":{{\"threads\":{},\"chunks\":{}}}}}",
                    us(e.t_nanos), e.run, threads, chunks
                ));
            }
            EventKind::ChunkStart { .. } => {
                open.push(((e.run, e.chunk), e.t_nanos));
            }
            EventKind::ChunkFinish {
                rung,
                shots,
                failures,
                tier0,
                tier2,
                ..
            } => {
                let start = open
                    .iter()
                    .rposition(|(key, _)| *key == (e.run, e.chunk))
                    .map(|i| open.remove(i).1)
                    .unwrap_or(e.t_nanos);
                items.push(format!(
                    "{{\"name\":\"chunk {} (rung {})\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"shots\":{},\"failures\":{},\"tier0\":{},\"tier2\":{}}}}}",
                    e.chunk,
                    rung,
                    us(start),
                    us(e.t_nanos.saturating_sub(start)),
                    e.run,
                    e.worker,
                    shots,
                    failures,
                    tier0,
                    tier2
                ));
            }
            EventKind::Fault { kind, rung } => {
                // A faulted attempt never emits ChunkFinish; close its slice.
                if let Some(i) = open.iter().rposition(|(key, _)| *key == (e.run, e.chunk)) {
                    let (_, start) = open.remove(i);
                    items.push(format!(
                        "{{\"name\":\"chunk {} FAULT ({})\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"rung\":{}}}}}",
                        e.chunk,
                        json_escape(kind),
                        us(start),
                        us(e.t_nanos.saturating_sub(start)),
                        e.run,
                        e.worker,
                        rung
                    ));
                }
                items.push(format!(
                    "{{\"name\":\"fault:{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"chunk\":{},\"rung\":{}}}}}",
                    json_escape(kind),
                    us(e.t_nanos),
                    e.run,
                    e.worker,
                    e.chunk,
                    rung
                ));
            }
            EventKind::Retry { rung } => {
                items.push(format!(
                    "{{\"name\":\"retry\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"chunk\":{},\"rung\":{}}}}}",
                    us(e.t_nanos),
                    e.run,
                    e.worker,
                    e.chunk,
                    rung
                ));
            }
            EventKind::ClusterGate { on, off } => {
                items.push(format!(
                    "{{\"name\":\"cluster_gate\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"chunk\":{},\"on\":{},\"off\":{}}}}}",
                    us(e.t_nanos),
                    e.run,
                    e.worker,
                    e.chunk,
                    on,
                    off
                ));
            }
            EventKind::Shed {
                patch,
                window,
                rung,
            } => {
                items.push(format!(
                    "{{\"name\":\"shed (rung {})\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"patch\":{},\"window\":{}}}}}",
                    rung,
                    us(e.t_nanos),
                    e.run,
                    e.worker,
                    patch,
                    window
                ));
            }
            EventKind::Wedge {
                worker,
                patch,
                window,
            } => {
                items.push(format!(
                    "{{\"name\":\"wedge\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"wedged_worker\":{},\"patch\":{},\"window\":{}}}}}",
                    us(e.t_nanos),
                    e.run,
                    e.worker,
                    worker,
                    patch,
                    window
                ));
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(item);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders the snapshot in Prometheus text exposition format (version
/// 0.0.4): counters as `caliqec_<name>_total`, gauges as `caliqec_<name>`,
/// histograms as `caliqec_<name>_seconds` with cumulative `le` buckets in
/// seconds. Suitable for serving verbatim from a `/metrics` endpoint.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "# TYPE caliqec_{name}_total counter");
        let _ = writeln!(out, "caliqec_{name}_total {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "# TYPE caliqec_{name} gauge");
        let _ = writeln!(out, "caliqec_{name} {value}");
    }
    for h in &snap.histograms {
        let name = h.name;
        let _ = writeln!(out, "# TYPE caliqec_{name}_seconds histogram");
        let mut cumulative = 0u64;
        for (i, &b) in h.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            cumulative += b;
            let le = crate::metrics::bucket_hi(i) as f64 / 1e9;
            let _ = writeln!(
                out,
                "caliqec_{name}_seconds_bucket{{le=\"{le:e}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "caliqec_{name}_seconds_bucket{{le=\"+Inf\"}} {}",
            h.count
        );
        let _ = writeln!(
            out,
            "caliqec_{name}_seconds_sum {}",
            h.sum_nanos as f64 / 1e9
        );
        let _ = writeln!(out, "caliqec_{name}_seconds_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Hist};
    use crate::sink::ObsSink;

    fn sample_snapshot() -> Snapshot {
        let sink = ObsSink::enabled();
        let run = sink.begin_run();
        let mut coord = sink.worker(run, Event::COORDINATOR);
        coord.event(EventKind::RunStart {
            threads: 2,
            chunks: 4,
        });
        coord.flush();
        let mut w = sink.worker(run, 0);
        w.begin_chunk(0);
        w.event(EventKind::ChunkStart { rung: 0 });
        w.event(EventKind::Fault {
            kind: "panic",
            rung: 0,
        });
        w.event(EventKind::Retry { rung: 1 });
        w.event(EventKind::ChunkStart { rung: 1 });
        w.event(EventKind::ChunkFinish {
            rung: 1,
            shots: 64,
            failures: 1,
            tier0: 30,
            tier2: 34,
            sample_nanos: 100,
            extract_nanos: 200,
            decode_nanos: 400,
        });
        w.add(Counter::ShotsTier2, 34);
        w.record(Hist::DecodeShotRung1, 1500);
        w.record(Hist::DecodeShotRung1, 2500);
        w.flush();
        sink.snapshot()
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn summary_mentions_counters_and_latency() {
        let s = render_summary(&sample_snapshot());
        assert!(s.contains("shots_tier2"), "{s}");
        assert!(s.contains("decode_shot_rung1"), "{s}");
        assert!(s.contains("journal: 6 events"), "{s}");
    }

    #[test]
    fn json_snapshot_is_balanced_and_complete() {
        let s = render_json(&sample_snapshot());
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "unbalanced braces:\n{s}"
        );
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(s.contains("\"shots_tier2\": 34"));
        assert!(s.contains("\"kind\":\"fault\""));
        assert!(s.contains("\"fault_kind\":\"panic\""));
        assert!(s.contains("\"decode_shot\"")); // merged view present
    }

    #[test]
    fn chrome_trace_pairs_chunk_slices() {
        let s = render_chrome_trace(&sample_snapshot());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("chunk 0 (rung 1)"));
        assert!(s.contains("chunk 0 FAULT (panic)"));
        assert!(s.contains("\"ph\":\"i\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let s = render_prometheus(&sample_snapshot());
        assert!(s.contains("# TYPE caliqec_shots_tier2_total counter"));
        assert!(s.contains("caliqec_shots_tier2_total 34"));
        assert!(s.contains("caliqec_decode_shot_rung1_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(s.contains("caliqec_decode_shot_rung1_seconds_count 2"));
        // Every bucket line's value must be <= the +Inf count.
        for line in s.lines() {
            if line.contains("decode_shot_rung1_seconds_bucket") {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v <= 2, "{line}");
            }
        }
    }
}
