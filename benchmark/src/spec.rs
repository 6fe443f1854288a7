//! The benchmark's contract with `BENCHMARK.json`: workload names, metric
//! names and units, and the build-profile parity the check mode enforces.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = [
    "mem_d7_sparse",
    "mem_d15_dense",
    "calib_runtime_d11",
    "stream_d5_open",
];

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("shots_per_s", "1/s"),
    ("cpu_us_per_shot", "us"),
    ("lat_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the end-to-end numbers that carry no bound in
/// `BENCHMARK.json`: they exist on one workload only, are another metric
/// in other units, are 0 on a healthy run, or are set by host stalls
/// (README). Untraced runs write the ones that apply to the results file
/// as measured, and `--workload all` prints them beside the metrics.
pub const UNBOUNDED: [(&str, &str); 5] = [
    ("point_s", "s"),
    ("lat_p99_us", "us"),
    ("late_p99_us", "us"),
    ("max_windows_per_s", "1/s"),
    ("failed_frac", "ratio"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("code.deform_ms", "ms"),
    ("code.memory_circuit_ms", "ms"),
    ("stab.extract_dem_ms", "ms"),
    ("graph.from_dem_ms", "ms"),
    ("graph.predecoder_build_ms", "ms"),
    ("graph.cluster_build_ms", "ms"),
    ("device.prepare_ms", "ms"),
    ("sched.compile_ms", "ms"),
    ("stab.sample_ns_per_shot", "ns"),
    ("stab.extract_ns_per_shot", "ns"),
    ("predecode.calls_per_shot", "count"),
    ("predecode.ns_per_call", "ns"),
    ("predecode.hit_ratio", "ratio"),
    ("cluster.calls_per_shot", "count"),
    ("cluster.ns_per_shot", "ns"),
    ("cluster.peeled_defect_ratio", "ratio"),
    ("cluster.full_peel_ratio", "ratio"),
    ("uf.calls_per_shot", "count"),
    ("uf.ns_per_call", "ns"),
    ("uf.defects_per_call", "count"),
    ("engine.cpu_us_per_shot", "us"),
    ("engine.overhead_frac", "ratio"),
    ("engine.sample_ns_per_shot", "ns"),
    ("engine.extract_ns_per_shot", "ns"),
    ("engine.predecode_ns_per_shot", "ns"),
    ("engine.cluster_ns_per_shot", "ns"),
    ("engine.decode_ns_per_shot", "ns"),
    ("stream.push_us_p99", "us"),
    ("stream.late_p99_us", "us"),
    ("stream.decode_us_per_window", "us"),
    ("stream.queue_wait_us_p50", "us"),
    ("stream.queue_peak", "count"),
    ("runtime.engine_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// The metric-name rule: non-empty, `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `(name, unit)` pairs listed under `section` (`"end_to_end"` or
/// `"per_layer"`) of a `BENCHMARK.json` text. A deliberately small scanner:
/// the file is flat, and a malformed one yields an empty list, which the
/// check mode reports as a mismatch.
pub fn listed_metrics(json: &str, section: &str) -> Vec<(String, String)> {
    let Some(start) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let (Some(open), Some(close)) = (body.find('['), body.find(']')) else {
        return Vec::new();
    };
    if close < open {
        return Vec::new();
    }
    body[open + 1..close]
        .split('}')
        .filter_map(|obj| Some((string_field(obj, "name")?, string_field(obj, "unit")?)))
        .collect()
}

fn string_field(obj: &str, key: &str) -> Option<String> {
    let after_key = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
    let after_colon = after_key.trim_start().strip_prefix(':')?.trim_start();
    let value = after_colon.strip_prefix('"')?;
    Some(value[..value.find('"')?].to_string())
}

/// Differences between the metrics a run prints and those `BENCHMARK.json`
/// lists for the same section (empty when they agree exactly).
pub fn metric_mismatches(json: &str, section: &str, printed: &[(&str, &str)]) -> Vec<String> {
    let listed = listed_metrics(json, section);
    let mut problems = Vec::new();
    for (name, unit) in printed {
        if !valid_metric_name(name) {
            problems.push(format!("{section}: invalid metric name {name:?}"));
        }
        match listed.iter().find(|(n, _)| n == name) {
            None => problems.push(format!("{section}: {name} is not in BENCHMARK.json")),
            Some((_, u)) if u != unit => problems.push(format!(
                "{section}: {name} has unit {unit} but BENCHMARK.json says {u}"
            )),
            Some(_) => {}
        }
    }
    for (name, _) in &listed {
        if !printed.iter().any(|(n, _)| n == name) {
            problems.push(format!(
                "{section}: BENCHMARK.json lists {name}, never printed"
            ));
        }
    }
    problems
}

/// `key = value` pairs of a manifest's `[profile.release]` table, comments
/// and blank lines dropped.
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut inside = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
            continue;
        }
        if let (true, Some((k, v))) = (inside, line.split_once('=')) {
            out.insert(k.trim().to_string(), v.trim().to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_pattern() {
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER).chain(&UNBOUNDED) {
            assert!(valid_metric_name(name), "{name}");
        }
        assert!(valid_metric_name("a.b-c_9"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain(&UNBOUNDED)
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len() + UNBOUNDED.len()
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(
            metric_mismatches(json, "end_to_end", &END_TO_END),
            Vec::<String>::new()
        );
        assert_eq!(
            metric_mismatches(json, "per_layer", &PER_LAYER),
            Vec::<String>::new()
        );
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn scanner_reads_names_and_units() {
        let json = r#"{"end_to_end": [{"name": "a", "unit": "s", "bound": 0.1},
            {"unit": "ms", "name":"b"}], "per_layer": []}"#;
        assert_eq!(
            listed_metrics(json, "end_to_end"),
            vec![("a".into(), "s".into()), ("b".into(), "ms".into())]
        );
        assert!(listed_metrics(json, "per_layer").is_empty());
        assert!(!metric_mismatches(json, "end_to_end", &[("a", "s")]).is_empty());
    }

    #[test]
    fn release_profiles_match_the_root_manifest() {
        let ours = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, root);
        let parsed =
            release_profile("[profile.release]\nlto = \"fat\" # x\n[profile.bench]\nx = 1\n");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed["lto"], "\"fat\"");
    }
}
