//! Baseline loading and comparison for `perf_smoke --compare`.
//!
//! The perf-smoke JSON is written by a hand-rolled formatter, so this
//! module reads it back with equally small hand-rolled scanners — but with
//! typed failures: a missing baseline, unreadable bytes, or a file that is
//! not a perf-smoke report each produce a distinct [`CompareError`] instead
//! of a panic, and the binary maps them to clean nonzero exits.

use std::fmt;

/// Why a `--compare OLD.json` baseline could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompareError {
    /// The file could not be read at all (missing, permissions, ...).
    Io(String),
    /// The file was read but does not look like JSON we can scan.
    Malformed(String),
    /// The file is JSON-ish but lacks the perf-smoke schema (no
    /// per-config objects with the expected numeric fields).
    SchemaMismatch(String),
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::Io(m) => write!(f, "cannot read baseline: {m}"),
            CompareError::Malformed(m) => write!(f, "baseline is not valid JSON: {m}"),
            CompareError::SchemaMismatch(m) => {
                write!(f, "baseline is not a perf_smoke report: {m}")
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// Pulls the number following `"key":` out of a JSON fragment. Good enough
/// for the flat numeric fields perf_smoke writes; not a JSON parser.
pub fn field_num(fragment: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = fragment.find(&pat)? + pat.len();
    let rest = fragment[start..].trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Splits a perf_smoke JSON file into its per-config object fragments.
pub fn config_fragments(json: &str) -> Vec<&str> {
    json.split('{')
        .filter(|frag| frag.contains("\"d\":"))
        .collect()
}

/// Reads and vets a `--compare` baseline file: the bytes must be UTF-8,
/// look like a JSON object, and contain at least one per-config fragment
/// carrying the numeric fields the comparison table needs.
pub fn load_baseline(path: &str) -> Result<String, CompareError> {
    let bytes = std::fs::read(path).map_err(|e| CompareError::Io(format!("{path}: {e}")))?;
    let text = String::from_utf8(bytes)
        .map_err(|_| CompareError::Malformed(format!("{path}: not UTF-8")))?;
    validate_report(&text).map_err(|e| match e {
        CompareError::Io(m) => CompareError::Io(format!("{path}: {m}")),
        CompareError::Malformed(m) => CompareError::Malformed(format!("{path}: {m}")),
        CompareError::SchemaMismatch(m) => CompareError::SchemaMismatch(format!("{path}: {m}")),
    })?;
    Ok(text)
}

/// Schema check shared by [`load_baseline`] and its tests.
fn validate_report(text: &str) -> Result<(), CompareError> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(CompareError::Malformed("file is empty".to_string()));
    }
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err(CompareError::Malformed(
            "expected a top-level JSON object".to_string(),
        ));
    }
    let fragments = config_fragments(trimmed);
    if fragments.is_empty() {
        return Err(CompareError::SchemaMismatch(
            "no per-config objects with a \"d\" field".to_string(),
        ));
    }
    for key in ["decode_seconds", "shots_per_sec"] {
        if !fragments.iter().any(|f| field_num(f, key).is_some()) {
            return Err(CompareError::SchemaMismatch(format!(
                "no config carries a numeric {key:?} field"
            )));
        }
    }
    Ok(())
}

/// Finds the baseline fragment matching a new config row. Rows are keyed
/// by `(d, threads)` — perf_smoke writes one row per distance per thread
/// count — but a side that carries no `threads` field (a pre-scaling-row
/// baseline) matches on `d` alone, so old baselines keep comparing
/// cleanly.
fn matching_fragment<'a>(old_json: &'a str, new_frag: &str) -> Option<&'a str> {
    let d = field_num(new_frag, "d")?;
    let threads = field_num(new_frag, "threads");
    config_fragments(old_json).into_iter().find(|f| {
        if field_num(f, "d") != Some(d) {
            return false;
        }
        match (threads, field_num(f, "threads")) {
            (Some(new_t), Some(old_t)) => new_t == old_t,
            _ => true,
        }
    })
}

/// Renders the per-config speedup table of this run's JSON against a vetted
/// baseline (old/new decode seconds and shots-per-second, with ratios).
/// Rows match on `(d, threads)`, or on `d` alone for a baseline whose
/// rows carry no thread count.
pub fn compare_table(new_json: &str, old_json: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4} {:>4} {:>14} {:>14} {:>9} {:>14} {:>14} {:>9}\n",
        "d",
        "thr",
        "old decode s",
        "new decode s",
        "speedup",
        "old shots/s",
        "new shots/s",
        "speedup"
    ));
    for new_frag in config_fragments(new_json) {
        let (Some(d), Some(nd), Some(nt)) = (
            field_num(new_frag, "d"),
            field_num(new_frag, "decode_seconds"),
            field_num(new_frag, "shots_per_sec"),
        ) else {
            continue;
        };
        let old_frag = matching_fragment(old_json, new_frag);
        let (od, ot) = match old_frag {
            Some(f) => (
                field_num(f, "decode_seconds"),
                field_num(f, "shots_per_sec"),
            ),
            None => (None, None),
        };
        let ratio = |a: Option<f64>, b: f64, inverted: bool| match a {
            Some(a) if a > 0.0 && b > 0.0 => {
                format!("{:.2}x", if inverted { b / a } else { a / b })
            }
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>4} {:>4} {:>14} {:>14} {:>9} {:>14} {:>14} {:>9}\n",
            d as usize,
            field_num(new_frag, "threads")
                .map(|t| format!("{}", t as usize))
                .unwrap_or("-".into()),
            od.map(|v| format!("{v:.3}")).unwrap_or("-".into()),
            format!("{nd:.3}"),
            ratio(od, nd, false),
            ot.map(|v| format!("{v:.0}")).unwrap_or("-".into()),
            format!("{nt:.0}"),
            ratio(ot, nt, true),
        ));
    }
    out
}

/// Scans matching configs for timing regressions: any of `decode_seconds`,
/// `tier1_p99_us`, or `tier2_p99_us` growing past `old × warn_ratio` yields
/// one warning line. Fields absent from either side (e.g. a pre-percentile
/// baseline) are skipped, so old baselines keep comparing cleanly.
pub fn regression_warnings(new_json: &str, old_json: &str, warn_ratio: f64) -> Vec<String> {
    let mut warnings = Vec::new();
    for new_frag in config_fragments(new_json) {
        let Some(d) = field_num(new_frag, "d") else {
            continue;
        };
        let Some(old_frag) = matching_fragment(old_json, new_frag) else {
            continue;
        };
        for key in ["decode_seconds", "tier1_p99_us", "tier2_p99_us"] {
            let (Some(new_v), Some(old_v)) = (field_num(new_frag, key), field_num(old_frag, key))
            else {
                continue;
            };
            if old_v > 0.0 && new_v > old_v * warn_ratio {
                warnings.push(format!(
                    "d={}: {key} regressed {:.0}% ({old_v:.3} -> {new_v:.3})",
                    d as usize,
                    (new_v / old_v - 1.0) * 100.0,
                ));
            }
        }
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "commit": "abc",
  "label": "",
  "configs": [
    {"d": 7, "decode_seconds": 0.5, "shots_per_sec": 1000.0},
    {"d": 11, "decode_seconds": 2.0, "shots_per_sec": 250.0}
  ]
}"#;

    #[test]
    fn missing_baseline_is_io_error() {
        let err = load_baseline("/nonexistent/BENCH_decode.json").unwrap_err();
        assert!(matches!(err, CompareError::Io(_)), "{err}");
        assert!(err.to_string().contains("cannot read baseline"));
    }

    #[test]
    fn corrupt_baseline_is_malformed() {
        let dir = std::env::temp_dir();
        let path = dir.join("caliqec_compare_corrupt.json");
        std::fs::write(&path, "not json at all").unwrap();
        let err = load_baseline(path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, CompareError::Malformed(_)), "{err}");

        std::fs::write(&path, "").unwrap();
        let err = load_baseline(path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, CompareError::Malformed(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_schema_is_schema_mismatch() {
        let dir = std::env::temp_dir();
        let path = dir.join("caliqec_compare_schema.json");
        std::fs::write(&path, r#"{"something": "else"}"#).unwrap();
        let err = load_baseline(path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, CompareError::SchemaMismatch(_)), "{err}");

        // Has configs but none carry the timing fields.
        std::fs::write(&path, r#"{"configs": [{"d": 7}]}"#).unwrap();
        let err = load_baseline(path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, CompareError::SchemaMismatch(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn good_baseline_round_trips_and_compares() {
        let dir = std::env::temp_dir();
        let path = dir.join("caliqec_compare_good.json");
        std::fs::write(&path, GOOD).unwrap();
        let old = load_baseline(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);

        let new_json = GOOD.replace("0.5", "0.25").replace("1000.0", "2000.0");
        let table = compare_table(&new_json, &old);
        assert!(table.contains("2.00x"), "speedup column missing:\n{table}");
        let lines: Vec<_> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per config:\n{table}");
    }

    #[test]
    fn regression_warnings_flag_slowdowns_and_skip_missing_fields() {
        let old = r#"{"configs": [
            {"d": 7, "decode_seconds": 1.0, "tier2_p99_us": 10.0},
            {"d": 11, "decode_seconds": 1.0}
        ]}"#;
        // d=7 decode regressed 50%, p99 improved; d=11 has no percentile
        // on either side and its decode held steady.
        let new = r#"{"configs": [
            {"d": 7, "decode_seconds": 1.5, "tier2_p99_us": 8.0},
            {"d": 11, "decode_seconds": 1.05, "tier2_p99_us": 3.0}
        ]}"#;
        let warnings = regression_warnings(new, old, 1.10);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("d=7"), "{}", warnings[0]);
        assert!(warnings[0].contains("decode_seconds"), "{}", warnings[0]);
        assert!(regression_warnings(new, old, 2.0).is_empty());
    }

    #[test]
    fn field_scanner_reads_flat_numbers() {
        assert_eq!(field_num(r#""d": 7,"#, "d"), Some(7.0));
        assert_eq!(field_num(r#""p": 1e-3}"#, "p"), Some(1e-3));
        assert_eq!(field_num(r#""p": "oops"}"#, "p"), None);
        assert_eq!(config_fragments(GOOD).len(), 2);
    }
}
