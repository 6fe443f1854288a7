//! Order statistics and the reporting rule for timings: a median plus the
//! highest percentile that still has at least ten samples beyond it.

/// Percentiles a tail may be reported at, in tenths of a percent, highest
/// first (integers, so the "samples beyond" test is exact).
const TAIL_LADDER_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75) with at
/// least [`MIN_BEYOND_TAIL`] of `n` samples beyond it, or `None` when even
/// the lowest rung has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|p| n * (1000 - p) >= MIN_BEYOND_TAIL * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of `sorted` (ascending);
/// 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (any order); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// A timing distribution as reported: sample count, median, and the tail
/// percentile chosen by [`tail_percentile`] with its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: Option<f64>,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len());
        Summary {
            n: v.len(),
            p50: quantile_sorted(&v, 0.5),
            tail_pct,
            tail: tail_pct.map_or(0.0, |p| quantile_sorted(&v, p / 100.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [40usize, 100, 1000, 10_000, 123_456] {
            let p = tail_percentile(n).unwrap();
            let beyond = n as f64 * (100.0 - p) / 100.0;
            assert!(beyond >= MIN_BEYOND_TAIL as f64 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail_pct, Some(99.0));
        assert!((s.tail - 990.01).abs() < 1e-9, "{}", s.tail);
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.n, few.p50, few.tail_pct), (3, 2.0, None));
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(quantile_sorted(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0]), 3.0);
    }
}
