//! Summary statistics: medians, nearest-rank percentiles, and the
//! ten-beyond tail rule.

/// Percentile ladder the tail rule picks from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index (0-based) of percentile `pct` among `n` sorted
/// samples, in integer per-mille so `p99.9 × 10 000` is exactly 9 990.
fn rank(pct: f64, n: usize) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (per_mille * n).div_ceil(1_000).clamp(1, n) - 1
}

/// Nearest-rank percentile of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(pct, v.len())]
}

/// Samples strictly beyond the nearest-rank position of `pct` among `n`.
pub fn beyond(pct: f64, n: usize) -> usize {
    n - rank(pct, n) - 1
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it among `n` samples, or `None` when `n` is too small for
/// even the median to qualify.
pub fn tail_level(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(p, n) >= TAIL_BEYOND)
}

/// A tail latency with the percentile it was read at and the sample
/// count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen by the ten-beyond rule.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was read from.
    pub samples: usize,
}

/// Applies the ten-beyond rule. The percentile is chosen for
/// `planned` samples — the count every run of the workload is
/// guaranteed to collect — so runs that happen to collect more still
/// report the same percentile; it is then read from all of `values`.
/// Returns `None` when `planned` supports no percentile or `values`
/// holds fewer than `planned` samples.
pub fn tail(values: &[f64], planned: usize) -> Option<Tail> {
    let pct = tail_level(planned)?;
    if values.len() < planned {
        return None;
    }
    Some(Tail {
        pct,
        value: percentile(values, pct),
        samples: values.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        for n in 1..5_000 {
            match tail_level(n) {
                Some(p) => {
                    assert!(beyond(p, n) >= TAIL_BEYOND, "n = {n}, p = {p}");
                    // No higher ladder step would also qualify.
                    for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                        assert!(beyond(q, n) < TAIL_BEYOND, "n = {n}: p{q} also qualifies");
                    }
                }
                None => assert!(beyond(50.0, n) < TAIL_BEYOND, "n = {n}"),
            }
        }
    }

    #[test]
    fn tail_rule_reads_p99_at_a_thousand_samples() {
        assert_eq!(tail_level(1_000), Some(99.0));
        assert_eq!(tail_level(999), Some(95.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
    }

    #[test]
    fn tail_records_its_percentile_and_sample_count() {
        let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let t = tail(&values, 1_000).expect("1000 samples support p99");
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1_000);
        // Extra samples keep the planned percentile.
        let more: Vec<f64> = (1..=1_500).map(f64::from).collect();
        assert_eq!(tail(&more, 1_000).map(|t| t.pct), Some(99.0));
        // Fewer than planned is refused rather than silently re-levelled.
        assert_eq!(tail(&values[..500], 1_000), None);
    }
}
