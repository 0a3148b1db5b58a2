//! Order statistics the benchmark reports: nearest-rank percentiles,
//! medians, and the quartile spread used by the noise rules.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `p` percent of the samples at or below it.
/// `p` is clamped to `(0, 100]`; an empty slice yields 0.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let p = p.clamp(f64::MIN_POSITIVE, 100.0);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of measurements (mean of the two middle values for an
/// even count; 0 for an empty set).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Relative spread of a set of measurements: `(max − min) / median`
/// (0 when there are fewer than two values or the median is 0). Recorded
/// next to every wall-time metric so `compare` can tell "worse" from
/// "inside this run's own noise".
pub fn rel_range(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

/// Median, minimum and maximum of per-window (or per-repetition) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median across windows — the reported value.
    pub median: f64,
    /// Smallest window value.
    pub min: f64,
    /// Largest window value.
    pub max: f64,
    /// [`rel_range`] of the windows.
    pub spread: f64,
}

impl Summary {
    /// Summarise a non-empty set of window values.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            spread: rel_range(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.5), 1);
        // Nearest rank never interpolates: p50 of 4 samples is the 2nd.
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 51.0), 30);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(rel_range(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(rel_range(&[5.0]), 0.0);
        let s = Summary::of(&[9.0, 10.0, 11.0]);
        assert_eq!((s.median, s.min, s.max), (10.0, 9.0, 11.0));
    }
}
