//! Order statistics for latency samples, with the tail rule: a
//! percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a tail is never read off a handful of points.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count); `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// A nearest-rank percentile with the number of samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile asked for (e.g. `99.0`).
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly after that rank.
    pub beyond: usize,
}

/// The nearest-rank `pct` percentile of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(values: &[f64], pct: f64) -> Option<Tail> {
    let n = values.len();
    // Nearest rank: the smallest value with at least pct% of the
    // samples at or below it (1-based rank ceil(pct/100 · n)).
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(Tail {
        pct,
        value: sorted(values)[rank - 1],
        beyond: n - rank,
    })
}

/// Percentiles tried, highest first, by [`highest_tail`].
const TAIL_PCTS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest of [`TAIL_PCTS`] that the sample supports.
pub fn highest_tail(values: &[f64]) -> Option<Tail> {
    TAIL_PCTS.iter().find_map(|&pct| tail(values, pct))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = tail(&thousand, 99.0).expect("1000 samples support p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        // One sample fewer leaves 9 beyond: the tail is omitted.
        assert_eq!(tail(&thousand[..999], 99.0), None);
        // A small run still supports the median-side percentiles.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty, 50.0).map(|t| t.beyond), Some(10));
        assert_eq!(tail(&twenty, 90.0), None);
        assert_eq!(tail(&[], 50.0), None);
        // The highest supported percentile is chosen.
        assert_eq!(highest_tail(&thousand).map(|t| t.pct), Some(99.0));
        assert_eq!(highest_tail(&thousand[..999]).map(|t| t.pct), Some(95.0));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_tail(&forty).map(|t| t.pct), Some(75.0));
        assert_eq!(highest_tail(&forty[..39]), None);
    }
}
