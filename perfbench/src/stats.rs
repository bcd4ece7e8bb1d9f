//! Percentiles and quartiles.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `None` on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Samples beyond the `p`-quantile, counted as ⌊n·(1−p)⌋: the rule by
/// which a percentile is reported only with at least ten samples beyond
/// it (so a 90th percentile needs 100 samples).
pub fn beyond(n: usize, p: f64) -> usize {
    (n as f64 * (1.0 - p.clamp(0.0, 1.0)) + 1e-9).floor() as usize
}

/// The smallest sample count whose `p`-quantile has at least `need`
/// samples beyond it.
pub fn min_samples(p: f64, need: usize) -> usize {
    (1..).find(|&n| beyond(n, p) >= need).unwrap_or(usize::MAX)
}

/// A timing summary: median, 90th percentile, and the samples behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// Samples beyond the 90th percentile.
    pub beyond_p90: usize,
}

pub fn summarize(values: &[f64]) -> Option<Summary> {
    Some(Summary {
        n: values.len(),
        p50: percentile(values, 0.5)?,
        p90: percentile(values, 0.9)?,
        beyond_p90: beyond(values.len(), 0.9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert!((percentile(&v, 0.9).unwrap() - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&[4.0, 1.0, 3.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ten_beyond_p90_needs_a_hundred_samples() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(10, 0.9), 1);
        assert_eq!(beyond(11, 0.9), 1);
        assert_eq!(beyond(1, 0.9), 0);
        assert_eq!(min_samples(0.9, 10), 100);
        assert_eq!(min_samples(0.5, 10), 20);
        let s = summarize(&(0..100).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.n, s.beyond_p90), (100, 10));
    }
}
