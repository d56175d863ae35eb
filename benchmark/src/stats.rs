//! Order statistics over raw samples.
//!
//! Percentiles are exact nearest-rank order statistics of the samples,
//! never histogram buckets. A percentile is *supported* when at least
//! [`MIN_BEYOND`] samples lie beyond it; the run document reports an
//! unsupported percentile as null with the reason.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile and how many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The order statistic.
    pub value: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

impl Percentile {
    /// True if at least [`MIN_BEYOND`] samples lie beyond the percentile.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank `p`-th percentile (0 < p <= 100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        beyond: n - rank,
        n,
    })
}

/// Median, first and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; a single value is its own median and quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        n => {
            let q = |k: f64| {
                // Exclusive method: position k/4 * (n + 1), 1-based.
                let pos = k / 4.0 * (n as f64 + 1.0);
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let delta = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            Some((q(2.0), q(1.0), q(3.0)))
        }
    }
}

/// Median of `values` (the middle quartile).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(m, _, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_support() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.beyond, 1);
        assert!(!p99.supported());
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!(p50.value, 50.0);
        assert!(p50.supported());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((5.5, 2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((2.0, 0.5, 3.5)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
    }
}
