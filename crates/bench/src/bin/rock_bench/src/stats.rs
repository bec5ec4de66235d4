//! Order statistics over raw samples.
//!
//! Percentiles come from the sorted samples themselves, never from
//! histogram buckets: a log2 bucket bound can flip a p99 by 2x between
//! two runs that differ by one sample.

/// A non-empty set of raw samples, sorted ascending.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values`. Returns `None` for an empty set or a non-finite
    /// sample (a NaN has no rank).
    pub(crate) fn new(mut values: Vec<f64>) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        values.sort_by(f64::total_cmp);
        Some(Samples { sorted: values })
    }

    /// All samples of several sets as one set. `None` when there are no
    /// sets.
    pub(crate) fn pooled(sets: Vec<Samples>) -> Option<Self> {
        Samples::new(sets.into_iter().flat_map(|s| s.sorted).collect())
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `q * len` samples at or below it.
    pub(crate) fn percentile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        let rank = (q * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// The median (the 0.5 nearest-rank percentile for odd counts, the
    /// mean of the two middle samples for even counts).
    pub(crate) fn median(&self) -> f64 {
        let n = self.sorted.len();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// Whether percentile `q` has at least ten samples above its rank,
    /// the condition for printing it.
    pub(crate) fn has_tail(&self, q: f64) -> bool {
        let n = self.sorted.len();
        let rank = (q * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    }

    /// First and third quartiles by the same rule as Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
    /// the spreads printed here match the ones computed over repeated
    /// runs. With one sample both quartiles are that sample.
    pub(crate) fn quartiles(&self) -> (f64, f64) {
        let d = &self.sorted;
        let len = d.len();
        if len == 1 {
            return (d[0], d[0]);
        }
        let m = len + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
        };
        (cut(1), cut(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[f64]) -> Samples {
        Samples::new(v.to_vec()).unwrap()
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(Samples::new(Vec::new()).is_none());
        assert!(Samples::new(vec![1.0, f64::NAN]).is_none());
        assert!(Samples::new(vec![f64::INFINITY]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let x = s(&(1..=100).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!(x.percentile(0.5), 50.0);
        assert_eq!(x.percentile(0.99), 99.0);
        assert_eq!(x.percentile(1.0), 100.0);
        assert_eq!(x.percentile(0.0), 1.0);
        assert_eq!(s(&[7.0]).percentile(0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(s(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(s(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
    }

    #[test]
    fn pooled_sets_rank_as_one() {
        let x = Samples::pooled(vec![s(&[5.0, 1.0]), s(&[3.0]), s(&[4.0, 2.0])]).unwrap();
        assert_eq!(x, s(&[1.0, 2.0, 3.0, 4.0, 5.0]));
        assert_eq!(x.median(), 3.0);
        assert!(Samples::pooled(Vec::new()).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_rank() {
        let n = |len: usize| s(&vec![1.0; len]);
        assert!(!n(999).has_tail(0.99));
        assert!(n(1000).has_tail(0.99));
        assert!(n(20).has_tail(0.5));
        assert!(!n(19).has_tail(0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let x = s(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(x.quartiles(), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(s(&[5.0, 4.0, 3.0, 2.0, 1.0]).quartiles(), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(s(&[10.0, 20.0]).quartiles(), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(s(&[4.0, 1.0, 2.0]).quartiles(), (1.0, 4.0));
        assert_eq!(s(&[3.0]).quartiles(), (3.0, 3.0));
    }
}
