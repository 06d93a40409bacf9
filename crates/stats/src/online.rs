//! Welford streaming mean/variance.

/// Streaming mean, variance, min and max over `f64` samples using
/// Welford's numerically stable update, with support for merging
/// (Chan's parallel variance formula).
///
/// # Example
///
/// ```
/// use afa_stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std_dev(), 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples were pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divide by `n`), or 0.0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Sample variance (divide by `n - 1`), or 0.0 for fewer than two
    /// samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample, or 0.0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0.0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reports_zeros() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_sample() {
        let s = OnlineStats::from_iter([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn known_moments() {
        let s = OnlineStats::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.population_variance(), 4.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_single_pass() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0 + 50.0).collect();
        let whole = OnlineStats::from_iter(data.iter().copied());
        let mut left = OnlineStats::from_iter(data[..337].iter().copied());
        let right = OnlineStats::from_iter(data[337..].iter().copied());
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-6);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::from_iter([1.0, 2.0]);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut b = OnlineStats::new();
        b.merge(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn extend_and_collect() {
        let mut s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        s.extend([4.0, 5.0]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn variance_never_negative() {
        // Catastrophic-cancellation stress: large offset, tiny spread.
        let s = OnlineStats::from_iter((0..10_000).map(|i| 1e12 + (i % 2) as f64));
        assert!(s.population_variance() >= 0.0);
    }
}
