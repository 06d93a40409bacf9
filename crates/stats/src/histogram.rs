//! HDR-style log-linear latency histogram.
//!
//! Values (nanoseconds) are bucketed with a bounded *relative* error:
//! within each power-of-two "bucket level" there are a fixed number of
//! equal-width sub-buckets, so the recording error is at most
//! `1 / sub_bucket_count` of the value. With 256 sub-buckets the error
//! is under 0.4 % — far below the run-to-run noise of the systems being
//! modeled — while `record` remains a couple of shifts and an add.

const SUB_BUCKET_BITS: u32 = 8;
const SUB_BUCKET_COUNT: u64 = 1 << SUB_BUCKET_BITS; // 256
const SUB_BUCKET_HALF: u64 = SUB_BUCKET_COUNT / 2;
/// Number of power-of-two levels; covers values up to ~2^(8+62) ns,
/// i.e. effectively unbounded for latency purposes.
const LEVELS: usize = 48;
const BUCKETS: usize = SUB_BUCKET_COUNT as usize + LEVELS * SUB_BUCKET_HALF as usize;

/// A latency histogram with bounded relative error (< 0.4 %), exact
/// count/min/max/mean/variance, percentile queries, and lossless merge.
///
/// Units are whatever the caller records — nanoseconds throughout this
/// workspace.
///
/// # Example
///
/// ```
/// use afa_stats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// h.record(25_000);
/// h.record(30_000);
/// h.record(5_000_000);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), 5_000_000);
/// assert!(h.value_at_percentile(50.0) <= 30_100);
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: f64,
    sum_sq: f64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Index of the bucket holding `value`.
    ///
    /// Branchless on the hot path: OR-ing in `SUB_BUCKET_COUNT - 1`
    /// pins the most-significant bit of small values at
    /// `SUB_BUCKET_BITS - 1`, so the level computes to 0 and the index
    /// collapses to the value itself — one shift/add formula covers
    /// both the exact (< 256) and log-linear regimes, and the only
    /// remaining branch is the never-taken saturation guard.
    #[inline]
    fn index_for(value: u64) -> usize {
        let msb = 63 - (value | (SUB_BUCKET_COUNT - 1)).leading_zeros();
        let level = (msb + 1 - SUB_BUCKET_BITS) as usize;
        if level > LEVELS {
            // Values beyond the covered range saturate into the last
            // bucket; exact max tracking keeps p100 correct regardless.
            return BUCKETS - 1;
        }
        let idx = level * SUB_BUCKET_HALF as usize + (value >> level) as usize;
        debug_assert!(idx < BUCKETS);
        idx
    }

    /// Highest value representable by bucket `index` (the reported
    /// value for samples in that bucket).
    fn value_for(index: usize) -> u64 {
        if index < SUB_BUCKET_COUNT as usize {
            return index as u64;
        }
        let rest = index - SUB_BUCKET_COUNT as usize;
        let level = rest / SUB_BUCKET_HALF as usize + 1;
        let sub = rest % SUB_BUCKET_HALF as usize;
        let base = (SUB_BUCKET_HALF + sub as u64) << level;
        // Upper edge of the bucket.
        base + (1 << level) - 1
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_for(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let v = value as f64;
        self.sum += v;
        self.sum_sq += v * v;
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index_for(value)] += n;
        self.total += n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let v = value as f64;
        self.sum += v * n as f64;
        self.sum_sq += v * v * n as f64;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// The exact largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The exact population standard deviation, or 0.0 if empty.
    pub fn std_dev(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let var = (self.sum_sq / self.total as f64 - mean * mean).max(0.0);
        var.sqrt()
    }

    /// The smallest recorded value `v` such that at least
    /// `percentile`% of samples are ≤ `v` (within the histogram's
    /// relative error). `percentile` is clamped to `[0, 100]`.
    ///
    /// Returns the exact maximum for `percentile == 100`, and 0 for an
    /// empty histogram.
    pub fn value_at_percentile(&self, percentile: f64) -> u64 {
        let Some(target) = self.rank_of(percentile) else {
            return self.max;
        };
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.reported(i);
            }
        }
        self.max
    }

    /// The 1-based rank of the sample `percentile` asks for, or `None`
    /// when no bucket walk is needed: an empty histogram (whose min and
    /// max are both 0) or `percentile >= 100` (the exact max).
    fn rank_of(&self, percentile: f64) -> Option<u64> {
        let p = percentile.clamp(0.0, 100.0);
        if self.total == 0 || p >= 100.0 {
            return None;
        }
        Some(((p / 100.0) * self.total as f64).ceil().max(1.0) as u64)
    }

    /// The value reported for a percentile that lands in bucket
    /// `index`: the bucket's upper edge, clamped to the exact min/max.
    fn reported(&self, index: usize) -> u64 {
        Self::value_for(index).min(self.max).max(self.min())
    }

    /// Fraction of samples at or below `value` (within relative error).
    pub fn fraction_at_or_below(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = Self::index_for(value);
        let seen: u64 = self.counts[..=idx].iter().sum();
        seen as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Extracts the paper's metric set (average, 2-nines … 6-nines,
    /// max) as a [`LatencyProfile`](crate::LatencyProfile).
    pub fn profile(&self) -> crate::LatencyProfile {
        crate::LatencyProfile::from_histogram(self)
    }

    /// Iterates over non-empty buckets as `(upper_edge_value, count)`.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::value_for(i), c))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`LatencyHistogram`] read through a resumable bucket cursor.
///
/// The cursor rests on one bucket and counts the samples below it. A
/// record below the cursor bumps that count, and a percentile query
/// walks from the cursor to the bucket its rank lands in. So a
/// percentile that moved a few buckets since the last query costs a
/// few steps, where [`LatencyHistogram::value_at_percentile`] walks
/// from bucket 0 every time. Every query returns exactly what that
/// walk returns.
///
/// # Example
///
/// ```
/// use afa_stats::{LatencyHistogram, PercentileCursor};
///
/// let mut settles = PercentileCursor::new();
/// let mut walked = LatencyHistogram::new();
/// for us in 1..=200u64 {
///     settles.record(us * 1_000);
///     walked.record(us * 1_000);
/// }
/// let p95 = settles.value_at_percentile(95.0);
/// assert_eq!(p95, walked.value_at_percentile(95.0));
/// // The next query resumes at p95's bucket.
/// assert_eq!(settles.value_at_percentile(96.0), walked.value_at_percentile(96.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct PercentileCursor {
    hist: LatencyHistogram,
    /// The bucket the cursor rests on.
    index: usize,
    /// Samples recorded in buckets below `index`.
    below: u64,
}

impl PercentileCursor {
    /// Creates an empty histogram with its cursor on bucket 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        if LatencyHistogram::index_for(value) < self.index {
            self.below += 1;
        }
        self.hist.record(value);
    }

    /// [`LatencyHistogram::value_at_percentile`], walking only the
    /// buckets between the last query's answer and this one's.
    pub fn value_at_percentile(&mut self, percentile: f64) -> u64 {
        let Some(target) = self.hist.rank_of(percentile) else {
            return self.hist.max;
        };
        let counts = &self.hist.counts;
        // Back up while the rank lies below the cursor's bucket, then
        // step forward until the cursor's bucket holds it. `target` is
        // at least 1 and at most the sample count, so neither walk
        // leaves the bucket range.
        while self.below >= target {
            self.index -= 1;
            self.below -= counts[self.index];
        }
        while self.below + counts[self.index] < target {
            self.below += counts[self.index];
            self.index += 1;
        }
        self.hist.reported(self.index)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.std_dev(), 0.0);
        assert_eq!(h.value_at_percentile(99.0), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKET_COUNT {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKET_COUNT - 1);
        // Values below SUB_BUCKET_COUNT land in exact buckets; the
        // 128th of 256 samples (0..=255) is the value 127.
        assert_eq!(h.value_at_percentile(50.0), 127);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for exp in 0..40u32 {
            let v = 3u64 << exp; // spread across levels
            h.record(v);
            let idx = LatencyHistogram::index_for(v);
            let reported = LatencyHistogram::value_for(idx);
            assert!(reported >= v, "reported {reported} < recorded {v}");
            let err = (reported - v) as f64 / v as f64;
            assert!(
                err < 1.0 / SUB_BUCKET_HALF as f64 + 1e-9,
                "err {err} for {v}"
            );
        }
    }

    #[test]
    fn percentile_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record(us * 1_000);
        }
        let p50 = h.value_at_percentile(50.0);
        assert!(
            (p50 as f64 - 5_000_000.0).abs() / 5_000_000.0 < 0.01,
            "p50={p50}"
        );
        let p999 = h.value_at_percentile(99.9);
        assert!(
            (p999 as f64 - 9_990_000.0).abs() / 9_990_000.0 < 0.01,
            "p999={p999}"
        );
        assert_eq!(h.value_at_percentile(100.0), 10_000_000);
    }

    #[test]
    fn mean_and_std_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean(), 25.0);
        let expected_std = (125.0f64).sqrt(); // population variance 125
        assert!((h.std_dev() - expected_std).abs() < 1e-9);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..7 {
            a.record(1234);
        }
        b.record_n(1234, 7);
        b.record_n(999, 0);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.max(), b.max());
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(100);
        b.record(1_000_000);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 50);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record(42);
        let before_max = a.max();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), 1);
        assert_eq!(a.max(), before_max);
        assert_eq!(a.min(), 42);
    }

    #[test]
    fn fraction_at_or_below() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert!((h.fraction_at_or_below(50) - 0.5).abs() < 0.01);
        assert_eq!(h.fraction_at_or_below(1_000_000), 1.0);
    }

    #[test]
    fn percentile_never_below_min_nor_above_max() {
        let mut h = LatencyHistogram::new();
        h.record(30_000);
        h.record(5_000_000);
        for p in [0.0, 1.0, 50.0, 99.0, 99.9999, 100.0] {
            let v = h.value_at_percentile(p);
            assert!(v >= h.min() && v <= h.max(), "p{p} -> {v}");
        }
    }

    #[test]
    fn iter_buckets_counts_sum_to_total() {
        let mut h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(i * 37 + 5);
        }
        let sum: u64 = h.iter_buckets().map(|(_, c)| c).sum();
        assert_eq!(sum, h.count());
    }

    #[test]
    fn branchless_index_matches_branchy_reference() {
        // The original two-regime implementation, retained as the
        // specification the branchless formula must reproduce.
        fn reference(value: u64) -> usize {
            if value < SUB_BUCKET_COUNT {
                return value as usize;
            }
            let level = (63 - value.leading_zeros()) as usize - (SUB_BUCKET_BITS as usize - 1);
            if level > LEVELS {
                return BUCKETS - 1;
            }
            let shifted = value >> level;
            (SUB_BUCKET_COUNT as usize)
                + (level - 1) * (SUB_BUCKET_HALF as usize)
                + (shifted - SUB_BUCKET_HALF) as usize
        }
        for v in 0..4096u64 {
            assert_eq!(LatencyHistogram::index_for(v), reference(v), "v={v}");
        }
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Cover all magnitudes, not just full-width values.
            let v = x >> (x % 64);
            assert_eq!(LatencyHistogram::index_for(v), reference(v), "v={v}");
        }
        for v in [u64::MAX, u64::MAX / 2, 1 << 56, (1 << 56) - 1] {
            assert_eq!(LatencyHistogram::index_for(v), reference(v), "v={v}");
        }
    }

    #[test]
    fn cursor_matches_the_full_walk() {
        const PERCENTILES: [f64; 9] = [0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 99.9, 99.9999, 100.0];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..40u64 {
            let mut cursor = PercentileCursor::new();
            let mut walk = LatencyHistogram::new();
            // Queries on an empty histogram move nothing.
            for p in PERCENTILES {
                assert_eq!(cursor.value_at_percentile(p), 0, "case {case} empty p{p}");
            }
            // Later cases query more often and drift between one fixed
            // percentile (the hedge's use) and arbitrary ones.
            let query_every = 1 + case % 8;
            for step in 0..3_000u64 {
                let r = next();
                if step % query_every == 0 {
                    let p = match r % 3 {
                        0 if case % 2 == 0 => 95.0,
                        0 | 1 => PERCENTILES[(r >> 8) as usize % PERCENTILES.len()],
                        _ => (r >> 11) as f64 / (1u64 << 53) as f64 * 100.0,
                    };
                    assert_eq!(
                        cursor.value_at_percentile(p),
                        walk.value_at_percentile(p),
                        "case {case} step {step} p{p}"
                    );
                } else {
                    // 0 ..= 2^40, spread over every magnitude.
                    let v = match r % 64 {
                        0 => 0,
                        1 => 1 << 40,
                        _ => (r >> 24) >> ((r >> 8) % 41),
                    };
                    cursor.record(v);
                    walk.record(v);
                }
            }
            assert_eq!(cursor.count(), walk.count());
            assert_eq!(cursor.value_at_percentile(100.0), walk.max());
        }
    }

    #[test]
    fn handles_huge_values() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 1);
        assert_eq!(h.value_at_percentile(100.0), u64::MAX / 2);
    }
}
