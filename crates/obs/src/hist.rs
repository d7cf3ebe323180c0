//! Fixed-bucket log2 histograms.

/// Number of buckets: one for zero, one per power of two up to `2^63`.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket base-2 histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `k` (for `k >= 1`) holds values in
/// `[2^(k-1), 2^k)`. Recording is two increments and three stores — no
/// allocation, no branching beyond the zero check — so the histogram is safe
/// to update on a simulation hot path. Merging is commutative and
/// associative, which keeps per-thread histograms order-independent when the
/// barrier leader folds them together.
///
/// # Examples
///
/// ```
/// use aqs_obs::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// h.record(0);
/// h.record(5);
/// h.record(7);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), 7);
/// assert_eq!(h.bucket_count(Log2Histogram::bucket_of(5)), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
    n: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            counts: [0; LOG2_BUCKETS],
            n: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index a value falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Half-open value range `[lo, hi)` covered by bucket `index`
    /// (bucket 0 covers exactly `[0, 1)`; bucket 64's upper bound
    /// saturates at `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= LOG2_BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < LOG2_BUCKETS, "bucket {index} out of range");
        if index == 0 {
            (0, 1)
        } else {
            (
                1u64 << (index - 1),
                1u64.checked_shl(index as u32).unwrap_or(u64::MAX),
            )
        }
    }

    /// Rebuilds a histogram from its raw parts, for snapshot restore. The
    /// sample count is re-derived from the buckets; returns `None` when the
    /// bucket counts overflow `u64` (a corrupt snapshot).
    pub fn from_parts(counts: [u64; LOG2_BUCKETS], sum: u64, max: u64) -> Option<Self> {
        let n: u64 = counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c))?;
        Some(Self {
            counts,
            n,
            sum,
            max,
        })
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.n += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self` (commutative).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples (saturating).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Count in one bucket.
    ///
    /// # Panics
    ///
    /// Panics if `index >= LOG2_BUCKETS`.
    #[inline]
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// All bucket counts.
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.counts
    }

    /// Inclusive index range of non-empty buckets, or `None` when empty.
    pub fn nonzero_range(&self) -> Option<(usize, usize)> {
        let lo = self.counts.iter().position(|&c| c > 0)?;
        let hi = self.counts.iter().rposition(|&c| c > 0)?;
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_space() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        for i in 0..LOG2_BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_bounds(i);
            assert_eq!(Log2Histogram::bucket_of(lo), i);
            if hi < u64::MAX {
                assert_eq!(Log2Histogram::bucket_of(hi - 1), i);
                assert_eq!(Log2Histogram::bucket_of(hi), i + 1);
            }
        }
    }

    #[test]
    fn record_tracks_aggregates() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1111);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 222.2).abs() < 1e-9);
        assert_eq!(h.nonzero_range(), Some((0, Log2Histogram::bucket_of(1000))));
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.nonzero_range(), None);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in [3, 900, 0] {
            a.record(v);
        }
        for v in [12, 7_000_000] {
            b.record(v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 5);
    }
}
