//! Straggler accounting.

use aqs_obs::Log2Histogram;
use aqs_time::SimDuration;

/// Accumulated straggler statistics.
///
/// A *straggler* is a packet whose computed arrival time lies in the
/// receiver's simulated past, so it must be delivered late. The paper's
/// accuracy losses are entirely a function of "the quantity of stragglers
/// and their total delay time" (§3), so both are tracked.
///
/// # Examples
///
/// ```
/// use aqs_net::StragglerStats;
/// use aqs_time::SimDuration;
///
/// let mut s = StragglerStats::default();
/// s.record(SimDuration::from_micros(3));
/// s.record(SimDuration::from_micros(1));
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.total_delay(), SimDuration::from_micros(4));
/// assert_eq!(s.max_delay(), SimDuration::from_micros(3));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StragglerStats {
    count: u64,
    total_delay: SimDuration,
    max_delay: SimDuration,
    delay_hist: Log2Histogram,
}

impl StragglerStats {
    /// Records one straggler delivered `delay` after its ideal arrival.
    pub fn record(&mut self, delay: SimDuration) {
        self.count += 1;
        self.total_delay = self.total_delay.saturating_add(delay);
        self.max_delay = self.max_delay.max(delay);
        self.delay_hist.record(delay.as_nanos());
    }

    /// Number of stragglers seen.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all delivery delays.
    #[inline]
    pub fn total_delay(&self) -> SimDuration {
        self.total_delay
    }

    /// Largest single delivery delay.
    #[inline]
    pub fn max_delay(&self) -> SimDuration {
        self.max_delay
    }

    /// Base-2 histogram of individual delivery delays in nanoseconds.
    ///
    /// The scalar accessors summarize the tail poorly (one pathological
    /// packet dominates [`max_delay`](Self::max_delay)); the histogram keeps
    /// the whole distribution at a fixed 65-bucket cost.
    #[inline]
    pub fn delay_hist(&self) -> &Log2Histogram {
        &self.delay_hist
    }

    /// Rebuilds an accumulator from its raw parts, for snapshot restore.
    /// Returns `None` when the parts are inconsistent (histogram count does
    /// not match `count`).
    pub fn from_parts(
        count: u64,
        total_delay: SimDuration,
        max_delay: SimDuration,
        delay_hist: Log2Histogram,
    ) -> Option<Self> {
        if delay_hist.count() != count {
            return None;
        }
        Some(Self {
            count,
            total_delay,
            max_delay,
            delay_hist,
        })
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &StragglerStats) {
        self.count += other.count;
        self.total_delay = self.total_delay.saturating_add(other.total_delay);
        self.max_delay = self.max_delay.max(other.max_delay);
        self.delay_hist.merge(&other.delay_hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_stats_accumulate() {
        let mut s = StragglerStats::default();
        assert_eq!(s.count(), 0);
        s.record(SimDuration::from_micros(2));
        s.record(SimDuration::from_micros(4));
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_delay(), SimDuration::from_micros(6));
        assert_eq!(s.max_delay(), SimDuration::from_micros(4));
    }

    #[test]
    fn straggler_stats_merge() {
        let mut a = StragglerStats::default();
        a.record(SimDuration::from_micros(1));
        let mut b = StragglerStats::default();
        b.record(SimDuration::from_micros(5));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.total_delay(), SimDuration::from_micros(6));
        assert_eq!(a.max_delay(), SimDuration::from_micros(5));
    }

    #[test]
    fn straggler_delay_histogram_tracks_distribution() {
        let mut s = StragglerStats::default();
        s.record(SimDuration::from_nanos(1));
        s.record(SimDuration::from_nanos(3));
        s.record(SimDuration::from_micros(2));
        let h = s.delay_hist();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 2_000);
        let mut other = StragglerStats::default();
        other.record(SimDuration::from_nanos(3));
        s.merge(&other);
        assert_eq!(s.delay_hist().count(), 4);
        assert_eq!(
            s.delay_hist().bucket_count(Log2Histogram::bucket_of(3)),
            2,
            "both 3 ns delays land in the same bucket"
        );
    }
}
