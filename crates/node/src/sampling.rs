//! Simulator sampling — the paper's closing future-work item.
//!
//! §7: "we also plan to combine this technique with 'sampling' of the
//! individual node simulators to take further advantage of another
//! accuracy/speed tradeoff". Sampling (the authors' own ISPASS 2007 work,
//! reference [8]) alternates each node simulator between a **detailed**
//! phase — full timing models, slow — and a **fast-forward** phase —
//! functional-only execution whose timing is *estimated* from the last
//! detailed phase, much faster but slightly wrong.
//!
//! [`SamplingModel`] captures exactly the two observables the cluster
//! engine needs:
//!
//! * during fast-forward, the node simulator's host cost drops by
//!   [`speedup`](SamplingModel::new) — this multiplies with whatever the
//!   quantum policy saves;
//! * guest timing during fast-forward carries a deterministic, per-interval
//!   relative error (log-normal around 1) — this is the accuracy the
//!   combination pays, *independent of stragglers*.
//!
//! The sampling schedule runs on simulated time so it is identical across
//! synchronization policies — a prerequisite for comparing their errors.

use aqs_rng::Rng;
use aqs_time::{SimDuration, SimTime};

/// Execution mode of a sampled node simulator at some simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleMode {
    /// Full timing models (accurate, slow).
    Detailed,
    /// Functional fast-forward with estimated timing (fast, biased).
    FastForward,
}

/// A periodic detailed/fast-forward sampling schedule.
///
/// # Examples
///
/// ```
/// use aqs_node::{SampleMode, SamplingModel};
/// use aqs_time::{SimDuration, SimTime};
///
/// // 10 % detailed, 90 % fast-forwarded at 20x, 2 % timing error.
/// let s = SamplingModel::new(SimDuration::from_millis(1), 0.1, 20.0, 0.02);
/// assert_eq!(s.mode_at(SimTime::from_micros(50)), SampleMode::Detailed);
/// assert_eq!(s.mode_at(SimTime::from_micros(500)), SampleMode::FastForward);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingModel {
    /// Length of one detailed + fast-forward cycle.
    interval: SimDuration,
    /// Fraction of each cycle spent in detailed mode, in `(0, 1]`.
    detail_fraction: f64,
    /// Host-cost divisor during fast-forward (> 1).
    speedup: f64,
    /// Sigma of the log-normal per-interval timing bias.
    error_sigma: f64,
}

impl SamplingModel {
    /// Creates a sampling model.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero, `detail_fraction` is outside `(0, 1]`,
    /// `speedup ≤ 1`, or `error_sigma` is negative.
    pub fn new(
        interval: SimDuration,
        detail_fraction: f64,
        speedup: f64,
        error_sigma: f64,
    ) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        assert!(
            detail_fraction > 0.0 && detail_fraction <= 1.0,
            "detail_fraction must be in (0,1], got {detail_fraction}"
        );
        assert!(
            speedup.is_finite() && speedup > 1.0,
            "speedup must exceed 1, got {speedup}"
        );
        assert!(
            error_sigma.is_finite() && error_sigma >= 0.0,
            "error_sigma must be >= 0"
        );
        Self {
            interval,
            detail_fraction,
            speedup,
            error_sigma,
        }
    }

    /// A typical configuration from the sampling literature: 1 ms cycles,
    /// 10 % detailed, 20x functional fast-forward, 2 % timing error.
    pub fn typical() -> Self {
        Self::new(SimDuration::from_millis(1), 0.1, 20.0, 0.02)
    }

    /// The cycle length.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Which mode the node simulator is in at simulated time `t`.
    pub fn mode_at(&self, t: SimTime) -> SampleMode {
        let phase = t.as_nanos() % self.interval.as_nanos();
        let detail_end = (self.interval.as_nanos() as f64 * self.detail_fraction) as u64;
        if phase < detail_end {
            SampleMode::Detailed
        } else {
            SampleMode::FastForward
        }
    }

    /// Host-cost divisor in effect at simulated time `t`.
    pub fn host_divisor_at(&self, t: SimTime) -> f64 {
        match self.mode_at(t) {
            SampleMode::Detailed => 1.0,
            SampleMode::FastForward => self.speedup,
        }
    }

    /// Deterministic guest-timing bias for node `node` at simulated time
    /// `t` under experiment `seed`: 1.0 in detailed mode, a log-normal
    /// factor (median 1) per fast-forward interval otherwise.
    pub fn timing_bias_at(&self, seed: u64, node: usize, t: SimTime) -> f64 {
        if self.error_sigma == 0.0 || self.mode_at(t) == SampleMode::Detailed {
            return 1.0;
        }
        let interval_index = t.as_nanos() / self.interval.as_nanos();
        // One deterministic draw per (seed, node, interval).
        let mix = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((node as u64) << 32)
            .wrapping_add(interval_index);
        let mut rng = Rng::seed_from_u64(mix);
        rng.lognormal(0.0, self.error_sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SamplingModel {
        SamplingModel::new(SimDuration::from_micros(100), 0.2, 10.0, 0.05)
    }

    #[test]
    fn schedule_is_periodic() {
        let s = model();
        for cycle in 0..5u64 {
            let base = cycle * 100_000;
            assert_eq!(s.mode_at(SimTime::from_nanos(base)), SampleMode::Detailed);
            assert_eq!(
                s.mode_at(SimTime::from_nanos(base + 19_999)),
                SampleMode::Detailed
            );
            assert_eq!(
                s.mode_at(SimTime::from_nanos(base + 20_000)),
                SampleMode::FastForward
            );
            assert_eq!(
                s.mode_at(SimTime::from_nanos(base + 99_999)),
                SampleMode::FastForward
            );
        }
    }

    #[test]
    fn host_divisor_follows_mode() {
        let s = model();
        assert_eq!(s.host_divisor_at(SimTime::from_nanos(0)), 1.0);
        assert_eq!(s.host_divisor_at(SimTime::from_nanos(50_000)), 10.0);
    }

    #[test]
    fn bias_is_deterministic_per_interval() {
        let s = model();
        let t1 = SimTime::from_nanos(50_000); // FF, interval 0
        let t2 = SimTime::from_nanos(60_000); // FF, same interval
        let t3 = SimTime::from_nanos(150_000); // FF, interval 1
        let b1 = s.timing_bias_at(7, 3, t1);
        assert_eq!(b1, s.timing_bias_at(7, 3, t2), "same interval, same bias");
        assert_ne!(
            b1,
            s.timing_bias_at(7, 3, t3),
            "different interval, new bias"
        );
        assert_ne!(
            b1,
            s.timing_bias_at(7, 4, t1),
            "different node, different bias"
        );
        assert_ne!(
            b1,
            s.timing_bias_at(8, 3, t1),
            "different seed, different bias"
        );
        assert!(b1 > 0.0);
    }

    #[test]
    fn detailed_mode_is_unbiased() {
        let s = model();
        assert_eq!(s.timing_bias_at(7, 0, SimTime::from_nanos(5_000)), 1.0);
    }

    #[test]
    fn zero_sigma_is_unbiased_everywhere() {
        let s = SamplingModel::new(SimDuration::from_micros(100), 0.2, 10.0, 0.0);
        assert_eq!(s.timing_bias_at(7, 0, SimTime::from_nanos(50_000)), 1.0);
    }

    #[test]
    fn typical_is_valid() {
        let s = SamplingModel::typical();
        assert_eq!(s.interval(), SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "speedup must exceed 1")]
    fn unity_speedup_rejected() {
        let _ = SamplingModel::new(SimDuration::from_micros(1), 0.5, 1.0, 0.0);
    }
}
