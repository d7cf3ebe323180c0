//! The paper's Algorithm 1: the adaptive (dynamic) quantum.

use crate::policy::QuantumPolicy;
use aqs_time::SimDuration;
use serde::{Deserialize, Serialize};

/// Parameters of the adaptive quantum algorithm.
///
/// The paper's guidance (§3): grow slowly (`inc` of 2–5 %) and shrink
/// abruptly — `dec` near `1/√(maxQ)` or `1/∛(maxQ)` so that the quantum
/// collapses from the ceiling to the floor "in just two or three quanta at
/// most". Both published configurations use `dec = 0.02`.
///
/// # Examples
///
/// ```
/// use aqs_core::AdaptiveConfig;
/// use aqs_time::SimDuration;
///
/// let cfg = AdaptiveConfig::paper_dyn1();
/// assert_eq!(cfg.min_quantum, SimDuration::from_micros(1));
/// assert_eq!(cfg.max_quantum, SimDuration::from_micros(1000));
/// assert!((cfg.inc - 1.03).abs() < 1e-12);
/// assert!((cfg.dec - 0.02).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Quantum floor (the paper uses the safe bound, 1 µs).
    pub min_quantum: SimDuration,
    /// Quantum ceiling (the paper uses 1000 µs).
    pub max_quantum: SimDuration,
    /// Multiplicative growth factor applied after a packet-free quantum
    /// (> 1).
    pub inc: f64,
    /// Multiplicative shrink factor applied after a quantum that saw
    /// packets (in `(0, 1)`).
    pub dec: f64,
}

impl AdaptiveConfig {
    /// Creates and validates a configuration.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_new`] reports an error.
    pub fn new(min_quantum: SimDuration, max_quantum: SimDuration, inc: f64, dec: f64) -> Self {
        Self::try_new(min_quantum, max_quantum, inc, dec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a configuration, or says what is wrong with it: a zero
    /// `min_quantum` or one above `max_quantum`, `inc ≤ 1`, or `dec` outside
    /// `(0, 1)`.
    pub fn try_new(
        min_quantum: SimDuration,
        max_quantum: SimDuration,
        inc: f64,
        dec: f64,
    ) -> Result<Self, String> {
        if min_quantum.is_zero() {
            return Err("min_quantum must be positive".into());
        }
        if min_quantum > max_quantum {
            return Err("min_quantum must not exceed max_quantum".into());
        }
        if !(inc.is_finite() && inc > 1.0) {
            return Err(format!("inc must be > 1, got {inc}"));
        }
        if !(dec.is_finite() && dec > 0.0 && dec < 1.0) {
            return Err(format!("dec must be in (0,1), got {dec}"));
        }
        Ok(Self {
            min_quantum,
            max_quantum,
            inc,
            dec,
        })
    }

    /// The paper's `dyn 1`: 1–1000 µs, +3 % growth, ×0.02 shrink.
    pub fn paper_dyn1() -> Self {
        Self::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(1000),
            1.03,
            0.02,
        )
    }

    /// The paper's `dyn 2`: 1–1000 µs, +5 % growth, ×0.02 shrink.
    pub fn paper_dyn2() -> Self {
        Self::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(1000),
            1.05,
            0.02,
        )
    }

    /// A `dec` that reaches the floor from the ceiling in at most `steps`
    /// shrinks: `(min/max)^(1/steps)` — the paper's `1/√maxQ` rule
    /// generalized.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn dec_for_floor_in(min: SimDuration, max: SimDuration, steps: u32) -> f64 {
        assert!(steps > 0, "steps must be positive");
        assert!(!min.is_zero() && min <= max, "need 0 < min <= max");
        if min == max {
            return 0.5; // any valid dec; range is degenerate
        }
        (min.as_nanos() as f64 / max.as_nanos() as f64).powf(1.0 / steps as f64)
    }

    /// Number of consecutive quiet quanta needed to grow from the floor to
    /// the ceiling (the "acceleration runway" — 2–5 % growth makes this a
    /// few hundred quanta, which is what damps the EP 64-node speedup in
    /// the paper's §6 table).
    pub fn quanta_to_ceiling(&self) -> u32 {
        let ratio = self.max_quantum.as_nanos() as f64 / self.min_quantum.as_nanos() as f64;
        ratio.ln().div_euclid(self.inc.ln()).max(0.0) as u32 + 1
    }
}

/// The paper's Algorithm 1 — "driving over speed bumps".
///
/// State machine, verbatim from the paper:
///
/// ```text
/// Q = min_Q
/// repeat
///     if np == 0 { Q *= inc } else { Q *= dec }
///     Q = clamp(Q, min_Q, max_Q)
/// until end of simulation
/// ```
///
/// where `np` is the number of network packets the controller routed during
/// the quantum that just ended.
///
/// # Examples
///
/// ```
/// use aqs_core::{AdaptiveConfig, AdaptiveQuantum, QuantumPolicy};
/// use aqs_time::SimDuration;
///
/// let mut p = AdaptiveQuantum::new(AdaptiveConfig::paper_dyn1());
/// assert_eq!(p.next_quantum(0), SimDuration::from_nanos(1030)); // ×1.03
/// assert_eq!(p.next_quantum(4), SimDuration::from_micros(1));   // ×0.02, clamped
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveQuantum {
    config: AdaptiveConfig,
    /// Current quantum in (exact) nanoseconds as `f64`, so repeated small
    /// multiplications don't quantize to nothing; public reads round.
    current_ns: f64,
    quiet_streak: u64,
    shrink_count: u64,
}

impl AdaptiveQuantum {
    /// Creates the policy at its floor quantum.
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            config,
            current_ns: config.min_quantum.as_nanos() as f64,
            quiet_streak: 0,
            shrink_count: 0,
        }
    }

    /// The paper's `dyn 1` configuration.
    pub fn paper_dyn1() -> Self {
        Self::new(AdaptiveConfig::paper_dyn1())
    }

    /// The paper's `dyn 2` configuration.
    pub fn paper_dyn2() -> Self {
        Self::new(AdaptiveConfig::paper_dyn2())
    }

    /// The configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Current quantum value.
    pub fn current(&self) -> SimDuration {
        SimDuration::from_nanos(self.current_ns.round() as u64)
    }

    /// How many consecutive packet-free quanta the policy has seen.
    pub fn quiet_streak(&self) -> u64 {
        self.quiet_streak
    }

    /// How many times the quantum has been shrunk ("speed bumps hit").
    pub fn shrink_count(&self) -> u64 {
        self.shrink_count
    }

    fn clamp(&mut self) {
        #[allow(unused_mut)]
        let mut min = self.config.min_quantum.as_nanos() as f64;
        #[allow(unused_mut)]
        let mut max = self.config.max_quantum.as_nanos() as f64;
        #[cfg(feature = "fault-inject")]
        {
            if crate::fault::armed(crate::fault::Fault::QuantumClampHigh) {
                max += self.config.min_quantum.as_nanos() as f64;
            }
            if crate::fault::armed(crate::fault::Fault::QuantumClampLow) {
                min /= 2.0;
            }
        }
        self.current_ns = self.current_ns.clamp(min, max);
    }
}

impl QuantumPolicy for AdaptiveQuantum {
    fn initial_quantum(&self) -> SimDuration {
        self.config.min_quantum
    }

    fn next_quantum(&mut self, np: u64) -> SimDuration {
        #[allow(unused_mut)]
        let mut quiet = np == 0;
        #[cfg(feature = "fault-inject")]
        if crate::fault::armed(crate::fault::Fault::ShrinkOffByOne) {
            quiet = np <= 1;
        }
        if quiet {
            self.quiet_streak += 1;
            self.current_ns *= self.config.inc;
        } else {
            self.quiet_streak = 0;
            self.shrink_count += 1;
            self.current_ns *= self.config.dec;
        }
        self.clamp();
        self.current()
    }

    fn label(&self) -> String {
        format!("dyn {:.2}:{:.2}", self.config.inc, self.config.dec)
    }

    fn reset(&mut self) {
        self.current_ns = self.config.min_quantum.as_nanos() as f64;
        self.quiet_streak = 0;
        self.shrink_count = 0;
    }

    fn save_state(&self) -> Vec<u64> {
        vec![
            self.current_ns.to_bits(),
            self.quiet_streak,
            self.shrink_count,
        ]
    }

    fn load_state(&mut self, state: &[u64]) -> Result<(), String> {
        let [current, quiet, shrinks] = state else {
            return Err(format!(
                "adaptive policy expects 3 state words, got {}",
                state.len()
            ));
        };
        self.current_ns = f64::from_bits(*current);
        self.quiet_streak = *quiet;
        self.shrink_count = *shrinks;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_at_floor() {
        let p = AdaptiveQuantum::paper_dyn1();
        assert_eq!(p.initial_quantum(), SimDuration::from_micros(1));
        assert_eq!(p.current(), SimDuration::from_micros(1));
    }

    #[test]
    fn grows_by_inc_when_quiet() {
        let mut p = AdaptiveQuantum::paper_dyn2();
        assert_eq!(p.next_quantum(0), SimDuration::from_nanos(1050));
        assert_eq!(p.next_quantum(0), SimDuration::from_nanos(1103)); // 1102.5 rounded
        assert_eq!(p.quiet_streak(), 2);
    }

    #[test]
    fn shrinks_by_dec_on_traffic() {
        let mut p = AdaptiveQuantum::paper_dyn1();
        // Climb to the ceiling first.
        for _ in 0..300 {
            p.next_quantum(0);
        }
        assert_eq!(p.current(), SimDuration::from_micros(1000));
        // 1000 µs × 0.02 = 20 µs, then 0.4 µs → clamped to 1 µs.
        assert_eq!(p.next_quantum(1), SimDuration::from_micros(20));
        assert_eq!(p.next_quantum(1), SimDuration::from_micros(1));
        assert_eq!(p.shrink_count(), 2);
        assert_eq!(p.quiet_streak(), 0);
    }

    #[test]
    fn floor_reached_in_two_or_three_quanta_as_paper_claims() {
        // dec ≈ 1/√1000 → two shrinks: 1000 → 31.6 → 1.0 (floor).
        let cfg = AdaptiveConfig::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(1000),
            1.03,
            1.0 / (1000.0f64).sqrt(),
        );
        let mut p = AdaptiveQuantum::new(cfg);
        for _ in 0..400 {
            p.next_quantum(0);
        }
        let mut shrinks = 0;
        while p.current() > cfg.min_quantum {
            p.next_quantum(1);
            shrinks += 1;
            assert!(shrinks <= 3, "took more than 3 shrinks to hit the floor");
        }
        assert!(shrinks >= 2);
    }

    #[test]
    fn never_leaves_bounds() {
        let mut p = AdaptiveQuantum::paper_dyn1();
        for i in 0..10_000u64 {
            let q = p.next_quantum(if i % 7 == 0 { i } else { 0 });
            assert!(q >= SimDuration::from_micros(1) && q <= SimDuration::from_micros(1000));
        }
    }

    #[test]
    fn reset_restores_floor() {
        let mut p = AdaptiveQuantum::paper_dyn1();
        for _ in 0..50 {
            p.next_quantum(0);
        }
        p.reset();
        assert_eq!(p.current(), SimDuration::from_micros(1));
        assert_eq!(p.quiet_streak(), 0);
        assert_eq!(p.shrink_count(), 0);
    }

    #[test]
    fn quanta_to_ceiling_matches_growth() {
        let cfg = AdaptiveConfig::paper_dyn1();
        let mut p = AdaptiveQuantum::new(cfg);
        let mut n = 0;
        while p.current() < cfg.max_quantum {
            p.next_quantum(0);
            n += 1;
        }
        let predicted = cfg.quanta_to_ceiling();
        assert!(
            (n as i64 - predicted as i64).abs() <= 1,
            "measured {n}, predicted {predicted}"
        );
    }

    #[test]
    fn dec_for_floor_in_is_exact() {
        let min = SimDuration::from_micros(1);
        let max = SimDuration::from_micros(1000);
        let dec = AdaptiveConfig::dec_for_floor_in(min, max, 2);
        // Two applications land exactly on the floor.
        let after_two = 1_000_000.0 * dec * dec;
        assert!((after_two - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn label_mentions_both_factors() {
        assert_eq!(AdaptiveQuantum::paper_dyn1().label(), "dyn 1.03:0.02");
        assert_eq!(AdaptiveQuantum::paper_dyn2().label(), "dyn 1.05:0.02");
    }

    #[test]
    #[should_panic(expected = "inc must be > 1")]
    fn non_growing_inc_rejected() {
        let _ = AdaptiveConfig::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(10),
            1.0,
            0.5,
        );
    }

    #[test]
    #[should_panic(expected = "dec must be in (0,1)")]
    fn bad_dec_rejected() {
        let _ = AdaptiveConfig::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(10),
            1.05,
            1.0,
        );
    }

    proptest! {
        /// For any np sequence, the quantum stays within bounds and reacts
        /// in the right direction.
        #[test]
        fn algorithm_invariants(nps in prop::collection::vec(0u64..5, 1..500)) {
            let cfg = AdaptiveConfig::paper_dyn1();
            let mut p = AdaptiveQuantum::new(cfg);
            let mut prev = p.current();
            for np in nps {
                let q = p.next_quantum(np);
                prop_assert!(q >= cfg.min_quantum && q <= cfg.max_quantum);
                if np == 0 {
                    prop_assert!(q >= prev, "quiet quantum must not shrink");
                } else {
                    prop_assert!(q <= prev, "busy quantum must not grow");
                }
                prev = q;
            }
        }
    }
}
