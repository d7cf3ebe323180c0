//! A phase-predicting quantum policy — probing the paper's lookahead
//! discussion.
//!
//! §3 argues that classical PDES lookahead cannot be *reliably* computed
//! for a full-system cluster simulator ("there is no perfect way of
//! correctly determining if there is not going to be another packet"), and
//! the paper's Algorithm 1 therefore assumes nothing: it regrows the
//! quantum from the floor after every burst, paying a few hundred quanta
//! of "acceleration runway" each time.
//!
//! [`PredictiveQuantum`] asks how much that humility costs: it *estimates*
//! lookahead from history — an exponentially weighted average of observed
//! quiet-gap lengths — and after a burst ends jumps the quantum straight
//! to a fraction of the predicted gap instead of creeping up at 2–5 %. On
//! strictly periodic applications (most HPC codes) this recovers most of
//! the runway; when the prediction is wrong, the packets that land inside
//! the oversized quantum become stragglers — exactly the unreliability the
//! paper warns about. The `ext_policies` benchmark quantifies both sides.

use crate::policy::QuantumPolicy;
use aqs_time::SimDuration;

/// Parameters of the predictive policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictiveConfig {
    /// Quantum floor (also used while traffic is flowing).
    pub min_quantum: SimDuration,
    /// Quantum ceiling.
    pub max_quantum: SimDuration,
    /// Fraction of the predicted quiet gap to jump to, in `(0, 1]`.
    /// Smaller is safer: the tail of the gap is traversed at the floor.
    pub safety: f64,
    /// EWMA smoothing for the gap estimate, in `(0, 1]`.
    pub alpha: f64,
}

impl PredictiveConfig {
    /// Creates and validates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if bounds are invalid or `safety`/`alpha` are outside
    /// `(0, 1]`.
    pub fn new(
        min_quantum: SimDuration,
        max_quantum: SimDuration,
        safety: f64,
        alpha: f64,
    ) -> Self {
        assert!(!min_quantum.is_zero(), "min_quantum must be positive");
        assert!(
            min_quantum <= max_quantum,
            "min_quantum must not exceed max_quantum"
        );
        assert!(
            safety > 0.0 && safety <= 1.0,
            "safety must be in (0,1], got {safety}"
        );
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        Self {
            min_quantum,
            max_quantum,
            safety,
            alpha,
        }
    }

    /// The defaults used by the extension benchmarks: 1–1000 µs, jump to
    /// half the predicted gap, EWMA α = 0.25.
    pub fn default_1_1000() -> Self {
        Self::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(1000),
            0.5,
            0.25,
        )
    }
}

/// Quantum policy that predicts quiet-gap lengths from history.
///
/// State machine: while packets flow, hold the floor quantum and measure.
/// When a quantum comes back quiet, jump to `safety × predicted_gap`
/// (clamped), then fall back to the floor at the next packet and fold the
/// measured gap into the EWMA.
///
/// # Examples
///
/// ```
/// use aqs_core::{PredictiveConfig, PredictiveQuantum, QuantumPolicy};
/// use aqs_time::SimDuration;
///
/// let mut p = PredictiveQuantum::new(PredictiveConfig::default_1_1000());
/// // A burst, then silence: the first quiet quantum already jumps well
/// // past the floor once a gap has been learned.
/// for _ in 0..3 { p.next_quantum(5); }
/// for _ in 0..2000 { p.next_quantum(0); }  // learn a long gap
/// p.next_quantum(7);                        // burst ends the gap
/// let jump = p.next_quantum(0);             // quiet again: predicted jump
/// assert!(jump > SimDuration::from_micros(100));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PredictiveQuantum {
    config: PredictiveConfig,
    current_ns: f64,
    /// EWMA of quiet-gap lengths (ns); `None` until the first gap closes.
    predicted_gap_ns: Option<f64>,
    /// Quiet time accumulated since the last busy quantum.
    open_gap_ns: f64,
    in_gap: bool,
}

impl PredictiveQuantum {
    /// Creates the policy at its floor quantum.
    pub fn new(config: PredictiveConfig) -> Self {
        Self {
            config,
            current_ns: config.min_quantum.as_nanos() as f64,
            predicted_gap_ns: None,
            open_gap_ns: 0.0,
            in_gap: false,
        }
    }

    /// The current gap prediction, if one has been learned.
    pub fn predicted_gap(&self) -> Option<SimDuration> {
        self.predicted_gap_ns
            .map(|ns| SimDuration::from_nanos(ns.round() as u64))
    }

    fn clamp(&mut self) {
        let min = self.config.min_quantum.as_nanos() as f64;
        let max = self.config.max_quantum.as_nanos() as f64;
        self.current_ns = self.current_ns.clamp(min, max);
    }
}

impl QuantumPolicy for PredictiveQuantum {
    fn initial_quantum(&self) -> SimDuration {
        self.config.min_quantum
    }

    fn next_quantum(&mut self, np: u64) -> SimDuration {
        if np > 0 {
            // A burst: close any open gap and fold it into the estimate.
            if self.in_gap && self.open_gap_ns > 0.0 {
                let a = self.config.alpha;
                self.predicted_gap_ns = Some(match self.predicted_gap_ns {
                    None => self.open_gap_ns,
                    Some(prev) => a * self.open_gap_ns + (1.0 - a) * prev,
                });
            }
            self.in_gap = false;
            self.open_gap_ns = 0.0;
            self.current_ns = self.config.min_quantum.as_nanos() as f64;
        } else {
            // Quiet: the quantum that just passed extends the open gap.
            self.open_gap_ns += self.current_ns;
            if !self.in_gap {
                self.in_gap = true;
                // Jump to the predicted remaining quiet span.
                if let Some(gap) = self.predicted_gap_ns {
                    self.current_ns = gap * self.config.safety;
                }
            } else {
                // Past the prediction: creep like the paper's algorithm so
                // an underestimate still recovers.
                self.current_ns *= 1.05;
            }
        }
        self.clamp();
        SimDuration::from_nanos(self.current_ns.round() as u64)
    }

    fn label(&self) -> String {
        format!("pred {:.2}:{:.2}", self.config.safety, self.config.alpha)
    }

    fn save_state(&self) -> Vec<u64> {
        vec![
            self.current_ns.to_bits(),
            u64::from(self.predicted_gap_ns.is_some()),
            self.predicted_gap_ns.unwrap_or(0.0).to_bits(),
            self.open_gap_ns.to_bits(),
            u64::from(self.in_gap),
        ]
    }

    fn load_state(&mut self, state: &[u64]) -> Result<(), String> {
        let [current, has_gap, gap, open_gap, in_gap] = state else {
            return Err(format!(
                "predictive policy expects 5 state words, got {}",
                state.len()
            ));
        };
        if *has_gap > 1 || *in_gap > 1 {
            return Err("predictive policy: boolean state word out of range".to_string());
        }
        self.current_ns = f64::from_bits(*current);
        self.predicted_gap_ns = (*has_gap == 1).then(|| f64::from_bits(*gap));
        self.open_gap_ns = f64::from_bits(*open_gap);
        self.in_gap = *in_gap == 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PredictiveConfig {
        PredictiveConfig::default_1_1000()
    }

    #[test]
    fn starts_at_floor_without_history() {
        let mut p = PredictiveQuantum::new(cfg());
        assert_eq!(p.initial_quantum(), SimDuration::from_micros(1));
        assert_eq!(p.predicted_gap(), None);
        // Without a learned gap the first quiet quantum cannot jump.
        let q = p.next_quantum(0);
        assert!(q <= SimDuration::from_micros(2));
    }

    #[test]
    fn learns_gap_and_jumps() {
        let mut p = PredictiveQuantum::new(cfg());
        // Gap of ~200 µs traversed at the floor (200 quiet quanta of 1 µs
        // — no prediction yet, growth at 5 %).
        p.next_quantum(3);
        let mut quiet = SimDuration::ZERO;
        while quiet < SimDuration::from_micros(200) {
            quiet += p.next_quantum(0);
        }
        p.next_quantum(5); // burst closes the gap
                           // The estimate lags the true gap by at most one quantum.
        let learned = p.predicted_gap().expect("gap must be learned");
        assert!(
            learned >= SimDuration::from_micros(150),
            "learned only {learned}"
        );
        // Next quiet quantum jumps to safety × prediction.
        let jump = p.next_quantum(0);
        assert!(jump >= SimDuration::from_micros(70), "jump was only {jump}");
    }

    #[test]
    fn busy_quanta_pin_the_floor() {
        let mut p = PredictiveQuantum::new(cfg());
        for _ in 0..50 {
            assert_eq!(p.next_quantum(4), SimDuration::from_micros(1));
        }
    }

    #[test]
    fn bounds_hold_for_any_sequence() {
        let mut p = PredictiveQuantum::new(cfg());
        for i in 0..10_000u64 {
            let q = p.next_quantum(if i % 97 == 0 { i % 7 } else { 0 });
            assert!(q >= SimDuration::from_micros(1) && q <= SimDuration::from_micros(1000));
        }
    }

    #[test]
    fn ewma_tracks_changing_periods() {
        // Gaps are measured in elapsed simulated time, so drive the policy
        // by time, not by quantum count.
        let run_gap = |p: &mut PredictiveQuantum, gap: SimDuration| {
            let mut quiet = SimDuration::ZERO;
            while quiet < gap {
                quiet += p.next_quantum(0);
            }
            p.next_quantum(1);
        };
        let mut p = PredictiveQuantum::new(cfg());
        for _ in 0..6 {
            run_gap(&mut p, SimDuration::from_micros(50));
        }
        let short = p.predicted_gap().unwrap();
        for _ in 0..10 {
            run_gap(&mut p, SimDuration::from_micros(800));
        }
        let long = p.predicted_gap().unwrap();
        assert!(
            long.as_nanos() as f64 > short.as_nanos() as f64 * 1.5,
            "prediction failed to adapt: {short} → {long}"
        );
    }

    #[test]
    #[should_panic(expected = "safety")]
    fn bad_safety_rejected() {
        let _ = PredictiveConfig::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(10),
            0.0,
            0.5,
        );
    }
}
