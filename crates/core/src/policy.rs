//! The policy trait and the serializable configuration enum.

use crate::adaptive::{AdaptiveConfig, AdaptiveQuantum};
use crate::ext::{EwmaAdaptive, ThresholdAdaptive};
use crate::fixed::FixedQuantum;
use crate::predictive::{PredictiveConfig, PredictiveQuantum};
use aqs_time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Decides the length of each synchronization quantum.
///
/// The network controller calls [`next_quantum`](Self::next_quantum) at
/// every barrier with `np`, the number of packets routed during the quantum
/// that just ended; the returned duration is the length of the next quantum.
///
/// Implementations must be deterministic: the next quantum may depend only
/// on the policy's own state and the observed `np` sequence.
pub trait QuantumPolicy: fmt::Debug + Send {
    /// Length of the very first quantum.
    fn initial_quantum(&self) -> SimDuration;

    /// Observes the packet count of the quantum that just ended and returns
    /// the next quantum length.
    fn next_quantum(&mut self, np: u64) -> SimDuration;

    /// Short human label for tables and charts (e.g. `"100"` for a fixed
    /// 100 µs quantum, `"dyn 1.03:0.02"` for the paper's first adaptive
    /// configuration).
    fn label(&self) -> String;

    /// Restores the initial state, so one policy value can drive several
    /// runs.
    fn reset(&mut self);

    /// Serializes the policy's mutable state as opaque words, for a
    /// quantum-edge snapshot. Floating-point state is encoded via
    /// `f64::to_bits` so the round trip is exact. Stateless policies return
    /// an empty vector (the default).
    fn save_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state captured by [`Self::save_state`] on a freshly built
    /// policy of the same configuration. Rejects a word count that does not
    /// match what `save_state` produces (a corrupt or mismatched snapshot).
    fn load_state(&mut self, state: &[u64]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "stateless policy `{}` given {} state words",
                self.label(),
                state.len()
            ))
        }
    }
}

/// Serializable description of a synchronization policy.
///
/// Experiment configurations carry a `SyncConfig`; the engine builds the
/// stateful [`QuantumPolicy`] from it at run start, so repeated runs never
/// share mutable state.
///
/// # Examples
///
/// ```
/// use aqs_core::SyncConfig;
/// use aqs_time::SimDuration;
///
/// let cfg = SyncConfig::fixed_micros(100);
/// let policy = cfg.build();
/// assert_eq!(policy.initial_quantum(), SimDuration::from_micros(100));
/// assert_eq!(policy.label(), "100");
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SyncConfig {
    /// Fixed quantum (the paper's baselines: 1, 10, 100, 1000 µs).
    Fixed(SimDuration),
    /// The paper's Algorithm 1.
    Adaptive(AdaptiveConfig),
    /// Shrink only when `np` exceeds a threshold (ablation).
    Threshold {
        /// Underlying adaptive parameters.
        config: AdaptiveConfig,
        /// Minimum packet count that triggers a shrink.
        threshold: u64,
    },
    /// EWMA-smoothed packet signal (ablation).
    Ewma {
        /// Underlying adaptive parameters.
        config: AdaptiveConfig,
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// Phase-predicting lookahead estimation (extension; see
    /// [`PredictiveQuantum`]).
    Predictive(PredictiveConfig),
}

impl SyncConfig {
    /// Fixed quantum of `us` microseconds.
    pub fn fixed_micros(us: u64) -> Self {
        SyncConfig::Fixed(SimDuration::from_micros(us))
    }

    /// The paper's ground-truth configuration: fixed 1 µs (safe bound for
    /// the paper's 1 µs minimum network latency).
    pub fn ground_truth() -> Self {
        Self::fixed_micros(1)
    }

    /// The paper's `dyn 1` configuration (3 % growth).
    pub fn paper_dyn1() -> Self {
        SyncConfig::Adaptive(AdaptiveConfig::paper_dyn1())
    }

    /// The paper's `dyn 2` configuration (5 % growth).
    pub fn paper_dyn2() -> Self {
        SyncConfig::Adaptive(AdaptiveConfig::paper_dyn2())
    }

    /// Builds the stateful policy.
    pub fn build(&self) -> Box<dyn QuantumPolicy> {
        match self {
            SyncConfig::Fixed(q) => Box::new(FixedQuantum::new(*q)),
            SyncConfig::Adaptive(cfg) => Box::new(AdaptiveQuantum::new(*cfg)),
            SyncConfig::Threshold { config, threshold } => {
                Box::new(ThresholdAdaptive::new(*config, *threshold))
            }
            SyncConfig::Ewma { config, alpha } => Box::new(EwmaAdaptive::new(*config, *alpha)),
            SyncConfig::Predictive(cfg) => Box::new(PredictiveQuantum::new(*cfg)),
        }
    }

    /// The label the built policy will report.
    pub fn label(&self) -> String {
        self.build().label()
    }
}

/// The one grammar for a policy string, shared by the CLI, scenario files
/// and the job server:
/// `truth | fixed:<µs> | dyn1 | dyn2 | dyn:<min_µs>:<max_µs>:<inc>:<dec> | pred`.
/// A zero quantum, one that overflows the nanosecond clock and adaptive
/// factors out of range are errors here, so no caller can reach the
/// constructors' panics with user input.
///
/// # Examples
///
/// ```
/// use aqs_core::SyncConfig;
///
/// assert_eq!("fixed:10".parse(), Ok(SyncConfig::fixed_micros(10)));
/// assert_eq!("dyn:1:1000:1.03:0.02".parse(), Ok(SyncConfig::paper_dyn1()));
/// assert!("fixed:0".parse::<SyncConfig>().unwrap_err().contains("nonzero"));
/// ```
impl FromStr for SyncConfig {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        fn micros(what: &str, text: &str) -> Result<SimDuration, String> {
            let us: u64 = text
                .parse()
                .map_err(|_| format!("bad {what} `{text}` (whole microseconds)"))?;
            match us.checked_mul(1_000) {
                Some(0) => Err(format!("the {what} must be nonzero")),
                Some(ns) => Ok(SimDuration::from_nanos(ns)),
                None => Err(format!("{what} `{text}` µs overflows the nanosecond clock")),
            }
        }
        fn factor(what: &str, text: &str) -> Result<f64, String> {
            text.parse()
                .map_err(|_| format!("bad {what} factor `{text}`"))
        }
        match *spec.split(':').collect::<Vec<_>>() {
            ["truth"] => Ok(SyncConfig::ground_truth()),
            ["dyn1"] => Ok(SyncConfig::paper_dyn1()),
            ["dyn2"] => Ok(SyncConfig::paper_dyn2()),
            ["pred"] => Ok(SyncConfig::Predictive(PredictiveConfig::default_1_1000())),
            ["fixed", us] => Ok(SyncConfig::Fixed(micros("fixed quantum", us)?)),
            ["dyn", min, max, inc, dec] => AdaptiveConfig::try_new(
                micros("minimum quantum", min)?,
                micros("maximum quantum", max)?,
                factor("inc", inc)?,
                factor("dec", dec)?,
            )
            .map(SyncConfig::Adaptive),
            _ => Err(format!(
                "unknown policy `{spec}` (expected truth | fixed:<µs> | dyn1 | dyn2 | \
                 dyn:<min_µs>:<max_µs>:<inc>:<dec> | pred)"
            )),
        }
    }
}

impl fmt::Display for SyncConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_grammar_accepts_and_rejects() {
        let dyn1 = SyncConfig::paper_dyn1();
        let accepted = [
            ("truth", SyncConfig::ground_truth()),
            ("fixed:1", SyncConfig::ground_truth()),
            ("fixed:1000", SyncConfig::fixed_micros(1000)),
            // The largest quantum the nanosecond clock can hold.
            (
                "fixed:18446744073709551",
                SyncConfig::fixed_micros(18_446_744_073_709_551),
            ),
            ("dyn1", dyn1.clone()),
            ("dyn2", SyncConfig::paper_dyn2()),
            ("dyn:1:1000:1.03:0.02", dyn1),
            (
                "dyn:5:5:2:0.5",
                SyncConfig::Adaptive(AdaptiveConfig::new(
                    SimDuration::from_micros(5),
                    SimDuration::from_micros(5),
                    2.0,
                    0.5,
                )),
            ),
            (
                "pred",
                SyncConfig::Predictive(PredictiveConfig::default_1_1000()),
            ),
        ];
        for (text, want) in accepted {
            let parsed: SyncConfig = text.parse().expect(text);
            assert_eq!(parsed, want, "{text}");
            // Whatever parses also builds: no constructor panic is reachable.
            assert!(!parsed.build().initial_quantum().is_zero(), "{text}");
        }
        let rejected = [
            ("", "unknown policy"),
            ("Truth", "unknown policy"),
            ("dyn3", "unknown policy"),
            ("pred:1", "unknown policy"),
            ("fixed", "unknown policy"),
            ("fixed:10:20", "unknown policy"),
            ("dyn:1:1000:1.03", "unknown policy"),
            ("fixed:", "bad fixed quantum"),
            ("fixed:-3", "bad fixed quantum"),
            ("fixed:1.5", "bad fixed quantum"),
            ("fixed:0", "fixed quantum must be nonzero"),
            ("fixed:18446744073709552", "overflows"),
            ("fixed:18446744073709551615", "overflows"),
            ("fixed:18446744073709551616", "bad fixed quantum"),
            ("dyn:0:1000:1.03:0.02", "minimum quantum must be nonzero"),
            ("dyn:1:0:1.03:0.02", "maximum quantum must be nonzero"),
            ("dyn:1:18446744073709551615:1.03:0.02", "overflows"),
            ("dyn:10:5:1.03:0.02", "must not exceed"),
            ("dyn:1:1000:1.0:0.02", "inc must be > 1"),
            ("dyn:1:1000:inf:0.02", "inc must be > 1"),
            ("dyn:1:1000:x:0.02", "bad inc factor"),
            ("dyn:1:1000:1.03:1", "dec must be in (0,1)"),
            ("dyn:1:1000:1.03:NaN", "dec must be in (0,1)"),
            ("dyn:1:1000:1.03:", "bad dec factor"),
        ];
        for (text, reason) in rejected {
            let err = text.parse::<SyncConfig>().expect_err(text);
            assert!(err.contains(reason), "{text}: {err}");
        }
    }

    #[test]
    fn build_fixed() {
        let p = SyncConfig::fixed_micros(10).build();
        assert_eq!(p.initial_quantum(), SimDuration::from_micros(10));
    }

    #[test]
    fn ground_truth_is_one_micro() {
        assert_eq!(
            SyncConfig::ground_truth().build().initial_quantum(),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn build_paper_dyns() {
        let p1 = SyncConfig::paper_dyn1().build();
        let p2 = SyncConfig::paper_dyn2().build();
        assert_eq!(p1.initial_quantum(), SimDuration::from_micros(1));
        assert_eq!(p2.initial_quantum(), SimDuration::from_micros(1));
        assert_ne!(p1.label(), p2.label());
    }

    #[test]
    fn display_matches_label() {
        let cfg = SyncConfig::paper_dyn1();
        assert_eq!(cfg.to_string(), cfg.label());
    }

    #[test]
    fn build_predictive() {
        let p = SyncConfig::Predictive(PredictiveConfig::default_1_1000()).build();
        assert_eq!(p.initial_quantum(), SimDuration::from_micros(1));
        assert!(p.label().starts_with("pred"));
    }

    #[test]
    fn save_load_state_resumes_every_policy_mid_stream() {
        let configs = [
            SyncConfig::fixed_micros(10),
            SyncConfig::paper_dyn1(),
            SyncConfig::Threshold {
                config: AdaptiveConfig::paper_dyn1(),
                threshold: 2,
            },
            SyncConfig::Ewma {
                config: AdaptiveConfig::paper_dyn2(),
                alpha: 0.5,
            },
            SyncConfig::Predictive(PredictiveConfig::default_1_1000()),
        ];
        let traffic: Vec<u64> = (0..40).map(|i| [0, 0, 3, 0, 0, 0, 7, 0][i % 8]).collect();
        for cfg in &configs {
            let mut live = cfg.build();
            for &np in &traffic[..25] {
                live.next_quantum(np);
            }
            let saved = live.save_state();
            let mut resumed = cfg.build();
            resumed.load_state(&saved).expect("state loads");
            for &np in &traffic[25..] {
                assert_eq!(
                    live.next_quantum(np),
                    resumed.next_quantum(np),
                    "policy {} diverged after resume",
                    cfg.label()
                );
            }
        }
    }

    #[test]
    fn wrong_state_word_count_is_rejected() {
        let mut p = SyncConfig::paper_dyn1().build();
        assert!(p.load_state(&[1, 2]).is_err());
        let mut f = SyncConfig::fixed_micros(1).build();
        assert!(f.load_state(&[1]).is_err());
        assert!(f.load_state(&[]).is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = SyncConfig::paper_dyn2();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SyncConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
