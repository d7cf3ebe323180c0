//! Host-execution cost model: how much wall-clock the node simulator burns.
//!
//! The paper's speedups are ratios of *host* wall-clock between
//! configurations running on the same machine. Since we replace the physical
//! host with a model, this module defines that model explicitly:
//!
//! * simulating one nanosecond of active guest time costs
//!   `base_slowdown × jitter` host nanoseconds;
//! * *idle* guest time (a blocked MPI receive spinning in the OS idle loop)
//!   is fast-forwarded at `idle_factor` of the active cost — SimNow-style
//!   HLT skipping, and the reason a time-dilated run is not proportionally
//!   slower to simulate;
//! * `jitter` is resampled every quantum as `exp(drift + noise)`: white
//!   log-normal noise on top of a slowly drifting AR(1) component. This is
//!   the dynamic speed heterogeneity the paper describes ("the clocks …
//!   will also have dynamically changing speeds"), and it is what creates
//!   stragglers.

use aqs_rng::{Ar1, Rng, RngState};
use aqs_time::{HostDuration, SimDuration};

/// Static parameters of the host cost model (shared by all nodes).
///
/// # Examples
///
/// ```
/// use aqs_node::HostModel;
/// let m = HostModel::default();
/// assert!((m.base_slowdown() - 30.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostModel {
    /// Host nanoseconds per active simulated nanosecond (median).
    base_slowdown: f64,
    /// Cost multiplier for idle simulated time, in `(0, 1]`.
    idle_factor: f64,
    /// Sigma of the white per-quantum log-normal jitter.
    jitter_sigma: f64,
    /// AR(1) persistence of the slow log-speed drift.
    drift_phi: f64,
    /// AR(1) innovation sigma.
    drift_sigma: f64,
}

impl HostModel {
    /// Creates a host model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range (see field docs).
    pub fn new(
        base_slowdown: f64,
        idle_factor: f64,
        jitter_sigma: f64,
        drift_phi: f64,
        drift_sigma: f64,
    ) -> Self {
        assert!(
            base_slowdown.is_finite() && base_slowdown > 0.0,
            "base_slowdown must be positive, got {base_slowdown}"
        );
        assert!(
            idle_factor.is_finite() && idle_factor > 0.0 && idle_factor <= 1.0,
            "idle_factor must be in (0, 1], got {idle_factor}"
        );
        assert!(
            jitter_sigma.is_finite() && jitter_sigma >= 0.0,
            "jitter_sigma must be >= 0"
        );
        assert!(
            (0.0..1.0).contains(&drift_phi),
            "drift_phi must be in [0, 1)"
        );
        assert!(
            drift_sigma.is_finite() && drift_sigma >= 0.0,
            "drift_sigma must be >= 0"
        );
        Self {
            base_slowdown,
            idle_factor,
            jitter_sigma,
            drift_phi,
            drift_sigma,
        }
    }

    /// A host model with **no jitter at all** — every node simulates at
    /// exactly the same speed. Useful for tests: with equal speeds no
    /// straggler can ever form (Figure 3(a), the "normal case").
    pub fn uniform(base_slowdown: f64, idle_factor: f64) -> Self {
        Self::new(base_slowdown, idle_factor, 0.0, 0.0, 0.0)
    }

    /// Median host-ns per active sim-ns.
    #[inline]
    pub fn base_slowdown(&self) -> f64 {
        self.base_slowdown
    }

    /// Idle fast-forward factor.
    #[inline]
    pub fn idle_factor(&self) -> f64 {
        self.idle_factor
    }

    /// White jitter sigma.
    #[inline]
    pub fn jitter_sigma(&self) -> f64 {
        self.jitter_sigma
    }
}

impl Default for HostModel {
    /// The calibrated defaults from DESIGN.md §6: 30× slowdown, 2 % idle
    /// cost, σ = 0.12 white jitter with a φ = 0.9, σ = 0.06 drift.
    fn default() -> Self {
        Self::new(30.0, 0.02, 0.12, 0.9, 0.06)
    }
}

/// Per-node dynamic speed state.
///
/// # Examples
///
/// ```
/// use aqs_node::{HostModel, HostSpeed};
/// use aqs_rng::Rng;
/// use aqs_time::SimDuration;
///
/// let mut speed = HostSpeed::new(HostModel::default(), Rng::substream(1, 0));
/// speed.resample();
/// let cost = speed.host_cost(SimDuration::from_micros(1), false).unwrap();
/// assert!(cost.as_nanos() > 0);
/// assert!(speed.host_cost(SimDuration::MAX, false).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct HostSpeed {
    model: HostModel,
    drift: Ar1,
    rng: Rng,
    /// Current multiplicative jitter (median 1.0).
    jitter: f64,
}

impl HostSpeed {
    /// Creates the speed state for one node with its private RNG substream.
    pub fn new(model: HostModel, rng: Rng) -> Self {
        Self {
            model,
            drift: Ar1::new(0.0, model.drift_phi, model.drift_sigma),
            rng,
            jitter: 1.0,
        }
    }

    /// Resamples the per-quantum jitter (call at every quantum start).
    pub fn resample(&mut self) {
        let drift = self.drift.step(&mut self.rng);
        let white = self.rng.normal_with(0.0, self.model.jitter_sigma);
        self.jitter = (drift + white).exp();
    }

    /// The current multiplicative jitter: what the last [`Self::resample`]
    /// drew.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Installs a jitter that [`Self::resample`] drew on a clone of this
    /// stream, leaving this one's RNG and drift where they are.
    pub fn set_jitter(&mut self, jitter: f64) {
        self.jitter = jitter;
    }

    /// Current slowdown: host-ns per active sim-ns.
    pub fn slowdown(&self) -> f64 {
        self.model.base_slowdown * self.jitter
    }

    /// Host cost of simulating `sim` of guest time in the current quantum,
    /// or `None` when it exceeds what a [`HostDuration`] can hold.
    ///
    /// `idle` marks guest-idle spans, which are fast-forwarded.
    pub fn host_cost(&self, sim: SimDuration, idle: bool) -> Option<HostDuration> {
        let factor = if idle {
            self.slowdown() * self.model.idle_factor()
        } else {
            self.slowdown()
        };
        let nanos = (sim.as_nanos() as f64 * factor).round();
        // `u64::MAX as f64` is 2^64, itself out of range.
        (nanos < u64::MAX as f64).then(|| HostDuration::from_nanos(nanos as u64))
    }

    /// The static model.
    pub fn model(&self) -> &HostModel {
        &self.model
    }

    /// Captures the dynamic speed state — RNG position, AR(1) drift value,
    /// and the current jitter — for a quantum-edge snapshot.
    pub fn export_state(&self) -> HostSpeedState {
        HostSpeedState {
            rng: self.rng.state(),
            drift_value: self.drift.value(),
            jitter: self.jitter,
        }
    }

    /// Rebuilds the speed state captured by [`Self::export_state`] under the
    /// same (configuration-derived) model. Returns `None` when the RNG state
    /// words are invalid, i.e. the snapshot bytes are corrupt.
    pub fn from_state(model: HostModel, state: HostSpeedState) -> Option<Self> {
        let mut drift = Ar1::new(0.0, model.drift_phi, model.drift_sigma);
        drift.set_value(state.drift_value);
        Some(Self {
            model,
            drift,
            rng: Rng::from_state(state.rng)?,
            jitter: state.jitter,
        })
    }
}

/// The dynamic part of a [`HostSpeed`] — everything [`HostSpeed::resample`]
/// reads or writes. The static [`HostModel`] is reconstructed from
/// configuration on resume and deliberately not part of this state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostSpeedState {
    /// The node's private RNG stream position.
    pub rng: RngState,
    /// Current AR(1) log-speed drift value.
    pub drift_value: f64,
    /// Current multiplicative jitter.
    pub jitter: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model_never_jitters() {
        let mut s = HostSpeed::new(HostModel::uniform(30.0, 0.02), Rng::substream(42, 0));
        for _ in 0..50 {
            s.resample();
            assert!((s.slowdown() - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn active_cost_scales_by_slowdown() {
        let s = HostSpeed::new(HostModel::uniform(30.0, 0.02), Rng::substream(1, 0));
        let cost = s.host_cost(SimDuration::from_micros(1), false);
        assert_eq!(cost, Some(HostDuration::from_micros(30)));
    }

    #[test]
    fn idle_cost_is_fast_forwarded() {
        let s = HostSpeed::new(HostModel::uniform(30.0, 0.02), Rng::substream(1, 0));
        let active = s.host_cost(SimDuration::from_micros(100), false).unwrap();
        let idle = s.host_cost(SimDuration::from_micros(100), true).unwrap();
        assert_eq!(idle.as_nanos() * 50, active.as_nanos());
    }

    #[test]
    fn jitter_median_is_near_base() {
        let mut s = HostSpeed::new(HostModel::default(), Rng::substream(7, 3));
        let mut vals: Vec<f64> = Vec::new();
        for _ in 0..20_001 {
            s.resample();
            vals.push(s.slowdown());
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        // The AR(1) drift widens the distribution but the median stays near
        // the base slowdown.
        assert!((median / 30.0 - 1.0).abs() < 0.15, "median {median}");
    }

    #[test]
    fn different_substreams_diverge() {
        let model = HostModel::default();
        let mut a = HostSpeed::new(model, Rng::substream(5, 0));
        let mut b = HostSpeed::new(model, Rng::substream(5, 1));
        a.resample();
        b.resample();
        assert_ne!(a.slowdown(), b.slowdown());
    }

    #[test]
    fn same_substream_is_deterministic() {
        let model = HostModel::default();
        let mut a = HostSpeed::new(model, Rng::substream(5, 2));
        let mut b = HostSpeed::new(model, Rng::substream(5, 2));
        for _ in 0..100 {
            a.resample();
            b.resample();
            assert_eq!(a.slowdown(), b.slowdown());
        }
    }

    #[test]
    #[should_panic(expected = "idle_factor")]
    fn bad_idle_factor_rejected() {
        let _ = HostModel::new(30.0, 0.0, 0.1, 0.5, 0.1);
    }

    /// What drawing ahead on another thread rests on: every `resample`
    /// consumes exactly one Box–Muller pair (the drift's normal and the
    /// white normal) and banks no spare deviate, so a node's k-th jitter
    /// depends on nothing but its stream and k.
    #[test]
    fn resample_draws_one_box_muller_pair() {
        for model in [HostModel::default(), HostModel::uniform(30.0, 0.02)] {
            let mut s = HostSpeed::new(model, Rng::substream(3, 5));
            for _ in 0..100 {
                let mut words = Rng::from_state(s.export_state().rng).expect("valid state");
                words.next_u64();
                words.next_u64();
                s.resample();
                let after = s.export_state().rng;
                assert_eq!(after.spare_normal, None);
                assert_eq!(after.s, words.state().s);
            }
        }
    }

    #[test]
    fn speed_state_round_trip_resumes_the_jitter_stream() {
        let model = HostModel::default();
        let mut live = HostSpeed::new(model, Rng::substream(9, 4));
        for _ in 0..17 {
            live.resample();
        }
        let state = live.export_state();
        let mut resumed = HostSpeed::from_state(model, state).expect("valid state");
        assert_eq!(live.slowdown(), resumed.slowdown());
        for _ in 0..50 {
            live.resample();
            resumed.resample();
            assert_eq!(live.slowdown(), resumed.slowdown());
        }
    }
}
