//! Experiment driver: baseline + configuration sweep, the way the paper's
//! evaluation is structured.
//!
//! Every experiment runs the same workload once per synchronization
//! configuration, always including the 1 µs ground truth first, and derives
//! the two axes of every figure:
//!
//! * **accuracy error** — relative deviation of the benchmark's
//!   self-reported metric from the ground-truth value (§5: "we use the
//!   application-specific metrics as an estimate for the relative
//!   accuracy");
//! * **speedup** — ratio of modelled host wall-clock, ground truth over
//!   configuration.

use crate::config::ClusterConfig;
use crate::result::RunResult;
use crate::sim::{EngineDetail, Sim, SimError};
use aqs_core::SyncConfig;
use aqs_node::RegionId;
use aqs_time::SimDuration;
use aqs_workloads::{MetricKind, WorkloadSpec};
use std::fmt;

/// A workload's self-reported performance number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AppMetric {
    /// Millions of operations per second over the timed kernel (NAS).
    Mops(f64),
    /// Wall-clock (simulated) duration of the timed kernel (NAMD).
    KernelTime(SimDuration),
}

impl AppMetric {
    /// Relative error of this metric against the ground-truth value.
    ///
    /// # Panics
    ///
    /// Panics if the two metrics are of different kinds.
    pub fn error_vs(&self, baseline: &AppMetric) -> f64 {
        match (self, baseline) {
            (AppMetric::Mops(m), AppMetric::Mops(m0)) => aqs_metrics::relative_error(*m, *m0),
            (AppMetric::KernelTime(t), AppMetric::KernelTime(t0)) => {
                aqs_metrics::relative_error(t.as_nanos() as f64, t0.as_nanos() as f64)
            }
            _ => panic!("cannot compare {self:?} against {baseline:?}"),
        }
    }

    /// The raw scalar value (MOPS, or kernel seconds).
    pub fn value(&self) -> f64 {
        match self {
            AppMetric::Mops(m) => *m,
            AppMetric::KernelTime(t) => t.as_secs_f64(),
        }
    }
}

impl fmt::Display for AppMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppMetric::Mops(m) => write!(f, "{m:.2} MOPS"),
            AppMetric::KernelTime(t) => write!(f, "{t}"),
        }
    }
}

/// Computes a run's self-reported metric per the workload's convention.
///
/// # Panics
///
/// Panics if the run has no closed kernel region.
pub fn app_metric(result: &RunResult, kind: MetricKind) -> AppMetric {
    let span = result
        .region_span(RegionId::KERNEL)
        .expect("workload must close its kernel region");
    match kind {
        MetricKind::Mops => {
            let mops = result.total_ops() as f64 / span.as_secs_f64() / 1e6;
            AppMetric::Mops(mops)
        }
        MetricKind::KernelTime => AppMetric::KernelTime(span),
    }
}

/// Runs one workload under one configuration on the deterministic engine
/// (through [`Sim`], on its default perfect switch).
///
/// # Panics
///
/// As [`Sim::run`]: on an invalid program set or an engine error
/// (deadlocked workload).
pub fn run_workload(spec: &WorkloadSpec, config: &ClusterConfig) -> RunResult {
    try_run_workload(spec, config).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_workload`] for a workload from outside, such as a spec file:
/// whatever [`Sim::try_run`] rejects is an error, not a panic.
pub fn try_run_workload(spec: &WorkloadSpec, cfg: &ClusterConfig) -> Result<RunResult, SimError> {
    let sim = Sim::new(spec.programs.clone()).config(cfg.clone());
    match sim.try_run()?.detail {
        EngineDetail::Deterministic(r) => Ok(*r),
        _ => unreachable!("`Sim` runs the deterministic engine by default"),
    }
}

/// One non-baseline configuration's outcome.
#[derive(Clone, Debug)]
pub struct ConfigOutcome {
    /// The configuration.
    pub sync: SyncConfig,
    /// Its display label.
    pub label: String,
    /// The full run result.
    pub result: RunResult,
    /// The benchmark's self-reported metric.
    pub metric: AppMetric,
    /// Relative error vs. ground truth.
    pub accuracy_error: f64,
    /// Host-time speedup vs. ground truth.
    pub speedup: f64,
    /// Simulated-completion-time ratio vs. ground truth (IS' "simulated
    /// execution ratio").
    pub sim_ratio: f64,
}

/// A full experiment: one workload, the ground truth, and a sweep of
/// configurations.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Base configuration (seed, models); its `sync` field is replaced per
    /// sweep entry, and by the ground truth for the baseline.
    pub base: ClusterConfig,
    /// Configurations to sweep (the baseline is added automatically).
    pub sweep: Vec<SyncConfig>,
}

/// Results of an [`Experiment`].
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Workload name.
    pub name: String,
    /// Node count.
    pub n_nodes: usize,
    /// Ground-truth run.
    pub baseline: RunResult,
    /// Ground-truth metric.
    pub baseline_metric: AppMetric,
    /// One outcome per sweep configuration, in sweep order.
    pub outcomes: Vec<ConfigOutcome>,
}

impl Experiment {
    /// Creates an experiment.
    pub fn new(workload: WorkloadSpec, base: ClusterConfig, sweep: Vec<SyncConfig>) -> Self {
        Self {
            workload,
            base,
            sweep,
        }
    }

    /// Runs the baseline and every sweep configuration.
    ///
    /// # Panics
    ///
    /// Panics on the engine's own failure modes (deadlock, invalid
    /// programs).
    pub fn run(&self) -> ExperimentResult {
        let base_cfg = self.base.clone().with_sync(SyncConfig::ground_truth());
        let baseline = run_workload(&self.workload, &base_cfg);
        let baseline_metric = app_metric(&baseline, self.workload.metric);
        let outcomes = self
            .sweep
            .iter()
            .map(|sync| {
                let cfg = self.base.clone().with_sync(sync.clone());
                let result = run_workload(&self.workload, &cfg);
                let metric = app_metric(&result, self.workload.metric);
                ConfigOutcome {
                    sync: sync.clone(),
                    label: result.sync_label.clone(),
                    accuracy_error: metric.error_vs(&baseline_metric),
                    speedup: result.speedup_vs(&baseline),
                    sim_ratio: result.sim_ratio_vs(&baseline),
                    metric,
                    result,
                }
            })
            .collect();
        ExperimentResult {
            name: self.workload.name.clone(),
            n_nodes: self.workload.n_ranks(),
            baseline,
            baseline_metric,
            outcomes,
        }
    }
}

/// The paper's standard sweep: fixed 10/100/1000 µs plus the two adaptive
/// configurations (Figures 6–8).
pub fn paper_sweep() -> Vec<SyncConfig> {
    vec![
        SyncConfig::fixed_micros(10),
        SyncConfig::fixed_micros(100),
        SyncConfig::fixed_micros(1000),
        SyncConfig::paper_dyn1(),
        SyncConfig::paper_dyn2(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqs_workloads::{burst, ping_pong, uniform_compute};

    fn base() -> ClusterConfig {
        ClusterConfig::new(SyncConfig::ground_truth()).with_seed(3)
    }

    #[test]
    fn metric_kinds_compute() {
        let spec = uniform_compute(2, 2_600_000, 0.0); // 1 ms kernel
        let result = run_workload(&spec, &base());
        let m = app_metric(&result, MetricKind::Mops);
        match m {
            // 5.2M ops over ~1 ms → ~5200 MOPS (minus region overhead).
            AppMetric::Mops(v) => assert!((3000.0..6000.0).contains(&v), "MOPS {v}"),
            _ => panic!("wrong kind"),
        }
        let t = app_metric(&result, MetricKind::KernelTime);
        assert!(matches!(t, AppMetric::KernelTime(d) if d >= SimDuration::from_micros(900)));
    }

    #[test]
    fn error_vs_is_relative() {
        let a = AppMetric::Mops(80.0);
        let b = AppMetric::Mops(100.0);
        assert!((a.error_vs(&b) - 0.2).abs() < 1e-12);
        let t1 = AppMetric::KernelTime(SimDuration::from_micros(150));
        let t0 = AppMetric::KernelTime(SimDuration::from_micros(100));
        assert!((t1.error_vs(&t0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot compare")]
    fn mixed_kinds_rejected() {
        let _ = AppMetric::Mops(1.0).error_vs(&AppMetric::KernelTime(SimDuration::ZERO));
    }

    #[test]
    fn experiment_runs_sweep_in_order() {
        let exp = Experiment::new(
            ping_pong(2, 10, 64),
            base(),
            vec![SyncConfig::fixed_micros(100), SyncConfig::paper_dyn1()],
        );
        let r = exp.run();
        assert_eq!(r.outcomes.len(), 2);
        assert_eq!(r.outcomes[0].label, "100");
        assert_eq!(r.outcomes[1].label, "dyn 1.03:0.02");
        // Latency-bound ping-pong: the loose quantum is fast but wrong.
        assert!(r.outcomes[0].speedup > 1.0);
        assert!(r.outcomes[0].accuracy_error > 0.5);
        assert!(r.outcomes[0].sim_ratio > 1.0);
    }

    #[test]
    fn burst_adaptive_beats_fixed_ground_truth_accuracy_tradeoff() {
        let exp = Experiment::new(
            burst(4, 2_000_000, 2048),
            base(),
            vec![SyncConfig::fixed_micros(1000), SyncConfig::paper_dyn1()],
        );
        let r = exp.run();
        let fixed = &r.outcomes[0];
        let dyn1 = &r.outcomes[1];
        // The adaptive policy should be markedly more accurate than the
        // loose fixed quantum on a bursty workload.
        assert!(
            dyn1.accuracy_error < fixed.accuracy_error,
            "dyn error {} !< fixed error {}",
            dyn1.accuracy_error,
            fixed.accuracy_error
        );
        // And still faster than ground truth.
        assert!(dyn1.speedup > 1.0, "dyn speedup {}", dyn1.speedup);
    }

    #[test]
    fn paper_sweep_has_five_configs() {
        assert_eq!(paper_sweep().len(), 5);
    }
}
