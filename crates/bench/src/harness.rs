//! Experiment-to-text plumbing shared by the figure binaries.

use aqs_cluster::{ClusterConfig, Experiment, ExperimentResult};
use aqs_core::SyncConfig;
use aqs_metrics::{harmonic_mean, render_table};
use aqs_node::CpuModel;
use aqs_time::{HostTime, SimDuration, SimTime};
use aqs_workloads::{with_background_traffic, Scale, WorkloadSpec};

/// The scale a figure binary runs at: its first argument
/// (`tiny | mini | full`), or `default` without one. Anything else is a
/// usage error (exit 2).
pub fn scale_arg(default: Scale) -> Scale {
    std::env::args().nth(1).map_or(default, |name| {
        name.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    })
}

/// One row of a figure's underlying data: a configuration's accuracy error
/// and speedup.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Configuration label.
    pub label: String,
    /// Accuracy error vs. ground truth (fraction).
    pub error: f64,
    /// Speedup vs. ground truth.
    pub speedup: f64,
    /// Simulated execution ratio vs. ground truth.
    pub sim_ratio: f64,
    /// Straggler count.
    pub stragglers: u64,
    /// Quanta executed.
    pub quanta: u64,
}

/// Extracts the rows of an experiment result.
pub fn experiment_table(r: &ExperimentResult) -> Vec<FigureRow> {
    r.outcomes
        .iter()
        .map(|o| FigureRow {
            label: o.label.clone(),
            error: o.accuracy_error,
            speedup: o.speedup,
            sim_ratio: o.sim_ratio,
            stragglers: o.result.stragglers.count(),
            quanta: o.result.total_quanta,
        })
        .collect()
}

/// Prints an experiment as an aligned table.
pub fn print_experiment(r: &ExperimentResult) {
    println!(
        "== {} — {} nodes (baseline: {} in {}, {} quanta) ==",
        r.name, r.n_nodes, r.baseline_metric, r.baseline.host_elapsed, r.baseline.total_quanta
    );
    let rows: Vec<Vec<String>> = experiment_table(r)
        .into_iter()
        .map(|row| {
            vec![
                row.label,
                format!("{:.1}x", row.speedup),
                format!("{:.2}%", row.error * 100.0),
                format!("{:.2}x", row.sim_ratio),
                row.stragglers.to_string(),
                row.quanta.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "config",
                "speedup",
                "acc. error",
                "sim ratio",
                "stragglers",
                "quanta"
            ],
            &rows
        )
    );
}

/// The housekeeping traffic every "guest OS" in the harness emits: one 90 B
/// datagram per node every 160 ms of estimated guest time (≈ ARP/NTP/cron
/// chatter; see DESIGN.md). This is what the paper's Figure 9(a) EP trace
/// shows as sparse packets during compute-only phases.
pub fn with_housekeeping(spec: WorkloadSpec) -> WorkloadSpec {
    with_background_traffic(
        spec,
        SimDuration::from_millis(160),
        90,
        &CpuModel::default(),
    )
}

/// The harness' standard base configuration for a given experiment seed.
pub fn standard_config(seed: u64) -> ClusterConfig {
    ClusterConfig::new(SyncConfig::ground_truth()).with_seed(seed)
}

/// Runs one workload (with housekeeping traffic) through a sweep.
pub fn run_sweep(spec: WorkloadSpec, seed: u64, sweep: Vec<SyncConfig>) -> ExperimentResult {
    Experiment::new(with_housekeeping(spec), standard_config(seed), sweep).run()
}

/// Aggregate of the five NAS benchmarks at one node count, the way the
/// paper aggregates Figure 6: harmonic-mean MOPS per configuration
/// (accuracy), total host time per configuration (speed).
#[derive(Clone, Debug)]
pub struct NasAggregate {
    /// Node count.
    pub n_nodes: usize,
    /// Configuration labels, sweep order.
    pub labels: Vec<String>,
    /// Accuracy error of the harmonic-mean MOPS, per configuration.
    pub errors: Vec<f64>,
    /// Aggregate speedup (total baseline host time / total config host
    /// time), per configuration.
    pub speedups: Vec<f64>,
    /// The per-benchmark experiment results.
    pub per_benchmark: Vec<ExperimentResult>,
}

/// Runs all five NAS-likes at `n` nodes through `sweep` and aggregates.
///
/// # Panics
///
/// Panics if `sweep` is empty.
pub fn nas_aggregate(
    n: usize,
    scale: aqs_workloads::Scale,
    seed: u64,
    sweep: Vec<SyncConfig>,
) -> NasAggregate {
    assert!(!sweep.is_empty(), "sweep must not be empty");
    let results: Vec<ExperimentResult> = aqs_workloads::nas::all(n, scale)
        .into_iter()
        .map(|spec| run_sweep(spec, seed, sweep.clone()))
        .collect();
    let k = sweep.len();
    let labels: Vec<String> = results[0]
        .outcomes
        .iter()
        .map(|o| o.label.clone())
        .collect();
    let base_host: f64 = results
        .iter()
        .map(|r| r.baseline.host_elapsed.as_secs_f64())
        .sum();
    let mut errors = Vec::with_capacity(k);
    let mut speedups = Vec::with_capacity(k);
    for c in 0..k {
        // Normalize each benchmark's MOPS by its own ground truth before the
        // harmonic mean: the synthetic op counts are arbitrary, so without
        // normalization a high-MOPS benchmark's dilation would be hidden.
        let rel: Vec<f64> = results
            .iter()
            .map(|r| r.outcomes[c].metric.value() / r.baseline_metric.value())
            .collect();
        let hmean = harmonic_mean(&rel).expect("five benchmarks");
        errors.push(aqs_metrics::relative_error(hmean, 1.0));
        let host: f64 = results
            .iter()
            .map(|r| r.outcomes[c].result.host_elapsed.as_secs_f64())
            .sum();
        speedups.push(base_host / host);
    }
    NasAggregate {
        n_nodes: n,
        labels,
        errors,
        speedups,
        per_benchmark: results,
    }
}

/// Windowed speedup-over-time for Figure 9's right-hand panels.
///
/// Both runs' progress checkpoints are resampled onto `windows` equal
/// slices of their own simulated span; the speedup of window *i* is the
/// ratio of host time the two runs spent covering their *i*-th slice.
/// Returns `(window_fraction, speedup)` pairs.
///
/// # Panics
///
/// Panics if either progress series has fewer than two points or
/// `windows == 0`.
pub fn speedup_over_time(
    baseline: &[(HostTime, SimTime)],
    config: &[(HostTime, SimTime)],
    windows: usize,
) -> Vec<(f64, f64)> {
    assert!(windows > 0, "need at least one window");
    assert!(
        baseline.len() >= 2 && config.len() >= 2,
        "progress series too short"
    );
    let host_at = |series: &[(HostTime, SimTime)], frac: f64| -> f64 {
        let target = series.last().expect("non-empty").1.as_nanos() as f64 * frac;
        // Linear interpolation over the (sim → host) staircase.
        let mut prev = series[0];
        for &(h, s) in series {
            let (s_f, h_f) = (s.as_nanos() as f64, h.as_nanos() as f64);
            let (ps_f, ph_f) = (prev.1.as_nanos() as f64, prev.0.as_nanos() as f64);
            if s_f >= target {
                if (s_f - ps_f) < 1.0 {
                    return h_f;
                }
                let t = (target - ps_f) / (s_f - ps_f);
                return ph_f + t * (h_f - ph_f);
            }
            prev = (h, s);
        }
        series.last().expect("non-empty").0.as_nanos() as f64
    };
    (0..windows)
        .map(|i| {
            let lo = i as f64 / windows as f64;
            let hi = (i + 1) as f64 / windows as f64;
            let dh_base = host_at(baseline, hi) - host_at(baseline, lo);
            let dh_cfg = (host_at(config, hi) - host_at(config, lo)).max(1.0);
            ((lo + hi) / 2.0, dh_base / dh_cfg)
        })
        .collect()
}

/// Writes rows of tab-separated values under `results/<name>.tsv` so the
/// figures can be re-plotted with external tooling. Creates the directory
/// on first use; failures are reported, not fatal (the ASCII output is the
/// primary artifact).
pub fn write_tsv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!("{name}.tsv"));
    let mut out = String::new();
    out.push_str(&header.join("\t"));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("(data written to {})", path.display());
    }
}

/// Renders a log-y line of `(x, y)` pairs as a compact ASCII panel.
pub fn render_log_series(series: &[(f64, f64)], rows: usize, label: &str) -> String {
    if series.is_empty() {
        return format!("{label}: (no data)\n");
    }
    let y_max = series
        .iter()
        .map(|&(_, y)| y)
        .fold(f64::MIN_POSITIVE, f64::max);
    let y_min = series
        .iter()
        .map(|&(_, y)| y)
        .fold(f64::INFINITY, f64::min)
        .max(1e-3);
    let (ly_min, ly_max) = (y_min.ln(), (y_max.ln()).max(y_min.ln() + 1e-9));
    let cols = series.len();
    let mut grid = vec![vec![' '; cols]; rows];
    for (i, &(_, y)) in series.iter().enumerate() {
        let fy = ((y.max(y_min).ln() - ly_min) / (ly_max - ly_min)) * (rows - 1) as f64;
        let r = rows - 1 - fy.round() as usize;
        grid[r][i] = '●';
    }
    let mut out = format!("{label} (log y: {y_min:.1}x .. {y_max:.1}x)\n");
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(cols));
    out.push_str("> time\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(u64, u64)]) -> Vec<(HostTime, SimTime)> {
        v.iter()
            .map(|&(h, s)| (HostTime::from_nanos(h), SimTime::from_nanos(s)))
            .collect()
    }

    #[test]
    fn speedup_over_time_constant_rates() {
        // Baseline covers sim at 10 host-ns per sim-ns; config at 2.
        let base = pts(&[(0, 0), (1000, 100), (2000, 200)]);
        let cfg = pts(&[(0, 0), (200, 100), (400, 200)]);
        let s = speedup_over_time(&base, &cfg, 4);
        assert_eq!(s.len(), 4);
        for (_, v) in s {
            assert!((v - 5.0).abs() < 0.2, "expected ~5x, got {v}");
        }
    }

    #[test]
    fn speedup_over_time_detects_phase_change() {
        // Config is fast in the first half, slow in the second.
        let base = pts(&[(0, 0), (1000, 100), (2000, 200)]);
        let cfg = pts(&[(0, 0), (100, 100), (1100, 200)]);
        let s = speedup_over_time(&base, &cfg, 2);
        assert!(s[0].1 > 5.0);
        assert!(s[1].1 < 1.5);
    }

    #[test]
    fn render_log_series_is_nonempty() {
        let s = render_log_series(&[(0.1, 1.0), (0.5, 10.0), (0.9, 100.0)], 6, "test");
        assert!(s.contains("test"));
        assert_eq!(s.matches('●').count(), 3);
    }
}
