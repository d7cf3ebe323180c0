//! Figure 9 + §6 tables — 64-node scale-out study (EP, IS, NAMD).
//!
//! For each benchmark this regenerates:
//!
//! * the **left panel**: packet traffic over time (node on y, time on x),
//!   from the ground-truth run's packet log ([`TrafficLog`]);
//! * the **right panel**: speedup over the 1 µs baseline across the run
//!   (log y), from each run's [`ProgressSeries`];
//! * the **§6 table**: acceleration and accuracy/dilation for fixed 100 µs,
//!   fixed 10 µs and the paper's per-benchmark adaptive configuration
//!   (dyn 1:100 for EP/IS, dyn 2:100 for NAMD), with the paper's published
//!   numbers alongside.
//!
//! Usage: `fig9_scaleout [tiny|full]` (full is the figure scale).

use aqs_bench::{
    dyn_config, render_log_series, speedup_over_time, standard_config, with_housekeeping,
    write_tsv, ProgressSeries, TrafficLog,
};
use aqs_cluster::{app_metric, ClusterConfig, EngineDetail, RunResult, Sim};
use aqs_core::SyncConfig;
use aqs_obs::{render_table, render_traffic_density, Recorder};
use aqs_workloads::{MetricKind, NasBench, Scale, Workload, WorkloadSpec};
use std::time::Instant;

/// Paper-published table values for the three benchmarks.
struct PaperRow {
    accel: f64,
    accuracy: &'static str,
}

/// One deterministic run reporting to `rec`.
fn run<R: Recorder>(spec: &WorkloadSpec, cfg: &ClusterConfig, rec: R) -> (RunResult, R) {
    let (report, rec) = Sim::new(spec.programs.clone())
        .config(cfg.clone())
        .run_with_recorder(rec)
        .unwrap_or_else(|e| panic!("{e}"));
    match report.detail {
        EngineDetail::Deterministic(r) => (*r, rec),
        _ => unreachable!("the builder's default engine is the deterministic one"),
    }
}

#[allow(clippy::too_many_arguments)]
fn scaleout(
    spec: WorkloadSpec,
    dyn_cfg: SyncConfig,
    dyn_label: &str,
    paper: &[PaperRow],
    accuracy_fn: impl Fn(&RunResult, &RunResult) -> String,
) {
    let name = spec.name.clone();
    let metric_kind = spec.metric;
    let spec = with_housekeeping(spec);
    let cfg = standard_config(42);
    let progress = || ProgressSeries::new(4096);
    let t0 = Instant::now();
    let (baseline, base_log) = run(&spec, &cfg, TrafficLog::new(progress()));
    let with_sync = |sync| run(&spec, &cfg.clone().with_sync(sync), progress());
    let f100 = with_sync(SyncConfig::fixed_micros(100));
    let f10 = with_sync(SyncConfig::fixed_micros(10));
    let fdyn = with_sync(dyn_cfg);

    println!("\n###### {name} — 64 nodes ######\n");

    // Left panel: packet traffic over time (ground truth).
    let end = baseline.sim_end.as_nanos().max(1) as f64;
    let events: Vec<(f64, usize)> = base_log
        .packets
        .iter()
        .map(|&(time, src, _, _)| ((time.as_nanos() as f64 / end).min(1.0), src))
        .collect();
    println!("--- traffic over time (nodes × time, ground truth) ---");
    println!("{}", render_traffic_density(&events, 64, 96, 16));

    // Right panels: speedup over time, one per configuration (the paper
    // plots the fixed quanta alongside the adaptive one).
    let mut tsv_rows: Vec<Vec<String>> = Vec::new();
    for (label, (_, progress)) in [("Q=100µs", &f100), ("Q=10µs", &f10), (dyn_label, &fdyn)] {
        let series = speedup_over_time(base_log.progress.points(), progress.points(), 72);
        println!(
            "{}",
            render_log_series(
                &series,
                8,
                &format!("--- {label} speedup vs 1µs over time ---")
            )
        );
        for (x, y) in &series {
            tsv_rows.push(vec![
                label.to_string(),
                format!("{x:.4}"),
                format!("{y:.3}"),
            ]);
        }
    }
    write_tsv(
        &format!("fig9_{}_speedup_over_time", name.to_lowercase()),
        &["config", "time_fraction", "speedup"],
        &tsv_rows,
    );
    let traffic_rows: Vec<Vec<String>> = base_log
        .packets
        .iter()
        .map(|&(time, src, dst, bytes)| {
            vec![
                format!("{:.9}", time.as_secs_f64()),
                src.to_string(),
                dst.to_string(),
                bytes.to_string(),
            ]
        })
        .collect();
    write_tsv(
        &format!("fig9_{}_traffic", name.to_lowercase()),
        &["time_s", "src", "dst", "bytes"],
        &traffic_rows,
    );

    // §6 table with the paper's numbers alongside.
    let _ = metric_kind; // per-benchmark accuracy handled by accuracy_fn
    let rows: Vec<(String, &RunResult)> = vec![
        ("100".into(), &f100.0),
        ("10".into(), &f10.0),
        (dyn_label.to_string(), &fdyn.0),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(paper)
        .map(|((label, r), p)| {
            vec![
                label.clone(),
                format!("{:.1}x", r.speedup_vs(&baseline)),
                format!("{}x", p.accel),
                accuracy_fn(r, &baseline),
                p.accuracy.to_string(),
                format!("{}", r.stragglers.count()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "quantum (µs)",
                "accel (measured)",
                "accel (paper)",
                "accuracy (measured)",
                "accuracy (paper)",
                "stragglers"
            ],
            &table
        )
    );
    eprintln!("({name} wall: {:.1?})", t0.elapsed());
}

fn main() {
    let scale = aqs_bench::scale_arg(Scale::Full);
    let n = 64;

    // EP: accuracy = MOPS error.
    scaleout(
        Workload::Nas {
            bench: NasBench::Ep,
            scale,
        }
        .build(n, 42),
        dyn_config(1, 100, 1.03),
        "dyn 1:100",
        &[
            PaperRow {
                accel: 72.7,
                accuracy: "0.10%",
            },
            PaperRow {
                accel: 7.9,
                accuracy: "0.01%",
            },
            PaperRow {
                accel: 12.9,
                accuracy: "0.58%",
            },
        ],
        |r, b| {
            let m = app_metric(r, MetricKind::Mops);
            let m0 = app_metric(b, MetricKind::Mops);
            format!("{:.2}%", m.error_vs(&m0) * 100.0)
        },
    );

    // IS: accuracy = simulated execution (kernel) ratio, i.e. the factor by
    // which the benchmark's self-reported MOPS is off.
    scaleout(
        Workload::Nas {
            bench: NasBench::Is,
            scale,
        }
        .build(n, 42),
        dyn_config(1, 100, 1.03),
        "dyn 1:100",
        &[
            PaperRow {
                accel: 84.0,
                accuracy: "150x",
            },
            PaperRow {
                accel: 9.8,
                accuracy: "22x",
            },
            PaperRow {
                accel: 27.0,
                accuracy: "1.57x",
            },
        ],
        |r, b| {
            let m = app_metric(r, MetricKind::Mops).value();
            let m0 = app_metric(b, MetricKind::Mops).value();
            format!("{:.2}x", m0 / m)
        },
    );

    // NAMD: accuracy = wall-clock error (can exceed 100 %).
    scaleout(
        Workload::Namd { scale }.build(n, 42),
        dyn_config(2, 100, 1.05),
        "dyn 2:100",
        &[
            PaperRow {
                accel: 77.2,
                accuracy: "104%",
            },
            PaperRow {
                accel: 9.1,
                accuracy: "1.01%",
            },
            PaperRow {
                accel: 6.5,
                accuracy: "0.79%",
            },
        ],
        |r, b| {
            let m = app_metric(r, MetricKind::KernelTime);
            let m0 = app_metric(b, MetricKind::KernelTime);
            format!("{:.2}%", m.error_vs(&m0) * 100.0)
        },
    );
}
