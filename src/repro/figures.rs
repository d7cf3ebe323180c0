//! Figures 5–8: the cost of synchronization itself, and the NAS and NAMD
//! sweeps at 2/4/8 nodes with the Pareto plane they span.

use super::harness::{nas_aggregate, print_experiment, run_sweep, write_tsv};
use crate::cluster::{paper_sweep, run_workload, ClusterConfig};
use crate::core::SyncConfig;
use crate::node::HostModel;
use crate::obs::{pareto_front, render_bar_chart, render_scatter_log_y, render_table, ParetoPoint};
use crate::time::HostDuration;
use crate::workloads::{Scale, Workload};

/// Figure 5 — the slowdown quantum synchronization itself introduces.
///
/// Two nodes run pure computation (no packets at all) at deterministic,
/// different speeds: node 1's simulator is 30 % slower than node 0's. The
/// figure's two messages fall out of the host-time accounting:
///
/// * the **slowest node sets the pace** — node 0 idles at every barrier
///   waiting for node 1, so the cluster runs at node 1's speed;
/// * **each barrier costs host time**, so small quanta multiply that cost
///   by orders of magnitude.
///
/// The workload is fixed, so the scale is ignored.
pub(super) fn sync_overhead(_: Scale) {
    let spec = Workload::UniformCompute {
        ops: 26_000_000,
        spread: 0.0,
    }
    .build(2, 0); // 10 ms of guest compute per node

    // Deterministic speeds: node 0 at 30 host-ns/sim-ns, node 1 at 39.
    let fast = HostModel::uniform(30.0, 0.02);
    let slow = HostModel::uniform(39.0, 0.02);
    let base = ClusterConfig::new(SyncConfig::ground_truth())
        .with_seed(8)
        .with_host(fast)
        .with_node_host(1, slow);

    // Free-running node 0 would take 10 ms × 30 = 300 ms of host time; the
    // cluster can never beat free-running node 1: 10 ms × 39 = 390 ms.
    let fast_alone = HostDuration::from_millis(300);
    let slow_alone = HostDuration::from_millis(390);

    println!("=== Figure 5 — synchronization overhead (2 nodes, compute only) ===\n");
    println!("node 0 alone would need {fast_alone}; node 1 alone {slow_alone}.\n");

    let mut rows = Vec::new();
    for q in [1u64, 10, 100, 1000] {
        let r = run_workload(&spec, &base.clone().with_sync(SyncConfig::fixed_micros(q)));
        let idle = 1.0 - fast_alone.as_secs_f64() / r.host_elapsed.as_secs_f64();
        let overhead = r.host_elapsed.as_secs_f64() / slow_alone.as_secs_f64();
        rows.push(vec![
            format!("{q}"),
            format!("{}", r.host_elapsed),
            format!("{}", r.total_quanta),
            format!("{:.0}%", idle * 100.0),
            format!("{overhead:.2}x"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "quantum (µs)",
                "host time",
                "barriers",
                "node-0 idle",
                "vs. slowest free-run"
            ],
            &rows
        )
    );
    println!("the cluster always runs at the slowest simulator's pace (node 0 idles");
    println!("~23 % no matter what), and each barrier adds fixed host cost on top —");
    println!("at 1 µs quanta the barrier bill is the dominant term. This is the gap");
    println!("the adaptive quantum recovers during packet-free phases.");
}

/// The node counts of Figures 6 and 7.
const NODE_COUNTS: [usize; 3] = [2, 4, 8];

/// Figures 6 and 7's two panels, one bar group per node count of
/// [`NODE_COUNTS`]: the accuracy error in percent (left) and the speedup
/// (right) of each configuration in `labels`. `errors` and `speedups` hold
/// one row per node count; the same numbers go to `results/<tsv>.tsv`.
fn accuracy_and_speedup(
    title: &str,
    tsv: &str,
    labels: &[String],
    errors: &[Vec<f64>],
    speedups: &[Vec<f64>],
) {
    let groups = NODE_COUNTS.map(|n| n.to_string());
    let groups: Vec<&str> = groups.iter().map(String::as_str).collect();
    let series: Vec<&str> = labels.iter().map(String::as_str).collect();
    let percent: Vec<Vec<f64>> = errors
        .iter()
        .map(|row| row.iter().map(|e| e * 100.0).collect())
        .collect();
    println!("=== {title} accuracy (left) ===\n");
    println!("{}", render_bar_chart(&groups, &series, &percent, 50, "%"));
    println!("=== {title} speedup (right) ===\n");
    println!("{}", render_bar_chart(&groups, &series, speedups, 50, "x"));

    let mut rows = Vec::new();
    for (i, n) in NODE_COUNTS.iter().enumerate() {
        for (c, label) in labels.iter().enumerate() {
            rows.push(vec![
                n.to_string(),
                label.clone(),
                format!("{:.4}", errors[i][c]),
                format!("{:.2}", speedups[i][c]),
            ]);
        }
    }
    write_tsv(tsv, &["nodes", "config", "error", "speedup"], &rows);
}

/// Figure 6 — NAS accuracy (left) and speedup (right) for 2/4/8 nodes.
///
/// Bars per processor count: fixed quanta of 10/100/1000 µs and the two
/// adaptive configurations (dyn 1.03:0.02 and dyn 1.05:0.02, both
/// 1–1000 µs), all relative to the 1 µs ground truth. Accuracy is the
/// harmonic mean of the five NAS-like benchmarks' MOPS; speed is the
/// aggregate host time across the suite. `mini` is the figure scale.
pub(super) fn fig6_nas(scale: Scale) {
    let aggregates = NODE_COUNTS.map(|n| nas_aggregate(n, scale, 42, paper_sweep()));
    accuracy_and_speedup(
        "Figure 6 — NAS",
        "fig6_nas",
        &aggregates[0].labels,
        &aggregates.each_ref().map(|a| a.errors.clone()),
        &aggregates.each_ref().map(|a| a.speedups.clone()),
    );
    println!("=== Per-benchmark detail ===\n");
    for a in &aggregates {
        for r in &a.per_benchmark {
            print_experiment(r);
        }
    }
}

/// Figure 7 — NAMD accuracy (left) and speedup (right) for 2/4/8 nodes.
///
/// Same bars as Figure 6 but for the NAMD-like workload, whose metric is
/// its self-reported wall-clock time (so accuracy error can exceed 100 %).
pub(super) fn fig7_namd(scale: Scale) {
    let results =
        NODE_COUNTS.map(|n| run_sweep(Workload::Namd { scale }.build(n, 42), 42, paper_sweep()));
    let labels: Vec<String> = results[0]
        .outcomes
        .iter()
        .map(|o| o.label.clone())
        .collect();
    accuracy_and_speedup(
        "Figure 7 — NAMD",
        "fig7_namd",
        &labels,
        &results
            .each_ref()
            .map(|r| r.outcomes.iter().map(|o| o.accuracy_error).collect()),
        &results
            .each_ref()
            .map(|r| r.outcomes.iter().map(|o| o.speedup).collect()),
    );
    println!("=== Detail ===\n");
    for r in &results {
        print_experiment(r);
    }
}

/// How far (multiplicatively, on the speedup axis) a point may sit below
/// the frontier and still count as "very near" it.
const NEAR_FRONT_FACTOR: f64 = 1.25;

/// `true` if `p` is on or within [`NEAR_FRONT_FACTOR`] of its family front.
fn near_front(p: &ParetoPoint, family: &[ParetoPoint]) -> bool {
    !family
        .iter()
        .any(|q| q.error <= p.error && q.speedup > p.speedup * NEAR_FRONT_FACTOR)
}

/// Figure 8 — Pareto optimality curve (8-node systems).
///
/// Every configuration of the Figure 6/7 sweeps becomes a point in the
/// (accuracy error, log speedup) plane: squares are the NAS aggregate,
/// circles NAMD, with one Pareto frontier per benchmark family (the
/// paper's dotted curves). The paper's claim — reproduced here — is that
/// all adaptive configurations lie on or very near the frontier.
pub(super) fn fig8_pareto(scale: Scale) {
    let nas = nas_aggregate(8, scale, 42, paper_sweep());
    let namd = run_sweep(Workload::Namd { scale }.build(8, 42), 42, paper_sweep());

    let nas_points: Vec<ParetoPoint> = nas
        .labels
        .iter()
        .enumerate()
        .map(|(i, label)| ParetoPoint::new(nas.errors[i], nas.speedups[i], format!("NAS {label}")))
        .collect();
    let namd_points: Vec<ParetoPoint> = namd
        .outcomes
        .iter()
        .map(|o| ParetoPoint::new(o.accuracy_error, o.speedup, format!("NAMD {}", o.label)))
        .collect();

    println!("=== Figure 8 — Pareto optimality curves (8 nodes) ===\n");
    for (family, points) in [
        ("NAS (squares)", &nas_points),
        ("NAMD (circles)", &namd_points),
    ] {
        println!("--- {family} ---");
        println!("{}", render_scatter_log_y(points, 72, 14));
    }

    // The paper's claim: all adaptive configurations lie on or very near
    // their family's Pareto curve.
    let mut adaptive_total = 0;
    let mut adaptive_near = 0;
    for points in [&nas_points, &namd_points] {
        let front = pareto_front(points);
        for (i, p) in points.iter().enumerate() {
            if p.label.contains("dyn") {
                adaptive_total += 1;
                if front.contains(&i) || near_front(p, points) {
                    adaptive_near += 1;
                }
            }
        }
    }
    println!(
        "adaptive configurations on or near their Pareto front: {adaptive_near}/{adaptive_total}"
    );
    let rows: Vec<Vec<String>> = nas_points
        .iter()
        .chain(&namd_points)
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{:.4}", p.error),
                format!("{:.2}", p.speedup),
            ]
        })
        .collect();
    write_tsv("fig8_pareto", &["label", "error", "speedup"], &rows);
}
