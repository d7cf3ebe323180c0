//! Figure 7 — NAMD accuracy (left) and speedup (right) for 2/4/8 nodes.
//!
//! Same bars as Figure 6 but for the NAMD-like workload, whose metric is
//! its self-reported wall-clock time (so accuracy error can exceed 100 %).
//!
//! Usage: `fig7_namd [tiny|mini]`.

use aqs_bench::{print_experiment, run_sweep, write_tsv};
use aqs_cluster::paper_sweep;
use aqs_metrics::render_bar_chart;
use aqs_workloads::{Scale, Workload};
use std::time::Instant;

fn main() {
    let scale = aqs_bench::scale_arg(Scale::Mini);
    let t0 = Instant::now();
    let node_counts = [2usize, 4, 8];
    let results: Vec<_> = node_counts
        .iter()
        .map(|&n| run_sweep(Workload::Namd { scale }.build(n, 42), 42, paper_sweep()))
        .collect();

    let labels: Vec<String> = results[0]
        .outcomes
        .iter()
        .map(|o| o.label.clone())
        .collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let group_labels: Vec<String> = node_counts.iter().map(|n| n.to_string()).collect();
    let groups: Vec<&str> = group_labels.iter().map(String::as_str).collect();

    println!("=== Figure 7 — NAMD accuracy (left) ===\n");
    let error_bars: Vec<Vec<f64>> = results
        .iter()
        .map(|r| {
            r.outcomes
                .iter()
                .map(|o| o.accuracy_error * 100.0)
                .collect()
        })
        .collect();
    println!(
        "{}",
        render_bar_chart(&groups, &labels, &error_bars, 50, "%")
    );

    println!("=== Figure 7 — NAMD speedup (right) ===\n");
    let speed_bars: Vec<Vec<f64>> = results
        .iter()
        .map(|r| r.outcomes.iter().map(|o| o.speedup).collect())
        .collect();
    println!(
        "{}",
        render_bar_chart(&groups, &labels, &speed_bars, 50, "x")
    );

    let mut rows = Vec::new();
    for r in &results {
        for o in &r.outcomes {
            rows.push(vec![
                r.n_nodes.to_string(),
                o.label.clone(),
                format!("{:.4}", o.accuracy_error),
                format!("{:.2}", o.speedup),
            ]);
        }
    }
    write_tsv("fig7_namd", &["nodes", "config", "error", "speedup"], &rows);

    println!("=== Detail ===\n");
    for r in &results {
        print_experiment(r);
    }
    eprintln!("(fig7 wall time: {:.1?})", t0.elapsed());
}
