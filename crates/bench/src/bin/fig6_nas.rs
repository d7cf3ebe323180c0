//! Figure 6 — NAS accuracy (left) and speedup (right) for 2/4/8 nodes.
//!
//! Bars per processor count: fixed quanta of 10/100/1000 µs and the two
//! adaptive configurations (dyn 1.03:0.02 and dyn 1.05:0.02, both
//! 1–1000 µs), all relative to the 1 µs ground truth. Accuracy is the
//! harmonic mean of the five NAS-like benchmarks' MOPS; speed is the
//! aggregate host time across the suite.
//!
//! Usage: `fig6_nas [tiny|mini]` (mini is the figure scale; tiny is a
//! smoke-test).

use aqs_bench::{nas_aggregate, print_experiment, write_tsv};
use aqs_cluster::paper_sweep;
use aqs_obs::render_bar_chart;
use aqs_workloads::Scale;
use std::time::Instant;

fn main() {
    let scale = aqs_bench::scale_arg(Scale::Mini);
    let t0 = Instant::now();
    let node_counts = [2usize, 4, 8];
    let aggregates: Vec<_> = node_counts
        .iter()
        .map(|&n| nas_aggregate(n, scale, 42, paper_sweep()))
        .collect();

    println!("=== Figure 6 — NAS accuracy (left) ===\n");
    let labels: Vec<&str> = aggregates[0].labels.iter().map(String::as_str).collect();
    let group_labels: Vec<String> = node_counts.iter().map(|n| n.to_string()).collect();
    let groups: Vec<&str> = group_labels.iter().map(String::as_str).collect();
    let error_bars: Vec<Vec<f64>> = aggregates
        .iter()
        .map(|a| a.errors.iter().map(|e| e * 100.0).collect())
        .collect();
    println!(
        "{}",
        render_bar_chart(&groups, &labels, &error_bars, 50, "%")
    );

    println!("=== Figure 6 — NAS speedup (right) ===\n");
    let speed_bars: Vec<Vec<f64>> = aggregates.iter().map(|a| a.speedups.clone()).collect();
    println!(
        "{}",
        render_bar_chart(&groups, &labels, &speed_bars, 50, "x")
    );

    let mut rows = Vec::new();
    for a in &aggregates {
        for (i, label) in a.labels.iter().enumerate() {
            rows.push(vec![
                a.n_nodes.to_string(),
                label.clone(),
                format!("{:.4}", a.errors[i]),
                format!("{:.2}", a.speedups[i]),
            ]);
        }
    }
    write_tsv("fig6_nas", &["nodes", "config", "error", "speedup"], &rows);

    println!("=== Per-benchmark detail ===\n");
    for a in &aggregates {
        for r in &a.per_benchmark {
            print_experiment(r);
        }
    }
    eprintln!("(fig6 wall time: {:.1?})", t0.elapsed());
}
