//! "Driving over speed bumps": watch the adaptive quantum react to a
//! bursty application, and sweep the growth/shrink factors.
//!
//! Run with: `cargo run --release --example adaptive_tuning`

use aqs::cluster::{run_workload, ClusterConfig, Sim};
use aqs::core::{AdaptiveConfig, SyncConfig};
use aqs::obs::{ObsConfig, QuantumObs};
use aqs::time::SimDuration;
use aqs::workloads::burst;

/// Renders quantum length over time (log scale) as ASCII.
fn quantum_chart(records: &[QuantumObs<'_>], cols: usize, rows: usize) -> String {
    let end = records.last().map_or(1, |r| (r.start + r.len).as_nanos()) as f64;
    let max_q = records.iter().map(|r| r.len.as_nanos()).max().unwrap_or(1) as f64;
    let mut grid = vec![vec![' '; cols]; rows];
    for r in records {
        let c = ((r.start.as_nanos() as f64 / end) * (cols - 1) as f64) as usize;
        let level = (r.len.as_nanos() as f64).ln() / max_q.ln();
        let y = ((rows - 1) as f64 * level).round() as usize;
        let row = rows - 1 - y.min(rows - 1);
        grid[row][c] = if r.packets > 0 { '!' } else { '▪' };
    }
    let mut out = String::new();
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(cols));
    out.push_str("> simulated time   (▪ quantum, ! quantum with packets)\n");
    out
}

fn main() {
    let spec = burst(4, 4_000_000, 4096);

    println!("=== quantum length over time, dyn 1.05:0.02 ===");
    println!("(watch it climb through the compute phases and crash at the burst)\n");
    let cfg = ClusterConfig::new(SyncConfig::paper_dyn2()).with_seed(5);
    let run = Sim::new(spec.programs.clone())
        .config(cfg)
        .record(ObsConfig::new())
        .run();
    let obs = run.obs.expect("the run was recorded");
    // The last sample is the stretch from the final barrier to the end of
    // the run, not a quantum the policy chose.
    let quanta: Vec<_> = obs.samples().take(obs.ring_len() - 1).collect();
    println!("{}", quantum_chart(&quanta, 76, 12));

    println!("=== inc/dec sweep (same workload) ===\n");
    let base = ClusterConfig::new(SyncConfig::ground_truth()).with_seed(5);
    let truth = run_workload(&spec, &base);
    println!(
        "{:<22} {:>9} {:>12} {:>10}",
        "config", "speedup", "stragglers", "quanta"
    );
    for inc in [1.01, 1.03, 1.05, 1.10, 1.20] {
        for dec in [0.02, 0.2, 0.5] {
            let sync = SyncConfig::Adaptive(AdaptiveConfig::new(
                SimDuration::from_micros(1),
                SimDuration::from_micros(1000),
                inc,
                dec,
            ));
            let r = run_workload(&spec, &base.clone().with_sync(sync));
            println!(
                "{:<22} {:>8.1}x {:>12} {:>10}",
                format!("inc {inc:.2} dec {dec:.2}"),
                r.speedup_vs(&truth),
                r.stragglers.count(),
                r.total_quanta
            );
        }
    }
    println!("\nthe paper's guidance holds: grow slowly (2-5%), brake hard (~0.02).");
}
