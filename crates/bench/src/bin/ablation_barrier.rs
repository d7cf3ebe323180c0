//! Ablation: how the barrier cost model shapes the speedup figures.
//!
//! DESIGN.md calibrates the quantum barrier at `0.3 ms + 0.25 ms · n` host
//! time (a central controller exchanging per-node messages serially). This
//! ablation re-runs the EP scale-out under three barrier models — linear
//! (default), logarithmic (tree barrier) and constant — to show which
//! conclusions are robust to the choice and which are not.
//!
//! Usage: `ablation_barrier [tiny|mini]`.

use aqs_bench::{standard_config, with_housekeeping};
use aqs_cluster::{run_workload, BarrierCostModel, ClusterConfig, RunResult};
use aqs_core::SyncConfig;
use aqs_obs::render_table;
use aqs_time::HostDuration;
use aqs_workloads::{NasBench, Scale, Workload};
use std::time::Instant;

fn speedups(base: ClusterConfig, spec: &aqs_workloads::WorkloadSpec) -> (RunResult, Vec<f64>) {
    let truth = run_workload(spec, &base);
    let out = [10u64, 100, 1000]
        .iter()
        .map(|&q| {
            let r = run_workload(spec, &base.clone().with_sync(SyncConfig::fixed_micros(q)));
            r.speedup_vs(&truth)
        })
        .collect();
    (truth, out)
}

fn main() {
    let scale = aqs_bench::scale_arg(Scale::Mini);
    let t0 = Instant::now();
    println!("=== barrier-cost ablation — EP, fixed quanta of 10/100/1000 µs ===\n");

    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 64] {
        let spec = with_housekeeping(
            Workload::Nas {
                bench: NasBench::Ep,
                scale,
            }
            .build(n, 0),
        );
        // Linear (default): central controller, serial per-node messages.
        let linear = standard_config(42);
        // Logarithmic: tree barrier, cost = base + per_node * log2(n).
        // Expressed through the linear model with an equivalent per-node
        // charge so the comparison stays apples-to-apples at this n.
        let log_per_node =
            HostDuration::from_nanos((250_000.0 * (n as f64).log2() / n as f64).round() as u64);
        let log = standard_config(42).with_barrier(BarrierCostModel::new(
            HostDuration::from_micros(300),
            log_per_node,
        ));
        // Constant: infinitely scalable hardware barrier.
        let constant = standard_config(42).with_barrier(BarrierCostModel::new(
            HostDuration::from_millis(2),
            HostDuration::ZERO,
        ));

        for (name, cfg) in [("linear", linear), ("log2", log), ("constant", constant)] {
            let (_, s) = speedups(cfg, &spec);
            rows.push(vec![
                format!("{n}"),
                name.to_string(),
                format!("{:.1}x", s[0]),
                format!("{:.1}x", s[1]),
                format!("{:.1}x", s[2]),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["nodes", "barrier model", "Q=10µs", "Q=100µs", "Q=1000µs"],
            &rows
        )
    );
    println!("the *relative* ordering of quanta is robust to the barrier model;");
    println!("the absolute speedups (and the paper's ~70x at 64 nodes) require the");
    println!("linear central-controller cost that the paper's architecture implies.");
    eprintln!("(ablation wall: {:.1?})", t0.elapsed());
}
