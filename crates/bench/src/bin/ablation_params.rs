//! Ablation: the adaptive algorithm's growth/shrink factors.
//!
//! The paper (§3) recommends growing the quantum "in very small increments
//! (such as 2 % to 5 %) but decreasing it very quickly" (`dec ≈ 1/√maxQ`,
//! reaching the floor in 2–3 quanta). This sweep quantifies that guidance
//! on a communication-sensitive workload: aggressive growth buys speed but
//! loses accuracy; slow braking (large `dec`) loses accuracy without buying
//! much speed. Both tables also go to `results/ablation_params.tsv`.
//!
//! Usage: `ablation_params [tiny|mini]`.

use aqs_bench::{run_sweep, standard_config, write_tsv};
use aqs_cluster::{ConfigOutcome, Experiment};
use aqs_core::{AdaptiveConfig, SyncConfig};
use aqs_obs::render_table;
use aqs_time::SimDuration;
use aqs_workloads::{Scale, Workload};
use std::time::Instant;

fn main() {
    let scale = aqs_bench::scale_arg(Scale::Mini);
    let t0 = Instant::now();
    let spec = Workload::Namd { scale }.build(8, 0);

    let incs = [1.01, 1.02, 1.03, 1.05, 1.10, 1.25];
    let decs = [0.02, 0.1, 0.3, 0.7];
    let mut sweep = Vec::new();
    for &inc in &incs {
        for &dec in &decs {
            sweep.push(SyncConfig::Adaptive(AdaptiveConfig::new(
                SimDuration::from_micros(1),
                SimDuration::from_micros(1000),
                inc,
                dec,
            )));
        }
    }
    let result = Experiment::new(spec.clone(), standard_config(42), sweep).run();
    let mut tsv: Vec<_> = result
        .outcomes
        .iter()
        .map(|o| tsv_row("incdec", o))
        .collect();

    println!("=== inc/dec ablation — NAMD, 8 nodes ===\n");
    let rows: Vec<Vec<String>> = result
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                format!("{:.1}x", o.speedup),
                format!("{:.3}%", o.accuracy_error * 100.0),
                format!("{}", o.result.stragglers.count()),
                format!("{}", o.result.total_quanta),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["config", "speedup", "error", "stragglers", "quanta"],
            &rows
        )
    );

    // The paper's claim distilled: among configurations of similar speed,
    // hard braking (dec = 0.02) is never less accurate than soft braking.
    println!("paper guidance check (inc = 1.05):");
    for &dec in &decs {
        let label = format!("dyn 1.05:{dec:.2}");
        if let Some(o) = result.outcomes.iter().find(|o| o.label == label) {
            println!(
                "  dec {dec:<4} → speedup {:>6.1}x, error {:>7.3}%",
                o.speedup,
                o.accuracy_error * 100.0
            );
        }
    }

    // Bonus: compare against the extension policies at the paper's factors.
    println!("\n=== extension policies (threshold / EWMA) ===\n");
    let cfg = AdaptiveConfig::paper_dyn1();
    let ext = vec![
        SyncConfig::Adaptive(cfg),
        SyncConfig::Threshold {
            config: cfg,
            threshold: 2,
        },
        SyncConfig::Threshold {
            config: cfg,
            threshold: 16,
        },
        SyncConfig::Ewma {
            config: cfg,
            alpha: 0.5,
        },
        SyncConfig::Ewma {
            config: cfg,
            alpha: 0.125,
        },
    ];
    let result = run_sweep(spec, 42, ext);
    tsv.extend(result.outcomes.iter().map(|o| tsv_row("extension", o)));
    let rows: Vec<Vec<String>> = result
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                format!("{:.1}x", o.speedup),
                format!("{:.3}%", o.accuracy_error * 100.0),
                format!("{}", o.result.stragglers.count()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["policy", "speedup", "error", "stragglers"], &rows)
    );
    let header = [
        "table",
        "config",
        "speedup",
        "error",
        "stragglers",
        "quanta",
    ];
    write_tsv("ablation_params", &header, &tsv);
    eprintln!("(ablation wall: {:.1?})", t0.elapsed());
}

/// One policy's row of `results/ablation_params.tsv`.
fn tsv_row(table: &str, o: &ConfigOutcome) -> Vec<String> {
    vec![
        table.to_string(),
        o.label.clone(),
        format!("{:.6}", o.speedup),
        format!("{:.6}", o.accuracy_error),
        o.result.stragglers.count().to_string(),
        o.result.total_quanta.to_string(),
    ]
}
