//! Ablation: why the paper rejects optimistic (checkpoint/rollback) PDES.
//!
//! §3: "A single checkpointing-rollback phase for a node can easily last in
//! the order of 30-40 seconds which is clearly not affordable in this
//! domain" — a full-system checkpoint must save gigabytes of guest memory
//! and disk journal.
//!
//! This repository implements an actual window-based optimistic engine
//! (`EngineKind::ShardedOptimistic`; here on one shard, with a fixed
//! quantum as the free-run window and a cascade bound the run never
//! reaches): nodes free-run, and any node whose inbound messages turn out
//! different from what it executed with rolls back and re-executes.
//! Because deliveries are always repaired to their exact times, the
//! optimistic timeline equals the conservative ground truth's — optimism
//! buys *perfect accuracy*. The question the paper answers in one
//! sentence, measured here: what does that accuracy cost on a full-system
//! simulator whose checkpoints take 30 s? The engine supplies the counters
//! (windows, re-executions per window); the bill is
//! `ShardedOptimisticRunResult::modelled_host_time` on top of the
//! deterministic engine's modelled execution time at the same window.
//!
//! Usage: `ablation_optimistic [tiny|mini]`.

use aqs_bench::{standard_config, with_housekeeping};
use aqs_cluster::run_workload;
use aqs_cluster::{EngineKind, Sim};
use aqs_core::SyncConfig;
use aqs_obs::render_table;
use aqs_time::HostDuration;
use aqs_workloads::{NasBench, Scale, Workload};
use std::time::Instant;

fn main() {
    let scale = aqs_bench::scale_arg(Scale::Mini);
    let t0 = Instant::now();
    // CG at 4 nodes: periodic communication, so windows converge quickly.
    let spec = with_housekeeping(
        Workload::Nas {
            bench: NasBench::Cg,
            scale,
        }
        .build(4, 0),
    );
    let base = standard_config(42);
    let truth = run_workload(&spec, &base);
    let dyn1 = run_workload(&spec, &base.clone().with_sync(SyncConfig::paper_dyn1()));

    println!("=== optimistic engine vs. quantum synchronization — CG, 4 nodes ===\n");
    println!(
        "conservative 1µs ground truth: {} host   |   adaptive dyn 1.03:0.02: {} host\n",
        truth.host_elapsed, dyn1.host_elapsed
    );

    let mut rows = Vec::new();
    for (label, window_us, ckpt, rb) in [
        (
            "free state (idealized)",
            500u64,
            HostDuration::ZERO,
            HostDuration::ZERO,
        ),
        (
            "1 s checkpoints",
            500,
            HostDuration::from_secs(1),
            HostDuration::from_secs(1),
        ),
        (
            "paper: 30 s checkpoints",
            500,
            HostDuration::from_secs(30),
            HostDuration::from_secs(30),
        ),
        (
            "paper, longer windows",
            2000,
            HostDuration::from_secs(30),
            HostDuration::from_secs(30),
        ),
    ] {
        let window = SyncConfig::fixed_micros(window_us);
        let report = Sim::new(spec.programs.clone())
            .engine(EngineKind::ShardedOptimistic)
            .config(base.clone())
            .sync(window.clone())
            .shards(1)
            .cascade_bound(256)
            .run();
        let r = report
            .detail
            .as_sharded_optimistic()
            .expect("optimistic engine ran");
        assert_eq!(r.degraded_windows, 0, "the cascade bound must never bind");
        assert_eq!(r.sim_end, truth.sim_end, "optimism must be timing-exact");
        let execution = run_workload(&spec, &base.clone().with_sync(window)).host_elapsed;
        let host = r.modelled_host_time(ckpt, rb, execution);
        rows.push(vec![
            label.to_string(),
            format!("{window_us}"),
            format!("{host}"),
            format!(
                "{:.2}x",
                truth.host_elapsed.as_secs_f64() / host.as_secs_f64()
            ),
            format!("{}", r.windows),
            format!("{}", r.rollbacks),
            format!("{}", r.wasted_sim),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "configuration",
                "window (µs)",
                "host time",
                "speedup vs 1µs",
                "windows",
                "rollbacks",
                "wasted sim"
            ],
            &rows
        )
    );
    println!("with free checkpoints, optimism is genuinely attractive (exact timing,");
    println!("decent speed). With the paper's 30 s full-system snapshot it is three");
    println!("to five orders of magnitude off the pace — §3's one-line dismissal,");
    println!("now with measurements attached.");
    eprintln!("(ablation wall: {:.1?})", t0.elapsed());
}
