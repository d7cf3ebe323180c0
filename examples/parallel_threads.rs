//! The system the paper actually ran: one node simulator per OS thread
//! (the sharded engine with one worker per node), synchronized by real
//! barriers, timed with a real clock.
//!
//! Each node burns actual CPU per simulated operation (emulating the cost
//! of full-system simulation), so the adaptive quantum's savings show up as
//! real wall-clock.
//!
//! Run with: `cargo run --release --example parallel_threads`

use aqs::cluster::{EngineKind, Sim};
use aqs::core::SyncConfig;
use aqs::workloads::burst;

fn main() {
    let n = std::thread::available_parallelism()
        .map(|p| p.get().min(8))
        .unwrap_or(4)
        .max(2);
    println!("running {n} node-simulator threads\n");
    let spec = burst(n, 1_000_000, 2048);

    // ~10 host-ns of busy work per simulated op ≈ a 26x-slowdown simulator
    // on the default 2.6 GHz guest CPU model.
    let mk = |sync| {
        Sim::new(spec.programs.clone())
            .engine(EngineKind::Sharded)
            .shards(n)
            .sync(sync)
            .host_work_per_op(10.0)
            .run()
    };

    let truth = mk(SyncConfig::ground_truth());
    let fixed = mk(SyncConfig::fixed_micros(1000));
    let dynr = mk(SyncConfig::paper_dyn1());

    println!(
        "{:<18} {:>12} {:>10} {:>12} {:>12}",
        "config", "wall", "quanta", "stragglers", "sim end"
    );
    for (label, r) in [
        ("Q=1µs (truth)", &truth),
        ("Q=1000µs", &fixed),
        ("dyn 1.03:0.02", &dynr),
    ] {
        println!(
            "{label:<18} {:>11.1?}s {:>10} {:>12} {:>12}",
            r.wall_clock.as_secs_f64(),
            r.total_quanta,
            r.stragglers.count(),
            r.sim_end
        );
    }
    println!();
    println!(
        "adaptive wall-clock speedup vs ground truth: {:.1}x",
        dynr.speedup_vs(&truth)
    );
    println!("(timings vary by machine; the deterministic engine in");
    println!(" aqs::cluster::engine reproduces the paper's figures exactly)");
}
