//! This repository's ablations (the adaptive factors, optimistic PDES, the
//! barrier cost model) and extensions (§7's future work, non-perfect
//! switch fabrics).

use super::harness::{run_sweep, standard_config, with_housekeeping, write_tsv};
use crate::cluster::{
    app_metric, run_workload, BarrierCostModel, ClusterConfig, ConfigOutcome, EngineKind,
    Experiment, RunResult, Sim, SimSwitch,
};
use crate::core::{AdaptiveConfig, PredictiveConfig, SyncConfig};
use crate::net::{LatencyMatrixSwitch, StoreAndForwardSwitch};
use crate::node::SamplingModel;
use crate::obs::render_table;
use crate::time::{HostDuration, SimDuration};
use crate::workloads::{NasBench, Scale, Workload, WorkloadSpec};

/// Ablation: the adaptive algorithm's growth/shrink factors.
///
/// The paper (§3) recommends growing the quantum "in very small increments
/// (such as 2 % to 5 %) but decreasing it very quickly" (`dec ≈ 1/√maxQ`,
/// reaching the floor in 2–3 quanta). This sweep quantifies that guidance
/// on a communication-sensitive workload: aggressive growth buys speed but
/// loses accuracy; slow braking (large `dec`) loses accuracy without buying
/// much speed. Both tables also go to `results/ablation_params.tsv`.
pub(super) fn ablation_params(scale: Scale) {
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

/// Ablation: why the paper rejects optimistic (checkpoint/rollback) PDES.
///
/// §3: "A single checkpointing-rollback phase for a node can easily last in
/// the order of 30-40 seconds which is clearly not affordable in this
/// domain" — a full-system checkpoint must save gigabytes of guest memory
/// and disk journal.
///
/// This repository implements an actual window-based optimistic engine
/// (`EngineKind::ShardedOptimistic`; here on one shard, with a fixed
/// quantum as the free-run window and a cascade bound the run never
/// reaches): nodes free-run, and any node whose inbound messages turn out
/// different from what it executed with rolls back and re-executes.
/// Because deliveries are always repaired to their exact times, the
/// optimistic timeline equals the conservative ground truth's — optimism
/// buys *perfect accuracy*. The question the paper answers in one
/// sentence, measured here: what does that accuracy cost on a full-system
/// simulator whose checkpoints take 30 s? The engine supplies the counters
/// (windows, re-executions per window); the bill is
/// `ShardedOptimisticRunResult::modelled_host_time` on top of the
/// deterministic engine's modelled execution time at the same window.
pub(super) fn ablation_optimistic(scale: Scale) {
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
}

/// The speedup of fixed quanta of 10, 100 and 1000 µs over the ground truth.
fn speedups(base: ClusterConfig, spec: &WorkloadSpec) -> [f64; 3] {
    let truth = run_workload(spec, &base);
    [10, 100, 1000].map(|q| {
        run_workload(spec, &base.clone().with_sync(SyncConfig::fixed_micros(q))).speedup_vs(&truth)
    })
}

/// Ablation: how the barrier cost model shapes the speedup figures.
///
/// DESIGN.md calibrates the quantum barrier at `0.3 ms + 0.25 ms · n` host
/// time (a central controller exchanging per-node messages serially). This
/// ablation re-runs the EP scale-out under three barrier models — linear
/// (default), logarithmic (tree barrier) and constant — to show which
/// conclusions are robust to the choice and which are not.
pub(super) fn ablation_barrier(scale: Scale) {
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
            let s = speedups(cfg, &spec);
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
}

/// One configuration's row of the §7 table: speedup, error, stragglers
/// and quanta against the ground truth.
fn row(label: &str, r: &RunResult, truth: &RunResult, spec: &WorkloadSpec) -> Vec<String> {
    let m = app_metric(r, spec.metric);
    let m0 = app_metric(truth, spec.metric);
    vec![
        label.to_string(),
        format!("{:.1}x", r.speedup_vs(truth)),
        format!("{:.2}%", m.error_vs(&m0) * 100.0),
        format!("{}", r.stragglers.count()),
        format!("{}", r.total_quanta),
    ]
}

/// Extensions — the paper's §7 future work, evaluated.
///
/// Two directions the conclusion sketches:
///
/// * **Sampling** ("combine this technique with 'sampling' of the
///   individual node simulators"): node simulators alternate detailed and
///   fast-forward phases. Its host savings multiply with the quantum
///   policy's, at the price of a bounded guest-timing bias.
/// * **Lookahead estimation** (§3 argues reliable lookahead is impossible;
///   we quantify the *unreliable* kind): the predictive policy jumps the
///   quantum to a learned fraction of the inter-burst gap instead of
///   regrowing it at 2–5 % per quantum.
pub(super) fn ext_future_work(scale: Scale) {
    let spec = with_housekeeping(
        Workload::Nas {
            bench: NasBench::Cg,
            scale,
        }
        .build(8, 0),
    );
    let base = standard_config(42);
    let sampling = SamplingModel::typical();

    let truth = run_workload(&spec, &base);
    let configs: Vec<(&str, ClusterConfig)> = vec![
        (
            "quantum: dyn 1.03:0.02",
            base.clone().with_sync(SyncConfig::paper_dyn1()),
        ),
        (
            "sampling only (Q=1µs)",
            base.clone().with_sampling(sampling),
        ),
        (
            "dyn + sampling (combined)",
            base.clone()
                .with_sync(SyncConfig::paper_dyn1())
                .with_sampling(sampling),
        ),
        (
            "predictive lookahead",
            base.clone()
                .with_sync(SyncConfig::Predictive(PredictiveConfig::default_1_1000())),
        ),
        (
            "predictive + sampling",
            base.clone()
                .with_sync(SyncConfig::Predictive(PredictiveConfig::default_1_1000()))
                .with_sampling(sampling),
        ),
    ];

    println!("=== §7 future work — CG, 8 nodes (vs. 1µs ground truth) ===\n");
    let rows: Vec<Vec<String>> = configs
        .iter()
        .map(|(label, cfg)| row(label, &run_workload(&spec, cfg), &truth, &spec))
        .collect();
    println!(
        "{}",
        render_table(
            &["configuration", "speedup", "error", "stragglers", "quanta"],
            &rows
        )
    );
    println!("reading: sampling alone buys nothing at a 1µs quantum — barriers are");
    println!("~98% of the cost — and only modest gains under the paper's adaptive");
    println!("policy, whose average quantum is still barrier-bound. Once a policy");
    println!("sustains long quanta (predictive), sampling multiplies the speedup");
    println!("(~3.6x on top). The predictive policy itself shows the other edge:");
    println!("large speedups, but order-of-magnitude more stragglers and percent-");
    println!("level error when its gap guess is wrong — the unreliability of");
    println!("estimated lookahead that §3 predicted.");
}

/// One fabric's rows of the congestion table: fixed 100 µs, fixed 1000 µs
/// and dyn 1.03:0.02 against the ground truth on the same fabric.
fn sweep(name: &str, spec: &WorkloadSpec, switch: SimSwitch) -> Vec<Vec<String>> {
    let base = standard_config(42);
    let run = |sync: SyncConfig| -> RunResult {
        Sim::new(spec.programs.clone())
            .config(base.clone().with_sync(sync))
            .switch(switch.clone())
            .run()
            .detail
            .as_deterministic()
            .expect("deterministic engine ran")
            .clone()
    };
    let truth = run(SyncConfig::ground_truth());
    let m0 = app_metric(&truth, spec.metric);
    [
        SyncConfig::fixed_micros(100),
        SyncConfig::fixed_micros(1000),
        SyncConfig::paper_dyn1(),
    ]
    .into_iter()
    .map(|sync| {
        let r = run(sync);
        let m = app_metric(&r, spec.metric);
        vec![
            name.to_string(),
            r.sync_label.clone(),
            format!("{:.1}x", r.speedup_vs(&truth)),
            format!("{:.2}%", m.error_vs(&m0) * 100.0),
            format!("{}", r.stragglers.count()),
        ]
    })
    .collect()
}

/// Extension — the technique under a congested, non-perfect network.
///
/// The paper stresses its synchronizer with a *perfect* switch (infinite
/// bandwidth, zero latency) because lower latency means more stragglers.
/// §7 plans "more complex clusters"; this experiment runs IS through a
/// store-and-forward switch with finite per-port bandwidth and a rack-
/// locality latency matrix, verifying that the adaptive quantum's
/// speed/accuracy position survives realistic fabrics — where the larger
/// minimum latency actually gives the synchronizer *more* slack.
pub(super) fn ext_congestion(scale: Scale) {
    let spec = with_housekeeping(
        Workload::Nas {
            bench: NasBench::Is,
            scale,
        }
        .build(8, 0),
    );

    let mut rows = Vec::new();
    rows.extend(sweep("perfect (paper)", &spec, SimSwitch::Perfect));
    rows.extend(sweep(
        "store-and-forward 10G",
        &spec,
        SimSwitch::StoreAndForward(StoreAndForwardSwitch::new(
            SimDuration::from_nanos(500),
            10_000_000_000,
        )),
    ));
    rows.extend(sweep(
        "2 racks, +4µs inter-rack",
        &spec,
        SimSwitch::LatencyMatrix(LatencyMatrixSwitch::from_fn(8, |a, b| {
            if a.index() / 4 == b.index() / 4 {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(4)
            }
        })),
    ));

    println!("=== IS, 8 nodes, across switch fabrics ===\n");
    println!(
        "{}",
        render_table(
            &["fabric", "config", "speedup", "error", "stragglers"],
            &rows
        )
    );
    println!("the adaptive configuration keeps its near-zero error on every fabric;");
    println!("with real (higher) network latencies the fixed quanta get *more*");
    println!("accurate too — the paper's perfect switch is indeed the worst case");
    println!("for the synchronizer, as §4 claims.");
}
