//! Sharded-engine scaling sweep: cluster size × worker count × policy.
//!
//! Runs the burst workload (`host_work_per_op = 0`, so wall-clock is pure
//! engine overhead) at 64, 256, and 1024 nodes on the sharded engine for
//! every interesting worker count. Also measures the pooled packet path's
//! allocation counter differentially to show that routing a packet
//! allocates nothing in steady state, and runs the active-set tiers — an
//! idle-heavy rpc-incast at 64k nodes with the wake wheel on vs the forced
//! full sweep (≥3× gate), plus a 256k-node active-set-only tier with its
//! own zero-allocation differential. Writes `BENCH_shard.json` at the repo
//! root; the schema is documented in EXPERIMENTS.md.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p aqs-bench --bin shard_scaling
//! ```
//!
//! `--smoke` runs a 64-node sweep with the worker-count-independence and
//! allocation assertions only (no JSON written, no timing gate) — the CI
//! entry point.

use aqs_cluster::{
    EngineKind, HybridPolicy, ShardedOptimisticRunResult, ShardedRunResult, Sim, SimSwitch,
};
use aqs_core::SyncConfig;
use aqs_net::{FabricConfig, FatTreeFabric};
use aqs_node::Program;
use aqs_obs::ObsConfig;
use aqs_workloads::{MpiBuilder, Workload};
use serde_json::Value;

const COMPUTE_OPS: u64 = 200_000;
const BYTES: u64 = 1024;
const MAX_QUANTA: u64 = 50_000_000;
/// Fabric-tier workload parameters: one fragment per message, enough
/// compute that the adaptive policy has quiet stretches to grow into.
const FABRIC_BYTES: u64 = 4096;
const FABRIC_COMPUTE: u64 = 50_000;

fn policies() -> Vec<(&'static str, SyncConfig)> {
    vec![
        ("ground-truth", SyncConfig::ground_truth()),
        ("fixed-1000us", SyncConfig::fixed_micros(1000)),
        ("dyn1", SyncConfig::paper_dyn1()),
        ("dyn2", SyncConfig::paper_dyn2()),
    ]
}

/// Minimum wall over `iterations` runs (min is the noise-robust estimator
/// for a deterministic workload), plus the last run's result.
fn measure<R>(
    iterations: u32,
    mut run: impl FnMut() -> R,
    wall_of: impl Fn(&R) -> f64,
) -> (f64, R) {
    let mut last = run();
    let mut best = wall_of(&last);
    for _ in 1..iterations {
        last = run();
        best = best.min(wall_of(&last));
    }
    (best, last)
}

fn run_sharded(programs: Vec<Program>, sync: &SyncConfig, workers: usize) -> ShardedRunResult {
    Sim::new(programs)
        .engine(EngineKind::Sharded)
        .shards(workers)
        .sync(sync.clone())
        .max_quanta(MAX_QUANTA)
        .run()
        .detail
        .as_sharded()
        .expect("sharded engine ran")
        .clone()
}

/// Full bit-identity between two sharded runs: the engine fixes delivery
/// times at the sender's quantum edge, so outcomes must not depend on the
/// worker count for *any* policy, stragglers included.
fn sharded_outcome_eq(a: &ShardedRunResult, b: &ShardedRunResult) -> bool {
    a.sim_end == b.sim_end
        && a.total_quanta == b.total_quanta
        && a.total_packets == b.total_packets
        && a.stragglers.count() == b.stragglers.count()
        && a.stragglers.total_delay() == b.stragglers.total_delay()
        && a.per_node.len() == b.per_node.len()
        && a.per_node.iter().zip(&b.per_node).all(|(x, y)| {
            x.finish_sim == y.finish_sim
                && x.messages_received == y.messages_received
                && x.ops == y.ops
        })
}

fn engine_obj(wall: f64, quanta: u64, packets: u64, stragglers: u64, sim_end: u64) -> Value {
    Value::Object(vec![
        ("wall_secs".into(), Value::F64(wall)),
        ("total_quanta".into(), Value::U64(quanta)),
        ("total_packets".into(), Value::U64(packets)),
        ("stragglers".into(), Value::U64(stragglers)),
        ("sim_end_ns".into(), Value::U64(sim_end)),
    ])
}

/// `rounds` back-to-back compute+all-to-all phases at 64 nodes: the packet
/// count scales with `rounds`, the peak in-flight population does not, so
/// the pool allocation counter must not move between short and long runs.
fn burst_rounds(rounds: usize) -> Vec<Program> {
    let mut m = MpiBuilder::new(64);
    for _ in 0..rounds {
        m.compute_all(COMPUTE_OPS);
        m.alltoall(BYTES);
    }
    m.build()
}

/// Ring neighbor exchange + compute for the fabric tiers: traffic is O(n),
/// so the sweep stays tractable at 65 536 nodes (an all-to-all would route
/// O(n²) packets), while every node still crosses racks both ways.
fn ring_workload(n: usize, rounds: usize) -> Vec<Program> {
    let mut m = MpiBuilder::new(n);
    for _ in 0..rounds {
        m.compute_all(FABRIC_COMPUTE);
        m.neighbor_exchange(&[1], FABRIC_BYTES);
    }
    m.build()
}

fn run_fabric(programs: Vec<Program>, workers: usize) -> ShardedRunResult {
    Sim::new(programs)
        .engine(EngineKind::Sharded)
        .shards(workers)
        .switch(SimSwitch::Fabric(FabricConfig::fat_tree()))
        .sync(SyncConfig::paper_dyn2())
        .max_quanta(MAX_QUANTA)
        .run()
        .detail
        .as_sharded()
        .expect("sharded engine ran")
        .clone()
}

/// The fat-tree fabric tiers: {4k, 16k, 64k}-node ring exchanges through
/// the modeled multi-tier fabric on the sharded engine. Asserts cross-M
/// bit-identity and a zero steady-state allocation differential at the
/// 4k-node tier; `--smoke` stops there (assertions only), the full sweep
/// adds 16k (with per-link stats captured from a recorded run) and 64k and
/// returns the `fabric` section of `BENCH_shard.json`.
fn fabric_sweep(smoke: bool, worker_counts: &[usize]) -> Option<Value> {
    let fabric_cfg = FabricConfig::fat_tree();
    let node_counts: &[usize] = if smoke {
        &[4096]
    } else {
        &[4096, 16_384, 65_536]
    };
    let mut tiers = Vec::new();
    for &n in node_counts {
        let programs = ring_workload(n, 1);
        let mut runs = Vec::new();
        for &m in worker_counts {
            let r = run_fabric(programs.clone(), m);
            runs.push((m, r));
        }
        let (_, base) = &runs[0];
        for (m, r) in &runs {
            assert!(
                sharded_outcome_eq(r, base),
                "fabric n={n}: sharded outcome depends on worker count M={m}"
            );
        }
        let n_links = FatTreeFabric::new(fabric_cfg, n).n_links();
        for (m, r) in &runs {
            println!(
                "fabric n={n:>5} workers={m:<3} wall {w:>9.4}s  quanta {q}  packets {p}  \
                 links {n_links}  pool-allocs {a}",
                w = r.wall.as_secs_f64(),
                q = r.total_quanta,
                p = r.total_packets,
                a = r.pool_heap_allocs,
            );
        }
        tiers.push(Value::Object(vec![
            ("nodes".into(), Value::U64(n as u64)),
            ("n_links".into(), Value::U64(n_links as u64)),
            ("policy".into(), Value::Str("dyn2".into())),
            (
                "sharded".into(),
                Value::Array(
                    runs.iter()
                        .map(|(m, r)| {
                            let Value::Object(mut fields) = engine_obj(
                                r.wall.as_secs_f64(),
                                r.total_quanta,
                                r.total_packets,
                                r.stragglers.count(),
                                r.sim_end.as_nanos(),
                            ) else {
                                unreachable!("engine_obj returns an object")
                            };
                            fields.insert(0, ("workers".into(), Value::U64(*m as u64)));
                            fields
                                .push(("pool_heap_allocs".into(), Value::U64(r.pool_heap_allocs)));
                            Value::Object(fields)
                        })
                        .collect(),
                ),
            ),
            ("worker_counts_agree".into(), Value::Bool(true)),
        ]));
    }

    // Allocation gate at the 4k-node tier: 4× the exchange rounds must not
    // add pool allocations beyond the 1-round warm-up, fabric transit math
    // included. Worker scheduling decides each worker's pool high-water
    // mark, so the two runs can differ by up to one warm-up alloc per
    // worker; a per-packet regression would show up as thousands.
    let m = *worker_counts.last().expect("at least one worker count");
    let short = run_fabric(ring_workload(4096, 1), m);
    let long = run_fabric(ring_workload(4096, 4), m);
    let extra = long.pool_heap_allocs.saturating_sub(short.pool_heap_allocs);
    assert!(long.total_packets > short.total_packets);
    assert!(
        extra <= m as u64,
        "steady-state fabric routing performed heap allocations at 4k nodes: \
         +{extra} pool allocations (scheduling jitter bound {m})"
    );
    println!(
        "fabric allocation differential at 4096 nodes: +{} packets -> +{extra} pool allocations",
        long.total_packets - short.total_packets,
    );

    // Per-link queue stats from a recorded run: the flight recorder's link
    // lanes must be populated and the hottest link identifiable. The smoke
    // sweep checks this at 4k; the full sweep captures the 16k tier for the
    // JSON artifact.
    let stats_nodes = if smoke { 4096 } else { 16_384 };
    let report = Sim::new(ring_workload(stats_nodes, 1))
        .engine(EngineKind::Sharded)
        .shards(m)
        .switch(SimSwitch::Fabric(fabric_cfg))
        .sync(SyncConfig::paper_dyn2())
        .max_quanta(MAX_QUANTA)
        .record(ObsConfig::new())
        .run();
    let fr = report.obs.as_ref().expect("recorded run has a recorder");
    let load = fr.link_load().expect("fabric run records link load");
    let fabric = FatTreeFabric::new(fabric_cfg, stats_nodes);
    assert_eq!(load.bytes.len(), fabric.n_links());
    assert!(load.total_bytes() > 0, "traffic must cross the fabric");
    let (hot, hot_bytes) = load.hottest().expect("some link carried traffic");
    let peak = load.peak_quantum_bytes.iter().copied().max().unwrap_or(0);
    println!(
        "fabric link stats at {stats_nodes} nodes: {} links, {} total bytes, hottest {} \
         ({hot_bytes} bytes), peak quantum load {peak} bytes",
        fabric.n_links(),
        load.total_bytes(),
        fabric.link_label(hot as u32),
    );
    if smoke {
        return None;
    }
    Some(Value::Object(vec![
        (
            "config".into(),
            Value::Object(vec![
                ("rack_size".into(), Value::U64(fabric_cfg.rack_size as u64)),
                (
                    "uplinks_per_rack".into(),
                    Value::U64(fabric_cfg.uplinks_per_rack as u64),
                ),
                ("edge_bw_bps".into(), Value::U64(fabric_cfg.edge_bw_bps)),
                ("uplink_bw_bps".into(), Value::U64(fabric_cfg.uplink_bw_bps)),
                (
                    "max_queue_bytes".into(),
                    Value::U64(fabric_cfg.max_queue_bytes),
                ),
            ]),
        ),
        (
            "workload".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str("ring-exchange".into())),
                ("compute_ops".into(), Value::U64(FABRIC_COMPUTE)),
                ("bytes".into(), Value::U64(FABRIC_BYTES)),
            ]),
        ),
        ("tiers".into(), Value::Array(tiers)),
        (
            "link_stats".into(),
            Value::Object(vec![
                ("nodes".into(), Value::U64(stats_nodes as u64)),
                ("links".into(), Value::U64(fabric.n_links() as u64)),
                ("total_bytes".into(), Value::U64(load.total_bytes())),
                ("hottest_link".into(), Value::U64(hot as u64)),
                (
                    "hottest_label".into(),
                    Value::Str(fabric.link_label(hot as u32)),
                ),
                ("hottest_bytes".into(), Value::U64(hot_bytes)),
                ("max_peak_quantum_bytes".into(), Value::U64(peak)),
            ]),
        ),
    ]))
}

/// Idle-heavy tier parameters: microservice RPC incast where per wave only
/// the `IDLE_FRONTS` frontends plus their `IDLE_FANOUT` seeded backends are
/// hot — well under 1 % of a 64k-node cluster — while everyone else parks
/// after the first quantum. This is the workload shape the active-set
/// scheduler exists for: the full sweep pays O(total nodes) per quantum
/// regardless, the wake wheel pays O(active nodes). Waves are serialized
/// per frontend (each recv-all gates the next request), so peak in-flight
/// traffic is constant in `waves` — the axis the steady-state allocation
/// differential scales along.
const IDLE_FANOUT: usize = 64;
const IDLE_FRONTS: usize = 24;
const IDLE_REQUEST_BYTES: u64 = 2_048;
const IDLE_RESPONSE_BYTES: u64 = 16_384;
const IDLE_SERVICE_OPS: u64 = 50_000;
const IDLE_QUANTUM_US: u64 = 5;

fn idle_workload(n: usize, waves: usize) -> Vec<Program> {
    aqs_workloads::rpc_incast(
        n,
        IDLE_FRONTS,
        waves,
        IDLE_FANOUT,
        IDLE_REQUEST_BYTES,
        IDLE_RESPONSE_BYTES,
        IDLE_SERVICE_OPS,
        11,
    )
    .programs
}

fn run_idle(programs: Vec<Program>, workers: usize, full_sweep: bool) -> ShardedRunResult {
    Sim::new(programs)
        .engine(EngineKind::Sharded)
        .shards(workers)
        .sync(SyncConfig::fixed_micros(IDLE_QUANTUM_US))
        .force_full_sweep(full_sweep)
        .max_quanta(MAX_QUANTA)
        .run()
        .detail
        .as_sharded()
        .expect("sharded engine ran")
        .clone()
}

fn idle_obj(r: &ShardedRunResult, wall: f64) -> Value {
    let Value::Object(mut fields) = engine_obj(
        wall,
        r.total_quanta,
        r.total_packets,
        r.stragglers.count(),
        r.sim_end.as_nanos(),
    ) else {
        unreachable!("engine_obj returns an object")
    };
    fields.push(("nodes_executed".into(), Value::U64(r.nodes_executed)));
    fields.push(("pool_heap_allocs".into(), Value::U64(r.pool_heap_allocs)));
    Value::Object(fields)
}

/// The active-set headline tiers: the rpc-incast workload at 64k nodes with
/// the wake wheel on vs [`Sim::force_full_sweep`] (the pre-active-set
/// engine), then 256k nodes on the active set alone with a zero-allocation
/// differential. Bit-identity between the two modes is asserted at every
/// tier that runs both; the full sweep asserts the structural ≥3× win at
/// 64k and writes the before/after numbers into `BENCH_shard.json`.
/// `--smoke` checks identity and the activity ratio at 4k nodes only — no
/// timing gate, CI machines are noisy.
fn active_set_sweep(smoke: bool, workers: usize) -> Option<Value> {
    // Identity tier (every mode): cheap enough for CI, and the assertion
    // is the one that matters — the scheduler must never change the
    // simulation, only skip provably idle polls.
    let n0 = 4096;
    let programs = idle_workload(n0, 1);
    let full = run_idle(programs.clone(), workers, true);
    let active = run_idle(programs, workers, false);
    assert!(
        sharded_outcome_eq(&active, &full),
        "active-set outcome diverged from the full sweep at {n0} nodes"
    );
    let swept = full.nodes_executed;
    assert_eq!(
        swept,
        n0 as u64 * full.total_quanta,
        "full sweep must execute every node every quantum"
    );
    assert!(
        active.nodes_executed < swept / 10,
        "rpc-incast must be idle-heavy: active set executed {} of {swept} sweep slots",
        active.nodes_executed
    );
    println!(
        "active-set identity at n={n0}: {} of {swept} node executions ({:.2}% active), \
         outcomes bit-identical",
        active.nodes_executed,
        100.0 * active.nodes_executed as f64 / swept as f64,
    );
    if smoke {
        return None;
    }

    let mut tiers = Vec::new();
    // 64k before/after tier: the win must be structural (the sweep pays
    // O(total), the wheel O(active)), so a single iteration per mode is
    // enough for a ≥3× gate with a wide margin.
    let n = 65_536;
    let programs = idle_workload(n, 1);
    let full = run_idle(programs.clone(), workers, true);
    let active = run_idle(programs, workers, false);
    assert!(
        sharded_outcome_eq(&active, &full),
        "active-set outcome diverged from the full sweep at {n} nodes"
    );
    let (full_wall, active_wall) = (full.wall.as_secs_f64(), active.wall.as_secs_f64());
    let speedup = full_wall / active_wall.max(1e-12);
    assert!(
        speedup >= 3.0,
        "active set must beat the full sweep ≥3x at {n} nodes, got {speedup:.2}x \
         ({active_wall:.4}s vs {full_wall:.4}s)"
    );
    println!(
        "active-set n={n} workers={workers}: full sweep {full_wall:>8.4}s, \
         active set {active_wall:>8.4}s ({speedup:.1}x), {} of {} node executions",
        active.nodes_executed, full.nodes_executed,
    );
    tiers.push(Value::Object(vec![
        ("nodes".into(), Value::U64(n as u64)),
        ("full_sweep".into(), idle_obj(&full, full_wall)),
        ("active_set".into(), idle_obj(&active, active_wall)),
        ("speedup_active_vs_sweep".into(), Value::F64(speedup)),
        (
            "activity_ratio".into(),
            Value::F64(active.nodes_executed as f64 / full.nodes_executed as f64),
        ),
    ]));

    // 256k tier: active set only (the full sweep is the engine this tier
    // exists to retire), with the allocation differential run at full
    // scale — 4× the waves (same frontends, same peak in-flight incast,
    // 4× the packets) must not add pool allocations beyond the per-worker
    // warm-up jitter. The shared pool depot is what makes this hold: each
    // wave's incast migrates mailbox nodes into the receiving workers'
    // pools, and the depot recirculates the overflow back to the senders.
    let n = 262_144;
    let active = run_idle(idle_workload(n, 1), workers, false);
    let long = run_idle(idle_workload(n, 4), workers, false);
    let extra_packets = long.total_packets - active.total_packets;
    let extra_allocs = long
        .pool_heap_allocs
        .saturating_sub(active.pool_heap_allocs);
    assert!(extra_packets > 0, "long run must route more packets");
    // Warm-up is identical (wave 1 of both runs is the same seeded
    // traffic), so any surplus is a steady-state leak. The allowance is a
    // constant per worker — drain-timing jitter can strand a fraction of a
    // pool working set — never proportional to the extra packets: 3× the
    // packets at ~0.25 allocs each would blow this bound a hundredfold.
    let jitter = 128 * workers as u64;
    assert!(
        extra_allocs <= jitter,
        "steady-state packet routing performed heap allocations at {n} nodes: \
         +{extra_allocs} pool allocations over +{extra_packets} packets \
         (jitter bound {jitter})"
    );
    println!(
        "active-set n={n} workers={workers}: {:>8.4}s, {} node executions over {} quanta, \
         +{extra_packets} packets -> +{extra_allocs} pool allocations",
        active.wall.as_secs_f64(),
        active.nodes_executed,
        active.total_quanta,
    );
    tiers.push(Value::Object(vec![
        ("nodes".into(), Value::U64(n as u64)),
        (
            "active_set".into(),
            idle_obj(&active, active.wall.as_secs_f64()),
        ),
        (
            "activity_ratio".into(),
            Value::F64(active.nodes_executed as f64 / (n as u64 * active.total_quanta) as f64),
        ),
        (
            "steady_state_allocs_per_packet".into(),
            Value::F64(extra_allocs as f64 / extra_packets as f64),
        ),
    ]));

    Some(Value::Object(vec![
        (
            "workload".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str("rpc-incast".into())),
                ("fronts".into(), Value::U64(IDLE_FRONTS as u64)),
                ("fanout".into(), Value::U64(IDLE_FANOUT as u64)),
                ("request_bytes".into(), Value::U64(IDLE_REQUEST_BYTES)),
                ("response_bytes".into(), Value::U64(IDLE_RESPONSE_BYTES)),
                ("service_ops".into(), Value::U64(IDLE_SERVICE_OPS)),
            ]),
        ),
        (
            "policy".into(),
            Value::Str(format!("fixed-{IDLE_QUANTUM_US}us")),
        ),
        ("workers".into(), Value::U64(workers as u64)),
        ("tiers".into(), Value::Array(tiers)),
    ]))
}

/// Mixed-straggler tier parameters: one shard's nodes run tight dependency
/// chains (every quantum above the safe bound makes them straggle), the
/// rest heavy compute with sparse exchanges. `host_work_per_op > 0` makes
/// every re-executed quantum cost real wall time, so rollback waste is
/// visible on the clock, not just in the counters.
const MIXED_NODES: usize = 64;
const MIXED_WORKERS: usize = 4;
const MIXED_QUANTUM_US: u64 = 200;
const MIXED_HOST_WORK: f64 = 1.0;
const MIXED_CHAIN_ROUNDS: usize = 250;
const MIXED_CHAIN_COMPUTE: u64 = 20_000;
const MIXED_QUIET_ROUNDS: usize = 40;
const MIXED_QUIET_COMPUTE: u64 = 150_000;

/// The mixed straggler workload: the first quarter of the ranks — exactly
/// shard 0 at `MIXED_WORKERS` — ping-pong in pairs with small compute
/// between rounds, so a 200 µs window holds several chain hops and the
/// optimistic fixed point keeps discovering in-window arrivals. The other
/// three quarters run long compute with one sparse ring exchange per round:
/// their packets land comfortably across window edges.
fn mixed_straggler_workload(n: usize) -> Vec<Program> {
    let mut b = MpiBuilder::new(n);
    let chatty = n / 4;
    for _ in 0..MIXED_CHAIN_ROUNDS {
        for r in 0..chatty {
            b.compute(r, MIXED_CHAIN_COMPUTE);
        }
        for pair in (0..chatty).step_by(2) {
            b.p2p(pair, pair + 1, 512);
            b.p2p(pair + 1, pair, 512);
        }
    }
    for _ in 0..MIXED_QUIET_ROUNDS {
        for r in chatty..n {
            b.compute(r, MIXED_QUIET_COMPUTE);
        }
        for r in chatty..n {
            let next = if r + 1 == n { chatty } else { r + 1 };
            b.p2p(r, next, 4096);
        }
    }
    b.build()
}

fn run_rollback(programs: Vec<Program>, hybrid: bool) -> ShardedOptimisticRunResult {
    let mut sim = Sim::new(programs)
        .engine(if hybrid {
            EngineKind::Hybrid
        } else {
            EngineKind::ShardedOptimistic
        })
        .shards(MIXED_WORKERS)
        .sync(SyncConfig::fixed_micros(MIXED_QUANTUM_US))
        .host_work_per_op(MIXED_HOST_WORK)
        .max_quanta(MAX_QUANTA);
    if hybrid {
        sim = sim.hybrid_policy(HybridPolicy {
            degrade_after: 1,
            recover_after: 4,
        });
    }
    sim.run()
        .detail
        .as_sharded_optimistic()
        .expect("rollback engine ran")
        .clone()
}

fn rollback_obj(label: &str, wall: f64, r: &ShardedOptimisticRunResult) -> Value {
    Value::Object(vec![
        ("engine".into(), Value::Str(label.into())),
        ("workers".into(), Value::U64(MIXED_WORKERS as u64)),
        ("wall_secs".into(), Value::F64(wall)),
        ("windows".into(), Value::U64(r.windows)),
        ("total_packets".into(), Value::U64(r.total_packets)),
        ("checkpoints".into(), Value::U64(r.checkpoints)),
        ("rollbacks".into(), Value::U64(r.rollbacks)),
        ("wasted_sim_ns".into(), Value::U64(r.wasted_sim.as_nanos())),
        ("degraded_windows".into(), Value::U64(r.degraded_windows)),
        (
            "conservative_windows".into(),
            Value::U64(r.conservative_windows),
        ),
        (
            "mode_switches".into(),
            Value::U64(r.mode_events.len() as u64),
        ),
        ("stragglers".into(), Value::U64(r.stragglers.count())),
        ("sim_end_ns".into(), Value::U64(r.sim_end.as_nanos())),
    ])
}

/// The hybrid headline tier: sharded-optimistic vs hybrid on the mixed
/// straggler workload. The smoke gate checks the deterministic counters
/// only — the hybrid must actually degrade its chatty shard, roll back
/// less, and waste less re-executed simulated time than pure optimistic
/// execution, while both conserve every message the deterministic engine
/// delivers. The full sweep additionally times both and asserts the hybrid
/// wins on wall clock (re-execution costs real host work here).
fn hybrid_sweep(smoke: bool, iterations: u32) -> Option<Value> {
    let programs = mixed_straggler_workload(MIXED_NODES);
    let det_messages = Sim::new(programs.clone())
        .sync(SyncConfig::fixed_micros(MIXED_QUANTUM_US))
        .max_quanta(MAX_QUANTA)
        .run()
        .messages_received;

    let iterations = if smoke { 1 } else { iterations };
    let (opt_wall, opt) = measure(
        iterations,
        || run_rollback(programs.clone(), false),
        |r| r.wall.as_secs_f64(),
    );
    let (hyb_wall, hyb) = measure(
        iterations,
        || run_rollback(programs.clone(), true),
        |r| r.wall.as_secs_f64(),
    );

    for (label, r) in [("sharded-optimistic", &opt), ("hybrid", &hyb)] {
        assert_eq!(
            r.messages_received_total(),
            det_messages,
            "{label}: lost messages on the mixed straggler workload"
        );
    }
    assert!(
        opt.rollbacks > 0,
        "the chatty shard must straggle under the unsafe quantum"
    );
    assert!(
        hyb.conservative_windows > 0 && !hyb.mode_events.is_empty(),
        "the hybrid must actually degrade the chatty shard"
    );
    assert!(
        hyb.rollbacks < opt.rollbacks,
        "hybrid must roll back less than pure optimistic \
         ({} vs {})",
        hyb.rollbacks,
        opt.rollbacks
    );
    assert!(
        hyb.wasted_sim < opt.wasted_sim,
        "hybrid must waste less re-executed simulated time \
         ({} vs {})",
        hyb.wasted_sim,
        opt.wasted_sim
    );
    println!(
        "mixed-straggler n={MIXED_NODES} m={MIXED_WORKERS} q={MIXED_QUANTUM_US}us: \
         optimistic {opt_wall:>8.4}s ({or} rollbacks, {ow} wasted)  \
         hybrid {hyb_wall:>8.4}s ({hr} rollbacks, {hw} wasted, {hc} conservative windows)",
        or = opt.rollbacks,
        ow = opt.wasted_sim,
        hr = hyb.rollbacks,
        hw = hyb.wasted_sim,
        hc = hyb.conservative_windows,
    );
    if smoke {
        return None;
    }
    assert!(
        hyb_wall < opt_wall,
        "hybrid must beat pure optimistic wall clock on the mixed straggler \
         workload ({hyb_wall:.4}s vs {opt_wall:.4}s)"
    );
    Some(Value::Object(vec![
        (
            "workload".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str("mixed-straggler".into())),
                ("nodes".into(), Value::U64(MIXED_NODES as u64)),
                ("chain_rounds".into(), Value::U64(MIXED_CHAIN_ROUNDS as u64)),
                ("chain_compute_ops".into(), Value::U64(MIXED_CHAIN_COMPUTE)),
                ("quiet_rounds".into(), Value::U64(MIXED_QUIET_ROUNDS as u64)),
                ("quiet_compute_ops".into(), Value::U64(MIXED_QUIET_COMPUTE)),
                ("host_work_per_op".into(), Value::F64(MIXED_HOST_WORK)),
            ]),
        ),
        ("policy".into(), Value::Str("fixed-200us".into())),
        (
            "runs".into(),
            Value::Array(vec![
                rollback_obj("sharded-optimistic", opt_wall, &opt),
                rollback_obj("hybrid", hyb_wall, &hyb),
            ]),
        ),
        (
            "hybrid_speedup_vs_optimistic".into(),
            Value::F64(opt_wall / hyb_wall.max(1e-12)),
        ),
    ]))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1usize, 2, avail];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    let node_counts: &[usize] = if smoke { &[64] } else { &[64, 256, 1024] };
    let iterations: u32 = if smoke { 1 } else { 2 };

    let mut configs = Vec::new();
    for &n in node_counts {
        let spec = Workload::Burst {
            compute: COMPUTE_OPS,
            bytes: BYTES,
        }
        .build(n, 0);
        for (label, sync) in policies() {
            let mut sharded_runs = Vec::new();
            for &m in &worker_counts {
                let programs = spec.programs.clone();
                let (wall, r) = measure(
                    iterations,
                    || run_sharded(programs.clone(), &sync, m),
                    |r| r.wall.as_secs_f64(),
                );
                sharded_runs.push((m, wall, r));
            }

            // Worker-count independence: every M must agree bit-for-bit.
            let (_, best_wall, base) = sharded_runs
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(m, w, r)| (*m, *w, r))
                .expect("at least one worker count");
            for (m, _, r) in &sharded_runs {
                assert!(
                    sharded_outcome_eq(r, base),
                    "n={n} {label}: sharded outcome depends on worker count M={m}"
                );
            }

            println!(
                "n={n:>4} {label:<13} sharded {best_wall:>9.4}s  packets {p}  pool-allocs {a}",
                p = base.total_packets,
                a = base.pool_heap_allocs,
            );

            let entry = vec![
                ("nodes".into(), Value::U64(n as u64)),
                ("policy".into(), Value::Str(label.into())),
                (
                    "sharded".into(),
                    Value::Array(
                        sharded_runs
                            .iter()
                            .map(|(m, wall, r)| {
                                let Value::Object(mut fields) = engine_obj(
                                    *wall,
                                    r.total_quanta,
                                    r.total_packets,
                                    r.stragglers.count(),
                                    r.sim_end.as_nanos(),
                                ) else {
                                    unreachable!("engine_obj returns an object")
                                };
                                fields.insert(0, ("workers".into(), Value::U64(*m as u64)));
                                fields.push((
                                    "pool_heap_allocs".into(),
                                    Value::U64(r.pool_heap_allocs),
                                ));
                                Value::Object(fields)
                            })
                            .collect(),
                    ),
                ),
                ("worker_counts_agree".into(), Value::Bool(true)),
            ];
            configs.push(Value::Object(entry));
        }
    }

    // Allocation differential: 4× the all-to-all rounds must not add pool
    // allocations beyond the 1-round warm-up — steady-state packet routing
    // is allocation-free. Scheduling across the 2 workers can shift each
    // worker's pool high-water mark by one warm-up alloc, hence the jitter
    // bound; a per-packet regression would show up as thousands.
    let gt = SyncConfig::ground_truth();
    let short = run_sharded(burst_rounds(1), &gt, 2);
    let long = run_sharded(burst_rounds(4), &gt, 2);
    let extra_packets = long.total_packets - short.total_packets;
    let extra_allocs = long.pool_heap_allocs.saturating_sub(short.pool_heap_allocs);
    assert!(extra_packets > 0, "long run must route more packets");
    assert!(
        extra_allocs <= 2,
        "steady-state packet routing performed heap allocations: \
         +{extra_allocs} pool allocations (scheduling jitter bound 2)"
    );
    println!(
        "allocation differential: +{extra_packets} packets -> +{extra_allocs} pool allocations \
         ({} warm-up allocs for {} packets in the short run)",
        short.pool_heap_allocs, short.total_packets,
    );

    let m_max = *worker_counts.last().expect("at least one worker count");
    let active_set_section = active_set_sweep(smoke, m_max);
    let fabric_section = fabric_sweep(smoke, &worker_counts);
    let hybrid_section = hybrid_sweep(smoke, iterations);

    if smoke {
        println!(
            "smoke sweep passed (worker-count independence + allocation + active-set + \
             fabric + hybrid assertions only)"
        );
        return;
    }

    let doc = Value::Object(vec![
        ("bench".into(), Value::Str("shard_scaling".into())),
        (
            "workload".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str("burst".into())),
                ("compute_ops".into(), Value::U64(COMPUTE_OPS)),
                ("bytes".into(), Value::U64(BYTES)),
                ("host_work_per_op".into(), Value::F64(0.0)),
            ]),
        ),
        ("iterations".into(), Value::U64(iterations as u64)),
        ("available_parallelism".into(), Value::U64(avail as u64)),
        (
            "steady_state_allocs_per_packet".into(),
            Value::F64(extra_allocs as f64 / extra_packets as f64),
        ),
        ("configs".into(), Value::Array(configs)),
        (
            "active_set".into(),
            active_set_section.expect("full sweep builds the active-set section"),
        ),
        (
            "fabric".into(),
            fabric_section.expect("full sweep builds the fabric section"),
        ),
        (
            "hybrid".into(),
            hybrid_section.expect("full sweep builds the hybrid section"),
        ),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write("BENCH_shard.json", json + "\n").expect("write BENCH_shard.json");
    println!("\nwrote BENCH_shard.json");
}
