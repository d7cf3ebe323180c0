//! Recording-overhead benchmark and the counter-based perf-regression gate.
//!
//! Two jobs share this binary:
//!
//! * **Timing** (full mode): runs the 16-node burst workload on the
//!   sharded engine back to back with the `NullRecorder` (recording compiled out) and with a full
//!   `FlightRecorder` attached, and compares min-of-N wall-clocks. The
//!   observability subsystem's contract is that recording adds no lock to
//!   the packet path and stays within a few percent of the null run.
//! * **Counter gates** (both modes): deterministic engine counters on a
//!   seeded rpc-incast workload — the active-set scan count
//!   (`nodes_executed`), the pool warm-up footprint (`pool_heap_allocs`),
//!   and the steady-state allocations-per-packet differential. Full mode
//!   measures them and writes them as the `gates` section of
//!   `BENCH_obs_overhead.json`; `--smoke` (the CI entry point) re-measures
//!   and asserts against that checked-in baseline, so a scheduling or
//!   allocation regression fails CI even though CI machines are too noisy
//!   to gate on wall-clock.
//!
//! The schema is documented in EXPERIMENTS.md. Regenerate with:
//!
//! ```text
//! cargo run --release -p aqs-bench --bin obs_overhead
//! ```

use aqs_cluster::{EngineKind, RunReport, ShardedRunResult, Sim};
use aqs_core::SyncConfig;
use aqs_obs::ObsConfig;
use aqs_workloads::Workload;
use serde_json::Value;

const NODES: usize = 16;
const COMPUTE_OPS: u64 = 200_000;
const BYTES: u64 = 1024;
const ITERATIONS: u32 = 5;

/// Counter-gate workload: a mostly-idle incast at 1k nodes on the sharded
/// engine. Every gated counter is a pure function of the simulated history
/// — the active-set scheduler's executed-node count is identical for every
/// worker count by design — so the scan baseline is exact, not a tolerance
/// band.
const GATE_NODES: usize = 1024;
const GATE_FRONTS: usize = 8;
const GATE_WAVES: usize = 4;
const GATE_FANOUT: usize = 64;
const GATE_WORKERS: usize = 2;
const GATE_QUANTUM_US: u64 = 5;

fn policies() -> Vec<(&'static str, SyncConfig)> {
    vec![
        ("ground-truth", SyncConfig::ground_truth()),
        ("dyn1", SyncConfig::paper_dyn1()),
    ]
}

/// Minimum wall over `ITERATIONS` runs (min is the noise-robust estimator
/// for a deterministic workload), plus the last report.
fn measure(mut run: impl FnMut() -> RunReport) -> (f64, RunReport) {
    let mut last = run();
    let mut best = last.wall_clock.as_secs_f64();
    for _ in 1..ITERATIONS {
        last = run();
        best = best.min(last.wall_clock.as_secs_f64());
    }
    (best, last)
}

/// One gate-workload run on the sharded engine at `waves` request waves.
fn gate_run(waves: usize) -> ShardedRunResult {
    let programs = aqs_workloads::rpc_incast(
        GATE_NODES,
        GATE_FRONTS,
        waves,
        GATE_FANOUT,
        2_048,
        16_384,
        50_000,
        11,
    )
    .programs;
    Sim::new(programs)
        .engine(EngineKind::Sharded)
        .shards(GATE_WORKERS)
        .sync(SyncConfig::fixed_micros(GATE_QUANTUM_US))
        .max_quanta(50_000_000)
        .run()
        .detail
        .as_sharded()
        .expect("sharded engine ran")
        .clone()
}

/// Measured counter-gate values. `measure_gates` also enforces the
/// self-contained invariants (steady-state zero-alloc, idle-heaviness) in
/// both modes, so a regeneration can never bake a broken state into the
/// baseline.
struct GateCounters {
    nodes_executed: u64,
    pool_heap_allocs: u64,
    steady_extra_allocs: u64,
    steady_extra_packets: u64,
}

fn measure_gates() -> GateCounters {
    let short = gate_run(GATE_WAVES);
    let long = gate_run(GATE_WAVES * 3);
    let extra_packets = long.total_packets - short.total_packets;
    let extra_allocs = long.pool_heap_allocs.saturating_sub(short.pool_heap_allocs);
    assert!(extra_packets > 0, "long run must route more packets");
    // Steady state is gated absolutely, baseline or not: the extra waves
    // re-route the same incast shape, so any allocation growth beyond
    // cross-worker drain-timing jitter is a per-packet leak.
    let jitter = 128 * GATE_WORKERS as u64;
    assert!(
        extra_allocs <= jitter,
        "steady-state packet routing allocates: +{extra_allocs} pool allocations \
         over +{extra_packets} packets (jitter bound {jitter})"
    );
    // The active set must actually be active: a scheduler regression that
    // silently fell back to full sweeps would pass an equality-only check
    // after a baseline regeneration, but not this structural bound.
    let swept = GATE_NODES as u64 * short.total_quanta;
    assert!(
        short.nodes_executed < swept / 4,
        "gate workload must be idle-heavy: {} of {swept} sweep slots executed",
        short.nodes_executed
    );
    GateCounters {
        nodes_executed: short.nodes_executed,
        pool_heap_allocs: short.pool_heap_allocs,
        steady_extra_allocs: extra_allocs,
        steady_extra_packets: extra_packets,
    }
}

/// `--smoke`: assert the measured counters against the checked-in
/// `BENCH_obs_overhead.json` baselines. Counters, not wall-clock — CI
/// machines are too noisy to time, but these numbers are deterministic.
fn smoke_gate() {
    let raw = std::fs::read_to_string("BENCH_obs_overhead.json")
        .expect("BENCH_obs_overhead.json is checked in; regenerate with obs_overhead");
    let doc: Value = serde_json::from_str(&raw).expect("BENCH_obs_overhead.json parses");
    let gates = doc
        .get("gates")
        .expect("baseline has a gates section; regenerate with obs_overhead");
    let baseline_u64 = |key: &str| -> u64 {
        match gates.get(key) {
            Some(&Value::U64(v)) => v,
            other => panic!("gates.{key} must be a u64 baseline, got {other:?}"),
        }
    };
    let expect_executed = baseline_u64("nodes_executed");
    let max_allocs = baseline_u64("max_pool_heap_allocs");
    let got = measure_gates();
    // The scan counter pins the active-set schedule itself: executing even
    // one extra (or one fewer) node against the same simulated history
    // means the wake wheel's arming rules changed. Exact, deterministic,
    // and worker-count-independent — regenerate the baseline only for an
    // intentional scheduler change.
    assert_eq!(
        got.nodes_executed, expect_executed,
        "active-set scan count diverged from the checked-in baseline \
         (intentional scheduler change? regenerate BENCH_obs_overhead.json)"
    );
    // Warm-up allocations track the peak in-flight working set, which
    // drain timing shifts by a few batches run to run; the baseline is a
    // ceiling with that headroom, and a per-packet regression overshoots
    // it by orders of magnitude.
    assert!(
        got.pool_heap_allocs <= max_allocs,
        "pool warm-up footprint regressed: {} allocs > ceiling {max_allocs} \
         (regenerate BENCH_obs_overhead.json if the workload changed)",
        got.pool_heap_allocs
    );
    println!(
        "obs_overhead smoke gate passed: nodes_executed {} (exact), \
         pool warm-up {} <= {max_allocs} allocs, steady state +{} allocs / +{} packets",
        got.nodes_executed, got.pool_heap_allocs, got.steady_extra_allocs, got.steady_extra_packets,
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_gate();
        return;
    }
    let spec = Workload::Burst {
        compute: COMPUTE_OPS,
        bytes: BYTES,
    }
    .build(NODES, 0);
    let mut configs = Vec::new();
    for (label, sync) in policies() {
        let base = || {
            Sim::new(spec.programs.clone())
                .engine(EngineKind::Sharded)
                .shards(GATE_WORKERS)
                .sync(sync.clone())
                .max_quanta(50_000_000)
        };
        let (null_wall, null_report) = measure(|| base().run());
        let (rec_wall, rec_report) = measure(|| base().record(ObsConfig::new()).run());

        // Recording must never perturb the simulation.
        assert_eq!(
            null_report.simulated_outcome(),
            rec_report.simulated_outcome(),
            "{label}: recording changed the simulated outcome"
        );
        let fr = rec_report.obs.as_ref().expect("recording enabled");
        assert_eq!(
            fr.total_packets(),
            rec_report.total_packets,
            "{label}: flight recorder lost packets"
        );

        let overhead = rec_wall / null_wall.max(1e-12) - 1.0;
        println!(
            "{label:<13} null {null_wall:>9.4}s  recorded {rec_wall:>9.4}s  \
             overhead {:>6.2}%  quanta {}  packets {}",
            overhead * 100.0,
            rec_report.total_quanta,
            rec_report.total_packets,
        );
        configs.push(Value::Object(vec![
            ("policy".into(), Value::Str(label.into())),
            ("null_wall_secs".into(), Value::F64(null_wall)),
            ("recorded_wall_secs".into(), Value::F64(rec_wall)),
            ("overhead_frac".into(), Value::F64(overhead)),
            ("total_quanta".into(), Value::U64(rec_report.total_quanta)),
            ("total_packets".into(), Value::U64(rec_report.total_packets)),
            ("ring_samples".into(), Value::U64(fr.ring_len() as u64)),
            ("dropped_samples".into(), Value::U64(fr.dropped())),
            ("results_match".into(), Value::Bool(true)),
        ]));
    }
    // Counter gates: measure, then write the baseline --smoke asserts
    // against. The warm-up ceiling gets 2× headroom (drain timing moves it
    // by a few batches, a leak moves it by thousands); the scan count is
    // written exactly.
    let gates = measure_gates();
    println!(
        "counter gates: nodes_executed {}  pool warm-up {} allocs  \
         steady state +{} allocs / +{} packets",
        gates.nodes_executed,
        gates.pool_heap_allocs,
        gates.steady_extra_allocs,
        gates.steady_extra_packets,
    );
    let doc = Value::Object(vec![
        ("bench".into(), Value::Str("obs_overhead".into())),
        (
            "workload".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str("burst".into())),
                ("nodes".into(), Value::U64(NODES as u64)),
                ("compute_ops".into(), Value::U64(COMPUTE_OPS)),
                ("bytes".into(), Value::U64(BYTES)),
            ]),
        ),
        ("iterations".into(), Value::U64(ITERATIONS as u64)),
        ("configs".into(), Value::Array(configs)),
        (
            "gates".into(),
            Value::Object(vec![
                (
                    "workload".into(),
                    Value::Object(vec![
                        ("kind".into(), Value::Str("rpc-incast".into())),
                        ("nodes".into(), Value::U64(GATE_NODES as u64)),
                        ("fronts".into(), Value::U64(GATE_FRONTS as u64)),
                        ("waves".into(), Value::U64(GATE_WAVES as u64)),
                        ("fanout".into(), Value::U64(GATE_FANOUT as u64)),
                        (
                            "policy".into(),
                            Value::Str(format!("fixed-{GATE_QUANTUM_US}us")),
                        ),
                        ("workers".into(), Value::U64(GATE_WORKERS as u64)),
                    ]),
                ),
                ("nodes_executed".into(), Value::U64(gates.nodes_executed)),
                (
                    "pool_heap_allocs".into(),
                    Value::U64(gates.pool_heap_allocs),
                ),
                (
                    "max_pool_heap_allocs".into(),
                    Value::U64(gates.pool_heap_allocs * 2),
                ),
                (
                    "steady_state_extra_allocs".into(),
                    Value::U64(gates.steady_extra_allocs),
                ),
                (
                    "steady_state_allocs_per_packet".into(),
                    Value::F64(
                        gates.steady_extra_allocs as f64 / gates.steady_extra_packets as f64,
                    ),
                ),
            ]),
        ),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write("BENCH_obs_overhead.json", json + "\n").expect("write BENCH_obs_overhead.json");
    println!("wrote BENCH_obs_overhead.json");
}
