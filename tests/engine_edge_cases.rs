//! Integration tests of engine features beyond the happy path: custom
//! switch fabrics, heterogeneous hosts, sampling, rejected builder values,
//! and the optimistic engine's exactness on random workloads.

use aqs::cluster::{
    run_workload, BarrierCostModel, ClusterConfig, EngineKind, RunReport, Sim, SimError, SimSwitch,
};
use aqs::core::SyncConfig;
use aqs::net::{LatencyMatrixSwitch, StoreAndForwardSwitch};
use aqs::node::{HostModel, Op, Program, Rank, RegionId, SamplingModel, SendTarget};
use aqs::time::SimDuration;
use aqs::workloads::{burst, ping_pong, uniform_compute, WorkloadSpec};
use proptest::prelude::*;

mod common;
use common::random_workload;

fn base(seed: u64) -> ClusterConfig {
    ClusterConfig::new(SyncConfig::ground_truth()).with_seed(seed)
}

fn det(programs: Vec<aqs::node::Program>, config: &ClusterConfig) -> RunReport {
    Sim::new(programs).config(config.clone()).run()
}

#[test]
fn latency_matrix_inflates_cross_rack_roundtrip() {
    let spec = ping_pong(2, 5, 64);
    let flat = det(spec.programs.clone(), &base(1));
    let racked = Sim::new(spec.programs)
        .config(base(1))
        .switch(SimSwitch::LatencyMatrix(LatencyMatrixSwitch::uniform(
            2,
            SimDuration::from_micros(10),
        )))
        .run();
    // Each hop gains 10 µs; 10 hops total.
    let delta = racked.sim_end - flat.sim_end;
    assert_eq!(delta, SimDuration::from_micros(100));
    assert_eq!(
        racked.stragglers.count(),
        0,
        "higher latency only helps safety"
    );
}

#[test]
fn store_and_forward_congestion_slows_bursts() {
    let spec = burst(4, 10_000, 60_000); // 60 kB to every peer at once
    let perfect = det(spec.programs.clone(), &base(2));
    let congested = Sim::new(spec.programs)
        .config(base(2))
        .switch(SimSwitch::StoreAndForward(StoreAndForwardSwitch::new(
            SimDuration::from_micros(1),
            1_000_000_000, // 1 Gb/s ports
        )))
        .run();
    assert!(
        congested.sim_end > perfect.sim_end,
        "finite port bandwidth must delay the exchange: {} vs {}",
        congested.sim_end,
        perfect.sim_end
    );
}

#[test]
fn slower_node_override_slows_the_cluster() {
    // Pure compute + a free barrier isolates execution cost, where the
    // 4x-slower node 1 must set the pace. (No packets → no straggler
    // timing to disturb, so simulated time must be identical too.)
    let spec = uniform_compute(2, 1_000_000, 0.0);
    let even = base(3)
        .with_host(HostModel::uniform(30.0, 0.02))
        .with_barrier(BarrierCostModel::free());
    let skewed = even
        .clone()
        .with_node_host(1, HostModel::uniform(120.0, 0.02));
    let fast = det(spec.programs.clone(), &even)
        .detail
        .as_deterministic()
        .unwrap()
        .clone();
    let slow = det(spec.programs, &skewed)
        .detail
        .as_deterministic()
        .unwrap()
        .clone();
    assert!(
        slow.host_elapsed > fast.host_elapsed * 2,
        "{} !> 2 x {}",
        slow.host_elapsed,
        fast.host_elapsed
    );
    // Simulated results are unaffected by host speed.
    assert_eq!(slow.sim_end, fast.sim_end);
}

#[test]
fn sampling_composes_with_every_policy() {
    let spec = burst(4, 500_000, 1024);
    let sampling = SamplingModel::new(SimDuration::from_micros(100), 0.25, 10.0, 0.0);
    for sync in [
        SyncConfig::ground_truth(),
        SyncConfig::fixed_micros(100),
        SyncConfig::paper_dyn1(),
    ] {
        let plain = run_workload(&spec, &base(4).with_sync(sync.clone()));
        let sampled = run_workload(
            &spec,
            &base(4).with_sync(sync.clone()).with_sampling(sampling),
        );
        // Functional behaviour never changes.
        assert_eq!(sampled.total_packets, plain.total_packets, "under {sync}");
        assert_eq!(sampled.total_ops(), plain.total_ops(), "under {sync}");
    }
    // Under the straggler-free ground truth, zero-sigma sampling leaves the
    // simulated timeline untouched and only cuts host cost. (Under lossy
    // quanta, cheaper host execution shifts straggler deliveries, so the
    // timelines legitimately diverge.)
    let plain = run_workload(&spec, &base(4));
    let sampled = run_workload(&spec, &base(4).with_sampling(sampling));
    assert_eq!(sampled.sim_end, plain.sim_end);
    assert!(
        sampled.host_elapsed < plain.host_elapsed,
        "{} !< {}",
        sampled.host_elapsed,
        plain.host_elapsed
    );
}

/// A host-work factor that is not a finite, non-negative number is a typed
/// configuration error — before any worker can spin on it (`inf` would
/// busy-wait for `u64::MAX` ns) or silently ignore it (negative, NaN).
#[test]
fn host_work_per_op_rejects_non_finite_and_negative_factors() {
    let spec = ping_pong(2, 2, 64);
    for engine in [EngineKind::Sharded, EngineKind::Hybrid] {
        for bad in [f64::INFINITY, f64::NAN, -1.0] {
            let err = Sim::new(spec.programs.clone())
                .engine(engine)
                .shards(2)
                .host_work_per_op(bad)
                .try_run()
                .unwrap_err();
            assert_eq!(
                err,
                SimError::InvalidHostWork(bad.to_string()),
                "{engine:?} factor {bad}"
            );
            assert!(err.to_string().contains("finite and >= 0"), "{err}");
        }
        // The boundary value is fine: zero means no busy-work at all.
        let ok = Sim::new(spec.programs.clone())
            .engine(engine)
            .shards(2)
            .host_work_per_op(0.0)
            .try_run()
            .expect("zero host work is valid");
        assert_eq!(ok.messages_received, 4);
    }
}

#[test]
fn a_latency_matrix_with_too_few_ports_is_a_typed_error_on_every_engine() {
    // Two ports for four nodes used to panic: the pools while building their
    // tables, the oracle mid-run at the first frame for node 2.
    let spec = burst(4, 2, 64);
    let small = LatencyMatrixSwitch::uniform(2, SimDuration::from_micros(1));
    for engine in [
        EngineKind::Deterministic,
        EngineKind::Sharded,
        EngineKind::ShardedOptimistic,
        EngineKind::Hybrid,
    ] {
        let sim = Sim::new(spec.programs.clone())
            .engine(engine)
            .shards(2)
            .switch(SimSwitch::LatencyMatrix(small.clone()));
        let outcome = std::panic::catch_unwind(|| sim.try_run().map(|r| r.sim_end));
        let err = outcome.expect("no panic").expect_err("too few ports");
        assert_eq!(
            err,
            SimError::TooFewSwitchPorts { ports: 2, nodes: 4 },
            "{engine:?}"
        );
        assert_eq!(err.to_string(), "latency matrix has 2 ports for 4 nodes");
    }
}

#[test]
fn a_stateful_switch_runs_but_cannot_be_snapshotted_or_resumed() {
    // A snapshot does not carry the egress queues: resuming this run from
    // cut 1 used to end at 11 211 638 ns instead of 11 276 438, silently.
    let spec = burst(8, 2_000, 200_000);
    let queues = StoreAndForwardSwitch::new(SimDuration::from_nanos(500), 1_000_000_000);
    let plain = Sim::new(spec.programs).sync(SyncConfig::fixed_micros(10));
    let sim = plain.clone().switch(SimSwitch::StoreAndForward(queues));
    let snap = plain
        .snapshot_at(1)
        .expect("the perfect switch is capturable");
    let rejected = SimError::SnapshotStatefulSwitch {
        switch: "StoreAndForward",
    };
    assert_eq!(sim.snapshot_at(1).unwrap_err(), rejected);
    assert_eq!(sim.step_snapshot(None, 1).unwrap_err(), rejected);
    assert_eq!(sim.resume(&snap).unwrap_err(), rejected);
    let whole = sim.try_run().expect("an uninterrupted run is fine");
    assert_eq!(whole.sim_end.as_nanos(), 11_276_438);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Optimism is exact: for arbitrary collective workloads the committed
    /// optimistic timeline equals the conservative ground truth's.
    #[test]
    fn optimistic_equals_conservative_on_random_workloads(
        n in prop::sample::select(vec![2usize, 3, 4]),
        phases in prop::collection::vec((any::<u8>(), 0u32..60, 0u32..8_000), 1..4),
    ) {
        let programs = random_workload(n, &phases, 0.1);
        let conservative = det(programs.clone(), &base(7));
        // One shard, a fixed 40 µs free-run window, and a cascade bound no
        // 40-hop in-window chain can reach: the classic optimistic engine.
        let optimistic = Sim::new(programs)
            .engine(EngineKind::ShardedOptimistic)
            .config(base(7))
            .sync(SyncConfig::fixed_micros(40))
            .shards(1)
            .cascade_bound(256)
            .run();
        let d = optimistic.detail.as_sharded_optimistic().expect("opt detail");
        prop_assert_eq!(d.degraded_windows, 0);
        prop_assert_eq!(optimistic.simulated_outcome(), conservative.simulated_outcome());
    }
}

/// A ring that alternates long computes (stretches of quiet quanta) with
/// small and multi-fragment sends and blocking receives; compute lengths
/// are skewed by rank, so early finishers idle whole quanta at the receive.
fn quiet_busy_ring(n: u32, rounds: u32) -> Vec<aqs::node::Program> {
    use aqs::node::{ProgramBuilder, Rank, Tag};
    (0..n)
        .map(|r| {
            let mut b = ProgramBuilder::new(Rank::new(r));
            for k in 0..rounds {
                let bytes = if k % 2 == 0 { 64 } else { 25_000 };
                b = b
                    .compute(260_000 + 26_000 * u64::from((r + k) % 4))
                    .send(Rank::new((r + 1) % n), bytes, Tag::new(k))
                    .recv(Some(Rank::new((r + n - 1) % n)), Tag::new(k));
            }
            b.compute(130_000).build()
        })
        .collect()
}

/// FNV-1a over every recorded sample: scalars and both per-node lanes.
fn lane_digest(fr: &aqs::obs::FlightRecorder) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in fr.samples() {
        eat(s.index);
        eat(s.start.as_nanos());
        eat(s.len.as_nanos());
        eat(s.packets);
        eat(s.stragglers);
        eat(s.max_straggler_delay.as_nanos());
        s.barrier_wait_ns.iter().for_each(|&w| eat(w));
        s.vt_lag_ns.iter().for_each(|&l| eat(l));
    }
    h
}

/// Recording a run that mixes quiet and busy quanta changes nothing, and
/// the recorded lanes are the ones the all-events engine produced (values
/// captured on the parent commit) — including a node that idles a whole
/// quiet quantum away at a blocking receive.
#[test]
fn recorded_lanes_survive_quiet_quanta() {
    use aqs::obs::ObsConfig;
    for (n, host_ns, digest) in [
        (2u32, 69_628_301u64, 0x8f6e_105e_b735_cea2u64),
        (64, 1_022_311_676, 0x8d8c_be3e_72a9_1fe6),
    ] {
        let cfg = ClusterConfig::new(SyncConfig::fixed_micros(10)).with_seed(17);
        let plain = det(quiet_busy_ring(n, 4), &cfg);
        let recorded = Sim::new(quiet_busy_ring(n, 4))
            .config(cfg)
            .record(ObsConfig::new())
            .run();
        assert_eq!(recorded.simulated_outcome(), plain.simulated_outcome());
        let (r, p) = (
            recorded.detail.as_deterministic().unwrap(),
            plain.detail.as_deterministic().unwrap(),
        );
        assert_eq!(r.host_elapsed, p.host_elapsed, "n={n}");
        assert_eq!(r.total_quanta, p.total_quanta, "n={n}");
        assert_eq!(p.host_elapsed.as_nanos(), host_ns, "n={n}");
        let fr = recorded.obs.as_ref().expect("recorder attached");
        assert_eq!(fr.dropped(), 0);
        assert_eq!(lane_digest(fr), digest, "n={n}");
        if n == 2 {
            // Quantum 51: node 0 computes, node 1 sits at its receive from
            // edge to edge with nothing in flight.
            let s = fr.samples().nth(51).expect("quantum 51 recorded");
            assert_eq!((s.index, s.packets), (51, 0));
            assert_eq!(s.barrier_wait_ns, [0, 398_023]);
            assert_eq!(s.vt_lag_ns, [0, 10_000]);
            // Quantum 25: a delivery lands while node 0 idles to the edge.
            let s = fr.samples().nth(25).expect("quantum 25 recorded");
            assert_eq!(s.packets, 1);
            assert_eq!(s.barrier_wait_ns, [319_510, 0]);
            assert_eq!(s.vt_lag_ns, [10_000, 0]);
        }
    }
}

/// `cascade_bound(u32::MAX)` is the natural way to ask for "never freeze".
/// The leader's repeat-round guard is computed from the bound; it used to
/// overflow there — a panic inside the barrier leader (peers spin forever)
/// in debug, a wrapped guard and a spurious quantum-cap error in release.
#[test]
fn huge_cascade_bound_neither_hangs_nor_trips_the_cap() {
    let spec = ping_pong(4, 25, 4096);
    let truth = det(spec.programs.clone(), &base(1));
    for bound in [u32::MAX, u32::MAX - 1, 1 << 31] {
        for m in [1, 2, 4] {
            let r = Sim::new(spec.programs.clone())
                .engine(EngineKind::ShardedOptimistic)
                .sync(SyncConfig::fixed_micros(1000))
                .cascade_bound(bound)
                .shards(m)
                .try_run()
                .unwrap_or_else(|e| panic!("bound={bound} workers={m}: {e}"));
            let d = r.detail.as_sharded_optimistic().expect("opt detail");
            assert!(d.rollbacks > 0, "the unsafe quantum must force rollbacks");
            assert_eq!(d.degraded_windows, 0, "bound={bound} workers={m}");
            assert_eq!(
                r.simulated_outcome(),
                truth.simulated_outcome(),
                "bound={bound} workers={m}"
            );
        }
    }
}

/// A modelled host clock past `u64::MAX` ns is a typed error, not a panic.
/// The 2-node allreduce's compute op is ≈ 3.5·10⁹ s of guest time and the
/// fixed quantum (4·10⁹ s) takes it in one segment, whose host cost at the
/// default 30× slowdown is beyond what a `HostDuration` holds: the run stops
/// inside its first quantum. (With `fixed:1000000000` the same program used
/// to panic in `HostTime + HostDuration` after ≈ 5.5·10⁵ quanta.)
#[test]
fn host_clock_overflow_is_a_typed_error() {
    let spec = aqs::workloads::ml_allreduce(2, 1, 1, 1024, 9_000_000_000_000_000_000, 42);
    let err = Sim::new(spec.programs)
        .sync(SyncConfig::fixed_micros(4_000_000_000_000_000))
        .try_run()
        .unwrap_err();
    assert_eq!(err, SimError::HostClockOverflow { quanta: 0 });
    assert!(err.to_string().contains("host clock overflowed"), "{err}");
}

/// Edits of the exported ping-pong spec (`aqs export-spec --workload
/// pingpong --nodes 2`) that a hostile `aqs run-spec` file can hold, each
/// with the typed error it must get. Every one used to panic.
fn crafted_specs() -> Vec<(&'static str, WorkloadSpec, SimError)> {
    let base = ping_pong(2, 5, 64);
    let edit = |rank: usize, change: &dyn Fn(&mut Vec<Op>)| {
        let mut spec = base.clone();
        let mut ops = spec.programs[rank].ops().to_vec();
        change(&mut ops);
        spec.programs[rank] = Program::new(Rank::new(rank as u32), ops);
        spec
    };
    let send_to = |dst: u32| {
        move |ops: &mut Vec<Op>| {
            let Op::Send { bytes, tag, .. } = ops[1] else {
                panic!("rank 0's op 1 is its first send");
            };
            let dst = SendTarget::Rank(Rank::new(dst));
            ops[1] = Op::Send { dst, bytes, tag };
        }
    };
    let invalid_op = |rank, op, detail: &str| SimError::InvalidOp {
        rank,
        op,
        detail: detail.to_string(),
    };
    let mut wrong_rank = base.clone();
    let ops = wrong_rank.programs[1].ops().to_vec();
    wrong_rank.programs[1] = Program::new(Rank::new(0), ops);
    let mut one_program = base.clone();
    one_program.programs.truncate(1);
    vec![
        (
            "send to rank 99",
            edit(0, &send_to(99)),
            invalid_op(
                0,
                1,
                "sends to rank99, not to another of the cluster's 2 ranks",
            ),
        ),
        (
            "send to itself",
            edit(0, &send_to(0)),
            invalid_op(
                0,
                1,
                "sends to rank0, not to another of the cluster's 2 ranks",
            ),
        ),
        (
            "program for the wrong rank",
            wrong_rank,
            SimError::RankMismatch { index: 1, rank: 0 },
        ),
        ("one program", one_program, SimError::TooFewNodes { n: 1 }),
        (
            "region ended before its start",
            edit(0, &|ops| ops.insert(0, Op::RegionEnd(RegionId::new(7)))),
            invalid_op(0, 0, "ends region7 before it starts"),
        ),
        (
            "region started while open",
            edit(1, &|ops| ops.insert(0, Op::RegionStart(RegionId::KERNEL))),
            invalid_op(1, 1, "starts region0 while it is open"),
        ),
    ]
}

#[test]
fn a_crafted_spec_is_a_typed_error_on_every_engine_and_exit_1_from_run_spec() {
    let dir = std::env::temp_dir().join(format!("aqs-crafted-specs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (what, spec, want) in crafted_specs() {
        for engine in [
            EngineKind::Deterministic,
            EngineKind::Sharded,
            EngineKind::ShardedOptimistic,
            EngineKind::Hybrid,
        ] {
            let sim = Sim::new(spec.programs.clone()).engine(engine).shards(2);
            let outcome = std::panic::catch_unwind(|| sim.try_run().map(|r| r.sim_end));
            let err = outcome.expect("no panic").expect_err(what);
            assert_eq!(err, want, "{what} on {engine:?}");
        }
        let file = dir.join("spec.json");
        std::fs::write(
            &file,
            serde_json::to_string(&spec).expect("spec serializes"),
        )
        .unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_aqs"))
            .arg("run-spec")
            .arg("--file")
            .arg(&file)
            .output()
            .expect("aqs runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(stderr.contains(&want.to_string()), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir");
}

/// A spec that runs but has no kernel time to report: its kernel region is
/// dropped, or closed at the instant it opens. `aqs run-spec` names the file
/// and exits 1; it used to panic on both.
#[test]
fn a_spec_without_a_timed_kernel_region_exits_1_from_run_spec() {
    let base = ping_pong(2, 5, 64);
    let untimed = |kernel: &[Op]| {
        let mut spec = base.clone();
        for (rank, p) in spec.programs.iter_mut().enumerate() {
            let is_region = |op: &&Op| matches!(op, Op::RegionStart(_) | Op::RegionEnd(_));
            let body = p.ops().iter().filter(|op| !is_region(op));
            let kernel = if rank == 0 { kernel } else { &[] };
            *p = Program::new(p.rank(), kernel.iter().chain(body).cloned().collect());
        }
        spec
    };
    let zero_span = [
        Op::RegionStart(RegionId::KERNEL),
        Op::RegionEnd(RegionId::KERNEL),
    ];
    let dir = std::env::temp_dir().join(format!("aqs-untimed-specs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (what, spec) in [
        ("no region", untimed(&[])),
        ("zero span", untimed(&zero_span)),
    ] {
        let file = dir.join("spec.json");
        let json = serde_json::to_string(&spec).expect("spec serializes");
        std::fs::write(&file, json).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_aqs"))
            .arg("run-spec")
            .arg("--file")
            .arg(&file)
            .output()
            .expect("aqs runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        let prefix = format!("{}: ", file.display());
        assert!(stderr.starts_with(&prefix), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir");
}

/// One node cannot run an MPI workload: every subcommand that builds one
/// from `--nodes` refuses fewer than two as a usage error (exit 2) instead
/// of panicking in the workload builder.
#[test]
fn fewer_than_two_nodes_is_a_usage_error_on_every_workload_subcommand() {
    let out_file = std::env::temp_dir().join(format!("aqs-one-node-{}.json", std::process::id()));
    for cmd in ["run", "sweep", "optimistic", "export-spec"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_aqs"))
            .args([cmd, "--workload", "cg", "--nodes", "1", "--scale", "tiny"])
            .arg("--out")
            .arg(&out_file)
            .output()
            .expect("aqs runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("--nodes"), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
    assert!(!out_file.exists(), "export-spec wrote a one-node spec");
}

/// More nodes than `MAX_NODES` is a usage error (exit 2) before any
/// per-node structure is built: `export-spec` writes no spec and `run`
/// prints no report.
#[test]
fn more_than_max_nodes_is_a_usage_error() {
    let out_file = std::env::temp_dir().join(format!("aqs-max-nodes-{}.json", std::process::id()));
    let nodes = (aqs::workloads::MAX_NODES + 1).to_string();
    for cmd in ["export-spec", "run"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_aqs"))
            .args([cmd, "--workload", "pingpong", "--nodes", &nodes])
            .arg("--out")
            .arg(&out_file)
            .output()
            .expect("aqs runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("--nodes"), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} printed a report");
    }
    assert!(!out_file.exists(), "export-spec wrote an oversized spec");
}

/// An optimistic window whose microseconds overflow the nanosecond clock is
/// a usage error naming `--window-us`, as `fixed:<µs>` is for a policy.
#[test]
fn an_overflowing_optimistic_window_is_a_usage_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_aqs"))
        .args([
            "optimistic",
            "--workload",
            "cg",
            "--nodes",
            "4",
            "--scale",
            "tiny",
        ])
        .args(["--window-us", "18446744073709551615"])
        .output()
        .expect("aqs runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--window-us"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
