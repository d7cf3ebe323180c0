//! Deterministic vs. sharded vs. sharded-optimistic engine: under the safe
//! quantum all must agree exactly on the simulated timeline, because no
//! thread interleaving can create a straggler. The sharded engine must
//! additionally agree with itself for every worker count, up to one worker
//! per node (the paper's thread-per-node system).

use aqs::cluster::{EngineKind, RunReport, Sim};
use aqs::core::SyncConfig;
use aqs::workloads::{burst, nas, ping_pong, MpiBuilder, Scale, WorkloadSpec};
use proptest::prelude::*;

fn run(programs: Vec<aqs::node::Program>, engine: EngineKind, sync: SyncConfig) -> RunReport {
    Sim::new(programs)
        .engine(engine)
        .sync(sync)
        .seed(1)
        .max_quanta(50_000_000)
        .run()
}

/// Worker counts worth running an `n`-node cluster with: 1, 2, 3 and one
/// worker per node.
fn worker_counts(n: usize) -> Vec<usize> {
    (1..=n.min(3)).chain((n > 3).then_some(n)).collect()
}

/// The classic window-based optimistic engine: one shard, a fixed 20 µs
/// free-run window (20× the safe bound) and a cascade bound no 20-hop
/// in-window chain can reach — so it never degrades and must be exact.
fn run_optimistic(programs: Vec<aqs::node::Program>) -> RunReport {
    let r = Sim::new(programs)
        .engine(EngineKind::ShardedOptimistic)
        .shards(1)
        .sync(SyncConfig::fixed_micros(20))
        .cascade_bound(256)
        .max_quanta(50_000_000)
        .run();
    let d = r.detail.as_sharded_optimistic().unwrap();
    assert_eq!(d.degraded_windows, 0, "the cascade bound must never bind");
    r
}

fn check_equivalence(spec: WorkloadSpec) {
    let det = run(
        spec.programs.clone(),
        EngineKind::Deterministic,
        SyncConfig::ground_truth(),
    );
    let det_nodes = &det.detail.as_deterministic().unwrap().per_node;
    for workers in worker_counts(spec.programs.len()) {
        let sh = Sim::new(spec.programs.clone())
            .engine(EngineKind::Sharded)
            .shards(workers)
            .sync(SyncConfig::ground_truth())
            .seed(1)
            .max_quanta(50_000_000)
            .run();
        assert_eq!(
            sh.simulated_outcome(),
            det.simulated_outcome(),
            "{}: sharded (M={workers}) outcome differs",
            spec.name
        );
        assert_eq!(
            sh.stragglers.count(),
            0,
            "{}: safe quantum straggled (M={workers})",
            spec.name
        );
        let sh_nodes = &sh.detail.as_sharded().unwrap().per_node;
        for (s, d) in sh_nodes.iter().zip(det_nodes) {
            assert_eq!(
                s.regions, d.regions,
                "{}: sharded (M={workers}) {} regions differ",
                spec.name, s.rank
            );
        }
    }
}

#[test]
fn ping_pong_engines_agree() {
    check_equivalence(ping_pong(2, 8, 64));
}

#[test]
fn multi_fragment_engines_agree() {
    check_equivalence(ping_pong(2, 3, 30_000));
}

#[test]
fn burst_engines_agree() {
    check_equivalence(burst(4, 200_000, 2048));
}

#[test]
fn is_kernel_engines_agree() {
    check_equivalence(nas::is(4, Scale::Tiny));
}

#[test]
fn lu_wavefront_engines_agree() {
    check_equivalence(nas::lu(4, Scale::Tiny));
}

/// A random but deadlock-free multi-rank program: a sequence of collective
/// phases, each preceded by random (imbalanced) compute.
fn random_workload(n: usize, phases: &[(u8, u32, u32)]) -> Vec<aqs::node::Program> {
    let mut m = MpiBuilder::new(n);
    for &(sel, kops, bytes) in phases {
        m.compute_all_imbalanced(kops as u64 * 1000 + 1, 0.1, sel as u64 + kops as u64);
        let bytes = bytes as u64 + 1;
        match sel % 5 {
            0 => m.barrier(),
            1 => m.allreduce(bytes, 50),
            2 => m.alltoall(bytes),
            3 => m.bcast(sel as usize % n, bytes),
            _ => {
                let dist = 1 + (sel as usize % (n - 1));
                m.neighbor_exchange(&[dist], bytes);
            }
        }
    }
    m.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Deterministic, sharded (every worker count up to one per node) and
    /// single-shard optimistic agree on `messages_received`,
    /// `total_packets`, and `sim_end` for random programs — the first two
    /// under the safe quantum `Q <= T`, the last by rolling back.
    #[test]
    fn four_engines_agree_on_random_programs(
        n in prop::sample::select(vec![2usize, 3, 4]),
        phases in prop::collection::vec((any::<u8>(), 0u32..80, 0u32..10_000), 1..4),
    ) {
        let programs = random_workload(n, &phases);
        let mk = |engine| {
            Sim::new(programs.clone())
                .engine(engine)
                .sync(SyncConfig::ground_truth())
                .seed(3)
                .max_quanta(50_000_000)
                .run()
        };
        let det = mk(EngineKind::Deterministic);
        let opt = run_optimistic(programs.clone());
        prop_assert_eq!(opt.simulated_outcome(), det.simulated_outcome());
        for workers in [1, 2, 4] {
            let sh = Sim::new(programs.clone())
                .engine(EngineKind::Sharded)
                .shards(workers)
                .sync(SyncConfig::ground_truth())
                .seed(3)
                .max_quanta(50_000_000)
                .run();
            prop_assert_eq!(sh.simulated_outcome(), det.simulated_outcome());
            prop_assert_eq!(sh.stragglers.count(), 0);
        }
    }
}

/// The lock-free mailbox (the benchmark's per-packet hand-off probe) must
/// never drop or duplicate a message, under concurrent producers racing a
/// draining consumer.
#[test]
fn mailbox_stress_no_drop_no_duplicate() {
    use aqs::sync::Mailbox;
    use std::sync::Arc;

    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 25_000;
    let mb = Arc::new(Mailbox::new());
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                for seq in 0..PER_PRODUCER {
                    mb.push((p, seq));
                }
            })
        })
        .collect();
    // Drain concurrently with production, like a worker at its quantum
    // boundary.
    let mut got: Vec<(u64, u64)> = Vec::new();
    while got.len() < (PRODUCERS * PER_PRODUCER) as usize {
        mb.drain_into(&mut got);
        std::thread::yield_now();
    }
    for h in producers {
        h.join().unwrap();
    }
    mb.drain_into(&mut got);
    assert_eq!(
        got.len() as u64,
        PRODUCERS * PER_PRODUCER,
        "fragments were dropped"
    );
    // Exactly-once and per-producer FIFO: for each producer the sequence
    // numbers must appear in order with no repeats or gaps.
    let mut next = vec![0u64; PRODUCERS as usize];
    for (p, seq) in got {
        assert_eq!(
            seq, next[p as usize],
            "producer {p} out of order or duplicated"
        );
        next[p as usize] += 1;
    }
    assert!(next.iter().all(|&c| c == PER_PRODUCER));
}

/// A broadcast workload: each round, rank 0 `send_all`s and every other
/// rank posts a matching recv, then everyone rendezvous through replies so
/// the rounds cannot overlap.
fn broadcast_workload(n: usize, rounds: usize, bytes: u64) -> Vec<aqs::node::Program> {
    use aqs::node::{ProgramBuilder, Rank, Tag};
    (0..n)
        .map(|r| {
            let mut b = ProgramBuilder::new(Rank::new(r as u32));
            for round in 0..rounds {
                let tag = Tag::new(round as u32);
                if r == 0 {
                    b = b.send_all(bytes, tag);
                    for peer in 1..n {
                        b = b.recv(Some(Rank::new(peer as u32)), tag);
                    }
                } else {
                    b = b.recv(Some(Rank::new(0)), tag).send(Rank::new(0), 8, tag);
                }
            }
            b.build()
        })
        .collect()
}

/// `Destination::Broadcast` under every switch model: the fan-out must
/// count one packet per fragment per receiver in every engine, and the
/// per-destination transits must be independent (the perfect-switch count
/// equals the non-perfect count; only timing changes).
#[test]
fn broadcast_fan_out_counts_identically_across_engines() {
    let n = 4usize;
    let rounds = 3usize;
    let bytes = 20_000u64;
    let programs = broadcast_workload(n, rounds, bytes);
    let nic = aqs::net::NicModel::paper_default();
    // Per round: the broadcast fans each fragment to n-1 receivers, and the
    // n-1 unicast replies are one fragment each.
    let frags = nic.fragment_count(bytes) as u64;
    let expected = rounds as u64 * (n as u64 - 1) * (frags + 1);
    let det = run(
        programs.clone(),
        EngineKind::Deterministic,
        SyncConfig::ground_truth(),
    );
    assert_eq!(det.total_packets, expected);
    let opt = run_optimistic(programs.clone());
    assert_eq!(opt.total_packets, expected);
    for workers in worker_counts(n) {
        let sh = Sim::new(programs.clone())
            .engine(EngineKind::Sharded)
            .shards(workers)
            .sync(SyncConfig::ground_truth())
            .seed(1)
            .max_quanta(50_000_000)
            .run();
        assert_eq!(sh.simulated_outcome(), det.simulated_outcome());
    }
}

/// Broadcast under the two non-perfect switches: an asymmetric latency
/// matrix and the fat-tree fabric. Each fan-out copy takes its own
/// (src, dst)-keyed transit, so receivers see different arrival times — and
/// the deterministic and sharded (every M, up to one worker per node)
/// engines must still agree bit for bit under the safe quantum, and the
/// sharded engine with itself under the unsafe one.
#[test]
fn broadcast_agrees_under_non_perfect_switches() {
    use aqs::cluster::SimSwitch;
    use aqs::net::{FabricConfig, LatencyMatrixSwitch};
    use aqs::time::SimDuration;
    let n = 5usize;
    let programs = broadcast_workload(n, 4, 12_000);
    let matrix = LatencyMatrixSwitch::from_fn(n, |src, dst| {
        // Asymmetric on purpose: transit depends on direction.
        SimDuration::from_nanos(500 + 1_700 * src.index() as u64 + 900 * dst.index() as u64)
    });
    let fabric = SimSwitch::Fabric(
        FabricConfig::fat_tree()
            .with_rack_size(2)
            .with_uplinks_per_rack(2),
    );
    for switch in [SimSwitch::LatencyMatrix(matrix), fabric] {
        for sync in [SyncConfig::ground_truth(), SyncConfig::fixed_micros(500)] {
            let mk = |engine: EngineKind, workers: Option<usize>| {
                let mut sim = Sim::new(programs.clone())
                    .engine(engine)
                    .switch(switch.clone())
                    .sync(sync.clone())
                    .seed(1)
                    .max_quanta(50_000_000);
                if let Some(m) = workers {
                    sim = sim.shards(m);
                }
                sim.run()
            };
            let det = mk(EngineKind::Deterministic, None);
            let sharded: Vec<RunReport> = worker_counts(n)
                .into_iter()
                .map(|m| mk(EngineKind::Sharded, Some(m)))
                .collect();
            for sh in &sharded {
                assert_eq!(
                    sh.simulated_outcome(),
                    sharded[0].simulated_outcome(),
                    "sharded outcome must be M-independent ({})",
                    switch.name()
                );
            }
            // Under the safe quantum the sharded timeline is the
            // deterministic timeline; under the unsafe one it may dilate
            // (boundary snapping) but functional delivery must match.
            if sync == SyncConfig::ground_truth() {
                assert_eq!(sharded[0].simulated_outcome(), det.simulated_outcome());
            } else {
                assert_eq!(sharded[0].total_packets, det.total_packets);
                assert_eq!(sharded[0].messages_received, det.messages_received);
            }
        }
    }
}

/// With a long quantum the thread-per-node system straggles (and its
/// timeline dilates differently from the modelled host's), but functional
/// delivery must still be complete.
#[test]
fn long_quantum_keeps_functional_integrity() {
    let spec = burst(4, 100_000, 2048);
    let det = run(
        spec.programs.clone(),
        EngineKind::Deterministic,
        SyncConfig::fixed_micros(1000),
    );
    let par = Sim::new(spec.programs)
        .engine(EngineKind::Sharded)
        .shards(4)
        .sync(SyncConfig::fixed_micros(1000))
        .max_quanta(50_000_000)
        .run();
    assert!(par.stragglers.count() > 0, "expected an unsafe quantum");
    assert_eq!(par.messages_received, det.messages_received);
    assert_eq!(par.total_packets, det.total_packets);
}

/// With a long (unsafe) quantum the sharded engine snaps every straggler to
/// the sender's quantum edge at route time, so its dilated timeline is
/// fully deterministic: bit-identical outcomes for every worker count,
/// stragglers included.
#[test]
fn long_quantum_sharded_is_identical_for_every_worker_count() {
    let spec = burst(4, 100_000, 2048);
    let runs: Vec<RunReport> = [1, 2, 3, 4]
        .into_iter()
        .map(|workers| {
            Sim::new(spec.programs.clone())
                .engine(EngineKind::Sharded)
                .shards(workers)
                .sync(SyncConfig::fixed_micros(1000))
                .seed(1)
                .max_quanta(50_000_000)
                .run()
        })
        .collect();
    let base = &runs[0];
    assert!(base.stragglers.count() > 0, "expected an unsafe quantum");
    for r in &runs[1..] {
        assert_eq!(r.simulated_outcome(), base.simulated_outcome());
        assert_eq!(r.stragglers.count(), base.stragglers.count());
        assert_eq!(r.stragglers.max_delay(), base.stragglers.max_delay());
        assert_eq!(r.total_quanta, base.total_quanta);
    }
}
