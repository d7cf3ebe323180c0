//! Property-based tests of the hybrid engine's headline claims:
//!
//! * under the safe quantum (`Q ≤ T`) the hybrid engine is **bit-identical**
//!   to the deterministic engine for every shard count — the adaptive
//!   policy must be invisible when nothing can straggle;
//! * under an unsafe quantum with injected stragglers, the whole adaptive
//!   trajectory — every recorded window with its per-shard checkpoint,
//!   rollback and wasted-time lanes, and the outcome — is **reproducible
//!   from the seed**, run after run;
//! * a shard's checkpoint lane is zero in exactly the windows it ran
//!   conservatively, which is how mode switches are observed;
//! * a run that never degrades a shard reproduces the ground-truth timeline
//!   exactly, rollbacks notwithstanding.

use aqs::check::WindowLog;
use aqs::cluster::{EngineKind, HybridPolicy, RunReport, Sim};
use aqs::core::SyncConfig;
use aqs::workloads::MpiBuilder;
use proptest::prelude::*;

/// A random but deadlock-free multi-rank program: collective phases, each
/// preceded by imbalanced compute (the imbalance is what makes quanta above
/// the safe bound straggle).
fn random_workload(n: usize, phases: &[(u8, u32, u32)]) -> Vec<aqs::node::Program> {
    let mut m = MpiBuilder::new(n);
    for &(sel, kops, bytes) in phases {
        m.compute_all_imbalanced(kops as u64 * 1000 + 1, 0.3, sel as u64 + kops as u64);
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

fn hybrid_sim(programs: Vec<aqs::node::Program>, sync: SyncConfig, shards: usize) -> Sim {
    Sim::new(programs)
        .engine(EngineKind::Hybrid)
        .sync(sync)
        .shards(shards)
        .hybrid_policy(HybridPolicy {
            degrade_after: 2,
            recover_after: 2,
        })
        .max_quanta(2_000_000)
}

/// A run of `sim` with every committed window logged.
fn logged(sim: Sim) -> (RunReport, WindowLog) {
    sim.run_with_recorder(WindowLog::default())
        .expect("a valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Q ≤ T: the hybrid engine must agree with the deterministic engine
    /// bit-for-bit, for every shard count — and never roll back at all.
    #[test]
    fn hybrid_is_bit_identical_to_deterministic_under_safe_quantum(
        n in prop::sample::select(vec![2usize, 3, 4, 6]),
        phases in prop::collection::vec((any::<u8>(), 0u32..150, 0u32..16_000), 1..4),
    ) {
        let programs = random_workload(n, &phases);
        let det = Sim::new(programs.clone())
            .sync(SyncConfig::ground_truth())
            .seed(1)
            .run();
        let truth = det.simulated_outcome();
        for m in 1..=4usize {
            let h = hybrid_sim(programs.clone(), SyncConfig::ground_truth(), m).run();
            prop_assert_eq!(h.simulated_outcome(), truth.clone(), "shards={}", m);
            let d = h.detail.as_sharded_optimistic().expect("hybrid detail");
            prop_assert_eq!(d.rollbacks, 0);
            prop_assert_eq!(d.conservative_windows, 0);
        }
    }

    /// Q > T: stragglers force rollbacks and mode switches, but the whole
    /// trajectory replays bit-identically — every window and shard lane is a
    /// pure function of the (seeded) workload, not of thread scheduling.
    #[test]
    fn mode_switches_replay_bit_identically_under_unsafe_quantum(
        n in prop::sample::select(vec![3usize, 4, 6]),
        phases in prop::collection::vec((any::<u8>(), 0u32..150, 0u32..16_000), 1..4),
        q_us in prop::sample::select(vec![50u64, 200, 1000]),
        shards in prop::sample::select(vec![1usize, 2, 3, 4]),
    ) {
        let programs = random_workload(n, &phases);
        let sync = SyncConfig::fixed_micros(q_us);
        let (a, log_a) = logged(hybrid_sim(programs.clone(), sync.clone(), shards));
        let (b, log_b) = logged(hybrid_sim(programs, sync, shards));
        prop_assert_eq!(a.simulated_outcome(), b.simulated_outcome());
        let da = a.detail.as_sharded_optimistic().expect("hybrid detail");
        let db = b.detail.as_sharded_optimistic().expect("hybrid detail");
        prop_assert_eq!(log_a.windows.len() as u64, da.windows);
        prop_assert_eq!(&log_a, &log_b);
        prop_assert_eq!(da.rollbacks, db.rollbacks);
        prop_assert_eq!(da.conservative_windows, db.conservative_windows);
    }

    /// An undegraded, snap-free run under an unsafe quantum lands on the
    /// ground-truth timeline exactly: the fixed point converges to the same
    /// arrivals the deterministic engine computes event by event.
    #[test]
    fn undegraded_runs_are_exact_under_unsafe_quantum(
        phases in prop::collection::vec((any::<u8>(), 0u32..100, 0u32..8_000), 1..3),
        shards in prop::sample::select(vec![1usize, 2, 3]),
    ) {
        let programs = random_workload(4, &phases);
        let det = Sim::new(programs.clone())
            .sync(SyncConfig::ground_truth())
            .seed(1)
            .run();
        let r = Sim::new(programs)
            .engine(EngineKind::ShardedOptimistic)
            .sync(SyncConfig::fixed_micros(20))
            .cascade_bound(4096)
            .shards(shards)
            .max_quanta(2_000_000)
            .run();
        let d = r.detail.as_sharded_optimistic().expect("opt detail");
        if d.degraded_windows == 0 && r.stragglers.count() == 0 {
            prop_assert_eq!(r.simulated_outcome(), det.simulated_outcome());
        }
    }
}

/// A workload guaranteed to straggle under a 1 ms quantum: tight ping-pong
/// dependency chains. The hybrid policy must actually switch shards to
/// conservative execution (and the switches must be on the record).
#[test]
fn deep_dependency_chains_force_recorded_mode_switches() {
    let spec = aqs::workloads::ping_pong(4, 25, 4096);
    let (r, log) = logged(
        Sim::new(spec.programs)
            .engine(EngineKind::Hybrid)
            .sync(SyncConfig::fixed_micros(1000))
            .hybrid_policy(HybridPolicy {
                degrade_after: 1,
                recover_after: 2,
            })
            .shards(4),
    );
    let d = r.detail.as_sharded_optimistic().expect("hybrid detail");
    assert!(d.rollbacks > 0, "the chain must straggle");
    assert!(
        log.lanes
            .iter()
            .any(|[checkpoints, ..]| checkpoints.contains(&0)),
        "at least one shard must degrade to conservative execution"
    );
    assert!(d.conservative_windows > 0);
}

/// The mode-switch rule, exactly, on both rollback engines and several
/// shard counts: the (window, shard) pairs with a zero checkpoint lane are
/// the result's `conservative_windows`, and under `Q ≤ T` no lane is zero.
#[test]
fn zero_checkpoint_lanes_are_exactly_the_conservative_shard_windows() {
    let spec = aqs::workloads::ping_pong(4, 25, 4096);
    let zero_lanes = |log: &WindowLog| -> u64 {
        let checkpoints = log.lanes.iter().flat_map(|[checkpoints, ..]| checkpoints);
        checkpoints.filter(|&&c| c == 0).count() as u64
    };
    for kind in [EngineKind::ShardedOptimistic, EngineKind::Hybrid] {
        for m in [1, 2, 3, 4] {
            let sim = |sync| {
                let policy = HybridPolicy {
                    degrade_after: 1,
                    recover_after: 2,
                };
                let sim = Sim::new(spec.programs.clone()).engine(kind).sync(sync);
                sim.hybrid_policy(policy).shards(m)
            };
            let (r, log) = logged(sim(SyncConfig::fixed_micros(1000)));
            let d = r.detail.as_sharded_optimistic().expect("rollback detail");
            assert!(d.conservative_windows > 0, "{kind:?} M={m}: no mode switch");
            assert_eq!(zero_lanes(&log), d.conservative_windows, "{kind:?} M={m}");
            let (_, safe) = logged(sim(SyncConfig::ground_truth()));
            assert_eq!(zero_lanes(&safe), 0, "{kind:?} M={m} under Q ≤ T");
        }
    }
}
