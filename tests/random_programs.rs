//! Property-based integration tests: randomly generated (but well-formed)
//! communication patterns must complete, conserve messages, and respect the
//! safety condition under every policy.

use aqs::cluster::{RunReport, Sim};
use aqs::core::{AdaptiveConfig, SyncConfig};
use aqs::time::SimDuration;
use proptest::prelude::*;

mod common;
use common::random_workload;

fn det(programs: Vec<aqs::node::Program>, sync: SyncConfig, seed: u64) -> RunReport {
    Sim::new(programs).sync(sync).seed(seed).run()
}

fn policies() -> Vec<SyncConfig> {
    vec![
        SyncConfig::ground_truth(),
        SyncConfig::fixed_micros(37),
        SyncConfig::fixed_micros(1000),
        SyncConfig::paper_dyn1(),
        SyncConfig::Adaptive(AdaptiveConfig::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(64),
            1.2,
            0.3,
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random workload completes under every policy, with identical
    /// functional outcomes (messages received per rank).
    #[test]
    fn random_collectives_complete_under_all_policies(
        n in prop::sample::select(vec![2usize, 3, 4, 5, 8]),
        phases in prop::collection::vec((any::<u8>(), 0u32..200, 0u32..20_000), 1..5),
    ) {
        let programs = random_workload(n, &phases, 0.1);
        let mut reference: Option<Vec<u64>> = None;
        for sync in policies() {
            let result = det(programs.clone(), sync, 99);
            let msgs: Vec<u64> = result
                .detail
                .as_deterministic()
                .unwrap()
                .per_node
                .iter()
                .map(|r| r.messages_received)
                .collect();
            match &reference {
                None => reference = Some(msgs),
                Some(expected) => prop_assert_eq!(&msgs, expected),
            }
        }
    }

    /// The safety condition holds for arbitrary workloads: the ground-truth
    /// quantum never produces stragglers.
    #[test]
    fn safe_quantum_never_straggles(
        n in prop::sample::select(vec![2usize, 4, 6]),
        phases in prop::collection::vec((any::<u8>(), 0u32..100, 0u32..40_000), 1..4),
        seed in any::<u64>(),
    ) {
        let programs = random_workload(n, &phases, 0.1);
        let result = det(programs, SyncConfig::ground_truth(), seed);
        prop_assert_eq!(result.stragglers.count(), 0);
    }

    /// Host time strictly exceeds zero and sim time dilation is bounded
    /// below by 1 for any quantum.
    #[test]
    fn dilation_is_never_contraction(
        phases in prop::collection::vec((any::<u8>(), 0u32..100, 0u32..10_000), 1..4),
        q_us in prop::sample::select(vec![5u64, 50, 500]),
    ) {
        let programs = random_workload(4, &phases, 0.1);
        let truth = det(programs.clone(), SyncConfig::ground_truth(), 1);
        let loose = det(programs, SyncConfig::fixed_micros(q_us), 1);
        prop_assert!(loose.sim_end >= truth.sim_end);
    }
}
