//! Resume-equivalence property tier: running a generated case to
//! completion must be bit-identical (via
//! [`aqs_cluster::RunReport::simulated_outcome`]) to snapshotting it at a
//! random interior quantum edge and resuming — for the deterministic
//! engine and for every parallel engine at every
//! [`CheckOpts::shard_counts`] entry, all seeded from the *same* wire
//! round-tripped snapshot.
//!
//! The cut point is drawn per case from the run's own quantum count, so
//! over the sweep the snapshot lands early, mid-run, and on the final
//! barrier alike.

use aqs_check::{CaseSpec, CheckOpts};
use aqs_cluster::{ClusterConfig, EngineKind, Sim, SimSnapshot};
use aqs_core::SyncConfig;
use proptest::prelude::*;

/// A mostly-idle 4k-node cluster snapshotted mid-run: the wake wheel is not
/// serialized, so a resumed sharded run must rebuild it (every node re-polls
/// once at the resume edge, sleepers immediately re-park) and still land on
/// the uninterrupted run's outcome bit for bit. This is the active-set
/// scheduler's resume contract at a scale where <1 % of nodes are hot per
/// quantum — a skipped-sleeper bug in the rebuild path cannot hide behind
/// the all-nodes-busy traffic of the small generated cases above. Under the
/// safe ground-truth quantum the deterministic snapshot is valid for every
/// engine; only the sharded engine carries a wake wheel to rebuild, so it
/// alone is swept here (the optimistic substrate resumes with every node
/// runnable and is covered at generated-case scale above).
#[test]
fn mostly_idle_4k_snapshot_mid_run_resumes_bit_identically() {
    let n = 4096;
    let spec = Sim::new(aqs_workloads::rpc_fanout(n, 6, 8, 2_048, 16_384, 200_000, 11).programs)
        .config(ClusterConfig::new(SyncConfig::ground_truth()).with_seed(0x1D7E))
        .max_quanta(CAP);
    let full = spec.clone().try_run().expect("uninterrupted run");
    assert!(
        full.total_quanta >= 4,
        "workload too short to cut mid-run: {} quanta",
        full.total_quanta
    );
    let truth = full.simulated_outcome();
    let cut = full.total_quanta / 2;
    let snap = spec.snapshot_at(cut).expect("snapshot mid-run");
    let snap = SimSnapshot::from_bytes(&snap.to_bytes()).expect("wire round trip");
    for m in [2usize, 5] {
        let r = spec
            .clone()
            .engine(EngineKind::Sharded)
            .shards(m)
            .resume(&snap)
            .unwrap_or_else(|e| panic!("sharded (M={m}) resume at {cut}: {e}"));
        assert_eq!(
            r.simulated_outcome(),
            truth,
            "sharded (M={m}) resume at quantum {cut} diverged"
        );
    }
}

/// Quantum cap for the parallel engines. Part of the spec fingerprint, so
/// every builder in this file must carry the same value.
const CAP: u64 = 2_000_000;

/// The ground-truth simulation for a case; under the safe 1 µs quantum all
/// five engines agree bit-for-bit, so one deterministic snapshot seeds
/// them all.
fn ground_truth_sim(case: &CaseSpec) -> Sim {
    Sim::new(case.programs())
        .config(ClusterConfig::new(SyncConfig::ground_truth()).with_seed(case.seed))
        .switch(case.switch())
        .max_quanta(CAP)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn resume_at_a_random_quantum_is_bit_identical(
        index in 0u64..400,
        cut_draw in 0u64..u64::MAX,
    ) {
        let case = CaseSpec::generate(0x5EED_0CA7, index);
        let spec = ground_truth_sim(&case);
        let full = spec
            .clone()
            .try_run()
            .unwrap_or_else(|e| panic!("case {}: uninterrupted run failed: {e}", case.tag()));
        // A one-quantum run has no interior barrier to cut at.
        if full.total_quanta >= 2 {
            let cut = 1 + cut_draw % (full.total_quanta - 1);
            let truth = full.simulated_outcome();
            let snap = spec
                .snapshot_at(cut)
                .unwrap_or_else(|e| panic!("case {}: snapshot at {cut}: {e}", case.tag()));
            // The wire codec sits on the tested path: what resumes is what
            // a crashed process would reload from disk.
            let snap = SimSnapshot::from_bytes(&snap.to_bytes())
                .unwrap_or_else(|e| panic!("case {}: wire round trip: {e}", case.tag()));
            prop_assert_eq!(snap.quanta(), cut);

            let det = spec
                .resume(&snap)
                .unwrap_or_else(|e| panic!("case {}: det resume at {cut}: {e}", case.tag()));
            prop_assert_eq!(
                det.simulated_outcome(), truth.clone(),
                "case {}: det resume at quantum {} diverged", case.tag(), cut
            );

            let counts = CheckOpts::default().sharded_counts(case.n_nodes as usize);
            for kind in [
                EngineKind::Sharded,
                EngineKind::ShardedOptimistic,
                EngineKind::Hybrid,
            ] {
                for &m in &counts {
                    let r = spec
                        .clone()
                        .engine(kind)
                        .shards(m)
                        .resume(&snap)
                        .unwrap_or_else(|e| panic!(
                            "case {}: {} (M={m}) resume at {cut}: {e}",
                            case.tag(),
                            kind.name()
                        ));
                    prop_assert_eq!(
                        r.simulated_outcome(), truth.clone(),
                        "case {}: {} (M={}) resume at quantum {} diverged",
                        case.tag(), kind.name(), m, cut
                    );
                }
            }
        }
    }
}
