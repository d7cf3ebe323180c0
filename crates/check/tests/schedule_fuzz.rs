//! Schedule fuzzing: the sharded engine's functional outcomes must be
//! independent of thread scheduling. The `schedule-fuzz` feature
//! arms test-only perturbation hooks in `aqs-sync` — randomized mailbox
//! drain order and jittered barrier arrivals — and the outcome under the
//! safe quantum must stay bit-identical to the deterministic engine through
//! every perturbed run: first with one worker per node, then rotating the
//! worker count, so the partition itself is perturbed along with the
//! schedule. The rollback engines add a third hook: any worker may claim any
//! node of a round's run list, a jitter precedes every claim, and a
//! rollback-heavy run must not notice.
//!
//! ```text
//! cargo test -p aqs-check --features schedule-fuzz --test schedule_fuzz
//! ```

#![cfg(feature = "schedule-fuzz")]

use aqs_check::{check_case_fuzzed, CaseSpec, WindowLog};
use aqs_cluster::{EngineKind, HybridPolicy, RunReport, ShardedOptimisticRunResult, Sim};
use aqs_core::SyncConfig;
use aqs_node::Program;
use aqs_workloads::{ping_pong, MpiBuilder};
use std::sync::Mutex;

/// Arming is process-global: tests that arm the hooks, or assert that they
/// are disarmed, take turns.
static FUZZ_WINDOW: Mutex<()> = Mutex::new(());

fn window() -> std::sync::MutexGuard<'static, ()> {
    FUZZ_WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn engine_outcomes_survive_perturbed_schedules() {
    let _turn = window();
    // A spread of generated cases, several perturbation rounds each on the
    // sharded engine (one worker per node, then across worker counts).
    // The fuzz hooks are armed per round inside `check_case_fuzzed`, so
    // runs never overlap an armed window.
    for index in 0..8 {
        let case = CaseSpec::generate(0x5C4ED, index);
        check_case_fuzzed(&case, 4, 0xF0CC1A + index)
            .unwrap_or_else(|e| panic!("case {}: {e}", case.tag()));
    }
}

#[test]
fn fuzz_hooks_disarm_cleanly() {
    let _turn = window();
    // After a fuzzed run the hooks must be fully disarmed: a plain
    // differential check right after must behave exactly like one that
    // never fuzzed.
    let case = CaseSpec::generate(0x5C4ED, 0);
    check_case_fuzzed(&case, 1, 7).expect("fuzzed run");
    assert!(!aqs_sync::fuzz::is_armed(), "fuzz hooks left armed");
    aqs_check::check_case(&case).expect("plain check after fuzzing");
}

/// The `rollback_mixed` benchmark's shape at 16 nodes: ranks 0..8 ping-pong
/// in pairs (several hops per 200 µs window), ranks 8..16 compute long and
/// pass one ring hop per round.
fn mixed_stragglers() -> Vec<Program> {
    let (n, chatty) = (16, 8);
    let mut b = MpiBuilder::new(n);
    for _ in 0..40 {
        (0..chatty).for_each(|r| b.compute(r, 20_000));
        for pair in (0..chatty).step_by(2) {
            b.p2p(pair, pair + 1, 512);
            b.p2p(pair + 1, pair, 512);
        }
    }
    for _ in 0..8 {
        (chatty..n).for_each(|r| b.compute(r, 150_000));
        for r in chatty..n {
            b.p2p(r, if r + 1 == n { chatty } else { r + 1 }, 4096);
        }
    }
    b.build()
}

/// Every scalar counter of a rollback run (all but `wall`).
fn scalars(d: &ShardedOptimisticRunResult) -> impl PartialEq + std::fmt::Debug {
    (
        (d.sim_end, d.windows, d.total_packets, d.checkpoints),
        (d.rollbacks, d.wasted_sim, d.max_rollback_depth),
        (d.degraded_windows, d.conservative_windows, d.restore_rounds),
        (d.stragglers, d.workers),
    )
}

#[test]
fn rollback_rounds_do_not_depend_on_who_claims_which_node() {
    let _turn = window();
    let cases = [
        ("mixed stragglers", mixed_stragglers(), 200),
        ("ping-pong", ping_pong(4, 25, 4096).programs, 1000),
    ];
    for (name, programs, window_us) in &cases {
        for kind in [EngineKind::ShardedOptimistic, EngineKind::Hybrid] {
            for m in [2, 3, 4] {
                let run = || -> (RunReport, WindowLog) {
                    Sim::new(programs.clone())
                        .engine(kind)
                        .sync(SyncConfig::fixed_micros(*window_us))
                        .hybrid_policy(HybridPolicy {
                            degrade_after: 1,
                            recover_after: 4,
                        })
                        .shards(m)
                        .run_with_recorder(WindowLog::default())
                        .expect("a valid configuration")
                };
                let (plain, plain_log) = run();
                let p = plain.detail.as_sharded_optimistic().expect("opt detail");
                assert!(
                    p.rollbacks > 0,
                    "{name} {kind:?} M={m}: no rollback to fuzz"
                );
                for seed in 0..20u64 {
                    aqs_sync::fuzz::arm(0xC1A1_4000 + seed);
                    let (fuzzed, fuzzed_log) = run();
                    aqs_sync::fuzz::disarm();
                    let f = fuzzed.detail.as_sharded_optimistic().expect("opt detail");
                    let ctx = format!("{name} {kind:?} M={m} fuzz seed {seed}");
                    assert_eq!(
                        fuzzed.simulated_outcome(),
                        plain.simulated_outcome(),
                        "{ctx}"
                    );
                    assert_eq!(scalars(f), scalars(p), "{ctx}");
                    assert_eq!(fuzzed_log, plain_log, "{ctx}");
                }
            }
        }
    }
}
