//! Schedule fuzzing: the sharded engine's functional outcomes must be
//! independent of thread scheduling. The `schedule-fuzz` feature
//! arms test-only perturbation hooks in `aqs-sync` — randomized mailbox
//! drain order and jittered barrier arrivals — and the outcome under the
//! safe quantum must stay bit-identical to the deterministic engine through
//! every perturbed run: first with one worker per node, then rotating the
//! worker count, so the partition itself is perturbed along with the
//! schedule.
//!
//! ```text
//! cargo test -p aqs-check --features schedule-fuzz --test schedule_fuzz
//! ```

#![cfg(feature = "schedule-fuzz")]

use aqs_check::{check_case_fuzzed, CaseSpec};

#[test]
fn engine_outcomes_survive_perturbed_schedules() {
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
    // After a fuzzed run the hooks must be fully disarmed: a plain
    // differential check right after must behave exactly like one that
    // never fuzzed.
    let case = CaseSpec::generate(0x5C4ED, 0);
    check_case_fuzzed(&case, 1, 7).expect("fuzzed run");
    assert!(!aqs_sync::fuzz::is_armed(), "fuzz hooks left armed");
    aqs_check::check_case(&case).expect("plain check after fuzzing");
}
