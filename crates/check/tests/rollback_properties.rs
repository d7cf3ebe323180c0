//! Rollback-property conformance tier: the sharded-optimistic and hybrid
//! engines swept through generated cases with the rollback oracles armed —
//! GVT monotone and committing at window edges (no committed event ever
//! rolls back), rollback depth within the cascade bound, wasted-sim equal to
//! the re-executed quanta, recorder parity, and ground-truth exactness for
//! undegraded runs — across every configured shard count.
//!
//! `scripts/verify.sh` and CI drive the same tier with more cases through
//! `aqs check --engines sharded-optimistic,hybrid`; this in-tree sweep keeps
//! plain `cargo test` covering it.

use aqs_check::{check_case_with, run_conformance, CaseSpec, CheckOpts, ConformanceOpts};

/// Rollback engines only: the deterministic run still anchors ground truth,
/// everything else is the new tier.
fn rollback_opts() -> CheckOpts {
    CheckOpts {
        sharded: false,
        ..CheckOpts::default()
    }
}

#[test]
fn forty_cases_pass_the_rollback_property_tier() {
    let report = run_conformance(&ConformanceOpts {
        cases: 40,
        seed: 0xB0117,
        check: rollback_opts(),
        ..ConformanceOpts::default()
    });
    assert_eq!(report.cases_run, 40);
    assert!(
        report.passed(),
        "rollback-property failures: {:#?}",
        report.failures
    );
}

#[test]
fn the_tier_is_deterministic_case_by_case() {
    for index in [0, 5, 17] {
        let case = CaseSpec::generate(0xBEEF, index);
        let opts = rollback_opts();
        assert_eq!(
            check_case_with(&case, &opts),
            check_case_with(&case, &opts),
            "case {}",
            case.tag()
        );
    }
}

#[test]
fn a_tight_cascade_bound_still_passes_every_oracle() {
    // Bound 1: almost every violation degrades its shard, so the degraded
    // (conservative re-execution) path is exercised constantly. The run must
    // still conserve packets and keep every rollback invariant.
    let opts = CheckOpts {
        cascade_bound: 1,
        ..rollback_opts()
    };
    for index in 0..12 {
        let case = CaseSpec::generate(0xCA5CADE, index);
        check_case_with(&case, &opts).unwrap_or_else(|e| panic!("case {}: {e}", case.tag()));
    }
}
