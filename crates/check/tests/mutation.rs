//! Mutation smoke tests: deliberate, runtime-armed faults in the engine
//! crates must be **detected** by the conformance oracles and **shrunk** to
//! a minimal reproducer. This is the harness testing itself — an oracle
//! that cannot catch a planted bug is not worth running.
//!
//! Requires the forwarding feature:
//!
//! ```text
//! cargo test -p aqs-check --features fault-inject --test mutation
//! ```
//!
//! The fault switches are process-global atomics, so armed windows must
//! never overlap: every test holds [`FAULT_WINDOW`] for its whole body and
//! disarms through a drop guard even on panic.

#![cfg(feature = "fault-inject")]

use aqs_check::{check_case_with, shrink, CaseSpec, CheckOpts};
use aqs_cluster::{ClusterConfig, Sim, SimError, SimSnapshot};
use aqs_core::SyncConfig;
use std::sync::Mutex;

static FAULT_WINDOW: Mutex<()> = Mutex::new(());

/// Disarms every fault family on drop, so a failing assertion cannot leak
/// an armed fault into the next test.
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        aqs_core::fault::disarm_all();
        aqs_cluster::fault::disarm_all();
        aqs_sync::fault::disarm_all();
    }
}

fn window() -> std::sync::MutexGuard<'static, ()> {
    FAULT_WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

/// Structural size of a case, for asserting the shrinker made progress.
fn size(case: &CaseSpec) -> u64 {
    case.n_nodes as u64
        + case
            .phases
            .iter()
            .map(|p| 1 + p.compute + p.bytes + p.salt.min(1))
            .sum::<u64>()
}

/// Scans the seeded stream until the armed fault is detected, then shrinks
/// the failing case and checks the shrinker's contract: the minimized case
/// is no larger and still carries a failure reason.
fn detect_and_shrink(name: &str, opts: &CheckOpts, scan_limit: u64) {
    let found = (0..scan_limit).find_map(|i| {
        let case = CaseSpec::generate(0xFA017, i);
        check_case_with(&case, opts).err().map(|e| (i, case, e))
    });
    let Some((index, case, reason)) = found else {
        panic!("{name}: fault not detected within {scan_limit} generated cases");
    };
    let result = shrink(&case, &mut |c| check_case_with(c, opts).err());
    assert!(
        size(&result.case) <= size(&case),
        "{name}: shrinker grew the case"
    );
    assert!(
        !result.reason.is_empty(),
        "{name}: minimized case lost its failure reason"
    );
    eprintln!(
        "{name}: detected at case {index} ({reason}); shrunk {} -> {} in {} steps \
         ({} attempts): {}",
        size(&case),
        size(&result.case),
        result.steps,
        result.attempts,
        result.reason
    );
}

/// Deterministic-engine-only oracle runs: faults in the shared policy code
/// are visible without paying for threads.
fn det_only() -> CheckOpts {
    CheckOpts {
        sharded: false,
        sharded_optimistic: false,
        hybrid: false,
        ..CheckOpts::default()
    }
}

/// Sharded-engine-only oracle runs, for faults that must be visible through
/// the sharded packet path and leader alone.
fn sharded_only() -> CheckOpts {
    CheckOpts {
        sharded_optimistic: false,
        hybrid: false,
        ..CheckOpts::default()
    }
}

/// Rollback-engine-only oracle runs, for faults planted in the
/// sharded-optimistic substrate. The quantum cap is lowered so faults that
/// starve a receiver fail fast, and injected deadlocks stay cheap.
fn rollback_only() -> CheckOpts {
    CheckOpts {
        sharded: false,
        quanta_cap: Some(10_000),
        ..CheckOpts::default()
    }
}

#[test]
fn unarmed_faults_are_inert() {
    let _w = window();
    // Compiled in, but not armed: a small campaign must stay green, or the
    // feature itself would perturb the engines.
    for i in 0..12 {
        let case = CaseSpec::generate(0xA5, i);
        check_case_with(&case, &CheckOpts::default())
            .unwrap_or_else(|e| panic!("case {i} failed with faults compiled but unarmed: {e}"));
    }
}

#[test]
fn clamp_high_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // The adaptive clamp lets the quantum overshoot its ceiling; the bounds
    // oracle must see a quantum above `max_quantum`.
    aqs_core::fault::arm(aqs_core::fault::Fault::QuantumClampHigh);
    detect_and_shrink("clamp-high", &det_only(), 400);
}

#[test]
fn clamp_low_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // The clamp floor is halved: the first packet at the floor shrinks the
    // quantum below `min_quantum`.
    aqs_core::fault::arm(aqs_core::fault::Fault::QuantumClampLow);
    detect_and_shrink("clamp-low", &det_only(), 200);
}

#[test]
fn shrink_off_by_one_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // `np <= 1` treated as silence: a quantum that saw exactly one packet
    // grows instead of shrinking — Algorithm 1's direction oracle fires.
    aqs_core::fault::arm(aqs_core::fault::Fault::ShrinkOffByOne);
    detect_and_shrink("shrink-off-by-one", &det_only(), 200);
}

#[test]
fn det_straggler_skip_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // Stragglers still snap (the timeline dilates) but are not recorded:
    // the stragglers-vs-dilation oracle sees a dilated run claiming zero
    // stragglers.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::DetStragglerSkip);
    detect_and_shrink("det-straggler-skip", &det_only(), 200);
}

#[test]
fn leader_np_skip_is_detected_in_the_sharded_engine() {
    let _w = window();
    let _g = Armed;
    // Shard 0's packet count is forgotten when the tree-barrier leader
    // advances the policy, so a quantum where only shard 0 sent grows
    // instead of shrinking, against the true count in the recorded trace.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::LeaderNpSkip);
    detect_and_shrink("leader-np-skip-sharded", &sharded_only(), 200);
}

#[test]
fn mailbox_drop_is_detected_in_the_sharded_engine() {
    let _w = window();
    let _g = Armed;
    // Every 5th mailbox push is dropped (the pooled push path must keep
    // honoring the drop hook): a vanished fragment's receiver blocks
    // forever and the sharded run spins quanta until the cap — caught as an
    // engine panic (or, for tiny cases, as lost messages in the
    // differential).
    aqs_sync::fault::arm_mailbox_drop(5);
    let opts = CheckOpts {
        sharded_optimistic: false,
        hybrid: false,
        // Keep the injected deadlock cheap: the cap only needs to exceed
        // any honest run's quantum count for these small cases.
        quanta_cap: Some(10_000),
        ..CheckOpts::default()
    };
    detect_and_shrink("mailbox-drop-sharded", &opts, 50);
}

#[test]
fn wake_rearm_skip_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // The sharded wake-wheel forgets to re-arm a sleeping node when a
    // delivery lands beyond the quantum edge: the fragment sits in the
    // node's pending set but the node is never scheduled again. A blocked
    // receiver starves (quantum cap) or the run finishes short on messages
    // (conservation) — and the forced-full-sweep twin run is immune, so the
    // active-set differential fires too. The cap is lowered so the injected
    // deadlock fails fast.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::WakeRearmSkip);
    let opts = CheckOpts {
        quanta_cap: Some(10_000),
        ..sharded_only()
    };
    detect_and_shrink("wake-rearm-skip", &opts, 200);
}

#[test]
fn stale_checkpoint_restore_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // Every other window keeps the previous window's checkpoint: a rollback
    // there replays a whole committed window on top of the node. The
    // exactness oracle (an undegraded, snap-free run must land on the
    // ground-truth timeline) or conservation fires.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::StaleCheckpointRestore);
    detect_and_shrink("stale-checkpoint-restore", &rollback_only(), 200);
}

#[test]
fn gvt_from_one_shard_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // GVT taken from shard 0's LVT alone: a window commits while another
    // shard still holds a violation, silently dropping its scheduled
    // re-execution — its receiver starves (quantum cap) or the run loses
    // messages (conservation).
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::GvtFromOneShard);
    detect_and_shrink("gvt-from-one-shard", &rollback_only(), 200);
}

#[test]
fn rollback_mailbox_skip_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // A rollback re-delivers only the delta fragments: the restored node
    // never re-receives its window-start deliveries and blocks forever, or
    // finishes short on messages.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::RollbackMailboxSkip);
    detect_and_shrink("rollback-mailbox-skip", &rollback_only(), 200);
}

/// A healthy simulation plus a mid-run snapshot of it, for the
/// snapshot-corruption faults below. The faults fire inside the serializer
/// (`SimSnapshot::to_bytes`), so one fixed case reaches every one of them;
/// seed/index are known-good (hundreds of quanta under ground truth).
fn snapshot_probe() -> (Sim, SimSnapshot) {
    let case = CaseSpec::generate(0x5EED_0CA7, 0);
    let sim = Sim::new(case.programs())
        .config(ClusterConfig::new(SyncConfig::ground_truth()).with_seed(case.seed))
        .switch(case.switch());
    let snap = sim
        .snapshot_at(5)
        .expect("healthy case snapshots at quantum 5");
    (sim, snap)
}

#[test]
fn truncated_snapshot_is_rejected_with_a_format_error() {
    let _w = window();
    let _g = Armed;
    let (_, snap) = snapshot_probe();
    // The serializer loses its tail (a partial write / torn crash): the
    // frame's declared payload length no longer matches the bytes.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::SnapshotTruncate);
    let bytes = snap.to_bytes();
    assert!(matches!(
        SimSnapshot::from_bytes(&bytes),
        Err(SimError::SnapshotFormat { .. })
    ));
}

#[test]
fn flipped_checksum_byte_is_rejected_with_a_checksum_error() {
    let _w = window();
    let _g = Armed;
    let (_, snap) = snapshot_probe();
    // One payload byte flips after the checksum was computed (bit rot,
    // bad sector): FNV over the payload no longer matches the header.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::SnapshotChecksumFlip);
    let bytes = snap.to_bytes();
    assert!(matches!(
        SimSnapshot::from_bytes(&bytes),
        Err(SimError::SnapshotChecksum { .. })
    ));
}

#[test]
fn stale_fingerprint_is_rejected_at_resume() {
    let _w = window();
    let _g = Armed;
    let (sim, snap) = snapshot_probe();
    // A stale epoch header: the frame is internally consistent (magic,
    // version, checksum all pass) but claims a different simulation spec —
    // only the resume-time fingerprint comparison can catch it.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::SnapshotStaleFingerprint);
    let bytes = snap.to_bytes();
    let stale = SimSnapshot::from_bytes(&bytes)
        .expect("a stale-epoch frame still decodes — the codec alone cannot see it");
    assert!(matches!(
        sim.resume(&stale),
        Err(SimError::SnapshotSpecMismatch { .. })
    ));
}

#[test]
fn skipped_rng_stream_is_rejected_with_a_probe_error() {
    let _w = window();
    let _g = Armed;
    let (_, snap) = snapshot_probe();
    // Node 0's RNG stream is advanced one draw but its probe word is kept:
    // the state words stay individually plausible, so only the per-node
    // probe check can detect the skewed stream.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::SnapshotRngSkip);
    let bytes = snap.to_bytes();
    assert!(matches!(
        SimSnapshot::from_bytes(&bytes),
        Err(SimError::SnapshotRngStream { node: 0 })
    ));
}

#[test]
fn snapshot_corruption_is_detected_by_the_conformance_oracle() {
    let _w = window();
    let _g = Armed;
    // End to end: with the checksum fault armed, the oracle's own
    // crash/resume phase (which wire round-trips every snapshot) must fail
    // the very first case — the corruption never reaches an engine.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::SnapshotChecksumFlip);
    let case = CaseSpec::generate(0x5EED_0CA7, 0);
    let err = check_case_with(&case, &det_only())
        .expect_err("armed snapshot corruption must fail the oracle");
    assert!(
        err.contains("checksum"),
        "oracle failure does not name the checksum corruption: {err}"
    );
}

#[test]
fn hybrid_switch_drop_is_detected_and_shrunk() {
    let _w = window();
    let _g = Armed;
    // The conservative/optimistic mode switch drops the shard's carried
    // in-flight fragments. A tight cascade bound forces switches often, so
    // the lossy transition is reachable by small cases.
    aqs_cluster::fault::arm(aqs_cluster::fault::Fault::HybridSwitchDrop);
    let opts = CheckOpts {
        cascade_bound: 1,
        ..rollback_only()
    };
    detect_and_shrink("hybrid-switch-drop", &opts, 200);
}
