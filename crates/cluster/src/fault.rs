//! Deliberate, runtime-armable engine bugs (`fault-inject` feature).
//!
//! Realistic bugs a refactor of either engine could introduce; the
//! `aqs-check` mutation smoke test arms each one and proves its differential
//! and invariant oracles catch it. Compiled in only under the `fault-inject`
//! feature and inert until armed.
//!
//! Arming is process-global: test binaries that arm faults must serialize
//! the armed window (a shared mutex, or `--test-threads=1`).

use std::sync::atomic::{AtomicU64, Ordering};

/// A deliberate bug in one of the cluster engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The deterministic engine still snaps straggler packets to the
    /// quantum boundary (§3) but forgets to *account* for them — the stats
    /// claim zero stragglers while the timeline is dilated. Detected by the
    /// stragglers-vs-dilation invariant: a run that reports zero stragglers
    /// must reproduce the ground-truth `sim_end` exactly.
    DetStragglerSkip = 1,
    /// The sharded engine's leader forgets shard 0's packet count when
    /// summing `np` for the adaptive policy (the recorded trace still holds
    /// the true sum). Detected by the shrink-on-packet direction invariant
    /// on the recorded quanta.
    LeaderNpSkip = 2,
    /// The sharded optimistic engine skips every other window-start
    /// checkpoint, so a rollback in such a window restores the previous
    /// window's — node state jumps back one extra window, replaying (and
    /// double-counting) work that was already committed. Detected by the
    /// ground-truth differential and conservation oracles.
    StaleCheckpointRestore = 3,
    /// The sharded optimistic leader computes GVT from shard 0's LVT alone
    /// instead of reducing the minimum across shards — windows commit while
    /// another shard still holds a violation. Detected by the
    /// rollback-property oracles (a degraded/clean run must reproduce the
    /// ground-truth timeline exactly) and the cross-engine differential.
    GvtFromOneShard = 4,
    /// A rollback re-delivers only the *delta* fragments instead of
    /// rebuilding the node's full inbound set — previously delivered
    /// messages vanish from the re-execution. Detected by conservation (the
    /// run loses receives) or the quantum cap (receivers deadlock waiting).
    RollbackMailboxSkip = 5,
    /// The hybrid policy's conservative/optimistic mode switch drops the
    /// shard's carried in-flight fragments at the transition. Detected by
    /// conservation or the quantum cap, exactly like a lossy mailbox.
    HybridSwitchDrop = 6,
    /// The snapshot writer truncates the frame mid-payload (a crash between
    /// `write` and `fsync`). Detected by the frame-length check in
    /// [`SimSnapshot::from_bytes`](crate::SimSnapshot::from_bytes), which
    /// reports a typed format error instead of resuming from garbage.
    SnapshotTruncate = 7,
    /// A payload byte is flipped after the checksum was computed (bit rot,
    /// torn write). Detected by the FNV-1a checksum verification.
    SnapshotChecksumFlip = 8,
    /// The snapshot carries a stale spec fingerprint — the frame is
    /// internally consistent but describes a different simulation epoch.
    /// Detected by the fingerprint comparison in
    /// [`Sim::resume`](crate::Sim::resume).
    SnapshotStaleFingerprint = 9,
    /// A node's RNG stream is silently advanced one draw between capture
    /// and serialization (a skipped stream). The state words stay
    /// plausible; only the per-node probe word can tell. Detected by the
    /// probe check in `from_bytes`.
    SnapshotRngSkip = 10,
    /// The sharded engine's wake-wheel forgets to re-arm a sleeping node
    /// when an inbox delivery lands *beyond* the current quantum edge — the
    /// fragment sits in the node's pending set but the node is never
    /// scheduled again unless something else wakes it. Nodes blocked in a
    /// `Recv` stay parked forever. Detected by conservation (receives are
    /// lost) or the quantum cap (the cluster deadlocks), and invisible
    /// under `force_full_sweep`, which is exactly what makes it a
    /// realistic active-set regression.
    WakeRearmSkip = 11,
}

static ARMED: AtomicU64 = AtomicU64::new(0);

/// Arms `fault` (replacing any previously armed one).
pub fn arm(fault: Fault) {
    ARMED.store(fault as u64, Ordering::Release);
}

/// Disarms every fault in this crate.
pub fn disarm_all() {
    ARMED.store(0, Ordering::Release);
}

/// True when `fault` is the currently armed fault.
pub fn armed(fault: Fault) -> bool {
    ARMED.load(Ordering::Acquire) == fault as u64
}
