//! Deliberate, runtime-armable policy bugs (`fault-inject` feature).
//!
//! Each fault is a realistic off-by-one a refactor of Algorithm 1 could
//! introduce. The `aqs-check` mutation smoke test arms them one at a time and
//! proves its invariant oracles detect — and its shrinker minimizes — every
//! one. Compiled in only under the `fault-inject` feature and inert until
//! armed, so a fault-enabled build still behaves correctly by default.
//!
//! Arming is process-global: test binaries that arm faults must serialize
//! the armed window (a shared mutex, or `--test-threads=1`).

use std::sync::atomic::{AtomicU64, Ordering};

/// A deliberate bug in the adaptive-quantum policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The upper clamp lets the quantum overshoot `max_quantum` by
    /// `min_quantum` — breaks the bounds invariant from above.
    QuantumClampHigh = 1,
    /// The lower clamp bottoms out at `min_quantum / 2` — breaks the bounds
    /// invariant from below once traffic shrinks the quantum to the floor.
    QuantumClampLow = 2,
    /// Every brake sees one packet fewer than the quantum routed (the paper's
    /// reads `np <= 1`, not `np == 0`), so a one-packet quantum *grows* —
    /// breaks the paper's shrink-on-packet direction invariant.
    ShrinkOffByOne = 3,
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
