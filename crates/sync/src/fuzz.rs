//! Test-only schedule perturbation hooks (`schedule-fuzz` feature).
//!
//! The worker-pool engines' functional results must be independent of two
//! sources of OS-level nondeterminism: the order in which a mailbox batch is
//! drained, and the order in which threads arrive at the quantum barrier.
//! This module lets a test *amplify* both far beyond what a quiet CI machine
//! would ever produce, so schedule-dependent bugs surface in seconds instead
//! of once a year:
//!
//! * [`Mailbox::drain_into`](crate::Mailbox::drain_into) shuffles each newly
//!   drained batch;
//! * [`TreeBarrier::arrive`](crate::TreeBarrier::arrive) spins a
//!   pseudo-random delay before arriving, perturbing arrival order and
//!   leader election.
//!
//! Both hooks are compiled in only under the `schedule-fuzz` feature and do
//! nothing until [`arm`]ed, so a fuzz-enabled build can still run unfuzzed
//! reference runs. The perturbation stream is process-global and lock-free;
//! it deliberately does *not* promise a reproducible schedule (the OS
//! scheduler is part of the experiment) — reproducibility of the *cases* is
//! the conformance generator's job.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: AtomicU64 = AtomicU64::new(0);

/// Arms the hooks with `seed`. Affects every mailbox and barrier in the
/// process until [`disarm`] is called.
pub fn arm(seed: u64) {
    STATE.store(seed, Ordering::Relaxed);
    ARMED.store(true, Ordering::Release);
}

/// Disarms the hooks; both become no-ops again.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// True when the hooks are armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Next pseudo-random value, or `None` when disarmed. Wait-free: a single
/// `fetch_add` of the SplitMix64 golden gamma plus a stateless mix, so
/// concurrent callers each get a distinct value.
fn next() -> Option<u64> {
    if !is_armed() {
        return None;
    }
    let z = STATE
        .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Some(z ^ (z >> 31))
}

/// Fisher–Yates shuffle of `out[from..]` (the batch a drain just appended).
/// No-op when disarmed.
pub(crate) fn shuffle_tail<T>(out: &mut [T], from: usize) {
    let n = out.len() - from;
    if n < 2 {
        return;
    }
    let Some(mut r) = next() else { return };
    let tail = &mut out[from..];
    for i in (1..n).rev() {
        // Cheap xorshift between swaps; quality is irrelevant here.
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        tail.swap(i, (r % (i as u64 + 1)) as usize);
    }
}

/// Spins for a pseudo-random short delay (0–few µs) to perturb barrier
/// arrival order. No-op when disarmed.
pub fn jitter() {
    let Some(r) = next() else { return };
    let spins = r % 4096;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    // Occasionally yield the timeslice too: on few-core CI machines that is
    // the perturbation that actually reorders arrivals.
    if r % 7 == 0 {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hooks_do_nothing() {
        disarm();
        let mut v = vec![1, 2, 3, 4, 5];
        shuffle_tail(&mut v, 0);
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
        jitter(); // must not hang
    }

    #[test]
    fn armed_shuffle_permutes_only_the_tail() {
        arm(42);
        let mut v: Vec<u64> = (0..100).collect();
        shuffle_tail(&mut v, 90);
        assert_eq!(&v[..90], (0..90).collect::<Vec<u64>>().as_slice());
        let mut tail: Vec<u64> = v[90..].to_vec();
        tail.sort_unstable();
        assert_eq!(tail, (90..100).collect::<Vec<u64>>());
        disarm();
    }
}
