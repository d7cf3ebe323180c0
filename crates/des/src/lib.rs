//! A small, deterministic discrete-event simulation (DES) core.
//!
//! Parallel discrete event simulation partitions a model's state among
//! processing units that exchange timestamped events; the sequential kernel
//! underneath is always the same structure: a priority queue of
//! `(time, event)` pairs drained in time order. This crate provides that
//! kernel with the two properties the aqs cluster engine needs:
//!
//! 1. **Total determinism** — events with equal timestamps are delivered in
//!    schedule order (FIFO), so a run is a pure function of its inputs.
//! 2. **Nothing but the heap on the hot path** — `schedule` and `pop` are
//!    one binary-heap push and pop; there is no per-event set or map.
//!
//! The queue is generic over the time axis (`SimTime`, `HostTime`, or any
//! `Ord + Copy` instant), because the cluster engine runs its outer loop on
//! *host* time while network models compute in *simulated* time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod wheel;

pub use wheel::WheelQueue;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T, E> {
    time: T,
    seq: u64,
    payload: E,
}

impl<T: Ord, E> PartialEq for Entry<T, E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T: Ord, E> Eq for Entry<T, E> {}
impl<T: Ord, E> PartialOrd for Entry<T, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord, E> Ord for Entry<T, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first, and break
        // timestamp ties by schedule order for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic pending-event set ordered by time, FIFO within a time.
///
/// See the [crate docs](crate) for the motivating design notes.
pub struct EventQueue<T, E> {
    heap: BinaryHeap<Entry<T, E>>,
    next_seq: u64,
}

impl<T: Ord + Copy, E> Default for EventQueue<T, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Copy, E> EventQueue<T, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `n` pending events.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    ///
    /// Events at equal times are delivered in the order they were scheduled.
    pub fn schedule(&mut self, time: T, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(T, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqs_time::HostTime;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<HostTime, u32> = EventQueue::new();
        q.schedule(HostTime::from_nanos(30), 3);
        q.schedule(HostTime::from_nanos(10), 1);
        q.schedule(HostTime::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((HostTime::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((HostTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((HostTime::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q: EventQueue<HostTime, u32> = EventQueue::new();
        let t = HostTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    /// 10 000 seeded schedules and pops against a sorted `Vec` of `(time,
    /// schedule order)`: every `pop` must agree, so the queue cannot drift
    /// from the contract the engine's determinism rests on.
    #[test]
    fn differential_against_sorted_vec_model() {
        let mut rng = aqs_rng::Rng::seed_from_u64(0x0DE5);
        let mut q: EventQueue<HostTime, u64> = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (time, seq), kept sorted
        let mut next_seq = 0u64;
        for op in 0..10_000u32 {
            if rng.range_u64(0..7) < 4 {
                // Few distinct times, so ties are the common case.
                let time = rng.range_u64(0..64);
                q.schedule(HostTime::from_nanos(time), next_seq);
                model.push((time, next_seq));
                model.sort_unstable();
                next_seq += 1;
            } else {
                let want = (!model.is_empty()).then(|| model.remove(0));
                let got = q.pop().map(|(t, seq)| (t.as_nanos(), seq));
                assert_eq!(got, want, "op {op}: pop");
            }
        }
    }

    proptest! {
        /// Popping always yields every scheduled event, in a non-decreasing
        /// time sequence, regardless of schedule order.
        #[test]
        fn pop_sequence_is_sorted(times in prop::collection::vec(0u64..1_000, 1..200)) {
            let mut q: EventQueue<HostTime, usize> = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(HostTime::from_nanos(t), i);
            }
            let mut last = HostTime::ZERO;
            let mut popped = 0usize;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                popped += 1;
            }
            prop_assert_eq!(popped, times.len());
        }

        /// FIFO within equal timestamps holds for any number of duplicates.
        #[test]
        fn fifo_within_ties(groups in prop::collection::vec(0u64..10, 1..100)) {
            let mut q: EventQueue<HostTime, usize> = EventQueue::new();
            for (i, &g) in groups.iter().enumerate() {
                q.schedule(HostTime::from_nanos(g), i);
            }
            let mut last_per_time = std::collections::HashMap::new();
            while let Some((t, i)) = q.pop() {
                if let Some(&prev) = last_per_time.get(&t) {
                    prop_assert!(i > prev, "FIFO violated at {t}: {i} after {prev}");
                }
                last_per_time.insert(t, i);
            }
        }
    }
}
