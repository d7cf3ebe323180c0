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
//! The cluster engine never cancels: it invalidates a superseded event by
//! bumping a per-node generation counter and ignoring the stale delivery.
//! [`EventQueue::cancel`] exists for callers that cannot do that, and they
//! pay for it: a cancel scans the pending events, O(n), and every `pop` and
//! `peek_time` consults the set of cancelled events until the last of them
//! has been reached and dropped.
//!
//! The queue is generic over the time axis (`SimTime`, `HostTime`, or any
//! `Ord + Copy` instant), because the cluster engine runs its outer loop on
//! *host* time while network models compute in *simulated* time.
//!
//! # Examples
//!
//! ```
//! use aqs_des::EventQueue;
//! use aqs_time::HostTime;
//!
//! let mut q: EventQueue<HostTime, &str> = EventQueue::new();
//! q.schedule(HostTime::from_nanos(20), "second");
//! q.schedule(HostTime::from_nanos(10), "first");
//! let tie_a = q.schedule(HostTime::from_nanos(30), "tie-a");
//! q.schedule(HostTime::from_nanos(30), "tie-b");
//! q.cancel(tie_a);
//!
//! let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, ["first", "second", "tie-b"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod wheel;

pub use wheel::WheelQueue;

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

/// Handle to a scheduled event, usable for cancellation.
///
/// Ids are unique per [`EventQueue`] instance and never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

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
    /// Sequence numbers of cancelled events whose heap slot has not been
    /// reached yet (lazy deletion). Empty unless `cancel` is in use, and
    /// `pop` / `peek_time` look at it only when it is not.
    cancelled: HashSet<u64>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<T: Ord + Copy, E> Default for EventQueue<T, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Copy, E> EventQueue<T, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Creates an empty queue with capacity for `n` pending events.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            cancelled: HashSet::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `payload` at `time` and returns a cancellation handle.
    ///
    /// Events at equal times are delivered in the order they were scheduled.
    pub fn schedule(&mut self, time: T, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Entry { time, seq, payload });
        EventId(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (and is now guaranteed
    /// never to be delivered), `false` if it had already been delivered or
    /// cancelled. Cancellation is lazy: the heap slot is dropped when `pop`
    /// reaches it.
    ///
    /// Costs a scan of the pending events, O(n): the queue keeps no index
    /// from id to heap slot, so that `schedule` and `pop` stay a bare heap
    /// push and pop for callers that never cancel.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let pending = !self.cancelled.contains(&id.0) && self.heap.iter().any(|e| e.seq == id.0);
        if pending {
            self.cancelled.insert(id.0);
        }
        pending
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(T, E)> {
        while let Some(entry) = self.heap.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                continue;
            }
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&mut self) -> Option<T> {
        // Drop cancelled heads so the answer reflects a live event.
        while let Some(entry) = self.heap.peek() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                self.heap.pop();
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Returns `true` if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }
}

impl<T: Ord + Copy + fmt::Debug, E> fmt::Debug for EventQueue<T, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.scheduled_total)
            .finish()
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

    #[test]
    fn cancel_pending_event() {
        let mut q: EventQueue<HostTime, &str> = EventQueue::new();
        let id = q.schedule(HostTime::from_nanos(1), "a");
        q.schedule(HostTime::from_nanos(2), "b");
        assert!(q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((HostTime::from_nanos(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<HostTime, ()> = EventQueue::new();
        assert!(!q.cancel(EventId(17)));
    }

    #[test]
    fn cancel_after_delivery_returns_false_and_keeps_len_consistent() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        let id = q.schedule(HostTime::from_nanos(1), 1);
        q.schedule(HostTime::from_nanos(2), 2);
        assert_eq!(q.pop(), Some((HostTime::from_nanos(1), 1)));
        assert!(
            !q.cancel(id),
            "cancelling a delivered event must report false"
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((HostTime::from_nanos(2), 2)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut q: EventQueue<HostTime, ()> = EventQueue::new();
        let id = q.schedule(HostTime::from_nanos(1), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn cancel_of_a_cleared_event_returns_false() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        let gone = q.schedule(HostTime::from_nanos(1), 1);
        let cancelled = q.schedule(HostTime::from_nanos(2), 2);
        assert!(q.cancel(cancelled));
        q.clear();
        assert!(!q.cancel(gone), "clear dropped the event");
        assert!(!q.cancel(cancelled));
        assert_eq!(q.len(), 0);
        // Ids are not reused, so the stale handles stay dead.
        let fresh = q.schedule(HostTime::from_nanos(3), 3);
        assert!(!q.cancel(gone));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(fresh));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_and_peek_track_interleaved_schedule_cancel_pop() {
        let t = HostTime::from_nanos;
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        let a = q.schedule(t(10), 1);
        let b = q.schedule(t(20), 2);
        let c = q.schedule(t(20), 3);
        assert_eq!((q.len(), q.peek_time()), (3, Some(t(10))));
        assert!(q.cancel(a));
        assert_eq!((q.len(), q.peek_time()), (2, Some(t(20))));
        // The cancelled head is gone; a new, earlier event becomes the head.
        q.schedule(t(5), 4);
        assert_eq!((q.len(), q.peek_time()), (3, Some(t(5))));
        assert_eq!(q.pop(), Some((t(5), 4)));
        assert!(q.cancel(b));
        assert_eq!((q.len(), q.peek_time()), (1, Some(t(20))));
        assert_eq!(q.pop(), Some((t(20), 3)));
        assert!(!q.cancel(c), "already delivered");
        assert!(q.is_empty());
        assert_eq!((q.len(), q.peek_time(), q.pop()), (0, None, None));
        // A cancelled tail leaves nothing to peek at or pop.
        let d = q.schedule(t(30), 5);
        assert!(q.cancel(d));
        assert!(q.is_empty());
        assert_eq!((q.peek_time(), q.pop()), (None, None));
        assert_eq!(q.scheduled_total(), 5);
    }

    /// 10 000 seeded operations against a sorted `Vec` of `(time, schedule
    /// order)`: every `pop`, `peek_time`, `len` and `cancel` return value
    /// must agree, so the bookkeeping cannot drift from the contract the
    /// engine's determinism rests on.
    #[test]
    fn differential_against_sorted_vec_model() {
        let mut rng = aqs_rng::Rng::seed_from_u64(0x0DE5);
        let mut q: EventQueue<HostTime, u64> = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (time, seq), kept sorted
        let mut ids: Vec<(EventId, u64)> = Vec::new(); // every id ever issued
        for op in 0..10_000u32 {
            match rng.range_u64(0..10) {
                0..=3 => {
                    // Few distinct times, so ties are the common case.
                    let time = rng.range_u64(0..64);
                    let seq = ids.len() as u64;
                    ids.push((q.schedule(HostTime::from_nanos(time), seq), seq));
                    model.push((time, seq));
                    model.sort_unstable();
                }
                4..=6 => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    let got = q.pop().map(|(t, seq)| (t.as_nanos(), seq));
                    assert_eq!(got, want, "op {op}: pop");
                }
                7..=8 if !ids.is_empty() => {
                    // Any id ever issued: pending, delivered or cancelled.
                    let (id, seq) = ids[rng.index(ids.len())];
                    let at = model.iter().position(|&(_, s)| s == seq);
                    if let Some(at) = at {
                        model.remove(at);
                    }
                    assert_eq!(q.cancel(id), at.is_some(), "op {op}: cancel {id}");
                }
                9 if rng.range_u64(0..50) == 0 => {
                    q.clear();
                    model.clear();
                }
                _ => {}
            }
            assert_eq!(q.len(), model.len(), "op {op}: len");
            assert_eq!(q.is_empty(), model.is_empty(), "op {op}: is_empty");
            assert_eq!(
                q.peek_time().map(|t| t.as_nanos()),
                model.first().map(|&(t, _)| t),
                "op {op}: peek_time"
            );
        }
        assert_eq!(q.scheduled_total(), ids.len() as u64);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        let id = q.schedule(HostTime::from_nanos(1), 1);
        q.schedule(HostTime::from_nanos(5), 2);
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(HostTime::from_nanos(5)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        let a = q.schedule(HostTime::from_nanos(1), 1);
        q.schedule(HostTime::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        q.schedule(HostTime::from_nanos(1), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduled_total_is_monotone() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        q.schedule(HostTime::from_nanos(1), 1);
        let id = q.schedule(HostTime::from_nanos(2), 2);
        q.cancel(id);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn debug_is_informative() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        q.schedule(HostTime::from_nanos(1), 1);
        let s = format!("{q:?}");
        assert!(s.contains("pending"));
    }

    proptest! {
        /// Popping always yields a non-decreasing time sequence, regardless
        /// of schedule order and interleaved cancellations.
        #[test]
        fn pop_sequence_is_sorted(times in prop::collection::vec(0u64..1_000, 1..200),
                                  cancel_mask in prop::collection::vec(any::<bool>(), 1..200)) {
            let mut q: EventQueue<HostTime, usize> = EventQueue::new();
            let ids: Vec<EventId> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| q.schedule(HostTime::from_nanos(t), i))
                .collect();
            for (id, &c) in ids.iter().zip(cancel_mask.iter().cycle()) {
                if c {
                    q.cancel(*id);
                }
            }
            let mut last = HostTime::ZERO;
            let mut popped = 0usize;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                popped += 1;
            }
            let cancelled = ids.iter().zip(cancel_mask.iter().cycle()).filter(|(_, &c)| c).count();
            prop_assert_eq!(popped, times.len() - cancelled);
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
