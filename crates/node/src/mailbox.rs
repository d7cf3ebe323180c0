//! Receiver-side message reassembly and MPI-style matching.

use crate::program::{Rank, Tag};
use aqs_time::SimTime;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Globally unique message identity: sender rank + per-sender sequence
/// number (assigned in send order, which encodes MPI's non-overtaking rule).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageId {
    /// Sending rank.
    pub src: Rank,
    /// Sequence number within the sender's stream.
    pub seq: u64,
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.src, self.seq)
    }
}

/// Message-level metadata carried by every fragment. Ordered by identity
/// first, so sets of fragments sort canonically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageMeta {
    /// Identity.
    pub id: MessageId,
    /// Matching tag.
    pub tag: Tag,
    /// Total payload size in bytes.
    pub bytes: u64,
    /// Number of link-layer fragments the message was split into.
    pub frag_count: u32,
}

/// Hasher for the partial-message map. Its keys are [`MessageId`]s the
/// simulation itself assigns (a rank and a per-sender counter), so nothing
/// needs SipHash's resistance to crafted collisions; a rotate-multiply fold
/// of the two words spreads them over both the bucket and the control bits
/// of the table.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Which fragments of a partial message have arrived: one inline word for
/// messages of up to 64 fragments, a heap bitmap above that.
#[derive(Clone, Debug)]
enum FragMask {
    Inline(u64),
    Spill(Box<[u64]>),
}

impl FragMask {
    fn new(frag_count: u32) -> Self {
        if frag_count <= 64 {
            FragMask::Inline(0)
        } else {
            FragMask::Spill(vec![0; (frag_count as usize).div_ceil(64)].into())
        }
    }

    /// Sets bit `i`; returns `false` if it was already set.
    #[inline]
    fn insert(&mut self, i: u32) -> bool {
        let word = match self {
            FragMask::Inline(w) => w,
            FragMask::Spill(words) => &mut words[(i >> 6) as usize],
        };
        let bit = 1u64 << (i & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn contains(&self, i: u32) -> bool {
        let word = match self {
            FragMask::Inline(w) => *w,
            FragMask::Spill(words) => words[(i >> 6) as usize],
        };
        word & (1u64 << (i & 63)) != 0
    }
}

#[derive(Clone, Debug)]
struct Assembling {
    meta: MessageMeta,
    received_mask: FragMask,
    received: u32,
    latest_arrival: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct Ready {
    meta: MessageMeta,
    ready_at: SimTime,
}

/// Result of a matching attempt at a given simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchOutcome {
    /// A message matched and was consumed; contains its metadata and the
    /// time it became available (≤ the polling time).
    Matched(MessageMeta, SimTime),
    /// A matching message exists but only becomes available at this future
    /// simulated time; nothing was consumed.
    ReadyAt(SimTime),
    /// No matching message has (even partially) completed yet.
    NoMatch,
}

/// A node's receive-side state: in-flight reassembly plus completed
/// messages awaiting a matching `Recv`.
///
/// Matching follows MPI semantics: within one `(src, tag)` channel messages
/// match in send order (non-overtaking); a wildcard-source receive takes the
/// earliest-available candidate, breaking ties by source rank then sequence
/// number, so matching is fully deterministic.
///
/// # Examples
///
/// ```
/// use aqs_node::{Mailbox, MessageId, MessageMeta, Rank, Tag};
/// use aqs_time::SimTime;
///
/// let mut mb = Mailbox::new();
/// let meta = MessageMeta {
///     id: MessageId { src: Rank::new(1), seq: 0 },
///     tag: Tag::new(5),
///     bytes: 100,
///     frag_count: 1,
/// };
/// let ready = mb.deliver_fragment(meta, 0, SimTime::from_micros(3));
/// assert_eq!(ready, Some(SimTime::from_micros(3)));
/// ```
#[derive(Debug, Default)]
pub struct Mailbox {
    /// Messages of two or more fragments that are still missing some.
    assembling: HashMap<MessageId, Assembling, BuildHasherDefault<IdHasher>>,
    ready: Vec<Ready>,
    completed_total: u64,
}

/// `clone_from` reuses the target's table and ready vector: a rollback
/// engine refreshes a node's checkpoint every window.
impl Clone for Mailbox {
    fn clone(&self) -> Self {
        Self {
            assembling: self.assembling.clone(),
            ready: self.ready.clone(),
            completed_total: self.completed_total,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.assembling.clone_from(&source.assembling);
        self.ready.clone_from(&source.ready);
        self.completed_total = source.completed_total;
    }
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivers one fragment that becomes visible at `arrival`.
    ///
    /// Returns `Some(ready_time)` when this fragment completes its message
    /// (the ready time is the latest fragment arrival), `None` while the
    /// message is still partial.
    ///
    /// # Panics
    ///
    /// Panics if the fragment index is out of range, if the same fragment is
    /// delivered twice, or if the same message id is re-delivered with
    /// conflicting metadata. (The caller must not redeliver fragments of a
    /// message that already completed.)
    pub fn deliver_fragment(
        &mut self,
        meta: MessageMeta,
        frag_index: u32,
        arrival: SimTime,
    ) -> Option<SimTime> {
        assert!(
            frag_index < meta.frag_count,
            "fragment index {frag_index} out of range"
        );
        let ready_at = if meta.frag_count == 1 {
            // Complete on arrival: nothing to reassemble, so the map is only
            // consulted for a partial message wrongly sharing this id.
            assert!(
                !self.assembling.contains_key(&meta.id),
                "conflicting metadata for {}",
                meta.id
            );
            arrival
        } else {
            let slot = self.assembling.entry(meta.id).or_insert(Assembling {
                meta,
                received_mask: FragMask::new(meta.frag_count),
                received: 0,
                latest_arrival: SimTime::ZERO,
            });
            assert_eq!(slot.meta, meta, "conflicting metadata for {}", meta.id);
            assert!(
                slot.received_mask.insert(frag_index),
                "duplicate fragment {frag_index} for {}",
                meta.id
            );
            slot.received += 1;
            slot.latest_arrival = slot.latest_arrival.max(arrival);
            if slot.received < meta.frag_count {
                return None;
            }
            let done = self.assembling.remove(&meta.id).expect("slot vanished");
            done.latest_arrival
        };
        self.completed_total += 1;
        crate::push_first_exact(&mut self.ready, Ready { meta, ready_at });
        Some(ready_at)
    }

    /// Attempts to match a receive posted at simulated time `now`.
    ///
    /// See [`MatchOutcome`] for the three possible results. Only a
    /// [`MatchOutcome::Matched`] consumes the message.
    pub fn match_recv(&mut self, src: Option<Rank>, tag: Tag, now: SimTime) -> MatchOutcome {
        // Per (src, tag) channel the earliest-seq ready message is the only
        // legal match (non-overtaking); collect one candidate per source.
        let mut best: Option<(usize, Ready)> = None;
        for (i, r) in self.ready.iter().enumerate() {
            if r.meta.tag != tag {
                continue;
            }
            if let Some(want) = src {
                if r.meta.id.src != want {
                    continue;
                }
            }
            let replace = match &best {
                None => true,
                Some((_, b)) => {
                    if r.meta.id.src == b.meta.id.src {
                        // Same channel: lower seq wins regardless of time.
                        r.meta.id.seq < b.meta.id.seq
                    } else {
                        // Different sources: earliest availability wins;
                        // deterministic tie-break by (src, seq).
                        (r.ready_at, r.meta.id.src, r.meta.id.seq)
                            < (b.ready_at, b.meta.id.src, b.meta.id.seq)
                    }
                }
            };
            if replace {
                best = Some((i, *r));
            }
        }
        match best {
            None => MatchOutcome::NoMatch,
            Some((i, r)) if r.ready_at <= now => {
                self.ready.swap_remove(i);
                MatchOutcome::Matched(r.meta, r.ready_at)
            }
            Some((_, r)) => MatchOutcome::ReadyAt(r.ready_at),
        }
    }

    /// Number of fully reassembled messages not yet consumed.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Number of messages still missing fragments.
    pub fn assembling_len(&self) -> usize {
        self.assembling.len()
    }

    /// Total messages completed over the mailbox's lifetime.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Captures the full receive-side state for a snapshot.
    ///
    /// Partially assembled messages are emitted sorted by message id (the
    /// internal map iterates in arbitrary order); the ready list is emitted
    /// **verbatim** — [`Self::match_recv`] removes with `swap_remove`, so
    /// replaying an identical run requires the identical vector layout.
    pub fn export_state(&self) -> MailboxState {
        let mut assembling: Vec<AssemblingState> = self
            .assembling
            .values()
            .map(|a| AssemblingState {
                meta: a.meta,
                received_mask: (0..a.meta.frag_count)
                    .map(|i| a.received_mask.contains(i))
                    .collect(),
                latest_arrival: a.latest_arrival,
            })
            .collect();
        assembling.sort_by_key(|a| a.meta.id);
        MailboxState {
            assembling,
            ready: self
                .ready
                .iter()
                .map(|r| ReadyState {
                    meta: r.meta,
                    ready_at: r.ready_at,
                })
                .collect(),
            completed_total: self.completed_total,
        }
    }

    /// Rebuilds a mailbox captured by [`Self::export_state`], validating the
    /// structural invariants a corrupt snapshot could violate.
    pub fn from_state(state: MailboxState) -> Result<Self, String> {
        let mut assembling =
            HashMap::with_capacity_and_hasher(state.assembling.len(), Default::default());
        for a in state.assembling {
            if a.received_mask.len() != a.meta.frag_count as usize {
                return Err(format!(
                    "message {}: mask length {} != frag_count {}",
                    a.meta.id,
                    a.received_mask.len(),
                    a.meta.frag_count
                ));
            }
            let mut received_mask = FragMask::new(a.meta.frag_count);
            let mut received = 0u32;
            for (i, _) in a.received_mask.iter().enumerate().filter(|(_, &b)| b) {
                received_mask.insert(i as u32);
                received += 1;
            }
            if received == 0 || received >= a.meta.frag_count {
                return Err(format!(
                    "message {}: {} of {} fragments is not a partial assembly",
                    a.meta.id, received, a.meta.frag_count
                ));
            }
            if assembling
                .insert(
                    a.meta.id,
                    Assembling {
                        meta: a.meta,
                        received_mask,
                        received,
                        latest_arrival: a.latest_arrival,
                    },
                )
                .is_some()
            {
                return Err(format!("duplicate assembling message {}", a.meta.id));
            }
        }
        Ok(Self {
            assembling,
            ready: state
                .ready
                .into_iter()
                .map(|r| Ready {
                    meta: r.meta,
                    ready_at: r.ready_at,
                })
                .collect(),
            completed_total: state.completed_total,
        })
    }
}

/// One partially assembled message inside a [`MailboxState`].
#[derive(Clone, Debug, PartialEq)]
pub struct AssemblingState {
    /// Message metadata.
    pub meta: MessageMeta,
    /// Which fragments have arrived (`frag_count` entries).
    pub received_mask: Vec<bool>,
    /// Latest fragment arrival seen so far.
    pub latest_arrival: SimTime,
}

/// One completed-but-unconsumed message inside a [`MailboxState`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadyState {
    /// Message metadata.
    pub meta: MessageMeta,
    /// When the message became available.
    pub ready_at: SimTime,
}

/// The full receive-side state of one node, as captured by
/// [`Mailbox::export_state`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MailboxState {
    /// In-flight reassembly, sorted by message id.
    pub assembling: Vec<AssemblingState>,
    /// Completed messages in the mailbox's exact (swap_remove-shaped) order.
    pub ready: Vec<ReadyState>,
    /// Lifetime completion counter.
    pub completed_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(src: u32, seq: u64, tag: u32, frags: u32) -> MessageMeta {
        MessageMeta {
            id: MessageId {
                src: Rank::new(src),
                seq,
            },
            tag: Tag::new(tag),
            bytes: 9000 * frags as u64,
            frag_count: frags,
        }
    }

    #[test]
    fn single_fragment_completes_immediately() {
        let mut mb = Mailbox::new();
        let t = SimTime::from_micros(2);
        assert_eq!(mb.deliver_fragment(meta(1, 0, 0, 1), 0, t), Some(t));
        assert_eq!(mb.ready_len(), 1);
        assert_eq!(mb.completed_total(), 1);
    }

    #[test]
    fn multi_fragment_ready_at_last_arrival() {
        let mut mb = Mailbox::new();
        let m = meta(1, 0, 0, 3);
        assert_eq!(mb.deliver_fragment(m, 0, SimTime::from_micros(1)), None);
        assert_eq!(mb.deliver_fragment(m, 2, SimTime::from_micros(9)), None);
        assert_eq!(mb.assembling_len(), 1);
        assert_eq!(
            mb.deliver_fragment(m, 1, SimTime::from_micros(5)),
            Some(SimTime::from_micros(9))
        );
        assert_eq!(mb.assembling_len(), 0);
    }

    #[test]
    fn matched_consumes() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 7, 1), 0, SimTime::from_micros(1));
        let out = mb.match_recv(Some(Rank::new(1)), Tag::new(7), SimTime::from_micros(2));
        assert!(matches!(out, MatchOutcome::Matched(m, t)
            if m.id.seq == 0 && t == SimTime::from_micros(1)));
        assert_eq!(mb.ready_len(), 0);
        assert_eq!(
            mb.match_recv(Some(Rank::new(1)), Tag::new(7), SimTime::from_micros(2)),
            MatchOutcome::NoMatch
        );
    }

    #[test]
    fn one_ready_message_reserves_one_entry() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 7, 1), 0, SimTime::from_micros(1));
        assert_eq!(mb.ready.capacity(), 1);
        let out = mb.match_recv(Some(Rank::new(1)), Tag::new(7), SimTime::from_micros(2));
        assert!(matches!(out, MatchOutcome::Matched(..)));
        assert_eq!(mb.ready.capacity(), 1);
    }

    #[test]
    fn future_ready_reported_not_consumed() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 7, 1), 0, SimTime::from_micros(10));
        let out = mb.match_recv(Some(Rank::new(1)), Tag::new(7), SimTime::from_micros(2));
        assert_eq!(out, MatchOutcome::ReadyAt(SimTime::from_micros(10)));
        assert_eq!(mb.ready_len(), 1);
    }

    #[test]
    fn tag_mismatch_is_no_match() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 7, 1), 0, SimTime::ZERO);
        assert_eq!(
            mb.match_recv(Some(Rank::new(1)), Tag::new(8), SimTime::MAX),
            MatchOutcome::NoMatch
        );
    }

    #[test]
    fn non_overtaking_within_channel() {
        let mut mb = Mailbox::new();
        // seq 1 becomes ready *earlier* than seq 0 (engineered reorder).
        mb.deliver_fragment(meta(1, 1, 0, 1), 0, SimTime::from_micros(1));
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::from_micros(5));
        let out = mb.match_recv(Some(Rank::new(1)), Tag::new(0), SimTime::from_micros(10));
        // Must match seq 0 first despite its later ready time.
        assert!(matches!(out, MatchOutcome::Matched(m, _) if m.id.seq == 0));
        let out2 = mb.match_recv(Some(Rank::new(1)), Tag::new(0), SimTime::from_micros(10));
        assert!(matches!(out2, MatchOutcome::Matched(m, _) if m.id.seq == 1));
    }

    #[test]
    fn wildcard_takes_earliest_across_sources() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(2, 0, 0, 1), 0, SimTime::from_micros(4));
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::from_micros(9));
        let out = mb.match_recv(None, Tag::new(0), SimTime::from_micros(20));
        assert!(matches!(out, MatchOutcome::Matched(m, _) if m.id.src == Rank::new(2)));
    }

    #[test]
    fn wildcard_tie_breaks_by_source_rank() {
        let mut mb = Mailbox::new();
        let t = SimTime::from_micros(4);
        mb.deliver_fragment(meta(3, 0, 0, 1), 0, t);
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, t);
        let out = mb.match_recv(None, Tag::new(0), SimTime::MAX);
        assert!(matches!(out, MatchOutcome::Matched(m, _) if m.id.src == Rank::new(1)));
    }

    #[test]
    fn state_round_trip_preserves_matching_order() {
        let mut mb = Mailbox::new();
        // Two ready messages (one consumed to shift swap_remove layout) and
        // one partial assembly.
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::from_micros(1));
        mb.deliver_fragment(meta(2, 0, 0, 1), 0, SimTime::from_micros(2));
        mb.deliver_fragment(meta(3, 0, 0, 1), 0, SimTime::from_micros(3));
        mb.match_recv(Some(Rank::new(1)), Tag::new(0), SimTime::MAX);
        mb.deliver_fragment(meta(1, 1, 0, 3), 0, SimTime::from_micros(4));
        mb.deliver_fragment(meta(1, 1, 0, 3), 2, SimTime::from_micros(6));
        let mut restored = Mailbox::from_state(mb.export_state()).expect("valid state");
        assert_eq!(restored.completed_total(), mb.completed_total());
        assert_eq!(restored.ready_len(), mb.ready_len());
        assert_eq!(restored.assembling_len(), 1);
        // Identical matching decisions after the round trip.
        let a = mb.match_recv(None, Tag::new(0), SimTime::MAX);
        let b = restored.match_recv(None, Tag::new(0), SimTime::MAX);
        assert_eq!(a, b);
        assert_eq!(
            restored.deliver_fragment(meta(1, 1, 0, 3), 1, SimTime::from_micros(9)),
            mb.deliver_fragment(meta(1, 1, 0, 3), 1, SimTime::from_micros(9)),
        );
    }

    #[test]
    fn corrupt_states_are_rejected() {
        let bad_mask = MailboxState {
            assembling: vec![AssemblingState {
                meta: meta(1, 0, 0, 3),
                received_mask: vec![true],
                latest_arrival: SimTime::ZERO,
            }],
            ready: vec![],
            completed_total: 0,
        };
        assert!(Mailbox::from_state(bad_mask).is_err());
        let complete_marked_partial = MailboxState {
            assembling: vec![AssemblingState {
                meta: meta(1, 0, 0, 2),
                received_mask: vec![true, true],
                latest_arrival: SimTime::ZERO,
            }],
            ready: vec![],
            completed_total: 0,
        };
        assert!(Mailbox::from_state(complete_marked_partial).is_err());
    }

    /// The receive path as it was before the single-fragment short cut and
    /// the bitmap: every message, one fragment or seventy, goes through a
    /// SipHash map of `Vec<bool>` masks. Matching is that version's single
    /// pass over `ready`, kept as it was: which message a wildcard receive
    /// takes depends on the order of `ready` (a later, lower sequence number
    /// displaces its channel's candidate without revisiting the sources
    /// already passed), and pinned run digests depend on that.
    #[derive(Default)]
    struct ModelMailbox {
        assembling: std::collections::HashMap<MessageId, AssemblingState>,
        ready: Vec<ReadyState>,
        completed_total: u64,
    }

    impl ModelMailbox {
        fn deliver_fragment(
            &mut self,
            meta: MessageMeta,
            frag_index: u32,
            arrival: SimTime,
        ) -> Option<SimTime> {
            assert!(frag_index < meta.frag_count, "fragment index out of range");
            let slot = self.assembling.entry(meta.id).or_insert(AssemblingState {
                meta,
                received_mask: vec![false; meta.frag_count as usize],
                latest_arrival: SimTime::ZERO,
            });
            assert_eq!(slot.meta, meta, "conflicting metadata");
            assert!(!slot.received_mask[frag_index as usize], "duplicate");
            slot.received_mask[frag_index as usize] = true;
            slot.latest_arrival = slot.latest_arrival.max(arrival);
            if slot.received_mask.iter().all(|&b| b) {
                let done = self.assembling.remove(&meta.id).expect("present");
                self.completed_total += 1;
                self.ready.push(ReadyState {
                    meta,
                    ready_at: done.latest_arrival,
                });
                Some(done.latest_arrival)
            } else {
                None
            }
        }

        fn match_recv(&mut self, src: Option<Rank>, tag: Tag, now: SimTime) -> MatchOutcome {
            let mut best: Option<(usize, ReadyState)> = None;
            for (i, r) in self.ready.iter().enumerate() {
                if r.meta.tag != tag || src.is_some_and(|want| r.meta.id.src != want) {
                    continue;
                }
                let replace = best.is_none_or(|(_, b)| {
                    if r.meta.id.src == b.meta.id.src {
                        r.meta.id.seq < b.meta.id.seq
                    } else {
                        (r.ready_at, r.meta.id.src, r.meta.id.seq)
                            < (b.ready_at, b.meta.id.src, b.meta.id.seq)
                    }
                });
                if replace {
                    best = Some((i, *r));
                }
            }
            match best {
                None => MatchOutcome::NoMatch,
                Some((i, r)) if r.ready_at <= now => {
                    self.ready.swap_remove(i);
                    MatchOutcome::Matched(r.meta, r.ready_at)
                }
                Some((_, r)) => MatchOutcome::ReadyAt(r.ready_at),
            }
        }

        fn export_state(&self) -> MailboxState {
            let mut assembling: Vec<AssemblingState> = self.assembling.values().cloned().collect();
            assembling.sort_by_key(|a| a.meta.id);
            MailboxState {
                assembling,
                ready: self.ready.clone(),
                completed_total: self.completed_total,
            }
        }
    }

    /// 10 000 seeded operations — new messages of 1, 2, 11 and 70 fragments
    /// (the last spills the inline bitmap), fragments delivered in shuffled
    /// order and interleaved across messages, sourced and wildcard receives
    /// at times before and after availability — against [`ModelMailbox`]:
    /// every return value and the exported state must agree after every
    /// operation, and a restored copy must export the same state again.
    #[test]
    fn differential_against_hashmap_and_vec_bool_model() {
        let mut rng = aqs_rng::Rng::seed_from_u64(0x4D41_494C);
        let mut mb = Mailbox::new();
        let mut model = ModelMailbox::default();
        let mut next_seq = [0u64; 6];
        // Messages with fragments still to deliver, each with the shuffled
        // order its remaining fragments will arrive in.
        let mut in_flight: Vec<(MessageMeta, Vec<u32>)> = Vec::new();
        let (mut matched, mut spilled) = (0u32, 0u32);
        for op in 0..10_000u32 {
            match rng.range_u64(0..10) {
                0..=1 if in_flight.len() < 40 => {
                    let src = rng.index(next_seq.len());
                    let frags = *rng.pick(&[1u32, 1, 2, 2, 11, 70]);
                    let m = meta(src as u32, next_seq[src], rng.range_u64(0..3) as u32, frags);
                    next_seq[src] += 1;
                    let mut order: Vec<u32> = (0..frags).collect();
                    rng.shuffle(&mut order);
                    spilled += u32::from(frags > 64);
                    in_flight.push((m, order));
                }
                2..=6 if !in_flight.is_empty() => {
                    let at = rng.index(in_flight.len());
                    let m = in_flight[at].0;
                    let frag = in_flight[at].1.pop().expect("no empty entries are kept");
                    if in_flight[at].1.is_empty() {
                        in_flight.swap_remove(at);
                    }
                    // Few distinct times, so equal ready times are common.
                    let arrival = SimTime::from_nanos(rng.range_u64(0..48));
                    assert_eq!(
                        mb.deliver_fragment(m, frag, arrival),
                        model.deliver_fragment(m, frag, arrival),
                        "op {op}: deliver {} fragment {frag}",
                        m.id
                    );
                }
                7..=9 => {
                    let src =
                        (rng.range_u64(0..3) > 0).then(|| Rank::new(rng.range_u64(0..6) as u32));
                    let tag = Tag::new(rng.range_u64(0..3) as u32);
                    let now = SimTime::from_nanos(rng.range_u64(0..64));
                    let got = mb.match_recv(src, tag, now);
                    assert_eq!(got, model.match_recv(src, tag, now), "op {op}: match_recv");
                    matched += u32::from(matches!(got, MatchOutcome::Matched(..)));
                }
                _ => {}
            }
            let state = mb.export_state();
            assert_eq!(state, model.export_state(), "op {op}: export_state");
            assert_eq!(mb.ready_len(), model.ready.len(), "op {op}");
            assert_eq!(mb.assembling_len(), model.assembling.len(), "op {op}");
            assert_eq!(mb.completed_total(), model.completed_total, "op {op}");
            if op % 64 == 0 {
                let restored = Mailbox::from_state(state.clone()).expect("own state is valid");
                assert_eq!(restored.export_state(), state, "op {op}: round trip");
            }
        }
        // The stream must have exercised what it claims to.
        assert!(
            matched > 200 && spilled > 20,
            "{matched} matched, {spilled} spilled"
        );
        assert!(mb.assembling_len() > 0, "partial messages at the end");
    }

    /// 4096 eleven-fragment messages from 1024 senders, all partial at once
    /// (every message's fragment k before any message's fragment k + 1):
    /// what a 1024-node all-to-all of multi-fragment messages puts in one
    /// node's mailbox. Results must equal the model's, and the ids must
    /// spread over the table: the map is only O(1) if the hasher does not
    /// pile these keys onto a few buckets, so count the collisions the way
    /// the table sees them (bucket index from the low bits, control byte
    /// from the top seven).
    #[test]
    fn four_thousand_concurrent_partials_agree_and_do_not_collide() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let metas: Vec<MessageMeta> = (0..4096u32)
            .map(|i| meta(i % 1024, u64::from(i / 1024) + 7, i % 3, 11))
            .collect();
        let mut mb = Mailbox::new();
        let mut model = ModelMailbox::default();
        for frag in 0..11u32 {
            for (i, m) in metas.iter().enumerate() {
                let arrival = SimTime::from_nanos(u64::from(frag) * 5000 + (i as u64 * 7) % 4999);
                assert_eq!(
                    mb.deliver_fragment(*m, frag, arrival),
                    model.deliver_fragment(*m, frag, arrival),
                    "message {i} fragment {frag}"
                );
            }
            assert_eq!(mb.assembling_len(), if frag < 10 { 4096 } else { 0 });
            assert_eq!(mb.export_state(), model.export_state(), "fragment {frag}");
        }
        assert_eq!(mb.completed_total(), 4096);
        for _ in 0..4096 {
            let got = mb.match_recv(None, Tag::new(1), SimTime::MAX);
            assert_eq!(got, model.match_recv(None, Tag::new(1), SimTime::MAX));
        }
        assert_eq!(mb.export_state(), model.export_state());

        // 4096 keys in the 8192 buckets a table at 50 % load would have:
        // a uniform hash leaves about 3200 distinct buckets and no bucket
        // with more than a handful of keys.
        let hasher = BuildHasherDefault::<IdHasher>::default();
        let mut per_bucket = vec![0u32; 8192];
        let mut control = std::collections::HashSet::new();
        for m in &metas {
            let h = hasher.hash_one(m.id);
            per_bucket[(h & 8191) as usize] += 1;
            control.insert(h >> 57);
        }
        let used = per_bucket.iter().filter(|&&c| c > 0).count();
        let worst = per_bucket.iter().max().copied().unwrap_or(0);
        assert!(used >= 2800, "only {used} of 8192 buckets used");
        assert!(worst <= 8, "{worst} ids share one bucket");
        assert!(control.len() >= 64, "only {} control bytes", control.len());
    }

    #[test]
    #[should_panic(expected = "conflicting metadata")]
    fn conflicting_metadata_panics() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 0, 2), 0, SimTime::ZERO);
        mb.deliver_fragment(meta(1, 0, 9, 2), 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "conflicting metadata")]
    fn single_fragment_under_a_partial_messages_id_panics() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 0, 2), 0, SimTime::ZERO);
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate fragment 69")]
    fn duplicate_fragment_in_a_spilled_mask_panics() {
        let mut mb = Mailbox::new();
        let m = meta(1, 0, 0, 70);
        mb.deliver_fragment(m, 69, SimTime::ZERO);
        mb.deliver_fragment(m, 69, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate fragment")]
    fn duplicate_fragment_panics() {
        let mut mb = Mailbox::new();
        let m = meta(1, 0, 0, 2);
        mb.deliver_fragment(m, 0, SimTime::ZERO);
        mb.deliver_fragment(m, 0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_fragment_index_panics() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 0, 2), 5, SimTime::ZERO);
    }
}
