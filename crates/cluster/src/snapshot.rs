//! Quantum-edge snapshots of a running simulation.
//!
//! A snapshot captures the *entire* dynamic state of a run at the cut point
//! of a quantum barrier — node executors (program counters, mailboxes,
//! region timing), per-node RNG streams and host-speed state, NIC-serialized
//! fragments not yet departed, fragments in host flight towards the central
//! controller, the quantum policy's adaptive state, and the whole-run
//! counters (packets, stragglers, quanta). Resuming from a snapshot is
//! **bit-identical** to never having stopped: the deterministic engine
//! reproduces the uninterrupted run exactly, and every parallel engine
//! reproduces the uninterrupted functional outcome under a safe quantum.
//! Every engine restores from the captured `SnapshotBody` itself, through
//! its `check`, `restore_exec` and `cut_frags`.
//!
//! The wire format is a little-endian binary frame:
//!
//! ```text
//! [magic "AQSSNAP1" | version u32 | payload_len u64 | checksum u64 | payload]
//! ```
//!
//! The payload is the body, written by the one `Wire` impl per type. For
//! a struct that impl is its `wire_struct!` field list, and **the list is
//! the wire order**: the same list writes the fields and reads them back.
//! The leaves: `u32` / `u64` little-endian, `f64` by its bits, a `bool` one
//! 0/1 byte, times as `u64` nanoseconds, ranks, tags and regions as `u32`,
//! an `Option` a 0/1 tag and then the value, a `Vec` a `u64` length and then
//! the items, a destination `0` (broadcast) or `1` and then the port. A new
//! field is one list entry plus a [`SNAPSHOT_VERSION`] bump.
//!
//! The checksum is FNV-1a over the payload; the payload opens with a
//! *spec fingerprint* — a hash of the workload and configuration the
//! snapshot was taken under — so a snapshot can never be resumed against a
//! different simulation. Every per-node RNG stream carries a probe word
//! (the next draw of the captured stream) that detects skipped or rewound
//! streams even when the bytes themselves are plausible.

use crate::sim::SimError;
use aqs_core::QuantumPolicy;
use aqs_net::{Destination, NicModel, NodeId, StragglerStats};
use aqs_node::{
    AssemblingState, CpuModel, ExecutorState, HostSpeedState, MailboxState, MessageId, MessageMeta,
    NodeExecutor, Program, Rank, ReadyState, RegionId, RegionRecord, SendTarget, Tag,
};
use aqs_obs::{Log2Histogram, LOG2_BUCKETS};
use aqs_rng::{fnv1a, Rng, RngState};
use aqs_time::{HostTime, SimDuration, SimTime};
use std::collections::HashSet;

/// Wire-format magic, first 8 bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AQSSNAP1";
/// Wire-format version this build writes and the only one it accepts.
///
/// Version 1 carried three more payload slots — the accumulated quantum
/// length, the next sample index and the next packet id — each equal to a
/// slot that stays (`q_start`, `quanta`, `total_packets`). Version 2 carried
/// one more per node: the host time its program finished at (an optional
/// `u64`), which no result reports any more. An older frame is rejected at
/// decode with [`SimError::SnapshotFormat`], which the job server answers by
/// restarting the job from quantum 0.
pub const SNAPSHOT_VERSION: u32 = 3;

/// One NIC-serialized fragment (either still queued at its sender or in
/// host flight towards the controller).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FragSnap {
    /// Simulated departure time from the sending NIC.
    pub departure: SimTime,
    /// Destination port, or broadcast.
    pub dst: Destination,
    /// Fragment size in bytes.
    pub bytes: u32,
    /// Message metadata (identity, tag, total size, fragment count).
    pub meta: MessageMeta,
    /// Fragment index within the message.
    pub frag_index: u32,
}

impl FragSnap {
    /// NIC-serializes message `id` into its fragments, the first bit leaving
    /// at `start`: hands each to `emit` stamped with its departure (the
    /// instant its last bit left) and returns the last one's — when the
    /// sender's NIC is free again. Frames leave back to back.
    #[inline]
    pub(crate) fn serialize(
        nic: &NicModel,
        id: MessageId,
        (dst, bytes, tag): (SendTarget, u64, Tag),
        start: SimTime,
        mut emit: impl FnMut(FragSnap),
    ) -> SimTime {
        let frag_count = nic.fragment_count(bytes);
        let meta = MessageMeta {
            id,
            tag,
            bytes,
            frag_count,
        };
        let mut departure = start;
        for frag_index in 0..frag_count {
            let size = nic.fragment_size(bytes, frag_index);
            departure += nic.serialization_delay(size);
            emit(FragSnap {
                departure,
                dst: dst.into(),
                bytes: size,
                meta,
                frag_index,
            });
        }
        departure
    }
}

/// A fragment in host flight between a sending simulator and the central
/// controller at capture time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct InFlightSnap {
    /// Host time at which the fragment reaches the controller.
    pub due_host: HostTime,
    /// Sending node.
    pub src: u32,
    /// The fragment itself.
    pub frag: FragSnap,
}

/// Whole-run straggler statistics at capture time, in raw parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct StragglerSnap {
    pub count: u64,
    pub total: SimDuration,
    pub max: SimDuration,
    pub hist_counts: Vec<u64>,
    pub hist_sum: u64,
    pub hist_max: u64,
}

impl StragglerSnap {
    pub(crate) fn capture(s: &StragglerStats) -> Self {
        Self {
            count: s.count(),
            total: s.total_delay(),
            max: s.max_delay(),
            hist_counts: s.delay_hist().buckets().to_vec(),
            hist_sum: s.delay_hist().sum(),
            hist_max: s.delay_hist().max(),
        }
    }

    pub(crate) fn restore(&self) -> Result<StragglerStats, SimError> {
        let counts: [u64; LOG2_BUCKETS] = self
            .hist_counts
            .clone()
            .try_into()
            .map_err(|_| SimError::snapshot_format("straggler histogram bucket count"))?;
        let hist = Log2Histogram::from_parts(counts, self.hist_sum, self.hist_max)
            .ok_or_else(|| SimError::snapshot_format("straggler histogram overflow"))?;
        StragglerStats::from_parts(self.count, self.total, self.max, hist)
            .ok_or_else(|| SimError::snapshot_format("straggler count/histogram mismatch"))
    }
}

/// Everything captured about one node simulator.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct NodeSnap {
    /// Executor state (program counter, mailbox, regions, counters).
    pub exec: ExecutorState,
    /// Host-speed state (RNG stream, drift, jitter).
    pub speed: HostSpeedState,
    /// Probe word: the next `u64` the captured RNG stream would produce.
    pub rng_probe: u64,
    /// Next outgoing message sequence number.
    pub msg_seq: u64,
    /// Remaining non-interruptible work, if an op was cut mid-execution.
    pub pending: Option<(SimDuration, bool)>,
    /// NIC-serialized fragments that have not yet departed, in queue order.
    pub outgoing: Vec<FragSnap>,
    /// The program already finished.
    pub done: bool,
    /// Last poll returned `Blocked` with no candidate message.
    pub blocked_no_candidate: bool,
}

/// The full captured state of a run at a quantum edge.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SnapshotBody {
    /// Spec fingerprint the snapshot was taken under.
    pub fingerprint: u64,
    /// Completed quanta at capture (the cut lies after quantum `quanta-1`).
    pub quanta: u64,
    /// Host time of the capturing barrier's completion.
    pub now_host: HostTime,
    /// Simulated time of the cut (start of the next quantum).
    pub q_start: SimTime,
    /// Length of the next quantum, as chosen by the policy at the cut.
    pub q_len: SimDuration,
    /// The quantum policy's mutable state.
    pub policy_state: Vec<u64>,
    /// Packets routed so far.
    pub total_packets: u64,
    /// Whole-run straggler statistics so far.
    pub stragglers: StragglerSnap,
    /// Per-node state.
    pub nodes: Vec<NodeSnap>,
    /// Fragments in host flight towards the controller, in delivery order.
    pub in_flight: Vec<InFlightSnap>,
}

impl SnapshotBody {
    /// Checks the body against a simulation of `n` nodes before any engine
    /// restores a node from it, then loads the captured policy state into
    /// `policy`. Every cut fragment must come from a node of the cluster,
    /// carry its sender's message id, go to a node of the cluster (or to
    /// all), and have an index below its message's fragment count. A
    /// unicast one must also fit its receiver's partial message of that id,
    /// if there is one — same metadata, an index not yet received — and be
    /// the only cut copy of its index. A frame that breaks one of these would
    /// otherwise panic or strand a restored engine.
    pub(crate) fn check(&self, n: usize, policy: &mut dyn QuantumPolicy) -> Result<(), SimError> {
        if self.nodes.len() != n {
            return Err(SimError::snapshot_format(format!(
                "snapshot has {} nodes, simulation has {n}",
                self.nodes.len()
            )));
        }
        let mut cut = HashSet::new();
        for (src, f) in self.cut_frags() {
            let dst = match f.dst {
                Destination::Unicast(t) => Some(t.index()),
                Destination::Broadcast => None,
            };
            let (index, count, id_src) = (f.frag_index, f.meta.frag_count, f.meta.id.src.index());
            let fault = if src >= n {
                format!("cut fragment from node {src}, but the cluster has {n} nodes")
            } else if let Some(dst) = dst.filter(|&t| t >= n) {
                format!("cut fragment for node {dst}, but the cluster has {n} nodes")
            } else if index >= count {
                format!("cut fragment index {index} of {count} from node {src}")
            } else if id_src != src {
                format!("cut fragment from node {src} carries a message id of node {id_src}")
            } else if let Some(fault) = dst.and_then(|t| self.misfit(t, f, &mut cut)) {
                fault
            } else {
                continue;
            };
            return Err(SimError::snapshot_format(fault));
        }
        policy
            .load_state(&self.policy_state)
            .map_err(SimError::snapshot_format)
    }

    /// Why unicast cut fragment `f` cannot be delivered to node `t` on top
    /// of its captured mailbox and the cut fragments before it (recorded in
    /// `cut`), if it cannot.
    fn misfit(
        &self,
        t: usize,
        f: &FragSnap,
        cut: &mut HashSet<(usize, MessageId, u32)>,
    ) -> Option<String> {
        let (id, index) = (f.meta.id, f.frag_index);
        if !cut.insert((t, id, index)) {
            return Some(format!(
                "cut fragment {index} of {id} for node {t} is cut twice"
            ));
        }
        let assembling = &self.nodes[t].exec.mailbox.assembling;
        let partial = assembling.iter().find(|a| a.meta.id == id)?;
        if partial.meta != f.meta {
            Some(format!(
                "cut fragment of {id} for node {t} contradicts its partial message"
            ))
        } else if partial.received_mask.get(index as usize) == Some(&true) {
            Some(format!(
                "cut fragment {index} of {id} for node {t} is already in its partial message"
            ))
        } else {
            None
        }
    }

    /// Node `i`'s executor, restored over its `program`.
    pub(crate) fn restore_exec(
        &self,
        i: usize,
        program: Program,
        cpu: CpuModel,
    ) -> Result<NodeExecutor, SimError> {
        NodeExecutor::from_state(program, cpu, self.nodes[i].exec.clone())
            .map_err(|e| SimError::snapshot_format(format!("node {i}: {e}")))
    }

    /// The fragments cut mid-travel, each with its sender: the ones in host
    /// flight first (in delivery order), then every node's NIC queue in
    /// node order.
    pub(crate) fn cut_frags(&self) -> impl Iterator<Item = (usize, &FragSnap)> {
        let in_flight = self.in_flight.iter().map(|f| (f.src as usize, &f.frag));
        let queued = (self.nodes.iter().enumerate())
            .flat_map(|(i, n)| n.outgoing.iter().map(move |f| (i, f)));
        in_flight.chain(queued)
    }
}

/// A crash-safe, quantum-edge snapshot of a running simulation.
///
/// Produced by [`Sim::snapshot_at`](crate::Sim::snapshot_at) (or
/// [`Sim::step_snapshot`](crate::Sim::step_snapshot)) and consumed by
/// [`Sim::resume`](crate::Sim::resume). Serialize with
/// [`to_bytes`](Self::to_bytes) and rebuild with
/// [`from_bytes`](Self::from_bytes); the codec validates the frame magic,
/// version, length, checksum, and every per-node RNG probe, returning a
/// typed [`SimError`] for each corruption class.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSnapshot {
    pub(crate) body: SnapshotBody,
}

impl SimSnapshot {
    /// Number of completed quanta at the capture point.
    pub fn quanta(&self) -> u64 {
        self.body.quanta
    }

    /// Simulated time of the cut (equals the start of the next quantum).
    pub fn sim_time(&self) -> SimTime {
        self.body.q_start
    }

    /// Number of nodes in the captured run.
    pub fn n_nodes(&self) -> usize {
        self.body.nodes.len()
    }

    /// The spec fingerprint the snapshot was captured under. Resume
    /// recomputes this from the target simulation and rejects a mismatch.
    pub fn fingerprint(&self) -> u64 {
        self.body.fingerprint
    }

    /// Serializes the snapshot into the versioned, checksummed wire frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        #[allow(unused_mut)]
        let mut body = self.body.clone();
        #[cfg(feature = "fault-inject")]
        if crate::fault::armed(crate::fault::Fault::SnapshotRngSkip) {
            // Advance node 0's RNG stream one draw but keep the old probe:
            // the state words stay plausible, only the probe check can tell.
            let mut r = Rng::from_state(body.nodes[0].speed.rng).expect("captured state valid");
            let _ = r.next_u64();
            body.nodes[0].speed.rng = r.state();
        }
        #[cfg(feature = "fault-inject")]
        if crate::fault::armed(crate::fault::Fault::SnapshotStaleFingerprint) {
            // A stale epoch header: the frame is internally consistent
            // (checksum passes) but describes a different simulation spec.
            body.fingerprint ^= 1;
        }
        let mut payload = Vec::new();
        body.put(&mut payload);
        let checksum = fnv1a(&payload);
        #[cfg(feature = "fault-inject")]
        if crate::fault::armed(crate::fault::Fault::SnapshotChecksumFlip) {
            let last = payload.len() - 1;
            payload[last] ^= 0xFF;
        }
        let mut out = Vec::with_capacity(28 + payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&payload);
        #[cfg(feature = "fault-inject")]
        if crate::fault::armed(crate::fault::Fault::SnapshotTruncate) {
            out.truncate(out.len().saturating_sub(9));
        }
        out
    }

    /// Rebuilds a snapshot from its wire frame.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotFormat`] for a bad magic, version, length, or
    /// malformed payload; [`SimError::SnapshotChecksum`] when the payload
    /// bytes do not hash to the stored checksum;
    /// [`SimError::SnapshotRngStream`] when a node's RNG state disagrees
    /// with its probe word.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        if bytes.len() < 28 {
            return Err(SimError::snapshot_format(format!(
                "frame too short: {} bytes",
                bytes.len()
            )));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SimError::snapshot_format("bad magic"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SimError::snapshot_format(format!(
                "unsupported version {version}"
            )));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let stored_checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let payload = &bytes[28..];
        if payload.len() != payload_len {
            return Err(SimError::snapshot_format(format!(
                "payload length {} != declared {payload_len}",
                payload.len()
            )));
        }
        let checksum = fnv1a(payload);
        if checksum != stored_checksum {
            return Err(SimError::SnapshotChecksum {
                expected: stored_checksum,
                actual: checksum,
            });
        }
        let mut dec = Dec { b: payload, at: 0 };
        let body = SnapshotBody::get(&mut dec)?;
        let n_hist = body.stragglers.hist_counts.len();
        if n_hist != LOG2_BUCKETS {
            return Err(SimError::snapshot_format(format!(
                "straggler histogram has {n_hist} buckets, expected {LOG2_BUCKETS}"
            )));
        }
        if dec.at != payload.len() {
            return Err(SimError::snapshot_format(format!(
                "{} trailing payload bytes",
                payload.len() - dec.at
            )));
        }
        for (i, n) in body.nodes.iter().enumerate() {
            let mut probe = Rng::from_state(n.speed.rng)
                .ok_or_else(|| SimError::snapshot_format(format!("node {i}: invalid RNG state")))?;
            if probe.next_u64() != n.rng_probe {
                return Err(SimError::SnapshotRngStream { node: i });
            }
        }
        Ok(Self { body })
    }
}

// ---------------------------------------------------------------------------
// Codec.

/// A type's wire form: `put` appends it to a payload, `get` reads it back.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(d: &mut Dec<'_>) -> Result<Self, SimError>;
}

/// A payload being read.
struct Dec<'a> {
    b: &'a [u8],
    at: usize,
}

impl Dec<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], SimError> {
        let bytes = (self.b.get(self.at..self.at + N))
            .ok_or_else(|| SimError::snapshot_format("payload truncated"))?;
        self.at += N;
        Ok(bytes.try_into().expect("N bytes"))
    }

    /// One 0/1 byte: a `bool`, or the tag of an `Option`.
    fn flag(&mut self, what: &str) -> Result<bool, SimError> {
        match self.take()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [v] => Err(SimError::snapshot_format(format!("bad {what} {v}"))),
        }
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
                Ok(<$t>::from_le_bytes(d.take()?))
            }
        }
    )*};
}

wire_int!(u32, u64);

/// Leaves carried as another wire type: `Leaf: Raw = to_raw, from_raw;`.
macro_rules! wire_as {
    ($($t:ty: $raw:ty = $to:ident, $from:path;)*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                self.$to().put(out);
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
                <$raw>::get(d).map($from)
            }
        }
    )*};
}

wire_as! {
    f64: u64 = to_bits, f64::from_bits;
    SimTime: u64 = as_nanos, SimTime::from_nanos;
    SimDuration: u64 = as_nanos, SimDuration::from_nanos;
    HostTime: u64 = as_nanos, HostTime::from_nanos;
    Rank: u32 = as_u32, Rank::new;
    Tag: u32 = as_u32, Tag::new;
    RegionId: u32 = as_u32, RegionId::new;
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
        d.flag("bool byte")
    }
}

impl Wire for [u64; 4] {
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|w| w.put(out));
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
        Ok([u64::get(d)?, u64::get(d)?, u64::get(d)?, u64::get(d)?])
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.is_some() as u8);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
        Ok(if d.flag("option tag")? {
            Some(T::get(d)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        self.iter().for_each(|x| x.put(out));
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
        let len = u64::get(d)?;
        // No list can hold more items than the payload has bytes.
        if len > d.b.len() as u64 {
            return Err(SimError::snapshot_format(format!(
                "implausible length {len}"
            )));
        }
        (0..len).map(|_| T::get(d)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// A destination is an optional port: none is a broadcast.
impl Wire for Destination {
    fn put(&self, out: &mut Vec<u8>) {
        let port = match self {
            Destination::Broadcast => None,
            Destination::Unicast(t) => Some(t.as_u32()),
        };
        port.put(out);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
        let port = Option::<u32>::get(d)?;
        Ok(port.map_or(Destination::Broadcast, |t| {
            Destination::Unicast(NodeId::new(t))
        }))
    }
}

/// One field list per struct, in wire order: `put` writes the fields in the
/// order listed, and `get` reads them back into a struct expression, whose
/// fields Rust evaluates in the order written.
macro_rules! wire_struct {
    ($($t:ident { $($f:ident),* $(,)? })*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, SimError> {
                Ok(Self { $($f: Wire::get(d)?),* })
            }
        }
    )*};
}

wire_struct! {
    MessageId { src, seq }
    MessageMeta { id, tag, bytes, frag_count }
    FragSnap { departure, dst, bytes, meta, frag_index }
    AssemblingState { meta, received_mask, latest_arrival }
    ReadyState { meta, ready_at }
    MailboxState { assembling, ready, completed_total }
    RegionRecord { region, start, end }
    ExecutorState {
        pc, ops_executed, messages_received, pending_overhead,
        open_regions, regions, finish_time, mailbox,
    }
    RngState { s, spare_normal }
    HostSpeedState { rng, drift_value, jitter }
    NodeSnap {
        exec, speed, rng_probe, msg_seq, pending, outgoing, done, blocked_no_candidate,
    }
    InFlightSnap { due_host, src, frag }
    StragglerSnap { count, total, max, hist_counts, hist_sum, hist_max }
    SnapshotBody {
        fingerprint, quanta, now_host, q_start, q_len, policy_state,
        total_packets, stragglers, nodes, in_flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_body() -> SnapshotBody {
        let mut rng = Rng::substream(7, 0);
        let _ = rng.next_u64();
        let state = rng.state();
        let probe = {
            let mut c = Rng::from_state(state).unwrap();
            c.next_u64()
        };
        SnapshotBody {
            fingerprint: 0xDEAD_BEEF,
            quanta: 3,
            now_host: HostTime::from_nanos(12345),
            q_start: SimTime::from_micros(3),
            q_len: SimDuration::from_micros(1),
            policy_state: vec![1, 2, 3],
            total_packets: 9,
            stragglers: StragglerSnap {
                count: 0,
                total: SimDuration::ZERO,
                max: SimDuration::ZERO,
                hist_counts: vec![0; LOG2_BUCKETS],
                hist_sum: 0,
                hist_max: 0,
            },
            nodes: vec![NodeSnap {
                exec: ExecutorState {
                    pc: 2,
                    ops_executed: 100,
                    messages_received: 1,
                    pending_overhead: SimDuration::ZERO,
                    open_regions: vec![(RegionId::new(1), SimTime::from_nanos(5))],
                    regions: vec![],
                    finish_time: None,
                    mailbox: MailboxState::default(),
                },
                speed: HostSpeedState {
                    rng: state,
                    drift_value: 0.25,
                    jitter: 1.5,
                },
                rng_probe: probe,
                msg_seq: 4,
                pending: Some((SimDuration::from_nanos(77), false)),
                outgoing: vec![FragSnap {
                    departure: SimTime::from_micros(4),
                    dst: Destination::Unicast(NodeId::new(1)),
                    bytes: 1500,
                    meta: MessageMeta {
                        id: MessageId {
                            src: Rank::new(0),
                            seq: 3,
                        },
                        tag: Tag::new(9),
                        bytes: 1500,
                        frag_count: 1,
                    },
                    frag_index: 0,
                }],
                done: false,
                blocked_no_candidate: false,
            }],
            in_flight: vec![InFlightSnap {
                due_host: HostTime::from_nanos(999),
                src: 0,
                frag: FragSnap {
                    departure: SimTime::from_micros(2),
                    dst: Destination::Broadcast,
                    bytes: 64,
                    meta: MessageMeta {
                        id: MessageId {
                            src: Rank::new(0),
                            seq: 2,
                        },
                        tag: Tag::new(0),
                        bytes: 64,
                        frag_count: 1,
                    },
                    frag_index: 0,
                },
            }],
        }
    }

    /// `tiny_body` plus a second node and fragments that reach every branch
    /// of the format: an assembling mask, ready entries, closed regions,
    /// `finish_time: Some`, `spare_normal: Some`, pending work idle both
    /// ways, broadcast and unicast destinations, two in-flight fragments
    /// and a non-empty straggler histogram.
    fn every_branch_body() -> SnapshotBody {
        let mut body = tiny_body();
        let mut rng = Rng::substream(7, 1);
        let _ = rng.normal();
        let state = rng.state();
        assert!(state.spare_normal.is_some(), "the draw banks a deviate");
        let meta = |seq, frag_count| MessageMeta {
            id: MessageId {
                src: Rank::new(1),
                seq,
            },
            tag: Tag::new(5),
            bytes: 3000,
            frag_count,
        };
        let mut stragglers = StragglerStats::default();
        for ns in [40, 7_000, 7_001] {
            stragglers.record(SimDuration::from_nanos(ns));
        }
        body.stragglers = StragglerSnap::capture(&stragglers);
        body.nodes.push(NodeSnap {
            exec: ExecutorState {
                pc: 9,
                ops_executed: 1 << 40,
                messages_received: 3,
                pending_overhead: SimDuration::from_nanos(11),
                open_regions: vec![],
                regions: vec![RegionRecord {
                    region: RegionId::new(2),
                    start: SimTime::from_nanos(10),
                    end: SimTime::from_nanos(90),
                }],
                finish_time: Some(SimTime::from_micros(7)),
                mailbox: MailboxState {
                    assembling: vec![AssemblingState {
                        meta: meta(6, 3),
                        received_mask: vec![true, false, true],
                        latest_arrival: SimTime::from_nanos(600),
                    }],
                    ready: vec![
                        ReadyState {
                            meta: meta(4, 1),
                            ready_at: SimTime::from_nanos(400),
                        },
                        ReadyState {
                            meta: meta(5, 2),
                            ready_at: SimTime::from_nanos(500),
                        },
                    ],
                    completed_total: 5,
                },
            },
            speed: HostSpeedState {
                rng: state,
                drift_value: -0.125,
                jitter: 0.75,
            },
            rng_probe: Rng::from_state(state).unwrap().next_u64(),
            msg_seq: 8,
            pending: Some((SimDuration::from_nanos(5), true)),
            outgoing: vec![FragSnap {
                departure: SimTime::from_micros(5),
                dst: Destination::Broadcast,
                bytes: 1000,
                meta: meta(7, 3),
                frag_index: 2,
            }],
            done: true,
            blocked_no_candidate: true,
        });
        body.in_flight.push(InFlightSnap {
            due_host: HostTime::from_nanos(1_001),
            src: 1,
            frag: FragSnap {
                departure: SimTime::from_micros(3),
                dst: Destination::Unicast(NodeId::new(0)),
                bytes: 1000,
                meta: meta(7, 3),
                frag_index: 1,
            },
        });
        body
    }

    /// Real capture frames: the paper's five NAS kernels at four nodes plus
    /// a multi-fragment ping-pong, under dyn1 and a fixed 100 µs quantum,
    /// each cut at five points spread over its run.
    fn real_frames() -> Vec<Vec<u8>> {
        use crate::Sim;
        use aqs_core::SyncConfig;
        use aqs_workloads::{nas, ping_pong, Scale};
        let mut specs = nas::all(4, Scale::Mini);
        specs.push(ping_pong(2, 4, 20_000));
        let mut frames = Vec::new();
        for spec in &specs {
            for sync in [SyncConfig::paper_dyn1(), SyncConfig::fixed_micros(100)] {
                let sim = Sim::new(spec.programs.clone()).sync(sync);
                let total = sim.clone().run().total_quanta;
                for k in 1..=5 {
                    let cut = (total * k / 6).max(1);
                    let snap = sim.snapshot_at(cut).expect("capturable cut");
                    frames.push(snap.to_bytes());
                }
            }
        }
        frames
    }

    /// The wire bytes are pinned: any change to field order, width or
    /// tagging moves one of these hashes, and needs a version bump.
    #[test]
    fn wire_bytes_are_pinned() {
        let pin = |frames: &[Vec<u8>]| {
            let all = frames.concat();
            (fnv1a(&all), all.len())
        };
        let tiny = SimSnapshot { body: tiny_body() }.to_bytes();
        let every = SimSnapshot {
            body: every_branch_body(),
        };
        let every_bytes = every.to_bytes();
        assert_eq!(SimSnapshot::from_bytes(&every_bytes).unwrap(), every);
        let real = real_frames();
        assert_eq!(real.len(), 60);
        assert_eq!(pin(&[tiny]), (0xde98_bbc5_1ce5_6746, 968), "tiny_body");
        assert_eq!(
            pin(&[every_bytes]),
            (0xedfa_0427_4540_d4ec, 1_387),
            "every_branch_body"
        );
        assert_eq!(pin(&real), (0xbd28_62e6_ee02_2180, 82_061), "real frames");
    }

    #[test]
    fn round_trip_is_exact() {
        let snap = SimSnapshot { body: tiny_body() };
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn truncation_is_a_format_error() {
        let bytes = SimSnapshot { body: tiny_body() }.to_bytes();
        for cut in [0, 10, 27, bytes.len() - 1] {
            let err = SimSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SimError::SnapshotFormat { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let mut bytes = SimSnapshot { body: tiny_body() }.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes).unwrap_err(),
            SimError::SnapshotChecksum { .. }
        ));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let good = SimSnapshot { body: tiny_body() }.to_bytes();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            SimSnapshot::from_bytes(&bad_magic).unwrap_err(),
            SimError::SnapshotFormat { .. }
        ));
        // Version is inside the header, not the payload: format error, not
        // checksum. 1 and 2 are the formats older journals carry.
        for version in [1, 2, 99] {
            let mut bad_version = good.clone();
            bad_version[8] = version;
            match SimSnapshot::from_bytes(&bad_version).unwrap_err() {
                SimError::SnapshotFormat { detail } => {
                    assert_eq!(detail, format!("unsupported version {version}"));
                }
                other => panic!("version {version}: {other:?}"),
            }
        }
    }

    #[test]
    fn skipped_rng_stream_is_detected() {
        let mut body = tiny_body();
        // Advance the stream without refreshing the probe.
        let mut r = Rng::from_state(body.nodes[0].speed.rng).unwrap();
        let _ = r.next_u64();
        body.nodes[0].speed.rng = r.state();
        let bytes = SimSnapshot { body }.to_bytes();
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes).unwrap_err(),
            SimError::SnapshotRngStream { node: 0 }
        ));
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
