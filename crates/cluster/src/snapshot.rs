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
//!
//! The wire format is a little-endian binary frame:
//!
//! ```text
//! [magic "AQSSNAP1" | version u32 | payload_len u64 | checksum u64 | payload]
//! ```
//!
//! The checksum is FNV-1a over the payload; the payload opens with a
//! *spec fingerprint* — a hash of the workload and configuration the
//! snapshot was taken under — so a snapshot can never be resumed against a
//! different simulation. Every per-node RNG stream carries a probe word
//! (the next draw of the captured stream) that detects skipped or rewound
//! streams even when the bytes themselves are plausible.

use crate::sim::SimError;
use aqs_net::{Destination, NicModel, NodeId, StragglerStats};
use aqs_node::{
    AssemblingState, ExecutorState, HostSpeedState, MailboxState, MessageId, MessageMeta, Rank,
    ReadyState, RegionId, SendTarget, Tag,
};
use aqs_obs::{Log2Histogram, LOG2_BUCKETS};
use aqs_rng::{Rng, RngState};
use aqs_time::{HostTime, SimDuration, SimTime};

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

/// FNV-1a 64-bit hash (used for both the payload checksum and the spec
/// fingerprint).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

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

/// A captured fragment awaiting injection into a resumed parallel engine,
/// together with its sender.
#[derive(Clone, Debug)]
pub(crate) struct PendingFrag {
    /// Sending node.
    pub src: u32,
    /// The fragment (departure time, destination, size, metadata).
    pub frag: FragSnap,
}

/// Per-node state a resumed *parallel* engine needs (the deterministic
/// engine restores directly from [`NodeSnap`], which carries more).
#[derive(Clone, Debug)]
pub(crate) struct ResumeNode {
    /// Executor state.
    pub exec: ExecutorState,
    /// Next outgoing message sequence number.
    pub msg_seq: u64,
    /// Remaining non-interruptible work cut at the quantum edge.
    pub pending: Option<SimDuration>,
    /// The program already finished at capture time.
    pub done: bool,
}

/// Everything a parallel engine needs to resume from a quantum-edge
/// snapshot: per-node state, policy state, run counters, and the set of
/// fragments that were still travelling at the cut.
#[derive(Clone, Debug)]
pub(crate) struct ResumeSeed {
    /// Simulated start of the first resumed quantum.
    pub q_start: SimTime,
    /// Length of the first resumed quantum (already chosen by the policy).
    pub q_len: SimDuration,
    /// The quantum policy's mutable state at the cut.
    pub policy_state: Vec<u64>,
    /// Completed quanta at the cut.
    pub quanta: u64,
    /// Packets delivered before the cut (excludes `frags`).
    pub total_packets: u64,
    /// Straggler statistics accumulated before the cut.
    pub stragglers: StragglerStats,
    /// Per-node executor / RNG / pending-work state.
    pub nodes: Vec<ResumeNode>,
    /// Fragments cut mid-travel: controller in-flight entries first (in
    /// delivery order), then per-node NIC queues in node order. The
    /// resuming engine routes and injects these before its first quantum.
    pub frags: Vec<PendingFrag>,
}

impl SnapshotBody {
    /// Folds the snapshot into the engine-agnostic resume seed used by the
    /// worker-pool engines.
    pub(crate) fn seed(&self) -> Result<ResumeSeed, SimError> {
        let mut frags: Vec<PendingFrag> = self
            .in_flight
            .iter()
            .map(|f| PendingFrag {
                src: f.src,
                frag: f.frag.clone(),
            })
            .collect();
        for (i, n) in self.nodes.iter().enumerate() {
            frags.extend(n.outgoing.iter().map(|f| PendingFrag {
                src: i as u32,
                frag: f.clone(),
            }));
        }
        Ok(ResumeSeed {
            q_start: self.q_start,
            q_len: self.q_len,
            policy_state: self.policy_state.clone(),
            quanta: self.quanta,
            total_packets: self.total_packets,
            stragglers: self.stragglers.restore()?,
            nodes: self
                .nodes
                .iter()
                .map(|n| ResumeNode {
                    exec: n.exec.clone(),
                    msg_seq: n.msg_seq,
                    pending: n.pending.map(|(rem, _idle)| rem),
                    done: n.done,
                })
                .collect(),
            frags,
        })
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
        let mut payload = Enc::default();
        body.encode(&mut payload);
        #[allow(unused_mut)]
        let mut payload = payload.buf;
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
        let body = SnapshotBody::decode(&mut dec)?;
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

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

struct Dec<'a> {
    b: &'a [u8],
    at: usize,
}

impl Dec<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SimError> {
        if self.at + n > self.b.len() {
            return Err(SimError::snapshot_format("payload truncated"));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn boolean(&mut self) -> Result<bool, SimError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SimError::snapshot_format(format!("bad bool byte {v}"))),
        }
    }
    fn f64(&mut self) -> Result<f64, SimError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, SimError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            v => Err(SimError::snapshot_format(format!("bad option tag {v}"))),
        }
    }
    fn len(&mut self) -> Result<usize, SimError> {
        let v = self.u64()?;
        // Cheap sanity bound: no list in a snapshot can have more elements
        // than remaining payload bytes.
        if v as usize > self.b.len() {
            return Err(SimError::snapshot_format(format!("implausible length {v}")));
        }
        Ok(v as usize)
    }
}

fn enc_meta(e: &mut Enc, m: &MessageMeta) {
    e.u32(m.id.src.as_u32());
    e.u64(m.id.seq);
    e.u32(m.tag.as_u32());
    e.u64(m.bytes);
    e.u32(m.frag_count);
}

fn dec_meta(d: &mut Dec) -> Result<MessageMeta, SimError> {
    Ok(MessageMeta {
        id: MessageId {
            src: Rank::new(d.u32()?),
            seq: d.u64()?,
        },
        tag: Tag::new(d.u32()?),
        bytes: d.u64()?,
        frag_count: d.u32()?,
    })
}

fn enc_frag(e: &mut Enc, f: &FragSnap) {
    e.u64(f.departure.as_nanos());
    match f.dst {
        Destination::Broadcast => e.u8(0),
        Destination::Unicast(r) => {
            e.u8(1);
            e.u32(r.as_u32());
        }
    }
    e.u32(f.bytes);
    enc_meta(e, &f.meta);
    e.u32(f.frag_index);
}

fn dec_frag(d: &mut Dec) -> Result<FragSnap, SimError> {
    Ok(FragSnap {
        departure: SimTime::from_nanos(d.u64()?),
        dst: match d.u8()? {
            0 => Destination::Broadcast,
            1 => Destination::Unicast(NodeId::new(d.u32()?)),
            v => return Err(SimError::snapshot_format(format!("bad dst tag {v}"))),
        },
        bytes: d.u32()?,
        meta: dec_meta(d)?,
        frag_index: d.u32()?,
    })
}

fn enc_mailbox(e: &mut Enc, m: &MailboxState) {
    e.len(m.assembling.len());
    for a in &m.assembling {
        enc_meta(e, &a.meta);
        e.len(a.received_mask.len());
        for &b in &a.received_mask {
            e.boolean(b);
        }
        e.u64(a.latest_arrival.as_nanos());
    }
    e.len(m.ready.len());
    for r in &m.ready {
        enc_meta(e, &r.meta);
        e.u64(r.ready_at.as_nanos());
    }
    e.u64(m.completed_total);
}

fn dec_mailbox(d: &mut Dec) -> Result<MailboxState, SimError> {
    let n_asm = d.len()?;
    let mut assembling = Vec::with_capacity(n_asm);
    for _ in 0..n_asm {
        let meta = dec_meta(d)?;
        let n_mask = d.len()?;
        let mut received_mask = Vec::with_capacity(n_mask);
        for _ in 0..n_mask {
            received_mask.push(d.boolean()?);
        }
        assembling.push(AssemblingState {
            meta,
            received_mask,
            latest_arrival: SimTime::from_nanos(d.u64()?),
        });
    }
    let n_ready = d.len()?;
    let mut ready = Vec::with_capacity(n_ready);
    for _ in 0..n_ready {
        ready.push(ReadyState {
            meta: dec_meta(d)?,
            ready_at: SimTime::from_nanos(d.u64()?),
        });
    }
    Ok(MailboxState {
        assembling,
        ready,
        completed_total: d.u64()?,
    })
}

fn enc_exec(e: &mut Enc, x: &ExecutorState) {
    e.u64(x.pc);
    e.u64(x.ops_executed);
    e.u64(x.messages_received);
    e.u64(x.pending_overhead.as_nanos());
    e.len(x.open_regions.len());
    for &(r, t) in &x.open_regions {
        e.u32(r.as_u32());
        e.u64(t.as_nanos());
    }
    e.len(x.regions.len());
    for r in &x.regions {
        e.u32(r.region.as_u32());
        e.u64(r.start.as_nanos());
        e.u64(r.end.as_nanos());
    }
    e.opt_u64(x.finish_time.map(|t| t.as_nanos()));
    enc_mailbox(e, &x.mailbox);
}

fn dec_exec(d: &mut Dec) -> Result<ExecutorState, SimError> {
    let pc = d.u64()?;
    let ops_executed = d.u64()?;
    let messages_received = d.u64()?;
    let pending_overhead = SimDuration::from_nanos(d.u64()?);
    let n_open = d.len()?;
    let mut open_regions = Vec::with_capacity(n_open);
    for _ in 0..n_open {
        open_regions.push((RegionId::new(d.u32()?), SimTime::from_nanos(d.u64()?)));
    }
    let n_reg = d.len()?;
    let mut regions = Vec::with_capacity(n_reg);
    for _ in 0..n_reg {
        regions.push(aqs_node::RegionRecord {
            region: RegionId::new(d.u32()?),
            start: SimTime::from_nanos(d.u64()?),
            end: SimTime::from_nanos(d.u64()?),
        });
    }
    let finish_time = d.opt_u64()?.map(SimTime::from_nanos);
    let mailbox = dec_mailbox(d)?;
    Ok(ExecutorState {
        pc,
        ops_executed,
        messages_received,
        pending_overhead,
        open_regions,
        regions,
        finish_time,
        mailbox,
    })
}

fn enc_speed(e: &mut Enc, s: &HostSpeedState) {
    for w in s.rng.s {
        e.u64(w);
    }
    match s.rng.spare_normal {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            e.f64(v);
        }
    }
    e.f64(s.drift_value);
    e.f64(s.jitter);
}

fn dec_speed(d: &mut Dec) -> Result<HostSpeedState, SimError> {
    let mut s = [0u64; 4];
    for w in &mut s {
        *w = d.u64()?;
    }
    let spare_normal = match d.u8()? {
        0 => None,
        1 => Some(d.f64()?),
        v => return Err(SimError::snapshot_format(format!("bad spare tag {v}"))),
    };
    Ok(HostSpeedState {
        rng: RngState { s, spare_normal },
        drift_value: d.f64()?,
        jitter: d.f64()?,
    })
}

impl SnapshotBody {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.fingerprint);
        e.u64(self.quanta);
        e.u64(self.now_host.as_nanos());
        e.u64(self.q_start.as_nanos());
        e.u64(self.q_len.as_nanos());
        e.len(self.policy_state.len());
        for &w in &self.policy_state {
            e.u64(w);
        }
        e.u64(self.total_packets);
        e.u64(self.stragglers.count);
        e.u64(self.stragglers.total.as_nanos());
        e.u64(self.stragglers.max.as_nanos());
        e.len(self.stragglers.hist_counts.len());
        for &c in &self.stragglers.hist_counts {
            e.u64(c);
        }
        e.u64(self.stragglers.hist_sum);
        e.u64(self.stragglers.hist_max);
        e.len(self.nodes.len());
        for n in &self.nodes {
            enc_exec(e, &n.exec);
            enc_speed(e, &n.speed);
            e.u64(n.rng_probe);
            e.u64(n.msg_seq);
            match n.pending {
                None => e.u8(0),
                Some((rem, idle)) => {
                    e.u8(1);
                    e.u64(rem.as_nanos());
                    e.boolean(idle);
                }
            }
            e.len(n.outgoing.len());
            for f in &n.outgoing {
                enc_frag(e, f);
            }
            e.boolean(n.done);
            e.boolean(n.blocked_no_candidate);
        }
        e.len(self.in_flight.len());
        for f in &self.in_flight {
            e.u64(f.due_host.as_nanos());
            e.u32(f.src);
            enc_frag(e, &f.frag);
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, SimError> {
        let fingerprint = d.u64()?;
        let quanta = d.u64()?;
        let now_host = HostTime::from_nanos(d.u64()?);
        let q_start = SimTime::from_nanos(d.u64()?);
        let q_len = SimDuration::from_nanos(d.u64()?);
        let n_pol = d.len()?;
        let mut policy_state = Vec::with_capacity(n_pol);
        for _ in 0..n_pol {
            policy_state.push(d.u64()?);
        }
        let total_packets = d.u64()?;
        let s_count = d.u64()?;
        let s_total = SimDuration::from_nanos(d.u64()?);
        let s_max = SimDuration::from_nanos(d.u64()?);
        let n_hist = d.len()?;
        if n_hist != LOG2_BUCKETS {
            return Err(SimError::snapshot_format(format!(
                "straggler histogram has {n_hist} buckets, expected {LOG2_BUCKETS}"
            )));
        }
        let mut hist_counts = Vec::with_capacity(n_hist);
        for _ in 0..n_hist {
            hist_counts.push(d.u64()?);
        }
        let hist_sum = d.u64()?;
        let hist_max = d.u64()?;
        let n_nodes = d.len()?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let exec = dec_exec(d)?;
            let speed = dec_speed(d)?;
            let rng_probe = d.u64()?;
            let msg_seq = d.u64()?;
            let pending = match d.u8()? {
                0 => None,
                1 => Some((SimDuration::from_nanos(d.u64()?), d.boolean()?)),
                v => return Err(SimError::snapshot_format(format!("bad pending tag {v}"))),
            };
            let n_out = d.len()?;
            let mut outgoing = Vec::with_capacity(n_out);
            for _ in 0..n_out {
                outgoing.push(dec_frag(d)?);
            }
            nodes.push(NodeSnap {
                exec,
                speed,
                rng_probe,
                msg_seq,
                pending,
                outgoing,
                done: d.boolean()?,
                blocked_no_candidate: d.boolean()?,
            });
        }
        let n_fl = d.len()?;
        let mut in_flight = Vec::with_capacity(n_fl);
        for _ in 0..n_fl {
            in_flight.push(InFlightSnap {
                due_host: HostTime::from_nanos(d.u64()?),
                src: d.u32()?,
                frag: dec_frag(d)?,
            });
        }
        Ok(Self {
            fingerprint,
            quanta,
            now_host,
            q_start,
            q_len,
            policy_state,
            total_packets,
            stragglers: StragglerSnap {
                count: s_count,
                total: s_total,
                max: s_max,
                hist_counts,
                hist_sum,
                hist_max,
            },
            nodes,
            in_flight,
        })
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
