//! What the worker-pool engines ([`sharded`](crate::sharded) and
//! [`sharded_optimistic`](crate::sharded_optimistic)) share: the pure switch
//! models, the run configuration [`Sim`](crate::Sim) hands them, the
//! barrier-leader state, the canonical inbound-fragment record, and the
//! routing of a snapshot's cut-in-flight fragments.
//!
//! Crate-private except [`ParallelNodeResult`], which both engines' public
//! results expose per node.

use crate::sharded::ArrivalTable;
use crate::sim::SimError;
use crate::snapshot::{FragSnap, ResumeSeed};
use aqs_core::{QuantumPolicy, SyncConfig};
use aqs_net::{
    ChaosOverlay, FatTreeFabric, LatencyMatrixSwitch, LinkLoad, NicModel, StragglerStats,
};
use aqs_node::{CpuModel, MessageId, MessageMeta, Rank, RegionRecord};
use aqs_time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Switch models available to the worker-pool engines.
///
/// Only pure models are offered: their transit delay is a function of
/// `(src, dst, bytes, departure)` alone, so workers can compute arrivals
/// without sharing mutable switch state — and call order cannot change any
/// result. [`aqs_net::StoreAndForwardSwitch`] is deliberately absent — its
/// per-egress queue would re-serialize every route call behind a lock, and
/// its result would depend on thread timing.
#[derive(Clone, Debug, Default)]
pub(crate) enum ParallelSwitch {
    /// Infinite bandwidth, zero transit delay (the paper's evaluation
    /// switch).
    #[default]
    Perfect,
    /// Fixed per-(src, dst) latency, as in the deterministic engine's
    /// [`LatencyMatrixSwitch`].
    LatencyMatrix(LatencyMatrixSwitch),
    /// The modeled fat-tree fabric: pure epoch-keyed transit (see
    /// [`FatTreeFabric`]), safe under any routing order.
    Fabric(FatTreeFabric),
    /// Chaos middleware over another pure model: the wrapped switch computes
    /// the base transit and the [`ChaosOverlay`] adds its seeded fault delay
    /// on top. The overlay is itself a pure function of
    /// `(src, dst, bytes, departure)`, so the determinism guarantee holds.
    Chaos(ChaosOverlay, Box<ParallelSwitch>),
}

/// Configuration of a worker-pool run, assembled by `Sim::dispatch` from
/// values `Sim::validate` has already checked.
#[derive(Clone, Debug)]
pub(crate) struct ParallelConfig {
    /// Synchronization policy.
    pub(crate) sync: SyncConfig,
    /// NIC timing model.
    pub(crate) nic: NicModel,
    /// CPU timing model.
    pub(crate) cpu: CpuModel,
    /// Switch timing model.
    pub(crate) switch: ParallelSwitch,
    /// Real host nanoseconds of busy-work burned per simulated operation —
    /// emulates the execution cost of the node simulator itself. Zero runs
    /// the functional simulation at full speed. Finite and non-negative.
    pub(crate) host_work_per_op: f64,
    /// Hard cap on quanta (guards against deadlocked workloads, which the
    /// worker-pool engines cannot otherwise detect).
    pub(crate) max_quanta: u64,
    /// Forces the engines to execute every node every quantum instead of
    /// consulting the active-set wake wheel. A debug/differential mode: the
    /// full sweep is the legacy pre-active-set behavior and the oracle
    /// baseline that active-set runs must match bit for bit.
    pub(crate) full_sweep: bool,
}

/// Per-node outcome of a worker-pool run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParallelNodeResult {
    /// Rank.
    pub rank: Rank,
    /// Simulated completion time.
    pub finish_sim: SimTime,
    /// Operations retired.
    pub ops: u64,
    /// Messages fully received.
    pub messages_received: u64,
    /// Closed timed regions.
    #[serde(skip)]
    pub regions: Vec<RegionRecord>,
}

/// Stop sentinel published through `q_end`.
pub(crate) const Q_END_STOP: u64 = u64::MAX;

/// State only the barrier leader touches, via `TreeBarrier::arrive` — no
/// mutex: exclusivity comes from the barrier protocol itself.
pub(crate) struct LeaderState<R> {
    pub(crate) policy: Box<dyn QuantumPolicy>,
    /// Quanta completed (including the stop round).
    pub(crate) quanta: u64,
    /// Packets routed over the whole run (sum of the per-shard slots).
    pub(crate) total_packets: u64,
    /// Start of the current quantum in sim ns (the previous `q_end_nanos`).
    pub(crate) q_start_nanos: u64,
    /// Current quantum end in sim ns, mirrored into the shared `q_end`.
    pub(crate) q_end_nanos: u64,
    pub(crate) max_quanta: u64,
    /// Observability recorder. Leader-exclusive like the rest of this
    /// struct, so recording needs no lock and stays off the packet path.
    pub(crate) rec: R,
    /// Scratch lanes for sample assembly, reused across quanta.
    pub(crate) waits: Vec<u64>,
    pub(crate) lags: Vec<u64>,
    /// Per-link load merge scratch (fabric switch with recording enabled;
    /// empty — and untouched — otherwise).
    pub(crate) link_load: LinkLoad,
    /// Per-shard active-node merge scratch (recording enabled; empty — and
    /// untouched — otherwise).
    pub(crate) shard_actives: Vec<u64>,
}

/// Burns approximately `ns` nanoseconds of real CPU time.
pub(crate) fn busy_work(ns: f64) {
    if ns < 1.0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_nanos(ns as u64);
    let mut x = 0x9E3779B97F4A7C15u64;
    while Instant::now() < deadline {
        // A few hundred cheap iterations between clock reads.
        for _ in 0..256 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    }
}

/// One fragment known to be heading to a node.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Inbound {
    pub(crate) arrival: SimTime,
    pub(crate) meta_id: MessageId,
    pub(crate) frag_index: u32,
    pub(crate) meta: MessageMetaOrd,
}

/// `MessageMeta` with a total order (for canonical inbound-set comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MessageMetaOrd {
    pub(crate) src: u32,
    pub(crate) seq: u64,
    pub(crate) tag: u32,
    pub(crate) bytes: u64,
    pub(crate) frag_count: u32,
}

impl From<MessageMeta> for MessageMetaOrd {
    fn from(m: MessageMeta) -> Self {
        Self {
            src: m.id.src.as_u32(),
            seq: m.id.seq,
            tag: m.tag.as_u32(),
            bytes: m.bytes,
            frag_count: m.frag_count,
        }
    }
}

impl MessageMetaOrd {
    pub(crate) fn to_meta(self) -> MessageMeta {
        MessageMeta {
            id: MessageId {
                src: Rank::new(self.src),
                seq: self.seq,
            },
            tag: aqs_node::Tag::new(self.tag),
            bytes: self.bytes,
            frag_count: self.frag_count,
        }
    }
}

/// Routes the snapshot's cut-in-flight fragments ahead of the first resumed
/// quantum: every fan-out copy goes to `sink(dst, effective_arrival,
/// fragment)`; returns how many copies were routed and the stragglers among
/// them. The effective delivery time is `max(arrival, q_start)` — the *same*
/// rule the uninterrupted run applied at route time, because every captured
/// fragment departed during the quantum that ended at the cut, so the
/// sender's `q_end` then equals the resumed run's `q_start` now. The
/// straggler records this snapping produces are therefore bit-identical to
/// the uninterrupted run's, for any policy.
pub(crate) fn route_seed_frags(
    seed: &ResumeSeed,
    nic: &NicModel,
    arrivals: &ArrivalTable,
    n: usize,
    mut sink: impl FnMut(usize, SimTime, &FragSnap),
) -> Result<(u64, StragglerStats), SimError> {
    let mut count = 0u64;
    let mut stragglers = StragglerStats::default();
    for pf in &seed.frags {
        let src = pf.src as usize;
        if src >= n {
            return Err(SimError::snapshot_format(format!(
                "in-flight fragment from node {src}, but the cluster has {n} nodes"
            )));
        }
        let targets = match pf.frag.dst {
            Some(r) if (r as usize) < n => r as usize..r as usize + 1,
            Some(t) => {
                return Err(SimError::snapshot_format(format!(
                    "in-flight fragment for node {t}, but the cluster has {n} nodes"
                )));
            }
            None => 0..n,
        };
        let base = nic.earliest_arrival(pf.frag.departure);
        // A broadcast reaches everyone but its sender.
        for t in targets.filter(|&t| pf.frag.dst.is_some() || t != src) {
            let arrival = base
                + SimDuration::from_nanos(arrivals.transit_nanos(
                    src,
                    t,
                    pf.frag.bytes,
                    pf.frag.departure,
                ));
            let eff = if arrival < seed.q_start {
                stragglers.record(seed.q_start - arrival);
                seed.q_start
            } else {
                arrival
            };
            sink(t, eff, &pf.frag);
            count += 1;
        }
    }
    Ok((count, stragglers))
}
