//! The sharded parallel engine: N node simulators on M worker threads.
//!
//! The paper's system has a one-SimNow-per-core shape: one OS thread per
//! simulated node. That stops scaling long before cluster sizes — at 256+
//! nodes the host drowns in oversubscription and scheduler churn instead of
//! exercising Algorithm 1. This engine decouples logical processes from OS
//! threads: the N node simulators are partitioned into M contiguous shards
//! (M defaulting to the host's available parallelism; `shards(n)` is the
//! paper's thread-per-node shape), each worker advances its whole shard to
//! the quantum edge, and the quantum handshake is a hierarchical two-level
//! [`TreeBarrier`] whose root leader runs the `QuantumPolicy`.
//!
//! Packets cross shards once per quantum, in batches, with every hop
//! allocation-free in steady state:
//!
//! * a worker routes each copy into its own batch for the receiving shard,
//!   a vector no other thread touches: no atomic, no lock and no shared
//!   cache line per packet;
//! * before it arrives at the barrier, the worker publishes each non-empty
//!   batch for another shard to that sender→receiver hand-off slot (one
//!   brief mutex hold and one flag per pair with traffic); after the
//!   barrier each worker takes its own batch directly and locks a peer's
//!   slot only when its flag is set;
//! * batches are swapped between workers, never freed, so their capacity
//!   circulates and a warm run routes without allocating;
//! * arrivals come from the shared [`Router`]: a `LatencyMatrix` lookup is
//!   one indexed load from a dense nanosecond table, with no lock, no
//!   trait object and no allocation per packet.
//!
//! **Delivery is quantum-edge-deterministic.** Instead of checking arrivals
//! against the receiver's live position (a race under unsafe quanta), this
//! engine computes the effective delivery time at route time as
//! `max(arrival, q_end)` of the sender's current quantum, and each shard
//! takes its batches once, at the quantum boundary. Nothing reads a copy
//! before the barrier that ends its sender's quantum, so handing it over
//! then synchronizes nothing the barrier does not already order. A packet
//! that would arrive mid-quantum is a straggler
//! with delay `q_end − arrival` (always less than the quantum, hence within
//! the policy's `maxQ` bound), deferred to the boundary. Consequences:
//!
//! * **Results are bit-identical for every worker count M** and independent
//!   of thread scheduling, for *any* policy: per-node timelines depend only
//!   on the delivered timestamp sets, which no longer depend on the race.
//! * **Under the safe quantum (`Q ≤ T`) the timeline equals the
//!   deterministic engine's bit for bit**: every arrival already lands at or
//!   after the quantum edge, so `max(arrival, q_end) = arrival` and zero
//!   stragglers occur.
//!
//! # Examples
//!
//! ```
//! use aqs_cluster::{EngineKind, Sim};
//! use aqs_core::SyncConfig;
//! use aqs_workloads::ping_pong;
//!
//! let spec = ping_pong(4, 3, 64);
//! let report = Sim::new(spec.programs)
//!     .engine(EngineKind::Sharded)
//!     .shards(2)
//!     .sync(SyncConfig::ground_truth())
//!     .run();
//! assert_eq!(report.stragglers.count(), 0);
//! assert_eq!(report.messages_received, 6);
//! ```

use crate::pool::{
    finish_run, route_seed_frags, start_run, step_node, Advance, Lanes, ParallelConfig,
    QuantumClock, Stepped,
};
use crate::result::NodeResult;
use crate::sim::{EngineKind, SimError};
use crate::snapshot::{FragSnap, SnapshotBody};
use aqs_net::{LinkLoad, Router, StragglerStats};
use aqs_node::{CpuModel, MessageMeta, NodeExecutor, Program};
use aqs_obs::{QuantumObs, Recorder};
use aqs_sync::{ArrivalTimes, CachePadded, TreeBarrier};
use aqs_time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Outcome of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardedRunResult {
    /// Real wall-clock the run took.
    pub wall: Duration,
    /// Simulated completion time (max across nodes).
    pub sim_end: SimTime,
    /// Quanta executed (including the stop round).
    pub total_quanta: u64,
    /// Packets routed.
    pub total_packets: u64,
    /// Straggler statistics (boundary-deferred arrivals).
    pub stragglers: StragglerStats,
    /// Per-node results, in rank order.
    pub per_node: Vec<NodeResult>,
    /// Worker threads the run used (after clamping to the node count).
    pub workers: usize,
    /// Heap allocations the packet path performed, summed over workers: the
    /// capacity growths of the per-shard batches copies are routed into and
    /// handed over in. Batches are swapped between workers, never freed, so
    /// this is warm-up only: it tracks the largest batch a quantum needs,
    /// not the number of copies routed, and in steady state routing a
    /// packet allocates nothing.
    pub pool_heap_allocs: u64,
    /// Node executions summed over all quanta (the active-set work metric).
    /// A full sweep executes every node every quantum, so this equals
    /// `n × total_quanta`; the active-set scheduler executes only nodes with
    /// a wake inside the quantum, so the ratio of the two is the structural
    /// win on idle-heavy workloads. Deterministic: independent of the worker
    /// count and of thread scheduling.
    pub nodes_executed: u64,
}

/// A fragment in flight to one receiver, addressed by global node index.
/// `arrival` is already the effective (boundary-deferred) delivery time.
#[derive(Clone, Copy, Debug)]
struct ShardInFlight {
    dst: u32,
    meta: MessageMeta,
    frag_index: u32,
    arrival: SimTime,
}

impl ShardInFlight {
    fn new(dst: usize, frag: &FragSnap, arrival: SimTime) -> Self {
        Self {
            dst: dst as u32,
            meta: frag.meta,
            frag_index: frag.frag_index,
            arrival,
        }
    }
}

/// One sender→receiver hand-off slot: the sending worker fills it before
/// the barrier, the receiving worker empties it after. `ready` lets the
/// receiver pass an idle slot with one load instead of a lock.
#[derive(Default)]
struct HandOff {
    ready: AtomicBool,
    batch: Mutex<Vec<ShardInFlight>>,
}

/// Stop sentinel published through `q_end`.
const Q_END_STOP: u64 = u64::MAX;

/// State only the barrier leader touches, via `TreeBarrier::arrive` — no
/// mutex: exclusivity comes from the barrier protocol itself.
struct LeaderState<R> {
    clock: QuantumClock,
    /// Packets routed over the whole run (sum of the per-shard slots).
    total_packets: u64,
    /// Observability recorder. Leader-exclusive like the rest of this
    /// struct, so recording needs no lock and stays off the packet path.
    rec: R,
    /// Scratch lanes for sample assembly, reused across quanta.
    waits: Vec<u64>,
    lags: Vec<u64>,
    /// Per-link load merge scratch (fabric switch with recording enabled;
    /// empty — and untouched — otherwise).
    link_load: LinkLoad,
    /// Per-shard active-node merge scratch (recording enabled; empty — and
    /// untouched — otherwise).
    shard_actives: Vec<u64>,
}

/// One worker's (= one fabric slice's) per-link load accumulator. Each
/// worker writes only its own slot (relaxed adds — the slot is effectively
/// thread-private during the quantum), and the barrier-root leader drains
/// every slot with `swap(0)` inside the barrier's exclusive section.
/// Commutative sums only: the merged totals are independent of worker count
/// and routing order.
struct LinkSlot {
    bytes: Vec<AtomicU64>,
    packets: Vec<AtomicU64>,
}

impl LinkSlot {
    fn new(n_links: usize) -> Self {
        Self {
            bytes: (0..n_links).map(|_| AtomicU64::new(0)).collect(),
            packets: (0..n_links).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Per-shard observability publication (straggler delta for the quantum).
#[derive(Default)]
struct ShardObsSlot {
    s_count: AtomicU64,
    s_max: AtomicU64,
    /// Nodes this shard executed during the quantum (active-set size).
    active: AtomicU64,
}

/// Per-worker accounting, entirely thread-private.
struct WorkerCtx {
    /// This worker's index (= its shard, = its fabric slice).
    w: usize,
    /// Stragglers recorded in the current quantum.
    stragglers: StragglerStats,
    /// Run-total straggler tally, returned at worker exit.
    run_stragglers: StragglerStats,
    /// Packets routed in the current quantum (the policy's `np` signal).
    quantum_packets: u64,
    /// Copies routed in the current quantum, one batch per receiving shard.
    /// Only this worker touches them: `next_quantum` publishes the batches
    /// for other shards, the next quantum's start delivers its own.
    out: Vec<Vec<ShardInFlight>>,
    /// Capacity growths of the batches this worker filled (see
    /// [`ShardedRunResult::pool_heap_allocs`]).
    heap_allocs: u64,
}

/// A shard's node simulators in struct-of-arrays layout.
///
/// The hot per-quantum scalars (`sim`, `pending_ns`) live in dense parallel
/// vectors so the active-set scan touches cache-linear memory; the
/// executors — which carry the cold per-node state (program, mailbox,
/// region records) out of line — are only dereferenced for nodes that
/// actually execute. Local index `l` addresses every lane; the global
/// node index is `base + l` (shards are contiguous).
struct ShardNodes {
    /// Global index of local node 0.
    base: usize,
    execs: Vec<NodeExecutor>,
    /// Per-node simulated position.
    sim: Vec<SimTime>,
    /// Per-node send sequence counter.
    msg_seq: Vec<u64>,
    /// Remainder (ns) of an op that did not fit in the previous quantum.
    pending_ns: Vec<u64>,
    done_reported: Vec<bool>,
}

impl ShardNodes {
    /// Builds the shard whose first node is global node `base`, straight
    /// into the lanes and on the worker that will run and drop them: fresh
    /// executors at sim time zero, or — with `resume` — the snapshot's
    /// nodes restored at its cut. A node state that fails validation is
    /// reported as `"node i: …"`.
    fn build(
        base: usize,
        programs: Vec<Program>,
        resume: Option<&SnapshotBody>,
        cpu: CpuModel,
    ) -> Result<Self, SimError> {
        let len = programs.len();
        let Some(body) = resume else {
            return Ok(Self {
                base,
                execs: programs
                    .into_iter()
                    .map(|p| NodeExecutor::new(p, cpu))
                    .collect(),
                sim: vec![SimTime::ZERO; len],
                msg_seq: vec![0; len],
                pending_ns: vec![0; len],
                done_reported: vec![false; len],
            });
        };
        let execs = (programs.into_iter().enumerate())
            .map(|(l, p)| body.restore_exec(base + l, p, cpu))
            .collect::<Result<Vec<_>, _>>()?;
        let states = &body.nodes[base..base + len];
        Ok(Self {
            base,
            execs,
            sim: vec![body.q_start; len],
            msg_seq: states.iter().map(|ns| ns.msg_seq).collect(),
            pending_ns: states
                .iter()
                .map(|ns| ns.pending.map_or(0, |(d, _)| d.as_nanos()))
                .collect(),
            done_reported: states.iter().map(|ns| ns.done).collect(),
        })
    }
}

/// Per-shard wake wheel: which locals run in the current quantum, and when
/// parked-with-a-deadline locals become due. Entirely worker-private.
struct WakeWheel {
    /// Bitmap over local indices: bit set ⇒ the node executes this quantum.
    /// Stable during the scan — same-quantum sends land in batches that are
    /// delivered at the *next* boundary, so executing a node never arms
    /// another; a node that must run again next quantum re-arms its own
    /// bit, in a word the scan has already taken.
    ready_words: Vec<u64>,
    /// Scheduled polls as `(wake_ns, local)` entries. Every entry arms
    /// exactly one poll, in the first quantum whose edge lies beyond
    /// `wake_ns` — unconditionally, with no staleness check. An entry that
    /// was superseded (the node already woke earlier and re-slept) arms a
    /// side-effect-free re-poll, which is harmless and — crucially —
    /// *deterministic*: the entry multiset is a pure function of the
    /// simulated history, never of cross-worker hand-off timing, so the
    /// executed-node count is identical for every shard count.
    queue: WakeQueue,
}

impl WakeWheel {
    fn new(len: usize) -> Self {
        Self {
            ready_words: vec![0u64; len.div_ceil(64)],
            queue: WakeQueue::new(),
        }
    }

    #[inline]
    fn arm_now(&mut self, l: usize) {
        self.ready_words[l >> 6] |= 1u64 << (l & 63);
    }

    /// Arms every scheduled poll due strictly before the edge `end`.
    #[inline]
    fn promote(&mut self, end: u64) {
        let ready = &mut self.ready_words;
        self.queue
            .drain_before(end, |l| ready[l as usize >> 6] |= 1u64 << (l & 63));
    }
}

/// The wake wheel's entries in a monotone bucket queue (a radix heap). The
/// engine pushes no key before the edge of the last drain and drains exactly
/// the keys strictly before an edge, so the queue never orders the keys one
/// drain takes (DESIGN.md §3a). Bucket `i ≥ 1` holds the keys whose highest
/// bit differing from `base` is bit `i − 1`, bucket 0 the keys equal to
/// `base`. An entry only ever moves to a lower bucket, so it is touched at
/// most 65 times however long it waits. Buckets are cleared, never freed:
/// steady state allocates nothing.
struct WakeQueue {
    buckets: [Vec<(u64, u32)>; 65],
    /// Bit `i` set ⇔ bucket `i` holds an entry.
    occupied: u128,
    /// At or below every key held and every key pushed later: the edge of
    /// the last drain that split a bucket.
    base: u64,
}

impl WakeQueue {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            base: 0,
        }
    }

    /// Schedules a poll of local `l` at `t`, which must not lie before the
    /// edge of an earlier drain.
    #[inline]
    fn push(&mut self, t: u64, l: u32) {
        debug_assert!(
            t >= self.base,
            "wake {t} before the drained edge {}",
            self.base
        );
        let i = 64 - (t ^ self.base).leading_zeros() as usize;
        self.buckets[i].push((t, l));
        self.occupied |= 1 << i;
    }

    /// Hands `arm` the local of every entry keyed strictly before `end` and
    /// removes those entries, lowest bucket first. A bucket wholly before
    /// the edge is armed in one sweep and the first bucket wholly after it
    /// ends the drain. The bucket the edge falls inside is split in one
    /// pass: what precedes the edge is armed, the rest is re-filed against
    /// `base = end` into lower buckets (those keys share every bit from
    /// `i − 1` up with `end`), and every higher bucket keeps its range. The
    /// engine pushes nothing before `end` afterwards, so `base` never passes
    /// a later push.
    fn drain_before(&mut self, end: u64, mut arm: impl FnMut(u32)) {
        while self.occupied != 0 {
            let i = self.occupied.trailing_zeros() as usize;
            let (lo, hi) = if i == 0 {
                (self.base, self.base)
            } else {
                let low = u64::MAX >> (64 - i);
                ((self.base & !low) | (1 << (i - 1)), self.base | low)
            };
            if lo >= end {
                return;
            }
            let mut bucket = std::mem::take(&mut self.buckets[i]);
            self.occupied &= !(1 << i);
            if hi < end {
                for &(_, l) in &bucket {
                    arm(l);
                }
            } else {
                self.base = end;
                for &(t, l) in &bucket {
                    if t < end {
                        arm(l);
                    } else {
                        self.push(t, l);
                    }
                }
            }
            bucket.clear();
            self.buckets[i] = bucket;
            if hi >= end {
                return;
            }
        }
    }
}

/// Shared state across worker threads.
struct SharedSharded<R> {
    /// The run's one routing core, shared read-only by every worker.
    net: Router,
    /// Wall-clock origin for barrier-wait timestamps.
    start: Instant,
    /// Shard (= worker) owning each global node index.
    shard_of: Vec<u32>,
    /// Hand-off slots, `m × m`: slot `s * m + d` carries what worker `s`
    /// routed to shard `d`. No worker publishes to the diagonal (it keeps
    /// its own shard's copies); a resumed run's cut-in-flight copies reach
    /// their shard through it.
    handoff: Vec<CachePadded<HandOff>>,
    /// Per-shard packets routed this quantum; the leader sums these.
    np_slots: Vec<CachePadded<AtomicU64>>,
    /// Per-shard straggler deltas for the quantum (observability only).
    shard_obs: Vec<CachePadded<ShardObsSlot>>,
    /// Per-node idle-tail (vt lag) for the quantum, in sim ns. Empty unless
    /// the recorder is enabled: nothing else reads it, and at a cache line
    /// per node it is the largest allocation of a big unrecorded run.
    lag_slots: Vec<CachePadded<AtomicU64>>,
    /// Per-worker fabric link-load slices, sized `m × n_links`. Empty (and
    /// the recording path compiled out) unless the switch is a fabric *and*
    /// the recorder is enabled.
    fabric_slots: Vec<LinkSlot>,
    /// End of the current quantum in sim ns; `Q_END_STOP` means stop.
    q_end: AtomicU64,
    /// Number of nodes whose program has finished.
    done: AtomicU64,
    /// Deadlock-guard flag (checked after join, where panicking is safe).
    overflow: AtomicBool,
    /// Set by a worker whose slice of a snapshot failed to restore; read by
    /// every worker after the restore round, before the first quantum.
    restore_failed: AtomicBool,
    barrier: TreeBarrier<LeaderState<R>>,
}

impl<R: Recorder> SharedSharded<R> {
    /// Routes one fragment sent by global node `src`, with `q_end` the
    /// sender's current quantum edge. What this engine does with an arrival:
    /// the effective delivery time is `max(arrival, q_end)` — fully
    /// deterministic, no reads of receiver state, and the router is a pure
    /// function, so neither worker count nor routing order can change it —
    /// and the copy goes into this worker's batch for the shard that owns
    /// its receiver.
    #[inline]
    fn route(&self, ctx: &mut WorkerCtx, src: usize, frag: &FragSnap, q_end: SimTime) {
        let net = &self.net;
        net.fan_out(src, frag.dst, frag.bytes, frag.departure, |t, arrival| {
            ctx.quantum_packets += 1;
            let slot = self.fabric_slots.get(ctx.w);
            if let (true, Some(slot), Some(fabric)) = (R::ENABLED, slot, net.fabric()) {
                // Observation only (never feeds timing): bump this slice's
                // counters along the packet's path. Relaxed is enough — the
                // slot is written by this worker alone during the quantum
                // and drained by the leader inside the barrier.
                for &link in fabric.path(src as u32, t as u32).links() {
                    slot.bytes[link as usize].fetch_add(frag.bytes as u64, Ordering::Relaxed);
                    slot.packets[link as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
            let eff = if arrival < q_end {
                ctx.stragglers.record(q_end - arrival);
                q_end
            } else {
                arrival
            };
            #[cfg(feature = "fault-inject")]
            if crate::fault::route_drops_this_copy() {
                // Armed bug: the copy is lost between sender and receiver.
                return;
            }
            let batch = &mut ctx.out[self.shard_of[t] as usize];
            ctx.heap_allocs += u64::from(batch.len() == batch.capacity());
            batch.push(ShardInFlight::new(t, frag, eff));
        });
    }
}

/// Balanced contiguous partition of `n` nodes over `m` shards: the first
/// `n % m` shards get one extra node.
pub(crate) fn partition(n: usize, m: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / m;
    let rem = n % m;
    let mut ranges = Vec::with_capacity(m);
    let mut start = 0;
    for s in 0..m {
        let len = base + usize::from(s < rem);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Contiguous partition of `weights.len()` nodes over `m` shards that
/// balances *expected-active* work instead of node count.
///
/// The weight is each node's program length (op count) — a cheap static
/// proxy for how often the node is hot: on idle-heavy workloads the
/// sleepers are the short single-`recv` programs, so an op-count split
/// hands shards with many sleepers proportionally more nodes and keeps the
/// per-quantum active-set scan balanced across workers. The split is the
/// greedy cumulative-weight quantile cut, clamped so every shard keeps at
/// least one node.
///
/// Two properties matter more than the balance itself:
///
/// * **Stability**: the split is a pure function of `(weights, m)`, so a
///   resumed run and a rerun partition identically and cross-M identity
///   artifacts stay byte-reproducible.
/// * **Uniform weights reproduce [`partition`] exactly** (remainder-first,
///   the historical layout), pinning every artifact produced before
///   weighting existed.
pub(crate) fn partition_weighted(weights: &[u64], m: usize) -> Vec<std::ops::Range<usize>> {
    let n = weights.len();
    // Clamp to ≥ 1 so zero-weight (empty-program) nodes still consume
    // quantile room — coverage of 0..n must never depend on the weights.
    let weight = |i: usize| weights[i].max(1);
    if (1..n).all(|i| weight(i) == weight(0)) {
        return partition(n, m);
    }
    let total: u64 = (0..n).map(weight).sum();
    let mut ranges = Vec::with_capacity(m);
    let mut start = 0usize;
    let mut acc = 0u64;
    for s in 0..m {
        // Cumulative weight the end of shard s aims for; the clamp leaves
        // one node for each of the m-1-s shards still to come.
        let target = (u128::from(total) * (s as u128 + 1) / m as u128) as u64;
        let max_end = n - (m - 1 - s);
        let mut end = start + 1;
        acc += weight(start);
        while end < max_end && acc < target {
            acc += weight(end);
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Sharded engine entry point with an explicit [`Recorder`]; the unified
/// `Sim` builder dispatches here. `workers` of `None` uses the host's
/// available parallelism; the count is clamped to `[1, n]`.
///
/// With `resume`, the run starts at the snapshot's cut instead of time
/// zero; because delivery is quantum-edge-deterministic, the resumed run is
/// bit-identical to the uninterrupted one for every worker count and any
/// policy.
///
/// # Panics
///
/// As [`start_run`]. A quantum-cap overflow (deadlock guard) is a typed
/// [`SimError::QuantumCapExceeded`], not a panic.
pub(crate) fn run_sharded_impl<R: Recorder>(
    mut programs: Vec<Program>,
    config: &ParallelConfig,
    net: Router,
    workers: Option<usize>,
    recorder: R,
    resume: Option<&SnapshotBody>,
) -> Result<(ShardedRunResult, R), SimError> {
    let (m, clock) = start_run(&programs, config, workers, resume)?;
    let n = programs.len();
    let weights: Vec<u64> = programs.iter().map(|p| p.ops().len() as u64).collect();
    let ranges = partition_weighted(&weights, m);
    let mut shard_of = vec![0u32; n];
    for (s, range) in ranges.iter().enumerate() {
        for slot in &mut shard_of[range.clone()] {
            *slot = s as u32;
        }
    }
    let q_end0 = clock.q_end_nanos;
    let mut handoff: Vec<CachePadded<HandOff>> =
        (0..m * m).map(|_| CachePadded::default()).collect();
    let (total_packets, mut stragglers) = match resume {
        Some(s) => route_seed_frags(s, &net, |t, arrival, frag| {
            let d = shard_of[t] as usize;
            let slot = &mut handoff[d * m + d];
            *slot.ready.get_mut() = true;
            slot.batch
                .get_mut()
                .expect("no worker has run yet")
                .push(ShardInFlight::new(t, frag, arrival));
        })?,
        None => (0, StragglerStats::default()),
    };
    let n_done = resume.map_or(0, |s| s.nodes.iter().filter(|ns| ns.done).count() as u64);
    // Fabric link-load slices exist only when there is something to record
    // them into; otherwise the whole path is a dead (compiled-out) branch.
    let n_links = match net.fabric() {
        Some(f) if R::ENABLED => f.n_links(),
        _ => 0,
    };
    let leader = LeaderState {
        clock,
        total_packets,
        rec: recorder,
        waits: Vec::with_capacity(if R::ENABLED { n } else { 0 }),
        lags: Vec::with_capacity(if R::ENABLED { n } else { 0 }),
        link_load: LinkLoad::new(n_links),
        shard_actives: Vec::with_capacity(m),
    };
    let start = Instant::now();
    let shared = SharedSharded {
        net,
        start,
        shard_of,
        handoff,
        np_slots: (0..m)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
        shard_obs: (0..m)
            .map(|_| CachePadded::new(ShardObsSlot::default()))
            .collect(),
        // The lag sentinel: `u64::MAX` means "not executed this quantum".
        // Workers store a node's real lag when they execute it; the leader
        // swaps the sentinel back in each quantum and substitutes the full
        // quantum length for skipped nodes — exactly the lag the full sweep
        // computes for a node it re-polls while parked.
        lag_slots: (0..if R::ENABLED { n } else { 0 })
            .map(|_| CachePadded::new(AtomicU64::new(u64::MAX)))
            .collect(),
        fabric_slots: if n_links > 0 {
            (0..m).map(|_| LinkSlot::new(n_links)).collect()
        } else {
            Vec::new()
        },
        q_end: AtomicU64::new(q_end0),
        done: AtomicU64::new(n_done),
        overflow: AtomicBool::new(false),
        restore_failed: AtomicBool::new(false),
        barrier: TreeBarrier::new(m, leader),
    };
    // Each worker owns its contiguous run of programs: peel the shards off
    // the tail (one flat copy per shard), so that no per-node work is left
    // on this thread and every executor is built by the worker that runs it.
    let mut shards: Vec<Vec<Program>> = ranges[1..]
        .iter()
        .rev()
        .map(|range| programs.split_off(range.start))
        .collect();
    shards.push(programs);
    shards.reverse();
    let bodies = shards.into_iter().zip(&ranges).enumerate();
    let bodies = bodies.map(|(w, (shard, range))| {
        let shared = &shared;
        move || worker_thread(w, range.start, shard, resume, config, shared)
    });
    // Shard order, so the error kept is the lowest failing node's.
    let joined = shared.barrier.run_participants(bodies.collect());
    let joined = joined.into_iter().collect::<Result<Vec<_>, _>>()?;
    let wall = start.elapsed();
    // Shards are contiguous and joined in shard order, so flattening yields
    // rank order; the straggler merge is deterministic for the same reason.
    let mut per_node = Vec::with_capacity(n);
    let mut pool_heap_allocs = 0;
    let mut nodes_executed = 0;
    for (nodes, worker_stragglers, worker_allocs, worker_executed) in joined {
        stragglers.merge(&worker_stragglers);
        per_node.extend(nodes);
        pool_heap_allocs += worker_allocs;
        nodes_executed += worker_executed;
    }
    let overflowed = shared.overflow.load(Ordering::Acquire);
    let sim_end = finish_run(overflowed, EngineKind::Sharded, config, &per_node)?;
    let leader = shared.barrier.into_state();
    let result = ShardedRunResult {
        wall,
        sim_end,
        total_quanta: leader.clock.quanta,
        total_packets: leader.total_packets,
        stragglers,
        per_node,
        workers: m,
        pool_heap_allocs,
        nodes_executed,
    };
    Ok((result, leader.rec))
}

/// What a worker returns: its nodes' results (in rank order), its
/// run-total straggler tally, its batches' heap-allocation count, and the
/// number of node executions it performed.
type WorkerOutput = (Vec<NodeResult>, StragglerStats, u64, u64);

/// Builds one shard (see [`ShardNodes::build`]) and runs it to completion.
/// `Err` is this shard's lowest node that failed to restore from `resume`.
///
/// The active-set scheduler (the default) executes only nodes with a
/// scheduled wake inside the quantum; a quantum where the whole shard is
/// parked touches no node memory at all and fast-forwards straight to the
/// barrier. With [`ParallelConfig::full_sweep`] the worker executes every
/// node every quantum — the legacy behavior, kept as the differential
/// baseline the active set must match bit for bit.
fn worker_thread<R: Recorder>(
    w: usize,
    base: usize,
    programs: Vec<Program>,
    resume: Option<&SnapshotBody>,
    config: &ParallelConfig,
    shared: &SharedSharded<R>,
) -> Result<WorkerOutput, SimError> {
    let len = programs.len();
    let q_start0 = resume.map_or(SimTime::ZERO, |s| s.q_start);
    let built = ShardNodes::build(base, programs, resume, config.cpu);
    if resume.is_some() {
        // Only a snapshot can fail to build, and any worker's slice of it
        // may: meet once so that either every worker enters the quantum
        // loop or none does (a worker that left alone would strand its
        // peers at the first quantum's barrier). Relaxed suffices: the
        // round orders each worker's store before every worker's load.
        if built.is_err() {
            shared.restore_failed.store(true, Ordering::Relaxed);
        }
        shared.barrier.arrive(w, |_| {});
        if shared.restore_failed.load(Ordering::Relaxed) {
            // The caller keeps the first `Err` and discards every `Ok`.
            return built.map(|_| WorkerOutput::default());
        }
    }
    let mut nodes = built?;
    // One packet-count slot per worker.
    let m = shared.np_slots.len();
    let mut ctx = WorkerCtx {
        w,
        stragglers: StragglerStats::default(),
        run_stragglers: StragglerStats::default(),
        quantum_packets: 0,
        out: vec![Vec::new(); m],
        heap_allocs: 0,
    };
    let full_sweep = config.full_sweep;
    // Every node starts armed (a fresh run must poll everyone at least
    // once; a resumed run re-polls everyone on the first quantum, exactly
    // as the pre-active-set engine did). The wake wheel takes over from
    // the first execution onward.
    let mut wheel = WakeWheel::new(len);
    for l in 0..len {
        wheel.arm_now(l);
    }
    let mut nodes_executed = 0u64;
    // What a peer's slot held, swapped out under its lock; the emptied
    // buffer goes back into a slot at the next take, so capacity
    // circulates between the workers instead of being freed.
    let mut inbox: Vec<ShardInFlight> = Vec::new();
    let mut q_start = q_start0;
    let mut q_end = SimTime::from_nanos(shared.q_end.load(Ordering::Acquire));
    loop {
        let q_end_ns = q_end.as_nanos();
        // Quantum boundary: take what was routed to this shard — the own
        // batch directly, a peer's (or the diagonal's resume injection)
        // only when its slot's flag is set — and deliver. Effective
        // timestamps were fixed at route time, so delivery order is
        // irrelevant (matching is timestamp-based).
        deliver(
            &mut ctx.out[w],
            &mut nodes,
            &mut wheel,
            full_sweep,
            q_end_ns,
        );
        for s in 0..m {
            let slot = &shared.handoff[s * m + w];
            // Acquire pairs with the publisher's Release store, after its
            // unlock; the lock orders the batch itself.
            if slot.ready.load(Ordering::Relaxed) && slot.ready.swap(false, Ordering::Acquire) {
                std::mem::swap(
                    &mut *slot.batch.lock().expect("hand-off slot poisoned"),
                    &mut inbox,
                );
                deliver(&mut inbox, &mut nodes, &mut wheel, full_sweep, q_end_ns);
            }
        }
        let mut active = 0u64;
        if full_sweep {
            for l in 0..len {
                let ran = advance_node(&mut nodes, l, shared, config, &mut ctx, q_start, q_end);
                if R::ENABLED {
                    shared.lag_slots[base + l].store(ran.lag_ns, Ordering::Relaxed);
                }
            }
            active = len as u64;
        } else {
            // Promote sleepers whose scheduled wake falls strictly inside
            // this quantum (a wake at exactly `q_end` is the next quantum's
            // first instant), in one drain. Every due entry arms its node: a
            // stale entry — the node already woke earlier and re-slept —
            // arms a side-effect-free re-poll, identical under every shard
            // count.
            wheel.promote(q_end_ns);
            // Execute the active set in ascending local order (bit order =
            // rank order within the shard, matching the full sweep).
            for wi in 0..wheel.ready_words.len() {
                let mut word = wheel.ready_words[wi];
                if word == 0 {
                    // Nearly every word of a sparse shard, every quantum:
                    // read it, write nothing.
                    continue;
                }
                wheel.ready_words[wi] = 0;
                while word != 0 {
                    let l = (wi << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let ran = advance_node(&mut nodes, l, shared, config, &mut ctx, q_start, q_end);
                    if ran.wake == q_end_ns {
                        // Runs again next quantum — the common case for a
                        // node mid-compute. An entry `(q_end, l)` would be
                        // drained by the next promote whatever the next edge
                        // is, so arm the bit now and spare the queue a push
                        // and a drain per active node per quantum. The stored
                        // word was cleared before its bits were walked, so
                        // the next quantum's scan is the first to see it.
                        wheel.arm_now(l);
                    } else if ran.wake != u64::MAX {
                        wheel.queue.push(ran.wake, l as u32);
                    }
                    if R::ENABLED {
                        shared.lag_slots[base + l].store(ran.lag_ns, Ordering::Relaxed);
                    }
                    active += 1;
                }
            }
        }
        nodes_executed += active;
        match next_quantum(shared, &mut ctx, w, active) {
            Some(qe) => {
                q_start = q_end;
                q_end = qe;
            }
            None => break,
        }
    }
    // A parked node's `sim` lane may lag the last quantum edge
    // (fast-forwarding is lazy); the full sweep would have dragged it to the
    // edge every quantum.
    let results = (0..len)
        .map(|l| NodeResult::collect(&mut nodes.execs[l], nodes.sim[l].max(q_end)))
        .collect();
    Ok((results, ctx.run_stragglers, ctx.heap_allocs, nodes_executed))
}

/// Batches of two or more copies the schedule-fuzz hook shuffled, so a test
/// can show the hook reaches the take path.
#[cfg(all(test, feature = "schedule-fuzz"))]
static SHUFFLED_BATCHES: AtomicU64 = AtomicU64::new(0);

/// Delivers one taken batch to its receivers and re-arms each of them,
/// leaving `batch` empty with its capacity kept.
#[inline]
fn deliver(
    batch: &mut Vec<ShardInFlight>,
    nodes: &mut ShardNodes,
    wheel: &mut WakeWheel,
    full_sweep: bool,
    q_end_ns: u64,
) {
    #[cfg(feature = "schedule-fuzz")]
    if aqs_sync::fuzz::shuffle_tail(batch, 0) {
        #[cfg(test)]
        SHUFFLED_BATCHES.fetch_add(1, Ordering::Relaxed);
    }
    for f in batch.drain(..) {
        let l = f.dst as usize - nodes.base;
        nodes.execs[l].deliver_fragment(f.meta, f.frag_index, f.arrival);
        if full_sweep {
            continue;
        }
        // Re-arm the receiver in O(1): a delivery inside this quantum sets
        // its ready bit directly, a future delivery schedules a poll
        // through the queue. Strictness matters twice over: an event at
        // exactly `q_end` belongs to the *next* quantum (execution covers
        // `[q_start, q_end)`), and a fragment a peer routed during this
        // very quantum carries `eff >= q_end` — whether the peer published
        // it before this take (seen now) or after (seen a boundary later),
        // the poll lands in the same quantum either way. The push is
        // unconditional for the same reason: guarding it on the node's
        // current wake would drop the entry exactly when the receiver is
        // about to execute and re-park, making the poll schedule depend on
        // hand-off timing.
        let eff_ns = f.arrival.as_nanos();
        if eff_ns < q_end_ns {
            wheel.arm_now(l);
        } else {
            #[cfg(feature = "fault-inject")]
            if crate::fault::armed(crate::fault::Fault::WakeRearmSkip) {
                // Armed bug: the delivery happened, but the wake wheel
                // forgets to re-arm the sleeper.
                continue;
            }
            wheel.queue.push(eff_ns, l as u32);
        }
    }
}

/// Advances one node to the quantum edge with the shared [`step_node`],
/// routing every fragment it sends right away, and reports the program's end
/// to the run's done count the first time it is seen.
#[inline]
fn advance_node<R: Recorder>(
    nodes: &mut ShardNodes,
    l: usize,
    shared: &SharedSharded<R>,
    config: &ParallelConfig,
    ctx: &mut WorkerCtx,
    q_start: SimTime,
    q_end: SimTime,
) -> Stepped {
    let src = nodes.base + l;
    let lanes = Lanes {
        exec: &mut nodes.execs[l],
        sim: &mut nodes.sim[l],
        msg_seq: &mut nodes.msg_seq[l],
        pending_ns: &mut nodes.pending_ns[l],
    };
    let work = config.host_work_per_op;
    let ran = step_node(lanes, (q_start, q_end), shared.net.nic(), work, |frag| {
        shared.route(ctx, src, &frag, q_end)
    });
    if ran.finished && !nodes.done_reported[l] {
        nodes.done_reported[l] = true;
        shared.done.fetch_add(1, Ordering::AcqRel);
    }
    ran
}

/// Meets the tree barrier; the root leader advances the policy and publishes
/// `(q_end, stop)` through the epoch handshake. Returns the new quantum end,
/// or `None` when the run is over.
fn next_quantum<R: Recorder>(
    shared: &SharedSharded<R>,
    ctx: &mut WorkerCtx,
    w: usize,
    active: u64,
) -> Option<SimTime> {
    // Hand this quantum's batches for other shards over. The barrier
    // arrival below orders each publication before every peer's next take.
    let m = ctx.out.len();
    for (d, batch) in ctx.out.iter_mut().enumerate() {
        if d == w || batch.is_empty() {
            continue;
        }
        let slot = &shared.handoff[w * m + d];
        let mut held = slot.batch.lock().expect("hand-off slot poisoned");
        if held.is_empty() {
            // The usual case: the receiver took the last batch and left its
            // emptied buffer here; trade this batch for it.
            std::mem::swap(&mut *held, batch);
        } else {
            // The receiver has not taken the last quantum's batch yet.
            ctx.heap_allocs += u64::from(held.capacity() - held.len() < batch.len());
            held.append(batch);
        }
        drop(held);
        slot.ready.store(true, Ordering::Release);
    }
    shared.np_slots[w].store(ctx.quantum_packets, Ordering::Relaxed);
    ctx.quantum_packets = 0;
    if R::ENABLED {
        let slot = &shared.shard_obs[w];
        slot.s_count
            .store(ctx.stragglers.count(), Ordering::Relaxed);
        slot.s_max
            .store(ctx.stragglers.max_delay().as_nanos(), Ordering::Relaxed);
        slot.active.store(active, Ordering::Relaxed);
    }
    if ctx.stragglers.count() > 0 {
        ctx.run_stragglers.merge(&ctx.stragglers);
        ctx.stragglers = StragglerStats::default();
    }
    if R::ENABLED {
        let now_ns = shared.start.elapsed().as_nanos() as u64;
        shared.barrier.arrive_timed(w, now_ns, |leader, ts| {
            leader_step(shared, leader, Some(ts))
        });
    } else {
        shared
            .barrier
            .arrive(w, |leader| leader_step(shared, leader, None));
    }
    // Ordered after the leader's stores by the epoch acquire inside arrive.
    let q_end = shared.q_end.load(Ordering::Relaxed);
    if q_end == Q_END_STOP {
        None
    } else {
        Some(SimTime::from_nanos(q_end))
    }
}

/// The root leader's quantum-boundary work: record the observability sample
/// (merging the per-shard slots into per-node lanes), then advance the
/// policy and publish `(q_end, stop)`.
fn leader_step<R: Recorder>(
    shared: &SharedSharded<R>,
    leader: &mut LeaderState<R>,
    ts: Option<ArrivalTimes<'_>>,
) {
    let np: u64 = shared
        .np_slots
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .sum();
    if R::ENABLED {
        let ts = ts.expect("recording enabled without timed arrival");
        // Worker arrival stamps, expanded to per-node lanes (every node in a
        // shard shares its worker's barrier wait) so the flight recorder's
        // per-node layout holds for any M.
        let latest = (0..ts.len()).map(|k| ts.get(k)).max().unwrap_or(0);
        let q_len_nanos = leader.clock.q_end_nanos - leader.clock.q_start_nanos;
        leader.waits.clear();
        leader.lags.clear();
        for (node, &shard) in shared.shard_of.iter().enumerate() {
            leader
                .waits
                .push(latest.saturating_sub(ts.get(shard as usize)));
            // Swap the sentinel back in for next quantum. A node the active
            // set skipped (sentinel still present) idled through the whole
            // quantum: its lag is the full quantum length, exactly what the
            // full sweep computes when it re-polls a parked node.
            let lag = shared.lag_slots[node].swap(u64::MAX, Ordering::Relaxed);
            leader
                .lags
                .push(if lag == u64::MAX { q_len_nanos } else { lag });
        }
        let mut s_count = 0u64;
        let mut s_max = 0u64;
        let mut active_total = 0u64;
        leader.shard_actives.clear();
        for slot in &shared.shard_obs {
            s_count += slot.s_count.load(Ordering::Relaxed);
            s_max = s_max.max(slot.s_max.load(Ordering::Relaxed));
            let a = slot.active.load(Ordering::Relaxed);
            active_total += a;
            leader.shard_actives.push(a);
        }
        leader.rec.record_quantum(&QuantumObs {
            index: leader.clock.quanta,
            start: SimTime::from_nanos(leader.clock.q_start_nanos),
            len: SimDuration::from_nanos(q_len_nanos),
            // The last worker's arrival stamp is when the barrier completed.
            host_ns: latest,
            packets: np,
            active_nodes: active_total,
            stragglers: s_count,
            max_straggler_delay: SimDuration::from_nanos(s_max),
            barrier_wait_ns: &leader.waits,
            vt_lag_ns: &leader.lags,
        });
        leader.rec.record_shard_activity(&leader.shard_actives);
        if !shared.fabric_slots.is_empty() {
            // Drain every slice's per-link counters into the merge scratch.
            // Safe: the leader runs inside the barrier's exclusive section,
            // all workers parked. swap(0) leaves the slots ready for the
            // next quantum, and the sums are commutative, so the merged
            // totals are independent of M and of routing order.
            leader.link_load.clear();
            for slot in &shared.fabric_slots {
                for link in 0..leader.link_load.n_links() {
                    leader.link_load.add(
                        link,
                        slot.bytes[link].swap(0, Ordering::Relaxed),
                        slot.packets[link].swap(0, Ordering::Relaxed),
                    );
                }
            }
            leader
                .rec
                .record_link_load(leader.link_load.bytes(), leader.link_load.packets());
        }
    }
    leader.total_packets += np;
    let all_done = shared.done.load(Ordering::Acquire) as usize == shared.shard_of.len();
    #[allow(unused_mut)]
    let mut policy_np = np;
    #[cfg(feature = "fault-inject")]
    if crate::fault::armed(crate::fault::Fault::LeaderNpSkip) {
        // Armable bug: the policy's view forgets shard 0's packets; the
        // recorded trace keeps the true np.
        policy_np -= shared.np_slots[0].load(Ordering::Relaxed);
    }
    let q_end = match leader.clock.advance(all_done, policy_np) {
        Advance::Next => leader.clock.q_end_nanos,
        Advance::Stop => Q_END_STOP,
        Advance::CapExceeded => {
            shared.overflow.store(true, Ordering::Relaxed);
            Q_END_STOP
        }
    };
    shared.q_end.store(q_end, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::sim::Sim;
    use aqs_core::SyncConfig;
    use aqs_net::{FabricConfig, LatencyMatrixSwitch, NetworkController, NicModel, SimSwitch};
    use aqs_node::{ProgramBuilder, Rank, Tag};
    use aqs_obs::NullRecorder;
    use aqs_workloads::{burst, ping_pong, MpiBuilder};

    /// The paper-default CPU model, no busy-work.
    fn cfg(sync: SyncConfig) -> ParallelConfig {
        ParallelConfig {
            sync,
            cpu: aqs_node::CpuModel::default(),
            host_work_per_op: 0.0,
            max_quanta: 20_000_000,
            full_sweep: false,
        }
    }

    /// The shared routing core for `n` paper-default NICs behind `switch`.
    fn router(n: usize, switch: &SimSwitch) -> Router {
        NetworkController::new(n, NicModel::paper_default(), switch, None)
            .expect("valid network")
            .into_router()
            .expect("a pure switch")
    }

    fn full_sweep(sync: SyncConfig) -> ParallelConfig {
        ParallelConfig {
            full_sweep: true,
            ..cfg(sync)
        }
    }

    /// Unrecorded engine run on the perfect switch with an owned result.
    fn run_sharded(
        programs: Vec<Program>,
        config: &ParallelConfig,
        workers: Option<usize>,
    ) -> ShardedRunResult {
        run_sharded_on(programs, config, &SimSwitch::Perfect, workers)
    }

    fn run_sharded_on(
        programs: Vec<Program>,
        config: &ParallelConfig,
        switch: &SimSwitch,
        workers: Option<usize>,
    ) -> ShardedRunResult {
        let net = router(programs.len(), switch);
        match run_sharded_impl(programs, config, net, workers, NullRecorder, None) {
            Ok((r, _)) => r,
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn partition_is_balanced_and_covers() {
        for n in [2usize, 5, 7, 64] {
            for m in 1..=n.min(9) {
                let ranges = partition(n, m);
                assert_eq!(ranges.len(), m);
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(w[0].len() >= w[1].len());
                    assert!(w[0].len() - w[1].len() <= 1);
                }
            }
        }
    }

    #[test]
    fn weighted_partition_is_stable_and_balances_op_weight() {
        // Uniform weights must reproduce the historical remainder-first
        // split exactly — the pin that keeps pre-weighting artifacts valid.
        assert_eq!(partition_weighted(&[3; 10], 4), partition(10, 4));
        assert_eq!(partition_weighted(&[0; 6], 4), partition(6, 4));
        // Pinned non-uniform split: heavy programs at both ends, the m = 2
        // cut lands at the cumulative-weight midpoint (13 | 13), not the
        // node-count midpoint.
        let w = [10, 1, 1, 1, 1, 1, 1, 10];
        assert_eq!(partition_weighted(&w, 2), vec![0..4, 4..8]);
        // Extreme skew still leaves every shard at least one node, and
        // coverage/contiguity hold.
        let ranges = partition_weighted(&[100, 0, 0, 0], 4);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..4]);
    }

    /// Hub-and-sleepers workload: rank 0 computes then broadcasts; every
    /// other rank blocks on that single message for the whole run. Only one
    /// of `n` nodes is hot per quantum until the final fan-out.
    fn mostly_idle(n: usize) -> Vec<Program> {
        let mut programs = vec![ProgramBuilder::new(Rank::new(0))
            .compute(500_000)
            .send_all(64, Tag::new(0))
            .build()];
        for r in 1..n {
            programs.push(
                ProgramBuilder::new(Rank::new(r as u32))
                    .recv(Some(Rank::new(0)), Tag::new(0))
                    .build(),
            );
        }
        programs
    }

    #[test]
    fn active_set_matches_full_sweep_bit_for_bit() {
        // The active-set scheduler is an optimization, not a semantics
        // change: for safe and unsafe quanta, idle-heavy and chatty
        // workloads, every observable of the run must equal the legacy
        // full-sweep path's, for every worker count.
        let cases: Vec<(Vec<Program>, SyncConfig)> = vec![
            (mostly_idle(16), SyncConfig::ground_truth()),
            (mostly_idle(16), SyncConfig::paper_dyn1()),
            (
                ping_pong(4, 25, 4096).programs,
                SyncConfig::fixed_micros(1000),
            ),
            (burst(5, 50_000, 1024).programs, SyncConfig::paper_dyn2()),
        ];
        for (programs, sync) in cases {
            let full = run_sharded(programs.clone(), &full_sweep(sync.clone()), Some(2));
            for m in 1..=4 {
                let r = run_sharded(programs.clone(), &cfg(sync.clone()), Some(m));
                assert_eq!(r.sim_end, full.sim_end, "workers={m}");
                assert_eq!(r.total_quanta, full.total_quanta, "workers={m}");
                assert_eq!(r.total_packets, full.total_packets, "workers={m}");
                assert_eq!(r.stragglers.count(), full.stragglers.count(), "workers={m}");
                assert_eq!(
                    r.stragglers.total_delay(),
                    full.stragglers.total_delay(),
                    "workers={m}"
                );
                for (a, b) in r.per_node.iter().zip(full.per_node.iter()) {
                    assert_eq!(a.finish_sim, b.finish_sim, "workers={m}");
                    assert_eq!(a.messages_received, b.messages_received, "workers={m}");
                    assert_eq!(a.ops, b.ops, "workers={m}");
                }
                assert!(
                    r.nodes_executed <= full.nodes_executed,
                    "active set must never do more work: {} vs {}",
                    r.nodes_executed,
                    full.nodes_executed
                );
            }
        }
    }

    #[test]
    fn active_set_skips_sleepers_and_counts_are_m_independent() {
        let programs = mostly_idle(32);
        let full = run_sharded(
            programs.clone(),
            &full_sweep(SyncConfig::ground_truth()),
            Some(2),
        );
        // The full sweep executes every node every quantum, by definition.
        assert_eq!(full.nodes_executed, 32 * full.total_quanta);
        let reference = run_sharded(programs.clone(), &cfg(SyncConfig::ground_truth()), Some(1));
        assert!(
            reference.nodes_executed < full.nodes_executed / 4,
            "31 sleepers must be skipped almost every quantum: {} vs {}",
            reference.nodes_executed,
            full.nodes_executed
        );
        // The work metric is part of the deterministic outcome: same count
        // for every M.
        for m in 2..=4 {
            let r = run_sharded(programs.clone(), &cfg(SyncConfig::ground_truth()), Some(m));
            assert_eq!(r.nodes_executed, reference.nodes_executed, "workers={m}");
        }
    }

    #[test]
    fn active_set_run_records_activity_per_quantum_and_per_shard() {
        use aqs_obs::{FlightRecorder, ObsConfig};
        let programs = mostly_idle(8);
        let (r, fr) = run_sharded_impl(
            programs,
            &cfg(SyncConfig::ground_truth()),
            router(8, &SimSwitch::Perfect),
            Some(2),
            FlightRecorder::new(8, ObsConfig::new()),
            None,
        )
        .expect("run succeeds");
        assert_eq!(fr.total_active_nodes(), r.nodes_executed);
        let lanes = fr.shard_activity().expect("sharded run records activity");
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes.iter().sum::<u64>(), r.nodes_executed);
    }

    #[test]
    fn ping_pong_completes() {
        let spec = ping_pong(2, 5, 64);
        let r = run_sharded(spec.programs, &cfg(SyncConfig::ground_truth()), Some(2));
        let received: Vec<u64> = r.per_node.iter().map(|n| n.messages_received).collect();
        assert_eq!(received, [5, 5]);
        assert_eq!(r.stragglers.count(), 0, "safe quantum must be race-free");
        assert_eq!(r.total_packets, 10);
        assert_eq!(r.workers, 2);
        assert!(r.sim_end > SimTime::ZERO);
        assert!(r.per_node[0]
            .regions
            .iter()
            .any(|reg| reg.region == aqs_node::RegionId::KERNEL));
    }

    #[test]
    fn busy_work_slows_wall_clock() {
        let spec = burst(2, 2_000_000, 512);
        let fast = run_sharded(
            spec.programs.clone(),
            &cfg(SyncConfig::fixed_micros(1000)),
            Some(2),
        );
        let slow = run_sharded(
            spec.programs,
            &ParallelConfig {
                host_work_per_op: 50.0,
                ..cfg(SyncConfig::fixed_micros(1000))
            },
            Some(2),
        );
        assert!(
            slow.wall > fast.wall,
            "busy work should cost wall time: {:?} vs {:?}",
            slow.wall,
            fast.wall
        );
    }

    #[test]
    fn packet_path_reaches_an_allocation_free_steady_state() {
        // Batch allocations track the largest batch a quantum needs, not
        // the number of copies routed: 20× the rounds must not add a single
        // allocation beyond the short run's warm-up (6 when pinned: one
        // growth per batch buffer a pair of workers circulates).
        let run = |rounds| {
            let spec = ping_pong(2, rounds, 64);
            run_sharded(spec.programs, &cfg(SyncConfig::ground_truth()), Some(2))
        };
        let short = run(10);
        let long = run(200);
        assert_eq!(long.total_packets, 400);
        assert_eq!(long.pool_heap_allocs, short.pool_heap_allocs);
        assert!(long.pool_heap_allocs < long.total_packets / 10);
        // The same through the fat-tree fabric, transit math included: a
        // ring exchange over 128 racks crosses every uplink plane in both
        // directions. The second round already meets the busiest quantum
        // (24 allocations after one round when pinned, 26 from the second
        // on), so 4× the rounds add nothing; a per-packet regression would
        // add thousands.
        let fabric_run = |rounds| {
            let n = 4096;
            let mut ring = MpiBuilder::new(n);
            for _ in 0..rounds {
                ring.compute_all(50_000);
                ring.neighbor_exchange(&[1], 4096);
            }
            run_sharded_on(
                ring.build(),
                &cfg(SyncConfig::paper_dyn2()),
                &SimSwitch::Fabric(FabricConfig::fat_tree()),
                Some(2),
            )
        };
        let short = fabric_run(2);
        let long = fabric_run(8);
        assert_eq!(short.total_packets, 2 * 2 * 4096);
        assert_eq!(long.total_packets, 4 * short.total_packets);
        assert_eq!(
            long.pool_heap_allocs,
            short.pool_heap_allocs,
            "steady-state fabric routing allocates over +{} packets",
            long.total_packets - short.total_packets
        );
    }

    #[test]
    fn incast_scan_count_and_pool_footprint_are_pinned() {
        // A mostly idle incast: 8 fronts × 64 backends hot out of 1 024
        // nodes, `waves` serialized request waves per front, so peak
        // in-flight traffic does not grow with `waves`.
        let run = |waves| {
            let spec = aqs_workloads::rpc_incast(1024, 8, waves, 64, 2_048, 16_384, 50_000, 11);
            run_sharded(spec.programs, &cfg(SyncConfig::fixed_micros(5)), Some(2))
        };
        let short = run(4);
        // The executed-node count is a pure function of the simulated
        // history (identical for every M), so it pins the wake wheel's
        // arming rules exactly: change the number only for an intentional
        // scheduler change.
        assert_eq!(short.nodes_executed, 26_742);
        // ...and the active set must be active: a silent fall-back to full
        // sweeps would survive a re-pinned count, not this bound.
        let swept = 1024 * short.total_quanta;
        assert!(
            short.nodes_executed < swept / 4,
            "{} of {swept} sweep slots executed",
            short.nodes_executed
        );
        // Warm-up is the doublings of each batch buffer up to the largest
        // batch a quantum needs (31–35 when pinned, so 2× headroom); a
        // per-packet regression overshoots by orders of magnitude.
        assert!(
            short.pool_heap_allocs <= 70,
            "batch warm-up footprint regressed: {} allocations",
            short.pool_heap_allocs
        );
        // Incast is directional, but a receiver puts its emptied buffer back
        // into the slot instead of freeing it, so the senders stay off the
        // heap: 3× the waves re-route the same shape. Hand-off timing
        // decides which buffer lands where and whether a late receiver
        // finds two batches in one slot, which moves the count by a few
        // either way (31–35 on both sides when pinned), never in
        // proportion to the packets.
        let long = run(12);
        assert!(long.total_packets > short.total_packets);
        let extra = long.pool_heap_allocs.saturating_sub(short.pool_heap_allocs);
        assert!(
            extra <= 8,
            "steady-state incast routing allocates: +{extra} batch allocations over +{} packets",
            long.total_packets - short.total_packets
        );
    }

    #[test]
    fn safe_quantum_matches_deterministic_engine_for_every_worker_count() {
        let spec = burst(5, 50_000, 1024);
        let report = Sim::new(spec.programs.clone())
            .config(ClusterConfig::new(SyncConfig::ground_truth()).with_seed(1))
            .run();
        let det = report.detail.as_deterministic().expect("det engine");
        for m in 1..=5 {
            let r = run_sharded(
                spec.programs.clone(),
                &cfg(SyncConfig::ground_truth()),
                Some(m),
            );
            assert_eq!(r.sim_end, det.sim_end, "workers={m}");
            assert_eq!(r.total_packets, det.total_packets, "workers={m}");
            assert_eq!(r.stragglers.count(), 0, "workers={m}");
            for (a, b) in r.per_node.iter().zip(det.per_node.iter()) {
                assert_eq!(a.finish_sim, b.finish_sim, "workers={m}");
                assert_eq!(a.messages_received, b.messages_received, "workers={m}");
                assert_eq!(a.ops, b.ops, "workers={m}");
            }
        }
    }

    #[test]
    fn unsafe_quantum_results_are_identical_for_every_worker_count() {
        // The boundary-delivery rule makes the engine deterministic even when
        // quanta are far above the safe bound: any M, same outcome.
        let spec = ping_pong(4, 25, 4096);
        let reference = run_sharded(
            spec.programs.clone(),
            &cfg(SyncConfig::fixed_micros(1000)),
            Some(1),
        );
        assert!(reference.stragglers.count() > 0, "workload must straggle");
        for m in 2..=4 {
            let r = run_sharded(
                spec.programs.clone(),
                &cfg(SyncConfig::fixed_micros(1000)),
                Some(m),
            );
            assert_eq!(r.sim_end, reference.sim_end, "workers={m}");
            assert_eq!(r.total_quanta, reference.total_quanta, "workers={m}");
            assert_eq!(r.total_packets, reference.total_packets, "workers={m}");
            assert_eq!(
                r.stragglers.count(),
                reference.stragglers.count(),
                "workers={m}"
            );
            assert_eq!(
                r.stragglers.total_delay(),
                reference.stragglers.total_delay(),
                "workers={m}"
            );
            for (a, b) in r.per_node.iter().zip(reference.per_node.iter()) {
                assert_eq!(a.finish_sim, b.finish_sim, "workers={m}");
            }
        }
    }

    #[test]
    fn adaptive_policy_reduces_quanta() {
        let mk = |r: u32| {
            let peer = 1 - r;
            let mut b = ProgramBuilder::new(Rank::new(r)).compute(2_000_000);
            if r == 0 {
                b = b.send(Rank::new(peer), 64, Tag::new(0));
            } else {
                b = b.recv(Some(Rank::new(peer)), Tag::new(0));
            }
            b.compute(2_000_000).build()
        };
        let programs = vec![mk(0), mk(1)];
        let truth = run_sharded(programs.clone(), &cfg(SyncConfig::ground_truth()), Some(2));
        let dynr = run_sharded(programs, &cfg(SyncConfig::paper_dyn1()), Some(2));
        assert!(
            dynr.total_quanta < truth.total_quanta / 5,
            "adaptive should need far fewer quanta: {} vs {}",
            dynr.total_quanta,
            truth.total_quanta
        );
    }

    #[test]
    fn latency_matrix_switch_matches_deterministic_engine() {
        let spec = ping_pong(2, 20, 4096);
        let matrix =
            SimSwitch::LatencyMatrix(LatencyMatrixSwitch::uniform(2, SimDuration::from_micros(3)));
        let det = Sim::new(spec.programs.clone())
            .config(ClusterConfig::new(SyncConfig::ground_truth()).with_seed(7))
            .switch(matrix.clone())
            .run();
        let config = cfg(SyncConfig::ground_truth());
        let r = run_sharded_on(spec.programs, &config, &matrix, Some(2));
        assert_eq!(r.sim_end, det.sim_end);
        assert_eq!(r.total_packets, det.total_packets);
        assert_eq!(r.stragglers.count(), 0);
    }

    #[test]
    fn worker_count_is_clamped_to_node_count() {
        let spec = ping_pong(2, 2, 64);
        let r = run_sharded(spec.programs, &cfg(SyncConfig::ground_truth()), Some(64));
        assert_eq!(r.workers, 2);
    }

    #[test]
    fn builder_clamps_oversized_shard_counts_and_rejects_zero() {
        use crate::sim::{EngineKind, SimError};
        let spec = ping_pong(2, 2, 64);
        // m > n clamps to n instead of spawning idle workers.
        let report = Sim::new(spec.programs.clone())
            .engine(EngineKind::Sharded)
            .shards(64)
            .sync(SyncConfig::ground_truth())
            .run();
        let sharded = report.detail.as_sharded().expect("sharded engine");
        assert_eq!(sharded.workers, 2);
        // m = 0 is a configuration error, not a panic.
        let err = Sim::new(spec.programs)
            .engine(EngineKind::Sharded)
            .shards(0)
            .sync(SyncConfig::ground_truth())
            .try_run()
            .unwrap_err();
        assert_eq!(err, SimError::ZeroShards);
        assert!(err.to_string().contains("at least one worker"));
    }

    /// A small fabric: 2 nodes per rack, 2 uplink planes.
    fn small_fabric() -> SimSwitch {
        SimSwitch::Fabric(
            FabricConfig::fat_tree()
                .with_rack_size(2)
                .with_uplinks_per_rack(2),
        )
    }

    #[test]
    fn fabric_switch_matches_deterministic_engine() {
        let spec = ping_pong(6, 12, 4096);
        let det = Sim::new(spec.programs.clone())
            .config(ClusterConfig::new(SyncConfig::ground_truth()).with_seed(11))
            .switch(small_fabric())
            .run();
        let config = cfg(SyncConfig::ground_truth());
        let r = run_sharded_on(spec.programs, &config, &small_fabric(), Some(3));
        assert_eq!(r.sim_end, det.sim_end);
        assert_eq!(r.total_packets, det.total_packets);
        assert_eq!(r.stragglers.count(), 0, "safe quantum must be race-free");
    }

    #[test]
    fn fabric_results_are_identical_for_every_worker_count() {
        // The stateful-looking fabric is epoch-keyed pure, so even under
        // unsafe quanta (stragglers present) the outcome is M-independent.
        let spec = ping_pong(6, 25, 4096);
        let config = cfg(SyncConfig::fixed_micros(1000));
        let run = |m| run_sharded_on(spec.programs.clone(), &config, &small_fabric(), Some(m));
        let reference = run(1);
        assert!(reference.stragglers.count() > 0, "workload must straggle");
        for m in 2..=6 {
            let r = run(m);
            assert_eq!(r.sim_end, reference.sim_end, "workers={m}");
            assert_eq!(r.total_quanta, reference.total_quanta, "workers={m}");
            assert_eq!(r.total_packets, reference.total_packets, "workers={m}");
            assert_eq!(
                r.stragglers.total_delay(),
                reference.stragglers.total_delay(),
                "workers={m}"
            );
            for (a, b) in r.per_node.iter().zip(reference.per_node.iter()) {
                assert_eq!(a.finish_sim, b.finish_sim, "workers={m}");
            }
        }
    }

    #[test]
    fn fabric_link_load_is_recorded_and_m_independent() {
        use aqs_obs::{FlightRecorder, ObsConfig};
        let net = router(6, &small_fabric());
        let n_links = net.fabric().expect("a fabric switch").n_links();
        let spec = burst(6, 50_000, 4096);
        let run = |m| {
            run_sharded_impl(
                spec.programs.clone(),
                &cfg(SyncConfig::ground_truth()),
                net.clone(),
                Some(m),
                FlightRecorder::new(6, ObsConfig::new()),
                None,
            )
            .expect("run succeeds")
        };
        let (r1, fr1) = run(1);
        let (r3, fr3) = run(3);
        assert_eq!(r1.sim_end, r3.sim_end);
        let l1 = fr1.link_load().expect("fabric run records link load");
        let l3 = fr3.link_load().expect("fabric run records link load");
        assert_eq!(l1.bytes.len(), n_links);
        assert!(l1.total_bytes() > 0, "traffic must hit the fabric");
        assert_eq!(l1.bytes, l3.bytes, "link byte totals must be M-independent");
        assert_eq!(l1.packets, l3.packets);
        let (hot, hot_bytes) = l1.hottest().expect("some link is hottest");
        assert!(hot < n_links && hot_bytes > 0);
        // An unrecorded fabric run must not regress the batched packet path.
        let null = run_sharded_on(
            spec.programs.clone(),
            &cfg(SyncConfig::ground_truth()),
            &small_fabric(),
            Some(3),
        );
        assert_eq!(null.sim_end, r3.sim_end);
        assert_eq!(null.total_packets, r3.total_packets);
    }

    #[test]
    fn flight_recorder_matches_run_totals_and_null_run() {
        use aqs_obs::{FlightRecorder, ObsConfig};
        let spec = burst(4, 50_000, 1024);
        let (r, fr) = run_sharded_impl(
            spec.programs.clone(),
            &cfg(SyncConfig::ground_truth()),
            router(4, &SimSwitch::Perfect),
            Some(2),
            FlightRecorder::new(4, ObsConfig::new()),
            None,
        )
        .expect("run succeeds");
        assert_eq!(fr.total_packets(), r.total_packets);
        assert_eq!(fr.total_quanta(), r.total_quanta);
        assert_eq!(fr.total_stragglers(), r.stragglers.count());
        // Barrier waits are real time, one lane per node every quantum.
        assert!(fr.barrier_wait_hist().count() > 0);
        let null = run_sharded(spec.programs, &cfg(SyncConfig::ground_truth()), Some(2));
        assert_eq!(null.sim_end, r.sim_end);
        assert_eq!(null.total_quanta, r.total_quanta);
        assert_eq!(null.total_packets, r.total_packets);
    }

    /// Everything a sharded run reports about the simulation, per node and
    /// in total; `nodes_executed` last, because a resumed run re-polls every
    /// node once and so counts differently from a fresh one.
    type Observed = (
        Vec<(Rank, SimTime, u64, u64, Vec<aqs_node::RegionRecord>)>,
        (u64, SimDuration),
        (SimTime, u64, u64),
        u64,
    );

    fn observed(r: &ShardedRunResult) -> Observed {
        (
            r.per_node
                .iter()
                .map(|p| {
                    (
                        p.rank,
                        p.finish_sim,
                        p.ops,
                        p.messages_received,
                        p.regions.clone(),
                    )
                })
                .collect(),
            (r.stragglers.count(), r.stragglers.total_delay()),
            (r.sim_end, r.total_quanta, r.total_packets),
            r.nodes_executed,
        )
    }

    #[test]
    fn incast_fresh_and_resumed_runs_agree_for_every_worker_count() {
        use aqs_obs::ObsConfig;
        // Every worker builds its own slice of the nodes, fresh or from a
        // snapshot: neither the slicing nor who builds may show. 64 nodes,
        // 4 fronts; the 16 KiB responses are two fragments each, so cuts
        // fall while fronts hold half-assembled messages.
        let spec = aqs_workloads::rpc_incast(64, 4, 3, 8, 2_048, 16_384, 20_000, 7);
        let base = Sim::new(spec.programs)
            .engine(crate::sim::EngineKind::Sharded)
            .sync(SyncConfig::ground_truth());
        let sharded = |report: crate::sim::RunReport| {
            observed(report.detail.as_sharded().expect("the sharded engine ran"))
        };
        let fresh = sharded(base.clone().shards(1).run());
        assert!(fresh.0.iter().all(|node| !node.4.is_empty()), "regions");
        for m in 2..=4 {
            assert_eq!(sharded(base.clone().shards(m).run()), fresh, "fresh m={m}");
        }
        let total_quanta = fresh.2 .1;
        assert!(total_quanta > 50, "need several cuts, got {total_quanta}");
        let mut partial_at_a_cut = false;
        for cut in (10..total_quanta).step_by(10) {
            let snap = base.snapshot_at(cut).expect("capturable cut");
            partial_at_a_cut |= snap
                .body
                .nodes
                .iter()
                .any(|n| !n.exec.mailbox.assembling.is_empty());
            let resume = |m| sharded(base.clone().shards(m).resume(&snap).expect("resumes"));
            let one = resume(1);
            assert_eq!((&one.0, &one.1, &one.2), (&fresh.0, &fresh.1, &fresh.2));
            for m in 2..=4 {
                assert_eq!(resume(m), one, "cut={cut} m={m}");
            }
        }
        assert!(partial_at_a_cut, "no cut caught a half-assembled message");
        // Recording allocates the per-node lag lanes an unrecorded run no
        // longer has; it must still only observe.
        let recorded = base.clone().shards(2).record(ObsConfig::new()).run();
        let fr = recorded.obs.as_ref().expect("recorder attached");
        assert_eq!(fr.total_active_nodes(), fresh.3);
        assert!(fr.vt_lag_hist().count() > 0, "lag lanes were recorded");
        assert_eq!(sharded(recorded), fresh);
    }

    #[test]
    fn unsafe_quantum_incast_is_identical_for_every_worker_count() {
        // The same program under a quantum far above the safe bound, where
        // stragglers occur: totals and per-node results still cannot depend
        // on how the nodes were sliced over workers.
        let spec = aqs_workloads::rpc_incast(64, 4, 3, 8, 2_048, 16_384, 20_000, 7);
        let config = cfg(SyncConfig::fixed_micros(50));
        let reference = observed(&run_sharded(spec.programs.clone(), &config, Some(1)));
        assert!(reference.1 .0 > 0, "workload must straggle");
        for m in 2..=4 {
            let r = run_sharded(spec.programs.clone(), &config, Some(m));
            assert_eq!(observed(&r), reference, "workers={m}");
        }
    }

    #[test]
    fn every_hand_off_slot_carries_traffic_at_every_worker_count() {
        // An all-to-all puts a batch into every sender→receiver slot in the
        // burst quantum, up to one worker per node (M = 16: all 240
        // off-diagonal slots at once). Under the adaptive policy, the safe
        // quantum and a quantum far above it (every copy a straggler),
        // every M must match M = 1 and the full sweep.
        let programs = burst(16, 50_000, 1024).programs;
        for (sync, straggles) in [
            (SyncConfig::paper_dyn2(), false),
            (SyncConfig::ground_truth(), false),
            (SyncConfig::fixed_micros(1000), true),
        ] {
            let run = |config: &ParallelConfig, m| {
                observed(&run_sharded(programs.clone(), config, Some(m)))
            };
            let one = run(&cfg(sync.clone()), 1);
            assert_eq!(one.1 .0 > 0, straggles, "{sync:?}");
            assert_eq!(
                run(&full_sweep(sync.clone()), 1),
                one,
                "{sync:?} full sweep"
            );
            for m in [2, 3, 4, 8, 16] {
                assert_eq!(run(&cfg(sync.clone()), m), one, "{sync:?} workers={m}");
            }
            let (recorded, _) = run_sharded_impl(
                programs.clone(),
                &cfg(sync.clone()),
                router(16, &SimSwitch::Perfect),
                Some(3),
                aqs_obs::FlightRecorder::new(16, aqs_obs::ObsConfig::new()),
                None,
            )
            .expect("run succeeds");
            assert_eq!(observed(&recorded), one, "{sync:?} recorded, workers=3");
        }
    }

    /// Drains `queue` and the heap `reference` before `edge` and asserts
    /// that they armed the same locals and kept the same entries, each as a
    /// multiset, and that the occupancy mask names the non-empty buckets.
    fn drain_both(
        queue: &mut WakeQueue,
        reference: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
        edge: u64,
    ) {
        let mut armed = Vec::new();
        queue.drain_before(edge, |l| armed.push(l));
        let mut expected = Vec::new();
        while reference.peek().is_some_and(|e| e.0 .0 < edge) {
            expected.push(reference.pop().expect("peeked").0 .1);
        }
        armed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(armed, expected, "armed before {edge}");
        let mut kept: Vec<_> = queue.buckets.iter().flatten().copied().collect();
        let mut left: Vec<_> = reference.iter().map(|e| e.0).collect();
        kept.sort_unstable();
        left.sort_unstable();
        assert_eq!(kept, left, "kept past {edge}");
        for (i, bucket) in queue.buckets.iter().enumerate() {
            assert_eq!(
                queue.occupied >> i & 1 == 1,
                !bucket.is_empty(),
                "bucket {i}"
            );
        }
    }

    #[test]
    fn wake_queue_drains_what_a_binary_heap_drains() {
        // A seeded monotone schedule, as the engine makes one: every push at
        // or after the last drain's edge. Edges creep by 1 ns, step by
        // ordinary quanta and jump past 2^40; keys land on the edge, just
        // past it, a few quanta out, up to 2^40 out and next to `u64::MAX`
        // (bucket 64), each in a run of one to three equal keys.
        let mut rng = aqs_rng::SplitMix64::new(0x26);
        let mut queue = WakeQueue::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut edge = 0u64;
        let mut top_bucket_used = false;
        for _ in 0..2_000 {
            for _ in 0..rng.next_u64() % 12 {
                let r = rng.next_u64();
                let t = match r % 32 {
                    0..=7 => edge,
                    8..=15 => edge + 1,
                    16..=25 => edge + (r >> 8) % 4_096,
                    26..=30 => edge + (r >> 24),
                    _ => u64::MAX - 1 - (r >> 8) % 4,
                };
                for _ in 0..1 + (r >> 5) % 3 {
                    let l = (rng.next_u64() % 1024) as u32;
                    queue.push(t, l);
                    reference.push(std::cmp::Reverse((t, l)));
                }
            }
            top_bucket_used |= !queue.buckets[64].is_empty();
            edge += match rng.next_u64() % 16 {
                0..=3 => 1,
                4 => (1 << 40) + rng.next_u64() % (1 << 40),
                _ => 1 + rng.next_u64() % 2_000,
            };
            drain_both(&mut queue, &mut reference, edge);
        }
        assert!(top_bucket_used, "no key reached bucket 64");
        // Split bucket 64 at an edge inside it, then take everything.
        drain_both(&mut queue, &mut reference, u64::MAX - 2);
        drain_both(&mut queue, &mut reference, u64::MAX);
        assert!(reference.is_empty());
    }

    #[cfg(feature = "schedule-fuzz")]
    #[test]
    fn armed_schedule_fuzz_shuffles_the_taken_batches() {
        // An M = 2 all-to-all: the burst quantum hands each worker a batch
        // of its own shard's copies and one of its peer's.
        let programs = burst(8, 50_000, 1024).programs;
        let config = cfg(SyncConfig::ground_truth());
        let plain = observed(&run_sharded(programs.clone(), &config, Some(2)));
        let before = SHUFFLED_BATCHES.load(Ordering::Relaxed);
        aqs_sync::fuzz::arm(0x5EED);
        let fuzzed = observed(&run_sharded(programs, &config, Some(2)));
        aqs_sync::fuzz::disarm();
        assert!(
            SHUFFLED_BATCHES.load(Ordering::Relaxed) > before,
            "no batch of two or more copies was shuffled"
        );
        assert_eq!(fuzzed, plain);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn quantum_cap_catches_deadlock() {
        let p0 = ProgramBuilder::new(Rank::new(0))
            .recv(Some(Rank::new(1)), Tag::new(0))
            .build();
        let p1 = ProgramBuilder::new(Rank::new(1)).compute(10).build();
        let _ = run_sharded(
            vec![p0, p1],
            &ParallelConfig {
                max_quanta: 500,
                ..cfg(SyncConfig::fixed_micros(1000))
            },
            Some(1),
        );
    }
}
