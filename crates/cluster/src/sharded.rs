//! The sharded parallel engine: N node simulators on M worker threads.
//!
//! The paper's system has a one-SimNow-per-core shape: one OS thread per
//! simulated node. That stops scaling long before cluster sizes — at 256+
//! nodes the host drowns in oversubscription and scheduler churn instead of
//! exercising Algorithm 1. This engine decouples logical processes from OS
//! threads: the N node simulators are dealt round-robin to M shards, node
//! i to shard i mod M (`Deal`; M defaults to the host's available
//! parallelism, and `shards(n)` is the paper's thread-per-node shape), each
//! worker advances its whole shard to the quantum edge, and the quantum
//! handshake is a hierarchical two-level [`TreeBarrier`] whose root leader
//! runs the `QuantumPolicy`.
//!
//! Packets cross shards once per quantum, in batches, with every hop
//! allocation-free in steady state:
//!
//! * a shard routes each copy into its own batch for the receiving shard,
//!   a vector no other thread touches: no atomic, no lock and no shared
//!   cache line per packet;
//! * at the barrier that closes the quantum, the leader swaps each
//!   non-empty batch with the receiving shard's inbox slot for that
//!   sender; at the start of the next quantum, a shard delivers its own
//!   batch and its inbox, touching no other shard's state;
//! * batches are swapped between shards, never freed, so their capacity
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
//! # Who runs a shard
//!
//! Any thread. A shard's whole state — its node records, wake wheel and
//! packet-path accounting with its batches, its round's counts and the
//! quantum it runs next — is parked between quanta in its slot of the
//! run's shared state, behind a `Mutex` that is never contended. The parked
//! shard is the only thing that carries a round between threads:
//!
//! * whoever runs the shard's quantum holds its lock: `take` delivers what
//!   the previous round routed to the shard, and `execute` promotes its due
//!   sleepers, runs its active set to the edge and leaves its counts in its
//!   context. In a *pooled* round each worker runs its own shard, and the M
//!   shards run at once;
//! * the barrier leader, inside the barrier's exclusive section with every
//!   worker parked, locks every shard once, reads their counts, swaps the
//!   batches over and writes the next quantum, or the stop, into each.
//!
//! A round that is too small to share runs on one thread. When a round
//! closes, the leader weighs the next one: unless the run has host work per
//! op, or the round just closed executed at least `SHARE_MIN_NODES` (32)
//! nodes in all shards, it runs the next round *inline* — `take` and
//! `execute` for every shard in shard order, the same body a worker runs —
//! closes it and weighs again, until a round is worth sharing or the run
//! stops. Only then are the other workers released. Batches change hands
//! only in the leader's step, so a shard executed first cannot reach a
//! peer's take in the same round. The executed-node count is simulated
//! history, so which rounds run inline
//! ([`ShardedRunResult::inline_rounds`]) is the same at every M and on
//! every host. The round that opens a run is always pooled: the workers
//! start before any leader step.
//!
//! # A node inside a long op sleeps
//!
//! A node that parks at the edge inside an op with at least two quanta of
//! it left — `pending_ns ≥ 2 ×` the quantum it just ran — sleeps until the
//! op ends: `execute` files a wake at `q_end + pending_ns` in the shard's
//! wake queue instead of re-arming the node for the next quantum. Whatever
//! steps it next, that wake or a delivery that arms it sooner, finds it
//! behind the quantum start, and `step_node`'s fast-forward takes the
//! skipped time off the op, so the op keeps its end and the node reaches
//! the state a step per quantum would have left. Asleep, the node is busy,
//! not idle: it counts as executed in every quantum it sleeps through,
//! with lag 0, as the skipped step would have. So
//! [`ShardedRunResult::nodes_executed`], the per-round count the inline
//! rule weighs and the recorded activity and lag lanes are those of a
//! step per quantum, and [`ShardedRunResult::nodes_stepped`] counts the
//! steps taken.
//!
//! The bound is two quanta because a sleep costs a queue push and a drain
//! and must save a step to pay for them. A one-quantum bound parks every
//! receive overhead (2 µs) that spans a ≈ 1 µs quantum: on `burst_1k` it
//! parked 959 488 times to skip 970 752 steps and ran slower. With two,
//! `burst_1k` skips 61 440 of its 3 809 280 node-quanta and
//! `incast_256k` 2 077 244 of its 4 140 412 (seed 42, EXPERIMENTS.md
//! § "Busy sleep").
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
    finish_run, route_seed_frags, start_run, step_node, Advance, NodeState, ParallelConfig,
    QuantumClock, Stepped,
};
use crate::result::NodeResult;
use crate::sim::{EngineKind, SimError};
use crate::snapshot::{FragSnap, SnapshotBody};
use aqs_net::{LinkLoad, Router, StragglerStats};
use aqs_node::{CpuModel, MessageMeta, Program};
use aqs_obs::{QuantumObs, Recorder};
use aqs_sync::{ArrivalTimes, CachePadded, TreeBarrier};
use aqs_time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
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
    /// handed over in. Batches are swapped between shards at the barrier,
    /// never freed, so this is warm-up only: it tracks the largest batch a
    /// quantum needs, not the number of copies routed, and in steady state
    /// routing a packet allocates nothing. A function of simulated history
    /// at a given worker count.
    pub pool_heap_allocs: u64,
    /// Active node-quanta summed over all quanta (the active-set work
    /// metric): a node counts in a quantum if it is stepped in it, or if it
    /// is asleep inside an op the whole quantum (see the [module
    /// docs](self)). A full sweep executes every node every quantum, so
    /// this equals `n × total_quanta`; the active-set scheduler executes
    /// only nodes with a wake inside the quantum or an op spanning it, so
    /// the ratio of the two is the structural win on idle-heavy workloads.
    /// Deterministic: independent of the worker count and of thread
    /// scheduling.
    pub nodes_executed: u64,
    /// Node steps summed over all quanta: `nodes_executed` less the
    /// quanta nodes slept through inside an op. Equal to `nodes_executed`
    /// under a full sweep; deterministic like it.
    pub nodes_stepped: u64,
    /// Rounds the barrier leader ran inline, every shard in turn, while the
    /// rest of the pool waited (see the [module docs](self)): a function of
    /// simulated history, the same at every M and on every host.
    pub inline_rounds: u64,
}

/// Nodes a round must have executed, summed over the shards, for the next
/// round to wake the pool when the run has no host work per op. A pooled
/// round pays one barrier round beyond its node work —
/// `sync.barrier_round_ns`, 0.5–1.1 µs on a 2-vCPU host — and one node
/// execution costs `cluster.ns_per_node_exec`, ≈ 31 ns on `burst_1k`:
/// 1 µs ÷ 31 ns ≈ 32. Below that a round's whole node work is less than the
/// barrier that would split it, so no pool of any size can win it back.
const SHARE_MIN_NODES: u64 = 32;

/// A fragment in flight to one receiver, addressed by its local index in
/// the receiving shard. `arrival` is already the effective
/// (boundary-deferred) delivery time.
#[derive(Clone, Copy, Debug)]
struct ShardInFlight {
    dst: u32,
    meta: MessageMeta,
    frag_index: u32,
    arrival: SimTime,
}

impl ShardInFlight {
    fn new(local: usize, frag: &FragSnap, arrival: SimTime) -> Self {
        Self {
            dst: local as u32,
            meta: frag.meta,
            frag_index: frag.frag_index,
            arrival,
        }
    }
}

/// A quantum as the leader opened it.
#[derive(Clone, Copy, Default)]
struct Quantum {
    start: SimTime,
    end: SimTime,
}

/// State only the barrier leader touches, via `TreeBarrier::arrive` — no
/// mutex: exclusivity comes from the barrier protocol itself.
struct LeaderState<R> {
    clock: QuantumClock,
    /// Packets routed over the whole run (sum of the shards' counts).
    total_packets: u64,
    /// Rounds run inline (see [`ShardedRunResult::inline_rounds`]).
    inline_rounds: u64,
    /// Set by the leader step that hit the quantum cap (deadlock guard),
    /// read after the join, where failing is safe.
    overflow: bool,
    /// Observability recorder. Leader-exclusive like the rest of this
    /// struct, so recording needs no lock and stays off the packet path.
    rec: R,
    /// Scratch lanes for sample assembly, one slot per node in rank order,
    /// reused across quanta.
    waits: Vec<u64>,
    lags: Vec<u64>,
    /// Per-link load merge scratch (fabric switch with recording enabled;
    /// empty — and untouched — otherwise).
    link_load: LinkLoad,
    /// Per-shard active-node merge scratch (recording enabled; empty — and
    /// untouched — otherwise).
    shard_actives: Vec<u64>,
}

/// What the leader reads and writes of a shard every round (the round's
/// counts, the next quantum, the stop), on one line with the lock word.
#[derive(Default)]
struct Round {
    /// The quantum the shard runs next. Unchanged by the stop, so it then
    /// names the last round.
    q: Quantum,
    /// Set by the leader step that ends the run.
    stop: bool,
    /// Packets routed this round (the policy's `np` is their sum).
    packets: u64,
    /// Nodes executed this round (stepped, or asleep inside an op): the
    /// leader weighs the next round by their sum.
    executed: u64,
    /// The shard's nodes whose program has finished, over the run: the run
    /// is done when the sum is the node count.
    done: u64,
}

/// A shard's packet-path accounting. Only the thread running the shard's
/// quantum touches it, and the leader between rounds.
#[repr(C)]
struct ShardCtx {
    round: Round,
    /// This shard's index (= its fabric slice, = the worker that runs it in
    /// a pooled round).
    s: usize,
    /// Stragglers routed in the current quantum: the leader reads them when
    /// recording, and the next take folds them into `run_stragglers`.
    stragglers: StragglerStats,
    /// Run-total straggler tally, returned at worker exit.
    run_stragglers: StragglerStats,
    /// Copies routed in the current quantum, one batch per receiving shard.
    /// The shard delivers its own batch at the next quantum's start; the
    /// leader swaps every other non-empty one into its receiver's `inbox`.
    out: Vec<Vec<ShardInFlight>>,
    /// What each shard routed here last round, by sender, swapped in by
    /// the leader. The next take delivers and empties them, and the next
    /// swap hands the emptied buffer back to the sender, so capacity
    /// circulates between the shards instead of being freed. A resumed
    /// run's cut copies start in the shard's own slot.
    inbox: Vec<Vec<ShardInFlight>>,
    /// Capacity growths of the batches this shard filled (see
    /// [`ShardedRunResult::pool_heap_allocs`]).
    heap_allocs: u64,
    /// Active node-quanta over the run (see
    /// [`ShardedRunResult::nodes_executed`]).
    nodes_executed: u64,
    /// Node steps over the run (see [`ShardedRunResult::nodes_stepped`]).
    nodes_stepped: u64,
    /// Per-local idle tail (vt lag) of the quantum, in sim ns, with
    /// `u64::MAX` for a node that did not execute. Empty unless the run is
    /// recorded: nothing else reads it.
    lags: Vec<u64>,
    /// The links this shard's copies crossed this quantum. Empty unless the
    /// switch is a fabric and the run is recorded.
    links: LinkLoad,
}

impl ShardCtx {
    /// Shard `s` of `m`, over `len` nodes, opening at `q`; `recorded` sizes
    /// the lag lanes, `n_links` the link load.
    fn new(s: usize, m: usize, len: usize, q: Quantum, recorded: bool, n_links: usize) -> Self {
        Self {
            round: Round {
                q,
                ..Round::default()
            },
            s,
            stragglers: StragglerStats::default(),
            run_stragglers: StragglerStats::default(),
            out: vec![Vec::new(); m],
            inbox: vec![Vec::new(); m],
            heap_allocs: 0,
            nodes_executed: 0,
            nodes_stepped: 0,
            lags: if recorded {
                vec![u64::MAX; len]
            } else {
                Vec::new()
            },
            links: LinkLoad::new(n_links),
        }
    }

    /// Folds the last quantum's stragglers into the run's tally.
    fn fold_stragglers(&mut self) {
        if self.stragglers.count() > 0 {
            self.run_stragglers.merge(&self.stragglers);
            self.stragglers = StragglerStats::default();
        }
    }
}

/// A shard's node simulators, one record per node: all of global node
/// `s + l·m`'s own state is record `l` of shard `s` (see [`Deal`]), so a
/// node that wakes cold touches one record, not a slot in each of several
/// arrays. The active-set scan reads only the wake wheel's bitmap and no
/// record of a node that does not run.
struct ShardNodes {
    /// Where the shard's nodes sit in the cluster.
    deal: Deal,
    /// This shard's index.
    s: usize,
    nodes: NodeRecords,
    /// Bit `l` set ⇔ the shard's done count already holds local node `l`'s
    /// end.
    done_reported: Vec<u64>,
}

// A shard's per-node record is one `NodeState`, fields and nothing else: a
// flag beside it would pad every record by a word (232 → 240 B), so per-node
// flags go in bit sets.
const _: () = assert!(
    std::mem::size_of::<NodeState>()
        == std::mem::size_of::<aqs_node::NodeExecutor>() + 3 * std::mem::size_of::<u64>()
);

/// A shard's node records in blocks of [`NodeRecords::BLOCK`] nodes
/// (≈ 0.95 MB), record `l` at `blocks[l / BLOCK][l % BLOCK]`. In one
/// vector, each shard of a 262 144-node run dealt to two workers is a
/// single 30 MB allocation, under glibc's 32 MiB ceiling for mapping one
/// apart: once a run has freed one, the next run's records come from the
/// allocator's arena heaps, and a benchmark process that keeps the last
/// report grew its peak by ≈ 44 MB (EXPERIMENTS.md § "Busy sleep"). Blocks
/// of one size are reused whole.
struct NodeRecords {
    blocks: Vec<Vec<NodeState>>,
    len: usize,
}

impl NodeRecords {
    /// Records per block: a power of two.
    const BLOCK: usize = 1 << 12;

    /// Room for `len` records, allocated block by block as they are pushed.
    fn new(len: usize) -> Self {
        Self {
            blocks: Vec::with_capacity(len.div_ceil(Self::BLOCK)),
            len: 0,
        }
    }

    /// Appends a record; `total` is the shard's final record count, which
    /// sizes the last block exactly.
    fn push(&mut self, node: NodeState, total: usize) {
        if self.len.is_multiple_of(Self::BLOCK) {
            let room = (total - self.len).min(Self::BLOCK);
            self.blocks.push(Vec::with_capacity(room));
        }
        self.blocks.last_mut().expect("a block").push(node);
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut NodeState> {
        self.blocks.iter_mut().flatten()
    }
}

impl std::ops::Index<usize> for NodeRecords {
    type Output = NodeState;

    #[inline]
    fn index(&self, l: usize) -> &NodeState {
        &self.blocks[l / Self::BLOCK][l % Self::BLOCK]
    }
}

impl std::ops::IndexMut<usize> for NodeRecords {
    #[inline]
    fn index_mut(&mut self, l: usize) -> &mut NodeState {
        &mut self.blocks[l / Self::BLOCK][l % Self::BLOCK]
    }
}

impl ShardNodes {
    /// Builds shard `s` of `deal` from its programs, in local order,
    /// straight into its records and on the worker that will run and drop
    /// them: fresh nodes at sim time zero, or — with `resume` — the
    /// snapshot's nodes restored at its cut. A node state that fails
    /// validation is reported as `"node i: …"`, with `i` beside it.
    fn build(
        deal: Deal,
        s: usize,
        programs: Vec<Program>,
        resume: Option<&SnapshotBody>,
        cpu: CpuModel,
    ) -> Result<Self, (usize, SimError)> {
        let len = programs.len();
        let mut nodes = NodeRecords::new(len);
        let mut done_reported = vec![0u64; len.div_ceil(64)];
        for (l, program) in programs.into_iter().enumerate() {
            let i = deal.global(s, l);
            let node = NodeState::start(i, program, cpu, resume).map_err(|e| (i, e))?;
            nodes.push(node, len);
            if resume.is_some_and(|body| body.nodes[i].done) {
                done_reported[l >> 6] |= 1 << (l & 63);
            }
        }
        Ok(Self {
            deal,
            s,
            nodes,
            done_reported,
        })
    }
}

/// One shard's whole state between quanta, parked in its
/// [`SharedSharded::shards`] slot so any thread can run its next quantum.
/// `repr(C)` with the round first: locking a shard brings its round in.
#[repr(C)]
struct Shard {
    ctx: ShardCtx,
    nodes: ShardNodes,
    wheel: WakeWheel,
}

impl Shard {
    /// A shard over its built nodes. Every node starts armed (a fresh run
    /// must poll everyone at least once; a resumed run re-polls everyone on
    /// the first quantum, exactly as the pre-active-set engine did). The
    /// wake wheel takes over from the first execution onward.
    fn new(nodes: ShardNodes, mut ctx: ShardCtx) -> Self {
        let mut wheel = WakeWheel::new(nodes.nodes.len());
        for l in 0..nodes.nodes.len() {
            wheel.arm_now(l);
        }
        // A resumed run's finished nodes are counted from the start.
        let done = nodes.done_reported.iter().map(|w| w.count_ones());
        ctx.round.done = done.map(u64::from).sum();
        Self { nodes, wheel, ctx }
    }
}

/// The parked shard behind a held lock.
fn parked(slot: &mut Option<Shard>) -> &mut Shard {
    slot.as_mut().expect("the shard was parked")
}
/// Per-shard wake wheel: which locals run in the current quantum, when
/// parked-with-a-deadline locals become due, and which locals sleep inside
/// an op. Part of the parked [`Shard`].
///
/// A local parked at the edge with at least two quanta of its op left is
/// not re-armed for the next quantum: its wake is the op's end, and its
/// busy bit counts it as executed until then. Two quanta, not one, because
/// the sleep's push and drain must buy at least one skipped step: at one,
/// `burst_1k` parks 959 488 times to skip 970 752 steps; at two, it parks
/// 2 048 times to skip 61 440, and `incast_256k` 256 371 times to skip
/// 2 077 244 (seed 42).
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
    /// executed-node count is identical for every shard count. A busy
    /// sleeper's entry is its op's end, which no earlier step moves: a
    /// node woken before it by a delivery and put back to sleep files a
    /// second entry at the same key, and the two arm one poll.
    queue: WakeQueue,
    /// Bitmap over local indices: bit set ⇔ the node is asleep inside an
    /// op (see [`WakeWheel::sleep_busy`]). A node asleep inside an op is
    /// busy, not idle: it counts as executed in every quantum it sleeps
    /// through, with lag 0, exactly as if it had been stepped.
    busy_words: Vec<u64>,
    /// Set bits of `busy_words`.
    asleep: u64,
}

impl WakeWheel {
    fn new(len: usize) -> Self {
        Self {
            ready_words: vec![0u64; len.div_ceil(64)],
            queue: WakeQueue::new(),
            busy_words: vec![0u64; len.div_ceil(64)],
            asleep: 0,
        }
    }

    #[inline]
    fn arm_now(&mut self, l: usize) {
        self.ready_words[l >> 6] |= 1u64 << (l & 63);
    }

    /// Puts local `l`, parked mid-op at an edge, to sleep until its op
    /// ends at `end_ns`, instead of stepping it through every quantum in
    /// between only to shorten the op's remainder.
    #[inline]
    fn sleep_busy(&mut self, l: usize, end_ns: u64) {
        self.queue.push(end_ns, l as u32);
        self.busy_words[l >> 6] |= 1u64 << (l & 63);
        self.asleep += 1;
    }

    /// Wakes local `l` from a busy sleep, if it is in one; `true` if it
    /// was.
    #[inline]
    fn wake_busy(&mut self, l: usize) -> bool {
        let (word, bit) = (&mut self.busy_words[l >> 6], 1u64 << (l & 63));
        let was = *word & bit != 0;
        *word &= !bit;
        self.asleep -= u64::from(was);
        was
    }

    /// `true` if local `l` is asleep inside an op.
    #[inline]
    fn is_busy(&self, l: usize) -> bool {
        self.busy_words[l >> 6] & (1u64 << (l & 63)) != 0
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
    /// Which shard holds each node.
    deal: Deal,
    /// Nodes in the cluster.
    n: usize,
    /// Every shard's state between quanta (see "Who runs a shard" in the
    /// module docs). `None` until the shard's worker has built and parked
    /// it, and again once the worker has taken it back at the end.
    shards: Vec<CachePadded<Mutex<Option<Shard>>>>,
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
    /// and the copy goes into the sending shard's batch for the shard that
    /// owns its receiver.
    #[inline]
    fn route(&self, ctx: &mut ShardCtx, src: usize, frag: &FragSnap, q_end: SimTime) {
        let net = &self.net;
        net.fan_out(src, frag.dst, frag.bytes, frag.departure, |t, arrival| {
            ctx.round.packets += 1;
            if let (true, Some(fabric)) = (R::ENABLED, net.fabric()) {
                // Observation only (never feeds timing): count the packet
                // on every link of its path, in this shard's own slice.
                for &link in fabric.path(src as u32, t as u32).links() {
                    ctx.links.record(link, frag.bytes as u64);
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
            let (d, l) = self.deal.place(t);
            let batch = &mut ctx.out[d];
            ctx.heap_allocs += u64::from(batch.len() == batch.capacity());
            batch.push(ShardInFlight::new(l, frag, eff));
        });
    }
}

/// Balanced contiguous partition of `n` nodes over `m` shards: the first
/// `n % m` shards get one extra node. The rollback engine's shards, which
/// are rollback domains only, are these.
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

/// The sharded engine's partition: nodes are dealt to the `m` shards like
/// cards, node `i` to shard `i mod m` as its local node `i / m`. A workload
/// whose hot nodes sit together in rank order — the fronts of an incast,
/// the first ranks of a collective — spreads them over every shard, and
/// every shard holds `⌈n / m⌉` or `⌊n / m⌋` nodes. The deal is a pure
/// function of `(n, m)`, so a rerun and a resumed run partition alike.
#[derive(Clone, Copy)]
struct Deal {
    m: usize,
}

impl Deal {
    /// The shard and local index of global node `i`.
    #[inline]
    fn place(self, i: usize) -> (usize, usize) {
        (i % self.m, i / self.m)
    }

    /// The global index of shard `s`'s local node `l`.
    #[inline]
    fn global(self, s: usize, l: usize) -> usize {
        s + l * self.m
    }

    /// How many of `n` nodes shard `s` holds.
    fn len(self, n: usize, s: usize) -> usize {
        (n + self.m - 1 - s) / self.m
    }
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
    let deal = Deal { m };
    // Fabric link-load slices exist only when there is something to record
    // them into; otherwise the whole path is a dead (compiled-out) branch.
    let n_links = match net.fabric() {
        Some(f) if R::ENABLED => f.n_links(),
        _ => 0,
    };
    let q = Quantum {
        start: SimTime::from_nanos(clock.q_start_nanos),
        end: SimTime::from_nanos(clock.q_end_nanos),
    };
    let mut ctxs: Vec<ShardCtx> = (0..m)
        .map(|s| ShardCtx::new(s, m, deal.len(n, s), q, R::ENABLED, n_links))
        .collect();
    let (total_packets, mut stragglers) = match resume {
        Some(s) => route_seed_frags(s, &net, |t, arrival, frag| {
            let (d, l) = deal.place(t);
            ctxs[d].inbox[d].push(ShardInFlight::new(l, frag, arrival));
        })?,
        None => (0, StragglerStats::default()),
    };
    let leader = LeaderState {
        clock,
        total_packets,
        inline_rounds: 0,
        overflow: false,
        rec: recorder,
        waits: vec![0; if R::ENABLED { n } else { 0 }],
        lags: vec![0; if R::ENABLED { n } else { 0 }],
        link_load: LinkLoad::new(n_links),
        shard_actives: Vec::with_capacity(m),
    };
    let start = Instant::now();
    let shared = SharedSharded {
        net,
        start,
        deal,
        n,
        shards: (0..m).map(|_| CachePadded::default()).collect(),
        restore_failed: AtomicBool::new(false),
        barrier: TreeBarrier::new(m, leader),
    };
    // Deal the programs out, a move of one handle each: shard 0's stay in
    // `programs` (program i is rank i's), so only the other shards' hands
    // are allocated. Every executor is built by the worker that runs it.
    let mut shards: Vec<Vec<Program>> = (0..m)
        .map(|s| Vec::with_capacity(if s == 0 { 0 } else { deal.len(n, s) }))
        .collect();
    let shard = |p: &Program| deal.place(p.rank().index()).0;
    for program in programs.extract_if(.., |p| shard(p) != 0) {
        shards[shard(&program)].push(program);
    }
    shards[0] = programs;
    let bodies = shards.into_iter().zip(ctxs).enumerate();
    let bodies = bodies.map(|(w, (shard, ctx))| {
        let shared = &shared;
        move || worker_thread(w, shard, ctx, resume, config, shared)
    });
    let joined = shared.barrier.run_participants(bodies.collect());
    let wall = start.elapsed();
    // A snapshot that fails to restore names its lowest bad node.
    let failed = joined.iter().filter_map(|r| r.as_ref().err());
    if let Some((_, e)) = failed.min_by_key(|(i, _)| *i) {
        return Err(e.clone());
    }
    let joined = joined.into_iter().flatten();
    // Shards are joined in shard order, so the straggler merge is
    // deterministic; the per-node results are dealt back into rank order.
    let (mut pool_heap_allocs, mut nodes_executed, mut nodes_stepped) = (0, 0, 0);
    let mut dealt = Vec::with_capacity(m);
    for out in joined {
        stragglers.merge(&out.stragglers);
        dealt.push(out.per_node.into_iter());
        pool_heap_allocs += out.heap_allocs;
        nodes_executed += out.nodes_executed;
        nodes_stepped += out.nodes_stepped;
    }
    let per_node: Vec<NodeResult> = (0..n)
        .map(|i| dealt[deal.place(i).0].next().expect("one result per node"))
        .collect();
    let leader = shared.barrier.into_state();
    let sim_end = finish_run(leader.overflow, EngineKind::Sharded, config, &per_node)?;
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
        nodes_stepped,
        inline_rounds: leader.inline_rounds,
    };
    Ok((result, leader.rec))
}

/// What a worker returns for its shard.
#[derive(Default)]
struct WorkerOutput {
    /// The shard's nodes' results, in local order.
    per_node: Vec<NodeResult>,
    /// The run-total straggler tally.
    stragglers: StragglerStats,
    /// The batches' heap-allocation count.
    heap_allocs: u64,
    /// Active node-quanta.
    nodes_executed: u64,
    /// Node steps.
    nodes_stepped: u64,
}

/// The shards the barrier leader holds, in shard order.
type Held<'a> = Vec<MutexGuard<'a, Option<Shard>>>;

/// Builds shard `w` (see [`ShardNodes::build`]) around its context, parks
/// it, runs its quantum in every pooled round, and takes it back when the
/// run stops.
/// `Err` is this shard's lowest node that failed to restore from `resume`,
/// with its global index.
fn worker_thread<R: Recorder>(
    w: usize,
    programs: Vec<Program>,
    ctx: ShardCtx,
    resume: Option<&SnapshotBody>,
    config: &ParallelConfig,
    shared: &SharedSharded<R>,
) -> Result<WorkerOutput, (usize, SimError)> {
    let built = ShardNodes::build(shared.deal, w, programs, resume, config.cpu);
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
    *shared.shards[w].lock().expect("shard poisoned") = Some(Shard::new(built?, ctx));
    // The locks this worker holds when it leads, kept between rounds so
    // that leading allocates nothing.
    let mut held = Held::with_capacity(shared.shards.len());
    let Shard {
        mut nodes, mut ctx, ..
    } = loop {
        let mut slot = shared.shards[w].lock().expect("shard poisoned");
        let shard = parked(&mut slot);
        if shard.ctx.round.stop {
            break slot.take().expect("the shard was parked");
        }
        run_quantum(shared, config, shard);
        drop(slot);
        meet(shared, config, w, &mut held);
    };
    ctx.fold_stragglers();
    // The stop leaves the last round's quantum in place.
    let q_end = ctx.round.q.end;
    // A parked node's `sim` may lag the last quantum edge (fast-forwarding
    // is lazy); the full sweep would have dragged it to the edge.
    let mut results = Vec::with_capacity(nodes.nodes.len());
    results.extend(
        (nodes.nodes.iter_mut())
            .map(|node| NodeResult::collect(&mut node.exec, node.sim.max(q_end))),
    );
    Ok(WorkerOutput {
        per_node: results,
        stragglers: ctx.run_stragglers,
        heap_allocs: ctx.heap_allocs,
        nodes_executed: ctx.nodes_executed,
        nodes_stepped: ctx.nodes_stepped,
    })
}

/// One quantum of one shard, whoever runs it: [`take`], then [`execute`].
/// A worker runs it for its own shard in a pooled round, the leader for
/// every shard in an inline round.
#[inline(always)]
fn run_quantum<R: Recorder>(shared: &SharedSharded<R>, config: &ParallelConfig, shard: &mut Shard) {
    let Shard { nodes, wheel, ctx } = shard;
    take(config, nodes, wheel, ctx);
    execute(shared, config, nodes, wheel, ctx);
}

/// The start of a shard's quantum: closes the last round's counts and
/// delivers what the previous round routed to the shard — its own batch,
/// and what the leader swapped into its inbox. Effective timestamps were
/// fixed at route time, so delivery order is irrelevant (matching is
/// timestamp-based).
#[inline(always)]
fn take(
    config: &ParallelConfig,
    nodes: &mut ShardNodes,
    wheel: &mut WakeWheel,
    ctx: &mut ShardCtx,
) {
    let full_sweep = config.full_sweep;
    let q_end_ns = ctx.round.q.end.as_nanos();
    ctx.round.packets = 0;
    ctx.fold_stragglers();
    let own = std::iter::once(&mut ctx.out[ctx.s]);
    for batch in own.chain(&mut ctx.inbox) {
        if !batch.is_empty() {
            deliver(batch, nodes, wheel, full_sweep, q_end_ns);
        }
    }
}

/// The rest of a shard's quantum, after its [`take`]: promote its due
/// sleepers, execute its active set to the edge, and leave the round's
/// node count in the shard's context for the leader.
///
/// The active-set scheduler (the default) executes only nodes with a
/// scheduled wake inside the quantum, and counts the nodes asleep inside an
/// op as executed without touching them (see the [module docs](self)); a
/// quantum where the whole shard is parked touches no node memory at all.
/// With [`ParallelConfig::full_sweep`] every node executes every quantum —
/// the legacy behavior, kept as the differential baseline the active set
/// must match bit for bit.
///
/// The shard comes as three borrows, not one `&mut Shard`: as separate
/// parameters the compiler knows that stepping a node cannot touch the wake
/// wheel, and keeps the scan's state in registers across the steps. It is
/// inlined into its callers: called out of line, one worker's `burst_1k`
/// run measured 2–6 % slower (EXPERIMENTS.md § "Sharded round budget").
#[inline(always)]
fn execute<R: Recorder>(
    shared: &SharedSharded<R>,
    config: &ParallelConfig,
    nodes: &mut ShardNodes,
    wheel: &mut WakeWheel,
    ctx: &mut ShardCtx,
) {
    let q = ctx.round.q;
    let full_sweep = config.full_sweep;
    let q_end_ns = q.end.as_nanos();
    // A node parked mid-op with this much of its op left sleeps until the
    // op ends (see the module docs).
    let sleep_min = (q_end_ns - q.start.as_nanos()).saturating_mul(2);
    let len = nodes.nodes.len();
    let mut active = 0u64;
    if full_sweep {
        for l in 0..len {
            let ran = advance_node(nodes, l, shared, config, ctx, q);
            if R::ENABLED {
                ctx.lags[l] = ran.lag_ns;
            }
        }
        active = len as u64;
        ctx.nodes_stepped += active;
    } else {
        // Promote sleepers whose scheduled wake falls strictly inside this
        // quantum (a wake at exactly `q_end` is the next quantum's first
        // instant), in one drain. Every due entry arms its node: a stale
        // entry — the node already woke earlier and re-slept — arms a
        // side-effect-free re-poll, identical under every shard count.
        wheel.promote(q_end_ns);
        // Nodes asleep inside an op as the quantum opens: each counts as
        // executed in this quantum, once, whether or not it is stepped.
        let asleep = wheel.asleep;
        let mut woken = 0;
        // Execute the active set in ascending local order (bit order = rank
        // order within the shard, matching the full sweep).
        for wi in 0..wheel.ready_words.len() {
            let mut word = wheel.ready_words[wi];
            if word == 0 {
                // Nearly every word of a sparse shard, every quantum: read
                // it, write nothing.
                continue;
            }
            wheel.ready_words[wi] = 0;
            while word != 0 {
                let l = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let ran = advance_node(nodes, l, shared, config, ctx, q);
                woken += u64::from(wheel.wake_busy(l));
                if ran.wake == q_end_ns && ran.pending_ns >= sleep_min {
                    // Mid-op past the next quantum edge: sleep until the op
                    // ends. A shorter remainder is stepped on: its sleep
                    // would only trade the next step for a queue push.
                    wheel.sleep_busy(l, q_end_ns.saturating_add(ran.pending_ns));
                } else if ran.wake == q_end_ns {
                    // Runs again next quantum — the common case for a node
                    // mid-compute. An entry `(q_end, l)` would be drained by
                    // the next promote whatever the next edge is, so arm the
                    // bit now and spare the queue a push and a drain per
                    // active node per quantum. The stored word was cleared
                    // before its bits were walked, so the next quantum's
                    // scan is the first to see it.
                    wheel.arm_now(l);
                } else if ran.wake != u64::MAX {
                    wheel.queue.push(ran.wake, l as u32);
                }
                if R::ENABLED {
                    ctx.lags[l] = ran.lag_ns;
                }
                active += 1;
            }
        }
        ctx.nodes_stepped += active;
        active += asleep - woken;
    }
    ctx.round.executed = active;
    ctx.nodes_executed += active;
}

/// Batches of two or more copies the schedule-fuzz hook shuffled, so a test
/// can show the hook reaches the take path.
#[cfg(all(test, feature = "schedule-fuzz"))]
static SHUFFLED_BATCHES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

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
        let l = f.dst as usize;
        nodes.nodes[l]
            .exec
            .deliver_fragment(f.meta, f.frag_index, f.arrival);
        if full_sweep {
            continue;
        }
        // Re-arm the receiver in O(1): a delivery inside this quantum sets
        // its ready bit directly, a future delivery schedules a poll
        // through the queue. Strictly: an event at exactly `q_end` belongs
        // to the *next* quantum (execution covers `[q_start, q_end)`). The
        // push is unconditional, like every wake-wheel entry: guarding it
        // on the node's current wake would drop the entry exactly when the
        // receiver is about to execute and re-park.
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
/// routing every fragment it sends right away, and counts the program's end
/// into the shard's done count the first time it is seen.
#[inline]
fn advance_node<R: Recorder>(
    nodes: &mut ShardNodes,
    l: usize,
    shared: &SharedSharded<R>,
    config: &ParallelConfig,
    ctx: &mut ShardCtx,
    q: Quantum,
) -> Stepped {
    let src = nodes.deal.global(nodes.s, l);
    let work = config.host_work_per_op;
    let ran = step_node(
        &mut nodes.nodes[l],
        (q.start, q.end),
        shared.net.nic(),
        work,
        |frag| shared.route(ctx, src, &frag, q.end),
    );
    if ran.finished {
        let (word, bit) = (&mut nodes.done_reported[l >> 6], 1 << (l & 63));
        if *word & bit == 0 {
            *word |= bit;
            ctx.round.done += 1;
        }
    }
    ran
}

/// Meets the tree barrier, where the last to arrive [`lead`]s, holding the
/// shards in `held`.
fn meet<'a, R: Recorder>(
    shared: &'a SharedSharded<R>,
    config: &ParallelConfig,
    w: usize,
    held: &mut Held<'a>,
) {
    if R::ENABLED {
        let now_ns = shared.start.elapsed().as_nanos() as u64;
        shared.barrier.arrive_timed(w, now_ns, |leader, ts| {
            lead(shared, config, leader, held, Some(ts))
        });
    } else {
        shared
            .barrier
            .arrive(w, |leader| lead(shared, config, leader, held, None));
    }
}

/// The barrier leader's turn: lock every shard, close the round with
/// [`leader_step`], then run every next round too small to share inline —
/// each shard in turn, with the pool still parked — until one is worth
/// sharing or the run stops.
fn lead<'a, R: Recorder>(
    shared: &'a SharedSharded<R>,
    config: &ParallelConfig,
    leader: &mut LeaderState<R>,
    held: &mut Held<'a>,
    mut ts: Option<ArrivalTimes<'_>>,
) {
    held.extend(
        shared
            .shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned")),
    );
    while let Some(executed) = leader_step(shared, leader, held, ts.take()) {
        // Simulated history only: the same choice at every M, on every host
        // and under every schedule.
        if config.host_work_per_op > 0.0 || executed >= SHARE_MIN_NODES {
            break;
        }
        leader.inline_rounds += 1;
        for slot in held.iter_mut() {
            run_quantum(shared, config, parked(slot));
        }
    }
    held.clear();
}

/// The root leader's quantum-boundary work, on the held shards: read their
/// counts, record the observability sample, hand the batches over, then
/// advance the policy and write the next quantum, or the stop, into every
/// shard. `ts` holds the workers' barrier arrival stamps of a pooled round
/// (recording only; an inline round has none). Returns the nodes the round
/// executed, or `None` when the run stops.
fn leader_step<R: Recorder>(
    shared: &SharedSharded<R>,
    leader: &mut LeaderState<R>,
    held: &mut Held<'_>,
    ts: Option<ArrivalTimes<'_>>,
) -> Option<u64> {
    let (mut np, mut executed, mut done) = (0, 0, 0);
    for slot in held.iter_mut() {
        let round = &parked(slot).ctx.round;
        np += round.packets;
        executed += round.executed;
        done += round.done;
    }
    if R::ENABLED {
        record(shared, leader, held, ts, np, executed);
    }
    hand_off(held);
    leader.total_packets += np;
    let all_done = done as usize == shared.n;
    #[allow(unused_mut)]
    let mut policy_np = np;
    #[cfg(feature = "fault-inject")]
    if crate::fault::armed(crate::fault::Fault::LeaderNpSkip) {
        // Armable bug: the policy's view forgets shard 0's packets; the
        // recorded trace keeps the true np.
        policy_np -= parked(&mut held[0]).ctx.round.packets;
    }
    let next = match leader.clock.advance(all_done, policy_np) {
        Advance::Next => Some(Quantum {
            start: SimTime::from_nanos(leader.clock.q_start_nanos),
            end: SimTime::from_nanos(leader.clock.q_end_nanos),
        }),
        Advance::Stop => None,
        Advance::CapExceeded => {
            leader.overflow = true;
            None
        }
    };
    for slot in held.iter_mut() {
        let round = &mut parked(slot).ctx.round;
        match next {
            Some(q) => round.q = q,
            None => round.stop = true,
        }
    }
    next.map(|_| executed)
}

/// Hands every batch a shard routed to a peer over: swaps it with the
/// peer's inbox slot for the sender, which the peer's last take emptied, so
/// the sender gets that buffer back. A shard that routed nothing is passed
/// over on its round line alone, and a pair with no traffic without
/// touching the receiver: a quiet round moves no batch line between cores.
fn hand_off(held: &mut Held<'_>) {
    let m = held.len();
    for s in 0..m {
        if parked(&mut held[s]).ctx.round.packets == 0 {
            continue;
        }
        for d in (0..m).filter(|&d| d != s) {
            if parked(&mut held[s]).ctx.out[d].is_empty() {
                continue;
            }
            let [from, to] = held.get_disjoint_mut([s, d]).expect("s ≠ d, both < m");
            let inbox = &mut parked(to).ctx.inbox[s];
            debug_assert!(inbox.is_empty(), "shard {d} did not take from {s}");
            std::mem::swap(&mut parked(from).ctx.out[d], inbox);
        }
    }
}

/// Records the closing round's observability sample: per-node barrier
/// waits and idle tails (every node in a shard shares its worker's
/// barrier wait, so the flight recorder's per-node layout holds for any
/// M), the round's stragglers, each shard's executions and, on a fabric,
/// the links the round's copies crossed. Re-arms each shard's lag lane and
/// link load for the next round.
fn record<R: Recorder>(
    shared: &SharedSharded<R>,
    leader: &mut LeaderState<R>,
    held: &mut Held<'_>,
    ts: Option<ArrivalTimes<'_>>,
    np: u64,
    executed: u64,
) {
    // An inline round ends now, and no node's thread waited for another's.
    let latest = match &ts {
        Some(ts) => (0..ts.len()).map(|k| ts.get(k)).max().unwrap_or(0),
        None => shared.start.elapsed().as_nanos() as u64,
    };
    let q_len_nanos = leader.clock.q_end_nanos - leader.clock.q_start_nanos;
    leader.shard_actives.clear();
    leader.link_load.clear();
    let (mut s_count, mut s_max) = (0, SimDuration::ZERO);
    for (s, slot) in held.iter_mut().enumerate() {
        let Shard { ctx, wheel, nodes } = parked(slot);
        let arrived = ts.as_ref().map_or(latest, |ts| ts.get(s));
        for (l, lag) in ctx.lags.iter_mut().enumerate() {
            let i = nodes.deal.global(s, l);
            leader.waits[i] = latest.saturating_sub(arrived);
            // A node the active set skipped (lag still `u64::MAX`) idled
            // through the whole quantum — its lag is the full quantum
            // length, exactly what the full sweep computes when it re-polls
            // a parked node — unless it slept inside an op, busy to the
            // edge like the step the full sweep takes.
            let lag = match std::mem::replace(lag, u64::MAX) {
                u64::MAX if wheel.is_busy(l) => 0,
                u64::MAX => q_len_nanos,
                lag => lag,
            };
            leader.lags[i] = lag;
        }
        s_count += ctx.stragglers.count();
        s_max = s_max.max(ctx.stragglers.max_delay());
        leader.shard_actives.push(ctx.round.executed);
        if !leader.link_load.is_empty() {
            // Commutative sums: the merged totals are independent of M and
            // of routing order.
            leader.link_load.merge(&ctx.links);
            ctx.links.clear();
        }
    }
    leader.rec.record_quantum(&QuantumObs {
        index: leader.clock.quanta,
        start: SimTime::from_nanos(leader.clock.q_start_nanos),
        len: SimDuration::from_nanos(q_len_nanos),
        // The last worker's arrival stamp is when the barrier completed.
        host_ns: latest,
        packets: np,
        active_nodes: executed,
        stragglers: s_count,
        max_straggler_delay: s_max,
        barrier_wait_ns: &leader.waits,
        vt_lag_ns: &leader.lags,
    });
    leader.rec.record_shard_activity(&leader.shard_actives);
    if !leader.link_load.is_empty() {
        leader
            .rec
            .record_link_load(leader.link_load.bytes(), leader.link_load.packets());
    }
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

    /// The paper-default CPU model, no busy-work, and a quantum cap near
    /// what these tests need (the longest run, `adaptive_policy_reduces_quanta`'s
    /// ground truth, takes 1 542 quanta): a copy the hand-off loses strands
    /// its receivers, and the run fails at the cap in milliseconds.
    fn cfg(sync: SyncConfig) -> ParallelConfig {
        ParallelConfig {
            sync,
            cpu: aqs_node::CpuModel::default(),
            host_work_per_op: 0.0,
            max_quanta: 4_000,
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

    /// `config` with a token host work per op, so that every round wakes
    /// the pool: the twin that keeps a test of the hand-off across threads
    /// pooled when its rounds are too small to share.
    fn pooled(config: ParallelConfig) -> ParallelConfig {
        ParallelConfig {
            host_work_per_op: 1e-3,
            ..config
        }
    }

    /// Asserts that a run on a [`pooled`] configuration ran no round inline.
    fn assert_stayed_pooled(config: &ParallelConfig, r: &ShardedRunResult, ctx: &str) {
        if config.host_work_per_op > 0.0 {
            assert_eq!(r.inline_rounds, 0, "{ctx}: the pooled twin ran inline");
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
    fn dealt_partition_covers_every_node_once_in_rank_order() {
        for n in [2usize, 5, 7, 64, 65] {
            for m in 1..=n.min(9) {
                let deal = Deal { m };
                let lens: Vec<usize> = (0..m).map(|s| deal.len(n, s)).collect();
                assert_eq!(lens.iter().sum::<usize>(), n, "n={n} m={m}");
                assert!(lens.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
                // Walking the shards' locals in rank order visits every node
                // once, and `place` inverts `global`.
                let mut seen = vec![false; n];
                for (s, &len) in lens.iter().enumerate() {
                    for l in 0..len {
                        let i = deal.global(s, l);
                        assert!(!seen[i], "node {i} dealt twice");
                        seen[i] = true;
                        assert_eq!(deal.place(i), (s, l));
                    }
                }
                assert!(seen.iter().all(|&x| x));
            }
        }
        // The results come back in rank order: each node reports its own
        // rank, at every worker count.
        let programs = burst(7, 50_000, 1024).programs;
        for m in 1..=7 {
            let r = run_sharded(programs.clone(), &cfg(SyncConfig::ground_truth()), Some(m));
            let ranks: Vec<usize> = r.per_node.iter().map(|p| p.rank.index()).collect();
            assert_eq!(ranks, (0..7).collect::<Vec<_>>(), "workers={m}");
        }
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

    /// A receiver busy through a long op while its peers' messages land:
    /// rank 0 computes for 200 µs, then takes one message from every other
    /// rank and answers each; rank r sends after 10·r µs of its own
    /// compute, so every delivery reaches rank 0 inside its op.
    fn busy_receiver(n: usize) -> Vec<Program> {
        let mut hub = ProgramBuilder::new(Rank::new(0)).compute(520_000);
        for r in 1..n as u32 {
            hub = hub.recv(Some(Rank::new(r)), Tag::new(0));
        }
        for r in 1..n as u32 {
            hub = hub.send(Rank::new(r), 64, Tag::new(1));
        }
        let mut programs = vec![hub.build()];
        for r in 1..n as u32 {
            programs.push(
                ProgramBuilder::new(Rank::new(r))
                    .compute(26_000 * u64::from(r))
                    .send(Rank::new(0), 1024, Tag::new(0))
                    .recv(Some(Rank::new(0)), Tag::new(1))
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
        // full-sweep path's, for every worker count. Where a case pins
        // `nodes_executed`, the pin is the count of the scheduler that
        // stepped every node inside an op in every quantum: a node asleep
        // inside its op counts exactly as that step did, and the run
        // must have slept.
        let cases: Vec<(Vec<Program>, SyncConfig, Option<u64>)> = vec![
            (mostly_idle(16), SyncConfig::ground_truth(), None),
            (mostly_idle(16), SyncConfig::paper_dyn1(), None),
            (
                ping_pong(4, 25, 4096).programs,
                SyncConfig::fixed_micros(1000),
                None,
            ),
            (
                burst(5, 50_000, 1024).programs,
                SyncConfig::paper_dyn2(),
                None,
            ),
            // Deliveries wake rank 0 inside its op and it sleeps again,
            // under a fixed quantum and under quanta that grow while it
            // sleeps.
            (
                busy_receiver(6),
                SyncConfig::fixed_micros(5),
                Some(BUSY_FIXED_EXECUTED),
            ),
            (
                busy_receiver(6),
                SyncConfig::paper_dyn1(),
                Some(BUSY_DYN1_EXECUTED),
            ),
        ];
        for (programs, sync, pinned) in cases {
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
                assert!(r.nodes_stepped <= r.nodes_executed, "workers={m}");
                if let Some(executed) = pinned {
                    assert_eq!(r.nodes_executed, executed, "{sync:?} workers={m}");
                    assert!(
                        r.nodes_stepped < r.nodes_executed,
                        "{sync:?} workers={m}: no node slept inside its op"
                    );
                }
            }
        }
        // A run resumed at a cut inside rank 0's op: the restored node
        // sleeps from its first quantum on.
        let base = Sim::new(busy_receiver(6))
            .engine(crate::sim::EngineKind::Sharded)
            .sync(SyncConfig::fixed_micros(5));
        let snap = base.snapshot_at(10).expect("capturable cut");
        assert!(
            snap.body.nodes[0].pending.is_some(),
            "the cut is not mid-op"
        );
        let resume = |sim: Sim| {
            let report = sim.resume(&snap).expect("resumes");
            report
                .detail
                .as_sharded()
                .expect("the sharded engine ran")
                .clone()
        };
        let full = observed(&resume(base.clone().shards(2).force_full_sweep(true)));
        for m in 1..=4 {
            let r = resume(base.clone().shards(m));
            let got = observed(&r);
            assert_eq!(
                (&got.0, &got.1, &got.2),
                (&full.0, &full.1, &full.2),
                "m={m}"
            );
            assert_eq!(
                r.nodes_executed, BUSY_RESUMED_EXECUTED,
                "resumed, workers={m}"
            );
            assert!(r.nodes_stepped < r.nodes_executed, "resumed, workers={m}");
        }
    }

    /// `nodes_executed` of [`busy_receiver`]`(6)` under `fixed_micros(5)`,
    /// under `paper_dyn1`, and resumed at the fixed run's quantum 10, as the
    /// scheduler that stepped every busy node every quantum counted them.
    const BUSY_FIXED_EXECUTED: u64 = 83;
    const BUSY_DYN1_EXECUTED: u64 = 255;
    const BUSY_RESUMED_EXECUTED: u64 = 43;

    #[test]
    fn a_busy_sleepers_recorded_lanes_match_the_full_sweeps() {
        use aqs_obs::ObsConfig;
        // Every quantum rank 0 sleeps through inside its op is recorded as
        // the full sweep's step records it: lag 0. Every other lag is the
        // full sweep's too, a node busy for any part of a quantum is among
        // the quantum's active nodes, and the active nodes per quantum are
        // those of the scheduler that stepped every busy node every quantum
        // (pinned: all six while the peers compute, one fewer as each peer
        // sends and blocks, rank 0 alone to the end of its op, then the
        // five answers).
        let pinned: Vec<u64> = [(6, 10), (5, 9), (4, 9), (3, 9), (2, 9), (1, 59), (5, 2)]
            .iter()
            .flat_map(|&(active, quanta)| std::iter::repeat_n(active, quanta))
            .collect();
        let sim = Sim::new(busy_receiver(6))
            .engine(crate::sim::EngineKind::Sharded)
            .sync(SyncConfig::paper_dyn1())
            .record(ObsConfig::new().with_ring_capacity(4096));
        let run = |sim: Sim| {
            let report = sim.run();
            let r = report
                .detail
                .as_sharded()
                .expect("the sharded engine ran")
                .clone();
            (r, report.obs.expect("recorder attached"))
        };
        let (full, swept) = run(sim.clone().shards(2).force_full_sweep(true));
        for m in 1..=3 {
            let (r, fr) = run(sim.clone().shards(m));
            assert!(r.nodes_stepped < r.nodes_executed, "workers={m}");
            assert_eq!(
                fr.ring_len() as u64,
                full.total_quanta,
                "the ring holds every quantum"
            );
            let active: Vec<u64> = fr.samples().map(|q| q.active_nodes).collect();
            assert_eq!(active, pinned, "workers={m}");
            for (a, b) in fr.samples().zip(swept.samples()) {
                let ctx = format!("workers={m}, quantum {}", a.index);
                assert_eq!((a.index, a.len), (b.index, b.len), "{ctx}");
                assert_eq!(a.vt_lag_ns, b.vt_lag_ns, "{ctx}");
                let busy = b.vt_lag_ns.iter().filter(|&&lag| lag < b.len.as_nanos());
                assert!(a.active_nodes >= busy.count() as u64, "{ctx}");
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
        assert_eq!(full.nodes_stepped, full.nodes_executed);
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
        // allocation beyond the short run's warm-up (4 when pinned: one
        // growth for each of the two buffers a direction circulates). Two
        // nodes never make a round worth sharing, so the plain run
        // circulates the buffers inline and the pooled twin between two
        // threads.
        let plain = cfg(SyncConfig::ground_truth());
        for config in [pooled(plain.clone()), plain] {
            let run = |rounds| {
                let spec = ping_pong(2, rounds, 64);
                let r = run_sharded(spec.programs, &config, Some(2));
                assert_stayed_pooled(&config, &r, &format!("{rounds} rounds"));
                r
            };
            let short = run(10);
            let long = run(200);
            assert_eq!(long.total_packets, 400);
            assert_eq!(long.pool_heap_allocs, short.pool_heap_allocs);
            assert!(long.pool_heap_allocs < long.total_packets / 10);
        }
        // The same through the fat-tree fabric, transit math included: a
        // ring exchange over 128 racks crosses every uplink plane in both
        // directions. The first round already meets the busiest quantum
        // (24 allocations after one, two or eight rounds when pinned), so
        // 4× the rounds add nothing; a per-packet regression would add
        // thousands.
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
        // The steps taken: the rest of those node-quanta were slept through
        // inside an op (each backend's 19 µs compute spans four quanta).
        assert_eq!(short.nodes_stepped, 12_755);
        // ...and the active set must be active: a silent fall-back to full
        // sweeps would survive a re-pinned count, not this bound.
        let swept = 1024 * short.total_quanta;
        assert!(
            short.nodes_executed < swept / 4,
            "{} of {swept} sweep slots executed",
            short.nodes_executed
        );
        // Warm-up is the doublings of each batch buffer up to the largest
        // batch a quantum needs (22 when pinned, so 2× headroom); a
        // per-packet regression overshoots by orders of magnitude.
        assert!(
            short.pool_heap_allocs <= 44,
            "batch warm-up footprint regressed: {} allocations",
            short.pool_heap_allocs
        );
        // The hand-off happens at the barrier, so which buffer lands where
        // is simulated history too: a second identical run counts the same.
        let again = run(4);
        assert_eq!(again.pool_heap_allocs, short.pool_heap_allocs);
        // Incast is directional, but the leader hands a receiver's emptied
        // buffer back to the sender instead of freeing it, so the senders
        // stay off the heap: 3× the waves re-route the same shape and
        // allocate nothing more (22 on both sides when pinned).
        let long = run(12);
        assert!(long.total_packets > short.total_packets);
        assert_eq!(
            long.pool_heap_allocs,
            short.pool_heap_allocs,
            "steady-state incast routing allocates over +{} packets",
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
        let plain = cfg(SyncConfig::ground_truth());
        for config in [pooled(plain.clone()), plain] {
            for m in 1..=5 {
                let r = run_sharded(spec.programs.clone(), &config, Some(m));
                assert_eq!(r.sim_end, det.sim_end, "workers={m}");
                assert_eq!(r.total_packets, det.total_packets, "workers={m}");
                assert_eq!(r.stragglers.count(), 0, "workers={m}");
                for (a, b) in r.per_node.iter().zip(det.per_node.iter()) {
                    assert_eq!(a.finish_sim, b.finish_sim, "workers={m}");
                    assert_eq!(a.messages_received, b.messages_received, "workers={m}");
                    assert_eq!(a.ops, b.ops, "workers={m}");
                }
                assert_stayed_pooled(&config, &r, &format!("workers={m}"));
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
        let plain = cfg(SyncConfig::fixed_micros(1000));
        for config in [pooled(plain.clone()), plain] {
            for m in 2..=4 {
                let r = run_sharded(spec.programs.clone(), &config, Some(m));
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
                assert_stayed_pooled(&config, &r, &format!("workers={m}"));
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
        let plain = cfg(SyncConfig::fixed_micros(1000));
        let run = |config: &ParallelConfig, m| {
            run_sharded_on(spec.programs.clone(), config, &small_fabric(), Some(m))
        };
        let reference = run(&plain, 1);
        assert!(reference.stragglers.count() > 0, "workload must straggle");
        for config in [pooled(plain.clone()), plain] {
            for m in 2..=6 {
                let r = run(&config, m);
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
                assert_stayed_pooled(&config, &r, &format!("workers={m}"));
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
        let plain = cfg(SyncConfig::fixed_micros(50));
        let reference = observed(&run_sharded(spec.programs.clone(), &plain, Some(1)));
        assert!(reference.1 .0 > 0, "workload must straggle");
        for config in [pooled(plain.clone()), plain] {
            for m in 2..=4 {
                let r = run_sharded(spec.programs.clone(), &config, Some(m));
                assert_eq!(observed(&r), reference, "workers={m}");
                assert_stayed_pooled(&config, &r, &format!("workers={m}"));
            }
        }
    }

    #[test]
    fn every_hand_off_slot_carries_traffic_at_every_worker_count() {
        // An all-to-all routes a batch from every shard to every other in
        // the burst quantum, so the leader swaps every sender→receiver pair,
        // up to one worker per node (M = 16: all 240 off-diagonal swaps at
        // once). Under the adaptive policy, the safe quantum and a quantum
        // far above it (every copy a straggler), every M must match M = 1
        // and the full sweep. Sixteen nodes never make a round worth
        // sharing, so the pooled twin runs the shards between the swaps on
        // their own threads and the plain run inline.
        let programs = burst(16, 50_000, 1024).programs;
        for (sync, straggles) in [
            (SyncConfig::paper_dyn2(), false),
            (SyncConfig::ground_truth(), false),
            (SyncConfig::fixed_micros(1000), true),
        ] {
            let run = |config: &ParallelConfig, m| {
                let r = run_sharded(programs.clone(), config, Some(m));
                assert_stayed_pooled(config, &r, &format!("{sync:?} workers={m}"));
                observed(&r)
            };
            let one = run(&cfg(sync.clone()), 1);
            assert_eq!(one.1 .0 > 0, straggles, "{sync:?}");
            assert_eq!(
                run(&full_sweep(sync.clone()), 1),
                one,
                "{sync:?} full sweep"
            );
            for config in [pooled(cfg(sync.clone())), cfg(sync.clone())] {
                for m in [2, 3, 4, 8, 16] {
                    assert_eq!(run(&config, m), one, "{sync:?} workers={m}");
                }
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

    #[test]
    fn inline_and_pooled_rounds_agree_bit_for_bit() {
        // At host work 0 a round after one that executed fewer than
        // `SHARE_MIN_NODES` nodes runs inline; 1e-3 pools every round.
        // Either way the run is the same run, and which rounds ran inline is
        // decided by simulated history only, so every M runs the same ones
        // inline and circulates the same batch buffers.
        let cases = [
            (
                "8-node all-to-all, unsafe",
                burst(8, 50_000, 1024).programs,
                SyncConfig::fixed_micros(1000),
            ),
            (
                "8-node ping-pong, dyn2",
                ping_pong(8, 25, 4096).programs,
                SyncConfig::paper_dyn2(),
            ),
            (
                "64-node incast, safe",
                aqs_workloads::rpc_incast(64, 4, 3, 8, 2_048, 16_384, 20_000, 7).programs,
                SyncConfig::ground_truth(),
            ),
            (
                "64-node hub and sleepers, dyn1",
                mostly_idle(64),
                SyncConfig::paper_dyn1(),
            ),
        ];
        for (name, programs, sync) in &cases {
            let run = |host_work_per_op, m| {
                let config = ParallelConfig {
                    host_work_per_op,
                    ..cfg(sync.clone())
                };
                run_sharded(programs.clone(), &config, Some(m))
            };
            let reference = run(0.0, 1);
            let inline = reference.inline_rounds;
            // Rounds after the first that were pooled.
            let pooled = reference.total_quanta - 1 - inline;
            if programs.len() == 8 {
                // Eight nodes never make a round worth sharing.
                assert_eq!(pooled, 0, "{name}");
            } else {
                // Sixty-four nodes do now and then, not in most rounds.
                assert!(pooled > 0 && inline > pooled, "{name}: {inline} inline");
            }
            for m in 1..=4 {
                let runs = [0.0, 1e-3].map(|host_work| {
                    let r = run(host_work, m);
                    let ctx = format!("{name}, host work {host_work}, M={m}");
                    assert_eq!(observed(&r), observed(&reference), "{ctx}");
                    let expected = if host_work > 0.0 { 0 } else { inline };
                    assert_eq!(r.inline_rounds, expected, "{ctx}");
                    r
                });
                // Batches change hands at the barrier either way, so the
                // buffers circulate alike: the same warm-up at a given M.
                assert_eq!(
                    runs[0].pool_heap_allocs, runs[1].pool_heap_allocs,
                    "{name}, M={m}"
                );
            }
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
        // An M = 2 all-to-all: the burst quantum hands each shard a batch
        // of its own copies and one of its peer's.
        // The pooled twin jitters every round's barrier arrivals too.
        let programs = burst(8, 50_000, 1024).programs;
        let inline = cfg(SyncConfig::ground_truth());
        for config in [pooled(inline.clone()), inline] {
            let plain = observed(&run_sharded(programs.clone(), &config, Some(2)));
            let before = SHUFFLED_BATCHES.load(Ordering::Relaxed);
            aqs_sync::fuzz::arm(0x5EED);
            let fuzzed = run_sharded(programs.clone(), &config, Some(2));
            aqs_sync::fuzz::disarm();
            assert!(
                SHUFFLED_BATCHES.load(Ordering::Relaxed) > before,
                "no batch of two or more copies was shuffled"
            );
            assert_stayed_pooled(&config, &fuzzed, "fuzzed");
            assert_eq!(observed(&fuzzed), plain);
        }
    }

    #[test]
    fn the_round_shares_the_parked_shards_first_cache_line() {
        // The leader locks a shard and reads and writes its round every
        // round: both must sit on the slot's first line (the slot is
        // line-aligned, and the lock word precedes the data).
        let programs = vec![ProgramBuilder::new(Rank::new(0)).compute(10).build()];
        let deal = Deal { m: 1 };
        let nodes = ShardNodes::build(deal, 0, programs, None, aqs_node::CpuModel::default());
        let ctx = ShardCtx::new(0, 1, 1, Quantum::default(), false, 0);
        let slot: CachePadded<Mutex<Option<Shard>>> = CachePadded::default();
        let mut guard = slot.lock().expect("fresh lock");
        let nodes = nodes.unwrap_or_else(|(_, e)| panic!("{e}"));
        *guard = Some(Shard::new(nodes, ctx));
        let start = &*slot as *const Mutex<Option<Shard>> as usize;
        let round = &parked(&mut guard).ctx.round as *const Round as usize;
        assert_eq!(start % 64, 0);
        assert!(round - start + std::mem::size_of::<Round>() <= 64);
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
