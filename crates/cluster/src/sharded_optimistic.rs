//! Optimistic execution rebuilt on the sharded substrate (§5 direction):
//! N node simulators over M worker shards, one window-start checkpoint per
//! node, bounded cascade rollback, and the adaptive conservative/optimistic
//! hybrid policy.
//!
//! # Shape
//!
//! Windows are quanta: the same [`aqs_core::QuantumPolicy`] that drives the
//! conservative engines picks each window's length from the routed-packet
//! signal, and the [`TreeBarrier`] leader advances it exactly like the
//! sharded engine's leader. Within a window the engine runs a
//! *leader-centralized fixed point*:
//!
//! 1. **Execute** — the leader has left a *run list* for the round (every
//!    node at a window's round 0, the dirty nodes of dirty shards on a
//!    repeat), ordered longest-first by the op count of each node's
//!    previous execution. Whoever claims a node through the list's one
//!    atomic cursor restores/advances it to the window edge, delivering the
//!    inbound fragment set the leader handed it and capturing every send
//!    into the node's slot. All M workers drain the list only when the round
//!    has host work to share; otherwise the leader drains it alone (see
//!    "Who runs a node").
//! 2. **Reduce** — the barrier leader (inside the barrier's exclusive
//!    section) re-routes *all* current-window sends through the run's
//!    [`Router`] and rebuilds each node's canonical sorted inbound set.
//!    Rebuilding from the full send set is an implicit anti-message:
//!    fragments from rolled-back executions vanish because they are simply
//!    not in the rebuilt set.
//! 3. **Commit or roll back** — the leader sets every shard's local virtual
//!    time — the window edge, or a dirty shard's earliest violated arrival —
//!    and takes the minimum as GVT. `GVT ≥ window_end` commits the window;
//!    otherwise only the dirty shards restore from their window-start
//!    checkpoint and re-execute.
//!
//! # Bounded cascade, degrade-to-conservative
//!
//! A shard may re-execute a window at most `cascade_bound` times. At the
//! bound the shard *freezes* instead of unwinding further: late fragments
//! are snapped to the window boundary exactly like the conservative
//! engine's straggler rule (recorded as stragglers), and the shard runs the
//! next window conservatively. Rollback is therefore confined to the
//! offending shard — neighbors never unwind past their own bound, and a
//! runaway cascade degenerates into the conservative engine's semantics
//! rather than diverging.
//!
//! # The hybrid policy
//!
//! [`HybridPolicy`] makes the degrade/recover loop adaptive per shard:
//! a shard that re-executes `degrade_after`+ times in one window (its
//! rollback waste signal) switches to conservative execution; a
//! conservative shard that sees `recover_after` consecutive windows with no
//! boundary-snapped stragglers (its straggler-rate signal) switches back.
//! Conservative shards also skip checkpoint cloning, but the hybrid's
//! wall-clock win is the re-executed node work it avoids, not the clones
//! (EXPERIMENTS.md, "`rollback_mixed` round budget": ≈ 1 ms of clones
//! against 263 ms less node execution on the chatty shard).
//!
//! # Who runs a node
//!
//! Any worker. A node lives in a slot (`NodeSlot`) behind a `Mutex` that is
//! always taken uncontended: a claim hands the node to exactly one worker
//! per round, and the leader touches slots only inside the barrier's
//! exclusive section. A node's execution is a pure function of its state
//! and inbound set and the reduce walks nodes in rank order, so who claims
//! what, and in which order, cannot change a result. A *shard* is only what
//! the algorithm needs it to be — the unit of dirty detection, re-execution
//! count, cascade bound, freeze and hybrid mode — and a rollback that hits
//! one shard is still work for the whole pool.
//!
//! The pool is woken only for host work. Once a round closes, the leader
//! weighs the next one, still inside the barrier's exclusive section:
//! `W = host_work_per_op × Σ last_ops` over its run list, the op count of
//! each node's previous execution. If `W` is zero, or the list holds one
//! node, the leader drains the list itself through the same cursor, closes
//! that round too, and keeps going until a round has work to share or the
//! run stops; only then are the other workers released. Zero is the one
//! bound that needs no host constant: a round of bookkeeping alone never
//! pays for a barrier and M cache-line hand-offs, at any M (a pool of two
//! took two to three times as long as one on the 8-node scenario,
//! EXPERIMENTS.md "Rollback-pool round budget"). `last_ops` is simulated history, so which
//! rounds run alone — [`ShardedOptimisticRunResult::inline_rounds`] — is the
//! same on every host and under every schedule. The first round of a run is
//! always pooled: the workers start before any leader step.
//!
//! # Bit-identity under `Q ≤ T`
//!
//! When every window length is at most the minimum network latency, any
//! fragment sent inside a window arrives at or after the window edge
//! (`arrival ≥ departure + T > window_start + Q = window_end`). Rebuilt
//! inbound sets then never differ from the delivered ones: zero rollbacks,
//! zero snaps, every delivery at its exact arrival — the committed timeline
//! is bit-identical to the deterministic engine for every worker count and
//! for both the pure and hybrid engines.
//!
//! # What a run reports
//!
//! The [`ShardedOptimisticRunResult`] holds whole-run totals only — windows,
//! checkpoints, rollbacks, wasted simulated time, the deepest cascade,
//! degraded and conservative shard-windows, restore rounds, rounds the
//! leader ran alone — and the per-node outcomes. The trajectory goes to the
//! run's [`Recorder`], once per committed window: `record_quantum` (start,
//! length, packets, stragglers, node executions) and then
//! `record_shard_rollbacks` (each shard's checkpoints, rollbacks and wasted
//! time). A shard's checkpoint lane is zero exactly in the windows it ran
//! conservatively, so the lanes also show every mode switch.

use crate::pool::{
    finish_run, route_seed_frags, start_run, step_node, Advance, Lanes, ParallelConfig,
    QuantumClock, Stepped,
};
use crate::result::NodeResult;
use crate::sharded::partition;
use crate::sim::{EngineKind, SimError};
use crate::snapshot::{FragSnap, SnapshotBody};
use aqs_net::{NicModel, Router, StragglerStats};
use aqs_node::{MessageMeta, NodeExecutor, Program};
use aqs_obs::{QuantumObs, Recorder};
use aqs_sync::TreeBarrier;
use aqs_time::{HostDuration, SimDuration, SimTime};
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Control word: a window opened; its round 0 checkpoints and runs nodes.
const CTRL_OPEN: u8 = 0;
/// Control word: repeat the current window (dirty shards re-execute).
const CTRL_REPEAT: u8 = 1;
/// Control word: stop the run.
const CTRL_STOP: u8 = 2;

/// Per-shard adaptive mode switching between conservative quantum sync and
/// optimistic checkpoint/rollback — the paper's adaptive idea applied to
/// the *mechanism* instead of only the quantum length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridPolicy {
    /// A shard that re-executes a window this many times (or hits the
    /// cascade bound) switches to conservative execution.
    pub degrade_after: u32,
    /// A conservative shard that sees this many consecutive windows with
    /// zero boundary-snapped stragglers switches back to optimistic.
    pub recover_after: u32,
}

impl Default for HybridPolicy {
    fn default() -> Self {
        Self {
            degrade_after: 2,
            recover_after: 2,
        }
    }
}

/// Engine-level knobs shared by the pure and hybrid variants.
#[derive(Clone, Debug)]
pub(crate) struct ShardedOptimisticOpts {
    /// Maximum re-executions of one window per shard before it freezes and
    /// degrades to conservative execution for the next window.
    pub(crate) cascade_bound: u32,
    /// `Some` turns on per-shard adaptive mode switching (the hybrid
    /// engine); `None` is the pure optimistic engine, which only degrades
    /// a shard for the single window after a cascade-bound hit.
    pub(crate) hybrid: Option<HybridPolicy>,
}

/// Outcome of a sharded-optimistic (or hybrid) run: its totals. The
/// per-window trajectory is reported to the run's [`Recorder`] (see the
/// [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct ShardedOptimisticRunResult {
    /// Real wall-clock the run took.
    pub wall: Duration,
    /// Simulated completion time (max across nodes).
    pub sim_end: SimTime,
    /// Committed windows.
    pub windows: u64,
    /// Packets routed (counted at commit, once per fan-out copy — the same
    /// route-time count the conservative engines report).
    pub total_packets: u64,
    /// Node-state checkpoints taken (conservative-mode shards skip them).
    pub checkpoints: u64,
    /// Node re-executions (each restores one node from its shard's
    /// window-start checkpoint and replays the window).
    pub rollbacks: u64,
    /// Re-executed simulated time: one window length per rollback.
    pub wasted_sim: SimDuration,
    /// Deepest per-shard cascade observed in any single window.
    pub max_rollback_depth: u32,
    /// Shard-windows that hit the cascade bound and froze (snapping late
    /// fragments instead of unwinding further).
    pub degraded_windows: u64,
    /// Shard-windows executed in conservative mode.
    pub conservative_windows: u64,
    /// Boundary-snapped stragglers (late fragments deferred to the window
    /// edge of a frozen or conservative shard).
    pub stragglers: StragglerStats,
    /// Serial restore rounds: over the committed windows, the sum of
    /// `⌈node re-executions / n⌉` (nodes restore in parallel).
    pub restore_rounds: u64,
    /// Rounds the barrier leader ran alone because they had no host work to
    /// share (see the [module docs](self)): a function of simulated history
    /// and the run's host work per op, never of the schedule.
    pub inline_rounds: u64,
    /// Per-node outcomes, in rank order.
    pub per_node: Vec<NodeResult>,
    /// Worker (= shard) count the run actually used.
    pub workers: usize,
}

impl ShardedOptimisticRunResult {
    /// What this run would cost on a full-system simulator whose node
    /// checkpoints and restores are not free — the paper's §3 argument as
    /// arithmetic on the run's counters.
    ///
    /// Nodes checkpoint in parallel at every window start (`checkpoint`
    /// once per window) and restore in parallel when they roll back: a
    /// window that re-executed `k` node-windows needed at least `⌈k / n⌉`
    /// serial restore rounds (`rollback` each), summed in
    /// [`restore_rounds`](Self::restore_rounds). `execution` is the host
    /// time of actually simulating the workload — the deterministic
    /// engine's modelled time at the same window length.
    pub fn modelled_host_time(
        &self,
        checkpoint: HostDuration,
        rollback: HostDuration,
        execution: HostDuration,
    ) -> HostDuration {
        checkpoint * self.windows + rollback * self.restore_rounds + execution
    }
}

/// One fragment known to be heading to a node. The derived order — arrival,
/// then message identity, then fragment — is the canonical order of an
/// inbound set: what the leader compares and what a node is delivered in.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Inbound {
    arrival: SimTime,
    meta: MessageMeta,
    frag_index: u32,
}

/// Persistent per-node execution state — exactly what a checkpoint clones.
struct OptNodeState {
    exec: NodeExecutor,
    sim: SimTime,
    /// Remainder (ns) of an op that did not fit in the previous window.
    pending_ns: u64,
    msg_seq: u64,
}

/// `clone_from` reuses the target executor's buffers: every window refreshes
/// a checkpoint, and every rollback restores from one.
impl Clone for OptNodeState {
    fn clone(&self) -> Self {
        Self {
            exec: self.exec.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.exec.clone_from(&source.exec);
        self.sim = source.sim;
        self.pending_ns = source.pending_ns;
        self.msg_seq = source.msg_seq;
    }
}

/// One node, as its claimant and the barrier leader exchange it: locked by
/// the claimant for one execution and by the leader inside the barrier's
/// exclusive section, while all workers are parked — always uncontended.
struct NodeSlot {
    state: OptNodeState,
    /// The node at the start of its latest optimistic window. One is enough:
    /// a window commits before the next opens, so a rollback only ever
    /// returns to the start of the window in progress.
    checkpoint: Option<OptNodeState>,
    #[cfg(feature = "fault-inject")]
    skip_next_refresh: bool,
    /// Mode of the node's shard this window (the leader rewrites it when the
    /// shard switches). Conservative nodes skip the checkpoint clone.
    conservative: bool,
    /// Leader → claimant: the full inbound set to deliver before executing.
    inbound: Vec<Inbound>,
    /// Claimant → leader: the latest claim executed the node; the active-set
    /// skip clears it and leaves the two fields below untouched.
    executed: bool,
    /// Fragments the latest execution sent, captured before routing
    /// (`departure` already includes the serialization delay): the router is
    /// a pure function, so the leader can re-route the full send set every
    /// round with bit-identical results.
    sends: Vec<FragSnap>,
    /// What the latest execution reported. Its `wake` gates the active-set
    /// skip (a wake at the edge of the window last run is below every later
    /// edge; it starts at 0, so the first window runs everyone), its `ops`
    /// are the run list's sort key.
    ran: Stepped,
}

/// Shared state across worker threads.
struct SharedOpt<R> {
    /// The run's one routing core; only the leader routes through it.
    net: Router,
    opts: ShardedOptimisticOpts,
    ranges: Vec<Range<usize>>,
    slots: Vec<Mutex<NodeSlot>>,
    /// The nodes to execute this round, longest-first. The leader rewrites
    /// it inside the barrier's exclusive section; workers only read it.
    run: RwLock<Vec<u32>>,
    /// Next unclaimed position of `run`. Relaxed: it only hands out indices;
    /// the barrier publishes the list, each slot's mutex the node behind it.
    cursor: AtomicUsize,
    /// Next action: [`CTRL_OPEN`], [`CTRL_REPEAT`] or [`CTRL_STOP`].
    /// Written by the leader inside the barrier's exclusive section, ordered
    /// for workers by the epoch handshake, like `window`.
    control: AtomicU8,
    /// Start and end of the window in progress, in sim ns. Published with
    /// every round: a worker may have slept through the one that opened it.
    window: [AtomicU64; 2],
    /// Deadlock/divergence guard, checked after the join.
    overflow: AtomicBool,
    /// When the workers were started: the origin of `wall` and of a recorded
    /// window's `host_ns`.
    start: Instant,
    barrier: TreeBarrier<OptLeader<R>>,
}

/// The barrier leader's state: all cross-shard bookkeeping lives here and
/// is only ever touched inside the barrier's exclusive section.
struct OptLeader<R> {
    /// The window in progress; its `quanta` are the committed windows.
    clock: QuantumClock,
    rec: R,
    /// The run's counters, accumulated in place; `wall`,
    /// `sim_end`, `windows` and `per_node` are filled in after the join.
    out: ShardedOptimisticRunResult,
    /// Per global node: round-0 inbound set of the current window (carried
    /// fragments landing inside it). Fixed for the window's duration.
    base: Vec<Vec<Inbound>>,
    /// Per global node: the inbound set its latest execution delivered.
    used: Vec<Vec<Inbound>>,
    /// Per global node: sends of its latest execution this window.
    sends: Vec<Vec<FragSnap>>,
    /// Per global node: fragments committed in earlier windows that have
    /// not yet been delivered (arrival at or past the current window end).
    carried: Vec<Vec<Inbound>>,
    done: Vec<bool>,
    /// Per global node: op count of its latest execution.
    last_ops: Vec<u64>,
    // Reduce scratch, rebuilt in place every round:
    /// Per global node: canonical inbound set (base ∪ in-window arrivals).
    new_sets: Vec<Vec<Inbound>>,
    /// Per global node: arrivals at or past the window edge.
    future: Vec<Vec<Inbound>>,
    /// Nodes of dirty shards whose rebuilt set differs from the delivered
    /// one, and each dirty shard's span of that list.
    changed: Vec<usize>,
    dirty: Vec<(usize, Range<usize>)>,
    /// Snap path: one node's delivered set as sorted `(key, arrival)`.
    used_at: Vec<((u32, u64, u32), u64)>,
    /// Per shard: local virtual time this round.
    lvts: Vec<u64>,
    // Per-shard, current window:
    reexecs: Vec<u32>,
    frozen: Vec<bool>,
    conservative: Vec<bool>,
    /// Hybrid: consecutive conservative windows free of snapped stragglers.
    clean_streak: Vec<u32>,
    /// Boundary snaps into each shard during the current window's commit.
    snaps_in: Vec<u64>,
    shard_ckpt: Vec<u64>,
    shard_rb: Vec<u64>,
    shard_waste: Vec<u64>,
    /// Node executions per shard this window; only kept when recording.
    shard_actives: Vec<u64>,
    window_reexec_nodes: u64,
    repeat_rounds: u64,
}

/// Earliest arrival involved in the first divergence between two sorted
/// inbound sets — the shard's local virtual time when it must roll back.
fn divergence_nanos(a: &[Inbound], b: &[Inbound]) -> u64 {
    let i = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let at = |set: &[Inbound]| set.get(i).map_or(u64::MAX, |e| e.arrival.as_nanos());
    at(a).min(at(b))
}

/// Orders a run list longest-first: descending op count of each node's
/// previous execution, ties (never-executed nodes, count 0, among them — so
/// they come last) by rank. The count is simulated history: the order is the
/// same on every host and reads no clock.
fn order_longest_first(run: &mut [u32], last_ops: &[u64]) {
    run.sort_unstable_by_key(|&g| (Reverse(last_ops[g as usize]), g));
}

/// Sharded-optimistic engine entry point with an explicit [`Recorder`];
/// the unified `Sim` builder dispatches here. `workers` of `None` uses the
/// host's available parallelism; the count is clamped to `[1, n]`.
///
/// With `resume`, the run starts at the snapshot's cut instead of time
/// zero: restored node states seed the first checkpoint, the cut's
/// in-flight fragments become the first window's base inbound sets (or
/// carried fragments, if they land past its edge), and the run counters
/// continue from their captured values.
///
/// # Panics
///
/// As [`start_run`]. A window-cap overflow (deadlock guard) is a typed
/// [`SimError::QuantumCapExceeded`], not a panic.
pub(crate) fn run_sharded_optimistic_impl<R: Recorder>(
    programs: Vec<Program>,
    config: &ParallelConfig,
    net: Router,
    workers: Option<usize>,
    opts: ShardedOptimisticOpts,
    recorder: R,
    resume: Option<&SnapshotBody>,
) -> Result<(ShardedOptimisticRunResult, R), SimError> {
    let (m, clock) = start_run(&programs, config, workers, resume)?;
    let n = programs.len();
    let ranges = partition(n, m);
    let (q_start0, q_end0) = (clock.q_start_nanos, clock.q_end_nanos);
    let engine = if opts.hybrid.is_some() {
        EngineKind::Hybrid
    } else {
        EngineKind::ShardedOptimistic
    };
    let mut leader = OptLeader {
        clock,
        rec: recorder,
        out: ShardedOptimisticRunResult {
            workers: m,
            ..Default::default()
        },
        base: vec![Vec::new(); n],
        used: vec![Vec::new(); n],
        sends: vec![Vec::new(); n],
        carried: vec![Vec::new(); n],
        done: resume.map_or_else(
            || vec![false; n],
            |s| s.nodes.iter().map(|x| x.done).collect(),
        ),
        last_ops: vec![0; n],
        new_sets: vec![Vec::new(); n],
        future: vec![Vec::new(); n],
        changed: Vec::new(),
        dirty: Vec::new(),
        used_at: Vec::new(),
        lvts: Vec::with_capacity(m),
        reexecs: vec![0; m],
        frozen: vec![false; m],
        conservative: vec![false; m],
        clean_streak: vec![0; m],
        snaps_in: vec![0; m],
        shard_ckpt: vec![0; m],
        shard_rb: vec![0; m],
        shard_waste: vec![0; m],
        shard_actives: vec![0; m],
        window_reexec_nodes: 0,
        repeat_rounds: 0,
    };
    if let Some(s) = resume {
        (leader.out.total_packets, leader.out.stragglers) =
            route_seed_frags(s, &net, |t, arrival, frag| {
                leader.carried[t].push(Inbound {
                    arrival,
                    meta: frag.meta,
                    frag_index: frag.frag_index,
                });
            })?;
    }
    // The first window opens like every later one (all shards optimistic):
    // injected arrivals inside it are the round-0 inbound sets, the rest
    // stay carried.
    leader.charge_checkpoints(&ranges);
    let mut slots = Vec::with_capacity(n);
    for (i, program) in programs.into_iter().enumerate() {
        let state = match resume {
            Some(s) => OptNodeState {
                exec: s.restore_exec(i, program, config.cpu)?,
                sim: s.q_start,
                pending_ns: s.nodes[i].pending.map_or(0, |(d, _)| d.as_nanos()),
                msg_seq: s.nodes[i].msg_seq,
            },
            None => OptNodeState {
                exec: NodeExecutor::new(program, config.cpu),
                sim: SimTime::ZERO,
                pending_ns: 0,
                msg_seq: 0,
            },
        };
        leader.open_node(i, q_end0);
        slots.push(Mutex::new(NodeSlot {
            state,
            checkpoint: None,
            #[cfg(feature = "fault-inject")]
            skip_next_refresh: false,
            conservative: false,
            inbound: leader.used[i].clone(),
            executed: false,
            sends: Vec::new(),
            ran: Stepped::default(),
        }));
    }
    let shared = SharedOpt {
        net,
        opts,
        ranges,
        slots,
        // Nothing has executed yet: the first round runs in rank order.
        run: RwLock::new((0..n as u32).collect()),
        cursor: AtomicUsize::new(0),
        control: AtomicU8::new(CTRL_OPEN),
        window: [q_start0, q_end0].map(AtomicU64::new),
        overflow: AtomicBool::new(false),
        start: Instant::now(),
        barrier: TreeBarrier::new(m, leader),
    };
    let bodies = (0..m).map(|w| {
        let shared = &shared;
        move || worker_thread(w, config, shared)
    });
    shared.barrier.run_participants(bodies.collect());
    let leader = shared.barrier.into_state();
    let mut result = leader.out;
    result.wall = shared.start.elapsed();
    result.windows = leader.clock.quanta;
    result.per_node = shared
        .slots
        .into_iter()
        .map(|slot| {
            let mut s = slot.into_inner().expect("node slot poisoned").state;
            NodeResult::collect(&mut s.exec, s.sim)
        })
        .collect();
    let overflowed = shared.overflow.load(Ordering::Acquire);
    result.sim_end = finish_run(overflowed, engine, config, &result.per_node)?;
    Ok((result, leader.rec))
}

/// One of the pool's M workers: drains each round it is woken for, then
/// meets the others at the barrier, where the last to arrive [`lead`]s.
fn worker_thread<R: Recorder>(w: usize, config: &ParallelConfig, shared: &SharedOpt<R>) {
    while drain_round(config, shared) {
        shared
            .barrier
            .arrive(w, |leader| lead(config, shared, leader));
    }
}

/// Claims and runs nodes off the open round's run list until none is left;
/// `false`, with nothing claimed, once the leader has stopped the run.
fn drain_round<R>(config: &ParallelConfig, shared: &SharedOpt<R>) -> bool {
    let ctrl = shared.control.load(Ordering::Relaxed);
    if ctrl == CTRL_STOP {
        return false;
    }
    let repeat = ctrl == CTRL_REPEAT;
    let [start, end] = shared
        .window
        .each_ref()
        .map(|w| SimTime::from_nanos(w.load(Ordering::Relaxed)));
    let run = shared.run.read().expect("run list poisoned");
    let claim = || {
        // Claim order must not matter; the fuzz tier perturbs it.
        #[cfg(feature = "schedule-fuzz")]
        aqs_sync::fuzz::jitter();
        run.get(shared.cursor.fetch_add(1, Ordering::Relaxed))
    };
    while let Some(&g) = claim() {
        let mut slot = shared.slots[g as usize].lock().expect("node slot poisoned");
        run_claimed(&mut slot, repeat, start..end, config, shared.net.nic());
    }
    true
}

/// The barrier leader's turn: close the round with [`leader_step`], then
/// keep every next round that has no host work to share — draining it alone,
/// with the pool still parked — until one has, or the run stops.
fn lead<R: Recorder>(config: &ParallelConfig, shared: &SharedOpt<R>, leader: &mut OptLeader<R>) {
    loop {
        leader_step(shared, leader);
        if shared.control.load(Ordering::Relaxed) == CTRL_STOP {
            return;
        }
        {
            // W = host_work_per_op × Σ last_ops over the run list; read off
            // simulated history, so the choice is the same on every host, at
            // every M and under every schedule.
            let run = shared.run.read().expect("run list poisoned");
            let work = config.host_work_per_op > 0.0
                && run.iter().any(|&g| leader.last_ops[g as usize] > 0);
            if work && run.len() > 1 {
                return;
            }
        }
        leader.out.inline_rounds += 1;
        drain_round(config, shared);
    }
}

/// What a claim obliges its worker to do with the node: checkpoint it at a
/// window's round 0, restore it on a repeat, and run it to the window edge.
fn run_claimed(
    slot: &mut NodeSlot,
    repeat: bool,
    window: Range<SimTime>,
    config: &ParallelConfig,
    nic: &NicModel,
) {
    if repeat {
        let checkpoint = slot
            .checkpoint
            .as_ref()
            .expect("only checkpointed nodes roll back");
        slot.state.clone_from(checkpoint);
        slot.executed = true;
    } else {
        if !slot.conservative {
            // Copy-on-advance: snapshot the node at the window start;
            // conservative shards never roll back and skip the clone. The
            // clone is deliberately eager (it precedes the active-set skip
            // below): the checkpoint accounting and the restore path both
            // assume an optimistic window snapshots every node of the shard.
            #[allow(unused_mut)]
            let mut refresh = true;
            #[cfg(feature = "fault-inject")]
            if crate::fault::armed(crate::fault::Fault::StaleCheckpointRestore) {
                // Armable bug: every other window keeps the previous
                // window's checkpoint, so a rollback there jumps the node
                // back one extra window.
                refresh = !slot.skip_next_refresh;
                slot.skip_next_refresh = refresh;
            }
            if refresh {
                // In place once the first checkpoint exists: the refresh
                // reuses its mailbox table and vectors.
                match &mut slot.checkpoint {
                    Some(c) => c.clone_from(&slot.state),
                    None => slot.checkpoint = Some(slot.state.clone()),
                }
            }
        }
        // Active-set skip: a node whose own next wake lies at or beyond the
        // window edge (an event at exactly the edge is the next window's
        // first instant), with nothing inbound, can only poll — it sends
        // nothing and its done flag keeps its value, which is what the
        // leader assumes of an unexecuted node. Repeat rounds never skip: a
        // dirty node's rebuilt inbound set may legitimately be empty.
        slot.executed =
            config.full_sweep || !slot.inbound.is_empty() || slot.ran.wake < window.end.as_nanos();
        if !slot.executed {
            return;
        }
    }
    for f in slot.inbound.drain(..) {
        let exec = &mut slot.state.exec;
        exec.deliver_fragment(f.meta, f.frag_index, f.arrival);
    }
    // The shared step, capturing sends for the leader to route instead of
    // routing them in place. It first fast-forwards a node that slept
    // through earlier windows — or was just restored from a checkpoint
    // cloned while it slept — to this window's start.
    let NodeSlot { state, sends, .. } = slot;
    sends.clear();
    let lanes = Lanes {
        exec: &mut state.exec,
        sim: &mut state.sim,
        msg_seq: &mut state.msg_seq,
        pending_ns: &mut state.pending_ns,
    };
    let work = config.host_work_per_op;
    slot.ran = step_node(lanes, (window.start, window.end), nic, work, |frag| {
        sends.push(frag)
    });
}

fn inbound_key(e: &Inbound) -> (u32, u64, u32) {
    (e.meta.id.src.as_u32(), e.meta.id.seq, e.frag_index)
}

impl<R: Recorder> OptLeader<R> {
    /// Opens a window ending at `edge` for node `i`: its carried fragments
    /// landing inside become the sorted round-0 inbound set (`base` and
    /// `used`), the rest stay carried.
    fn open_node(&mut self, i: usize, edge: u64) {
        let inside = &mut self.used[i];
        inside.clear();
        self.carried[i].retain(|e| {
            let lands = e.arrival.as_nanos() < edge;
            if lands {
                inside.push(e.clone());
            }
            !lands
        });
        inside.sort();
        self.base[i].clone_from(inside);
    }

    /// Charges the opening window's checkpoints: one per node of every
    /// optimistic shard, cloned by whoever claims the node at round 0.
    fn charge_checkpoints(&mut self, ranges: &[Range<usize>]) {
        for (s, range) in ranges.iter().enumerate() {
            if !self.conservative[s] {
                self.shard_ckpt[s] = range.len() as u64;
                self.out.checkpoints += range.len() as u64;
            }
        }
    }
}

/// The barrier leader's round: pull results, rebuild canonical inbound
/// sets, then either schedule rollbacks (GVT below the window edge) or
/// commit the window and open the next one.
fn leader_step<R: Recorder>(shared: &SharedOpt<R>, leader: &mut OptLeader<R>) {
    let n = shared.slots.len();
    let m = shared.ranges.len();
    let window_end = leader.clock.q_end_nanos;
    let mut run = shared.run.write().expect("run list poisoned");
    // 1. Pull sends and done flags of every node that ran this round. A
    // node the active-set skip left alone sent nothing and keeps its flag.
    for &g in run.iter() {
        let g = g as usize;
        let mut slot = shared.slots[g].lock().expect("node slot poisoned");
        if !slot.executed {
            leader.sends[g].clear();
            continue;
        }
        std::mem::swap(&mut leader.sends[g], &mut slot.sends);
        leader.done[g] = slot.ran.finished;
        leader.last_ops[g] = slot.ran.ops;
        if R::ENABLED {
            // Charged to the node's shard, whoever claimed it.
            leader.shard_actives[shared.ranges.partition_point(|r| r.end <= g)] += 1;
        }
    }
    // 2. Re-route every current-window send and rebuild the canonical
    // sorted inbound sets (base ∪ in-window arrivals) — what this engine
    // does with an arrival; fragments landing at or past the edge go to the
    // future list for the commit path.
    for i in 0..n {
        leader.new_sets[i].clone_from(&leader.base[i]);
        leader.future[i].clear();
    }
    let mut routed: u64 = 0;
    let net = &shared.net;
    for src in 0..n {
        for f in &leader.sends[src] {
            net.fan_out(src, f.dst, f.bytes, f.departure, |t, arrival| {
                routed += 1;
                let set = if arrival.as_nanos() < window_end {
                    &mut leader.new_sets[t]
                } else {
                    &mut leader.future[t]
                };
                set.push(Inbound {
                    arrival,
                    meta: f.meta,
                    frag_index: f.frag_index,
                });
            });
        }
    }
    for set in &mut leader.new_sets {
        set.sort();
    }
    // 3. Dirty detection: only optimistic, unfrozen shards unwind. A shard
    // at the cascade bound freezes — its late fragments will be snapped to
    // the boundary at commit instead of unwinding neighbors further.
    leader.changed.clear();
    leader.dirty.clear();
    for (s, range) in shared.ranges.iter().enumerate() {
        if leader.conservative[s] || leader.frozen[s] {
            continue;
        }
        let from = leader.changed.len();
        for i in range.clone() {
            if leader.new_sets[i] != leader.used[i] {
                leader.changed.push(i);
            }
        }
        if leader.changed.len() == from {
            continue;
        }
        if leader.reexecs[s] >= shared.opts.cascade_bound {
            leader.frozen[s] = true;
            leader.changed.truncate(from);
        } else {
            leader.dirty.push((s, from..leader.changed.len()));
        }
    }
    // 4. GVT: a shard whose nodes all ran to the edge has LVT = window_end,
    // a dirty shard its earliest violated arrival. The window commits only
    // once the minimum reaches its edge.
    leader.lvts.clear();
    leader.lvts.resize(m, window_end);
    for (s, span) in &leader.dirty {
        let lvt = leader.changed[span.clone()]
            .iter()
            .map(|&i| divergence_nanos(&leader.new_sets[i], &leader.used[i]))
            .min()
            .unwrap_or(u64::MAX)
            .min(window_end);
        leader.lvts[*s] = lvt;
    }
    #[allow(unused_mut)]
    let mut gvt_val = leader
        .lvts
        .iter()
        .fold(window_end, |gvt, &lvt| gvt.min(lvt));
    #[cfg(feature = "fault-inject")]
    if crate::fault::armed(crate::fault::Fault::GvtFromOneShard) {
        // Armable bug: GVT from shard 0's LVT alone — windows commit while
        // another shard still holds a violation, silently dropping its
        // scheduled re-execution.
        gvt_val = leader.lvts[0];
    }
    if gvt_val >= window_end {
        commit_window(shared, leader, &mut run, routed);
        return;
    }
    // 5. Roll back: the changed nodes of the offending shards restore and
    // re-execute — they are the next round's whole run list.
    let window_len = SimDuration::from_nanos(window_end - leader.clock.q_start_nanos);
    run.clear();
    for (s, span) in &leader.dirty {
        leader.reexecs[*s] += 1;
        leader.out.max_rollback_depth = leader.out.max_rollback_depth.max(leader.reexecs[*s]);
        for &i in &leader.changed[span.clone()] {
            let mut slot = shared.slots[i].lock().expect("node slot poisoned");
            slot.inbound.clone_from(&leader.new_sets[i]);
            #[cfg(feature = "fault-inject")]
            if crate::fault::armed(crate::fault::Fault::RollbackMailboxSkip) {
                // Armable bug: re-deliver only the delta — the restored
                // node never re-receives its earlier deliveries.
                slot.inbound.retain(|e| !leader.used[i].contains(e));
            }
            std::mem::swap(&mut leader.used[i], &mut leader.new_sets[i]);
            run.push(i as u32);
            leader.out.rollbacks += 1;
            leader.out.wasted_sim += window_len;
            leader.shard_rb[*s] += 1;
            leader.shard_waste[*s] += window_len.as_nanos();
            leader.window_reexec_nodes += 1;
        }
    }
    order_longest_first(&mut run, &leader.last_ops);
    shared.cursor.store(0, Ordering::Relaxed);
    leader.repeat_rounds += 1;
    // Every repeat round raises some shard's `reexecs` and a shard stops at
    // the bound, so a window that outlasts this many rounds has diverged.
    // Saturating: `cascade_bound(u32::MAX)` asks for "never freeze".
    let guard = (m as u64)
        .saturating_mul(u64::from(shared.opts.cascade_bound) + 2)
        .saturating_add(8);
    if leader.repeat_rounds > guard {
        // A typed error, not a panic: flag and stop.
        shared.overflow.store(true, Ordering::Relaxed);
        shared.control.store(CTRL_STOP, Ordering::Relaxed);
    } else {
        shared.control.store(CTRL_REPEAT, Ordering::Relaxed);
    }
}

/// Commits the current window and opens the next one (or stops the run).
fn commit_window<R: Recorder>(
    shared: &SharedOpt<R>,
    leader: &mut OptLeader<R>,
    run: &mut Vec<u32>,
    routed: u64,
) {
    let n = shared.slots.len();
    let window_end = leader.clock.q_end_nanos;
    let window_len = window_end - leader.clock.q_start_nanos;
    let edge = SimTime::from_nanos(window_end);
    // Late fragments into conservative or frozen shards are snapped to the
    // window edge — the conservative engine's straggler rule. Fragments
    // whose arrival merely shifted earlier were already delivered at the
    // later time; they are recorded as stragglers but not re-delivered.
    let mut window_stragglers = StragglerStats::default();
    for (s, range) in shared.ranges.iter().enumerate() {
        if !(leader.conservative[s] || leader.frozen[s]) {
            continue;
        }
        for i in range.clone() {
            if leader.new_sets[i] == leader.used[i] {
                continue;
            }
            leader.used_at.clear();
            let delivered = leader.used[i].iter();
            leader
                .used_at
                .extend(delivered.map(|e| (inbound_key(e), e.arrival.as_nanos())));
            leader.used_at.sort_unstable();
            for e in &leader.new_sets[i] {
                let key = inbound_key(e);
                match leader.used_at.binary_search_by_key(&key, |&(k, _)| k) {
                    Err(_) => {
                        window_stragglers.record(edge - e.arrival);
                        leader.snaps_in[s] += 1;
                        leader.carried[i].push(Inbound {
                            arrival: edge,
                            ..e.clone()
                        });
                    }
                    Ok(at) if leader.used_at[at].1 != e.arrival.as_nanos() => {
                        let shift = leader.used_at[at].1.abs_diff(e.arrival.as_nanos());
                        window_stragglers.record(SimDuration::from_nanos(shift));
                        leader.snaps_in[s] += 1;
                    }
                    Ok(_) => {}
                }
            }
        }
    }
    for i in 0..n {
        leader.carried[i].append(&mut leader.future[i]);
    }
    leader.out.total_packets += routed;
    if R::ENABLED {
        leader.rec.record_quantum(&QuantumObs {
            index: leader.clock.quanta,
            start: SimTime::from_nanos(leader.clock.q_start_nanos),
            len: SimDuration::from_nanos(window_len),
            host_ns: shared.start.elapsed().as_nanos() as u64,
            packets: routed,
            // Node executions charged to this window, re-execution rounds
            // included — can exceed the node count under rollback.
            active_nodes: leader.shard_actives.iter().sum(),
            stragglers: window_stragglers.count(),
            max_straggler_delay: window_stragglers.max_delay(),
            // Empty on purpose: the recorder's per-node lanes assume a node
            // waits at the barrier with the worker that owns it, and here
            // no worker owns a node (ROADMAP item 3(b) owns the
            // replacement).
            barrier_wait_ns: &[],
            vt_lag_ns: &[],
        });
        leader.rec.record_shard_activity(&leader.shard_actives);
        leader.rec.record_shard_rollbacks(
            &leader.shard_ckpt,
            &leader.shard_rb,
            &leader.shard_waste,
        );
        leader.shard_actives.fill(0);
    }
    leader.out.stragglers.merge(&window_stragglers);
    leader.shard_ckpt.fill(0);
    leader.shard_rb.fill(0);
    leader.shard_waste.fill(0);
    let out = &mut leader.out;
    out.restore_rounds += leader.window_reexec_nodes.div_ceil(n as u64);
    // Mode transitions for the next window.
    for (s, range) in shared.ranges.iter().enumerate() {
        let was = leader.conservative[s];
        out.degraded_windows += u64::from(leader.frozen[s]);
        out.conservative_windows += u64::from(was);
        let next = match shared.opts.hybrid {
            Some(h) if !was => leader.frozen[s] || leader.reexecs[s] >= h.degrade_after,
            Some(h) => {
                // Back after `recover_after` consecutive snap-free windows.
                let clean = leader.snaps_in[s] == 0;
                let streak = if clean { leader.clean_streak[s] + 1 } else { 0 };
                let recover = clean && streak >= h.recover_after;
                leader.clean_streak[s] = if recover { 0 } else { streak };
                !recover
            }
            // Pure engine: one forced conservative window per bound hit
            // (only optimistic shards freeze), then straight back.
            None => leader.frozen[s],
        };
        if next != was {
            leader.conservative[s] = next;
            for i in range.clone() {
                #[cfg(feature = "fault-inject")]
                if crate::fault::armed(crate::fault::Fault::HybridSwitchDrop) {
                    // Armable bug: the mode switch drops the shard's carried
                    // in-flight fragments.
                    leader.carried[i].clear();
                }
                let mut slot = shared.slots[i].lock().expect("node slot poisoned");
                slot.conservative = next;
            }
        }
        leader.snaps_in[s] = 0;
        leader.reexecs[s] = 0;
        leader.frozen[s] = false;
    }
    leader.window_reexec_nodes = 0;
    leader.repeat_rounds = 0;
    // Open the next window: advance the policy on the routed-packet signal
    // (the same np the conservative engines feed it), hand every node its
    // round-0 inbound set — the carried fragments landing inside; a slot's
    // own set is empty by now, drained by its last execution — and put
    // every node on the run list.
    let all_done = leader.done.iter().all(|&d| d);
    match leader.clock.advance(all_done, routed) {
        Advance::Next => {}
        stop => {
            // A typed error, not a panic: flag and stop.
            let overflowed = matches!(stop, Advance::CapExceeded);
            shared.overflow.store(overflowed, Ordering::Relaxed);
            shared.control.store(CTRL_STOP, Ordering::Relaxed);
            return;
        }
    }
    for i in 0..n {
        leader.open_node(i, leader.clock.q_end_nanos);
        if !leader.used[i].is_empty() {
            let mut slot = shared.slots[i].lock().expect("node slot poisoned");
            slot.inbound.clone_from(&leader.used[i]);
        }
    }
    leader.charge_checkpoints(&shared.ranges);
    // A list no repeat round shrank still names every node: re-sort in place.
    if run.len() < n {
        run.clear();
        run.extend(0..n as u32);
    }
    order_longest_first(run, &leader.last_ops);
    shared.cursor.store(0, Ordering::Relaxed);
    let edges = [leader.clock.q_start_nanos, leader.clock.q_end_nanos];
    for (w, edge) in shared.window.iter().zip(edges) {
        w.store(edge, Ordering::Relaxed);
    }
    shared.control.store(CTRL_OPEN, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::sim::{EngineKind, Sim, SimSwitch};
    use aqs_core::SyncConfig;
    use aqs_net::LatencyMatrixSwitch;
    use aqs_node::{ProgramBuilder, Rank, Tag};
    use aqs_obs::ObsConfig;
    use aqs_workloads::{burst, ping_pong, MpiBuilder};

    fn ground_truth_report(programs: Vec<Program>) -> crate::sim::RunReport {
        Sim::new(programs)
            .config(ClusterConfig::new(SyncConfig::ground_truth()).with_seed(1))
            .run()
    }

    #[test]
    fn safe_quantum_matches_deterministic_for_every_worker_count_and_kind() {
        let spec = burst(5, 2_000, 1024);
        let det = ground_truth_report(spec.programs.clone());
        for m in 1..=5 {
            for kind in [EngineKind::ShardedOptimistic, EngineKind::Hybrid] {
                let r = Sim::new(spec.programs.clone())
                    .engine(kind)
                    .sync(SyncConfig::ground_truth())
                    .shards(m)
                    .run();
                assert_eq!(
                    r.simulated_outcome(),
                    det.simulated_outcome(),
                    "workers={m} kind={kind:?}"
                );
                let d = r.detail.as_sharded_optimistic().expect("opt detail");
                assert_eq!(d.rollbacks, 0, "Q ≤ T must be rollback-free");
                assert_eq!(d.degraded_windows, 0);
                // Every window checkpoints every node (all shards stay
                // optimistic when nothing ever rolls back).
                assert_eq!(d.checkpoints, 5 * d.windows, "workers={m}");
            }
        }
    }

    #[test]
    fn undegraded_run_reproduces_ground_truth_exactly_under_unsafe_quantum() {
        // With a generous cascade bound the fixed point always converges
        // without freezing a shard — and a run that never degraded and never
        // snapped a packet must land on the ground-truth timeline exactly,
        // rollbacks and all.
        let spec = ping_pong(4, 25, 4096);
        let det = ground_truth_report(spec.programs.clone());
        let r = Sim::new(spec.programs.clone())
            .engine(EngineKind::ShardedOptimistic)
            .sync(SyncConfig::fixed_micros(50))
            .cascade_bound(512)
            .shards(4)
            .run();
        let d = r.detail.as_sharded_optimistic().expect("opt detail");
        assert!(d.rollbacks > 0, "the unsafe quantum must force rollbacks");
        assert_eq!(d.degraded_windows, 0, "bound 512 must never freeze");
        assert_eq!(r.stragglers.count(), 0, "no shard ever snapped");
        assert_eq!(r.simulated_outcome(), det.simulated_outcome());
    }

    #[test]
    fn cascade_bound_degrades_the_shard_instead_of_unwinding_neighbors() {
        let spec = ping_pong(4, 25, 4096);
        let r = Sim::new(spec.programs.clone())
            .engine(EngineKind::ShardedOptimistic)
            .sync(SyncConfig::fixed_micros(1000))
            .shards(4)
            .run();
        let d = r.detail.as_sharded_optimistic().expect("opt detail");
        assert!(d.degraded_windows > 0, "deep chains must hit the bound");
        assert!(d.max_rollback_depth <= 8, "the default cascade bound is 8");
        assert!(
            d.conservative_windows > 0,
            "a bound hit forces a conservative window"
        );
        assert!(r.stragglers.count() > 0, "degraded windows snap packets");
        // Conservation: nothing is lost across freeze/degrade transitions
        // (ping_pong only engages ranks 0 and 1, 25 rounds each way).
        assert_eq!(r.messages_received, 50);
        // Every window is 1 ms long, so each re-execution wastes exactly 1 ms.
        assert_eq!(d.wasted_sim, SimDuration::from_millis(1) * d.rollbacks);
    }

    #[test]
    fn modelled_host_time_is_the_execution_term_plus_monotone_state_costs() {
        // The classic §3 configuration: one shard, fixed windows, a bound
        // the run never reaches.
        let spec = ping_pong(4, 25, 4096);
        let r = Sim::new(spec.programs)
            .engine(EngineKind::ShardedOptimistic)
            .sync(SyncConfig::fixed_micros(50))
            .cascade_bound(256)
            .shards(1)
            .run();
        let d = r.detail.as_sharded_optimistic().expect("opt detail");
        assert!(d.rollbacks > 0);
        let exec = HostDuration::from_millis(7);
        let bill = |c, r| {
            d.modelled_host_time(HostDuration::from_secs(c), HostDuration::from_secs(r), exec)
        };
        assert_eq!(bill(0, 0), exec, "free state costs only the execution");
        assert_eq!(bill(1, 0), exec + HostDuration::from_secs(1) * d.windows);
        assert!(bill(0, 0) < bill(1, 0) && bill(1, 0) < bill(30, 0));
        assert!(bill(0, 0) < bill(0, 1) && bill(0, 1) < bill(0, 30));
        // Restores are charged per serial round, never more than one per
        // node re-execution.
        assert!(bill(0, 1) <= exec + HostDuration::from_secs(1) * d.rollbacks);
    }

    #[test]
    fn hybrid_policy_switches_modes_and_replays_bit_identically() {
        let spec = ping_pong(4, 25, 4096);
        let run = || {
            Sim::new(spec.programs.clone())
                .engine(EngineKind::Hybrid)
                .sync(SyncConfig::fixed_micros(1000))
                .hybrid_policy(HybridPolicy {
                    degrade_after: 1,
                    recover_after: 2,
                })
                .shards(4)
                .record(ObsConfig::new())
                .run()
        };
        // The recorded trajectory without its wall-clock stamps.
        let windows = |r: &crate::sim::RunReport| {
            let fr = r.obs.as_ref().expect("recording was enabled");
            let st = fr.shard_rollback_stats().expect("rollback run");
            let lanes = [st.checkpoints, st.rollbacks, st.wasted_ns].map(<[u64]>::to_vec);
            let samples: Vec<_> = fr
                .samples()
                .map(|w| {
                    (
                        w.index,
                        w.start,
                        w.len,
                        w.packets,
                        w.stragglers,
                        w.active_nodes,
                    )
                })
                .collect();
            (samples, lanes)
        };
        let a = run();
        let da = a.detail.as_sharded_optimistic().expect("opt detail");
        assert!(
            da.conservative_windows > 0,
            "stragglers must force mode switches"
        );
        assert_eq!(a.messages_received, 50);
        // The whole adaptive trajectory is deterministic: a second run lands
        // on the same outcome and records the same windows and shard lanes.
        let b = run();
        let db = b.detail.as_sharded_optimistic().expect("opt detail");
        assert_eq!(a.simulated_outcome(), b.simulated_outcome());
        assert_eq!(windows(&a), windows(&b));
        assert_eq!(da.conservative_windows, db.conservative_windows);
    }

    #[test]
    fn flight_recorder_counters_match_the_result_and_never_perturb_it() {
        let spec = ping_pong(4, 25, 4096);
        let run = |record: bool| {
            let mut sim = Sim::new(spec.programs.clone())
                .engine(EngineKind::ShardedOptimistic)
                .sync(SyncConfig::fixed_micros(1000))
                .shards(4);
            if record {
                sim = sim.record(ObsConfig::new());
            }
            sim.run()
        };
        let plain = run(false);
        let rec = run(true);
        assert_eq!(plain.simulated_outcome(), rec.simulated_outcome());
        let d = rec.detail.as_sharded_optimistic().expect("opt detail");
        let fr = rec.obs.as_ref().expect("recording was enabled");
        assert_eq!(fr.total_quanta(), d.windows);
        assert_eq!(fr.total_packets(), d.total_packets);
        let shard = fr.shard_rollback_stats().expect("sharded optimistic run");
        assert_eq!(shard.total_rollbacks(), d.rollbacks);
        assert_eq!(shard.total_checkpoints(), d.checkpoints);
        assert_eq!(shard.total_wasted_ns(), d.wasted_sim.as_nanos());
    }

    #[test]
    fn run_list_order_is_longest_first_then_rank() {
        let last_ops = [0, 7, 150, 7, 0, 20, 150, 0];
        let mut run: Vec<u32> = (0..8).rev().collect();
        order_longest_first(&mut run, &last_ops);
        // A permutation, non-increasing in previous op count, ranks
        // ascending within ties, never-executed nodes (count 0) last.
        assert_eq!(run, [2, 6, 5, 1, 3, 0, 4, 7]);
        let mut subset = vec![4, 1, 3];
        order_longest_first(&mut subset, &last_ops);
        assert_eq!(subset, [1, 3, 4]);
    }

    #[test]
    fn rollback_mixed_counters_match_the_benchmark_pins() {
        // The `rollback_mixed` program of `perf/src/workloads.rs` with free
        // host work: the values `perf/golden.json` pins at M = 2, checked
        // here in milliseconds instead of first in the benchmark gate.
        let (n, chatty) = (64, 32);
        let mut b = MpiBuilder::new(n);
        for _ in 0..250 {
            (0..chatty).for_each(|r| b.compute(r, 20_000));
            for pair in (0..chatty).step_by(2) {
                b.p2p(pair, pair + 1, 512);
                b.p2p(pair + 1, pair, 512);
            }
        }
        for _ in 0..40 {
            (chatty..n).for_each(|r| b.compute(r, 150_000));
            for r in chatty..n {
                b.p2p(r, if r + 1 == n { chatty } else { r + 1 }, 4096);
            }
        }
        let programs = b.build();
        let run = |kind| {
            let policy = HybridPolicy {
                degrade_after: 1,
                recover_after: 4,
            };
            Sim::new(programs.clone())
                .engine(kind)
                .sync(SyncConfig::fixed_micros(200))
                .hybrid_policy(policy)
                .host_work_per_op(0.0)
                .shards(2)
                .run()
        };
        let (opt, hyb) = (run(EngineKind::ShardedOptimistic), run(EngineKind::Hybrid));
        let o = opt.detail.as_sharded_optimistic().expect("opt detail");
        let h = hyb.detail.as_sharded_optimistic().expect("opt detail");
        assert_eq!(
            (
                o.windows,
                o.checkpoints,
                o.rollbacks,
                o.wasted_sim,
                o.max_rollback_depth
            ),
            (257, 10_752, 7_424, SimDuration::from_micros(1_484_800), 8)
        );
        assert_eq!(
            (h.rollbacks, h.degraded_windows, h.conservative_windows),
            (136, 2, 1_767)
        );
        assert_eq!(opt.total_packets + hyb.total_packets, 18_560);
    }

    #[test]
    fn inline_and_pooled_rounds_agree_bit_for_bit() {
        // Host work 0 runs every round after the first on the leader alone;
        // 1e-3 pools each round whose run list holds a node with ops. Either
        // way the run is the same run, and which rounds ran alone is decided
        // by simulated history only: in these cases every M runs the same
        // rounds, so every M runs the same ones alone.
        let pp = ping_pong(4, 25, 4096).programs;
        let cases = [
            (
                "safe",
                burst(5, 2_000, 1024).programs,
                SyncConfig::ground_truth(),
            ),
            ("unsafe 50 µs", pp.clone(), SyncConfig::fixed_micros(50)),
            ("unsafe 1 ms", pp, SyncConfig::fixed_micros(1000)),
        ];
        let scalars = |d: &ShardedOptimisticRunResult| {
            (
                (d.sim_end, d.windows, d.total_packets, d.checkpoints),
                (d.rollbacks, d.wasted_sim, d.max_rollback_depth),
                (d.degraded_windows, d.conservative_windows, d.restore_rounds),
                (d.stragglers, d.workers),
            )
        };
        for (name, programs, sync) in &cases {
            for kind in [EngineKind::ShardedOptimistic, EngineKind::Hybrid] {
                let mut inline = [Vec::new(), Vec::new()];
                for m in [1, 2, 3, 4, 8] {
                    let run = |host_work| {
                        Sim::new(programs.clone())
                            .engine(kind)
                            .sync(sync.clone())
                            .host_work_per_op(host_work)
                            .shards(m)
                            .run()
                    };
                    let (alone, pooled) = (run(0.0), run(1e-3));
                    let ctx = format!("{name} {kind:?} M={m}");
                    assert_eq!(
                        alone.simulated_outcome(),
                        pooled.simulated_outcome(),
                        "{ctx}"
                    );
                    let a = alone.detail.as_sharded_optimistic().expect("opt detail");
                    let p = pooled.detail.as_sharded_optimistic().expect("opt detail");
                    assert_eq!(scalars(a), scalars(p), "{ctx}");
                    assert!(a.inline_rounds >= a.windows - 1, "{ctx}: {a:?}");
                    inline[0].push(a.inline_rounds);
                    inline[1].push(p.inline_rounds);
                }
                let ctx = format!("{name} {kind:?}");
                for counts in &inline {
                    assert!(counts.iter().all(|&c| c == counts[0]), "{ctx}: {inline:?}");
                }
                // At 1e-3 the rounds with ops to share were pooled; ping-pong
                // computes nothing, so only its first round is.
                let pools = inline[1][0] < inline[0][0];
                let computes = programs.iter().any(|p| p.total_compute_ops() > 0);
                assert_eq!(pools, computes, "{ctx}: {inline:?}");
            }
        }
    }

    #[test]
    fn latency_matrix_switch_matches_deterministic_engine() {
        let spec = ping_pong(2, 20, 4096);
        let matrix = LatencyMatrixSwitch::uniform(2, SimDuration::from_micros(3));
        let det = Sim::new(spec.programs.clone())
            .config(ClusterConfig::new(SyncConfig::ground_truth()).with_seed(7))
            .switch(SimSwitch::LatencyMatrix(matrix.clone()))
            .run();
        let r = Sim::new(spec.programs)
            .engine(EngineKind::Hybrid)
            .sync(SyncConfig::ground_truth())
            .switch(SimSwitch::LatencyMatrix(matrix))
            .shards(2)
            .run();
        assert_eq!(r.simulated_outcome(), det.simulated_outcome());
    }

    #[test]
    #[should_panic(expected = "quantum cap exceeded")]
    fn a_deadlocked_workload_hits_the_quantum_cap() {
        // Rank 0 waits for a message rank 1 never sends.
        let starved = ProgramBuilder::new(Rank::new(0))
            .recv(Some(Rank::new(1)), Tag::new(0))
            .build();
        let silent = ProgramBuilder::new(Rank::new(1)).compute(10).build();
        let _ = Sim::new(vec![starved, silent])
            .engine(EngineKind::ShardedOptimistic)
            .sync(SyncConfig::ground_truth())
            .max_quanta(50)
            .shards(2)
            .run();
    }
}
