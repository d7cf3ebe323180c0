//! Optimistic execution rebuilt on the sharded substrate (§5 direction):
//! N node simulators over M worker shards, one window-start checkpoint per
//! shard, bounded cascade rollback, and the adaptive conservative/optimistic
//! hybrid policy.
//!
//! # Shape
//!
//! Windows are quanta: the same [`QuantumPolicy`] that drives the
//! conservative engines picks each window's length from the routed-packet
//! signal, and the [`TreeBarrier`] leader advances it exactly like the
//! sharded engine's leader. Within a window the engine runs a
//! *leader-centralized fixed point*:
//!
//! 1. **Execute** — each worker restores/advances its dirty nodes to the
//!    window edge, delivering the inbound fragment set the leader handed it
//!    and capturing every send into its shard cell.
//! 2. **Reduce** — the barrier leader (inside the barrier's exclusive
//!    section) re-routes *all* current-window sends through the shared
//!    arrival table and rebuilds each node's canonical sorted inbound
//!    set. Rebuilding from the full send set is an implicit anti-message:
//!    fragments from rolled-back executions vanish because they are simply
//!    not in the rebuilt set.
//! 3. **Commit or roll back** — every shard publishes its local virtual
//!    time into the [`GvtReduction`]; the leader overrides dirty shards
//!    with their earliest violated arrival and reduces the minimum to GVT.
//!    `GVT ≥ window_end` commits the window; otherwise only the dirty
//!    shards restore from their window-start checkpoint and re-execute.
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
//! Conservative shards skip checkpoint cloning entirely — that is the
//! hybrid's wall-clock win on straggler-heavy workloads.
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

use crate::pool::{busy_work, route_seed_frags, Inbound, ParallelConfig, ParallelNodeResult};
use crate::sharded::{default_workers, partition, ArrivalTable};
use crate::sim::{EngineKind, SimError};
use crate::snapshot::ResumeSeed;
use aqs_core::QuantumPolicy;
use aqs_net::StragglerStats;
use aqs_node::{Action, MessageId, MessageMeta, NodeExecutor, Program, SendTarget};
use aqs_obs::{QuantumObs, Recorder};
use aqs_sync::{GvtReduction, TreeBarrier};
use aqs_time::{HostDuration, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Control word: stop the run.
const CTRL_STOP: u64 = u64::MAX;
/// Control word: repeat the current window (dirty shards re-execute).
const CTRL_REPEAT: u64 = u64::MAX - 1;
/// Cap on per-window trace vectors; past it the traces stop growing and
/// [`ShardedOptimisticRunResult::traces_truncated`] is set.
const TRACE_CAP: usize = 1 << 20;

/// Per-shard adaptive mode switching between conservative quantum sync and
/// optimistic checkpoint/rollback — the paper's adaptive idea applied to
/// the *mechanism* instead of only the quantum length.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

impl Default for ShardedOptimisticOpts {
    fn default() -> Self {
        Self {
            cascade_bound: 8,
            hybrid: None,
        }
    }
}

/// One per-shard mode transition, in commit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeEvent {
    /// Committed window index after which the switch took effect.
    pub window: u64,
    /// The shard that switched.
    pub shard: u32,
    /// `true` when the shard entered conservative mode, `false` when it
    /// recovered to optimistic mode.
    pub conservative: bool,
}

/// Outcome of a sharded-optimistic (or hybrid) run.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// The configured cascade bound.
    pub cascade_bound: u32,
    /// Shard-windows that hit the cascade bound and froze (snapping late
    /// fragments instead of unwinding further).
    pub degraded_windows: u64,
    /// Shard-windows executed in conservative mode.
    pub conservative_windows: u64,
    /// Boundary-snapped stragglers (late fragments deferred to the window
    /// edge of a frozen or conservative shard).
    pub stragglers: StragglerStats,
    /// GVT after each committed window, in sim nanoseconds. Monotonically
    /// non-decreasing by construction: committed windows are final.
    pub gvt_trace: Vec<u64>,
    /// Each committed window's length in sim nanoseconds.
    pub window_len_trace: Vec<u64>,
    /// Node re-executions charged to each committed window.
    pub reexec_trace: Vec<u32>,
    /// `true` when the traces (and mode events) hit their cap and stopped
    /// growing; the scalar counters above are always exact.
    pub traces_truncated: bool,
    /// Per-shard mode transitions, in commit order.
    pub mode_events: Vec<ModeEvent>,
    /// Per-node outcomes, in rank order.
    pub per_node: Vec<ParallelNodeResult>,
    /// Worker (= shard) count the run actually used.
    pub workers: usize,
    /// Whether the hybrid policy was active.
    pub hybrid: bool,
}

impl ShardedOptimisticRunResult {
    /// Total messages received across nodes.
    pub fn messages_received_total(&self) -> u64 {
        self.per_node.iter().map(|n| n.messages_received).sum()
    }

    /// What this run would cost on a full-system simulator whose node
    /// checkpoints and restores are not free — the paper's §3 argument as
    /// arithmetic on the run's counters.
    ///
    /// Nodes checkpoint in parallel at every window start (`checkpoint`
    /// once per window) and restore in parallel when they roll back: a
    /// window that re-executed `k` node-windows needed at least `⌈k / n⌉`
    /// serial restore rounds (`rollback` each). `execution` is the host
    /// time of actually simulating the workload — the deterministic
    /// engine's modelled time at the same window length.
    ///
    /// Reads [`reexec_trace`](Self::reexec_trace), so the restore term is a
    /// lower bound when [`traces_truncated`](Self::traces_truncated) is set.
    pub fn modelled_host_time(
        &self,
        checkpoint: HostDuration,
        rollback: HostDuration,
        execution: HostDuration,
    ) -> HostDuration {
        let n = self.per_node.len() as u64;
        let restore_rounds: u64 = self
            .reexec_trace
            .iter()
            .map(|&k| u64::from(k).div_ceil(n))
            .sum();
        checkpoint * self.windows + rollback * restore_rounds + execution
    }
}

/// A fragment captured at send time, before routing. `departure` already
/// includes the per-fragment serialization delay; routing it through the
/// [`ArrivalTable`] is a pure function, so the leader can re-route the full
/// send set every round with bit-identical results.
#[derive(Clone, Debug)]
struct WindowSend {
    dst: SendTarget,
    departure: SimTime,
    meta: MessageMeta,
    frag_index: u32,
    frag_bytes: u32,
}

/// Persistent per-node execution state — exactly what a checkpoint clones.
#[derive(Clone)]
struct OptNodeState {
    exec: NodeExecutor,
    sim: SimTime,
    /// Remainder of an op that did not fit in the previous window.
    pending: Option<SimDuration>,
    msg_seq: u64,
}

/// One shard's worker↔leader exchange surface. The owning worker locks it
/// for the duration of its execution round; the leader locks each cell
/// inside the barrier's exclusive section while all workers are parked —
/// both sides always take the lock uncontended.
struct ShardCell {
    /// Per local node: sends captured by the latest execution this window.
    sends: Vec<Vec<WindowSend>>,
    /// Per local node: finished flag as of the latest execution.
    done: Vec<bool>,
    /// Per local node: leader → worker "execute this node this round".
    run: Vec<bool>,
    /// Per local node: the full inbound set to deliver before executing.
    inbound: Vec<Vec<Inbound>>,
    /// Mode for the current window (set by the leader at the previous
    /// commit). Conservative shards skip checkpoint cloning.
    conservative: bool,
}

/// Shared state across worker threads.
struct SharedOpt<R> {
    nic: aqs_net::NicModel,
    arrivals: ArrivalTable,
    opts: ShardedOptimisticOpts,
    ranges: Vec<Range<usize>>,
    cells: Vec<Mutex<ShardCell>>,
    /// Per-shard LVT slots + the monotone GVT cell the leader reduces.
    gvt: GvtReduction,
    /// Next action: a window-end in sim ns, [`CTRL_REPEAT`], or
    /// [`CTRL_STOP`]. Written by the leader inside the barrier's exclusive
    /// section, ordered for workers by the epoch handshake.
    control: AtomicU64,
    /// Per-shard executed-node counters for the current window (repeat
    /// rounds accumulate). Only maintained when recording is enabled; the
    /// leader drains them at commit for the [`QuantumObs`] activity field.
    active: Vec<AtomicU64>,
    /// Deadlock/divergence guard (checked after join, where panicking is
    /// safe).
    overflow: AtomicBool,
    barrier: TreeBarrier<OptLeader<R>>,
}

/// The barrier leader's state: all cross-shard bookkeeping lives here and
/// is only ever touched inside the barrier's exclusive section.
struct OptLeader<R> {
    policy: Box<dyn QuantumPolicy>,
    rec: R,
    n: usize,
    windows: u64,
    q_start_nanos: u64,
    q_end_nanos: u64,
    max_quanta: u64,
    /// Per global node: round-0 inbound set of the current window (carried
    /// fragments landing inside it). Fixed for the window's duration.
    base: Vec<Vec<Inbound>>,
    /// Per global node: the inbound set its latest execution delivered.
    used: Vec<Vec<Inbound>>,
    /// Per global node: sends of its latest execution this window.
    sends: Vec<Vec<WindowSend>>,
    /// Per global node: fragments committed in earlier windows that have
    /// not yet been delivered (arrival at or past the current window end).
    carried: Vec<Vec<Inbound>>,
    /// Per global node: scheduled to run this round (results to pull).
    scheduled: Vec<bool>,
    done: Vec<bool>,
    // Per-shard, current window:
    reexecs: Vec<u32>,
    frozen: Vec<bool>,
    conservative: Vec<bool>,
    /// Pure engine: the current conservative window was forced by a bound
    /// hit and reverts to optimistic at the next commit.
    forced: Vec<bool>,
    /// Hybrid: consecutive conservative windows with zero snapped-in
    /// stragglers.
    clean_streak: Vec<u32>,
    /// Boundary snaps into each shard during the current window's commit.
    snaps_in: Vec<u64>,
    shard_ckpt: Vec<u64>,
    shard_rb: Vec<u64>,
    shard_waste: Vec<u64>,
    window_reexec_nodes: u32,
    repeat_rounds: u32,
    // Run totals:
    total_packets: u64,
    checkpoints: u64,
    rollbacks: u64,
    wasted_ns: u64,
    stragglers: StragglerStats,
    max_depth: u32,
    degraded_windows: u64,
    conservative_windows: u64,
    gvt_trace: Vec<u64>,
    window_len_trace: Vec<u64>,
    reexec_trace: Vec<u32>,
    traces_truncated: bool,
    mode_events: Vec<ModeEvent>,
    /// Scratch for draining the per-shard activity counters at commit.
    shard_actives: Vec<u64>,
}

fn push_capped<T>(v: &mut Vec<T>, x: T, truncated: &mut bool) {
    if v.len() < TRACE_CAP {
        v.push(x);
    } else {
        *truncated = true;
    }
}

/// Earliest arrival involved in the first divergence between two sorted
/// inbound sets — the shard's local virtual time when it must roll back.
fn divergence_nanos(a: &[Inbound], b: &[Inbound]) -> u64 {
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i].arrival.as_nanos().min(b[i].arrival.as_nanos());
        }
        i += 1;
    }
    if i < a.len() {
        a[i].arrival.as_nanos()
    } else if i < b.len() {
        b[i].arrival.as_nanos()
    } else {
        u64::MAX
    }
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
/// Panics if fewer than two programs are given or program *i* is not for
/// rank *i*. A window-cap overflow (deadlock guard) is a typed
/// [`SimError::QuantumCapExceeded`], not a panic.
pub(crate) fn run_sharded_optimistic_impl<R: Recorder>(
    programs: Vec<Program>,
    config: &ParallelConfig,
    workers: Option<usize>,
    opts: ShardedOptimisticOpts,
    recorder: R,
    resume: Option<&ResumeSeed>,
) -> Result<(ShardedOptimisticRunResult, R), SimError> {
    assert!(programs.len() >= 2, "a cluster needs at least 2 nodes");
    for (i, p) in programs.iter().enumerate() {
        assert_eq!(p.rank().index(), i, "program {i} is for {}", p.rank());
    }
    let n = programs.len();
    if let Some(s) = resume {
        if s.nodes.len() != n {
            return Err(SimError::snapshot_format(format!(
                "snapshot has {} nodes, simulation has {n}",
                s.nodes.len()
            )));
        }
    }
    let m = workers.unwrap_or_else(default_workers).clamp(1, n);
    let ranges = partition(n, m);
    let mut policy = config.sync.build();
    let q0 = policy.initial_quantum();
    if let Some(s) = resume {
        policy
            .load_state(&s.policy_state)
            .map_err(SimError::snapshot_format)?;
    }
    let q_start_nanos = resume.map_or(0, |s| s.q_start.as_nanos());
    let q_end0 = resume.map_or(q0.as_nanos(), |s| (s.q_start + s.q_len).as_nanos());
    let hybrid = opts.hybrid.is_some();
    let engine_kind = if hybrid {
        EngineKind::Hybrid
    } else {
        EngineKind::ShardedOptimistic
    };
    let cascade_bound = opts.cascade_bound;
    let arrivals = ArrivalTable::build(&config.switch, n);
    let mut injected: Vec<Vec<Inbound>> = vec![Vec::new(); n];
    let (inject_count, inject_stragglers) = match resume {
        Some(s) => route_seed_frags(s, &config.nic, &arrivals, n, |t, arrival, frag| {
            injected[t].push(Inbound {
                arrival,
                meta_id: frag.meta.id,
                frag_index: frag.frag_index,
                meta: frag.meta.into(),
            });
        })?,
        None => (0, StragglerStats::default()),
    };
    let mut states_init: Vec<Option<OptNodeState>> = Vec::with_capacity(n);
    for (i, program) in programs.into_iter().enumerate() {
        states_init.push(Some(match resume {
            Some(s) => {
                let ns = &s.nodes[i];
                OptNodeState {
                    exec: NodeExecutor::from_state(program, config.cpu, ns.exec.clone())
                        .map_err(|e| SimError::snapshot_format(format!("node {i}: {e}")))?,
                    sim: s.q_start,
                    pending: ns.pending,
                    msg_seq: ns.msg_seq,
                }
            }
            None => OptNodeState {
                exec: NodeExecutor::new(program, config.cpu),
                sim: SimTime::ZERO,
                pending: None,
                msg_seq: 0,
            },
        }));
    }
    let mut run_stragglers = resume.map_or_else(StragglerStats::default, |s| s.stragglers);
    run_stragglers.merge(&inject_stragglers);
    let mut leader = OptLeader {
        policy,
        rec: recorder,
        n,
        windows: resume.map_or(0, |s| s.quanta),
        q_start_nanos,
        q_end_nanos: q_end0,
        max_quanta: config.max_quanta,
        base: vec![Vec::new(); n],
        used: vec![Vec::new(); n],
        sends: vec![Vec::new(); n],
        carried: vec![Vec::new(); n],
        scheduled: vec![true; n],
        done: resume.map_or_else(
            || vec![false; n],
            |s| s.nodes.iter().map(|x| x.done).collect(),
        ),
        reexecs: vec![0; m],
        frozen: vec![false; m],
        conservative: vec![false; m],
        forced: vec![false; m],
        clean_streak: vec![0; m],
        snaps_in: vec![0; m],
        shard_ckpt: vec![0; m],
        shard_rb: vec![0; m],
        shard_waste: vec![0; m],
        window_reexec_nodes: 0,
        repeat_rounds: 0,
        total_packets: resume.map_or(0, |s| s.total_packets) + inject_count,
        checkpoints: 0,
        rollbacks: 0,
        wasted_ns: 0,
        stragglers: run_stragglers,
        max_depth: 0,
        degraded_windows: 0,
        conservative_windows: 0,
        gvt_trace: Vec::new(),
        window_len_trace: Vec::new(),
        reexec_trace: Vec::new(),
        traces_truncated: false,
        mode_events: Vec::new(),
        shard_actives: Vec::with_capacity(m),
    };
    // Partition the injected fragments by the first window edge exactly
    // like `commit_window`'s open-next-window path: arrivals inside the
    // window become the round-0 base/used sets, the rest stay carried.
    for (i, frags) in injected.into_iter().enumerate() {
        let (mut inside, rest): (Vec<Inbound>, Vec<Inbound>) = frags
            .into_iter()
            .partition(|e| e.arrival.as_nanos() < q_end0);
        inside.sort();
        leader.carried[i] = rest;
        leader.base[i] = inside.clone();
        leader.used[i] = inside;
    }
    // The first window checkpoints every shard (all start optimistic).
    for (s, range) in ranges.iter().enumerate() {
        leader.shard_ckpt[s] = range.len() as u64;
    }
    leader.checkpoints = n as u64;
    if R::ENABLED {
        leader.rec.record_checkpoints(n as u64);
    }
    let cells = ranges
        .iter()
        .map(|range| {
            let len = range.len();
            Mutex::new(ShardCell {
                sends: vec![Vec::new(); len],
                done: vec![false; len],
                run: vec![true; len],
                inbound: range.clone().map(|g| leader.used[g].clone()).collect(),
                conservative: false,
            })
        })
        .collect();
    let start = Instant::now();
    let shared = SharedOpt {
        nic: config.nic,
        arrivals,
        opts,
        ranges: ranges.clone(),
        cells,
        gvt: GvtReduction::new(m),
        control: AtomicU64::new(q_end0),
        active: (0..m).map(|_| AtomicU64::new(0)).collect(),
        overflow: AtomicBool::new(false),
        barrier: TreeBarrier::new(m, leader),
    };
    let joined: Vec<Vec<ParallelNodeResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(w, range)| {
                let shard: Vec<OptNodeState> = range
                    .clone()
                    .map(|i| states_init[i].take().expect("each node state taken once"))
                    .collect();
                let shared = &shared;
                scope.spawn(move || worker_thread(w, shard, config, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    if shared.overflow.load(Ordering::Acquire) {
        return Err(SimError::QuantumCapExceeded {
            engine: engine_kind,
            max_quanta: config.max_quanta,
        });
    }
    let wall = start.elapsed();
    let mut per_node = Vec::with_capacity(n);
    for nodes in joined {
        per_node.extend(nodes);
    }
    let sim_end = per_node
        .iter()
        .map(|r| r.finish_sim)
        .max()
        .expect("at least two nodes");
    let leader = shared.barrier.into_state();
    let result = ShardedOptimisticRunResult {
        wall,
        sim_end,
        windows: leader.windows,
        total_packets: leader.total_packets,
        checkpoints: leader.checkpoints,
        rollbacks: leader.rollbacks,
        wasted_sim: SimDuration::from_nanos(leader.wasted_ns),
        max_rollback_depth: leader.max_depth,
        cascade_bound,
        degraded_windows: leader.degraded_windows,
        conservative_windows: leader.conservative_windows,
        stragglers: leader.stragglers,
        gvt_trace: leader.gvt_trace,
        window_len_trace: leader.window_len_trace,
        reexec_trace: leader.reexec_trace,
        traces_truncated: leader.traces_truncated,
        mode_events: leader.mode_events,
        per_node,
        workers: m,
        hybrid,
    };
    Ok((result, leader.rec))
}

/// Runs one shard to completion; returns its nodes' results in rank order.
fn worker_thread<R: Recorder>(
    w: usize,
    shard: Vec<OptNodeState>,
    config: &ParallelConfig,
    shared: &SharedOpt<R>,
) -> Vec<ParallelNodeResult> {
    let mut states: Vec<OptNodeState> = shard;
    // The shard at the start of its latest optimistic window. One slot is
    // enough: a window commits before the next one opens, so a rollback
    // only ever returns to the start of the window in progress.
    let mut checkpoint: Vec<OptNodeState> = Vec::new();
    #[cfg(feature = "fault-inject")]
    let mut skip_next_refresh = false;
    let mut window_start = SimTime::ZERO;
    let mut window_end = SimTime::ZERO;
    // Per local node: next sim time the node can act on its own
    // (`u64::MAX` = parked until a delivery, 0 = run unconditionally).
    // Refreshed by every execution; the first window runs everyone.
    let mut wakes: Vec<u64> = vec![0; states.len()];
    loop {
        let ctrl = shared.control.load(Ordering::Relaxed);
        if ctrl == CTRL_STOP {
            break;
        }
        let repeat = ctrl == CTRL_REPEAT;
        let mut executed = 0u64;
        {
            let mut cell = shared.cells[w].lock().expect("shard cell poisoned");
            if !repeat {
                window_start = window_end;
                window_end = SimTime::from_nanos(ctrl);
                if !cell.conservative {
                    // Copy-on-advance: snapshot the shard at the window
                    // start. Conservative shards never roll back and skip
                    // the clone — the hybrid's checkpoint saving. The clone
                    // is deliberately eager (it includes nodes the
                    // active-set skip below will not execute): the
                    // checkpoint accounting and the rollback restore path
                    // both assume every optimistic window snapshots the
                    // whole shard.
                    #[allow(unused_mut)]
                    let mut refresh = true;
                    #[cfg(feature = "fault-inject")]
                    if crate::fault::armed(crate::fault::Fault::StaleCheckpointRestore) {
                        // Armable bug: every other window keeps the previous
                        // window's checkpoint, so a rollback there jumps the
                        // node back one extra window.
                        refresh = !skip_next_refresh;
                        skip_next_refresh = refresh;
                    }
                    if refresh {
                        checkpoint.clone_from(&states);
                    }
                }
            }
            for l in 0..states.len() {
                if !cell.run[l] {
                    continue;
                }
                cell.run[l] = false;
                // Active-set skip: a node whose own next wake lies at or
                // beyond the window edge (an event at exactly `window_end`
                // is the next window's first instant), with nothing inbound,
                // can only poll — its sends stay empty and its done flag
                // keeps its previous value, which is exactly what the leader
                // reads for an unexecuted node. Repeat rounds never skip: a
                // dirty node's rebuilt inbound set may legitimately be empty.
                if !repeat
                    && !config.full_sweep
                    && cell.inbound[l].is_empty()
                    && wakes[l] >= window_end.as_nanos()
                {
                    continue;
                }
                if repeat {
                    states[l] = checkpoint[l].clone();
                }
                // Fast-forward a node that slept through earlier windows
                // (or was restored from a checkpoint cloned while it
                // slept): its sim still sits at the edge of its last
                // executed window, where a full sweep would have dragged it
                // to every edge since. Skipped time is idle by
                // construction, so the jump is exact.
                if states[l].sim < window_start {
                    states[l].sim = window_start;
                }
                let inbound = std::mem::take(&mut cell.inbound[l]);
                for f in &inbound {
                    states[l]
                        .exec
                        .deliver_fragment(f.meta.to_meta(), f.frag_index, f.arrival);
                }
                let (sends, wake) = run_node_window(
                    &mut states[l],
                    window_end,
                    &shared.nic,
                    config.host_work_per_op,
                );
                cell.sends[l] = sends;
                wakes[l] = wake;
                cell.done[l] = states[l].exec.finished();
                executed += 1;
            }
        }
        if R::ENABLED {
            shared.active[w].fetch_add(executed, Ordering::Relaxed);
        }
        shared.gvt.publish_lvt(w, window_end.as_nanos());
        shared
            .barrier
            .arrive(w, |leader| leader_step(shared, leader));
    }
    states
        .into_iter()
        .map(|mut s| ParallelNodeResult {
            rank: s.exec.rank(),
            finish_sim: s.exec.finish_time().unwrap_or(s.sim),
            ops: s.exec.ops_executed(),
            messages_received: s.exec.messages_received(),
            regions: s.exec.take_regions(),
        })
        .collect()
}

/// Advances one node to the window edge — the sharded engine's inner loop
/// (sends complete atomically, ops pend across edges), except that sends
/// are captured for the leader to route instead of being routed in place.
///
/// Also returns the node's next wake time in sim nanoseconds: `u64::MAX`
/// for a node that can only proceed on a delivery (blocked or finished),
/// the wait target for a timer parked past the window edge, and 0 (run
/// unconditionally) otherwise.
fn run_node_window(
    state: &mut OptNodeState,
    window_end: SimTime,
    nic: &aqs_net::NicModel,
    host_work_per_op: f64,
) -> (Vec<WindowSend>, u64) {
    let mut sends = Vec::new();
    let mut wake = 0u64;
    while state.sim < window_end {
        if let Some(remaining) = state.pending.take() {
            let step = remaining.min(window_end - state.sim);
            state.sim += step;
            if step < remaining {
                state.pending = Some(remaining - step);
                break; // window boundary reached mid-op
            }
            continue;
        }
        match state.exec.next_action(state.sim) {
            Action::Advance { dur, ops, idle } => {
                if !idle && host_work_per_op > 0.0 && ops > 0 {
                    busy_work(ops as f64 * host_work_per_op);
                }
                state.pending = Some(dur);
            }
            Action::Send { dst, bytes, tag } => {
                let frag_count = nic.fragment_count(bytes);
                let meta = MessageMeta {
                    id: MessageId {
                        src: state.exec.rank(),
                        seq: state.msg_seq,
                    },
                    tag,
                    bytes,
                    frag_count,
                };
                state.msg_seq += 1;
                for k in 0..frag_count {
                    let sz = nic.fragment_size(bytes, k);
                    state.sim += nic.serialization_delay(sz);
                    sends.push(WindowSend {
                        dst,
                        departure: state.sim,
                        meta,
                        frag_index: k,
                        frag_bytes: sz,
                    });
                }
            }
            Action::WaitUntil(t) => {
                state.sim = t.min(window_end);
                if t >= window_end {
                    wake = t.as_nanos();
                    break;
                }
            }
            Action::Blocked => {
                state.sim = window_end;
                wake = u64::MAX;
                break;
            }
            Action::Finished => {
                state.sim = window_end;
                wake = u64::MAX;
                break;
            }
        }
    }
    state.sim = state.sim.max(window_end);
    (sends, wake)
}

/// Fan-out targets of one send (unicast or broadcast-to-all-but-self).
fn for_each_target(dst: SendTarget, src: usize, n: usize, mut f: impl FnMut(usize)) {
    match dst {
        SendTarget::Rank(r) => f(r.as_u32() as usize),
        SendTarget::All => {
            for t in 0..n {
                if t != src {
                    f(t);
                }
            }
        }
    }
}

fn inbound_key(e: &Inbound) -> (u32, u64, u32) {
    (e.meta_id.src.as_u32(), e.meta_id.seq, e.frag_index)
}

/// The barrier leader's round: pull results, rebuild canonical inbound
/// sets, then either schedule rollbacks (GVT below the window edge) or
/// commit the window and open the next one.
fn leader_step<R: Recorder>(shared: &SharedOpt<R>, leader: &mut OptLeader<R>) {
    let n = leader.n;
    let m = shared.ranges.len();
    let window_end = leader.q_end_nanos;
    // 1. Pull sends and done flags for every node that ran this round.
    for (s, range) in shared.ranges.iter().enumerate() {
        let mut cell = shared.cells[s].lock().expect("shard cell poisoned");
        for (l, g) in range.clone().enumerate() {
            if leader.scheduled[g] {
                leader.scheduled[g] = false;
                leader.sends[g] = std::mem::take(&mut cell.sends[l]);
                leader.done[g] = cell.done[l];
            }
        }
    }
    // 2. Re-route every current-window send and rebuild the canonical
    // sorted inbound sets (base ∪ in-window arrivals); fragments landing at
    // or past the edge go to the future list for the commit path.
    let mut new_sets: Vec<Vec<Inbound>> = leader.base.clone();
    let mut future: Vec<Vec<Inbound>> = vec![Vec::new(); n];
    let mut routed: u64 = 0;
    for src in 0..n {
        for f in &leader.sends[src] {
            for_each_target(f.dst, src, n, |t| {
                let base = shared.nic.earliest_arrival(f.departure);
                let arrival = base
                    + SimDuration::from_nanos(shared.arrivals.transit_nanos(
                        src,
                        t,
                        f.frag_bytes,
                        f.departure,
                    ));
                routed += 1;
                let inb = Inbound {
                    arrival,
                    meta_id: f.meta.id,
                    frag_index: f.frag_index,
                    meta: f.meta.into(),
                };
                if arrival.as_nanos() < window_end {
                    new_sets[t].push(inb);
                } else {
                    future[t].push(inb);
                }
            });
        }
    }
    for set in &mut new_sets {
        set.sort();
    }
    // 3. Dirty detection: only optimistic, unfrozen shards unwind. A shard
    // at the cascade bound freezes — its late fragments will be snapped to
    // the boundary at commit instead of unwinding neighbors further.
    let mut dirty: Vec<(usize, Vec<usize>)> = Vec::new();
    for (s, range) in shared.ranges.iter().enumerate() {
        if leader.conservative[s] || leader.frozen[s] {
            continue;
        }
        let changed: Vec<usize> = range
            .clone()
            .filter(|&i| new_sets[i] != leader.used[i])
            .collect();
        if changed.is_empty() {
            continue;
        }
        if leader.reexecs[s] >= shared.opts.cascade_bound {
            leader.frozen[s] = true;
        } else {
            dirty.push((s, changed));
        }
    }
    // 4. GVT: workers published LVT = window_end on arrival; the leader
    // overrides each dirty shard with its earliest violated arrival and
    // reduces the minimum. The window commits only once GVT reaches its
    // edge.
    for (s, nodes) in &dirty {
        let lvt = nodes
            .iter()
            .map(|&i| divergence_nanos(&new_sets[i], &leader.used[i]))
            .min()
            .unwrap_or(u64::MAX)
            .min(window_end);
        shared.gvt.publish_lvt(*s, lvt);
    }
    #[allow(unused_mut)]
    let mut gvt_val = shared.gvt.reduce();
    #[cfg(feature = "fault-inject")]
    if crate::fault::armed(crate::fault::Fault::GvtFromOneShard) {
        // Armable bug: GVT from shard 0's LVT alone — windows commit while
        // another shard still holds a violation, silently dropping its
        // scheduled re-execution.
        gvt_val = shared.gvt.lvt(0);
    }
    if gvt_val < window_end {
        // 5. Roll back: only the offending shards restore and re-execute.
        let window_len = window_end - leader.q_start_nanos;
        for (s, nodes) in dirty {
            leader.reexecs[s] += 1;
            leader.max_depth = leader.max_depth.max(leader.reexecs[s]);
            let range = shared.ranges[s].clone();
            let mut cell = shared.cells[s].lock().expect("shard cell poisoned");
            for i in nodes {
                let l = i - range.start;
                #[allow(unused_mut)]
                let mut full = true;
                #[cfg(feature = "fault-inject")]
                if crate::fault::armed(crate::fault::Fault::RollbackMailboxSkip) {
                    full = false;
                }
                cell.inbound[l] = if full {
                    new_sets[i].clone()
                } else {
                    // Armable bug: re-deliver only the delta — the restored
                    // node never re-receives its earlier deliveries.
                    new_sets[i]
                        .iter()
                        .filter(|e| !leader.used[i].contains(e))
                        .cloned()
                        .collect()
                };
                cell.run[l] = true;
                leader.used[i] = std::mem::take(&mut new_sets[i]);
                leader.scheduled[i] = true;
                leader.rollbacks += 1;
                leader.wasted_ns += window_len;
                leader.shard_rb[s] += 1;
                leader.shard_waste[s] += window_len;
                leader.window_reexec_nodes += 1;
                if R::ENABLED {
                    leader
                        .rec
                        .record_rollback(SimDuration::from_nanos(window_len));
                }
            }
        }
        leader.repeat_rounds += 1;
        let guard = (m as u32) * (shared.opts.cascade_bound + 2) + 8;
        if leader.repeat_rounds > guard {
            // Cannot panic while peers wait on the barrier — flag and stop.
            shared.overflow.store(true, Ordering::Relaxed);
            shared.control.store(CTRL_STOP, Ordering::Relaxed);
        } else {
            shared.control.store(CTRL_REPEAT, Ordering::Relaxed);
        }
        return;
    }
    commit_window(shared, leader, new_sets, future, routed, gvt_val);
}

/// Commits the current window and opens the next one (or stops the run).
fn commit_window<R: Recorder>(
    shared: &SharedOpt<R>,
    leader: &mut OptLeader<R>,
    new_sets: Vec<Vec<Inbound>>,
    future: Vec<Vec<Inbound>>,
    routed: u64,
    gvt_val: u64,
) {
    let m = shared.ranges.len();
    let window_end = leader.q_end_nanos;
    let window_len = window_end - leader.q_start_nanos;
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
            if new_sets[i] == leader.used[i] {
                continue;
            }
            let used_at: HashMap<(u32, u64, u32), u64> = leader.used[i]
                .iter()
                .map(|e| (inbound_key(e), e.arrival.as_nanos()))
                .collect();
            for e in &new_sets[i] {
                match used_at.get(&inbound_key(e)) {
                    None => {
                        window_stragglers.record(edge - e.arrival);
                        leader.snaps_in[s] += 1;
                        leader.carried[i].push(Inbound {
                            arrival: edge,
                            meta_id: e.meta_id,
                            frag_index: e.frag_index,
                            meta: e.meta,
                        });
                    }
                    Some(&ua) if ua != e.arrival.as_nanos() => {
                        window_stragglers
                            .record(SimDuration::from_nanos(ua.abs_diff(e.arrival.as_nanos())));
                        leader.snaps_in[s] += 1;
                    }
                    _ => {}
                }
            }
        }
    }
    for (i, fut) in future.into_iter().enumerate() {
        leader.carried[i].extend(fut);
    }
    leader.total_packets += routed;
    if R::ENABLED {
        leader.shard_actives.clear();
        for slot in &shared.active {
            leader.shard_actives.push(slot.swap(0, Ordering::Relaxed));
        }
        let active_total: u64 = leader.shard_actives.iter().sum();
        leader.rec.record_quantum(&QuantumObs {
            index: leader.windows,
            start: SimTime::from_nanos(leader.q_start_nanos),
            len: SimDuration::from_nanos(window_len),
            packets: routed,
            // Node executions charged to this window, re-execution rounds
            // included — can exceed the node count under rollback.
            active_nodes: active_total,
            stragglers: window_stragglers.count(),
            max_straggler_delay: window_stragglers.max_delay(),
            barrier_wait_ns: &[],
            vt_lag_ns: &[],
        });
        leader.rec.record_shard_activity(&leader.shard_actives);
        leader.rec.record_shard_rollbacks(
            &leader.shard_ckpt,
            &leader.shard_rb,
            &leader.shard_waste,
        );
    }
    leader.stragglers.merge(&window_stragglers);
    for s in 0..m {
        leader.shard_ckpt[s] = 0;
        leader.shard_rb[s] = 0;
        leader.shard_waste[s] = 0;
    }
    let truncated = &mut leader.traces_truncated;
    push_capped(&mut leader.gvt_trace, gvt_val, truncated);
    push_capped(&mut leader.window_len_trace, window_len, truncated);
    push_capped(
        &mut leader.reexec_trace,
        leader.window_reexec_nodes,
        truncated,
    );
    // Mode transitions for the next window.
    for s in 0..m {
        if leader.frozen[s] {
            leader.degraded_windows += 1;
        }
        if leader.conservative[s] {
            leader.conservative_windows += 1;
        }
        let next = match shared.opts.hybrid {
            Some(h) => {
                if !leader.conservative[s] {
                    leader.frozen[s] || leader.reexecs[s] >= h.degrade_after
                } else if leader.snaps_in[s] == 0 {
                    leader.clean_streak[s] += 1;
                    if leader.clean_streak[s] >= h.recover_after {
                        leader.clean_streak[s] = 0;
                        false
                    } else {
                        true
                    }
                } else {
                    leader.clean_streak[s] = 0;
                    true
                }
            }
            None => {
                // Pure engine: one forced conservative window per bound
                // hit, then straight back to optimistic execution.
                if leader.frozen[s] {
                    leader.forced[s] = true;
                    true
                } else if leader.conservative[s] && leader.forced[s] {
                    leader.forced[s] = false;
                    false
                } else {
                    leader.conservative[s]
                }
            }
        };
        if next != leader.conservative[s] {
            push_capped(
                &mut leader.mode_events,
                ModeEvent {
                    window: leader.windows,
                    shard: s as u32,
                    conservative: next,
                },
                &mut leader.traces_truncated,
            );
            #[cfg(feature = "fault-inject")]
            if crate::fault::armed(crate::fault::Fault::HybridSwitchDrop) {
                // Armable bug: the mode switch drops the shard's carried
                // in-flight fragments.
                for i in shared.ranges[s].clone() {
                    leader.carried[i].clear();
                }
            }
            leader.conservative[s] = next;
        }
        leader.snaps_in[s] = 0;
        leader.reexecs[s] = 0;
        leader.frozen[s] = false;
    }
    leader.windows += 1;
    leader.window_reexec_nodes = 0;
    leader.repeat_rounds = 0;
    let all_done = leader.done.iter().all(|&d| d);
    if all_done {
        shared.control.store(CTRL_STOP, Ordering::Relaxed);
        return;
    }
    if leader.windows > leader.max_quanta {
        // Cannot panic while peers wait on the barrier — flag and stop.
        shared.overflow.store(true, Ordering::Relaxed);
        shared.control.store(CTRL_STOP, Ordering::Relaxed);
        return;
    }
    // Open the next window: advance the policy on the routed-packet signal
    // (the same np the conservative engines feed it) and hand every node
    // its round-0 inbound set — the carried fragments landing inside.
    let next_len = leader.policy.next_quantum(routed);
    leader.q_start_nanos = leader.q_end_nanos;
    leader.q_end_nanos = leader.q_start_nanos + next_len.as_nanos();
    let next_edge = leader.q_end_nanos;
    for i in 0..leader.n {
        let carried = std::mem::take(&mut leader.carried[i]);
        let (mut inside, rest): (Vec<Inbound>, Vec<Inbound>) = carried
            .into_iter()
            .partition(|e| e.arrival.as_nanos() < next_edge);
        inside.sort();
        leader.carried[i] = rest;
        leader.base[i] = inside.clone();
        leader.used[i] = inside;
        leader.scheduled[i] = true;
    }
    let mut ckpt_total = 0u64;
    for (s, range) in shared.ranges.iter().enumerate() {
        let mut cell = shared.cells[s].lock().expect("shard cell poisoned");
        cell.conservative = leader.conservative[s];
        if !leader.conservative[s] {
            let size = range.len() as u64;
            leader.shard_ckpt[s] = size;
            ckpt_total += size;
        }
        for (l, g) in range.clone().enumerate() {
            cell.run[l] = true;
            cell.inbound[l] = leader.used[g].clone();
        }
    }
    leader.checkpoints += ckpt_total;
    if R::ENABLED && ckpt_total > 0 {
        leader.rec.record_checkpoints(ckpt_total);
    }
    shared.control.store(leader.q_end_nanos, Ordering::Relaxed);
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
    use aqs_workloads::{burst, ping_pong};

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
                assert_eq!(d.hybrid, kind == EngineKind::Hybrid);
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
        assert!(d.max_rollback_depth <= d.cascade_bound);
        assert_eq!(d.cascade_bound, 8);
        assert!(
            d.conservative_windows > 0,
            "a bound hit forces a conservative window"
        );
        assert!(r.stragglers.count() > 0, "degraded windows snap packets");
        // Conservation: nothing is lost across freeze/degrade transitions
        // (ping_pong only engages ranks 0 and 1, 25 rounds each way).
        assert_eq!(d.messages_received_total(), 50);
        // wasted_sim is exactly the re-executed quanta in the traces.
        assert!(!d.traces_truncated);
        let replayed: u64 = d
            .window_len_trace
            .iter()
            .zip(&d.reexec_trace)
            .map(|(&len, &k)| len * u64::from(k))
            .sum();
        assert_eq!(d.wasted_sim.as_nanos(), replayed);
        assert_eq!(u64::from(d.reexec_trace.iter().sum::<u32>()), d.rollbacks);
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
        assert!(d.rollbacks > 0 && !d.traces_truncated);
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
                .run()
        };
        let a = run();
        let da = a.detail.as_sharded_optimistic().expect("opt detail");
        assert!(da.hybrid);
        assert!(
            !da.mode_events.is_empty(),
            "stragglers must force mode switches"
        );
        assert!(da.mode_events.iter().any(|e| e.conservative));
        assert_eq!(da.messages_received_total(), 50);
        // The whole adaptive trajectory is deterministic: a second run lands
        // on the same outcome, the same switches, the same GVT trace.
        let b = run();
        let db = b.detail.as_sharded_optimistic().expect("opt detail");
        assert_eq!(a.simulated_outcome(), b.simulated_outcome());
        assert_eq!(da.mode_events, db.mode_events);
        assert_eq!(da.gvt_trace, db.gvt_trace);
        assert_eq!(da.conservative_windows, db.conservative_windows);
    }

    #[test]
    fn gvt_trace_is_monotone_and_covers_the_run() {
        let spec = ping_pong(4, 25, 4096);
        let r = Sim::new(spec.programs.clone())
            .engine(EngineKind::ShardedOptimistic)
            .sync(SyncConfig::fixed_micros(1000))
            .shards(2)
            .run();
        let d = r.detail.as_sharded_optimistic().expect("opt detail");
        assert_eq!(d.gvt_trace.len() as u64, d.windows);
        for w in d.gvt_trace.windows(2) {
            assert!(w[0] <= w[1], "GVT must never retreat");
        }
        assert!(*d.gvt_trace.last().expect("nonempty") >= d.sim_end.as_nanos());
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
        assert_eq!(fr.rollbacks(), d.rollbacks);
        assert_eq!(fr.checkpoints(), d.checkpoints);
        assert_eq!(fr.wasted_sim(), d.wasted_sim);
        assert_eq!(fr.total_packets(), d.total_packets);
        let shard = fr.shard_rollback_stats().expect("sharded optimistic run");
        assert_eq!(shard.rollbacks.iter().sum::<u64>(), d.rollbacks);
        assert_eq!(shard.checkpoints.iter().sum::<u64>(), d.checkpoints);
        assert_eq!(shard.wasted_ns.iter().sum::<u64>(), d.wasted_sim.as_nanos());
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
