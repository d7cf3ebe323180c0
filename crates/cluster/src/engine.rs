//! The deterministic meta-engine.
//!
//! This is a discrete-event simulation of the *parallel simulation*: the
//! outer clock is modelled **host time**, on which three things happen:
//!
//! * `NodeYield` — a node simulator finishes its current execution segment
//!   (a slice of compute/idle guest time, capped at the quantum boundary);
//! * `FragAtController` — a link-layer fragment reaches the central network
//!   controller (one socket hop after leaving the sending simulator);
//! * `BarrierDone` — the last node reached the quantum boundary and the
//!   barrier's host cost has elapsed; the quantum policy chooses the next
//!   quantum and all nodes resume.
//!
//! They are events on the queue only while their order can matter. A
//! fragment always is one. A quantum is *quiet* when nothing is in flight and
//! every node is mid-op with a quantum of it left and nothing departing by
//! the edge, finished, or parked — its last poll answered `Blocked` or
//! `WaitUntil` a time past the edge, its mailbox completed nothing since,
//! and nothing is queued. That is decided before any node moves, from state
//! the engine holds, and one pass then gives each node the host time its
//! segment would end at and its barrier arrival: no fragment can reach the
//! controller before the barrier and no idle traversal be interrupted. The
//! parked answer is derived state a snapshot does not carry: a resumed run
//! takes the event path into its first quantum. A barrier completion is
//! queued only while fragments are in flight (one may land first); otherwise
//! it runs directly, so a stretch of quiet quanta never touches the heap.
//! The modelled clock, the recorder's lanes and the snapshot cut are the
//! same either way.
//!
//! Simulated time is derived: each node's position advances linearly within
//! its active segment at its current (jittered) simulation speed. Straggler
//! handling is the paper's §3 verbatim: when a fragment's computed arrival
//! time is behind the receiver's current simulated position, it is
//! delivered *now* and the delay is recorded; when the receiver has already
//! finished its quantum, delivery snaps to the next quantum start
//! (Figure 3(d)).
//!
//! On a host with a second CPU the engine uses one helper thread, for jitter
//! draws only (`Feed`): every simulated decision is made on the engine's
//! thread.

use crate::config::ClusterConfig;
use crate::result::{NodeResult, RunResult};
use crate::sim::{EngineKind, SimError};
use crate::snapshot::{FragSnap, InFlightSnap, NodeSnap, SnapshotBody, StragglerSnap};
use aqs_core::QuantumPolicy;
use aqs_des::EventQueue;
use aqs_net::{NetworkController, StragglerStats};
use aqs_node::{Action, HostSpeed, MessageId, NodeExecutor, Program, SendTarget};
use aqs_obs::{QuantumObs, Recorder};
use aqs_rng::Rng;
use aqs_time::{HostTime, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};

/// Rounds of jitter a run draws before it starts its helper, and per helper
/// block. It groups work; no result depends on it.
pub(crate) const FEED_BLOCK: u64 = 1024;

/// Blocks in circulation: one being read, up to two drawn ahead.
const FEED_BUFFERS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SegKind {
    /// Executing (part of) a program op: compute, idle, send serialization,
    /// or receive overhead. Must run to completion.
    Op,
    /// Traversing idle time while blocked on a receive; interruptible by a
    /// message completion.
    BlockedIdle,
}

#[derive(Clone, Copy, Debug)]
struct Segment {
    kind: SegKind,
    start_sim: SimTime,
    start_host: HostTime,
    end_sim: SimTime,
    end_host: HostTime,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    remaining: SimDuration,
    idle: bool,
}

struct Node {
    exec: NodeExecutor,
    speed: HostSpeed,
    /// Anchored simulated position (valid when no segment is active).
    sim: SimTime,
    /// Anchored host position.
    host: HostTime,
    seg: Option<Segment>,
    pending: Option<Pending>,
    at_barrier: bool,
    /// Last poll returned `Blocked` with no candidate message.
    blocked_no_candidate: bool,
    /// The last poll's parked answer — `Blocked` as `SimTime::MAX`, or
    /// `WaitUntil(t)` — and the mailbox's completed-message count at that
    /// poll; `None` after any other answer. Derived, so not snapshotted.
    parked: Option<(SimTime, u64)>,
    /// Generation counter: a scheduled `NodeYield` is valid only if its
    /// generation matches (interrupts bump the generation).
    gen: u64,
    outgoing: VecDeque<FragSnap>,
    msg_seq: u64,
    done: bool,
    /// Simulated position where the node last began idling straight to the
    /// quantum boundary (`None` while it still has work before the edge).
    /// The observability sample's per-node virtual-time lag is
    /// `q_end - idle_from`.
    idle_from: Option<SimTime>,
}

impl Node {
    /// Whether this node, anchored at the edge of a quantum of `q_len` that
    /// ends at `q_end`, runs straight to `q_end` with nothing to hand off
    /// and nothing that can interrupt it: mid-op, finished or parked (the
    /// quiet states in the module docs).
    fn quiet_to(&self, q_len: SimDuration, q_end: SimTime) -> bool {
        let quiet = match self.pending {
            Some(p) => {
                p.remaining >= q_len && self.outgoing.front().is_none_or(|f| f.departure > q_end)
            }
            None => {
                self.outgoing.is_empty()
                    && (self.done
                        || self.parked.is_some_and(|(t, completed)| {
                            t >= q_end && completed == self.exec.mailbox().completed_total()
                        }))
            }
        };
        #[cfg(test)]
        tests::note_quiet_check(self, q_end, quiet);
        quiet
    }
}

/// Where a run's jitter comes from. A node's k-th draw (`HostSpeed::resample`
/// on an RNG substream nothing else reads) depends on the seed, the node, its
/// host model and k alone, so after a run's first `FEED_BLOCK` rounds a helper
/// draws the odd-indexed nodes' ahead, on clones of their speeds. A capture
/// run's helper stops at the edge and its streams go into the nodes.
struct Feed<'s, 'e> {
    scope: &'s Scope<'s, 'e>,
    /// Whether the host has a CPU for a helper beside the engine's: on one
    /// CPU the two would take turns, and the hand-off would be pure cost.
    helper: bool,
    /// Rounds drawn in this run.
    drawn: u64,
    /// The round a capture run stops after; its helper draws no further.
    capture_at: Option<u64>,
    ahead: Option<Ahead<'s>>,
}

/// The engine's end of a helper: blocks of a value per odd-indexed node per round.
struct Ahead<'s> {
    full: Receiver<Vec<f64>>,
    empty: SyncSender<Vec<f64>>,
    block: Vec<f64>,
    read: usize,
    helper: ScopedJoinHandle<'s, Vec<HostSpeed>>,
}

impl Feed<'_, '_> {
    /// Draws round `index`, every node's next jitter; after the run's first
    /// block starts the helper, unless there is no CPU for it or the run
    /// stops within one more: the engine waits for the helper's first
    /// block, so it pays from its second.
    fn draw<T>(&mut self, nodes: &mut [T], speed: fn(&mut T) -> &mut HostSpeed, index: u64) {
        draw_round(nodes.iter_mut().map(speed), self.ahead.as_mut());
        self.drawn += 1;
        if !self.helper
            || self.drawn != FEED_BLOCK
            || self.capture_at.is_some_and(|c| c <= index + FEED_BLOCK)
        {
            return;
        }
        let mut rounds = self.capture_at.map_or(u64::MAX, |c| c - index);
        let mut speeds: Vec<_> = odd(nodes).map(|n| speed(n).clone()).collect();
        let len = FEED_BLOCK as usize * speeds.len();
        let (full_tx, full) = sync_channel(FEED_BUFFERS);
        let (empty, empty_rx) = sync_channel(FEED_BUFFERS);
        for _ in 1..FEED_BUFFERS {
            let _ = empty.send(Vec::with_capacity(len));
        }
        #[cfg(test)]
        tests::note_helper_spawn();
        // Fills the blocks it is handed until `rounds` or the engine hangs up.
        let helper = self.scope.spawn(move || {
            for mut block in empty_rx.iter() {
                let n = rounds.min(FEED_BLOCK);
                block.clear();
                for _ in 0..n {
                    draw_round(speeds.iter_mut(), None);
                    block.extend(speeds.iter().map(HostSpeed::jitter));
                }
                rounds -= n;
                if n == 0 || full_tx.send(block).is_err() {
                    break;
                }
            }
            speeds
        });
        self.ahead = Some(Ahead {
            full,
            empty,
            block: Vec::with_capacity(len),
            read: 0,
            helper,
        });
    }

    /// Joins a capture run's helper and installs its streams, which stopped
    /// where inline draws would have.
    fn install<T>(&mut self, nodes: &mut [T], speed: fn(&mut T) -> &mut HostSpeed) {
        if let Some(ahead) = self.ahead.take() {
            drop((ahead.full, ahead.empty));
            let streams = ahead.helper.join().expect("the helper panicked");
            for (node, stream) in odd(nodes).zip(streams) {
                *speed(node) = stream;
            }
        }
    }
}

impl Ahead<'_> {
    /// The next value drawn ahead; waits for the helper when it is behind.
    fn next(&mut self) -> f64 {
        if self.read == self.block.len() {
            // Fails only once a capture run's helper is done.
            let _ = self.empty.send(std::mem::take(&mut self.block));
            self.block = self.full.recv().expect("no helper");
            self.read = 0;
        }
        self.read += 1;
        self.block[self.read - 1]
    }
}

/// The error for a quantum edge past `u64::MAX` simulated nanoseconds,
/// after `quanta` completed barriers.
fn edge_overflow(quanta: u64) -> SimError {
    SimError::SimTimeOverflow {
        engine: EngineKind::Deterministic,
        quanta,
    }
}

/// Whether the host has a CPU for the jitter helper beside the engine's.
fn spare_cpu() -> bool {
    #[cfg(test)]
    if tests::SPARE_CPU_ASSUMED.with(std::cell::Cell::get) {
        return true;
    }
    std::thread::available_parallelism().is_ok_and(|p| p.get() > 1)
}

/// The odd-indexed nodes: the ones the helper draws for.
fn odd<T>(nodes: &mut [T]) -> impl Iterator<Item = &mut T> {
    nodes.iter_mut().skip(1).step_by(2)
}

/// Draws each speed's next jitter through `HostSpeed::resample`, but while a
/// helper runs, the odd-indexed ones take theirs from it.
fn draw_round<'n>(speeds: impl Iterator<Item = &'n mut HostSpeed>, mut a: Option<&mut Ahead>) {
    for (i, speed) in speeds.enumerate() {
        match a.as_deref_mut() {
            Some(a) if i % 2 == 1 => speed.set_jitter(a.next()),
            _ => speed.resample(),
        }
    }
}

/// What a step of the engine returns: nothing, or the error ending the run.
type Step = Result<(), SimError>;

#[derive(Debug)]
enum Ev {
    NodeYield { node: usize, gen: u64 },
    // The fragment, and the node that sent it.
    FragAtController(FragSnap, usize),
    BarrierDone,
}

struct Engine<'a, R> {
    cfg: &'a ClusterConfig,
    nodes: Vec<Node>,
    net: NetworkController,
    /// The `(receiver, arrival)` copies of the fragment being routed; reused
    /// across fragments.
    fan_out: Vec<(usize, SimTime)>,
    /// Events in host-time order; equal times pop in the order they were
    /// scheduled, which is a function of the simulated history alone.
    queue: EventQueue<HostTime, Ev>,
    /// The barrier completed with nothing in flight: its completion at this
    /// host time is the next thing to happen and needs no queue entry.
    barrier_due: Option<HostTime>,
    policy: Box<dyn QuantumPolicy>,
    q_len: SimDuration,
    q_start: SimTime,
    q_end: SimTime,
    barrier_arrived: usize,
    barrier_latest: HostTime,
    /// Quanta completed since simulated time zero (a resumed run continues
    /// the count); also the index of the next recorded sample.
    quanta: u64,
    in_flight_frags: usize,
    n_finished: usize,
    finished: bool,
    final_host: HostTime,
    rec: R,
    /// Stragglers seen during the current quantum (whole-run totals live in
    /// the network controller).
    q_stragglers: StragglerStats,
    /// Scratch lanes for sample assembly, reused across quanta.
    scratch_waits: Vec<u64>,
    scratch_lags: Vec<u64>,
    /// The captured state, once the capture point is reached.
    captured: Option<SnapshotBody>,
}

/// How a deterministic-engine run ended: it either ran to completion or
/// stopped at a requested quantum edge with a captured snapshot body.
pub(crate) enum DetOutcome<R> {
    /// The run completed.
    Finished(Box<RunResult>, R),
    /// The run stopped at the capture point.
    Captured(Box<SnapshotBody>),
}

/// The deterministic engine's entry, which the unified `Sim` builder
/// dispatches to: optionally seed the engine from a snapshot body, optionally
/// stop-and-capture after `capture_at` completed quanta.
pub(crate) fn run_cluster_det<R: Recorder>(
    programs: Vec<Program>,
    config: &ClusterConfig,
    net: NetworkController,
    recorder: R,
    resume: Option<&SnapshotBody>,
    capture_at: Option<u64>,
) -> Result<DetOutcome<R>, SimError> {
    assert!(programs.len() >= 2, "a cluster needs at least 2 nodes");
    for (i, p) in programs.iter().enumerate() {
        assert_eq!(p.rank().index(), i, "program {i} is for {}", p.rank());
    }
    let engine = match resume {
        None => Engine::new(programs, config, net, recorder),
        Some(body) => Engine::resumed(programs, config, net, recorder, body)?,
    };
    engine.run(resume.is_none(), capture_at)
}

impl<'a, R: Recorder> Engine<'a, R> {
    fn new(programs: Vec<Program>, cfg: &'a ClusterConfig, net: NetworkController, rec: R) -> Self {
        let nodes = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Node {
                exec: NodeExecutor::new(p, cfg.cpu),
                speed: HostSpeed::new(cfg.host_for(i), Rng::substream(cfg.seed, i as u64)),
                sim: SimTime::ZERO,
                host: HostTime::ZERO,
                seg: None,
                pending: None,
                at_barrier: false,
                blocked_no_candidate: false,
                parked: None,
                gen: 0,
                outgoing: VecDeque::new(),
                msg_seq: 0,
                done: false,
                idle_from: None,
            })
            .collect();
        Self::assemble(cfg, nodes, net, rec, cfg.sync.build())
    }

    /// An engine over `nodes` at time zero, the policy's first quantum ahead.
    fn assemble(
        cfg: &'a ClusterConfig,
        nodes: Vec<Node>,
        net: NetworkController,
        rec: R,
        policy: Box<dyn QuantumPolicy>,
    ) -> Self {
        let n = nodes.len();
        let q_len = policy.initial_quantum();
        Self {
            cfg,
            nodes,
            net,
            fan_out: Vec::new(),
            queue: EventQueue::new(),
            barrier_due: None,
            policy,
            q_len,
            q_start: SimTime::ZERO,
            q_end: SimTime::ZERO + q_len,
            barrier_arrived: 0,
            barrier_latest: HostTime::ZERO,
            quanta: 0,
            in_flight_frags: 0,
            n_finished: 0,
            finished: false,
            final_host: HostTime::ZERO,
            rec,
            q_stragglers: StragglerStats::default(),
            scratch_waits: Vec::with_capacity(n),
            scratch_lags: Vec::with_capacity(n),
            captured: None,
        }
    }

    /// Rebuilds an engine from a snapshot body: every node sits anchored at
    /// the captured cut (`sim == q_start`, `host == now`), in-flight
    /// fragments are re-scheduled at their captured controller-arrival
    /// times, and all whole-run counters continue from their captured
    /// values. Running the result is bit-identical to never having stopped.
    fn resumed(
        programs: Vec<Program>,
        cfg: &'a ClusterConfig,
        mut net: NetworkController,
        rec: R,
        body: &SnapshotBody,
    ) -> Result<Self, SimError> {
        let n = programs.len();
        let mut policy = cfg.sync.build();
        body.check(n, &mut *policy)?;
        net.restore_counters(body.total_packets, body.stragglers.restore()?);
        let mut n_finished = 0;
        let mut nodes = Vec::with_capacity(n);
        for (i, (p, ns)) in programs.into_iter().zip(&body.nodes).enumerate() {
            let exec = body.restore_exec(i, p, cfg.cpu)?;
            let speed = HostSpeed::from_state(cfg.host_for(i), ns.speed)
                .ok_or_else(|| SimError::snapshot_format(format!("node {i}: invalid RNG state")))?;
            if ns.done {
                n_finished += 1;
            }
            nodes.push(Node {
                exec,
                speed,
                sim: body.q_start,
                host: body.now_host,
                seg: None,
                pending: ns
                    .pending
                    .map(|(remaining, idle)| Pending { remaining, idle }),
                at_barrier: false,
                blocked_no_candidate: ns.blocked_no_candidate,
                parked: None,
                gen: 0,
                outgoing: ns.outgoing.iter().cloned().collect(),
                msg_seq: ns.msg_seq,
                done: ns.done,
                idle_from: None,
            });
        }
        let mut engine = Self::assemble(cfg, nodes, net, rec, policy);
        engine.q_len = body.q_len;
        engine.q_start = body.q_start;
        let edge = body.q_start.checked_add(body.q_len);
        engine.q_end = edge.ok_or_else(|| edge_overflow(body.quanta))?;
        engine.quanta = body.quanta;
        engine.n_finished = n_finished;
        // Re-schedule in-flight fragments FIRST (before any segment events):
        // they were scheduled before the cut in the uninterrupted run, so
        // re-creating them first reproduces the FIFO tie-break order.
        for f in &body.in_flight {
            engine.in_flight_frags += 1;
            engine.queue.schedule(
                f.due_host,
                Ev::FragAtController(f.frag.clone(), f.src as usize),
            );
        }
        Ok(engine)
    }

    /// Runs to the end or to quantum edge `capture_at`; only a `fresh` run draws round 0.
    fn run(mut self, fresh: bool, capture_at: Option<u64>) -> Result<DetOutcome<R>, SimError> {
        std::thread::scope(move |scope| {
            let mut feed = Feed {
                scope,
                helper: spare_cpu(),
                drawn: 0,
                capture_at,
                ahead: None,
            };
            if fresh {
                feed.draw(&mut self.nodes, |n| &mut n.speed, self.quanta);
            }
            self.start_quantum()?;
            while !self.finished && self.captured.is_none() {
                if let Some(now) = self.barrier_due.take() {
                    self.on_barrier_done(now, &mut feed)?;
                    continue;
                }
                let Some((time, ev)) = self.queue.pop() else {
                    return Err(SimError::EngineInvariant {
                        detail: format!(
                            "event queue drained with {} of {} programs unfinished",
                            self.nodes.len() - self.n_finished,
                            self.nodes.len()
                        ),
                    });
                };
                match ev {
                    Ev::NodeYield { node, gen } => self.on_node_yield(node, gen, time)?,
                    Ev::FragAtController(frag, src) => self.on_frag(frag, src, time)?,
                    Ev::BarrierDone => self.on_barrier_done(time, &mut feed)?,
                }
            }
            if let Some(body) = self.captured.take() {
                return Ok(DetOutcome::Captured(Box::new(body)));
            }
            let (result, rec) = self.into_result();
            Ok(DetOutcome::Finished(Box::new(result), rec))
        })
    }

    /// Starts the quantum `[q_start, q_end)`. A quiet one (see the module
    /// docs) is closed here, before any node moves; otherwise every node
    /// leaves the edge and what that produces goes on the queue.
    fn start_quantum(&mut self) -> Step {
        let quiet = |n: &Node| n.quiet_to(self.q_len, self.q_end);
        if self.in_flight_frags == 0 && self.nodes.iter().all(quiet) {
            return self.close_quiet_quantum();
        }
        for i in 0..self.nodes.len() {
            self.advance_node(i)?;
            if self.finished {
                break;
            }
        }
        Ok(())
    }

    /// Closes a quiet quantum in one pass, leaving every node where the event
    /// path would: at the edge and the barrier, at its segment's end host time.
    fn close_quiet_quantum(&mut self) -> Step {
        let q_len = self.q_len;
        for i in 0..self.nodes.len() {
            let idle = self.nodes[i].pending.is_none_or(|p| p.idle);
            let end_host = self.end_host(i, q_len, idle)?;
            let node = &mut self.nodes[i];
            node.sim = self.q_end;
            node.host = end_host;
            node.at_barrier = true;
            // A mid-op node still has work before the edge; a finished or
            // parked one idled the whole quantum.
            node.idle_from = None;
            match &mut node.pending {
                Some(p) if p.remaining > q_len => p.remaining -= q_len,
                Some(_) => node.pending = None,
                None => node.idle_from = Some(self.q_start),
            }
            self.barrier_latest = self.barrier_latest.max(end_host);
        }
        self.barrier_arrived = self.nodes.len();
        self.barrier_due = Some(self.barrier_done_at()?);
        Ok(())
    }

    /// Drives node `i` forward from its anchored position until a segment
    /// is scheduled, the node parks at the barrier, or the run completes.
    fn advance_node(&mut self, i: usize) -> Step {
        loop {
            if self.finished {
                return Ok(());
            }
            if self.nodes[i].sim >= self.q_end {
                debug_assert_eq!(self.nodes[i].sim, self.q_end, "node overshot quantum end");
                return self.enter_barrier(i);
            }
            if let Some(p) = self.nodes[i].pending {
                let to_q = self.q_end - self.nodes[i].sim;
                return self.schedule_segment(i, SegKind::Op, p.remaining.min(to_q), p.idle);
            }
            let now = self.nodes[i].sim;
            let node = &mut self.nodes[i];
            let action = node.exec.next_action(now);
            node.blocked_no_candidate = action == Action::Blocked;
            node.parked = match action {
                Action::Blocked => Some(SimTime::MAX),
                Action::WaitUntil(t) => Some(t),
                _ => None,
            }
            .map(|t| (t, node.exec.mailbox().completed_total()));
            match action {
                Action::Advance { dur, ops: _, idle } => {
                    // Sampling (§7 future work): guest timing produced while
                    // fast-forwarding carries the model's estimation bias.
                    let dur = match (&self.cfg.sampling, idle) {
                        (Some(s), false) => dur.mul_f64(s.timing_bias_at(self.cfg.seed, i, now)),
                        _ => dur,
                    };
                    self.nodes[i].pending = Some(Pending {
                        remaining: dur,
                        idle,
                    });
                }
                Action::Send { dst, bytes, tag } => self.start_send(i, dst, bytes, tag),
                Action::WaitUntil(t) => {
                    debug_assert!(t > now, "executor must consume past-ready messages");
                    let target = t.min(self.q_end);
                    return self.schedule_segment(i, SegKind::BlockedIdle, target - now, true);
                }
                Action::Blocked => {
                    return self.schedule_segment(i, SegKind::BlockedIdle, self.q_end - now, true);
                }
                Action::Finished => {
                    if !self.nodes[i].done {
                        self.nodes[i].done = true;
                        self.n_finished += 1;
                        if self.n_finished == self.nodes.len() {
                            self.finished = true;
                            self.final_host = self.nodes[i].host;
                            return Ok(());
                        }
                    }
                    // The guest OS keeps (idly) running until everyone is
                    // done; fast-forward to the quantum boundary.
                    return self.schedule_segment(i, SegKind::BlockedIdle, self.q_end - now, true);
                }
            }
        }
    }

    /// Queues the fragments of one message and charges the sender's NIC
    /// serialization time as a pending (non-interruptible) advance.
    fn start_send(&mut self, i: usize, dst: SendTarget, bytes: u64, tag: aqs_node::Tag) {
        let node = &mut self.nodes[i];
        let id = MessageId {
            src: node.exec.rank(),
            seq: node.msg_seq,
        };
        node.msg_seq += 1;
        let outgoing = &mut node.outgoing;
        let message = (dst, bytes, tag);
        let sent = FragSnap::serialize(&self.cfg.nic, id, message, node.sim, |frag| {
            outgoing.push_back(frag)
        });
        node.pending = Some(Pending {
            remaining: sent - node.sim,
            idle: false,
        });
    }

    /// The host time at which node `i`, anchored, has simulated `len` more
    /// of guest time: the one place a segment's host cost is computed.
    /// Sampling divides the host cost of active guest execution while the
    /// node simulator is fast-forwarding.
    fn end_host(&self, i: usize, len: SimDuration, idle: bool) -> Result<HostTime, SimError> {
        let node = &self.nodes[i];
        let Some(cost) = node.speed.host_cost(len, idle) else {
            return Err(self.overflow());
        };
        let cost = match (&self.cfg.sampling, idle) {
            (Some(s), false) => cost.div_f64(s.host_divisor_at(node.sim)),
            _ => cost,
        };
        node.host.checked_add(cost).ok_or_else(|| self.overflow())
    }

    /// The error for a modelled host time past `u64::MAX` nanoseconds.
    fn overflow(&self) -> SimError {
        SimError::HostClockOverflow {
            quanta: self.quanta,
        }
    }

    /// Schedules the next execution segment for node `i` (which must be
    /// anchored) and hands off any fragments departing within it: queues
    /// the segment's yield, then its departures.
    fn schedule_segment(&mut self, i: usize, kind: SegKind, len: SimDuration, idle: bool) -> Step {
        debug_assert!(!len.is_zero(), "zero-length segment scheduled");
        let end_host = self.end_host(i, len, idle)?;
        let hop = self.cfg.controller_hop;
        let quanta = self.quanta;
        let q_end = self.q_end;
        let node = &mut self.nodes[i];
        let start_sim = node.sim;
        let start_host = node.host;
        let end_sim = start_sim + len;
        // Virtual-time lag bookkeeping: an idle traversal that runs straight
        // to the quantum boundary starts (or restarts) the node's idle tail;
        // anything else means the node still has work before the edge.
        node.idle_from = if kind == SegKind::BlockedIdle && end_sim >= q_end {
            Some(start_sim)
        } else {
            None
        };
        node.gen += 1;
        let gen = node.gen;
        node.seg = Some(Segment {
            kind,
            start_sim,
            start_host,
            end_sim,
            end_host,
        });
        self.queue
            .schedule(end_host, Ev::NodeYield { node: i, gen });
        while let Some(front) = node.outgoing.front() {
            if front.departure > end_sim {
                break;
            }
            let frag = node.outgoing.pop_front().expect("front vanished");
            let at_controller = node
                .speed
                .host_cost(frag.departure - start_sim, idle)
                .and_then(|cost| start_host.checked_add(cost)?.checked_add(hop))
                .ok_or(SimError::HostClockOverflow { quanta })?;
            self.in_flight_frags += 1;
            self.queue
                .schedule(at_controller, Ev::FragAtController(frag, i));
        }
        Ok(())
    }

    fn on_node_yield(&mut self, i: usize, gen: u64, now: HostTime) -> Step {
        if self.nodes[i].gen != gen {
            return Ok(()); // cancelled by an interrupt
        }
        let node = &mut self.nodes[i];
        let seg = node.seg.take().expect("yield without active segment");
        debug_assert_eq!(seg.end_host, now);
        let advanced = seg.end_sim - seg.start_sim;
        node.sim = seg.end_sim;
        node.host = now;
        if seg.kind == SegKind::Op {
            let p = node
                .pending
                .as_mut()
                .expect("op segment without pending work");
            p.remaining = p.remaining.saturating_sub(advanced);
            if p.remaining.is_zero() {
                node.pending = None;
            }
        }
        self.advance_node(i)
    }

    fn enter_barrier(&mut self, i: usize) -> Step {
        let node = &mut self.nodes[i];
        debug_assert!(!node.at_barrier, "node entered barrier twice");
        node.at_barrier = true;
        let node_host = node.host;
        self.barrier_arrived += 1;
        self.barrier_latest = self.barrier_latest.max(node_host);
        if self.barrier_arrived == self.nodes.len() {
            // Every node is parked, so only a fragment in flight can still
            // happen before the barrier completes.
            let due = self.barrier_done_at()?;
            if self.in_flight_frags == 0 {
                self.barrier_due = Some(due);
            } else {
                self.queue.schedule(due, Ev::BarrierDone);
            }
        }
        Ok(())
    }

    /// When the barrier completes once every node has arrived: the latest
    /// arrival plus the barrier's host cost.
    fn barrier_done_at(&self) -> Result<HostTime, SimError> {
        let cost = self.cfg.barrier.cost(self.nodes.len());
        self.barrier_latest
            .checked_add(cost)
            .ok_or_else(|| self.overflow())
    }

    fn on_barrier_done(&mut self, now: HostTime, feed: &mut Feed<'_, '_>) -> Step {
        let np = self.net.end_quantum();
        if R::ENABLED {
            self.scratch_waits.clear();
            self.scratch_lags.clear();
            for node in &self.nodes {
                // `host` is still the node's barrier arrival time here; the
                // reset to `now` happens below.
                self.scratch_waits
                    .push((self.barrier_latest - node.host).as_nanos());
                self.scratch_lags.push(
                    node.idle_from
                        .map_or(0, |from| (self.q_end - from).as_nanos()),
                );
            }
            self.rec.record_quantum(&QuantumObs {
                index: self.quanta,
                start: self.q_start,
                len: self.q_len,
                host_ns: now.as_nanos(),
                packets: np,
                active_nodes: self.nodes.len() as u64,
                stragglers: self.q_stragglers.count(),
                max_straggler_delay: self.q_stragglers.max_delay(),
                barrier_wait_ns: &self.scratch_waits,
                vt_lag_ns: &self.scratch_lags,
            });
            self.q_stragglers = StragglerStats::default();
        }
        self.quanta += 1;
        self.check_deadlock(np)?;
        self.q_len = self.policy.next_quantum(np);
        self.q_start = self.q_end;
        let quanta = self.quanta;
        self.q_end = self
            .q_start
            .checked_add(self.q_len)
            .ok_or_else(|| edge_overflow(quanta))?;
        self.barrier_arrived = 0;
        self.barrier_latest = HostTime::ZERO;
        for node in &mut self.nodes {
            debug_assert!(node.at_barrier, "barrier completed with a straggling node");
            node.at_barrier = false;
            node.host = now;
            node.idle_from = None;
        }
        feed.draw(&mut self.nodes, |n| &mut n.speed, self.quanta);
        // The cut point: every node sits exactly at the quantum edge
        // (`sim == q_start`), the policy has already chosen the next
        // quantum, and host speeds are freshly resampled. Capturing here
        // and never starting the quantum leaves the run resumable with
        // zero divergence.
        if feed.capture_at == Some(self.quanta) {
            feed.install(&mut self.nodes, |n| &mut n.speed);
            self.captured = Some(self.capture(now));
            return Ok(());
        }
        self.start_quantum()
    }

    /// Serializes the full engine state at the quantum-edge cut point.
    ///
    /// Must only be called from [`on_barrier_done`](Self::on_barrier_done)
    /// after the per-node reset loop: every node is anchored at
    /// `sim == q_start`, `host == now`, with no active segment, so none of
    /// that per-segment state needs to be stored. The event queue holds only
    /// in-flight fragments (and stale, generation-invalidated yields), which
    /// are drained in pop order so resume can re-schedule them with the
    /// same FIFO tie-breaks.
    fn capture(&mut self, now: HostTime) -> SnapshotBody {
        let mut in_flight = Vec::with_capacity(self.in_flight_frags);
        while let Some((time, ev)) = self.queue.pop() {
            if let Ev::FragAtController(frag, src) = ev {
                in_flight.push(InFlightSnap {
                    due_host: time,
                    src: src as u32,
                    frag,
                });
            }
        }
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let speed = n.speed.export_state();
                // One draw from a *clone* of the captured stream. Restore
                // verifies this word before trusting the stream, catching
                // skipped or reordered draws that a checksum cannot see.
                let rng_probe = aqs_rng::Rng::from_state(speed.rng)
                    .expect("live RNG state is valid")
                    .next_u64();
                NodeSnap {
                    exec: n.exec.export_state(),
                    speed,
                    rng_probe,
                    msg_seq: n.msg_seq,
                    pending: n.pending.as_ref().map(|p| (p.remaining, p.idle)),
                    outgoing: n.outgoing.iter().cloned().collect(),
                    done: n.done,
                    blocked_no_candidate: n.blocked_no_candidate,
                }
            })
            .collect();
        SnapshotBody {
            fingerprint: 0, // stamped by the caller in sim.rs
            quanta: self.quanta,
            now_host: now,
            q_start: self.q_start,
            q_len: self.q_len,
            policy_state: self.policy.save_state(),
            total_packets: self.net.total_packets(),
            stragglers: StragglerSnap::capture(self.net.stragglers()),
            nodes,
            in_flight,
        }
    }

    /// A quantum with zero packets, zero in-flight fragments and every
    /// unfinished node blocked with no candidate message can never make
    /// progress: the workload deadlocked.
    fn check_deadlock(&self, np: u64) -> Result<(), SimError> {
        if np != 0 || self.in_flight_frags != 0 {
            return Ok(());
        }
        let stuck = self.nodes.iter().all(|n| {
            n.done || (n.blocked_no_candidate && n.pending.is_none() && n.outgoing.is_empty())
        });
        if stuck && self.n_finished < self.nodes.len() {
            let blocked: Vec<String> = self
                .nodes
                .iter()
                .filter(|n| !n.done)
                .map(|n| format!("{} at op {}", n.exec.rank(), n.exec.pc()))
                .collect();
            return Err(SimError::Deadlock {
                nodes: format!("{blocked:?}"),
            });
        }
        Ok(())
    }

    /// Receiver's simulated position at host time `h`.
    fn node_sim_pos(&self, j: usize, h: HostTime) -> SimTime {
        let node = &self.nodes[j];
        match &node.seg {
            Some(seg) => {
                if h >= seg.end_host {
                    seg.end_sim
                } else if h <= seg.start_host {
                    seg.start_sim
                } else {
                    let host_span = (seg.end_host - seg.start_host).as_nanos() as f64;
                    let frac = (h - seg.start_host).as_nanos() as f64 / host_span;
                    let sim_span = (seg.end_sim - seg.start_sim).as_nanos() as f64;
                    seg.start_sim + SimDuration::from_nanos((frac * sim_span) as u64)
                }
            }
            None => node.sim,
        }
    }

    /// What this engine does with an arrival: compares it with where the
    /// receiver is at this host instant.
    fn on_frag(&mut self, frag: FragSnap, src: usize, now: HostTime) -> Step {
        self.in_flight_frags -= 1;
        let mut copies = std::mem::take(&mut self.fan_out);
        self.net
            .route(src, frag.dst, frag.bytes, frag.departure, |j, arrival| {
                if R::ENABLED {
                    self.rec.record_packet(frag.departure, src, j, frag.bytes);
                }
                copies.push((j, arrival))
            });
        for (j, arrival) in copies.drain(..) {
            let pos = self.node_sim_pos(j, now);
            // Straggler rule (§3): a packet cannot be delivered in the
            // receiver's past. If the receiver finished its quantum, `pos`
            // is the quantum end, i.e. the next quantum's start — the
            // Figure 3(d) "latency snaps to next quantum" case.
            let eff = arrival.max(pos);
            if eff > arrival {
                #[cfg(feature = "fault-inject")]
                let skip = crate::fault::armed(crate::fault::Fault::DetStragglerSkip);
                #[cfg(not(feature = "fault-inject"))]
                let skip = false;
                if !skip {
                    self.net.record_straggler(eff - arrival);
                    if R::ENABLED {
                        self.q_stragglers.record(eff - arrival);
                    }
                }
            }
            let completed = self.nodes[j]
                .exec
                .deliver_fragment(frag.meta, frag.frag_index, eff);
            if completed.is_some() && !self.nodes[j].done && !self.nodes[j].at_barrier {
                let interrupt = matches!(
                    self.nodes[j].seg,
                    Some(Segment {
                        kind: SegKind::BlockedIdle,
                        ..
                    })
                );
                if interrupt {
                    let node = &mut self.nodes[j];
                    node.sim = pos;
                    node.host = now;
                    node.gen += 1; // invalidate the scheduled yield
                    node.seg = None;
                    self.advance_node(j)?;
                }
            }
        }
        self.fan_out = copies;
        Ok(())
    }

    fn into_result(mut self) -> (RunResult, R) {
        let final_host = self.final_host;
        let per_node: Vec<NodeResult> = self
            .nodes
            .iter_mut()
            .map(|n| NodeResult::collect(&mut n.exec, n.sim))
            .collect();
        let sim_end = per_node
            .iter()
            .map(|n| n.finish_sim)
            .max()
            .expect("at least two nodes");
        if R::ENABLED {
            // The run ends mid-quantum (the last program finishes before the
            // barrier), so flush a final partial sample: without it the
            // per-quantum packet counts would not sum to `total_packets`.
            let np = self.net.end_quantum();
            let len = if sim_end > self.q_start {
                sim_end - self.q_start
            } else {
                SimDuration::ZERO
            };
            self.rec.record_quantum(&QuantumObs {
                index: self.quanta,
                start: self.q_start,
                len,
                host_ns: final_host.as_nanos(),
                packets: np,
                active_nodes: per_node.len() as u64,
                stragglers: self.q_stragglers.count(),
                max_straggler_delay: self.q_stragglers.max_delay(),
                // No barrier ran for the partial quantum: the per-node lanes
                // carry no information, so leave them zero-filled.
                barrier_wait_ns: &[],
                vt_lag_ns: &[],
            });
        }
        let result = RunResult {
            sync_label: self.policy.label(),
            n_nodes: per_node.len(),
            sim_end,
            host_elapsed: final_host - HostTime::ZERO,
            per_node,
            stragglers: *self.net.stragglers(),
            total_packets: self.net.total_packets(),
            total_quanta: self.quanta,
        };
        (result, self.rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BarrierCostModel;
    use crate::sim::Sim;
    use aqs_core::SyncConfig;
    use aqs_node::{HostModel, ProgramBuilder, Rank, RegionId, Tag};
    use aqs_obs::{FlightRecorder, ObsConfig};
    use std::cell::Cell;

    thread_local! {
        /// How often each quiet-check branch was taken on this thread:
        /// mid-op, finished, parked on `Blocked`, parked on `WaitUntil`, and
        /// a parked answer invalidated by a message completed since.
        static QUIET_BRANCHES: Cell<[u64; 5]> = const { Cell::new([0; 5]) };
        /// Helper threads started by runs on this thread.
        static HELPERS: Cell<u64> = const { Cell::new(0) };
        /// Runs on this thread start the helper whatever the host's CPU
        /// count: set by the tests that compare it with inline draws.
        pub(super) static SPARE_CPU_ASSUMED: Cell<bool> = const { Cell::new(false) };
    }

    /// Counts a helper thread about to start.
    pub(super) fn note_helper_spawn() {
        HELPERS.with(|c| c.set(c.get() + 1));
    }

    /// Counts the branch [`Node::quiet_to`] just took.
    pub(super) fn note_quiet_check(n: &Node, q_end: SimTime, quiet: bool) {
        let branch = match (quiet, n.pending, n.done, n.parked) {
            (true, Some(_), _, _) => 0,
            (true, None, true, _) => 1,
            (true, None, false, Some((SimTime::MAX, _))) => 2,
            (true, None, false, Some(_)) => 3,
            (false, None, false, Some((t, _))) if t >= q_end && n.outgoing.is_empty() => 4,
            _ => return,
        };
        QUIET_BRANCHES.with(|c| {
            let mut counts = c.get();
            counts[branch] += 1;
            c.set(counts);
        });
    }

    /// Test shorthand for an unrecorded deterministic run through `Sim`.
    fn run_cluster(programs: Vec<Program>, config: &ClusterConfig) -> RunResult {
        let report = Sim::new(programs).config(config.clone()).run();
        report
            .detail
            .as_deterministic()
            .expect("det detail")
            .clone()
    }

    fn ping_pong_programs(rounds: usize) -> Vec<Program> {
        let mut a = ProgramBuilder::new(Rank::new(0)).region_start(RegionId::KERNEL);
        let mut b = ProgramBuilder::new(Rank::new(1));
        for _ in 0..rounds {
            a = a
                .send(Rank::new(1), 64, Tag::new(0))
                .recv(Some(Rank::new(1)), Tag::new(1));
            b = b
                .recv(Some(Rank::new(0)), Tag::new(0))
                .send(Rank::new(0), 64, Tag::new(1));
        }
        vec![a.region_end(RegionId::KERNEL).build(), b.build()]
    }

    fn quick_config(sync: SyncConfig) -> ClusterConfig {
        ClusterConfig::new(sync).with_seed(11)
    }

    #[test]
    fn ping_pong_completes_under_ground_truth() {
        let result = run_cluster(
            ping_pong_programs(5),
            &quick_config(SyncConfig::ground_truth()),
        );
        assert_eq!(result.n_nodes, 2);
        assert_eq!(
            result.stragglers.count(),
            0,
            "Q <= T must be straggler-free"
        );
        // 5 round trips = 10 unicast packets.
        assert_eq!(result.total_packets, 10);
        assert_eq!(result.per_node[0].messages_received, 5);
        assert_eq!(result.per_node[1].messages_received, 5);
        assert!(result.sim_end > SimTime::ZERO);
        assert!(result.host_elapsed > aqs_time::HostDuration::ZERO);
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = quick_config(SyncConfig::paper_dyn1());
        let a = run_cluster(ping_pong_programs(5), &cfg);
        let b = run_cluster(ping_pong_programs(5), &cfg);
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.host_elapsed, b.host_elapsed);
        assert_eq!(a.stragglers.count(), b.stragglers.count());
        assert_eq!(a.total_quanta, b.total_quanta);
    }

    #[test]
    fn different_seed_changes_host_time_not_function() {
        let base = quick_config(SyncConfig::ground_truth());
        let a = run_cluster(ping_pong_programs(3), &base.clone().with_seed(1));
        let b = run_cluster(ping_pong_programs(3), &base.with_seed(2));
        // Functional outcome identical under ground truth…
        assert_eq!(
            a.per_node[0].messages_received,
            b.per_node[0].messages_received
        );
        assert_eq!(a.sim_end, b.sim_end);
        // …but the modelled host takes different wall time.
        assert_ne!(a.host_elapsed, b.host_elapsed);
    }

    #[test]
    fn longer_quanta_are_faster_but_dilate_time() {
        let programs = ping_pong_programs(20);
        let truth = run_cluster(programs.clone(), &quick_config(SyncConfig::ground_truth()));
        let loose = run_cluster(programs, &quick_config(SyncConfig::fixed_micros(100)));
        assert!(
            loose.host_elapsed < truth.host_elapsed,
            "bigger quantum must be faster: {} vs {}",
            loose.host_elapsed,
            truth.host_elapsed
        );
        // Round trips snap to quantum boundaries, dilating simulated time.
        assert!(loose.sim_end > truth.sim_end);
        assert!(
            loose.stragglers.count() > 0,
            "latency-bound ping-pong must straggle"
        );
    }

    #[test]
    fn compute_only_nodes_never_straggle() {
        let p0 = ProgramBuilder::new(Rank::new(0)).compute(500_000).build();
        let p1 = ProgramBuilder::new(Rank::new(1)).compute(900_000).build();
        let result = run_cluster(vec![p0, p1], &quick_config(SyncConfig::fixed_micros(1000)));
        assert_eq!(result.total_packets, 0);
        assert_eq!(result.stragglers.count(), 0);
        assert_eq!(result.total_ops(), 1_400_000);
    }

    #[test]
    fn adaptive_quantum_grows_in_silence_and_shrinks_on_traffic() {
        // Long compute, one message exchange, long compute.
        let mk = |r: u32, peer: u32| {
            let mut b = ProgramBuilder::new(Rank::new(r)).compute(3_000_000);
            if r == 0 {
                b = b.send(Rank::new(peer), 64, Tag::new(0));
            } else {
                b = b.recv(Some(Rank::new(peer)), Tag::new(0));
            }
            b.compute(3_000_000).build()
        };
        let sim = Sim::new(vec![mk(0, 1), mk(1, 0)]).config(quick_config(SyncConfig::paper_dyn1()));
        let rec = FlightRecorder::new(2, ObsConfig::new());
        let (_, rec) = sim.run_with_recorder(rec).expect("run succeeds");
        assert_eq!(rec.dropped(), 0, "the ring must hold the whole run");
        // All but the closing partial sample: the quanta the policy chose.
        let quanta: Vec<_> = rec.samples().take(rec.ring_len() - 1).collect();
        assert!(!quanta.is_empty());
        let max_q = quanta.iter().map(|q| q.len).max().unwrap();
        assert!(
            max_q > SimDuration::from_micros(5),
            "quantum should have grown during compute, max was {max_q}"
        );
        // Find the quantum that saw the packet: the next one must shrink.
        let busy = quanta
            .iter()
            .position(|q| q.packets > 0)
            .expect("packet quantum");
        if busy + 1 < quanta.len() {
            assert!(quanta[busy + 1].len < quanta[busy].len);
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let n = 4;
        let mut programs = vec![ProgramBuilder::new(Rank::new(0))
            .send_all(64, Tag::new(9))
            .build()];
        for r in 1..n {
            programs.push(
                ProgramBuilder::new(Rank::new(r))
                    .recv(Some(Rank::new(0)), Tag::new(9))
                    .build(),
            );
        }
        let result = run_cluster(programs, &quick_config(SyncConfig::ground_truth()));
        assert_eq!(result.total_packets, 3);
        for r in 1..n as usize {
            assert_eq!(result.per_node[r].messages_received, 1);
        }
    }

    #[test]
    fn multi_fragment_message_reassembles() {
        // 25 kB = 3 jumbo frames.
        let p0 = ProgramBuilder::new(Rank::new(0))
            .send(Rank::new(1), 25_000, Tag::new(0))
            .build();
        let p1 = ProgramBuilder::new(Rank::new(1))
            .recv(Some(Rank::new(0)), Tag::new(0))
            .build();
        let result = run_cluster(vec![p0, p1], &quick_config(SyncConfig::ground_truth()));
        assert_eq!(result.total_packets, 3);
        assert_eq!(result.per_node[1].messages_received, 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn recv_without_send_deadlocks() {
        let p0 = ProgramBuilder::new(Rank::new(0))
            .recv(Some(Rank::new(1)), Tag::new(0))
            .build();
        let p1 = ProgramBuilder::new(Rank::new(1)).compute(1000).build();
        let _ = run_cluster(vec![p0, p1], &quick_config(SyncConfig::fixed_micros(10)));
    }

    #[test]
    #[should_panic(expected = "program 1 is for rank 0, want rank 1")]
    fn mismatched_ranks_rejected() {
        let p = ProgramBuilder::new(Rank::new(0)).compute(1).build();
        let _ = run_cluster(
            vec![p.clone(), p],
            &quick_config(SyncConfig::ground_truth()),
        );
    }

    #[test]
    fn barrier_cost_dominates_small_quanta() {
        let programs = |_| {
            vec![
                ProgramBuilder::new(Rank::new(0)).compute(2_600_000).build(),
                ProgramBuilder::new(Rank::new(1)).compute(2_600_000).build(),
            ]
        };
        let expensive = quick_config(SyncConfig::ground_truth());
        let free = quick_config(SyncConfig::ground_truth()).with_barrier(BarrierCostModel::free());
        let slow = run_cluster(programs(()), &expensive);
        let fast = run_cluster(programs(()), &free);
        assert!(
            slow.host_elapsed > fast.host_elapsed * 5,
            "barrier cost should dominate 1 µs quanta: {} vs {}",
            slow.host_elapsed,
            fast.host_elapsed
        );
    }

    /// Figure 3(d): a packet that reaches the controller after its
    /// receiver finished the quantum is delivered at the next quantum
    /// start, and the snap is accounted as straggler delay.
    #[test]
    fn fig3d_snap_to_next_quantum() {
        // Node 1 is made enormously fast so it finishes the whole quantum
        // (and blocks at the barrier) long before node 0's packet reaches
        // the controller in host time.
        let q = SimDuration::from_micros(100);
        let p0 = ProgramBuilder::new(Rank::new(0))
            .compute(130_000) // 50 µs at 2.6 GHz: send mid-quantum
            .send(Rank::new(1), 64, Tag::new(0))
            .build();
        let p1 = ProgramBuilder::new(Rank::new(1))
            .recv(Some(Rank::new(0)), Tag::new(0))
            .build();
        let cfg = ClusterConfig::new(SyncConfig::Fixed(q))
            .with_seed(2)
            .with_host(HostModel::uniform(30.0, 1.0))
            // Node 1 "simulates" 3000x faster: it is at its barrier while
            // node 0 is still computing.
            .with_node_host(1, HostModel::uniform(0.01, 1.0));
        let result = run_cluster(vec![p0, p1], &cfg);
        assert_eq!(result.stragglers.count(), 1);
        // Ideal arrival ≈ 51 µs; delivery snapped to the quantum end at
        // 100 µs → delay ≈ 49 µs (serialization detail gives ±1 µs).
        let delay = result.stragglers.total_delay();
        assert!(
            delay > SimDuration::from_micros(45) && delay < SimDuration::from_micros(52),
            "snap delay was {delay}"
        );
        // The receiver's recv therefore completed at the next quantum start
        // (+ 2 µs software overhead), i.e. at ≈ 102 µs.
        let finish = result.per_node[1].finish_sim;
        assert!(
            finish >= SimTime::from_micros(100) && finish <= SimTime::from_micros(104),
            "receiver finished at {finish}"
        );
    }

    /// A blocked node's idle traversal is interrupted by a delivery whose
    /// arrival lies *behind* the traversal position: the packet straggles
    /// by the receiver's progress, not by the full quantum.
    #[test]
    fn blocked_receiver_interrupt_mid_quantum() {
        let q = SimDuration::from_micros(1000);
        let p0 = ProgramBuilder::new(Rank::new(0))
            .compute(260_000) // 100 µs, then send
            .send(Rank::new(1), 64, Tag::new(0))
            .compute(2_600_000)
            .build();
        let p1 = ProgramBuilder::new(Rank::new(1))
            .recv(Some(Rank::new(0)), Tag::new(0))
            .build();
        // Identical, deterministic speeds with NO idle fast-forward: the
        // blocked receiver's virtual clock tracks the sender's, and a slow
        // controller hop (90 µs host = 3 µs of guest progress at the 30x
        // slowdown) puts the receiver slightly past the 1 µs-latency
        // arrival when the fragment lands.
        let mut cfg = ClusterConfig::new(SyncConfig::Fixed(q))
            .with_seed(3)
            .with_host(HostModel::uniform(30.0, 1.0));
        cfg.controller_hop = aqs_time::HostDuration::from_micros(90);
        let result = run_cluster(vec![p0, p1], &cfg);
        // The straggle is hop-sized (~2 µs), not quantum-sized (1000 µs):
        // the delivery interrupted the receiver's idle traversal instead of
        // waiting for the barrier.
        assert_eq!(result.stragglers.count(), 1);
        assert!(
            result.stragglers.total_delay() < SimDuration::from_micros(5),
            "delay {} should be ~hop-sized, not quantum-sized",
            result.stragglers.total_delay()
        );
        // And the receiver finished mid-quantum — it did NOT wait for the
        // barrier (the interrupt worked).
        assert!(result.per_node[1].finish_sim < SimTime::from_micros(400));
    }

    #[test]
    fn sampling_speeds_up_and_biases_timing() {
        use aqs_node::SamplingModel;
        // Many fine-grained ops: the timing bias is sampled at each op's
        // start, so op granularity must undercut the sampling interval.
        let programs = || {
            let mk = |r| {
                let mut b = ProgramBuilder::new(Rank::new(r));
                for _ in 0..50 {
                    b = b.compute(100_000);
                }
                b.build()
            };
            vec![mk(0), mk(1)]
        };
        let base = quick_config(SyncConfig::fixed_micros(100));
        let plain = run_cluster(programs(), &base);
        let sampled = run_cluster(
            programs(),
            &base.clone().with_sampling(SamplingModel::new(
                SimDuration::from_micros(200),
                0.1,
                20.0,
                0.05,
            )),
        );
        assert!(
            sampled.host_elapsed < plain.host_elapsed,
            "sampling must cut host time: {} vs {}",
            sampled.host_elapsed,
            plain.host_elapsed
        );
        // Fast-forward timing estimation perturbs the simulated timeline…
        assert_ne!(sampled.sim_end, plain.sim_end);
        // …but only by the modelled few percent.
        let ratio = sampled.sim_end.as_nanos() as f64 / plain.sim_end.as_nanos() as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "timing bias too large: {ratio}"
        );
        // Functional behaviour is untouched.
        assert_eq!(sampled.total_ops(), plain.total_ops());
    }

    #[test]
    fn zero_error_sampling_keeps_timeline() {
        use aqs_node::SamplingModel;
        let programs = vec![
            ProgramBuilder::new(Rank::new(0)).compute(2_000_000).build(),
            ProgramBuilder::new(Rank::new(1)).compute(2_000_000).build(),
        ];
        let base = quick_config(SyncConfig::fixed_micros(100));
        let plain = run_cluster(programs.clone(), &base);
        let sampled = run_cluster(
            programs,
            &base.with_sampling(SamplingModel::new(
                SimDuration::from_micros(200),
                0.1,
                20.0,
                0.0,
            )),
        );
        assert_eq!(
            sampled.sim_end, plain.sim_end,
            "zero-sigma sampling must be exact"
        );
        assert!(sampled.host_elapsed < plain.host_elapsed);
    }

    #[test]
    fn flight_recorder_packet_sum_matches_total_and_run_is_unperturbed() {
        let cfg = quick_config(SyncConfig::paper_dyn1());
        let (report, fr) = Sim::new(ping_pong_programs(5))
            .config(cfg.clone())
            .run_with_recorder(FlightRecorder::new(2, ObsConfig::new()))
            .expect("run succeeds");
        let result = report.detail.as_deterministic().expect("det detail");
        assert_eq!(
            fr.total_packets(),
            result.total_packets,
            "per-quantum packet counts must sum to the run total"
        );
        assert!(fr.total_quanta() > 0);
        let sample_sum: u64 = fr.samples().map(|s| s.packets).sum();
        assert_eq!(sample_sum, result.total_packets, "ring kept every quantum");
        // Recording must not perturb the simulation itself.
        let null = run_cluster(ping_pong_programs(5), &cfg);
        assert_eq!(null.sim_end, result.sim_end);
        assert_eq!(null.host_elapsed, result.host_elapsed);
        assert_eq!(null.total_quanta, result.total_quanta);
    }

    /// Appends `rounds` of a ring that alternates long computes (stretches
    /// of quiet quanta) with small and multi-fragment sends and blocking
    /// receives; compute lengths are skewed by rank so early finishers idle
    /// to the edge.
    fn ring_phase(b: ProgramBuilder, r: u32, n: u32, rounds: u32) -> ProgramBuilder {
        (0..rounds).fold(b, |b, k| {
            let bytes = if k % 2 == 0 { 64 } else { 25_000 };
            b.compute(260_000 + 26_000 * u64::from((r + k) % 4))
                .send(Rank::new((r + 1) % n), bytes, Tag::new(k))
                .recv(Some(Rank::new((r + n - 1) % n)), Tag::new(k))
        })
    }

    /// Mid-op: after the ring, 500 µs of compute between a message rank 1
    /// does not wait for yet (tag 101) and the one it does (tag 100).
    fn long_compute_sender(n: u32) -> Program {
        ring_phase(ProgramBuilder::new(Rank::new(0)), 0, n, 2)
            .send(Rank::new(1), 64, Tag::new(101))
            .compute(1_300_000)
            .send(Rank::new(1), 25_000, Tag::new(100))
            .build()
    }

    /// Parked: on `Blocked` for tag 100 while rank 0 computes; tag 101
    /// completes for it meanwhile, which invalidates the parked answer;
    /// then on `WaitUntil`, tag 100 having landed long before its arrival.
    fn parked_receiver(n: u32) -> Program {
        ring_phase(ProgramBuilder::new(Rank::new(1)), 1, n, 2)
            .recv(Some(Rank::new(0)), Tag::new(100))
            .recv(Some(Rank::new(0)), Tag::new(101))
            .compute(26_000)
            .build()
    }

    /// Finished: after the ring, a short compute and done while ranks 0
    /// and 1 still run (at n = 2, rank 0 plays this part after its sends).
    fn early_finisher(r: u32, n: u32) -> Program {
        ring_phase(ProgramBuilder::new(Rank::new(r)), r, n, 2)
            .compute(26_000 * u64::from(r))
            .build()
    }

    /// A set that drives every branch of the quiet check, and the config
    /// that makes it: a 20 ms controller hop keeps fragments in flight
    /// across barriers and delivers them while their receiver sits at one,
    /// and a 500 µs link latency puts arrivals quanta past that.
    fn quiet_check_set(n: u32) -> (Vec<Program>, ClusterConfig) {
        let mut programs = vec![long_compute_sender(n), parked_receiver(n)];
        programs.extend((2..n).map(|r| early_finisher(r, n)));
        let mut cfg = ClusterConfig::new(SyncConfig::fixed_micros(10)).with_seed(17);
        cfg.controller_hop = aqs_time::HostDuration::from_millis(20);
        cfg.nic = aqs_net::NicModel::new(10_000_000_000, SimDuration::from_micros(500), 9000);
        (programs, cfg)
    }

    /// Every sample of a recorder, in a comparable form.
    fn samples(fr: &FlightRecorder) -> Vec<String> {
        fr.samples().map(|s| format!("{s:?}")).collect()
    }

    /// A deterministic run's whole result, in a comparable form.
    fn det_result(report: &crate::sim::RunReport) -> String {
        format!(
            "{:?}",
            report.detail.as_deterministic().expect("det detail")
        )
    }

    /// The cache behind the quiet pass is not snapshotted, so a run resumed
    /// at edge k takes the event path into quantum k where the uninterrupted
    /// run takes the quiet pass. Unrecorded: `step_snapshot(cursor, 1)` over
    /// every edge reaches the uninterrupted run. Recorded: resuming at every
    /// edge reproduces the uninterrupted run's samples from that edge on,
    /// per-node lanes included. At n = 2 and n = 8, with every quiet-check
    /// branch taken.
    #[test]
    fn single_quantum_chunks_through_quiet_and_busy_quanta_resume_exactly() {
        use crate::sim::SnapshotStep;
        // The `host_elapsed` literals come from the engine before the quiet
        // pre-check (which advanced every node and tested quietness after),
        // so the uninterrupted run is pinned too, not only its agreement
        // with the resumed ones.
        for (n, host_ns) in [(2, 207_697_294), (8, 551_130_151)] {
            QUIET_BRANCHES.with(|c| c.set([0; 5]));
            let (programs, cfg) = quiet_check_set(n);
            let sim = Sim::new(programs.clone()).config(cfg.clone());
            let whole = run_cluster(programs, &cfg);
            let recorded = sim.clone().record(ObsConfig::new()).run();
            let whole_samples = samples(recorded.obs.as_ref().expect("recorder attached"));
            let whole_result = det_result(&recorded);
            assert_eq!(whole_result, format!("{whole:?}"), "n={n}");
            let (mut cursor, mut quiet_cuts, mut busy_cuts) = (None, 0u32, 0u32);
            let chunked = loop {
                match sim.step_snapshot(cursor.as_ref(), 1).expect("chunk runs") {
                    SnapshotStep::Snapshot(s) => {
                        if s.body.in_flight.is_empty() {
                            quiet_cuts += 1;
                        } else {
                            busy_cuts += 1;
                        }
                        let k = s.body.quanta as usize;
                        let resumed = sim.clone().record(ObsConfig::new()).resume(&s).unwrap();
                        let resumed_samples = samples(resumed.obs.as_ref().unwrap());
                        assert_eq!(resumed_samples, whole_samples[k..], "n={n} k={k}");
                        assert_eq!(det_result(&resumed), whole_result, "n={n} k={k}");
                        cursor = Some(s);
                    }
                    SnapshotStep::Finished(report) => break report,
                }
            };
            assert!(
                quiet_cuts > 20 && busy_cuts > 0,
                "n={n}: {quiet_cuts} quiet, {busy_cuts} busy"
            );
            let branches = QUIET_BRANCHES.with(Cell::get);
            assert!(branches.iter().all(|&b| b > 0), "n={n}: {branches:?}");
            assert_eq!(whole.host_elapsed.as_nanos(), host_ns, "n={n}");
            assert_eq!(det_result(&chunked), whole_result, "n={n}");
        }
    }

    /// The modelled host clock of runs that are quiet from end to end is
    /// pinned to the values the all-events engine produced (parent commit):
    /// a compute-only pair, and a run whose last program finishes at the
    /// start of a quiet quantum, while the quantum's segments are still
    /// being collected.
    #[test]
    fn quiet_runs_keep_their_host_clock() {
        let pair = |a, b| {
            vec![
                ProgramBuilder::new(Rank::new(0)).compute(a).build(),
                ProgramBuilder::new(Rank::new(1)).compute(b).build(),
            ]
        };
        let uneven = run_cluster(
            pair(500_000, 900_000),
            &quick_config(SyncConfig::ground_truth()),
        );
        assert_eq!(uneven.host_elapsed.as_nanos(), 287_943_443);
        assert_eq!(uneven.sim_end, SimTime::from_nanos(346_154));
        assert_eq!(uneven.total_quanta, 346);
        // 26 000 ops = exactly 10 quanta of 1 µs: both programs finish on a
        // quantum edge, node 1 last, inside the collect pass.
        let edge = run_cluster(
            pair(26_000, 26_000),
            &quick_config(SyncConfig::ground_truth()),
        );
        assert_eq!(edge.host_elapsed.as_nanos(), 8_341_212);
        assert_eq!(edge.sim_end, SimTime::from_micros(10));
        assert_eq!(edge.total_quanta, 10);
    }

    /// The feed draws what `resample` draws: node 1's jitter over
    /// 3·`FEED_BLOCK` + 5 rounds equals a plain `resample` loop's, through
    /// the first inline block and the helper's block boundaries, and a feed
    /// bounded at a capture edge hands back the streams that loop reaches.
    #[test]
    fn the_feed_draws_what_an_inline_resample_loop_draws() {
        let rounds = 3 * FEED_BLOCK + 5;
        for edge in [None, Some(rounds - 1)] {
            let fresh =
                || [0, 1].map(|i| HostSpeed::new(HostModel::default(), Rng::substream(9, i)));
            let (mut fed, mut inline) = (fresh(), fresh());
            HELPERS.with(|c| c.set(0));
            std::thread::scope(|scope| {
                let mut feed = Feed {
                    scope,
                    helper: true,
                    drawn: 0,
                    capture_at: edge,
                    ahead: None,
                };
                for k in 0..rounds {
                    feed.draw(&mut fed, |s| s, k);
                    inline.iter_mut().for_each(HostSpeed::resample);
                    assert_eq!(
                        fed.each_ref().map(|s| s.jitter()),
                        inline.each_ref().map(|s| s.jitter()),
                        "round {k}"
                    );
                }
                if edge.is_some() {
                    feed.install(&mut fed, |s| s);
                    assert_eq!(
                        fed.each_ref().map(|s| s.export_state()),
                        inline.each_ref().map(|s| s.export_state())
                    );
                }
            });
            assert_eq!(HELPERS.with(Cell::get), 1, "edge {edge:?}");
        }
    }

    /// `rounds` of a ring long enough to outlast three feed blocks under
    /// the 1 µs ground truth, at `n` nodes.
    fn long_ring(n: u32, rounds: u32) -> Vec<Program> {
        (0..n)
            .map(|r| ring_phase(ProgramBuilder::new(Rank::new(r)), r, n, rounds).build())
            .collect()
    }

    /// ...and neither does any run on a host with one CPU.
    #[test]
    fn a_run_shorter_than_a_block_starts_no_helper() {
        let spare = std::thread::available_parallelism().is_ok_and(|p| p.get() > 1);
        let cfg = quick_config(SyncConfig::ground_truth());
        for (rounds, long) in [(2, false), (12, true)] {
            HELPERS.with(|c| c.set(0));
            let result = run_cluster(long_ring(2, rounds), &cfg);
            assert_eq!(result.total_quanta >= FEED_BLOCK, long, "{rounds} rounds");
            assert_eq!(
                HELPERS.with(Cell::get),
                u64::from(long && spare),
                "{rounds} rounds"
            );
        }
    }

    /// Resuming at and around a block boundary is a differential between
    /// the feed and inline draws. The reference snapshots come from
    /// `step_snapshot` chunks shorter than a block, which never start a
    /// helper; `snapshot_at(k)` starts one when it has more than a block to
    /// draw, from k = 2·`FEED_BLOCK` on, and the uninterrupted and resumed
    /// runs draw ahead throughout. At n = 2, 3 and 8, the two captures are
    /// equal byte for byte, and resuming from each cut reproduces the
    /// uninterrupted run, recorded and unrecorded. The helper starts on a
    /// one-CPU host too, so the differential holds there.
    #[test]
    fn resuming_at_a_block_boundary_matches_inline_draws() {
        use crate::sim::SnapshotStep;
        SPARE_CPU_ASSUMED.with(|c| c.set(true));
        let b = FEED_BLOCK;
        let cuts = [b - 1, b, b + 1, 2 * b, 2 * b + 3, 3 * b - 1];
        for n in [2, 3, 8] {
            let sim = Sim::new(long_ring(n, 30)).config(quick_config(SyncConfig::ground_truth()));
            let whole = sim.clone().run();
            assert!(
                whole.total_quanta > 3 * b,
                "n={n}: {} quanta",
                whole.total_quanta
            );
            let recorded = sim.clone().record(ObsConfig::new()).run();
            let whole_samples = samples(recorded.obs.as_ref().expect("recorder attached"));
            let whole_result = det_result(&whole);
            assert_eq!(det_result(&recorded), whole_result, "n={n}");
            let mut cursor = None;
            for k in cuts {
                HELPERS.with(|c| c.set(0));
                loop {
                    let at = cursor
                        .as_ref()
                        .map_or(0, |s: &crate::snapshot::SimSnapshot| s.quanta());
                    if at == k {
                        break;
                    }
                    match sim
                        .step_snapshot(cursor.as_ref(), (k - at).min(b - 1))
                        .unwrap()
                    {
                        SnapshotStep::Snapshot(s) => cursor = Some(s),
                        SnapshotStep::Finished(_) => panic!("n={n}: finished before {k}"),
                    }
                }
                assert_eq!(
                    HELPERS.with(Cell::get),
                    0,
                    "n={n} k={k}: the reference drew inline"
                );
                let fed = sim.snapshot_at(k).expect("capturable cut");
                assert_eq!(
                    HELPERS.with(Cell::get),
                    u64::from(k >= 2 * b),
                    "n={n} k={k}"
                );
                let inline = cursor.as_ref().expect("reference snapshot");
                assert!(
                    fed.to_bytes() == inline.to_bytes(),
                    "n={n} k={k}: snapshots differ"
                );
                assert_eq!(
                    det_result(&sim.resume(&fed).unwrap()),
                    whole_result,
                    "n={n} k={k}"
                );
                let resumed = sim.clone().record(ObsConfig::new()).resume(&fed).unwrap();
                assert_eq!(det_result(&resumed), whole_result, "n={n} k={k}");
                let resumed_samples = samples(resumed.obs.as_ref().unwrap());
                assert_eq!(resumed_samples, whole_samples[k as usize..], "n={n} k={k}");
            }
        }
    }

    #[test]
    fn uniform_speeds_and_free_hop_match_ideal_roundtrip() {
        // With identical node speeds there is no skew; the ping-pong's
        // simulated duration equals the ideal network latency budget.
        let cfg = ClusterConfig::new(SyncConfig::ground_truth())
            .with_host(HostModel::uniform(30.0, 0.02))
            .with_seed(5);
        let result = run_cluster(ping_pong_programs(1), &cfg);
        assert_eq!(result.stragglers.count(), 0);
        // Round trip: 2 × (64 B serialization + 1 µs latency + 2 µs recv
        // overhead), plus scheduling rounding.
        let span = result.per_node[0].region_duration(RegionId::KERNEL);
        let ideal = SimDuration::from_nanos(2 * (52 + 1_000 + 2_000));
        let slack = SimDuration::from_micros(2);
        assert!(
            span >= ideal && span <= ideal + slack,
            "round trip {span} outside [{ideal}, {}]",
            ideal + slack
        );
    }
}
