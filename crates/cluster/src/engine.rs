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
//! fragment always is one. Yields are queued unless the quantum is *quiet*:
//! nothing is in flight when it starts, nothing departs in it, and every
//! node's first segment runs straight to the quantum edge. Then no fragment
//! can reach the controller before the barrier and no idle traversal can be
//! interrupted, so the yields commute: each node enters the barrier at its
//! computed host time through the same handler, in rank order, and nothing
//! is queued. A barrier completion is queued only while fragments are in
//! flight (one of them may land first); otherwise it is the next thing to
//! happen and runs directly, so a stretch of quiet quanta never touches the
//! heap. The modelled clock, the recorder's lanes and the snapshot cut are
//! the same either way.
//!
//! Simulated time is derived: each node's position advances linearly within
//! its active segment at its current (jittered) simulation speed. Straggler
//! handling is the paper's §3 verbatim: when a fragment's computed arrival
//! time is behind the receiver's current simulated position, it is
//! delivered *now* and the delay is recorded; when the receiver has already
//! finished its quantum, delivery snaps to the next quantum start
//! (Figure 3(d)).

use crate::config::ClusterConfig;
use crate::result::{NodeResult, RunResult};
use crate::sim::SimError;
use crate::snapshot::{FragSnap, InFlightSnap, NodeSnap, SnapshotBody, StragglerSnap};
use aqs_core::QuantumPolicy;
use aqs_des::EventQueue;
use aqs_net::{NetworkController, StragglerStats};
use aqs_node::{Action, HostSpeed, MessageId, NodeExecutor, Program, SendTarget};
use aqs_obs::{QuantumObs, Recorder};
use aqs_rng::Rng;
use aqs_time::{HostTime, SimDuration, SimTime};
use std::collections::VecDeque;

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
    queue: EventQueue<HostTime, Ev>,
    /// Events the current handler produced, in the order it produced them;
    /// not yet queued. The run loop flushes them after every handler; a
    /// quiet quantum delivers its yields from the nodes and drops them.
    staged: Vec<(HostTime, Ev)>,
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
    /// This engine was seeded from a snapshot (skip the initial resample —
    /// the restored RNG streams already sit past their barrier draw).
    resumed: bool,
    /// Capture a snapshot after this many completed quanta, if set.
    capture_at: Option<u64>,
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
    let mut engine = match resume {
        None => Engine::new(programs, config, net, recorder),
        Some(body) => Engine::resumed(programs, config, net, recorder, body)?,
    };
    engine.capture_at = capture_at;
    engine.run()
}

impl<'a, R: Recorder> Engine<'a, R> {
    fn new(programs: Vec<Program>, cfg: &'a ClusterConfig, net: NetworkController, rec: R) -> Self {
        let n = programs.len();
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
                gen: 0,
                outgoing: VecDeque::new(),
                msg_seq: 0,
                done: false,
                idle_from: None,
            })
            .collect();
        let policy = cfg.sync.build();
        let q_len = policy.initial_quantum();
        Self {
            cfg,
            nodes,
            net,
            fan_out: Vec::new(),
            queue: EventQueue::new(),
            staged: Vec::with_capacity(n),
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
            resumed: false,
            capture_at: None,
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
        if body.nodes.len() != n {
            return Err(SimError::snapshot_format(format!(
                "snapshot has {} nodes, simulation has {n}",
                body.nodes.len()
            )));
        }
        net.restore_counters(body.total_packets, body.stragglers.restore()?);
        let mut policy = cfg.sync.build();
        policy
            .load_state(&body.policy_state)
            .map_err(SimError::snapshot_format)?;
        let mut n_finished = 0;
        let mut nodes = Vec::with_capacity(n);
        for (i, (p, ns)) in programs.into_iter().zip(&body.nodes).enumerate() {
            let exec = NodeExecutor::from_state(p, cfg.cpu, ns.exec.clone())
                .map_err(|e| SimError::snapshot_format(format!("node {i}: {e}")))?;
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
                gen: 0,
                outgoing: ns.outgoing.iter().cloned().collect(),
                msg_seq: ns.msg_seq,
                done: ns.done,
                idle_from: None,
            });
        }
        let mut engine = Self {
            cfg,
            nodes,
            net,
            fan_out: Vec::new(),
            queue: EventQueue::new(),
            staged: Vec::with_capacity(n),
            barrier_due: None,
            policy,
            q_len: body.q_len,
            q_start: body.q_start,
            q_end: body.q_start + body.q_len,
            barrier_arrived: 0,
            barrier_latest: HostTime::ZERO,
            quanta: body.quanta,
            in_flight_frags: 0,
            n_finished,
            finished: false,
            final_host: HostTime::ZERO,
            rec,
            q_stragglers: StragglerStats::default(),
            scratch_waits: Vec::with_capacity(n),
            scratch_lags: Vec::with_capacity(n),
            resumed: true,
            capture_at: None,
            captured: None,
        };
        // Re-schedule in-flight fragments FIRST (before any segment events):
        // they were scheduled before the cut in the uninterrupted run, so
        // re-creating them first reproduces the FIFO tie-break order.
        for f in &body.in_flight {
            if f.src as usize >= n {
                return Err(SimError::snapshot_format(format!(
                    "in-flight fragment from node {} of {n}",
                    f.src
                )));
            }
            engine.in_flight_frags += 1;
            engine.queue.schedule(
                f.due_host,
                Ev::FragAtController(f.frag.clone(), f.src as usize),
            );
        }
        Ok(engine)
    }

    fn run(mut self) -> Result<DetOutcome<R>, SimError> {
        if !self.resumed {
            for node in &mut self.nodes {
                node.speed.resample();
            }
        }
        self.start_quantum();
        while !self.finished && self.captured.is_none() {
            if let Some(now) = self.barrier_due.take() {
                self.on_barrier_done(now)?;
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
                Ev::NodeYield { node, gen } => self.on_node_yield(node, gen, time),
                Ev::FragAtController(frag, src) => self.on_frag(frag, src, time),
                Ev::BarrierDone => self.on_barrier_done(time)?,
            }
            self.flush_staged();
        }
        if let Some(body) = self.captured.take() {
            return Ok(DetOutcome::Captured(Box::new(body)));
        }
        let (result, rec) = self.into_result();
        Ok(DetOutcome::Finished(Box::new(result), rec))
    }

    /// Starts the quantum `[q_start, q_end)`: every node leaves the edge, and
    /// the events that produces are queued — unless the quantum is quiet
    /// (see the module docs), in which case each node's yield is delivered
    /// here, at its computed host time, and nothing is queued.
    fn start_quantum(&mut self) {
        for i in 0..self.nodes.len() {
            self.advance_node(i);
            if self.finished {
                return;
            }
        }
        let q_end = self.q_end;
        let quiet = self.in_flight_frags == 0
            && self
                .nodes
                .iter()
                .all(|n| n.seg.is_some_and(|seg| seg.end_sim == q_end));
        if !quiet {
            self.flush_staged();
            return;
        }
        self.staged.clear();
        for i in 0..self.nodes.len() {
            let node = &self.nodes[i];
            let seg = node.seg.expect("every node left the edge in a segment");
            self.on_node_yield(i, node.gen, seg.end_host);
        }
    }

    /// Queues the staged events in the order they were produced, which is
    /// what keeps sequence numbers — the FIFO tie-break — a function of the
    /// simulated history alone.
    fn flush_staged(&mut self) {
        for (at, ev) in self.staged.drain(..) {
            self.queue.schedule(at, ev);
        }
    }

    /// Drives node `i` forward from its anchored position until a segment
    /// is scheduled, the node parks at the barrier, or the run completes.
    fn advance_node(&mut self, i: usize) {
        loop {
            if self.finished {
                return;
            }
            if self.nodes[i].sim >= self.q_end {
                debug_assert_eq!(self.nodes[i].sim, self.q_end, "node overshot quantum end");
                self.enter_barrier(i);
                return;
            }
            if let Some(p) = self.nodes[i].pending {
                let to_q = self.q_end - self.nodes[i].sim;
                self.schedule_segment(i, SegKind::Op, p.remaining.min(to_q), p.idle);
                return;
            }
            let now = self.nodes[i].sim;
            let action = self.nodes[i].exec.next_action(now);
            if !matches!(action, Action::Blocked) {
                self.nodes[i].blocked_no_candidate = false;
            }
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
                    self.schedule_segment(i, SegKind::BlockedIdle, target - now, true);
                    return;
                }
                Action::Blocked => {
                    self.nodes[i].blocked_no_candidate = true;
                    self.schedule_segment(i, SegKind::BlockedIdle, self.q_end - now, true);
                    return;
                }
                Action::Finished => {
                    if !self.nodes[i].done {
                        self.nodes[i].done = true;
                        self.n_finished += 1;
                        if self.n_finished == self.nodes.len() {
                            self.finished = true;
                            self.final_host = self.nodes[i].host;
                            return;
                        }
                    }
                    // The guest OS keeps (idly) running until everyone is
                    // done; fast-forward to the quantum boundary.
                    self.schedule_segment(i, SegKind::BlockedIdle, self.q_end - now, true);
                    return;
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

    /// Schedules the next execution segment for node `i` (which must be
    /// anchored) and hands off any fragments departing within it: stages
    /// the segment's yield, then its departures.
    fn schedule_segment(&mut self, i: usize, kind: SegKind, len: SimDuration, idle: bool) {
        debug_assert!(!len.is_zero(), "zero-length segment scheduled");
        let hop = self.cfg.controller_hop;
        // Sampling divides the host cost of active guest execution while
        // the node simulator is fast-forwarding.
        let divisor = match (&self.cfg.sampling, idle) {
            (Some(s), false) => s.host_divisor_at(self.nodes[i].sim),
            _ => 1.0,
        };
        let q_end = self.q_end;
        let node = &mut self.nodes[i];
        let start_sim = node.sim;
        let start_host = node.host;
        let end_sim = start_sim + len;
        let end_host = start_host + node.speed.host_cost(len, idle).div_f64(divisor);
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
        self.staged.push((end_host, Ev::NodeYield { node: i, gen }));
        while let Some(front) = node.outgoing.front() {
            if front.departure > end_sim {
                break;
            }
            let frag = node.outgoing.pop_front().expect("front vanished");
            let dep_host = start_host + node.speed.host_cost(frag.departure - start_sim, idle);
            self.in_flight_frags += 1;
            self.staged
                .push((dep_host + hop, Ev::FragAtController(frag, i)));
        }
    }

    fn on_node_yield(&mut self, i: usize, gen: u64, now: HostTime) {
        if self.nodes[i].gen != gen {
            return; // cancelled by an interrupt
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
        self.advance_node(i);
    }

    fn enter_barrier(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        debug_assert!(!node.at_barrier, "node entered barrier twice");
        node.at_barrier = true;
        let node_host = node.host;
        self.barrier_arrived += 1;
        self.barrier_latest = self.barrier_latest.max(node_host);
        if self.barrier_arrived == self.nodes.len() {
            // Every node is parked, so only a fragment in flight can still
            // happen before the barrier completes.
            let due = self.barrier_latest + self.cfg.barrier.cost(self.nodes.len());
            if self.in_flight_frags == 0 {
                self.barrier_due = Some(due);
            } else {
                self.staged.push((due, Ev::BarrierDone));
            }
        }
    }

    fn on_barrier_done(&mut self, now: HostTime) -> Result<(), SimError> {
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
        self.q_end = self.q_start + self.q_len;
        self.barrier_arrived = 0;
        self.barrier_latest = HostTime::ZERO;
        for node in &mut self.nodes {
            debug_assert!(node.at_barrier, "barrier completed with a straggling node");
            node.at_barrier = false;
            node.host = now;
            node.idle_from = None;
            node.speed.resample();
        }
        // The cut point: every node sits exactly at the quantum edge
        // (`sim == q_start`), the policy has already chosen the next
        // quantum, and host speeds are freshly resampled. Capturing here
        // and never starting the quantum leaves the run resumable with
        // zero divergence.
        if self.capture_at == Some(self.quanta) {
            self.captured = Some(self.capture(now));
            return Ok(());
        }
        self.start_quantum();
        Ok(())
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
    fn on_frag(&mut self, frag: FragSnap, src: usize, now: HostTime) {
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
                    self.advance_node(j);
                }
            }
        }
        self.fan_out = copies;
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

    /// A ring that alternates long computes (stretches of quiet quanta)
    /// with small and multi-fragment sends and blocking receives; compute
    /// lengths are skewed by rank so early finishers idle to the edge.
    fn quiet_busy_ring(n: u32, rounds: u32) -> Vec<Program> {
        (0..n)
            .map(|r| {
                let mut b = ProgramBuilder::new(Rank::new(r));
                for k in 0..rounds {
                    let bytes = if k % 2 == 0 { 64 } else { 25_000 };
                    b = b
                        .compute(260_000 + 26_000 * u64::from((r + k) % 4))
                        .send(Rank::new((r + 1) % n), bytes, Tag::new(k))
                        .recv(Some(Rank::new((r + n - 1) % n)), Tag::new(k));
                }
                b.compute(130_000).build()
            })
            .collect()
    }

    /// `step_snapshot(cursor, 1)` over every quantum edge — cuts inside
    /// quiet stretches and cuts with fragments in flight — reaches the
    /// uninterrupted run, at n = 2 and n = 64 (the quiet test is O(n)).
    #[test]
    fn single_quantum_chunks_through_quiet_and_busy_quanta_resume_exactly() {
        use crate::sim::SnapshotStep;
        // The `host_elapsed` literals are the all-events engine's (parent
        // commit), so the uninterrupted run is pinned too, not only its
        // agreement with the chunked one.
        for (n, host_ns) in [(2, 146_241_059), (64, 1_089_407_528)] {
            // A controller hop of several quanta of host time keeps
            // fragments in flight across barriers.
            let mut cfg = ClusterConfig::new(SyncConfig::fixed_micros(10)).with_seed(17);
            cfg.controller_hop = aqs_time::HostDuration::from_millis(20);
            let sim = Sim::new(quiet_busy_ring(n, 4)).config(cfg.clone());
            let whole = run_cluster(quiet_busy_ring(n, 4), &cfg);
            let (mut cursor, mut quiet_cuts, mut busy_cuts) = (None, 0u32, 0u32);
            let chunked = loop {
                match sim.step_snapshot(cursor.as_ref(), 1).expect("chunk runs") {
                    SnapshotStep::Snapshot(s) => {
                        if s.body.in_flight.is_empty() {
                            quiet_cuts += 1;
                        } else {
                            busy_cuts += 1;
                        }
                        cursor = Some(s);
                    }
                    SnapshotStep::Finished(report) => break report,
                }
            };
            assert!(
                quiet_cuts > 20 && busy_cuts > 0,
                "n={n}: {quiet_cuts} quiet, {busy_cuts} busy"
            );
            let chunked = chunked.detail.as_deterministic().expect("det detail");
            assert_eq!(whole.host_elapsed.as_nanos(), host_ns, "n={n}");
            assert_eq!(chunked.sim_end, whole.sim_end, "n={n}");
            assert_eq!(chunked.host_elapsed, whole.host_elapsed, "n={n}");
            assert_eq!(chunked.total_quanta, whole.total_quanta, "n={n}");
            assert_eq!(chunked.total_packets, whole.total_packets, "n={n}");
            assert_eq!(chunked.stragglers, whole.stragglers, "n={n}");
            for (c, w) in chunked.per_node.iter().zip(&whole.per_node) {
                assert_eq!(c.finish_sim, w.finish_sim, "n={n}");
            }
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
