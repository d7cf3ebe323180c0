//! What the worker-pool engines ([`sharded`](crate::sharded) and
//! [`sharded_optimistic`](crate::sharded_optimistic)) share, and only that:
//! the run configuration [`Sim`](crate::Sim) hands them, how a run starts
//! (fresh or at a snapshot's cut) and ends, the leader's quantum clock, the
//! one record a node is and the step that runs it to a quantum edge, and
//! the routing of a snapshot's cut-in-flight fragments.
//!
//! The two kernels differ by design everywhere else — static shards with a
//! wake wheel and workers that route into batches, against per-node
//! slots claimed from a run list and a leader whose full re-route *is* the
//! anti-message — each shape carrying a measured gain on its own workload
//! (ROADMAP item 1).
//!
//! Crate-private: per node, both engines report the
//! [`NodeResult`](crate::NodeResult) every engine does.

use crate::result::NodeResult;
use crate::sim::{EngineKind, SimError};
use crate::snapshot::{FragSnap, SnapshotBody};
use aqs_core::{QuantumPolicy, SyncConfig};
use aqs_net::{NicModel, Router, StragglerStats};
use aqs_node::{Action, CpuModel, MessageId, NodeExecutor, Program};
use aqs_time::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// Configuration of a worker-pool run, assembled by `Sim::dispatch` from
/// values `Sim::validate` has already checked. The network — NIC, switch,
/// chaos — arrives separately, as the [`Router`] the workers share.
#[derive(Clone, Debug)]
pub(crate) struct ParallelConfig {
    /// Synchronization policy.
    pub(crate) sync: SyncConfig,
    /// CPU timing model.
    pub(crate) cpu: CpuModel,
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

/// Why a barrier leader stopped a run before its nodes finished. The leader
/// only flags it: a panic inside the barrier would fail the run instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Abort {
    /// The quantum cap (deadlock guard) is exhausted.
    QuantumCap,
    /// A quantum edge, or a sum of simulated time the result reports, would
    /// pass `u64::MAX` nanoseconds.
    SimTimeOverflow,
}

/// The shared epilogue: a run the leader aborted after `quanta` quanta is
/// a typed error; any other run ends when its last node does.
pub(crate) fn finish_run(
    abort: Option<Abort>,
    engine: EngineKind,
    config: &ParallelConfig,
    quanta: u64,
    per_node: &[NodeResult],
) -> Result<SimTime, SimError> {
    match abort {
        Some(Abort::QuantumCap) => Err(SimError::QuantumCapExceeded {
            engine,
            max_quanta: config.max_quanta,
        }),
        Some(Abort::SimTimeOverflow) => Err(SimError::SimTimeOverflow { engine, quanta }),
        None => {
            let finishes = per_node.iter().map(|r| r.finish_sim);
            Ok(finishes.max().expect("at least two nodes"))
        }
    }
}

/// The barrier leader's view of simulated time: the policy, the quantum in
/// progress, and how many have completed.
pub(crate) struct QuantumClock {
    pub(crate) policy: Box<dyn QuantumPolicy>,
    /// Quanta completed (including the stop round).
    pub(crate) quanta: u64,
    /// Start of the current quantum in sim ns (the previous `q_end_nanos`).
    pub(crate) q_start_nanos: u64,
    /// End of the current quantum in sim ns.
    pub(crate) q_end_nanos: u64,
    max_quanta: u64,
}

/// What the leader publishes after closing a quantum.
pub(crate) enum Advance {
    /// Every program finished.
    Stop,
    /// The run cannot go on: flag why and stop.
    Abort(Abort),
    /// The next quantum is open; the clock's `q_end_nanos` is its edge.
    Next,
}

impl QuantumClock {
    /// Closes the quantum in progress and, unless the run is over, lets the
    /// policy choose the next one from `np`, the packets it routed.
    pub(crate) fn advance(&mut self, all_done: bool, np: u64) -> Advance {
        self.quanta += 1;
        if all_done {
            return Advance::Stop;
        }
        if self.quanta > self.max_quanta {
            return Advance::Abort(Abort::QuantumCap);
        }
        let next = self.policy.next_quantum(np);
        let Some(end) = self.q_end_nanos.checked_add(next.as_nanos()) else {
            return Advance::Abort(Abort::SimTimeOverflow);
        };
        self.q_start_nanos = self.q_end_nanos;
        self.q_end_nanos = end;
        Advance::Next
    }
}

/// The shared prologue: checks the snapshot against the programs and loads
/// its policy state (when resuming, see [`SnapshotBody::check`]), clamps
/// the worker count to `[1, n]` (`None` = the host's available
/// parallelism) and starts the clock — at time zero with the policy's
/// initial quantum, or at the cut with the quantum the policy had already
/// chosen there.
///
/// # Panics
///
/// Panics if fewer than two programs are given or program *i* is not for
/// rank *i* (`Sim::validate` reports both as typed errors first).
pub(crate) fn start_run(
    programs: &[Program],
    config: &ParallelConfig,
    workers: Option<usize>,
    resume: Option<&SnapshotBody>,
) -> Result<(usize, QuantumClock), SimError> {
    assert!(programs.len() >= 2, "a cluster needs at least 2 nodes");
    for (i, p) in programs.iter().enumerate() {
        assert_eq!(p.rank().index(), i, "program {i} is for {}", p.rank());
    }
    let n = programs.len();
    let policy = config.sync.build();
    let mut clock = QuantumClock {
        quanta: 0,
        q_start_nanos: 0,
        q_end_nanos: policy.initial_quantum().as_nanos(),
        max_quanta: config.max_quanta,
        policy,
    };
    if let Some(s) = resume {
        s.check(n, &mut *clock.policy)?;
        clock.quanta = s.quanta;
        clock.q_start_nanos = s.q_start.as_nanos();
        clock.q_end_nanos = (s.q_start + s.q_len).as_nanos();
    }
    let host = || std::thread::available_parallelism().map_or(1, |p| p.get());
    Ok((workers.unwrap_or_else(host).clamp(1, n), clock))
}

/// One node of a worker-pool run as one record: its executor and the
/// scalars [`step_node`] advances beside it. The sharded engine keeps a
/// shard's nodes as one vector of these; the rollback engine keeps one per
/// node slot and clones it as the node's checkpoint.
pub(crate) struct NodeState {
    pub(crate) exec: NodeExecutor,
    /// Simulated position.
    pub(crate) sim: SimTime,
    /// Remainder (ns) of an op that did not fit in the previous quantum;
    /// 0 means none ([`Action::Advance`] durations are never zero — the
    /// executor consumes zero-cost ops internally).
    pub(crate) pending_ns: u64,
    /// Send sequence counter.
    pub(crate) msg_seq: u64,
}

impl NodeState {
    /// Node `i` at the start of a run: a fresh executor at sim time zero,
    /// or — with `resume` — the snapshot's node restored at its cut (an
    /// invalid node state is `"node i: …"`).
    pub(crate) fn start(
        i: usize,
        program: Program,
        cpu: CpuModel,
        resume: Option<&SnapshotBody>,
    ) -> Result<Self, SimError> {
        let Some(body) = resume else {
            return Ok(Self {
                exec: NodeExecutor::new(program, cpu),
                sim: SimTime::ZERO,
                pending_ns: 0,
                msg_seq: 0,
            });
        };
        let node = &body.nodes[i];
        Ok(Self {
            exec: body.restore_exec(i, program, cpu)?,
            sim: body.q_start,
            pending_ns: node.pending.map_or(0, |(d, _)| d.as_nanos()),
            msg_seq: node.msg_seq,
        })
    }
}

/// `clone_from` reuses the target executor's buffers: every window refreshes
/// a checkpoint, and every rollback restores from one.
impl Clone for NodeState {
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

/// What one execution of a node reports back.
#[derive(Default)]
pub(crate) struct Stepped {
    /// The node's idle tail, for observability: sim ns from where it parked
    /// to the edge (0 when busy to the edge).
    pub(crate) lag_ns: u64,
    /// Next sim ns the node can act on its own: the edge when it must run
    /// again next quantum (mid-op remainder, or more program to poll), the
    /// wait deadline of a timed sleeper, or `u64::MAX` to park it until a
    /// delivery re-arms it (blocked or finished).
    pub(crate) wake: u64,
    /// What is left of the op the node is inside at the edge, in sim ns
    /// (0 when none): the sharded engine lets a node whose op outlasts the
    /// next quantum sleep until the op ends.
    pub(crate) pending_ns: u64,
    /// Operations the execution started — what it cost the host.
    pub(crate) ops: u64,
    /// The program has finished (now or in an earlier execution).
    pub(crate) finished: bool,
}

/// Runs one node from `q_start` to the quantum edge `q_end`, handing every
/// fragment it sends to `send` (route it now, or capture it for the leader).
/// The node is its one [`NodeState`] record, in a shard's vector or a
/// claimed slot: an execution touches that record and nothing else per node.
/// Sends complete atomically, ops pend across edges. There are no
/// mid-quantum drains (deliveries are never consumable before the boundary
/// by construction) and no position publication (nothing reads it).
#[inline]
pub(crate) fn step_node(
    node: &mut NodeState,
    (q_start, q_end): (SimTime, SimTime),
    nic: &NicModel,
    host_work_per_op: f64,
    mut send: impl FnMut(FragSnap),
) -> Stepped {
    let NodeState {
        exec,
        sim,
        pending_ns,
        msg_seq,
    } = node;
    // Fast-forward a woken sleeper: a full sweep would have dragged `sim` to
    // every intervening quantum edge (`sim = max(sim, q_end)` below) and,
    // for a node asleep inside an op, taken each skipped quantum off the
    // op's remainder. Skipping those quanta and moving once to the current
    // quantum start lands in the identical state: a parked node's re-polls
    // are side-effect-free, skipped idle time is idle by construction, and
    // the op keeps its end, `sim + pending_ns`, which the sleep never
    // reaches before it is stepped again.
    if *sim < q_start {
        let skipped = (q_start - *sim).as_nanos();
        debug_assert!(
            *pending_ns == 0 || *pending_ns >= skipped,
            "slept {skipped} ns past the end of its op"
        );
        *pending_ns = pending_ns.saturating_sub(skipped);
        *sim = q_start;
    }
    let mut out = Stepped {
        wake: q_end.as_nanos(),
        ..Stepped::default()
    };
    while *sim < q_end {
        if *pending_ns != 0 {
            let remaining = SimDuration::from_nanos(*pending_ns);
            let step = remaining.min(q_end - *sim);
            *sim += step;
            *pending_ns = (remaining - step).as_nanos();
            if *pending_ns != 0 {
                break; // quantum boundary reached mid-op
            }
            continue;
        }
        match exec.next_action(*sim) {
            Action::Advance { dur, ops, idle } => {
                if !idle {
                    out.ops += ops;
                    if host_work_per_op > 0.0 && ops > 0 {
                        busy_work(ops as f64 * host_work_per_op);
                    }
                }
                *pending_ns = dur.as_nanos();
            }
            Action::Send { dst, bytes, tag } => {
                let id = MessageId {
                    src: exec.rank(),
                    seq: *msg_seq,
                };
                *msg_seq += 1;
                *sim = FragSnap::serialize(nic, id, (dst, bytes, tag), *sim, &mut send);
            }
            Action::WaitUntil(t) if t < q_end => *sim = t,
            // Idle to the edge: a timer beyond it, a receive nothing
            // satisfies yet, or the end of the program.
            parked => {
                out.wake = match parked {
                    Action::WaitUntil(t) => t.as_nanos(),
                    _ => u64::MAX,
                };
                out.lag_ns = (q_end - *sim).as_nanos();
                *sim = q_end;
                break;
            }
        }
    }
    *sim = (*sim).max(q_end);
    out.pending_ns = *pending_ns;
    out.finished = exec.finished();
    out
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

/// Routes the snapshot's cut-in-flight fragments
/// ([`SnapshotBody::cut_frags`]) ahead of the first resumed quantum: every
/// fan-out copy goes to `sink(dst, effective_arrival, fragment)`; returns
/// the packet count and straggler statistics continued from the cut — the
/// snapshot's totals plus the copies routed here. The effective delivery
/// time is `max(arrival, q_start)` — the *same* rule the uninterrupted run
/// applied at route time, because every captured fragment departed during
/// the quantum that ended at the cut, so the sender's `q_end` then equals
/// the resumed run's `q_start` now. The straggler records this snapping
/// produces are therefore bit-identical to the uninterrupted run's, for any
/// policy.
pub(crate) fn route_seed_frags(
    body: &SnapshotBody,
    net: &Router,
    mut sink: impl FnMut(usize, SimTime, &FragSnap),
) -> Result<(u64, StragglerStats), SimError> {
    let mut count = body.total_packets;
    let mut stragglers = body.stragglers.restore()?;
    let q_start = body.q_start;
    for (src, frag) in body.cut_frags() {
        net.fan_out(src, frag.dst, frag.bytes, frag.departure, |t, arrival| {
            let eff = if arrival < q_start {
                stragglers.record(q_start - arrival);
                q_start
            } else {
                arrival
            };
            sink(t, eff, frag);
            count += 1;
        });
    }
    Ok((count, stragglers))
}
