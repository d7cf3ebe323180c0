//! What the worker-pool engines ([`sharded`](crate::sharded) and
//! [`sharded_optimistic`](crate::sharded_optimistic)) share, and only that:
//! the run configuration [`Sim`](crate::Sim) hands them, how a run starts
//! (fresh or at a snapshot's cut) and ends, the leader's quantum clock, the
//! step that runs one node to a quantum edge, and the routing of a
//! snapshot's cut-in-flight fragments.
//!
//! The two kernels differ by design everywhere else — static SoA shards with
//! a wake wheel and workers that route into mailboxes, against per-node
//! slots claimed from a run list and a leader whose full re-route *is* the
//! anti-message — each shape carrying a measured gain on its own workload
//! (ROADMAP item 1).
//!
//! Crate-private: per node, both engines report the
//! [`NodeResult`](crate::NodeResult) every engine does.

use crate::result::NodeResult;
use crate::sim::{EngineKind, SimError};
use crate::snapshot::{FragSnap, ResumeSeed};
use aqs_core::{QuantumPolicy, SyncConfig};
use aqs_net::{Destination, NicModel, Router, StragglerStats};
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

/// The shared epilogue: a run that exhausted its quantum cap is a typed
/// error (the leader could only flag it — panicking inside the barrier would
/// strand its peers); any other run ends when its last node does.
pub(crate) fn finish_run(
    overflowed: bool,
    engine: EngineKind,
    config: &ParallelConfig,
    per_node: &[NodeResult],
) -> Result<SimTime, SimError> {
    if overflowed {
        return Err(SimError::QuantumCapExceeded {
            engine,
            max_quanta: config.max_quanta,
        });
    }
    let finishes = per_node.iter().map(|r| r.finish_sim);
    Ok(finishes.max().expect("at least two nodes"))
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
    /// The quantum cap is exhausted: flag the overflow and stop.
    CapExceeded,
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
            return Advance::CapExceeded;
        }
        let next = self.policy.next_quantum(np);
        self.q_start_nanos = self.q_end_nanos;
        self.q_end_nanos += next.as_nanos();
        Advance::Next
    }
}

/// The shared prologue: checks the programs against the snapshot (when
/// resuming), clamps the worker count to `[1, n]` (`None` = the host's
/// available parallelism) and starts the clock — at time zero with the
/// policy's initial quantum, or at the cut with the quantum the policy had
/// already chosen there.
///
/// # Panics
///
/// Panics if fewer than two programs are given or program *i* is not for
/// rank *i* (`Sim::validate` reports both as typed errors first).
pub(crate) fn start_run(
    programs: &[Program],
    config: &ParallelConfig,
    workers: Option<usize>,
    resume: Option<&ResumeSeed>,
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
        if s.nodes.len() != n {
            return Err(SimError::snapshot_format(format!(
                "snapshot has {} nodes, simulation has {n}",
                s.nodes.len()
            )));
        }
        let loaded = clock.policy.load_state(&s.policy_state);
        loaded.map_err(SimError::snapshot_format)?;
        clock.quanta = s.quanta;
        clock.q_start_nanos = s.q_start.as_nanos();
        clock.q_end_nanos = (s.q_start + s.q_len).as_nanos();
    }
    let host = || std::thread::available_parallelism().map_or(1, |p| p.get());
    Ok((workers.unwrap_or_else(host).clamp(1, n), clock))
}

/// One node's mutable lanes, wherever its engine keeps them (dense per-shard
/// vectors, or the fields of a claimed slot).
pub(crate) struct Lanes<'a> {
    pub(crate) exec: &'a mut NodeExecutor,
    /// Simulated position.
    pub(crate) sim: &'a mut SimTime,
    /// Send sequence counter.
    pub(crate) msg_seq: &'a mut u64,
    /// Remainder (ns) of an op that did not fit in the previous quantum;
    /// 0 means none ([`Action::Advance`] durations are never zero — the
    /// executor consumes zero-cost ops internally).
    pub(crate) pending_ns: &'a mut u64,
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
    /// Operations the execution started — what it cost the host.
    pub(crate) ops: u64,
    /// The program has finished (now or in an earlier execution).
    pub(crate) finished: bool,
}

/// Runs one node from `q_start` to the quantum edge `q_end`, handing every
/// fragment it sends to `send` (route it now, or capture it for the leader).
/// Sends complete atomically, ops pend across edges. There are no
/// mid-quantum drains (deliveries are never consumable before the boundary
/// by construction) and no position publication (nothing reads it).
#[inline]
pub(crate) fn step_node(
    node: Lanes<'_>,
    (q_start, q_end): (SimTime, SimTime),
    nic: &NicModel,
    host_work_per_op: f64,
    mut send: impl FnMut(FragSnap),
) -> Stepped {
    let Lanes {
        exec,
        sim,
        msg_seq,
        pending_ns,
    } = node;
    // Fast-forward a woken sleeper: a full sweep would have dragged `sim` to
    // every intervening quantum edge (`sim = max(sim, q_end)` below);
    // skipping those quanta and taking one `max` against the current quantum
    // start lands in the identical state, because a parked node's re-polls
    // are side-effect-free and skipped time is idle by construction.
    if *sim < q_start {
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
    net: &Router,
    mut sink: impl FnMut(usize, SimTime, &FragSnap),
) -> Result<(u64, StragglerStats), SimError> {
    let n = net.n_nodes();
    let mut count = 0u64;
    let mut stragglers = StragglerStats::default();
    for pf in &seed.frags {
        let src = pf.src as usize;
        if src >= n {
            return Err(SimError::snapshot_format(format!(
                "in-flight fragment from node {src}, but the cluster has {n} nodes"
            )));
        }
        if let Destination::Unicast(t) = pf.frag.dst {
            if t.index() >= n {
                return Err(SimError::snapshot_format(format!(
                    "in-flight fragment for node {}, but the cluster has {n} nodes",
                    t.index()
                )));
            }
        }
        let frag = &pf.frag;
        net.fan_out(src, frag.dst, frag.bytes, frag.departure, |t, arrival| {
            let eff = if arrival < seed.q_start {
                stragglers.record(seed.q_start - arrival);
                seed.q_start
            } else {
                arrival
            };
            sink(t, eff, frag);
            count += 1;
        });
    }
    Ok((count, stragglers))
}
