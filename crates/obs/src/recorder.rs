//! The engine-facing recording interface.
//!
//! [`Recorder`] is the only thing an engine reports to. Which engine calls
//! which hook:
//!
//! | hook | `Deterministic` | `Sharded` | `ShardedOptimistic` / `Hybrid` |
//! |---|---|---|---|
//! | [`record_quantum`](Recorder::record_quantum) | each barrier, then one closing partial sample | each barrier | each committed window |
//! | [`record_packet`](Recorder::record_packet) | each routed copy | – | – |
//! | [`record_shard_activity`](Recorder::record_shard_activity) | – | each barrier | each committed window |
//! | [`record_link_load`](Recorder::record_link_load) | – | each barrier of a fabric run | – |
//! | [`record_shard_rollbacks`](Recorder::record_shard_rollbacks) | – | – | each committed window |
//!
//! A rollback run's trajectory is `record_quantum` plus
//! `record_shard_rollbacks`, window by window; its result carries only the
//! whole-run totals. A shard's checkpoint lane is zero exactly in the
//! windows it ran conservatively, which is how a mode switch is observed.
//!
//! Every call is behind [`Recorder::ENABLED`], so what a hook costs when
//! nobody listens is nothing.

use aqs_time::{SimDuration, SimTime};

/// Everything an engine knows about one completed quantum.
///
/// The per-node slices are indexed by rank and have the cluster's node count
/// as length, or are empty where the per-node signals are undefined: the
/// deterministic engine's closing partial quantum (the run ends before its
/// barrier) and every window of the rollback engines.
///
/// Units: `start`/`len`/`max_straggler_delay` are simulated time; `host_ns`
/// and `barrier_wait_ns` are host time (modelled host nanoseconds in the
/// deterministic engine, real elapsed nanoseconds in the worker-pool ones);
/// `vt_lag_ns` is simulated nanoseconds of idle tail — how far before the
/// quantum boundary the node ran out of useful work.
#[derive(Clone, Copy, Debug)]
pub struct QuantumObs<'a> {
    /// The run-absolute quantum number on every engine: quanta completed
    /// before this one since simulated time zero. A run resumed from a
    /// snapshot taken after `k` quanta reports its first sample as `k`.
    pub index: u64,
    /// Simulated start of the quantum.
    pub start: SimTime,
    /// Quantum length.
    pub len: SimDuration,
    /// Host nanoseconds since the run began at which the quantum's barrier
    /// completed. The deterministic engine reports its modelled clock (so a
    /// resumed run continues the interrupted one's; the closing partial
    /// sample carries the run's final host time); a worker-pool engine
    /// reports real time since its own start, taken only when recording.
    pub host_ns: u64,
    /// Packets routed during the quantum (the policy's `np` signal).
    pub packets: u64,
    /// Nodes that actually executed during the quantum (the active set).
    /// Engines without active-set scheduling report the full node count.
    pub active_nodes: u64,
    /// Stragglers recorded during the quantum.
    pub stragglers: u64,
    /// Largest straggler delay in the quantum (zero if none).
    pub max_straggler_delay: SimDuration,
    /// Per-node wait between barrier arrival and barrier completion.
    pub barrier_wait_ns: &'a [u64],
    /// Per-node virtual-time lag: idle simulated time trailing the quantum.
    pub vt_lag_ns: &'a [u64],
}

/// A sink for per-quantum engine telemetry.
///
/// Engines are generic over their recorder, and every recording call is
/// guarded by [`Recorder::ENABLED`], so a [`NullRecorder`] run
/// monomorphizes to the exact unrecorded hot path — disabled telemetry
/// costs nothing.
pub trait Recorder: Send + 'static {
    /// Whether this recorder captures anything. Engines skip assembling
    /// [`QuantumObs`] (and the per-thread signal publication feeding it)
    /// when this is `false`.
    const ENABLED: bool;

    /// Called once per completed quantum (or optimistic window).
    fn record_quantum(&mut self, obs: &QuantumObs<'_>);

    /// Called by the deterministic engine for each copy the network
    /// controller routes — one per unicast fragment, `n - 1` per broadcast
    /// fragment, in fan-out order — with the simulated time the fragment left
    /// `src`'s NIC. The calls of one quantum precede its
    /// [`record_quantum`](Self::record_quantum), whose `packets` counts them.
    fn record_packet(&mut self, departure: SimTime, src: usize, dst: usize, bytes: u32) {
        let _ = (departure, src, dst, bytes);
    }

    /// Called by the rollback engines once per committed window, right after
    /// that window's [`record_quantum`](Self::record_quantum), with its
    /// per-shard checkpoint, rollback (node re-execution) and wasted-sim
    /// tallies, indexed by shard. The slices always share the worker count as
    /// length. This is the only rollback hook: summed over shards and
    /// windows, the lanes are the result's `checkpoints`, `rollbacks` and
    /// `wasted_sim`. A shard's checkpoint lane is zero exactly in the windows
    /// it ran conservatively (an optimistic shard checkpoints every node).
    fn record_shard_rollbacks(
        &mut self,
        checkpoints: &[u64],
        rollbacks: &[u64],
        wasted_ns: &[u64],
    ) {
        let _ = (checkpoints, rollbacks, wasted_ns);
    }

    /// Called once per quantum by active-set engines with the number of
    /// nodes each shard executed during the quantum, indexed by shard. The
    /// slice always has the worker count as length. Commutative per-shard
    /// counts merged at the quantum barrier — observation only.
    fn record_shard_activity(&mut self, active: &[u64]) {
        let _ = active;
    }

    /// Called once per quantum by engines routing through a modeled fabric,
    /// with the bytes and packets that crossed each fabric link during the
    /// quantum, indexed by link id. The slices always have the fabric's link
    /// count as length. These are commutative per-shard sums merged at the
    /// quantum barrier — observation only, never feeding back into timing.
    fn record_link_load(&mut self, link_bytes: &[u64], link_packets: &[u64]) {
        let _ = (link_bytes, link_packets);
    }
}

/// The zero-cost default recorder: every method is a no-op and
/// [`Recorder::ENABLED`] is `false`, so recorded-path code is compiled out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record_quantum(&mut self, _obs: &QuantumObs<'_>) {}
}
