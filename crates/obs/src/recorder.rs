//! The engine-facing recording interface.

use aqs_time::{SimDuration, SimTime};

/// Everything an engine knows about one completed quantum.
///
/// The per-node slices are indexed by rank and always have the cluster's
/// node count as length (engines may pass empty slices for quanta where the
/// per-node signals are undefined, e.g. a final partial quantum).
///
/// Units: `start`/`len`/`max_straggler_delay` are simulated time;
/// `barrier_wait_ns` is host time (modelled host nanoseconds in the
/// deterministic engine, real elapsed nanoseconds in the sharded one);
/// `vt_lag_ns` is simulated nanoseconds of idle tail — how far before the
/// quantum boundary the node ran out of useful work.
#[derive(Clone, Copy, Debug)]
pub struct QuantumObs<'a> {
    /// Zero-based quantum index.
    pub index: u64,
    /// Simulated start of the quantum.
    pub start: SimTime,
    /// Quantum length.
    pub len: SimDuration,
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

    /// Called by checkpointing engines when `n` checkpoints are taken.
    fn record_checkpoints(&mut self, n: u64) {
        let _ = n;
    }

    /// Called by optimistic engines on each rollback, with the simulated
    /// time that must be re-executed.
    fn record_rollback(&mut self, wasted: SimDuration) {
        let _ = wasted;
    }

    /// Called by sharded optimistic engines once per committed window with
    /// that window's per-shard checkpoint, rollback, and wasted-sim tallies,
    /// indexed by shard. The slices always share the worker count as length.
    /// Aggregate totals still flow through
    /// [`record_checkpoints`](Self::record_checkpoints) and
    /// [`record_rollback`](Self::record_rollback); this hook only attributes
    /// them to shards.
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
