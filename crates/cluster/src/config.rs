//! Run configuration for the cluster simulator.

use aqs_core::SyncConfig;
use aqs_net::NicModel;
use aqs_node::{CpuModel, HostModel, SamplingModel};
use aqs_time::HostDuration;

/// Host-time cost of one quantum barrier across `n` node simulators.
///
/// The paper's synchronization goes through the central network controller:
/// every node tells the controller it reached the quantum boundary and waits
/// for the go-ahead, so the cost grows linearly with the node count —
/// `base + per_node · n`.
///
/// # Examples
///
/// ```
/// use aqs_cluster::BarrierCostModel;
/// use aqs_time::HostDuration;
///
/// let b = BarrierCostModel::default();
/// assert!(b.cost(64) > b.cost(8));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierCostModel {
    /// Fixed cost per barrier.
    pub base: HostDuration,
    /// Additional cost per participating node.
    pub per_node: HostDuration,
}

impl BarrierCostModel {
    /// Creates a barrier cost model.
    pub fn new(base: HostDuration, per_node: HostDuration) -> Self {
        Self { base, per_node }
    }

    /// A barrier with no cost at all (for tests isolating other effects).
    pub fn free() -> Self {
        Self::new(HostDuration::ZERO, HostDuration::ZERO)
    }

    /// Cost of one barrier with `n` participants.
    pub fn cost(&self, n: usize) -> HostDuration {
        self.base + self.per_node * n as u64
    }
}

impl Default for BarrierCostModel {
    /// The calibrated default from DESIGN.md §6: `0.3 ms + 0.25 ms · n`.
    fn default() -> Self {
        Self::new(
            HostDuration::from_micros(300),
            HostDuration::from_micros(250),
        )
    }
}

/// Everything the engine needs besides the programs themselves.
///
/// Construct with [`ClusterConfig::new`] and chain `with_*` methods
/// (consuming builder style).
///
/// # Examples
///
/// ```
/// use aqs_cluster::ClusterConfig;
/// use aqs_core::SyncConfig;
///
/// let cfg = ClusterConfig::new(SyncConfig::paper_dyn1()).with_seed(7);
/// assert_eq!(cfg.seed, 7);
/// ```
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Experiment seed; node RNG substreams derive from it.
    pub seed: u64,
    /// Synchronization policy.
    pub sync: SyncConfig,
    /// NIC timing (shared by all nodes).
    pub nic: NicModel,
    /// CPU timing (shared by all nodes).
    pub cpu: CpuModel,
    /// Host execution cost model.
    pub host: HostModel,
    /// Barrier cost model.
    pub barrier: BarrierCostModel,
    /// Host latency from a node simulator to the network controller (the
    /// socket hop; packets become visible to the controller this much host
    /// time after leaving the sending simulator).
    pub controller_hop: HostDuration,
    /// Per-node host-model overrides (heterogeneous host cores): entry `i`,
    /// when present, replaces [`Self::host`] for node `i`. Used e.g. to
    /// stage the paper's Figure 3 fast-node/slow-node scenarios.
    pub host_overrides: Vec<Option<HostModel>>,
    /// Optional simulator sampling schedule (the paper's §7 future work):
    /// node simulators alternate detailed and fast-forward phases, trading
    /// guest-timing fidelity for host speed on top of whatever the quantum
    /// policy saves.
    pub sampling: Option<SamplingModel>,
}

impl ClusterConfig {
    /// Creates a configuration with the paper's defaults and the given
    /// synchronization policy.
    pub fn new(sync: SyncConfig) -> Self {
        Self {
            seed: 0xA95_2008,
            sync,
            nic: NicModel::paper_default(),
            cpu: CpuModel::default(),
            host: HostModel::default(),
            barrier: BarrierCostModel::default(),
            controller_hop: HostDuration::from_micros(2),
            host_overrides: Vec::new(),
            sampling: None,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the sync policy, keeping everything else — the way an
    /// experiment sweeps configurations against a fixed workload/host.
    pub fn with_sync(mut self, sync: SyncConfig) -> Self {
        self.sync = sync;
        self
    }

    /// Replaces the host cost model.
    pub fn with_host(mut self, host: HostModel) -> Self {
        self.host = host;
        self
    }

    /// Replaces the barrier cost model.
    pub fn with_barrier(mut self, barrier: BarrierCostModel) -> Self {
        self.barrier = barrier;
        self
    }

    /// Enables simulator sampling (see [`SamplingModel`]).
    pub fn with_sampling(mut self, sampling: SamplingModel) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// Overrides the host model for one node (heterogeneous host cores).
    pub fn with_node_host(mut self, node: usize, model: HostModel) -> Self {
        if self.host_overrides.len() <= node {
            self.host_overrides.resize(node + 1, None);
        }
        self.host_overrides[node] = Some(model);
        self
    }

    /// The host model in effect for node `i`.
    pub fn host_for(&self, i: usize) -> HostModel {
        self.host_overrides
            .get(i)
            .copied()
            .flatten()
            .unwrap_or(self.host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_cost_is_linear() {
        let b = BarrierCostModel::new(
            HostDuration::from_micros(100),
            HostDuration::from_micros(10),
        );
        assert_eq!(b.cost(0), HostDuration::from_micros(100));
        assert_eq!(b.cost(8), HostDuration::from_micros(180));
        assert_eq!(b.cost(64), HostDuration::from_micros(740));
    }

    #[test]
    fn free_barrier_is_zero() {
        assert_eq!(BarrierCostModel::free().cost(1000), HostDuration::ZERO);
    }

    #[test]
    fn builder_chain() {
        let cfg = ClusterConfig::new(SyncConfig::fixed_micros(10))
            .with_seed(3)
            .with_barrier(BarrierCostModel::free());
        assert_eq!(cfg.seed, 3);
        assert_eq!(cfg.barrier, BarrierCostModel::free());
        assert_eq!(cfg.sync, SyncConfig::fixed_micros(10));
    }

    #[test]
    fn node_host_overrides() {
        use aqs_node::HostModel;
        let cfg = ClusterConfig::new(SyncConfig::ground_truth())
            .with_node_host(2, HostModel::uniform(90.0, 0.5));
        assert_eq!(cfg.host_for(0), cfg.host);
        assert!((cfg.host_for(2).base_slowdown() - 90.0).abs() < 1e-12);
        assert_eq!(cfg.host_for(9), cfg.host);
    }

    #[test]
    fn with_sync_swaps_policy_only() {
        let a = ClusterConfig::new(SyncConfig::fixed_micros(1)).with_seed(9);
        let b = a.clone().with_sync(SyncConfig::paper_dyn1());
        assert_eq!(b.seed, 9);
        assert_ne!(a.sync, b.sync);
    }
}
