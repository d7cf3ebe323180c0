//! The central network controller: the one place an arrival is computed.
//!
//! Every engine asks the network the same two questions — *when does this
//! copy arrive* and *who gets a copy of this fragment* — and [`Router`]
//! answers both: an arrival is
//! `nic.earliest_arrival(departure) + switch transit + chaos delay`, and a
//! fragment fans out to its unicast destination or to everyone but its
//! sender. A router is a pure function of its arguments (`&self`,
//! `Send + Sync`), so the worker pools share one and call order cannot
//! change a result. What an engine then *does* with an arrival — compare it
//! with the receiver's position, snap it to a quantum edge, sort it into a
//! rollback window — is the engine's business and lives there.
//!
//! [`NetworkController`] is what a run builds, once, from its description
//! ([`SimSwitch`], [`NicModel`], optional [`ChaosOverlay`]) — every
//! configuration check lives in [`NetworkController::new`]. It owns the
//! router plus the only mutable network state there is: the
//! store-and-forward egress queues, the per-quantum packet counter driving
//! the adaptive algorithm, the run's packet total and straggler statistics.
//! The deterministic engine keeps the controller whole; a worker-pool engine
//! takes the router out of it with [`NetworkController::into_router`], which
//! a stateful switch refuses.

use crate::chaos::ChaosOverlay;
use crate::fabric::FatTreeFabric;
use crate::nic::NicModel;
use crate::packet::{Destination, NodeId};
use crate::stats::StragglerStats;
use crate::switch::{LatencyMatrixSwitch, SimSwitch, StoreAndForwardSwitch};
use aqs_time::{SimDuration, SimTime};
use std::fmt;

/// Why a [`NetworkController`] cannot be built from its description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A cluster needs at least two nodes.
    TooFewNodes {
        /// The number of nodes asked for.
        n: usize,
    },
    /// The latency matrix has fewer ports than the cluster has nodes.
    TooFewPorts {
        /// Ports the matrix describes.
        ports: usize,
        /// Nodes the cluster has.
        nodes: usize,
    },
    /// The fabric configuration failed
    /// [`FabricConfig::validate`](crate::FabricConfig::validate).
    InvalidFabric(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::TooFewNodes { n } => {
                write!(f, "a cluster needs at least 2 nodes, got {n}")
            }
            NetError::TooFewPorts { ports, nodes } => {
                write!(f, "latency matrix has {ports} ports for {nodes} nodes")
            }
            NetError::InvalidFabric(reason) => {
                write!(f, "invalid fabric configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Time a frame spends inside the switch, for the models that are pure
/// functions of `(src, dst, bytes, departure)`.
#[derive(Clone, Debug)]
enum Transit {
    /// Zero. Also the pure part of a store-and-forward switch, whose queues
    /// the controller owns.
    Perfect,
    /// The switch's own table, shared and read in place: one indexed load
    /// per packet.
    Matrix(LatencyMatrixSwitch),
    /// The fat-tree fabric: arithmetic on the node ids, no table.
    Fabric(FatTreeFabric),
}

/// The pure routing core: arrival times and fan-out, nothing mutable.
///
/// Obtained from [`NetworkController::into_router`]; there is no router for
/// a stateful switch.
///
/// # Examples
///
/// ```
/// use aqs_net::{Destination, NetworkController, NicModel, SimSwitch};
/// use aqs_time::SimTime;
///
/// let net = NetworkController::new(3, NicModel::paper_default(), &SimSwitch::Perfect, None)
///     .unwrap()
///     .into_router()
///     .expect("the perfect switch is stateless");
/// // 1 µs minimum NIC latency on top of the departure time:
/// assert_eq!(net.arrival(0, 2, 9000, SimTime::from_micros(5)), SimTime::from_micros(6));
/// let mut ports = Vec::new();
/// net.fan_out(1, Destination::Broadcast, 64, SimTime::ZERO, |dst, _| ports.push(dst));
/// assert_eq!(ports, [0, 2]); // everyone but the sender
/// ```
#[derive(Clone, Debug)]
pub struct Router {
    n: usize,
    nic: NicModel,
    transit: Transit,
    chaos: Option<ChaosOverlay>,
}

impl Router {
    /// Number of ports (nodes).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// The NIC model shared by all ports.
    #[inline]
    pub fn nic(&self) -> &NicModel {
        &self.nic
    }

    /// The fabric behind [`SimSwitch::Fabric`], for observing which links a
    /// packet crosses ([`FatTreeFabric::path`]); `None` for other switches.
    #[inline]
    pub fn fabric(&self) -> Option<&FatTreeFabric> {
        match &self.transit {
            Transit::Fabric(f) => Some(f),
            _ => None,
        }
    }

    /// Ideal arrival at `dst` of a frame of `bytes` that left `src`'s NIC at
    /// `departure`: NIC minimum latency, switch transit and chaos delay.
    ///
    /// Whether the arrival can be honoured is the synchronizer's problem: a
    /// receiver already past it makes the packet a straggler.
    #[inline]
    pub fn arrival(&self, src: usize, dst: usize, bytes: u32, departure: SimTime) -> SimTime {
        let (s, d, at) = (src as u32, dst as u32, departure.as_nanos());
        let transit = match &self.transit {
            Transit::Perfect => 0,
            Transit::Matrix(m) => m.at(src, dst).as_nanos(),
            Transit::Fabric(f) => f.transit_nanos(s, d, bytes, at),
        };
        let extra = match &self.chaos {
            Some(overlay) => overlay.extra_nanos(s, d, bytes, at),
            None => 0,
        };
        self.nic.earliest_arrival(departure) + SimDuration::from_nanos(transit + extra)
    }

    /// Hands `sink` the `(destination, arrival)` of every copy of one
    /// fragment: one for unicast, everyone but `src` in port order for
    /// broadcast. Each copy gets its own path and its own delay.
    #[inline]
    pub fn fan_out(
        &self,
        src: usize,
        dst: Destination,
        bytes: u32,
        departure: SimTime,
        mut sink: impl FnMut(usize, SimTime),
    ) {
        match dst {
            Destination::Unicast(d) => {
                sink(d.index(), self.arrival(src, d.index(), bytes, departure));
            }
            Destination::Broadcast => {
                for t in (0..self.n).filter(|&t| t != src) {
                    sink(t, self.arrival(src, t, bytes, departure));
                }
            }
        }
    }
}

/// The cluster's central network controller.
///
/// Functionally it is a perfect MAC-to-MAC switch: every frame handed in by
/// a node NIC is routed to its destination port(s). On top of the functional
/// path it computes arrival *times* (through its [`Router`], plus egress
/// queueing when the switch is store-and-forward), counts packets per
/// synchronization quantum (the signal driving the adaptive quantum
/// algorithm) and over the run, and accumulates straggler statistics.
///
/// # Examples
///
/// ```
/// use aqs_net::{Destination, NetworkController, NicModel, SimSwitch};
/// use aqs_time::SimTime;
///
/// let mut net =
///     NetworkController::new(3, NicModel::paper_default(), &SimSwitch::Perfect, None).unwrap();
/// let mut copies = 0;
/// net.route(0, Destination::Broadcast, 64, SimTime::ZERO, |_dst, _arrival| copies += 1);
/// // Broadcast reaches everyone but the sender.
/// assert_eq!(copies, 2);
/// assert_eq!(net.end_quantum(), 2); // `np`, reset for the next quantum
/// assert_eq!(net.end_quantum(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct NetworkController {
    router: Router,
    /// Egress queues of a store-and-forward switch: the one switch model
    /// whose delay depends on the frames routed before.
    egress: Option<StoreAndForwardSwitch>,
    packets_this_quantum: u64,
    total_packets: u64,
    stragglers: StragglerStats,
}

impl NetworkController {
    /// Builds the controller for `n_nodes` ports behind `switch`, with
    /// `chaos` layered on top. Callers that must not crash on a bad request
    /// (a job server validating client configs) get every configuration
    /// problem as a [`NetError`].
    ///
    /// # Examples
    ///
    /// ```
    /// use aqs_net::{LatencyMatrixSwitch, NetError, NetworkController, NicModel, SimSwitch};
    /// use aqs_time::SimDuration;
    ///
    /// let small = SimSwitch::LatencyMatrix(LatencyMatrixSwitch::uniform(2, SimDuration::ZERO));
    /// let err = NetworkController::new(4, NicModel::paper_default(), &small, None).unwrap_err();
    /// assert_eq!(err, NetError::TooFewPorts { ports: 2, nodes: 4 });
    /// ```
    pub fn new(
        n_nodes: usize,
        nic: NicModel,
        switch: &SimSwitch,
        chaos: Option<ChaosOverlay>,
    ) -> Result<Self, NetError> {
        if n_nodes < 2 {
            return Err(NetError::TooFewNodes { n: n_nodes });
        }
        let mut egress = None;
        let transit = match switch {
            SimSwitch::Perfect => Transit::Perfect,
            SimSwitch::LatencyMatrix(m) => {
                if m.ports() < n_nodes {
                    return Err(NetError::TooFewPorts {
                        ports: m.ports(),
                        nodes: n_nodes,
                    });
                }
                Transit::Matrix(m.clone())
            }
            SimSwitch::StoreAndForward(queues) => {
                egress = Some(queues.clone());
                Transit::Perfect
            }
            SimSwitch::Fabric(cfg) => {
                cfg.validate().map_err(NetError::InvalidFabric)?;
                Transit::Fabric(FatTreeFabric::new(*cfg, n_nodes))
            }
        };
        Ok(Self {
            router: Router {
                n: n_nodes,
                nic,
                transit,
                chaos,
            },
            egress,
            packets_this_quantum: 0,
            total_packets: 0,
            stragglers: StragglerStats::default(),
        })
    }

    /// True when the switch keeps state between frames (store-and-forward):
    /// results then depend on routing order, and a snapshot of the run would
    /// have to carry the queues.
    #[inline]
    pub fn is_stateful(&self) -> bool {
        self.egress.is_some()
    }

    /// The pure routing core, for engines that share it between threads —
    /// or `None` when the switch is stateful, so a stateful model cannot
    /// reach a worker pool.
    pub fn into_router(self) -> Option<Router> {
        (!self.is_stateful()).then_some(self.router)
    }

    /// Routes one frame: `sink` gets `(destination, arrival)` for each copy
    /// (one for unicast, `n - 1` for broadcast), and every copy is counted.
    ///
    /// `departure` is the simulated time the last bit left the sender's NIC.
    ///
    /// # Panics
    ///
    /// In a debug build, panics if `src` (or a unicast destination) is out
    /// of range, or if a unicast destination equals the sender — a switch
    /// never hairpins a frame back to its ingress port. `Sim` rejects a
    /// program that would do either before it runs.
    pub fn route(
        &mut self,
        src: usize,
        dst: Destination,
        bytes: u32,
        departure: SimTime,
        mut sink: impl FnMut(usize, SimTime),
    ) {
        let from = NodeId::new(src as u32);
        // Programs are validated before any engine routes a frame.
        debug_assert!(src < self.router.n, "source {from} out of range");
        if let Destination::Unicast(d) = dst {
            debug_assert!(d.index() < self.router.n, "destination {d} out of range");
            debug_assert!(d != from, "node {from} sent a frame to itself");
        }
        self.router
            .fan_out(src, dst, bytes, departure, |t, arrival| {
                let queued = match &mut self.egress {
                    Some(queues) => queues.transit_delay(NodeId::new(t as u32), bytes, departure),
                    None => SimDuration::ZERO,
                };
                self.packets_this_quantum += 1;
                self.total_packets += 1;
                sink(t, arrival + queued);
            });
    }

    /// Ends the current quantum: returns the packets routed in it — `np` in
    /// the paper's Algorithm 1 — and resets the counter.
    pub fn end_quantum(&mut self) -> u64 {
        std::mem::take(&mut self.packets_this_quantum)
    }

    /// Total packets routed over the whole run.
    #[inline]
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Records that a delivery became a straggler, delivered `delay` late.
    pub fn record_straggler(&mut self, delay: SimDuration) {
        self.stragglers.record(delay);
    }

    /// Accumulated straggler statistics.
    #[inline]
    pub fn stragglers(&self) -> &StragglerStats {
        &self.stragglers
    }

    /// Restores run-cumulative counters from a quantum-edge snapshot: the
    /// lifetime packet total and straggler statistics. The per-quantum
    /// counter restarts at zero — a snapshot is always taken at a quantum
    /// edge, right after [`Self::end_quantum`].
    pub fn restore_counters(&mut self, total_packets: u64, stragglers: StragglerStats) {
        self.total_packets = total_packets;
        self.packets_this_quantum = 0;
        self.stragglers = stragglers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::fabric::FabricConfig;
    use crate::switch::LatencyMatrixSwitch;

    const N: usize = 6;

    fn nic() -> NicModel {
        NicModel::paper_default()
    }

    fn ctl(n: usize) -> NetworkController {
        NetworkController::new(n, nic(), &SimSwitch::Perfect, None).expect("valid cluster")
    }

    /// Routes one frame and collects its copies.
    fn copies(
        net: &mut NetworkController,
        src: usize,
        dst: Destination,
        bytes: u32,
        departure: SimTime,
    ) -> Vec<(usize, SimTime)> {
        let mut out = Vec::new();
        net.route(src, dst, bytes, departure, |t, at| out.push((t, at)));
        out
    }

    fn unicast(dst: u32) -> Destination {
        Destination::Unicast(NodeId::new(dst))
    }

    fn matrix() -> LatencyMatrixSwitch {
        // Asymmetric, so a transposed lookup cannot pass.
        LatencyMatrixSwitch::from_fn(N, |a, b| {
            SimDuration::from_nanos(100 * a.index() as u64 + 7 * b.index() as u64)
        })
    }

    fn fabric_cfg() -> FabricConfig {
        FabricConfig::fat_tree()
            .with_rack_size(2)
            .with_uplinks_per_rack(2)
    }

    fn queues() -> StoreAndForwardSwitch {
        StoreAndForwardSwitch::new(SimDuration::from_nanos(500), 1_000_000_000)
    }

    fn overlay() -> ChaosOverlay {
        let cfg = ChaosConfig::new(17)
            .with_link_flap(0.2)
            .with_loss(0.3, SimDuration::from_micros(100))
            .with_jitter(SimDuration::from_micros(9));
        ChaosOverlay::new(cfg).expect("valid chaos")
    }

    /// Every switch kind with its leaf transit function: what the router
    /// must add to the NIC's earliest arrival, copy by copy in call order.
    type Leaf = Box<dyn FnMut(u32, u32, u32, SimTime) -> u64>;
    fn kinds() -> Vec<(SimSwitch, Leaf)> {
        let (m, f, mut q) = (matrix(), FatTreeFabric::new(fabric_cfg(), N), queues());
        vec![
            (SimSwitch::Perfect, Box::new(|_, _, _, _| 0)),
            (
                SimSwitch::LatencyMatrix(m.clone()),
                Box::new(move |s, d, _, _| m.latency(NodeId::new(s), NodeId::new(d)).as_nanos()),
            ),
            (
                SimSwitch::Fabric(fabric_cfg()),
                Box::new(move |s, d, b, at| f.transit_nanos(s, d, b, at.as_nanos())),
            ),
            (
                SimSwitch::StoreAndForward(queues()),
                Box::new(move |_, d, b, at| q.transit_delay(NodeId::new(d), b, at).as_nanos()),
            ),
        ]
    }

    #[test]
    fn arrival_is_nic_plus_transit_plus_chaos_for_every_switch_and_fan_out() {
        let frames = [
            (0, unicast(5), 9000, 0),
            (3, unicast(2), 64, 12_345),
            (1, Destination::Broadcast, 1500, 40_000),
            // Same port again, same instant: a store-and-forward queue grows.
            (4, unicast(2), 9000, 12_345),
            (5, Destination::Broadcast, 777, 1_000_003),
        ];
        for chaos in [None, Some(overlay())] {
            for (switch, mut leaf) in kinds() {
                let name = switch.name();
                let mut net = NetworkController::new(N, nic(), &switch, chaos.clone())
                    .expect("valid description");
                let pure = net.clone().into_router();
                assert_eq!(pure.is_none(), name == "StoreAndForward");
                let mut routed = 0;
                for (src, dst, bytes, at) in frames {
                    let departure = SimTime::from_nanos(at);
                    let got = copies(&mut net, src, dst, bytes, departure);
                    let targets: Vec<usize> = match dst {
                        Destination::Unicast(d) => vec![d.index()],
                        Destination::Broadcast => (0..N).filter(|&t| t != src).collect(),
                    };
                    // Broadcast: n − 1 ports in order, never the sender.
                    assert_eq!(
                        got.iter().map(|c| c.0).collect::<Vec<_>>(),
                        targets,
                        "{name}"
                    );
                    for (t, arrival) in got {
                        let (s, d) = (src as u32, t as u32);
                        let extra = chaos.as_ref().map_or(0, |o| o.extra_nanos(s, d, bytes, at));
                        let want = nic().earliest_arrival(departure)
                            + SimDuration::from_nanos(leaf(s, d, bytes, departure) + extra);
                        assert_eq!(arrival, want, "{name} {src}->{t} chaos={}", chaos.is_some());
                        if let Some(router) = &pure {
                            assert_eq!(router.arrival(src, t, bytes, departure), want, "{name}");
                        }
                        routed += 1;
                    }
                }
                assert_eq!(net.total_packets(), routed, "{name}");
            }
        }
    }

    #[test]
    fn the_pure_form_is_shareable_and_a_stateful_switch_has_none() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Router>();
        let stateful = SimSwitch::StoreAndForward(queues());
        let net = NetworkController::new(N, nic(), &stateful, Some(overlay())).unwrap();
        assert!(net.is_stateful());
        assert!(net.into_router().is_none());
        let router = ctl(N).into_router().expect("perfect is stateless");
        assert_eq!(router.n_nodes(), N);
        assert_eq!(router.nic(), &nic());
        assert!(router.fabric().is_none());
        let fabric = NetworkController::new(N, nic(), &SimSwitch::Fabric(fabric_cfg()), None)
            .unwrap()
            .into_router()
            .expect("the fabric is pure");
        assert_eq!(fabric.fabric().expect("fabric switch").n_racks(), 3);
    }

    #[test]
    fn bad_descriptions_are_typed_errors() {
        let build = |n, switch: &SimSwitch| NetworkController::new(n, nic(), switch, None);
        assert_eq!(
            build(1, &SimSwitch::Perfect).unwrap_err(),
            NetError::TooFewNodes { n: 1 }
        );
        let small = SimSwitch::LatencyMatrix(LatencyMatrixSwitch::uniform(2, SimDuration::ZERO));
        let err = build(4, &small).unwrap_err();
        assert_eq!(err, NetError::TooFewPorts { ports: 2, nodes: 4 });
        assert_eq!(err.to_string(), "latency matrix has 2 ports for 4 nodes");
        // A matrix with ports to spare is fine.
        assert!(build(N - 1, &SimSwitch::LatencyMatrix(matrix())).is_ok());
        let err = build(4, &SimSwitch::Fabric(fabric_cfg().with_rack_size(0))).unwrap_err();
        assert!(matches!(err, NetError::InvalidFabric(_)), "{err}");
    }

    #[test]
    fn quantum_counter_counts_copies() {
        let mut net = ctl(4);
        copies(&mut net, 0, Destination::Broadcast, 64, SimTime::ZERO);
        copies(&mut net, 1, unicast(2), 64, SimTime::ZERO);
        assert_eq!(net.end_quantum(), 4);
        assert_eq!(net.end_quantum(), 0);
        assert_eq!(net.total_packets(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sent a frame to itself")]
    fn self_send_rejected() {
        copies(&mut ctl(2), 1, unicast(1), 64, SimTime::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "destination n9 out of range")]
    fn bad_destination_rejected() {
        copies(&mut ctl(2), 0, unicast(9), 64, SimTime::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "source n2 out of range")]
    fn bad_source_rejected() {
        copies(&mut ctl(2), 2, Destination::Broadcast, 64, SimTime::ZERO);
    }

    #[test]
    fn store_and_forward_serializes_two_frames_to_one_port() {
        let sw = SimSwitch::StoreAndForward(StoreAndForwardSwitch::new(
            SimDuration::ZERO,
            10_000_000_000,
        ));
        let mut net = NetworkController::new(3, nic(), &sw, None).unwrap();
        let a = copies(&mut net, 0, unicast(2), 9000, SimTime::ZERO);
        let b = copies(&mut net, 1, unicast(2), 9000, SimTime::ZERO);
        // 1 µs NIC + 7.2 µs egress serialization, then 7.2 µs more behind it.
        assert_eq!(a[0].1, SimTime::from_nanos(8_200));
        assert_eq!(b[0].1, SimTime::from_nanos(15_400));
    }

    #[test]
    fn straggler_recording_flows_to_stats_and_counters_restore() {
        let mut net = ctl(2);
        net.record_straggler(SimDuration::from_micros(5));
        assert_eq!(net.stragglers().count(), 1);
        assert_eq!(net.stragglers().total_delay(), SimDuration::from_micros(5));
        let mut resumed = ctl(2);
        resumed.restore_counters(7, *net.stragglers());
        copies(&mut resumed, 0, unicast(1), 64, SimTime::ZERO);
        assert_eq!(resumed.total_packets(), 8);
        assert_eq!(resumed.end_quantum(), 1);
        assert_eq!(resumed.stragglers().count(), 1);
    }
}
