//! The central network controller: functional switch + timing + accounting.

use crate::nic::NicModel;
use crate::packet::{Destination, NodeId, Packet, PacketId};
use crate::stats::{StragglerStats, TrafficTrace};
use crate::switch::SwitchModel;
use aqs_time::{SimDuration, SimTime};

/// A packet routed to a concrete destination, with its computed arrival
/// simulated time.
///
/// Whether the arrival can actually be honoured is the synchronizer's
/// problem: if the receiver has already simulated past `arrival`, the packet
/// becomes a straggler (reported back via
/// [`NetworkController::record_straggler`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<P> {
    /// The routed frame.
    pub packet: Packet<P>,
    /// Ideal arrival time at the destination node.
    pub arrival: SimTime,
}

/// The cluster's central network controller.
///
/// Functionally it is a perfect MAC-to-MAC switch: every frame handed in by
/// a node NIC is routed to its destination port(s). On top of the functional
/// path it computes arrival *times* (NIC minimum latency + switch transit),
/// counts packets per synchronization quantum (the signal driving the
/// adaptive quantum algorithm), and accumulates straggler statistics and an
/// optional traffic trace.
///
/// # Examples
///
/// ```
/// use aqs_net::{Destination, NetworkController, NicModel, NodeId, PerfectSwitch};
/// use aqs_time::SimTime;
///
/// let mut net: NetworkController<&str, PerfectSwitch> =
///     NetworkController::new(3, NicModel::paper_default(), PerfectSwitch::new());
/// let out = net.route(NodeId::new(0), Destination::Broadcast, 64, SimTime::ZERO, "arp");
/// // Broadcast reaches everyone but the sender.
/// assert_eq!(out.len(), 2);
/// assert_eq!(net.end_quantum(), 2); // counter resets per quantum
/// assert_eq!(net.packets_this_quantum(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct NetworkController<P, S> {
    n_nodes: usize,
    nic: NicModel,
    switch: S,
    next_packet_id: u64,
    packets_this_quantum: u64,
    total_packets: u64,
    stragglers: StragglerStats,
    trace: TrafficTrace,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P: Clone, S: SwitchModel> NetworkController<P, S> {
    /// Creates a controller for `n_nodes` ports.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2` — a cluster needs at least two nodes. Callers
    /// that must not crash on a bad request (a job server validating client
    /// configs) should use [`try_new`](Self::try_new) instead.
    pub fn new(n_nodes: usize, nic: NicModel, switch: S) -> Self {
        Self::try_new(n_nodes, nic, switch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a controller for `n_nodes` ports, returning a human-readable
    /// configuration error instead of panicking when `n_nodes < 2`.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqs_net::{NetworkController, NicModel, PerfectSwitch};
    ///
    /// let err = NetworkController::<(), _>::try_new(
    ///     1, NicModel::paper_default(), PerfectSwitch::new(),
    /// ).unwrap_err();
    /// assert!(err.contains("at least 2 nodes"));
    /// ```
    pub fn try_new(n_nodes: usize, nic: NicModel, switch: S) -> Result<Self, String> {
        if n_nodes < 2 {
            return Err(format!("a cluster needs at least 2 nodes, got {n_nodes}"));
        }
        Ok(Self {
            n_nodes,
            nic,
            switch,
            next_packet_id: 0,
            packets_this_quantum: 0,
            total_packets: 0,
            stragglers: StragglerStats::default(),
            trace: TrafficTrace::disabled(),
            _payload: std::marker::PhantomData,
        })
    }

    /// Number of ports (nodes).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The NIC model shared by all ports.
    #[inline]
    pub fn nic(&self) -> &NicModel {
        &self.nic
    }

    /// Minimum end-to-end network latency `T` — the paper's safe quantum
    /// bound (`Q <= T` guarantees zero stragglers).
    pub fn min_latency(&self) -> SimDuration {
        self.nic.min_latency()
    }

    /// Sets whether the traffic trace stores per-packet entries (Figure 9
    /// charts), consuming and returning the controller builder-style.
    ///
    /// Trace storage is a construction-time decision: flipping it mid-run
    /// would leave the entry log covering an unknowable suffix of the
    /// traffic while the totals cover all of it.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqs_net::{NetworkController, NicModel, PerfectSwitch};
    ///
    /// let net: NetworkController<(), PerfectSwitch> =
    ///     NetworkController::new(2, NicModel::paper_default(), PerfectSwitch::new())
    ///         .with_trace(true);
    /// assert!(net.trace().is_enabled());
    /// ```
    #[must_use]
    pub fn with_trace(mut self, enabled: bool) -> Self {
        self.trace = if enabled {
            TrafficTrace::enabled()
        } else {
            TrafficTrace::disabled()
        };
        self
    }

    /// Routes one frame and returns the resulting deliveries (one for
    /// unicast, `n - 1` for broadcast).
    ///
    /// `departure` is the simulated time the last bit left the sender's NIC;
    /// arrival adds the NIC minimum latency and the switch transit delay.
    ///
    /// # Panics
    ///
    /// Panics if `src` (or a unicast destination) is out of range, or if a
    /// unicast destination equals the sender — a switch never hairpins a
    /// frame back to its ingress port.
    pub fn route(
        &mut self,
        src: NodeId,
        dst: Destination,
        bytes: u32,
        departure: SimTime,
        payload: P,
    ) -> Vec<Delivery<P>> {
        assert!(src.index() < self.n_nodes, "source {src} out of range");
        let targets: Vec<NodeId> = match dst {
            Destination::Unicast(d) => {
                assert!(d.index() < self.n_nodes, "destination {d} out of range");
                assert!(d != src, "node {src} sent a frame to itself");
                vec![d]
            }
            Destination::Broadcast => (0..self.n_nodes as u32)
                .map(NodeId::new)
                .filter(|&n| n != src)
                .collect(),
        };
        let mut out = Vec::with_capacity(targets.len());
        for target in targets {
            let id = PacketId(self.next_packet_id);
            self.next_packet_id += 1;
            self.packets_this_quantum += 1;
            self.total_packets += 1;
            let transit = self.switch.transit_delay(src, target, bytes, departure);
            let arrival = self.nic.earliest_arrival(departure) + transit;
            self.trace.record(departure, src, target, bytes);
            out.push(Delivery {
                packet: Packet {
                    id,
                    src,
                    dst: target,
                    bytes,
                    departure,
                    payload: payload.clone(),
                },
                arrival,
            });
        }
        out
    }

    /// Packets routed since the last [`end_quantum`](Self::end_quantum).
    ///
    /// This is `np` in the paper's Algorithm 1.
    #[inline]
    pub fn packets_this_quantum(&self) -> u64 {
        self.packets_this_quantum
    }

    /// Ends the current quantum: returns `np` and resets the counter.
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

    /// The traffic trace (counters always valid; entries only when enabled).
    #[inline]
    pub fn trace(&self) -> &TrafficTrace {
        &self.trace
    }

    /// Consumes the controller, returning the trace (for result assembly).
    pub fn into_trace(self) -> TrafficTrace {
        self.trace
    }

    /// Next packet id to be assigned (snapshot capture).
    #[inline]
    pub fn next_packet_id(&self) -> u64 {
        self.next_packet_id
    }

    /// Restores run-cumulative counters from a quantum-edge snapshot: packet
    /// id stream position, lifetime packet total, and straggler statistics.
    /// The per-quantum counter restarts at zero — a snapshot is always taken
    /// at a quantum edge, right after [`Self::end_quantum`].
    pub fn restore_counters(
        &mut self,
        next_packet_id: u64,
        total_packets: u64,
        stragglers: StragglerStats,
    ) {
        self.next_packet_id = next_packet_id;
        self.total_packets = total_packets;
        self.packets_this_quantum = 0;
        self.stragglers = stragglers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::{LatencyMatrixSwitch, PerfectSwitch, StoreAndForwardSwitch};

    fn ctl(n: usize) -> NetworkController<u32, PerfectSwitch> {
        NetworkController::new(n, NicModel::paper_default(), PerfectSwitch::new())
    }

    #[test]
    fn unicast_arrival_is_departure_plus_min_latency() {
        let mut net = ctl(2);
        let out = net.route(
            NodeId::new(0),
            Destination::Unicast(NodeId::new(1)),
            9000,
            SimTime::from_micros(10),
            7,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].arrival, SimTime::from_micros(11));
        assert_eq!(out[0].packet.src, NodeId::new(0));
        assert_eq!(out[0].packet.dst, NodeId::new(1));
        assert_eq!(out[0].packet.payload, 7);
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let mut net = ctl(5);
        let out = net.route(NodeId::new(2), Destination::Broadcast, 64, SimTime::ZERO, 0);
        let dsts: Vec<usize> = out.iter().map(|d| d.packet.dst.index()).collect();
        assert_eq!(dsts, vec![0, 1, 3, 4]);
    }

    #[test]
    fn packet_ids_are_unique_and_monotone() {
        let mut net = ctl(3);
        let a = net.route(NodeId::new(0), Destination::Broadcast, 64, SimTime::ZERO, 0);
        let b = net.route(
            NodeId::new(1),
            Destination::Unicast(NodeId::new(0)),
            64,
            SimTime::ZERO,
            0,
        );
        let ids: Vec<u64> = a.iter().chain(b.iter()).map(|d| d.packet.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn quantum_counter_counts_deliveries() {
        let mut net = ctl(4);
        net.route(NodeId::new(0), Destination::Broadcast, 64, SimTime::ZERO, 0);
        net.route(
            NodeId::new(1),
            Destination::Unicast(NodeId::new(2)),
            64,
            SimTime::ZERO,
            0,
        );
        assert_eq!(net.packets_this_quantum(), 4);
        assert_eq!(net.end_quantum(), 4);
        assert_eq!(net.packets_this_quantum(), 0);
        assert_eq!(net.total_packets(), 4);
    }

    #[test]
    #[should_panic(expected = "sent a frame to itself")]
    fn self_send_rejected() {
        let mut net = ctl(2);
        net.route(
            NodeId::new(1),
            Destination::Unicast(NodeId::new(1)),
            64,
            SimTime::ZERO,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_rejected() {
        let mut net = ctl(2);
        net.route(
            NodeId::new(0),
            Destination::Unicast(NodeId::new(9)),
            64,
            SimTime::ZERO,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn single_node_cluster_rejected() {
        let _ = ctl(1);
    }

    #[test]
    fn switch_delay_is_added() {
        let sw = LatencyMatrixSwitch::uniform(2, SimDuration::from_micros(3));
        let mut net: NetworkController<(), _> =
            NetworkController::new(2, NicModel::paper_default(), sw);
        let out = net.route(
            NodeId::new(0),
            Destination::Unicast(NodeId::new(1)),
            64,
            SimTime::ZERO,
            (),
        );
        assert_eq!(out[0].arrival, SimTime::from_micros(4)); // 1 µs NIC + 3 µs switch
    }

    #[test]
    fn store_and_forward_congestion_visible_through_controller() {
        let sw = StoreAndForwardSwitch::new(SimDuration::ZERO, 10_000_000_000);
        let mut net: NetworkController<(), _> =
            NetworkController::new(3, NicModel::paper_default(), sw);
        let a = net.route(
            NodeId::new(0),
            Destination::Unicast(NodeId::new(2)),
            9000,
            SimTime::ZERO,
            (),
        );
        let b = net.route(
            NodeId::new(1),
            Destination::Unicast(NodeId::new(2)),
            9000,
            SimTime::ZERO,
            (),
        );
        assert!(
            b[0].arrival > a[0].arrival,
            "second frame must queue behind the first"
        );
    }

    #[test]
    fn straggler_recording_flows_to_stats() {
        let mut net = ctl(2);
        net.record_straggler(SimDuration::from_micros(5));
        assert_eq!(net.stragglers().count(), 1);
        assert_eq!(net.stragglers().total_delay(), SimDuration::from_micros(5));
    }

    #[test]
    fn trace_disabled_by_default_enabled_at_construction() {
        let mut net = ctl(2);
        net.route(
            NodeId::new(0),
            Destination::Unicast(NodeId::new(1)),
            64,
            SimTime::ZERO,
            0,
        );
        assert!(net.trace().entries().is_empty());
        assert_eq!(net.trace().total_packets(), 1);

        let mut net = ctl(2).with_trace(true);
        net.route(
            NodeId::new(0),
            Destination::Unicast(NodeId::new(1)),
            64,
            SimTime::ZERO,
            0,
        );
        assert_eq!(net.trace().entries().len(), 1);
    }
}
