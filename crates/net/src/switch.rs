//! Switch descriptions.
//!
//! A [`SimSwitch`] says which switching fabric sits between the NICs; the
//! [`NetworkController`](crate::NetworkController) is built from one and is
//! the only thing that turns it into arrival times. The paper evaluates
//! against a perfect switch (zero latency, infinite bandwidth) to maximize
//! straggler pressure; the other models exist for the richer topologies the
//! paper lists as future work.
//!
//! # Statefulness and parallel engines
//!
//! The worker-pool engines route packets in worker- and race-dependent
//! *order*, so a model whose state mutates per frame would silently break
//! their bit-identical-for-every-worker-count guarantee. A model is safe for
//! every engine only when its transit is a **pure function of
//! `(src, dst, bytes, departure)`**: the perfect switch, the
//! [`LatencyMatrixSwitch`] and the epoch-keyed
//! [`FatTreeFabric`](crate::FatTreeFabric) are; [`StoreAndForwardSwitch`]
//! keeps per-port queues, so a controller built from it has no shareable
//! [`Router`](crate::Router) and only the deterministic engine can run it.

use crate::fabric::FabricConfig;
use crate::packet::NodeId;
use aqs_time::{SimDuration, SimTime};
use std::sync::Arc;

/// Which switch a simulation runs on.
#[derive(Clone, Debug, Default)]
pub enum SimSwitch {
    /// Infinite bandwidth, zero transit delay (the paper's evaluation
    /// switch). Supported by every engine.
    #[default]
    Perfect,
    /// Fixed per-(src, dst) latency. Supported by every engine.
    LatencyMatrix(LatencyMatrixSwitch),
    /// Store-and-forward queueing with finite egress bandwidth.
    /// Deterministic engine only (stateful).
    StoreAndForward(StoreAndForwardSwitch),
    /// A modeled multi-tier fat-tree fabric
    /// ([`FatTreeFabric`](crate::FatTreeFabric)): per-link bandwidth,
    /// epoch-keyed queue occupancy, deterministic ECMP hashing. Transit is a
    /// pure function of `(src, dst, bytes, departure)`, so it is supported
    /// by every engine — with bit-identical results for every worker count.
    Fabric(FabricConfig),
}

impl SimSwitch {
    /// Short variant name
    /// (`Perfect` / `LatencyMatrix` / `StoreAndForward` / `Fabric`).
    pub fn name(&self) -> &'static str {
        match self {
            SimSwitch::Perfect => "Perfect",
            SimSwitch::LatencyMatrix(_) => "LatencyMatrix",
            SimSwitch::StoreAndForward(_) => "StoreAndForward",
            SimSwitch::Fabric(_) => "Fabric",
        }
    }
}

/// A store-and-forward switch with a fixed forwarding latency and per-egress
/// port bandwidth.
///
/// Frames to the same destination port serialize behind each other: the
/// model keeps, per port, the time at which the port becomes free.
///
/// # Examples
///
/// ```
/// use aqs_net::{NodeId, StoreAndForwardSwitch};
/// use aqs_time::{SimDuration, SimTime};
///
/// let mut sw = StoreAndForwardSwitch::new(SimDuration::from_nanos(500), 10_000_000_000);
/// let a = sw.transit_delay(NodeId::new(2), 9000, SimTime::ZERO);
/// // Second frame to the same port queues behind the first:
/// let b = sw.transit_delay(NodeId::new(2), 9000, SimTime::ZERO);
/// assert!(b > a);
/// ```
#[derive(Clone, Debug)]
pub struct StoreAndForwardSwitch {
    latency: SimDuration,
    port_bandwidth_bps: u64,
    /// Per egress port: when the port finishes its last accepted frame.
    egress_free: std::collections::HashMap<NodeId, SimTime>,
}

impl StoreAndForwardSwitch {
    /// Creates a switch with the given forwarding latency and per-port
    /// bandwidth (bits per second).
    ///
    /// # Panics
    ///
    /// Panics if `port_bandwidth_bps` is zero.
    pub fn new(latency: SimDuration, port_bandwidth_bps: u64) -> Self {
        assert!(
            port_bandwidth_bps > 0,
            "switch port bandwidth must be positive"
        );
        Self {
            latency,
            port_bandwidth_bps,
            egress_free: std::collections::HashMap::new(),
        }
    }

    fn egress_serialization(&self, bytes: u32) -> SimDuration {
        let bits = bytes as u128 * 8;
        let nanos = (bits * 1_000_000_000).div_ceil(self.port_bandwidth_bps as u128);
        SimDuration::from_nanos(nanos as u64)
    }

    /// Delay (beyond NIC latency) of a frame of `bytes` for port `dst`
    /// entering the switch at `ingress`, queued behind every frame the port
    /// accepted before it. Deterministic in the call *sequence*, which is
    /// why only the single-threaded engine may use it.
    pub fn transit_delay(&mut self, dst: NodeId, bytes: u32, ingress: SimTime) -> SimDuration {
        let ser = self.egress_serialization(bytes);
        let ready = ingress + self.latency;
        let free = self.egress_free.get(&dst).copied().unwrap_or(SimTime::ZERO);
        let start = ready.max(free);
        let done = start + ser;
        self.egress_free.insert(dst, done);
        done - ingress
    }
}

/// A switch with an arbitrary fixed latency per (src, dst) pair — enough to
/// express stars, fat-trees collapsed to delays, or rack locality.
///
/// # Examples
///
/// ```
/// use aqs_net::{LatencyMatrixSwitch, NodeId};
/// use aqs_time::SimDuration;
///
/// // 2 racks of 2: crossing the aggregation layer costs 2 µs extra.
/// let sw = LatencyMatrixSwitch::from_fn(4, |a, b| {
///     if a.index() / 2 == b.index() / 2 {
///         SimDuration::ZERO
///     } else {
///         SimDuration::from_micros(2)
///     }
/// });
/// assert_eq!(sw.latency(NodeId::new(0), NodeId::new(3)), SimDuration::from_micros(2));
/// ```
#[derive(Clone, Debug)]
pub struct LatencyMatrixSwitch {
    n: usize,
    /// Row-major `n × n`, shared: a clone of the switch, and the router
    /// built from it, read this one table.
    latencies: Arc<[SimDuration]>,
}

impl LatencyMatrixSwitch {
    /// Builds an `n`-port matrix by evaluating `f` for every ordered pair.
    pub fn from_fn(n: usize, f: impl Fn(NodeId, NodeId) -> SimDuration) -> Self {
        let id = |i: usize| NodeId::new(i as u32);
        let latencies = (0..n * n).map(|i| f(id(i / n), id(i % n))).collect();
        Self { n, latencies }
    }

    /// Uniform extra latency between all distinct pairs.
    pub fn uniform(n: usize, latency: SimDuration) -> Self {
        Self::from_fn(n, |a, b| if a == b { SimDuration::ZERO } else { latency })
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.n
    }

    /// Latency for a given pair.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn latency(&self, src: NodeId, dst: NodeId) -> SimDuration {
        assert!(
            src.index() < self.n && dst.index() < self.n,
            "node id out of range"
        );
        self.at(src.index(), dst.index())
    }

    /// Latency for a pair of in-range port indices, without the range
    /// check: the router's hot path, behind the controller's checks.
    #[inline]
    pub(crate) fn at(&self, src: usize, dst: usize) -> SimDuration {
        self.latencies[src * self.n + dst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_forward_serializes_same_port() {
        let mut sw = StoreAndForwardSwitch::new(SimDuration::from_nanos(100), 10_000_000_000);
        let t0 = SimTime::ZERO;
        // 9000 B = 7.2 µs egress serialization.
        let first = sw.transit_delay(NodeId::new(5), 9000, t0);
        assert_eq!(first, SimDuration::from_nanos(100 + 7200));
        let second = sw.transit_delay(NodeId::new(5), 9000, t0);
        assert_eq!(second, SimDuration::from_nanos(100 + 7200 + 7200));
        // A different port is independent.
        let other = sw.transit_delay(NodeId::new(6), 9000, t0);
        assert_eq!(other, first);
    }

    #[test]
    fn store_and_forward_port_frees_up() {
        let mut sw = StoreAndForwardSwitch::new(SimDuration::ZERO, 8_000_000_000);
        // 1000 B at 8 Gb/s = 1 µs.
        let a = sw.transit_delay(NodeId::new(1), 1000, SimTime::ZERO);
        assert_eq!(a, SimDuration::from_micros(1));
        // Arriving after the port drained: no queueing.
        let b = sw.transit_delay(NodeId::new(1), 1000, SimTime::from_micros(10));
        assert_eq!(b, SimDuration::from_micros(1));
    }

    #[test]
    fn latency_matrix_lookup() {
        let sw = LatencyMatrixSwitch::uniform(3, SimDuration::from_micros(2));
        assert_eq!(sw.ports(), 3);
        assert_eq!(
            sw.latency(NodeId::new(0), NodeId::new(0)),
            SimDuration::ZERO
        );
        assert_eq!(
            sw.latency(NodeId::new(0), NodeId::new(2)),
            SimDuration::from_micros(2)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn latency_matrix_bounds_checked() {
        let sw = LatencyMatrixSwitch::uniform(2, SimDuration::ZERO);
        let _ = sw.latency(NodeId::new(0), NodeId::new(5));
    }
}
