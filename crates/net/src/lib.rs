//! Network substrate for the aqs cluster simulator.
//!
//! The paper's cluster simulator bridges every node's simulated NIC into a
//! central **network controller** that behaves like a perfect link-layer
//! (MAC-to-MAC) switch, with a timing component layered on top. This crate
//! implements that machinery:
//!
//! * [`Packet`] — a timestamped link-layer frame (generic over payload).
//! * [`NicModel`] — per-node NIC timing: bandwidth serialization, minimum
//!   latency and MTU fragmentation (the paper's stress config is a 10 Gb/s
//!   NIC, 1 µs minimum latency, 9000 B jumbo frames — see
//!   [`NicModel::paper_default`]).
//! * [`SwitchModel`] implementations — [`PerfectSwitch`] (the paper's
//!   infinite-bandwidth zero-latency switch), [`StoreAndForwardSwitch`] and
//!   [`LatencyMatrixSwitch`] for richer topologies, and [`FatTreeFabric`]:
//!   a modeled multi-tier fabric with per-link bandwidth, epoch-keyed
//!   queue occupancy and deterministic ECMP hashing.
//! * [`NetworkController`] — functional routing (unicast + broadcast), the
//!   per-quantum packet counter driving the adaptive algorithm, straggler
//!   accounting and traffic traces (Figure 9's left-hand charts).
//!
//! # Examples
//!
//! ```
//! use aqs_net::{Destination, NetworkController, NicModel, NodeId, PerfectSwitch};
//! use aqs_time::SimTime;
//!
//! let mut net: NetworkController<(), PerfectSwitch> =
//!     NetworkController::new(4, NicModel::paper_default(), PerfectSwitch::new());
//! let deliveries = net.route(NodeId::new(0), Destination::Unicast(NodeId::new(2)),
//!                            9000, SimTime::from_micros(5), ());
//! assert_eq!(deliveries.len(), 1);
//! // 1 µs minimum NIC latency on top of the departure time:
//! assert_eq!(deliveries[0].arrival, SimTime::from_micros(6));
//! assert_eq!(net.packets_this_quantum(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod controller;
mod fabric;
mod nic;
mod packet;
mod stats;
mod switch;

pub use chaos::{ChaosConfig, ChaosOverlay, ChaosSwitch};
pub use controller::{Delivery, NetworkController};
pub use fabric::{FabricConfig, FatTreeFabric, LinkLoad, LinkPath, MAX_PATH_LINKS};
pub use nic::NicModel;
pub use packet::{Destination, NodeId, Packet, PacketId};
pub use stats::{StragglerStats, TraceEntry, TrafficTrace};
pub use switch::{LatencyMatrixSwitch, PerfectSwitch, StoreAndForwardSwitch, SwitchModel};
