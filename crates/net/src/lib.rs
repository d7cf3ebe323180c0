//! Network substrate for the aqs cluster simulator.
//!
//! The paper's cluster simulator bridges every node's simulated NIC into a
//! central **network controller** that behaves like a perfect link-layer
//! (MAC-to-MAC) switch, with a timing component layered on top. This crate
//! implements that machinery:
//!
//! * [`NicModel`] — per-node NIC timing: bandwidth serialization, minimum
//!   latency and MTU fragmentation (the paper's stress config is a 10 Gb/s
//!   NIC, 1 µs minimum latency, 9000 B jumbo frames — see
//!   [`NicModel::paper_default`]).
//! * [`SimSwitch`] — the description of the switch: perfect (the paper's
//!   infinite-bandwidth zero-latency switch), [`LatencyMatrixSwitch`] and
//!   [`StoreAndForwardSwitch`] for richer topologies, and [`FatTreeFabric`]:
//!   a modeled multi-tier fabric with per-link bandwidth, epoch-keyed
//!   queue occupancy and deterministic ECMP hashing. [`ChaosOverlay`] layers
//!   seeded faults on any of them.
//! * [`NetworkController`] — **the** network component, built once per run
//!   from those descriptions, with every configuration check in its
//!   constructor. Its [`Router`] is the single routing core all four engines
//!   and the snapshot-resume path call — the arrival of one copy, the
//!   fan-out of one fragment — and what the worker pools share; the
//!   controller adds the only mutable state (store-and-forward queues,
//!   packet counters, straggler statistics), which the deterministic engine
//!   alone holds.
//!
//! # Examples
//!
//! ```
//! use aqs_net::{Destination, NetworkController, NicModel, NodeId, SimSwitch};
//! use aqs_time::SimTime;
//!
//! let mut net =
//!     NetworkController::new(4, NicModel::paper_default(), &SimSwitch::Perfect, None).unwrap();
//! let mut copies = Vec::new();
//! net.route(0, Destination::Unicast(NodeId::new(2)), 9000, SimTime::from_micros(5),
//!           |dst, arrival| copies.push((dst, arrival)));
//! // 1 µs minimum NIC latency on top of the departure time:
//! assert_eq!(copies, [(2, SimTime::from_micros(6))]);
//! assert_eq!(net.end_quantum(), 1);
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

pub use chaos::{ChaosConfig, ChaosOverlay};
pub use controller::{NetError, NetworkController, Router};
pub use fabric::{FabricConfig, FatTreeFabric, LinkLoad, LinkPath, MAX_PATH_LINKS};
pub use nic::NicModel;
pub use packet::{Destination, NodeId};
pub use stats::StragglerStats;
pub use switch::{LatencyMatrixSwitch, SimSwitch, StoreAndForwardSwitch};
