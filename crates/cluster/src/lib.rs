//! The cluster simulator: node simulators + network controller + quantum
//! synchronization, exactly as assembled in the ISPASS 2008 paper.
//!
//! # Four engines, two implementations
//!
//! * [`engine`] — the **deterministic meta-engine**. It is a discrete-event
//!   simulation *of the parallel simulation itself*, running on a modelled
//!   host clock: every node simulator advances its simulated time at a
//!   seeded, drifting rate; packets cross a central network controller;
//!   quantum barriers cost host time; stragglers are detected and delivered
//!   late precisely as §3 of the paper describes. Because the host clock is
//!   modelled, **speedup numbers are exactly reproducible** — same seed,
//!   same figure. It is the paper (Algorithm 1) and the oracle.
//! * [`sharded`] — the **sharded engine**: N node simulators partitioned
//!   over M real worker threads with a two-level tree barrier and a pooled,
//!   allocation-free packet path; wall-clock is measured with a real clock.
//!   With M = N it is the thread-per-node system the paper actually ran;
//!   with M ≪ N it is the cluster-scale engine (256–262144 nodes). Its
//!   functional results are bit-identical for every M.
//! * [`sharded_optimistic`] — the checkpoint/rollback alternative of the
//!   paper's §3 on the same worker pool: per-shard window-start checkpoints,
//!   barrier-leader GVT reduction, rollback confined to the offending shard
//!   by a cascade bound. It serves two [`EngineKind`]s: `ShardedOptimistic`
//!   and, with the adaptive conservative/optimistic [`HybridPolicy`],
//!   `Hybrid`.
//!
//! All four are driven through one entry point, the [`Sim`] builder, and all
//! four compute an arrival through one routing core, the
//! [`aqs_net::Router`] of the run's [`aqs_net::NetworkController`] — built
//! once, with every network configuration check, by `Sim`'s validation. An
//! engine owns only what it *does* with an arrival: compare it with the
//! receiver's position (deterministic), snap it to the quantum edge and
//! mail it to the owning shard (sharded), sort it into the window's inbound
//! or future set (the rollback leader).
//!
//! # Quick start
//!
//! ```
//! use aqs_cluster::{EngineKind, Sim};
//! use aqs_core::SyncConfig;
//! use aqs_node::{ProgramBuilder, Rank, Tag};
//!
//! // A 1-packet ping-pong between two nodes.
//! let ping = ProgramBuilder::new(Rank::new(0))
//!     .send(Rank::new(1), 64, Tag::new(0))
//!     .recv(Some(Rank::new(1)), Tag::new(0))
//!     .build();
//! let pong = ProgramBuilder::new(Rank::new(1))
//!     .recv(Some(Rank::new(0)), Tag::new(0))
//!     .send(Rank::new(0), 64, Tag::new(0))
//!     .build();
//!
//! let report = Sim::new(vec![ping, pong])
//!     .engine(EngineKind::Deterministic)
//!     .sync(SyncConfig::ground_truth())
//!     .seed(1)
//!     .run();
//! assert_eq!(report.stragglers.count(), 0); // Q ≤ T is straggler-free
//! ```
//!
//! Switch engines by changing one argument — `.engine(EngineKind::Sharded)`
//! runs the same workload on real threads. Attach a quantum-level flight
//! recorder with [`Sim::record`]; see [`sim`] for details.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod engine;
mod experiment;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod pool;
mod result;
pub mod sharded;
pub mod sharded_optimistic;
pub mod sim;
pub mod snapshot;

pub use config::{BarrierCostModel, ClusterConfig};
pub use experiment::{
    app_metric, paper_sweep, run_workload, AppMetric, ConfigOutcome, Experiment, ExperimentResult,
};
pub use result::{NodeResult, RunResult};
pub use sharded::ShardedRunResult;
pub use sharded_optimistic::{HybridPolicy, ShardedOptimisticRunResult};
pub use sim::{
    EngineDetail, EngineKind, RunReport, Sim, SimError, SimSwitch, SimulatedOutcome, SnapshotStep,
    WallClock,
};
pub use snapshot::SimSnapshot;
