//! # aqs — Adaptive Quantum Synchronization for cluster simulation
//!
//! A production-grade reproduction of *"An Adaptive Synchronization
//! Technique for Parallel Simulation of Networked Clusters"* (Falcón,
//! Faraboschi, Ortega — ISPASS 2008).
//!
//! The paper turns N per-node full-system simulators into one cluster
//! simulator by routing their NIC traffic through a central network
//! controller and synchronizing their simulated clocks in quanta. Its core
//! contribution — implemented verbatim in [`core::AdaptiveQuantum`] — is a
//! quantum that *adapts* to traffic: grow slowly while the network is
//! quiet, collapse to the safe bound the moment packets appear.
//!
//! This crate is a facade re-exporting the workspace's sub-crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`time`] | `aqs-time` | simulated/host time newtypes |
//! | [`rng`] | `aqs-rng` | deterministic PRNG (xoshiro256**) and hashing |
//! | [`des`] | `aqs-des` | discrete-event kernel |
//! | [`net`] | `aqs-net` | NIC/switch models, network controller |
//! | [`node`] | `aqs-node` | node programs, executor, host-cost model |
//! | [`core`] | `aqs-core` | **the synchronization policies** |
//! | [`workloads`] | `aqs-workloads` | NAS/NAMD-like benchmarks, MPI builder |
//! | [`cluster`] | `aqs-cluster` | the cluster simulation engines |
//! | [`sync`] | `aqs-sync` | lock-free primitives for the worker-pool engines |
//! | [`obs`] | `aqs-obs` | flight recorder, statistics, Pareto fronts, rendering |
//! | [`check`] | `aqs-check` | conformance harness: every engine against the oracle |
//! | [`scenario`] | `aqs-scenario` | TOML scenario files and their differential runner |
//! | [`serve`] | `aqs-serve` | the resident job server and its journal |
//!
//! # Quick start
//!
//! Run the paper's burst scenario under the ground truth and the adaptive
//! policy, and compare:
//!
//! ```
//! use aqs::cluster::{run_workload, ClusterConfig};
//! use aqs::core::SyncConfig;
//! use aqs::workloads::burst;
//!
//! let spec = burst(4, 500_000, 2048);
//! let base = ClusterConfig::new(SyncConfig::ground_truth()).with_seed(1);
//! let truth = run_workload(&spec, &base);
//! let adaptive = run_workload(&spec, &base.clone().with_sync(SyncConfig::paper_dyn1()));
//! assert!(adaptive.host_elapsed < truth.host_elapsed, "adaptive must be faster");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aqs_check as check;
pub use aqs_cluster as cluster;
pub use aqs_core as core;
pub use aqs_des as des;
pub use aqs_net as net;
pub use aqs_node as node;
pub use aqs_obs as obs;
pub use aqs_rng as rng;
pub use aqs_scenario as scenario;
pub use aqs_serve as serve;
pub use aqs_sync as sync;
pub use aqs_time as time;
pub use aqs_workloads as workloads;
