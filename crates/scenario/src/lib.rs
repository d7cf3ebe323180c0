//! Declarative scenario files for the cluster simulator.
//!
//! A scenario is a small TOML file (parsed by the offline [`toml`] subset
//! parser — the build container has no registry access) describing a
//! multi-phase experiment: cluster size, topology, synchronization policy,
//! a sequence of workload phases, optional seeded chaos injection, and the
//! properties the runs must satisfy. The [`runner`] executes it on every
//! configured engine × worker-count combination and checks that they all
//! agree bit for bit — the repo's differential-testing story, scriptable
//! from a file:
//!
//! ```toml
//! name  = "demo"
//! nodes = 4
//!
//! [[phases]]
//! workload = "ml-allreduce"
//! steps = 2
//!
//! [chaos]
//! link_flap = 0.05
//! loss = 0.1
//! retransmit_us = 150
//! ```
//!
//! Chaos is deterministic middleware ([`aqs_net::ChaosOverlay`]): every
//! fault draw is a pure function of `(seed, epoch, flow)`, so the same
//! scenario file produces the same faults — and the same simulated outcome
//! — on every engine, for every worker count. See the schema in [`model`] and the corpus under `scenarios/`.
//!
//! # Examples
//!
//! ```
//! use aqs_scenario::{run_scenario, Scenario};
//!
//! let scenario = Scenario::from_str(
//!     r#"
//! name = "doc"
//! nodes = 4
//! [[phases]]
//! workload = "pingpong"
//! rounds = 5
//! "#,
//!     "<doc>",
//! )
//! .unwrap();
//! let report = run_scenario(&scenario).unwrap();
//! assert!(report.checks.iter().any(|c| c.contains("cross_engine_identical")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod runner;
pub mod toml;

pub use model::{Asserts, Phase, Scenario, Topology};
pub use runner::{run_scenario, run_scenario_file, EngineRun, ScenarioError, ScenarioReport};
