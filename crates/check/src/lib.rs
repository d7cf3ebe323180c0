//! # aqs-check — differential conformance harness
//!
//! Golden-file-free testing for the four engines. The harness generates
//! random but fully reproducible cases (program × topology × switch ×
//! policy), runs each through the deterministic, sharded,
//! sharded-optimistic, and hybrid engines, and decides pass/fail from two
//! kinds of evidence:
//!
//! * a **differential oracle**: under the safe 1 µs quantum every engine
//!   must produce a bit-identical [`aqs_cluster::SimulatedOutcome`];
//! * **invariant oracles** on the policy runs, where engines legitimately
//!   dilate time: quantum bounds, Algorithm 1's grow/shrink direction,
//!   packet conservation, the straggler delay bound, and
//!   stragglers-vs-dilation consistency.
//!
//! A failure is shrunk to a local minimum and reported as `(seed, index)`
//! plus a `.case.json` artifact and a ready-to-paste regression test —
//! see [`shrink()`], [`case_json`], and [`regression_snippet`].
//!
//! Two cargo features extend the harness into the engine crates (they are
//! *forwarding* features — plain builds compile none of it):
//!
//! * `schedule-fuzz` arms randomized batch delivery order and jittered
//!   barrier arrivals in the sharded engine (`check_case_fuzzed`);
//! * `fault-inject` compiles deliberate, runtime-armed faults used by the
//!   mutation tests to prove the oracles actually detect bugs.
//!
//! Entry points: [`check_case`] for one case, [`run_conformance`] for a
//! campaign (also exposed as `aqs check`).

#![forbid(unsafe_code)]

pub mod cli;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod shrink;

pub use gen::{CaseSpec, PhaseKind, PhaseSpec, PolicySpec};
#[cfg(feature = "schedule-fuzz")]
pub use oracle::check_case_fuzzed;
pub use oracle::{check_case, check_case_with, CheckOpts, WindowLog};
pub use runner::{run_conformance, CaseFailure, ConformanceOpts, ConformanceReport};
pub use shrink::{case_json, regression_snippet, shrink, ShrinkResult};
