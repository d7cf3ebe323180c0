//! Node substrate: what runs *inside* each simulated cluster node.
//!
//! The paper combines full-system (SimNow) node simulators. The adaptive
//! synchronization technique never inspects a node's internals — it only
//! observes (a) how fast the node's simulated clock advances and (b) the
//! packets its NIC emits. This crate therefore replaces the x86 full-system
//! simulator with the smallest model exposing exactly those observables:
//!
//! * [`Program`] / [`Op`] — a node's workload as a sequence of compute,
//!   idle, send, receive and region-marker operations (what an MPI rank
//!   does, as seen from the NIC).
//! * [`CpuModel`] — translates abstract operations into simulated time.
//! * [`NodeExecutor`] — a *resumable* interpreter: the cluster engine runs
//!   it up to a quantum boundary, delivers packets into its [`Mailbox`],
//!   and resumes it, exactly like the real system resumes a SimNow instance.
//! * [`HostModel`] — how much *host* time one simulated second costs, with
//!   per-quantum jitter and slow drift; this reproduces the time-skew
//!   between node simulators that creates stragglers in the first place.
//!
//! # Examples
//!
//! ```
//! use aqs_node::{Action, CpuModel, NodeExecutor, ProgramBuilder, Rank, Tag};
//! use aqs_time::SimTime;
//!
//! let prog = ProgramBuilder::new(Rank::new(0))
//!     .compute(1_000_000)
//!     .send(Rank::new(1), 9000, Tag::new(0))
//!     .build();
//! let mut exec = NodeExecutor::new(prog, CpuModel::default());
//! match exec.next_action(SimTime::ZERO) {
//!     aqs_node::Action::Advance { dur, .. } => assert!(!dur.is_zero()),
//!     other => panic!("expected compute first, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod executor;
mod host;
mod mailbox;
mod program;
mod sampling;

pub use cpu::CpuModel;
pub use executor::{Action, ExecutorState, NodeExecutor, RegionRecord};
pub use host::{HostModel, HostSpeed, HostSpeedState};
pub use mailbox::{
    AssemblingState, Mailbox, MailboxState, MatchOutcome, MessageId, MessageMeta, ReadyState,
};
pub use program::{Op, Program, ProgramBuilder, Rank, RegionId, SendTarget, Tag};
pub use sampling::{SampleMode, SamplingModel};

/// Appends `value`, reserving room for exactly one entry on the first push:
/// a typical node holds one open region, one closed region record and one
/// ready message, where `Vec`'s first growth reserves four.
#[inline]
fn push_first_exact<T>(v: &mut Vec<T>, value: T) {
    if v.capacity() == 0 {
        v.reserve_exact(1);
    }
    v.push(value);
}
