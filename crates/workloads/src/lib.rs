//! Synthetic workloads reproducing the communication structure of the
//! paper's benchmarks.
//!
//! The paper evaluates five NAS Parallel Benchmarks (EP, IS, CG, MG, LU,
//! class A over LAM/MPI) and NAMD (apoa1). We cannot run the real binaries
//! inside a full-system simulator, but the synchronization technique is
//! only sensitive to the *communication/computation structure* — message
//! sizes, dependency chains, phase lengths — so each benchmark is
//! regenerated as a node-program workload with its documented pattern:
//!
//! | workload | pattern (per the NAS/NAMD docs & the paper §4) |
//! |---|---|
//! | EP  | embarrassingly parallel compute, initial broadcast + final reduction |
//! | IS  | repeated small `allreduce` + large `alltoall` (fine-grain chains) |
//! | CG  | irregular long-distance pairwise exchange + reductions |
//! | MG  | short+long distance structured exchanges over grid levels |
//! | LU  | pipelined wavefront of many small messages, limited parallelism |
//! | NAMD| continuous neighbour exchange, no quiet gaps, per-step reduction |
//!
//! Programs are built through [`MpiBuilder`], which implements the MPI
//! collectives (barrier, broadcast, reduce, allreduce, alltoall) out of
//! point-to-point messages the way LAM/MPI does — so the packet-level
//! behaviour (and therefore straggler formation) is realistic.
//!
//! # Examples
//!
//! ```
//! use aqs_workloads::{nas, Scale};
//!
//! let spec = nas::is(4, Scale::Tiny);
//! assert_eq!(spec.programs.len(), 4);
//! assert!(spec.programs.iter().all(|p| !p.is_empty()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod background;
mod micro;
mod mpi;
pub mod namd;
pub mod nas;
pub mod production;
mod spec;
mod workload;

pub use background::with_background_traffic;
pub use micro::{burst, ping_pong, uniform_compute};
pub use mpi::MpiBuilder;
pub use production::{gossip, ml_allreduce, parameter_server, rpc_fanout, rpc_incast};
pub use spec::{MetricKind, Scale, WorkloadSpec};
pub use workload::{NasBench, Workload};

/// Nodes a cluster may have at most: the largest any gate or benchmark
/// builds (`incast_256k`). The CLI's `--nodes`, a scenario file's `nodes`
/// and a job server's case job each reject a larger count, which the
/// builders would otherwise allocate per node until the process aborts.
pub const MAX_NODES: usize = 262_144;
