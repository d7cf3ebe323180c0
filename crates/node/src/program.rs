//! Workload programs: the operation stream a simulated node executes.

use aqs_time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The application-level identity of a node (its MPI rank).
///
/// Every simulated node runs exactly one rank (the paper simulates clusters
/// of single-processor nodes), so rank *r* lives on node *r*; the types stay
/// separate because one is an application concept and the other a network
/// port.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Rank(u32);

impl Rank {
    /// Creates a rank from its dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Dense index of this rank.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw `u32` value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// Message tag for MPI-style matching.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Tag(u32);

impl Tag {
    /// Creates a tag.
    #[inline]
    pub const fn new(v: u32) -> Self {
        Self(v)
    }

    /// Raw value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// Identifier of a timed region within a program (e.g. the NAS benchmark's
/// timed kernel).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct RegionId(u32);

impl RegionId {
    /// The conventional id of a workload's *main timed kernel* — the region
    /// whose duration feeds the benchmark's self-reported metric.
    pub const KERNEL: Self = Self(0);

    /// Creates a region id.
    #[inline]
    pub const fn new(v: u32) -> Self {
        Self(v)
    }

    /// Raw value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Where a message is sent.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SendTarget {
    /// A single peer rank.
    Rank(Rank),
    /// Link-layer broadcast to all other ranks.
    All,
}

impl From<Rank> for SendTarget {
    fn from(r: Rank) -> Self {
        SendTarget::Rank(r)
    }
}

/// Rank *i* runs on node *i*: the one place a program's target becomes a
/// switch destination.
impl From<SendTarget> for aqs_net::Destination {
    fn from(t: SendTarget) -> Self {
        match t {
            SendTarget::Rank(r) => aqs_net::Destination::Unicast(aqs_net::NodeId::new(r.as_u32())),
            SendTarget::All => aqs_net::Destination::Broadcast,
        }
    }
}

/// One operation of a node program.
///
/// Programs are flat op sequences: workload generators unroll their loops,
/// which keeps the executor a trivial, obviously-correct interpreter.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Op {
    /// Execute `ops` abstract operations (counted toward MOPS); simulated
    /// duration comes from the [`CpuModel`](crate::CpuModel).
    Compute {
        /// Number of abstract operations.
        ops: u64,
    },
    /// Let simulated time pass without doing accountable work (sleep, OS
    /// housekeeping gaps).
    Idle {
        /// How long to idle.
        dur: SimDuration,
    },
    /// Hand a message to the NIC. The sender is occupied for the message's
    /// serialization time (an eager, blocking send — what LAM/MPI over TCP
    /// does for these sizes).
    Send {
        /// Destination rank or broadcast.
        dst: SendTarget,
        /// Message payload size in bytes.
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// Block until a matching message has fully arrived.
    Recv {
        /// Expected sender; `None` accepts any source (wildcard).
        src: Option<Rank>,
        /// Matching tag.
        tag: Tag,
    },
    /// Mark the start of a timed region.
    RegionStart(RegionId),
    /// Mark the end of a timed region.
    RegionEnd(RegionId),
}

/// A complete node program: the rank it implements plus its op stream.
///
/// # Examples
///
/// ```
/// use aqs_node::{ProgramBuilder, Rank, Tag};
///
/// let p = ProgramBuilder::new(Rank::new(1))
///     .recv(Some(Rank::new(0)), Tag::new(9))
///     .compute(500)
///     .send(Rank::new(0), 1024, Tag::new(9))
///     .build();
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.rank(), Rank::new(1));
/// ```
///
/// The op stream is immutable once built and shared: cloning a program (an
/// engine's per-window checkpoint, a `Sim` input clone) copies a pointer,
/// not the ops.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    rank: Rank,
    ops: Arc<[Op]>,
}

impl Program {
    /// Creates a program directly from parts.
    pub fn new(rank: Rank, ops: Vec<Op>) -> Self {
        Self {
            rank,
            ops: ops.into(),
        }
    }

    /// The rank this program implements.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// The op stream.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the program has no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total abstract operations across all `Compute` ops (the workload's
    /// op budget, used for MOPS denominators).
    pub fn total_compute_ops(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Compute { ops } => *ops,
                _ => 0,
            })
            .sum()
    }

    /// Number of `Send` ops (each may fragment into several frames).
    pub fn send_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count()
    }

    /// Number of `Recv` ops.
    pub fn recv_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Recv { .. }))
            .count()
    }
}

/// Incremental builder for [`Program`]s.
///
/// All methods take and return `self`, so loops can be written by
/// reassigning (consuming builder, per the API guidelines' builder pattern).
///
/// # Examples
///
/// ```
/// use aqs_node::{ProgramBuilder, Rank, RegionId, Tag};
///
/// let mut b = ProgramBuilder::new(Rank::new(0)).region_start(RegionId::KERNEL);
/// for _ in 0..3 {
///     b = b.compute(100).send(Rank::new(1), 64, Tag::new(0));
/// }
/// let p = b.region_end(RegionId::KERNEL).build();
/// assert_eq!(p.len(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    rank: Rank,
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Starts a program for `rank`.
    pub fn new(rank: Rank) -> Self {
        Self {
            rank,
            ops: Vec::new(),
        }
    }

    /// Appends a compute op.
    pub fn compute(mut self, ops: u64) -> Self {
        self.ops.push(Op::Compute { ops });
        self
    }

    /// Appends an idle op.
    pub fn idle(mut self, dur: SimDuration) -> Self {
        self.ops.push(Op::Idle { dur });
        self
    }

    /// Appends a unicast send.
    ///
    /// # Panics
    ///
    /// Panics if `dst` equals the program's own rank.
    pub fn send(mut self, dst: Rank, bytes: u64, tag: Tag) -> Self {
        assert!(dst != self.rank, "{} cannot send to itself", self.rank);
        self.ops.push(Op::Send {
            dst: SendTarget::Rank(dst),
            bytes,
            tag,
        });
        self
    }

    /// Appends a broadcast send.
    pub fn send_all(mut self, bytes: u64, tag: Tag) -> Self {
        self.ops.push(Op::Send {
            dst: SendTarget::All,
            bytes,
            tag,
        });
        self
    }

    /// Appends a blocking receive.
    ///
    /// # Panics
    ///
    /// Panics if `src` equals the program's own rank.
    pub fn recv(mut self, src: Option<Rank>, tag: Tag) -> Self {
        if let Some(s) = src {
            assert!(s != self.rank, "{} cannot receive from itself", self.rank);
        }
        self.ops.push(Op::Recv { src, tag });
        self
    }

    /// Appends a region-start marker.
    pub fn region_start(mut self, region: RegionId) -> Self {
        self.ops.push(Op::RegionStart(region));
        self
    }

    /// Appends a region-end marker.
    pub fn region_end(mut self, region: RegionId) -> Self {
        self.ops.push(Op::RegionEnd(region));
        self
    }

    /// Appends a raw op.
    pub fn push(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        Program::new(self.rank, self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_order() {
        let p = ProgramBuilder::new(Rank::new(0))
            .compute(10)
            .idle(SimDuration::from_micros(1))
            .send(Rank::new(1), 100, Tag::new(2))
            .recv(None, Tag::new(2))
            .region_start(RegionId::KERNEL)
            .region_end(RegionId::KERNEL)
            .build();
        assert_eq!(p.len(), 6);
        assert!(matches!(p.ops()[0], Op::Compute { ops: 10 }));
        assert!(matches!(p.ops()[2], Op::Send { bytes: 100, .. }));
        assert!(matches!(p.ops()[3], Op::Recv { src: None, .. }));
    }

    #[test]
    fn totals() {
        let p = ProgramBuilder::new(Rank::new(0))
            .compute(10)
            .compute(20)
            .send(Rank::new(1), 1, Tag::new(0))
            .recv(Some(Rank::new(1)), Tag::new(0))
            .build();
        assert_eq!(p.total_compute_ops(), 30);
        assert_eq!(p.send_count(), 1);
        assert_eq!(p.recv_count(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot send to itself")]
    fn self_send_rejected() {
        let _ = ProgramBuilder::new(Rank::new(3)).send(Rank::new(3), 1, Tag::new(0));
    }

    #[test]
    #[should_panic(expected = "cannot receive from itself")]
    fn self_recv_rejected() {
        let _ = ProgramBuilder::new(Rank::new(3)).recv(Some(Rank::new(3)), Tag::new(0));
    }

    #[test]
    fn displays() {
        assert_eq!(Rank::new(4).to_string(), "rank4");
        assert_eq!(Tag::new(7).to_string(), "tag7");
        assert_eq!(RegionId::KERNEL.to_string(), "region0");
    }

    #[test]
    fn send_target_from_rank() {
        let t: SendTarget = Rank::new(2).into();
        assert_eq!(t, SendTarget::Rank(Rank::new(2)));
        use aqs_net::{Destination, NodeId};
        assert_eq!(Destination::from(t), Destination::Unicast(NodeId::new(2)));
        assert_eq!(Destination::from(SendTarget::All), Destination::Broadcast);
    }

    #[test]
    fn clone_shares_the_op_stream() {
        let a = ProgramBuilder::new(Rank::new(0))
            .compute(10)
            .send(Rank::new(1), 64, Tag::new(0))
            .build();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.ops().as_ptr(), b.ops().as_ptr());
    }

    #[test]
    fn serializes_exactly_as_a_vec_of_ops_would() {
        let ops = vec![
            Op::Compute { ops: 7 },
            Op::Send {
                dst: SendTarget::All,
                bytes: 64,
                tag: Tag::new(1),
            },
            Op::RegionEnd(RegionId::KERNEL),
        ];
        let p = Program::new(Rank::new(2), ops.clone());
        let v = p.to_value();
        assert_eq!(v.get("rank"), Some(&Rank::new(2).to_value()));
        assert_eq!(v.get("ops"), Some(&ops.to_value()));
        assert_eq!(Program::from_value(&v).unwrap(), p);
    }

    #[test]
    fn empty_program() {
        let p = Program::new(Rank::new(0), vec![]);
        assert!(p.is_empty());
        assert_eq!(p.total_compute_ops(), 0);
    }
}
