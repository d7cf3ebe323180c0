//! Node-id and destination types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated cluster node (and of its NIC's switch port).
///
/// Nodes are numbered densely from zero; the network controller sizes its
/// tables from the highest id it is configured with.
///
/// # Examples
///
/// ```
/// use aqs_net::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Where a packet is headed: one port or all ports (broadcast/multicast are
/// delivered to every node except the sender, as a link-layer switch would).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Destination {
    /// A single receiving node.
    Unicast(NodeId),
    /// All nodes except the sender.
    Broadcast,
}

impl fmt::Display for Destination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Destination::Unicast(n) => write!(f, "{n}"),
            Destination::Broadcast => write!(f, "broadcast"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.as_u32(), 42);
        assert_eq!(NodeId::from(42u32), n);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(5).to_string(), "n5");
        assert_eq!(Destination::Unicast(NodeId::new(5)).to_string(), "n5");
        assert_eq!(Destination::Broadcast.to_string(), "broadcast");
    }
}
