//! A modeled multi-tier (fat-tree) network fabric.
//!
//! The paper's central controller routes every packet through one perfect
//! switch: a single shared latency, no structure, no contention. That is
//! the right baseline for validating the synchronization policies, but it
//! hides the property that actually gates quantum-barrier scaling on real
//! clusters: *topology*. This module adds the first structured switch
//! ([`SimSwitch::Fabric`](crate::SimSwitch::Fabric)) — a two-tier fat-tree
//! with per-link bandwidth, background queue occupancy, and deterministic
//! ECMP-style uplink hashing. It stores no per-node state: a node's rack
//! and every link id are arithmetic on the node id, so a 256k-node fabric
//! is a handful of integers.
//!
//! # Topology
//!
//! Nodes are packed into racks of [`FabricConfig::rack_size`] each. Every
//! node hangs off its rack's top-of-rack (ToR) switch by an *edge link*;
//! every ToR reaches a spine layer through
//! [`FabricConfig::uplinks_per_rack`] *uplink planes* (one uplink and one
//! downlink per plane per rack). A packet therefore crosses either
//!
//! - `src edge → ToR → dst edge` (same rack), or
//! - `src edge → ToR → uplink u → spine → downlink u → ToR → dst edge`
//!   (cross rack), with the plane `u` picked by a flow-pinned hash of
//!   `(src, dst)` — deterministic ECMP.
//!
//! Edges run at the NIC's 10 Gb/s with 300 ns per hop, uplinks and
//! downlinks at 40 Gb/s with 600 ns per hop.
//!
//! # Determinism: open-loop congestion
//!
//! Parallel engines route packets in worker- and race-dependent order, so
//! any switch whose state mutates per call (like
//! [`StoreAndForwardSwitch`](crate::StoreAndForwardSwitch)'s egress busy
//! times) silently breaks the sharded engine's bit-identical-for-every-M
//! guarantee. The fabric instead models congestion *open loop*: each link
//! carries a pseudo-random background queue occupancy of up to two jumbo
//! frames, drawn by hashing `(link, departure_epoch)`, where the epoch is
//! the packet's departure time quantized to 4 µs. Transit is a **pure
//! function of `(src, dst, bytes, departure)`** — strictly stronger than
//! keying to the sender's quantum edge — so identical call *sets* produce
//! identical delays regardless of call order, worker count, or engine.
//! Observed per-link load ([`LinkLoad`]) is commutative-sum bookkeeping
//! only and never feeds back into timing.

use aqs_rng::mix64;

/// Bandwidth of an edge (node-to-ToR) link, bits per second: the NIC's
/// ([`NicModel::paper_default`](crate::NicModel::paper_default)).
const EDGE_BW_BPS: u64 = 10_000_000_000;
/// Bandwidth of an uplink or downlink (ToR-to-spine) link, bits per second.
const UPLINK_BW_BPS: u64 = 40_000_000_000;
/// Propagation latency of one edge hop, nanoseconds.
const EDGE_LATENCY_NANOS: u64 = 300;
/// Propagation latency of one uplink or downlink hop, nanoseconds.
const UPLINK_LATENCY_NANOS: u64 = 600;
/// Width of the congestion epoch, nanoseconds: departures inside the same
/// epoch see the same background queue occupancy on a given link.
const QUEUE_EPOCH_NANOS: u64 = 4_000;
/// Upper bound on the background queue occupancy drawn per
/// `(link, epoch)`, bytes: two jumbo frames.
const MAX_QUEUE_BYTES: u64 = 18_000;

/// Configuration of a [`FatTreeFabric`]: its shape. The link speeds and
/// the congestion model are the same for every fabric.
///
/// # Examples
///
/// ```
/// use aqs_net::FabricConfig;
/// let cfg = FabricConfig::fat_tree().with_rack_size(16);
/// assert!(cfg.validate().is_ok());
/// assert!(FabricConfig { rack_size: 0, ..cfg }.validate().is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabricConfig {
    /// Nodes per rack (per top-of-rack switch). Must be at least 1.
    pub rack_size: u32,
    /// Uplink planes per rack (ECMP width). Must be at least 1.
    pub uplinks_per_rack: u32,
}

impl FabricConfig {
    /// The default two-tier fat tree: 32-node racks, 4 ECMP uplink planes.
    pub fn fat_tree() -> Self {
        Self {
            rack_size: 32,
            uplinks_per_rack: 4,
        }
    }

    /// Returns the config with the given rack size.
    pub fn with_rack_size(mut self, rack_size: u32) -> Self {
        self.rack_size = rack_size;
        self
    }

    /// Returns the config with the given number of uplink planes.
    pub fn with_uplinks_per_rack(mut self, uplinks: u32) -> Self {
        self.uplinks_per_rack = uplinks;
        self
    }

    /// Checks the configuration, returning a human-readable reason when it
    /// cannot describe a working fabric.
    pub fn validate(&self) -> Result<(), String> {
        if self.rack_size == 0 {
            return Err("rack_size must be at least 1".into());
        }
        if self.uplinks_per_rack == 0 {
            return Err("uplinks_per_rack must be at least 1".into());
        }
        Ok(())
    }
}

/// The maximum number of links a packet can cross: source edge, uplink,
/// downlink, destination edge.
pub const MAX_PATH_LINKS: usize = 4;

/// The sequence of link ids a packet crosses, in order.
///
/// Same-rack paths have two links (both edges); cross-rack paths have four
/// (source edge, uplink, downlink, destination edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkPath {
    links: [u32; MAX_PATH_LINKS],
    len: u8,
}

impl LinkPath {
    /// The link ids crossed, in path order.
    #[inline]
    pub fn links(&self) -> &[u32] {
        &self.links[..self.len as usize]
    }
}

/// Serialization time of `bytes` over a `bw_bps` link, in nanoseconds,
/// rounded up (matches [`NicModel::serialization_delay`]).
///
/// [`NicModel::serialization_delay`]: crate::NicModel::serialization_delay
#[inline]
fn ser_nanos(bytes: u64, bw_bps: u64) -> u64 {
    let bits = (bytes as u128) * 8 * 1_000_000_000;
    bits.div_ceil(bw_bps as u128) as u64
}

/// Background queue occupancy (bytes) of `link` during `epoch` — a pure
/// hash draw in `0..=MAX_QUEUE_BYTES`.
#[inline]
fn queue_bytes(link: u32, epoch: u64) -> u64 {
    mix64(mix64(link as u64 + 1) ^ epoch) % (MAX_QUEUE_BYTES + 1)
}

/// A two-tier fat-tree fabric: the first structured switch model.
///
/// Four integers: no per-node state and no n×n tables, so building one
/// allocates nothing at any node count. Transit is a pure function of
/// `(src, dst, bytes, departure)`, which makes the model safe for *every* engine:
/// deterministic and sharded runs all produce bit-identical timelines, for
/// every worker count.
///
/// # Examples
///
/// ```
/// use aqs_net::{FabricConfig, FatTreeFabric};
/// use aqs_time::SimTime;
///
/// let fabric = FatTreeFabric::new(FabricConfig::fat_tree(), 128);
/// assert_eq!(fabric.n_racks(), 4);
/// let t = SimTime::from_micros(5);
/// // Pure: same arguments, same delay — call order cannot matter.
/// let a = fabric.transit_nanos(0, 40, 1024, t.as_nanos());
/// let b = fabric.transit_nanos(0, 40, 1024, t.as_nanos());
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Debug)]
pub struct FatTreeFabric {
    n_nodes: u32,
    n_racks: u32,
    rack_size: u32,
    planes: u32,
}

impl FatTreeFabric {
    /// Builds the fabric for `n_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`FabricConfig::validate`] or
    /// `n_nodes` is zero.
    pub fn new(cfg: FabricConfig, n_nodes: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid fabric configuration: {e}");
        }
        assert!(n_nodes > 0, "a fabric needs at least one node");
        let n = u32::try_from(n_nodes).expect("node count fits in u32");
        Self {
            n_nodes: n,
            n_racks: n.div_ceil(cfg.rack_size),
            rack_size: cfg.rack_size,
            planes: cfg.uplinks_per_rack,
        }
    }

    /// Number of nodes attached to the fabric.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes as usize
    }

    /// Number of racks (top-of-rack switches).
    pub fn n_racks(&self) -> usize {
        self.n_racks as usize
    }

    /// Total number of modeled links. Link ids are dense:
    /// `0..n_nodes` are edge links (one per node), then one uplink and one
    /// downlink per `(rack, plane)` pair.
    pub fn n_links(&self) -> usize {
        (self.n_nodes + 2 * self.n_racks * self.planes) as usize
    }

    #[inline]
    fn uplink(&self, rack: u32, plane: u32) -> u32 {
        self.n_nodes + rack * self.planes + plane
    }

    #[inline]
    fn downlink(&self, rack: u32, plane: u32) -> u32 {
        self.n_nodes + (self.n_racks + rack) * self.planes + plane
    }

    /// The ECMP plane a `(src, dst)` flow is pinned to.
    #[inline]
    fn plane(&self, src: u32, dst: u32) -> u32 {
        (mix64(((src as u64) << 32) | dst as u64) % self.planes as u64) as u32
    }

    /// The ordered links a packet from `src` to `dst` crosses.
    ///
    /// Both ids must be below [`Self::n_nodes`], as every frame the router
    /// prices is (`Sim` rejects a program that sends elsewhere); a debug
    /// build checks it.
    #[inline]
    pub fn path(&self, src: u32, dst: u32) -> LinkPath {
        debug_assert!(
            src < self.n_nodes && dst < self.n_nodes,
            "node id out of range"
        );
        let (rs, rd) = (src / self.rack_size, dst / self.rack_size);
        if rs == rd {
            LinkPath {
                links: [src, dst, 0, 0],
                len: 2,
            }
        } else {
            let u = self.plane(src, dst);
            LinkPath {
                links: [src, self.uplink(rs, u), self.downlink(rd, u), dst],
                len: 4,
            }
        }
    }

    /// Transit delay in nanoseconds — the pure hot-path form — of the links
    /// [`Self::path`] returns.
    ///
    /// Depends only on `(src, dst, bytes, departure_nanos)`: propagation
    /// over each hop, store-and-forward re-serialization at the uplink and
    /// destination-edge stages, and epoch-keyed background queueing on
    /// every link past the source edge. The source edge itself is the
    /// sender's NIC link, whose serialization the NIC model already
    /// charges.
    #[inline]
    pub fn transit_nanos(&self, src: u32, dst: u32, bytes: u32, departure_nanos: u64) -> u64 {
        let epoch = departure_nanos / QUEUE_EPOCH_NANOS;
        let bytes = bytes as u64;
        let edge = |dst_edge| {
            EDGE_LATENCY_NANOS * 2
                + ser_nanos(bytes, EDGE_BW_BPS)
                + ser_nanos(queue_bytes(dst_edge, epoch), EDGE_BW_BPS)
        };
        match *self.path(src, dst).links() {
            [_, dst_edge] => edge(dst_edge),
            [_, up, down, dst_edge] => {
                edge(dst_edge)
                    + UPLINK_LATENCY_NANOS * 2
                    + ser_nanos(bytes, UPLINK_BW_BPS)
                    + ser_nanos(
                        queue_bytes(up, epoch) + queue_bytes(down, epoch),
                        UPLINK_BW_BPS,
                    )
            }
            _ => unreachable!("a path crosses two or four links"),
        }
    }
}

/// Per-slice accumulation of observed link load: bytes and packets per
/// link id, commutative sums only.
///
/// Each shard of the sharded engine owns one slice and records the links
/// its senders cross; the leader merges all slices at the quantum barrier.
/// Because addition commutes, the merged totals are independent of worker
/// count and call order — load observation never perturbs the
/// bit-identity guarantee.
#[derive(Clone, Debug, Default)]
pub struct LinkLoad {
    bytes: Vec<u64>,
    packets: Vec<u64>,
}

impl LinkLoad {
    /// An accumulator for `n_links` links, all zero.
    pub fn new(n_links: usize) -> Self {
        Self {
            bytes: vec![0; n_links],
            packets: vec![0; n_links],
        }
    }

    /// Number of links tracked.
    pub fn n_links(&self) -> usize {
        self.bytes.len()
    }

    /// True when tracking no links at all.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Records one packet of `bytes` crossing `link`.
    #[inline]
    pub fn record(&mut self, link: u32, bytes: u64) {
        self.bytes[link as usize] += bytes;
        self.packets[link as usize] += 1;
    }

    /// Adds `bytes` and `packets` to `link`'s totals.
    #[inline]
    pub fn add(&mut self, link: usize, bytes: u64, packets: u64) {
        self.bytes[link] += bytes;
        self.packets[link] += packets;
    }

    /// Merges another slice's totals into this one.
    pub fn merge(&mut self, other: &LinkLoad) {
        assert_eq!(self.n_links(), other.n_links(), "link count mismatch");
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
        for (a, b) in self.packets.iter_mut().zip(&other.packets) {
            *a += b;
        }
    }

    /// Zeroes all totals in place, keeping capacity.
    pub fn clear(&mut self) {
        self.bytes.fill(0);
        self.packets.fill(0);
    }

    /// Cumulative bytes per link id.
    pub fn bytes(&self) -> &[u64] {
        &self.bytes
    }

    /// Cumulative packets per link id.
    pub fn packets(&self) -> &[u64] {
        &self.packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FatTreeFabric {
        let cfg = FabricConfig::fat_tree()
            .with_rack_size(4)
            .with_uplinks_per_rack(2);
        FatTreeFabric::new(cfg, 10)
    }

    /// `(src, dst, bytes, departure, transit, path)`, computed once and
    /// pinned: a change to the link constants, the plane hash, the queue
    /// draw or the link numbering shows here as a changed number.
    type Pinned = (u32, u32, u32, u64, u64, &'static [u32]);

    #[test]
    fn transit_and_paths_are_pinned() {
        // Same rack, both sides of the 4 µs epoch edge, a 0-byte frame,
        // then the same for cross-rack pairs, then departures around 2^40.
        let fat_tree: [Pinned; 10] = [
            (0, 1, 1500, 0, 14666, &[0, 1]),
            (31, 2, 9000, 3_999, 20948, &[31, 2]),
            (31, 2, 9000, 4_000, 16264, &[31, 2]),
            (2, 30, 0, 12_345, 9472, &[2, 30]),
            (0, 40, 1500, 0, 7558, &[0, 130, 150, 40]),
            (127, 32, 9000, 7_999, 19007, &[127, 142, 150, 32]),
            (127, 32, 9000, 8_000, 22185, &[127, 142, 150, 32]),
            (64, 100, 0, 123_456_789, 13798, &[64, 137, 157, 100]),
            (90, 14, 9000, (1 << 40) - 1, 14026, &[90, 137, 145, 14]),
            (14, 90, 9000, 1 << 40, 24538, &[14, 130, 154, 90]),
        ];
        let rack4_planes2: [Pinned; 10] = [
            (0, 1, 1500, 0, 14666, &[0, 1]),
            (3, 2, 9000, 3_999, 20948, &[3, 2]),
            (3, 2, 9000, 4_000, 16264, &[3, 2]),
            (2, 1, 0, 12_345, 7008, &[2, 1]),
            (0, 5, 1500, 0, 15644, &[0, 10, 18, 5]),
            (9, 4, 9000, 7_999, 27778, &[9, 14, 18, 4]),
            (9, 4, 9000, 8_000, 15463, &[9, 14, 18, 4]),
            (5, 8, 0, 123_456_789, 17758, &[5, 12, 20, 8]),
            (7, 1, 9000, (1 << 40) - 1, 28121, &[7, 12, 16, 1]),
            (1, 7, 9000, 1 << 40, 14577, &[1, 11, 19, 7]),
        ];
        for (f, table) in [
            (FatTreeFabric::new(FabricConfig::fat_tree(), 128), fat_tree),
            (small(), rack4_planes2),
        ] {
            for (src, dst, bytes, at, transit, links) in table {
                assert_eq!(
                    f.transit_nanos(src, dst, bytes, at),
                    transit,
                    "{src}->{dst} {bytes} B at {at}"
                );
                assert_eq!(f.path(src, dst).links(), links, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn racks_and_links_are_sized_from_the_config() {
        let f = small();
        assert_eq!(f.n_racks(), 3); // 4 + 4 + 2 nodes
                                    // The last rack holds the two nodes left over.
        assert_eq!(f.path(8, 9).links().len(), 2);
        assert_eq!(f.path(7, 8).links().len(), 4);
        // 10 edges + 3 racks * 2 planes * (uplink + downlink).
        assert_eq!(f.n_links(), 10 + 12);
        // Four integers at any node count: nothing is stored per node.
        assert_eq!(size_of::<FatTreeFabric>(), 16);
    }

    #[test]
    fn link_ids_are_dense() {
        let f = small();
        let mut seen = vec![false; f.n_links()];
        for src in 0..10u32 {
            for dst in 0..10u32 {
                if src == dst {
                    continue;
                }
                for &l in f.path(src, dst).links() {
                    seen[l as usize] = true;
                }
            }
        }
        // Every edge link is used; uplink planes may miss some (hash), but
        // all ids must be in range (indexing above would have panicked).
        assert!(seen[..10].iter().all(|&s| s));
    }

    #[test]
    fn same_rack_paths_skip_the_spine() {
        let f = small();
        assert_eq!(f.path(0, 3).links().len(), 2);
        assert_eq!(f.path(0, 4).links().len(), 4);
    }

    #[test]
    fn transit_is_pure_and_flow_pinned() {
        let f = small();
        let t = 7_000;
        assert_eq!(
            f.transit_nanos(0, 5, 1024, t),
            f.transit_nanos(0, 5, 1024, t)
        );
        // The ECMP plane is pinned per flow: the path never changes with time.
        assert_eq!(f.path(0, 5), f.path(0, 5));
    }

    #[test]
    fn cross_rack_costs_more_than_same_rack() {
        let f = small();
        let t = 0;
        assert!(f.transit_nanos(0, 4, 1024, t) > f.transit_nanos(0, 1, 1024, t));
    }

    #[test]
    fn congestion_varies_by_epoch_but_not_within_one() {
        let f = small();
        let e = QUEUE_EPOCH_NANOS;
        // Same epoch, different instants: identical.
        assert_eq!(
            f.transit_nanos(0, 1, 64, 0),
            f.transit_nanos(0, 1, 64, e - 1)
        );
        // Some pair of epochs must disagree, else congestion is inert.
        let base = f.transit_nanos(0, 1, 64, 0);
        assert!((1..50).any(|k| f.transit_nanos(0, 1, 64, k * e) != base));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(FabricConfig::fat_tree()
            .with_rack_size(0)
            .validate()
            .is_err());
        assert!(FabricConfig::fat_tree()
            .with_uplinks_per_rack(0)
            .validate()
            .is_err());
    }

    #[test]
    fn link_load_merges_commutatively() {
        let f = small();
        let mut a = LinkLoad::new(f.n_links());
        let mut b = LinkLoad::new(f.n_links());
        for &l in f.path(0, 5).links() {
            a.record(l, 1024);
        }
        for &l in f.path(9, 2).links() {
            b.record(l, 512);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.bytes(), ba.bytes());
        assert_eq!(ab.packets(), ba.packets());
        ab.clear();
        assert!(ab.bytes().iter().all(|&v| v == 0));
    }
}
