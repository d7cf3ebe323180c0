//! A modeled multi-tier (fat-tree) network fabric.
//!
//! The paper's central controller routes every packet through one perfect
//! switch: a single shared latency, no structure, no contention. That is
//! the right baseline for validating the synchronization policies, but it
//! hides the property that actually gates quantum-barrier scaling on real
//! clusters: *topology*. This module adds the first structured switch
//! ([`SimSwitch::Fabric`](crate::SimSwitch::Fabric)) — a two-tier fat-tree
//! with per-link bandwidth, background queue occupancy, and deterministic
//! ECMP-style uplink hashing — sized struct-of-arrays so 64k-node clusters
//! fit in memory.
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
//! # Determinism: open-loop congestion
//!
//! Parallel engines route packets in worker- and race-dependent order, so
//! any switch whose state mutates per call (like
//! [`StoreAndForwardSwitch`](crate::StoreAndForwardSwitch)'s egress busy
//! times) silently breaks the sharded engine's bit-identical-for-every-M
//! guarantee. The fabric instead models congestion *open loop*: each link
//! carries a pseudo-random background queue occupancy drawn by hashing
//! `(link, departure_epoch)`, where the epoch is the packet's departure
//! time quantized to [`FabricConfig::queue_epoch`]. Transit is a **pure
//! function of `(src, dst, bytes, departure)`** — strictly stronger than
//! keying to the sender's quantum edge — so identical call *sets* produce
//! identical delays regardless of call order, worker count, or engine.
//! Observed per-link load ([`LinkLoad`]) is commutative-sum bookkeeping
//! only and never feeds back into timing.

use aqs_time::SimDuration;

/// Configuration of a [`FatTreeFabric`].
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
    /// Bandwidth of an edge (node-to-ToR) link, bits per second.
    pub edge_bw_bps: u64,
    /// Bandwidth of an uplink/downlink (ToR-to-spine) link, bits per second.
    pub uplink_bw_bps: u64,
    /// Propagation latency of one edge hop.
    pub edge_latency: SimDuration,
    /// Propagation latency of one uplink/downlink hop.
    pub uplink_latency: SimDuration,
    /// Width of the congestion epoch: departures inside the same epoch see
    /// the same background queue occupancy on a given link. Must be
    /// nonzero.
    pub queue_epoch: SimDuration,
    /// Upper bound on the background queue occupancy drawn per
    /// `(link, epoch)`, in bytes. Zero disables modeled congestion.
    pub max_queue_bytes: u64,
}

impl FabricConfig {
    /// The default two-tier fat tree: 32-node racks, 4 ECMP uplink planes,
    /// 10 Gb/s edges (matching [`NicModel::paper_default`]), 40 Gb/s
    /// uplinks, and a few-microsecond congestion epoch with up to two
    /// jumbo frames of background queue per link.
    ///
    /// [`NicModel::paper_default`]: crate::NicModel::paper_default
    pub fn fat_tree() -> Self {
        Self {
            rack_size: 32,
            uplinks_per_rack: 4,
            edge_bw_bps: 10_000_000_000,
            uplink_bw_bps: 40_000_000_000,
            edge_latency: SimDuration::from_nanos(300),
            uplink_latency: SimDuration::from_nanos(600),
            queue_epoch: SimDuration::from_micros(4),
            max_queue_bytes: 18_000,
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

    /// Returns the config with the given background-queue bound in bytes.
    pub fn with_max_queue_bytes(mut self, bytes: u64) -> Self {
        self.max_queue_bytes = bytes;
        self
    }

    /// Returns the config with the given congestion epoch width.
    pub fn with_queue_epoch(mut self, epoch: SimDuration) -> Self {
        self.queue_epoch = epoch;
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
        if self.edge_bw_bps == 0 || self.uplink_bw_bps == 0 {
            return Err("link bandwidths must be nonzero".into());
        }
        if self.queue_epoch.is_zero() {
            return Err("queue_epoch must be nonzero".into());
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

/// splitmix64 finalizer — a fast, well-mixed hash used for both ECMP plane
/// selection and background queue occupancy. Pure, so transit stays a
/// function of its arguments alone.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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

/// A two-tier fat-tree fabric: the first structured switch model.
///
/// Per-node state is packed struct-of-arrays — one `u32` rack id per node,
/// no dense n×n tables — so the model stays a few hundred kilobytes even
/// at 64k nodes. Transit is a pure function of
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
    cfg: FabricConfig,
    n_nodes: u32,
    n_racks: u32,
    /// Rack id per node — the only per-node state, packed SoA.
    rack_of: Vec<u32>,
    /// `queue_epoch` in nanoseconds, hoisted out of the hot path.
    epoch_nanos: u64,
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
        let n_racks = n.div_ceil(cfg.rack_size);
        let rack_of = (0..n).map(|i| i / cfg.rack_size).collect();
        Self {
            cfg,
            n_nodes: n,
            n_racks,
            rack_of,
            epoch_nanos: cfg.queue_epoch.as_nanos(),
        }
    }

    /// The configuration this fabric was built from.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Number of nodes attached to the fabric.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes as usize
    }

    /// Number of racks (top-of-rack switches).
    pub fn n_racks(&self) -> usize {
        self.n_racks as usize
    }

    /// The rack a node lives in.
    #[inline]
    pub fn rack_of(&self, node: u32) -> u32 {
        self.rack_of[node as usize]
    }

    /// Total number of modeled links. Link ids are dense:
    /// `0..n_nodes` are edge links (one per node), then one uplink and one
    /// downlink per `(rack, plane)` pair.
    pub fn n_links(&self) -> usize {
        (self.n_nodes + 2 * self.n_racks * self.cfg.uplinks_per_rack) as usize
    }

    #[inline]
    fn uplink(&self, rack: u32, plane: u32) -> u32 {
        self.n_nodes + rack * self.cfg.uplinks_per_rack + plane
    }

    #[inline]
    fn downlink(&self, rack: u32, plane: u32) -> u32 {
        self.n_nodes
            + self.n_racks * self.cfg.uplinks_per_rack
            + rack * self.cfg.uplinks_per_rack
            + plane
    }

    /// Human-readable label for a link id, for reports and diagnostics.
    pub fn link_label(&self, link: u32) -> String {
        let u = self.cfg.uplinks_per_rack;
        if link < self.n_nodes {
            return format!("edge:n{link}");
        }
        let rel = link - self.n_nodes;
        if rel < self.n_racks * u {
            format!("up:r{}/{}", rel / u, rel % u)
        } else {
            let rel = rel - self.n_racks * u;
            format!("down:r{}/{}", rel / u, rel % u)
        }
    }

    /// The ECMP plane a `(src, dst)` flow is pinned to.
    #[inline]
    fn plane(&self, src: u32, dst: u32) -> u32 {
        (mix(((src as u64) << 32) | dst as u64) % self.cfg.uplinks_per_rack as u64) as u32
    }

    /// The ordered links a packet from `src` to `dst` crosses.
    ///
    /// # Panics
    ///
    /// Panics when either node id is out of range.
    #[inline]
    pub fn path(&self, src: u32, dst: u32) -> LinkPath {
        let rs = self.rack_of[src as usize];
        let rd = self.rack_of[dst as usize];
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

    /// Background queue occupancy (bytes) of `link` during `epoch` — a
    /// pure hash draw in `0..=max_queue_bytes`.
    #[inline]
    fn queue_bytes(&self, link: u32, epoch: u64) -> u64 {
        if self.cfg.max_queue_bytes == 0 {
            return 0;
        }
        mix(mix(link as u64 + 1) ^ epoch) % (self.cfg.max_queue_bytes + 1)
    }

    /// Transit delay in nanoseconds — the pure hot-path form.
    ///
    /// Depends only on `(src, dst, bytes, departure_nanos)`: propagation
    /// over each hop, store-and-forward re-serialization at the uplink and
    /// destination-edge stages, and epoch-keyed background queueing on
    /// every link past the source edge. The source edge itself is the
    /// sender's NIC link, whose serialization the NIC model already
    /// charges.
    #[inline]
    pub fn transit_nanos(&self, src: u32, dst: u32, bytes: u32, departure_nanos: u64) -> u64 {
        let cfg = &self.cfg;
        let epoch = departure_nanos / self.epoch_nanos;
        let rs = self.rack_of[src as usize];
        let rd = self.rack_of[dst as usize];
        let edge = cfg.edge_latency.as_nanos() * 2
            + ser_nanos(bytes as u64, cfg.edge_bw_bps)
            + ser_nanos(self.queue_bytes(dst, epoch), cfg.edge_bw_bps);
        if rs == rd {
            return edge;
        }
        let u = self.plane(src, dst);
        let up = self.uplink(rs, u);
        let down = self.downlink(rd, u);
        edge + cfg.uplink_latency.as_nanos() * 2
            + ser_nanos(bytes as u64, cfg.uplink_bw_bps)
            + ser_nanos(
                self.queue_bytes(up, epoch) + self.queue_bytes(down, epoch),
                cfg.uplink_bw_bps,
            )
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

    #[test]
    fn racks_and_links_are_sized_from_the_config() {
        let f = small();
        assert_eq!(f.n_racks(), 3); // 4 + 4 + 2 nodes
        assert_eq!(f.rack_of(0), 0);
        assert_eq!(f.rack_of(5), 1);
        assert_eq!(f.rack_of(9), 2);
        // 10 edges + 3 racks * 2 planes * (uplink + downlink).
        assert_eq!(f.n_links(), 10 + 12);
    }

    #[test]
    fn link_ids_are_dense_and_labeled() {
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
        assert_eq!(f.link_label(0), "edge:n0");
        assert_eq!(f.link_label(10), "up:r0/0");
        assert_eq!(f.link_label(16), "down:r0/0");
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
        let e = f.config().queue_epoch.as_nanos();
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
    fn zero_max_queue_disables_congestion() {
        let cfg = FabricConfig::fat_tree().with_max_queue_bytes(0);
        let f = FatTreeFabric::new(cfg, 64);
        let e = cfg.queue_epoch.as_nanos();
        assert_eq!(
            f.transit_nanos(0, 40, 512, 0),
            f.transit_nanos(0, 40, 512, 9 * e)
        );
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
        assert!(FabricConfig::fat_tree()
            .with_queue_epoch(SimDuration::ZERO)
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
