//! Deterministic chaos middleware: fault injection as a delay overlay.
//!
//! Production clusters do not run on quiet, perfect fabrics: links flap,
//! switches partition, packets drop and retransmit, nodes stall for
//! garbage-collection pauses, and tenants spike the shared spine. A
//! synchronization policy evaluated only on clean traffic has never been
//! exercised where it matters. This module injects exactly those faults —
//! **without giving up a single determinism guarantee**.
//!
//! # Design: chaos as a pure delay overlay
//!
//! Every fault is expressed as *extra transit delay*, computed by
//! [`ChaosOverlay::extra_nanos`] as a **pure function of
//! `(src, dst, bytes, departure)`** keyed on `(seed, epoch)` — the same
//! contract the [`FatTreeFabric`](crate::FatTreeFabric) satisfies. Time is
//! quantized into chaos epochs ([`ChaosConfig::epoch`]); per-epoch hash
//! draws decide which links are down, which nodes are paused, whether the
//! cluster is partitioned, and whether a load spike is in progress. Because
//! nothing mutates per call, identical call *sets* produce identical delays
//! regardless of call order, worker count, or engine: the same scenario
//! file is bit-identical across the deterministic and sharded engines and
//! every shard count.
//!
//! The fault vocabulary:
//!
//! * **Link flaps** — a node's edge link is down for whole epochs with
//!   probability [`ChaosConfig::link_flap`]; packets crossing a down link
//!   are held until the first epoch in which both endpoints' links are up
//!   (store-and-retransmit, bounded by [`ChaosConfig::hold_scan_epochs`]).
//! * **Partitions** — with probability [`ChaosConfig::partition`] an epoch
//!   splits the cluster into [`ChaosConfig::partition_groups`] static
//!   groups; cross-group packets are held until the partition heals.
//! * **Packet loss** — each packet is lost with probability
//!   [`ChaosConfig::loss`] and retransmitted after
//!   [`ChaosConfig::retransmit`], geometrically up to
//!   [`ChaosConfig::max_retransmits`] times. Loss never drops a frame
//!   outright: in a simulator whose receives must eventually match, loss
//!   *is* retransmission latency.
//! * **Node pauses** — a node is frozen (GC pause, reboot-and-rejoin) for
//!   whole epochs with probability [`ChaosConfig::pause`]; traffic to or
//!   from a paused node is held until it rejoins.
//! * **Jitter** — uniform per-packet delay in `[0, jitter]`.
//! * **Load spikes** — with probability [`ChaosConfig::spike`] an epoch
//!   adds [`ChaosConfig::spike_delay`] to every packet (a tenant hammering
//!   the shared fabric).
//!
//! # Examples
//!
//! ```
//! use aqs_net::{ChaosConfig, ChaosOverlay, NetworkController, NicModel, SimSwitch};
//! use aqs_time::{SimDuration, SimTime};
//!
//! let cfg = ChaosConfig::new(7)
//!     .with_loss(0.5, SimDuration::from_micros(100))
//!     .with_jitter(SimDuration::from_micros(2));
//! let overlay = ChaosOverlay::new(cfg).unwrap();
//! // Pure: same arguments, same delay — call order cannot matter.
//! let a = overlay.extra_nanos(0, 1, 1024, 5_000);
//! assert_eq!(a, overlay.extra_nanos(0, 1, 1024, 5_000));
//!
//! // The controller layers it on whatever the switch itself costs:
//! let nic = NicModel::paper_default();
//! let net = NetworkController::new(2, nic, &SimSwitch::Perfect, Some(overlay)).unwrap();
//! let router = net.into_router().expect("chaos keeps a pure switch pure");
//! let t = SimTime::from_nanos(5_000);
//! let arrival = router.arrival(0, 1, 1024, t);
//! assert_eq!(arrival, t + nic.min_latency() + SimDuration::from_nanos(a));
//! ```

use aqs_time::SimDuration;

/// splitmix64 finalizer (same mixer the fabric uses): fast, well mixed,
/// pure — every chaos draw is one or two of these.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Domain-separation tags so the per-feature draws are independent streams.
const TAG_FLAP: u64 = 0x464C_4150; // "FLAP"
const TAG_PAUSE: u64 = 0x5041_5553; // "PAUS"
const TAG_PART: u64 = 0x5041_5254; // "PART"
const TAG_GROUP: u64 = 0x4752_5550; // "GRUP"
const TAG_LOSS: u64 = 0x4C4F_5353; // "LOSS"
const TAG_JITTER: u64 = 0x4A49_5454; // "JITT"
const TAG_SPIKE: u64 = 0x5350_4B45; // "SPKE"

/// Probability scaled to a 53-bit integer threshold, so the hot path
/// compares integers only (no floating point, no rounding surprises).
#[inline]
fn scale_prob(p: f64) -> u64 {
    (p * (1u64 << 53) as f64) as u64
}

/// Configuration of the chaos middleware. All faults default to *off*; turn
/// each on with its `with_*` setter. Probabilities are per chaos epoch
/// (outage-style faults) or per packet (loss, jitter).
///
/// # Examples
///
/// ```
/// use aqs_net::ChaosConfig;
/// use aqs_time::SimDuration;
///
/// let cfg = ChaosConfig::new(42)
///     .with_link_flap(0.05)
///     .with_partition(0.02, 2)
///     .with_spike(0.1, SimDuration::from_micros(20));
/// assert!(cfg.validate().is_ok());
/// assert!(ChaosConfig { link_flap: 1.5, ..cfg }.validate().is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed of every chaos draw. Two runs with the same seed (and the same
    /// traffic) see the same faults; changing the seed reshuffles them.
    pub seed: u64,
    /// Width of a chaos epoch: outage-style faults (flaps, pauses,
    /// partitions, spikes) hold for whole epochs. Must be nonzero.
    pub epoch: SimDuration,
    /// Probability that a given node's edge link is down during an epoch.
    /// Must be in `[0, 1)`.
    pub link_flap: f64,
    /// Probability that a given node is paused during an epoch. Must be in
    /// `[0, 1)`.
    pub pause: f64,
    /// Probability that the cluster is partitioned during an epoch. Must be
    /// in `[0, 1)`.
    pub partition: f64,
    /// Number of static groups a partition splits the cluster into. Must be
    /// at least 2 when `partition > 0`.
    pub partition_groups: u32,
    /// Bound on how many consecutive epochs a packet can be held by
    /// flap/pause/partition outages before it is released anyway (models
    /// the retransmit give-up / fail-open path). Must be at least 1.
    pub hold_scan_epochs: u32,
    /// Per-packet loss probability. Must be in `[0, 1)`.
    pub loss: f64,
    /// Retransmit timeout added per lost transmission attempt.
    pub retransmit: SimDuration,
    /// Cap on consecutive losses of one packet.
    pub max_retransmits: u32,
    /// Maximum uniform per-packet jitter (zero disables).
    pub jitter: SimDuration,
    /// Probability that an epoch is a load spike. Must be in `[0, 1)`.
    pub spike: f64,
    /// Extra delay every packet suffers during a spike epoch.
    pub spike_delay: SimDuration,
}

impl ChaosConfig {
    /// A configuration with every fault disabled, a 50 µs epoch, and the
    /// given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            epoch: SimDuration::from_micros(50),
            link_flap: 0.0,
            pause: 0.0,
            partition: 0.0,
            partition_groups: 2,
            hold_scan_epochs: 8,
            loss: 0.0,
            retransmit: SimDuration::from_micros(200),
            max_retransmits: 3,
            jitter: SimDuration::ZERO,
            spike: 0.0,
            spike_delay: SimDuration::ZERO,
        }
    }

    /// Returns the config with the given epoch width.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Returns the config with per-epoch link flaps of probability `p`.
    pub fn with_link_flap(mut self, p: f64) -> Self {
        self.link_flap = p;
        self
    }

    /// Returns the config with per-epoch partitions of probability `p`
    /// into `groups` static groups.
    pub fn with_partition(mut self, p: f64, groups: u32) -> Self {
        self.partition = p;
        self.partition_groups = groups;
        self
    }

    /// Returns the config with per-packet loss of probability `p` and the
    /// given retransmit timeout.
    pub fn with_loss(mut self, p: f64, retransmit: SimDuration) -> Self {
        self.loss = p;
        self.retransmit = retransmit;
        self
    }

    /// Returns the config with uniform per-packet jitter in `[0, max]`.
    pub fn with_jitter(mut self, max: SimDuration) -> Self {
        self.jitter = max;
        self
    }

    /// Returns the config with per-epoch load spikes of probability `p`
    /// adding `delay` to every packet.
    pub fn with_spike(mut self, p: f64, delay: SimDuration) -> Self {
        self.spike = p;
        self.spike_delay = delay;
        self
    }

    /// True when every fault is disabled (the overlay would be a no-op).
    pub fn is_inert(&self) -> bool {
        self.link_flap == 0.0
            && self.pause == 0.0
            && self.partition == 0.0
            && self.loss == 0.0
            && self.jitter.is_zero()
            && self.spike == 0.0
    }

    /// Checks the configuration, returning a human-readable reason when it
    /// cannot drive a working overlay.
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch.is_zero() {
            return Err("chaos epoch must be nonzero".into());
        }
        for (name, p) in [
            ("link_flap", self.link_flap),
            ("pause", self.pause),
            ("partition", self.partition),
            ("loss", self.loss),
            ("spike", self.spike),
        ] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("{name} probability must be in [0, 1), got {p}"));
            }
        }
        if self.partition > 0.0 && self.partition_groups < 2 {
            return Err("a partition needs at least 2 groups".into());
        }
        if self.hold_scan_epochs == 0 {
            return Err("hold_scan_epochs must be at least 1".into());
        }
        if self.loss > 0.0 && self.retransmit.is_zero() {
            return Err("loss needs a nonzero retransmit timeout".into());
        }
        if self.spike > 0.0 && self.spike_delay.is_zero() {
            return Err("spike needs a nonzero spike_delay".into());
        }
        Ok(())
    }
}

/// The compiled chaos middleware: thresholds pre-scaled to integers,
/// durations to nanoseconds. Cheap to clone, safe to share across worker
/// threads — it holds no mutable state at all.
#[derive(Clone, Debug)]
pub struct ChaosOverlay {
    cfg: ChaosConfig,
    epoch_nanos: u64,
    flap_thr: u64,
    pause_thr: u64,
    part_thr: u64,
    loss_thr: u64,
    spike_thr: u64,
    retransmit_nanos: u64,
    jitter_nanos: u64,
    spike_nanos: u64,
}

impl ChaosOverlay {
    /// Compiles a validated configuration; `Err` carries
    /// [`ChaosConfig::validate`]'s reason.
    pub fn new(cfg: ChaosConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            epoch_nanos: cfg.epoch.as_nanos(),
            flap_thr: scale_prob(cfg.link_flap),
            pause_thr: scale_prob(cfg.pause),
            part_thr: scale_prob(cfg.partition),
            loss_thr: scale_prob(cfg.loss),
            spike_thr: scale_prob(cfg.spike),
            retransmit_nanos: cfg.retransmit.as_nanos(),
            jitter_nanos: cfg.jitter.as_nanos(),
            spike_nanos: cfg.spike_delay.as_nanos(),
        })
    }

    /// The configuration this overlay was compiled from.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// One 53-bit draw for `(tag, entity, epoch)`, compared against a
    /// pre-scaled threshold by the callers.
    #[inline]
    fn draw(&self, tag: u64, entity: u64, epoch: u64) -> u64 {
        mix(mix(self.cfg.seed ^ tag).wrapping_add(entity) ^ epoch.wrapping_mul(0x9E37)) >> 11
    }

    /// The static partition group of a node.
    #[inline]
    fn group(&self, node: u32) -> u32 {
        (mix(self.cfg.seed ^ TAG_GROUP ^ node as u64) % self.cfg.partition_groups as u64) as u32
    }

    /// True when an outage (flap, pause, or partition) holds `src → dst`
    /// traffic during `epoch`.
    #[inline]
    fn held(&self, src: u32, dst: u32, epoch: u64) -> bool {
        if self.flap_thr > 0
            && (self.draw(TAG_FLAP, src as u64, epoch) < self.flap_thr
                || self.draw(TAG_FLAP, dst as u64, epoch) < self.flap_thr)
        {
            return true;
        }
        if self.pause_thr > 0
            && (self.draw(TAG_PAUSE, src as u64, epoch) < self.pause_thr
                || self.draw(TAG_PAUSE, dst as u64, epoch) < self.pause_thr)
        {
            return true;
        }
        self.part_thr > 0
            && self.draw(TAG_PART, 0, epoch) < self.part_thr
            && self.group(src) != self.group(dst)
    }

    /// Extra transit delay in nanoseconds for a packet of `bytes` from
    /// `src` to `dst` departing at `departure_nanos` — a pure function of
    /// its arguments (plus the compiled config), so it is safe for every
    /// engine under any routing order.
    #[inline]
    pub fn extra_nanos(&self, src: u32, dst: u32, bytes: u32, departure_nanos: u64) -> u64 {
        let e0 = departure_nanos / self.epoch_nanos;
        let mut extra = 0u64;
        // Outages: hold the packet until the first epoch with the link up,
        // both nodes running, and no partition between them (bounded scan).
        if self.flap_thr > 0 || self.pause_thr > 0 || self.part_thr > 0 {
            let mut e = e0;
            let limit = e0 + self.cfg.hold_scan_epochs as u64;
            while e < limit && self.held(src, dst, e) {
                e += 1;
            }
            if e > e0 {
                extra += e * self.epoch_nanos - departure_nanos;
            }
        }
        // Loss: geometric retransmit chain, capped.
        if self.loss_thr > 0 {
            let flow = ((src as u64) << 32) | dst as u64;
            let pkt = mix(flow ^ departure_nanos.wrapping_mul(0xB529_7A4D)) ^ bytes as u64;
            let mut k = 0u32;
            while k < self.cfg.max_retransmits && self.draw(TAG_LOSS, pkt, k as u64) < self.loss_thr
            {
                k += 1;
            }
            extra += k as u64 * self.retransmit_nanos;
        }
        // Jitter: uniform per-packet draw in [0, jitter].
        if self.jitter_nanos > 0 {
            let flow = ((src as u64) << 32) | dst as u64;
            let pkt = mix(flow ^ departure_nanos.wrapping_mul(0xD127_3F0B)) ^ bytes as u64;
            extra += self.draw(TAG_JITTER, pkt, 0) % (self.jitter_nanos + 1);
        }
        // Load spike: flat per-packet surcharge during spike epochs.
        if self.spike_thr > 0 && self.draw(TAG_SPIKE, 0, e0) < self.spike_thr {
            extra += self.spike_nanos;
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay(cfg: ChaosConfig) -> ChaosOverlay {
        ChaosOverlay::new(cfg).expect("valid config")
    }

    #[test]
    fn inert_config_adds_nothing() {
        let o = overlay(ChaosConfig::new(1));
        assert!(o.config().is_inert());
        for t in [0u64, 1, 999, 1_000_000] {
            assert_eq!(o.extra_nanos(0, 1, 9000, t), 0);
        }
    }

    #[test]
    fn extra_delay_is_pure() {
        let o = overlay(
            ChaosConfig::new(9)
                .with_link_flap(0.3)
                .with_loss(0.3, SimDuration::from_micros(100))
                .with_jitter(SimDuration::from_micros(5))
                .with_spike(0.3, SimDuration::from_micros(10)),
        );
        for (s, d, b, t) in [
            (0u32, 1u32, 64u32, 0u64),
            (3, 7, 9000, 123_456),
            (7, 3, 1, 99),
        ] {
            assert_eq!(o.extra_nanos(s, d, b, t), o.extra_nanos(s, d, b, t));
        }
    }

    #[test]
    fn seeds_reshuffle_the_faults() {
        let a = overlay(ChaosConfig::new(1).with_jitter(SimDuration::from_micros(50)));
        let b = overlay(ChaosConfig::new(2).with_jitter(SimDuration::from_micros(50)));
        let differs = (0..64u64)
            .any(|t| a.extra_nanos(0, 1, 1024, t * 1_000) != b.extra_nanos(0, 1, 1024, t * 1_000));
        assert!(differs, "different seeds must draw different jitter");
    }

    #[test]
    fn flap_holds_until_the_link_recovers() {
        let cfg = ChaosConfig::new(3)
            .with_link_flap(0.5)
            .with_epoch(SimDuration::from_micros(10));
        let o = overlay(cfg);
        let e = cfg.epoch.as_nanos();
        // Find an epoch where the src link is down; the packet must be
        // released exactly at a later epoch boundary.
        let mut seen_hold = false;
        for k in 0..200u64 {
            let t = k * e + e / 2; // mid-epoch departure
            let extra = o.extra_nanos(0, 1, 64, t);
            if extra > 0 {
                seen_hold = true;
                assert_eq!((t + extra) % e, 0, "release must land on an epoch edge");
                assert!(extra <= cfg.hold_scan_epochs as u64 * e, "hold is bounded");
            }
        }
        assert!(seen_hold, "p=0.5 over 200 epochs must hold at least once");
    }

    #[test]
    fn partition_only_delays_cross_group_traffic() {
        let cfg = ChaosConfig::new(5)
            .with_partition(0.5, 2)
            .with_epoch(SimDuration::from_micros(10));
        let o = overlay(cfg);
        // Find two nodes in the same group and two in different groups.
        let g: Vec<u32> = (0..8).map(|n| o.group(n)).collect();
        let same = (1..8)
            .find(|&i| g[i as usize] == g[0])
            .expect("same-group pair");
        let cross = (1..8)
            .find(|&i| g[i as usize] != g[0])
            .expect("cross-group pair");
        let e = cfg.epoch.as_nanos();
        // Same-group traffic is never held by a partition.
        for k in 0..100u64 {
            assert_eq!(o.extra_nanos(0, same, 64, k * e), 0);
        }
        // Cross-group traffic is held in some epoch.
        assert!((0..100u64).any(|k| o.extra_nanos(0, cross, 64, k * e) > 0));
    }

    #[test]
    fn loss_adds_whole_retransmit_timeouts() {
        let rto = SimDuration::from_micros(100);
        let o = overlay(ChaosConfig::new(11).with_loss(0.5, rto));
        let mut counts = [0u32; 4];
        for t in 0..400u64 {
            let extra = o.extra_nanos(0, 1, 512, t * 977);
            assert_eq!(extra % rto.as_nanos(), 0, "loss delay is k × RTO");
            let k = (extra / rto.as_nanos()) as usize;
            assert!(k <= 3, "capped at max_retransmits");
            counts[k] += 1;
        }
        assert!(
            counts[0] > 0 && counts[1] > 0,
            "p=0.5 must show 0 and ≥1 losses"
        );
    }

    #[test]
    fn jitter_is_bounded() {
        let max = SimDuration::from_micros(5);
        let o = overlay(ChaosConfig::new(13).with_jitter(max));
        let mut top = 0;
        for t in 0..500u64 {
            let extra = o.extra_nanos(2, 3, 64, t * 31);
            assert!(extra <= max.as_nanos());
            top = top.max(extra);
        }
        assert!(top > max.as_nanos() / 2, "draws must spread over the range");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ChaosConfig::new(0)
            .with_epoch(SimDuration::ZERO)
            .validate()
            .is_err());
        assert!(ChaosConfig::new(0).with_link_flap(1.0).validate().is_err());
        assert!(ChaosConfig::new(0)
            .with_partition(0.1, 1)
            .validate()
            .is_err());
        assert!(ChaosConfig::new(0)
            .with_loss(0.1, SimDuration::ZERO)
            .validate()
            .is_err());
        assert!(ChaosConfig::new(0)
            .with_spike(0.1, SimDuration::ZERO)
            .validate()
            .is_err());
        let mut cfg = ChaosConfig::new(0);
        cfg.hold_scan_epochs = 0;
        assert!(cfg.validate().is_err());
        assert!(ChaosOverlay::new(cfg).is_err());
    }
}
