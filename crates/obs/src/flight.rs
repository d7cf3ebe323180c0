//! The per-quantum ring-buffer flight recorder.

use crate::hist::Log2Histogram;
use crate::recorder::{QuantumObs, Recorder};
use aqs_time::{SimDuration, SimTime};

/// Configuration of a [`FlightRecorder`].
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Number of most-recent quanta retained in the ring buffer. Aggregate
    /// histograms and counters always cover the whole run regardless.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 4096,
        }
    }
}

impl ObsConfig {
    /// Default configuration (4096-quantum ring).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        self.ring_capacity = capacity;
        self
    }
}

/// Fixed-size part of one recorded quantum.
#[derive(Clone, Copy, Debug, Default)]
struct SampleFixed {
    index: u64,
    start_ns: u64,
    len_ns: u64,
    host_ns: u64,
    packets: u64,
    active_nodes: u64,
    stragglers: u64,
    max_straggler_delay_ns: u64,
}

/// Per-quantum flight recorder with whole-run aggregate histograms.
///
/// All storage is allocated at construction: the ring holds the fixed part
/// of each sample in one flat `Vec` and the per-node lanes (barrier wait,
/// virtual-time lag) in another, so [`Recorder::record_quantum`] never
/// allocates. When the ring wraps, the oldest samples are dropped but the
/// aggregate histograms and counters keep covering every quantum of the run.
///
/// # Examples
///
/// ```
/// use aqs_obs::{FlightRecorder, ObsConfig, QuantumObs, Recorder};
/// use aqs_time::{SimDuration, SimTime};
///
/// let mut fr = FlightRecorder::new(2, ObsConfig::new());
/// fr.record_quantum(&QuantumObs {
///     index: 0,
///     start: SimTime::ZERO,
///     len: SimDuration::from_micros(1),
///     host_ns: 5_000,
///     packets: 3,
///     active_nodes: 2,
///     stragglers: 0,
///     max_straggler_delay: SimDuration::ZERO,
///     barrier_wait_ns: &[10, 0],
///     vt_lag_ns: &[0, 400],
/// });
/// assert_eq!(fr.total_quanta(), 1);
/// assert_eq!(fr.total_packets(), 3);
/// assert_eq!(fr.samples().next().unwrap().packets, 3);
/// ```
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    n_nodes: usize,
    cap: usize,
    /// Physical index of the next slot to overwrite.
    head: usize,
    /// Valid samples in the ring (`<= cap`).
    len: usize,
    fixed: Vec<SampleFixed>,
    /// `cap * n_nodes * 2` lane values: per slot, `n_nodes` barrier waits
    /// followed by `n_nodes` virtual-time lags.
    lanes: Vec<u64>,
    total_quanta: u64,
    total_packets: u64,
    total_active_nodes: u64,
    total_stragglers: u64,
    quantum_len: Log2Histogram,
    straggler_delay: Log2Histogram,
    barrier_wait: Log2Histogram,
    vt_lag: Log2Histogram,
    /// Per-fabric-link aggregates, lazily sized on the first
    /// [`Recorder::record_link_load`] call (empty when the run had no
    /// modeled fabric): cumulative bytes, cumulative packets, and the peak
    /// per-quantum bytes seen on each link.
    link_bytes: Vec<u64>,
    link_packets: Vec<u64>,
    link_peak_bytes: Vec<u64>,
    /// Per-shard rollback lanes, lazily sized on the first
    /// [`Recorder::record_shard_rollbacks`] call (empty when the run had no
    /// rollback engine): cumulative checkpoints, rollbacks, and wasted
    /// simulated nanoseconds per shard. The run's totals are their sums.
    shard_checkpoints: Vec<u64>,
    shard_rollbacks: Vec<u64>,
    shard_wasted_ns: Vec<u64>,
    /// Per-shard active-node attribution, lazily sized on the first
    /// [`Recorder::record_shard_activity`] call (empty when the run had no
    /// active-set engine): cumulative executed-node counts per shard.
    shard_active_nodes: Vec<u64>,
}

/// Per-link load aggregates captured from a modeled fabric, borrowed from a
/// [`FlightRecorder`] (see [`FlightRecorder::link_load`]). All slices are
/// indexed by fabric link id and share one length.
#[derive(Clone, Copy, Debug)]
pub struct LinkLoadStats<'a> {
    /// Cumulative bytes per link over the whole run.
    pub bytes: &'a [u64],
    /// Cumulative packets per link over the whole run.
    pub packets: &'a [u64],
    /// Highest single-quantum byte count seen per link — a proxy for the
    /// link's worst queue pressure.
    pub peak_quantum_bytes: &'a [u64],
}

impl LinkLoadStats<'_> {
    /// The busiest link by cumulative bytes: `(link id, bytes)`.
    pub fn hottest(&self) -> Option<(usize, u64)> {
        self.bytes
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, b)| b)
    }

    /// Bytes summed over every link.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Per-shard rollback attribution captured from a sharded optimistic run,
/// borrowed from a [`FlightRecorder`] (see
/// [`FlightRecorder::shard_rollback_stats`]). All slices are indexed by
/// shard and share one length.
#[derive(Clone, Copy, Debug)]
pub struct ShardRollbackStats<'a> {
    /// Cumulative checkpoints taken per shard over the whole run.
    pub checkpoints: &'a [u64],
    /// Cumulative rollbacks per shard over the whole run.
    pub rollbacks: &'a [u64],
    /// Cumulative wasted (re-executed) simulated nanoseconds per shard.
    pub wasted_ns: &'a [u64],
}

impl ShardRollbackStats<'_> {
    /// Rollbacks summed over every shard.
    pub fn total_rollbacks(&self) -> u64 {
        self.rollbacks.iter().sum()
    }

    /// Checkpoints summed over every shard.
    pub fn total_checkpoints(&self) -> u64 {
        self.checkpoints.iter().sum()
    }

    /// Wasted simulated nanoseconds summed over every shard.
    pub fn total_wasted_ns(&self) -> u64 {
        self.wasted_ns.iter().sum()
    }
}

impl FlightRecorder {
    /// Creates a recorder for a cluster of `n_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero or the configured ring capacity is zero.
    pub fn new(n_nodes: usize, config: ObsConfig) -> Self {
        assert!(n_nodes > 0, "flight recorder needs at least one node");
        assert!(config.ring_capacity > 0, "ring capacity must be positive");
        let cap = config.ring_capacity;
        Self {
            n_nodes,
            cap,
            head: 0,
            len: 0,
            fixed: vec![SampleFixed::default(); cap],
            lanes: vec![0; cap * n_nodes * 2],
            total_quanta: 0,
            total_packets: 0,
            total_active_nodes: 0,
            total_stragglers: 0,
            quantum_len: Log2Histogram::new(),
            straggler_delay: Log2Histogram::new(),
            barrier_wait: Log2Histogram::new(),
            vt_lag: Log2Histogram::new(),
            link_bytes: Vec::new(),
            link_packets: Vec::new(),
            link_peak_bytes: Vec::new(),
            shard_checkpoints: Vec::new(),
            shard_rollbacks: Vec::new(),
            shard_wasted_ns: Vec::new(),
            shard_active_nodes: Vec::new(),
        }
    }

    /// Number of nodes the per-quantum lanes are sized for.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Samples currently held in the ring.
    pub fn ring_len(&self) -> usize {
        self.len
    }

    /// Quanta recorded over the whole run (including any evicted from the
    /// ring).
    pub fn total_quanta(&self) -> u64 {
        self.total_quanta
    }

    /// Quanta dropped from the ring because it wrapped.
    pub fn dropped(&self) -> u64 {
        self.total_quanta - self.len as u64
    }

    /// Packets summed over every recorded quantum.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Stragglers summed over every recorded quantum.
    pub fn total_stragglers(&self) -> u64 {
        self.total_stragglers
    }

    /// Executed-node counts summed over every recorded quantum. Dividing by
    /// `total_quanta × n_nodes` gives the run's activity ratio.
    pub fn total_active_nodes(&self) -> u64 {
        self.total_active_nodes
    }

    /// Per-shard cumulative executed-node counts, when the run used an
    /// active-set engine (`None` otherwise). Indexed by shard.
    pub fn shard_activity(&self) -> Option<&[u64]> {
        if self.shard_active_nodes.is_empty() {
            return None;
        }
        Some(&self.shard_active_nodes)
    }

    /// Histogram of quantum lengths (ns).
    pub fn quantum_len_hist(&self) -> &Log2Histogram {
        &self.quantum_len
    }

    /// Histogram of per-quantum maximum straggler delays (ns), over
    /// straggling quanta only.
    pub fn straggler_delay_hist(&self) -> &Log2Histogram {
        &self.straggler_delay
    }

    /// Histogram of per-node barrier waits (host ns).
    pub fn barrier_wait_hist(&self) -> &Log2Histogram {
        &self.barrier_wait
    }

    /// Histogram of per-node virtual-time lags (sim ns).
    pub fn vt_lag_hist(&self) -> &Log2Histogram {
        &self.vt_lag
    }

    /// Per-link load aggregates, when the run routed through a modeled
    /// fabric (`None` otherwise).
    pub fn link_load(&self) -> Option<LinkLoadStats<'_>> {
        if self.link_bytes.is_empty() {
            return None;
        }
        Some(LinkLoadStats {
            bytes: &self.link_bytes,
            packets: &self.link_packets,
            peak_quantum_bytes: &self.link_peak_bytes,
        })
    }

    /// Per-shard rollback lanes, when the run used a rollback engine
    /// (`None` otherwise). The run's checkpoint, rollback and wasted-sim
    /// totals — in [`render_summary`](Self::render_summary) and the JSONL
    /// summary line — are their sums.
    pub fn shard_rollback_stats(&self) -> Option<ShardRollbackStats<'_>> {
        if self.shard_rollbacks.is_empty() {
            return None;
        }
        Some(ShardRollbackStats {
            checkpoints: &self.shard_checkpoints,
            rollbacks: &self.shard_rollbacks,
            wasted_ns: &self.shard_wasted_ns,
        })
    }

    /// Ring samples, oldest first. Each item borrows its per-node lanes
    /// straight from the ring storage.
    pub fn samples(&self) -> impl Iterator<Item = QuantumObs<'_>> {
        (0..self.len).map(move |logical| {
            let slot = (self.head + self.cap - self.len + logical) % self.cap;
            let f = &self.fixed[slot];
            let base = slot * self.n_nodes * 2;
            QuantumObs {
                index: f.index,
                start: SimTime::from_nanos(f.start_ns),
                len: SimDuration::from_nanos(f.len_ns),
                host_ns: f.host_ns,
                packets: f.packets,
                active_nodes: f.active_nodes,
                stragglers: f.stragglers,
                max_straggler_delay: SimDuration::from_nanos(f.max_straggler_delay_ns),
                barrier_wait_ns: &self.lanes[base..base + self.n_nodes],
                vt_lag_ns: &self.lanes[base + self.n_nodes..base + 2 * self.n_nodes],
            }
        })
    }
}

impl Recorder for FlightRecorder {
    const ENABLED: bool = true;

    fn record_quantum(&mut self, obs: &QuantumObs<'_>) {
        debug_assert!(
            obs.barrier_wait_ns.is_empty() || obs.barrier_wait_ns.len() == self.n_nodes,
            "barrier_wait lane arity mismatch"
        );
        debug_assert!(
            obs.vt_lag_ns.is_empty() || obs.vt_lag_ns.len() == self.n_nodes,
            "vt_lag lane arity mismatch"
        );
        let slot = self.head;
        self.fixed[slot] = SampleFixed {
            index: obs.index,
            start_ns: obs.start.as_nanos(),
            len_ns: obs.len.as_nanos(),
            host_ns: obs.host_ns,
            packets: obs.packets,
            active_nodes: obs.active_nodes,
            stragglers: obs.stragglers,
            max_straggler_delay_ns: obs.max_straggler_delay.as_nanos(),
        };
        let base = slot * self.n_nodes * 2;
        let (waits, lags) = self.lanes[base..base + 2 * self.n_nodes].split_at_mut(self.n_nodes);
        if obs.barrier_wait_ns.len() == self.n_nodes {
            waits.copy_from_slice(obs.barrier_wait_ns);
        } else {
            waits.fill(0);
        }
        if obs.vt_lag_ns.len() == self.n_nodes {
            lags.copy_from_slice(obs.vt_lag_ns);
        } else {
            lags.fill(0);
        }
        self.head = (slot + 1) % self.cap;
        self.len = (self.len + 1).min(self.cap);
        self.total_quanta += 1;
        self.total_packets += obs.packets;
        self.total_active_nodes += obs.active_nodes;
        self.total_stragglers += obs.stragglers;
        self.quantum_len.record(obs.len.as_nanos());
        if obs.stragglers > 0 {
            self.straggler_delay
                .record(obs.max_straggler_delay.as_nanos());
        }
        for &w in obs.barrier_wait_ns {
            self.barrier_wait.record(w);
        }
        for &l in obs.vt_lag_ns {
            self.vt_lag.record(l);
        }
    }

    fn record_shard_activity(&mut self, active: &[u64]) {
        if self.shard_active_nodes.is_empty() {
            self.shard_active_nodes = vec![0; active.len()];
        }
        debug_assert_eq!(self.shard_active_nodes.len(), active.len());
        for (slot, &a) in self.shard_active_nodes.iter_mut().zip(active) {
            *slot += a;
        }
    }

    fn record_link_load(&mut self, link_bytes: &[u64], link_packets: &[u64]) {
        debug_assert_eq!(
            link_bytes.len(),
            link_packets.len(),
            "link lane arity mismatch"
        );
        if self.link_bytes.is_empty() {
            self.link_bytes = vec![0; link_bytes.len()];
            self.link_packets = vec![0; link_bytes.len()];
            self.link_peak_bytes = vec![0; link_bytes.len()];
        }
        debug_assert_eq!(self.link_bytes.len(), link_bytes.len());
        for (i, (&b, &p)) in link_bytes.iter().zip(link_packets).enumerate() {
            self.link_bytes[i] += b;
            self.link_packets[i] += p;
            self.link_peak_bytes[i] = self.link_peak_bytes[i].max(b);
        }
    }

    fn record_shard_rollbacks(
        &mut self,
        checkpoints: &[u64],
        rollbacks: &[u64],
        wasted_ns: &[u64],
    ) {
        debug_assert_eq!(
            checkpoints.len(),
            rollbacks.len(),
            "shard lane arity mismatch"
        );
        debug_assert_eq!(
            rollbacks.len(),
            wasted_ns.len(),
            "shard lane arity mismatch"
        );
        if self.shard_rollbacks.is_empty() {
            self.shard_checkpoints = vec![0; rollbacks.len()];
            self.shard_rollbacks = vec![0; rollbacks.len()];
            self.shard_wasted_ns = vec![0; rollbacks.len()];
        }
        debug_assert_eq!(self.shard_rollbacks.len(), rollbacks.len());
        for (i, ((&c, &r), &w)) in checkpoints.iter().zip(rollbacks).zip(wasted_ns).enumerate() {
            self.shard_checkpoints[i] += c;
            self.shard_rollbacks[i] += r;
            self.shard_wasted_ns[i] = self.shard_wasted_ns[i].saturating_add(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs<'a>(index: u64, packets: u64, waits: &'a [u64], lags: &'a [u64]) -> QuantumObs<'a> {
        QuantumObs {
            index,
            start: SimTime::from_nanos(index * 1000),
            len: SimDuration::from_nanos(1000),
            host_ns: (index + 1) * 50_000,
            packets,
            active_nodes: 2,
            stragglers: 0,
            max_straggler_delay: SimDuration::ZERO,
            barrier_wait_ns: waits,
            vt_lag_ns: lags,
        }
    }

    #[test]
    fn records_and_iterates_in_order() {
        let mut fr = FlightRecorder::new(2, ObsConfig::new().with_ring_capacity(8));
        for i in 0..5 {
            fr.record_quantum(&obs(i, i, &[i, i + 1], &[0, i]));
        }
        let got: Vec<u64> = fr.samples().map(|s| s.index).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(fr.total_packets(), 10);
        let last = fr.samples().last().unwrap();
        assert_eq!(last.barrier_wait_ns, &[4, 5]);
        assert_eq!(last.vt_lag_ns, &[0, 4]);
    }

    #[test]
    fn ring_wraps_but_aggregates_cover_the_run() {
        let mut fr = FlightRecorder::new(1, ObsConfig::new().with_ring_capacity(4));
        for i in 0..10 {
            fr.record_quantum(&obs(i, 1, &[0], &[0]));
        }
        assert_eq!(fr.ring_len(), 4);
        assert_eq!(fr.dropped(), 6);
        assert_eq!(fr.total_quanta(), 10);
        assert_eq!(fr.total_packets(), 10);
        let got: Vec<u64> = fr.samples().map(|s| s.index).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        assert_eq!(fr.quantum_len_hist().count(), 10);
    }

    #[test]
    fn straggler_accounting() {
        let mut fr = FlightRecorder::new(2, ObsConfig::new());
        fr.record_quantum(&QuantumObs {
            index: 0,
            start: SimTime::ZERO,
            len: SimDuration::from_micros(1),
            host_ns: 0,
            packets: 2,
            active_nodes: 1,
            stragglers: 3,
            max_straggler_delay: SimDuration::from_nanos(700),
            barrier_wait_ns: &[5, 9],
            vt_lag_ns: &[100, 0],
        });
        assert_eq!(fr.total_stragglers(), 3);
        assert_eq!(fr.straggler_delay_hist().count(), 1);
        assert_eq!(fr.straggler_delay_hist().max(), 700);
        assert_eq!(fr.barrier_wait_hist().count(), 2);
        assert_eq!(fr.vt_lag_hist().sum(), 100);
    }

    #[test]
    fn link_load_accumulates_and_tracks_peaks() {
        let mut fr = FlightRecorder::new(2, ObsConfig::new());
        assert!(fr.link_load().is_none(), "no fabric, no link stats");
        fr.record_link_load(&[100, 0, 50], &[1, 0, 1]);
        fr.record_link_load(&[40, 700, 0], &[1, 2, 0]);
        let ll = fr.link_load().expect("link stats recorded");
        assert_eq!(ll.bytes, &[140, 700, 50]);
        assert_eq!(ll.packets, &[2, 2, 1]);
        assert_eq!(ll.peak_quantum_bytes, &[100, 700, 50]);
        assert_eq!(ll.hottest(), Some((1, 700)));
        assert_eq!(ll.total_bytes(), 890);
    }

    #[test]
    fn shard_rollback_lanes_accumulate_per_shard() {
        let mut fr = FlightRecorder::new(4, ObsConfig::new());
        assert!(
            fr.shard_rollback_stats().is_none(),
            "no sharded optimistic run, no shard stats"
        );
        fr.record_shard_rollbacks(&[2, 2], &[1, 0], &[500, 0]);
        fr.record_shard_rollbacks(&[2, 2], &[0, 3], &[0, 900]);
        let st = fr.shard_rollback_stats().expect("shard stats recorded");
        assert_eq!(st.checkpoints, &[4, 4]);
        assert_eq!(st.rollbacks, &[1, 3]);
        assert_eq!(st.wasted_ns, &[500, 900]);
        assert_eq!(st.total_checkpoints(), 8);
        assert_eq!(st.total_rollbacks(), 4);
        assert_eq!(st.total_wasted_ns(), 1400);
    }

    #[test]
    fn active_node_counts_accumulate_per_run_and_per_shard() {
        let mut fr = FlightRecorder::new(4, ObsConfig::new());
        assert!(fr.shard_activity().is_none(), "no active-set engine yet");
        fr.record_quantum(&obs(0, 1, &[], &[]));
        fr.record_quantum(&obs(1, 1, &[], &[]));
        assert_eq!(fr.total_active_nodes(), 4);
        assert_eq!(fr.samples().next().unwrap().active_nodes, 2);
        fr.record_shard_activity(&[2, 0]);
        fr.record_shard_activity(&[1, 1]);
        assert_eq!(fr.shard_activity(), Some(&[3, 1][..]));
    }

    #[test]
    fn empty_lanes_record_as_zero() {
        let mut fr = FlightRecorder::new(3, ObsConfig::new());
        fr.record_quantum(&obs(0, 1, &[], &[]));
        let s = fr.samples().next().unwrap();
        assert_eq!(s.barrier_wait_ns, &[0, 0, 0]);
        assert_eq!(s.vt_lag_ns, &[0, 0, 0]);
        // Empty lanes contribute no histogram samples.
        assert_eq!(fr.barrier_wait_hist().count(), 0);
    }
}
