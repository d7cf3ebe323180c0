//! Run results.

use aqs_net::StragglerStats;
use aqs_node::{NodeExecutor, Rank, RegionId, RegionRecord};
use aqs_time::{HostDuration, SimDuration, SimTime};

/// Per-node outcome of a run, on every engine.
#[derive(Clone, Debug)]
pub struct NodeResult {
    /// The rank this node ran.
    pub rank: Rank,
    /// Simulated time at which its program completed.
    pub finish_sim: SimTime,
    /// Abstract operations it retired.
    pub ops: u64,
    /// Messages it fully received.
    pub messages_received: u64,
    /// Closed timed-region instances.
    pub regions: Vec<RegionRecord>,
}

impl NodeResult {
    /// Folds a node into its result once the run is over. A program that
    /// never finished (a worker-pool engine's quantum cap) reports
    /// `parked_at`, where the engine left the node.
    pub(crate) fn collect(exec: &mut NodeExecutor, parked_at: SimTime) -> Self {
        Self {
            rank: exec.rank(),
            finish_sim: exec.finish_time().unwrap_or(parked_at),
            ops: exec.ops_executed(),
            messages_received: exec.messages_received(),
            regions: exec.take_regions(),
        }
    }

    /// Total duration of all instances of `region` on this node.
    pub fn region_duration(&self, region: RegionId) -> SimDuration {
        self.regions
            .iter()
            .filter(|r| r.region == region)
            .map(RegionRecord::duration)
            .sum()
    }
}

/// The complete outcome of one cluster simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Label of the synchronization policy that produced this run.
    pub sync_label: String,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Simulated completion time (max across nodes).
    pub sim_end: SimTime,
    /// Host wall-clock the whole simulation took (to the last node's
    /// program completion).
    pub host_elapsed: HostDuration,
    /// Per-node details, indexed by rank.
    pub per_node: Vec<NodeResult>,
    /// Straggler statistics for the run.
    pub stragglers: StragglerStats,
    /// Total packets routed by the controller.
    pub total_packets: u64,
    /// Number of quanta executed.
    pub total_quanta: u64,
}

impl RunResult {
    /// Total operations retired across all nodes.
    pub fn total_ops(&self) -> u64 {
        self.per_node.iter().map(|n| n.ops).sum()
    }

    /// Wall-clock span of `region` across the cluster: from the earliest
    /// start to the latest end over all nodes and instances. `None` if no
    /// node closed the region.
    ///
    /// This is what a benchmark's own timer reports: rank 0 starts the
    /// clock when it enters the kernel and stops it when the last result is
    /// in.
    pub fn region_span(&self, region: RegionId) -> Option<SimDuration> {
        let mut start: Option<SimTime> = None;
        let mut end: Option<SimTime> = None;
        for node in &self.per_node {
            for r in node.regions.iter().filter(|r| r.region == region) {
                start = Some(start.map_or(r.start, |s| s.min(r.start)));
                end = Some(end.map_or(r.end, |e| e.max(r.end)));
            }
        }
        Some(end? - start?)
    }

    /// Host-time speedup of this run relative to `baseline` (the paper's
    /// "acceleration vs. 1 µs").
    ///
    /// Degenerate runs never divide by zero: a zero-time baseline yields
    /// 0.0, and a zero-time run against a non-zero baseline yields
    /// [`f64::INFINITY`].
    pub fn speedup_vs(&self, baseline: &RunResult) -> f64 {
        if baseline.host_elapsed == HostDuration::ZERO {
            return 0.0;
        }
        if self.host_elapsed == HostDuration::ZERO {
            return f64::INFINITY;
        }
        baseline.host_elapsed.ratio(self.host_elapsed)
    }

    /// Ratio of simulated completion times vs. `baseline` (the paper's
    /// "simulated execution ratio" for IS).
    pub fn sim_ratio_vs(&self, baseline: &RunResult) -> f64 {
        (self.sim_end.as_nanos() as f64) / (baseline.sim_end.as_nanos() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(rank: u32, regions: Vec<RegionRecord>) -> NodeResult {
        NodeResult {
            rank: Rank::new(rank),
            finish_sim: SimTime::from_micros(100),
            ops: 1000,
            messages_received: 2,
            regions,
        }
    }

    fn run(per_node: Vec<NodeResult>, host_us: u64, sim_us: u64) -> RunResult {
        RunResult {
            sync_label: "test".into(),
            n_nodes: per_node.len(),
            sim_end: SimTime::from_micros(sim_us),
            host_elapsed: HostDuration::from_micros(host_us),
            per_node,
            stragglers: StragglerStats::default(),
            total_packets: 0,
            total_quanta: 1,
        }
    }

    #[test]
    fn region_span_across_nodes() {
        let r0 = RegionRecord {
            region: RegionId::KERNEL,
            start: SimTime::from_micros(10),
            end: SimTime::from_micros(50),
        };
        let r1 = RegionRecord {
            region: RegionId::KERNEL,
            start: SimTime::from_micros(20),
            end: SimTime::from_micros(80),
        };
        let result = run(vec![node(0, vec![r0]), node(1, vec![r1])], 100, 100);
        assert_eq!(
            result.region_span(RegionId::KERNEL),
            Some(SimDuration::from_micros(70))
        );
        assert_eq!(result.region_span(RegionId::new(9)), None);
    }

    #[test]
    fn speedup_and_sim_ratio() {
        let base = run(vec![node(0, vec![])], 2600, 100);
        let fast = run(vec![node(0, vec![])], 100, 150);
        assert!((fast.speedup_vs(&base) - 26.0).abs() < 1e-12);
        assert!((fast.sim_ratio_vs(&base) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn speedup_guards_zero_denominators() {
        let zero = run(vec![node(0, vec![])], 0, 100);
        let some = run(vec![node(0, vec![])], 100, 100);
        assert_eq!(some.speedup_vs(&zero), 0.0, "zero baseline must not panic");
        assert_eq!(zero.speedup_vs(&some), f64::INFINITY);
        assert_eq!(zero.speedup_vs(&zero), 0.0);
    }

    #[test]
    fn total_ops_sums_nodes() {
        let result = run(vec![node(0, vec![]), node(1, vec![])], 1, 1);
        assert_eq!(result.total_ops(), 2000);
    }
}
