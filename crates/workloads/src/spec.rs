//! Workload descriptions: programs plus how to read their metric.

use aqs_node::Program;
use serde::{Deserialize, Serialize};

/// How a workload's self-reported performance metric is computed from a
/// run (the paper derives accuracy from "the application-specific metric
/// reported by the benchmarks themselves", §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// NAS style: millions of operations per second over the timed kernel
    /// region — total retired ops divided by the cluster-wide kernel span.
    Mops,
    /// NAMD style: wall-clock (simulated) time of the timed kernel region.
    KernelTime,
}

/// Problem scale of a synthetic workload.
///
/// The real class-A benchmarks run for minutes of target time; simulating
/// minutes at a 1 µs ground-truth quantum is wasteful when the paper's
/// phenomena appear identically at shorter spans. `Mini` (the figures'
/// scale) gives tens of milliseconds of simulated time per run; `Tiny` is
/// for unit tests and CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Scale {
    /// Unit-test scale (≈ 1 ms simulated).
    Tiny,
    /// Figure scale (≈ tens of ms simulated).
    #[default]
    Mini,
    /// Extended scale (≈ hundreds of ms simulated) for scale-out studies.
    Full,
}

/// The one place a scale name is matched: `tiny | mini | full`.
impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "tiny" => Ok(Scale::Tiny),
            "mini" => Ok(Scale::Mini),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale `{other}` (tiny | mini | full)")),
        }
    }
}

impl Scale {
    /// Multiplier applied to iteration counts.
    pub fn iters(self, base: usize) -> usize {
        match self {
            Scale::Tiny => (base / 4).max(2),
            Scale::Mini => base,
            Scale::Full => base * 2,
        }
    }

    /// Multiplier applied to per-phase compute amounts.
    pub fn ops(self, base: u64) -> u64 {
        match self {
            Scale::Tiny => (base / 16).max(1),
            Scale::Mini => base,
            Scale::Full => base * 4,
        }
    }
}

/// A runnable workload: one program per node plus its metric convention.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Display name ("EP", "IS", "NAMD", …).
    pub name: String,
    /// One program per node; program `i` must be for rank `i`.
    pub programs: Vec<Program>,
    /// How to compute the benchmark's self-reported metric.
    pub metric: MetricKind,
}

impl WorkloadSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if program `i` is not for rank `i` or fewer than two programs
    /// are given.
    pub fn new(name: impl Into<String>, programs: Vec<Program>, metric: MetricKind) -> Self {
        assert!(programs.len() >= 2, "a workload needs at least 2 ranks");
        for (i, p) in programs.iter().enumerate() {
            assert_eq!(p.rank().index(), i, "program {i} is for the wrong rank");
        }
        Self {
            name: name.into(),
            programs,
            metric,
        }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.programs.len()
    }

    /// Total compute operations across all ranks (MOPS numerator).
    pub fn total_ops(&self) -> u64 {
        self.programs.iter().map(|p| p.total_compute_ops()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqs_node::{ProgramBuilder, Rank};

    #[test]
    fn scale_multipliers() {
        assert_eq!(Scale::Mini.iters(12), 12);
        assert_eq!(Scale::Tiny.iters(12), 3);
        assert_eq!(Scale::Full.iters(12), 24);
        assert_eq!(Scale::Tiny.ops(1600), 100);
        assert_eq!(Scale::Full.ops(100), 400);
        assert_eq!(Scale::Tiny.ops(4), 1);
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!("tiny".parse(), Ok(Scale::Tiny));
        assert_eq!("mini".parse(), Ok(Scale::Mini));
        assert_eq!("full".parse(), Ok(Scale::Full));
        let err = "Mini".parse::<Scale>().unwrap_err();
        assert_eq!(err, "unknown scale `Mini` (tiny | mini | full)");
    }

    #[test]
    fn spec_validates_ranks() {
        let p0 = ProgramBuilder::new(Rank::new(0)).compute(1).build();
        let p1 = ProgramBuilder::new(Rank::new(1)).compute(2).build();
        let spec = WorkloadSpec::new("t", vec![p0, p1], MetricKind::Mops);
        assert_eq!(spec.n_ranks(), 2);
        assert_eq!(spec.total_ops(), 3);
    }

    #[test]
    #[should_panic(expected = "wrong rank")]
    fn wrong_rank_order_rejected() {
        let p0 = ProgramBuilder::new(Rank::new(1)).compute(1).build();
        let p1 = ProgramBuilder::new(Rank::new(0)).compute(1).build();
        let _ = WorkloadSpec::new("t", vec![p0, p1], MetricKind::Mops);
    }

    #[test]
    #[should_panic(expected = "at least 2 ranks")]
    fn single_rank_rejected() {
        let p0 = ProgramBuilder::new(Rank::new(0)).compute(1).build();
        let _ = WorkloadSpec::new("t", vec![p0], MetricKind::Mops);
    }
}
