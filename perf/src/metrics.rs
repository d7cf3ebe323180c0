//! The metric tables, the order statistics, and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names;
//! `tests/smoke.rs` fails when the two drift apart.

use serde_json::Value;
use std::collections::BTreeMap;

/// The five workloads, in the order `run` executes them.
pub const WORKLOADS: &[&str] = &[
    "burst_1k",
    "incast_256k",
    "rollback_mixed",
    "paper_sweep",
    "serve_jobs",
];

/// End-to-end metrics `(name, unit)`: what a user of the simulator sees.
/// All host time; every workload reports all four.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("packets_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`. The prefix is the crate the number
/// belongs to. A metric whose layer does no work on the workload being run
/// reads 0 there (see README: "which layer each workload starves").
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.ops_built", "count"),
    ("cluster.quanta", "count"),
    ("cluster.nodes_executed", "count"),
    ("cluster.active_ratio", "ratio"),
    ("cluster.stragglers", "count"),
    ("cluster.pool_heap_allocs", "count"),
    ("cluster.ns_per_packet", "ns"),
    ("cluster.ns_per_node_exec", "ns"),
    ("cluster.quantum_us", "us"),
    ("cluster.construct_s", "s"),
    ("cluster.m1_wall_s", "s"),
    ("cluster.scaling_eff_m2", "ratio"),
    ("cluster.opt.wall_s", "s"),
    ("cluster.hybrid.wall_s", "s"),
    ("cluster.opt.windows", "count"),
    ("cluster.opt.checkpoints", "count"),
    ("cluster.opt.rollbacks", "count"),
    ("cluster.opt.reexec_ratio", "ratio"),
    ("cluster.opt.wasted_sim_ms", "ms"),
    ("cluster.opt.max_depth", "count"),
    ("cluster.hybrid.rollbacks", "count"),
    ("cluster.hybrid.degraded_windows", "count"),
    ("cluster.hybrid.conservative_windows", "count"),
    ("cluster.det.quanta", "count"),
    ("cluster.det.ns_per_quantum", "ns"),
    ("cluster.snapshot.step_us", "us"),
    ("cluster.snapshot.encode_us", "us"),
    ("cluster.snapshot.decode_us", "us"),
    ("cluster.snapshot.bytes", "bytes"),
    ("core.policy_step_ns", "ns"),
    ("core.accuracy_err_pct.dyn1", "%"),
    ("core.accuracy_err_pct.dyn2", "%"),
    ("core.modelled_speedup.dyn1", "ratio"),
    ("core.modelled_speedup.dyn2", "ratio"),
    ("sync.mailbox_push_ns", "ns"),
    ("sync.mailbox_drain_ns", "ns"),
    ("sync.barrier_round_ns", "ns"),
    ("sync.barrier_wait_share", "ratio"),
    ("sync.vt_lag_p99_us", "us"),
    ("net.fabric_transit_ns", "ns"),
    ("net.chaos_extra_ns", "ns"),
    ("net.nic_fragment_ns", "ns"),
    ("net.link_hot_over_mean", "ratio"),
    ("node.next_action_ns", "ns"),
    ("node.deliver_fragment_ns", "ns"),
    ("des.event_push_pop_ns", "ns"),
    ("des.wheel_push_pop_ns", "ns"),
    ("scenario.parse_us", "us"),
    ("scenario.build_programs_us", "us"),
    ("scenario.run_ms", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p95_ms", "ms"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.journal_append_us", "us"),
    ("serve.journal_bytes", "bytes"),
    ("serve.rejected", "count"),
    ("obs.record_overhead_pct", "%"),
];

/// Values of the per-layer metrics gathered during one traced run. Names
/// are checked against [`PER_LAYER`] when set; whatever a run never sets
/// is reported as 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Value at quantile `p` of `xs` by linear interpolation between order
/// statistics (`p = 0.5` is the median).
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The time reported for repeated timings of identical deterministic
/// work: the fastest one. This host's noise is one-sided and comes in
/// stretches of seconds (a neighbour on the shared memory system slows
/// everything in a stretch by up to a third), so over ten 15 s runs the
/// median pass moved 13-17 % and the lower quartile 9-13 % between runs
/// while the minimum moved 6-11 % (README, "Noise discipline").
pub fn steady(xs: &[f64]) -> f64 {
    min(xs)
}

/// [`steady`] for passes made of several timed pieces: each piece at its
/// fastest over all passes, summed. A 2.2 s pass of 15 pieces almost never
/// falls wholly inside an undisturbed stretch; each 0.15 s piece does in
/// some pass.
pub fn steady_pass(passes: &[Vec<f64>]) -> f64 {
    let pieces = passes.first().map_or(0, Vec::len);
    (0..pieces)
        .map(|i| steady(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (exclusive method), which is what the acceptance check
/// uses for the run-to-run spread.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        let lo = v[j - 1];
        let hi = v[j.min(n - 1)];
        lo + (hi - lo) * frac
    };
    (at(1), at(3))
}

/// A JSON number, whichever way the parser typed it.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// The result line every run ends with: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, unit, value)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a value tree always renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3,1,2,5,4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(min(&[2.0, 1.0, 3.0]), 1.0);
    }

    #[test]
    fn steady_pass_sums_the_fastest_time_of_each_piece() {
        let passes = vec![vec![1.0, 5.0], vec![2.0, 3.0], vec![4.0, 4.0]];
        assert_eq!(steady_pass(&passes), 1.0 + 3.0);
        assert_eq!(steady_pass(&[vec![0.5], vec![0.25]]), 0.25);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16 && !unit.is_empty());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(3, 0, &[("wall_s", "s", 0.25)]);
        let Value::Object(fields) = serde_json::from_str::<Value>(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
