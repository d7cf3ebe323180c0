//! Terminal summary rendering for the flight recorder.

use crate::flight::FlightRecorder;
use crate::hist::Log2Histogram;
use aqs_metrics::{render_histogram, render_series_log_y, render_table};
use aqs_time::SimDuration;

/// Formats nanoseconds with a human unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Rows of `(bucket label, count)` for every non-empty bucket of `h`.
fn hist_rows(h: &Log2Histogram) -> Vec<(String, u64)> {
    let Some((lo, hi)) = h.nonzero_range() else {
        return Vec::new();
    };
    (lo..=hi)
        .map(|i| {
            let (b_lo, b_hi) = Log2Histogram::bucket_bounds(i);
            let label = if i == 0 {
                "0".to_string()
            } else {
                format!("{}–{}", fmt_ns(b_lo), fmt_ns(b_hi))
            };
            (label, h.bucket_count(i))
        })
        .collect()
}

impl FlightRecorder {
    /// Renders a terminal summary: run counters, the quantum-length
    /// timeline, and the straggler-delay histogram.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let row = |k: &str, v: String| vec![k.to_string(), v];
        let mut rows = vec![
            row("quanta", self.total_quanta().to_string()),
            row(
                "ring window",
                format!("{} of {}", self.ring_len(), self.capacity()),
            ),
            row("packets", self.total_packets().to_string()),
            row("stragglers", self.total_stragglers().to_string()),
            row(
                "quantum len mean/max",
                format!(
                    "{} / {}",
                    fmt_ns(self.quantum_len_hist().mean() as u64),
                    fmt_ns(self.quantum_len_hist().max())
                ),
            ),
            row(
                "barrier wait mean/max",
                format!(
                    "{} / {}",
                    fmt_ns(self.barrier_wait_hist().mean() as u64),
                    fmt_ns(self.barrier_wait_hist().max())
                ),
            ),
            row(
                "vt lag mean/max",
                format!(
                    "{} / {}",
                    fmt_ns(self.vt_lag_hist().mean() as u64),
                    fmt_ns(self.vt_lag_hist().max())
                ),
            ),
        ];
        if let Some(st) = self.shard_rollback_stats() {
            let wasted = SimDuration::from_nanos(st.total_wasted_ns());
            rows.push(row("checkpoints", st.total_checkpoints().to_string()));
            rows.push(row("rollbacks", st.total_rollbacks().to_string()));
            rows.push(row("wasted sim", wasted.to_string()));
        }
        out.push_str(&render_table(&["metric", "value"], &rows));
        out.push_str("\nquantum length over time (log y, ring window)\n");
        let series: Vec<f64> = self.samples().map(|s| s.len.as_nanos() as f64).collect();
        out.push_str(&render_series_log_y(&series, 64, 8));
        out.push_str("\nstraggler delay histogram (per-quantum max)\n");
        let rows = hist_rows(self.straggler_delay_hist());
        if rows.is_empty() {
            out.push_str("  (no stragglers)\n");
        } else {
            out.push_str(&render_histogram(&rows, 40));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, QuantumObs, Recorder};
    use aqs_time::SimTime;

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_000_000), "2.00ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn summary_covers_counters_timeline_and_histogram() {
        let mut fr = FlightRecorder::new(2, ObsConfig::new());
        for i in 0..20u64 {
            fr.record_quantum(&QuantumObs {
                index: i,
                start: SimTime::from_nanos(i * 1000),
                len: SimDuration::from_nanos(1000 + i * 100),
                host_ns: i * 40_000,
                packets: i % 3,
                active_nodes: 2,
                stragglers: u64::from(i % 5 == 0),
                max_straggler_delay: SimDuration::from_nanos(i * 37),
                barrier_wait_ns: &[i, 2 * i],
                vt_lag_ns: &[0, i * 10],
            });
        }
        let s = fr.render_summary();
        assert!(s.contains("quanta"));
        assert!(s.contains("quantum length over time"));
        assert!(s.contains("straggler delay histogram"));
        assert!(s.contains('*'), "timeline must plot points");
    }

    #[test]
    fn summary_without_stragglers_says_so() {
        let mut fr = FlightRecorder::new(2, ObsConfig::new());
        fr.record_quantum(&QuantumObs {
            index: 0,
            start: SimTime::ZERO,
            len: SimDuration::from_micros(1),
            host_ns: 0,
            packets: 0,
            active_nodes: 0,
            stragglers: 0,
            max_straggler_delay: SimDuration::ZERO,
            barrier_wait_ns: &[0, 0],
            vt_lag_ns: &[0, 0],
        });
        assert!(fr.render_summary().contains("(no stragglers)"));
    }
}
