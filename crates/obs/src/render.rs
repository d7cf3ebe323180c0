//! Plain-text rendering of tables, charts and the flight-recorder summary.
//!
//! The harness prints the paper's figures as text so the reproduction is
//! self-contained (no plotting stack): grouped horizontal bars for
//! Figures 6/7, a log-y scatter for Figure 8, and a per-node traffic
//! density grid for Figure 9's left-hand panels. [`FlightRecorder`]'s
//! terminal summary is drawn with the same table, histogram and log-y
//! series renderers.

use crate::flight::FlightRecorder;
use crate::hist::Log2Histogram;
use crate::pareto::{pareto_front, ParetoPoint};
use aqs_time::SimDuration;

/// Renders an aligned table with a header row.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
///
/// # Examples
///
/// ```
/// let t = aqs_obs::render_table(
///     &["Quantum (µs)", "Speedup", "Error"],
///     &[vec!["100".into(), "72.7x".into(), "0.10%".into()]],
/// );
/// assert!(t.contains("72.7x"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), headers.len(), "row {i} has wrong arity");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>w$} |", w = w));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&"-".repeat(w + 2));
        sep.push('|');
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Renders grouped horizontal bars: one group per `group_labels` entry, one
/// bar per series, scaled to the global maximum.
///
/// `values[g][s]` is the value of series `s` in group `g`.
///
/// # Panics
///
/// Panics if dimensions are inconsistent, `width` is zero, or any value is
/// negative/NaN.
///
/// # Examples
///
/// ```
/// let chart = aqs_obs::render_bar_chart(
///     &["2", "4", "8"],
///     &["10", "dyn"],
///     &[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 8.0]],
///     20,
///     "x",
/// );
/// assert!(chart.contains("# processors = 8"));
/// ```
pub fn render_bar_chart(
    group_labels: &[&str],
    series_labels: &[&str],
    values: &[Vec<f64>],
    width: usize,
    unit: &str,
) -> String {
    assert!(width > 0, "width must be positive");
    assert_eq!(
        values.len(),
        group_labels.len(),
        "one value row per group required"
    );
    for (g, row) in values.iter().enumerate() {
        assert_eq!(row.len(), series_labels.len(), "group {g} has wrong arity");
        assert!(
            row.iter().all(|v| v.is_finite() && *v >= 0.0),
            "bar values must be >= 0"
        );
    }
    let max = values
        .iter()
        .flatten()
        .copied()
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let label_w = series_labels
        .iter()
        .map(|l| l.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (g, group) in group_labels.iter().enumerate() {
        out.push_str(&format!("# processors = {group}\n"));
        for (s, series) in series_labels.iter().enumerate() {
            let v = values[g][s];
            let bar_len = ((v / max) * width as f64).round() as usize;
            out.push_str(&format!(
                "  {series:<label_w$} |{} {v:.2}{unit}\n",
                "█".repeat(bar_len),
            ));
        }
    }
    out
}

/// Renders a log-y scatter (Figure 8): x is linear error (fraction), y is
/// log-scaled speedup. Points on the Pareto front are drawn `◆`, others `·`,
/// and every point is listed in a legend with its coordinates.
///
/// # Panics
///
/// Panics if any point has a non-positive speedup (log axis) or NaN values.
pub fn render_scatter_log_y(points: &[ParetoPoint], cols: usize, rows: usize) -> String {
    assert!(cols >= 10 && rows >= 4, "canvas too small");
    assert!(
        points
            .iter()
            .all(|p| p.speedup > 0.0 && p.error.is_finite()),
        "log-y scatter needs positive speedups"
    );
    if points.is_empty() {
        return String::from("(no points)\n");
    }
    let front = pareto_front(points);
    let x_max = points
        .iter()
        .map(|p| p.error)
        .fold(0.0f64, f64::max)
        .max(1e-6);
    let y_min = points
        .iter()
        .map(|p| p.speedup)
        .fold(f64::INFINITY, f64::min);
    let y_max = points.iter().map(|p| p.speedup).fold(0.0f64, f64::max);
    let (ly_min, ly_max) = (y_min.ln(), (y_max.ln()).max(y_min.ln() + 1e-9));
    let mut grid = vec![vec![' '; cols]; rows];
    for (i, p) in points.iter().enumerate() {
        let cx = ((p.error / x_max) * (cols - 1) as f64).round() as usize;
        let cy =
            (((p.speedup.ln() - ly_min) / (ly_max - ly_min)) * (rows - 1) as f64).round() as usize;
        let row = rows - 1 - cy;
        grid[row][cx] = if front.contains(&i) { '◆' } else { '·' };
    }
    let mut out = String::new();
    out.push_str(&format!("speedup (log scale), max {y_max:.1}x\n"));
    for row in &grid {
        out.push_str("  |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(cols));
    out.push('\n');
    out.push_str(&format!("   accuracy error 0 .. {:.0}%\n", x_max * 100.0));
    for (i, p) in points.iter().enumerate() {
        let mark = if front.contains(&i) {
            "◆ pareto"
        } else {
            "·       "
        };
        out.push_str(&format!(
            "  {mark}  {:<16} error {:>7.2}%  speedup {:>6.2}x\n",
            p.label,
            p.error * 100.0,
            p.speedup
        ));
    }
    out
}

/// Renders the Figure 9 left-panel style traffic density grid: one text row
/// per node (or per node bucket when there are more nodes than `max_rows`),
/// one column per time bucket; cell brightness encodes packet count.
///
/// `events` are `(time_fraction, node_index)` pairs with `time_fraction`
/// already normalized into `[0, 1]`.
///
/// # Panics
///
/// Panics if a `time_fraction` is outside `[0, 1]`, a node index is out of
/// range, or dimensions are zero.
pub fn render_traffic_density(
    events: &[(f64, usize)],
    n_nodes: usize,
    cols: usize,
    max_rows: usize,
) -> String {
    assert!(
        n_nodes > 0 && cols > 0 && max_rows > 0,
        "dimensions must be positive"
    );
    let rows = n_nodes.min(max_rows);
    let nodes_per_row = n_nodes.div_ceil(rows);
    let mut counts = vec![vec![0usize; cols]; rows];
    for &(tf, node) in events {
        assert!((0.0..=1.0).contains(&tf), "time fraction {tf} out of [0,1]");
        assert!(node < n_nodes, "node {node} out of range");
        let c = ((tf * cols as f64) as usize).min(cols - 1);
        counts[node / nodes_per_row][c] += 1;
    }
    const SHADES: [char; 6] = [' ', '.', ':', '*', '#', '@'];
    let max = counts.iter().flatten().copied().max().unwrap_or(0).max(1);
    let mut out = String::new();
    for (r, row) in counts.iter().enumerate() {
        let lo = r * nodes_per_row;
        let hi = ((r + 1) * nodes_per_row - 1).min(n_nodes - 1);
        let label = if lo == hi {
            format!("n{lo:<4}")
        } else {
            format!("n{lo}-{hi}")
        };
        out.push_str(&format!("{label:>8} |"));
        for &c in row {
            let shade = if c == 0 {
                SHADES[0]
            } else {
                let idx = 1 + (c * (SHADES.len() - 2)) / max;
                SHADES[idx.min(SHADES.len() - 1)]
            };
            out.push(shade);
        }
        out.push_str("|\n");
    }
    out
}

/// Renders a horizontal-bar histogram: one row per `(label, count)` pair,
/// bars scaled to the largest count.
///
/// # Panics
///
/// Panics if `width` is zero.
///
/// # Examples
///
/// ```
/// let h = aqs_obs::render_histogram(
///     &[("1µs".into(), 10), ("2µs".into(), 5)],
///     10,
/// );
/// assert!(h.contains("1µs"));
/// ```
pub fn render_histogram(rows: &[(String, u64)], width: usize) -> String {
    assert!(width > 0, "width must be positive");
    let max = rows.iter().map(|(_, c)| *c).max().unwrap_or(0).max(1);
    let label_w = rows
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (label, count) in rows {
        let bar_len = ((*count as f64 / max as f64) * width as f64).round() as usize;
        out.push_str(&format!(
            "  {label:>label_w$} |{} {count}\n",
            "█".repeat(bar_len),
        ));
    }
    out
}

/// Renders a time series as a log-y column chart: the series is bucketed
/// into `cols` columns (bucket mean), each drawn as a `*` at its log-scaled
/// height. Non-positive values pin to the bottom row.
///
/// # Panics
///
/// Panics if the canvas is smaller than 10×4 or any value is NaN/negative.
pub fn render_series_log_y(series: &[f64], cols: usize, rows: usize) -> String {
    assert!(cols >= 10 && rows >= 4, "canvas too small");
    assert!(
        series.iter().all(|v| v.is_finite() && *v >= 0.0),
        "series values must be finite and non-negative"
    );
    if series.is_empty() {
        return String::from("(no samples)\n");
    }
    let cols = cols.min(series.len());
    let per_col = series.len().div_ceil(cols);
    let means: Vec<f64> = series
        .chunks(per_col)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let y_min = means
        .iter()
        .copied()
        .filter(|v| *v > 0.0)
        .fold(f64::INFINITY, f64::min);
    let y_max = means.iter().copied().fold(0.0f64, f64::max);
    if y_max <= 0.0 || !y_min.is_finite() {
        return String::from("(all-zero series)\n");
    }
    let (ly_min, ly_max) = (y_min.ln(), y_max.ln().max(y_min.ln() + 1e-9));
    let mut grid = vec![vec![' '; means.len()]; rows];
    for (x, &v) in means.iter().enumerate() {
        let cy = if v <= 0.0 {
            0
        } else {
            (((v.ln() - ly_min) / (ly_max - ly_min)) * (rows - 1) as f64).round() as usize
        };
        grid[rows - 1 - cy][x] = '*';
    }
    let mut out = String::new();
    out.push_str(&format!("max {y_max:.0}\n"));
    for row in &grid {
        out.push_str("  |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(means.len()));
    out.push('\n');
    out.push_str(&format!("min {y_min:.0} ({} samples)\n", series.len()));
    out
}

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
    fn table_aligns_and_contains_cells() {
        let t = render_table(
            &["a", "long header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("long header"));
        assert!(t.contains("333"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4); // header, separator, 2 rows
        assert!(lines
            .iter()
            .all(|l| l.chars().count() == lines[0].chars().count()));
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let chart = render_bar_chart(&["8"], &["fast", "slow"], &[vec![10.0, 5.0]], 10, "x");
        let fast_bar = chart.lines().find(|l| l.contains("fast")).unwrap();
        let slow_bar = chart.lines().find(|l| l.contains("slow")).unwrap();
        assert_eq!(fast_bar.matches('█').count(), 10);
        assert_eq!(slow_bar.matches('█').count(), 5);
    }

    #[test]
    fn bar_chart_handles_all_zero() {
        let chart = render_bar_chart(&["2"], &["a"], &[vec![0.0]], 10, "%");
        assert!(chart.contains("0.00%"));
    }

    #[test]
    fn scatter_marks_front_points() {
        let pts = vec![
            ParetoPoint::new(0.01, 20.0, "dyn"),
            ParetoPoint::new(0.85, 65.0, "Q1000"),
            ParetoPoint::new(0.3, 5.0, "bad"),
        ];
        let s = render_scatter_log_y(&pts, 40, 10);
        assert!(s.contains("◆ pareto  dyn"));
        assert!(s.contains("·         bad"));
        assert_eq!(s.matches('◆').count(), 2 + 2); // 2 in grid + 2 in legend
    }

    #[test]
    fn scatter_empty_is_graceful() {
        assert_eq!(render_scatter_log_y(&[], 40, 10), "(no points)\n");
    }

    #[test]
    fn traffic_density_shapes() {
        let events: Vec<(f64, usize)> = (0..100).map(|i| (i as f64 / 100.0, i % 4)).collect();
        let grid = render_traffic_density(&events, 4, 20, 64);
        assert_eq!(grid.lines().count(), 4);
        assert!(grid.contains("n0"));
    }

    #[test]
    fn traffic_density_buckets_many_nodes() {
        let events = vec![(0.5, 63usize)];
        let grid = render_traffic_density(&events, 64, 10, 16);
        assert_eq!(grid.lines().count(), 16);
        assert!(grid.contains("n60-63"));
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn traffic_density_rejects_bad_fraction() {
        let _ = render_traffic_density(&[(1.5, 0)], 2, 10, 10);
    }

    #[test]
    fn histogram_scales_bars_to_max() {
        let h = render_histogram(&[("a".into(), 10), ("bb".into(), 5)], 10);
        let a = h.lines().find(|l| l.contains(" a |")).unwrap();
        let b = h.lines().find(|l| l.contains("bb |")).unwrap();
        assert_eq!(a.matches('█').count(), 10);
        assert_eq!(b.matches('█').count(), 5);
    }

    #[test]
    fn histogram_handles_empty_and_zero() {
        assert_eq!(render_histogram(&[], 10), "");
        let h = render_histogram(&[("z".into(), 0)], 10);
        assert!(h.contains("z |"));
    }

    #[test]
    fn series_log_y_buckets_long_series() {
        let series: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = render_series_log_y(&series, 40, 6);
        assert!(s.contains("1000 samples"));
        assert_eq!(s.matches('*').count(), 40);
    }

    #[test]
    fn series_log_y_graceful_degenerate_inputs() {
        assert_eq!(render_series_log_y(&[], 40, 6), "(no samples)\n");
        assert_eq!(
            render_series_log_y(&[0.0, 0.0], 40, 6),
            "(all-zero series)\n"
        );
    }

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
