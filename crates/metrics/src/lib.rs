//! Statistics, Pareto fronts and plain-text rendering for aqs experiments.
//!
//! The benchmark harness regenerates every table and figure of the paper as
//! text: bar groups for the accuracy/speedup charts (Figures 6 and 7), a
//! scatter with its Pareto-optimal frontier (Figure 8), traffic-density and
//! speedup-over-time panels (Figure 9), and aligned tables (§6). This crate
//! holds the math and the rendering so the harness binaries stay thin.
//!
//! # Examples
//!
//! ```
//! use aqs_metrics::{harmonic_mean, relative_error};
//!
//! // The paper aggregates NAS MOPS with a harmonic mean.
//! let mops = [400.0, 200.0];
//! assert!((harmonic_mean(&mops).unwrap() - 266.666).abs() < 1e-2);
//! // Accuracy error is relative to the 1 µs ground truth.
//! assert!((relative_error(95.0, 100.0) - 0.05).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pareto;
mod render;
mod stats;

pub use pareto::{pareto_front, ParetoPoint};
pub use render::{
    render_bar_chart, render_histogram, render_scatter_log_y, render_series_log_y, render_table,
    render_traffic_density,
};
pub use stats::{harmonic_mean, relative_error};
