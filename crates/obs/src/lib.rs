//! Quantum-level observability and run reporting for the aqs engines.
//!
//! The paper's argument is carried by *per-quantum dynamics* — quantum
//! length over time (the Figure 3 "speed bumps"), straggler counts and
//! delays, synchronization overhead — yet an end-of-run aggregate cannot
//! show any of them. This crate is the telemetry layer all three engines
//! share:
//!
//! * [`Log2Histogram`] — fixed-bucket base-2 histograms: recording is a
//!   couple of integer ops, merging is commutative, nothing allocates.
//! * [`Recorder`] — the engine-facing trait. Engines are generic over it
//!   and gate every recording call on [`Recorder::ENABLED`], so the
//!   default [`NullRecorder`] monomorphizes telemetry away entirely.
//! * [`FlightRecorder`] — a preallocated ring buffer of the most recent
//!   quanta (`(quantum_len, packets, stragglers, max_straggler_delay,
//!   barrier_wait_ns per node, per-node virtual-time lag)`), plus
//!   whole-run aggregate histograms, a JSONL export and a terminal
//!   summary renderer.
//! * The paper's two axes and how the figures draw them:
//!   [`relative_error`] (accuracy error vs. the 1 µs ground truth),
//!   [`harmonic_mean`] (how NAS MOPS combine), [`pareto_front`] (Figure 8)
//!   and the `render_*` text charts and tables the figure binaries print.
//!
//! # Examples
//!
//! ```
//! use aqs_obs::{FlightRecorder, ObsConfig, QuantumObs, Recorder};
//! use aqs_time::{SimDuration, SimTime};
//!
//! let mut fr = FlightRecorder::new(2, ObsConfig::new());
//! fr.record_quantum(&QuantumObs {
//!     index: 0,
//!     start: SimTime::ZERO,
//!     len: SimDuration::from_micros(1),
//!     host_ns: 550_000,
//!     packets: 4,
//!     active_nodes: 2,
//!     stragglers: 1,
//!     max_straggler_delay: SimDuration::from_nanos(250),
//!     barrier_wait_ns: &[120, 0],
//!     vt_lag_ns: &[0, 300],
//! });
//! assert_eq!(fr.total_packets(), 4);
//! assert!(fr.to_jsonl().contains("\"packets\":4"));
//! ```
//!
//! ```
//! use aqs_obs::{harmonic_mean, relative_error};
//!
//! // The paper aggregates NAS MOPS with a harmonic mean.
//! let mops = [400.0, 200.0];
//! assert!((harmonic_mean(&mops).unwrap() - 266.666).abs() < 1e-2);
//! // Accuracy error is relative to the 1 µs ground truth.
//! assert!((relative_error(95.0, 100.0) - 0.05).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod flight;
mod hist;
mod pareto;
mod recorder;
mod render;
mod stats;

pub use flight::{FlightRecorder, LinkLoadStats, ObsConfig, ShardRollbackStats};
pub use hist::{Log2Histogram, LOG2_BUCKETS};
pub use pareto::{pareto_front, ParetoPoint};
pub use recorder::{NullRecorder, QuantumObs, Recorder};
pub use render::{
    render_bar_chart, render_histogram, render_scatter_log_y, render_series_log_y, render_table,
    render_traffic_density,
};
pub use stats::{harmonic_mean, relative_error};
