//! Shared harness code for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one of the paper's tables or
//! figures (see DESIGN.md §4 for the index); the formatting and experiment
//! plumbing they share lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
mod record;

pub use harness::{
    dyn_config, nas_aggregate, print_experiment, render_log_series, run_sweep, scale_arg,
    speedup_over_time, standard_config, with_housekeeping, write_tsv, NasAggregate,
};
pub use record::{ProgressSeries, TrafficLog};
