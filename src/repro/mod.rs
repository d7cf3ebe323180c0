//! The reproduction suite: the paper's Figures 5–9 and §6 tables, this
//! repository's ablations and its extensions, one function each. Each
//! prints its report to stdout and the figures write their data as
//! `results/<name>.tsv` relative to the working directory.
//!
//! `aqs repro [all|<figure>] [tiny|mini|full]` runs them; DESIGN.md §4
//! indexes them. With no scale each figure runs at its own default: `mini`,
//! or `full` for `fig9_scaleout`.

mod ablations;
mod figures;
mod harness;
mod record;
mod scaleout;

pub use harness::{
    dyn_config, nas_aggregate, run_sweep, standard_config, with_housekeeping, NasAggregate,
};
pub use record::{ProgressSeries, TrafficLog};

use crate::workloads::Scale;
use std::time::Instant;

/// One figure, table or ablation of the suite.
pub struct Figure {
    /// Its name on the command line: `aqs repro <name>`.
    pub name: &'static str,
    /// The banner `aqs repro all` prints above its report.
    pub title: &'static str,
    /// The scale it runs at when none is given.
    pub scale: Scale,
    report: fn(Scale),
}

impl Figure {
    /// Prints the report at `scale`, and its wall time to stderr.
    pub fn run(&self, scale: Scale) {
        let t0 = Instant::now();
        (self.report)(scale);
        eprintln!("({} wall: {:.1?})", self.name, t0.elapsed());
    }
}

/// The suite in the order `aqs repro all` runs it.
pub const FIGURES: [Figure; 10] = [
    Figure {
        name: "fig6_nas",
        title: "Figure 6 — NAS accuracy & speedup (2/4/8 nodes)",
        scale: Scale::Mini,
        report: figures::fig6_nas,
    },
    Figure {
        name: "fig7_namd",
        title: "Figure 7 — NAMD accuracy & speedup (2/4/8 nodes)",
        scale: Scale::Mini,
        report: figures::fig7_namd,
    },
    Figure {
        name: "fig8_pareto",
        title: "Figure 8 — Pareto optimality curve (8 nodes)",
        scale: Scale::Mini,
        report: figures::fig8_pareto,
    },
    Figure {
        name: "fig9_scaleout",
        title: "Figure 9 + §6 tables — 64-node EP/IS/NAMD",
        scale: Scale::Full,
        report: scaleout::fig9_scaleout,
    },
    Figure {
        name: "sync_overhead",
        title: "Figure 5 — synchronization overhead",
        scale: Scale::Mini,
        report: figures::sync_overhead,
    },
    Figure {
        name: "ablation_params",
        title: "Ablation — inc/dec factors & extension policies",
        scale: Scale::Mini,
        report: ablations::ablation_params,
    },
    Figure {
        name: "ablation_optimistic",
        title: "Ablation — optimistic PDES cost model",
        scale: Scale::Mini,
        report: ablations::ablation_optimistic,
    },
    Figure {
        name: "ablation_barrier",
        title: "Ablation — barrier cost sensitivity",
        scale: Scale::Mini,
        report: ablations::ablation_barrier,
    },
    Figure {
        name: "ext_future_work",
        title: "Extensions — §7 future work (sampling, lookahead)",
        scale: Scale::Mini,
        report: ablations::ext_future_work,
    },
    Figure {
        name: "ext_congestion",
        title: "Extensions — non-perfect switch fabrics",
        scale: Scale::Mini,
        report: ablations::ext_congestion,
    },
];

/// Runs every figure in [`FIGURES`] order under its banner, each at `scale`
/// or at its own default, then prints the closing line.
pub fn run_all(scale: Option<Scale>) {
    for figure in &FIGURES {
        println!("\n{}", "=".repeat(78));
        println!("== {}", figure.title);
        println!("{}\n", "=".repeat(78));
        figure.run(scale.unwrap_or(figure.scale));
    }
    println!("\nreproduction suite complete.");
}
