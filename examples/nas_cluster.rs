//! Run a NAS-like benchmark on a simulated cluster across synchronization
//! configurations — a miniature of the paper's Figure 6 evaluation.
//!
//! Run with: `cargo run --release --example nas_cluster [ep|is|cg|mg|lu] [nodes]`

use aqs::cluster::{paper_sweep, ClusterConfig, Experiment};
use aqs::core::SyncConfig;
use aqs::obs::render_table;
use aqs::workloads::{nas, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("cg");
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let spec = match which {
        "ep" => nas::ep(n, Scale::Mini),
        "is" => nas::is(n, Scale::Mini),
        "cg" => nas::cg(n, Scale::Mini),
        "mg" => nas::mg(n, Scale::Mini),
        "lu" => nas::lu(n, Scale::Mini),
        other => {
            eprintln!("unknown benchmark {other}; expected ep|is|cg|mg|lu");
            std::process::exit(2);
        }
    };

    let base = ClusterConfig::new(SyncConfig::ground_truth()).with_seed(42);
    let result = Experiment::new(spec, base, paper_sweep()).run();

    println!(
        "{} on {} nodes — ground truth: {} in {} host time",
        result.name, result.n_nodes, result.baseline_metric, result.baseline.host_elapsed
    );
    let rows: Vec<Vec<String>> = result
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                format!("{:.1}x", o.speedup),
                format!("{:.2}%", o.accuracy_error * 100.0),
                format!("{}", o.result.stragglers.count()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["config", "speedup", "error", "stragglers"], &rows)
    );

    // The paper's headline claim, checked live:
    let dyn1 = &result.outcomes[3];
    let f1000 = &result.outcomes[2];
    println!(
        "adaptive vs fixed-1000µs: {:.0}% of the speed at {:.1}% of the error",
        100.0 * dyn1.speedup / f1000.speedup,
        100.0 * dyn1.accuracy_error / f1000.accuracy_error.max(1e-9),
    );
}
