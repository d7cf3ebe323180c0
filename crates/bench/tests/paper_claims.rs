//! DESIGN.md §4's shape sentences as tests, over exactly what `fig8_pareto`
//! computes: the NAS aggregate and the NAMD sweep at 8 nodes, `Scale::Mini`,
//! seed 42, every configuration of the paper's sweep. The checked-in
//! `results/fig8_pareto.tsv` pins these numbers; the tests pin what the
//! paper says about them, so a change that moves the numbers on purpose
//! still has to keep the paper's shape.

use aqs_bench::{nas_aggregate, run_sweep};
use aqs_cluster::paper_sweep;
use aqs_workloads::{Scale, Workload};
use std::sync::OnceLock;

/// One configuration's point on the Pareto plane.
struct Point {
    label: String,
    error: f64,
    speedup: f64,
}

/// The figure's two families, NAS and NAMD, computed once per test binary.
fn families() -> &'static [(&'static str, Vec<Point>); 2] {
    static FAMILIES: OnceLock<[(&str, Vec<Point>); 2]> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let nas = nas_aggregate(8, Scale::Mini, 42, paper_sweep());
        let namd = run_sweep(
            Workload::Namd { scale: Scale::Mini }.build(8, 42),
            42,
            paper_sweep(),
        );
        let nas = (0..nas.labels.len())
            .map(|i| Point {
                label: nas.labels[i].clone(),
                error: nas.errors[i],
                speedup: nas.speedups[i],
            })
            .collect();
        let namd = namd
            .outcomes
            .iter()
            .map(|o| Point {
                label: o.label.clone(),
                error: o.accuracy_error,
                speedup: o.speedup,
            })
            .collect();
        [("NAS", nas), ("NAMD", namd)]
    })
}

fn is_adaptive(p: &Point) -> bool {
    p.label.starts_with("dyn")
}

/// "Fixed Q = 1000 µs must be fastest and least accurate."
#[test]
fn fixed_1000us_is_fastest_and_least_accurate() {
    for (family, points) in families() {
        let q1000 = points
            .iter()
            .find(|p| p.label == "1000")
            .expect("the sweep has Q = 1000 µs");
        for p in points.iter().filter(|p| p.label != "1000") {
            assert!(
                q1000.speedup > p.speedup,
                "{family}: Q=1000 speedup {} <= {} at {}",
                q1000.speedup,
                p.speedup,
                p.label
            );
            assert!(
                q1000.error > p.error,
                "{family}: Q=1000 error {} <= {} at {}",
                q1000.error,
                p.error,
                p.label
            );
        }
    }
}

/// "Dyn configs must land on or near the Pareto front": no fixed quantum is
/// both more accurate and faster than an adaptive one.
#[test]
fn no_fixed_quantum_dominates_an_adaptive_one() {
    for (family, points) in families() {
        for dyn_point in points.iter().filter(|p| is_adaptive(p)) {
            for fixed in points.iter().filter(|p| !is_adaptive(p)) {
                assert!(
                    !(fixed.error < dyn_point.error && fixed.speedup > dyn_point.speedup),
                    "{family}: Q={} ({}, {}x) dominates {} ({}, {}x)",
                    fixed.label,
                    fixed.error,
                    fixed.speedup,
                    dyn_point.label,
                    dyn_point.error,
                    dyn_point.speedup
                );
            }
        }
    }
}
