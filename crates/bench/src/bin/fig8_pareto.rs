//! Figure 8 — Pareto optimality curve (8-node systems).
//!
//! Every configuration of the Figure 6/7 sweeps becomes a point in the
//! (accuracy error, log speedup) plane: squares are the NAS aggregate,
//! circles NAMD, with one Pareto frontier per benchmark family (the
//! paper's dotted curves). The paper's claim — reproduced here — is that
//! all adaptive configurations lie on or very near the frontier.
//!
//! Usage: `fig8_pareto [tiny|mini]`.

use aqs_bench::{nas_aggregate, run_sweep, write_tsv};
use aqs_cluster::paper_sweep;
use aqs_obs::{pareto_front, render_scatter_log_y, ParetoPoint};
use aqs_workloads::{Scale, Workload};
use std::time::Instant;

/// How far (multiplicatively, on the speedup axis) a point may sit below
/// the frontier and still count as "very near" it.
const NEAR_FRONT_FACTOR: f64 = 1.25;

/// `true` if `p` is on or within [`NEAR_FRONT_FACTOR`] of its family front.
fn near_front(p: &ParetoPoint, family: &[ParetoPoint]) -> bool {
    !family
        .iter()
        .any(|q| q.error <= p.error && q.speedup > p.speedup * NEAR_FRONT_FACTOR)
}

fn main() {
    let scale = aqs_bench::scale_arg(Scale::Mini);
    let t0 = Instant::now();
    let nas = nas_aggregate(8, scale, 42, paper_sweep());
    let namd = run_sweep(Workload::Namd { scale }.build(8, 42), 42, paper_sweep());

    let nas_points: Vec<ParetoPoint> = nas
        .labels
        .iter()
        .enumerate()
        .map(|(i, label)| ParetoPoint::new(nas.errors[i], nas.speedups[i], format!("NAS {label}")))
        .collect();
    let namd_points: Vec<ParetoPoint> = namd
        .outcomes
        .iter()
        .map(|o| ParetoPoint::new(o.accuracy_error, o.speedup, format!("NAMD {}", o.label)))
        .collect();

    println!("=== Figure 8 — Pareto optimality curves (8 nodes) ===\n");
    for (family, points) in [
        ("NAS (squares)", &nas_points),
        ("NAMD (circles)", &namd_points),
    ] {
        println!("--- {family} ---");
        println!("{}", render_scatter_log_y(points, 72, 14));
    }

    // The paper's claim: all adaptive configurations lie on or very near
    // their family's Pareto curve.
    let mut adaptive_total = 0;
    let mut adaptive_near = 0;
    for points in [&nas_points, &namd_points] {
        let front = pareto_front(points);
        for (i, p) in points.iter().enumerate() {
            if p.label.contains("dyn") {
                adaptive_total += 1;
                if front.contains(&i) || near_front(p, points) {
                    adaptive_near += 1;
                }
            }
        }
    }
    println!(
        "adaptive configurations on or near their Pareto front: {adaptive_near}/{adaptive_total}"
    );
    let rows: Vec<Vec<String>> = nas_points
        .iter()
        .chain(&namd_points)
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{:.4}", p.error),
                format!("{:.2}", p.speedup),
            ]
        })
        .collect();
    write_tsv("fig8_pareto", &["label", "error", "speedup"], &rows);
    eprintln!("(fig8 wall time: {:.1?})", t0.elapsed());
}
