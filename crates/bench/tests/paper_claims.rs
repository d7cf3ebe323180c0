//! DESIGN.md §4's shape sentences as tests. Figure 8's two are over exactly
//! what `fig8_pareto` computes: the NAS aggregate and the NAMD sweep at 8
//! nodes, `Scale::Mini`, seed 42, every configuration of the paper's sweep.
//! The §6 64-node table's three are over exactly what `fig9_scaleout`
//! computes, at `Scale::Mini`. The checked-in `results/*.tsv` pin these
//! numbers; the tests pin what the paper says about them, so a change that
//! moves the numbers on purpose still has to keep the paper's shape.

use aqs_bench::{dyn_config, nas_aggregate, run_sweep, standard_config, with_housekeeping};
use aqs_cluster::{app_metric, paper_sweep, RunResult, Sim};
use aqs_core::SyncConfig;
use aqs_workloads::{MetricKind, NasBench, Scale, Workload};
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

/// One benchmark's §6 rows as `fig9_scaleout` runs them — 64 nodes,
/// housekeeping traffic, seed 42 — at `Scale::Mini`: the 1 µs baseline,
/// then fixed 100 µs, fixed 10 µs and the benchmark's dyn configuration.
fn scaleout(workload: Workload, dyn_cfg: SyncConfig) -> [RunResult; 4] {
    let spec = with_housekeeping(workload.build(64, 42));
    let cfg = standard_config(42);
    [
        SyncConfig::ground_truth(),
        SyncConfig::fixed_micros(100),
        SyncConfig::fixed_micros(10),
        dyn_cfg,
    ]
    .map(|sync| {
        let report = Sim::new(spec.programs.clone())
            .config(cfg.clone().with_sync(sync))
            .run();
        report
            .detail
            .as_deterministic()
            .expect("deterministic engine")
            .clone()
    })
}

fn nas(bench: NasBench) -> Workload {
    Workload::Nas {
        bench,
        scale: Scale::Mini,
    }
}

/// "IS must show catastrophic exec-time dilation at Q = 100": the kernel's
/// MOPS ratio m₀/m is at least 10× at Q = 100 µs and falls in the order
/// Q = 100 > Q = 10 > dyn 1:100, which stays within 1 % of the baseline.
#[test]
fn is_exec_time_dilates_catastrophically_at_q100() {
    let [base, q100, q10, dyn1] = scaleout(nas(NasBench::Is), dyn_config(1, 100, 1.03));
    let m0 = app_metric(&base, MetricKind::Mops).value();
    let ratio = |r: &RunResult| m0 / app_metric(r, MetricKind::Mops).value();
    let (r100, r10, rdyn) = (ratio(&q100), ratio(&q10), ratio(&dyn1));
    assert!(r100 >= 10.0, "Q=100 dilates only {r100:.2}x");
    assert!(
        r100 > r10 && r10 > rdyn,
        "{r100:.2}x / {r10:.2}x / {rdyn:.2}x"
    );
    assert!((rdyn - 1.0).abs() < 0.01, "dyn 1:100 dilates {rdyn:.4}x");
}

/// "NAMD must cap adaptive speedup near the fixed-10 µs point": dyn 2:100
/// is slower than Q = 10 µs, and more accurate.
#[test]
fn namd_adaptive_speedup_is_capped_by_fixed_10us() {
    let workload = Workload::Namd { scale: Scale::Mini };
    let [base, _, q10, dyn2] = scaleout(workload, dyn_config(2, 100, 1.05));
    let m0 = app_metric(&base, MetricKind::KernelTime);
    let error = |r: &RunResult| app_metric(r, MetricKind::KernelTime).error_vs(&m0);
    let (s10, sdyn) = (q10.speedup_vs(&base), dyn2.speedup_vs(&base));
    assert!(sdyn < s10, "dyn 2:100 {sdyn:.1}x >= Q=10 {s10:.1}x");
    let (e10, edyn) = (error(&q10), error(&dyn2));
    assert!(edyn < e10, "dyn 2:100 error {edyn} >= Q=10 error {e10}");
}

/// §6 EP row: speedups ordered Q = 100 > dyn 1:100 > Q = 10.
#[test]
fn ep_speedup_orders_q100_dyn_q10() {
    let [base, q100, q10, dyn1] = scaleout(nas(NasBench::Ep), dyn_config(1, 100, 1.03));
    let [s100, s10, sdyn] = [&q100, &q10, &dyn1].map(|r| r.speedup_vs(&base));
    assert!(
        s100 > sdyn && sdyn > s10,
        "{s100:.1}x / {sdyn:.1}x / {s10:.1}x"
    );
}
