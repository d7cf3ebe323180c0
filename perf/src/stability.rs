//! `stability`: does the same binary agree with itself? Runs alternating
//! sets of end-to-end runs (run k of every set uses seed `base + k`),
//! compares the sets' medians per workload and metric against the bounds
//! `BENCHMARK.json` declares, and writes `out/stability.json`.
//!
//! A metric fails when the sets' medians disagree by more than half its
//! bound, or when a set's own run-to-run spread (quartile distance over
//! median, the acceptance check's measure) exceeds the bound; `setup_s` is
//! exempt from the spread rule. The cure for a failure is more passes per
//! run, never a wider bound or a shorter pass.

use crate::metrics::{median, number, quartiles, END_TO_END, WORKLOADS};
use crate::run::{perf_dir, run_child, Opts};
use serde_json::Value;
use std::collections::BTreeMap;

/// `bound` of every end-to-end metric, from the repository's
/// `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = perf_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    let mut out = BTreeMap::new();
    for m in metrics {
        if let (Some(Value::Str(name)), Some(bound)) =
            (m.get("name"), m.get("bound").and_then(number))
        {
            out.insert(name.clone(), bound);
        }
    }
    for (name, _) in END_TO_END {
        if !out.contains_key(*name) {
            return Err(format!("{}: no bound for `{name}`", path.display()));
        }
    }
    Ok(out)
}

pub fn stability(sets: usize, runs: usize, base: &Opts) -> Result<bool, String> {
    let bounds = bounds()?;
    // values[workload][metric][set] = one value per run, in run order.
    let mut values: BTreeMap<(&str, &str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut failed_ops = 0;
    for run in 0..runs {
        for set in 0..sets {
            for workload in WORKLOADS {
                let opts = Opts {
                    seed: base.seed.wrapping_add(run as u64),
                    trace: false,
                    ..base.clone()
                };
                let result = run_child(&opts, workload, false)?;
                failed_ops += result.failed;
                let line: Vec<String> = result
                    .metrics
                    .iter()
                    .map(|(n, _, v)| format!("{n}={v:.6}"))
                    .collect();
                println!("set {set} run {run} {workload}: {}", line.join(" "));
                for (name, _) in END_TO_END {
                    let value = result
                        .metrics
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .map(|(_, _, v)| *v)
                        .ok_or_else(|| format!("{workload}: run printed no `{name}`"))?;
                    values
                        .entry((workload, name))
                        .or_insert_with(|| vec![Vec::new(); sets])[set]
                        .push(value);
                }
            }
        }
    }

    let mut ok = failed_ops == 0;
    let mut rows = Vec::new();
    println!(
        "\n{:<15} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "disagree", "spread", "bound"
    );
    for ((workload, metric), per_set) in &values {
        let bound = bounds[*metric];
        let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
        let spreads: Vec<f64> = per_set
            .iter()
            .map(|v| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / median(v)
            })
            .collect();
        let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = medians.iter().copied().fold(0.0, f64::max);
        let disagreement = (hi - lo) / lo;
        let spread = spreads.iter().copied().fold(0.0, f64::max);
        let spread_matters = *metric != "setup_s" && runs >= 4;
        let verdict = if disagreement > bound / 2.0 {
            "FAIL: sets disagree by more than half the bound"
        } else if spread_matters && spread > bound {
            "FAIL: run-to-run spread exceeds the bound"
        } else if spread_matters && spread > bound / 3.0 {
            "ok (spread above a third of the bound)"
        } else {
            "ok"
        };
        ok &= !verdict.starts_with("FAIL");
        println!(
            "{workload:<15} {metric:<14} {:>12.5} {:>12.5} {:>7.2}% {:>7.2}% {:>7.1}%  {verdict}",
            medians[0],
            medians[sets - 1],
            disagreement * 100.0,
            spread * 100.0,
            bound * 100.0
        );
        let floats = |xs: &[f64]| Value::Array(xs.iter().map(|x| Value::F64(*x)).collect());
        rows.push(Value::Object(vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            ("metric".to_string(), Value::Str(metric.to_string())),
            ("bound".to_string(), Value::F64(bound)),
            ("set_medians".to_string(), floats(&medians)),
            (
                "set_quartiles".to_string(),
                Value::Array(
                    per_set
                        .iter()
                        .map(|v| {
                            let (q1, q3) = quartiles(v);
                            floats(&[q1, q3])
                        })
                        .collect(),
                ),
            ),
            ("set_spreads".to_string(), floats(&spreads)),
            ("disagreement".to_string(), Value::F64(disagreement)),
            (
                "values".to_string(),
                Value::Array(per_set.iter().map(|v| floats(v)).collect()),
            ),
            ("verdict".to_string(), Value::Str(verdict.to_string())),
        ]));
    }
    let doc = Value::Object(vec![
        ("sets".to_string(), Value::U64(sets as u64)),
        ("runs".to_string(), Value::U64(runs as u64)),
        ("seconds".to_string(), Value::F64(base.seconds)),
        ("base_seed".to_string(), Value::U64(base.seed)),
        ("failed_ops".to_string(), Value::U64(failed_ops)),
        ("ok".to_string(), Value::Bool(ok)),
        ("rows".to_string(), Value::Array(rows)),
    ]);
    let out = perf_dir().join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("stability.json");
    let text = serde_json::to_string_pretty(&doc).expect("a value tree always renders");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nfailed_ops = {failed_ops}; wrote {}", path.display());
    Ok(ok)
}
