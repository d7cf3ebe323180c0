//! Runs the benchmark in `--smoke` mode, end to end and traced, and checks
//! that what it prints is exactly what `BENCHMARK.json` declares: the file
//! and the harness cannot drift apart. Correctness and schema only — smoke
//! passes are too few for any timing verdict.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit)` of every metric in `section`, in declaration order.
fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
    list(doc, section)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

/// Runs one smoke run and returns its parsed result line.
fn smoke_run(workload: &str, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_aqs-perf"))
        .args(["run", "--workload", workload, "--seed", "42", "--smoke"])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("the run printed something");
    serde_json::from_str(line).expect("the last line is the JSON result")
}

#[test]
fn smoke_runs_print_exactly_the_declared_metrics() {
    let doc = benchmark_json();

    // The file itself stays inside the contract's limits.
    assert_eq!(list(&doc, "paths"), [Value::Str("perf".to_string())]);
    let Some(Value::U64(run_seconds)) = doc.get("run_seconds") else {
        panic!("run_seconds is not a whole number");
    };
    assert!((1..=60).contains(run_seconds));
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| {
            assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
            text(w, "name")
        })
        .collect();
    assert_eq!(
        workloads,
        [
            "burst_1k",
            "incast_256k",
            "rollback_mixed",
            "paper_sweep",
            "serve_jobs"
        ]
    );
    for m in list(&doc, "end_to_end") {
        let Some(Value::F64(bound)) = m.get("bound") else {
            panic!("{} has no bound", text(m, "name"));
        };
        assert!(*bound > 0.0 && *bound <= 0.25);
    }
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
    assert!(per_layer.len() <= 128);
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        assert!(well_formed_name(name), "bad metric name `{name}`");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
    }

    // One process at a time: the runs share `perf/out/`.
    for workload in &workloads {
        for (trace, declared) in [(false, &end_to_end), (true, &per_layer)] {
            let result = smoke_run(workload, trace);
            let Value::Object(fields) = &result else {
                panic!("the result is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed"), Some(&Value::U64(0)));
            assert!(matches!(result.get("attempted"), Some(Value::U64(n)) if *n >= 1));
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        matches!(m.get("value"), Some(Value::F64(x)) if x.is_finite()),
                        "{workload}: {name} is not a finite number"
                    );
                    (name.clone(), text(m, "unit").to_string())
                })
                .collect();
            assert_eq!(
                &printed, declared,
                "{workload} trace={trace}: printed metrics differ from BENCHMARK.json"
            );
            if !trace {
                for (name, m) in metrics {
                    assert!(
                        matches!(m.get("value"), Some(Value::F64(x)) if *x > 0.0),
                        "{workload}: end-to-end metric {name} must never be 0"
                    );
                }
            }
        }
        let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        let spans = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        let spans: Value = serde_json::from_str(&spans).expect("the span file is JSON");
        assert!(!list(&spans, "traceEvents").is_empty());
    }
}
