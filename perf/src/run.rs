//! One run of one workload: set-up, warm-up, timed passes, checks, and
//! the result line. End-to-end runs keep tracing off; a traced run
//! measures the per-layer metrics instead and writes the span file.

use crate::golden::{self, Golden, GOLDEN_SEED};
use crate::layers;
use crate::metrics::{
    median, min, number, quantile, result_line, steady_pass, Layers, END_TO_END, PER_LAYER,
    WORKLOADS,
};
use crate::trace::Tracer;
use crate::workloads::{self, Pass, Workload, WORKERS};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes of an end-to-end run, however short `--seconds`.
const MIN_PASSES: usize = 7;
/// Untimed passes after each set-up.
const WARMUPS: usize = 1;

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// The benchmark's own directory (`perf/`): scenarios, pins and `out/`.
pub fn perf_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "# host: nproc={nproc} workers={WORKERS} spin_budget={} rustc=\"{rustc}\" kernel={kernel}",
        aqs_sync::spin_budget()
    )
}

/// Checks every pass of a run against the first one and, at the pinned
/// seed, against `golden.json`.
struct Checker {
    golden: Option<(Golden, String)>,
    first: Option<(u64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(opts: &Opts, workload: &str) -> Result<Self, String> {
        let golden = (opts.seed == GOLDEN_SEED)
            .then(|| Golden::load(&perf_dir()).map(|g| (g, golden::key(workload, opts.smoke))))
            .transpose()?;
        Ok(Self {
            golden,
            first: None,
            attempted: 0,
            failed: 0,
        })
    }

    fn check(&mut self, pass: &Pass) {
        self.attempted += pass.ops;
        let mut failed = pass.failed;
        if pass.failed == 0 {
            let (digest, packets) = *self.first.get_or_insert((pass.digest, pass.packets));
            let mut wrong = Vec::new();
            if (pass.digest, pass.packets) != (digest, packets) {
                wrong.push("the pass simulated something else than the first pass".to_string());
            }
            if let Some((golden, key)) = &self.golden {
                wrong.extend(golden.mismatches(key, pass));
            }
            for line in &wrong {
                eprintln!("FAILED: {line}");
            }
            if !wrong.is_empty() {
                failed = pass.ops;
            }
        }
        self.failed += failed;
    }
}

/// Prints every metric by name, the operation counts and the result line;
/// returns whether every operation succeeded.
fn finish(checker: &Checker, metrics: &[(&str, &str, f64)]) -> bool {
    for (name, unit, value) in metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "ops = {}\nfailed_ops = {}",
        checker.attempted, checker.failed
    );
    println!(
        "{}",
        result_line(checker.attempted, checker.failed, metrics)
    );
    checker.failed == 0
}

/// Prints the passes' statistics and returns their steady time.
fn report_passes(label: &str, passes: &[Vec<f64>]) -> f64 {
    let walls: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    let steady = steady_pass(passes);
    println!(
        "{label}: P={} pieces={} steady={steady:.4} min={:.4} median={:.4} iqr={:.4} s",
        walls.len(),
        passes[0].len(),
        min(&walls),
        median(&walls),
        quantile(&walls, 0.75) - quantile(&walls, 0.25),
    );
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("pass walls: {}", list.join(" "));
    if passes[0].len() > 1 {
        for (i, pass) in passes.iter().enumerate() {
            let list: Vec<String> = pass.iter().map(|w| format!("{w:.4}")).collect();
            println!("pass {i} pieces: {}", list.join(" "));
        }
    }
    steady
}

/// Runs one workload in this process. Returns whether every operation
/// succeeded.
pub fn run_workload(opts: &Opts, workload: &str) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < WORKERS {
        return Err(format!(
            "host has {nproc} core(s); every workload runs {WORKERS} workers, refusing to measure"
        ));
    }
    println!(
        "# aqs-perf workload={workload} seed={} seconds={} trace={} smoke={}",
        opts.seed, opts.seconds, opts.trace as u8, opts.smoke as u8
    );
    println!("{}", host_line());
    if opts.trace {
        traced_run(opts, workload)
    } else {
        end_to_end_run(opts, workload)
    }
}

fn end_to_end_run(opts: &Opts, name: &str) -> Result<bool, String> {
    let dir = perf_dir();
    let mut t = Tracer::new(false);
    let mut checker = Checker::new(opts, name)?;

    // Set up several times; the last set-up is the one the passes run on.
    let mut setup_s = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        if let Some(mut previous) = current.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        let mut built = workloads::setup(name, opts.seed, opts.smoke, &dir, &mut t)?;
        for _ in 0..WARMUPS {
            checker.check(&built.workload.pass(&mut t));
        }
        setup_s.push(started.elapsed().as_secs_f64());
        current = Some(built.workload);
    }
    let mut workload = current.expect("at least one set-up ran");

    let mut passes = Vec::new();
    let mut packets = 0;
    let started = Instant::now();
    loop {
        let done = if opts.smoke {
            passes.len() >= 2
        } else {
            passes.len() >= MIN_PASSES && started.elapsed().as_secs_f64() >= opts.seconds
        };
        if done {
            break;
        }
        let pass = workload.pass(&mut t);
        checker.check(&pass);
        if pass.failed == 0 {
            packets = pass.packets;
            passes.push(pass.parts);
        }
    }
    workload.shutdown();
    drop(workload);
    if passes.is_empty() {
        return Err("no pass succeeded, nothing to report".to_string());
    }

    let wall_s = report_passes("timed passes", &passes);
    let list: Vec<String> = setup_s.iter().map(|w| format!("{w:.4}")).collect();
    println!("set-ups: {}", list.join(" "));
    let values = [
        wall_s,
        packets as f64 / wall_s,
        median(&setup_s),
        peak_rss_mb(),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (*name, *unit, value))
        .collect();
    Ok(finish(&checker, &metrics))
}

fn traced_run(opts: &Opts, name: &str) -> Result<bool, String> {
    let dir = perf_dir();
    let mut t = Tracer::new(true);
    let mut checker = Checker::new(opts, name)?;
    let mut out = Layers::default();

    let mut built = t.span("harness.setup", |t| {
        let mut built = workloads::setup(name, opts.seed, opts.smoke, &dir, t)?;
        t.span("harness.warmup", |t| {
            checker.check(&built.workload.pass(t));
        });
        Ok::<_, String>(built)
    })?;
    out.set("workloads.build_s", built.build_s);
    out.set("workloads.ops_built", built.ops_built as f64);

    // Untraced-speed passes of the same work, for the ratios below. The
    // spans are harness-side and cost one allocation per pass.
    let mut passes = Vec::new();
    let started = Instant::now();
    t.span("harness.passes", |t| loop {
        let done = if opts.smoke {
            passes.len() >= 2
        } else {
            passes.len() >= 3 && started.elapsed().as_secs_f64() >= opts.seconds / 3.0
        };
        if done {
            break;
        }
        let pass = t.span("harness.pass", |t| built.workload.pass(t));
        checker.check(&pass);
        if pass.failed == 0 {
            passes.push(pass);
        }
    });
    let Some(last) = passes.last() else {
        built.workload.shutdown();
        return Err("no pass succeeded, nothing to report".to_string());
    };
    for (name, value) in &last.exact {
        out.set(name, *value);
    }
    for (name, _) in &last.gauges {
        let values: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.gauges.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        out.set(name, median(&values));
    }
    let parts: Vec<Vec<f64>> = passes.into_iter().map(|p| p.parts).collect();
    report_passes("untraced-speed passes", &parts);

    checker.attempted += 1;
    checker.failed += t.span("harness.layers", |t| {
        built.workload.layers(&parts, &mut out, t)
    });
    built.workload.shutdown();
    drop(built);
    let budget_s = if opts.smoke { 0.004 } else { 0.2 };
    checker.attempted += 1;
    checker.failed += t.span("harness.probes", |t| {
        layers::measure(budget_s, opts.seed, &dir, &mut out, t)
    })?;

    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace-{name}.json"));
    std::fs::write(&trace_path, t.to_chrome_json(name))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("spans written to {}", trace_path.display());
    println!("self time by layer (span minus its children):");
    for (layer, seconds) in t.layer_self_seconds() {
        println!("  {layer:<10} {seconds:>9.4} s");
    }

    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, *unit, out.get(name)))
        .collect();
    Ok(finish(&checker, &metrics))
}

/// The last line a run printed, parsed.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, String, f64)>,
}

/// Runs `run --workload <workload>` with `opts` in a child process (so
/// peak memory is per workload) and parses its result line. `echo` passes
/// the child's standard output through.
pub fn run_child(opts: &Opts, workload: &str, echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let line = stdout.lines().last().unwrap_or("");
    parse_result_line(line).ok_or_else(|| {
        format!(
            "{workload}: no result line (exit {:?})",
            output.status.code()
        )
    })
}

fn parse_result_line(line: &str) -> Option<RunResult> {
    let doc: Value = serde_json::from_str(line).ok()?;
    let Value::Object(metrics) = doc.get("metrics")? else {
        return None;
    };
    Some(RunResult {
        correct: doc.get("correct")? == &Value::Bool(true),
        attempted: number(doc.get("attempted")?)? as u64,
        failed: number(doc.get("failed")?)? as u64,
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let Some(Value::Str(unit)) = m.get("unit") else {
                    return None;
                };
                Some((name.clone(), unit.clone(), number(m.get("value")?)?))
            })
            .collect::<Option<_>>()?,
    })
}

/// `run` without `--workload`: every workload, each run in its own child;
/// `--trace` adds the traced run after the end-to-end one.
pub fn run_all(opts: &Opts) -> Result<bool, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut all: Vec<(String, String, f64)> = Vec::new();
    let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    for workload in WORKLOADS {
        for &trace in modes {
            let result = run_child(
                &Opts {
                    trace,
                    ..opts.clone()
                },
                workload,
                true,
            )?;
            attempted += result.attempted;
            failed += result.failed + (!result.correct && result.failed == 0) as u64;
            for (name, unit, value) in result.metrics {
                all.push((format!("{workload}.{name}"), unit, value));
            }
            println!();
        }
    }
    let metrics: Vec<(&str, &str, f64)> = all
        .iter()
        .map(|(n, u, v)| (n.as_str(), u.as_str(), *v))
        .collect();
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

/// `pin`: rewrites `golden.json` from one pass of every workload (and of
/// every smoke cut) at the pinned seed.
pub fn pin(dir: &Path) -> Result<(), String> {
    let mut t = Tracer::new(false);
    let mut entries = Vec::new();
    for workload in WORKLOADS {
        for smoke in [false, true] {
            let key = golden::key(workload, smoke);
            if entries.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let mut built = workloads::setup(workload, GOLDEN_SEED, smoke, dir, &mut t)?;
            let pass = built.workload.pass(&mut t);
            built.workload.shutdown();
            if pass.failed > 0 {
                return Err(format!("{key}: the pass failed, nothing pinned"));
            }
            println!(
                "{key}: digest {:#018x}, {} packets",
                pass.digest, pass.packets
            );
            entries.push((key, golden::entry(&pass)));
        }
    }
    golden::write(dir, entries)
}
