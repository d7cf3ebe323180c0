//! Command-line front end of the `aqs check` subcommand. `--log` writes the
//! JSONL run log (one object per case plus a summary line); `--artifacts`
//! writes, per failure, the minimized `.case.json`, a ready-to-paste `.rs`
//! regression test, and the flight recorder's per-quantum telemetry as
//! `.obs.jsonl`.

use crate::oracle::policy_run_jsonl;
use crate::runner::{run_conformance, ConformanceOpts};
use aqs_cluster::EngineKind;

/// Flag summary for usage messages.
pub const USAGE: &str = "[--cases N] [--seed S] \
     [--engines all|det|det,sharded|sharded-optimistic,hybrid] \
     [--time-budget SECS] [--log FILE] [--artifacts DIR] [--no-shrink]";

/// Parses `args`, runs the campaign, writes any requested artifacts, and
/// returns the process exit code (0 pass, 1 fail/out-of-time). `Err` is a
/// usage problem — the caller prints it and its own usage text.
pub fn run(args: &[String]) -> Result<i32, String> {
    let (opts, log_path, artifact_dir) = parse(args)?;
    let report = run_conformance(&opts);
    if let Some(path) = &log_path {
        std::fs::write(path, &report.log).map_err(|e| format!("cannot write log {path}: {e}"))?;
    }
    for f in &report.failures {
        let stem = format!("failure-{:x}-{}", f.original.seed, f.original.index);
        eprintln!(
            "FAIL case {:#x}/{}: {}",
            f.original.seed, f.original.index, f.reason
        );
        if let Some(s) = &f.shrunk {
            eprintln!(
                "  minimized in {} steps ({} attempts): {}",
                s.steps, s.attempts, s.reason
            );
        }
        if let Some(dir) = &artifact_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            let case_path = format!("{dir}/{stem}.case.json");
            std::fs::write(&case_path, f.case_json())
                .map_err(|e| format!("cannot write {case_path}: {e}"))?;
            let test_path = format!("{dir}/{stem}.rs");
            std::fs::write(&test_path, f.regression_snippet())
                .map_err(|e| format!("cannot write {test_path}: {e}"))?;
            // Per-quantum telemetry of the minimized failure, for eyeballing
            // which quantum went wrong (aqs-obs JSONL schema).
            if let Some(obs) = policy_run_jsonl(f.minimal()) {
                let obs_path = format!("{dir}/{stem}.obs.jsonl");
                std::fs::write(&obs_path, obs)
                    .map_err(|e| format!("cannot write {obs_path}: {e}"))?;
            }
            eprintln!("  artifacts: {case_path}");
        } else {
            eprintln!("  replay: {}", f.case_json().replace('\n', " "));
        }
    }
    println!(
        "conformance: {} cases, {} failures{}",
        report.cases_run,
        report.failures.len(),
        if report.out_of_time {
            " (stopped early: time budget)"
        } else {
            ""
        }
    );
    Ok(if report.passed() { 0 } else { 1 })
}

type Parsed = (ConformanceOpts, Option<String>, Option<String>);

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut opts = ConformanceOpts::default();
    let mut log_path = None;
    let mut artifact_dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-shrink" => opts.shrink_failures = false,
            flag => {
                let key = flag
                    .strip_prefix("--")
                    .ok_or_else(|| format!("unexpected argument: {flag}"))?;
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                match key {
                    "cases" => {
                        opts.cases = value.parse().map_err(|_| format!("bad --cases: {value}"))?
                    }
                    "seed" => opts.seed = parse_seed(value)?,
                    "engines" => apply_engines(&mut opts, value)?,
                    "time-budget" => {
                        let secs: u64 = value
                            .parse()
                            .map_err(|_| format!("bad --time-budget: {value}"))?;
                        opts.time_budget = Some(std::time::Duration::from_secs(secs));
                    }
                    "log" => log_path = Some(value.clone()),
                    "artifacts" => artifact_dir = Some(value.clone()),
                    _ => return Err(format!("unknown flag --{key}")),
                }
            }
        }
    }
    Ok((opts, log_path, artifact_dir))
}

/// Seeds accept decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad --seed: {s}"))
}

/// `--engines` narrows the differential vote: a comma-separated list of
/// engine names (the grammar is [`EngineKind`]'s) or `all`. The
/// deterministic engine always runs (it anchors the ground truth); `sharded`,
/// `sharded-optimistic`, and `hybrid` are opt-outable.
fn apply_engines(opts: &mut ConformanceOpts, spec: &str) -> Result<(), String> {
    let check = &mut opts.check;
    (check.sharded, check.sharded_optimistic, check.hybrid) = (false, false, false);
    for part in spec.split(',') {
        if part == "all" {
            (check.sharded, check.sharded_optimistic, check.hybrid) = (true, true, true);
            continue;
        }
        match part.parse()? {
            EngineKind::Deterministic => {}
            EngineKind::Sharded => check.sharded = true,
            EngineKind::ShardedOptimistic => check.sharded_optimistic = true,
            EngineKind::Hybrid => check.hybrid = true,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_documented_flags() {
        let (opts, log, dir) = parse(&argv(
            "--cases 7 --seed 0xA5 --engines det,hybrid --time-budget 30 \
             --log run.jsonl --artifacts out --no-shrink",
        ))
        .expect("parses");
        assert_eq!(opts.cases, 7);
        assert_eq!(opts.seed, 0xA5);
        assert!(opts.check.hybrid);
        assert!(!opts.check.sharded_optimistic);
        assert!(!opts.check.sharded);
        assert_eq!(opts.time_budget, Some(std::time::Duration::from_secs(30)));
        assert!(!opts.shrink_failures);
        assert_eq!(log.as_deref(), Some("run.jsonl"));
        assert_eq!(dir.as_deref(), Some("out"));
    }

    #[test]
    fn rejects_unknown_flags_and_engines() {
        assert!(parse(&argv("--bogus 1")).is_err());
        assert!(parse(&argv("--engines warp")).is_err());
        assert!(parse(&argv("--seed zz")).is_err());
        assert!(parse(&argv("--cases")).is_err());
    }

    #[test]
    fn retired_engine_names_point_at_their_replacement() {
        let err = parse(&argv("--engines det,threaded")).unwrap_err();
        assert!(
            err.contains("retired") && err.contains("`sharded`"),
            "{err}"
        );
        let err = parse(&argv("--engines optimistic")).unwrap_err();
        assert!(
            err.contains("retired") && err.contains("`sharded-optimistic`"),
            "{err}"
        );
    }

    #[test]
    fn sharded_is_selectable_and_part_of_all() {
        let (opts, ..) = parse(&argv("--engines det,sharded")).expect("parses");
        assert!(opts.check.sharded);
        assert!(!opts.check.sharded_optimistic && !opts.check.hybrid);
        let (opts, ..) = parse(&argv("--engines all")).expect("parses");
        assert!(opts.check.sharded);
    }

    #[test]
    fn rollback_engines_are_selectable_and_part_of_all() {
        let (opts, ..) = parse(&argv("--engines sharded-optimistic,hybrid")).expect("parses");
        assert!(opts.check.sharded_optimistic && opts.check.hybrid);
        assert!(!opts.check.sharded);
        let (opts, ..) = parse(&argv("--engines all")).expect("parses");
        assert!(opts.check.sharded_optimistic && opts.check.hybrid);
    }

    #[test]
    fn decimal_and_hex_seeds_agree() {
        assert_eq!(parse_seed("165").unwrap(), 0xA5);
        assert_eq!(parse_seed("0xA5").unwrap(), 0xA5);
        assert_eq!(parse_seed("0Xa5").unwrap(), 0xA5);
    }
}
