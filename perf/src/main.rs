//! The aqs benchmark. See `README.md` beside this crate.
//!
//! ```text
//! aqs-perf run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! aqs-perf stability [--sets 2] [--runs 5] [--seed N] [--seconds S]
//! aqs-perf pin
//! ```

mod golden;
mod layers;
mod metrics;
mod run;
mod stability;
mod trace;
mod workloads;

use run::Opts;
use std::process::ExitCode;

const USAGE: &str = "usage:
  aqs-perf run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  aqs-perf stability [--sets N] [--runs N] [--seed N] [--seconds S]
  aqs-perf pin
workloads: burst_1k incast_256k rollback_mixed paper_sweep serve_jobs";

struct Args {
    command: String,
    opts: Opts,
    sets: usize,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        command: args.first().cloned().ok_or("missing subcommand")?,
        opts: Opts {
            workload: None,
            seed: golden::GOLDEN_SEED,
            seconds: 15.0,
            trace: false,
            smoke: false,
        },
        sets: 2,
        runs: 5,
    };
    let mut i = 1;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("`{}` needs a value", args[*i - 1]))
    };
    fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("`{flag}`: `{s}` is not a number"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(&mut i)?;
                if !metrics::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                out.opts.workload = Some(w.clone());
            }
            "--seed" => out.opts.seed = number("--seed", value(&mut i)?)?,
            "--seconds" => {
                out.opts.seconds = number("--seconds", value(&mut i)?)?;
                if !(out.opts.seconds > 0.0 && out.opts.seconds <= 600.0) {
                    return Err("`--seconds` must be in (0, 600]".to_string());
                }
            }
            "--sets" => out.sets = number("--sets", value(&mut i)?)?,
            "--runs" => out.runs = number("--runs", value(&mut i)?)?,
            "--smoke" => out.opts.smoke = true,
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    out.opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    out.opts.trace = true;
                    i += 1;
                }
                _ => out.opts.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if out.sets < 2 || out.runs < 1 {
        return Err("`stability` needs at least 2 sets and 1 run".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "run" => match &args.opts.workload {
            Some(workload) => run::run_workload(&args.opts, workload),
            None => run::run_all(&args.opts),
        },
        "stability" => stability::stability(args.sets, args.runs, &args.opts),
        "pin" => run::pin(&run::perf_dir()).map(|()| true),
        other => {
            eprintln!("error: unknown subcommand `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
