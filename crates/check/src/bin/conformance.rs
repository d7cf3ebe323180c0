//! `conformance` — run a differential conformance campaign from the shell.
//!
//! ```text
//! conformance [--cases N] [--seed S] [--engines all|det|det,sharded|sharded-optimistic,hybrid]
//!             [--time-budget SECS] [--log FILE] [--artifacts DIR]
//!             [--no-shrink]
//! ```
//!
//! Exit status: 0 when every case passed and the campaign completed, 1 on
//! any failure or when the time budget cut the campaign short, 2 on usage
//! errors. `--log` writes the JSONL run log (one object per case plus a
//! summary line); `--artifacts` writes, per failure, the minimized
//! `.case.json`, a ready-to-paste `.rs` regression test, and the flight
//! recorder's per-quantum telemetry as `.obs.jsonl`.
//!
//! The same campaign is reachable as `aqs check …`.

use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match aqs_check::cli::run(&args) {
        Ok(code) => exit(code),
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage:\n  conformance {}", aqs_check::cli::USAGE);
            exit(2)
        }
    }
}
