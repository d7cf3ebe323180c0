//! Runs the complete reproduction suite in sequence — every figure and
//! table of the paper plus this repository's ablations — by spawning the
//! sibling binaries. Output is the concatenation of all their reports.
//!
//! Usage: `repro_all [tiny | mini | full]` (tiny = smoke scale everywhere).

use std::process::Command;

fn main() {
    let scale_arg = std::env::args().nth(1);
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    let bins = [
        (
            "fig6_nas",
            "Figure 6 — NAS accuracy & speedup (2/4/8 nodes)",
        ),
        (
            "fig7_namd",
            "Figure 7 — NAMD accuracy & speedup (2/4/8 nodes)",
        ),
        (
            "fig8_pareto",
            "Figure 8 — Pareto optimality curve (8 nodes)",
        ),
        ("fig9_scaleout", "Figure 9 + §6 tables — 64-node EP/IS/NAMD"),
        ("sync_overhead", "Figure 5 — synchronization overhead"),
        (
            "ablation_params",
            "Ablation — inc/dec factors & extension policies",
        ),
        (
            "ablation_optimistic",
            "Ablation — optimistic PDES cost model",
        ),
        ("ablation_barrier", "Ablation — barrier cost sensitivity"),
        (
            "ext_future_work",
            "Extensions — §7 future work (sampling, lookahead)",
        ),
        ("ext_congestion", "Extensions — non-perfect switch fabrics"),
    ];
    for (bin, title) in bins {
        println!("\n{}", "=".repeat(78));
        println!("== {title}");
        println!("{}\n", "=".repeat(78));
        let mut cmd = Command::new(dir.join(bin));
        if let Some(scale) = &scale_arg {
            // sync_overhead takes no scale argument.
            if bin != "sync_overhead" {
                cmd.arg(scale);
            }
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed with {status}");
    }
    println!("\nreproduction suite complete.");
}
