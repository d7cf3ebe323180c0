//! `aqs` — command-line front end to the cluster simulator.
//!
//! ```text
//! aqs run   --workload cg --nodes 8 --policy dyn1 [--seed N] [--scale tiny|mini|full]
//! aqs sweep --workload is --nodes 8 [--seed N] [--scale …]    # the paper's 5-config sweep
//! aqs optimistic --workload cg --nodes 4 [--window-us W]      # checkpoint/rollback engine
//! aqs export-spec --workload is --nodes 8 --out spec.json     # dump a workload as JSON
//! aqs run-spec --file spec.json [--policy p] [--seed N]       # run a JSON workload
//! aqs check [--cases N] [--seed S] [--engines …]               # conformance campaign
//! aqs scenario run <file.toml>                                # multi-phase scenario + chaos
//! aqs serve [--addr A] [--journal F] [--workers N]            # resident job server
//! aqs submit --addr A --workload cg … [--wait 1]              # enqueue a job
//! aqs job <status|wait|list|stats|shutdown> [--addr A] [--id N]
//! aqs policies                                                # list built-in policies
//! ```

use aqs::cluster::{
    app_metric, paper_sweep, run_workload, ClusterConfig, EngineKind, Experiment, Sim,
};
use aqs::core::SyncConfig;
use aqs::metrics::render_table;
use aqs::time::HostDuration;
use aqs::workloads::{Scale, Workload, WorkloadSpec};
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         aqs run   --workload <ep|is|cg|mg|lu|ft|namd|pingpong> --nodes <n> --policy <p> \
         [--seed N] [--scale tiny|mini|full]\n  \
         aqs sweep --workload <…> --nodes <n> [--seed N] [--scale …]\n  \
         aqs optimistic --workload <…> --nodes <n> [--window-us W] [--seed N] [--scale …]\n  \
         aqs export-spec --workload <…> --nodes <n> --out <file> [--scale …]\n  \
         aqs run-spec --file <file> [--policy <p>] [--seed N]\n  \
         aqs check {}\n  \
         aqs scenario run <file.toml>\n  \
         aqs serve [--addr <host:port>] [--journal <file>] [--workers N] [--queue-cap N] \
         [--tenant-cap N] [--deadline-ms N] [--max-attempts N] [--chunk-quanta N]\n  \
         aqs submit --addr <host:port> (--workload <…> | --scenario <file.toml>) \
         [--nodes N] [--policy <p>] [--seed N] [--scale …] [--tenant T] [--deadline-ms N] \
         [--wait 1]\n  \
         aqs job <status|wait|list|stats|shutdown> [--addr <host:port>] [--id N]\n  \
         aqs policies\n\n\
         policies: truth | fixed:<µs> | dyn1 | dyn2 | dyn:<min_µs>:<max_µs>:<inc>:<dec> | pred",
        aqs::check::cli::USAGE
    );
    exit(2)
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument: {a}");
            usage();
        };
        let Some(value) = it.next() else {
            eprintln!("flag --{key} needs a value");
            usage();
        };
        flags.insert(key.to_string(), value.clone());
    }
    flags
}

/// A flag value parsed by its type's own grammar; a bad one is a usage error.
fn parsed<T: std::str::FromStr<Err = String>>(text: &str) -> T {
    text.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

fn parse_scale(flags: &HashMap<String, String>) -> Scale {
    flags.get("scale").map_or(Scale::Mini, |name| parsed(name))
}

fn parse_workload(
    flags: &HashMap<String, String>,
    n: usize,
    scale: Scale,
    seed: u64,
) -> WorkloadSpec {
    let Some(name) = flags.get("workload") else {
        eprintln!("--workload is required");
        usage();
    };
    let Some(workload) = Workload::parse(name) else {
        eprintln!("unknown workload: {name}");
        usage();
    };
    workload.with_scale(scale).build(n, seed)
}

fn nodes_and_seed(flags: &HashMap<String, String>) -> (usize, u64) {
    let n: usize = flags
        .get("nodes")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(8);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(42);
    (n, seed)
}

fn cmd_run(flags: HashMap<String, String>) {
    let (n, seed) = nodes_and_seed(&flags);
    let scale = parse_scale(&flags);
    let spec = parse_workload(&flags, n, scale, seed);
    let policy: SyncConfig = parsed(flags.get("policy").map_or("dyn1", String::as_str));
    let base = ClusterConfig::new(SyncConfig::ground_truth()).with_seed(seed);
    let truth = run_workload(&spec, &base);
    let run = run_workload(&spec, &base.clone().with_sync(policy));
    let m = app_metric(&run, spec.metric);
    let m0 = app_metric(&truth, spec.metric);
    println!("{} on {n} nodes, policy {}", spec.name, run.sync_label);
    println!("  simulated time : {}", run.sim_end);
    println!(
        "  host time      : {}  ({:.1}x vs 1µs ground truth)",
        run.host_elapsed,
        run.speedup_vs(&truth)
    );
    println!(
        "  metric         : {m}  (truth {m0}, error {:.2}%)",
        m.error_vs(&m0) * 100.0
    );
    println!(
        "  quanta         : {}   stragglers: {} (total delay {})",
        run.total_quanta,
        run.stragglers.count(),
        run.stragglers.total_delay()
    );
}

fn cmd_sweep(flags: HashMap<String, String>) {
    let (n, seed) = nodes_and_seed(&flags);
    let scale = parse_scale(&flags);
    let spec = parse_workload(&flags, n, scale, seed);
    let base = ClusterConfig::new(SyncConfig::ground_truth()).with_seed(seed);
    let result = Experiment::new(spec, base, paper_sweep()).run();
    println!(
        "{} on {n} nodes — ground truth {} in {}",
        result.name, result.baseline_metric, result.baseline.host_elapsed
    );
    let rows: Vec<Vec<String>> = result
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                format!("{:.1}x", o.speedup),
                format!("{:.2}%", o.accuracy_error * 100.0),
                format!("{}", o.result.stragglers.count()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["config", "speedup", "error", "stragglers"], &rows)
    );
}

fn cmd_optimistic(flags: HashMap<String, String>) {
    let (n, seed) = nodes_and_seed(&flags);
    let scale = parse_scale(&flags);
    let spec = parse_workload(&flags, n, scale, seed);
    let window: u64 = flags
        .get("window-us")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(500);
    if window == 0 {
        eprintln!("--window-us must be positive");
        usage();
    }
    let base = ClusterConfig::new(SyncConfig::ground_truth()).with_seed(seed);
    let truth = run_workload(&spec, &base);
    // The classic window-based optimistic engine: one shard, the window as
    // a fixed quantum, and a cascade bound the run should never reach.
    let fixed = SyncConfig::fixed_micros(window);
    let report = Sim::new(spec.programs.clone())
        .engine(EngineKind::ShardedOptimistic)
        .config(base.clone())
        .sync(fixed.clone())
        .shards(1)
        .cascade_bound(256)
        .run();
    let r = report
        .detail
        .as_sharded_optimistic()
        .expect("optimistic engine ran");
    // The paper's 30 s full-system checkpoint and restore, on top of the
    // modelled cost of executing the workload at this window length.
    let state = HostDuration::from_secs(30);
    let execution = run_workload(&spec, &base.with_sync(fixed)).host_elapsed;
    let host = r.modelled_host_time(state, state, execution);
    println!(
        "{} on {n} nodes, optimistic engine (window {}µs)",
        spec.name, window
    );
    if r.degraded_windows == 0 {
        println!(
            "  simulated time : {} (exact: matches ground truth {})",
            r.sim_end, truth.sim_end
        );
    } else {
        println!(
            "  simulated time : {} (ground truth {}; {} windows hit the cascade bound)",
            r.sim_end, truth.sim_end, r.degraded_windows
        );
    }
    println!("  host time      : {host} with the paper's 30s checkpoints");
    println!(
        "  windows        : {}   checkpoints: {}   rollbacks: {}   wasted sim: {}",
        r.windows, r.checkpoints, r.rollbacks, r.wasted_sim
    );
    println!(
        "  vs ground truth: {:.3}x",
        truth.host_elapsed.as_secs_f64() / host.as_secs_f64()
    );
}

fn cmd_export_spec(flags: HashMap<String, String>) {
    let (n, seed) = nodes_and_seed(&flags);
    let scale = parse_scale(&flags);
    let spec = parse_workload(&flags, n, scale, seed);
    let Some(out) = flags.get("out") else {
        eprintln!("--out <file> is required");
        usage();
    };
    let json = serde_json::to_string_pretty(&spec).expect("spec serializes");
    std::fs::write(out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!(
        "wrote {} ({} ranks, {} ops)",
        out,
        spec.n_ranks(),
        spec.total_ops()
    );
}

fn cmd_run_spec(flags: HashMap<String, String>) {
    let Some(file) = flags.get("file") else {
        eprintln!("--file <file> is required");
        usage();
    };
    let json = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        exit(1);
    });
    let spec: WorkloadSpec = serde_json::from_str(&json).unwrap_or_else(|e| {
        eprintln!("invalid workload spec: {e}");
        exit(1);
    });
    let (_, seed) = nodes_and_seed(&flags);
    let policy: SyncConfig = parsed(flags.get("policy").map_or("dyn1", String::as_str));
    let base = ClusterConfig::new(SyncConfig::ground_truth()).with_seed(seed);
    let truth = run_workload(&spec, &base);
    let run = run_workload(&spec, &base.clone().with_sync(policy));
    let m = app_metric(&run, spec.metric);
    let m0 = app_metric(&truth, spec.metric);
    println!(
        "{} ({} ranks) from {file}, policy {}",
        spec.name,
        spec.n_ranks(),
        run.sync_label
    );
    println!(
        "  host time : {} ({:.1}x vs ground truth)",
        run.host_elapsed,
        run.speedup_vs(&truth)
    );
    println!(
        "  metric    : {m} (truth {m0}, error {:.2}%)",
        m.error_vs(&m0) * 100.0
    );
}

/// `aqs scenario run <file.toml>` — executes a declarative multi-phase
/// scenario (with optional chaos injection) on every engine × worker-count
/// combination it configures, and checks its property assertions. Exits 1
/// with the typed error's file/line context on a bad scenario, 2 on usage.
fn cmd_scenario(rest: &[String]) {
    let (sub, file) = match rest {
        [sub, file] => (sub.as_str(), file.as_str()),
        _ => {
            eprintln!("usage: aqs scenario run <file.toml>");
            exit(2);
        }
    };
    if sub != "run" {
        eprintln!("unknown scenario subcommand `{sub}` (expected `run`)");
        exit(2);
    }
    let report = match aqs::scenario::run_scenario_file(file) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    println!(
        "scenario {} — {} nodes, {} phase(s){}",
        report.name,
        report.nodes,
        report.phases,
        if report.chaos { ", chaos on" } else { "" }
    );
    println!(
        "  outcome : sim_end {}  messages {}  packets {}  stragglers {}",
        report.outcome.sim_end,
        report.outcome.messages_received,
        report.outcome.total_packets,
        report.outcome.straggler_count
    );
    for run in &report.runs {
        println!(
            "  run     : {:<16} quanta {:>8}  wall {:.3}s",
            run.label,
            run.report.total_quanta,
            run.report.wall_clock.as_secs_f64()
        );
    }
    for check in &report.checks {
        println!("  check   : {check}");
    }
    println!("  PASS");
}

/// Default server address shared by `serve`, `submit`, and `job`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7077";

fn flag_u64(flags: &HashMap<String, String>, key: &str) -> Option<u64> {
    flags
        .get(key)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
}

/// `aqs serve` — run the resident job server until a `shutdown` request.
fn cmd_serve(flags: HashMap<String, String>) {
    let mut cfg = aqs::serve::ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string()),
        ..Default::default()
    };
    if let Some(journal) = flags.get("journal") {
        cfg.journal = journal.into();
    }
    if let Some(n) = flag_u64(&flags, "workers") {
        cfg.workers = n as usize;
    }
    if let Some(n) = flag_u64(&flags, "queue-cap") {
        cfg.queue_cap = n as usize;
    }
    if let Some(n) = flag_u64(&flags, "tenant-cap") {
        cfg.tenant_cap = n as usize;
    }
    if let Some(n) = flag_u64(&flags, "deadline-ms") {
        cfg.default_deadline_ms = n;
    }
    if let Some(n) = flag_u64(&flags, "max-attempts") {
        cfg.max_attempts = n as u32;
    }
    if let Some(n) = flag_u64(&flags, "chunk-quanta") {
        cfg.chunk_quanta = n;
    }
    let journal = cfg.journal.clone();
    let server = aqs::serve::Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        exit(1);
    });
    println!(
        "serving on {} (journal {})",
        server.addr(),
        journal.display()
    );
    server.join();
    println!("server stopped");
}

fn serve_request(addr: &str, req: &serde_json::Value) -> serde_json::Value {
    aqs::serve::client::request(addr, req).unwrap_or_else(|e| {
        eprintln!("cannot reach server at {addr}: {e}");
        exit(1);
    })
}

/// Prints a protocol response and exits 1 on a typed rejection.
fn print_response(resp: &serde_json::Value) {
    println!(
        "{}",
        serde_json::to_string(resp).expect("response serializes")
    );
    if aqs::serve::protocol::get_bool(resp, "ok") != Some(true) {
        exit(1);
    }
}

/// `aqs submit` — enqueue one job, optionally waiting for its outcome.
fn cmd_submit(flags: HashMap<String, String>) {
    use serde_json::Value;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string());
    let mut fields = vec![("op", Value::Str("submit".to_string()))];
    for key in ["workload", "policy", "scale", "tenant", "scenario"] {
        if let Some(v) = flags.get(key) {
            fields.push((key, Value::Str(v.clone())));
        }
    }
    for key in ["nodes", "seed", "deadline_ms"] {
        if let Some(n) = flag_u64(&flags, &key.replace('_', "-")) {
            fields.push((key, Value::U64(n)));
        }
    }
    if flags.contains_key("inject-panic") {
        fields.push(("inject_panic", Value::Bool(true)));
    }
    let resp = serve_request(&addr, &aqs::serve::protocol::obj(fields));
    if flags.contains_key("wait") {
        if let Some(id) = aqs::serve::protocol::get_u64(&resp, "job") {
            let resp = serve_request(
                &addr,
                &aqs::serve::protocol::obj(vec![
                    ("op", Value::Str("wait".to_string())),
                    ("job", Value::U64(id)),
                ]),
            );
            print_response(&resp);
            return;
        }
    }
    print_response(&resp);
}

/// `aqs job <status|wait|list|stats|shutdown>` — query or control the
/// server.
fn cmd_job(rest: &[String]) {
    use serde_json::Value;
    let Some((op, rest)) = rest.split_first() else {
        eprintln!("usage: aqs job <status|wait|list|stats|shutdown> [--addr <host:port>] [--id N]");
        exit(2);
    };
    if !["status", "wait", "list", "stats", "shutdown"].contains(&op.as_str()) {
        eprintln!("unknown job subcommand `{op}`");
        exit(2);
    }
    let flags = parse_flags(rest);
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string());
    let mut fields = vec![("op", Value::Str(op.clone()))];
    if let Some(id) = flag_u64(&flags, "id") {
        fields.push(("job", Value::U64(id)));
    }
    let resp = serve_request(&addr, &aqs::serve::protocol::obj(fields));
    print_response(&resp);
}

fn cmd_policies() {
    println!("built-in synchronization policies:");
    println!("  truth                          fixed 1µs quantum (safe bound, ground truth)");
    println!("  fixed:<µs>                     fixed quantum, e.g. fixed:100");
    println!("  dyn1                           paper Algorithm 1, 1-1000µs, +3%/x0.02");
    println!("  dyn2                           paper Algorithm 1, 1-1000µs, +5%/x0.02");
    println!("  dyn:<min>:<max>:<inc>:<dec>    custom Algorithm 1, e.g. dyn:1:100:1.03:0.02");
    println!("  pred                           gap-predicting lookahead estimation (extension)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    // `check` has its own flag grammar (boolean flags); dispatch before the
    // key-value parser.
    // `scenario` takes a positional file, not key-value flags.
    if cmd == "scenario" {
        cmd_scenario(rest);
        return;
    }
    // `job` takes a positional subcommand before its flags.
    if cmd == "job" {
        cmd_job(rest);
        return;
    }
    if cmd == "check" {
        match aqs::check::cli::run(rest) {
            Ok(code) => exit(code),
            Err(msg) => {
                eprintln!("{msg}");
                usage();
            }
        }
    }
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "run" => cmd_run(flags),
        "sweep" => cmd_sweep(flags),
        "optimistic" => cmd_optimistic(flags),
        "export-spec" => cmd_export_spec(flags),
        "run-spec" => cmd_run_spec(flags),
        "serve" => cmd_serve(flags),
        "submit" => cmd_submit(flags),
        "policies" => cmd_policies(),
        _ => usage(),
    }
}
