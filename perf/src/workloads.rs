//! The five workloads. Each is built from the run's seed alone, does the
//! same deterministic work every pass, and reaches the simulator only
//! through public functions.
//!
//! Why these five (the README has the long form):
//!
//! * `burst_1k` keeps every node active every quantum, so node execution,
//!   the `aqs-sync` mailboxes and the barrier do the work and the wake
//!   wheel and the fabric do none.
//! * `incast_256k` is the same kernel used the opposite way: about 1 % of
//!   256k nodes active, so the wake wheel, the SoA scan, fabric routing,
//!   construction and memory dominate.
//! * `rollback_mixed` is the only one where checkpoint, rollback and GVT
//!   run at all, and `host_work_per_op = 1` makes it compute-bound.
//! * `paper_sweep` is the figure 6-9 path on the deterministic oracle:
//!   single-threaded, none of `aqs-sync`.
//! * `serve_jobs` is the user path TOML -> scenario runner -> server ->
//!   journal -> report, mixing journal writes with blocking reads.

use crate::metrics::{steady, steady_pass, Layers};
use crate::trace::Tracer;
use aqs_cluster::{
    paper_sweep, ClusterConfig, EngineKind, Experiment, ExperimentResult, HybridPolicy, RunReport,
    Sim, SimSwitch, SimulatedOutcome,
};
use aqs_core::SyncConfig;
use aqs_net::FabricConfig;
use aqs_node::Program;
use aqs_obs::ObsConfig;
use aqs_serve::{client, protocol, ServeConfig, Server};
use aqs_workloads::{nas, MpiBuilder, Scale, Workload as Generator};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads of every engine pass: fixed, so numbers from different
/// hosts with at least two cores are comparable.
pub const WORKERS: usize = 2;
/// Deadlock guard only; a pass that reaches it is an error, never a way to
/// stop early.
const MAX_QUANTA: u64 = 50_000_000;

/// What one pass did.
pub struct Pass {
    /// Host seconds of each timed piece (an engine run, an experiment, a
    /// round), in the same order every pass; inputs were cloned before the
    /// clock started. The pass took their sum.
    pub parts: Vec<f64>,
    /// Simulated packets delivered.
    pub packets: u64,
    /// Operations attempted: engine runs, or jobs.
    pub ops: u64,
    /// Operations that failed or whose outcome was wrong.
    pub failed: u64,
    /// Digest of the simulated outcome; identical for every pass of a run.
    pub digest: u64,
    /// Deterministic counters, pinned in `golden.json` for seed 42.
    pub exact: Vec<(&'static str, f64)>,
    /// Counters that depend on thread timing (reported, never pinned).
    pub gauges: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Size of the generated inputs: program ops, or job requests.
    fn ops_built(&self) -> u64;

    /// Runs one pass of identical work.
    fn pass(&mut self, t: &mut Tracer) -> Pass;

    /// The workload-specific part of a traced run: a recorded pass, the
    /// M = 1 pass, the construction probe. `passes` are the piece times of
    /// the untraced-speed passes just run. Returns operations that failed
    /// a check.
    fn layers(&mut self, passes: &[Vec<f64>], out: &mut Layers, t: &mut Tracer) -> u64;

    /// Stops whatever set-up started (the job server).
    fn shutdown(&mut self) {}
}

/// Size of the inputs [`setup`] generated, for `workloads.*`.
pub struct Built {
    pub workload: Box<dyn Workload>,
    pub build_s: f64,
    pub ops_built: u64,
}

/// One set-up: inputs from `seed`, engines or server started. `smoke`
/// cuts `incast_256k` to 16 waves and `paper_sweep` to two node counts.
pub fn setup(
    name: &str,
    seed: u64,
    smoke: bool,
    perf_dir: &Path,
    t: &mut Tracer,
) -> Result<Built, String> {
    let started = Instant::now();
    let workload: Box<dyn Workload> = t.span("workloads.build", |_| {
        Ok::<Box<dyn Workload>, String>(match name {
            "burst_1k" => Box::new(Sharded::burst_1k(seed)),
            "incast_256k" => Box::new(Sharded::incast_256k(seed, smoke)),
            "rollback_mixed" => Box::new(RollbackMixed::new(seed)),
            "paper_sweep" => Box::new(PaperSweep::new(seed, smoke)),
            "serve_jobs" => Box::new(ServeJobs::new(seed, perf_dir)?),
            other => return Err(format!("unknown workload `{other}`")),
        })
    })?;
    Ok(Built {
        build_s: started.elapsed().as_secs_f64(),
        ops_built: workload.ops_built(),
        workload,
    })
}

fn count_ops(programs: &[Program]) -> u64 {
    programs.iter().map(|p| p.len() as u64).sum()
}

// ---------------------------------------------------------------------------
// Outcome digests
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn outcome(&mut self, o: &SimulatedOutcome) {
        self.word(o.sim_end.as_nanos());
        self.word(o.total_packets);
        self.word(o.messages_received);
        self.word(o.straggler_count);
        for (rank, finish, ops, msgs) in &o.per_node {
            self.word(*rank as u64);
            self.word(finish.as_nanos());
            self.word(*ops);
            self.word(*msgs);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn outcome_digest(report: &RunReport) -> u64 {
    let mut d = Digest::new();
    d.outcome(&report.simulated_outcome());
    d.finish()
}

// ---------------------------------------------------------------------------
// burst_1k and incast_256k: the sharded kernel, dense and sparse
// ---------------------------------------------------------------------------

struct Sharded {
    programs: Vec<Program>,
    /// Same node count and switch, one round or wave: what is left is
    /// construction, thread start and teardown.
    probe: Vec<Program>,
    /// The recorder does work proportional to the node count every quantum
    /// (about 18 ms per quantum at 256k nodes, 24 s for a 16-wave pass), so
    /// there the recorded and the matching unrecorded pass run the probe.
    record_probe: bool,
    switch: SimSwitch,
    sync: SyncConfig,
    seed: u64,
    /// The latest pass's report, for the traced run's comparisons.
    last: Option<RunReport>,
}

impl Sharded {
    fn burst_1k(seed: u64) -> Self {
        let n = 1024;
        let programs = Generator::Burst {
            compute: 200_000,
            bytes: 1024,
        }
        .build(n, seed)
        .programs;
        let mut probe = MpiBuilder::new(n);
        probe.neighbor_exchange(&[1], 1024);
        Self {
            programs,
            probe: probe.build(),
            record_probe: false,
            switch: SimSwitch::Perfect,
            sync: SyncConfig::paper_dyn2(),
            seed,
            last: None,
        }
    }

    fn incast_256k(seed: u64, smoke: bool) -> Self {
        let n = 262_144;
        let incast =
            |waves| aqs_workloads::rpc_incast(n, 24, waves, 64, 2_048, 16_384, 50_000, seed);
        Self {
            programs: incast(if smoke { 16 } else { 192 }).programs,
            probe: incast(1).programs,
            record_probe: true,
            switch: SimSwitch::Fabric(FabricConfig::fat_tree()),
            sync: SyncConfig::fixed_micros(5),
            seed,
            last: None,
        }
    }

    fn sim(&self, programs: Vec<Program>, workers: usize) -> Sim {
        Sim::new(programs)
            .engine(EngineKind::Sharded)
            .shards(workers)
            .switch(self.switch.clone())
            .sync(self.sync.clone())
            .seed(self.seed)
            .max_quanta(MAX_QUANTA)
    }
}

/// Runs `sim` inside a span and returns `(wall seconds, report)`.
fn timed_run(sim: Sim, span: &str, t: &mut Tracer) -> Result<(f64, RunReport), String> {
    t.span(span, |_| {
        let started = Instant::now();
        let report = sim.try_run().map_err(|e| e.to_string())?;
        Ok((started.elapsed().as_secs_f64(), report))
    })
}

/// Runs `sim` unrecorded and then recorded, back to back so both see the
/// same stretch of host noise. Returns `(unrecorded wall, recorded wall,
/// recorded report)`; recording that changes the outcome is an error.
fn recorded_pair(
    sim: Sim,
    obs: ObsConfig,
    t: &mut Tracer,
) -> Result<(f64, f64, RunReport), String> {
    let (plain_wall, plain) = timed_run(sim.clone(), "cluster.unrecorded_run", t)?;
    let (recorded_wall, recorded) = timed_run(sim.record(obs), "obs.recorded_run", t)?;
    if plain.simulated_outcome() != recorded.simulated_outcome() {
        return Err("recording changed the simulated outcome".to_string());
    }
    Ok((plain_wall, recorded_wall, recorded))
}

impl Workload for Sharded {
    fn ops_built(&self) -> u64 {
        count_ops(&self.programs)
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let sim = self.sim(self.programs.clone(), WORKERS);
        let n = self.programs.len() as f64;
        match timed_run(sim, "cluster.sharded_run", t) {
            Ok((wall_s, report)) => {
                let r = report.detail.as_sharded().expect("the sharded engine ran");
                let pass = Pass {
                    parts: vec![wall_s],
                    packets: report.total_packets,
                    ops: 1,
                    failed: 0,
                    digest: outcome_digest(&report),
                    exact: vec![
                        ("cluster.quanta", r.total_quanta as f64),
                        ("cluster.nodes_executed", r.nodes_executed as f64),
                        ("cluster.stragglers", r.stragglers.count() as f64),
                        (
                            "cluster.active_ratio",
                            r.nodes_executed as f64 / (n * r.total_quanta as f64),
                        ),
                    ],
                    gauges: vec![("cluster.pool_heap_allocs", r.pool_heap_allocs as f64)],
                };
                self.last = Some(report);
                pass
            }
            Err(e) => failed_pass(1, &e),
        }
    }

    fn layers(&mut self, passes: &[Vec<f64>], out: &mut Layers, t: &mut Tracer) -> u64 {
        let mut failed = 0;
        let n = self.programs.len() as f64;
        let wall_s = steady_pass(passes);

        // M = 1: the same pass on one worker must simulate the same thing.
        let two = self
            .last
            .take()
            .expect("a traced run passes before it probes");
        let mut m1 = Vec::new();
        for _ in 0..2 {
            let sim = self.sim(self.programs.clone(), 1);
            match timed_run(sim, "cluster.sharded_run_m1", t) {
                Ok((wall, one)) => {
                    m1.push(wall);
                    if one.simulated_outcome() != two.simulated_outcome() {
                        eprintln!("FAILED: M = 1 and M = {WORKERS} simulate different outcomes");
                        failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("FAILED: M = 1 pass: {e}");
                    failed += 1;
                }
            }
        }
        if !m1.is_empty() {
            let m1_wall = steady(&m1);
            out.set("cluster.m1_wall_s", m1_wall);
            out.set(
                "cluster.scaling_eff_m2",
                m1_wall / (WORKERS as f64 * wall_s),
            );
        }
        let r = two.detail.as_sharded().expect("the sharded engine ran");
        out.set(
            "cluster.ns_per_packet",
            wall_s * 1e9 / two.total_packets as f64,
        );
        out.set(
            "cluster.ns_per_node_exec",
            wall_s * 1e9 / r.nodes_executed as f64,
        );
        out.set("cluster.quantum_us", wall_s * 1e6 / r.total_quanta as f64);
        drop(two);

        // Construction probe.
        let mut construct = Vec::new();
        for _ in 0..3 {
            match timed_run(
                self.sim(self.probe.clone(), WORKERS),
                "cluster.construct",
                t,
            ) {
                Ok((wall, _)) => construct.push(wall),
                Err(e) => {
                    eprintln!("FAILED: construction probe: {e}");
                    failed += 1;
                }
            }
        }
        if !construct.is_empty() {
            out.set("cluster.construct_s", steady(&construct));
        }

        // Recorded against unrecorded, same program.
        let programs = if self.record_probe {
            &self.probe
        } else {
            &self.programs
        };
        // The ring holds two lanes per node per slot; keep it near 32 MiB.
        let ring = ((1usize << 21) / programs.len()).clamp(4, 4096);
        let mut plain = Vec::new();
        let mut recorded = Vec::new();
        let mut last = None;
        for _ in 0..2 {
            let obs = ObsConfig::new().with_ring_capacity(ring);
            match recorded_pair(self.sim(programs.clone(), WORKERS), obs, t) {
                Ok((plain_wall, recorded_wall, report)) => {
                    plain.push(plain_wall);
                    recorded.push(recorded_wall);
                    last = Some((recorded_wall, report));
                }
                Err(e) => {
                    eprintln!("FAILED: recorded pass: {e}");
                    failed += 1;
                }
            }
        }
        if let Some((rec_wall, report)) = last {
            out.set(
                "obs.record_overhead_pct",
                (steady(&recorded) / steady(&plain) - 1.0) * 100.0,
            );
            let fr = report.obs.as_ref().expect("the pass was recorded");
            // Every node carries its worker's wait, so the histogram's sum
            // is (nodes per worker) x the workers' waits.
            out.set(
                "sync.barrier_wait_share",
                fr.barrier_wait_hist().sum() as f64 / (n * rec_wall * 1e9),
            );
            out.set("sync.vt_lag_p99_us", hist_p99(fr.vt_lag_hist()) / 1e3);
            if let Some(load) = fr.link_load() {
                let mean = load.total_bytes() as f64 / load.bytes.len() as f64;
                let hot = load.hottest().map_or(0, |(_, b)| b) as f64;
                out.set("net.link_hot_over_mean", hot / mean.max(1.0));
            }
        }
        failed
    }
}

/// Upper edge of the bucket holding the 99th percentile.
fn hist_p99(h: &aqs_obs::Log2Histogram) -> f64 {
    let target = (h.count() as f64 * 0.99).ceil() as u64;
    let mut seen = 0;
    for (i, &c) in h.buckets().iter().enumerate() {
        seen += c;
        if seen >= target && c > 0 {
            return aqs_obs::Log2Histogram::bucket_bounds(i).1.min(h.max()) as f64;
        }
    }
    0.0
}

fn failed_pass(ops: u64, why: &str) -> Pass {
    eprintln!("FAILED: {why}");
    Pass {
        parts: Vec::new(),
        packets: 0,
        ops,
        failed: ops,
        digest: 0,
        exact: Vec::new(),
        gauges: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// rollback_mixed: sharded-optimistic + hybrid on a mixed-straggler program
// ---------------------------------------------------------------------------

struct RollbackMixed {
    programs: Vec<Program>,
    seed: u64,
}

impl RollbackMixed {
    /// The `shard_scaling` mixed-straggler program at 64 nodes with the
    /// chatty half exactly shard 0 at M = 2: ranks 0..32 ping-pong in pairs
    /// with small compute between rounds (several hops fit in one 200 us
    /// window, so the optimistic fixed point keeps finding in-window
    /// arrivals); ranks 32..64 run long compute with one sparse ring
    /// exchange per round.
    fn new(seed: u64) -> Self {
        let n = 64;
        let chatty = n / 2;
        let mut b = MpiBuilder::new(n);
        for _ in 0..250 {
            for r in 0..chatty {
                b.compute(r, 20_000);
            }
            for pair in (0..chatty).step_by(2) {
                b.p2p(pair, pair + 1, 512);
                b.p2p(pair + 1, pair, 512);
            }
        }
        for _ in 0..40 {
            for r in chatty..n {
                b.compute(r, 150_000);
            }
            for r in chatty..n {
                let next = if r + 1 == n { chatty } else { r + 1 };
                b.p2p(r, next, 4096);
            }
        }
        Self {
            programs: b.build(),
            seed,
        }
    }

    fn sim(&self, hybrid: bool) -> Sim {
        let sim = Sim::new(self.programs.clone())
            .engine(if hybrid {
                EngineKind::Hybrid
            } else {
                EngineKind::ShardedOptimistic
            })
            .shards(WORKERS)
            .sync(SyncConfig::fixed_micros(200))
            .host_work_per_op(1.0)
            .seed(self.seed)
            .max_quanta(MAX_QUANTA);
        if hybrid {
            sim.hybrid_policy(HybridPolicy {
                degrade_after: 1,
                recover_after: 4,
            })
        } else {
            sim
        }
    }
}

impl Workload for RollbackMixed {
    fn ops_built(&self) -> u64 {
        count_ops(&self.programs)
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let sims = [self.sim(false), self.sim(true)];
        let mut reports = Vec::new();
        for (sim, span) in sims
            .into_iter()
            .zip(["cluster.optimistic_run", "cluster.hybrid_run"])
        {
            match timed_run(sim, span, t) {
                Ok(r) => reports.push(r),
                Err(e) => return failed_pass(2, &e),
            }
        }
        let (opt_wall, opt) = &reports[0];
        let (hybrid_wall, hybrid) = &reports[1];
        let o = opt
            .detail
            .as_sharded_optimistic()
            .expect("the optimistic engine ran");
        let h = hybrid
            .detail
            .as_sharded_optimistic()
            .expect("the hybrid engine ran");
        let mut d = Digest::new();
        d.outcome(&opt.simulated_outcome());
        d.outcome(&hybrid.simulated_outcome());
        Pass {
            parts: vec![*opt_wall, *hybrid_wall],
            packets: opt.total_packets + hybrid.total_packets,
            ops: 2,
            failed: 0,
            digest: d.finish(),
            // Confirmed over repeated runs at M = 2: every one of these
            // repeats exactly (the leader's fixed point is centralized).
            exact: vec![
                ("cluster.opt.windows", o.windows as f64),
                ("cluster.opt.checkpoints", o.checkpoints as f64),
                ("cluster.opt.rollbacks", o.rollbacks as f64),
                (
                    "cluster.opt.reexec_ratio",
                    o.rollbacks as f64 / o.windows as f64,
                ),
                (
                    "cluster.opt.wasted_sim_ms",
                    o.wasted_sim.as_nanos() as f64 / 1e6,
                ),
                ("cluster.opt.max_depth", o.max_rollback_depth as f64),
                ("cluster.hybrid.rollbacks", h.rollbacks as f64),
                ("cluster.hybrid.degraded_windows", h.degraded_windows as f64),
                (
                    "cluster.hybrid.conservative_windows",
                    h.conservative_windows as f64,
                ),
            ],
            gauges: Vec::new(),
        }
    }

    fn layers(&mut self, passes: &[Vec<f64>], out: &mut Layers, t: &mut Tracer) -> u64 {
        let mut failed = 0;
        let piece = |i: usize| steady(&passes.iter().map(|p| p[i]).collect::<Vec<_>>());
        out.set("cluster.opt.wall_s", piece(0));
        out.set("cluster.hybrid.wall_s", piece(1));
        let mut plain = Vec::new();
        let mut recorded = Vec::new();
        for _ in 0..2 {
            for hybrid in [false, true] {
                match recorded_pair(self.sim(hybrid), ObsConfig::default(), t) {
                    Ok((plain_wall, recorded_wall, _)) => {
                        plain.push(plain_wall);
                        recorded.push(recorded_wall);
                    }
                    Err(e) => {
                        eprintln!("FAILED: recorded pass: {e}");
                        failed += 1;
                    }
                }
            }
        }
        if !plain.is_empty() {
            let sum = |xs: &[f64]| xs.iter().sum::<f64>();
            out.set(
                "obs.record_overhead_pct",
                (sum(&recorded) / sum(&plain) - 1.0) * 100.0,
            );
        }
        failed
    }
}

// ---------------------------------------------------------------------------
// paper_sweep: the deterministic oracle over the NAS set
// ---------------------------------------------------------------------------

struct PaperSweep {
    experiments: Vec<Experiment>,
    last: Vec<ExperimentResult>,
}

impl PaperSweep {
    fn new(seed: u64, smoke: bool) -> Self {
        let base = ClusterConfig::new(SyncConfig::ground_truth()).with_seed(seed);
        let sizes: &[usize] = if smoke { &[2, 8] } else { &[2, 4, 8] };
        let experiments = sizes
            .iter()
            .flat_map(|&n| nas::all(n, Scale::Mini))
            .map(|spec| Experiment::new(spec, base.clone(), paper_sweep()))
            .collect();
        Self {
            experiments,
            last: Vec::new(),
        }
    }

    /// The paper's two axes for one adaptive configuration over the 8-node
    /// NAS set, on the modelled clock: mean accuracy error in percent, and
    /// total ground-truth host time over total host time.
    fn paper_axes(&self, label_prefix: &str) -> (f64, f64) {
        let mut errs = Vec::new();
        let (mut base_ns, mut cfg_ns) = (0u64, 0u64);
        for r in self.last.iter().filter(|r| r.n_nodes == 8) {
            for o in r
                .outcomes
                .iter()
                .filter(|o| o.label.starts_with(label_prefix))
            {
                errs.push(o.accuracy_error * 100.0);
                base_ns += r.baseline.host_elapsed.as_nanos();
                cfg_ns += o.result.host_elapsed.as_nanos();
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        (mean, base_ns as f64 / cfg_ns.max(1) as f64)
    }
}

impl Workload for PaperSweep {
    fn ops_built(&self) -> u64 {
        self.experiments
            .iter()
            .map(|e| count_ops(&e.workload.programs))
            .sum()
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let mut parts = Vec::with_capacity(self.experiments.len());
        let results: Vec<ExperimentResult> = t.span("cluster.experiments", |_| {
            self.experiments
                .iter()
                .map(|experiment| {
                    let started = Instant::now();
                    let result = experiment.run();
                    parts.push(started.elapsed().as_secs_f64());
                    result
                })
                .collect()
        });
        let mut d = Digest::new();
        let (mut packets, mut quanta, mut runs) = (0, 0, 0);
        for r in &results {
            for run in std::iter::once(&r.baseline).chain(r.outcomes.iter().map(|o| &o.result)) {
                d.word(run.sim_end.as_nanos());
                d.word(run.host_elapsed.as_nanos());
                d.word(run.total_packets);
                d.word(run.total_quanta);
                d.word(run.stragglers.count());
                packets += run.total_packets;
                quanta += run.total_quanta;
                runs += 1;
            }
            for o in &r.outcomes {
                d.word(o.accuracy_error.to_bits());
                d.word(o.speedup.to_bits());
            }
        }
        self.last = results;
        let (err1, speed1) = self.paper_axes("dyn 1.03");
        let (err2, speed2) = self.paper_axes("dyn 1.05");
        Pass {
            parts,
            packets,
            ops: runs,
            failed: 0,
            digest: d.finish(),
            exact: vec![
                ("cluster.det.quanta", quanta as f64),
                ("core.accuracy_err_pct.dyn1", err1),
                ("core.accuracy_err_pct.dyn2", err2),
                ("core.modelled_speedup.dyn1", speed1),
                ("core.modelled_speedup.dyn2", speed2),
            ],
            gauges: Vec::new(),
        }
    }

    fn layers(&mut self, passes: &[Vec<f64>], out: &mut Layers, _t: &mut Tracer) -> u64 {
        let wall_s = steady_pass(passes);
        let quanta: u64 = self
            .last
            .iter()
            .flat_map(|r| std::iter::once(&r.baseline).chain(r.outcomes.iter().map(|o| &o.result)))
            .map(|run| run.total_quanta)
            .sum();
        out.set(
            "cluster.det.ns_per_quantum",
            wall_s * 1e9 / quanta.max(1) as f64,
        );
        0
    }
}

// ---------------------------------------------------------------------------
// serve_jobs: two closed-loop clients against an in-process job server
// ---------------------------------------------------------------------------

/// One job as a client saw it.
struct JobSample {
    submit_s: f64,
    wait_s: f64,
}

struct ServeJobs {
    server: Option<Server>,
    addr: String,
    journal: PathBuf,
    /// Per client, the submit requests of one round.
    requests: Vec<Vec<Value>>,
    samples: Vec<JobSample>,
    rejected: u64,
    busy_s: f64,
}

/// The scenario files the clients submit, one per client.
pub const SCENARIOS: &[&str] = &["allreduce_chaos.toml", "rpc_fabric.toml"];

/// Writes a copy of `scenarios/<file>` with its `seed` line set to `seed`
/// under `out/` and returns the copy's path: the server only ever sees
/// inputs generated from the run's seed.
pub fn seeded_scenario(perf_dir: &Path, file: &str, seed: u64) -> Result<PathBuf, String> {
    let src = perf_dir.join("scenarios").join(file);
    let text = std::fs::read_to_string(&src).map_err(|e| format!("{}: {e}", src.display()))?;
    let mut replaced = false;
    let seeded: Vec<String> = text
        .lines()
        .map(|line| {
            if !replaced && line.trim_start().starts_with("seed") {
                replaced = true;
                format!("seed = {seed}")
            } else {
                line.to_string()
            }
        })
        .collect();
    if !replaced {
        return Err(format!("{}: no `seed` line to replace", src.display()));
    }
    let out = perf_dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let dst = out.join(format!("seed{seed}-{file}"));
    std::fs::write(&dst, seeded.join("\n") + "\n")
        .map_err(|e| format!("{}: {e}", dst.display()))?;
    Ok(dst)
}

impl ServeJobs {
    fn new(seed: u64, perf_dir: &Path) -> Result<Self, String> {
        let out = perf_dir.join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let journal = out.join(format!("serve-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let cfg = ServeConfig {
            workers: WORKERS,
            chunk_quanta: 2_000,
            journal: journal.clone(),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();

        // Six tiny case jobs, one mini case job whose chunked snapshots are
        // journaled write-ahead, one scenario job.
        let tiny: [(&str, u64, &str); 6] = [
            ("pingpong", 2, "truth"),
            ("cg", 4, "dyn1"),
            ("is", 4, "dyn2"),
            ("ep", 8, "fixed:100"),
            ("cg", 8, "fixed:10"),
            ("is", 8, "dyn1"),
        ];
        let mut requests = Vec::new();
        for (c, scenario) in SCENARIOS.iter().enumerate() {
            let case = |workload: &str, nodes: u64, policy: &str, scale: &str, k: u64| {
                protocol::obj(vec![
                    ("op", Value::Str("submit".to_string())),
                    ("tenant", Value::Str(format!("client{c}"))),
                    ("workload", Value::Str(workload.to_string())),
                    ("nodes", Value::U64(nodes)),
                    ("policy", Value::Str(policy.to_string())),
                    ("seed", Value::U64(seed.wrapping_add(16 * c as u64 + k))),
                    ("scale", Value::Str(scale.to_string())),
                ])
            };
            let mut round: Vec<Value> = tiny
                .iter()
                .enumerate()
                .map(|(k, (w, n, p))| case(w, *n, p, "tiny", k as u64))
                .collect();
            round.push(case("cg", 8, "dyn1", "mini", 6));
            let file = seeded_scenario(perf_dir, scenario, seed)?;
            round.push(protocol::obj(vec![
                ("op", Value::Str("submit".to_string())),
                ("tenant", Value::Str(format!("client{c}"))),
                ("scenario", Value::Str(file.display().to_string())),
            ]));
            requests.push(round);
        }
        Ok(Self {
            server: Some(server),
            addr,
            journal,
            requests,
            samples: Vec::new(),
            rejected: 0,
            busy_s: 0.0,
        })
    }
}

/// What one client brings back from its round.
struct ClientRound {
    jobs: Vec<(Instant, Instant, Instant)>,
    outcomes: Vec<String>,
    packets: u64,
    failed: u64,
    rejected: u64,
}

/// One closed-loop round: each job is submitted and waited for, one call
/// each through `client::request`, exactly as `aqs submit` and
/// `aqs job wait` do, before the next is sent.
fn client_round(addr: &str, requests: &[Value]) -> ClientRound {
    let mut out = ClientRound {
        jobs: Vec::new(),
        outcomes: Vec::new(),
        packets: 0,
        failed: 0,
        rejected: 0,
    };
    for req in requests {
        let sent = Instant::now();
        let submitted = client::request(addr, req);
        let accepted = Instant::now();
        let id = match &submitted {
            Ok(resp) if protocol::get_bool(resp, "ok") == Some(true) => {
                protocol::get_u64(resp, "job")
            }
            _ => None,
        };
        let Some(id) = id else {
            eprintln!("FAILED: submit refused: {submitted:?}");
            out.rejected += 1;
            out.failed += 1;
            continue;
        };
        let waited = client::request(
            addr,
            &protocol::obj(vec![
                ("op", Value::Str("wait".to_string())),
                ("job", Value::U64(id)),
            ]),
        );
        let done = Instant::now();
        let outcome = waited
            .as_ref()
            .ok()
            .and_then(|resp| resp.get("job_record"))
            .filter(|rec| protocol::get_str(rec, "state") == Some("done"))
            .and_then(|rec| rec.get("outcome"));
        match outcome {
            Some(outcome) => {
                out.packets += protocol::get_u64(outcome, "total_packets").unwrap_or(0);
                out.outcomes
                    .push(serde_json::to_string(outcome).expect("a value tree always renders"));
                out.jobs.push((sent, accepted, done));
            }
            None => {
                eprintln!("FAILED: job {id} did not finish: {waited:?}");
                out.failed += 1;
            }
        }
    }
    out
}

impl Workload for ServeJobs {
    fn ops_built(&self) -> u64 {
        self.requests.iter().map(|r| r.len() as u64).sum()
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let addr = self.addr.as_str();
        let ops: u64 = self.requests.iter().map(|r| r.len() as u64).sum();
        let started = Instant::now();
        let rounds: Vec<ClientRound> = std::thread::scope(|s| {
            let clients: Vec<_> = self
                .requests
                .iter()
                .map(|requests| s.spawn(move || client_round(addr, requests)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread does not panic"))
                .collect()
        });
        let ended = Instant::now();
        let wall_s = (ended - started).as_secs_f64();
        self.busy_s += wall_s;

        let mut d = Digest::new();
        let mut pass = Pass {
            parts: vec![wall_s],
            packets: 0,
            ops,
            failed: 0,
            digest: 0,
            exact: Vec::new(),
            gauges: Vec::new(),
        };
        let round_span = t.add("serve.round", started, ended, t.current(), 0);
        for (lane, round) in rounds.iter().enumerate() {
            pass.packets += round.packets;
            pass.failed += round.failed;
            self.rejected += round.rejected;
            for outcome in &round.outcomes {
                d.bytes(outcome.as_bytes());
            }
            for &(sent, accepted, done) in &round.jobs {
                self.samples.push(JobSample {
                    submit_s: (accepted - sent).as_secs_f64(),
                    wait_s: (done - accepted).as_secs_f64(),
                });
                let lane = lane as u32 + 1;
                let job = t.add("serve.job", sent, done, round_span, lane);
                t.add("serve.submit", sent, accepted, job, lane);
                t.add("serve.wait", accepted, done, job, lane);
            }
        }
        pass.digest = d.finish();
        pass
    }

    fn layers(&mut self, _passes: &[Vec<f64>], out: &mut Layers, _t: &mut Tracer) -> u64 {
        let ms = |f: fn(&JobSample) -> f64, p: f64| {
            let xs: Vec<f64> = self.samples.iter().map(f).collect();
            crate::metrics::quantile(&xs, p) * 1e3
        };
        if !self.samples.is_empty() {
            out.set("serve.jobs_per_s", self.samples.len() as f64 / self.busy_s);
            out.set("serve.job_p50_ms", ms(|s| s.submit_s + s.wait_s, 0.5));
            out.set("serve.job_p95_ms", ms(|s| s.submit_s + s.wait_s, 0.95));
            out.set("serve.submit_p50_ms", ms(|s| s.submit_s, 0.5));
            out.set("serve.wait_p50_ms", ms(|s| s.wait_s, 0.5));
        }
        let bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        out.set("serve.journal_bytes", bytes as f64);
        out.set("serve.rejected", self.rejected as f64);
        0
    }

    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_file(&self.journal);
    }
}
