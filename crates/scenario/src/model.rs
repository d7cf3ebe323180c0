//! The scenario model: what a `.toml` scenario file describes, and how it
//! becomes programs, a switch, and a chaos overlay.
//!
//! # Schema
//!
//! ```toml
//! name    = "allreduce-chaos"       # required
//! nodes   = 8                        # required, 2 ..= MAX_NODES (262144)
//! seed    = 42                       # default 42
//! policy  = "truth"                  # truth | dyn1 | dyn2 | pred | fixed:<µs> | dyn:…
//! engines = ["deterministic", "sharded"]   # | sharded-optimistic | hybrid
//! shards  = [1, 2, 4]                # worker counts for the sharded engines
//!
//! [topology]                         # optional; default perfect switch
//! kind       = "fabric"              # perfect | latency-matrix | fabric
//! latency_us = 2                     # latency-matrix only (≤ 11 585 nodes)
//! rack_size  = 4                     # fabric only
//! uplinks    = 2                     # fabric only
//!
//! [[phases]]                         # at least one; run back to back
//! workload = "ml-allreduce"          # any name `Workload::parse` accepts
//! steps    = 2                       # workload parameters override defaults
//!
//! [chaos]                            # optional seeded fault injection
//! link_flap = 0.05                   # probabilities per chaos epoch
//! loss      = 0.1
//! retransmit_us = 150
//!
//! [asserts]                          # optional; checked after the runs
//! cross_engine_identical = true      # default true
//! conservation           = true      # default true
//! zero_stragglers        = false
//! min_messages           = 100
//! max_sim_ms             = 500
//! ```
//!
//! Parsing errors surface as [`SimError::ScenarioParse`] with the file and
//! 1-based line; semantic errors (a probability out of range, an unknown
//! engine) as [`SimError::ScenarioValidate`].

use crate::toml::{self, Item, Table, Value};
use aqs_cluster::{EngineKind, SimError, SimSwitch};
use aqs_core::SyncConfig;
use aqs_net::{ChaosConfig, FabricConfig, LatencyMatrixSwitch};
use aqs_node::{Op, Program, Tag};
use aqs_time::SimDuration;
use aqs_workloads::{Workload, MAX_NODES};
use std::path::Path;

/// Tags of one phase must stay below this bound so phases can be remapped
/// into disjoint tag ranges (phase `i` gets offset `i << 22`).
const TAG_SPAN: u32 = 1 << 22;

/// Hard cap on phases: keeps every remapped tag below
/// [`u32::MAX`] (reserved for background traffic).
const MAX_PHASES: usize = 256;

/// Hard cap on a latency-matrix topology's table (`nodes²` latencies of
/// 8 bytes): 1 GiB, 11 585 nodes. A failed allocation aborts the process,
/// which no caller can catch, so a larger table is refused at parse.
const MAX_MATRIX_BYTES: u64 = 1 << 30;

/// The network topology a scenario runs on.
#[derive(Clone, Debug, PartialEq)]
pub enum Topology {
    /// Infinite bandwidth, zero transit delay.
    Perfect,
    /// Uniform per-hop latency between every pair.
    LatencyMatrix {
        /// One-way latency between any two nodes.
        latency: SimDuration,
    },
    /// The modeled fat-tree fabric.
    Fabric {
        /// Hosts per rack (`None` keeps the fabric default).
        rack_size: Option<u32>,
        /// Uplinks per rack (`None` keeps the fabric default).
        uplinks: Option<u32>,
    },
}

impl Topology {
    /// The [`SimSwitch`] this topology builds to.
    pub fn switch(&self, n: usize) -> SimSwitch {
        match self {
            Topology::Perfect => SimSwitch::Perfect,
            Topology::LatencyMatrix { latency } => {
                SimSwitch::LatencyMatrix(LatencyMatrixSwitch::uniform(n, *latency))
            }
            Topology::Fabric { rack_size, uplinks } => {
                let mut cfg = FabricConfig::fat_tree();
                if let Some(r) = rack_size {
                    cfg = cfg.with_rack_size(*r);
                }
                if let Some(u) = uplinks {
                    cfg = cfg.with_uplinks_per_rack(*u);
                }
                SimSwitch::Fabric(cfg)
            }
        }
    }
}

/// One phase: a workload with its parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// The workload to generate.
    pub workload: Workload,
}

/// The property assertions checked after the runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Asserts {
    /// Every engine × worker-count run must produce the same
    /// [`SimulatedOutcome`](aqs_cluster::SimulatedOutcome), bit for bit.
    pub cross_engine_identical: bool,
    /// Every posted `Recv` must have completed: `messages_received` equals
    /// the total receive count of the generated programs (no packet lost,
    /// none duplicated — chaos only delays).
    pub conservation: bool,
    /// No stragglers in any run (holds under the safe quantum `Q ≤ T`).
    pub zero_stragglers: bool,
    /// Lower bound on `messages_received` (guards against a scenario that
    /// silently generates no traffic).
    pub min_messages: Option<u64>,
    /// Upper bound on the simulated completion time, in milliseconds.
    pub max_sim_ms: Option<u64>,
    /// Upper bound on the straggler count of any run.
    pub max_stragglers: Option<u64>,
}

impl Default for Asserts {
    fn default() -> Self {
        Self {
            cross_engine_identical: true,
            conservation: true,
            zero_stragglers: false,
            min_messages: None,
            max_sim_ms: None,
            max_stragglers: None,
        }
    }
}

/// A parsed, validated scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// Cluster size.
    pub nodes: usize,
    /// Base seed: phase `i` builds its workload with `seed + i`, and the
    /// engines and the chaos overlay (unless overridden) draw from it too.
    pub seed: u64,
    /// Synchronization policy.
    pub policy: SyncConfig,
    /// Engines to run (every one must produce the same outcome when
    /// `cross_engine_identical` is asserted).
    pub engines: Vec<EngineKind>,
    /// Worker counts for the sharded engine.
    pub shards: Vec<usize>,
    /// Network topology.
    pub topology: Topology,
    /// Workload phases, run back to back.
    pub phases: Vec<Phase>,
    /// Chaos injection, when the scenario asks for it.
    pub chaos: Option<ChaosConfig>,
    /// Property assertions.
    pub asserts: Asserts,
    /// Source file path, for error reporting.
    pub file: String,
}

fn perr(file: &str, line: usize, message: impl Into<String>) -> SimError {
    SimError::ScenarioParse {
        file: file.to_string(),
        line,
        message: message.into(),
    }
}

fn verr(file: &str, message: impl Into<String>) -> SimError {
    SimError::ScenarioValidate {
        file: file.to_string(),
        message: message.into(),
    }
}

/// Typed accessors over a parsed table, with file/line error context.
struct Reader<'a> {
    table: &'a Table,
    file: &'a str,
    /// What this table is called in error messages (`scenario`, `[chaos]`…).
    what: &'a str,
}

impl<'a> Reader<'a> {
    fn new(table: &'a Table, file: &'a str, what: &'a str) -> Self {
        Self { table, file, what }
    }

    fn item(&self, key: &str) -> Option<&'a Item> {
        self.table.get(key)
    }

    fn mismatch(&self, key: &str, item: &Item, want: &str) -> SimError {
        perr(
            self.file,
            item.line,
            format!(
                "{} key `{key}`: expected {want}, got {}",
                self.what,
                item.value.type_name()
            ),
        )
    }

    fn str(&self, key: &str) -> Result<Option<&'a str>, SimError> {
        match self.item(key) {
            None => Ok(None),
            Some(item) => match &item.value {
                Value::Str(s) => Ok(Some(s)),
                _ => Err(self.mismatch(key, item, "a string")),
            },
        }
    }

    fn bool(&self, key: &str) -> Result<Option<bool>, SimError> {
        match self.item(key) {
            None => Ok(None),
            Some(item) => match item.value {
                Value::Bool(b) => Ok(Some(b)),
                _ => Err(self.mismatch(key, item, "a boolean")),
            },
        }
    }

    fn u64(&self, key: &str) -> Result<Option<u64>, SimError> {
        match self.item(key) {
            None => Ok(None),
            Some(item) => match item.value {
                Value::Int(i) if i >= 0 => Ok(Some(i as u64)),
                Value::Int(_) => Err(self.mismatch(key, item, "a non-negative integer")),
                _ => Err(self.mismatch(key, item, "an integer")),
            },
        }
    }

    /// A `*_us` key as a simulated duration; a value past what a 64-bit
    /// nanosecond count holds is rejected, naming the key and its line.
    fn micros(&self, key: &str) -> Result<Option<SimDuration>, SimError> {
        let Some(us) = self.u64(key)? else {
            return Ok(None);
        };
        let Some(d) = SimDuration::checked_from_micros(us) else {
            let (what, line) = (self.what, self.item(key).expect("key just read").line);
            let message = format!("{what} key `{key}` (line {line}): {us} µs overflows u64 ns");
            return Err(verr(self.file, message));
        };
        Ok(Some(d))
    }

    fn u32(&self, key: &str) -> Result<Option<u32>, SimError> {
        match self.u64(key)? {
            None => Ok(None),
            Some(v) => u32::try_from(v).map(Some).map_err(|_| {
                let item = self.item(key).expect("key just read");
                self.mismatch(key, item, "a 32-bit integer")
            }),
        }
    }

    fn f64(&self, key: &str) -> Result<Option<f64>, SimError> {
        match self.item(key) {
            None => Ok(None),
            Some(item) => match item.value {
                Value::Float(f) => Ok(Some(f)),
                Value::Int(i) => Ok(Some(i as f64)),
                _ => Err(self.mismatch(key, item, "a number")),
            },
        }
    }

    fn str_array(&self, key: &str) -> Result<Option<Vec<&'a str>>, SimError> {
        match self.item(key) {
            None => Ok(None),
            Some(item) => match &item.value {
                Value::Array(items) => items
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Ok(s.as_str()),
                        _ => Err(self.mismatch(key, item, "an array of strings")),
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some),
                _ => Err(self.mismatch(key, item, "an array of strings")),
            },
        }
    }

    fn usize_array(&self, key: &str) -> Result<Option<Vec<usize>>, SimError> {
        match self.item(key) {
            None => Ok(None),
            Some(item) => match &item.value {
                Value::Array(items) => items
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) if *i >= 0 => Ok(*i as usize),
                        _ => Err(self.mismatch(key, item, "an array of non-negative integers")),
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some),
                _ => Err(self.mismatch(key, item, "an array of integers")),
            },
        }
    }

    /// Rejects any key outside `allowed`, pointing at its line.
    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), SimError> {
        for (key, item) in &self.table.entries {
            if !allowed.contains(&key.as_str()) {
                return Err(perr(
                    self.file,
                    item.line,
                    format!(
                        "unknown {} key `{key}` (expected one of: {})",
                        self.what,
                        allowed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Overrides one workload parameter. Returns an error message when the
/// workload has no such parameter or the value has the wrong shape.
fn apply_param(w: &mut Workload, key: &str, r: &Reader<'_>) -> Result<bool, SimError> {
    fn set_usize(slot: &mut usize, key: &str, r: &Reader<'_>) -> Result<bool, SimError> {
        if let Some(v) = r.u64(key)? {
            *slot = v as usize;
            return Ok(true);
        }
        Ok(false)
    }
    fn set_u64(slot: &mut u64, key: &str, r: &Reader<'_>) -> Result<bool, SimError> {
        if let Some(v) = r.u64(key)? {
            *slot = v;
            return Ok(true);
        }
        Ok(false)
    }
    match w {
        Workload::PingPong { rounds, bytes } => match key {
            "rounds" => set_usize(rounds, key, r),
            "bytes" => set_u64(bytes, key, r),
            _ => Ok(false),
        },
        Workload::Burst { compute, bytes } => match key {
            "compute" => set_u64(compute, key, r),
            "bytes" => set_u64(bytes, key, r),
            _ => Ok(false),
        },
        Workload::UniformCompute { ops, spread } => match key {
            "ops" => set_u64(ops, key, r),
            "spread" => {
                if let Some(v) = r.f64(key)? {
                    *spread = v;
                    return Ok(true);
                }
                Ok(false)
            }
            _ => Ok(false),
        },
        // NAS and NAMD are parameterized by `scale` alone, handled upstream.
        Workload::Nas { .. } | Workload::Namd { .. } => Ok(false),
        Workload::MlAllreduce {
            steps,
            buckets,
            bucket_bytes,
            compute,
        } => match key {
            "steps" => set_usize(steps, key, r),
            "buckets" => set_usize(buckets, key, r),
            "bucket_bytes" => set_u64(bucket_bytes, key, r),
            "compute" => set_u64(compute, key, r),
            _ => Ok(false),
        },
        Workload::ParameterServer {
            steps,
            push_bytes,
            compute,
        } => match key {
            "steps" => set_usize(steps, key, r),
            "push_bytes" => set_u64(push_bytes, key, r),
            "compute" => set_u64(compute, key, r),
            _ => Ok(false),
        },
        Workload::RpcFanout {
            requests,
            fanout,
            request_bytes,
            response_bytes,
            service_ops,
        } => match key {
            "requests" => set_usize(requests, key, r),
            "fanout" => set_usize(fanout, key, r),
            "request_bytes" => set_u64(request_bytes, key, r),
            "response_bytes" => set_u64(response_bytes, key, r),
            "service_ops" => set_u64(service_ops, key, r),
            _ => Ok(false),
        },
        Workload::Gossip {
            rounds,
            fanout,
            digest_bytes,
        } => match key {
            "rounds" => set_usize(rounds, key, r),
            "fanout" => set_usize(fanout, key, r),
            "digest_bytes" => set_u64(digest_bytes, key, r),
            _ => Ok(false),
        },
    }
}

impl Scenario {
    /// Loads and parses a scenario file.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, SimError> {
        let path = path.as_ref();
        let file = path.display().to_string();
        let src = std::fs::read_to_string(path)
            .map_err(|e| perr(&file, 0, format!("cannot read file: {e}")))?;
        Self::from_str(&src, &file)
    }

    /// Parses scenario text. `file` labels errors (use the path, or a
    /// placeholder like `<inline>` for generated text).
    #[allow(clippy::should_implement_trait)] // fallible, two-argument parse
    pub fn from_str(src: &str, file: &str) -> Result<Scenario, SimError> {
        let doc = toml::parse(src).map_err(|e| perr(file, e.line, e.message))?;

        for name in doc.tables.keys() {
            if !["topology", "chaos", "asserts"].contains(&name.as_str()) {
                let line = doc.tables[name].line;
                return Err(perr(
                    file,
                    line,
                    format!("unknown table `[{name}]` (expected topology, chaos, or asserts)"),
                ));
            }
        }
        for name in doc.arrays.keys() {
            if name != "phases" {
                let line = doc.arrays[name][0].line;
                return Err(perr(
                    file,
                    line,
                    format!("unknown array `[[{name}]]` (expected phases)"),
                ));
            }
        }

        let root = Reader::new(&doc.root, file, "scenario");
        root.reject_unknown(&["name", "nodes", "seed", "policy", "engines", "shards"])?;

        let name = root
            .str("name")?
            .ok_or_else(|| verr(file, "missing required key `name`"))?
            .to_string();
        let nodes =
            root.u64("nodes")?
                .ok_or_else(|| verr(file, "missing required key `nodes`"))? as usize;
        if !(2..=MAX_NODES).contains(&nodes) {
            return Err(verr(
                file,
                format!("a cluster needs at least 2 nodes and at most {MAX_NODES}, got {nodes}"),
            ));
        }
        let seed = root.u64("seed")?.unwrap_or(42);
        let policy = match root.str("policy")? {
            Some(spec) => {
                let line = root.item("policy").expect("policy just read").line;
                spec.parse().map_err(|e: String| perr(file, line, e))?
            }
            None => SyncConfig::ground_truth(),
        };

        let engines = match root.str_array("engines")? {
            Some(names) => {
                let line = root.item("engines").expect("engines just read").line;
                if names.is_empty() {
                    return Err(verr(file, "`engines` must name at least one engine"));
                }
                names
                    .iter()
                    .map(|n| n.parse().map_err(|e: String| perr(file, line, e)))
                    .collect::<Result<Vec<EngineKind>, _>>()?
            }
            None => vec![EngineKind::Deterministic, EngineKind::Sharded],
        };
        let shards = root.usize_array("shards")?.unwrap_or_else(|| vec![1, 2, 4]);
        if shards.is_empty() || shards.contains(&0) {
            return Err(verr(file, "`shards` must list worker counts of at least 1"));
        }

        let topology = match doc.tables.get("topology") {
            None => Topology::Perfect,
            Some(t) => Self::parse_topology(t, file, nodes)?,
        };

        let empty = Vec::new();
        let phase_tables = doc.arrays.get("phases").unwrap_or(&empty);
        if phase_tables.is_empty() {
            return Err(verr(file, "a scenario needs at least one [[phases]] entry"));
        }
        if phase_tables.len() > MAX_PHASES {
            return Err(verr(
                file,
                format!("too many phases: {} (max {MAX_PHASES})", phase_tables.len()),
            ));
        }
        let mut phases = Vec::with_capacity(phase_tables.len());
        for t in phase_tables {
            phases.push(Self::parse_phase(t, file)?);
        }

        let chaos = match doc.tables.get("chaos") {
            None => None,
            Some(t) => Some(Self::parse_chaos(t, file, seed)?),
        };
        if let Some(c) = &chaos {
            c.validate()
                .map_err(|reason| verr(file, format!("invalid chaos configuration: {reason}")))?;
        }

        let asserts = match doc.tables.get("asserts") {
            None => Asserts::default(),
            Some(t) => Self::parse_asserts(t, file)?,
        };

        Ok(Scenario {
            name,
            nodes,
            seed,
            policy,
            engines,
            shards,
            topology,
            phases,
            chaos,
            asserts,
            file: file.to_string(),
        })
    }

    fn parse_topology(t: &Table, file: &str, nodes: usize) -> Result<Topology, SimError> {
        let r = Reader::new(t, file, "[topology]");
        r.reject_unknown(&["kind", "latency_us", "rack_size", "uplinks"])?;
        let kind = r.str("kind")?.unwrap_or("perfect");
        match kind {
            "perfect" => {
                for key in ["latency_us", "rack_size", "uplinks"] {
                    if let Some(item) = r.item(key) {
                        return Err(perr(
                            file,
                            item.line,
                            format!("`{key}` does not apply to the perfect topology"),
                        ));
                    }
                }
                Ok(Topology::Perfect)
            }
            "latency-matrix" => {
                let latency = r
                    .micros("latency_us")?
                    .ok_or_else(|| verr(file, "the latency-matrix topology needs `latency_us`"))?;
                if latency.is_zero() {
                    return Err(verr(file, "`latency_us` must be nonzero"));
                }
                let bytes = (nodes as u64).pow(2) * size_of::<SimDuration>() as u64;
                if bytes > MAX_MATRIX_BYTES {
                    return Err(verr(
                        file,
                        format!(
                            "`nodes` = {nodes} is too many for the latency-matrix topology \
                             ([topology], line {}): its table would take {bytes} bytes, more \
                             than {} GiB",
                            t.line,
                            MAX_MATRIX_BYTES >> 30
                        ),
                    ));
                }
                for key in ["rack_size", "uplinks"] {
                    if let Some(item) = r.item(key) {
                        return Err(perr(
                            file,
                            item.line,
                            format!("`{key}` does not apply to the latency-matrix topology"),
                        ));
                    }
                }
                Ok(Topology::LatencyMatrix { latency })
            }
            "fabric" => {
                if let Some(item) = r.item("latency_us") {
                    return Err(perr(
                        file,
                        item.line,
                        "`latency_us` does not apply to the fabric topology",
                    ));
                }
                Ok(Topology::Fabric {
                    rack_size: r.u32("rack_size")?,
                    uplinks: r.u32("uplinks")?,
                })
            }
            other => {
                let line = r.item("kind").expect("kind just read").line;
                Err(perr(
                    file,
                    line,
                    format!("unknown topology `{other}` (perfect | latency-matrix | fabric)"),
                ))
            }
        }
    }

    fn parse_phase(t: &Table, file: &str) -> Result<Phase, SimError> {
        let r = Reader::new(t, file, "phase");
        let Some(name) = r.str("workload")? else {
            return Err(perr(file, t.line, "every phase needs a `workload` key"));
        };
        let line = r.item("workload").expect("workload just read").line;
        let Some(mut workload) = Workload::parse(name) else {
            return Err(perr(file, line, format!("unknown workload `{name}`")));
        };
        if let Some(scale) = r.str("scale")? {
            let line = r.item("scale").expect("scale just read").line;
            let scale = scale.parse().map_err(|e: String| perr(file, line, e))?;
            workload = workload.with_scale(scale);
        }
        for (key, item) in &t.entries {
            if key == "workload" || key == "scale" {
                continue;
            }
            if !apply_param(&mut workload, key, &r)? {
                return Err(perr(
                    file,
                    item.line,
                    format!("workload `{name}` has no parameter `{key}`"),
                ));
            }
        }
        Ok(Phase { workload })
    }

    fn parse_chaos(t: &Table, file: &str, default_seed: u64) -> Result<ChaosConfig, SimError> {
        let r = Reader::new(t, file, "[chaos]");
        r.reject_unknown(&[
            "seed",
            "epoch_us",
            "link_flap",
            "pause",
            "partition",
            "partition_groups",
            "hold_scan_epochs",
            "loss",
            "retransmit_us",
            "max_retransmits",
            "jitter_us",
            "spike",
            "spike_delay_us",
        ])?;
        let mut c = ChaosConfig::new(r.u64("seed")?.unwrap_or(default_seed));
        if let Some(d) = r.micros("epoch_us")? {
            c.epoch = d;
        }
        if let Some(p) = r.f64("link_flap")? {
            c.link_flap = p;
        }
        if let Some(p) = r.f64("pause")? {
            c.pause = p;
        }
        if let Some(p) = r.f64("partition")? {
            c.partition = p;
        }
        if let Some(g) = r.u32("partition_groups")? {
            c.partition_groups = g;
        }
        if let Some(e) = r.u32("hold_scan_epochs")? {
            c.hold_scan_epochs = e;
        }
        if let Some(p) = r.f64("loss")? {
            c.loss = p;
        }
        if let Some(d) = r.micros("retransmit_us")? {
            c.retransmit = d;
        }
        if let Some(m) = r.u32("max_retransmits")? {
            c.max_retransmits = m;
        }
        if let Some(d) = r.micros("jitter_us")? {
            c.jitter = d;
        }
        if let Some(p) = r.f64("spike")? {
            c.spike = p;
        }
        if let Some(d) = r.micros("spike_delay_us")? {
            c.spike_delay = d;
        }
        Ok(c)
    }

    fn parse_asserts(t: &Table, file: &str) -> Result<Asserts, SimError> {
        let r = Reader::new(t, file, "[asserts]");
        r.reject_unknown(&[
            "cross_engine_identical",
            "conservation",
            "zero_stragglers",
            "min_messages",
            "max_sim_ms",
            "max_stragglers",
        ])?;
        let d = Asserts::default();
        Ok(Asserts {
            cross_engine_identical: r
                .bool("cross_engine_identical")?
                .unwrap_or(d.cross_engine_identical),
            conservation: r.bool("conservation")?.unwrap_or(d.conservation),
            zero_stragglers: r.bool("zero_stragglers")?.unwrap_or(d.zero_stragglers),
            min_messages: r.u64("min_messages")?,
            max_sim_ms: r.u64("max_sim_ms")?,
            max_stragglers: r.u64("max_stragglers")?,
        })
    }

    /// Builds the concatenated programs: phase `i` is generated with seed
    /// `seed + i` and its tags are shifted into the disjoint range
    /// `[i·2²², (i+1)·2²²)`, so sends of one phase can never match receives
    /// of another. The background tag (`u32::MAX`) is preserved.
    pub fn build_programs(&self) -> Result<Vec<Program>, SimError> {
        let mut per_rank: Vec<Vec<Op>> = vec![Vec::new(); self.nodes];
        for (i, phase) in self.phases.iter().enumerate() {
            let spec = phase.workload.build(self.nodes, self.seed + i as u64);
            let offset = (i as u32) << 22;
            for program in &spec.programs {
                let ops = per_rank
                    .get_mut(program.rank().index())
                    .expect("workload ranks fit the cluster");
                for op in program.ops() {
                    ops.push(remap_tag(*op, offset).map_err(|tag| {
                        verr(
                            &self.file,
                            format!(
                                "phase {i} ({}) uses tag {tag}, which exceeds the \
                                 per-phase tag span of {TAG_SPAN}",
                                phase.workload.name()
                            ),
                        )
                    })?);
                }
            }
        }
        Ok(per_rank
            .into_iter()
            .enumerate()
            .map(|(rank, ops)| Program::new(aqs_node::Rank::new(rank as u32), ops))
            .collect())
    }
}

/// Shifts an op's tag by `offset`, leaving the background tag alone.
/// Returns the offending tag when it falls outside the per-phase span.
fn remap_tag(op: Op, offset: u32) -> Result<Op, u32> {
    let shift = |tag: Tag| -> Result<Tag, u32> {
        let raw = tag.as_u32();
        if raw == u32::MAX {
            return Ok(tag); // background traffic stays phase-global
        }
        if raw >= TAG_SPAN {
            return Err(raw);
        }
        Ok(Tag::new(raw + offset))
    };
    Ok(match op {
        Op::Send { dst, bytes, tag } => Op::Send {
            dst,
            bytes,
            tag: shift(tag)?,
        },
        Op::Recv { src, tag } => Op::Recv {
            src,
            tag: shift(tag)?,
        },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
name = "mini"
nodes = 4
[[phases]]
workload = "burst"
"#;

    #[test]
    fn minimal_scenario_gets_the_defaults() {
        let sc = Scenario::from_str(MINIMAL, "<test>").expect("parses");
        assert_eq!(sc.name, "mini");
        assert_eq!(sc.nodes, 4);
        assert_eq!(sc.seed, 42);
        assert_eq!(sc.policy, SyncConfig::ground_truth());
        assert_eq!(
            sc.engines,
            vec![EngineKind::Deterministic, EngineKind::Sharded]
        );
        assert_eq!(sc.shards, vec![1, 2, 4]);
        assert_eq!(sc.topology, Topology::Perfect);
        assert!(sc.chaos.is_none());
        assert!(sc.asserts.cross_engine_identical);
        assert!(sc.asserts.conservation);
    }

    #[test]
    fn phases_remap_tags_into_disjoint_ranges() {
        let sc = Scenario::from_str(
            r#"
name = "two-phase"
nodes = 4
[[phases]]
workload = "pingpong"
rounds = 3
[[phases]]
workload = "pingpong"
rounds = 3
"#,
            "<test>",
        )
        .expect("parses");
        let programs = sc.build_programs().expect("builds");
        assert_eq!(programs.len(), 4);
        let tags: Vec<u32> = programs[0]
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Send { tag, .. } => Some(tag.as_u32()),
                _ => None,
            })
            .collect();
        assert!(!tags.is_empty());
        assert!(tags.iter().any(|t| *t < TAG_SPAN), "phase 0 in low range");
        assert!(
            tags.iter().any(|t| (TAG_SPAN..2 * TAG_SPAN).contains(t)),
            "phase 1 in second range: {tags:?}"
        );
    }

    #[test]
    fn chaos_and_asserts_parse() {
        let sc = Scenario::from_str(
            r#"
name = "chaotic"
nodes = 8
seed = 7
policy = "fixed:1"
engines = ["deterministic", "sharded"]
shards = [2]
[topology]
kind = "latency-matrix"
latency_us = 2
[[phases]]
workload = "gossip"
rounds = 2
[chaos]
link_flap = 0.05
loss = 0.1
retransmit_us = 150
jitter_us = 3
[asserts]
zero_stragglers = true
min_messages = 10
"#,
            "<test>",
        )
        .expect("parses");
        let chaos = sc.chaos.expect("chaos configured");
        assert_eq!(chaos.seed, 7, "chaos inherits the scenario seed");
        assert_eq!(chaos.loss, 0.1);
        assert_eq!(chaos.retransmit, SimDuration::from_micros(150));
        assert!(sc.asserts.zero_stragglers);
        assert_eq!(sc.asserts.min_messages, Some(10));
        assert!(matches!(sc.topology, Topology::LatencyMatrix { .. }));
    }

    #[test]
    fn rollback_engines_parse_and_accept_chaos() {
        // The checkpointing engines route every packet through the chaos
        // overlay like the conservative ones do.
        let sc = Scenario::from_str(
            r#"
name = "rollback"
nodes = 4
engines = ["deterministic", "sharded-optimistic", "hybrid"]
[[phases]]
workload = "burst"
[chaos]
loss = 0.1
retransmit_us = 100
"#,
            "<test>",
        )
        .expect("parses");
        assert_eq!(
            sc.engines,
            vec![
                EngineKind::Deterministic,
                EngineKind::ShardedOptimistic,
                EngineKind::Hybrid,
            ]
        );
        assert!(sc.chaos.is_some());
    }

    #[test]
    fn a_policy_string_means_what_it_means_to_the_cli_and_the_job_server() {
        let policy = |text: &str| {
            let src = format!(
                "name = \"x\"\nnodes = 4\npolicy = \"{text}\"\n[[phases]]\nworkload = \"burst\""
            );
            Scenario::from_str(&src, "<test>").expect(text).policy
        };
        for text in ["truth", "fixed:7", "dyn2", "pred", "dyn:1:1000:1.03:0.02"] {
            assert_eq!(Ok(policy(text)), text.parse(), "{text}");
        }
        assert_eq!(policy("dyn:1:1000:1.03:0.02"), SyncConfig::paper_dyn1());
    }

    #[test]
    fn rejection_suite() {
        // (source, expect_parse_error, fragment)
        let cases: &[(&str, bool, &str)] = &[
            ("nodes = 4\n[[phases]]\nworkload = \"burst\"", false, "missing required key `name`"),
            ("name = \"x\"\n[[phases]]\nworkload = \"burst\"", false, "missing required key `nodes`"),
            ("name = \"x\"\nnodes = 1\n[[phases]]\nworkload = \"burst\"", false, "at least 2 nodes"),
            ("name = \"x\"\nnodes = 4", false, "at least one [[phases]]"),
            ("name = \"x\"\nnodes = 4\n[[phases]]\nworkload = \"no-such\"", true, "unknown workload"),
            ("name = \"x\"\nnodes = 4\n[[phases]]\nworkload = \"burst\"\nrounds = 3", true, "no parameter `rounds`"),
            ("name = \"x\"\nnodes = 4\npolicy = \"warp\"\n[[phases]]\nworkload = \"burst\"", true, "unknown policy"),
            ("name = \"x\"\nnodes = 4\npolicy = \"fixed:0\"\n[[phases]]\nworkload = \"burst\"", true, "fixed quantum must be nonzero"),
            ("name = \"x\"\nnodes = 4\npolicy = \"fixed:18446744073709551615\"\n[[phases]]\nworkload = \"burst\"", true, "overflows"),
            ("name = \"x\"\nnodes = 4\nengines = [\"quantum\"]\n[[phases]]\nworkload = \"burst\"", true, "unknown engine"),
            ("name = \"x\"\nnodes = 4\nshards = [0]\n[[phases]]\nworkload = \"burst\"", false, "at least 1"),
            ("name = \"x\"\nnodes = 4\nbogus = 1\n[[phases]]\nworkload = \"burst\"", true, "unknown scenario key `bogus`"),
            ("name = \"x\"\nnodes = 4\n[typo]\n[[phases]]\nworkload = \"burst\"", true, "unknown table `[typo]`"),
            ("name = \"x\"\nnodes = 4\n[[phases]]\nworkload = \"burst\"\n[chaos]\nloss = 1.5", false, "invalid chaos"),
            ("name = \"x\"\nnodes = 4\nengines = [\"threaded\"]\n[[phases]]\nworkload = \"burst\"", true, "retired: use `sharded` with one worker per node"),
            ("name = \"x\"\nnodes = 4\nengines = [\"optimistic\"]\n[[phases]]\nworkload = \"burst\"", true, "retired: use `sharded-optimistic`"),
            ("name = \"x\"\nnodes = 4\n[topology]\nkind = \"torus\"\n[[phases]]\nworkload = \"burst\"", true, "unknown topology"),
            ("name = \"x\"\nnodes = 4\n[topology]\nkind = \"latency-matrix\"\n[[phases]]\nworkload = \"burst\"", false, "needs `latency_us`"),
            ("name = \"x\"\nnodes = 4\n[topology]\nkind = \"perfect\"\nlatency_us = 2\n[[phases]]\nworkload = \"burst\"", true, "does not apply"),
            ("name = \"x\"\nnodes = 11586\n[topology]\nkind = \"latency-matrix\"\nlatency_us = 2\n[[phases]]\nworkload = \"burst\"", false, "`nodes` = 11586 is too many for the latency-matrix topology ([topology], line 3)"),
            ("name = \"x\"\nnodes = 2\n[topology]\nkind = \"latency-matrix\"\nlatency_us = 18446744073709552\n[[phases]]\nworkload = \"burst\"", false, "[topology] key `latency_us` (line 5): 18446744073709552 µs overflows"),
            ("name = \"x\"\nnodes = 4\n[[phases]]\nworkload = \"burst\"\n[chaos]\nepoch_us = 18446744073709552", false, "[chaos] key `epoch_us` (line 6)"),
            ("name = \"x\"\nnodes = 4\n[[phases]]\nworkload = \"burst\"\n[chaos]\nretransmit_us = 18446744073709552", false, "[chaos] key `retransmit_us` (line 6)"),
            ("name = \"x\"\nnodes = 4\n[[phases]]\nworkload = \"burst\"\n[chaos]\njitter_us = 18446744073709552", false, "[chaos] key `jitter_us` (line 6)"),
            ("name = \"x\"\nnodes = 4\n[[phases]]\nworkload = \"burst\"\n[chaos]\nspike_delay_us = 18446744073709552", false, "[chaos] key `spike_delay_us` (line 6)"),
            ("name = \"x\"\nnodes = -4\n[[phases]]\nworkload = \"burst\"", true, "non-negative"),
            ("name = 7\nnodes = 4\n[[phases]]\nworkload = \"burst\"", true, "expected a string"),
        ];
        for (src, parse_error, fragment) in cases {
            let err = Scenario::from_str(src, "<test>").expect_err(src);
            let text = err.to_string();
            assert!(text.contains(fragment), "{src:?}: got `{text}`");
            match (&err, parse_error) {
                (SimError::ScenarioParse { .. }, true)
                | (SimError::ScenarioValidate { .. }, false) => {}
                _ => panic!("{src:?}: wrong error kind {err:?}"),
            }
        }
    }

    #[test]
    fn the_largest_latency_matrix_fits_in_one_gib() {
        // 11 585² × 8 B ≤ 1 GiB; `rejection_suite` refuses 11 586.
        let src = "name = \"x\"\nnodes = 11585\n[topology]\nkind = \"latency-matrix\"\n\
                   latency_us = 2\n[[phases]]\nworkload = \"burst\"";
        let ok = Scenario::from_str(src, "<test>").expect("the table fits");
        assert_eq!(ok.nodes, 11_585);
    }

    #[test]
    fn parse_errors_point_at_the_line() {
        let err = Scenario::from_str(
            "name = \"x\"\nnodes = 4\n\nbogus = 1\n[[phases]]\nworkload = \"burst\"",
            "demo.toml",
        )
        .unwrap_err();
        match err {
            SimError::ScenarioParse { file, line, .. } => {
                assert_eq!(file, "demo.toml");
                assert_eq!(line, 4);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }
}
