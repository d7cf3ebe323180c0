//! The unified engine API: one builder, four engines, one report.
//!
//! [`Sim`] is the single entry point to every engine: pick the engine with
//! [`Sim::engine`], tune it with the shared [`ClusterConfig`] plus
//! engine-specific knobs, optionally attach a quantum-level
//! [`FlightRecorder`] with [`Sim::record`], and get back one [`RunReport`]
//! whose common fields mean the same thing everywhere.
//!
//! Every engine is generic over one [`Recorder`] and reports to nothing
//! else; [`Sim::run_with_recorder`] is that generic run, and
//! [`Sim::record`] is sugar for passing it a [`FlightRecorder`]. A recorder
//! of your own sees every quantum (and, on the deterministic engine, every
//! routed packet) and comes back with the report:
//!
//! ```
//! use aqs_cluster::Sim;
//! use aqs_core::SyncConfig;
//! use aqs_obs::{QuantumObs, Recorder};
//! use aqs_workloads::ping_pong;
//!
//! /// The run's longest quantum, and the host time its barrier completed.
//! #[derive(Default)]
//! struct Longest {
//!     len_ns: u64,
//!     host_ns: u64,
//! }
//!
//! impl Recorder for Longest {
//!     const ENABLED: bool = true;
//!
//!     fn record_quantum(&mut self, obs: &QuantumObs<'_>) {
//!         if obs.len.as_nanos() > self.len_ns {
//!             (self.len_ns, self.host_ns) = (obs.len.as_nanos(), obs.host_ns);
//!         }
//!     }
//! }
//!
//! let (report, longest) = Sim::new(ping_pong(2, 3, 64).programs)
//!     .sync(SyncConfig::paper_dyn1())
//!     .run_with_recorder(Longest::default())
//!     .expect("a valid configuration");
//! assert!(longest.len_ns > 1_000, "the quantum grew past its 1 µs floor");
//! assert!(longest.host_ns as f64 <= report.wall_clock.as_secs_f64() * 1e9);
//! ```
//!
//! # Examples
//!
//! ```
//! use aqs_cluster::{EngineKind, Sim};
//! use aqs_core::SyncConfig;
//! use aqs_obs::ObsConfig;
//! use aqs_workloads::ping_pong;
//!
//! let spec = ping_pong(2, 3, 64);
//! let report = Sim::new(spec.programs)
//!     .sync(SyncConfig::ground_truth())
//!     .engine(EngineKind::Deterministic)
//!     .record(ObsConfig::new())
//!     .run();
//! assert_eq!(report.stragglers.count(), 0); // Q ≤ T is straggler-free
//! assert_eq!(report.messages_received, 6);
//! let obs = report.obs.as_ref().expect("recording was enabled");
//! assert_eq!(obs.total_packets(), report.total_packets);
//! ```

use crate::config::ClusterConfig;
use crate::engine::{run_cluster_det, DetOutcome};
use crate::pool::ParallelConfig;
use crate::result::{NodeResult, RunResult};
use crate::sharded::{run_sharded_impl, ShardedRunResult};
use crate::sharded_optimistic::{
    run_sharded_optimistic_impl, HybridPolicy, ShardedOptimisticOpts, ShardedOptimisticRunResult,
};
use crate::snapshot::{SimSnapshot, SnapshotBody};
use aqs_core::SyncConfig;
pub use aqs_net::SimSwitch;
use aqs_net::{ChaosConfig, ChaosOverlay, NetError, NetworkController, StragglerStats};
use aqs_node::{Op, Program, SendTarget};
use aqs_obs::{FlightRecorder, NullRecorder, ObsConfig, Recorder};
use aqs_time::{HostDuration, SimTime};
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Which engine executes the simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The deterministic meta-engine: a DES of the parallel simulation on a
    /// modelled host clock. Exactly reproducible timing.
    #[default]
    Deterministic,
    /// The sharded engine: N node simulators on M worker threads with
    /// quantum-edge-deterministic delivery. Real wall-clock; functional
    /// results are bit-identical for every worker count. `shards(n)` is the
    /// paper's one-thread-per-node system.
    Sharded,
    /// The optimistic (checkpoint/rollback) mechanism on the sharded
    /// substrate: per-shard window-start checkpoints, GVT reduced by the
    /// tree-barrier leader, rollback confined to the offending shard by a
    /// cascade bound (past the bound the shard degrades to conservative
    /// execution for one window). With one shard, a fixed quantum as the
    /// window and a bound the run never reaches, it is the classic
    /// window-based optimistic engine of the paper's §3.
    ShardedOptimistic,
    /// The sharded-optimistic engine with the adaptive [`HybridPolicy`]:
    /// each shard independently switches between conservative and
    /// optimistic execution based on its observed straggler rate and
    /// rollback waste. Bit-identical to the deterministic engine under the
    /// safe quantum (`Q ≤ T`).
    Hybrid,
}

impl EngineKind {
    /// Short lowercase name (`deterministic` / `sharded` /
    /// `sharded-optimistic` / `hybrid`); [`FromStr`] is its inverse.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Deterministic => "deterministic",
            EngineKind::Sharded => "sharded",
            EngineKind::ShardedOptimistic => "sharded-optimistic",
            EngineKind::Hybrid => "hybrid",
        }
    }
}

/// The one grammar for an engine name — scenario files and
/// `conformance --engines` both parse through it: the four
/// [`EngineKind::name`]s plus the spellings `det` and `sharded_optimistic`.
/// The two retired engines are rejected with their replacement.
impl FromStr for EngineKind {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "deterministic" | "det" => Ok(EngineKind::Deterministic),
            "sharded" => Ok(EngineKind::Sharded),
            "sharded-optimistic" | "sharded_optimistic" => Ok(EngineKind::ShardedOptimistic),
            "hybrid" => Ok(EngineKind::Hybrid),
            "threaded" => Err("the `threaded` engine was retired: use `sharded` with one \
                               worker per node"
                .to_string()),
            "optimistic" => Err("the `optimistic` engine was retired: use \
                                 `sharded-optimistic` on one shard"
                .to_string()),
            other => Err(format!(
                "unknown engine `{other}` (deterministic | sharded | sharded-optimistic | hybrid)"
            )),
        }
    }
}

/// A configuration error detected by [`Sim::try_run`] before any engine
/// starts: the builder accepted the value (setters only store), but the
/// combination cannot describe a runnable simulation.
///
/// [`Sim::run`] panics with this error's [`Display`](fmt::Display) text;
/// callers that must not crash on a bad request (a job server validating
/// client configs) should use [`Sim::try_run`] and handle the error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Fewer than two programs were given.
    TooFewNodes {
        /// The number of programs provided.
        n: usize,
    },
    /// Program at position `index` was built for a different rank.
    RankMismatch {
        /// Position in the program vector.
        index: usize,
        /// The rank the program was built for.
        rank: u32,
    },
    /// [`Sim::shards`] was called with zero workers.
    ZeroShards,
    /// The selected engine does not support the selected [`SimSwitch`].
    UnsupportedSwitch {
        /// The engine that rejected the switch.
        engine: EngineKind,
        /// The switch's name (as in [`SimSwitch`]).
        switch: &'static str,
        /// Why the combination is unsupported.
        reason: &'static str,
    },
    /// A [`SimSwitch::LatencyMatrix`] describes fewer ports than the cluster
    /// has nodes.
    TooFewSwitchPorts {
        /// Ports the matrix describes.
        ports: usize,
        /// Nodes the cluster has.
        nodes: usize,
    },
    /// The fabric configuration failed
    /// [`FabricConfig::validate`](aqs_net::FabricConfig::validate).
    InvalidFabric(String),
    /// The chaos configuration failed [`ChaosConfig::validate`].
    InvalidChaos(String),
    /// [`Sim::host_work_per_op`] was given a negative or non-finite factor
    /// (carried as text).
    InvalidHostWork(String),
    /// An op no engine can run: a send to a rank outside the cluster or to
    /// the sender itself, or a timed region ended before it started or
    /// started again while open.
    InvalidOp {
        /// The rank whose program holds the op.
        rank: usize,
        /// The op's index in that program.
        op: usize,
        /// What is wrong with it.
        detail: String,
    },
    /// A scenario file could not be parsed (see the `aqs-scenario` crate).
    ScenarioParse {
        /// Path of the scenario file.
        file: String,
        /// 1-based line where parsing failed (0 when not line-specific).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A scenario file parsed but describes an invalid experiment.
    ScenarioValidate {
        /// Path of the scenario file.
        file: String,
        /// What is wrong with the scenario.
        message: String,
    },
    /// The workload deadlocked: a quantum completed with zero packets, zero
    /// in-flight fragments, and every unfinished node blocked on a receive
    /// that nothing will ever satisfy.
    Deadlock {
        /// Debug list of the blocked nodes and their program counters.
        nodes: String,
    },
    /// The run exceeded its quantum cap without finishing — on the parallel
    /// engines this is how an unsatisfiable receive manifests.
    QuantumCapExceeded {
        /// The engine that hit the cap.
        engine: EngineKind,
        /// The quantum cap that was exhausted.
        max_quanta: u64,
    },
    /// An engine's simulated clock would pass `u64::MAX` nanoseconds: the
    /// next quantum edge, or the wasted simulated time a rollback engine
    /// reports, lies beyond what a `SimTime` can hold.
    SimTimeOverflow {
        /// The engine whose clock overflowed.
        engine: EngineKind,
        /// Quanta completed before the overflow.
        quanta: u64,
    },
    /// The deterministic engine's modelled host clock would pass `u64::MAX`
    /// nanoseconds: a segment's cost, a fragment's hand-off or a barrier
    /// completion lies beyond what a `HostTime` can hold.
    HostClockOverflow {
        /// Quanta completed before the overflow.
        quanta: u64,
    },
    /// An internal engine invariant failed. Always a bug, never a workload
    /// property — reported as an error (not a panic) so a resident server
    /// survives it.
    EngineInvariant {
        /// What was violated.
        detail: String,
    },
    /// A snapshot's bytes are structurally invalid: bad magic, unsupported
    /// version, truncated payload, or a field that fails validation on
    /// restore.
    SnapshotFormat {
        /// What is wrong with the snapshot.
        detail: String,
    },
    /// A snapshot's payload checksum does not match: the bytes were
    /// corrupted after capture.
    SnapshotChecksum {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// A snapshot was captured from a different simulation spec (programs,
    /// config, switch, or chaos differ) and cannot seed this one.
    SnapshotSpecMismatch {
        /// Fingerprint stored in the snapshot.
        snapshot: u64,
        /// Fingerprint of the simulation being resumed.
        sim: u64,
    },
    /// A node's restored RNG stream fails its probe check: the stream was
    /// advanced or rewound relative to capture time.
    SnapshotRngStream {
        /// The node whose stream failed the probe.
        node: usize,
    },
    /// [`Sim::snapshot_at`] asked for a quantum edge past the end of the
    /// run.
    SnapshotQuantumUnreachable {
        /// The requested quantum edge.
        requested: u64,
        /// Quanta the run actually completed.
        completed: u64,
    },
    /// [`Sim::snapshot_at`], [`Sim::step_snapshot`] or [`Sim::resume`] on a
    /// switch that keeps state between frames: a snapshot does not carry the
    /// switch's queues, so the resumed run would silently restart them
    /// empty.
    SnapshotStatefulSwitch {
        /// The switch's name (as in [`SimSwitch`]).
        switch: &'static str,
    },
}

impl SimError {
    /// Shorthand for a [`SimError::SnapshotFormat`] with the given detail.
    pub(crate) fn snapshot_format(detail: impl Into<String>) -> Self {
        SimError::SnapshotFormat {
            detail: detail.into(),
        }
    }
}

impl From<NetError> for SimError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::TooFewNodes { n } => SimError::TooFewNodes { n },
            NetError::TooFewPorts { ports, nodes } => SimError::TooFewSwitchPorts { ports, nodes },
            NetError::InvalidFabric(reason) => SimError::InvalidFabric(reason),
        }
    }
}

/// The program half of [`Sim::validate`], in one pass over the programs:
/// program *i* is for rank *i*, each send names another rank of the
/// cluster, and each timed region ends after it starts and starts only
/// while closed. The ops were summarised as each program was built
/// ([`Program::is_valid_for`]); only a program the summary rejects is
/// read op by op, to name its first bad op.
fn check_programs(programs: &[Program]) -> Result<(), SimError> {
    let n = programs.len();
    for (rank, program) in programs.iter().enumerate() {
        if program.rank().index() != rank {
            let (index, rank) = (rank, program.rank().as_u32());
            return Err(SimError::RankMismatch { index, rank });
        }
        if !program.is_valid_for(n) {
            if let Some(e) = first_invalid_op(rank, program, n) {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// The first op of rank `rank`'s `program` that cannot run in an `n`-node
/// cluster, as a [`SimError::InvalidOp`].
fn first_invalid_op(rank: usize, program: &Program, n: usize) -> Option<SimError> {
    let mut open = Vec::new();
    for (op, o) in program.ops().iter().enumerate() {
        let detail = match *o {
            Op::Send {
                dst: SendTarget::Rank(d),
                ..
            } if d.index() >= n || d.index() == rank => {
                format!("sends to {d}, not to another of the cluster's {n} ranks")
            }
            Op::RegionStart(r) if open.contains(&r) => format!("starts {r} while it is open"),
            Op::RegionEnd(r) if !open.contains(&r) => format!("ends {r} before it starts"),
            Op::RegionStart(r) => {
                open.push(r);
                continue;
            }
            Op::RegionEnd(r) => {
                open.retain(|&x| x != r);
                continue;
            }
            _ => continue,
        };
        return Some(SimError::InvalidOp { rank, op, detail });
    }
    None
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooFewNodes { n } => {
                write!(f, "a cluster needs at least 2 nodes, got {n}")
            }
            SimError::RankMismatch { index, rank } => {
                write!(f, "program {index} is for rank {rank}, want rank {index}")
            }
            SimError::ZeroShards => write!(f, "a sharded run needs at least one worker"),
            SimError::InvalidOp { rank, op, detail } => write!(f, "rank {rank}'s op {op} {detail}"),
            SimError::UnsupportedSwitch {
                engine,
                switch,
                reason,
            } => write!(
                f,
                "the {} engine does not support the {switch} switch ({reason})",
                engine.name()
            ),
            SimError::TooFewSwitchPorts { ports, nodes } => {
                write!(f, "latency matrix has {ports} ports for {nodes} nodes")
            }
            SimError::InvalidFabric(reason) => {
                write!(f, "invalid fabric configuration: {reason}")
            }
            SimError::InvalidChaos(reason) => {
                write!(f, "invalid chaos configuration: {reason}")
            }
            SimError::InvalidHostWork(factor) => write!(
                f,
                "invalid host_work_per_op {factor}: the factor must be finite and >= 0"
            ),
            SimError::ScenarioParse {
                file,
                line,
                message,
            } => {
                if *line == 0 {
                    write!(f, "{file}: scenario parse error: {message}")
                } else {
                    write!(f, "{file}:{line}: scenario parse error: {message}")
                }
            }
            SimError::ScenarioValidate { file, message } => {
                write!(f, "{file}: invalid scenario: {message}")
            }
            SimError::Deadlock { nodes } => {
                write!(
                    f,
                    "workload deadlock: no packets in flight and nodes blocked: {nodes}"
                )
            }
            SimError::QuantumCapExceeded { engine, max_quanta } => write!(
                f,
                "quantum cap exceeded: the {} engine ran {max_quanta} quanta without \
                 finishing — workload deadlock?",
                engine.name()
            ),
            SimError::SimTimeOverflow { engine, quanta } => write!(
                f,
                "simulated time overflowed u64 nanoseconds on the {} engine after {quanta} quanta",
                engine.name()
            ),
            SimError::HostClockOverflow { quanta } => write!(
                f,
                "modelled host clock overflowed u64 nanoseconds after {quanta} quanta"
            ),
            SimError::EngineInvariant { detail } => {
                write!(f, "engine invariant violated: {detail}")
            }
            SimError::SnapshotFormat { detail } => {
                write!(f, "invalid snapshot: {detail}")
            }
            SimError::SnapshotChecksum { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, \
                 payload hashes to {actual:#018x}"
            ),
            SimError::SnapshotSpecMismatch { snapshot, sim } => write!(
                f,
                "snapshot is from a different simulation spec \
                 (snapshot fingerprint {snapshot:#018x}, this sim {sim:#018x})"
            ),
            SimError::SnapshotRngStream { node } => write!(
                f,
                "snapshot RNG stream for node {node} fails its probe check \
                 (stream advanced or rewound since capture)"
            ),
            SimError::SnapshotQuantumUnreachable {
                requested,
                completed,
            } => write!(
                f,
                "cannot snapshot at quantum {requested}: the run finished \
                 after {completed} quanta"
            ),
            SimError::SnapshotStatefulSwitch { switch } => write!(
                f,
                "cannot snapshot or resume a run on the {switch} switch: a snapshot does \
                 not carry the switch's queues"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Wall-clock of a run — modelled host time (deterministic engine) or real
/// elapsed time (worker-pool engines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WallClock {
    /// Modelled host duration (exactly reproducible).
    Modelled(HostDuration),
    /// Real measured duration (machine-dependent).
    Real(Duration),
}

impl WallClock {
    /// The wall-clock in seconds, whichever kind it is.
    pub fn as_secs_f64(&self) -> f64 {
        match self {
            WallClock::Modelled(d) => d.as_secs_f64(),
            WallClock::Real(d) => d.as_secs_f64(),
        }
    }
}

/// Engine-specific result payload carried by a [`RunReport`].
///
/// The results are boxed: they embed per-node results and straggler
/// histograms and would otherwise dominate every report's size.
#[derive(Clone, Debug)]
pub enum EngineDetail {
    /// Full deterministic-engine result.
    Deterministic(Box<RunResult>),
    /// Full sharded-engine result.
    Sharded(Box<ShardedRunResult>),
    /// Full sharded-optimistic result, for both the pure and the hybrid
    /// kind ([`RunReport::engine`] tells them apart).
    ShardedOptimistic(Box<ShardedOptimisticRunResult>),
}

impl EngineDetail {
    /// Per-node outcomes, in rank order, whichever engine ran.
    pub fn per_node(&self) -> &[NodeResult] {
        match self {
            EngineDetail::Deterministic(r) => &r.per_node,
            EngineDetail::Sharded(r) => &r.per_node,
            EngineDetail::ShardedOptimistic(r) => &r.per_node,
        }
    }

    /// The deterministic result, if this run used that engine.
    pub fn as_deterministic(&self) -> Option<&RunResult> {
        match self {
            EngineDetail::Deterministic(r) => Some(r),
            _ => None,
        }
    }

    /// The sharded result, if this run used that engine.
    pub fn as_sharded(&self) -> Option<&ShardedRunResult> {
        match self {
            EngineDetail::Sharded(r) => Some(r),
            _ => None,
        }
    }

    /// The sharded-optimistic result, if this run used that engine (in
    /// either its pure or hybrid form).
    pub fn as_sharded_optimistic(&self) -> Option<&ShardedOptimisticRunResult> {
        match self {
            EngineDetail::ShardedOptimistic(r) => Some(r),
            _ => None,
        }
    }
}

/// The engine-independent functional outcome of a run: everything that must
/// be bit-identical when two runs simulate the same workload exactly —
/// across engines under the safe quantum, or between recorded and
/// unrecorded runs of the same engine. Wall-clock and engine-specific
/// counters (quanta vs. windows) are deliberately excluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimulatedOutcome {
    /// Simulated completion time.
    pub sim_end: SimTime,
    /// Packets delivered.
    pub total_packets: u64,
    /// Messages fully received, summed over nodes.
    pub messages_received: u64,
    /// Stragglers observed.
    pub straggler_count: u64,
    /// Per-node `(rank, finish_sim, ops, messages_received)`.
    pub per_node: Vec<(u32, SimTime, u64, u64)>,
}

/// Common result of a [`Sim`] run, whatever the engine.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Engine that produced this report.
    pub engine: EngineKind,
    /// Label of the synchronization policy.
    pub sync_label: String,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Simulated completion time (max across nodes).
    pub sim_end: SimTime,
    /// Packets delivered over the run.
    pub total_packets: u64,
    /// Messages fully received, summed over nodes.
    pub messages_received: u64,
    /// Straggler statistics.
    pub stragglers: StragglerStats,
    /// Quanta executed, as the engine counts them. The deterministic
    /// engine counts completed barriers; the worker-pool engines count
    /// every round the clock advanced past — committed windows for the
    /// rollback engines — including the one in which the last node
    /// finished, so on the same run they read one more.
    pub total_quanta: u64,
    /// Wall-clock — modelled or real depending on the engine.
    pub wall_clock: WallClock,
    /// The engine's full native result.
    pub detail: EngineDetail,
    /// The flight recorder, when [`Sim::record`] was used.
    pub obs: Option<FlightRecorder>,
}

impl RunReport {
    /// Wall-clock speedup of this run relative to `baseline`. Returns 0.0
    /// when the baseline took no measurable time (instead of dividing by
    /// zero).
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        let base = baseline.wall_clock.as_secs_f64();
        let own = self.wall_clock.as_secs_f64();
        if base <= 0.0 {
            return 0.0;
        }
        base / own.max(1e-12)
    }

    /// The engine-independent functional outcome (see [`SimulatedOutcome`]).
    pub fn simulated_outcome(&self) -> SimulatedOutcome {
        let per_node = self.detail.per_node().iter();
        let per_node = per_node
            .map(|n| (n.rank.as_u32(), n.finish_sim, n.ops, n.messages_received))
            .collect();
        SimulatedOutcome {
            sim_end: self.sim_end,
            total_packets: self.total_packets,
            messages_received: self.messages_received,
            straggler_count: self.stragglers.count(),
            per_node,
        }
    }
}

/// Builder for a cluster simulation run on any engine.
///
/// Every setter is consuming (`self -> Self`) and **order-independent**:
/// setters only store values, and nothing is derived until [`Sim::run`].
/// The one exception to watch is [`Sim::config`], which replaces the whole
/// base [`ClusterConfig`] — call it before the convenience setters
/// ([`Sim::sync`], [`Sim::seed`]) that write into that config.
///
/// See the [module docs](self) for an example.
#[derive(Clone, Debug)]
pub struct Sim {
    programs: Vec<Program>,
    engine: EngineKind,
    config: ClusterConfig,
    switch: SimSwitch,
    host_work_per_op: f64,
    max_quanta: u64,
    shards: Option<usize>,
    cascade_bound: u32,
    hybrid_policy: HybridPolicy,
    obs: Option<ObsConfig>,
    chaos: Option<ChaosConfig>,
    full_sweep: bool,
}

impl Sim {
    /// Starts a builder for `programs` (one per node, rank *i* on node *i*)
    /// with the deterministic engine, the paper's ground-truth quantum, and
    /// no recording.
    pub fn new(programs: Vec<Program>) -> Self {
        Self {
            programs,
            engine: EngineKind::Deterministic,
            config: ClusterConfig::new(SyncConfig::ground_truth()),
            switch: SimSwitch::Perfect,
            host_work_per_op: 0.0,
            max_quanta: u64::MAX,
            shards: None,
            cascade_bound: 8,
            hybrid_policy: HybridPolicy::default(),
            obs: None,
            chaos: None,
            full_sweep: false,
        }
    }

    /// Selects the engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the whole base [`ClusterConfig`] (models, seed, policy).
    /// Call before [`Sim::sync`]/[`Sim::seed`], which modify this config.
    #[must_use]
    pub fn config(mut self, config: ClusterConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the synchronization policy.
    #[must_use]
    pub fn sync(mut self, sync: SyncConfig) -> Self {
        self.config.sync = sync;
        self
    }

    /// Sets the experiment seed (deterministic engine).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the switch timing model (see [`SimSwitch`] for engine support).
    #[must_use]
    pub fn switch(mut self, switch: SimSwitch) -> Self {
        self.switch = switch;
        self
    }

    /// Worker-pool engines: real host nanoseconds of busy-work burned per
    /// simulated operation — emulates the execution cost of the node
    /// simulator itself. Zero (the default) runs the functional simulation
    /// at full speed. A negative or non-finite factor is rejected by
    /// [`Sim::run`]/[`Sim::try_run`] with [`SimError::InvalidHostWork`].
    #[must_use]
    pub fn host_work_per_op(mut self, factor: f64) -> Self {
        self.host_work_per_op = factor;
        self
    }

    /// Worker-pool engines: hard cap on quanta (deadlock guard).
    #[must_use]
    pub fn max_quanta(mut self, max: u64) -> Self {
        self.max_quanta = max;
        self
    }

    /// Worker-pool engines: number of worker threads (shards). Defaults to the
    /// host's available parallelism; always clamped to the node count
    /// (`min(m, n)`), so over-asking is harmless. Functional results are
    /// identical for every value.
    ///
    /// Zero is rejected by [`Sim::run`]/[`Sim::try_run`] with
    /// [`SimError::ZeroShards`] — the setter itself never panics, so a job
    /// server can surface the error instead of crashing.
    #[must_use]
    pub fn shards(mut self, m: usize) -> Self {
        self.shards = Some(m);
        self
    }

    /// Sharded-optimistic engines: how many re-executions a shard may take
    /// within one window before it is frozen and degraded to conservative
    /// execution for the next window. Zero means every violation degrades
    /// immediately (fully conservative after the first straggler).
    #[must_use]
    pub fn cascade_bound(mut self, bound: u32) -> Self {
        self.cascade_bound = bound;
        self
    }

    /// Hybrid engine: the adaptive conservative/optimistic switching policy
    /// (ignored by every other engine).
    #[must_use]
    pub fn hybrid_policy(mut self, policy: HybridPolicy) -> Self {
        self.hybrid_policy = policy;
        self
    }

    /// Attaches deterministic chaos middleware (seeded link flaps,
    /// partitions, packet loss, jitter, node pauses, load spikes — see
    /// [`ChaosConfig`]) on top of the configured switch. The overlay's
    /// extra delay is a pure function of `(src, dst, bytes, departure)`
    /// keyed on `(seed, epoch)`, so the same faults replay bit-identically
    /// on every engine and for every worker count.
    #[must_use]
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sharded engines: disable active-set scheduling and execute every
    /// node every quantum (the legacy full sweep). A debug/differential
    /// knob: active-set runs must be bit-identical to full-sweep runs, and
    /// the conformance oracles prove it by running both. Deliberately
    /// excluded from [`Sim::fingerprint`] — like the engine choice, it
    /// cannot change the simulated world.
    #[must_use]
    pub fn force_full_sweep(mut self, on: bool) -> Self {
        self.full_sweep = on;
        self
    }

    /// Attaches a quantum-level flight recorder; the report's
    /// [`RunReport::obs`] will carry it. Recording never perturbs simulated
    /// results and adds no lock to any engine's packet path.
    #[must_use]
    pub fn record(mut self, obs: ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Runs the simulation, panicking on configuration errors.
    ///
    /// This is the convenience wrapper for tests, benches, and examples
    /// where a bad configuration is a bug; [`Sim::try_run`] is the primary
    /// entry point and the one anything driven by external input (the CLI,
    /// the scenario runner, a job server) should call.
    ///
    /// # Panics
    ///
    /// Panics with a [`SimError`]'s message on any configuration error
    /// (fewer than two programs, program *i* not for rank *i*, an op no
    /// engine can run, zero shards, an invalid host-work factor, an
    /// engine/switch combination the engine does not support), or on the
    /// engine's own failure modes (deadlock, quantum-cap overflow).
    pub fn run(self) -> RunReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation, returning errors instead of panicking on them.
    /// This is the primary entry point — [`Sim::run`] is
    /// `try_run().unwrap()` in convenience clothing.
    ///
    /// A broken workload discovered mid-run is an error too, on every
    /// engine: a deadlock is [`SimError::Deadlock`], running past the
    /// quantum cap is [`SimError::QuantumCapExceeded`], an overflowing
    /// host clock is [`SimError::HostClockOverflow`] and a quantum edge
    /// past `u64::MAX` ns is [`SimError::SimTimeOverflow`].
    ///
    /// # Examples
    ///
    /// ```
    /// use aqs_cluster::{Sim, SimError};
    ///
    /// let err = Sim::new(Vec::new()).try_run().unwrap_err();
    /// assert_eq!(err, SimError::TooFewNodes { n: 0 });
    /// ```
    pub fn try_run(self) -> Result<RunReport, SimError> {
        let net = self.validate()?;
        self.run_with(net, None)
    }

    /// Runs the simulation reporting to `recorder` — any [`Recorder`], on
    /// any engine — and hands it back beside the report. This is the run
    /// every other entry goes through: [`Sim::try_run`] passes a
    /// [`NullRecorder`], or after [`Sim::record`] a [`FlightRecorder`] that
    /// it then stores in [`RunReport::obs`] (here `obs` stays `None`, and a
    /// [`Sim::record`] setting is not used). See the [module docs](self) for
    /// a custom recorder.
    ///
    /// # Errors
    ///
    /// Everything [`Sim::try_run`] rejects.
    pub fn run_with_recorder<R: Recorder>(self, recorder: R) -> Result<(RunReport, R), SimError> {
        let net = self.validate()?;
        self.dispatch(net, recorder, None)
    }

    /// Shared tail of [`Sim::try_run`] and [`Sim::resume`]: wires up the
    /// recorder and dispatches, optionally seeding the engine from a
    /// snapshot body. `net` is what the caller's validation built.
    fn run_with(
        self,
        net: NetworkController,
        resume: Option<&SnapshotBody>,
    ) -> Result<RunReport, SimError> {
        let n = self.programs.len();
        Ok(match self.obs {
            Some(oc) => {
                let rec = FlightRecorder::new(n, oc);
                let (mut report, rec) = self.dispatch(net, rec, resume)?;
                report.obs = Some(rec);
                report
            }
            None => self.dispatch(net, NullRecorder, resume)?.0,
        })
    }

    /// Checks everything that can be rejected before an engine starts, and
    /// returns what the network half of the checks builds anyway: the run's
    /// one [`NetworkController`].
    fn validate(&self) -> Result<NetworkController, SimError> {
        if self.shards == Some(0) {
            return Err(SimError::ZeroShards);
        }
        if !(self.host_work_per_op.is_finite() && self.host_work_per_op >= 0.0) {
            return Err(SimError::InvalidHostWork(self.host_work_per_op.to_string()));
        }
        let chaos = self.chaos.map(ChaosOverlay::new).transpose();
        let chaos = chaos.map_err(SimError::InvalidChaos)?;
        let (n, nic) = (self.programs.len(), self.config.nic);
        let net = NetworkController::new(n, nic, &self.switch, chaos)?;
        check_programs(&self.programs)?;
        Ok(net)
    }

    /// [`Sim::validate`] for the snapshot entry points, which a stateful
    /// switch cannot use: its queues are not part of a snapshot (and the
    /// format is pinned by every journal already written), so a resumed run
    /// would restart them empty and finish early without a word.
    fn validate_snapshottable(&self) -> Result<NetworkController, SimError> {
        let net = self.validate()?;
        if net.is_stateful() {
            return Err(SimError::SnapshotStatefulSwitch {
                switch: self.switch.name(),
            });
        }
        Ok(net)
    }

    fn dispatch<R: Recorder>(
        self,
        net: NetworkController,
        rec: R,
        resume: Option<&SnapshotBody>,
    ) -> Result<(RunReport, R), SimError> {
        let Sim {
            programs,
            engine,
            config,
            switch,
            host_work_per_op,
            max_quanta,
            shards,
            cascade_bound,
            hybrid_policy,
            obs: _,
            chaos: _,
            full_sweep,
        } = self;
        if engine == EngineKind::Deterministic {
            let (r, rec) = match run_cluster_det(programs, &config, net, rec, resume, None)? {
                DetOutcome::Finished(r, rec) => (*r, rec),
                DetOutcome::Captured(_) => unreachable!("no capture was requested"),
            };
            return Ok((det_report(r), rec));
        }
        // A worker pool shares the network between its threads, and only the
        // pure routing core can be shared.
        let Some(net) = net.into_router() else {
            return Err(SimError::UnsupportedSwitch {
                engine,
                switch: switch.name(),
                reason: "stateful models would serialize the packet path",
            });
        };
        let pcfg = ParallelConfig {
            sync: config.sync,
            cpu: config.cpu,
            host_work_per_op,
            max_quanta,
            full_sweep,
        };
        let sync_label = pcfg.sync.build().label();
        let (detail, rec) = match engine {
            EngineKind::Deterministic => unreachable!("returned above"),
            EngineKind::Sharded => {
                let (r, rec) = run_sharded_impl(programs, &pcfg, net, shards, rec, resume)?;
                (EngineDetail::Sharded(Box::new(r)), rec)
            }
            EngineKind::ShardedOptimistic | EngineKind::Hybrid => {
                let opts = ShardedOptimisticOpts {
                    cascade_bound,
                    hybrid: (engine == EngineKind::Hybrid).then_some(hybrid_policy),
                };
                let (r, rec) =
                    run_sharded_optimistic_impl(programs, &pcfg, net, shards, opts, rec, resume)?;
                (EngineDetail::ShardedOptimistic(Box::new(r)), rec)
            }
        };
        Ok((pool_report(engine, sync_label, detail), rec))
    }

    /// The spec fingerprint stamped into snapshots and compared at
    /// [`Sim::resume`]: a hash of everything that defines the *simulated
    /// world* — programs, base config, switch, host-work factor, quantum
    /// cap, and chaos plan. The engine choice, shard count, and
    /// rollback tuning knobs are deliberately excluded so a snapshot
    /// captured once resumes on any engine.
    pub fn fingerprint(&self) -> u64 {
        let mut spec = String::from("aqs-spec-v2");
        for part in [
            format!("{:?}", self.programs),
            format!("{:?}", self.config),
            format!("{:?}", self.switch),
            format!("{:?}", self.host_work_per_op),
            format!("{:?}", self.max_quanta),
            format!("{:?}", self.chaos),
        ] {
            spec.push('\x1f');
            spec.push_str(&part);
        }
        aqs_rng::fnv1a(spec.as_bytes())
    }

    /// Captures a snapshot of this simulation's state at the edge of
    /// completed quantum `quantum` (so `1` is the earliest capturable cut).
    ///
    /// The capture run executes the deterministic engine on a clone of this
    /// builder; at a quantum edge every engine agrees on the simulated
    /// state, so the snapshot resumes on any engine. The builder itself is
    /// untouched — capture is a read-only probe.
    ///
    /// # Errors
    ///
    /// Everything [`Sim::try_run`] rejects, plus
    /// [`SimError::SnapshotQuantumUnreachable`] when the run finishes
    /// before `quantum` quanta complete and
    /// [`SimError::SnapshotStatefulSwitch`] on a stateful switch. `quantum`
    /// of zero is [`Sim::step_snapshot`]'s [`SimError::SnapshotFormat`]
    /// configuration error, returned before anything runs.
    pub fn snapshot_at(&self, quantum: u64) -> Result<SimSnapshot, SimError> {
        match self.step_snapshot(None, quantum)? {
            SnapshotStep::Snapshot(snap) => Ok(snap),
            SnapshotStep::Finished(r) => Err(SimError::SnapshotQuantumUnreachable {
                requested: quantum,
                completed: r.total_quanta,
            }),
        }
    }

    /// Resumes this simulation from `snapshot` on the configured engine and
    /// runs it to completion.
    ///
    /// The report is bit-identical in its [`RunReport::simulated_outcome`]
    /// to an uninterrupted run of the same builder; counters that describe
    /// the whole run (packets, quanta, stragglers) continue from the
    /// snapshot, while the recorded samples ([`Sim::record`]) cover only the
    /// resumed suffix — numbered from the cut, not from zero.
    ///
    /// # Errors
    ///
    /// Everything [`Sim::try_run`] rejects, plus
    /// [`SimError::SnapshotSpecMismatch`] when the snapshot's fingerprint
    /// is not this builder's [`Sim::fingerprint`] and
    /// [`SimError::SnapshotStatefulSwitch`] on a stateful switch.
    pub fn resume(&self, snapshot: &SimSnapshot) -> Result<RunReport, SimError> {
        let net = self.validate_snapshottable()?;
        self.checked_fingerprint(Some(snapshot))?;
        self.clone().run_with(net, Some(&snapshot.body))
    }

    /// This builder's [`Sim::fingerprint`], after checking that `from` was
    /// captured under it.
    fn checked_fingerprint(&self, from: Option<&SimSnapshot>) -> Result<u64, SimError> {
        let fingerprint = self.fingerprint();
        match from {
            Some(s) if s.body.fingerprint != fingerprint => Err(SimError::SnapshotSpecMismatch {
                snapshot: s.body.fingerprint,
                sim: fingerprint,
            }),
            _ => Ok(fingerprint),
        }
    }

    /// Advances the simulation by at most `quanta` more quanta on the
    /// deterministic engine, starting from `from` (or from time zero), and
    /// returns either the next snapshot or the finished report.
    ///
    /// This is the checkpointed-execution primitive the resident job server
    /// builds on: run a chunk, persist the returned snapshot, repeat — a
    /// crash loses at most one chunk of work.
    ///
    /// # Errors
    ///
    /// Everything [`Sim::resume`] rejects; `quanta` of zero is a
    /// [`SimError::SnapshotFormat`] configuration error.
    pub fn step_snapshot(
        &self,
        from: Option<&SimSnapshot>,
        quanta: u64,
    ) -> Result<SnapshotStep, SimError> {
        let net = self.validate_snapshottable()?;
        if quanta == 0 {
            return Err(SimError::snapshot_format(
                "step_snapshot needs a positive quantum budget",
            ));
        }
        let fingerprint = self.checked_fingerprint(from)?;
        let capture_at = from.map_or(0, |s| s.body.quanta) + quanta;
        match run_cluster_det(
            self.programs.clone(),
            &self.config,
            net,
            NullRecorder,
            from.map(|s| &s.body),
            Some(capture_at),
        )? {
            DetOutcome::Captured(mut body) => {
                body.fingerprint = fingerprint;
                Ok(SnapshotStep::Snapshot(SimSnapshot { body: *body }))
            }
            DetOutcome::Finished(r, _) => Ok(SnapshotStep::Finished(Box::new(det_report(*r)))),
        }
    }
}

/// What one [`Sim::step_snapshot`] chunk produced.
#[derive(Debug)]
pub enum SnapshotStep {
    /// The chunk's quantum budget ran out at this cut; persist and continue.
    Snapshot(SimSnapshot),
    /// The run finished inside the chunk.
    Finished(Box<RunReport>),
}

/// Folds a worker-pool engine's native result into the unified report.
fn pool_report(engine: EngineKind, sync_label: String, detail: EngineDetail) -> RunReport {
    let (sim_end, total_packets, stragglers, total_quanta, wall) = match &detail {
        EngineDetail::Sharded(r) => (
            r.sim_end,
            r.total_packets,
            r.stragglers,
            r.total_quanta,
            r.wall,
        ),
        EngineDetail::ShardedOptimistic(r) => {
            (r.sim_end, r.total_packets, r.stragglers, r.windows, r.wall)
        }
        EngineDetail::Deterministic(_) => unreachable!("not a worker-pool result"),
    };
    let per_node = detail.per_node();
    RunReport {
        engine,
        sync_label,
        n_nodes: per_node.len(),
        sim_end,
        total_packets,
        messages_received: per_node.iter().map(|p| p.messages_received).sum(),
        stragglers,
        total_quanta,
        wall_clock: WallClock::Real(wall),
        detail,
        obs: None,
    }
}

/// Folds a deterministic-engine [`RunResult`] into the unified report.
fn det_report(r: RunResult) -> RunReport {
    let messages = r.per_node.iter().map(|p| p.messages_received).sum();
    RunReport {
        engine: EngineKind::Deterministic,
        sync_label: r.sync_label.clone(),
        n_nodes: r.n_nodes,
        sim_end: r.sim_end,
        total_packets: r.total_packets,
        messages_received: messages,
        stragglers: r.stragglers,
        total_quanta: r.total_quanta,
        wall_clock: WallClock::Modelled(r.host_elapsed),
        detail: EngineDetail::Deterministic(Box::new(r)),
        obs: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqs_net::StoreAndForwardSwitch;
    use aqs_time::SimDuration;
    use aqs_workloads::{burst, ping_pong};

    #[test]
    fn four_engines_one_builder_agree_under_safe_quantum() {
        let spec = burst(4, 50_000, 1024);
        let mk = |engine, m| {
            Sim::new(spec.programs.clone())
                .engine(engine)
                .sync(SyncConfig::ground_truth())
                .shards(m)
                .run()
        };
        let det = mk(EngineKind::Deterministic, 2);
        let shd = mk(EngineKind::Sharded, 2);
        // One worker per node: the paper's thread-per-node system.
        let per_node = mk(EngineKind::Sharded, 4);
        let opt = mk(EngineKind::ShardedOptimistic, 1);
        let hyb = mk(EngineKind::Hybrid, 2);
        for other in [&shd, &per_node, &opt, &hyb] {
            assert_eq!(det.simulated_outcome(), other.simulated_outcome());
            assert!(matches!(other.wall_clock, WallClock::Real(_)));
            assert!(other.detail.as_deterministic().is_none());
        }
        assert_eq!(shd.engine.name(), "sharded");
        assert_eq!(shd.detail.as_sharded().expect("sharded detail").workers, 2);
        assert_eq!(per_node.detail.as_sharded().expect("detail").workers, 4);
        assert_eq!(opt.engine.name(), "sharded-optimistic");
        assert!(opt.detail.as_sharded_optimistic().is_some());
        assert_eq!(det.engine.name(), "deterministic");
        assert!(matches!(det.wall_clock, WallClock::Modelled(_)));
        assert!(det.detail.as_deterministic().is_some());
        assert!(det.detail.as_sharded().is_none());
    }

    #[test]
    fn engine_names_parse_as_the_inverse_of_name_with_retired_ones_rejected() {
        use EngineKind::*;
        for kind in [Deterministic, Sharded, ShardedOptimistic, Hybrid] {
            assert_eq!(kind.name().parse(), Ok(kind));
        }
        assert_eq!("det".parse(), Ok(Deterministic));
        assert_eq!("sharded_optimistic".parse(), Ok(ShardedOptimistic));
        for (name, fragment) in [
            ("threaded", "retired: use `sharded` with one worker"),
            ("optimistic", "retired: use `sharded-optimistic` on one"),
            ("warp", "unknown engine `warp` (deterministic | sharded |"),
            ("Sharded", "unknown engine `Sharded`"),
            ("", "unknown engine ``"),
        ] {
            let err = name.parse::<EngineKind>().unwrap_err();
            assert!(err.contains(fragment), "{name:?}: {err}");
        }
    }

    #[test]
    fn recording_is_invisible_to_the_simulation() {
        let spec = ping_pong(2, 5, 64);
        let mk = || {
            Sim::new(spec.programs.clone())
                .engine(EngineKind::Deterministic)
                .sync(SyncConfig::paper_dyn1())
        };
        let plain = mk().run();
        let recorded = mk().record(ObsConfig::new()).run();
        assert_eq!(plain.simulated_outcome(), recorded.simulated_outcome());
        assert!(plain.obs.is_none());
        let fr = recorded.obs.expect("recorder attached");
        assert_eq!(fr.total_packets(), recorded.total_packets);
    }

    #[test]
    fn speedup_guards_zero_baseline() {
        let spec = ping_pong(2, 1, 64);
        let mut a = Sim::new(spec.programs.clone()).run();
        let b = Sim::new(spec.programs).run();
        assert!(b.speedup_vs(&a) > 0.0);
        a.wall_clock = WallClock::Modelled(HostDuration::ZERO);
        assert_eq!(b.speedup_vs(&a), 0.0, "zero baseline must not divide");
    }

    #[test]
    fn chaos_is_bit_identical_across_engines_and_worker_counts() {
        let spec = burst(4, 20_000, 4096);
        let chaos = ChaosConfig::new(42)
            .with_link_flap(0.1)
            .with_loss(0.2, SimDuration::from_micros(150))
            .with_jitter(SimDuration::from_micros(3));
        let mk = |engine, shards| {
            let mut sim = Sim::new(spec.programs.clone())
                .engine(engine)
                .sync(SyncConfig::ground_truth())
                .chaos(chaos);
            if let Some(m) = shards {
                sim = sim.shards(m);
            }
            sim.run().simulated_outcome()
        };
        let det = mk(EngineKind::Deterministic, None);
        for m in [1, 2, 4] {
            assert_eq!(det, mk(EngineKind::Sharded, Some(m)), "sharded m={m}");
        }
        // Chaos must actually perturb the run, not silently no-op.
        let clean = Sim::new(spec.programs.clone())
            .sync(SyncConfig::ground_truth())
            .run()
            .simulated_outcome();
        assert!(det.sim_end > clean.sim_end, "faults must delay completion");
        assert_eq!(det.messages_received, clean.messages_received);
    }

    #[test]
    fn invalid_chaos_is_a_typed_error() {
        let spec = ping_pong(2, 1, 64);
        let err = Sim::new(spec.programs)
            .chaos(ChaosConfig::new(1).with_link_flap(2.0))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidChaos(_)), "got {err:?}");
    }

    #[test]
    #[should_panic(expected = "does not support the StoreAndForward switch")]
    fn worker_pool_engines_reject_stateful_switch() {
        let spec = ping_pong(2, 1, 64);
        let _ = Sim::new(spec.programs)
            .engine(EngineKind::Sharded)
            .switch(SimSwitch::StoreAndForward(StoreAndForwardSwitch::new(
                SimDuration::ZERO,
                1_000_000_000,
            )))
            .run();
    }

    /// Strong equality for the deterministic engine: every field an
    /// uninterrupted run and a resumed run must agree on (recorded quantum
    /// traces are suffix-only on resume and deliberately excluded).
    fn det_strong(report: &RunReport) -> (SimulatedOutcome, u64, WallClock) {
        (
            report.simulated_outcome(),
            report.total_quanta,
            report.wall_clock,
        )
    }

    #[test]
    fn det_resume_is_bit_identical_under_an_adaptive_policy() {
        let spec = burst(4, 20_000, 1024);
        let sim = Sim::new(spec.programs.clone()).sync(SyncConfig::paper_dyn1());
        let full = sim.clone().run();
        assert!(full.total_quanta > 4, "need a mid-run cut");
        for cut in [1, full.total_quanta / 2, full.total_quanta - 1] {
            let snap = sim.snapshot_at(cut).expect("capturable cut");
            assert_eq!(snap.quanta(), cut);
            let resumed = sim.resume(&snap).expect("resume succeeds");
            assert_eq!(det_strong(&resumed), det_strong(&full), "cut={cut}");
        }
    }

    #[test]
    fn det_resume_survives_a_serialization_round_trip() {
        let spec = ping_pong(3, 10, 4096);
        let sim = Sim::new(spec.programs.clone()).sync(SyncConfig::paper_dyn2());
        let full = sim.clone().run();
        let snap = sim.snapshot_at(2).expect("capturable cut");
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, snap);
        let resumed = sim.resume(&back).expect("resume succeeds");
        assert_eq!(det_strong(&resumed), det_strong(&full));
    }

    #[test]
    fn every_parallel_engine_resumes_bit_identically_under_ground_truth() {
        let spec = burst(5, 2_000, 1024);
        let base = Sim::new(spec.programs.clone()).sync(SyncConfig::ground_truth());
        let full_det = base.clone().run();
        let snap = base
            .snapshot_at(full_det.total_quanta / 2)
            .expect("capturable cut");
        for kind in [
            EngineKind::Sharded,
            EngineKind::ShardedOptimistic,
            EngineKind::Hybrid,
        ] {
            for m in [1, 2, 5] {
                let sim = base.clone().engine(kind).shards(m);
                let full = sim.clone().run();
                let resumed = sim.resume(&snap).expect("resume succeeds");
                assert_eq!(
                    resumed.simulated_outcome(),
                    full.simulated_outcome(),
                    "kind={kind:?} m={m}"
                );
                assert_eq!(
                    resumed.simulated_outcome(),
                    full_det.simulated_outcome(),
                    "kind={kind:?} m={m} vs det"
                );
                assert_eq!(resumed.total_quanta, full.total_quanta);
            }
        }
    }

    #[test]
    fn a_corrupt_node_state_fails_a_sharded_resume_typed_on_every_worker_count() {
        use aqs_node::{AssemblingState, MessageId, MessageMeta, Rank, Tag};
        use std::time::Duration;
        // The sharded engine restores each node on the worker that owns it,
        // so a node that fails to restore is found by one worker while its
        // peers are already building: the error must still come back typed,
        // naming the lowest bad node, with nobody left at the barrier.
        let spec = burst(6, 2_000, 1024);
        let base = Sim::new(spec.programs.clone()).sync(SyncConfig::ground_truth());
        let mid = base.clone().run().total_quanta / 2;
        let good = base.snapshot_at(mid).expect("capturable cut");
        let past_the_end = |snap: &mut SimSnapshot, i: usize| {
            snap.body.nodes[i].exec.pc = 9_999;
        };
        let short_mask = |snap: &mut SimSnapshot, i: usize| {
            snap.body.nodes[i]
                .exec
                .mailbox
                .assembling
                .push(AssemblingState {
                    meta: MessageMeta {
                        id: MessageId {
                            src: Rank::new(0),
                            seq: 77,
                        },
                        tag: Tag::new(0),
                        bytes: 27_000,
                        frag_count: 3,
                    },
                    received_mask: vec![true],
                    latest_arrival: SimTime::ZERO,
                });
        };
        type Corrupt<'a> = &'a dyn Fn(&mut SimSnapshot, usize);
        let cases: [(Corrupt, &[usize], &str); 3] = [
            (&past_the_end, &[5], "node 5: pc 9999 beyond program length"),
            (
                &short_mask,
                &[3],
                "node 3: message rank0#77: mask length 1 != frag_count 3",
            ),
            // Two shards fail at once for M = 2 and 4: the lowest wins.
            (
                &past_the_end,
                &[4, 1],
                "node 1: pc 9999 beyond program length",
            ),
        ];
        for (corrupt, nodes, expected) in cases {
            let mut bad = good.clone();
            for &i in nodes {
                corrupt(&mut bad, i);
            }
            for m in [1, 2, 4] {
                let sim = base.clone().engine(EngineKind::Sharded).shards(m);
                let snap = bad.clone();
                // A hang is the failure this guards against: bound it.
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    // The receiver is gone only if the wait below timed out.
                    let _ = tx.send(sim.resume(&snap).err());
                });
                let err = rx
                    .recv_timeout(Duration::from_secs(120))
                    .unwrap_or_else(|_| panic!("resume hung: nodes={nodes:?} m={m}"))
                    .expect("a corrupt node must not resume");
                match err {
                    SimError::SnapshotFormat { detail } => assert!(
                        detail.starts_with(expected),
                        "nodes={nodes:?} m={m}: {detail}"
                    ),
                    other => panic!("nodes={nodes:?} m={m}: {other:?}"),
                }
            }
        }
        // The uncorrupted snapshot still resumes, on the same worker counts.
        for m in [1, 2, 4] {
            let sim = base.clone().engine(EngineKind::Sharded).shards(m);
            let resumed = sim.resume(&good).expect("resume succeeds");
            assert_eq!(
                resumed.simulated_outcome(),
                sim.run().simulated_outcome(),
                "m={m}"
            );
        }
    }

    #[test]
    fn a_crafted_cut_fragment_is_a_typed_error_on_every_engine() {
        use crate::snapshot::{FragSnap, InFlightSnap};
        use aqs_net::{Destination, NodeId};
        use aqs_node::Rank;
        use aqs_workloads::{nas, Scale};
        use std::time::Duration;
        // A cut fragment whose fields disagree with the cluster passes every
        // frame check (`to_bytes` re-stamps the checksum); restoring it must
        // still be a typed error, not a panic or a worker stranded at the
        // barrier.
        let base = Sim::new(nas::cg(4, Scale::Mini).programs).sync(SyncConfig::paper_dyn1());
        let good = (1..)
            .map(|cut| base.snapshot_at(cut).expect("capturable cut"))
            .find(|s| s.body.cut_frags().next().is_some())
            .expect("some cut holds a fragment");
        let src = good.body.cut_frags().next().expect("a cut fragment").0;
        fn first(snap: &mut SimSnapshot) -> &mut FragSnap {
            let body = &mut snap.body;
            if !body.in_flight.is_empty() {
                return &mut body.in_flight[0].frag;
            }
            let queued = body.nodes.iter_mut().find_map(|n| n.outgoing.first_mut());
            queued.expect("a cut fragment")
        }
        type Craft<'a> = &'a dyn Fn(&mut SimSnapshot);
        let cases: [(Craft, &str); 4] = [
            (
                &|s| first(s).frag_index = 1_000,
                "cut fragment index 1000 of ",
            ),
            (
                &|s| first(s).dst = Destination::Unicast(NodeId::new(99)),
                "cut fragment for node 99, but the cluster has 4 nodes",
            ),
            (
                &|s| first(s).meta.id.src = Rank::new((src as u32 + 1) % 4),
                "carries a message id of node",
            ),
            (
                &|s| {
                    let frag = first(s).clone();
                    let due_host = s.body.now_host;
                    s.body.in_flight.insert(
                        0,
                        InFlightSnap {
                            due_host,
                            src: 99,
                            frag,
                        },
                    );
                },
                "cut fragment from node 99, but the cluster has 4 nodes",
            ),
        ];
        for (craft, expected) in cases {
            let mut bad = good.clone();
            craft(&mut bad);
            let bad = SimSnapshot::from_bytes(&bad.to_bytes()).expect("frame checks pass");
            for kind in [
                EngineKind::Deterministic,
                EngineKind::Sharded,
                EngineKind::ShardedOptimistic,
                EngineKind::Hybrid,
            ] {
                let sim = base.clone().engine(kind).shards(2);
                let snap = bad.clone();
                // A hang is one of the failures this guards against: bound it.
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let _ = tx.send(sim.resume(&snap).err());
                });
                let err = rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{kind:?}: resume panicked or hung ({expected})"))
                    .expect("a crafted fragment must not resume");
                match err {
                    SimError::SnapshotFormat { detail } => {
                        assert!(detail.contains(expected), "{kind:?}: {detail}")
                    }
                    other => panic!("{kind:?}: {other:?}"),
                }
            }
        }
        // The uncrafted snapshot still resumes (dyn1 is not a safe quantum,
        // so only the oracle's outcome is the uninterrupted one).
        let resumed = base.resume(&good).expect("resume succeeds");
        assert_eq!(det_strong(&resumed), det_strong(&base.clone().run()));
        let sharded = base.clone().engine(EngineKind::Sharded).shards(2);
        sharded.resume(&good).expect("resume succeeds");
    }

    #[test]
    fn a_cut_fragment_that_contradicts_the_partial_message_is_a_typed_error_on_every_engine() {
        use crate::snapshot::{FragSnap, InFlightSnap};
        use aqs_net::Destination;
        use aqs_node::Tag;
        use std::time::Duration;
        // A multi-fragment ping-pong cut mid-message: the receiver holds part
        // of a message and another fragment of it is cut in flight. Each
        // fragment is valid on its own; against the receiver's partial
        // message it would reach `deliver_fragment`'s asserts.
        let base = Sim::new(ping_pong(2, 3, 64 * 1024).programs).sync(SyncConfig::ground_truth());
        // (position in `cut_frags`, an index the receiver already holds)
        let partial = |s: &SimSnapshot| {
            s.body.cut_frags().enumerate().find_map(|(k, (_, f))| {
                let Destination::Unicast(t) = f.dst else {
                    return None;
                };
                let mailbox = &s.body.nodes[t.index()].exec.mailbox;
                let held = mailbox.assembling.iter().find(|a| a.meta.id == f.meta.id)?;
                Some((k, held.received_mask.iter().position(|&r| r)? as u32))
            })
        };
        let (good, (k, held)) = (1..)
            .map(|cut| base.snapshot_at(cut).expect("capturable cut"))
            .find_map(|s| partial(&s).map(|p| (s, p)))
            .expect("some cut splits a message");
        fn frag(snap: &mut SimSnapshot, k: usize) -> &mut FragSnap {
            let body = &mut snap.body;
            let in_flight = body.in_flight.iter_mut().map(|f| &mut f.frag);
            let queued = body.nodes.iter_mut().flat_map(|n| n.outgoing.iter_mut());
            in_flight.chain(queued).nth(k).expect("a cut fragment")
        }
        type Craft<'a> = &'a dyn Fn(&mut SimSnapshot);
        let cases: [(Craft, &str); 5] = [
            (
                &|s| frag(s, k).frag_index = held,
                "is already in its partial message",
            ),
            (
                &|s| frag(s, k).meta.frag_count += 1,
                "contradicts its partial message",
            ),
            (
                &|s| frag(s, k).meta.bytes += 1,
                "contradicts its partial message",
            ),
            (
                &|s| frag(s, k).meta.tag = Tag::new(77),
                "contradicts its partial message",
            ),
            (
                &|s| {
                    let (src, frag) = s.body.cut_frags().nth(k).expect("a cut fragment");
                    let (src, frag) = (src as u32, frag.clone());
                    let due_host = s.body.now_host;
                    s.body.in_flight.insert(
                        0,
                        InFlightSnap {
                            due_host,
                            src,
                            frag,
                        },
                    );
                },
                "is cut twice",
            ),
        ];
        for (craft, expected) in cases {
            let mut bad = good.clone();
            craft(&mut bad);
            let bad = SimSnapshot::from_bytes(&bad.to_bytes()).expect("frame checks pass");
            for kind in [
                EngineKind::Deterministic,
                EngineKind::Sharded,
                EngineKind::ShardedOptimistic,
                EngineKind::Hybrid,
            ] {
                let sim = base.clone().engine(kind).shards(2);
                let snap = bad.clone();
                // A hang is one of the failures this guards against: bound it.
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let _ = tx.send(sim.resume(&snap).err());
                });
                let err = rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{kind:?}: resume panicked or hung ({expected})"))
                    .expect("a contradicting fragment must not resume");
                match err {
                    SimError::SnapshotFormat { detail } => {
                        assert!(detail.contains(expected), "{kind:?}: {detail}")
                    }
                    other => panic!("{kind:?}: {other:?}"),
                }
            }
        }
        // The uncrafted cut resumes to the uninterrupted outcome.
        let resumed = base.resume(&good).expect("resume succeeds");
        assert_eq!(det_strong(&resumed), det_strong(&base.clone().run()));
    }

    #[test]
    fn snapshot_at_zero_is_the_step_budget_error_before_anything_runs() {
        let sim = Sim::new(ping_pong(2, 5, 64).programs).sync(SyncConfig::paper_dyn1());
        match sim.snapshot_at(0).unwrap_err() {
            SimError::SnapshotFormat { detail } => {
                assert_eq!(detail, "step_snapshot needs a positive quantum budget")
            }
            other => panic!("{other:?}"),
        }
    }

    /// Chunks of 3 quanta under an adaptive policy, and chunks of 1000 —
    /// shorter than a jitter block, so every chunk draws inline — through
    /// ground-truth runs that the uninterrupted engine feeds from its helper
    /// for most of their length, at n = 2, 3 and 8.
    #[test]
    fn step_snapshot_chunks_reach_the_uninterrupted_outcome() {
        let cases = [
            (ping_pong(2, 20, 2048), SyncConfig::paper_dyn1(), 3),
            (burst(2, 4_200_000, 4096), SyncConfig::ground_truth(), 1000),
            (burst(3, 4_200_000, 4096), SyncConfig::ground_truth(), 1000),
            (burst(8, 4_200_000, 4096), SyncConfig::ground_truth(), 1000),
        ];
        for (spec, sync, chunk) in cases {
            let sim = Sim::new(spec.programs.clone()).sync(sync);
            let full = sim.clone().run();
            let mut cursor: Option<SimSnapshot> = None;
            let mut chunks = 0u32;
            let finished = loop {
                match sim.step_snapshot(cursor.as_ref(), chunk).expect("step") {
                    SnapshotStep::Snapshot(s) => {
                        assert!(s.quanta() > cursor.as_ref().map_or(0, |c| c.quanta()));
                        cursor = Some(s);
                        chunks += 1;
                        assert!(chunks < 10_000, "runaway chunk loop");
                    }
                    SnapshotStep::Finished(report) => break report,
                }
            };
            let n = spec.programs.len();
            assert!(chunks > 1, "n={n}: the workload must span several chunks");
            if chunk == 1000 {
                assert!(full.total_quanta > 3 * crate::engine::FEED_BLOCK, "n={n}");
            }
            assert_eq!(det_strong(&finished), det_strong(&full), "n={n}");
        }
    }

    #[test]
    fn engine_failure_modes_are_typed_errors_not_panics() {
        use aqs_node::{ProgramBuilder, Rank, Tag};
        // Rank 0 waits for a message rank 1 never sends.
        let starved = ProgramBuilder::new(Rank::new(0))
            .recv(Some(Rank::new(1)), Tag::new(0))
            .build();
        let silent = ProgramBuilder::new(Rank::new(1)).compute(10).build();
        let programs = vec![starved, silent];
        // The deterministic engine proves the deadlock and names the nodes.
        let err = Sim::new(programs.clone())
            .sync(SyncConfig::fixed_micros(10))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "got {err:?}");
        // The parallel engines hit their quantum cap instead.
        for kind in [
            EngineKind::Sharded,
            EngineKind::ShardedOptimistic,
            EngineKind::Hybrid,
        ] {
            let err = Sim::new(programs.clone())
                .engine(kind)
                .sync(SyncConfig::ground_truth())
                .max_quanta(50)
                .shards(2)
                .try_run()
                .unwrap_err();
            assert_eq!(
                err,
                SimError::QuantumCapExceeded {
                    engine: kind,
                    max_quanta: 50,
                },
                "kind={kind:?}"
            );
        }
    }

    #[test]
    fn snapshot_errors_are_typed() {
        let spec = ping_pong(2, 2, 64);
        let sim = Sim::new(spec.programs.clone()).sync(SyncConfig::ground_truth());
        let completed = sim.clone().run().total_quanta;
        let err = sim.snapshot_at(completed + 10).unwrap_err();
        assert_eq!(
            err,
            SimError::SnapshotQuantumUnreachable {
                requested: completed + 10,
                completed,
            }
        );
        // A snapshot from a different spec is rejected by fingerprint.
        let snap = sim.snapshot_at(1).expect("capturable cut");
        let other = Sim::new(spec.programs.clone()).sync(SyncConfig::fixed_micros(7));
        let err = other.resume(&snap).unwrap_err();
        assert!(
            matches!(err, SimError::SnapshotSpecMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn snapshot_bytes_do_not_depend_on_how_programs_are_stored() {
        use aqs_workloads::{Scale, Workload};
        // `cg 8 mini dyn1`, the job server's chunked case job, cut at its
        // first 2000-quantum edge. The frame embeds the spec fingerprint
        // (a hash over the programs' `Debug` form), so this pin — of a
        // version-3 frame — moves if how `Program` stores its op stream ever
        // becomes visible in snapshots or journals.
        let spec = Workload::parse("cg")
            .expect("cg is a workload")
            .with_scale(Scale::Mini)
            .build(8, 42);
        let sim = Sim::new(spec.programs)
            .sync(SyncConfig::paper_dyn1())
            .seed(42);
        let bytes = sim.snapshot_at(2_000).expect("capturable cut").to_bytes();
        assert_eq!(bytes.len(), 2386);
        assert_eq!(aqs_rng::fnv1a(&bytes), 0x8372_f761_2995_21bd);
    }
}
