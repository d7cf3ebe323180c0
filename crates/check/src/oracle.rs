//! Differential and invariant oracles for one conformance case.
//!
//! [`check_case`] runs a [`CaseSpec`] through the engines and decides
//! pass/fail without any golden file. Two kinds of evidence:
//!
//! * **Differential** — under the ground-truth quantum (1 µs, the safe bound
//!   for the paper's 1 µs minimum latency) no straggler can occur, so every
//!   engine must produce a bit-identical [`aqs_cluster::SimulatedOutcome`].
//!   Any
//!   disagreement is a bug in one of them.
//! * **Invariants** — properties that hold for *any* correct run, checked on
//!   the policy runs where engines legitimately diverge from ground truth:
//!   quantum bounds, Algorithm 1's grow/shrink direction, packet
//!   conservation, the straggler delay bound, and stragglers-vs-dilation
//!   consistency.
//!
//! Engine panics (deadlock, quantum-cap overflow) are caught and reported as
//! failures rather than aborting the whole campaign.

use crate::gen::{CaseSpec, PolicySpec};
use aqs_cluster::{ClusterConfig, EngineKind, RunReport, Sim, SimError, SimSnapshot};
use aqs_core::SyncConfig;
use aqs_net::NicModel;
use aqs_node::{Op, SendTarget};
use aqs_obs::{FlightRecorder, ObsConfig, QuantumObs, Recorder};
use aqs_time::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Ring capacity for policy-run recording; large enough that realistic
/// conformance cases never wrap (checks that need the full history are
/// skipped if one does).
const OBS_RING: usize = 16_384;

/// Knobs for [`check_case_with`].
#[derive(Clone, Debug)]
pub struct CheckOpts {
    /// Run the sharded engine (differential + invariants + cross-M
    /// identity), once per entry of
    /// [`sharded_counts`](Self::sharded_counts).
    pub sharded: bool,
    /// Run the sharded-optimistic engine (differential + rollback-property
    /// invariants), once per entry of [`shard_counts`](Self::shard_counts),
    /// plus the classic single-shard fixed-window configuration, which must
    /// be exact.
    pub sharded_optimistic: bool,
    /// Run the hybrid engine (differential + rollback-property invariants),
    /// once per entry of [`shard_counts`](Self::shard_counts).
    pub hybrid: bool,
    /// Worker counts the sharded engines are exercised with. The engines
    /// clamp each to the node count, so oversized entries still run (as one
    /// worker per node) — deliberately, since results must not depend on M.
    pub shard_counts: Vec<usize>,
    /// Cascade depth bound handed to the sharded-optimistic and hybrid
    /// engines; the rollback-depth oracle checks runs against it.
    pub cascade_bound: u32,
    /// Override the worker-pool engines' quantum cap (deadlock guard).
    /// The default is derived from the ground-truth run and generous;
    /// mutation tests lower it so injected deadlocks fail fast.
    pub quanta_cap: Option<u64>,
    /// Run the crash/resume oracle: snapshot the ground-truth run at its
    /// midpoint barrier, round-trip the snapshot through the wire codec,
    /// and resume on every enabled engine at every shard count — each
    /// resumed run must land on the uninterrupted outcome bit-for-bit. The
    /// deterministic engine is additionally resumed mid-way through the
    /// case's *policy* run, where resume equality must hold even though
    /// engines legitimately dilate time.
    pub resume: bool,
}

impl Default for CheckOpts {
    fn default() -> Self {
        Self {
            sharded: true,
            sharded_optimistic: true,
            hybrid: true,
            shard_counts: vec![1, 2, 3],
            cascade_bound: 8,
            quanta_cap: None,
            resume: true,
        }
    }
}

impl CheckOpts {
    /// Worker counts the conservative sharded engine runs an `n`-node case
    /// with: [`shard_counts`](Self::shard_counts), plus one worker per node
    /// (the paper's thread-per-node shape) when no configured count
    /// reaches `n`.
    pub fn sharded_counts(&self, n: usize) -> Vec<usize> {
        let mut counts = self.shard_counts.clone();
        if counts.iter().all(|&m| m < n) {
            counts.push(n);
        }
        counts
    }
}

/// Checks one case with every engine enabled. See [`check_case_with`].
pub fn check_case(case: &CaseSpec) -> Result<(), String> {
    check_case_with(case, &CheckOpts::default())
}

/// Checks one case; `Err` carries a human-readable description of the first
/// violated oracle, prefixed with the failing run for context.
pub fn check_case_with(case: &CaseSpec, opts: &CheckOpts) -> Result<(), String> {
    let (exp_packets, exp_receives) = expected_counts(case);

    // Phase A: ground truth. Every engine must agree bit-for-bit.
    let det_truth = run_guarded("det ground truth", || {
        sim_for(case, SyncConfig::ground_truth()).run()
    })?;
    if det_truth.stragglers.count() != 0 {
        return Err(format!(
            "det ground truth: safe quantum produced {} stragglers",
            det_truth.stragglers.count()
        ));
    }
    conservation("det ground truth", &det_truth, exp_packets, exp_receives)?;
    let truth = det_truth.simulated_outcome();
    let truth_end_ns = det_truth.sim_end.as_nanos();
    let (lo, hi) = case.policy.quantum_bounds();
    let cap = opts
        .quanta_cap
        .unwrap_or_else(|| default_quanta_cap(truth_end_ns, exp_packets, hi));

    let sharded_counts = opts.sharded_counts(case.n_nodes as usize);
    if opts.sharded {
        for &m in &sharded_counts {
            let sh = run_guarded("sharded ground truth", || {
                sim_for(case, SyncConfig::ground_truth())
                    .engine(EngineKind::Sharded)
                    .shards(m)
                    .max_quanta(cap)
                    .run()
            })?;
            if sh.simulated_outcome() != truth {
                return Err(format!(
                    "differential: sharded ground truth (M={m}) diverged from \
                     deterministic (sim_end {} vs {}, packets {} vs {})",
                    sh.sim_end.as_nanos(),
                    truth_end_ns,
                    sh.total_packets,
                    truth.total_packets,
                ));
            }
        }
    }
    for (enabled, kind) in [
        (opts.sharded_optimistic, EngineKind::ShardedOptimistic),
        (opts.hybrid, EngineKind::Hybrid),
    ] {
        if !enabled {
            continue;
        }
        for &m in &opts.shard_counts {
            let label = format!("{} ground truth (M={m})", kind.name());
            let r = run_guarded(&label, || {
                sim_for(case, SyncConfig::ground_truth())
                    .engine(kind)
                    .shards(m)
                    .cascade_bound(opts.cascade_bound)
                    .max_quanta(cap)
                    .run()
            })?;
            if r.simulated_outcome() != truth {
                return Err(format!(
                    "differential: {label} diverged from deterministic \
                     (sim_end {} vs {}, packets {} vs {})",
                    r.sim_end.as_nanos(),
                    truth_end_ns,
                    r.total_packets,
                    truth.total_packets,
                ));
            }
            let d = r.detail.as_sharded_optimistic().expect("opt detail");
            if d.rollbacks != 0 {
                return Err(format!(
                    "{label}: safe quantum produced {} rollbacks (Q ≤ T forbids \
                     in-window arrivals entirely)",
                    d.rollbacks
                ));
            }
        }
    }
    if opts.sharded_optimistic {
        // The classic window-based optimistic engine: one shard, a fixed
        // 20 µs free-run window (20× the safe bound, so in-window chains
        // really roll back) and a cascade bound no 20-hop chain can reach.
        // It never degrades, so it must be exact.
        let label = "sharded-optimistic 20 µs windows (M=1)";
        let opt = run_guarded(label, || {
            sim_for(case, SyncConfig::fixed_micros(20))
                .engine(EngineKind::ShardedOptimistic)
                .shards(1)
                .cascade_bound(256)
                .max_quanta(cap)
                .run()
        })?;
        let d = opt.detail.as_sharded_optimistic().expect("opt detail");
        if d.degraded_windows != 0 || opt.simulated_outcome() != truth {
            return Err(format!(
                "differential: {label} diverged from deterministic \
                 (sim_end {} vs {}, {} degraded windows)",
                opt.sim_end.as_nanos(),
                truth_end_ns,
                d.degraded_windows,
            ));
        }
    }

    // Phase A½: crash/resume conformance. Cut the ground-truth run at its
    // midpoint barrier, round-trip the snapshot through the wire codec, and
    // resume on every enabled engine at every shard count.
    if opts.resume {
        check_resume_truth(case, opts, &det_truth, &truth, cap)?;
    }

    // Phase B: the case's own policy, where dilation is allowed but must
    // obey the paper's invariants.
    let det_pol = run_guarded("det policy run", || {
        sim_for(case, case.policy.sync_config())
            .record(ObsConfig::new().with_ring_capacity(OBS_RING))
            .run()
    })?;
    check_policy_run("det policy run", &det_pol, case, lo, hi)?;
    conservation("det policy run", &det_pol, exp_packets, exp_receives)?;
    if opts.resume {
        check_resume_policy(case, &det_pol)?;
    }
    // Stragglers-vs-dilation: dilation only ever happens by snapping a
    // delivery forward, which records a straggler. Zero stragglers ⟹ the
    // timeline is the ground-truth timeline.
    if det_pol.stragglers.count() == 0 && det_pol.sim_end != det_truth.sim_end {
        return Err(format!(
            "det policy run: zero stragglers but sim_end {} != ground truth {}",
            det_pol.sim_end.as_nanos(),
            truth_end_ns,
        ));
    }

    if opts.sharded {
        // The sharded engine is deterministic for *every* policy (deliveries
        // are fixed at the sender's quantum edge), so policy-run outcomes
        // must be bit-identical across M too.
        let mut baseline: Option<(usize, aqs_cluster::SimulatedOutcome)> = None;
        let mut active_exec: Option<u64> = None;
        for &m in &sharded_counts {
            let label = format!("sharded policy run (M={m})");
            let sh_pol = run_guarded(&label, || {
                sim_for(case, case.policy.sync_config())
                    .engine(EngineKind::Sharded)
                    .shards(m)
                    .max_quanta(cap)
                    .record(ObsConfig::new().with_ring_capacity(OBS_RING))
                    .run()
            })?;
            check_policy_run(&label, &sh_pol, case, lo, hi)?;
            conservation(&label, &sh_pol, exp_packets, exp_receives)?;
            let executed = sh_pol
                .detail
                .as_sharded()
                .ok_or_else(|| format!("{label}: report carries no sharded detail"))?
                .nodes_executed;
            let outcome = sh_pol.simulated_outcome();
            match &baseline {
                None => {
                    baseline = Some((m, outcome));
                    active_exec = Some(executed);
                }
                Some((m0, base)) => {
                    if outcome != *base {
                        return Err(format!(
                            "{label}: outcome differs from M={m0} \
                             (sim_end {} vs {})",
                            outcome.sim_end.as_nanos(),
                            base.sim_end.as_nanos(),
                        ));
                    }
                    if executed != active_exec.expect("set with baseline") {
                        return Err(format!(
                            "{label}: active-set executed {executed} nodes, M={m0} \
                             executed {} — the wake schedule depends on the \
                             partition",
                            active_exec.expect("set with baseline"),
                        ));
                    }
                }
            }
        }
        // Active-set oracle: force the legacy full sweep on the first
        // worker count and require a bit-identical outcome. A node the
        // worklist skipped in quantum k therefore observed no event in
        // quantum k — if it could have acted (an executor step, a timer, a
        // delivery), the full sweep would have taken it and the timelines
        // would differ. The executed-node accounting is pinned both ways:
        // the sweep runs everyone every quantum, the active set never runs
        // more.
        if let Some((m0, base)) = &baseline {
            let label = format!("sharded full-sweep policy run (M={m0})");
            let fs = run_guarded(&label, || {
                sim_for(case, case.policy.sync_config())
                    .engine(EngineKind::Sharded)
                    .shards(*m0)
                    .max_quanta(cap)
                    .force_full_sweep(true)
                    .run()
            })?;
            if fs.simulated_outcome() != *base {
                return Err(format!(
                    "active-set oracle: {label} diverged from the active-set run \
                     (sim_end {} vs {}, packets {} vs {}) — a skipped node \
                     observed an event in a skipped quantum",
                    fs.sim_end.as_nanos(),
                    base.sim_end.as_nanos(),
                    fs.total_packets,
                    base.total_packets,
                ));
            }
            let d = fs
                .detail
                .as_sharded()
                .ok_or_else(|| format!("{label}: report carries no sharded detail"))?;
            let swept = case.n_nodes as u64 * fs.total_quanta;
            if d.nodes_executed != swept {
                return Err(format!(
                    "{label}: full sweep executed {} nodes, expected n × quanta = {swept}",
                    d.nodes_executed
                ));
            }
            let active = active_exec.expect("set with baseline");
            if active > d.nodes_executed {
                return Err(format!(
                    "active-set oracle: worklist executed {active} nodes, more than \
                     the full sweep's {}",
                    d.nodes_executed
                ));
            }
        }
    }

    // Phase C: rollback-property tier. The sharded-optimistic and hybrid
    // engines run the case's own policy, where windows above the safe bound
    // legitimately roll back; the run must still obey the rollback
    // invariants (depth within the cascade bound, recorded windows tiling
    // the run, shard lanes summing to the totals) and — when it never
    // degraded a shard — land on the ground-truth timeline exactly.
    // Outcomes are *not* compared across M here: which shard degrades
    // depends on the partition.
    for (enabled, kind) in [
        (opts.sharded_optimistic, EngineKind::ShardedOptimistic),
        (opts.hybrid, EngineKind::Hybrid),
    ] {
        if !enabled {
            continue;
        }
        let mut first: Option<(usize, aqs_cluster::SimulatedOutcome)> = None;
        for &m in &opts.shard_counts {
            let label = format!("{} policy run (M={m})", kind.name());
            let r = run_guarded(&label, || {
                sim_for(case, case.policy.sync_config())
                    .engine(kind)
                    .shards(m)
                    .cascade_bound(opts.cascade_bound)
                    .max_quanta(cap)
                    .record(ObsConfig::new().with_ring_capacity(OBS_RING))
                    .run()
            })?;
            check_policy_run(&label, &r, case, lo, hi)?;
            conservation(&label, &r, exp_packets, exp_receives)?;
            check_rollback_run(&label, &r, opts.cascade_bound, &truth)?;
            if first.is_none() {
                first = Some((m, r.simulated_outcome()));
            }
        }
        // Active-set oracle for the optimistic substrate: wake-based
        // window skipping must be invisible next to the forced full sweep
        // at the same worker count (same partition, same rollback
        // trajectory).
        if let Some((m0, base)) = &first {
            let label = format!("{} full-sweep policy run (M={m0})", kind.name());
            let fs = run_guarded(&label, || {
                sim_for(case, case.policy.sync_config())
                    .engine(kind)
                    .shards(*m0)
                    .cascade_bound(opts.cascade_bound)
                    .max_quanta(cap)
                    .force_full_sweep(true)
                    .run()
            })?;
            if fs.simulated_outcome() != *base {
                return Err(format!(
                    "active-set oracle: {label} diverged from the active-set run \
                     (sim_end {} vs {}) — a skipped node observed an event in a \
                     skipped window",
                    fs.sim_end.as_nanos(),
                    base.sim_end.as_nanos(),
                ));
            }
        }
    }
    Ok(())
}

/// The rollback-property oracles on one sharded-optimistic or hybrid run:
///
/// * rollback depth never exceeds the configured cascade bound;
/// * the recorded windows tile the run ([`check_window_tiling`]);
/// * the recorder's per-shard rollback lanes sum to the result's
///   checkpoint, rollback and wasted-sim totals;
/// * a run that never degraded a shard and never snapped a packet must
///   reproduce the ground-truth timeline exactly.
fn check_rollback_run(
    label: &str,
    report: &RunReport,
    cascade_bound: u32,
    truth: &aqs_cluster::SimulatedOutcome,
) -> Result<(), String> {
    let d = report
        .detail
        .as_sharded_optimistic()
        .ok_or_else(|| format!("{label}: report carries no sharded-optimistic detail"))?;
    if d.max_rollback_depth > cascade_bound {
        return Err(format!(
            "{label}: rollback depth {} exceeds the cascade bound {cascade_bound}",
            d.max_rollback_depth
        ));
    }
    if let Some(fr) = &report.obs {
        check_window_tiling(fr, d.windows, report.sim_end.as_nanos())
            .map_err(|e| format!("{label}: {e}"))?;
        let st = fr
            .shard_rollback_stats()
            .ok_or_else(|| format!("{label}: recorder holds no per-shard rollback lanes"))?;
        let lanes = (
            st.total_checkpoints(),
            st.total_rollbacks(),
            st.total_wasted_ns(),
        );
        if lanes != (d.checkpoints, d.rollbacks, d.wasted_sim.as_nanos()) {
            return Err(format!(
                "{label}: per-shard lanes sum to (checkpoints, rollbacks, wasted ns) \
                 {lanes:?}, the result says ({}, {}, {})",
                d.checkpoints,
                d.rollbacks,
                d.wasted_sim.as_nanos(),
            ));
        }
    }
    if d.degraded_windows == 0
        && report.stragglers.count() == 0
        && report.simulated_outcome() != *truth
    {
        return Err(format!(
            "{label}: never degraded, never snapped, yet diverged from the \
             ground-truth timeline (sim_end {} vs {} ns) — a committed event \
             was rolled back or restored from a stale checkpoint",
            report.sim_end.as_nanos(),
            truth.sim_end.as_nanos(),
        ));
    }
    Ok(())
}

/// The window-tiling oracle on a rollback run's recording: `windows`
/// samples, one per committed window, numbered consecutively, each starting
/// where the previous one ended (the first at time zero unless the ring
/// dropped it), the last ending at or after `sim_end_ns`. A window commits
/// only once GVT reaches its edge and never reopens, so a gap, an overlap or
/// a repeat on this record is a committed window that was not final.
fn check_window_tiling(fr: &FlightRecorder, windows: u64, sim_end_ns: u64) -> Result<(), String> {
    if fr.total_quanta() != windows {
        return Err(format!(
            "{windows} windows committed but {} recorded",
            fr.total_quanta()
        ));
    }
    // (index, end) of the previous sample.
    let mut prev: Option<(u64, u64)> = None;
    for w in fr.samples() {
        let start = w.start.as_nanos();
        match prev {
            None if fr.dropped() == 0 && start != 0 => {
                return Err(format!("the first window starts at {start} ns, not 0"));
            }
            Some((index, _)) if w.index != index + 1 => {
                return Err(format!("window #{} follows window #{index}", w.index));
            }
            Some((_, end)) if start != end => {
                return Err(format!(
                    "window #{} starts at {start} ns, its predecessor ended at {end} ns",
                    w.index
                ));
            }
            _ => {}
        }
        prev = Some((w.index, start + w.len.as_nanos()));
    }
    let end = prev.map_or(0, |(_, end)| end);
    if end < sim_end_ns {
        return Err(format!(
            "the recorded windows end at {end} ns, short of sim_end {sim_end_ns} ns"
        ));
    }
    Ok(())
}

/// A [`Recorder`] that keeps every committed window of a rollback run: its
/// `(index, start, len, packets, stragglers, active_nodes)` and its
/// checkpoint, rollback and wasted-ns shard lanes (a zero checkpoint lane is
/// a shard that ran the window conservatively). It reads no clock, so two
/// runs' logs are equal exactly when their trajectories are. Pass it to
/// [`Sim::run_with_recorder`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowLog {
    /// Per committed window, in commit order: the sample's fields above.
    pub windows: Vec<(u64, SimTime, SimDuration, u64, u64, u64)>,
    /// Per committed window: its checkpoint, rollback and wasted-ns lanes.
    pub lanes: Vec<[Vec<u64>; 3]>,
}

impl Recorder for WindowLog {
    const ENABLED: bool = true;

    fn record_quantum(&mut self, w: &QuantumObs<'_>) {
        let (packets, stragglers, active) = (w.packets, w.stragglers, w.active_nodes);
        self.windows
            .push((w.index, w.start, w.len, packets, stragglers, active));
    }

    fn record_shard_rollbacks(&mut self, checkpoints: &[u64], rollbacks: &[u64], wasted: &[u64]) {
        self.lanes
            .push([checkpoints, rollbacks, wasted].map(<[u64]>::to_vec));
    }
}

/// The crash/resume oracle on the ground-truth run: capture a snapshot at
/// the run's midpoint quantum edge, serialize and reparse it (so the wire
/// codec sits on the tested path), then resume every enabled engine at
/// every shard count from that one snapshot. Under the safe quantum a
/// resumed run must be indistinguishable from the uninterrupted one, so
/// each resume must land on `truth` bit-for-bit.
///
/// All builders here carry `max_quanta(cap)`, which is part of the spec
/// fingerprint; the engine choice and shard count are deliberately not, so
/// the single deterministic capture seeds every engine.
fn check_resume_truth(
    case: &CaseSpec,
    opts: &CheckOpts,
    det_truth: &RunReport,
    truth: &aqs_cluster::SimulatedOutcome,
    cap: u64,
) -> Result<(), String> {
    if det_truth.total_quanta < 2 {
        // No interior barrier to cut at: the run fits in one quantum.
        return Ok(());
    }
    let cut = det_truth.total_quanta / 2;
    let capture = sim_for(case, SyncConfig::ground_truth()).max_quanta(cap);
    let snap = capture
        .snapshot_at(cut)
        .map_err(|e| format!("ground-truth snapshot at quantum {cut}: {e}"))?;
    let snap = SimSnapshot::from_bytes(&snap.to_bytes())
        .map_err(|e| format!("ground-truth snapshot wire round trip: {e}"))?;

    let det_res = resume_guarded("det ground-truth resume", || capture.resume(&snap))?;
    resume_differential("det ground-truth resume", &det_res, truth, cut)?;

    let sharded_counts = opts.sharded_counts(case.n_nodes as usize);
    for (enabled, kind, counts) in [
        (opts.sharded, EngineKind::Sharded, &sharded_counts),
        (
            opts.sharded_optimistic,
            EngineKind::ShardedOptimistic,
            &opts.shard_counts,
        ),
        (opts.hybrid, EngineKind::Hybrid, &opts.shard_counts),
    ] {
        if !enabled {
            continue;
        }
        for &m in counts {
            let label = format!("{} ground-truth resume (M={m})", kind.name());
            let r = resume_guarded(&label, || {
                sim_for(case, SyncConfig::ground_truth())
                    .engine(kind)
                    .shards(m)
                    .cascade_bound(opts.cascade_bound)
                    .max_quanta(cap)
                    .resume(&snap)
            })?;
            resume_differential(&label, &r, truth, cut)?;
        }
    }
    Ok(())
}

/// Strong deterministic resume equality under the case's *own* policy:
/// even where engines legitimately dilate time, cutting the deterministic
/// run at a quantum edge and resuming it must reproduce the uninterrupted
/// policy run exactly (the snapshot carries the policy's adaptive state).
fn check_resume_policy(case: &CaseSpec, det_pol: &RunReport) -> Result<(), String> {
    if det_pol.total_quanta < 2 {
        return Ok(());
    }
    let cut = det_pol.total_quanta / 2;
    let spec = sim_for(case, case.policy.sync_config());
    let snap = spec
        .snapshot_at(cut)
        .map_err(|e| format!("policy snapshot at quantum {cut}: {e}"))?;
    let snap = SimSnapshot::from_bytes(&snap.to_bytes())
        .map_err(|e| format!("policy snapshot wire round trip: {e}"))?;
    let resumed = resume_guarded("det policy resume", || spec.resume(&snap))?;
    let truth = det_pol.simulated_outcome();
    resume_differential("det policy resume", &resumed, &truth, cut)?;
    if resumed.total_quanta != det_pol.total_quanta {
        return Err(format!(
            "det policy resume: {} total quanta, uninterrupted run had {} — the \
             resumed policy diverged even though the outcome agrees",
            resumed.total_quanta, det_pol.total_quanta,
        ));
    }
    Ok(())
}

/// Compares a resumed run's functional outcome against the uninterrupted
/// truth, naming the cut point on failure.
fn resume_differential(
    label: &str,
    resumed: &RunReport,
    truth: &aqs_cluster::SimulatedOutcome,
    cut: u64,
) -> Result<(), String> {
    let outcome = resumed.simulated_outcome();
    if outcome != *truth {
        return Err(format!(
            "resume differential: {label} (cut at quantum {cut}) diverged from \
             the uninterrupted run (sim_end {} vs {}, packets {} vs {}, \
             received {} vs {})",
            outcome.sim_end.as_nanos(),
            truth.sim_end.as_nanos(),
            outcome.total_packets,
            truth.total_packets,
            outcome.messages_received,
            truth.messages_received,
        ));
    }
    Ok(())
}

/// Runs a snapshot resume, converting both a panic and a typed engine error
/// into an `Err` naming the run.
fn resume_guarded(
    label: &str,
    f: impl FnOnce() -> Result<RunReport, SimError>,
) -> Result<RunReport, String> {
    run_guarded(label, f)?.map_err(|e| format!("{label}: {e}"))
}

/// Runs the sharded engine `2 × rounds` times under the ground-truth
/// quantum with the schedule-fuzz hooks armed (randomized mailbox drain
/// order, jittered barrier arrivals) and requires the outcome to stay
/// bit-identical to the deterministic engine every time: `rounds` times
/// with one worker per node (every barrier arrival and mailbox is its own
/// thread), then `rounds` times rotating the worker count, so a schedule
/// perturbation is compounded with a partition perturbation.
#[cfg(feature = "schedule-fuzz")]
pub fn check_case_fuzzed(case: &CaseSpec, rounds: u64, fuzz_seed: u64) -> Result<(), String> {
    let truth = run_guarded("det ground truth", || {
        sim_for(case, SyncConfig::ground_truth()).run()
    })?;
    let (exp_packets, _) = expected_counts(case);
    let cap = default_quanta_cap(
        truth.sim_end.as_nanos(),
        exp_packets,
        SimDuration::from_micros(1),
    );
    let truth = truth.simulated_outcome();
    let per_node = (0..rounds).map(|r| (case.n_nodes as usize, r.wrapping_mul(0x9E37)));
    let rotating = (0..rounds).map(|r| (1 + r as usize % 3, r.wrapping_mul(0xB5297)));
    for (round, (workers, salt)) in per_node.chain(rotating).enumerate() {
        aqs_sync::fuzz::arm(fuzz_seed.wrapping_add(salt));
        let result = run_guarded("fuzzed sharded ground truth", || {
            sim_for(case, SyncConfig::ground_truth())
                .engine(EngineKind::Sharded)
                .shards(workers)
                .max_quanta(cap)
                .run()
        });
        aqs_sync::fuzz::disarm();
        let fuzzed = result?;
        if fuzzed.simulated_outcome() != truth {
            return Err(format!(
                "schedule fuzz round {round}: sharded (M={workers}) outcome \
                 diverged under perturbed drain/arrival order (sim_end {} vs {})",
                fuzzed.sim_end.as_nanos(),
                truth.sim_end.as_nanos(),
            ));
        }
    }
    Ok(())
}

/// Replays the case's deterministic policy run with recording on and
/// returns the flight-recorder ring as JSON Lines — the per-quantum
/// telemetry artifact written next to a failing case. `None` if the run
/// panics or recording produced nothing.
pub fn policy_run_jsonl(case: &CaseSpec) -> Option<String> {
    let report = run_guarded("det policy run (artifact)", || {
        sim_for(case, case.policy.sync_config())
            .record(ObsConfig::new().with_ring_capacity(OBS_RING))
            .run()
    })
    .ok()?;
    report.obs.as_ref().map(|rec| rec.to_jsonl())
}

/// Base simulation builder shared by every run of a case.
fn sim_for(case: &CaseSpec, sync: SyncConfig) -> Sim {
    Sim::new(case.programs())
        .config(ClusterConfig::new(sync).with_seed(case.seed))
        .switch(case.switch())
}

/// Runs `f`, converting an engine panic into an `Err` naming the run.
fn run_guarded<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        format!("{label}: engine panicked: {msg}")
    })
}

/// Counts what the case's programs must produce on any correct engine:
/// routed packets (fragments × receivers) and fully-received messages.
fn expected_counts(case: &CaseSpec) -> (u64, u64) {
    let nic = NicModel::paper_default();
    let n = case.n_nodes as u64;
    let (mut packets, mut receives) = (0u64, 0u64);
    for prog in case.programs() {
        for op in prog.ops() {
            match op {
                Op::Send { dst, bytes, .. } => {
                    let receivers = match dst {
                        SendTarget::Rank(_) => 1,
                        SendTarget::All => n - 1,
                    };
                    packets += receivers * u64::from(nic.fragment_count(*bytes));
                }
                Op::Recv { .. } => receives += 1,
                _ => {}
            }
        }
    }
    (packets, receives)
}

fn conservation(
    label: &str,
    report: &RunReport,
    exp_packets: u64,
    exp_receives: u64,
) -> Result<(), String> {
    if report.total_packets != exp_packets {
        return Err(format!(
            "{label}: packet conservation violated: routed {} packets, programs \
             imply {exp_packets}",
            report.total_packets
        ));
    }
    if report.messages_received != exp_receives {
        return Err(format!(
            "{label}: message conservation violated: received {} messages, \
             programs imply {exp_receives}",
            report.messages_received
        ));
    }
    Ok(())
}

/// Generous quantum cap for worker-pool runs: enough for the ground-truth
/// timeline plus worst-case per-packet dilation, so only a genuine deadlock
/// (every quantum advancing with no progress) can hit it.
fn default_quanta_cap(truth_end_ns: u64, exp_packets: u64, hi: SimDuration) -> u64 {
    let truth_quanta = truth_end_ns / 1_000 + 1;
    let dilation_quanta = exp_packets.saturating_mul(hi.as_nanos() / 1_000 + 1);
    (4 * (truth_quanta + dilation_quanta) + 10_000).min(2_000_000)
}

/// Checks the per-quantum invariants on a recorded policy run: every
/// quantum length within the policy's bounds, and — for the adaptive policy
/// — Algorithm 1's exact grow/shrink direction against the packet counts
/// the policy consumed.
fn check_policy_run(
    label: &str,
    report: &RunReport,
    case: &CaseSpec,
    lo: SimDuration,
    hi: SimDuration,
) -> Result<(), String> {
    if report.stragglers.max_delay() > hi {
        return Err(format!(
            "{label}: straggler delayed {} ns, beyond the max quantum {} ns",
            report.stragglers.max_delay().as_nanos(),
            hi.as_nanos()
        ));
    }
    let rec = report
        .obs
        .as_ref()
        .ok_or_else(|| format!("{label}: recording was requested but report.obs is empty"))?;
    let quanta: Vec<(u64, u64)> = rec
        .samples()
        .map(|s| (s.len.as_nanos(), s.packets))
        .collect();
    // The deterministic engine records a final *partial* quantum truncated
    // to sim_end; drop the last sample so length checks see only quanta the
    // policy actually emitted.
    let Some((_, full)) = quanta.split_last() else {
        return Ok(());
    };
    let (lo_ns, hi_ns) = (lo.as_nanos(), hi.as_nanos());
    for (k, &(len, _)) in full.iter().enumerate() {
        if len < lo_ns || len > hi_ns {
            return Err(format!(
                "{label}: quantum #{k} length {len} ns outside [{lo_ns}, {hi_ns}] ns"
            ));
        }
    }
    if let PolicySpec::Adaptive { .. } = case.policy {
        if rec.dropped() == 0 {
            if let Some(&(first, _)) = full.first() {
                if first != lo_ns {
                    return Err(format!(
                        "{label}: adaptive run started at {first} ns, not the floor {lo_ns} ns"
                    ));
                }
            }
        }
        for (k, w) in full.windows(2).enumerate() {
            let (len, packets) = w[0];
            let (next, _) = w[1];
            if packets > 0 {
                // Algorithm 1: any packet shrinks the quantum (to the floor
                // in a few steps — dec ≪ 1 — so strictly below, or pinned
                // at the floor).
                if len > lo_ns && next >= len {
                    return Err(format!(
                        "{label}: quantum #{k} saw {packets} packets at {len} ns but \
                         grew/held to {next} ns"
                    ));
                }
                if len == lo_ns && next != lo_ns {
                    return Err(format!(
                        "{label}: quantum #{k} saw {packets} packets at the floor but \
                         next quantum is {next} ns"
                    ));
                }
            } else if next < len {
                return Err(format!(
                    "{label}: quiet quantum #{k} at {len} ns shrank to {next} ns"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder holding one sample per `(index, start_ns, len_ns)`.
    fn recorded(windows: &[(u64, u64, u64)]) -> FlightRecorder {
        let mut fr = FlightRecorder::new(2, ObsConfig::new());
        for &(index, start, len) in windows {
            fr.record_quantum(&QuantumObs {
                index,
                start: SimTime::from_nanos(start),
                len: SimDuration::from_nanos(len),
                host_ns: 0,
                packets: 0,
                active_nodes: 2,
                stragglers: 0,
                max_straggler_delay: SimDuration::ZERO,
                barrier_wait_ns: &[],
                vt_lag_ns: &[],
            });
        }
        fr
    }

    #[test]
    fn window_tiling_rejects_gaps_overlaps_repeats_and_short_horizons() {
        let clean = [(0, 0, 100), (1, 100, 50), (2, 150, 100)];
        assert_eq!(check_window_tiling(&recorded(&clean), 3, 250), Ok(()));
        // A run may end inside its last window.
        assert_eq!(check_window_tiling(&recorded(&clean), 3, 180), Ok(()));
        for (windows, sim_end, why) in [
            (&[(0, 0, 100), (1, 120, 50)][..], 170, "starts at 120 ns"),
            (&[(0, 0, 100), (1, 90, 50)][..], 140, "starts at 90 ns"),
            (&[(0, 0, 100), (0, 100, 50)][..], 150, "window #0 follows"),
            (&[(0, 0, 100), (1, 100, 50)][..], 151, "short of sim_end"),
            (
                &[(0, 10, 100), (1, 110, 50)][..],
                160,
                "first window starts",
            ),
        ] {
            let fr = recorded(windows);
            let err = check_window_tiling(&fr, 2, sim_end).unwrap_err();
            assert!(err.contains(why), "{windows:?}: {err}");
        }
        let err = check_window_tiling(&recorded(&clean), 4, 250).unwrap_err();
        assert!(err.contains("4 windows committed but 3 recorded"), "{err}");
    }
}
