//! Differential and invariant oracles for one conformance case.
//!
//! [`check_case`] runs a [`CaseSpec`] through the engines and decides
//! pass/fail without any golden file. Two kinds of evidence:
//!
//! * **Differential** — under the ground-truth quantum (1 µs, the safe bound
//!   for the paper's 1 µs minimum latency) no straggler can occur, so every
//!   engine must produce a bit-identical [`SimulatedOutcome`]. Any
//!   disagreement is a bug in one of them.
//! * **Invariants** — properties that hold for *any* correct run, checked on
//!   the policy runs where engines legitimately diverge from ground truth:
//!   quantum bounds, Algorithm 1's grow/shrink direction, packet
//!   conservation, the straggler delay bound, and stragglers-vs-dilation
//!   consistency.
//!
//! The deterministic engine is the oracle. The worker-pool runs every phase
//! makes are one ordered list, `(engine, M)` for each enabled engine and
//! worker count, and each phase is one loop over it: ground truth, resume
//! from a mid-run snapshot, and the case's own policy.
//!
//! Engine panics (deadlock, quantum-cap overflow) are caught and reported as
//! failures rather than aborting the whole campaign.

use crate::gen::{CaseSpec, PolicySpec};
use aqs_cluster::{
    ClusterConfig, EngineKind, RunReport, Sim, SimError, SimSnapshot, SimulatedOutcome,
};
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

/// Host work per op that makes every round of a sharded run wake its worker
/// pool. A conformance case is too small for a round to be worth sharing, so
/// at no host work the barrier leader runs every round after the first
/// inline; a run at this token host work runs every shard on its own
/// thread between the leader's hand-offs instead.
const POOLED: f64 = 1e-3;

/// Knobs for [`check_case_with`].
#[derive(Clone, Debug)]
pub struct CheckOpts {
    /// Run the sharded engine (differential + invariants + cross-M
    /// identity), twice per entry of
    /// [`sharded_counts`](Self::sharded_counts): with its small rounds run
    /// inline, and pooled at a token host work per op.
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

/// The worker-pool runs every phase of [`check_case_with`] makes, in order,
/// as `(engine, workers, host work per op)`: the sharded engine at each of
/// [`CheckOpts::sharded_counts`], at no host work and then [`POOLED`], then
/// the sharded-optimistic and hybrid engines at each of
/// [`CheckOpts::shard_counts`], each engine only if enabled.
fn plan(opts: &CheckOpts, n: usize) -> Vec<(EngineKind, usize, f64)> {
    let sharded_counts = opts.sharded_counts(n);
    [
        (opts.sharded, EngineKind::Sharded, &sharded_counts, 0.0),
        (opts.sharded, EngineKind::Sharded, &sharded_counts, POOLED),
        (
            opts.sharded_optimistic,
            EngineKind::ShardedOptimistic,
            &opts.shard_counts,
            0.0,
        ),
        (opts.hybrid, EngineKind::Hybrid, &opts.shard_counts, 0.0),
    ]
    .into_iter()
    .filter(|&(enabled, ..)| enabled)
    .flat_map(|(_, kind, counts, work)| counts.iter().map(move |&m| (kind, m, work)))
    .collect()
}

/// A pool run's name in a failure message, e.g. `sharded ground truth
/// (M=2, pooled)`.
fn label(kind: EngineKind, what: &str, m: usize, host_work: f64) -> String {
    let pooled = if host_work > 0.0 { ", pooled" } else { "" };
    format!("{} {what} (M={m}{pooled})", kind.name())
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
    let (lo, hi) = case.policy.quantum_bounds();
    let cap = opts
        .quanta_cap
        .unwrap_or_else(|| default_quanta_cap(truth.sim_end.as_nanos(), exp_packets, hi));
    let runs = plan(opts, case.n_nodes as usize);
    // One pool run's builder. The cascade bound is read only by the
    // rollback engines; the quantum cap and the host work are part of the
    // spec fingerprint, so one deterministic snapshot per host work resumes
    // on every run of the plan.
    let pool = |sync: SyncConfig, (kind, m, host_work): (EngineKind, usize, f64)| {
        sim_for(case, sync)
            .engine(kind)
            .shards(m)
            .host_work_per_op(host_work)
            .cascade_bound(opts.cascade_bound)
            .max_quanta(cap)
    };

    for &run in &runs {
        let (kind, m, work) = run;
        let label = label(kind, "ground truth", m, work);
        let r = run_guarded(&label, || pool(SyncConfig::ground_truth(), run).run())?;
        let what = format!("differential: {label} diverged from deterministic");
        agree(&what, &r.simulated_outcome(), &truth)?;
        if let Some(d) = r.detail.as_sharded_optimistic() {
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
        let classic = (EngineKind::ShardedOptimistic, 1, 0.0);
        let r = run_guarded(label, || {
            pool(SyncConfig::fixed_micros(20), classic)
                .cascade_bound(256)
                .run()
        })?;
        let what = format!("differential: {label} diverged from deterministic");
        agree(&what, &r.simulated_outcome(), &truth)?;
        let d = r.detail.as_sharded_optimistic().expect("opt detail");
        if d.degraded_windows != 0 {
            return Err(format!(
                "{label}: {} degraded windows, but no chain reaches the cascade bound",
                d.degraded_windows
            ));
        }
    }

    // Phase A½: crash/resume conformance. Cut the ground-truth run at its
    // midpoint barrier, round-trip the snapshot through the wire codec, and
    // resume the deterministic engine and every run of the plan from that
    // one snapshot (taken again at the pooled runs' host work): under the
    // safe quantum each must land on the uninterrupted outcome bit-for-bit. A run that fits in one quantum has
    // no interior barrier to cut at.
    if opts.resume && det_truth.total_quanta >= 2 {
        let cut = det_truth.total_quanta / 2;
        let capture = |work| {
            let spec = sim_for(case, SyncConfig::ground_truth())
                .host_work_per_op(work)
                .max_quanta(cap);
            wire_snapshot(&spec, cut, "ground-truth").map(|snap| (spec, snap))
        };
        let (spec, snap) = capture(0.0)?;
        let det = resume_guarded("det ground-truth resume", || spec.resume(&snap))?;
        agree(
            &resumed("det ground-truth resume", cut),
            &det.simulated_outcome(),
            &truth,
        )?;
        let pooled = match opts.sharded {
            true => Some(capture(POOLED)?.1),
            false => None,
        };
        for &run in &runs {
            let (kind, m, work) = run;
            let label = label(kind, "ground-truth resume", m, work);
            let snap = match work > 0.0 {
                true => pooled.as_ref().expect("only sharded runs are pooled"),
                false => &snap,
            };
            let r = resume_guarded(&label, || {
                pool(SyncConfig::ground_truth(), run).resume(snap)
            })?;
            agree(&resumed(&label, cut), &r.simulated_outcome(), &truth)?;
        }
    }

    // Phase B: the case's own policy, where dilation is allowed but must
    // obey the paper's invariants.
    let recorded = || ObsConfig::new().with_ring_capacity(OBS_RING);
    let det_pol = run_guarded("det policy run", || {
        sim_for(case, case.policy.sync_config())
            .record(recorded())
            .run()
    })?;
    check_policy_run("det policy run", &det_pol, case, lo, hi)?;
    conservation("det policy run", &det_pol, exp_packets, exp_receives)?;
    if opts.resume && det_pol.total_quanta >= 2 {
        // Even where engines legitimately dilate time, a deterministic run
        // cut at a quantum edge and resumed must reproduce the uninterrupted
        // policy run exactly (the snapshot carries the policy's state).
        let cut = det_pol.total_quanta / 2;
        let spec = sim_for(case, case.policy.sync_config());
        let snap = wire_snapshot(&spec, cut, "policy")?;
        let r = resume_guarded("det policy resume", || spec.resume(&snap))?;
        let what = resumed("det policy resume", cut);
        agree(&what, &r.simulated_outcome(), &det_pol.simulated_outcome())?;
        if r.total_quanta != det_pol.total_quanta {
            return Err(format!(
                "det policy resume: {} total quanta, uninterrupted run had {} — the \
                 resumed policy diverged even though the outcome agrees",
                r.total_quanta, det_pol.total_quanta,
            ));
        }
    }
    // Stragglers-vs-dilation: dilation only ever happens by snapping a
    // delivery forward, which records a straggler. Zero stragglers ⟹ the
    // timeline is the ground-truth timeline.
    if det_pol.stragglers.count() == 0 && det_pol.sim_end != det_truth.sim_end {
        return Err(format!(
            "det policy run: zero stragglers but sim_end {} != ground truth {}",
            det_pol.sim_end.as_nanos(),
            truth.sim_end.as_nanos(),
        ));
    }

    // Phases B and C on the pool: every run of the plan under the case's
    // policy, one engine at a time, each engine's runs followed by its
    // full-sweep twin at its first run's worker count and host work.
    for group in runs.chunk_by(|a, b| a.0 == b.0) {
        let (kind, m0, work0) = group[0];
        // The first run's outcome and executed-node and step counts.
        let mut first: Option<(SimulatedOutcome, (u64, u64))> = None;
        for &run in group {
            let (_, m, work) = run;
            let label = label(kind, "policy run", m, work);
            let r = run_guarded(&label, || {
                pool(case.policy.sync_config(), run)
                    .record(recorded())
                    .run()
            })?;
            check_policy_run(&label, &r, case, lo, hi)?;
            conservation(&label, &r, exp_packets, exp_receives)?;
            let executed = match kind {
                EngineKind::Sharded => node_counts(&label, &r)?,
                _ => {
                    check_rollback_run(&label, &r, opts.cascade_bound, &truth)?;
                    (0, 0)
                }
            };
            let outcome = r.simulated_outcome();
            match &first {
                None => first = Some((outcome, executed)),
                // The sharded engine is deterministic for *every* policy
                // (deliveries are fixed at the sender's quantum edge), so
                // neither its outcome nor its wake schedule may depend on M.
                // Rollback runs are not compared across M: which shard
                // degrades depends on the partition.
                Some((base, active)) if kind == EngineKind::Sharded => {
                    agree(
                        &format!("{label}: outcome differs from M={m0}"),
                        &outcome,
                        base,
                    )?;
                    if executed.0 != active.0 {
                        return Err(format!(
                            "{label}: active-set executed {} nodes, M={m0} \
                             executed {} — the wake schedule depends on the \
                             partition",
                            executed.0, active.0,
                        ));
                    }
                    if executed.1 != active.1 {
                        return Err(format!(
                            "{label}: active-set stepped {} nodes, M={m0} \
                             stepped {} — which nodes sleep inside an op \
                             depends on the partition",
                            executed.1, active.1,
                        ));
                    }
                }
                Some(_) => {}
            }
        }
        // Active-set oracle: force the full sweep at the first worker count
        // (same partition, same rollback trajectory) and require a
        // bit-identical outcome. A node the worklist skipped in quantum k
        // therefore observed no event in quantum k — if it could have acted
        // (an executor step, a timer, a delivery), the full sweep would have
        // taken it and the timelines would differ.
        let (base, active) = first.expect("a plan group holds at least one run");
        let label = label(kind, "full-sweep policy run", m0, work0);
        let fs = run_guarded(&label, || {
            pool(case.policy.sync_config(), group[0])
                .force_full_sweep(true)
                .run()
        })?;
        let what = format!(
            "active-set oracle: {label} diverged from the active-set run — a \
             skipped node observed an event while it was skipped"
        );
        agree(&what, &fs.simulated_outcome(), &base)?;
        if kind == EngineKind::Sharded {
            // The executed-node accounting is pinned both ways: the sweep
            // runs everyone every quantum, the active set never runs more,
            // and never steps more nodes than it counts executed.
            let (active, stepped) = active;
            if stepped > active {
                return Err(format!(
                    "active-set oracle: worklist stepped {stepped} nodes, more than \
                     the {active} it executed",
                ));
            }
            let (swept, _) = node_counts(&label, &fs)?;
            let all = case.n_nodes as u64 * fs.total_quanta;
            if swept != all {
                return Err(format!(
                    "{label}: full sweep executed {swept} nodes, expected n × quanta = {all}"
                ));
            }
            if active > swept {
                return Err(format!(
                    "active-set oracle: worklist executed {active} nodes, more than \
                     the full sweep's {swept}",
                ));
            }
        }
    }
    Ok(())
}

/// `Ok` when `got` is `want`; otherwise `what`, followed by the fields that
/// tell two outcomes apart at a glance. Every outcome comparison of the
/// oracle reports through here.
fn agree(what: &str, got: &SimulatedOutcome, want: &SimulatedOutcome) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!(
        "{what} (sim_end {} vs {} ns, packets {} vs {}, received {} vs {})",
        got.sim_end.as_nanos(),
        want.sim_end.as_nanos(),
        got.total_packets,
        want.total_packets,
        got.messages_received,
        want.messages_received,
    ))
}

/// What a resume that diverged from its uninterrupted run failed.
fn resumed(label: &str, cut: u64) -> String {
    format!(
        "resume differential: {label} (cut at quantum {cut}) diverged from \
         the uninterrupted run"
    )
}

/// `spec`'s snapshot at the edge of quantum `cut`, round-tripped through the
/// wire codec: what resumes is what a crashed process would reload.
fn wire_snapshot(spec: &Sim, cut: u64, what: &str) -> Result<SimSnapshot, String> {
    let snap = spec
        .snapshot_at(cut)
        .map_err(|e| format!("{what} snapshot at quantum {cut}: {e}"))?;
    SimSnapshot::from_bytes(&snap.to_bytes())
        .map_err(|e| format!("{what} snapshot wire round trip: {e}"))
}

/// The sharded result's executed-node and node-step counts.
fn node_counts(label: &str, report: &RunReport) -> Result<(u64, u64), String> {
    report
        .detail
        .as_sharded()
        .map(|d| (d.nodes_executed, d.nodes_stepped))
        .ok_or_else(|| format!("{label}: report carries no sharded detail"))
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
    truth: &SimulatedOutcome,
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
    if d.degraded_windows == 0 && report.stragglers.count() == 0 {
        let what = format!(
            "{label}: never degraded, never snapped, yet diverged from the \
             ground-truth timeline — a committed event was rolled back or \
             restored from a stale checkpoint"
        );
        agree(&what, &report.simulated_outcome(), truth)?;
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

/// Runs a snapshot resume, converting both a panic and a typed engine error
/// into an `Err` naming the run.
fn resume_guarded(
    label: &str,
    f: impl FnOnce() -> Result<RunReport, SimError>,
) -> Result<RunReport, String> {
    run_guarded(label, f)?.map_err(|e| format!("{label}: {e}"))
}

/// Runs the sharded engine `3 × rounds` times under the ground-truth
/// quantum with the schedule-fuzz hooks armed (randomized batch delivery
/// order, jittered barrier arrivals) and requires the outcome to stay
/// bit-identical to the deterministic engine every time: `rounds` times
/// with one worker per node (every barrier arrival and every shard's batch
/// is its own thread's), then `rounds` times rotating the worker count, so a schedule
/// perturbation is compounded with a partition perturbation. A case's rounds
/// are too small to share, so these runs get a token host work per op
/// ([`POOLED`]), which pools every round. The last `rounds` runs rotate the
/// worker count again at no host work, where the barrier leader runs every
/// round after the first inline.
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
    let per_node = (0..rounds).map(|r| (case.n_nodes as usize, POOLED, r.wrapping_mul(0x9E37)));
    let rotating =
        |work| (0..rounds).map(move |r| (1 + r as usize % 3, work, r.wrapping_mul(0xB5297)));
    let runs = per_node.chain(rotating(POOLED)).chain(rotating(0.0));
    for (round, (workers, host_work, salt)) in runs.enumerate() {
        aqs_sync::fuzz::arm(fuzz_seed.wrapping_add(salt));
        let result = run_guarded("fuzzed sharded ground truth", || {
            sim_for(case, SyncConfig::ground_truth())
                .engine(EngineKind::Sharded)
                .host_work_per_op(host_work)
                .shards(workers)
                .max_quanta(cap)
                .run()
        });
        aqs_sync::fuzz::disarm();
        let what = format!(
            "schedule fuzz round {round}: {} outcome diverged under perturbed \
             drain/arrival order",
            label(EngineKind::Sharded, "ground truth", workers, host_work)
        );
        agree(&what, &result?.simulated_outcome(), &truth)?;
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
    fn the_plan_is_every_enabled_engine_at_each_of_its_worker_counts_in_order() {
        use EngineKind::{Hybrid, Sharded, ShardedOptimistic};
        let at = |kind, ms: &[usize], work| ms.iter().map(|&m| (kind, m, work)).collect::<Vec<_>>();
        let opts = CheckOpts::default();
        // Four nodes: no configured count reaches n, so the sharded engine
        // also runs one worker per node, inline and then pooled.
        let four = [
            at(Sharded, &[1, 2, 3, 4], 0.0),
            at(Sharded, &[1, 2, 3, 4], POOLED),
            at(ShardedOptimistic, &[1, 2, 3], 0.0),
            at(Hybrid, &[1, 2, 3], 0.0),
        ];
        assert_eq!(plan(&opts, 4), four.concat());
        let two = [
            at(Sharded, &[1, 2, 3], 0.0),
            at(Sharded, &[1, 2, 3], POOLED),
            at(ShardedOptimistic, &[1, 2, 3], 0.0),
            at(Hybrid, &[1, 2, 3], 0.0),
        ];
        assert_eq!(plan(&opts, 2), two.concat());
        let det_only = CheckOpts {
            sharded: false,
            sharded_optimistic: false,
            hybrid: false,
            ..opts
        };
        assert_eq!(plan(&det_only, 4), []);
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
