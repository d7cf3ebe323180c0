//! Job specifications and their execution.
//!
//! Two job kinds exist:
//!
//! * **Case** — one workload run, executed through
//!   [`Sim::step_snapshot`] in fixed quantum-budget chunks. After every
//!   chunk the caller-provided checkpoint hook persists the quantum-edge
//!   snapshot, so a crash loses at most one chunk and a resumed run is
//!   bit-identical to an uninterrupted one.
//! * **Scenario** — a declarative scenario TOML executed with
//!   [`aqs_scenario::run_scenario_file`]. Scenario runs are monolithic (no
//!   quantum-edge cut spans *all* of a scenario's engine runs), so recovery
//!   restarts them from scratch; their determinism makes that safe.

use crate::protocol::{get_bool, get_str, get_u64, obj};
use crate::server::MAX_CASE_NODES;
use aqs_cluster::{RunReport, Sim, SimSnapshot, SnapshotStep};
use aqs_core::SyncConfig;
use aqs_scenario::{ScenarioError, ScenarioReport};
use aqs_workloads::{Scale, Workload};
use serde_json::Value;

/// A case job: one workload run with checkpointed execution.
#[derive(Clone, Debug)]
pub struct CaseJob {
    /// Workload name (`pingpong`, `cg`, `is`, …; see `aqs policies`).
    pub workload: String,
    /// Cluster size.
    pub nodes: usize,
    /// Synchronization policy string, in the grammar of `SyncConfig: FromStr`.
    pub policy: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Workload scale (`tiny`, `mini`, `full`).
    pub scale: String,
    /// Smoke-test hook: panic at the start of every execution attempt, to
    /// exercise the server's panic isolation and retry path end to end.
    pub inject_panic: bool,
}

/// A scenario job: a scenario TOML path, run on every engine combination
/// the file configures.
#[derive(Clone, Debug)]
pub struct ScenarioJob {
    /// Path to the scenario file, resolved on the server's filesystem.
    pub file: String,
}

/// What a submitted job asks the server to run.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// A checkpointed workload run.
    Case(CaseJob),
    /// A declarative scenario execution.
    Scenario(ScenarioJob),
}

impl JobSpec {
    /// Parses a spec out of a `submit` request (or a journal `submit`
    /// record — the wire shape is identical on purpose).
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        if let Some(file) = get_str(v, "scenario") {
            return Ok(JobSpec::Scenario(ScenarioJob {
                file: file.to_string(),
            }));
        }
        let Some(workload) = get_str(v, "workload") else {
            return Err("a job needs either `workload` or `scenario`".to_string());
        };
        let job = CaseJob {
            workload: workload.to_string(),
            nodes: get_u64(v, "nodes").unwrap_or(4) as usize,
            policy: get_str(v, "policy").unwrap_or("dyn1").to_string(),
            seed: get_u64(v, "seed").unwrap_or(42),
            scale: get_str(v, "scale").unwrap_or("tiny").to_string(),
            inject_panic: get_bool(v, "inject_panic").unwrap_or(false),
        };
        // Reject bad names at submit time, not first execution.
        build_sim(&job)?;
        Ok(JobSpec::Case(job))
    }

    /// The spec as a JSON object, the exact shape [`Self::from_value`]
    /// accepts — journaled verbatim.
    pub fn to_value(&self) -> Value {
        match self {
            JobSpec::Case(c) => obj(vec![
                ("workload", Value::Str(c.workload.clone())),
                ("nodes", Value::U64(c.nodes as u64)),
                ("policy", Value::Str(c.policy.clone())),
                ("seed", Value::U64(c.seed)),
                ("scale", Value::Str(c.scale.clone())),
                ("inject_panic", Value::Bool(c.inject_panic)),
            ]),
            JobSpec::Scenario(s) => obj(vec![("scenario", Value::Str(s.file.clone()))]),
        }
    }

    /// Short human-readable label for listings.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Case(c) => format!(
                "case {} n={} policy={} seed={}",
                c.workload, c.nodes, c.policy, c.seed
            ),
            JobSpec::Scenario(s) => format!("scenario {}", s.file),
        }
    }
}

/// Why a job attempt failed, in the shape the failure record carries. A
/// typed error is terminal (deterministic — retrying cannot help); only
/// panics are retried.
#[derive(Clone, Debug)]
pub enum JobError {
    /// A case job's attempt outlived its deadline; the executor saw it at
    /// the next chunk edge. Scenario jobs take no deadline.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// Every retry attempt panicked; the last panic message.
    Panicked {
        /// The final attempt's panic payload.
        detail: String,
    },
    /// The engine returned a typed [`aqs_cluster::SimError`].
    Engine {
        /// The error's display form.
        detail: String,
    },
    /// A scenario run failed; carries the failing engine-run label and the
    /// first phase reproducing the failure, when attribution found one.
    Scenario {
        /// The engine × worker-count combination that failed, if one did.
        label: Option<String>,
        /// `(index, workload name)` of the first failing phase.
        phase: Option<(usize, String)>,
        /// The full scenario error display.
        detail: String,
    },
    /// The server itself failed the attempt (journal I/O, bad recovery
    /// state) — not the job's fault.
    Internal {
        /// What went wrong.
        detail: String,
    },
}

impl JobError {
    /// The wire name of this failure kind.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::DeadlineExceeded { .. } => "deadline_exceeded",
            JobError::Panicked { .. } => "panicked",
            JobError::Engine { .. } => "engine",
            JobError::Scenario { .. } => "scenario",
            JobError::Internal { .. } => "internal",
        }
    }

    /// The failure as the JSON `error` object of a job-failure record.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![("kind", Value::Str(self.kind().to_string()))];
        match self {
            JobError::DeadlineExceeded { deadline_ms } => {
                fields.push(("deadline_ms", Value::U64(*deadline_ms)));
                fields.push((
                    "detail",
                    Value::Str(format!("deadline of {deadline_ms} ms exceeded")),
                ));
            }
            JobError::Panicked { detail }
            | JobError::Engine { detail }
            | JobError::Internal { detail } => {
                fields.push(("detail", Value::Str(detail.clone())));
            }
            JobError::Scenario {
                label,
                phase,
                detail,
            } => {
                if let Some(label) = label {
                    fields.push(("run", Value::Str(label.clone())));
                }
                if let Some((i, name)) = phase {
                    fields.push(("phase", Value::U64(*i as u64)));
                    fields.push(("phase_workload", Value::Str(name.clone())));
                }
                fields.push(("detail", Value::Str(detail.clone())));
            }
        }
        obj(fields)
    }
}

/// Builds the simulation for a case job. Every attempt and every recovery
/// builds the same `Sim`, so the spec fingerprint embedded in journaled
/// snapshots always matches.
pub fn build_sim(job: &CaseJob) -> Result<Sim, String> {
    let workload = Workload::parse(&job.workload)
        .ok_or_else(|| format!("unknown workload `{}`", job.workload))?;
    let scale: Scale = job.scale.parse()?;
    if !(2..=MAX_CASE_NODES).contains(&job.nodes) {
        return Err(format!(
            "a case job needs 2 to {MAX_CASE_NODES} nodes, not {}",
            job.nodes
        ));
    }
    let policy: SyncConfig = job.policy.parse()?;
    let spec = workload.with_scale(scale).build(job.nodes, job.seed);
    Ok(Sim::new(spec.programs).sync(policy).seed(job.seed))
}

/// The engine-independent functional outcome of a finished run, as the
/// `outcome` object of a job-done record.
pub fn outcome_value(report: &RunReport) -> Value {
    obj(vec![
        ("sim_end_ns", Value::U64(report.sim_end.as_nanos())),
        ("total_packets", Value::U64(report.total_packets)),
        ("messages_received", Value::U64(report.messages_received)),
        ("stragglers", Value::U64(report.stragglers.count())),
        ("total_quanta", Value::U64(report.total_quanta)),
    ])
}

/// A finished scenario's outcome object.
pub fn scenario_outcome_value(report: &ScenarioReport) -> Value {
    obj(vec![
        ("scenario", Value::Str(report.name.clone())),
        ("sim_end_ns", Value::U64(report.outcome.sim_end.as_nanos())),
        ("total_packets", Value::U64(report.outcome.total_packets)),
        (
            "messages_received",
            Value::U64(report.outcome.messages_received),
        ),
        ("runs", Value::U64(report.runs.len() as u64)),
        ("checks", Value::U64(report.checks.len() as u64)),
    ])
}

/// Runs a case job to completion in `chunk_quanta` chunks, starting from
/// `from` (the last journaled snapshot, or `None` for a fresh run).
///
/// * `cancelled` is polled before every chunk — the server's closure reads
///   the attempt's deadline and the shutdown flag there, so a job runs at
///   most one chunk past either. A `true` ends the run with
///   [`JobError::DeadlineExceeded`] carrying `deadline_ms`.
/// * `checkpoint` persists each quantum-edge snapshot *before* execution
///   continues (write-ahead), and is handed the snapshot so the in-memory
///   job record can track it too.
pub fn run_case(
    job: &CaseJob,
    from: Option<SimSnapshot>,
    chunk_quanta: u64,
    deadline_ms: u64,
    cancelled: &dyn Fn() -> bool,
    checkpoint: &mut dyn FnMut(&SimSnapshot) -> Result<(), String>,
) -> Result<Value, JobError> {
    if job.inject_panic {
        panic!("injected panic (inject_panic=true)");
    }
    let sim = build_sim(job).map_err(|detail| JobError::Internal { detail })?;
    let mut cur = from;
    loop {
        if cancelled() {
            return Err(JobError::DeadlineExceeded { deadline_ms });
        }
        match sim.step_snapshot(cur.as_ref(), chunk_quanta) {
            Ok(SnapshotStep::Snapshot(snap)) => {
                checkpoint(&snap).map_err(|detail| JobError::Internal { detail })?;
                cur = Some(snap);
            }
            Ok(SnapshotStep::Finished(report)) => return Ok(outcome_value(&report)),
            Err(e) => {
                return Err(JobError::Engine {
                    detail: e.to_string(),
                })
            }
        }
    }
}

/// Runs a scenario job. Failures keep the scenario error's structure: the
/// failing engine-run label and attributed phase ride the failure record
/// instead of being flattened into prose.
pub fn run_scenario_job(job: &ScenarioJob) -> Result<Value, JobError> {
    match aqs_scenario::run_scenario_file(&job.file) {
        Ok(report) => Ok(scenario_outcome_value(&report)),
        Err(e) => {
            let detail = e.to_string();
            let (label, phase) = match e {
                ScenarioError::Run { label, phase, .. } => (Some(label), phase),
                _ => (None, None),
            };
            Err(JobError::Scenario {
                label,
                phase,
                detail,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_their_wire_shape() {
        let v = obj(vec![
            ("workload", Value::Str("pingpong".to_string())),
            ("nodes", Value::U64(2)),
            ("policy", Value::Str("fixed:100".to_string())),
            ("seed", Value::U64(7)),
        ]);
        let spec = JobSpec::from_value(&v).unwrap();
        let spec2 = JobSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(spec.label(), spec2.label());
        let s = JobSpec::from_value(&obj(vec![(
            "scenario",
            Value::Str("scenarios/demo.toml".to_string()),
        )]))
        .unwrap();
        assert!(matches!(&s, JobSpec::Scenario(j) if j.file == "scenarios/demo.toml"));
    }

    #[test]
    fn bad_specs_are_rejected_at_submit_time() {
        let text = |v: &str| Value::Str(v.to_string());
        for (k, v, needle) in [
            ("workload", text("no-such-workload"), "no-such-workload"),
            ("policy", text("fixed:abc"), "abc"),
            ("scale", text("huge"), "huge"),
            // One node cannot run MPI; past the bound the cluster would not
            // fit in memory.
            ("nodes", Value::U64(1), "not 1"),
            ("nodes", Value::U64(262_145), "not 262145"),
            ("nodes", Value::U64(1_000_000_000_000), "not 1000000000000"),
        ] {
            let mut fields = vec![("workload", text("pingpong"))];
            if k != "workload" {
                fields.push((k, v));
            } else {
                fields[0] = ("workload", v);
            }
            let err = JobSpec::from_value(&obj(fields)).unwrap_err();
            assert!(
                err.contains(needle),
                "error `{err}` does not name `{needle}`"
            );
        }
        assert!(JobSpec::from_value(&obj(vec![])).is_err());
    }

    #[test]
    fn case_execution_checkpoints_and_resumes_bit_identically() {
        let job = CaseJob {
            workload: "pingpong".to_string(),
            nodes: 2,
            policy: "truth".to_string(),
            seed: 3,
            scale: "tiny".to_string(),
            inject_panic: false,
        };
        // Uninterrupted.
        let mut snaps = Vec::new();
        let full = run_case(&job, None, 50, 0, &|| false, &mut |s| {
            snaps.push(s.clone());
            Ok(())
        })
        .unwrap();
        assert!(!snaps.is_empty(), "a multi-chunk run must checkpoint");
        // "Crash" after the second checkpoint and resume from it.
        let resumed = run_case(&job, Some(snaps[1].clone()), 50, 0, &|| false, &mut |_| {
            Ok(())
        })
        .unwrap();
        assert_eq!(full, resumed, "resume from a checkpoint diverged");
    }

    #[test]
    fn scenario_failures_keep_their_run_label_and_phase_attribution() {
        let err = JobError::Scenario {
            label: Some("sharded m=2".to_string()),
            phase: Some((1, "cg".to_string())),
            detail: "scenario `x`: run `sharded m=2` failed".to_string(),
        };
        let v = err.to_value();
        assert_eq!(crate::protocol::get_str(&v, "kind"), Some("scenario"));
        assert_eq!(crate::protocol::get_str(&v, "run"), Some("sharded m=2"));
        assert_eq!(crate::protocol::get_u64(&v, "phase"), Some(1));
        assert_eq!(crate::protocol::get_str(&v, "phase_workload"), Some("cg"));
    }

    #[test]
    fn cancellation_is_a_typed_deadline_error() {
        let job = CaseJob {
            workload: "cg".to_string(),
            nodes: 4,
            policy: "truth".to_string(),
            seed: 1,
            scale: "mini".to_string(),
            inject_panic: false,
        };
        let err = run_case(&job, None, 10, 250, &|| true, &mut |_| Ok(())).unwrap_err();
        assert!(matches!(
            err,
            JobError::DeadlineExceeded { deadline_ms: 250 }
        ));
        let v = err.to_value();
        assert_eq!(
            crate::protocol::get_str(&v, "kind"),
            Some("deadline_exceeded")
        );
    }
}
