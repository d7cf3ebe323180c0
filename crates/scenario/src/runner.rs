//! Runs a [`Scenario`]: every engine × worker-count combination on the same
//! concatenated programs, then the property assertions over the reports.

use crate::model::Scenario;
use aqs_cluster::{EngineKind, RunReport, Sim, SimError, SimulatedOutcome};
use std::fmt;

/// One engine run inside a scenario execution.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Display label (`deterministic`, `sharded m=2`, …).
    pub label: String,
    /// The engine's report.
    pub report: RunReport,
}

/// The result of a successful scenario execution: every configured run
/// completed and every assertion held.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Cluster size.
    pub nodes: usize,
    /// Number of workload phases.
    pub phases: usize,
    /// Whether chaos injection was active.
    pub chaos: bool,
    /// Every engine run, in execution order.
    pub runs: Vec<EngineRun>,
    /// The (shared, when `cross_engine_identical` holds) functional outcome
    /// of the first run.
    pub outcome: SimulatedOutcome,
    /// Human-readable descriptions of the assertions that passed.
    pub checks: Vec<String>,
}

/// Why a scenario execution failed.
#[derive(Clone, Debug)]
pub enum ScenarioError {
    /// The scenario file was invalid (parse/validation), before any run.
    Sim(SimError),
    /// One engine run failed mid-scenario. The label names the engine ×
    /// worker-count combination; when the failure reproduces on a single
    /// phase in isolation, `phase` names the first phase that does.
    Run {
        /// The scenario that failed.
        scenario: String,
        /// The engine run that failed (`sharded m=2`, …).
        label: String,
        /// First phase reproducing the failure in isolation, as
        /// `(index, workload name)` — `None` when the failure only
        /// manifests with the phases concatenated.
        phase: Option<(usize, String)>,
        /// The engine's typed error (boxed to keep the `Err` variant
        /// small — `clippy::result_large_err`).
        error: Box<SimError>,
    },
    /// The runs completed but an assertion failed.
    Assert {
        /// The scenario that failed.
        scenario: String,
        /// Every failed assertion, one message each (each names the
        /// assertion and the offending run).
        failures: Vec<String>,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Sim(e) => write!(f, "{e}"),
            ScenarioError::Run {
                scenario,
                label,
                phase,
                error,
            } => {
                write!(f, "scenario `{scenario}`: run `{label}` failed")?;
                if let Some((i, name)) = phase {
                    write!(f, " in phase {i} ({name})")?;
                }
                write!(f, ": {error}")
            }
            ScenarioError::Assert { scenario, failures } => {
                write!(
                    f,
                    "scenario `{scenario}`: {} assertion(s) failed:",
                    failures.len()
                )?;
                for failure in failures {
                    write!(f, "\n  - {failure}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Sim(e)
    }
}

/// Replays each phase in isolation on the deterministic engine and returns
/// the first one that reproduces a failure. A deadlock or cap overflow in
/// the concatenated run is almost always one phase's workload; naming it
/// turns "scenario failed" into an actionable report. Phases are capped at
/// a generous quantum budget so a hung phase attributes instead of hanging
/// the attribution.
fn attribute_failing_phase(scenario: &Scenario) -> Option<(usize, String)> {
    for (i, phase) in scenario.phases.iter().enumerate() {
        let spec = phase
            .workload
            .build(scenario.nodes, scenario.seed + i as u64);
        let mut sim = Sim::new(spec.programs)
            .sync(scenario.policy.clone())
            .seed(scenario.seed)
            .max_quanta(10_000_000)
            .switch(scenario.topology.switch(scenario.nodes));
        if let Some(chaos) = scenario.chaos {
            sim = sim.chaos(chaos);
        }
        if sim.try_run().is_err() {
            return Some((i, phase.workload.name().to_string()));
        }
    }
    None
}

/// Loads, runs, and checks the scenario at `path`.
pub fn run_scenario_file(path: &str) -> Result<ScenarioReport, ScenarioError> {
    let scenario = Scenario::load(path)?;
    run_scenario(&scenario)
}

/// Runs and checks a parsed scenario.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    let programs = scenario.build_programs()?;
    let expected_recvs: u64 = programs.iter().map(|p| p.recv_count() as u64).sum();

    let mut runs = Vec::new();
    for &engine in &scenario.engines {
        // Every engine on the sharded substrate sweeps the configured worker
        // counts; the single-timeline engines run once.
        let sharded_substrate = matches!(
            engine,
            EngineKind::Sharded | EngineKind::ShardedOptimistic | EngineKind::Hybrid
        );
        let worker_counts: Vec<Option<usize>> = if sharded_substrate {
            scenario.shards.iter().map(|m| Some(*m)).collect()
        } else {
            vec![None]
        };
        for m in worker_counts {
            let mut sim = Sim::new(programs.clone())
                .engine(engine)
                .sync(scenario.policy.clone())
                .seed(scenario.seed)
                .switch(scenario.topology.switch(scenario.nodes));
            if let Some(chaos) = scenario.chaos {
                sim = sim.chaos(chaos);
            }
            let label = match m {
                Some(m) => {
                    sim = sim.shards(m);
                    format!("{} m={m}", engine.name())
                }
                None => engine.name().to_string(),
            };
            let report = match sim.try_run() {
                Ok(r) => r,
                Err(error) => {
                    // Only engine-runtime failures can be a phase's fault;
                    // configuration rejections concern the whole scenario.
                    let phase = match &error {
                        SimError::Deadlock { .. }
                        | SimError::QuantumCapExceeded { .. }
                        | SimError::EngineInvariant { .. } => attribute_failing_phase(scenario),
                        _ => None,
                    };
                    return Err(ScenarioError::Run {
                        scenario: scenario.name.clone(),
                        label,
                        phase,
                        error: Box::new(error),
                    });
                }
            };
            runs.push(EngineRun { label, report });
        }
    }

    let outcome = runs[0].report.simulated_outcome();
    let mut checks = Vec::new();
    let mut failures = Vec::new();
    let asserts = &scenario.asserts;

    if asserts.cross_engine_identical {
        let mut identical = true;
        for run in &runs[1..] {
            let other = run.report.simulated_outcome();
            if other != outcome {
                identical = false;
                failures.push(format!(
                    "cross_engine_identical: `{}` diverged from `{}` \
                     (sim_end {} vs {}, messages {} vs {})",
                    run.label,
                    runs[0].label,
                    other.sim_end,
                    outcome.sim_end,
                    other.messages_received,
                    outcome.messages_received,
                ));
            }
        }
        if identical {
            checks.push(format!(
                "cross_engine_identical: {} runs produced one bit-identical outcome",
                runs.len()
            ));
        }
    }

    if asserts.conservation {
        let mut conserved = true;
        for run in &runs {
            if run.report.messages_received != expected_recvs {
                conserved = false;
                failures.push(format!(
                    "conservation: `{}` received {} messages, programs posted {} receives",
                    run.label, run.report.messages_received, expected_recvs
                ));
            }
        }
        if conserved {
            checks.push(format!(
                "conservation: all {expected_recvs} posted receives completed in every run"
            ));
        }
    }

    if asserts.zero_stragglers {
        let mut clean = true;
        for run in &runs {
            let count = run.report.stragglers.count();
            if count > 0 {
                clean = false;
                failures.push(format!(
                    "zero_stragglers: `{}` observed {count} stragglers",
                    run.label
                ));
            }
        }
        if clean {
            checks.push("zero_stragglers: no run observed a straggler".to_string());
        }
    }

    if let Some(max) = asserts.max_stragglers {
        let worst = runs
            .iter()
            .map(|r| r.report.stragglers.count())
            .max()
            .unwrap_or(0);
        if worst > max {
            failures.push(format!(
                "max_stragglers: worst run observed {worst} stragglers (cap {max})"
            ));
        } else {
            checks.push(format!("max_stragglers: worst run {worst} <= {max}"));
        }
    }

    if let Some(min) = asserts.min_messages {
        if outcome.messages_received < min {
            failures.push(format!(
                "min_messages: `{}` received only {} messages (need at least {min})",
                runs[0].label, outcome.messages_received
            ));
        } else {
            checks.push(format!(
                "min_messages: {} >= {min}",
                outcome.messages_received
            ));
        }
    }

    if let Some(ms) = asserts.max_sim_ms {
        let cap_nanos = ms.saturating_mul(1_000_000);
        if outcome.sim_end.as_nanos() > cap_nanos {
            failures.push(format!(
                "max_sim_ms: `{}` simulated end {} exceeds {ms} ms",
                runs[0].label, outcome.sim_end
            ));
        } else {
            checks.push(format!("max_sim_ms: {} <= {ms} ms", outcome.sim_end));
        }
    }

    if !failures.is_empty() {
        return Err(ScenarioError::Assert {
            scenario: scenario.name.clone(),
            failures,
        });
    }

    Ok(ScenarioReport {
        name: scenario.name.clone(),
        nodes: scenario.nodes,
        phases: scenario.phases.len(),
        chaos: scenario.chaos.is_some(),
        runs,
        outcome,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(src: &str) -> Scenario {
        Scenario::from_str(src, "<test>").expect("scenario parses")
    }

    #[test]
    fn clean_scenario_passes_default_asserts() {
        let report = run_scenario(&scenario(
            r#"
name = "clean"
nodes = 4
shards = [1, 2]
[[phases]]
workload = "burst"
compute = 20000
[[phases]]
workload = "pingpong"
rounds = 5
"#,
        ))
        .expect("passes");
        // deterministic + sharded m=1 + sharded m=2
        assert_eq!(report.runs.len(), 3);
        assert_eq!(report.phases, 2);
        assert!(!report.chaos);
        assert!(report.checks.iter().any(|c| c.contains("cross_engine")));
        assert!(report.outcome.messages_received > 0);
    }

    #[test]
    fn chaos_scenario_stays_identical_and_slower() {
        let base = r#"
name = "chaotic"
nodes = 4
shards = [1, 2, 4]
[[phases]]
workload = "burst"
compute = 20000
bytes = 4096
"#;
        let clean = run_scenario(&scenario(base)).expect("clean passes");
        let chaotic = run_scenario(&scenario(&format!(
            "{base}\n[chaos]\nlink_flap = 0.1\nloss = 0.2\nretransmit_us = 150\njitter_us = 3\n"
        )))
        .expect("chaos passes");
        assert!(chaotic.chaos);
        assert_eq!(
            clean.outcome.messages_received, chaotic.outcome.messages_received,
            "chaos only delays, never loses"
        );
        assert!(
            chaotic.outcome.sim_end > clean.outcome.sim_end,
            "faults must delay completion"
        );
    }

    #[test]
    fn failed_assertion_lists_every_failure() {
        let err = run_scenario(&scenario(
            r#"
name = "impossible"
nodes = 4
engines = ["deterministic"]
[[phases]]
workload = "pingpong"
rounds = 2
[asserts]
min_messages = 1000000
max_sim_ms = 0
"#,
        ))
        .expect_err("must fail");
        match err {
            ScenarioError::Assert { scenario, failures } => {
                assert_eq!(scenario, "impossible");
                assert_eq!(failures.len(), 2, "{failures:?}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn failed_run_names_the_engine_combination() {
        // A zero rack size parses but is rejected by `Sim` at run time; the
        // error must say which run died, not just bubble the bare SimError.
        let err = run_scenario(&scenario(
            r#"
name = "bad-combo"
nodes = 4
engines = ["sharded"]
shards = [2]
[topology]
kind = "fabric"
rack_size = 0
[[phases]]
workload = "pingpong"
rounds = 2
"#,
        ))
        .expect_err("must fail");
        match &err {
            ScenarioError::Run {
                scenario,
                label,
                phase,
                error,
            } => {
                assert_eq!(scenario, "bad-combo");
                assert_eq!(label, "sharded m=2");
                assert_eq!(*phase, None, "a config rejection is not a phase's fault");
                assert!(
                    matches!(**error, SimError::InvalidFabric(_)),
                    "got {error:?}"
                );
            }
            other => panic!("wrong error: {other}"),
        }
        let text = err.to_string();
        assert!(text.contains("run `sharded m=2` failed"), "{text}");
    }

    #[test]
    fn sim_rejections_pass_through_typed() {
        // 4 phases of gossip on 3 nodes is fine; an invalid chaos config is
        // caught at scenario parse, so exercise a Sim-level rejection via
        // too-large shard count — which the sharded engine accepts (workers
        // idle), so instead check the typed error from a bad file path.
        let err = run_scenario_file("/no/such/scenario.toml").expect_err("must fail");
        match err {
            ScenarioError::Sim(SimError::ScenarioParse { line, .. }) => assert_eq!(line, 0),
            other => panic!("wrong error: {other}"),
        }
    }
}
