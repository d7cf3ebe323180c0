//! The scenario corpus is part of the contract: every checked-in scenario
//! must run and pass its own assertions, the flagship chaos scenario must
//! be bit-identical across engines and worker counts, and every file in
//! `scenarios/malformed/` must be rejected with a typed error.

use aqs::cluster::SimError;
use aqs::scenario::{run_scenario, Scenario, ScenarioError};
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn toml_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .toml files in {}", dir.display());
    files
}

#[test]
fn allreduce_chaos_is_bit_identical_across_engines_and_worker_counts() {
    let scenario =
        Scenario::load(scenarios_dir().join("allreduce_chaos.toml")).expect("scenario parses");
    assert!(
        scenario
            .chaos
            .is_some_and(|c| c.link_flap > 0.0 && c.loss > 0.0),
        "the flagship scenario must inject link flaps and packet loss"
    );
    assert!(scenario.phases.len() >= 2, "must be multi-phase");
    assert_eq!(scenario.shards, vec![1, 2, 4, 8]);

    let report = run_scenario(&scenario).expect("scenario passes its assertions");
    // deterministic + sharded {1,2,4,8}
    assert_eq!(report.runs.len(), 5);
    let outcome = report.runs[0].report.simulated_outcome();
    for run in &report.runs[1..] {
        assert_eq!(
            run.report.simulated_outcome(),
            outcome,
            "{} diverged from {}",
            run.label,
            report.runs[0].label
        );
    }

    // Same file, same seed: a fresh load replays bit for bit.
    let again = run_scenario(
        &Scenario::load(scenarios_dir().join("allreduce_chaos.toml")).expect("reloads"),
    )
    .expect("passes again");
    assert_eq!(
        again.outcome, report.outcome,
        "scenario replay must be exact"
    );
}

#[test]
fn chaos_delays_but_never_loses_traffic() {
    let mut scenario =
        Scenario::load(scenarios_dir().join("allreduce_chaos.toml")).expect("scenario parses");
    let chaotic = run_scenario(&scenario).expect("chaotic run passes");
    scenario.chaos = None;
    let clean = run_scenario(&scenario).expect("clean run passes");
    assert_eq!(
        chaotic.outcome.messages_received, clean.outcome.messages_received,
        "loss is modeled as retransmit delay, not real drops"
    );
    assert!(
        chaotic.outcome.sim_end > clean.outcome.sim_end,
        "chaos must actually perturb the run ({} vs {})",
        chaotic.outcome.sim_end,
        clean.outcome.sim_end
    );
}

#[test]
fn every_corpus_scenario_passes() {
    for path in toml_files(&scenarios_dir()) {
        let scenario =
            Scenario::load(&path).unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        run_scenario(&scenario).unwrap_or_else(|e| panic!("{} must pass: {e}", path.display()));
    }
}

#[test]
fn every_malformed_scenario_is_rejected_with_a_typed_error() {
    for path in toml_files(&scenarios_dir().join("malformed")) {
        let err = match Scenario::load(&path) {
            Err(e) => ScenarioError::Sim(e),
            // Some malformations only surface when the runs are configured.
            Ok(scenario) => match run_scenario(&scenario) {
                Err(e) => e,
                Ok(_) => panic!("{} must be rejected", path.display()),
            },
        };
        match err {
            ScenarioError::Sim(
                SimError::ScenarioParse { ref file, .. }
                | SimError::ScenarioValidate { ref file, .. },
            ) => {
                assert!(
                    file.ends_with(path.file_name().unwrap().to_str().unwrap()),
                    "{}: error must carry the file path, got {err}",
                    path.display()
                );
            }
            other => panic!("{}: wrong error kind: {other}", path.display()),
        }
    }
}

/// An engine name means the same thing in a scenario file and after
/// `conformance --engines`: both parse it through `EngineKind`'s `FromStr`,
/// so they accept the same spellings and reject the rest with one message.
#[test]
fn engine_names_mean_the_same_in_a_scenario_file_and_on_the_conformance_command_line() {
    for (name, accepted) in [
        ("deterministic", true),
        ("det", true),
        ("sharded", true),
        ("sharded-optimistic", true),
        ("sharded_optimistic", true),
        ("hybrid", true),
        ("threaded", false),
        ("optimistic", false),
        ("Sharded", false),
        ("warp", false),
    ] {
        let toml = format!(
            "name = \"x\"\nnodes = 4\nengines = [\"{name}\"]\n[[phases]]\nworkload = \"burst\""
        );
        let file = Scenario::from_str(&toml, "x.toml").map(|s| s.engines);
        let argv = ["--cases", "0", "--engines", name].map(String::from);
        let flag = aqs::check::cli::run(&argv);
        match (file, flag) {
            (Ok(engines), Ok(0)) if accepted => {
                assert_eq!(engines, [name.parse().expect("accepted by the grammar")])
            }
            (Err(SimError::ScenarioParse { line, message, .. }), Err(usage)) if !accepted => {
                assert_eq!(line, 3, "{name}");
                assert_eq!(message, usage, "{name}");
            }
            other => panic!("{name}: the two call sites disagree: {other:?}"),
        }
    }
}
