//! The observability subsystem, observed: recording must be complete (the
//! flight recorder's per-quantum packet counts account for every routed
//! packet on every engine) and invisible (a recorded run and a
//! `NullRecorder` run produce bit-identical simulated results).

use aqs::cluster::{EngineKind, RunReport, Sim};
use aqs::core::SyncConfig;
use aqs::obs::ObsConfig;
use aqs::workloads::{burst, nas, ping_pong, Scale, WorkloadSpec};

const ENGINES: [EngineKind; 4] = [
    EngineKind::Deterministic,
    EngineKind::Sharded,
    EngineKind::ShardedOptimistic,
    EngineKind::Hybrid,
];

/// The worker-pool engines run one worker per node: every node's barrier
/// arrival and mailbox is its own thread, the widest recording fan-in.
fn sim(spec: &WorkloadSpec, engine: EngineKind, sync: SyncConfig) -> Sim {
    Sim::new(spec.programs.clone())
        .engine(engine)
        .shards(spec.programs.len())
        .sync(sync)
        .max_quanta(50_000_000)
}

fn recorded(spec: &WorkloadSpec, engine: EngineKind, sync: SyncConfig) -> RunReport {
    sim(spec, engine, sync).record(ObsConfig::new()).run()
}

/// On every engine, the ring's per-quantum `packets` fields sum to the
/// run's `total_packets` (the ring is large enough here to hold every
/// quantum, so nothing is aggregated away).
#[test]
fn per_quantum_packets_sum_to_controller_total_on_every_engine() {
    let spec = ping_pong(2, 8, 9000);
    for engine in ENGINES {
        let report = recorded(&spec, engine, SyncConfig::ground_truth());
        let fr = report.obs.as_ref().expect("recording enabled");
        assert_eq!(fr.dropped(), 0, "{engine:?}: ring too small for the test");
        let ring_sum: u64 = fr.samples().map(|s| s.packets).sum();
        assert_eq!(
            ring_sum, report.total_packets,
            "{engine:?}: ring packets disagree with the controller"
        );
        assert_eq!(fr.total_packets(), report.total_packets, "{engine:?}");
    }
}

/// Same check under an adaptive policy on a heavier workload, where quanta
/// lengths vary and stragglers appear.
#[test]
fn packet_accounting_survives_adaptive_quanta_and_stragglers() {
    let spec = nas::is(4, Scale::Tiny);
    for engine in [EngineKind::Deterministic, EngineKind::Sharded] {
        let report = recorded(&spec, engine, SyncConfig::paper_dyn1());
        let fr = report.obs.as_ref().expect("recording enabled");
        assert_eq!(fr.dropped(), 0, "{engine:?}");
        let ring_sum: u64 = fr.samples().map(|s| s.packets).sum();
        assert_eq!(ring_sum, report.total_packets, "{engine:?}");
        assert_eq!(
            fr.total_stragglers(),
            report.stragglers.count(),
            "{engine:?}"
        );
    }
}

/// A `NullRecorder` run is bit-identical to a recorded run: attaching the
/// flight recorder never perturbs the simulation.
#[test]
fn null_and_recorded_runs_are_bit_identical_on_every_engine() {
    let spec = burst(4, 100_000, 2048);
    for engine in ENGINES {
        let plain = sim(&spec, engine, SyncConfig::ground_truth()).run();
        let taped = recorded(&spec, engine, SyncConfig::ground_truth());
        assert_eq!(
            plain.simulated_outcome(),
            taped.simulated_outcome(),
            "{engine:?}: recording perturbed the simulation"
        );
        assert_eq!(plain.total_quanta, taped.total_quanta, "{engine:?}");
        assert!(plain.obs.is_none());
        assert!(taped.obs.is_some());
    }
}

/// The exports hold together: one JSONL object and one CSV row per ring
/// sample, and the terminal summary renders the engine's headline numbers.
#[test]
fn exports_cover_the_ring() {
    let spec = ping_pong(2, 5, 64);
    let report = recorded(&spec, EngineKind::Deterministic, SyncConfig::ground_truth());
    let fr = report.obs.as_ref().expect("recording enabled");
    let jsonl = fr.to_jsonl();
    assert_eq!(jsonl.lines().count(), fr.ring_len());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    let csv = fr.to_csv();
    assert_eq!(csv.lines().count(), fr.ring_len() + 1, "header + rows");
    let summary = fr.render_summary();
    assert!(summary.contains(&fr.total_quanta().to_string()));
}
