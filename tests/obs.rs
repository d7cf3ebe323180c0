//! The observability subsystem, observed: recording must be complete (the
//! flight recorder's per-quantum packet counts account for every routed
//! packet on every engine, and a recorder of one's own sees each of them),
//! invisible (a recorded run and a `NullRecorder` run produce bit-identical
//! simulated results) and the same across a snapshot cut (a resumed run's
//! samples continue the interrupted run's numbering).

use aqs::cluster::{EngineKind, RunReport, Sim};
use aqs::core::SyncConfig;
use aqs::node::{ProgramBuilder, Rank, Tag};
use aqs::obs::{FlightRecorder, ObsConfig, QuantumObs, Recorder};
use aqs::time::SimTime;
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

/// The exports hold together: one JSONL object per ring sample, and the
/// terminal summary renders the engine's headline numbers.
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
    let summary = fr.render_summary();
    assert!(summary.contains(&fr.total_quanta().to_string()));
}

/// Counts what the engine reports, hook by hook.
#[derive(Default)]
struct Counting {
    quantum_packets: u64,
    /// `(departure, src, dst)` per `record_packet` call, in call order.
    packets: Vec<(SimTime, usize, usize)>,
}

impl Recorder for Counting {
    const ENABLED: bool = true;

    fn record_quantum(&mut self, obs: &QuantumObs<'_>) {
        self.quantum_packets += obs.packets;
    }

    fn record_packet(&mut self, departure: SimTime, src: usize, dst: usize, _bytes: u32) {
        self.packets.push((departure, src, dst));
    }
}

/// A recorder handed to `Sim::run_with_recorder` sees every routed copy
/// exactly once — unicast fragments and each leg of a broadcast — so the
/// three counts of "packets" (the hook's calls, the report's total, the
/// per-quantum samples' sum) are one number.
#[test]
fn record_packet_sees_every_routed_copy_once() {
    let n = 4u32;
    // Rank 0 broadcasts three fragments' worth, everyone answers unicast.
    let programs = (0..n)
        .map(|r| {
            let b = ProgramBuilder::new(Rank::new(r));
            let tag = Tag::new(0);
            if r == 0 {
                (1..n).fold(b.send_all(20_000, tag), |b, peer| {
                    b.recv(Some(Rank::new(peer)), tag)
                })
            } else {
                b.recv(Some(Rank::new(0)), tag).send(Rank::new(0), 8, tag)
            }
            .build()
        })
        .collect();
    let (report, seen) = Sim::new(programs)
        .sync(SyncConfig::paper_dyn1())
        .run_with_recorder(Counting::default())
        .expect("a valid configuration");
    assert!(report.obs.is_none(), "the caller holds the recorder");
    assert!(report.total_packets > u64::from(n), "broadcast fanned out");
    assert_eq!(seen.packets.len() as u64, report.total_packets);
    assert_eq!(seen.quantum_packets, report.total_packets);
    let mut last_departure = vec![SimTime::ZERO; n as usize];
    for &(departure, src, dst) in &seen.packets {
        assert_ne!(src, dst, "a node never routes to itself");
        assert!(departure >= last_departure[src], "sender {src} went back");
        last_departure[src] = departure;
    }
}

/// `host_ns` only moves forward on every engine, and on the oracle the
/// closing sample carries the run's final modelled host time.
#[test]
fn host_ns_is_monotone_on_every_engine_and_ends_at_the_oracles_host_elapsed() {
    let spec = burst(4, 100_000, 2048);
    for engine in ENGINES {
        let report = recorded(&spec, engine, SyncConfig::ground_truth());
        let fr = report.obs.as_ref().expect("recording enabled");
        let host: Vec<u64> = fr.samples().map(|s| s.host_ns).collect();
        assert!(host.len() > 1, "{engine:?}");
        assert!(
            host.windows(2).all(|w| w[0] <= w[1]),
            "{engine:?}: {host:?}"
        );
        assert!(*host.last().unwrap() > 0, "{engine:?}");
        if let Some(det) = report.detail.as_deterministic() {
            assert_eq!(*host.last().unwrap(), det.host_elapsed.as_nanos());
        }
    }
}

fn quanta(fr: &FlightRecorder) -> Vec<(u64, SimTime, u64, u64)> {
    fr.samples()
        .map(|s| (s.index, s.start, s.len.as_nanos(), s.packets))
        .collect()
}

/// `QuantumObs::index` is the run-absolute quantum number: a run resumed
/// from a cut after five quanta starts its samples at 5 on every engine, and
/// on the oracle the resumed samples are the uninterrupted run's tail.
#[test]
fn resumed_samples_are_run_absolute_on_every_engine() {
    let spec = ping_pong(4, 50, 64);
    let whole = recorded(&spec, EngineKind::Deterministic, SyncConfig::ground_truth());
    let whole = quanta(whole.obs.as_ref().expect("recording enabled"));
    for engine in ENGINES {
        let sim = sim(&spec, engine, SyncConfig::ground_truth());
        let snap = sim.snapshot_at(5).expect("the run outlasts five quanta");
        let resumed = sim.record(ObsConfig::new()).resume(&snap).expect("resumes");
        let resumed = quanta(resumed.obs.as_ref().expect("recording enabled"));
        assert_eq!(resumed[0].0, 5, "{engine:?}");
        assert_eq!(resumed[0].1, snap.sim_time(), "{engine:?}");
        assert!(
            resumed.windows(2).all(|w| w[1].0 == w[0].0 + 1),
            "{engine:?}: indices are consecutive"
        );
        if engine == EngineKind::Deterministic {
            assert_eq!(resumed, whole[5..]);
        }
    }
}
