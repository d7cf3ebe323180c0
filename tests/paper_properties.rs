//! Cross-crate integration tests of the paper's central claims.

use aqs::cluster::{
    app_metric, paper_sweep, run_workload, ClusterConfig, EngineKind, Experiment, Sim,
};
use aqs::core::{AdaptiveConfig, SyncConfig};
use aqs::obs::ObsConfig;
use aqs::time::{SimDuration, SimTime};
use aqs::workloads::{burst, namd, nas, ping_pong, uniform_compute, Scale};
use proptest::prelude::*;

fn base(seed: u64) -> ClusterConfig {
    ClusterConfig::new(SyncConfig::ground_truth()).with_seed(seed)
}

/// The safety condition (§3): with `Q ≤ T` no configuration of workload or
/// node speeds can produce a straggler.
#[test]
fn safe_quantum_is_straggler_free_across_workloads() {
    for spec in [
        ping_pong(2, 10, 64),
        ping_pong(4, 5, 20_000),
        burst(4, 100_000, 4096),
        nas::is(4, Scale::Tiny),
        nas::lu(4, Scale::Tiny),
        namd::namd(4, Scale::Tiny),
    ] {
        let r = run_workload(&spec, &base(3));
        assert_eq!(
            r.stragglers.count(),
            0,
            "{} straggled under Q <= T",
            spec.name
        );
    }
}

/// Longer fixed quanta are (weakly) faster on every workload — the whole
/// reason to trade accuracy away.
#[test]
fn speed_is_monotone_in_fixed_quantum() {
    let spec = nas::cg(4, Scale::Tiny);
    let mut last = None;
    for q in [1u64, 10, 100, 1000] {
        let r = run_workload(&spec, &base(5).with_sync(SyncConfig::fixed_micros(q)));
        if let Some(prev) = last {
            assert!(
                r.host_elapsed <= prev,
                "Q={q}µs was slower than the previous quantum ({} > {prev})",
                r.host_elapsed
            );
        }
        last = Some(r.host_elapsed);
    }
}

/// Simulated time only dilates (never contracts) as the quantum grows:
/// stragglers delay deliveries, they never accelerate them.
#[test]
fn sim_time_dilates_with_quantum() {
    let spec = ping_pong(2, 30, 64);
    let truth = run_workload(&spec, &base(7));
    for q in [10u64, 100, 1000] {
        let r = run_workload(&spec, &base(7).with_sync(SyncConfig::fixed_micros(q)));
        assert!(
            r.sim_end >= truth.sim_end,
            "Q={q}µs contracted simulated time: {} < {}",
            r.sim_end,
            truth.sim_end
        );
    }
}

/// The headline result: on a bursty workload the adaptive quantum is much
/// faster than the ground truth while staying far more accurate than the
/// fastest fixed quantum.
#[test]
fn adaptive_beats_the_tradeoff() {
    let exp = Experiment::new(
        burst(4, 3_000_000, 4096),
        base(11),
        vec![SyncConfig::fixed_micros(1000), SyncConfig::paper_dyn1()],
    );
    let r = exp.run();
    let fixed = &r.outcomes[0];
    let dyn1 = &r.outcomes[1];
    assert!(
        dyn1.speedup > 3.0,
        "adaptive too slow: {:.1}x",
        dyn1.speedup
    );
    assert!(
        dyn1.accuracy_error < fixed.accuracy_error / 2.0 + 1e-9,
        "adaptive not more accurate: {} vs {}",
        dyn1.accuracy_error,
        fixed.accuracy_error
    );
}

/// Functional behaviour is independent of the synchronization policy: every
/// message is received exactly once under every configuration (the paper's
/// "the functional causality of the application is maintained by the data
/// flow, regardless of the skew in clock times").
#[test]
fn functional_behaviour_is_policy_independent() {
    let spec = nas::mg(4, Scale::Tiny);
    let expected: Vec<u64> = {
        let r = run_workload(&spec, &base(13));
        r.per_node.iter().map(|n| n.messages_received).collect()
    };
    for sync in paper_sweep() {
        let r = run_workload(&spec, &base(13).with_sync(sync.clone()));
        let got: Vec<u64> = r.per_node.iter().map(|n| n.messages_received).collect();
        assert_eq!(got, expected, "message counts changed under {sync}");
        let ops: u64 = r.total_ops();
        assert_eq!(ops, spec.total_ops(), "op counts changed under {sync}");
    }
}

/// Identical configuration + seed ⇒ identical run, including host timing
/// and the quantum-by-quantum record.
#[test]
fn runs_are_bit_reproducible() {
    let spec = namd::namd(4, Scale::Tiny);
    let run = || {
        Sim::new(spec.programs.clone())
            .config(base(17).with_sync(SyncConfig::paper_dyn2()))
            .record(ObsConfig::new())
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.wall_clock, b.wall_clock);
    assert_eq!(a.sim_end, b.sim_end);
    assert_eq!(a.total_packets, b.total_packets);
    assert_eq!(a.stragglers, b.stragglers);
    let quanta = |r: &aqs::cluster::RunReport| -> Vec<_> {
        let obs = r.obs.as_ref().expect("the run was recorded");
        obs.samples()
            .map(|q| (q.index, q.start, q.len, q.host_ns, q.packets))
            .collect()
    };
    assert!(!quanta(&a).is_empty());
    assert_eq!(quanta(&a), quanta(&b));
}

/// The adaptive quantum respects its configured bounds over a whole run.
#[test]
fn adaptive_quantum_stays_in_bounds() {
    let min = SimDuration::from_micros(2);
    let max = SimDuration::from_micros(50);
    let sync = SyncConfig::Adaptive(AdaptiveConfig::new(min, max, 1.10, 0.1));
    let spec = burst(4, 500_000, 1024);
    let report = Sim::new(spec.programs)
        .config(base(19).with_sync(sync))
        .record(ObsConfig::new())
        .run();
    let obs = report.obs.expect("the run was recorded");
    // Every sample but the last is a quantum the policy chose; the last is
    // the stretch from the final barrier to the end of the run.
    let chosen = obs.ring_len() - 1;
    assert!(chosen > 0);
    for q in obs.samples().take(chosen) {
        assert!(
            q.len >= min && q.len <= max,
            "quantum {} out of bounds",
            q.len
        );
    }
}

/// Compute-only workloads are exactly accurate under any quantum: with no
/// packets there are no stragglers and no way to lose precision.
#[test]
fn no_communication_means_no_error() {
    let spec = uniform_compute(4, 1_000_000, 0.2);
    let truth = run_workload(&spec, &base(23));
    let m0 = app_metric(&truth, spec.metric);
    for q in [100u64, 1000] {
        let r = run_workload(&spec, &base(23).with_sync(SyncConfig::fixed_micros(q)));
        let m = app_metric(&r, spec.metric);
        assert!(
            m.error_vs(&m0) < 1e-9,
            "compute-only workload drifted under Q={q}µs: {:?} vs {:?}",
            m,
            m0
        );
        assert_eq!(r.stragglers.count(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Algorithm 1, as a property over random policies and workloads, on
    /// both quantum engines: every quantum the policy emits stays inside
    /// `[min_quantum, max_quantum]`, and any quantum that saw packets is
    /// followed by a strictly shorter one (or stays pinned at the floor).
    #[test]
    fn adaptive_quantum_bounded_and_shrinks_on_packets(
        min_us in prop::sample::select(vec![1u64, 2]),
        span in prop::sample::select(vec![10u64, 50, 200]),
        inc in 1.02f64..1.3,
        dec in 0.02f64..0.4,
        rounds in 5usize..40,
        bytes in 64u64..8_000,
    ) {
        let min = SimDuration::from_micros(min_us);
        let max = SimDuration::from_micros(min_us + span);
        let sync = SyncConfig::Adaptive(AdaptiveConfig::new(min, max, inc, dec));
        let spec = ping_pong(2, rounds, bytes);
        for engine in [EngineKind::Deterministic, EngineKind::Sharded] {
            let report = Sim::new(spec.programs.clone())
                .engine(engine)
                .shards(2) // one worker per node
                .config(ClusterConfig::new(sync.clone()).with_seed(31))
                .max_quanta(50_000_000)
                .record(ObsConfig::new().with_ring_capacity(16_384))
                .run();
            let rec = report.obs.as_ref().expect("recording requested");
            prop_assert_eq!(rec.dropped(), 0, "ring wrapped; lengthen it");
            let quanta: Vec<(u64, u64)> =
                rec.samples().map(|s| (s.len.as_nanos(), s.packets)).collect();
            // The deterministic engine's final sample is truncated to
            // sim_end rather than policy-length; skip it.
            let Some((_, full)) = quanta.split_last() else { continue };
            let (lo, hi) = (min.as_nanos(), max.as_nanos());
            for &(len, _) in full {
                prop_assert!(
                    len >= lo && len <= hi,
                    "{engine:?}: quantum {len} ns outside [{lo}, {hi}] ns"
                );
            }
            for w in full.windows(2) {
                let ((len, packets), (next, _)) = (w[0], w[1]);
                if packets > 0 {
                    prop_assert!(
                        if len == lo { next == lo } else { next < len },
                        "{engine:?}: {packets} packets at {len} ns, next {next} ns \
                         (floor {lo} ns)"
                    );
                }
            }
        }
    }
}

/// The engine's simulated end time is consistent with its per-node views.
#[test]
fn result_invariants() {
    let spec = nas::ep(4, Scale::Tiny);
    let r = run_workload(&spec, &base(29).with_sync(SyncConfig::paper_dyn1()));
    assert_eq!(r.n_nodes, 4);
    assert_eq!(r.per_node.len(), 4);
    let max_finish = r.per_node.iter().map(|n| n.finish_sim).max().unwrap();
    assert_eq!(r.sim_end, max_finish);
    assert!(r.sim_end > SimTime::ZERO);
    for n in &r.per_node {
        assert!(n.finish_sim <= r.sim_end);
        assert!(n.ops > 0);
    }
}
