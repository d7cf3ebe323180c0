//! Harness-side spans around single layers: each number is host time per
//! public call, from batches of calls long enough to time (five batches of
//! `budget / 5` seconds, the fastest batch reported). They do not depend on
//! the workload, so every traced run measures them the same way.

use crate::metrics::{steady, Layers};
use crate::trace::Tracer;
use aqs_cluster::{SimSnapshot, SnapshotStep};
use aqs_core::{AdaptiveQuantum, QuantumPolicy};
use aqs_des::{EventQueue, WheelQueue};
use aqs_net::{ChaosConfig, ChaosOverlay, FabricConfig, FatTreeFabric, NicModel};
use aqs_node::{CpuModel, MessageId, MessageMeta, NodeExecutor, ProgramBuilder, Rank, Tag};
use aqs_rng::SplitMix64;
use aqs_scenario::{run_scenario, Scenario};
use aqs_serve::jobs::{build_sim, CaseJob};
use aqs_serve::{protocol, Journal};
use aqs_sync::{Mailbox, MailboxPool, TreeBarrier};
use aqs_time::{HostTime, SimDuration, SimTime};
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;

/// Times `iter` in batches and returns the steady seconds per iteration
/// for each of the `K` parts it reports. `iter` times its own parts, so
/// set-up inside an iteration (building the queue to pop from) is not
/// counted.
fn per_iter<const K: usize>(budget_s: f64, mut iter: impl FnMut() -> [Duration; K]) -> [f64; K] {
    // Size a batch from a short calibration burst.
    let started = Instant::now();
    let mut n = 0u32;
    while n < 3 || (started.elapsed().as_secs_f64() < budget_s / 50.0 && n < 1_000_000) {
        black_box(iter());
        n += 1;
    }
    let per = started.elapsed().as_secs_f64() / n as f64;
    let iters = ((budget_s / BATCHES as f64 / per) as usize).clamp(1, 10_000_000);
    let mut batches = vec![Vec::with_capacity(BATCHES); K];
    for _ in 0..BATCHES {
        let mut sums = [Duration::ZERO; K];
        for _ in 0..iters {
            for (sum, part) in sums.iter_mut().zip(iter()) {
                *sum += part;
            }
        }
        for (batch, sum) in batches.iter_mut().zip(sums) {
            batch.push(sum.as_secs_f64() / iters as f64);
        }
    }
    std::array::from_fn(|k| steady(&batches[k]))
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed(), out)
}

/// Runs every layer probe for about `budget_s` seconds each and files the
/// results. Returns the number of probes that failed a check.
pub fn measure(
    budget_s: f64,
    seed: u64,
    perf_dir: &Path,
    out: &mut Layers,
    t: &mut Tracer,
) -> Result<u64, String> {
    let mut failed = 0;
    t.span("sync.probe_mailbox", |_| mailbox(budget_s, out));
    t.span("sync.probe_barrier", |_| barrier(budget_s, out));
    t.span("net.probe", |_| net(budget_s, seed, out));
    t.span("node.probe", |_| node(budget_s, out));
    t.span("des.probe", |_| des(budget_s, seed, out));
    t.span("core.probe_policy", |_| policy(budget_s, out));
    failed += t.span("cluster.probe_snapshot", |_| snapshot(budget_s, seed, out))?;
    t.span("scenario.probe", |_| {
        scenario(budget_s, seed, perf_dir, out)
    })?;
    t.span("serve.probe_journal", |_| journal(budget_s, perf_dir, out))?;
    Ok(failed)
}

fn mailbox(budget_s: f64, out: &mut Layers) {
    const N: u64 = 1024;
    let mb: Mailbox<u64> = Mailbox::new();
    let mut pool = MailboxPool::with_capacity(N as usize);
    let mut sink = Vec::with_capacity(N as usize);
    let [push, drain] = per_iter(budget_s, || {
        let (push, ()) = timed(|| {
            for v in 0..N {
                mb.push_pooled(black_box(v), &mut pool);
            }
        });
        sink.clear();
        let (drain, ()) = timed(|| mb.drain_into_pooled(&mut sink, &mut pool));
        black_box(sink.len());
        [push, drain]
    });
    out.set("sync.mailbox_push_ns", push * 1e9 / N as f64);
    out.set("sync.mailbox_drain_ns", drain * 1e9 / N as f64);
}

fn barrier(budget_s: f64, out: &mut Layers) {
    const ROUNDS: u64 = 2_000;
    let [round] = per_iter(budget_s, || {
        let barrier = TreeBarrier::new(2, 0u64);
        let (elapsed, ()) = timed(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        barrier.arrive(1, |rounds| *rounds += 1);
                    }
                });
                for _ in 0..ROUNDS {
                    barrier.arrive(0, |rounds| *rounds += 1);
                }
            })
        });
        assert_eq!(barrier.into_state(), ROUNDS, "one leader per round");
        [elapsed]
    });
    out.set("sync.barrier_round_ns", round * 1e9 / ROUNDS as f64);
}

fn net(budget_s: f64, seed: u64, out: &mut Layers) {
    const N: u32 = 262_144;
    let mut rng = SplitMix64::new(seed ^ 0x004e_4554); // "NET"
    let flows: Vec<(u32, u32, u64)> = (0..4096)
        .map(|_| {
            let src = (rng.next_u64() % N as u64) as u32;
            let dst = (rng.next_u64() % N as u64) as u32;
            (src, dst, rng.next_u64() % 1_000_000)
        })
        .collect();

    let fabric = FatTreeFabric::new(FabricConfig::fat_tree(), N as usize);
    let [transit] = per_iter(budget_s, || {
        let (elapsed, sum) = timed(|| {
            flows.iter().fold(0u64, |acc, &(src, dst, at)| {
                acc.wrapping_add(fabric.transit_nanos(src, dst, 1500, at))
            })
        });
        black_box(sum);
        [elapsed]
    });
    out.set("net.fabric_transit_ns", transit * 1e9 / flows.len() as f64);

    let chaos = ChaosOverlay::new(
        ChaosConfig::new(seed)
            .with_link_flap(0.08)
            .with_loss(0.15, SimDuration::from_micros(150))
            .with_jitter(SimDuration::from_micros(2))
            .with_spike(0.1, SimDuration::from_micros(20)),
    )
    .expect("the probe's chaos configuration is valid");
    let [extra] = per_iter(budget_s, || {
        let (elapsed, sum) = timed(|| {
            flows.iter().fold(0u64, |acc, &(src, dst, at)| {
                acc.wrapping_add(chaos.extra_nanos(src, dst, 1500, at))
            })
        });
        black_box(sum);
        [elapsed]
    });
    out.set("net.chaos_extra_ns", extra * 1e9 / flows.len() as f64);

    let nic = NicModel::paper_default();
    let bytes = 1 << 20;
    let fragments = nic.fragment_count(bytes);
    let [fragment] = per_iter(budget_s, || {
        let (elapsed, sum) = timed(|| {
            (0..fragments).fold(0u64, |acc, i| {
                acc + nic.fragment_size(black_box(bytes), i) as u64
            })
        });
        assert_eq!(sum, bytes, "fragments add up to the message");
        [elapsed]
    });
    out.set("net.nic_fragment_ns", fragment * 1e9 / fragments as f64);
}

fn node(budget_s: f64, out: &mut Layers) {
    const STEPS: u32 = 512;
    let mut program = ProgramBuilder::new(Rank::new(0));
    for i in 0..STEPS {
        program = program
            .compute(1_000)
            .send(Rank::new(1), 1_024, Tag::new(i % 4));
    }
    let program = program.build();
    let [next_action] = per_iter(budget_s, || {
        let mut exec = NodeExecutor::new(program.clone(), CpuModel::default());
        let (elapsed, actions) = timed(|| {
            let mut now = SimTime::ZERO;
            let mut actions = 0u32;
            loop {
                match exec.next_action(now) {
                    aqs_node::Action::Finished => break actions,
                    aqs_node::Action::Advance { dur, .. } => now += dur,
                    _ => {}
                }
                actions += 1;
            }
        });
        assert_eq!(actions, 2 * STEPS, "one advance and one send per step");
        [elapsed]
    });
    out.set(
        "node.next_action_ns",
        next_action * 1e9 / (2 * STEPS) as f64,
    );

    const MESSAGES: u64 = 128;
    const FRAGS: u32 = 4;
    let idle = ProgramBuilder::new(Rank::new(0)).build();
    let [deliver] = per_iter(budget_s, || {
        let mut exec = NodeExecutor::new(idle.clone(), CpuModel::default());
        let (elapsed, complete) = timed(|| {
            let mut complete = 0u64;
            for seq in 0..MESSAGES {
                let meta = MessageMeta {
                    id: MessageId {
                        src: Rank::new((seq % 8) as u32 + 1),
                        seq,
                    },
                    tag: Tag::new((seq % 4) as u32),
                    bytes: 6_000,
                    frag_count: FRAGS,
                };
                for frag in 0..FRAGS {
                    let at = SimTime::from_nanos(seq * 100 + frag as u64);
                    complete += exec.deliver_fragment(meta, frag, at).is_some() as u64;
                }
            }
            complete
        });
        assert_eq!(complete, MESSAGES, "the last fragment completes a message");
        [elapsed]
    });
    out.set(
        "node.deliver_fragment_ns",
        deliver * 1e9 / (MESSAGES * FRAGS as u64) as f64,
    );
}

fn des(budget_s: f64, seed: u64, out: &mut Layers) {
    let mut rng = SplitMix64::new(seed ^ 0x0044_4553); // "DES"
    let times: Vec<u64> = (0..1000).map(|_| rng.next_u64() % 1_000_000).collect();
    let [heap] = per_iter(budget_s, || {
        let (elapsed, sum) = timed(|| {
            let mut q: EventQueue<HostTime, u32> = EventQueue::with_capacity(1024);
            for (i, t) in times.iter().enumerate() {
                q.schedule(HostTime::from_nanos(*t), i as u32);
            }
            let mut sum = 0u64;
            while let Some((t, _)) = q.pop() {
                sum += t.as_nanos();
            }
            sum
        });
        black_box(sum);
        [elapsed]
    });
    out.set("des.event_push_pop_ns", heap * 1e9 / times.len() as f64);
    let [wheel] = per_iter(budget_s, || {
        let (elapsed, sum) = timed(|| {
            let mut q: WheelQueue<u32> = WheelQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(HostTime::from_nanos(*t), i as u32);
            }
            let mut sum = 0u64;
            while let Some((t, _)) = q.pop() {
                sum += t.as_nanos();
            }
            sum
        });
        black_box(sum);
        [elapsed]
    });
    out.set("des.wheel_push_pop_ns", wheel * 1e9 / times.len() as f64);
}

fn policy(budget_s: f64, out: &mut Layers) {
    const STEPS: u64 = 4096;
    let mut p = AdaptiveQuantum::paper_dyn1();
    let [step] = per_iter(budget_s, || {
        let (elapsed, last) = timed(|| {
            let mut last = SimDuration::ZERO;
            for i in 0..STEPS {
                last = p.next_quantum(black_box(if i % 64 == 0 { 3 } else { 0 }));
            }
            last
        });
        black_box(last);
        [elapsed]
    });
    out.set("core.policy_step_ns", step * 1e9 / STEPS as f64);
}

/// The mini case job `serve_jobs` submits: its first 2000-quantum chunk,
/// and the snapshot that chunk ends in, encoded and decoded.
fn snapshot(budget_s: f64, seed: u64, out: &mut Layers) -> Result<u64, String> {
    let sim = build_sim(&CaseJob {
        workload: "cg".to_string(),
        nodes: 8,
        policy: "dyn1".to_string(),
        seed,
        scale: "mini".to_string(),
        inject_panic: false,
    })?;
    let first = |sim: &aqs_cluster::Sim| match sim.step_snapshot(None, 2_000) {
        Ok(SnapshotStep::Snapshot(snap)) => Ok(snap),
        Ok(SnapshotStep::Finished(_)) => Err("cg 8 mini finished inside one chunk".to_string()),
        Err(e) => Err(e.to_string()),
    };
    let snap = first(&sim)?;
    let bytes = snap.to_bytes();
    let mut failed = 0;
    let [step] = per_iter(budget_s, || {
        let (elapsed, again) = timed(|| first(&sim));
        failed += (again.map(|s| s.to_bytes()).ok().as_ref() != Some(&bytes)) as u64;
        [elapsed]
    });
    let [encode, decode] = per_iter(budget_s, || {
        let (encode, encoded) = timed(|| snap.to_bytes());
        let (decode, decoded) = timed(|| SimSnapshot::from_bytes(&encoded));
        failed += (decoded.map(|s| s.quanta()).ok() != Some(snap.quanta())) as u64;
        [encode, decode]
    });
    out.set("cluster.snapshot.step_us", step * 1e6);
    out.set("cluster.snapshot.encode_us", encode * 1e6);
    out.set("cluster.snapshot.decode_us", decode * 1e6);
    out.set("cluster.snapshot.bytes", bytes.len() as f64);
    if failed > 0 {
        eprintln!("FAILED: a snapshot did not repeat or did not decode");
    }
    Ok(failed.min(1))
}

/// Mean per scenario file of parsing the text, building its programs, and
/// running it on every engine it lists.
fn scenario(budget_s: f64, seed: u64, perf_dir: &Path, out: &mut Layers) -> Result<(), String> {
    let (mut parse_s, mut build_s, mut run_s) = (0.0, 0.0, 0.0);
    let files = crate::workloads::SCENARIOS;
    for file in files {
        let path = crate::workloads::seeded_scenario(perf_dir, file, seed)?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let parsed = Scenario::from_str(&text, file).map_err(|e| e.to_string())?;
        let [parse] = per_iter(budget_s / 2.0, || {
            let (elapsed, s) = timed(|| Scenario::from_str(&text, file));
            black_box(s.is_ok());
            [elapsed]
        });
        let [build] = per_iter(budget_s / 2.0, || {
            let (elapsed, p) = timed(|| parsed.build_programs());
            black_box(p.is_ok());
            [elapsed]
        });
        let mut error = None;
        let [run] = per_iter(budget_s, || {
            let (elapsed, r) = timed(|| run_scenario(&parsed));
            if let Err(e) = r {
                error = Some(e.to_string());
            }
            [elapsed]
        });
        if let Some(e) = error {
            return Err(format!("{file}: {e}"));
        }
        parse_s += parse;
        build_s += build;
        run_s += run;
    }
    let n = files.len() as f64;
    out.set("scenario.parse_us", parse_s * 1e6 / n);
    out.set("scenario.build_programs_us", build_s * 1e6 / n);
    out.set("scenario.run_ms", run_s * 1e3 / n);
    Ok(())
}

/// `Journal::append` of a submit-sized record, fsync included.
fn journal(budget_s: f64, perf_dir: &Path, out: &mut Layers) -> Result<(), String> {
    let dir = perf_dir.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("probe-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut journal, _) = Journal::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let record = protocol::obj(vec![
        ("ev", Value::Str("submit".to_string())),
        ("job", Value::U64(1)),
        ("tenant", Value::Str("client0".to_string())),
        ("deadline_ms", Value::U64(30_000)),
        (
            "spec",
            protocol::obj(vec![
                ("workload", Value::Str("cg".to_string())),
                ("nodes", Value::U64(8)),
                ("policy", Value::Str("dyn1".to_string())),
                ("seed", Value::U64(42)),
                ("scale", Value::Str("mini".to_string())),
                ("inject_panic", Value::Bool(false)),
            ]),
        ),
    ]);
    let mut error = None;
    let [append] = per_iter(budget_s, || {
        let (elapsed, r) = timed(|| journal.append(&record));
        if let Err(e) = r {
            error = Some(e.to_string());
        }
        [elapsed]
    });
    drop(journal);
    let _ = std::fs::remove_file(&path);
    if let Some(e) = error {
        return Err(format!("journal append: {e}"));
    }
    out.set("serve.journal_append_us", append * 1e6);
    Ok(())
}
