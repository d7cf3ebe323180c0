//! Stress: N producers vs concurrent drains under thread churn.
//!
//! Replays a quantum-synchronous message exchange in miniature and proves the
//! mailbox and the tree barrier hold up in its known-thin spot — a thread
//! that finishes its program mid-quantum but must keep meeting the barrier:
//!
//! * node threads with *different* program lengths exchange messages every
//!   round; a finished thread stops producing but keeps arriving until the
//!   leader observes that everyone is done and publishes stop through the
//!   epoch handshake (exactly the engine's `done`/`Q_END_STOP` protocol);
//! * waves of short-lived external producer threads (the churn) push into
//!   the same mailboxes while the node threads are draining them;
//! * every message is accounted for at the end: exactly once, per-producer
//!   FIFO, nothing dropped, nothing duplicated, no deadlock.

use aqs_sync::{Mailbox, TreeBarrier};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

/// A stuck barrier (e.g. a participant died) would spin this binary forever;
/// turn that into a loud failure instead. The watchdog thread is detached
/// and dies with the process on success.
fn arm_watchdog(done: &'static AtomicBool, secs: u64) {
    thread::spawn(move || {
        thread::sleep(Duration::from_secs(secs));
        if !done.load(Ordering::Acquire) {
            eprintln!("stress watchdog: no completion after {secs}s — deadlock");
            std::process::exit(101);
        }
    });
}

#[derive(Clone, Copy, Debug)]
struct Msg {
    /// Producer id: node threads are `0..n`, external producers follow.
    from: usize,
    seq: u64,
}

struct Ctrl {
    mailboxes: Vec<Mailbox<Msg>>,
    done: AtomicU64,
    /// 1 once the leader decided to stop; published before the epoch bump,
    /// so the release of the round makes it visible to every participant.
    stop: AtomicU64,
    barrier: TreeBarrier<u64>,
}

/// Per-receiver FIFO/exactly-once tracker. A producer's sequence numbers
/// must arrive strictly increasing at any single receiver (per-producer
/// FIFO, no duplicates); `counts` catches losses when totalled at the end.
/// External producers stripe their stream across mailboxes, so a receiver
/// sees an increasing *subsequence*, not a contiguous one.
struct Receiver {
    watermark: Vec<Option<u64>>,
    counts: Vec<u64>,
    received: u64,
}

impl Receiver {
    fn new(producers: usize) -> Self {
        Receiver {
            watermark: vec![None; producers],
            counts: vec![0; producers],
            received: 0,
        }
    }

    fn take(&mut self, m: Msg) {
        if let Some(last) = self.watermark[m.from] {
            assert!(
                m.seq > last,
                "producer {} seq {} after {}: reordered or duplicated",
                m.from,
                m.seq,
                last
            );
        }
        self.watermark[m.from] = Some(m.seq);
        self.counts[m.from] += 1;
        self.received += 1;
    }
}

#[test]
fn churn_and_mid_quantum_finish_lose_nothing() {
    const N: usize = 4; // barrier participants (node threads)
    const WAVES: usize = 3;
    const EXTERNAL_PER_WAVE: usize = 3;
    const EXTERNAL_MSGS: u64 = 2_000;
    const ROUND_CAP: u64 = 1_000_000;
    // Deliberately spread program lengths so threads finish far apart and
    // spend many rounds in the "done but still arriving" state.
    let program_len: [u64; N] = [50, 400, 2_000, 6_000];
    let producers = N + WAVES * EXTERNAL_PER_WAVE;
    static DONE: AtomicBool = AtomicBool::new(false);
    arm_watchdog(&DONE, 300);

    let ctrl = Ctrl {
        mailboxes: (0..N).map(|_| Mailbox::new()).collect(),
        done: AtomicU64::new(0),
        stop: AtomicU64::new(0),
        barrier: TreeBarrier::new(N, 0u64),
    };

    let receivers: Vec<Receiver> = thread::scope(|scope| {
        let node_handles: Vec<_> = (0..N)
            .map(|i| {
                let ctrl = &ctrl;
                scope.spawn(move || {
                    let mut rx = Receiver::new(producers);
                    let mut inbox = Vec::new();
                    let mut seq = 0u64;
                    let mut round = 0u64;
                    loop {
                        ctrl.mailboxes[i].drain_into(&mut inbox);
                        for m in inbox.drain(..) {
                            rx.take(m);
                        }
                        if round < program_len[i] {
                            for j in 0..N {
                                if j != i {
                                    ctrl.mailboxes[j].push(Msg { from: i, seq });
                                }
                            }
                            seq += 1;
                        } else if round == program_len[i] {
                            // Program over mid-quantum: report done exactly
                            // once, then keep meeting the barrier.
                            ctrl.done.fetch_add(1, Ordering::AcqRel);
                        }
                        round += 1;
                        assert!(round < ROUND_CAP, "stress deadlocked (round cap)");
                        ctrl.barrier.arrive(i, |rounds| {
                            *rounds += 1;
                            if ctrl.done.load(Ordering::Acquire) == N as u64 {
                                ctrl.stop.store(1, Ordering::Relaxed);
                            }
                        });
                        if ctrl.stop.load(Ordering::Relaxed) == 1 {
                            return rx;
                        }
                    }
                })
            })
            .collect();

        // Thread churn: waves of external producers created and joined while
        // the node threads are running and draining.
        for wave in 0..WAVES {
            let wave_handles: Vec<_> = (0..EXTERNAL_PER_WAVE)
                .map(|k| {
                    let ctrl = &ctrl;
                    let from = N + wave * EXTERNAL_PER_WAVE + k;
                    scope.spawn(move || {
                        for seq in 0..EXTERNAL_MSGS {
                            ctrl.mailboxes[(seq as usize) % N].push(Msg { from, seq });
                            if seq % 256 == 0 {
                                thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for h in wave_handles {
                h.join().unwrap();
            }
        }

        node_handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    });

    // Residual messages: pushes that landed after a receiver's final drain
    // (e.g. external pushes racing the stop round). They must still be
    // intact, in order, and complete.
    let mut receivers = receivers;
    let mut residue = Vec::new();
    for (i, rx) in receivers.iter_mut().enumerate() {
        residue.clear();
        ctrl.mailboxes[i].drain_into(&mut residue);
        for m in residue.drain(..) {
            rx.take(m);
        }
    }

    // Exactly-once, globally: every produced message was consumed.
    let node_sent: u64 = program_len.iter().map(|l| l * (N as u64 - 1)).sum();
    let external_sent = (WAVES * EXTERNAL_PER_WAVE) as u64 * EXTERNAL_MSGS;
    let received: u64 = receivers.iter().map(|r| r.received).sum();
    assert_eq!(
        received,
        node_sent + external_sent,
        "messages lost or duplicated"
    );
    // And per producer: each receiver saw a clean prefix of every stream;
    // summed over receivers the prefixes must cover each stream exactly.
    for (from, len) in program_len.iter().enumerate() {
        let total: u64 = receivers.iter().map(|r| r.counts[from]).sum();
        assert_eq!(total, len * (N as u64 - 1));
    }
    for from in N..producers {
        let total: u64 = receivers.iter().map(|r| r.counts[from]).sum();
        assert_eq!(total, EXTERNAL_MSGS);
    }
    // The epoch handshake closed as many rounds as the leader counted.
    let Ctrl { barrier, .. } = ctrl;
    let epochs = barrier.epoch();
    assert_eq!(epochs, barrier.into_state());
    DONE.store(true, Ordering::Release);
}
