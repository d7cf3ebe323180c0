//! The resumable node executor: a node program as a pull-based state machine.

use crate::cpu::CpuModel;
use crate::mailbox::{Mailbox, MailboxState, MatchOutcome, MessageMeta};
use crate::program::{Op, Program, Rank, RegionId, SendTarget, Tag};
use aqs_time::{SimDuration, SimTime};

/// What the node wants to do next, as reported to the cluster engine.
///
/// The engine owns the clock: the executor never advances time itself, it
/// only *describes* the next step. This is what makes it resumable across
/// quantum boundaries — the engine can execute an [`Action::Advance`] in
/// several pieces, interleaving barriers and packet deliveries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Let simulated time pass.
    Advance {
        /// How long.
        dur: SimDuration,
        /// Abstract operations retired during this span (0 for idle spans).
        ops: u64,
        /// `true` if the guest is idle (the host can fast-forward it).
        idle: bool,
    },
    /// Hand a message to the NIC at the current simulated time. The engine
    /// charges the NIC serialization time to the sender's clock and emits
    /// the fragments.
    Send {
        /// Destination.
        dst: SendTarget,
        /// Payload bytes.
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// A matching message is already reassembling/queued and becomes
    /// available at this future simulated time; the engine should idle the
    /// node to that point and poll again.
    WaitUntil(SimTime),
    /// Blocked on a receive with no candidate message yet; only a new
    /// delivery (or the end of the run) can unblock the node.
    Blocked,
    /// The program has completed.
    Finished,
}

/// A closed timed region instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionRecord {
    /// Which region.
    pub region: RegionId,
    /// Start simulated time.
    pub start: SimTime,
    /// End simulated time.
    pub end: SimTime,
}

impl RegionRecord {
    /// Duration of this instance.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Interprets a [`Program`] one action at a time.
///
/// The contract with the engine:
///
/// 1. call [`next_action`](Self::next_action) with the node's current
///    simulated time;
/// 2. fully execute the returned action (advancing the node's clock as
///    needed) before polling again — except that [`Action::WaitUntil`] and
///    [`Action::Blocked`] may be re-polled at any time, e.g. after a
///    delivery;
/// 3. feed incoming fragments through
///    [`deliver_fragment`](Self::deliver_fragment) whenever they arrive.
///
/// # Examples
///
/// ```
/// use aqs_node::{Action, CpuModel, NodeExecutor, ProgramBuilder, Rank, Tag};
/// use aqs_time::SimTime;
///
/// let prog = ProgramBuilder::new(Rank::new(0))
///     .send(Rank::new(1), 64, Tag::new(0))
///     .build();
/// let mut exec = NodeExecutor::new(prog, CpuModel::default());
/// assert!(matches!(exec.next_action(SimTime::ZERO), Action::Send { bytes: 64, .. }));
/// assert!(matches!(exec.next_action(SimTime::ZERO), Action::Finished));
/// assert!(exec.finished());
/// ```
#[derive(Clone, Debug)]
pub struct NodeExecutor {
    program: Program,
    cpu: CpuModel,
    pc: usize,
    mailbox: Mailbox,
    ops_executed: u64,
    messages_received: u64,
    /// Pending receive-completion overhead to charge before the next op.
    pending_overhead: SimDuration,
    /// Started-but-not-ended regions with their start times: a handful at
    /// most, so a linear search beats any map.
    open_regions: Vec<(RegionId, SimTime)>,
    regions: Vec<RegionRecord>,
    finish_time: Option<SimTime>,
}

impl NodeExecutor {
    /// Creates an executor positioned at the first op.
    pub fn new(program: Program, cpu: CpuModel) -> Self {
        Self {
            program,
            cpu,
            pc: 0,
            mailbox: Mailbox::new(),
            ops_executed: 0,
            messages_received: 0,
            pending_overhead: SimDuration::ZERO,
            open_regions: Vec::new(),
            regions: Vec::new(),
            finish_time: None,
        }
    }

    /// The rank this executor implements.
    pub fn rank(&self) -> Rank {
        self.program.rank()
    }

    /// Returns the next action at simulated time `now`.
    ///
    /// Zero-cost ops (region markers, already-satisfied receives with zero
    /// overhead) are consumed internally, so the returned action always
    /// represents observable progress or a terminal state.
    pub fn next_action(&mut self, now: SimTime) -> Action {
        if !self.pending_overhead.is_zero() {
            let dur = std::mem::take(&mut self.pending_overhead);
            return Action::Advance {
                dur,
                ops: 0,
                idle: false,
            };
        }
        loop {
            let Some(op) = self.program.ops().get(self.pc).copied() else {
                if self.finish_time.is_none() {
                    self.finish_time = Some(now);
                }
                return Action::Finished;
            };
            match op {
                Op::Compute { ops } => {
                    self.pc += 1;
                    self.ops_executed += ops;
                    let dur = self.cpu.compute_duration(ops);
                    if dur.is_zero() {
                        continue;
                    }
                    return Action::Advance {
                        dur,
                        ops,
                        idle: false,
                    };
                }
                Op::Idle { dur } => {
                    self.pc += 1;
                    if dur.is_zero() {
                        continue;
                    }
                    return Action::Advance {
                        dur,
                        ops: 0,
                        idle: true,
                    };
                }
                Op::Send { dst, bytes, tag } => {
                    self.pc += 1;
                    return Action::Send { dst, bytes, tag };
                }
                Op::Recv { src, tag } => match self.mailbox.match_recv(src, tag, now) {
                    MatchOutcome::Matched(_meta, _ready) => {
                        self.pc += 1;
                        self.messages_received += 1;
                        let overhead = self.cpu.recv_overhead();
                        if overhead.is_zero() {
                            continue;
                        }
                        return Action::Advance {
                            dur: overhead,
                            ops: 0,
                            idle: false,
                        };
                    }
                    MatchOutcome::ReadyAt(t) => return Action::WaitUntil(t),
                    MatchOutcome::NoMatch => return Action::Blocked,
                },
                Op::RegionStart(region) => {
                    self.pc += 1;
                    assert!(
                        self.open_regions.iter().all(|&(r, _)| r != region),
                        "{region} started twice without ending"
                    );
                    self.open_regions.push((region, now));
                }
                Op::RegionEnd(region) => {
                    self.pc += 1;
                    let open = self
                        .open_regions
                        .iter()
                        .position(|&(r, _)| r == region)
                        .unwrap_or_else(|| panic!("{region} ended without starting"));
                    let (_, start) = self.open_regions.swap_remove(open);
                    self.regions.push(RegionRecord {
                        region,
                        start,
                        end: now,
                    });
                }
            }
        }
    }

    /// Delivers one fragment visible at `arrival`; returns the message
    /// ready-time when this completes a message. See
    /// [`Mailbox::deliver_fragment`].
    pub fn deliver_fragment(
        &mut self,
        meta: MessageMeta,
        frag_index: u32,
        arrival: SimTime,
    ) -> Option<SimTime> {
        self.mailbox.deliver_fragment(meta, frag_index, arrival)
    }

    /// `true` once [`Action::Finished`] has been returned.
    pub fn finished(&self) -> bool {
        self.finish_time.is_some()
    }

    /// Simulated time at which the program completed, if it has.
    pub fn finish_time(&self) -> Option<SimTime> {
        self.finish_time
    }

    /// Abstract operations retired so far.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Messages fully received and consumed so far.
    pub fn messages_received(&self) -> u64 {
        self.messages_received
    }

    /// All closed region instances, in completion order.
    pub fn regions(&self) -> &[RegionRecord] {
        &self.regions
    }

    /// Moves the closed region instances out (for a run's per-node result),
    /// leaving the executor with none.
    pub fn take_regions(&mut self) -> Vec<RegionRecord> {
        std::mem::take(&mut self.regions)
    }

    /// Total time spent in all closed instances of `region`.
    pub fn region_duration(&self, region: RegionId) -> SimDuration {
        self.regions
            .iter()
            .filter(|r| r.region == region)
            .map(RegionRecord::duration)
            .sum()
    }

    /// Regions currently open (started but not ended).
    pub fn open_region_count(&self) -> usize {
        self.open_regions.len()
    }

    /// Read access to the mailbox (diagnostics).
    pub fn mailbox(&self) -> &Mailbox {
        &self.mailbox
    }

    /// Current program counter (diagnostics).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Captures the interpreter position and receive-side state for a
    /// snapshot. The program and CPU model are configuration and are
    /// reconstructed on resume. Open regions are emitted sorted by id.
    pub fn export_state(&self) -> ExecutorState {
        let mut open_regions = self.open_regions.clone();
        open_regions.sort_by_key(|&(r, _)| r);
        ExecutorState {
            pc: self.pc as u64,
            ops_executed: self.ops_executed,
            messages_received: self.messages_received,
            pending_overhead: self.pending_overhead,
            open_regions,
            regions: self.regions.clone(),
            finish_time: self.finish_time,
            mailbox: self.mailbox.export_state(),
        }
    }

    /// Rebuilds an executor captured by [`Self::export_state`] over the same
    /// (configuration-derived) program and CPU model.
    pub fn from_state(
        program: Program,
        cpu: CpuModel,
        state: ExecutorState,
    ) -> Result<Self, String> {
        if state.pc as usize > program.ops().len() {
            return Err(format!(
                "pc {} beyond program length {}",
                state.pc,
                program.ops().len()
            ));
        }
        let mut open_regions = state.open_regions;
        open_regions.sort_by_key(|&(r, _)| r);
        if let Some(w) = open_regions.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("{} is open twice", w[0].0));
        }
        Ok(Self {
            program,
            cpu,
            pc: state.pc as usize,
            mailbox: Mailbox::from_state(state.mailbox)?,
            ops_executed: state.ops_executed,
            messages_received: state.messages_received,
            pending_overhead: state.pending_overhead,
            open_regions,
            regions: state.regions,
            finish_time: state.finish_time,
        })
    }
}

/// The dynamic state of a [`NodeExecutor`], as captured by
/// [`NodeExecutor::export_state`] at a quantum edge.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutorState {
    /// Program counter.
    pub pc: u64,
    /// Abstract operations retired so far.
    pub ops_executed: u64,
    /// Messages fully received and consumed so far.
    pub messages_received: u64,
    /// Receive-completion overhead still to charge.
    pub pending_overhead: SimDuration,
    /// Open timed regions, sorted by region id.
    pub open_regions: Vec<(RegionId, SimTime)>,
    /// Closed region instances, in completion order.
    pub regions: Vec<RegionRecord>,
    /// Completion time, if the program already finished.
    pub finish_time: Option<SimTime>,
    /// Receive-side state.
    pub mailbox: MailboxState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::MessageId;
    use crate::program::ProgramBuilder;

    fn cpu() -> CpuModel {
        // 1 GHz, IPC 1, 2 µs recv overhead → 1 op = 1 ns.
        CpuModel::new(1_000_000_000, 1.0, SimDuration::from_micros(2))
    }

    fn meta(src: u32, seq: u64, tag: u32) -> MessageMeta {
        MessageMeta {
            id: MessageId {
                src: Rank::new(src),
                seq,
            },
            tag: Tag::new(tag),
            bytes: 64,
            frag_count: 1,
        }
    }

    #[test]
    fn compute_then_finish() {
        let p = ProgramBuilder::new(Rank::new(0)).compute(1000).build();
        let mut e = NodeExecutor::new(p, cpu());
        assert_eq!(
            e.next_action(SimTime::ZERO),
            Action::Advance {
                dur: SimDuration::from_micros(1),
                ops: 1000,
                idle: false
            }
        );
        assert_eq!(e.next_action(SimTime::from_micros(1)), Action::Finished);
        assert_eq!(e.finish_time(), Some(SimTime::from_micros(1)));
        assert_eq!(e.ops_executed(), 1000);
    }

    #[test]
    fn idle_is_flagged() {
        let p = ProgramBuilder::new(Rank::new(0))
            .idle(SimDuration::from_micros(5))
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        assert_eq!(
            e.next_action(SimTime::ZERO),
            Action::Advance {
                dur: SimDuration::from_micros(5),
                ops: 0,
                idle: true
            }
        );
    }

    #[test]
    fn zero_cost_ops_are_skipped() {
        let p = ProgramBuilder::new(Rank::new(0))
            .compute(0)
            .idle(SimDuration::ZERO)
            .compute(7)
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        assert!(matches!(
            e.next_action(SimTime::ZERO),
            Action::Advance { ops: 7, .. }
        ));
    }

    #[test]
    fn recv_blocks_until_delivery_then_charges_overhead() {
        let p = ProgramBuilder::new(Rank::new(0))
            .recv(Some(Rank::new(1)), Tag::new(3))
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        assert_eq!(e.next_action(SimTime::ZERO), Action::Blocked);
        let ready = e.deliver_fragment(meta(1, 0, 3), 0, SimTime::from_micros(4));
        assert_eq!(ready, Some(SimTime::from_micros(4)));
        // Polling before availability: wait until the data is there.
        assert_eq!(
            e.next_action(SimTime::from_micros(1)),
            Action::WaitUntil(SimTime::from_micros(4))
        );
        // At availability: consume + 2 µs software overhead.
        assert_eq!(
            e.next_action(SimTime::from_micros(4)),
            Action::Advance {
                dur: SimDuration::from_micros(2),
                ops: 0,
                idle: false
            }
        );
        assert_eq!(e.next_action(SimTime::from_micros(6)), Action::Finished);
        assert_eq!(e.messages_received(), 1);
    }

    #[test]
    fn send_yields_then_proceeds() {
        let p = ProgramBuilder::new(Rank::new(0))
            .send(Rank::new(1), 9000, Tag::new(0))
            .compute(10)
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        assert_eq!(
            e.next_action(SimTime::ZERO),
            Action::Send {
                dst: SendTarget::Rank(Rank::new(1)),
                bytes: 9000,
                tag: Tag::new(0)
            }
        );
        assert!(matches!(
            e.next_action(SimTime::from_micros(7)),
            Action::Advance { ops: 10, .. }
        ));
    }

    #[test]
    fn regions_are_recorded_at_poll_times() {
        let p = ProgramBuilder::new(Rank::new(0))
            .region_start(RegionId::KERNEL)
            .compute(5000)
            .region_end(RegionId::KERNEL)
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        let a = e.next_action(SimTime::from_micros(10));
        assert!(matches!(a, Action::Advance { ops: 5000, .. }));
        assert_eq!(e.next_action(SimTime::from_micros(15)), Action::Finished);
        let regs = e.regions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].start, SimTime::from_micros(10));
        assert_eq!(regs[0].end, SimTime::from_micros(15));
        assert_eq!(
            e.region_duration(RegionId::KERNEL),
            SimDuration::from_micros(5)
        );
        assert_eq!(e.open_region_count(), 0);
    }

    #[test]
    fn repeated_region_instances_accumulate() {
        let r = RegionId::new(2);
        let mut b = ProgramBuilder::new(Rank::new(0));
        for _ in 0..2 {
            b = b.region_start(r).compute(1000).region_end(r);
        }
        let mut e = NodeExecutor::new(b.build(), cpu());
        let mut t = SimTime::ZERO;
        loop {
            match e.next_action(t) {
                Action::Advance { dur, .. } => t += dur,
                Action::Finished => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(e.regions().len(), 2);
        assert_eq!(e.region_duration(r), SimDuration::from_micros(2));
    }

    #[test]
    #[should_panic(expected = "ended without starting")]
    fn unbalanced_region_end_panics() {
        let p = ProgramBuilder::new(Rank::new(0))
            .region_end(RegionId::KERNEL)
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        let _ = e.next_action(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn double_region_start_panics() {
        let p = ProgramBuilder::new(Rank::new(0))
            .region_start(RegionId::KERNEL)
            .region_start(RegionId::KERNEL)
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        let _ = e.next_action(SimTime::ZERO);
    }

    #[test]
    fn finished_is_idempotent() {
        let p = ProgramBuilder::new(Rank::new(0)).build();
        let mut e = NodeExecutor::new(p, cpu());
        assert_eq!(e.next_action(SimTime::from_micros(9)), Action::Finished);
        assert_eq!(e.next_action(SimTime::from_micros(99)), Action::Finished);
        // Finish time is the first observation.
        assert_eq!(e.finish_time(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn state_round_trip_resumes_mid_program() {
        let p = ProgramBuilder::new(Rank::new(0))
            .region_start(RegionId::KERNEL)
            .compute(1000)
            .recv(Some(Rank::new(1)), Tag::new(3))
            .compute(500)
            .region_end(RegionId::KERNEL)
            .build();
        let mut e = NodeExecutor::new(p.clone(), cpu());
        let mut t = SimTime::ZERO;
        // Run up to the blocked receive, then deliver and stop mid-stream.
        while let Action::Advance { dur, .. } = e.next_action(t) {
            t += dur;
        }
        assert_eq!(e.next_action(t), Action::Blocked);
        e.deliver_fragment(meta(1, 0, 3), 0, t + SimDuration::from_micros(1));
        let state = e.export_state();
        let mut r = NodeExecutor::from_state(p, cpu(), state).expect("valid state");
        assert_eq!(r.pc(), e.pc());
        assert_eq!(r.open_region_count(), 1);
        // Both finish identically from here.
        let (mut ta, mut tb) = (t, t);
        loop {
            let (a, b) = (e.next_action(ta), r.next_action(tb));
            assert_eq!(a, b);
            match a {
                Action::Advance { dur, .. } => {
                    ta += dur;
                    tb += dur;
                }
                Action::WaitUntil(w) => {
                    ta = w;
                    tb = w;
                }
                Action::Finished => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(e.regions(), r.regions());
        assert_eq!(e.messages_received(), r.messages_received());
    }

    #[test]
    fn out_of_range_pc_is_rejected() {
        let p = ProgramBuilder::new(Rank::new(0)).compute(10).build();
        let e = NodeExecutor::new(p.clone(), cpu());
        let mut state = e.export_state();
        state.pc = 99;
        assert!(NodeExecutor::from_state(p, cpu(), state).is_err());
    }

    #[test]
    fn a_region_open_twice_is_rejected() {
        let p = ProgramBuilder::new(Rank::new(0)).compute(10).build();
        let mut state = NodeExecutor::new(p.clone(), cpu()).export_state();
        state.open_regions = vec![
            (RegionId::new(2), SimTime::from_micros(1)),
            (RegionId::KERNEL, SimTime::ZERO),
            (RegionId::new(2), SimTime::from_micros(3)),
        ];
        let err = NodeExecutor::from_state(p.clone(), cpu(), state.clone()).unwrap_err();
        assert!(err.contains("open twice"), "{err}");
        // Any order of distinct regions is fine, and exports sorted.
        state.open_regions.pop();
        let e = NodeExecutor::from_state(p, cpu(), state).expect("distinct regions");
        assert_eq!(e.open_region_count(), 2);
        assert_eq!(e.export_state().open_regions[0].0, RegionId::KERNEL);
    }

    #[test]
    fn take_regions_moves_the_records_out() {
        let p = ProgramBuilder::new(Rank::new(0))
            .region_start(RegionId::KERNEL)
            .compute(1000)
            .region_end(RegionId::KERNEL)
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        assert!(matches!(
            e.next_action(SimTime::ZERO),
            Action::Advance { .. }
        ));
        assert_eq!(e.next_action(SimTime::from_micros(1)), Action::Finished);
        let taken = e.take_regions();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].duration(), SimDuration::from_micros(1));
        assert!(e.regions().is_empty());
    }

    /// A cluster run holds one executor per node, built and dropped every
    /// pass: at 262 144 nodes each 8 bytes here is 2 MB of page faults.
    /// 248 with two SipHash maps inside, 208 without; do not grow unnoticed.
    #[test]
    fn executor_stays_within_its_footprint() {
        assert!(std::mem::size_of::<NodeExecutor>() <= 208);
    }

    #[test]
    fn wildcard_recv_takes_earliest() {
        let p = ProgramBuilder::new(Rank::new(0))
            .recv(None, Tag::new(0))
            .build();
        let mut e = NodeExecutor::new(p, cpu());
        e.deliver_fragment(meta(2, 0, 0), 0, SimTime::from_micros(8));
        e.deliver_fragment(meta(1, 0, 0), 0, SimTime::from_micros(3));
        assert_eq!(
            e.next_action(SimTime::from_micros(10)),
            Action::Advance {
                dur: SimDuration::from_micros(2),
                ops: 0,
                idle: false
            }
        );
        assert_eq!(e.messages_received(), 1);
        // The rank-1 message (earlier ready) was taken; rank-2 remains.
        assert_eq!(e.mailbox().ready_len(), 1);
    }
}
