//! MPI-style multi-rank program construction.

use aqs_node::{Op, Program, Rank, RegionId, SendTarget, Tag};
use aqs_rng::mix64;

/// Builds one program per rank, with MPI collectives implemented out of
/// point-to-point messages (LAM/MPI-style binomial trees, recursive
/// doubling and pairwise exchange).
///
/// Every point-to-point operation gets a fresh tag, so matching is
/// unambiguous regardless of delivery order. Sends in this model occupy the
/// sender only for NIC serialization (eager protocol), so the
/// "all ranks send, then all ranks receive" schedule used by the
/// collectives cannot deadlock.
///
/// # Examples
///
/// ```
/// use aqs_workloads::MpiBuilder;
///
/// let mut mpi = MpiBuilder::new(4);
/// mpi.compute_all(10_000);
/// mpi.allreduce(64, 100);
/// let programs = mpi.build();
/// assert_eq!(programs.len(), 4);
/// // Recursive doubling: log2(4) = 2 rounds = 2 sends per rank.
/// assert_eq!(programs[0].send_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct MpiBuilder {
    n: usize,
    ops: Vec<Vec<Op>>,
    next_tag: u32,
}

impl MpiBuilder {
    /// Creates a builder for `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 ranks, got {n}");
        Self {
            n,
            ops: vec![Vec::new(); n],
            next_tag: 0,
        }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.n
    }

    fn fresh_tag(&mut self) -> Tag {
        let t = Tag::new(self.next_tag);
        self.next_tag += 1;
        t
    }

    /// Appends a raw op to one rank.
    pub fn push(&mut self, rank: usize, op: Op) {
        assert!(rank < self.n, "rank {rank} out of range");
        self.ops[rank].push(op);
    }

    /// Appends compute work to one rank.
    pub fn compute(&mut self, rank: usize, ops: u64) {
        self.push(rank, Op::Compute { ops });
    }

    /// Appends the same compute work to every rank.
    pub fn compute_all(&mut self, ops: u64) {
        for r in 0..self.n {
            self.compute(r, ops);
        }
    }

    /// Appends compute work with a deterministic per-rank imbalance of up
    /// to ±`spread` (fraction of `base`), seeded by `salt` so different
    /// phases get different skew.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is not in `[0, 1)`.
    pub fn compute_all_imbalanced(&mut self, base: u64, spread: f64, salt: u64) {
        assert!(
            (0.0..1.0).contains(&spread),
            "spread must be in [0,1), got {spread}"
        );
        for r in 0..self.n {
            let h = mix64(salt.wrapping_mul(0x9E37).wrapping_add(r as u64));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let factor = 1.0 + spread * (2.0 * unit - 1.0);
            self.compute(r, (base as f64 * factor).round() as u64);
        }
    }

    /// Point-to-point message: `Send` on `src`, matching `Recv` on `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either rank is out of range.
    pub fn p2p(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(src < self.n && dst < self.n, "rank out of range");
        assert_ne!(src, dst, "p2p to self");
        let tag = self.fresh_tag();
        self.ops[src].push(Op::Send {
            dst: SendTarget::Rank(Rank::new(dst as u32)),
            bytes,
            tag,
        });
        self.ops[dst].push(Op::Recv {
            src: Some(Rank::new(src as u32)),
            tag,
        });
    }

    /// A fire-and-forget unicast: `Send` on `src` with **no matching
    /// receive** — models unsolicited background/housekeeping datagrams.
    pub fn datagram(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(src < self.n && dst < self.n, "rank out of range");
        assert_ne!(src, dst, "datagram to self");
        let tag = self.fresh_tag();
        self.ops[src].push(Op::Send {
            dst: SendTarget::Rank(Rank::new(dst as u32)),
            bytes,
            tag,
        });
    }

    /// Dissemination barrier: ⌈log₂ n⌉ rounds of ring-offset exchanges.
    pub fn barrier(&mut self) {
        let rounds = self.n.next_power_of_two().trailing_zeros();
        for r in 0..rounds {
            let dist = 1usize << r;
            let tag = self.fresh_tag();
            for i in 0..self.n {
                let to = (i + dist) % self.n;
                self.ops[i].push(Op::Send {
                    dst: SendTarget::Rank(Rank::new(to as u32)),
                    bytes: 64,
                    tag,
                });
            }
            for i in 0..self.n {
                let from = (i + self.n - dist) % self.n;
                self.ops[i].push(Op::Recv {
                    src: Some(Rank::new(from as u32)),
                    tag,
                });
            }
        }
    }

    /// Binomial-tree broadcast from `root`.
    pub fn bcast(&mut self, root: usize, bytes: u64) {
        assert!(root < self.n, "root out of range");
        let rounds = self.n.next_power_of_two().trailing_zeros();
        for r in 0..rounds {
            let mask = 1usize << r;
            let tag = self.fresh_tag();
            for vr in 0..self.n {
                // vr: rank relative to root.
                let abs = (vr + root) % self.n;
                if vr < mask && vr + mask < self.n {
                    let peer = (vr + mask + root) % self.n;
                    self.ops[abs].push(Op::Send {
                        dst: SendTarget::Rank(Rank::new(peer as u32)),
                        bytes,
                        tag,
                    });
                } else if (mask..2 * mask).contains(&vr) {
                    let peer = (vr - mask + root) % self.n;
                    self.ops[abs].push(Op::Recv {
                        src: Some(Rank::new(peer as u32)),
                        tag,
                    });
                }
            }
        }
    }

    /// Binomial-tree reduction to `root`; each combining step costs
    /// `op_cost` compute operations on the receiver.
    pub fn reduce(&mut self, root: usize, bytes: u64, op_cost: u64) {
        assert!(root < self.n, "root out of range");
        let rounds = self.n.next_power_of_two().trailing_zeros();
        for r in 0..rounds {
            let step = 1usize << (r + 1);
            let half = 1usize << r;
            let tag = self.fresh_tag();
            for vr in 0..self.n {
                let abs = (vr + root) % self.n;
                if vr % step == half {
                    let peer = (vr - half + root) % self.n;
                    self.ops[abs].push(Op::Send {
                        dst: SendTarget::Rank(Rank::new(peer as u32)),
                        bytes,
                        tag,
                    });
                } else if vr % step == 0 && vr + half < self.n {
                    let peer = (vr + half + root) % self.n;
                    self.ops[abs].push(Op::Recv {
                        src: Some(Rank::new(peer as u32)),
                        tag,
                    });
                    if op_cost > 0 {
                        self.ops[abs].push(Op::Compute { ops: op_cost });
                    }
                }
            }
        }
    }

    /// Allreduce: recursive doubling when `n` is a power of two (every rank
    /// exchanges with `i XOR 2^r` each round), otherwise reduce + bcast.
    pub fn allreduce(&mut self, bytes: u64, op_cost: u64) {
        if self.n.is_power_of_two() {
            let rounds = self.n.trailing_zeros();
            for r in 0..rounds {
                let mask = 1usize << r;
                let tag = self.fresh_tag();
                for i in 0..self.n {
                    let peer = i ^ mask;
                    self.ops[i].push(Op::Send {
                        dst: SendTarget::Rank(Rank::new(peer as u32)),
                        bytes,
                        tag,
                    });
                }
                for i in 0..self.n {
                    let peer = i ^ mask;
                    self.ops[i].push(Op::Recv {
                        src: Some(Rank::new(peer as u32)),
                        tag,
                    });
                    if op_cost > 0 {
                        self.ops[i].push(Op::Compute { ops: op_cost });
                    }
                }
            }
        } else {
            self.reduce(0, bytes, op_cost);
            self.bcast(0, bytes);
        }
    }

    /// All-to-all personalized exchange of `bytes` per pair: pairwise XOR
    /// schedule for power-of-two rank counts, shifted ring otherwise. This
    /// is the operation whose dependency chains make IS the paper's
    /// worst-case accuracy benchmark.
    pub fn alltoall(&mut self, bytes: u64) {
        for round in 1..self.n {
            let tag = self.fresh_tag();
            if self.n.is_power_of_two() {
                for i in 0..self.n {
                    let peer = i ^ round;
                    self.ops[i].push(Op::Send {
                        dst: SendTarget::Rank(Rank::new(peer as u32)),
                        bytes,
                        tag,
                    });
                }
                for i in 0..self.n {
                    let peer = i ^ round;
                    self.ops[i].push(Op::Recv {
                        src: Some(Rank::new(peer as u32)),
                        tag,
                    });
                }
            } else {
                for i in 0..self.n {
                    let to = (i + round) % self.n;
                    self.ops[i].push(Op::Send {
                        dst: SendTarget::Rank(Rank::new(to as u32)),
                        bytes,
                        tag,
                    });
                }
                for i in 0..self.n {
                    let from = (i + self.n - round) % self.n;
                    self.ops[i].push(Op::Recv {
                        src: Some(Rank::new(from as u32)),
                        tag,
                    });
                }
            }
        }
    }

    /// Simultaneous exchange with neighbours at the given ring `distances`
    /// (both directions), `bytes` each — MG's short/long structured pattern
    /// and NAMD's spatial neighbour lists.
    pub fn neighbor_exchange(&mut self, distances: &[usize], bytes: u64) {
        for &d in distances {
            assert!(
                d > 0 && d < self.n,
                "distance {d} invalid for {} ranks",
                self.n
            );
            let tag_fwd = self.fresh_tag();
            let tag_bwd = self.fresh_tag();
            for i in 0..self.n {
                let fwd = (i + d) % self.n;
                let bwd = (i + self.n - d) % self.n;
                self.ops[i].push(Op::Send {
                    dst: SendTarget::Rank(Rank::new(fwd as u32)),
                    bytes,
                    tag: tag_fwd,
                });
                self.ops[i].push(Op::Send {
                    dst: SendTarget::Rank(Rank::new(bwd as u32)),
                    bytes,
                    tag: tag_bwd,
                });
            }
            for i in 0..self.n {
                let from_bwd = (i + self.n - d) % self.n;
                let from_fwd = (i + d) % self.n;
                self.ops[i].push(Op::Recv {
                    src: Some(Rank::new(from_bwd as u32)),
                    tag: tag_fwd,
                });
                self.ops[i].push(Op::Recv {
                    src: Some(Rank::new(from_fwd as u32)),
                    tag: tag_bwd,
                });
            }
        }
    }

    /// One round of directed point-to-point traffic: **all sends are
    /// scheduled before any receive**, each edge on its own fresh tag, so
    /// the round cannot deadlock under the eager send model no matter how
    /// the edges overlap. Edges are `(src, dst, bytes)`; duplicate edges
    /// are fine (each gets its own tag).
    ///
    /// This is the primitive under the gossip and incast generators: build
    /// the round's edge list any way you like (seeded peer sampling,
    /// fan-in, fan-out), then commit it atomically.
    ///
    /// # Panics
    ///
    /// Panics if any edge is out of range or a self-loop.
    pub fn exchange_round(&mut self, edges: &[(usize, usize, u64)]) {
        let mut recvs = Vec::with_capacity(edges.len());
        for &(src, dst, bytes) in edges {
            assert!(src < self.n && dst < self.n, "rank out of range");
            assert_ne!(src, dst, "exchange edge to self");
            let tag = self.fresh_tag();
            self.ops[src].push(Op::Send {
                dst: SendTarget::Rank(Rank::new(dst as u32)),
                bytes,
                tag,
            });
            recvs.push((dst, src, tag));
        }
        for (dst, src, tag) in recvs {
            self.ops[dst].push(Op::Recv {
                src: Some(Rank::new(src as u32)),
                tag,
            });
        }
    }

    /// Scatter-gather RPC: `root` fans a `req_bytes` request out to every
    /// target, each target receives it, runs its `ops` of service compute,
    /// and answers with `resp_bytes`; `root` then collects all responses —
    /// the classic microservice fan-out whose response wave is an incast
    /// at the root. Deadlock-free: the root's sends are all scheduled
    /// before its first receive.
    ///
    /// # Panics
    ///
    /// Panics if a target equals `root` or is out of range.
    pub fn rpc_fanout(
        &mut self,
        root: usize,
        targets: &[(usize, u64)],
        req_bytes: u64,
        resp_bytes: u64,
    ) {
        assert!(root < self.n, "root out of range");
        let mut replies = Vec::with_capacity(targets.len());
        for &(t, ops) in targets {
            assert!(t < self.n, "target out of range");
            assert_ne!(t, root, "rpc target is the root");
            let req = self.fresh_tag();
            let resp = self.fresh_tag();
            self.ops[root].push(Op::Send {
                dst: SendTarget::Rank(Rank::new(t as u32)),
                bytes: req_bytes,
                tag: req,
            });
            self.ops[t].push(Op::Recv {
                src: Some(Rank::new(root as u32)),
                tag: req,
            });
            if ops > 0 {
                self.ops[t].push(Op::Compute { ops });
            }
            self.ops[t].push(Op::Send {
                dst: SendTarget::Rank(Rank::new(root as u32)),
                bytes: resp_bytes,
                tag: resp,
            });
            replies.push((t, resp));
        }
        for (t, resp) in replies {
            self.ops[root].push(Op::Recv {
                src: Some(Rank::new(t as u32)),
                tag: resp,
            });
        }
    }

    /// Marks the start of a timed region on every rank.
    pub fn region_start_all(&mut self, region: RegionId) {
        for r in 0..self.n {
            self.push(r, Op::RegionStart(region));
        }
    }

    /// Marks the end of a timed region on every rank.
    pub fn region_end_all(&mut self, region: RegionId) {
        for r in 0..self.n {
            self.push(r, Op::RegionEnd(region));
        }
    }

    /// Finishes into one [`Program`] per rank.
    pub fn build(self) -> Vec<Program> {
        self.ops
            .into_iter()
            .enumerate()
            .map(|(i, ops)| Program::new(Rank::new(i as u32), ops))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sanity harness: count sends == count recvs per tag across ranks.
    fn check_matched(programs: &[Program], allow_unmatched_sends: bool) {
        use std::collections::HashMap;
        let mut sends: HashMap<(u32, u32, u32), usize> = HashMap::new(); // (src,dst,tag)
        let mut recvs: HashMap<(u32, u32, u32), usize> = HashMap::new();
        for p in programs {
            for op in p.ops() {
                match *op {
                    Op::Send {
                        dst: SendTarget::Rank(d),
                        tag,
                        ..
                    } => {
                        *sends
                            .entry((p.rank().as_u32(), d.as_u32(), tag.as_u32()))
                            .or_default() += 1;
                    }
                    Op::Recv { src: Some(s), tag } => {
                        *recvs
                            .entry((s.as_u32(), p.rank().as_u32(), tag.as_u32()))
                            .or_default() += 1;
                    }
                    _ => {}
                }
            }
        }
        for (k, &c) in &recvs {
            assert_eq!(sends.get(k), Some(&c), "recv without matching send: {k:?}");
        }
        if !allow_unmatched_sends {
            for (k, &c) in &sends {
                assert_eq!(recvs.get(k), Some(&c), "send without matching recv: {k:?}");
            }
        }
    }

    #[test]
    fn p2p_is_matched() {
        let mut m = MpiBuilder::new(3);
        m.p2p(0, 2, 100);
        m.p2p(2, 1, 50);
        let ps = m.build();
        check_matched(&ps, false);
        assert_eq!(ps[0].send_count(), 1);
        assert_eq!(ps[2].recv_count(), 1);
    }

    #[test]
    fn barrier_is_matched_for_many_sizes() {
        for n in [2usize, 3, 4, 5, 8, 13, 64] {
            let mut m = MpiBuilder::new(n);
            m.barrier();
            check_matched(&m.build(), false);
        }
    }

    #[test]
    fn bcast_reaches_every_rank() {
        for n in [2usize, 3, 4, 7, 8, 64] {
            for root in [0usize, 1, n - 1] {
                let mut m = MpiBuilder::new(n);
                m.bcast(root, 1000);
                let ps = m.build();
                check_matched(&ps, false);
                // Everyone except the root receives exactly once in total.
                for (i, p) in ps.iter().enumerate() {
                    let expected = usize::from(i != root);
                    assert_eq!(p.recv_count(), expected, "n={n} root={root} rank={i}");
                }
            }
        }
    }

    #[test]
    fn reduce_collects_to_root() {
        for n in [2usize, 4, 6, 8] {
            let mut m = MpiBuilder::new(n);
            m.reduce(0, 64, 10);
            let ps = m.build();
            check_matched(&ps, false);
            // Every non-root rank sends exactly once in a binomial reduce.
            let total_sends: usize = ps.iter().map(|p| p.send_count()).sum();
            assert_eq!(total_sends, n - 1);
        }
    }

    #[test]
    fn allreduce_power_of_two_is_symmetric() {
        let mut m = MpiBuilder::new(8);
        m.allreduce(64, 10);
        let ps = m.build();
        check_matched(&ps, false);
        for p in &ps {
            assert_eq!(p.send_count(), 3); // log2(8) rounds
            assert_eq!(p.recv_count(), 3);
        }
    }

    #[test]
    fn allreduce_non_power_of_two_falls_back() {
        let mut m = MpiBuilder::new(6);
        m.allreduce(64, 10);
        check_matched(&m.build(), false);
    }

    #[test]
    fn alltoall_sends_to_everyone() {
        for n in [2usize, 4, 8, 5] {
            let mut m = MpiBuilder::new(n);
            m.alltoall(9000);
            let ps = m.build();
            check_matched(&ps, false);
            for p in &ps {
                assert_eq!(p.send_count(), n - 1);
                assert_eq!(p.recv_count(), n - 1);
            }
        }
    }

    #[test]
    fn neighbor_exchange_matched() {
        let mut m = MpiBuilder::new(8);
        m.neighbor_exchange(&[1, 2, 4], 500);
        let ps = m.build();
        check_matched(&ps, false);
        for p in &ps {
            assert_eq!(p.send_count(), 6);
            assert_eq!(p.recv_count(), 6);
        }
    }

    #[test]
    fn datagram_has_no_recv() {
        let mut m = MpiBuilder::new(2);
        m.datagram(0, 1, 64);
        let ps = m.build();
        check_matched(&ps, true);
        assert_eq!(ps[1].recv_count(), 0);
    }

    #[test]
    fn imbalance_is_deterministic_and_bounded() {
        let mut a = MpiBuilder::new(4);
        a.compute_all_imbalanced(1_000_000, 0.2, 7);
        let mut b = MpiBuilder::new(4);
        b.compute_all_imbalanced(1_000_000, 0.2, 7);
        let pa = a.build();
        let pb = b.build();
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.total_compute_ops(), y.total_compute_ops());
            let ops = x.total_compute_ops();
            assert!(
                (800_000..=1_200_000).contains(&ops),
                "ops {ops} outside ±20%"
            );
        }
        // Different salt → different skew.
        let mut c = MpiBuilder::new(4);
        c.compute_all_imbalanced(1_000_000, 0.2, 8);
        let pc = c.build();
        assert!(pa
            .iter()
            .zip(&pc)
            .any(|(x, y)| x.total_compute_ops() != y.total_compute_ops()));
    }

    #[test]
    fn regions_wrap_all_ranks() {
        let mut m = MpiBuilder::new(2);
        m.region_start_all(RegionId::KERNEL);
        m.compute_all(10);
        m.region_end_all(RegionId::KERNEL);
        for p in m.build() {
            assert!(matches!(p.ops()[0], Op::RegionStart(_)));
            assert!(matches!(p.ops()[2], Op::RegionEnd(_)));
        }
    }

    #[test]
    #[should_panic(expected = "p2p to self")]
    fn p2p_self_rejected() {
        let mut m = MpiBuilder::new(2);
        m.p2p(1, 1, 10);
    }

    #[test]
    #[should_panic(expected = "distance 0 invalid")]
    fn zero_distance_rejected() {
        let mut m = MpiBuilder::new(4);
        m.neighbor_exchange(&[0], 10);
    }
}
