//! NAS-Parallel-Benchmark-like workload generators.
//!
//! Each generator reproduces the communication/computation structure the
//! NAS suite documents for its benchmark (and that the paper's §4
//! summarizes), scaled down so a ground-truth (1 µs quantum) run finishes
//! in seconds of host time — see DESIGN.md for the substitution argument.
//! The problem size is fixed while ranks vary (strong scaling, as in the
//! paper's 2/4/8-node sweeps), so per-rank work shrinks as `1/n`.
//!
//! All five report [`MetricKind::Mops`] over their timed kernel, mirroring
//! NAS' "MOPS total" output, and the paper aggregates them by harmonic
//! mean.

use crate::mpi::MpiBuilder;
use crate::spec::{MetricKind, Scale, WorkloadSpec};
use aqs_node::RegionId;

fn per_rank(total: u64, n: usize) -> u64 {
    (total / n as u64).max(1)
}

/// EP — Embarrassingly Parallel.
///
/// Pseudorandom-number statistics with essentially no communication: an
/// initial parameter broadcast, sixteen independent compute blocks (with a
/// small deterministic imbalance), and a final four-value reduction.
///
/// # Examples
///
/// ```
/// let spec = aqs_workloads::nas::ep(8, aqs_workloads::Scale::Tiny);
/// assert_eq!(spec.name, "EP");
/// ```
pub fn ep(n: usize, scale: Scale) -> WorkloadSpec {
    let mut m = MpiBuilder::new(n);
    let blocks = scale.iters(16);
    let block_ops = per_rank(scale.ops(96_000_000), n); // ~1.5G ops total at Mini
    m.bcast(0, 1024);
    m.region_start_all(RegionId::KERNEL);
    for b in 0..blocks {
        m.compute_all_imbalanced(block_ops, 0.04, 100 + b as u64);
    }
    m.allreduce(64, 400);
    m.region_end_all(RegionId::KERNEL);
    WorkloadSpec::new("EP", m.build(), MetricKind::Mops)
}

/// IS — Integer Sort.
///
/// The paper's worst-case accuracy benchmark: every iteration is a small
/// `allreduce` (bucket counts) followed by a large `alltoall` (key
/// redistribution), creating long chains of packet dependences that dilate
/// dramatically under long quanta.
pub fn is(n: usize, scale: Scale) -> WorkloadSpec {
    let mut m = MpiBuilder::new(n);
    let iters = scale.iters(8);
    let iter_ops = per_rank(scale.ops(8_000_000), n);
    let total_data = scale.ops(2_000_000); // bytes redistributed per iteration
    let per_pair = (total_data / (n as u64 * n as u64)).max(256);
    // Untimed key generation + local work: the bulk of IS's execution (the
    // NAS timer only wraps the ranking/exchange kernel).
    m.compute_all_imbalanced(per_rank(scale.ops(2_400_000_000), n), 0.02, 7);
    m.region_start_all(RegionId::KERNEL);
    for i in 0..iters {
        m.compute_all_imbalanced(iter_ops, 0.03, 200 + i as u64);
        m.allreduce(1024, 200);
        m.alltoall(per_pair);
    }
    m.region_end_all(RegionId::KERNEL);
    // Untimed full verification.
    m.compute_all(per_rank(scale.ops(600_000_000), n));
    WorkloadSpec::new("IS", m.build(), MetricKind::Mops)
}

/// CG — Conjugate Gradient.
///
/// Irregular long-distance communication: each of 15 iterations exchanges
/// vector halves with the transpose partner (ring distance `n/2`) and runs
/// two scalar reductions (the dot products).
pub fn cg(n: usize, scale: Scale) -> WorkloadSpec {
    let mut m = MpiBuilder::new(n);
    let iters = scale.iters(15);
    let iter_ops = per_rank(scale.ops(192_000_000), n);
    let exchange_bytes = (scale.ops(192_000) / n as u64).max(256);
    m.bcast(0, 4096);
    m.region_start_all(RegionId::KERNEL);
    for i in 0..iters {
        m.compute_all_imbalanced(iter_ops, 0.05, 300 + i as u64);
        // Long-distance transpose exchange (both directions).
        let dist = (n / 2).max(1);
        m.neighbor_exchange(&[dist], exchange_bytes);
        m.allreduce(64, 100);
        m.allreduce(64, 100);
    }
    m.region_end_all(RegionId::KERNEL);
    WorkloadSpec::new("CG", m.build(), MetricKind::Mops)
}

/// MG — Multi-Grid.
///
/// Structured short *and* long distance communication: each V-cycle walks
/// four grid levels, exchanging halo data with neighbours at ring distance
/// `2^level` with message sizes halving per level.
pub fn mg(n: usize, scale: Scale) -> WorkloadSpec {
    let mut m = MpiBuilder::new(n);
    let cycles = scale.iters(8);
    for c in 0..cycles {
        if c == 0 {
            m.bcast(0, 2048);
            m.region_start_all(RegionId::KERNEL);
        }
        for level in 0..4u32 {
            let ops = per_rank(scale.ops(96_000_000) >> level, n);
            m.compute_all_imbalanced(ops, 0.04, 400 + (c * 4 + level as usize) as u64);
            let dist = (1usize << level) % n;
            if dist > 0 {
                let bytes = ((scale.ops(96_000) >> level) / n as u64).max(256);
                m.neighbor_exchange(&[dist], bytes);
            }
        }
        m.allreduce(64, 100);
    }
    m.region_end_all(RegionId::KERNEL);
    WorkloadSpec::new("MG", m.build(), MetricKind::Mops)
}

/// LU — Lower-Upper Gauss-Seidel.
///
/// Pipelined wavefront: each sweep threads a chain of small messages
/// through every rank in order (limited parallelism; sensitive to network
/// latency, as the paper notes).
pub fn lu(n: usize, scale: Scale) -> WorkloadSpec {
    let mut m = MpiBuilder::new(n);
    let iters = scale.iters(8);
    let stage_ops = per_rank(scale.ops(20_000_000), n);
    let msg = 3000;
    m.bcast(0, 2048);
    m.region_start_all(RegionId::KERNEL);
    for _ in 0..iters {
        // Downward sweep: 0 → n-1.
        for k in 0..n - 1 {
            m.compute(k, stage_ops);
            m.p2p(k, k + 1, msg);
        }
        m.compute(n - 1, stage_ops);
        // Upward sweep: n-1 → 0.
        for k in (1..n).rev() {
            m.compute(k, stage_ops);
            m.p2p(k, k - 1, msg);
        }
        m.compute(0, stage_ops);
    }
    m.allreduce(64, 100);
    m.region_end_all(RegionId::KERNEL);
    WorkloadSpec::new("LU", m.build(), MetricKind::Mops)
}

/// FT — Fourier Transform (beyond the paper's selection).
///
/// The paper runs the five NAS members that execute on all of its node
/// counts; FT is the classic *bandwidth-bound* `alltoall` benchmark (3-D
/// FFT transposes move the whole dataset every iteration, in contrast to
/// IS' small-message chains). Included here because it stresses the NIC
/// serialization path rather than the latency path.
pub fn ft(n: usize, scale: Scale) -> WorkloadSpec {
    let mut m = MpiBuilder::new(n);
    let iters = scale.iters(6);
    let iter_ops = per_rank(scale.ops(120_000_000), n);
    // The whole (scaled) dataset is transposed every iteration.
    let dataset = scale.ops(8_000_000);
    let per_pair = (dataset / (n as u64 * n as u64)).max(1024);
    m.bcast(0, 4096);
    m.region_start_all(RegionId::KERNEL);
    for i in 0..iters {
        m.compute_all_imbalanced(iter_ops, 0.03, 600 + i as u64);
        // Two transposes per 3-D FFT step.
        m.alltoall(per_pair);
        m.compute_all_imbalanced(iter_ops / 2, 0.03, 700 + i as u64);
        m.alltoall(per_pair);
    }
    m.allreduce(64, 100); // checksum
    m.region_end_all(RegionId::KERNEL);
    WorkloadSpec::new("FT", m.build(), MetricKind::Mops)
}

/// The paper's five benchmarks, in its order.
pub fn all(n: usize, scale: Scale) -> Vec<WorkloadSpec> {
    vec![
        ep(n, scale),
        is(n, scale),
        cg(n, scale),
        mg(n, scale),
        lu(n, scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_build_for_paper_node_counts() {
        for n in [2usize, 4, 8, 64] {
            for spec in all(n, Scale::Tiny) {
                assert_eq!(spec.n_ranks(), n, "{}", spec.name);
                assert!(spec.total_ops() > 0, "{}", spec.name);
                assert_eq!(spec.metric, MetricKind::Mops);
            }
        }
    }

    #[test]
    fn ep_is_communication_light() {
        let ep = ep(8, Scale::Mini);
        let is = is(8, Scale::Mini);
        let ep_sends: usize = ep.programs.iter().map(|p| p.send_count()).sum();
        let is_sends: usize = is.programs.iter().map(|p| p.send_count()).sum();
        assert!(
            ep_sends * 10 < is_sends,
            "EP ({ep_sends} sends) should be far lighter than IS ({is_sends})"
        );
    }

    #[test]
    fn strong_scaling_divides_work() {
        let small = ep(2, Scale::Mini).total_ops();
        let large = ep(8, Scale::Mini).total_ops();
        // Same total problem (within imbalance/rounding noise).
        let ratio = small as f64 / large as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "total ops should not scale with n: {ratio}"
        );
    }

    #[test]
    fn lu_is_a_chain() {
        let spec = lu(4, Scale::Tiny);
        // Interior ranks send at least twice per iteration (down + up
        // sweeps), plus their share of the broadcast/reduction trees.
        let iters = Scale::Tiny.iters(8);
        assert!(spec.programs[1].send_count() >= 2 * iters);
        // Rank 0 only participates in the allreduce besides the sweeps.
        assert!(spec.programs[0].send_count() >= iters);
    }

    #[test]
    fn mg_message_sizes_halve_with_level() {
        // Structural smoke test: MG must touch multiple distances.
        let spec = mg(8, Scale::Tiny);
        assert!(spec.programs[0].send_count() > 10);
    }

    #[test]
    fn ft_moves_more_bytes_than_is() {
        let bytes_of = |spec: &WorkloadSpec| -> u64 {
            spec.programs
                .iter()
                .flat_map(|p| p.ops())
                .map(|op| match op {
                    aqs_node::Op::Send { bytes, .. } => *bytes,
                    _ => 0,
                })
                .sum()
        };
        let ft = ft(8, Scale::Mini);
        let is = is(8, Scale::Mini);
        assert!(
            bytes_of(&ft) > 2 * bytes_of(&is),
            "FT must be bandwidth-bound relative to IS"
        );
    }

    #[test]
    fn scales_order_sizes() {
        let tiny = is(4, Scale::Tiny).total_ops();
        let mini = is(4, Scale::Mini).total_ops();
        let full = is(4, Scale::Full).total_ops();
        assert!(tiny < mini && mini < full);
    }
}
