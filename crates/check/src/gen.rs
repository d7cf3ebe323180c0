//! Seeded generation of conformance cases.
//!
//! A [`CaseSpec`] is a complete, serializable description of one simulation
//! experiment: a random MPI-style program per node, a switch model, and a
//! quantum policy. Case `i` of master seed `s` is always the same spec, on
//! every platform — [`CaseSpec::generate`] draws from
//! [`Rng::substream`]`(s, i)` and nothing else, so a failure report of
//! `(seed, index)` is a complete reproducer.

use aqs_cluster::SimSwitch;
use aqs_core::{AdaptiveConfig, SyncConfig};
use aqs_net::{FabricConfig, LatencyMatrixSwitch};
use aqs_node::Program;
use aqs_rng::Rng;
use aqs_time::SimDuration;
use aqs_workloads::MpiBuilder;
use serde::{Deserialize, Serialize};

/// The collective (or point-to-point pattern) a phase performs after its
/// compute block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Zero-byte rendezvous.
    Barrier,
    /// Reduce-to-root then broadcast.
    Allreduce,
    /// Personalized all-to-all exchange.
    Alltoall,
    /// One-to-all from rank `salt % n`.
    Bcast,
    /// Ring neighbor exchange.
    NeighborExchange,
    /// A single `salt`-selected pair trades one message each way — the
    /// sparsest traffic the generator produces, and the pattern most likely
    /// to put exactly one packet in a quantum.
    PingPong,
}

const PHASE_KINDS: [PhaseKind; 6] = [
    PhaseKind::Barrier,
    PhaseKind::Allreduce,
    PhaseKind::Alltoall,
    PhaseKind::Bcast,
    PhaseKind::NeighborExchange,
    PhaseKind::PingPong,
];

/// One compute-then-communicate phase.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Communication pattern.
    pub kind: PhaseKind,
    /// Mean abstract compute operations per node before communicating.
    pub compute: u64,
    /// Load imbalance across nodes, in `[0, 1)`.
    pub spread: f64,
    /// Deterministic per-phase salt (imbalance pattern, root/pair choice).
    pub salt: u64,
    /// Payload bytes per message of the communication step.
    pub bytes: u64,
}

/// The quantum policy a case runs under (in addition to the ground truth).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Fixed quantum in microseconds.
    Fixed {
        /// Quantum length.
        micros: u64,
    },
    /// The paper's Algorithm 1.
    Adaptive {
        /// Floor, microseconds.
        min_us: u64,
        /// Ceiling, microseconds.
        max_us: u64,
        /// Growth factor.
        inc: f64,
        /// Shrink factor.
        dec: f64,
    },
}

impl PolicySpec {
    /// Builds the engine-facing [`SyncConfig`].
    pub fn sync_config(&self) -> SyncConfig {
        match *self {
            PolicySpec::Fixed { micros } => SyncConfig::fixed_micros(micros),
            PolicySpec::Adaptive {
                min_us,
                max_us,
                inc,
                dec,
            } => SyncConfig::Adaptive(AdaptiveConfig::new(
                SimDuration::from_micros(min_us),
                SimDuration::from_micros(max_us),
                inc,
                dec,
            )),
        }
    }

    /// `(min, max)` bounds every quantum this policy can emit.
    pub fn quantum_bounds(&self) -> (SimDuration, SimDuration) {
        match *self {
            PolicySpec::Fixed { micros } => {
                let q = SimDuration::from_micros(micros);
                (q, q)
            }
            PolicySpec::Adaptive { min_us, max_us, .. } => (
                SimDuration::from_micros(min_us),
                SimDuration::from_micros(max_us),
            ),
        }
    }
}

/// A complete, reproducible conformance case.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CaseSpec {
    /// Master seed the case was derived from (also seeds the engines).
    pub seed: u64,
    /// Case index within the master seed's stream.
    pub index: u64,
    /// Cluster size.
    pub n_nodes: u32,
    /// Program phases, identical structure on every node.
    pub phases: Vec<PhaseSpec>,
    /// Uniform switch latency in nanoseconds; `0` selects the paper's
    /// perfect switch. Ignored when [`fabric`](Self::fabric) is set (the
    /// generator keeps it `0` there).
    pub switch_latency_ns: u64,
    /// Route through a small two-nodes-per-rack fat-tree fabric instead of
    /// a uniform latency: per-link serialization, deterministic ECMP plane
    /// hashing, and epoch-keyed background queueing all in the transit path.
    pub fabric: bool,
    /// Quantum policy for the policy-invariant runs.
    pub policy: PolicySpec,
}

impl CaseSpec {
    /// Generates case `index` of master seed `seed`.
    pub fn generate(seed: u64, index: u64) -> Self {
        let mut rng = Rng::substream(seed, index);
        let n_nodes = rng.range_u64(2..6) as u32;
        let n_phases = rng.range_u64(1..5) as usize;
        let phases = (0..n_phases)
            .map(|_| PhaseSpec {
                kind: *rng.pick(&PHASE_KINDS),
                // Up to ~154 µs of contiguous compute at the default 2.6 GHz
                // CPU — long enough quiet stretches for the adaptive quantum
                // to actually reach its ceiling, so ceiling bugs are
                // reachable by generated cases.
                compute: rng.range_u64(0..400_000),
                spread: rng.range_f64(0.0, 0.9),
                salt: rng.next_u64() >> 1,
                bytes: rng.range_u64(1..16_000),
            })
            .collect();
        // 60 % perfect switch (the paper's evaluation switch); the rest
        // split between the latency-matrix and fat-tree fabric paths.
        let (switch_latency_ns, fabric) = if rng.bernoulli(0.6) {
            (0, false)
        } else if rng.bernoulli(0.5) {
            (rng.range_u64(1_000..4_000), false)
        } else {
            (0, true)
        };
        let policy = if rng.bernoulli(0.4) {
            PolicySpec::Fixed {
                micros: *rng.pick(&[1u64, 5, 20, 100, 1000]),
            }
        } else {
            let min_us = *rng.pick(&[1u64, 2]);
            PolicySpec::Adaptive {
                min_us,
                max_us: *rng.pick(&[20u64, 100, 1000]),
                inc: *rng.pick(&[1.02f64, 1.05, 1.1, 1.2]),
                dec: *rng.pick(&[0.02f64, 0.1, 0.3]),
            }
        };
        CaseSpec {
            seed,
            index,
            n_nodes,
            phases,
            switch_latency_ns,
            fabric,
            policy,
        }
    }

    /// Builds one program per node.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (`n_nodes < 2` or no phases) — the
    /// generator never produces such specs and the shrinker never leaves
    /// them behind.
    pub fn programs(&self) -> Vec<Program> {
        let n = self.n_nodes as usize;
        assert!(n >= 2, "conformance cases need at least two nodes");
        assert!(!self.phases.is_empty(), "conformance cases need a phase");
        let mut b = MpiBuilder::new(n);
        for p in &self.phases {
            if p.compute > 0 {
                b.compute_all_imbalanced(p.compute, p.spread, p.salt);
            }
            match p.kind {
                PhaseKind::Barrier => b.barrier(),
                PhaseKind::Allreduce => b.allreduce(p.bytes, 16),
                PhaseKind::Alltoall => b.alltoall(p.bytes),
                PhaseKind::Bcast => b.bcast((p.salt % n as u64) as usize, p.bytes),
                PhaseKind::NeighborExchange => {
                    b.neighbor_exchange(&[1], p.bytes);
                }
                PhaseKind::PingPong => {
                    let src = (p.salt % n as u64) as usize;
                    let dst = (src + 1 + (p.salt / 7 % (n as u64 - 1)) as usize) % n;
                    b.p2p(src, dst, p.bytes);
                    b.p2p(dst, src, p.bytes);
                }
            }
        }
        b.build()
    }

    /// The engine-facing switch model.
    pub fn switch(&self) -> SimSwitch {
        if self.fabric {
            // Two nodes per rack and two uplink planes: even the smallest
            // generated cluster (n = 3) crosses racks, exercising the full
            // uplink/downlink path and the ECMP plane hash.
            SimSwitch::Fabric(
                FabricConfig::fat_tree()
                    .with_rack_size(2)
                    .with_uplinks_per_rack(2),
            )
        } else if self.switch_latency_ns == 0 {
            SimSwitch::Perfect
        } else {
            SimSwitch::LatencyMatrix(LatencyMatrixSwitch::uniform(
                self.n_nodes as usize,
                SimDuration::from_nanos(self.switch_latency_ns),
            ))
        }
    }

    /// A compact human-readable tag for logs: `seed/index`.
    pub fn tag(&self) -> String {
        format!("{:#x}/{}", self.seed, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for i in 0..32 {
            assert_eq!(CaseSpec::generate(0xA5, i), CaseSpec::generate(0xA5, i));
        }
        assert_ne!(CaseSpec::generate(0xA5, 0), CaseSpec::generate(0xA5, 1));
        assert_ne!(CaseSpec::generate(0xA5, 0), CaseSpec::generate(0xA6, 0));
    }

    #[test]
    fn generated_specs_are_well_formed() {
        for i in 0..64 {
            let c = CaseSpec::generate(7, i);
            assert!((2..=5).contains(&c.n_nodes));
            assert!(!c.phases.is_empty() && c.phases.len() <= 4);
            for p in &c.phases {
                assert!(p.bytes >= 1 && p.bytes < 16_000);
                assert!((0.0..0.9).contains(&p.spread));
            }
            let progs = c.programs();
            assert_eq!(progs.len(), c.n_nodes as usize);
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        for i in 0..16 {
            let c = CaseSpec::generate(11, i);
            let json = serde_json::to_string(&c).expect("serialize");
            let back: CaseSpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(c, back);
        }
    }
}
