//! Quantum synchronization policies — the contribution of the ISPASS 2008
//! paper *"An Adaptive Synchronization Technique for Parallel Simulation of
//! Networked Clusters"* (Falcón, Faraboschi, Ortega).
//!
//! A cluster simulator built from per-node full-system simulators must keep
//! the nodes' simulated clocks consistent. The conservative baseline runs
//! all nodes in lock-step *quanta* of length `Q`; safety (zero stragglers)
//! requires `Q ≤ T` where `T` is the minimum network latency — but paying a
//! barrier every microsecond makes the simulation up to two orders of
//! magnitude slower.
//!
//! The paper's insight: network traffic is bursty, so the quantum can be
//! **adapted** to the observed packet rate. [`AdaptiveQuantum`] implements
//! the paper's Algorithm 1 verbatim: grow the quantum by a small factor
//! (`inc`, 2–5 %) in every packet-free quantum, multiply it by a small
//! factor (`dec ≈ 1/√(maxQ/minQ)`, so the floor is reached in 2–3 quanta)
//! whenever packets appear — "driving over speed bumps".
//!
//! [`FixedQuantum`] provides the baselines the paper compares against. The
//! natural extensions this repository's ablation benchmarks use change only
//! Algorithm 1's brake test, so they are settings of the same type:
//! [`AdaptiveQuantum::with_threshold`] tolerates a few packets per quantum,
//! [`AdaptiveQuantum::with_ewma`] brakes on a smoothed packet count.
//!
//! # Examples
//!
//! ```
//! use aqs_core::{AdaptiveQuantum, QuantumPolicy};
//! use aqs_time::SimDuration;
//!
//! // The paper's "dyn 1" configuration: 1µs..1000µs, +3 % / ×0.02.
//! let mut policy = AdaptiveQuantum::paper_dyn1();
//! assert_eq!(policy.initial_quantum(), SimDuration::from_micros(1));
//!
//! // Quiet quanta grow the quantum…
//! let mut q = policy.initial_quantum();
//! for _ in 0..300 {
//!     q = policy.next_quantum(0);
//! }
//! assert!(q > SimDuration::from_micros(500));
//! // …one busy quantum collapses it back to the floor in ≤ 3 steps.
//! let q1 = policy.next_quantum(10);
//! let q2 = policy.next_quantum(10);
//! assert_eq!(q2, SimDuration::from_micros(1));
//! assert!(q1 < q.mul_f64(0.05));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod fixed;
mod policy;
mod predictive;

pub use adaptive::{AdaptiveConfig, AdaptiveQuantum};
pub use fixed::FixedQuantum;
pub use policy::{QuantumPolicy, SyncConfig};
pub use predictive::{PredictiveConfig, PredictiveQuantum};
