//! Fixed-quantum baseline.

use crate::policy::QuantumPolicy;
use aqs_time::SimDuration;

/// Lock-step synchronization with a constant quantum — the conservative
/// baseline the paper's adaptive technique is measured against.
///
/// With `Q ≤ T` (minimum network latency) this is the provably safe
/// Wisconsin-Wind-Tunnel-style scheme: every remote event is known before
/// the quantum in which it must be delivered, so no stragglers occur. With
/// larger `Q` it trades accuracy for speed without any adaptation.
///
/// # Examples
///
/// ```
/// use aqs_core::{FixedQuantum, QuantumPolicy};
/// use aqs_time::SimDuration;
///
/// let mut p = FixedQuantum::from_micros(100);
/// assert_eq!(p.next_quantum(999), SimDuration::from_micros(100));
/// assert_eq!(p.label(), "100");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedQuantum {
    quantum: SimDuration,
}

impl FixedQuantum {
    /// Creates a fixed policy.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        Self { quantum }
    }

    /// Creates a fixed policy of `us` microseconds.
    pub fn from_micros(us: u64) -> Self {
        Self::new(SimDuration::from_micros(us))
    }

    /// The constant quantum.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }
}

impl QuantumPolicy for FixedQuantum {
    fn initial_quantum(&self) -> SimDuration {
        self.quantum
    }

    fn next_quantum(&mut self, _np: u64) -> SimDuration {
        self.quantum
    }

    fn label(&self) -> String {
        // The paper labels fixed configurations by their quantum in µs.
        let us = self.quantum.as_micros_f64();
        if (us.fract()).abs() < 1e-9 {
            format!("{}", us as u64)
        } else {
            format!("{us}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_regardless_of_traffic() {
        let mut p = FixedQuantum::from_micros(10);
        assert_eq!(p.initial_quantum(), SimDuration::from_micros(10));
        for np in [0, 1, 1000] {
            assert_eq!(p.next_quantum(np), SimDuration::from_micros(10));
        }
    }

    #[test]
    fn labels() {
        assert_eq!(FixedQuantum::from_micros(1).label(), "1");
        assert_eq!(FixedQuantum::from_micros(1000).label(), "1000");
        assert_eq!(
            FixedQuantum::new(SimDuration::from_nanos(1500)).label(),
            "1.5"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_quantum_rejected() {
        let _ = FixedQuantum::new(SimDuration::ZERO);
    }
}
