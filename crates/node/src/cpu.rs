//! CPU timing model: abstract operations → simulated time.

use aqs_time::SimDuration;

/// A deliberately simple CPU timing model.
///
/// The paper's timing extensions model CPU latency in detail; for the
/// synchronization study all that matters is *how much simulated time a
/// given amount of work takes*, so a frequency × IPC model suffices — the
/// quantum machinery is agnostic to where durations come from.
///
/// The default mirrors the paper's host/guest: a 2.6 GHz Opteron-class core
/// retiring one operation per cycle.
///
/// # Examples
///
/// ```
/// use aqs_node::CpuModel;
///
/// let cpu = CpuModel::default();
/// // 2.6e9 ops/s → 2600 ops per µs.
/// assert_eq!(cpu.compute_duration(2_600).as_nanos(), 1_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuModel {
    /// Core frequency in Hz.
    freq_hz: u64,
    /// Average instructions (abstract ops) per cycle.
    ipc: f64,
    /// Fixed software cost charged when a receive completes (MPI stack,
    /// interrupt, copy).
    recv_overhead: SimDuration,
}

impl CpuModel {
    /// Creates a CPU model.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero or `ipc` is not strictly positive.
    pub fn new(freq_hz: u64, ipc: f64, recv_overhead: SimDuration) -> Self {
        assert!(freq_hz > 0, "CPU frequency must be positive");
        assert!(
            ipc.is_finite() && ipc > 0.0,
            "IPC must be positive, got {ipc}"
        );
        Self {
            freq_hz,
            ipc,
            recv_overhead,
        }
    }

    /// Core frequency in Hz.
    #[inline]
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Instructions per cycle.
    #[inline]
    pub fn ipc(&self) -> f64 {
        self.ipc
    }

    /// Per-completed-receive software overhead.
    #[inline]
    pub fn recv_overhead(&self) -> SimDuration {
        self.recv_overhead
    }

    /// Simulated time to execute `ops` abstract operations (rounded to the
    /// nearest nanosecond, minimum 1 ns for non-zero work).
    pub fn compute_duration(&self, ops: u64) -> SimDuration {
        if ops == 0 {
            return SimDuration::ZERO;
        }
        let secs = ops as f64 / (self.freq_hz as f64 * self.ipc);
        SimDuration::from_secs_f64(secs).max(SimDuration::from_nanos(1))
    }

    /// Operations retired per second.
    pub fn ops_per_second(&self) -> f64 {
        self.freq_hz as f64 * self.ipc
    }
}

impl Default for CpuModel {
    /// 2.6 GHz, IPC 1.0, 2 µs receive overhead.
    fn default() -> Self {
        Self::new(2_600_000_000, 1.0, SimDuration::from_micros(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_is_opteron_class() {
        let cpu = CpuModel::default();
        assert_eq!(cpu.freq_hz(), 2_600_000_000);
        assert!((cpu.ipc() - 1.0).abs() < f64::EPSILON);
        assert_eq!(cpu.recv_overhead(), SimDuration::from_micros(2));
    }

    #[test]
    fn zero_ops_take_no_time() {
        assert_eq!(CpuModel::default().compute_duration(0), SimDuration::ZERO);
    }

    #[test]
    fn tiny_work_takes_at_least_a_nanosecond() {
        assert_eq!(
            CpuModel::default().compute_duration(1),
            SimDuration::from_nanos(1)
        );
    }

    #[test]
    fn duration_scales_with_work() {
        let cpu = CpuModel::default();
        assert_eq!(
            cpu.compute_duration(2_600_000_000),
            SimDuration::from_secs(1)
        );
        assert_eq!(cpu.compute_duration(2_600_000), SimDuration::from_millis(1));
    }

    #[test]
    fn ipc_speeds_things_up() {
        let slow = CpuModel::new(1_000_000_000, 0.5, SimDuration::ZERO);
        let fast = CpuModel::new(1_000_000_000, 2.0, SimDuration::ZERO);
        assert_eq!(slow.compute_duration(1000), SimDuration::from_nanos(2000));
        assert_eq!(fast.compute_duration(1000), SimDuration::from_nanos(500));
        assert!((fast.ops_per_second() - 2e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "IPC must be positive")]
    fn non_positive_ipc_rejected() {
        let _ = CpuModel::new(1, 0.0, SimDuration::ZERO);
    }

    proptest! {
        #[test]
        fn duration_is_monotone_in_ops(a in 0u64..10_000_000, b in 0u64..10_000_000) {
            let cpu = CpuModel::default();
            if a <= b {
                prop_assert!(cpu.compute_duration(a) <= cpu.compute_duration(b));
            }
        }
    }
}
