//! The two [`Recorder`]s behind Figure 9: a bounded `(host, sim)` progress
//! series (the speed-up-over-time panels) and a packet log (the traffic
//! panels). They live here because Figure 9 is their only user; it hands
//! them to the deterministic engine through `Sim::run_with_recorder`.
//! (The rollback engines report no barrier lanes and no engine but the
//! deterministic one reports packets, so that is the engine they are for.)

use crate::obs::{QuantumObs, Recorder};
use crate::time::{HostTime, SimTime};

/// `(host, sim)` checkpoints of a run, one offered per completed barrier,
/// kept in bounded memory.
///
/// A ground-truth run executes hundreds of thousands of quanta; storing one
/// checkpoint per quantum would dwarf the rest of the result. The series
/// keeps at most `capacity` points: when full, it drops every other stored
/// point and doubles its sampling stride, preserving an even coverage of
/// the whole run.
///
/// # Examples
///
/// ```
/// use aqs::repro::ProgressSeries;
/// use aqs::time::{HostTime, SimTime};
///
/// let mut r = ProgressSeries::new(64);
/// for i in 0..10_000u64 {
///     r.offer(HostTime::from_nanos(i * 100), SimTime::from_nanos(i));
/// }
/// assert!(r.points().len() <= 64);
/// // Coverage spans the whole run:
/// assert!(r.points().last().unwrap().1 >= SimTime::from_nanos(9_000));
/// ```
#[derive(Clone, Debug)]
pub struct ProgressSeries {
    capacity: usize,
    stride: u64,
    seen: u64,
    points: Vec<(HostTime, SimTime)>,
}

impl ProgressSeries {
    /// Creates a series keeping at most `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 4`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "capacity must be at least 4");
        Self {
            capacity,
            stride: 1,
            seen: 0,
            points: Vec::new(),
        }
    }

    /// Offers one checkpoint; it is stored if it falls on the current
    /// sampling stride.
    pub fn offer(&mut self, host: HostTime, sim: SimTime) {
        if self.seen.is_multiple_of(self.stride) && self.points.len() == self.capacity {
            // Halve resolution: keep even indices, double the stride.
            let mut index = 0;
            self.points.retain(|_| {
                index += 1;
                index % 2 == 1
            });
            self.stride *= 2;
        }
        // After a halving the current sample may no longer be on-stride.
        if self.seen.is_multiple_of(self.stride) {
            self.points.push((host, sim));
        }
        self.seen += 1;
    }

    /// Stored checkpoints, in order.
    pub fn points(&self) -> &[(HostTime, SimTime)] {
        &self.points
    }
}

impl Recorder for ProgressSeries {
    const ENABLED: bool = true;

    fn record_quantum(&mut self, obs: &QuantumObs<'_>) {
        // A sample without barrier lanes is the deterministic engine's
        // closing partial quantum: no barrier completed, so it is no
        // checkpoint.
        if !obs.barrier_wait_ns.is_empty() {
            self.offer(HostTime::from_nanos(obs.host_ns), obs.start + obs.len);
        }
    }
}

/// Every routed copy of a run as `(departure, src, dst, bytes)` in routing
/// order, beside the run's [`ProgressSeries`].
#[derive(Clone, Debug)]
pub struct TrafficLog {
    /// The run's progress checkpoints.
    pub progress: ProgressSeries,
    /// One entry per routed copy.
    pub packets: Vec<(SimTime, usize, usize, u32)>,
}

impl TrafficLog {
    /// An empty log around `progress`.
    pub fn new(progress: ProgressSeries) -> Self {
        Self {
            progress,
            packets: Vec::new(),
        }
    }
}

impl Recorder for TrafficLog {
    const ENABLED: bool = true;

    fn record_quantum(&mut self, obs: &QuantumObs<'_>) {
        self.progress.record_quantum(obs);
    }

    fn record_packet(&mut self, departure: SimTime, src: usize, dst: usize, bytes: u32) {
        self.packets.push((departure, src, dst, bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_everything_under_capacity() {
        let mut r = ProgressSeries::new(16);
        for i in 0..10u64 {
            r.offer(HostTime::from_nanos(i), SimTime::from_nanos(i));
        }
        assert_eq!(r.points().len(), 10);
    }

    #[test]
    fn decimates_when_full() {
        let mut r = ProgressSeries::new(8);
        for i in 0..1000u64 {
            r.offer(HostTime::from_nanos(i), SimTime::from_nanos(i));
        }
        assert!(r.points().len() <= 8);
        // Points remain sorted and span the run.
        let pts = r.points();
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(pts[0].0 <= HostTime::from_nanos(10));
        assert!(pts.last().unwrap().0 >= HostTime::from_nanos(800));
    }
}
