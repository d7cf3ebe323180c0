//! NIC timing model: serialization, minimum latency, MTU fragmentation.

use aqs_time::{SimDuration, SimTime};

/// Timing model of a node's network interface card.
///
/// A message handed to the NIC is fragmented into MTU-sized frames; each
/// frame occupies the wire for `bytes * 8 / bandwidth` (serialization) and
/// then needs at least [`min_latency`](Self::min_latency) to reach the
/// switch. The paper deliberately stresses the synchronizer with a very fast
/// NIC ([`NicModel::paper_default`]): lower latency means more stragglers.
///
/// # Examples
///
/// ```
/// use aqs_net::NicModel;
/// use aqs_time::SimDuration;
///
/// let nic = NicModel::paper_default(); // 10 Gb/s, 1 µs, 9000 B MTU
/// // A jumbo frame takes 7.2 µs of wire time…
/// assert_eq!(nic.serialization_delay(9000), SimDuration::from_nanos(7_200));
/// // …and a 25 kB message becomes three frames.
/// assert_eq!(nic.fragment_sizes(25_000), vec![9000, 9000, 7000]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NicModel {
    /// Link bandwidth in bits per second.
    bandwidth_bps: u64,
    /// Minimum propagation latency NIC-to-switch-to-NIC.
    min_latency: SimDuration,
    /// Maximum frame size in bytes.
    mtu_bytes: u32,
}

impl NicModel {
    /// Creates a NIC model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` or `mtu_bytes` is zero.
    pub fn new(bandwidth_bps: u64, min_latency: SimDuration, mtu_bytes: u32) -> Self {
        assert!(bandwidth_bps > 0, "NIC bandwidth must be positive");
        assert!(mtu_bytes > 0, "NIC MTU must be positive");
        Self {
            bandwidth_bps,
            min_latency,
            mtu_bytes,
        }
    }

    /// The paper's evaluation configuration: 10 Gb/s, 1 µs minimum latency,
    /// 9000-byte jumbo Ethernet frames.
    pub fn paper_default() -> Self {
        Self::new(10_000_000_000, SimDuration::from_micros(1), 9000)
    }

    /// Link bandwidth in bits per second.
    #[inline]
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// Minimum end-to-end latency.
    ///
    /// This is the `T` in the paper's safety condition `Q <= T`: a quantum
    /// no longer than this can never produce stragglers.
    #[inline]
    pub fn min_latency(&self) -> SimDuration {
        self.min_latency
    }

    /// Maximum frame size in bytes.
    #[inline]
    pub fn mtu_bytes(&self) -> u32 {
        self.mtu_bytes
    }

    /// Wire time for a frame of `bytes` (rounded up to the nanosecond).
    pub fn serialization_delay(&self, bytes: u32) -> SimDuration {
        let bits = bytes as u128 * 8;
        let nanos = (bits * 1_000_000_000).div_ceil(self.bandwidth_bps as u128);
        SimDuration::from_nanos(nanos as u64)
    }

    /// Number of frames a message of `message_bytes` fragments into.
    ///
    /// Zero-byte messages still consume one (header-only) frame.
    pub fn fragment_count(&self, message_bytes: u64) -> u32 {
        if message_bytes == 0 {
            return 1;
        }
        message_bytes.div_ceil(self.mtu_bytes as u64) as u32
    }

    /// Size of fragment `index` of a message of `message_bytes` — the
    /// allocation-free form of [`fragment_sizes`](Self::fragment_sizes) for
    /// hot paths that walk `0..fragment_count(message_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= fragment_count(message_bytes)`.
    pub fn fragment_size(&self, message_bytes: u64, index: u32) -> u32 {
        let n = self.fragment_count(message_bytes);
        assert!(index < n, "fragment index {index} out of range");
        let offset = index as u64 * self.mtu_bytes as u64;
        let take = (message_bytes - offset).min(self.mtu_bytes as u64) as u32;
        // Header-only frames (zero-length tail) still occupy a 64-byte slot.
        take.max(64)
    }

    /// Sizes of the frames a message of `message_bytes` fragments into.
    ///
    /// Allocates; hot paths should iterate
    /// [`fragment_size`](Self::fragment_size) over
    /// [`fragment_count`](Self::fragment_count) instead.
    pub fn fragment_sizes(&self, message_bytes: u64) -> Vec<u32> {
        (0..self.fragment_count(message_bytes))
            .map(|i| self.fragment_size(message_bytes, i))
            .collect()
    }

    /// Total NIC occupancy for sending a whole message: the sum of frame
    /// serialization delays (frames leave back-to-back).
    pub fn message_serialization_delay(&self, message_bytes: u64) -> SimDuration {
        self.fragment_sizes(message_bytes)
            .into_iter()
            .map(|b| self.serialization_delay(b))
            .sum()
    }

    /// Earliest possible arrival of a frame leaving the sender's NIC at
    /// `departure`, before any switch delay.
    pub fn earliest_arrival(&self, departure: SimTime) -> SimTime {
        departure + self.min_latency
    }
}

impl Default for NicModel {
    /// [`NicModel::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_default_values() {
        let nic = NicModel::paper_default();
        assert_eq!(nic.bandwidth_bps(), 10_000_000_000);
        assert_eq!(nic.min_latency(), SimDuration::from_micros(1));
        assert_eq!(nic.mtu_bytes(), 9000);
        assert_eq!(NicModel::default(), nic);
    }

    #[test]
    fn serialization_rounds_up() {
        // 1 byte at 10 Gb/s = 0.8 ns -> rounds up to 1 ns.
        let nic = NicModel::paper_default();
        assert_eq!(nic.serialization_delay(1), SimDuration::from_nanos(1));
        assert_eq!(nic.serialization_delay(9000), SimDuration::from_nanos(7200));
    }

    #[test]
    fn fragmentation_boundaries() {
        let nic = NicModel::paper_default();
        assert_eq!(nic.fragment_count(0), 1);
        assert_eq!(nic.fragment_count(1), 1);
        assert_eq!(nic.fragment_count(9000), 1);
        assert_eq!(nic.fragment_count(9001), 2);
        assert_eq!(nic.fragment_count(18_000), 2);
        assert_eq!(nic.fragment_sizes(9001), vec![9000, 64]);
    }

    #[test]
    fn zero_byte_message_is_one_min_frame() {
        let nic = NicModel::paper_default();
        assert_eq!(nic.fragment_sizes(0), vec![64]);
    }

    #[test]
    fn message_serialization_sums_fragments() {
        let nic = NicModel::paper_default();
        let d = nic.message_serialization_delay(18_000);
        assert_eq!(d, SimDuration::from_nanos(14_400));
    }

    #[test]
    fn earliest_arrival_adds_latency() {
        let nic = NicModel::paper_default();
        assert_eq!(
            nic.earliest_arrival(SimTime::from_micros(4)),
            SimTime::from_micros(5)
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = NicModel::new(0, SimDuration::ZERO, 1500);
    }

    proptest! {
        #[test]
        fn fragments_cover_message(bytes in 0u64..1_000_000) {
            let nic = NicModel::paper_default();
            let sizes = nic.fragment_sizes(bytes);
            let covered: u64 = sizes.iter().map(|&s| s as u64).sum();
            // Padding only for tiny tails (64-byte minimum frame).
            prop_assert!(covered >= bytes);
            prop_assert!(covered <= bytes + 64);
            prop_assert!(sizes.iter().all(|&s| s <= nic.mtu_bytes()));
            prop_assert_eq!(sizes.len() as u32, nic.fragment_count(bytes));
        }

        #[test]
        fn indexed_fragment_size_matches_vec_form(bytes in 0u64..1_000_000) {
            let nic = NicModel::paper_default();
            let sizes = nic.fragment_sizes(bytes);
            for (i, &s) in sizes.iter().enumerate() {
                prop_assert_eq!(nic.fragment_size(bytes, i as u32), s);
            }
        }

        #[test]
        fn serialization_is_monotone(a in 0u32..100_000, b in 0u32..100_000) {
            let nic = NicModel::paper_default();
            if a <= b {
                prop_assert!(nic.serialization_delay(a) <= nic.serialization_delay(b));
            }
        }
    }
}
