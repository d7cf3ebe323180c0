//! Time newtypes for the aqs cluster simulator.
//!
//! The simulator juggles two distinct notions of time, and confusing them is
//! the classic bug in parallel-simulation code, so each gets its own newtype
//! pair (see C-NEWTYPE in the Rust API guidelines):
//!
//! * **Simulated time** ([`SimTime`] / [`SimDuration`]) — the clock of the
//!   *target* machine being simulated. Packet latencies, quantum lengths and
//!   benchmark-reported wall-clock all live on this axis.
//! * **Host time** ([`HostTime`] / [`HostDuration`]) — the clock of the
//!   machine *running* the simulation. Simulation speedup is a ratio of host
//!   durations; synchronization overhead is paid in host time.
//!
//! All four types store integer **nanoseconds** in a `u64`, which covers
//! ~584 years — far beyond any simulation. Arithmetic that could overflow or
//! underflow panics in debug builds and saturates in release builds only via
//! the explicit `saturating_*` methods; plain operators use checked arithmetic
//! with a panic, because silent wraparound in a clock is never recoverable.
//!
//! # Examples
//!
//! ```
//! use aqs_time::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO;
//! let latency = SimDuration::from_micros(1);
//! let arrival = start + latency;
//! assert_eq!(arrival.as_nanos(), 1_000);
//! assert_eq!(arrival - start, latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Formats a nanosecond count with an adaptive unit (ns/µs/ms/s).
fn fmt_nanos(nanos: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    const US: u64 = 1_000;
    const MS: u64 = 1_000_000;
    const S: u64 = 1_000_000_000;
    if nanos == 0 {
        write!(f, "0ns")
    } else if nanos.is_multiple_of(S) {
        write!(f, "{}s", nanos / S)
    } else if nanos >= S {
        write!(f, "{:.3}s", nanos as f64 / S as f64)
    } else if nanos.is_multiple_of(MS) {
        write!(f, "{}ms", nanos / MS)
    } else if nanos >= MS {
        write!(f, "{:.3}ms", nanos as f64 / MS as f64)
    } else if nanos.is_multiple_of(US) {
        write!(f, "{}µs", nanos / US)
    } else if nanos >= US {
        write!(f, "{:.3}µs", nanos as f64 / US as f64)
    } else {
        write!(f, "{nanos}ns")
    }
}

macro_rules! duration_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u64);

        impl $name {
            /// The zero-length duration.
            pub const ZERO: Self = Self(0);
            /// The largest representable duration.
            pub const MAX: Self = Self(u64::MAX);

            /// Creates a duration from whole nanoseconds.
            #[inline]
            pub const fn from_nanos(nanos: u64) -> Self {
                Self(nanos)
            }

            /// Creates a duration from whole microseconds.
            ///
            /// # Panics
            ///
            /// Panics if the value overflows the nanosecond representation.
            #[inline]
            pub const fn from_micros(micros: u64) -> Self {
                match Self::checked_from_micros(micros) {
                    Some(d) => d,
                    None => panic!("duration overflow in from_micros"),
                }
            }

            /// Creates a duration from whole microseconds, or `None` if the
            /// value overflows the nanosecond representation.
            #[inline]
            pub const fn checked_from_micros(micros: u64) -> Option<Self> {
                match micros.checked_mul(1_000) {
                    Some(n) => Some(Self(n)),
                    None => None,
                }
            }

            /// Creates a duration from whole milliseconds.
            ///
            /// # Panics
            ///
            /// Panics if the value overflows the nanosecond representation.
            #[inline]
            pub const fn from_millis(millis: u64) -> Self {
                match millis.checked_mul(1_000_000) {
                    Some(n) => Self(n),
                    None => panic!("duration overflow in from_millis"),
                }
            }

            /// Creates a duration from whole seconds.
            ///
            /// # Panics
            ///
            /// Panics if the value overflows the nanosecond representation.
            #[inline]
            pub const fn from_secs(secs: u64) -> Self {
                match secs.checked_mul(1_000_000_000) {
                    Some(n) => Self(n),
                    None => panic!("duration overflow in from_secs"),
                }
            }

            /// Creates a duration from fractional seconds, rounding to the
            /// nearest nanosecond.
            ///
            /// # Panics
            ///
            /// Panics if `secs` is negative, NaN, or too large to represent.
            #[inline]
            pub fn from_secs_f64(secs: f64) -> Self {
                assert!(
                    secs.is_finite() && secs >= 0.0,
                    "duration seconds must be finite and non-negative, got {secs}"
                );
                let nanos = secs * 1e9;
                assert!(nanos <= u64::MAX as f64, "duration overflow in from_secs_f64");
                Self(nanos.round() as u64)
            }

            /// Returns the duration as whole nanoseconds.
            #[inline]
            pub const fn as_nanos(self) -> u64 {
                self.0
            }

            /// Returns the duration as fractional microseconds.
            #[inline]
            pub fn as_micros_f64(self) -> f64 {
                self.0 as f64 / 1e3
            }

            /// Returns the duration as fractional seconds.
            #[inline]
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / 1e9
            }

            /// Returns `true` if the duration is zero.
            #[inline]
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }

            /// Checked addition; `None` on overflow.
            #[inline]
            pub const fn checked_add(self, rhs: Self) -> Option<Self> {
                match self.0.checked_add(rhs.0) {
                    Some(n) => Some(Self(n)),
                    None => None,
                }
            }

            /// Checked subtraction; `None` on underflow.
            #[inline]
            pub const fn checked_sub(self, rhs: Self) -> Option<Self> {
                match self.0.checked_sub(rhs.0) {
                    Some(n) => Some(Self(n)),
                    None => None,
                }
            }

            /// Saturating subtraction, clamping at zero.
            #[inline]
            pub const fn saturating_sub(self, rhs: Self) -> Self {
                Self(self.0.saturating_sub(rhs.0))
            }

            /// Saturating addition, clamping at [`Self::MAX`].
            #[inline]
            pub const fn saturating_add(self, rhs: Self) -> Self {
                Self(self.0.saturating_add(rhs.0))
            }

            /// Multiplies by a floating factor, rounding to the nearest
            /// nanosecond.
            ///
            /// # Panics
            ///
            /// Panics if `factor` is negative, NaN, or the result overflows.
            #[inline]
            pub fn mul_f64(self, factor: f64) -> Self {
                assert!(
                    factor.is_finite() && factor >= 0.0,
                    "duration factor must be finite and non-negative, got {factor}"
                );
                let nanos = self.0 as f64 * factor;
                assert!(nanos <= u64::MAX as f64, "duration overflow in mul_f64");
                Self(nanos.round() as u64)
            }

            /// Divides by a floating divisor, rounding to the nearest
            /// nanosecond.
            ///
            /// # Panics
            ///
            /// Panics if `divisor` is not strictly positive or the result
            /// overflows.
            #[inline]
            pub fn div_f64(self, divisor: f64) -> Self {
                assert!(
                    divisor.is_finite() && divisor > 0.0,
                    "duration divisor must be finite and positive, got {divisor}"
                );
                let nanos = self.0 as f64 / divisor;
                assert!(nanos <= u64::MAX as f64, "duration overflow in div_f64");
                Self(nanos.round() as u64)
            }

            /// Returns the ratio `self / other` as `f64`.
            ///
            /// # Panics
            ///
            /// Panics if `other` is zero.
            #[inline]
            pub fn ratio(self, other: Self) -> f64 {
                assert!(!other.is_zero(), "cannot take ratio against a zero duration");
                self.0 as f64 / other.0 as f64
            }

            /// Clamps the duration into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "invalid clamp range: {lo:?} > {hi:?}");
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns the larger of two durations.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two durations.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.checked_add(rhs).expect("duration addition overflowed")
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.checked_sub(rhs).expect("duration subtraction underflowed")
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl Mul<u64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: u64) -> Self {
                Self(self.0.checked_mul(rhs).expect("duration multiplication overflowed"))
            }
        }

        impl Div<u64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: u64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Rem for $name {
            type Output = Self;
            #[inline]
            fn rem(self, rhs: Self) -> Self {
                Self(self.0 % rhs.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, d| acc + d)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt_nanos(self.0, f)
            }
        }
    };
}

macro_rules! instant_type {
    ($(#[$meta:meta])* $name:ident, $dur:ident) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u64);

        impl $name {
            /// The simulation epoch (t = 0).
            pub const ZERO: Self = Self(0);
            /// The largest representable instant.
            pub const MAX: Self = Self(u64::MAX);

            /// Creates an instant from whole nanoseconds since the epoch.
            #[inline]
            pub const fn from_nanos(nanos: u64) -> Self {
                Self(nanos)
            }

            /// Creates an instant from whole microseconds since the epoch.
            #[inline]
            pub const fn from_micros(micros: u64) -> Self {
                Self($dur::from_micros(micros).as_nanos())
            }

            /// Creates an instant from whole milliseconds since the epoch.
            #[inline]
            pub const fn from_millis(millis: u64) -> Self {
                Self($dur::from_millis(millis).as_nanos())
            }

            /// Returns nanoseconds since the epoch.
            #[inline]
            pub const fn as_nanos(self) -> u64 {
                self.0
            }

            /// Returns fractional microseconds since the epoch.
            #[inline]
            pub fn as_micros_f64(self) -> f64 {
                self.0 as f64 / 1e3
            }

            /// Returns fractional seconds since the epoch.
            #[inline]
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / 1e9
            }

            /// Duration elapsed since an earlier instant.
            ///
            /// # Panics
            ///
            /// Panics if `earlier` is after `self`.
            #[inline]
            pub fn duration_since(self, earlier: Self) -> $dur {
                $dur::from_nanos(
                    self.0
                        .checked_sub(earlier.0)
                        .expect("duration_since called with a later instant"),
                )
            }

            /// Duration elapsed since an earlier instant, or zero if
            /// `earlier` is actually later.
            #[inline]
            pub const fn saturating_duration_since(self, earlier: Self) -> $dur {
                $dur::from_nanos(self.0.saturating_sub(earlier.0))
            }

            /// Checked addition of a duration; `None` on overflow.
            #[inline]
            pub const fn checked_add(self, dur: $dur) -> Option<Self> {
                match self.0.checked_add(dur.as_nanos()) {
                    Some(n) => Some(Self(n)),
                    None => None,
                }
            }

            /// Returns the later of two instants.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the earlier of two instants.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add<$dur> for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: $dur) -> Self {
                self.checked_add(rhs).expect("instant addition overflowed")
            }
        }

        impl AddAssign<$dur> for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $dur) {
                *self = *self + rhs;
            }
        }

        impl Sub<$dur> for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: $dur) -> Self {
                Self(
                    self.0
                        .checked_sub(rhs.as_nanos())
                        .expect("instant subtraction underflowed"),
                )
            }
        }

        impl Sub for $name {
            type Output = $dur;
            #[inline]
            fn sub(self, rhs: Self) -> $dur {
                self.duration_since(rhs)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt_nanos(self.0, f)
            }
        }
    };
}

duration_type! {
    /// A span of **simulated** (target-machine) time, in nanoseconds.
    ///
    /// Quantum lengths, network latencies, and benchmark-visible wall-clock
    /// are all `SimDuration`s.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqs_time::SimDuration;
    /// let q = SimDuration::from_micros(10);
    /// assert_eq!(q * 3, SimDuration::from_micros(30));
    /// assert_eq!(q.mul_f64(1.05), SimDuration::from_nanos(10_500));
    /// ```
    SimDuration
}

duration_type! {
    /// A span of **host** (simulation-running machine) time, in nanoseconds.
    ///
    /// Simulation speedups compare `HostDuration`s: a configuration that
    /// finishes the same workload in less host time is faster, regardless of
    /// what the simulated clocks did.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqs_time::HostDuration;
    /// let base = HostDuration::from_secs(26);
    /// let fast = HostDuration::from_secs(1);
    /// assert_eq!(base.ratio(fast), 26.0);
    /// ```
    HostDuration
}

instant_type! {
    /// An instant on the **simulated** timeline, in nanoseconds since the
    /// simulation epoch.
    ///
    /// Each simulated node carries its own `SimTime` clock; the quantum
    /// synchronization machinery exists to keep those clocks consistent.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqs_time::{SimDuration, SimTime};
    /// let t = SimTime::from_micros(3) + SimDuration::from_nanos(250);
    /// assert_eq!(t.as_nanos(), 3_250);
    /// ```
    SimTime, SimDuration
}

instant_type! {
    /// An instant on the **host** timeline, in nanoseconds since the start of
    /// the simulation run.
    ///
    /// The deterministic engine orders all events by `HostTime`; the
    /// worker-pool engines measure it with a real clock.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqs_time::{HostDuration, HostTime};
    /// let h = HostTime::ZERO + HostDuration::from_millis(5);
    /// assert_eq!(h.as_nanos(), 5_000_000);
    /// ```
    HostTime, HostDuration
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_constructors() {
        assert_eq!(SimDuration::ZERO.as_nanos(), 0);
        assert!(SimDuration::ZERO.is_zero());
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(HostDuration::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(HostTime::from_millis(7).as_nanos(), 7_000_000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.0).as_nanos(), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn instant_duration_roundtrip() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(350);
        assert_eq!(b - a, SimDuration::from_nanos(250));
        assert_eq!(a + (b - a), b);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_when_reversed() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(350);
        let _ = a.duration_since(b);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(350);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a), SimDuration::from_nanos(250));
    }

    #[test]
    fn mul_div_f64() {
        let q = SimDuration::from_micros(100);
        assert_eq!(q.mul_f64(0.02), SimDuration::from_micros(2));
        assert_eq!(q.mul_f64(1.03), SimDuration::from_nanos(103_000));
        assert_eq!(q.div_f64(4.0), SimDuration::from_micros(25));
    }

    #[test]
    fn clamp_behaves() {
        let lo = SimDuration::from_micros(1);
        let hi = SimDuration::from_micros(1000);
        assert_eq!(SimDuration::from_nanos(10).clamp(lo, hi), lo);
        assert_eq!(SimDuration::from_millis(5).clamp(lo, hi), hi);
        assert_eq!(
            SimDuration::from_micros(42).clamp(lo, hi),
            SimDuration::from_micros(42)
        );
    }

    #[test]
    fn ratio_of_durations() {
        let a = HostDuration::from_secs(10);
        let b = HostDuration::from_secs(4);
        assert!((a.ratio(b) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn ratio_rejects_zero() {
        let _ = HostDuration::from_secs(1).ratio(HostDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::ZERO.to_string(), "0ns");
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(10).to_string(), "10µs");
        assert_eq!(SimDuration::from_nanos(10_500).to_string(), "10.500µs");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2s");
        assert_eq!(SimTime::from_micros(5).to_string(), "5µs");
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", SimDuration::ZERO), "SimDuration(0ns)");
        assert_eq!(format!("{:?}", HostTime::from_nanos(1)), "HostTime(1ns)");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&n| SimDuration::from_nanos(n))
            .sum();
        assert_eq!(total, SimDuration::from_nanos(6));
    }

    #[test]
    fn checked_ops() {
        assert_eq!(
            SimDuration::MAX.checked_add(SimDuration::from_nanos(1)),
            None
        );
        assert_eq!(
            SimDuration::ZERO.checked_sub(SimDuration::from_nanos(1)),
            None
        );
        assert_eq!(
            SimDuration::from_nanos(5).checked_sub(SimDuration::from_nanos(3)),
            Some(SimDuration::from_nanos(2))
        );
        assert_eq!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)), None);
        assert_eq!(
            SimDuration::checked_from_micros(u64::MAX / 1_000),
            Some(SimDuration::from_nanos(u64::MAX / 1_000 * 1_000))
        );
        assert_eq!(SimDuration::checked_from_micros(u64::MAX / 1_000 + 1), None);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_nanos(3);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = HostDuration::from_nanos(3);
        let y = HostDuration::from_nanos(9);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    proptest! {
        #[test]
        fn add_sub_roundtrip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let x = SimDuration::from_nanos(a);
            let y = SimDuration::from_nanos(b);
            prop_assert_eq!((x + y) - y, x);
        }

        #[test]
        fn instant_ordering_matches_nanos(a in any::<u64>(), b in any::<u64>()) {
            let ta = SimTime::from_nanos(a);
            let tb = SimTime::from_nanos(b);
            prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        }

        #[test]
        fn clamp_is_idempotent(v in any::<u64>(), lo in 0u64..1_000_000, width in 0u64..1_000_000) {
            let lo_d = SimDuration::from_nanos(lo);
            let hi_d = SimDuration::from_nanos(lo + width);
            let once = SimDuration::from_nanos(v).clamp(lo_d, hi_d);
            prop_assert_eq!(once.clamp(lo_d, hi_d), once);
            prop_assert!(once >= lo_d && once <= hi_d);
        }

        #[test]
        fn mul_f64_monotone(v in 0u64..1_000_000_000, f in 0.0f64..10.0) {
            let d = SimDuration::from_nanos(v);
            let scaled = d.mul_f64(f);
            if f >= 1.0 {
                prop_assert!(scaled >= d || v == 0);
            }
        }
    }
}
