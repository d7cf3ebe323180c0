//! Deterministic pseudo-random number generation and hashing for the aqs
//! simulator.
//!
//! Simulation experiments must be **bit-reproducible**: the same seed must
//! produce the same run on every platform and with every dependency upgrade.
//! Rather than depending on an external crate whose stream could change
//! between versions, this crate ships two small, well-known generators:
//!
//! * [`SplitMix64`] — a 64-bit state generator used to expand seeds.
//! * [`Xoshiro256StarStar`] — the main generator (Blackman & Vigna, 2018),
//!   seeded through SplitMix64 exactly as its authors recommend.
//!
//! On top of the raw streams it provides the handful of distributions the
//! simulator needs: uniform ranges, normal (Box–Muller), and log-normal (used
//! for host-speed jitter), plus an [`Ar1`] autoregressive process used to
//! model slowly drifting simulator speeds.
//!
//! Two hashes sit beside the generators, each written once: [`mix64`], the
//! splitmix64 output function (the network's ECMP and chaos draws), and
//! [`fnv1a`], the checksum of snapshot frames and journal records.
//!
//! # Examples
//!
//! ```
//! use aqs_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let x = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//! // Same seed, same stream:
//! assert_eq!(Rng::seed_from_u64(42).next_u64(), Rng::seed_from_u64(42).next_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// SplitMix64's increment: the golden ratio as a 64-bit odd constant.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output function: adds the golden gamma to `x` and
/// finalizes it. Fast, well mixed and pure, so a draw keyed by it is a
/// function of its key alone. [`SplitMix64::next_u64`] is this function of
/// the generator's state.
///
/// # Examples
///
/// ```
/// use aqs_rng::{mix64, SplitMix64};
/// assert_eq!(mix64(7), SplitMix64::new(7).next_u64());
/// ```
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit: the checksum of snapshot frames and journal records and
/// the snapshot's spec fingerprint. Its values are on disk, so they never
/// change.
///
/// # Examples
///
/// ```
/// assert_eq!(aqs_rng::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256StarStar`], but perfectly usable on its own for cheap,
/// low-quality streams.
///
/// # Examples
///
/// ```
/// use aqs_rng::SplitMix64;
/// let mut sm = SplitMix64::new(1);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = mix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        z
    }
}

/// xoshiro256** 1.0 — the simulator's main generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, excellent statistical quality, and a
/// `jump()` function for carving independent substreams out of one seed.
///
/// # Examples
///
/// ```
/// use aqs_rng::Xoshiro256StarStar;
/// let mut a = Xoshiro256StarStar::seed_from_u64(7);
/// let mut b = a.clone();
/// b.jump();
/// assert_ne!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl fmt::Debug for Xoshiro256StarStar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // State intentionally elided: printing 256 bits of entropy is noise.
        f.debug_struct("Xoshiro256StarStar").finish_non_exhaustive()
    }
}

impl Xoshiro256StarStar {
    /// Seeds the generator by expanding `seed` through [`SplitMix64`],
    /// following the reference implementation's recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // All-zero state is the one invalid state; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway for clarity.
        debug_assert!(s.iter().any(|&w| w != 0));
        Self { s }
    }

    /// Returns the raw 256-bit state, for checkpointing a stream position.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator at an exact stream position captured by
    /// [`Self::state`]. Returns `None` for the all-zero state, which is the
    /// one position no valid stream can occupy.
    pub fn from_state(s: [u64; 4]) -> Option<Self> {
        if s.iter().all(|&w| w == 0) {
            return None;
        }
        Some(Self { s })
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Advances the stream by 2¹²⁸ outputs.
    ///
    /// Calling `jump()` k times on identically-seeded generators yields
    /// non-overlapping substreams — one per simulated node.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180EC6D33CFD0ABA,
            0xD5A61266F0C9392C,
            0xA9582618E03FC9AA,
            0x39ABDC4529B1661C,
        ];
        let mut s = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = s;
    }
}

/// The simulator's random-number handle: xoshiro256** plus distributions.
///
/// `Rng` is deliberately *not* an implementation of any external RNG trait:
/// the point is to own the entire stream definition so results never shift
/// under a dependency upgrade.
///
/// # Examples
///
/// ```
/// use aqs_rng::Rng;
/// let mut rng = Rng::seed_from_u64(123);
/// let jitter = rng.lognormal(0.0, 0.25);
/// assert!(jitter > 0.0);
/// let lane = rng.range_u64(0..8);
/// assert!(lane < 8);
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    inner: Xoshiro256StarStar,
    /// Spare normal deviate from the last Box–Muller pair.
    spare_normal: Option<f64>,
}

/// An exact [`Rng`] stream position, capturable mid-stream and restorable
/// bit-for-bit — the unit of RNG state a simulation snapshot carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RngState {
    /// xoshiro256** state words.
    pub s: [u64; 4],
    /// Banked Box–Muller deviate, if the last [`Rng::normal`] left one.
    pub spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            inner: Xoshiro256StarStar::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives the `index`-th independent substream of this generator's seed
    /// via repeated `jump()`.
    ///
    /// Used to give every simulated node its own stream from one experiment
    /// seed. `index` is capped in practice by node counts (≤ thousands), so
    /// the linear cost of jumping is irrelevant.
    pub fn substream(seed: u64, index: u64) -> Self {
        let mut inner = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..index {
            inner.jump();
        }
        Self {
            inner,
            spare_normal: None,
        }
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Captures the exact stream position, including any banked Box–Muller
    /// deviate, so the stream can be resumed bit-for-bit.
    pub fn state(&self) -> RngState {
        RngState {
            s: self.inner.state(),
            spare_normal: self.spare_normal,
        }
    }

    /// Rebuilds a generator at a position captured by [`Self::state`].
    /// Returns `None` for the all-zero xoshiro state (never produced by a
    /// valid stream — seeing it means the snapshot bytes are corrupt).
    pub fn from_state(state: RngState) -> Option<Self> {
        Some(Self {
            inner: Xoshiro256StarStar::from_state(state.s)?,
            spare_normal: state.spare_normal,
        })
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits: xoshiro's lowest bits are its weakest.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `range` (half-open).
    ///
    /// Uses Lemire's unbiased multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(
            range.start < range.end,
            "range_u64 called with empty range {range:?}"
        );
        let span = range.end - range.start;
        loop {
            let x = self.inner.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            let lo = m as u64;
            if lo >= span {
                return range.start + (m >> 64) as u64;
            }
            // `lo < span`: possibly biased region; reject when below threshold.
            let threshold = span.wrapping_neg() % span;
            if lo >= threshold {
                return range.start + (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0..n as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        self.next_f64() < p
    }

    /// Returns a standard-normal deviate via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Returns a normal deviate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn normal_with(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and >= 0, got {sigma}"
        );
        mean + sigma * self.normal()
    }

    /// Returns a log-normal deviate: `exp(N(mu, sigma))`.
    ///
    /// With `mu = 0`, the median is 1.0 — convenient for multiplicative
    /// jitter around a base rate.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// Returns an exponential deviate with the given rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive, got {lambda}"
        );
        let u = 1.0 - self.next_f64();
        -u.ln() / lambda
    }

    /// Returns a uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick called with empty slice");
        &items[self.index(items.len())]
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// A first-order autoregressive process `x' = phi*x + (1-phi)*mean + eps`.
///
/// The cluster engine uses one per node to model simulator speed that drifts
/// slowly over host time (a loaded host core speeds up and slows down, but
/// not white-noise fast).
///
/// # Examples
///
/// ```
/// use aqs_rng::{Ar1, Rng};
/// let mut rng = Rng::seed_from_u64(5);
/// let mut drift = Ar1::new(0.0, 0.9, 0.1);
/// let a = drift.step(&mut rng);
/// let b = drift.step(&mut rng);
/// assert!(a.is_finite() && b.is_finite());
/// ```
#[derive(Clone, Debug)]
pub struct Ar1 {
    mean: f64,
    phi: f64,
    sigma: f64,
    value: f64,
}

impl Ar1 {
    /// Creates a process with long-run `mean`, persistence `phi ∈ [0, 1)` and
    /// innovation standard deviation `sigma`, started at the mean.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is outside `[0, 1)` or `sigma` is negative.
    pub fn new(mean: f64, phi: f64, sigma: f64) -> Self {
        assert!((0.0..1.0).contains(&phi), "phi must be in [0,1), got {phi}");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and >= 0, got {sigma}"
        );
        Self {
            mean,
            phi,
            sigma,
            value: mean,
        }
    }

    /// Advances the process one step and returns the new value.
    pub fn step(&mut self, rng: &mut Rng) -> f64 {
        let eps = rng.normal_with(0.0, self.sigma);
        self.value = self.phi * self.value + (1.0 - self.phi) * self.mean + eps;
        self.value
    }

    /// Returns the current value without advancing.
    #[inline]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Overwrites the current value, restoring a checkpointed process
    /// position (the mean/phi/sigma parameters come from configuration).
    #[inline]
    pub fn set_value(&mut self, value: f64) {
        self.value = value;
    }
}

#[cfg(test)]
mod tests {
    // Explicit import: proptest's prelude also globs a `Rng` trait, and an
    // explicit name wins over a glob.
    use super::{Ar1, Rng, RngState, SplitMix64, Xoshiro256StarStar};
    use proptest::prelude::*;

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::seed_from_u64(0);
        let mut b = Xoshiro256StarStar::seed_from_u64(0);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    #[test]
    fn jump_produces_disjoint_prefixes() {
        let mut base = Xoshiro256StarStar::seed_from_u64(99);
        let mut jumped = base.clone();
        jumped.jump();
        let a: Vec<u64> = (0..64).map(|_| base.next_u64()).collect();
        let b: Vec<u64> = (0..64).map(|_| jumped.next_u64()).collect();
        assert_ne!(a, b);
        for x in &a {
            assert!(!b.contains(x));
        }
    }

    #[test]
    fn substreams_differ_and_are_stable() {
        let mut s0 = Rng::substream(7, 0);
        let mut s1 = Rng::substream(7, 1);
        let mut s1b = Rng::substream(7, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        assert_eq!(s1b.next_u64(), Rng::substream(7, 1).next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_is_positive_with_unit_median() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 100_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal(0.0, 0.25)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 1.0).abs() < 0.02, "median {median}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Rng::seed_from_u64(19);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(23);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn ar1_reverts_to_mean() {
        let mut rng = Rng::seed_from_u64(29);
        let mut p = Ar1::new(10.0, 0.8, 0.0);
        for _ in 0..200 {
            p.step(&mut rng);
        }
        assert!((p.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn state_round_trip_resumes_the_exact_stream() {
        let mut rng = Rng::seed_from_u64(41);
        // Burn an odd number of normals so a spare deviate is banked.
        let _ = rng.normal();
        let saved = rng.state();
        let expected: Vec<f64> = (0..8).map(|_| rng.normal()).collect();
        let mut resumed = Rng::from_state(saved).expect("valid state");
        let got: Vec<f64> = (0..8).map(|_| resumed.normal()).collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn all_zero_state_is_rejected() {
        assert!(Xoshiro256StarStar::from_state([0; 4]).is_none());
        let bad = RngState {
            s: [0; 4],
            spare_normal: None,
        };
        assert!(Rng::from_state(bad).is_none());
    }

    #[test]
    fn ar1_set_value_restores_the_process() {
        let mut rng = Rng::seed_from_u64(31);
        let mut p = Ar1::new(1.0, 0.9, 0.2);
        p.step(&mut rng);
        let (v, rs) = (p.value(), rng.state());
        let expected = p.step(&mut rng);
        let mut q = Ar1::new(1.0, 0.9, 0.2);
        q.set_value(v);
        let mut rng2 = Rng::from_state(rs).unwrap();
        assert_eq!(q.step(&mut rng2), expected);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = rng.range_u64(5..5);
    }

    proptest! {
        #[test]
        fn range_u64_respects_bounds(seed in any::<u64>(), start in 0u64..1000, span in 1u64..1000) {
            let mut rng = Rng::seed_from_u64(seed);
            let v = rng.range_u64(start..start + span);
            prop_assert!(v >= start && v < start + span);
        }

        #[test]
        fn range_f64_respects_bounds(seed in any::<u64>(), lo in -100.0f64..100.0, w in 0.001f64..50.0) {
            let mut rng = Rng::seed_from_u64(seed);
            let v = rng.range_f64(lo, lo + w);
            prop_assert!(v >= lo && v < lo + w);
        }

        #[test]
        fn same_seed_same_stream(seed in any::<u64>()) {
            let mut a = Rng::seed_from_u64(seed);
            let mut b = Rng::seed_from_u64(seed);
            for _ in 0..16 {
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }

        #[test]
        fn index_within(seed in any::<u64>(), n in 1usize..10_000) {
            let mut rng = Rng::seed_from_u64(seed);
            prop_assert!(rng.index(n) < n);
        }

        #[test]
        fn pick_returns_an_element(seed in any::<u64>()) {
            let mut rng = Rng::seed_from_u64(seed);
            let items = [10u32, 20, 30, 40, 50];
            prop_assert!(items.contains(rng.pick(&items)));
        }
    }
}
