//! Scalar statistics.

/// Harmonic mean — the aggregation the NAS suite (and the paper) uses for
/// MOPS across benchmarks.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive (the harmonic mean of rates
/// is undefined otherwise).
///
/// # Examples
///
/// ```
/// let h = aqs_obs::harmonic_mean(&[2.0, 2.0]).unwrap();
/// assert!((h - 2.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!(
        values.iter().all(|&v| v.is_finite() && v > 0.0),
        "harmonic mean requires strictly positive values"
    );
    Some(values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>())
}

/// Relative error `|value − baseline| / baseline`, the paper's accuracy
/// metric ("accuracy error vs. 1 µs").
///
/// # Panics
///
/// Panics if `baseline` is zero or either input is not finite.
///
/// # Examples
///
/// ```
/// // A benchmark reporting 15 s against a 10 s ground truth is 50 % off —
/// // errors above 100 % are possible for time-based metrics (NAMD's 104 %).
/// assert!((aqs_obs::relative_error(20.4, 10.0) - 1.04).abs() < 1e-12);
/// ```
pub fn relative_error(value: f64, baseline: f64) -> f64 {
    assert!(
        value.is_finite() && baseline.is_finite(),
        "inputs must be finite"
    );
    assert!(baseline != 0.0, "baseline must be non-zero");
    (value - baseline).abs() / baseline.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn harmonic_mean_is_dominated_by_the_slowest_rate() {
        let h = harmonic_mean(&[1.0, 2.0, 3.0, 10.0]).unwrap();
        assert!(h > 1.0 && h < 4.0, "got {h}");
        assert_eq!(harmonic_mean(&[]), None);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn harmonic_rejects_zero() {
        let _ = harmonic_mean(&[1.0, 0.0]);
    }

    #[test]
    fn relative_error_is_symmetric_in_magnitude() {
        assert!((relative_error(80.0, 100.0) - 0.2).abs() < 1e-12);
        assert!((relative_error(120.0, 100.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn relative_error_rejects_zero_baseline() {
        let _ = relative_error(1.0, 0.0);
    }

    proptest! {
        #[test]
        fn identical_values_fix_the_harmonic_mean(x in 0.001f64..1e6, n in 1usize..50) {
            let v = vec![x; n];
            prop_assert!((harmonic_mean(&v).unwrap() - x).abs() / x < 1e-9);
        }

        #[test]
        fn relative_error_zero_iff_equal(a in 0.001f64..1e6) {
            prop_assert!(relative_error(a, a).abs() < 1e-12);
        }
    }
}
