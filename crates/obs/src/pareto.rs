//! Pareto-front extraction for the Figure 8 speed/accuracy scatter.

use serde::{Deserialize, Serialize};

/// One experiment in the speed/accuracy plane.
///
/// `error` is minimized (x axis), `speedup` is maximized (log y axis).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Accuracy error vs. ground truth (fraction; minimized).
    pub error: f64,
    /// Simulation speedup vs. ground truth (maximized).
    pub speedup: f64,
    /// Display label ("NAS dyn 1", "NAMD 100", …).
    pub label: String,
}

impl ParetoPoint {
    /// Creates a point.
    pub fn new(error: f64, speedup: f64, label: impl Into<String>) -> Self {
        Self {
            error,
            speedup,
            label: label.into(),
        }
    }

    /// `true` if `self` dominates `other`: at least as good on both
    /// criteria and strictly better on one (the paper's definition, §5).
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.error <= other.error && self.speedup >= other.speedup;
        let better = self.error < other.error || self.speedup > other.speedup;
        no_worse && better
    }
}

/// Indices of the Pareto-optimal points (non-dominated), sorted by
/// ascending error.
///
/// # Panics
///
/// Panics if any coordinate is NaN.
///
/// # Examples
///
/// ```
/// use aqs_obs::{pareto_front, ParetoPoint};
///
/// let pts = vec![
///     ParetoPoint::new(0.01, 20.0, "dyn"),
///     ParetoPoint::new(0.85, 65.0, "Q=1000"),
///     ParetoPoint::new(0.30, 10.0, "dominated"),
/// ];
/// let front = pareto_front(&pts);
/// assert_eq!(front, vec![0, 1]); // "dominated" loses to "dyn" on both axes
/// ```
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<usize> {
    assert!(
        points
            .iter()
            .all(|p| !p.error.is_nan() && !p.speedup.is_nan()),
        "NaN coordinates cannot be ranked"
    );
    let mut front: Vec<usize> = (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && q.dominates(&points[i]))
        })
        .collect();
    front.sort_by(|&a, &b| {
        points[a]
            .error
            .partial_cmp(&points[b].error)
            .expect("NaN ruled out")
            .then(
                points[a]
                    .speedup
                    .partial_cmp(&points[b].speedup)
                    .expect("NaN ruled out"),
            )
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_point_is_optimal() {
        let pts = vec![ParetoPoint::new(0.5, 1.0, "only")];
        assert_eq!(pareto_front(&pts), vec![0]);
    }

    #[test]
    fn empty_front() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn strict_domination_removes_point() {
        let pts = vec![
            ParetoPoint::new(0.1, 10.0, "good"),
            ParetoPoint::new(0.2, 5.0, "bad"),
        ];
        assert_eq!(pareto_front(&pts), vec![0]);
    }

    #[test]
    fn duplicate_points_both_survive() {
        // Identical points do not dominate each other (no strict better).
        let pts = vec![
            ParetoPoint::new(0.1, 10.0, "a"),
            ParetoPoint::new(0.1, 10.0, "b"),
        ];
        assert_eq!(pareto_front(&pts).len(), 2);
    }

    #[test]
    fn front_is_sorted_by_error() {
        let pts = vec![
            ParetoPoint::new(0.9, 100.0, "fast"),
            ParetoPoint::new(0.0, 1.0, "exact"),
            ParetoPoint::new(0.3, 30.0, "mid"),
        ];
        let front = pareto_front(&pts);
        assert_eq!(front, vec![1, 2, 0]);
    }

    #[test]
    fn dominates_requires_strictness() {
        let a = ParetoPoint::new(0.1, 10.0, "a");
        assert!(!a.dominates(&a.clone()));
        let better = ParetoPoint::new(0.1, 11.0, "b");
        assert!(better.dominates(&a));
        assert!(!a.dominates(&better));
    }

    proptest! {
        /// No point on the front is dominated by any input point, and every
        /// point off the front is dominated by someone.
        #[test]
        fn front_is_exactly_the_nondominated_set(
            coords in prop::collection::vec((0.0f64..1.0, 1.0f64..100.0), 1..40)
        ) {
            let pts: Vec<ParetoPoint> = coords
                .iter()
                .enumerate()
                .map(|(i, &(e, s))| ParetoPoint::new(e, s, format!("p{i}")))
                .collect();
            let front = pareto_front(&pts);
            for i in 0..pts.len() {
                let dominated = pts.iter().enumerate().any(|(j, q)| j != i && q.dominates(&pts[i]));
                prop_assert_eq!(front.contains(&i), !dominated);
            }
        }
    }
}
