//! Pareto-front selection over (latency, accuracy).

/// A point in the coarse-evaluation plane: lower `latency_ms` and higher
/// `accuracy` are both better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Latency in milliseconds (minimized).
    pub latency_ms: f64,
    /// Accuracy, e.g. IoU (maximized).
    pub accuracy: f64,
}

impl ParetoPoint {
    /// True when `self` dominates `other`: at least as good in both
    /// objectives and strictly better in one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.latency_ms <= other.latency_ms && self.accuracy >= other.accuracy;
        let strictly_better = self.latency_ms < other.latency_ms || self.accuracy > other.accuracy;
        no_worse && strictly_better
    }
}

/// Indices of the points on the Pareto front (non-dominated set), in
/// ascending latency order.
///
/// # Example
///
/// ```
/// use codesign_core::pareto::{pareto_front, ParetoPoint};
///
/// let pts = vec![
///     ParetoPoint { latency_ms: 10.0, accuracy: 0.5 },
///     ParetoPoint { latency_ms: 20.0, accuracy: 0.7 },
///     ParetoPoint { latency_ms: 30.0, accuracy: 0.6 }, // dominated
/// ];
/// assert_eq!(pareto_front(&pts), vec![0, 1]);
/// ```
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .latency_ms
            .total_cmp(&points[b].latency_ms)
            .then(points[b].accuracy.total_cmp(&points[a].accuracy))
    });
    let mut front = Vec::new();
    let mut best_acc = f64::NEG_INFINITY;
    for &i in &order {
        if points[i].accuracy > best_acc {
            front.push(i);
            best_acc = points[i].accuracy;
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(latency_ms: f64, accuracy: f64) -> ParetoPoint {
        ParetoPoint {
            latency_ms,
            accuracy,
        }
    }

    #[test]
    fn single_point_is_front() {
        assert_eq!(pareto_front(&[p(5.0, 0.5)]), vec![0]);
    }

    #[test]
    fn dominated_points_removed() {
        let pts = vec![p(10.0, 0.6), p(12.0, 0.5), p(8.0, 0.7)];
        assert_eq!(pareto_front(&pts), vec![2]);
    }

    #[test]
    fn staircase_survives() {
        let pts = vec![p(1.0, 0.3), p(2.0, 0.5), p(3.0, 0.7), p(4.0, 0.9)];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2, 3]);
    }

    #[test]
    fn equal_latency_keeps_higher_accuracy_only() {
        let pts = vec![p(5.0, 0.5), p(5.0, 0.6)];
        assert_eq!(pareto_front(&pts), vec![1]);
    }

    #[test]
    fn empty_input_empty_front() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn dominates_relation() {
        assert!(p(1.0, 0.9).dominates(&p(2.0, 0.8)));
        assert!(p(1.0, 0.9).dominates(&p(1.0, 0.8)));
        assert!(!p(1.0, 0.9).dominates(&p(1.0, 0.9)));
        assert!(!p(1.0, 0.5).dominates(&p(2.0, 0.8)));
    }

    proptest! {
        #[test]
        fn prop_front_is_nondominated(
            lats in prop::collection::vec(1.0f64..100.0, 1..20),
            accs in prop::collection::vec(0.0f64..1.0, 1..20),
        ) {
            let n = lats.len().min(accs.len());
            let pts: Vec<ParetoPoint> = (0..n).map(|i| p(lats[i], accs[i])).collect();
            let front = pareto_front(&pts);
            prop_assert!(!front.is_empty());
            for &i in &front {
                for (j, q) in pts.iter().enumerate() {
                    if j != i {
                        prop_assert!(!q.dominates(&pts[i]),
                            "front point {i} dominated by {j}");
                    }
                }
            }
        }

        #[test]
        fn prop_every_excluded_point_is_dominated(
            lats in prop::collection::vec(1.0f64..100.0, 2..15),
            accs in prop::collection::vec(0.0f64..1.0, 2..15),
        ) {
            let n = lats.len().min(accs.len());
            let pts: Vec<ParetoPoint> = (0..n).map(|i| p(lats[i], accs[i])).collect();
            let front = pareto_front(&pts);
            for (j, q) in pts.iter().enumerate() {
                if !front.contains(&j) {
                    let dominated = pts.iter().enumerate().any(|(i, r)| i != j && r.dominates(q));
                    prop_assert!(dominated, "excluded point {j} is not dominated");
                }
            }
        }

        #[test]
        fn prop_front_sorted_by_latency(
            lats in prop::collection::vec(1.0f64..100.0, 1..20),
            accs in prop::collection::vec(0.0f64..1.0, 1..20),
        ) {
            let n = lats.len().min(accs.len());
            let pts: Vec<ParetoPoint> = (0..n).map(|i| p(lats[i], accs[i])).collect();
            let front = pareto_front(&pts);
            for w in front.windows(2) {
                prop_assert!(
                    pts[w[0]].latency_ms <= pts[w[1]].latency_ms,
                    "front not in ascending latency order: {} then {}",
                    pts[w[0]].latency_ms, pts[w[1]].latency_ms
                );
            }
        }

        #[test]
        fn prop_front_invariant_under_permutation(
            lats in prop::collection::vec(1.0f64..100.0, 1..20),
            accs in prop::collection::vec(0.0f64..1.0, 1..20),
            rot in 0usize..20,
        ) {
            let n = lats.len().min(accs.len());
            let pts: Vec<ParetoPoint> = (0..n).map(|i| p(lats[i], accs[i])).collect();
            // Rotate as the permutation (every rotation is reachable,
            // and composing cases covers the permutation group).
            let mut rotated = pts.clone();
            rotated.rotate_left(rot % n);
            // Compare the *selected points* (not indices) as sorted
            // multisets of bit patterns.
            let canon = |pts: &[ParetoPoint], front: &[usize]| {
                let mut v: Vec<(u64, u64)> = front
                    .iter()
                    .map(|&i| (pts[i].latency_ms.to_bits(), pts[i].accuracy.to_bits()))
                    .collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(
                canon(&pts, &pareto_front(&pts)),
                canon(&rotated, &pareto_front(&rotated))
            );
        }
    }
}
