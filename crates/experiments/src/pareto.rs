//! Pareto analysis over (energy, performance) points.

use serde::{Deserialize, Serialize};

/// A point in the Figure-2 plane: total energy on x, performance on y.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyPerformancePoint {
    /// Total energy of the run, in joules.
    pub energy_joules: f64,
    /// Performance (instructions per second in the paper's Figure 2).
    pub performance: f64,
}

impl EnergyPerformancePoint {
    /// Creates a point.
    pub fn new(energy_joules: f64, performance: f64) -> Self {
        EnergyPerformancePoint {
            energy_joules,
            performance,
        }
    }

    /// Whether `self` dominates `other`: no worse on both axes and strictly
    /// better on at least one (lower energy, higher performance).
    pub fn dominates(&self, other: &EnergyPerformancePoint) -> bool {
        let no_worse =
            self.energy_joules <= other.energy_joules && self.performance >= other.performance;
        let strictly_better =
            self.energy_joules < other.energy_joules || self.performance > other.performance;
        no_worse && strictly_better
    }
}

/// Indices of the Pareto-optimal points (lowest energy, highest performance)
/// within `points`, sorted by increasing energy.
pub fn pareto_frontier(points: &[EnergyPerformancePoint]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..points.len())
        .filter(|&i| !points.iter().any(|other| other.dominates(&points[i])))
        .collect();
    frontier.sort_by(|&a, &b| {
        points[a]
            .energy_joules
            .partial_cmp(&points[b].energy_joules)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(e: f64, p: f64) -> EnergyPerformancePoint {
        EnergyPerformancePoint::new(e, p)
    }

    #[test]
    fn domination_requires_strict_improvement() {
        assert!(pt(1.0, 10.0).dominates(&pt(2.0, 9.0)));
        assert!(pt(1.0, 10.0).dominates(&pt(1.0, 9.0)));
        assert!(
            !pt(1.0, 10.0).dominates(&pt(1.0, 10.0)),
            "equal points do not dominate"
        );
        assert!(!pt(1.0, 10.0).dominates(&pt(0.5, 20.0)));
        assert!(
            !pt(1.0, 10.0).dominates(&pt(0.5, 5.0)),
            "trade-off points are incomparable"
        );
    }

    #[test]
    fn frontier_excludes_dominated_points() {
        let points = vec![
            pt(1.0, 5.0),  // frontier (cheapest)
            pt(2.0, 10.0), // frontier
            pt(3.0, 9.0),  // dominated by (2.0, 10.0)
            pt(4.0, 20.0), // frontier (fastest)
            pt(2.5, 10.0), // dominated by (2.0, 10.0)
        ];
        let frontier = pareto_frontier(&points);
        assert_eq!(frontier, vec![0, 1, 3]);
    }

    #[test]
    fn frontier_is_sorted_by_energy_and_handles_edges() {
        assert!(pareto_frontier(&[]).is_empty());
        let single = vec![pt(1.0, 1.0)];
        assert_eq!(pareto_frontier(&single), vec![0]);
        let points = vec![pt(5.0, 50.0), pt(1.0, 10.0), pt(3.0, 30.0)];
        let frontier = pareto_frontier(&points);
        let energies: Vec<f64> = frontier.iter().map(|&i| points[i].energy_joules).collect();
        assert!(energies.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(frontier.len(), 3, "a pure trade-off curve is all frontier");
    }
}
