//! Figure 2: the efficiency of closed adaptive systems.
//!
//! `barnes` runs on a 64-core Graphite-style multicore in every combination
//! of core allocation (1–64, powers of two) and per-core L2 capacity
//! (16–256 KB, powers of two). The figure plots total energy against
//! instructions per second, marks the Pareto-optimal frontier, and shows
//! that the configurations a *closed* cache-only or core-only adaptive
//! system would choose lie off that frontier (DAC 2012 §2).

use angstrom_sim::chip::AngstromChip;
use angstrom_sim::config::ChipConfig;
use serde::{Deserialize, Serialize};
use workloads::SplashBenchmark;

use crate::pareto::{pareto_frontier, EnergyPerformancePoint};
use crate::sweep::{sweep_benchmark, SweepPoint};

/// The Figure-2 data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2 {
    /// Every swept configuration.
    pub points: Vec<SweepPoint>,
    /// Indices (into `points`) of the Pareto-optimal configurations.
    pub frontier: Vec<usize>,
    /// Indices a closed system adapting only the cache would consider optimal
    /// (cores pinned at the chip maximum).
    pub cache_only: Vec<usize>,
    /// Indices a closed system adapting only the core allocation would
    /// consider optimal (cache pinned at its maximum).
    pub core_only: Vec<usize>,
}

impl Figure2 {
    /// Runs the experiment with the paper's parameters (barnes, 64 cores,
    /// 16–256 KB caches).
    pub fn compute() -> Self {
        let chip = AngstromChip::new(ChipConfig::graphite_64());
        Figure2::compute_on(&chip, SplashBenchmark::Barnes, 2012)
    }

    /// Runs the experiment on an arbitrary chip/benchmark (used by tests and
    /// ablations).
    pub fn compute_on(chip: &AngstromChip, benchmark: SplashBenchmark, seed: u64) -> Self {
        let points = sweep_benchmark(chip, benchmark, seed);
        let plane: Vec<EnergyPerformancePoint> = points
            .iter()
            .map(|p| EnergyPerformancePoint::new(p.energy_joules, p.instructions_per_second))
            .collect();
        let frontier = pareto_frontier(&plane);

        let max_cores = points.iter().map(|p| p.cores).max().unwrap_or(1);
        let max_cache = points.iter().map(|p| p.cache_kb).fold(0.0, f64::max);
        let cache_only = closed_system_choices(&points, &plane, |p| p.cores == max_cores);
        let core_only = closed_system_choices(&points, &plane, |p| p.cache_kb == max_cache);

        Figure2 {
            points,
            frontier,
            cache_only,
            core_only,
        }
    }

    /// Indices of closed-system choices (cache-only or core-only) that are
    /// *not* on the global Pareto frontier — the sub-optimality the paper
    /// highlights.
    pub fn suboptimal_closed_choices(&self) -> Vec<usize> {
        self.cache_only
            .iter()
            .chain(self.core_only.iter())
            .copied()
            .filter(|i| !self.frontier.contains(i))
            .collect()
    }

    /// Renders the figure as an aligned text table (one row per point).
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "cores  cache_kb  op  energy_j      ips           pareto  cache_only  core_only\n",
        );
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "{:5}  {:8.0}  {:2}  {:12.4e}  {:12.4e}  {:6}  {:10}  {:9}\n",
                p.cores,
                p.cache_kb,
                p.operating_point,
                p.energy_joules,
                p.instructions_per_second,
                if self.frontier.contains(&i) {
                    "yes"
                } else {
                    ""
                },
                if self.cache_only.contains(&i) {
                    "yes"
                } else {
                    ""
                },
                if self.core_only.contains(&i) {
                    "yes"
                } else {
                    ""
                },
            ));
        }
        out
    }
}

/// The configurations a closed system restricted to `subset` would consider
/// optimal: the Pareto frontier computed *within* that subset only.
fn closed_system_choices<F: Fn(&SweepPoint) -> bool>(
    points: &[SweepPoint],
    plane: &[EnergyPerformancePoint],
    subset: F,
) -> Vec<usize> {
    let indices: Vec<usize> = (0..points.len()).filter(|&i| subset(&points[i])).collect();
    let restricted: Vec<EnergyPerformancePoint> = indices.iter().map(|&i| plane[i]).collect();
    pareto_frontier(&restricted)
        .into_iter()
        .map(|local| indices[local])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_covers_the_full_sweep() {
        let fig = Figure2::compute();
        assert_eq!(fig.points.len(), 7 * 5);
        assert!(!fig.frontier.is_empty());
        assert!(!fig.cache_only.is_empty());
        assert!(!fig.core_only.is_empty());
    }

    #[test]
    fn closed_systems_pick_suboptimal_configurations() {
        let fig = Figure2::compute();
        assert!(
            !fig.suboptimal_closed_choices().is_empty(),
            "the paper's point: closed adaptive systems land off the Pareto frontier"
        );
    }

    #[test]
    fn frontier_points_are_not_dominated() {
        let fig = Figure2::compute();
        for &i in &fig.frontier {
            for (j, other) in fig.points.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominated = other.energy_joules <= fig.points[i].energy_joules
                    && other.instructions_per_second >= fig.points[i].instructions_per_second
                    && (other.energy_joules < fig.points[i].energy_joules
                        || other.instructions_per_second > fig.points[i].instructions_per_second);
                assert!(!dominated, "frontier point {i} is dominated by {j}");
            }
        }
    }

    #[test]
    fn table_lists_every_point() {
        let fig = Figure2::compute();
        let table = fig.to_table();
        assert_eq!(table.lines().count(), fig.points.len() + 1);
        assert!(table.contains("pareto"));
    }
}
