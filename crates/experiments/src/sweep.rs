//! Exhaustive configuration sweeps on the Angstrom chip model.
//!
//! The paper's §5.3 methodology runs each benchmark in every possible
//! configuration (cache size × core count × voltage/frequency) and derives
//! the non-adaptive baseline and oracles from the sweep. [`sweep_benchmark`]
//! performs that enumeration.

use angstrom_sim::chip::{AngstromChip, ChipConfiguration};
use serde::{Deserialize, Serialize};
use workloads::{SplashBenchmark, Workload};

use crate::driver::to_chip_demand;

/// One point of a configuration sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Benchmark the point belongs to.
    pub benchmark: SplashBenchmark,
    /// Cores allocated.
    pub cores: usize,
    /// Cache capacity per core, in kilobytes.
    pub cache_kb: f64,
    /// Operating-point index (into the chip's table).
    pub operating_point: usize,
    /// Run time of the whole benchmark, in seconds.
    pub seconds: f64,
    /// Heart rate (work units per second).
    pub heart_rate: f64,
    /// Instruction throughput, in instructions per second.
    pub instructions_per_second: f64,
    /// Total energy, in joules.
    pub energy_joules: f64,
    /// Average power, in watts.
    pub average_power_watts: f64,
}

impl SweepPoint {
    /// The paper's capped efficiency metric: `min(achieved, target) / power`.
    pub fn performance_per_watt(&self, target_heart_rate: f64) -> f64 {
        if self.average_power_watts <= 0.0 {
            return 0.0;
        }
        self.heart_rate.min(target_heart_rate) / self.average_power_watts
    }
}

/// Runs `benchmark` (as a single whole-run quantum) in every configuration
/// the chip exposes and returns one [`SweepPoint`] per configuration.
pub fn sweep_benchmark(
    chip: &AngstromChip,
    benchmark: SplashBenchmark,
    seed: u64,
) -> Vec<SweepPoint> {
    let workload = Workload::new(benchmark, seed);
    let demand = to_chip_demand(&workload.average_quantum());
    let config = chip.config();
    let mut out = Vec::new();
    for &cores in &config.core_allocation_options {
        for &cache_kb in &config.cache_capacity_options_kb {
            for op in 0..config.operating_points.len() {
                let chip_cfg = ChipConfiguration {
                    cores,
                    cache_per_core_kb: cache_kb,
                    operating_point_index: op,
                    coherence: config.coherence,
                    noc_features: None,
                    decision_placement: config.decision_placement,
                };
                let report = chip.evaluate(&demand, &chip_cfg);
                out.push(SweepPoint {
                    benchmark,
                    cores,
                    cache_kb,
                    operating_point: op,
                    seconds: report.seconds,
                    heart_rate: report.work_units / report.seconds,
                    instructions_per_second: report.instructions_per_second,
                    energy_joules: report.energy_joules,
                    average_power_watts: report.average_power_watts,
                });
            }
        }
    }
    out
}

/// The highest heart rate achieved anywhere in a sweep (used to set the
/// "half of maximum" performance targets).
pub fn max_heart_rate(points: &[SweepPoint]) -> f64 {
    points.iter().map(|p| p.heart_rate).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use angstrom_sim::config::ChipConfig;

    /// The sweep point with the best capped performance per watt.
    fn best_point(points: &[SweepPoint], target_heart_rate: f64) -> Option<&SweepPoint> {
        points.iter().max_by(|a, b| {
            a.performance_per_watt(target_heart_rate)
                .partial_cmp(&b.performance_per_watt(target_heart_rate))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    #[test]
    fn sweep_covers_the_full_configuration_space() {
        let chip = AngstromChip::new(ChipConfig::graphite_64());
        let points = sweep_benchmark(&chip, SplashBenchmark::Barnes, 1);
        // 7 core options × 5 cache options × 1 operating point.
        assert_eq!(points.len(), 7 * 5);
        assert!(points
            .iter()
            .all(|p| p.seconds > 0.0 && p.energy_joules > 0.0));
    }

    #[test]
    fn angstrom_sweep_matches_the_papers_space() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let points = sweep_benchmark(&chip, SplashBenchmark::WaterSpatial, 1);
        // 9 core options × 3 cache options × 2 operating points.
        assert_eq!(points.len(), 9 * 3 * 2);
    }

    #[test]
    fn best_point_balances_rate_against_power() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let points = sweep_benchmark(&chip, SplashBenchmark::Barnes, 1);
        let target = max_heart_rate(&points) / 2.0;
        let best = best_point(&points, target).unwrap();
        // The capped metric must never lose to simply running the fastest
        // configuration flat out, and must not collapse onto the slowest
        // configuration either (the target cap and the chip's static power
        // floor pull it toward the middle of the trade-off).
        let slowest_rate = points
            .iter()
            .map(|p| p.heart_rate)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best.heart_rate > slowest_rate * 2.0,
            "the best configuration should not be the slowest one"
        );
        let fastest = points
            .iter()
            .max_by(|a, b| a.heart_rate.partial_cmp(&b.heart_rate).unwrap())
            .unwrap();
        assert!(
            best.performance_per_watt(target) >= fastest.performance_per_watt(target),
            "the best point must be at least as efficient as the fastest point"
        );
    }

    #[test]
    fn per_benchmark_best_configurations_differ() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let mut bests = Vec::new();
        for benchmark in SplashBenchmark::ALL {
            let points = sweep_benchmark(&chip, benchmark, 1);
            let best = best_point(&points, max_heart_rate(&points) / 2.0).unwrap();
            bests.push((best.cores, best.cache_kb as u64, best.operating_point));
        }
        bests.sort_unstable();
        bests.dedup();
        assert!(
            bests.len() >= 2,
            "heterogeneous benchmarks should not all prefer the same configuration"
        );
    }

    #[test]
    fn efficiency_metrics_are_consistent() {
        let point = SweepPoint {
            benchmark: SplashBenchmark::Barnes,
            cores: 4,
            cache_kb: 64.0,
            operating_point: 1,
            seconds: 2.0,
            heart_rate: 50.0,
            instructions_per_second: 1.0e9,
            energy_joules: 20.0,
            average_power_watts: 10.0,
        };
        assert!((point.performance_per_watt(25.0) - 2.5).abs() < 1e-12);
        assert!((point.performance_per_watt(100.0) - 5.0).abs() < 1e-12);
    }
}
