//! Per-benchmark execution profiles.

use serde::{Deserialize, Serialize};

/// The five SPLASH-2 applications used in the paper's evaluation (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SplashBenchmark {
    /// Barnes-Hut hierarchical N-body simulation.
    Barnes,
    /// Ocean current simulation, non-contiguous partitions variant.
    OceanNonContiguous,
    /// Ray tracer with image-space task parallelism.
    Raytrace,
    /// Water molecular dynamics, spatial decomposition variant.
    WaterSpatial,
    /// Volume renderer.
    Volrend,
}

impl SplashBenchmark {
    /// Every benchmark in the evaluation, in the order the paper lists them.
    pub const ALL: [SplashBenchmark; 5] = [
        SplashBenchmark::Barnes,
        SplashBenchmark::OceanNonContiguous,
        SplashBenchmark::Raytrace,
        SplashBenchmark::WaterSpatial,
        SplashBenchmark::Volrend,
    ];

    /// Short name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SplashBenchmark::Barnes => "barnes",
            SplashBenchmark::OceanNonContiguous => "ocean",
            SplashBenchmark::Raytrace => "raytrace",
            SplashBenchmark::WaterSpatial => "water",
            SplashBenchmark::Volrend => "volrend",
        }
    }

    /// The calibrated profile for this benchmark.
    pub fn profile(self) -> WorkloadProfile {
        WorkloadProfile::for_benchmark(self)
    }
}

impl std::fmt::Display for SplashBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution characteristics of one application, expressed in the
/// substrate-neutral terms both hardware models consume.
///
/// The values are calibrated to the published characterisation of SPLASH-2
/// (Woo et al., ISCA 1995) and to the qualitative behaviour the paper relies
/// on: `barnes` scales almost linearly, `ocean` is memory- and
/// cache-capacity-bound, `raytrace` suffers load imbalance, `water` is
/// compute-bound with a small working set, and `volrend` alternates phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Which benchmark this profile describes.
    pub benchmark: SplashBenchmark,
    /// Total dynamic instructions for the (expanded) input.
    pub total_instructions: f64,
    /// Total application work units (heartbeats' worth of work).
    pub total_work_units: f64,
    /// Fraction of the work that can execute in parallel.
    pub parallel_fraction: f64,
    /// Memory operations per instruction.
    pub memory_ops_per_instruction: f64,
    /// Working-set size in bytes.
    pub working_set_bytes: f64,
    /// Exponent of the power-law miss-rate curve (capacity sensitivity).
    pub locality_exponent: f64,
    /// Fraction of memory operations touching shared data.
    pub sharing_fraction: f64,
    /// Explicit communication flits per instruction.
    pub communication_flits_per_instruction: f64,
    /// Load imbalance factor (≥ 1.0).
    pub load_imbalance: f64,
    /// Base cycles per instruction with an ideal memory system.
    pub base_cpi: f64,
    /// Last-level-cache miss rate on the fixed-hierarchy Xeon platform.
    pub xeon_llc_miss_rate: f64,
    /// Relative amplitude of phase-to-phase variation in demand (0 = steady).
    pub phase_variability: f64,
}

impl WorkloadProfile {
    /// The calibrated profile of `benchmark`.
    fn for_benchmark(benchmark: SplashBenchmark) -> Self {
        let mib = 1024.0 * 1024.0;
        match benchmark {
            SplashBenchmark::Barnes => WorkloadProfile {
                benchmark,
                total_instructions: 8.0e9,
                total_work_units: 2048.0,
                parallel_fraction: 0.998,
                memory_ops_per_instruction: 0.25,
                working_set_bytes: 8.0 * mib,
                locality_exponent: 0.45,
                sharing_fraction: 0.10,
                communication_flits_per_instruction: 0.004,
                load_imbalance: 1.05,
                base_cpi: 1.0,
                xeon_llc_miss_rate: 0.010,
                phase_variability: 0.10,
            },
            SplashBenchmark::OceanNonContiguous => WorkloadProfile {
                benchmark,
                total_instructions: 6.0e9,
                total_work_units: 1536.0,
                parallel_fraction: 0.99,
                memory_ops_per_instruction: 0.45,
                working_set_bytes: 56.0 * mib,
                locality_exponent: 1.0,
                sharing_fraction: 0.25,
                communication_flits_per_instruction: 0.012,
                load_imbalance: 1.02,
                base_cpi: 0.9,
                xeon_llc_miss_rate: 0.050,
                phase_variability: 0.15,
            },
            SplashBenchmark::Raytrace => WorkloadProfile {
                benchmark,
                total_instructions: 7.0e9,
                total_work_units: 1792.0,
                parallel_fraction: 0.995,
                memory_ops_per_instruction: 0.30,
                working_set_bytes: 32.0 * mib,
                locality_exponent: 0.40,
                sharing_fraction: 0.15,
                communication_flits_per_instruction: 0.006,
                load_imbalance: 1.35,
                base_cpi: 1.1,
                xeon_llc_miss_rate: 0.030,
                phase_variability: 0.30,
            },
            SplashBenchmark::WaterSpatial => WorkloadProfile {
                benchmark,
                total_instructions: 9.0e9,
                total_work_units: 2304.0,
                parallel_fraction: 0.985,
                memory_ops_per_instruction: 0.15,
                working_set_bytes: 2.0 * mib,
                locality_exponent: 0.30,
                sharing_fraction: 0.05,
                communication_flits_per_instruction: 0.003,
                load_imbalance: 1.02,
                base_cpi: 1.2,
                xeon_llc_miss_rate: 0.005,
                phase_variability: 0.05,
            },
            SplashBenchmark::Volrend => WorkloadProfile {
                benchmark,
                total_instructions: 5.0e9,
                total_work_units: 1280.0,
                parallel_fraction: 0.96,
                memory_ops_per_instruction: 0.35,
                working_set_bytes: 16.0 * mib,
                locality_exponent: 0.60,
                sharing_fraction: 0.20,
                communication_flits_per_instruction: 0.008,
                load_imbalance: 1.20,
                base_cpi: 1.0,
                xeon_llc_miss_rate: 0.020,
                phase_variability: 0.40,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_distinct_names_and_profiles() {
        let mut names: Vec<_> = SplashBenchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        for b in SplashBenchmark::ALL {
            assert_eq!(b.profile().benchmark, b);
            assert_eq!(b.to_string(), b.name());
        }
    }

    #[test]
    fn profiles_are_within_physical_domains() {
        for b in SplashBenchmark::ALL {
            let p = b.profile();
            assert!(p.total_instructions > 0.0);
            assert!(p.total_work_units > 0.0);
            assert!((0.0..=1.0).contains(&p.parallel_fraction));
            assert!((0.0..=1.0).contains(&p.sharing_fraction));
            assert!((0.0..=1.0).contains(&p.xeon_llc_miss_rate));
            assert!(p.load_imbalance >= 1.0);
            assert!(p.base_cpi > 0.0);
            assert!(p.working_set_bytes > 0.0);
        }
    }

    #[test]
    fn barnes_is_the_most_scalable_benchmark() {
        let barnes = SplashBenchmark::Barnes.profile();
        for b in SplashBenchmark::ALL {
            if b != SplashBenchmark::Barnes {
                assert!(barnes.parallel_fraction >= b.profile().parallel_fraction);
            }
        }
    }

    #[test]
    fn ocean_is_the_most_memory_bound_benchmark() {
        let ocean = SplashBenchmark::OceanNonContiguous.profile();
        for b in SplashBenchmark::ALL {
            if b != SplashBenchmark::OceanNonContiguous {
                let p = b.profile();
                assert!(ocean.memory_ops_per_instruction >= p.memory_ops_per_instruction);
                assert!(ocean.working_set_bytes >= p.working_set_bytes);
            }
        }
    }

    #[test]
    fn raytrace_has_the_worst_load_imbalance() {
        let raytrace = SplashBenchmark::Raytrace.profile();
        for b in SplashBenchmark::ALL {
            if b != SplashBenchmark::Raytrace {
                assert!(raytrace.load_imbalance >= b.profile().load_imbalance);
            }
        }
    }

    #[test]
    fn water_has_the_smallest_working_set() {
        let water = SplashBenchmark::WaterSpatial.profile();
        for b in SplashBenchmark::ALL {
            if b != SplashBenchmark::WaterSpatial {
                assert!(water.working_set_bytes <= b.profile().working_set_bytes);
            }
        }
    }
}
