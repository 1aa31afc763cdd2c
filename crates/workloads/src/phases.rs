//! Phase behaviour: turning a profile into a sequence of per-quantum demands.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profile::{SplashBenchmark, WorkloadProfile};

/// The demand an application places on the hardware during one quantum.
///
/// Fields mirror [`WorkloadProfile`] but describe a single slice of the run;
/// experiment drivers convert this into the demand type of whichever
/// substrate they target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantumDemand {
    /// Benchmark the quantum belongs to.
    pub benchmark: SplashBenchmark,
    /// Index of the quantum within the run.
    pub index: usize,
    /// Dynamic instructions in the quantum.
    pub instructions: f64,
    /// Work units (heartbeats' worth of progress) in the quantum.
    pub work_units: f64,
    /// Parallel fraction during the quantum.
    pub parallel_fraction: f64,
    /// Memory operations per instruction during the quantum.
    pub memory_ops_per_instruction: f64,
    /// Working-set size in bytes during the quantum.
    pub working_set_bytes: f64,
    /// Capacity sensitivity of the miss-rate curve.
    pub locality_exponent: f64,
    /// Fraction of memory operations touching shared data.
    pub sharing_fraction: f64,
    /// Explicit communication flits per instruction.
    pub communication_flits_per_instruction: f64,
    /// Load imbalance factor during the quantum.
    pub load_imbalance: f64,
    /// Base CPI during the quantum.
    pub base_cpi: f64,
    /// Xeon last-level-cache miss rate during the quantum.
    pub xeon_llc_miss_rate: f64,
}

/// A deterministic instance of one benchmark: the profile plus a seeded
/// phase/noise generator.
#[derive(Debug, Clone)]
pub struct Workload {
    profile: WorkloadProfile,
    seed: u64,
}

impl Workload {
    /// Creates a workload for `benchmark` with a deterministic `seed`.
    pub fn new(benchmark: SplashBenchmark, seed: u64) -> Self {
        Workload {
            profile: benchmark.profile(),
            seed,
        }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The benchmark this workload models.
    pub fn benchmark(&self) -> SplashBenchmark {
        self.profile.benchmark
    }

    /// Splits the whole run into `count` quanta with deterministic
    /// phase-to-phase variation. The instructions and work units across all
    /// quanta sum to the profile totals; per-quantum rates wobble around the
    /// profile values with amplitude set by the profile's phase variability.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn quanta(&self, count: usize) -> Vec<QuantumDemand> {
        assert!(
            count > 0,
            "a workload must be split into at least one quantum"
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ seed_mix(self.profile.benchmark));
        let p = &self.profile;
        let base_instructions = p.total_instructions / count as f64;
        let base_work = p.total_work_units / count as f64;

        // Phase weights: a slow sinusoidal drift plus per-quantum noise,
        // normalised so totals are preserved exactly.
        let mut weights: Vec<f64> = (0..count)
            .map(|i| {
                let phase = (i as f64 / count as f64) * std::f64::consts::TAU * 3.0;
                let drift = 1.0 + p.phase_variability * 0.5 * phase.sin();
                let noise = 1.0 + p.phase_variability * rng.gen_range(-0.5..0.5);
                (drift * noise).max(0.1)
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w *= count as f64 / weight_sum;
        }

        (0..count)
            .map(|i| {
                let w = weights[i];
                let wobble = |value: f64, amplitude: f64, rng: &mut StdRng| {
                    value * (1.0 + amplitude * rng.gen_range(-0.5..0.5))
                };
                QuantumDemand {
                    benchmark: p.benchmark,
                    index: i,
                    instructions: base_instructions * w,
                    work_units: base_work * w,
                    parallel_fraction: p.parallel_fraction,
                    memory_ops_per_instruction: wobble(
                        p.memory_ops_per_instruction,
                        p.phase_variability,
                        &mut rng,
                    ),
                    working_set_bytes: wobble(p.working_set_bytes, p.phase_variability, &mut rng),
                    locality_exponent: p.locality_exponent,
                    sharing_fraction: p.sharing_fraction,
                    communication_flits_per_instruction: p.communication_flits_per_instruction,
                    load_imbalance: (p.load_imbalance
                        * (1.0 + p.phase_variability * rng.gen_range(0.0..0.5)))
                    .max(1.0),
                    base_cpi: p.base_cpi,
                    xeon_llc_miss_rate: wobble(p.xeon_llc_miss_rate, p.phase_variability, &mut rng)
                        .clamp(0.0, 1.0),
                }
            })
            .collect()
    }

    /// A single quantum representing the whole-run average (no phase noise).
    pub fn average_quantum(&self) -> QuantumDemand {
        let p = &self.profile;
        QuantumDemand {
            benchmark: p.benchmark,
            index: 0,
            instructions: p.total_instructions,
            work_units: p.total_work_units,
            parallel_fraction: p.parallel_fraction,
            memory_ops_per_instruction: p.memory_ops_per_instruction,
            working_set_bytes: p.working_set_bytes,
            locality_exponent: p.locality_exponent,
            sharing_fraction: p.sharing_fraction,
            communication_flits_per_instruction: p.communication_flits_per_instruction,
            load_imbalance: p.load_imbalance,
            base_cpi: p.base_cpi,
            xeon_llc_miss_rate: p.xeon_llc_miss_rate,
        }
    }
}

/// Mixes the benchmark identity into the RNG seed so two benchmarks sharing a
/// user seed still see different noise streams.
fn seed_mix(benchmark: SplashBenchmark) -> u64 {
    match benchmark {
        SplashBenchmark::Barnes => 0x0b1e_55ed_0000_0001,
        SplashBenchmark::OceanNonContiguous => 0x0b1e_55ed_0000_0002,
        SplashBenchmark::Raytrace => 0x0b1e_55ed_0000_0003,
        SplashBenchmark::WaterSpatial => 0x0b1e_55ed_0000_0004,
        SplashBenchmark::Volrend => 0x0b1e_55ed_0000_0005,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quanta_preserve_totals() {
        for b in SplashBenchmark::ALL {
            let workload = Workload::new(b, 7);
            let quanta = workload.quanta(128);
            let instructions: f64 = quanta.iter().map(|q| q.instructions).sum();
            let work: f64 = quanta.iter().map(|q| q.work_units).sum();
            let p = workload.profile();
            assert!((instructions - p.total_instructions).abs() < 1e-6 * p.total_instructions);
            assert!((work - p.total_work_units).abs() < 1e-6 * p.total_work_units);
        }
    }

    #[test]
    fn quanta_are_deterministic_for_a_seed() {
        let a = Workload::new(SplashBenchmark::Volrend, 99).quanta(64);
        let b = Workload::new(SplashBenchmark::Volrend, 99).quanta(64);
        assert_eq!(a, b);
        let c = Workload::new(SplashBenchmark::Volrend, 100).quanta(64);
        assert_ne!(a, c, "different seeds give different phase noise");
    }

    #[test]
    fn different_benchmarks_with_same_seed_differ() {
        let a = Workload::new(SplashBenchmark::Barnes, 5).quanta(16);
        let b = Workload::new(SplashBenchmark::Raytrace, 5).quanta(16);
        assert_ne!(
            a[0].memory_ops_per_instruction,
            b[0].memory_ops_per_instruction
        );
    }

    #[test]
    fn phase_variability_controls_spread() {
        let steady = Workload::new(SplashBenchmark::WaterSpatial, 1).quanta(256);
        let phasey = Workload::new(SplashBenchmark::Volrend, 1).quanta(256);
        let spread = |quanta: &[QuantumDemand]| {
            let mean = quanta.iter().map(|q| q.instructions).sum::<f64>() / quanta.len() as f64;
            let var = quanta
                .iter()
                .map(|q| (q.instructions - mean).powi(2))
                .sum::<f64>()
                / quanta.len() as f64;
            var.sqrt() / mean
        };
        assert!(spread(&phasey) > spread(&steady));
    }

    #[test]
    fn quantum_parameters_stay_in_domain() {
        for b in SplashBenchmark::ALL {
            for q in Workload::new(b, 3).quanta(64) {
                assert!(q.instructions > 0.0);
                assert!(q.work_units > 0.0);
                assert!((0.0..=1.0).contains(&q.parallel_fraction));
                assert!((0.0..=1.0).contains(&q.xeon_llc_miss_rate));
                assert!(q.load_imbalance >= 1.0);
                assert!(q.working_set_bytes > 0.0);
            }
        }
    }

    #[test]
    fn average_quantum_equals_profile_totals() {
        let workload = Workload::new(SplashBenchmark::Barnes, 0);
        let avg = workload.average_quantum();
        assert_eq!(avg.instructions, workload.profile().total_instructions);
        assert_eq!(avg.work_units, workload.profile().total_work_units);
        assert_eq!(workload.benchmark(), SplashBenchmark::Barnes);
    }

    #[test]
    #[should_panic(expected = "at least one quantum")]
    fn zero_quanta_panics() {
        let _ = Workload::new(SplashBenchmark::Barnes, 0).quanta(0);
    }
}
