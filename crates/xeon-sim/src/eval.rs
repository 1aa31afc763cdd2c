//! Split evaluation: hoist configuration- and demand-invariant work out of
//! the per-(demand, configuration) inner loop.
//!
//! [`XeonServer::evaluate`] performs, on every call, work that depends only
//! on the configuration (clamping, the P-state frequency lookup, and — most
//! expensively — the `powf` in the power model) or only on the demand (the
//! Amdahl split). Experiment sweeps evaluate the *same* configurations
//! against the *same* demands thousands of times, so this module lets them
//! prepare both sides once and pay only ~10 floating-point operations per
//! cell.
//!
//! Bit-for-bit contract: [`XeonServer::evaluate_terms`], over terms folded
//! at the configuration's miss penalty, performs exactly the same
//! floating-point operations, in exactly the same association order, as
//! [`XeonServer::evaluate`] — the precomputed values are the
//! identical intermediates, just computed earlier. A property test below
//! asserts bitwise equality over randomised demands and configurations; the
//! figure pipeline relies on it for reproducibility.

use crate::demand::ServerDemand;
use crate::server::{ServerConfiguration, ServerReport, XeonServer};

/// Configuration-side intermediates of [`XeonServer::evaluate`], computed
/// once per configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedConfig {
    /// Clamped core count, as f64 for the Amdahl denominator.
    cores: f64,
    /// DRAM stall penalty in cycles at this configuration's frequency.
    miss_penalty_cycles: f64,
    /// Frequency × duty.
    effective_frequency: f64,
    /// `effective_frequency * cores` — the parallel-term denominator.
    effective_frequency_times_cores: f64,
    /// Power above idle at this configuration (demand independent).
    power_above_idle_watts: f64,
    /// Total power including idle.
    total_power_watts: f64,
}

impl PreparedConfig {
    /// DRAM stall penalty at this configuration's frequency, in cycles —
    /// the key for matching pre-folded [`DemandTerms`].
    pub fn miss_penalty_cycles(&self) -> f64 {
        self.miss_penalty_cycles
    }
}

/// Demand-side intermediates of [`XeonServer::evaluate`], computed once per
/// demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedDemand {
    instructions: f64,
    work_units: f64,
    base_cpi: f64,
    /// `memory_ops_per_instruction * llc_miss_rate`.
    memory_miss_ops: f64,
    /// Serial instructions: `(1 - parallel_fraction) * instructions`.
    serial: f64,
    /// Parallel instructions: `parallel_fraction * instructions`.
    parallel: f64,
    load_imbalance: f64,
}

impl PreparedDemand {
    /// Precomputes the demand-side intermediates of the evaluation.
    pub fn new(demand: &ServerDemand) -> Self {
        PreparedDemand {
            instructions: demand.instructions,
            work_units: demand.work_units,
            base_cpi: demand.base_cpi,
            memory_miss_ops: demand.memory_ops_per_instruction * demand.llc_miss_rate,
            serial: (1.0 - demand.parallel_fraction) * demand.instructions,
            parallel: demand.parallel_fraction * demand.instructions,
            load_imbalance: demand.load_imbalance,
        }
    }

    /// Folds in the one configuration-dependent input of the CPI model —
    /// the DRAM miss penalty, which depends only on the P-state frequency —
    /// yielding the terms shared by every configuration at that frequency.
    /// Sweeps over a grid recompute these once per P-state instead of once
    /// per (cores × duty × P-state) cell.
    pub fn at_miss_penalty(&self, miss_penalty_cycles: f64) -> DemandTerms {
        let cpi = self.base_cpi + self.memory_miss_ops * miss_penalty_cycles;
        DemandTerms {
            miss_penalty_cycles,
            instructions: self.instructions,
            work_units: self.work_units,
            serial_cpi: self.serial * cpi,
            parallel_cpi_imbalance: self.parallel * cpi * self.load_imbalance,
        }
    }
}

/// Demand terms at one DRAM miss penalty (equivalently, one P-state): the
/// numerators of the Amdahl split with the CPI folded in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandTerms {
    /// The miss penalty these terms were folded at (for cache matching).
    miss_penalty_cycles: f64,
    instructions: f64,
    work_units: f64,
    /// `serial * cpi`.
    serial_cpi: f64,
    /// `(parallel * cpi) * load_imbalance`.
    parallel_cpi_imbalance: f64,
}

impl DemandTerms {
    /// The miss penalty the terms were folded at.
    pub fn miss_penalty_cycles(&self) -> f64 {
        self.miss_penalty_cycles
    }
}

impl XeonServer {
    /// Precomputes the configuration-side intermediates of the evaluation
    /// (including the super-linear frequency power term).
    pub fn prepare(&self, configuration: &ServerConfiguration) -> PreparedConfig {
        let cores = configuration.cores.clamp(1, self.total_cores);
        let pstate = configuration.pstate_index.min(self.pstates.len() - 1);
        let duty = configuration.active_cycle_fraction.clamp(0.05, 1.0);
        let frequency = self.pstates.frequency(pstate).expect("index clamped");

        let miss_penalty_cycles = self.dram_latency * frequency;
        let effective_frequency = frequency * duty;

        let per_core_max = (self.max_power - self.idle_power) / self.total_cores as f64;
        let frequency_ratio = frequency / self.pstates.max_frequency();
        let per_core = per_core_max * frequency_ratio.powf(self.frequency_power_exponent) * duty;
        let power_above_idle = per_core * cores as f64 * self.utilization_convexity(cores, duty);
        let total_power = self.idle_power + power_above_idle;

        PreparedConfig {
            cores: cores as f64,
            miss_penalty_cycles,
            effective_frequency,
            effective_frequency_times_cores: effective_frequency * cores as f64,
            power_above_idle_watts: power_above_idle,
            total_power_watts: total_power,
        }
    }

    /// Evaluates pre-folded demand terms under a prepared configuration —
    /// the innermost loop of grid sweeps: two divisions, an add, and the
    /// power products. The caller must have folded the terms at this
    /// configuration's miss penalty.
    ///
    /// Bit-identical to [`XeonServer::evaluate`]: the operation association
    /// matches exactly (`(serial·cpi)/eff + ((parallel·cpi)·imbalance)/(eff·cores)`).
    #[inline]
    pub fn evaluate_terms(&self, terms: &DemandTerms, config: &PreparedConfig) -> ServerReport {
        debug_assert_eq!(
            terms.miss_penalty_cycles.to_bits(),
            config.miss_penalty_cycles.to_bits(),
            "demand terms folded at a different P-state than the configuration"
        );
        let seconds = (terms.serial_cpi / config.effective_frequency
            + terms.parallel_cpi_imbalance / config.effective_frequency_times_cores)
            .max(1e-9);
        let energy = config.total_power_watts * seconds;
        ServerReport {
            seconds,
            instructions: terms.instructions,
            work_units: terms.work_units,
            instructions_per_second: terms.instructions / seconds,
            total_power_watts: config.total_power_watts,
            power_above_idle_watts: config.power_above_idle_watts,
            energy_joules: energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bit_identical(server: &XeonServer, demand: &ServerDemand, cfg: &ServerConfiguration) {
        let direct = server.evaluate(demand, cfg);
        let config = server.prepare(cfg);
        let terms = PreparedDemand::new(demand).at_miss_penalty(config.miss_penalty_cycles);
        let prepared = server.evaluate_terms(&terms, &config);
        assert_eq!(direct.seconds.to_bits(), prepared.seconds.to_bits());
        assert_eq!(
            direct.instructions_per_second.to_bits(),
            prepared.instructions_per_second.to_bits()
        );
        assert_eq!(
            direct.total_power_watts.to_bits(),
            prepared.total_power_watts.to_bits()
        );
        assert_eq!(
            direct.power_above_idle_watts.to_bits(),
            prepared.power_above_idle_watts.to_bits()
        );
        assert_eq!(
            direct.energy_joules.to_bits(),
            prepared.energy_joules.to_bits()
        );
        assert_eq!(
            direct.instructions.to_bits(),
            prepared.instructions.to_bits()
        );
        assert_eq!(direct.work_units.to_bits(), prepared.work_units.to_bits());
    }

    #[test]
    fn prepared_evaluation_is_bit_identical_over_the_full_grid() {
        for server in [XeonServer::dell_r410(), XeonServer::dell_r410_calibrated()] {
            let mut x = 0x2545f4914f6cdd1du64;
            let mut frac = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..50 {
                let demand = ServerDemand::builder()
                    .instructions(1.0e8 + frac() * 1.0e10)
                    .parallel_fraction(frac())
                    .memory_ops_per_instruction(frac() * 0.6)
                    .llc_miss_rate(frac() * 0.3)
                    .base_cpi(0.5 + frac() * 2.0)
                    .load_imbalance(1.0 + frac())
                    .work_units(1.0 + frac() * 100.0)
                    .build();
                for cores in 1..=server.total_cores() {
                    for pstate in 0..server.pstates().len() {
                        for duty_step in 1..=10 {
                            let cfg =
                                ServerConfiguration::new(cores, pstate, duty_step as f64 / 10.0);
                            assert_bit_identical(&server, &demand, &cfg);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clamping_matches_evaluate() {
        let server = XeonServer::dell_r410();
        let demand = ServerDemand::builder().build();
        for cfg in [
            ServerConfiguration::new(0, 0, 1.0),
            ServerConfiguration::new(100, 99, 7.0),
            ServerConfiguration::new(4, 3, 0.001),
        ] {
            assert_bit_identical(&server, &demand, &cfg);
        }
    }

    #[test]
    fn calibrated_model_penalises_flat_out() {
        let linear = XeonServer::dell_r410();
        let convex = XeonServer::dell_r410_calibrated();
        let demand = ServerDemand::builder().parallel_fraction(0.95).build();
        let flat_out = ServerConfiguration::new(8, 0, 1.0);
        let half = ServerConfiguration::new(4, 0, 1.0);
        // Full utilisation: identical power (the envelope is preserved).
        let lin_full = linear.evaluate(&demand, &flat_out);
        let cvx_full = convex.evaluate(&demand, &flat_out);
        assert!((lin_full.power_above_idle_watts - cvx_full.power_above_idle_watts).abs() < 1e-9);
        // Partial utilisation: the convex model is cheaper than linear
        // (0.5^0.15 ≈ 0.90 at half utilisation), so flat-out runs are
        // *relatively* penalised.
        let lin_half = linear.evaluate(&demand, &half);
        let cvx_half = convex.evaluate(&demand, &half);
        assert!(cvx_half.power_above_idle_watts < lin_half.power_above_idle_watts * 0.95);
        assert!(
            cvx_half.instructions_per_second / cvx_half.power_above_idle_watts
                > lin_half.instructions_per_second / lin_half.power_above_idle_watts
        );
    }
}
