//! Substrate-neutral description of application demand.
//!
//! The simulator does not execute instructions; it consumes an analytical
//! description of *what the application asks of the hardware* over a quantum
//! of work. The `workloads` crate translates its SPLASH-2 models into this
//! form, and the SEEC experiments drive the chip one quantum at a time.

use serde::{Deserialize, Serialize};

/// Analytical description of one quantum of application demand.
///
/// All rates are expressed per dynamic instruction so that the same demand
/// can be evaluated under any hardware configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDemand {
    /// Total dynamic instructions in the quantum.
    pub instructions: f64,
    /// Fraction of the work that can execute in parallel (Amdahl's `p`).
    pub parallel_fraction: f64,
    /// Memory operations per instruction (loads + stores).
    pub memory_ops_per_instruction: f64,
    /// Total working-set size touched by the quantum, in bytes.
    pub working_set_bytes: f64,
    /// Exponent `α` of the power-law miss-rate curve `miss ∝ capacity^(-α)`
    /// (higher = the workload is more sensitive to cache capacity; the
    /// classic √2-rule corresponds to ~0.5).
    pub locality_exponent: f64,
    /// Fraction of memory operations that touch data shared between cores
    /// (drives coherence and on-chip network traffic).
    pub sharing_fraction: f64,
    /// Network flits injected per instruction beyond coherence traffic
    /// (explicit communication, e.g. boundary exchanges).
    pub communication_flits_per_instruction: f64,
    /// Load imbalance factor ≥ 1.0: ratio of the busiest core's work to the
    /// mean. 1.0 means perfectly balanced.
    pub load_imbalance: f64,
    /// Base cycles per instruction assuming an ideal memory system.
    pub base_cpi: f64,
    /// Application work units (e.g. particles, rays, frames) completed by
    /// this quantum; used by drivers to convert progress into heartbeats.
    pub work_units: f64,
}

impl WorkloadDemand {
    /// Starts building a demand description with sensible defaults.
    pub fn builder() -> WorkloadDemandBuilder {
        WorkloadDemandBuilder::default()
    }
}

/// Builder for [`WorkloadDemand`].
#[derive(Debug, Clone)]
pub struct WorkloadDemandBuilder {
    demand: WorkloadDemand,
}

impl Default for WorkloadDemandBuilder {
    fn default() -> Self {
        WorkloadDemandBuilder {
            demand: WorkloadDemand {
                instructions: 1.0e9,
                parallel_fraction: 0.9,
                memory_ops_per_instruction: 0.3,
                working_set_bytes: 4.0 * 1024.0 * 1024.0,
                locality_exponent: 0.5,
                sharing_fraction: 0.1,
                communication_flits_per_instruction: 0.01,
                load_imbalance: 1.0,
                base_cpi: 1.0,
                work_units: 1.0,
            },
        }
    }
}

impl WorkloadDemandBuilder {
    /// Sets the total dynamic instruction count.
    pub fn instructions(mut self, value: f64) -> Self {
        self.demand.instructions = value;
        self
    }

    /// Sets the parallel fraction (Amdahl's `p`).
    pub fn parallel_fraction(mut self, value: f64) -> Self {
        self.demand.parallel_fraction = value;
        self
    }

    /// Sets memory operations per instruction.
    pub fn memory_ops_per_instruction(mut self, value: f64) -> Self {
        self.demand.memory_ops_per_instruction = value;
        self
    }

    /// Sets the working-set size in bytes.
    pub fn working_set_bytes(mut self, value: f64) -> Self {
        self.demand.working_set_bytes = value;
        self
    }

    /// Sets the locality exponent of the miss-rate curve.
    pub fn locality_exponent(mut self, value: f64) -> Self {
        self.demand.locality_exponent = value;
        self
    }

    /// Sets the fraction of memory operations touching shared data.
    pub fn sharing_fraction(mut self, value: f64) -> Self {
        self.demand.sharing_fraction = value;
        self
    }

    /// Sets explicit communication flits per instruction.
    pub fn communication_flits_per_instruction(mut self, value: f64) -> Self {
        self.demand.communication_flits_per_instruction = value;
        self
    }

    /// Sets the load imbalance factor (≥ 1.0).
    pub fn load_imbalance(mut self, value: f64) -> Self {
        self.demand.load_imbalance = value;
        self
    }

    /// Sets the base (ideal-memory) CPI.
    pub fn base_cpi(mut self, value: f64) -> Self {
        self.demand.base_cpi = value;
        self
    }

    /// Sets the work units completed by the quantum.
    pub fn work_units(mut self, value: f64) -> Self {
        self.demand.work_units = value;
        self
    }

    /// Finalises the demand description, clamping out-of-range parameters to
    /// their valid domains (fractions to `[0, 1]`, factors to `≥ 1`, counts
    /// to `≥ 0`).
    pub fn build(self) -> WorkloadDemand {
        let d = self.demand;
        WorkloadDemand {
            instructions: d.instructions.max(0.0),
            parallel_fraction: d.parallel_fraction.clamp(0.0, 1.0),
            memory_ops_per_instruction: d.memory_ops_per_instruction.max(0.0),
            working_set_bytes: d.working_set_bytes.max(0.0),
            locality_exponent: d.locality_exponent.clamp(0.05, 3.0),
            sharing_fraction: d.sharing_fraction.clamp(0.0, 1.0),
            communication_flits_per_instruction: d.communication_flits_per_instruction.max(0.0),
            load_imbalance: d.load_imbalance.max(1.0),
            base_cpi: d.base_cpi.max(0.1),
            work_units: d.work_units.max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_out_of_range_values() {
        let d = WorkloadDemand::builder()
            .parallel_fraction(1.7)
            .load_imbalance(0.2)
            .sharing_fraction(-0.5)
            .base_cpi(0.0)
            .build();
        assert_eq!(d.parallel_fraction, 1.0);
        assert_eq!(d.load_imbalance, 1.0);
        assert_eq!(d.sharing_fraction, 0.0);
        assert!(d.base_cpi > 0.0);
    }

    #[test]
    fn builder_defaults_are_reasonable() {
        let d = WorkloadDemand::builder().build();
        assert!(d.instructions > 0.0);
        assert!(d.parallel_fraction > 0.0 && d.parallel_fraction <= 1.0);
        assert!(d.working_set_bytes > 0.0);
    }
}
