//! Application demand as seen by the server model.

use serde::{Deserialize, Serialize};

/// Analytical description of one quantum of application demand on the Xeon
/// server. Rates are per dynamic instruction so the same demand can be
/// evaluated under any configuration of cores, clock speed, and idle cycles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerDemand {
    /// Dynamic instructions in the quantum.
    pub instructions: f64,
    /// Fraction of the work that can execute in parallel.
    pub parallel_fraction: f64,
    /// Memory operations per instruction.
    pub memory_ops_per_instruction: f64,
    /// Last-level-cache miss rate of those memory operations (the Xeon's
    /// cache hierarchy is fixed, so this is a property of the workload).
    pub llc_miss_rate: f64,
    /// Base cycles per instruction with an ideal memory system.
    pub base_cpi: f64,
    /// Load imbalance factor ≥ 1.0 across threads.
    pub load_imbalance: f64,
    /// Application work units (heartbeats' worth of work) in the quantum.
    pub work_units: f64,
}

impl ServerDemand {
    /// Starts building a demand with representative defaults.
    pub fn builder() -> ServerDemandBuilder {
        ServerDemandBuilder::default()
    }
}

/// Builder for [`ServerDemand`].
#[derive(Debug, Clone)]
pub struct ServerDemandBuilder {
    demand: ServerDemand,
}

impl Default for ServerDemandBuilder {
    fn default() -> Self {
        ServerDemandBuilder {
            demand: ServerDemand {
                instructions: 1.0e9,
                parallel_fraction: 0.9,
                memory_ops_per_instruction: 0.3,
                llc_miss_rate: 0.02,
                base_cpi: 0.8,
                load_imbalance: 1.0,
                work_units: 1.0,
            },
        }
    }
}

impl ServerDemandBuilder {
    /// Sets the dynamic instruction count.
    pub fn instructions(mut self, value: f64) -> Self {
        self.demand.instructions = value;
        self
    }

    /// Sets the parallel fraction.
    pub fn parallel_fraction(mut self, value: f64) -> Self {
        self.demand.parallel_fraction = value;
        self
    }

    /// Sets memory operations per instruction.
    pub fn memory_ops_per_instruction(mut self, value: f64) -> Self {
        self.demand.memory_ops_per_instruction = value;
        self
    }

    /// Sets the last-level-cache miss rate.
    pub fn llc_miss_rate(mut self, value: f64) -> Self {
        self.demand.llc_miss_rate = value;
        self
    }

    /// Sets the base CPI.
    pub fn base_cpi(mut self, value: f64) -> Self {
        self.demand.base_cpi = value;
        self
    }

    /// Sets the load imbalance factor.
    pub fn load_imbalance(mut self, value: f64) -> Self {
        self.demand.load_imbalance = value;
        self
    }

    /// Sets the work units completed by the quantum.
    pub fn work_units(mut self, value: f64) -> Self {
        self.demand.work_units = value;
        self
    }

    /// Finalises the demand, clamping out-of-range values to their domains.
    pub fn build(self) -> ServerDemand {
        let d = self.demand;
        ServerDemand {
            instructions: d.instructions.max(0.0),
            parallel_fraction: d.parallel_fraction.clamp(0.0, 1.0),
            memory_ops_per_instruction: d.memory_ops_per_instruction.max(0.0),
            llc_miss_rate: d.llc_miss_rate.clamp(0.0, 1.0),
            base_cpi: d.base_cpi.max(0.1),
            load_imbalance: d.load_imbalance.max(1.0),
            work_units: d.work_units.max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_values() {
        let d = ServerDemand::builder()
            .parallel_fraction(2.0)
            .llc_miss_rate(-0.5)
            .load_imbalance(0.1)
            .base_cpi(0.0)
            .build();
        assert_eq!(d.parallel_fraction, 1.0);
        assert_eq!(d.llc_miss_rate, 0.0);
        assert_eq!(d.load_imbalance, 1.0);
        assert!(d.base_cpi > 0.0);
    }
}
