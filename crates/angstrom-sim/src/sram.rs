//! Voltage-scalable SRAM model for Angstrom's on-chip caches.
//!
//! Conventional 6T SRAM cells become unstable below roughly 0.7 V; Angstrom
//! caches therefore use alternative bit-cell topologies and peripheral assist
//! circuits (DAC 2012 §4.2.1, citing Calhoun & Chandrakasan ISSCC 2006,
//! Chang et al. VLSI 2005, Kim et al. ISSCC 2007, Sinangil et al. ISSCC
//! 2011) to keep operating down to near- and sub-threshold voltages. This
//! module models the stability limit, access energy, and leakage of each
//! topology so the cache and energy models can account for low-voltage
//! operation.

use serde::{Deserialize, Serialize};

/// SRAM bit-cell topology / assist-circuit family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SramTopology {
    /// Conventional high-density 6T cell: smallest, but unstable below ~0.7 V.
    Conventional6T,
    /// 8T cell with decoupled read port: stable to ~0.5 V at ~30 % area cost.
    EightT,
    /// Sub-threshold cell with peripheral assists (virtual-ground replica,
    /// optimised peripherals): stable to ~0.35 V at ~80 % area cost.
    SubThresholdAssist,
}

impl SramTopology {
    /// Minimum supply voltage at which reads and writes remain stable, in volts.
    pub fn min_stable_voltage(self) -> f64 {
        match self {
            SramTopology::Conventional6T => 0.70,
            SramTopology::EightT => 0.50,
            SramTopology::SubThresholdAssist => 0.35,
        }
    }

    /// Cell area relative to the conventional 6T cell.
    pub fn relative_area(self) -> f64 {
        match self {
            SramTopology::Conventional6T => 1.0,
            SramTopology::EightT => 1.3,
            SramTopology::SubThresholdAssist => 1.8,
        }
    }
}

/// Analytical SRAM array model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SramModel {
    /// Bit-cell topology of the array.
    pub topology: SramTopology,
    /// Energy per 64-byte access at 0.8 V, in joules.
    pub access_energy_at_nominal: f64,
    /// Leakage power per kilobyte at 0.8 V, in watts.
    pub leakage_per_kb_at_nominal: f64,
}

/// The default model — the arrays behind every Angstrom cache.
pub(crate) const DEFAULT_SRAM: SramModel = SramModel {
    topology: SramTopology::SubThresholdAssist,
    // ~20 pJ per 64-byte line access at nominal voltage.
    access_energy_at_nominal: 20.0e-12,
    // ~0.15 mW of leakage per KB at nominal voltage: large enabled
    // arrays cost real power, which is what makes way/set disabling
    // (DAC 2012 §4.2.1) worth exposing to the runtime.
    leakage_per_kb_at_nominal: 1.5e-4,
};

impl Default for SramModel {
    fn default() -> Self {
        DEFAULT_SRAM
    }
}

impl SramModel {
    /// Creates a model for a particular topology with default energy numbers.
    pub fn with_topology(topology: SramTopology) -> Self {
        SramModel {
            topology,
            ..SramModel::default()
        }
    }

    /// Whether the array operates reliably at `voltage`.
    pub fn is_stable_at(&self, voltage: f64) -> bool {
        voltage >= self.topology.min_stable_voltage()
    }

    /// Energy of one 64-byte access at `voltage`, in joules.
    ///
    /// Dynamic access energy scales as V²; below the stability limit the
    /// access still costs energy but [`Self::is_stable_at`] reports `false`.
    pub fn access_energy(&self, voltage: f64) -> f64 {
        let v_ratio = voltage / 0.8;
        self.access_energy_at_nominal * v_ratio * v_ratio
    }

    /// Leakage power of `kilobytes` of enabled array at `voltage`, in watts.
    ///
    /// Leakage falls super-linearly (but not for free) with voltage, which is
    /// why disabling unused sets and ways still matters at low voltage.
    pub fn leakage_power(&self, kilobytes: f64, voltage: f64) -> f64 {
        let v_ratio = voltage / 0.8;
        self.leakage_per_kb_at_nominal * kilobytes * v_ratio.powf(2.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_limits_are_ordered_by_topology() {
        assert!(
            SramTopology::SubThresholdAssist.min_stable_voltage()
                < SramTopology::EightT.min_stable_voltage()
        );
        assert!(
            SramTopology::EightT.min_stable_voltage()
                < SramTopology::Conventional6T.min_stable_voltage()
        );
    }

    #[test]
    fn area_cost_rises_with_robustness() {
        assert!(
            SramTopology::Conventional6T.relative_area() < SramTopology::EightT.relative_area()
        );
        assert!(
            SramTopology::EightT.relative_area() < SramTopology::SubThresholdAssist.relative_area()
        );
    }

    #[test]
    fn conventional_6t_fails_at_angstrom_low_voltage() {
        let model = SramModel::with_topology(SramTopology::Conventional6T);
        assert!(!model.is_stable_at(0.4));
        assert!(model.is_stable_at(0.8));
        let assisted = SramModel::default();
        assert!(assisted.is_stable_at(0.4));
    }

    #[test]
    fn access_energy_scales_quadratically_with_voltage() {
        let model = SramModel::default();
        let half = model.access_energy(0.4);
        let full = model.access_energy(0.8);
        assert!((full / half - 4.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_scales_with_capacity_and_voltage() {
        let model = SramModel::default();
        assert!(model.leakage_power(256.0, 0.8) > model.leakage_power(64.0, 0.8));
        assert!(model.leakage_power(64.0, 0.4) < model.leakage_power(64.0, 0.8));
    }
}
