//! Dynamic voltage and frequency scaling (DVFS) for Angstrom cores.
//!
//! Each Angstrom core can run at different voltage/frequency operating
//! points (DAC 2012 §4.2.1). The energy model is anchored to the
//! voltage-scalable 32-bit microprocessor of Ickes et al. (ESSCIRC 2011),
//! which the paper cites: ~10.2 pJ/cycle at 0.54 V, with dynamic energy
//! scaling as `C·V²` and leakage power falling super-linearly with voltage.

use serde::{Deserialize, Serialize};

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Supply voltage in volts.
    pub voltage: f64,
    /// Clock frequency in hertz.
    pub frequency: f64,
}

impl OperatingPoint {
    /// Creates an operating point.
    pub fn new(voltage: f64, frequency: f64) -> Self {
        OperatingPoint { voltage, frequency }
    }

    /// The Angstrom low-power point used in the paper's evaluation
    /// (0.4 V, 100 MHz).
    pub fn low_power() -> Self {
        OperatingPoint::new(0.4, 100.0e6)
    }

    /// The Angstrom nominal point used in the paper's evaluation
    /// (0.8 V, 500 MHz).
    pub fn nominal() -> Self {
        OperatingPoint::new(0.8, 500.0e6)
    }
}

impl std::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} V / {:.0} MHz",
            self.voltage,
            self.frequency / 1.0e6
        )
    }
}

/// Core energy parameters calibrated against the cited low-voltage design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreEnergyModel {
    /// Effective switched capacitance per cycle, in farads.
    pub switched_capacitance: f64,
    /// Leakage power at the reference voltage (0.8 V), in watts.
    pub leakage_at_nominal: f64,
    /// Exponent of leakage scaling with voltage (leakage ∝ V^exp).
    pub leakage_voltage_exponent: f64,
}

impl Default for CoreEnergyModel {
    fn default() -> Self {
        // 10.2 pJ/cycle at 0.54 V  =>  C_eff = 10.2e-12 / 0.54²  ≈ 35 pF.
        // Leakage falls super-linearly with voltage, but not so steeply that
        // low-voltage operation gets its static power for free.
        CoreEnergyModel {
            switched_capacitance: 35.0e-12,
            leakage_at_nominal: 5.0e-3,
            leakage_voltage_exponent: 2.5,
        }
    }
}

impl CoreEnergyModel {
    /// Dynamic energy per clock cycle at `point`, in joules.
    pub fn dynamic_energy_per_cycle(&self, point: OperatingPoint) -> f64 {
        self.switched_capacitance * point.voltage * point.voltage
    }

    /// Leakage power at `point`, in watts.
    pub fn leakage_power(&self, point: OperatingPoint) -> f64 {
        let ratio = point.voltage / OperatingPoint::nominal().voltage;
        self.leakage_at_nominal * ratio.powf(self.leakage_voltage_exponent)
    }

    /// Total core power when actively executing at `point`, in watts.
    pub fn active_power(&self, point: OperatingPoint) -> f64 {
        self.dynamic_energy_per_cycle(point) * point.frequency + self.leakage_power(point)
    }
}

/// A per-core DVFS controller exposing a discrete set of operating points.
///
/// A run picks its point through
/// [`ChipConfiguration::operating_point_index`](crate::chip::ChipConfiguration::operating_point_index);
/// the controller holds the tile's current point and core energy model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsController {
    points: Vec<OperatingPoint>,
    current: usize,
    energy_model: CoreEnergyModel,
}

impl DvfsController {
    /// Creates a controller over `points`, starting at the last (fastest)
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(points: Vec<OperatingPoint>) -> Self {
        assert!(
            !points.is_empty(),
            "DVFS controller needs at least one operating point"
        );
        let current = points.len() - 1;
        DvfsController {
            points,
            current,
            energy_model: CoreEnergyModel::default(),
        }
    }

    /// The current operating point.
    pub fn current_point(&self) -> OperatingPoint {
        self.points[self.current]
    }

    /// The energy model shared by every point of this controller.
    pub fn energy_model(&self) -> &CoreEnergyModel {
        &self.energy_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cited_design_point_matches_ten_picojoules() {
        let model = CoreEnergyModel::default();
        let point = OperatingPoint::new(0.54, 10.0e6);
        let pj = model.dynamic_energy_per_cycle(point) * 1.0e12;
        assert!((pj - 10.2).abs() < 0.5, "expected ~10.2 pJ/cycle, got {pj}");
    }

    #[test]
    fn lower_voltage_means_lower_energy_per_cycle_and_leakage() {
        let model = CoreEnergyModel::default();
        let low = OperatingPoint::low_power();
        let high = OperatingPoint::nominal();
        assert!(model.dynamic_energy_per_cycle(low) < model.dynamic_energy_per_cycle(high));
        assert!(model.leakage_power(low) < model.leakage_power(high));
        assert!(model.active_power(low) < model.active_power(high));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_point_table_panics() {
        let _ = DvfsController::new(vec![]);
    }

    #[test]
    fn operating_point_displays_in_mhz() {
        let s = OperatingPoint::nominal().to_string();
        assert!(s.contains("0.80 V") && s.contains("500 MHz"));
    }
}
