//! Environmental and energy sensors.
//!
//! Besides processor state, Angstrom includes sensors for temperature,
//! voltage, battery charge, and energy consumption (DAC 2012 §4.1, citing
//! the Sandy Bridge power-management architecture for the energy counters).
//! They let the runtime react to changing environmental conditions — cooling
//! failures, dying batteries — and observe how its actions affect power and
//! temperature. Sensors are deployed per tile to capture variation across
//! the chip. Each tile carries the temperature, energy, and voltage sensors;
//! the battery sensor is not modelled, since no modelled platform runs on a
//! battery.

use serde::{Deserialize, Serialize};

/// First-order RC thermal model driven by dissipated power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemperatureSensor {
    /// Current junction temperature, in °C.
    temperature: f64,
    /// Ambient temperature, in °C.
    pub ambient: f64,
    /// Thermal resistance junction→ambient, in °C per watt.
    pub thermal_resistance: f64,
    /// Thermal time constant, in seconds.
    pub time_constant: f64,
}

impl Default for TemperatureSensor {
    fn default() -> Self {
        TemperatureSensor {
            temperature: 45.0,
            ambient: 45.0,
            thermal_resistance: 8.0,
            time_constant: 0.05,
        }
    }
}

impl TemperatureSensor {
    /// Current junction temperature in °C.
    pub fn read(&self) -> f64 {
        self.temperature
    }

    /// Advances the thermal state by `dt` seconds with `power` watts
    /// dissipated in the tile.
    pub fn advance(&mut self, power: f64, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        let steady_state = self.ambient + power * self.thermal_resistance;
        let alpha = 1.0 - (-dt / self.time_constant).exp();
        self.temperature += (steady_state - self.temperature) * alpha;
    }
}

/// Accumulating energy sensor (the "energy counter" of §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergySensor {
    joules: f64,
}

impl EnergySensor {
    /// Total energy accumulated so far, in joules.
    pub fn read(&self) -> f64 {
        self.joules
    }

    /// Adds `joules` of consumed energy.
    pub fn accumulate(&mut self, joules: f64) {
        if joules > 0.0 {
            self.joules += joules;
        }
    }
}

/// Supply-voltage sensor (reports the currently applied rail voltage plus
/// a small configurable droop under load).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoltageSensor {
    nominal: f64,
    /// Volts of droop per ampere of load current.
    pub droop_per_amp: f64,
    load_current: f64,
}

impl VoltageSensor {
    /// Creates a sensor for a rail whose regulator targets `nominal` volts.
    pub fn new(nominal: f64) -> Self {
        VoltageSensor {
            nominal,
            droop_per_amp: 0.005,
            load_current: 0.0,
        }
    }

    /// Updates the load current estimate from `power` watts drawn.
    fn set_load_power(&mut self, power: f64) {
        self.load_current = if self.nominal > 0.0 {
            power / self.nominal
        } else {
            0.0
        };
    }

    /// Measured rail voltage including droop, in volts.
    pub fn read(&self) -> f64 {
        (self.nominal - self.load_current * self.droop_per_amp).max(0.0)
    }
}

/// The sensor complement of one tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorBank {
    /// Junction temperature sensor.
    pub temperature: TemperatureSensor,
    /// Accumulating energy counter.
    pub energy: EnergySensor,
    /// Rail-voltage sensor.
    pub voltage: VoltageSensor,
}

impl SensorBank {
    /// Creates a sensor bank for a rail at `nominal_voltage`.
    pub fn new(nominal_voltage: f64) -> Self {
        SensorBank {
            temperature: TemperatureSensor::default(),
            energy: EnergySensor::default(),
            voltage: VoltageSensor::new(nominal_voltage),
        }
    }

    /// Advances every sensor by `dt` seconds given `power` watts dissipated
    /// and `energy_joules` consumed in the interval.
    pub fn advance(&mut self, power: f64, energy_joules: f64, dt: f64) {
        self.temperature.advance(power, dt);
        self.energy.accumulate(energy_joules);
        self.voltage.set_load_power(power);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_approaches_steady_state() {
        let mut sensor = TemperatureSensor::default();
        let power = 2.0; // watts
        for _ in 0..1000 {
            sensor.advance(power, 0.01);
        }
        let expected = sensor.ambient + power * sensor.thermal_resistance;
        assert!((sensor.read() - expected).abs() < 0.1);
        // Cooling back down when power drops.
        for _ in 0..1000 {
            sensor.advance(0.0, 0.01);
        }
        assert!((sensor.read() - sensor.ambient).abs() < 0.1);
    }

    #[test]
    fn temperature_ignores_non_positive_dt() {
        let mut sensor = TemperatureSensor::default();
        let before = sensor.read();
        sensor.advance(100.0, 0.0);
        sensor.advance(100.0, -1.0);
        assert_eq!(sensor.read(), before);
    }

    #[test]
    fn energy_sensor_accumulates_positive_energy() {
        let mut sensor = EnergySensor::default();
        sensor.accumulate(1.5);
        sensor.accumulate(2.5);
        sensor.accumulate(-3.0); // ignored
        assert!((sensor.read() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_droops_under_load() {
        let mut sensor = VoltageSensor::new(0.8);
        assert_eq!(sensor.read(), 0.8);
        sensor.set_load_power(4.0); // 5 A at 0.8 V
        assert!(sensor.read() < 0.8);
        sensor.set_load_power(0.0);
        assert_eq!(sensor.read(), 0.8);
    }

    #[test]
    fn sensor_bank_advances_all_sensors() {
        let mut bank = SensorBank::new(0.8);
        bank.advance(1.0, 0.01, 0.01);
        assert!(bank.energy.read() > 0.0);
        assert!(bank.temperature.read() >= 45.0);
        assert!(bank.voltage.read() < 0.8);
    }
}
