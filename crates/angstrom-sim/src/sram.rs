//! Voltage-scalable SRAM model for Angstrom's on-chip caches.
//!
//! Conventional 6T SRAM cells become unstable below roughly 0.7 V; Angstrom
//! caches therefore use alternative bit-cell topologies and peripheral assist
//! circuits (DAC 2012 §4.2.1, citing Calhoun & Chandrakasan ISSCC 2006,
//! Chang et al. VLSI 2005, Kim et al. ISSCC 2007, Sinangil et al. ISSCC
//! 2011) to keep operating down to near- and sub-threshold voltages. This
//! module models the access energy and leakage of the sub-threshold-assisted
//! arrays behind every Angstrom cache, so the cache and energy models can
//! account for low-voltage operation. Per-topology stability limits are not
//! modelled: those arrays stay stable down to ~0.35 V, below the chip's
//! lowest operating point (0.4 V).

use serde::{Deserialize, Serialize};

/// Analytical SRAM array model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct SramModel {
    /// Energy per 64-byte access at 0.8 V, in joules.
    pub access_energy_at_nominal: f64,
    /// Leakage power per kilobyte at 0.8 V, in watts.
    pub leakage_per_kb_at_nominal: f64,
}

/// The default model — the arrays behind every Angstrom cache.
pub(crate) const DEFAULT_SRAM: SramModel = SramModel {
    // ~20 pJ per 64-byte line access at nominal voltage.
    access_energy_at_nominal: 20.0e-12,
    // ~0.15 mW of leakage per KB at nominal voltage: large enabled
    // arrays cost real power, which is what makes way/set disabling
    // (DAC 2012 §4.2.1) worth exposing to the runtime.
    leakage_per_kb_at_nominal: 1.5e-4,
};

impl SramModel {
    /// Energy of one 64-byte access at `voltage`, in joules.
    ///
    /// Dynamic access energy scales as V².
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
    fn access_energy_scales_quadratically_with_voltage() {
        let half = DEFAULT_SRAM.access_energy(0.4);
        let full = DEFAULT_SRAM.access_energy(0.8);
        assert!((full / half - 4.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_scales_with_capacity_and_voltage() {
        let model = DEFAULT_SRAM;
        assert!(model.leakage_power(256.0, 0.8) > model.leakage_power(64.0, 0.8));
        assert!(model.leakage_power(64.0, 0.4) < model.leakage_power(64.0, 0.8));
    }
}
