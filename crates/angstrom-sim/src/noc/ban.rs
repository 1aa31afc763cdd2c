//! Bandwidth-adaptive networks (BAN).
//!
//! A BAN rapidly adjusts bisection bandwidth to changing network conditions
//! by using bidirectional links: arbitration logic and tristate buffers
//! prevent simultaneous writes to the same wire, and a hardware bandwidth
//! allocator governs each link's direction (DAC 2012 §4.2.2, citing Cho et
//! al., PACT 2009). Angstrom exposes the allocator's configuration to
//! software while keeping fine-grained allocation in hardware.

use serde::{Deserialize, Serialize};

/// Hardware bandwidth allocator with software-visible configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthAllocator {
    /// Fraction of each link pair that can be steered toward the busier
    /// direction (0.0 = conventional unidirectional links, 1.0 = the whole
    /// pair can point one way).
    pub steerable_fraction: f64,
    /// Reallocation period in cycles (how quickly the allocator reacts).
    pub reallocation_period_cycles: u32,
    /// Hysteresis threshold: the demand asymmetry required before links are
    /// re-steered, as a fraction in `[0, 1]`.
    pub hysteresis: f64,
}

impl Default for BandwidthAllocator {
    fn default() -> Self {
        BandwidthAllocator {
            steerable_fraction: 1.0,
            reallocation_period_cycles: 64,
            hysteresis: 0.05,
        }
    }
}

impl BandwidthAllocator {
    /// Reconfigures the allocator (the software interface of §4.2.2).
    ///
    /// # Errors
    ///
    /// Returns a message if a parameter is outside its valid range.
    pub fn configure(
        &mut self,
        steerable_fraction: f64,
        reallocation_period_cycles: u32,
        hysteresis: f64,
    ) -> Result<(), String> {
        if !(0.0..=1.0).contains(&steerable_fraction) {
            return Err(format!(
                "steerable fraction must be within [0, 1], got {steerable_fraction}"
            ));
        }
        if !(0.0..=1.0).contains(&hysteresis) {
            return Err(format!(
                "hysteresis must be within [0, 1], got {hysteresis}"
            ));
        }
        if reallocation_period_cycles == 0 {
            return Err("reallocation period must be at least one cycle".to_string());
        }
        self.steerable_fraction = steerable_fraction;
        self.reallocation_period_cycles = reallocation_period_cycles;
        self.hysteresis = hysteresis;
        Ok(())
    }

    /// Effective bandwidth gain in the busier direction given the traffic
    /// `asymmetry` (0.0 = perfectly balanced, 1.0 = all traffic one way).
    ///
    /// With balanced traffic the gain is 1.0; with fully asymmetric traffic
    /// and fully steerable links the busy direction can use both wires of
    /// each pair, a gain approaching 2.0.
    pub fn effective_bandwidth_gain(&self, asymmetry: f64) -> f64 {
        let asymmetry = asymmetry.clamp(0.0, 1.0);
        if asymmetry <= self.hysteresis {
            return 1.0;
        }
        1.0 + self.steerable_fraction * (asymmetry - self.hysteresis)
            / (1.0 - self.hysteresis).max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_traffic_gets_no_gain() {
        let ban = BandwidthAllocator::default();
        assert_eq!(ban.effective_bandwidth_gain(0.0), 1.0);
        assert_eq!(ban.effective_bandwidth_gain(0.04), 1.0, "within hysteresis");
    }

    #[test]
    fn asymmetric_traffic_gains_up_to_double() {
        let ban = BandwidthAllocator::default();
        let g_half = ban.effective_bandwidth_gain(0.5);
        let g_full = ban.effective_bandwidth_gain(1.0);
        assert!(g_half > 1.0 && g_half < g_full);
        assert!((g_full - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gain_is_monotone_in_asymmetry() {
        let ban = BandwidthAllocator::default();
        let mut last = 0.0;
        for i in 0..=10 {
            let g = ban.effective_bandwidth_gain(i as f64 / 10.0);
            assert!(g >= last);
            last = g;
        }
    }

    #[test]
    fn configure_validates_parameters() {
        let mut ban = BandwidthAllocator::default();
        assert!(ban.configure(0.5, 32, 0.1).is_ok());
        assert_eq!(ban.steerable_fraction, 0.5);
        assert!(ban.configure(1.5, 32, 0.1).is_err());
        assert!(ban.configure(0.5, 0, 0.1).is_err());
        assert!(ban.configure(0.5, 32, 2.0).is_err());
    }

    #[test]
    fn partially_steerable_links_cap_the_gain() {
        let mut ban = BandwidthAllocator::default();
        ban.configure(0.25, 64, 0.0).unwrap();
        assert!((ban.effective_bandwidth_gain(1.0) - 1.25).abs() < 1e-9);
    }
}
