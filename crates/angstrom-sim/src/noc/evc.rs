//! Express virtual channels (EVC).
//!
//! EVC lets flits attempt to bypass buffering and arbitration within a
//! router, proceeding straight to switch and link traversal (DAC 2012
//! §4.2.2, citing Chen et al., NOCS 2010). This reduces both latency and the
//! energy spent buffering flits. Angstrom augments classic EVC with a
//! software interface to the routing tables that the EVC logic uses to
//! manage virtual channels; [`ExpressVirtualChannels::set_express_route`]
//! models that interface.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// Model of a router's express-virtual-channel logic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpressVirtualChannels {
    /// Probability that a flit wins the bypass on a hop with no express
    /// route configured.
    pub baseline_bypass_probability: f64,
    /// Probability that a flit wins the bypass on a hop covered by a
    /// software-configured express route.
    pub express_bypass_probability: f64,
    /// Fraction of router energy spent on buffering/arbitration that the
    /// bypass avoids.
    pub buffering_energy_fraction: f64,
    /// Cycles spent in a router when the bypass succeeds.
    pub bypass_cycles: f64,
    express_routes: BTreeSet<(usize, usize)>,
}

impl Default for ExpressVirtualChannels {
    fn default() -> Self {
        ExpressVirtualChannels {
            baseline_bypass_probability: 0.3,
            express_bypass_probability: 0.85,
            buffering_energy_fraction: 0.4,
            bypass_cycles: 1.0,
            express_routes: BTreeSet::new(),
        }
    }
}

impl ExpressVirtualChannels {
    /// Declares (or removes) an express route between a source/destination
    /// tile pair — the software interface to the EVC routing tables.
    pub fn set_express_route(&mut self, src: usize, dst: usize, enabled: bool) {
        if enabled {
            self.express_routes.insert((src, dst));
        } else {
            self.express_routes.remove(&(src, dst));
        }
    }

    /// Effective bypass probability for the network as a whole: baseline if
    /// no routes are configured, express probability once software has set
    /// routes up (modelling that software targets the dominant flows).
    fn effective_bypass_probability(&self) -> f64 {
        if self.express_routes.is_empty() {
            self.baseline_bypass_probability
        } else {
            self.express_bypass_probability
        }
    }

    /// Expected per-hop latency in cycles given the full router pipeline
    /// costs `router_cycles` and the link costs `link_cycles`.
    pub fn effective_hop_cycles(&self, router_cycles: f64, link_cycles: f64) -> f64 {
        let p = self.effective_bypass_probability();
        let router = p * self.bypass_cycles + (1.0 - p) * router_cycles;
        router + link_cycles
    }

    /// Fraction of full-router energy a flit pays per hop on average.
    pub fn energy_fraction(&self) -> f64 {
        let p = self.effective_bypass_probability();
        1.0 - p * self.buffering_energy_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypass_reduces_hop_latency() {
        let evc = ExpressVirtualChannels::default();
        let with = evc.effective_hop_cycles(3.0, 1.0);
        assert!(with < 4.0);
        assert!(with > 1.0 + evc.bypass_cycles - 1e-9);
    }

    #[test]
    fn software_routes_raise_bypass_probability() {
        let mut evc = ExpressVirtualChannels::default();
        let before = evc.effective_bypass_probability();
        evc.set_express_route(0, 12, true);
        assert!(evc.effective_bypass_probability() > before);
        let hop_before = ExpressVirtualChannels::default().effective_hop_cycles(3.0, 1.0);
        assert!(evc.effective_hop_cycles(3.0, 1.0) < hop_before);
        evc.set_express_route(0, 12, false);
        assert_eq!(evc.effective_bypass_probability(), before);
    }

    #[test]
    fn energy_fraction_is_below_one_and_positive() {
        let mut evc = ExpressVirtualChannels::default();
        let baseline = evc.energy_fraction();
        assert!(baseline < 1.0 && baseline > 0.0);
        evc.set_express_route(1, 2, true);
        assert!(evc.energy_fraction() < baseline);
    }
}
