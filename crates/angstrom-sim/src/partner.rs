//! Partner cores: low-power helpers for runtime decision making.
//!
//! Self-aware optimisation is not free — resources must be devoted to the
//! runtime decision engine. Each Angstrom main core therefore has a tightly
//! coupled *partner core* that can inspect and manipulate the main core's
//! state (performance counters, configuration registers, event queues) while
//! consuming only about 10 % of the area and 10 % of the power of the main
//! core (DAC 2012 §4.3, citing Lau et al., HotPar 2011). Running the SEEC
//! decision code on the partner core keeps the main core free for
//! application work.

use serde::{Deserialize, Serialize};

use crate::dvfs::{CoreEnergyModel, OperatingPoint};

/// Where runtime decision code executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DecisionPlacement {
    /// Decision code runs on the partner core; the main core keeps executing
    /// application work (no application slowdown, partner energy only).
    #[default]
    PartnerCore,
    /// Decision code steals cycles from the main core.
    MainCore,
}

/// Model of one partner core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartnerCore {
    /// Area relative to the main core (the paper estimates ~0.1).
    pub area_fraction: f64,
    /// Power relative to the main core at the same operating point (~0.1).
    pub power_fraction: f64,
    /// Clock of the partner core relative to the main core (simplified
    /// pipeline, lower frequency).
    pub frequency_fraction: f64,
    /// Cycles per instruction of the simplified partner pipeline relative to
    /// the main pipeline (fewer functional units, smaller caches).
    pub cpi_factor: f64,
}

impl Default for PartnerCore {
    fn default() -> Self {
        PartnerCore {
            area_fraction: 0.10,
            power_fraction: 0.10,
            frequency_fraction: 0.5,
            cpi_factor: 1.6,
        }
    }
}

impl PartnerCore {
    /// Wall-clock time to execute `instructions` of decision code when the
    /// main core runs at `point`, in seconds.
    pub fn decision_time(&self, instructions: f64, point: OperatingPoint) -> f64 {
        let frequency = point.frequency * self.frequency_fraction;
        if frequency <= 0.0 {
            return 0.0;
        }
        instructions * self.cpi_factor / frequency
    }

    /// Energy to execute `instructions` of decision code, in joules.
    fn decision_energy(
        &self,
        instructions: f64,
        point: OperatingPoint,
        main_core_model: &CoreEnergyModel,
    ) -> f64 {
        let main_power = main_core_model.active_power(point);
        let partner_power = main_power * self.power_fraction;
        partner_power * self.decision_time(instructions, point)
    }

    /// Idle (leakage) power of the partner core while it waits for work, in watts.
    pub fn idle_power(&self, point: OperatingPoint, main_core_model: &CoreEnergyModel) -> f64 {
        main_core_model.leakage_power(point) * self.power_fraction
    }

    /// Overhead of one decision on the *application*, in seconds of lost main
    /// core time, for a given placement. On the partner core the application
    /// loses nothing; on the main core it loses the time the decision takes
    /// to execute there.
    pub fn application_overhead(
        &self,
        instructions: f64,
        point: OperatingPoint,
        placement: DecisionPlacement,
    ) -> f64 {
        match placement {
            DecisionPlacement::PartnerCore => 0.0,
            DecisionPlacement::MainCore => {
                if point.frequency <= 0.0 {
                    0.0
                } else {
                    instructions / point.frequency
                }
            }
        }
    }

    /// Energy of one decision for a given placement, in joules.
    pub fn decision_energy_for_placement(
        &self,
        instructions: f64,
        point: OperatingPoint,
        main_core_model: &CoreEnergyModel,
        placement: DecisionPlacement,
    ) -> f64 {
        match placement {
            DecisionPlacement::PartnerCore => {
                self.decision_energy(instructions, point, main_core_model)
            }
            DecisionPlacement::MainCore => {
                let time = instructions / point.frequency.max(1.0);
                main_core_model.active_power(point) * time
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partner_core_is_about_ten_percent_of_main_core() {
        let partner = PartnerCore::default();
        assert!((partner.area_fraction - 0.10).abs() < 1e-12);
        assert!((partner.power_fraction - 0.10).abs() < 1e-12);
    }

    #[test]
    fn partner_decision_energy_is_cheaper_than_main_core() {
        let partner = PartnerCore::default();
        let model = CoreEnergyModel::default();
        let point = OperatingPoint::nominal();
        let instructions = 1.0e6;
        let on_partner = partner.decision_energy_for_placement(
            instructions,
            point,
            &model,
            DecisionPlacement::PartnerCore,
        );
        let on_main = partner.decision_energy_for_placement(
            instructions,
            point,
            &model,
            DecisionPlacement::MainCore,
        );
        assert!(
            on_partner < on_main,
            "partner core must be the efficient place to decide"
        );
    }

    #[test]
    fn partner_decisions_do_not_slow_the_application() {
        let partner = PartnerCore::default();
        let point = OperatingPoint::nominal();
        assert_eq!(
            partner.application_overhead(1.0e6, point, DecisionPlacement::PartnerCore),
            0.0
        );
        assert!(partner.application_overhead(1.0e6, point, DecisionPlacement::MainCore) > 0.0);
    }

    #[test]
    fn partner_decisions_take_longer_than_main_core_would() {
        let partner = PartnerCore::default();
        let point = OperatingPoint::nominal();
        let partner_time = partner.decision_time(1.0e6, point);
        let main_time = 1.0e6 / point.frequency;
        assert!(
            partner_time > main_time,
            "partner core targets a lower performance point"
        );
    }

    #[test]
    fn idle_power_tracks_leakage() {
        let partner = PartnerCore::default();
        let model = CoreEnergyModel::default();
        let idle = partner.idle_power(OperatingPoint::nominal(), &model);
        assert!(idle > 0.0);
        assert!(idle < model.leakage_power(OperatingPoint::nominal()));
    }
}
