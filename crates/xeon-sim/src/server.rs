//! The analytical Xeon server performance and power model.

use serde::{Deserialize, Serialize};

use crate::demand::ServerDemand;
use crate::pstate::PStateTable;

/// The three knobs SEEC manipulates on the existing system (DAC 2012 §5.2):
/// cores assigned to the application, the clock speed of those cores, and the
/// fraction of non-idle cycles the application receives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfiguration {
    /// Number of cores assigned to the application.
    pub cores: usize,
    /// Index into the P-state table (0 = fastest).
    pub pstate_index: usize,
    /// Fraction of cycles the application is allowed to be non-idle, in
    /// `(0, 1]` (1.0 = no forced idling).
    pub active_cycle_fraction: f64,
}

impl ServerConfiguration {
    /// Creates a configuration.
    pub fn new(cores: usize, pstate_index: usize, active_cycle_fraction: f64) -> Self {
        ServerConfiguration {
            cores,
            pstate_index,
            active_cycle_fraction,
        }
    }

    /// Checks the configuration against a particular server.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, server: &XeonServer) -> Result<(), String> {
        if self.cores == 0 || self.cores > server.total_cores() {
            return Err(format!(
                "core assignment {} outside 1..={}",
                self.cores,
                server.total_cores()
            ));
        }
        if self.pstate_index >= server.pstates().len() {
            return Err(format!(
                "P-state {} out of range (0..{})",
                self.pstate_index,
                server.pstates().len()
            ));
        }
        if !(self.active_cycle_fraction > 0.0 && self.active_cycle_fraction <= 1.0) {
            return Err(format!(
                "active cycle fraction {} outside (0, 1]",
                self.active_cycle_fraction
            ));
        }
        Ok(())
    }
}

/// Outcome of executing a demand quantum on the server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerReport {
    /// Wall-clock duration of the quantum, in seconds.
    pub seconds: f64,
    /// Instructions retired.
    pub instructions: f64,
    /// Application work units completed.
    pub work_units: f64,
    /// Achieved throughput, in instructions per second.
    pub instructions_per_second: f64,
    /// Average total server power (including idle), in watts.
    pub total_power_watts: f64,
    /// Average power beyond idle attributable to the application, in watts.
    pub power_above_idle_watts: f64,
    /// Total energy over the quantum, in joules.
    pub energy_joules: f64,
}

/// Analytical model of the dual-socket Xeon E5530 server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XeonServer {
    pub(crate) pstates: PStateTable,
    pub(crate) total_cores: usize,
    pub(crate) idle_power: f64,
    pub(crate) max_power: f64,
    /// Exponent relating frequency to per-core dynamic power (voltage tracks
    /// frequency on this part, so power grows super-linearly with clock).
    pub(crate) frequency_power_exponent: f64,
    /// Exponent relating total utilisation (active cores × duty / all cores)
    /// to power above idle. `1.0` is the historical linear model; values
    /// above `1.0` make flat-out operation disproportionately expensive, as
    /// measured on real hardware (shared-resource contention, VR and fan
    /// losses grow with load). See [`XeonServer::dell_r410_calibrated`].
    pub(crate) utilization_power_exponent: f64,
    /// DRAM access latency in seconds.
    pub(crate) dram_latency: f64,
}

impl XeonServer {
    /// The Dell PowerEdge R410 used in the paper: 8 cores, seven P-states,
    /// ~90 W idle and ~220 W at full load. Power above idle is linear in
    /// utilisation (the model this reproduction has always used; kept as the
    /// default so existing figures are bit-for-bit reproducible).
    pub fn dell_r410() -> Self {
        XeonServer {
            pstates: PStateTable::xeon_e5530(),
            total_cores: 8,
            idle_power: 90.0,
            max_power: 220.0,
            frequency_power_exponent: 2.2,
            utilization_power_exponent: 1.0,
            dram_latency: 60.0e-9,
        }
    }

    /// The R410 with the recalibrated convex power curve.
    ///
    /// The linear-above-idle model makes the no-adaptation baseline tie the
    /// oracles on perf/W-above-idle (running flat out costs exactly
    /// proportionally more); real measurements show power above idle grows
    /// super-linearly with utilisation, penalising flat-out runs. The
    /// exponent 1.15 keeps the 220 W full-load envelope (the convexity
    /// factor is exactly 1.0 at 100 % utilisation) while making
    /// half-utilised operation ~10 % cheaper than the linear model predicts
    /// — the order of the efficiency hump measured on Nehalem-class
    /// servers. Experiments gate on this constructor explicitly; see
    /// EXPERIMENTS.md for the recalibrated Figure-3 gap.
    pub fn dell_r410_calibrated() -> Self {
        XeonServer::dell_r410().with_utilization_power_exponent(1.15)
    }

    /// Returns the server with an explicit utilisation-power exponent
    /// (1.0 = the linear historical model), for what-if studies.
    ///
    /// # Panics
    ///
    /// Panics unless the exponent is finite and at least 1.0 (sub-linear
    /// exponents would let partial utilisation cost more than full load).
    pub fn with_utilization_power_exponent(mut self, exponent: f64) -> Self {
        assert!(
            exponent.is_finite() && exponent >= 1.0,
            "utilisation power exponent must be finite and >= 1.0, got {exponent}"
        );
        self.utilization_power_exponent = exponent;
        self
    }

    /// Exponent relating utilisation to power above idle (1.0 = linear).
    pub fn utilization_power_exponent(&self) -> f64 {
        self.utilization_power_exponent
    }

    /// The P-state table of the server.
    pub fn pstates(&self) -> &PStateTable {
        &self.pstates
    }

    /// Total cores across both sockets.
    pub fn total_cores(&self) -> usize {
        self.total_cores
    }

    /// Idle power of the whole server, in watts.
    pub fn idle_power_watts(&self) -> f64 {
        self.idle_power
    }

    /// Nameplate full-load power, in watts.
    pub fn max_power_watts(&self) -> f64 {
        self.max_power
    }

    /// The default configuration: every core at the fastest clock, no forced
    /// idling.
    pub fn default_configuration(&self) -> ServerConfiguration {
        ServerConfiguration::new(self.total_cores, 0, 1.0)
    }

    /// Evaluates `demand` under `configuration` (clamped into range), without
    /// mutating any state.
    pub fn evaluate(
        &self,
        demand: &ServerDemand,
        configuration: &ServerConfiguration,
    ) -> ServerReport {
        let cores = configuration.cores.clamp(1, self.total_cores);
        let pstate = configuration.pstate_index.min(self.pstates.len() - 1);
        let duty = configuration.active_cycle_fraction.clamp(0.05, 1.0);
        let frequency = self.pstates.frequency(pstate).expect("index clamped");

        // Cycles per instruction: base plus DRAM stalls (latency is constant
        // in nanoseconds, so the cycle cost scales with frequency).
        let miss_penalty_cycles = self.dram_latency * frequency;
        let cpi = demand.base_cpi
            + demand.memory_ops_per_instruction * demand.llc_miss_rate * miss_penalty_cycles;

        // Amdahl split with load imbalance; forced idling stretches time.
        let serial = (1.0 - demand.parallel_fraction) * demand.instructions;
        let parallel = demand.parallel_fraction * demand.instructions;
        let effective_frequency = frequency * duty;
        let seconds = (serial * cpi / effective_frequency
            + parallel * cpi * demand.load_imbalance / (effective_frequency * cores as f64))
            .max(1e-9);

        // Power beyond idle: each active core contributes in proportion to
        // its duty cycle and a super-linear function of its clock. The
        // convexity factor is exactly 1.0 under the linear default, keeping
        // the historical model's results bit-for-bit.
        let per_core_max = (self.max_power - self.idle_power) / self.total_cores as f64;
        let frequency_ratio = frequency / self.pstates.max_frequency();
        let per_core = per_core_max * frequency_ratio.powf(self.frequency_power_exponent) * duty;
        let power_above_idle = per_core * cores as f64 * self.utilization_convexity(cores, duty);
        let total_power = self.idle_power + power_above_idle;
        let energy = total_power * seconds;

        ServerReport {
            seconds,
            instructions: demand.instructions,
            work_units: demand.work_units,
            instructions_per_second: demand.instructions / seconds,
            total_power_watts: total_power,
            power_above_idle_watts: power_above_idle,
            energy_joules: energy,
        }
    }

    /// The multiplicative convexity correction on power above idle for a
    /// given core count and duty cycle: `utilisation^(exponent - 1)`.
    /// Exactly 1.0 under the linear default exponent.
    pub(crate) fn utilization_convexity(&self, cores: usize, duty: f64) -> f64 {
        if self.utilization_power_exponent == 1.0 {
            1.0
        } else {
            let utilization = (cores as f64 * duty) / self.total_cores as f64;
            utilization.powf(self.utilization_power_exponent - 1.0)
        }
    }
}

impl Default for XeonServer {
    fn default() -> Self {
        XeonServer::dell_r410()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> ServerDemand {
        ServerDemand::builder()
            .instructions(5.0e9)
            .parallel_fraction(0.95)
            .memory_ops_per_instruction(0.3)
            .llc_miss_rate(0.02)
            .build()
    }

    #[test]
    fn r410_matches_published_envelope() {
        let server = XeonServer::dell_r410();
        assert_eq!(server.total_cores(), 8);
        assert_eq!(server.pstates().len(), 7);
        assert_eq!(server.idle_power_watts(), 90.0);
        let report = server.evaluate(&demand(), &server.default_configuration());
        assert!(report.total_power_watts <= server.max_power_watts() + 1e-9);
        assert!(
            report.total_power_watts > 200.0,
            "full load approaches 220 W"
        );
    }

    #[test]
    fn more_cores_and_higher_clock_run_faster() {
        let server = XeonServer::dell_r410();
        let d = demand();
        let slow = server.evaluate(&d, &ServerConfiguration::new(1, 6, 1.0));
        let fast = server.evaluate(&d, &ServerConfiguration::new(8, 0, 1.0));
        assert!(fast.seconds < slow.seconds);
        assert!(fast.instructions_per_second > slow.instructions_per_second);
        assert!(fast.power_above_idle_watts > slow.power_above_idle_watts);
    }

    #[test]
    fn forced_idling_trades_performance_for_power() {
        let server = XeonServer::dell_r410();
        let d = demand();
        let full = server.evaluate(&d, &ServerConfiguration::new(4, 0, 1.0));
        let half = server.evaluate(&d, &ServerConfiguration::new(4, 0, 0.5));
        assert!(half.seconds > full.seconds);
        assert!(half.power_above_idle_watts < full.power_above_idle_watts);
    }

    #[test]
    fn lower_clock_is_more_efficient_per_instruction() {
        let server = XeonServer::dell_r410();
        let d = demand();
        let fast = server.evaluate(&d, &ServerConfiguration::new(4, 0, 1.0));
        let slow = server.evaluate(&d, &ServerConfiguration::new(4, 6, 1.0));
        // Energy above idle per instruction falls at the lower clock.
        let fast_energy_above_idle = fast.power_above_idle_watts * fast.seconds;
        let slow_energy_above_idle = slow.power_above_idle_watts * slow.seconds;
        assert!(slow_energy_above_idle < fast_energy_above_idle);
    }

    #[test]
    fn energy_identity_holds() {
        let server = XeonServer::dell_r410();
        let report = server.evaluate(&demand(), &ServerConfiguration::new(6, 2, 0.8));
        assert!((report.energy_joules - report.total_power_watts * report.seconds).abs() < 1e-6);
    }

    #[test]
    fn validation_rejects_bad_configurations() {
        let server = XeonServer::dell_r410();
        assert!(ServerConfiguration::new(0, 0, 1.0)
            .validate(&server)
            .is_err());
        assert!(ServerConfiguration::new(9, 0, 1.0)
            .validate(&server)
            .is_err());
        assert!(ServerConfiguration::new(4, 9, 1.0)
            .validate(&server)
            .is_err());
        assert!(ServerConfiguration::new(4, 0, 0.0)
            .validate(&server)
            .is_err());
        assert!(ServerConfiguration::new(4, 0, 1.5)
            .validate(&server)
            .is_err());
        assert!(ServerConfiguration::new(4, 0, 1.0)
            .validate(&server)
            .is_ok());
        assert!(server.default_configuration().validate(&server).is_ok());
    }

    #[test]
    fn out_of_range_configurations_are_clamped() {
        let server = XeonServer::dell_r410();
        let report = server.evaluate(&demand(), &ServerConfiguration::new(100, 99, 7.0));
        assert!(report.seconds.is_finite() && report.seconds > 0.0);
        assert!(report.total_power_watts <= server.max_power_watts() + 1e-9);
    }
}
