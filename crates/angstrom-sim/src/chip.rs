//! The Angstrom chip model: ties tiles, network, coherence, and energy
//! together and executes application demand under a chosen configuration.

use serde::{Deserialize, Serialize};

use crate::cache::ReconfigurableCache;
use crate::coherence::{CoherenceInputs, CoherenceModel, CoherenceProtocol};
use crate::config::ChipConfig;
use crate::dvfs::OperatingPoint;
use crate::energy::EnergyBreakdown;
use crate::noc::{MeshTopology, NocFeatures, NocModel, TrafficMatrix};
use crate::partner::{DecisionPlacement, PartnerCore};
use crate::tile::{Tile, TileActivity};
use crate::workload::WorkloadDemand;

/// The runtime choice among the adaptations the chip exposes: the object the
/// SEEC runtime (or an oracle) manipulates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfiguration {
    /// Number of cores allocated to the application.
    pub cores: usize,
    /// Enabled private cache capacity per allocated core, in kilobytes.
    pub cache_per_core_kb: f64,
    /// Index into [`ChipConfig::operating_points`].
    pub operating_point_index: usize,
    /// Coherence protocol in force for the application.
    pub coherence: CoherenceProtocol,
    /// Override of the chip's network features (None = use fabricated features).
    pub noc_features: Option<NocFeatures>,
    /// Where runtime decision code executes.
    pub decision_placement: DecisionPlacement,
}

impl ChipConfiguration {
    /// The "everything on" configuration: all cores, full cache, fastest
    /// operating point, the chip's fabricated coherence choice.
    pub fn default_for(config: &ChipConfig) -> Self {
        ChipConfiguration {
            cores: *config
                .core_allocation_options
                .last()
                .expect("validated config"),
            cache_per_core_kb: *config
                .cache_capacity_options_kb
                .last()
                .expect("validated config"),
            operating_point_index: config.operating_points.len() - 1,
            coherence: config.coherence,
            noc_features: None,
            decision_placement: config.decision_placement,
        }
    }
}

/// What happened when a quantum of demand executed under a configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Wall-clock (simulated) duration of the quantum, in seconds.
    pub seconds: f64,
    /// Total busy core cycles across allocated cores.
    pub cycles: f64,
    /// Instructions retired.
    pub instructions: f64,
    /// Application work units completed.
    pub work_units: f64,
    /// Total energy, in joules.
    pub energy_joules: f64,
    /// Component-wise energy breakdown.
    pub breakdown: EnergyBreakdown,
    /// Average chip power over the quantum, in watts.
    pub average_power_watts: f64,
    /// Achieved instruction throughput, in instructions per second.
    pub instructions_per_second: f64,
    /// Fraction of memory operations served off chip.
    pub offchip_rate: f64,
    /// Total network flits moved.
    pub network_flits: f64,
    /// The concrete coherence protocol that served the quantum.
    pub coherence_protocol: CoherenceProtocol,
}

impl ExecutionReport {
    /// Performance per watt: instruction throughput divided by average power
    /// (equivalently, instructions per joule).
    pub fn performance_per_watt(&self) -> f64 {
        if self.energy_joules > 0.0 {
            self.instructions / self.energy_joules
        } else {
            0.0
        }
    }
}

/// Cost of running one SEEC decision, as reported by the chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionCost {
    /// Main-core time stolen from the application, in seconds.
    pub application_seconds: f64,
    /// Wall-clock latency until the decision is available, in seconds.
    pub latency_seconds: f64,
    /// Energy consumed by the decision, in joules.
    pub energy_joules: f64,
}

/// The Angstrom chip simulator.
#[derive(Debug, Clone)]
pub struct AngstromChip {
    config: ChipConfig,
    tiles: Vec<Tile>,
    noc: NocModel,
    coherence_model: CoherenceModel,
    now: f64,
}

impl AngstromChip {
    /// Builds a chip from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ChipConfig::validate`].
    pub fn new(config: ChipConfig) -> Self {
        if let Err(message) = config.validate() {
            panic!("chip configuration must be valid: {message:?}");
        }
        let tiles = (0..config.tiles).map(|id| Tile::new(id, &config)).collect();
        let noc = NocModel::new(config.topology, config.noc_features);
        AngstromChip {
            config,
            tiles,
            noc,
            coherence_model: CoherenceModel::default(),
            now: 0.0,
        }
    }

    /// The fabricated chip description.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The tiles of the chip.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Current simulation time, in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total energy recorded by the per-tile energy sensors so far, in joules.
    pub fn total_sensed_energy(&self) -> f64 {
        self.tiles.iter().map(|t| t.sensors.energy.read()).sum()
    }

    /// Evaluates `demand` under `configuration` without mutating any chip
    /// state. This is the pure analytical model; [`AngstromChip::execute`]
    /// additionally advances time, counters, and sensors.
    pub fn evaluate(
        &self,
        demand: &WorkloadDemand,
        configuration: &ChipConfiguration,
    ) -> ExecutionReport {
        // ARCc-style adaptive coherence: evaluate both concrete protocols for
        // this application and keep the faster one (DAC 2012 §4.2.2).
        if configuration.coherence == CoherenceProtocol::Adaptive {
            let mut directory_cfg = configuration.clone();
            directory_cfg.coherence = CoherenceProtocol::Directory;
            let mut nuca_cfg = configuration.clone();
            nuca_cfg.coherence = CoherenceProtocol::SharedNuca;
            let directory = self.evaluate(demand, &directory_cfg);
            let nuca = self.evaluate(demand, &nuca_cfg);
            return if directory.seconds <= nuca.seconds {
                directory
            } else {
                nuca
            };
        }
        let cfg = self.clamped(configuration);
        let point = self.config.operating_points[cfg.operating_point_index];
        let features = cfg.noc_features.unwrap_or(self.config.noc_features);
        let mut noc = self.noc.clone();
        noc.features = features;

        let cores = cfg.cores;
        let region = MeshTopology::for_tiles(cores);
        // The traffic model is statistical; a representative sub-mesh keeps
        // the routing analysis cheap for very large allocations without
        // changing the average-hop or asymmetry figures it feeds.
        let traffic = TrafficMatrix::uniform(region.routers().clamp(2, 64));
        if features.aor {
            noc.install_routing_table(crate::noc::RoutingTable::application_aware(
                noc.topology,
                &traffic,
            ));
        }

        // Off-chip latency is constant in nanoseconds; express it in cycles
        // at the selected frequency (it was specified at the fastest point).
        let fastest = self
            .config
            .operating_points
            .iter()
            .map(|p| p.frequency)
            .fold(0.0_f64, f64::max);
        let offchip_cycles = self.config.offchip_latency_cycles * point.frequency / fastest;

        let hop_cycles = if features.evc {
            noc.evc
                .effective_hop_cycles(noc.router_cycles, noc.link_cycles)
        } else {
            noc.router_cycles + noc.link_cycles
        };

        // Two passes: first without network contention, then with the
        // contention implied by the first pass's injection rate.
        let mut contention = 1.0;
        let mut result = self.single_pass(
            demand,
            &cfg,
            point,
            &noc,
            &traffic,
            region,
            offchip_cycles,
            hop_cycles,
            contention,
        );
        let flits_per_cycle = if result.seconds > 0.0 {
            result.network_flits / (result.seconds * point.frequency)
        } else {
            0.0
        };
        contention = noc.contention_factor(flits_per_cycle, &traffic);
        if contention > 1.001 {
            result = self.single_pass(
                demand,
                &cfg,
                point,
                &noc,
                &traffic,
                region,
                offchip_cycles,
                hop_cycles,
                contention,
            );
        }
        result
    }

    /// Executes `demand` under `configuration`: evaluates the model, advances
    /// simulation time, and updates counters and sensors on the allocated
    /// tiles.
    pub fn execute(
        &mut self,
        demand: &WorkloadDemand,
        configuration: &ChipConfiguration,
    ) -> ExecutionReport {
        let report = self.evaluate(demand, configuration);
        let cfg = self.clamped(configuration);
        self.now += report.seconds;
        let cores = cfg.cores.max(1);
        let per_tile = TileActivity {
            instructions: report.instructions / cores as f64,
            cycles: report.cycles / cores as f64,
            memory_ops: report.instructions * demand.memory_ops_per_instruction / cores as f64,
            cache_misses: report.instructions
                * demand.memory_ops_per_instruction
                * report.offchip_rate
                / cores as f64,
            stall_cycles: (report.cycles * 0.3) / cores as f64,
            flits_sent: report.network_flits / cores as f64,
            flits_received: report.network_flits / cores as f64,
            energy_joules: report.energy_joules / cores as f64,
            power_watts: report.average_power_watts / cores as f64,
            seconds: report.seconds,
        };
        for tile in self.tiles.iter_mut().take(cores) {
            tile.record_activity(&per_tile);
        }
        report
    }

    /// Cost of one SEEC decision of `decision_instructions` instructions
    /// under `configuration`.
    pub fn decision_cost(
        &self,
        decision_instructions: f64,
        configuration: &ChipConfiguration,
    ) -> DecisionCost {
        let cfg = self.clamped(configuration);
        let point = self.config.operating_points[cfg.operating_point_index];
        let partner = PartnerCore::default();
        let model = self.tiles[0].dvfs.energy_model();
        let application_seconds =
            partner.application_overhead(decision_instructions, point, cfg.decision_placement);
        let latency_seconds = match cfg.decision_placement {
            DecisionPlacement::PartnerCore => partner.decision_time(decision_instructions, point),
            DecisionPlacement::MainCore => application_seconds,
        };
        let energy_joules = partner.decision_energy_for_placement(
            decision_instructions,
            point,
            model,
            cfg.decision_placement,
        );
        DecisionCost {
            application_seconds,
            latency_seconds,
            energy_joules,
        }
    }

    fn clamped(&self, configuration: &ChipConfiguration) -> ChipConfiguration {
        let mut cfg = configuration.clone();
        cfg.cores = cfg.cores.clamp(1, self.config.tiles);
        cfg.cache_per_core_kb = cfg
            .cache_per_core_kb
            .clamp(1.0, self.config.cache_geometry.capacity_kb);
        cfg.operating_point_index = cfg
            .operating_point_index
            .min(self.config.operating_points.len() - 1);
        cfg
    }

    #[allow(clippy::too_many_arguments)]
    fn single_pass(
        &self,
        demand: &WorkloadDemand,
        cfg: &ChipConfiguration,
        point: OperatingPoint,
        noc: &NocModel,
        _traffic: &TrafficMatrix,
        region: MeshTopology,
        offchip_cycles: f64,
        hop_cycles: f64,
        contention: f64,
    ) -> ExecutionReport {
        let cores = cfg.cores.max(1);
        let coherence_inputs = CoherenceInputs {
            cores,
            cache_per_core_kb: cfg.cache_per_core_kb,
            working_set_kb: demand.working_set_bytes / 1024.0,
            locality_exponent: demand.locality_exponent,
            sharing_fraction: demand.sharing_fraction,
            average_hops: region.average_hops().max(1.0),
            hop_cycles: hop_cycles * contention,
            offchip_cycles,
        };
        let costs = self
            .coherence_model
            .evaluate(cfg.coherence, &coherence_inputs);

        // Cycles per instruction.
        let memory_penalty = demand.memory_ops_per_instruction * costs.avg_penalty_cycles;
        let comm_penalty = demand.communication_flits_per_instruction
            * coherence_inputs.average_hops
            * hop_cycles
            * contention
            * 0.5;
        let cpi = demand.base_cpi + memory_penalty + comm_penalty;

        // Amdahl split with load imbalance and a mild synchronisation cost.
        let serial_instructions = (1.0 - demand.parallel_fraction) * demand.instructions;
        let parallel_instructions = demand.parallel_fraction * demand.instructions;
        let sync_factor = 1.0 + 0.01 * (cores as f64).log2().max(0.0);
        let frequency = point.frequency;
        let serial_seconds = serial_instructions * cpi / frequency;
        let parallel_seconds = parallel_instructions * cpi * demand.load_imbalance * sync_factor
            / (frequency * cores as f64);
        let seconds = (serial_seconds + parallel_seconds).max(1e-12);

        let busy_cycles = demand.instructions * cpi;
        let memory_ops = demand.instructions * demand.memory_ops_per_instruction;
        let network_flits = memory_ops * costs.flits_per_memory_op
            + demand.instructions * demand.communication_flits_per_instruction;

        // Energy accounting.
        let energy_model = self.tiles[0].dvfs.energy_model();
        let core_dynamic = energy_model.dynamic_energy_per_cycle(point) * busy_cycles;
        let core_leakage = energy_model.leakage_power(point) * cores as f64 * seconds;

        let mut cache = ReconfigurableCache::new(self.config.cache_geometry);
        cache.configure_capacity(cfg.cache_per_core_kb);
        let cache_dynamic = cache.access_energy(memory_ops, point.voltage);
        let cache_leakage = cache.leakage_power(point.voltage) * cores as f64 * seconds;

        let network = network_flits * noc.flit_energy();

        let partner_model = PartnerCore::default();
        let partner = partner_model.idle_power(point, energy_model) * cores as f64 * seconds;

        let idle_tiles = (self.config.tiles - cores) as f64
            * (energy_model.leakage_power(point) + cache.leakage_power(point.voltage))
            * self.config.idle_tile_leakage_fraction
            * seconds;

        let breakdown = EnergyBreakdown {
            core_dynamic,
            core_leakage,
            cache_dynamic,
            cache_leakage,
            network,
            partner,
            idle_tiles,
        };
        let energy_joules = breakdown.total();

        ExecutionReport {
            seconds,
            cycles: busy_cycles,
            instructions: demand.instructions,
            work_units: demand.work_units,
            energy_joules,
            breakdown,
            average_power_watts: breakdown.average_power(seconds),
            instructions_per_second: demand.instructions / seconds,
            offchip_rate: costs.offchip_rate,
            network_flits,
            coherence_protocol: costs.protocol,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barnes_like() -> WorkloadDemand {
        WorkloadDemand::builder()
            .instructions(2.0e9)
            .parallel_fraction(0.998)
            .memory_ops_per_instruction(0.25)
            .working_set_bytes(8.0 * 1024.0 * 1024.0)
            .locality_exponent(0.7)
            .sharing_fraction(0.1)
            .build()
    }

    fn memory_bound() -> WorkloadDemand {
        WorkloadDemand::builder()
            .instructions(2.0e9)
            .parallel_fraction(0.9)
            .memory_ops_per_instruction(0.45)
            .working_set_bytes(64.0 * 1024.0 * 1024.0)
            .locality_exponent(0.25)
            .sharing_fraction(0.3)
            .build()
    }

    #[test]
    fn more_cores_speed_up_parallel_work() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let demand = barnes_like();
        let mut cfg = ChipConfiguration::default_for(chip.config());
        cfg.cores = 4;
        let few = chip.evaluate(&demand, &cfg);
        cfg.cores = 256;
        let many = chip.evaluate(&demand, &cfg);
        assert!(
            many.seconds < few.seconds / 10.0,
            "parallel workload must scale"
        );
        assert!(many.instructions_per_second > few.instructions_per_second);
    }

    #[test]
    fn memory_bound_workloads_scale_poorly() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let demand = memory_bound();
        let mut cfg = ChipConfiguration::default_for(chip.config());
        cfg.cores = 16;
        let few = chip.evaluate(&demand, &cfg);
        cfg.cores = 256;
        let many = chip.evaluate(&demand, &cfg);
        let speedup = few.seconds / many.seconds;
        assert!(
            speedup < 12.0,
            "memory-bound speedup should be limited, got {speedup}"
        );
    }

    #[test]
    fn lower_voltage_improves_energy_per_instruction() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let demand = barnes_like();
        let mut cfg = ChipConfiguration::default_for(chip.config());
        cfg.cores = 64;
        cfg.operating_point_index = 1; // 0.8 V / 500 MHz
        let fast = chip.evaluate(&demand, &cfg);
        cfg.operating_point_index = 0; // 0.4 V / 100 MHz
        let slow = chip.evaluate(&demand, &cfg);
        assert!(slow.seconds > fast.seconds, "lower frequency is slower");
        assert!(
            slow.performance_per_watt() > fast.performance_per_watt(),
            "low-voltage operation must be more energy efficient"
        );
    }

    #[test]
    fn larger_cache_helps_memory_bound_workloads() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let demand = memory_bound();
        let mut cfg = ChipConfiguration::default_for(chip.config());
        cfg.cores = 64;
        cfg.cache_per_core_kb = 32.0;
        let small = chip.evaluate(&demand, &cfg);
        cfg.cache_per_core_kb = 128.0;
        let large = chip.evaluate(&demand, &cfg);
        assert!(large.seconds < small.seconds);
        assert!(large.offchip_rate <= small.offchip_rate);
    }

    #[test]
    fn execute_advances_time_and_updates_tiles() {
        let mut chip = AngstromChip::new(ChipConfig::angstrom_256());
        let demand = barnes_like();
        let cfg = ChipConfiguration::default_for(chip.config());
        assert_eq!(chip.now(), 0.0);
        let report = chip.execute(&demand, &cfg);
        assert!(chip.now() > 0.0);
        assert!((chip.now() - report.seconds).abs() < 1e-12);
        assert!(
            chip.tiles()[0]
                .counters
                .read(crate::counters::CounterId::Instructions)
                > 0
        );
        assert!(chip.total_sensed_energy() > 0.0);
        // Unallocated tile state is untouched when fewer cores are allocated.
        let mut cfg_small = cfg.clone();
        cfg_small.cores = 2;
        let mut chip2 = AngstromChip::new(ChipConfig::angstrom_256());
        chip2.execute(&demand, &cfg_small);
        assert_eq!(
            chip2.tiles()[200]
                .counters
                .read(crate::counters::CounterId::Instructions),
            0
        );
    }

    #[test]
    fn report_energy_identity_holds() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let report = chip.evaluate(
            &barnes_like(),
            &ChipConfiguration::default_for(chip.config()),
        );
        assert!((report.breakdown.total() - report.energy_joules).abs() < 1e-9);
        assert!(
            (report.average_power_watts - report.energy_joules / report.seconds).abs()
                < 1e-6 * report.average_power_watts
        );
        assert!(
            (report.performance_per_watt()
                - report.instructions_per_second / report.average_power_watts)
                .abs()
                < 1e-3 * report.performance_per_watt()
        );
    }

    #[test]
    fn partner_core_decisions_are_cheaper_for_the_application() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let mut cfg = ChipConfiguration::default_for(chip.config());
        cfg.decision_placement = DecisionPlacement::PartnerCore;
        let partner = chip.decision_cost(1.0e6, &cfg);
        cfg.decision_placement = DecisionPlacement::MainCore;
        let main = chip.decision_cost(1.0e6, &cfg);
        assert_eq!(partner.application_seconds, 0.0);
        assert!(main.application_seconds > 0.0);
        assert!(partner.energy_joules < main.energy_joules);
        assert!(partner.latency_seconds > main.latency_seconds);
    }

    #[test]
    fn out_of_range_configuration_is_clamped_not_panicking() {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let cfg = ChipConfiguration {
            cores: 100_000,
            cache_per_core_kb: 1.0e9,
            operating_point_index: 42,
            coherence: CoherenceProtocol::Adaptive,
            noc_features: None,
            decision_placement: DecisionPlacement::PartnerCore,
        };
        let report = chip.evaluate(&barnes_like(), &cfg);
        assert!(report.seconds.is_finite() && report.seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "chip configuration must be valid")]
    fn new_rejects_invalid_chip() {
        let mut config = ChipConfig::angstrom_256();
        config.operating_points.clear();
        let _ = AngstromChip::new(config);
    }
}
