//! A single Angstrom tile: main core, partner core, cache, counters, and
//! sensors.

use serde::{Deserialize, Serialize};

use crate::cache::ReconfigurableCache;
use crate::config::ChipConfig;
use crate::counters::{CounterId, PerformanceCounters};
use crate::dvfs::DvfsController;
use crate::partner::PartnerCore;
use crate::sensors::SensorBank;

/// Activity attributed to one tile over a simulation quantum; used to update
/// its counters and sensors.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TileActivity {
    /// Retired instructions.
    pub instructions: f64,
    /// Elapsed core cycles.
    pub cycles: f64,
    /// Memory operations issued.
    pub memory_ops: f64,
    /// Private-cache misses.
    pub cache_misses: f64,
    /// Cycles stalled on memory or the network.
    pub stall_cycles: f64,
    /// Flits sent into the network.
    pub flits_sent: f64,
    /// Flits received from the network.
    pub flits_received: f64,
    /// Energy consumed by the tile, in joules.
    pub energy_joules: f64,
    /// Average power over the quantum, in watts.
    pub power_watts: f64,
    /// Quantum duration, in seconds.
    pub seconds: f64,
}

/// One tile of the Angstrom chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tile {
    /// Tile index (row-major position in the mesh).
    pub id: usize,
    /// Per-core DVFS controller.
    pub dvfs: DvfsController,
    /// Reconfigurable private cache.
    pub cache: ReconfigurableCache,
    /// Memory-mapped performance counters.
    pub counters: PerformanceCounters,
    /// Temperature / energy / voltage sensors.
    pub sensors: SensorBank,
    /// The tile's partner core.
    pub partner: PartnerCore,
}

impl Tile {
    /// Creates tile `id` of a chip described by `config`, in its nominal
    /// (fastest point, full cache) state.
    pub fn new(id: usize, config: &ChipConfig) -> Self {
        let dvfs = DvfsController::new(config.operating_points.clone());
        let nominal_voltage = dvfs.current_point().voltage;
        Tile {
            id,
            dvfs,
            cache: ReconfigurableCache::new(config.cache_geometry),
            counters: PerformanceCounters::new(),
            sensors: SensorBank::new(nominal_voltage),
            partner: PartnerCore::default(),
        }
    }

    /// Records a quantum of activity: updates counters and advances the
    /// sensors.
    pub fn record_activity(&mut self, activity: &TileActivity) {
        self.counters.add(
            CounterId::Instructions,
            activity.instructions.max(0.0) as u64,
        );
        self.counters
            .add(CounterId::Cycles, activity.cycles.max(0.0) as u64);
        self.counters
            .add(CounterId::MemoryOps, activity.memory_ops.max(0.0) as u64);
        let hits = (activity.memory_ops - activity.cache_misses).max(0.0);
        self.counters.add(CounterId::CacheHits, hits as u64);
        self.counters.add(
            CounterId::CacheMisses,
            activity.cache_misses.max(0.0) as u64,
        );
        self.counters.add(
            CounterId::StallCycles,
            activity.stall_cycles.max(0.0) as u64,
        );
        self.counters
            .add(CounterId::FlitsSent, activity.flits_sent.max(0.0) as u64);
        self.counters.add(
            CounterId::FlitsReceived,
            activity.flits_received.max(0.0) as u64,
        );
        self.counters.add(
            CounterId::EnergyNanojoules,
            (activity.energy_joules.max(0.0) * 1.0e9) as u64,
        );

        self.sensors.advance(
            activity.power_watts,
            activity.energy_joules,
            activity.seconds,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::OperatingPoint;

    fn tile() -> Tile {
        Tile::new(3, &ChipConfig::angstrom_256())
    }

    fn activity() -> TileActivity {
        TileActivity {
            instructions: 1.0e6,
            cycles: 2.0e6,
            memory_ops: 3.0e5,
            cache_misses: 1.0e4,
            stall_cycles: 5.0e5,
            flits_sent: 2.0e4,
            flits_received: 2.0e4,
            energy_joules: 0.01,
            power_watts: 1.0,
            seconds: 0.01,
        }
    }

    #[test]
    fn tile_starts_in_nominal_state() {
        let t = tile();
        assert_eq!(t.id, 3);
        assert_eq!(
            t.dvfs.current_point(),
            OperatingPoint::nominal(),
            "fastest operating point"
        );
        assert_eq!(t.cache.effective_capacity_kb(), 128.0);
        assert_eq!(t.counters.read(CounterId::Instructions), 0);
    }

    #[test]
    fn activity_updates_counters_and_sensors() {
        let mut t = tile();
        t.record_activity(&activity());
        assert_eq!(t.counters.read(CounterId::Instructions), 1_000_000);
        assert_eq!(t.counters.read(CounterId::CacheHits), 290_000);
        assert_eq!(t.counters.read(CounterId::CacheMisses), 10_000);
        assert_eq!(t.counters.read(CounterId::EnergyNanojoules), 10_000_000);
        assert!(t.sensors.energy.read() > 0.0);
        assert!(t.sensors.temperature.read() > 45.0);
    }

    #[test]
    fn negative_activity_fields_are_clamped() {
        let mut t = tile();
        let bad = TileActivity {
            instructions: -5.0,
            cache_misses: 10.0,
            memory_ops: 5.0,
            ..TileActivity::default()
        };
        t.record_activity(&bad);
        assert_eq!(t.counters.read(CounterId::Instructions), 0);
        assert_eq!(t.counters.read(CounterId::CacheHits), 0);
    }
}
