//! Static chip configuration: what the silicon provides.
//!
//! [`ChipConfig`] describes the *fabricated* chip — tile count, cache
//! geometry, available operating points, network features — as opposed to
//! [`crate::chip::ChipConfiguration`], which describes the *current runtime
//! choice* among the adaptations the chip exposes.

use serde::{Deserialize, Serialize};

use crate::cache::CacheGeometry;
use crate::coherence::CoherenceProtocol;
use crate::dvfs::OperatingPoint;
use crate::noc::{MeshTopology, NocFeatures};
use crate::partner::DecisionPlacement;

/// Description of a fabricated Angstrom (or Graphite-modelled) chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Number of tiles (main core + partner core + cache + router).
    pub tiles: usize,
    /// Mesh network topology connecting the tiles.
    pub topology: MeshTopology,
    /// Full geometry of each tile's private cache.
    pub cache_geometry: CacheGeometry,
    /// Cache capacities (KB) the reconfiguration hardware can present.
    pub cache_capacity_options_kb: Vec<f64>,
    /// Core allocation sizes the OS-level allocator can hand out.
    pub core_allocation_options: Vec<usize>,
    /// Voltage/frequency operating points each core supports.
    pub operating_points: Vec<OperatingPoint>,
    /// Adaptive network features fabricated into the chip.
    pub noc_features: NocFeatures,
    /// Coherence protocols the chip can run (the runtime choice defaults to
    /// this; [`CoherenceProtocol::Adaptive`] means ARCc hardware is present).
    pub coherence: CoherenceProtocol,
    /// Off-chip (DRAM) access latency in core cycles at the nominal point.
    pub offchip_latency_cycles: f64,
    /// Where runtime decision code executes by default.
    pub decision_placement: DecisionPlacement,
    /// Leakage of an unallocated, power-gated tile as a fraction of its
    /// full leakage (retention power).
    pub idle_tile_leakage_fraction: f64,
}

impl ChipConfig {
    /// The 256-core Angstrom configuration evaluated in the paper (§5.3):
    /// cache 32–128 KB by powers of two, cores 1–256 by powers of two, and
    /// operating points (0.4 V, 100 MHz) / (0.8 V, 500 MHz).
    pub fn angstrom_256() -> Self {
        ChipConfig {
            tiles: 256,
            topology: MeshTopology::for_tiles(256),
            cache_geometry: CacheGeometry::new(128.0, 8),
            cache_capacity_options_kb: vec![32.0, 64.0, 128.0],
            core_allocation_options: powers_of_two_up_to(256),
            operating_points: vec![OperatingPoint::low_power(), OperatingPoint::nominal()],
            noc_features: NocFeatures::default(),
            coherence: CoherenceProtocol::Adaptive,
            offchip_latency_cycles: 200.0,
            decision_placement: DecisionPlacement::PartnerCore,
            idle_tile_leakage_fraction: 0.05,
        }
    }

    /// The 64-core Graphite-simulated multicore of the closed-adaptive-system
    /// experiment (§2, Figure 2): cores 1–64 and per-core L2 of 16–256 KB,
    /// both by powers of two, at a single fixed operating point.
    pub fn graphite_64() -> Self {
        ChipConfig {
            tiles: 64,
            topology: MeshTopology::for_tiles(64),
            cache_geometry: CacheGeometry::new(256.0, 8),
            cache_capacity_options_kb: vec![16.0, 32.0, 64.0, 128.0, 256.0],
            core_allocation_options: powers_of_two_up_to(64),
            operating_points: vec![OperatingPoint::new(0.9, 1.0e9)],
            noc_features: NocFeatures::baseline(),
            coherence: CoherenceProtocol::Directory,
            offchip_latency_cycles: 150.0,
            decision_placement: DecisionPlacement::MainCore,
            idle_tile_leakage_fraction: 0.05,
        }
    }

    /// Validates internal consistency (non-empty option lists, allocations
    /// within the tile count, cache options within the geometry).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.tiles == 0 {
            return Err("chip must have at least one tile".into());
        }
        if self.topology.routers() < self.tiles {
            return Err(format!(
                "topology provides {} routers for {} tiles",
                self.topology.routers(),
                self.tiles
            ));
        }
        if self.core_allocation_options.is_empty() {
            return Err("no core allocation options".into());
        }
        if let Some(&too_many) = self
            .core_allocation_options
            .iter()
            .find(|&&n| n == 0 || n > self.tiles)
        {
            return Err(format!(
                "core allocation option {too_many} outside 1..={}",
                self.tiles
            ));
        }
        if self.cache_capacity_options_kb.is_empty() {
            return Err("no cache capacity options".into());
        }
        if let Some(&too_big) = self
            .cache_capacity_options_kb
            .iter()
            .find(|&&kb| kb <= 0.0 || kb > self.cache_geometry.capacity_kb)
        {
            return Err(format!(
                "cache capacity option {too_big} KB outside (0, {}] KB",
                self.cache_geometry.capacity_kb
            ));
        }
        if self.operating_points.is_empty() {
            return Err("no operating points".into());
        }
        if !(0.0..=1.0).contains(&self.idle_tile_leakage_fraction) {
            return Err("idle tile leakage fraction must be within [0, 1]".into());
        }
        Ok(())
    }
}

fn powers_of_two_up_to(max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut n = 1usize;
    while n < max {
        out.push(n);
        n *= 2;
    }
    out.push(max);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ChipConfig::angstrom_256().validate().unwrap();
        ChipConfig::graphite_64().validate().unwrap();
    }

    #[test]
    fn angstrom_256_matches_paper_parameters() {
        let cfg = ChipConfig::angstrom_256();
        assert_eq!(cfg.tiles, 256);
        assert_eq!(cfg.cache_capacity_options_kb, vec![32.0, 64.0, 128.0]);
        assert_eq!(cfg.core_allocation_options.last(), Some(&256));
        assert_eq!(cfg.core_allocation_options.first(), Some(&1));
        assert_eq!(cfg.operating_points.len(), 2);
        assert_eq!(cfg.coherence, CoherenceProtocol::Adaptive);
    }

    #[test]
    fn graphite_64_matches_figure_2_sweep() {
        let cfg = ChipConfig::graphite_64();
        assert_eq!(cfg.tiles, 64);
        assert_eq!(
            cfg.cache_capacity_options_kb,
            vec![16.0, 32.0, 64.0, 128.0, 256.0]
        );
        assert_eq!(cfg.core_allocation_options, vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(cfg.operating_points.len(), 1);
    }

    #[test]
    fn powers_of_two_handles_non_power_maxima() {
        assert_eq!(powers_of_two_up_to(1000).last(), Some(&1000));
        assert_eq!(powers_of_two_up_to(8), vec![1, 2, 4, 8]);
        assert_eq!(powers_of_two_up_to(1), vec![1]);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut cfg = ChipConfig::angstrom_256();
        cfg.core_allocation_options.push(512);
        assert!(cfg.validate().is_err());

        let mut cfg = ChipConfig::angstrom_256();
        cfg.cache_capacity_options_kb = vec![4096.0];
        assert!(cfg.validate().is_err());

        let mut cfg = ChipConfig::angstrom_256();
        cfg.operating_points.clear();
        assert!(cfg.validate().is_err());

        let mut cfg = ChipConfig::angstrom_256();
        cfg.tiles = 0;
        assert!(cfg.validate().is_err());
    }
}
