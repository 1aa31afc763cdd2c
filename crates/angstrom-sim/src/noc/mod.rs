//! On-chip network (NoC) model.
//!
//! Angstrom adapts its on-chip network through three architectural features
//! exposed to software (DAC 2012 §4.2.2):
//!
//! * **Express virtual channels (EVC)** — flits bypass buffering and
//!   arbitration in intermediate routers ([`evc`]).
//! * **Bandwidth-adaptive networks (BAN)** — bidirectional links whose
//!   direction is governed by a hardware bandwidth allocator with
//!   software-visible configuration ([`ban`]).
//! * **Application-aware oblivious routing (AOR)** — routing tables computed
//!   online from the application's flow demands ([`aor`]).
//!
//! [`NocModel`] composes the three into per-message latency and per-flit
//! energy figures consumed by the chip-level performance model.

pub mod aor;
pub mod ban;
pub mod evc;

use serde::{Deserialize, Serialize};

pub use aor::{RoutingTable, TrafficMatrix};
pub use ban::BandwidthAllocator;
pub use evc::ExpressVirtualChannels;

/// A 2-D mesh topology of `width × height` routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MeshTopology {
    /// Routers per row.
    pub width: usize,
    /// Routers per column.
    pub height: usize,
}

impl MeshTopology {
    /// Creates a mesh, requiring at least one router.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        MeshTopology { width, height }
    }

    /// Smallest square-ish mesh holding `tiles` routers.
    pub fn for_tiles(tiles: usize) -> Self {
        let width = (tiles as f64).sqrt().ceil().max(1.0) as usize;
        let height = tiles.div_ceil(width).max(1);
        MeshTopology { width, height }
    }

    /// Total number of routers.
    pub fn routers(&self) -> usize {
        self.width * self.height
    }

    /// Average Manhattan distance between uniformly random router pairs.
    pub fn average_hops(&self) -> f64 {
        // E|x1-x2| for uniform over 0..w is (w² − 1) / (3 w).
        let axis = |n: usize| {
            let n = n as f64;
            if n <= 1.0 {
                0.0
            } else {
                (n * n - 1.0) / (3.0 * n)
            }
        };
        axis(self.width) + axis(self.height)
    }

    /// Number of unidirectional links crossing the vertical bisection.
    fn bisection_links(&self) -> usize {
        2 * self.height
    }
}

/// Which of the adaptive network features are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocFeatures {
    /// Express virtual channels enabled.
    pub evc: bool,
    /// Bandwidth-adaptive (bidirectional) links enabled.
    pub ban: bool,
    /// Application-aware oblivious routing enabled (otherwise plain XY).
    pub aor: bool,
}

impl Default for NocFeatures {
    fn default() -> Self {
        NocFeatures {
            evc: true,
            ban: true,
            aor: true,
        }
    }
}

impl NocFeatures {
    /// A baseline network with every adaptive feature disabled.
    pub fn baseline() -> Self {
        NocFeatures {
            evc: false,
            ban: false,
            aor: false,
        }
    }
}

/// Analytical network model combining topology, router pipeline, and the
/// adaptive features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocModel {
    /// Mesh topology.
    pub topology: MeshTopology,
    /// Enabled adaptive features.
    pub features: NocFeatures,
    /// Router pipeline latency per hop without bypass, in cycles.
    pub router_cycles: f64,
    /// Link traversal latency per hop, in cycles.
    pub link_cycles: f64,
    /// Energy per flit per hop through a full router pipeline, in joules.
    pub flit_hop_energy: f64,
    /// Express virtual channel model.
    pub evc: ExpressVirtualChannels,
    /// Bandwidth allocator model.
    pub ban: BandwidthAllocator,
    /// Routing table currently installed (by AOR or plain XY).
    pub routing: RoutingTable,
}

impl NocModel {
    /// Creates a network model for `topology` with default parameters.
    pub fn new(topology: MeshTopology, features: NocFeatures) -> Self {
        NocModel {
            topology,
            features,
            router_cycles: 3.0,
            link_cycles: 1.0,
            flit_hop_energy: 1.5e-12,
            evc: ExpressVirtualChannels::default(),
            ban: BandwidthAllocator::default(),
            routing: RoutingTable::xy(topology),
        }
    }

    /// Installs a routing table computed by software (the AOR interface).
    pub fn install_routing_table(&mut self, table: RoutingTable) {
        self.routing = table;
    }

    /// Average zero-load latency of a packet of `flits` flits, in cycles.
    pub fn zero_load_latency_cycles(&self, flits: f64) -> f64 {
        let hops = self.topology.average_hops().max(1.0);
        let per_hop = if self.features.evc {
            self.evc
                .effective_hop_cycles(self.router_cycles, self.link_cycles)
        } else {
            self.router_cycles + self.link_cycles
        };
        // Head latency plus serialization of the body flits.
        hops * per_hop + (flits - 1.0).max(0.0)
    }

    /// Contention multiplier (≥ 1) given offered load.
    ///
    /// `flits_per_cycle` is the aggregate injection rate of the application;
    /// the achievable rate is set by the bisection bandwidth, improved by BAN
    /// when traffic is asymmetric and by AOR when the load would otherwise
    /// concentrate on a few channels.
    pub fn contention_factor(&self, flits_per_cycle: f64, traffic: &TrafficMatrix) -> f64 {
        let mut capacity = self.topology.bisection_links() as f64;
        if self.features.ban {
            capacity *= self.ban.effective_bandwidth_gain(traffic.asymmetry());
        }
        let balance = if self.features.aor {
            self.routing.load_balance_factor(traffic)
        } else {
            RoutingTable::xy(self.topology).load_balance_factor(traffic)
        };
        // Utilisation of the most loaded part of the network. Below
        // saturation the delay follows an M/M/1-style queueing curve; past
        // saturation the network is throughput-limited and latency grows
        // linearly with the overload.
        let utilisation = (flits_per_cycle * balance / capacity).max(0.0);
        const SATURATION: f64 = 0.95;
        if utilisation < SATURATION {
            1.0 / (1.0 - utilisation)
        } else {
            (1.0 / (1.0 - SATURATION)) * (utilisation / SATURATION)
        }
    }

    /// Average total latency of a packet of `flits` flits under load, in cycles.
    pub fn packet_latency_cycles(
        &self,
        flits: f64,
        flits_per_cycle: f64,
        traffic: &TrafficMatrix,
    ) -> f64 {
        self.zero_load_latency_cycles(flits) * self.contention_factor(flits_per_cycle, traffic)
    }

    /// Energy of moving one flit across the network (average hop count), in joules.
    pub fn flit_energy(&self) -> f64 {
        let hops = self.topology.average_hops().max(1.0);
        let per_hop = if self.features.evc {
            self.flit_hop_energy * self.evc.energy_fraction()
        } else {
            self.flit_hop_energy
        };
        hops * per_hop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_dimensions_and_hops() {
        let mesh = MeshTopology::new(4, 4);
        assert_eq!(mesh.routers(), 16);
        assert!(mesh.average_hops() > 2.0 && mesh.average_hops() < 3.0);
        assert_eq!(mesh.bisection_links(), 8);
    }

    #[test]
    fn for_tiles_covers_requested_count() {
        for tiles in [1, 4, 16, 64, 200, 256, 1000] {
            let mesh = MeshTopology::for_tiles(tiles);
            assert!(
                mesh.routers() >= tiles,
                "{tiles} tiles need {} routers",
                mesh.routers()
            );
        }
        assert_eq!(MeshTopology::for_tiles(256), MeshTopology::new(16, 16));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_mesh_panics() {
        let _ = MeshTopology::new(0, 4);
    }

    #[test]
    fn evc_reduces_latency_and_energy() {
        let mesh = MeshTopology::new(8, 8);
        let with = NocModel::new(mesh, NocFeatures::default());
        let without = NocModel::new(mesh, NocFeatures::baseline());
        assert!(with.zero_load_latency_cycles(4.0) < without.zero_load_latency_cycles(4.0));
        assert!(with.flit_energy() < without.flit_energy());
    }

    #[test]
    fn contention_grows_with_load_and_saturates() {
        let mesh = MeshTopology::new(8, 8);
        let model = NocModel::new(mesh, NocFeatures::baseline());
        let traffic = TrafficMatrix::uniform(mesh.routers());
        let light = model.contention_factor(0.5, &traffic);
        let heavy = model.contention_factor(10.0, &traffic);
        let saturated = model.contention_factor(100.0, &traffic);
        assert!(light >= 1.0);
        assert!(light < heavy);
        assert!(heavy < saturated, "past saturation latency keeps growing");
        assert!(saturated.is_finite());
    }

    #[test]
    fn adaptive_features_reduce_contention() {
        let mesh = MeshTopology::new(8, 8);
        let adaptive = NocModel::new(mesh, NocFeatures::default());
        let baseline = NocModel::new(mesh, NocFeatures::baseline());
        let traffic = TrafficMatrix::hotspot(mesh.routers(), 0, 0.4);
        let load = 6.0;
        assert!(
            adaptive.contention_factor(load, &traffic) < baseline.contention_factor(load, &traffic)
        );
        assert!(
            adaptive.packet_latency_cycles(4.0, load, &traffic)
                < baseline.packet_latency_cycles(4.0, load, &traffic)
        );
    }
}
