//! Application-aware oblivious routing (AOR).
//!
//! AOR produces deadlock-free routes that maximise satisfaction of the
//! application's flow demands, beating traditional oblivious routing because
//! the optimisation uses global application knowledge while the router stays
//! simple — routes live in a table (DAC 2012 §4.2.2, citing Kinsy et al.,
//! ISCA 2009). Angstrom performs the route computation *online* by exposing
//! the routing table to software; [`RoutingTable::application_aware`] is that
//! computation and [`crate::noc::NocModel::install_routing_table`] is the
//! exposure.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use super::MeshTopology;

/// A set of flow demands between tiles: `(source, destination, rate)` with
/// rate in flits per cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    flows: Vec<(usize, usize, f64)>,
    tiles: usize,
}

impl TrafficMatrix {
    /// Uniform random traffic: every ordered pair exchanges the same demand.
    pub fn uniform(tiles: usize) -> Self {
        let mut flows = Vec::new();
        if tiles > 1 {
            let rate = 1.0 / (tiles * (tiles - 1)) as f64;
            for s in 0..tiles {
                for d in 0..tiles {
                    if s != d {
                        flows.push((s, d, rate));
                    }
                }
            }
        }
        TrafficMatrix { flows, tiles }
    }

    /// Hotspot traffic: `hot_fraction` of all demand targets tile `hotspot`,
    /// the rest is uniform.
    pub fn hotspot(tiles: usize, hotspot: usize, hot_fraction: f64) -> Self {
        let mut matrix = TrafficMatrix::uniform(tiles);
        for flow in &mut matrix.flows {
            flow.2 *= 1.0 - hot_fraction;
        }
        if tiles > 1 {
            let hot_rate = hot_fraction / (tiles - 1) as f64;
            for s in 0..tiles {
                if s != hotspot {
                    matrix.flows.push((s, hotspot, hot_rate));
                }
            }
        }
        matrix
    }

    /// Nearest-neighbour traffic (each tile talks to the next tile index),
    /// typical of stencil and boundary-exchange phases.
    pub fn neighbor(tiles: usize) -> Self {
        let mut flows = Vec::new();
        if tiles > 1 {
            let rate = 1.0 / tiles as f64;
            for s in 0..tiles {
                flows.push((s, (s + 1) % tiles, rate));
            }
        }
        TrafficMatrix { flows, tiles }
    }

    /// Number of tiles the matrix covers.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// The individual flows.
    pub fn flows(&self) -> &[(usize, usize, f64)] {
        &self.flows
    }

    /// Directional asymmetry of the demand in `[0, 1]`: 0 when for every
    /// flow there is equal demand in the opposite direction, approaching 1
    /// when all demand moves one way (the situation BAN exploits).
    pub fn asymmetry(&self) -> f64 {
        let mut net: HashMap<(usize, usize), f64> = HashMap::new();
        let mut gross = 0.0;
        for &(s, d, rate) in &self.flows {
            gross += rate;
            let key = if s < d { (s, d) } else { (d, s) };
            let sign = if s < d { 1.0 } else { -1.0 };
            *net.entry(key).or_insert(0.0) += sign * rate;
        }
        if gross <= 0.0 {
            return 0.0;
        }
        let net_total: f64 = net.values().map(|v| v.abs()).sum();
        (net_total / gross).clamp(0.0, 1.0)
    }
}

/// A per-flow routing table: for each flow, the fraction routed XY-first
/// (the remainder goes YX-first). Restricting routes to the XY/YX pair keeps
/// the table deadlock-free with two virtual channel classes, as in the O1TURN
/// family of oblivious routers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingTable {
    topology: MeshTopology,
    /// Map from (src, dst) to the fraction of that flow routed XY-first.
    xy_fraction: HashMap<(usize, usize), f64>,
}

impl RoutingTable {
    /// Plain dimension-ordered XY routing (every flow 100 % XY-first).
    pub fn xy(topology: MeshTopology) -> Self {
        RoutingTable {
            topology,
            xy_fraction: HashMap::new(),
        }
    }

    /// Computes an application-aware table for `traffic` by greedily
    /// assigning each flow (largest demand first) to whichever of its two
    /// deadlock-free routes (XY-first or YX-first) currently has the lighter
    /// maximum link load.
    pub fn application_aware(topology: MeshTopology, traffic: &TrafficMatrix) -> Self {
        let mut loads: HashMap<(usize, usize), f64> = HashMap::new();
        let mut xy_fraction = HashMap::new();
        let mut flows = traffic.flows().to_vec();
        flows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        for (s, d, rate) in flows {
            if s == d || rate <= 0.0 {
                continue;
            }
            let xy_links = route_links(topology, s, d, true);
            let yx_links = route_links(topology, s, d, false);
            let max_after = |links: &[(usize, usize)]| {
                links
                    .iter()
                    .map(|l| loads.get(l).copied().unwrap_or(0.0) + rate)
                    .fold(0.0_f64, f64::max)
            };
            let use_xy = max_after(&xy_links) <= max_after(&yx_links);
            let chosen = if use_xy { &xy_links } else { &yx_links };
            for link in chosen {
                *loads.entry(*link).or_insert(0.0) += rate;
            }
            xy_fraction.insert((s, d), if use_xy { 1.0 } else { 0.0 });
        }
        let candidate = RoutingTable {
            topology,
            xy_fraction,
        };
        // The routing software has global knowledge: if the greedy assignment
        // ends up with a more congested worst channel than plain XY would
        // give, it keeps the XY table instead (the computation is still
        // application-aware — it just concluded XY is already optimal).
        let xy = RoutingTable::xy(topology);
        if candidate.load_balance_factor(traffic) <= xy.load_balance_factor(traffic) {
            candidate
        } else {
            xy
        }
    }

    /// Fraction of the `(src, dst)` flow routed XY-first.
    fn xy_fraction(&self, src: usize, dst: usize) -> f64 {
        self.xy_fraction.get(&(src, dst)).copied().unwrap_or(1.0)
    }

    /// Ratio of the maximum directed-link load to the mean load over every
    /// directed link of the mesh under `traffic` (≥ 1.0). Lower is better:
    /// values near 1.0 mean the channels share the traffic evenly; large
    /// values mean a few channels serialise the application's traffic.
    ///
    /// Because XY-first and YX-first routes of a flow traverse the same
    /// number of links, the denominator is identical for every table over
    /// the same traffic, so comparing tables compares their worst channel.
    pub fn load_balance_factor(&self, traffic: &TrafficMatrix) -> f64 {
        let mut loads: HashMap<(usize, usize), f64> = HashMap::new();
        let mut total_link_load = 0.0;
        for &(s, d, rate) in traffic.flows() {
            if s == d || rate <= 0.0 {
                continue;
            }
            let f_xy = self.xy_fraction(s, d);
            for (links, share) in [
                (route_links(self.topology, s, d, true), f_xy),
                (route_links(self.topology, s, d, false), 1.0 - f_xy),
            ] {
                if share <= 0.0 {
                    continue;
                }
                for link in links {
                    *loads.entry(link).or_insert(0.0) += rate * share;
                    total_link_load += rate * share;
                }
            }
        }
        if loads.is_empty() {
            return 1.0;
        }
        let max = loads.values().fold(0.0_f64, |a, &b| a.max(b));
        let directed_links = (2
            * (self.topology.width * (self.topology.height - 1)
                + self.topology.height * (self.topology.width - 1)))
            .max(1);
        let mean = total_link_load / directed_links as f64;
        if mean <= 0.0 {
            1.0
        } else {
            (max / mean).max(1.0)
        }
    }
}

/// The directed physical links used by the XY-first (or YX-first) route from
/// `s` to `d`. The two route families form the deadlock-free O1TURN-style
/// pair the table chooses between.
fn route_links(topology: MeshTopology, s: usize, d: usize, xy_first: bool) -> Vec<(usize, usize)> {
    let w = topology.width;
    let (sx, sy) = (s % w, s / w);
    let (dx, dy) = (d % w, d / w);
    let mut links = Vec::new();
    let push_x = |links: &mut Vec<(usize, usize)>, y: usize| {
        let (mut x, step): (isize, isize) = if dx >= sx {
            (sx as isize, 1)
        } else {
            (sx as isize, -1)
        };
        while x != dx as isize {
            let from = y * w + x as usize;
            let to = y * w + (x + step) as usize;
            links.push((from, to));
            x += step;
        }
    };
    let push_y = |links: &mut Vec<(usize, usize)>, x: usize| {
        let (mut y, step): (isize, isize) = if dy >= sy {
            (sy as isize, 1)
        } else {
            (sy as isize, -1)
        };
        while y != dy as isize {
            let from = y as usize * w + x;
            let to = (y + step) as usize * w + x;
            links.push((from, to));
            y += step;
        }
    };
    if xy_first {
        push_x(&mut links, sy);
        push_y(&mut links, dx);
    } else {
        push_y(&mut links, sx);
        push_x(&mut links, dy);
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_traffic_sums_to_unit_demand() {
        let traffic = TrafficMatrix::uniform(16);
        assert!((traffic.flows().iter().map(|f| f.2).sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(traffic.tiles(), 16);
        assert!(traffic.asymmetry() < 1e-9, "uniform traffic is symmetric");
    }

    #[test]
    fn hotspot_traffic_is_asymmetric() {
        let uniform = TrafficMatrix::uniform(16);
        let hotspot = TrafficMatrix::hotspot(16, 0, 0.5);
        assert!(hotspot.asymmetry() > uniform.asymmetry());
        assert!((hotspot.flows().iter().map(|f| f.2).sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn neighbor_traffic_has_one_flow_per_tile() {
        let traffic = TrafficMatrix::neighbor(8);
        assert_eq!(traffic.flows().len(), 8);
    }

    #[test]
    fn degenerate_single_tile_matrices_are_empty() {
        assert!(TrafficMatrix::uniform(1).flows().is_empty());
        assert_eq!(TrafficMatrix::uniform(1).asymmetry(), 0.0);
    }

    #[test]
    fn xy_route_links_follow_dimension_order() {
        let mesh = MeshTopology::new(4, 4);
        // Tile 0 = (0,0), tile 15 = (3,3): 3 X hops then 3 Y hops.
        let links = route_links(mesh, 0, 15, true);
        assert_eq!(links.len(), 6);
        assert_eq!(links[0], (0, 1));
        assert_eq!(links[2], (2, 3));
        assert_eq!(links[3], (3, 7));
        let yx = route_links(mesh, 0, 15, false);
        assert_eq!(yx.len(), 6);
        assert_eq!(yx[0], (0, 4));
    }

    #[test]
    fn application_aware_routing_balances_hotspot_load() {
        let mesh = MeshTopology::new(8, 8);
        let traffic = TrafficMatrix::hotspot(mesh.routers(), 0, 0.5);
        let xy = RoutingTable::xy(mesh);
        let aor = RoutingTable::application_aware(mesh, &traffic);
        assert!(
            aor.load_balance_factor(&traffic) <= xy.load_balance_factor(&traffic) + 1e-9,
            "AOR must not be worse than XY on its own objective"
        );
    }

    #[test]
    fn load_balance_factor_is_at_least_one() {
        let mesh = MeshTopology::new(4, 4);
        let table = RoutingTable::xy(mesh);
        for traffic in [
            TrafficMatrix::uniform(16),
            TrafficMatrix::hotspot(16, 3, 0.8),
            TrafficMatrix::neighbor(16),
        ] {
            assert!(table.load_balance_factor(&traffic) >= 1.0);
        }
    }

    #[test]
    fn default_xy_fraction_is_one() {
        let mesh = MeshTopology::new(4, 4);
        let table = RoutingTable::xy(mesh);
        assert_eq!(table.xy_fraction(0, 5), 1.0);
    }
}
