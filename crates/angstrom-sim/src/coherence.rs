//! Adaptive cache coherence: directory, shared-NUCA, and ARCc-style selection.
//!
//! For some applications directory-based coherence over private caches gives
//! the best performance and energy; for others a shared-NUCA organisation is
//! better because it pools cache capacity and cuts off-chip accesses
//! (DAC 2012 §4.2.2, citing Gupta et al. ICPP 1990, Kim et al. ASPLOS 2002).
//! The ARCc architecture combines both protocols and selects per application
//! (Khan et al., ICCD 2011); Angstrom adopts that approach and exposes the
//! selection to SEEC. The chip model's `CoherenceModel::evaluate` returns the
//! memory-system costs of each choice so the chip can pick.

use serde::{Deserialize, Serialize};

use crate::cache::miss_rate_for_capacity;

/// The coherence protocol in force for an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoherenceProtocol {
    /// Directory-based coherence over private per-tile caches.
    Directory,
    /// Shared non-uniform cache access: per-tile slices form one shared cache.
    SharedNuca,
    /// ARCc-style adaptive selection: per application, whichever of the two
    /// protocols yields the lower average memory penalty.
    Adaptive,
}

impl std::fmt::Display for CoherenceProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CoherenceProtocol::Directory => "directory",
            CoherenceProtocol::SharedNuca => "shared-nuca",
            CoherenceProtocol::Adaptive => "adaptive (ARCc)",
        };
        f.write_str(name)
    }
}

/// Inputs to the coherence cost model for one application quantum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct CoherenceInputs {
    /// Cores allocated to the application.
    pub cores: usize,
    /// Enabled private cache capacity per core, in kilobytes.
    pub cache_per_core_kb: f64,
    /// Application working set, in kilobytes.
    pub working_set_kb: f64,
    /// Locality exponent of the miss-rate curve.
    pub locality_exponent: f64,
    /// Fraction of memory operations touching shared data.
    pub sharing_fraction: f64,
    /// Average network hop count between tiles.
    pub average_hops: f64,
    /// Per-hop network latency, in core cycles.
    pub hop_cycles: f64,
    /// Off-chip (DRAM) access latency, in core cycles.
    pub offchip_cycles: f64,
}

/// Memory-system costs of running under one protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct CoherenceCosts {
    /// Protocol these costs correspond to (never [`CoherenceProtocol::Adaptive`]).
    pub protocol: CoherenceProtocol,
    /// Average penalty per memory operation, in core cycles.
    pub avg_penalty_cycles: f64,
    /// Fraction of memory operations that leave the chip.
    pub offchip_rate: f64,
    /// Network flits injected per memory operation (coherence traffic).
    pub flits_per_memory_op: f64,
}

/// Analytical coherence cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct CoherenceModel {
    /// Cycles for a directory lookup (beyond the network round trip).
    pub directory_access_cycles: f64,
    /// Flits per cache-line transfer (data + control).
    pub flits_per_line: f64,
    /// Extra invalidation traffic per shared write, in flits.
    pub invalidation_flits: f64,
}

impl Default for CoherenceModel {
    fn default() -> Self {
        CoherenceModel {
            directory_access_cycles: 10.0,
            flits_per_line: 5.0,
            invalidation_flits: 2.0,
        }
    }
}

impl CoherenceModel {
    /// Costs of running under directory coherence with private caches.
    fn directory_costs(&self, inputs: &CoherenceInputs) -> CoherenceCosts {
        let private_miss = miss_rate_for_capacity(
            inputs.cache_per_core_kb,
            per_core_working_set(inputs),
            inputs.locality_exponent,
        );
        // A private miss goes to the directory; it is served on chip if some
        // other private cache holds the line (likely for shared data), and
        // off chip otherwise.
        let on_chip_serve_prob = inputs.sharing_fraction.clamp(0.0, 1.0) * 0.8;
        let network_round_trip = 2.0 * inputs.average_hops * inputs.hop_cycles;
        let on_chip_penalty = network_round_trip + self.directory_access_cycles;
        let off_chip_penalty = on_chip_penalty + inputs.offchip_cycles;
        let offchip_rate = private_miss * (1.0 - on_chip_serve_prob);
        let avg_penalty_cycles = private_miss
            * (on_chip_serve_prob * on_chip_penalty + (1.0 - on_chip_serve_prob) * off_chip_penalty)
            // Invalidation latency on writes to shared lines (partially hidden).
            + inputs.sharing_fraction * 0.3 * inputs.average_hops * inputs.hop_cycles * 0.25;
        let flits_per_memory_op = private_miss * self.flits_per_line
            + inputs.sharing_fraction * 0.3 * self.invalidation_flits;
        CoherenceCosts {
            protocol: CoherenceProtocol::Directory,
            avg_penalty_cycles,
            offchip_rate,
            flits_per_memory_op,
        }
    }

    /// Costs of running under a shared-NUCA organisation.
    fn shared_nuca_costs(&self, inputs: &CoherenceInputs) -> CoherenceCosts {
        let pooled_capacity = inputs.cache_per_core_kb * inputs.cores.max(1) as f64;
        let shared_miss = miss_rate_for_capacity(
            pooled_capacity,
            inputs.working_set_kb,
            inputs.locality_exponent,
        );
        // Every L2 access traverses the network to the home slice.
        let slice_trip = inputs.average_hops * inputs.hop_cycles;
        // A small local-slice hit probability keeps one-core NUCA sensible.
        let remote_prob = 1.0 - 1.0 / inputs.cores.max(1) as f64;
        let access_penalty = remote_prob * 2.0 * slice_trip;
        let avg_penalty_cycles = access_penalty + shared_miss * inputs.offchip_cycles;
        let flits_per_memory_op =
            remote_prob * self.flits_per_line + shared_miss * self.flits_per_line;
        CoherenceCosts {
            protocol: CoherenceProtocol::SharedNuca,
            avg_penalty_cycles,
            offchip_rate: shared_miss,
            flits_per_memory_op,
        }
    }

    /// Costs under `protocol`, resolving [`CoherenceProtocol::Adaptive`] to
    /// whichever concrete protocol has the lower average penalty (the ARCc
    /// selection rule).
    pub fn evaluate(
        &self,
        protocol: CoherenceProtocol,
        inputs: &CoherenceInputs,
    ) -> CoherenceCosts {
        match protocol {
            CoherenceProtocol::Directory => self.directory_costs(inputs),
            CoherenceProtocol::SharedNuca => self.shared_nuca_costs(inputs),
            CoherenceProtocol::Adaptive => {
                let dir = self.directory_costs(inputs);
                let nuca = self.shared_nuca_costs(inputs);
                if dir.avg_penalty_cycles <= nuca.avg_penalty_cycles {
                    dir
                } else {
                    nuca
                }
            }
        }
    }
}

/// The slice of the working set a single private cache must capture.
///
/// Data-parallel applications partition most of their data, but shared
/// structures are replicated across private caches, so the per-core footprint
/// shrinks more slowly than `1 / cores`.
fn per_core_working_set(inputs: &CoherenceInputs) -> f64 {
    let cores = inputs.cores.max(1) as f64;
    let partitioned = (1.0 - inputs.sharing_fraction) * inputs.working_set_kb / cores;
    let replicated = inputs.sharing_fraction * inputs.working_set_kb;
    partitioned + replicated
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_inputs() -> CoherenceInputs {
        CoherenceInputs {
            cores: 64,
            cache_per_core_kb: 64.0,
            working_set_kb: 16.0 * 1024.0,
            locality_exponent: 0.5,
            sharing_fraction: 0.2,
            average_hops: 5.0,
            hop_cycles: 4.0,
            offchip_cycles: 200.0,
        }
    }

    #[test]
    fn shared_nuca_wins_for_large_working_sets() {
        let model = CoherenceModel::default();
        let mut inputs = base_inputs();
        inputs.working_set_kb = 64.0 * 1024.0; // far exceeds private capacity
        let dir = model.directory_costs(&inputs);
        let nuca = model.shared_nuca_costs(&inputs);
        assert!(
            nuca.offchip_rate < dir.offchip_rate,
            "pooled capacity must cut off-chip misses"
        );
        let adaptive = model.evaluate(CoherenceProtocol::Adaptive, &inputs);
        assert!(adaptive.avg_penalty_cycles <= dir.avg_penalty_cycles);
        assert!(adaptive.avg_penalty_cycles <= nuca.avg_penalty_cycles);
    }

    #[test]
    fn directory_wins_for_small_private_working_sets() {
        let model = CoherenceModel::default();
        let mut inputs = base_inputs();
        inputs.working_set_kb = 256.0; // fits comfortably in private caches
        inputs.sharing_fraction = 0.05;
        let dir = model.directory_costs(&inputs);
        let nuca = model.shared_nuca_costs(&inputs);
        assert!(dir.avg_penalty_cycles < nuca.avg_penalty_cycles);
        let adaptive = model.evaluate(CoherenceProtocol::Adaptive, &inputs);
        assert_eq!(adaptive.protocol, CoherenceProtocol::Directory);
    }

    #[test]
    fn adaptive_never_loses_to_either_fixed_protocol() {
        let model = CoherenceModel::default();
        for ws_kb in [128.0, 1024.0, 8192.0, 65536.0] {
            for sharing in [0.0, 0.2, 0.6] {
                let mut inputs = base_inputs();
                inputs.working_set_kb = ws_kb;
                inputs.sharing_fraction = sharing;
                let adaptive = model.evaluate(CoherenceProtocol::Adaptive, &inputs);
                let dir = model.evaluate(CoherenceProtocol::Directory, &inputs);
                let nuca = model.evaluate(CoherenceProtocol::SharedNuca, &inputs);
                assert!(adaptive.avg_penalty_cycles <= dir.avg_penalty_cycles + 1e-9);
                assert!(adaptive.avg_penalty_cycles <= nuca.avg_penalty_cycles + 1e-9);
            }
        }
    }

    #[test]
    fn more_cores_shrink_per_core_working_set_but_not_shared_part() {
        let mut inputs = base_inputs();
        inputs.sharing_fraction = 0.5;
        inputs.cores = 1;
        let single = per_core_working_set(&inputs);
        inputs.cores = 64;
        let many = per_core_working_set(&inputs);
        assert!(many < single);
        assert!(
            many >= 0.5 * inputs.working_set_kb,
            "shared data is replicated"
        );
    }

    #[test]
    fn costs_are_finite_and_non_negative() {
        let model = CoherenceModel::default();
        let inputs = base_inputs();
        for proto in [
            CoherenceProtocol::Directory,
            CoherenceProtocol::SharedNuca,
            CoherenceProtocol::Adaptive,
        ] {
            let costs = model.evaluate(proto, &inputs);
            assert!(costs.avg_penalty_cycles.is_finite() && costs.avg_penalty_cycles >= 0.0);
            assert!((0.0..=1.0).contains(&costs.offchip_rate));
            assert!(costs.flits_per_memory_op >= 0.0);
        }
    }

    #[test]
    fn protocol_display_names() {
        assert_eq!(CoherenceProtocol::Directory.to_string(), "directory");
        assert_eq!(CoherenceProtocol::SharedNuca.to_string(), "shared-nuca");
        assert_eq!(CoherenceProtocol::Adaptive.to_string(), "adaptive (ARCc)");
    }
}
