//! Memory-mapped performance counters.
//!
//! Angstrom exposes multiple performance counters that are memory-mapped and
//! readable by any level of the software stack without kernel mediation
//! (DAC 2012 §4.1). They count simple events — memory operations, cache hits
//! and misses, pipeline stall cycles, network flits sent and received — and
//! are polled by software, so they capture average behaviour over an
//! interval rather than individual events.

use serde::{Deserialize, Serialize};

/// Identifiers of the architecturally visible counters, in address order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CounterId {
    /// Retired instructions.
    Instructions,
    /// Elapsed core clock cycles.
    Cycles,
    /// Memory operations issued (loads + stores).
    MemoryOps,
    /// Cache hits in the private cache.
    CacheHits,
    /// Cache misses in the private cache.
    CacheMisses,
    /// Cycles the pipeline was stalled waiting for memory or the network.
    StallCycles,
    /// Network flits sent by this tile.
    FlitsSent,
    /// Network flits received by this tile.
    FlitsReceived,
    /// Energy consumed, in nanojoules (energy counters, §4.1).
    EnergyNanojoules,
}

impl CounterId {
    /// Word offset of the counter in the memory-mapped counter page.
    fn address_offset(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for CounterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CounterId::Instructions => "instructions",
            CounterId::Cycles => "cycles",
            CounterId::MemoryOps => "memory_ops",
            CounterId::CacheHits => "cache_hits",
            CounterId::CacheMisses => "cache_misses",
            CounterId::StallCycles => "stall_cycles",
            CounterId::FlitsSent => "flits_sent",
            CounterId::FlitsReceived => "flits_received",
            CounterId::EnergyNanojoules => "energy_nj",
        };
        f.write_str(name)
    }
}

/// The counter bank of one tile.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerformanceCounters {
    values: [u64; 9],
}

impl PerformanceCounters {
    /// Creates a zeroed counter bank.
    pub fn new() -> Self {
        PerformanceCounters::default()
    }

    /// Adds `amount` events to `id`.
    pub fn add(&mut self, id: CounterId, amount: u64) {
        let slot = &mut self.values[id.address_offset()];
        *slot = slot.saturating_add(amount);
    }

    /// Reads one counter (models a memory-mapped load).
    pub fn read(&self, id: CounterId) -> u64 {
        self.values[id.address_offset()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut c = PerformanceCounters::new();
        c.add(CounterId::Instructions, 1000);
        c.add(CounterId::Instructions, 500);
        c.add(CounterId::Cycles, 3000);
        assert_eq!(c.read(CounterId::Instructions), 1500);
        assert_eq!(c.read(CounterId::Cycles), 3000);
        assert_eq!(c.read(CounterId::FlitsSent), 0);
    }

    #[test]
    fn every_counter_has_its_own_slot() {
        let ids = [
            CounterId::Instructions,
            CounterId::Cycles,
            CounterId::MemoryOps,
            CounterId::CacheHits,
            CounterId::CacheMisses,
            CounterId::StallCycles,
            CounterId::FlitsSent,
            CounterId::FlitsReceived,
            CounterId::EnergyNanojoules,
        ];
        let mut c = PerformanceCounters::new();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.address_offset(), i);
            c.add(*id, (i + 1) as u64);
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(c.read(*id), (i + 1) as u64);
        }
    }

    #[test]
    fn counter_display_names_are_stable() {
        assert_eq!(CounterId::StallCycles.to_string(), "stall_cycles");
        assert_eq!(CounterId::EnergyNanojoules.to_string(), "energy_nj");
    }
}
