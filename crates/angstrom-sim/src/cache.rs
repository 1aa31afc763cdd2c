//! Reconfigurable per-core cache model.
//!
//! Angstrom caches can disable unnecessary sets and ways to reduce power for
//! the same performance (DAC 2012 §4.2.1, citing Balasubramonian et al.,
//! MICRO 2000). The model exposes that reconfiguration surface and an
//! analytical miss-rate curve driven by the application's working set and
//! locality.

use serde::{Deserialize, Serialize};

use crate::sram::DEFAULT_SRAM;

/// Cache line size in bytes (fixed across the chip).
const LINE_BYTES: f64 = 64.0;

/// Compulsory (cold) miss rate: misses that no amount of capacity removes.
const COMPULSORY_MISS_RATE: f64 = 0.002;

/// Capacity-miss rate of a core with (effectively) no cache.
const MAX_CAPACITY_MISS_RATE: f64 = 0.35;

/// Geometry of a reconfigurable cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity with everything enabled, in kilobytes.
    pub capacity_kb: f64,
    /// Associativity (number of ways).
    pub ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    pub fn new(capacity_kb: f64, ways: u32) -> Self {
        CacheGeometry { capacity_kb, ways }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> f64 {
        (self.capacity_kb * 1024.0) / (LINE_BYTES * self.ways as f64)
    }
}

/// A reconfigurable cache: ways and half/quarter/... of the sets can be
/// disabled at run time to trade capacity for power.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigurableCache {
    geometry: CacheGeometry,
    enabled_ways: u32,
    /// log2 of the set-reduction factor (0 = all sets, 1 = half, 2 = quarter...).
    set_reduction_log2: u32,
}

impl ReconfigurableCache {
    /// Creates a cache with everything enabled.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero ways or non-positive capacity.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(geometry.ways > 0, "cache must have at least one way");
        assert!(
            geometry.capacity_kb > 0.0,
            "cache capacity must be positive"
        );
        ReconfigurableCache {
            geometry,
            enabled_ways: geometry.ways,
            set_reduction_log2: 0,
        }
    }

    /// Current set-reduction factor (1 = all sets enabled, 2 = half, ...).
    fn set_reduction(&self) -> u32 {
        1 << self.set_reduction_log2
    }

    /// Configures the cache so its effective capacity is as close as possible
    /// to `target_kb` (never below one way and one set), using way-disabling
    /// first and then set-disabling.
    pub fn configure_capacity(&mut self, target_kb: f64) {
        let per_way_kb = self.geometry.capacity_kb / self.geometry.ways as f64;
        let mut ways = (target_kb / per_way_kb)
            .round()
            .clamp(1.0, self.geometry.ways as f64) as u32;
        if ways == 0 {
            ways = 1;
        }
        self.enabled_ways = ways;
        // If even a single way is too large, additionally disable sets.
        let mut reduction = 0u32;
        while reduction < 16 {
            let capacity = per_way_kb * self.enabled_ways as f64 / (1u64 << reduction) as f64;
            let next = per_way_kb * self.enabled_ways as f64 / (1u64 << (reduction + 1)) as f64;
            let remaining_sets = self.geometry.sets() / (1u64 << (reduction + 1)) as f64;
            if capacity <= target_kb * 1.01 || next < target_kb || remaining_sets < 1.0 {
                break;
            }
            reduction += 1;
        }
        self.set_reduction_log2 = reduction;
    }

    /// Effective (enabled) capacity in kilobytes.
    pub fn effective_capacity_kb(&self) -> f64 {
        self.geometry.capacity_kb * (self.enabled_ways as f64 / self.geometry.ways as f64)
            / self.set_reduction() as f64
    }

    /// Energy of `accesses` cache accesses at `voltage`, in joules.
    pub fn access_energy(&self, accesses: f64, voltage: f64) -> f64 {
        DEFAULT_SRAM.access_energy(voltage) * accesses
    }

    /// Leakage power of the enabled portion of the arrays at `voltage`, in watts.
    pub fn leakage_power(&self, voltage: f64) -> f64 {
        DEFAULT_SRAM.leakage_power(self.effective_capacity_kb(), voltage)
    }
}

/// Stand-alone power-law miss-rate curve used by the cache and by the
/// shared-NUCA coherence model (which pools capacity across tiles).
///
/// The curve follows the classic power law `miss ∝ capacity^(-α)`,
/// anchored so that a cache holding the entire working set sees only the
/// compulsory rate. `locality_exponent` is `α`: higher values mean the miss
/// rate climbs more steeply as capacity falls short of the working set —
/// i.e. the workload is more capacity-sensitive.
pub fn miss_rate_for_capacity(
    capacity_kb: f64,
    working_set_kb: f64,
    locality_exponent: f64,
) -> f64 {
    if working_set_kb <= 0.0 || capacity_kb >= working_set_kb {
        return COMPULSORY_MISS_RATE;
    }
    if capacity_kb <= 0.0 {
        return MAX_CAPACITY_MISS_RATE;
    }
    let alpha = locality_exponent.clamp(0.05, 3.0);
    let miss = COMPULSORY_MISS_RATE * (working_set_kb / capacity_kb).powf(alpha);
    miss.clamp(COMPULSORY_MISS_RATE, MAX_CAPACITY_MISS_RATE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_256k() -> ReconfigurableCache {
        ReconfigurableCache::new(CacheGeometry::new(256.0, 8))
    }

    #[test]
    fn geometry_reports_sets() {
        let g = CacheGeometry::new(256.0, 8);
        assert!((g.sets() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn full_cache_has_full_capacity() {
        let c = cache_256k();
        assert_eq!(c.effective_capacity_kb(), 256.0);
        assert_eq!(c.set_reduction(), 1);
    }

    #[test]
    fn configure_capacity_hits_power_of_two_targets() {
        let mut c = cache_256k();
        for target in [16.0, 32.0, 64.0, 128.0, 256.0] {
            c.configure_capacity(target);
            let eff = c.effective_capacity_kb();
            assert!(
                (eff - target).abs() / target < 0.26,
                "target {target} KB gave {eff} KB"
            );
        }
    }

    #[test]
    fn miss_rate_curve_is_monotone_and_bounded() {
        let ws = 1024.0;
        let mut last = f64::INFINITY;
        for kb in [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0] {
            let m = miss_rate_for_capacity(kb, ws, 0.5);
            assert!(
                m <= last + 1e-12,
                "miss rate must not increase with capacity"
            );
            assert!((COMPULSORY_MISS_RATE..=MAX_CAPACITY_MISS_RATE).contains(&m));
            last = m;
        }
        assert_eq!(miss_rate_for_capacity(0.0, ws, 0.5), MAX_CAPACITY_MISS_RATE);
        assert_eq!(miss_rate_for_capacity(64.0, 0.0, 0.5), COMPULSORY_MISS_RATE);
    }

    #[test]
    fn capacity_sensitive_workloads_miss_more_with_small_caches() {
        let insensitive = miss_rate_for_capacity(128.0, 512.0, 0.2);
        let sensitive = miss_rate_for_capacity(128.0, 512.0, 1.0);
        assert!(sensitive > insensitive);
        // Both curves agree once the working set fits.
        assert_eq!(
            miss_rate_for_capacity(512.0, 512.0, 0.2),
            miss_rate_for_capacity(512.0, 512.0, 1.0)
        );
    }

    #[test]
    fn disabled_arrays_leak_less() {
        let mut c = cache_256k();
        let full = c.leakage_power(0.8);
        c.configure_capacity(64.0);
        let quarter = c.leakage_power(0.8);
        assert!(quarter < full);
        assert!((quarter / full - 0.25).abs() < 1e-9);
    }

    #[test]
    fn access_energy_scales_with_accesses_and_voltage() {
        let c = cache_256k();
        assert!(c.access_energy(1000.0, 0.8) > c.access_energy(100.0, 0.8));
        assert!(c.access_energy(1000.0, 0.4) < c.access_energy(1000.0, 0.8));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_geometry_panics() {
        let _ = ReconfigurableCache::new(CacheGeometry::new(64.0, 0));
    }
}
