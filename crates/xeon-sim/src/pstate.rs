//! ACPI P-state table of the Xeon E5530.

use serde::{Deserialize, Serialize};

/// The discrete clock-frequency states software can select through
/// `cpufrequtils` (DAC 2012 §5.2: seven states from 2.4 GHz down to 1.6 GHz).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PStateTable {
    frequencies: Vec<f64>,
}

impl PStateTable {
    /// The seven P-states of the Xeon E5530, fastest first (index 0 =
    /// 2.4 GHz, index 6 = 1.6 GHz).
    pub fn xeon_e5530() -> Self {
        PStateTable {
            frequencies: vec![
                2.400e9, 2.267e9, 2.133e9, 2.000e9, 1.867e9, 1.733e9, 1.600e9,
            ],
        }
    }

    /// Builds a table from explicit frequencies in hertz, fastest first.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty.
    pub fn new(frequencies: Vec<f64>) -> Self {
        assert!(!frequencies.is_empty(), "P-state table must not be empty");
        PStateTable { frequencies }
    }

    /// Number of selectable states.
    pub fn len(&self) -> usize {
        self.frequencies.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.frequencies.is_empty()
    }

    /// Frequency of state `index`, in hertz.
    pub fn frequency(&self, index: usize) -> Option<f64> {
        self.frequencies.get(index).copied()
    }

    /// The highest frequency in the table, in hertz.
    pub fn max_frequency(&self) -> f64 {
        self.frequencies.iter().copied().fold(0.0, f64::max)
    }

    /// The lowest frequency in the table, in hertz.
    pub fn min_frequency(&self) -> f64 {
        self.frequencies
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// All frequencies, fastest first.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }
}

impl Default for PStateTable {
    fn default() -> Self {
        PStateTable::xeon_e5530()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5530_has_seven_states_spanning_the_paper_range() {
        let table = PStateTable::xeon_e5530();
        assert_eq!(table.len(), 7);
        assert!(!table.is_empty());
        assert_eq!(table.max_frequency(), 2.4e9);
        assert_eq!(table.min_frequency(), 1.6e9);
        assert_eq!(table.frequency(0), Some(2.4e9));
        assert_eq!(table.frequency(6), Some(1.6e9));
        assert_eq!(table.frequency(7), None);
    }

    #[test]
    fn frequencies_are_strictly_decreasing() {
        let table = PStateTable::default();
        for pair in table.frequencies().windows(2) {
            assert!(pair[0] > pair[1]);
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_table_panics() {
        let _ = PStateTable::new(vec![]);
    }
}
