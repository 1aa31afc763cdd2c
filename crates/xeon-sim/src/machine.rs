//! Machine-level power accounting across many applications.
//!
//! One server hosts many self-aware applications at once; the platform —
//! not any single application — owns the machine's power budget. A
//! [`MachineMeter`] plays that role in the simulation: every quantum, the
//! experiment driver reports each application's power draw and the meter
//! accumulates the machine total, tracking how much of the run violated the
//! configured cap. The per-application samples still flow into each
//! application's own heartbeat monitor; the machine meter is the shared view
//! an arbitration layer is judged against.

use serde::{Deserialize, Serialize};

/// Accumulates machine-level (summed across applications) power over a run
/// and reports cap violations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineMeter {
    cap_watts: f64,
    seconds: f64,
    energy_joules: f64,
    violation_seconds: f64,
    peak_watts: f64,
    violation_intervals: u64,
}

impl MachineMeter {
    /// A meter enforcing (observing, really — the meter never throttles)
    /// a machine-level cap of `cap_watts`.
    ///
    /// # Panics
    ///
    /// Panics unless the cap is positive (use `f64::INFINITY` for an
    /// uncapped machine).
    pub fn new(cap_watts: f64) -> Self {
        assert!(cap_watts > 0.0, "machine power cap must be positive");
        MachineMeter {
            cap_watts,
            seconds: 0.0,
            energy_joules: 0.0,
            violation_seconds: 0.0,
            peak_watts: 0.0,
            violation_intervals: 0,
        }
    }

    /// The configured cap, in watts.
    pub fn cap_watts(&self) -> f64 {
        self.cap_watts
    }

    /// Steps the cap mid-run (operator- or rack-level power management).
    /// Already-recorded intervals keep the verdicts of the cap in force
    /// when they were recorded; only future intervals are judged against
    /// the new cap.
    ///
    /// # Panics
    ///
    /// Panics unless the cap is positive (`f64::INFINITY` = uncapped).
    pub fn set_cap(&mut self, cap_watts: f64) {
        assert!(cap_watts > 0.0, "machine power cap must be positive");
        self.cap_watts = cap_watts;
    }

    /// Records that the machine drew `total_watts` (summed across every
    /// application) for `seconds` of simulated time. Non-positive durations
    /// are ignored.
    pub fn record(&mut self, seconds: f64, total_watts: f64) {
        if seconds.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        self.seconds += seconds;
        self.energy_joules += total_watts * seconds;
        self.peak_watts = self.peak_watts.max(total_watts);
        if total_watts > self.cap_watts {
            self.violation_seconds += seconds;
            self.violation_intervals += 1;
        }
    }

    /// Total simulated time observed, in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.seconds
    }

    /// Time-weighted mean machine power, in watts (0 before any interval).
    pub fn mean_watts(&self) -> f64 {
        if self.seconds > 0.0 {
            self.energy_joules / self.seconds
        } else {
            0.0
        }
    }

    /// Highest interval power observed, in watts.
    pub fn peak_watts(&self) -> f64 {
        self.peak_watts
    }

    /// Fraction of observed *time* spent above the cap, in `[0, 1]`.
    pub fn violation_rate(&self) -> f64 {
        if self.seconds > 0.0 {
            self.violation_seconds / self.seconds
        } else {
            0.0
        }
    }

    /// Number of recorded intervals above the cap, exposed so telemetry can
    /// count violations incrementally (before/after deltas around a record).
    pub fn violation_intervals(&self) -> u64 {
        self.violation_intervals
    }

    /// Whether any recorded interval exceeded the cap.
    pub fn violated(&self) -> bool {
        self.violation_intervals > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_means_accumulate() {
        let mut meter = MachineMeter::new(100.0);
        meter.record(1.0, 60.0);
        meter.record(3.0, 80.0);
        assert_eq!(meter.cap_watts(), 100.0);
        assert_eq!(meter.elapsed_seconds(), 4.0);
        assert!((meter.mean_watts() - (60.0 + 240.0) / 4.0).abs() < 1e-12);
        assert_eq!(meter.peak_watts(), 80.0);
        assert!(!meter.violated());
        assert_eq!(meter.violation_rate(), 0.0);
    }

    #[test]
    fn violations_are_tracked_by_time_and_interval() {
        let mut meter = MachineMeter::new(100.0);
        meter.record(1.0, 90.0); // under
        meter.record(1.0, 120.0); // over by 20 W for 1 s
        meter.record(2.0, 110.0); // over by 10 W for 2 s
        assert!(meter.violated());
        assert!((meter.violation_rate() - 3.0 / 4.0).abs() < 1e-12);
        assert_eq!(meter.violation_intervals(), 2);
        assert_eq!(meter.peak_watts(), 120.0);
    }

    #[test]
    fn degenerate_durations_are_ignored() {
        let mut meter = MachineMeter::new(100.0);
        meter.record(0.0, 500.0);
        meter.record(-1.0, 500.0);
        assert_eq!(meter.mean_watts(), 0.0);
        assert_eq!(meter.violation_intervals(), 0);
        assert!(!meter.violated());
    }

    #[test]
    fn stepping_the_cap_rejudges_only_future_intervals() {
        let mut meter = MachineMeter::new(100.0);
        meter.record(1.0, 90.0); // under the 100 W cap
        meter.set_cap(50.0);
        assert_eq!(meter.cap_watts(), 50.0);
        meter.record(1.0, 90.0); // over the new 50 W cap
        assert!((meter.violation_rate() - 0.5).abs() < 1e-12);
        assert_eq!(meter.violation_intervals(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_cap_step_panics() {
        let mut meter = MachineMeter::new(100.0);
        meter.set_cap(-1.0);
    }

    #[test]
    fn infinite_cap_never_violates() {
        let mut meter = MachineMeter::new(f64::INFINITY);
        meter.record(1.0, 1.0e9);
        assert!(!meter.violated());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_cap_panics() {
        let _ = MachineMeter::new(0.0);
    }
}
