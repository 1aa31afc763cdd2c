//! What one execution of a scenario reports back to the fuzzer.

use coordinator::invariants::InvariantViolation;
use serde::{Deserialize, Serialize};

/// Counters over the control paths one execution took — the fuzzer's
/// stand-in for branch coverage. Two scenarios that tickle different
/// arbitration behavior (goals missed instead of met, a hierarchy instead
/// of a flat coordinator, budget steps firing) land in different buckets
/// even when neither violates an invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyPathCounters {
    /// Per-app cap decisions taken across the run.
    pub decisions: u64,
    /// Decisions whose observation window met the performance goal.
    pub goal_met: u64,
    /// Decisions whose observation window missed the goal.
    pub goal_missed: u64,
    /// Decisions taken before enough was observed to judge the goal.
    pub goal_unknown: u64,
    /// Applications that registered mid-run (arrival quantum > 0 included).
    pub arrivals: u64,
    /// Applications that retired before the horizon.
    pub departures: u64,
    /// Quanta at which the budget staircase changed the cap in force.
    pub budget_steps: u64,
    /// Whether the run arbitrated through the rack → datacenter hierarchy.
    pub hierarchical: bool,
}

/// The result of executing one scenario through a probe.
///
/// The executor owns all simulation policy (which arms run, which
/// [`coordinator::invariants`] limits apply); the fuzzer only reads this
/// summary. `violations` empty means the run was clean; non-empty means
/// the scenario is an *incident* worth shrinking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Invariant violations the probe's oracles reported (deduplicated by
    /// the probe; order is the probe's discovery order).
    pub violations: Vec<InvariantViolation>,
    /// Control-path counters for behavior-signature bucketing.
    pub counters: PolicyPathCounters,
    /// Applications in the executed scenario.
    pub apps: usize,
    /// Racks the scenario's apps were partitioned into.
    pub racks: usize,
    /// Fraction of simulated time the coordinated machine total exceeded
    /// the budget in force.
    pub cap_violation_fraction: f64,
    /// Mean over apps of `min(rate/target, 1)` in the coordinated run.
    pub mean_attainment: f64,
    /// Coordinated goal-weighted throughput per watt above idle.
    pub perf_per_watt: f64,
    /// The same metric for the uncoordinated baseline (0 when the probe
    /// did not run one).
    pub baseline_perf_per_watt: f64,
}

impl ScenarioOutcome {
    /// The sorted, deduplicated incident labels of this execution — the
    /// key under which an incident class is discovered, shrunk, and
    /// pinned. Empty for a clean run.
    pub fn incident_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.violations.iter().map(violation_label).collect();
        labels.sort();
        labels.dedup();
        labels
    }
}

/// A machine-stable label for one violation, slightly finer than
/// [`InvariantViolation::class`]: cap violations carry the meter name
/// (`cap_violation:machine` vs `cap_violation:rack`), because blowing the
/// enforced machine cap and overdrawing an audited-only rack envelope are
/// different incidents with different fixes.
pub fn violation_label(violation: &InvariantViolation) -> String {
    match violation {
        InvariantViolation::CapViolation { meter, .. } => {
            format!("{}:{meter}", violation.class())
        }
        other => other.class().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_sorted_deduplicated_and_meter_qualified() {
        let outcome = ScenarioOutcome {
            violations: vec![
                InvariantViolation::CapViolation {
                    meter: "rack".to_string(),
                    fraction: 0.3,
                    limit: 0.0,
                },
                InvariantViolation::BudgetExceeded {
                    total: 101.0,
                    limit: 100.0,
                },
                InvariantViolation::CapViolation {
                    meter: "rack".to_string(),
                    fraction: 0.4,
                    limit: 0.0,
                },
            ],
            counters: PolicyPathCounters::default(),
            apps: 3,
            racks: 2,
            cap_violation_fraction: 0.0,
            mean_attainment: 1.0,
            perf_per_watt: 0.01,
            baseline_perf_per_watt: 0.005,
        };
        assert_eq!(
            outcome.incident_labels(),
            vec![
                "budget_exceeded".to_string(),
                "cap_violation:rack".to_string()
            ]
        );
    }
}
