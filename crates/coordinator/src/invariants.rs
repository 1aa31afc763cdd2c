//! The invariant oracle layer: every property the coordination stack is
//! supposed to uphold, stated once and shared by the proptest suites, the
//! scenario fuzzer, and CI.
//!
//! The checks split into two families:
//!
//! * **Arbitration-step invariants** — properties of a single award vector
//!   ([`check_award_vector`], [`check_budget_conservation`],
//!   [`check_summary_total`], [`check_hierarchy_conservation`]). These are
//!   the pins the `arbitration`/`lifecycle`/`hierarchy` property suites
//!   assert every generated step; the fuzzer asserts them every simulated
//!   quantum.
//! * **Run-level oracles** — properties of a whole execution
//!   ([`check_cap_violation`], [`check_starvation`], [`OscillationTracker`],
//!   [`check_perf_per_watt_cliff`]). These judge a finished scenario run:
//!   did the machine hold its cap, did every weighted app make progress,
//!   did arbitration settle, did coordination at least not fall off a
//!   cliff relative to running uncoordinated?
//!
//! Every check returns [`InvariantViolation`] values rather than panicking,
//! so the same oracle can drive a `prop_assert!`, a fuzzer's incident
//! report, or a CI gate. Violations serialise as JSON (via the vendored
//! serde) for machine-readable incident reports.
//!
//! Tolerances are **relative** (`limit * (1 +` [`REL_TOL`]`)`), never
//! looser than the absolute slacks the original property suites used, so
//! extracting the checks here did not weaken any pinned property.

use serde::{Deserialize, Serialize};

/// Relative tolerance for floating-point sum comparisons: a total
/// "conserves" a limit when it is at most `limit * (1.0 + REL_TOL)`.
pub const REL_TOL: f64 = 1e-9;

/// Absolute tolerance for per-award ceiling comparisons (matches the
/// arbitration property suite's historical `+ 1e-9` slack).
pub const CEILING_TOL: f64 = 1e-9;

/// One violated invariant, with enough context to report and triage.
///
/// The serialised form (externally-tagged JSON) is the vocabulary of the
/// scenario fuzzer's incident reports and the regression corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InvariantViolation {
    /// An award was NaN or infinite.
    NonFiniteAward {
        /// Registration-order index of the awarded app (or rack).
        index: usize,
    },
    /// An award was negative.
    NegativeAward {
        /// Registration-order index of the awarded app (or rack).
        index: usize,
        /// The offending award, in watts.
        award: f64,
    },
    /// An absent (not-yet-arrived, departed, or retired) app was awarded
    /// a non-zero envelope.
    InactiveAwarded {
        /// Registration-order index of the awarded app (or rack).
        index: usize,
        /// The offending award, in watts.
        award: f64,
    },
    /// An award exceeded the app's declared absorption ceiling.
    AwardAboveCeiling {
        /// Registration-order index of the awarded app.
        index: usize,
        /// The offending award, in watts.
        award: f64,
        /// The app's declared ceiling, in watts.
        ceiling: f64,
    },
    /// A sum of awards exceeded the budget (or envelope) it must conserve.
    BudgetExceeded {
        /// The summed awards, in watts.
        total: f64,
        /// The budget the total must stay within, in watts.
        limit: f64,
    },
    /// A step summary's reported total disagreed with the awards it
    /// summarises.
    SummaryMismatch {
        /// The total the summary reported, in watts.
        reported: f64,
        /// The total recomputed from the award vector, in watts.
        recomputed: f64,
    },
    /// The machine (or a rack) spent more than the tolerated fraction of
    /// intervals above its power cap.
    CapViolation {
        /// Which meter violated (e.g. `"machine"`, `"rack-2"`).
        meter: String,
        /// Fraction of recorded intervals above the cap, in `[0, 1]`.
        fraction: f64,
        /// The tolerated fraction.
        limit: f64,
    },
    /// A positively-weighted app stayed far below its performance goal for
    /// its whole residency.
    Starvation {
        /// The starved app's name.
        app: String,
        /// Goal attainment over the app's residency, in `[0, 1]`.
        attainment: f64,
        /// The attainment floor below which residency counts as starved.
        floor: f64,
    },
    /// An app's awarded envelope kept reversing direction: arbitration
    /// never settled.
    Oscillation {
        /// The oscillating app's name.
        app: String,
        /// Direction flips per observed award transition, in `[0, 1]`.
        flip_rate: f64,
        /// The tolerated flip rate.
        limit: f64,
    },
    /// Coordinated execution fell below the tolerated fraction of the
    /// uncoordinated baseline's performance per watt.
    PerfPerWattCliff {
        /// Coordinated goal-weighted performance per watt.
        coordinated: f64,
        /// Uncoordinated-baseline goal-weighted performance per watt.
        baseline: f64,
        /// Minimum tolerated `coordinated / baseline` ratio.
        floor_ratio: f64,
    },
}

impl InvariantViolation {
    /// A short machine-stable label for the violation class, used to
    /// fingerprint behaviour signatures and bucket incidents.
    pub fn class(&self) -> &'static str {
        match self {
            InvariantViolation::NonFiniteAward { .. } => "non_finite_award",
            InvariantViolation::NegativeAward { .. } => "negative_award",
            InvariantViolation::InactiveAwarded { .. } => "inactive_awarded",
            InvariantViolation::AwardAboveCeiling { .. } => "award_above_ceiling",
            InvariantViolation::BudgetExceeded { .. } => "budget_exceeded",
            InvariantViolation::SummaryMismatch { .. } => "summary_mismatch",
            InvariantViolation::CapViolation { .. } => "cap_violation",
            InvariantViolation::Starvation { .. } => "starvation",
            InvariantViolation::Oscillation { .. } => "oscillation",
            InvariantViolation::PerfPerWattCliff { .. } => "perf_per_watt_cliff",
        }
    }
}

/// What the award-vector checks need to know about one awarded entity
/// (an app, or a rack when judging datacenter-level awards).
#[derive(Debug, Clone, Copy)]
pub struct AwardedApp {
    /// Whether the entity was present/active at the judged quantum.
    pub active: bool,
    /// The entity's absorption ceiling in watts, when it declared one.
    pub ceiling: Option<f64>,
}

impl AwardedApp {
    /// An active app with no declared ceiling.
    pub fn active() -> Self {
        AwardedApp {
            active: true,
            ceiling: None,
        }
    }

    /// An absent app (must be awarded exactly 0 W).
    pub fn absent() -> Self {
        AwardedApp {
            active: false,
            ceiling: None,
        }
    }

    /// Adds a declared absorption ceiling, in watts.
    pub fn with_ceiling(mut self, ceiling: f64) -> Self {
        self.ceiling = Some(ceiling);
        self
    }
}

/// Checks the per-award invariants of one arbitration step: every award is
/// finite and non-negative, absent apps are awarded exactly 0 W, and no
/// award exceeds its app's declared ceiling (plus [`CEILING_TOL`]).
///
/// `apps` pairs positionally with `awards`; when the vectors disagree in
/// length only the common prefix is judged (the caller's length mismatch
/// is its own bug, caught by its own assertions).
pub fn check_award_vector(awards: &[f64], apps: &[AwardedApp]) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    for (index, (&award, app)) in awards.iter().zip(apps).enumerate() {
        if !award.is_finite() {
            violations.push(InvariantViolation::NonFiniteAward { index });
            continue;
        }
        if award < 0.0 {
            violations.push(InvariantViolation::NegativeAward { index, award });
        }
        if !app.active && award != 0.0 {
            violations.push(InvariantViolation::InactiveAwarded { index, award });
        }
        if let Some(ceiling) = app.ceiling {
            if award > ceiling + CEILING_TOL {
                violations.push(InvariantViolation::AwardAboveCeiling {
                    index,
                    award,
                    ceiling,
                });
            }
        }
    }
    violations
}

/// Sums the awards of active apps (the total that must conserve the
/// budget; absent apps' awards are separately pinned to zero by
/// [`check_award_vector`]).
pub fn active_total(awards: &[f64], apps: &[AwardedApp]) -> f64 {
    awards
        .iter()
        .zip(apps)
        .filter(|(_, app)| app.active)
        .map(|(&award, _)| award)
        .sum()
}

/// Checks that a summed award total conserves its budget to within
/// [`REL_TOL`]. `limit` is whatever the caller's contract says the sum
/// must respect — the raw budget for policy-level awards, the headroomed
/// budget (`budget * 0.95`) for coordinator-level awards, a rack's awarded
/// envelope for its fleet.
pub fn check_budget_conservation(total: f64, limit: f64) -> Option<InvariantViolation> {
    if total > limit * (1.0 + REL_TOL) {
        Some(InvariantViolation::BudgetExceeded { total, limit })
    } else {
        None
    }
}

/// Checks that a step summary's reported award total matches the total
/// recomputed from the award vector, to within [`REL_TOL`] relative (with
/// a 1 W reference floor so zero-award steps compare absolutely).
pub fn check_summary_total(reported: f64, recomputed: f64) -> Option<InvariantViolation> {
    if (reported - recomputed).abs() > REL_TOL * recomputed.abs().max(1.0) {
        Some(InvariantViolation::SummaryMismatch {
            reported,
            recomputed,
        })
    } else {
        None
    }
}

/// The totals of one hierarchical (datacenter → rack → app) step.
#[derive(Debug, Clone)]
pub struct HierarchyTotals {
    /// The datacenter-level budget, in watts.
    pub budget: f64,
    /// Per-rack awarded envelopes, in registration order.
    pub rack_envelopes: Vec<f64>,
    /// Per-rack sums of app awards, in the same order.
    pub rack_fleet_totals: Vec<f64>,
    /// The headroom factor each rack applies before splitting its envelope
    /// across apps (0.95 for the shipped coordinator).
    pub headroom: f64,
}

/// Checks end-to-end budget conservation through the hierarchy: rack
/// envelopes conserve the datacenter budget, each rack's fleet conserves
/// its headroomed envelope, and the datacenter-wide app total conserves
/// the headroomed budget.
pub fn check_hierarchy_conservation(totals: &HierarchyTotals) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    let envelope_total: f64 = totals.rack_envelopes.iter().sum();
    violations.extend(check_budget_conservation(envelope_total, totals.budget));
    for (&fleet, &envelope) in totals.rack_fleet_totals.iter().zip(&totals.rack_envelopes) {
        violations.extend(check_budget_conservation(fleet, envelope * totals.headroom));
    }
    let app_total: f64 = totals.rack_fleet_totals.iter().sum();
    violations.extend(check_budget_conservation(
        app_total,
        totals.budget * totals.headroom,
    ));
    violations
}

/// Checks the observed cap-violation interval fraction against the
/// tolerated limit.
pub fn check_cap_violation(meter: &str, fraction: f64, limit: f64) -> Option<InvariantViolation> {
    if fraction > limit {
        Some(InvariantViolation::CapViolation {
            meter: meter.to_string(),
            fraction,
            limit,
        })
    } else {
        None
    }
}

/// Checks one app's goal attainment against the starvation floor.
pub fn check_starvation(app: &str, attainment: f64, floor: f64) -> Option<InvariantViolation> {
    if attainment < floor {
        Some(InvariantViolation::Starvation {
            app: app.to_string(),
            attainment,
            floor,
        })
    } else {
        None
    }
}

/// Checks coordinated perf/W against the uncoordinated baseline: a run is
/// a cliff when `coordinated < floor_ratio * baseline` (with a positive
/// baseline; a zero-perf baseline judges nothing).
pub fn check_perf_per_watt_cliff(
    coordinated: f64,
    baseline: f64,
    floor_ratio: f64,
) -> Option<InvariantViolation> {
    if baseline > 0.0 && coordinated < floor_ratio * baseline {
        Some(InvariantViolation::PerfPerWattCliff {
            coordinated,
            baseline,
            floor_ratio,
        })
    } else {
        None
    }
}

/// Counts direction flips in one app's awarded-envelope time series.
///
/// A *flip* is a change of direction between consecutive material moves:
/// the award rose by more than the noise threshold, then fell by more than
/// it (or vice versa). Sub-threshold drift is ignored, so steady-state
/// dither around a settled envelope does not count as oscillation — only
/// genuine re-arbitration reversals do.
#[derive(Debug, Clone)]
pub struct OscillationTracker {
    threshold: f64,
    last: Option<f64>,
    direction: i8,
    flips: usize,
    transitions: usize,
}

impl OscillationTracker {
    /// A tracker that ignores award moves smaller than `threshold` watts.
    pub fn new(threshold: f64) -> Self {
        OscillationTracker {
            threshold: threshold.max(0.0),
            last: None,
            direction: 0,
            flips: 0,
            transitions: 0,
        }
    }

    /// Feeds the next quantum's awarded envelope.
    pub fn observe(&mut self, award: f64) {
        if let Some(last) = self.last {
            self.transitions += 1;
            let delta = award - last;
            if delta.abs() > self.threshold {
                let direction = if delta > 0.0 { 1 } else { -1 };
                if self.direction != 0 && direction != self.direction {
                    self.flips += 1;
                }
                self.direction = direction;
            } else {
                // Sub-threshold move: keep the old direction, but advance
                // the anchor so slow ramps are not misread as flips.
                return;
            }
        }
        self.last = Some(award);
    }

    /// Direction flips observed so far.
    pub fn flips(&self) -> usize {
        self.flips
    }

    /// Award transitions observed so far (observations minus one).
    pub fn transitions(&self) -> usize {
        self.transitions
    }

    /// Flips per observed transition, in `[0, 1]` (0 before two samples).
    pub fn flip_rate(&self) -> f64 {
        if self.transitions > 0 {
            self.flips as f64 / self.transitions as f64
        } else {
            0.0
        }
    }

    /// Judges the observed flip rate against the tolerated limit.
    pub fn check(&self, app: &str, limit: f64) -> Option<InvariantViolation> {
        if self.flip_rate() > limit {
            Some(InvariantViolation::Oscillation {
                app: app.to_string(),
                flip_rate: self.flip_rate(),
                limit,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn award_vector_flags_each_pathology_once() {
        let apps = [
            AwardedApp::active(),
            AwardedApp::absent(),
            AwardedApp::active().with_ceiling(5.0),
            AwardedApp::active(),
        ];
        let awards = [f64::NAN, 1.0, 5.5, -2.0];
        let violations = check_award_vector(&awards, &apps);
        let classes: Vec<&str> = violations.iter().map(InvariantViolation::class).collect();
        assert_eq!(
            classes,
            vec![
                "non_finite_award",
                "inactive_awarded",
                "award_above_ceiling",
                "negative_award"
            ]
        );
    }

    #[test]
    fn clean_award_vector_passes() {
        let apps = [
            AwardedApp::active().with_ceiling(10.0),
            AwardedApp::absent(),
        ];
        assert!(check_award_vector(&[10.0, 0.0], &apps).is_empty());
        assert_eq!(active_total(&[10.0, 0.0], &apps), 10.0);
    }

    #[test]
    fn budget_conservation_is_relative() {
        assert!(check_budget_conservation(100.0, 100.0).is_none());
        assert!(check_budget_conservation(100.0 + 1e-8, 100.0).is_none());
        assert!(check_budget_conservation(100.1, 100.0).is_some());
        assert!(check_budget_conservation(0.0, 0.0).is_none());
        assert!(check_budget_conservation(1e-12, 0.0).is_some());
    }

    #[test]
    fn summary_totals_compare_with_a_unit_floor() {
        assert!(check_summary_total(10.0, 10.0 + 1e-10).is_none());
        assert!(check_summary_total(10.0, 10.1).is_some());
        assert!(check_summary_total(0.0, 1e-10).is_none());
    }

    #[test]
    fn hierarchy_conservation_checks_every_level() {
        let clean = HierarchyTotals {
            budget: 100.0,
            rack_envelopes: vec![60.0, 40.0],
            rack_fleet_totals: vec![57.0, 38.0],
            headroom: 0.95,
        };
        assert!(check_hierarchy_conservation(&clean).is_empty());

        let rack_overdraw = HierarchyTotals {
            rack_fleet_totals: vec![59.0, 38.0],
            ..clean.clone()
        };
        let violations = check_hierarchy_conservation(&rack_overdraw);
        // 59 > 57 (rack 0's headroomed envelope) and the app total 97 >
        // 95 (the headroomed budget): two violations.
        assert_eq!(violations.len(), 2);

        let envelope_overdraw = HierarchyTotals {
            rack_envelopes: vec![70.0, 40.0],
            rack_fleet_totals: vec![0.0, 0.0],
            ..clean
        };
        assert_eq!(check_hierarchy_conservation(&envelope_overdraw).len(), 1);
    }

    #[test]
    fn run_level_oracles_judge_thresholds() {
        assert!(check_cap_violation("machine", 0.0, 0.0).is_none());
        assert!(check_cap_violation("machine", 0.05, 0.0).is_some());
        assert!(check_starvation("barnes-0", 0.9, 0.25).is_none());
        assert!(check_starvation("barnes-0", 0.1, 0.25).is_some());
        assert!(check_perf_per_watt_cliff(1.0, 1.0, 0.5).is_none());
        assert!(check_perf_per_watt_cliff(0.4, 1.0, 0.5).is_some());
        assert!(check_perf_per_watt_cliff(0.0, 0.0, 0.5).is_none());
    }

    #[test]
    fn oscillation_counts_material_reversals_only() {
        let mut tracker = OscillationTracker::new(1.0);
        for award in [10.0, 20.0, 10.0, 20.0, 10.0] {
            tracker.observe(award);
        }
        assert_eq!(tracker.flips(), 3);
        assert_eq!(tracker.transitions(), 4);
        assert!(tracker.check("app", 0.5).is_some());

        // Sub-threshold dither around a settled award is not oscillation.
        let mut settled = OscillationTracker::new(1.0);
        for award in [10.0, 10.5, 9.8, 10.2, 9.9] {
            settled.observe(award);
        }
        assert_eq!(settled.flips(), 0);
        assert!(settled.check("app", 0.0).is_none());

        // A monotone ramp never flips even though every move is material.
        let mut ramp = OscillationTracker::new(1.0);
        for award in [0.0, 5.0, 10.0, 15.0] {
            ramp.observe(award);
        }
        assert_eq!(ramp.flips(), 0);
    }

    #[test]
    fn violations_serialise_for_incident_reports() {
        let violation = InvariantViolation::BudgetExceeded {
            total: 101.0,
            limit: 100.0,
        };
        let text = serde_json::to_string(&violation).unwrap();
        assert_eq!(
            text,
            "{\"BudgetExceeded\":{\"total\":101.0,\"limit\":100.0}}"
        );
        let back: InvariantViolation = serde_json::from_str(&text).unwrap();
        assert_eq!(back, violation);
    }
}
