//! Deterministic incident shrinking.
//!
//! When an execution violates an invariant, the raw scenario is usually
//! far bigger than the defect needs: a 28-app flash crowd whose incident
//! survives with 3 apps, a 64-quantum staircase whose first step is the
//! only one that matters. The shrinker minimises the scenario while the
//! *same incident classes* still reproduce, in three passes repeated to a
//! fixpoint:
//!
//! 1. **drop apps** — ddmin-style: remove halves, then quarters, down to
//!    single apps;
//! 2. **flatten the budget staircase** — all steps at once, else one at a
//!    time;
//! 3. **shorten the horizon** — halve, then walk down by quarters and
//!    single quanta.
//!
//! Every candidate is re-sanitized and re-executed; a candidate is
//! accepted only when its incident labels still cover the target classes.
//! No randomness anywhere, so a shrink is reproducible from the incident
//! scenario alone.

use workloads::{Scenario, MIN_SCENARIO_QUANTA};

use crate::outcome::ScenarioOutcome;

/// Lexicographic shrink cost: apps, then staircase steps, then horizon.
fn cost(scenario: &Scenario) -> (usize, usize, usize) {
    (
        scenario.apps.len(),
        scenario.budget_steps.len(),
        scenario.quanta,
    )
}

/// Executes `candidate` and reports whether every target class still
/// fires. Charges one execution against `budget`; once the budget is
/// exhausted every candidate is rejected, freezing the current best.
fn reproduces<E>(
    candidate: &Scenario,
    classes: &[String],
    executor: &mut E,
    executions: &mut u64,
    max_executions: u64,
) -> bool
where
    E: FnMut(&Scenario) -> ScenarioOutcome,
{
    if *executions >= max_executions || !candidate.is_well_formed() {
        return false;
    }
    *executions += 1;
    let labels = executor(candidate).incident_labels();
    classes.iter().all(|class| labels.contains(class))
}

/// Minimises `scenario` while the incident `classes` keep reproducing.
///
/// Returns the shrunk scenario and the number of candidate executions
/// spent. The input is assumed to reproduce the classes (it is returned
/// unchanged if no smaller candidate does). `max_executions` bounds the
/// total work; the shrink is deterministic for a given executor.
pub fn shrink_incident<E>(
    scenario: &Scenario,
    classes: &[String],
    max_executions: u64,
    executor: &mut E,
) -> (Scenario, u64)
where
    E: FnMut(&Scenario) -> ScenarioOutcome,
{
    let mut best = scenario.clone();
    let mut executions = 0u64;

    loop {
        let before = cost(&best);

        // Pass 1: drop apps, coarsest chunks first.
        let mut chunk = (best.apps.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < best.apps.len() && best.apps.len() > 1 {
                let mut candidate = best.clone();
                let end = (start + chunk).min(candidate.apps.len());
                candidate.apps.drain(start..end);
                if candidate.apps.is_empty() {
                    start += chunk;
                    continue;
                }
                candidate.sanitize();
                if reproduces(
                    &candidate,
                    classes,
                    executor,
                    &mut executions,
                    max_executions,
                ) {
                    best = candidate; // retry the same window on the smaller fleet
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // Pass 2: flatten the budget staircase.
        if !best.budget_steps.is_empty() {
            let mut candidate = best.clone();
            candidate.budget_steps.clear();
            candidate.sanitize();
            if reproduces(
                &candidate,
                classes,
                executor,
                &mut executions,
                max_executions,
            ) {
                best = candidate;
            } else {
                let mut index = 0;
                while index < best.budget_steps.len() {
                    let mut candidate = best.clone();
                    candidate.budget_steps.remove(index);
                    candidate.sanitize();
                    if reproduces(
                        &candidate,
                        classes,
                        executor,
                        &mut executions,
                        max_executions,
                    ) {
                        best = candidate;
                    } else {
                        index += 1;
                    }
                }
            }
        }

        // Pass 3: shorten the horizon.
        loop {
            let quanta = best.quanta;
            let mut shortened = false;
            for target in [quanta / 2, quanta * 3 / 4, quanta - 1] {
                if target < MIN_SCENARIO_QUANTA || target >= quanta {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.quanta = target;
                candidate.sanitize();
                if reproduces(
                    &candidate,
                    classes,
                    executor,
                    &mut executions,
                    max_executions,
                ) {
                    best = candidate;
                    shortened = true;
                    break;
                }
            }
            if !shortened {
                break;
            }
        }

        if cost(&best) == before {
            return (best, executions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::PolicyPathCounters;
    use coordinator::invariants::InvariantViolation;

    /// A synthetic defect: the incident fires iff some app weighs more
    /// than 5 *and* the horizon is at least 10 quanta.
    fn toy_executor(scenario: &Scenario) -> ScenarioOutcome {
        let heavy = scenario.apps.iter().any(|app| app.weight > 5.0);
        let violations = if heavy && scenario.quanta >= 10 {
            vec![InvariantViolation::BudgetExceeded {
                total: 1.0,
                limit: 0.5,
            }]
        } else {
            Vec::new()
        };
        ScenarioOutcome {
            violations,
            counters: PolicyPathCounters::default(),
            apps: scenario.apps.len(),
            racks: scenario.rack_count(),
            cap_violation_fraction: 0.0,
            mean_attainment: 1.0,
            perf_per_watt: 0.01,
            baseline_perf_per_watt: 0.01,
        }
    }

    #[test]
    fn shrinks_to_the_minimal_reproducer() {
        let mut scenario = workloads::vocabulary_mixes(11).swap_remove(0);
        assert!(scenario.apps.len() > 2 && scenario.quanta > 10);
        scenario.apps[3].weight = 7.5; // plant the defect
        assert!(!scenario.budget_steps.is_empty());

        let classes = toy_executor(&scenario).incident_labels();
        assert_eq!(classes, vec!["budget_exceeded".to_string()]);

        let (shrunk, executions) = shrink_incident(&scenario, &classes, 10_000, &mut toy_executor);
        assert_eq!(shrunk.apps.len(), 1, "one heavy app suffices");
        assert!(shrunk.apps[0].weight > 5.0);
        assert!(shrunk.budget_steps.is_empty(), "staircase is irrelevant");
        assert_eq!(shrunk.quanta, 10, "horizon walks down to the threshold");
        assert!(executions > 0);
        assert!(!toy_executor(&shrunk).violations.is_empty());
    }

    #[test]
    fn shrinking_is_deterministic_and_respects_the_execution_budget() {
        let mut scenario = workloads::vocabulary_mixes(11).swap_remove(0);
        scenario.apps[0].weight = 7.9;
        let classes = vec!["budget_exceeded".to_string()];

        let (a, spent_a) = shrink_incident(&scenario, &classes, 10_000, &mut toy_executor);
        let (b, spent_b) = shrink_incident(&scenario, &classes, 10_000, &mut toy_executor);
        assert_eq!(a, b);
        assert_eq!(spent_a, spent_b);

        // A zero budget freezes the input.
        let (frozen, spent) = shrink_incident(&scenario, &classes, 0, &mut toy_executor);
        assert_eq!(frozen, scenario);
        assert_eq!(spent, 0);
    }
}
