//! The coverage-guided fuzzing loop and its machine-readable report.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use workloads::Scenario;

use coordinator::invariants::InvariantViolation;

use crate::corpus::{Corpus, CorpusEntry};
use crate::mutate::{mutate, MutationLimits, MutationStrategy};
use crate::outcome::ScenarioOutcome;
use crate::shrink::shrink_incident;
use crate::signature::BehaviorSignature;

/// The workspace's seed-mixing constant (same golden-ratio multiplier the
/// experiment cells use to derive per-cell seeds).
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Configuration of one fuzz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Run seed; with the iteration index it fully determines every
    /// mutation drawn.
    pub seed: u64,
    /// Mutation iterations (executions are higher: seeds + shrinking).
    pub iterations: u64,
    /// Mutant size ceilings.
    pub limits: MutationLimits,
    /// Execution budget per incident shrink (0 disables shrinking).
    pub shrink_budget: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 2012,
            iterations: 64,
            limits: MutationLimits::default(),
            shrink_budget: 200,
        }
    }
}

/// One discovered-and-shrunk incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Sorted incident labels that define the class
    /// ([`ScenarioOutcome::incident_labels`]).
    pub classes: Vec<String>,
    /// The shrunk reproducer.
    pub scenario: Scenario,
    /// The violations the shrunk reproducer triggers.
    pub violations: Vec<InvariantViolation>,
    /// The full outcome of the shrunk reproducer's execution.
    pub outcome: ScenarioOutcome,
    /// The mutation strategy that found the original incident (`None`
    /// when a seed scenario already violated).
    pub strategy: Option<String>,
    /// The fuzz iteration of discovery (`None` for seed scenarios).
    pub iteration: Option<u64>,
    /// Apps in the scenario as discovered, before shrinking.
    pub found_apps: usize,
    /// Horizon of the scenario as discovered, before shrinking.
    pub found_quanta: usize,
    /// Candidate executions the shrinker spent.
    pub shrink_executions: u64,
}

/// Per-strategy effectiveness counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyStat {
    /// Strategy name ([`MutationStrategy::name`]).
    pub name: String,
    /// Mutants drawn with this strategy.
    pub attempts: u64,
    /// Mutants that earned a corpus slot.
    pub admitted: u64,
}

/// The machine-readable result of one fuzz run. Deterministic for a given
/// `(seeds, config, executor)` triple — no timestamps, no host state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Run seed ([`FuzzConfig::seed`]).
    pub seed: u64,
    /// Mutation iterations performed.
    pub iterations: u64,
    /// Total scenario executions (seeds + mutants + shrink candidates).
    pub executions: u64,
    /// Corpus entries at the end of the run.
    pub corpus_size: usize,
    /// Sorted signature keys the corpus covers.
    pub signatures: Vec<String>,
    /// Per-strategy effectiveness, in [`MutationStrategy::ALL`] order.
    pub strategies: Vec<StrategyStat>,
    /// Discovered incidents (one per distinct class set), discovery order.
    pub incidents: Vec<Incident>,
}

/// Runs one coverage-guided fuzz campaign.
///
/// `seeds` are sanitized, executed, and admitted first (they are the
/// mutation ancestors); then `config.iterations` mutants are drawn, each
/// from an RNG seeded by `(config.seed, iteration)` so any iteration is
/// reproducible in isolation. Executions that violate an invariant are
/// incidents; the first execution of each distinct class set is shrunk
/// ([`shrink_incident`]) and recorded.
pub fn fuzz<E>(config: &FuzzConfig, seeds: &[Scenario], executor: &mut E) -> (Corpus, FuzzReport)
where
    E: FnMut(&Scenario) -> ScenarioOutcome,
{
    let mut corpus = Corpus::default();
    let mut executions = 0u64;
    let mut incidents: Vec<Incident> = Vec::new();
    let mut seen_classes: Vec<Vec<String>> = Vec::new();
    let mut attempts = [0u64; MutationStrategy::ALL.len()];
    let mut admitted = [0u64; MutationStrategy::ALL.len()];

    let record_incident = |scenario: &Scenario,
                           outcome: &ScenarioOutcome,
                           strategy: Option<MutationStrategy>,
                           iteration: Option<u64>,
                           executions: &mut u64,
                           incidents: &mut Vec<Incident>,
                           seen_classes: &mut Vec<Vec<String>>,
                           executor: &mut E| {
        let classes = outcome.incident_labels();
        if classes.is_empty() || seen_classes.contains(&classes) {
            return;
        }
        seen_classes.push(classes.clone());
        let (shrunk, shrink_executions) =
            shrink_incident(scenario, &classes, config.shrink_budget, executor);
        // One confirmation run captures the shrunk reproducer's own
        // violations and outcome for the report.
        let confirmed = executor(&shrunk);
        *executions += shrink_executions + 1;
        incidents.push(Incident {
            classes,
            violations: confirmed.violations.clone(),
            outcome: confirmed,
            scenario: shrunk,
            strategy: strategy.map(|s| s.name().to_string()),
            iteration,
            found_apps: scenario.apps.len(),
            found_quanta: scenario.quanta,
            shrink_executions,
        });
    };

    // ---- Seed phase: the hand-written and vocabulary mixes come first.
    for seed_scenario in seeds {
        let mut scenario = seed_scenario.clone();
        scenario.apps.truncate(config.limits.max_apps.max(1));
        scenario.quanta = scenario.quanta.min(config.limits.max_quanta);
        scenario.sanitize();
        let outcome = executor(&scenario);
        executions += 1;
        record_incident(
            &scenario,
            &outcome,
            None,
            None,
            &mut executions,
            &mut incidents,
            &mut seen_classes,
            executor,
        );
        corpus.admit(CorpusEntry {
            signature: BehaviorSignature::of(&outcome),
            scenario,
            strategy: None,
            parent: None,
            iteration: None,
        });
    }
    assert!(
        !corpus.is_empty(),
        "fuzzing needs at least one seed scenario"
    );

    // ---- Mutation phase.
    for iteration in 0..config.iterations {
        let mut rng = StdRng::seed_from_u64(
            config
                .seed
                .wrapping_mul(SEED_MIX)
                .wrapping_add(iteration + 1),
        );
        let parent = rng.gen_range(0..corpus.len() as u64) as usize;
        let (mutant, strategy) = mutate(&corpus.entries[parent].scenario, &config.limits, &mut rng);
        let strategy_index = MutationStrategy::ALL
            .iter()
            .position(|&s| s == strategy)
            .expect("strategy is listed");
        attempts[strategy_index] += 1;
        if mutant == corpus.entries[parent].scenario {
            continue; // no-op mutation: nothing new to execute
        }
        let outcome = executor(&mutant);
        executions += 1;
        record_incident(
            &mutant,
            &outcome,
            Some(strategy),
            Some(iteration),
            &mut executions,
            &mut incidents,
            &mut seen_classes,
            executor,
        );
        let kept = corpus.admit(CorpusEntry {
            signature: BehaviorSignature::of(&outcome),
            scenario: mutant,
            strategy: Some(strategy.name().to_string()),
            parent: Some(parent),
            iteration: Some(iteration),
        });
        if kept {
            admitted[strategy_index] += 1;
        }
    }

    let strategies = MutationStrategy::ALL
        .iter()
        .enumerate()
        .map(|(index, strategy)| StrategyStat {
            name: strategy.name().to_string(),
            attempts: attempts[index],
            admitted: admitted[index],
        })
        .collect();
    let report = FuzzReport {
        seed: config.seed,
        iterations: config.iterations,
        executions,
        corpus_size: corpus.len(),
        signatures: corpus.signature_keys(),
        strategies,
        incidents,
    };
    (corpus, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::PolicyPathCounters;

    /// A synthetic probe: deterministic, cheap, with one plantable defect.
    /// Every generated seed mix keeps weights at or below the 4.0 priority
    /// tier, so the defect (an app heavier than 5) is reachable only by
    /// mutation — exactly the discovery path the fuzzer must prove out.
    fn toy_executor(scenario: &Scenario) -> ScenarioOutcome {
        let total_weight: f64 = scenario.apps.iter().map(|app| app.weight).sum();
        let violations = if scenario.apps.iter().any(|app| app.weight > 5.0) {
            vec![InvariantViolation::CapViolation {
                meter: "machine".to_string(),
                fraction: 0.5,
                limit: 0.0,
            }]
        } else {
            Vec::new()
        };
        let quanta = scenario.quanta as u64;
        ScenarioOutcome {
            violations,
            counters: PolicyPathCounters {
                decisions: quanta * scenario.apps.len() as u64,
                goal_met: quanta * scenario.apps.len() as u64 / 2,
                goal_unknown: quanta,
                budget_steps: scenario.budget_steps.len() as u64,
                ..PolicyPathCounters::default()
            },
            apps: scenario.apps.len(),
            racks: scenario.rack_count(),
            cap_violation_fraction: (total_weight / 48.0).min(1.0),
            mean_attainment: (24.0 / total_weight.max(1.0)).min(1.0),
            perf_per_watt: 0.01,
            baseline_perf_per_watt: 0.008,
        }
    }

    fn run(seed: u64) -> (Corpus, FuzzReport) {
        let config = FuzzConfig {
            seed,
            iterations: 120,
            ..FuzzConfig::default()
        };
        let seeds = workloads::vocabulary_mixes(seed);
        fuzz(&config, &seeds, &mut toy_executor)
    }

    #[test]
    fn same_seed_and_budget_give_byte_identical_corpus_and_report() {
        let (corpus_a, report_a) = run(2012);
        let (corpus_b, report_b) = run(2012);
        assert_eq!(corpus_a, corpus_b);
        assert_eq!(report_a, report_b);
        assert_eq!(
            serde_json::to_string(&report_a).unwrap(),
            serde_json::to_string(&report_b).unwrap()
        );

        let (_, report_c) = run(2013);
        assert_ne!(
            report_a, report_c,
            "different run seeds must explore differently"
        );
    }

    #[test]
    fn coverage_grows_and_incidents_are_discovered_and_shrunk() {
        let (corpus, report) = run(2012);
        assert!(
            corpus.len() > workloads::vocabulary_mixes(2012).len(),
            "mutation must add coverage beyond the seeds"
        );
        assert_eq!(report.corpus_size, corpus.len());
        assert_eq!(report.signatures.len(), corpus.len());
        assert!(report.executions >= report.iterations);

        // The planted defect (one app heavier than weight 5) is reachable
        // only by mutation from the vocabulary seeds (all tiers are ≤ 4)
        // and must be found and shrunk to its 1-app minimal form.
        let incident = report
            .incidents
            .iter()
            .find(|incident| incident.classes == vec!["cap_violation:machine".to_string()])
            .expect("the planted over-weight defect is discovered");
        assert!(
            incident.iteration.is_some(),
            "found by mutation, not a seed"
        );
        assert!(incident.found_apps >= incident.scenario.apps.len());
        assert!(!incident.violations.is_empty());
        assert_eq!(incident.scenario.apps.len(), 1, "one heavy app suffices");
        assert!(incident.scenario.apps[0].weight > 5.0);
        assert!(incident.scenario.budget_steps.is_empty());
        assert_eq!(
            incident.scenario.quanta,
            workloads::MIN_SCENARIO_QUANTA,
            "the horizon is irrelevant to this defect and shrinks to the floor"
        );
    }

    #[test]
    fn json_report_round_trips() {
        let (_, report) = run(5);
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: FuzzReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }
}
