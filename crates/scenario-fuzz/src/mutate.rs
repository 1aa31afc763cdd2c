//! Mutation strategies over [`Scenario`] specs.
//!
//! Four named strategies, weighted toward small steps:
//!
//! * **nudge** — one small perturbation of one knob (a quantum count, a
//!   budget fraction, one app's arrival/departure/weight/target/rack, one
//!   staircase step).
//! * **swap** — two apps exchange one attribute (weights, residency
//!   windows, racks, or workloads), preserving aggregate load while
//!   re-partitioning it.
//! * **duplicate-app** — clones an app with a fresh workload seed and a
//!   shifted arrival: the cheapest way to grow arrival bursts.
//! * **fault-plan** — edits the scenario's [`workloads::FaultPlan`]:
//!   schedules a fresh fault (stall, crash, freeze, NaN, misreport)
//!   against a random app, perturbs an existing fault's window or factor,
//!   or removes one. The only strategy that grows misbehaviour, so
//!   fault-free corpus entries stay fault-free under the other four.
//! * **havoc** — several random heavy edits at once (field rewrites,
//!   app/step insertion and removal, horizon rewrites, fault edits).
//!
//! Every mutant is clamped to the fuzzer's [`MutationLimits`] and repaired
//! by [`Scenario::sanitize`], so executors only ever see well-formed
//! scenarios; the interesting part of the search happens *inside* the
//! valid envelope, not against spec validation.

use rand::rngs::StdRng;
use rand::Rng;
use workloads::{
    AppFault, BudgetStep, FaultKind, Scenario, SplashBenchmark, MAX_ARBITRATION_TOLERANCE,
    MAX_MISREPORT_FACTOR, MAX_SCENARIO_QUANTA, MAX_SCENARIO_RACKS, MAX_WAKE_HORIZON,
    MAX_WAKE_STEADY_QUANTA, MIN_MISREPORT_FACTOR, MIN_SCENARIO_QUANTA,
};

/// The named mutation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationStrategy {
    /// One small perturbation of one knob.
    Nudge,
    /// Two apps exchange one attribute.
    Swap,
    /// Clone an app with a fresh seed and shifted arrival.
    DuplicateApp,
    /// Schedule, perturb, or remove one fault in the fault plan.
    FaultPlan,
    /// Several random heavy edits at once.
    Havoc,
}

impl MutationStrategy {
    /// Every strategy, in reporting order.
    pub const ALL: [MutationStrategy; 5] = [
        MutationStrategy::Nudge,
        MutationStrategy::Swap,
        MutationStrategy::DuplicateApp,
        MutationStrategy::FaultPlan,
        MutationStrategy::Havoc,
    ];

    /// The strategy's stable name (used in corpus entries and reports).
    pub fn name(self) -> &'static str {
        match self {
            MutationStrategy::Nudge => "nudge",
            MutationStrategy::Swap => "swap",
            MutationStrategy::DuplicateApp => "duplicate-app",
            MutationStrategy::FaultPlan => "fault-plan",
            MutationStrategy::Havoc => "havoc",
        }
    }
}

/// Size ceilings the fuzzer imposes on mutants, independent of the looser
/// [`Scenario::sanitize`] envelope — execution cost scales with both apps
/// and quanta, and a time-boxed fuzz run wants many iterations more than
/// it wants huge ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationLimits {
    /// Most applications a mutant may hold.
    pub max_apps: usize,
    /// Longest horizon (quanta) a mutant may run.
    pub max_quanta: usize,
}

impl Default for MutationLimits {
    fn default() -> Self {
        MutationLimits {
            max_apps: 32,
            max_quanta: 96,
        }
    }
}

/// Applies one randomly chosen strategy to `scenario`, returning the
/// sanitized mutant and the strategy used. Deterministic given `rng`.
pub fn mutate(
    scenario: &Scenario,
    limits: &MutationLimits,
    rng: &mut StdRng,
) -> (Scenario, MutationStrategy) {
    let strategy = match rng.gen_range(0u64..100) {
        0..=34 => MutationStrategy::Nudge,
        35..=54 => MutationStrategy::Swap,
        55..=69 => MutationStrategy::DuplicateApp,
        70..=79 => MutationStrategy::FaultPlan,
        _ => MutationStrategy::Havoc,
    };
    let mut mutant = scenario.clone();
    match strategy {
        MutationStrategy::Nudge => nudge_once(&mut mutant, rng),
        MutationStrategy::Swap => swap(&mut mutant, rng),
        MutationStrategy::DuplicateApp => duplicate_app(&mut mutant, rng),
        MutationStrategy::FaultPlan => mutate_fault_plan(&mut mutant, rng),
        MutationStrategy::Havoc => havoc(&mut mutant, limits, rng),
    }
    clamp(&mut mutant, limits);
    (mutant, strategy)
}

/// Shifts `value` by a uniform offset in `[-span, span]`, clamped at 0.
fn shift(value: usize, span: i64, rng: &mut StdRng) -> usize {
    let delta = rng.gen_range(-span..span + 1);
    (value as i64 + delta).max(0) as usize
}

/// One small perturbation of one knob (shared by nudge and havoc).
fn nudge_once(scenario: &mut Scenario, rng: &mut StdRng) {
    let app_count = scenario.apps.len();
    match rng.gen_range(0u64..10) {
        0 => scenario.quanta = shift(scenario.quanta, 8, rng).max(MIN_SCENARIO_QUANTA),
        1 => scenario.power_budget_fraction *= rng.gen_range(0.75..1.3),
        2 if app_count > 0 => {
            let app = &mut scenario.apps[rng.gen_range(0..app_count)];
            app.arrival = shift(app.arrival, 8, rng);
        }
        3 if app_count > 0 => {
            let quanta = scenario.quanta;
            let app = &mut scenario.apps[rng.gen_range(0..app_count)];
            app.departure = match app.departure {
                // Mostly shift the window end; sometimes make it resident.
                Some(d) if !rng.gen_bool(0.25) => Some(shift(d, 8, rng)),
                Some(_) => None,
                None => Some(app.arrival + 1 + rng.gen_range(0..quanta)),
            };
        }
        4 if app_count > 0 => {
            let app = &mut scenario.apps[rng.gen_range(0..app_count)];
            app.weight *= rng.gen_range(0.5..2.0);
        }
        5 if app_count > 0 => {
            let app = &mut scenario.apps[rng.gen_range(0..app_count)];
            app.target_fraction *= rng.gen_range(0.5..2.0);
        }
        6 if app_count > 0 => {
            let app = &mut scenario.apps[rng.gen_range(0..app_count)];
            app.rack = rng.gen_range(0..MAX_SCENARIO_RACKS);
        }
        8 => {
            // Turn the incremental-arbitration knob: mostly pick a fresh
            // tolerance, sometimes snap it back to the legacy full path so
            // tolerance-0 corpus entries keep their omitted-field bytes.
            scenario.arbitration_tolerance = if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(0.0..MAX_ARBITRATION_TOLERANCE)
            };
        }
        9 => {
            // Turn the wake-scheduler pair: mostly draw a fresh horizon
            // and steady streak — switching the tolerance on alongside
            // when it is zero, since the scheduler rides on the
            // incremental engine — and sometimes snap the scheduler off
            // so knob-off corpus entries keep their omitted-field bytes.
            if rng.gen_bool(0.3) {
                scenario.wake_horizon = 0;
                scenario.wake_steady_quanta = 0;
            } else {
                scenario.wake_horizon = rng.gen_range(1..MAX_WAKE_HORIZON + 1);
                scenario.wake_steady_quanta = rng.gen_range(1..MAX_WAKE_STEADY_QUANTA + 1);
                if scenario.arbitration_tolerance == 0.0 {
                    scenario.arbitration_tolerance = rng.gen_range(0.01..MAX_ARBITRATION_TOLERANCE);
                }
            }
        }
        7 => {
            let quanta = scenario.quanta;
            if scenario.budget_steps.is_empty() || rng.gen_bool(0.3) {
                scenario.budget_steps.push(BudgetStep {
                    quantum: rng.gen_range(0..quanta),
                    fraction: rng.gen_range(0.05..1.0),
                });
            } else {
                let step_count = scenario.budget_steps.len();
                let step = &mut scenario.budget_steps[rng.gen_range(0..step_count)];
                if rng.gen_bool(0.5) {
                    step.fraction = rng.gen_range(0.05..1.0);
                } else {
                    step.quantum = shift(step.quantum, 8, rng);
                }
            }
        }
        // An app-targeting knob on an app-less scenario: nothing to do.
        _ => {}
    }
}

/// Two apps exchange one attribute. Falls back to a nudge when the
/// scenario has fewer than two apps.
fn swap(scenario: &mut Scenario, rng: &mut StdRng) {
    let app_count = scenario.apps.len();
    if app_count < 2 {
        nudge_once(scenario, rng);
        return;
    }
    let i = rng.gen_range(0..app_count);
    let mut j = rng.gen_range(0..app_count - 1);
    if j >= i {
        j += 1;
    }
    match rng.gen_range(0u64..4) {
        0 => {
            let weight = scenario.apps[i].weight;
            scenario.apps[i].weight = scenario.apps[j].weight;
            scenario.apps[j].weight = weight;
        }
        1 => {
            let window = (scenario.apps[i].arrival, scenario.apps[i].departure);
            scenario.apps[i].arrival = scenario.apps[j].arrival;
            scenario.apps[i].departure = scenario.apps[j].departure;
            scenario.apps[j].arrival = window.0;
            scenario.apps[j].departure = window.1;
        }
        2 => {
            let rack = scenario.apps[i].rack;
            scenario.apps[i].rack = scenario.apps[j].rack;
            scenario.apps[j].rack = rack;
        }
        _ => {
            let workload = (scenario.apps[i].benchmark, scenario.apps[i].seed);
            scenario.apps[i].benchmark = scenario.apps[j].benchmark;
            scenario.apps[i].seed = scenario.apps[j].seed;
            scenario.apps[j].benchmark = workload.0;
            scenario.apps[j].seed = workload.1;
        }
    }
}

/// Clones a random app with a fresh workload seed and a shifted arrival.
/// Falls back to a nudge on an app-less scenario.
fn duplicate_app(scenario: &mut Scenario, rng: &mut StdRng) {
    let app_count = scenario.apps.len();
    if app_count == 0 {
        nudge_once(scenario, rng);
        return;
    }
    let mut clone = scenario.apps[rng.gen_range(0..app_count)];
    clone.seed = rng.next_u64();
    clone.arrival += rng.gen_range(0..scenario.quanta / 4 + 1);
    scenario.apps.push(clone);
}

/// Draws a random fault kind (factor drawn inside the sanitized band, both
/// under- and over-reports).
fn random_fault_kind(rng: &mut StdRng) -> FaultKind {
    match rng.gen_range(0u64..5) {
        0 => FaultKind::StallHeartbeats,
        1 => FaultKind::FreezeTelemetry,
        2 => FaultKind::NonFiniteTelemetry,
        3 => FaultKind::MisreportPower {
            factor: rng.gen_range(MIN_MISREPORT_FACTOR..MAX_MISREPORT_FACTOR),
        },
        _ => FaultKind::Crash,
    }
}

/// Schedules a fresh fault, perturbs an existing one (window bounds,
/// misreport factor, kind, or target app), or removes one. Scheduling is
/// the most likely edit so fault plans *grow* under fuzzing pressure;
/// [`Scenario::sanitize`] clamps whatever this produces back into the
/// well-formed envelope. Falls back to a nudge on an app-less scenario.
fn mutate_fault_plan(scenario: &mut Scenario, rng: &mut StdRng) {
    let app_count = scenario.apps.len();
    if app_count == 0 {
        nudge_once(scenario, rng);
        return;
    }
    let quanta = scenario.quanta;
    let fault_count = scenario.fault_plan.faults.len();
    match rng.gen_range(0u64..4) {
        // Schedule a fresh fault with a random onset; half the time it
        // clears mid-run (the recovery/readmission path needs `until`).
        0 | 1 => {
            let from = rng.gen_range(0..quanta);
            scenario.fault_plan.faults.push(AppFault {
                app: rng.gen_range(0..app_count),
                kind: random_fault_kind(rng),
                from,
                until: rng
                    .gen_bool(0.5)
                    .then(|| from + 1 + rng.gen_range(0..quanta)),
            });
        }
        2 if fault_count > 0 => {
            let fault = &mut scenario.fault_plan.faults[rng.gen_range(0..fault_count)];
            match rng.gen_range(0u64..4) {
                0 => fault.from = shift(fault.from, 8, rng),
                1 => {
                    fault.until = match fault.until {
                        Some(u) if !rng.gen_bool(0.25) => Some(shift(u, 8, rng)),
                        Some(_) => None,
                        None => Some(fault.from + 1 + rng.gen_range(0..quanta)),
                    }
                }
                2 => fault.kind = random_fault_kind(rng),
                _ => fault.app = rng.gen_range(0..app_count),
            }
        }
        3 if fault_count > 0 => {
            scenario
                .fault_plan
                .faults
                .remove(rng.gen_range(0..fault_count));
        }
        // Perturb/remove on an empty plan: schedule instead.
        _ => {
            let from = rng.gen_range(0..quanta);
            scenario.fault_plan.faults.push(AppFault {
                app: rng.gen_range(0..app_count),
                kind: random_fault_kind(rng),
                from,
                until: None,
            });
        }
    }
}

/// Several random heavy edits at once.
fn havoc(scenario: &mut Scenario, limits: &MutationLimits, rng: &mut StdRng) {
    let edits = 2 + rng.gen_range(0u64..6);
    for _ in 0..edits {
        match rng.gen_range(0u64..13) {
            0..=6 => nudge_once(scenario, rng),
            7 => {
                if scenario.apps.len() > 1 {
                    let index = rng.gen_range(0..scenario.apps.len());
                    scenario.apps.remove(index);
                }
            }
            8 => duplicate_app(scenario, rng),
            9 => {
                scenario.quanta = rng
                    .gen_range(MIN_SCENARIO_QUANTA..limits.max_quanta.max(MIN_SCENARIO_QUANTA) + 1)
            }
            10 if !scenario.apps.is_empty() => {
                // Rewrite one app wholesale.
                let quanta = scenario.quanta;
                let app_count = scenario.apps.len();
                let app = &mut scenario.apps[rng.gen_range(0..app_count)];
                app.benchmark = SplashBenchmark::ALL[rng.gen_range(0..SplashBenchmark::ALL.len())];
                app.seed = rng.next_u64();
                app.weight = rng.gen_range(0.1..8.0);
                app.target_fraction = rng.gen_range(0.05..1.0);
                app.arrival = rng.gen_range(0..quanta);
                app.departure = rng.gen_bool(0.5).then(|| rng.gen_range(0..quanta * 2));
            }
            11 => mutate_fault_plan(scenario, rng),
            _ => {
                if !scenario.budget_steps.is_empty() {
                    let index = rng.gen_range(0..scenario.budget_steps.len());
                    scenario.budget_steps.remove(index);
                }
            }
        }
    }
}

/// Clamps a mutant to the fuzzer's size ceilings, then repairs it into the
/// well-formed envelope.
fn clamp(scenario: &mut Scenario, limits: &MutationLimits) {
    scenario.apps.truncate(limits.max_apps.max(1));
    scenario.quanta = scenario
        .quanta
        .min(limits.max_quanta)
        .clamp(MIN_SCENARIO_QUANTA, MAX_SCENARIO_QUANTA);
    scenario.sanitize();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn seed_scenario() -> Scenario {
        workloads::vocabulary_mixes(7).swap_remove(1) // the flash-crowd mix
    }

    #[test]
    fn mutants_are_always_well_formed_and_within_limits() {
        let limits = MutationLimits::default();
        let seed = seed_scenario();
        let mut rng = StdRng::seed_from_u64(99);
        let mut scenario = seed.clone();
        for _ in 0..500 {
            let (mutant, _) = mutate(&scenario, &limits, &mut rng);
            assert!(
                mutant.is_well_formed(),
                "mutant left the envelope: {mutant:?}"
            );
            assert!(mutant.apps.len() <= limits.max_apps);
            assert!(mutant.quanta <= limits.max_quanta);
            scenario = mutant;
        }
    }

    #[test]
    fn mutation_is_deterministic_per_rng_seed() {
        let limits = MutationLimits::default();
        let seed = seed_scenario();
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(
                mutate(&seed, &limits, &mut a),
                mutate(&seed, &limits, &mut b)
            );
        }
    }

    #[test]
    fn every_strategy_is_reachable() {
        let limits = MutationLimits::default();
        let seed = seed_scenario();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let (_, strategy) = mutate(&seed, &limits, &mut rng);
            let index = MutationStrategy::ALL
                .iter()
                .position(|&s| s == strategy)
                .unwrap();
            seen[index] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "not all strategies drawn: {seen:?}"
        );
    }

    #[test]
    fn only_fault_strategies_touch_the_fault_plan() {
        // Fault-free corpus entries must stay fault-free unless the
        // fault-plan (or havoc) strategy fires — the byte-identity of the
        // pre-fault corpus depends on plans staying absent.
        let limits = MutationLimits::default();
        let seed = seed_scenario();
        assert!(seed.fault_plan.is_empty());
        let mut rng = StdRng::seed_from_u64(11);
        let mut grown = false;
        for _ in 0..500 {
            let (mutant, strategy) = mutate(&seed, &limits, &mut rng);
            if !mutant.fault_plan.is_empty() {
                grown = true;
                assert!(
                    strategy == MutationStrategy::FaultPlan || strategy == MutationStrategy::Havoc,
                    "{} must not grow faults",
                    strategy.name()
                );
            }
        }
        assert!(grown, "the fault-plan strategy never scheduled a fault");
    }

    #[test]
    fn the_tolerance_knob_is_reachable_and_stays_in_band() {
        let limits = MutationLimits::default();
        let seed = seed_scenario();
        assert_eq!(seed.arbitration_tolerance, 0.0);
        let mut rng = StdRng::seed_from_u64(41);
        let mut scenario = seed;
        let mut turned = false;
        let mut reset = false;
        for _ in 0..600 {
            let (mutant, _) = mutate(&scenario, &limits, &mut rng);
            assert!(
                (0.0..=MAX_ARBITRATION_TOLERANCE).contains(&mutant.arbitration_tolerance),
                "tolerance left the band: {}",
                mutant.arbitration_tolerance
            );
            if mutant.arbitration_tolerance > 0.0 {
                turned = true;
            } else if scenario.arbitration_tolerance > 0.0 {
                reset = true;
            }
            scenario = mutant;
        }
        assert!(turned, "the tolerance knob never turned");
        assert!(reset, "the tolerance knob never snapped back to zero");
    }

    #[test]
    fn the_wake_knobs_are_reachable_and_stay_canonical() {
        let limits = MutationLimits::default();
        let seed = seed_scenario();
        assert_eq!((seed.wake_horizon, seed.wake_steady_quanta), (0, 0));
        let mut rng = StdRng::seed_from_u64(61);
        let mut scenario = seed;
        let mut turned = false;
        let mut reset = false;
        for _ in 0..800 {
            let (mutant, _) = mutate(&scenario, &limits, &mut rng);
            assert!(mutant.wake_horizon <= MAX_WAKE_HORIZON);
            if mutant.wake_horizon > 0 {
                // An enabled scheduler always has an engine to ride on and
                // a real steady threshold (sanitize's canonical pair).
                assert!(mutant.arbitration_tolerance > 0.0, "{mutant:?}");
                assert!(
                    (1..=MAX_WAKE_STEADY_QUANTA).contains(&mutant.wake_steady_quanta),
                    "{mutant:?}"
                );
                turned = true;
            } else {
                assert_eq!(mutant.wake_steady_quanta, 0, "{mutant:?}");
                if scenario.wake_horizon > 0 {
                    reset = true;
                }
            }
            scenario = mutant;
        }
        assert!(turned, "the wake knobs never turned");
        assert!(reset, "the wake knobs never snapped back off");
    }

    #[test]
    fn fault_plan_mutants_eventually_cover_every_fault_kind() {
        let limits = MutationLimits::default();
        let mut scenario = seed_scenario();
        let mut rng = StdRng::seed_from_u64(23);
        let mut stalls = 0usize;
        let mut freezes = 0usize;
        let mut nans = 0usize;
        let mut misreports = 0usize;
        let mut crashes = 0usize;
        for _ in 0..400 {
            let (mutant, _) = mutate(&scenario, &limits, &mut rng);
            for fault in &mutant.fault_plan.faults {
                match fault.kind {
                    workloads::FaultKind::StallHeartbeats => stalls += 1,
                    workloads::FaultKind::FreezeTelemetry => freezes += 1,
                    workloads::FaultKind::NonFiniteTelemetry => nans += 1,
                    workloads::FaultKind::MisreportPower { factor } => {
                        assert!((MIN_MISREPORT_FACTOR..=MAX_MISREPORT_FACTOR).contains(&factor));
                        misreports += 1;
                    }
                    workloads::FaultKind::Crash => crashes += 1,
                }
            }
            scenario = mutant;
        }
        assert!(
            stalls > 0 && freezes > 0 && nans > 0 && misreports > 0 && crashes > 0,
            "kinds drawn: stall={stalls} freeze={freezes} nan={nans} misreport={misreports} crash={crashes}"
        );
    }
}
