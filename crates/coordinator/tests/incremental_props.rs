//! The incremental-arbitration differential harness.
//!
//! Incremental arbitration is only allowed to exist because it is
//! *undetectable* at tolerance 0: the engine must reproduce the full
//! re-arbitration fold **bit-for-bit** across every shipped policy, every
//! fleet shape, every churn sequence, and every worker count. These
//! properties pin that contract at two levels:
//!
//! * **Engine level** — a raw [`IncrementalArbiter`] at tolerance 0 against
//!   a bare [`ArbitrationPolicy`], over generated request traces with field
//!   churn, presence flips, budget steps, and explicit dirty marks. Award
//!   vectors are compared by `f64::to_bits`, not by tolerance.
//! * **Coordinator level** — a full [`Coordinator`] on the default
//!   schedule (tolerance 0, no wake scheduling), sharded across a generated
//!   worker count, against a test-only full-fold reference step (observe
//!   every app, one `arbitrate` call over the full request slice, every
//!   present app decides — sequentially, with no engine at all), driven
//!   through identical churn (each app registered at its arrival and
//!   retired at its departure) and a budget step on the declared-effect
//!   synthetic platform. Every app's awarded envelope, every decision,
//!   and every step summary must agree bitwise.
//!
//! A third, metamorphic contract holds at every schedule: registering and
//! retiring an app before it is ever stepped is invisible to the residents
//! — every resident's award and decision bits and every step summary stay
//! the same, with the watchdog moving sleepers up and down its ladder.
//!
//! A retired app takes part in exactly one more round, then leaves every
//! per-step walk: under churn, a budget step and a schedule change, no
//! step observes more than its live apps plus the ones retired since the
//! last step, and at tolerance 0 the run still equals the reference step.
//!
//! Nonzero tolerances trade exactness for skipped work, so their contract
//! is the invariant layer's, not bitwise identity: awards stay finite,
//! non-negative, within each app's absorption ceiling, zero for absent
//! apps, and the active total conserves the budget — checked through the
//! shared [`coordinator::invariants`] oracles every round.

mod common;

use common::{
    advance_present, award_record_mismatch, decode_slots, lifecycle, managed, parts,
    platform_outcome, policies, Slot, POWER_HINT,
};
use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, check_summary_total, AwardedApp,
};
use coordinator::{
    AppHandle, AppRequest, ArbitrationPolicy, ArbitrationSchedule, AwardHysteresis, Coordinator,
    IncrementalArbiter, PerformanceMarket, ScheduleError, StarvationFloor, StepSummary, WakeConfig,
    WatchdogConfig, WeightedFair,
};
use exec::ExecPool;
use obs::{Counter, Recorder};
use proptest::prelude::*;
use seec::SeecRuntime;
use std::sync::Arc;
use workloads::HeartbeatedWorkload;

/// One generated quantum of engine-level churn, decoded from the parallel
/// scalar vectors the vendored proptest generates.
#[derive(Debug, Clone, Copy)]
struct ChurnRound {
    /// Slot whose request fields move this round.
    moved_slot: usize,
    /// New weight / urgency for the moved slot.
    weight: f64,
    urgency: f64,
    /// Slot whose presence flips (arrival / departure) — applied when the
    /// round index is odd so some rounds are pure field churn.
    flipped_slot: usize,
    /// Budget multiplier for this round (1.0 = unchanged).
    budget_scale: f64,
    /// Slot explicitly marked dirty (a health transition stand-in).
    marked_slot: usize,
}

#[allow(clippy::too_many_arguments)]
fn decode_rounds(
    rounds: usize,
    moved_slots: &[usize],
    weights: &[f64],
    urgencies: &[f64],
    flipped_slots: &[usize],
    budget_scales: &[f64],
    marked_slots: &[usize],
) -> Vec<ChurnRound> {
    (0..rounds.clamp(1, moved_slots.len()))
        .map(|i| ChurnRound {
            moved_slot: moved_slots[i],
            weight: weights[i],
            urgency: urgencies[i],
            flipped_slot: flipped_slots[i],
            budget_scale: budget_scales[i],
            marked_slot: marked_slots[i],
        })
        .collect()
}

fn initial_requests(
    actives: &[usize],
    weights: &[f64],
    urgencies: &[f64],
    ceilings: &[f64],
) -> Vec<AppRequest> {
    actives
        .iter()
        .enumerate()
        .map(|(i, &active)| AppRequest {
            active: active == 1,
            weight: weights[i],
            urgency: urgencies[i],
            max_power_watts: ceilings[i],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tolerance 0 is bitwise-identical to the full fold for every shipped
    /// policy, through arbitrary churn: field moves, presence flips,
    /// budget steps, and explicit dirty marks.
    #[test]
    fn engine_tolerance_zero_is_bitwise_identical_under_churn(
        budget in 1.0..500.0f64,
        actives in proptest::collection::vec(0usize..2, 1..16),
        weights in proptest::collection::vec(0.1..8.0f64, 16),
        urgencies in proptest::collection::vec(0.01..20.0f64, 16),
        ceilings in proptest::collection::vec(0.5..400.0f64, 16),
        round_count in 1usize..8,
        moved_slots in proptest::collection::vec(0usize..16, 8),
        move_weights in proptest::collection::vec(0.1..8.0f64, 8),
        move_urgencies in proptest::collection::vec(0.05..10.0f64, 8),
        flipped_slots in proptest::collection::vec(0usize..16, 8),
        budget_scales in proptest::collection::vec(0.5..1.5f64, 8),
        marked_slots in proptest::collection::vec(0usize..16, 8),
    ) {
        let rounds = decode_rounds(
            round_count, &moved_slots, &move_weights, &move_urgencies,
            &flipped_slots, &budget_scales, &marked_slots,
        );
        let mut requests = initial_requests(&actives, &weights, &urgencies, &ceilings);
        let every: Vec<u32> = (0..requests.len() as u32).collect();
        for (policy_index, mut full) in policies().into_iter().enumerate() {
            let mut wrapped = policies().swap_remove(policy_index);
            let mut engine = IncrementalArbiter::new(ArbitrationSchedule::default()).unwrap();
            let mut expected = Vec::new();
            let mut budget = budget;
            for (index, round) in rounds.iter().enumerate() {
                let moved = round.moved_slot % requests.len();
                requests[moved].weight = round.weight;
                requests[moved].urgency = round.urgency;
                if index % 2 == 1 {
                    let flipped = round.flipped_slot % requests.len();
                    requests[flipped].active = !requests[flipped].active;
                }
                budget *= round.budget_scale;
                engine.mark_dirty(round.marked_slot % requests.len());

                full.arbitrate(budget, &requests, &every, &mut expected);
                let outcome = engine.arbitrate(wrapped.as_mut(), budget, &requests);
                let actual = engine.awards();
                prop_assert!(outcome.full, "tolerance 0 always degenerates to the full fold");
                prop_assert_eq!(outcome.skipped, 0);
                let expected_bits: Vec<u64> =
                    expected.iter().map(|award| award.to_bits()).collect();
                let actual_bits: Vec<u64> =
                    actual.iter().map(|award| award.to_bits()).collect();
                prop_assert!(
                    expected_bits == actual_bits,
                    "{} diverged at round {index}: {expected:?} vs {actual:?}",
                    full.name()
                );
            }
        }
    }

    /// Nonzero tolerances keep every award inside the invariant layer's
    /// contract on every round of a churn trace: finite, non-negative,
    /// within the absorption ceiling, zero when absent, and the active
    /// total conserves the budget.
    #[test]
    fn engine_nonzero_tolerance_conserves_budget_and_envelopes(
        budget in 1.0..500.0f64,
        tolerance in 0.001..0.5f64,
        actives in proptest::collection::vec(0usize..2, 1..16),
        weights in proptest::collection::vec(0.1..8.0f64, 16),
        urgencies in proptest::collection::vec(0.01..20.0f64, 16),
        ceilings in proptest::collection::vec(0.5..400.0f64, 16),
        round_count in 1usize..8,
        moved_slots in proptest::collection::vec(0usize..16, 8),
        move_weights in proptest::collection::vec(0.1..8.0f64, 8),
        move_urgencies in proptest::collection::vec(0.05..10.0f64, 8),
        flipped_slots in proptest::collection::vec(0usize..16, 8),
        budget_scales in proptest::collection::vec(0.5..1.5f64, 8),
        marked_slots in proptest::collection::vec(0usize..16, 8),
    ) {
        let rounds = decode_rounds(
            round_count, &moved_slots, &move_weights, &move_urgencies,
            &flipped_slots, &budget_scales, &marked_slots,
        );
        let mut requests = initial_requests(&actives, &weights, &urgencies, &ceilings);
        for (policy_index, _) in policies().iter().enumerate() {
            let mut policy = policies().swap_remove(policy_index);
            let mut engine = IncrementalArbiter::new(ArbitrationSchedule {
                tolerance,
                wake: WakeConfig::OFF,
            })
            .unwrap();
            let mut budget = budget;
            let mut skipped = 0usize;
            let mut rearbitrated = 0usize;
            let mut active_app_rounds = 0usize;
            for (index, round) in rounds.iter().enumerate() {
                let moved = round.moved_slot % requests.len();
                requests[moved].weight = round.weight;
                requests[moved].urgency = round.urgency;
                if index % 2 == 1 {
                    let flipped = round.flipped_slot % requests.len();
                    requests[flipped].active = !requests[flipped].active;
                }
                budget *= round.budget_scale;
                if round.budget_scale != 1.0 {
                    // The coordinator invalidates held awards on budget
                    // steps; the raw engine is told the same way.
                    engine.mark_all_dirty();
                }

                let outcome = engine.arbitrate(policy.as_mut(), budget, &requests);
                let awards = engine.awards();
                skipped += outcome.skipped;
                rearbitrated += outcome.rearbitrated;
                active_app_rounds += requests.iter().filter(|request| request.active).count();

                let apps: Vec<AwardedApp> = requests
                    .iter()
                    .map(|request| AwardedApp {
                        active: request.active,
                        ceiling: Some(request.max_power_watts),
                    })
                    .collect();
                let violations = check_award_vector(awards, &apps);
                prop_assert!(
                    violations.is_empty(),
                    "{} at tolerance {tolerance} round {index}: {violations:?}",
                    policy.name()
                );
                let total = active_total(awards, &apps);
                prop_assert!(
                    check_budget_conservation(total, budget).is_none(),
                    "{} at tolerance {tolerance} round {index}: {total} > {budget}",
                    policy.name()
                );
            }
            // The telemetry identity the obs counters rely on: every active
            // app either skipped or re-entered the fold, every round.
            prop_assert_eq!(skipped + rearbitrated, active_app_rounds);
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator level: the engine embedded in the real step pipeline.
// ---------------------------------------------------------------------

/// The full per-step trace, with awards captured as raw bits so the
/// comparison is bitwise, not approximate.
type Trace = Vec<(
    coordinator::StepSummary,
    Vec<u64>,
    Vec<Option<seec::Decision>>,
)>;

/// Drives a fleet for `quanta` steps against a platform mirroring each
/// app's declared effects exactly, under `schedule`; `budget_step`
/// applies a mid-run budget change (the whole-fleet invalidation path).
fn drive_traced(
    policy: Box<dyn ArbitrationPolicy>,
    slots: &[Slot],
    quanta: usize,
    workers: usize,
    schedule: ArbitrationSchedule,
    budget_step: Option<(usize, f64)>,
) -> Trace {
    let mut coordinator = Coordinator::new(35.0, policy)
        .with_pool(Arc::new(ExecPool::new(workers)))
        .with_shard_threshold(0);
    coordinator.set_schedule(schedule).unwrap();
    let mut handles = vec![None; slots.len()];
    let mut now = 0.0;
    let mut trace = Trace::new();
    for quantum in 0..quanta {
        lifecycle(&mut coordinator, slots, &mut handles, quantum);
        if let Some((at, watts)) = budget_step {
            if at == quantum {
                coordinator.set_budget(watts);
            }
        }
        now += 1.0;
        advance_present(&mut coordinator, now);
        let summary = coordinator.step(now).unwrap();
        trace.push((
            summary,
            coordinator
                .awards()
                .iter()
                .map(|award| award.to_bits())
                .collect(),
            coordinator
                .apps()
                .iter()
                .map(|app| app.last_decision())
                .collect(),
        ));
    }
    trace
}

/// The test-only full-fold reference step, driven exactly like
/// [`drive_traced`]: the observe–decide–act loop written out plainly, with
/// no arbitration engine, no participant list, and no sharding. Each
/// quantum it observes every app, builds its request, makes one
/// `policy.arbitrate` call over the full request slice under the
/// headroomed budget, then lets every present app decide under its
/// envelope, sequentially in registration order. The apps are rebuilt from
/// the same slots (identically seeded drivers and runtimes), join the
/// fleet in the same order at their arrival quanta and see the same
/// platform, so the coordinator's trace must equal this one bit for bit.
fn drive_reference(
    mut policy: Box<dyn ArbitrationPolicy>,
    slots: &[Slot],
    quanta: usize,
    budget_step: Option<(usize, f64)>,
) -> Trace {
    // The fleet in registration order.
    let mut apps: Vec<(
        Slot,
        HeartbeatedWorkload,
        SeecRuntime,
        Option<seec::Decision>,
    )> = Vec::new();
    let nominal = |runtime: &SeecRuntime| runtime.estimated_nominal_power().unwrap_or(POWER_HINT);
    let mut budget = 35.0;
    let mut now = 0.0;
    let mut trace = Trace::new();
    let mut awards = Vec::new();
    for quantum in 0..quanta {
        for (index, &slot) in slots.iter().enumerate() {
            if slot.arrival == quantum {
                let (driver, runtime) = parts(slot, index);
                apps.push((slot, driver, runtime, None));
            }
        }
        if let Some((at, watts)) = budget_step {
            if at == quantum {
                budget = watts;
            }
        }
        now += 1.0;
        for (slot, driver, runtime, _) in &mut apps {
            if slot.present(quantum) {
                let (work, power) = platform_outcome(runtime);
                driver.advance_metered(now - 1.0, now, work, power);
            }
        }
        // Observe every app and build its request.
        let observations: Vec<_> = apps
            .iter()
            .map(|(_, driver, _, _)| driver.monitor().observation())
            .collect();
        let requests: Vec<AppRequest> = apps
            .iter()
            .zip(&observations)
            .map(|((slot, _, runtime, _), observation)| {
                let target = runtime.target_override().or(observation.target_heart_rate);
                let window = observation.stats.window;
                let urgency = match target {
                    Some(target) if window > 0.0 && observation.stats.beats_in_window >= 2 => {
                        target / window
                    }
                    _ => 1.0,
                };
                let nominal = nominal(runtime);
                AppRequest {
                    active: slot.present(quantum),
                    weight: slot.weight,
                    urgency,
                    max_power_watts: if nominal > 0.0 {
                        nominal * runtime.model().table().max_declared_power()
                    } else {
                        budget
                    },
                }
            })
            .collect();
        // One fold over the full request slice.
        let every: Vec<u32> = (0..requests.len() as u32).collect();
        policy.arbitrate(budget * 0.95, &requests, &every, &mut awards);
        // Every present app decides under its envelope.
        let mut summary = StepSummary {
            quantum,
            active_apps: 0,
            awarded_watts_total: 0.0,
        };
        for (((slot, _, runtime, decision), observation), &award) in
            apps.iter_mut().zip(&observations).zip(&awards)
        {
            if !slot.present(quantum) {
                continue;
            }
            let nominal = nominal(runtime);
            let cap = if nominal > 0.0 && award.is_finite() {
                award / nominal
            } else {
                f64::INFINITY
            };
            *decision = Some(
                runtime
                    .decide_under_power_cap(now, observation, cap)
                    .unwrap(),
            );
            summary.active_apps += 1;
            summary.awarded_watts_total += award;
        }
        trace.push((
            summary,
            awards.iter().map(|award| award.to_bits()).collect(),
            apps.iter().map(|(_, _, _, decision)| *decision).collect(),
        ));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A coordinator on the default schedule (tolerance 0, no wake
    /// scheduling) — through the arbitration engine and the list walks,
    /// sharded across a generated worker count — produces bitwise the
    /// awards, summaries, and per-app decisions of the test-only full-fold
    /// reference step, through arrival/departure churn and a mid-run
    /// budget step.
    #[test]
    fn coordinator_tolerance_zero_matches_legacy_at_every_worker_count(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..7),
        weights in proptest::collection::vec(0.25..8.0f64, 7),
        targets in proptest::collection::vec(5.0..80.0f64, 7),
        arrivals in proptest::collection::vec(0usize..10, 7),
        departures in proptest::collection::vec(0usize..10, 7),
        policy_pick in 0usize..3,
        workers in 1usize..7,
        budget_step_at in 0usize..10,
        budget_step_watts in 10.0..60.0f64,
    ) {
        let quanta = 10;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let budget_step = Some((budget_step_at, budget_step_watts));
        let policy = || policies().swap_remove(policy_pick);
        let reference = drive_reference(policy(), &slots, quanta, budget_step);
        let stepped = drive_traced(
            policy(),
            &slots,
            quanta,
            workers,
            ArbitrationSchedule::default(),
            budget_step,
        );
        prop_assert!(
            reference == stepped,
            "the default schedule diverged from the full-fold reference at {} workers over {} apps",
            workers,
            slots.len()
        );
    }

    /// A wake schedule with horizon 0 is configuration, not behaviour: at
    /// every worker count, every policy, and any `steady_quanta`, the
    /// traced run — awards by bits, step summaries, per-app decisions —
    /// is identical to the same coordinator with [`WakeConfig::OFF`].
    #[test]
    fn coordinator_horizon_zero_matches_plain_incremental_at_every_worker_count(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..7),
        weights in proptest::collection::vec(0.25..8.0f64, 7),
        targets in proptest::collection::vec(5.0..80.0f64, 7),
        arrivals in proptest::collection::vec(0usize..10, 7),
        departures in proptest::collection::vec(0usize..10, 7),
        policy_pick in 0usize..3,
        workers in 1usize..7,
        tolerance in 0.001..0.5f64,
        steady in 1u32..9,
        budget_step_at in 0usize..10,
        budget_step_watts in 10.0..60.0f64,
    ) {
        let quanta = 10;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let budget_step = Some((budget_step_at, budget_step_watts));
        let policy = || policies().swap_remove(policy_pick);
        let schedule = |wake| ArbitrationSchedule { tolerance, wake };
        let plain =
            drive_traced(policy(), &slots, quanta, workers, schedule(WakeConfig::OFF), budget_step);
        let gated = drive_traced(
            policy(),
            &slots,
            quanta,
            workers,
            schedule(WakeConfig { steady_quanta: steady, horizon: 0 }),
            budget_step,
        );
        prop_assert!(
            plain == gated,
            "a horizon-0 wake schedule (steady_quanta {}) diverged from WakeConfig::OFF \
             at {} workers over {} apps",
            steady,
            workers,
            slots.len()
        );
    }

    /// With the wake scheduler live, every active app-quantum lands in
    /// exactly one of the four decide-ledger counters — slept, skipped,
    /// re-arbitrated, or decided — through arrival/departure churn and a
    /// mid-run budget step, at every worker count. Alongside the ledger,
    /// the budget-step and retirement force-wake rules stay observable:
    /// awards conserve the *stepped* budget every quantum (a sleeper
    /// holding a pre-step award would overshoot a cut) and absent apps
    /// hold exactly 0 W (a sleeper outliving its departure would not).
    #[test]
    fn wake_scheduling_partitions_every_active_app_quantum(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..7),
        weights in proptest::collection::vec(0.25..8.0f64, 7),
        targets in proptest::collection::vec(5.0..80.0f64, 7),
        arrivals in proptest::collection::vec(0usize..10, 7),
        departures in proptest::collection::vec(0usize..10, 7),
        policy_pick in 0usize..3,
        workers in 1usize..5,
        tolerance in 0.001..0.5f64,
        steady in 1u32..4,
        horizon in 1usize..33,
        budget_step_at in 0usize..10,
        budget_step_watts in 10.0..60.0f64,
    ) {
        let quanta = 10;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let policy = policies().swap_remove(policy_pick);
        let policy_name = policy.name();
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(35.0, policy)
            .with_pool(Arc::new(ExecPool::new(workers)))
            .with_shard_threshold(0)
            .with_arbitration_tolerance(tolerance)
            .with_wake_schedule(WakeConfig { steady_quanta: steady, horizon })
            .with_obs(Arc::clone(&recorder));
        let mut handles = vec![None; slots.len()];
        let mut budget = 35.0;
        let mut now = 0.0;
        let mut active_app_quanta = 0u64;
        for quantum in 0..quanta {
            lifecycle(&mut coordinator, &slots, &mut handles, quantum);
            if budget_step_at == quantum {
                budget = budget_step_watts;
                coordinator.set_budget(budget);
            }
            now += 1.0;
            advance_present(&mut coordinator, now);
            coordinator.step(now).unwrap();

            let apps: Vec<AwardedApp> = coordinator
                .apps()
                .iter()
                .map(|app| {
                    let active = app.active_at(quantum);
                    active_app_quanta += active as u64;
                    AwardedApp { active, ceiling: None }
                })
                .collect();
            let violations = check_award_vector(coordinator.awards(), &apps);
            prop_assert!(
                violations.is_empty(),
                "{policy_name} with wake ({steady}, {horizon}) quantum {quantum}: {violations:?}"
            );
            let total = active_total(coordinator.awards(), &apps);
            prop_assert!(
                check_budget_conservation(total, budget * 0.95).is_none(),
                "{policy_name} with wake ({steady}, {horizon}) quantum {quantum}: \
                 {total} > {} — a sleeper held an award across the budget step",
                budget * 0.95
            );
            let mismatch = award_record_mismatch(&coordinator);
            prop_assert!(
                mismatch.is_none(),
                "{policy_name} with wake ({steady}, {horizon}) quantum {quantum}: \
                 (slot, award, awarded_watts) {mismatch:?}"
            );
        }
        let slept = recorder.counter(Counter::AppsSlept);
        let skipped = recorder.counter(Counter::AppsSkipped);
        let rearbitrated = recorder.counter(Counter::AppsRearbitrated);
        let decided = recorder.counter(Counter::AppsDecided);
        prop_assert!(
            slept + skipped + rearbitrated + decided == active_app_quanta,
            "{policy_name} with wake ({steady}, {horizon}): ledger slept {slept} + \
             skipped {skipped} + rearbitrated {rearbitrated} + decided {decided} must \
             partition {active_app_quanta} active app-quanta"
        );
    }

    /// A coordinator at a nonzero tolerance keeps every step inside the
    /// invariant layer's contract: finite non-negative awards, absent apps
    /// at exactly 0 W, the active total under the headroomed budget, and a
    /// summary total that matches the award vector.
    #[test]
    fn coordinator_nonzero_tolerance_conserves_the_headroomed_budget(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..7),
        weights in proptest::collection::vec(0.25..8.0f64, 7),
        targets in proptest::collection::vec(5.0..80.0f64, 7),
        arrivals in proptest::collection::vec(0usize..10, 7),
        departures in proptest::collection::vec(0usize..10, 7),
        policy_pick in 0usize..3,
        workers in 1usize..5,
        tolerance in 0.001..0.5f64,
        budget_step_at in 0usize..10,
        budget_step_watts in 10.0..60.0f64,
    ) {
        let quanta = 10;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let policy = policies().swap_remove(policy_pick);
        let policy_name = policy.name();
        let mut coordinator = Coordinator::new(35.0, policy)
            .with_pool(Arc::new(ExecPool::new(workers)))
            .with_shard_threshold(0)
            .with_arbitration_tolerance(tolerance);
        let mut handles = vec![None; slots.len()];
        let mut budget = 35.0;
        let mut now = 0.0;
        for quantum in 0..quanta {
            lifecycle(&mut coordinator, &slots, &mut handles, quantum);
            if budget_step_at == quantum {
                budget = budget_step_watts;
                coordinator.set_budget(budget);
            }
            now += 1.0;
            advance_present(&mut coordinator, now);
            let summary = coordinator.step(now).unwrap();

            let apps: Vec<AwardedApp> = coordinator
                .apps()
                .iter()
                .map(|app| AwardedApp {
                    active: app.active_at(quantum),
                    ceiling: None,
                })
                .collect();
            let violations = check_award_vector(coordinator.awards(), &apps);
            prop_assert!(
                violations.is_empty(),
                "{policy_name} at tolerance {tolerance} quantum {quantum}: {violations:?}"
            );
            let total = active_total(coordinator.awards(), &apps);
            prop_assert!(
                check_budget_conservation(total, budget * 0.95).is_none(),
                "{policy_name} at tolerance {tolerance} quantum {quantum}: {total} > {}",
                budget * 0.95
            );
            prop_assert!(
                check_summary_total(summary.awarded_watts_total, total).is_none(),
                "{policy_name}: summary total {} vs recomputed {total}",
                summary.awarded_watts_total
            );
        }
    }
}

/// A watchdog ladder short enough that generated stalls and misreports
/// quarantine and readmit apps — sleepers included — inside a short run.
const FAST_LADDER: WatchdogConfig = WatchdogConfig {
    stale_beat_quanta: 3,
    overdraw_quanta: 3,
    overdraw_tolerance: 0.5,
    quarantine_floor_watts: 5.0,
    readmit_quanta: 3,
    warmup_quanta: 2,
};

/// One generated slot's fault windows: no reports at all over `stall`,
/// four times the drawn power claimed over `misreport`.
#[derive(Debug)]
struct Faults {
    stall: std::ops::Range<usize>,
    misreport: std::ops::Range<usize>,
}

fn decode_faults(
    stall_starts: &[usize],
    stall_lengths: &[usize],
    misreport_starts: &[usize],
    misreport_lengths: &[usize],
) -> Vec<Faults> {
    (0..stall_starts.len())
        .map(|i| Faults {
            stall: stall_starts[i]..stall_starts[i] + stall_lengths[i],
            misreport: misreport_starts[i]..misreport_starts[i] + misreport_lengths[i],
        })
        .collect()
}

/// Drives `slots` under `schedule` with the watchdog on and each slot's
/// `faults` injected (each slot registered at its arrival and retired at
/// its departure). Before every quantum listed in `transient_at` a
/// transient app registers and retires before it is ever stepped, and the
/// previous transient is retired once more. The trace holds the step
/// summaries and the *resident* slots' award and decision bits, so a run
/// with transients and one without compare directly.
fn drive_with_transients(
    policy: Box<dyn ArbitrationPolicy>,
    slots: &[Slot],
    faults: &[Faults],
    quanta: usize,
    workers: usize,
    schedule: ArbitrationSchedule,
    transient_at: &[usize],
) -> Trace {
    let mut coordinator = Coordinator::new(35.0, policy)
        .with_pool(Arc::new(ExecPool::new(workers)))
        .with_shard_threshold(0)
        .with_watchdog(FAST_LADDER);
    coordinator.set_schedule(schedule).unwrap();
    let mut handles = vec![None; slots.len()];
    let mut transient: Option<AppHandle> = None;
    let mut now = 0.0;
    let mut trace = Trace::new();
    for quantum in 0..quanta {
        lifecycle(&mut coordinator, slots, &mut handles, quantum);
        if transient_at.contains(&quantum) {
            if let Some(previous) = transient {
                coordinator.retire(previous);
            }
            let slot = Slot::resident(1_000 + quantum as u64, 1.0, 20.0);
            let handle = coordinator.register(managed(slot, quantum));
            coordinator.retire(handle);
            transient = Some(handle);
        }
        now += 1.0;
        for (handle, faults) in handles.iter().zip(faults) {
            let Some(handle) = *handle else { continue };
            if !coordinator.app(handle).active_at(quantum) || faults.stall.contains(&quantum) {
                continue;
            }
            let (work, power) = platform_outcome(coordinator.app(handle).runtime());
            let claimed = if faults.misreport.contains(&quantum) {
                4.0
            } else {
                1.0
            };
            coordinator.advance(handle, now - 1.0, now, work, claimed * power);
        }
        let summary = coordinator.step(now).unwrap();
        let residents = handles.iter().flatten();
        trace.push((
            summary,
            residents
                .clone()
                .map(|&h| coordinator.awards()[h.index()].to_bits())
                .collect(),
            residents
                .map(|&h| coordinator.app(h).last_decision())
                .collect(),
        ));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Registration and retirement are invisible to the residents:
    /// registering apps and retiring them before they are ever stepped
    /// (and retiring them again later) at random quanta leaves every
    /// resident's award and decision bits, and every step summary,
    /// unchanged — under any tolerance (0 included) and wake schedule
    /// (horizon 0 included), with residents arriving and departing and the
    /// watchdog quarantining and readmitting stalled and misreporting apps
    /// (sleepers included), at 1 worker and at N.
    #[test]
    fn registering_and_retiring_apps_leaves_every_resident_unchanged(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..7),
        weights in proptest::collection::vec(0.25..8.0f64, 7),
        targets in proptest::collection::vec(5.0..80.0f64, 7),
        arrivals in proptest::collection::vec(0usize..6, 7),
        departures in proptest::collection::vec(0usize..16, 7),
        stall_starts in proptest::collection::vec(0usize..16, 7),
        stall_lengths in proptest::collection::vec(0usize..8, 7),
        misreport_starts in proptest::collection::vec(0usize..16, 7),
        misreport_lengths in proptest::collection::vec(0usize..8, 7),
        transient_picks in proptest::collection::vec(0usize..3, 16),
        policy_pick in 0usize..3,
        workers in 2usize..6,
        tolerance in 0.0..0.5f64,
        exact in 0usize..4,
        steady in 1u32..4,
        horizon in 0usize..33,
    ) {
        let quanta = 16;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let faults =
            decode_faults(&stall_starts, &stall_lengths, &misreport_starts, &misreport_lengths);
        let transient_at: Vec<usize> =
            (0..quanta).filter(|&quantum| transient_picks[quantum] == 0).collect();
        let schedule = ArbitrationSchedule {
            tolerance: if exact == 0 { 0.0 } else { tolerance },
            wake: WakeConfig { steady_quanta: steady, horizon },
        };
        let policy = || policies().swap_remove(policy_pick);
        for workers in [1, workers] {
            let run = |transient_at: &[usize]| {
                drive_with_transients(
                    policy(), &slots, &faults, quanta, workers, schedule, transient_at,
                )
            };
            let quiet = run(&[]);
            let churning = run(&transient_at);
            let diverged = quiet.iter().zip(&churning).position(|(a, b)| a != b);
            prop_assert!(
                diverged.is_none(),
                "registering and retiring transients at {transient_at:?} moved a resident at quantum \
                 {diverged:?} ({} workers, {:?}, {} apps)",
                workers,
                schedule,
                slots.len()
            );
        }
    }
}

/// The three base policies and the two wrappers: the stateful
/// [`AwardHysteresis`] (its held awards keyed on the slots it is handed)
/// and the [`StarvationFloor`] (handing its inner policy the same list).
fn five_policies() -> Vec<Box<dyn ArbitrationPolicy>> {
    let mut all = policies();
    all.push(Box::new(AwardHysteresis::new(
        Box::new(PerformanceMarket::default()),
        0.05,
    )));
    all.push(Box::new(StarvationFloor::new(Box::new(WeightedFair), 0.2)));
    all
}

/// Drives `slots` like [`drive_traced`], with a budget step at
/// `budget_step` and a switch to `switch_to` at `switch_at` (a fresh
/// engine), and checks every step's `AppsObserved` against its live apps
/// plus the apps retired since the previous step.
#[allow(clippy::too_many_arguments)]
fn drive_departures(
    policy: Box<dyn ArbitrationPolicy>,
    slots: &[Slot],
    quanta: usize,
    workers: usize,
    schedule: ArbitrationSchedule,
    switch_to: ArbitrationSchedule,
    switch_at: usize,
    budget_step: (usize, f64),
) -> Result<Trace, proptest::TestCaseError> {
    let recorder = Arc::new(Recorder::in_memory());
    let mut coordinator = Coordinator::new(35.0, policy)
        .with_pool(Arc::new(ExecPool::new(workers)))
        .with_shard_threshold(0)
        .with_obs(Arc::clone(&recorder));
    coordinator.set_schedule(schedule).unwrap();
    let mut handles = vec![None; slots.len()];
    let mut now = 0.0;
    let mut trace = Trace::new();
    for quantum in 0..quanta {
        lifecycle(&mut coordinator, slots, &mut handles, quantum);
        if quantum == budget_step.0 {
            coordinator.set_budget(budget_step.1);
        }
        if quantum == switch_at {
            coordinator.set_schedule(switch_to).unwrap();
        }
        now += 1.0;
        advance_present(&mut coordinator, now);
        let observed_before = recorder.counter(Counter::AppsObserved);
        let summary = coordinator.step(now).unwrap();
        let observed = recorder.counter(Counter::AppsObserved) - observed_before;
        let live = slots.iter().filter(|slot| slot.present(quantum)).count();
        let retired = slots
            .iter()
            .filter(|slot| slot.departure == Some(quantum))
            .count();
        prop_assert!(
            observed <= (live + retired) as u64,
            "quantum {quantum}: observed {observed} apps, {live} live and {retired} just retired"
        );
        let apps: Vec<AwardedApp> = coordinator
            .apps()
            .iter()
            .map(|app| AwardedApp {
                active: app.active_at(quantum),
                ceiling: None,
            })
            .collect();
        let violations = check_award_vector(coordinator.awards(), &apps);
        prop_assert!(violations.is_empty(), "quantum {quantum}: {violations:?}");
        let mismatch = award_record_mismatch(&coordinator);
        prop_assert!(
            mismatch.is_none(),
            "quantum {quantum}: (slot, award, awarded_watts) {mismatch:?}"
        );
        trace.push((
            summary,
            coordinator
                .awards()
                .iter()
                .map(|award| award.to_bits())
                .collect(),
            coordinator
                .apps()
                .iter()
                .map(|app| app.last_decision())
                .collect(),
        ));
    }
    Ok(trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Retired apps leave every walk after one absent round. Through
    /// register/retire churn, a budget step and a schedule change (which
    /// restarts the engine in place), for all five policies, with the wake
    /// scheduler on and off, at 1 worker and at 3: no step observes more
    /// than its live apps plus the apps retired since the last step, and
    /// absent apps hold exactly 0 W. At tolerance 0 every award, decision
    /// and summary equals the full-fold reference step bit for bit. At
    /// tolerance 0.05 no full-fold reference exists, so the 3-worker run
    /// must equal the 1-worker run bit for bit instead.
    #[test]
    fn departed_slots_leave_every_walk(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..9),
        weights in proptest::collection::vec(0.25..8.0f64, 9),
        targets in proptest::collection::vec(5.0..80.0f64, 9),
        arrivals in proptest::collection::vec(0usize..12, 9),
        departures in proptest::collection::vec(0usize..12, 9),
        policy_pick in 0usize..5,
        exact_pick in 0usize..2,
        wake_pick in 0usize..2,
        switch_at in 0usize..12,
        budget_step_at in 0usize..12,
        budget_step_watts in 10.0..60.0f64,
    ) {
        let quanta = 12;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let (exact, wake_first) = (exact_pick == 0, wake_pick == 0);
        let tolerance = if exact { 0.0 } else { 0.05 };
        let schedule = |wake: bool| ArbitrationSchedule {
            tolerance,
            wake: if wake { WakeConfig { steady_quanta: 1, horizon: 4 } } else { WakeConfig::OFF },
        };
        let budget_step = (budget_step_at, budget_step_watts);
        let policy = || five_policies().swap_remove(policy_pick);
        let run = |workers| {
            drive_departures(
                policy(), &slots, quanta, workers, schedule(wake_first), schedule(!wake_first),
                switch_at, budget_step,
            )
        };
        let (single, sharded) = (run(1)?, run(3)?);
        let reference = exact.then(|| drive_reference(policy(), &slots, quanta, Some(budget_step)));
        let expected = reference.as_ref().unwrap_or(&single);
        for (workers, trace) in [(1, &single), (3, &sharded)] {
            let diverged = expected.iter().zip(trace).position(|(a, b)| a != b);
            prop_assert!(
                diverged.is_none(),
                "{} at tolerance {tolerance}, wake first {wake_first}, {workers} workers: \
                 diverged at quantum {diverged:?} over {} apps",
                policy().name(),
                slots.len()
            );
        }
    }
}

/// Tolerances the schedule proptest always mixes in: NaN, both infinities,
/// both zeros, subnormals of both signs, the extremes, and a plain
/// negative.
const SPECIAL_TOLERANCES: [f64; 11] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 2.0,
    f64::MAX,
    f64::MIN,
    -1.0,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `set_schedule` never panics: it returns `Err` for exactly the NaN,
    /// infinite, and negative tolerances — leaving the schedule unchanged —
    /// and accepts every other `f64`, after which the coordinator still
    /// steps.
    #[test]
    fn set_schedule_refuses_exactly_the_invalid_tolerances(
        bits in 0u64..u64::MAX,
        special in 0usize..16,
        steady in 0u32..8,
        horizon in 0usize..40,
    ) {
        let tolerance = SPECIAL_TOLERANCES
            .get(special)
            .copied()
            .unwrap_or(f64::from_bits(bits));
        let invalid = tolerance.is_nan() || tolerance.is_infinite() || tolerance < 0.0;
        let schedule = ArbitrationSchedule {
            tolerance,
            wake: WakeConfig { steady_quanta: steady, horizon },
        };
        let slot = Slot::resident(7, 1.0, 20.0);
        let outcome = std::panic::catch_unwind(|| {
            let mut coordinator = Coordinator::new(35.0, Box::new(WeightedFair));
            let before = coordinator.schedule();
            let result = coordinator.set_schedule(schedule);
            let after = coordinator.schedule();
            let handle = coordinator.register(managed(slot, 0));
            for quantum in 0..3 {
                let now = quantum as f64 + 1.0;
                let (work, power) = platform_outcome(coordinator.app(handle).runtime());
                coordinator.advance(handle, now - 1.0, now, work, power);
                coordinator.step(now).unwrap();
            }
            (result, before, after)
        });
        prop_assert!(outcome.is_ok(), "set_schedule({tolerance:e}) panicked");
        let (result, before, after) = outcome.unwrap();
        match result {
            Ok(()) => {
                prop_assert!(!invalid, "accepted the invalid tolerance {tolerance:e}");
                prop_assert_eq!(after, schedule);
            }
            Err(ScheduleError::InvalidTolerance(refused)) => {
                prop_assert!(invalid, "refused the valid tolerance {tolerance:e}");
                prop_assert_eq!(refused.to_bits(), tolerance.to_bits());
                prop_assert!(after == before, "a refused schedule must leave the old one");
            }
        }
    }
}
