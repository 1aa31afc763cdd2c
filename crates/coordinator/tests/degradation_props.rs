//! Property pins for the watchdog degradation ladder.
//!
//! * **Award invariants survive arbitrary fault plans** — whatever mix of
//!   stalls, crashes, NaN telemetry, power misreports, and frozen reports
//!   a fleet throws at a watchdog-enabled coordinator, every step's award
//!   vector stays finite and non-negative, absent apps get exactly 0 W,
//!   quarantined apps are pinned at or under the floor envelope, and the
//!   fleet total conserves the headroomed budget
//!   ([`coordinator::invariants`] — the same oracles the scenario fuzzer
//!   asserts).
//! * **The ladder is deterministic at every worker count** — the sharded
//!   step with the watchdog on produces byte-identical awards, summaries,
//!   and health verdicts at 1, 2, and 3 workers, under fault churn.
//! * **Transient faults readmit** — an app whose heartbeat pipe stalls
//!   for a bounded window is quarantined while silent and readmitted
//!   after enough honest quanta; quarantine never sticks to an app whose
//!   fault has cleared.

mod common;

use std::sync::Arc;

use common::{decode_slots, lifecycle, platform_outcome, Slot};
use coordinator::invariants::{
    check_award_vector, check_budget_conservation, check_summary_total, AwardedApp,
};
use coordinator::{AppHandle, Coordinator, HealthState, WatchdogConfig, WeightedFair};
use exec::ExecPool;
use proptest::prelude::*;

/// The faults the proptest schedules, mirroring [`workloads::FaultKind`]
/// at the telemetry boundary the coordinator actually sees.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// No advance at all during the window: no beats, no telemetry.
    Stall,
    /// Reported power is NaN during the window.
    NonFinite,
    /// Reported power is multiplied by 3 during the window.
    Misreport,
    /// Execution stops at onset and never resumes (window ignored).
    Crash,
    /// The last pre-fault report is replayed verbatim during the window.
    Freeze,
}

/// One generated slot's fault window.
#[derive(Debug, Clone, Copy)]
struct FaultPlan {
    fault: Fault,
    fault_from: usize,
    fault_until: Option<usize>,
}

impl FaultPlan {
    fn fault_active(&self, quantum: usize) -> bool {
        if self.fault == Fault::None {
            return false;
        }
        if self.fault == Fault::Crash {
            return quantum >= self.fault_from;
        }
        quantum >= self.fault_from && self.fault_until.is_none_or(|u| quantum < u)
    }
}

fn decode_faults(
    fault_kinds: &[usize],
    fault_froms: &[usize],
    fault_lens: &[usize],
    quanta: usize,
) -> Vec<FaultPlan> {
    (0..fault_kinds.len())
        .map(|i| {
            let fault = match fault_kinds[i] % 6 {
                0 => Fault::None,
                1 => Fault::Stall,
                2 => Fault::NonFinite,
                3 => Fault::Misreport,
                4 => Fault::Crash,
                _ => Fault::Freeze,
            };
            let fault_from = fault_froms[i] % quanta;
            let fault_until =
                (fault_lens[i] > 0).then(|| fault_from + 1 + fault_lens[i] % quanta);
            FaultPlan {
                fault,
                fault_from,
                fault_until,
            }
        })
        .collect()
}

/// Advances one quantum of the whole fleet against a platform that mirrors
/// each app's declared effects exactly, filtered through its fault: the
/// honest report is `10 x effect`, and the fault corrupts (or suppresses)
/// what the coordinator hears. `frozen` carries each app's replayed report.
fn advance_with_faults(
    coordinator: &mut Coordinator,
    faults: &[FaultPlan],
    handles: &[Option<AppHandle>],
    frozen: &mut [Option<(f64, f64)>],
    now: f64,
    quantum: usize,
) {
    for (index, (handle, plan)) in handles.iter().zip(faults).enumerate() {
        let Some(handle) = *handle else { continue };
        if !coordinator.app(handle).active_at(quantum) {
            continue;
        }
        let faulting = plan.fault_active(quantum);
        if faulting && matches!(plan.fault, Fault::Stall | Fault::Crash) {
            continue;
        }
        let honest = platform_outcome(coordinator.app(handle).runtime());
        let (work, power) = if faulting {
            match plan.fault {
                Fault::NonFinite => (honest.0, f64::NAN),
                Fault::Misreport => (honest.0, honest.1 * 3.0),
                Fault::Freeze => frozen[index].unwrap_or(honest),
                _ => honest,
            }
        } else {
            frozen[index] = Some(honest);
            honest
        };
        coordinator.advance(handle, now - 1.0, now, work, power);
    }
}

/// One full run: every step's award bits, summary, and health verdicts.
type Trace = Vec<(Vec<u64>, usize, u64, Vec<HealthState>)>;

fn run_fleet(
    slots: &[Slot],
    faults: &[FaultPlan],
    quanta: usize,
    budget: f64,
    workers: usize,
) -> Trace {
    let mut coordinator = Coordinator::new(budget, Box::new(WeightedFair))
        .with_watchdog(WatchdogConfig::default())
        .with_pool(Arc::new(ExecPool::new(workers)));
    let mut handles = vec![None; slots.len()];
    let mut frozen = vec![None; slots.len()];
    let mut trace = Vec::with_capacity(quanta);
    let mut now = 0.0;
    for quantum in 0..quanta {
        lifecycle(&mut coordinator, slots, &mut handles, quantum);
        now += 1.0;
        advance_with_faults(
            &mut coordinator,
            faults,
            &handles,
            &mut frozen,
            now,
            quantum,
        );
        let summary = coordinator.step(now).unwrap();
        trace.push((
            coordinator.awards().iter().map(|a| a.to_bits()).collect(),
            summary.active_apps,
            summary.awarded_watts_total.to_bits(),
            coordinator
                .apps()
                .iter()
                .map(|app| app.health_state())
                .collect(),
        ));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn watchdog_preserves_award_invariants_under_fault_churn(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..9),
        weights in proptest::collection::vec(0.25..8.0f64, 9),
        targets in proptest::collection::vec(5.0..80.0f64, 9),
        arrivals in proptest::collection::vec(0usize..16, 9),
        departures in proptest::collection::vec(0usize..16, 9),
        fault_kinds in proptest::collection::vec(0usize..6, 9),
        fault_froms in proptest::collection::vec(0usize..16, 9),
        fault_lens in proptest::collection::vec(0usize..16, 9),
        workers in 1usize..4,
    ) {
        let quanta = 16;
        let budget = 35.0;
        let config = WatchdogConfig::default();
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let faults = decode_faults(&fault_kinds, &fault_froms, &fault_lens, quanta);
        let mut coordinator = Coordinator::new(budget, Box::new(WeightedFair))
            .with_watchdog(config)
            .with_pool(Arc::new(ExecPool::new(workers)));
        let mut handles = vec![None; slots.len()];
        let mut frozen = vec![None; slots.len()];
        let mut now = 0.0;
        for quantum in 0..quanta {
            lifecycle(&mut coordinator, &slots, &mut handles, quantum);
            now += 1.0;
            advance_with_faults(&mut coordinator, &faults, &handles, &mut frozen, now, quantum);
            let summary = coordinator.step(now).unwrap();

            // Awards: finite, non-negative, 0 W when absent, and pinned to
            // the floor seat while quarantined (the quarantine request
            // ceiling is the floor envelope).
            let judged: Vec<AwardedApp> = coordinator
                .apps()
                .iter()
                .map(|app| {
                    let slot = AwardedApp {
                        active: app.active_at(quantum),
                        ceiling: None,
                    };
                    if app.health_state() == HealthState::Quarantined {
                        slot.with_ceiling(config.quarantine_floor_watts)
                    } else {
                        slot
                    }
                })
                .collect();
            let violations = check_award_vector(coordinator.awards(), &judged);
            prop_assert!(
                violations.is_empty(),
                "award invariants violated at quantum {quantum}: {violations:?}"
            );

            // The fleet total conserves the headroomed budget, and the
            // summary agrees with the recomputed total.
            let total: f64 = coordinator.awards().iter().sum();
            prop_assert!(
                check_budget_conservation(total, budget * 0.95).is_none(),
                "fleet total {total} exceeds headroomed budget at quantum {quantum}"
            );
            prop_assert!(
                check_summary_total(summary.awarded_watts_total, total).is_none(),
                "summary total {} vs recomputed {total} at quantum {quantum}",
                summary.awarded_watts_total
            );

            // Ladder bookkeeping: a quarantine verdict always carries its
            // quantum, and readmission implies a prior quarantine.
            for app in coordinator.apps() {
                if app.health_state() == HealthState::Quarantined {
                    prop_assert!(app.quarantined_at().is_some());
                }
                if app.readmitted_at().is_some() {
                    prop_assert!(app.quarantined_at().is_some());
                }
            }
        }
    }

    #[test]
    fn degradation_is_bit_identical_at_every_worker_count(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..8),
        weights in proptest::collection::vec(0.25..8.0f64, 8),
        targets in proptest::collection::vec(5.0..80.0f64, 8),
        arrivals in proptest::collection::vec(0usize..12, 8),
        departures in proptest::collection::vec(0usize..12, 8),
        fault_kinds in proptest::collection::vec(0usize..6, 8),
        fault_froms in proptest::collection::vec(0usize..12, 8),
        fault_lens in proptest::collection::vec(0usize..12, 8),
    ) {
        let quanta = 12;
        let budget = 35.0;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let faults = decode_faults(&fault_kinds, &fault_froms, &fault_lens, quanta);
        let single = run_fleet(&slots, &faults, quanta, budget, 1);
        for workers in 2..=3 {
            let sharded = run_fleet(&slots, &faults, quanta, budget, workers);
            prop_assert!(
                single == sharded,
                "worker count {} diverged from the sequential ladder",
                workers
            );
        }
    }

    #[test]
    fn transient_stalls_quarantine_and_readmit(
        seeds in proptest::collection::vec(1u64..1_000_000, 3..6),
        stall_from in 9usize..13,
        stall_len in 6usize..10,
    ) {
        // One app's heartbeat pipe wedges for a bounded window after the
        // warmup grace; everyone else is honest throughout. The stalled
        // app must be quarantined while silent and readmitted once it has
        // been honest for the readmission window.
        let config = WatchdogConfig::default();
        let quanta = stall_from + stall_len + config.readmit_quanta + 8;
        let budget = 35.0;
        let slots: Vec<Slot> = seeds
            .iter()
            .enumerate()
            .map(|(index, &seed)| Slot::resident(seed, 1.0 + index as f64, 40.0))
            .collect();
        let faults: Vec<FaultPlan> = (0..slots.len())
            .map(|index| FaultPlan {
                fault: if index == 0 { Fault::Stall } else { Fault::None },
                fault_from: stall_from,
                fault_until: Some(stall_from + stall_len),
            })
            .collect();
        let mut coordinator =
            Coordinator::new(budget, Box::new(WeightedFair)).with_watchdog(config);
        let mut handles = vec![None; slots.len()];
        lifecycle(&mut coordinator, &slots, &mut handles, 0);
        let stalled_app = handles[0].expect("every slot arrives at quantum 0");
        let mut frozen = vec![None; slots.len()];
        let mut now = 0.0;
        let mut quarantined_during_stall = false;
        for quantum in 0..quanta {
            now += 1.0;
            advance_with_faults(&mut coordinator, &faults, &handles, &mut frozen, now, quantum);
            coordinator.step(now).unwrap();
            let stalled = coordinator.app(stalled_app);
            if quantum >= stall_from && quantum < stall_from + stall_len {
                quarantined_during_stall |=
                    stalled.health_state() == HealthState::Quarantined;
            }
            for &handle in handles[1..].iter().flatten() {
                prop_assert!(
                    coordinator.app(handle).health_state() != HealthState::Quarantined,
                    "an honest app was quarantined at quantum {quantum}"
                );
            }
        }
        // The stall outlives the stale threshold, so the ladder must have
        // acted; the honest tail outlives the readmission window, so it
        // must also have let go.
        prop_assert!(quarantined_during_stall, "the stalled app was never quarantined");
        let stalled = coordinator.app(stalled_app);
        prop_assert!(stalled.quarantined_at().is_some());
        prop_assert!(
            stalled.readmitted_at().is_some(),
            "the recovered app was never readmitted (final state {:?})",
            stalled.health_state()
        );
        prop_assert!(
            stalled.health_state() == HealthState::Readmitted
                || stalled.health_state() == HealthState::Healthy,
            "recovered app still on the quarantine rung: {:?}",
            stalled.health_state()
        );
    }
}
