//! Property tests for the coordinator's sharded step and runtime app
//! lifecycle.
//!
//! * **Shard bit-identity** — for arbitrary fleets (sizes, weights,
//!   targets, seeds, arrival/departure windows — each app registered at
//!   its arrival and retired at its departure) and arbitrary worker
//!   counts, every step of the sharded coordinator produces byte-for-byte
//!   the awards, decisions, applied configurations, and summaries of the
//!   sequential coordinator. This is the guarantee that lets fig5 (and any
//!   other caller) turn sharding on purely as a performance knob.
//! * **Budget conservation under churn** — for every shipped policy and
//!   arbitrary interleavings of register/retire events during a run, the
//!   awards of present apps never exceed the headroomed budget, retired
//!   apps are awarded exactly 0 W, and every award is
//!   non-negative and finite. The checks are the shared
//!   [`coordinator::invariants`] oracles, so the pins here and the
//!   scenario fuzzer's oracles cannot drift apart.
//! * **Cached admission feasibility** — through arbitrary interleavings of
//!   every lifecycle call, each `try_register` decides exactly as a full
//!   scan of the residents' committed floors would, to the bit.

mod common;

use std::sync::Arc;

use common::{
    advance_present, award_record_mismatch, decode_slots, lifecycle, managed, parts, policies, Slot,
};
use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, check_summary_total, AwardedApp,
};
use coordinator::{AdmissionError, AppHandle, ArbitrationPolicy, Coordinator, ManagedApp};
use exec::ExecPool;
use proptest::prelude::*;

/// Drives a fleet for `quanta` steps against a platform mirroring each
/// app's declared effects exactly, returning the full per-step trace
/// (summary, awards, per-app decisions) for exact comparison.
type Trace = Vec<(
    coordinator::StepSummary,
    Vec<f64>,
    Vec<Option<seec::Decision>>,
)>;

fn drive(
    policy: Box<dyn ArbitrationPolicy>,
    slots: &[Slot],
    quanta: usize,
    workers: usize,
) -> Trace {
    // Threshold 0: even these small generated fleets exercise the pooled
    // (sharded) step rather than the inline one.
    let mut coordinator = Coordinator::new(35.0, policy)
        .with_pool(Arc::new(ExecPool::new(workers)))
        .with_shard_threshold(0);
    let mut handles = vec![None; slots.len()];
    let mut now = 0.0;
    let mut trace = Trace::new();
    for quantum in 0..quanta {
        lifecycle(&mut coordinator, slots, &mut handles, quantum);
        now += 1.0;
        advance_present(&mut coordinator, now);
        let summary = coordinator.step(now).unwrap();
        trace.push((
            summary,
            coordinator.awards().to_vec(),
            coordinator
                .apps()
                .iter()
                .map(|app| app.last_decision())
                .collect(),
        ));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_step_is_bit_identical_to_sequential_for_arbitrary_fleets(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..9),
        weights in proptest::collection::vec(0.25..8.0f64, 9),
        targets in proptest::collection::vec(5.0..80.0f64, 9),
        arrivals in proptest::collection::vec(0usize..12, 9),
        departures in proptest::collection::vec(0usize..12, 9),
        policy_pick in 0usize..3,
        workers_a in 2usize..9,
        workers_b in 2usize..9,
    ) {
        let quanta = 12;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let policy = || policies().swap_remove(policy_pick);
        let sequential = drive(policy(), &slots, quanta, 1);
        for workers in [workers_a, workers_b] {
            let sharded = drive(policy(), &slots, quanta, workers);
            prop_assert!(
                sequential == sharded,
                "sharded run diverged at {} workers over {} apps",
                workers,
                slots.len()
            );
        }
    }

    #[test]
    fn budget_is_conserved_across_arbitrary_register_retire_sequences(
        initial_seeds in proptest::collection::vec(1u64..1_000_000, 1..4),
        churn_seeds in proptest::collection::vec(1u64..1_000_000, 8),
        churn_quanta in proptest::collection::vec(0usize..16, 8),
        churn_kinds in proptest::collection::vec(0usize..2, 8),
        weights in proptest::collection::vec(0.25..8.0f64, 12),
        targets in proptest::collection::vec(5.0..80.0f64, 12),
        policy_pick in 0usize..3,
        workers in 1usize..5,
    ) {
        let quanta = 16usize;
        let budget = 30.0;
        let policy = policies().swap_remove(policy_pick);
        let policy_name = policy.name();
        let mut coordinator = Coordinator::new(budget, policy)
            .with_pool(Arc::new(ExecPool::new(workers)))
            .with_shard_threshold(0);
        let mut handles: Vec<AppHandle> = Vec::new();
        let mut next_app = 0usize;
        let mut register = |coordinator: &mut Coordinator, handles: &mut Vec<AppHandle>, seed: u64| {
            let slot = Slot::resident(
                seed,
                weights[next_app % weights.len()],
                targets[next_app % targets.len()],
            );
            handles.push(coordinator.register(managed(slot, next_app)));
            next_app += 1;
        };
        for &seed in &initial_seeds {
            register(&mut coordinator, &mut handles, seed);
        }

        let mut now = 0.0;
        for quantum in 0..quanta {
            // Apply this quantum's churn events (in generated order).
            for (event, &at) in churn_quanta.iter().enumerate() {
                if at != quantum {
                    continue;
                }
                if churn_kinds[event] == 0 {
                    register(&mut coordinator, &mut handles, churn_seeds[event]);
                } else if let Some(&victim) =
                    handles.get(churn_seeds[event] as usize % handles.len().max(1))
                {
                    coordinator.retire(victim);
                }
            }

            now += 1.0;
            advance_present(&mut coordinator, now);
            let stepped_at = coordinator.quantum();
            let summary = coordinator.step(now).unwrap();
            prop_assert_eq!(summary.quantum, stepped_at);

            let apps: Vec<AwardedApp> = handles
                .iter()
                .map(|&handle| AwardedApp {
                    active: coordinator.app(handle).active_at(stepped_at),
                    ceiling: None,
                })
                .collect();
            let violations = check_award_vector(coordinator.awards(), &apps);
            prop_assert!(
                violations.is_empty(),
                "{policy_name}: award invariants violated at quantum {stepped_at}: {violations:?}"
            );
            let total = active_total(coordinator.awards(), &apps);
            prop_assert!(
                check_budget_conservation(total, budget * 0.95).is_none(),
                "{policy_name}: awards {total} exceed the headroomed budget at quantum {stepped_at} \
                 with {} registered apps",
                handles.len()
            );
            prop_assert!(
                check_summary_total(summary.awarded_watts_total, total).is_none(),
                "{policy_name}: summary total {} vs recomputed {total}",
                summary.awarded_watts_total
            );
            let mismatch = award_record_mismatch(&coordinator);
            prop_assert!(
                mismatch.is_none(),
                "{policy_name}: (slot, award, awarded_watts) {mismatch:?} at quantum {stepped_at}"
            );
        }
    }
}

/// The admission feasibility verdict from a full scan: every resident's
/// committed floor — its cheapest-configuration draw once decided, its
/// launch power before — folded in registration order against the
/// headroomed budget. `Err` carries the headroom a refusal reports.
fn feasibility_oracle(coordinator: &Coordinator, registrant: &ManagedApp) -> Result<(), f64> {
    let floor = registrant.nominal_power_watts();
    if floor <= 0.0 {
        return Ok(());
    }
    let quantum = coordinator.quantum();
    let committed: f64 = coordinator
        .apps()
        .iter()
        .filter(|app| app.active_at(quantum))
        .map(|app| {
            if app.last_decision().is_some() {
                app.nominal_power_watts() * app.runtime().model().table().min_declared_power()
            } else {
                app.nominal_power_watts()
            }
        })
        .sum();
    let cap = coordinator.budget_watts() * 0.95;
    if committed + floor > cap {
        Err((cap - committed).max(0.0))
    } else {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `try_register` keeps its feasibility sum across calls. Over random
    /// interleavings of `register`, `try_register`, `retire`, `advance`,
    /// `set_budget` and `step` — with admission control on or off, and
    /// registrants of varied (and unknown) launch power — every
    /// `try_register` must agree with the full-scan oracle: the same
    /// admission or refusal, and a refusal's headroom equal to the bit.
    #[test]
    fn cached_feasibility_matches_a_full_scan(
        ops in proptest::collection::vec(0usize..6, 24..96),
        picks in proptest::collection::vec(0usize..1_000, 96),
        hints in proptest::collection::vec(0.0..24.0f64, 96),
        budgets in proptest::collection::vec(8.0..120.0f64, 96),
        admission_control in 0usize..2,
    ) {
        let mut coordinator = Coordinator::new(35.0, policies().swap_remove(picks[0] % 3))
            .with_admission_feasibility(true)
            .with_admission_control(admission_control == 0);
        let mut handles: Vec<AppHandle> = Vec::new();
        let mut now = 0.0;
        for (i, &op) in ops.iter().enumerate() {
            // A hint of exactly 0 W (unknown launch power) one time in six.
            let app = |index: usize| {
                let (driver, runtime) = parts(Slot::resident(index as u64 + 1, 1.0, 30.0), index);
                let hint = if picks[i] % 6 == 0 { 0.0 } else { hints[i] };
                ManagedApp::new(driver, runtime).with_nominal_power_hint(hint)
            };
            match op {
                0 => handles.push(coordinator.register(app(handles.len()))),
                1 => {
                    let registrant = app(handles.len());
                    let expected = feasibility_oracle(&coordinator, &registrant);
                    match (coordinator.try_register(registrant), expected) {
                        (Ok(handle), Ok(())) => handles.push(handle),
                        (Err(AdmissionError { headroom_watts, .. }), Err(headroom)) => {
                            prop_assert_eq!(headroom_watts.to_bits(), headroom.to_bits());
                        }
                        (actual, expected) => {
                            prop_assert!(
                                false,
                                "op {i}: try_register gave {actual:?}, the full scan {expected:?}"
                            );
                        }
                    }
                }
                2 => {
                    if !handles.is_empty() {
                        coordinator.retire(handles[picks[i] % handles.len()]);
                    }
                }
                3 => {
                    now += 1.0;
                    advance_present(&mut coordinator, now);
                }
                4 => coordinator.set_budget(budgets[i]),
                _ => {
                    now += 1.0;
                    coordinator.step(now).unwrap();
                }
            }
        }
    }
}
