//! Property tests for the coordinator's sharded step and runtime app
//! lifecycle.
//!
//! * **Shard bit-identity** — for arbitrary fleets (sizes, weights,
//!   targets, seeds, arrival/departure windows) and arbitrary worker
//!   counts, every step of the sharded coordinator produces byte-for-byte
//!   the awards, decisions, applied configurations, and summaries of the
//!   sequential coordinator. This is the guarantee that lets fig5 (and any
//!   other caller) turn sharding on purely as a performance knob.
//! * **Budget conservation under churn** — for every shipped policy and
//!   arbitrary interleavings of register/retire events during a run, the
//!   awards of present apps never exceed the headroomed budget, retired
//!   and not-yet-arrived apps are awarded exactly 0 W, and every award is
//!   non-negative and finite. The checks are the shared
//!   [`coordinator::invariants`] oracles, so the pins here and the
//!   scenario fuzzer's oracles cannot drift apart.

use std::sync::Arc;

use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, check_summary_total, AwardedApp,
};
use coordinator::{
    AppHandle, ArbitrationPolicy, Coordinator, ManagedApp, PerformanceMarket, StaticShare,
    WeightedFair,
};
use exec::ExecPool;
use proptest::prelude::*;
use seec::{ExplorationPolicy, SeecRuntime};
use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};

/// A small action space whose declared effects the synthetic platform
/// mirrors exactly (same shape as the unit suite's).
fn actuators() -> Vec<Box<dyn actuation::Actuator>> {
    use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
    let dvfs = ActuatorSpec::builder("dvfs")
        .setting(
            SettingSpec::new("slow")
                .effect(Axis::Performance, 0.5)
                .effect(Axis::Power, 0.4),
        )
        .setting(SettingSpec::new("nominal"))
        .setting(
            SettingSpec::new("fast")
                .effect(Axis::Performance, 2.0)
                .effect(Axis::Power, 2.6),
        )
        .nominal(1)
        .build()
        .unwrap();
    let cores = ActuatorSpec::builder("cores")
        .setting(SettingSpec::new("1"))
        .setting(
            SettingSpec::new("2")
                .effect(Axis::Performance, 1.9)
                .effect(Axis::Power, 2.0),
        )
        .build()
        .unwrap();
    vec![
        Box::new(TableActuator::new(dvfs)),
        Box::new(TableActuator::new(cores)),
    ]
}

/// One generated application slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seed: u64,
    weight: f64,
    target: f64,
    arrival: usize,
    departure: Option<usize>,
}

fn decode_slots(
    seeds: &[u64],
    weights: &[f64],
    targets: &[f64],
    arrivals: &[usize],
    departures: &[usize],
    quanta: usize,
) -> Vec<Slot> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let arrival = arrivals[i] % quanta;
            // Departure scalar 0 = stays forever; otherwise a half-open
            // window of at least one quantum.
            let departure = (departures[i] > 0)
                .then(|| (arrival + 1 + departures[i] % quanta).min(quanta));
            Slot {
                seed,
                weight: weights[i],
                target: targets[i],
                arrival,
                departure,
            }
        })
        .collect()
}

fn managed(slot: Slot, index: usize) -> ManagedApp {
    let benchmark = SplashBenchmark::ALL[index % SplashBenchmark::ALL.len()];
    let driver = HeartbeatedWorkload::new(Workload::new(benchmark, slot.seed));
    driver.set_heart_rate_goal(slot.target);
    let runtime = SeecRuntime::builder(driver.monitor())
        .actuators(actuators())
        .exploration(ExplorationPolicy {
            epsilon: 0.0,
            ..ExplorationPolicy::default()
        })
        .seed(slot.seed)
        .build()
        .unwrap();
    let mut app = ManagedApp::new(driver, runtime)
        .with_weight(slot.weight)
        .with_arrival(slot.arrival)
        .with_nominal_power_hint(10.0);
    if let Some(departure) = slot.departure {
        app = app.with_departure(departure);
    }
    app
}

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
    let handles: Vec<AppHandle> = slots
        .iter()
        .enumerate()
        .map(|(index, &slot)| coordinator.register(managed(slot, index)))
        .collect();
    let mut now = 0.0;
    let mut trace = Trace::new();
    for quantum in 0..quanta {
        now += 1.0;
        for &handle in &handles {
            if !coordinator.app(handle).active_at(quantum) {
                continue;
            }
            let effect = {
                let runtime = coordinator.app(handle).runtime();
                runtime
                    .model()
                    .table()
                    .declared_effect(runtime.current_config_id())
            };
            coordinator.advance(
                handle,
                now - 1.0,
                now,
                10.0 * effect.performance,
                10.0 * effect.power,
            );
        }
        let summary = coordinator.step(now).unwrap();
        trace.push((
            summary,
            coordinator.awards().to_vec(),
            handles
                .iter()
                .map(|&h| coordinator.app(h).last_decision())
                .collect(),
        ));
    }
    trace
}

fn policies() -> Vec<Box<dyn ArbitrationPolicy>> {
    vec![
        Box::new(StaticShare),
        Box::new(WeightedFair),
        Box::new(PerformanceMarket::default()),
    ]
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
            let slot = Slot {
                seed,
                weight: weights[next_app % weights.len()],
                target: targets[next_app % targets.len()],
                arrival: 0,
                departure: None,
            };
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
            for &handle in &handles {
                if !coordinator.app(handle).active_at(coordinator.quantum()) {
                    continue;
                }
                let effect = {
                    let runtime = coordinator.app(handle).runtime();
                    runtime
                        .model()
                        .table()
                        .declared_effect(runtime.current_config_id())
                };
                coordinator.advance(
                    handle,
                    now - 1.0,
                    now,
                    10.0 * effect.performance,
                    10.0 * effect.power,
                );
            }
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
        }
    }
}
