//! Property pins for the rack → datacenter hierarchy.
//!
//! * **Budget conservation under arbitrary partitions** — for every shipped
//!   policy (at both levels) and arbitrary fleets cut into arbitrary rack
//!   partitions, the rack envelopes conserve the datacenter budget, every
//!   rack's app awards conserve its envelope, and therefore the
//!   app-awarded total across the whole datacenter conserves the budget
//!   end to end. Absent apps and app-less racks are awarded exactly 0 W.
//!   The conservation chain is the shared
//!   [`coordinator::invariants::check_hierarchy_conservation`] oracle —
//!   the same one the scenario fuzzer asserts for hierarchical runs.
//! * **The flat coordinator is the 1-rack degenerate case** — a
//!   [`DatacenterArbiter`] holding one rack (under a `StaticShare`
//!   datacenter policy and unit headroom) produces byte-for-byte the
//!   awards, decisions, and summaries of a flat [`Coordinator`] over the
//!   same fleet, at every step. (Water-filling datacenter policies agree
//!   only to within a division round-off — see the hierarchy module docs —
//!   so the exact pin uses `StaticShare`.)

use coordinator::invariants::{
    check_award_vector, check_hierarchy_conservation, check_summary_total, AwardedApp,
    HierarchyTotals,
};
use coordinator::{
    AppHandle, ArbitrationPolicy, Coordinator, DatacenterArbiter, ManagedApp, PerformanceMarket,
    RackCoordinator, StaticShare, WeightedFair,
};
use proptest::prelude::*;
use seec::{ExplorationPolicy, SeecRuntime};
use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};

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
            let departure =
                (departures[i] > 0).then(|| (arrival + 1 + departures[i] % quanta).min(quanta));
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

fn policies() -> Vec<Box<dyn ArbitrationPolicy>> {
    vec![
        Box::new(StaticShare),
        Box::new(WeightedFair),
        Box::new(PerformanceMarket::default()),
    ]
}

/// Advances every app of every rack one quantum against a platform that
/// mirrors its declared effects exactly.
fn advance_datacenter(datacenter: &mut DatacenterArbiter, now: f64, quantum: usize) {
    for rack_index in 0..datacenter.len() {
        for position in 0..datacenter.rack(rack_index).coordinator().len() {
            let handle = AppHandle::from_index(position);
            if !datacenter
                .rack(rack_index)
                .coordinator()
                .app(handle)
                .active_at(quantum)
            {
                continue;
            }
            let effect = {
                let runtime = datacenter.rack(rack_index).coordinator().app(handle).runtime();
                runtime
                    .model()
                    .table()
                    .declared_effect(runtime.current_config_id())
            };
            datacenter.rack_mut(rack_index).advance(
                handle,
                now - 1.0,
                now,
                10.0 * effect.performance,
                10.0 * effect.power,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn hierarchy_conserves_the_budget_under_arbitrary_rack_partitions(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..10),
        weights in proptest::collection::vec(0.25..8.0f64, 10),
        targets in proptest::collection::vec(5.0..80.0f64, 10),
        arrivals in proptest::collection::vec(0usize..10, 10),
        departures in proptest::collection::vec(0usize..10, 10),
        rack_of in proptest::collection::vec(0usize..4, 10),
        racks in 1usize..5,
        dc_policy_pick in 0usize..3,
        rack_policy_pick in 0usize..3,
        workers in 1usize..4,
    ) {
        let quanta = 10;
        let budget = 35.0;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let dc_policy = policies().swap_remove(dc_policy_pick);
        let policy_name = dc_policy.name();
        let mut datacenter = DatacenterArbiter::new(budget, dc_policy).with_workers(workers);
        for rack_index in 0..racks {
            let rack_policy = policies().swap_remove(rack_policy_pick);
            datacenter.add_rack(RackCoordinator::new(
                format!("rack-{rack_index}"),
                Coordinator::new(budget, rack_policy),
            ));
        }
        // Arbitrary partition: app i lands on rack `rack_of[i] % racks`.
        for (index, &slot) in slots.iter().enumerate() {
            datacenter
                .rack_mut(rack_of[index] % racks)
                .register(managed(slot, index));
        }

        let mut now = 0.0;
        for quantum in 0..quanta {
            now += 1.0;
            advance_datacenter(&mut datacenter, now, quantum);
            let summary = datacenter.step(now).unwrap();

            // Rack envelopes are judged like an award vector: finite,
            // non-negative, and exactly 0 W for app-less or all-absent
            // racks.
            let rack_slots: Vec<AwardedApp> = datacenter
                .racks()
                .iter()
                .map(|rack| {
                    let any_active = (0..rack.coordinator().len()).any(|position| {
                        rack.coordinator()
                            .app(AppHandle::from_index(position))
                            .active_at(quantum)
                    });
                    AwardedApp {
                        active: any_active,
                        ceiling: None,
                    }
                })
                .collect();
            let violations = check_award_vector(datacenter.rack_awards(), &rack_slots);
            prop_assert!(
                violations.is_empty(),
                "{policy_name}: rack award invariants violated at quantum {quantum}: \
                 {violations:?}"
            );

            // Budget conservation datacenter → rack → app, via the shared
            // oracle: envelopes conserve the budget, each fleet conserves
            // its headroomed envelope, the app total conserves the
            // headroomed budget.
            let totals = HierarchyTotals {
                budget,
                rack_envelopes: datacenter.rack_awards().to_vec(),
                rack_fleet_totals: datacenter
                    .racks()
                    .iter()
                    .map(|rack| rack.coordinator().awards().iter().sum())
                    .collect(),
                headroom: 0.95,
            };
            let violations = check_hierarchy_conservation(&totals);
            prop_assert!(
                violations.is_empty(),
                "{policy_name}: hierarchy conservation violated at quantum {quantum}: \
                 {violations:?} (totals {totals:?})"
            );
            let rack_total: f64 = totals.rack_envelopes.iter().sum();
            prop_assert!(
                check_summary_total(summary.rack_awarded_watts_total, rack_total).is_none(),
                "{policy_name}: summary rack total {} vs recomputed {rack_total}",
                summary.rack_awarded_watts_total
            );
        }
    }

    #[test]
    fn one_rack_hierarchy_is_bit_identical_to_the_flat_coordinator(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..8),
        weights in proptest::collection::vec(0.25..8.0f64, 8),
        targets in proptest::collection::vec(5.0..80.0f64, 8),
        arrivals in proptest::collection::vec(0usize..12, 8),
        departures in proptest::collection::vec(0usize..12, 8),
        rack_policy_pick in 0usize..3,
    ) {
        let quanta = 12;
        // Every app's absorption ceiling (10 W hint x 5.2 max declared
        // powerup = 52 W) exceeds the budget, so the single rack is awarded
        // exactly the whole budget and the degenerate case is exact.
        let budget = 35.0;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);

        // Flat reference.
        let mut flat = Coordinator::new(budget, policies().swap_remove(rack_policy_pick));
        let flat_handles: Vec<AppHandle> = slots
            .iter()
            .enumerate()
            .map(|(index, &slot)| flat.register(managed(slot, index)))
            .collect();

        // The same fleet as the sole rack of a datacenter.
        let mut datacenter = DatacenterArbiter::new(budget, Box::new(StaticShare));
        let mut rack = RackCoordinator::new(
            "the-rack",
            Coordinator::new(budget, policies().swap_remove(rack_policy_pick)),
        );
        for (index, &slot) in slots.iter().enumerate() {
            rack.register(managed(slot, index));
        }
        datacenter.add_rack(rack);

        let mut now = 0.0;
        for quantum in 0..quanta {
            now += 1.0;
            // Drive both fleets identically.
            for &handle in &flat_handles {
                if !flat.app(handle).active_at(quantum) {
                    continue;
                }
                let effect = {
                    let runtime = flat.app(handle).runtime();
                    runtime
                        .model()
                        .table()
                        .declared_effect(runtime.current_config_id())
                };
                flat.advance(handle, now - 1.0, now, 10.0 * effect.performance, 10.0 * effect.power);
            }
            advance_datacenter(&mut datacenter, now, quantum);

            let flat_summary = flat.step(now).unwrap();
            let dc_summary = datacenter.step(now).unwrap();
            let rack = datacenter.rack(0);

            prop_assert_eq!(dc_summary.active_apps, flat_summary.active_apps);
            prop_assert!(
                dc_summary.app_awarded_watts_total.to_bits()
                    == flat_summary.awarded_watts_total.to_bits(),
                "awarded totals diverged at quantum {}: flat {} vs hierarchy {}",
                quantum,
                flat_summary.awarded_watts_total,
                dc_summary.app_awarded_watts_total
            );
            prop_assert!(rack.coordinator().awards() == flat.awards());
            for (position, &handle) in flat_handles.iter().enumerate() {
                let flat_decision = flat.app(handle).last_decision();
                let rack_decision = rack
                    .coordinator()
                    .app(AppHandle::from_index(position))
                    .last_decision();
                prop_assert!(
                    flat_decision == rack_decision,
                    "app {} decisions diverged at quantum {}",
                    position,
                    quantum
                );
            }
        }
    }
}
