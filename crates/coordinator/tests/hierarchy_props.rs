//! Property pins for the rack → datacenter hierarchy.
//!
//! * **Budget conservation under arbitrary partitions** — for every shipped
//!   policy (at both levels) and arbitrary fleets cut into arbitrary rack
//!   partitions, the rack envelopes conserve the datacenter budget, every
//!   rack's app awards conserve its envelope, and therefore the
//!   app-awarded total across the whole datacenter conserves the budget
//!   end to end. Retired apps and app-less racks are awarded exactly 0 W.
//!   Each app registers on its rack at its arrival and retires at its
//!   departure.
//!   The conservation chain is the shared
//!   [`coordinator::invariants::check_hierarchy_conservation`] oracle —
//!   the same one the scenario fuzzer asserts for hierarchical runs.
//! * **The flat coordinator is the 1-rack degenerate case** — a
//!   [`DatacenterArbiter`] holding one rack (under a `StaticShare`
//!   datacenter policy, which arbitrates the whole budget) produces byte-for-byte the
//!   awards, decisions, and summaries of a flat [`Coordinator`] over the
//!   same fleet, at every step. (Water-filling datacenter policies agree
//!   only to within a division round-off — see the hierarchy module docs —
//!   so the exact pin uses `StaticShare`.)

mod common;

use std::sync::Arc;

use common::{advance_present, decode_slots, lifecycle, managed, platform_outcome, policies, Slot};
use coordinator::invariants::{
    check_award_vector, check_hierarchy_conservation, check_summary_total, AwardedApp,
    HierarchyTotals,
};
use coordinator::{AppHandle, Coordinator, DatacenterArbiter, RackCoordinator, StaticShare};
use exec::ExecPool;
use proptest::prelude::*;

/// The lifecycle calls of `quantum` on a datacenter, in slot order: slot
/// `i` registers on rack `rack_of(i)` at its arrival and retires there at
/// its departure. `handles[i]` is slot `i`'s rack and handle from its
/// arrival on.
fn rack_lifecycle(
    datacenter: &mut DatacenterArbiter,
    rack_of: impl Fn(usize) -> usize,
    slots: &[Slot],
    handles: &mut [Option<(usize, AppHandle)>],
    quantum: usize,
) {
    for (index, &slot) in slots.iter().enumerate() {
        if slot.arrival == quantum {
            let rack = rack_of(index);
            handles[index] = Some((
                rack,
                datacenter
                    .rack_mut(rack)
                    .coordinator_mut()
                    .register(managed(slot, index)),
            ));
        }
        if slot.departure == Some(quantum) {
            let (rack, handle) = handles[index].expect("a departure follows its arrival");
            datacenter.rack_mut(rack).coordinator_mut().retire(handle);
        }
    }
}

/// Advances every app of every rack one quantum against a platform that
/// mirrors its declared effects exactly.
fn advance_datacenter(datacenter: &mut DatacenterArbiter, now: f64, quantum: usize) {
    for rack_index in 0..datacenter.len() {
        for position in 0..datacenter.rack(rack_index).coordinator().len() {
            let handle = AppHandle::from_index(position);
            let app = datacenter.rack(rack_index).coordinator().app(handle);
            if !app.active_at(quantum) {
                continue;
            }
            let (work, power) = platform_outcome(app.runtime());
            datacenter
                .rack_mut(rack_index)
                .advance(handle, now - 1.0, now, work, power);
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
        let mut datacenter = DatacenterArbiter::new(budget, dc_policy);
        // Every rack shards its apps on one shared pool from the first app
        // on, so a worker count above 1 genuinely exercises the pool.
        let pool = Arc::new(ExecPool::new(workers));
        for rack_index in 0..racks {
            let rack_policy = policies().swap_remove(rack_policy_pick);
            datacenter.add_rack(RackCoordinator::new(
                format!("rack-{rack_index}"),
                Coordinator::new(budget, rack_policy)
                    .with_pool(Arc::clone(&pool))
                    .with_shard_threshold(0),
            ));
        }
        // Arbitrary partition: app i lands on rack `rack_of[i] % racks`.
        let mut handles = vec![None; slots.len()];

        let mut now = 0.0;
        for quantum in 0..quanta {
            rack_lifecycle(&mut datacenter, |i| rack_of[i] % racks, &slots, &mut handles, quantum);
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
        let mut flat_handles = vec![None; slots.len()];

        // The same fleet as the sole rack of a datacenter.
        let mut datacenter = DatacenterArbiter::new(budget, Box::new(StaticShare));
        datacenter.add_rack(RackCoordinator::new(
            "the-rack",
            Coordinator::new(budget, policies().swap_remove(rack_policy_pick)),
        ));
        let mut rack_handles = vec![None; slots.len()];

        let mut now = 0.0;
        for quantum in 0..quanta {
            // Drive both fleets identically.
            lifecycle(&mut flat, &slots, &mut flat_handles, quantum);
            rack_lifecycle(&mut datacenter, |_| 0, &slots, &mut rack_handles, quantum);
            now += 1.0;
            advance_present(&mut flat, now);
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
            for (position, (flat_app, rack_app)) in
                flat.apps().iter().zip(rack.coordinator().apps()).enumerate()
            {
                let flat_decision = flat_app.last_decision();
                let rack_decision = rack_app.last_decision();
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
