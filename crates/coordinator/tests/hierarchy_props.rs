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
//! * **The multi-rack trace is pinned** — 2–4 racks mixing
//!   `WeightedFair`, `PerformanceMarket` and `AwardHysteresis` at both
//!   levels, at tolerance 0 and at 0.05 with the wake scheduler, with the
//!   watchdog judging NaN, infinite and overdrawn power claims and stalls,
//!   apps without a nominal-power hint (their ceilings follow the rack
//!   budget), mid-run arrivals and retirements, and a rack that empties
//!   (and is awarded 0 W): every quantum's rack envelopes, app awards,
//!   summaries, decisions and health states fold into one digest, pinned,
//!   and equal at one and two pool workers.
//! * **One snapshot per app per datacenter quantum** — every monitor
//!   snapshot a rack takes is booked in `Counter::AppsObserved`, and a
//!   datacenter step books at most each rack's present apps plus the apps
//!   it retired since the last step; a rack with a positive envelope books
//!   at least its present apps, whose aggregate request needs them.

mod common;

use std::sync::Arc;

use common::{
    advance_present, decode_slots, lifecycle, managed, parts, platform_outcome, policies, Slot,
};
use coordinator::invariants::{
    check_award_vector, check_hierarchy_conservation, check_summary_total, AwardedApp,
    HierarchyTotals,
};
use coordinator::{
    AppHandle, ArbitrationPolicy, ArbitrationSchedule, AwardHysteresis, Coordinator,
    DatacenterArbiter, HealthState, ManagedApp, PerformanceMarket, RackCoordinator, StaticShare,
    WakeConfig, WatchdogConfig, WeightedFair,
};
use exec::ExecPool;
use obs::{Counter, Recorder};
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

/// The policies the multi-rack pins mix at both levels.
fn mixed_policy(pick: usize) -> Box<dyn ArbitrationPolicy> {
    match pick % 3 {
        0 => Box::new(WeightedFair),
        1 => Box::new(PerformanceMarket::default()),
        _ => Box::new(
            AwardHysteresis::new(Box::new(PerformanceMarket::default()), 0.05)
                .with_max_step_fraction(0.05),
        ),
    }
}

/// Tolerance 0 with no wake scheduler, or tolerance 0.05 with one.
fn mixed_schedule(exact: bool) -> ArbitrationSchedule {
    if exact {
        ArbitrationSchedule::default()
    } else {
        ArbitrationSchedule {
            tolerance: 0.05,
            wake: WakeConfig {
                steady_quanta: 1,
                horizon: 4,
            },
        }
    }
}

/// A datacenter of `racks` racks under `budget`, the datacenter running
/// `mixed_policy(dc_pick)` and rack `r` `mixed_policy(dc_pick + r + 1)`,
/// every rack sharding on one pool of `workers` from the first app on,
/// under `schedule` and `watchdog`.
fn mixed_datacenter(
    racks: usize,
    budget: f64,
    dc_pick: usize,
    schedule: ArbitrationSchedule,
    watchdog: WatchdogConfig,
    workers: usize,
) -> DatacenterArbiter {
    let mut datacenter = DatacenterArbiter::new(budget, mixed_policy(dc_pick));
    let pool = Arc::new(ExecPool::new(workers));
    for rack in 0..racks {
        let mut coordinator = Coordinator::new(budget, mixed_policy(dc_pick + rack + 1))
            .with_pool(Arc::clone(&pool))
            .with_shard_threshold(0)
            .with_watchdog(watchdog);
        coordinator.set_schedule(schedule).unwrap();
        datacenter.add_rack(RackCoordinator::new(format!("rack-{rack}"), coordinator));
    }
    datacenter
}

/// What an app of the pinned runs reports while its fault window is open.
#[derive(Debug, Clone, Copy)]
enum Claim {
    /// The truth (the window is inert).
    Honest,
    /// No report at all.
    Stall,
    /// Reported power is NaN.
    NanPower,
    /// Reported power is +∞.
    InfinitePower,
    /// Reported power is three times the platform's.
    Overdraw,
}

/// One app of the pinned runs.
#[derive(Debug, Clone, Copy)]
struct PinnedApp {
    slot: Slot,
    rack: usize,
    /// Whether it registers with a nominal-power hint. Without one its
    /// ceiling is its rack's budget until power samples arrive.
    hinted: bool,
    claim: Claim,
    /// The quanta `[from, until)` it reports `claim` instead of the truth.
    faulty: (usize, usize),
}

const PIN_QUANTA: usize = 16;

/// The fleet of pinned case `case` over `racks` racks, drawn from a fixed
/// xorshift stream: three to five apps per rack, a third of them arriving
/// mid-run, some retiring mid-run, and every app of rack 0 retired by
/// quantum 9, so that rack empties and is awarded 0 W from then on.
fn pinned_fleet(case: u64, racks: usize) -> Vec<PinnedApp> {
    let mut state = 0x9e37_79b9_7f4a_7c15 ^ (case + 1).wrapping_mul(0x2545_f491_4f6c_dd1d);
    let mut draw = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound) as usize
    };
    let mut fleet = Vec::new();
    for rack in 0..racks {
        for _ in 0..3 + draw(3) {
            let arrival = if draw(3) == 0 { 1 + draw(4) } else { 0 };
            let departure = if rack == 0 {
                Some(5 + draw(5))
            } else if draw(4) == 0 {
                Some((arrival + 2 + draw(8)).min(PIN_QUANTA))
            } else {
                None
            };
            let slot = Slot {
                seed: 1 + draw(1_000_000) as u64,
                weight: 0.25 + draw(32) as f64 / 4.0,
                target: 5.0 + draw(75) as f64,
                arrival,
                departure,
            };
            let claim = [
                Claim::Honest,
                Claim::Stall,
                Claim::NanPower,
                Claim::InfinitePower,
                Claim::Overdraw,
            ][draw(5)];
            let from = draw(PIN_QUANTA as u64);
            fleet.push(PinnedApp {
                slot,
                rack,
                hinted: draw(3) != 0,
                claim,
                faulty: (from, from + 1 + draw(5)),
            });
        }
    }
    fleet
}

/// Folds one 64-bit word into an FNV-1a digest.
fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
}

/// One pinned case at `workers` pool workers: its racks, datacenter
/// policy and schedule follow from `case`, its fleet from
/// [`pinned_fleet`]. Returns the digest of every quantum's summary, rack
/// envelopes, app awards, decisions and health states.
fn pinned_run(case: usize, workers: usize) -> u64 {
    let racks = 2 + case % 3;
    let dc_pick = case / 3 % 3;
    let exact = (case / 9).is_multiple_of(2);
    let fleet = pinned_fleet(case as u64, racks);
    let watchdog = WatchdogConfig {
        stale_beat_quanta: 3,
        overdraw_quanta: 2,
        readmit_quanta: 3,
        warmup_quanta: 2,
        ..WatchdogConfig::default()
    };
    let mut datacenter = mixed_datacenter(
        racks,
        24.0 * racks as f64,
        dc_pick,
        mixed_schedule(exact),
        watchdog,
        workers,
    );
    let mut handles = vec![None; fleet.len()];
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for quantum in 0..PIN_QUANTA {
        for (index, app) in fleet.iter().enumerate() {
            let coordinator = datacenter.rack_mut(app.rack).coordinator_mut();
            if app.slot.arrival == quantum {
                let (driver, runtime) = parts(app.slot, index);
                let mut managed = ManagedApp::new(driver, runtime).with_weight(app.slot.weight);
                if app.hinted {
                    managed = managed.with_nominal_power_hint(common::POWER_HINT);
                }
                handles[index] = Some(coordinator.register(managed));
            }
            if app.slot.departure == Some(quantum) {
                coordinator.retire(handles[index].expect("a departure follows its arrival"));
            }
        }
        let now = (quantum + 1) as f64;
        for (index, app) in fleet.iter().enumerate() {
            if !app.slot.present(quantum) {
                continue;
            }
            let handle = handles[index].expect("a present app has arrived");
            let rack = datacenter.rack_mut(app.rack);
            let (work, power) = platform_outcome(rack.coordinator().app(handle).runtime());
            let claim = if (app.faulty.0..app.faulty.1).contains(&quantum) {
                app.claim
            } else {
                Claim::Honest
            };
            let claimed = match claim {
                Claim::Honest => power,
                Claim::Stall => continue,
                Claim::NanPower => f64::NAN,
                Claim::InfinitePower => f64::INFINITY,
                Claim::Overdraw => 3.0 * power,
            };
            rack.admit(now - 1.0, now, work, power);
            rack.coordinator_mut()
                .advance(handle, now - 1.0, now, work, claimed);
        }
        let summary = datacenter.step(now).unwrap();
        for word in [
            summary.quantum as u64,
            summary.active_racks as u64,
            summary.active_apps as u64,
            summary.rack_awarded_watts_total.to_bits(),
            summary.app_awarded_watts_total.to_bits(),
        ] {
            fold(&mut digest, word);
        }
        for award in datacenter.rack_awards() {
            fold(&mut digest, award.to_bits());
        }
        for rack in datacenter.racks() {
            for award in rack.coordinator().awards() {
                fold(&mut digest, award.to_bits());
            }
            for app in rack.coordinator().apps() {
                let health = match app.health_state() {
                    HealthState::Healthy => 0,
                    HealthState::Suspect => 1,
                    HealthState::Quarantined => 2,
                    HealthState::Readmitted => 3,
                };
                fold(&mut digest, health);
                let decision = app.last_decision();
                fold(
                    &mut digest,
                    decision.map_or(0, |decision| decision.required_speedup.to_bits()),
                );
                fold(
                    &mut digest,
                    decision.map_or(0, |decision| decision.believed_powerup.to_bits()),
                );
            }
        }
    }
    digest
}

/// The digest of every pinned case, folded in case order.
const PINNED_HIERARCHY_DIGEST: u64 = 0xf4f3_f4f7_5b24_6f43;

#[test]
fn the_multi_rack_trace_is_pinned_at_one_and_two_workers() {
    for workers in [1, 2] {
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for case in 0..18 {
            fold(&mut digest, pinned_run(case, workers));
        }
        assert_eq!(
            digest, PINNED_HIERARCHY_DIGEST,
            "{workers} workers: digest {digest:#018x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every rack books each monitor snapshot it takes in
    /// `Counter::AppsObserved` (each rack has its own recorder). Per
    /// datacenter step a rack books at most its present apps plus the apps
    /// it retired since the last step, and a rack with a positive envelope
    /// books at least its present apps, at tolerance 0 and at 0.05 with
    /// the wake scheduler and the watchdog on.
    #[test]
    fn a_datacenter_step_snapshots_each_app_at_most_once(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..10),
        weights in proptest::collection::vec(0.25..8.0f64, 10),
        targets in proptest::collection::vec(5.0..80.0f64, 10),
        arrivals in proptest::collection::vec(0usize..12, 10),
        departures in proptest::collection::vec(0usize..12, 10),
        rack_of in proptest::collection::vec(0usize..4, 10),
        racks in 2usize..5,
        dc_pick in 0usize..3,
        exact_pick in 0usize..2,
        workers in 1usize..3,
    ) {
        let quanta = 12;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let mut datacenter = mixed_datacenter(
            racks,
            35.0,
            dc_pick,
            mixed_schedule(exact_pick == 0),
            WatchdogConfig::default(),
            workers,
        );
        let recorders: Vec<Arc<Recorder>> = (0..racks)
            .map(|rack| {
                let recorder = Arc::new(Recorder::in_memory());
                datacenter.rack_mut(rack).set_obs(Some(Arc::clone(&recorder)));
                recorder
            })
            .collect();
        let rack_of = |index: usize| rack_of[index] % racks;
        let mut handles = vec![None; slots.len()];
        let mut now = 0.0;
        for quantum in 0..quanta {
            rack_lifecycle(&mut datacenter, rack_of, &slots, &mut handles, quantum);
            now += 1.0;
            advance_datacenter(&mut datacenter, now, quantum);
            let before: Vec<u64> = recorders
                .iter()
                .map(|recorder| recorder.counter(Counter::AppsObserved))
                .collect();
            datacenter.step(now).unwrap();
            for (rack, recorder) in recorders.iter().enumerate() {
                let observed = recorder.counter(Counter::AppsObserved) - before[rack];
                let on_rack = |index: &usize| rack_of(*index) == rack;
                let live = (0..slots.len())
                    .filter(on_rack)
                    .filter(|&index| slots[index].present(quantum))
                    .count() as u64;
                let retired = (0..slots.len())
                    .filter(on_rack)
                    .filter(|&index| slots[index].departure == Some(quantum))
                    .count() as u64;
                prop_assert!(
                    observed <= live + retired,
                    "quantum {quantum}, rack {rack}: {observed} snapshots, {live} live and \
                     {retired} just retired"
                );
                if datacenter.rack_awards()[rack] > 0.0 {
                    prop_assert!(
                        observed >= live,
                        "quantum {quantum}, rack {rack}: {observed} snapshots of {live} live apps"
                    );
                }
            }
        }
    }
}
