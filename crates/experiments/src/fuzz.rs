//! The scenario fuzzer's execution probe: one [`Scenario`] in, one
//! [`ScenarioOutcome`] out.
//!
//! The probe is the fig5 family's scenario driver (`ScenarioRun` in the
//! crate's private `scenario` module) plus an invariant-oracle hook — the
//! loop that produces the figures, not a copy of it. It configures the
//! platform with the robustness knobs that closed pinned incident classes:
//!
//! * single-rack scenarios run the flat performance-market coordinator on
//!   one machine (runtime app lifecycle, arbitration at the *end* of each
//!   quantum) with **admission control** on — registration decides a
//!   mid-run arrival under a zero envelope, closing the landing-quantum
//!   cap hole of `tests/corpus/cap_violation_machine.json` — and the
//!   admission **feasibility** pre-check;
//! * multi-rack scenarios run the rack → datacenter hierarchy, one machine
//!   per rack (arbitration at the *start* of each quantum, rack envelopes
//!   audited but not enforced), with **award hysteresis** at both levels,
//!   closing the award limit cycle of `tests/corpus/oscillation.json`;
//! * both apply the scenario's [`workloads::FaultPlan`] — crashed apps
//!   stop executing, stalled/corrupted telemetry stops or lies to the
//!   platform while the meter keeps seeing physical truth — and both also
//!   run the same layout under uncoordinated composition, the baseline
//!   that anchors the perf/W-cliff oracle.
//!
//! The hook asserts the shared [`coordinator::invariants`] oracles after
//! every arbitration (award sanity, budget conservation, summary
//! consistency, hierarchy conservation); the end-of-run checks cover cap
//! violations, starvation, award oscillation and the perf/W cliff.
//! Violations are deduplicated by label — the fuzzer cares about incident
//! *classes*, not how many quanta exhibited one.

use actuation::{ActuatorSpec, ConfigTable};
use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, check_cap_violation,
    check_hierarchy_conservation, check_perf_per_watt_cliff, check_starvation, check_summary_total,
    AwardedApp, HierarchyTotals, InvariantViolation, OscillationTracker,
};
use coordinator::{
    AppHandle, ArbitrationPolicy, ArbitrationSchedule, AwardHysteresis, PerformanceMarket,
    RackCoordinator, WakeConfig,
};
use obs::{Counter, Recorder};
use scenario_fuzz::{violation_label, PolicyPathCounters, ScenarioOutcome};
use workloads::Scenario;
use xeon_sim::XeonServer;

use crate::fig3::xeon_actuators;
use crate::scenario::{Hook, Layout, Platform, ScenarioEnd, ScenarioRun, Slot, Stepped};

/// Seed-mixing constant shared with the experiment cells.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Coordinated runs must hold the machine cap outright (the fig5 tests pin
/// exactly this for the hand-written mixes).
const MACHINE_CAP_LIMIT: f64 = 0.0;

/// Rack envelopes are audited, not enforced; any overdraw is an incident
/// class worth a fixture (the known defect of the hierarchy design).
const RACK_CAP_LIMIT: f64 = 0.0;

/// An app resident at least this many quanta …
const STARVATION_MIN_RESIDENCY: usize = 8;

/// … that attains less than this fraction of its goal is starved.
const STARVATION_FLOOR: f64 = 0.05;

/// Coordinated perf/W below this fraction of the uncoordinated baseline is
/// a cliff: coordination actively hurt.
const CLIFF_FLOOR_RATIO: f64 = 0.9;

/// Award moves below this fraction of the budget are dither, not
/// oscillation.
const OSCILLATION_THRESHOLD_FRACTION: f64 = 0.02;

/// The award-hysteresis dead band — and slew limit — the hierarchy probe
/// arbitrates under, deliberately equal to the oscillation oracle's
/// material-move threshold: any proposal the dead band holds is by
/// definition dither, and any move the slew limit emits is at most one
/// threshold per quantum, so a real redistribution arrives as a ramp the
/// oracle reads as a single direction, never as a flip. (The rack-level
/// coordinators arbitrate under their envelope, a fraction of the
/// datacenter budget, so their per-quantum steps are strictly inside the
/// oracle's band.)
const HYSTERESIS_DEAD_BAND: f64 = OSCILLATION_THRESHOLD_FRACTION;

/// Tolerated direction-flip rate in an app's award series.
const OSCILLATION_FLIP_LIMIT: f64 = 0.6;

/// Violations deduplicated by [`violation_label`]: the first instance of
/// each label is kept, later ones (more quanta, more apps) are dropped.
#[derive(Default)]
struct ViolationLog {
    violations: Vec<InvariantViolation>,
}

impl ViolationLog {
    /// Logs each violation whose label is new (an `Option` logs at most
    /// one).
    fn push(&mut self, violations: impl IntoIterator<Item = InvariantViolation>) {
        for violation in violations {
            let label = violation_label(&violation);
            if !self
                .violations
                .iter()
                .any(|seen| violation_label(seen) == label)
            {
                self.violations.push(violation);
            }
        }
    }
}

/// The arbitration schedule a scenario's coordinators run under.
/// [`Scenario::sanitize`] keeps the tolerance/wake pair canonical, so the
/// knob-off default maps to the default schedule.
fn arbitration_schedule(scenario: &Scenario) -> ArbitrationSchedule {
    ArbitrationSchedule {
        tolerance: scenario.arbitration_tolerance,
        wake: WakeConfig {
            steady_quanta: scenario.wake_steady_quanta,
            horizon: scenario.wake_horizon,
        },
    }
}

/// Counts the quanta at which the budget staircase changes the cap.
fn budget_step_count(scenario: &Scenario) -> u64 {
    (1..scenario.quanta)
        .filter(|&q| scenario.budget_fraction_at(q) != scenario.budget_fraction_at(q - 1))
        .count() as u64
}

/// The layout a scenario's rack tagging selects: one machine for one rack,
/// one machine per rack otherwise.
fn probe_layout(scenario: &Scenario) -> Layout {
    if scenario.rack_count() > 1 {
        Layout::Racks
    } else {
        Layout::Machine
    }
}

/// The hardened coordinated platform the probe attacks. An unsanitized NaN
/// or negative tolerance is refused by `set_schedule` and leaves the
/// default schedule.
fn probe_platform(scenario: &Scenario, layout: Layout, budget: f64) -> Platform {
    match layout {
        // Admission control closes the fuzzer-found arrival hole pinned by
        // `tests/corpus/cap_violation_machine.json`: under end-of-quantum
        // arbitration a mid-run arrival used to execute its landing quantum
        // in launch configuration under pre-arrival awards, transiently
        // blowing the cap. Registration now decides the newcomer under a
        // zero envelope, landing it in its cheapest configuration.
        //
        // The admission *feasibility* pre-check closes the residual hole
        // that admission control cannot —
        // `tests/corpus/cap_violation_launch_storm.json` pinned a fleet
        // whose cheapest-configuration floors already exceed the cap, an
        // infeasibility no arbitration can decide away. Registrants that
        // would push the committed floor past the cap are refused outright
        // and never execute.
        Layout::Machine => {
            let mut coordinator =
                Platform::coordinator(budget, Box::new(PerformanceMarket::default()))
                    .with_admission_control(true)
                    .with_admission_feasibility(true);
            let _ = coordinator.set_schedule(arbitration_schedule(scenario));
            Platform::Flat(Box::new(coordinator))
        }
        // Award hysteresis at both levels closes the fuzzer-found limit
        // cycle pinned by `tests/corpus/oscillation.json`: re-dividing
        // many-rack envelopes every quantum made an app's award direction
        // flip nearly every step. Sub-dead-band proposals are held, so
        // dither never reaches the apps; larger proposals are approached
        // under the slew limit, so the market's launch-transient swings (a
        // third of an envelope per quantum in the pinned fixture) decay
        // into sub-band dither instead of being adopted flip after flip.
        // Real redistributions still pass through — as ramps.
        Layout::Racks => {
            let market = || -> Box<dyn ArbitrationPolicy> {
                Box::new(
                    AwardHysteresis::new(
                        Box::new(PerformanceMarket::default()),
                        HYSTERESIS_DEAD_BAND,
                    )
                    .with_max_step_fraction(HYSTERESIS_DEAD_BAND),
                )
            };
            Platform::racks(
                budget,
                scenario.rack_count(),
                market,
                |name, mut coordinator| {
                    let _ = coordinator.set_schedule(arbitration_schedule(scenario));
                    RackCoordinator::new(name, coordinator)
                },
            )
        }
    }
}

/// The probe's invariant oracles: checked by the driver hook after every
/// arbitration, then once more over the finished run.
struct Oracles {
    log: ViolationLog,
    counters: PolicyPathCounters,
    oscillations: Vec<OscillationTracker>,
    /// Per-step scratch, reused so the hook allocates nothing per quantum.
    award_slots: Vec<AwardedApp>,
    totals: HierarchyTotals,
}

impl Oracles {
    fn new(scenario: &Scenario, layout: Layout, budget: f64) -> Self {
        Oracles {
            log: ViolationLog::default(),
            counters: PolicyPathCounters {
                budget_steps: budget_step_count(scenario),
                hierarchical: layout == Layout::Racks,
                ..PolicyPathCounters::default()
            },
            oscillations: vec![
                OscillationTracker::new(budget * OSCILLATION_THRESHOLD_FRACTION);
                scenario.apps.len()
            ],
            award_slots: Vec::new(),
            totals: HierarchyTotals {
                budget,
                rack_envelopes: Vec::new(),
                rack_fleet_totals: Vec::new(),
                headroom: 0.95,
            },
        }
    }

    /// Per-step oracles: the same checks the proptests pin.
    fn after_step(&mut self, stepped: &Stepped<'_>) {
        let quantum = stepped.quantum;
        let awarded_watts_total = stepped.awarded_watts_total.unwrap_or(0.0);
        let (log, slots, totals) = (&mut self.log, &mut self.award_slots, &mut self.totals);
        match stepped.platform {
            Platform::Flat(coordinator) => {
                slots.clear();
                slots.extend((0..coordinator.len()).map(|position| {
                    AwardedApp {
                        active: coordinator
                            .app(AppHandle::from_index(position))
                            .active_at(quantum),
                        ceiling: None,
                    }
                }));
                log.push(check_award_vector(coordinator.awards(), slots));
                let total = active_total(coordinator.awards(), slots);
                log.push(check_budget_conservation(
                    total,
                    coordinator.budget_watts() * 0.95,
                ));
                log.push(check_summary_total(awarded_watts_total, total));
            }
            // Rack envelopes judged as an award vector, conservation
            // datacenter → rack → app, summary consistency.
            Platform::Racks(datacenter) => {
                let racks = datacenter.racks();
                slots.clear();
                slots.extend(racks.iter().map(|rack| AwardedApp {
                    active: (0..rack.coordinator().len()).any(|position| {
                        rack.coordinator()
                            .app(AppHandle::from_index(position))
                            .active_at(quantum)
                    }),
                    ceiling: None,
                }));
                log.push(check_award_vector(datacenter.rack_awards(), slots));
                totals.budget = datacenter.budget_watts();
                totals.rack_envelopes.clear();
                totals
                    .rack_envelopes
                    .extend_from_slice(datacenter.rack_awards());
                totals.rack_fleet_totals.clear();
                totals.rack_fleet_totals.extend(
                    racks
                        .iter()
                        .map(|rack| rack.coordinator().awards().iter().sum::<f64>()),
                );
                log.push(check_hierarchy_conservation(totals));
                let rack_total: f64 = totals.rack_envelopes.iter().sum();
                log.push(check_summary_total(awarded_watts_total, rack_total));
            }
            Platform::Fixed | Platform::Uncoordinated | Platform::PerAppSeec => {}
        }
        for (index, (sim, slot)) in stepped.apps.iter().zip(stepped.slots).enumerate() {
            let Slot::Managed(Some(handle)) = *slot else {
                continue;
            };
            let app = stepped.platform.app(sim.spec.rack, handle);
            if let Some(decision) = app.last_decision() {
                let counters = &mut self.counters;
                counters.decisions += 1;
                match decision.goal_met {
                    Some(true) => counters.goal_met += 1,
                    Some(false) => counters.goal_missed += 1,
                    None => counters.goal_unknown += 1,
                }
            }
            if sim.active_at(quantum) {
                self.oscillations[index].observe(app.awarded_watts());
            }
        }
    }

    /// End-of-run oracles: rack overdraw (none without racks), machine cap,
    /// per-app starvation, award oscillation.
    fn after_run(&mut self, scenario: &Scenario, end: &ScenarioEnd) {
        self.log.push(check_cap_violation(
            "rack",
            end.platform.worst_rack_violation_rate(),
            RACK_CAP_LIMIT,
        ));
        self.log.push(check_cap_violation(
            "machine",
            end.meter.violation_rate(),
            MACHINE_CAP_LIMIT,
        ));
        let quanta = scenario.quanta;
        for (index, sim) in end.apps.iter().enumerate() {
            let residency = sim
                .spec
                .departure
                .unwrap_or(quanta)
                .min(quanta)
                .saturating_sub(sim.spec.arrival);
            // A fault-targeted app is *supposed* to underperform (a crashed
            // app attains nothing by construction); starving it is the
            // injected fault's doing, not an arbitration defect.
            if residency >= STARVATION_MIN_RESIDENCY && !scenario.fault_plan.targets_app(index) {
                self.log.push(check_starvation(
                    &format!("app-{index}"),
                    sim.attainment(),
                    STARVATION_FLOOR,
                ));
            }
            self.log.push(
                self.oscillations[index].check(&format!("app-{index}"), OSCILLATION_FLIP_LIMIT),
            );
        }
    }
}

/// Runs `scenario` on the probe's hardened coordinated platform.
fn coordinated_run(
    server: &XeonServer,
    scenario: &Scenario,
    seed: u64,
    hook: Option<Hook<'_>>,
) -> ScenarioEnd {
    let layout = probe_layout(scenario);
    let run = ScenarioRun::new(server, scenario, layout, seed);
    let platform = probe_platform(scenario, layout, run.budget_watts());
    run.run(platform, None, hook)
}

/// Executes one scenario through the coordinated platform its rack tagging
/// selects (flat for one rack, rack → datacenter otherwise) plus the
/// matching uncoordinated baseline, and reports the invariant verdicts.
pub fn fuzz_probe(server: &XeonServer, scenario: &Scenario, seed: u64) -> ScenarioOutcome {
    let layout = probe_layout(scenario);
    let mut oracles = Oracles::new(scenario, layout, layout.budget_watts(server, scenario));
    let mut hook = |stepped: &Stepped<'_>| oracles.after_step(stepped);
    let end = coordinated_run(server, scenario, seed, Some(&mut hook));
    oracles.after_run(scenario, &end);
    oracles.counters.arrivals = end.arrivals;
    oracles.counters.departures = end.departures;

    let baseline_seed = seed.wrapping_mul(SEED_MIX).wrapping_add(0xba5e);
    let baseline = ScenarioRun::new(server, scenario, layout, baseline_seed);
    let baseline = baseline.run(Platform::Uncoordinated, None, None);
    oracles.log.push(check_perf_per_watt_cliff(
        end.performance_per_watt,
        baseline.performance_per_watt,
        CLIFF_FLOOR_RATIO,
    ));
    ScenarioOutcome {
        violations: oracles.log.violations,
        counters: oracles.counters,
        apps: scenario.apps.len(),
        racks: scenario.rack_count(),
        cap_violation_fraction: end.meter.violation_rate(),
        mean_attainment: end.goal_attainment,
        perf_per_watt: end.performance_per_watt,
        baseline_perf_per_watt: baseline.performance_per_watt,
    }
}

/// A ready-made executor closure for [`scenario_fuzz::fuzz`]: one
/// calibrated R410 shared across all executions, every run derived from
/// `seed` alone.
pub fn probe_executor(seed: u64) -> impl FnMut(&Scenario) -> ScenarioOutcome {
    probe_executor_obs(seed, None)
}

/// [`probe_executor`] with telemetry: every execution (candidate, replay,
/// or shrink step) ticks [`Counter::FuzzExecutions`] on the recorder. The
/// probe outcomes themselves are unchanged — counting is read-only.
pub fn probe_executor_obs(
    seed: u64,
    observer: Option<std::sync::Arc<Recorder>>,
) -> impl FnMut(&Scenario) -> ScenarioOutcome {
    let server = XeonServer::dell_r410_calibrated();
    // Every execution builds runtimes over the server's joint action space
    // (the coordinated arm) and over each of its actuators alone (the
    // uncoordinated baseline), then drops them all. The interner holds
    // tables weakly, so without these handles each execution would rebuild
    // all four tables.
    let actuators = xeon_actuators(&server);
    let specs: Vec<&ActuatorSpec> = actuators.iter().map(|actuator| actuator.spec()).collect();
    let tables: Vec<ConfigTable> = std::iter::once(ConfigTable::new(&specs))
        .chain(specs.iter().map(|&spec| ConfigTable::new(&[spec])))
        .collect();
    move |scenario: &Scenario| {
        let _held = &tables;
        if let Some(observer) = &observer {
            observer.count(Counter::FuzzExecutions);
        }
        fuzz_probe(&server, scenario, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small clean mix: the probe must agree with the fig5 pins (the
    /// coordinated arm holds the cap on the hand-written mixes).
    fn small_flat_scenario() -> Scenario {
        let mut scenario = workloads::scenario_mixes(2012).swap_remove(0);
        scenario.quanta = 24;
        for app in &mut scenario.apps {
            app.arrival = app.arrival.min(12);
            if let Some(departure) = &mut app.departure {
                *departure = (*departure).clamp(app.arrival + 4, 24);
            }
        }
        scenario.sanitize();
        scenario
    }

    #[test]
    fn probe_is_deterministic_and_clean_on_a_tame_mix() {
        let server = XeonServer::dell_r410_calibrated();
        let scenario = small_flat_scenario();
        let a = fuzz_probe(&server, &scenario, 7);
        let b = fuzz_probe(&server, &scenario, 7);
        assert_eq!(a, b);
        assert!(
            !a.violations
                .iter()
                .any(|v| violation_label(v) == "cap_violation:machine"),
            "a tame resident mix must hold the cap: {:?}",
            a.violations
        );
        assert!(a.counters.decisions > 0);
        assert!(a.mean_attainment > 0.0);
        assert!(!a.counters.hierarchical);
    }

    /// The fuzzer runs the figure code: attaching the oracle hook leaves a
    /// coordinated run bit-identical, on a single-rack (flat, end-of-quantum
    /// arbitration) and a rack-tagged (hierarchy, start-of-quantum) faulty
    /// scenario alike.
    #[test]
    fn the_oracle_hook_is_passive() {
        let server = XeonServer::dell_r410_calibrated();
        let scenarios = workloads::chaos_mixes(2012);
        assert_eq!(scenarios[0].rack_count(), 1);
        assert!(scenarios[1].rack_count() > 1);
        for scenario in &scenarios {
            assert!(!scenario.fault_plan.is_empty());
            let layout = probe_layout(scenario);
            let mut oracles =
                Oracles::new(scenario, layout, layout.budget_watts(&server, scenario));
            let mut hook = |stepped: &Stepped<'_>| oracles.after_step(stepped);
            let hooked = coordinated_run(&server, scenario, 7, Some(&mut hook));
            let bare = coordinated_run(&server, scenario, 7, None);
            assert!(
                oracles.counters.decisions > 0,
                "{}: the hook ran",
                scenario.name
            );
            assert_eq!(
                hooked.fingerprint(),
                bare.fingerprint(),
                "{}",
                scenario.name
            );
        }
    }

    #[test]
    fn the_executor_holds_the_probe_tables_between_executions() {
        let executor = probe_executor(7);
        let actuators = xeon_actuators(&XeonServer::dell_r410_calibrated());
        let specs: Vec<&ActuatorSpec> = actuators.iter().map(|actuator| actuator.spec()).collect();
        assert!(ConfigTable::new(&specs).holders() >= 2);
        for spec in specs {
            assert!(ConfigTable::new(&[spec]).holders() >= 2, "{}", spec.name());
        }
        drop(executor);
    }

    #[test]
    fn probe_takes_the_hierarchy_path_for_rack_tagged_scenarios() {
        let server = XeonServer::dell_r410_calibrated();
        let mut scenario = workloads::vocabulary_mixes(2012).swap_remove(2);
        assert!(scenario.rack_count() > 1);
        scenario.quanta = 16;
        scenario.sanitize();
        let outcome = fuzz_probe(&server, &scenario, 7);
        assert!(outcome.counters.hierarchical);
        assert_eq!(outcome.racks, scenario.rack_count());
    }
}
