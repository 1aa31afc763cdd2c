//! The scenario fuzzer's execution probe: one [`Scenario`] in, one
//! [`ScenarioOutcome`] out.
//!
//! The probe runs the fig5 pipelines *hardened by the fixes earlier fuzz
//! campaigns forced* — the structure is `run_arm` / `run_hierarchy_cell`'s,
//! plus the two robustness knobs that closed pinned incident classes:
//!
//! * single-rack scenarios run the flat coordinated arm (performance
//!   market, runtime app lifecycle, arbitration at the *end* of each
//!   quantum) with **admission control** on — registration decides a
//!   mid-run arrival under a zero envelope, closing the landing-quantum
//!   cap hole of `tests/corpus/cap_violation_machine.json`;
//! * multi-rack scenarios run the rack → datacenter arm (arbitration at
//!   the *start* of each quantum, rack envelopes audited but not
//!   enforced) with **award hysteresis** at both levels, closing the
//!   award limit cycle of `tests/corpus/oscillation.json`;
//! * both apply the scenario's [`workloads::FaultPlan`] — crashed apps
//!   stop executing, stalled/corrupted telemetry stops or lies to the
//!   platform while the meter keeps seeing physical truth — and both also
//!   run the matching uncoordinated baseline, which anchors the
//!   perf/W-cliff oracle.
//!
//! On top of the simulation, the probe asserts the shared
//! [`coordinator::invariants`] oracles every quantum (award sanity, budget
//! conservation, summary consistency, hierarchy conservation) and at the
//! end of the run (cap violations, starvation, award oscillation, the
//! perf/W cliff). Violations are deduplicated by label — the fuzzer cares
//! about incident *classes*, not how many quanta exhibited one.

use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, check_cap_violation,
    check_hierarchy_conservation, check_perf_per_watt_cliff, check_starvation,
    check_summary_total, AwardedApp, HierarchyTotals, InvariantViolation, OscillationTracker,
};
use coordinator::{
    AppHandle, ArbitrationSchedule, AwardHysteresis, Coordinator, DatacenterArbiter,
    PerformanceMarket, RackCoordinator, WakeConfig,
};
use obs::{Counter, Recorder};
use scenario_fuzz::{violation_label, PolicyPathCounters, ScenarioOutcome};
use workloads::Scenario;
use xeon_sim::{MachineMeter, XeonServer};

use crate::driver::to_server_demand;
use crate::faults::FaultRuntime;
use crate::fig3::map_configuration;
use crate::fig5::{
    budget_watts, build_apps, datacenter_budget_watts, managed_for, run_arm, run_hierarchy_cell,
    AppSim, Arm, HierarchyArm, QUANTUM_SECONDS,
};

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
    fn push(&mut self, violation: InvariantViolation) {
        let label = violation_label(&violation);
        if !self
            .violations
            .iter()
            .any(|seen| violation_label(seen) == label)
        {
            self.violations.push(violation);
        }
    }

    fn extend(&mut self, violations: Vec<InvariantViolation>) {
        for violation in violations {
            self.push(violation);
        }
    }

    fn push_opt(&mut self, violation: Option<InvariantViolation>) {
        if let Some(violation) = violation {
            self.push(violation);
        }
    }
}

/// What the instrumented coordinated run reports before baseline
/// comparison.
struct ProbeMetrics {
    log: ViolationLog,
    counters: PolicyPathCounters,
    cap_violation_fraction: f64,
    mean_attainment: f64,
    perf_per_watt: f64,
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

/// Tallies one app's post-step decision into the policy-path counters.
fn count_decision(counters: &mut PolicyPathCounters, decision: Option<seec::CapDecision>) {
    let Some(decision) = decision else { return };
    counters.decisions += 1;
    match decision.goal_met {
        Some(true) => counters.goal_met += 1,
        Some(false) => counters.goal_missed += 1,
        None => counters.goal_unknown += 1,
    }
}

/// End-of-run oracles shared by both probe shapes: machine cap, per-app
/// starvation, award oscillation.
fn finish_run_checks(
    log: &mut ViolationLog,
    meter: &MachineMeter,
    scenario: &Scenario,
    apps: &[AppSim],
    attainments: &[f64],
    oscillations: &[OscillationTracker],
) {
    let quanta = scenario.quanta;
    log.push_opt(check_cap_violation(
        "machine",
        meter.violation_rate(),
        MACHINE_CAP_LIMIT,
    ));
    for (index, sim) in apps.iter().enumerate() {
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
            log.push_opt(check_starvation(
                &format!("app-{index}"),
                attainments[index],
                STARVATION_FLOOR,
            ));
        }
        log.push_opt(oscillations[index].check(&format!("app-{index}"), OSCILLATION_FLIP_LIMIT));
    }
}

/// The flat coordinated arm (performance market), instrumented. Mirrors
/// `run_arm`'s `CoordinatedMarket` path step for step — including the
/// end-of-quantum arbitration discipline, which is precisely what makes
/// arrival bursts interesting to the fuzzer.
fn run_flat_probe(server: &XeonServer, scenario: &Scenario, seed: u64) -> ProbeMetrics {
    let mut apps = build_apps(server, scenario);
    let budget_range = server.max_power_watts() - server.idle_power_watts();
    let budget = budget_watts(server, scenario);
    let mut meter = MachineMeter::new(budget);
    let mut faults = FaultRuntime::for_plan(&scenario.fault_plan, apps.len());
    // Admission control closes the fuzzer-found arrival hole pinned by
    // `tests/corpus/cap_violation_machine.json`: under end-of-quantum
    // arbitration a mid-run arrival used to execute its landing quantum in
    // launch configuration under pre-arrival awards, transiently blowing
    // the cap. Registration now decides the newcomer under a zero
    // envelope, landing it in its cheapest configuration.
    //
    // The admission *feasibility* pre-check closes the residual hole that
    // admission control cannot — `tests/corpus/cap_violation_launch_storm.json`
    // pinned a fleet whose cheapest-configuration floors already exceed the
    // cap, an infeasibility no arbitration can decide away. Registrants
    // that would push the committed floor past the cap are refused
    // outright and never execute.
    let mut coordinator = Coordinator::new(budget, Box::new(PerformanceMarket::default()))
        .with_pool(std::sync::Arc::clone(exec::global_pool_arc()))
        .with_admission_control(true)
        .with_admission_feasibility(true);
    // An unsanitized NaN or negative tolerance is refused and leaves the
    // default schedule.
    let _ = coordinator.set_schedule(arbitration_schedule(scenario));
    let mut handles: Vec<Option<AppHandle>> = vec![None; apps.len()];
    let mut oscillations =
        vec![OscillationTracker::new(budget * OSCILLATION_THRESHOLD_FRACTION); apps.len()];
    let mut log = ViolationLog::default();
    let mut counters = PolicyPathCounters {
        budget_steps: budget_step_count(scenario),
        ..PolicyPathCounters::default()
    };

    let mut now = 0.0;
    let mut per_app_power = vec![0.0f64; apps.len()];
    let mut rates = vec![0.0f64; apps.len()];
    for quantum in 0..scenario.quanta {
        let start = now;
        now += QUANTUM_SECONDS;

        // ---- Lifecycle (identical to run_arm).
        let cap = scenario.budget_fraction_at(quantum) * budget_range;
        if cap != meter.cap_watts() {
            meter.set_cap(cap);
        }
        for (index, sim) in apps.iter().enumerate() {
            let never_active = sim.spec.departure.is_some_and(|d| d <= sim.spec.arrival);
            if sim.spec.arrival == quantum && !never_active {
                let managed = managed_for(server, sim, seed, index);
                // A feasibility rejection leaves the slot handle-less: the
                // refused app never launches, draws nothing, and is skipped
                // by every later loop.
                if let Ok(handle) = coordinator.try_register(managed) {
                    handles[index] = Some(handle);
                    counters.arrivals += 1;
                }
            }
            if sim.spec.departure == Some(quantum) {
                if let Some(handle) = handles[index] {
                    coordinator.retire(handle);
                    counters.departures += 1;
                }
            }
        }

        // ---- Evaluate active apps under their current configurations.
        let mut core_duty_total = 0.0;
        for (index, sim) in apps.iter().enumerate() {
            per_app_power[index] = 0.0;
            rates[index] = 0.0;
            if !sim.active_at(quantum) {
                continue;
            }
            if faults.as_ref().is_some_and(|f| !f.executes(index, quantum)) {
                continue; // crashed: no cycles, no watts
            }
            let Some(handle) = handles[index] else {
                continue; // refused admission: never launched
            };
            let configuration = map_configuration(
                server,
                coordinator.app(handle).runtime().current_configuration(),
            );
            let report =
                server.evaluate(&to_server_demand(sim.demand_at(quantum)), &configuration);
            rates[index] = report.work_units / report.seconds;
            per_app_power[index] = report.power_above_idle_watts;
            core_duty_total += configuration.cores as f64 * configuration.active_cycle_fraction;
        }
        let contention = if core_duty_total > server.total_cores() as f64 {
            server.total_cores() as f64 / core_duty_total
        } else {
            1.0
        };
        let mut machine_power = 0.0;
        for (index, sim) in apps.iter_mut().enumerate() {
            if !sim.active_at(quantum) {
                continue;
            }
            let Some(handle) = handles[index] else {
                continue; // refused admission: never launched
            };
            let work = rates[index] * contention * QUANTUM_SECONDS;
            let power = per_app_power[index] * contention;
            machine_power += power;
            sim.active_seconds += QUANTUM_SECONDS;
            sim.work_done += work;
            let report = match faults.as_mut() {
                None => Some((work, power)),
                Some(f) => f.report(index, quantum, work, power),
            };
            let Some((reported_work, reported_power)) = report else {
                continue; // stalled pipe or dead app: nothing arrives
            };
            coordinator.advance(handle, start, now, reported_work, reported_power);
        }
        meter.record(QUANTUM_SECONDS, machine_power);

        // ---- Arbitrate for the next quantum (end-of-quantum discipline).
        let next_budget = scenario.budget_fraction_at(quantum + 1) * budget_range;
        if next_budget != coordinator.budget_watts() {
            coordinator.set_budget(next_budget);
        }
        let stepped_at = coordinator.quantum();
        let summary = coordinator.step(now).expect("every app declares a goal");

        // ---- Per-step oracles: the same checks the proptests pin.
        let slots: Vec<AwardedApp> = (0..coordinator.len())
            .map(|position| AwardedApp {
                active: coordinator
                    .app(AppHandle::from_index(position))
                    .active_at(stepped_at),
                ceiling: None,
            })
            .collect();
        log.extend(check_award_vector(coordinator.awards(), &slots));
        let total = active_total(coordinator.awards(), &slots);
        log.push_opt(check_budget_conservation(
            total,
            coordinator.budget_watts() * 0.95,
        ));
        log.push_opt(check_summary_total(summary.awarded_watts_total, total));
        for (index, sim) in apps.iter().enumerate() {
            if let Some(handle) = handles[index] {
                count_decision(&mut counters, coordinator.app(handle).last_decision());
                if sim.active_at(quantum) {
                    oscillations[index].observe(coordinator.app(handle).awarded_watts());
                }
            }
        }
    }

    let attainments: Vec<f64> = apps.iter().map(AppSim::attainment).collect();
    let mean_attainment = attainments.iter().sum::<f64>() / attainments.len().max(1) as f64;
    let mean_power = meter.mean_watts();
    let perf_per_watt = if mean_power > 0.0 {
        attainments.iter().sum::<f64>() / mean_power
    } else {
        0.0
    };
    finish_run_checks(&mut log, &meter, scenario, &apps, &attainments, &oscillations);
    ProbeMetrics {
        log,
        counters,
        cap_violation_fraction: meter.violation_rate(),
        mean_attainment,
        perf_per_watt,
    }
}

/// The rack → datacenter coordinated arm, instrumented. Mirrors
/// `run_hierarchy_cell`'s `RackCoordinated` path (start-of-quantum
/// arbitration, per-rack contention, audited rack envelopes).
fn run_hierarchy_probe(server: &XeonServer, scenario: &Scenario, seed: u64) -> ProbeMetrics {
    let mut apps = build_apps(server, scenario);
    let racks = scenario.rack_count();
    let budget_range = (server.max_power_watts() - server.idle_power_watts()) * racks as f64;
    let budget = datacenter_budget_watts(server, scenario);
    let mut meter = MachineMeter::new(budget);
    let mut faults = FaultRuntime::for_plan(&scenario.fault_plan, apps.len());
    // Award hysteresis at both levels closes the fuzzer-found limit cycle
    // pinned by `tests/corpus/oscillation.json`: re-dividing many-rack
    // envelopes every quantum made an app's award direction flip nearly
    // every step. Sub-dead-band proposals are held, so dither never
    // reaches the apps; larger proposals are approached under the slew
    // limit, so the market's launch-transient swings (a third of an
    // envelope per quantum in the pinned fixture) decay into sub-band
    // dither instead of being adopted flip after flip. Real
    // redistributions still pass through — as ramps.
    let market = || {
        Box::new(
            AwardHysteresis::new(
                Box::new(PerformanceMarket::default()),
                HYSTERESIS_DEAD_BAND,
            )
            .with_max_step_fraction(HYSTERESIS_DEAD_BAND),
        )
    };
    let mut datacenter = DatacenterArbiter::new(budget, market());
    for rack in 0..racks {
        let mut rack_coordinator = Coordinator::new(budget, market())
            .with_pool(std::sync::Arc::clone(exec::global_pool_arc()));
        let _ = rack_coordinator.set_schedule(arbitration_schedule(scenario));
        datacenter.add_rack(RackCoordinator::new(
            format!("rack-{rack}"),
            rack_coordinator,
        ));
    }
    let mut handles: Vec<Option<AppHandle>> = vec![None; apps.len()];
    let mut oscillations =
        vec![OscillationTracker::new(budget * OSCILLATION_THRESHOLD_FRACTION); apps.len()];
    let mut log = ViolationLog::default();
    let mut counters = PolicyPathCounters {
        budget_steps: budget_step_count(scenario),
        hierarchical: true,
        ..PolicyPathCounters::default()
    };

    let mut now = 0.0;
    let mut per_app_power = vec![0.0f64; apps.len()];
    let mut rates = vec![0.0f64; apps.len()];
    let mut rack_core_duty = vec![0.0f64; racks];
    for quantum in 0..scenario.quanta {
        let start = now;
        now += QUANTUM_SECONDS;

        // ---- Lifecycle (identical to run_hierarchy_cell).
        let cap = scenario.budget_fraction_at(quantum) * budget_range;
        if cap != meter.cap_watts() {
            meter.set_cap(cap);
        }
        for (index, sim) in apps.iter().enumerate() {
            let never_active = sim.spec.departure.is_some_and(|d| d <= sim.spec.arrival);
            if sim.spec.arrival == quantum && !never_active {
                let managed = managed_for(server, sim, seed, index);
                handles[index] = Some(datacenter.rack_mut(sim.spec.rack).register(managed));
                counters.arrivals += 1;
            }
            if sim.spec.departure == Some(quantum) {
                if let Some(handle) = handles[index] {
                    datacenter.rack_mut(sim.spec.rack).retire(handle);
                    counters.departures += 1;
                }
            }
        }

        // ---- Arbitrate at the start of the quantum.
        if cap != datacenter.budget_watts() {
            datacenter.set_budget(cap);
        }
        let summary = datacenter.step(start).expect("every app declares a goal");

        // ---- Per-step oracles: rack envelopes judged as an award vector,
        // conservation datacenter → rack → app, summary consistency.
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
        log.extend(check_award_vector(datacenter.rack_awards(), &rack_slots));
        let totals = HierarchyTotals {
            budget: datacenter.budget_watts(),
            rack_envelopes: datacenter.rack_awards().to_vec(),
            rack_fleet_totals: datacenter
                .racks()
                .iter()
                .map(|rack| rack.coordinator().awards().iter().sum())
                .collect(),
            headroom: 0.95,
        };
        log.extend(check_hierarchy_conservation(&totals));
        let rack_total: f64 = totals.rack_envelopes.iter().sum();
        log.push_opt(check_summary_total(
            summary.rack_awarded_watts_total,
            rack_total,
        ));
        for (index, sim) in apps.iter().enumerate() {
            if let Some(handle) = handles[index] {
                let app = datacenter.rack(sim.spec.rack).coordinator().app(handle);
                count_decision(&mut counters, app.last_decision());
                if sim.active_at(quantum) {
                    oscillations[index].observe(app.awarded_watts());
                }
            }
        }

        // ---- Evaluate active apps; contention is per rack.
        rack_core_duty.fill(0.0);
        for (index, sim) in apps.iter().enumerate() {
            per_app_power[index] = 0.0;
            rates[index] = 0.0;
            if !sim.active_at(quantum) {
                continue;
            }
            if faults.as_ref().is_some_and(|f| !f.executes(index, quantum)) {
                continue; // crashed: no cycles, no watts
            }
            let handle = handles[index].expect("active apps have registered");
            let configuration = map_configuration(
                server,
                datacenter
                    .rack(sim.spec.rack)
                    .coordinator()
                    .app(handle)
                    .runtime()
                    .current_configuration(),
            );
            let report =
                server.evaluate(&to_server_demand(sim.demand_at(quantum)), &configuration);
            rates[index] = report.work_units / report.seconds;
            per_app_power[index] = report.power_above_idle_watts;
            rack_core_duty[sim.spec.rack] +=
                configuration.cores as f64 * configuration.active_cycle_fraction;
        }
        let rack_contention: Vec<f64> = rack_core_duty
            .iter()
            .map(|&duty| {
                if duty > server.total_cores() as f64 {
                    server.total_cores() as f64 / duty
                } else {
                    1.0
                }
            })
            .collect();
        let mut machine_power = 0.0;
        for (index, sim) in apps.iter_mut().enumerate() {
            if !sim.active_at(quantum) {
                continue;
            }
            let contention = rack_contention[sim.spec.rack];
            let work = rates[index] * contention * QUANTUM_SECONDS;
            let power = per_app_power[index] * contention;
            // The rack meters the rail (physical truth), then receives
            // whatever the possibly-faulty app claims as telemetry.
            let (work, power) = datacenter
                .rack_mut(sim.spec.rack)
                .admit(start, now, work, power);
            machine_power += power;
            sim.active_seconds += QUANTUM_SECONDS;
            sim.work_done += work;
            let report = match faults.as_mut() {
                None => Some((work, power)),
                Some(f) => f.report(index, quantum, work, power),
            };
            let Some((reported_work, reported_power)) = report else {
                continue; // stalled pipe or dead app: nothing arrives
            };
            let handle = handles[index].expect("active apps have registered");
            datacenter
                .rack_mut(sim.spec.rack)
                .advance_report(handle, start, now, reported_work, reported_power);
        }
        meter.record(QUANTUM_SECONDS, machine_power);
    }

    // The audited-but-not-enforced rack envelopes: worst overdraw across
    // racks.
    let worst_rack_violation = datacenter
        .racks()
        .iter()
        .map(|rack| rack.meter().violation_rate())
        .fold(0.0, f64::max);
    log.push_opt(check_cap_violation("rack", worst_rack_violation, RACK_CAP_LIMIT));

    let attainments: Vec<f64> = apps.iter().map(AppSim::attainment).collect();
    let mean_attainment = attainments.iter().sum::<f64>() / attainments.len().max(1) as f64;
    let mean_power = meter.mean_watts();
    let perf_per_watt = if mean_power > 0.0 {
        attainments.iter().sum::<f64>() / mean_power
    } else {
        0.0
    };
    finish_run_checks(&mut log, &meter, scenario, &apps, &attainments, &oscillations);
    ProbeMetrics {
        log,
        counters,
        cap_violation_fraction: meter.violation_rate(),
        mean_attainment,
        perf_per_watt,
    }
}

/// Executes one scenario through the coordinated arm its rack tagging
/// selects (flat for one rack, rack → datacenter otherwise) plus the
/// matching uncoordinated baseline, and reports the invariant verdicts.
pub fn fuzz_probe(server: &XeonServer, scenario: &Scenario, seed: u64) -> ScenarioOutcome {
    let baseline_seed = seed.wrapping_mul(SEED_MIX).wrapping_add(0xba5e);
    let (mut metrics, baseline_perf_per_watt) = if scenario.rack_count() > 1 {
        let metrics = run_hierarchy_probe(server, scenario, seed);
        let baseline =
            run_hierarchy_cell(server, scenario, HierarchyArm::Uncoordinated, baseline_seed, None).0;
        (metrics, baseline.performance_per_watt)
    } else {
        let metrics = run_flat_probe(server, scenario, seed);
        let baseline = run_arm(server, scenario, Arm::Uncoordinated, baseline_seed, None);
        (metrics, baseline.performance_per_watt)
    };
    metrics.log.push_opt(check_perf_per_watt_cliff(
        metrics.perf_per_watt,
        baseline_perf_per_watt,
        CLIFF_FLOOR_RATIO,
    ));
    ScenarioOutcome {
        violations: metrics.log.violations,
        counters: metrics.counters,
        apps: scenario.apps.len(),
        racks: scenario.rack_count(),
        cap_violation_fraction: metrics.cap_violation_fraction,
        mean_attainment: metrics.mean_attainment,
        perf_per_watt: metrics.perf_per_watt,
        baseline_perf_per_watt,
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
    move |scenario: &Scenario| {
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
