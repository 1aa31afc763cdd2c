//! The chaos experiment (`fig5 --chaos` / `--enforce`): fault-injected
//! mixes under graceful degradation and hard rack enforcement.
//!
//! [`workloads::chaos_mixes`] schedules every [`workloads::FaultKind`]
//! against otherwise-honest fleets; this module runs those scenarios
//! through five regimes and reports what each fault costs and what each
//! defence buys:
//!
//! * **uncoordinated** — every app its own uncoordinated adaptation;
//!   nobody even notices the faults.
//! * **coordinated-naive/audit** — the rack → datacenter hierarchy with
//!   every robustness knob off: the pre-degradation coordinator, which
//!   keeps paying awards to stalled, crashed, and lying applications.
//! * **coordinated-naive/clamp** — same naive coordination, but each
//!   rack's breaker ([`EnforcementMode::Clamp`]) physically throttles the
//!   rack to its awarded envelope.
//! * **coordinated-degraded/audit** — the watchdog ladder
//!   ([`coordinator::Coordinator::with_watchdog`]) plus admission control: faulty apps
//!   are quarantined onto the floor envelope and readmitted when they
//!   recover; overdraw is still only audited.
//! * **coordinated-degraded/clamp** — degradation *and* the breaker: the
//!   watchdog handles what telemetry reveals (stalls, crashes, non-finite
//!   or inflated reports), the breaker contains what it cannot —
//!   an app that *under*-reports its draw looks healthy to every
//!   telemetry rule and is only stopped at the rail.
//!
//! Metrics are physical: the datacenter meter and per-app attainment see
//! the watts actually drawn and the work actually done ([the admitted
//! values under Clamp — a throttled app really is denied the energy](
//! coordinator::RackCoordinator::admit)), while coordinators see only
//! what each app reports. Per app the figure records the watchdog's
//! verdict (health state, quarantine and readmission quanta); per arm it
//! aggregates cap-violation rates, worst rack overdraw, quarantine
//! latency, false quarantines, clamp activity, and the goal attainment of
//! the *healthy* population — the fairness cost any defence must be
//! judged by.

use coordinator::EnforcementMode::{self, Audit, Clamp};
use coordinator::{HealthState, RackCoordinator, WatchdogConfig};
use obs::ObsSnapshot;
use serde::{Deserialize, Serialize};
use workloads::{chaos_mixes, FaultKind, Scenario};
use xeon_sim::XeonServer;

use crate::driver::run_grid;
use crate::fig5::{datacenter_budget_watts, market, RuntimeBlock};
use crate::scenario::{AppSim, Layout, Platform, ScenarioEnd, ScenarioRun, Slot};

/// One application's fate in one chaos cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosAppOutcome {
    /// Index into the scenario's app list.
    pub index: usize,
    /// Whether the scenario's fault plan targets this app at all.
    pub faulty: bool,
    /// Whether at least one of its faults is visible to the watchdog's
    /// telemetry rules (stalls, crashes, non-finite telemetry, power
    /// *over*-reports beyond the overdraw tolerance). Under-reports and
    /// frozen-but-plausible telemetry are not: they are the breaker's
    /// problem, not the watchdog's.
    pub detectable: bool,
    /// Final position on the degradation ladder (`"unmanaged"` in the
    /// uncoordinated arm, `"healthy"` forever when the watchdog is off).
    pub health: String,
    /// Coordinator quantum at which the app was first quarantined.
    pub quarantined_at: Option<usize>,
    /// Quanta from the app's first fault onset to quarantine.
    pub time_to_quarantine: Option<usize>,
    /// Coordinator quantum of the most recent readmission.
    pub readmitted_at: Option<usize>,
    /// `min(rate/target, 1)` over the app's residency (physical work).
    pub attainment: f64,
}

/// One regime's outcome on one chaos scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosArmOutcome {
    /// Regime name.
    pub name: String,
    /// Fraction of simulated time the datacenter's physical draw exceeded
    /// the budget.
    pub cap_violation_rate: f64,
    /// Worst per-rack fraction of time spent above the rack's awarded
    /// envelope (0.0 for the uncoordinated arm, which has no racks).
    pub max_rack_violation_rate: f64,
    /// Mean datacenter power above idle, in watts.
    pub mean_power_watts: f64,
    /// Goal-weighted throughput per watt (as in Figure 5).
    pub performance_per_watt: f64,
    /// Mean attainment over every app, faulty ones included.
    pub goal_attainment: f64,
    /// Mean attainment over the apps the fault plan leaves alone — the
    /// number a defence is not allowed to ruin.
    pub healthy_attainment: f64,
    /// Apps targeted by the fault plan.
    pub faulty_apps: usize,
    /// Apps the watchdog quarantined at least once.
    pub quarantined_apps: usize,
    /// Quarantined apps the fault plan does *not* target (watchdog
    /// false positives).
    pub false_quarantines: usize,
    /// Worst quanta-to-quarantine over detectably-faulty apps that were
    /// quarantined.
    pub max_time_to_quarantine: Option<usize>,
    /// Total breaker activations across racks ([`RackCoordinator::clamp_events`]).
    pub clamp_events: u64,
    /// Total energy the breakers refused, in joules.
    pub shed_joules: f64,
    /// Per-app verdicts.
    pub apps: Vec<ChaosAppOutcome>,
    /// Wall-clock accounting for the cell (zeroed under
    /// [`Self::canonical`]).
    pub runtime: RuntimeBlock,
}

impl ChaosArmOutcome {
    /// The outcome with wall-clock timing zeroed (see
    /// [`crate::fig5::ArmOutcome::canonical`]).
    pub fn canonical(&self) -> Self {
        ChaosArmOutcome {
            runtime: self.runtime.canonical(),
            ..self.clone()
        }
    }
}

/// One chaos scenario across every regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosScenarioResult {
    /// Scenario name (see [`workloads::chaos_mixes`]).
    pub name: String,
    /// Number of applications in the mix.
    pub apps: usize,
    /// Number of racks.
    pub racks: usize,
    /// Quanta simulated.
    pub quanta: usize,
    /// The shared datacenter power budget (above idle), in watts.
    pub budget_watts: f64,
    /// No coordination at all.
    pub uncoordinated: ChaosArmOutcome,
    /// Hierarchy with every robustness knob off.
    pub naive_audit: ChaosArmOutcome,
    /// Naive coordination behind the rack breaker.
    pub naive_clamp: ChaosArmOutcome,
    /// Watchdog + admission control, overdraw audited only.
    pub degraded_audit: ChaosArmOutcome,
    /// Watchdog + admission control + rack breaker.
    pub degraded_clamp: ChaosArmOutcome,
}

impl ChaosScenarioResult {
    /// The scenario with every arm's wall-clock timing zeroed.
    pub fn canonical(&self) -> Self {
        ChaosScenarioResult {
            uncoordinated: self.uncoordinated.canonical(),
            naive_audit: self.naive_audit.canonical(),
            naive_clamp: self.naive_clamp.canonical(),
            degraded_audit: self.degraded_audit.canonical(),
            degraded_clamp: self.degraded_clamp.canonical(),
            ..self.clone()
        }
    }
}

/// The `fig5 --chaos` data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureChaos {
    /// One entry per chaos mix.
    pub scenarios: Vec<ChaosScenarioResult>,
}

/// One scenario's enforcement summary: what the breaker changes, and what
/// it costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnforceScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Worst rack overdraw with naive coordination and the breaker off —
    /// the defect the breaker exists to close.
    pub audit_overdraw_rate: f64,
    /// Worst rack overdraw with naive coordination behind the breaker
    /// (structurally 0: the meter records admitted power).
    pub clamp_overdraw_rate: f64,
    /// Worst rack overdraw with degradation on and the breaker off.
    pub degraded_audit_overdraw_rate: f64,
    /// Worst rack overdraw with degradation *and* the breaker.
    pub degraded_clamp_overdraw_rate: f64,
    /// Healthy-population attainment lost by turning the breaker on under
    /// naive coordination (audit minus clamp; positive = the breaker taxed
    /// innocent apps).
    pub clamp_fairness_cost: f64,
    /// Perf/W lost by turning the breaker on under naive coordination.
    pub clamp_perf_cost: f64,
    /// Breaker activations in the naive/clamp arm.
    pub clamp_events: u64,
    /// Energy the naive/clamp arm's breakers refused, in joules.
    pub shed_joules: f64,
}

/// The `fig5 --enforce` data set, derived from [`FigureChaos`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureEnforce {
    /// One entry per chaos mix.
    pub scenarios: Vec<EnforceScenarioResult>,
}

/// The regimes, in cell order: name, then the coordinated regimes'
/// `(degradation, enforcement)` knobs.
const CHAOS_ARMS: [(&str, Option<(bool, EnforcementMode)>); 5] = [
    ("uncoordinated", None),
    ("coordinated-naive/audit", Some((false, Audit))),
    ("coordinated-naive/clamp", Some((false, Clamp))),
    ("coordinated-degraded/audit", Some((true, Audit))),
    ("coordinated-degraded/clamp", Some((true, Clamp))),
];

/// A regime's platform: nothing, or the performance-market hierarchy with
/// the regime's robustness knobs on every rack.
fn chaos_platform(
    knobs: Option<(bool, EnforcementMode)>,
    budget: f64,
    racks: usize,
    watchdog: WatchdogConfig,
) -> Platform {
    let Some((degradation, enforcement)) = knobs else {
        return Platform::Uncoordinated;
    };
    Platform::racks(budget, racks, market, |name, coordinator| {
        let coordinator = if degradation {
            coordinator
                .with_watchdog(watchdog)
                .with_admission_control(true)
        } else {
            coordinator
        };
        RackCoordinator::new(name, coordinator).with_enforcement(enforcement)
    })
}

/// The watchdog thresholds a chaos cell runs: the defaults, with the
/// quarantine floor raised to the fleet's most expensive cheapest
/// configuration so an honest quarantined app (whose floor-capped decide
/// lands it in its cheapest configuration) can always requalify under the
/// overdraw rule, and the overdraw tolerance opened to 1.75x. The tolerance
/// has to clear the fleet's *steady-state* calibration error — on this
/// platform an honest app squeezed under a tight rack budget can draw
/// ~1.5x its award for as long as the squeeze lasts (the model believes
/// the cheap config it was put in, the rail disagrees) — while staying
/// under the 3x a deliberate misreporter shows at fault onset (the
/// market re-converges toward a self-consistent lie within a few quanta,
/// so the threshold must catch the transient before award inflation
/// closes the gap).
fn chaos_watchdog(apps: &[AppSim]) -> WatchdogConfig {
    let default = WatchdogConfig::default();
    WatchdogConfig {
        quarantine_floor_watts: apps
            .iter()
            .map(|sim| sim.launch_power_watts)
            .fold(default.quarantine_floor_watts, f64::max),
        overdraw_tolerance: 0.75,
        ..default
    }
}

/// Whether `kind` is visible to the watchdog's telemetry rules under
/// `config` (see [`ChaosAppOutcome::detectable`]).
fn watchdog_visible(kind: FaultKind, config: &WatchdogConfig) -> bool {
    match kind {
        FaultKind::StallHeartbeats | FaultKind::Crash | FaultKind::NonFiniteTelemetry => true,
        FaultKind::MisreportPower { factor } => factor > 1.0 + config.overdraw_tolerance,
        FaultKind::FreezeTelemetry => false,
    }
}

fn health_label(state: HealthState) -> &'static str {
    match state {
        HealthState::Healthy => "healthy",
        HealthState::Suspect => "suspect",
        HealthState::Quarantined => "quarantined",
        HealthState::Readmitted => "readmitted",
    }
}

/// Folds one finished chaos cell into its per-app verdicts and arm
/// aggregates. Every coordinated regime runs the rack → datacenter
/// hierarchy on [`Layout::Racks`] (a single-rack scenario is simply a
/// one-rack datacenter), so racks admit the rail draw first
/// ([`RackCoordinator::admit`] — the enforcement point), the datacenter
/// meter and attainment accumulate the admitted truth, and coordinators
/// receive only what the fault plan lets each app claim.
fn chaos_outcome(
    name: &str,
    scenario: &Scenario,
    watchdog: &WatchdogConfig,
    end: &ScenarioEnd,
) -> ChaosArmOutcome {
    // ---- Per-app verdicts.
    let plan = &scenario.fault_plan;
    let app_outcomes: Vec<ChaosAppOutcome> = end
        .apps
        .iter()
        .zip(&end.slots)
        .enumerate()
        .map(|(index, (sim, slot))| {
            let mut faults = plan.faults.iter().filter(|fault| fault.app == index);
            let first_fault = faults.clone().map(|fault| fault.from).min();
            let detectable = faults.any(|fault| watchdog_visible(fault.kind, watchdog));
            let (health, quarantined_at, readmitted_at) = match *slot {
                Slot::Uncoordinated(..) => ("unmanaged".to_string(), None, None),
                Slot::Managed(Some(handle)) => {
                    let app = end.platform.app(sim.spec.rack, handle);
                    (
                        health_label(app.health_state()).to_string(),
                        app.quarantined_at(),
                        app.readmitted_at(),
                    )
                }
                _ => ("healthy".to_string(), None, None),
            };
            ChaosAppOutcome {
                index,
                faulty: plan.targets_app(index),
                detectable,
                health,
                quarantined_at,
                time_to_quarantine: quarantined_at
                    .zip(first_fault)
                    .map(|(quarantined, from)| quarantined.saturating_sub(from)),
                readmitted_at,
                attainment: sim.attainment(),
            }
        })
        .collect();

    // ---- Arm aggregates.
    let count =
        |keep: fn(&ChaosAppOutcome) -> bool| app_outcomes.iter().filter(|app| keep(app)).count();
    let healthy = app_outcomes.iter().filter(|app| !app.faulty);
    let healthy_attainment = match count(|app| !app.faulty) {
        0 => end.goal_attainment,
        apps => healthy.map(|app| app.attainment).sum::<f64>() / apps as f64,
    };
    let (clamp_events, shed_joules) = match &end.platform {
        Platform::Racks(datacenter) => datacenter
            .racks()
            .iter()
            .fold((0, 0.0), |(events, shed), rack| {
                (events + rack.clamp_events(), shed + rack.shed_joules())
            }),
        _ => (0, 0.0),
    };
    ChaosArmOutcome {
        name: name.to_string(),
        cap_violation_rate: end.meter.violation_rate(),
        max_rack_violation_rate: end.platform.worst_rack_violation_rate(),
        mean_power_watts: end.meter.mean_watts(),
        performance_per_watt: end.performance_per_watt,
        goal_attainment: end.goal_attainment,
        healthy_attainment,
        faulty_apps: count(|app| app.faulty),
        quarantined_apps: count(|app| app.quarantined_at.is_some()),
        false_quarantines: count(|app| app.quarantined_at.is_some() && !app.faulty),
        max_time_to_quarantine: app_outcomes
            .iter()
            .filter(|app| app.detectable)
            .filter_map(|app| app.time_to_quarantine)
            .max(),
        clamp_events,
        shed_joules,
        apps: app_outcomes,
        runtime: end.runtime.clone(),
    }
}

impl FigureChaos {
    /// Runs the chaos experiment with the workspace's canonical seed.
    pub fn compute() -> Self {
        FigureChaos::compute_with(2012)
    }

    /// [`Self::compute`] for an explicit seed.
    pub fn compute_with(seed: u64) -> Self {
        FigureChaos::compute_scenarios(&chaos_mixes(seed), seed)
    }

    /// Runs the experiment over explicit scenarios. Every
    /// (scenario, regime) pair is one worker cell with a seed derived from
    /// `(seed, scenario, regime)`, so results are identical regardless of
    /// worker count or interleaving.
    pub fn compute_scenarios(scenarios: &[Scenario], seed: u64) -> Self {
        FigureChaos::compute_scenarios_obs(scenarios, seed, false).0
    }

    /// [`Self::compute_scenarios`] with telemetry (see
    /// [`crate::fig5::Figure5::compute_scenarios_obs`] for the merge
    /// contract).
    pub fn compute_scenarios_obs(
        scenarios: &[Scenario],
        seed: u64,
        observe: bool,
    ) -> (Self, Option<ObsSnapshot>) {
        let server = XeonServer::dell_r410_calibrated();
        let (cells, snapshot) = run_grid(
            scenarios,
            &CHAOS_ARMS,
            seed,
            0xc4a0_5000,
            observe,
            |scenario, (name, knobs), seed, observer| {
                let run = ScenarioRun::new(&server, scenario, Layout::Racks, seed);
                let watchdog = chaos_watchdog(run.apps());
                let platform =
                    chaos_platform(knobs, run.budget_watts(), scenario.rack_count(), watchdog);
                let end = run.run(platform, observer, None);
                chaos_outcome(name, scenario, &watchdog, &end)
            },
        );
        let scenarios = scenarios
            .iter()
            .zip(cells.chunks(CHAOS_ARMS.len()))
            .map(|(scenario, outcomes)| ChaosScenarioResult {
                name: scenario.name.clone(),
                apps: scenario.apps.len(),
                racks: scenario.rack_count(),
                quanta: scenario.quanta,
                budget_watts: datacenter_budget_watts(&server, scenario),
                uncoordinated: outcomes[0].clone(),
                naive_audit: outcomes[1].clone(),
                naive_clamp: outcomes[2].clone(),
                degraded_audit: outcomes[3].clone(),
                degraded_clamp: outcomes[4].clone(),
            })
            .collect();
        (FigureChaos { scenarios }, snapshot)
    }

    /// The figure with every arm's wall-clock timing zeroed — the form
    /// determinism tests compare.
    pub fn canonical(&self) -> Self {
        FigureChaos {
            scenarios: self
                .scenarios
                .iter()
                .map(ChaosScenarioResult::canonical)
                .collect(),
        }
    }

    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "scenario       regime                      viol%  rack%  goal%  hlthy%  quar  falseQ  maxTTQ  clamps   shedJ\n",
        );
        for scenario in &self.scenarios {
            let rows = [
                &scenario.uncoordinated,
                &scenario.naive_audit,
                &scenario.naive_clamp,
                &scenario.degraded_audit,
                &scenario.degraded_clamp,
            ];
            for (i, arm) in rows.iter().enumerate() {
                let label = if i == 0 {
                    format!("{} ({})", scenario.name, scenario.apps)
                } else {
                    String::new()
                };
                let ttq = arm
                    .max_time_to_quarantine
                    .map_or("     -".to_string(), |q| format!("{q:6}"));
                out.push_str(&format!(
                    "{label:14} {:26} {:6.1} {:6.1} {:6.1} {:7.1} {:5} {:7} {ttq} {:7} {:7.1}\n",
                    arm.name,
                    arm.cap_violation_rate * 100.0,
                    arm.max_rack_violation_rate * 100.0,
                    arm.goal_attainment * 100.0,
                    arm.healthy_attainment * 100.0,
                    arm.quarantined_apps,
                    arm.false_quarantines,
                    arm.clamp_events,
                    arm.shed_joules,
                ));
            }
        }
        out
    }
}

impl FigureEnforce {
    /// Runs the enforcement comparison with the workspace's canonical
    /// seed.
    pub fn compute() -> Self {
        FigureEnforce::compute_with(2012)
    }

    /// [`Self::compute`] for an explicit seed.
    pub fn compute_with(seed: u64) -> Self {
        FigureEnforce::from_chaos(&FigureChaos::compute_with(seed))
    }

    /// Derives the enforcement summary from a computed [`FigureChaos`].
    pub fn from_chaos(chaos: &FigureChaos) -> Self {
        let scenarios = chaos
            .scenarios
            .iter()
            .map(|scenario| EnforceScenarioResult {
                name: scenario.name.clone(),
                audit_overdraw_rate: scenario.naive_audit.max_rack_violation_rate,
                clamp_overdraw_rate: scenario.naive_clamp.max_rack_violation_rate,
                degraded_audit_overdraw_rate: scenario.degraded_audit.max_rack_violation_rate,
                degraded_clamp_overdraw_rate: scenario.degraded_clamp.max_rack_violation_rate,
                clamp_fairness_cost: scenario.naive_audit.healthy_attainment
                    - scenario.naive_clamp.healthy_attainment,
                clamp_perf_cost: scenario.naive_audit.performance_per_watt
                    - scenario.naive_clamp.performance_per_watt,
                clamp_events: scenario.naive_clamp.clamp_events,
                shed_joules: scenario.naive_clamp.shed_joules,
            })
            .collect();
        FigureEnforce { scenarios }
    }

    /// Renders the summary as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "scenario       audit%  clamp%  degr-audit%  degr-clamp%  fairness-cost  perf-cost  clamps   shedJ\n",
        );
        for scenario in &self.scenarios {
            out.push_str(&format!(
                "{:14} {:6.1} {:7.1} {:12.1} {:12.1} {:14.4} {:10.4} {:7} {:7.1}\n",
                scenario.name,
                scenario.audit_overdraw_rate * 100.0,
                scenario.clamp_overdraw_rate * 100.0,
                scenario.degraded_audit_overdraw_rate * 100.0,
                scenario.degraded_clamp_overdraw_rate * 100.0,
                scenario.clamp_fairness_cost,
                scenario.clamp_perf_cost,
                scenario.clamp_events,
                scenario.shed_joules,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Counter;

    /// The full chaos mixes at the canonical seed: degradation holds the
    /// physical datacenter cap, quarantines every watchdog-visible fault
    /// within the ladder's window, readmits the transient one, and the
    /// breaker zeroes rack overdraw wherever audit records it.
    #[test]
    fn degradation_contains_the_chaos_mixes() {
        let fig = FigureChaos::compute();
        assert_eq!(fig.scenarios.len(), 2);

        for scenario in &fig.scenarios {
            // Robustness knobs must not smuggle violations *in*: with the
            // breaker on, the rack meters record admitted power and can
            // never show overdraw.
            assert_eq!(
                scenario.naive_clamp.max_rack_violation_rate, 0.0,
                "{}: the breaker zeroes rack overdraw",
                scenario.name
            );
            assert_eq!(
                scenario.degraded_clamp.max_rack_violation_rate, 0.0,
                "{}: degradation + breaker zeroes rack overdraw",
                scenario.name
            );
            // The full degradation stack holds the physical datacenter cap.
            assert_eq!(
                scenario.degraded_clamp.cap_violation_rate, 0.0,
                "{}: degraded+clamp must hold the datacenter cap",
                scenario.name
            );
            // Every watchdog-visible faulty app lands in quarantine within
            // the ladder's window (worst rule threshold + persistence),
            // and the watchdog never quarantines a healthy app.
            let watchdog = WatchdogConfig::default();
            let window = watchdog.stale_beat_quanta.max(watchdog.overdraw_quanta) + 8;
            for arm in [&scenario.degraded_audit, &scenario.degraded_clamp] {
                for app in arm.apps.iter().filter(|app| app.detectable) {
                    assert!(
                        app.quarantined_at.is_some(),
                        "{}/{}: detectable app {} must be quarantined",
                        scenario.name,
                        arm.name,
                        app.index
                    );
                    assert!(
                        app.time_to_quarantine.unwrap() <= window,
                        "{}/{}: app {} quarantined after {:?} quanta (window {window})",
                        scenario.name,
                        arm.name,
                        app.index,
                        app.time_to_quarantine
                    );
                }
                assert_eq!(
                    arm.false_quarantines, 0,
                    "{}/{}: no healthy app may be quarantined",
                    scenario.name, arm.name
                );
            }
            // Naive coordination quarantines nothing (the knob is off).
            assert_eq!(scenario.naive_audit.quarantined_apps, 0);
        }

        // The storm's transient stall (app 6, quanta 8..16) must recover:
        // quarantined during the outage, readmitted after it clears.
        let storm = &fig.scenarios[0];
        assert_eq!(storm.name, "fault-storm");
        let transient = &storm.degraded_audit.apps[6];
        assert!(transient.quarantined_at.is_some(), "{transient:?}");
        assert!(
            transient.readmitted_at.is_some(),
            "the transient stall must be readmitted once clean: {transient:?}"
        );

        // The rogue rack's under-reporter is invisible to telemetry rules
        // (it *under*-claims) — that containment is the breaker's job, and
        // audit mode records the overdraw the breaker would have refused.
        let rogues = &fig.scenarios[1];
        assert_eq!(rogues.name, "rack-rogues");
        assert!(
            !rogues.degraded_audit.apps[0].detectable,
            "an under-reporter evades every telemetry rule"
        );
        assert!(
            rogues.naive_audit.max_rack_violation_rate > 0.0,
            "audit must record the rogue rack's overdraw, got {:.3}",
            rogues.naive_audit.max_rack_violation_rate
        );
        assert!(
            rogues.naive_clamp.clamp_events > 0 && rogues.naive_clamp.shed_joules > 0.0,
            "the breaker must actually fire on the rogue rack"
        );

        // The enforcement summary is a pure projection of the same run.
        let enforce = FigureEnforce::from_chaos(&fig);
        assert_eq!(enforce.scenarios.len(), 2);
        assert!(enforce.scenarios[1].audit_overdraw_rate > 0.0);
        assert_eq!(enforce.scenarios[1].clamp_overdraw_rate, 0.0);
        assert!(fig.to_table().contains("coordinated-degraded/clamp"));
        assert!(enforce.to_table().contains("rack-rogues"));
    }

    #[test]
    fn chaos_cells_are_deterministic() {
        let scenarios = chaos_mixes(7);
        let a = FigureChaos::compute_scenarios(&scenarios, 7);
        let b = FigureChaos::compute_scenarios(&scenarios, 7);
        assert_eq!(a.canonical(), b.canonical());
        let c = FigureChaos::compute_scenarios(&scenarios, 8);
        assert_ne!(a.canonical(), c.canonical(), "different seeds must differ");
    }

    /// The acceptance cross-check for `fig5 --chaos --obs`: the merged
    /// telemetry snapshot reconciles exactly with the arm summaries, and
    /// observing changes nothing.
    #[test]
    fn chaos_telemetry_reconciles_with_arm_summaries() {
        // The canonical seed: `degradation_contains_the_chaos_mixes` pins
        // that it quarantines apps and trips breakers.
        let scenarios = chaos_mixes(2012);
        let baseline = FigureChaos::compute_scenarios(&scenarios, 2012);
        let (observed, snapshot) = FigureChaos::compute_scenarios_obs(&scenarios, 2012, true);
        assert_eq!(baseline.canonical(), observed.canonical());
        let snapshot = snapshot.expect("observe=true returns a snapshot");

        let arms = |s: &ChaosScenarioResult| {
            [
                s.uncoordinated.clone(),
                s.naive_audit.clone(),
                s.naive_clamp.clone(),
                s.degraded_audit.clone(),
                s.degraded_clamp.clone(),
            ]
        };
        // First-time quarantines: the counter matches the figure's
        // quarantined-app totals across every cell.
        let quarantined: u64 = observed
            .scenarios
            .iter()
            .flat_map(|s| arms(s).map(|arm| arm.quarantined_apps as u64))
            .sum();
        assert_eq!(snapshot.counter(Counter::Quarantines), quarantined);
        assert!(quarantined > 0, "the chaos mixes must quarantine someone");
        // Breaker activity: clamp counter and EnvelopeClamp events both
        // match the summed per-rack clamp_events.
        let clamps: u64 = observed
            .scenarios
            .iter()
            .flat_map(|s| arms(s).map(|arm| arm.clamp_events))
            .sum();
        assert_eq!(snapshot.counter(Counter::ClampEvents), clamps);
        let clamp_event_stream = snapshot
            .events
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::EnvelopeClamp { .. }))
            .count() as u64;
        assert_eq!(clamp_event_stream, clamps);
        assert!(clamps > 0, "the rogue mixes must trip a breaker");
        // Datacenter meter violations fold back to the cap-violation
        // rates (one interval per quantum).
        let violations: u64 = observed
            .scenarios
            .iter()
            .flat_map(|s| {
                arms(s).map(|arm| (arm.cap_violation_rate * s.quanta as f64).round() as u64)
            })
            .sum();
        assert_eq!(
            snapshot.counter(Counter::DatacenterMeterViolations),
            violations
        );
        // Health transitions: at least one Suspect→Quarantined transition
        // appears in the event stream, stamped with a coordinator quantum.
        let transitions = snapshot
            .events
            .iter()
            .filter(
                |e| matches!(&e.kind, obs::EventKind::HealthTransition { to, .. } if to == "Quarantined"),
            )
            .count() as u64;
        assert!(
            transitions >= quarantined,
            "every first quarantine is a ladder transition into Quarantined \
             (re-quarantines may add more): {transitions} < {quarantined}"
        );
        // Decisions reconcile with the timed histogram.
        assert_eq!(
            snapshot.stage(obs::Stage::Decision).count,
            snapshot.counter(Counter::AppsDecided)
        );
    }
}
