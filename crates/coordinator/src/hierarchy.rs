//! Two-level (rack → datacenter) coordination.
//!
//! One [`Coordinator`] arbitrates one machine. A datacenter is many
//! machines under one power envelope, and the paper's platform premise
//! (§2) scales the same way its single-machine story does: each level runs
//! the *same* observe–arbitrate–decide structure over the level below it.
//! This module adds that second level:
//!
//! * [`RackCoordinator`] — one fleet shard: a [`Coordinator`] owning the
//!   rack's applications, plus the rack's own [`xeon_sim::MachineMeter`]
//!   auditing the power it actually drew against the budget it was awarded.
//! * [`DatacenterArbiter`] — owns N racks and re-runs an
//!   [`ArbitrationPolicy`] — the *same trait* the racks use on their apps —
//!   over rack-level aggregate requests, so the budget flows
//!   datacenter → rack → app.
//!
//! Every datacenter step is three phases, mirroring [`Coordinator::step`]:
//!
//! 1. **observe** — each rack snapshots every present app once and folds
//!    their requests, built under the rack's budget before this quantum's
//!    award, into one aggregate request (sum of present weights,
//!    weight-weighted mean urgency, summed absorption ceilings);
//! 2. **arbitrate** — the datacenter policy splits the datacenter budget
//!    into per-rack watt envelopes (a sequential fold, exactly like the
//!    rack-level stage 2);
//! 3. **step** — each rack adopts its envelope as its machine budget (a
//!    positive award wakes the rack's whole fleet) and runs an ordinary
//!    coordinator step under it. The step reuses phase 1's snapshots
//!    instead of reading the monitors again and rebuilds each request it
//!    needs under the adopted budget, so each app is observed once per
//!    datacenter quantum.
//!
//! The phases walk the racks in rack order on the caller's thread; each
//! rack's own coordinator shards its apps across whatever pool it was
//! given ([`Coordinator::with_pool`]), bit-identical at every worker count.
//!
//! ## The flat coordinator is the 1-rack degenerate case
//!
//! With a single rack under a [`StaticShare`](crate::StaticShare)
//! datacenter policy (the datacenter hands racks its whole budget), the
//! rack is awarded `min(budget, Σ app ceilings)`; whenever the fleet can
//! absorb the budget (the common case — any app whose power draw is still
//! unknown absorbs the whole budget by construction), that is *exactly*
//! the datacenter budget, and the hierarchy reproduces the flat
//! [`Coordinator`] bit for bit (pinned by `tests/hierarchy_props.rs`).
//! Water-filling datacenter policies divide through the weight sum, whose
//! rounding makes the 1-rack award agree only to within an ulp — the
//! degenerate pin therefore uses `StaticShare`, and the conservation
//! property is pinned for all three policies under arbitrary partitions.

use std::sync::Arc;

use obs::{Counter, EventKind, Recorder, Stage, StageClock};
use seec::SeecError;
use xeon_sim::MachineMeter;

use crate::coordinator::{record, AppHandle, Coordinator, StepSummary};
use crate::policy::{AppRequest, ArbitrationPolicy};

/// What a rack does when its fleet's physical draw exceeds the watt
/// envelope the datacenter awarded it.
///
/// [`Audit`](EnforcementMode::Audit) (the default) is the historical
/// behaviour: the rack's [`MachineMeter`] records the overdraw and the
/// violation shows up in the audit, but the power is drawn — the rack
/// trusts its applications' closed loops to converge back under the
/// envelope. [`Clamp`](EnforcementMode::Clamp) models a hard rack-level
/// breaker (per-circuit power capping): [`RackCoordinator::advance`]
/// debits each report against the quantum's energy allowance
/// (`envelope × quantum length`) in arrival order, and a report that would
/// overdraw the allowance is *throttled* — work and power scale down by
/// the same factor, because an application denied watts also loses the
/// progress those watts would have bought. With Clamp the meter can never
/// record a violated interval; the cost is paid in throughput by whichever
/// applications report after the allowance runs dry, and
/// [`RackCoordinator::clamp_events`] / [`RackCoordinator::shed_joules`]
/// expose how often and how much.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnforcementMode {
    /// Record overdraw in the meter but let the power flow (default).
    #[default]
    Audit,
    /// Hard-throttle reports that would overdraw the rack envelope.
    Clamp,
}

/// One rack: a fleet shard under its own [`Coordinator`], with a
/// rack-level [`MachineMeter`] auditing the power the rack's applications
/// actually drew against the budget the datacenter awarded it.
///
/// The meter is fed from the data the rack already receives: every
/// [`Self::advance`] accumulates `power × duration` into the in-flight
/// interval, and the step that closes the interval records its mean power
/// against the cap that governed it (the award adopted at the *previous*
/// step), before adopting the new award. Simulation time is assumed to
/// start at 0, the workspace convention.
pub struct RackCoordinator {
    name: String,
    coordinator: Coordinator,
    meter: MachineMeter,
    interval_energy_joules: f64,
    last_step_time: f64,
    awarded_watts: f64,
    enforcement: EnforcementMode,
    clamp_events: u64,
    shed_joules: f64,
    /// Telemetry recorder shared with (usually) every rack of a
    /// datacenter; also attached to the inner coordinator.
    observer: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for RackCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RackCoordinator")
            .field("name", &self.name)
            .field("apps", &self.coordinator.len())
            .field("awarded_watts", &self.awarded_watts)
            .finish_non_exhaustive()
    }
}

impl RackCoordinator {
    /// A rack named `name` driving `coordinator`'s fleet. The coordinator's
    /// construction budget doubles as the rack's initial meter cap; both
    /// are replaced by the datacenter's award at every step.
    pub fn new(name: impl Into<String>, coordinator: Coordinator) -> Self {
        let initial_budget = coordinator.budget_watts();
        RackCoordinator {
            name: name.into(),
            coordinator,
            meter: MachineMeter::new(initial_budget),
            interval_energy_joules: 0.0,
            last_step_time: 0.0,
            awarded_watts: 0.0,
            enforcement: EnforcementMode::Audit,
            clamp_events: 0,
            shed_joules: 0.0,
            observer: None,
        }
    }

    /// Attaches a telemetry [`Recorder`] to the rack and its inner
    /// coordinator (see [`Coordinator::with_obs`]): breaker clamps raise
    /// [`EventKind::EnvelopeClamp`], meter intervals over the envelope
    /// count as [`Counter::RackMeterViolations`], and the inner
    /// coordinator's stages record as usual.
    pub fn with_obs(mut self, recorder: Arc<Recorder>) -> Self {
        self.set_obs(Some(recorder));
        self
    }

    /// Attaches or detaches the telemetry recorder mid-run (see
    /// [`Self::with_obs`]).
    pub fn set_obs(&mut self, recorder: Option<Arc<Recorder>>) {
        self.coordinator.set_obs(recorder.clone());
        self.observer = recorder;
    }

    /// Sets the rack's [`EnforcementMode`] (default
    /// [`Audit`](EnforcementMode::Audit), which is byte-for-byte the
    /// pre-enforcement behaviour).
    pub fn with_enforcement(mut self, mode: EnforcementMode) -> Self {
        self.enforcement = mode;
        self
    }

    /// How many [`Self::advance`] reports the breaker throttled (0 in
    /// [`Audit`](EnforcementMode::Audit) mode).
    pub fn clamp_events(&self) -> u64 {
        self.clamp_events
    }

    /// Total energy the breaker refused, in joules (0 in
    /// [`Audit`](EnforcementMode::Audit) mode).
    pub fn shed_joules(&self) -> f64 {
        self.shed_joules
    }

    /// The rack's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rack's fleet coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Mutable access to the rack's fleet coordinator (registration,
    /// retirement, budget steps).
    pub fn coordinator_mut(&mut self) -> &mut Coordinator {
        &mut self.coordinator
    }

    /// The rack-level power audit: what the rack drew vs. what it was
    /// awarded.
    pub fn meter(&self) -> &MachineMeter {
        &self.meter
    }

    /// The watt envelope the datacenter awarded at the most recent step
    /// (0 before the first step).
    pub fn awarded_watts(&self) -> f64 {
        self.awarded_watts
    }

    /// The rack's physical metering-and-enforcement point: debits one
    /// quantum's *actual* draw against the in-flight interval and, under
    /// [`EnforcementMode::Clamp`], throttles it to the envelope's remaining
    /// energy allowance (`envelope × elapsed`, arrival order), recording
    /// the refused energy in [`Self::shed_joules`]. Returns the admitted
    /// `(work, power)` — equal to the input under
    /// [`EnforcementMode::Audit`]; under Clamp the breaker is a physical
    /// gate (per-circuit power capping), so callers should adopt the
    /// admitted values as ground truth for whatever they meter downstream.
    pub fn admit(
        &mut self,
        start: f64,
        end: f64,
        work_units: f64,
        power_above_idle_watts: f64,
    ) -> (f64, f64) {
        let duration = (end - start).max(0.0);
        let (work_units, power_above_idle_watts) = match self.enforcement {
            EnforcementMode::Audit => (work_units, power_above_idle_watts),
            EnforcementMode::Clamp => {
                self.clamp_report(start, duration, work_units, power_above_idle_watts)
            }
        };
        self.interval_energy_joules += power_above_idle_watts * duration;
        (work_units, power_above_idle_watts)
    }

    /// Feeds one quantum's outcome back to an application (see
    /// [`Coordinator::advance`]) after routing it through [`Self::admit`],
    /// and returns the admitted `(work, power)`.
    ///
    /// Here the app's telemetry and its physical draw coincide — the
    /// common case. Harnesses that separate the two (a faulty application
    /// misreports what it actually drew) call [`Self::admit`] with the
    /// physical truth and then [`Coordinator::advance`] on
    /// [`Self::coordinator_mut`] with whatever the app claims, so
    /// enforcement watches the rail rather than the claim.
    pub fn advance(
        &mut self,
        handle: AppHandle,
        start: f64,
        end: f64,
        work_units: f64,
        power_above_idle_watts: f64,
    ) -> (f64, f64) {
        let admitted = self.admit(start, end, work_units, power_above_idle_watts);
        self.coordinator
            .advance(handle, start, end, admitted.0, admitted.1);
        admitted
    }

    /// The breaker: throttles one report so the interval's accumulated
    /// energy never exceeds the envelope's allowance. Returns the admitted
    /// `(work, power)`.
    fn clamp_report(
        &mut self,
        start: f64,
        duration: f64,
        work_units: f64,
        power_above_idle_watts: f64,
    ) -> (f64, f64) {
        // Before the first datacenter award lands, the rack's own budget is
        // the envelope (the same value the meter was constructed with).
        let envelope = if self.awarded_watts > 0.0 {
            self.awarded_watts
        } else {
            self.coordinator.budget_watts()
        };
        let elapsed = (start + duration - self.last_step_time).max(duration);
        let allowance = envelope * elapsed;
        let contribution = power_above_idle_watts * duration;
        if !contribution.is_finite() || contribution <= 0.0 || !allowance.is_finite() {
            return (work_units, power_above_idle_watts);
        }
        let headroom = (allowance - self.interval_energy_joules).max(0.0);
        if contribution <= headroom {
            return (work_units, power_above_idle_watts);
        }
        // Shaved by a nano-fraction so a saturated interval's re-rounded
        // sum of admitted contributions can never land an ulp *above* the
        // allowance (a breaker that overdraws by one ulp still audits as
        // a violated interval).
        let admitted = headroom / contribution * (1.0 - 1e-9);
        self.clamp_events += 1;
        self.shed_joules += contribution - headroom;
        // Breaker telemetry: admits run on the sequential driver thread in
        // report-arrival order, so direct emission stays deterministic.
        record(
            self.observer.as_deref(),
            self.coordinator.quantum(),
            Some(Counter::ClampEvents),
            || EventKind::EnvelopeClamp {
                shed_joules: contribution - headroom,
            },
        );
        (work_units * admitted, power_above_idle_watts * admitted)
    }

    /// Closes the in-flight metering interval (judged against the award in
    /// force while it ran), adopts `awarded_watts` as the rack budget, and
    /// steps the rack's fleet under it. Awards of exactly 0 W (an inactive
    /// rack) leave the previous budget in place — with no present apps the
    /// step hands out nothing regardless.
    fn step_under(&mut self, now: f64, awarded_watts: f64) -> Result<StepSummary, SeecError> {
        let elapsed = now - self.last_step_time;
        if elapsed > 0.0 {
            let violations_before = self.meter.violation_intervals();
            self.meter
                .record(elapsed, self.interval_energy_joules / elapsed);
            if let Some(observer) = &self.observer {
                observer.add(
                    Counter::RackMeterViolations,
                    self.meter.violation_intervals() - violations_before,
                );
            }
        }
        self.interval_energy_joules = 0.0;
        self.last_step_time = now;
        self.awarded_watts = awarded_watts;
        if awarded_watts > 0.0 {
            // The quiet path: renewing the same envelope every quantum is
            // not a "budget change" worth an event per rack per step.
            self.coordinator.set_budget_quiet(awarded_watts);
            self.meter.set_cap(awarded_watts);
        }
        self.coordinator.step(now)
    }
}

/// Summary of one datacenter step, as plain `Copy` data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatacenterStepSummary {
    /// The shared quantum index this step covered.
    pub quantum: usize,
    /// Racks with at least one present application.
    pub active_racks: usize,
    /// Applications present across all racks.
    pub active_apps: usize,
    /// Watts the datacenter handed to racks (≤ budget).
    pub rack_awarded_watts_total: f64,
    /// Watts the racks handed on to applications (≤ the rack total: each
    /// rack keeps its own headroom margin).
    pub app_awarded_watts_total: f64,
}

/// Arbitrates one datacenter power budget across N [`RackCoordinator`]s,
/// re-running an [`ArbitrationPolicy`] over rack-level aggregate requests
/// every quantum so budget flows datacenter → rack → app.
///
/// See the [module docs](self) for the phase structure, the determinism
/// argument, and the sense in which the flat [`Coordinator`] is the 1-rack
/// degenerate case.
pub struct DatacenterArbiter {
    racks: Vec<RackCoordinator>,
    policy: Box<dyn ArbitrationPolicy>,
    budget_watts: f64,
    quantum: usize,
    requests: Vec<AppRequest>,
    /// Every rack's index, in order: the policy's participant list.
    rack_slots: Vec<u32>,
    awards: Vec<f64>,
    /// Telemetry recorder propagated to every rack.
    observer: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for DatacenterArbiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatacenterArbiter")
            .field("racks", &self.racks.len())
            .field("policy", &self.policy.name())
            .field("budget_watts", &self.budget_watts)
            .field("quantum", &self.quantum)
            .finish_non_exhaustive()
    }
}

impl DatacenterArbiter {
    /// An arbiter splitting `budget_watts` (datacenter power above idle)
    /// across racks under `policy`. The whole budget is arbitrated — each
    /// rack's coordinator already keeps its own headroom margin, and
    /// stacking a second one would double-discount the budget.
    ///
    /// # Panics
    ///
    /// Panics unless the budget is positive (it may be infinite).
    pub fn new(budget_watts: f64, policy: Box<dyn ArbitrationPolicy>) -> Self {
        assert!(budget_watts > 0.0, "power budget must be positive");
        DatacenterArbiter {
            racks: Vec::new(),
            policy,
            budget_watts,
            quantum: 0,
            requests: Vec::new(),
            rack_slots: Vec::new(),
            awards: Vec::new(),
            observer: None,
        }
    }

    /// Attaches a telemetry [`Recorder`] to the arbiter and every rack
    /// (current and future — [`Self::add_rack`] propagates it). Datacenter
    /// steps time [`Stage::DatacenterStep`] and budget steps raise
    /// [`EventKind::BudgetChange`]; racks record their own stages,
    /// counters, and events. Events stream in call order.
    pub fn with_obs(mut self, recorder: Arc<Recorder>) -> Self {
        self.set_obs(Some(recorder));
        self
    }

    /// Attaches or detaches the telemetry recorder mid-run (see
    /// [`Self::with_obs`]).
    pub fn set_obs(&mut self, recorder: Option<Arc<Recorder>>) {
        for rack in &mut self.racks {
            rack.set_obs(recorder.clone());
        }
        self.observer = recorder;
    }

    /// Adds a rack; returns its index (registration order). An attached
    /// telemetry recorder (see [`Self::with_obs`]) is propagated to the new
    /// rack.
    pub fn add_rack(&mut self, mut rack: RackCoordinator) -> usize {
        if self.observer.is_some() {
            rack.set_obs(self.observer.clone());
        }
        self.rack_slots
            .push(u32::try_from(self.racks.len()).expect("rack count fits u32"));
        self.racks.push(rack);
        self.racks.len() - 1
    }

    /// The rack at `index` (registration order).
    pub fn rack(&self, index: usize) -> &RackCoordinator {
        &self.racks[index]
    }

    /// Mutable access to the rack at `index`.
    pub fn rack_mut(&mut self, index: usize) -> &mut RackCoordinator {
        &mut self.racks[index]
    }

    /// Every rack, in registration order.
    pub fn racks(&self) -> &[RackCoordinator] {
        &self.racks
    }

    /// Number of racks.
    pub fn len(&self) -> usize {
        self.racks.len()
    }

    /// Whether no rack has been added.
    pub fn is_empty(&self) -> bool {
        self.racks.is_empty()
    }

    /// The datacenter power budget being arbitrated, in watts.
    pub fn budget_watts(&self) -> f64 {
        self.budget_watts
    }

    /// Replaces the datacenter budget (takes effect next step) — the
    /// operator-level "budget step". Counted and raised on the telemetry
    /// stream exactly like [`Coordinator::set_budget`].
    ///
    /// # Panics
    ///
    /// Panics unless the budget is positive (it may be infinite).
    pub fn set_budget(&mut self, budget_watts: f64) {
        assert!(budget_watts > 0.0, "power budget must be positive");
        self.budget_watts = budget_watts;
        record(
            self.observer.as_deref(),
            self.quantum,
            Some(Counter::BudgetChanges),
            || EventKind::BudgetChange {
                watts: budget_watts,
            },
        );
    }

    /// The next shared quantum index [`Self::step`] will run.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// The datacenter-level arbitration policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The per-rack watt envelopes of the most recent step, in rack order.
    pub fn rack_awards(&self) -> &[f64] {
        &self.awards
    }

    /// Runs one datacenter quantum at simulation time `now`: fold each
    /// rack's fleet into an aggregate request, arbitrate the datacenter
    /// budget into rack envelopes, and step every rack under its envelope.
    /// Advances the shared quantum counter (every rack's coordinator steps
    /// exactly once per datacenter step, so all quantum counters stay in
    /// lockstep).
    ///
    /// # Errors
    ///
    /// Propagates the decision error of the lowest-indexed failing rack
    /// (itself the error of that rack's lowest-indexed failing app). Racks
    /// whose steps completed keep their decisions, and every quantum
    /// counter — the datacenter's and each rack's, including the failing
    /// rack's — still advances, so a caller that handles the error can
    /// keep stepping with the hierarchy in lockstep (the failing rack
    /// simply took no new decisions that quantum).
    pub fn step(&mut self, now: f64) -> Result<DatacenterStepSummary, SeecError> {
        let quantum = self.quantum;
        let clock = self.observer.as_ref().map(|_| StageClock::start());

        // ---- Phase 1: rack aggregate requests (rack order) ----------
        self.requests.clear();
        self.requests.extend(
            self.racks
                .iter_mut()
                .map(|rack| rack.coordinator.observe_fleet()),
        );

        // ---- Phase 2: arbitrate (sequential deterministic fold) -----
        self.policy.arbitrate(
            self.budget_watts,
            &self.requests,
            &self.rack_slots,
            &mut self.awards,
        );

        // ---- Phase 3: step each rack under its envelope (rack order) -
        let mut active_racks = 0;
        let mut active_apps = 0;
        let mut rack_awarded_total = 0.0;
        let mut app_awarded_total = 0.0;
        let mut failure: Option<SeecError> = None;
        for (rack, &award) in self.racks.iter_mut().zip(&self.awards) {
            match rack.step_under(now, award) {
                Ok(summary) => {
                    if summary.active_apps > 0 {
                        active_racks += 1;
                        rack_awarded_total += award;
                    }
                    active_apps += summary.active_apps;
                    app_awarded_total += summary.awarded_watts_total;
                }
                Err(err) => {
                    // A failed rack step does not advance that rack's own
                    // quantum counter; advance it here so every rack stays
                    // in lockstep with the datacenter (the failing rack
                    // simply took no new decisions this quantum) and a
                    // caller that handles the error can keep stepping.
                    rack.coordinator.skip_quantum();
                    if failure.is_none() {
                        failure = Some(err);
                    }
                }
            }
        }
        // The datacenter quantum advances whether or not a rack failed —
        // time moved for the racks that succeeded.
        self.quantum += 1;
        if let (Some(observer), Some(clock)) = (&self.observer, &clock) {
            observer.time(Stage::DatacenterStep, clock.total());
        }
        if let Some(err) = failure {
            return Err(err);
        }
        Ok(DatacenterStepSummary {
            quantum,
            active_racks,
            active_apps,
            rack_awarded_watts_total: rack_awarded_total,
            app_awarded_watts_total: app_awarded_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::ManagedApp;
    use crate::policy::{PerformanceMarket, StaticShare, WeightedFair};
    use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
    use exec::ExecPool;
    use seec::{ExplorationPolicy, SeecRuntime};
    use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};

    fn actuators() -> Vec<Box<dyn actuation::Actuator>> {
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
        vec![Box::new(TableActuator::new(dvfs))]
    }

    fn managed_app(seed: u64, target: f64) -> ManagedApp {
        let benchmark = SplashBenchmark::ALL[seed as usize % SplashBenchmark::ALL.len()];
        let driver = HeartbeatedWorkload::new(Workload::new(benchmark, seed));
        driver.set_heart_rate_goal(target);
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(actuators())
            .exploration(ExplorationPolicy {
                epsilon: 0.0,
                ..ExplorationPolicy::default()
            })
            .seed(seed)
            .build()
            .unwrap();
        ManagedApp::new(driver, runtime).with_nominal_power_hint(10.0)
    }

    /// Drives the whole hierarchy against a platform mirroring each app's
    /// declared effects exactly; returns the final summary.
    fn drive(datacenter: &mut DatacenterArbiter, ticks: usize) -> DatacenterStepSummary {
        let mut now = 0.0;
        let mut last = None;
        for _ in 0..ticks {
            now += 1.0;
            for rack_index in 0..datacenter.len() {
                let handles: Vec<AppHandle> = (0..datacenter.rack(rack_index).coordinator().len())
                    .map(AppHandle::from_index)
                    .collect();
                for handle in handles {
                    let effect = {
                        let runtime = datacenter
                            .rack(rack_index)
                            .coordinator()
                            .app(handle)
                            .runtime();
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
            last = Some(datacenter.step(now).unwrap());
        }
        last.expect("at least one tick")
    }

    #[test]
    fn budget_flows_datacenter_to_rack_to_app() {
        let mut datacenter = DatacenterArbiter::new(40.0, Box::new(WeightedFair));
        for rack_index in 0..2 {
            let mut rack = RackCoordinator::new(
                format!("rack-{rack_index}"),
                Coordinator::new(40.0, Box::new(PerformanceMarket::default())),
            );
            for app in 0..3 {
                rack.coordinator_mut()
                    .register(managed_app(rack_index * 10 + app + 1, 1000.0));
            }
            datacenter.add_rack(rack);
        }
        let summary = drive(&mut datacenter, 25);
        assert_eq!(summary.active_racks, 2);
        assert_eq!(summary.active_apps, 6);
        assert!(
            summary.rack_awarded_watts_total <= 40.0 + 1e-9,
            "rack envelopes {} must conserve the datacenter budget",
            summary.rack_awarded_watts_total
        );
        assert!(
            summary.app_awarded_watts_total <= summary.rack_awarded_watts_total + 1e-9,
            "apps cannot be handed more than their racks were"
        );
        for rack in datacenter.racks() {
            assert!(
                rack.awarded_watts() > 0.0,
                "{}: both racks host apps",
                rack.name()
            );
            assert!(rack.meter().elapsed_seconds() > 0.0);
            let fleet_total: f64 = rack.coordinator().awards().iter().sum();
            assert!(fleet_total <= rack.awarded_watts() * 0.95 + 1e-9);
        }
        assert!(format!("{datacenter:?}").contains("DatacenterArbiter"));
        assert!(format!("{:?}", datacenter.rack(0)).contains("rack-0"));
    }

    #[test]
    fn inactive_racks_are_awarded_nothing() {
        let mut datacenter = DatacenterArbiter::new(30.0, Box::new(StaticShare));
        let mut busy = RackCoordinator::new("busy", Coordinator::new(30.0, Box::new(StaticShare)));
        busy.coordinator_mut().register(managed_app(1, 100.0));
        datacenter.add_rack(busy);
        let mut idle = RackCoordinator::new("idle", Coordinator::new(30.0, Box::new(StaticShare)));
        let retired = idle.coordinator_mut().register(managed_app(2, 100.0));
        idle.coordinator_mut().retire(retired);
        datacenter.add_rack(idle);
        let empty = RackCoordinator::new("empty", Coordinator::new(30.0, Box::new(StaticShare)));
        datacenter.add_rack(empty);

        let summary = drive(&mut datacenter, 5);
        assert_eq!(summary.active_racks, 1);
        assert_eq!(summary.active_apps, 1);
        assert_eq!(datacenter.rack_awards().len(), 3);
        assert_eq!(datacenter.rack(1).awarded_watts(), 0.0);
        assert_eq!(datacenter.rack(2).awarded_watts(), 0.0);
        // The busy rack is clamped at its one app's absorption ceiling:
        // 10 W nominal hint x the space's 2.6 max declared powerup.
        assert_eq!(datacenter.rack(0).awarded_watts(), 26.0);
    }

    #[test]
    fn pooled_rack_stepping_is_bit_identical_to_inline() {
        let build = |workers: usize| {
            let mut datacenter = DatacenterArbiter::new(35.0, Box::new(WeightedFair));
            let pool = Arc::new(ExecPool::new(workers));
            for rack_index in 0..3u64 {
                let mut rack = RackCoordinator::new(
                    format!("rack-{rack_index}"),
                    Coordinator::new(35.0, Box::new(PerformanceMarket::default()))
                        .with_pool(Arc::clone(&pool))
                        .with_shard_threshold(0),
                );
                for app in 0..2 {
                    rack.coordinator_mut()
                        .register(managed_app(rack_index * 7 + app + 1, 1000.0));
                }
                datacenter.add_rack(rack);
            }
            datacenter
        };
        let trace = |mut datacenter: DatacenterArbiter| {
            let mut out = Vec::new();
            let mut now = 0.0;
            for _ in 0..15 {
                now += 1.0;
                for rack_index in 0..datacenter.len() {
                    for app in 0..datacenter.rack(rack_index).coordinator().len() {
                        let handle = AppHandle::from_index(app);
                        let effect = {
                            let runtime = datacenter
                                .rack(rack_index)
                                .coordinator()
                                .app(handle)
                                .runtime();
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
                let summary = datacenter.step(now).unwrap();
                let awards = datacenter.rack_awards().to_vec();
                let fleet: Vec<Vec<f64>> = datacenter
                    .racks()
                    .iter()
                    .map(|rack| rack.coordinator().awards().to_vec())
                    .collect();
                out.push((summary, awards, fleet));
            }
            out
        };
        let inline = trace(build(1));
        for workers in [2, 5] {
            assert_eq!(inline, trace(build(workers)), "workers = {workers}");
        }
    }

    #[test]
    fn rack_meter_audits_awards() {
        let mut datacenter = DatacenterArbiter::new(1000.0, Box::new(StaticShare));
        let mut rack = RackCoordinator::new("r", Coordinator::new(1000.0, Box::new(StaticShare)));
        let handle = rack.coordinator_mut().register(managed_app(1, 10.0));
        datacenter.add_rack(rack);
        let mut now = 0.0;
        for _ in 0..10 {
            now += 1.0;
            datacenter
                .rack_mut(0)
                .advance(handle, now - 1.0, now, 10.0, 10.0);
            datacenter.step(now).unwrap();
        }
        let meter = datacenter.rack(0).meter();
        assert_eq!(meter.elapsed_seconds(), 10.0);
        assert!((meter.mean_watts() - 10.0).abs() < 1e-9);
        // A 1000 W award over a 10 W draw: never violated.
        assert!(!meter.violated());
    }

    #[test]
    fn rack_errors_propagate_and_keep_the_hierarchy_in_lockstep() {
        let mut datacenter = DatacenterArbiter::new(30.0, Box::new(StaticShare));
        let mut healthy =
            RackCoordinator::new("healthy", Coordinator::new(30.0, Box::new(StaticShare)));
        healthy.coordinator_mut().register(managed_app(1, 100.0));
        datacenter.add_rack(healthy);
        let mut broken =
            RackCoordinator::new("broken", Coordinator::new(30.0, Box::new(StaticShare)));
        // An app without any goal: the rack step fails with NoGoal.
        let driver = HeartbeatedWorkload::new(Workload::new(SplashBenchmark::Barnes, 1));
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(actuators())
            .build()
            .unwrap();
        broken
            .coordinator_mut()
            .register(ManagedApp::new(driver, runtime));
        datacenter.add_rack(broken);

        for step in 1..=3 {
            assert!(matches!(
                datacenter.step(step as f64),
                Err(SeecError::NoGoal)
            ));
            // Every counter advanced in lockstep — the healthy rack
            // stepped, the broken one skipped, the datacenter moved on.
            assert_eq!(datacenter.quantum(), step);
            assert_eq!(datacenter.rack(0).coordinator().quantum(), step);
            assert_eq!(datacenter.rack(1).coordinator().quantum(), step);
        }
    }

    #[test]
    fn clamp_mode_prevents_rack_overdraw_audit_records_it() {
        // Three apps each physically drawing 10 W under a 15 W rack
        // envelope: a 2x overdraw every quantum.
        let run = |mode: EnforcementMode| {
            let mut datacenter = DatacenterArbiter::new(15.0, Box::new(StaticShare));
            let mut rack = RackCoordinator::new("r", Coordinator::new(15.0, Box::new(StaticShare)))
                .with_enforcement(mode);
            let handles: Vec<AppHandle> = (0..3)
                .map(|app| rack.coordinator_mut().register(managed_app(app + 1, 10.0)))
                .collect();
            datacenter.add_rack(rack);
            let mut now = 0.0;
            for _ in 0..10 {
                now += 1.0;
                for &handle in &handles {
                    datacenter
                        .rack_mut(0)
                        .advance(handle, now - 1.0, now, 10.0, 10.0);
                }
                datacenter.step(now).unwrap();
            }
            datacenter
        };

        let audited = run(EnforcementMode::Audit);
        let rack = audited.rack(0);
        assert!(rack.meter().violated(), "audit records the overdraw");
        assert!((rack.meter().mean_watts() - 30.0).abs() < 1e-9);
        assert_eq!(rack.clamp_events(), 0);
        assert_eq!(rack.shed_joules(), 0.0);

        let clamped = run(EnforcementMode::Clamp);
        let rack = clamped.rack(0);
        assert!(!rack.meter().violated(), "the breaker holds the envelope");
        assert!(
            rack.meter().mean_watts() <= 15.0 + 1e-9,
            "mean draw {} must fit the 15 W envelope",
            rack.meter().mean_watts()
        );
        assert!(rack.clamp_events() > 0);
        // 30 W demanded, 15 W admitted, 10 s: about 150 J refused.
        assert!(
            (rack.shed_joules() - 150.0).abs() < 1.0,
            "{}",
            rack.shed_joules()
        );
    }

    #[test]
    fn telemetry_reconciles_across_the_hierarchy_and_stays_passive() {
        // Same overdraw harness as the enforcement test, instrumented: the
        // recorder must count clamps and rack violations exactly and move
        // zero bits of the results, inline or with the rack's apps sharded.
        let run = |mode: EnforcementMode, recorder: Option<Arc<Recorder>>, workers: usize| {
            let mut datacenter = DatacenterArbiter::new(15.0, Box::new(StaticShare));
            if let Some(recorder) = recorder {
                datacenter.set_obs(Some(recorder));
            }
            let mut rack = RackCoordinator::new(
                "r",
                Coordinator::new(15.0, Box::new(StaticShare))
                    .with_pool(Arc::new(ExecPool::new(workers)))
                    .with_shard_threshold(0),
            )
            .with_enforcement(mode);
            let handles: Vec<AppHandle> = (0..3)
                .map(|app| rack.coordinator_mut().register(managed_app(app + 1, 10.0)))
                .collect();
            datacenter.add_rack(rack);
            let mut now = 0.0;
            for _ in 0..10 {
                now += 1.0;
                for &handle in &handles {
                    datacenter
                        .rack_mut(0)
                        .advance(handle, now - 1.0, now, 10.0, 10.0);
                }
                datacenter.step(now).unwrap();
            }
            datacenter
        };

        let baseline = run(EnforcementMode::Clamp, None, 1);
        for workers in [1usize, 2] {
            let recorder = Arc::new(Recorder::in_memory());
            let observed = run(EnforcementMode::Clamp, Some(Arc::clone(&recorder)), workers);
            let rack = observed.rack(0);
            assert_eq!(
                rack.meter().mean_watts(),
                baseline.rack(0).meter().mean_watts(),
                "telemetry perturbed the metered draw at {workers} workers"
            );
            assert_eq!(rack.clamp_events(), baseline.rack(0).clamp_events());
            let snapshot = recorder.snapshot();
            assert_eq!(
                snapshot.counter(Counter::ClampEvents),
                rack.clamp_events(),
                "counter reconciles with the rack's own tally"
            );
            assert_eq!(
                snapshot.counter(Counter::RackMeterViolations),
                rack.meter().violation_intervals()
            );
            assert_eq!(snapshot.counter(Counter::QuantaStepped), 10);
            assert_eq!(snapshot.stage(Stage::DatacenterStep).count, 10);
            let clamps = snapshot
                .events
                .iter()
                .filter(|event| matches!(event.kind, EventKind::EnvelopeClamp { .. }))
                .count() as u64;
            assert_eq!(clamps, rack.clamp_events());
        }

        // Audit mode: violations counted, no clamp events.
        let recorder = Arc::new(Recorder::in_memory());
        let observed = run(EnforcementMode::Audit, Some(Arc::clone(&recorder)), 1);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter(Counter::ClampEvents), 0);
        assert_eq!(
            snapshot.counter(Counter::RackMeterViolations),
            observed.rack(0).meter().violation_intervals()
        );
        assert!(snapshot.counter(Counter::RackMeterViolations) > 0);
    }

    #[test]
    fn datacenter_budget_steps_are_counted_and_raised() {
        let recorder = Arc::new(Recorder::in_memory());
        let mut datacenter =
            DatacenterArbiter::new(40.0, Box::new(StaticShare)).with_obs(Arc::clone(&recorder));
        let mut rack = RackCoordinator::new("r", Coordinator::new(40.0, Box::new(StaticShare)));
        rack.coordinator_mut().register(managed_app(1, 100.0));
        datacenter.add_rack(rack);
        datacenter.step(1.0).unwrap();
        datacenter.set_budget(20.0);
        datacenter.step(2.0).unwrap();
        datacenter.set_budget(30.0);

        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter(Counter::BudgetChanges), 2);
        let steps: Vec<(u64, f64)> = snapshot
            .events
            .iter()
            .filter_map(|event| match event.kind {
                EventKind::BudgetChange { watts } => Some((event.quantum, watts)),
                _ => None,
            })
            .collect();
        assert_eq!(steps, [(1, 20.0), (2, 30.0)]);
    }

    #[test]
    fn hierarchy_events_keep_call_order() {
        let recorder = Arc::new(Recorder::in_memory());
        let mut datacenter =
            DatacenterArbiter::new(40.0, Box::new(StaticShare)).with_obs(Arc::clone(&recorder));
        for name in ["rack-0", "rack-1"] {
            datacenter.add_rack(RackCoordinator::new(
                name,
                Coordinator::new(40.0, Box::new(StaticShare)),
            ));
        }
        // App seeds 1 and 2 land on different benchmarks, so the two
        // registrations are told apart by name.
        let first = managed_app(1, 100.0);
        let second = managed_app(2, 100.0);
        let names = [first.name().to_string(), second.name().to_string()];
        assert_ne!(names[0], names[1]);
        datacenter.rack_mut(1).coordinator_mut().register(first);
        datacenter.rack_mut(0).coordinator_mut().register(second);
        datacenter.step(1.0).unwrap();

        let registered: Vec<String> = recorder
            .snapshot()
            .events
            .iter()
            .filter_map(|event| match &event.kind {
                EventKind::Register { app } => Some(app.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(registered, names, "registrations stream in call order");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_datacenter_budget_panics() {
        let _ = DatacenterArbiter::new(0.0, Box::new(StaticShare));
    }
}
