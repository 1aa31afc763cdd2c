//! The scenario driver: the one quantum loop behind every fig5-family
//! figure and the scenario fuzzer's probe (DESIGN.md, "The scenario
//! driver").
//!
//! A [`ScenarioRun`] plays one [`Scenario`] on the calibrated R410 under a
//! caller-chosen [`Layout`] and a caller-built [`Platform`]; the loop
//! branches on no policy knob. Each quantum: lifecycle (meter cap,
//! registration, retirement) → evaluate → per-machine contention →
//! accounting against physical truth, then fault-filtered reports
//! ([`FaultRuntime`]) → meter → arbitration (where the layout says) →
//! per-app decides. An optional read-only hook runs right after each
//! arbitration; the fuzzer's invariant oracles live there.

use std::sync::Arc;
use std::time::Instant;

use coordinator::{
    AppHandle, ArbitrationPolicy, Coordinator, DatacenterArbiter, ManagedApp, RackCoordinator,
};
use obs::{Counter, Recorder};
use seec::{SeecRuntime, UncoordinatedRuntime};
use workloads::{HeartbeatedWorkload, QuantumDemand, Scenario, ScenarioApp, Workload};
use xeon_sim::{MachineMeter, ServerConfiguration, XeonServer};

use crate::driver::to_server_demand;
use crate::faults::FaultRuntime;
use crate::fig3::{convex_protocol, map_configuration, xeon_actuators, ConvexTuning};
use crate::fig5::{
    budget_watts, datacenter_budget_watts, ArmOutcome, RuntimeBlock, QUANTUM_SECONDS,
};

/// Beats each application should emit per quantum when exactly on target
/// (sets its work-per-beat granularity; the 64-beat window then spans eight
/// quanta).
const BEATS_PER_QUANTUM_AT_TARGET: f64 = 8.0;

/// Per-app simulation state shared by every platform.
pub(crate) struct AppSim {
    /// The scenario slot (activity window, weight, seed, benchmark); the
    /// single source of the half-open residency semantics
    /// ([`workloads::ScenarioApp::active_at`]).
    pub(crate) spec: ScenarioApp,
    pub(crate) phases: Vec<QuantumDemand>,
    /// Target work rate (work units per second): the app's solo maximum
    /// under the default configuration, scaled by its requested fraction.
    pub(crate) target_rate: f64,
    pub(crate) work_per_beat: f64,
    pub(crate) launch_power_watts: f64,
    // Accumulators over the app's residency.
    pub(crate) active_seconds: f64,
    pub(crate) work_done: f64,
}

impl AppSim {
    pub(crate) fn active_at(&self, quantum: usize) -> bool {
        self.spec.active_at(quantum)
    }

    /// The demand phase at shared quantum `quantum`; phases cycle from the
    /// app's arrival.
    fn phase_at(&self, quantum: usize) -> &QuantumDemand {
        &self.phases[(quantum - self.spec.arrival) % self.phases.len()]
    }

    /// `min(rate/target, 1)` over the app's residency.
    pub(crate) fn attainment(&self) -> f64 {
        if self.active_seconds <= 0.0 || self.target_rate <= 0.0 {
            return 0.0;
        }
        (self.work_done / self.active_seconds / self.target_rate).min(1.0)
    }
}

/// Builds the per-app simulation state for one scenario.
fn build_apps(server: &XeonServer, scenario: &Scenario) -> Vec<AppSim> {
    let launch = ServerConfiguration::new(1, server.pstates().len() - 1, 1.0);
    scenario
        .apps
        .iter()
        .map(|app| {
            let workload = Workload::new(app.benchmark, app.seed);
            let phases_len = scenario.quanta.max(8);
            let phases = workload.quanta(phases_len);
            let average = to_server_demand(&workload.average_quantum());
            let solo = server.evaluate(&average, &server.default_configuration());
            let target_rate = app.target_fraction * solo.work_units / solo.seconds;
            let launch_power = server.evaluate(&average, &launch).power_above_idle_watts;
            AppSim {
                spec: *app,
                phases,
                target_rate,
                work_per_beat: target_rate * QUANTUM_SECONDS / BEATS_PER_QUANTUM_AT_TARGET,
                launch_power_watts: launch_power,
                active_seconds: 0.0,
                work_done: 0.0,
            }
        })
        .collect()
}

/// A heartbeat-instrumented driver for one scenario app, its goal set to
/// the scenario's target rate.
fn heartbeated(sim: &AppSim) -> HeartbeatedWorkload {
    let workload = Workload::new(sim.spec.benchmark, sim.spec.seed);
    let driver = HeartbeatedWorkload::with_work_per_beat(workload, sim.work_per_beat);
    driver.set_heart_rate_goal(sim.target_rate / sim.work_per_beat);
    driver
}

/// A solo SEEC runtime for `sim` (app `index` of a run seeded `seed`),
/// tuned to the convex (goal-respecting) protocol every closed-loop runtime
/// in the fig5 family uses.
fn solo_runtime(
    server: &XeonServer,
    driver: &HeartbeatedWorkload,
    seed: u64,
    index: usize,
) -> SeecRuntime {
    convex_protocol(
        SeecRuntime::builder(driver.monitor())
            .actuators(xeon_actuators(server))
            .seed(seed.wrapping_add(index as u64)),
        ConvexTuning::default(),
    )
    .build()
    .expect("actuators registered")
}

/// Where a scenario's apps physically run. The layout fixes the budget,
/// the contention groups, the meter counter and when the platform
/// arbitrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// One machine; arbitration at the *end* of each quantum under the
    /// *next* quantum's budget.
    Machine,
    /// One machine per rack, rack-managed apps admitted at their rack
    /// ([`RackCoordinator::admit`]); arbitration at the *start* of each
    /// quantum under the current cap, so an arrival decides before it draws.
    Racks,
}

impl Layout {
    /// The run's power budget above idle at the scenario's base fraction.
    pub(crate) fn budget_watts(self, server: &XeonServer, scenario: &Scenario) -> f64 {
        match self {
            Layout::Machine => budget_watts(server, scenario),
            Layout::Racks => datacenter_budget_watts(server, scenario),
        }
    }

    /// Number of machines (contention groups).
    fn machines(self, scenario: &Scenario) -> usize {
        match self {
            Layout::Machine => 1,
            Layout::Racks => scenario.rack_count(),
        }
    }

    /// The machine `app` runs on.
    fn machine_of(self, app: &ScenarioApp) -> usize {
        match self {
            Layout::Machine => 0,
            Layout::Racks => app.rack,
        }
    }

    fn meter_counter(self) -> Counter {
        match self {
            Layout::Machine => Counter::MachineMeterViolations,
            Layout::Racks => Counter::DatacenterMeterViolations,
        }
    }
}

/// Who decides configurations, built by the caller.
pub(crate) enum Platform {
    /// No adaptation: every app runs the default (flat-out) configuration.
    Fixed,
    /// §5.2's uncoordinated composition: one SEEC instance per actuator per
    /// app.
    Uncoordinated,
    /// One solo SEEC runtime per app, no cross-application arbitration.
    PerAppSeec,
    /// One coordinator arbitrating every app.
    Flat(Box<Coordinator>),
    /// A datacenter arbiter over per-rack coordinators; each app registers
    /// with the coordinator of its tagged rack.
    Racks(DatacenterArbiter),
}

impl Platform {
    /// A coordinator sharding on the process-wide pool the cell already runs
    /// on (nested dispatch degrades gracefully; no thread is spawned).
    pub(crate) fn coordinator(budget: f64, policy: Box<dyn ArbitrationPolicy>) -> Coordinator {
        Coordinator::new(budget, policy).with_pool(Arc::clone(exec::global_pool_arc()))
    }

    /// A flat platform over one pooled [`Self::coordinator`].
    pub(crate) fn flat(budget: f64, policy: Box<dyn ArbitrationPolicy>) -> Self {
        Platform::Flat(Box::new(Platform::coordinator(budget, policy)))
    }

    /// A datacenter arbiter over `racks` racks named `rack-{i}`. The
    /// datacenter and every rack coordinator get their own `policy()`;
    /// `rack` finishes each rack from its pooled coordinator.
    pub(crate) fn racks(
        budget: f64,
        racks: usize,
        policy: impl Fn() -> Box<dyn ArbitrationPolicy>,
        rack: impl Fn(String, Coordinator) -> RackCoordinator,
    ) -> Self {
        let mut datacenter = DatacenterArbiter::new(budget, policy());
        for index in 0..racks {
            datacenter.add_rack(rack(
                format!("rack-{index}"),
                Platform::coordinator(budget, policy()),
            ));
        }
        Platform::Racks(datacenter)
    }

    /// The coordinator an app on `rack` registers with, if any.
    fn coordinator_mut(&mut self, rack: usize) -> Option<&mut Coordinator> {
        match self {
            Platform::Flat(coordinator) => Some(coordinator.as_mut()),
            Platform::Racks(datacenter) => Some(datacenter.rack_mut(rack).coordinator_mut()),
            Platform::Fixed | Platform::Uncoordinated | Platform::PerAppSeec => None,
        }
    }

    /// The managed app behind `handle`, registered on `rack`.
    pub(crate) fn app(&self, rack: usize, handle: AppHandle) -> &ManagedApp {
        match self {
            Platform::Flat(coordinator) => coordinator.app(handle),
            Platform::Racks(datacenter) => datacenter.rack(rack).coordinator().app(handle),
            _ => unreachable!("only coordinated platforms hand out handles"),
        }
    }

    /// Arbitrates scenario quantum `quantum` under `cap` at time `now`,
    /// then shows `hook` the result.
    fn arbitrate(
        &mut self,
        (quantum, cap, now): (usize, f64, f64),
        apps: &[AppSim],
        slots: &[Slot],
        hook: &mut Option<Hook<'_>>,
    ) {
        let awarded_watts_total = match self {
            Platform::Flat(coordinator) => {
                if cap != coordinator.budget_watts() {
                    coordinator.set_budget(cap);
                }
                let summary = coordinator.step(now).expect("every app declares a goal");
                Some(summary.awarded_watts_total)
            }
            Platform::Racks(datacenter) => {
                if cap != datacenter.budget_watts() {
                    datacenter.set_budget(cap);
                }
                let summary = datacenter.step(now).expect("every app declares a goal");
                Some(summary.rack_awarded_watts_total)
            }
            Platform::Fixed | Platform::Uncoordinated | Platform::PerAppSeec => None,
        };
        if let Some(hook) = hook {
            hook(&Stepped {
                quantum,
                awarded_watts_total,
                platform: self,
                apps,
                slots,
            });
        }
    }

    /// Worst per-rack fraction of time spent above the rack's awarded
    /// envelope (0.0 without racks).
    pub(crate) fn worst_rack_violation_rate(&self) -> f64 {
        match self {
            Platform::Racks(datacenter) => datacenter
                .racks()
                .iter()
                .map(|rack| rack.meter().violation_rate())
                .fold(0.0, f64::max),
            _ => 0.0,
        }
    }
}

/// One app's decision state during a run.
pub(crate) enum Slot {
    Fixed,
    Uncoordinated(Box<UncoordinatedRuntime>, HeartbeatedWorkload),
    Solo(Box<SeecRuntime>, HeartbeatedWorkload),
    /// Lives in the platform's coordinator: the handle appears at the app's
    /// arrival quantum (the runtime lifecycle, not an up-front fleet).
    Managed(Option<AppHandle>),
    /// Refused by the coordinator's admission feasibility check: the app
    /// never launches, draws nothing and accrues no residency.
    Refused,
}

/// What the per-quantum hook sees, right after the platform arbitrated.
pub(crate) struct Stepped<'a> {
    /// The scenario quantum.
    pub(crate) quantum: usize,
    /// The platform's top-level awarded total — the flat fleet's, or the
    /// datacenter's across rack envelopes; `None` without arbitration.
    pub(crate) awarded_watts_total: Option<f64>,
    pub(crate) platform: &'a Platform,
    pub(crate) apps: &'a [AppSim],
    pub(crate) slots: &'a [Slot],
}

/// A read-only observer called once per quantum, right after arbitration.
pub(crate) type Hook<'h> = &'h mut dyn FnMut(&Stepped<'_>);

/// One scenario, one layout, one seed: the run before its platform is
/// chosen. [`Self::apps`] is available up front so callers can derive
/// platform settings from the fleet (the chaos watchdog's floor).
pub(crate) struct ScenarioRun<'a> {
    server: &'a XeonServer,
    scenario: &'a Scenario,
    layout: Layout,
    seed: u64,
    apps: Vec<AppSim>,
    started: Instant,
}

/// What a finished run leaves behind.
pub(crate) struct ScenarioEnd {
    pub(crate) apps: Vec<AppSim>,
    pub(crate) slots: Vec<Slot>,
    pub(crate) meter: MachineMeter,
    pub(crate) platform: Platform,
    /// Successful registrations and retirements.
    pub(crate) arrivals: u64,
    pub(crate) departures: u64,
    /// Mean over apps of `min(rate/target, 1)`.
    pub(crate) goal_attainment: f64,
    /// `Σ_apps min(rate/target, 1)` over mean power above idle, in 1/W.
    pub(crate) performance_per_watt: f64,
    pub(crate) runtime: RuntimeBlock,
}

impl ScenarioEnd {
    /// The machine-level summary under `name`.
    pub(crate) fn arm_outcome(&self, name: &str) -> ArmOutcome {
        ArmOutcome {
            name: name.to_string(),
            performance_per_watt: self.performance_per_watt,
            goal_attainment: self.goal_attainment,
            cap_violation_rate: self.meter.violation_rate(),
            mean_power_watts: self.meter.mean_watts(),
            peak_power_watts: self.meter.peak_watts(),
            runtime: self.runtime.clone(),
        }
    }
}

impl<'a> ScenarioRun<'a> {
    pub(crate) fn new(
        server: &'a XeonServer,
        scenario: &'a Scenario,
        layout: Layout,
        seed: u64,
    ) -> Self {
        ScenarioRun {
            started: Instant::now(),
            apps: build_apps(server, scenario),
            server,
            scenario,
            layout,
            seed,
        }
    }

    pub(crate) fn apps(&self) -> &[AppSim] {
        &self.apps
    }

    pub(crate) fn budget_watts(&self) -> f64 {
        self.layout.budget_watts(self.server, self.scenario)
    }

    /// Runs every quantum under `platform`. When `observer` is attached the
    /// platform streams its telemetry through it and the run counts meter
    /// violations and the fleet gauge; `hook` sees the run after every
    /// arbitration. Neither can perturb the simulation.
    pub(crate) fn run(
        self,
        mut platform: Platform,
        observer: Option<&Arc<Recorder>>,
        mut hook: Option<Hook<'_>>,
    ) -> ScenarioEnd {
        let (server, scenario, layout, seed) = (self.server, self.scenario, self.layout, self.seed);
        let mut apps = self.apps;
        // Full-load power above idle across the layout: the scenario's
        // budget fractions scale this.
        let range = (server.max_power_watts() - server.idle_power_watts())
            * layout.machines(scenario) as f64;
        let mut meter = MachineMeter::new(layout.budget_watts(server, scenario));
        let mut faults = FaultRuntime::for_plan(&scenario.fault_plan, apps.len());
        if let Some(observer) = observer {
            match &mut platform {
                Platform::Flat(coordinator) => coordinator.set_obs(Some(Arc::clone(observer))),
                Platform::Racks(datacenter) => datacenter.set_obs(Some(Arc::clone(observer))),
                Platform::Fixed | Platform::Uncoordinated | Platform::PerAppSeec => {}
            }
        }
        let mut slots: Vec<Slot> = apps
            .iter()
            .enumerate()
            .map(|(index, sim)| match platform {
                Platform::Fixed => Slot::Fixed,
                Platform::Uncoordinated => {
                    let driver = heartbeated(sim);
                    let runtime = UncoordinatedRuntime::new_with(
                        &driver.monitor(),
                        xeon_actuators(server),
                        seed.wrapping_add(index as u64),
                        |builder| convex_protocol(builder, ConvexTuning::default()),
                    )
                    .expect("actuators registered");
                    Slot::Uncoordinated(Box::new(runtime), driver)
                }
                Platform::PerAppSeec => {
                    let driver = heartbeated(sim);
                    Slot::Solo(Box::new(solo_runtime(server, &driver, seed, index)), driver)
                }
                Platform::Flat(_) | Platform::Racks(_) => Slot::Managed(None),
            })
            .collect();

        let (mut arrivals, mut departures, mut peak_fleet) = (0u64, 0u64, 0u64);
        let mut now = 0.0;
        let mut per_app_power = vec![0.0f64; apps.len()];
        let mut rates = vec![0.0f64; apps.len()];
        // Core duty per machine, turned in place into its contention factor.
        let mut contention = vec![0.0f64; layout.machines(scenario)];
        for quantum in 0..scenario.quanta {
            let start = now;
            now += QUANTUM_SECONDS;

            // ---- Lifecycle: the meter adopts the cap in force this
            // quantum; arrivals register, departures retire.
            let cap = scenario.budget_fraction_at(quantum) * range;
            if cap != meter.cap_watts() {
                meter.set_cap(cap);
            }
            for (index, sim) in apps.iter().enumerate() {
                let Some(coordinator) = platform.coordinator_mut(sim.spec.rack) else {
                    break;
                };
                // A degenerate window (departure ≤ arrival) means the app is
                // never active; registering it would leave a phantom in the
                // coordinator with no departure ever stamped.
                let never_active = sim.spec.departure.is_some_and(|d| d <= sim.spec.arrival);
                if sim.spec.arrival == quantum && !never_active {
                    let managed = managed_for(server, sim, seed, index);
                    slots[index] = match coordinator.try_register(managed) {
                        Ok(handle) => {
                            arrivals += 1;
                            Slot::Managed(Some(handle))
                        }
                        Err(_) => Slot::Refused,
                    };
                }
                if sim.spec.departure == Some(quantum) {
                    if let Slot::Managed(Some(handle)) = slots[index] {
                        coordinator.retire(handle);
                        departures += 1;
                    }
                }
            }
            if layout == Layout::Racks {
                platform.arbitrate((quantum, cap, start), &apps, &slots, &mut hook);
            }

            // ---- Evaluate every resident app under its configuration.
            contention.fill(0.0);
            let mut active_count: u64 = 0;
            for (index, sim) in apps.iter().enumerate() {
                per_app_power[index] = 0.0;
                rates[index] = 0.0;
                if !sim.active_at(quantum) || matches!(slots[index], Slot::Refused) {
                    continue;
                }
                active_count += 1;
                if !faults.executes(index, quantum) {
                    continue; // crashed: no cycles, no watts
                }
                let configuration = match &slots[index] {
                    Slot::Fixed => server.default_configuration(),
                    Slot::Uncoordinated(runtime, _) => {
                        map_configuration(server, &runtime.joint_configuration())
                    }
                    Slot::Solo(runtime, _) => {
                        map_configuration(server, runtime.current_configuration())
                    }
                    Slot::Managed(handle) => {
                        let handle = handle.expect("active apps have registered");
                        let app = platform.app(sim.spec.rack, handle);
                        map_configuration(server, app.runtime().current_configuration())
                    }
                    Slot::Refused => unreachable!("refused apps never launch"),
                };
                let report =
                    server.evaluate(&to_server_demand(sim.phase_at(quantum)), &configuration);
                rates[index] = report.work_units / report.seconds;
                per_app_power[index] = report.power_above_idle_watts;
                contention[layout.machine_of(&sim.spec)] +=
                    configuration.cores as f64 * configuration.active_cycle_fraction;
            }

            // ---- Time-multiplex each oversubscribed machine: delivered
            // cycles (work and dynamic power alike) scale down together.
            // Cores contend within a machine, never across machines.
            let cores = server.total_cores() as f64;
            for factor in &mut contention {
                *factor = if *factor > cores {
                    cores / *factor
                } else {
                    1.0
                };
            }

            // ---- Account physical truth, then feed the platform the
            // (possibly faulty) report.
            let mut machine_power = 0.0;
            for (index, sim) in apps.iter_mut().enumerate() {
                if !sim.active_at(quantum) || matches!(slots[index], Slot::Refused) {
                    continue;
                }
                let rack = sim.spec.rack;
                let factor = contention[layout.machine_of(&sim.spec)];
                let mut work = rates[index] * factor * QUANTUM_SECONDS;
                let mut power = per_app_power[index] * factor;
                // The rack boundary is the physical metering (and, under
                // Clamp, enforcement) point: it sees the rail, not the app's
                // claim, so it admits the draw before anything else does.
                if let (Platform::Racks(datacenter), Slot::Managed(Some(_))) =
                    (&mut platform, &slots[index])
                {
                    (work, power) = datacenter.rack_mut(rack).admit(start, now, work, power);
                }
                machine_power += power;
                sim.active_seconds += QUANTUM_SECONDS;
                sim.work_done += work;
                let Some((reported_work, reported_power)) =
                    faults.report(index, quantum, work, power)
                else {
                    continue; // stalled pipe or dead app: nothing arrives
                };
                match &mut slots[index] {
                    Slot::Uncoordinated(_, driver) | Slot::Solo(_, driver) => {
                        driver.advance_metered(start, now, reported_work, reported_power);
                    }
                    Slot::Managed(handle) => {
                        let handle = handle.expect("active apps have registered");
                        platform
                            .coordinator_mut(rack)
                            .expect("managed apps live on a coordinated platform")
                            .advance(handle, start, now, reported_work, reported_power);
                    }
                    Slot::Fixed | Slot::Refused => {}
                }
            }

            // ---- Meter.
            peak_fleet = peak_fleet.max(active_count);
            let violations_before = meter.violation_intervals();
            meter.record(QUANTUM_SECONDS, machine_power);
            if let Some(observer) = observer {
                observer.observe_fleet_size(active_count);
                observer.add(
                    layout.meter_counter(),
                    meter.violation_intervals() - violations_before,
                );
            }

            // ---- Arbitrate for the next quantum: the envelopes decided
            // now govern the next interval, so the platform adopts the
            // budget in force there — a budget step binds with no lag.
            if layout == Layout::Machine {
                let next_cap = scenario.budget_fraction_at(quantum + 1) * range;
                platform.arbitrate((quantum, next_cap, now), &apps, &slots, &mut hook);
            }

            // ---- Apps without arbitration decide for the next quantum.
            for (index, sim) in apps.iter().enumerate() {
                if !sim.active_at(quantum) {
                    continue;
                }
                match &mut slots[index] {
                    Slot::Uncoordinated(runtime, _) => {
                        runtime.decide(now).expect("goal declared");
                    }
                    Slot::Solo(runtime, _) => {
                        runtime.decide(now).expect("goal declared");
                    }
                    Slot::Fixed | Slot::Managed(_) | Slot::Refused => {}
                }
            }
        }

        let attained: f64 = apps.iter().map(AppSim::attainment).sum();
        let mean_power = meter.mean_watts();
        ScenarioEnd {
            goal_attainment: attained / apps.len().max(1) as f64,
            performance_per_watt: if mean_power > 0.0 {
                attained / mean_power
            } else {
                0.0
            },
            runtime: RuntimeBlock::measure(self.started, scenario.quanta, peak_fleet),
            apps,
            slots,
            meter,
            platform,
            arrivals,
            departures,
        }
    }
}

/// Builds the [`ManagedApp`] a coordinated platform registers for `sim` at
/// its arrival quantum.
fn managed_for(server: &XeonServer, sim: &AppSim, seed: u64, index: usize) -> ManagedApp {
    let driver = heartbeated(sim);
    let runtime = solo_runtime(server, &driver, seed, index);
    ManagedApp::new(driver, runtime)
        .with_weight(sim.spec.weight)
        .with_nominal_power_hint(sim.launch_power_watts)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ScenarioEnd {
        /// Everything the run settled, as bits: the machine summary, each
        /// app's physical accumulators, the lifecycle counts, and the
        /// platform's final awards.
        pub(crate) fn fingerprint(&self) -> (ArmOutcome, Vec<u64>, (u64, u64), Vec<u64>) {
            let apps = self
                .apps
                .iter()
                .flat_map(|sim| [sim.work_done.to_bits(), sim.active_seconds.to_bits()])
                .collect();
            let awards: Vec<f64> = match &self.platform {
                Platform::Flat(coordinator) => coordinator.awards().to_vec(),
                Platform::Racks(datacenter) => datacenter
                    .racks()
                    .iter()
                    .flat_map(|rack| rack.coordinator().awards().iter().copied())
                    .chain(datacenter.rack_awards().iter().copied())
                    .collect(),
                _ => Vec::new(),
            };
            (
                self.arm_outcome("run").canonical(),
                apps,
                (self.arrivals, self.departures),
                awards.iter().map(|watts| watts.to_bits()).collect(),
            )
        }
    }

    /// On one rack the two layouts are the same machine: budget ×1, one
    /// contention group. With no arbitration their timing cannot differ
    /// either, so an uncoordinated run — faults and all — must agree bit
    /// for bit.
    #[test]
    fn one_rack_layouts_agree_bit_for_bit() {
        let server = XeonServer::dell_r410_calibrated();
        // fault-storm: one rack, every fault kind.
        let scenario = workloads::chaos_mixes(2012).swap_remove(0);
        assert_eq!(scenario.rack_count(), 1);
        assert!(!scenario.fault_plan.is_empty());
        assert_eq!(
            Layout::Machine.budget_watts(&server, &scenario).to_bits(),
            Layout::Racks.budget_watts(&server, &scenario).to_bits()
        );
        let run = |layout| {
            ScenarioRun::new(&server, &scenario, layout, 7).run(Platform::Uncoordinated, None, None)
        };
        let (machine, racks) = (run(Layout::Machine), run(Layout::Racks));
        assert!(machine.goal_attainment > 0.0);
        assert_eq!(machine.fingerprint(), racks.fingerprint());
    }
}
