//! Bit-level pins of the SEEC decision stream.
//!
//! Three closed loops exercise every way a decision is taken: a single
//! runtime's `decide` with exploration on, an uncoordinated bundle of
//! per-actuator runtimes, and a coordinator deciding each app under its
//! awarded envelope against a binding budget (plus one late registration,
//! decided on admission under a zero cap). After every decision each loop
//! folds what the runtime exposes — the decision's fields, the applied
//! configuration id, the nominal rate and power estimates, the applied
//! configuration's believed effect, and the decision count — into an
//! FNV-1a digest. A refactor that changes any selection, RNG draw or
//! estimate by one ulp changes a digest.

use angstrom_seec::coordinator::AppHandle;
use angstrom_seec::experiments::driver::to_server_demand;
use angstrom_seec::experiments::fig3::{map_configuration, xeon_actuators, CONVEX_PROTOCOL_KI};
use angstrom_seec::prelude::*;
use angstrom_seec::seec::control::PiController;
use angstrom_seec::seec::ExplorationPolicy;
use angstrom_seec::workloads::QuantumDemand;

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn flag(&mut self, value: Option<bool>) {
        self.word(match value {
            None => 2,
            Some(flag) => u64::from(flag),
        });
    }

    /// The runtime state every decision leaves behind.
    fn runtime(&mut self, runtime: &SeecRuntime) {
        let id = runtime.current_config_id();
        self.word(u64::from(id.0));
        self.float(runtime.estimated_nominal_rate());
        self.float(runtime.estimated_nominal_power().unwrap_or(-1.0));
        let believed = runtime.model().believed(id);
        self.float(believed.speedup);
        self.float(believed.powerup);
        self.word(runtime.decisions_made());
    }
}

/// A runtime's `decide` closing the loop on the linear Xeon model, with
/// exploration on so the model's random stream is part of the pin.
#[test]
fn the_single_runtime_decision_stream_is_pinned() {
    let server = XeonServer::dell_r410();
    let workload = Workload::new(SplashBenchmark::Barnes, 5);
    let quanta = workload.quanta(120);
    let solo = server.evaluate(
        &to_server_demand(&workload.average_quantum()),
        &server.default_configuration(),
    );
    let mut app = HeartbeatedWorkload::new(workload);
    app.set_heart_rate_goal(0.5 * solo.work_units / solo.seconds);
    let mut runtime = SeecRuntime::builder(app.monitor())
        .actuators(xeon_actuators(&server))
        .exploration(ExplorationPolicy {
            epsilon: 0.2,
            ..ExplorationPolicy::default()
        })
        .seed(17)
        .build()
        .expect("actuators registered");
    let monitor = app.monitor();

    let mut digest = Fnv::new();
    let mut now = 0.0;
    for quantum in &quanta {
        let configuration = map_configuration(&server, runtime.current_configuration());
        let report = server.evaluate(&to_server_demand(quantum), &configuration);
        now += report.seconds;
        app.advance(now, report.work_units);
        monitor.record_power_sample(now, report.power_above_idle_watts);
        let decision = runtime.decide(now).expect("goal registered");
        digest.float(decision.required_speedup);
        digest.flag(decision.goal_met);
        digest.float(decision.estimated_nominal_rate);
        digest.runtime(&runtime);
    }
    assert_eq!(runtime.decisions_made(), 120);
    assert_eq!(
        digest.0, 0x393f_5467_135d_02ef,
        "single-runtime decision stream moved; digest {:#018x}",
        digest.0
    );
}

/// The uncoordinated baseline: one runtime per Xeon actuator, all chasing
/// the same goal.
#[test]
fn the_uncoordinated_decision_stream_is_pinned() {
    let server = XeonServer::dell_r410();
    let workload = Workload::new(SplashBenchmark::OceanNonContiguous, 9);
    let quanta = workload.quanta(80);
    let solo = server.evaluate(
        &to_server_demand(&workload.average_quantum()),
        &server.default_configuration(),
    );
    let mut app = HeartbeatedWorkload::new(workload);
    app.set_heart_rate_goal(0.6 * solo.work_units / solo.seconds);
    let monitor = app.monitor();
    let mut runtime =
        UncoordinatedRuntime::new_with(&monitor, xeon_actuators(&server), 23, |builder| builder)
            .expect("actuators registered");

    let mut digest = Fnv::new();
    let mut now = 0.0;
    for quantum in &quanta {
        let joint = runtime.joint_configuration();
        let configuration = map_configuration(&server, &joint);
        let report = server.evaluate(&to_server_demand(quantum), &configuration);
        now += report.seconds;
        app.advance(now, report.work_units);
        monitor.record_power_sample(now, report.power_above_idle_watts);
        runtime.decide(now).expect("goal registered");
        for &setting in runtime.joint_configuration().settings() {
            digest.word(setting as u64);
        }
        digest.word(runtime.decisions_made());
    }
    assert_eq!(runtime.decisions_made(), 80 * runtime.instances() as u64);
    assert_eq!(
        digest.0, 0x19a3_8997_7d9e_9ea2,
        "uncoordinated decision stream moved; digest {:#018x}",
        digest.0
    );
}

/// A coordinator splitting a binding budget across three calibrated-Xeon
/// apps, each deciding under its envelope with exploration on (so the
/// envelope clamp on exploration steps is part of the pin), with a fourth
/// app registered mid-run under admission control.
#[test]
fn the_power_capped_coordinator_decision_stream_is_pinned() {
    const QUANTA: usize = 60;
    const LATE: usize = 20;
    const DT: f64 = 1.0;
    let server = XeonServer::dell_r410_calibrated();
    let launch = ServerConfiguration::new(1, server.pstates().len() - 1, 1.0);
    let managed = |benchmark: SplashBenchmark, seed: u64| {
        let workload = Workload::new(benchmark, seed);
        let average = to_server_demand(&workload.average_quantum());
        let solo = server.evaluate(&average, &server.default_configuration());
        let target_rate = 0.6 * solo.work_units / solo.seconds;
        let work_per_beat = target_rate * DT / 8.0;
        let launch_watts = server.evaluate(&average, &launch).power_above_idle_watts;
        let phases = workload.quanta(QUANTA);
        let driver = HeartbeatedWorkload::with_work_per_beat(workload, work_per_beat);
        driver.set_heart_rate_goal(target_rate / work_per_beat);
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(xeon_actuators(&server))
            .anchored_estimation(true)
            .controller(PiController::new(1.0, CONVEX_PROTOCOL_KI, 1.0 / 64.0, 64.0))
            .exploration(ExplorationPolicy {
                epsilon: 0.3,
                ..ExplorationPolicy::default()
            })
            .seed(seed)
            .build()
            .expect("actuators registered");
        let app = ManagedApp::new(driver, runtime).with_nominal_power_hint(launch_watts);
        (app, phases)
    };

    let mut coordinator =
        Coordinator::new(30.0, Box::new(PerformanceMarket::default())).with_admission_control(true);
    // Each app's demand phases, indexed by the shared quantum (the late
    // arrival included: it joins its phase cycle mid-stream).
    let mut handles: Vec<(AppHandle, Vec<QuantumDemand>)> = [
        (SplashBenchmark::OceanNonContiguous, 3),
        (SplashBenchmark::Barnes, 4),
        (SplashBenchmark::Volrend, 5),
    ]
    .into_iter()
    .map(|(benchmark, seed)| {
        let (app, phases) = managed(benchmark, seed);
        (coordinator.register(app), phases)
    })
    .collect();

    let mut digest = Fnv::new();
    let mut now = 0.0;
    for quantum in 0..QUANTA {
        if quantum == LATE {
            let (app, phases) = managed(SplashBenchmark::WaterSpatial, 6);
            let handle = coordinator.register(app);
            digest.runtime(coordinator.app(handle).runtime());
            handles.push((handle, phases));
        }
        let start = now;
        now += DT;
        for (handle, phases) in &handles {
            let handle = *handle;
            let app = coordinator.app(handle);
            let demand = &phases[quantum % phases.len()];
            let configuration = map_configuration(&server, app.runtime().current_configuration());
            let report = server.evaluate(&to_server_demand(demand), &configuration);
            let work = report.work_units / report.seconds * DT;
            coordinator.advance(handle, start, now, work, report.power_above_idle_watts);
        }
        coordinator.step(now).expect("goals registered");
        for &(handle, _) in &handles {
            let app = coordinator.app(handle);
            if let Some(decision) = app.last_decision() {
                digest.word(u64::from(decision.configuration.0));
                digest.float(decision.required_speedup);
                digest.flag(decision.goal_met);
                digest.float(decision.estimated_nominal_rate);
                digest.float(decision.believed_speedup);
                digest.float(decision.believed_powerup);
            }
            digest.float(app.awarded_watts());
            digest.runtime(app.runtime());
        }
    }
    let awarded: f64 = handles
        .iter()
        .map(|(h, _)| coordinator.app(*h).awarded_watts())
        .sum();
    assert!(
        awarded <= 30.0 + 1e-9,
        "awards {awarded} W exceed the budget"
    );
    assert_eq!(
        digest.0, 0xa148_0c12_9fe2_de42,
        "coordinator decision stream moved; digest {:#018x}",
        digest.0
    );
}
