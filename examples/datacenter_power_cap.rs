//! A power-capped server shared by several applications.
//!
//! The paper's introduction motivates SEEC with systems that must balance
//! performance against competing goals like power efficiency — and its
//! platform vision (§2) has *many* self-aware applications sharing one
//! machine. This example runs three SPLASH-2 workloads concurrently on the
//! calibrated Xeon server model under a machine-level power cap: a
//! [`Coordinator`] arbitrates the cap across the applications every quantum
//! (performance-market policy), each application's SEEC runtime decides
//! under its awarded envelope, and a [`MachineMeter`] audits whether the
//! machine ever exceeded the budget. The uncapped flat-out alternative is
//! shown for comparison.
//!
//! Run with: `cargo run --release --example datacenter_power_cap`

use angstrom_seec::experiments::driver::to_server_demand;
use angstrom_seec::experiments::fig3::{map_configuration, xeon_actuators, CONVEX_PROTOCOL_KI};
use angstrom_seec::prelude::*;
use angstrom_seec::seec::control::PiController;

const QUANTA: usize = 60;
const DT: f64 = 1.0;
const CAP_WATTS: f64 = 55.0;

fn main() {
    let server = XeonServer::dell_r410_calibrated();
    let mixes = [
        (SplashBenchmark::OceanNonContiguous, 2.0),
        (SplashBenchmark::Barnes, 1.0),
        (SplashBenchmark::Volrend, 1.0),
    ];

    let mut coordinator = Coordinator::new(CAP_WATTS, Box::new(PerformanceMarket::default()));
    let mut targets = Vec::new();
    // Each app's handle and its demand phases, one per quantum.
    let mut apps = Vec::new();
    let mut flat_out_watts = 0.0;
    for (index, &(benchmark, weight)) in mixes.iter().enumerate() {
        let workload = Workload::new(benchmark, 7 + index as u64);
        let average = to_server_demand(&workload.average_quantum());
        let solo = server.evaluate(&average, &server.default_configuration());
        let target_rate = 0.5 * solo.work_units / solo.seconds;
        let work_per_beat = target_rate * DT / 8.0;
        let launch = ServerConfiguration::new(1, server.pstates().len() - 1, 1.0);
        let launch_watts = server.evaluate(&average, &launch).power_above_idle_watts;
        flat_out_watts += solo.power_above_idle_watts;

        let phases = workload.quanta(QUANTA);
        let driver = HeartbeatedWorkload::with_work_per_beat(workload, work_per_beat);
        driver.set_heart_rate_goal(target_rate / work_per_beat);
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(xeon_actuators(&server))
            .anchored_estimation(true)
            .controller(PiController::new(1.0, CONVEX_PROTOCOL_KI, 1.0 / 64.0, 64.0))
            .seed(7 + index as u64)
            .build()
            .expect("actuators registered");
        let handle = coordinator.register(
            angstrom_seec::coordinator::ManagedApp::new(driver, runtime)
                .with_weight(weight)
                .with_nominal_power_hint(launch_watts),
        );
        apps.push((handle, phases));
        targets.push(target_rate);
    }

    let mut meter = MachineMeter::new(CAP_WATTS);
    let mut work_done = vec![0.0f64; apps.len()];
    let mut now = 0.0;
    for quantum in 0..QUANTA {
        let start = now;
        now += DT;
        let mut machine_watts = 0.0;
        for (index, (handle, phases)) in apps.iter().enumerate() {
            let (handle, demand) = (*handle, &phases[quantum]);
            let configuration = map_configuration(
                &server,
                coordinator.app(handle).runtime().current_configuration(),
            );
            let report = server.evaluate(&to_server_demand(demand), &configuration);
            let work = report.work_units / report.seconds * DT;
            coordinator.advance(handle, start, now, work, report.power_above_idle_watts);
            work_done[index] += work;
            machine_watts += report.power_above_idle_watts;
        }
        meter.record(DT, machine_watts);
        coordinator.step(now).expect("goals registered");
    }

    println!(
        "machine cap: {CAP_WATTS:.0} W above idle  (flat out would draw {flat_out_watts:.0} W)"
    );
    println!("policy: {}\n", coordinator.policy_name());
    println!("app        weight  target b/s  achieved b/s  award W  attainment");
    for (index, &(handle, _)) in apps.iter().enumerate() {
        let app = coordinator.app(handle);
        let achieved = work_done[index] / (QUANTA as f64 * DT);
        println!(
            "{:9}  {:6.1}  {:10.1}  {:12.1}  {:7.1}  {:9.0}%",
            app.name(),
            app.weight(),
            targets[index],
            achieved,
            app.awarded_watts(),
            (achieved / targets[index]).min(1.0) * 100.0,
        );
    }
    println!(
        "\nmachine: mean {:.1} W, peak {:.1} W, cap violations {:.1}% of time",
        meter.mean_watts(),
        meter.peak_watts(),
        meter.violation_rate() * 100.0,
    );
    assert!(
        !meter.violated(),
        "the coordinator must keep the machine under its power cap"
    );
}
