//! Quickstart: close the observe–decide–act loop around one application.
//!
//! A synthetic `barnes` workload runs on the modelled Xeon server, requests
//! half of its maximum achievable performance through the heartbeat API, and
//! SEEC meets that goal while minimising power using the paper's three
//! actions (cores, clock speed, idle cycles).
//!
//! Run with: `cargo run --example quickstart`

use angstrom_seec::experiments::driver::to_server_demand;
use angstrom_seec::experiments::fig3::{map_configuration, xeon_actuators};
use angstrom_seec::prelude::*;
use angstrom_seec::seec::SeecRuntime;

fn main() {
    let server = XeonServer::dell_r410();
    let workload = Workload::new(SplashBenchmark::Barnes, 42);
    let quanta = workload.quanta(60);

    // Measure the maximum achievable heart rate, then ask for half of it.
    let default_cfg = server.default_configuration();
    let mut max_rate_time = 0.0;
    let mut max_rate_work = 0.0;
    for q in &quanta {
        let r = server.evaluate(&to_server_demand(q), &default_cfg);
        max_rate_time += r.seconds;
        max_rate_work += r.work_units;
    }
    let target = 0.5 * max_rate_work / max_rate_time;

    // Instrument the application and build the SEEC runtime.
    let mut app = HeartbeatedWorkload::new(workload);
    app.set_heart_rate_goal(target);
    let mut runtime = SeecRuntime::builder(app.monitor())
        .actuators(xeon_actuators(&server))
        .build()
        .expect("actuators registered");

    println!("target heart rate: {target:.1} beats/s\n");
    println!("quantum  cores  pstate  duty  heart_rate  power_above_idle");

    let monitor = app.monitor();
    let mut now = 0.0;
    for (i, quantum) in quanta.iter().enumerate() {
        let cfg = map_configuration(&server, runtime.current_configuration());
        let report = server.evaluate(&to_server_demand(quantum), &cfg);
        now += report.seconds;
        app.advance(now, report.work_units);
        monitor.record_power_sample(now, report.power_above_idle_watts);
        let _ = runtime.decide(now);

        if i % 10 == 0 {
            println!(
                "{:7}  {:5}  {:6}  {:4.1}  {:10.1}  {:16.1}",
                i,
                cfg.cores,
                cfg.pstate_index,
                cfg.active_cycle_fraction,
                monitor.window_heart_rate(),
                report.power_above_idle_watts,
            );
        }
    }

    let achieved = monitor.heart_rate().global;
    println!(
        "\nfinal window heart rate: {:.1} beats/s (target {target:.1})",
        achieved
    );
    println!("decisions taken: {}", runtime.decisions_made());
}
