//! A video encoder with a frames-per-second goal on the Angstrom chip.
//!
//! The paper's motivating example (§1) is a video encoder that should run at
//! thirty frames per second: the application states the goal, the hardware
//! exposes its adaptations, and SEEC keeps the encoder at 30 fps while using
//! as little power as the chip allows. Here the "encoder" is a synthetic
//! workload whose heartbeat is one frame, running on the 256-core Angstrom
//! model with core-allocation, cache, and DVFS actions.
//!
//! Run with: `cargo run --example video_encoder_qos`

use actuation_helpers::angstrom_actuators;
use angstrom_seec::actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
use angstrom_seec::angstrom_sim::chip::{AngstromChip, ChipConfiguration};
use angstrom_seec::angstrom_sim::config::ChipConfig;
use angstrom_seec::angstrom_sim::workload::WorkloadDemand;
use angstrom_seec::heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal};
use angstrom_seec::seec::SeecRuntime;

fn main() {
    let mut chip = AngstromChip::new(ChipConfig::angstrom_256());
    let registry = HeartbeatRegistry::new("video-encoder");
    registry
        .issuer()
        .set_goal(Goal::Performance(PerformanceGoal::heart_rate(30.0)));

    let mut runtime = SeecRuntime::builder(registry.monitor())
        .actuators(angstrom_actuators(chip.config()))
        .build()
        .expect("actuators registered");

    // One frame of encoding work: ~40 M instructions, mostly parallel.
    let frame = WorkloadDemand::builder()
        .instructions(4.0e7)
        .parallel_fraction(0.97)
        .memory_ops_per_instruction(0.3)
        .working_set_bytes(12.0 * 1024.0 * 1024.0)
        .work_units(1.0)
        .build();

    println!("goal: 30 frames/s\n");
    println!("second  cores  cache_kb  v/f  fps(window)  chip_power_w");

    let issuer = registry.issuer();
    let monitor = registry.monitor();
    let mut now = 0.0;
    let mut frames = 0u64;
    let mut last_report_power = 0.0;
    for second in 0..20 {
        // Encode frames for roughly one second of simulated time under the
        // configuration SEEC currently has applied.
        let config = map_to_chip(chip.config(), runtime.current_configuration());
        let second_end = now + 1.0;
        while now < second_end {
            let report = chip.execute(&frame, &config);
            now = chip.now();
            frames += 1;
            issuer.heartbeat(now);
            last_report_power = report.average_power_watts;
        }
        monitor.record_power_sample(now, last_report_power);
        let _ = runtime.decide(now);

        println!(
            "{:6}  {:5}  {:8.0}  {:3}  {:11.1}  {:12.3}",
            second,
            config.cores,
            config.cache_per_core_kb,
            config.operating_point_index,
            monitor.window_heart_rate(),
            last_report_power,
        );
    }
    println!("\nencoded {frames} frames in {:.1} simulated seconds", now);
}

/// Maps a SEEC joint configuration onto the chip configuration type.
fn map_to_chip(
    config: &ChipConfig,
    joint: &angstrom_seec::actuation::Configuration,
) -> ChipConfiguration {
    let cores = config.core_allocation_options[joint.setting(0).unwrap_or(0)];
    let cache = config.cache_capacity_options_kb[joint.setting(1).unwrap_or(0)];
    let op = joint
        .setting(2)
        .unwrap_or(config.operating_points.len() - 1);
    ChipConfiguration {
        cores,
        cache_per_core_kb: cache,
        operating_point_index: op,
        coherence: config.coherence,
        noc_features: None,
        decision_placement: config.decision_placement,
    }
}

/// Builds SEEC actuator descriptions for the Angstrom chip's knobs.
mod actuation_helpers {
    use super::*;
    use angstrom_seec::actuation::Actuator;

    /// One actuator per Angstrom adaptation: core allocation, cache capacity,
    /// and the voltage/frequency point, with naive declared effects that the
    /// SEEC model corrects online.
    pub(super) fn angstrom_actuators(config: &ChipConfig) -> Vec<Box<dyn Actuator>> {
        let mut cores =
            ActuatorSpec::builder("cores").scope(angstrom_seec::actuation::Scope::Global);
        let min_cores = config.core_allocation_options[0] as f64;
        for &n in &config.core_allocation_options {
            cores = cores.setting(
                SettingSpec::new(format!("{n} cores"))
                    .effect(Axis::Performance, n as f64 / min_cores)
                    .effect(Axis::Power, n as f64 / min_cores),
            );
        }
        let cores = cores.nominal(0).build().expect("valid spec");

        let mut cache = ActuatorSpec::builder("cache");
        let min_cache = config.cache_capacity_options_kb[0];
        for &kb in &config.cache_capacity_options_kb {
            cache = cache.setting(
                SettingSpec::new(format!("{kb} KB"))
                    .effect(Axis::Performance, 1.0 + 0.05 * (kb / min_cache - 1.0))
                    .effect(Axis::Power, 1.0 + 0.1 * (kb / min_cache - 1.0)),
            );
        }
        let cache = cache.nominal(0).build().expect("valid spec");

        let mut dvfs = ActuatorSpec::builder("dvfs").scope(angstrom_seec::actuation::Scope::Global);
        let min_freq = config.operating_points[0].frequency;
        for point in &config.operating_points {
            let ratio = point.frequency / min_freq;
            dvfs = dvfs.setting(
                SettingSpec::new(format!("{point}"))
                    .effect(Axis::Performance, ratio)
                    .effect(
                        Axis::Power,
                        ratio * (point.voltage / config.operating_points[0].voltage).powi(2),
                    ),
            );
        }
        let dvfs = dvfs.nominal(0).build().expect("valid spec");

        vec![
            Box::new(TableActuator::new(cores)),
            Box::new(TableActuator::new(cache)),
            Box::new(TableActuator::new(dvfs)),
        ]
    }
}
