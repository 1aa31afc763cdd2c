//! Telemetry passivity pins: observation must never perturb results.
//!
//! The `obs` crate's recorder threads through the coordinator's step
//! pipeline, so the one property the whole layer stands on is that
//! attaching a recorder changes *nothing* about what the stack computes —
//! at any worker count (sequential and sharded steps must agree), and
//! under fault plans (the chaos pipeline exercises quarantine ladders,
//! envelope clamps, and breaker enforcement, all of which emit events).
//! These properties drive the real pipelines end to end; the unit-level
//! equivalents (histogram bucket counts vs. a naive recompute, merge
//! associativity) live in `crates/obs`.
//!
//! The file also pins the decide-counter *ledger*: every active
//! app-quantum lands in exactly one of `apps_skipped`,
//! `apps_rearbitrated`, or `apps_decided` — at tolerance 0 (the full
//! fold) and at a positive tolerance. The engine's own four-way ledger at
//! fleet scale is pinned beside the engine, in
//! `crates/coordinator/src/incremental.rs`.

use std::sync::Arc;

use coordinator::{Coordinator, ManagedApp, PerformanceMarket};
use exec::ExecPool;
use obs::{Counter, Recorder};
use proptest::prelude::*;
use seec::SeecRuntime;
use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};
use xeon_sim::XeonServer;

/// Steps a small fleet for `quanta` quanta and returns the exact
/// `StepSummary` sequence (as `Debug` strings — the summary is plain
/// `Copy` data, so this is a faithful byte-level transcript).
fn drive(apps: usize, workers: usize, quanta: usize, observe: bool) -> Vec<String> {
    let server = XeonServer::dell_r410_calibrated();
    // Threshold 0: even tiny fleets go through the sharded path, so a
    // worker count > 1 genuinely exercises the pool.
    let mut coordinator = Coordinator::new(120.0, Box::new(PerformanceMarket::default()))
        .with_pool(Arc::new(ExecPool::new(workers)))
        .with_shard_threshold(0);
    if observe {
        coordinator.set_obs(Some(Arc::new(Recorder::in_memory())));
    }
    let mut handles = Vec::with_capacity(apps);
    for index in 0..apps {
        let workload = Workload::new(
            SplashBenchmark::ALL[index % SplashBenchmark::ALL.len()],
            index as u64,
        );
        let driver = HeartbeatedWorkload::new(workload);
        driver.set_heart_rate_goal(20.0 + index as f64);
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(experiments::fig3::xeon_actuators(&server))
            .seed(index as u64)
            .build()
            .expect("actuators registered");
        handles.push(
            coordinator.register(
                ManagedApp::new(driver, runtime)
                    .with_weight(1.0 + (index % 3) as f64)
                    .with_nominal_power_hint(6.0),
            ),
        );
    }
    let mut now = 0.0;
    let mut transcript = Vec::with_capacity(quanta);
    for _ in 0..quanta {
        now += 0.1;
        for &handle in &handles {
            coordinator.advance(handle, now - 0.1, now, 2.0, 5.0);
        }
        let summary = coordinator.step(now).expect("goals registered");
        transcript.push(format!("{summary:?}"));
    }
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Attaching a recorder leaves the coordinator's step summaries
    /// byte-identical at any worker count, and every worker count agrees
    /// with the sequential reference.
    #[test]
    fn telemetry_is_passive_at_any_worker_count(
        apps in 1usize..8,
        workers in 1usize..5,
        quanta in 2usize..8,
    ) {
        let reference = drive(apps, 1, quanta, false);
        let sharded = drive(apps, workers, quanta, false);
        prop_assert_eq!(&reference, &sharded);
        let observed = drive(apps, workers, quanta, true);
        prop_assert_eq!(&reference, &observed);
    }
}

/// Steps a fleet of always-active apps under a recorder at the given
/// arbitration tolerance and returns the (skipped, rearbitrated, decided)
/// counter triple.
fn drive_counted(apps: usize, quanta: usize, tolerance: f64) -> (u64, u64, u64) {
    let server = XeonServer::dell_r410_calibrated();
    let recorder = Arc::new(Recorder::in_memory());
    let mut coordinator = Coordinator::new(120.0, Box::new(PerformanceMarket::default()))
        .with_arbitration_tolerance(tolerance)
        .with_obs(Arc::clone(&recorder));
    let mut handles = Vec::with_capacity(apps);
    for index in 0..apps {
        let workload = Workload::new(
            SplashBenchmark::ALL[index % SplashBenchmark::ALL.len()],
            index as u64,
        );
        let driver = HeartbeatedWorkload::new(workload);
        driver.set_heart_rate_goal(20.0 + index as f64);
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(experiments::fig3::xeon_actuators(&server))
            .seed(index as u64)
            .build()
            .expect("actuators registered");
        handles.push(
            coordinator.register(
                ManagedApp::new(driver, runtime)
                    .with_weight(1.0 + (index % 3) as f64)
                    .with_nominal_power_hint(6.0),
            ),
        );
    }
    let mut now = 0.0;
    for _ in 0..quanta {
        now += 0.1;
        for &handle in &handles {
            coordinator.advance(handle, now - 0.1, now, 2.0, 5.0);
        }
        coordinator.step(now).expect("goals registered");
    }
    let snapshot = recorder.snapshot();
    (
        snapshot.counter(Counter::AppsSkipped),
        snapshot.counter(Counter::AppsRearbitrated),
        snapshot.counter(Counter::AppsDecided),
    )
}

/// Every active app-quantum lands in exactly one of the three decide
/// counters under every schedule: tolerance 0 (the default, the full
/// fold) books everything under `apps_decided`, a positive tolerance
/// splits the same ledger into `apps_skipped` + `apps_rearbitrated`.
#[test]
fn incremental_counters_reconcile_with_the_quantum_ledger() {
    let (apps, quanta) = (6, 10);
    let ledger = (apps * quanta) as u64;

    let (skipped, rearbitrated, decided) = drive_counted(apps, quanta, 0.0);
    assert_eq!(skipped + rearbitrated + decided, ledger);
    assert_eq!(skipped, 0, "tolerance 0 never skips");
    assert_eq!(rearbitrated, 0, "tolerance 0 books under apps_decided");
    assert_eq!(decided, ledger);

    let (skipped, rearbitrated, decided) = drive_counted(apps, quanta, 0.2);
    assert_eq!(skipped + rearbitrated + decided, ledger);
    assert_eq!(decided, 0, "a positive tolerance books its own counters");
    assert!(
        skipped > 0,
        "a steady fleet at tolerance 0.2 must skip: {rearbitrated} rearbitrated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The chaos pipeline — fault plans, quarantine ladders, rack
    /// breakers, the paths that actually emit events — serialises to
    /// byte-identical figure JSON with and without telemetry (wall-clock
    /// runtime fields canonicalised away, as everywhere else).
    #[test]
    fn figure_json_is_byte_identical_under_fault_plans(seed in 0u64..1_000) {
        let scenarios = workloads::chaos_mixes(seed);
        let scenario = scenarios[(seed as usize) % scenarios.len()].clone();
        let baseline =
            experiments::FigureChaos::compute_scenarios(std::slice::from_ref(&scenario), seed);
        let (observed, snapshot) = experiments::FigureChaos::compute_scenarios_obs(
            std::slice::from_ref(&scenario),
            seed,
            true,
        );
        let snapshot = snapshot.expect("observe=true yields a snapshot");
        let baseline_json = serde_json::to_string_pretty(&baseline.canonical())
            .expect("figure serialises");
        let observed_json = serde_json::to_string_pretty(&observed.canonical())
            .expect("figure serialises");
        prop_assert_eq!(baseline_json, observed_json);
        // The snapshot itself must reconcile with the run it watched:
        // every decided app shows up in the per-decision histogram, and
        // the four coordinated arms each stepped every quantum on every
        // rack, so the step histogram total matches the step counter.
        let report = snapshot.to_report();
        let decided = report.counter("apps_decided").expect("counter present");
        let decisions = report.stage("decision").expect("stage present").count;
        prop_assert_eq!(decided, decisions);
        let stepped = report.counter("quanta_stepped").expect("counter present");
        let steps = report.stage("step").expect("stage present").count;
        prop_assert_eq!(stepped, steps);
        prop_assert!(stepped > 0);
    }
}
