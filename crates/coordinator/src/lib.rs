//! # Multi-application SEEC coordination
//!
//! The Angstrom platform is built for *many* self-aware applications on one
//! machine (DAC 2012 §2): each application runs its own observe–decide–act
//! loop, and the platform arbitrates the resources they share. Without
//! arbitration, composed adaptive systems over- and under-shoot each other —
//! the uncoordinated-composition pathology of §5.2. This crate supplies the
//! missing platform layer:
//!
//! * [`Coordinator`] — owns N applications (each a heartbeat-instrumented
//!   workload driver plus the [`seec::SeecRuntime`] managing it), steps all
//!   of their decision loops on one shared simulated-time quantum schedule,
//!   and arbitrates a machine-level power budget across them every quantum.
//! * [`ArbitrationPolicy`] — the pluggable budget-splitting strategy, one
//!   call over a participant list: [`StaticShare`] (equal shares),
//!   [`WeightedFair`] (water-filling by priority weight), and
//!   [`PerformanceMarket`] (bidding by `weight × heartbeat-gap urgency`).
//! * [`RackCoordinator`] / [`DatacenterArbiter`] — the same structure one
//!   level up: racks fold their fleets into aggregate requests (each app
//!   observed once per datacenter quantum), the datacenter re-runs an
//!   [`ArbitrationPolicy`] across racks, and budget flows
//!   datacenter → rack → app (the flat coordinator is the 1-rack
//!   degenerate case; see the [`hierarchy`] module docs).
//!
//! Awarded watt envelopes become per-application *powerup caps*
//! (`envelope / estimated nominal watts`), and each runtime decides under
//! its cap ([`seec::SeecRuntime::decide_under_power_cap`]) — the admissible
//! configuration set is clamped to the prefix of the model's power-sorted
//! index, so arbitration costs no allocation and no extra model scans.
//!
//! Fleets are dynamic: applications [`Coordinator::register`] and
//! [`Coordinator::retire`] while the run is in flight, the budget can step
//! mid-run ([`Coordinator::set_budget`]), and the per-application stages of
//! [`Coordinator::step`] shard across a worker pool
//! ([`Coordinator::with_pool`]) with output bit-identical to the
//! sequential step at every worker count.
//!
//! ```
//! use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
//! use std::sync::Arc;
//!
//! use coordinator::{Coordinator, ManagedApp, PerformanceMarket};
//! use exec::ExecPool;
//! use seec::SeecRuntime;
//! use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};
//!
//! let managed = |benchmark, seed: u64, weight| {
//!     let dvfs = ActuatorSpec::builder("dvfs")
//!         .setting(SettingSpec::new("slow").effect(Axis::Performance, 0.5).effect(Axis::Power, 0.4))
//!         .setting(SettingSpec::new("fast"))
//!         .nominal(1)
//!         .build()
//!         .unwrap();
//!     let driver = HeartbeatedWorkload::new(Workload::new(benchmark, seed));
//!     driver.set_heart_rate_goal(20.0);
//!     let runtime = SeecRuntime::builder(driver.monitor())
//!         .actuator(Box::new(TableActuator::new(dvfs)))
//!         .build()
//!         .unwrap();
//!     ManagedApp::new(driver, runtime).with_weight(weight)
//! };
//!
//! // A 50 W machine budget arbitrated by the performance market, with the
//! // per-app stages sharded across a two-thread pool (bit-identical to
//! // the sequential step — the thread count is purely a performance knob).
//! let mut coordinator = Coordinator::new(50.0, Box::new(PerformanceMarket::default()))
//!     .with_pool(Arc::new(ExecPool::new(2)));
//! let resident = coordinator.register(managed(SplashBenchmark::Barnes, 1, 2.0));
//!
//! // Each quantum: the platform runs the apps, reports back, the
//! // coordinator steps.
//! coordinator.advance(resident, 0.0, 1.0, 12.0, 9.5);
//! let summary = coordinator.step(1.0).unwrap();
//! assert_eq!(summary.active_apps, 1);
//! assert!(coordinator.app(resident).awarded_watts() <= 50.0);
//!
//! // The fleet is dynamic: a second app registers mid-run, the operator
//! // halves the budget, and later the newcomer retires again.
//! let visitor = coordinator.register(managed(SplashBenchmark::Volrend, 2, 1.0));
//! coordinator.set_budget(25.0);
//! let summary = coordinator.step(2.0).unwrap();
//! assert_eq!(summary.active_apps, 2);
//! assert!(summary.awarded_watts_total <= 25.0);
//!
//! coordinator.retire(visitor);
//! let summary = coordinator.step(3.0).unwrap();
//! assert_eq!(summary.active_apps, 1);
//! assert_eq!(coordinator.app(visitor).awarded_watts(), 0.0);
//! ```

// `warn` locally so exploratory builds are not blocked mid-edit; CI
// promotes both to errors (`RUSTFLAGS`/`RUSTDOCFLAGS` `-D warnings`), so
// no undocumented public item or broken link can land.
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod coordinator;
pub mod hierarchy;
pub mod incremental;
pub mod invariants;
mod policy;

pub use crate::coordinator::{
    AdmissionError, AppHandle, Coordinator, HealthState, ManagedApp, StepSummary, WatchdogConfig,
};
pub use crate::hierarchy::{
    DatacenterArbiter, DatacenterStepSummary, EnforcementMode, RackCoordinator,
};
pub use crate::incremental::{
    ArbitrationSchedule, IncrementalArbiter, IncrementalOutcome, ScheduleError, WakeConfig,
};
pub use crate::policy::{
    AppRequest, ArbitrationPolicy, AwardHysteresis, PerformanceMarket, StarvationFloor,
    StaticShare, WeightedFair,
};
