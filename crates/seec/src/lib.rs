//! # SEEC: a self-aware (observe–decide–act) runtime
//!
//! SEEC (SElf-awarE Computing) is the decision engine at the centre of the
//! Angstrom project (DAC 2012 §3). Applications state *goals* through the
//! [Application Heartbeats](heartbeats) API; every other layer of the system
//! — system software, the OS, and the Angstrom hardware — registers the
//! *actions* it can take through the [actuation] interface; and the SEEC
//! runtime closes the observe–decide–act loop: it watches the heartbeats,
//! decides how to use the registered actions to meet the goals at minimum
//! cost (power), and applies the chosen settings.
//!
//! The decision engine is layered, following the SEEC technical report the
//! paper summarises:
//!
//! 1. **Classical control** ([`control::PiController`]) turns the gap
//!    between target and observed heart rate into a required speedup.
//! 2. **Adaptive control** ([`control::KalmanEstimator`]) tracks the
//!    application's underlying (nominal-configuration) speed so the
//!    controller stays calibrated as the workload changes phase.
//! 3. **Online model learning** ([`model::ActionModel`]) starts from the
//!    effects each actuator *declared* and corrects them from observation,
//!    with an exploration fallback when predictions diverge
//!    ([`model::ExplorationPolicy`]).
//!
//! The translation from a continuous required speedup to discrete actuator
//! settings uses time-division scheduling between the two configurations
//! that bracket it, and [`runtime::SeecRuntime`] packages the whole loop.
//! [`uncoordinated::UncoordinatedRuntime`] wires one independent SEEC
//! instance per actuator to reproduce the paper's *uncoordinated
//! adaptation* baseline.
//!
//! There is one decision path. Configurations are interned into the
//! [`actuation::ConfigTable`] arena and every selection runs on copyable
//! [`actuation::ConfigId`]s ([`model`] lists the selection API). Every
//! decision — standalone, uncoordinated, or under a coordinator's awarded
//! envelope — goes through [`SeecRuntime::decide_under_power_cap`] and
//! returns one `Copy` [`Decision`] record; [`SeecRuntime::decide`] is that
//! call with a fresh monitor snapshot and an infinite (unconstrained)
//! power cap.
//!
//! ```
//! use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
//! use heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal};
//! use seec::SeecRuntime;
//!
//! // An application that wants 100 beats/s.
//! let registry = HeartbeatRegistry::new("app");
//! registry.issuer().set_goal(Goal::Performance(PerformanceGoal::heart_rate(100.0)));
//!
//! // A hardware-provided DVFS actuator.
//! let dvfs = ActuatorSpec::builder("dvfs")
//!     .setting(SettingSpec::new("slow").effect(Axis::Performance, 0.5).effect(Axis::Power, 0.4))
//!     .setting(SettingSpec::new("fast"))
//!     .nominal(1)
//!     .build()
//!     .unwrap();
//!
//! let mut runtime = SeecRuntime::builder(registry.monitor())
//!     .actuator(Box::new(TableActuator::new(dvfs)))
//!     .build()
//!     .unwrap();
//!
//! // Drive the loop: the application beats, the platform reports power,
//! // and SEEC periodically decides which settings to apply.
//! for step in 0..50 {
//!     let now = step as f64 * 0.01;
//!     registry.issuer().heartbeat(now);
//!     registry.monitor().record_power_sample(now, 10.0);
//!     runtime.decide(now);
//! }
//! assert!(runtime.decisions_made() > 0);
//! ```

// `warn` locally so exploratory builds are not blocked mid-edit; CI
// promotes both to errors (`RUSTFLAGS`/`RUSTDOCFLAGS` `-D warnings`), so
// no undocumented public item or broken link can land.
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod control;
pub mod error;
pub mod model;
pub mod runtime;
mod schedule;
pub mod uncoordinated;

pub use error::SeecError;
pub use model::{ActionModel, ExplorationPolicy};
pub use runtime::{Decision, SeecRuntime, SeecRuntimeBuilder};
pub use uncoordinated::UncoordinatedRuntime;
