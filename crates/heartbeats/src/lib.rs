//! # Application Heartbeats
//!
//! A Rust implementation of the *Application Heartbeats* interface used by
//! the SEEC self-aware runtime (Hoffmann et al., ICAC 2010; DAC 2012 §3.1).
//!
//! Applications instrument their important loops with [`HeartbeatIssuer::heartbeat`]
//! calls and declare *goals* — a target heart rate, a target latency between
//! tagged beats, an accuracy (distortion) bound, or a power/energy budget.
//! Other system components (most importantly the SEEC decision engine)
//! attach a [`HeartbeatMonitor`] to the same [`HeartbeatRegistry`] and observe
//! whether the goals are being met, without any knowledge of the application
//! internals.
//!
//! Time in this crate is *simulation time* expressed in seconds as `f64`;
//! the substrate driving the application decides how fast that clock
//! advances.
//!
//! ```
//! use heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal};
//!
//! let registry = HeartbeatRegistry::new("video-encoder");
//! let issuer = registry.issuer();
//! let monitor = registry.monitor();
//!
//! issuer.set_goal(Goal::Performance(PerformanceGoal::heart_rate(30.0)));
//! // ... encode frames, one heartbeat per frame ...
//! for frame in 0..120 {
//!     let now = frame as f64 / 60.0; // the substrate's clock
//!     issuer.heartbeat(now);
//! }
//!
//! let rate = monitor.window_heart_rate();
//! assert!(rate > 0.0);
//! assert_eq!(monitor.target_heart_rate(), Some(30.0));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod error;
mod goal;
mod record;
mod registry;
mod window;

pub use error::HeartbeatError;
pub use goal::{AccuracyGoal, Goal, GoalKind, PerformanceGoal, PowerGoal};
pub use record::{BeatSeq, HeartbeatRecord, Tag};
pub use registry::{
    HeartbeatIssuer, HeartbeatMonitor, HeartbeatRegistry, MonitorObservation, RegistryStats,
};
pub use window::{HeartRateStats, Window};
