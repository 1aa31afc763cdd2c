//! # angstrom-seec: a reproduction of *Self-aware Computing in the Angstrom Processor*
//!
//! This facade crate re-exports every component of the reproduction so that
//! examples, integration tests, and downstream users can depend on a single
//! crate:
//!
//! * [`heartbeats`] — the Application Heartbeats goal/progress interface.
//! * [`actuation`] — the actuator (action) specification interface.
//! * [`seec`] — the SEEC observe–decide–act runtime with layered control.
//! * [`coordinator`] — multi-application coordination: shared power-budget
//!   arbitration across many ODA loops.
//! * [`angstrom_sim`] — the Angstrom manycore architectural simulator.
//! * [`xeon_sim`] — the Linux/x86 Xeon server model of the existing-system
//!   evaluation.
//! * [`workloads`] — synthetic SPLASH-2 workload models.
//! * [`experiments`] — baselines, oracles, sweeps, and figure generators.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system inventory
//! and substitutions, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ```
//! use angstrom_seec::prelude::*;
//!
//! let chip = AngstromChip::new(ChipConfig::angstrom_256());
//! let demand = Workload::new(SplashBenchmark::Barnes, 1).average_quantum();
//! let report = chip.evaluate(
//!     &experiments::driver::to_chip_demand(&demand),
//!     &ChipConfiguration::default_for(chip.config()),
//! );
//! assert!(report.performance_per_watt() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use actuation;
pub use angstrom_sim;
pub use coordinator;
pub use experiments;
pub use heartbeats;
pub use seec;
pub use workloads;
pub use xeon_sim;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use actuation::{
        Actuator, ActuatorSpec, Axis, Configuration, Scope, SettingSpec, TableActuator,
    };
    pub use angstrom_sim::chip::{AngstromChip, ChipConfiguration, ExecutionReport};
    pub use angstrom_sim::config::ChipConfig;
    pub use coordinator::{Coordinator, ManagedApp, PerformanceMarket, StaticShare, WeightedFair};
    pub use heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal, PowerGoal};
    pub use seec::{SeecRuntime, UncoordinatedRuntime};
    pub use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};
    pub use xeon_sim::{MachineMeter, ServerConfiguration, ServerDemand, XeonServer};
}
