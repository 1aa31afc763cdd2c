//! # Xeon server model: the "existing system" of the SEEC evaluation
//!
//! Section 5.2 of the paper evaluates SEEC on a Dell PowerEdge R410 with two
//! quad-core Intel Xeon E5530 processors running Linux 2.6.26: seven power
//! states between 1.6 GHz and 2.4 GHz controlled through `cpufrequtils`, a
//! WattsUp meter sampling average power over one-second intervals, and a
//! measured power envelope from roughly 90 W idle to 220 W at full load.
//!
//! This crate models exactly that observable surface:
//!
//! * [`PStateTable`] — the seven ACPI P-states of the E5530,
//! * [`XeonServer`] — an analytical performance/power model whose knobs are
//!   the three actions SEEC uses in the paper: the number of cores assigned
//!   to the application, the clock speed of those cores, and the fraction of
//!   non-idle cycles the application receives,
//! * [`MachineMeter`] — machine-level power accounting across many
//!   applications sharing the server, with cap-violation tracking (the
//!   shared view a multi-application power arbiter is judged against).
//!
//! The WattsUp meter is not modelled as a sampler: each evaluation's
//! [`ServerReport`] carries the average power over its quantum, and the
//! experiments read power from there.
//!
//! ```
//! use xeon_sim::{ServerConfiguration, ServerDemand, XeonServer};
//!
//! let server = XeonServer::dell_r410();
//! let demand = ServerDemand::builder().instructions(5.0e9).build();
//! let cfg = ServerConfiguration::new(4, 0, 1.0); // 4 cores, fastest clock, no forced idling
//! let report = server.evaluate(&demand, &cfg);
//! assert!(report.total_power_watts > server.idle_power_watts());
//! assert!(report.seconds > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod demand;
mod eval;
mod machine;
mod pstate;
mod server;

pub use demand::{ServerDemand, ServerDemandBuilder};
pub use eval::{DemandTerms, PreparedConfig, PreparedDemand};
pub use machine::MachineMeter;
pub use pstate::PStateTable;
pub use server::{ServerConfiguration, ServerReport, XeonServer};
