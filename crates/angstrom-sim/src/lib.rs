//! # Angstrom manycore architectural simulator
//!
//! An analytical, cycle-approximate model of the Angstrom processor described
//! in *Self-aware Computing in the Angstrom Processor* (DAC 2012, §4). It
//! plays the role the Graphite simulator plays in the paper's evaluation:
//! given a description of application demand and a hardware configuration, it
//! reports execution time, energy, and the contents of the observability
//! surface (performance counters, sensors) that the SEEC runtime consumes.
//!
//! ## What is modelled
//!
//! * **Tiles** — a main core with an in-order pipeline model, a private
//!   reconfigurable L1/L2 cache built from voltage-scalable SRAM, a mesh
//!   router, a low-power *partner core*, performance counters, and sensors
//!   ([`tile`], [`partner`], [`counters`], [`sensors`]).
//! * **Intra-core adaptation** — per-core DVFS operating points ([`dvfs`])
//!   and cache way/set disabling ([`cache`]).
//! * **Inter-core adaptation** — express virtual channels, bandwidth-adaptive
//!   links, and application-aware oblivious routing in the on-chip network
//!   ([`noc`]), plus directory / shared-NUCA / ARCc-adaptive cache coherence
//!   ([`coherence`]).
//! * **Energy** — dynamic and leakage energy for cores, caches, network, and
//!   partner cores ([`energy`]).
//! * **Chip** — [`chip::AngstromChip`] ties the pieces together and executes
//!   [`workload::WorkloadDemand`] quanta under a [`chip::ChipConfiguration`].
//!
//! ```
//! use angstrom_sim::chip::{AngstromChip, ChipConfiguration};
//! use angstrom_sim::config::ChipConfig;
//! use angstrom_sim::workload::WorkloadDemand;
//!
//! let mut chip = AngstromChip::new(ChipConfig::angstrom_256());
//! let demand = WorkloadDemand::builder()
//!     .instructions(2.0e9)
//!     .parallel_fraction(0.95)
//!     .working_set_bytes(8.0 * 1024.0 * 1024.0)
//!     .build();
//! let report = chip.execute(&demand, &ChipConfiguration::default_for(chip.config()));
//! assert!(report.seconds > 0.0);
//! assert!(report.energy_joules > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod chip;
pub mod coherence;
pub mod config;
pub mod counters;
pub mod dvfs;
pub mod energy;
pub mod noc;
pub mod partner;
pub mod sensors;
pub mod sram;
pub mod tile;
pub mod workload;

pub use chip::{AngstromChip, ChipConfiguration, ExecutionReport};
pub use config::ChipConfig;
pub use workload::WorkloadDemand;
