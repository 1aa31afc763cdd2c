//! # Experiment harness: baselines, oracles, sweeps, and figure generators
//!
//! This crate reproduces the evaluation of *Self-aware Computing in the
//! Angstrom Processor* (DAC 2012, §2 and §5):
//!
//! * [`fig2`] — the closed-adaptive-systems experiment (Figure 2): `barnes`
//!   on a 64-core Graphite-style multicore swept over core counts and cache
//!   sizes, with the Pareto frontier and the points a cache-only or
//!   core-only closed system would pick.
//! * [`fig3`] — SEEC on the existing Linux/x86 Xeon server (Figure 3): the
//!   five SPLASH-2 benchmarks requesting half their maximum performance,
//!   compared across no adaptation, uncoordinated adaptation, SEEC, the
//!   static oracle, and the dynamic oracle, as performance per watt beyond
//!   idle normalised to the dynamic oracle.
//! * [`fig4`] — anticipated SEEC results on the 256-core Angstrom (Figure 4):
//!   no adaptation, static oracle, and predicted SEEC (static oracle scaled
//!   by the SEEC-vs-static-oracle multiplier measured in Figure 3).
//! * [`fig5`] — reproduction-specific: many self-aware applications sharing
//!   the calibrated R410 under a machine power budget, comparing
//!   no-adaptation / uncoordinated composition / per-app SEEC / coordinated
//!   SEEC (the [`coordinator`] subsystem) on goal-weighted perf/W and
//!   cap-violation rate.
//! * [`ablation`] — design-choice ablations this reproduction calls out in
//!   DESIGN.md: partner-core decision placement, adaptive NoC features, and
//!   adaptive cache coherence.
//!
//! Lower-level pieces — demand conversion ([`driver`]), exhaustive
//! configuration sweeps ([`sweep`]), and Pareto analysis ([`pareto`]) — are
//! public so examples and benches can reuse them.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ablation;
pub mod chaos;
pub mod driver;
mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fuzz;
pub mod pareto;
mod scenario;
pub mod sweep;

pub use chaos::{FigureChaos, FigureEnforce};
pub use fig2::Figure2;
pub use fig3::{Figure3, Figure3Row};
pub use fig4::{Figure4, Figure4Row};
pub use fig5::{
    ArmOutcome, Figure5, Figure5Hierarchy, Figure5Scenario, HierarchyScenario, RuntimeBlock,
};

/// Writes `value` to `path` as pretty-printed JSON, the format of every
/// figure and report file the binaries emit.
///
/// # Errors
///
/// Returns the serialisation or I/O error, e.g. when `path` names a
/// directory.
fn write_json<T: serde::Serialize + ?Sized>(path: &str, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}

/// Writes `value` to `path` as pretty-printed JSON for the binaries:
/// reports where the data went, or reports the error and exits the process
/// with status 1.
pub fn write_json_or_exit<T: serde::Serialize + ?Sized>(path: &str, value: &T) {
    if let Err(err) = write_json(path, value) {
        eprintln!("could not write {path}: {err}");
        std::process::exit(1);
    }
    println!("raw data written to {path}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn writing_json_to_a_directory_fails() {
        let dir = std::env::temp_dir().join(format!("write-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.to_str().expect("utf-8 temp path");
        assert!(super::write_json(path, &[1.0_f64, 2.0]).is_err());
        let file = dir.join("value.json");
        let file = file.to_str().expect("utf-8 temp path");
        super::write_json(file, &[1.0_f64, 2.0]).expect("a plain file path is writable");
        assert_eq!(
            std::fs::read_to_string(file).expect("written"),
            serde_json::to_string_pretty(&[1.0_f64, 2.0]).expect("serialises")
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
