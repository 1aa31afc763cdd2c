//! Ablations of the Angstrom design choices called out in DESIGN.md:
//! partner-core decision placement, the adaptive NoC features, and adaptive
//! cache coherence.

use angstrom_sim::chip::{AngstromChip, ChipConfiguration};
use angstrom_sim::coherence::CoherenceProtocol;
use angstrom_sim::config::ChipConfig;
use angstrom_sim::noc::NocFeatures;
use angstrom_sim::partner::DecisionPlacement;
use serde::{Deserialize, Serialize};
use workloads::{SplashBenchmark, Workload};

use crate::driver::to_chip_demand;

/// One ablation comparison: a named variant and its measured figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Study this row belongs to (e.g. "noc-features").
    pub study: String,
    /// Benchmark used.
    pub benchmark: SplashBenchmark,
    /// Variant label (e.g. "EVC+BAN+AOR", "baseline network").
    pub variant: String,
    /// Run time in seconds.
    pub seconds: f64,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Instructions per joule (uncapped efficiency).
    pub instructions_per_joule: f64,
}

/// The full set of ablation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ablations {
    /// Every measured row.
    pub rows: Vec<AblationRow>,
    /// Application time lost per decision on the main core vs partner core,
    /// in seconds (partner-core decisions cost the application nothing).
    pub main_core_decision_overhead_seconds: f64,
    /// Energy per decision on the partner core, in joules.
    pub partner_decision_energy_joules: f64,
    /// Energy per decision on the main core, in joules.
    pub main_core_decision_energy_joules: f64,
}

impl Ablations {
    /// Runs every ablation on the 256-core Angstrom configuration.
    pub fn compute() -> Self {
        Ablations::compute_on(&AngstromChip::new(ChipConfig::angstrom_256()), 2012)
    }

    /// Runs every ablation on an explicit chip.
    pub fn compute_on(chip: &AngstromChip, seed: u64) -> Self {
        let mut rows = Vec::new();

        // --- Adaptive network features on/off (ocean is communication heavy).
        for (label, features) in [
            ("EVC+BAN+AOR", NocFeatures::default()),
            ("baseline network", NocFeatures::baseline()),
        ] {
            rows.push(run_variant(
                chip,
                "noc-features",
                SplashBenchmark::OceanNonContiguous,
                label,
                |cfg| cfg.noc_features = Some(features),
                seed,
            ));
        }

        // --- Coherence protocol choice for a small- and a large-working-set app.
        for benchmark in [
            SplashBenchmark::WaterSpatial,
            SplashBenchmark::OceanNonContiguous,
        ] {
            for (label, protocol) in [
                ("directory", CoherenceProtocol::Directory),
                ("shared-NUCA", CoherenceProtocol::SharedNuca),
                ("adaptive (ARCc)", CoherenceProtocol::Adaptive),
            ] {
                rows.push(run_variant(
                    chip,
                    "coherence",
                    benchmark,
                    label,
                    |cfg| cfg.coherence = protocol,
                    seed,
                ));
            }
        }

        // --- Decision placement: partner core vs main core.
        let cfg = ChipConfiguration::default_for(chip.config());
        let decision_instructions = 1.0e6;
        let mut main_cfg = cfg.clone();
        main_cfg.decision_placement = DecisionPlacement::MainCore;
        let mut partner_cfg = cfg;
        partner_cfg.decision_placement = DecisionPlacement::PartnerCore;
        let main = chip.decision_cost(decision_instructions, &main_cfg);
        let partner = chip.decision_cost(decision_instructions, &partner_cfg);

        Ablations {
            rows,
            main_core_decision_overhead_seconds: main.application_seconds,
            partner_decision_energy_joules: partner.energy_joules,
            main_core_decision_energy_joules: main.energy_joules,
        }
    }

    /// Renders the ablations as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "study         benchmark  variant            seconds    energy_j   instr/J\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:12}  {:9}  {:17}  {:9.4}  {:9.3}  {:9.3e}\n",
                row.study,
                row.benchmark.name(),
                row.variant,
                row.seconds,
                row.energy_joules,
                row.instructions_per_joule,
            ));
        }
        out.push_str(&format!(
            "\ndecision placement: main-core overhead {:.2e} s/decision vs 0 on the partner core; \
             energy {:.2e} J (main) vs {:.2e} J (partner)\n",
            self.main_core_decision_overhead_seconds,
            self.main_core_decision_energy_joules,
            self.partner_decision_energy_joules,
        ));
        out
    }
}

fn run_variant<F: FnOnce(&mut ChipConfiguration)>(
    chip: &AngstromChip,
    study: &str,
    benchmark: SplashBenchmark,
    variant: &str,
    mutate: F,
    seed: u64,
) -> AblationRow {
    let demand = to_chip_demand(&Workload::new(benchmark, seed).average_quantum());
    let mut cfg = ChipConfiguration::default_for(chip.config());
    cfg.cores = 64;
    mutate(&mut cfg);
    let report = chip.evaluate(&demand, &cfg);
    AblationRow {
        study: study.to_string(),
        benchmark,
        variant: variant.to_string(),
        seconds: report.seconds,
        energy_joules: report.energy_joules,
        instructions_per_joule: report.performance_per_watt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows belonging to one study.
    fn study<'a>(ablations: &'a Ablations, name: &str) -> Vec<&'a AblationRow> {
        ablations.rows.iter().filter(|r| r.study == name).collect()
    }

    #[test]
    fn adaptive_network_features_help_a_communication_heavy_workload() {
        let ablations = Ablations::compute();
        let noc = study(&ablations, "noc-features");
        assert_eq!(noc.len(), 2);
        let adaptive = noc.iter().find(|r| r.variant.contains("EVC")).unwrap();
        let baseline = noc.iter().find(|r| r.variant.contains("baseline")).unwrap();
        assert!(adaptive.seconds <= baseline.seconds);
        assert!(adaptive.energy_joules <= baseline.energy_joules);
    }

    #[test]
    fn adaptive_coherence_never_loses_to_either_fixed_protocol() {
        let ablations = Ablations::compute();
        for benchmark in [
            SplashBenchmark::WaterSpatial,
            SplashBenchmark::OceanNonContiguous,
        ] {
            let rows: Vec<_> = study(&ablations, "coherence")
                .into_iter()
                .filter(|r| r.benchmark == benchmark)
                .cloned()
                .collect();
            assert_eq!(rows.len(), 3);
            let adaptive = rows.iter().find(|r| r.variant.contains("ARCc")).unwrap();
            for fixed in rows.iter().filter(|r| !r.variant.contains("ARCc")) {
                assert!(
                    adaptive.seconds <= fixed.seconds * 1.001,
                    "{benchmark}: adaptive coherence should match the better protocol"
                );
            }
        }
    }

    #[test]
    fn partner_core_decisions_are_free_for_the_application_and_cheaper() {
        let ablations = Ablations::compute();
        assert!(ablations.main_core_decision_overhead_seconds > 0.0);
        assert!(
            ablations.partner_decision_energy_joules < ablations.main_core_decision_energy_joules
        );
        assert!(ablations.to_table().contains("decision placement"));
    }
}
