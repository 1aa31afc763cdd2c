//! Figure 4: anticipated SEEC results on the 256-core Angstrom processor.
//!
//! Each benchmark is swept over every Angstrom configuration (cache 32–128 KB,
//! cores 1–256, two voltage/frequency points). From the sweep the experiment
//! derives the *no adaptation* system (the single configuration that is best
//! on average across all benchmarks), the *static oracle* (the per-benchmark
//! best configuration), and *predicted SEEC* — the static oracle multiplied by
//! the SEEC-vs-static-oracle multiplier measured on the x86 system in
//! Figure 3 (DAC 2012 §5.3).

use angstrom_sim::chip::AngstromChip;
use angstrom_sim::config::ChipConfig;
use serde::{Deserialize, Serialize};
use workloads::SplashBenchmark;

use crate::fig3::Figure3;
use crate::sweep::{max_heart_rate, sweep_benchmark, SweepPoint};

/// Per-benchmark Figure-4 results, as raw performance per watt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure4Row {
    /// Benchmark.
    pub benchmark: SplashBenchmark,
    /// Target heart rate (half the maximum achievable on Angstrom).
    pub target_heart_rate: f64,
    /// The shared best-on-average configuration.
    pub no_adaptation: f64,
    /// Per-benchmark best fixed configuration.
    pub static_oracle: f64,
    /// Static oracle scaled by the Figure-3 SEEC multiplier.
    pub predicted_seec: f64,
    /// Cores chosen by the static oracle (the paper calls out 256 for barnes).
    pub static_oracle_cores: usize,
    /// Cores used by the no-adaptation configuration.
    pub no_adaptation_cores: usize,
}

/// The Figure-4 data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure4 {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<Figure4Row>,
    /// The SEEC-vs-static-oracle multiplier applied (from Figure 3).
    pub seec_multiplier: f64,
}

impl Figure4 {
    /// Runs the experiment using a freshly computed Figure 3 for the SEEC
    /// multiplier.
    pub fn compute() -> Self {
        let fig3 = Figure3::compute_with(2012, 40);
        Figure4::compute_with_multiplier(fig3.seec_vs_static_oracle())
    }

    /// Runs the experiment with an explicit SEEC-vs-static-oracle multiplier
    /// (the paper assumes 1.15, i.e. SEEC beats the static oracle by 15 %).
    pub fn compute_with_multiplier(seec_multiplier: f64) -> Self {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        Figure4::compute_on(&chip, seec_multiplier, 2012)
    }

    /// Runs the experiment on an arbitrary chip (used by tests and ablations).
    pub fn compute_on(chip: &AngstromChip, seec_multiplier: f64, seed: u64) -> Self {
        // Sweep every benchmark and record its target (half max rate); each
        // sweep is independent, so they fan out across worker cells.
        let sweeps: Vec<(SplashBenchmark, Vec<SweepPoint>, f64)> =
            crate::driver::run_cells(SplashBenchmark::ALL.len(), |index| {
                let b = SplashBenchmark::ALL[index];
                let points = sweep_benchmark(chip, b, seed);
                let target = max_heart_rate(&points) / 2.0;
                (b, points, target)
            });

        // No adaptation: the configuration (cores, cache, V/f) with the best
        // *average* perf/W across benchmarks. Configurations are identified
        // by their index in each sweep (all sweeps enumerate identically).
        let config_count = sweeps[0].1.len();
        let no_adapt_index = (0..config_count)
            .max_by(|&a, &b| {
                let mean = |idx: usize| {
                    sweeps
                        .iter()
                        .map(|(_, points, target)| points[idx].performance_per_watt(*target))
                        .sum::<f64>()
                };
                mean(a)
                    .partial_cmp(&mean(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("sweep is non-empty");

        let rows = sweeps
            .iter()
            .map(|(benchmark, points, target)| {
                let no_adapt_point = &points[no_adapt_index];
                let static_point = points
                    .iter()
                    .max_by(|a, b| {
                        a.performance_per_watt(*target)
                            .partial_cmp(&b.performance_per_watt(*target))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("sweep is non-empty");
                let static_oracle = static_point.performance_per_watt(*target);
                Figure4Row {
                    benchmark: *benchmark,
                    target_heart_rate: *target,
                    no_adaptation: no_adapt_point.performance_per_watt(*target),
                    static_oracle,
                    predicted_seec: static_oracle * seec_multiplier,
                    static_oracle_cores: static_point.cores,
                    no_adaptation_cores: no_adapt_point.cores,
                }
            })
            .collect();
        Figure4 {
            rows,
            seec_multiplier,
        }
    }

    /// Average improvement of the static oracle over no adaptation (the paper
    /// reports 72 %).
    fn static_oracle_improvement(&self) -> f64 {
        mean(
            self.rows
                .iter()
                .map(|r| r.static_oracle / r.no_adaptation.max(1e-12)),
        ) - 1.0
    }

    /// Average improvement of predicted SEEC over no adaptation — the
    /// headline ">100 % performance per watt" claim of the abstract.
    fn headline_improvement(&self) -> f64 {
        mean(
            self.rows
                .iter()
                .map(|r| r.predicted_seec / r.no_adaptation.max(1e-12)),
        ) - 1.0
    }

    /// Renders the figure as an aligned text table, normalised to predicted
    /// SEEC (the paper's y-axis).
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "benchmark  no_adapt  static  pred_seec  static_cores  no_adapt_cores (normalised to predicted SEEC)\n",
        );
        for row in &self.rows {
            let denom = row.predicted_seec.max(1e-12);
            out.push_str(&format!(
                "{:9}  {:8.3}  {:6.3}  {:9.3}  {:12}  {:14}\n",
                row.benchmark.name(),
                row.no_adaptation / denom,
                row.static_oracle / denom,
                1.0,
                row.static_oracle_cores,
                row.no_adaptation_cores,
            ));
        }
        out.push_str(&format!(
            "\nstatic oracle vs no adaptation: {:+.0}%   predicted SEEC vs no adaptation: {:+.0}%   (SEEC multiplier {:.2})\n",
            self.static_oracle_improvement() * 100.0,
            self.headline_improvement() * 100.0,
            self.seec_multiplier,
        ));
        out
    }
}

fn mean<I: Iterator<Item = f64>>(values: I) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_has_one_row_per_benchmark_with_sane_ordering() {
        let fig = Figure4::compute_with_multiplier(1.15);
        assert_eq!(fig.rows.len(), 5);
        for row in &fig.rows {
            assert!(
                row.static_oracle >= row.no_adaptation * 0.999,
                "{}: the static oracle cannot lose to the shared configuration",
                row.benchmark
            );
            assert!(row.predicted_seec >= row.static_oracle * 0.999);
            assert!(row.target_heart_rate > 0.0);
        }
        assert!(fig.to_table().contains("volrend"));
    }

    #[test]
    fn adaptation_provides_a_large_average_benefit() {
        let fig = Figure4::compute_with_multiplier(1.15);
        assert!(
            fig.static_oracle_improvement() > 0.0,
            "static oracle must improve over no adaptation on average, got {:.2}",
            fig.static_oracle_improvement()
        );
        assert!(
            fig.headline_improvement() > fig.static_oracle_improvement(),
            "predicted SEEC adds the Figure-3 multiplier on top of the static oracle"
        );
    }

    #[test]
    fn barnes_static_oracle_uses_many_more_cores_than_the_shared_configuration() {
        let fig = Figure4::compute_with_multiplier(1.15);
        let barnes = fig
            .rows
            .iter()
            .find(|r| r.benchmark == SplashBenchmark::Barnes)
            .unwrap();
        assert!(
            barnes.static_oracle_cores > barnes.no_adaptation_cores,
            "barnes scales, so its oracle allocates more cores ({}) than the shared choice ({})",
            barnes.static_oracle_cores,
            barnes.no_adaptation_cores
        );
    }

    #[test]
    fn multiplier_scales_predicted_seec_linearly() {
        let low = Figure4::compute_with_multiplier(1.0);
        let high = Figure4::compute_with_multiplier(1.3);
        for (a, b) in low.rows.iter().zip(high.rows.iter()) {
            assert!((b.predicted_seec / a.predicted_seec - 1.3).abs() < 1e-9);
            assert_eq!(a.static_oracle, b.static_oracle);
        }
    }
}
