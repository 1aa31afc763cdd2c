//! Demand conversion and run drivers.
//!
//! Workload models produce substrate-neutral [`QuantumDemand`]s; this module
//! converts them into each substrate's demand type and drives whole runs —
//! either under a fixed configuration or under closed-loop SEEC control.

use std::sync::Arc;

use angstrom_sim::workload::WorkloadDemand;
use obs::{ObsSnapshot, Recorder};
use workloads::{QuantumDemand, Scenario};
use xeon_sim::{
    PreparedConfig, PreparedDemand, ServerConfiguration, ServerDemand, ServerReport, XeonServer,
};

/// Runs `count` independent cells, returning their results in cell order.
///
/// Cells fan out across the process-wide persistent worker pool
/// ([`exec::global_pool`]), sized once to the host's available parallelism
/// and reused by every figure, sweep, and bench in the process — the
/// per-call `std::thread::scope` spawn this replaced is paid never instead
/// of once per call. On single-hardware-thread hosts (or single-cell
/// batches) the pool runs the cells inline. Results are identical either
/// way: every cell is a pure function of its index (closed-loop cells own
/// their seeded RNGs), and [`exec::ExecPool::map_indexed`] collects by
/// index, so thread count and interleaving cannot leak into the output.
pub fn run_cells<T, F>(count: usize, cell: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    exec::global_pool().map_indexed(count, cell)
}

/// Runs a figure's `scenarios × arms` grid as [`run_cells`], scenario-major
/// (so `chunks(arms.len())` yields one scenario each). Cell `index` is
/// seeded `seed·0x9e3779b97f4a7c15 + salt + index`. With `observe`, each
/// cell records into its own [`Recorder`] and the snapshots merge in cell
/// order, so results and telemetry are both independent of worker count.
pub(crate) fn run_grid<A, T, F>(
    scenarios: &[Scenario],
    arms: &[A],
    seed: u64,
    salt: u64,
    observe: bool,
    cell: F,
) -> (Vec<T>, Option<ObsSnapshot>)
where
    A: Copy + Sync,
    T: Send,
    F: Fn(&Scenario, A, u64, Option<&Arc<Recorder>>) -> T + Sync,
{
    let cells = run_cells(scenarios.len() * arms.len(), |index| {
        let cell_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt)
            .wrapping_add(index as u64);
        let recorder = observe.then(|| Arc::new(Recorder::in_memory()));
        let scenario = &scenarios[index / arms.len()];
        let result = cell(
            scenario,
            arms[index % arms.len()],
            cell_seed,
            recorder.as_ref(),
        );
        (result, recorder.map(|recorder| recorder.snapshot()))
    });
    let mut merged = observe.then(ObsSnapshot::empty);
    let results = cells
        .into_iter()
        .map(|(result, snapshot)| {
            if let (Some(merged), Some(snapshot)) = (merged.as_mut(), snapshot) {
                merged.merge(&snapshot);
            }
            result
        })
        .collect();
    (results, merged)
}

/// Converts one workload quantum into the Angstrom simulator's demand type.
pub fn to_chip_demand(quantum: &QuantumDemand) -> WorkloadDemand {
    WorkloadDemand::builder()
        .instructions(quantum.instructions)
        .parallel_fraction(quantum.parallel_fraction)
        .memory_ops_per_instruction(quantum.memory_ops_per_instruction)
        .working_set_bytes(quantum.working_set_bytes)
        .locality_exponent(quantum.locality_exponent)
        .sharing_fraction(quantum.sharing_fraction)
        .communication_flits_per_instruction(quantum.communication_flits_per_instruction)
        .load_imbalance(quantum.load_imbalance)
        .base_cpi(quantum.base_cpi)
        .work_units(quantum.work_units)
        .build()
}

/// Converts one workload quantum into the Xeon server's demand type.
pub fn to_server_demand(quantum: &QuantumDemand) -> ServerDemand {
    ServerDemand::builder()
        .instructions(quantum.instructions)
        .parallel_fraction(quantum.parallel_fraction)
        .memory_ops_per_instruction(quantum.memory_ops_per_instruction)
        .llc_miss_rate(quantum.xeon_llc_miss_rate)
        .base_cpi(quantum.base_cpi)
        .load_imbalance(quantum.load_imbalance)
        .work_units(quantum.work_units)
        .build()
}

/// Aggregate outcome of running a sequence of quanta on the Xeon server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XeonRunOutcome {
    /// Total simulated wall-clock time, in seconds.
    pub seconds: f64,
    /// Total work units (heartbeats) completed.
    pub work_units: f64,
    /// Average heart rate over the run, in beats per second.
    pub heart_rate: f64,
    /// Average power beyond idle, in watts.
    pub power_above_idle_watts: f64,
    /// Total energy, in joules.
    pub energy_joules: f64,
}

/// Accumulates per-quantum reports into a [`XeonRunOutcome`].
///
/// The single source of truth for the accumulation's operation order: both
/// the report-based path and the memoized-cell path push through here, so
/// their sums are bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OutcomeAccumulator {
    seconds: f64,
    work_units: f64,
    energy: f64,
    above_idle_energy: f64,
}

impl OutcomeAccumulator {
    /// Folds in one quantum's observables.
    #[inline]
    pub fn push(
        &mut self,
        seconds: f64,
        work_units: f64,
        energy_joules: f64,
        power_above_idle_watts: f64,
    ) {
        self.seconds += seconds;
        self.work_units += work_units;
        self.energy += energy_joules;
        self.above_idle_energy += power_above_idle_watts * seconds;
    }

    /// Folds in one quantum's report.
    #[inline]
    pub fn push_report(&mut self, r: &ServerReport) {
        self.push(
            r.seconds,
            r.work_units,
            r.energy_joules,
            r.power_above_idle_watts,
        );
    }

    /// The aggregate outcome.
    pub fn finish(self) -> XeonRunOutcome {
        XeonRunOutcome {
            seconds: self.seconds,
            work_units: self.work_units,
            heart_rate: if self.seconds > 0.0 {
                self.work_units / self.seconds
            } else {
                0.0
            },
            power_above_idle_watts: if self.seconds > 0.0 {
                self.above_idle_energy / self.seconds
            } else {
                0.0
            },
            energy_joules: self.energy,
        }
    }
}

impl XeonRunOutcome {
    /// Accumulates a sequence of per-quantum reports.
    pub fn from_reports<'a, I: IntoIterator<Item = &'a ServerReport>>(reports: I) -> Self {
        let mut acc = OutcomeAccumulator::default();
        for r in reports {
            acc.push_report(r);
        }
        acc.finish()
    }

    /// The paper's performance-per-watt metric on this platform:
    /// `min(achieved, target) / (power − idle)`.
    pub fn performance_per_watt(&self, target_heart_rate: f64) -> f64 {
        if self.power_above_idle_watts <= 0.0 {
            return 0.0;
        }
        self.heart_rate.min(target_heart_rate) / self.power_above_idle_watts
    }
}

/// Runs every quantum under a single fixed configuration.
pub fn run_fixed_on_xeon(
    server: &XeonServer,
    quanta: &[QuantumDemand],
    configuration: &ServerConfiguration,
) -> XeonRunOutcome {
    let reports: Vec<ServerReport> = quanta
        .iter()
        .map(|q| server.evaluate(&to_server_demand(q), configuration))
        .collect();
    XeonRunOutcome::from_reports(reports.iter())
}

/// Every configuration the paper's x86 experiment adapts over: cores 1–8,
/// the seven P-states, and ten active-cycle fractions.
pub fn xeon_configuration_grid(server: &XeonServer) -> Vec<ServerConfiguration> {
    let mut out = Vec::new();
    for cores in 1..=server.total_cores() {
        for pstate in 0..server.pstates().len() {
            for duty_step in 1..=10 {
                out.push(ServerConfiguration::new(
                    cores,
                    pstate,
                    duty_step as f64 / 10.0,
                ));
            }
        }
    }
    out
}

/// Memoized evaluations of every (quantum, grid configuration) cell for one
/// benchmark run.
///
/// The figure pipeline evaluates the same quanta under the same grid many
/// times over — the shared no-adaptation selection, the static oracle, the
/// dynamic oracle, and the closed-loop runs all revisit identical
/// (demand, configuration) pairs. The table evaluates each pair exactly
/// once (with the prepared split, so per-cell cost is a handful of flops)
/// and every later use is an indexed lookup. Reports are bit-identical to
/// calling [`XeonServer::evaluate`] directly, so outcomes derived from the
/// table match the unmemoized pipeline exactly.
#[derive(Debug, Clone)]
pub struct XeonEvalTable {
    grid: Vec<ServerConfiguration>,
    /// Quantum-major: `cells[quantum * grid.len() + config]`. Cells store
    /// only the report fields the aggregations consume; the two derivable
    /// fields (instructions, instructions/second) are rebuilt — with the
    /// identical operations — when a full report is materialised.
    cells: Vec<EvalCell>,
    /// Instructions of each quantum (demand-side, configuration invariant).
    quantum_instructions: Vec<f64>,
    quanta_len: usize,
    pstate_count: usize,
    total_cores: usize,
}

/// One memoized (quantum, configuration) evaluation, 5 of the report's 7
/// fields (the other two are derivable).
#[derive(Debug, Clone, Copy, PartialEq)]
struct EvalCell {
    seconds: f64,
    work_units: f64,
    power_above_idle_watts: f64,
    total_power_watts: f64,
    energy_joules: f64,
}

impl EvalCell {
    #[inline]
    fn from_report(r: &ServerReport) -> Self {
        EvalCell {
            seconds: r.seconds,
            work_units: r.work_units,
            power_above_idle_watts: r.power_above_idle_watts,
            total_power_watts: r.total_power_watts,
            energy_joules: r.energy_joules,
        }
    }

    /// The per-quantum efficiency the oracles rank cells by: capped heart
    /// rate per watt beyond idle.
    #[inline]
    fn efficiency(&self, target_heart_rate: f64) -> f64 {
        if self.power_above_idle_watts <= 0.0 || self.seconds <= 0.0 {
            return 0.0;
        }
        let rate = self.work_units / self.seconds;
        rate.min(target_heart_rate) / self.power_above_idle_watts
    }
}

impl XeonEvalTable {
    /// Evaluates every quantum under every grid configuration, once.
    pub fn build(server: &XeonServer, quanta: &[QuantumDemand]) -> Self {
        let grid = xeon_configuration_grid(server);
        let prepared: Vec<PreparedConfig> = grid.iter().map(|cfg| server.prepare(cfg)).collect();
        let mut cells = Vec::with_capacity(grid.len() * quanta.len());
        let mut quantum_instructions = Vec::with_capacity(quanta.len());
        for quantum in quanta {
            let demand = PreparedDemand::new(&to_server_demand(quantum));
            quantum_instructions.push(quantum.instructions);
            // The CPI model depends on the configuration only through the
            // P-state's miss penalty; grid order keeps each P-state's ten
            // duty steps adjacent, so the folded terms change 56 times per
            // quantum instead of 560.
            let mut terms = demand.at_miss_penalty(prepared[0].miss_penalty_cycles());
            for config in &prepared {
                if config.miss_penalty_cycles().to_bits() != terms.miss_penalty_cycles().to_bits()
                {
                    terms = demand.at_miss_penalty(config.miss_penalty_cycles());
                }
                cells.push(EvalCell::from_report(&server.evaluate_terms(&terms, config)));
            }
        }
        XeonEvalTable {
            grid,
            cells,
            quantum_instructions,
            quanta_len: quanta.len(),
            pstate_count: server.pstates().len(),
            total_cores: server.total_cores(),
        }
    }

    /// The configuration grid, in [`xeon_configuration_grid`] order.
    pub fn grid(&self) -> &[ServerConfiguration] {
        &self.grid
    }

    /// Number of quanta covered.
    pub fn quanta_len(&self) -> usize {
        self.quanta_len
    }

    /// The memoized report of one (quantum, configuration) cell,
    /// bit-identical to the direct evaluation.
    #[inline]
    pub fn report(&self, quantum: usize, config: usize) -> ServerReport {
        let cell = &self.cells[quantum * self.grid.len() + config];
        let instructions = self.quantum_instructions[quantum];
        ServerReport {
            seconds: cell.seconds,
            instructions,
            work_units: cell.work_units,
            // The same division `evaluate` performs, on the same operands.
            instructions_per_second: instructions / cell.seconds,
            total_power_watts: cell.total_power_watts,
            power_above_idle_watts: cell.power_above_idle_watts,
            energy_joules: cell.energy_joules,
        }
    }

    #[inline]
    fn quantum_cells(&self, quantum: usize) -> &[EvalCell] {
        let width = self.grid.len();
        &self.cells[quantum * width..(quantum + 1) * width]
    }

    /// Grid index of `config`, if it lies on the grid (cores in range, valid
    /// P-state, duty an exact tenth).
    pub fn config_index(&self, config: &ServerConfiguration) -> Option<usize> {
        if config.cores == 0
            || config.cores > self.total_cores
            || config.pstate_index >= self.pstate_count
        {
            return None;
        }
        let step = (config.active_cycle_fraction * 10.0).round();
        if !(1.0..=10.0).contains(&step)
            || (config.active_cycle_fraction - step / 10.0).abs() > 1e-12
        {
            return None;
        }
        Some(
            ((config.cores - 1) * self.pstate_count + config.pstate_index) * 10
                + (step as usize - 1),
        )
    }

    /// The aggregate outcome of running every quantum under one fixed grid
    /// configuration — [`run_fixed_on_xeon`] as a lookup.
    pub fn fixed_outcome(&self, config: usize) -> XeonRunOutcome {
        let mut acc = OutcomeAccumulator::default();
        for q in 0..self.quanta_len {
            let cell = &self.cells[q * self.grid.len() + config];
            acc.push(
                cell.seconds,
                cell.work_units,
                cell.energy_joules,
                cell.power_above_idle_watts,
            );
        }
        acc.finish()
    }

    /// The *dynamic oracle* of §5.2: each quantum runs under its best
    /// configuration, chosen with perfect post-hoc knowledge and no
    /// overhead. Per quantum, the best cell is chosen exactly as
    /// `Iterator::max_by` does (the last cell wins ties).
    pub fn dynamic_oracle_outcome(&self, target_heart_rate: f64) -> XeonRunOutcome {
        let mut acc = OutcomeAccumulator::default();
        for q in 0..self.quanta_len {
            let cells = self.quantum_cells(q);
            let mut best = &cells[0];
            let mut best_efficiency = best.efficiency(target_heart_rate);
            for cell in &cells[1..] {
                let efficiency = cell.efficiency(target_heart_rate);
                if efficiency >= best_efficiency {
                    best = cell;
                    best_efficiency = efficiency;
                }
            }
            acc.push(
                best.seconds,
                best.work_units,
                best.energy_joules,
                best.power_above_idle_watts,
            );
        }
        acc.finish()
    }

    /// The static oracle over the table: the best fixed configuration's
    /// capped performance per watt.
    pub fn static_oracle_performance_per_watt(&self, target_heart_rate: f64) -> f64 {
        (0..self.grid.len())
            .map(|c| self.fixed_outcome(c).performance_per_watt(target_heart_rate))
            .fold(0.0_f64, f64::max)
    }

    /// The *goal-respecting* static oracle: among fixed configurations whose
    /// run meets the target heart rate, the one with the least mean power
    /// above idle; when none meets it, the fastest. Scored as capped
    /// performance per watt.
    ///
    /// This is the §5.2 protocol ("meet the goal while minimising power")
    /// stated directly. Under the linear power model the capped-ratio
    /// maximisation encodes the same intent, but under a convex
    /// utilisation–power curve the ratio `min(rate, target) / power` grows
    /// without bound as utilisation shrinks, so a ratio-maximising oracle
    /// degenerates into deep duty-cycling that ignores the goal entirely —
    /// see EXPERIMENTS.md's recalibrated-model notes. The convex-model
    /// experiments therefore score against goal-respecting oracles; the
    /// linear default keeps the historical selection bit-for-bit.
    pub fn goal_respecting_static_oracle_performance_per_watt(
        &self,
        target_heart_rate: f64,
    ) -> f64 {
        let mut feasible: Option<(XeonRunOutcome, f64)> = None;
        let mut fastest: Option<XeonRunOutcome> = None;
        for c in 0..self.grid.len() {
            let outcome = self.fixed_outcome(c);
            if outcome.heart_rate >= target_heart_rate {
                let better = feasible
                    .as_ref()
                    .is_none_or(|(_, power)| outcome.power_above_idle_watts < *power);
                if better {
                    feasible = Some((outcome, outcome.power_above_idle_watts));
                }
            }
            let faster = fastest
                .as_ref()
                .is_none_or(|best| outcome.heart_rate > best.heart_rate);
            if faster {
                fastest = Some(outcome);
            }
        }
        feasible
            .map(|(outcome, _)| outcome)
            .or(fastest)
            .map_or(0.0, |outcome| outcome.performance_per_watt(target_heart_rate))
    }

    /// The *goal-respecting* dynamic oracle: per quantum, the cell meeting
    /// the target at least power above idle (the fastest cell when none
    /// meets it). See
    /// [`Self::goal_respecting_static_oracle_performance_per_watt`] for why
    /// the convex-model experiments use this instead of the ratio-maximising
    /// [`Self::dynamic_oracle_outcome`].
    pub fn goal_respecting_dynamic_oracle_outcome(&self, target_heart_rate: f64) -> XeonRunOutcome {
        let mut acc = OutcomeAccumulator::default();
        for q in 0..self.quanta_len {
            let cells = self.quantum_cells(q);
            let mut feasible: Option<&EvalCell> = None;
            let mut fastest = &cells[0];
            let mut fastest_rate = fastest.work_units / fastest.seconds;
            for cell in cells {
                let rate = cell.work_units / cell.seconds;
                if rate >= target_heart_rate
                    && feasible.is_none_or(|best| {
                        cell.power_above_idle_watts < best.power_above_idle_watts
                    })
                {
                    feasible = Some(cell);
                }
                if rate > fastest_rate {
                    fastest = cell;
                    fastest_rate = rate;
                }
            }
            let best = feasible.unwrap_or(fastest);
            acc.push(
                best.seconds,
                best.work_units,
                best.energy_joules,
                best.power_above_idle_watts,
            );
        }
        acc.finish()
    }
}

/// The fixed-configuration outcome of every configuration in `configs`, in
/// one streaming pass over the quanta — no per-cell storage.
///
/// Equivalent, bit-for-bit, to calling [`run_fixed_on_xeon`] once per
/// configuration (each configuration's accumulator sees its reports in
/// quantum order, through the shared `OutcomeAccumulator` operations),
/// at one evaluation per (quantum, configuration) pair and O(configs)
/// memory. Used where only a small slice of the grid is needed — e.g. the
/// shared no-adaptation candidates of Figure 3.
pub fn fixed_outcomes_streaming(
    server: &XeonServer,
    quanta: &[QuantumDemand],
    configs: &[ServerConfiguration],
) -> Vec<XeonRunOutcome> {
    let prepared: Vec<PreparedConfig> = configs.iter().map(|cfg| server.prepare(cfg)).collect();
    let mut accumulators = vec![OutcomeAccumulator::default(); configs.len()];
    for quantum in quanta {
        let demand = PreparedDemand::new(&to_server_demand(quantum));
        for (config, acc) in prepared.iter().zip(accumulators.iter_mut()) {
            let report =
                server.evaluate_terms(&demand.at_miss_penalty(config.miss_penalty_cycles()), config);
            acc.push_report(&report);
        }
    }
    accumulators.into_iter().map(OutcomeAccumulator::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{SplashBenchmark, Workload};

    /// The reference dynamic oracle the table's
    /// [`XeonEvalTable::dynamic_oracle_outcome`] must reproduce: direct
    /// evaluation of every configuration for every quantum.
    fn run_dynamic_oracle_on_xeon(
        server: &XeonServer,
        quanta: &[QuantumDemand],
        configurations: &[ServerConfiguration],
        target_heart_rate: f64,
    ) -> XeonRunOutcome {
        let reports: Vec<ServerReport> = quanta
            .iter()
            .map(|q| {
                let demand = to_server_demand(q);
                configurations
                    .iter()
                    .map(|cfg| server.evaluate(&demand, cfg))
                    .max_by(|a, b| {
                        quantum_efficiency(a, target_heart_rate)
                            .partial_cmp(&quantum_efficiency(b, target_heart_rate))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("at least one configuration")
            })
            .collect();
        XeonRunOutcome::from_reports(reports.iter())
    }

    /// Capped heart rate per watt beyond idle of one report.
    fn quantum_efficiency(report: &ServerReport, target_heart_rate: f64) -> f64 {
        if report.power_above_idle_watts <= 0.0 || report.seconds <= 0.0 {
            return 0.0;
        }
        let rate = report.work_units / report.seconds;
        rate.min(target_heart_rate) / report.power_above_idle_watts
    }

    #[test]
    fn eval_table_reports_match_direct_evaluation_bit_for_bit() {
        // The closed loops read whole reports from the table, including
        // the fields no aggregation uses (`total_power_watts` prices the
        // decision overhead), so every field of every cell is pinned.
        for server in [XeonServer::dell_r410(), XeonServer::dell_r410_calibrated()] {
            let quanta = Workload::new(SplashBenchmark::OceanNonContiguous, 4).quanta(6);
            let table = XeonEvalTable::build(&server, &quanta);
            for (q, quantum) in quanta.iter().enumerate() {
                let demand = to_server_demand(quantum);
                for (c, cfg) in table.grid().iter().enumerate() {
                    let direct = server.evaluate(&demand, cfg);
                    let memoized = table.report(q, c);
                    let fields = |r: &ServerReport| {
                        [
                            r.seconds,
                            r.instructions,
                            r.work_units,
                            r.instructions_per_second,
                            r.total_power_watts,
                            r.power_above_idle_watts,
                            r.energy_joules,
                        ]
                        .map(f64::to_bits)
                    };
                    assert_eq!(fields(&direct), fields(&memoized), "quantum {q}, config {c}");
                }
            }
        }
    }

    #[test]
    fn conversions_preserve_totals_and_rates() {
        let quantum = Workload::new(SplashBenchmark::OceanNonContiguous, 1).average_quantum();
        let chip = to_chip_demand(&quantum);
        assert_eq!(chip.instructions, quantum.instructions);
        assert_eq!(chip.working_set_bytes, quantum.working_set_bytes);
        assert_eq!(chip.work_units, quantum.work_units);
        let server = to_server_demand(&quantum);
        assert_eq!(server.instructions, quantum.instructions);
        assert_eq!(server.llc_miss_rate, quantum.xeon_llc_miss_rate);
        assert_eq!(server.work_units, quantum.work_units);
    }

    #[test]
    fn fixed_run_accumulates_all_quanta() {
        let server = XeonServer::dell_r410();
        let quanta = Workload::new(SplashBenchmark::Barnes, 2).quanta(32);
        let outcome = run_fixed_on_xeon(&server, &quanta, &server.default_configuration());
        let total_work: f64 = quanta.iter().map(|q| q.work_units).sum();
        assert!((outcome.work_units - total_work).abs() < 1e-6 * total_work);
        assert!(outcome.seconds > 0.0);
        assert!(outcome.heart_rate > 0.0);
        assert!(outcome.energy_joules > 0.0);
    }

    #[test]
    fn dynamic_oracle_beats_any_fixed_configuration() {
        let server = XeonServer::dell_r410();
        let quanta = Workload::new(SplashBenchmark::Volrend, 3).quanta(24);
        let grid = xeon_configuration_grid(&server);
        let max_rate = run_fixed_on_xeon(&server, &quanta, &server.default_configuration()).heart_rate;
        let target = max_rate / 2.0;
        let oracle = run_dynamic_oracle_on_xeon(&server, &quanta, &grid, target);
        let best_fixed = grid
            .iter()
            .map(|cfg| run_fixed_on_xeon(&server, &quanta, cfg).performance_per_watt(target))
            .fold(0.0_f64, f64::max);
        assert!(
            oracle.performance_per_watt(target) >= best_fixed * 0.999,
            "dynamic oracle {} must not lose to the best fixed configuration {}",
            oracle.performance_per_watt(target),
            best_fixed
        );
    }

    #[test]
    fn configuration_grid_covers_the_papers_knobs() {
        let server = XeonServer::dell_r410();
        let grid = xeon_configuration_grid(&server);
        assert_eq!(grid.len(), 8 * 7 * 10);
        assert!(grid.iter().all(|c| c.validate(&server).is_ok()));
    }

    #[test]
    fn eval_table_matches_direct_evaluation_bit_for_bit() {
        let server = XeonServer::dell_r410();
        let quanta = Workload::new(SplashBenchmark::Raytrace, 5).quanta(12);
        let table = XeonEvalTable::build(&server, &quanta);
        let grid = xeon_configuration_grid(&server);
        assert_eq!(table.grid(), &grid[..]);
        assert_eq!(table.quanta_len(), quanta.len());
        for (ci, cfg) in grid.iter().enumerate() {
            assert_eq!(table.config_index(cfg), Some(ci));
            let direct = run_fixed_on_xeon(&server, &quanta, cfg);
            let memoized = table.fixed_outcome(ci);
            assert_eq!(direct.seconds.to_bits(), memoized.seconds.to_bits());
            assert_eq!(direct.heart_rate.to_bits(), memoized.heart_rate.to_bits());
            assert_eq!(
                direct.power_above_idle_watts.to_bits(),
                memoized.power_above_idle_watts.to_bits()
            );
            assert_eq!(direct.energy_joules.to_bits(), memoized.energy_joules.to_bits());
        }
        let target = table
            .fixed_outcome(table.config_index(&server.default_configuration()).unwrap())
            .heart_rate
            / 2.0;
        let direct_oracle = run_dynamic_oracle_on_xeon(&server, &quanta, &grid, target);
        let memoized_oracle = table.dynamic_oracle_outcome(target);
        assert_eq!(direct_oracle.seconds.to_bits(), memoized_oracle.seconds.to_bits());
        assert_eq!(
            direct_oracle.energy_joules.to_bits(),
            memoized_oracle.energy_joules.to_bits()
        );
        let direct_static = grid
            .iter()
            .map(|cfg| run_fixed_on_xeon(&server, &quanta, cfg).performance_per_watt(target))
            .fold(0.0_f64, f64::max);
        assert_eq!(
            direct_static.to_bits(),
            table.static_oracle_performance_per_watt(target).to_bits()
        );
    }

    #[test]
    fn streaming_outcomes_match_per_config_runs_bit_for_bit() {
        let server = XeonServer::dell_r410();
        let quanta = Workload::new(SplashBenchmark::WaterSpatial, 11).quanta(16);
        // A mixed slice of the grid, including the default configuration
        // and duty-cycled points, in arbitrary order.
        let configs = vec![
            server.default_configuration(),
            ServerConfiguration::new(1, 6, 1.0),
            ServerConfiguration::new(4, 3, 0.5),
            ServerConfiguration::new(8, 0, 0.1),
            ServerConfiguration::new(2, 5, 0.9),
        ];
        let streamed = fixed_outcomes_streaming(&server, &quanta, &configs);
        assert_eq!(streamed.len(), configs.len());
        for (cfg, outcome) in configs.iter().zip(&streamed) {
            let direct = run_fixed_on_xeon(&server, &quanta, cfg);
            assert_eq!(direct.seconds.to_bits(), outcome.seconds.to_bits());
            assert_eq!(direct.work_units.to_bits(), outcome.work_units.to_bits());
            assert_eq!(direct.heart_rate.to_bits(), outcome.heart_rate.to_bits());
            assert_eq!(
                direct.power_above_idle_watts.to_bits(),
                outcome.power_above_idle_watts.to_bits()
            );
            assert_eq!(direct.energy_joules.to_bits(), outcome.energy_joules.to_bits());
        }
    }

    #[test]
    fn run_cells_is_order_preserving_and_exhaustive() {
        for count in [0usize, 1, 2, 5, 17] {
            let results = run_cells(count, |index| index * index);
            assert_eq!(results, (0..count).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn config_index_rejects_off_grid_configurations() {
        let server = XeonServer::dell_r410();
        let table = XeonEvalTable::build(&server, &Workload::new(SplashBenchmark::Barnes, 1).quanta(2));
        assert!(table.config_index(&ServerConfiguration::new(0, 0, 1.0)).is_none());
        assert!(table.config_index(&ServerConfiguration::new(9, 0, 1.0)).is_none());
        assert!(table.config_index(&ServerConfiguration::new(4, 9, 1.0)).is_none());
        assert!(table.config_index(&ServerConfiguration::new(4, 0, 0.55)).is_none());
        assert_eq!(
            table.config_index(&server.default_configuration()),
            Some(((8 - 1) * 7) * 10 + 9)
        );
    }

    #[test]
    fn perf_per_watt_caps_at_the_target() {
        let outcome = XeonRunOutcome {
            seconds: 10.0,
            work_units: 1000.0,
            heart_rate: 100.0,
            power_above_idle_watts: 50.0,
            energy_joules: 1400.0,
        };
        // Achieving 100 beats/s against a 40 beats/s target counts as 40.
        assert!((outcome.performance_per_watt(40.0) - 0.8).abs() < 1e-12);
        assert!((outcome.performance_per_watt(200.0) - 2.0).abs() < 1e-12);
    }
}
