//! Figure 3: SEEC on an existing Linux/x86 system.
//!
//! Each of the five SPLASH-2 benchmarks is launched on a single core at the
//! minimum clock speed and requests a performance equal to half the maximum
//! achievable. SEEC must meet that goal while minimising power using three
//! actions: the number of cores assigned, the clock speed of those cores, and
//! the number of non-idle cycles. Performance per watt —
//! `min(achieved, target) / (power − idle)` — is reported for *no
//! adaptation*, *uncoordinated adaptation*, *SEEC*, the *static oracle*, and
//! the *dynamic oracle*, normalised to the dynamic oracle (DAC 2012 §5.2).

use std::sync::{Arc, Mutex, PoisonError, Weak};

use actuation::{Actuator, ActuatorSpec, Axis, Configuration, SettingSpec, TableActuator};
use serde::{Deserialize, Serialize};
use workloads::{HeartbeatedWorkload, QuantumDemand, SplashBenchmark, Workload};
use xeon_sim::{ServerConfiguration, XeonServer};

use crate::driver::{run_cells, OutcomeAccumulator, XeonEvalTable, XeonRunOutcome};
use seec::control::PiController;
use seec::{SeecRuntime, SeecRuntimeBuilder, UncoordinatedRuntime};

/// Number of quanta each benchmark is divided into (the paper expands inputs
/// so every run lasts much longer than the 1 s power-sampling interval).
pub const QUANTA_PER_RUN: usize = 120;

/// Wall-clock overhead charged per SEEC decision on this platform, in
/// seconds (decisions share the main cores with the application).
const DECISION_OVERHEAD_SECONDS: f64 = 1.0e-3;

/// The integral gain the convex-model (goal-respecting) protocol uses for
/// SEEC's PI controller. With anchored estimation the feed-forward term is
/// already calibrated, so the integral only sweeps up modelling residue;
/// the historical gain (0.2), tuned to also compensate the drifting
/// baseline, winds up badly over the ramp's window-lagged errors and then
/// cannot unwind (overshoot is nearly free under the linear model but
/// costs `utilisation^1.15` under the convex one).
pub const CONVEX_PROTOCOL_KI: f64 = 0.01;

/// The belief-aging halflives (in decision periods) the
/// `fig3 --belief-aging` experiment sweeps through the calibrated
/// (convex, goal-respecting) protocol — the ROADMAP's probe at the
/// *phase-stale beliefs* residue: SEEC settles one duty notch above the
/// optimum because the cheaper notch's belief was learned in an earlier
/// phase and is never revisited. Aging decays beliefs toward their
/// declared priors ([`seec::SeecRuntimeBuilder::belief_halflife`]), so the
/// stale notch is re-tried once per halflife-ish. Default-off: the
/// historical pipeline never ages (halflife ∞, bit-for-bit identical);
/// measured results live in EXPERIMENTS.md.
pub const BELIEF_AGING_HALFLIVES: [f64; 4] = [8.0, 16.0, 32.0, 64.0];

/// The integral retention factor the *leaky-integral experiment* applies to
/// the convex protocol's PI controller
/// ([`seec::control::PiController::with_leak`]): error mass absorbed over a
/// transient decays with a ~100-period time constant instead of having to
/// be unwound by opposite-sign errors. Default-off — [`Figure3::compute_on`]
/// runs leak 1.0 (bit-for-bit the historical controller); opt in with
/// [`Figure3::compute_on_tuned`] or `fig3 --leaky-pi`. The measured
/// fidelity delta — the ROADMAP's "easy experiment", run and found *not* to
/// recover the residue (leaks 0.8–0.995 all land at or slightly below the
/// classical 0.839 of the dynamic oracle) — is recorded in EXPERIMENTS.md.
pub const CONVEX_PROTOCOL_LEAK: f64 = 0.99;

/// Controller/model knobs of the convex (goal-respecting) protocol that
/// individual experiments flip, bundled so each new experiment does not
/// grow every closed-loop runner's signature. The default is bit-for-bit
/// the historical protocol: classical integral, no belief aging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvexTuning {
    /// PI integral retention ([`seec::control::PiController::with_leak`];
    /// 1.0 = classical).
    pub leak: f64,
    /// Belief-aging halflife in decision periods
    /// ([`seec::SeecRuntimeBuilder::belief_halflife`]; ∞ = no aging).
    pub belief_halflife: f64,
}

impl Default for ConvexTuning {
    fn default() -> Self {
        ConvexTuning {
            leak: 1.0,
            belief_halflife: f64::INFINITY,
        }
    }
}

/// Per-benchmark results, as raw performance per watt beyond idle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure3Row {
    /// Benchmark.
    pub benchmark: SplashBenchmark,
    /// Target heart rate (half the maximum achievable), in beats per second.
    pub target_heart_rate: f64,
    /// No adaptation: the single configuration best on average across all
    /// benchmarks.
    pub no_adaptation: f64,
    /// Uncoordinated adaptation: one closed SEEC instance per actuator.
    pub uncoordinated: f64,
    /// Coordinated SEEC.
    pub seec: f64,
    /// Static oracle: best per-benchmark fixed configuration.
    pub static_oracle: f64,
    /// Dynamic oracle: best per-quantum configuration, no overhead.
    pub dynamic_oracle: f64,
}

impl Figure3Row {
    /// The row normalised to the dynamic oracle (the paper's y-axis).
    pub fn normalized(&self) -> [f64; 4] {
        let d = if self.dynamic_oracle > 0.0 {
            self.dynamic_oracle
        } else {
            1.0
        };
        [
            self.no_adaptation / d,
            self.uncoordinated / d,
            self.seec / d,
            1.0,
        ]
    }
}

/// The Figure-3 data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure3 {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<Figure3Row>,
}

impl Figure3 {
    /// Runs the full experiment on the modelled Dell R410.
    pub fn compute() -> Self {
        Figure3::compute_with(2012, QUANTA_PER_RUN)
    }

    /// Runs the experiment with an explicit seed and quantum count (smaller
    /// counts are useful in tests and benches).
    pub fn compute_with(seed: u64, quanta_per_run: usize) -> Self {
        Figure3::compute_on(&XeonServer::dell_r410(), seed, quanta_per_run)
    }

    /// Runs the experiment on an explicit server model (used by the
    /// calibrated-power-model study in EXPERIMENTS.md).
    ///
    /// The pipeline evaluates every (quantum, configuration) pair at most
    /// once: the shared no-adaptation baseline comes from one streaming pass
    /// over the duty-1.0 candidates, and each benchmark then memoizes its
    /// full grid in an [`XeonEvalTable`] from which the oracles and
    /// closed-loop runs are indexed lookups. The five benchmarks, and the
    /// policy cells within each benchmark, fan out across the persistent
    /// worker pool (via [`crate::driver::run_cells`], which degrades to
    /// inline execution on single-core hosts). Every closed-loop
    /// cell owns its own seeded runtime, so results are bit-for-bit
    /// identical to the sequential pipeline regardless of worker
    /// interleaving.
    pub fn compute_on(server: &XeonServer, seed: u64, quanta_per_run: usize) -> Self {
        Figure3::compute_on_tuned(server, seed, quanta_per_run, ConvexTuning::default())
    }

    /// [`Self::compute_on`] with explicit [`ConvexTuning`] knobs (the
    /// default tuning is bit-for-bit [`Self::compute_on`]). The knobs touch
    /// only the closed-loop SEEC and uncoordinated cells of the
    /// goal-respecting protocol (the closed loops) — oracles and fixed
    /// runs are untouched, and the linear historical pipeline ignores them.
    pub fn compute_on_tuned(
        server: &XeonServer,
        seed: u64,
        quanta_per_run: usize,
        tuning: ConvexTuning,
    ) -> Self {
        // Under the convex power model the capped efficiency ratio is
        // gameable by deep under-utilisation, so selections (oracles and
        // the shared no-adaptation candidate) must respect the goal and the
        // closed loops run the anchored/interpolated protocol; the linear
        // default keeps the historical pipeline bit-for-bit. See the
        // goal-respecting oracle docs in [`crate::driver::XeonEvalTable`].
        let convex = server.utilization_power_exponent() != 1.0;
        // The shared no-adaptation candidates: the same (cores, clock) for
        // every application, duty fixed at 1.0, in grid order. The default
        // (fastest) configuration that defines the performance targets is
        // one of them.
        let grid = crate::driver::xeon_configuration_grid(server);
        let candidates: Vec<xeon_sim::ServerConfiguration> = grid
            .iter()
            .copied()
            .filter(|c| (c.active_cycle_fraction - 1.0).abs() < 1e-9)
            .collect();
        let default_candidate = candidates
            .iter()
            .position(|c| *c == server.default_configuration())
            .expect("the default configuration runs at full duty");

        // Phase 1 — per-benchmark quanta, the candidates' fixed outcomes
        // (one streaming pass, no table), and targets (half the maximum
        // achievable rate); one worker cell per benchmark.
        struct BenchmarkCell {
            benchmark: SplashBenchmark,
            quanta: Vec<QuantumDemand>,
            candidate_ppw: Vec<f64>,
            /// Whether each candidate's fixed run meets this benchmark's
            /// target (used only by the convex goal-respecting selection).
            candidate_feasible: Vec<bool>,
            target: f64,
        }
        let cells: Vec<BenchmarkCell> = run_cells(SplashBenchmark::ALL.len(), |index| {
            let benchmark = SplashBenchmark::ALL[index];
            let quanta = Workload::new(benchmark, seed).quanta(quanta_per_run);
            let outcomes = crate::driver::fixed_outcomes_streaming(server, &quanta, &candidates);
            let target = outcomes[default_candidate].heart_rate / 2.0;
            BenchmarkCell {
                benchmark,
                quanta,
                candidate_ppw: outcomes
                    .iter()
                    .map(|outcome| outcome.performance_per_watt(target))
                    .collect(),
                candidate_feasible: outcomes
                    .iter()
                    .map(|outcome| outcome.heart_rate >= target)
                    .collect(),
                target,
            }
        });

        // Phase 2 — pick the candidate maximising mean perf/W across
        // benchmarks (ties resolve like `Iterator::max_by`: the last
        // maximal candidate wins, as the unmemoized pipeline did). The
        // convex protocol restricts the choice to candidates feasible for
        // *every* benchmark (the default candidate always is — the targets
        // are defined as half its rate), so "best on average" cannot
        // degenerate into a goal-ignoring under-utilised configuration.
        let mean_ppw = |candidate: usize| -> f64 {
            let sum: f64 = cells.iter().map(|cell| cell.candidate_ppw[candidate]).sum();
            sum / cells.len() as f64
        };
        let no_adapt_candidate = (0..candidates.len())
            .filter(|&candidate| {
                !convex || cells.iter().all(|cell| cell.candidate_feasible[candidate])
            })
            .max_by(|&a, &b| {
                mean_ppw(a)
                    .partial_cmp(&mean_ppw(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("the default candidate is always feasible");

        // Phase 3 — the remaining policy cells of every benchmark. Each
        // benchmark memoizes its full (quantum × grid) evaluation table
        // once; the oracles are table scans and the closed-loop runs are
        // per-quantum lookups, each cell with its own seeded runtime.
        let rows: Vec<Figure3Row> = run_cells(cells.len(), |row| {
            let cell = &cells[row];
            let table = XeonEvalTable::build(server, &cell.quanta);
            let closed_loop = |adaptation| {
                run_closed_loop(
                    server,
                    cell.benchmark,
                    &table,
                    cell.target,
                    seed,
                    adaptation,
                    convex.then_some(tuning),
                )
                .performance_per_watt(cell.target)
            };
            let policies = run_cells(4, |policy| match (policy, convex) {
                (0, false) => table.static_oracle_performance_per_watt(cell.target),
                (0, true) => table.goal_respecting_static_oracle_performance_per_watt(cell.target),
                (1, false) => table
                    .dynamic_oracle_outcome(cell.target)
                    .performance_per_watt(cell.target),
                (1, true) => table
                    .goal_respecting_dynamic_oracle_outcome(cell.target)
                    .performance_per_watt(cell.target),
                (2, _) => closed_loop(Adaptation::Seec),
                _ => closed_loop(Adaptation::Uncoordinated),
            });
            Figure3Row {
                benchmark: cell.benchmark,
                target_heart_rate: cell.target,
                no_adaptation: cell.candidate_ppw[no_adapt_candidate],
                uncoordinated: policies[3],
                seec: policies[2],
                static_oracle: policies[0],
                dynamic_oracle: policies[1],
            }
        });
        Figure3 { rows }
    }

    /// Geometric-mean ratio of SEEC to the static oracle across benchmarks —
    /// the multiplier Figure 4 applies to the Angstrom static oracle.
    pub fn seec_vs_static_oracle(&self) -> f64 {
        geometric_mean(
            self.rows
                .iter()
                .map(|r| safe_ratio(r.seec, r.static_oracle)),
        )
    }

    /// Geometric-mean ratio of SEEC to uncoordinated adaptation.
    fn seec_vs_uncoordinated(&self) -> f64 {
        geometric_mean(
            self.rows
                .iter()
                .map(|r| safe_ratio(r.seec, r.uncoordinated)),
        )
    }

    /// Geometric-mean fraction of the dynamic oracle that SEEC achieves.
    fn seec_fraction_of_dynamic_oracle(&self) -> f64 {
        geometric_mean(
            self.rows
                .iter()
                .map(|r| safe_ratio(r.seec, r.dynamic_oracle)),
        )
    }

    /// Renders the figure as an aligned text table of normalised values.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "benchmark  no_adapt  uncoord   seec    static  dynamic (all normalised to dynamic oracle)\n",
        );
        for row in &self.rows {
            let [na, un, se, dy] = row.normalized();
            let st = if row.dynamic_oracle > 0.0 {
                row.static_oracle / row.dynamic_oracle
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:9}  {:8.3}  {:7.3}  {:6.3}  {:6.3}  {:7.3}\n",
                row.benchmark.name(),
                na,
                un,
                se,
                st,
                dy
            ));
        }
        out.push_str(&format!(
            "\nSEEC vs uncoordinated: {:+.1}%   SEEC vs static oracle: {:+.1}%   SEEC / dynamic oracle: {:.1}%\n",
            (self.seec_vs_uncoordinated() - 1.0) * 100.0,
            (self.seec_vs_static_oracle() - 1.0) * 100.0,
            self.seec_fraction_of_dynamic_oracle() * 100.0,
        ));
        out
    }
}

fn safe_ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        1.0
    }
}

fn geometric_mean<I: Iterator<Item = f64>>(values: I) -> f64 {
    let mut product = 1.0;
    let mut count = 0usize;
    for v in values {
        if v > 0.0 {
            product *= v;
            count += 1;
        }
    }
    if count == 0 {
        1.0
    } else {
        product.powf(1.0 / count as f64)
    }
}

/// The three actuators of §5.2, described through the SEEC action interface.
/// The nominal setting is the launch configuration: one core at the minimum
/// clock with no forced idling.
///
/// The cores and active-cycles actuators declare the *server's*
/// utilisation-power exponent as a convex power prior
/// ([`ActuatorSpec::builder`]'s `axis_exponent`): on the calibrated R410
/// (`power_above_idle ∝ utilisation^1.15`) the declared joint powerup
/// `(cores · duty)^1.15 · clock_ratio^2.2` matches the platform exactly, so
/// SEEC's initial power beliefs are no longer systematically optimistic
/// under the convex model. The default server's exponent is 1.0, where the
/// prior is skipped entirely and the declared effects are bit-for-bit the
/// historical linear ones.
///
/// The specs belong to the platform, not to an application, so every call
/// over equal server parameters (core count, utilisation-power exponent,
/// P-state frequencies) shares one set of them: each actuator holds an
/// `Arc` of the server's spec, and only the current setting is per call.
/// A process-wide memo holds each live set weakly, so the specs are built
/// again only once every actuator over them has been dropped.
pub fn xeon_actuators(server: &XeonServer) -> Vec<Box<dyn Actuator>> {
    shared_xeon_specs(server)
        .into_iter()
        .map(|spec| Box::new(TableActuator::new(spec)) as Box<dyn Actuator>)
        .collect()
}

/// What a Xeon actuator set is a function of: the core count, the bits of
/// the utilisation-power exponent, and the bits of every P-state
/// frequency, fastest first.
#[derive(Debug)]
struct XeonSpecKey {
    cores: usize,
    utilization_exponent: u64,
    frequencies: Vec<u64>,
}

impl XeonSpecKey {
    fn of(server: &XeonServer) -> Self {
        XeonSpecKey {
            cores: server.total_cores(),
            utilization_exponent: server.utilization_power_exponent().to_bits(),
            frequencies: server
                .pstates()
                .frequencies()
                .iter()
                .map(|f| f.to_bits())
                .collect(),
        }
    }

    fn matches(&self, server: &XeonServer) -> bool {
        let frequencies = server.pstates().frequencies().iter().map(|f| f.to_bits());
        self.cores == server.total_cores()
            && self.utilization_exponent == server.utilization_power_exponent().to_bits()
            && self.frequencies.iter().copied().eq(frequencies)
    }
}

/// Live Xeon actuator sets (cores, clock, active cycles) by the server
/// parameters they were built from. Entries are weak, so the memo never
/// keeps a set alive, and dead ones are pruned on every miss.
static XEON_SPECS: Mutex<Vec<(XeonSpecKey, [Weak<ActuatorSpec>; 3])>> = Mutex::new(Vec::new());

/// The server's cores, clock and active-cycles specs: the live set built
/// for equal server parameters if some actuator still holds it, otherwise
/// a fresh [`xeon_specs`] build, registered for later callers.
fn shared_xeon_specs(server: &XeonServer) -> [Arc<ActuatorSpec>; 3] {
    // The memo holds only weak handles and a build panics before anything
    // is registered, so a poisoned lock is safe to reuse.
    let mut memo = XEON_SPECS.lock().unwrap_or_else(PoisonError::into_inner);
    let live = memo.iter().filter(|(key, _)| key.matches(server)).find_map(
        |(_, [cores, clock, cycles])| Some([cores.upgrade()?, clock.upgrade()?, cycles.upgrade()?]),
    );
    if let Some(specs) = live {
        return specs;
    }
    memo.retain(|(_, specs)| specs.iter().all(|spec| spec.strong_count() > 0));
    let specs = xeon_specs(server).map(Arc::new);
    memo.push((
        XeonSpecKey::of(server),
        specs.each_ref().map(Arc::downgrade),
    ));
    specs
}

/// Builds the three specs [`xeon_actuators`] hands out, in actuator order.
fn xeon_specs(server: &XeonServer) -> [ActuatorSpec; 3] {
    let min_freq = server.pstates().min_frequency();
    let utilization_exponent = server.utilization_power_exponent();
    let cores_spec = {
        let mut builder = ActuatorSpec::builder("cores")
            .scope(actuation::Scope::Global)
            .axis_exponent(Axis::Power, utilization_exponent);
        for n in 1..=server.total_cores() {
            builder = builder.setting(
                SettingSpec::new(format!("{n} cores"))
                    .effect(Axis::Performance, n as f64)
                    .effect(Axis::Power, n as f64),
            );
        }
        builder.nominal(0).delay(0.001).build().expect("valid spec")
    };
    let clock_spec = {
        // Settings ordered slowest-first so that the nominal (launch) setting
        // is index 0; setting index i maps to P-state (len - 1 - i).
        let mut builder = ActuatorSpec::builder("clock").scope(actuation::Scope::Global);
        let count = server.pstates().len();
        for i in 0..count {
            let freq = server
                .pstates()
                .frequency(count - 1 - i)
                .expect("index in range");
            let ratio = freq / min_freq;
            builder = builder.setting(
                SettingSpec::new(format!("{:.2} GHz", freq / 1.0e9))
                    .effect(Axis::Performance, ratio)
                    .effect(Axis::Power, ratio.powf(2.2)),
            );
        }
        builder.nominal(0).delay(0.01).build().expect("valid spec")
    };
    let idle_spec = {
        let mut builder = ActuatorSpec::builder("active-cycles")
            .scope(actuation::Scope::Application)
            .axis_exponent(Axis::Power, utilization_exponent);
        for step in 1..=10 {
            let duty = step as f64 / 10.0;
            builder = builder.setting(
                SettingSpec::new(format!("{:.0}%", duty * 100.0))
                    .effect(Axis::Performance, duty)
                    .effect(Axis::Power, duty),
            );
        }
        builder.nominal(9).delay(0.0).build().expect("valid spec")
    };
    [cores_spec, clock_spec, idle_spec]
}

/// Maps a SEEC joint configuration (cores, clock, active-cycles) onto the
/// server's configuration type.
pub fn map_configuration(server: &XeonServer, config: &Configuration) -> ServerConfiguration {
    let cores = config.setting(0).unwrap_or(0) + 1;
    let clock_setting = config.setting(1).unwrap_or(0);
    let pstate = server.pstates().len() - 1 - clock_setting.min(server.pstates().len() - 1);
    let duty = (config.setting(2).unwrap_or(9) + 1) as f64 / 10.0;
    ServerConfiguration::new(cores, pstate, duty)
}

/// The closed-loop arm of Figure 3 a [`run_closed_loop`] plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Adaptation {
    /// Coordinated SEEC: one runtime over the joint action space.
    Seec,
    /// Uncoordinated adaptation: one independent SEEC instance per
    /// actuator, each paying its own decision overhead.
    Uncoordinated,
}

/// The convex (goal-respecting) protocol's runtime tuning: anchored
/// estimation, the gentle [`CONVEX_PROTOCOL_KI`] integral made leaky by
/// `tuning.leak`, and belief aging at `tuning.belief_halflife`.
/// [`ConvexTuning::default`] is the protocol every fig5-family runtime uses.
pub(crate) fn convex_protocol(
    builder: SeecRuntimeBuilder,
    tuning: ConvexTuning,
) -> SeecRuntimeBuilder {
    builder
        .anchored_estimation(true)
        .belief_halflife(tuning.belief_halflife)
        .controller(
            PiController::new(1.0, CONVEX_PROTOCOL_KI, 1.0 / 64.0, 64.0).with_leak(tuning.leak),
        )
}

/// The runtime behind one closed-loop arm.
enum Controller {
    Seec(Box<SeecRuntime>),
    Uncoordinated(UncoordinatedRuntime),
}

/// Runs `benchmark` (its quanta memoized in `table`) under closed-loop
/// control, launched on one core at the minimum clock and aiming at
/// `target_heart_rate`.
///
/// Every configuration SEEC can reach lies on the grid, so each quantum is
/// an indexed lookup. Each quantum pays [`DECISION_OVERHEAD_SECONDS`] per
/// decision: the decision shares the main cores with the application on
/// this platform. `convex` picks the power protocol. `None` is the
/// historical linear protocol: beats and one power sample stamped at the
/// end of each quantum, default runtime tuning. `Some(tuning)` is the
/// convex (goal-respecting) protocol: beats and power interpolated across
/// the quantum ([`HeartbeatedWorkload::advance_metered`]), anchored
/// estimation and the [`CONVEX_PROTOCOL_KI`] integral, with `tuning`'s
/// leak and belief aging.
pub(crate) fn run_closed_loop(
    server: &XeonServer,
    benchmark: SplashBenchmark,
    table: &XeonEvalTable,
    target_heart_rate: f64,
    seed: u64,
    adaptation: Adaptation,
    convex: Option<ConvexTuning>,
) -> XeonRunOutcome {
    let mut app = HeartbeatedWorkload::new(Workload::new(benchmark, seed));
    app.set_heart_rate_goal(target_heart_rate);
    let monitor = app.monitor();
    let tune = |builder| match convex {
        Some(tuning) => convex_protocol(builder, tuning),
        None => builder,
    };
    let mut controller = match adaptation {
        Adaptation::Seec => Controller::Seec(Box::new(
            tune(
                SeecRuntime::builder(monitor.clone())
                    .actuators(xeon_actuators(server))
                    .seed(seed),
            )
            .build()
            .expect("actuators registered"),
        )),
        Adaptation::Uncoordinated => Controller::Uncoordinated(
            UncoordinatedRuntime::new_with(&monitor, xeon_actuators(server), seed, tune)
                .expect("actuators registered"),
        ),
    };
    let decisions = match &controller {
        Controller::Seec(_) => 1,
        Controller::Uncoordinated(runtime) => runtime.instances(),
    };
    let overhead = DECISION_OVERHEAD_SECONDS * decisions as f64;

    let mut now = 0.0;
    let mut outcome = OutcomeAccumulator::default();
    for quantum in 0..table.quanta_len() {
        let configuration = match &controller {
            Controller::Seec(runtime) => map_configuration(server, runtime.current_configuration()),
            Controller::Uncoordinated(runtime) => {
                map_configuration(server, &runtime.joint_configuration())
            }
        };
        let config = table
            .config_index(&configuration)
            .expect("SEEC configurations lie on the grid");
        let mut report = table.report(quantum, config);
        report.seconds += overhead;
        report.energy_joules += overhead * report.total_power_watts;
        let start = now;
        now += report.seconds;
        if convex.is_some() {
            app.advance_metered(start, now, report.work_units, report.power_above_idle_watts);
        } else {
            app.advance(now, report.work_units);
            monitor.record_power_sample(now, report.power_above_idle_watts);
        }
        match &mut controller {
            Controller::Seec(runtime) => {
                let _ = runtime.decide(now);
            }
            Controller::Uncoordinated(runtime) => {
                let _ = runtime.decide(now);
            }
        }
        outcome.push_report(&report);
    }
    outcome.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_fixed_on_xeon;

    #[test]
    fn actuator_specs_cover_the_papers_three_actions() {
        let server = XeonServer::dell_r410();
        let actuators = xeon_actuators(&server);
        assert_eq!(actuators.len(), 3);
        assert_eq!(actuators[0].spec().len(), 8);
        assert_eq!(actuators[1].spec().len(), 7);
        assert_eq!(actuators[2].spec().len(), 10);
        // Nominal joint configuration maps to the launch state: 1 core at
        // the minimum clock with no forced idling.
        let nominal = Configuration::new(vec![0, 0, 9]);
        let mapped = map_configuration(&server, &nominal);
        assert_eq!(mapped.cores, 1);
        assert_eq!(mapped.pstate_index, server.pstates().len() - 1);
        assert!((mapped.active_cycle_fraction - 1.0).abs() < 1e-12);
    }

    /// The two named servers every figure runs on.
    fn named_servers() -> [XeonServer; 2] {
        [XeonServer::dell_r410(), XeonServer::dell_r410_calibrated()]
    }

    /// Whether two actuator sets read the same spec storage, actuator by
    /// actuator.
    fn share_specs(a: &[Box<dyn Actuator>], b: &[Box<dyn Actuator>]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(a, b)| std::ptr::eq(a.spec(), b.spec()))
    }

    #[test]
    fn memoised_specs_equal_a_fresh_build() {
        for server in named_servers() {
            let fresh = xeon_specs(&server);
            let actuators = xeon_actuators(&server);
            assert_eq!(actuators.len(), fresh.len());
            for (actuator, fresh) in actuators.iter().zip(&fresh) {
                let spec = actuator.spec();
                // Names, labels, delays, scopes and exponents included.
                assert_eq!(spec, fresh);
                assert_eq!(spec.delay().to_bits(), fresh.delay().to_bits());
                for (index, setting) in fresh.settings().iter().enumerate() {
                    assert_eq!(spec.settings()[index].label(), setting.label());
                    for axis in [Axis::Performance, Axis::Power, Axis::Accuracy] {
                        assert_eq!(
                            spec.predicted_effect(index, axis).unwrap().to_bits(),
                            fresh.predicted_effect(index, axis).unwrap().to_bits()
                        );
                    }
                }
                assert_eq!(actuator.current(), fresh.nominal());
            }
        }
    }

    #[test]
    fn each_server_gets_its_own_specs_and_calls_share_them() {
        let [default, calibrated] = named_servers().map(|server| xeon_actuators(&server));
        assert!(!std::ptr::eq(default[0].spec(), calibrated[0].spec()));
        assert_ne!(default[0].spec(), calibrated[0].spec());
        assert_ne!(default[2].spec(), calibrated[2].spec());
        for server in named_servers() {
            let a = xeon_actuators(&server);
            let b = xeon_actuators(&server);
            assert!(share_specs(&a, &b));
        }
    }

    #[test]
    fn calls_from_four_threads_agree() {
        // The last server's exponent is unique to this test, so its four
        // calls race on one miss.
        let unique = XeonServer::dell_r410().with_utilization_power_exponent(1.000_733);
        let [default, calibrated] = named_servers();
        for server in [default, calibrated, unique] {
            let start = std::sync::Barrier::new(4);
            let sets: Vec<Vec<Box<dyn Actuator>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            xeon_actuators(&server)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for actuators in &sets {
                assert!(share_specs(&sets[0], actuators));
            }
            assert!(share_specs(&sets[0], &xeon_actuators(&server)));
            for (spec, fresh) in sets[0].iter().zip(xeon_specs(&server)) {
                assert_eq!(*spec.spec(), fresh);
            }
        }
    }

    /// Memo entries built for `server`'s parameters, dead or alive.
    fn entries_for(server: &XeonServer) -> usize {
        XEON_SPECS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(key, _)| key.matches(server))
            .count()
    }

    #[test]
    fn dropped_specs_are_not_kept_alive_and_rebuild() {
        // An exponent no other test uses, so no parallel test holds these
        // specs.
        let server = XeonServer::dell_r410().with_utilization_power_exponent(1.000_731);
        let first = shared_xeon_specs(&server);
        assert!(first.iter().all(|spec| Arc::strong_count(spec) == 1));
        let weak = first.each_ref().map(Arc::downgrade);
        drop(first);
        assert!(weak.iter().all(|spec| spec.upgrade().is_none()));
        let rebuilt = shared_xeon_specs(&server);
        assert!(rebuilt.iter().all(|spec| Arc::strong_count(spec) == 1));
        for (rebuilt, fresh) in rebuilt.iter().zip(xeon_specs(&server)) {
            assert_eq!(**rebuilt, fresh);
        }
        assert_eq!(entries_for(&server), 1);
        drop(rebuilt);
        // Any miss prunes every dead entry, this one included.
        let other = XeonServer::dell_r410().with_utilization_power_exponent(1.000_732);
        let _other = xeon_actuators(&other);
        assert_eq!(entries_for(&server), 0);
    }

    #[test]
    fn map_configuration_reaches_the_fastest_state() {
        let server = XeonServer::dell_r410();
        let fastest = Configuration::new(vec![7, 6, 9]);
        let mapped = map_configuration(&server, &fastest);
        assert_eq!(mapped.cores, 8);
        assert_eq!(mapped.pstate_index, 0);
        assert!((mapped.active_cycle_fraction - 1.0).abs() < 1e-12);
        assert!(mapped.validate(&server).is_ok());
    }

    #[test]
    fn seec_meets_goals_and_beats_uncoordinated_on_a_short_run() {
        let server = XeonServer::dell_r410();
        let benchmark = SplashBenchmark::Barnes;
        let quanta = Workload::new(benchmark, 9).quanta(40);
        let max_rate =
            run_fixed_on_xeon(&server, &quanta, &server.default_configuration()).heart_rate;
        let target = max_rate / 2.0;
        let table = XeonEvalTable::build(&server, &quanta);
        let run =
            |adaptation| run_closed_loop(&server, benchmark, &table, target, 9, adaptation, None);
        let seec = run(Adaptation::Seec);
        let uncoordinated = run(Adaptation::Uncoordinated);
        // A 40-quantum run still contains the start-up transient (the paper
        // launches every benchmark on one core at the minimum clock), so the
        // bounds here are looser than the steady-state figures.
        assert!(
            seec.heart_rate >= target * 0.6,
            "SEEC should approach the goal even in a short run: got {} of target {}",
            seec.heart_rate,
            target
        );
        assert!(
            seec.performance_per_watt(target) >= 0.9 * uncoordinated.performance_per_watt(target),
            "coordinated SEEC ({}) should not lose badly to uncoordinated adaptation ({})",
            seec.performance_per_watt(target),
            uncoordinated.performance_per_watt(target)
        );
    }

    #[test]
    fn calibrated_convex_protocol_recovers_seec_standing() {
        // Under the convex utilisation-power model with convex power priors
        // in the actuator specs, anchored estimation, and the
        // goal-respecting protocol, SEEC recovers to >= 0.8 of the dynamic
        // oracle (from 0.42 with the linear priors and drifting baseline)
        // and the paper's ordering is restored: uncoordinated adaptation
        // loses badly, the static oracle tracks the dynamic oracle, and
        // SEEC clearly beats the no-adaptation baseline on average.
        let fig = Figure3::compute_on(&XeonServer::dell_r410_calibrated(), 2012, QUANTA_PER_RUN);
        assert_eq!(fig.rows.len(), 5);
        let seec = fig.seec_fraction_of_dynamic_oracle();
        assert!(
            seec >= 0.8,
            "convex-protocol SEEC must reach >= 0.8 of the dynamic oracle, got {seec:.3}"
        );
        assert!(
            fig.seec_vs_uncoordinated() > 1.3,
            "SEEC must beat uncoordinated adaptation decisively, got {:.3}",
            fig.seec_vs_uncoordinated()
        );
        for row in &fig.rows {
            // The goal-respecting static oracle (min power meeting the
            // run-average target) can beat the *per-quantum greedy* dynamic
            // oracle by a hair on phase-heavy benchmarks, so the tie is
            // pinned as a band rather than an ordering.
            let ratio = row.static_oracle / row.dynamic_oracle;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{}: static oracle should track the dynamic oracle, ratio {ratio:.3}",
                row.benchmark
            );
            assert!(
                row.no_adaptation <= row.static_oracle * 1.001,
                "{}: the goal-respecting static oracle cannot lose to no adaptation",
                row.benchmark
            );
        }
        // The shared no-adaptation configuration is a compromise across
        // benchmarks: adaptation must win wherever that compromise binds
        // (it happens to sit at water's optimum, so not everywhere).
        let beats_no_adapt = fig.rows.iter().filter(|r| r.seec > r.no_adaptation).count();
        assert!(
            beats_no_adapt >= 3,
            "SEEC should beat the shared static configuration on most benchmarks, won {beats_no_adapt}/5"
        );
    }

    #[test]
    fn figure3_reproduces_the_papers_ordering() {
        // A reduced quantum count keeps the test fast while preserving shape.
        let fig = Figure3::compute_with(7, 30);
        assert_eq!(fig.rows.len(), 5);
        for row in &fig.rows {
            assert!(
                row.dynamic_oracle >= row.static_oracle * 0.999,
                "{}: dynamic oracle must dominate the static oracle",
                row.benchmark
            );
            assert!(
                row.static_oracle >= row.no_adaptation * 0.999,
                "{}: the static oracle adapts per benchmark and cannot lose to no adaptation",
                row.benchmark
            );
            assert!(row.seec > 0.0 && row.uncoordinated > 0.0);
            let [na, un, se, dy] = row.normalized();
            assert!(na <= 1.0 + 1e-9 && un <= 1.2 && se <= 1.0 + 1e-9);
            assert!((dy - 1.0).abs() < 1e-12);
        }
        assert!(
            fig.seec_vs_uncoordinated() > 1.0,
            "SEEC must outperform uncoordinated adaptation on average"
        );
        assert!(
            fig.seec_fraction_of_dynamic_oracle() <= 1.0 + 1e-9,
            "nothing beats the dynamic oracle"
        );
        assert!(fig.to_table().contains("barnes"));
    }
}
