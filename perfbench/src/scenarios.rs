//! The `scenarios` workload: the shipped figure pipelines at the workload
//! seed, then a fixed scenario-fuzz campaign through
//! `experiments::fuzz::probe_executor`.
//!
//! Set-up generates every scenario the pass consumes. A pass computes
//! Figure 3, Figure 5 (base and extended), the hierarchy figure, the chaos
//! figure and its enforcement projection, then runs the campaign. The
//! campaign is the same at every workload seed (fixed iterations, fixed
//! campaign seed), so its host times compare across seeds and its report
//! is pinned. Checks: every pass reproduces the first bit for bit; at the
//! default seed the canonical fig5-family outputs equal the committed
//! JSONs; at every seed the campaign report matches its pin and every
//! coordinated arm's simulated metrics are finite and in range.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use experiments::fig3::QUANTA_PER_RUN;
use experiments::{Figure3, Figure5, Figure5Hierarchy, FigureChaos, FigureEnforce};
use obs::{Counter, ObsSnapshot, Recorder, Stage};
use scenario_fuzz::{fuzz, FuzzConfig, FuzzReport};
use workloads::{Scenario, SplashBenchmark};

use crate::stats::{fastest, median, quantile, status_mb, Digest};
use crate::trace::{Span, Tracer};
use crate::{Args, Outcome, DEFAULT_SEED};

/// Mutation iterations of the campaign in every pass.
const FUZZ_ITERATIONS: u64 = 512;
/// The campaign's seed, whatever the workload seed.
const CAMPAIGN_SEED: u64 = DEFAULT_SEED;
/// Digest of the campaign report's JSON.
const PINNED_CAMPAIGN_DIGEST: u64 = 0x349a_bc90_88f3_646b;
/// Set-up repetitions after each pass (the reported set-up time is the
/// median of all of them).
const SETUP_SAMPLES_PER_PASS: usize = 101;
/// Passes every run makes: a warm-up pass whose host times are discarded,
/// then measured ones (a traced run alternates untraced and traced passes;
/// the untraced ones are the overhead baseline).
const MIN_PASSES: usize = 3;
/// Closed-loop cells per benchmark in Figure 3.
const FIG3_CELLS_PER_BENCHMARK: u64 = 4;
/// Cells per scenario: Figure 5 arms, hierarchy topologies, chaos regimes.
const FIG5_ARMS: u64 = 6;
const HIERARCHY_ARMS: u64 = 3;
const CHAOS_ARMS: u64 = 5;

/// Every input a pass consumes.
struct Inputs {
    mixes: Vec<Scenario>,
    extended: Vec<Scenario>,
    chaos: Vec<Scenario>,
    campaign_seeds: Vec<Scenario>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let mut campaign_seeds = workloads::scenario_mixes(CAMPAIGN_SEED);
        campaign_seeds.extend(workloads::vocabulary_mixes(CAMPAIGN_SEED));
        Inputs {
            mixes: workloads::scenario_mixes(seed),
            extended: workloads::extended_scenario_mixes(seed),
            chaos: workloads::chaos_mixes(seed),
            campaign_seeds,
        }
    }
}

/// Active app-quanta of one run of `scenario`.
fn app_quanta(scenario: &Scenario) -> u64 {
    (0..scenario.quanta)
        .map(|quantum| {
            scenario
                .apps
                .iter()
                .filter(|app| app.active_at(quantum))
                .count() as u64
        })
        .sum()
}

/// One coordinated arm's simulated outcome: goal attainment, cap violation
/// rate and performance per watt.
type Arm = (f64, f64, f64);

/// The outputs of one pass, in canonical (timing-free) form.
#[derive(Debug, PartialEq)]
struct Outputs {
    fig3: Figure3,
    fig5: Figure5,
    extended: Figure5,
    hierarchy: Figure5Hierarchy,
    chaos: FigureChaos,
    enforce: FigureEnforce,
    campaign: FuzzReport,
    /// The coordinated arm of every campaign execution.
    probes: Vec<Arm>,
}

/// What one pass measured.
struct Pass {
    traced: bool,
    outputs: Outputs,
    wall_s: f64,
    /// Host seconds of the pass's segments, in a fixed order: the five
    /// figure computations, every campaign execution, then the rest of the
    /// campaign (mutation and bookkeeping). Together they make `wall_s`.
    segments_s: Vec<f64>,
    /// Simulated quanta of each campaign execution.
    execution_quanta: Vec<usize>,
    app_quanta: u64,
    campaign_s: f64,
    obs: Option<ObsSnapshot>,
    dispatch_ns: Vec<u64>,
}

/// Leading entries of `Pass::segments_s` that are figure computations.
const FIGURE_SEGMENTS: usize = 5;

/// Runs `work` as span `span` and appends its host seconds to `segments`.
fn segment<T>(
    tracer: &mut Tracer,
    span: Span,
    segments: &mut Vec<f64>,
    work: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let output = tracer.time(span, work);
    segments.push(started.elapsed().as_secs_f64());
    output
}

fn pass(inputs: &Inputs, seed: u64, tracer: &mut Tracer) -> Pass {
    let traced = tracer.enabled();
    let recorder = traced.then(|| Arc::new(Recorder::null()));
    let mut snapshot = ObsSnapshot::empty();
    let dispatches = Arc::new(Mutex::new(Vec::new()));
    if traced {
        let sink = Arc::clone(&dispatches);
        exec::global_pool().set_dispatch_observer(Some(Arc::new(move |ns| {
            sink.lock().expect("dispatch log lock").push(ns);
        })));
    }
    let mut merge = |obs: Option<ObsSnapshot>| {
        if let Some(obs) = obs {
            snapshot.merge(&obs);
        }
    };

    let pass_span = tracer.begin(Span::Pass);
    let started = Instant::now();
    let mut segments = Vec::new();
    let fig3 = segment(tracer, Span::Fig3, &mut segments, || {
        Figure3::compute_with(seed, QUANTA_PER_RUN)
    });
    let (fig5, obs) = segment(tracer, Span::Fig5, &mut segments, || {
        Figure5::compute_scenarios_obs(&inputs.mixes, seed, traced)
    });
    merge(obs);
    let (extended, obs) = segment(tracer, Span::Fig5Extended, &mut segments, || {
        Figure5::compute_scenarios_obs(&inputs.extended, seed, traced)
    });
    merge(obs);
    let (hierarchy, obs) = segment(tracer, Span::Fig5Hierarchy, &mut segments, || {
        Figure5Hierarchy::compute_scenarios_obs(&inputs.extended, seed, traced)
    });
    merge(obs);
    let (chaos, enforce, obs) = segment(tracer, Span::Fig5Chaos, &mut segments, || {
        let (chaos, obs) = FigureChaos::compute_scenarios_obs(&inputs.chaos, seed, traced);
        let enforce = FigureEnforce::from_chaos(&chaos);
        (chaos, enforce, obs)
    });
    merge(obs);

    let mut execution_quanta = Vec::new();
    let mut probes = Vec::new();
    let mut campaign_app_quanta = 0;
    let mut probe = experiments::fuzz::probe_executor_obs(CAMPAIGN_SEED, recorder.clone());
    let config = FuzzConfig {
        seed: CAMPAIGN_SEED,
        iterations: FUZZ_ITERATIONS,
        ..FuzzConfig::default()
    };
    let campaign_span = tracer.begin(Span::FuzzCampaign);
    let campaign_started = Instant::now();
    let mut executor = |scenario: &Scenario| {
        let outcome = segment(tracer, Span::FuzzExecution, &mut segments, || {
            probe(scenario)
        });
        execution_quanta.push(scenario.quanta.max(1));
        probes.push((
            outcome.mean_attainment,
            outcome.cap_violation_fraction,
            outcome.perf_per_watt,
        ));
        // The probe runs the coordinated arm and its uncoordinated baseline.
        campaign_app_quanta += 2 * app_quanta(scenario);
        outcome
    };
    let (_, campaign) = fuzz(&config, &inputs.campaign_seeds, &mut executor);
    let campaign_s = campaign_started.elapsed().as_secs_f64();
    let executions_s: f64 = segments[FIGURE_SEGMENTS..].iter().sum();
    segments.push(campaign_s - executions_s);
    tracer.end(Span::FuzzCampaign, campaign_span);
    let wall_s = started.elapsed().as_secs_f64();
    tracer.end(Span::Pass, pass_span);
    if traced {
        exec::global_pool().set_dispatch_observer(None);
    }
    if let Some(recorder) = &recorder {
        snapshot.merge(&recorder.snapshot());
    }

    let total = |scenarios: &[Scenario]| scenarios.iter().map(app_quanta).sum::<u64>();
    let figure_app_quanta =
        SplashBenchmark::ALL.len() as u64 * FIG3_CELLS_PER_BENCHMARK * QUANTA_PER_RUN as u64
            + FIG5_ARMS * (total(&inputs.mixes) + total(&inputs.extended))
            + HIERARCHY_ARMS * total(&inputs.extended)
            + CHAOS_ARMS * total(&inputs.chaos);
    let dispatch_ns = std::mem::take(&mut *dispatches.lock().expect("dispatch log lock"));
    Pass {
        traced,
        outputs: Outputs {
            fig3,
            fig5: fig5.canonical(),
            extended: extended.canonical(),
            hierarchy: hierarchy.canonical(),
            chaos: chaos.canonical(),
            enforce,
            campaign,
            probes,
        },
        wall_s,
        segments_s: segments,
        execution_quanta,
        app_quanta: figure_app_quanta + campaign_app_quanta,
        campaign_s,
        obs: traced.then_some(snapshot),
        dispatch_ns,
    }
}

/// Reads a committed figure JSON from the repository root.
fn committed<T: serde::Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
    serde_json::from_str(&text).map_err(|err| format!("{path}: {err}"))
}

/// Every coordinated arm the pass simulated: the figures' coordinated
/// regimes, then the coordinated arm of every campaign execution.
fn coordinated_arms(outputs: &Outputs) -> Vec<Arm> {
    let mut arms = Vec::new();
    for figure in [&outputs.fig5, &outputs.extended] {
        for scenario in &figure.scenarios {
            for arm in &scenario.policies {
                arms.push((
                    arm.goal_attainment,
                    arm.cap_violation_rate,
                    arm.performance_per_watt,
                ));
            }
        }
    }
    for scenario in &outputs.hierarchy.scenarios {
        for arm in [&scenario.flat, &scenario.rack_coordinated] {
            arms.push((
                arm.goal_attainment,
                arm.cap_violation_rate,
                arm.performance_per_watt,
            ));
        }
    }
    for scenario in &outputs.chaos.scenarios {
        for arm in [
            &scenario.naive_audit,
            &scenario.naive_clamp,
            &scenario.degraded_audit,
            &scenario.degraded_clamp,
        ] {
            arms.push((
                arm.goal_attainment,
                arm.cap_violation_rate,
                arm.performance_per_watt,
            ));
        }
    }
    arms.extend_from_slice(&outputs.probes);
    arms
}

/// Digest of the campaign report's JSON.
fn campaign_digest(report: &FuzzReport) -> u64 {
    let mut digest = Digest::default();
    digest.bytes(
        serde_json::to_string(report)
            .expect("the fuzz report serialises")
            .as_bytes(),
    );
    digest.0
}

/// Checks one pass's outputs; returns how many of them failed.
fn check(outputs: &Outputs, first: &Outputs, seed: u64) -> u64 {
    let mut failed = 0;
    if outputs != first {
        eprintln!("scenarios: a pass diverged from the first pass");
        failed += 1;
    }
    let in_range = |value: f64| value.is_finite() && (0.0..=1.0).contains(&value);
    let out_of_range = coordinated_arms(outputs)
        .into_iter()
        .filter(|&(attainment, violation, perf_per_watt)| {
            !(in_range(attainment)
                && in_range(violation)
                && perf_per_watt.is_finite()
                && perf_per_watt >= 0.0)
        })
        .count();
    if out_of_range > 0 {
        eprintln!("scenarios: {out_of_range} coordinated arms with metrics out of range");
        failed += 1;
    }
    if outputs
        .fig3
        .rows
        .iter()
        .any(|row| !(row.seec.is_finite() && row.seec > 0.0))
    {
        eprintln!("scenarios: fig3 has a non-positive SEEC row");
        failed += 1;
    }
    let digest = campaign_digest(&outputs.campaign);
    if digest != PINNED_CAMPAIGN_DIGEST {
        eprintln!(
            "scenarios: campaign digest {digest:016x} differs from the pinned \
             {PINNED_CAMPAIGN_DIGEST:016x}"
        );
        failed += 1;
    }
    if seed == DEFAULT_SEED {
        let verdicts = [
            (
                "fig5.json",
                committed::<Figure5>("fig5.json").map(|f| f.canonical() == outputs.fig5),
            ),
            (
                "fig5_extended.json",
                committed::<Figure5>("fig5_extended.json")
                    .map(|f| f.canonical() == outputs.extended),
            ),
            (
                "fig5_hierarchy.json",
                committed::<Figure5Hierarchy>("fig5_hierarchy.json")
                    .map(|f| f.canonical() == outputs.hierarchy),
            ),
            (
                "fig5_chaos.json",
                committed::<FigureChaos>("fig5_chaos.json").map(|f| f.canonical() == outputs.chaos),
            ),
            (
                "fig5_enforce.json",
                committed::<FigureEnforce>("fig5_enforce.json").map(|f| f == outputs.enforce),
            ),
        ];
        for (path, verdict) in verdicts {
            match verdict {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("scenarios: {path} differs from the computed figure");
                    failed += 1;
                }
                Err(err) => {
                    eprintln!("scenarios: cannot read {err}");
                    failed += 1;
                }
            }
        }
    }
    failed
}

/// Runs set-up and passes until `--seconds` is spent and reports the
/// workload's metrics.
pub fn run(args: &Args) -> Outcome {
    let run_started = Instant::now();
    let mut inputs = Inputs::generate(args.seed);
    let setup_rss_mb = status_mb("VmRSS");
    let mut setup = Vec::new();
    let mut tracer = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        tracer.set_enabled(args.trace && passes.len() >= 2 && passes.len().is_multiple_of(2));
        passes.push(pass(&inputs, args.seed, &mut tracer));
        // Set-up is sampled after every pass, so the samples spread over the
        // whole run instead of one short stretch of the host's speed.
        for _ in 0..SETUP_SAMPLES_PER_PASS {
            let started = Instant::now();
            inputs = Inputs::generate(args.seed);
            setup.push(started.elapsed().as_secs_f64());
        }
        let elapsed = run_started.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= MIN_PASSES && elapsed + per_pass > args.seconds {
            break;
        }
    }

    let mut outcome = Outcome::default();
    let first = &passes[0].outputs;
    for (index, pass) in passes.iter().enumerate() {
        eprintln!("scenarios: pass {index}: {:.4} s", pass.wall_s);
        // Seven outputs per pass: six figures and the campaign report.
        outcome.attempted += 7;
        outcome.failed += check(&pass.outputs, first, args.seed);
    }
    eprintln!(
        "scenarios: seed {}, {} passes, campaign digest {:016x}, {} executions per pass",
        args.seed,
        passes.len(),
        campaign_digest(&first.campaign),
        first.probes.len()
    );

    let metrics = &mut outcome.metrics;
    let measured = &passes[1..];
    if !args.trace {
        // Every pass repeats the same work, so each segment's host time is
        // the fastest of its repeats (the shared host's speed swings by up
        // to 2x over seconds; the slower repeats measure the neighbours).
        let segments = fastest(measured.iter().map(|pass| pass.segments_s.as_slice()));
        let wall: f64 = segments.iter().sum();
        let per_quantum: Vec<f64> = segments[FIGURE_SEGMENTS..]
            .iter()
            .zip(&passes[0].execution_quanta)
            .map(|(seconds, &quanta)| seconds * 1e3 / quanta as f64)
            .collect();
        let arms = coordinated_arms(first);
        let mean = |pick: fn(&Arm) -> f64| arms.iter().map(pick).sum::<f64>() / arms.len() as f64;
        metrics.insert("setup_s", median(&setup));
        metrics.insert("wall_s", wall);
        metrics.insert("quantum_p50_ms", quantile(&per_quantum, 0.5));
        metrics.insert("quantum_p90_ms", quantile(&per_quantum, 0.9));
        metrics.insert(
            "app_quanta_per_s",
            passes[0].app_quanta as f64 / wall,
        );
        metrics.insert("peak_rss_mb", status_mb("VmHWM"));
        metrics.insert("goal_attainment_pct", 100.0 * mean(|arm| arm.0));
        // The figures' coordinated regimes hold the cap at most seeds, so the
        // violation share is taken over the campaign's probes alone (the
        // campaign is the same at every seed).
        let probes = &first.probes;
        let violation = probes.iter().map(|arm| arm.1).sum::<f64>() / probes.len() as f64;
        metrics.insert("cap_violation_pct", 100.0 * violation);
        metrics.insert("perf_per_watt", mean(|arm| arm.2));
        return outcome;
    }

    // ---- The traced run: per-layer metrics from the traced passes.
    let traced: Vec<&Pass> = measured.iter().filter(|pass| pass.traced).collect();
    let per_pass = 1.0 / traced.len() as f64;
    let mut snapshot = ObsSnapshot::empty();
    let mut dispatch_ns: Vec<u64> = Vec::new();
    for pass in &traced {
        if let Some(obs) = &pass.obs {
            snapshot.merge(obs);
        }
        dispatch_ns.extend_from_slice(&pass.dispatch_ns);
    }
    let counter = |counter: Counter| snapshot.counter(counter) as f64 * per_pass;
    let stage_us = |stage: Stage| snapshot.stage(stage).mean_ns() / 1e3;
    let slept = counter(Counter::AppsSlept);
    let active = slept
        + counter(Counter::AppsSkipped)
        + counter(Counter::AppsRearbitrated)
        + counter(Counter::AppsDecided);
    let changed = counter(Counter::AwardsChanged);
    let held = counter(Counter::AwardsHeld);
    let seconds = |span: Span| tracer.quantile_ns(span, 0.5) / 1e9;
    let campaign: Vec<f64> = traced.iter().map(|pass| pass.campaign_s).collect();
    let executions_per_s: Vec<f64> = traced
        .iter()
        .map(|pass| pass.outputs.probes.len() as f64 / pass.campaign_s)
        .collect();
    let traced_wall: Vec<f64> = traced.iter().map(|pass| pass.wall_s).collect();
    let untraced_wall: Vec<f64> = measured
        .iter()
        .filter(|pass| !pass.traced)
        .map(|pass| pass.wall_s)
        .collect();
    metrics.insert(
        "seec.decision_ns",
        snapshot.stage(Stage::Decision).mean_ns(),
    );
    metrics.insert(
        "seec.decisions",
        snapshot.stage(Stage::Decision).count as f64 * per_pass,
    );
    metrics.insert("coordinator.step_ms", stage_us(Stage::Step) / 1e3);
    metrics.insert(
        "coordinator.step_p90_ms",
        snapshot.stage(Stage::Step).quantile_ns(0.9) as f64 / 1e6,
    );
    metrics.insert("coordinator.observe_us", stage_us(Stage::Observe));
    metrics.insert("coordinator.arbitrate_us", stage_us(Stage::Arbitrate));
    metrics.insert("coordinator.decide_us", stage_us(Stage::Decide));
    metrics.insert("coordinator.summarise_us", stage_us(Stage::Summarise));
    metrics.insert("coordinator.apps_slept", slept);
    metrics.insert("coordinator.apps_skipped", counter(Counter::AppsSkipped));
    metrics.insert(
        "coordinator.apps_rearbitrated",
        counter(Counter::AppsRearbitrated),
    );
    metrics.insert("coordinator.apps_decided", counter(Counter::AppsDecided));
    metrics.insert(
        "coordinator.awake_ratio",
        (active - slept) / active.max(1.0),
    );
    metrics.insert(
        "coordinator.awards_changed_ratio",
        changed / (changed + held).max(1.0),
    );
    metrics.insert("coordinator.quarantines", counter(Counter::Quarantines));
    metrics.insert("coordinator.readmissions", counter(Counter::Readmissions));
    metrics.insert(
        "coordinator.datacenter_step_us",
        stage_us(Stage::DatacenterStep),
    );
    metrics.insert("exec.dispatches", dispatch_ns.len() as f64 * per_pass);
    let dispatch_us: Vec<f64> = dispatch_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    metrics.insert("exec.dispatch_us", quantile(&dispatch_us, 0.5));
    metrics.insert("experiments.fig3_s", seconds(Span::Fig3));
    metrics.insert("experiments.fig5_s", seconds(Span::Fig5));
    metrics.insert("experiments.fig5_extended_s", seconds(Span::Fig5Extended));
    metrics.insert("experiments.fig5_hierarchy_s", seconds(Span::Fig5Hierarchy));
    metrics.insert("experiments.fig5_chaos_s", seconds(Span::Fig5Chaos));
    metrics.insert("scenario_fuzz.campaign_s", median(&campaign));
    metrics.insert("scenario_fuzz.executions_per_s", median(&executions_per_s));
    metrics.insert(
        "obs.trace_overhead_pct",
        (median(&traced_wall) / median(&untraced_wall) - 1.0) * 100.0,
    );
    metrics.insert("process.setup_rss_mb", setup_rss_mb);
    crate::write_trace(&tracer, args);
    outcome
}
