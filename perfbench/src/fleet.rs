//! The two fleet workloads: a real `Coordinator` in a closed loop, with the
//! benchmark playing the platform.
//!
//! Each quantum the benchmark (1) computes, outside the timed region, what
//! every present app did in the configuration its runtime applied — work
//! and power from that configuration's declared effects times the app's
//! phase factor — and plans the quantum's lifecycle; (2) times every
//! present app's `advance`, the retirements, launches and budget change,
//! and `Coordinator::step`; (3) checks the awards with the
//! `coordinator::invariants` oracles and folds them into the digest, again
//! outside the timed region.
//!
//! A run repeats one fixed-length episode (fresh fleet, same seed) until
//! its time is up, so every episode must reproduce the first bit for bit,
//! and the set-up time is sampled once per episode. The first episode is a
//! warm-up: its host times are discarded. Simulated metrics and the digest
//! cover every quantum of an episode; host times skip its leading warm-up
//! quanta. Since every episode repeats the same quanta, a quantum's host
//! time is the fastest of its repeats: the shared host's speed swings by up
//! to 2x over seconds, and the slower repeats measure the neighbours.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use actuation::{Actuator, ActuatorSpec, Axis, SettingSpec, TableActuator};
use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, check_summary_total, AwardedApp,
};
use coordinator::{
    AppHandle, Coordinator, ManagedApp, PerformanceMarket, WakeConfig, WatchdogConfig,
};
use exec::ExecPool;
use obs::{Counter, ObsSnapshot, Recorder, Stage};
use seec::SeecRuntime;
use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};
use xeon_sim::XeonServer;

use crate::stats::{fastest, median, quantile, status_mb, Digest, Rng};
use crate::trace::{Span, Tracer};
use crate::{Args, Outcome, DEFAULT_SEED};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Ten thousand cheap apps; tolerance, wake scheduler, watchdog.
    Steady,
    /// A few thousand apps over the 560-configuration Xeon space; the full
    /// fold, two pool workers, admission control, watchdog, faults.
    Churn,
}

/// The shape of one workload's episode.
struct Spec {
    name: &'static str,
    /// Decorrelates this workload's input stream from the others'.
    salt: u64,
    /// Apps present at set-up (and the target the launches refill to).
    apps: usize,
    /// Range of the apps' heart-rate goals, in beats per second (one beat
    /// per work unit, so also the work per quantum near the goal).
    goal: (f64, f64),
    /// Quanta per episode.
    quanta: usize,
    /// Leading quanta excluded from the host-time metrics.
    warmup: usize,
    /// Share of present apps changing phase each quantum.
    phase_change: f64,
    /// Share of present apps retired (and replaced) each quantum.
    churn: f64,
    /// Share of launched apps that stall or misreport power for a while.
    fault_share: f64,
    /// The budget as a share of the fleet's expected nominal power.
    budget_share: f64,
    /// Digest of every award and decision at the default seed.
    pinned_digest: u64,
}

const STEADY: Spec = Spec {
    name: "fleet-steady",
    salt: 0x5eed_0001,
    apps: 10_000,
    goal: (2.0, 5.0),
    quanta: 128,
    warmup: 16,
    phase_change: 0.01,
    churn: 0.001,
    fault_share: 0.0,
    budget_share: 0.95,
    pinned_digest: 0x4aca_1985_15a9_db9a,
};

const CHURN: Spec = Spec {
    name: "fleet-churn",
    salt: 0x5eed_0002,
    apps: 2_000,
    goal: (8.0, 16.0),
    quanta: 48,
    warmup: 8,
    phase_change: 0.01,
    churn: 0.05,
    fault_share: 0.02,
    budget_share: 0.9,
    pinned_digest: 0x2189_e59a_041b_5e7f,
};

/// Simulated seconds per quantum.
const DT: f64 = 1.0;
/// The coordinator's default budget headroom (the share it hands out).
const HEADROOM: f64 = 0.95;
/// Phase factors an app moves between (work and power both scale).
const PHASES: [f64; 5] = [0.7, 0.85, 1.0, 1.15, 1.3];
/// Budget staircase of the churn workload, as shares of its base budget.
const STAIRCASE: [f64; 4] = [1.0, 0.85, 0.7, 0.85];
/// Quanta per staircase step.
const STAIR_QUANTA: usize = 8;
/// Power a misreporting app claims, as a multiple of what it draws.
const MISREPORT: f64 = 4.0;
/// Pool workers of the churn workload.
const CHURN_WORKERS: usize = 2;
/// Episodes every run makes: a warm-up episode whose host times are
/// discarded, then measured ones (a traced run alternates untraced and
/// traced episodes; the untraced ones are the overhead baseline).
const MIN_EPISODES: usize = 3;
/// Expected nominal power of one app, the mean of its draw range.
const MEAN_NOMINAL_WATTS: f64 = 6.5;

/// A stall (no reports) or a power misreport over a window of app age.
#[derive(Debug, Clone, Copy)]
struct Fault {
    misreport: bool,
    from: usize,
    until: usize,
}

/// Everything drawn for one app before it is built.
#[derive(Debug, Clone, Copy)]
struct Launch {
    benchmark: SplashBenchmark,
    seed: u64,
    goal: f64,
    base_rate: f64,
    base_power: f64,
    weight: f64,
    fault: Option<Fault>,
}

impl Launch {
    fn draw(rng: &mut Rng, spec: &Spec) -> Self {
        let goal = rng.range(spec.goal.0, spec.goal.1);
        let fault = (rng.unit() < spec.fault_share).then(|| {
            let from = 9 + rng.below(4);
            Fault {
                misreport: rng.unit() < 0.5,
                from,
                until: from + 6 + rng.below(4),
            }
        });
        Launch {
            benchmark: SplashBenchmark::ALL[rng.below(SplashBenchmark::ALL.len())],
            seed: rng.next_u64(),
            goal,
            base_rate: goal * rng.range(0.55, 1.25),
            base_power: rng.range(4.0, 9.0),
            weight: 1.0 + rng.below(3) as f64,
            fault,
        }
    }
}

/// One present app, as the platform sees it.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    handle: AppHandle,
    launch: Launch,
    phase: f64,
    /// Quanta since launch.
    age: usize,
}

/// A DVFS x cores grid of 9 configurations, built through `ActuatorSpec`.
fn small_table() -> Vec<Box<dyn Actuator>> {
    let dvfs = ActuatorSpec::builder("dvfs")
        .setting(
            SettingSpec::new("slow")
                .effect(Axis::Performance, 0.6)
                .effect(Axis::Power, 0.45),
        )
        .setting(SettingSpec::new("nominal"))
        .setting(
            SettingSpec::new("fast")
                .effect(Axis::Performance, 1.35)
                .effect(Axis::Power, 1.8),
        )
        .nominal(1)
        .build()
        .expect("valid dvfs spec");
    let cores = ActuatorSpec::builder("cores")
        .setting(SettingSpec::new("1"))
        .setting(
            SettingSpec::new("2")
                .effect(Axis::Performance, 1.8)
                .effect(Axis::Power, 1.9),
        )
        .setting(
            SettingSpec::new("4")
                .effect(Axis::Performance, 3.0)
                .effect(Axis::Power, 3.6),
        )
        .build()
        .expect("valid cores spec");
    vec![
        Box::new(TableActuator::new(dvfs)),
        Box::new(TableActuator::new(cores)),
    ]
}

/// Builds one app: its heartbeat driver and a fresh SEEC runtime (the
/// runtime construction is a span of its own).
fn build_app(kind: Kind, launch: &Launch, server: &XeonServer, tracer: &mut Tracer) -> ManagedApp {
    let driver = HeartbeatedWorkload::new(Workload::new(launch.benchmark, launch.seed));
    driver.set_heart_rate_goal(launch.goal);
    let monitor = driver.monitor();
    let runtime = tracer.time(Span::RuntimeBuild, || {
        let actuators = match kind {
            Kind::Steady => small_table(),
            Kind::Churn => experiments::fig3::xeon_actuators(server),
        };
        SeecRuntime::builder(monitor)
            .actuators(actuators)
            .seed(launch.seed)
            .build()
            .expect("actuators registered")
    });
    ManagedApp::new(driver, runtime)
        .with_weight(launch.weight)
        .with_nominal_power_hint(launch.base_power)
}

/// Simulated totals of one episode; bit-identical across episodes.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Simulated {
    /// Σ over app-quanta of min(delivered rate / goal, 1).
    attainment: f64,
    app_quanta: u64,
    /// Σ over quanta of the machine's drawn power, in watts.
    drawn_watts: f64,
    violations: u64,
    quanta: u64,
}

/// What one episode measured.
#[derive(Debug, Default)]
struct Episode {
    traced: bool,
    setup_s: f64,
    setup_rss_mb: f64,
    /// Host seconds of each quantum past the warm-up.
    quantum_s: Vec<f64>,
    timed_app_quanta: u64,
    sim: Simulated,
    digest: u64,
    steps: u64,
    failed: u64,
    /// Active app-quanta the benchmark counted itself (every quantum).
    active_app_quanta: u64,
    launches: u64,
    rejections: u64,
    obs: Option<ObsSnapshot>,
    dispatch_ns: Vec<u64>,
}

impl Episode {
    fn timed_s(&self) -> f64 {
        self.quantum_s.iter().sum()
    }
}

fn episode(
    kind: Kind,
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    pool: Option<&Arc<ExecPool>>,
) -> Episode {
    let traced = tracer.enabled();
    let mut rng = Rng::new(seed, spec.salt);
    let server = XeonServer::dell_r410_calibrated();
    let base_budget = spec.budget_share * spec.apps as f64 * MEAN_NOMINAL_WATTS;
    let mut result = Episode {
        traced,
        ..Episode::default()
    };

    // ---- Set-up: the fleet is built and registered.
    let setup_started = Instant::now();
    let setup_span = tracer.begin(Span::Setup);
    let mut coordinator = Coordinator::new(base_budget, Box::new(PerformanceMarket::default()))
        .with_watchdog(WatchdogConfig::default());
    coordinator = match kind {
        Kind::Steady => coordinator
            .with_arbitration_tolerance(0.05)
            .with_wake_schedule(WakeConfig {
                steady_quanta: 2,
                horizon: 32,
            }),
        Kind::Churn => coordinator
            .with_pool(Arc::clone(
                pool.expect("the churn workload shards across a pool"),
            ))
            .with_admission_control(true)
            .with_admission_feasibility(true),
    };
    let mut tenants = Vec::with_capacity(spec.apps);
    for _ in 0..spec.apps {
        let launch = Launch::draw(&mut rng, spec);
        let app = build_app(kind, &launch, &server, tracer);
        let handle = tracer.time(Span::Register, || coordinator.register(app));
        tenants.push(Tenant {
            handle,
            launch,
            phase: 1.0,
            age: 0,
        });
    }
    tracer.end(Span::Setup, setup_span);
    result.setup_s = setup_started.elapsed().as_secs_f64();
    result.setup_rss_mb = status_mb("VmRSS");

    // ---- Telemetry of the traced run: the program's own recorder, and the
    // dispatch observer of the pool that is in play.
    let recorder = traced.then(|| Arc::new(Recorder::null()));
    coordinator.set_obs(recorder.clone());
    let dispatches = Arc::new(Mutex::new(Vec::new()));
    let observed_pool: &ExecPool = match pool {
        Some(pool) => pool,
        None => exec::global_pool(),
    };
    if traced {
        let sink = Arc::clone(&dispatches);
        observed_pool.set_dispatch_observer(Some(Arc::new(move |ns| {
            sink.lock().expect("dispatch log lock").push(ns);
        })));
    }

    let mut digest = Digest::default();
    let mut reports: Vec<(AppHandle, f64, f64)> = Vec::with_capacity(spec.apps);
    let mut retirees: Vec<AppHandle> = Vec::new();
    let mut launches: Vec<Launch> = Vec::new();
    let mut slots: Vec<AwardedApp> = Vec::new();
    for quantum in 0..spec.quanta {
        let start = quantum as f64 * DT;
        let end = start + DT;

        // ---- Platform (untimed): each present app ran one quantum in the
        // configuration its runtime applied.
        reports.clear();
        let mut drawn = 0.0;
        for tenant in &mut tenants {
            let runtime = coordinator.app(tenant.handle).runtime();
            let effect = runtime
                .model()
                .table()
                .declared_effect(runtime.current_config_id());
            let launch = &tenant.launch;
            let rate = launch.base_rate * tenant.phase * effect.performance;
            let power = launch.base_power * tenant.phase * effect.power;
            drawn += power;
            let fault = launch
                .fault
                .filter(|fault| (fault.from..fault.until).contains(&tenant.age));
            match fault {
                Some(fault) if !fault.misreport => {}
                Some(_) => {
                    reports.push((tenant.handle, rate * DT, power * MISREPORT));
                    result.sim.attainment += (rate / launch.goal).min(1.0);
                }
                None => {
                    reports.push((tenant.handle, rate * DT, power));
                    result.sim.attainment += (rate / launch.goal).min(1.0);
                }
            }
            tenant.age += 1;
        }
        result.sim.app_quanta += tenants.len() as u64;
        result.sim.drawn_watts += drawn;
        result.sim.quanta += 1;
        if drawn > coordinator.budget_watts() {
            result.sim.violations += 1;
        }

        // Phase changes, retirements and launches for this quantum.
        let changes = (tenants.len() as f64 * spec.phase_change).round() as usize;
        for _ in 0..changes {
            let index = rng.below(tenants.len());
            tenants[index].phase = PHASES[rng.below(PHASES.len())];
        }
        retirees.clear();
        let retiring = (tenants.len() as f64 * spec.churn).round() as usize;
        for _ in 0..retiring {
            retirees.push(tenants.swap_remove(rng.below(tenants.len())).handle);
        }
        launches.clear();
        launches.extend((tenants.len()..spec.apps).map(|_| Launch::draw(&mut rng, spec)));
        let budget = match kind {
            Kind::Steady => None,
            Kind::Churn => {
                Some(base_budget * STAIRCASE[(quantum / STAIR_QUANTA) % STAIRCASE.len()])
                    .filter(|&budget| budget != coordinator.budget_watts())
            }
        };

        // ---- The timed quantum.
        let quantum_span = tracer.begin(Span::Quantum);
        let started = Instant::now();
        for &(handle, work, power) in &reports {
            tracer.time(Span::Advance, || {
                coordinator.advance(handle, start, end, work, power)
            });
        }
        for &handle in &retirees {
            tracer.time(Span::Retire, || coordinator.retire(handle));
        }
        for launch in &launches {
            let app = build_app(kind, launch, &server, tracer);
            let admitted = tracer.time(Span::Register, || match kind {
                Kind::Steady => Ok(coordinator.register(app)),
                Kind::Churn => coordinator.try_register(app),
            });
            result.launches += 1;
            match admitted {
                Ok(handle) => tenants.push(Tenant {
                    handle,
                    launch: *launch,
                    phase: 1.0,
                    age: 0,
                }),
                Err(_) => result.rejections += 1,
            }
        }
        if let Some(budget) = budget {
            tracer.time(Span::SetBudget, || coordinator.set_budget(budget));
        }
        let stepped = tracer.time(Span::Step, || {
            catch_unwind(AssertUnwindSafe(|| coordinator.step(end)))
        });
        let elapsed = started.elapsed().as_secs_f64();
        tracer.end(Span::Quantum, quantum_span);

        // ---- Oracles and digest (untimed).
        result.steps += 1;
        let summary = match stepped {
            Ok(Ok(summary)) => summary,
            Ok(Err(err)) => {
                eprintln!("{}: step {quantum} failed: {err}", spec.name);
                result.failed += 1;
                continue;
            }
            Err(_) => {
                eprintln!("{}: step {quantum} panicked", spec.name);
                result.failed += 1;
                break;
            }
        };
        if quantum >= spec.warmup {
            result.quantum_s.push(elapsed);
            result.timed_app_quanta += summary.active_apps as u64;
        }
        result.active_app_quanta += tenants.len() as u64;
        slots.clear();
        slots.extend((0..coordinator.len()).map(|index| {
            AwardedApp {
                active: coordinator
                    .app(AppHandle::from_index(index))
                    .active_at(summary.quantum),
                ceiling: None,
            }
        }));
        let awards = coordinator.awards();
        let mut violations = check_award_vector(awards, &slots);
        let total = active_total(awards, &slots);
        violations.extend(check_budget_conservation(
            total,
            coordinator.budget_watts() * HEADROOM,
        ));
        violations.extend(check_summary_total(summary.awarded_watts_total, total));
        if summary.active_apps != tenants.len() {
            eprintln!(
                "{}: quantum {quantum}: {} active apps, the platform counts {}",
                spec.name,
                summary.active_apps,
                tenants.len()
            );
            result.failed += 1;
        } else if let Some(violation) = violations.first() {
            eprintln!("{}: quantum {quantum}: {violation:?}", spec.name);
            result.failed += 1;
        }
        for award in awards {
            digest.word(award.to_bits());
        }
        for tenant in &tenants {
            if let Some(decision) = coordinator.app(tenant.handle).last_decision() {
                digest.word(u64::from(decision.configuration.0));
                digest.word(decision.required_speedup.to_bits());
                digest.word(decision.believed_powerup.to_bits());
            }
        }
    }
    result.digest = digest.0;
    if let Some(recorder) = recorder {
        observed_pool.set_dispatch_observer(None);
        let obs = recorder.snapshot();
        result.dispatch_ns = std::mem::take(&mut *dispatches.lock().expect("dispatch log lock"));
        // Ledger reconciliation: every active app-quantum lands in exactly
        // one of the four decide counters. Then the two bypass predictions.
        let ledger: u64 = [
            Counter::AppsSlept,
            Counter::AppsSkipped,
            Counter::AppsRearbitrated,
            Counter::AppsDecided,
        ]
        .into_iter()
        .map(|counter| obs.counter(counter))
        .sum();
        if ledger != result.active_app_quanta {
            eprintln!(
                "{}: the decide ledger books {ledger} app-quanta, the platform counts {}",
                spec.name, result.active_app_quanta
            );
            result.failed += 1;
        }
        if kind == Kind::Churn && obs.counter(Counter::AppsSlept) != 0 {
            eprintln!("{}: apps slept with the wake scheduler off", spec.name);
            result.failed += 1;
        }
        if kind == Kind::Steady && !result.dispatch_ns.is_empty() {
            eprintln!("{}: pool dispatches with one worker", spec.name);
            result.failed += 1;
        }
        result.obs = Some(obs);
    }
    result
}

/// Runs episodes of `kind` until `--seconds` is spent and reports its
/// metrics (see the crate docs for which set).
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let spec = match kind {
        Kind::Steady => &STEADY,
        Kind::Churn => &CHURN,
    };
    let run_started = Instant::now();
    let pool = (kind == Kind::Churn).then(|| Arc::new(ExecPool::new(CHURN_WORKERS)));
    let mut tracer = Tracer::new(false);
    let mut episodes: Vec<Episode> = Vec::new();
    loop {
        tracer.set_enabled(args.trace && episodes.len() >= 2 && episodes.len().is_multiple_of(2));
        episodes.push(episode(kind, spec, args.seed, &mut tracer, pool.as_ref()));
        let elapsed = run_started.elapsed().as_secs_f64();
        let per_episode = elapsed / episodes.len() as f64;
        if episodes.len() >= MIN_EPISODES && elapsed + per_episode > args.seconds {
            break;
        }
    }

    let mut outcome = Outcome::default();
    let first = &episodes[0];
    for (index, episode) in episodes.iter().enumerate() {
        eprintln!(
            "{}: episode {index}: set-up {:.4} s, timed quanta {:.4} s",
            spec.name,
            episode.setup_s,
            episode.timed_s()
        );
        outcome.attempted += episode.steps;
        outcome.failed += episode.failed;
        if episode.digest != first.digest || episode.sim != first.sim {
            eprintln!("{}: episode {index} diverged from episode 0", spec.name);
            outcome.failed += 1;
        }
    }
    eprintln!(
        "{}: seed {} digest {:016x}, {} episodes, {} quanta each",
        spec.name,
        args.seed,
        first.digest,
        episodes.len(),
        spec.quanta
    );
    if args.seed == DEFAULT_SEED && first.digest != spec.pinned_digest {
        eprintln!(
            "{}: digest {:016x} differs from the pinned {:016x}",
            spec.name, first.digest, spec.pinned_digest
        );
        outcome.failed += 1;
    }

    let metrics = &mut outcome.metrics;
    let measured = &episodes[1..];
    if !args.trace {
        let setup: Vec<f64> = measured.iter().map(|episode| episode.setup_s).collect();
        let quanta = fastest(measured.iter().map(|episode| episode.quantum_s.as_slice()));
        let wall: f64 = quanta.iter().sum();
        // Every episode is the same work, so throughput is per fastest episode.
        let app_quanta = first.timed_app_quanta as f64;
        let sim = first.sim;
        metrics.insert("setup_s", median(&setup));
        metrics.insert("wall_s", wall);
        metrics.insert("quantum_p50_ms", quantile(&quanta, 0.5) * 1e3);
        metrics.insert("quantum_p90_ms", quantile(&quanta, 0.9) * 1e3);
        metrics.insert("app_quanta_per_s", app_quanta / wall);
        metrics.insert("peak_rss_mb", status_mb("VmHWM"));
        metrics.insert(
            "goal_attainment_pct",
            100.0 * sim.attainment / sim.app_quanta as f64,
        );
        metrics.insert(
            "cap_violation_pct",
            100.0 * sim.violations as f64 / sim.quanta as f64,
        );
        metrics.insert("perf_per_watt", sim.attainment / sim.drawn_watts);
        return outcome;
    }

    // ---- The traced run: per-layer metrics from the traced episodes.
    let traced: Vec<&Episode> = episodes.iter().filter(|episode| episode.traced).collect();
    let per_episode = 1.0 / traced.len() as f64;
    let mut snapshot = ObsSnapshot::empty();
    let mut dispatch_ns: Vec<u64> = Vec::new();
    for episode in &traced {
        if let Some(obs) = &episode.obs {
            snapshot.merge(obs);
        }
        dispatch_ns.extend_from_slice(&episode.dispatch_ns);
    }
    let counter = |counter: Counter| snapshot.counter(counter) as f64 * per_episode;
    let stage_us = |stage: Stage| snapshot.stage(stage).mean_ns() / 1e3;
    let slept = counter(Counter::AppsSlept);
    let skipped = counter(Counter::AppsSkipped);
    let rearbitrated = counter(Counter::AppsRearbitrated);
    let decided = counter(Counter::AppsDecided);
    let active = traced[0].active_app_quanta as f64;
    let changed = counter(Counter::AwardsChanged);
    let held = counter(Counter::AwardsHeld);
    let launches: u64 = traced.iter().map(|episode| episode.launches).sum();
    let rejections: u64 = traced.iter().map(|episode| episode.rejections).sum();

    let (traced_wall, untraced_wall): (Vec<f64>, Vec<f64>) = {
        let wall = |traced: bool| {
            measured
                .iter()
                .filter(|episode| episode.traced == traced)
                .map(Episode::timed_s)
                .collect()
        };
        (wall(true), wall(false))
    };
    metrics.insert(
        "heartbeats.advance_ns",
        tracer.quantile_ns(Span::Advance, 0.5),
    );
    metrics.insert(
        "heartbeats.advance_calls",
        tracer.count(Span::Advance) as f64 * per_episode,
    );
    metrics.insert(
        "seec.runtime_build_us",
        tracer.quantile_ns(Span::RuntimeBuild, 0.5) / 1e3,
    );
    metrics.insert(
        "seec.decision_ns",
        snapshot.stage(Stage::Decision).mean_ns(),
    );
    metrics.insert(
        "seec.decisions",
        snapshot.stage(Stage::Decision).count as f64 * per_episode,
    );
    metrics.insert(
        "coordinator.step_ms",
        tracer.quantile_ns(Span::Step, 0.5) / 1e6,
    );
    metrics.insert(
        "coordinator.step_p90_ms",
        tracer.quantile_ns(Span::Step, 0.9) / 1e6,
    );
    metrics.insert("coordinator.observe_us", stage_us(Stage::Observe));
    metrics.insert("coordinator.arbitrate_us", stage_us(Stage::Arbitrate));
    metrics.insert("coordinator.decide_us", stage_us(Stage::Decide));
    metrics.insert("coordinator.summarise_us", stage_us(Stage::Summarise));
    metrics.insert("coordinator.apps_slept", slept);
    metrics.insert("coordinator.apps_skipped", skipped);
    metrics.insert("coordinator.apps_rearbitrated", rearbitrated);
    metrics.insert("coordinator.apps_decided", decided);
    metrics.insert("coordinator.awake_ratio", (active - slept) / active);
    metrics.insert(
        "coordinator.awards_changed_ratio",
        changed / (changed + held).max(1.0),
    );
    metrics.insert(
        "coordinator.register_us",
        tracer.quantile_ns(Span::Register, 0.5) / 1e3,
    );
    metrics.insert(
        "coordinator.retire_us",
        tracer.quantile_ns(Span::Retire, 0.5) / 1e3,
    );
    metrics.insert(
        "coordinator.set_budget_us",
        tracer.quantile_ns(Span::SetBudget, 0.5) / 1e3,
    );
    metrics.insert(
        "coordinator.admission_rejected_ratio",
        rejections as f64 / launches.max(1) as f64,
    );
    metrics.insert("coordinator.quarantines", counter(Counter::Quarantines));
    metrics.insert("coordinator.readmissions", counter(Counter::Readmissions));
    metrics.insert("exec.dispatches", dispatch_ns.len() as f64 * per_episode);
    let dispatch_us: Vec<f64> = dispatch_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    metrics.insert("exec.dispatch_us", quantile(&dispatch_us, 0.5));
    metrics.insert(
        "obs.trace_overhead_pct",
        (median(&traced_wall) / median(&untraced_wall) - 1.0) * 100.0,
    );
    metrics.insert("process.setup_rss_mb", first.setup_rss_mb);
    crate::write_trace(&tracer, args);
    outcome
}
