//! Multi-application scenario generation.
//!
//! The paper's premise is *many* self-aware applications sharing one
//! machine (§2): applications arrive, run their own observe–decide–act
//! loops, and leave, while the platform arbitrates shared resources. A
//! [`Scenario`] captures one such mix — which benchmarks run, when each
//! arrives and departs on the shared quantum schedule, its priority tier,
//! how demanding its performance goal is, and how tight the machine-level
//! power budget is. [`scenario_mixes`] generates a deterministic family of
//! heterogeneous mixes from a seed, used by the fig5 multi-application
//! experiment and reusable by examples and benches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::fault::{AppFault, FaultKind, FaultPlan};
use crate::profile::SplashBenchmark;

/// One application's slot in a multi-application scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioApp {
    /// Benchmark the application runs.
    pub benchmark: SplashBenchmark,
    /// Seed for the application's phase/noise stream (distinct seeds make
    /// two instances of the same benchmark phase-shift against each other).
    pub seed: u64,
    /// Arbitration weight (priority tier); higher is more important.
    pub weight: f64,
    /// First quantum (inclusive) of the shared schedule the app is present.
    pub arrival: usize,
    /// Quantum (exclusive) at which the app departs; `None` = stays to the
    /// end of the scenario.
    pub departure: Option<usize>,
    /// Fraction of the application's solo maximum heart rate it requests as
    /// its performance goal, in `(0, 1]`.
    pub target_fraction: f64,
    /// Which rack (fleet shard) hosts the application — consumed by the
    /// hierarchical (rack → datacenter) coordination experiments, ignored
    /// by single-machine runs. The original mixes put everything on rack 0.
    pub rack: usize,
}

impl ScenarioApp {
    /// Whether the app is present at shared quantum `quantum`.
    pub fn active_at(&self, quantum: usize) -> bool {
        quantum >= self.arrival && self.departure.is_none_or(|d| quantum < d)
    }
}

/// A mid-run step of the machine power budget: operator- or rack-level
/// power management changing how much the fleet may draw while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetStep {
    /// Quantum (on the shared schedule) the new budget takes effect.
    pub quantum: usize,
    /// The new budget, as a fraction of the platform's full-load power
    /// above idle, in `(0, 1]`.
    pub fraction: f64,
}

/// One multi-application mix on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable mix name.
    pub name: String,
    /// The applications, in registration order.
    pub apps: Vec<ScenarioApp>,
    /// Length of the shared quantum schedule.
    pub quanta: usize,
    /// Machine power budget as a fraction of the platform's full-load power
    /// above idle, in `(0, 1]`. This is the *initial* budget; it may step
    /// mid-run ([`Self::budget_steps`]).
    pub power_budget_fraction: f64,
    /// Mid-run budget changes, sorted by quantum (empty for the original
    /// mixes, whose budgets are constant).
    pub budget_steps: Vec<BudgetStep>,
    /// Scheduled application misbehaviour (empty for the well-behaved
    /// mixes; see [`crate::fault`]).
    pub fault_plan: FaultPlan,
    /// Relative request-delta tolerance for the coordinator's incremental
    /// arbitration engine, in `[0,` [`MAX_ARBITRATION_TOLERANCE`]`]`.
    /// `0.0` (the default for every generated mix) re-arbitrates every app
    /// every quantum (the full fold); nonzero values let steady apps hold
    /// their awards between quanta.
    pub arbitration_tolerance: f64,
    /// Sleep horizon for the coordinator's wake scheduler, in quanta, in
    /// `[0,` [`MAX_WAKE_HORIZON`]`]`. `0` (the default for every generated
    /// mix) leaves the scheduler off; nonzero values let steady apps skip
    /// observation and decision entirely for up to this many quanta.
    /// Meaningful only alongside a nonzero [`Self::arbitration_tolerance`]
    /// (the scheduler rides on the incremental engine).
    pub wake_horizon: usize,
    /// Consecutive in-tolerance quanta before a slot is eligible to sleep,
    /// in `[1,` [`MAX_WAKE_STEADY_QUANTA`]`]` when [`Self::wake_horizon`]
    /// is nonzero, and exactly `0` when it is zero (the pair is kept
    /// canonical so knob-off scenarios serialise to their pre-knob bytes).
    pub wake_steady_quanta: u32,
}

// Serialisation is hand-written (instead of derived, as for every other
// scenario type) so the `fault_plan` field is *omitted* when empty: every
// pre-fault fixture under `tests/corpus/` keeps parsing, and fault-free
// scenarios keep serialising to the exact bytes they produced before the
// field existed (the corpus/report byte-identity pins depend on this).
impl Serialize for Scenario {
    fn to_value(&self) -> serde::ser::Value {
        let mut entries = vec![
            ("name".to_string(), self.name.to_value()),
            ("apps".to_string(), self.apps.to_value()),
            ("quanta".to_string(), self.quanta.to_value()),
            (
                "power_budget_fraction".to_string(),
                self.power_budget_fraction.to_value(),
            ),
            ("budget_steps".to_string(), self.budget_steps.to_value()),
        ];
        if !self.fault_plan.is_empty() {
            entries.push(("fault_plan".to_string(), self.fault_plan.to_value()));
        }
        // Same omission discipline as `fault_plan`: the field only appears
        // once a mutation actually turns the knob, so every tolerance-0
        // scenario serialises to its pre-knob bytes.
        if self.arbitration_tolerance != 0.0 {
            entries.push((
                "arbitration_tolerance".to_string(),
                self.arbitration_tolerance.to_value(),
            ));
        }
        // And again for the wake-scheduler pair: absent until a mutation
        // turns the scheduler on (sanitize zeroes `wake_steady_quanta`
        // whenever the horizon is zero, so one gate covers both).
        if self.wake_horizon != 0 {
            entries.push(("wake_horizon".to_string(), self.wake_horizon.to_value()));
            entries.push((
                "wake_steady_quanta".to_string(),
                self.wake_steady_quanta.to_value(),
            ));
        }
        serde::ser::Value::Object(entries)
    }
}

impl Deserialize for Scenario {
    fn from_value(value: &serde::ser::Value) -> Result<Self, serde::de::DeError> {
        let entries = serde::de::as_object(value, "Scenario")?;
        Ok(Scenario {
            name: serde::de::field(entries, "name", "Scenario")?,
            apps: serde::de::field(entries, "apps", "Scenario")?,
            quanta: serde::de::field(entries, "quanta", "Scenario")?,
            power_budget_fraction: serde::de::field(entries, "power_budget_fraction", "Scenario")?,
            budget_steps: serde::de::field(entries, "budget_steps", "Scenario")?,
            // Absent in pre-fault fixtures: an absent plan is an empty plan.
            fault_plan: match entries.iter().find(|(key, _)| key == "fault_plan") {
                Some((_, plan)) => FaultPlan::from_value(plan).map_err(|e| {
                    serde::de::DeError::new(format!("field `fault_plan` of `Scenario`: {e}"))
                })?,
                None => FaultPlan::default(),
            },
            // Absent in pre-knob fixtures: an absent tolerance is zero.
            arbitration_tolerance: match entries
                .iter()
                .find(|(key, _)| key == "arbitration_tolerance")
            {
                Some((_, tolerance)) => f64::from_value(tolerance).map_err(|e| {
                    serde::de::DeError::new(format!(
                        "field `arbitration_tolerance` of `Scenario`: {e}"
                    ))
                })?,
                None => 0.0,
            },
            // Absent in pre-knob fixtures: an absent horizon is zero (the
            // scheduler off), and likewise for the steady threshold.
            wake_horizon: match entries.iter().find(|(key, _)| key == "wake_horizon") {
                Some((_, horizon)) => usize::from_value(horizon).map_err(|e| {
                    serde::de::DeError::new(format!("field `wake_horizon` of `Scenario`: {e}"))
                })?,
                None => 0,
            },
            wake_steady_quanta: match entries.iter().find(|(key, _)| key == "wake_steady_quanta") {
                Some((_, steady)) => u32::from_value(steady).map_err(|e| {
                    serde::de::DeError::new(format!(
                        "field `wake_steady_quanta` of `Scenario`: {e}"
                    ))
                })?,
                None => 0,
            },
        })
    }
}

impl Scenario {
    /// Number of racks the mix spans: one more than the highest rack tag
    /// (at least 1, so untagged mixes read as single-rack).
    pub fn rack_count(&self) -> usize {
        self.apps.iter().map(|app| app.rack + 1).max().unwrap_or(1)
    }

    /// The budget fraction in force at `quantum`: the initial fraction
    /// until the first step at or before `quantum`, then the latest such
    /// step. Works whatever order `budget_steps` is in (ties on the same
    /// quantum resolve to the later list entry).
    pub fn budget_fraction_at(&self, quantum: usize) -> f64 {
        self.budget_steps
            .iter()
            .enumerate()
            .filter(|(_, step)| step.quantum <= quantum)
            .max_by_key(|(index, step)| (step.quantum, *index))
            .map_or(self.power_budget_fraction, |(_, step)| step.fraction)
    }
}

impl Scenario {
    /// Whether every field is inside the domain the generators promise and
    /// the experiment drivers assume (positive weights, `(0, 1]` fractions,
    /// arrivals before the horizon, departures inside `(arrival, quanta]`,
    /// budget steps before the horizon, racks within
    /// [`MAX_SCENARIO_RACKS`]).
    pub fn is_well_formed(&self) -> bool {
        self.quanta >= MIN_SCENARIO_QUANTA
            && self.quanta <= MAX_SCENARIO_QUANTA
            && self.power_budget_fraction >= MIN_BUDGET_FRACTION
            && self.power_budget_fraction <= 1.0
            && self.apps.iter().all(|app| {
                app.weight >= MIN_APP_WEIGHT
                    && app.weight <= MAX_APP_WEIGHT
                    && app.target_fraction >= MIN_TARGET_FRACTION
                    && app.target_fraction <= 1.0
                    && app.arrival < self.quanta
                    && app.rack < MAX_SCENARIO_RACKS
                    && app
                        .departure
                        .is_none_or(|d| d > app.arrival && d <= self.quanta)
            })
            && self.budget_steps.iter().all(|step| {
                step.quantum < self.quanta
                    && step.fraction >= MIN_BUDGET_FRACTION
                    && step.fraction <= 1.0
            })
            && self.fault_plan.is_well_formed(self.apps.len(), self.quanta)
            && self.arbitration_tolerance >= 0.0
            && self.arbitration_tolerance <= MAX_ARBITRATION_TOLERANCE
            && self.wake_horizon <= MAX_WAKE_HORIZON
            && if self.wake_horizon == 0 {
                self.wake_steady_quanta == 0
            } else {
                // The scheduler rides on the incremental engine, so an
                // enabled horizon requires a live tolerance, and the
                // steady threshold must be a real (bounded) count.
                self.arbitration_tolerance > 0.0
                    && (1..=MAX_WAKE_STEADY_QUANTA).contains(&self.wake_steady_quanta)
            }
    }

    /// Repairs the scenario in place into the well-formed domain by
    /// clamping every field: mutation engines may perturb freely and call
    /// this afterwards instead of special-casing each field's bounds.
    /// Idempotent, and the identity on already-well-formed scenarios.
    pub fn sanitize(&mut self) {
        self.quanta = self.quanta.clamp(MIN_SCENARIO_QUANTA, MAX_SCENARIO_QUANTA);
        self.power_budget_fraction = self.power_budget_fraction.clamp(MIN_BUDGET_FRACTION, 1.0);
        if !self.power_budget_fraction.is_finite() {
            self.power_budget_fraction = MIN_BUDGET_FRACTION;
        }
        let quanta = self.quanta;
        for app in &mut self.apps {
            app.weight = if app.weight.is_finite() {
                app.weight.clamp(MIN_APP_WEIGHT, MAX_APP_WEIGHT)
            } else {
                1.0
            };
            app.target_fraction = if app.target_fraction.is_finite() {
                app.target_fraction.clamp(MIN_TARGET_FRACTION, 1.0)
            } else {
                MIN_TARGET_FRACTION
            };
            app.arrival = app.arrival.min(quanta - 1);
            app.rack %= MAX_SCENARIO_RACKS;
            if let Some(departure) = app.departure {
                app.departure = Some(departure.clamp(app.arrival + 1, quanta));
            }
        }
        for step in &mut self.budget_steps {
            step.quantum = step.quantum.min(quanta - 1);
            step.fraction = if step.fraction.is_finite() {
                step.fraction.clamp(MIN_BUDGET_FRACTION, 1.0)
            } else {
                MIN_BUDGET_FRACTION
            };
        }
        self.fault_plan.sanitize(self.apps.len(), quanta);
        self.arbitration_tolerance = if self.arbitration_tolerance.is_finite() {
            self.arbitration_tolerance
                .clamp(0.0, MAX_ARBITRATION_TOLERANCE)
        } else {
            0.0
        };
        // Canonicalise the wake pair: the scheduler needs a live tolerance
        // to ride on, an enabled horizon needs a real steady threshold,
        // and a disabled one keeps both fields at their pre-knob zeroes.
        self.wake_horizon = self.wake_horizon.min(MAX_WAKE_HORIZON);
        if self.arbitration_tolerance == 0.0 {
            self.wake_horizon = 0;
        }
        self.wake_steady_quanta = if self.wake_horizon == 0 {
            0
        } else {
            self.wake_steady_quanta.clamp(1, MAX_WAKE_STEADY_QUANTA)
        };
    }
}

/// Shortest shared schedule a sanitized scenario may have.
pub const MIN_SCENARIO_QUANTA: usize = 2;

/// Longest shared schedule a sanitized scenario may have (bounds fuzz
/// executor cost).
pub const MAX_SCENARIO_QUANTA: usize = 4_096;

/// Exclusive upper bound on rack tags after sanitization (bounds hierarchy
/// width).
pub const MAX_SCENARIO_RACKS: usize = 16;

/// Smallest machine budget fraction after sanitization.
pub const MIN_BUDGET_FRACTION: f64 = 0.05;

/// Smallest per-app priority weight after sanitization.
pub const MIN_APP_WEIGHT: f64 = 0.1;

/// Largest per-app priority weight after sanitization.
pub const MAX_APP_WEIGHT: f64 = 8.0;

/// Smallest per-app target fraction after sanitization.
pub const MIN_TARGET_FRACTION: f64 = 0.01;

/// Largest incremental-arbitration tolerance after sanitization: a 50 %
/// relative request move always re-enters the fold, so no fuzzed scenario
/// can freeze arbitration outright.
pub const MAX_ARBITRATION_TOLERANCE: f64 = 0.5;

/// Largest wake-scheduler sleep horizon after sanitization: every sleeping
/// app re-enters observation within 128 quanta, so no fuzzed scenario can
/// put a slot to sleep for an unbounded stretch of the schedule.
pub const MAX_WAKE_HORIZON: usize = 128;

/// Largest steady-streak threshold after sanitization: demanding more than
/// 16 consecutive in-tolerance quanta before sleeping would make the
/// scheduler a no-op on the short fuzz horizons.
pub const MAX_WAKE_STEADY_QUANTA: u32 = 16;

/// The priority tiers scenario generation draws from (the paper's platform
/// distinguishes applications the operator cares about more).
const PRIORITY_TIERS: [f64; 3] = [1.0, 2.0, 4.0];

/// Racks the arrival-storm mix spreads its 100 applications across.
const STORM_RACKS: usize = 4;

/// Racks the budget-steps mix spreads its 1200 applications across.
const STEPPED_RACKS: usize = 8;

/// A deterministic family of heterogeneous multi-application mixes.
///
/// Three mixes of increasing hostility, all derived from `seed`:
///
/// * **steady-pair** — two long-lived apps, equal priority, a roomy budget:
///   the base case where arbitration should cost (almost) nothing.
/// * **staggered-arrivals** — four apps arriving in waves, one departing
///   early, mixed priorities: the budget must be re-divided as the
///   population changes.
/// * **tiered-crunch** — five apps (with benchmark repeats phase-shifted by
///   seed), all three priority tiers, a tight budget: sustained contention
///   where uncoordinated composition overshoots hardest.
pub fn scenario_mixes(seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce7_a210_0000_0001);
    let mut pick = |exclude: Option<SplashBenchmark>| -> SplashBenchmark {
        loop {
            let candidate = SplashBenchmark::ALL[rng.gen_range(0..SplashBenchmark::ALL.len())];
            if Some(candidate) != exclude {
                return candidate;
            }
        }
    };

    let steady_a = pick(None);
    let steady_b = pick(Some(steady_a));
    let steady = Scenario {
        name: "steady-pair".to_string(),
        apps: vec![
            ScenarioApp {
                benchmark: steady_a,
                seed: seed.wrapping_add(1),
                weight: 1.0,
                arrival: 0,
                departure: None,
                target_fraction: 0.5,
                rack: 0,
            },
            ScenarioApp {
                benchmark: steady_b,
                seed: seed.wrapping_add(2),
                weight: 1.0,
                arrival: 0,
                departure: None,
                target_fraction: 0.5,
                rack: 0,
            },
        ],
        quanta: 96,
        power_budget_fraction: 0.6,
        budget_steps: Vec::new(),
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    let quanta = 120;
    let mut staggered_apps = Vec::new();
    for wave in 0..4 {
        let arrival = wave * quanta / 6;
        // The second wave departs two-thirds of the way through the run.
        let departure = (wave == 1).then_some(quanta * 2 / 3);
        let benchmark = pick(None);
        let weight = PRIORITY_TIERS[wave % 2];
        staggered_apps.push(ScenarioApp {
            benchmark,
            seed: seed.wrapping_add(10 + wave as u64),
            weight,
            arrival,
            departure,
            target_fraction: 0.5,
            rack: 0,
        });
    }
    let staggered = Scenario {
        name: "staggered-arrivals".to_string(),
        apps: staggered_apps,
        quanta,
        power_budget_fraction: 0.5,
        budget_steps: Vec::new(),
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    let mut tiered_apps = Vec::new();
    for slot in 0..5 {
        tiered_apps.push(ScenarioApp {
            benchmark: pick(None),
            seed: seed.wrapping_add(100 + slot as u64),
            weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
            arrival: 0,
            departure: None,
            // Demands vary across the tiers: 0.4, 0.5, or 0.6 of solo max.
            target_fraction: 0.4 + 0.1 * (slot % 3) as f64,
            rack: 0,
        });
    }
    let tiered = Scenario {
        name: "tiered-crunch".to_string(),
        apps: tiered_apps,
        quanta: 96,
        power_budget_fraction: 0.4,
        budget_steps: Vec::new(),
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    vec![steady, staggered, tiered]
}

/// The *extended* scenario family: mixes that exercise the coordinator's
/// runtime lifecycle and sharding at fleet sizes the original three mixes
/// never reach. Deterministic for a seed, like [`scenario_mixes`], but kept
/// separate so the original fig5 outputs stay byte-identical (the fig5
/// binary includes these only under `--extended`).
///
/// * **arrival-storm** — 100 applications: a 10-app resident base plus
///   three 30-app bursts that arrive within two quanta of each other and
///   retire ~20 quanta later. Per-app goals are small (4–10 % of solo max)
///   — the point is churn, not per-app headroom: the arbiter re-divides
///   the budget as ~30 apps register or retire at once.
/// * **budget-steps** — 1200 applications arriving in eight waves over the
///   first eight quanta, under a machine budget that *steps* mid-run
///   (70 % → 35 % → 55 % of full-load power above idle): the fleet must
///   absorb an operator-driven budget cut with no warning.
///
/// Both mixes are **rack-tagged** ([`ScenarioApp::rack`]): the storm
/// spreads its fleet round-robin over 4 racks and the stepped mix over 8,
/// so the hierarchical (rack → datacenter) coordination experiment can
/// partition them without inventing its own placement. Single-machine runs
/// ignore the tags, so flat results are unchanged.
pub fn extended_scenario_mixes(seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce7_a210_0000_0002);
    let mut pick = || SplashBenchmark::ALL[rng.gen_range(0..SplashBenchmark::ALL.len())];

    // ---- arrival-storm: 10 residents + 3 bursts of 30 -----------------
    let quanta = 64;
    let mut storm_apps = Vec::new();
    for slot in 0..10 {
        storm_apps.push(ScenarioApp {
            benchmark: pick(),
            seed: seed.wrapping_add(1_000 + slot as u64),
            weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
            arrival: 0,
            departure: None,
            target_fraction: 0.08 + 0.02 * (slot % 2) as f64,
            rack: slot % STORM_RACKS,
        });
    }
    for burst in 0..3usize {
        let burst_start = 12 + burst * 14;
        for slot in 0..30usize {
            // Each burst lands within two quanta and retires ~20 later.
            let arrival = burst_start + slot % 3;
            storm_apps.push(ScenarioApp {
                benchmark: pick(),
                seed: seed.wrapping_add(2_000 + (burst * 100 + slot) as u64),
                weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
                arrival,
                departure: Some((arrival + 18 + slot % 4).min(quanta)),
                target_fraction: 0.04 + 0.01 * (slot % 3) as f64,
                rack: (burst * 30 + slot) % STORM_RACKS,
            });
        }
    }
    let storm = Scenario {
        name: "arrival-storm".to_string(),
        apps: storm_apps,
        quanta,
        power_budget_fraction: 0.5,
        budget_steps: Vec::new(),
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    // ---- budget-steps: 1200 apps under a stepping machine budget ------
    let quanta = 56;
    let mut stepped_apps = Vec::new();
    for slot in 0..1_200usize {
        // Eight arrival waves over the first eight quanta; a small slice
        // of the fleet (every 16th app) retires two-thirds through.
        let arrival = slot % 8;
        let departure = (slot % 16 == 7).then_some(quanta * 2 / 3);
        stepped_apps.push(ScenarioApp {
            benchmark: pick(),
            seed: seed.wrapping_add(10_000 + slot as u64),
            weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
            arrival,
            departure,
            target_fraction: 0.01 + 0.005 * (slot % 3) as f64,
            rack: slot % STEPPED_RACKS,
        });
    }
    let stepped = Scenario {
        name: "budget-steps".to_string(),
        apps: stepped_apps,
        quanta,
        power_budget_fraction: 0.7,
        budget_steps: vec![
            BudgetStep {
                quantum: 24,
                fraction: 0.35,
            },
            BudgetStep {
                quantum: 40,
                fraction: 0.55,
            },
        ],
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    vec![storm, stepped]
}

/// The adversarial *vocabulary* mixes: the seed corpus the scenario fuzzer
/// mutates from. Deterministic for a seed, like the other families, and
/// deliberately small (tens of apps, short horizons) so a fuzz iteration
/// stays cheap; the mutation engine grows them where that pays.
///
/// * **diurnal-budget** — a six-app resident fleet under a budget that
///   follows a day curve as a staircase (peak → trough → recovery, eight
///   steps): every step forces a re-division, and the trough is tight
///   enough that priority tiers matter.
/// * **flash-crowd** — four residents, then twenty-four applications
///   landing on the *same* quantum with aggressive goals, gone twelve
///   quanta later: the hardest single re-arbitration step, aimed at the
///   landing-quantum transient.
/// * **phase-shift** — three racks of four apps each, where the apps of a
///   rack share one workload seed (their compute/memory phases move in
///   lockstep) and each rack's arrivals shift by a fixed offset: rack
///   demand peaks are correlated within a rack and staggered across racks,
///   stressing envelope re-auditing at the datacenter level.
pub fn vocabulary_mixes(seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce7_a210_0000_0003);
    let mut pick = || SplashBenchmark::ALL[rng.gen_range(0..SplashBenchmark::ALL.len())];

    // ---- diurnal-budget: staircase day curve over a resident fleet ----
    let quanta = 64;
    let diurnal_apps: Vec<ScenarioApp> = (0..6)
        .map(|slot| ScenarioApp {
            benchmark: pick(),
            seed: seed.wrapping_add(20_000 + slot as u64),
            weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
            arrival: 0,
            departure: None,
            target_fraction: 0.3 + 0.1 * (slot % 3) as f64,
            rack: 0,
        })
        .collect();
    // Eight steps of a (1 - cos) day curve between 25 % and 70 % of
    // full-load power: high at "midday", tight overnight.
    let budget_steps: Vec<BudgetStep> = (1..8)
        .map(|step| {
            let phase = step as f64 / 8.0 * std::f64::consts::TAU;
            let fraction = 0.25 + 0.45 * 0.5 * (1.0 - phase.cos());
            BudgetStep {
                quantum: step * quanta / 8,
                fraction: (fraction * 100.0).round() / 100.0,
            }
        })
        .collect();
    let diurnal = Scenario {
        name: "diurnal-budget".to_string(),
        apps: diurnal_apps,
        quanta,
        power_budget_fraction: 0.25,
        budget_steps,
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    // ---- flash-crowd: one-quantum mass landing ------------------------
    let quanta = 48;
    let crowd_lands = 16;
    let mut crowd_apps: Vec<ScenarioApp> = (0..4)
        .map(|slot| ScenarioApp {
            benchmark: pick(),
            seed: seed.wrapping_add(21_000 + slot as u64),
            weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
            arrival: 0,
            departure: None,
            target_fraction: 0.4,
            rack: 0,
        })
        .collect();
    for slot in 0..24usize {
        crowd_apps.push(ScenarioApp {
            benchmark: pick(),
            seed: seed.wrapping_add(22_000 + slot as u64),
            weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
            arrival: crowd_lands,
            departure: Some(crowd_lands + 12),
            target_fraction: 0.25 + 0.05 * (slot % 3) as f64,
            rack: 0,
        });
    }
    let flash_crowd = Scenario {
        name: "flash-crowd".to_string(),
        apps: crowd_apps,
        quanta,
        power_budget_fraction: 0.45,
        budget_steps: Vec::new(),
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    // ---- phase-shift: correlated phases within racks, staggered across -
    let quanta = 48;
    let mut shifted_apps = Vec::new();
    for rack in 0..3usize {
        // One workload seed per rack: the rack's apps phase-move together.
        let rack_seed = seed.wrapping_add(23_000 + rack as u64);
        let benchmark = pick();
        for slot in 0..4usize {
            shifted_apps.push(ScenarioApp {
                benchmark,
                seed: rack_seed,
                weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
                arrival: rack * 6,
                departure: None,
                target_fraction: 0.35,
                rack,
            });
        }
    }
    let phase_shift = Scenario {
        name: "phase-shift".to_string(),
        apps: shifted_apps,
        quanta,
        power_budget_fraction: 0.4,
        budget_steps: Vec::new(),
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    vec![diurnal, flash_crowd, phase_shift]
}

/// The *chaos* mixes: fault-injected scenarios for the robustness
/// experiments and the watchdog/degradation ladder. Deterministic for a
/// seed, like the other families, and kept separate so every fault-free
/// pipeline's output stays byte-identical.
///
/// * **fault-storm** — eight applications on one machine, six scheduled
///   faults covering every [`FaultKind`]: a persistent ×3 power
///   over-reporter, a NaN-telemetry app, a persistent heartbeat stall, a
///   *transient* stall (clears mid-run, for recovery/readmission
///   measurement), a crash-without-retire, and a telemetry freeze that is
///   captured at a roomy budget just before an operator cut to 20 % —
///   so the frozen belief is materially over the post-cut envelope. Two
///   apps stay healthy throughout (the fairness control).
/// * **rack-rogues** — three racks of four applications, one rogue per
///   rack: a hungry ×0.35 power *under*-reporter (the enforcement story —
///   audit alone never catches it), a heartbeat stall, and a crash. Exercises
///   the hierarchy path: each rack must degrade locally while the
///   datacenter keeps netting envelopes.
pub fn chaos_mixes(seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce7_a210_0000_0004);
    let mut pick = || SplashBenchmark::ALL[rng.gen_range(0..SplashBenchmark::ALL.len())];

    // ---- fault-storm: every fault kind on one machine ------------------
    let quanta = 48;
    let storm_apps: Vec<ScenarioApp> = (0..8)
        .map(|slot| ScenarioApp {
            benchmark: pick(),
            seed: seed.wrapping_add(30_000 + slot as u64),
            weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
            arrival: 0,
            departure: None,
            target_fraction: 0.3 + 0.1 * (slot % 3) as f64,
            rack: 0,
        })
        .collect();
    let fault_storm = Scenario {
        name: "fault-storm".to_string(),
        apps: storm_apps,
        quanta,
        power_budget_fraction: 0.6,
        // The freeze (quantum 20) captures its report under the roomy
        // budget; the cut at 24 strands that belief far over the envelope.
        budget_steps: vec![BudgetStep {
            quantum: 24,
            fraction: 0.2,
        }],
        fault_plan: FaultPlan {
            faults: vec![
                AppFault {
                    app: 1,
                    kind: FaultKind::MisreportPower { factor: 3.0 },
                    from: 10,
                    until: None,
                },
                AppFault {
                    app: 2,
                    kind: FaultKind::NonFiniteTelemetry,
                    from: 14,
                    until: None,
                },
                AppFault {
                    app: 3,
                    kind: FaultKind::StallHeartbeats,
                    from: 12,
                    until: None,
                },
                AppFault {
                    app: 4,
                    kind: FaultKind::Crash,
                    from: 18,
                    until: None,
                },
                AppFault {
                    app: 5,
                    kind: FaultKind::FreezeTelemetry,
                    from: 20,
                    until: None,
                },
                AppFault {
                    app: 6,
                    kind: FaultKind::StallHeartbeats,
                    from: 8,
                    until: Some(16),
                },
            ],
        },
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    // ---- rack-rogues: one misbehaving app per rack ---------------------
    let quanta = 48;
    let mut rogue_apps = Vec::new();
    for rack in 0..3usize {
        for slot in 0..4usize {
            rogue_apps.push(ScenarioApp {
                benchmark: pick(),
                seed: seed.wrapping_add(31_000 + (rack * 10 + slot) as u64),
                weight: PRIORITY_TIERS[slot % PRIORITY_TIERS.len()],
                arrival: 0,
                departure: None,
                target_fraction: 0.35,
                rack,
            });
        }
    }
    // The under-reporter is a *hungry* freeloader: top priority and a
    // near-saturating target, so its physical draw is large while its
    // claims stay small — the gap that pushes its rack over the awarded
    // envelope and that only the breaker (never audit) can contain.
    rogue_apps[0].weight = PRIORITY_TIERS[2];
    rogue_apps[0].target_fraction = 0.9;
    let rack_rogues = Scenario {
        name: "rack-rogues".to_string(),
        apps: rogue_apps,
        quanta,
        power_budget_fraction: 0.4,
        budget_steps: Vec::new(),
        fault_plan: FaultPlan {
            faults: vec![
                AppFault {
                    app: 0,
                    kind: FaultKind::MisreportPower { factor: 0.35 },
                    from: 8,
                    until: None,
                },
                AppFault {
                    app: 5,
                    kind: FaultKind::StallHeartbeats,
                    from: 10,
                    until: None,
                },
                AppFault {
                    app: 10,
                    kind: FaultKind::Crash,
                    from: 16,
                    until: None,
                },
            ],
        },
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };

    vec![fault_storm, rack_rogues]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest number of apps simultaneously present at any quantum.
    fn peak_concurrency(scenario: &Scenario) -> usize {
        (0..scenario.quanta)
            .map(|q| scenario.apps.iter().filter(|a| a.active_at(q)).count())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn mixes_are_deterministic_for_a_seed() {
        assert_eq!(scenario_mixes(7), scenario_mixes(7));
        assert_ne!(scenario_mixes(7), scenario_mixes(8));
    }

    #[test]
    fn mixes_are_well_formed() {
        for scenario in scenario_mixes(2012) {
            assert!(!scenario.apps.is_empty(), "{}", scenario.name);
            assert!(scenario.quanta > 0);
            assert!(scenario.power_budget_fraction > 0.0 && scenario.power_budget_fraction <= 1.0);
            for app in &scenario.apps {
                assert!(app.weight > 0.0);
                assert!(app.target_fraction > 0.0 && app.target_fraction <= 1.0);
                assert!(app.arrival < scenario.quanta);
                if let Some(departure) = app.departure {
                    assert!(departure > app.arrival && departure <= scenario.quanta);
                }
            }
            assert!(peak_concurrency(&scenario) >= 2, "{}", scenario.name);
            // The original single-machine mixes live entirely on rack 0.
            assert_eq!(scenario.rack_count(), 1, "{}", scenario.name);
        }
    }

    #[test]
    fn mixes_cover_arrivals_departures_and_tiers() {
        let mixes = scenario_mixes(2012);
        assert_eq!(mixes.len(), 3);
        let staggered = &mixes[1];
        assert!(
            staggered.apps.iter().any(|a| a.arrival > 0),
            "staggered arrivals"
        );
        assert!(
            staggered.apps.iter().any(|a| a.departure.is_some()),
            "a departure"
        );
        let tiered = &mixes[2];
        let mut weights: Vec<f64> = tiered.apps.iter().map(|a| a.weight).collect();
        weights.sort_by(f64::total_cmp);
        weights.dedup();
        assert!(weights.len() >= 3, "three priority tiers, got {weights:?}");
    }

    #[test]
    fn extended_mixes_reach_coordinator_scale() {
        let mixes = extended_scenario_mixes(2012);
        assert_eq!(extended_scenario_mixes(2012), mixes, "deterministic");
        assert_eq!(mixes.len(), 2);

        let storm = &mixes[0];
        assert_eq!(storm.name, "arrival-storm");
        assert_eq!(storm.apps.len(), 100);
        assert!(storm.budget_steps.is_empty());
        // Rack-tagged: four racks, each hosting a non-trivial share.
        assert_eq!(storm.rack_count(), 4);
        for rack in 0..4 {
            let hosted = storm.apps.iter().filter(|a| a.rack == rack).count();
            assert!(hosted >= 20, "rack {rack} hosts only {hosted} apps");
        }
        // Bursty: each 30-app burst lands over three consecutive quanta,
        // so some quantum sees 10 registrations in a single step.
        let arrivals_at = |q: usize| storm.apps.iter().filter(|a| a.arrival == q).count();
        assert!(
            (0..storm.quanta).any(|q| arrivals_at(q) >= 10),
            "the storm must land many apps in one quantum"
        );
        assert!(storm.apps.iter().any(|a| a.departure.is_some()));

        let stepped = &mixes[1];
        assert_eq!(stepped.name, "budget-steps");
        assert!(stepped.apps.len() >= 1_000, "thousand-app scale");
        assert_eq!(stepped.rack_count(), 8);
        assert_eq!(stepped.budget_steps.len(), 2);
        assert!(stepped
            .budget_steps
            .windows(2)
            .all(|pair| pair[0].quantum < pair[1].quantum));
        assert_eq!(stepped.budget_fraction_at(0), 0.7);
        assert_eq!(stepped.budget_fraction_at(24), 0.35);
        assert_eq!(stepped.budget_fraction_at(39), 0.35);
        assert_eq!(stepped.budget_fraction_at(55), 0.55);
        // Robust to unsorted steps: the latest step at or before the
        // quantum wins regardless of list order.
        let mut unsorted = stepped.clone();
        unsorted.budget_steps.reverse();
        assert_eq!(unsorted.budget_fraction_at(30), 0.35);
        assert_eq!(unsorted.budget_fraction_at(55), 0.55);

        for scenario in &mixes {
            for app in &scenario.apps {
                assert!(app.weight > 0.0);
                assert!(app.target_fraction > 0.0 && app.target_fraction <= 1.0);
                assert!(app.arrival < scenario.quanta);
                if let Some(departure) = app.departure {
                    assert!(departure > app.arrival && departure <= scenario.quanta);
                }
            }
        }
    }

    #[test]
    fn vocabulary_mixes_cover_the_adversarial_shapes() {
        let mixes = vocabulary_mixes(2012);
        assert_eq!(vocabulary_mixes(2012), mixes, "deterministic");
        assert_ne!(vocabulary_mixes(7), mixes);
        assert_eq!(mixes.len(), 3);
        for scenario in &mixes {
            assert!(scenario.is_well_formed(), "{}", scenario.name);
        }

        let diurnal = &mixes[0];
        assert_eq!(diurnal.name, "diurnal-budget");
        assert!(diurnal.budget_steps.len() >= 6, "a staircase day curve");
        let fractions: Vec<f64> = (0..diurnal.quanta)
            .map(|q| diurnal.budget_fraction_at(q))
            .collect();
        let peak = fractions.iter().copied().fold(0.0, f64::max);
        let trough = fractions.iter().copied().fold(1.0, f64::min);
        assert!(peak >= 0.6 && trough <= 0.3, "peak {peak}, trough {trough}");

        let crowd = &mixes[1];
        assert_eq!(crowd.name, "flash-crowd");
        let landing = crowd
            .apps
            .iter()
            .filter(|a| a.arrival > 0)
            .map(|a| a.arrival)
            .collect::<Vec<_>>();
        assert!(landing.len() >= 20);
        assert!(
            landing.windows(2).all(|w| w[0] == w[1]),
            "the crowd lands on one quantum"
        );

        let shifted = &mixes[2];
        assert_eq!(shifted.name, "phase-shift");
        assert_eq!(shifted.rack_count(), 3);
        for rack in 0..3 {
            let seeds: Vec<u64> = shifted
                .apps
                .iter()
                .filter(|a| a.rack == rack)
                .map(|a| a.seed)
                .collect();
            assert!(seeds.len() >= 2);
            assert!(
                seeds.windows(2).all(|w| w[0] == w[1]),
                "rack {rack} phases are correlated"
            );
        }
        let mut arrivals: Vec<usize> = shifted.apps.iter().map(|a| a.arrival).collect();
        arrivals.sort_unstable();
        arrivals.dedup();
        assert!(arrivals.len() >= 3, "arrivals stagger across racks");
    }

    #[test]
    fn sanitize_repairs_arbitrary_damage_and_is_idempotent() {
        let mut wrecked = Scenario {
            name: "wreck".to_string(),
            apps: vec![ScenarioApp {
                benchmark: SplashBenchmark::Volrend,
                seed: 3,
                weight: f64::NAN,
                arrival: 10_000,
                departure: Some(0),
                target_fraction: -2.0,
                rack: 99,
            }],
            quanta: 0,
            power_budget_fraction: f64::INFINITY,
            budget_steps: vec![BudgetStep {
                quantum: usize::MAX,
                fraction: 0.0,
            }],
            fault_plan: FaultPlan {
                faults: vec![AppFault {
                    app: 7,
                    kind: FaultKind::MisreportPower {
                        factor: f64::INFINITY,
                    },
                    from: usize::MAX,
                    until: Some(0),
                }],
            },
            arbitration_tolerance: f64::NAN,
            wake_horizon: usize::MAX,
            wake_steady_quanta: u32::MAX,
        };
        assert!(!wrecked.is_well_formed());
        wrecked.sanitize();
        assert!(wrecked.is_well_formed(), "{wrecked:?}");
        let once = wrecked.clone();
        wrecked.sanitize();
        assert_eq!(wrecked, once, "sanitize is idempotent");

        // Sanitize is the identity on every generated mix.
        for scenario in scenario_mixes(5)
            .into_iter()
            .chain(extended_scenario_mixes(5))
            .chain(vocabulary_mixes(5))
            .chain(chaos_mixes(5))
        {
            let mut sanitized = scenario.clone();
            sanitized.sanitize();
            assert_eq!(sanitized, scenario, "{}", scenario.name);
        }
    }

    #[test]
    fn chaos_mixes_cover_every_fault_kind() {
        let mixes = chaos_mixes(2012);
        assert_eq!(chaos_mixes(2012), mixes, "deterministic");
        assert_ne!(chaos_mixes(7), mixes);
        assert_eq!(mixes.len(), 2);
        for scenario in &mixes {
            assert!(scenario.is_well_formed(), "{}", scenario.name);
            assert!(!scenario.fault_plan.is_empty(), "{}", scenario.name);
        }

        let storm = &mixes[0];
        assert_eq!(storm.name, "fault-storm");
        assert_eq!(storm.rack_count(), 1);
        let kinds: Vec<FaultKind> = storm.fault_plan.faults.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FaultKind::StallHeartbeats));
        assert!(kinds.contains(&FaultKind::FreezeTelemetry));
        assert!(kinds.contains(&FaultKind::NonFiniteTelemetry));
        assert!(kinds.contains(&FaultKind::Crash));
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, FaultKind::MisreportPower { .. })),
            "a power misreporter"
        );
        assert!(
            storm.fault_plan.faults.iter().any(|f| f.until.is_some()),
            "a transient fault, for recovery measurement"
        );
        let healthy = (0..storm.apps.len())
            .filter(|&app| !storm.fault_plan.targets_app(app))
            .count();
        assert!(healthy >= 2, "healthy controls remain, got {healthy}");

        let rogues = &mixes[1];
        assert_eq!(rogues.name, "rack-rogues");
        assert_eq!(rogues.rack_count(), 3);
        // One rogue per rack.
        for rack in 0..3 {
            let rogue_count = rogues
                .fault_plan
                .faults
                .iter()
                .filter(|f| rogues.apps[f.app].rack == rack)
                .count();
            assert_eq!(rogue_count, 1, "rack {rack}");
        }
    }

    #[test]
    fn fault_free_scenarios_serialize_without_the_fault_field() {
        // Byte-compat pin: adding FaultPlan must not disturb the JSON of
        // fault-free scenarios (corpus/report byte-identity depends on it).
        let steady = &scenario_mixes(2012)[0];
        let text = serde_json::to_string_pretty(steady).unwrap();
        assert!(!text.contains("fault_plan"), "{text}");
        let back: Scenario = serde_json::from_str(&text).unwrap();
        assert_eq!(&back, steady, "absent plan reads back as empty");

        // Fault-carrying scenarios round-trip the plan.
        for scenario in chaos_mixes(2012) {
            let text = serde_json::to_string_pretty(&scenario).unwrap();
            assert!(text.contains("fault_plan"), "{}", scenario.name);
            let back: Scenario = serde_json::from_str(&text).unwrap();
            assert_eq!(back, scenario, "{}", scenario.name);
        }
    }

    #[test]
    fn wake_knobs_serialize_only_when_enabled() {
        // Byte-compat pin: knob-off scenarios must not mention the wake
        // fields at all (same discipline as fault_plan and tolerance).
        let steady = &scenario_mixes(2012)[0];
        let text = serde_json::to_string_pretty(steady).unwrap();
        assert!(!text.contains("wake_horizon"), "{text}");

        let mut on = steady.clone();
        on.arbitration_tolerance = 0.1;
        on.wake_horizon = 32;
        on.wake_steady_quanta = 2;
        assert!(on.is_well_formed());
        let text = serde_json::to_string_pretty(&on).unwrap();
        assert!(text.contains("wake_horizon"), "{text}");
        assert!(text.contains("wake_steady_quanta"), "{text}");
        let back: Scenario = serde_json::from_str(&text).unwrap();
        assert_eq!(back, on, "the wake pair round-trips");
    }

    #[test]
    fn sanitize_keeps_the_wake_pair_canonical() {
        let mut scenario = scenario_mixes(2012)[0].clone();
        // A horizon without a tolerance has no engine to ride on: the
        // whole pair collapses back to off.
        scenario.wake_horizon = 40;
        scenario.wake_steady_quanta = 3;
        assert!(!scenario.is_well_formed());
        scenario.sanitize();
        assert_eq!((scenario.wake_horizon, scenario.wake_steady_quanta), (0, 0));
        assert!(scenario.is_well_formed());
        // Enabled but out of range: both knobs clamp into the canonical
        // domain (horizon to the cap, a zero streak up to one).
        scenario.arbitration_tolerance = 0.2;
        scenario.wake_horizon = 9_999;
        scenario.wake_steady_quanta = 0;
        scenario.sanitize();
        assert_eq!(scenario.wake_horizon, MAX_WAKE_HORIZON);
        assert_eq!(scenario.wake_steady_quanta, 1);
        assert!(scenario.is_well_formed());
    }

    #[test]
    fn activity_window_is_half_open() {
        let app = ScenarioApp {
            benchmark: SplashBenchmark::Barnes,
            seed: 1,
            weight: 1.0,
            arrival: 10,
            departure: Some(20),
            target_fraction: 0.5,
            rack: 0,
        };
        assert!(!app.active_at(9));
        assert!(app.active_at(10));
        assert!(app.active_at(19));
        assert!(!app.active_at(20));
        let forever = ScenarioApp {
            departure: None,
            ..app
        };
        assert!(forever.active_at(1_000_000));
    }
}
