//! Property pin for the watchdog ladder's per-quantum verdicts.
//!
//! A reference ladder kept in this file judges every present app from
//! nothing but public accessors — the driver's
//! [`emitted_beats`](workloads::HeartbeatedWorkload::emitted_beats), the
//! app's [`awarded_watts`](coordinator::ManagedApp::awarded_watts) and
//! [`nominal_power_watts`](coordinator::ManagedApp::nominal_power_watts), its
//! table's `min_declared_power` — and the last report this test delivered
//! since the previous step. Every quantum, every app's health state,
//! `quarantined_at` and `readmitted_at` must equal the reference's, and
//! the award bits must be equal at one and two pool workers.
//!
//! The generated runs cover the fault kinds `degradation_props` draws
//! (stall, NaN power, misreport, crash, frozen replay) plus infinite power
//! claims, NaN and infinite work, and reports that emit no beat; zero
//! stale or overdraw thresholds and NaN or negative tolerances; zero, one
//! or two reports per quantum; arrivals and retirements mid-run; and the
//! wake scheduler's sleepers.

mod common;

use std::sync::Arc;

use common::{decode_slots, lifecycle, platform_outcome, Slot};
use coordinator::{
    AppHandle, Coordinator, HealthState, ManagedApp, WakeConfig, WatchdogConfig, WeightedFair,
};
use exec::ExecPool;
use obs::{Counter, Recorder};
use proptest::prelude::*;
use proptest::TestCaseError;

/// What one app reports in a quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// No report at all.
    Stall,
    /// Reported power is NaN.
    NanPower,
    /// Reported power is three times the platform's.
    Misreport,
    /// No report from onset on, whatever the window says.
    Crash,
    /// The last clean report is replayed verbatim.
    Freeze,
    /// Reported power is +∞.
    InfinitePower,
    /// Reported work is NaN (credited as nothing: no beat).
    NanWork,
    /// Reported work is +∞ (credited as nothing: no beat).
    InfiniteWork,
    /// A finite report of zero work (no beat).
    ZeroWork,
}

const FAULTS: [Fault; 10] = [
    Fault::None,
    Fault::Stall,
    Fault::NanPower,
    Fault::Misreport,
    Fault::Crash,
    Fault::Freeze,
    Fault::InfinitePower,
    Fault::NanWork,
    Fault::InfiniteWork,
    Fault::ZeroWork,
];

/// One slot's fault window.
#[derive(Debug, Clone, Copy)]
struct FaultPlan {
    fault: Fault,
    from: usize,
    until: Option<usize>,
}

impl FaultPlan {
    fn active(&self, quantum: usize) -> bool {
        match self.fault {
            Fault::None => false,
            Fault::Crash => quantum >= self.from,
            _ => quantum >= self.from && self.until.is_none_or(|until| quantum < until),
        }
    }
}

/// The fault windows of the first `slots` generated slots.
fn decode_faults(
    slots: usize,
    kinds: &[usize],
    froms: &[usize],
    lens: &[usize],
    quanta: usize,
) -> Vec<FaultPlan> {
    (0..slots)
        .map(|i| {
            let from = froms[i] % quanta;
            FaultPlan {
                fault: FAULTS[kinds[i] % FAULTS.len()],
                from,
                until: (lens[i] > 0).then(|| from + 1 + lens[i] % quanta),
            }
        })
        .collect()
}

/// Reports per slot and quantum: mostly one, sometimes none or two.
fn reports_per_quantum(draw: usize) -> usize {
    match draw % 6 {
        0 => 0,
        5 => 2,
        _ => 1,
    }
}

/// The reference ladder's bookkeeping for one app.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ladder {
    state: HealthState,
    last_beats: u64,
    judged: usize,
    stale: usize,
    overdraw: usize,
    clean: usize,
    quarantined_at: Option<usize>,
    readmitted_at: Option<usize>,
}

impl Ladder {
    fn new() -> Self {
        Ladder {
            state: HealthState::Healthy,
            last_beats: 0,
            judged: 0,
            stale: 0,
            overdraw: 0,
            clean: 0,
            quarantined_at: None,
            readmitted_at: None,
        }
    }

    /// One watchdog pass over `app` before the step of `quantum`, given
    /// the last `(work, power)` reported since the previous step. Request
    /// fields cannot go NaN here: weights and targets are finite and the
    /// nominal-power estimate only takes finite samples.
    fn judge(
        &mut self,
        app: &ManagedApp,
        report: Option<(f64, f64)>,
        config: &WatchdogConfig,
        quantum: usize,
    ) {
        let beats = app.driver().emitted_beats();
        let fresh = beats != self.last_beats;
        self.last_beats = beats;
        let warming_up = self.judged < config.warmup_quanta;
        self.judged = self.judged.saturating_add(1);
        let non_finite =
            report.is_some_and(|(work, power)| !work.is_finite() || !power.is_finite());
        let cheapest =
            app.nominal_power_watts() * app.runtime().model().table().min_declared_power();
        let envelope = app
            .awarded_watts()
            .max(config.quarantine_floor_watts)
            .max(cheapest);
        let overdraw = !warming_up
            && report.is_some_and(|(_, power)| {
                power.is_finite() && power > envelope * (1.0 + config.overdraw_tolerance)
            });
        self.stale = if fresh || warming_up {
            0
        } else {
            self.stale + 1
        };
        self.overdraw = if overdraw { self.overdraw + 1 } else { 0 };
        if self.state == HealthState::Quarantined {
            let clean = fresh && !non_finite && !overdraw;
            self.clean = if clean { self.clean + 1 } else { 0 };
            if self.clean >= config.readmit_quanta {
                self.state = HealthState::Readmitted;
                self.readmitted_at = Some(quantum);
                self.clean = 0;
                self.stale = 0;
                self.overdraw = 0;
            }
        } else if non_finite
            || self.stale >= config.stale_beat_quanta
            || self.overdraw >= config.overdraw_quanta
        {
            self.state = HealthState::Quarantined;
            self.quarantined_at.get_or_insert(quantum);
            self.clean = 0;
        } else if !fresh || overdraw {
            self.state = HealthState::Suspect;
        } else if self.state == HealthState::Suspect {
            self.state = HealthState::Healthy;
        }
    }
}

/// One generated run's shape.
#[derive(Debug, Clone)]
struct Run {
    slots: Vec<Slot>,
    faults: Vec<FaultPlan>,
    /// `reports[quantum * slots + slot]`: reports delivered that quantum.
    reports: Vec<usize>,
    config: WatchdogConfig,
    /// Wake scheduling (positive tolerance plus sleepers) when set.
    wake: Option<WakeConfig>,
    budget: f64,
    quanta: usize,
}

/// Per quantum: every app's verdict and the award bits.
type Trace = Vec<(Vec<(HealthState, Option<usize>, Option<usize>)>, Vec<u64>)>;

/// Drives `run` at `workers` pool workers (sharding from the first
/// participant on), checking every app against the reference ladder after
/// every step; returns the trace and the recorder's counters of interest.
fn drive(run: &Run, workers: usize) -> Result<(Trace, [u64; 3]), TestCaseError> {
    let recorder = Arc::new(Recorder::in_memory());
    let mut coordinator = Coordinator::new(run.budget, Box::new(WeightedFair))
        .with_watchdog(run.config)
        .with_pool(Arc::new(ExecPool::new(workers)))
        .with_shard_threshold(0)
        .with_obs(recorder.clone());
    if let Some(wake) = run.wake {
        coordinator = coordinator
            .with_arbitration_tolerance(0.05)
            .with_wake_schedule(wake);
    }
    let slots = run.slots.len();
    let mut handles: Vec<Option<AppHandle>> = vec![None; slots];
    let mut ladders: Vec<Ladder> = Vec::new();
    let mut reported: Vec<Option<(f64, f64)>> = Vec::new();
    let mut frozen: Vec<Option<(f64, f64)>> = vec![None; slots];
    let mut trace = Trace::with_capacity(run.quanta);
    let mut now = 0.0;
    for quantum in 0..run.quanta {
        lifecycle(&mut coordinator, &run.slots, &mut handles, quantum);
        ladders.resize(coordinator.len(), Ladder::new());
        reported.resize(coordinator.len(), None);
        let start = now;
        now += 1.0;
        for (slot, plan) in run.faults.iter().enumerate() {
            let Some(handle) = handles[slot] else {
                continue;
            };
            if !coordinator.app(handle).active_at(quantum) {
                continue;
            }
            let faulting = plan.active(quantum);
            if faulting && matches!(plan.fault, Fault::Stall | Fault::Crash) {
                continue;
            }
            let count = reports_per_quantum(run.reports[quantum * slots + slot]);
            for part in 0..count {
                let honest = platform_outcome(coordinator.app(handle).runtime());
                let honest = (honest.0 / count as f64, honest.1);
                let report = if faulting {
                    match plan.fault {
                        Fault::NanPower => (honest.0, f64::NAN),
                        Fault::Misreport => (honest.0, honest.1 * 3.0),
                        Fault::Freeze => frozen[slot].unwrap_or(honest),
                        Fault::InfinitePower => (honest.0, f64::INFINITY),
                        Fault::NanWork => (f64::NAN, honest.1),
                        Fault::InfiniteWork => (f64::INFINITY, honest.1),
                        Fault::ZeroWork => (0.0, honest.1),
                        Fault::None | Fault::Stall | Fault::Crash => honest,
                    }
                } else {
                    frozen[slot] = Some(honest);
                    honest
                };
                let span = 1.0 / count as f64;
                let from = start + part as f64 * span;
                coordinator.advance(handle, from, from + span, report.0, report.1);
                reported[handle.index()] = Some(report);
            }
        }
        // The reference judges the present apps on what they were before
        // this step: last step's award and power estimate, and the beats
        // reported since.
        for (index, ladder) in ladders.iter_mut().enumerate() {
            let app = coordinator.app(AppHandle::from_index(index));
            if app.active_at(quantum) {
                ladder.judge(app, reported[index].take(), &run.config, quantum);
            }
        }
        coordinator.step(now).unwrap();
        let mut verdicts = Vec::with_capacity(coordinator.len());
        for (index, (app, ladder)) in coordinator.apps().iter().zip(&ladders).enumerate() {
            let verdict = (
                app.health_state(),
                app.quarantined_at(),
                app.readmitted_at(),
            );
            let expected = (ladder.state, ladder.quarantined_at, ladder.readmitted_at);
            prop_assert!(
                verdict == expected,
                "app {index} at quantum {quantum}: {verdict:?}, reference {ladder:?}"
            );
            verdicts.push(verdict);
        }
        trace.push((
            verdicts,
            coordinator
                .awards()
                .iter()
                .map(|award| award.to_bits())
                .collect(),
        ));
    }
    let counters = [
        recorder.counter(Counter::AppsSlept),
        recorder.counter(Counter::Quarantines),
        recorder.counter(Counter::Readmissions),
    ];
    Ok((trace, counters))
}

/// Checks `run` against the reference at one and two workers, and the
/// two traces against each other; returns the one-worker counters.
fn check(run: &Run) -> Result<[u64; 3], TestCaseError> {
    let (single, counters) = drive(run, 1)?;
    let (sharded, _) = drive(run, 2)?;
    prop_assert!(single == sharded, "two workers diverged from one");
    Ok(counters)
}

const TOLERANCES: [f64; 5] = [f64::NAN, -0.5, 0.0, 0.5, 2.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_ladder_matches_the_reference_every_quantum(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..9),
        weights in proptest::collection::vec(0.25..8.0f64, 8),
        targets in proptest::collection::vec(5.0..80.0f64, 8),
        arrivals in proptest::collection::vec(0usize..8, 8),
        departures in proptest::collection::vec(0usize..24, 8),
        fault_kinds in proptest::collection::vec(0usize..20, 8),
        fault_froms in proptest::collection::vec(0usize..24, 8),
        fault_lens in proptest::collection::vec(0usize..10, 8),
        reports in proptest::collection::vec(0usize..6, 8 * 24),
        thresholds in proptest::collection::vec(0usize..6, 4),
        tolerance in 0usize..TOLERANCES.len(),
        floor in 0usize..3,
        wake in 0u32..4,
        budget in 0usize..2,
    ) {
        let quanta = 24;
        let slots = decode_slots(&seeds, &weights, &targets, &arrivals, &departures, quanta);
        let run = Run {
            faults: decode_faults(slots.len(), &fault_kinds, &fault_froms, &fault_lens, quanta),
            slots,
            reports,
            config: WatchdogConfig {
                // Mostly the default thresholds (the ladder's fixed point),
                // sometimes zero.
                stale_beat_quanta: thresholds[0].min(4),
                overdraw_quanta: thresholds[1].min(4),
                overdraw_tolerance: TOLERANCES[tolerance],
                quarantine_floor_watts: [0.0, 5.0, 12.0][floor],
                readmit_quanta: thresholds[2],
                warmup_quanta: thresholds[3],
            },
            wake: (wake > 0).then_some(WakeConfig { steady_quanta: wake, horizon: 4 }),
            budget: [35.0, 400.0][budget],
            quanta,
        };
        check(&run)?;
    }
}

/// A fixed run that reaches every corner the property draws from: apps
/// sleep, a stall quarantines and recovers, and honest apps sit on the
/// fixed point throughout.
#[test]
fn the_fixed_run_sleeps_quarantines_and_readmits() {
    let quanta = 40;
    let slots: Vec<Slot> = (0..6)
        .map(|index| Slot::resident(100 + index as u64, 1.0 + index as f64, 20.0))
        .collect();
    let mut faults: Vec<FaultPlan> = (0..slots.len())
        .map(|_| FaultPlan {
            fault: Fault::None,
            from: 0,
            until: None,
        })
        .collect();
    faults[0] = FaultPlan {
        fault: Fault::Stall,
        from: 12,
        until: Some(18),
    };
    faults[1] = FaultPlan {
        fault: Fault::InfinitePower,
        from: 20,
        until: Some(21),
    };
    let run = Run {
        slots,
        faults,
        reports: vec![1; 6 * quanta],
        config: WatchdogConfig::default(),
        wake: Some(WakeConfig {
            steady_quanta: 1,
            horizon: 4,
        }),
        budget: 400.0,
        quanta,
    };
    let [slept, quarantines, readmissions] = check(&run).unwrap();
    assert!(slept > 0, "no app slept");
    assert_eq!(
        quarantines, 2,
        "the stall and the infinite claim quarantine"
    );
    assert!(readmissions >= 1, "the stalled app never came back");
}
