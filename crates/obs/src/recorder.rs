//! The [`Recorder`]: the single recording surface consumers hold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{Event, MemorySink, NullSink, Sink};
use crate::hist::Histogram;
use crate::report::ObsSnapshot;

/// The deterministic monotonic counters a [`Recorder`] maintains.
///
/// Every counter is a pure function of the simulation (never of timing or
/// thread interleaving): increments happen either on sequential code paths
/// or as order-free atomic additions whose totals are interleaving-proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Coordinator steps executed (one per rack per quantum in a
    /// hierarchy).
    QuantaStepped,
    /// Monitor snapshots across all steps (present or not — the observe
    /// stage snapshots every participant whose buffered snapshot is not
    /// known current: the whole registered fleet at tolerance 0), plus the
    /// late observations of slots the watchdog moved mid-round that the
    /// observe stage had skipped. In a hierarchy each rack snapshots its
    /// present apps once per datacenter quantum, before the award, and its
    /// step reuses those snapshots without booking them again.
    AppsObserved,
    /// Applications that ran a decision under an awarded envelope at
    /// arbitration tolerance 0 (the default schedule, where every present
    /// app re-arbitrates and decides every quantum). Disjoint from
    /// [`Counter::AppsSkipped`], [`Counter::AppsRearbitrated`] and
    /// [`Counter::AppsSlept`], which positive-tolerance schedules book
    /// instead.
    AppsDecided,
    /// Arbitrations that moved an app's award (bit-for-bit comparison
    /// against the previous quantum's award).
    AwardsChanged,
    /// Arbitrations that left an app's award exactly where it was.
    AwardsHeld,
    /// Applications quarantined by the watchdog for the first time
    /// (matches the `quarantined_apps` figure summaries).
    Quarantines,
    /// Readmissions off the quarantine ladder (each one counted).
    Readmissions,
    /// Machine-level meter intervals above the cap (flat coordinator
    /// depth).
    MachineMeterViolations,
    /// Rack-level meter intervals above the awarded envelope.
    RackMeterViolations,
    /// Datacenter-level meter intervals above the shared budget.
    DatacenterMeterViolations,
    /// Rack-breaker clamp events ([`crate::EventKind::EnvelopeClamp`]).
    ClampEvents,
    /// Scenario-fuzzer probe executions.
    FuzzExecutions,
    /// Fuzz corpus entries successfully reloaded from disk.
    CorpusLoaded,
    /// Fuzz corpus entries rejected as unreadable.
    CorpusRejected,
    /// Applications registered with a coordinator.
    Registrations,
    /// Applications retired from a coordinator.
    Retirements,
    /// Mid-run budget replacements.
    BudgetChanges,
    /// Apps whose requests stayed inside a positive arbitration tolerance
    /// and therefore skipped the whole decide quantum (never booked at
    /// tolerance 0).
    AppsSkipped,
    /// Apps re-arbitrated (and decided) under a positive arbitration
    /// tolerance because their request moved past it or a
    /// lifecycle/health event marked them dirty. Disjoint from
    /// [`Counter::AppsDecided`], which tolerance 0 books instead:
    /// `skipped + rearbitrated + decided` sums to quanta × active fleet
    /// under every schedule.
    AppsRearbitrated,
    /// Wake-scheduled apps (positive tolerance and horizon) that slept
    /// through the whole quantum — not observed, not classified, not
    /// decided; their held award stood. Counted once per step from the
    /// engine's sleeping-active total, so
    /// `slept + skipped + rearbitrated + decided` partitions every active
    /// app-quantum exactly once under every schedule.
    AppsSlept,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 20] = [
        Counter::QuantaStepped,
        Counter::AppsObserved,
        Counter::AppsDecided,
        Counter::AwardsChanged,
        Counter::AwardsHeld,
        Counter::Quarantines,
        Counter::Readmissions,
        Counter::MachineMeterViolations,
        Counter::RackMeterViolations,
        Counter::DatacenterMeterViolations,
        Counter::ClampEvents,
        Counter::FuzzExecutions,
        Counter::CorpusLoaded,
        Counter::CorpusRejected,
        Counter::Registrations,
        Counter::Retirements,
        Counter::BudgetChanges,
        Counter::AppsSkipped,
        Counter::AppsRearbitrated,
        Counter::AppsSlept,
    ];

    /// The counter's snake_case report name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::QuantaStepped => "quanta_stepped",
            Counter::AppsObserved => "apps_observed",
            Counter::AppsDecided => "apps_decided",
            Counter::AwardsChanged => "awards_changed",
            Counter::AwardsHeld => "awards_held",
            Counter::Quarantines => "quarantines",
            Counter::Readmissions => "readmissions",
            Counter::MachineMeterViolations => "machine_meter_violations",
            Counter::RackMeterViolations => "rack_meter_violations",
            Counter::DatacenterMeterViolations => "datacenter_meter_violations",
            Counter::ClampEvents => "clamp_events",
            Counter::FuzzExecutions => "fuzz_executions",
            Counter::CorpusLoaded => "corpus_loaded",
            Counter::CorpusRejected => "corpus_rejected",
            Counter::Registrations => "registrations",
            Counter::Retirements => "retirements",
            Counter::BudgetChanges => "budget_changes",
            Counter::AppsSkipped => "apps_skipped",
            Counter::AppsRearbitrated => "apps_rearbitrated",
            Counter::AppsSlept => "apps_slept",
        }
    }
}

/// The latency histograms a [`Recorder`] maintains, one per instrumented
/// pipeline stage. Timings are wall-clock nanoseconds — benchmark data,
/// never fed back into the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Coordinator stage 1: observe the fleet + build requests.
    Observe,
    /// Coordinator stage 2: the sequential arbitration fold (includes the
    /// watchdog pass when enabled).
    Arbitrate,
    /// Coordinator stage 3: decide every present app under its envelope.
    Decide,
    /// Coordinator stage 4: the sequential registration-order summary fold.
    Summarise,
    /// One whole coordinator step (stages 1–4).
    Step,
    /// One application's individual decision call.
    Decision,
    /// One pooled `exec::ExecPool` batch dispatch (publish → last index
    /// done), recorded through the pool's dispatch observer.
    Dispatch,
    /// One whole datacenter step (rack requests → arbitrate → rack steps).
    DatacenterStep,
}

impl Stage {
    /// Every stage, in report order.
    pub const ALL: [Stage; 8] = [
        Stage::Observe,
        Stage::Arbitrate,
        Stage::Decide,
        Stage::Summarise,
        Stage::Step,
        Stage::Decision,
        Stage::Dispatch,
        Stage::DatacenterStep,
    ];

    /// The stage's snake_case report name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Observe => "observe",
            Stage::Arbitrate => "arbitrate",
            Stage::Decide => "decide",
            Stage::Summarise => "summarise",
            Stage::Step => "step",
            Stage::Decision => "decision",
            Stage::Dispatch => "dispatch",
            Stage::DatacenterStep => "datacenter_step",
        }
    }
}

/// A tiny stopwatch for stage timing: created only when a recorder is
/// attached, so the disabled path never calls [`Instant::now`].
#[derive(Debug, Clone, Copy)]
pub struct StageClock {
    origin: Instant,
    last: Instant,
}

impl StageClock {
    /// Starts the clock.
    pub fn start() -> Self {
        let now = Instant::now();
        StageClock {
            origin: now,
            last: now,
        }
    }

    /// Nanoseconds since the previous lap (or start), and restarts the lap.
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        ns
    }

    /// Nanoseconds since the clock started (laps included).
    pub fn total(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// The recording surface: counters, per-stage histograms, a peak-fleet
/// gauge, and the event sink.
///
/// Consumers hold an `Option<Arc<Recorder>>`; all methods take `&self`
/// (everything inside is atomic or behind the sink's own synchronisation),
/// so one recorder can serve a whole sharded coordinator or a fleet of
/// racks.
pub struct Recorder {
    counters: [AtomicU64; Counter::ALL.len()],
    stages: [Histogram; Stage::ALL.len()],
    peak_fleet: AtomicU64,
    sink: Arc<dyn Sink>,
    /// Kept alongside `sink` when the recorder owns a [`MemorySink`], so
    /// [`Self::snapshot`] can fold the buffered events in.
    memory: Option<Arc<MemorySink>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("quanta_stepped", &self.counter(Counter::QuantaStepped))
            .field("peak_fleet", &self.peak_fleet.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::null()
    }
}

impl Recorder {
    fn with_sinks(sink: Arc<dyn Sink>, memory: Option<Arc<MemorySink>>) -> Self {
        Recorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stages: std::array::from_fn(|_| Histogram::new()),
            peak_fleet: AtomicU64::new(0),
            sink,
            memory,
        }
    }

    /// A recorder whose event stream is discarded ([`NullSink`]); counters
    /// and histograms still record. The cheapest enabled configuration —
    /// what the overhead benchmark measures.
    pub fn null() -> Self {
        Recorder::with_sinks(Arc::new(NullSink), None)
    }

    /// A recorder buffering its event stream in memory, so
    /// [`Self::snapshot`] carries the events too.
    pub fn in_memory() -> Self {
        let memory = Arc::new(MemorySink::new());
        Recorder::with_sinks(
            Arc::<MemorySink>::clone(&memory) as Arc<dyn Sink>,
            Some(memory),
        )
    }

    /// A recorder streaming events into an arbitrary [`Sink`].
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Recorder::with_sinks(sink, None)
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn count(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increments `counter` by `by`.
    #[inline]
    pub fn add(&self, counter: Counter, by: u64) {
        self.counters[counter as usize].fetch_add(by, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records a wall-clock observation of `ns` nanoseconds for `stage`.
    #[inline]
    pub fn time(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record(ns);
    }

    /// The histogram behind `stage`.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Raises the peak-fleet-size gauge to at least `active_apps`.
    #[inline]
    pub fn observe_fleet_size(&self, active_apps: u64) {
        self.peak_fleet.fetch_max(active_apps, Ordering::Relaxed);
    }

    /// Emits one event into the sink.
    #[inline]
    pub fn emit(&self, event: Event) {
        self.sink.record(&event);
    }

    /// Folds the recorder into a plain-data [`ObsSnapshot`] (buffered
    /// events included when the recorder is [`Self::in_memory`]).
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|counter| counter.load(Ordering::Relaxed))
                .collect(),
            stages: Stage::ALL
                .iter()
                .map(|&stage| self.stages[stage as usize].snapshot())
                .collect(),
            peak_fleet_size: self.peak_fleet.load(Ordering::Relaxed),
            events: self
                .memory
                .as_ref()
                .map(|sink| sink.events())
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn counters_and_gauges_accumulate() {
        let recorder = Recorder::null();
        recorder.count(Counter::QuantaStepped);
        recorder.add(Counter::AppsDecided, 5);
        recorder.observe_fleet_size(10);
        recorder.observe_fleet_size(7);
        assert_eq!(recorder.counter(Counter::QuantaStepped), 1);
        assert_eq!(recorder.counter(Counter::AppsDecided), 5);
        assert_eq!(recorder.counter(Counter::AwardsChanged), 0);
        assert_eq!(recorder.snapshot().peak_fleet_size, 10);
        assert!(format!("{recorder:?}").contains("Recorder"));
    }

    #[test]
    fn in_memory_snapshot_carries_events() {
        let recorder = Recorder::in_memory();
        recorder.emit(Event {
            quantum: 3,
            kind: EventKind::Register { app: "fft".into() },
        });
        recorder.time(Stage::Step, 100);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.stage(Stage::Step).count, 1);
        // A null recorder's snapshot has no events even after emits.
        let null = Recorder::null();
        null.emit(Event {
            quantum: 0,
            kind: EventKind::BudgetChange { watts: 1.0 },
        });
        assert!(null.snapshot().events.is_empty());
    }

    #[test]
    fn stage_clock_laps_monotonically() {
        let mut clock = StageClock::start();
        let a = clock.lap();
        let b = clock.lap();
        let total = clock.total();
        assert!(total >= a.saturating_add(b) / 2, "total covers the laps");
    }
}
