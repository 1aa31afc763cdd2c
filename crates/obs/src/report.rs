//! Snapshots and the `ObsReport` JSON artifact.
//!
//! An [`ObsSnapshot`] is the plain-data fold of one [`crate::Recorder`];
//! snapshots from per-cell or per-worker recorders merge deterministically
//! (counters add, histogram buckets add, peaks max, events concatenate in
//! merge order — callers merge in cell-index order). A finished snapshot
//! renders an [`ObsReport`], the JSON document the figure binaries write
//! under `--obs`.

use serde::{Deserialize, Serialize};

use crate::event::Event;
use crate::hist::HistogramSnapshot;
use crate::recorder::{Counter, Stage};

/// Plain-data fold of a recorder: counter values (in [`Counter::ALL`]
/// order), stage histograms (in [`Stage::ALL`] order), the peak-fleet
/// gauge, and any buffered events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Counter values, indexed by [`Counter::ALL`] position.
    pub counters: Vec<u64>,
    /// Stage histograms, indexed by [`Stage::ALL`] position.
    pub stages: Vec<HistogramSnapshot>,
    /// Largest fleet size (active apps in one quantum) observed.
    pub peak_fleet_size: u64,
    /// Buffered events, in emission order.
    pub events: Vec<Event>,
}

impl Default for ObsSnapshot {
    fn default() -> Self {
        ObsSnapshot::empty()
    }
}

impl ObsSnapshot {
    /// An all-zero snapshot (the identity for [`Self::merge`]).
    pub fn empty() -> Self {
        ObsSnapshot {
            counters: vec![0; Counter::ALL.len()],
            stages: (0..Stage::ALL.len())
                .map(|_| HistogramSnapshot::empty())
                .collect(),
            peak_fleet_size: 0,
            events: Vec::new(),
        }
    }

    /// The value of `counter` in this snapshot.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter as usize).copied().unwrap_or(0)
    }

    /// The histogram snapshot for `stage`.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Folds `other` into `self`: counters add, histogram buckets add,
    /// peaks max, and `other`'s events append after `self`'s. Counters and
    /// histograms are order-free; event order is the caller's contract —
    /// merge snapshots in cell-index (or rack-index) order to keep the
    /// combined stream deterministic.
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge(theirs);
        }
        self.peak_fleet_size = self.peak_fleet_size.max(other.peak_fleet_size);
        self.events.extend(other.events.iter().cloned());
    }

    /// Renders the snapshot as the `--obs` JSON artifact.
    pub fn to_report(&self) -> ObsReport {
        ObsReport {
            counters: Counter::ALL
                .iter()
                .map(|&counter| NamedCount {
                    name: counter.name().to_string(),
                    value: self.counter(counter),
                })
                .collect(),
            stages: Stage::ALL
                .iter()
                .map(|&stage| {
                    let snap = self.stage(stage);
                    StageReport {
                        name: stage.name().to_string(),
                        count: snap.count,
                        mean_ns: snap.mean_ns(),
                        p50_ns: snap.quantile_ns(0.50),
                        p90_ns: snap.quantile_ns(0.90),
                        p99_ns: snap.quantile_ns(0.99),
                        max_ns: snap.max_ns,
                        buckets: snap.buckets.clone(),
                    }
                })
                .collect(),
            peak_fleet_size: self.peak_fleet_size,
            events: self.events.clone(),
        }
    }
}

/// One named counter value in an [`ObsReport`]. (A vector of these, not a
/// JSON map, so the key order is the fixed [`Counter::ALL`] order.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedCount {
    /// Counter name (see [`Counter::name`]).
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One stage's latency summary in an [`ObsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage name (see [`Stage::name`]).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: f64,
    /// Median latency (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile latency (bucket upper bound), nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile latency (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Largest observed latency, nanoseconds.
    pub max_ns: u64,
    /// Raw bucket counts (fixed boundaries — see
    /// [`crate::hist::bucket_upper_ns`]).
    pub buckets: Vec<u64>,
}

/// The `--obs` JSON artifact: named counters, per-stage latency summaries,
/// the peak fleet gauge, and the structured event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Deterministic counters, in [`Counter::ALL`] order.
    pub counters: Vec<NamedCount>,
    /// Stage latency summaries, in [`Stage::ALL`] order.
    pub stages: Vec<StageReport>,
    /// Largest fleet size observed in one quantum.
    pub peak_fleet_size: u64,
    /// The structured event stream, in deterministic emission order.
    pub events: Vec<Event>,
}

impl ObsReport {
    /// The value of `name` among [`Self::counters`], if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The stage summary called `name`, if present.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::recorder::Recorder;

    #[test]
    fn merge_is_counterwise_and_keeps_event_order() {
        let a = Recorder::in_memory();
        a.count(Counter::QuantaStepped);
        a.time(Stage::Step, 10);
        a.emit(Event {
            quantum: 0,
            kind: EventKind::Register { app: "a".into() },
        });
        a.observe_fleet_size(4);
        let b = Recorder::in_memory();
        b.add(Counter::QuantaStepped, 2);
        b.time(Stage::Step, 20);
        b.emit(Event {
            quantum: 1,
            kind: EventKind::Register { app: "b".into() },
        });
        b.observe_fleet_size(9);

        let mut merged = ObsSnapshot::empty();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter(Counter::QuantaStepped), 3);
        assert_eq!(merged.stage(Stage::Step).count, 2);
        assert_eq!(merged.peak_fleet_size, 9);
        assert_eq!(merged.events.len(), 2);
        assert_eq!(merged.events[0].quantum, 0);
        assert_eq!(merged.events[1].quantum, 1);
    }

    #[test]
    fn report_names_every_counter_and_stage() {
        let recorder = Recorder::in_memory();
        recorder.count(Counter::AppsDecided);
        recorder.time(Stage::Decision, 3_000);
        let report = recorder.snapshot().to_report();
        assert_eq!(report.counters.len(), Counter::ALL.len());
        assert_eq!(report.stages.len(), Stage::ALL.len());
        assert_eq!(report.counter("apps_decided"), Some(1));
        assert_eq!(report.counter("quanta_stepped"), Some(0));
        assert_eq!(report.counter("nonexistent"), None);
        let decision = report.stage("decision").unwrap();
        assert_eq!(decision.count, 1);
        assert!(decision.p50_ns >= 2048);
        assert!(report.stage("bogus").is_none());
    }

    #[test]
    fn report_serializes_to_json() {
        let report = Recorder::in_memory().snapshot().to_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("quanta_stepped"));
        assert!(json.contains("datacenter_step"));
        let back: ObsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
