//! The structured event stream and its sinks.
//!
//! Events are the *discrete* facts of a run — lifecycle changes, health
//! transitions, breaker trips, fuzz incidents — stamped with the quantum
//! they happened on. They are emitted only from deterministic contexts —
//! driver-thread calls and the sequential stages of a coordinator step,
//! never from pool workers (see `coordinator`) — so they stream in call
//! order, and the stream on any [`Sink`] is byte-identical run to run and
//! at every worker count.
//!
//! Event payloads are plain strings and numbers, not coordinator types —
//! the telemetry crate sits below everything it observes, so nothing
//! upstream can depend on it cyclically.

use std::io::Write;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// What happened (see variants); stamped into an [`Event`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// An application registered with a coordinator.
    Register {
        /// Application name (heartbeat registry name).
        app: String,
    },
    /// An application retired from a coordinator.
    Retire {
        /// Application name.
        app: String,
    },
    /// A coordinator's (or arbiter's) power budget was replaced mid-run.
    BudgetChange {
        /// The new budget, in watts above idle.
        watts: f64,
    },
    /// An application moved on the watchdog's degradation ladder.
    HealthTransition {
        /// Application name.
        app: String,
        /// Registration index within its coordinator.
        index: u64,
        /// Ladder state before the transition (`Debug` form).
        from: String,
        /// Ladder state after the transition.
        to: String,
    },
    /// A rack breaker throttled a report that would overdraw the envelope.
    EnvelopeClamp {
        /// Energy refused by this clamp, in joules.
        shed_joules: f64,
    },
    /// A registration was refused by the admission feasibility pre-check:
    /// the registrant's cheapest-configuration floor exceeded the
    /// remaining cap headroom.
    AdmissionRejected {
        /// Application name.
        app: String,
        /// The registrant's cheapest-configuration power floor, in watts.
        floor_watts: f64,
        /// Cap headroom remaining before this registration, in watts.
        headroom_watts: f64,
    },
    /// The scenario fuzzer raised (or replayed) an incident.
    Incident {
        /// The incident's violation classes, `+`-joined.
        classes: String,
    },
    /// A fuzz corpus file was (re)loaded from disk.
    CorpusLoad {
        /// Entries that parsed and joined the seed pool.
        loaded: u64,
        /// Entries rejected as unreadable.
        rejected: u64,
    },
}

/// One entry of the structured event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// The shared quantum index the event is stamped with (iteration index
    /// for fuzzer events).
    pub quantum: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Where the event stream goes. Implementations must be cheap and
/// thread-safe; the deterministic-order guarantee is the *emitter's* job
/// (events reach the sink in a deterministic order by construction).
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &Event);
}

/// Discards every event — the zero-cost sink a disabled stream compiles
/// down to.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Buffers events in memory, for snapshots and tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of every event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("event buffer lock").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("event buffer lock").len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.lock().expect("event buffer lock").push(event.clone());
    }
}

/// Streams events to a file as JSON lines (one serialized [`Event`] per
/// line), for tailing long runs.
#[derive(Debug)]
pub struct JsonLinesSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonLinesSink {
    /// Creates (truncating) `path` and streams events into it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink {
            writer: Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl Sink for JsonLinesSink {
    fn record(&self, event: &Event) {
        if let Ok(line) = serde_json::to_string(event) {
            let mut writer = self.writer.lock().expect("jsonl writer lock");
            let _ = writeln!(writer, "{line}");
            let _ = writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_keeps_arrival_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        for quantum in 0..3 {
            sink.record(&Event {
                quantum,
                kind: EventKind::BudgetChange { watts: quantum as f64 },
            });
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].quantum, 2);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn null_sink_discards() {
        NullSink.record(&Event {
            quantum: 0,
            kind: EventKind::Retire { app: "a".into() },
        });
    }

    #[test]
    fn events_serialize_round_trip() {
        let event = Event {
            quantum: 7,
            kind: EventKind::HealthTransition {
                app: "barnes".into(),
                index: 3,
                from: "Healthy".into(),
                to: "Quarantined".into(),
            },
        };
        let json = serde_json::to_string(&event).unwrap();
        assert!(json.contains("Quarantined"));
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let path = std::env::temp_dir().join("obs_jsonl_sink_test.jsonl");
        let path = path.to_str().unwrap().to_string();
        let sink = JsonLinesSink::create(&path).unwrap();
        for quantum in 0..2 {
            sink.record(&Event {
                quantum,
                kind: EventKind::Register { app: "fft".into() },
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let _: Event = serde_json::from_str(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }
}
