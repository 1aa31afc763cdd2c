//! # Deterministic telemetry for the coordination stack
//!
//! Everything in this workspace is bit-deterministic — the same seed
//! produces the same figures at any worker count — and the telemetry layer
//! must not be the thing that breaks that. This crate therefore splits
//! observability into two strictly separated planes:
//!
//! * **Deterministic facts** — monotonic counters (quanta stepped, apps
//!   observed/decided, awards changed vs held, quarantines, meter
//!   violations by depth), gauges (peak fleet size), histogram *bucket
//!   counts*, and the structured [`Event`] stream. These are functions of
//!   the simulation alone: recorded from deterministic code paths (or as
//!   order-free atomic additions), they are identical run to run and
//!   identical at every worker count.
//! * **Wall-clock timings** — the *values* fed into the latency
//!   [`Histogram`]s (stage latencies, per-decision time, pool dispatch).
//!   These vary run to run like any benchmark; they are never read back by
//!   the simulation, so they cannot perturb results. Histogram bucket
//!   *boundaries* are fixed powers of two, so merging per-worker or
//!   per-cell histograms is associative and the merged shape depends only
//!   on the recorded values, not on merge order.
//!
//! The recording surface is [`Recorder`]: a fixed array of atomic counters,
//! one pre-allocated histogram per [`Stage`], and a [`Sink`] the event
//! stream flows into ([`NullSink`], [`MemorySink`], or [`JsonLinesSink`]).
//! Consumers hold an `Option<Arc<Recorder>>`; the disabled path is a single
//! branch on `None` with no allocation and no `Instant::now()` call. That
//! disabled branch's cost has not been measured yet: the < 2 % budget for
//! it is an open item, not a result.
//!
//! A finished run folds its recorders into an [`ObsSnapshot`]
//! (deterministically mergeable: counters add, buckets add, events
//! concatenate in merge order) and renders an [`ObsReport`] — the JSON
//! artifact the `--obs` flag of the figure binaries writes next to every
//! figure/bench/fuzz output.
//!
//! ```
//! use obs::{Counter, Event, EventKind, Recorder, Stage};
//!
//! let recorder = Recorder::in_memory();
//! recorder.count(Counter::QuantaStepped);
//! recorder.time(Stage::Decide, 1_500); // nanoseconds
//! recorder.emit(Event {
//!     quantum: 0,
//!     kind: EventKind::BudgetChange { watts: 50.0 },
//! });
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter(Counter::QuantaStepped), 1);
//! assert_eq!(snapshot.stage(Stage::Decide).count, 1);
//! assert_eq!(snapshot.events.len(), 1);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod event;
pub mod hist;
pub mod recorder;
pub mod report;

pub use event::{Event, EventKind, JsonLinesSink, MemorySink, NullSink, Sink};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use recorder::{Counter, Recorder, Stage, StageClock};
pub use report::{NamedCount, ObsReport, ObsSnapshot, StageReport};
