//! Property test: the batched ingestion of `HeartbeatedWorkload::advance`
//! and `advance_metered` (one registry lock per call) must leave the
//! registry bit for bit as the per-beat loop it replaced: one
//! `issuer.heartbeat` and one `record_power_sample` per beat, each taking
//! its own lock. That loop lives on here only, as the oracle.
//!
//! The drawn reports cover zero, negative, NaN and fractional work,
//! intervals that end before they start, work-per-beat granularities
//! below and above one unit, and enough beats to evict the window many
//! times over. Report times only move forward (a later report never
//! starts before an earlier one ended), as both paths require.
//!
//! Reports far beyond the window's capacity, where the batch reads only
//! the first beat and the retained tail, are drawn separately, some after
//! tagged or distortion-carrying beats that the window still holds.

use heartbeats::{
    Goal, HeartbeatIssuer, HeartbeatMonitor, HeartbeatRegistry, PerformanceGoal, Tag,
};
use proptest::prelude::*;
use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};

/// The per-beat ingestion loop, as `HeartbeatedWorkload` ran it before
/// its beats were batched.
struct PerBeat {
    issuer: HeartbeatIssuer,
    monitor: HeartbeatMonitor,
    completed_work: f64,
    emitted_beats: u64,
    work_per_beat: f64,
}

impl PerBeat {
    fn new(work_per_beat: f64) -> Self {
        let registry = HeartbeatRegistry::new(SplashBenchmark::Barnes.name());
        PerBeat {
            issuer: registry.issuer(),
            monitor: registry.monitor(),
            completed_work: 0.0,
            emitted_beats: 0,
            work_per_beat,
        }
    }

    fn advance(&mut self, now: f64, work_units: f64) -> u64 {
        self.completed_work += work_units.max(0.0);
        let due = (self.completed_work / self.work_per_beat).floor() as u64;
        let mut emitted = 0;
        while self.emitted_beats < due {
            self.issuer.heartbeat(now);
            self.emitted_beats += 1;
            emitted += 1;
        }
        emitted
    }

    fn advance_metered(&mut self, start: f64, end: f64, work_units: f64, power: f64) -> u64 {
        let work_units = work_units.max(0.0);
        let span = (end - start).max(0.0);
        let before = self.completed_work;
        self.completed_work += work_units;
        let due = (self.completed_work / self.work_per_beat).floor() as u64;
        let mut emitted = 0;
        while self.emitted_beats < due {
            let boundary = (self.emitted_beats + 1) as f64 * self.work_per_beat;
            let fraction = if work_units > 0.0 {
                ((boundary - before) / work_units).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let timestamp = start + fraction * span;
            self.issuer.heartbeat(timestamp);
            self.monitor.record_power_sample(timestamp, power);
            self.emitted_beats += 1;
            emitted += 1;
        }
        emitted
    }
}

/// One drawn report, decoded from five uniform draws in `[0, 1)`.
#[derive(Debug, Clone, Copy)]
struct Report {
    /// Gap after the previous report's later endpoint.
    gap: f64,
    /// Signed length of the interval: negative means `end < start`.
    length: f64,
    work: f64,
    power: f64,
    /// `advance` (beats stamped at one time, no power) instead of
    /// `advance_metered`.
    unmetered: bool,
}

impl Report {
    fn decode(raw: &[f64]) -> Self {
        let [gap, length, work, power, kind] = [raw[0], raw[1], raw[2], raw[3], raw[4]];
        Report {
            // Most reports start where the previous one ended.
            gap: if gap < 0.7 { 0.0 } else { gap - 0.7 },
            // A sixth of the intervals run backwards, a sixth are empty.
            length: match (length * 6.0) as u32 {
                0 => -2.0 * length,
                1 => 0.0,
                _ => 2.0 * length,
            },
            work: match (work * 8.0) as u32 {
                0 => 0.0,
                1 => -5.0 * work,
                2 => f64::NAN,
                // Whole units, so boundaries land exactly on interval ends.
                3 => (work * 320.0).floor() - 96.0,
                _ => 12.0 * work,
            },
            power: 120.0 * power,
            unmetered: kind < 0.2,
        }
    }
}

/// `Debug` prints every `f64` in its shortest round-tripping form, so
/// equal strings mean equal bits (NaN payloads aside).
fn bits<T: std::fmt::Debug>(value: T) -> String {
    format!("{value:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batched_ingestion_matches_the_per_beat_loop(
        raw in proptest::collection::vec(0.0..1.0f64, 5..300),
        granularity in 0.0..1.0f64,
        origin in -50.0..50.0f64,
    ) {
        let work_per_beat = if granularity < 0.3 { 1.0 } else { 0.3 + 3.0 * granularity };
        let workload = Workload::new(SplashBenchmark::Barnes, 1);
        let mut batched = HeartbeatedWorkload::with_work_per_beat(workload, work_per_beat);
        let monitor = batched.monitor();
        let mut oracle = PerBeat::new(work_per_beat);
        batched.set_heart_rate_goal(5.0);
        oracle.issuer.set_goal(Goal::Performance(PerformanceGoal::heart_rate(5.0)));

        let mut clock = origin;
        for r in raw.chunks_exact(5).map(Report::decode) {
            let start = clock + r.gap;
            let end = start + r.length;
            let (got, want) = if r.unmetered {
                (batched.advance(start, r.work), oracle.advance(start, r.work))
            } else {
                (
                    batched.advance_metered(start, end, r.work, r.power),
                    oracle.advance_metered(start, end, r.work, r.power),
                )
            };
            clock = start.max(end);

            prop_assert_eq!(got, want);
            prop_assert_eq!(batched.emitted_beats(), oracle.emitted_beats);
            prop_assert_eq!(bits(batched.completed_work()), bits(oracle.completed_work));
            prop_assert_eq!(bits(monitor.observation()), bits(oracle.monitor.observation()));
            prop_assert_eq!(bits(monitor.stats()), bits(oracle.monitor.stats()));
        }
    }
}

/// One drawn report claiming far more beats than the window holds,
/// decoded from five uniform draws in `[0, 1)`.
#[derive(Debug, Clone, Copy)]
struct HugeReport {
    gap: f64,
    length: f64,
    work: f64,
    power: f64,
    /// `advance` instead of `advance_metered`.
    unmetered: bool,
    /// An annotated beat pushed just before the report: a tag, a
    /// distortion, or neither.
    annotation: Option<bool>,
}

impl HugeReport {
    fn decode(raw: &[f64]) -> Self {
        let [gap, length, work, power, kind] = [raw[0], raw[1], raw[2], raw[3], raw[4]];
        HugeReport {
            gap: if gap < 0.5 { 0.0 } else { gap - 0.5 },
            length: if length < 0.15 { 0.0 } else { 3.0 * length },
            // From just under the capacity (64) to about 70 times it.
            work: 60.0 + 4_500.0 * work,
            power: 120.0 * power,
            unmetered: kind < 0.25,
            annotation: match (kind * 10.0) as u32 {
                3 => Some(true),
                4 | 5 => Some(false),
                _ => None,
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reports_far_beyond_capacity_match_the_per_beat_loop(
        raw in proptest::collection::vec(0.0..1.0f64, 5..60),
        granularity in 0.0..1.0f64,
        origin in -50.0..50.0f64,
    ) {
        let work_per_beat = if granularity < 0.3 { 1.0 } else { 0.3 + 1.5 * granularity };
        let workload = Workload::new(SplashBenchmark::Barnes, 1);
        let mut batched = HeartbeatedWorkload::with_work_per_beat(workload, work_per_beat);
        let issuer = batched.registry().issuer();
        let monitor = batched.monitor();
        let mut oracle = PerBeat::new(work_per_beat);

        let mut clock = origin;
        for r in raw.chunks_exact(5).map(HugeReport::decode) {
            let start = clock + r.gap;
            match r.annotation {
                Some(true) => {
                    issuer.tagged_heartbeat(start, "frame").unwrap();
                    oracle.issuer.tagged_heartbeat(start, "frame").unwrap();
                }
                Some(false) => {
                    issuer.heartbeat_with_distortion(start, r.power / 500.0).unwrap();
                    oracle.issuer.heartbeat_with_distortion(start, r.power / 500.0).unwrap();
                }
                None => {}
            }
            let end = start + r.length;
            let (got, want) = if r.unmetered {
                (batched.advance(start, r.work), oracle.advance(start, r.work))
            } else {
                (
                    batched.advance_metered(start, end, r.work, r.power),
                    oracle.advance_metered(start, end, r.work, r.power),
                )
            };
            clock = start.max(end);

            prop_assert_eq!(got, want);
            prop_assert_eq!(batched.emitted_beats(), oracle.emitted_beats);
            prop_assert_eq!(bits(monitor.observation()), bits(oracle.monitor.observation()));
            prop_assert_eq!(bits(monitor.stats()), bits(oracle.monitor.stats()));
            prop_assert_eq!(
                bits(monitor.tagged_latency(&Tag::new("frame"))),
                bits(oracle.monitor.tagged_latency(&Tag::new("frame")))
            );
        }
    }
}

#[test]
fn one_report_of_a_million_beats_matches_the_per_beat_loop() {
    let workload = Workload::new(SplashBenchmark::Barnes, 1);
    let mut batched = HeartbeatedWorkload::new(workload);
    let monitor = batched.monitor();
    let mut oracle = PerBeat::new(1.0);
    // The window holds annotated beats when the report arrives.
    for (issuer, at) in [
        (batched.registry().issuer(), 0.0),
        (oracle.issuer.clone(), 0.0),
    ] {
        issuer.tagged_heartbeat(at, "frame").unwrap();
        issuer.heartbeat_with_distortion(at + 0.25, 0.125).unwrap();
        issuer.tagged_heartbeat(at + 0.5, "frame").unwrap();
    }
    assert_eq!(
        batched.advance_metered(1.0, 3.0, 1_000_000.5, 42.0),
        oracle.advance_metered(1.0, 3.0, 1_000_000.5, 42.0)
    );
    assert_eq!(
        batched.advance(3.5, 250_000.0),
        oracle.advance(3.5, 250_000.0)
    );
    assert_eq!(batched.emitted_beats(), 1_250_000);
    assert_eq!(
        bits(monitor.observation()),
        bits(oracle.monitor.observation())
    );
    assert_eq!(bits(monitor.stats()), bits(oracle.monitor.stats()));
    assert_eq!(monitor.tagged_latency(&Tag::new("frame")), None);
    assert_eq!(monitor.stats().total_beats, 1_250_003);
}
