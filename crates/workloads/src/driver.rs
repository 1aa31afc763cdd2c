//! Heartbeat instrumentation: coupling a workload model to the heartbeat API.
//!
//! The paper instruments each SPLASH-2 application with the Application
//! Heartbeats API so that it emits one heartbeat per unit of work and states
//! a performance goal (§5.1). [`HeartbeatedWorkload`] plays that role for the
//! synthetic models: the experiment driver reports how much work the
//! substrate completed and at what simulated time, and the instrumentation
//! emits the corresponding heartbeats into a registry the SEEC runtime
//! observes.

use heartbeats::{Goal, HeartbeatIssuer, HeartbeatMonitor, HeartbeatRegistry, PerformanceGoal};

use crate::phases::Workload;

/// A workload instrumented with the Application Heartbeats API.
#[derive(Debug)]
pub struct HeartbeatedWorkload {
    workload: Workload,
    registry: HeartbeatRegistry,
    issuer: HeartbeatIssuer,
    completed_work: f64,
    emitted_beats: u64,
    work_per_beat: f64,
}

impl HeartbeatedWorkload {
    /// Instruments `workload` so that one heartbeat is emitted per work unit.
    pub fn new(workload: Workload) -> Self {
        Self::with_work_per_beat(workload, 1.0)
    }

    /// Instruments `workload` emitting one heartbeat every `work_per_beat`
    /// work units.
    ///
    /// # Panics
    ///
    /// Panics if `work_per_beat` is not positive.
    pub fn with_work_per_beat(workload: Workload, work_per_beat: f64) -> Self {
        assert!(work_per_beat > 0.0, "work per beat must be positive");
        let registry = HeartbeatRegistry::new(workload.benchmark().name());
        let issuer = registry.issuer();
        HeartbeatedWorkload {
            workload,
            registry,
            issuer,
            completed_work: 0.0,
            emitted_beats: 0,
            work_per_beat,
        }
    }

    /// The shared heartbeat registry (attach monitors from here).
    pub fn registry(&self) -> &HeartbeatRegistry {
        &self.registry
    }

    /// A fresh observer handle onto the application's heartbeats.
    pub fn monitor(&self) -> HeartbeatMonitor {
        self.registry.monitor()
    }

    /// Declares the application's performance goal as a target heart rate.
    pub fn set_heart_rate_goal(&self, beats_per_second: f64) {
        self.issuer
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(
                beats_per_second,
            )));
    }

    /// Total work units completed so far.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// Total heartbeats emitted so far.
    pub fn emitted_beats(&self) -> u64 {
        self.emitted_beats
    }

    /// Whether every work unit of the run has been completed.
    pub fn is_finished(&self) -> bool {
        self.completed_work >= self.workload.profile().total_work_units - 1e-9
    }

    /// Reports that the substrate completed `work_units` of application work
    /// by simulation time `now` (seconds). Emits one heartbeat per
    /// `work_per_beat` units crossed, all stamped at `now` (within a quantum
    /// the substrate does not resolve finer timing). Returns the number of
    /// heartbeats emitted.
    ///
    /// A NaN, infinite or negative `work_units`, or a non-finite `now`,
    /// credits no work and emits nothing.
    ///
    /// # Panics
    ///
    /// Panics if a beat is due and `now` precedes the previous beat.
    pub fn advance(&mut self, now: f64, work_units: f64) -> u64 {
        if !now.is_finite() {
            return 0;
        }
        self.credit(work_units);
        let beats = self.beats_due() - self.emitted_beats;
        self.emit(std::iter::repeat_n(now, beats as usize), None)
    }

    /// Reports that the substrate completed `work_units` of application
    /// work over the interval `[start, end]` while drawing
    /// `power_above_idle_watts`, stamping each emitted beat at the time its
    /// work boundary was crossed (linear interpolation over the interval)
    /// and recording one power sample per beat at the same timestamps.
    ///
    /// [`Self::advance`] stamps a whole interval's beats at its end, which
    /// systematically over-estimates window heart rates when the
    /// observation window spans only a few intervals (the window's time
    /// span misses up to one whole interval while keeping all its beats) —
    /// harmless when only orderings matter, but biased feedback for a
    /// controller that must track a target closely. The interpolated form
    /// removes that bias and keeps the power-sample horizon aligned with
    /// the beat window. Returns the number of beats emitted.
    ///
    /// The quantum's beats and samples enter the registry in one batch
    /// ([`HeartbeatIssuer::heartbeats`]), which reads only the stamps that
    /// stay observable, so a report claiming millions of beats costs what
    /// a window-sized one does. A NaN, infinite or negative
    /// `work_units`, or a non-finite `start` or `end`, credits no work and
    /// emits nothing.
    ///
    /// # Panics
    ///
    /// Panics if a beat is due and `start` precedes the previous beat.
    pub fn advance_metered(
        &mut self,
        start: f64,
        end: f64,
        work_units: f64,
        power_above_idle_watts: f64,
    ) -> u64 {
        // A non-finite endpoint makes the difference non-finite too.
        if !(end - start).is_finite() {
            return 0;
        }
        let span = (end - start).max(0.0);
        let before = self.completed_work;
        let work_units = self.credit(work_units);
        let per_beat = self.work_per_beat;
        // Beat `b + 1` crosses its work boundary at this stamp; the stamp is
        // closed-form in `b`, so the registry can read any beat's stamp.
        let stamps = (self.emitted_beats as usize..self.beats_due() as usize).map(|b| {
            let boundary = (b as u64 + 1) as f64 * per_beat;
            let fraction = if work_units > 0.0 {
                ((boundary - before) / work_units).clamp(0.0, 1.0)
            } else {
                1.0
            };
            start + fraction * span
        });
        self.emit(stamps, Some(power_above_idle_watts))
    }

    /// Adds `work_units` to the completed work, or nothing unless it is
    /// finite and positive, and returns the amount credited.
    fn credit(&mut self, work_units: f64) -> f64 {
        let credited = if work_units.is_finite() {
            work_units.max(0.0)
        } else {
            0.0
        };
        self.completed_work += credited;
        credited
    }

    /// Total beats due for the work completed so far.
    fn beats_due(&self) -> u64 {
        (self.completed_work / self.work_per_beat).floor() as u64
    }

    /// Emits one beat at each of `stamps`, with one power sample each if
    /// given. A report claiming more beats than the window holds costs
    /// only what stays observable (see [`HeartbeatIssuer::heartbeats`]).
    fn emit(
        &mut self,
        stamps: impl DoubleEndedIterator<Item = f64> + ExactSizeIterator,
        power: Option<f64>,
    ) -> u64 {
        let emitted = self
            .issuer
            .heartbeats(stamps, power)
            .expect("heartbeat timestamps must be monotonically non-decreasing");
        self.emitted_beats += emitted;
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SplashBenchmark;
    use heartbeats::GoalKind;

    fn instrumented() -> HeartbeatedWorkload {
        HeartbeatedWorkload::new(Workload::new(SplashBenchmark::Barnes, 1))
    }

    #[test]
    fn advance_emits_one_beat_per_work_unit() {
        let mut app = instrumented();
        let emitted = app.advance(0.1, 3.0);
        assert_eq!(emitted, 3);
        assert_eq!(app.emitted_beats(), 3);
        assert_eq!(app.monitor().stats().total_beats, 3);
    }

    #[test]
    fn fractional_work_accumulates_before_beating() {
        let mut app = instrumented();
        assert_eq!(app.advance(0.1, 0.4), 0);
        assert_eq!(app.advance(0.2, 0.4), 0);
        assert_eq!(app.advance(0.3, 0.4), 1);
        assert_eq!(app.emitted_beats(), 1);
        assert!((app.completed_work() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn heart_rate_reflects_progress_speed() {
        let mut app = instrumented();
        for i in 0..50 {
            app.advance(i as f64 * 0.1, 1.0); // 10 work units (beats) per second
        }
        let rate = app.monitor().window_heart_rate();
        assert!(
            (rate - 10.0).abs() < 0.5,
            "expected ~10 beats/s, got {rate}"
        );
    }

    #[test]
    fn advance_metered_interpolates_beats_and_records_power() {
        let mut app = instrumented();
        // 4 work units over [10, 14]: beats at 11, 12, 13, 14.
        let emitted = app.advance_metered(10.0, 14.0, 4.0, 25.0);
        assert_eq!(emitted, 4);
        let monitor = app.monitor();
        let stats = monitor.heart_rate();
        assert_eq!(stats.beats_in_window, 4);
        // Interpolated stamps make the window rate exact: 3 intervals / 3 s.
        assert!((stats.window - 1.0).abs() < 1e-9);
        assert_eq!(monitor.last_beat_timestamp(), Some(14.0));
        assert_eq!(monitor.mean_power(), Some(25.0));
        // Fractional carry lands mid-interval: 1.5 more units over [14, 16]
        // crosses one boundary at 14 + (1/1.5) * 2.
        let emitted = app.advance_metered(14.0, 16.0, 1.5, 30.0);
        assert_eq!(emitted, 1);
        let last = monitor.last_beat_timestamp().unwrap();
        assert!((last - (14.0 + 2.0 / 1.5)).abs() < 1e-9);
        // Degenerate inputs are safe.
        assert_eq!(app.advance_metered(16.0, 16.0, 0.0, 30.0), 0);
        assert_eq!(app.advance_metered(17.0, 16.0, 10.0, 30.0), 10);
    }

    #[test]
    fn non_finite_times_or_work_credit_nothing() {
        let mut app = instrumented();
        assert_eq!(app.advance_metered(0.0, 1.0, 2.0, 10.0), 2);
        for (start, end) in [(f64::NAN, 2.0), (1.0, f64::NAN), (1.0, f64::INFINITY)] {
            assert_eq!(app.advance_metered(start, end, 3.0, 10.0), 0);
        }
        assert_eq!(app.advance(f64::NAN, 3.0), 0);
        assert_eq!(app.advance(f64::NEG_INFINITY, 3.0), 0);
        for work in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -4.0] {
            assert_eq!(app.advance_metered(1.0, 2.0, work, 10.0), 0);
            assert_eq!(app.advance(2.0, work), 0);
        }
        assert_eq!(app.completed_work(), 2.0);
        assert_eq!(app.emitted_beats(), 2);
        // The window was not poisoned: a later, earlier-than-NaN beat is
        // still judged against the last finite one and accepted.
        let monitor = app.monitor();
        assert_eq!(monitor.last_beat_timestamp(), Some(1.0));
        assert_eq!(app.advance_metered(1.0, 2.0, 1.0, 10.0), 1);
        assert_eq!(monitor.stats().total_beats, 3);
        assert_eq!(monitor.last_beat_timestamp(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn time_running_backwards_still_panics() {
        let mut app = instrumented();
        app.advance_metered(5.0, 6.0, 1.0, 10.0);
        app.advance_metered(3.0, 4.0, 1.0, 10.0);
    }

    #[test]
    fn goal_is_visible_to_monitors() {
        let app = instrumented();
        app.set_heart_rate_goal(30.0);
        let monitor = app.monitor();
        assert_eq!(monitor.target_heart_rate(), Some(30.0));
        assert!(monitor.goal_of_kind(GoalKind::Performance).is_some());
        assert_eq!(&*monitor.name(), "barnes");
    }

    #[test]
    fn finished_tracks_total_work() {
        let mut app = instrumented();
        let total = SplashBenchmark::Barnes.profile().total_work_units;
        assert!(!app.is_finished());
        app.advance(1.0, total / 2.0);
        assert!((app.completed_work() - total / 2.0).abs() < 1e-9);
        assert!(!app.is_finished());
        app.advance(2.0, total);
        assert!(app.is_finished());
    }

    #[test]
    fn custom_work_per_beat_changes_granularity() {
        let workload = Workload::new(SplashBenchmark::WaterSpatial, 2);
        let mut app = HeartbeatedWorkload::with_work_per_beat(workload, 4.0);
        assert_eq!(app.advance(0.5, 9.0), 2);
        assert_eq!(app.emitted_beats(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_work_per_beat_panics() {
        let workload = Workload::new(SplashBenchmark::Volrend, 2);
        let _ = HeartbeatedWorkload::with_work_per_beat(workload, 0.0);
    }
}
