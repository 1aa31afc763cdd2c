use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::error::HeartbeatError;
use crate::goal::{Goal, GoalKind};
use crate::record::{BeatSeq, Tag};
use crate::window::{HeartRateStats, Window};

/// Default number of beats retained in the observation window.
pub const DEFAULT_WINDOW: usize = 64;

/// Aggregate statistics about a registry, useful for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegistryStats {
    /// Total beats emitted over the application lifetime.
    pub total_beats: u64,
    /// Heart-rate statistics over the current window.
    pub heart_rate: HeartRateStats,
    /// Mean distortion over the window (if the application reports accuracy).
    pub mean_distortion: Option<f64>,
}

/// Everything a decision engine needs from one observation of the
/// application, captured under a single lock acquisition.
///
/// [`HeartbeatMonitor::observation`] exists for the hot observe path: the
/// SEEC runtime previously took five independent read locks per decision
/// (stats, goal, goal-met, last beat, power); a snapshot takes one.
/// The [`Default`] value (zeroed statistics, no goal, no samples) is a
/// placeholder for buffers sized before their first snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitorObservation {
    /// Heart-rate statistics over the window.
    pub stats: HeartRateStats,
    /// Simulation time of the most recent beat, if any.
    pub last_beat_timestamp: Option<f64>,
    /// Target heart rate implied by the application's performance goal.
    pub target_heart_rate: Option<f64>,
    /// Mean of the retained platform power samples, in watts.
    pub mean_power: Option<f64>,
    /// Whether the performance goal (if any) is met by the window rate;
    /// `None` when no goal is registered or fewer than two beats observed.
    pub performance_goal_met: Option<bool>,
}

#[derive(Debug)]
struct Inner {
    name: Arc<str>,
    window: Window,
    goals: Vec<Goal>,
    /// Power samples attributed to this application by the platform, in
    /// watts, oldest first. Retained for the same horizon as the window,
    /// in a ring so eviction is O(1); only their mean is ever observed, so
    /// the sample times are not kept.
    power_samples: VecDeque<f64>,
    max_power_samples: usize,
}

impl Inner {
    /// Checks that a beat may be stamped at `timestamp`: finite, and not
    /// earlier than the previous beat.
    fn admit(&self, timestamp: f64) -> Result<(), HeartbeatError> {
        if !timestamp.is_finite() {
            return Err(HeartbeatError::NonFiniteTime {
                supplied: timestamp,
            });
        }
        match self.window.last_timestamp() {
            Some(last) if timestamp < last => Err(HeartbeatError::NonMonotonicTime {
                previous: last,
                supplied: timestamp,
            }),
            _ => Ok(()),
        }
    }

    fn beat(
        &mut self,
        timestamp: f64,
        tag: Option<Tag>,
        distortion: Option<f64>,
    ) -> Result<BeatSeq, HeartbeatError> {
        self.admit(timestamp)?;
        let seq = self.window.total_beats();
        self.window.push_beat(timestamp, tag, distortion);
        Ok(seq)
    }

    /// Admits and pushes one plain beat, with a power sample if given.
    fn ingest(&mut self, timestamp: f64, power_watts: Option<f64>) -> Result<(), HeartbeatError> {
        self.admit(timestamp)?;
        self.window.push_beat(timestamp, None, None);
        if let Some(watts) = power_watts {
            self.record_power(watts);
        }
        Ok(())
    }

    fn record_power(&mut self, watts: f64) {
        if self.power_samples.len() == self.max_power_samples {
            self.power_samples.pop_front();
        }
        self.power_samples.push_back(watts);
    }

    fn target_heart_rate(&self) -> Option<f64> {
        self.goals.iter().find_map(|g| match g {
            Goal::Performance(goal) => Some(goal.implied_heart_rate()),
            _ => None,
        })
    }

    /// Mean power over the retained samples. Summed front-to-back exactly as
    /// the samples were recorded so the result is bit-identical to a scan of
    /// the pre-ring `Vec` storage (the mean feeds the decision loop, whose
    /// outputs must stay reproducible).
    fn mean_power(&self) -> Option<f64> {
        if self.power_samples.is_empty() {
            return None;
        }
        let sum: f64 = self.power_samples.iter().sum();
        Some(sum / self.power_samples.len() as f64)
    }
}

/// Shared heartbeat state for one application.
///
/// The registry is the meeting point of the two halves of the API: the
/// *application side* ([`HeartbeatIssuer`]) emits beats and declares goals,
/// while the *system side* ([`HeartbeatMonitor`]) observes progress. Both
/// handles are cheaply cloneable and thread-safe.
#[derive(Debug, Clone)]
pub struct HeartbeatRegistry {
    inner: Arc<RwLock<Inner>>,
}

impl HeartbeatRegistry {
    /// Creates a registry with the default window size.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_window(name, DEFAULT_WINDOW)
    }

    /// Creates a registry retaining `window` beats for observation.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(name: impl Into<String>, window: usize) -> Self {
        HeartbeatRegistry {
            inner: Arc::new(RwLock::new(Inner {
                name: Arc::from(name.into()),
                window: Window::new(window),
                goals: Vec::new(),
                power_samples: VecDeque::with_capacity(window.max(DEFAULT_WINDOW)),
                max_power_samples: window.max(DEFAULT_WINDOW),
            })),
        }
    }

    /// Application name given at construction. The name is interned in an
    /// `Arc<str>`, so this clones a pointer, not the string.
    pub fn name(&self) -> Arc<str> {
        Arc::clone(&self.inner.read().name)
    }

    /// Returns the application-side handle.
    pub fn issuer(&self) -> HeartbeatIssuer {
        HeartbeatIssuer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Returns the system-side (observer) handle.
    pub fn monitor(&self) -> HeartbeatMonitor {
        HeartbeatMonitor {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Application-side handle: emits heartbeats and declares goals.
#[derive(Debug, Clone)]
pub struct HeartbeatIssuer {
    inner: Arc<RwLock<Inner>>,
}

impl HeartbeatIssuer {
    /// Emits a heartbeat at simulation time `now` (seconds).
    ///
    /// Returns the sequence number of the new beat. Beats with a timestamp
    /// earlier than the previous beat are rejected; beats with an equal
    /// timestamp are accepted (several beats may share a simulation quantum).
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::NonFiniteTime`] when `now` is NaN or
    /// infinite, and [`HeartbeatError::NonMonotonicTime`] when `now`
    /// precedes the previous beat.
    pub fn try_heartbeat(&self, now: f64) -> Result<BeatSeq, HeartbeatError> {
        self.inner.write().beat(now, None, None)
    }

    /// Emits one plain heartbeat at each of `timestamps`, in order, under a
    /// single lock acquisition, and with each beat records a platform power
    /// sample of `power_watts` when one is given. Returns the number of
    /// beats emitted.
    ///
    /// This is the ingestion path of a whole quantum: it leaves the
    /// registry exactly as calling [`Self::try_heartbeat`] and then
    /// [`HeartbeatMonitor::record_power_sample`] once per beat would.
    ///
    /// A batch longer than the power-sample ring (never shorter than the
    /// window) costs what the ring holds, not what the batch claims. It
    /// reads only what stays observable: its first timestamp (the first
    /// beat ever, on a fresh registry) and, from the back, the last
    /// ring-length timestamps. The beats between are only counted; their
    /// timestamps are never read or checked, so such a batch must be
    /// non-decreasing, as the beats of one report are.
    ///
    /// # Errors
    ///
    /// Stops at the first timestamp read that [`Self::try_heartbeat`]
    /// would reject and returns its error. The beats before it (and their
    /// power samples) stay recorded, as they would one call at a time.
    pub fn heartbeats<I>(
        &self,
        timestamps: I,
        power_watts: Option<f64>,
    ) -> Result<u64, HeartbeatError>
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: DoubleEndedIterator + ExactSizeIterator,
    {
        let mut timestamps = timestamps.into_iter();
        let mut inner = self.inner.write();
        let beats = timestamps.len();
        let horizon = inner.max_power_samples;
        if beats > horizon + 1 {
            // The beats between the first and the tail would be evicted
            // from the window and the ring before anyone could read them.
            let first = timestamps.next().expect("the batch is not empty");
            let mut tail: Vec<f64> = timestamps.rev().take(horizon).collect();
            tail.reverse();
            inner.ingest(first, power_watts)?;
            inner.window.count_evicted((beats - 1 - horizon) as u64);
            for timestamp in tail {
                inner.ingest(timestamp, power_watts)?;
            }
            return Ok(beats as u64);
        }
        let mut emitted = 0;
        for timestamp in timestamps {
            inner.ingest(timestamp, power_watts)?;
            emitted += 1;
        }
        Ok(emitted)
    }

    /// Emits a heartbeat, panicking on non-monotonic time.
    ///
    /// This mirrors the C API's fire-and-forget `heartbeat()` call and is the
    /// common path for simulated applications whose clock cannot go
    /// backwards.
    ///
    /// # Panics
    ///
    /// Panics if `now` is not finite or precedes the timestamp of the
    /// previous beat.
    pub fn heartbeat(&self, now: f64) -> BeatSeq {
        self.try_heartbeat(now)
            .expect("heartbeat timestamps must be finite and monotonically non-decreasing")
    }

    /// Emits a tagged heartbeat (see [`Tag`]).
    ///
    /// # Errors
    ///
    /// As [`Self::try_heartbeat`].
    pub fn tagged_heartbeat(
        &self,
        now: f64,
        tag: impl Into<Tag>,
    ) -> Result<BeatSeq, HeartbeatError> {
        self.inner.write().beat(now, Some(tag.into()), None)
    }

    /// Emits a heartbeat carrying an accuracy (distortion) report.
    ///
    /// # Errors
    ///
    /// As [`Self::try_heartbeat`].
    pub fn heartbeat_with_distortion(
        &self,
        now: f64,
        distortion: f64,
    ) -> Result<BeatSeq, HeartbeatError> {
        self.inner.write().beat(now, None, Some(distortion))
    }

    /// Registers (or replaces) the goal of the same kind.
    ///
    /// # Panics
    ///
    /// Panics if the goal parameters are invalid; use [`Self::try_set_goal`]
    /// to handle invalid goals gracefully.
    pub fn set_goal(&self, goal: Goal) {
        self.try_set_goal(goal).expect("goal must be valid");
    }

    /// Registers (or replaces) the goal of the same kind.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::InvalidGoal`] if the goal parameters are
    /// invalid (non-positive targets, empty windows, ...).
    pub fn try_set_goal(&self, goal: Goal) -> Result<(), HeartbeatError> {
        goal.validate()?;
        let mut inner = self.inner.write();
        let kind = goal.kind();
        inner.goals.retain(|g| g.kind() != kind);
        inner.goals.push(goal);
        Ok(())
    }

    /// Removes the goal of the given kind, returning it if present.
    pub fn clear_goal(&self, kind: GoalKind) -> Option<Goal> {
        let mut inner = self.inner.write();
        let pos = inner.goals.iter().position(|g| g.kind() == kind)?;
        Some(inner.goals.remove(pos))
    }
}

/// System-side handle: observes heartbeats, goals, and power attribution.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    inner: Arc<RwLock<Inner>>,
}

impl HeartbeatMonitor {
    /// Name of the observed application, as a cheaply cloneable `Arc<str>`.
    pub fn name(&self) -> Arc<str> {
        Arc::clone(&self.inner.read().name)
    }

    /// Heart rate over the observation window, in beats/second.
    pub fn window_heart_rate(&self) -> f64 {
        self.inner.read().window.heart_rate().window
    }

    /// Heart-rate statistics (instant / window / global rate and the
    /// window's beat count).
    pub fn heart_rate(&self) -> HeartRateStats {
        self.inner.read().window.heart_rate()
    }

    /// The slowest and fastest instantaneous rates over the observation
    /// window, in beats/second ([`Window::instant_extremes`]: one scan of
    /// the retained intervals, which no snapshot pays for).
    pub fn instant_extremes(&self) -> (f64, f64) {
        self.inner.read().window.instant_extremes()
    }

    /// Simulation time of the most recent beat, if any. Window-averaged
    /// rates describe the interval *ending at this time*, which may trail
    /// the caller's clock when the application has stopped beating.
    pub fn last_beat_timestamp(&self) -> Option<f64> {
        self.inner.read().window.last_timestamp()
    }

    /// Aggregate registry statistics.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.read();
        RegistryStats {
            total_beats: inner.window.total_beats(),
            heart_rate: inner.window.heart_rate(),
            mean_distortion: inner.window.mean_distortion(),
        }
    }

    /// Captures everything the decide path observes — rate statistics, the
    /// performance target, goal attainment, the last beat time, and mean
    /// power — under one lock acquisition.
    pub fn observation(&self) -> MonitorObservation {
        let inner = self.inner.read();
        let stats = inner.window.heart_rate();
        let target_heart_rate = inner.target_heart_rate();
        let performance_goal_met = match target_heart_rate {
            Some(target) if stats.beats_in_window >= 2 => Some(stats.window >= target),
            Some(_) => None,
            None => None,
        };
        MonitorObservation {
            stats,
            last_beat_timestamp: inner.window.last_timestamp(),
            target_heart_rate,
            mean_power: inner.mean_power(),
            performance_goal_met,
        }
    }

    /// Calls `f` with the application's registered goals, without cloning
    /// them. Prefer this over [`Self::goals`] anywhere called repeatedly.
    pub fn with_goals<R>(&self, f: impl FnOnce(&[Goal]) -> R) -> R {
        f(&self.inner.read().goals)
    }

    /// All goals currently registered by the application, cloned. For
    /// clone-free access use [`Self::with_goals`].
    pub fn goals(&self) -> Vec<Goal> {
        self.inner.read().goals.clone()
    }

    /// The goal of a particular kind, if registered.
    pub fn goal_of_kind(&self, kind: GoalKind) -> Option<Goal> {
        self.inner
            .read()
            .goals
            .iter()
            .find(|g| g.kind() == kind)
            .cloned()
    }

    /// The first registered goal, if any (convenience for single-goal apps).
    pub fn goal(&self) -> Option<Goal> {
        self.inner.read().goals.first().cloned()
    }

    /// Target heart rate implied by the performance goal, if one is set.
    pub fn target_heart_rate(&self) -> Option<f64> {
        self.inner.read().target_heart_rate()
    }

    /// Latency between the last two beats tagged `tag`, if observable.
    pub fn tagged_latency(&self, tag: &Tag) -> Option<f64> {
        self.inner.read().window.tagged_latency(tag)
    }

    /// Mean distortion over the window, if the application reports accuracy.
    pub fn mean_distortion(&self) -> Option<f64> {
        self.inner.read().window.mean_distortion()
    }

    /// Records a platform-attributed power sample (timestamp seconds, watts).
    ///
    /// Power is measured by the platform (e.g. the WattsUp meter in §5.2 or
    /// Angstrom's energy sensors in §4.1), not by the application, so a
    /// lone sample enters through the monitor side of the API. A platform
    /// that reports a quantum's beats for the application hands their
    /// samples to [`HeartbeatIssuer::heartbeats`] instead.
    ///
    /// Only the mean of the retained samples is observed, so `now` is not
    /// kept.
    pub fn record_power_sample(&self, now: f64, watts: f64) {
        let _ = now;
        self.inner.write().record_power(watts);
    }

    /// Mean of the retained power samples, in watts.
    pub fn mean_power(&self) -> Option<f64> {
        self.inner.read().mean_power()
    }

    /// Whether the performance goal (if any) is currently met by the window
    /// heart rate. Returns `None` when no performance goal is registered or
    /// too few beats have been observed.
    pub fn performance_goal_met(&self) -> Option<bool> {
        self.observation().performance_goal_met
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::{AccuracyGoal, PerformanceGoal, PowerGoal};

    #[test]
    fn issuer_and_monitor_share_state() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        let monitor = registry.monitor();
        for i in 0..20 {
            issuer.heartbeat(i as f64 * 0.05); // 20 beats/s
        }
        assert!((monitor.window_heart_rate() - 20.0).abs() < 1e-9);
        assert_eq!(monitor.stats().total_beats, 20);
        assert_eq!(&*registry.name(), "app");
        assert_eq!(&*monitor.name(), "app");
    }

    #[test]
    fn non_monotonic_time_is_rejected() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        issuer.heartbeat(1.0);
        let err = issuer.try_heartbeat(0.5).unwrap_err();
        assert!(matches!(err, HeartbeatError::NonMonotonicTime { .. }));
        // Equal timestamps are fine.
        assert!(issuer.try_heartbeat(1.0).is_ok());
    }

    #[test]
    fn non_finite_time_is_rejected_and_leaves_the_window_untouched() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        let monitor = registry.monitor();
        issuer.heartbeat(1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = issuer.try_heartbeat(bad).unwrap_err();
            assert!(matches!(err, HeartbeatError::NonFiniteTime { .. }));
            assert!(issuer.tagged_heartbeat(bad, "frame").is_err());
            assert!(issuer.heartbeat_with_distortion(bad, 0.1).is_err());
        }
        assert_eq!(monitor.stats().total_beats, 1);
        assert_eq!(monitor.last_beat_timestamp(), Some(1.0));
        // The monotonic check still holds against the last finite beat.
        let err = issuer.try_heartbeat(0.5).unwrap_err();
        assert!(matches!(err, HeartbeatError::NonMonotonicTime { .. }));
    }

    #[test]
    fn a_batch_equals_one_call_per_beat() {
        let batched = HeartbeatRegistry::with_window("app", 4);
        let single = HeartbeatRegistry::with_window("app", 4);
        let stamps = [0.5, 0.5, 0.75, 1.0, 2.0, 2.5];
        assert_eq!(batched.issuer().heartbeats(stamps, Some(7.5)), Ok(6));
        for &t in &stamps {
            single.issuer().heartbeat(t);
            single.monitor().record_power_sample(t, 7.5);
        }
        assert_eq!(
            batched.monitor().observation(),
            single.monitor().observation()
        );
        assert_eq!(batched.monitor().stats(), single.monitor().stats());
        // Without a power reading only the beats are recorded.
        assert_eq!(batched.issuer().heartbeats([3.0], None), Ok(1));
        assert_eq!(batched.monitor().stats().total_beats, 7);
        assert_eq!(batched.monitor().mean_power(), Some(7.5));
    }

    #[test]
    fn a_batch_beyond_the_horizon_equals_one_call_per_beat() {
        // Window 4 (power ring 64) and window 100 (ring 100).
        for window in [4, 100] {
            let batched = HeartbeatRegistry::with_window("app", window);
            let single = HeartbeatRegistry::with_window("app", window);
            for registry in [&batched, &single] {
                let issuer = registry.issuer();
                issuer.tagged_heartbeat(0.0, "frame").unwrap();
                issuer.heartbeat_with_distortion(0.5, 0.25).unwrap();
            }
            let stamps: Vec<f64> = (0..1_000)
                .map(|beat| 1.0 + (beat / 3) as f64 * 0.5)
                .collect();
            assert_eq!(
                batched
                    .issuer()
                    .heartbeats(stamps.iter().copied(), Some(7.5)),
                Ok(1_000)
            );
            for &t in &stamps {
                single.issuer().heartbeat(t);
                single.monitor().record_power_sample(t, 7.5);
            }
            let (a, b) = (batched.monitor(), single.monitor());
            assert_eq!(a.observation(), b.observation());
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.stats().total_beats, 1_002);
            assert_eq!(a.tagged_latency(&Tag::new("frame")), None);
        }
    }

    #[test]
    fn a_batch_stops_at_the_first_rejected_beat() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        let monitor = registry.monitor();
        let err = issuer
            .heartbeats([1.0, 2.0, f64::NAN, 3.0], Some(5.0))
            .unwrap_err();
        assert!(matches!(err, HeartbeatError::NonFiniteTime { .. }));
        assert_eq!(monitor.stats().total_beats, 2);
        assert_eq!(monitor.last_beat_timestamp(), Some(2.0));
        let err = issuer.heartbeats([2.5, 1.5], Some(5.0)).unwrap_err();
        assert!(matches!(err, HeartbeatError::NonMonotonicTime { .. }));
        assert_eq!(monitor.stats().total_beats, 3);
        assert_eq!(monitor.mean_power(), Some(5.0));
        assert_eq!(issuer.heartbeats(std::iter::empty(), Some(9.0)), Ok(0));
        assert_eq!(monitor.mean_power(), Some(5.0));
    }

    #[test]
    fn goals_replace_by_kind() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        let monitor = registry.monitor();
        issuer.set_goal(Goal::Performance(PerformanceGoal::heart_rate(10.0)));
        issuer.set_goal(Goal::Performance(PerformanceGoal::heart_rate(30.0)));
        issuer.set_goal(Goal::Power(PowerGoal::average_power(100.0, 30.0)));
        let goals = monitor.goals();
        assert_eq!(goals.len(), 2);
        assert_eq!(monitor.with_goals(<[Goal]>::len), 2);
        assert_eq!(monitor.target_heart_rate(), Some(30.0));
        assert!(monitor.goal_of_kind(GoalKind::Power).is_some());
        assert!(monitor.goal_of_kind(GoalKind::Accuracy).is_none());
    }

    #[test]
    fn invalid_goal_is_rejected() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        assert!(issuer
            .try_set_goal(Goal::Performance(PerformanceGoal::heart_rate(-3.0)))
            .is_err());
        assert!(registry.monitor().goals().is_empty());
    }

    #[test]
    fn clear_goal_removes_only_that_kind() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        issuer.set_goal(Goal::Performance(PerformanceGoal::heart_rate(10.0)));
        issuer.set_goal(Goal::Accuracy(AccuracyGoal::new(0.1, 8)));
        assert!(issuer.clear_goal(GoalKind::Performance).is_some());
        assert!(issuer.clear_goal(GoalKind::Performance).is_none());
        assert_eq!(registry.monitor().goals().len(), 1);
    }

    #[test]
    fn performance_goal_met_tracks_window_rate() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        let monitor = registry.monitor();
        issuer.set_goal(Goal::Performance(PerformanceGoal::heart_rate(10.0)));
        assert_eq!(monitor.performance_goal_met(), None);
        for i in 0..10 {
            issuer.heartbeat(i as f64 * 0.05); // 20 beats/s > 10 target
        }
        assert_eq!(monitor.performance_goal_met(), Some(true));
        // Slow down drastically: subsequent beats 2 s apart.
        for i in 0..64 {
            issuer.heartbeat(0.5 + (i + 1) as f64 * 2.0);
        }
        assert_eq!(monitor.performance_goal_met(), Some(false));
    }

    #[test]
    fn observation_snapshot_matches_individual_queries() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        let monitor = registry.monitor();
        issuer.set_goal(Goal::Performance(PerformanceGoal::heart_rate(10.0)));
        for i in 0..12 {
            issuer.heartbeat(i as f64 * 0.05);
            monitor.record_power_sample(i as f64 * 0.05, 40.0 + i as f64);
        }
        let obs = monitor.observation();
        assert_eq!(obs.stats, monitor.heart_rate());
        assert_eq!(obs.last_beat_timestamp, monitor.last_beat_timestamp());
        assert_eq!(obs.target_heart_rate, monitor.target_heart_rate());
        assert_eq!(obs.mean_power, monitor.mean_power());
        assert_eq!(obs.performance_goal_met, monitor.performance_goal_met());
    }

    #[test]
    fn power_samples_average_and_are_bounded() {
        let registry = HeartbeatRegistry::with_window("app", 4);
        let monitor = registry.monitor();
        assert!(monitor.mean_power().is_none());
        for i in 0..100 {
            monitor.record_power_sample(i as f64, 50.0 + (i % 2) as f64);
        }
        let mean = monitor.mean_power().unwrap();
        assert!(mean > 50.0 && mean < 51.0);
    }

    #[test]
    fn tagged_beats_expose_latency() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        let monitor = registry.monitor();
        issuer.tagged_heartbeat(0.0, "frame").unwrap();
        issuer.heartbeat(0.3);
        issuer.tagged_heartbeat(0.8, "frame").unwrap();
        let latency = monitor.tagged_latency(&Tag::new("frame")).unwrap();
        assert!((latency - 0.8).abs() < 1e-9);
    }

    #[test]
    fn distortion_reports_average() {
        let registry = HeartbeatRegistry::new("app");
        let issuer = registry.issuer();
        issuer.heartbeat_with_distortion(0.0, 0.1).unwrap();
        issuer.heartbeat_with_distortion(1.0, 0.3).unwrap();
        let monitor = registry.monitor();
        assert!((monitor.mean_distortion().unwrap() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HeartbeatRegistry>();
        assert_send_sync::<HeartbeatIssuer>();
        assert_send_sync::<HeartbeatMonitor>();
    }
}
