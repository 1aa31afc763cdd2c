//! The SEEC runtime: the full observe–decide–act loop.

use actuation::{Actuator, ActuatorSpec, ConfigId, ConfigTable, Configuration};
use heartbeats::{HeartbeatMonitor, MonitorObservation};

use crate::control::{KalmanEstimator, PiController};
use crate::error::SeecError;
use crate::model::{ActionModel, BelievedEffect, ExplorationPolicy};
use crate::schedule::IdSchedule;

/// The outcome of one decision period: plain `Copy` data over interned ids,
/// so a coordinator stepping hundreds of applications per quantum allocates
/// nothing per decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Interned handle of the configuration applied for the coming period.
    pub configuration: ConfigId,
    /// Speedup over nominal the controller asked for.
    pub required_speedup: f64,
    /// Whether the performance goal was met over the last observation window
    /// (`None` when too little has been observed).
    pub goal_met: Option<bool>,
    /// The runtime's current estimate of the application's heart rate in the
    /// nominal configuration.
    pub estimated_nominal_rate: f64,
    /// Believed speedup of the applied configuration.
    pub believed_speedup: f64,
    /// Believed power multiplier of the applied configuration — what the
    /// caller's envelope was checked against.
    pub believed_powerup: f64,
}

/// Builder for [`SeecRuntime`].
pub struct SeecRuntimeBuilder {
    monitor: HeartbeatMonitor,
    actuators: Vec<Box<dyn Actuator>>,
    target_override: Option<f64>,
    controller: PiController,
    estimator: KalmanEstimator,
    policy: ExplorationPolicy,
    anchored_estimation: bool,
    belief_halflife: f64,
    seed: u64,
}

impl std::fmt::Debug for SeecRuntimeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeecRuntimeBuilder")
            .field("application", &self.monitor.name())
            .field("actuators", &self.actuators.len())
            .field("target_override", &self.target_override)
            .finish_non_exhaustive()
    }
}

impl SeecRuntimeBuilder {
    /// Registers an actuator (hardware, OS, or application provided).
    pub fn actuator(mut self, actuator: Box<dyn Actuator>) -> Self {
        self.actuators.push(actuator);
        self
    }

    /// Registers several actuators at once.
    pub fn actuators<I: IntoIterator<Item = Box<dyn Actuator>>>(mut self, actuators: I) -> Self {
        self.actuators.extend(actuators);
        self
    }

    /// Overrides the target heart rate instead of reading it from the
    /// application's registered goal.
    pub fn target_heart_rate(mut self, beats_per_second: f64) -> Self {
        self.target_override = Some(beats_per_second);
        self
    }

    /// Replaces the classical controller tuning.
    pub fn controller(mut self, controller: PiController) -> Self {
        self.controller = controller;
        self
    }

    /// Replaces the adaptive-layer estimator tuning.
    pub fn estimator(mut self, estimator: KalmanEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the exploration (machine-learning layer) policy.
    pub fn exploration(mut self, policy: ExplorationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables anchored estimation (default off).
    ///
    /// The nominal-rate and nominal-power estimators attribute each
    /// observation window to the *believed* speedups of the configurations
    /// that ran in it. Windows dominated by never-observed configurations
    /// attribute against declared effects, which on real platforms are
    /// systematically optimistic (linear core scaling vs. Amdahl); the
    /// estimators absorb those under-estimates, the whole belief scale
    /// drifts to stay self-consistent with the deflated baseline, and the
    /// controller ends up demanding more speedup than the goal needs —
    /// permanently excluding the cheapest sufficient configurations (their
    /// declared speedups sit below the inflated requirement, so they are
    /// never tried and never corrected).
    ///
    /// With anchoring on, the baselines freeze after their first
    /// observation window — which covers the launch (nominal)
    /// configuration, whose unity effect is exact by definition. Beliefs
    /// are then always corrected against the same fixed ruler, so the
    /// gauge cannot drift: the requirement converges to the true needed
    /// speedup and the cheapest-sufficient search works as designed (phase
    /// drift in the application's underlying speed is handled by the
    /// controller's integral action rather than by re-estimating the
    /// baseline). Off (the default), estimation is bit-for-bit the
    /// historical behaviour.
    pub fn anchored_estimation(mut self, enabled: bool) -> Self {
        self.anchored_estimation = enabled;
        self
    }

    /// Enables belief aging with the given halflife, in decision periods
    /// (default ∞ = disabled, bit-for-bit the unaged runtime).
    ///
    /// The model's learned beliefs then decay toward their declared priors
    /// ([`ActionModel::with_belief_halflife`]), one tick per decision with
    /// feedback: a belief learned during one application phase loses half
    /// its deviation every `halflife` periods unless the configuration is
    /// re-observed. This is the *phase-stale beliefs* experiment — a
    /// runtime that has settled one duty notch above the optimum only
    /// re-tries the cheaper configuration once its stale belief has aged
    /// back toward the prior. A NaN, zero, or negative halflife makes
    /// [`Self::build`] fail (use `f64::INFINITY` to disable).
    pub fn belief_halflife(mut self, halflife_periods: f64) -> Self {
        self.belief_halflife = halflife_periods;
        self
    }

    /// Seeds the exploration randomness (decisions are deterministic for a
    /// given seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the runtime.
    ///
    /// The runtime's action space is the [`ConfigTable`] of its actuators'
    /// specs, interned by content: every runtime built over equal specs —
    /// the same platform — shares one immutable table, so a launch builds
    /// no table while the platform's table is live. What the runtime owns
    /// is per-application state only: the beliefs of the configurations it
    /// has observed, their two sort orders, the believed Pareto staircase,
    /// and the exploration RNG.
    ///
    /// # Errors
    ///
    /// Returns [`SeecError::NoActuators`] when no actuator was registered,
    /// or [`SeecError::InvalidParameter`] when an override target is not
    /// positive, the belief halflife is NaN, zero, or negative, or the
    /// actuators span more than `u32::MAX` configurations.
    pub fn build(self) -> Result<SeecRuntime, SeecError> {
        if self.actuators.is_empty() {
            return Err(SeecError::NoActuators);
        }
        if let Some(target) = self.target_override {
            if !(target.is_finite() && target > 0.0) {
                return Err(SeecError::InvalidParameter(format!(
                    "target heart rate must be positive, got {target}"
                )));
            }
        }
        if self.belief_halflife.is_nan() || self.belief_halflife <= 0.0 {
            return Err(SeecError::InvalidParameter(format!(
                "belief halflife must be positive, got {}",
                self.belief_halflife
            )));
        }
        if ConfigTable::cardinality_of(self.actuators.iter().map(|a| a.spec())).is_none() {
            return Err(SeecError::InvalidParameter(format!(
                "the actuators span more than {} configurations",
                u32::MAX
            )));
        }
        let specs: Vec<&ActuatorSpec> = self.actuators.iter().map(|a| a.spec()).collect();
        let table = ConfigTable::new(&specs);
        let current_id = table.nominal();
        let current = table.config_of(current_id);
        let mut model = ActionModel::new(table, self.seed);
        model.set_policy(self.policy);
        model.set_belief_halflife(self.belief_halflife);
        // Grown on demand: most runtimes apply far fewer segments than the
        // ring holds.
        let mut history = std::collections::VecDeque::new();
        history.push_back(AppliedSegment {
            start: f64::NEG_INFINITY,
            id: current_id,
            speedup: 1.0,
            powerup: 1.0,
        });
        Ok(SeecRuntime {
            monitor: self.monitor,
            actuators: self.actuators,
            model,
            controller: self.controller,
            estimator: self.estimator,
            power_estimator: KalmanEstimator::default_tuning(),
            target_override: self.target_override,
            current,
            current_id,
            schedule_accumulator: 0.0,
            decisions: 0,
            anchored_estimation: self.anchored_estimation,
            history,
        })
    }
}

/// Minimum fraction of the observation window the current configuration
/// must have occupied for its residual speedup/powerup observation to be
/// informative enough to update the model.
const MIN_LEARN_FRACTION: f64 = 0.5;

/// Number of applied-configuration segments retained for window attribution
/// (a bounded ring: pushing at capacity evicts the oldest).
const HISTORY_CAPACITY: usize = 128;

/// Time-weighted effects applied over one observation window.
#[derive(Debug, Clone, Copy)]
struct WindowAttribution {
    /// Time-weighted mean believed speedup over the whole window.
    speedup: f64,
    /// Time-weighted mean believed powerup over the whole window.
    powerup: f64,
    /// Fraction of the window spent in the configuration current at
    /// decision time.
    current_fraction: f64,
    /// Contribution of the *other* configurations to the mixture speedup
    /// (`speedup = current_fraction·s_current + other_speedup`).
    other_speedup: f64,
    /// Contribution of the other configurations to the mixture powerup.
    other_powerup: f64,
}

/// One stretch of time spent in a single configuration, used to attribute
/// window-averaged observations to the speedups that were actually applied.
/// Configurations are held as copyable interned ids, so segments are plain
/// `Copy` data and the ring never allocates after construction.
#[derive(Debug, Clone, Copy)]
struct AppliedSegment {
    /// Simulation time the configuration took effect.
    start: f64,
    id: ConfigId,
    speedup: f64,
    powerup: f64,
}

/// The SEEC decision engine bound to one application and a set of actuators.
pub struct SeecRuntime {
    monitor: HeartbeatMonitor,
    actuators: Vec<Box<dyn Actuator>>,
    model: ActionModel,
    controller: PiController,
    estimator: KalmanEstimator,
    power_estimator: KalmanEstimator,
    target_override: Option<f64>,
    /// The applied configuration, materialised for [`Self::current_configuration`];
    /// kept in sync with `current_id` by in-place settings updates.
    current: Configuration,
    /// Interned handle of `current` — what the hot path actually passes around.
    current_id: ConfigId,
    schedule_accumulator: f64,
    decisions: u64,
    /// See [`SeecRuntimeBuilder::anchored_estimation`].
    anchored_estimation: bool,
    history: std::collections::VecDeque<AppliedSegment>,
}

impl std::fmt::Debug for SeecRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeecRuntime")
            .field("application", &self.monitor.name())
            .field("actuators", &self.actuators.len())
            .field("decisions", &self.decisions)
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

impl SeecRuntime {
    /// Starts building a runtime observing `monitor`.
    pub fn builder(monitor: HeartbeatMonitor) -> SeecRuntimeBuilder {
        SeecRuntimeBuilder {
            monitor,
            actuators: Vec::new(),
            target_override: None,
            controller: PiController::default_tuning(),
            estimator: KalmanEstimator::default_tuning(),
            policy: ExplorationPolicy::default(),
            anchored_estimation: false,
            belief_halflife: f64::INFINITY,
            seed: 0x5eec,
        }
    }

    /// The configuration currently applied.
    pub fn current_configuration(&self) -> &Configuration {
        &self.current
    }

    /// Number of decisions taken so far.
    pub fn decisions_made(&self) -> u64 {
        self.decisions
    }

    /// The online action model (for inspection and tests).
    pub fn model(&self) -> &ActionModel {
        &self.model
    }

    /// Current estimate of the application's nominal-configuration heart rate.
    pub fn estimated_nominal_rate(&self) -> f64 {
        self.estimator.estimate()
    }

    /// Current estimate of the power the application draws in the nominal
    /// configuration, in watts — `None` until at least one power sample has
    /// been attributed to the application. A coordinator divides an awarded
    /// watt envelope by this to obtain the powerup cap it hands to
    /// [`Self::decide_under_power_cap`].
    pub fn estimated_nominal_power(&self) -> Option<f64> {
        self.power_estimator
            .is_initialised()
            .then(|| self.power_estimator.estimate())
    }

    /// Interned handle of the configuration currently applied.
    pub fn current_config_id(&self) -> ConfigId {
        self.current_id
    }

    /// The target heart rate in force (override or the application's goal).
    /// Reads the application's registry; on a hot path that already holds a
    /// [`MonitorObservation`], combine [`Self::target_override`] with the
    /// observation's target instead.
    pub fn target_heart_rate(&self) -> Option<f64> {
        self.target_override.or_else(|| self.monitor.target_heart_rate())
    }

    /// The builder-supplied target override, if any (no registry read).
    pub fn target_override(&self) -> Option<f64> {
        self.target_override
    }

    /// Runs one observe–decide–act iteration at simulation time `now`,
    /// unconstrained by any power envelope: a fresh snapshot of this
    /// runtime's monitor through [`Self::decide_under_power_cap`] with an
    /// infinite cap.
    ///
    /// # Errors
    ///
    /// Returns [`SeecError::NoGoal`] if neither the application nor the
    /// builder specified a performance target, or an actuation error if a
    /// chosen setting cannot be applied.
    pub fn decide(&mut self, now: f64) -> Result<Decision, SeecError> {
        // One snapshot, one lock: stats, goal target, goal attainment, the
        // last beat time, and mean power all come from the same read.
        let observation = self.monitor.observation();
        self.decide_under_power_cap(now, &observation, f64::INFINITY)
    }

    /// One observe–decide–act iteration against a snapshot of this
    /// runtime's monitor, restricted to configurations whose believed power
    /// multiplier is at most `max_powerup` (`f64::INFINITY` =
    /// unconstrained) — the one decision path every caller runs through.
    ///
    /// The pipeline observes (from `obs`), tracks the nominal rate
    /// and power, learns, selects under the cap, and acts. Selection,
    /// bracketing, and exploration all run on interned ids over the
    /// admissible prefix of the model's power-sorted index; nothing is
    /// allocated on this path and the result is plain `Copy` data. A caller
    /// that already holds a snapshot — a coordinator after its observe
    /// phase, or [`crate::UncoordinatedRuntime`], whose instances all watch
    /// the same application — passes it in and skips a registry read; the
    /// result is identical to a fresh snapshot as long as `obs` came
    /// from this runtime's monitor and nothing beat in between.
    ///
    /// When even the cheapest configuration's believed powerup exceeds the
    /// cap, the cheapest is applied — an application cannot run in no
    /// configuration, so an infeasibly small envelope degrades to "as cheap
    /// as the action space allows".
    ///
    /// ```
    /// use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
    /// use heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal};
    /// use seec::SeecRuntime;
    ///
    /// // A DVFS knob: "fast" doubles speed at 2.6x power.
    /// let dvfs = ActuatorSpec::builder("dvfs")
    ///     .setting(SettingSpec::new("nominal"))
    ///     .setting(SettingSpec::new("fast").effect(Axis::Performance, 2.0).effect(Axis::Power, 2.6))
    ///     .build()
    ///     .unwrap();
    /// let registry = HeartbeatRegistry::new("app");
    /// registry.issuer().set_goal(Goal::Performance(PerformanceGoal::heart_rate(100.0)));
    /// let monitor = registry.monitor();
    /// let mut runtime = SeecRuntime::builder(monitor.clone())
    ///     .actuator(Box::new(TableActuator::new(dvfs)))
    ///     .build()
    ///     .unwrap();
    ///
    /// // The application needs ~2x its nominal ~50 beats/s, but its awarded
    /// // power envelope only admits configurations up to 1.5x power: the
    /// // decision stays inside the envelope instead of chasing the goal.
    /// let mut now = 0.0;
    /// for _ in 0..20 {
    ///     for _ in 0..4 {
    ///         now += 0.02; // ~50 beats/s under the nominal configuration
    ///         registry.issuer().heartbeat(now);
    ///     }
    ///     let decision = runtime.decide_under_power_cap(now, &monitor.observation(), 1.5).unwrap();
    ///     assert!(decision.believed_powerup <= 1.5);
    /// }
    /// // Uncapped, the same runtime may pick the fast (2.6x power) setting.
    /// let unrestricted = runtime.decide(now).unwrap();
    /// assert!(unrestricted.required_speedup > 1.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::decide`], plus
    /// [`SeecError::InvalidParameter`] — and no decision — for a NaN cap,
    /// which admits no configuration and cannot be met. Infinite, zero and
    /// negative caps are valid.
    pub fn decide_under_power_cap(
        &mut self,
        now: f64,
        obs: &MonitorObservation,
        max_powerup: f64,
    ) -> Result<Decision, SeecError> {
        if max_powerup.is_nan() {
            return Err(SeecError::InvalidParameter(
                "the powerup cap must not be NaN".to_string(),
            ));
        }
        let target = self
            .target_override
            .or(obs.target_heart_rate)
            .ok_or(SeecError::NoGoal)?;
        let stats = obs.stats;
        let observed = stats.window;
        let goal_met = obs.performance_goal_met.or({
            if stats.beats_in_window >= 2 {
                Some(observed >= target)
            } else {
                None
            }
        });

        if stats.beats_in_window < 2 || observed <= 0.0 {
            // Not enough feedback yet: stay at the current configuration —
            // unless it breaches the power envelope. A stalled application
            // must not sit above its awarded envelope indefinitely, so the
            // capped path falls to the cheapest configuration (the floor
            // every envelope degrades to). Never taken uncapped
            // (`max_powerup = ∞`).
            if self.model.believed(self.current_id).powerup > max_powerup {
                let (cheapest, _) = self.model.cheapest_id();
                self.act(now, cheapest)?;
            }
            self.decisions += 1;
            let current = self.model.believed(self.current_id);
            return Ok(Decision {
                configuration: self.current_id,
                required_speedup: 1.0,
                goal_met,
                estimated_nominal_rate: self.estimator.estimate(),
                believed_speedup: current.speedup,
                believed_powerup: current.powerup,
            });
        }

        // ---- Age beliefs (no-op unless a finite halflife was set) -----
        // One tick per decision period with feedback: stale learned
        // deviations decay toward the declared priors before this period's
        // fresh observation lands at full strength below.
        self.model.age_beliefs();

        // ---- Adaptive layer: track the nominal-configuration rate -----
        // The observed rate is a window average, and time-division schedules
        // change configuration between (and within) windows, so the
        // observation must be attributed to the time-weighted speedup that
        // was actually applied over the window — not to the configuration
        // that happens to be current. Attributing to the current
        // configuration alone drags the nominal-rate estimate toward
        // whichever bracketing configuration ran last and never converges.
        //
        // The window's beats span `[last_beat - duration, last_beat]`; when
        // the application has stopped beating (e.g. a configuration too slow
        // to complete a beat per quantum), `now` trails the last beat and
        // anchoring at `now` would attribute the stale rate to segments that
        // produced none of its beats.
        let window_end = obs.last_beat_timestamp.unwrap_or(now);
        let window_duration = (stats.beats_in_window as f64 - 1.0) / observed;
        let window_start = window_end - window_duration;
        let attribution = self.window_attribution(window_start, window_end);
        let nominal_rate_observation = observed / attribution.speedup.max(1e-9);
        // Under anchored estimation, the baselines freeze after their
        // first (launch-configuration) observation: absorbing later windows
        // lets optimistic declared effects deflate the baseline and drift
        // the whole belief scale (see
        // [`SeecRuntimeBuilder::anchored_estimation`]).
        let anchored_hold = self.anchored_estimation && self.estimator.is_initialised();
        let base_rate = if anchored_hold {
            self.estimator.estimate()
        } else {
            self.estimator.observe(nominal_rate_observation)
        };

        // Power baseline: the window's mean power divided by the mixture
        // powerup estimates the nominal-configuration power.
        let mean_power = obs.mean_power;
        let nominal_power = match mean_power {
            Some(power) if power > 0.0 => {
                let observation = power / attribution.powerup.max(1e-9);
                if anchored_hold && self.power_estimator.is_initialised() {
                    Some(self.power_estimator.estimate())
                } else {
                    Some(self.power_estimator.observe(observation))
                }
            }
            _ => None,
        };

        // ---- Model learning: correct speedup/power beliefs ------------
        // The mixture satisfies observed/base ≈ f_cur·s_cur + Σ f_i·s_i over
        // the window's segments, so the current configuration's speedup can
        // be solved for residually, trusting the other segments' beliefs.
        // Only windows where the current configuration ran long enough for
        // the residual to be informative are used.
        if attribution.current_fraction >= MIN_LEARN_FRACTION {
            let mixture_speedup = observed / base_rate.max(1e-9);
            let speedup_obs =
                (mixture_speedup - attribution.other_speedup) / attribution.current_fraction;
            let powerup_obs = match (mean_power, nominal_power) {
                (Some(power), Some(nominal)) if nominal > 0.0 => {
                    let mixture_powerup = power / nominal;
                    (mixture_powerup - attribution.other_powerup) / attribution.current_fraction
                }
                _ => self.model.believed(self.current_id).powerup,
            };
            if speedup_obs.is_finite() && speedup_obs > 0.0 {
                self.model.observe_id(self.current_id, speedup_obs, powerup_obs);
            }
        }

        // ---- Decide: classical control + model-based selection --------
        // Selection and scheduling run entirely on interned ids: no
        // settings vector is allocated anywhere on this path. Under a
        // finite power cap both ends of the schedule come from the
        // admissible prefix of the power index.
        let required = self.controller.next_speedup(target, observed, base_rate);
        let upper = self.model.choose_id(required, self.current_id, max_powerup);
        let upper_speedup = self.model.believed(upper).speedup;
        let (lower, lower_speedup) = self
            .model
            .bracket_below_id(upper_speedup.min(required), max_powerup);
        let schedule = if upper == lower {
            IdSchedule::steady(upper)
        } else {
            IdSchedule::bracketing(upper, upper_speedup, lower, lower_speedup, required)
        };
        let next = schedule.id_for_period(&mut self.schedule_accumulator);

        // ---- Act -------------------------------------------------------
        let applied = self.act(now, next)?;
        self.decisions += 1;
        Ok(Decision {
            configuration: next,
            required_speedup: required,
            goal_met,
            estimated_nominal_rate: base_rate,
            believed_speedup: applied.speedup,
            believed_powerup: applied.powerup,
        })
    }

    /// Time-weighted effects applied over the observation window
    /// `[window_start, now]`, and the fraction of that window spent in the
    /// configuration that is current at decision time.
    fn window_attribution(&self, window_start: f64, now: f64) -> WindowAttribution {
        let mut total = 0.0;
        let mut speedup_weighted = 0.0;
        let mut powerup_weighted = 0.0;
        let mut current_time = 0.0;
        let mut other_speedup_weighted = 0.0;
        let mut other_powerup_weighted = 0.0;
        for (i, segment) in self.history.iter().enumerate() {
            let end = self
                .history
                .get(i + 1)
                .map_or(now, |next| next.start.min(now));
            let overlap = (end.min(now) - segment.start.max(window_start)).max(0.0);
            if overlap <= 0.0 {
                continue;
            }
            total += overlap;
            speedup_weighted += overlap * segment.speedup;
            powerup_weighted += overlap * segment.powerup;
            if segment.id == self.current_id {
                current_time += overlap;
            } else {
                other_speedup_weighted += overlap * segment.speedup;
                other_powerup_weighted += overlap * segment.powerup;
            }
        }
        if total <= 0.0 {
            // Degenerate window: zero-length, or so stale that every retained
            // history segment starts after it (the application stopped
            // beating long ago and the segment cap evicted the overlapping
            // ones). The observation describes none of the retained
            // segments, so report zero current_fraction — the learning gate
            // must skip it, not attribute it to the current configuration.
            let believed = self.model.believed(self.current_id);
            return WindowAttribution {
                speedup: believed.speedup,
                powerup: believed.powerup,
                current_fraction: 0.0,
                other_speedup: 0.0,
                other_powerup: 0.0,
            };
        }
        WindowAttribution {
            speedup: speedup_weighted / total,
            powerup: powerup_weighted / total,
            current_fraction: current_time / total,
            other_speedup: other_speedup_weighted / total,
            other_powerup: other_powerup_weighted / total,
        }
    }

    /// Applies the interned configuration `id` at time `now` to every
    /// registered actuator (no actuator round trips when `id` is already
    /// current), records the applied segment for window attribution, and
    /// returns `id`'s believed effect.
    ///
    /// # Errors
    ///
    /// Propagates the first actuation failure; earlier actuators keep the
    /// settings already applied, and no segment is recorded.
    fn act(&mut self, now: f64, id: ConfigId) -> Result<BelievedEffect, SeecError> {
        if id != self.current_id {
            for (position, actuator) in self.actuators.iter_mut().enumerate() {
                let setting = self.model.table().setting(id, position);
                if actuator.current() != setting {
                    actuator.apply(setting)?;
                }
            }
            self.current_id = id;
            self.model.table().write_settings(id, &mut self.current);
        }
        let applied = self.model.believed(id);
        if self.history.len() == HISTORY_CAPACITY {
            self.history.pop_front();
        }
        self.history.push_back(AppliedSegment {
            start: now,
            id,
            speedup: applied.speedup,
            powerup: applied.powerup,
        });
        Ok(applied)
    }

    /// Applies `configuration` to every registered actuator. Positions the
    /// configuration does not cover fall back to the actuator's nominal
    /// setting, and the stored current configuration is the canonical
    /// full-arity form.
    ///
    /// # Errors
    ///
    /// Propagates the first actuation failure; earlier actuators keep the
    /// settings already applied.
    pub fn apply(&mut self, configuration: &Configuration) -> Result<(), SeecError> {
        for (position, actuator) in self.actuators.iter_mut().enumerate() {
            let setting = configuration
                .setting(position)
                .unwrap_or_else(|| actuator.spec().nominal());
            if actuator.current() != setting {
                actuator.apply(setting)?;
            }
        }
        // Canonicalise: every setting just applied is valid, so the interned
        // id always exists.
        let applied = Configuration::new(
            self.actuators
                .iter()
                .enumerate()
                .map(|(position, actuator)| {
                    configuration
                        .setting(position)
                        .unwrap_or_else(|| actuator.spec().nominal())
                })
                .collect(),
        );
        self.current_id = self
            .model
            .table()
            .id_of(&applied)
            .expect("applied settings are valid for the space");
        self.current = applied;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuation::{Axis, EffectKey, SettingSpec, TableActuator};
    use heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal};

    fn dvfs_spec() -> ActuatorSpec {
        ActuatorSpec::builder("dvfs")
            .setting(
                SettingSpec::new("slow")
                    .effect(Axis::Performance, 0.5)
                    .effect(Axis::Power, 0.4),
            )
            .setting(SettingSpec::new("nominal"))
            .setting(
                SettingSpec::new("fast")
                    .effect(Axis::Performance, 2.0)
                    .effect(Axis::Power, 2.6),
            )
            .nominal(1)
            .build()
            .unwrap()
    }

    fn cores_spec() -> ActuatorSpec {
        ActuatorSpec::builder("cores")
            .setting(SettingSpec::new("1"))
            .setting(
                SettingSpec::new("2")
                    .effect(Axis::Performance, 1.9)
                    .effect(Axis::Power, 2.0),
            )
            .setting(
                SettingSpec::new("4")
                    .effect(Axis::Performance, 3.5)
                    .effect(Axis::Power, 4.0),
            )
            .build()
            .unwrap()
    }

    fn no_exploration() -> ExplorationPolicy {
        ExplorationPolicy {
            epsilon: 0.0,
            ..ExplorationPolicy::default()
        }
    }

    /// Simulates an application whose heart rate is `nominal_rate` times the
    /// believed speedup of the configuration SEEC applied, and checks that
    /// the runtime converges to meeting the target at low cost.
    fn run_closed_loop(target: f64, nominal_rate: f64, periods: usize) -> (SeecRuntime, f64) {
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(target)));
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .actuator(Box::new(TableActuator::new(cores_spec())))
            .exploration(no_exploration())
            .build()
            .unwrap();

        let issuer = registry.issuer();
        let monitor = registry.monitor();
        let mut now = 0.0;
        let mut rates = Vec::new();
        for _ in 0..periods {
            // The "true" behaviour of the platform mirrors the declared
            // effects exactly (the model starts correct in this test).
            let effect = runtime
                .model()
                .table()
                .declared_effect(runtime.current_config_id());
            let rate = nominal_rate * effect.performance;
            let power = 10.0 * effect.power;
            // Emit a window's worth of beats at that rate.
            for _ in 0..8 {
                now += 1.0 / rate;
                issuer.heartbeat(now);
            }
            monitor.record_power_sample(now, power);
            runtime.decide(now).unwrap();
            rates.push(rate);
        }
        // Time-division schedules alternate between bracketing settings, so
        // judge convergence on the average delivered rate of the final
        // periods rather than whichever setting the last period landed on.
        let tail = rates.len().saturating_sub(10);
        let settled_rate = rates[tail..].iter().sum::<f64>() / rates[tail..].len() as f64;
        (runtime, settled_rate)
    }

    #[test]
    fn builder_requires_actuators_and_valid_targets() {
        let registry = HeartbeatRegistry::new("app");
        assert!(matches!(
            SeecRuntime::builder(registry.monitor()).build(),
            Err(SeecError::NoActuators)
        ));
        assert!(matches!(
            SeecRuntime::builder(registry.monitor())
                .actuator(Box::new(TableActuator::new(dvfs_spec())))
                .target_heart_rate(-1.0)
                .build(),
            Err(SeecError::InvalidParameter(_))
        ));
    }

    #[test]
    fn decide_without_goal_is_an_error() {
        let registry = HeartbeatRegistry::new("app");
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .build()
            .unwrap();
        assert!(matches!(runtime.decide(0.0), Err(SeecError::NoGoal)));
    }

    #[test]
    fn runtime_converges_to_the_goal() {
        // Nominal rate 10 beats/s, target 30: needs ~3x speedup.
        let (runtime, settled_rate) = run_closed_loop(30.0, 10.0, 60);
        assert!(runtime.decisions_made() >= 60);
        assert!(
            settled_rate >= 30.0 * 0.85,
            "closed loop should settle near the target, got {settled_rate}"
        );
        // The estimate is taken while the schedule alternates between
        // bracketing configurations, so it carries some bias; it must still
        // land in the right neighbourhood of the true 10 beats/s.
        assert!(
            runtime.estimated_nominal_rate() > 5.0 && runtime.estimated_nominal_rate() < 20.0,
            "adaptive layer should learn the nominal rate's neighbourhood, got {}",
            runtime.estimated_nominal_rate()
        );
    }

    #[test]
    fn model_learning_stays_active_under_bracketing_schedules() {
        // The platform's true speedups are weaker than the declared effects:
        // the fast DVFS point delivers 1.6x (declared 2.0x) and 4 cores
        // deliver 2.8x (declared 3.5x). SEEC must keep learning while the
        // time-division schedule alternates configurations (the 64-beat
        // window always spans several decision periods here) and still reach
        // the target — if learning shut off in the bracketing steady state,
        // the runtime would keep scheduling off the optimistic declared
        // speedups and chronically undershoot.
        let target = 30.0;
        let nominal_rate = 10.0;
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(target)));
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .actuator(Box::new(TableActuator::new(cores_spec())))
            .exploration(no_exploration())
            .build()
            .unwrap();
        let true_speedup = |cfg: &Configuration| -> f64 {
            let dvfs = [0.5, 1.0, 1.6][cfg.setting(0).unwrap_or(1)];
            let cores = [1.0, 1.7, 2.8][cfg.setting(1).unwrap_or(0)];
            dvfs * cores
        };

        let issuer = registry.issuer();
        let monitor = registry.monitor();
        let mut now = 0.0;
        let mut rates = Vec::new();
        for _ in 0..120 {
            let speedup = true_speedup(runtime.current_configuration());
            let rate = nominal_rate * speedup;
            for _ in 0..8 {
                now += 1.0 / rate;
                issuer.heartbeat(now);
            }
            monitor.record_power_sample(now, 10.0 * speedup);
            runtime.decide(now).unwrap();
            rates.push(rate);
        }

        let tail = rates.len() - 10;
        let settled = rates[tail..].iter().sum::<f64>() / 10.0;
        assert!(
            settled >= target * 0.85,
            "SEEC must learn the true (weaker) effects and still settle near \
             the target, got {settled:.2}"
        );
        assert!(
            runtime.model().observed_configurations() > 0,
            "model learning must have run"
        );
        // Base rate and per-configuration speedups are only jointly
        // observable (scale shifts between them cancel), so the calibrated,
        // identifiable quantity is the *predicted absolute rate*
        // `base × believed_speedup`. For the steady-state configuration it
        // must approach the true delivered rate — with learning shut off it
        // stays pinned to the optimistic declared prediction.
        let steady = runtime.current_configuration().clone();
        let believed = runtime.model().believed(runtime.current_config_id());
        assert!(
            believed.observations > 0,
            "the steady-state configuration must have been observed"
        );
        let predicted_rate = believed.speedup * runtime.estimated_nominal_rate();
        let true_rate = nominal_rate * true_speedup(&steady);
        assert!(
            (predicted_rate - true_rate).abs() <= 0.25 * true_rate,
            "learned prediction for the steady-state configuration should \
             approach its true rate {true_rate:.1}, got {predicted_rate:.1}"
        );
    }

    #[test]
    fn runtime_minimises_cost_when_the_goal_is_easy() {
        // Target of 6 beats/s with nominal 10: the cheap (slow) settings are
        // sufficient, so SEEC should not run flat out.
        let (runtime, _) = run_closed_loop(6.0, 10.0, 60);
        let effect = runtime
            .model()
            .table()
            .declared_effect(runtime.current_config_id());
        assert!(
            effect.power < 1.5,
            "easy goals must not be met with expensive configurations (power {})",
            effect.power
        );
    }

    #[test]
    fn early_decisions_without_feedback_keep_the_nominal_configuration() {
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(10.0)));
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .build()
            .unwrap();
        let nominal = runtime.current_config_id();
        let decision = runtime.decide(0.0).unwrap();
        assert_eq!(decision.configuration, nominal);
        assert_eq!(decision.required_speedup, 1.0);
        assert_eq!(decision.goal_met, None);
    }

    #[test]
    fn target_override_takes_precedence_over_the_goal() {
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(10.0)));
        let runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .target_heart_rate(25.0)
            .build()
            .unwrap();
        assert_eq!(runtime.target_heart_rate(), Some(25.0));
    }

    #[test]
    fn apply_forwards_settings_to_every_actuator() {
        let registry = HeartbeatRegistry::new("app");
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .actuator(Box::new(TableActuator::new(cores_spec())))
            .target_heart_rate(5.0)
            .build()
            .unwrap();
        let config = Configuration::new(vec![2, 1]);
        runtime.apply(&config).unwrap();
        assert_eq!(runtime.current_configuration(), &config);
        assert!(format!("{runtime:?}").contains("SeecRuntime"));
    }

    #[test]
    fn infinite_power_cap_reproduces_the_uncapped_run() {
        // Two identical closed loops, one driven through decide(), one
        // through decide_under_power_cap(∞) on a caller-held snapshot:
        // applied configurations must match step for step.
        let run = |capped: bool| {
            let registry = HeartbeatRegistry::new("app");
            registry
                .issuer()
                .set_goal(Goal::Performance(PerformanceGoal::heart_rate(20.0)));
            let mut runtime = SeecRuntime::builder(registry.monitor())
                .actuator(Box::new(TableActuator::new(dvfs_spec())))
                .actuator(Box::new(TableActuator::new(cores_spec())))
                .seed(3)
                .build()
                .unwrap();
            let issuer = registry.issuer();
            let monitor = registry.monitor();
            let mut now = 0.0;
            let mut configs = Vec::new();
            for _ in 0..30 {
                for _ in 0..4 {
                    now += 0.05;
                    issuer.heartbeat(now);
                }
                let decision = if capped {
                    runtime.decide_under_power_cap(now, &monitor.observation(), f64::INFINITY)
                } else {
                    runtime.decide(now)
                };
                configs.push(decision.unwrap().configuration);
            }
            configs
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn power_cap_keeps_the_applied_configuration_inside_the_envelope() {
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(40.0)));
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .actuator(Box::new(TableActuator::new(cores_spec())))
            .exploration(no_exploration())
            .build()
            .unwrap();
        let issuer = registry.issuer();
        let monitor = registry.monitor();
        // The goal needs ~4x the nominal 10 beats/s, but the envelope only
        // admits configurations up to 2.1x power: the runtime must stay
        // inside it (fastest admissible) rather than chase the goal.
        let cap = 2.1;
        let mut now = 0.0;
        for _ in 0..40 {
            let effect = runtime
                .model()
                .table()
                .declared_effect(runtime.current_config_id());
            let rate = 10.0 * effect.performance;
            for _ in 0..8 {
                now += 1.0 / rate;
                issuer.heartbeat(now);
            }
            monitor.record_power_sample(now, 10.0 * effect.power);
            let decision = runtime
                .decide_under_power_cap(now, &monitor.observation(), cap)
                .unwrap();
            assert!(
                decision.believed_powerup <= cap + 1e-9,
                "applied powerup {} exceeds the {cap} envelope",
                decision.believed_powerup
            );
        }
        assert!(runtime.decisions_made() >= 40);
        // The power estimator converged on the ~10 W nominal draw.
        let nominal_power = runtime.estimated_nominal_power().unwrap();
        assert!(
            (nominal_power - 10.0).abs() < 3.0,
            "nominal power estimate should near 10 W, got {nominal_power}"
        );
    }

    #[test]
    fn stalled_app_above_its_envelope_falls_to_the_cheapest_configuration() {
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(10.0)));
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .actuator(Box::new(TableActuator::new(cores_spec())))
            .build()
            .unwrap();
        // Manually park the app in the most expensive configuration, then
        // cut its envelope while it emits no beats: the capped decide must
        // not leave it over-envelope just because feedback is missing.
        runtime.apply(&Configuration::new(vec![2, 2])).unwrap();
        let decision = runtime
            .decide_under_power_cap(1.0, &registry.monitor().observation(), 0.5)
            .unwrap();
        assert_eq!(
            runtime.current_configuration(),
            &Configuration::new(vec![0, 0]),
            "stalled over-cap app must fall to the cheapest configuration"
        );
        assert!(decision.goal_met.is_none());
        // The uncapped stall path still keeps the current configuration.
        runtime.apply(&Configuration::new(vec![2, 2])).unwrap();
        let _ = runtime.decide(2.0).unwrap();
        assert_eq!(runtime.current_configuration(), &Configuration::new(vec![2, 2]));
    }

    #[test]
    fn a_nan_power_cap_is_rejected_without_deciding() {
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(10.0)));
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(dvfs_spec())))
            .actuator(Box::new(TableActuator::new(cores_spec())))
            .build()
            .unwrap();
        runtime.apply(&Configuration::new(vec![2, 2])).unwrap();
        let mut now = 0.0;
        for _ in 0..8 {
            now += 0.05;
            registry.issuer().heartbeat(now);
        }
        let observation = registry.monitor().observation();
        assert!(matches!(
            runtime.decide_under_power_cap(now, &observation, f64::NAN),
            Err(SeecError::InvalidParameter(_))
        ));
        assert_eq!(runtime.decisions_made(), 0);
        assert_eq!(runtime.current_configuration(), &Configuration::new(vec![2, 2]));
        // Infinite, zero and negative caps still decide.
        for cap in [f64::INFINITY, 0.0, -1.0] {
            assert!(runtime.decide_under_power_cap(now, &observation, cap).is_ok());
        }
        assert_eq!(runtime.decisions_made(), 3);
    }

    #[test]
    fn infinite_belief_halflife_reproduces_the_unaged_run() {
        // The flag-gate pin: a runtime built with an explicit infinite
        // halflife takes byte-for-byte the decisions of one built without.
        let run = |halflife: Option<f64>| {
            let registry = HeartbeatRegistry::new("app");
            registry
                .issuer()
                .set_goal(Goal::Performance(PerformanceGoal::heart_rate(20.0)));
            let mut builder = SeecRuntime::builder(registry.monitor())
                .actuator(Box::new(TableActuator::new(dvfs_spec())))
                .actuator(Box::new(TableActuator::new(cores_spec())))
                .seed(11);
            if let Some(halflife) = halflife {
                builder = builder.belief_halflife(halflife);
            }
            let mut runtime = builder.build().unwrap();
            let issuer = registry.issuer();
            let mut now = 0.0;
            let mut configs = Vec::new();
            for _ in 0..40 {
                for _ in 0..4 {
                    now += 0.05;
                    issuer.heartbeat(now);
                }
                configs.push(runtime.decide(now).unwrap().configuration);
            }
            configs
        };
        assert_eq!(run(None), run(Some(f64::INFINITY)));
        // A finite halflife is allowed to differ (and typically does).
        assert_eq!(run(Some(2.0)).len(), 40);
    }

    #[test]
    fn non_positive_belief_halflife_is_a_typed_error() {
        let build = |halflife: f64| {
            let registry = HeartbeatRegistry::new("app");
            SeecRuntime::builder(registry.monitor())
                .actuator(Box::new(TableActuator::new(dvfs_spec())))
                .belief_halflife(halflife)
                .build()
        };
        for bad in [f64::NAN, 0.0, -1.0] {
            match build(bad) {
                Err(SeecError::InvalidParameter(reason)) => {
                    assert!(reason.contains("halflife"), "halflife {bad}: {reason}")
                }
                other => panic!("halflife {bad} must be rejected, got {other:?}"),
            }
        }
        assert!(build(f64::INFINITY).is_ok());
        assert!(build(2.0).is_ok());
    }

    /// `count` identical two-setting actuators.
    fn binary_actuators(count: usize) -> Vec<Box<dyn Actuator>> {
        (0..count)
            .map(|i| {
                let spec = ActuatorSpec::builder(format!("switch-{i}"))
                    .setting(SettingSpec::new("off"))
                    .setting(SettingSpec::new("on").effect(Axis::Performance, 1.01))
                    .build()
                    .unwrap();
                Box::new(TableActuator::new(spec)) as Box<dyn Actuator>
            })
            .collect()
    }

    #[test]
    fn action_spaces_beyond_u32_configurations_are_a_typed_error() {
        // 2^33 configurations overflow a ConfigId; 2^64 also wraps a usize
        // product to zero, which must not pass for an empty space.
        for count in [33, 64] {
            let registry = HeartbeatRegistry::new("app");
            let result = SeecRuntime::builder(registry.monitor())
                .actuators(binary_actuators(count))
                .target_heart_rate(10.0)
                .build();
            assert!(
                matches!(
                    result,
                    Err(SeecError::InvalidParameter(ref reason)) if reason.contains("configurations")
                ),
                "{count} binary actuators must be rejected, got {result:?}"
            );
        }
    }

    /// The action space of the calibrated Xeon platform's shape: 8 core
    /// counts × 7 clocks × 10 duty cycles = 560 configurations, with the
    /// convex utilisation-power prior on cores and duty.
    fn xeon_shaped_actuators() -> Vec<Box<dyn Actuator>> {
        let cores = (1..=8).fold(
            ActuatorSpec::builder("cores").axis_exponent(Axis::Power, 1.15),
            |builder, n| {
                builder.setting(
                    SettingSpec::new(format!("{n} cores"))
                        .effect(Axis::Performance, n as f64)
                        .effect(Axis::Power, n as f64),
                )
            },
        );
        let clock = (0..7).fold(ActuatorSpec::builder("clock"), |builder, step| {
            let ratio = 1.0 + step as f64 * 0.133;
            builder.setting(
                SettingSpec::new(format!("p{step}"))
                    .effect(Axis::Performance, ratio)
                    .effect(Axis::Power, ratio.powf(2.2)),
            )
        });
        let duty = (1..=10).fold(
            ActuatorSpec::builder("active-cycles").axis_exponent(Axis::Power, 1.15),
            |builder, step| {
                let duty = step as f64 / 10.0;
                builder.setting(
                    SettingSpec::new(format!("{step}0%"))
                        .effect(Axis::Performance, duty)
                        .effect(Axis::Power, duty),
                )
            },
        );
        [cores.nominal(0), clock.nominal(0), duty.nominal(9)]
            .into_iter()
            .map(|builder| {
                Box::new(TableActuator::new(builder.build().unwrap())) as Box<dyn Actuator>
            })
            .collect()
    }

    /// A runtime over [`xeon_shaped_actuators`] with a 40 beats/s goal.
    fn xeon_shaped_runtime() -> (SeecRuntime, HeartbeatRegistry) {
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(40.0)));
        let runtime = SeecRuntime::builder(registry.monitor())
            .actuators(xeon_shaped_actuators())
            .seed(21)
            .build()
            .unwrap();
        (runtime, registry)
    }

    /// One closed-loop period on a platform whose true speedup is 80 % of
    /// the declared one: beats at the delivered rate, a power sample, then
    /// a decision.
    fn xeon_shaped_period(
        runtime: &mut SeecRuntime,
        registry: &HeartbeatRegistry,
        now: &mut f64,
    ) -> Decision {
        let declared = runtime
            .model()
            .table()
            .declared_effect(runtime.current_config_id());
        let rate = 10.0 * 0.8 * declared.performance;
        for _ in 0..8 {
            *now += 1.0 / rate;
            registry.issuer().heartbeat(*now);
        }
        registry.monitor().record_power_sample(*now, 20.0 * declared.power);
        runtime.decide(*now).unwrap()
    }

    /// Everything a runtime's model learned: belief bits and counts, then
    /// the believed staircase.
    type LearnedState = (Vec<(u64, u64, u64)>, Vec<EffectKey>);

    fn learned_state(runtime: &SeecRuntime) -> LearnedState {
        let model = runtime.model();
        let beliefs = (0..model.table().len() as u32)
            .map(|i| {
                let belief = model.believed(ConfigId(i));
                (belief.speedup.to_bits(), belief.powerup.to_bits(), belief.observations)
            })
            .collect();
        (beliefs, model.believed_staircase().to_vec())
    }

    #[test]
    fn runtimes_over_equal_specs_share_one_table_but_learn_alone() {
        // Reference: a runtime built and driven with no other holder of
        // its action space.
        let (mut alone, registry) = xeon_shaped_runtime();
        let mut now = 0.0;
        let alone_stream: Vec<Decision> = (0..60)
            .map(|_| xeon_shaped_period(&mut alone, &registry, &mut now))
            .collect();
        let alone_state = learned_state(&alone);
        let declared_speedup_order = alone.model().table().by_declared_speedup().to_vec();
        let declared_staircase = alone.model().table().declared_staircase().to_vec();
        drop(alone);

        let (mut learner, _learner_registry) = xeon_shaped_runtime();
        let (mut shared, registry) = xeon_shaped_runtime();
        assert_eq!(learner.model().table().len(), 560);
        assert_eq!(
            learner.model().table().by_declared_power().as_ptr(),
            shared.model().table().by_declared_power().as_ptr(),
            "runtimes over equal specs must share one table"
        );
        assert_eq!(shared.model().table().holders(), 2);

        // Interleave: the learner learns that the fastest configurations
        // are slow, which reshapes its staircase, while the other runtime
        // runs the reference loop.
        let mut now = 0.0;
        let mut shared_stream = Vec::new();
        for period in 0..60 {
            let id = declared_speedup_order[declared_speedup_order.len() - 1 - period % 40].id;
            learner.model.observe_id(id, 0.05 + period as f64 * 0.001, 0.5);
            shared_stream.push(xeon_shaped_period(&mut shared, &registry, &mut now));
        }
        assert_ne!(
            learner.model().believed_staircase(),
            learner.model().table().declared_staircase(),
            "the learner's own staircase must have moved"
        );
        assert_eq!(learner.model().table().by_declared_speedup(), &declared_speedup_order[..]);
        assert_eq!(learner.model().table().declared_staircase(), &declared_staircase[..]);
        assert_eq!(shared_stream, alone_stream);
        assert_eq!(learned_state(&shared), alone_state);
    }

    #[test]
    fn decisions_are_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let registry = HeartbeatRegistry::new("app");
            registry
                .issuer()
                .set_goal(Goal::Performance(PerformanceGoal::heart_rate(20.0)));
            let mut runtime = SeecRuntime::builder(registry.monitor())
                .actuator(Box::new(TableActuator::new(dvfs_spec())))
                .actuator(Box::new(TableActuator::new(cores_spec())))
                .seed(seed)
                .build()
                .unwrap();
            let issuer = registry.issuer();
            let mut now = 0.0;
            let mut configs = Vec::new();
            for _ in 0..20 {
                for _ in 0..4 {
                    now += 0.05;
                    issuer.heartbeat(now);
                }
                configs.push(runtime.decide(now).unwrap().configuration);
            }
            configs
        };
        assert_eq!(run(7), run(7));
    }
}
