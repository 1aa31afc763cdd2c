//! The multi-application coordinator: N observe–decide–act loops on one
//! shared quantum schedule, arbitrating one machine-level power budget.

use std::sync::Arc;

use exec::ExecPool;
use heartbeats::{HeartbeatMonitor, MonitorObservation};
use obs::{Counter, Event, EventKind, Recorder, Stage, StageClock};
use seec::{Decision, SeecError, SeecRuntime};
use workloads::HeartbeatedWorkload;

use crate::incremental::{ArbitrationSchedule, IncrementalArbiter, ScheduleError, WakeConfig};
use crate::policy::{AppRequest, ArbitrationPolicy};

/// Opaque handle to one application registered with a [`Coordinator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppHandle(usize);

impl AppHandle {
    /// The registration index of the application (registration order).
    pub fn index(self) -> usize {
        self.0
    }

    /// The handle for registration index `index` — the inverse of
    /// [`Self::index`], for drivers that iterate a fleet by position
    /// (handles are issued densely, in registration order, by
    /// [`Coordinator::register`]). Indexes past the fleet size panic when
    /// used, exactly like a slice index.
    pub fn from_index(index: usize) -> Self {
        AppHandle(index)
    }
}

/// Where an application sits on the watchdog's degradation ladder.
///
/// The ladder is `Healthy → Suspect → Quarantined → Readmitted`, driven
/// entirely by telemetry the coordinator already sees (no side channel to
/// the fault injector): missing heartbeats, non-finite reports, and
/// believed power persistently over the awarded envelope. `Readmitted` is
/// behaviourally identical to `Healthy` — it only records that the app
/// earned its way back — and a readmitted app can be quarantined again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No watchdog rule has fired recently.
    Healthy,
    /// A rule fired this quantum but has not persisted long enough to
    /// quarantine: the app keeps its normal arbitration seat.
    Suspect,
    /// A rule persisted past its threshold (or telemetry went non-finite):
    /// the app is pinned to the conservative floor envelope and its
    /// reclaimed watts are redistributed by the normal arbitration fold.
    Quarantined,
    /// The app produced [`WatchdogConfig::readmit_quanta`] consecutive
    /// clean quanta while quarantined and holds a normal seat again.
    Readmitted,
}

/// Thresholds for the coordinator's per-app watchdog (see
/// [`Coordinator::with_watchdog`]). All rules are evaluated once per step,
/// per app, in registration order, so the ladder is deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Consecutive active quanta without a fresh heartbeat before
    /// quarantine (the paper's platform treats a silent app as gone).
    pub stale_beat_quanta: usize,
    /// Consecutive quanta of reported power above the envelope (times
    /// `1 + overdraw_tolerance`) before quarantine.
    pub overdraw_quanta: usize,
    /// Fractional slack on the overdraw comparison; believed power may
    /// legitimately exceed the envelope transiently while models learn.
    pub overdraw_tolerance: f64,
    /// The conservative watt envelope a quarantined app is pinned to (also
    /// the floor of the overdraw comparison, so freshly-arrived apps with
    /// a 0 W award are not instantly suspect). Should be at least the
    /// fleet's cheapest-configuration draw, or honest recovered apps can
    /// never requalify.
    pub quarantine_floor_watts: f64,
    /// Consecutive clean quanta (fresh beats, finite telemetry, no
    /// overdraw) a quarantined app needs before readmission.
    pub readmit_quanta: usize,
    /// Active quanta an app is judged before stale-beat and overdraw
    /// strikes count. A freshly-launched app's power model is uncalibrated
    /// (its first awards are guesses, so early "overdraw" is the model
    /// learning) and its heart rate is still ramping (a slow app may
    /// legitimately not beat for several quanta). Only the NaN rule is
    /// exempt — non-finite telemetry needs no calibration to be damning.
    pub warmup_quanta: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stale_beat_quanta: 4,
            overdraw_quanta: 4,
            overdraw_tolerance: 0.5,
            quarantine_floor_watts: 5.0,
            readmit_quanta: 8,
            warmup_quanta: 8,
        }
    }
}

/// Per-app watchdog bookkeeping the ladder's fixed point never moves (the
/// ladder position and its strike counters). The beat and warmup clocks,
/// which every pass moves, live in the slot's [`HotRow`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct HealthTracker {
    state: HealthState,
    stale_quanta: usize,
    overdraw_quanta: usize,
    clean_quanta: usize,
    quarantined_at: Option<usize>,
    readmitted_at: Option<usize>,
}

impl HealthTracker {
    fn new() -> Self {
        HealthTracker {
            state: HealthState::Healthy,
            stale_quanta: 0,
            overdraw_quanta: 0,
            clean_quanta: 0,
            quarantined_at: None,
            readmitted_at: None,
        }
    }
}

/// One application under coordination: its heartbeat-instrumented workload
/// (the phase driver) and the SEEC runtime that manages it. It is present
/// from its [`Coordinator::register`] until its [`Coordinator::retire`].
pub struct ManagedApp {
    name: Arc<str>,
    driver: HeartbeatedWorkload,
    monitor: HeartbeatMonitor,
    runtime: SeecRuntime,
    weight: f64,
    /// The quantum [`Coordinator::retire`] stamped (`None` = still present).
    departure: Option<usize>,
    /// Fallback estimate of the app's nominal-configuration power draw, in
    /// watts, used to convert watt envelopes into powerup caps until the
    /// runtime's own estimator has observed real samples. 0 = unknown.
    nominal_power_hint: f64,
    awarded_watts: f64,
    last_decision: Option<Decision>,
    /// Watchdog ladder state (inert until the coordinator enables a
    /// [`WatchdogConfig`]).
    health: HealthTracker,
}

impl std::fmt::Debug for ManagedApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedApp")
            .field("name", &self.name)
            .field("weight", &self.weight)
            .field("departure", &self.departure)
            .field("awarded_watts", &self.awarded_watts)
            .finish_non_exhaustive()
    }
}

impl ManagedApp {
    /// Couples a heartbeat-instrumented workload with the SEEC runtime
    /// managing it. The runtime must have been built over (a monitor of)
    /// the driver's registry, so both observe the same application.
    pub fn new(driver: HeartbeatedWorkload, runtime: SeecRuntime) -> Self {
        let monitor = driver.monitor();
        ManagedApp {
            name: monitor.name(),
            driver,
            monitor,
            runtime,
            weight: 1.0,
            departure: None,
            nominal_power_hint: 0.0,
            awarded_watts: 0.0,
            last_decision: None,
            health: HealthTracker::new(),
        }
    }

    /// Sets the arbitration weight (priority tier; default 1.0).
    ///
    /// # Panics
    ///
    /// Panics unless the weight is positive and finite.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive"
        );
        self.weight = weight;
        self
    }

    /// Seeds the watts-per-nominal estimate used before the runtime's own
    /// power estimator has samples (see the field docs).
    pub fn with_nominal_power_hint(mut self, watts: f64) -> Self {
        self.nominal_power_hint = watts.max(0.0);
        self
    }

    /// The application's name (from its heartbeat registry).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload phase driver.
    pub fn driver(&self) -> &HeartbeatedWorkload {
        &self.driver
    }

    /// The SEEC runtime managing this app.
    pub fn runtime(&self) -> &SeecRuntime {
        &self.runtime
    }

    /// The arbitration weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Whether the app is present at shared quantum `quantum`: true until
    /// the quantum [`Coordinator::retire`] stamped, false from it on.
    pub fn active_at(&self, quantum: usize) -> bool {
        self.departure.is_none_or(|d| quantum < d)
    }

    /// The watt envelope awarded at the most recent step (0 before the
    /// first step, and from [`Coordinator::retire`] on).
    pub fn awarded_watts(&self) -> f64 {
        self.awarded_watts
    }

    /// The decision taken at the most recent step this app was active.
    pub fn last_decision(&self) -> Option<Decision> {
        self.last_decision
    }

    /// Best current estimate of the app's nominal-configuration power, in
    /// watts: the runtime's learned estimate once initialised, the
    /// registration hint before that.
    pub fn nominal_power_watts(&self) -> f64 {
        self.runtime
            .estimated_nominal_power()
            .unwrap_or(self.nominal_power_hint)
    }

    /// The app's position on the watchdog's degradation ladder
    /// ([`HealthState::Healthy`] forever when no watchdog is enabled).
    pub fn health_state(&self) -> HealthState {
        self.health.state
    }

    /// The quantum at which the watchdog first quarantined the app
    /// (`None` = never quarantined).
    pub fn quarantined_at(&self) -> Option<usize> {
        self.health.quarantined_at
    }

    /// The quantum at which the watchdog most recently readmitted the app
    /// (`None` = never readmitted).
    pub fn readmitted_at(&self) -> Option<usize> {
        self.health.readmitted_at
    }
}

/// The believed power draw of `app`'s *cheapest* configuration, in watts —
/// the least it can physically draw while running at all (0 when its
/// nominal power is still unknown). The watchdog's overdraw envelope and
/// the admission feasibility pre-check both reason from this floor.
fn cheapest_floor_watts(app: &ManagedApp) -> f64 {
    app.nominal_power_watts() * app.runtime.model().table().min_declared_power()
}

/// What `app` commits against the cap for admission feasibility purposes:
/// once it has been decided at least once the platform can squeeze it to
/// its cheapest-configuration floor, but until then it is still facing its
/// landing quantum at full launch (nominal-configuration) power — the
/// transient that makes simultaneous launch storms infeasible.
fn committed_floor_watts(app: &ManagedApp) -> f64 {
    if app.last_decision.is_some() {
        cheapest_floor_watts(app)
    } else {
        app.nominal_power_watts()
    }
}

/// The watt envelope the watchdog's overdraw rule compares a report
/// against: the award, floored by the quarantine floor (so 0 W-award
/// quanta do not count) and by the believed draw of the app's *cheapest*
/// configuration. When awards squeeze an app below what it can physically
/// reach, drawing its floor is obedience, not overdraw — and without this
/// an honest app whose cheapest draw exceeds the quarantine floor could
/// never produce a clean quantum to requalify. (A misreporter cannot hide
/// behind this: at fault onset its believed cheapest draw still reflects
/// the honest model, and the Kalman nominal-power estimate re-converges
/// slower than the strike window.)
fn overdraw_envelope(app: &ManagedApp, quarantine_floor_watts: f64) -> f64 {
    app.awarded_watts
        .max(quarantine_floor_watts)
        .max(cheapest_floor_watts(app))
}

/// Runs the watchdog ladder over one application for the quantum about to
/// be arbitrated, mutating its request in place when quarantine pins it to
/// the floor envelope, and consuming the report in its hot `row`.
/// Sequential, registration order, plain comparisons — the ladder is
/// bit-deterministic and, when no watchdog is configured, never runs at
/// all. The step skips this call for a settled slot whose pass is the
/// ladder's fixed point ([`HotRow::pass_settled`]).
fn watchdog_app(
    app: &mut ManagedApp,
    row: &mut HotRow,
    request: &mut AppRequest,
    config: &WatchdogConfig,
    quantum: usize,
) {
    let fresh = row.beats != row.last_beats;
    row.last_beats = row.beats;
    let warming_up = row.judged_quanta < config.warmup_quanta;
    row.judged_quanta = row.judged_quanta.saturating_add(1);
    let (reported_work, reported_power) = row.take_report();

    // Non-finite telemetry or request fields quarantine immediately: a NaN
    // entering the arbitration fold would poison every downstream award.
    // (An *infinite* request ceiling is legitimate — apps without power
    // samples absorb anything — so only NaN is judged there.)
    let non_finite = reported_work.is_some_and(|w| !w.is_finite())
        || reported_power.is_some_and(|p| !p.is_finite())
        || request.urgency.is_nan()
        || request.max_power_watts.is_nan()
        || request.weight.is_nan();
    // Believed power persistently over the envelope, with slack for model
    // learning.
    let envelope = overdraw_envelope(app, config.quarantine_floor_watts);
    row.envelope = envelope;
    let overdraw = !warming_up
        && reported_power
            .is_some_and(|p| p.is_finite() && p > envelope * (1.0 + config.overdraw_tolerance));
    app.health.stale_quanta = if fresh || warming_up {
        0
    } else {
        app.health.stale_quanta + 1
    };
    app.health.overdraw_quanta = if overdraw {
        app.health.overdraw_quanta + 1
    } else {
        0
    };

    match app.health.state {
        HealthState::Quarantined => {
            let clean = fresh && !non_finite && !overdraw;
            app.health.clean_quanta = if clean {
                app.health.clean_quanta + 1
            } else {
                0
            };
            if app.health.clean_quanta >= config.readmit_quanta {
                app.health.state = HealthState::Readmitted;
                app.health.readmitted_at = Some(quantum);
                app.health.clean_quanta = 0;
                app.health.stale_quanta = 0;
                app.health.overdraw_quanta = 0;
            }
        }
        HealthState::Healthy | HealthState::Suspect | HealthState::Readmitted => {
            if non_finite
                || app.health.stale_quanta >= config.stale_beat_quanta
                || app.health.overdraw_quanta >= config.overdraw_quanta
            {
                app.health.state = HealthState::Quarantined;
                app.health.quarantined_at.get_or_insert(quantum);
                app.health.clean_quanta = 0;
            } else if !fresh || overdraw {
                app.health.state = HealthState::Suspect;
            } else if app.health.state == HealthState::Suspect {
                app.health.state = HealthState::Healthy;
            }
        }
    }

    // A Healthy or Readmitted app leaves every pass with both strike
    // counters at 0, so its next clean, fresh pass moves nothing but the
    // clocks — unless a zero threshold quarantines even that pass.
    row.settled = matches!(
        app.health.state,
        HealthState::Healthy | HealthState::Readmitted
    ) && config.stale_beat_quanta > 0
        && config.overdraw_quanta > 0;
    if app.health.state == HealthState::Quarantined {
        quarantine_floor(request, config);
    }
}

/// The conservative floor seat of a quarantined app: unit urgency, ceiling
/// pinned to the floor. The normal arbitration fold then redistributes the
/// watts the app can no longer absorb.
fn quarantine_floor(request: &mut AppRequest, config: &WatchdogConfig) {
    request.urgency = 1.0;
    request.max_power_watts = config.quarantine_floor_watts;
}

/// Why [`Coordinator::try_register`] refused a registrant: with the
/// admission feasibility pre-check enabled, an app whose
/// cheapest-configuration power floor exceeds the remaining cap headroom is
/// rejected outright — arbitration could never award it a feasible
/// envelope, so admitting it would guarantee either starvation or a cap
/// violation.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionError {
    /// The refused application's name.
    pub app: String,
    /// The registrant's cheapest-configuration power floor, in watts.
    pub floor_watts: f64,
    /// Cap headroom that was still unclaimed by resident floors, in watts.
    pub headroom_watts: f64,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission rejected: {} needs at least {:.3} W but only {:.3} W of cap headroom remains",
            self.app, self.floor_watts, self.headroom_watts
        )
    }
}

impl std::error::Error for AdmissionError {}

/// Summary of one coordinator step, as plain `Copy` data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSummary {
    /// The shared quantum index this step covered.
    pub quantum: usize,
    /// Applications present this quantum.
    pub active_apps: usize,
    /// Watts handed out across the fleet (≤ budget × headroom).
    pub awarded_watts_total: f64,
}

/// Builds one application's [`AppRequest`] for this quantum from an
/// already-taken monitor snapshot. Free function (no `&self`) so the
/// sharded step can run it on worker threads over disjoint fleet chunks.
fn request_for(
    app: &ManagedApp,
    observation: &MonitorObservation,
    quantum: usize,
    budget_watts: f64,
) -> AppRequest {
    let active = app.active_at(quantum);
    // The observation already carries the registry's target; only the
    // runtime's local override is consulted on top, so the fleet snapshot
    // stays the step's single lock per app.
    let target = app
        .runtime
        .target_override()
        .or(observation.target_heart_rate);
    let observed = observation.stats.window;
    let urgency = match target {
        Some(target) if observed > 0.0 && observation.stats.beats_in_window >= 2 => {
            target / observed
        }
        _ => 1.0,
    };
    let nominal_power = app.nominal_power_watts();
    let max_power_watts = if nominal_power > 0.0 {
        nominal_power * app.runtime.model().table().max_declared_power()
    } else {
        // Power draw unknown yet: let the app absorb anything; its
        // envelope will bind as soon as samples arrive.
        budget_watts
    };
    AppRequest {
        active,
        weight: app.weight,
        urgency,
        max_power_watts,
    }
}

/// Folds the live apps' requests into one fleet-level aggregate (see
/// [`Coordinator::fleet_request`] for the field semantics). Registration
/// order, so every floating-point sum is deterministic.
fn aggregate_requests<'a>(requests: impl Iterator<Item = &'a AppRequest>) -> AppRequest {
    let mut active = false;
    let mut weight = 0.0;
    let mut weighted_urgency = 0.0;
    let mut max_power_watts = 0.0;
    for request in requests {
        active = true;
        weight += request.weight;
        weighted_urgency += request.weight * request.urgency;
        max_power_watts += request.max_power_watts;
    }
    AppRequest {
        active,
        weight: if weight > 0.0 { weight } else { 1.0 },
        urgency: if weight > 0.0 {
            weighted_urgency / weight
        } else {
            1.0
        },
        max_power_watts,
    }
}

/// The apps not yet retired, with their registration indices, in
/// registration order: the engine's `present` list minus the slots retired
/// since the last step (present until their absent round).
fn present_apps<'a>(
    present: &'a [u32],
    apps: &'a [ManagedApp],
) -> impl Iterator<Item = (usize, &'a ManagedApp)> {
    present
        .iter()
        .map(|&index| (index as usize, &apps[index as usize]))
        .filter(|(_, app)| app.departure.is_none())
}

/// Runs `stage` on every slot the ascending `list` names — the walk both
/// per-app stages of [`Coordinator::step`] share. `stage` receives the
/// slot's global index, its app, and its observation, request and hot
/// rows.
///
/// Without a `pool` the walk runs inline. With one, the list is cut into
/// equal-count runs, one per pool thread ([`shards`]), each with exclusive
/// `&mut` rows for the slot range it spans — exclusive even for the
/// read-only observe stage, because boxed actuators make `ManagedApp`
/// `Send` but not `Sync`. Every per-slot result depends only on that slot's
/// rows, so the output is bit-identical at any worker count. A walk stops
/// at its first error; the lowest-indexed error across shards is returned,
/// matching the inline walk's choice (slots already processed keep their
/// results).
fn walk_list<F>(
    pool: Option<&ExecPool>,
    list: &[u32],
    apps: &mut [ManagedApp],
    observations: &mut [MonitorObservation],
    requests: &mut [AppRequest],
    rows: &mut [HotRow],
    stage: F,
) -> Result<(), SeecError>
where
    F: Fn(
            usize,
            &mut ManagedApp,
            &mut MonitorObservation,
            &mut AppRequest,
            &mut HotRow,
        ) -> Result<(), SeecError>
        + Sync,
{
    let walk = |shard: &mut Shard| {
        for &index in shard.list {
            let (index, offset) = (index as usize, index as usize - shard.base);
            let result = stage(
                index,
                &mut shard.apps[offset],
                &mut shard.observations[offset],
                &mut shard.requests[offset],
                &mut shard.rows[offset],
            );
            if let Err(err) = result {
                shard.failure = Some((index, err));
                return;
            }
        }
    };
    let Some(pool) = pool.filter(|_| list.len() > 1) else {
        let mut whole = Shard {
            base: 0,
            list,
            apps,
            observations,
            requests,
            rows,
            failure: None,
        };
        walk(&mut whole);
        return whole.failure.map_or(Ok(()), |(_, err)| Err(err));
    };
    let mut shards = shards(list, pool.threads(), apps, observations, requests, rows);
    pool.for_each_mut(&mut shards, |_, shard| walk(shard));
    shards
        .into_iter()
        .filter_map(|shard| shard.failure)
        .min_by_key(|(index, _)| *index)
        .map_or(Ok(()), |(_, err)| Err(err))
}

/// One pool task's share of a [`walk_list`]: a run of the list and the
/// rows of the slot range it spans, from `base` on.
struct Shard<'a> {
    base: usize,
    list: &'a [u32],
    apps: &'a mut [ManagedApp],
    observations: &'a mut [MonitorObservation],
    requests: &'a mut [AppRequest],
    rows: &'a mut [HotRow],
    failure: Option<(usize, SeecError)>,
}

/// Cuts the ascending `list` into at most `runs` runs of equal count (their
/// lengths differ by at most one) and hands each the rows from its first
/// slot up to the next run's first slot — the last run to the end of the
/// rows — so the shards' row ranges are disjoint. Balancing the count, not
/// the slot range, keeps the shards even when the list bunches up: arrivals
/// append and early slots retire, so live slots gather at high indices.
fn shards<'a>(
    list: &'a [u32],
    runs: usize,
    mut apps: &'a mut [ManagedApp],
    mut observations: &'a mut [MonitorObservation],
    mut requests: &'a mut [AppRequest],
    mut rows: &'a mut [HotRow],
) -> Vec<Shard<'a>> {
    let runs = runs.clamp(1, list.len().max(1));
    let mut shards = Vec::with_capacity(runs);
    let mut base = 0;
    for run in 0..runs {
        let (lo, hi) = (list.len() * run / runs, list.len() * (run + 1) / runs);
        let end = list
            .get(hi)
            .map_or(base + apps.len(), |&next| next as usize);
        let (head, tail) = std::mem::take(&mut apps).split_at_mut(end - base);
        apps = tail;
        let (head_observations, tail) = std::mem::take(&mut observations).split_at_mut(end - base);
        observations = tail;
        let (head_requests, tail) = std::mem::take(&mut requests).split_at_mut(end - base);
        requests = tail;
        let (head_rows, tail) = std::mem::take(&mut rows).split_at_mut(end - base);
        rows = tail;
        shards.push(Shard {
            base,
            list: &list[lo..hi],
            apps: head,
            observations: head_observations,
            requests: head_requests,
            rows: head_rows,
            failure: None,
        });
        base = end;
    }
    shards
}

/// The decide stage for one slot: records the award on the app and, when
/// the app is present and not masked clean, decides it under the envelope.
///
/// With a `dirty` flag (a positive arbitration tolerance), clean apps skip
/// the whole decide quantum — their held award and previous decision stand
/// — and are counted [`Counter::AppsSkipped`]; dirty apps decide and are
/// counted [`Counter::AppsRearbitrated`]. Without one (tolerance 0, where
/// every slot is dirty every quantum) every present app decides and is
/// counted [`Counter::AppsDecided`]. Sleeping slots never reach this
/// function: the step counts them [`Counter::AppsSlept`] once from the
/// arbitration outcome, so `slept + skipped + rearbitrated + decided` sums
/// to quanta × active fleet under every schedule.
fn decide_one(
    app: &mut ManagedApp,
    observation: &MonitorObservation,
    award: f64,
    dirty: Option<bool>,
    now: f64,
    quantum: usize,
    observer: Option<&Recorder>,
) -> Result<(), SeecError> {
    app.awarded_watts = award;
    if !app.active_at(quantum) {
        return Ok(());
    }
    if dirty == Some(false) {
        if let Some(observer) = observer {
            observer.count(Counter::AppsSkipped);
        }
        return Ok(());
    }
    let nominal_power = app.nominal_power_watts();
    let max_powerup = if nominal_power > 0.0 && award.is_finite() {
        award / nominal_power
    } else {
        f64::INFINITY
    };
    // Per-decision latency: counter additions are order-free, so timing
    // from pool workers keeps the bucket counts deterministic; only the
    // wall-clock values vary.
    let clock = observer.map(|_| StageClock::start());
    app.last_decision = Some(
        app.runtime
            .decide_under_power_cap(now, observation, max_powerup)?,
    );
    if let (Some(observer), Some(clock)) = (observer, clock) {
        observer.count(if dirty.is_some() {
            Counter::AppsRearbitrated
        } else {
            Counter::AppsDecided
        });
        observer.time(Stage::Decision, clock.total());
    }
    Ok(())
}

/// One registration slot's hot row: the report [`Coordinator::advance`]
/// left since the last step, and everything the watchdog's fixed-point
/// test reads, so that a settled app with a clean report is judged without
/// a visit to its [`ManagedApp`].
#[derive(Debug, Clone, Copy)]
struct HotRow {
    /// Work units of the last report since the last step (meaningful only
    /// while `reported`).
    work: f64,
    /// Power of the last report since the last step (meaningful only while
    /// `reported`).
    power: f64,
    /// The driver's emitted beats, written by [`Coordinator::advance`]
    /// after it drives the workload (and read at registration).
    beats: u64,
    /// `beats` at the previous watchdog pass.
    last_beats: u64,
    /// Active quanta the watchdog has judged this app (the warmup clock).
    judged_quanta: usize,
    /// The overdraw envelope ([`overdraw_envelope`]) as of the last write
    /// to its inputs: the decide stage and the watchdog's full pass write
    /// it while the app is hot. NaN until first written, and NaN compares
    /// false, so an unknown envelope falls to the full pass.
    envelope: f64,
    /// Whether `work` and `power` hold a report the watchdog has not read
    /// (`false` = nothing reported — a stalled or crashed app).
    reported: bool,
    /// Whether [`Coordinator::advance`] reported for this slot since the
    /// last step — the event that re-enrolls a steady app into observation
    /// at a positive arbitration tolerance.
    fresh: bool,
    /// Whether a fresh, clean pass is a fixed point of the ladder: the app
    /// is Healthy or Readmitted, present, and both strike thresholds are
    /// positive (with a zero threshold a clean pass still quarantines).
    /// Written only by [`watchdog_app`] and [`Coordinator::retire`].
    settled: bool,
}

impl HotRow {
    /// The row of a slot whose driver has emitted `beats` so far.
    fn new(beats: u64) -> Self {
        HotRow {
            work: 0.0,
            power: 0.0,
            beats,
            last_beats: 0,
            judged_quanta: 0,
            envelope: f64::NAN,
            reported: false,
            fresh: false,
            settled: false,
        }
    }

    /// Consumes the pending report as `(work, power)`.
    fn take_report(&mut self) -> (Option<f64>, Option<f64>) {
        let reported = std::mem::take(&mut self.reported);
        (
            reported.then_some(self.work),
            reported.then_some(self.power),
        )
    }

    /// The ladder's fixed point, judged from this row and the slot's
    /// `request` alone: a settled app whose beats moved, whose report is
    /// finite and inside the envelope (or which is still warming up), and
    /// whose request holds no NaN leaves [`watchdog_app`] with nothing
    /// changed but its clocks. Books exactly that pass and returns `true`;
    /// otherwise changes nothing and returns `false`, leaving the slot to
    /// the full pass.
    fn pass_settled(&mut self, request: &AppRequest, config: &WatchdogConfig) -> bool {
        let warming_up = self.judged_quanta < config.warmup_quanta;
        let clean = self.settled
            && self.beats != self.last_beats
            && (!self.reported
                || (self.work.is_finite()
                    && self.power.is_finite()
                    && (warming_up
                        || self.power <= self.envelope * (1.0 + config.overdraw_tolerance))))
            && !(request.urgency.is_nan()
                || request.max_power_watts.is_nan()
                || request.weight.is_nan());
        if clean {
            self.last_beats = self.beats;
            self.judged_quanta = self.judged_quanta.saturating_add(1);
            self.reported = false;
        }
        clean
    }
}

/// Runs many applications' ODA loops on one shared quantum schedule and
/// arbitrates a machine-level power budget across them.
///
/// Per [`Coordinator::step`]:
///
/// 1. **Observe** — every participating app's monitor is snapshotted, one
///    lock acquisition per app.
/// 2. **Arbitrate** — the [`ArbitrationPolicy`] splits the budget into
///    per-app watt envelopes from each app's priority weight and
///    heartbeat-gap urgency.
/// 3. **Decide** — each present app's [`SeecRuntime`] decides *under its
///    envelope* ([`SeecRuntime::decide_under_power_cap`]):
///    the envelope in watts becomes a powerup cap via the app's
///    nominal-power estimate, clamping the admissible configuration set to
///    the prefix of the model's power-sorted index.
///
/// The platform then runs a quantum in the chosen configurations and feeds
/// completed work and measured power back through
/// [`Coordinator::advance`].
///
/// # One list round
///
/// Every step runs through an [`IncrementalArbiter`] configured by the
/// coordinator's [`ArbitrationSchedule`]. The engine opens each round with
/// an ascending participant list — every present slot by default (plus the
/// slots retired since the last step, for their one absent round), the
/// awake set under wake scheduling — and both per-app stages walk exactly
/// that list:
/// observe (minus participants whose buffered snapshot is still current;
/// a slot the watchdog moves mid-round gets a late observation instead)
/// and decide (masked by the round's dirty set at a positive tolerance).
/// A registration only grows the buffers; it never re-observes the fleet.
/// At the default schedule (tolerance 0, no wake scheduling) every present
/// slot is dirty every quantum, so the awards are the plain full fold's —
/// pinned
/// bit-for-bit against a test-only full-fold reference step by
/// `tests/incremental_props.rs`.
///
/// # Sharding
///
/// With a multi-thread pool attached ([`Coordinator::with_pool`]), the
/// per-application stages — observe/request (1–2) and decide (3) — run on
/// that **persistent** [`exec::ExecPool`]: the round's list is cut into
/// equal-count runs, one per pool thread, and each pool task walks its run
/// over the rows of the slot range it spans, while arbitration (the only
/// stage that couples applications) stays a sequential fold over the full
/// request list. The
/// pool is reused across every quantum, so the steady-state step pays a
/// wake-up instead of a per-step thread spawn.
/// Because each application's observation, request, and decision are
/// functions of *its own* state plus the arbitration output, and the
/// arbitration input/output are identical regardless of how the fleet was
/// partitioned, the sharded step is **bit-identical** to the sequential one
/// at every worker count (pinned by the property suite,
/// `tests/lifecycle_props.rs`).
///
/// Sharding only engages once the round's participant list reaches the
/// shard threshold ([`Coordinator::with_shard_threshold`], default
/// [`Coordinator::DEFAULT_SHARD_THRESHOLD`] slots); below it, the fan-out
/// hand-off costs more than the per-app work it spreads out, so the step
/// runs inline. The threshold is purely a performance knob —
/// output is bit-identical on either side of it.
///
/// # Application lifecycle
///
/// Applications [`register`](Coordinator::register) and
/// [`retire`](Coordinator::retire) at any point of the run — the fleet is
/// not fixed at construction. An app has two states: *active* from its
/// registration (it takes part in the next step), then *retired* from the
/// quantum [`Coordinator::retire`] stamps ([`ManagedApp::active_at`]).
/// A retired app stays registered, so its handle and final state remain
/// readable, but it is awarded exactly 0 W and never decides again. The
/// step after its retirement still lists it once — observing it absent and
/// recording its 0 W award — and from then on it leaves every per-step and
/// lifecycle walk (observe, watchdog, arbitrate, decide, summarise,
/// [`Coordinator::fleet_request`], the admission feasibility sum), so step
/// cost follows the live fleet, not every app ever registered. The engine's
/// present list is the one record of which slots still take part; the
/// coordinator's walks read it and skip the slots retired since the last
/// step (present until their absent round closes). No app data
/// moves: handles, [`Coordinator::len`], [`Coordinator::app`],
/// [`Coordinator::apps`] and [`Coordinator::awards`] (0 W for retired
/// slots) keep their registration-order meaning. The budget itself can
/// step mid-run via [`Coordinator::set_budget`].
pub struct Coordinator {
    apps: Vec<ManagedApp>,
    policy: Box<dyn ArbitrationPolicy>,
    budget_watts: f64,
    quantum: usize,
    /// Persistent worker pool the per-app stages shard across (`None` =
    /// everything inline), attached by [`Self::with_pool`] and reused
    /// across every quantum.
    pool: Option<Arc<ExecPool>>,
    /// Participant count from which the per-app stages use the pool.
    shard_threshold: usize,
    /// Watchdog thresholds; `None` (the default) disables the degradation
    /// ladder entirely — the step is bit-identical to a pre-watchdog build.
    watchdog: Option<WatchdogConfig>,
    /// Whether a mid-run registration is immediately dropped to its
    /// cheapest configuration (see [`Self::with_admission_control`]).
    admission_control: bool,
    /// Whether [`Self::try_register`] runs the admission feasibility
    /// pre-check (see [`Self::with_admission_feasibility`]).
    admission_feasibility: bool,
    /// The arbitration engine every step runs through, under its schedule
    /// (see [`Self::set_schedule`]). It opens each round
    /// with the participant list the per-app stages walk, folds the dirty
    /// set (everything, at tolerance 0), tracks who sleeps, and holds the
    /// present list every other walk reads; switched in place whenever
    /// the schedule changes.
    arbiter: IncrementalArbiter,
    /// One [`HotRow`] per registration slot: hot per-application state in
    /// struct-of-arrays layout parallel to `apps`, so the step streams
    /// cache lines of small rows instead of pulling whole
    /// [`ManagedApp`]s. The observation and request buffers below, and
    /// the engine's award column, are the other columns of the same
    /// layout.
    rows: Vec<HotRow>,
    /// Per-step scratch: the ascending slots that need a fresh snapshot
    /// this quantum — the round's participant list minus the participants
    /// that are steady and have no fresh report (they keep their buffered
    /// observation and request). Slots registered or retired since the
    /// last step are never steady, so they are always on it. The watchdog
    /// loop binary-searches it: a slot moved up or down the health ladder
    /// that is *not* on it (a sleeper, or a steady participant) gets a late
    /// observation there.
    observe_list: Vec<u32>,
    /// The admission feasibility sum — resident committed floors folded
    /// in registration order — while no floor can have moved: registering
    /// appends the newcomer's floor, and [`Self::step`] (where decisions
    /// and power estimates move) and [`Self::retire`] drop it.
    committed_floors: Option<f64>,
    /// Simulation time of the most recent step (timestamps admission-
    /// control decisions for mid-run registrations).
    last_now: f64,
    // Reused per-step buffers: the steady-state sequential step allocates
    // nothing (the pooled step allocates one small per-shard Vec).
    observations: Vec<MonitorObservation>,
    requests: Vec<AppRequest>,
    /// Telemetry recorder; `None` (the default) keeps every stage on the
    /// allocation-free hot path — no counter, no clock, no event. Counters
    /// and histogram timings go straight to the recorder (order-free
    /// atomics); discrete events are emitted only from the driver thread
    /// and the step's sequential stages, so their order is deterministic.
    observer: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("apps", &self.apps.len())
            .field("policy", &self.policy.name())
            .field("budget_watts", &self.budget_watts)
            .field("quantum", &self.quantum)
            .finish_non_exhaustive()
    }
}

/// Counts `counter` (if any) and emits the event `kind` builds, stamped
/// with `quantum`; without a recorder nothing is built. Shared by the flat
/// coordinator and the datacenter so a lifecycle call is recorded the same
/// way at every level. Must only be called from deterministic contexts —
/// driver-thread lifecycle calls — never from pool workers.
pub(crate) fn record(
    observer: Option<&Recorder>,
    quantum: usize,
    counter: Option<Counter>,
    kind: impl FnOnce() -> EventKind,
) {
    if let Some(observer) = observer {
        if let Some(counter) = counter {
            observer.count(counter);
        }
        observer.emit(Event {
            quantum: quantum as u64,
            kind: kind(),
        });
    }
}

impl Coordinator {
    /// A coordinator arbitrating `budget_watts` (machine power above idle)
    /// under `policy`.
    ///
    /// # Panics
    ///
    /// Panics unless the budget is positive (it may be infinite: an
    /// uncapped machine still benefits from the shared schedule).
    pub fn new(budget_watts: f64, policy: Box<dyn ArbitrationPolicy>) -> Self {
        assert!(budget_watts > 0.0, "power budget must be positive");
        Coordinator {
            apps: Vec::new(),
            policy,
            budget_watts,
            quantum: 0,
            pool: None,
            shard_threshold: Self::DEFAULT_SHARD_THRESHOLD,
            watchdog: None,
            admission_control: false,
            admission_feasibility: false,
            arbiter: IncrementalArbiter::new(ArbitrationSchedule::default())
                .expect("the default schedule is valid"),
            rows: Vec::new(),
            observe_list: Vec::new(),
            committed_floors: None,
            last_now: 0.0,
            observations: Vec::new(),
            requests: Vec::new(),
            observer: None,
        }
    }

    /// Attaches a telemetry [`Recorder`]: stage latencies, pipeline
    /// counters, and the structured event stream flow into it from the next
    /// call onward. Telemetry is strictly passive — attaching a recorder
    /// cannot change any award, decision, or summary (pinned by
    /// `tests/obs_determinism.rs`).
    pub fn with_obs(mut self, recorder: Arc<Recorder>) -> Self {
        self.set_obs(Some(recorder));
        self
    }

    /// Attaches or detaches the telemetry recorder mid-run (see
    /// [`Self::with_obs`]).
    pub fn set_obs(&mut self, recorder: Option<Arc<Recorder>>) {
        self.observer = recorder;
    }

    /// The attached telemetry recorder, if any.
    pub fn obs(&self) -> Option<&Arc<Recorder>> {
        self.observer.as_ref()
    }

    /// [`record`] on this coordinator's recorder at its current quantum.
    fn record(&self, counter: Option<Counter>, kind: impl FnOnce() -> EventKind) {
        record(self.observer.as_deref(), self.quantum, counter, kind);
    }

    /// Default shard threshold (see [`Self::with_shard_threshold`]): rounds
    /// with fewer than 64 participants step inline even when a pool is
    /// attached, because at that size the fan-out hand-off outgrows the
    /// per-app decide work it spreads out.
    pub const DEFAULT_SHARD_THRESHOLD: usize = 64;

    /// The fraction of the budget actually handed out. The margin absorbs
    /// model error: envelopes are enforced against each app's *believed*
    /// power multipliers, which learning keeps close to — but never
    /// exactly at — the platform's true draws.
    const HEADROOM: f64 = 0.95;

    /// Shards the per-application stages of [`Self::step`] across `pool`
    /// (default: everything inline on the caller's thread). The pool is
    /// reused across every quantum; a single-thread pool is ignored, and
    /// thread counts above the participant count simply leave workers idle.
    /// Many coordinators (e.g. the racks of a
    /// [`crate::DatacenterArbiter`]) may share one pool. Sharded output is
    /// bit-identical to sequential output at every thread count — see the
    /// type-level sharding notes.
    pub fn with_pool(mut self, pool: Arc<ExecPool>) -> Self {
        self.pool = (pool.threads() > 1).then_some(pool);
        self
    }

    /// Sets the participant count from which the per-application stages use
    /// the worker pool (default [`Self::DEFAULT_SHARD_THRESHOLD`]; 0 =
    /// always). Purely a performance knob: output is bit-identical on
    /// either side.
    pub fn with_shard_threshold(mut self, threshold: usize) -> Self {
        self.shard_threshold = threshold;
        self
    }

    /// Enables the per-app watchdog (default: disabled). With a
    /// config attached, every step runs the degradation ladder —
    /// [`HealthState`] transitions driven by stale heartbeats, non-finite
    /// telemetry, and persistent envelope overdraw — and quarantined apps
    /// are pinned to [`WatchdogConfig::quarantine_floor_watts`]. Without
    /// one, the ladder never runs.
    pub fn with_watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        // Settled bits and envelopes were judged under the old thresholds:
        // every slot's next pass is a full one, which rewrites both.
        for row in &mut self.rows {
            row.settled = false;
        }
        self
    }

    /// Enables admission control for mid-run registrations (default: off).
    ///
    /// Without it, an application that registers between steps executes its
    /// landing quantum in whatever configuration it launched with — awards
    /// only bind at the *next* arbitration, so a hungry arrival can
    /// transiently blow the machine cap (the fuzzer's 2-app/3-quantum
    /// `cap_violation_machine` reproducer). With it, [`Self::register`]
    /// immediately decides the newcomer under a zero powerup cap, dropping
    /// it to its cheapest configuration until the next step awards it a
    /// real envelope.
    pub fn with_admission_control(mut self, enabled: bool) -> Self {
        self.admission_control = enabled;
        self
    }

    /// Enables the admission feasibility pre-check (default: off). With it,
    /// [`Self::try_register`] *rejects* — not just arbitrates — a
    /// registrant whose power floor does not fit in the cap headroom left
    /// after the floors of every resident app. A resident that has been
    /// decided at least once commits its cheapest-configuration floor
    /// (`nominal watts × cheapest declared power multiplier` — the least it
    /// can draw once squeezed); a resident still facing its landing quantum
    /// (no decision yet), and the registrant itself, commit their full
    /// launch (nominal-configuration) power — the landing transient a
    /// launch storm pays all at once is exactly what the check must refuse.
    /// The residents' committed floors are summed once and cached: each
    /// registration adds its own floor to the cached sum, and only a step
    /// or a retirement makes the next check refold the live apps, so a
    /// burst of registrations between two steps costs O(1) each.
    /// A rejection raises an
    /// [`obs::EventKind::AdmissionRejected`] event on the
    /// telemetry stream. [`Self::register`] is never subject to the check —
    /// it cannot report a refusal — so feasibility-gated drivers must
    /// register through [`Self::try_register`].
    pub fn with_admission_feasibility(mut self, enabled: bool) -> Self {
        self.admission_feasibility = enabled;
        self
    }

    /// Enables **incremental arbitration** with the given tolerance (the
    /// schedule's wake configuration is kept): each step re-arbitrates only
    /// the applications whose request moved by at least `tolerance`
    /// (largest relative field movement) since they were last arbitrated,
    /// plus everything the dirty set names — fresh registrations,
    /// retirements, health transitions, and the whole-fleet invalidation
    /// of a budget change. Clean applications hold their award and
    /// skip the decide stage; steady apps with no fresh report skip
    /// re-observation too, paying nothing at all for the quantum.
    ///
    /// Tolerance `0.0` — the default — marks every app dirty every quantum,
    /// so every step is exactly the full fold.
    ///
    /// # Panics
    ///
    /// Panics unless the tolerance is finite and non-negative
    /// ([`Self::set_schedule`] reports the same condition as an error).
    pub fn with_arbitration_tolerance(mut self, tolerance: f64) -> Self {
        let schedule = ArbitrationSchedule {
            tolerance,
            ..self.schedule()
        };
        if let Err(err) = self.set_schedule(schedule) {
            panic!("{err}");
        }
        self
    }

    /// Enables the **event-driven wake scheduler** on top of incremental
    /// arbitration (the schedule's tolerance is kept): an application
    /// whose request has stayed inside the arbitration tolerance for
    /// [`WakeConfig::steady_quanta`] consecutive quanta is put to sleep for
    /// up to [`WakeConfig::horizon`] quanta. A sleeping app is skipped by
    /// *every* per-app stage — not observed, not classified, not decided;
    /// its held award simply stands — so the step cost scales with the
    /// awake set instead of the fleet, and each slept quantum lands in
    /// [`obs::Counter::AppsSlept`] (keeping
    /// `slept + skipped + rearbitrated + decided` a partition of active
    /// app-quanta).
    ///
    /// Sleepers wake early on every event the incremental engine's
    /// invalidation rules name: [`Self::retire`] (the only way an app's
    /// presence changes), a watchdog health transition, or the whole-fleet
    /// invalidation of a budget change (no app sleeps through an envelope
    /// change). A newly registered app is awake from its first step.
    /// Otherwise the sleep deadline expires after `horizon` quanta and the
    /// app re-enters the fold. Reports delivered through [`Self::advance`]
    /// while asleep do *not* wake the app; they stay pending and re-enroll
    /// it into observation the quantum it wakes.
    ///
    /// Sleep rides on the engine's steady/dirty classification, so at
    /// tolerance 0 (where every app is dirty every quantum) nothing ever
    /// sleeps. Horizon 0 ([`WakeConfig::OFF`]) disables scheduling and is
    /// bit-identical to no wake configuration at every worker count
    /// (pinned by `tests/incremental_props.rs`).
    pub fn with_wake_schedule(mut self, config: WakeConfig) -> Self {
        let schedule = ArbitrationSchedule {
            wake: config,
            ..self.schedule()
        };
        self.set_schedule(schedule)
            .expect("the schedule's tolerance was already validated");
        self
    }

    /// Replaces the arbitration schedule (see
    /// [`Self::with_arbitration_tolerance`] and [`Self::with_wake_schedule`]
    /// for what each value does). Any change restarts the engine as a
    /// fresh one would start: held awards are discarded, every sleeper
    /// wakes, and the next step
    /// re-arbitrates every present app (retired apps stay out of every
    /// walk). Setting the current schedule again is a no-op.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidTolerance`] for a NaN, infinite, or negative
    /// tolerance; the schedule is left unchanged.
    pub fn set_schedule(&mut self, schedule: ArbitrationSchedule) -> Result<(), ScheduleError> {
        schedule.validate()?;
        if schedule != self.schedule() {
            self.arbiter.set_schedule(schedule);
        }
        Ok(())
    }

    /// The arbitration schedule every step runs under.
    pub fn schedule(&self) -> ArbitrationSchedule {
        self.arbiter.schedule()
    }

    /// Registers an application — its arrival — and returns its handle.
    /// May be called at any point of the run: the app is present, and
    /// takes part in arbitration, from the next [`Self::step`] until it is
    /// [retired](Self::retire). Its [`Self::awards`] entry exists from
    /// here on and reads 0 W until that step.
    ///
    /// With [`Self::with_admission_control`] enabled, a registration after
    /// the first step is immediately decided under a zero powerup cap — the
    /// cheapest-configuration landing that keeps its first quantum from
    /// executing under pre-arrival awards. Decision errors (e.g. a missing
    /// goal) are ignored: admission is best-effort, the next step decides
    /// properly.
    pub fn register(&mut self, mut app: ManagedApp) -> AppHandle {
        if self.admission_control && self.quantum > 0 {
            let observation = app.monitor.observation();
            let _ = app
                .runtime
                .decide_under_power_cap(self.last_now, &observation, 0.0);
        }
        self.record(Some(Counter::Registrations), || EventKind::Register {
            app: app.name().to_string(),
        });
        if let Some(committed) = &mut self.committed_floors {
            *committed += committed_floor_watts(&app);
        }
        self.rows.push(HotRow::new(app.driver.emitted_beats()));
        self.apps.push(app);
        // The engine holds the present list every walk reads: the newcomer
        // is on it from now, not from its first step.
        self.arbiter.ensure_capacity(self.apps.len());
        AppHandle(self.apps.len() - 1)
    }

    /// [`Self::register`] behind the admission feasibility pre-check:
    /// rejects a registrant whose launch-configuration power floor does
    /// not fit in the cap headroom left by resident apps' floors (see
    /// [`Self::with_admission_feasibility`]; with the check disabled, this
    /// never rejects). Registrants whose nominal power is still unknown
    /// (no hint, no samples) have a 0 W floor and always fit.
    ///
    /// # Errors
    ///
    /// Returns the [`AdmissionError`] describing the infeasible floor; the
    /// refused app is dropped and an
    /// [`obs::EventKind::AdmissionRejected`] event is raised.
    pub fn try_register(&mut self, app: ManagedApp) -> Result<AppHandle, AdmissionError> {
        if self.admission_feasibility {
            // The registrant lands at launch power: nothing has decided it
            // under the cap yet.
            let floor = app.nominal_power_watts();
            if floor > 0.0 {
                let committed = match self.committed_floors {
                    Some(committed) => committed,
                    None => {
                        let committed: f64 = present_apps(self.arbiter.present(), &self.apps)
                            .map(|(_, app)| committed_floor_watts(app))
                            .sum();
                        *self.committed_floors.insert(committed)
                    }
                };
                let cap = self.budget_watts * Self::HEADROOM;
                if committed + floor > cap {
                    let error = AdmissionError {
                        app: app.name().to_string(),
                        floor_watts: floor,
                        headroom_watts: (cap - committed).max(0.0),
                    };
                    self.record(None, || EventKind::AdmissionRejected {
                        app: error.app.clone(),
                        floor_watts: error.floor_watts,
                        headroom_watts: error.headroom_watts,
                    });
                    return Err(error);
                }
            }
        }
        Ok(self.register(app))
    }

    /// Retires an application at the current quantum — its departure: it
    /// is absent from the next [`Self::step`] onward (awarded exactly 0 W,
    /// never decides), but stays registered, so its handle, accessors, and
    /// final state remain valid. After that one absent step no walk visits
    /// it again. O(1): the engine drops it from its present list once that
    /// step's round closes. Idempotent: retiring a retired app changes
    /// nothing and records nothing.
    pub fn retire(&mut self, handle: AppHandle) {
        let app = &mut self.apps[handle.0];
        if app.departure.is_some() {
            return;
        }
        app.departure = Some(self.quantum);
        // Zeroed here, not by the absent step's decide walk alone: that
        // walk stops at an app's decision error, and the slot departs
        // after that round whether or not the walk reached it.
        app.awarded_watts = 0.0;
        self.rows[handle.0].settled = false;
        self.arbiter.retire(handle.0);
        self.committed_floors = None;
        self.record(Some(Counter::Retirements), || EventKind::Retire {
            app: self.apps[handle.0].name().to_string(),
        });
    }

    /// Replaces the machine power budget (takes effect next step) — the
    /// mid-run "budget step" of operator- or rack-level power management.
    ///
    /// # Panics
    ///
    /// Panics unless the budget is positive (it may be infinite, as in
    /// [`Self::new`]).
    pub fn set_budget(&mut self, budget_watts: f64) {
        self.set_budget_quiet(budget_watts);
        self.record(Some(Counter::BudgetChanges), || EventKind::BudgetChange {
            watts: budget_watts,
        });
    }

    /// [`Self::set_budget`] without the telemetry event — for per-quantum
    /// envelope renewals (a rack re-applying its datacenter award every
    /// step) that would otherwise flood the event stream with non-changes.
    pub(crate) fn set_budget_quiet(&mut self, budget_watts: f64) {
        assert!(budget_watts > 0.0, "power budget must be positive");
        self.budget_watts = budget_watts;
        // A new budget invalidates every held award: the water level and
        // clearing price are functions of the budget.
        self.arbiter.mark_all_dirty();
    }

    /// Number of registered applications (present or not).
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether no application is registered.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// The next shared quantum index [`Self::step`] will run.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// The machine power budget being arbitrated, in watts.
    pub fn budget_watts(&self) -> f64 {
        self.budget_watts
    }

    /// The active arbitration policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The application behind `handle`.
    pub fn app(&self, handle: AppHandle) -> &ManagedApp {
        &self.apps[handle.0]
    }

    /// Every registered application, in registration order.
    pub fn apps(&self) -> &[ManagedApp] {
        &self.apps
    }

    /// The watt envelope of every registered app, one entry per app in
    /// registration order: the award of the most recent step it took part
    /// in (held through the quanta it slept), exactly 0 W once it has
    /// departed, and 0 W from [`Self::register`] until its first step —
    /// as [`ManagedApp::awarded_watts`] reads before its first step.
    pub fn awards(&self) -> &[f64] {
        self.arbiter.awards()
    }

    /// Folds the whole fleet's state into one machine-level [`AppRequest`]
    /// for the quantum [`Self::step`] will run next — what a
    /// [`crate::DatacenterArbiter`] arbitrates *between* coordinators, so
    /// budget can flow datacenter → rack → app through the same
    /// [`ArbitrationPolicy`] trait at both levels:
    ///
    /// * `active` — whether any application is present this quantum;
    /// * `weight` — the sum of present applications' weights (a rack full
    ///   of high-priority apps outweighs one full of batch jobs);
    /// * `urgency` — the weight-weighted mean of present applications'
    ///   heartbeat-gap urgencies;
    /// * `max_power_watts` — the sum of present applications' absorption
    ///   ceilings (water-filling at the datacenter level then returns a
    ///   rack's surplus to racks that can still use it).
    ///
    /// Observes the live apps (one lock per app, same snapshot `step` would
    /// take; the warmed buffers are reused by the following `step`, whose
    /// own observation of an unchanged fleet yields identical values).
    /// Deterministic: the folds run in registration order.
    pub fn fleet_request(&mut self) -> AppRequest {
        let quantum = self.quantum;
        let budget = self.budget_watts;
        self.grow_rows();
        for (index, app) in present_apps(self.arbiter.present(), &self.apps) {
            self.observations[index] = app.monitor.observation();
            self.requests[index] = request_for(app, &self.observations[index], quantum, budget);
        }
        let requests = &self.requests;
        aggregate_requests(
            present_apps(self.arbiter.present(), &self.apps).map(|(index, _)| &requests[index]),
        )
    }

    /// Grows the observation and request rows to one per registered app;
    /// a new row is overwritten before anything reads it.
    fn grow_rows(&mut self) {
        let fleet = self.apps.len();
        self.observations
            .resize(fleet, MonitorObservation::default());
        self.requests.resize(
            fleet,
            AppRequest {
                active: false,
                weight: 1.0,
                urgency: 1.0,
                max_power_watts: 0.0,
            },
        );
    }

    /// Runs one coordinated quantum at simulation time `now`:
    /// observe the fleet, arbitrate the budget, and let every present app
    /// decide under its envelope. Advances the shared quantum counter.
    ///
    /// The per-application stages shard across the attached worker pool
    /// (see [`Self::with_pool`], once the participant list reaches the
    /// shard threshold); the output is bit-identical at every worker count (see
    /// the type-level sharding notes).
    ///
    /// # Errors
    ///
    /// Propagates the decision error of the lowest-indexed failing app
    /// (e.g. [`SeecError::NoGoal`] for an app without a performance goal).
    /// Apps whose decisions had already been applied when the error
    /// surfaced keep them — with more than one worker that may include
    /// apps at higher indices than the failing one.
    pub fn step(&mut self, now: f64) -> Result<StepSummary, SeecError> {
        let quantum = self.quantum;
        self.last_now = now;
        // Telemetry: the clock exists only when a recorder is attached, so
        // the disabled step never touches `Instant::now`.
        let observer = self.observer.clone();
        let mut clock = observer.as_ref().map(|_| StageClock::start());
        let fleet = self.apps.len();
        // Decisions and power estimates move below: the cached feasibility
        // sum is stale from here on.
        self.committed_floors = None;

        // ---- Round open: the participant list ------------------------
        // The engine opens the round — drops last round's departures,
        // drains expired sleep deadlines, merges pending wakes
        // (retirements among them) — and its list (every present slot plus
        // this round's departures, unless apps sleep) is what every per-app
        // stage below iterates instead of the fleet. The pool only engages
        // from the shard threshold of participants up.
        let participants = self.arbiter.begin_round(fleet).len();
        let pool = self
            .pool
            .clone()
            .filter(|_| participants >= self.shard_threshold);

        // ---- Observe + build requests (per-app, sharded) ------------
        // Event-driven observation skipping (positive tolerance only): a
        // participant that was clean at the last round and has reported
        // nothing since already holds a current observation and request —
        // it pays nothing for the quantum. Any report, lifecycle event, or
        // fleet-wide invalidation re-enrolls it. Slots registered since the
        // last step only grow the buffers: they are never steady, so the
        // filter enrolls them. Presence needs no check of its own: it only
        // changes at `retire`, whose mark keeps the slot off steady until a
        // round has observed it absent. Sleepers are not observed; one the
        // watchdog wakes mid-round gets a late observation in the watchdog
        // loop below.
        let budget = self.budget_watts;
        self.grow_rows();
        self.observe_list.clear();
        let (arbiter, rows) = (&self.arbiter, &self.rows);
        self.observe_list
            .extend(arbiter.awake_slots().iter().copied().filter(|&index| {
                let index = index as usize;
                rows[index].fresh || !arbiter.steady(index)
            }));
        walk_list(
            pool.as_deref(),
            &self.observe_list,
            &mut self.apps,
            &mut self.observations,
            &mut self.requests,
            &mut self.rows,
            |_, app, observation, request, _| {
                *observation = app.monitor.observation();
                *request = request_for(app, observation, quantum, budget);
                Ok(())
            },
        )?;
        if let (Some(observer), Some(clock)) = (&observer, clock.as_mut()) {
            observer.add(Counter::AppsObserved, self.observe_list.len() as u64);
            observer.time(Stage::Observe, clock.lap());
        }

        // ---- Watchdog (sequential, registration order) --------------
        // Runs between request building and arbitration so quarantine
        // rewrites are part of the same fold every policy sees. Walks the
        // engine's present list, sleepers included (retired apps are not
        // judged). With no watchdog configured this is a no-op branch,
        // keeping the step bit-identical to a pre-watchdog build. A settled
        // slot whose pass is the ladder's fixed point — the common case —
        // is booked from its hot row and request alone; every other slot
        // runs the full ladder on its app.
        if let Some(config) = self.watchdog {
            let mut late_observed = 0;
            // By position: a transition marks its slot dirty, which only
            // touches the engine's wake state, never the present list.
            for position in 0..self.arbiter.present().len() {
                let index = self.arbiter.present()[position] as usize;
                let (row, request) = (&mut self.rows[index], &mut self.requests[index]);
                if row.pass_settled(request, &config) {
                    continue;
                }
                let (app, observation) = (&mut self.apps[index], &mut self.observations[index]);
                if app.departure.is_some() {
                    continue;
                }
                let before = app.health.state;
                let first_quarantine = app.health.quarantined_at.is_none();
                watchdog_app(app, row, request, &config, quantum);
                let after = app.health.state;
                if after == before {
                    continue;
                }
                // A ladder move re-enters the app into the arbitration
                // fold: quarantine rewrote its request, readmission
                // restored it.
                self.arbiter.mark_dirty(index);
                // Late observation: a slot the observe stage skipped (a
                // sleeper, or a steady participant) enters the fold and
                // decides on a current snapshot, its request rebuilt from
                // it (so a readmission drops the floor) and re-floored
                // while quarantined.
                if self.observe_list.binary_search(&(index as u32)).is_err() {
                    *observation = app.monitor.observation();
                    *request = request_for(app, observation, quantum, budget);
                    if after == HealthState::Quarantined {
                        quarantine_floor(request, &config);
                    }
                    late_observed += 1;
                }
                // Ladder telemetry, raised from this sequential loop only:
                // first-time quarantines match the figure summaries'
                // `quarantined_apps` (an app re-quarantined after
                // readmission counts once), readmissions count every time.
                if let Some(observer) = &observer {
                    if after == HealthState::Quarantined && first_quarantine {
                        observer.count(Counter::Quarantines);
                    }
                    if after == HealthState::Readmitted {
                        observer.count(Counter::Readmissions);
                    }
                    observer.emit(Event {
                        quantum: quantum as u64,
                        kind: EventKind::HealthTransition {
                            app: app.name().to_string(),
                            index: index as u64,
                            from: format!("{before:?}"),
                            to: format!("{after:?}"),
                        },
                    });
                }
            }
            if let Some(observer) = &observer {
                observer.add(Counter::AppsObserved, late_observed);
            }
        }

        // ---- Arbitrate (sequential deterministic fold) --------------
        // The engine re-arbitrates only the round's dirty set against the
        // residual budget; at tolerance 0 every present app is dirty and
        // the awards are byte-for-byte the plain full fold's.
        let outcome = self.arbiter.arbitrate(
            self.policy.as_mut(),
            self.budget_watts * Self::HEADROOM,
            &self.requests,
        );

        if let (Some(observer), Some(clock)) = (&observer, clock.as_mut()) {
            observer.time(Stage::Arbitrate, clock.lap());
            // Sleeping-through-the-round apps are counted once per step
            // from the engine's ledger — not per slot, since no per-app
            // stage ever visits them — so the decide ledger
            // (slept + skipped + rearbitrated + decided) still partitions
            // every active app-quantum exactly once.
            if outcome.slept > 0 {
                observer.add(Counter::AppsSlept, outcome.slept as u64);
            }
            // Awards changed vs held: bit-for-bit comparison of each
            // present participant's fresh award against the envelope it
            // executed the previous quantum under (recorded by the decide
            // stage). Slots that slept through the round hold their award
            // bit for bit, so they are booked held without a visit; this
            // round's new sleepers are still on the list and are not.
            let mut changed = 0;
            let mut held = outcome.slept as u64;
            let awards = self.arbiter.awards();
            for &index in self.arbiter.awake_slots() {
                let (app, award) = (&self.apps[index as usize], awards[index as usize]);
                if !app.active_at(quantum) {
                    continue;
                }
                if award.to_bits() == app.awarded_watts.to_bits() {
                    held += 1;
                } else {
                    changed += 1;
                }
            }
            observer.add(Counter::AwardsChanged, changed);
            observer.add(Counter::AwardsHeld, held);
        }

        // ---- Decide under the envelopes (per-app, sharded) ----------
        // Walks the engine's participant list, re-read after arbitration
        // so mid-round wakes (watchdog health transitions) are decided too;
        // sleeping slots are never visited, their held award and previous
        // decision stand. At a positive tolerance the dirty mask rides
        // along: clean apps skip the whole decide quantum. The award and
        // the nominal-power estimate move only here (and at registration
        // and retirement), so the walk rewrites a visited slot's cached
        // overdraw envelope while the app is hot — on error too, since a
        // failed decision may already have moved either — unless the slot
        // skips its decision and keeps its award bit for bit, which moves
        // neither.
        let awards = self.arbiter.awards();
        let dirty = (self.schedule().tolerance > 0.0).then(|| self.arbiter.dirty_mask());
        let decide_observer = observer.as_deref();
        let floor = self.watchdog.map(|config| config.quarantine_floor_watts);
        walk_list(
            pool.as_deref(),
            self.arbiter.awake_slots(),
            &mut self.apps,
            &mut self.observations,
            &mut self.requests,
            &mut self.rows,
            |index, app, observation, _, row| {
                let dirty = dirty.map(|dirty| dirty[index]);
                let held =
                    dirty == Some(false) && app.awarded_watts.to_bits() == awards[index].to_bits();
                let result = decide_one(
                    app,
                    observation,
                    awards[index],
                    dirty,
                    now,
                    quantum,
                    decide_observer,
                );
                if let (Some(floor), false) = (floor, held) {
                    row.envelope = overdraw_envelope(app, floor);
                }
                result
            },
        )?;

        // ---- Summarise (sequential, fixed order) --------------------
        // The awarded-watts total is folded over the present apps in
        // registration order whatever the worker count, so the summary is
        // part of the bit-identity guarantee rather than an exception to
        // it. After the round the engine's present list is exactly the
        // apps not retired: this round's departures left it as the round
        // closed, and nothing retires mid-step.
        if let (Some(observer), Some(clock)) = (&observer, clock.as_mut()) {
            observer.time(Stage::Decide, clock.lap());
        }
        let (present, awards) = (self.arbiter.present(), self.arbiter.awards());
        let active_apps = present.len();
        let mut awarded_total = 0.0;
        for &index in present {
            awarded_total += awards[index as usize];
        }

        // The report-freshness flags describe "since the last step"; this
        // step consumed the participants' flags. A report delivered to a
        // *sleeping* slot stays pending, so the wake quantum re-enrolls it
        // into observation.
        for &index in self.arbiter.awake_slots() {
            self.rows[index as usize].fresh = false;
        }

        self.quantum += 1;
        if let (Some(observer), Some(clock)) = (&observer, clock.as_mut()) {
            observer.time(Stage::Summarise, clock.lap());
            observer.time(Stage::Step, clock.total());
            observer.count(Counter::QuantaStepped);
            observer.observe_fleet_size(active_apps as u64);
        }
        Ok(StepSummary {
            quantum,
            active_apps,
            awarded_watts_total: awarded_total,
        })
    }

    /// Advances the shared quantum counter without deciding — used by the
    /// datacenter arbiter to keep a rack whose step failed in lockstep
    /// with the racks that succeeded (the failing rack simply takes no new
    /// decisions for that quantum).
    pub(crate) fn skip_quantum(&mut self) {
        self.quantum += 1;
    }

    /// Feeds one quantum's outcome back to an application: the platform
    /// completed `work_units` of its work over `[start, end]` while the app
    /// drew `power_above_idle_watts`. Beats are stamped at interpolated
    /// times with one power sample each
    /// ([`HeartbeatedWorkload::advance_metered`]), so the runtime's window
    /// rates are unbiased and its power horizon matches the beat window.
    pub fn advance(
        &mut self,
        handle: AppHandle,
        start: f64,
        end: f64,
        work_units: f64,
        power_above_idle_watts: f64,
    ) {
        let (app, row) = (&mut self.apps[handle.0], &mut self.rows[handle.0]);
        // Remember the raw report for the watchdog: the driver clamps NaN
        // work to 0 and the power estimator rejects non-finite samples, so
        // the *sanitised* path never sees what the app actually claimed.
        row.work = work_units;
        row.power = power_above_idle_watts;
        row.reported = true;
        row.fresh = true;
        app.driver
            .advance_metered(start, end, work_units, power_above_idle_watts);
        row.beats = app.driver.emitted_beats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PerformanceMarket, StaticShare, WeightedFair};
    use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
    use seec::ExplorationPolicy;
    use workloads::{SplashBenchmark, Workload};

    /// A small action space whose declared effects the synthetic platform
    /// mirrors exactly: DVFS x cores, speedups 0.5..6x, powers 0.4..5.2x.
    fn actuators() -> Vec<Box<dyn actuation::Actuator>> {
        let dvfs = ActuatorSpec::builder("dvfs")
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
            .unwrap();
        let cores = ActuatorSpec::builder("cores")
            .setting(SettingSpec::new("1"))
            .setting(
                SettingSpec::new("2")
                    .effect(Axis::Performance, 1.9)
                    .effect(Axis::Power, 2.0),
            )
            .build()
            .unwrap();
        vec![
            Box::new(TableActuator::new(dvfs)),
            Box::new(TableActuator::new(cores)),
        ]
    }

    fn managed_app(benchmark: SplashBenchmark, seed: u64, target: f64) -> ManagedApp {
        let driver = HeartbeatedWorkload::new(Workload::new(benchmark, seed));
        driver.set_heart_rate_goal(target);
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(actuators())
            .exploration(ExplorationPolicy {
                epsilon: 0.0,
                ..ExplorationPolicy::default()
            })
            .seed(seed)
            .build()
            .unwrap();
        ManagedApp::new(driver, runtime).with_nominal_power_hint(10.0)
    }

    /// Drives `coordinator` for `ticks` quanta against a platform whose
    /// true behaviour mirrors each app's declared effects exactly (nominal
    /// rate 10 beats/s, nominal power 10 W), returning the machine power of
    /// the final tick.
    fn drive(coordinator: &mut Coordinator, handles: &[AppHandle], ticks: usize) -> Vec<f64> {
        let mut now = 0.0;
        let mut final_powers = Vec::new();
        for _ in 0..ticks {
            now += 1.0;
            final_powers.clear();
            for &handle in handles {
                if !coordinator.app(handle).active_at(coordinator.quantum()) {
                    final_powers.push(0.0);
                    continue;
                }
                let effect = {
                    let runtime = coordinator.app(handle).runtime();
                    runtime
                        .model()
                        .table()
                        .declared_effect(runtime.current_config_id())
                };
                let rate = 10.0 * effect.performance;
                let power = 10.0 * effect.power;
                coordinator.advance(handle, now - 1.0, now, rate, power);
                final_powers.push(power);
            }
            coordinator.step(now).unwrap();
        }
        final_powers
    }

    /// [`drive`] with a caller-held clock, so a test can interleave driving
    /// with lifecycle calls without resetting simulated time (heartbeat
    /// timestamps must stay monotonic across the whole run).
    fn drive_from(
        coordinator: &mut Coordinator,
        handles: &[AppHandle],
        ticks: usize,
        now: &mut f64,
    ) {
        for _ in 0..ticks {
            *now += 1.0;
            for &handle in handles {
                if !coordinator.app(handle).active_at(coordinator.quantum()) {
                    continue;
                }
                let effect = {
                    let runtime = coordinator.app(handle).runtime();
                    runtime
                        .model()
                        .table()
                        .declared_effect(runtime.current_config_id())
                };
                coordinator.advance(
                    handle,
                    *now - 1.0,
                    *now,
                    10.0 * effect.performance,
                    10.0 * effect.power,
                );
            }
            coordinator.step(*now).unwrap();
        }
    }

    #[test]
    fn registration_and_accessors() {
        let mut coordinator = Coordinator::new(100.0, Box::new(StaticShare));
        assert!(coordinator.is_empty());
        let handle = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 20.0));
        assert_eq!(coordinator.len(), 1);
        assert_eq!(handle.index(), 0);
        assert_eq!(coordinator.app(handle).name(), "barnes");
        assert_eq!(coordinator.app(handle).weight(), 1.0);
        assert_eq!(coordinator.policy_name(), "static-share");
        assert!(format!("{coordinator:?}").contains("Coordinator"));
        assert!(format!("{:?}", coordinator.app(handle)).contains("barnes"));
    }

    #[test]
    fn admission_feasibility_refuses_a_launch_storm_past_the_cap() {
        // Each test app hints 10 W of launch power; under a 25 W budget the
        // headroomed cap is 23.75 W, so two landers fit and the third's
        // 30 W committed landing transient is refused.
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(25.0, Box::new(StaticShare))
            .with_admission_feasibility(true)
            .with_obs(Arc::clone(&recorder));
        coordinator
            .try_register(managed_app(SplashBenchmark::Barnes, 1, 20.0))
            .unwrap();
        coordinator
            .try_register(managed_app(SplashBenchmark::Volrend, 2, 20.0))
            .unwrap();
        let error = coordinator
            .try_register(managed_app(SplashBenchmark::Raytrace, 3, 20.0))
            .unwrap_err();
        assert_eq!(coordinator.len(), 2, "the refused app is dropped");
        assert_eq!(error.floor_watts, 10.0);
        assert!((error.headroom_watts - 3.75).abs() < 1e-9);
        assert!(error.to_string().contains("admission rejected"));
        let events = recorder.snapshot().events;
        assert!(
            events.iter().any(|event| matches!(
                &event.kind,
                EventKind::AdmissionRejected { app, floor_watts, .. }
                    if app == &error.app && *floor_watts == 10.0
            )),
            "a rejection event reaches the stream: {events:?}"
        );
    }

    #[test]
    fn decided_residents_commit_their_squeezed_floor_not_launch_power() {
        let mut coordinator =
            Coordinator::new(25.0, Box::new(WeightedFair)).with_admission_feasibility(true);
        let first = coordinator
            .try_register(managed_app(SplashBenchmark::Barnes, 1, 20.0))
            .unwrap();
        let second = coordinator
            .try_register(managed_app(SplashBenchmark::Volrend, 2, 20.0))
            .unwrap();
        // Both residents still face their landing quantum, so they commit
        // 20 W of launch transient and the third lander is refused.
        assert!(coordinator
            .try_register(managed_app(SplashBenchmark::Raytrace, 3, 20.0))
            .is_err());
        // One decided quantum later the platform can squeeze them to their
        // cheapest floors (10 W × 0.4 each): 8 + 10 W now fits the cap.
        drive(&mut coordinator, &[first, second], 1);
        assert!(coordinator
            .try_register(managed_app(SplashBenchmark::Raytrace, 3, 20.0))
            .is_ok());
    }

    #[test]
    fn feasibility_disabled_or_unknown_floors_always_admit() {
        // Disabled pre-check: the same storm sails through try_register.
        let mut unchecked = Coordinator::new(25.0, Box::new(StaticShare));
        for (benchmark, seed) in [
            (SplashBenchmark::Barnes, 1),
            (SplashBenchmark::Volrend, 2),
            (SplashBenchmark::Raytrace, 3),
        ] {
            unchecked
                .try_register(managed_app(benchmark, seed, 20.0))
                .unwrap();
        }
        assert_eq!(unchecked.len(), 3);
        // Enabled, but a registrant whose nominal power is unknown has a
        // 0 W floor and always fits, however full the machine.
        let mut checked =
            Coordinator::new(25.0, Box::new(StaticShare)).with_admission_feasibility(true);
        checked
            .try_register(managed_app(SplashBenchmark::Barnes, 1, 20.0))
            .unwrap();
        checked
            .try_register(managed_app(SplashBenchmark::Volrend, 2, 20.0))
            .unwrap();
        checked
            .try_register(
                managed_app(SplashBenchmark::Raytrace, 3, 20.0).with_nominal_power_hint(0.0),
            )
            .unwrap();
        assert_eq!(checked.len(), 3);
    }

    #[test]
    fn step_keeps_believed_power_inside_the_budget() {
        // Three greedy apps (targets far beyond reach) on a 30 W budget:
        // flat out they would draw 3 x 52 W. After warm-up, the believed
        // power of every applied configuration must fit the awards, which
        // conserve the (headroomed) budget.
        let mut coordinator = Coordinator::new(30.0, Box::new(WeightedFair));
        let handles: Vec<AppHandle> = (0..3)
            .map(|i| {
                coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 1000.0))
            })
            .collect();
        drive(&mut coordinator, &handles, 30);
        let awards_total: f64 = coordinator.awards().iter().sum();
        assert!(
            awards_total <= 30.0 * 0.95 + 1e-9,
            "awards {awards_total} must conserve the headroomed budget"
        );
        for &handle in &handles {
            let app = coordinator.app(handle);
            let decision = app.last_decision().unwrap();
            let believed_watts = decision.believed_powerup * app.nominal_power_watts();
            assert!(
                believed_watts <= app.awarded_watts() * 1.05 + 1e-9,
                "app {} believed draw {believed_watts} vs award {}",
                app.name(),
                app.awarded_watts()
            );
        }
    }

    #[test]
    fn registration_is_arrival_and_retirement_is_departure() {
        let mut coordinator = Coordinator::new(100.0, Box::new(StaticShare));
        let resident = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 15.0));
        let mut visitor = None;
        let mut now = 0.0;
        for tick in 0..15 {
            if tick == 5 {
                visitor =
                    Some(coordinator.register(managed_app(SplashBenchmark::Volrend, 2, 15.0)));
            }
            if tick == 10 {
                coordinator.retire(visitor.unwrap());
            }
            now += 1.0;
            let summary = coordinator.step(now).unwrap();
            assert_eq!(summary.quantum, tick);
            let expected = if (5..10).contains(&tick) { 2 } else { 1 };
            assert_eq!(summary.active_apps, expected, "tick {tick}");
            if let Some(visitor) = visitor {
                let award = coordinator.app(visitor).awarded_watts();
                assert_eq!(award > 0.0, tick < 10, "tick {tick}: visitor award {award}");
            }
        }
        assert!(coordinator.app(resident).active_at(14));
        assert!(!coordinator.app(visitor.unwrap()).active_at(10));
        assert_eq!(coordinator.quantum(), 15);
    }

    #[test]
    fn higher_priority_gets_the_bigger_envelope() {
        let mut coordinator = Coordinator::new(40.0, Box::new(PerformanceMarket::default()));
        let light = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 1000.0));
        let heavy = coordinator
            .register(managed_app(SplashBenchmark::Raytrace, 2, 1000.0).with_weight(4.0));
        let handles = [light, heavy];
        drive(&mut coordinator, &handles, 20);
        assert!(
            coordinator.app(heavy).awarded_watts() > coordinator.app(light).awarded_watts(),
            "heavy {} vs light {}",
            coordinator.app(heavy).awarded_watts(),
            coordinator.app(light).awarded_watts()
        );
    }

    #[test]
    fn sharded_step_is_bit_identical_to_sequential() {
        // The same five-app fleet driven under 1, 2, 3, and 7 workers must
        // produce byte-for-byte the same awards, decisions, and summaries
        // every tick (the full property version lives in
        // tests/lifecycle_props.rs).
        let run = |workers: usize| {
            let mut coordinator = Coordinator::new(40.0, Box::new(WeightedFair))
                .with_pool(Arc::new(ExecPool::new(workers)))
                .with_shard_threshold(0);
            let handles: Vec<AppHandle> = (0..5)
                .map(|i| {
                    coordinator.register(
                        managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 1000.0)
                            .with_weight(1.0 + i as f64),
                    )
                })
                .collect();
            let mut now = 0.0;
            let mut trace = Vec::new();
            for _ in 0..20 {
                now += 1.0;
                for &handle in &handles {
                    let effect = {
                        let runtime = coordinator.app(handle).runtime();
                        runtime
                            .model()
                            .table()
                            .declared_effect(runtime.current_config_id())
                    };
                    coordinator.advance(
                        handle,
                        now - 1.0,
                        now,
                        10.0 * effect.performance,
                        10.0 * effect.power,
                    );
                }
                let summary = coordinator.step(now).unwrap();
                trace.push((
                    summary,
                    coordinator.awards().to_vec(),
                    handles
                        .iter()
                        .map(|&h| coordinator.app(h).last_decision())
                        .collect::<Vec<_>>(),
                ));
            }
            trace
        };
        let sequential = run(1);
        for workers in [2, 3, 7] {
            assert_eq!(sequential, run(workers), "workers = {workers}");
        }
    }

    #[test]
    fn shards_split_a_skewed_list_into_equal_counts() {
        // Arrivals append and early slots retire, so a churning fleet's
        // list bunches up at high slots: here one early survivor and a
        // dense tail of 11 of 40 slots.
        let fleet = 40;
        let mut apps: Vec<ManagedApp> = (0..fleet)
            .map(|i| managed_app(SplashBenchmark::ALL[i % 4], i as u64 + 1, 10.0))
            .collect();
        let mut observations = vec![MonitorObservation::default(); fleet];
        let mut requests = vec![
            AppRequest {
                active: true,
                weight: 1.0,
                urgency: 1.0,
                max_power_watts: 1.0,
            };
            fleet
        ];
        let mut rows = vec![HotRow::new(0); fleet];
        let list: Vec<u32> = std::iter::once(3).chain(29..40).collect();
        for runs in [2, 3, 5, 12, 64] {
            let shards = shards(
                &list,
                runs,
                &mut apps,
                &mut observations,
                &mut requests,
                &mut rows,
            );
            let lengths: Vec<usize> = shards.iter().map(|shard| shard.list.len()).collect();
            assert_eq!(
                shards.len(),
                runs.min(list.len()),
                "{runs} runs: {lengths:?}"
            );
            let (shortest, longest) = (lengths.iter().min(), lengths.iter().max());
            assert!(
                longest.unwrap() - shortest.unwrap() <= 1,
                "{runs} runs: {lengths:?}"
            );
            // The runs cover the list in order, each inside its own rows,
            // and the rows tile the fleet.
            let walked: Vec<u32> = shards
                .iter()
                .flat_map(|shard| shard.list.to_vec())
                .collect();
            assert_eq!(walked, list);
            let mut base = 0;
            for shard in &shards {
                assert_eq!(shard.base, base);
                assert_eq!(shard.observations.len(), shard.apps.len());
                assert_eq!(shard.requests.len(), shard.apps.len());
                assert_eq!(shard.rows.len(), shard.apps.len());
                assert!(shard
                    .list
                    .iter()
                    .all(|&index| (base..base + shard.apps.len()).contains(&(index as usize))));
                base += shard.apps.len();
            }
            assert_eq!(base, fleet);
        }
    }

    #[test]
    fn retire_makes_an_app_absent_from_the_next_step() {
        let mut coordinator = Coordinator::new(100.0, Box::new(StaticShare));
        let resident = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 15.0));
        let doomed = coordinator.register(managed_app(SplashBenchmark::Volrend, 2, 15.0));
        for tick in 0..3 {
            let summary = coordinator.step(tick as f64 + 1.0).unwrap();
            assert_eq!(summary.active_apps, 2);
        }
        coordinator.retire(doomed);
        let summary = coordinator.step(4.0).unwrap();
        assert_eq!(summary.active_apps, 1);
        assert_eq!(coordinator.app(doomed).awarded_watts(), 0.0);
        assert!(coordinator.app(resident).active_at(coordinator.quantum()));
        assert!(
            !coordinator.app(doomed).active_at(3),
            "absent from its retirement quantum"
        );
        assert!(coordinator.app(doomed).active_at(2), "present before it");
    }

    #[test]
    fn a_retired_app_reads_zero_watts_even_when_its_absent_step_fails() {
        // The absent step's decide walk stops at the first decision error,
        // and the retired slot leaves every walk after that round anyway:
        // its envelope must read 0 W from the retirement on.
        let mut coordinator = Coordinator::new(100.0, Box::new(StaticShare));
        let failing = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 15.0));
        let doomed = coordinator.register(managed_app(SplashBenchmark::Volrend, 2, 15.0));
        for tick in 0..3 {
            coordinator.step(tick as f64 + 1.0).unwrap();
        }
        assert!(coordinator.app(doomed).awarded_watts() > 0.0);
        let issuer = coordinator.app(failing).driver().registry().issuer();
        issuer.clear_goal(heartbeats::GoalKind::Performance);
        coordinator.retire(doomed);
        assert!(matches!(coordinator.step(4.0), Err(SeecError::NoGoal)));
        coordinator.app(failing).driver().set_heart_rate_goal(15.0);
        coordinator.step(5.0).unwrap();
        assert_eq!(coordinator.app(doomed).awarded_watts(), 0.0);
        assert_eq!(coordinator.awards()[doomed.index()], 0.0);
    }

    #[test]
    fn a_repeated_retire_is_a_no_op() {
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(100.0, Box::new(StaticShare))
            .with_arbitration_tolerance(0.05)
            .with_obs(Arc::clone(&recorder));
        let resident = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 15.0));
        let doomed = coordinator.register(managed_app(SplashBenchmark::Volrend, 2, 15.0));
        let mut now = 0.0;
        drive_from(&mut coordinator, &[resident, doomed], 2, &mut now);
        coordinator.retire(doomed);
        drive_from(&mut coordinator, &[resident, doomed], 3, &mut now);
        // Two rounds after the retirement the slot is clean again; a
        // second retire must not mark it dirty, re-stamp its departure, or
        // count and emit a second retirement.
        assert!(coordinator.arbiter.steady(doomed.index()));
        coordinator.retire(doomed);
        assert!(
            coordinator.arbiter.steady(doomed.index()),
            "marked dirty again"
        );
        assert!(coordinator.app(doomed).active_at(1));
        assert!(!coordinator.app(doomed).active_at(2));
        assert_eq!(recorder.counter(Counter::Retirements), 1);
        let retires = recorder
            .snapshot()
            .events
            .iter()
            .filter(|event| matches!(event.kind, EventKind::Retire { .. }))
            .count();
        assert_eq!(retires, 1);
    }

    #[test]
    fn mid_run_registration_joins_arbitration_immediately() {
        let mut coordinator = Coordinator::new(60.0, Box::new(WeightedFair))
            .with_pool(Arc::new(ExecPool::new(2)))
            .with_shard_threshold(0);
        let first = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 1000.0));
        let mut now = 0.0;
        for _ in 0..5 {
            now += 1.0;
            coordinator.step(now).unwrap();
        }
        let second =
            coordinator.register(managed_app(SplashBenchmark::OceanNonContiguous, 2, 1000.0));
        now += 1.0;
        let summary = coordinator.step(now).unwrap();
        assert_eq!(summary.active_apps, 2);
        assert!(coordinator.app(second).awarded_watts() > 0.0);
        assert!(coordinator.app(first).awarded_watts() > 0.0);
        assert_eq!(coordinator.len(), 2);
    }

    #[test]
    fn set_budget_steps_the_envelope_pool() {
        let mut coordinator = Coordinator::new(100.0, Box::new(StaticShare));
        coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 1000.0));
        coordinator.register(managed_app(SplashBenchmark::Volrend, 2, 1000.0));
        coordinator.step(1.0).unwrap();
        assert_eq!(coordinator.budget_watts(), 100.0);
        coordinator.set_budget(10.0);
        assert_eq!(coordinator.budget_watts(), 10.0);
        let summary = coordinator.step(2.0).unwrap();
        assert!(
            summary.awarded_watts_total <= 10.0 * 0.95 + 1e-9,
            "stepped budget must bind the very next quantum, awarded {}",
            summary.awarded_watts_total
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_budget_step_panics() {
        let mut coordinator = Coordinator::new(10.0, Box::new(StaticShare));
        coordinator.set_budget(0.0);
    }

    #[test]
    fn fleets_smaller_than_the_pool_still_step() {
        let mut coordinator = Coordinator::new(10.0, Box::new(StaticShare))
            .with_pool(Arc::new(ExecPool::new(8)))
            .with_shard_threshold(0);
        coordinator.step(1.0).unwrap();
        coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 10.0));
        coordinator.step(2.0).unwrap();
        assert_eq!(coordinator.quantum(), 2);
        // An externally shared pool is adopted as-is, at the default
        // threshold; a single-thread pool is dropped (everything inline).
        let shared =
            Coordinator::new(10.0, Box::new(StaticShare)).with_pool(Arc::new(ExecPool::new(3)));
        assert_eq!(shared.pool.as_ref().map(|pool| pool.threads()), Some(3));
        assert_eq!(shared.shard_threshold, Coordinator::DEFAULT_SHARD_THRESHOLD);
        let single =
            Coordinator::new(10.0, Box::new(StaticShare)).with_pool(Arc::new(ExecPool::new(1)));
        assert!(single.pool.is_none());
    }

    #[test]
    fn fleet_request_aggregates_present_apps() {
        let mut coordinator = Coordinator::new(100.0, Box::new(StaticShare));
        // Empty fleet: inactive aggregate with neutral weight/urgency.
        let idle = coordinator.fleet_request();
        assert!(!idle.active);
        assert_eq!(idle.weight, 1.0);
        assert_eq!(idle.urgency, 1.0);
        assert_eq!(idle.max_power_watts, 0.0);

        coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 15.0).with_weight(2.0));
        // Retired before quantum 0: excluded from the fold.
        let gone =
            coordinator.register(managed_app(SplashBenchmark::Volrend, 2, 15.0).with_weight(3.0));
        coordinator.retire(gone);
        let request = coordinator.fleet_request();
        assert!(request.active);
        assert_eq!(request.weight, 2.0);
        // Present app's ceiling: 10 W nominal hint x the space's most
        // expensive declared powerup (2.6 x 2.0).
        assert!((request.max_power_watts - 10.0 * 5.2).abs() < 1e-9);
        assert!(request.urgency >= 1.0);
        // A fleet_request followed by a step must not perturb the step.
        coordinator.step(1.0).unwrap();
        assert_eq!(coordinator.quantum(), 1);
    }

    #[test]
    fn managed_app_shards_across_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<ManagedApp>();
    }

    /// Advances `handle` one quantum with the platform mirroring its
    /// declared effects (nominal 10 beats/s, 10 W), like `drive` does.
    fn advance_honestly(coordinator: &mut Coordinator, handle: AppHandle, now: f64) {
        let effect = {
            let runtime = coordinator.app(handle).runtime();
            runtime
                .model()
                .table()
                .declared_effect(runtime.current_config_id())
        };
        coordinator.advance(
            handle,
            now - 1.0,
            now,
            10.0 * effect.performance,
            10.0 * effect.power,
        );
    }

    #[test]
    fn watchdog_quarantines_a_stalled_app_and_readmits_on_recovery() {
        let config = WatchdogConfig::default();
        let mut coordinator = Coordinator::new(30.0, Box::new(WeightedFair)).with_watchdog(config);
        let handles: Vec<AppHandle> = (0..3)
            .map(|i| {
                coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 1000.0))
            })
            .collect();
        let mut now = 0.0;
        for _ in 0..8 {
            now += 1.0;
            for &handle in &handles {
                advance_honestly(&mut coordinator, handle, now);
            }
            coordinator.step(now).unwrap();
        }
        for &handle in &handles {
            assert_eq!(coordinator.app(handle).health_state(), HealthState::Healthy);
        }

        // App 2's heartbeat pipe wedges: no reports for ten quanta.
        let stall_start = coordinator.quantum();
        for _ in 0..10 {
            now += 1.0;
            for &handle in &handles[..2] {
                advance_honestly(&mut coordinator, handle, now);
            }
            coordinator.step(now).unwrap();
        }
        let stalled = coordinator.app(handles[2]);
        assert_eq!(stalled.health_state(), HealthState::Quarantined);
        let quarantined_at = stalled.quarantined_at().unwrap();
        assert!(
            (stall_start..stall_start + config.stale_beat_quanta + 1).contains(&quarantined_at),
            "quarantined at {quarantined_at}, stall began at {stall_start}"
        );
        assert!(
            stalled.awarded_watts() <= config.quarantine_floor_watts + 1e-9,
            "quarantine pins the floor envelope, got {}",
            stalled.awarded_watts()
        );
        // The reclaimed watts flow to the healthy apps via the normal fold.
        for &handle in &handles[..2] {
            assert!(
                coordinator.app(handle).awarded_watts() > config.quarantine_floor_watts,
                "healthy apps absorb the reclaimed budget"
            );
        }

        // The pipe recovers; after readmit_quanta clean quanta the app is
        // readmitted (cheapest-config draw 4 W fits under the floor seat).
        for _ in 0..(config.readmit_quanta + 2) {
            now += 1.0;
            for &handle in &handles {
                advance_honestly(&mut coordinator, handle, now);
            }
            coordinator.step(now).unwrap();
        }
        let recovered = coordinator.app(handles[2]);
        assert_eq!(recovered.health_state(), HealthState::Readmitted);
        assert!(recovered.readmitted_at().is_some());
    }

    #[test]
    fn watchdog_quarantines_non_finite_telemetry_immediately() {
        let mut coordinator =
            Coordinator::new(30.0, Box::new(WeightedFair)).with_watchdog(WatchdogConfig::default());
        let honest = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 1000.0));
        let liar = coordinator.register(managed_app(SplashBenchmark::Volrend, 2, 1000.0));
        coordinator.step(1.0).unwrap();
        advance_honestly(&mut coordinator, honest, 2.0);
        coordinator.advance(liar, 1.0, 2.0, 10.0, f64::NAN);
        coordinator.step(2.0).unwrap();
        assert_eq!(
            coordinator.app(liar).health_state(),
            HealthState::Quarantined,
            "one NaN report is enough"
        );
        assert_eq!(coordinator.app(liar).quarantined_at(), Some(1));
        assert_eq!(coordinator.app(honest).health_state(), HealthState::Healthy);
    }

    #[test]
    fn a_non_finite_report_time_neither_panics_nor_poisons_the_window() {
        let mut coordinator = Coordinator::new(30.0, Box::new(WeightedFair));
        let app = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 1000.0));
        coordinator.step(1.0).unwrap();
        advance_honestly(&mut coordinator, app, 2.0);
        let monitor = coordinator.app(app).driver().monitor();
        let beats = monitor.stats().total_beats;
        let last = monitor.last_beat_timestamp();
        coordinator.advance(app, f64::NAN, 3.0, 10.0, 5.0);
        coordinator.advance(app, 2.0, f64::INFINITY, 10.0, 5.0);
        assert_eq!(monitor.stats().total_beats, beats);
        assert_eq!(monitor.last_beat_timestamp(), last);
        coordinator.step(3.0).unwrap();
        // Time still only moves forward from the last finite beat.
        advance_honestly(&mut coordinator, app, 3.0);
        assert!(monitor.stats().total_beats > beats);
        assert_eq!(monitor.last_beat_timestamp(), Some(3.0));
    }

    #[test]
    fn the_watchdog_does_not_judge_a_retired_app() {
        // Retired before the step its NaN report would quarantine it in:
        // the slot is still present for that absent round, but the
        // watchdog skips it.
        let mut coordinator =
            Coordinator::new(30.0, Box::new(WeightedFair)).with_watchdog(WatchdogConfig::default());
        let honest = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 1000.0));
        let liar = coordinator.register(managed_app(SplashBenchmark::Volrend, 2, 1000.0));
        coordinator.step(1.0).unwrap();
        advance_honestly(&mut coordinator, honest, 2.0);
        coordinator.advance(liar, 1.0, 2.0, 10.0, f64::NAN);
        coordinator.retire(liar);
        let before = coordinator.app(liar).health_state();
        coordinator.step(2.0).unwrap();
        assert_eq!(coordinator.app(liar).health_state(), before);
        assert_eq!(coordinator.app(liar).quarantined_at(), None);
    }

    #[test]
    fn watchdog_quarantines_persistent_overdraw() {
        let config = WatchdogConfig::default();
        let mut coordinator = Coordinator::new(30.0, Box::new(WeightedFair)).with_watchdog(config);
        let handles: Vec<AppHandle> = (0..3)
            .map(|i| {
                coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 1000.0))
            })
            .collect();
        let mut now = 0.0;
        // Long enough that the overdraw strikes land after the warmup
        // window (strikes only count once the model has had its grace).
        for tick in 0..16 {
            now += 1.0;
            for (slot, &handle) in handles.iter().enumerate() {
                if slot == 0 && tick >= 2 {
                    // A rogue reporting 3x the whole budget, every quantum.
                    coordinator.advance(handle, now - 1.0, now, 10.0, 90.0);
                } else {
                    advance_honestly(&mut coordinator, handle, now);
                }
            }
            coordinator.step(now).unwrap();
        }
        assert_eq!(
            coordinator.app(handles[0]).health_state(),
            HealthState::Quarantined,
            "persistent overdraw must quarantine"
        );
        for &handle in &handles[1..] {
            let state = coordinator.app(handle).health_state();
            assert!(
                state == HealthState::Healthy || state == HealthState::Suspect,
                "honest apps stay off the quarantine rung, got {state:?}"
            );
        }
    }

    /// Every field of a hot row, floats as bits (a NaN envelope equals
    /// itself).
    fn row_bits(row: &HotRow) -> (u64, u64, u64, u64, usize, u64, [bool; 3]) {
        (
            row.work.to_bits(),
            row.power.to_bits(),
            row.beats,
            row.last_beats,
            row.judged_quanta,
            row.envelope.to_bits(),
            [row.reported, row.fresh, row.settled],
        )
    }

    #[test]
    fn the_settled_fast_path_is_exactly_the_ladders_fixed_point() {
        // Over a grid of settled rows, reports, envelopes, tolerances,
        // warmup clocks and requests, whenever the row-only test books a
        // pass, the full ladder run on the same inputs must leave the app's
        // health, the request and the row exactly as the fast path did.
        let mut app = managed_app(SplashBenchmark::Barnes, 7, 10.0);
        let nan = f64::NAN;
        let reports = [
            None,
            Some((10.0, 3.0)),
            Some((10.0, 6.0)),
            Some((10.0, 100.0)),
            Some((nan, 3.0)),
            Some((10.0, nan)),
            Some((10.0, f64::INFINITY)),
            Some((f64::INFINITY, 3.0)),
        ];
        let requests = [
            (1.0, 20.0, 1.0),
            (nan, 20.0, 1.0),
            (1.0, nan, 1.0),
            (1.0, 20.0, nan),
            (1.0, f64::INFINITY, 1.0),
        ];
        let (awards, tolerances) = ([0.0, 4.0, 50.0], [nan, -0.5, 0.0, 0.5]);
        let clocks = [(0, 0), (3, 8), (9, 8)];
        let cases = 2 * 2 * reports.len() * 3 * 4 * 3 * requests.len() * 2;
        let mut booked = 0;
        for case in 0..cases {
            // The case's coordinates on the grid, one dimension at a time.
            let mut rest = case;
            let mut pick = |n: usize| {
                let index = rest % n;
                rest /= n;
                index
            };
            let state = [HealthState::Healthy, HealthState::Readmitted][pick(2)];
            let moved = pick(2) as u64;
            let report = reports[pick(reports.len())];
            let award = awards[pick(3)];
            let tolerance = tolerances[pick(4)];
            let (judged, warmup) = clocks[pick(3)];
            let (urgency, max_power_watts, weight) = requests[pick(requests.len())];
            let cached = pick(2) == 1;

            let config = WatchdogConfig {
                overdraw_tolerance: tolerance,
                warmup_quanta: warmup,
                ..WatchdogConfig::default()
            };
            app.awarded_watts = award;
            app.health = HealthTracker {
                state,
                ..HealthTracker::new()
            };
            let mut row = HotRow::new(40 + moved);
            row.last_beats = 40;
            row.judged_quanta = judged;
            row.settled = true;
            if let Some((work, power)) = report {
                (row.work, row.power, row.reported) = (work, power, true);
            }
            if cached {
                row.envelope = overdraw_envelope(&app, config.quarantine_floor_watts);
            }
            let request = AppRequest {
                active: true,
                weight,
                urgency,
                max_power_watts,
            };
            let mut fast = row;
            if !fast.pass_settled(&request, &config) {
                assert_eq!(row_bits(&fast), row_bits(&row), "case {case}");
                continue;
            }
            booked += 1;
            let health = app.health;
            let mut full_request = request;
            watchdog_app(&mut app, &mut row, &mut full_request, &config, 5);
            assert_eq!(app.health, health, "case {case}");
            // The full pass also fills an unknown envelope cache.
            if !cached {
                fast.envelope = row.envelope;
            }
            assert_eq!(row_bits(&row), row_bits(&fast), "case {case}");
            let bits = |request: &AppRequest| {
                (request.urgency.to_bits(), request.max_power_watts.to_bits())
            };
            assert_eq!(bits(&full_request), bits(&request), "case {case}");
        }
        assert!(booked > 100, "the grid books {booked} passes");
    }

    #[test]
    fn the_envelope_cache_tracks_its_inputs_under_wake_scheduling() {
        // The fast path trusts a settled row's envelope: after every step
        // it must equal the envelope recomputed from the app, bit for bit
        // (or still be unknown), across budgets that bind, clamp held
        // awards and leave slack.
        let config = WatchdogConfig::default();
        for budget in [12.0, 30.0, 60.0, 200.0, 400.0, 1000.0] {
            let mut coordinator = Coordinator::new(budget, Box::new(WeightedFair))
                .with_watchdog(config)
                .with_arbitration_tolerance(0.05)
                .with_wake_schedule(WakeConfig {
                    steady_quanta: 2,
                    horizon: 8,
                });
            let handles: Vec<AppHandle> = (0..6)
                .map(|i| {
                    let benchmark = SplashBenchmark::ALL[i % SplashBenchmark::ALL.len()];
                    coordinator.register(managed_app(benchmark, i as u64 + 1, 20.0))
                })
                .collect();
            let mut now = 0.0;
            for _ in 0..40 {
                drive_from(&mut coordinator, &handles, 1, &mut now);
                for (index, row) in coordinator.rows.iter().enumerate() {
                    if !row.settled || row.envelope.is_nan() {
                        continue;
                    }
                    let expected =
                        overdraw_envelope(&coordinator.apps[index], config.quarantine_floor_watts);
                    assert_eq!(
                        row.envelope.to_bits(),
                        expected.to_bits(),
                        "slot {index} at quantum {} under {budget} W",
                        coordinator.quantum()
                    );
                }
            }
        }
    }

    #[test]
    fn watchdog_on_a_healthy_fleet_changes_nothing() {
        // With every app honest, the enabled ladder must not perturb a
        // single award or decision relative to the watchdog-free run.
        let run = |watchdog: Option<WatchdogConfig>| {
            let mut coordinator = Coordinator::new(30.0, Box::new(WeightedFair));
            if let Some(config) = watchdog {
                coordinator = coordinator.with_watchdog(config);
            }
            let handles: Vec<AppHandle> = (0..3)
                .map(|i| {
                    coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 1000.0))
                })
                .collect();
            let mut now = 0.0;
            let mut trace = Vec::new();
            for _ in 0..20 {
                now += 1.0;
                for &handle in &handles {
                    advance_honestly(&mut coordinator, handle, now);
                }
                let summary = coordinator.step(now).unwrap();
                trace.push((summary, coordinator.awards().to_vec()));
            }
            trace
        };
        assert_eq!(run(None), run(Some(WatchdogConfig::default())));
    }

    #[test]
    fn admission_control_lands_midrun_arrivals_in_the_cheapest_configuration() {
        let current_power = |coordinator: &Coordinator, handle: AppHandle| {
            let runtime = coordinator.app(handle).runtime();
            runtime
                .model()
                .table()
                .declared_effect(runtime.current_config_id())
                .power
        };

        let mut coordinator =
            Coordinator::new(60.0, Box::new(WeightedFair)).with_admission_control(true);
        // A registration before the first step is untouched (bit-identity
        // with the admission-free run for whole-fleet-at-start scenarios).
        let early = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 1000.0));
        assert_eq!(
            current_power(&coordinator, early),
            1.0,
            "launch config kept"
        );

        let mut now = 0.0;
        for _ in 0..5 {
            now += 1.0;
            advance_honestly(&mut coordinator, early, now);
            coordinator.step(now).unwrap();
        }
        // The mid-run arrival is decided under a zero cap at registration:
        // its landing quantum executes in the cheapest configuration.
        let late =
            coordinator.register(managed_app(SplashBenchmark::OceanNonContiguous, 2, 1000.0));
        assert!(
            current_power(&coordinator, late) < 1.0,
            "admission must drop the newcomer below its launch power, got {}",
            current_power(&coordinator, late)
        );

        // Control: without admission, the newcomer lands in launch config.
        let mut naive = Coordinator::new(60.0, Box::new(WeightedFair));
        let first = naive.register(managed_app(SplashBenchmark::Barnes, 1, 1000.0));
        let mut now = 0.0;
        for _ in 0..5 {
            now += 1.0;
            advance_honestly(&mut naive, first, now);
            naive.step(now).unwrap();
        }
        let late = naive.register(managed_app(SplashBenchmark::OceanNonContiguous, 2, 1000.0));
        assert_eq!(current_power(&naive, late), 1.0);
    }

    #[test]
    fn app_without_goal_propagates_the_error() {
        let driver = HeartbeatedWorkload::new(Workload::new(SplashBenchmark::Barnes, 1));
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(actuators())
            .build()
            .unwrap();
        let mut coordinator = Coordinator::new(50.0, Box::new(StaticShare));
        coordinator.register(ManagedApp::new(driver, runtime));
        assert!(matches!(coordinator.step(1.0), Err(SeecError::NoGoal)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_budget_panics() {
        let _ = Coordinator::new(0.0, Box::new(StaticShare));
    }

    /// Runs a 3-app fleet for 20 quanta at `workers` threads, optionally
    /// instrumented, and returns every step summary plus the final awards.
    fn drive_summaries(
        recorder: Option<Arc<Recorder>>,
        workers: usize,
    ) -> (Vec<StepSummary>, Vec<f64>) {
        let mut coordinator = Coordinator::new(30.0, Box::new(WeightedFair))
            .with_pool(Arc::new(ExecPool::new(workers)))
            .with_shard_threshold(0)
            .with_watchdog(WatchdogConfig::default());
        coordinator.set_obs(recorder);
        let handles: Vec<AppHandle> = (0..3)
            .map(|i| {
                coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 1000.0))
            })
            .collect();
        let mut summaries = Vec::new();
        let mut now = 0.0;
        for _ in 0..20 {
            now += 1.0;
            for &handle in &handles {
                let effect = {
                    let runtime = coordinator.app(handle).runtime();
                    runtime
                        .model()
                        .table()
                        .declared_effect(runtime.current_config_id())
                };
                coordinator.advance(
                    handle,
                    now - 1.0,
                    now,
                    10.0 * effect.performance,
                    10.0 * effect.power,
                );
            }
            summaries.push(coordinator.step(now).unwrap());
        }
        (summaries, coordinator.awards().to_vec())
    }

    #[test]
    fn telemetry_is_passive_at_every_worker_count() {
        // Attaching a recorder — sequential or sharded — must not move a
        // single bit of any summary or award.
        let (baseline, baseline_awards) = drive_summaries(None, 1);
        for workers in [1usize, 3] {
            let recorder = Arc::new(Recorder::in_memory());
            let (observed, awards) = drive_summaries(Some(Arc::clone(&recorder)), workers);
            assert_eq!(observed, baseline, "summaries drifted at {workers} workers");
            assert_eq!(
                awards, baseline_awards,
                "awards drifted at {workers} workers"
            );

            // And the deterministic plane reconciles with the run.
            let snapshot = recorder.snapshot();
            assert_eq!(snapshot.counter(Counter::QuantaStepped), 20);
            assert_eq!(snapshot.counter(Counter::AppsObserved), 60);
            assert_eq!(snapshot.counter(Counter::Registrations), 3);
            let decided: usize = baseline.iter().map(|s| s.active_apps).sum();
            assert_eq!(snapshot.counter(Counter::AppsDecided), decided as u64);
            assert_eq!(
                snapshot.stage(Stage::Decision).count,
                snapshot.counter(Counter::AppsDecided),
                "one decision timing per decided app"
            );
            assert_eq!(snapshot.stage(Stage::Step).count, 20);
            assert_eq!(
                snapshot.counter(Counter::AwardsChanged) + snapshot.counter(Counter::AwardsHeld),
                decided as u64,
                "every present app's award is either changed or held"
            );
            assert_eq!(snapshot.peak_fleet_size, 3);
        }
    }

    #[test]
    fn lifecycle_events_stream_in_call_order() {
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator =
            Coordinator::new(100.0, Box::new(StaticShare)).with_obs(Arc::clone(&recorder));
        let handle = coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 20.0));
        coordinator.set_budget(80.0);
        coordinator.step(1.0).unwrap();
        coordinator.retire(handle);
        let events = recorder.snapshot().events;
        assert_eq!(events.len(), 3);
        assert!(matches!(&events[0].kind, EventKind::Register { app } if app == "barnes"));
        assert!(matches!(&events[1].kind, EventKind::BudgetChange { watts } if *watts == 80.0));
        assert!(matches!(&events[2].kind, EventKind::Retire { app } if app == "barnes"));
        assert_eq!(events[0].quantum, 0, "registered before the first step");
        assert_eq!(events[2].quantum, 1, "retired after it");
        assert_eq!(recorder.counter(Counter::BudgetChanges), 1);
        assert_eq!(recorder.counter(Counter::Retirements), 1);
    }

    #[test]
    fn watchdog_transitions_raise_events_and_count_once() {
        // A silent app walks Healthy → Suspect → Quarantined; the counter
        // counts the quarantine once while events record each transition.
        let config = WatchdogConfig {
            warmup_quanta: 0,
            stale_beat_quanta: 3,
            ..WatchdogConfig::default()
        };
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(50.0, Box::new(StaticShare))
            .with_watchdog(config)
            .with_obs(Arc::clone(&recorder));
        coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 20.0));
        let mut now = 0.0;
        for _ in 0..8 {
            now += 1.0;
            // No advance: the app never beats, so it goes stale.
            coordinator.step(now).unwrap();
        }
        assert_eq!(recorder.counter(Counter::Quarantines), 1);
        let transitions: Vec<(String, String)> = recorder
            .snapshot()
            .events
            .iter()
            .filter_map(|event| match &event.kind {
                EventKind::HealthTransition { from, to, .. } => Some((from.clone(), to.clone())),
                _ => None,
            })
            .collect();
        assert!(
            transitions.contains(&("Suspect".to_string(), "Quarantined".to_string())),
            "expected a Suspect→Quarantined transition, got {transitions:?}"
        );
    }

    #[test]
    fn wake_scheduling_sleeps_steady_apps_and_the_ledger_partitions() {
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(60.0, Box::new(WeightedFair))
            .with_arbitration_tolerance(0.05)
            .with_wake_schedule(WakeConfig {
                steady_quanta: 2,
                horizon: 8,
            })
            .with_obs(Arc::clone(&recorder));
        let handles: Vec<AppHandle> = [
            (SplashBenchmark::Barnes, 1),
            (SplashBenchmark::OceanNonContiguous, 2),
            (SplashBenchmark::Raytrace, 3),
        ]
        .into_iter()
        .map(|(benchmark, seed)| coordinator.register(managed_app(benchmark, seed, 20.0)))
        .collect();
        let quanta = 16;
        drive(&mut coordinator, &handles, quanta);

        let slept = recorder.counter(Counter::AppsSlept);
        let skipped = recorder.counter(Counter::AppsSkipped);
        let rearbitrated = recorder.counter(Counter::AppsRearbitrated);
        let decided = recorder.counter(Counter::AppsDecided);
        assert!(slept > 0, "steady apps never slept");
        assert_eq!(
            slept + skipped + rearbitrated + decided,
            (quanta * handles.len()) as u64,
            "the four-way ledger must partition every active app-quantum"
        );
        // Sleeping slots are not observed either: the observe counter
        // undershoots the fleet-quanta product by at least the slept share.
        assert!(
            recorder.counter(Counter::AppsObserved) + slept <= (quanta * handles.len()) as u64,
            "sleeping apps must not be observed"
        );
        let total: f64 = coordinator.awards().iter().sum();
        assert!(total <= 60.0 * 0.95 + 1e-9, "budget overrun: {total}");
    }

    #[test]
    fn horizon_zero_wake_schedule_is_bit_identical_to_the_plain_incremental_path() {
        let build = |wake: Option<WakeConfig>| {
            let mut coordinator = Coordinator::new(55.0, Box::new(PerformanceMarket::default()))
                .with_arbitration_tolerance(0.05);
            if let Some(config) = wake {
                coordinator = coordinator.with_wake_schedule(config);
            }
            let handles = vec![
                coordinator.register(managed_app(SplashBenchmark::Barnes, 7, 18.0)),
                coordinator.register(managed_app(SplashBenchmark::OceanNonContiguous, 8, 24.0)),
            ];
            (coordinator, handles)
        };
        let (mut plain, plain_handles) = build(None);
        let (mut gated, gated_handles) = build(Some(WakeConfig {
            steady_quanta: 2,
            horizon: 0,
        }));
        let mut now = 0.0;
        for _ in 0..12 {
            now += 1.0;
            for (&a, &b) in plain_handles.iter().zip(&gated_handles) {
                plain.advance(a, now - 1.0, now, 10.0, 9.0);
                gated.advance(b, now - 1.0, now, 10.0, 9.0);
            }
            plain.step(now).unwrap();
            gated.step(now).unwrap();
            let plain_bits: Vec<u64> = plain.awards().iter().map(|award| award.to_bits()).collect();
            let gated_bits: Vec<u64> = gated.awards().iter().map(|award| award.to_bits()).collect();
            assert_eq!(
                plain_bits, gated_bits,
                "horizon 0 must be bit-identical to no wake schedule"
            );
        }
    }

    #[test]
    fn a_sleeping_app_force_wakes_when_retired() {
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(60.0, Box::new(StaticShare))
            .with_arbitration_tolerance(0.05)
            .with_wake_schedule(WakeConfig {
                steady_quanta: 1,
                horizon: 32,
            })
            .with_obs(Arc::clone(&recorder));
        let handles = vec![
            coordinator.register(managed_app(SplashBenchmark::Barnes, 1, 20.0)),
            coordinator.register(managed_app(SplashBenchmark::OceanNonContiguous, 2, 20.0)),
        ];
        let mut now = 0.0;
        drive_from(&mut coordinator, &handles, 8, &mut now);
        assert!(
            recorder.counter(Counter::AppsSlept) > 0,
            "the fleet should be sleeping before the retirement"
        );
        coordinator.retire(handles[1]);
        drive_from(&mut coordinator, &handles, 1, &mut now);
        assert_eq!(
            coordinator.app(handles[1]).awarded_watts(),
            0.0,
            "a retired sleeper must wake and lose its envelope the next step"
        );
        assert_eq!(coordinator.awards()[1], 0.0);
    }

    #[test]
    fn a_sleeping_app_force_wakes_when_the_watchdog_quarantines_it() {
        // A 64-quantum horizon with steady_quanta 1 puts the whole fleet to
        // sleep long before any deadline; the only thing that can strip a
        // sleeper's held award inside this run is the health transition.
        let config = WatchdogConfig::default();
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(60.0, Box::new(WeightedFair))
            .with_arbitration_tolerance(0.05)
            .with_wake_schedule(WakeConfig {
                steady_quanta: 1,
                horizon: 64,
            })
            .with_watchdog(config)
            .with_obs(Arc::clone(&recorder));
        let handles: Vec<AppHandle> = (0..3)
            .map(|i| coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 20.0)))
            .collect();
        let mut now = 0.0;
        for _ in 0..8 {
            now += 1.0;
            for &handle in &handles {
                advance_honestly(&mut coordinator, handle, now);
            }
            coordinator.step(now).unwrap();
        }
        let slept_before_stall = recorder.counter(Counter::AppsSlept);
        assert!(
            slept_before_stall > 0,
            "the fleet should be sleeping before the stall"
        );
        assert!(
            coordinator.app(handles[2]).awarded_watts() > config.quarantine_floor_watts,
            "the app must hold a real envelope going into the stall"
        );

        // App 2's heartbeat pipe wedges while its slot sleeps on a held
        // award: the watchdog must still see the staleness and the
        // quarantine must force-wake the slot the same quantum.
        for _ in 0..(config.stale_beat_quanta + 2) {
            now += 1.0;
            for &handle in &handles[..2] {
                advance_honestly(&mut coordinator, handle, now);
            }
            coordinator.step(now).unwrap();
        }
        let stalled = coordinator.app(handles[2]);
        assert_eq!(stalled.health_state(), HealthState::Quarantined);
        assert!(
            stalled.awarded_watts() <= config.quarantine_floor_watts + 1e-9,
            "a sleep horizon must not shield a quarantined app's held award, got {}",
            stalled.awarded_watts()
        );
        assert!(
            recorder.counter(Counter::AppsSlept) > slept_before_stall,
            "healthy apps keep sleeping through a neighbour's quarantine"
        );
        let total: f64 = coordinator.awards().iter().sum();
        assert!(total <= 60.0 * 0.95 + 1e-9, "budget overrun: {total}");
    }

    /// A watchdog ladder that moves within a few quanta, so sleepers get
    /// quarantined and readmitted inside a short run. A fault first makes
    /// its app `Suspect` (a transition, which wakes it); the strike counts
    /// leave it room to fall asleep again before quarantine.
    const FAST_LADDER: WatchdogConfig = WatchdogConfig {
        stale_beat_quanta: 4,
        overdraw_quanta: 4,
        overdraw_tolerance: 0.5,
        quarantine_floor_watts: 5.0,
        readmit_quanta: 3,
        warmup_quanta: 2,
    };

    /// One quantum of the declared-effect platform with faults: apps in
    /// `stalled` report nothing, apps in `misreporting` claim four times
    /// the power they drew.
    fn advance_with_faults(
        coordinator: &mut Coordinator,
        handles: &[AppHandle],
        now: f64,
        stalled: &[usize],
        misreporting: &[usize],
    ) {
        for (i, &handle) in handles.iter().enumerate() {
            if stalled.contains(&i) || !coordinator.app(handle).active_at(coordinator.quantum()) {
                continue;
            }
            let effect = {
                let runtime = coordinator.app(handle).runtime();
                runtime
                    .model()
                    .table()
                    .declared_effect(runtime.current_config_id())
            };
            let claimed = if misreporting.contains(&i) { 4.0 } else { 1.0 };
            coordinator.advance(
                handle,
                now - 1.0,
                now,
                10.0 * effect.performance,
                claimed * 10.0 * effect.power,
            );
        }
    }

    /// Per-quantum award and decision bits of the resident apps, plus the
    /// `(quantum, app, new state)` of every watchdog transition that struck
    /// a slot asleep going into the step.
    type WatchdogTwin = (
        Vec<(Vec<u64>, Vec<Option<Decision>>)>,
        Vec<(usize, usize, HealthState)>,
    );

    /// Drives a wake-scheduled, watchdog-guarded three-app fleet through a
    /// stall (app 0, then recovery) and a power misreport (app 1),
    /// registering an app and retiring it before it is ever stepped every
    /// quantum when `register_transient` is set.
    fn watchdog_twin(register_transient: bool) -> WatchdogTwin {
        let mut coordinator = Coordinator::new(60.0, Box::new(WeightedFair))
            .with_arbitration_tolerance(0.05)
            .with_wake_schedule(WakeConfig {
                steady_quanta: 1,
                horizon: 64,
            })
            .with_watchdog(FAST_LADDER);
        let handles: Vec<AppHandle> = (0..3)
            .map(|i| coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 20.0)))
            .collect();
        let mut trace = Vec::new();
        let mut sleeper_transitions = Vec::new();
        let mut now = 0.0;
        for quantum in 0..40 {
            if register_transient {
                let transient = coordinator.register(managed_app(
                    SplashBenchmark::Volrend,
                    100 + quantum as u64,
                    20.0,
                ));
                coordinator.retire(transient);
            }
            now += 1.0;
            let stalled: &[usize] = if (8..16).contains(&quantum) {
                &[0]
            } else {
                &[]
            };
            let misreporting: &[usize] = if (22..30).contains(&quantum) {
                &[1]
            } else {
                &[]
            };
            advance_with_faults(&mut coordinator, &handles, now, stalled, misreporting);
            let asleep: Vec<bool> = (0..3).map(|i| coordinator.arbiter.is_sleeping(i)).collect();
            let before: Vec<HealthState> = handles
                .iter()
                .map(|&h| coordinator.app(h).health_state())
                .collect();
            coordinator.step(now).unwrap();
            for (i, &handle) in handles.iter().enumerate() {
                let app = coordinator.app(handle);
                let after = app.health_state();
                if !asleep[i] || after == before[i] {
                    continue;
                }
                sleeper_transitions.push((quantum, i, after));
                // The woken sleeper entered the fold and decided on a
                // current snapshot, its request rebuilt from it: floored
                // exactly while quarantined. (Its ceiling is not compared:
                // the decision has since moved the nominal-power estimate.)
                let observation = app.monitor.observation();
                let mut expected = request_for(app, &observation, quantum, 60.0);
                let floored = after == HealthState::Quarantined;
                if floored {
                    quarantine_floor(&mut expected, &FAST_LADDER);
                }
                let request = coordinator.requests[i];
                assert_eq!(
                    coordinator.observations[i], observation,
                    "quantum {quantum}"
                );
                assert_eq!(
                    (request.active, request.weight, request.urgency),
                    (expected.active, expected.weight, expected.urgency),
                    "quantum {quantum}"
                );
                assert_eq!(
                    request.max_power_watts == FAST_LADDER.quarantine_floor_watts,
                    floored,
                    "quantum {quantum}: {request:?}"
                );
            }
            trace.push((
                coordinator.awards()[..3]
                    .iter()
                    .map(|award| award.to_bits())
                    .collect(),
                handles
                    .iter()
                    .map(|&h| coordinator.app(h).last_decision())
                    .collect(),
            ));
        }
        (trace, sleeper_transitions)
    }

    #[test]
    fn a_watchdog_woken_sleeper_decides_the_same_whether_or_not_an_app_registers() {
        // A sleeper the watchdog moves wakes mid-round and is decided the
        // same quantum. Its award and decision must rest on a current
        // observation either way: an unrelated registration (an app retired
        // before its first step, which only grows the fleet) must not
        // change a single bit.
        let (quiet, transitions) = watchdog_twin(false);
        let (growing, growing_transitions) = watchdog_twin(true);
        assert_eq!(transitions, growing_transitions);
        for state in [HealthState::Quarantined, HealthState::Readmitted] {
            assert!(
                transitions.iter().any(|&(_, _, to)| to == state),
                "the run must move a sleeper to {state:?}: {transitions:?}"
            );
        }
        for (quantum, (quiet, growing)) in quiet.iter().zip(&growing).enumerate() {
            assert_eq!(
                quiet, growing,
                "quantum {quantum} diverged: {transitions:?}"
            );
        }
    }

    #[test]
    fn observe_counts_participants_and_late_observations_under_churn() {
        // One present registration per quantum grows the fleet every step,
        // and a stall drives a sleeper up the watchdog ladder: each step
        // must still observe only its filtered participants plus the slots
        // the watchdog woke mid-round — never the whole fleet — and
        // `apps_observed` must book both.
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(60.0, Box::new(WeightedFair))
            .with_arbitration_tolerance(0.05)
            .with_wake_schedule(WakeConfig {
                steady_quanta: 1,
                horizon: 64,
            })
            .with_watchdog(FAST_LADDER)
            .with_obs(Arc::clone(&recorder));
        let mut handles: Vec<AppHandle> = (0..3)
            .map(|i| coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 20.0)))
            .collect();
        let mut now = 0.0;
        let mut late_total = 0;
        let mut fleet_quanta = 0;
        for quantum in 0..24 {
            let seed = 10 + quantum as u64;
            handles.push(coordinator.register(managed_app(SplashBenchmark::Volrend, seed, 20.0)));
            now += 1.0;
            let stalled: &[usize] = if (8..16).contains(&quantum) {
                &[0]
            } else {
                &[]
            };
            advance_with_faults(&mut coordinator, &handles, now, stalled, &[]);
            let before: Vec<HealthState> = handles
                .iter()
                .map(|&h| coordinator.app(h).health_state())
                .collect();
            let observed_before = recorder.counter(Counter::AppsObserved);
            coordinator.step(now).unwrap();
            let observed = recorder.counter(Counter::AppsObserved) - observed_before;
            let late = handles
                .iter()
                .enumerate()
                .filter(|&(i, &h)| {
                    coordinator.app(h).health_state() != before[i]
                        && coordinator.observe_list.binary_search(&(i as u32)).is_err()
                })
                .count() as u64;
            late_total += late;
            fleet_quanta += handles.len() as u64;
            assert_eq!(
                observed,
                coordinator.observe_list.len() as u64 + late,
                "quantum {quantum}: apps_observed must book the list and the late observations"
            );
            assert!(
                observed <= coordinator.arbiter.awake_slots().len() as u64,
                "quantum {quantum}: observed {observed} slots beyond the round's participants"
            );
        }
        assert!(late_total > 0, "the stall must wake a sleeper mid-round");
        let slept = recorder.counter(Counter::AppsSlept);
        assert!(slept > 0, "steady apps never slept");
        assert_eq!(
            slept
                + recorder.counter(Counter::AppsSkipped)
                + recorder.counter(Counter::AppsRearbitrated)
                + recorder.counter(Counter::AppsDecided),
            fleet_quanta,
            "the four-way ledger must partition every active app-quantum"
        );
        assert!(
            recorder.counter(Counter::AppsObserved) + slept <= fleet_quanta,
            "sleeping apps must not be observed, registrations or not"
        );
    }

    #[test]
    fn the_awards_scan_over_participants_matches_the_full_fleet_scan() {
        // The changed/held split is booked from the participant list plus
        // the round's sleepers (held by construction). Under wake
        // scheduling, registrations, retirements and watchdog moves it must
        // equal the full-fleet scan: every present app's award against the
        // envelope it executed the previous quantum under.
        let recorder = Arc::new(Recorder::in_memory());
        let mut coordinator = Coordinator::new(60.0, Box::new(WeightedFair))
            .with_arbitration_tolerance(0.05)
            .with_wake_schedule(WakeConfig {
                steady_quanta: 1,
                horizon: 16,
            })
            .with_watchdog(FAST_LADDER)
            .with_obs(Arc::clone(&recorder));
        let mut handles: Vec<AppHandle> = (0..4)
            .map(|i| coordinator.register(managed_app(SplashBenchmark::ALL[i], i as u64 + 1, 20.0)))
            .collect();
        let mut now = 0.0;
        for quantum in 0..32 {
            if quantum % 3 == 0 {
                let seed = 20 + quantum as u64;
                handles.push(coordinator.register(managed_app(
                    SplashBenchmark::Barnes,
                    seed,
                    20.0,
                )));
            }
            if quantum % 5 == 4 {
                coordinator.retire(handles[4 + quantum / 5]);
            }
            now += 1.0;
            let stalled: &[usize] = if (6..14).contains(&quantum) {
                &[1]
            } else {
                &[]
            };
            let misreporting: &[usize] = if (16..24).contains(&quantum) {
                &[2]
            } else {
                &[]
            };
            advance_with_faults(&mut coordinator, &handles, now, stalled, misreporting);
            let previous: Vec<f64> = coordinator
                .apps()
                .iter()
                .map(|app| app.awarded_watts)
                .collect();
            let (changed_before, held_before) = (
                recorder.counter(Counter::AwardsChanged),
                recorder.counter(Counter::AwardsHeld),
            );
            coordinator.step(now).unwrap();
            let (mut changed, mut held) = (0, 0);
            for ((app, award), previous) in coordinator
                .apps()
                .iter()
                .zip(coordinator.awards())
                .zip(&previous)
            {
                if !app.active_at(quantum) {
                    continue;
                }
                if award.to_bits() == previous.to_bits() {
                    held += 1;
                } else {
                    changed += 1;
                }
            }
            assert_eq!(
                (
                    recorder.counter(Counter::AwardsChanged) - changed_before,
                    recorder.counter(Counter::AwardsHeld) - held_before,
                ),
                (changed, held),
                "quantum {quantum}: (changed, held) diverged from the full-fleet scan"
            );
        }
        assert!(recorder.counter(Counter::AppsSlept) > 0, "nothing slept");
        assert!(
            recorder.counter(Counter::Quarantines) > 0,
            "nothing was quarantined"
        );
    }
}
