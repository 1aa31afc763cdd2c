//! Incremental arbitration: re-arbitrate only the applications whose
//! requests actually moved.
//!
//! At million-app fleet sizes the full arbitration fold is almost entirely
//! redundant work — most applications' [`AppRequest`]s barely move between
//! quanta. The [`IncrementalArbiter`] keeps a struct-of-arrays snapshot of
//! the request each application was last arbitrated under, a **dirty set**
//! driven by request deltas, lifecycle events, and health transitions, and
//! the award each clean application is currently holding. Each quantum it
//! re-runs the wrapped [`ArbitrationPolicy`] only over the dirty
//! applications, against the *residual* budget left after the clean
//! applications' held awards — a delta update of WeightedFair's water level
//! and the market's clearing price (both are pure functions of the
//! participating request set and the budget, so shrinking the set and the
//! budget together is exact).
//!
//! # One list round
//!
//! The engine keeps the ascending list of **present** slots
//! ([`IncrementalArbiter::present`]): every slot it has seen that has not
//! departed. Every round runs over an ascending **participant list**: the
//! present slots with the wake scheduler off, the awake ones with it on
//! (see below). The engine classifies, folds, and — only when the horizon
//! is positive — puts slots to sleep over that list alone, so there is one
//! round shape for every schedule; the callers' per-app stages (the
//! [`crate::Coordinator`]'s observe and decide walks) iterate the same list
//! through [`IncrementalArbiter::begin_round`] and
//! [`IncrementalArbiter::awake_slots`].
//!
//! A slot the coordinator retires stays present for exactly one more
//! round, which sees its request absent and awards it exactly 0 W; then it
//! **departs**: it leaves the present list at once and the participant
//! list when the next round begins, and nothing re-adds it — not a budget
//! step's whole-fleet wake, not a deadline, not a pending wake, not a
//! schedule change. Its award stays 0 W. So a round costs O(present
//! slots), however many slots have ever existed.
//!
//! # Tolerance-0 determinism
//!
//! The degenerate tolerance `0.0` marks **every** application dirty every
//! quantum (a request delta of exactly zero is not *strictly inside* a zero
//! tolerance), and nothing ever sleeps, so every present slot re-enters
//! the fold under the whole budget. The policy's participant list is then
//! every present slot — every slot, with nothing departed, and a departed
//! row is inactive, which a full fold awards 0 W and leaves out of every
//! sum — so the awards are byte-for-byte the plain full fold's. The
//! differential suite (`tests/incremental_props.rs`) pins this against the
//! bare policy over the identity list and, with the coordinator on top,
//! against a test-only full-fold reference step across policies, fleets,
//! churn, and worker counts.
//!
//! # Budget conservation at any tolerance
//!
//! Clean applications hold their previous award, clamped to their current
//! absorption ceiling (clamping only ever shrinks). The dirty set is
//! arbitrated under `budget − Σ held`, and every shipped policy conserves
//! its budget, so the merged award vector sums to at most the full budget
//! at every tolerance — pinned by the nonzero-tolerance properties of the
//! same suite.
//!
//! # Wake scheduling: O(awake) rounds
//!
//! Even with a tolerance, classifying every slot is an O(fleet) memory walk
//! per quantum. A schedule's [`WakeConfig`] turns the engine
//! event-driven: a slot whose request stayed inside the tolerance for
//! [`WakeConfig::steady_quanta`] consecutive rounds is put to **sleep** with
//! a bounded [`WakeConfig::horizon`] — it leaves the participant list and
//! holds its award until its deadline expires (a timing wheel drains the
//! round's bucket) or an external event wakes it early:
//!
//! * [`IncrementalArbiter::wake`] — the caller saw this slot's request
//!   move (a fresh report or a field change);
//! * [`IncrementalArbiter::mark_dirty`] — lifecycle and health events
//!   (which also force re-arbitration); a retirement, the only event that
//!   changes a slot's presence, marks its slot this way;
//! * [`IncrementalArbiter::mark_all_dirty`] — a budget step wakes the
//!   whole fleet (every held award is invalid).
//!
//! While a slot sleeps the engine never reads its request row — the
//! caller's contract is to `wake()` any slot whose request may have moved,
//! and every envelope-changing event (budget/health/lifecycle)
//! force-wakes, so staleness is bounded by the horizon and limited to
//! sub-tolerance drift.
//!
//! Horizon `0` disables the scheduler: no slot is ever put to sleep, so the
//! participant list stays the present slots and the round is exactly
//! the one an unconfigured engine runs (pinned, with the coordinator on
//! top, by `tests/incremental_props.rs`).
//!
//! The residual fold is one policy call over the request slice as it
//! stands, with the round's ascending dirty slots as the participant list:
//! no row is copied, and no row off the list is read. The award bits are
//! those of a full-slice call with every clean slot masked inactive —
//! pinned for every shipped policy, [`crate::AwardHysteresis`] included,
//! against a test-only masked oracle in this module's tests.

use crate::policy::{AppRequest, ArbitrationPolicy};

/// Wake-scheduler knobs of an [`ArbitrationSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeConfig {
    /// Consecutive clean (sub-tolerance) rounds before a slot sleeps.
    /// Treated as at least 1 — a dirty slot never sleeps the round it
    /// re-arbitrated.
    pub steady_quanta: u32,
    /// Upper bound, in rounds, on how long a slot may sleep before it is
    /// re-classified. `0` disables wake scheduling entirely (no slot ever
    /// sleeps, so every round's participant list is every present slot —
    /// bit-identical to an unconfigured engine).
    pub horizon: usize,
}

impl Default for WakeConfig {
    fn default() -> Self {
        WakeConfig {
            steady_quanta: 2,
            horizon: 32,
        }
    }
}

impl WakeConfig {
    /// Wake scheduling disabled: every slot participates in every round.
    pub const OFF: WakeConfig = WakeConfig {
        steady_quanta: 0,
        horizon: 0,
    };

    /// Whether this configuration actually schedules sleep.
    pub fn enabled(&self) -> bool {
        self.horizon > 0
    }
}

/// How an arbitration engine schedules re-arbitration: the tolerance a
/// request must move by before its slot re-enters the fold, and the wake
/// scheduler riding on that classification. The default — tolerance 0,
/// [`WakeConfig::OFF`] — re-arbitrates every slot every round: the plain
/// full fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbitrationSchedule {
    /// Largest relative movement of any request field a slot may show and
    /// still hold its award; 0 re-arbitrates every slot every round. Must
    /// be finite and non-negative.
    pub tolerance: f64,
    /// The wake scheduler ([`WakeConfig::OFF`] keeps every slot awake).
    pub wake: WakeConfig,
}

impl Default for ArbitrationSchedule {
    fn default() -> Self {
        ArbitrationSchedule {
            tolerance: 0.0,
            wake: WakeConfig::OFF,
        }
    }
}

impl ArbitrationSchedule {
    /// Checks the schedule's values: [`ScheduleError::InvalidTolerance`]
    /// for a NaN, infinite, or negative tolerance.
    pub(crate) fn validate(&self) -> Result<(), ScheduleError> {
        if self.tolerance.is_finite() && self.tolerance >= 0.0 {
            Ok(())
        } else {
            Err(ScheduleError::InvalidTolerance(self.tolerance))
        }
    }
}

/// Why an [`ArbitrationSchedule`] was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// The tolerance was NaN, infinite, or negative.
    InvalidTolerance(f64),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::InvalidTolerance(tolerance) => write!(
                f,
                "arbitration tolerance must be finite and non-negative, got {tolerance}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// What one incremental arbitration round did, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalOutcome {
    /// Active applications re-arbitrated this round (their request moved
    /// past the tolerance or an event marked them dirty).
    pub rearbitrated: usize,
    /// Active applications that kept their held award without entering the
    /// arbitration fold.
    pub skipped: usize,
    /// Active applications that slept through the round entirely — not even
    /// classified (wake scheduling only; always 0 with the scheduler off).
    pub slept: usize,
    /// Whether every present slot — none asleep — re-entered the fold
    /// under the whole budget (always true at tolerance 0).
    pub full: bool,
}

/// The incremental arbitration engine (see the module docs).
///
/// Drives any [`ArbitrationPolicy`] incrementally; every
/// [`crate::Coordinator`] step runs through one, configured by its
/// [`ArbitrationSchedule`] ([`crate::Coordinator::set_schedule`]).
#[derive(Debug)]
pub struct IncrementalArbiter {
    /// The tolerance and wake scheduler every round runs under.
    schedule: ArbitrationSchedule,
    /// Request snapshot at each slot's last arbitration (struct-of-arrays:
    /// one dense request row per app, streamed in slot order).
    last_requests: Vec<AppRequest>,
    /// The award each slot is holding from its last arbitration — the one
    /// award vector ([`Self::awards`]).
    held: Vec<f64>,
    /// Per-round scratch: the policy's awards for the dirty participants,
    /// in list order, before they scatter into `held`.
    dirty_awards: Vec<f64>,
    /// Slots marked dirty by events since the last round (a slot starts
    /// marked).
    marked: Vec<bool>,
    /// The dirty mask of the most recent round (kept for the caller's
    /// decide stage and telemetry).
    dirty: Vec<bool>,
    /// Force a full round (budget change, or first round).
    fleet_dirty: bool,
    // ---- Wake-scheduler state (inert while `wake.horizon == 0`) ----
    /// Whether each slot is currently asleep (skipping whole rounds).
    sleeping: Vec<bool>,
    /// Consecutive clean rounds per slot; reset on any dirty round or wake.
    streak: Vec<u32>,
    /// Absolute round at which each sleeping slot's wheel entry is due —
    /// guards stale entries left by early wakes.
    deadline: Vec<u64>,
    /// Timing wheel, one bucket per horizon round; bucket `r % horizon`
    /// drains at the start of round `r`.
    wheel: Vec<Vec<u32>>,
    /// Ascending indices of the slots participating in the current round
    /// (every slot while the scheduler is off). Sleepers are removed at the
    /// *next* [`Self::begin_round`], so after [`Self::arbitrate`] the list
    /// still names exactly this round's participants (the caller's decide
    /// stage iterates it).
    awake: Vec<u32>,
    /// Slots woken since the last merge, not yet in `awake`.
    pending_wakes: Vec<u32>,
    merge_scratch: Vec<u32>,
    /// Ascending dirty participants of the current round — the policy
    /// call's participant list.
    dirty_slots: Vec<u32>,
    /// Sleeping slots whose snapshot request is active (the `slept` ledger
    /// entry, maintained incrementally).
    sleeping_active: usize,
    /// Σ held awards over sleeping slots (their requests cannot move while
    /// asleep, so the sum is exact and the residual stays O(awake)).
    sleeping_held_sum: f64,
    /// Ascending indices of every slot seen and not departed (see
    /// [`Self::present`]): the participants plus the sleepers.
    present: Vec<u32>,
    /// Slots handed to [`Self::retire`] since the last round: each takes
    /// part in exactly one more round, then departs.
    departing: Vec<u32>,
    /// Ascending slots that departed at the end of the last round: already
    /// off `present`, still on `awake` for the caller's decide stage until
    /// the next [`Self::begin_round`] drops them.
    departed: Vec<u32>,
    /// Monotone round counter driving the wheel.
    round: u64,
    /// Whether [`Self::begin_round`] already ran for the current round.
    round_begun: bool,
}

/// Largest relative per-field movement between two requests; infinite when
/// presence flipped, NaN-propagating so non-finite fields always re-enter
/// the fold.
fn request_delta(current: &AppRequest, snapshot: &AppRequest) -> f64 {
    if current.active != snapshot.active {
        return f64::INFINITY;
    }
    let relative = |now: f64, then: f64| {
        let scale = now.abs().max(then.abs()).max(1.0);
        (now - then).abs() / scale
    };
    relative(current.weight, snapshot.weight)
        .max(relative(current.urgency, snapshot.urgency))
        .max(relative(current.max_power_watts, snapshot.max_power_watts))
}

impl IncrementalArbiter {
    /// An engine running `schedule`: a slot re-arbitrates when its request
    /// moved by at least the tolerance (largest relative field movement;
    /// 0 = every round), and the wake scheduler puts steady slots to sleep
    /// (horizon 0 never does; see the module docs).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidTolerance`] unless the tolerance is finite
    /// and non-negative.
    pub fn new(schedule: ArbitrationSchedule) -> Result<Self, ScheduleError> {
        schedule.validate()?;
        Ok(IncrementalArbiter {
            schedule,
            last_requests: Vec::new(),
            held: Vec::new(),
            dirty_awards: Vec::new(),
            marked: Vec::new(),
            dirty: Vec::new(),
            fleet_dirty: true,
            sleeping: Vec::new(),
            streak: Vec::new(),
            deadline: Vec::new(),
            wheel: vec![Vec::new(); schedule.wake.horizon],
            awake: Vec::new(),
            pending_wakes: Vec::new(),
            merge_scratch: Vec::new(),
            dirty_slots: Vec::new(),
            sleeping_active: 0,
            sleeping_held_sum: 0.0,
            present: Vec::new(),
            departing: Vec::new(),
            departed: Vec::new(),
            round: 0,
            round_begun: false,
        })
    }

    /// The schedule every round runs under.
    pub(crate) fn schedule(&self) -> ArbitrationSchedule {
        self.schedule
    }

    /// Switches to `schedule` in place, as a fresh engine over the same
    /// present slots would start: every held award is invalid (the next
    /// round re-arbitrates every present slot) and every sleeper wakes,
    /// while departed slots stay gone and a slot retired since the last
    /// round still gets its one absent round. The caller validates the
    /// schedule.
    pub(crate) fn set_schedule(&mut self, schedule: ArbitrationSchedule) {
        // Waking everyone empties every bucket of the old wheel.
        self.mark_all_dirty();
        self.schedule = schedule;
        self.wheel = vec![Vec::new(); schedule.wake.horizon];
    }

    /// Wakes `index` if it is asleep: the slot re-enters classification
    /// next round (its streak restarts). Callers **must** wake any slot
    /// whose request may have moved — a fresh report or a field change —
    /// since the engine never reads a sleeping slot's request row; a
    /// presence change (a retirement) goes through [`Self::mark_dirty`],
    /// which wakes too. No-op with the scheduler off.
    pub fn wake(&mut self, index: usize) {
        if !self.schedule.wake.enabled() {
            return;
        }
        if index < self.sleeping.len() && self.sleeping[index] {
            self.sleeping[index] = false;
            if self.last_requests[index].active {
                self.sleeping_active -= 1;
            }
            self.sleeping_held_sum -= self.held[index];
            self.streak[index] = 0;
            self.pending_wakes.push(index as u32);
        } else if index < self.streak.len() {
            self.streak[index] = 0;
        }
    }

    /// Marks one slot dirty: it re-enters the fold next round regardless of
    /// its request delta (lifecycle events, health transitions). Also wakes
    /// the slot — no app sleeps through an envelope change. A slot the
    /// engine has not grown yet needs no mark: it starts marked.
    pub fn mark_dirty(&mut self, index: usize) {
        self.wake(index);
        if let Some(marked) = self.marked.get_mut(index) {
            *marked = true;
        }
    }

    /// Hands a departing slot to the engine: it takes part in exactly one
    /// more round and then leaves the present and participant lists for
    /// good. The caller must have made its request inactive, so that round
    /// awards it exactly 0 W — the award it holds from then on. Marks it
    /// dirty (which wakes it), so that round cannot skip it.
    pub(crate) fn retire(&mut self, index: usize) {
        self.mark_dirty(index);
        self.departing.push(index as u32);
    }

    /// Marks the whole fleet dirty: the next round re-arbitrates every
    /// present slot (a budget step invalidates every held award). Wakes
    /// every sleeping slot.
    pub fn mark_all_dirty(&mut self) {
        self.fleet_dirty = true;
        if self.schedule.wake.enabled() {
            self.wake_everyone();
        }
    }

    /// Wakes every sleeping slot — each one is on the wheel, so this is
    /// O(sleepers), and departed slots (never asleep) stay gone; empties
    /// the wheel (every entry is now stale). The next round's whole-fleet
    /// mark restarts every streak.
    fn wake_everyone(&mut self) {
        for bucket in &mut self.wheel {
            for index in bucket.drain(..) {
                let slot = index as usize;
                if self.sleeping[slot] {
                    self.sleeping[slot] = false;
                    self.pending_wakes.push(index);
                }
            }
        }
        self.sleeping_active = 0;
        self.sleeping_held_sum = 0.0;
    }

    /// The dirty mask of the most recent [`Self::arbitrate`] round, one
    /// flag per slot (false for a slot that has not taken part in a round
    /// yet). The caller's decide stage uses this to skip clean
    /// applications.
    pub fn dirty_mask(&self) -> &[bool] {
        &self.dirty
    }

    /// The ascending indices participating in the current round: after
    /// [`Self::begin_round`] (or [`Self::arbitrate`], which begins the
    /// round itself) this is every non-sleeping slot plus any slot woken
    /// mid-round — every present slot with the scheduler off. After the
    /// round it still names the slots that departed at its end.
    pub fn awake_slots(&self) -> &[u32] {
        &self.awake
    }

    /// The award each slot holds, one per slot the engine has grown: the
    /// most recent round's award for a participant, the held award for a
    /// sleeper, exactly 0 W for a departed slot and for a slot that has not
    /// taken part in a round yet.
    pub fn awards(&self) -> &[f64] {
        &self.held
    }

    /// The ascending indices of every present slot — each slot the engine
    /// has seen (through [`Self::begin_round`] or a growing request slice)
    /// that has not departed, sleepers included. A slot retired since the
    /// last round is still present: it leaves at the end of its absent
    /// round.
    pub fn present(&self) -> &[u32] {
        &self.present
    }

    /// Whether `index` can skip the coming quantum entirely: it was clean
    /// at the most recent round, so — absent a fresh report or a new mark —
    /// its observation and request are already current.
    pub fn steady(&self, index: usize) -> bool {
        self.schedule.tolerance > 0.0
            && !self.fleet_dirty
            && self.dirty.get(index).is_some_and(|&dirty| !dirty)
            && self.marked.get(index).is_none_or(|&marked| !marked)
    }

    /// Starts a round: grows the per-slot columns to `fleet` slots (new
    /// slots join the participant list, marked, holding 0 W), drops the
    /// slots that departed last round from the list, and — with the
    /// scheduler on — drops last round's sleepers, drains the wheel bucket
    /// whose deadline is due, and merges every pending wake. Idempotent
    /// per round; [`Self::arbitrate`] calls it itself when the caller did
    /// not. Returns the ascending
    /// participant list (the present slots, with the scheduler off) so
    /// callers can run their own per-slot stages — observation, request
    /// building — over exactly the round's slots.
    pub fn begin_round(&mut self, fleet: usize) -> &[u32] {
        if self.round_begun {
            return &self.awake;
        }
        self.round_begun = true;
        self.ensure_capacity(fleet);
        // Last round's departures and sleepers leave the participant list
        // only now, so the list kept naming them for the caller's
        // post-arbitrate stages. A departure's dirty flag is cleared, so
        // the mask stays false off the list (sleepers fell asleep clean).
        if !self.departed.is_empty() {
            for &index in &self.departed {
                self.dirty[index as usize] = false;
            }
            drop_sorted(&mut self.awake, &self.departed);
            self.departed.clear();
        }
        if self.schedule.wake.enabled() {
            let sleeping = &self.sleeping;
            self.awake.retain(|&index| !sleeping[index as usize]);
            // Deadline expiry: drain this round's wheel bucket. Entries
            // whose deadline moved (woken early, re-slept later) are stale —
            // skipped.
            let bucket = (self.round % self.schedule.wake.horizon as u64) as usize;
            let mut due = std::mem::take(&mut self.wheel[bucket]);
            for &index in &due {
                let slot = index as usize;
                if self.sleeping[slot] && self.deadline[slot] == self.round {
                    self.sleeping[slot] = false;
                    if self.last_requests[slot].active {
                        self.sleeping_active -= 1;
                    }
                    self.sleeping_held_sum -= self.held[slot];
                    self.streak[slot] = 0;
                    self.pending_wakes.push(index);
                }
            }
            due.clear();
            self.wheel[bucket] = due; // hand the allocation back
        }
        self.merge_pending();
        &self.awake
    }

    /// Grows every per-slot column to `fleet` slots — the one place a
    /// column grows. A new slot is present, awake and marked (dirty in its
    /// first round), holds 0 W and has never been arbitrated.
    /// [`Self::begin_round`] grows to its fleet itself; the coordinator
    /// also grows at registration, so a newcomer is present, with a 0 W
    /// award, before its first step.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is below the slot count (slots are never
    /// compacted) or above `u32` indices.
    pub(crate) fn ensure_capacity(&mut self, fleet: usize) {
        assert!(fleet <= u32::MAX as usize, "fleet exceeds u32 slot indices");
        let old = self.held.len();
        assert!(
            fleet >= old,
            "slots are never compacted: {fleet} requested, {old} exist"
        );
        self.last_requests.resize(fleet, AppRequest::ABSENT);
        self.held.resize(fleet, 0.0);
        self.marked.resize(fleet, true);
        self.dirty.resize(fleet, false);
        self.sleeping.resize(fleet, false);
        self.streak.resize(fleet, 0);
        self.deadline.resize(fleet, 0);
        // New indices are above every existing one: the lists stay sorted.
        self.present.extend(old as u32..fleet as u32);
        self.awake.extend(old as u32..fleet as u32);
    }

    /// Merges `pending_wakes` into the ascending awake list. A slot woken
    /// between rounds (sleeping flag already cleared) survives the retain
    /// in [`Self::begin_round`] *and* sits in `pending_wakes`, so the
    /// merge deduplicates.
    fn merge_pending(&mut self) {
        if self.pending_wakes.is_empty() {
            return;
        }
        self.pending_wakes.sort_unstable();
        self.merge_scratch.clear();
        self.merge_scratch
            .reserve(self.awake.len() + self.pending_wakes.len());
        let mut fresh = self.pending_wakes.iter().copied().peekable();
        for &index in &self.awake {
            while let Some(&next) = fresh.peek() {
                if next < index {
                    self.merge_scratch.push(next);
                    fresh.next();
                } else if next == index {
                    fresh.next(); // already awake: drop the duplicate
                } else {
                    break;
                }
            }
            self.merge_scratch.push(index);
        }
        self.merge_scratch.extend(fresh);
        std::mem::swap(&mut self.awake, &mut self.merge_scratch);
        self.pending_wakes.clear();
    }

    /// One incremental round: splits `budget_watts` across `requests` (one
    /// per slot) through `policy`, re-arbitrating only the dirty slots of
    /// the round's participant list (see the module docs); the awards are
    /// then [`Self::awards`]. A slot never seen before grows the columns
    /// and is dirty by definition. The round classifies the participants,
    /// hands the policy `requests` with the ascending dirty slots as its
    /// participant list under the residual
    /// `budget − Σ sleeping held − Σ clean held`, scatters the awards into
    /// the held column, then (scheduler on) puts steady slots to sleep —
    /// O(participants).
    ///
    /// # Panics
    ///
    /// Panics if `requests` is shorter than the slot count.
    pub fn arbitrate(
        &mut self,
        policy: &mut dyn ArbitrationPolicy,
        budget_watts: f64,
        requests: &[AppRequest],
    ) -> IncrementalOutcome {
        self.begin_round(requests.len());
        // Wakes raised mid-round (a watchdog transition after the caller's
        // observe stage) still join this round's classification.
        self.merge_pending();

        // ---- Classify the participants -----------------------------
        // "Moved" unless the delta is *strictly inside* the tolerance, so
        // tolerance 0 marks everything and a NaN delta always re-enters.
        let mut outcome = IncrementalOutcome {
            slept: self.sleeping_active,
            ..IncrementalOutcome::default()
        };
        self.dirty_slots.clear();
        for &index in &self.awake {
            let slot = index as usize;
            let delta = request_delta(&requests[slot], &self.last_requests[slot]);
            let moved =
                delta.partial_cmp(&self.schedule.tolerance) != Some(std::cmp::Ordering::Less);
            let dirty = self.fleet_dirty || self.marked[slot] || moved;
            self.marked[slot] = false;
            self.dirty[slot] = dirty;
            if dirty {
                self.dirty_slots.push(index);
                self.streak[slot] = 0;
                outcome.rearbitrated += usize::from(requests[slot].active);
            } else {
                self.streak[slot] = self.streak[slot].saturating_add(1);
                outcome.skipped += usize::from(requests[slot].active);
            }
        }
        self.fleet_dirty = false;

        // Every present slot is awake and dirty (the participants are
        // present slots, so equal lengths mean equal sets).
        let full = self.dirty_slots.len() == self.present.len();
        outcome.full = full;

        // ---- Hold clean + sleeping, fold the dirty residual --------
        // Clean awards clamp to the current ceiling (clamping only
        // shrinks), then the dirty set is arbitrated under the residual
        // budget — the delta update of the water level / clearing price. A
        // full round (always at tolerance 0; otherwise the first round or a
        // fleet-wide invalidation) holds nothing, so it folds the whole
        // budget, and it calls the policy even over an empty fleet, so a
        // stateful policy sees every round the plain full fold would. A
        // round with nothing dirty calls no policy at all — the
        // event-driven skip the engine exists for.
        let residual = if full {
            budget_watts
        } else {
            let mut held_total = self.sleeping_held_sum;
            for &index in &self.awake {
                let slot = index as usize;
                if self.dirty[slot] {
                    continue;
                }
                let held = self.held[slot].min(requests[slot].max_power_watts.max(0.0));
                self.held[slot] = held;
                held_total += held;
            }
            (budget_watts - held_total).max(0.0)
        };
        if full || !self.dirty_slots.is_empty() {
            policy.arbitrate(
                residual,
                requests,
                &self.dirty_slots,
                &mut self.dirty_awards,
            );
            for (&index, &award) in self.dirty_slots.iter().zip(&self.dirty_awards) {
                self.held[index as usize] = award;
                self.last_requests[index as usize] = requests[index as usize];
            }
        }

        if self.schedule.wake.enabled() {
            self.sleep_steady_slots(requests);
        }
        // This was the departing slots' absent round: they leave the
        // present list now, and the participant list — which the caller's
        // decide stage still walks — when the next round begins.
        if !self.departing.is_empty() {
            self.departing.sort_unstable();
            self.departing.dedup();
            debug_assert!(
                self.departing
                    .iter()
                    .all(|&index| self.held[index as usize] == 0.0),
                "a retired slot's request must be inactive in its absent round"
            );
            drop_sorted(&mut self.present, &self.departing);
            std::mem::swap(&mut self.departed, &mut self.departing);
        }
        self.round += 1;
        self.round_begun = false;
        outcome
    }

    /// Puts every participant clean for `steady_quanta` consecutive rounds
    /// to sleep with a `horizon`-round deadline. A sleeper stays in the
    /// participant list until the next [`Self::begin_round`], so the
    /// caller's decide stage still sees this round's full participant set.
    fn sleep_steady_slots(&mut self, requests: &[AppRequest]) {
        let steady_quanta = self.schedule.wake.steady_quanta.max(1);
        let horizon = self.schedule.wake.horizon as u64;
        for &index in &self.awake {
            let slot = index as usize;
            if self.dirty[slot] || self.streak[slot] < steady_quanta {
                continue;
            }
            self.sleeping[slot] = true;
            self.deadline[slot] = self.round + horizon;
            let bucket = ((self.round + horizon) % horizon) as usize;
            self.wheel[bucket].push(index);
            if requests[slot].active {
                self.sleeping_active += 1;
            }
            self.sleeping_held_sum += self.held[slot];
        }
    }
}

/// Removes from the ascending `list` every index in the ascending `gone`,
/// in one merge pass over both.
fn drop_sorted(list: &mut Vec<u32>, gone: &[u32]) {
    let mut gone = gone.iter().copied().peekable();
    list.retain(|&index| {
        while gone.next_if(|&next| next < index).is_some() {}
        gone.next_if_eq(&index).is_none()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        AwardHysteresis, PerformanceMarket, StarvationFloor, StaticShare, WeightedFair,
    };

    impl IncrementalArbiter {
        /// Sleeping slots whose snapshot request is active — the `slept`
        /// entry of the decide ledger for the round in progress.
        fn sleeping_active(&self) -> usize {
            self.sleeping_active
        }

        /// Whether `index` is currently asleep (always false with the
        /// scheduler off).
        pub(crate) fn is_sleeping(&self, index: usize) -> bool {
            self.sleeping.get(index).copied().unwrap_or(false)
        }
    }

    fn request(weight: f64, urgency: f64, ceiling: f64) -> AppRequest {
        AppRequest {
            active: true,
            weight,
            urgency,
            max_power_watts: ceiling,
        }
    }

    fn arbiter(tolerance: f64, wake: WakeConfig) -> IncrementalArbiter {
        IncrementalArbiter::new(ArbitrationSchedule { tolerance, wake }).unwrap()
    }

    /// One round of `engine`, with its award vector copied into `awards`.
    fn run_round(
        engine: &mut IncrementalArbiter,
        policy: &mut dyn ArbitrationPolicy,
        budget_watts: f64,
        requests: &[AppRequest],
        awards: &mut Vec<f64>,
    ) -> IncrementalOutcome {
        let outcome = engine.arbitrate(policy, budget_watts, requests);
        awards.clear();
        awards.extend_from_slice(engine.awards());
        outcome
    }

    #[test]
    fn tolerance_zero_is_bitwise_identical_to_the_full_fold() {
        let requests = vec![
            request(1.0, 1.3, 40.0),
            request(2.0, 0.8, 25.0),
            AppRequest {
                active: false,
                ..request(3.0, 1.0, 60.0)
            },
            request(0.5, 2.0, 15.0),
        ];
        for make in [
            || Box::new(StaticShare) as Box<dyn ArbitrationPolicy>,
            || Box::new(WeightedFair) as Box<dyn ArbitrationPolicy>,
            || Box::new(PerformanceMarket::default()) as Box<dyn ArbitrationPolicy>,
        ] {
            let mut full = make();
            let mut wrapped = make();
            let mut engine = arbiter(0.0, WakeConfig::OFF);
            let mut expected = Vec::new();
            let mut actual = Vec::new();
            for round in 0..4 {
                let budget = 60.0 + round as f64;
                full.arbitrate(budget, &requests, &[0, 1, 2, 3], &mut expected);
                let outcome = run_round(
                    &mut engine,
                    wrapped.as_mut(),
                    budget,
                    &requests,
                    &mut actual,
                );
                assert!(outcome.full, "tolerance 0 always runs the full fold");
                assert_eq!(outcome.skipped, 0);
                assert_eq!(outcome.slept, 0);
                assert_eq!(outcome.rearbitrated, 3, "active apps re-arbitrated");
                let expected_bits: Vec<u64> = expected.iter().map(|w| w.to_bits()).collect();
                let actual_bits: Vec<u64> = actual.iter().map(|w| w.to_bits()).collect();
                assert_eq!(expected_bits, actual_bits, "{}", full.name());
            }
        }
    }

    #[test]
    fn steady_requests_skip_and_hold_their_awards() {
        let requests = vec![request(1.0, 1.0, 40.0), request(1.0, 1.0, 40.0)];
        let mut policy = WeightedFair;
        let mut engine = arbiter(0.05, WakeConfig::OFF);
        let mut awards = Vec::new();
        let first = run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        assert!(first.full, "everything is dirty on the first round");
        let held = awards.clone();
        let second = run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        assert!(!second.full);
        assert_eq!(second.skipped, 2);
        assert_eq!(second.rearbitrated, 0);
        assert_eq!(awards, held, "held awards are byte-stable");
        assert!(engine.steady(0) && engine.steady(1));
    }

    #[test]
    fn a_moved_request_reenters_the_fold_and_budget_is_conserved() {
        let mut requests = vec![
            request(1.0, 1.0, 40.0),
            request(1.0, 1.0, 40.0),
            request(1.0, 1.0, 40.0),
        ];
        let mut policy = PerformanceMarket::default();
        let mut engine = arbiter(0.02, WakeConfig::OFF);
        let mut awards = Vec::new();
        run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        requests[1].urgency = 3.0; // far past the tolerance
        let round = run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        assert_eq!(round.rearbitrated, 1);
        assert_eq!(round.skipped, 2);
        assert!(engine.dirty_mask() == [false, true, false]);
        let total: f64 = awards.iter().sum();
        assert!(total <= 60.0 * (1.0 + 1e-9), "budget conserved: {total}");
        assert!(awards.iter().all(|w| w.is_finite() && *w >= 0.0));
    }

    #[test]
    fn lifecycle_marks_and_budget_changes_force_rearbitration() {
        let requests = vec![request(1.0, 1.0, 40.0), request(1.0, 1.0, 40.0)];
        let mut policy = WeightedFair;
        let mut engine = arbiter(0.1, WakeConfig::OFF);
        let mut awards = Vec::new();
        run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        engine.mark_dirty(0);
        assert!(!engine.steady(0), "a marked slot is not steady");
        let round = run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        assert!(engine.dirty_mask() == [true, false]);
        assert_eq!(round.rearbitrated, 1);
        engine.mark_all_dirty();
        let round = run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        assert!(round.full, "fleet-wide marks run the full fold");
    }

    #[test]
    fn presence_flips_and_new_slots_are_always_dirty() {
        let mut requests = vec![request(1.0, 1.0, 40.0)];
        let mut policy = StaticShare;
        let mut engine = arbiter(0.5, WakeConfig::OFF);
        let mut awards = Vec::new();
        run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        // A newly-registered slot and a departure both re-enter the fold.
        requests.push(request(1.0, 1.0, 40.0));
        requests[0].active = false;
        let round = run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        assert!(round.full, "both slots dirty");
        assert_eq!(awards[0], 0.0, "absent slots are awarded exactly 0");
    }

    #[test]
    fn a_retired_slot_leaves_the_list_after_one_absent_round() {
        let config = WakeConfig {
            steady_quanta: 1,
            horizon: 4,
        };
        let mut engine = arbiter(0.05, config);
        let mut policy = WeightedFair;
        let mut requests = vec![request(1.0, 1.0, 40.0); 3];
        let mut awards = Vec::new();
        run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        assert!(engine.is_sleeping(1));
        // The caller retires slot 1 (its request turns absent): it wakes,
        // and its one absent round re-arbitrates it to exactly 0 W and
        // still lists it for the caller's decide stage.
        requests[1].active = false;
        engine.retire(1);
        let round = run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        assert_eq!(round.rearbitrated, 0);
        assert_eq!(awards[1].to_bits(), 0.0f64.to_bits());
        assert!(engine.awake_slots().contains(&1));
        assert_eq!(
            engine.present(),
            &[0, 2],
            "it left the present list at once"
        );
        // From then on no wake path brings it back: a budget step, the
        // deadline wheel, nor a schedule change.
        engine.mark_all_dirty();
        assert_eq!(engine.begin_round(3), &[0, 2]);
        for _ in 0..2 * config.horizon {
            let round = run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
            assert!(!engine.awake_slots().contains(&1));
            assert_eq!(round.slept + round.skipped + round.rearbitrated, 2);
            assert_eq!(awards[1].to_bits(), 0.0f64.to_bits());
        }
        engine.set_schedule(ArbitrationSchedule::default());
        assert_eq!(engine.begin_round(3), &[0, 2]);
        let round = run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        assert!(round.full, "every present slot re-arbitrates");
        assert_eq!(awards[1].to_bits(), 0.0f64.to_bits());
        // A slot retired before the schedule changes still gets its absent
        // round under the new schedule, then leaves.
        requests[2].active = false;
        engine.retire(2);
        engine.set_schedule(ArbitrationSchedule {
            tolerance: 0.05,
            wake: config,
        });
        run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        assert_eq!(engine.awake_slots(), &[0, 2]);
        assert_eq!(engine.present(), &[0]);
        assert_eq!(engine.begin_round(3), &[0]);
    }

    /// The lengths of the seven per-slot columns.
    fn column_lengths(engine: &IncrementalArbiter) -> [usize; 7] {
        [
            engine.last_requests.len(),
            engine.held.len(),
            engine.marked.len(),
            engine.dirty.len(),
            engine.sleeping.len(),
            engine.streak.len(),
            engine.deadline.len(),
        ]
    }

    #[test]
    fn ensure_capacity_grows_every_column_together() {
        let mut engine = arbiter(0.05, WakeConfig::default());
        engine.ensure_capacity(3);
        assert_eq!(column_lengths(&engine), [3; 7]);
        assert_eq!(engine.awards(), &[0.0; 3], "a new slot holds 0 W");
        assert!(
            engine.marked.iter().all(|&marked| marked),
            "and starts marked"
        );
        assert_eq!(engine.present(), &[0, 1, 2]);
        assert_eq!(engine.awake_slots(), &[0, 1, 2]);
        // Growing after a round keeps every existing slot's award and adds
        // 0 W slots; growing to the current count changes nothing.
        let requests = vec![request(1.0, 1.0, 40.0); 3];
        engine.arbitrate(&mut WeightedFair, 60.0, &requests);
        let held = engine.awards().to_vec();
        engine.ensure_capacity(5);
        engine.ensure_capacity(5);
        assert_eq!(column_lengths(&engine), [5; 7]);
        assert_eq!(&engine.awards()[..3], &held[..]);
        assert_eq!(&engine.awards()[3..], &[0.0; 2]);
        assert_eq!(engine.present(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn marks_on_a_slot_not_yet_grown_wait_for_its_first_round() {
        let config = WakeConfig {
            steady_quanta: 1,
            horizon: 4,
        };
        let mut engine = arbiter(0.05, config);
        let mut policy = WeightedFair;
        let mut requests = vec![request(1.0, 1.0, 40.0); 2];
        engine.arbitrate(&mut policy, 60.0, &requests);
        engine.arbitrate(&mut policy, 60.0, &requests);
        assert!(engine.is_sleeping(0) && engine.is_sleeping(1));
        let held = engine.awards().to_vec();
        // Slot 2 is marked and retired before the engine has grown it:
        // nothing changes but the departure it books.
        engine.mark_dirty(2);
        engine.retire(2);
        assert_eq!(column_lengths(&engine), [2; 7]);
        assert_eq!(engine.awards(), &held[..]);
        assert_eq!(engine.present(), &[0, 1]);
        assert!(engine.pending_wakes.is_empty());
        assert!(engine.is_sleeping(0) && engine.is_sleeping(1));
        // Its first round grows it dirty, awards it 0 W and departs it.
        requests.push(AppRequest::ABSENT);
        let round = engine.arbitrate(&mut policy, 60.0, &requests);
        assert_eq!(engine.dirty_mask(), &[false, false, true]);
        assert_eq!((round.slept, round.rearbitrated), (2, 0));
        assert_eq!(engine.awards()[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(engine.awake_slots(), &[2]);
        assert_eq!(engine.present(), &[0, 1]);
        assert!(engine.begin_round(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "slots are never compacted")]
    fn a_request_slice_shorter_than_the_slot_count_panics() {
        let mut engine = arbiter(0.0, WakeConfig::OFF);
        engine.ensure_capacity(3);
        engine.arbitrate(&mut WeightedFair, 60.0, &[request(1.0, 1.0, 40.0); 2]);
    }

    #[test]
    fn non_finite_tolerance_is_refused() {
        for tolerance in [f64::NAN, f64::INFINITY, -0.1] {
            let schedule = ArbitrationSchedule {
                tolerance,
                wake: WakeConfig::default(),
            };
            let refused = IncrementalArbiter::new(schedule).unwrap_err();
            assert!(
                matches!(refused, ScheduleError::InvalidTolerance(t) if t.to_bits() == tolerance.to_bits()),
                "{refused:?}"
            );
        }
    }

    // ---- Wake scheduler ------------------------------------------------

    #[test]
    fn horizon_zero_wake_config_is_bit_identical_to_no_wake_config() {
        let mut plain = arbiter(0.05, WakeConfig::OFF);
        let mut zeroed = arbiter(
            0.05,
            WakeConfig {
                steady_quanta: 4,
                horizon: 0,
            },
        );
        assert!(!zeroed.schedule.wake.enabled());
        let mut policy_a = PerformanceMarket::default();
        let mut policy_b = PerformanceMarket::default();
        let mut requests = vec![
            request(1.0, 1.0, 40.0),
            request(2.0, 1.5, 30.0),
            request(0.5, 0.8, 20.0),
        ];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for round in 0..12 {
            // Churn one slot every third round.
            if round % 3 == 0 {
                let slot = round % requests.len();
                requests[slot].urgency = 1.0 + round as f64 * 0.4;
            }
            let oa = run_round(&mut plain, &mut policy_a, 55.0, &requests, &mut a);
            let ob = run_round(&mut zeroed, &mut policy_b, 55.0, &requests, &mut b);
            let bits_a: Vec<u64> = a.iter().map(|w| w.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|w| w.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "round {round}");
            assert_eq!(oa, ob, "round {round}");
            assert_eq!(ob.slept, 0, "horizon 0 never sleeps");
        }
    }

    #[test]
    fn steady_slots_sleep_hold_awards_and_the_ledger_partitions() {
        let config = WakeConfig {
            steady_quanta: 2,
            horizon: 8,
        };
        let mut engine = arbiter(0.05, config);
        let mut policy = PerformanceMarket::default();
        let requests = vec![
            request(1.0, 1.0, 40.0),
            request(2.0, 1.5, 30.0),
            AppRequest {
                active: false,
                ..request(1.0, 1.0, 10.0)
            },
        ];
        let mut awards = Vec::new();
        let mut baseline = Vec::new();
        for round in 0..6 {
            let outcome = run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
            let active = requests.iter().filter(|r| r.active).count();
            assert_eq!(
                outcome.slept + outcome.skipped + outcome.rearbitrated,
                active,
                "round {round}: every active slot is exactly one of slept/skipped/rearbitrated"
            );
            if round == 0 {
                baseline = awards.clone();
            } else {
                assert_eq!(awards, baseline, "steady awards are byte-stable");
            }
        }
        // Rounds 0 (full) and 1-2 (clean streaks) keep everyone awake;
        // after the streak reaches 2 the active slots sleep.
        assert!(engine.is_sleeping(0) && engine.is_sleeping(1));
        assert!(engine.is_sleeping(2), "inactive slots sleep too");
        assert_eq!(engine.sleeping_active(), 2);
        let outcome = run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        assert_eq!(outcome.slept, 2);
        assert_eq!(outcome.skipped, 0);
        assert_eq!(awards, baseline, "sleeping slots hold their awards");
    }

    #[test]
    fn deadline_expiry_wakes_a_sleeping_slot() {
        let config = WakeConfig {
            steady_quanta: 1,
            horizon: 3,
        };
        let mut engine = arbiter(0.05, config);
        let mut policy = WeightedFair;
        let requests = vec![request(1.0, 1.0, 40.0)];
        let mut awards = Vec::new();
        run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards); // full
        run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards); // clean -> sleeps
        assert!(engine.is_sleeping(0));
        // Sleeps through horizon - 1 rounds, then the wheel wakes it.
        let mut slept_rounds = 0;
        for _ in 0..config.horizon {
            let outcome = run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
            if outcome.slept == 1 {
                slept_rounds += 1;
            } else {
                break;
            }
        }
        assert_eq!(slept_rounds, config.horizon - 1, "bounded sleep");
        assert!(!engine.is_sleeping(0) || engine.sleeping_active() == 1);
    }

    #[test]
    fn an_external_wake_reenters_a_changed_request_and_conserves_budget() {
        let mut engine = arbiter(
            0.05,
            WakeConfig {
                steady_quanta: 1,
                horizon: 16,
            },
        );
        let mut policy = PerformanceMarket::default();
        let mut requests = vec![
            request(1.0, 1.0, 40.0),
            request(1.0, 1.0, 40.0),
            request(1.0, 1.0, 40.0),
        ];
        let mut awards = Vec::new();
        run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        assert_eq!(engine.sleeping_active(), 3);
        let held = awards.clone();
        // The caller saw slot 1 move: wake it with the new request.
        requests[1].urgency = 4.0;
        engine.wake(1);
        let outcome = run_round(&mut engine, &mut policy, 60.0, &requests, &mut awards);
        assert_eq!(outcome.rearbitrated, 1);
        assert_eq!(outcome.slept, 2);
        assert_eq!(awards[0], held[0], "sleepers hold their awards bitwise");
        assert_eq!(awards[2], held[2], "sleepers hold their awards bitwise");
        let total: f64 = awards.iter().sum();
        assert!(total <= 60.0 * (1.0 + 1e-9), "budget conserved: {total}");
        assert!(awards[1].is_finite() && awards[1] >= 0.0);
    }

    #[test]
    fn fleet_invalidation_wakes_everyone_for_a_full_fold() {
        let mut engine = arbiter(
            0.05,
            WakeConfig {
                steady_quanta: 1,
                horizon: 16,
            },
        );
        let mut policy = WeightedFair;
        let requests = vec![request(1.0, 1.0, 40.0), request(3.0, 1.0, 40.0)];
        let mut awards = Vec::new();
        run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        assert_eq!(engine.sleeping_active(), 2);
        // A budget step invalidates every held award: no slot sleeps
        // through it.
        engine.mark_all_dirty();
        assert_eq!(engine.sleeping_active(), 0);
        let outcome = run_round(&mut engine, &mut policy, 20.0, &requests, &mut awards);
        assert!(outcome.full, "everyone woken and re-folded");
        assert_eq!(outcome.slept, 0);
        let total: f64 = awards.iter().sum();
        assert!(
            total <= 20.0 * (1.0 + 1e-9),
            "new budget conserved: {total}"
        );
    }

    /// What one synthetic fleet trace booked, summed over its rounds.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct FleetLedger {
        active_slot_rounds: usize,
        slept: usize,
        skipped: usize,
        rearbitrated: usize,
        /// Rolling hash of every round's award bits.
        award_digest: u64,
    }

    /// Drives the wake-scheduled market engine over `slots` synthetic
    /// requests for `rounds` rounds. After the first round, 1 % of the
    /// requests move far past the tolerance and two slots flip presence
    /// (an arrival and a departure, roughly); each touched slot is woken,
    /// as the coordinator wakes a slot whose report moved. Asserts the
    /// slept + skipped + re-arbitrated ledger every round. The trace comes
    /// from a splitmix64 stream, so it is a pure function of `slots` and
    /// `rounds`.
    fn churning_fleet_trace(slots: usize, rounds: usize) -> FleetLedger {
        let mut state = 0xf1ee_7000 ^ slots as u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let mut requests: Vec<AppRequest> = (0..slots)
            .map(|_| AppRequest {
                active: unit() < 0.9,
                ..request(0.5 + 3.5 * unit(), 0.5 + 1.5 * unit(), 5.0 + 45.0 * unit())
            })
            .collect();
        let budget = 10.0 * slots as f64;
        let mut engine = arbiter(0.05, WakeConfig::default());
        let mut policy = PerformanceMarket::default();
        let mut awards = Vec::new();
        let mut ledger = FleetLedger::default();
        let pick = |draw: f64| ((draw * slots as f64) as usize).min(slots - 1);
        for round in 0..rounds {
            if round > 0 {
                for _ in 0..slots / 100 {
                    let slot = pick(unit());
                    // Urgency stays in [0.5, 2.0) and moves by 0.75: at
                    // least 37 %, far past the 5 % tolerance.
                    let urgency = &mut requests[slot].urgency;
                    *urgency += if *urgency < 1.25 { 0.75 } else { -0.75 };
                    engine.wake(slot);
                }
                for _ in 0..2 {
                    let slot = pick(unit());
                    requests[slot].active = !requests[slot].active;
                    engine.wake(slot);
                }
            }
            let outcome = run_round(&mut engine, &mut policy, budget, &requests, &mut awards);
            let active = requests.iter().filter(|r| r.active).count();
            assert_eq!(
                outcome.slept + outcome.skipped + outcome.rearbitrated,
                active,
                "round {round}: every active slot is exactly one of slept/skipped/rearbitrated"
            );
            ledger.active_slot_rounds += active;
            ledger.slept += outcome.slept;
            ledger.skipped += outcome.skipped;
            ledger.rearbitrated += outcome.rearbitrated;
            for award in &awards {
                ledger.award_digest = ledger.award_digest.rotate_left(7) ^ award.to_bits();
            }
        }
        ledger
    }

    /// The engine-level ledger at fleet scale: on a 2 000-slot market fleet
    /// with 1 % churn, every active slot-round is booked exactly once, and
    /// sleep and skip — not re-arbitration — carry the fleet. This trace
    /// books slept 84.8 %, skipped 10.1 % and re-arbitrated 5.2 % of
    /// 42 960 active slot-rounds, the first (full) round included; the
    /// bounds below leave about ten points of margin on each side. The
    /// trace is deterministic, so a second run books identical counters and
    /// identical awards.
    #[test]
    fn a_churning_fleet_mostly_sleeps_and_books_every_active_slot_round() {
        let ledger = churning_fleet_trace(2_000, 24);
        assert_eq!(
            ledger.slept + ledger.skipped + ledger.rearbitrated,
            ledger.active_slot_rounds,
            "{ledger:?}"
        );
        let share = |count: usize| count as f64 / ledger.active_slot_rounds as f64;
        assert!(
            share(ledger.slept) > 0.75,
            "sleep carries the fleet: {ledger:?}"
        );
        assert!(
            share(ledger.skipped) > 0.0,
            "awake steady slots skip: {ledger:?}"
        );
        assert!(
            share(ledger.rearbitrated) < 0.15,
            "re-arbitration stays rare: {ledger:?}"
        );
        assert_eq!(
            ledger,
            churning_fleet_trace(2_000, 24),
            "the trace is deterministic"
        );
    }

    /// Test-only masked oracle: the wrapped policy sees the fleet-length
    /// request slice with every slot off the round's dirty list masked
    /// inactive (`active && dirty`) under the identity list `0..n` — the
    /// plain full-slice fold — and hands back the participants' awards.
    struct MaskedOracle(Box<dyn ArbitrationPolicy>);
    impl ArbitrationPolicy for MaskedOracle {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn arbitrate(
            &mut self,
            budget: f64,
            requests: &[AppRequest],
            participants: &[u32],
            awards: &mut Vec<f64>,
        ) {
            let mut masked: Vec<AppRequest> = requests
                .iter()
                .map(|request| AppRequest {
                    active: false,
                    ..*request
                })
                .collect();
            for &slot in participants {
                masked[slot as usize].active = requests[slot as usize].active;
            }
            let every: Vec<u32> = (0..requests.len() as u32).collect();
            let mut fleet = Vec::new();
            self.0.arbitrate(budget, &masked, &every, &mut fleet);
            awards.clear();
            awards.extend(participants.iter().map(|&slot| fleet[slot as usize]));
        }
    }

    /// The five policies of the property suite (the three stateless ones,
    /// the stateful [`AwardHysteresis`] and the [`StarvationFloor`]) plus
    /// the fuzz probe's slew-limited hysteresis market.
    fn oracle_policies() -> Vec<Box<dyn ArbitrationPolicy>> {
        vec![
            Box::new(StaticShare),
            Box::new(WeightedFair),
            Box::new(PerformanceMarket::default()),
            Box::new(AwardHysteresis::new(
                Box::new(PerformanceMarket::default()),
                0.05,
            )),
            Box::new(StarvationFloor::new(Box::new(WeightedFair), 0.2)),
            Box::new(
                AwardHysteresis::new(Box::new(PerformanceMarket::default()), 0.02)
                    .with_max_step_fraction(0.02),
            ),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The engine's policy call must produce the masked oracle's award
        /// bits and ledger for every policy, at tolerance 0 and positive
        /// tolerances, with the wake scheduler off (horizon 0) and on,
        /// through request moves, registrations and retirements.
        #[test]
        fn the_engine_fold_matches_the_masked_oracle(
            budgets in proptest::collection::vec(1.0..400.0f64, 10),
            budget_steps in proptest::collection::vec(0usize..3, 10),
            actives in proptest::collection::vec(0usize..4, 12),
            weights in proptest::collection::vec(0.1..8.0f64, 32),
            ceilings in proptest::collection::vec(0.5..100.0f64, 32),
            moved_slots in proptest::collection::vec(0usize..32, 20),
            moved_urgencies in proptest::collection::vec(0.05..10.0f64, 20),
            churn in proptest::collection::vec(0usize..8, 10),
            retired_slots in proptest::collection::vec(0usize..32, 10),
            zero_tolerance in 0usize..4,
            tolerance in 0.001..0.3f64,
            horizon in 0usize..9,
        ) {
            // One case in four runs at tolerance 0.
            let tolerance = if zero_tolerance == 0 { 0.0 } else { tolerance };
            let config = WakeConfig { steady_quanta: 1, horizon };
            for (mut policy, inner) in oracle_policies().into_iter().zip(oracle_policies()) {
                let mut oracle = MaskedOracle(inner);
                let mut engine = arbiter(tolerance, config);
                let mut masked = arbiter(tolerance, config);
                // One slot in four starts absent.
                let mut requests: Vec<AppRequest> = (0..actives.len())
                    .map(|i| AppRequest {
                        active: actives[i] != 0,
                        ..request(weights[i], 1.0, ceilings[i])
                    })
                    .collect();
                let mut retired = vec![false; requests.len()];
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let mut budget = budgets[0];
                for round in 0..budgets.len() {
                    // The budget steps one round in three, so holds happen.
                    if budget_steps[round] == 0 {
                        budget = budgets[round];
                    }
                    // Churn: register a slot (bit 0), retire one (bit 1),
                    // register one that retires before its first round
                    // (bit 2) — the fleet grows while no active set moves.
                    if churn[round] & 1 == 1 {
                        let slot = requests.len();
                        requests.push(request(weights[slot % 32], 1.0, ceilings[slot % 32]));
                        retired.push(false);
                    }
                    if churn[round] & 4 == 4 {
                        requests.push(AppRequest::ABSENT);
                        retired.push(true);
                        engine.retire(requests.len() - 1);
                        masked.retire(requests.len() - 1);
                    }
                    let slot = retired_slots[round] % requests.len();
                    if churn[round] & 2 == 2 && !retired[slot] {
                        retired[slot] = true;
                        requests[slot].active = false;
                        engine.retire(slot);
                        masked.retire(slot);
                    }
                    // Move two live slots; wake them in both engines.
                    for pick in [2 * round, 2 * round + 1] {
                        let slot = moved_slots[pick] % requests.len();
                        if !retired[slot] {
                            requests[slot].urgency = moved_urgencies[pick];
                            engine.wake(slot);
                            masked.wake(slot);
                        }
                    }
                    let oa = run_round(&mut engine, policy.as_mut(), budget, &requests, &mut a);
                    let ob = run_round(&mut masked, &mut oracle, budget, &requests, &mut b);
                    let bits_a: Vec<u64> = a.iter().map(|w| w.to_bits()).collect();
                    let bits_b: Vec<u64> = b.iter().map(|w| w.to_bits()).collect();
                    proptest::prop_assert!(
                        bits_a == bits_b && oa == ob,
                        "{} round {round}: {a:?} / {oa:?} vs {b:?} / {ob:?}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn begin_round_exposes_the_awake_list_for_caller_stages() {
        let mut engine = arbiter(
            0.05,
            WakeConfig {
                steady_quanta: 1,
                horizon: 8,
            },
        );
        let mut policy = WeightedFair;
        let requests = vec![request(1.0, 1.0, 40.0), request(1.0, 1.0, 40.0)];
        let mut awards = Vec::new();
        assert_eq!(engine.begin_round(2), &[0, 1]);
        run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        run_round(&mut engine, &mut policy, 50.0, &requests, &mut awards);
        // Both slots slept at the end of the last round, but leave the
        // participant list only when the next round begins.
        assert_eq!(engine.awake_slots(), &[0, 1]);
        assert!(engine.begin_round(2).is_empty());
        // Without wake scheduling every round lists the whole fleet, steady
        // or not, and a grown fleet joins the list in order.
        let mut off = arbiter(0.05, WakeConfig::OFF);
        assert_eq!(off.begin_round(2), &[0, 1]);
        for _ in 0..3 {
            run_round(&mut off, &mut policy, 50.0, &requests, &mut awards);
            assert_eq!(off.awake_slots(), &[0, 1]);
        }
        assert_eq!(off.begin_round(3), &[0, 1, 2]);
    }
}
