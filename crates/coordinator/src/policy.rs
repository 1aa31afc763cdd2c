//! Power-budget arbitration policies.
//!
//! Every decision quantum, the [`crate::Coordinator`] turns each
//! application's state into an [`AppRequest`] and asks an
//! [`ArbitrationPolicy`] to split the machine's power budget into per-app
//! envelopes. Policies are pluggable; three ship with the crate:
//!
//! * [`StaticShare`] — the budget divided equally among present apps,
//! * [`WeightedFair`] — water-filling proportional to priority weight,
//! * [`PerformanceMarket`] — water-filling proportional to
//!   `weight × heartbeat-gap urgency`, so applications behind on their
//!   goals outbid applications already meeting them.
//!
//! Every policy must *conserve the budget*: the awards of present apps sum
//! to at most the budget, and absent apps are awarded exactly zero. The
//! property suite (`tests/arbitration_props.rs`) pins this for arbitrary
//! app mixes, along with [`WeightedFair`]'s weight monotonicity.

/// One application's state, as the arbiter sees it this quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppRequest {
    /// Whether the application is present (arrived and not yet departed).
    /// Absent applications must be awarded exactly 0 W.
    pub active: bool,
    /// Priority weight; higher is more important. Must be positive.
    pub weight: f64,
    /// Heartbeat-gap urgency: the ratio of the application's target heart
    /// rate to its observed rate (1.0 = exactly on goal, above 1.0 =
    /// falling behind). 1.0 when the application has no feedback yet.
    pub urgency: f64,
    /// The most power the application can usefully absorb, in watts (its
    /// most expensive configuration). Awards above this are wasted, so
    /// water-filling policies redistribute the surplus.
    pub max_power_watts: f64,
}

impl AppRequest {
    /// An absent slot's row: the filler of slot-indexed request columns.
    pub(crate) const ABSENT: AppRequest = AppRequest {
        active: false,
        weight: 1.0,
        urgency: 1.0,
        max_power_watts: 0.0,
    };
}

/// A strategy for splitting a machine power budget into per-app envelopes.
///
/// Policies are pluggable: implement the trait and hand the box to
/// [`crate::Coordinator::new`]. A call names its participants: ascending
/// slot indices into the request slice (the engine's dirty slots, the
/// datacenter's racks). A minimal custom policy — strict priority, highest
/// weight first, each app taking what it can absorb:
///
/// ```
/// use coordinator::{AppRequest, ArbitrationPolicy};
///
/// struct StrictPriority;
///
/// impl ArbitrationPolicy for StrictPriority {
///     fn name(&self) -> &'static str {
///         "strict-priority"
///     }
///
///     fn arbitrate(
///         &mut self,
///         budget: f64,
///         requests: &[AppRequest],
///         participants: &[u32],
///         awards: &mut Vec<f64>,
///     ) {
///         awards.clear();
///         awards.resize(participants.len(), 0.0);
///         let row = |k: usize| &requests[participants[k] as usize];
///         // Highest weight first; ties resolve by slot for determinism.
///         let mut order: Vec<usize> = (0..participants.len()).collect();
///         order.sort_by(|&a, &b| row(b).weight.total_cmp(&row(a).weight).then(a.cmp(&b)));
///         let mut remaining = budget;
///         for k in order {
///             if !row(k).active || remaining <= 0.0 {
///                 continue;
///             }
///             awards[k] = row(k).max_power_watts.clamp(0.0, remaining);
///             remaining -= awards[k];
///         }
///     }
/// }
///
/// let requests = [
///     AppRequest { active: true, weight: 1.0, urgency: 1.0, max_power_watts: 40.0 },
///     AppRequest { active: true, weight: 4.0, urgency: 1.0, max_power_watts: 40.0 },
///     AppRequest { active: false, weight: 9.0, urgency: 1.0, max_power_watts: 40.0 },
/// ];
/// let mut awards = Vec::new();
/// StrictPriority.arbitrate(50.0, &requests, &[0, 1, 2], &mut awards);
/// assert_eq!(awards, vec![10.0, 40.0, 0.0]); // heavy first, absent app 0 W
/// assert!(awards.iter().sum::<f64>() <= 50.0); // budget conserved
///
/// // Slot 1 sits this call out: its row is never read.
/// StrictPriority.arbitrate(50.0, &requests, &[0, 2], &mut awards);
/// assert_eq!(awards, vec![40.0, 0.0]);
/// ```
pub trait ArbitrationPolicy: Send {
    /// Short policy name for reports and JSON output.
    fn name(&self) -> &'static str;

    /// Splits `budget_watts` among `participants` — ascending indices into
    /// the slot-indexed `requests` — writing the award (watts) of
    /// `participants[k]` into `awards[k]` (`awards` is cleared first, so the
    /// buffer is reusable).
    ///
    /// Contract: `awards.len() == participants.len()`, no row off the list
    /// is read, every award is non-negative and finite, inactive
    /// participants are awarded 0, and the sum of awards is at most
    /// `budget_watts` (within floating-point round-off). The shipped
    /// stateless policies fold the listed rows in list order, so their
    /// awards depend only on those rows' values and order; a stateful
    /// policy ([`AwardHysteresis`]) keys its held state on the slot indices
    /// it is handed.
    fn arbitrate(
        &mut self,
        budget_watts: f64,
        requests: &[AppRequest],
        participants: &[u32],
        awards: &mut Vec<f64>,
    );
}

/// The participants' rows of `requests`, in list order.
fn rows<'a>(
    requests: &'a [AppRequest],
    participants: &'a [u32],
) -> impl Iterator<Item = &'a AppRequest> {
    participants.iter().map(|&slot| &requests[slot as usize])
}

/// Equal static shares: the budget divided by the number of present
/// applications, clamped to what each can absorb. Surplus from clamped
/// applications is *not* redistributed — the shares are static, which is
/// precisely this policy's weakness and why it is the arbitration baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticShare;

impl ArbitrationPolicy for StaticShare {
    fn name(&self) -> &'static str {
        "static-share"
    }

    fn arbitrate(
        &mut self,
        budget_watts: f64,
        requests: &[AppRequest],
        participants: &[u32],
        awards: &mut Vec<f64>,
    ) {
        awards.clear();
        let active = rows(requests, participants).filter(|r| r.active).count();
        if active == 0 || budget_watts.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            awards.extend(std::iter::repeat_n(0.0, participants.len()));
            return;
        }
        if budget_watts.is_infinite() {
            award_ceilings(requests, participants, awards);
            return;
        }
        let share = budget_watts / active as f64;
        awards.extend(rows(requests, participants).map(|r| {
            if r.active {
                share.min(r.max_power_watts.max(0.0))
            } else {
                0.0
            }
        }));
    }
}

/// Weighted max-min fairness: awards proportional to priority weight, with
/// water-filling — an application clamped at what it can absorb returns its
/// surplus to the pool, which is re-divided among the still-unclamped by
/// weight until the budget is spent or everyone is satisfied.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedFair;

impl ArbitrationPolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "weighted-fair"
    }

    fn arbitrate(
        &mut self,
        budget_watts: f64,
        requests: &[AppRequest],
        participants: &[u32],
        awards: &mut Vec<f64>,
    ) {
        water_fill(budget_watts, requests, participants, awards, |r| r.weight);
    }
}

/// A bid-based performance market: each application bids
/// `weight × urgency`, so applications behind on their heartbeat goals
/// outbid applications already meeting them, weighted by how much the
/// operator cares. Awards are water-filled proportional to bids.
#[derive(Debug, Clone, Copy)]
pub struct PerformanceMarket {
    /// Urgency is clamped into `[min_urgency, max_urgency]` before bidding,
    /// so an idle app still bids something (it needs power to keep making
    /// progress) and a starving app cannot corner the entire budget.
    pub min_urgency: f64,
    /// Upper urgency clamp.
    pub max_urgency: f64,
}

impl Default for PerformanceMarket {
    fn default() -> Self {
        PerformanceMarket {
            min_urgency: 0.25,
            max_urgency: 8.0,
        }
    }
}

impl ArbitrationPolicy for PerformanceMarket {
    fn name(&self) -> &'static str {
        "performance-market"
    }

    fn arbitrate(
        &mut self,
        budget_watts: f64,
        requests: &[AppRequest],
        participants: &[u32],
        awards: &mut Vec<f64>,
    ) {
        let (lo, hi) = (self.min_urgency, self.max_urgency);
        water_fill(budget_watts, requests, participants, awards, |r| {
            let urgency = if r.urgency.is_finite() && r.urgency > 0.0 {
                r.urgency.clamp(lo, hi)
            } else {
                hi // no observable progress at all: bid the ceiling
            };
            r.weight * urgency
        });
    }
}

/// Hysteresis wrapper: suppresses award oscillation by holding the previous
/// award vector when the inner policy's fresh proposal differs by less than
/// a dead band.
///
/// Feedback-driven policies (notably [`PerformanceMarket`]) can *limit-cycle*:
/// an app that wins watts speeds up, its urgency drops, it loses the watts
/// next quantum, slows down, and wins them back — forever. The fuzzer's
/// pinned `oscillation` fixture is exactly this orbit. The wrapper breaks
/// the cycle without touching steady-state fairness: each quantum the inner
/// policy proposes a fresh vector, and the proposal is *adopted* only when
/// some award moved by more than `dead_band_fraction × budget`; otherwise
/// the previous awards are re-issued unchanged.
///
/// Reuse is refused (the proposal is always adopted) whenever it could be
/// unsound or mask a real change: the fleet's size (the request slice's
/// length) or the set of active participants changed, the budget dropped
/// below what the held vector spends, or any held award now exceeds a
/// request's absorption ceiling. Held awards are keyed on the slot indices
/// of the participants.
///
/// A dead band alone cannot damp a *large*-amplitude limit cycle — when the
/// market swings an award by a third of the budget each quantum, every
/// proposal clears the band and is adopted whole, flip after flip. The
/// optional slew limit ([`AwardHysteresis::with_max_step_fraction`]) closes
/// that gap: a released proposal is approached, not adopted — the whole
/// vector moves proportionally toward it, with no single award moving more
/// than `max_step_fraction × budget` in one quantum. Sustained
/// redistribution still arrives (as a ramp over a few quanta); a limit
/// cycle decays into sub-band dither the hold then flattens. Proportional
/// movement keeps the emitted vector between two conserving vectors, so it
/// conserves the budget whenever the inner policy does.
///
/// ```
/// use coordinator::{AppRequest, ArbitrationPolicy, AwardHysteresis, WeightedFair};
///
/// let mut policy = AwardHysteresis::new(Box::new(WeightedFair), 0.05);
/// let mut awards = Vec::new();
/// let mut requests = [
///     AppRequest { active: true, weight: 1.0, urgency: 1.0, max_power_watts: 100.0 },
///     AppRequest { active: true, weight: 1.0, urgency: 1.0, max_power_watts: 100.0 },
/// ];
/// policy.arbitrate(60.0, &requests, &[0, 1], &mut awards);
/// assert_eq!(awards, vec![30.0, 30.0]);
///
/// // A sub-dead-band wiggle (weight 1.0 -> 1.05 proposes ~0.7 W of
/// // movement, under 5% of 60 W): the held vector is re-issued.
/// requests[0].weight = 1.05;
/// policy.arbitrate(60.0, &requests, &[0, 1], &mut awards);
/// assert_eq!(awards, vec![30.0, 30.0]);
///
/// // A real shift (weight 3.0) clears the band and is adopted.
/// requests[0].weight = 3.0;
/// policy.arbitrate(60.0, &requests, &[0, 1], &mut awards);
/// assert_eq!(awards, vec![45.0, 15.0]);
/// ```
pub struct AwardHysteresis {
    inner: Box<dyn ArbitrationPolicy>,
    dead_band_fraction: f64,
    max_step_fraction: f64,
    /// The request slice's length at the last adoption.
    held_fleet: usize,
    /// The ascending active participants at the last adoption, and the
    /// award each holds.
    held_slots: Vec<u32>,
    held_awards: Vec<f64>,
    /// The inner policy's awards, then the active participants' share of
    /// them in list order.
    proposal: Vec<f64>,
}

impl AwardHysteresis {
    /// Wraps `inner`, holding its previous award vector until a fresh
    /// proposal moves some award by more than `dead_band_fraction` of the
    /// budget (clamped into `[0, 1]`; 0 disables the hold entirely).
    pub fn new(inner: Box<dyn ArbitrationPolicy>, dead_band_fraction: f64) -> Self {
        AwardHysteresis {
            inner,
            dead_band_fraction: if dead_band_fraction.is_finite() {
                dead_band_fraction.clamp(0.0, 1.0)
            } else {
                0.0
            },
            max_step_fraction: 0.0,
            held_fleet: 0,
            held_slots: Vec::new(),
            held_awards: Vec::new(),
            proposal: Vec::new(),
        }
    }

    /// Enables the slew limit: a released proposal is approached
    /// proportionally, with no single award moving more than
    /// `max_step_fraction` of the budget per quantum (clamped into
    /// `[0, 1]`; 0 restores whole-vector adoption). Structural changes —
    /// fleet shape, active set, a ceiling the held vector now violates —
    /// still adopt the fresh proposal outright.
    pub fn with_max_step_fraction(mut self, max_step_fraction: f64) -> Self {
        self.max_step_fraction = if max_step_fraction.is_finite() {
            max_step_fraction.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }

    /// The configured dead band, as a fraction of the budget.
    pub fn dead_band_fraction(&self) -> f64 {
        self.dead_band_fraction
    }

    /// The configured slew limit, as a fraction of the budget (0 when
    /// disabled).
    pub fn max_step_fraction(&self) -> f64 {
        self.max_step_fraction
    }
}

impl std::fmt::Debug for AwardHysteresis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AwardHysteresis")
            .field("inner", &self.inner.name())
            .field("dead_band_fraction", &self.dead_band_fraction)
            .finish_non_exhaustive()
    }
}

impl ArbitrationPolicy for AwardHysteresis {
    fn name(&self) -> &'static str {
        "award-hysteresis"
    }

    fn arbitrate(
        &mut self,
        budget_watts: f64,
        requests: &[AppRequest],
        participants: &[u32],
        awards: &mut Vec<f64>,
    ) {
        self.inner
            .arbitrate(budget_watts, requests, participants, &mut self.proposal);
        // Inactive participants are awarded 0 W and hold nothing: keep the
        // active participants' proposals.
        let active = || {
            participants
                .iter()
                .copied()
                .filter(|&slot| requests[slot as usize].active)
        };
        let mut kept = 0;
        for (k, &slot) in participants.iter().enumerate() {
            if requests[slot as usize].active {
                self.proposal[kept] = self.proposal[k];
                kept += 1;
            }
        }
        self.proposal.truncate(kept);
        // The held vector is structurally valid with the same fleet shape and
        // active participants, a finite budget, and no held award above its
        // ceiling. A hold also needs the held spend to fit the budget
        // outright, while the slew path can scale the vector down to fit.
        let reusable = self.held_fleet == requests.len()
            && budget_watts.is_finite()
            && active().eq(self.held_slots.iter().copied())
            && self
                .held_slots
                .iter()
                .zip(&self.held_awards)
                .all(|(&slot, &held)| {
                    held <= requests[slot as usize].max_power_watts.max(0.0) + 1e-9
                });
        let band = self.dead_band_fraction * budget_watts;
        let hold = self.dead_band_fraction > 0.0
            && reusable
            && self.held_awards.iter().sum::<f64>() <= budget_watts * (1.0 + 1e-9)
            && self
                .held_awards
                .iter()
                .zip(&self.proposal)
                .all(|(&held, &fresh)| (fresh - held).abs() <= band);
        if !hold {
            if self.max_step_fraction > 0.0 && reusable {
                // Slew toward the released proposal: scale the held vector
                // down if a budget cut made it unaffordable, then move the
                // whole vector proportionally so no award steps more than
                // the slew limit. Every emitted award lies between its held
                // and proposed values, so conservation and ceilings carry
                // over from the two endpoint vectors.
                let held_sum: f64 = self.held_awards.iter().sum();
                if held_sum > budget_watts {
                    let scale = budget_watts.max(0.0) / held_sum;
                    for held in &mut self.held_awards {
                        *held *= scale;
                    }
                }
                let widest = self
                    .held_awards
                    .iter()
                    .zip(&self.proposal)
                    .map(|(&held, &fresh)| (fresh - held).abs())
                    .fold(0.0, f64::max);
                let step = self.max_step_fraction * budget_watts;
                let advance = if widest > step { step / widest } else { 1.0 };
                for (held, &fresh) in self.held_awards.iter_mut().zip(&self.proposal) {
                    *held += advance * (fresh - *held);
                }
            } else {
                self.held_fleet = requests.len();
                self.held_slots.clear();
                self.held_slots.extend(active());
                std::mem::swap(&mut self.held_awards, &mut self.proposal);
            }
        }
        // Either way the held slots are this call's active participants.
        let mut held = self.held_awards.iter();
        awards.clear();
        awards.extend(rows(requests, participants).map(|request| {
            if request.active {
                *held.next().expect("one held award per active participant")
            } else {
                0.0
            }
        }));
    }
}

/// Starvation-floor wrapper: reserves an opt-in minimum envelope share for
/// every present application before the inner policy divides the rest.
///
/// Urgency- and weight-driven policies can starve a low-priority app
/// outright when heavy apps can absorb the whole budget. The wrapper
/// guarantees each active app at least
/// `floor_share × budget / active_count` (clamped to the app's own
/// absorption ceiling, so an app that cannot use its floor seat returns the
/// surplus), then lets the inner policy arbitrate the remaining budget on
/// top. Awards are `floor + inner award`, so the wrapper conserves the
/// budget whenever the inner policy does.
///
/// ```
/// use coordinator::{AppRequest, ArbitrationPolicy, StarvationFloor, WeightedFair};
///
/// // Weight 99 vs 1: bare WeightedFair awards the light app 1 W of 100.
/// let requests = [
///     AppRequest { active: true, weight: 99.0, urgency: 1.0, max_power_watts: 1000.0 },
///     AppRequest { active: true, weight: 1.0, urgency: 1.0, max_power_watts: 1000.0 },
/// ];
/// let mut awards = Vec::new();
/// // A 20% floor reserves 10 W per app; the inner policy splits the rest.
/// let mut policy = StarvationFloor::new(Box::new(WeightedFair), 0.2);
/// policy.arbitrate(100.0, &requests, &[0, 1], &mut awards);
/// assert!(awards[1] >= 10.0);
/// assert!(awards.iter().sum::<f64>() <= 100.0 + 1e-9);
/// ```
pub struct StarvationFloor {
    inner: Box<dyn ArbitrationPolicy>,
    floor_share: f64,
    /// Slot-indexed like the requests; only participants' rows are written.
    adjusted: Vec<AppRequest>,
    inner_awards: Vec<f64>,
}

impl StarvationFloor {
    /// Wraps `inner`, reserving `floor_share` of the budget (clamped into
    /// `[0, 1]`; 0 disables the floor) as equal minimum seats for active
    /// apps.
    pub fn new(inner: Box<dyn ArbitrationPolicy>, floor_share: f64) -> Self {
        StarvationFloor {
            inner,
            floor_share: if floor_share.is_finite() {
                floor_share.clamp(0.0, 1.0)
            } else {
                0.0
            },
            adjusted: Vec::new(),
            inner_awards: Vec::new(),
        }
    }

    /// The fraction of the budget reserved for minimum seats.
    pub fn floor_share(&self) -> f64 {
        self.floor_share
    }
}

impl std::fmt::Debug for StarvationFloor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StarvationFloor")
            .field("inner", &self.inner.name())
            .field("floor_share", &self.floor_share)
            .finish_non_exhaustive()
    }
}

impl ArbitrationPolicy for StarvationFloor {
    fn name(&self) -> &'static str {
        "starvation-floor"
    }

    fn arbitrate(
        &mut self,
        budget_watts: f64,
        requests: &[AppRequest],
        participants: &[u32],
        awards: &mut Vec<f64>,
    ) {
        let active = rows(requests, participants).filter(|r| r.active).count();
        if active == 0
            || self.floor_share <= 0.0
            || !budget_watts.is_finite()
            || budget_watts.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            // Nothing to reserve: degenerate cases fall through unchanged.
            self.inner
                .arbitrate(budget_watts, requests, participants, awards);
            return;
        }
        // Each participant's seat is its award's first term.
        let seat = self.floor_share * budget_watts / active as f64;
        awards.clear();
        awards.extend(rows(requests, participants).map(|request| {
            if request.active {
                seat.min(request.max_power_watts.max(0.0))
            } else {
                0.0
            }
        }));
        let reserved: f64 = awards.iter().sum();
        // The inner pass sees each ceiling reduced by the seat already
        // granted, so `floor + inner` never exceeds what an app can absorb.
        // It gets the same list, so a stateful inner policy still sees
        // slot indices.
        self.adjusted.resize(requests.len(), AppRequest::ABSENT);
        for (&slot, &floor) in participants.iter().zip(awards.iter()) {
            let request = requests[slot as usize];
            self.adjusted[slot as usize] = AppRequest {
                max_power_watts: (request.max_power_watts - floor).max(0.0),
                ..request
            };
        }
        self.inner.arbitrate(
            (budget_watts - reserved).max(0.0),
            &self.adjusted,
            participants,
            &mut self.inner_awards,
        );
        for (award, &inner) in awards.iter_mut().zip(&self.inner_awards) {
            *award += inner;
        }
    }
}

/// Water-filling proportional division: split `budget_watts` among the
/// active participants proportionally to `key`, clamping each award at the
/// request's `max_power_watts` and re-dividing the freed surplus among the
/// unclamped until the budget is exhausted or everyone is clamped.
/// Deterministic: participants are processed in list order every round.
fn water_fill<K: Fn(&AppRequest) -> f64>(
    budget_watts: f64,
    requests: &[AppRequest],
    participants: &[u32],
    awards: &mut Vec<f64>,
    key: K,
) {
    awards.clear();
    awards.extend(std::iter::repeat_n(0.0, participants.len()));
    if budget_watts.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return;
    }
    if budget_watts.is_infinite() {
        // An unbounded budget has no proportional division to do (and the
        // arithmetic below would produce non-finite awards): everyone gets
        // what they can absorb.
        award_ceilings(requests, participants, awards);
        return;
    }
    // Per participant, gathered once: its bid, its ceiling, and whether it
    // is still open for proportional division.
    let mut pool: Vec<(f64, f64, bool)> = rows(requests, participants)
        .map(|r| (key(r).max(0.0), r.max_power_watts.max(0.0), r.active))
        .collect();
    let mut remaining = budget_watts;
    // Each round clamps at least one request, so at most `len` rounds.
    for _ in 0..participants.len() {
        let total_key: f64 = pool.iter().filter(|p| p.2).map(|p| p.0).sum();
        if total_key.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || remaining.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            break;
        }
        let mut clamped_any = false;
        let per_key = remaining / total_key;
        for (award, (bid, ceiling, open)) in awards.iter_mut().zip(&mut pool) {
            if *open && *award + per_key * *bid >= *ceiling {
                // Clamp and leave the pool; the surplus stays in
                // `remaining` for the next round.
                remaining -= *ceiling - *award;
                *award = *ceiling;
                *open = false;
                clamped_any = true;
            }
        }
        if !clamped_any {
            // No ceilings hit: hand out the proportional shares and stop.
            for (award, &(bid, _, open)) in awards.iter_mut().zip(&pool) {
                if open {
                    *award += per_key * bid;
                }
            }
            break;
        }
    }
    debug_assert!(
        awards.iter().sum::<f64>() <= budget_watts * (1.0 + 1e-9),
        "water-fill must conserve the budget"
    );
}

/// Awards every active participant its absorption ceiling — the degenerate
/// division under an unbounded budget. Ceilings are saturated at
/// `f64::MAX` so the "every award is finite" contract holds even for
/// requests that declared an infinite ceiling.
fn award_ceilings(requests: &[AppRequest], participants: &[u32], awards: &mut Vec<f64>) {
    awards.clear();
    awards.extend(rows(requests, participants).map(|request| {
        if request.active {
            request.max_power_watts.clamp(0.0, f64::MAX)
        } else {
            0.0
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(weight: f64, urgency: f64, max: f64) -> AppRequest {
        AppRequest {
            active: true,
            weight,
            urgency,
            max_power_watts: max,
        }
    }

    fn total(awards: &[f64]) -> f64 {
        awards.iter().sum()
    }

    /// The full-slice call: every slot takes part, in slot order.
    trait Fold {
        fn fold(&mut self, budget: f64, requests: &[AppRequest], awards: &mut Vec<f64>);
    }

    impl<P: ArbitrationPolicy + ?Sized> Fold for P {
        fn fold(&mut self, budget: f64, requests: &[AppRequest], awards: &mut Vec<f64>) {
            let every: Vec<u32> = (0..requests.len() as u32).collect();
            self.arbitrate(budget, requests, &every, awards);
        }
    }

    #[test]
    fn static_share_divides_equally_and_zeroes_absent_apps() {
        let mut policy = StaticShare;
        let mut awards = Vec::new();
        let requests = [
            request(1.0, 1.0, 100.0),
            AppRequest {
                active: false,
                ..request(9.0, 9.0, 100.0)
            },
            request(4.0, 1.0, 100.0),
        ];
        policy.fold(60.0, &requests, &mut awards);
        assert_eq!(awards, vec![30.0, 0.0, 30.0]);
        assert_eq!(policy.name(), "static-share");
    }

    #[test]
    fn static_share_clamps_to_what_an_app_can_absorb() {
        let mut policy = StaticShare;
        let mut awards = Vec::new();
        policy.fold(
            100.0,
            &[request(1.0, 1.0, 10.0), request(1.0, 1.0, 100.0)],
            &mut awards,
        );
        // The clamped app's surplus is NOT redistributed: that is the point.
        assert_eq!(awards, vec![10.0, 50.0]);
    }

    #[test]
    fn weighted_fair_is_proportional_and_water_fills() {
        let mut policy = WeightedFair;
        let mut awards = Vec::new();
        policy.fold(
            90.0,
            &[request(1.0, 1.0, 1000.0), request(2.0, 1.0, 1000.0)],
            &mut awards,
        );
        assert!((awards[0] - 30.0).abs() < 1e-9);
        assert!((awards[1] - 60.0).abs() < 1e-9);
        // Clamp the heavy app at 40 W: its surplus flows to the light one.
        policy.fold(
            90.0,
            &[request(1.0, 1.0, 1000.0), request(2.0, 1.0, 40.0)],
            &mut awards,
        );
        assert!((awards[1] - 40.0).abs() < 1e-9);
        assert!((awards[0] - 50.0).abs() < 1e-9);
        assert!(total(&awards) <= 90.0 + 1e-9);
    }

    #[test]
    fn market_pays_urgent_apps_more() {
        let mut policy = PerformanceMarket::default();
        let mut awards = Vec::new();
        // Equal weights; app 0 is on goal (urgency 1), app 1 is 3x behind.
        policy.fold(
            80.0,
            &[request(1.0, 1.0, 1000.0), request(1.0, 3.0, 1000.0)],
            &mut awards,
        );
        assert!((awards[0] - 20.0).abs() < 1e-9);
        assert!((awards[1] - 60.0).abs() < 1e-9);
        // Urgency is clamped: a starving app cannot corner the budget.
        policy.fold(
            80.0,
            &[request(1.0, 1.0, 1000.0), request(1.0, 1.0e9, 1000.0)],
            &mut awards,
        );
        assert!(awards[0] > 0.0);
        assert!((awards[1] / awards[0] - policy.max_urgency).abs() < 1e-9);
        // Unobservable progress bids the ceiling, not NaN.
        policy.fold(
            80.0,
            &[request(1.0, f64::NAN, 1000.0), request(1.0, 1.0, 1000.0)],
            &mut awards,
        );
        assert!(total(&awards) <= 80.0 + 1e-9);
        assert!(awards[0] > awards[1]);
    }

    #[test]
    fn empty_or_inactive_fleets_award_nothing() {
        let mut awards = Vec::new();
        let inactive = [AppRequest {
            active: false,
            ..request(1.0, 1.0, 100.0)
        }];
        StaticShare.fold(100.0, &inactive, &mut awards);
        assert_eq!(awards, vec![0.0]);
        WeightedFair.fold(100.0, &inactive, &mut awards);
        assert_eq!(awards, vec![0.0]);
        PerformanceMarket::default().fold(100.0, &inactive, &mut awards);
        assert_eq!(awards, vec![0.0]);
        StaticShare.fold(100.0, &[], &mut awards);
        assert!(awards.is_empty());
    }

    #[test]
    fn infinite_budget_awards_finite_ceilings() {
        // An uncapped machine is documented as supported; awards must stay
        // finite even when an app's own ceiling is unknown (infinite).
        let mut awards = Vec::new();
        let requests = [
            request(1.0, 1.0, f64::INFINITY),
            request(2.0, 3.0, 40.0),
            AppRequest {
                active: false,
                ..request(1.0, 1.0, 10.0)
            },
        ];
        let mut policies: Vec<Box<dyn ArbitrationPolicy>> = vec![
            Box::new(StaticShare),
            Box::new(WeightedFair),
            Box::new(PerformanceMarket::default()),
        ];
        for policy in &mut policies {
            policy.fold(f64::INFINITY, &requests, &mut awards);
            assert!(
                awards.iter().all(|a| a.is_finite() && *a >= 0.0),
                "{}: {awards:?}",
                policy.name()
            );
            assert_eq!(awards[1], 40.0, "{}", policy.name());
            assert_eq!(awards[2], 0.0, "{}", policy.name());
        }
    }

    #[test]
    fn hysteresis_holds_small_wiggles_and_releases_on_fleet_changes() {
        let mut policy = AwardHysteresis::new(Box::new(PerformanceMarket::default()), 0.05);
        assert_eq!(policy.name(), "award-hysteresis");
        let mut awards = Vec::new();
        let mut requests = vec![request(1.0, 1.0, 1000.0), request(1.0, 1.0, 1000.0)];
        policy.fold(80.0, &requests, &mut awards);
        assert_eq!(awards, vec![40.0, 40.0]);

        // An urgency limit-cycle inside the band is flattened out.
        for step in 0..6 {
            requests[step % 2].urgency = 1.05;
            requests[(step + 1) % 2].urgency = 1.0;
            policy.fold(80.0, &requests, &mut awards);
            assert_eq!(awards, vec![40.0, 40.0], "held through wiggle {step}");
        }

        // An app departing invalidates the held vector immediately.
        requests[1].active = false;
        policy.fold(80.0, &requests, &mut awards);
        assert_eq!(awards[1], 0.0);
        assert!(awards[0] > 40.0);

        // A budget step below the held spend also forces re-adoption.
        requests[1].active = true;
        policy.fold(80.0, &requests, &mut awards);
        let before: f64 = total(&awards);
        policy.fold(30.0, &requests, &mut awards);
        assert!(
            total(&awards) <= 30.0 + 1e-9,
            "was {before}, now {awards:?}"
        );

        // A sub-band wiggle while the fleet grows by an absent slot (one
        // registered and retired before its first step): the active set is
        // unchanged, but the fleet's shape is not, so the proposal is
        // adopted rather than held.
        policy.fold(30.0, &requests, &mut awards);
        requests[0].urgency = 1.05;
        requests.push(AppRequest::ABSENT);
        policy.fold(30.0, &requests, &mut awards);
        let mut fresh = Vec::new();
        PerformanceMarket::default().fold(30.0, &requests, &mut fresh);
        assert_eq!(awards, fresh, "a grown fleet adopts");
    }

    #[test]
    fn slew_limit_damps_a_large_limit_cycle_into_the_band() {
        // A scripted inner policy that swings one app's award by half the
        // budget every quantum — the large-amplitude cycle a dead band
        // alone cannot hold.
        struct Swing(usize);
        impl ArbitrationPolicy for Swing {
            fn name(&self) -> &'static str {
                "swing"
            }
            fn arbitrate(
                &mut self,
                budget: f64,
                _: &[AppRequest],
                _: &[u32],
                awards: &mut Vec<f64>,
            ) {
                let hi = 0.75 * budget;
                let lo = 0.25 * budget;
                awards.clear();
                if self.0.is_multiple_of(2) {
                    awards.extend([hi, lo]);
                } else {
                    awards.extend([lo, hi]);
                }
                self.0 += 1;
            }
        }
        let requests = vec![request(1.0, 1.0, 1000.0), request(1.0, 1.0, 1000.0)];

        // Without the slew limit every swing is adopted whole.
        let mut bare = AwardHysteresis::new(Box::new(Swing(0)), 0.02);
        let mut awards = Vec::new();
        bare.fold(100.0, &requests, &mut awards);
        let first = awards.clone();
        bare.fold(100.0, &requests, &mut awards);
        assert!((awards[0] - first[0]).abs() > 2.0, "swing passes the band");

        // With it, no award ever moves more than the step per quantum and
        // the total stays conserved: the 50 W cycle decays into sub-band
        // dither an oscillation oracle reads as no material move at all.
        let mut damped =
            AwardHysteresis::new(Box::new(Swing(0)), 0.02).with_max_step_fraction(0.02);
        assert_eq!(damped.max_step_fraction(), 0.02);
        let mut previous: Option<Vec<f64>> = None;
        for quantum in 0..50 {
            damped.fold(100.0, &requests, &mut awards);
            assert!(total(&awards) <= 100.0 + 1e-9);
            if let Some(previous) = previous {
                let widest = awards
                    .iter()
                    .zip(&previous)
                    .map(|(&a, &b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(widest <= 2.0 + 1e-9, "quantum {quantum} stepped {widest}");
            }
            previous = Some(awards.clone());
        }

        // A fleet change still releases the vector outright.
        let mut changed = requests.clone();
        changed[1].active = false;
        damped.fold(100.0, &changed, &mut awards);
        assert_eq!(awards.len(), 2);
    }

    #[test]
    fn hysteresis_with_zero_band_is_the_inner_policy() {
        let mut wrapped = AwardHysteresis::new(Box::new(WeightedFair), 0.0);
        let mut bare = WeightedFair;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for urgency in [1.0, 4.0, 0.5, 2.0] {
            let requests = [request(1.0, urgency, 1000.0), request(2.0, 1.0, 50.0)];
            wrapped.fold(90.0, &requests, &mut a);
            bare.fold(90.0, &requests, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn starvation_floor_feeds_the_lightest_app() {
        let requests = [
            request(99.0, 8.0, 1000.0),
            request(1.0, 0.25, 1000.0),
            AppRequest {
                active: false,
                ..request(1.0, 1.0, 1000.0)
            },
        ];
        let mut bare = PerformanceMarket::default();
        let mut awards = Vec::new();
        bare.fold(100.0, &requests, &mut awards);
        let starved = awards[1];

        let mut floored = StarvationFloor::new(Box::new(PerformanceMarket::default()), 0.2);
        assert_eq!(floored.name(), "starvation-floor");
        floored.fold(100.0, &requests, &mut awards);
        assert!(
            awards[1] >= 10.0,
            "floor seat guaranteed, got {}",
            awards[1]
        );
        assert!(awards[1] > starved);
        assert_eq!(awards[2], 0.0, "absent apps get no seat");
        assert!(total(&awards) <= 100.0 + 1e-9);
    }

    #[test]
    fn starvation_floor_returns_unusable_seats_to_the_pool() {
        // App 0 can only absorb 2 W; its 10 W seat is clamped and the
        // freed 8 W stays arbitrable by the inner policy.
        let requests = [request(1.0, 1.0, 2.0), request(1.0, 1.0, 1000.0)];
        let mut policy = StarvationFloor::new(Box::new(WeightedFair), 0.2);
        let mut awards = Vec::new();
        policy.fold(100.0, &requests, &mut awards);
        assert!(
            awards[0] <= 2.0 + 1e-9,
            "never above the ceiling: {awards:?}"
        );
        assert!(total(&awards) > 95.0, "freed seat reused: {awards:?}");
        assert!(total(&awards) <= 100.0 + 1e-9);
    }

    #[test]
    fn wrappers_preserve_degenerate_budget_handling() {
        let mut policies: Vec<Box<dyn ArbitrationPolicy>> = vec![
            Box::new(AwardHysteresis::new(Box::new(WeightedFair), 0.05)),
            Box::new(StarvationFloor::new(Box::new(WeightedFair), 0.25)),
        ];
        let requests = [request(1.0, 1.0, f64::INFINITY), request(2.0, 1.0, 40.0)];
        let mut awards = Vec::new();
        for policy in &mut policies {
            policy.fold(f64::INFINITY, &requests, &mut awards);
            assert!(
                awards.iter().all(|a| a.is_finite() && *a >= 0.0),
                "{}: {awards:?}",
                policy.name()
            );
            policy.fold(0.0, &requests, &mut awards);
            assert_eq!(awards, vec![0.0, 0.0], "{}", policy.name());
            policy.fold(f64::NAN, &requests, &mut awards);
            assert_eq!(awards, vec![0.0, 0.0], "{}", policy.name());
        }
    }

    #[test]
    fn everyone_clamped_leaves_budget_unspent() {
        let mut policy = WeightedFair;
        let mut awards = Vec::new();
        policy.fold(
            100.0,
            &[request(1.0, 1.0, 10.0), request(5.0, 1.0, 15.0)],
            &mut awards,
        );
        assert_eq!(awards, vec![10.0, 15.0]);
    }
}
