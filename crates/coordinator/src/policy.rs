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

/// A strategy for splitting a machine power budget into per-app envelopes.
///
/// Policies are pluggable: implement the trait and hand the box to
/// [`crate::Coordinator::new`]. A minimal custom policy — strict priority,
/// highest weight first, each app taking what it can absorb:
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
///     fn arbitrate(&mut self, budget: f64, requests: &[AppRequest], awards: &mut Vec<f64>) {
///         awards.clear();
///         awards.resize(requests.len(), 0.0);
///         // Highest weight first; ties resolve by index for determinism.
///         let mut order: Vec<usize> = (0..requests.len()).collect();
///         order.sort_by(|&a, &b| {
///             requests[b].weight.total_cmp(&requests[a].weight).then(a.cmp(&b))
///         });
///         let mut remaining = budget;
///         for i in order {
///             if !requests[i].active || remaining <= 0.0 {
///                 continue;
///             }
///             awards[i] = requests[i].max_power_watts.clamp(0.0, remaining);
///             remaining -= awards[i];
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
/// StrictPriority.arbitrate(50.0, &requests, &mut awards);
/// assert_eq!(awards, vec![10.0, 40.0, 0.0]); // heavy first, absent app 0 W
/// assert!(awards.iter().sum::<f64>() <= 50.0); // budget conserved
/// ```
pub trait ArbitrationPolicy: Send {
    /// Short policy name for reports and JSON output.
    fn name(&self) -> &'static str;

    /// Splits `budget_watts` across `requests`, writing one award (watts)
    /// per request into `awards` (cleared first, so the buffer is reusable).
    ///
    /// Contract: `awards.len() == requests.len()`, every award is
    /// non-negative and finite, inactive requests are awarded 0, and the
    /// sum of awards is at most `budget_watts` (within floating-point
    /// round-off).
    fn arbitrate(&mut self, budget_watts: f64, requests: &[AppRequest], awards: &mut Vec<f64>);

    /// True when every award depends only on the *participating* requests —
    /// their values and their relative order — never on absolute slot
    /// indices or on state carried between calls. Deleting inactive rows
    /// from the slice then leaves every surviving award bit-identical
    /// (water-filling folds its participants in ascending index order, so
    /// the partial sums are unchanged). The incremental engine's wake
    /// scheduler uses this to arbitrate a *compacted* slice of just the
    /// dirty slots instead of a fleet-length masked one.
    ///
    /// Defaults to `false`: stateful policies that key held state on slot
    /// position (e.g. [`AwardHysteresis`]) must never be compacted.
    fn index_invariant(&self) -> bool {
        false
    }
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

    fn index_invariant(&self) -> bool {
        true // stateless; awards depend on the active count and each row
    }

    fn arbitrate(&mut self, budget_watts: f64, requests: &[AppRequest], awards: &mut Vec<f64>) {
        awards.clear();
        let active = requests.iter().filter(|r| r.active).count();
        if active == 0 || budget_watts.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            awards.extend(std::iter::repeat_n(0.0, requests.len()));
            return;
        }
        if budget_watts.is_infinite() {
            award_ceilings(requests, awards);
            return;
        }
        let share = budget_watts / active as f64;
        awards.extend(
            requests
                .iter()
                .map(|r| if r.active { share.min(r.max_power_watts.max(0.0)) } else { 0.0 }),
        );
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

    fn index_invariant(&self) -> bool {
        true // stateless water-fill in ascending index order
    }

    fn arbitrate(&mut self, budget_watts: f64, requests: &[AppRequest], awards: &mut Vec<f64>) {
        water_fill(budget_watts, requests, awards, |r| r.weight);
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

    fn index_invariant(&self) -> bool {
        true // stateless water-fill over per-row bids
    }

    fn arbitrate(&mut self, budget_watts: f64, requests: &[AppRequest], awards: &mut Vec<f64>) {
        let (lo, hi) = (self.min_urgency, self.max_urgency);
        water_fill(budget_watts, requests, awards, |r| {
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
/// unsound or mask a real change: the fleet's size or active set changed,
/// the budget dropped below what the held vector spends, or any held award
/// now exceeds a request's absorption ceiling.
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
/// policy.arbitrate(60.0, &requests, &mut awards);
/// assert_eq!(awards, vec![30.0, 30.0]);
///
/// // A sub-dead-band wiggle (weight 1.0 -> 1.05 proposes ~0.7 W of
/// // movement, under 5% of 60 W): the held vector is re-issued.
/// requests[0].weight = 1.05;
/// policy.arbitrate(60.0, &requests, &mut awards);
/// assert_eq!(awards, vec![30.0, 30.0]);
///
/// // A real shift (weight 3.0) clears the band and is adopted.
/// requests[0].weight = 3.0;
/// policy.arbitrate(60.0, &requests, &mut awards);
/// assert_eq!(awards, vec![45.0, 15.0]);
/// ```
pub struct AwardHysteresis {
    inner: Box<dyn ArbitrationPolicy>,
    dead_band_fraction: f64,
    max_step_fraction: f64,
    held_awards: Vec<f64>,
    held_active: Vec<bool>,
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
            held_awards: Vec::new(),
            held_active: Vec::new(),
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

    /// True when the held vector is still *structurally* valid: same fleet
    /// shape and active set, finite budget, and under every absorption
    /// ceiling. Affordability is judged separately — a hold needs the held
    /// spend to fit the budget outright, while the slew path can scale the
    /// vector down to fit.
    fn structurally_reusable(&self, budget: f64, requests: &[AppRequest], proposal: &[f64]) -> bool {
        self.held_awards.len() == proposal.len()
            && budget.is_finite()
            && !self
                .held_active
                .iter()
                .zip(requests)
                .any(|(&held, request)| held != request.active)
            && self
                .held_awards
                .iter()
                .zip(requests)
                .all(|(&held, request)| held <= request.max_power_watts.max(0.0) + 1e-9)
    }

    /// True when the held vector can stand in for `proposal` this quantum:
    /// same fleet shape and active set, still affordable under `budget`,
    /// under every ceiling, and within the dead band of the proposal.
    fn can_hold(&self, budget: f64, requests: &[AppRequest], proposal: &[f64]) -> bool {
        if !self.structurally_reusable(budget, requests, proposal) {
            return false;
        }
        if self.held_awards.iter().sum::<f64>() > budget * (1.0 + 1e-9) {
            return false;
        }
        let band = self.dead_band_fraction * budget;
        self.held_awards
            .iter()
            .zip(proposal)
            .all(|(&held, &fresh)| (fresh - held).abs() <= band)
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

    fn arbitrate(&mut self, budget_watts: f64, requests: &[AppRequest], awards: &mut Vec<f64>) {
        self.inner.arbitrate(budget_watts, requests, &mut self.proposal);
        let hold = self.dead_band_fraction > 0.0
            && self.can_hold(budget_watts, requests, &self.proposal);
        if !hold {
            if self.max_step_fraction > 0.0
                && self.structurally_reusable(budget_watts, requests, &self.proposal)
            {
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
                self.held_awards.clear();
                self.held_awards.extend_from_slice(&self.proposal);
                self.held_active.clear();
                self.held_active.extend(requests.iter().map(|r| r.active));
            }
        }
        awards.clear();
        awards.extend_from_slice(&self.held_awards);
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
/// policy.arbitrate(100.0, &requests, &mut awards);
/// assert!(awards[1] >= 10.0);
/// assert!(awards.iter().sum::<f64>() <= 100.0 + 1e-9);
/// ```
pub struct StarvationFloor {
    inner: Box<dyn ArbitrationPolicy>,
    floor_share: f64,
    floors: Vec<f64>,
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
            floors: Vec::new(),
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

    fn index_invariant(&self) -> bool {
        // Floors are per-row functions of the active count; invariance is
        // inherited from whatever divides the rest.
        self.inner.index_invariant()
    }

    fn arbitrate(&mut self, budget_watts: f64, requests: &[AppRequest], awards: &mut Vec<f64>) {
        let active = requests.iter().filter(|r| r.active).count();
        if active == 0
            || self.floor_share <= 0.0
            || !budget_watts.is_finite()
            || budget_watts.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            // Nothing to reserve: degenerate cases fall through unchanged.
            self.inner.arbitrate(budget_watts, requests, awards);
            return;
        }
        let seat = self.floor_share * budget_watts / active as f64;
        self.floors.clear();
        self.floors.extend(requests.iter().map(|request| {
            if request.active {
                seat.min(request.max_power_watts.max(0.0))
            } else {
                0.0
            }
        }));
        let reserved: f64 = self.floors.iter().sum();
        // The inner pass sees each ceiling reduced by the seat already
        // granted, so `floor + inner` never exceeds what an app can absorb.
        self.adjusted.clear();
        self.adjusted
            .extend(requests.iter().zip(&self.floors).map(|(request, &floor)| {
                AppRequest {
                    max_power_watts: (request.max_power_watts - floor).max(0.0),
                    ..*request
                }
            }));
        self.inner.arbitrate(
            (budget_watts - reserved).max(0.0),
            &self.adjusted,
            &mut self.inner_awards,
        );
        awards.clear();
        awards.extend(
            self.floors
                .iter()
                .zip(&self.inner_awards)
                .map(|(&floor, &inner)| floor + inner),
        );
    }
}

/// Water-filling proportional division: split `budget_watts` among active
/// requests proportionally to `key`, clamping each award at the request's
/// `max_power_watts` and re-dividing the freed surplus among the unclamped
/// until the budget is exhausted or everyone is clamped. Deterministic:
/// requests are processed in index order every round.
fn water_fill<K: Fn(&AppRequest) -> f64>(
    budget_watts: f64,
    requests: &[AppRequest],
    awards: &mut Vec<f64>,
    key: K,
) {
    awards.clear();
    awards.extend(std::iter::repeat_n(0.0, requests.len()));
    if budget_watts.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return;
    }
    if budget_watts.is_infinite() {
        // An unbounded budget has no proportional division to do (and the
        // arithmetic below would produce non-finite awards): everyone gets
        // what they can absorb.
        award_ceilings(requests, awards);
        return;
    }
    // `open[i]`: still participating in proportional division.
    let mut open: Vec<bool> = requests.iter().map(|r| r.active).collect();
    let mut remaining = budget_watts;
    // Each round clamps at least one request, so at most `len` rounds.
    for _ in 0..requests.len() {
        let total_key: f64 = requests
            .iter()
            .zip(&open)
            .filter(|(_, &o)| o)
            .map(|(r, _)| key(r).max(0.0))
            .sum();
        if total_key.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || remaining.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            break;
        }
        let mut clamped_any = false;
        let per_key = remaining / total_key;
        for (i, request) in requests.iter().enumerate() {
            if !open[i] {
                continue;
            }
            let share = per_key * key(request).max(0.0);
            let ceiling = request.max_power_watts.max(0.0);
            if awards[i] + share >= ceiling {
                // Clamp and leave the pool; the surplus stays in
                // `remaining` for the next round.
                remaining -= ceiling - awards[i];
                awards[i] = ceiling;
                open[i] = false;
                clamped_any = true;
            }
        }
        if !clamped_any {
            // No ceilings hit: hand out the proportional shares and stop.
            for (i, request) in requests.iter().enumerate() {
                if open[i] {
                    awards[i] += per_key * key(request).max(0.0);
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

/// Awards every active request its absorption ceiling — the degenerate
/// division under an unbounded budget. Ceilings are saturated at
/// `f64::MAX` so the "every award is finite" contract holds even for
/// requests that declared an infinite ceiling.
fn award_ceilings(requests: &[AppRequest], awards: &mut Vec<f64>) {
    awards.clear();
    awards.extend(requests.iter().map(|request| {
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
        policy.arbitrate(60.0, &requests, &mut awards);
        assert_eq!(awards, vec![30.0, 0.0, 30.0]);
        assert_eq!(policy.name(), "static-share");
    }

    #[test]
    fn static_share_clamps_to_what_an_app_can_absorb() {
        let mut policy = StaticShare;
        let mut awards = Vec::new();
        policy.arbitrate(100.0, &[request(1.0, 1.0, 10.0), request(1.0, 1.0, 100.0)], &mut awards);
        // The clamped app's surplus is NOT redistributed: that is the point.
        assert_eq!(awards, vec![10.0, 50.0]);
    }

    #[test]
    fn weighted_fair_is_proportional_and_water_fills() {
        let mut policy = WeightedFair;
        let mut awards = Vec::new();
        policy.arbitrate(
            90.0,
            &[request(1.0, 1.0, 1000.0), request(2.0, 1.0, 1000.0)],
            &mut awards,
        );
        assert!((awards[0] - 30.0).abs() < 1e-9);
        assert!((awards[1] - 60.0).abs() < 1e-9);
        // Clamp the heavy app at 40 W: its surplus flows to the light one.
        policy.arbitrate(
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
        policy.arbitrate(
            80.0,
            &[request(1.0, 1.0, 1000.0), request(1.0, 3.0, 1000.0)],
            &mut awards,
        );
        assert!((awards[0] - 20.0).abs() < 1e-9);
        assert!((awards[1] - 60.0).abs() < 1e-9);
        // Urgency is clamped: a starving app cannot corner the budget.
        policy.arbitrate(
            80.0,
            &[request(1.0, 1.0, 1000.0), request(1.0, 1.0e9, 1000.0)],
            &mut awards,
        );
        assert!(awards[0] > 0.0);
        assert!((awards[1] / awards[0] - policy.max_urgency).abs() < 1e-9);
        // Unobservable progress bids the ceiling, not NaN.
        policy.arbitrate(
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
        StaticShare.arbitrate(100.0, &inactive, &mut awards);
        assert_eq!(awards, vec![0.0]);
        WeightedFair.arbitrate(100.0, &inactive, &mut awards);
        assert_eq!(awards, vec![0.0]);
        PerformanceMarket::default().arbitrate(100.0, &inactive, &mut awards);
        assert_eq!(awards, vec![0.0]);
        StaticShare.arbitrate(100.0, &[], &mut awards);
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
            policy.arbitrate(f64::INFINITY, &requests, &mut awards);
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
        policy.arbitrate(80.0, &requests, &mut awards);
        assert_eq!(awards, vec![40.0, 40.0]);

        // An urgency limit-cycle inside the band is flattened out.
        for step in 0..6 {
            requests[step % 2].urgency = 1.05;
            requests[(step + 1) % 2].urgency = 1.0;
            policy.arbitrate(80.0, &requests, &mut awards);
            assert_eq!(awards, vec![40.0, 40.0], "held through wiggle {step}");
        }

        // An app departing invalidates the held vector immediately.
        requests[1].active = false;
        policy.arbitrate(80.0, &requests, &mut awards);
        assert_eq!(awards[1], 0.0);
        assert!(awards[0] > 40.0);

        // A budget step below the held spend also forces re-adoption.
        requests[1].active = true;
        policy.arbitrate(80.0, &requests, &mut awards);
        let before: f64 = total(&awards);
        policy.arbitrate(30.0, &requests, &mut awards);
        assert!(total(&awards) <= 30.0 + 1e-9, "was {before}, now {awards:?}");
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
            fn arbitrate(&mut self, budget: f64, _: &[AppRequest], awards: &mut Vec<f64>) {
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
        bare.arbitrate(100.0, &requests, &mut awards);
        let first = awards.clone();
        bare.arbitrate(100.0, &requests, &mut awards);
        assert!((awards[0] - first[0]).abs() > 2.0, "swing passes the band");

        // With it, no award ever moves more than the step per quantum and
        // the total stays conserved: the 50 W cycle decays into sub-band
        // dither an oscillation oracle reads as no material move at all.
        let mut damped =
            AwardHysteresis::new(Box::new(Swing(0)), 0.02).with_max_step_fraction(0.02);
        assert_eq!(damped.max_step_fraction(), 0.02);
        let mut previous: Option<Vec<f64>> = None;
        for quantum in 0..50 {
            damped.arbitrate(100.0, &requests, &mut awards);
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
        damped.arbitrate(100.0, &changed, &mut awards);
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
            wrapped.arbitrate(90.0, &requests, &mut a);
            bare.arbitrate(90.0, &requests, &mut b);
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
        bare.arbitrate(100.0, &requests, &mut awards);
        let starved = awards[1];

        let mut floored =
            StarvationFloor::new(Box::new(PerformanceMarket::default()), 0.2);
        assert_eq!(floored.name(), "starvation-floor");
        floored.arbitrate(100.0, &requests, &mut awards);
        assert!(awards[1] >= 10.0, "floor seat guaranteed, got {}", awards[1]);
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
        policy.arbitrate(100.0, &requests, &mut awards);
        assert!(awards[0] <= 2.0 + 1e-9, "never above the ceiling: {awards:?}");
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
            policy.arbitrate(f64::INFINITY, &requests, &mut awards);
            assert!(
                awards.iter().all(|a| a.is_finite() && *a >= 0.0),
                "{}: {awards:?}",
                policy.name()
            );
            policy.arbitrate(0.0, &requests, &mut awards);
            assert_eq!(awards, vec![0.0, 0.0], "{}", policy.name());
            policy.arbitrate(f64::NAN, &requests, &mut awards);
            assert_eq!(awards, vec![0.0, 0.0], "{}", policy.name());
        }
    }

    #[test]
    fn everyone_clamped_leaves_budget_unspent() {
        let mut policy = WeightedFair;
        let mut awards = Vec::new();
        policy.arbitrate(100.0, &[request(1.0, 1.0, 10.0), request(5.0, 1.0, 15.0)], &mut awards);
        assert_eq!(awards, vec![10.0, 15.0]);
    }
}
