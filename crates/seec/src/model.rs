//! Online action model: what each configuration is believed to do.
//!
//! The SEEC runtime must often manage actions and applications it has no
//! prior experience with (DAC 2012 §3.3). It therefore seeds its model of
//! every configuration from the effects the actuator *designers* declared
//! (the multipliers in the actuator specification) and then corrects that
//! model from observation. When the model proves persistently wrong, an
//! exploration policy (the machine-learning layer) tries configurations the
//! model would not otherwise pick.
//!
//! ## Representation
//!
//! Configurations are interned into the [`ConfigTable`] arena and addressed
//! by copyable [`ConfigId`] handles. The table is shared by every model
//! over the same action space, and it holds the declared effects: both
//! declared sort orders as inline [`EffectKey`]s and the declared Pareto
//! staircase. What a model owns is per-application state, sized by what it
//! has observed, not by the space:
//! - the beliefs of the observed ids, sorted by id, with an id bitset (an
//!   unobserved id's belief is its declared effect);
//! - those ids' keys in (speedup, id) and (power, id) order — merged with
//!   the table's declared keys of the unobserved ids, they are the two
//!   believed orders;
//! - the *believed staircase*: every configuration at least as fast as
//!   every cheaper one, in (power, id) order, shared with the table until
//!   an observation changes it and then repaired locally.
//!
//! ## Selection
//!
//! The decision loop asks three questions, all over ids and all without
//! materialising a configuration:
//! - [`ActionModel::choose_id`]: the configuration to run next — two binary
//!   searches on the staircase;
//! - [`ActionModel::bracket_below_id`]: the low end of the time-division
//!   schedule — a walk down the believed speedup order;
//! - [`ActionModel::cheapest_id`]: the floor every power envelope degrades
//!   to — the staircase's first key.
//!
//! The first two take a `max_powerup` cap on the believed power multiplier
//! and consider only the configurations within it; `f64::INFINITY` means
//! unconstrained. Selection results are *identical* to a naive first-match
//! scan over ids in order, which is lexicographic over the setting indices,
//! last actuator fastest: every tie is broken toward the smaller id,
//! exactly what a lexicographic scan with strict comparisons produced. The
//! dense model this replaced is kept as the oracle of
//! `tests/staircase_props.rs`.

use actuation::{staircase, ConfigId, ConfigTable, EffectKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Believed effect of one configuration, as multipliers over nominal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BelievedEffect {
    /// Speedup over the nominal configuration.
    pub speedup: f64,
    /// Power multiplier over the nominal configuration.
    pub powerup: f64,
    /// Number of times this configuration has actually been observed.
    pub observations: u64,
}

/// When and how the runtime explores off-model configurations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExplorationPolicy {
    /// Probability of exploring a neighbouring configuration on any decision.
    pub epsilon: f64,
    /// Relative model error above which the runtime switches from exploiting
    /// the model to exploring around the current configuration.
    pub divergence_threshold: f64,
    /// Number of consecutive divergent observations required before
    /// exploration kicks in.
    pub patience: u32,
}

impl Default for ExplorationPolicy {
    fn default() -> Self {
        ExplorationPolicy {
            epsilon: 0.02,
            divergence_threshold: 0.5,
            patience: 3,
        }
    }
}

/// The set of observed ids: one bit per id of the table, held inline for
/// tables of at most 128 configurations so a small space's model allocates
/// nothing for it.
#[derive(Debug, Clone)]
enum ObservedSet {
    Inline(u128),
    Heap(Box<[u64]>),
}

impl ObservedSet {
    fn for_table(len: usize) -> Self {
        if len <= 128 {
            ObservedSet::Inline(0)
        } else {
            ObservedSet::Heap(vec![0; len.div_ceil(64)].into_boxed_slice())
        }
    }

    #[inline]
    fn contains(&self, id: ConfigId) -> bool {
        match self {
            ObservedSet::Inline(bits) => bits >> id.0 & 1 == 1,
            ObservedSet::Heap(words) => words[id.index() / 64] >> (id.0 % 64) & 1 == 1,
        }
    }

    fn insert(&mut self, id: ConfigId) {
        match self {
            ObservedSet::Inline(bits) => *bits |= 1 << id.0,
            ObservedSet::Heap(words) => words[id.index() / 64] |= 1 << (id.0 % 64),
        }
    }
}

/// One believed order: the table's declared keys of the unobserved ids
/// merged with the model's learned keys, both ascending by `before`.
/// Iterates from either end.
struct Believed<'a, F> {
    declared: &'a [EffectKey],
    learned: &'a [EffectKey],
    observed: &'a ObservedSet,
    before: F,
}

impl<F: Fn(&EffectKey, &EffectKey) -> bool> Iterator for Believed<'_, F> {
    type Item = EffectKey;

    fn next(&mut self) -> Option<EffectKey> {
        while let Some((first, rest)) = self.declared.split_first() {
            if !self.observed.contains(first.id) {
                break;
            }
            self.declared = rest;
        }
        let from_learned = match (self.declared.first(), self.learned.first()) {
            (Some(declared), Some(learned)) => (self.before)(learned, declared),
            (None, learned) => learned.is_some(),
            (Some(_), None) => false,
        };
        let side = if from_learned {
            &mut self.learned
        } else {
            &mut self.declared
        };
        let (&key, rest) = side.split_first()?;
        *side = rest;
        Some(key)
    }
}

impl<F: Fn(&EffectKey, &EffectKey) -> bool> DoubleEndedIterator for Believed<'_, F> {
    fn next_back(&mut self) -> Option<EffectKey> {
        while let Some((last, rest)) = self.declared.split_last() {
            if !self.observed.contains(last.id) {
                break;
            }
            self.declared = rest;
        }
        let from_learned = match (self.declared.last(), self.learned.last()) {
            (Some(declared), Some(learned)) => (self.before)(declared, learned),
            (None, learned) => learned.is_some(),
            (Some(_), None) => false,
        };
        let side = if from_learned {
            &mut self.learned
        } else {
            &mut self.declared
        };
        let (&key, rest) = side.split_last()?;
        *side = rest;
        Some(key)
    }
}

/// The keys of `by_power` from `from` (inclusive) up to `to` (exclusive;
/// `None` = to the end), in (power, id) order.
fn power_span<'a>(
    by_power: &'a [EffectKey],
    from: &EffectKey,
    to: Option<&EffectKey>,
) -> &'a [EffectKey] {
    let end = to.map_or(by_power.len(), |to| {
        by_power.partition_point(|key| key.cheaper_than(to))
    });
    &by_power[by_power.partition_point(|key| key.cheaper_than(from))..end]
}

/// The keys of `by_speedup` slower than `required`.
fn below(by_speedup: &[EffectKey], required: f64) -> &[EffectKey] {
    &by_speedup[..by_speedup.partition_point(|key| key.speedup < required)]
}

/// Inserts `value` at `at`, growing `values` by exactly one slot: a model
/// learns about a handful of configurations, and a doubled capacity would
/// outweigh them on small spaces.
fn insert_exact<T>(values: &mut Vec<T>, at: usize, value: T) {
    values.reserve_exact(1);
    values.insert(at, value);
}

/// Replaces `old` in `keys` (ascending by `before`) with `new`, shifting the
/// keys between their two positions by one.
fn move_key(
    keys: &mut [EffectKey],
    old: EffectKey,
    new: EffectKey,
    before: impl Fn(&EffectKey, &EffectKey) -> bool,
) {
    let mut at = keys.partition_point(|other| before(other, &old));
    debug_assert_eq!(keys[at].id, old.id);
    while at > 0 && before(&new, &keys[at - 1]) {
        keys[at] = keys[at - 1];
        at -= 1;
    }
    while at + 1 < keys.len() && before(&keys[at + 1], &new) {
        keys[at] = keys[at + 1];
        at += 1;
    }
    keys[at] = new;
}

/// The runtime's model of every configuration in a [`ConfigTable`]: what
/// it learned about the configurations it observed, over the declared
/// effects the table shares with every model of the same action space.
#[derive(Debug, Clone)]
pub struct ActionModel {
    table: ConfigTable,
    /// Beliefs of the observed ids, ascending by id. Every other id's
    /// belief is its declared effect.
    learned: Vec<(ConfigId, BelievedEffect)>,
    /// The ids `learned` holds.
    observed: ObservedSet,
    /// `learned` as keys, with `k` = `learned.len()`: ascending by
    /// (speedup, id) in `keys[..k]` and by (power, id) in `keys[k..]`.
    keys: Vec<EffectKey>,
    /// The believed staircase; empty while it is the table's declared one.
    staircase: Vec<EffectKey>,
    /// Exponential-moving-average weight given to a new observation.
    pub learning_rate: f64,
    policy: ExplorationPolicy,
    divergent_streak: u32,
    /// Belief-aging halflife in [`Self::age_beliefs`] ticks (∞ = aging
    /// disabled, the default).
    belief_halflife: f64,
    /// Per-tick retention factor derived from the halflife
    /// (`0.5^(1/halflife)`; 1.0 = aging disabled).
    aging_retention: f64,
    rng: StdRng,
}

impl ActionModel {
    /// Creates a model over `table` seeded from the declared effects: it
    /// holds no belief of its own until the first observation.
    pub fn new(table: ConfigTable, seed: u64) -> Self {
        ActionModel {
            observed: ObservedSet::for_table(table.len()),
            table,
            learned: Vec::new(),
            keys: Vec::new(),
            staircase: Vec::new(),
            learning_rate: 0.3,
            policy: ExplorationPolicy::default(),
            divergent_streak: 0,
            belief_halflife: f64::INFINITY,
            aging_retention: 1.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Overrides the exploration policy.
    pub fn set_policy(&mut self, policy: ExplorationPolicy) {
        self.policy = policy;
    }

    /// Enables *belief aging* with the given halflife, in
    /// [`Self::age_beliefs`] ticks (one tick per decision period when
    /// driven by the runtime). Aged beliefs decay **toward their declared
    /// priors**: a learned deviation loses half its amplitude every
    /// `halflife` ticks unless re-observed, so beliefs that have gone
    /// stale — learned in a phase the application has since left — lose
    /// their grip on selection instead of pinning it to the old phase.
    ///
    /// An infinite (or non-positive) halflife disables aging entirely:
    /// [`Self::age_beliefs`] becomes a no-op and the model is bit-for-bit
    /// the unaged one (no arithmetic, no RNG draws — pinned by the unit
    /// suite).
    pub fn with_belief_halflife(mut self, halflife_ticks: f64) -> Self {
        self.set_belief_halflife(halflife_ticks);
        self
    }

    /// Changes the belief-aging halflife (see
    /// [`Self::with_belief_halflife`]).
    pub fn set_belief_halflife(&mut self, halflife_ticks: f64) {
        self.belief_halflife = halflife_ticks;
        self.aging_retention = if halflife_ticks.is_finite() && halflife_ticks > 0.0 {
            0.5f64.powf(1.0 / halflife_ticks)
        } else {
            1.0
        };
    }

    /// The belief-aging halflife in ticks (∞ = aging disabled).
    pub fn belief_halflife(&self) -> f64 {
        self.belief_halflife
    }

    /// One aging tick: every learned belief decays toward its declared
    /// prior by the retention factor derived from the halflife, and the
    /// learned orders and the staircase are rebuilt to match. A no-op
    /// (early return, nothing touched) when aging is disabled.
    ///
    /// Unobserved beliefs *are* their declared priors, which the decay
    /// would leave bit-identical, so only observed ids are touched;
    /// observation counts are not aged — they record how often a
    /// configuration was tried, not how fresh the belief is.
    pub fn age_beliefs(&mut self) {
        if self.aging_retention >= 1.0 || self.learned.is_empty() {
            return;
        }
        let retention = self.aging_retention;
        for (id, belief) in &mut self.learned {
            let declared = self.table.declared_effect(*id);
            belief.speedup =
                declared.performance + (belief.speedup - declared.performance) * retention;
            belief.powerup = declared.power + (belief.powerup - declared.power) * retention;
        }
        // The decay is monotone per belief but not order-preserving across
        // beliefs (each decays toward a different prior), so both learned
        // orders are re-sorted and the staircase re-climbed from scratch —
        // on the aging path only; the unaged hot path never gets here.
        let k = self.learned.len();
        let learned = self.learned.iter().map(|&(id, belief)| EffectKey {
            speedup: belief.speedup,
            power: belief.powerup,
            id,
        });
        self.keys.clear();
        self.keys.extend(learned.clone().chain(learned));
        let (by_speedup, by_power) = self.keys.split_at_mut(k);
        by_speedup.sort_unstable_by(|a, b| a.speedup.total_cmp(&b.speedup).then(a.id.cmp(&b.id)));
        by_power.sort_unstable_by(|a, b| a.power.total_cmp(&b.power).then(a.id.cmp(&b.id)));
        let by_power = Believed {
            declared: self.table.by_declared_power(),
            learned: &self.keys[k..],
            observed: &self.observed,
            before: EffectKey::cheaper_than,
        };
        self.staircase.clear();
        self.staircase
            .extend(staircase(by_power, f64::NEG_INFINITY));
    }

    /// The believed staircase, copied out of the table first if it is
    /// still the declared one.
    fn staircase_mut(&mut self) -> &mut Vec<EffectKey> {
        if self.staircase.is_empty() {
            self.staircase = self.table.declared_staircase().to_vec();
        }
        &mut self.staircase
    }

    /// The interned-configuration arena the model runs on.
    pub fn table(&self) -> &ConfigTable {
        &self.table
    }

    /// The believed effect of the configuration `id`: what the model
    /// learned if `id` was observed, its declared effect otherwise.
    #[inline]
    pub fn believed(&self, id: ConfigId) -> BelievedEffect {
        if self.observed.contains(id) {
            self.learned[self.learned.partition_point(|&(learned, _)| learned < id)].1
        } else {
            let declared = self.table.declared_effect(id);
            BelievedEffect {
                speedup: declared.performance,
                powerup: declared.power,
                observations: 0,
            }
        }
    }

    /// The believed Pareto staircase every selection reads: the
    /// [`staircase`] of every id's believed key in (power, id) order.
    pub fn believed_staircase(&self) -> &[EffectKey] {
        match &self.staircase[..] {
            [] => self.table.declared_staircase(),
            owned => owned,
        }
    }

    /// Records that running in `id` produced `observed_speedup` and
    /// `observed_powerup` (both relative to nominal). Returns the relative
    /// error between the previous belief and the observation.
    pub fn observe_id(
        &mut self,
        id: ConfigId,
        observed_speedup: f64,
        observed_powerup: f64,
    ) -> f64 {
        let previous = self.believed(id);
        let error = if previous.speedup > 0.0 {
            ((observed_speedup - previous.speedup) / previous.speedup).abs()
        } else {
            1.0
        };
        let a = self.learning_rate;
        let mut belief = previous;
        if observed_speedup.is_finite() && observed_speedup > 0.0 {
            belief.speedup = (1.0 - a) * belief.speedup + a * observed_speedup;
        }
        if observed_powerup.is_finite() && observed_powerup > 0.0 {
            belief.powerup = (1.0 - a) * belief.powerup + a * observed_powerup;
        }
        belief.observations += 1;
        let old = EffectKey {
            speedup: previous.speedup,
            power: previous.powerup,
            id,
        };
        let new = EffectKey {
            speedup: belief.speedup,
            power: belief.powerup,
            id,
        };
        let k = self.learned.len();
        match self
            .learned
            .binary_search_by_key(&id, |&(learned, _)| learned)
        {
            Ok(at) => {
                self.learned[at].1 = belief;
                let (by_speedup, by_power) = self.keys.split_at_mut(k);
                move_key(by_speedup, old, new, EffectKey::slower_than);
                move_key(by_power, old, new, EffectKey::cheaper_than);
            }
            Err(at) => {
                let by_speedup = self.keys[..k].partition_point(|key| key.slower_than(&new));
                let by_power = self.keys[k..].partition_point(|key| key.cheaper_than(&new));
                self.keys.reserve_exact(2);
                self.keys.insert(by_speedup, new);
                self.keys.insert(k + 1 + by_power, new);
                insert_exact(&mut self.learned, at, (id, belief));
                self.observed.insert(id);
            }
        }
        if new != old {
            self.repair_staircase(old, new);
        }

        if error > self.policy.divergence_threshold {
            self.divergent_streak += 1;
        } else {
            self.divergent_streak = 0;
        }
        error
    }

    /// Repairs the believed staircase after one id's key moved from `old`
    /// to `new` (the learned orders already hold `new`).
    fn repair_staircase(&mut self, old: EffectKey, new: EffectKey) {
        let stair = self.believed_staircase();
        let at_old = stair.partition_point(|key| key.cheaper_than(&old));
        let was_on = stair.get(at_old).is_some_and(|key| key.id == old.id);
        if !was_on || (!old.cheaper_than(&new) && new.speedup >= old.speedup) {
            // Nothing below the staircase can surface: `old` held nothing
            // down (it was dominated itself), or `new`, no dearer and no
            // slower, holds down everything `old` did.
            self.promote(was_on.then_some(at_old), new);
        } else {
            self.reclimb(old, new);
        }
    }

    /// The staircase repair when nothing below it can surface: the key at
    /// `at_old` (if any) leaves, and `new` joins unless a cheaper key is
    /// faster, displacing the run of slower keys after it.
    fn promote(&mut self, at_old: Option<usize>, new: EffectKey) {
        let stair = self.believed_staircase();
        let at = stair.partition_point(|key| key.cheaper_than(&new));
        if at > 0 && new.speedup < stair[at - 1].speedup {
            // Dominated: then so was `old` (an on-staircase key that moves
            // no dearer and no slower stays on), and nothing changes.
            return;
        }
        let stair = self.staircase_mut();
        if let Some(at_old) = at_old {
            stair.remove(at_old);
        }
        let slower = stair[at..].partition_point(|key| key.speedup < new.speedup);
        if slower == 0 {
            insert_exact(stair, at, new);
        } else {
            stair[at] = new;
            stair.drain(at + 1..at + slower);
        }
    }

    /// The staircase repair in general. Keys cheaper than both positions
    /// keep their staircase membership: the moved key is not among their
    /// predecessors either way. So do the keys from the first staircase key
    /// past both positions that is at least as fast as both speeds on: that
    /// key keeps up with the moved one in both states, so the moved key
    /// decides none of their memberships. Only the span between is
    /// re-climbed, over the believed power order.
    fn reclimb(&mut self, old: EffectKey, new: EffectKey) {
        let stair = self.believed_staircase();
        let (lo, hi) = if old.cheaper_than(&new) {
            (old, new)
        } else {
            (new, old)
        };
        let start = stair.partition_point(|key| key.cheaper_than(&lo));
        let past = stair.partition_point(|key| !hi.cheaper_than(key));
        let top = old.speedup.max(new.speedup);
        let mut end = past.max(stair.partition_point(|key| key.speedup < top));
        let bound = stair.get(end).copied();
        let floor = if start > 0 {
            stair[start - 1].speedup
        } else {
            f64::NEG_INFINITY
        };
        self.staircase_mut();
        let k = self.learned.len();
        let span = Believed {
            declared: power_span(self.table.by_declared_power(), &lo, bound.as_ref()),
            learned: power_span(&self.keys[k..], &lo, bound.as_ref()),
            observed: &self.observed,
            before: EffectKey::cheaper_than,
        };
        let stair = &mut self.staircase;
        let mut write = start;
        for key in staircase(span, floor) {
            if write < end {
                stair[write] = key;
            } else {
                insert_exact(stair, write, key);
                end += 1;
            }
            write += 1;
        }
        stair.drain(write..end);
    }

    /// Whether the model considers itself diverged (exploration should take
    /// over the next decisions).
    pub fn is_diverged(&self) -> bool {
        self.divergent_streak >= self.policy.patience
    }

    /// Chooses the configuration to run next among those whose believed
    /// powerup is at most `max_powerup` (`f64::INFINITY` = unconstrained):
    /// the cheapest (lowest believed power) one whose believed speedup
    /// meets `required_speedup`, or, if none meets it, the one with the
    /// highest believed speedup. With probability epsilon — or whenever the
    /// model has diverged — a neighbouring configuration of `current` is
    /// explored instead, unless it breaches the cap. Ties break toward the
    /// smaller id, like the first-match scan this replaces. When even the
    /// cheapest configuration exceeds the cap — or the cap is NaN — the
    /// cheapest is returned: an application cannot run in no configuration,
    /// so the envelope degrades to "as cheap as the action space allows".
    pub fn choose_id(
        &mut self,
        required_speedup: f64,
        current: ConfigId,
        max_powerup: f64,
    ) -> ConfigId {
        let exploit = self.exploit(required_speedup, max_powerup);
        let explore = self.is_diverged() || self.rng.gen_bool(self.policy.epsilon.clamp(0.0, 1.0));
        if explore {
            let count = self.table.neighbor_count();
            if count > 0 {
                let pick = self.rng.gen_range(0..count);
                let neighbor = self.table.neighbor(current, pick);
                // An exploration step must not breach the power envelope;
                // over-cap neighbours fall back to the exploit choice.
                if self.believed(neighbor).powerup <= max_powerup {
                    return neighbor;
                }
            }
        }
        exploit
    }

    /// [`Self::choose_id`] without exploration: two binary searches on the
    /// believed staircase.
    fn exploit(&self, required_speedup: f64, max_powerup: f64) -> ConfigId {
        let stair = self.believed_staircase();
        // Every key cheaper than the first staircase key meeting the
        // requirement is slower, so that key is the cheapest meeting it —
        // if the cap admits it.
        // A NaN requirement is met by nothing.
        let meets = |key: &EffectKey| key.speedup >= required_speedup;
        let meeting = stair.partition_point(|key| !meets(key));
        if let Some(key) = stair.get(meeting).filter(|key| key.power <= max_powerup) {
            return key.id;
        }
        // Nothing admissible meets it: the fastest admissible. The last
        // staircase key within the cap (the cheapest when none is: it is
        // always admissible) is as fast as every cheaper key, and every
        // cheaper key as fast as it is on its equal-speedup run, so the
        // smallest id of that run wins.
        let last = stair.partition_point(|key| key.power <= max_powerup).max(1) - 1;
        let top = stair[last].speedup;
        stair[..=last]
            .iter()
            .rev()
            .take_while(|key| key.speedup == top)
            .map(|key| key.id)
            .min()
            .expect("the run holds the last key")
    }

    /// The bracketing configuration *below* a required speedup: among the
    /// configurations whose believed speedup is less than `required_speedup`
    /// and whose believed powerup is at most `max_powerup` (`f64::INFINITY`
    /// = unconstrained), the fastest one (ties broken toward lower power,
    /// then smaller id), with its believed speedup. Used as the low end of
    /// time-division schedules so that the schedule alternates between
    /// adjacent operating points rather than between extremes. The answer
    /// need not be on the staircase: over-cap configurations are skipped
    /// while walking down the believed speedup order; when nothing under
    /// the requirement is admissible — or everything meets it — the overall
    /// cheapest configuration is returned (the same floor
    /// [`Self::choose_id`] degrades to).
    pub fn bracket_below_id(&self, required_speedup: f64, max_powerup: f64) -> (ConfigId, f64) {
        let below = Believed {
            declared: below(self.table.by_declared_speedup(), required_speedup),
            learned: below(&self.keys[..self.learned.len()], required_speedup),
            observed: &self.observed,
            before: EffectKey::slower_than,
        };
        // Walk down from the fastest candidate, skipping over-cap entries;
        // the first admissible entry fixes the bracket's speedup and the
        // rest of its equal-speedup run competes on lowest power (ties by
        // id).
        let mut best: Option<(ConfigId, f64)> = None;
        let mut best_speedup = f64::NEG_INFINITY;
        for key in below.rev() {
            if key.speedup < best_speedup {
                break;
            }
            if key.power > max_powerup {
                continue;
            }
            best_speedup = key.speedup;
            let better = match best {
                None => true,
                Some((best_id, power)) => {
                    key.power < power || (key.power == power && key.id < best_id)
                }
            };
            if better {
                best = Some((key.id, key.power));
            }
        }
        match best {
            Some((id, _)) => (id, best_speedup),
            None => self.cheapest_id(),
        }
    }

    /// The id with the lowest believed power (smallest id on ties), and its
    /// believed speedup: the first key of the staircase. Used as the low
    /// end of time-division schedules.
    pub fn cheapest_id(&self) -> (ConfigId, f64) {
        let key = self.believed_staircase()[0];
        (key.id, key.speedup)
    }

    /// Number of distinct configurations observed at least once.
    pub fn observed_configurations(&self) -> usize {
        self.learned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuation::{ActuatorSpec, Axis, Configuration, SettingSpec};

    fn table() -> ConfigTable {
        let dvfs = ActuatorSpec::builder("dvfs")
            .setting(
                SettingSpec::new("slow")
                    .effect(Axis::Performance, 0.5)
                    .effect(Axis::Power, 0.4),
            )
            .setting(SettingSpec::new("fast"))
            .nominal(1)
            .build()
            .unwrap();
        let cores = ActuatorSpec::builder("cores")
            .setting(SettingSpec::new("1"))
            .setting(
                SettingSpec::new("4")
                    .effect(Axis::Performance, 3.0)
                    .effect(Axis::Power, 3.5),
            )
            .build()
            .unwrap();
        ConfigTable::new(&[&dvfs, &cores])
    }

    /// The id of the configuration with the given (dvfs, cores) settings.
    fn id(model: &ActionModel, settings: [usize; 2]) -> ConfigId {
        model
            .table()
            .id_of(&Configuration::new(settings.to_vec()))
            .unwrap()
    }

    fn no_exploration() -> ExplorationPolicy {
        ExplorationPolicy {
            epsilon: 0.0,
            ..ExplorationPolicy::default()
        }
    }

    /// Reference implementation: the pre-arena first-match scans over ids
    /// in order (lexicographic, last actuator fastest), uncapped. The
    /// index-based selections must agree exactly.
    mod reference {
        use super::*;

        fn ids(model: &ActionModel) -> impl Iterator<Item = (ConfigId, BelievedEffect)> + '_ {
            (0..model.table().len() as u32).map(|i| (ConfigId(i), model.believed(ConfigId(i))))
        }

        pub(super) fn choose_exploit(model: &ActionModel, required: f64) -> ConfigId {
            let mut best_meeting: Option<(ConfigId, f64)> = None;
            let mut best_overall: Option<(ConfigId, f64)> = None;
            for (id, belief) in ids(model) {
                if belief.speedup >= required
                    && best_meeting.is_none_or(|(_, power)| belief.powerup < power)
                {
                    best_meeting = Some((id, belief.powerup));
                }
                if best_overall.is_none_or(|(_, speed)| belief.speedup > speed) {
                    best_overall = Some((id, belief.speedup));
                }
            }
            best_meeting
                .or(best_overall)
                .map_or(model.table().nominal(), |(id, _)| id)
        }

        pub(super) fn bracket_below(model: &ActionModel, required: f64) -> (ConfigId, f64) {
            let mut best: Option<(ConfigId, f64, f64)> = None;
            for (id, belief) in ids(model) {
                if belief.speedup >= required {
                    continue;
                }
                let better = best.is_none_or(|(_, speedup, power)| {
                    belief.speedup > speedup
                        || (belief.speedup == speedup && belief.powerup < power)
                });
                if better {
                    best = Some((id, belief.speedup, belief.powerup));
                }
            }
            match best {
                Some((id, speedup, _)) => (id, speedup),
                None => cheapest(model),
            }
        }

        pub fn cheapest(model: &ActionModel) -> (ConfigId, f64) {
            let mut best: Option<(ConfigId, f64, f64)> = None;
            for (id, belief) in ids(model) {
                if best.is_none_or(|(_, power, _)| belief.powerup < power) {
                    best = Some((id, belief.powerup, belief.speedup));
                }
            }
            best.map_or((model.table().nominal(), 1.0), |(id, _, speedup)| {
                (id, speedup)
            })
        }
    }

    #[test]
    fn beliefs_start_from_declared_effects() {
        let model = ActionModel::new(table(), 1);
        let effect = model.believed(id(&model, [0, 1]));
        assert!((effect.speedup - 1.5).abs() < 1e-12);
        assert!((effect.powerup - 1.4).abs() < 1e-12);
        assert_eq!(effect.observations, 0);
    }

    #[test]
    fn observations_pull_beliefs_toward_reality() {
        let mut model = ActionModel::new(table(), 1);
        let config = id(&model, [1, 1]);
        // Declared speedup 3.0, but reality is only 1.5 (memory bound).
        for _ in 0..20 {
            model.observe_id(config, 1.5, 3.2);
        }
        let belief = model.believed(config);
        assert!((belief.speedup - 1.5).abs() < 0.1);
        assert!(belief.observations == 20);
        assert_eq!(model.observed_configurations(), 1);
    }

    #[test]
    fn choose_picks_cheapest_configuration_meeting_the_target() {
        let mut model = ActionModel::new(table(), 1);
        model.set_policy(no_exploration());
        let current = model.table().nominal();
        // Needs 1.4x: [1,1] (3.0x at 3.5 power) and [0,1] (1.5x at 1.4 power)
        // both meet it; the cheaper one is [0,1].
        let choice = model.choose_id(1.4, current, f64::INFINITY);
        assert_eq!(choice, id(&model, [0, 1]));
        // Needs 2.5x: only [1,1] meets it.
        let choice = model.choose_id(2.5, current, f64::INFINITY);
        assert_eq!(choice, id(&model, [1, 1]));
        // Nothing meets 10x: fall back to the fastest.
        let choice = model.choose_id(10.0, current, f64::INFINITY);
        assert_eq!(choice, id(&model, [1, 1]));
    }

    #[test]
    fn persistent_divergence_triggers_exploration() {
        let mut model = ActionModel::new(table(), 7);
        model.set_policy(ExplorationPolicy {
            epsilon: 0.0,
            divergence_threshold: 0.3,
            patience: 2,
        });
        let config = id(&model, [1, 1]);
        assert!(!model.is_diverged());
        // Observations wildly off the declared 3.0x speedup.
        model.observe_id(config, 0.9, 3.5);
        assert!(!model.is_diverged());
        model.observe_id(config, 0.9, 3.5);
        assert!(model.is_diverged());
        // While diverged, choose_id() explores a neighbour of the current
        // configuration rather than exploiting the (wrong) model.
        let current = id(&model, [1, 0]);
        let choice = model.choose_id(1.0, current, f64::INFINITY);
        let diffs = (0..2)
            .filter(|&pos| {
                model.table().setting(choice, pos) != model.table().setting(current, pos)
            })
            .count();
        assert_eq!(
            diffs, 1,
            "exploration stays adjacent to the current configuration"
        );
        // Converging observations clear the divergence.
        let belief = model.believed(config);
        model.observe_id(config, belief.speedup, belief.powerup);
        assert!(!model.is_diverged());
    }

    #[test]
    fn bracket_below_returns_the_fastest_configuration_under_the_requirement() {
        let model = ActionModel::new(table(), 1);
        // Speedups available: 0.5, 1.0, 1.5, 3.0 (dvfs x cores products).
        let (config, speedup) = model.bracket_below_id(2.0, f64::INFINITY);
        assert!((speedup - 1.5).abs() < 1e-12);
        assert_eq!(config, id(&model, [0, 1]));
        // Nothing is below 0.3x: fall back to the cheapest configuration.
        let (config, speedup) = model.bracket_below_id(0.3, f64::INFINITY);
        assert_eq!(config, id(&model, [0, 0]));
        assert!((speedup - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cheapest_returns_the_lowest_power_configuration() {
        let model = ActionModel::new(table(), 1);
        let (config, speedup) = model.cheapest_id();
        // Slow DVFS (0.4 power) with a single core (1.0 power) is cheapest.
        assert_eq!(config, id(&model, [0, 0]));
        assert!((speedup - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_observations_do_not_corrupt_the_model() {
        let mut model = ActionModel::new(table(), 1);
        let config = id(&model, [0, 0]);
        let before = model.believed(config);
        model.observe_id(config, f64::NAN, -1.0);
        let after = model.believed(config);
        assert_eq!(before.speedup, after.speedup);
        assert_eq!(before.powerup, after.powerup);
        assert_eq!(after.observations, 1);
    }

    #[test]
    fn capped_selection_stays_inside_the_envelope() {
        let mut model = ActionModel::new(table(), 1);
        model.set_policy(no_exploration());
        let nominal = model.table().nominal();
        // Believed powers: 0.4, 1.0, 1.4, 3.5 (dvfs x cores products).
        // Cap at 1.5: [1,1] (3.0x at 3.5) is inadmissible, so a 2.5x
        // requirement degrades to the fastest admissible, [0,1] (1.5x).
        let choice = model.choose_id(2.5, nominal, 1.5);
        assert_eq!(choice, id(&model, [0, 1]));
        // The bracket below a requirement also skips over-cap entries.
        let (bracket, speedup) = model.bracket_below_id(10.0, 1.5);
        assert_eq!(bracket, id(&model, [0, 1]));
        assert!((speedup - 1.5).abs() < 1e-12);
        // A cap below even the cheapest configuration degrades to the
        // cheapest rather than selecting nothing.
        let choice = model.choose_id(1.0, nominal, 0.1);
        assert_eq!(choice, id(&model, [0, 0]));
        let (bracket, _) = model.bracket_below_id(0.3, 0.1);
        assert_eq!(bracket, id(&model, [0, 0]));
    }

    #[test]
    fn capped_exploration_never_breaches_the_envelope() {
        let mut model = ActionModel::new(table(), 5);
        // Always explore: epsilon 1.0.
        model.set_policy(ExplorationPolicy {
            epsilon: 1.0,
            divergence_threshold: 0.5,
            patience: 3,
        });
        let nominal = model.table().nominal();
        let cap = 1.5;
        for _ in 0..200 {
            let choice = model.choose_id(1.0, nominal, cap);
            assert!(
                model.believed(choice).powerup <= cap,
                "exploration must clamp to the envelope"
            );
        }
    }

    #[test]
    fn belief_aging_decays_toward_declared_priors_with_the_halflife() {
        let mut model = ActionModel::new(table(), 1).with_belief_halflife(10.0);
        assert_eq!(model.belief_halflife(), 10.0);
        let config = id(&model, [1, 1]);
        let declared = model.believed(config);
        // Learn a strong deviation: reality is twice the declared speedup.
        for _ in 0..50 {
            model.observe_id(config, declared.speedup * 2.0, declared.powerup * 2.0);
        }
        let learned = model.believed(config);
        assert!(learned.speedup > declared.speedup * 1.9);
        // Ten aging ticks = one halflife: half the deviation remains.
        for _ in 0..10 {
            model.age_beliefs();
        }
        let aged = model.believed(config);
        let remaining = (aged.speedup - declared.speedup) / (learned.speedup - declared.speedup);
        assert!(
            (remaining - 0.5).abs() < 1e-9,
            "one halflife must leave half the deviation, left {remaining}"
        );
        assert_eq!(
            aged.observations, learned.observations,
            "counts are not aged"
        );
        // Unobserved configurations stay bit-identical to their priors.
        let untouched = id(&model, [0, 0]);
        let before = model.believed(untouched);
        model.age_beliefs();
        let after = model.believed(untouched);
        assert_eq!(before.speedup.to_bits(), after.speedup.to_bits());
        assert_eq!(before.powerup.to_bits(), after.powerup.to_bits());
    }

    #[test]
    fn aged_indices_still_match_the_reference_scans() {
        // Interleave observations and aging ticks, then check every
        // selection against the first-match reference scans — the re-sorted
        // indices must stay exactly consistent with the aged beliefs.
        let mut model = ActionModel::new(table(), 3).with_belief_halflife(4.0);
        model.set_policy(ExplorationPolicy {
            epsilon: 0.0,
            divergence_threshold: f64::INFINITY,
            patience: u32::MAX,
        });
        for step in 0..60 {
            let id = ConfigId((step * 5 % model.table().len()) as u32);
            model.observe_id(
                id,
                0.3 + (step % 11) as f64 * 0.35,
                0.3 + (step % 7) as f64 * 0.5,
            );
            model.age_beliefs();
            for i in 0..=12 {
                let required = i as f64 * 0.3;
                assert_eq!(
                    model.bracket_below_id(required, f64::INFINITY),
                    reference::bracket_below(&model, required),
                    "bracket mismatch at step {step} req {required}"
                );
                let nominal = model.table().nominal();
                assert_eq!(
                    model.choose_id(required, nominal, f64::INFINITY),
                    reference::choose_exploit(&model, required),
                    "choose mismatch at step {step} req {required}"
                );
            }
            assert_eq!(model.cheapest_id(), reference::cheapest(&model));
        }
    }

    #[test]
    fn infinite_halflife_is_bit_identical_to_no_aging() {
        let drive = |aged: bool| {
            let mut model = ActionModel::new(table(), 9);
            if aged {
                model.set_belief_halflife(f64::INFINITY);
            }
            // age_beliefs must be a pure no-op: beliefs, indices, and the
            // RNG stream (exercised via epsilon exploration) all untouched.
            model.set_policy(ExplorationPolicy {
                epsilon: 0.4,
                ..ExplorationPolicy::default()
            });
            let nominal = model.table().nominal();
            let mut picks = Vec::new();
            for step in 0..80 {
                let id = ConfigId((step % model.table().len()) as u32);
                model.observe_id(id, 0.5 + (step % 5) as f64, 0.5 + (step % 3) as f64);
                if aged {
                    model.age_beliefs();
                }
                picks.push(model.choose_id(1.0 + (step % 4) as f64 * 0.5, nominal, f64::INFINITY));
            }
            picks
        };
        assert_eq!(drive(false), drive(true));
        // Non-positive halflives also disable aging.
        let mut model = ActionModel::new(table(), 1).with_belief_halflife(0.0);
        assert_eq!(model.belief_halflife(), 0.0);
        let config = id(&model, [1, 1]);
        let before = model.believed(config);
        model.age_beliefs();
        let after = model.believed(config);
        assert_eq!(before.speedup.to_bits(), after.speedup.to_bits());
    }

    #[test]
    fn indexed_selection_matches_the_reference_scan() {
        // Drive the model through a pseudo-random observation schedule and
        // check, at every step and over a sweep of requirements, that the
        // index-based selections equal the first-match reference scans.
        let mut model = ActionModel::new(table(), 3);
        // The reference scans model only the exploit path, so exploration
        // (epsilon and divergence driven) must be fully disabled.
        model.set_policy(ExplorationPolicy {
            epsilon: 0.0,
            divergence_threshold: f64::INFINITY,
            patience: u32::MAX,
        });
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..200 {
            let id = ConfigId((next() % model.table().len() as u64) as u32);
            let speedup = 0.2 + (next() % 400) as f64 / 100.0;
            let powerup = 0.2 + (next() % 400) as f64 / 100.0;
            model.observe_id(id, speedup, powerup);
            for i in 0..=40 {
                let required = i as f64 * 0.1;
                let (id_bracket, id_speedup) = model.bracket_below_id(required, f64::INFINITY);
                let (ref_bracket, ref_speedup) = reference::bracket_below(&model, required);
                assert_eq!(
                    id_bracket, ref_bracket,
                    "bracket mismatch at step {step} req {required}"
                );
                assert_eq!(id_speedup.to_bits(), ref_speedup.to_bits());
                let nominal = model.table().nominal();
                assert_eq!(
                    model.choose_id(required, nominal, f64::INFINITY),
                    reference::choose_exploit(&model, required),
                    "choose mismatch at step {step} req {required}"
                );
            }
            assert_eq!(model.cheapest_id(), reference::cheapest(&model));
        }
    }
}
