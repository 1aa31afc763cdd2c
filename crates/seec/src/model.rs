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
//! over the same action space; what a model owns is per-application state.
//! Beliefs live in a dense `Vec` indexed by id — no hashing, no per-lookup
//! allocation — and two sorted indices (by believed speedup and by believed
//! power), started from the table's declared orders, are maintained
//! incrementally as observations arrive.
//!
//! ## Selection
//!
//! The decision loop asks three questions, all over ids and all without
//! materialising a configuration:
//! - [`ActionModel::choose_id`]: the configuration to run next;
//! - [`ActionModel::bracket_below_id`]: the low end of the time-division
//!   schedule;
//! - [`ActionModel::cheapest_id`]: the floor every power envelope degrades
//!   to.
//!
//! The first two take a `max_powerup` cap on the believed power multiplier
//! and consider only the admissible prefix of the power index;
//! `f64::INFINITY` means unconstrained. Selection results are *identical*
//! to a naive first-match scan over ids in order, which is lexicographic
//! over the setting indices, last actuator fastest: every tie is broken
//! toward the smaller id, exactly what a lexicographic scan with strict
//! comparisons produced.

use actuation::{ConfigId, ConfigTable};
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

/// The runtime's model of every configuration in a [`ConfigTable`].
#[derive(Debug, Clone)]
pub struct ActionModel {
    table: ConfigTable,
    beliefs: Vec<BelievedEffect>,
    /// Ids sorted ascending by (believed speedup, id).
    by_speedup: Vec<ConfigId>,
    /// Ids sorted ascending by (believed powerup, id).
    by_power: Vec<ConfigId>,
    /// id → position in `by_speedup` / `by_power`.
    rank_speedup: Vec<u32>,
    rank_power: Vec<u32>,
    observed: usize,
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
    /// Creates a model over `table` seeded from the declared effects.
    pub fn new(table: ConfigTable, seed: u64) -> Self {
        let beliefs: Vec<BelievedEffect> = (0..table.len())
            .map(|i| {
                let declared = table.declared_effect(ConfigId(i as u32));
                BelievedEffect {
                    speedup: declared.performance,
                    powerup: declared.power,
                    observations: 0,
                }
            })
            .collect();
        // The declared-effect indices precomputed by the arena are the
        // correct starting point: beliefs equal declared effects until the
        // first observation.
        let by_speedup = table.by_declared_speedup().to_vec();
        let by_power = table.by_declared_power().to_vec();
        let mut rank_speedup = vec![0u32; table.len()];
        for (pos, id) in by_speedup.iter().enumerate() {
            rank_speedup[id.index()] = pos as u32;
        }
        let mut rank_power = vec![0u32; table.len()];
        for (pos, id) in by_power.iter().enumerate() {
            rank_power[id.index()] = pos as u32;
        }
        ActionModel {
            table,
            beliefs,
            by_speedup,
            by_power,
            rank_speedup,
            rank_power,
            observed: 0,
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

    /// One aging tick: every belief decays toward its declared prior by
    /// the retention factor derived from the halflife, and the two sorted
    /// selection indices are rebuilt to match. A no-op (early return,
    /// nothing touched) when aging is disabled.
    ///
    /// Unobserved beliefs already *equal* their declared priors, so the
    /// decay leaves them bit-identical; observation counts are not aged —
    /// they record how often a configuration was tried, not how fresh the
    /// belief is.
    pub fn age_beliefs(&mut self) {
        if self.aging_retention >= 1.0 {
            return;
        }
        let retention = self.aging_retention;
        for (index, belief) in self.beliefs.iter_mut().enumerate() {
            let declared = self.table.declared_effect(ConfigId(index as u32));
            belief.speedup = declared.performance + (belief.speedup - declared.performance) * retention;
            belief.powerup = declared.power + (belief.powerup - declared.power) * retention;
        }
        // The decay is monotone per belief but not order-preserving across
        // beliefs (each decays toward a different prior), so both indices
        // are re-sorted wholesale. In-place, allocation-free, and O(n log n)
        // on the aging path only — the unaged hot path never gets here.
        let beliefs = &self.beliefs;
        self.by_speedup
            .sort_unstable_by(|&a, &b| {
                beliefs[a.index()]
                    .speedup
                    .total_cmp(&beliefs[b.index()].speedup)
                    .then(a.cmp(&b))
            });
        self.by_power.sort_unstable_by(|&a, &b| {
            beliefs[a.index()]
                .powerup
                .total_cmp(&beliefs[b.index()].powerup)
                .then(a.cmp(&b))
        });
        for (pos, id) in self.by_speedup.iter().enumerate() {
            self.rank_speedup[id.index()] = pos as u32;
        }
        for (pos, id) in self.by_power.iter().enumerate() {
            self.rank_power[id.index()] = pos as u32;
        }
    }

    /// The interned-configuration arena the model runs on.
    pub fn table(&self) -> &ConfigTable {
        &self.table
    }

    /// The believed effect of the configuration `id`.
    #[inline]
    pub fn believed(&self, id: ConfigId) -> BelievedEffect {
        self.beliefs[id.index()]
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
        let belief = &mut self.beliefs[id.index()];
        let error = if belief.speedup > 0.0 {
            ((observed_speedup - belief.speedup) / belief.speedup).abs()
        } else {
            1.0
        };
        let a = self.learning_rate;
        if observed_speedup.is_finite() && observed_speedup > 0.0 {
            belief.speedup = (1.0 - a) * belief.speedup + a * observed_speedup;
        }
        if observed_powerup.is_finite() && observed_powerup > 0.0 {
            belief.powerup = (1.0 - a) * belief.powerup + a * observed_powerup;
        }
        if belief.observations == 0 {
            self.observed += 1;
        }
        belief.observations += 1;
        let (speedup, powerup) = (belief.speedup, belief.powerup);
        reposition(
            &mut self.by_speedup,
            &mut self.rank_speedup,
            id,
            |other| self.beliefs[other.index()].speedup,
            speedup,
        );
        reposition(
            &mut self.by_power,
            &mut self.rank_power,
            id,
            |other| self.beliefs[other.index()].powerup,
            powerup,
        );

        if error > self.policy.divergence_threshold {
            self.divergent_streak += 1;
        } else {
            self.divergent_streak = 0;
        }
        error
    }

    /// Whether the model considers itself diverged (exploration should take
    /// over the next decisions).
    pub fn is_diverged(&self) -> bool {
        self.divergent_streak >= self.policy.patience
    }

    /// Chooses the configuration to run next among those whose believed
    /// powerup is at most `max_powerup` (the admissible prefix of the
    /// power-sorted index; `f64::INFINITY` = unconstrained): the cheapest
    /// (lowest believed power) one whose believed speedup meets
    /// `required_speedup`, or, if none meets it, the one with the highest
    /// believed speedup. With probability epsilon — or whenever the model
    /// has diverged — a neighbouring configuration of `current` is explored
    /// instead, unless it breaches the cap. Ties break toward the smaller
    /// id, like the first-match scan this replaces. When even the cheapest
    /// configuration exceeds the cap, the cheapest is returned: an
    /// application cannot run in no configuration, so the envelope degrades
    /// to "as cheap as the action space allows".
    pub fn choose_id(
        &mut self,
        required_speedup: f64,
        current: ConfigId,
        max_powerup: f64,
    ) -> ConfigId {
        // Admissible prefix of the power-sorted index (the whole index for
        // an infinite cap), floored at one so the cheapest is always a
        // candidate.
        let admissible = self.power_boundary(max_powerup).max(1).min(self.by_power.len());
        // Walk the power-sorted prefix: the first id meeting the speedup
        // requirement is the cheapest meeting it (ties by id). Usually an
        // early exit; the scan it replaced was always O(cardinality) with a
        // settings-vector allocation per step.
        let meeting = self.by_power[..admissible]
            .iter()
            .copied()
            .find(|id| self.beliefs[id.index()].speedup >= required_speedup);
        let exploit = meeting.unwrap_or_else(|| {
            if admissible == self.by_power.len() {
                self.fastest()
            } else {
                self.fastest_within(admissible)
            }
        });

        let explore =
            self.is_diverged() || self.rng.gen_bool(self.policy.epsilon.clamp(0.0, 1.0));
        if explore {
            let count = self.table.neighbor_count();
            if count > 0 {
                let pick = self.rng.gen_range(0..count);
                let neighbor = self.table.neighbor(current, pick);
                // An exploration step must not breach the power envelope;
                // over-cap neighbours fall back to the exploit choice.
                if self.beliefs[neighbor.index()].powerup <= max_powerup {
                    return neighbor;
                }
            }
        }
        exploit
    }

    /// Length of the admissible prefix of the power-sorted index under
    /// `max_powerup` (the whole index for an infinite cap).
    fn power_boundary(&self, max_powerup: f64) -> usize {
        if max_powerup == f64::INFINITY {
            return self.by_power.len();
        }
        self.by_power
            .partition_point(|id| self.beliefs[id.index()].powerup <= max_powerup)
    }

    /// The id with the highest believed speedup (smallest id on ties).
    fn fastest(&self) -> ConfigId {
        let top = *self.by_speedup.last().expect("non-empty space");
        let top_speedup = self.beliefs[top.index()].speedup;
        // Ids are ascending within an equal-speedup run, so the first id of
        // the top run is the scan's answer.
        self.by_speedup
            [self.by_speedup.partition_point(|id| self.beliefs[id.index()].speedup < top_speedup)]
    }

    /// The id with the highest believed speedup among the first `admissible`
    /// entries of the power-sorted index (smallest id on ties) — what
    /// [`Self::fastest`] degrades to under a power envelope. Equals
    /// `fastest()` when the whole index is admissible.
    fn fastest_within(&self, admissible: usize) -> ConfigId {
        let mut best = self.by_power[0];
        let mut best_speedup = self.beliefs[best.index()].speedup;
        for &id in &self.by_power[1..admissible] {
            let speedup = self.beliefs[id.index()].speedup;
            if speedup > best_speedup || (speedup == best_speedup && id < best) {
                best = id;
                best_speedup = speedup;
            }
        }
        best
    }

    /// The bracketing configuration *below* a required speedup: among the
    /// configurations whose believed speedup is less than `required_speedup`
    /// and whose believed powerup is at most `max_powerup` (`f64::INFINITY`
    /// = unconstrained), the fastest one (ties broken toward lower power,
    /// then smaller id), with its believed speedup. Used as the low end of
    /// time-division schedules so that the schedule alternates between
    /// adjacent operating points rather than between extremes. Over-cap
    /// configurations are skipped while walking down the speedup index; when
    /// nothing under the requirement is admissible — or everything meets
    /// it — the overall cheapest configuration is returned (the same floor
    /// [`Self::choose_id`] degrades to).
    pub fn bracket_below_id(
        &self,
        required_speedup: f64,
        max_powerup: f64,
    ) -> (ConfigId, f64) {
        let boundary = self
            .by_speedup
            .partition_point(|id| self.beliefs[id.index()].speedup < required_speedup);
        // Walk down from the fastest candidate, skipping over-cap entries;
        // the first admissible entry fixes the bracket's speedup and the
        // rest of its equal-speedup run competes on lowest power (ties by
        // id). With an infinite cap nothing is skipped, so the walk is the
        // original: the run below `boundary - 1`.
        let mut best: Option<(ConfigId, f64)> = None;
        let mut best_speedup = f64::NEG_INFINITY;
        for &id in self.by_speedup[..boundary].iter().rev() {
            let belief = self.beliefs[id.index()];
            if belief.speedup < best_speedup {
                break;
            }
            if belief.powerup > max_powerup {
                continue;
            }
            best_speedup = belief.speedup;
            let better = match best {
                None => true,
                Some((best_id, power)) => {
                    belief.powerup < power || (belief.powerup == power && id < best_id)
                }
            };
            if better {
                best = Some((id, belief.powerup));
            }
        }
        match best {
            Some((id, _)) => (id, best_speedup),
            None => self.cheapest_id(),
        }
    }

    /// The id with the lowest believed power (smallest id on ties), and its
    /// believed speedup. Used as the low end of time-division schedules.
    pub fn cheapest_id(&self) -> (ConfigId, f64) {
        let id = self.by_power[0];
        (id, self.beliefs[id.index()].speedup)
    }

    /// Number of distinct configurations observed at least once.
    pub fn observed_configurations(&self) -> usize {
        self.observed
    }

    /// The model's own sort orders, by believed speedup and by believed
    /// power.
    #[cfg(test)]
    pub(crate) fn believed_orders(&self) -> (&[ConfigId], &[ConfigId]) {
        (&self.by_speedup, &self.by_power)
    }
}

/// Moves `id` to its sorted position after its key changed to `new_key`.
/// `vec` is ordered by `(key, id)` ascending; `rank` maps id → position.
fn reposition<F: Fn(ConfigId) -> f64>(
    vec: &mut [ConfigId],
    rank: &mut [u32],
    id: ConfigId,
    key_of: F,
    new_key: f64,
) {
    let mut pos = rank[id.index()] as usize;
    // Bubble toward the front while the predecessor sorts after (new_key, id).
    while pos > 0 {
        let prev = vec[pos - 1];
        let prev_key = key_of(prev);
        if prev_key < new_key || (prev_key == new_key && prev < id) {
            break;
        }
        vec[pos] = prev;
        rank[prev.index()] = pos as u32;
        pos -= 1;
    }
    // Or toward the back while the successor sorts before (new_key, id).
    while pos + 1 < vec.len() {
        let next = vec[pos + 1];
        let next_key = key_of(next);
        if next_key > new_key || (next_key == new_key && next > id) {
            break;
        }
        vec[pos] = next;
        rank[next.index()] = pos as u32;
        pos += 1;
    }
    vec[pos] = id;
    rank[id.index()] = pos as u32;
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

        pub fn choose_exploit(model: &ActionModel, required: f64) -> ConfigId {
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

        pub fn bracket_below(model: &ActionModel, required: f64) -> (ConfigId, f64) {
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
            best.map_or((model.table().nominal(), 1.0), |(id, _, speedup)| (id, speedup))
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
            .filter(|&pos| model.table().setting(choice, pos) != model.table().setting(current, pos))
            .count();
        assert_eq!(diffs, 1, "exploration stays adjacent to the current configuration");
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
        let remaining =
            (aged.speedup - declared.speedup) / (learned.speedup - declared.speedup);
        assert!(
            (remaining - 0.5).abs() < 1e-9,
            "one halflife must leave half the deviation, left {remaining}"
        );
        assert_eq!(aged.observations, learned.observations, "counts are not aged");
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
            model.observe_id(id, 0.3 + (step % 11) as f64 * 0.35, 0.3 + (step % 7) as f64 * 0.5);
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
                assert_eq!(id_bracket, ref_bracket, "bracket mismatch at step {step} req {required}");
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
