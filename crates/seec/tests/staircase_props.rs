//! Property tests: the sparse model must decide exactly as the dense model
//! it replaced. [`Dense`] below is that model, kept as the oracle: every
//! id's belief in a `Vec` indexed by id, both believed sort orders with
//! their id → position ranks, and selection by scans over the admissible
//! prefix of the power order. The sparse [`ActionModel`] keeps beliefs for
//! observed ids only and selects on its believed Pareto staircase.
//!
//! Both models are driven with the same observation sequences, aging ticks
//! and seeds, over tables built to hold exact speed and power ties, and
//! must agree on `choose_id`, `bracket_below_id`, `cheapest_id` and
//! `believed` under NaN, zero, mid-range and infinite caps across a sweep
//! of requirements. After every observation the incrementally repaired
//! staircase must equal one climbed from scratch over every belief.

use actuation::{ActuatorSpec, Axis, ConfigId, ConfigTable, EffectKey, SettingSpec};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seec::model::BelievedEffect;
use seec::{ActionModel, ExplorationPolicy};

/// The dense action model: one belief per id, two sorted id indices kept
/// in step by bubbling a moved id to its place, and the first-match scans
/// the staircase replaced.
struct Dense {
    table: ConfigTable,
    beliefs: Vec<BelievedEffect>,
    /// Ids sorted ascending by (believed speedup, id).
    by_speedup: Vec<ConfigId>,
    /// Ids sorted ascending by (believed powerup, id).
    by_power: Vec<ConfigId>,
    /// id → position in `by_speedup` / `by_power`.
    rank_speedup: Vec<u32>,
    rank_power: Vec<u32>,
    learning_rate: f64,
    policy: ExplorationPolicy,
    divergent_streak: u32,
    aging_retention: f64,
    rng: StdRng,
}

impl Dense {
    fn new(table: ConfigTable, seed: u64) -> Self {
        let beliefs = (0..table.len())
            .map(|i| {
                let declared = table.declared_effect(ConfigId(i as u32));
                BelievedEffect {
                    speedup: declared.performance,
                    powerup: declared.power,
                    observations: 0,
                }
            })
            .collect();
        let ids = |keys: &[EffectKey]| keys.iter().map(|key| key.id).collect::<Vec<_>>();
        let by_speedup = ids(table.by_declared_speedup());
        let by_power = ids(table.by_declared_power());
        let mut model = Dense {
            rank_speedup: vec![0; table.len()],
            rank_power: vec![0; table.len()],
            table,
            beliefs,
            by_speedup,
            by_power,
            learning_rate: 0.3,
            policy: ExplorationPolicy::default(),
            divergent_streak: 0,
            aging_retention: 1.0,
            rng: StdRng::seed_from_u64(seed),
        };
        model.rerank();
        model
    }

    fn rerank(&mut self) {
        for (pos, id) in self.by_speedup.iter().enumerate() {
            self.rank_speedup[id.index()] = pos as u32;
        }
        for (pos, id) in self.by_power.iter().enumerate() {
            self.rank_power[id.index()] = pos as u32;
        }
    }

    fn set_belief_halflife(&mut self, halflife: f64) {
        self.aging_retention = if halflife.is_finite() && halflife > 0.0 {
            0.5f64.powf(1.0 / halflife)
        } else {
            1.0
        };
    }

    fn age_beliefs(&mut self) {
        if self.aging_retention >= 1.0 {
            return;
        }
        let retention = self.aging_retention;
        for (index, belief) in self.beliefs.iter_mut().enumerate() {
            let declared = self.table.declared_effect(ConfigId(index as u32));
            belief.speedup =
                declared.performance + (belief.speedup - declared.performance) * retention;
            belief.powerup = declared.power + (belief.powerup - declared.power) * retention;
        }
        let beliefs = &self.beliefs;
        self.by_speedup.sort_unstable_by(|&a, &b| {
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
        self.rerank();
    }

    fn observe_id(&mut self, id: ConfigId, observed_speedup: f64, observed_powerup: f64) -> f64 {
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
        belief.observations += 1;
        let (speedup, powerup) = (belief.speedup, belief.powerup);
        let beliefs = &self.beliefs;
        reposition(
            &mut self.by_speedup,
            &mut self.rank_speedup,
            id,
            |other| beliefs[other.index()].speedup,
            speedup,
        );
        reposition(
            &mut self.by_power,
            &mut self.rank_power,
            id,
            |other| beliefs[other.index()].powerup,
            powerup,
        );
        if error > self.policy.divergence_threshold {
            self.divergent_streak += 1;
        } else {
            self.divergent_streak = 0;
        }
        error
    }

    fn choose_id(&mut self, required: f64, current: ConfigId, max_powerup: f64) -> ConfigId {
        let admissible = self
            .power_boundary(max_powerup)
            .max(1)
            .min(self.by_power.len());
        let meeting = self.by_power[..admissible]
            .iter()
            .copied()
            .find(|id| self.beliefs[id.index()].speedup >= required);
        let exploit = meeting.unwrap_or_else(|| {
            if admissible == self.by_power.len() {
                self.fastest()
            } else {
                self.fastest_within(admissible)
            }
        });
        let explore = self.divergent_streak >= self.policy.patience
            || self.rng.gen_bool(self.policy.epsilon.clamp(0.0, 1.0));
        if explore {
            let count = self.table.neighbor_count();
            if count > 0 {
                let neighbor = self.table.neighbor(current, self.rng.gen_range(0..count));
                if self.beliefs[neighbor.index()].powerup <= max_powerup {
                    return neighbor;
                }
            }
        }
        exploit
    }

    fn power_boundary(&self, max_powerup: f64) -> usize {
        if max_powerup == f64::INFINITY {
            return self.by_power.len();
        }
        self.by_power
            .partition_point(|id| self.beliefs[id.index()].powerup <= max_powerup)
    }

    fn fastest(&self) -> ConfigId {
        let top = *self.by_speedup.last().expect("non-empty space");
        let top_speedup = self.beliefs[top.index()].speedup;
        self.by_speedup[self
            .by_speedup
            .partition_point(|id| self.beliefs[id.index()].speedup < top_speedup)]
    }

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

    fn bracket_below_id(&self, required: f64, max_powerup: f64) -> (ConfigId, f64) {
        let boundary = self
            .by_speedup
            .partition_point(|id| self.beliefs[id.index()].speedup < required);
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

    fn cheapest_id(&self) -> (ConfigId, f64) {
        let id = self.by_power[0];
        (id, self.beliefs[id.index()].speedup)
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

/// A xorshift stream: every input of a case comes from its seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<T: Copy>(&mut self, values: &[T]) -> T {
        values[self.below(values.len())]
    }
}

/// Multipliers on a power-of-two grid, so products of settings collide
/// exactly (0.5 · 2 = 1 · 1) and tables hold exact speed and power ties.
const GRID: [f64; 6] = [0.25, 0.5, 1.0, 1.5, 2.0, 4.0];

/// A table of 1–3 actuators with 1–7 settings each (up to 343 ids, so
/// both small and large tables occur), every effect drawn from [`GRID`].
/// `tag` perturbs one setting so parallel cases do not share a table.
fn tied_table(stream: &mut Stream) -> ConfigTable {
    let actuators = 1 + stream.below(3);
    let specs: Vec<ActuatorSpec> = (0..actuators)
        .map(|a| {
            let settings = 1 + stream.below(7);
            let mut builder = ActuatorSpec::builder(format!("knob-{a}"));
            for s in 0..settings {
                builder = builder.setting(
                    SettingSpec::new(format!("{s}"))
                        .effect(Axis::Performance, stream.pick(&GRID))
                        .effect(Axis::Power, stream.pick(&GRID)),
                );
            }
            builder.build().expect("valid spec")
        })
        .collect();
    ConfigTable::new(&specs.iter().collect::<Vec<_>>())
}

/// The staircase climbed from scratch: every id's believed key in (power,
/// id) order, keeping each key at least as fast as every key before it.
fn climbed(model: &ActionModel) -> Vec<EffectKey> {
    let mut keys: Vec<EffectKey> = (0..model.table().len() as u32)
        .map(|i| {
            let belief = model.believed(ConfigId(i));
            EffectKey {
                speedup: belief.speedup,
                power: belief.powerup,
                id: ConfigId(i),
            }
        })
        .collect();
    keys.sort_by(|a, b| a.power.total_cmp(&b.power).then(a.id.cmp(&b.id)));
    let mut fastest = f64::NEG_INFINITY;
    keys.retain(|key| {
        let on = key.speedup >= fastest;
        fastest = fastest.max(key.speedup);
        on
    });
    keys
}

/// One believed effect as comparable bits.
fn bits(belief: BelievedEffect) -> (u64, u64, u64) {
    (
        belief.speedup.to_bits(),
        belief.powerup.to_bits(),
        belief.observations,
    )
}

/// An observed multiplier: usually near the grid (so learned beliefs tie
/// with declared ones after rounding), sometimes invalid.
fn observation(stream: &mut Stream) -> f64 {
    match stream.below(10) {
        0 => f64::NAN,
        1 => -1.0,
        2 => stream.pick(&GRID),
        _ => 0.1 + stream.below(400) as f64 / 80.0,
    }
}

/// Checks every query of `sparse` against `dense` over caps and a sweep
/// of requirements, and the staircase against a fresh climb.
fn assert_agree(
    sparse: &mut ActionModel,
    dense: &mut Dense,
    step: usize,
) -> Result<(), TestCaseError> {
    let len = sparse.table().len();
    for i in 0..len as u32 {
        let id = ConfigId(i);
        prop_assert_eq!(bits(sparse.believed(id)), bits(dense.beliefs[id.index()]));
    }
    let fresh = climbed(sparse);
    prop_assert!(
        sparse.believed_staircase() == &fresh[..],
        "step {step}: repaired {:?} climbed {fresh:?}",
        sparse.believed_staircase()
    );
    prop_assert_eq!(sparse.cheapest_id(), dense.cheapest_id());
    prop_assert_eq!(
        sparse.observed_configurations(),
        dense.beliefs.iter().filter(|b| b.observations > 0).count()
    );
    let mid = sparse.believed(ConfigId((step % len) as u32)).powerup;
    for cap in [f64::NAN, 0.0, -1.0, 1.0, mid, f64::INFINITY] {
        for i in 0..=49 {
            let required = match i {
                48 => f64::INFINITY,
                49 => f64::NAN,
                _ => i as f64 * 0.125,
            };
            let (sparse_id, sparse_speedup) = sparse.bracket_below_id(required, cap);
            let (dense_id, dense_speedup) = dense.bracket_below_id(required, cap);
            prop_assert!(
                sparse_id == dense_id,
                "bracket: step {step} req {required} cap {cap}: {sparse_id} vs {dense_id}"
            );
            prop_assert_eq!(sparse_speedup.to_bits(), dense_speedup.to_bits());
            let current = ConfigId(((step + i) % len) as u32);
            let (sparse_id, dense_id) = (
                sparse.choose_id(required, current, cap),
                dense.choose_id(required, current, cap),
            );
            prop_assert!(
                sparse_id == dense_id,
                "choose: step {step} req {required} cap {cap}: {sparse_id} vs {dense_id}"
            );
        }
    }
    Ok(())
}

/// Drives both models through `steps` observations (and aging ticks under
/// a finite halflife), checking them after each.
fn drive(
    seed: u64,
    halflife: f64,
    policy: ExplorationPolicy,
    steps: usize,
) -> Result<(), TestCaseError> {
    let mut stream = Stream(seed | 1);
    let table = tied_table(&mut stream);
    let mut sparse = ActionModel::new(table.clone(), seed).with_belief_halflife(halflife);
    sparse.set_policy(policy);
    let mut dense = Dense::new(table, seed);
    dense.set_belief_halflife(halflife);
    dense.policy = policy;
    assert_agree(&mut sparse, &mut dense, 0)?;
    for step in 1..=steps {
        // Revisit a few ids often, as a runtime does, and roam sometimes.
        let len = sparse.table().len();
        let id = ConfigId(if stream.below(3) == 0 {
            stream.below(len)
        } else {
            stream.below(len.min(5))
        } as u32);
        let (speedup, powerup) = (observation(&mut stream), observation(&mut stream));
        prop_assert_eq!(
            sparse.observe_id(id, speedup, powerup).to_bits(),
            dense.observe_id(id, speedup, powerup).to_bits()
        );
        prop_assert_eq!(
            sparse.is_diverged(),
            dense.divergent_streak >= dense.policy.patience
        );
        if stream.below(2) == 0 {
            sparse.age_beliefs();
            dense.age_beliefs();
        }
        assert_agree(&mut sparse, &mut dense, step)?;
    }
    Ok(())
}

/// No exploration: `choose_id` is the exploit choice alone.
fn exploit_only() -> ExplorationPolicy {
    ExplorationPolicy {
        epsilon: 0.0,
        divergence_threshold: f64::INFINITY,
        patience: u32::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn staircase_selection_equals_the_dense_scans(seed in 1u64..u64::MAX) {
        drive(seed, f64::INFINITY, exploit_only(), 40)?;
    }

    #[test]
    fn aged_staircase_selection_equals_the_dense_scans(seed in 1u64..u64::MAX, halflife in 1.0f64..12.0) {
        drive(seed, halflife, exploit_only(), 40)?;
    }

    #[test]
    fn exploring_models_draw_the_same_stream(seed in 1u64..u64::MAX) {
        // Exploration on (epsilon and divergence): both models must take
        // the same random draws and return the same neighbours.
        let policy = ExplorationPolicy {
            epsilon: 0.3,
            divergence_threshold: 0.5,
            patience: 2,
        };
        drive(seed, f64::INFINITY, policy, 30)?;
    }
}
