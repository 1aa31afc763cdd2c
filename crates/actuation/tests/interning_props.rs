//! Property tests: configuration interning must round-trip for arbitrary
//! spaces — `ConfigId` → settings → the same `ConfigId` — and the table's
//! precomputed effects and neighbour enumeration must agree exactly with
//! the unmemoized queries of [`Space`], a reference kept in this file that
//! never calls `ConfigTable`. The interned table must equal, bit for bit,
//! the per-id construction it replaced (kept here as [`oracle`]), and the
//! interner must share storage exactly between specs whose predictions are
//! equal and hold no table alive. Specs built from arbitrary declarations
//! must answer every query exactly as a plain per-axis map of their
//! declarations ([`Reference`]) does.

use std::collections::BTreeMap;

use actuation::{
    ActuatorSpec, Axis, ConfigId, ConfigTable, Configuration, EffectKey, PredictedEffect,
    SettingSpec,
};
use proptest::prelude::*;

/// The reference joint space spanned by a set of actuator specs: an
/// odometer over the setting indices and a per-spec product of predicted
/// effects, computed on the fly for one configuration at a time.
struct Space {
    specs: Vec<ActuatorSpec>,
}

impl Space {
    /// Every joint configuration, lexicographic over the setting indices,
    /// last actuator fastest (none for no specs). The odometer counts
    /// settings one at a time, so no cardinality is ever multiplied out.
    fn configurations(&self) -> Vec<Configuration> {
        let mut all = Vec::new();
        if self.specs.is_empty() {
            return all;
        }
        let mut current = vec![0; self.specs.len()];
        loop {
            all.push(Configuration::new(current.clone()));
            let mut pos = current.len();
            loop {
                if pos == 0 {
                    return all;
                }
                pos -= 1;
                current[pos] += 1;
                if current[pos] < self.specs[pos].len() {
                    break;
                }
                current[pos] = 0;
            }
        }
    }

    /// The all-nominal configuration.
    fn nominal(&self) -> Configuration {
        Configuration::new(self.specs.iter().map(ActuatorSpec::nominal).collect())
    }

    /// Predicted joint effect of `config`: each actuator's predicted effect
    /// for its setting, multiplied in actuator order from the all-nominal
    /// effect.
    fn predicted_effect(&self, config: &Configuration) -> PredictedEffect {
        let mut effect = PredictedEffect::nominal();
        for (spec, &setting) in self.specs.iter().zip(config.settings()) {
            let on = |axis| spec.predicted_effect(setting, axis).expect("valid setting");
            effect.performance *= on(Axis::Performance);
            effect.power *= on(Axis::Power);
            effect.accuracy *= on(Axis::Accuracy);
        }
        effect
    }

    /// Configurations that differ from `config` in exactly one actuator:
    /// actuators in position order, candidate settings ascending.
    fn neighbors(&self, config: &Configuration) -> Vec<Configuration> {
        let mut out = Vec::new();
        for (pos, spec) in self.specs.iter().enumerate() {
            for candidate in 0..spec.len() {
                if Some(candidate) != config.setting(pos) {
                    let mut settings = config.settings().to_vec();
                    settings[pos] = candidate;
                    out.push(Configuration::new(settings));
                }
            }
        }
        out
    }
}

/// Builds a deterministic space from a shape vector: one actuator per
/// entry, that many settings, with effects derived from the indices, and
/// `power_exponent` as every actuator's power-axis exponent.
fn space_from_shape(radices: &[usize], power_exponent: f64) -> Space {
    let specs = radices
        .iter()
        .enumerate()
        .map(|(actuator, &settings)| {
            let mut builder = ActuatorSpec::builder(format!("actuator-{actuator}"))
                .axis_exponent(Axis::Power, power_exponent);
            for setting in 0..settings {
                builder = builder.setting(
                    SettingSpec::new(format!("s{setting}"))
                        .effect(Axis::Performance, 0.5 + setting as f64 * 0.7)
                        .effect(
                            Axis::Power,
                            0.3 + setting as f64 * (actuator + 1) as f64 * 0.4,
                        ),
                );
            }
            builder
                .nominal(settings / 2)
                .build()
                .expect("generated spec is valid")
        })
        .collect();
    Space { specs }
}

/// The per-id construction the interned table replaced, kept as the
/// reference: every configuration's joint effect from
/// [`Space::predicted_effect`], ids stably sorted by declared speedup and
/// by declared power, the nominal configuration's id, and the declared
/// staircase: the power-ordered ids at least as fast as every id before
/// them, found by comparing each id with all of its predecessors.
struct Oracle {
    effects: Vec<PredictedEffect>,
    by_speedup: Vec<ConfigId>,
    by_power: Vec<ConfigId>,
    staircase: Vec<ConfigId>,
    nominal: ConfigId,
}

fn oracle(space: &Space) -> Oracle {
    oracle_with(space, |config| space.predicted_effect(config))
}

/// [`oracle`] with each configuration's joint effect taken from `effect`.
fn oracle_with(space: &Space, effect: impl Fn(&Configuration) -> PredictedEffect) -> Oracle {
    let configurations = space.configurations();
    let effects: Vec<PredictedEffect> = configurations.iter().map(effect).collect();
    let ids = || (0..effects.len() as u32).map(ConfigId);
    let mut by_speedup: Vec<ConfigId> = ids().collect();
    by_speedup.sort_by(|a, b| {
        effects[a.index()]
            .performance
            .total_cmp(&effects[b.index()].performance)
            .then(a.cmp(b))
    });
    let mut by_power: Vec<ConfigId> = ids().collect();
    by_power.sort_by(|a, b| {
        effects[a.index()]
            .power
            .total_cmp(&effects[b.index()].power)
            .then(a.cmp(b))
    });
    let staircase = (0..by_power.len())
        .filter(|&at| {
            let speedup = effects[by_power[at].index()].performance;
            by_power[..at]
                .iter()
                .all(|earlier| effects[earlier.index()].performance <= speedup)
        })
        .map(|at| by_power[at])
        .collect();
    let nominal = configurations
        .iter()
        .position(|config| *config == space.nominal())
        .map_or(ConfigId(0), |index| ConfigId(index as u32));
    Oracle {
        effects,
        by_speedup,
        by_power,
        staircase,
        nominal,
    }
}

/// Asserts `table` equals the oracle bit for bit.
fn assert_matches_oracle(table: &ConfigTable, oracle: &Oracle) {
    assert_eq!(table.len(), oracle.effects.len());
    for (index, expected) in oracle.effects.iter().enumerate() {
        let got = table.declared_effect(ConfigId(index as u32));
        assert_eq!(
            got.performance.to_bits(),
            expected.performance.to_bits(),
            "id {index}"
        );
        assert_eq!(got.power.to_bits(), expected.power.to_bits(), "id {index}");
        assert_eq!(
            got.accuracy.to_bits(),
            expected.accuracy.to_bits(),
            "id {index}"
        );
    }
    let ids = |keys: &[EffectKey]| keys.iter().map(|key| key.id).collect::<Vec<_>>();
    assert_eq!(ids(table.by_declared_speedup()), oracle.by_speedup);
    assert_eq!(ids(table.by_declared_power()), oracle.by_power);
    assert_eq!(ids(table.declared_staircase()), oracle.staircase);
    let keys = table.by_declared_speedup().iter();
    for key in keys
        .chain(table.by_declared_power())
        .chain(table.declared_staircase())
    {
        let effect = &oracle.effects[key.id.index()];
        assert_eq!(key.speedup.to_bits(), effect.performance.to_bits());
        assert_eq!(key.power.to_bits(), effect.power.to_bits());
    }
    assert_eq!(table.nominal(), oracle.nominal);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interning_round_trips_and_matches_the_space(
        radices in proptest::collection::vec(1usize..5, 1..5),
        exponent_index in 0usize..3,
    ) {
        let space = space_from_shape(&radices, [1.0, 1.15, 2.2][exponent_index]);
        let table = table_of(&space.specs);
        assert_matches_oracle(&table, &oracle(&space));
        let configurations = space.configurations();
        prop_assert_eq!(table.len(), configurations.len());
        prop_assert_eq!(table.arity(), space.specs.len());
        prop_assert_eq!(table.config_of(table.nominal()), space.nominal());

        for (index, config) in configurations.into_iter().enumerate() {
            let id = ConfigId(index as u32);

            // ConfigId → settings → the same ConfigId.
            let materialised = table.config_of(id);
            prop_assert_eq!(&materialised, &config);
            prop_assert_eq!(table.id_of(&materialised), Some(id));
            for pos in 0..config.len() {
                prop_assert_eq!(Some(table.setting(id, pos)), config.setting(pos));
            }

            // Precomputed declared effects are bit-identical to the
            // space's on-the-fly prediction.
            let declared = table.declared_effect(id);
            let predicted = space.predicted_effect(&config);
            prop_assert_eq!(declared.performance.to_bits(), predicted.performance.to_bits());
            prop_assert_eq!(declared.power.to_bits(), predicted.power.to_bits());
            prop_assert_eq!(declared.accuracy.to_bits(), predicted.accuracy.to_bits());

            // Neighbour arithmetic enumerates exactly the space's
            // neighbour list, in the same order.
            let neighbors = space.neighbors(&config);
            prop_assert_eq!(table.neighbor_count(), neighbors.len());
            for (k, neighbor) in neighbors.iter().enumerate() {
                prop_assert_eq!(&table.config_of(table.neighbor(id, k)), neighbor);
            }
        }

        // Arity mismatches and out-of-range settings do not intern.
        let mut too_long: Vec<usize> = vec![0; radices.len() + 1];
        too_long[radices.len()] = 0;
        prop_assert_eq!(table.id_of(&Configuration::new(too_long)), None);
        let mut out_of_range: Vec<usize> = vec![0; radices.len()];
        out_of_range[0] = radices[0];
        prop_assert_eq!(table.id_of(&Configuration::new(out_of_range)), None);

        // The sorted indices cover every id and are ordered by their keys.
        let by_speedup = table.by_declared_speedup();
        prop_assert_eq!(by_speedup.len(), table.len());
        for pair in by_speedup.windows(2) {
            prop_assert!(pair[0].slower_than(&pair[1]));
        }
        let by_power = table.by_declared_power();
        for pair in by_power.windows(2) {
            prop_assert!(pair[0].cheaper_than(&pair[1]));
        }
    }
}

const AXES: [Axis; 3] = [Axis::Performance, Axis::Power, Axis::Accuracy];

/// A deterministic stream of draws in `[0, 1)`, cycling through `raw`.
struct Draws<'a> {
    raw: &'a [f64],
    at: usize,
}

impl Draws<'_> {
    fn next(&mut self) -> f64 {
        let draw = self.raw[self.at % self.raw.len()];
        self.at += 1;
        draw
    }

    /// A draw in `0..bound`.
    fn below(&mut self, bound: usize) -> usize {
        ((self.next() * bound as f64) as usize).min(bound - 1)
    }
}

/// What one actuator declared, kept as plain per-axis maps: each
/// setting's declared multipliers, the declared exponents, the nominal.
/// A re-declared axis overwrites, so the last declaration wins.
struct Reference {
    settings: Vec<BTreeMap<Axis, f64>>,
    exponents: BTreeMap<Axis, f64>,
    nominal: usize,
}

impl Reference {
    fn effect_on(&self, index: usize, axis: Axis) -> f64 {
        self.settings[index].get(&axis).copied().unwrap_or(1.0)
    }

    fn axis_exponent(&self, axis: Axis) -> f64 {
        self.exponents.get(&axis).copied().unwrap_or(1.0)
    }

    /// The declared multiplier raised to the axis exponent, with the
    /// exponentiation skipped at 1.0.
    fn predicted(&self, index: usize, axis: Axis) -> f64 {
        let (multiplier, exponent) = (self.effect_on(index, axis), self.axis_exponent(axis));
        if exponent == 1.0 {
            multiplier
        } else {
            multiplier.powf(exponent)
        }
    }
}

/// One actuator built from arbitrary declarations, next to the
/// [`Reference`] of what it declared: one to four settings, each with up
/// to four effect declarations on random axes (so axes repeat), up to
/// four exponent declarations drawn from 1.0 and other positive values,
/// and an arbitrary nominal index.
fn declared_actuator(draws: &mut Draws, name: usize) -> (ActuatorSpec, Reference) {
    let mut builder = ActuatorSpec::builder(format!("actuator-{name}"));
    let mut reference = Reference {
        settings: Vec::new(),
        exponents: BTreeMap::new(),
        nominal: 0,
    };
    for index in 0..1 + draws.below(4) {
        let mut setting = SettingSpec::new(format!("s{index}"));
        let mut declared = BTreeMap::new();
        for _ in 0..draws.below(5) {
            let axis = AXES[draws.below(3)];
            let multiplier = 0.05 + 4.0 * draws.next();
            setting = setting.effect(axis, multiplier);
            declared.insert(axis, multiplier);
        }
        builder = builder.setting(setting);
        reference.settings.push(declared);
    }
    for _ in 0..draws.below(5) {
        let axis = AXES[draws.below(3)];
        let draw = draws.next();
        let exponent = if draw < 0.4 { 1.0 } else { 0.25 + 2.0 * draw };
        builder = builder.axis_exponent(axis, exponent);
        reference.exponents.insert(axis, exponent);
    }
    reference.nominal = draws.below(reference.settings.len());
    let spec = builder
        .nominal(reference.nominal)
        .build()
        .expect("declarations are valid");
    (spec, reference)
}

/// Asserts `spec` answers every per-setting and per-axis query exactly as
/// `reference` does.
fn assert_matches_reference(spec: &ActuatorSpec, reference: &Reference) {
    assert_eq!(spec.len(), reference.settings.len());
    assert_eq!(spec.nominal(), reference.nominal);
    for (index, declared) in reference.settings.iter().enumerate() {
        let setting = spec.setting(index).expect("setting exists");
        assert_eq!(
            setting.declared_axes().collect::<Vec<_>>(),
            declared.keys().copied().collect::<Vec<_>>()
        );
        for axis in AXES {
            assert_eq!(
                setting.effect_on(axis).to_bits(),
                reference.effect_on(index, axis).to_bits()
            );
            assert_eq!(
                spec.predicted_effect(index, axis)
                    .expect("in range")
                    .to_bits(),
                reference.predicted(index, axis).to_bits()
            );
        }
    }
    let mut affected: Vec<Axis> = reference
        .settings
        .iter()
        .flat_map(|s| s.keys().copied())
        .collect();
    affected.sort();
    affected.dedup();
    assert_eq!(spec.affected_axes(), affected);
    for axis in AXES {
        assert_eq!(
            spec.axis_exponent(axis).to_bits(),
            reference.axis_exponent(axis).to_bits()
        );
    }
    assert!(spec.predicted_effect(spec.len(), Axis::Power).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn specs_answer_as_their_declarations(
        raw in proptest::collection::vec(0.0..1.0f64, 8..200),
        actuators in 1usize..5,
    ) {
        let mut draws = Draws { raw: &raw, at: 0 };
        let (specs, references): (Vec<ActuatorSpec>, Vec<Reference>) =
            (0..actuators).map(|name| declared_actuator(&mut draws, name)).unzip();
        for (spec, reference) in specs.iter().zip(&references) {
            assert_matches_reference(spec, reference);
        }
        // The interned table equals the one built from the reference's
        // predicted rows.
        let table = table_of(&specs);
        let space = Space { specs };
        let expected = oracle_with(&space, |config| {
            let mut effect = PredictedEffect::nominal();
            for (reference, &setting) in references.iter().zip(config.settings()) {
                effect.performance *= reference.predicted(setting, Axis::Performance);
                effect.power *= reference.predicted(setting, Axis::Power);
                effect.accuracy *= reference.predicted(setting, Axis::Accuracy);
            }
            effect
        });
        assert_matches_oracle(&table, &expected);
    }
}

// The tests below use effect values no other test in this binary declares,
// so tables interned by tests running in parallel never share an entry.

/// A two-actuator space with effects unique to the test that passes `tag`.
fn tagged_specs(tag: f64) -> Vec<ActuatorSpec> {
    let dvfs = ActuatorSpec::builder("dvfs")
        .setting(
            SettingSpec::new("slow")
                .effect(Axis::Performance, 0.5 + tag)
                .effect(Axis::Power, 0.4 + tag),
        )
        .setting(SettingSpec::new("nominal"))
        .setting(
            SettingSpec::new("fast")
                .effect(Axis::Performance, 1.9 + tag)
                .effect(Axis::Power, 2.7 + tag),
        )
        .nominal(1)
        .build()
        .expect("valid spec");
    let cores = ActuatorSpec::builder("cores")
        .setting(SettingSpec::new("1"))
        .setting(
            SettingSpec::new("2")
                .effect(Axis::Performance, 1.8 + tag)
                .effect(Axis::Power, 2.1 + tag)
                .effect(Axis::Accuracy, 0.9 + tag),
        )
        .build()
        .expect("valid spec");
    vec![dvfs, cores]
}

fn table_of(specs: &[ActuatorSpec]) -> ConfigTable {
    ConfigTable::new(&specs.iter().collect::<Vec<_>>())
}

fn shares_storage(a: &ConfigTable, b: &ConfigTable) -> bool {
    a.by_declared_power().as_ptr() == b.by_declared_power().as_ptr()
}

#[test]
fn equal_predictions_share_one_table() {
    let specs = tagged_specs(0.001_173);
    let first = table_of(&specs);
    let second = table_of(&specs);
    assert!(shares_storage(&first, &second));
    // Equal content in another allocation interns to the same table.
    let copied = table_of(&specs.clone());
    assert!(shares_storage(&first, &copied));
    assert_eq!(first.holders(), 3);
    // Names, labels, delays and scopes are not part of the key: the table
    // is a function of the predicted effects alone.
    let renamed: Vec<ActuatorSpec> = specs
        .iter()
        .map(|spec| {
            spec.settings()
                .iter()
                .enumerate()
                .fold(
                    ActuatorSpec::builder(format!("{}-renamed", spec.name())),
                    |b, (i, setting)| {
                        let mut renamed = SettingSpec::new(format!("setting {i}"));
                        for axis in setting.declared_axes() {
                            renamed = renamed.effect(axis, setting.effect_on(axis));
                        }
                        b.setting(renamed)
                    },
                )
                .nominal(spec.nominal())
                .delay(0.25)
                .build()
                .expect("valid spec")
        })
        .collect();
    assert!(shares_storage(&first, &table_of(&renamed)));
    // A unity exponent predicts the declared bits, so it shares too.
    let unity: Vec<ActuatorSpec> = tagged_specs(0.001_173)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            if i == 0 {
                with_power_exponent(&spec, 1.0)
            } else {
                spec
            }
        })
        .collect();
    assert!(shares_storage(&first, &table_of(&unity)));
}

/// `spec` rebuilt with a power-axis exponent.
fn with_power_exponent(spec: &ActuatorSpec, exponent: f64) -> ActuatorSpec {
    spec.settings()
        .iter()
        .fold(
            ActuatorSpec::builder(spec.name().to_owned()),
            |b, setting| b.setting(setting.clone()),
        )
        .nominal(spec.nominal())
        .axis_exponent(Axis::Power, exponent)
        .build()
        .expect("valid spec")
}

#[test]
fn one_effect_bit_the_nominal_or_an_exponent_intern_apart() {
    let tag = 0.002_339;
    let base_specs = tagged_specs(tag);
    let base = table_of(&base_specs);

    // One effect, one ulp apart.
    let mut bit_flipped = tagged_specs(tag);
    let fast = f64::from_bits((1.9 + tag).to_bits() + 1);
    bit_flipped[0] = bit_flipped[0]
        .settings()
        .iter()
        .enumerate()
        .fold(ActuatorSpec::builder("dvfs"), |b, (i, setting)| {
            b.setting(if i == 2 {
                setting.clone().effect(Axis::Performance, fast)
            } else {
                setting.clone()
            })
        })
        .nominal(1)
        .build()
        .expect("valid spec");

    // The same settings, another nominal index.
    let mut renominated = tagged_specs(tag);
    renominated[0] = renominated[0]
        .settings()
        .iter()
        .fold(ActuatorSpec::builder("dvfs"), |b, setting| {
            b.setting(setting.clone())
        })
        .nominal(2)
        .build()
        .expect("valid spec");

    // The same settings, a convex power prior on one actuator.
    let mut convex = tagged_specs(tag);
    convex[1] = with_power_exponent(&convex[1], 1.15);

    for (what, specs) in [
        ("one effect bit", bit_flipped),
        ("the nominal index", renominated),
        ("an axis exponent", convex),
    ] {
        let table = table_of(&specs);
        assert!(!shares_storage(&base, &table), "{what} must intern apart");
        assert_ne!(base, table, "{what} must intern apart");
        assert_matches_oracle(&table, &oracle(&Space { specs }));
    }
    assert_matches_oracle(&base, &oracle(&Space { specs: base_specs }));
}

#[test]
fn dropped_tables_are_not_kept_alive_and_rebuild() {
    let specs = tagged_specs(0.003_517);
    let first = table_of(&specs);
    // The interner holds no strong reference: this handle is the only one.
    assert_eq!(first.holders(), 1);
    let second = first.clone();
    assert!(shares_storage(&first, &second));
    assert_eq!(first.holders(), 2);
    drop(first);
    drop(second);
    let rebuilt = table_of(&specs);
    assert_eq!(rebuilt.holders(), 1);
    assert_matches_oracle(&rebuilt, &oracle(&Space { specs }));
}

#[test]
fn tables_are_shareable_across_threads() {
    fn assert_traits<T: Send + Sync + Clone + PartialEq>() {}
    assert_traits::<ConfigTable>();
    let specs = tagged_specs(0.004_621);
    let here = table_of(&specs);
    let there = std::thread::scope(|scope| scope.spawn(|| table_of(&specs)).join().unwrap());
    assert!(shares_storage(&here, &there));
}
