use std::sync::{Arc, Mutex, PoisonError, Weak};

use serde::{Deserialize, Serialize};

use crate::spec::{ActuatorSpec, SettingIndex};

/// A joint configuration: one setting index per actuator, in actuator order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Configuration(Vec<SettingIndex>);

impl Configuration {
    /// Creates a configuration from per-actuator setting indices.
    pub fn new(settings: Vec<SettingIndex>) -> Self {
        Configuration(settings)
    }

    /// The setting chosen for the actuator at `position`.
    pub fn setting(&self, position: usize) -> Option<SettingIndex> {
        self.0.get(position).copied()
    }

    /// Per-actuator setting indices.
    pub fn settings(&self) -> &[SettingIndex] {
        &self.0
    }

    /// Number of actuators this configuration covers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the configuration covers no actuators.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<SettingIndex>> for Configuration {
    fn from(settings: Vec<SettingIndex>) -> Self {
        Configuration::new(settings)
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

/// The predicted joint effect of a configuration, as multipliers over the
/// all-nominal configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictedEffect {
    /// Predicted performance multiplier (speedup).
    pub performance: f64,
    /// Predicted power multiplier.
    pub power: f64,
    /// Predicted accuracy multiplier.
    pub accuracy: f64,
}

impl PredictedEffect {
    /// The all-nominal effect (1.0 on every axis).
    pub fn nominal() -> Self {
        PredictedEffect {
            performance: 1.0,
            power: 1.0,
            accuracy: 1.0,
        }
    }
}

impl Default for PredictedEffect {
    fn default() -> Self {
        PredictedEffect::nominal()
    }
}

/// A small, copyable handle to one interned joint configuration.
///
/// Ids are dense (`0..cardinality`) and ordered lexicographically over the
/// per-actuator setting indices, last actuator fastest, so iterating ids in
/// order visits every joint configuration once without allocating a
/// settings vector per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConfigId(pub u32);

impl ConfigId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ConfigId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One configuration's effect as an inline sort key: its speedup and power
/// multipliers next to its id, so a walk over a sorted order reads every
/// key it compares without an indirect lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectKey {
    /// Speedup multiplier over nominal.
    pub speedup: f64,
    /// Power multiplier over nominal.
    pub power: f64,
    /// The configuration.
    pub id: ConfigId,
}

impl EffectKey {
    /// `true` when `self` sorts before `other` by (speedup, id).
    #[inline]
    pub fn slower_than(&self, other: &Self) -> bool {
        self.speedup < other.speedup || (self.speedup == other.speedup && self.id < other.id)
    }

    /// `true` when `self` sorts before `other` by (power, id).
    #[inline]
    pub fn cheaper_than(&self, other: &Self) -> bool {
        self.power < other.power || (self.power == other.power && self.id < other.id)
    }
}

/// The Pareto staircase of `by_power` (keys ascending by (power, id)): every
/// key whose speedup is at least `floor` and at least that of every key
/// before it. `floor` is the fastest speedup of the keys that precede
/// `by_power` in a longer order (`f64::NEG_INFINITY` for a whole order), so
/// a span of an order can be re-climbed on its own. Speedups along the
/// staircase never decrease, and runs of equal speedup are kept whole, so
/// the fastest configuration within any power prefix — smallest id on
/// ties — is on it.
pub fn staircase(
    by_power: impl IntoIterator<Item = EffectKey>,
    floor: f64,
) -> impl Iterator<Item = EffectKey> {
    let mut fastest = floor;
    by_power.into_iter().filter(move |key| {
        let on = key.speedup >= fastest;
        if on {
            fastest = key.speedup;
        }
        on
    })
}

/// The interned-configuration arena of the joint space spanned by a set of
/// actuator specifications.
///
/// Instead of materialising a `Vec<SettingIndex>` per joint configuration,
/// the table identifies each configuration by a mixed-radix [`ConfigId`] and
/// precomputes everything the decision loop needs per id: the declared joint
/// effect, the ids sorted by declared speedup and by declared power as
/// inline [`EffectKey`]s, and the declared Pareto staircase. Setting
/// decode/encode is O(arity) integer arithmetic; no configuration is stored.
///
/// The declared effects belong to the platform, not to an application, so
/// there is one table per distinct action space. [`ConfigTable::new`]
/// interns by content: a process-wide interner maps what the table is a
/// function of — each actuator's setting count, its nominal index, and the
/// bits of every setting's predicted effect on every axis — to a weak
/// handle on the shared, immutable storage. Every runtime over equal specs
/// holds the same storage, cloning a table is O(1), and the interner keeps
/// a table alive only while some handle to it does.
#[derive(Debug, Clone)]
pub struct ConfigTable {
    data: Arc<TableData>,
}

/// The immutable storage behind a [`ConfigTable`], shared by every handle
/// to the same action space.
#[derive(Debug)]
struct TableData {
    /// The content key the table was interned under (see [`content_key`]).
    key: Vec<u64>,
    /// Settings per actuator, in configuration order.
    radices: Vec<usize>,
    /// Mixed-radix strides: `strides[last] == 1`, so ids are lexicographic,
    /// last actuator fastest.
    strides: Vec<usize>,
    nominal: ConfigId,
    /// Declared joint effect of every id: the product, in actuator order,
    /// of each setting's predicted effect.
    effects: Vec<PredictedEffect>,
    /// Declared keys sorted ascending by (speedup, id).
    by_speedup: Vec<EffectKey>,
    /// Declared keys sorted ascending by (power, id).
    by_power: Vec<EffectKey>,
    /// The [`staircase`] of `by_power`.
    staircase: Vec<EffectKey>,
}

/// Live tables by content-key hash. Entries are weak, so the interner never
/// keeps a table alive; dead entries are pruned on every miss.
static INTERNER: Mutex<Vec<(u64, Weak<TableData>)>> = Mutex::new(Vec::new());

/// The words a table is a function of, in actuator order: each spec's
/// setting count and nominal index, then the f64 bits of every setting's
/// predicted effect on performance, power and accuracy. The setting count
/// prefix makes the encoding unambiguous, so equal keys mean equal tables.
fn content_key<'a>(specs: &'a [&'a ActuatorSpec]) -> impl Iterator<Item = u64> + 'a {
    specs.iter().flat_map(|spec| {
        [spec.len() as u64, spec.nominal() as u64]
            .into_iter()
            .chain(spec.predicted_rows().flat_map(|row| row.map(f64::to_bits)))
    })
}

/// A 64-bit hash of a content key, computed by streaming it (no allocation).
fn key_hash(key: impl Iterator<Item = u64>) -> u64 {
    key.fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// The live interned table with content-key hash `hash` that satisfies
/// `same`, if any.
fn find_live(
    interner: &[(u64, Weak<TableData>)],
    hash: u64,
    same: impl Fn(&TableData) -> bool,
) -> Option<Arc<TableData>> {
    interner
        .iter()
        .filter(|(entry_hash, _)| *entry_hash == hash)
        .find_map(|(_, weak)| weak.upgrade().filter(|data| same(data)))
}

impl ConfigTable {
    /// The table of the space spanned by `specs`, in configuration order.
    /// This is the one way to build a table.
    ///
    /// Interned by content: if a live table over equal specs exists, this
    /// returns a handle to its storage, so every runtime built over the same
    /// actuators shares one table. Otherwise the table is built from each
    /// setting's predicted effects and registered for later callers.
    ///
    /// # Panics
    ///
    /// Panics if the space has more than `u32::MAX` configurations (see
    /// [`Self::cardinality_of`]).
    pub fn new(specs: &[&ActuatorSpec]) -> Self {
        let Some(cardinality) = Self::cardinality_of(specs.iter().copied()) else {
            panic!(
                "configuration space too large to intern (more than {} configurations)",
                u32::MAX
            );
        };
        let hash = key_hash(content_key(specs));
        // Nothing below can panic while the lock is held, and the interner
        // holds only weak handles, so a poisoned lock is safe to reuse.
        let interner = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(data) = find_live(&interner, hash, |data| {
            data.key.iter().copied().eq(content_key(specs))
        }) {
            return ConfigTable { data };
        }
        drop(interner);

        let built = Arc::new(TableData::build(specs, cardinality));
        let mut interner = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
        interner.retain(|(_, weak)| weak.strong_count() > 0);
        // A concurrent caller may have interned the same space meanwhile:
        // share its table rather than registering a twin.
        if let Some(data) = find_live(&interner, hash, |data| data.key == built.key) {
            return ConfigTable { data };
        }
        interner.push((hash, Arc::downgrade(&built)));
        ConfigTable { data: built }
    }

    /// Number of joint configurations the space spanned by `specs` holds —
    /// 0 for no specs — or `None` when it exceeds `u32::MAX`, more than a
    /// [`ConfigId`] can address, so no table can intern it.
    pub fn cardinality_of<'a>(specs: impl IntoIterator<Item = &'a ActuatorSpec>) -> Option<usize> {
        let mut specs = specs.into_iter();
        let Some(first) = specs.next() else {
            return Some(0);
        };
        specs
            .try_fold(first.len(), |product, spec| product.checked_mul(spec.len()))
            .filter(|&cardinality| cardinality <= u32::MAX as usize)
    }

    /// Number of live handles to this table's storage, this one included:
    /// one per runtime (or other holder) over the same action space. The
    /// interner itself holds none.
    pub fn holders(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// Number of interned configurations (the space's cardinality).
    pub fn len(&self) -> usize {
        self.data.effects.len()
    }

    /// `true` when the space has no configurations.
    pub fn is_empty(&self) -> bool {
        self.data.effects.is_empty()
    }

    /// Number of actuators per configuration.
    pub fn arity(&self) -> usize {
        self.data.radices.len()
    }

    /// The id of the all-nominal configuration.
    pub fn nominal(&self) -> ConfigId {
        self.data.nominal
    }

    /// The setting chosen for actuator `pos` by configuration `id`.
    #[inline]
    pub fn setting(&self, id: ConfigId, pos: usize) -> SettingIndex {
        (id.index() / self.data.strides[pos]) % self.data.radices[pos]
    }

    /// Decodes `id` into `out` (cleared and refilled), without allocating
    /// when `out` already has capacity.
    pub fn write_settings(&self, id: ConfigId, out: &mut Configuration) {
        out.0.clear();
        for pos in 0..self.arity() {
            out.0.push(self.setting(id, pos));
        }
    }

    /// Materialises `id` as an owned [`Configuration`] (boundary use only;
    /// the hot path passes ids).
    pub fn config_of(&self, id: ConfigId) -> Configuration {
        let mut config = Configuration::new(Vec::with_capacity(self.arity()));
        self.write_settings(id, &mut config);
        config
    }

    /// Interns `config`, returning its id — or `None` if the configuration's
    /// arity or any setting is out of range for the space.
    pub fn id_of(&self, config: &Configuration) -> Option<ConfigId> {
        let data = &*self.data;
        if config.len() != data.radices.len() || data.effects.is_empty() {
            return None;
        }
        let mut id = 0usize;
        for (pos, &setting) in config.settings().iter().enumerate() {
            if setting >= data.radices[pos] {
                return None;
            }
            id += setting * data.strides[pos];
        }
        Some(ConfigId(id as u32))
    }

    /// The declared joint effect of `id`: starting from the all-nominal
    /// effect, each actuator's predicted effect for its setting multiplied
    /// in, in actuator order.
    #[inline]
    pub fn declared_effect(&self, id: ConfigId) -> PredictedEffect {
        self.data.effects[id.index()]
    }

    /// Every id's declared key, ascending by (speedup, id).
    pub fn by_declared_speedup(&self) -> &[EffectKey] {
        &self.data.by_speedup
    }

    /// Every id's declared key, ascending by (power, id).
    pub fn by_declared_power(&self) -> &[EffectKey] {
        &self.data.by_power
    }

    /// The declared Pareto staircase: the [`staircase`] of
    /// [`Self::by_declared_power`], the only configurations worth running
    /// while beliefs equal declared effects.
    pub fn declared_staircase(&self) -> &[EffectKey] {
        &self.data.staircase
    }

    /// The declared power multiplier of the cheapest configuration (the
    /// floor any power envelope must admit). 1.0 for an empty table.
    pub fn min_declared_power(&self) -> f64 {
        self.data.by_power.first().map_or(1.0, |key| key.power)
    }

    /// The declared power multiplier of the most expensive configuration —
    /// the per-table power ceiling an application can reach flat out. 1.0
    /// for an empty table.
    pub fn max_declared_power(&self) -> f64 {
        self.data.by_power.last().map_or(1.0, |key| key.power)
    }

    /// Number of single-actuator neighbours of any configuration.
    pub fn neighbor_count(&self) -> usize {
        self.data.radices.iter().map(|r| r - 1).sum()
    }

    /// The `k`-th neighbour of `id` (a configuration that differs from it in
    /// exactly one actuator): actuators in position order, each actuator's
    /// candidate settings ascending, skipping the current one.
    ///
    /// # Panics
    ///
    /// Panics if `k >= neighbor_count()`.
    pub fn neighbor(&self, id: ConfigId, mut k: usize) -> ConfigId {
        for pos in 0..self.arity() {
            let options = self.data.radices[pos] - 1;
            if k < options {
                let current = self.setting(id, pos);
                // Candidates are 0..radix skipping `current`.
                let candidate = if k < current { k } else { k + 1 };
                let delta = candidate as isize - current as isize;
                let new = id.index() as isize + delta * self.data.strides[pos] as isize;
                return ConfigId(new as u32);
            }
            k -= options;
        }
        panic!("neighbor index out of range");
    }
}

/// Two handles are equal when they share storage or their tables are equal
/// (whatever specs they were interned from).
impl PartialEq for ConfigTable {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.data, &*other.data);
        Arc::ptr_eq(&self.data, &other.data)
            || (a.radices == b.radices
                && a.nominal == b.nominal
                && a.effects == b.effects
                && a.by_speedup == b.by_speedup
                && a.by_power == b.by_power)
    }
}

impl TableData {
    /// Builds the table of `specs` (whose space holds `cardinality`
    /// configurations) from each setting's predicted effects: one row per
    /// setting, then one product of rows per id.
    fn build(specs: &[&ActuatorSpec], cardinality: usize) -> Self {
        let radices: Vec<usize> = specs.iter().map(|spec| spec.len()).collect();
        let mut strides = vec![1usize; radices.len()];
        for pos in (0..radices.len().saturating_sub(1)).rev() {
            strides[pos] = strides[pos + 1] * radices[pos + 1];
        }
        let rows: Vec<Vec<[f64; 3]>> = specs
            .iter()
            .map(|spec| spec.predicted_rows().collect())
            .collect();
        let effects: Vec<PredictedEffect> = (0..cardinality)
            .map(|id| {
                // Actuators multiply in position order from the all-nominal
                // effect.
                let mut effect = PredictedEffect::nominal();
                for (pos, spec_rows) in rows.iter().enumerate() {
                    let [performance, power, accuracy] =
                        spec_rows[(id / strides[pos]) % radices[pos]];
                    effect.performance *= performance;
                    effect.power *= power;
                    effect.accuracy *= accuracy;
                }
                effect
            })
            .collect();
        let mut by_speedup: Vec<EffectKey> = effects
            .iter()
            .enumerate()
            .map(|(id, effect)| EffectKey {
                speedup: effect.performance,
                power: effect.power,
                id: ConfigId(id as u32),
            })
            .collect();
        by_speedup.sort_by(|a, b| a.speedup.total_cmp(&b.speedup).then(a.id.cmp(&b.id)));
        let mut by_power = by_speedup.clone();
        by_power.sort_by(|a, b| a.power.total_cmp(&b.power).then(a.id.cmp(&b.id)));
        let staircase = staircase(by_power.iter().copied(), f64::NEG_INFINITY).collect();
        let nominal = if cardinality == 0 {
            ConfigId(0)
        } else {
            let id: usize = specs
                .iter()
                .zip(&strides)
                .map(|(spec, &stride)| spec.nominal() * stride)
                .sum();
            ConfigId(id as u32)
        };
        TableData {
            key: content_key(specs).collect(),
            radices,
            strides,
            nominal,
            effects,
            by_speedup,
            by_power,
            staircase,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, SettingSpec};

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
                SettingSpec::new("2")
                    .effect(Axis::Performance, 1.8)
                    .effect(Axis::Power, 2.0),
            )
            .setting(
                SettingSpec::new("4")
                    .effect(Axis::Performance, 3.0)
                    .effect(Axis::Power, 4.0),
            )
            .build()
            .unwrap();
        ConfigTable::new(&[&dvfs, &cores])
    }

    #[test]
    fn predicted_effects_multiply() {
        let table = table();
        let id = table.id_of(&Configuration::new(vec![0, 2])).unwrap();
        let effect = table.declared_effect(id);
        assert!((effect.performance - 0.5 * 3.0).abs() < 1e-12);
        assert!((effect.power - 0.4 * 4.0).abs() < 1e-12);
        assert_eq!(effect.accuracy, 1.0);
    }

    #[test]
    fn configuration_display_and_conversions() {
        let config: Configuration = vec![1, 2, 3].into();
        assert_eq!(config.to_string(), "[1, 2, 3]");
        assert_eq!(config.len(), 3);
        assert!(!config.is_empty());
        assert_eq!(config.setting(2), Some(3));
        assert_eq!(config.setting(9), None);
    }

    #[test]
    fn table_ids_are_lexicographic_last_actuator_fastest() {
        let table = table();
        assert_eq!(table.len(), 6);
        assert_eq!(table.arity(), 2);
        let order: Vec<Vec<SettingIndex>> = (0..6)
            .map(|i| table.config_of(ConfigId(i)).settings().to_vec())
            .collect();
        assert_eq!(
            order,
            [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]].map(Vec::from)
        );
        for (i, settings) in order.into_iter().enumerate() {
            let id = ConfigId(i as u32);
            assert_eq!(table.id_of(&Configuration::new(settings)), Some(id));
        }
        assert_eq!(
            table.config_of(table.nominal()),
            Configuration::new(vec![1, 0])
        );
    }

    #[test]
    fn table_rejects_invalid_configurations() {
        let table = table();
        assert_eq!(table.id_of(&Configuration::new(vec![0])), None);
        assert_eq!(table.id_of(&Configuration::new(vec![0, 9])), None);
        assert_eq!(table.id_of(&Configuration::new(vec![0, 0, 0])), None);
    }

    #[test]
    fn sorted_indices_are_ordered() {
        let table = table();
        let by_speedup = table.by_declared_speedup();
        assert!(by_speedup.windows(2).all(|w| w[0].slower_than(&w[1])));
        let by_power = table.by_declared_power();
        assert!(by_power.windows(2).all(|w| w[0].cheaper_than(&w[1])));
        assert_eq!(by_speedup.len(), table.len());
        for key in by_speedup.iter().chain(by_power) {
            let effect = table.declared_effect(key.id);
            assert_eq!((key.speedup, key.power), (effect.performance, effect.power));
        }
        // Declared speedup/power: [0,0] 0.5/0.4, [0,1] 0.9/0.8,
        // [1,0] 1/1, [0,2] 1.5/1.6, [1,1] 1.8/2, [1,2] 3/4 in power order:
        // every step up in power buys speed, so all six are on the
        // staircase.
        let stair: Vec<ConfigId> = table
            .declared_staircase()
            .iter()
            .map(|key| key.id)
            .collect();
        assert_eq!(stair, [0, 1, 3, 2, 4, 5].map(ConfigId));
    }

    #[test]
    fn power_ceiling_helpers_follow_the_sorted_index() {
        let table = table();
        let by_power = table.by_declared_power();
        assert_eq!(table.min_declared_power(), by_power[0].power);
        assert_eq!(table.max_declared_power(), by_power.last().unwrap().power);
        let empty = ConfigTable::new(&[]);
        assert_eq!(empty.min_declared_power(), 1.0);
        assert_eq!(empty.max_declared_power(), 1.0);
    }

    #[test]
    fn empty_space_table_is_empty() {
        let table = ConfigTable::new(&[]);
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.neighbor_count(), 0);
        assert_eq!(table.id_of(&Configuration::new(vec![])), None);
    }

    /// `count` two-setting actuators whose "on" effect is `on`.
    fn binary_specs(count: usize, on: f64) -> Vec<ActuatorSpec> {
        (0..count)
            .map(|i| {
                ActuatorSpec::builder(format!("switch-{i}"))
                    .setting(SettingSpec::new("off"))
                    .setting(SettingSpec::new("on").effect(Axis::Performance, on))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn cardinality_is_checked_against_the_id_range() {
        let cardinality = |count: usize| ConfigTable::cardinality_of(&binary_specs(count, 1.5));
        assert_eq!(ConfigTable::cardinality_of(&[]), Some(0));
        assert_eq!(cardinality(1), Some(2));
        assert_eq!(cardinality(31), Some(1 << 31));
        // 2^32 is one more than a u32 id can address; 2^64 wraps an
        // unchecked usize product to zero.
        assert_eq!(cardinality(32), None);
        assert_eq!(cardinality(33), None);
        assert_eq!(cardinality(64), None);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn sixty_four_binary_actuators_do_not_intern_as_an_empty_table() {
        let specs = binary_specs(64, 1.5);
        let _ = ConfigTable::new(&specs.iter().collect::<Vec<_>>());
    }

    /// Interner entries whose key is `specs`' content key, dead or alive.
    fn entries_for(specs: &[&ActuatorSpec]) -> usize {
        let key: Vec<u64> = content_key(specs).collect();
        let hash = key_hash(key.iter().copied());
        INTERNER
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(entry_hash, weak)| {
                *entry_hash == hash && weak.upgrade().is_none_or(|data| data.key == key)
            })
            .count()
    }

    #[test]
    fn a_miss_prunes_dead_entries() {
        // Effects unique to this test, so no parallel test shares them.
        let specs = binary_specs(3, 1.000_731);
        let refs: Vec<&ActuatorSpec> = specs.iter().collect();
        let table = ConfigTable::new(&refs);
        assert_eq!(entries_for(&refs), 1);
        drop(table);
        // Any miss prunes every dead entry, this one included.
        let other = binary_specs(3, 1.000_732);
        let _other = ConfigTable::new(&other.iter().collect::<Vec<_>>());
        assert_eq!(entries_for(&refs), 0);
    }

    #[test]
    fn a_poisoned_interner_still_interns() {
        let _ = std::thread::spawn(|| {
            let _guard = INTERNER.lock();
            panic!("poison the interner");
        })
        .join();
        let specs = binary_specs(2, 1.000_733);
        let refs: Vec<&ActuatorSpec> = specs.iter().collect();
        let first = ConfigTable::new(&refs);
        let second = ConfigTable::new(&refs);
        assert_eq!(
            first.by_declared_power().as_ptr(),
            second.by_declared_power().as_ptr()
        );
        assert_eq!(first.holders(), 2);
        assert_eq!(first.len(), 4);
    }

    #[test]
    fn default_effect_is_nominal() {
        assert_eq!(PredictedEffect::default(), PredictedEffect::nominal());
    }
}
