use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::error::ActuationError;

/// Index into an actuator's list of allowable settings.
pub type SettingIndex = usize;

/// An axis of system behaviour an actuator can affect.
///
/// These mirror the three goal families of the heartbeat API so that the
/// decision engine can pair goals with the actuators able to influence them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Axis {
    /// Application throughput / latency.
    Performance,
    /// Power (and energy) consumption.
    Power,
    /// Output quality.
    Accuracy,
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Axis::Performance => "performance",
            Axis::Power => "power",
            Axis::Accuracy => "accuracy",
        };
        f.write_str(name)
    }
}

impl Axis {
    /// Every axis, in declaration (and sort) order.
    pub(crate) const ALL: [Axis; 3] = [Axis::Performance, Axis::Power, Axis::Accuracy];

    /// The axis's position in [`Self::ALL`], which indexes per-axis arrays.
    fn index(self) -> usize {
        self as usize
    }
}

/// Whether an actuator affects only the application that registered it or
/// the whole system (DAC 2012 §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Scope {
    /// Only the registering application is affected (e.g. switching the
    /// application's algorithm).
    #[default]
    Application,
    /// Every application on the system is affected (e.g. allocating cores,
    /// changing chip-wide voltage).
    Global,
}

/// One allowable setting of an actuator and its predicted effects.
///
/// Effects are multipliers relative to the actuator's *nominal* setting,
/// whose effect is 1.0 on every axis. An axis with no declared effect is
/// assumed to be unaffected (multiplier 1.0).
///
/// Effects are held inline, one slot per [`Axis`], and a label given as a
/// `&'static str` is borrowed, not copied, so a setting with a literal
/// label allocates nothing. Once the setting is part of a built
/// [`ActuatorSpec`] it also carries its predicted row (see
/// [`ActuatorSpec::predicted_effect`]); equality compares only the label
/// and the declared effects.
#[derive(Debug, Clone)]
pub struct SettingSpec {
    label: Cow<'static, str>,
    /// Declared multipliers, 1.0 where `declared` has no bit.
    effects: [f64; 3],
    /// Bit `i` is set when axis `Axis::ALL[i]` has a declared effect.
    declared: u8,
    /// The predicted effect on every axis, filled in by
    /// [`ActuatorSpecBuilder::build`].
    predicted: [f64; 3],
}

impl PartialEq for SettingSpec {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.declared == other.declared
            && self.effects == other.effects
    }
}

impl SettingSpec {
    /// Creates a setting with the given human-readable label (a `String`
    /// or a `&'static str`) and no declared effects (all multipliers 1.0).
    pub fn new(label: impl Into<Cow<'static, str>>) -> Self {
        SettingSpec {
            label: label.into(),
            effects: [1.0; 3],
            declared: 0,
            predicted: [1.0; 3],
        }
    }

    /// Declares the effect of this setting on `axis` as a multiplier over the
    /// nominal setting. Declaring an axis again replaces its multiplier.
    pub fn effect(mut self, axis: Axis, multiplier: f64) -> Self {
        self.effects[axis.index()] = multiplier;
        self.declared |= 1 << axis.index();
        self
    }

    /// Human-readable label (e.g. `"2.4GHz"`, `"64KB"`, `"16 cores"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Multiplier this setting applies to `axis` (1.0 when undeclared).
    pub fn effect_on(&self, axis: Axis) -> f64 {
        self.effects[axis.index()]
    }

    /// Axes with explicitly declared effects, in [`Axis`] order.
    pub fn declared_axes(&self) -> impl Iterator<Item = Axis> + '_ {
        Axis::ALL.into_iter().filter(|&axis| self.declares(axis))
    }

    /// Whether this setting declares an effect on `axis`.
    fn declares(&self, axis: Axis) -> bool {
        self.declared & (1 << axis.index()) != 0
    }
}

/// Static description of an actuator: everything except the function that
/// actually changes the setting (see [`crate::Actuator`]).
///
/// The one way to make a spec is [`Self::builder`]: its `build` validates
/// the declarations and stores every setting's predicted row, so a spec's
/// rows always agree with its effects and exponents.
#[derive(Debug, Clone, PartialEq)]
pub struct ActuatorSpec {
    name: Cow<'static, str>,
    settings: Vec<SettingSpec>,
    nominal: SettingIndex,
    delay: f64,
    scope: Scope,
    /// Optional per-axis exponents applied on top of the declared
    /// multipliers when predicting effects (absent axes behave linearly,
    /// exponent 1.0). Lets designers declare *convex* priors — e.g. a core
    /// allocator whose power grows as `n^1.15` on platforms where
    /// utilisation-power is super-linear — without re-tabulating every
    /// setting.
    axis_exponents: [Option<f64>; 3],
}

impl ActuatorSpec {
    /// Starts building a spec for an actuator called `name` (a `String` or
    /// a `&'static str`).
    pub fn builder(name: impl Into<Cow<'static, str>>) -> ActuatorSpecBuilder {
        ActuatorSpecBuilder {
            name: name.into(),
            settings: Vec::new(),
            nominal: 0,
            delay: 0.0,
            scope: Scope::default(),
            axis_exponents: [None; 3],
        }
    }

    /// Actuator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All allowable settings, in index order.
    pub fn settings(&self) -> &[SettingSpec] {
        &self.settings
    }

    /// The setting at `index`, if it exists.
    pub fn setting(&self, index: SettingIndex) -> Option<&SettingSpec> {
        self.settings.get(index)
    }

    /// Number of allowable settings.
    pub fn len(&self) -> usize {
        self.settings.len()
    }

    /// Returns `true` if the actuator has no settings (never true for a
    /// successfully built spec).
    pub fn is_empty(&self) -> bool {
        self.settings.is_empty()
    }

    /// Index of the nominal setting (effects 1.0 on every axis).
    pub fn nominal(&self) -> SettingIndex {
        self.nominal
    }

    /// Seconds between applying a setting and its effects being observable.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Whether the actuator is application-scoped or global.
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// Union of the axes any setting declares an effect on.
    pub fn affected_axes(&self) -> Vec<Axis> {
        Axis::ALL
            .into_iter()
            .filter(|axis| self.settings.iter().any(|setting| setting.declares(*axis)))
            .collect()
    }

    /// Exponent applied to declared multipliers on `axis` when predicting
    /// effects (1.0 — the linear default — when none was declared).
    pub fn axis_exponent(&self, axis: Axis) -> f64 {
        self.axis_exponents[axis.index()].unwrap_or(1.0)
    }

    /// Predicted multiplier of setting `index` on `axis`, relative to
    /// nominal: the declared multiplier raised to the axis exponent.
    ///
    /// The exponentiation is skipped entirely (not computed as `m.powf(1.0)`)
    /// when the exponent is 1.0, so linear specs predict the exact declared
    /// bits — existing decision paths are unchanged unless an exponent is
    /// explicitly declared. Every setting's prediction is computed once,
    /// when the spec is built, so this is a lookup.
    ///
    /// # Errors
    ///
    /// Returns [`ActuationError::UnknownSetting`] when `index` is out of range.
    pub fn predicted_effect(&self, index: SettingIndex, axis: Axis) -> Result<f64, ActuationError> {
        let setting = self
            .setting(index)
            .ok_or_else(|| ActuationError::UnknownSetting {
                actuator: self.name.to_string(),
                requested: index,
                available: self.settings.len(),
            })?;
        Ok(setting.predicted[axis.index()])
    }

    /// [`Self::predicted_effect`] of every setting, in index order, on
    /// performance, power and accuracy: the rows stored at build time.
    pub(crate) fn predicted_rows(&self) -> impl Iterator<Item = [f64; 3]> + '_ {
        self.settings.iter().map(|setting| setting.predicted)
    }
}

/// A declared multiplier raised to its axis exponent, skipping the
/// exponentiation when the exponent is 1.0.
fn shaped(multiplier: f64, exponent: f64) -> f64 {
    if exponent == 1.0 {
        multiplier
    } else {
        multiplier.powf(exponent)
    }
}

/// Builder for [`ActuatorSpec`] (see [`ActuatorSpec::builder`]).
#[derive(Debug, Clone)]
pub struct ActuatorSpecBuilder {
    name: Cow<'static, str>,
    settings: Vec<SettingSpec>,
    nominal: SettingIndex,
    delay: f64,
    scope: Scope,
    axis_exponents: [Option<f64>; 3],
}

impl ActuatorSpecBuilder {
    /// Appends an allowable setting.
    pub fn setting(mut self, setting: SettingSpec) -> Self {
        self.settings.push(setting);
        self
    }

    /// Appends several settings at once.
    pub fn settings<I: IntoIterator<Item = SettingSpec>>(mut self, settings: I) -> Self {
        self.settings.extend(settings);
        self
    }

    /// Declares which setting index is nominal (default 0).
    pub fn nominal(mut self, index: SettingIndex) -> Self {
        self.nominal = index;
        self
    }

    /// Declares the actuation delay in seconds (default 0).
    pub fn delay(mut self, seconds: f64) -> Self {
        self.delay = seconds;
        self
    }

    /// Declares the actuator scope (default [`Scope::Application`]).
    pub fn scope(mut self, scope: Scope) -> Self {
        self.scope = scope;
        self
    }

    /// Declares an exponent applied to every setting's multiplier on `axis`
    /// when predicting effects (default 1.0 — linear). Exponent 1.0 is a
    /// no-op: predictions return the declared multipliers bit-for-bit.
    /// Declaring an axis again replaces its exponent.
    pub fn axis_exponent(mut self, axis: Axis, exponent: f64) -> Self {
        self.axis_exponents[axis.index()] = Some(exponent);
        self
    }

    /// Finalises the specification.
    ///
    /// # Errors
    ///
    /// Returns [`ActuationError::InvalidSpec`] if there are no settings, the
    /// nominal index is out of range, the delay is negative/non-finite, or
    /// any effect multiplier is non-positive or non-finite.
    ///
    /// Stores each setting's predicted effect on every axis (its declared
    /// multiplier raised to the axis exponent) with the setting.
    pub fn build(mut self) -> Result<ActuatorSpec, ActuationError> {
        if self.settings.is_empty() {
            return Err(ActuationError::InvalidSpec(format!(
                "actuator `{}` declares no settings",
                self.name
            )));
        }
        if self.nominal >= self.settings.len() {
            return Err(ActuationError::InvalidSpec(format!(
                "nominal index {} out of range for `{}` ({} settings)",
                self.nominal,
                self.name,
                self.settings.len()
            )));
        }
        if !self.delay.is_finite() || self.delay < 0.0 {
            return Err(ActuationError::InvalidSpec(format!(
                "delay must be non-negative and finite, got {}",
                self.delay
            )));
        }
        for (i, setting) in self.settings.iter().enumerate() {
            for axis in setting.declared_axes() {
                let m = setting.effect_on(axis);
                if !m.is_finite() || m <= 0.0 {
                    return Err(ActuationError::InvalidSpec(format!(
                        "setting {i} (`{}`) of `{}` has non-positive multiplier {m} on {axis}",
                        setting.label(),
                        self.name
                    )));
                }
            }
        }
        for (axis, exponent) in Axis::ALL.into_iter().zip(self.axis_exponents) {
            if let Some(exponent) = exponent.filter(|e| !e.is_finite() || *e <= 0.0) {
                return Err(ActuationError::InvalidSpec(format!(
                    "axis exponent on {axis} of `{}` must be positive and finite, got {exponent}",
                    self.name
                )));
            }
        }
        let exponents = self.axis_exponents.map(|exponent| exponent.unwrap_or(1.0));
        for setting in &mut self.settings {
            setting.predicted = std::array::from_fn(|i| shaped(setting.effects[i], exponents[i]));
        }
        Ok(ActuatorSpec {
            name: self.name,
            settings: self.settings,
            nominal: self.nominal,
            delay: self.delay,
            scope: self.scope,
            axis_exponents: self.axis_exponents,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    .effect(Axis::Performance, 1.5)
                    .effect(Axis::Power, 2.0),
            )
            .nominal(1)
            .delay(0.001)
            .scope(Scope::Global)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_complete_spec() {
        let spec = dvfs_spec();
        assert_eq!(spec.name(), "dvfs");
        assert_eq!(spec.len(), 3);
        assert!(!spec.is_empty());
        assert_eq!(spec.nominal(), 1);
        assert_eq!(spec.delay(), 0.001);
        assert_eq!(spec.scope(), Scope::Global);
        assert_eq!(spec.affected_axes(), vec![Axis::Performance, Axis::Power]);
    }

    #[test]
    fn undeclared_effects_default_to_unity() {
        let spec = dvfs_spec();
        let nominal = spec.setting(1).unwrap();
        assert_eq!(nominal.effect_on(Axis::Performance), 1.0);
        assert_eq!(nominal.effect_on(Axis::Power), 1.0);
        assert_eq!(nominal.effect_on(Axis::Accuracy), 1.0);
    }

    #[test]
    fn predicted_effect_checks_bounds() {
        let spec = dvfs_spec();
        assert_eq!(spec.predicted_effect(2, Axis::Power).unwrap(), 2.0);
        assert!(matches!(
            spec.predicted_effect(7, Axis::Power),
            Err(ActuationError::UnknownSetting { requested: 7, .. })
        ));
    }

    #[test]
    fn empty_spec_is_rejected() {
        let err = ActuatorSpec::builder("empty").build().unwrap_err();
        assert!(matches!(err, ActuationError::InvalidSpec(_)));
    }

    #[test]
    fn bad_nominal_index_is_rejected() {
        let err = ActuatorSpec::builder("x")
            .setting(SettingSpec::new("only"))
            .nominal(3)
            .build()
            .unwrap_err();
        assert!(matches!(err, ActuationError::InvalidSpec(_)));
    }

    #[test]
    fn negative_delay_is_rejected() {
        let err = ActuatorSpec::builder("x")
            .setting(SettingSpec::new("only"))
            .delay(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ActuationError::InvalidSpec(_)));
    }

    #[test]
    fn non_positive_multiplier_is_rejected() {
        let err = ActuatorSpec::builder("x")
            .setting(SettingSpec::new("bad").effect(Axis::Power, 0.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ActuationError::InvalidSpec(_)));
    }

    #[test]
    fn axis_exponent_shapes_predicted_effects() {
        let spec = ActuatorSpec::builder("cores")
            .setting(SettingSpec::new("1"))
            .setting(
                SettingSpec::new("4")
                    .effect(Axis::Performance, 4.0)
                    .effect(Axis::Power, 4.0),
            )
            .axis_exponent(Axis::Power, 1.15)
            .build()
            .unwrap();
        assert_eq!(spec.axis_exponent(Axis::Power), 1.15);
        assert_eq!(spec.axis_exponent(Axis::Performance), 1.0);
        // Performance stays linear; power is raised to the exponent.
        assert_eq!(spec.predicted_effect(1, Axis::Performance).unwrap(), 4.0);
        let power = spec.predicted_effect(1, Axis::Power).unwrap();
        assert!((power - 4.0f64.powf(1.15)).abs() < 1e-12);
        // The nominal setting's unity multiplier is a fixed point.
        assert_eq!(spec.predicted_effect(0, Axis::Power).unwrap(), 1.0);
    }

    #[test]
    fn unity_axis_exponent_is_bit_identical_to_no_exponent() {
        let base = dvfs_spec();
        let with_unity = ActuatorSpec::builder("dvfs")
            .setting(
                SettingSpec::new("slow")
                    .effect(Axis::Performance, 0.5)
                    .effect(Axis::Power, 0.4),
            )
            .setting(SettingSpec::new("nominal"))
            .setting(
                SettingSpec::new("fast")
                    .effect(Axis::Performance, 1.5)
                    .effect(Axis::Power, 2.0),
            )
            .nominal(1)
            .delay(0.001)
            .scope(Scope::Global)
            .axis_exponent(Axis::Power, 1.0)
            .build()
            .unwrap();
        for index in 0..base.len() {
            for axis in [Axis::Performance, Axis::Power, Axis::Accuracy] {
                assert_eq!(
                    base.predicted_effect(index, axis).unwrap().to_bits(),
                    with_unity.predicted_effect(index, axis).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn invalid_axis_exponent_is_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ActuatorSpec::builder("x")
                .setting(SettingSpec::new("only"))
                .axis_exponent(Axis::Power, bad)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ActuationError::InvalidSpec(_)),
                "exponent {bad}"
            );
        }
    }

    #[test]
    fn default_scope_is_application() {
        let spec = ActuatorSpec::builder("x")
            .setting(SettingSpec::new("only"))
            .build()
            .unwrap();
        assert_eq!(spec.scope(), Scope::Application);
    }
}
