use std::sync::Arc;

use crate::error::ActuationError;
use crate::spec::{ActuatorSpec, SettingIndex};

/// An actuator: a described knob plus the function that changes it.
///
/// Implementations wrap a platform resource (core allocation, clock speed,
/// cache configuration, routing tables, ...) and apply setting changes to it.
/// The SEEC runtime only interacts with actuators through this trait, which
/// keeps the decision engine independent of any particular substrate.
pub trait Actuator: Send {
    /// The static description of this actuator.
    fn spec(&self) -> &ActuatorSpec;

    /// The currently applied setting index.
    fn current(&self) -> SettingIndex;

    /// Applies the setting at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ActuationError::UnknownSetting`] if `index` is out of range,
    /// or [`ActuationError::PlatformRejected`] if the platform cannot apply
    /// the change.
    fn apply(&mut self, index: SettingIndex) -> Result<(), ActuationError>;

    /// Convenience: applies the nominal setting.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Actuator::apply`].
    fn reset_to_nominal(&mut self) -> Result<(), ActuationError> {
        let nominal = self.spec().nominal();
        self.apply(nominal)
    }
}

/// A self-contained actuator that simply remembers its current setting.
///
/// Useful for tests, for modelling application-level knobs whose effect is
/// fully captured by the declared multipliers, and as the building block of
/// substrate actuators that apply the setting elsewhere before recording it.
///
/// The spec is held behind an [`Arc`], so every actuator built from one
/// shared spec (a platform's `Scope::Global` knobs, say) reads the same
/// storage, and cloning an actuator is O(1) in the spec's size.
#[derive(Debug, Clone)]
pub struct TableActuator {
    spec: Arc<ActuatorSpec>,
    current: SettingIndex,
}

impl TableActuator {
    /// Creates the actuator positioned at the spec's nominal setting. Takes
    /// an owned spec or a shared `Arc<ActuatorSpec>`.
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use actuation::{Actuator, ActuatorSpec, Axis, Scope, SettingSpec, TableActuator};
    ///
    /// // A chip-wide clock knob, built once and shared by every application.
    /// let clock = Arc::new(
    ///     ActuatorSpec::builder("clock")
    ///         .scope(Scope::Global)
    ///         .setting(SettingSpec::new("1.6GHz"))
    ///         .setting(SettingSpec::new("2.4GHz").effect(Axis::Performance, 1.5).effect(Axis::Power, 2.4))
    ///         .build()
    ///         .expect("spec is well formed"),
    /// );
    /// let mut mine = TableActuator::new(Arc::clone(&clock));
    /// let theirs = TableActuator::new(Arc::clone(&clock));
    /// mine.apply(1).expect("setting exists");
    /// // The spec is shared; the current setting is each actuator's own.
    /// assert!(std::ptr::eq(mine.spec(), theirs.spec()));
    /// assert_eq!((mine.current(), theirs.current()), (1, 0));
    /// assert_eq!(mine.spec().predicted_effect(1, Axis::Power), Ok(2.4));
    /// ```
    pub fn new(spec: impl Into<Arc<ActuatorSpec>>) -> Self {
        let spec = spec.into();
        let current = spec.nominal();
        TableActuator { spec, current }
    }
}

impl Actuator for TableActuator {
    fn spec(&self) -> &ActuatorSpec {
        &self.spec
    }

    fn current(&self) -> SettingIndex {
        self.current
    }

    fn apply(&mut self, index: SettingIndex) -> Result<(), ActuationError> {
        if index >= self.spec.len() {
            return Err(ActuationError::UnknownSetting {
                actuator: self.spec.name().to_string(),
                requested: index,
                available: self.spec.len(),
            });
        }
        self.current = index;
        Ok(())
    }
}

/// An actuator whose setting changes are forwarded to a closure.
///
/// The closure receives the new setting index and returns `Err(reason)` if
/// the platform rejects the change. This is the usual way substrates expose
/// their knobs: the closure captures a handle to the platform state.
pub struct FnActuator<F>
where
    F: FnMut(SettingIndex) -> Result<(), String> + Send,
{
    spec: Arc<ActuatorSpec>,
    current: SettingIndex,
    apply_fn: F,
}

impl<F> FnActuator<F>
where
    F: FnMut(SettingIndex) -> Result<(), String> + Send,
{
    /// Creates the actuator positioned at the spec's nominal setting.
    ///
    /// The closure is *not* invoked for the initial nominal position; the
    /// platform is assumed to start in its nominal configuration. Takes an
    /// owned spec or a shared `Arc<ActuatorSpec>`.
    pub fn new(spec: impl Into<Arc<ActuatorSpec>>, apply_fn: F) -> Self {
        let spec = spec.into();
        let current = spec.nominal();
        FnActuator {
            spec,
            current,
            apply_fn,
        }
    }
}

impl<F> std::fmt::Debug for FnActuator<F>
where
    F: FnMut(SettingIndex) -> Result<(), String> + Send,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnActuator")
            .field("spec", &self.spec)
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

impl<F> Actuator for FnActuator<F>
where
    F: FnMut(SettingIndex) -> Result<(), String> + Send,
{
    fn spec(&self) -> &ActuatorSpec {
        &self.spec
    }

    fn current(&self) -> SettingIndex {
        self.current
    }

    fn apply(&mut self, index: SettingIndex) -> Result<(), ActuationError> {
        if index >= self.spec.len() {
            return Err(ActuationError::UnknownSetting {
                actuator: self.spec.name().to_string(),
                requested: index,
                available: self.spec.len(),
            });
        }
        (self.apply_fn)(index).map_err(|reason| ActuationError::PlatformRejected {
            actuator: self.spec.name().to_string(),
            reason,
        })?;
        self.current = index;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, SettingSpec};

    fn spec() -> ActuatorSpec {
        ActuatorSpec::builder("cores")
            .setting(SettingSpec::new("1").effect(Axis::Performance, 0.3))
            .setting(SettingSpec::new("2"))
            .setting(SettingSpec::new("4").effect(Axis::Performance, 1.8))
            .nominal(1)
            .build()
            .unwrap()
    }

    #[test]
    fn table_actuator_starts_at_nominal_and_applies() {
        let mut act = TableActuator::new(spec());
        assert_eq!(act.current(), 1);
        act.apply(2).unwrap();
        assert_eq!(act.current(), 2);
        act.reset_to_nominal().unwrap();
        assert_eq!(act.current(), 1);
    }

    #[test]
    fn table_actuator_rejects_out_of_range() {
        let mut act = TableActuator::new(spec());
        let err = act.apply(5).unwrap_err();
        assert!(matches!(err, ActuationError::UnknownSetting { .. }));
        assert_eq!(act.current(), 1, "failed apply leaves setting unchanged");
    }

    #[test]
    fn actuators_over_one_shared_spec_read_the_same_storage() {
        let shared = Arc::new(spec());
        let table = TableActuator::new(Arc::clone(&shared));
        let forwarding = FnActuator::new(Arc::clone(&shared), |_| Ok(()));
        assert!(std::ptr::eq(table.spec(), &*shared));
        assert!(std::ptr::eq(forwarding.spec(), &*shared));
        let cloned = table.clone();
        assert!(std::ptr::eq(cloned.spec(), &*shared));
        assert_eq!(Arc::strong_count(&shared), 4);
        assert_eq!(*TableActuator::new(spec()).spec(), *shared);
    }

    #[test]
    fn fn_actuator_forwards_to_platform() {
        let applied = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&applied);
        let mut act = FnActuator::new(spec(), move |idx| {
            sink.lock().unwrap().push(idx);
            Ok(())
        });
        act.apply(0).unwrap();
        act.apply(2).unwrap();
        assert_eq!(*applied.lock().unwrap(), vec![0, 2]);
        assert_eq!(act.current(), 2);
    }

    #[test]
    fn fn_actuator_surfaces_platform_rejection() {
        let mut act = FnActuator::new(spec(), |idx| {
            if idx == 0 {
                Err("thermal limit".to_string())
            } else {
                Ok(())
            }
        });
        let err = act.apply(0).unwrap_err();
        assert!(matches!(err, ActuationError::PlatformRejected { .. }));
        assert_eq!(act.current(), 1, "rejected apply leaves setting unchanged");
        assert!(format!("{act:?}").contains("FnActuator"));
    }
}
