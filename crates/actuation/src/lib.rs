//! # Actuation: the SEEC action-specification interface
//!
//! In the SEEC model (DAC 2012 §3.2), applications provide *goals* while
//! every other component of the system — system software, the operating
//! system, and the Angstrom hardware itself — provides *actions* that change
//! system behaviour. Actions are described by the **actuators** that
//! implement them. An actuator is a data object with:
//!
//! * a name,
//! * a list of allowable settings,
//! * a function that changes the setting,
//! * the set of axes the actuator affects (performance, power, accuracy),
//! * the effect of each setting on each axis, expressed as a multiplier over
//!   a *nominal* setting whose effect is 1.0 on every axis,
//! * a delay between applying a setting and its effects becoming observable,
//! * a scope: whether the actuator affects only the registering application
//!   or the whole system.
//!
//! The [`Actuator`] trait captures the "function that changes the setting";
//! [`ActuatorSpec`] captures everything else. Several actuators span a joint
//! search space whose effects multiply across actuators.
//!
//! A spec is cheap to build and free to share. Effects and exponents sit in
//! fixed per-axis arrays, labels and names given as `&'static str` are
//! borrowed, and [`ActuatorSpecBuilder::build`] stores every setting's
//! predicted effect with the setting. [`TableActuator`] and
//! [`FnActuator`] hold their spec behind an `Arc`, so a platform builds its
//! `Scope::Global` specs once and every application's actuators share them.
//!
//! The decision engine runs on a [`ConfigTable`]: every joint
//! configuration as a dense [`ConfigId`] — lexicographic over the setting
//! indices, last actuator fastest — with its declared effect precomputed.
//! Declared effects belong to the platform, so there is one table per
//! distinct action space. [`ConfigTable::new`] interns by
//! content — setting counts, nominal indices, and the bits of every
//! setting's stored predicted effect — and holds each table weakly, so
//! every runtime built over equal specs shares one immutable table.
//!
//! ```
//! use actuation::{Actuator, ActuatorSpec, Axis, Scope, SettingSpec, TableActuator};
//!
//! // A three-point DVFS knob: half speed, nominal, turbo.
//! let spec = ActuatorSpec::builder("dvfs")
//!     .scope(Scope::Global)
//!     .delay(0.001)
//!     .setting(SettingSpec::new("0.8GHz").effect(Axis::Performance, 0.5).effect(Axis::Power, 0.4))
//!     .setting(SettingSpec::new("1.6GHz")) // nominal: all effects 1.0
//!     .setting(SettingSpec::new("2.4GHz").effect(Axis::Performance, 1.4).effect(Axis::Power, 1.9))
//!     .nominal(1)
//!     .build()
//!     .expect("spec is well formed");
//!
//! let mut dvfs = TableActuator::new(spec);
//! dvfs.apply(2).expect("setting exists");
//! assert_eq!(dvfs.current(), 2);
//! assert!(dvfs.spec().setting(2).unwrap().effect_on(Axis::Power) > 1.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod actuator;
mod error;
mod space;
mod spec;

pub use actuator::{Actuator, FnActuator, TableActuator};
pub use error::ActuationError;
pub use space::{staircase, ConfigId, ConfigTable, Configuration, EffectKey, PredictedEffect};
pub use spec::{ActuatorSpec, ActuatorSpecBuilder, Axis, Scope, SettingIndex, SettingSpec};
