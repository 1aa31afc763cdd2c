//! Uncoordinated adaptation: the composition of closed adaptive systems.
//!
//! The paper's §5.2 baseline "uncoordinated adaptation" runs separate
//! instances of the SEEC runtime, one per actuator, none of which
//! coordinates with the others. Each instance sees the full gap between the
//! goal and the observed heart rate and tries to close it with its single
//! knob, so the instances collectively over- and under-shoot and oscillate
//! through sub-optimal allocations — exactly the pathology Figure 2
//! illustrates for closed adaptive systems.

use actuation::{Actuator, Configuration};
use heartbeats::HeartbeatMonitor;

use crate::error::SeecError;
use crate::model::ExplorationPolicy;
use crate::runtime::{SeecRuntime, SeecRuntimeBuilder};

/// A bundle of independent single-actuator SEEC runtimes sharing one goal.
pub struct UncoordinatedRuntime {
    runtimes: Vec<SeecRuntime>,
    /// The shared application monitor, kept so one decision round takes one
    /// registry snapshot instead of one per instance.
    monitor: HeartbeatMonitor,
}

impl std::fmt::Debug for UncoordinatedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UncoordinatedRuntime")
            .field("instances", &self.runtimes.len())
            .finish()
    }
}

impl UncoordinatedRuntime {
    /// Creates one independent SEEC instance per actuator, each observing the
    /// same application through `monitor`. `tune` customises every
    /// per-actuator runtime's builder (controller tuning, anchored
    /// estimation, ...) so the uncoordinated baseline can be configured
    /// identically to the coordinated runtime it is compared against; pass
    /// `|builder| builder` for the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`SeecError::NoActuators`] when `actuators` is empty, or any
    /// error produced while building the per-actuator runtimes.
    pub fn new_with(
        monitor: &HeartbeatMonitor,
        actuators: Vec<Box<dyn Actuator>>,
        seed: u64,
        tune: impl Fn(SeecRuntimeBuilder) -> SeecRuntimeBuilder,
    ) -> Result<Self, SeecError> {
        if actuators.is_empty() {
            return Err(SeecError::NoActuators);
        }
        let mut runtimes = Vec::new();
        for (i, actuator) in actuators.into_iter().enumerate() {
            let builder = SeecRuntime::builder(monitor.clone())
                .actuator(actuator)
                .exploration(ExplorationPolicy {
                    epsilon: 0.0,
                    ..ExplorationPolicy::default()
                })
                .seed(seed.wrapping_add(i as u64));
            runtimes.push(tune(builder).build()?);
        }
        Ok(UncoordinatedRuntime {
            runtimes,
            monitor: monitor.clone(),
        })
    }

    /// Number of independent instances (one per actuator).
    pub fn instances(&self) -> usize {
        self.runtimes.len()
    }

    /// Runs one decision period of every instance; the combined result is
    /// [`Self::joint_configuration`] (instance `i` controls position `i`).
    ///
    /// Every instance observes the same application, so the registry is
    /// snapshotted once and shared — one lock acquisition per decision
    /// round instead of one per instance. Nothing writes the registry
    /// between the per-instance reads this replaces, so results are
    /// identical to each instance observing independently.
    ///
    /// # Errors
    ///
    /// Propagates the first error from any instance.
    pub fn decide(&mut self, now: f64) -> Result<(), SeecError> {
        let observation = self.monitor.observation();
        for runtime in &mut self.runtimes {
            runtime.decide_under_power_cap(now, &observation, f64::INFINITY)?;
        }
        Ok(())
    }

    /// The joint configuration currently applied across all instances.
    pub fn joint_configuration(&self) -> Configuration {
        Configuration::new(
            self.runtimes
                .iter()
                .map(|r| r.current_configuration().setting(0).unwrap_or(0))
                .collect(),
        )
    }

    /// Total decisions taken across every instance.
    pub fn decisions_made(&self) -> u64 {
        self.runtimes.iter().map(|r| r.decisions_made()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
    use heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal};

    fn actuators() -> Vec<Box<dyn Actuator>> {
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
                    .effect(Axis::Power, 3.6),
            )
            .build()
            .unwrap();
        vec![
            Box::new(TableActuator::new(dvfs)),
            Box::new(TableActuator::new(cores)),
        ]
    }

    #[test]
    fn one_instance_is_created_per_actuator() {
        let registry = HeartbeatRegistry::new("app");
        let uncoordinated =
            UncoordinatedRuntime::new_with(&registry.monitor(), actuators(), 1, |b| b).unwrap();
        assert_eq!(uncoordinated.instances(), 2);
        assert_eq!(uncoordinated.joint_configuration().len(), 2);
        assert!(format!("{uncoordinated:?}").contains("instances"));
    }

    #[test]
    fn empty_actuator_list_is_rejected() {
        let registry = HeartbeatRegistry::new("app");
        assert!(matches!(
            UncoordinatedRuntime::new_with(&registry.monitor(), vec![], 1, |b| b),
            Err(SeecError::NoActuators)
        ));
    }

    #[test]
    fn each_instance_decides_independently() {
        let registry = HeartbeatRegistry::new("app");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(30.0)));
        let mut uncoordinated =
            UncoordinatedRuntime::new_with(&registry.monitor(), actuators(), 1, |b| b).unwrap();
        let issuer = registry.issuer();
        let mut now = 0.0;
        // The application runs at only 10 beats/s: every instance sees the
        // shortfall and independently escalates its own knob.
        for _ in 0..20 {
            for _ in 0..4 {
                now += 0.1;
                issuer.heartbeat(now);
            }
            uncoordinated.decide(now).unwrap();
        }
        assert_eq!(uncoordinated.decisions_made(), 40);
        let joint = uncoordinated.joint_configuration();
        // Both knobs end up at their fast settings even though either alone
        // would have been the coordinated choice — the over-provisioning the
        // paper attributes to uncoordinated adaptation.
        assert_eq!(joint, Configuration::new(vec![1, 1]));
    }
}
