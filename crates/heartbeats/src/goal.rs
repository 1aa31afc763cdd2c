use serde::{Deserialize, Serialize};

use crate::error::HeartbeatError;
use crate::record::Tag;

/// The axis a goal constrains. Used by decision engines to pair goals with
/// actuators that affect the same axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GoalKind {
    /// Throughput or latency of the application.
    Performance,
    /// Output quality (distortion from a nominal value).
    Accuracy,
    /// Power or energy consumption.
    Power,
}

impl std::fmt::Display for GoalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            GoalKind::Performance => "performance",
            GoalKind::Accuracy => "accuracy",
            GoalKind::Power => "power",
        };
        f.write_str(name)
    }
}

/// A performance goal: either a target heart rate or a target latency
/// between beats carrying a given tag (DAC 2012 §3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PerformanceGoal {
    /// Sustain at least `target` heartbeats per second, averaged over the
    /// observation window.
    HeartRate {
        /// Target heart rate in beats per second.
        target: f64,
    },
    /// Keep the elapsed time between consecutive beats tagged `tag` at or
    /// below `max_latency` seconds.
    TaggedLatency {
        /// Tag delimiting the measured interval.
        tag: Tag,
        /// Maximum allowed latency between tagged beats, in seconds.
        max_latency: f64,
    },
}

impl PerformanceGoal {
    /// Convenience constructor for a heart-rate goal.
    pub fn heart_rate(target: f64) -> Self {
        PerformanceGoal::HeartRate { target }
    }

    /// Convenience constructor for a tagged-latency goal.
    pub fn tagged_latency(tag: impl Into<Tag>, max_latency: f64) -> Self {
        PerformanceGoal::TaggedLatency {
            tag: tag.into(),
            max_latency,
        }
    }

    /// The target heart rate this goal implies (1 / latency for latency goals).
    pub fn implied_heart_rate(&self) -> f64 {
        match self {
            PerformanceGoal::HeartRate { target } => *target,
            PerformanceGoal::TaggedLatency { max_latency, .. } => {
                if *max_latency > 0.0 {
                    1.0 / max_latency
                } else {
                    f64::INFINITY
                }
            }
        }
    }

    fn validate(&self) -> Result<(), HeartbeatError> {
        let value = match self {
            PerformanceGoal::HeartRate { target } => *target,
            PerformanceGoal::TaggedLatency { max_latency, .. } => *max_latency,
        };
        if value.is_finite() && value > 0.0 {
            Ok(())
        } else {
            Err(HeartbeatError::InvalidGoal(format!(
                "performance target must be positive and finite, got {value}"
            )))
        }
    }
}

/// An accuracy goal expressed as a maximum *distortion*: the linear distance
/// of the produced output from an application-defined nominal value,
/// averaged over a window of heartbeats (DAC 2012 §3.1, Dynamic Knobs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyGoal {
    /// Maximum acceptable mean distortion (0.0 = bit-exact nominal output).
    pub max_distortion: f64,
    /// Number of heartbeats over which distortion is averaged.
    pub window: usize,
}

impl AccuracyGoal {
    /// Creates an accuracy goal.
    pub fn new(max_distortion: f64, window: usize) -> Self {
        AccuracyGoal {
            max_distortion,
            window,
        }
    }

    fn validate(&self) -> Result<(), HeartbeatError> {
        if !self.max_distortion.is_finite() || self.max_distortion < 0.0 {
            return Err(HeartbeatError::InvalidGoal(format!(
                "max distortion must be non-negative and finite, got {}",
                self.max_distortion
            )));
        }
        if self.window == 0 {
            return Err(HeartbeatError::InvalidGoal(
                "accuracy window must contain at least one heartbeat".into(),
            ));
        }
        Ok(())
    }
}

/// A power or energy goal (DAC 2012 §3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PowerGoal {
    /// Keep average power at or below `max_watts` while sustaining
    /// `min_heart_rate` beats per second.
    AveragePower {
        /// Power budget in watts.
        max_watts: f64,
        /// Heart rate that must be sustained within the budget.
        min_heart_rate: f64,
    },
    /// Keep the energy consumed between consecutive beats tagged `tag` at or
    /// below `max_joules`.
    TaggedEnergy {
        /// Tag delimiting the measured interval.
        tag: Tag,
        /// Energy budget in joules.
        max_joules: f64,
    },
}

impl PowerGoal {
    /// Convenience constructor for an average-power goal.
    pub fn average_power(max_watts: f64, min_heart_rate: f64) -> Self {
        PowerGoal::AveragePower {
            max_watts,
            min_heart_rate,
        }
    }

    /// Convenience constructor for a tagged-energy goal.
    pub fn tagged_energy(tag: impl Into<Tag>, max_joules: f64) -> Self {
        PowerGoal::TaggedEnergy {
            tag: tag.into(),
            max_joules,
        }
    }

    fn validate(&self) -> Result<(), HeartbeatError> {
        let budget = match self {
            PowerGoal::AveragePower { max_watts, .. } => *max_watts,
            PowerGoal::TaggedEnergy { max_joules, .. } => *max_joules,
        };
        if budget.is_finite() && budget > 0.0 {
            Ok(())
        } else {
            Err(HeartbeatError::InvalidGoal(format!(
                "power/energy budget must be positive and finite, got {budget}"
            )))
        }
    }
}

/// An application goal registered through the heartbeat API.
///
/// SEEC supports three goal families: performance, accuracy, and power
/// (DAC 2012 §3.1). A single application may register one goal per family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Goal {
    /// Performance (heart rate or tagged latency).
    Performance(PerformanceGoal),
    /// Accuracy (distortion bound).
    Accuracy(AccuracyGoal),
    /// Power or energy budget.
    Power(PowerGoal),
}

impl Goal {
    /// The goal family this goal belongs to.
    pub fn kind(&self) -> GoalKind {
        match self {
            Goal::Performance(_) => GoalKind::Performance,
            Goal::Accuracy(_) => GoalKind::Accuracy,
            Goal::Power(_) => GoalKind::Power,
        }
    }

    /// Checks the goal parameters.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::InvalidGoal`] if a target is non-positive,
    /// non-finite, or a window is empty.
    pub fn validate(&self) -> Result<(), HeartbeatError> {
        match self {
            Goal::Performance(g) => g.validate(),
            Goal::Accuracy(g) => g.validate(),
            Goal::Power(g) => g.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_goal_validates_targets() {
        assert!(Goal::Performance(PerformanceGoal::heart_rate(30.0))
            .validate()
            .is_ok());
        assert!(Goal::Performance(PerformanceGoal::heart_rate(0.0))
            .validate()
            .is_err());
        assert!(Goal::Performance(PerformanceGoal::heart_rate(-1.0))
            .validate()
            .is_err());
        assert!(Goal::Performance(PerformanceGoal::heart_rate(f64::NAN))
            .validate()
            .is_err());
    }

    #[test]
    fn latency_goal_implies_heart_rate() {
        let goal = PerformanceGoal::tagged_latency("frame", 0.02);
        assert!((goal.implied_heart_rate() - 50.0).abs() < 1e-9);
        let rate_goal = PerformanceGoal::heart_rate(30.0);
        assert_eq!(rate_goal.implied_heart_rate(), 30.0);
    }

    #[test]
    fn accuracy_goal_rejects_empty_window() {
        assert!(Goal::Accuracy(AccuracyGoal::new(0.1, 0))
            .validate()
            .is_err());
        assert!(Goal::Accuracy(AccuracyGoal::new(0.1, 10))
            .validate()
            .is_ok());
        assert!(Goal::Accuracy(AccuracyGoal::new(-0.1, 10))
            .validate()
            .is_err());
    }

    #[test]
    fn power_goal_validates_budget() {
        assert!(Goal::Power(PowerGoal::average_power(90.0, 10.0))
            .validate()
            .is_ok());
        assert!(Goal::Power(PowerGoal::tagged_energy("iter", 0.0))
            .validate()
            .is_err());
    }

    #[test]
    fn goal_kinds_display() {
        assert_eq!(GoalKind::Performance.to_string(), "performance");
        assert_eq!(GoalKind::Accuracy.to_string(), "accuracy");
        assert_eq!(GoalKind::Power.to_string(), "power");
        assert_eq!(
            Goal::Performance(PerformanceGoal::heart_rate(1.0)).kind(),
            GoalKind::Performance
        );
        assert_eq!(
            Goal::Accuracy(AccuracyGoal::new(0.0, 1)).kind(),
            GoalKind::Accuracy
        );
        assert_eq!(
            Goal::Power(PowerGoal::average_power(1.0, 1.0)).kind(),
            GoalKind::Power
        );
    }
}
