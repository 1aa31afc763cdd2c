//! Error types reported by the SEEC runtime.

use std::error::Error;
use std::fmt;

use actuation::ActuationError;

/// Errors reported by the SEEC runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SeecError {
    /// The runtime was built without any actuators to control.
    NoActuators,
    /// The observed application registered no performance goal and no
    /// explicit target was supplied.
    NoGoal,
    /// Applying a configuration to an actuator failed.
    Actuation(ActuationError),
    /// A runtime parameter was invalid.
    InvalidParameter(String),
}

impl fmt::Display for SeecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeecError::NoActuators => write!(f, "no actuators registered with the runtime"),
            SeecError::NoGoal => {
                write!(f, "the application registered no performance goal to meet")
            }
            SeecError::Actuation(err) => write!(f, "actuation failed: {err}"),
            SeecError::InvalidParameter(reason) => write!(f, "invalid parameter: {reason}"),
        }
    }
}

impl Error for SeecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SeecError::Actuation(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ActuationError> for SeecError {
    fn from(err: ActuationError) -> Self {
        SeecError::Actuation(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SeecError::NoActuators.to_string().contains("actuators"));
        assert!(SeecError::NoGoal.to_string().contains("goal"));
        assert!(SeecError::InvalidParameter("x".into())
            .to_string()
            .contains('x'));
    }

    #[test]
    fn actuation_errors_convert_and_chain() {
        let inner = ActuationError::InvalidSpec("empty".into());
        let err: SeecError = inner.clone().into();
        assert_eq!(err, SeecError::Actuation(inner));
        assert!(err.source().is_some());
        assert!(SeecError::NoGoal.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SeecError>();
    }
}
