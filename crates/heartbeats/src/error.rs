use std::error::Error;
use std::fmt;

/// Errors reported by the heartbeat registry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HeartbeatError {
    /// A heartbeat was emitted with a timestamp earlier than the previous one.
    NonMonotonicTime {
        /// Timestamp of the previously recorded beat, in seconds.
        previous: f64,
        /// Timestamp supplied for the new beat, in seconds.
        supplied: f64,
    },
    /// A heartbeat was emitted with a NaN or infinite timestamp.
    NonFiniteTime {
        /// Timestamp supplied for the new beat.
        supplied: f64,
    },
    /// A tag was referenced (e.g. for tagged latency) that has never been emitted.
    UnknownTag(String),
    /// A goal parameter was invalid (non-positive target, empty window, ...).
    InvalidGoal(String),
}

impl fmt::Display for HeartbeatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeartbeatError::NonMonotonicTime { previous, supplied } => write!(
                f,
                "heartbeat timestamp {supplied} s precedes previous beat at {previous} s"
            ),
            HeartbeatError::NonFiniteTime { supplied } => {
                write!(f, "heartbeat timestamp {supplied} is not finite")
            }
            HeartbeatError::UnknownTag(tag) => write!(f, "unknown heartbeat tag `{tag}`"),
            HeartbeatError::InvalidGoal(reason) => write!(f, "invalid goal: {reason}"),
        }
    }
}

impl Error for HeartbeatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = HeartbeatError::UnknownTag("frame".into());
        assert!(err.to_string().contains("frame"));
        let err = HeartbeatError::InvalidGoal("target must be positive".into());
        assert!(err.to_string().contains("target must be positive"));
        let err = HeartbeatError::NonMonotonicTime {
            previous: 10.0,
            supplied: 5.0,
        };
        assert!(err.to_string().contains("precedes"));
        let err = HeartbeatError::NonFiniteTime { supplied: f64::NAN };
        assert!(err.to_string().contains("not finite"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HeartbeatError>();
    }
}
