//! Error type for the SoC simulator.

use std::error::Error;
use std::fmt;

/// Error returned by simulator operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SocError {
    /// A DRM decision referenced a configuration outside the platform's decision space
    /// (e.g. a frequency that is not an OPP, or more active cores than exist).
    InvalidDecision {
        /// Human-readable description of what was wrong.
        reason: String,
    },
    /// An application contained no decision epochs.
    EmptyApplication {
        /// Name of the offending application.
        name: String,
    },
    /// A workload or platform parameter was outside its physical range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A scenario definition could not be resolved or parsed.
    Scenario {
        /// Human-readable description of what was wrong.
        reason: String,
    },
    /// A fault was injected into (or contained at) the evaluation seam: a scheduled
    /// failure from a fault-injection backend, or a worker panic caught and converted
    /// into a structured error.
    Fault {
        /// Human-readable description of the fault.
        reason: String,
    },
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::InvalidDecision { reason } => write!(f, "invalid DRM decision: {reason}"),
            SocError::EmptyApplication { name } => {
                write!(f, "application '{name}' has no decision epochs")
            }
            SocError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            SocError::Scenario { reason } => write!(f, "invalid scenario: {reason}"),
            SocError::Fault { reason } => write!(f, "evaluation fault: {reason}"),
        }
    }
}

impl Error for SocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SocError::InvalidDecision {
            reason: "5 big cores requested".into(),
        };
        assert!(e.to_string().contains("5 big cores"));
        let e = SocError::EmptyApplication { name: "fft".into() };
        assert!(e.to_string().contains("fft"));
        let e = SocError::InvalidParameter {
            name: "parallel_fraction",
            value: 1.5,
        };
        assert!(e.to_string().contains("parallel_fraction"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SocError>();
    }
}
