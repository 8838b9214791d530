//! Error type for the PaRMIS framework.

use std::error::Error;
use std::fmt;

/// The distinct failure modes of the checkpoint/journal layer, carried by
/// [`ParmisError::Checkpoint`] so callers (and the job supervisor's quarantine logic) can
/// react to *what* went wrong instead of parsing a message string.
///
/// Every fault is structured and recoverable: a corrupt or incompatible artifact is
/// reported, never panicked on, and the durable store uses the fault class to decide
/// between quarantining a file and falling back to an older generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointFault {
    /// A filesystem operation on a checkpoint, journal, or quarantine path failed.
    Io,
    /// The artifact is not well-formed JSON, or its JSON shape does not match the
    /// expected layout (truncation usually surfaces here).
    Parse,
    /// The artifact declares a format version this build does not support.
    VersionMismatch,
    /// A recomputed content digest disagrees with the recorded one (bit rot, torn write,
    /// or tampering).
    DigestMismatch,
    /// An internal shape invariant is violated (misaligned lengths, non-finite values,
    /// malformed RNG state, …).
    Invariant,
    /// The artifact is internally valid but incompatible with the resuming
    /// configuration, evaluator, or job (config digest / objectives / parameter count
    /// mismatch).
    Incompatible,
    /// A state could not be serialized for persistence.
    Serialize,
}

impl CheckpointFault {
    /// Stable lower-kebab-case name of the fault class (used in displays and reports).
    pub fn name(self) -> &'static str {
        match self {
            CheckpointFault::Io => "io",
            CheckpointFault::Parse => "parse",
            CheckpointFault::VersionMismatch => "version-mismatch",
            CheckpointFault::DigestMismatch => "digest-mismatch",
            CheckpointFault::Invariant => "invariant",
            CheckpointFault::Incompatible => "incompatible",
            CheckpointFault::Serialize => "serialize",
        }
    }
}

impl fmt::Display for CheckpointFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by PaRMIS operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParmisError {
    /// The framework configuration was invalid (zero iterations, empty objective set, …).
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A policy evaluation failed (e.g. the simulator rejected a decision).
    Evaluation {
        /// Human-readable description of the failure.
        reason: String,
    },
    /// Fitting or sampling a statistical model failed.
    Model(gp::GpError),
    /// Drawing a Pareto-front sample produced a degenerate front (empty, or with
    /// non-finite per-objective extrema) that would poison the acquisition scores.
    DegenerateFront {
        /// Human-readable description of the degeneracy.
        reason: String,
    },
    /// The underlying platform simulation failed.
    Simulation(soc_sim::SocError),
    /// An evaluation backend failed to carry out the policy→aggregates step.
    ///
    /// Structured variant of the backend contract ([`crate::backend::EvalBackend`]): `name`
    /// identifies which backend failed (its stable kebab-case name, e.g. `fault-inject`)
    /// and `source` carries the underlying simulator error for matching or chaining.
    Backend {
        /// Stable name of the failing backend ([`crate::backend::EvalBackend::name`]).
        name: String,
        /// The underlying simulator error.
        source: soc_sim::SocError,
    },
    /// A checkpoint or job-journal artifact could not be written, parsed, or verified, or
    /// a resume was attempted with a state that is incompatible with the resuming
    /// configuration/evaluator. `fault` carries the distinct failure mode
    /// ([`CheckpointFault`]); `reason` the human-readable detail.
    Checkpoint {
        /// The structured failure mode.
        fault: CheckpointFault,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The search was cooperatively cancelled. [`Parmis::run`](crate::framework::Parmis::run)
    /// returns this when its token trips at a round boundary, since it has no state to hand
    /// back; [`Parmis::segment`](crate::framework::Parmis::segment) suspends with a clean
    /// [`SearchStep::Suspended`](crate::framework::SearchStep) instead. A custom
    /// [`EvalBackend`](crate::backend::EvalBackend) may also return it to abandon a round
    /// that a resumed run recomputes deterministically; it is never retried or degraded.
    Cancelled {
        /// Why the cancellation was raised.
        reason: crate::cancel::CancelReason,
    },
}

impl ParmisError {
    /// Constructs a [`ParmisError::Checkpoint`] with the given fault class and detail.
    pub fn checkpoint(fault: CheckpointFault, reason: impl Into<String>) -> ParmisError {
        ParmisError::Checkpoint {
            fault,
            reason: reason.into(),
        }
    }

    /// The checkpoint fault class, if this is a [`ParmisError::Checkpoint`].
    pub fn checkpoint_fault(&self) -> Option<CheckpointFault> {
        match self {
            ParmisError::Checkpoint { fault, .. } => Some(*fault),
            _ => None,
        }
    }

    /// Constructs a [`ParmisError::Cancelled`] with the given reason.
    pub fn cancelled(reason: crate::cancel::CancelReason) -> ParmisError {
        ParmisError::Cancelled { reason }
    }

    /// The cancellation reason, if this is a [`ParmisError::Cancelled`].
    pub fn cancel_reason(&self) -> Option<crate::cancel::CancelReason> {
        match self {
            ParmisError::Cancelled { reason } => Some(*reason),
            _ => None,
        }
    }
}

impl fmt::Display for ParmisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParmisError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            ParmisError::Evaluation { reason } => write!(f, "policy evaluation failed: {reason}"),
            ParmisError::Model(e) => write!(f, "statistical model failure: {e}"),
            ParmisError::DegenerateFront { reason } => {
                write!(f, "degenerate Pareto-front sample: {reason}")
            }
            ParmisError::Simulation(e) => write!(f, "platform simulation failure: {e}"),
            ParmisError::Backend { name, source } => {
                write!(f, "evaluation backend `{name}` failed: {source}")
            }
            ParmisError::Checkpoint { fault, reason } => {
                write!(f, "checkpoint failure [{fault}]: {reason}")
            }
            ParmisError::Cancelled { reason } => {
                write!(f, "cancelled [{reason}] between checkpoint boundaries")
            }
        }
    }
}

impl Error for ParmisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParmisError::Model(e) => Some(e),
            ParmisError::Simulation(e) => Some(e),
            ParmisError::Backend { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<gp::GpError> for ParmisError {
    fn from(e: gp::GpError) -> Self {
        ParmisError::Model(e)
    }
}

impl From<soc_sim::SocError> for ParmisError {
    fn from(e: soc_sim::SocError) -> Self {
        ParmisError::Simulation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = ParmisError::InvalidConfig {
            reason: "zero iterations".into(),
        };
        assert!(e.to_string().contains("zero iterations"));

        let e: ParmisError = gp::GpError::InvalidData {
            reason: "empty".into(),
        }
        .into();
        assert!(matches!(e, ParmisError::Model(_)));
        assert!(Error::source(&e).is_some());

        let e: ParmisError = soc_sim::SocError::EmptyApplication { name: "x".into() }.into();
        assert!(matches!(e, ParmisError::Simulation(_)));
        assert!(e.to_string().contains("platform simulation"));

        let e = ParmisError::Backend {
            name: "fault-inject".into(),
            source: soc_sim::SocError::Fault {
                reason: "injected failure at run 3".into(),
            },
        };
        assert!(e.to_string().contains("`fault-inject`"));
        assert!(e.to_string().contains("injected failure at run 3"));
        let source = Error::source(&e).expect("backend errors expose their source");
        assert!(source.to_string().contains("evaluation fault"));
    }

    #[test]
    fn checkpoint_faults_are_distinct_and_named() {
        let faults = [
            CheckpointFault::Io,
            CheckpointFault::Parse,
            CheckpointFault::VersionMismatch,
            CheckpointFault::DigestMismatch,
            CheckpointFault::Invariant,
            CheckpointFault::Incompatible,
            CheckpointFault::Serialize,
        ];
        let mut names: Vec<&str> = faults.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), faults.len(), "fault names must be unique");

        let e = ParmisError::checkpoint(CheckpointFault::DigestMismatch, "bad digest");
        assert_eq!(e.checkpoint_fault(), Some(CheckpointFault::DigestMismatch));
        assert!(e.to_string().contains("[digest-mismatch]"));
        assert!(e.to_string().contains("bad digest"));
        let other = ParmisError::InvalidConfig { reason: "x".into() };
        assert_eq!(other.checkpoint_fault(), None);
    }

    #[test]
    fn cancelled_errors_carry_their_reason() {
        let e = ParmisError::cancelled(crate::cancel::CancelReason::Deadline);
        assert_eq!(
            e.cancel_reason(),
            Some(crate::cancel::CancelReason::Deadline)
        );
        assert_eq!(e.checkpoint_fault(), None);
        assert!(e.to_string().contains("[deadline]"));
        let other = ParmisError::InvalidConfig { reason: "x".into() };
        assert_eq!(other.cancel_reason(), None);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParmisError>();
    }
}
