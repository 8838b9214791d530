//! Cooperative cancellation: reason-carrying tokens, deadline budgets and signal wiring.
//!
//! Long searches need a way to be *asked* to stop that is distinct from being killed. This
//! module provides that as a hierarchy of cancellation sources:
//!
//! ```text
//! CancelSource (drain root: User | Signal | fleet Deadline)
//! └── CancelSource (per-wave child: Stall, per-job Deadline)
//!     └── CancelToken ── Parmis::segment        (checked per iteration round)
//!         ├── ParallelEvaluator                 (checked between batch slots)
//!         └── CancelEpochs sink (soc-sim)       (checked every N simulator epochs)
//! ```
//!
//! A [`CancelSource`] is the writer end: it latches the first [`CancelReason`] it is given
//! and never un-cancels. A [`CancelToken`] is the cheap, cloneable reader end handed to
//! execution layers; [`CancelToken::cancelled`] also folds in two passive triggers — a
//! wall-clock deadline ([`CancelSource::with_deadline`]) and process signals
//! ([`CancelSource::cancel_on_signals`]) — latching them into `Deadline` / `Signal` so the
//! observed reason is stable. Cancellation of an ancestor surfaces in every descendant as
//! [`CancelReason::Parent`].
//!
//! Tokens also carry a heartbeat counter ([`CancelToken::beat`]), bumped by every
//! execution layer as it makes progress and propagated up the ancestor chain; the job
//! supervisor's stall monitor watches it to raise [`CancelReason::Stall`] on a worker that
//! has stopped moving.
//!
//! **Determinism contract:** cancellation decides *when* a search suspends, never *what*
//! it computes. Every layer checks its token only at a deterministic boundary (iteration
//! round, batch slot, epoch stride) and aborts by discarding work that a resumed run
//! recomputes identically — so a cancelled-and-resumed trajectory is bit-identical to an
//! uninterrupted one.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{CheckpointFault, ParmisError};
use crate::Result;

/// Why a cancellation was raised. Latched first-wins per source; permanent once set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CancelReason {
    /// An explicit programmatic request ([`CancelSource::cancel`],
    /// [`JobSupervisor::request_drain`](crate::jobs::JobSupervisor::request_drain)).
    User,
    /// A wall-clock deadline budget expired.
    Deadline,
    /// A supervisor-side monitor decided the worker stopped making progress.
    Stall,
    /// SIGTERM or SIGINT was delivered to the process.
    Signal,
    /// An ancestor [`CancelSource`] in the hierarchy was cancelled (for any reason).
    Parent,
}

impl CancelReason {
    /// Stable kebab-case name, used in journal notes and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CancelReason::User => "user",
            CancelReason::Deadline => "deadline",
            CancelReason::Stall => "stall",
            CancelReason::Signal => "signal",
            CancelReason::Parent => "parent",
        }
    }

    fn code(self) -> u8 {
        match self {
            CancelReason::User => 0,
            CancelReason::Deadline => 1,
            CancelReason::Stall => 2,
            CancelReason::Signal => 3,
            CancelReason::Parent => 4,
        }
    }

    fn from_code(code: u8) -> CancelReason {
        match code {
            0 => CancelReason::User,
            1 => CancelReason::Deadline,
            2 => CancelReason::Stall,
            3 => CancelReason::Signal,
            _ => CancelReason::Parent,
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared state behind one source and all its tokens.
#[derive(Debug)]
struct Inner {
    /// `0` = not cancelled; otherwise `CancelReason::code() + 1`, latched first-wins.
    reason: AtomicU8,
    /// Progress counter bumped by [`CancelToken::beat`] (and by descendant beats).
    heartbeats: AtomicU64,
    /// Passive trigger: latch `Deadline` once this instant passes.
    deadline: Option<Instant>,
    /// Passive trigger: latch `Signal` once the registered flag flips.
    signal: OnceLock<Arc<AtomicBool>>,
    /// Cancellation of any ancestor surfaces here as `Parent`.
    parent: Option<CancelToken>,
}

impl Inner {
    fn fresh(deadline: Option<Instant>, parent: Option<CancelToken>) -> Arc<Inner> {
        Arc::new(Inner {
            reason: AtomicU8::new(0),
            heartbeats: AtomicU64::new(0),
            deadline,
            signal: OnceLock::new(),
            parent,
        })
    }

    /// Latches `reason` if nothing is latched yet and returns whatever won.
    fn latch(&self, reason: CancelReason) -> CancelReason {
        let _ =
            self.reason
                .compare_exchange(0, reason.code() + 1, Ordering::SeqCst, Ordering::SeqCst);
        CancelReason::from_code(self.reason.load(Ordering::SeqCst) - 1)
    }

    fn cancelled(&self) -> Option<CancelReason> {
        let code = self.reason.load(Ordering::SeqCst);
        if code != 0 {
            return Some(CancelReason::from_code(code - 1));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(self.latch(CancelReason::Deadline));
            }
        }
        if let Some(flag) = self.signal.get() {
            if flag.load(Ordering::SeqCst) {
                return Some(self.latch(CancelReason::Signal));
            }
        }
        if let Some(parent) = &self.parent {
            if parent.is_cancelled() {
                return Some(self.latch(CancelReason::Parent));
            }
        }
        None
    }
}

/// The writer end of a cancellation scope: cancels, spawns children, hands out tokens.
#[derive(Debug, Clone)]
pub struct CancelSource {
    inner: Arc<Inner>,
}

impl CancelSource {
    /// A fresh, uncancelled root source with no deadline.
    pub fn new() -> CancelSource {
        CancelSource {
            inner: Inner::fresh(None, None),
        }
    }

    /// A root source whose tokens latch [`CancelReason::Deadline`] once `budget` of
    /// wall-clock time has elapsed from now.
    pub fn with_deadline(budget: Duration) -> CancelSource {
        CancelSource {
            inner: Inner::fresh(Some(Instant::now() + budget), None),
        }
    }

    /// A child source: cancelling `self` cancels the child (surfacing as
    /// [`CancelReason::Parent`]), but cancelling the child leaves `self` untouched.
    pub fn child(&self) -> CancelSource {
        CancelSource {
            inner: Inner::fresh(None, Some(self.token())),
        }
    }

    /// A child source with its own wall-clock deadline on top of the parent link.
    pub fn child_with_deadline(&self, budget: Duration) -> CancelSource {
        CancelSource {
            inner: Inner::fresh(Some(Instant::now() + budget), Some(self.token())),
        }
    }

    /// The reader end shared with execution layers. Cheap to clone (one `Arc` bump).
    pub fn token(&self) -> CancelToken {
        CancelToken {
            inner: Some(Arc::clone(&self.inner)),
        }
    }

    /// Requests cancellation with `reason`. The first reason wins; later calls (and later
    /// deadline/signal triggers) are ignored.
    pub fn cancel(&self, reason: CancelReason) {
        self.inner.latch(reason);
    }

    /// The latched/triggered reason, if this scope is cancelled. See
    /// [`CancelToken::cancelled`].
    pub fn cancelled(&self) -> Option<CancelReason> {
        self.inner.cancelled()
    }

    /// Whether this scope is cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled().is_some()
    }

    /// Heartbeats observed so far (own beats plus every descendant's).
    pub fn heartbeats(&self) -> u64 {
        self.inner.heartbeats.load(Ordering::SeqCst)
    }

    /// Arms this source to latch [`CancelReason::Signal`] when SIGTERM or SIGINT is
    /// delivered to the process. Idempotent per source; registrations are process-wide
    /// and permanent.
    ///
    /// # Errors
    ///
    /// Returns a [`ParmisError`] if the OS rejects the handler installation (reported as
    /// a [`CheckpointFault::Io`] checkpoint fault — the drain path is checkpoint
    /// machinery).
    pub fn cancel_on_signals(&self) -> Result<()> {
        let flag = self
            .inner
            .signal
            .get_or_init(|| Arc::new(AtomicBool::new(false)));
        for signal in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
            signal_hook::flag::register(signal, Arc::clone(flag)).map_err(|e| {
                ParmisError::checkpoint(
                    CheckpointFault::Io,
                    format!("registering the signal-drain handler for signal {signal} failed: {e}"),
                )
            })?;
        }
        Ok(())
    }
}

impl Default for CancelSource {
    fn default() -> CancelSource {
        CancelSource::new()
    }
}

/// The reader end of a cancellation scope, checked by execution layers at deterministic
/// boundaries. [`CancelToken::never`] is a free-standing token that never cancels.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that is never cancelled and ignores beats — the default wiring for
    /// searches run without a [`CancelSource`].
    pub fn never() -> CancelToken {
        CancelToken { inner: None }
    }

    /// Whether this is the inert [`never`](Self::never) token. Execution layers use this
    /// to skip cancellation plumbing entirely when no source is attached.
    pub fn is_never(&self) -> bool {
        self.inner.is_none()
    }

    /// The cancellation reason, if this scope (or any ancestor, or a passive
    /// deadline/signal trigger) has been cancelled. The first observation latches, so
    /// repeated calls return the same reason.
    pub fn cancelled(&self) -> Option<CancelReason> {
        self.inner.as_ref().and_then(|inner| inner.cancelled())
    }

    /// Whether this scope is cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled().is_some()
    }

    /// Records one unit of forward progress on this scope and every ancestor. Execution
    /// layers call this as they complete work; the supervisor's stall monitor watches the
    /// counter move.
    pub fn beat(&self) {
        let mut cursor = self.inner.clone();
        while let Some(inner) = cursor {
            inner.heartbeats.fetch_add(1, Ordering::SeqCst);
            cursor = inner
                .parent
                .as_ref()
                .and_then(|parent| parent.inner.clone());
        }
    }

    /// Heartbeats recorded on this scope so far.
    pub fn heartbeats(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.heartbeats.load(Ordering::SeqCst))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reason_wins_and_latches() {
        let source = CancelSource::new();
        let token = source.token();
        assert!(!token.is_cancelled());
        source.cancel(CancelReason::Stall);
        source.cancel(CancelReason::User);
        assert_eq!(token.cancelled(), Some(CancelReason::Stall));
        assert_eq!(source.cancelled(), Some(CancelReason::Stall));
    }

    #[test]
    fn deadline_trigger_latches_deadline() {
        let source = CancelSource::with_deadline(Duration::from_millis(0));
        let token = source.token();
        assert_eq!(token.cancelled(), Some(CancelReason::Deadline));
        // An explicit cancel afterwards cannot overwrite the latched reason.
        source.cancel(CancelReason::User);
        assert_eq!(token.cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn unexpired_deadline_does_not_cancel() {
        let source = CancelSource::with_deadline(Duration::from_secs(3600));
        assert!(!source.token().is_cancelled());
    }

    #[test]
    fn parent_cancellation_surfaces_as_parent_in_children() {
        let root = CancelSource::new();
        let child = root.child();
        let grandchild = child.child();
        assert!(!grandchild.is_cancelled());
        root.cancel(CancelReason::Signal);
        assert_eq!(child.cancelled(), Some(CancelReason::Parent));
        assert_eq!(grandchild.token().cancelled(), Some(CancelReason::Parent));
        // The root keeps its own reason.
        assert_eq!(root.cancelled(), Some(CancelReason::Signal));
    }

    #[test]
    fn child_cancellation_does_not_touch_the_parent() {
        let root = CancelSource::new();
        let child = root.child();
        child.cancel(CancelReason::Deadline);
        assert!(root.cancelled().is_none());
        assert_eq!(child.cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn beats_propagate_to_ancestors() {
        let root = CancelSource::new();
        let child = root.child();
        let token = child.token();
        token.beat();
        token.beat();
        assert_eq!(token.heartbeats(), 2);
        assert_eq!(child.heartbeats(), 2);
        assert_eq!(root.heartbeats(), 2);
        root.token().beat();
        assert_eq!(root.heartbeats(), 3);
        assert_eq!(child.heartbeats(), 2);
    }

    #[test]
    fn never_token_is_inert() {
        let token = CancelToken::never();
        token.beat();
        assert!(!token.is_cancelled());
        assert_eq!(token.heartbeats(), 0);
    }

    #[test]
    fn reason_names_are_stable() {
        for (reason, name) in [
            (CancelReason::User, "user"),
            (CancelReason::Deadline, "deadline"),
            (CancelReason::Stall, "stall"),
            (CancelReason::Signal, "signal"),
            (CancelReason::Parent, "parent"),
        ] {
            assert_eq!(reason.name(), name);
            assert_eq!(reason.to_string(), name);
            assert_eq!(CancelReason::from_code(reason.code()), reason);
        }
    }
}
