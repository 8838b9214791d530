//! Cooperative cancellation: reason-carrying tokens, deadline budgets and signal wiring.
//!
//! Long searches need a way to be *asked* to stop that is distinct from being killed. This
//! module provides that as a hierarchy of cancellation sources:
//!
//! ```text
//! CancelSource (drain root: User | Signal | fleet Deadline)
//! └── CancelSource (per-slot child: stall window, segment watchdog Deadline)
//!     └── CancelToken ── Parmis::segment        (checked and beaten per iteration round)
//! ```
//!
//! A [`CancelSource`] is the writer end: it latches the first [`CancelReason`] it is given
//! and never un-cancels. A [`CancelToken`] is the cheap, cloneable reader end handed to
//! the search; [`CancelToken::cancelled`] also folds in the passive triggers — a
//! wall-clock deadline ([`CancelSource::with_deadline`]), process signals
//! ([`CancelSource::cancel_on_signals`]) and, on the job supervisor's slot scopes, a stall
//! window — latching them into `Deadline` / `Signal` / `Stall` so the observed reason is
//! stable. Cancellation of an ancestor surfaces in every descendant as
//! [`CancelReason::Parent`].
//!
//! The search [beats](CancelToken::beat) its token once per completed round. A scope with
//! a stall window records when that beat arrived and raises [`CancelReason::Stall`] once
//! the window passes without one; on any other scope a beat does nothing.
//!
//! This module is the only part of the runtime that reads the clock: deadlines and stall
//! windows are the passive triggers above, checked whenever a token is.
//!
//! **Determinism contract:** cancellation decides *when* a search suspends, never *what*
//! it computes. The search checks its token only at the round boundary, where the state
//! it suspends with is exactly the one an uninterrupted run passes through — so a
//! cancelled-and-resumed trajectory is bit-identical to an uninterrupted one.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
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
    /// A scope's stall window passed without a heartbeat: the worker stopped making
    /// progress.
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
    /// Passive trigger: latch `Deadline` once this instant passes.
    deadline: Option<Instant>,
    /// Passive trigger: latch `Stall` once the window passes without a beat.
    stall: Option<StallWindow>,
    /// Passive trigger: latch `Signal` once the registered flag flips.
    signal: OnceLock<Arc<AtomicBool>>,
    /// Cancellation of any ancestor surfaces here as `Parent`.
    parent: Option<CancelToken>,
}

impl Inner {
    fn fresh(
        deadline: Option<Instant>,
        stall: Option<StallWindow>,
        parent: Option<CancelToken>,
    ) -> Arc<Inner> {
        Arc::new(Inner {
            reason: AtomicU8::new(0),
            deadline,
            stall,
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
        // Checked last, so a stall never hides any other cause.
        if self.stall.as_ref().is_some_and(StallWindow::stalled) {
            return Some(self.latch(CancelReason::Stall));
        }
        None
    }
}

/// `budget` from now, or `None` (a deadline that never expires) when that instant lies
/// past what [`Instant`] can represent.
fn deadline_after(budget: Duration) -> Option<Instant> {
    Instant::now().checked_add(budget)
}

/// The stall trigger of a [`CancelSource::child_with_stall_window`] scope.
#[derive(Debug)]
struct StallWindow {
    window: Duration,
    /// When the last beat arrived (the scope's creation until the first one).
    last_beat: Mutex<Instant>,
    /// Set by a beat that arrived `window` or more after its predecessor, so a slow round
    /// that ends in a beat still trips at the next check.
    missed: AtomicBool,
}

impl StallWindow {
    fn new(window: Duration) -> StallWindow {
        StallWindow {
            window,
            last_beat: Mutex::new(Instant::now()),
            missed: AtomicBool::new(false),
        }
    }

    /// A poisoned lock still guards a valid instant: every update is one assignment.
    fn lock_last_beat(&self) -> MutexGuard<'_, Instant> {
        self.last_beat
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn beat(&self) {
        let mut last = self.lock_last_beat();
        let now = Instant::now();
        if now.saturating_duration_since(*last) >= self.window {
            self.missed.store(true, Ordering::SeqCst);
        }
        *last = now;
    }

    fn stalled(&self) -> bool {
        self.missed.load(Ordering::SeqCst) || self.lock_last_beat().elapsed() >= self.window
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
            inner: Inner::fresh(None, None, None),
        }
    }

    /// A root source whose tokens latch [`CancelReason::Deadline`] once `budget` of
    /// wall-clock time has elapsed from now. A budget too large to represent as an
    /// [`Instant`] never expires.
    pub fn with_deadline(budget: Duration) -> CancelSource {
        CancelSource {
            inner: Inner::fresh(deadline_after(budget), None, None),
        }
    }

    /// A child source: cancelling `self` cancels the child (surfacing as
    /// [`CancelReason::Parent`]), but cancelling the child leaves `self` untouched.
    pub fn child(&self) -> CancelSource {
        CancelSource {
            inner: Inner::fresh(None, None, Some(self.token())),
        }
    }

    /// A child source with its own wall-clock deadline on top of the parent link. A
    /// budget too large to represent as an [`Instant`] never expires.
    pub fn child_with_deadline(&self, budget: Duration) -> CancelSource {
        CancelSource {
            inner: Inner::fresh(deadline_after(budget), None, Some(self.token())),
        }
    }

    /// A child source that latches [`CancelReason::Stall`] once `window` of wall-clock
    /// time passes without a [beat](CancelToken::beat) — counted from its creation until
    /// the first beat. A beat that ends a gap of `window` or more still trips at the next
    /// check. Every other cause takes precedence over a stall.
    pub(crate) fn child_with_stall_window(&self, window: Duration) -> CancelSource {
        CancelSource {
            inner: Inner::fresh(None, Some(StallWindow::new(window)), Some(self.token())),
        }
    }

    /// The reader end handed to a search. Cheap to clone (one `Arc` bump).
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

/// The reader end of a cancellation scope, checked by the search at each round boundary.
/// [`CancelToken::never`] is a free-standing token that never cancels.
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

    /// The cancellation reason, if this scope (or any ancestor, or a passive
    /// deadline/signal/stall trigger) has been cancelled. The first observation latches, so
    /// repeated calls return the same reason.
    pub fn cancelled(&self) -> Option<CancelReason> {
        self.inner.as_ref().and_then(|inner| inner.cancelled())
    }

    /// Whether this scope is cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled().is_some()
    }

    /// Records one unit of forward progress on this scope: the search calls this once per
    /// completed round. Only a scope with a stall window records it, as the time the beat
    /// arrived; every other scope ignores it and reads no clock.
    pub fn beat(&self) {
        if let Some(stall) = self.inner.as_ref().and_then(|inner| inner.stall.as_ref()) {
            stall.beat();
        }
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
    fn a_root_deadline_past_the_clock_range_never_expires() {
        let source = CancelSource::with_deadline(Duration::MAX);
        assert!(!source.token().is_cancelled());
        assert!(source.cancelled().is_none());
    }

    #[test]
    fn a_child_deadline_past_the_clock_range_never_expires() {
        let child = CancelSource::new().child_with_deadline(Duration::MAX);
        assert!(!child.token().is_cancelled());
        assert!(child.cancelled().is_none());
    }

    #[test]
    fn a_zero_stall_window_latches_stall_at_the_first_check() {
        let scope = CancelSource::new().child_with_stall_window(Duration::ZERO);
        assert_eq!(scope.token().cancelled(), Some(CancelReason::Stall));
        // Latched: an explicit cancel afterwards cannot overwrite it.
        scope.cancel(CancelReason::User);
        assert_eq!(scope.cancelled(), Some(CancelReason::Stall));
    }

    #[test]
    fn a_long_stall_window_never_trips_however_often_it_beats_or_is_polled() {
        let root = CancelSource::new();
        let scope = root.child_with_stall_window(Duration::from_secs(3600));
        let token = scope.token();
        for _ in 0..1000 {
            token.beat();
            assert!(!token.is_cancelled());
        }
        assert!(root.cancelled().is_none());
    }

    #[test]
    fn stall_never_overrides_another_cause() {
        let root = CancelSource::new();
        let child = root.child_with_stall_window(Duration::ZERO);
        root.cancel(CancelReason::Signal);
        assert_eq!(child.cancelled(), Some(CancelReason::Parent));

        let explicit = CancelSource::new().child_with_stall_window(Duration::ZERO);
        explicit.cancel(CancelReason::Deadline);
        assert_eq!(explicit.token().cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn a_beat_that_ends_a_long_gap_trips_the_next_check() {
        let scope = CancelSource::new().child_with_stall_window(Duration::from_millis(20));
        let token = scope.token();
        std::thread::sleep(Duration::from_millis(40));
        // The beat resets the window, but the gap it ended is recorded.
        token.beat();
        assert_eq!(token.cancelled(), Some(CancelReason::Stall));
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
    fn never_token_is_inert() {
        let token = CancelToken::never();
        token.beat();
        assert!(!token.is_cancelled());
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
