//! Evaluation backends: the policy→aggregates contract behind
//! [`SocEvaluator`](crate::evaluation::SocEvaluator).
//!
//! [`crate::evaluation::SocEvaluator`] owns *what* to evaluate (platform, applications,
//! objectives, constraints); an [`EvalBackend`] owns *how* a configured policy becomes
//! [`RunAggregates`]. The trait is small and object-safe so evaluators hold backends as
//! `Arc<dyn EvalBackend>` and new execution substrates (a hardware board, a remote fleet)
//! plug in without touching the search loop. Two implementations ship:
//!
//! * [`AnalyticSim`] — the streaming `DecisionTable`/`EpochSink` simulator, verbatim. This
//!   is the default and the bit-identity reference: its aggregates are exactly what the
//!   pre-backend evaluator produced, and all determinism gates (`(seed, iteration, slot)`
//!   streams, scenario goldens) are pinned against it.
//! * [`FaultInject`] — a decorator that layers a **seeded, deterministic failure
//!   schedule** (error-on-nth-run, panic, latency spike) over any inner backend, for
//!   robustness drills: retry policies, worker panic containment and graceful degradation
//!   are all exercised against it in the fault-injection suite.
//!
//! Determinism contract: a backend's result may depend only on the [`EvalContext`] and the
//! policy parameters in the [`SimBuffers`] — never on call order or hidden mutable state —
//! because the batched search relies on evaluations being pure to keep the Pareto front
//! bit-identical for any worker count.

use crate::cancel::CancelToken;
use crate::evaluation::SimBuffers;
use crate::{ParmisError, Result};
use soc_sim::platform::{CancelEpochs, DiscardEpochs, Platform, RunAggregates};
use soc_sim::workload::Application;
use soc_sim::SocError;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Everything a backend needs to carry out one policy run, borrowed from the evaluator.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    /// The platform the run targets.
    pub platform: &'a Platform,
    /// The application to run.
    pub application: &'a Application,
    /// Measurement-noise seed of the run.
    pub seed: u64,
    /// Cooperative-cancellation token polled by streaming backends every
    /// [`CANCEL_EPOCH_STRIDE`] simulated epochs (`None` = never cancelled, zero
    /// overhead). A tripped token aborts the run with [`ParmisError::Cancelled`],
    /// discarding the partial aggregates — cancellation can never truncate results.
    pub cancel: Option<&'a CancelToken>,
}

/// How many simulated epochs a streaming backend runs between two cancellation polls of
/// [`EvalContext::cancel`]. Small enough to notice a drain within a fraction of one
/// application run, large enough to keep the per-epoch cost negligible.
pub const CANCEL_EPOCH_STRIDE: usize = 64;

/// The policy→aggregates step: turns the policy currently decoded in `buffers` into the
/// [`RunAggregates`] of one application run.
///
/// Object-safe by design — evaluators store `Arc<dyn EvalBackend>`. The policy lives inside
/// the mutable [`SimBuffers`] scratch (not behind a shared reference) because driving the
/// simulator requires `&mut` access for the MLP's ping-pong inference scratch.
pub trait EvalBackend: std::fmt::Debug + Send + Sync {
    /// The backend's stable kebab-case name, reported in [`ParmisError::Backend`].
    fn name(&self) -> &'static str;

    /// Runs `ctx.application` on `ctx.platform` under the policy decoded in `buffers` and
    /// returns the folded aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Backend`] naming this backend when the run cannot be carried
    /// out (invalid decision, injected fault, …), or [`ParmisError::Cancelled`] when
    /// [`EvalContext::cancel`] trips mid-run.
    fn run(&self, ctx: &EvalContext<'_>, buffers: &mut SimBuffers) -> Result<RunAggregates>;
}

/// Wraps a simulator failure in the structured [`ParmisError::Backend`] variant.
fn backend_error(name: &'static str, source: SocError) -> ParmisError {
    ParmisError::Backend {
        name: name.to_string(),
        source,
    }
}

/// Drives one streaming application run, honoring [`EvalContext::cancel`]: with a token
/// present the [`DiscardEpochs`] sink is wrapped in a [`CancelEpochs`] decorator that polls
/// the token every [`CANCEL_EPOCH_STRIDE`] epochs (and beats its heartbeat, so the stall
/// monitor sees in-run progress); without one the plain runner is invoked with zero
/// overhead. Both paths fold bit-identical aggregates — the wrapper never touches epochs.
fn run_streaming(
    ctx: &EvalContext<'_>,
    buffers: &mut SimBuffers,
) -> std::result::Result<RunAggregates, SocError> {
    match ctx.cancel {
        None => ctx.platform.run_application_with(
            ctx.application,
            buffers.policy_mut(),
            ctx.seed,
            &mut DiscardEpochs,
        ),
        Some(token) => {
            let mut wrapped = CancelEpochs::new(DiscardEpochs, CANCEL_EPOCH_STRIDE, move || {
                token.beat();
                match token.cancelled() {
                    Some(reason) => Err(SocError::Cancelled {
                        reason: reason.name().to_string(),
                    }),
                    None => Ok(()),
                }
            });
            ctx.platform.run_application_with(
                ctx.application,
                buffers.policy_mut(),
                ctx.seed,
                &mut wrapped,
            )
        }
    }
}

/// The streaming analytic simulator (the default backend).
///
/// **Exactly** the pre-backend evaluation path: one [`Platform::run_application_with`]
/// call with a [`DiscardEpochs`] sink — zero per-epoch allocation, bit-identical
/// aggregates.
#[derive(Debug, Clone, Default)]
pub struct AnalyticSim;

impl AnalyticSim {
    /// The streaming simulator.
    pub fn new() -> Self {
        AnalyticSim
    }
}

impl EvalBackend for AnalyticSim {
    fn name(&self) -> &'static str {
        "analytic-sim"
    }

    /// A cancellation probe abort becomes [`ParmisError::Cancelled`] (re-reading the token
    /// for the latched reason); every other failure is a [`ParmisError::Backend`].
    fn run(&self, ctx: &EvalContext<'_>, buffers: &mut SimBuffers) -> Result<RunAggregates> {
        run_streaming(ctx, buffers).map_err(|source| {
            if let SocError::Cancelled { .. } = source {
                if let Some(reason) = ctx.cancel.and_then(|token| token.cancelled()) {
                    return ParmisError::cancelled(reason);
                }
            }
            backend_error(self.name(), source)
        })
    }
}

/// One entry of a [`FaultInject`] failure schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The run fails with a structured [`ParmisError::Backend`] carrying
    /// [`SocError::Fault`]; the inner backend is never invoked.
    Error,
    /// The run panics inside the backend — this is the drill for worker panic containment
    /// (the parallel evaluator must convert it into a structured error, not abort).
    Panic,
    /// The run stalls for the given number of microseconds, then delegates normally. A
    /// latency fault must never change results, only (virtual or real) wall-clock time.
    /// By default the stall is **charged to a deterministic virtual-clock ledger**
    /// ([`FaultInject::charged_latency_micros`]) instead of sleeping, so latency drills
    /// do not slow the test suite down; [`FaultInject::with_real_latency`] opts into
    /// actually sleeping for stall-detector drills that need elapsed time.
    LatencySpike {
        /// Stall duration in microseconds.
        micros: u64,
    },
}

/// Deterministic fault-injection decorator over any [`EvalBackend`].
///
/// Faults fire on a **global run counter** (the nth `run` call on this instance,
/// evaluator-wide, zero-based): explicitly via [`fault_on`](Self::fault_on), or randomly
/// via [`with_random_errors`](Self::with_random_errors), whose per-run decision is a pure
/// splitmix64 hash of `(seed, run index)` — reproducible across processes, independent of
/// thread interleaving in *which* runs fail. Because a retried run draws a fresh counter
/// value, scheduled faults model **transient** failures: a retry policy with at least one
/// attempt left recovers from them, which is exactly what the retry-equivalence tests
/// exploit.
///
/// The decorator is the one backend that breaks the module's determinism contract, on
/// purpose: with parallel evaluation the assignment of counter values to (application, θ)
/// pairs depends on call order, so two runs of the same context may fail differently.
/// Every other backend invariant is preserved by delegation.
#[derive(Debug)]
pub struct FaultInject {
    inner: Arc<dyn EvalBackend>,
    schedule: Vec<(usize, FaultKind)>,
    seed: u64,
    error_rate: f64,
    runs: AtomicUsize,
    /// Virtual-clock ledger of latency-spike stalls (mirrors the retry policy's backoff
    /// ledger): total microseconds charged instead of slept.
    charged_latency_micros: AtomicU64,
    /// When `true`, latency spikes actually sleep (stall-detector drills only).
    real_latency: bool,
}

impl FaultInject {
    /// A decorator over `inner` with an empty (benign) schedule.
    pub fn new(inner: Arc<dyn EvalBackend>) -> Self {
        FaultInject {
            inner,
            schedule: Vec::new(),
            seed: 0,
            error_rate: 0.0,
            runs: AtomicUsize::new(0),
            charged_latency_micros: AtomicU64::new(0),
            real_latency: false,
        }
    }

    /// Schedules `kind` to fire on the `run`-th call (zero-based, counted across the whole
    /// instance). Entries stack; the first matching entry wins.
    #[must_use]
    pub fn fault_on(mut self, run: usize, kind: FaultKind) -> Self {
        self.schedule.push((run, kind));
        self
    }

    /// Additionally fails each unscheduled run with probability `rate`, decided by a pure
    /// hash of `(seed, run index)` — the same seed reproduces the same failure set.
    #[must_use]
    pub fn with_random_errors(mut self, seed: u64, rate: f64) -> Self {
        self.seed = seed;
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Makes latency spikes actually block the worker thread instead of charging the
    /// virtual-clock ledger. Only stall-detection drills (which measure real elapsed
    /// time) should want this; everything else gets the same determinism for free from
    /// the ledger.
    #[must_use]
    pub fn with_real_latency(mut self) -> Self {
        self.real_latency = true;
        self
    }

    /// Number of `run` calls made so far (injected faults included).
    pub fn runs(&self) -> usize {
        self.runs.load(Ordering::SeqCst)
    }

    /// Total latency-spike microseconds charged to the virtual-clock ledger so far
    /// (always 0 with [`with_real_latency`](Self::with_real_latency)).
    pub fn charged_latency_micros(&self) -> u64 {
        self.charged_latency_micros.load(Ordering::SeqCst)
    }

    /// Uniform `[0, 1)` draw for run `n`: splitmix64 finalizer over `seed ^ f(n)`.
    fn uniform(&self, n: usize) -> f64 {
        let mut z = self.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl EvalBackend for FaultInject {
    fn name(&self) -> &'static str {
        "fault-inject"
    }

    fn run(&self, ctx: &EvalContext<'_>, buffers: &mut SimBuffers) -> Result<RunAggregates> {
        let n = self.runs.fetch_add(1, Ordering::SeqCst);
        let fault = self
            .schedule
            .iter()
            .find(|(at, _)| *at == n)
            .map(|&(_, kind)| kind)
            .or_else(|| {
                (self.error_rate > 0.0 && self.uniform(n) < self.error_rate)
                    .then_some(FaultKind::Error)
            });
        match fault {
            Some(FaultKind::Error) => Err(backend_error(
                self.name(),
                SocError::Fault {
                    reason: format!("injected failure at run {n}"),
                },
            )),
            Some(FaultKind::Panic) => panic!("injected panic at run {n} (fault-injection drill)"),
            Some(FaultKind::LatencySpike { micros }) => {
                if self.real_latency {
                    std::thread::sleep(std::time::Duration::from_micros(micros));
                } else {
                    self.charged_latency_micros
                        .fetch_add(micros, Ordering::SeqCst);
                }
                self.inner.run(ctx, buffers)
            }
            None => self.inner.run(ctx, buffers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::{PolicyEvaluator, SocEvaluator};
    use crate::objective::Objective;
    use soc_sim::apps::Benchmark;

    fn context_fixture() -> (Platform, Application) {
        (Platform::odroid_xu3(), Benchmark::Qsort.application())
    }

    fn qsort_evaluator() -> SocEvaluator {
        SocEvaluator::builder()
            .benchmark(Benchmark::Qsort)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .build()
            .unwrap()
    }

    #[test]
    fn fault_inject_schedule_fires_on_the_counter_and_latency_preserves_results() {
        let (platform, application) = context_fixture();
        let evaluator = qsort_evaluator();
        let mut buffers = evaluator.sim_buffers();
        buffers
            .policy_mut()
            .set_flat_parameters(&vec![0.2; evaluator.parameter_dim()]);
        let ctx = EvalContext {
            platform: &platform,
            application: &application,
            seed: 17,
            cancel: None,
        };
        let baseline = AnalyticSim::new().run(&ctx, &mut buffers).unwrap();

        let faulty = FaultInject::new(Arc::new(AnalyticSim::new()))
            .fault_on(1, FaultKind::Error)
            .fault_on(2, FaultKind::LatencySpike { micros: 50 });
        assert_eq!(faulty.name(), "fault-inject");

        // Run 0 is clean, run 1 errors structurally, run 2 stalls (charged to the
        // virtual-clock ledger, not slept) but returns the same aggregates bit for bit.
        assert_eq!(faulty.run(&ctx, &mut buffers).unwrap(), baseline);
        let err = faulty.run(&ctx, &mut buffers).unwrap_err();
        match err {
            ParmisError::Backend {
                ref name,
                ref source,
            } => {
                assert_eq!(name, "fault-inject");
                assert!(matches!(source, SocError::Fault { .. }));
            }
            other => panic!("expected Backend error, got {other:?}"),
        }
        assert_eq!(faulty.charged_latency_micros(), 0);
        assert_eq!(faulty.run(&ctx, &mut buffers).unwrap(), baseline);
        assert_eq!(faulty.runs(), 3);
        assert_eq!(faulty.charged_latency_micros(), 50);

        // Opting into real latency leaves the ledger untouched and actually blocks.
        let sleeper = FaultInject::new(Arc::new(AnalyticSim::new()))
            .fault_on(0, FaultKind::LatencySpike { micros: 2_000 })
            .with_real_latency();
        let started = std::time::Instant::now();
        assert_eq!(sleeper.run(&ctx, &mut buffers).unwrap(), baseline);
        assert!(started.elapsed() >= std::time::Duration::from_micros(2_000));
        assert_eq!(sleeper.charged_latency_micros(), 0);

        // The seeded random schedule is a pure function of (seed, run index): two
        // instances with the same seed fail the same runs.
        let mut failures = |seed: u64| -> Vec<bool> {
            let b = FaultInject::new(Arc::new(AnalyticSim::new())).with_random_errors(seed, 0.4);
            (0..20)
                .map(|_| b.run(&ctx, &mut buffers).is_err())
                .collect()
        };
        let a = failures(7);
        assert_eq!(a, failures(7));
        assert_ne!(a, failures(8));
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f));
    }

    #[test]
    fn streaming_backends_abort_with_a_cancelled_error_and_ignore_untripped_tokens() {
        use crate::cancel::{CancelReason, CancelSource};
        let (platform, application) = context_fixture();
        let evaluator = qsort_evaluator();
        let mut buffers = evaluator.sim_buffers();
        buffers
            .policy_mut()
            .set_flat_parameters(&vec![0.2; evaluator.parameter_dim()]);
        let plain = EvalContext {
            platform: &platform,
            application: &application,
            seed: 17,
            cancel: None,
        };
        let baseline = AnalyticSim::new().run(&plain, &mut buffers).unwrap();

        // An untripped token changes nothing: same aggregates bit for bit, and the probe
        // beats the heartbeat so the stall monitor sees in-run progress.
        let source = CancelSource::new();
        let token = source.token();
        let watched = EvalContext {
            cancel: Some(&token),
            ..plain
        };
        assert_eq!(
            AnalyticSim::new().run(&watched, &mut buffers).unwrap(),
            baseline
        );
        assert!(token.heartbeats() > 0);

        // A tripped token aborts the run with the structured cancellation error.
        source.cancel(CancelReason::User);
        let err = AnalyticSim::new().run(&watched, &mut buffers).unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::User));
    }
}
