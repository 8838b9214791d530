//! Evaluation backends: the policy→aggregates contract behind [`SocEvaluator`].
//!
//! [`crate::evaluation::SocEvaluator`] owns *what* to evaluate (platform, applications,
//! objectives, constraints); an [`EvalBackend`] owns *how* a configured policy becomes
//! [`RunAggregates`]. The trait is small and object-safe so evaluators hold backends as
//! `Arc<dyn EvalBackend>` and new execution substrates (a hardware board, a remote fleet)
//! plug in without touching the search loop. Three implementations ship:
//!
//! * [`AnalyticSim`] — the streaming `DecisionTable`/`EpochSink` simulator, verbatim. This
//!   is the default and the bit-identity reference: its aggregates are exactly what the
//!   pre-backend evaluator produced, and all determinism gates (`(seed, iteration, slot)`
//!   streams, scenario goldens) are pinned against it. Its `record` mode additionally
//!   captures the epoch stream of every run into a shared [`TraceStore`].
//! * [`TraceReplay`] — replays recorded epoch-stream fixtures ([`soc_sim::trace`]) by
//!   re-folding them with [`soc_sim::trace::RunTrace::aggregates`]: no simulation, exactly
//!   reproducible, bit-identical to the run that recorded the trace.
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
use soc_sim::platform::{
    CancelEpochs, CollectEpochs, DiscardEpochs, EpochSink, Platform, RunAggregates,
};
use soc_sim::scenario::BackendKind;
use soc_sim::trace::{RunTrace, TraceStore};
use soc_sim::workload::Application;
use soc_sim::SocError;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Static description of an evaluation backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendInfo {
    /// Which serializable backend selection this implementation answers to.
    pub kind: BackendKind,
    /// One-line human description of the execution substrate.
    pub description: &'static str,
    /// `true` when two runs with the same context and policy are bit-identical.
    pub deterministic: bool,
}

impl BackendInfo {
    /// The backend's stable kebab-case name (shared with [`BackendKind::name`]).
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }
}

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
    /// Static metadata about this backend.
    fn describe(&self) -> BackendInfo;

    /// Runs `ctx.application` on `ctx.platform` under the policy decoded in `buffers` and
    /// returns the folded aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Backend`] naming this backend when the run cannot be carried
    /// out (invalid decision, missing trace, …).
    fn run(&self, ctx: &EvalContext<'_>, buffers: &mut SimBuffers) -> Result<RunAggregates>;
}

/// Wraps a simulator/trace failure in the structured [`ParmisError::Backend`] variant.
fn backend_error(kind: BackendKind, source: SocError) -> ParmisError {
    ParmisError::Backend {
        name: kind.name().to_string(),
        source,
    }
}

/// Hottest junction temperature of the platform's initial thermal state — the value the
/// streaming runner seeds its peak-temperature fold with before the first epoch.
fn initial_temperature_c(platform: &Platform) -> f64 {
    platform.spec().thermal_model().initial_state().hottest_c()
}

/// Drives one streaming application run through `sink`, honoring [`EvalContext::cancel`]:
/// with a token present the sink is wrapped in a [`CancelEpochs`] decorator that polls the
/// token every [`CANCEL_EPOCH_STRIDE`] epochs (and beats its heartbeat, so the stall
/// monitor sees in-run progress); without one the plain runner is invoked with zero
/// overhead. Both paths fold bit-identical aggregates — the wrapper never touches epochs.
fn run_streaming<S: EpochSink>(
    ctx: &EvalContext<'_>,
    buffers: &mut SimBuffers,
    mut sink: S,
) -> std::result::Result<RunAggregates, SocError> {
    match ctx.cancel {
        None => ctx.platform.run_application_with(
            ctx.application,
            buffers.policy_mut(),
            ctx.seed,
            &mut sink,
        ),
        Some(token) => {
            let mut wrapped = CancelEpochs::new(sink, CANCEL_EPOCH_STRIDE, move || {
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

/// Maps a streaming-run failure to the structured error contract: a cancellation probe
/// abort becomes [`ParmisError::Cancelled`] (re-reading the token for the latched reason);
/// everything else is a [`ParmisError::Backend`] naming `kind`.
fn streaming_error(kind: BackendKind, ctx: &EvalContext<'_>, source: SocError) -> ParmisError {
    if let SocError::Cancelled { .. } = source {
        if let Some(reason) = ctx.cancel.and_then(|token| token.cancelled()) {
            return ParmisError::cancelled(reason);
        }
    }
    backend_error(kind, source)
}

/// The streaming analytic simulator (the default backend), with an optional record mode.
///
/// Without a recorder this is **exactly** the pre-backend evaluation path: one
/// [`Platform::run_application_with`] call with a [`DiscardEpochs`] sink — zero per-epoch
/// allocation, bit-identical aggregates. With a recorder attached
/// ([`recording`](Self::recording)), every run additionally captures its epoch stream into
/// the shared [`TraceStore`] as a [`RunTrace`] keyed by `(application, seed)`; the
/// aggregates returned are unchanged (the sink never affects the fold).
#[derive(Debug, Clone, Default)]
pub struct AnalyticSim {
    recorder: Option<Arc<Mutex<TraceStore>>>,
}

impl AnalyticSim {
    /// The plain streaming simulator, recording nothing.
    pub fn new() -> Self {
        AnalyticSim::default()
    }

    /// A recording simulator and the shared store its runs are captured into.
    ///
    /// Keep the returned handle: after evaluations, lock it (or call
    /// [`snapshot_traces`](Self::snapshot_traces) on the backend) to obtain the fixtures,
    /// e.g. to serialize with [`TraceStore::to_json`] and later replay via [`TraceReplay`].
    pub fn recording() -> (Self, Arc<Mutex<TraceStore>>) {
        let store = Arc::new(Mutex::new(TraceStore::new()));
        (
            AnalyticSim {
                recorder: Some(store.clone()),
            },
            store,
        )
    }

    /// `true` when a recorder is attached.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// A clone of the recorded traces so far (`None` when not recording).
    pub fn snapshot_traces(&self) -> Option<TraceStore> {
        self.recorder
            .as_ref()
            .map(|store| store.lock().unwrap_or_else(PoisonError::into_inner).clone())
    }
}

impl EvalBackend for AnalyticSim {
    fn describe(&self) -> BackendInfo {
        BackendInfo {
            kind: BackendKind::AnalyticSim,
            description: "streaming DecisionTable/EpochSink analytic simulator",
            deterministic: true,
        }
    }

    fn run(&self, ctx: &EvalContext<'_>, buffers: &mut SimBuffers) -> Result<RunAggregates> {
        match &self.recorder {
            None => run_streaming(ctx, buffers, DiscardEpochs)
                .map_err(|e| streaming_error(BackendKind::AnalyticSim, ctx, e)),
            Some(store) => {
                let mut collector = CollectEpochs::with_capacity(ctx.application.epoch_count());
                let aggregates = run_streaming(ctx, buffers, &mut collector)
                    .map_err(|e| streaming_error(BackendKind::AnalyticSim, ctx, e))?;
                store
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(RunTrace {
                        application: ctx.application.name.to_string(),
                        seed: ctx.seed,
                        initial_temperature_c: initial_temperature_c(ctx.platform),
                        epochs: collector.into_epochs(),
                    });
                Ok(aggregates)
            }
        }
    }
}

/// Replays recorded epoch-stream fixtures instead of simulating.
///
/// Runs are looked up by `(application name, seed)` in the wrapped [`TraceStore`] and
/// re-folded with [`RunTrace::aggregates`] — bit-identical to the [`AnalyticSim`] run that
/// recorded them, at a fraction of the cost (no per-epoch model math, no controller
/// inference). The replayed aggregates are a function of the recorded stream only: the
/// policy parameters in the buffers are deliberately ignored, which is what makes traces
/// exact, policy-independent fixtures for golden-driven scenario ingestion.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    store: Arc<TraceStore>,
}

impl TraceReplay {
    /// A replay backend over `store`.
    pub fn new(store: TraceStore) -> Self {
        TraceReplay {
            store: Arc::new(store),
        }
    }

    /// A replay backend over an already-shared store.
    pub fn from_shared(store: Arc<TraceStore>) -> Self {
        TraceReplay { store }
    }

    /// A replay backend over fixtures parsed from JSON ([`TraceStore::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Backend`] for malformed fixture JSON.
    pub fn from_json(text: &str) -> Result<Self> {
        TraceStore::from_json(text)
            .map(TraceReplay::new)
            .map_err(|e| backend_error(BackendKind::TraceReplay, e))
    }

    /// The fixtures this backend replays.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }
}

impl EvalBackend for TraceReplay {
    fn describe(&self) -> BackendInfo {
        BackendInfo {
            kind: BackendKind::TraceReplay,
            description: "recorded epoch-stream fixture replay",
            deterministic: true,
        }
    }

    fn run(&self, ctx: &EvalContext<'_>, _buffers: &mut SimBuffers) -> Result<RunAggregates> {
        match self.store.lookup(&ctx.application.name, ctx.seed) {
            Some(trace) => Ok(trace.aggregates()),
            None => Err(backend_error(
                BackendKind::TraceReplay,
                SocError::Trace {
                    reason: format!(
                        "no recorded trace for application `{}` with seed {} ({} trace(s) loaded)",
                        ctx.application.name,
                        ctx.seed,
                        self.store.len()
                    ),
                },
            )),
        }
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
/// The decorator reports `deterministic: false`: with parallel evaluation the assignment
/// of counter values to (application, θ) pairs depends on call order, so two runs of the
/// same context may fail differently. Every other backend invariant is preserved by
/// delegation.
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
    fn describe(&self) -> BackendInfo {
        BackendInfo {
            kind: BackendKind::FaultInject,
            description: "deterministic fault-injection decorator (robustness drills)",
            deterministic: false,
        }
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
                BackendKind::FaultInject,
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

/// Instantiates the stock backend for a serializable [`BackendKind`] selection.
///
/// [`BackendKind::TraceReplay`] starts from an **empty** fixture store — every run errors
/// until fixtures are supplied — because the selection enum cannot carry the traces
/// themselves. Load fixtures explicitly ([`TraceReplay::from_json`] /
/// [`TraceReplay::new`]) and hand the backend to
/// [`EvaluatorBuilder::backend`](crate::evaluation::EvaluatorBuilder::backend) instead.
/// Similarly, [`BackendKind::FaultInject`] resolves to a **benign** decorator (empty
/// schedule over [`AnalyticSim`]); configure a real schedule via [`FaultInject`]'s builder
/// methods.
pub fn default_backend_for(kind: BackendKind) -> Arc<dyn EvalBackend> {
    match kind {
        BackendKind::AnalyticSim => Arc::new(AnalyticSim::new()),
        BackendKind::TraceReplay => Arc::new(TraceReplay::new(TraceStore::new())),
        BackendKind::FaultInject => Arc::new(FaultInject::new(Arc::new(AnalyticSim::new()))),
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
    fn describe_reports_the_matching_kind() {
        assert_eq!(AnalyticSim::new().describe().kind, BackendKind::AnalyticSim);
        assert_eq!(AnalyticSim::new().describe().name(), "analytic-sim");
        assert!(AnalyticSim::new().describe().deterministic);
        assert_eq!(
            TraceReplay::new(TraceStore::new()).describe().kind,
            BackendKind::TraceReplay
        );
        for kind in BackendKind::ALL {
            assert_eq!(default_backend_for(kind).describe().kind, kind);
        }
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
        assert_eq!(faulty.describe().kind, BackendKind::FaultInject);
        assert!(!faulty.describe().deterministic);

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

    #[test]
    fn record_mode_captures_the_stream_without_changing_aggregates() {
        let (platform, application) = context_fixture();
        let evaluator = qsort_evaluator();
        let mut buffers = evaluator.sim_buffers();
        let theta = vec![0.3; evaluator.parameter_dim()];
        buffers.policy_mut().set_flat_parameters(&theta);
        let ctx = EvalContext {
            platform: &platform,
            application: &application,
            seed: 17,
            cancel: None,
        };

        let plain = AnalyticSim::new();
        assert!(!plain.is_recording());
        assert!(plain.snapshot_traces().is_none());
        let baseline = plain.run(&ctx, &mut buffers).unwrap();

        let (recording, store) = AnalyticSim::recording();
        assert!(recording.is_recording());
        let recorded = recording.run(&ctx, &mut buffers).unwrap();
        assert_eq!(recorded, baseline, "recording must not perturb the fold");

        let traces = recording.snapshot_traces().unwrap();
        assert_eq!(traces.len(), 1);
        let trace = traces.lookup("qsort", 17).unwrap();
        assert_eq!(trace.epochs.len(), baseline.epochs);
        assert_eq!(trace.aggregates(), baseline);
        assert_eq!(store.lock().unwrap().len(), 1);
    }

    #[test]
    fn trace_replay_reproduces_recordings_and_errors_on_misses() {
        let (platform, application) = context_fixture();
        let evaluator = qsort_evaluator();
        let mut buffers = evaluator.sim_buffers();
        buffers
            .policy_mut()
            .set_flat_parameters(&vec![-0.2; evaluator.parameter_dim()]);
        let ctx = EvalContext {
            platform: &platform,
            application: &application,
            seed: 5,
            cancel: None,
        };
        let (recording, _) = AnalyticSim::recording();
        let live = recording.run(&ctx, &mut buffers).unwrap();

        let replay = TraceReplay::new(recording.snapshot_traces().unwrap());
        assert_eq!(replay.store().len(), 1);
        assert_eq!(replay.run(&ctx, &mut buffers).unwrap(), live);

        // JSON round trip through the fixture format replays identically.
        let reloaded = TraceReplay::from_json(&replay.store().to_json()).unwrap();
        assert_eq!(reloaded.run(&ctx, &mut buffers).unwrap(), live);
        assert!(TraceReplay::from_json("{").is_err());

        // A context with no recording is a structured Backend error naming the backend.
        let miss = EvalContext { seed: 6, ..ctx };
        let err = replay.run(&miss, &mut buffers).unwrap_err();
        match err {
            ParmisError::Backend { ref name, .. } => assert_eq!(name, "trace-replay"),
            other => panic!("expected Backend error, got {other:?}"),
        }
        assert!(err.to_string().contains("no recorded trace"));
    }
}
