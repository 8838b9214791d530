//! Policy evaluation: turning a parameter vector θ into an objective vector by running the
//! corresponding DRM policy on the platform (Algorithm 1, line 5).
//!
//! The policy→aggregates step itself is delegated to an [`EvalBackend`]
//! ([`crate::backend`]): [`SocEvaluator`] decodes θ, asks its backend for the
//! [`RunAggregates`] of each application run, and scores objectives and constraints on
//! those aggregates directly. The default backend is the analytic simulator.

use crate::backend::{AnalyticSim, EvalBackend, EvalContext};
use crate::objective::{objective_vector, Objective};
use crate::{ParmisError, Result};
use fastmath::Precision;
use policy::drm_policy::{DrmPolicy, PolicyArchitecture};
use soc_sim::apps::Benchmark;
use soc_sim::platform::{Platform, RunAggregates};
use soc_sim::scenario::{Scenario, ScenarioConstraints};
use soc_sim::workload::Application;
use soc_sim::{DecisionSpace, SocError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default measurement-noise seed for evaluation runs.
const DEFAULT_RUN_SEED: u64 = 17;

/// Anything that can evaluate a candidate policy parameter vector θ and return the
/// corresponding minimization objective vector.
///
/// PaRMIS itself only needs this trait; the two provided implementations evaluate policies on
/// the SoC simulator for a single application ([`SocEvaluator`]) or for a whole application
/// set ([`GlobalEvaluator`], used by the paper's "global Pareto-frontier policies" experiment,
/// §V-D).
pub trait PolicyEvaluator {
    /// Dimensionality `d` of the policy parameter space.
    fn parameter_dim(&self) -> usize;

    /// Lower/upper bound applied to every parameter (the search box is `[-bound, bound]^d`).
    fn parameter_bound(&self) -> f64 {
        DrmPolicy::PARAMETER_BOUND
    }

    /// The design objectives being traded off, in output order.
    fn objectives(&self) -> &[Objective];

    /// Evaluates θ and returns the minimization objective vector (one entry per objective).
    ///
    /// Implementations must be **pure**: the result may depend only on `theta` (and the
    /// evaluator's own configuration, e.g. a fixed measurement seed), never on call order or
    /// hidden mutable state. The batched search relies on this to keep the Pareto front
    /// bit-identical for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError`] if the evaluation cannot be carried out.
    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>>;

    /// Evaluates a batch of candidates, returning one objective vector per candidate in the
    /// same order.
    ///
    /// The default implementation is the serial element-wise loop, so `evaluate_batch`
    /// always agrees with [`evaluate`](Self::evaluate); [`ParallelEvaluator`] overrides it
    /// to shard the batch across a scoped thread pool while preserving slot order.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by any element of the batch (in slot order).
    fn evaluate_batch(&self, thetas: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        thetas.iter().map(|theta| self.evaluate(theta)).collect()
    }
}

impl<E: PolicyEvaluator + ?Sized> PolicyEvaluator for &E {
    fn parameter_dim(&self) -> usize {
        (**self).parameter_dim()
    }

    fn parameter_bound(&self) -> f64 {
        (**self).parameter_bound()
    }

    fn objectives(&self) -> &[Objective] {
        (**self).objectives()
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
        (**self).evaluate(theta)
    }

    fn evaluate_batch(&self, thetas: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        (**self).evaluate_batch(thetas)
    }
}

/// Adapter that parallelizes [`PolicyEvaluator::evaluate_batch`] across a scoped
/// `std::thread` pool.
///
/// The batch is split into one contiguous chunk per worker and each chunk goes through the
/// inner evaluator's **own** `evaluate_batch` — so per-batch optimizations (e.g.
/// [`SocEvaluator`]'s reusable [`SimBuffers`] scratch) apply per worker instead of being
/// bypassed by per-slot dispatch. Results are merged back **in slot order** and every
/// evaluation is a pure function of its θ, so the output is bit-identical to the serial
/// default for any worker count. A worker count of `0` means "one worker per available
/// CPU".
///
/// ```no_run
/// use parmis::evaluation::{ParallelEvaluator, PolicyEvaluator, SocEvaluator};
/// use parmis::objective::Objective;
/// use soc_sim::apps::Benchmark;
///
/// # fn main() -> Result<(), parmis::ParmisError> {
/// let serial = SocEvaluator::builder()
///     .benchmark(Benchmark::Qsort)
///     .objectives(Objective::TIME_ENERGY.to_vec())
///     .build()?;
/// let parallel = ParallelEvaluator::new(serial, 4);
/// let thetas = vec![vec![0.1; parallel.parameter_dim()]; 8];
/// let objectives = parallel.evaluate_batch(&thetas)?;
/// assert_eq!(objectives.len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParallelEvaluator<E> {
    inner: E,
    num_workers: usize,
}

impl<E: PolicyEvaluator + Sync> ParallelEvaluator<E> {
    /// Wraps `inner`, sharding batches across `num_workers` threads (`0` = all CPUs).
    pub fn new(inner: E, num_workers: usize) -> Self {
        ParallelEvaluator {
            inner,
            num_workers: crate::parallel::resolve_workers(num_workers),
        }
    }

    /// The effective worker count after resolving the "all CPUs" sentinel.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Access to the wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: PolicyEvaluator + Sync> PolicyEvaluator for ParallelEvaluator<E> {
    fn parameter_dim(&self) -> usize {
        self.inner.parameter_dim()
    }

    fn parameter_bound(&self) -> f64 {
        self.inner.parameter_bound()
    }

    fn objectives(&self) -> &[Objective] {
        self.inner.objectives()
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
        self.inner.evaluate(theta)
    }

    fn evaluate_batch(&self, thetas: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        // Every batch takes the chunk path, one worker or one slot included:
        // `parallel_map` runs those inline, and the panic containment below still applies.
        let workers = self.num_workers.min(thetas.len()).max(1);
        let chunk_len = thetas.len().div_ceil(workers).max(1);
        let chunks: Vec<&[Vec<f64>]> = thetas.chunks(chunk_len).collect();
        let mut results = Vec::with_capacity(thetas.len());
        for chunk in crate::parallel::parallel_map(&chunks, workers, |_, c| {
            // Panic containment at the worker boundary: a panicking inner evaluator (one
            // without its own containment) becomes a structured error for its chunk
            // instead of tearing down the process at the scope join. Because the inner
            // serial loop stops at its first failing slot — panic or error alike — the
            // contained error still corresponds to the chunk's lowest failing slot.
            catch_unwind(AssertUnwindSafe(|| self.inner.evaluate_batch(c))).unwrap_or_else(
                |payload| {
                    Err(ParmisError::Backend {
                        name: "parallel-worker".to_string(),
                        source: SocError::Fault {
                            reason: format!(
                                "worker panic contained: {}",
                                panic_reason(payload.as_ref())
                            ),
                        },
                    })
                },
            )
        }) {
            // Propagate the first error in slot order, exactly like the serial loop:
            // chunks are contiguous and merged in slot order, and within a chunk the inner
            // evaluator's serial collect stops at its first failure — so for any worker
            // count the surfaced error is the one from the lowest failing slot.
            results.extend(chunk?);
        }
        Ok(results)
    }
}

/// What happens to a candidate θ whose evaluation still fails after every retry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradeMode {
    /// Propagate the error and abort the batch (the default, and the pre-retry behavior).
    FailFast,
    /// Degrade gracefully: the θ reports `penalty` on **every** objective instead of
    /// failing the run. Pick a penalty clearly worse than any reachable objective value so
    /// the search routes around the faulty region without the archive ever admitting it.
    SkipWithPenalty {
        /// Objective value reported for every objective of a degraded θ.
        penalty: f64,
    },
}

/// Bounded-retry policy for the evaluation seam.
///
/// Each failed backend run (structured error *or* contained panic) is retried up to
/// [`max_retries`](Self::max_retries) times, immediately: nothing waits between
/// attempts, so retry behavior never depends on timing. The shared [`RetryStats`] count
/// what happened. When every attempt is exhausted, [`degrade`](Self::degrade) decides
/// between fail-fast and skip-with-penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (`0` = single attempt, the default).
    pub max_retries: usize,
    /// What to do once retries are exhausted.
    pub degrade: DegradeMode,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            degrade: DegradeMode::FailFast,
        }
    }
}

impl RetryPolicy {
    /// A fail-fast policy with `max_retries` retries.
    pub fn retries(max_retries: usize) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// Switches exhaustion behavior to skip-with-penalty.
    #[must_use]
    pub fn skip_with_penalty(mut self, penalty: f64) -> Self {
        self.degrade = DegradeMode::SkipWithPenalty { penalty };
        self
    }
}

/// Shared fault-handling counters of an evaluator (clones of the evaluator share one).
///
/// All counters are atomics: workers update them concurrently, totals are exact.
#[derive(Debug, Default)]
pub struct RetryStats {
    retries: AtomicUsize,
    degraded_runs: AtomicUsize,
    contained_panics: AtomicUsize,
}

impl RetryStats {
    /// Total retry attempts performed.
    pub fn retries(&self) -> usize {
        self.retries.load(Ordering::SeqCst)
    }

    /// Runs that exhausted their retries and degraded to the penalty vector.
    pub fn degraded_runs(&self) -> usize {
        self.degraded_runs.load(Ordering::SeqCst)
    }

    /// Backend panics caught and converted into structured errors.
    pub fn contained_panics(&self) -> usize {
        self.contained_panics.load(Ordering::SeqCst)
    }
}

/// Renders a panic payload into a human-readable reason (the common `&str`/`String`
/// payloads verbatim, anything else opaque).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Evaluates policies by running them on the simulated platform for one benchmark.
///
/// Assembled with [`SocEvaluator::builder`], its only constructor.
#[derive(Debug, Clone)]
pub struct SocEvaluator {
    platform: Platform,
    space: DecisionSpace,
    architecture: PolicyArchitecture,
    applications: Vec<Application>,
    objectives: Vec<Objective>,
    constraints: Option<ScenarioConstraints>,
    run_seed: u64,
    backend: Arc<dyn EvalBackend>,
    retry: RetryPolicy,
    retry_stats: Arc<RetryStats>,
}

impl SocEvaluator {
    /// Starts a fluent [`EvaluatorBuilder`], the way to assemble an evaluator.
    ///
    /// ```
    /// use parmis::prelude::*;
    ///
    /// # fn main() -> Result<(), ParmisError> {
    /// let evaluator = SocEvaluator::builder()
    ///     .benchmark(Benchmark::Qsort)
    ///     .objectives(Objective::TIME_ENERGY.to_vec())
    ///     .build()?;
    /// assert_eq!(evaluator.backend().name(), "analytic-sim");
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> EvaluatorBuilder {
        EvaluatorBuilder::new()
    }

    /// An evaluator over explicit components with the builder's defaults for everything
    /// else (run seed, [`AnalyticSim`] backend, no constraints, no retries).
    fn new(
        platform: Platform,
        architecture: PolicyArchitecture,
        applications: Vec<Application>,
        objectives: Vec<Objective>,
    ) -> Self {
        let space = platform.spec().decision_space().clone();
        SocEvaluator {
            platform,
            space,
            architecture,
            applications,
            objectives,
            constraints: None,
            run_seed: DEFAULT_RUN_SEED,
            backend: Arc::new(AnalyticSim::new()),
            retry: RetryPolicy::default(),
            retry_stats: Arc::new(RetryStats::default()),
        }
    }

    /// The evaluation backend in use.
    pub fn backend(&self) -> &dyn EvalBackend {
        &*self.backend
    }

    /// The shared fault-handling counters (clones of this evaluator update the same ones,
    /// so parallel workers aggregate into a single set of totals).
    pub fn retry_stats(&self) -> Arc<RetryStats> {
        self.retry_stats.clone()
    }

    /// The decision space of the underlying platform.
    pub fn decision_space(&self) -> &DecisionSpace {
        &self.space
    }

    /// The applications this evaluator runs.
    pub fn applications(&self) -> &[Application] {
        &self.applications
    }

    /// Materializes the DRM policy corresponding to a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `theta.len()` does not match [`parameter_dim`](PolicyEvaluator::parameter_dim).
    pub fn policy_for(&self, theta: &[f64]) -> DrmPolicy {
        DrmPolicy::from_flat_parameters(&self.space, &self.architecture, theta)
    }

    /// Runs a freshly decoded policy for θ on every application, straight on the platform
    /// (no backend, no retries), and returns the per-application aggregates: the reference
    /// the scratch-reusing [`evaluate_with`](Self::evaluate_with) path is checked against.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Evaluation`] for a θ of the wrong dimension and propagates
    /// simulator failures.
    pub fn run_aggregates(&self, theta: &[f64]) -> Result<Vec<RunAggregates>> {
        if theta.len() != self.parameter_dim() {
            return Err(ParmisError::Evaluation {
                reason: format!(
                    "theta has dimension {} but the policy needs {}",
                    theta.len(),
                    self.parameter_dim()
                ),
            });
        }
        let mut policy = self.policy_for(theta);
        self.applications
            .iter()
            .map(|app| {
                self.platform
                    .run_application(app, &mut policy, self.run_seed)
                    .map_err(ParmisError::from)
            })
            .collect()
    }

    /// Allocates the reusable scratch for [`evaluate_with`](Self::evaluate_with): the
    /// decoded policy (architecture, heads and decision space are shared across every θ of
    /// a batch).
    pub fn sim_buffers(&self) -> SimBuffers {
        SimBuffers {
            policy: DrmPolicy::zeros(&self.space, &self.architecture),
        }
    }

    /// [`evaluate`](PolicyEvaluator::evaluate) through a reusable [`SimBuffers`] scratch:
    /// the policy is re-parameterized in place and every application run is delegated to
    /// the configured [`EvalBackend`], so no per-epoch trace and no fresh policy structure
    /// are allocated per θ. With the default [`AnalyticSim`] backend this is the platform's
    /// untraced runner, bit-identical to [`run_aggregates`](Self::run_aggregates).
    ///
    /// Fault handling: every backend run goes through the evaluator's [`RetryPolicy`] —
    /// a panicking backend is contained (`catch_unwind`) and converted into a structured
    /// [`ParmisError::Backend`] carrying [`SocError::Fault`], failures are retried, and on
    /// exhaustion the policy either fails fast or degrades the whole θ to the configured
    /// penalty vector ([`DegradeMode::SkipWithPenalty`]).
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Evaluation`] for a θ of the wrong dimension or an evaluator
    /// without applications, and propagates backend failures
    /// ([`ParmisError::Backend`]).
    pub fn evaluate_with(&self, theta: &[f64], buffers: &mut SimBuffers) -> Result<Vec<f64>> {
        if theta.len() != self.parameter_dim() {
            return Err(ParmisError::Evaluation {
                reason: format!(
                    "theta has dimension {} but the policy needs {}",
                    theta.len(),
                    self.parameter_dim()
                ),
            });
        }
        if self.applications.is_empty() {
            return Err(ParmisError::Evaluation {
                reason: "evaluator has no applications".into(),
            });
        }
        buffers.policy.set_flat_parameters(theta);
        let k = self.objectives.len();
        let mut acc = vec![0.0; k];
        let mut penalty_sum = 0.0;
        for app in &self.applications {
            let ctx = EvalContext {
                platform: &self.platform,
                application: app,
                seed: self.run_seed,
            };
            let aggregates = match self.run_backend_with_retries(&ctx, buffers)? {
                BackendRun::Completed(aggregates) => aggregates,
                // Retries exhausted under SkipWithPenalty: the whole θ degrades to the
                // penalty vector (clearly dominated, so the archive never admits it).
                BackendRun::Degraded { penalty } => return Ok(vec![penalty; k]),
            };
            let v = objective_vector(&self.objectives, &aggregates);
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
            if let Some(constraints) = &self.constraints {
                penalty_sum += constraints.penalty(&aggregates);
            }
        }
        for a in acc.iter_mut() {
            *a /= self.applications.len() as f64;
        }
        // Scenario constraints enter as an additive penalty on every objective (zero when
        // every limit is met), averaged across applications like the objectives themselves.
        if self.constraints.is_some() {
            let penalty = penalty_sum / self.applications.len() as f64;
            if penalty > 0.0 {
                for a in acc.iter_mut() {
                    *a += penalty;
                }
            }
        }
        Ok(acc)
    }

    /// One backend run under the evaluator's [`RetryPolicy`]: panics contained into
    /// structured errors, failures retried, and on exhaustion either the last error
    /// (fail-fast) or a degradation marker (skip-with-penalty).
    fn run_backend_with_retries(
        &self,
        ctx: &EvalContext<'_>,
        buffers: &mut SimBuffers,
    ) -> Result<BackendRun> {
        let mut attempt = 0usize;
        loop {
            let outcome = catch_unwind(AssertUnwindSafe(|| self.backend.run(ctx, buffers)));
            let error = match outcome {
                Ok(Ok(aggregates)) => return Ok(BackendRun::Completed(aggregates)),
                Ok(Err(error)) => error,
                Err(payload) => {
                    self.retry_stats
                        .contained_panics
                        .fetch_add(1, Ordering::SeqCst);
                    ParmisError::Backend {
                        name: self.backend.name().to_string(),
                        source: SocError::Fault {
                            reason: format!(
                                "backend panic contained: {}",
                                panic_reason(payload.as_ref())
                            ),
                        },
                    }
                }
            };
            // Cancellation is a request to stop, not a fault: it is never retried and
            // never degraded to a penalty vector — it propagates immediately so the
            // search suspends at its checkpoint boundary.
            if error.cancel_reason().is_some() {
                return Err(error);
            }
            if attempt < self.retry.max_retries {
                self.retry_stats.retries.fetch_add(1, Ordering::SeqCst);
                attempt += 1;
                continue;
            }
            return match self.retry.degrade {
                DegradeMode::FailFast => Err(error),
                DegradeMode::SkipWithPenalty { penalty } => {
                    self.retry_stats
                        .degraded_runs
                        .fetch_add(1, Ordering::SeqCst);
                    Ok(BackendRun::Degraded { penalty })
                }
            };
        }
    }
}

/// Result of one fault-handled backend run.
enum BackendRun {
    /// The backend produced aggregates (possibly after retries).
    Completed(RunAggregates),
    /// Retries were exhausted under [`DegradeMode::SkipWithPenalty`].
    Degraded {
        /// The configured penalty objective value.
        penalty: f64,
    },
}

/// Fluent assembly of a [`SocEvaluator`]: the one way to build one.
///
/// Defaults: Odroid-XU3-like platform, the paper's default policy architecture, run seed
/// 17, the [`AnalyticSim`] backend, no constraints. Sources compose — e.g.
/// [`scenario`](Self::scenario) sets platform, workload, constraints and precision tier
/// while [`backend`](Self::backend) swaps the backend:
///
/// ```
/// use parmis::prelude::*;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), ParmisError> {
/// let scenario = soc_sim::scenario::by_name("odroid-pca-thermal").unwrap();
/// let evaluator = SocEvaluator::builder()
///     .scenario(&scenario)
///     .objectives(Objective::TIME_ENERGY.to_vec())
///     .backend(Arc::new(FaultInject::new(Arc::new(AnalyticSim::new()))))
///     .run_seed(42)
///     .build()?;
/// assert_eq!(evaluator.backend().name(), "fault-inject");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvaluatorBuilder {
    platform: Option<Platform>,
    architecture: PolicyArchitecture,
    applications: Vec<Application>,
    objectives: Vec<Objective>,
    constraints: Option<ScenarioConstraints>,
    run_seed: u64,
    backend: Arc<dyn EvalBackend>,
    precision: Option<Precision>,
    retry: RetryPolicy,
    deferred: Option<ParmisError>,
}

impl Default for EvaluatorBuilder {
    fn default() -> Self {
        EvaluatorBuilder::new()
    }
}

impl EvaluatorBuilder {
    /// An empty builder with the documented defaults.
    pub fn new() -> Self {
        EvaluatorBuilder {
            platform: None,
            architecture: PolicyArchitecture::paper_default(),
            applications: Vec::new(),
            objectives: Vec::new(),
            constraints: None,
            run_seed: DEFAULT_RUN_SEED,
            backend: Arc::new(AnalyticSim::new()),
            precision: None,
            retry: RetryPolicy::default(),
            deferred: None,
        }
    }

    /// Adds one benchmark's application to the evaluation set.
    pub fn benchmark(mut self, benchmark: Benchmark) -> Self {
        self.applications.push(benchmark.application());
        self
    }

    /// Adds every listed benchmark's application (global-policy evaluations average
    /// objectives across them).
    pub fn benchmarks(mut self, benchmarks: &[Benchmark]) -> Self {
        self.applications
            .extend(benchmarks.iter().map(|b| b.application()));
        self
    }

    /// Adds an explicit application to the evaluation set.
    pub fn application(mut self, application: Application) -> Self {
        self.applications.push(application);
        self
    }

    /// Configures the builder from a [`Scenario`]: its platform preset, generated
    /// workload, [`ScenarioConstraints`], and — when the scenario pins one — its
    /// [`Scenario::precision`] tier. A workload build failure is deferred and surfaces
    /// from [`build`](Self::build).
    pub fn scenario(mut self, scenario: &Scenario) -> Self {
        match scenario.application() {
            Ok(application) => {
                self.platform = Some(scenario.platform());
                self.applications.push(application);
                self.constraints = Some(scenario.constraints);
                if let Some(precision) = scenario.precision {
                    self.precision = Some(precision);
                }
            }
            Err(e) => {
                self.deferred.get_or_insert(ParmisError::Evaluation {
                    reason: format!("scenario {}: {e}", scenario.name),
                });
            }
        }
        self
    }

    /// Overrides the target platform (default: [`Platform::odroid_xu3`]).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Overrides the policy architecture used to decode θ.
    pub fn architecture(mut self, architecture: PolicyArchitecture) -> Self {
        self.architecture = architecture;
        self
    }

    /// Sets the design objectives being traded off (replaces any previous set).
    pub fn objectives(mut self, objectives: Vec<Objective>) -> Self {
        self.objectives = objectives;
        self
    }

    /// Applies scenario constraints: every objective value gets the constraints' weighted
    /// relative-violation [`penalty`](ScenarioConstraints::penalty) added, so the search is
    /// steered towards configurations that satisfy the scenario without changing the
    /// objective set. A penalty of zero (all limits met) leaves values untouched.
    pub fn constraints(mut self, constraints: ScenarioConstraints) -> Self {
        self.constraints = Some(constraints);
        self
    }

    /// Overrides the measurement-noise seed used for every run.
    pub fn run_seed(mut self, seed: u64) -> Self {
        self.run_seed = seed;
        self
    }

    /// Sets the evaluation backend instance (default: [`AnalyticSim`]) — e.g. a
    /// [`crate::backend::FaultInject`] for robustness drills.
    pub fn backend(mut self, backend: Arc<dyn EvalBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the numeric precision tier the platform simulates under. The last call wins —
    /// including a scenario-pinned tier picked up by [`scenario`](Self::scenario). When
    /// never set, the platform keeps its own tier (seed-exact unless the platform was built
    /// with [`Platform::with_precision`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Sets the fault-handling policy applied around every backend run: retries, then
    /// fail-fast or skip-with-penalty.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builds the evaluator.
    ///
    /// # Errors
    ///
    /// Returns a deferred [`ParmisError::Evaluation`] if a scenario workload failed to
    /// build, or [`ParmisError::InvalidConfig`] when no application source was configured.
    pub fn build(self) -> Result<SocEvaluator> {
        if let Some(deferred) = self.deferred {
            return Err(deferred);
        }
        if self.applications.is_empty() {
            return Err(ParmisError::InvalidConfig {
                reason: "evaluator builder has no applications \
                         (use .benchmark(..), .scenario(..) or .application(..))"
                    .into(),
            });
        }
        let mut platform = self.platform.unwrap_or_else(Platform::odroid_xu3);
        if let Some(precision) = self.precision {
            platform = platform.with_precision(precision);
        }
        let mut evaluator = SocEvaluator::new(
            platform,
            self.architecture,
            self.applications,
            self.objectives,
        );
        evaluator.constraints = self.constraints;
        evaluator.run_seed = self.run_seed;
        evaluator.backend = self.backend;
        evaluator.retry = self.retry;
        Ok(evaluator)
    }
}

/// Reusable per-worker scratch for batched policy evaluation: the decoded [`DrmPolicy`]
/// (re-parameterized in place per θ via `set_flat_parameters`, so the MLP head structure
/// and the cloned decision space are allocated once per batch instead of once per θ).
#[derive(Debug, Clone)]
pub struct SimBuffers {
    policy: DrmPolicy,
}

impl SimBuffers {
    /// The decoded policy for the most recent θ, which a backend drives the platform with
    /// (`&mut`, for the controller's ping-pong inference scratch).
    pub fn policy_mut(&mut self) -> &mut DrmPolicy {
        &mut self.policy
    }
}

impl PolicyEvaluator for SocEvaluator {
    fn parameter_dim(&self) -> usize {
        DrmPolicy::parameter_count_for(&self.space, &self.architecture)
    }

    fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
        self.evaluate_with(theta, &mut self.sim_buffers())
    }

    fn evaluate_batch(&self, thetas: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        // One scratch for the whole batch: the decoded policy structure is reused across
        // every θ (the seed default re-decoded it per θ).
        let mut buffers = self.sim_buffers();
        thetas
            .iter()
            .map(|theta| self.evaluate_with(theta, &mut buffers))
            .collect()
    }
}

/// Evaluator over the full 12-application suite, producing "global" Pareto-frontier policies
/// (paper §V-D). This is a thin convenience wrapper over [`SocEvaluator`] with all
/// applications loaded.
#[derive(Debug, Clone)]
pub struct GlobalEvaluator {
    inner: SocEvaluator,
}

impl GlobalEvaluator {
    /// Creates a global evaluator over all 12 benchmarks.
    pub fn all_benchmarks(objectives: Vec<Objective>) -> Self {
        GlobalEvaluator {
            inner: SocEvaluator::new(
                Platform::odroid_xu3(),
                PolicyArchitecture::paper_default(),
                Benchmark::all_applications(),
                objectives,
            ),
        }
    }

    /// Creates a global evaluator over an explicit benchmark subset.
    pub fn for_benchmarks(benchmarks: &[Benchmark], objectives: Vec<Objective>) -> Self {
        GlobalEvaluator {
            inner: SocEvaluator::new(
                Platform::odroid_xu3(),
                PolicyArchitecture::paper_default(),
                benchmarks.iter().map(|b| b.application()).collect(),
                objectives,
            ),
        }
    }

    /// Access to the wrapped [`SocEvaluator`] (e.g. to materialize policies).
    pub fn as_soc_evaluator(&self) -> &SocEvaluator {
        &self.inner
    }

    /// Evaluates θ on a *single* benchmark, which is how the paper scores a global policy on
    /// each application when comparing against application-specific policies (Fig. 5).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn evaluate_on(&self, theta: &[f64], benchmark: Benchmark) -> Result<Vec<f64>> {
        let mut single = SocEvaluator::new(
            Platform::odroid_xu3(),
            self.inner.architecture.clone(),
            vec![benchmark.application()],
            self.inner.objectives.clone(),
        );
        single.run_seed = self.inner.run_seed;
        single.backend = self.inner.backend.clone();
        single.retry = self.inner.retry;
        single.evaluate(theta)
    }
}

impl PolicyEvaluator for GlobalEvaluator {
    fn parameter_dim(&self) -> usize {
        self.inner.parameter_dim()
    }

    fn objectives(&self) -> &[Objective] {
        self.inner.objectives()
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
        self.inner.evaluate(theta)
    }

    fn evaluate_batch(&self, thetas: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        self.inner.evaluate_batch(thetas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluator_for(benchmark: Benchmark, objectives: &[Objective]) -> SocEvaluator {
        SocEvaluator::builder()
            .benchmark(benchmark)
            .objectives(objectives.to_vec())
            .build()
            .unwrap()
    }

    #[test]
    fn parameter_dim_matches_policy_count() {
        let eval = evaluator_for(Benchmark::Fft, &Objective::TIME_ENERGY);
        let space = DecisionSpace::exynos5422();
        assert_eq!(
            eval.parameter_dim(),
            DrmPolicy::parameter_count_for(&space, &PolicyArchitecture::paper_default())
        );
        assert_eq!(eval.parameter_bound(), DrmPolicy::PARAMETER_BOUND);
        assert_eq!(eval.objectives().len(), 2);
        assert_eq!(eval.applications().len(), 1);
    }

    #[test]
    fn evaluation_rejects_wrong_dimension() {
        let eval = evaluator_for(Benchmark::Fft, &Objective::TIME_ENERGY);
        assert!(matches!(
            eval.evaluate(&[0.0; 3]),
            Err(ParmisError::Evaluation { .. })
        ));
    }

    #[test]
    fn evaluation_returns_finite_minimization_objectives() {
        let eval = evaluator_for(Benchmark::Qsort, &Objective::TIME_PPW);
        let theta = vec![0.2; eval.parameter_dim()];
        let v = eval.evaluate(&theta).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v[0] > 0.0, "execution time must be positive");
        assert!(v[1] < 0.0, "negated PPW must be negative");
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn evaluations_are_deterministic_for_fixed_theta() {
        let eval = evaluator_for(Benchmark::Sha, &Objective::TIME_ENERGY);
        let theta = vec![-0.4; eval.parameter_dim()];
        assert_eq!(
            eval.evaluate(&theta).unwrap(),
            eval.evaluate(&theta).unwrap()
        );
        // A different run seed changes the (noisy) measurement slightly.
        let noisy = SocEvaluator::builder()
            .benchmark(Benchmark::Sha)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .run_seed(99)
            .build()
            .unwrap();
        let a = eval.evaluate(&theta).unwrap();
        let b = noisy.evaluate(&theta).unwrap();
        assert_ne!(a, b);
        assert!((a[0] - b[0]).abs() / a[0] < 0.1);
    }

    #[test]
    fn scenario_evaluator_applies_the_constraint_penalty_additively() {
        let scenario = soc_sim::scenario::by_name("odroid-pca-thermal").unwrap();
        let constrained = SocEvaluator::builder()
            .scenario(&scenario)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .build()
            .unwrap();
        // The same platform/workload without constraints is the baseline.
        let free = SocEvaluator::builder()
            .platform(scenario.platform())
            .application(scenario.application().unwrap())
            .objectives(Objective::TIME_ENERGY.to_vec())
            .build()
            .unwrap();
        // An all-out policy bias is the most likely to violate an 80 C limit; either way the
        // penalized values must be >= the raw ones with an identical offset on both axes.
        let theta = vec![0.5; constrained.parameter_dim()];
        let hot = constrained.evaluate(&theta).unwrap();
        let raw = free.evaluate(&theta).unwrap();
        let d0 = hot[0] - raw[0];
        let d1 = hot[1] - raw[1];
        assert!(d0 >= 0.0 && d1 >= 0.0);
        assert!(
            (d0 - d1).abs() < 1e-9,
            "penalty must shift every objective equally"
        );

        // An unsatisfiable-scenario build error surfaces as an evaluation error.
        let mut broken = scenario.clone();
        broken.workload.benchmarks[0] = "nope".into();
        assert!(matches!(
            SocEvaluator::builder()
                .scenario(&broken)
                .objectives(Objective::TIME_ENERGY.to_vec())
                .build(),
            Err(ParmisError::Evaluation { .. })
        ));
    }

    #[test]
    fn different_thetas_produce_different_objectives() {
        let eval = evaluator_for(Benchmark::Kmeans, &Objective::TIME_ENERGY);
        let space = DecisionSpace::exynos5422();
        let arch = PolicyArchitecture::paper_default();
        let a_theta = DrmPolicy::random(&space, &arch, 1).to_flat_parameters();
        let b_theta = DrmPolicy::random(&space, &arch, 2).to_flat_parameters();
        let a = eval.evaluate(&a_theta).unwrap();
        let b = eval.evaluate(&b_theta).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn global_evaluator_averages_across_benchmarks() {
        let objectives = Objective::TIME_ENERGY.to_vec();
        let global =
            GlobalEvaluator::for_benchmarks(&[Benchmark::Sha, Benchmark::Dijkstra], objectives);
        let dim = global.parameter_dim();
        let theta = vec![0.1; dim];
        let avg = global.evaluate(&theta).unwrap();
        let on_sha = global.evaluate_on(&theta, Benchmark::Sha).unwrap();
        let on_dijkstra = global.evaluate_on(&theta, Benchmark::Dijkstra).unwrap();
        for i in 0..2 {
            let expected = (on_sha[i] + on_dijkstra[i]) / 2.0;
            assert!(
                (avg[i] - expected).abs() / expected.abs() < 1e-9,
                "global objective {i} should be the mean of the per-app objectives"
            );
        }
        assert_eq!(global.as_soc_evaluator().applications().len(), 2);
    }

    #[test]
    fn default_batch_agrees_with_elementwise_evaluate() {
        let eval = evaluator_for(Benchmark::Fft, &Objective::TIME_ENERGY);
        let dim = eval.parameter_dim();
        let thetas: Vec<Vec<f64>> = (0..5).map(|i| vec![-0.5 + 0.2 * i as f64; dim]).collect();
        let batch = eval.evaluate_batch(&thetas).unwrap();
        for (theta, row) in thetas.iter().zip(&batch) {
            assert_eq!(row, &eval.evaluate(theta).unwrap());
        }
    }

    #[test]
    fn cancellation_bypasses_retries_and_penalty_degradation() {
        use crate::cancel::CancelReason;

        /// A custom backend that asks the search to stop on every run.
        #[derive(Debug)]
        struct CancellingBackend;

        impl EvalBackend for CancellingBackend {
            fn name(&self) -> &'static str {
                "cancelling"
            }

            fn run(&self, _: &EvalContext<'_>, _: &mut SimBuffers) -> Result<RunAggregates> {
                Err(ParmisError::cancelled(CancelReason::Deadline))
            }
        }

        // A backend's cancellation must abort immediately: no retries, no degradation to
        // the penalty vector — even under the most forgiving policy.
        let eval = SocEvaluator::builder()
            .benchmark(Benchmark::Qsort)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .retry_policy(RetryPolicy::retries(3).skip_with_penalty(1e9))
            .backend(Arc::new(CancellingBackend))
            .build()
            .unwrap();
        let theta = vec![0.1; eval.parameter_dim()];
        let err = eval.evaluate(&theta).unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::Deadline));
        let stats = eval.retry_stats();
        assert_eq!(stats.retries(), 0);
        assert_eq!(stats.degraded_runs(), 0);
    }

    #[test]
    fn reused_sim_buffers_leave_no_state_between_thetas() {
        // The scratch path must be a pure function of θ: interleaving very different
        // candidates through ONE SimBuffers gives the same answers as fresh evaluations,
        // and the evaluation matches the fresh-decode run_aggregates path.
        let eval = evaluator_for(Benchmark::Qsort, &Objective::TIME_ENERGY);
        let dim = eval.parameter_dim();
        let thetas = [vec![0.9; dim], vec![-0.9; dim], vec![0.9; dim]];
        let mut buffers = eval.sim_buffers();
        let through_scratch: Vec<Vec<f64>> = thetas
            .iter()
            .map(|t| eval.evaluate_with(t, &mut buffers).unwrap())
            .collect();
        assert_eq!(
            through_scratch[0], through_scratch[2],
            "identical θ must give identical objectives regardless of what ran in between"
        );
        for (theta, got) in thetas.iter().zip(&through_scratch) {
            assert_eq!(got, &eval.evaluate(theta).unwrap());
            let run = &eval.run_aggregates(theta).unwrap()[0];
            assert_eq!(got[0], run.execution_time_s);
            assert_eq!(got[1], run.energy_j);
        }
    }

    #[test]
    fn scenario_constrained_scratch_path_matches_the_summary_path() {
        let scenario = soc_sim::scenario::by_name("odroid-pca-thermal").unwrap();
        let eval = SocEvaluator::builder()
            .scenario(&scenario)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .build()
            .unwrap();
        let theta = vec![0.5; eval.parameter_dim()];
        let mut buffers = eval.sim_buffers();
        let streamed = eval.evaluate_with(&theta, &mut buffers).unwrap();
        let run = &eval.run_aggregates(&theta).unwrap()[0];
        let penalty = scenario.constraints.penalty(run);
        assert_eq!(streamed[0], run.execution_time_s + penalty);
        assert_eq!(streamed[1], run.energy_j + penalty);
    }

    #[test]
    fn parallel_evaluator_is_bitwise_identical_to_serial() {
        let serial = evaluator_for(Benchmark::Qsort, &Objective::TIME_PPW);
        let dim = serial.parameter_dim();
        let thetas: Vec<Vec<f64>> = (0..9).map(|i| vec![0.3 - 0.07 * i as f64; dim]).collect();
        let expected = serial.evaluate_batch(&thetas).unwrap();
        for workers in [1, 2, 4] {
            let parallel = ParallelEvaluator::new(serial.clone(), workers);
            assert_eq!(parallel.num_workers(), workers);
            assert_eq!(
                parallel.evaluate_batch(&thetas).unwrap(),
                expected,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn parallel_evaluator_delegates_scalar_interface() {
        let serial = evaluator_for(Benchmark::Sha, &Objective::TIME_ENERGY);
        let parallel = ParallelEvaluator::new(serial.clone(), 2);
        assert_eq!(parallel.parameter_dim(), serial.parameter_dim());
        assert_eq!(parallel.parameter_bound(), serial.parameter_bound());
        assert_eq!(parallel.objectives(), serial.objectives());
        let theta = vec![0.1; serial.parameter_dim()];
        assert_eq!(
            parallel.evaluate(&theta).unwrap(),
            serial.evaluate(&theta).unwrap()
        );
        assert_eq!(parallel.inner().applications().len(), 1);
        assert_eq!(parallel.into_inner().applications().len(), 1);
    }

    #[test]
    fn batch_errors_surface_from_any_slot() {
        let eval = evaluator_for(Benchmark::Aes, &Objective::TIME_ENERGY);
        let dim = eval.parameter_dim();
        let thetas = vec![vec![0.0; dim], vec![0.0; 3]];
        assert!(matches!(
            eval.evaluate_batch(&thetas),
            Err(ParmisError::Evaluation { .. })
        ));
        let parallel = ParallelEvaluator::new(eval, 2);
        assert!(parallel.evaluate_batch(&thetas).is_err());
    }

    #[test]
    fn builder_resolves_backend_sources_with_explicit_instance_winning() {
        use crate::backend::FaultInject;

        // With no backend source the evaluator runs on the analytic simulator.
        let plain = evaluator_for(Benchmark::Qsort, &Objective::TIME_ENERGY);
        assert_eq!(plain.backend().name(), "analytic-sim");

        // An explicit backend instance given together with a scenario is the one used, and
        // it still evaluates.
        let scenario = soc_sim::scenario::by_name("odroid-pca-thermal").unwrap();
        let explicit = SocEvaluator::builder()
            .scenario(&scenario)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .backend(Arc::new(FaultInject::new(Arc::new(AnalyticSim::new()))))
            .build()
            .unwrap();
        assert_eq!(explicit.backend().name(), "fault-inject");
        let theta = vec![0.2; explicit.parameter_dim()];
        assert!(explicit.evaluate(&theta).is_ok());
    }

    #[test]
    fn builder_surfaces_configuration_errors() {
        // No application source at all.
        let err = SocEvaluator::builder()
            .objectives(Objective::TIME_ENERGY.to_vec())
            .build()
            .unwrap_err();
        assert!(matches!(err, ParmisError::InvalidConfig { .. }));

        // A broken scenario defers its build error to build().
        let mut broken = soc_sim::scenario::by_name("odroid-pca-thermal").unwrap();
        broken.workload.benchmarks[0] = "nope".into();
        let err = SocEvaluator::builder()
            .scenario(&broken)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .build()
            .unwrap_err();
        match err {
            ParmisError::Evaluation { reason } => assert!(reason.contains("nope")),
            other => panic!("expected deferred Evaluation error, got {other:?}"),
        }
    }

    /// Mock evaluator whose failures are distinguishable per slot: θ = `[-(slot)]` fails
    /// with a reason naming that slot, anything else succeeds.
    #[derive(Debug, Clone)]
    struct SlotTaggedEvaluator {
        objectives: Vec<Objective>,
    }

    impl SlotTaggedEvaluator {
        fn new() -> Self {
            SlotTaggedEvaluator {
                objectives: vec![Objective::ExecutionTime],
            }
        }
    }

    impl PolicyEvaluator for SlotTaggedEvaluator {
        fn parameter_dim(&self) -> usize {
            1
        }

        fn objectives(&self) -> &[Objective] {
            &self.objectives
        }

        fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
            if theta[0] < 0.0 {
                Err(ParmisError::Evaluation {
                    reason: format!("slot {} failed", -theta[0]),
                })
            } else {
                Ok(vec![theta[0]])
            }
        }
    }

    #[test]
    fn parallel_batch_error_is_the_lowest_slot_error_for_any_worker_count() {
        // Regression test for the chunked merge's error contract: with failures planted in
        // slots 5 and 11 of a 16-slot batch, every sharding must surface slot 5's error —
        // identical to what the serial loop reports — never slot 11's, and never a
        // worker-scheduling-dependent winner.
        let eval = SlotTaggedEvaluator::new();
        let mut thetas: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        thetas[5] = vec![-5.0];
        thetas[11] = vec![-11.0];

        let serial_err = eval.evaluate_batch(&thetas).unwrap_err();
        assert_eq!(
            serial_err,
            ParmisError::Evaluation {
                reason: "slot 5 failed".into()
            }
        );

        for workers in [1, 2, 3, 4, 8, 16] {
            let parallel = ParallelEvaluator::new(eval.clone(), workers);
            let err = parallel.evaluate_batch(&thetas).unwrap_err();
            assert_eq!(err, serial_err, "workers = {workers}");
        }

        // With no failures the sharded batch still matches the serial one exactly.
        let clean: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        let expected = eval.evaluate_batch(&clean).unwrap();
        for workers in [2, 5] {
            let parallel = ParallelEvaluator::new(eval.clone(), workers);
            assert_eq!(parallel.evaluate_batch(&clean).unwrap(), expected);
        }
    }

    #[test]
    fn run_aggregates_expose_per_application_details() {
        let eval = evaluator_for(Benchmark::Aes, &Objective::TIME_ENERGY);
        let theta = vec![0.0; eval.parameter_dim()];
        let runs = eval.run_aggregates(&theta).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].epochs, Benchmark::Aes.application().epoch_count());
    }
}
