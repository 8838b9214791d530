//! PaRMIS: Learning Pareto-Frontier Resource Management Policies via Information-Theoretic
//! Search.
//!
//! This crate is the paper's primary contribution. A DRM policy is a parametric function
//! Π_θ (the four-headed MLP of the `policy` crate); PaRMIS searches the parameter space
//! θ ∈ ℝ^d for the set of policies whose objective vectors form the optimal Pareto front,
//! using an output-space information-gain acquisition (Algorithm 1 of the paper):
//!
//! 1. Fit one Gaussian process per design objective on the policy evaluations collected so
//!    far ([`framework`], using the `gp` crate).
//! 2. Sample Pareto fronts of the *model*: draw one function per objective from its GP
//!    posterior with random Fourier features and solve the cheap multi-objective problem over
//!    the samples with NSGA-II ([`pareto_sampling`]).
//! 3. Score candidate policies with the closed-form truncated-Gaussian information-gain
//!    expression, Eq. 9 of the paper ([`acquisition`]), and pick the maximizer
//!    ([`acquisition::AcquisitionOptimizer`]).
//! 4. Evaluate the selected policy on the platform ([`evaluation`]), append the observation
//!    and repeat.
//!
//! The result is a set of Pareto-frontier DRM policies; at run time the system picks the one
//! matching the user's desired trade-off ([`moo::ParetoFront::select_by`]).
//!
//! # Batched, parallel evaluation
//!
//! Step 3/4 can select the **top-q** acquisition candidates per iteration instead of the
//! argmax ([`framework::ParmisConfig::batch_size`]) and evaluate them as one batch. Batches
//! flow through [`evaluation::PolicyEvaluator::evaluate_batch`]; wrap any evaluator in a
//! [`evaluation::ParallelEvaluator`] — or call [`framework::Parmis::run_parallel`] — to shard
//! the batch across a scoped thread pool ([`framework::ParmisConfig::num_workers`]). All
//! random streams derive from `(seed, iteration, slot)` and batch results merge in slot
//! order, so the Pareto front is bit-identical for any worker count.
//!
//! # Evaluation backends
//!
//! The policy→aggregates step lives behind the small object-safe
//! [`backend::EvalBackend`] trait. Two implementations ship: the streaming analytic
//! simulator ([`backend::AnalyticSim`], the default and bit-identity reference) and a
//! deterministic fault-injection decorator ([`backend::FaultInject`]) for robustness
//! drills. Evaluators are assembled with [`evaluation::SocEvaluator::builder`], their only
//! constructor; [`evaluation::EvaluatorBuilder::backend`] swaps the backend.
//!
//! # Robustness: checkpoint/resume, trace hashes, fault tolerance
//!
//! Long-budget searches are **resumable and auditable**: [`framework::Parmis::segment`]
//! runs a search in fuel-bounded segments, each of which suspends cleanly at an iteration
//! boundary with a serializable [`checkpoint::SearchState`] that the next segment
//! continues **bit-identically** — verified by a per-iteration trace-hash chain
//! ([`checkpoint::hash_chain`]) recorded in every checkpoint and outcome. The evaluation
//! seam is fault-tolerant: backend panics are contained into structured errors, failures
//! are retried under a deterministic [`evaluation::RetryPolicy`], and exhausted retries
//! either fail fast or degrade the candidate to a penalty vector
//! ([`evaluation::DegradeMode`]). [`backend::FaultInject`] drills all of it with seeded
//! failure schedules. For whole fleets, the [`jobs`] module adds a crash-safe
//! supervisor: a durable atomic-write checkpoint store with corruption quarantine, a
//! journaled job table, and watchdog-supervised multi-search scheduling that survives
//! `SIGKILL` at any point with bit-identical final fronts.
//!
//! # Cancellation, deadlines & graceful drain
//!
//! Every execution layer is **cooperatively cancellable** through the [`cancel`] module's
//! hierarchical [`cancel::CancelSource`]/[`cancel::CancelToken`] pair: searches wired with
//! [`framework::Parmis::with_cancel_token`] suspend at the next deterministic boundary
//! with a reason-carrying [`framework::StopReason`], wall-clock budgets
//! ([`cancel::CancelSource::with_deadline`], the supervisor's per-job and fleet
//! deadlines) convert expiry into a suspend-at-checkpoint rather than a kill, a
//! supervisor-side monitor raises `Stall` on workers whose heartbeat stops moving, and
//! SIGTERM/SIGINT drain the whole fleet gracefully
//! ([`jobs::JobSupervisor::request_drain`]). Timing only decides *when* a trajectory
//! suspends — resumed runs stay bit-identical.
//!
//! # Quick start
//!
//! ```no_run
//! use parmis::prelude::*;
//!
//! # fn main() -> Result<(), ParmisError> {
//! let evaluator = SocEvaluator::builder()
//!     .benchmark(Benchmark::Qsort)
//!     .objectives(vec![Objective::ExecutionTime, Objective::Energy])
//!     .build()?;
//! let config = ParmisConfig { max_iterations: 60, ..ParmisConfig::default() };
//! let outcome = Parmis::new(config).run(&evaluator)?;
//! println!("{} Pareto-frontier policies", outcome.front.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod backend;
pub mod cancel;
pub mod checkpoint;
mod error;
pub mod evaluation;
pub mod framework;
pub mod jobs;
pub mod objective;
pub mod parallel;
pub mod pareto_sampling;

pub use error::{CheckpointFault, ParmisError};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ParmisError>;

/// One-import surface for the common workflow: assemble an evaluator, pick a backend, run
/// the search.
///
/// ```
/// use parmis::prelude::*;
/// ```
///
/// Deliberately excludes the crate-level [`Result`] alias so a glob import never shadows
/// `std::result::Result`.
pub mod prelude {
    pub use crate::backend::{AnalyticSim, EvalBackend, EvalContext, FaultInject, FaultKind};
    pub use crate::cancel::{CancelReason, CancelSource, CancelToken};
    pub use crate::checkpoint::SearchState;
    pub use crate::evaluation::{
        DegradeMode, EvaluatorBuilder, GlobalEvaluator, ParallelEvaluator, PolicyEvaluator,
        RetryPolicy, RetryStats, SimBuffers, SocEvaluator,
    };
    pub use crate::framework::{
        IterationRecord, Parmis, ParmisConfig, ParmisOutcome, SearchStep, StopReason,
    };
    pub use crate::jobs::{
        CheckpointStore, FleetReport, JobPhase, JobReport, JobSpec, JobSupervisor, SupervisorConfig,
    };
    pub use crate::objective::Objective;
    pub use crate::CheckpointFault;
    pub use crate::ParmisError;
    pub use fastmath::Precision;
    pub use soc_sim::apps::Benchmark;
    pub use soc_sim::scenario::Scenario;
}
