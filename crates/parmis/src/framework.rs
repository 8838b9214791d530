//! The PaRMIS main loop (Algorithm 1 of the paper).

use crate::acquisition::{AcquisitionOptimizer, AcquisitionOptimizerConfig};
use crate::cancel::{CancelReason, CancelToken};
use crate::checkpoint::{self, SearchState};
use crate::evaluation::PolicyEvaluator;
use crate::objective::Objective;
use crate::pareto_sampling::{AcquisitionScratch, ParetoFrontSampler, ParetoSamplingConfig};
use crate::{ParmisError, Result};
use fastmath::Precision;
use gp::hyperopt::{fit_with_hyperopt, HyperoptConfig};
use gp::kernel::KernelFamily;
use gp::GaussianProcess;
use moo::hypervolume::hypervolume;
use moo::ParetoFront;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a PaRMIS run: what the search computes.
///
/// Every field except [`num_workers`](Self::num_workers) shapes the trajectory and is
/// folded into the checkpoint's [`config_digest`](checkpoint::config_digest). How a run is
/// cut into segments — fuel, checkpoint cadence, deadlines — is not configuration: it is
/// passed to [`Parmis::segment`] or carried by a [`CancelToken`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParmisConfig {
    /// Total evaluation budget, including the initial random design. The paper runs up to 500
    /// iterations and observes convergence within roughly 300 (§V-B, §V-C).
    pub max_iterations: usize,
    /// Number of random policies evaluated before model-guided selection starts.
    pub initial_samples: usize,
    /// Number of Monte-Carlo Pareto-front samples S in Eq. 9 (the paper uses S = 1).
    pub num_pareto_samples: usize,
    /// Configuration of the RFF + NSGA-II front-sampling step.
    pub sampling: ParetoSamplingConfig,
    /// Configuration of the acquisition maximizer.
    pub acquisition: AcquisitionOptimizerConfig,
    /// Kernel family of the per-objective GP models.
    pub kernel_family: KernelFamily,
    /// Re-run the marginal-likelihood hyperparameter search every this many iterations
    /// (hyperparameters are reused in between to keep the per-iteration cost flat).
    pub refit_hyperparameters_every: usize,
    /// Stop early when no new Pareto-front point has been found for this many consecutive
    /// iterations (0 disables early stopping).
    pub convergence_window: usize,
    /// RNG seed controlling the initial design, sampling and acquisition search.
    pub seed: u64,
    /// Number of candidates `q` selected and evaluated per model-guided iteration (the
    /// batched variant of Algorithm 1, line 4/5: the top-`q` acquisition scores instead of
    /// the argmax). `1` reproduces the paper's sequential loop exactly; larger batches
    /// amortize the model-fitting cost and let [`Parmis::run_parallel`] (or a
    /// [`ParallelEvaluator`](crate::evaluation::ParallelEvaluator)) evaluate the whole batch
    /// concurrently. Every RNG stream is derived from `(seed, iteration, slot)`, so the
    /// outcome is a deterministic function of the configuration regardless of scheduling.
    pub batch_size: usize,
    /// Worker threads used by [`Parmis::run_parallel`] to evaluate each batch (`0` = one per
    /// available CPU). Because batch results are merged in slot order and evaluators are
    /// pure, the Pareto front is **bit-identical for any worker count** — this knob trades
    /// wall-clock time only.
    pub num_workers: usize,
    /// Numeric precision tier of the model-side math: [`Precision::SeedExact`] (the
    /// default) reproduces the seed trajectory bit for bit, while [`Precision::Fast`]
    /// switches the RFF posterior-sample cosines inside the Pareto-front sampling step to
    /// the [`fastmath`] kernels (bounded, contract-tested error; still deterministic and
    /// seeded, but a *different* deterministic trajectory than the exact tier). Excluded
    /// from the configuration digest while `SeedExact` so legacy checkpoints stay valid.
    pub precision: Precision,
}

impl Default for ParmisConfig {
    fn default() -> Self {
        ParmisConfig {
            max_iterations: 200,
            initial_samples: 10,
            num_pareto_samples: 1,
            sampling: ParetoSamplingConfig::default(),
            acquisition: AcquisitionOptimizerConfig::default(),
            kernel_family: KernelFamily::Matern52,
            refit_hyperparameters_every: 20,
            convergence_window: 0,
            seed: 0x9a92_0c1e,
            batch_size: 1,
            num_workers: 1,
            precision: Precision::SeedExact,
        }
    }
}

/// One evaluated policy: the search keeps the full trace for convergence analysis (Fig. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Zero-based evaluation index (initial design included).
    pub iteration: usize,
    /// Policy parameters that were evaluated.
    pub theta: Vec<f64>,
    /// Observed minimization objective vector.
    pub objectives: Vec<f64>,
    /// Acquisition value of the selected candidate (`None` during the initial design).
    pub acquisition_value: Option<f64>,
}

/// Why a run segment stopped driving the search: the terminal causes recorded in a
/// completed [`ParmisOutcome`] and the suspension causes carried by
/// [`SearchStep::Suspended`]. One table, so reports and journal notes never have to
/// stitch two vocabularies together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopReason {
    /// The evaluation budget ([`ParmisConfig::max_iterations`]) was spent.
    BudgetExhausted,
    /// The convergence criterion fired ([`ParmisConfig::convergence_window`]).
    Converged,
    /// The segment's fuel budget (the `fuel` argument of [`Parmis::segment`]) expired at
    /// an iteration boundary.
    FuelExhausted,
    /// The segment was cooperatively cancelled at an iteration boundary — by an explicit
    /// request, a wall-clock deadline, a stall monitor, a process signal, or an ancestor
    /// scope (see [`CancelReason`]).
    Cancelled(CancelReason),
}

impl StopReason {
    /// Stable kebab-case name, used in journal notes and reports. [`Display`](std::fmt::Display)
    /// additionally includes the [`CancelReason`] of a cancellation.
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::BudgetExhausted => "budget-exhausted",
            StopReason::Converged => "converged",
            StopReason::FuelExhausted => "fuel-exhausted",
            StopReason::Cancelled(_) => "cancelled",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled(reason) => write!(f, "cancelled [{reason}]"),
            other => f.write_str(other.name()),
        }
    }
}

/// Result of a PaRMIS run.
#[derive(Debug, Clone)]
pub struct ParmisOutcome {
    /// The design objectives, in the order used by every objective vector.
    pub objectives: Vec<Objective>,
    /// Pareto-frontier policies: objective vectors with their parameter vectors as tags.
    pub front: ParetoFront<Vec<f64>>,
    /// Every evaluation performed, in order.
    pub history: Vec<IterationRecord>,
    /// Pareto-hypervolume trajectory: PHV of the archive after each evaluation, computed
    /// against [`Self::reference_point`]. This is the curve of Fig. 2.
    pub phv_history: Vec<f64>,
    /// Reference point used for the PHV trajectory (worse than every observed point).
    pub reference_point: Vec<f64>,
    /// Iteration at which the convergence criterion fired, if early stopping was enabled.
    pub converged_at: Option<usize>,
    /// Per-iteration trace-hash chain ([`checkpoint::hash_chain`]) of the run: the audit
    /// trail that proves a resumed run followed the uninterrupted trajectory bit for bit.
    pub trace_hashes: Vec<u64>,
    /// Why the completed run stopped: [`StopReason::Converged`] when early stopping
    /// fired, [`StopReason::BudgetExhausted`] otherwise. (Suspension causes travel on
    /// [`SearchStep::Suspended`] instead — a suspended segment has no outcome yet.)
    pub stop_reason: StopReason,
}

impl ParmisOutcome {
    /// A well-defined zero-evaluation outcome: empty archive and history, an all-margin
    /// reference point (no NaNs), `final_phv() == 0`. This is the value a degenerate
    /// zero-iteration run reports instead of poisoning downstream consumers with NaN.
    pub fn empty(objectives: Vec<Objective>) -> ParmisOutcome {
        let k = objectives.len();
        ParmisOutcome {
            objectives,
            front: ParetoFront::new(k),
            history: Vec::new(),
            phv_history: Vec::new(),
            reference_point: vec![0.05; k],
            converged_at: None,
            trace_hashes: Vec::new(),
            stop_reason: StopReason::BudgetExhausted,
        }
    }

    /// Final Pareto hypervolume: the last entry of the trajectory, or `0.0` for an empty
    /// run (an empty history has an empty `phv_history` and a finite margin-only
    /// reference point, so this is the exact hypervolume of the empty archive, not a
    /// sentinel).
    pub fn final_phv(&self) -> f64 {
        self.phv_history.last().copied().unwrap_or(0.0)
    }

    /// Objective vectors of the final front converted to the natural reporting scale
    /// (maximized objectives un-negated).
    pub fn reporting_front(&self) -> Vec<Vec<f64>> {
        self.front
            .objective_values()
            .iter()
            .map(|v| crate::objective::reporting_vector(&self.objectives, v))
            .collect()
    }
}

/// Result of one run segment ([`Parmis::segment`]): either the search finished, or it
/// suspended at an iteration boundary — because the segment's fuel expired, or because a
/// cancellation (deadline, stall, signal, explicit request) was observed.
#[derive(Debug, Clone)]
pub enum SearchStep {
    /// The search ran to completion (budget exhausted or converged).
    Completed(Box<ParmisOutcome>),
    /// The segment suspended; the state can be serialized ([`SearchState::to_json`]) and
    /// later handed back to [`Parmis::segment`] to continue bit-identically, regardless of
    /// which `reason` ([`StopReason::FuelExhausted`] or [`StopReason::Cancelled`])
    /// suspended it.
    Suspended {
        /// The resumable mid-search state, captured at the iteration boundary.
        state: Box<SearchState>,
        /// Why the segment suspended.
        reason: StopReason,
    },
}

impl SearchStep {
    /// `true` if this segment suspended (fuel exhaustion or cancellation).
    pub fn is_suspended(&self) -> bool {
        matches!(self, SearchStep::Suspended { .. })
    }

    /// Why this segment stopped: the outcome's recorded reason if it completed, the
    /// suspension reason otherwise.
    pub fn stop_reason(&self) -> StopReason {
        match self {
            SearchStep::Completed(outcome) => outcome.stop_reason,
            SearchStep::Suspended { reason, .. } => *reason,
        }
    }

    /// The completed outcome, if the search finished.
    pub fn into_completed(self) -> Option<ParmisOutcome> {
        match self {
            SearchStep::Completed(outcome) => Some(*outcome),
            SearchStep::Suspended { .. } => None,
        }
    }

    /// The suspended state, if the segment suspended.
    pub fn into_suspended(self) -> Option<SearchState> {
        match self {
            SearchStep::Completed(_) => None,
            SearchStep::Suspended { state, .. } => Some(*state),
        }
    }
}

/// The PaRMIS search driver.
#[derive(Debug, Clone)]
pub struct Parmis {
    config: ParmisConfig,
    cancel: CancelToken,
}

impl Parmis {
    /// Creates a driver with the given configuration (and no cancellation wiring: the
    /// search only stops on budget, convergence, or a segment's fuel).
    pub fn new(config: ParmisConfig) -> Self {
        Parmis {
            config,
            cancel: CancelToken::never(),
        }
    }

    /// Wires a cancellation token into the driver: the search checks it at every
    /// iteration boundary and suspends with [`StopReason::Cancelled`] once it trips, and
    /// beats its heartbeat as rounds complete. A wall-clock budget is a token too:
    /// [`CancelSource::with_deadline`](crate::cancel::CancelSource::with_deadline) suspends
    /// with [`CancelReason::Deadline`]. Evaluators carry their own token wiring
    /// (e.g. [`crate::evaluation::EvaluatorBuilder::cancel_token`]) for the finer-grained
    /// mid-round checks.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &ParmisConfig {
        &self.config
    }

    /// Runs Algorithm 1 against `evaluator` to completion.
    ///
    /// Batches are evaluated through [`PolicyEvaluator::evaluate_batch`]; hand in a
    /// [`ParallelEvaluator`](crate::evaluation::ParallelEvaluator) (or call
    /// [`run_parallel`](Self::run_parallel)) to spread each batch across worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::InvalidConfig`] for inconsistent configurations,
    /// [`ParmisError::Cancelled`] when the search's cancel token trips (use
    /// [`segment`](Self::segment) to keep the suspended state), and propagates
    /// evaluation/model failures.
    pub fn run(&self, evaluator: &dyn PolicyEvaluator) -> Result<ParmisOutcome> {
        match self.segment(evaluator, None, 0, 0, &mut |_| Ok(()))? {
            SearchStep::Completed(outcome) => Ok(*outcome),
            SearchStep::Suspended { reason, .. } => match reason {
                StopReason::Cancelled(reason) => Err(ParmisError::cancelled(reason)),
                other => unreachable!("an unfueled segment cannot suspend with {other}"),
            },
        }
    }

    /// Runs Algorithm 1 with batches sharded across [`ParmisConfig::num_workers`] threads.
    ///
    /// This is `run(&ParallelEvaluator::new(evaluator, config.num_workers))` spelled as a
    /// convenience; the outcome is bit-identical to [`run`](Self::run) for any worker count.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_parallel<E: PolicyEvaluator + Sync>(&self, evaluator: &E) -> Result<ParmisOutcome> {
        let parallel =
            crate::evaluation::ParallelEvaluator::new(evaluator, self.config.num_workers);
        self.run(&parallel)
    }

    /// Runs one segment of the search: a fresh run (`resume_from == None`) or the
    /// continuation of a suspended one, bounded by `fuel` evaluations.
    ///
    /// The segment completes, or suspends cleanly at an iteration boundary with a
    /// serializable [`SearchState`] — once `fuel` evaluations have been performed this
    /// segment (`0` = unbounded), or once the search's cancel token trips. The initial
    /// random design always completes atomically (and counts toward the fuel), so every
    /// captured state is resumable. After every round that crosses `checkpoint_every`
    /// evaluations since the last checkpoint (`0` = never), `on_checkpoint` receives a
    /// fresh state: a durability sink, so a crash loses at most one cadence window. A sink
    /// error aborts the segment.
    ///
    /// A resumed segment restores the observation history, Pareto archive, RNG cursor and
    /// convergence counters, rebuilds the GP cache by replaying the recorded
    /// model-fitting call sequence, and re-verifies the per-iteration trace-hash chain
    /// before any new evaluation happens. Fuel, cadence and cancellation only decide
    /// *when* a segment stops, never what it computes: any segmentation of a search
    /// yields the uninterrupted trajectory bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] if `resume_from` fails integrity verification or
    /// is incompatible with this configuration/evaluator, whatever `on_checkpoint`
    /// returns, plus everything [`run`](Self::run) can return except cancellation (which
    /// suspends).
    pub fn segment(
        &self,
        evaluator: &dyn PolicyEvaluator,
        resume_from: Option<SearchState>,
        fuel: usize,
        checkpoint_every: usize,
        on_checkpoint: &mut dyn FnMut(&SearchState) -> Result<()>,
    ) -> Result<SearchStep> {
        self.validate(evaluator)?;
        let cfg = &self.config;
        let dim = evaluator.parameter_dim();
        let bound = evaluator.parameter_bound();
        let objectives = evaluator.objectives().to_vec();
        let k = objectives.len();

        let mut converged_at = None;
        // One fitted GP per objective, carried across iterations: on non-hyperopt rounds the
        // models are advanced incrementally (rank-one Cholesky extension + target swap)
        // instead of being refit from scratch.
        let mut model_cache: Option<Vec<GaussianProcess>> = None;
        // One acquisition scratch for the whole run: the flat NSGA-II engine, RFF weight
        // buffers and batched output column warm up on the first Pareto-front sample and
        // are reused by every later iteration instead of rebuilding solver state.
        let mut acquisition_scratch = AcquisitionScratch::default();
        // Fuel/cadence accounting is per segment: a resumed run gets a fresh budget.
        let mut segment_evaluations = 0usize;
        let mut evals_since_checkpoint = 0usize;

        let (
            mut rng,
            mut history,
            mut front,
            mut stale_iterations,
            mut trace_hashes,
            mut round_starts,
        );
        match resume_from {
            None => {
                rng = StdRng::seed_from_u64(cfg.seed);
                history = Vec::with_capacity(cfg.max_iterations);
                front = ParetoFront::new(k);
                stale_iterations = 0usize;
                trace_hashes = Vec::with_capacity(cfg.max_iterations);
                round_starts = Vec::new();

                // --- Initial design (Algorithm 1, line 1) -----------------------------------
                // The candidate parameters are drawn from a single sequential stream
                // (independent of batch size and worker count) and then evaluated as one
                // batch. This is the only place the main RNG is consumed, so its cursor is
                // constant from here on — one stored state word set covers the whole chain.
                let initial = cfg.initial_samples.min(cfg.max_iterations).max(2);
                let initial_thetas: Vec<Vec<f64>> = (0..initial)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-bound..bound)).collect())
                    .collect();
                let initial_values = evaluator.evaluate_batch(&initial_thetas)?;
                let rng_words = rng.state();
                for (i, (theta, objectives_value)) in
                    initial_thetas.into_iter().zip(initial_values).enumerate()
                {
                    self.check_objective_vector(&objectives_value, k)?;
                    front.insert(objectives_value.clone(), theta.clone());
                    let record = IterationRecord {
                        iteration: i,
                        theta,
                        objectives: objectives_value,
                        acquisition_value: None,
                    };
                    let prev = trace_hashes
                        .last()
                        .copied()
                        .unwrap_or(checkpoint::TRACE_HASH_SEED);
                    trace_hashes.push(checkpoint::record_hash(prev, &record, &rng_words));
                    history.push(record);
                }
                segment_evaluations += initial;
                evals_since_checkpoint += initial;
            }
            Some(state) => {
                // Integrity + compatibility verification (format version, digests, hash
                // chain, front snapshot) happens before a single evaluation is spent.
                front = state.verify_for(cfg, &objectives)?;
                rng = StdRng::from_state(state.rng_words()?);
                stale_iterations = state.stale_iterations;
                history = state.history;
                trace_hashes = state.trace_hashes;
                round_starts = state.round_starts;
                // Rebuild the GP cache exactly as the uninterrupted run would have left it
                // by replaying the recorded model-fitting call sequence.
                model_cache = self.replay_model_cache(&history, &round_starts, k, dim, bound)?;
            }
        }

        // --- Model-guided iterations (Algorithm 1, lines 2-8), q candidates per round ------
        // Every stochastic choice below is seeded from (cfg.seed, iteration), and candidate
        // slots within a round are merged in order, so the full trajectory is a pure function
        // of the configuration — independent of batch evaluation scheduling, worker count,
        // and suspend/resume segmentation.
        let rng_words = rng.state();
        let mut iteration = history.len();
        'rounds: while iteration < cfg.max_iterations {
            // Fuel / cancellation checks at the round boundary: suspend with a resumable
            // state instead of starting a round that should not (or cannot) be paid for.
            // The checks only gate *whether* the next round starts — the state captured is
            // exactly the round-boundary state an uninterrupted run passes through, so
            // resuming from it is bit-identical.
            let suspend_reason = if let Some(reason) = self.cancel.cancelled() {
                Some(StopReason::Cancelled(reason))
            } else if fuel > 0 && segment_evaluations >= fuel {
                Some(StopReason::FuelExhausted)
            } else {
                None
            };
            if let Some(reason) = suspend_reason {
                return Ok(SearchStep::Suspended {
                    state: Box::new(self.snapshot(
                        &objectives,
                        &history,
                        &front,
                        stale_iterations,
                        &rng,
                        &trace_hashes,
                        &round_starts,
                    )),
                    reason,
                });
            }
            let q = cfg.batch_size.min(cfg.max_iterations - iteration).max(1);

            // Line 3: learn statistical models from the aggregate training data.
            let xs: Vec<Vec<f64>> = history.iter().map(|r| r.theta.clone()).collect();
            round_starts.push(iteration);
            self.fit_models(&xs, &history, k, dim, bound, iteration, &mut model_cache)?;
            let models = model_cache.as_deref().expect("fit_models fills the cache");

            // Line 4 (part 1): sample Pareto fronts of the model.
            let sampler = ParetoFrontSampler::new_with_precision(
                models,
                bound,
                cfg.sampling.clone(),
                cfg.seed ^ (iteration as u64).wrapping_mul(0x9e3779b97f4a7c15),
                cfg.precision,
            )?;
            let samples = sampler.sample_many_with(
                &mut acquisition_scratch,
                cfg.num_pareto_samples,
                cfg.seed ^ (iteration as u64) << 8,
            )?;

            // Line 4 (part 2): take the top-q information-gain candidates instead of the
            // argmax.
            let incumbents: Vec<Vec<f64>> = front.tags().into_iter().cloned().collect();
            let optimizer = AcquisitionOptimizer::new(dim, bound, cfg.acquisition.clone());
            let selected = optimizer.maximize_batch(
                models,
                &samples,
                &incumbents,
                q,
                cfg.seed ^ (iteration as u64).wrapping_mul(0xB5297A4D),
            )?;

            // Line 5: evaluate the selected policies on the platform as one batch.
            let thetas: Vec<Vec<f64>> = selected.iter().map(|(theta, _)| theta.clone()).collect();
            let values = evaluator.evaluate_batch(&thetas)?;

            // Line 6: aggregate training data slot by slot; track whether the front improved.
            let evaluated = selected.len();
            for (slot, ((theta, acq_value), objectives_value)) in
                selected.into_iter().zip(values).enumerate()
            {
                self.check_objective_vector(&objectives_value, k)?;
                let improved = front.insert(objectives_value.clone(), theta.clone());
                let record = IterationRecord {
                    iteration: iteration + slot,
                    theta,
                    objectives: objectives_value,
                    acquisition_value: Some(acq_value),
                };
                let prev = trace_hashes
                    .last()
                    .copied()
                    .unwrap_or(checkpoint::TRACE_HASH_SEED);
                trace_hashes.push(checkpoint::record_hash(prev, &record, &rng_words));
                history.push(record);

                if improved {
                    stale_iterations = 0;
                } else {
                    stale_iterations += 1;
                }
                if cfg.convergence_window > 0 && stale_iterations >= cfg.convergence_window {
                    converged_at = Some(iteration + slot);
                    break 'rounds;
                }
            }
            iteration += evaluated;
            segment_evaluations += evaluated;
            evals_since_checkpoint += evaluated;
            // One heartbeat per completed round: the supervisor's stall monitor watches
            // this counter move (evaluators additionally beat per batch slot).
            self.cancel.beat();

            // Cadence checkpoint: hand a durable snapshot to the sink at the round
            // boundary (never after the final round — that segment returns an outcome).
            if checkpoint_every > 0
                && evals_since_checkpoint >= checkpoint_every
                && iteration < cfg.max_iterations
            {
                on_checkpoint(&self.snapshot(
                    &objectives,
                    &history,
                    &front,
                    stale_iterations,
                    &rng,
                    &trace_hashes,
                    &round_starts,
                ))?;
                evals_since_checkpoint = 0;
            }
        }

        Ok(SearchStep::Completed(Box::new(build_outcome(
            objectives,
            front,
            history,
            trace_hashes,
            converged_at,
        ))))
    }

    /// Captures the running search as a [`SearchState`] (round-boundary invariant: the
    /// history, archive, hash chain and round structure are all mutually consistent here).
    #[allow(clippy::too_many_arguments)]
    fn snapshot(
        &self,
        objectives: &[Objective],
        history: &[IterationRecord],
        front: &ParetoFront<Vec<f64>>,
        stale_iterations: usize,
        rng: &StdRng,
        trace_hashes: &[u64],
        round_starts: &[usize],
    ) -> SearchState {
        let k = objectives.len();
        let reference = phv_reference(history, k);
        let phv_trace = phv_trajectory(history, &reference, k);
        SearchState::capture(
            &self.config,
            objectives,
            history,
            front,
            stale_iterations,
            rng.state(),
            trace_hashes,
            round_starts,
            phv_trace,
        )
    }

    /// Rebuilds the GP model cache a resumed segment starts from, bit-identically to the
    /// cache the uninterrupted run would be carrying.
    ///
    /// The cache at iteration `n` is the result of a *sequence* of [`fit_models`] calls —
    /// a hyperopt refit at the last refit boundary followed by one incremental extension
    /// per later round. Replaying that exact call sequence (recorded in `round_starts`)
    /// reproduces the cache including its incremental Cholesky extensions; fitting from
    /// scratch on the full history would produce subtly different factors and break
    /// bit-identity. When the next round will refit anyway, the cache contents are
    /// irrelevant and the replay is skipped.
    fn replay_model_cache(
        &self,
        history: &[IterationRecord],
        round_starts: &[usize],
        k: usize,
        dim: usize,
        bound: f64,
    ) -> Result<Option<Vec<GaussianProcess>>> {
        let cfg = &self.config;
        let next_iteration = history.len();
        if round_starts.is_empty() {
            return Ok(None);
        }
        if next_iteration.saturating_sub(cfg.initial_samples) % cfg.refit_hyperparameters_every == 0
        {
            return Ok(None);
        }
        // The first recorded round always refit (the cache was empty); later boundaries
        // refit on the hyperopt cadence.
        let mut last_refit = round_starts[0];
        for &boundary in &round_starts[1..] {
            if boundary.saturating_sub(cfg.initial_samples) % cfg.refit_hyperparameters_every == 0 {
                last_refit = boundary;
            }
        }
        let mut cache = None;
        for &boundary in round_starts.iter().filter(|&&b| b >= last_refit) {
            let xs: Vec<Vec<f64>> = history[..boundary]
                .iter()
                .map(|r| r.theta.clone())
                .collect();
            self.fit_models(
                &xs,
                &history[..boundary],
                k,
                dim,
                bound,
                boundary,
                &mut cache,
            )?;
        }
        Ok(cache)
    }

    fn validate(&self, evaluator: &dyn PolicyEvaluator) -> Result<()> {
        let cfg = &self.config;
        if cfg.max_iterations < 3 {
            return Err(ParmisError::InvalidConfig {
                reason: "max_iterations must be at least 3".into(),
            });
        }
        if cfg.num_pareto_samples == 0 {
            return Err(ParmisError::InvalidConfig {
                reason: "num_pareto_samples must be positive".into(),
            });
        }
        if cfg.batch_size == 0 {
            return Err(ParmisError::InvalidConfig {
                reason: "batch_size must be positive".into(),
            });
        }
        if cfg.acquisition.random_candidates == 0 {
            return Err(ParmisError::InvalidConfig {
                reason: "the acquisition optimizer needs at least one random candidate".into(),
            });
        }
        if cfg.refit_hyperparameters_every == 0 {
            return Err(ParmisError::InvalidConfig {
                reason: "refit_hyperparameters_every must be positive (1 refits every round)"
                    .into(),
            });
        }
        if evaluator.objectives().len() < 2 {
            return Err(ParmisError::InvalidConfig {
                reason: "PaRMIS needs at least two objectives to trade off".into(),
            });
        }
        if evaluator.parameter_dim() == 0 {
            return Err(ParmisError::InvalidConfig {
                reason: "the policy parameter space must have positive dimension".into(),
            });
        }
        let bound = evaluator.parameter_bound();
        if !(bound.is_finite() && bound > 0.0) {
            return Err(ParmisError::InvalidConfig {
                reason: format!(
                    "the parameter bound must be a positive finite number, got {bound}"
                ),
            });
        }
        Ok(())
    }

    fn check_objective_vector(&self, v: &[f64], k: usize) -> Result<()> {
        if v.len() != k || v.iter().any(|x| !x.is_finite()) {
            return Err(ParmisError::Evaluation {
                reason: format!("evaluator returned an invalid objective vector {v:?}"),
            });
        }
        Ok(())
    }

    /// Fits one GP per objective on standardized targets, leaving the result in `cache`.
    ///
    /// Kernel hyperparameters are selected by marginal likelihood every
    /// `refit_hyperparameters_every` iterations. In between, the cached models are advanced
    /// **incrementally**: the kernel matrix grows by one rank-one Cholesky extension per new
    /// evaluation (`O(n²)` instead of the `O(n³)` from-scratch refit) and the freshly
    /// re-standardized targets are swapped in with two triangular solves
    /// ([`GaussianProcess::with_observations_and_targets`]) — the kernel matrix does not
    /// depend on the targets, so re-standardization never forces a refactorization.
    #[allow(clippy::too_many_arguments)]
    fn fit_models(
        &self,
        xs: &[Vec<f64>],
        history: &[IterationRecord],
        k: usize,
        dim: usize,
        bound: f64,
        iteration: usize,
        cache: &mut Option<Vec<GaussianProcess>>,
    ) -> Result<()> {
        let cfg = &self.config;
        let refit = cache.is_none()
            || (iteration.saturating_sub(cfg.initial_samples)) % cfg.refit_hyperparameters_every
                == 0;
        let previous = cache.take();
        let mut models = Vec::with_capacity(k);

        for j in 0..k {
            let raw: Vec<f64> = history.iter().map(|r| r.objectives[j]).collect();
            let mean = linalg::vector::mean(&raw);
            let std = linalg::vector::std_dev(&raw).max(1e-9);
            let ys: Vec<f64> = raw.iter().map(|y| (y - mean) / std).collect();

            if refit {
                let config = HyperoptConfig {
                    family: cfg.kernel_family,
                    lengthscales: lengthscale_grid(dim, bound),
                    signal_variances: vec![0.5, 1.0, 2.0],
                    noise_variances: vec![1e-4, 1e-2],
                    refinement_passes: 1,
                };
                let fitted = fit_with_hyperopt(xs.to_vec(), ys, &config)?;
                models.push(fitted.model);
            } else {
                let prev = &previous.as_ref().expect("cache present when not refitting")[j];
                let n_prev = prev.len();
                debug_assert!(n_prev <= xs.len(), "history only ever grows within a run");
                // One call extends the factor by the new evaluations AND installs the
                // re-standardized targets for every point, with a single pair of solves.
                let incremental = prev.with_observations_and_targets(&xs[n_prev..], ys.clone());
                let model = match incremental {
                    Ok(model) => model,
                    // Extremely degenerate geometry can defeat even the jittered fallback
                    // inside the incremental path; refit from scratch with the cached
                    // hyperparameters rather than abort the search.
                    Err(_) => GaussianProcess::fit(
                        xs.to_vec(),
                        ys,
                        prev.kernel().clone(),
                        prev.noise_variance(),
                    )?,
                };
                models.push(model);
            }
        }
        *cache = Some(models);
        Ok(())
    }
}

/// Lengthscale candidates scaled to the expected pairwise distance of uniform points in the
/// box `[-bound, bound]^dim`.
fn lengthscale_grid(dim: usize, bound: f64) -> Vec<f64> {
    let typical_distance = bound * (2.0 * dim as f64 / 3.0).sqrt();
    [0.25, 0.5, 1.0, 2.0]
        .iter()
        .map(|f| f * typical_distance)
        .collect()
}

/// Builds the final outcome of a completed run (PHV trajectory against the full-history
/// reference point). Fresh and resumed segments share this, so resume bit-identity extends
/// to the post-processed fields.
fn build_outcome(
    objectives: Vec<Objective>,
    front: ParetoFront<Vec<f64>>,
    history: Vec<IterationRecord>,
    trace_hashes: Vec<u64>,
    converged_at: Option<usize>,
) -> ParmisOutcome {
    let k = objectives.len();
    let reference_point = phv_reference(&history, k);
    let phv_history = phv_trajectory(&history, &reference_point, k);
    let stop_reason = if converged_at.is_some() {
        StopReason::Converged
    } else {
        StopReason::BudgetExhausted
    };
    ParmisOutcome {
        objectives,
        front,
        history,
        phv_history,
        reference_point,
        converged_at,
        trace_hashes,
        stop_reason,
    }
}

/// Reference point: component-wise worst observed value plus a 5 % margin. An empty
/// history gets the all-margin point (no `NEG_INFINITY` leaking into PHV math).
fn phv_reference(history: &[IterationRecord], k: usize) -> Vec<f64> {
    if history.is_empty() {
        return vec![0.05; k];
    }
    let mut worst = vec![f64::NEG_INFINITY; k];
    for r in history {
        for (w, v) in worst.iter_mut().zip(&r.objectives) {
            *w = w.max(*v);
        }
    }
    worst
        .into_iter()
        .map(|w| {
            if w.abs() < f64::EPSILON {
                0.05
            } else {
                w + w.abs() * 0.05
            }
        })
        .collect()
}

/// PHV of the archive formed by the first `i` evaluations, for every `i`.
fn phv_trajectory(history: &[IterationRecord], reference: &[f64], k: usize) -> Vec<f64> {
    let mut front: ParetoFront<()> = ParetoFront::new(k);
    let mut out = Vec::with_capacity(history.len());
    for r in history {
        front.insert(r.objectives.clone(), ());
        out.push(hypervolume(front.objective_values(), reference));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;

    /// A cheap synthetic evaluator over a 3-D parameter space with a known trade-off, so the
    /// full PaRMIS loop can be tested without the SoC simulator.
    struct SyntheticEvaluator {
        objectives: Vec<Objective>,
    }

    impl SyntheticEvaluator {
        fn new() -> Self {
            SyntheticEvaluator {
                objectives: vec![Objective::ExecutionTime, Objective::Energy],
            }
        }
    }

    impl PolicyEvaluator for SyntheticEvaluator {
        fn parameter_dim(&self) -> usize {
            3
        }

        fn parameter_bound(&self) -> f64 {
            2.0
        }

        fn objectives(&self) -> &[Objective] {
            &self.objectives
        }

        fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
            // Schaffer-like: o1 = (t0)^2 + small terms, o2 = (t0 - 1)^2 + small terms.
            let o1 = theta[0].powi(2) + 0.05 * theta[1].powi(2) + 0.05 * theta[2].powi(2) + 1.0;
            let o2 =
                (theta[0] - 1.0).powi(2) + 0.05 * theta[1].powi(2) + 0.05 * theta[2].powi(2) + 1.0;
            Ok(vec![o1, o2])
        }
    }

    fn quick_config(iterations: usize) -> ParmisConfig {
        ParmisConfig {
            max_iterations: iterations,
            initial_samples: 6,
            num_pareto_samples: 1,
            sampling: ParetoSamplingConfig {
                rff_features: 60,
                nsga_population: 16,
                nsga_generations: 8,
            },
            acquisition: AcquisitionOptimizerConfig {
                random_candidates: 24,
                local_candidates: 8,
                local_perturbation: 0.2,
            },
            refit_hyperparameters_every: 10,
            ..Default::default()
        }
    }

    #[test]
    fn configuration_validation() {
        let evaluator = SyntheticEvaluator::new();
        let bad = ParmisConfig {
            max_iterations: 1,
            ..quick_config(10)
        };
        assert!(matches!(
            Parmis::new(bad).run(&evaluator),
            Err(ParmisError::InvalidConfig { .. })
        ));
        let bad = ParmisConfig {
            num_pareto_samples: 0,
            ..quick_config(10)
        };
        assert!(Parmis::new(bad).run(&evaluator).is_err());

        struct OneObjective;
        impl PolicyEvaluator for OneObjective {
            fn parameter_dim(&self) -> usize {
                2
            }
            fn objectives(&self) -> &[Objective] {
                &[Objective::Energy]
            }
            fn evaluate(&self, _: &[f64]) -> Result<Vec<f64>> {
                Ok(vec![1.0])
            }
        }
        assert!(Parmis::new(quick_config(10)).run(&OneObjective).is_err());
    }

    #[test]
    fn search_improves_over_the_initial_random_design() {
        let evaluator = SyntheticEvaluator::new();
        let outcome = Parmis::new(quick_config(24)).run(&evaluator).unwrap();
        assert_eq!(outcome.history.len(), 24);
        assert!(!outcome.front.is_empty());
        // PHV is non-decreasing and improved after the initial design.
        let initial_phv = outcome.phv_history[5];
        let final_phv = outcome.final_phv();
        assert!(final_phv >= initial_phv);
        assert!(
            final_phv > initial_phv * 1.001 || final_phv > 0.0,
            "search should improve PHV ({initial_phv} -> {final_phv})"
        );
        for pair in outcome.phv_history.windows(2) {
            assert!(
                pair[1] + 1e-12 >= pair[0],
                "PHV trajectory must be monotone"
            );
        }
    }

    #[test]
    fn model_guided_iterations_record_acquisition_values() {
        let evaluator = SyntheticEvaluator::new();
        let outcome = Parmis::new(quick_config(16)).run(&evaluator).unwrap();
        for (i, r) in outcome.history.iter().enumerate() {
            assert_eq!(r.iteration, i);
            assert_eq!(r.objectives.len(), 2);
            if i < 6 {
                assert!(r.acquisition_value.is_none());
            } else {
                assert!(r.acquisition_value.is_some());
                assert!(r.acquisition_value.unwrap().is_finite());
            }
        }
    }

    #[test]
    fn front_points_are_close_to_the_true_pareto_set() {
        // True Pareto set of the synthetic problem: theta0 in [0, 1], theta1 = theta2 = 0.
        let evaluator = SyntheticEvaluator::new();
        let outcome = Parmis::new(quick_config(40)).run(&evaluator).unwrap();
        let mut near_optimal = 0;
        for entry in outcome.front.iter() {
            let t = &entry.tag;
            if t[0] > -0.4 && t[0] < 1.4 && t[1].abs() < 1.2 && t[2].abs() < 1.2 {
                near_optimal += 1;
            }
        }
        assert!(
            near_optimal as f64 / outcome.front.len() as f64 > 0.5,
            "most front policies should be near the true Pareto set ({near_optimal}/{})",
            outcome.front.len()
        );
    }

    #[test]
    fn early_stopping_fires_when_the_front_stalls() {
        let evaluator = SyntheticEvaluator::new();
        let config = ParmisConfig {
            convergence_window: 3,
            ..quick_config(60)
        };
        let outcome = Parmis::new(config).run(&evaluator).unwrap();
        if let Some(at) = outcome.converged_at {
            assert!(outcome.history.len() <= at + 1);
            assert!(outcome.history.len() < 60);
        }
    }

    #[test]
    fn runs_are_reproducible_for_identical_seeds() {
        let evaluator = SyntheticEvaluator::new();
        let a = Parmis::new(quick_config(14)).run(&evaluator).unwrap();
        let b = Parmis::new(quick_config(14)).run(&evaluator).unwrap();
        assert_eq!(a.history.len(), b.history.len());
        for (ra, rb) in a.history.iter().zip(&b.history) {
            assert_eq!(ra.theta, rb.theta);
            assert_eq!(ra.objectives, rb.objectives);
        }
        let mut config = quick_config(14);
        config.seed = 999;
        let c = Parmis::new(config).run(&evaluator).unwrap();
        assert_ne!(a.history[7].theta, c.history[7].theta);
    }

    #[test]
    fn batched_search_fills_the_budget_with_sequential_records() {
        let evaluator = SyntheticEvaluator::new();
        let config = ParmisConfig {
            batch_size: 3,
            ..quick_config(17)
        };
        let outcome = Parmis::new(config).run(&evaluator).unwrap();
        // 6 initial + rounds of 3 capped at the budget: every slot gets its own record.
        assert_eq!(outcome.history.len(), 17);
        for (i, r) in outcome.history.iter().enumerate() {
            assert_eq!(r.iteration, i);
            if i >= 6 {
                assert!(r.acquisition_value.is_some());
            }
        }
        // Within a round the selection is sorted best-first.
        for round in outcome.history[6..15].chunks(3) {
            let values: Vec<f64> = round.iter().map(|r| r.acquisition_value.unwrap()).collect();
            assert!(values[0] >= values[1] && values[1] >= values[2]);
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial_for_any_worker_count() {
        let evaluator = SyntheticEvaluator::new();
        let config = ParmisConfig {
            batch_size: 4,
            ..quick_config(18)
        };
        let serial = Parmis::new(config.clone()).run(&evaluator).unwrap();
        for workers in [1, 2, 4] {
            let parallel = Parmis::new(ParmisConfig {
                num_workers: workers,
                ..config.clone()
            })
            .run_parallel(&evaluator)
            .unwrap();
            assert_eq!(
                parallel.phv_history, serial.phv_history,
                "workers = {workers}"
            );
            assert_eq!(parallel.history.len(), serial.history.len());
            for (a, b) in parallel.history.iter().zip(&serial.history) {
                assert_eq!(a.theta, b.theta);
                assert_eq!(a.objectives, b.objectives);
                assert_eq!(a.acquisition_value, b.acquisition_value);
            }
            assert_eq!(
                parallel.front.objective_values(),
                serial.front.objective_values()
            );
        }
    }

    #[test]
    fn invalid_batch_configuration_is_rejected() {
        let evaluator = SyntheticEvaluator::new();
        let bad = ParmisConfig {
            batch_size: 0,
            ..quick_config(10)
        };
        assert!(matches!(
            Parmis::new(bad).run(&evaluator),
            Err(ParmisError::InvalidConfig { .. })
        ));
        let bad = ParmisConfig {
            acquisition: AcquisitionOptimizerConfig {
                random_candidates: 0,
                local_candidates: 0,
                local_perturbation: 0.1,
            },
            ..quick_config(10)
        };
        assert!(Parmis::new(bad).run(&evaluator).is_err());
    }

    #[test]
    fn reporting_front_unnegates_maximized_objectives() {
        struct PpwEvaluator {
            objectives: Vec<Objective>,
        }
        impl PolicyEvaluator for PpwEvaluator {
            fn parameter_dim(&self) -> usize {
                2
            }
            fn parameter_bound(&self) -> f64 {
                1.0
            }
            fn objectives(&self) -> &[Objective] {
                &self.objectives
            }
            fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
                Ok(vec![theta[0].abs() + 1.0, -(2.0 - theta[0].abs())])
            }
        }
        let evaluator = PpwEvaluator {
            objectives: vec![Objective::ExecutionTime, Objective::PerformancePerWatt],
        };
        let outcome = Parmis::new(quick_config(10)).run(&evaluator).unwrap();
        for v in outcome.reporting_front() {
            assert!(v[1] > 0.0, "reported PPW must be positive, got {}", v[1]);
        }
    }

    #[test]
    fn lengthscale_grid_scales_with_dimension() {
        let small = lengthscale_grid(3, 3.0);
        let large = lengthscale_grid(300, 3.0);
        assert!(large[0] > small[0] * 5.0);
        assert_eq!(small.len(), 4);
    }

    #[test]
    fn completed_outcomes_record_their_stop_reason() {
        let evaluator = SyntheticEvaluator::new();
        let outcome = Parmis::new(quick_config(12)).run(&evaluator).unwrap();
        assert_eq!(outcome.stop_reason, StopReason::BudgetExhausted);

        let converging = ParmisConfig {
            convergence_window: 2,
            ..quick_config(60)
        };
        let outcome = Parmis::new(converging).run(&evaluator).unwrap();
        if outcome.converged_at.is_some() {
            assert_eq!(outcome.stop_reason, StopReason::Converged);
        }
    }

    #[test]
    fn cancelled_token_suspends_at_the_next_round_boundary() {
        use crate::cancel::{CancelReason, CancelSource};
        let evaluator = SyntheticEvaluator::new();
        let source = CancelSource::new();
        source.cancel(CancelReason::User);
        let step = Parmis::new(quick_config(20))
            .with_cancel_token(source.token())
            .segment(&evaluator, None, 0, 0, &mut |_| Ok(()))
            .unwrap();
        match &step {
            SearchStep::Suspended { state, reason } => {
                assert_eq!(*reason, StopReason::Cancelled(CancelReason::User));
                // The initial design completes atomically before the first boundary check.
                assert_eq!(state.evaluations(), 6);
            }
            SearchStep::Completed(_) => panic!("a cancelled search must suspend"),
        }
    }

    #[test]
    fn cancel_and_resume_is_bit_identical_to_uninterrupted() {
        use crate::cancel::{CancelReason, CancelSource};
        let evaluator = SyntheticEvaluator::new();
        let uninterrupted = Parmis::new(quick_config(14)).run(&evaluator).unwrap();

        let source = CancelSource::new();
        source.cancel(CancelReason::Stall);
        let state = Parmis::new(quick_config(14))
            .with_cancel_token(source.token())
            .segment(&evaluator, None, 0, 0, &mut |_| Ok(()))
            .unwrap()
            .into_suspended()
            .expect("cancelled search suspends");
        let resumed = Parmis::new(quick_config(14))
            .segment(&evaluator, Some(state), 0, 0, &mut |_| Ok(()))
            .unwrap()
            .into_completed()
            .expect("resume with an untripped token completes");
        assert_eq!(uninterrupted.trace_hashes, resumed.trace_hashes);
        assert_eq!(uninterrupted.phv_history, resumed.phv_history);
        assert_eq!(resumed.stop_reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn expired_deadline_suspends_with_a_deadline_reason() {
        use crate::cancel::CancelSource;
        let evaluator = SyntheticEvaluator::new();
        // A zero budget has expired before the search starts, so the search suspends at
        // the first boundary after the (atomic) initial design.
        let deadline = CancelSource::with_deadline(std::time::Duration::ZERO);
        let search = Parmis::new(quick_config(40)).with_cancel_token(deadline.token());
        match search
            .segment(&evaluator, None, 0, 0, &mut |_| Ok(()))
            .unwrap()
        {
            SearchStep::Suspended { state, reason } => {
                assert_eq!(reason, StopReason::Cancelled(CancelReason::Deadline));
                assert_eq!(state.evaluations(), 6);
            }
            SearchStep::Completed(_) => panic!("an expired deadline must suspend"),
        }
        // `run` has no state to hand back, so it reports the cancellation as an error.
        let err = search.run(&evaluator).unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn stop_reason_names_and_display_are_stable() {
        assert_eq!(StopReason::BudgetExhausted.to_string(), "budget-exhausted");
        assert_eq!(StopReason::Converged.name(), "converged");
        assert_eq!(StopReason::FuelExhausted.to_string(), "fuel-exhausted");
        let cancelled = StopReason::Cancelled(CancelReason::Deadline);
        assert_eq!(cancelled.name(), "cancelled");
        assert_eq!(cancelled.to_string(), "cancelled [deadline]");
    }
}
