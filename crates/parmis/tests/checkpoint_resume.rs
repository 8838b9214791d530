//! Kill-and-resume equivalence suite: a search that is suspended by the fuel budget,
//! serialized to checkpoint JSON, deserialized and resumed — possibly across many
//! segments — must produce an outcome bit-identical to the uninterrupted run, with the
//! per-iteration trace-hash chain as the audit trail. The suite covers the synthetic
//! test problem across (seed × interrupt point), a registry scenario on the real SoC
//! evaluator, cadence checkpoints, a committed checkpoint fixture that pins the on-disk
//! format, paper-shape searches pinned by their final trace hashes (on both precision
//! tiers, and over several GP refit cycles), and the rejection paths for incompatible or
//! tampered states.

use parmis::acquisition::AcquisitionOptimizerConfig;
use parmis::cancel::{CancelReason, CancelSource};
use parmis::checkpoint::{config_digest, SearchState};
use parmis::evaluation::{PolicyEvaluator, SocEvaluator};
use parmis::framework::{Parmis, ParmisConfig, ParmisOutcome, SearchStep, StopReason};
use parmis::objective::Objective;
use parmis::pareto_sampling::ParetoSamplingConfig;
use parmis::prelude::Precision;
use parmis::{CheckpointFault, ParmisError, Result};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cheap synthetic evaluator (Schaffer-like trade-off over 3 parameters) so the full
/// suspend/resume machinery can be property-tested without the SoC simulator.
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
        let o1 = theta[0].powi(2) + 0.05 * theta[1].powi(2) + 0.05 * theta[2].powi(2) + 1.0;
        let o2 = (theta[0] - 1.0).powi(2) + 0.05 * theta[1].powi(2) + 0.05 * theta[2].powi(2) + 1.0;
        Ok(vec![o1, o2])
    }
}

fn tiny_config(seed: u64, max_iterations: usize) -> ParmisConfig {
    ParmisConfig {
        max_iterations,
        initial_samples: 5,
        num_pareto_samples: 1,
        sampling: ParetoSamplingConfig {
            rff_features: 40,
            nsga_population: 12,
            nsga_generations: 5,
        },
        acquisition: AcquisitionOptimizerConfig {
            random_candidates: 12,
            local_candidates: 4,
            local_perturbation: 0.2,
        },
        refit_hyperparameters_every: 4,
        batch_size: 2,
        seed,
        ..ParmisConfig::default()
    }
}

fn assert_outcomes_identical(a: &ParmisOutcome, b: &ParmisOutcome, label: &str) {
    assert_eq!(
        a.trace_hashes, b.trace_hashes,
        "{label}: trace hashes diverged"
    );
    assert_eq!(a.phv_history, b.phv_history, "{label}: PHV trace diverged");
    assert_eq!(
        a.reference_point, b.reference_point,
        "{label}: reference point diverged"
    );
    assert_eq!(
        a.converged_at, b.converged_at,
        "{label}: convergence diverged"
    );
    assert_eq!(
        a.history.len(),
        b.history.len(),
        "{label}: history length diverged"
    );
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(
            ra.theta, rb.theta,
            "{label}: θ diverged at {}",
            ra.iteration
        );
        assert_eq!(ra.objectives, rb.objectives, "{label}: objectives diverged");
        assert_eq!(
            ra.acquisition_value, rb.acquisition_value,
            "{label}: acquisition diverged"
        );
    }
    assert_eq!(
        a.front.objective_values(),
        b.front.objective_values(),
        "{label}: Pareto front diverged"
    );
    let tags =
        |o: &ParmisOutcome| -> Vec<Vec<f64>> { o.front.iter().map(|e| e.tag.clone()).collect() };
    assert_eq!(tags(a), tags(b), "{label}: front parameter tags diverged");
}

/// Runs one segment with no checkpoint sink.
fn segment(
    search: &Parmis,
    evaluator: &dyn PolicyEvaluator,
    resume_from: Option<SearchState>,
    fuel: usize,
) -> Result<SearchStep> {
    search.segment(evaluator, resume_from, fuel, 0, &mut |_| Ok(()))
}

/// Drives a fuel-bounded search to completion, forcing every suspended state through the
/// checkpoint JSON format before resuming it. Returns the outcome and the segment count.
fn run_segmented(
    config: &ParmisConfig,
    fuel: usize,
    evaluator: &dyn PolicyEvaluator,
) -> (ParmisOutcome, usize) {
    let search = Parmis::new(config.clone());
    let mut segments = 1;
    let mut step = segment(&search, evaluator, None, fuel).unwrap();
    while let SearchStep::Suspended { state, .. } = step {
        // The kill: nothing survives except the serialized checkpoint.
        let json = state.to_json().unwrap();
        let restored = SearchState::from_json(&json).unwrap();
        assert_eq!(
            *state, restored,
            "checkpoint JSON round trip must be lossless"
        );
        segments += 1;
        assert!(segments < 100, "resume loop failed to make progress");
        step = segment(&search, evaluator, Some(restored), fuel).unwrap();
    }
    (step.into_completed().unwrap(), segments)
}

/// The synthetic problem over its first two parameters, the third held at 0: the same
/// objectives over a policy with another parameter count.
struct TwoParameters(SyntheticEvaluator);

impl PolicyEvaluator for TwoParameters {
    fn parameter_dim(&self) -> usize {
        2
    }

    fn parameter_bound(&self) -> f64 {
        self.0.parameter_bound()
    }

    fn objectives(&self) -> &[Objective] {
        self.0.objectives()
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
        self.0.evaluate(&[theta[0], theta[1], 0.0])
    }
}

/// Wraps an evaluator so that the shared [`CancelSource`] trips (with
/// [`CancelReason::User`]) once `cancel_after` evaluations have been served — turning an
/// arbitrary evaluation index into the cancellation point for the next round boundary.
struct CancelAfter<E> {
    inner: E,
    served: AtomicUsize,
    cancel_after: usize,
    source: CancelSource,
}

impl<E: PolicyEvaluator> PolicyEvaluator for CancelAfter<E> {
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
        if self.served.fetch_add(1, Ordering::SeqCst) + 1 >= self.cancel_after {
            self.source.cancel(CancelReason::User);
        }
        self.inner.evaluate(theta)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Core resume equivalence property: for arbitrary seeds and arbitrary interrupt
    /// points (including mid-initial-design and fuel so small the search suspends after
    /// every round), the segmented run is bit-identical to the uninterrupted one.
    #[test]
    fn segmented_run_is_bit_identical_to_uninterrupted(
        seed in 0u64..1000,
        fuel in 1usize..9,
    ) {
        let evaluator = SyntheticEvaluator::new();
        let config = tiny_config(seed, 11);
        let uninterrupted = Parmis::new(config.clone()).run(&evaluator).unwrap();
        let (resumed, segments) = run_segmented(&config, fuel, &evaluator);
        prop_assert!(segments >= 2, "fuel {fuel} never suspended");
        assert_outcomes_identical(&uninterrupted, &resumed, &format!("fuel {fuel}"));
    }

    /// Cancellation equivalence property: cancelling at an arbitrary evaluation index
    /// suspends the search at the next iteration boundary with the cancellation reason,
    /// and resuming the serialized checkpoint (without the token) completes bit-identical
    /// to the uninterrupted run — cancellation decides when, never what.
    #[test]
    fn cancelled_run_resumes_bit_identically(
        seed in 0u64..1000,
        cancel_after in 1usize..12,
    ) {
        let config = tiny_config(seed, 11);
        let uninterrupted = Parmis::new(config.clone())
            .run(&SyntheticEvaluator::new())
            .unwrap();

        let source = CancelSource::new();
        let tripwire = CancelAfter {
            inner: SyntheticEvaluator::new(),
            served: AtomicUsize::new(0),
            cancel_after,
            source: source.clone(),
        };
        let cancellable = Parmis::new(config.clone()).with_cancel_token(source.token());
        let step = segment(&cancellable, &tripwire, None, 0).unwrap();
        let state = match step {
            SearchStep::Suspended { state, reason } => {
                prop_assert_eq!(reason, StopReason::Cancelled(CancelReason::User));
                // The token is read only at round boundaries: 5 initial evaluations, then
                // rounds of 2, and a round that has started always runs to its end.
                prop_assert_eq!(
                    state.evaluations(),
                    5 + 2 * cancel_after.saturating_sub(5).div_ceil(2)
                );
                state
            }
            SearchStep::Completed(_) => {
                // The trip point can land inside the very last round; then the search
                // finishes before any boundary observes the token. Nothing to resume.
                return;
            }
        };

        // The kill: only the checkpoint JSON survives; the resumer has no token.
        let restored = SearchState::from_json(&state.to_json().unwrap()).unwrap();
        let resumed = segment(&Parmis::new(config), &SyntheticEvaluator::new(), Some(restored), 0)
            .unwrap()
            .into_completed()
            .unwrap();
        assert_outcomes_identical(
            &uninterrupted,
            &resumed,
            &format!("cancel after {cancel_after}"),
        );
    }
}

/// The same equivalence on the real SoC evaluator for a registry scenario, across more
/// than one suspend/resume cycle.
#[test]
fn registry_scenario_resumes_bit_identically() {
    let scenario = soc_sim::scenario::registry().into_iter().next().unwrap();
    let evaluator = SocEvaluator::builder()
        .scenario(&scenario)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap();
    let config = tiny_config(91, 9);
    let uninterrupted = Parmis::new(config.clone()).run(&evaluator).unwrap();
    let (resumed, segments) = run_segmented(&config, 3, &evaluator);
    assert!(segments >= 2);
    assert_outcomes_identical(
        &uninterrupted,
        &resumed,
        &format!("scenario {}", scenario.name),
    );
}

/// Cadence checkpoints are valid resume points: every state handed to the sink passes
/// integrity verification, evaluation counts are strictly increasing, and resuming from
/// the last one completes identically to the uninterrupted run.
#[test]
fn cadence_checkpoints_are_valid_resume_points() {
    let evaluator = SyntheticEvaluator::new();
    let config = tiny_config(7, 11);
    let search = Parmis::new(config.clone());
    let mut checkpoints: Vec<SearchState> = Vec::new();
    let uninterrupted = search
        .segment(&evaluator, None, 0, 3, &mut |state| {
            checkpoints.push(state.clone());
            Ok(())
        })
        .unwrap()
        .into_completed()
        .unwrap();
    assert!(!checkpoints.is_empty(), "cadence sink never fired");
    let mut last_seen = 0;
    for state in &checkpoints {
        state.verify_integrity().unwrap();
        assert!(state.evaluations() > last_seen, "cadence must advance");
        last_seen = state.evaluations();
        assert!(state.evaluations() < config.max_iterations);
    }

    let restored = SearchState::from_json(&checkpoints.last().unwrap().to_json().unwrap()).unwrap();
    let finished = segment(&search, &evaluator, Some(restored), 0)
        .unwrap()
        .into_completed()
        .unwrap();
    assert_outcomes_identical(&uninterrupted, &finished, "resume from cadence checkpoint");

    // A sink error aborts the run instead of being swallowed.
    let err = search
        .segment(&evaluator, None, 0, 3, &mut |_| {
            Err(ParmisError::checkpoint(
                parmis::CheckpointFault::Io,
                "disk full",
            ))
        })
        .unwrap_err();
    assert!(matches!(err, ParmisError::Checkpoint { .. }), "{err}");
}

/// A suspended state is refused by incompatible resumers: a configuration whose
/// trajectory-affecting fields differ, an evaluator with different objectives, or one
/// whose policy has another parameter count. All are structured
/// [`ParmisError::Checkpoint`] failures raised before any replay, not silent divergence.
#[test]
fn resume_rejects_incompatible_config_and_evaluator() {
    let evaluator = SyntheticEvaluator::new();
    let config = tiny_config(3, 11);
    let state = segment(&Parmis::new(config.clone()), &evaluator, None, 6)
        .unwrap()
        .into_suspended()
        .unwrap();

    // Different seed → different trajectory → refused.
    let reseeded = Parmis::new(ParmisConfig {
        seed: config.seed + 1,
        ..config.clone()
    });
    let err = segment(&reseeded, &evaluator, Some(state.clone()), 0).unwrap_err();
    assert!(matches!(err, ParmisError::Checkpoint { .. }), "{err}");

    // Same config, evaluator optimizing different objectives → refused.
    let other = SyntheticEvaluator {
        objectives: vec![Objective::ExecutionTime, Objective::PeakTemperature],
    };
    let err = segment(&Parmis::new(config.clone()), &other, Some(state.clone()), 0).unwrap_err();
    assert!(matches!(err, ParmisError::Checkpoint { .. }), "{err}");

    // Same objectives over a policy with 2 parameters instead of 3 → refused.
    let narrower = TwoParameters(SyntheticEvaluator::new());
    let err = segment(
        &Parmis::new(config.clone()),
        &narrower,
        Some(state.clone()),
        0,
    )
    .unwrap_err();
    assert_eq!(
        err.checkpoint_fault(),
        Some(CheckpointFault::Incompatible),
        "{err}"
    );

    // Scheduling is resume-compatible: a different worker count or fuel budget accepts
    // the state (this is the whole point of fuel-bounded segments).
    let rescheduled = Parmis::new(ParmisConfig {
        num_workers: 3,
        ..config
    });
    let outcome = segment(&rescheduled, &evaluator, Some(state), 0)
        .unwrap()
        .into_completed()
        .unwrap();
    assert_eq!(outcome.history.len(), 11);
}

/// Resume equivalence with early stopping on: a resumed segment rebuilds the stale counter
/// by appending the stored records, so every segmentation stops on the same record, for
/// the same reason, as the uninterrupted run.
#[test]
fn segmented_runs_stop_where_the_uninterrupted_run_converges() {
    let evaluator = SyntheticEvaluator::new();
    let mut converged = 0;
    for window in [2, 3] {
        for seed in 0..4 {
            let config = ParmisConfig {
                convergence_window: window,
                ..tiny_config(seed, 21)
            };
            let reference = Parmis::new(config.clone()).run(&evaluator).unwrap();
            converged += usize::from(reference.converged_at.is_some());
            for fuel in 1..9 {
                let label = format!("window {window}, seed {seed}, fuel {fuel}");
                let (resumed, _) = run_segmented(&config, fuel, &evaluator);
                assert_outcomes_identical(&reference, &resumed, &label);
                assert_eq!(resumed.stop_reason, reference.stop_reason, "{label}");
            }
        }
    }
    assert!(
        converged > 0,
        "no reference run converged, so no stale counter was read"
    );
}

/// Fuel bounds the one segment it is passed to: the same `Parmis` suspends a fueled
/// segment with `FuelExhausted`, while its plain `run` always completes.
#[test]
fn fuel_suspends_a_segment_and_never_a_plain_run() {
    let evaluator = SyntheticEvaluator::new();
    let search = Parmis::new(tiny_config(5, 11));
    match segment(&search, &evaluator, None, 6).unwrap() {
        SearchStep::Suspended { state, reason } => {
            assert_eq!(reason, StopReason::FuelExhausted);
            assert!(state.evaluations() >= 6 && state.evaluations() < 11);
        }
        SearchStep::Completed(_) => panic!("fuel below the iteration budget must suspend"),
    }
    let outcome = search.run(&evaluator).unwrap();
    assert_eq!(outcome.history.len(), 11);
    assert_eq!(outcome.stop_reason, StopReason::BudgetExhausted);
}

/// `config_digest(&ParmisConfig::default())`, recorded when the default precision tier
/// became `Fast`. Every stored checkpoint carries its configuration's digest, and resume
/// refuses a mismatch, so moving this value orphans every checkpoint on disk.
const DEFAULT_CONFIG_DIGEST: u64 = 0x0ca8_d51d_fcc6_82d0;

/// Final trace hash of the uninterrupted `tiny_config(7, 11)` search, recorded with the
/// paper-shape hashes below.
const TINY_SEARCH_FINAL_HASH: u64 = 0x910c_1182_b13e_7a20;

/// A checkpoint written by an earlier build still loads, verifies and resumes to the
/// recorded trajectory: the fixture is the fuel-6 suspension of `tiny_config(7, 11)`.
/// After a format change, regenerate it with the call that wrote it,
/// `segment(&Parmis::new(tiny_config(7, 11)), &SyntheticEvaluator::new(), None, 6)`,
/// serialized with `SearchState::to_json`.
#[test]
fn stored_checkpoint_fixture_resumes_to_the_pinned_trace_hash() {
    assert_eq!(
        config_digest(&ParmisConfig::default()),
        DEFAULT_CONFIG_DIGEST
    );

    let fixture = include_str!("fixtures/fuel_suspended_state.json");
    let stored = SearchState::from_json(fixture).unwrap();
    assert_eq!(stored.evaluations(), 7);
    let config = tiny_config(7, 11);
    assert_eq!(stored.config_digest, config_digest(&config));

    // Today's build writes the same state at the same suspension point…
    let search = Parmis::new(config);
    let evaluator = SyntheticEvaluator::new();
    let fresh = segment(&search, &evaluator, None, 6)
        .unwrap()
        .into_suspended()
        .unwrap();
    assert_eq!(fresh, stored);

    // …and resuming the stored one finishes on the recorded trace hash.
    let resumed = segment(&search, &evaluator, Some(stored), 0)
        .unwrap()
        .into_completed()
        .unwrap();
    assert_eq!(resumed.history.len(), 11);
    assert_eq!(resumed.trace_hashes.last(), Some(&TINY_SEARCH_FINAL_HASH));
    let uninterrupted = search.run(&evaluator).unwrap();
    assert_outcomes_identical(&uninterrupted, &resumed, "stored fixture resume");
}

/// Final trace hashes of the paper-shape searches below: the front-sampling shape once per
/// precision tier and the refit-cycle shape, recorded when NSGA-II's variation step took
/// its block draw schedule (coin words, one uniform per crossed gene, geometric mutation
/// gaps).
const PAPER_SHAPE_FINAL_HASH_EXACT: u64 = 0x83cc_09f7_eb91_5394;
const PAPER_SHAPE_FINAL_HASH_FAST: u64 = 0x64f5_574a_eaf4_159d;
const PAPER_SHAPE_REFIT_CYCLES_FINAL_HASH: u64 = 0x7f76_dbdc_033b_52d8;

/// Searches at the paper's dimension end on their recorded trajectories: θ ∈ ℝ⁵⁰¹ on
/// `spectral`. The front-sampling shape runs on both precision tiers with 150 features and a
/// 40-point population, so neither the feature count nor the dimension is a multiple of a
/// small tile. The refit-cycle shape refits the GP hyperparameters at n = 10, 20 and 30 with
/// incremental rounds in between, so several hyperparameter searches, model hand-overs and
/// cross-covariance blocks over 501-dimensional inputs feed the hash.
#[test]
fn paper_shape_search_ends_on_the_pinned_trace_hashes() {
    let front_sampling = ParmisConfig {
        max_iterations: 7,
        initial_samples: 5,
        sampling: ParetoSamplingConfig {
            rff_features: 150,
            nsga_population: 40,
            nsga_generations: 2,
        },
        seed: 0x9a92_0c1e,
        ..ParmisConfig::default()
    };
    let refit_cycles = ParmisConfig {
        max_iterations: 40,
        initial_samples: 10,
        refit_hyperparameters_every: 10,
        sampling: ParetoSamplingConfig {
            rff_features: 20,
            nsga_population: 8,
            nsga_generations: 1,
        },
        seed: 0x9a92_0c1e,
        ..ParmisConfig::default()
    };
    for (base, precision, expected) in [
        (
            &front_sampling,
            Precision::SeedExact,
            PAPER_SHAPE_FINAL_HASH_EXACT,
        ),
        (
            &front_sampling,
            Precision::Fast,
            PAPER_SHAPE_FINAL_HASH_FAST,
        ),
        (
            &refit_cycles,
            Precision::SeedExact,
            PAPER_SHAPE_REFIT_CYCLES_FINAL_HASH,
        ),
    ] {
        let evaluator = SocEvaluator::builder()
            .benchmark(soc_sim::apps::Benchmark::Spectral)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .build()
            .unwrap();
        assert_eq!(evaluator.parameter_dim(), 501);
        let config = ParmisConfig {
            precision,
            ..base.clone()
        };
        let outcome = Parmis::new(config.clone()).run(&evaluator).unwrap();
        assert_eq!(outcome.history.len(), config.max_iterations);
        assert_eq!(
            outcome.trace_hashes.last(),
            Some(&expected),
            "{precision:?} trajectory of the {}-iteration search moved",
            config.max_iterations
        );
    }
}
