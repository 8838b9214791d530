//! Fault-injected evaluation suite: the search must survive backend faults without
//! aborting the process or perturbing the deterministic trajectory. Scheduled transient
//! faults (structured errors *and* panics) recovered by the retry policy leave the
//! outcome bit-identical to a fault-free run for any worker count; exhausted retries
//! either fail fast with a structured error or degrade to penalty vectors; worker panics
//! from evaluators without their own containment surface as the lowest-slot structured
//! error instead of tearing down the scoped thread pool.

use parmis::acquisition::AcquisitionOptimizerConfig;
use parmis::backend::{AnalyticSim, FaultInject, FaultKind};
use parmis::evaluation::{ParallelEvaluator, PolicyEvaluator, RetryPolicy, SocEvaluator};
use parmis::framework::{Parmis, ParmisConfig};
use parmis::objective::Objective;
use parmis::pareto_sampling::ParetoSamplingConfig;
use parmis::{ParmisError, Result};
use soc_sim::apps::Benchmark;
use std::sync::Arc;

fn tiny_config() -> ParmisConfig {
    ParmisConfig {
        max_iterations: 11,
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
        refit_hyperparameters_every: 10,
        batch_size: 2,
        seed: 41,
        ..ParmisConfig::default()
    }
}

fn evaluator_with(
    backend: Arc<dyn parmis::backend::EvalBackend>,
    retry: RetryPolicy,
) -> SocEvaluator {
    SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .backend(backend)
        .retry_policy(retry)
        .build()
        .unwrap()
}

/// Transient faults — a structured error at one backend run and a contained panic at
/// another — are absorbed by a single retry each: the search completes, the process
/// stays alive, and the trajectory is bit-identical to the fault-free run for every
/// worker count. The retry counters record exactly what happened.
#[test]
fn scheduled_error_and_panic_mid_search_are_invisible_with_retries() {
    let clean = evaluator_with(Arc::new(AnalyticSim::new()), RetryPolicy::default());
    let baseline = Parmis::new(tiny_config()).run(&clean).unwrap();

    for workers in [1usize, 2, 4] {
        let retry = RetryPolicy::retries(1);
        let faulty = evaluator_with(
            Arc::new(
                FaultInject::new(Arc::new(AnalyticSim::new()))
                    .fault_on(2, FaultKind::Error)
                    .fault_on(7, FaultKind::Panic),
            ),
            retry,
        );
        let stats = faulty.retry_stats();
        let outcome = Parmis::new(tiny_config())
            .run(&ParallelEvaluator::new(faulty, workers))
            .unwrap();

        assert_eq!(
            outcome.trace_hashes, baseline.trace_hashes,
            "{workers} workers: trace hashes diverged under injected faults"
        );
        assert_eq!(outcome.phv_history, baseline.phv_history);
        assert_eq!(
            outcome.front.objective_values(),
            baseline.front.objective_values()
        );
        // One retry per scheduled fault, one of which was a contained panic.
        assert_eq!(stats.retries(), 2, "{workers} workers");
        assert_eq!(stats.contained_panics(), 1, "{workers} workers");
        assert_eq!(stats.degraded_runs(), 0, "{workers} workers");
    }
}

/// A permanently failing backend under skip-with-penalty degrades the candidate to the
/// penalty vector on every objective instead of failing the run.
#[test]
fn exhausted_retries_degrade_to_the_penalty_vector() {
    let retry = RetryPolicy::retries(2).skip_with_penalty(1.0e6);
    let always_failing = evaluator_with(
        Arc::new(FaultInject::new(Arc::new(AnalyticSim::new())).with_random_errors(3, 1.0)),
        retry,
    );
    let stats = always_failing.retry_stats();
    let theta = vec![0.2; always_failing.parameter_dim()];
    let objectives = always_failing.evaluate(&theta).unwrap();
    assert_eq!(objectives, vec![1.0e6, 1.0e6]);
    assert_eq!(stats.retries(), 2);
    assert_eq!(stats.degraded_runs(), 1);
}

/// The same permanent failure under the default fail-fast mode surfaces the structured
/// backend error after the retry budget, naming the failing backend.
#[test]
fn exhausted_retries_fail_fast_with_the_backend_error() {
    let retry = RetryPolicy::retries(1);
    let always_failing = evaluator_with(
        Arc::new(FaultInject::new(Arc::new(AnalyticSim::new())).with_random_errors(3, 1.0)),
        retry,
    );
    let stats = always_failing.retry_stats();
    let theta = vec![0.2; always_failing.parameter_dim()];
    let err = always_failing.evaluate(&theta).unwrap_err();
    match err {
        ParmisError::Backend { ref name, .. } => assert_eq!(name, "fault-inject"),
        other => panic!("expected Backend error, got {other:?}"),
    }
    assert_eq!(stats.retries(), 1);
    assert_eq!(stats.degraded_runs(), 0);
}

/// A panicking backend is contained even with **zero** retries configured: the panic
/// becomes a structured error naming the backend, and the payload text is preserved.
#[test]
fn backend_panic_is_contained_into_a_structured_error() {
    let panicking = evaluator_with(
        Arc::new(FaultInject::new(Arc::new(AnalyticSim::new())).fault_on(0, FaultKind::Panic)),
        RetryPolicy::default(),
    );
    let stats = panicking.retry_stats();
    let theta = vec![0.1; panicking.parameter_dim()];
    let err = panicking.evaluate(&theta).unwrap_err();
    assert!(matches!(err, ParmisError::Backend { .. }), "{err}");
    assert!(err.to_string().contains("panic contained"), "{err}");
    assert!(err.to_string().contains("injected panic"), "{err}");
    assert_eq!(stats.contained_panics(), 1);

    // Run 1 is past the schedule: the same evaluator recovers without intervention.
    assert!(panicking.evaluate(&theta).is_ok());
}

/// Latency spikes slow a run down without touching its results: objectives are
/// bit-identical to the clean backend and no retry machinery engages.
#[test]
fn latency_spikes_change_timing_but_not_results() {
    let clean = evaluator_with(Arc::new(AnalyticSim::new()), RetryPolicy::default());
    let delayed = evaluator_with(
        Arc::new(
            FaultInject::new(Arc::new(AnalyticSim::new()))
                .fault_on(0, FaultKind::LatencySpike { micros: 500 }),
        ),
        RetryPolicy::default(),
    );
    let stats = delayed.retry_stats();
    let theta = vec![-0.3; clean.parameter_dim()];
    assert_eq!(
        delayed.evaluate(&theta).unwrap(),
        clean.evaluate(&theta).unwrap()
    );
    assert_eq!(stats.retries(), 0);
    assert_eq!(stats.contained_panics(), 0);
}

/// Evaluator whose failures are keyed on the parameter vector itself, so specific batch
/// slots can be made to error or panic deterministically regardless of sharding.
struct SlotFaultEvaluator {
    objectives: Vec<Objective>,
}

const ERROR_MARKER: f64 = 8000.0;
const PANIC_MARKER: f64 = 9000.0;

impl PolicyEvaluator for SlotFaultEvaluator {
    fn parameter_dim(&self) -> usize {
        2
    }

    fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
        if theta[0] == PANIC_MARKER {
            panic!("slot evaluator exploded (fault-injection drill)");
        }
        if theta[0] == ERROR_MARKER {
            return Err(ParmisError::Evaluation {
                reason: "slot evaluator rejected θ".into(),
            });
        }
        Ok(vec![theta[0] + theta[1], theta[0] - theta[1]])
    }
}

/// A panic inside a worker thread — from an evaluator with no containment of its own —
/// must not tear down the process: it surfaces as a structured `parallel-worker` backend
/// error for every worker count, one worker and a one-slot batch included.
#[test]
fn worker_panics_become_structured_errors_for_any_worker_count() {
    let mut thetas: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 1.0]).collect();
    thetas[5][0] = PANIC_MARKER;

    for workers in [1usize, 2, 4] {
        let parallel = ParallelEvaluator::new(
            SlotFaultEvaluator {
                objectives: vec![Objective::ExecutionTime, Objective::Energy],
            },
            workers,
        );
        for batch in [&thetas[..], &thetas[5..6]] {
            let err = parallel.evaluate_batch(batch).unwrap_err();
            match err {
                ParmisError::Backend { ref name, .. } => assert_eq!(name, "parallel-worker"),
                other => panic!("expected Backend error, got {other:?}"),
            }
            assert!(err.to_string().contains("worker panic contained"), "{err}");
            assert!(err.to_string().contains("slot evaluator exploded"), "{err}");
        }
    }
}

/// With both an error and a later panic in the same batch, the surfaced failure is the
/// one from the lowest failing slot — the same first-error-in-slot-order contract the
/// fault-free engine guarantees — for any worker count.
#[test]
fn first_error_in_slot_order_survives_panic_containment() {
    let mut thetas: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 1.0]).collect();
    thetas[3][0] = ERROR_MARKER;
    thetas[6][0] = PANIC_MARKER;

    for workers in [2usize, 4] {
        let parallel = ParallelEvaluator::new(
            SlotFaultEvaluator {
                objectives: vec![Objective::ExecutionTime, Objective::Energy],
            },
            workers,
        );
        let err = parallel.evaluate_batch(&thetas).unwrap_err();
        assert_eq!(
            err,
            ParmisError::Evaluation {
                reason: "slot evaluator rejected θ".into(),
            },
            "{workers} workers: slot 3's error must outrank slot 6's panic"
        );
    }
}
