//! Integration tests for the parallel batched evaluation engine: the Pareto front and the
//! full hypervolume trace must be bit-identical for any worker count, and `evaluate_batch`
//! must always agree with element-wise `evaluate` — on the real SoC simulator, not just the
//! synthetic test problem.

use parmis::acquisition::AcquisitionOptimizerConfig;
use parmis::evaluation::{ParallelEvaluator, PolicyEvaluator, SocEvaluator};
use parmis::framework::{Parmis, ParmisConfig, ParmisOutcome};
use parmis::objective::Objective;
use parmis::pareto_sampling::ParetoSamplingConfig;
use proptest::prelude::*;
use soc_sim::apps::Benchmark;

fn tiny_config(num_workers: usize) -> ParmisConfig {
    ParmisConfig {
        max_iterations: 12,
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
        batch_size: 3,
        num_workers,
        seed: 77,
        ..ParmisConfig::default()
    }
}

fn assert_outcomes_identical(a: &ParmisOutcome, b: &ParmisOutcome, label: &str) {
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
}

#[test]
fn soc_outcome_is_bit_identical_for_1_2_and_4_workers() {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap();
    let baseline = Parmis::new(tiny_config(1)).run(&evaluator).unwrap();
    for workers in [1, 2, 4] {
        let outcome = Parmis::new(tiny_config(workers))
            .run_parallel(&evaluator)
            .unwrap();
        assert_outcomes_identical(&baseline, &outcome, &format!("{workers} workers"));
    }
}

#[test]
fn explicit_parallel_evaluator_matches_plain_run() {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Sha)
        .objectives(Objective::TIME_PPW.to_vec())
        .build()
        .unwrap();
    let plain = Parmis::new(tiny_config(1)).run(&evaluator).unwrap();
    let wrapped = ParallelEvaluator::new(evaluator, 2);
    let parallel = Parmis::new(tiny_config(1)).run(&wrapped).unwrap();
    assert_outcomes_identical(&plain, &parallel, "wrapped evaluator");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The batch API must agree with element-wise evaluation for arbitrary batches of
    /// arbitrary parameter vectors, serial and parallel alike.
    #[test]
    fn evaluate_batch_agrees_with_elementwise_evaluate(
        raw in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 4), 1..7),
        workers in 1usize..5,
    ) {
        let evaluator =
            SocEvaluator::builder().benchmark(Benchmark::Dijkstra).objectives(Objective::TIME_ENERGY.to_vec()).build().unwrap();
        let dim = evaluator.parameter_dim();
        // Tile the 4 generated coefficients across the full parameter dimension.
        let thetas: Vec<Vec<f64>> = raw
            .iter()
            .map(|coeffs| (0..dim).map(|i| coeffs[i % coeffs.len()]).collect())
            .collect();

        let elementwise: Vec<Vec<f64>> = thetas
            .iter()
            .map(|theta| evaluator.evaluate(theta).unwrap())
            .collect();
        prop_assert_eq!(&evaluator.evaluate_batch(&thetas).unwrap(), &elementwise);

        let parallel = ParallelEvaluator::new(evaluator.clone(), workers);
        prop_assert_eq!(&parallel.evaluate_batch(&thetas).unwrap(), &elementwise);
    }
}

/// Wall-clock speedup of the parallel engine. Requires ≥ 4 physical cores to be meaningful,
/// so it is ignored by default; `cargo test -p parmis -- --ignored` runs it on capable hosts.
#[test]
#[ignore = "wall-clock sensitive; needs >= 4 cores"]
fn four_workers_halve_batch_evaluation_time() {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Kmeans)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap();
    let dim = evaluator.parameter_dim();
    let thetas: Vec<Vec<f64>> = (0..32)
        .map(|i| vec![(i as f64 / 32.0) - 0.5; dim])
        .collect();
    // Warm up both paths once.
    let serial_result = evaluator.evaluate_batch(&thetas).unwrap();
    let parallel = ParallelEvaluator::new(evaluator.clone(), 4);
    assert_eq!(parallel.evaluate_batch(&thetas).unwrap(), serial_result);

    let start = std::time::Instant::now();
    let _ = evaluator.evaluate_batch(&thetas).unwrap();
    let serial_time = start.elapsed();

    let start = std::time::Instant::now();
    let _ = parallel.evaluate_batch(&thetas).unwrap();
    let parallel_time = start.elapsed();

    assert!(
        parallel_time.as_secs_f64() * 2.0 <= serial_time.as_secs_f64(),
        "expected ≥ 2× speedup with 4 workers: serial {serial_time:?}, parallel {parallel_time:?}"
    );
}
