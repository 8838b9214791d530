//! Integration tests for the incremental-refit + batched-prediction engine.
//!
//! The contract under test: `Parmis::run` must advance its per-objective GP models with
//! rank-one Cholesky extensions (not from-scratch refits) on non-hyperopt iterations, and
//! must score acquisition candidate pools through `predict_batch` (one blocked solve per
//! model) rather than per-candidate solves. This is asserted with the `gp::stats` operation
//! counters — no wall-clock involved — plus an equivalence check that the incremental chain
//! reproduces a from-scratch fit on the run's own training data. The `#[ignore]`d companion
//! asserts the wall-clock speedups in release mode on a quiet machine.

use gp::kernel::Kernel;
use gp::GaussianProcess;
use parmis::acquisition::AcquisitionOptimizerConfig;
use parmis::evaluation::{PolicyEvaluator, SocEvaluator};
use parmis::framework::{Parmis, ParmisConfig};
use parmis::objective::Objective;
use parmis::pareto_sampling::ParetoSamplingConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soc_sim::apps::Benchmark;

fn engine_config() -> ParmisConfig {
    ParmisConfig {
        max_iterations: 16,
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
        // Hyperopt only on the first model-guided round: every later round must take the
        // incremental path.
        refit_hyperparameters_every: 1000,
        batch_size: 1,
        num_workers: 1,
        seed: 123,
        ..ParmisConfig::default()
    }
}

/// The operation-count and equivalence check of the engine. Kept as a single test function
/// because the `gp::stats` counters are process-global: concurrent tests in this binary
/// would pollute each other's deltas.
#[test]
fn parmis_run_takes_the_incremental_and_batched_paths() {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap();
    let config = engine_config();
    gp::stats::reset();
    moo::stats::reset();
    let outcome = Parmis::new(config.clone()).run(&evaluator).unwrap();
    let stats = gp::stats::snapshot();
    let moo_stats = moo::stats::snapshot();
    assert_eq!(outcome.history.len(), 16);

    // 10 non-hyperopt rounds × 2 objectives, one new observation each: the run must have
    // performed at least 20 rank-one extensions.
    let k = 2;
    let incremental_rounds = (config.max_iterations - config.initial_samples - 1) as u64;
    assert!(
        stats.incremental_updates >= incremental_rounds * k,
        "expected >= {} rank-one extensions, saw {}",
        incremental_rounds * k,
        stats.incremental_updates
    );
    // Acquisition scoring goes through predict_batch: at least one batched solve per model
    // per model-guided round (the Pareto sampler adds more point predictions, not fewer
    // batches).
    assert!(
        stats.predict_batches >= (incremental_rounds + 1) * k,
        "expected >= {} batched predictions, saw {}",
        (incremental_rounds + 1) * k,
        stats.predict_batches
    );
    // From-scratch O(n³) fits are confined to the single hyperopt round (one final fit per
    // objective); the incremental rounds must not add one per iteration. A small slack
    // covers the degenerate-extension fallback.
    assert!(
        stats.full_fits <= k + 2,
        "expected at most {} from-scratch fits (hyperopt only), saw {}",
        k + 2,
        stats.full_fits
    );

    // The acquisition sampler must route through the flat batched engine: every
    // model-guided round evolves `nsga_generations` NSGA-II generations on the engine, and
    // each generation (plus the initial population) answers all k sampled objective
    // functions with batched feature-matrix products — never the per-point RFF path.
    let rounds = incremental_rounds + 1; // every model-guided round samples one front
    let generations = 5u64; // engine_config's nsga_generations
    assert!(
        moo_stats.nsga2_generations >= rounds * generations,
        "expected >= {} flat NSGA-II generations, saw {}",
        rounds * generations,
        moo_stats.nsga2_generations
    );
    assert!(
        moo_stats.dominance_comparisons > 0 && moo_stats.flat_sorts >= rounds * generations,
        "flat non-dominated sorting must run per generation: {moo_stats:?}"
    );
    assert!(
        stats.rff_feature_matrix_products >= rounds * k * (generations + 1),
        "expected >= {} batched RFF evaluations, saw {}",
        rounds * k * (generations + 1),
        stats.rff_feature_matrix_products
    );
    assert_eq!(
        stats.rff_point_evals, 0,
        "the search loop must never fall back to per-point RFF evaluation"
    );

    // Equivalence on the run's own data: replaying objective 0 of the history through the
    // incremental chain must match one from-scratch fit to 1e-8 on predictions.
    let thetas: Vec<Vec<f64>> = outcome.history.iter().map(|r| r.theta.clone()).collect();
    let ys: Vec<f64> = outcome.history.iter().map(|r| r.objectives[0]).collect();
    let kernel = Kernel::matern52(1.0, 2.0 * (evaluator.parameter_dim() as f64).sqrt());
    let seed_n = 6;
    let base = GaussianProcess::fit(
        thetas[..seed_n].to_vec(),
        ys[..seed_n].to_vec(),
        kernel.clone(),
        1e-4,
    )
    .unwrap();
    let incremental = base
        .with_observations_and_targets(&thetas[seed_n..], ys.clone())
        .unwrap();
    let full = GaussianProcess::fit(thetas.clone(), ys, kernel, 1e-4).unwrap();
    for theta in thetas.iter().step_by(3) {
        let (mi, vi) = incremental.predict(theta).unwrap();
        let (mf, vf) = full.predict(theta).unwrap();
        assert!(
            (mi - mf).abs() < 1e-8 && (vi - vf).abs() < 1e-8,
            "incremental chain diverged from full fit: ({mi}, {vi}) vs ({mf}, {vf})"
        );
    }
}

fn random_data(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().map(|v| v.sin()).sum::<f64>() / dim as f64)
        .collect();
    (xs, ys)
}

/// Wall-clock gate for the engine: the rank-one update must beat the from-scratch refit and
/// the batched prediction must beat the per-point loop. Timing assertions are meaningless in
/// debug builds and flake under noisy neighbours, so this stays `#[ignore]`d; run it with
/// `cargo test -q -p parmis --release -- --ignored` on a quiet machine.
#[test]
#[ignore = "wall-clock sensitive; run in release mode on a quiet machine"]
fn incremental_refit_and_predict_batch_beat_the_serial_baselines() {
    let n = 220;
    let dim = 16;
    let (xs, ys) = random_data(n + 1, dim, 17);
    let kernel = Kernel::matern52(1.0, 8.0);
    let gp =
        GaussianProcess::fit(xs[..n].to_vec(), ys[..n].to_vec(), kernel.clone(), 1e-4).unwrap();
    let new_x = [xs[n].clone()];

    let reps = 8;
    let start = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            gp.with_observations_and_targets(&new_x, ys.clone())
                .unwrap(),
        );
    }
    let incremental_time = start.elapsed();

    let start = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            GaussianProcess::fit(xs.clone(), ys.clone(), kernel.clone(), 1e-4).unwrap(),
        );
    }
    let full_time = start.elapsed();
    assert!(
        incremental_time.as_secs_f64() * 3.0 <= full_time.as_secs_f64(),
        "expected >= 3x speedup from the rank-one update at n = {n}: incremental \
         {incremental_time:?}, full refit {full_time:?}"
    );

    let mut rng = StdRng::seed_from_u64(23);
    let queries: Vec<Vec<f64>> = (0..128)
        .map(|_| (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect();
    let start = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(gp.predict_batch(&queries).unwrap());
    }
    let batched_time = start.elapsed();

    let start = std::time::Instant::now();
    for _ in 0..reps {
        for q in &queries {
            std::hint::black_box(gp.predict(q).unwrap());
        }
    }
    let per_point_time = start.elapsed();
    assert!(
        batched_time.as_secs_f64() * 1.2 <= per_point_time.as_secs_f64(),
        "expected >= 1.2x speedup from batched prediction: batched {batched_time:?}, \
         per-point {per_point_time:?}"
    );
}
