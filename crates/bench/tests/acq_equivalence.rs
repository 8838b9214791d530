//! Bit-identity contract of the flat-buffer batched acquisition engine.
//!
//! The flat NSGA-II engine (`moo::nsga2::Nsga2Engine`), the batched RFF evaluation
//! (`gp::PosteriorSample::eval_batch_into`) and the batched front sampler
//! (`parmis::pareto_sampling::ParetoFrontSampler::sample_with`) must reproduce the seed
//! per-point loop — preserved verbatim in [`bench::seedpath_acq`] — **bit for bit**, across
//! seeds, dimensions, population sizes and both kernel families. Any `!=` here means the
//! rewrite changed the numbers, not just the speed.

use bench::seedpath_acq::{build_seed_samplers, nsga2_run_seed, sample_front_seed};
use gp::kernel::Kernel;
use gp::{GaussianProcess, RffSampler};
use moo::nsga2::{Nsga2, Nsga2Config, Nsga2Engine};
use parmis::pareto_sampling::{AcquisitionScratch, ParetoFrontSampler, ParetoSamplingConfig};
use proptest::prelude::*;

/// A smooth, seed-parametrized bi-objective test function over `[-bound, bound]^d`.
fn objectives(theta: &[f64], shift: f64) -> Vec<f64> {
    let o1: f64 = theta.iter().map(|v| (v - shift) * (v - shift)).sum();
    let o2: f64 = theta
        .iter()
        .enumerate()
        .map(|(d, v)| (v + shift * 0.5 + d as f64 * 0.1).abs())
        .sum();
    vec![o1, o2]
}

/// Deterministic training data with a per-objective trade-off for GP fixtures.
fn toy_models(dim: usize, kernel: &Kernel) -> Vec<GaussianProcess> {
    let xs: Vec<Vec<f64>> = (0..14)
        .map(|i| {
            let t = i as f64 / 13.0 * 6.0 - 3.0;
            (0..dim)
                .map(|d| t * (1.0 - 0.4 * d as f64) + 0.2 * d as f64)
                .collect()
        })
        .collect();
    let y1: Vec<f64> = xs.iter().map(|x| x[0] + 0.1 * x[dim - 1]).collect();
    let y2: Vec<f64> = xs.iter().map(|x| -x[0] + 0.2 * x[dim - 1]).collect();
    vec![
        GaussianProcess::fit(xs.clone(), y1, kernel.clone(), 1e-4).unwrap(),
        GaussianProcess::fit(xs, y2, kernel.clone(), 1e-4).unwrap(),
    ]
}

fn kernel_for(family: u8, dim: usize) -> Kernel {
    let lengthscale = 1.0 + dim as f64 * 0.5;
    if family % 2 == 0 {
        Kernel::rbf(1.0, lengthscale)
    } else {
        Kernel::matern52(1.0, lengthscale)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine-backed `Nsga2::run` and the batched `run_batched` both reproduce the
    /// preserved seed loop exactly: same decisions, same objectives, for any seed, any
    /// dimension, any (even) population size and generation count.
    #[test]
    fn flat_nsga2_is_bit_identical_to_the_seed_loop(
        seed in 0u64..u64::MAX,
        dim in 1usize..5,
        pop_half in 2usize..9,
        generations in 1usize..7,
        shift in -1.5f64..1.5,
    ) {
        let config = Nsga2Config {
            population_size: 2 * pop_half,
            generations,
            seed,
        };
        let lower = vec![-2.0; dim];
        let upper = vec![2.0; dim];

        let seed_pop = nsga2_run_seed(&lower, &upper, &config, |x| objectives(x, shift));

        let solver = Nsga2::new(lower, upper, config).unwrap();
        let flat_pop = solver.run(|x| objectives(x, shift));
        prop_assert_eq!(&seed_pop.decisions, &flat_pop.decisions);
        prop_assert_eq!(&seed_pop.objectives, &flat_pop.objectives);

        let mut engine = Nsga2Engine::new();
        let batched_pop = solver.run_batched(&mut engine, 2, |points, out| {
            for i in 0..points.count() {
                out[2 * i..2 * i + 2].copy_from_slice(&objectives(points.row(i), shift));
            }
        });
        prop_assert_eq!(&seed_pop.decisions, &batched_pop.decisions);
        prop_assert_eq!(&seed_pop.objectives, &batched_pop.objectives);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched RFF evaluation answers exactly what the per-point path answers, for both
    /// kernel families and any draw seed.
    #[test]
    fn eval_batch_into_is_bit_identical_across_kernels(
        family in 0u8..2,
        dim in 1usize..4,
        sampler_seed in 0u64..u64::MAX,
        draw_seed in 0u64..u64::MAX,
    ) {
        let kernel = kernel_for(family, dim);
        let models = toy_models(dim, &kernel);
        for model in &models {
            let sampler = RffSampler::new(model, 90, sampler_seed).unwrap();
            let f = sampler.sample(draw_seed).unwrap();
            let queries: Vec<Vec<f64>> = (0..23)
                .map(|i| (0..dim).map(|d| -2.5 + 0.23 * i as f64 + 0.4 * d as f64).collect())
                .collect();
            let flat: Vec<f64> = queries.iter().flatten().copied().collect();
            let mut batched = vec![0.0; queries.len()];
            f.eval_batch_into(&flat, &mut batched);
            for (q, b) in queries.iter().zip(&batched) {
                prop_assert_eq!(f.eval(q), *b);
            }
        }
    }

    /// End to end: the batched front sampler reproduces the seed path's sampled Pareto
    /// front and per-objective extrema bit for bit — with a fresh scratch *and* with a
    /// warm scratch reused across draws (the framework's usage pattern).
    #[test]
    fn sampled_fronts_are_bit_identical_to_the_seed_path(
        family in 0u8..2,
        sampler_seed in 0u64..u64::MAX,
        sample_seed in 0u64..u64::MAX,
    ) {
        let dim = 2;
        let kernel = kernel_for(family, dim);
        let models = toy_models(dim, &kernel);
        let config = ParetoSamplingConfig {
            rff_features: 60,
            nsga_population: 16,
            nsga_generations: 6,
        };
        let bound = 3.0;

        let seed_samplers = build_seed_samplers(&models, config.rff_features, sampler_seed);
        let sampler = ParetoFrontSampler::new(&models, bound, config.clone(), sampler_seed).unwrap();

        let mut scratch = AcquisitionScratch::default();
        for offset in 0..3u64 {
            let s = sample_seed.wrapping_add(offset * 104729);
            let seed_sample = sample_front_seed(&seed_samplers, bound, &config, s);
            let flat_sample = sampler.sample_with(&mut scratch, s).unwrap();
            prop_assert_eq!(&seed_sample.front, &flat_sample.front);
            prop_assert_eq!(&seed_sample.per_objective_best, &flat_sample.per_objective_best);
        }
    }
}
