//! Bit-identity contract of the flat-buffer batched acquisition engine.
//!
//! A reused NSGA-II engine (`moo::nsga2::Nsga2Engine::solve` after a solve of another shape
//! and seed) must solve like a fresh one, the batched RFF evaluation
//! (`gp::PosteriorSample::eval_batch_into`) must answer like the per-point `eval`, and the
//! front sampler (`parmis::pareto_sampling::ParetoFrontSampler::sample_with`) must draw the
//! same front with a warm scratch as with a fresh one, **bit for bit**, across seeds,
//! dimensions, population sizes and both kernel families. Committed digests of a few final
//! populations and sampled fronts pin the numbers themselves: they move only with a
//! deliberate change to the variation step, the RFF sampler or the sort, and such a change
//! records its old and new digests.

use fastmath::Precision;
use gp::kernel::Kernel;
use gp::{GaussianProcess, RffSampler};
use moo::nsga2::{Nsga2, Nsga2Config, Nsga2Engine};
use parmis::pareto_sampling::{
    AcquisitionScratch, ParetoFrontSample, ParetoFrontSampler, ParetoSamplingConfig,
};
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

/// FNV-1a over the bits of every value, in order.
fn digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, v| {
        v.to_bits().to_le_bytes().iter().fold(hash, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// Digest of a final population: its decisions, then its objectives, row-major.
fn population_digest(engine: &Nsga2Engine) -> u64 {
    digest(
        engine
            .decisions()
            .as_slice()
            .iter()
            .chain(engine.objectives()),
    )
}

fn front_digest(sample: &ParetoFrontSample) -> u64 {
    digest(
        sample
            .front
            .iter()
            .flatten()
            .chain(&sample.per_objective_best),
    )
}

/// Solves `objectives(·, shift)` over `[-2, 2]^dim` on a fresh engine and on an engine
/// warmed on another shape and seed, checks that the two agree bit for bit, and returns the
/// fresh engine.
fn solve_fresh_and_warm(config: Nsga2Config, dim: usize, shift: f64) -> Nsga2Engine {
    let solver = Nsga2::new(vec![-2.0; dim], vec![2.0; dim], config.clone()).unwrap();
    let evaluate = |points: &moo::FlatPopulation<'_>, out: &mut [f64]| {
        for (i, o) in out.chunks_exact_mut(2).enumerate() {
            o.copy_from_slice(&objectives(points.row(i), shift));
        }
    };
    let mut fresh = Nsga2Engine::new();
    fresh.solve(&solver, 2, evaluate);

    let mut warm = Nsga2Engine::new();
    let warm_config = Nsga2Config {
        seed: config.seed ^ 0x5a5a,
        ..config
    };
    let other = Nsga2::new(vec![-1.0; dim + 3], vec![3.0; dim + 3], warm_config).unwrap();
    warm.solve(&other, 2, evaluate);
    warm.solve(&solver, 2, evaluate);

    assert_eq!(fresh.decisions().as_slice(), warm.decisions().as_slice());
    assert_eq!(fresh.objectives(), warm.objectives());
    fresh
}

/// The decision-space dimensions the warm-engine property draws from.
const DIMENSIONS: [usize; 8] = [1, 2, 3, 4, 63, 64, 65, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An engine warmed on another shape and seed gives the same final population as a
    /// fresh engine, bit for bit, for any seed, any dimension (below, on and past a coin
    /// word's 64 genes), any (even) population size and generation count.
    #[test]
    fn warm_engines_solve_like_fresh_engines(
        seed in 0u64..u64::MAX,
        dim in 0usize..DIMENSIONS.len(),
        pop_half in 2usize..9,
        generations in 1usize..7,
        shift in -1.5f64..1.5,
    ) {
        let config = Nsga2Config {
            population_size: 2 * pop_half,
            generations,
            seed,
        };
        solve_fresh_and_warm(config, DIMENSIONS[dim], shift);
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

    /// The front sampler gives the same sampled Pareto front and per-objective extrema
    /// with a warm scratch reused across draws (the framework's usage pattern) as with a
    /// fresh scratch per draw, bit for bit.
    #[test]
    fn warm_scratch_fronts_are_bit_identical_to_fresh_scratch_fronts(
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
        let sampler =
            ParetoFrontSampler::new(&models, 3.0, config, sampler_seed, Precision::SeedExact)
                .unwrap();

        let mut scratch = AcquisitionScratch::default();
        for offset in 0..3u64 {
            let s = sample_seed.wrapping_add(offset * 104729);
            let fresh = sampler.sample_with(&mut AcquisitionScratch::default(), s).unwrap();
            let warm = sampler.sample_with(&mut scratch, s).unwrap();
            prop_assert_eq!(&fresh.front, &warm.front);
            prop_assert_eq!(&fresh.per_objective_best, &warm.per_objective_best);
        }
    }
}

/// Final populations at fixed cases: a small box, and a 131-gene box whose crossing coins
/// fill two 64-bit words and part of a third.
#[test]
fn final_populations_match_their_committed_digests() {
    let cases = [
        (
            Nsga2Config {
                population_size: 16,
                generations: 6,
                seed: 0x5eed,
            },
            3,
            0.4,
            0x56cd_fd28_a563_2505u64,
        ),
        (
            Nsga2Config {
                population_size: 20,
                generations: 5,
                seed: 2_593_262_622,
            },
            131,
            -0.7,
            0xe20e_b32e_3839_4e04u64,
        ),
    ];
    for (config, dim, shift, expected) in cases {
        let got = population_digest(&solve_fresh_and_warm(config.clone(), dim, shift));
        assert_eq!(
            got, expected,
            "population digest of {config:?} at dimension {dim} moved: {got:#018x}"
        );
    }
}

/// Sampled fronts at fixed cases: both kernel families on the exact tier, and the Matérn
/// models on the fast tier the search defaults to.
#[test]
fn sampled_fronts_match_their_committed_digests() {
    let config = ParetoSamplingConfig {
        rff_features: 60,
        nsga_population: 16,
        nsga_generations: 6,
    };
    let cases = [
        (0u8, Precision::SeedExact, 0x2fe0_07ce_3546_8d16u64),
        (1, Precision::SeedExact, 0x45c9_9d89_635b_d447),
        (1, Precision::Fast, 0x404d_3f00_ccdc_afff),
    ];
    for (family, precision, expected) in cases {
        let models = toy_models(2, &kernel_for(family, 2));
        let sampler = ParetoFrontSampler::new(&models, 3.0, config.clone(), 7, precision).unwrap();
        let sample = sampler.sample_with(&mut AcquisitionScratch::default(), 11);
        let got = front_digest(&sample.unwrap());
        assert_eq!(
            got, expected,
            "front digest of family {family} on {precision:?} moved: {got:#018x}"
        );
    }
}
