//! The information-gain acquisition function (paper §IV-B, Eq. 1–9) and its maximizer.
//!
//! The utility of evaluating a candidate policy θ is the expected reduction in entropy of the
//! posterior over the optimal Pareto front. Following the paper's derivation, the expectation
//! over Pareto-front samples O*_s admits a closed form built from truncated Gaussians:
//!
//! ```text
//! α(θ) ≈ 1/S Σ_s Σ_j [ γ_s^j(θ) φ(γ_s^j(θ)) / (2 Φ(γ_s^j(θ))) − ln Φ(γ_s^j(θ)) ]      (Eq. 9)
//! ```
//!
//! The paper states Eq. 6–9 in the maximization convention of MESMO, where each objective
//! component is upper-bounded by the sampled front and `γ = (y*_s − μ)/σ`. This crate
//! minimizes every objective, which is the mirror image: each component is *lower*-bounded by
//! the per-objective minimum of the sampled front and `γ = (μ(θ) − y*_s)/σ(θ)`. The two forms
//! are identical under negation of the objectives, so the resulting α(θ) is exactly the
//! paper's utility.

use crate::pareto_sampling::ParetoFrontSample;
use crate::Result;
use gp::GaussianProcess;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard normal probability density function.
fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function (Abramowitz–Stegun style erf identity).
fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, max error ~1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Evaluates the information-gain acquisition α(θ) of Eq. 9 for a candidate θ.
///
/// `models` holds one GP per objective (fitted on minimization values) and `samples` the
/// Pareto-front samples drawn by [`crate::pareto_sampling`]. Larger values mean evaluating θ
/// is expected to reveal more about the optimal Pareto front.
///
/// # Errors
///
/// Propagates GP prediction failures (dimension mismatches).
pub fn information_gain(
    theta: &[f64],
    models: &[GaussianProcess],
    samples: &[ParetoFrontSample],
) -> Result<f64> {
    // Cache the per-objective predictions; they do not depend on the sample.
    let predictions: Vec<(f64, f64)> = models
        .iter()
        .map(|m| m.predict_std(theta))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok(information_gain_from_predictions(&predictions, samples))
}

/// Evaluates Eq. 9 from pre-computed per-objective posterior `(mean, std)` pairs.
///
/// This is the scoring core shared by [`information_gain`] (one candidate, per-point
/// predictions) and the batched optimizer path, which obtains the predictions for the whole
/// candidate pool from [`GaussianProcess::predict_batch`] with one blocked solve per model.
fn information_gain_from_predictions(
    predictions: &[(f64, f64)],
    samples: &[ParetoFrontSample],
) -> f64 {
    assert!(
        !predictions.is_empty(),
        "at least one objective model is required"
    );
    assert!(
        !samples.is_empty(),
        "at least one Pareto-front sample is required"
    );
    let mut total = 0.0;
    for sample in samples {
        for (j, (mean, std)) in predictions.iter().enumerate() {
            let best = sample.per_objective_best[j];
            let sigma = std.max(1e-9);
            // Minimization mirror of the paper's γ: how far the posterior mean sits above the
            // sampled front's best value, in posterior standard deviations.
            let gamma = (mean - best) / sigma;
            let cdf = normal_cdf(gamma).max(1e-12);
            let pdf = normal_pdf(gamma);
            total += gamma * pdf / (2.0 * cdf) - cdf.ln();
        }
    }
    total / samples.len() as f64
}

/// Configuration of the acquisition maximizer.
#[derive(Debug, Clone, PartialEq)]
pub struct AcquisitionOptimizerConfig {
    /// Number of uniformly random candidate vectors scored per iteration.
    pub random_candidates: usize,
    /// Number of perturbed copies of the incumbent non-dominated θs scored per iteration.
    pub local_candidates: usize,
    /// Standard deviation of the local perturbations, as a fraction of the parameter bound.
    pub local_perturbation: f64,
}

impl Default for AcquisitionOptimizerConfig {
    fn default() -> Self {
        AcquisitionOptimizerConfig {
            random_candidates: 96,
            local_candidates: 32,
            local_perturbation: 0.15,
        }
    }
}

/// Maximizes the acquisition over the policy-parameter box by scoring a mixture of uniform
/// random candidates and local perturbations of promising incumbents (the θs whose
/// evaluations are currently non-dominated).
///
/// The paper does not prescribe a specific acquisition optimizer; random multi-start search
/// with local refinement is the standard budget-friendly choice for a few hundred dimensions
/// and keeps the per-iteration cost predictable.
#[derive(Debug, Clone)]
pub struct AcquisitionOptimizer {
    bound: f64,
    dim: usize,
    config: AcquisitionOptimizerConfig,
}

impl AcquisitionOptimizer {
    /// Creates an optimizer over `[-bound, bound]^dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `bound <= 0`.
    pub fn new(dim: usize, bound: f64, config: AcquisitionOptimizerConfig) -> Self {
        assert!(dim > 0, "parameter dimension must be positive");
        assert!(bound > 0.0, "parameter bound must be positive");
        AcquisitionOptimizer { bound, dim, config }
    }

    /// Finds the `q` highest-scoring distinct candidates θ and their acquisition values,
    /// best first — the selection rule of the batched search, which evaluates several
    /// policies per iteration instead of just the argmax (`q = 1`).
    ///
    /// `incumbents` are parameter vectors worth exploring around (typically the θs on the
    /// current empirical Pareto front). The scored candidate pool depends on the seed, not
    /// on `q`, and ties are broken by generation order, so the whole selection is
    /// deterministic. At most the pool size is returned when `q` exceeds it.
    ///
    /// # Errors
    ///
    /// Propagates GP prediction failures.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn maximize_batch(
        &self,
        models: &[GaussianProcess],
        samples: &[ParetoFrontSample],
        incumbents: &[Vec<f64>],
        q: usize,
        seed: u64,
    ) -> Result<Vec<(Vec<f64>, f64)>> {
        assert!(q > 0, "batch size must be positive");
        let mut rng = StdRng::seed_from_u64(seed);

        // Generate the whole candidate pool up front. The RNG consumption order is identical
        // to scoring-as-we-go (scoring draws nothing from the stream), so the pool — and with
        // it the selection — stays a deterministic function of (incumbents, seed) alone.
        let mut pool: Vec<Vec<f64>> =
            Vec::with_capacity(self.config.random_candidates + self.config.local_candidates);
        for _ in 0..self.config.random_candidates {
            pool.push(
                (0..self.dim)
                    .map(|_| rng.gen_range(-self.bound..self.bound))
                    .collect(),
            );
        }
        if !incumbents.is_empty() {
            let sigma = self.config.local_perturbation * self.bound;
            for i in 0..self.config.local_candidates {
                let base = &incumbents[i % incumbents.len()];
                pool.push(
                    base.iter()
                        .map(|v| {
                            let noise: f64 = rng.gen_range(-1.0..1.0) * sigma;
                            (v + noise).clamp(-self.bound, self.bound)
                        })
                        .collect(),
                );
            }
        }

        // Score the pool with one batched posterior solve per objective model (the blocked
        // O(n²·pool) path) instead of ~pool-size per-candidate triangular solves. The
        // per-candidate (mean, std) pairs — and therefore every acquisition value — are
        // bit-identical to the per-point `predict_std` path.
        let per_model: Vec<Vec<(f64, f64)>> = models
            .iter()
            .map(|m| m.predict_batch(&pool))
            .collect::<std::result::Result<Vec<_>, _>>()?;

        let mut predictions: Vec<(f64, f64)> = Vec::with_capacity(models.len());
        let mut scored: Vec<(Vec<f64>, f64)> = Vec::with_capacity(pool.len());
        for (c, theta) in pool.into_iter().enumerate() {
            predictions.clear();
            predictions.extend(per_model.iter().map(|p| {
                let (mean, variance) = p[c];
                (mean, variance.sqrt())
            }));
            let value = information_gain_from_predictions(&predictions, samples);
            scored.push((theta, value));
        }

        // Stable sort: equal scores keep generation order, so the result is a deterministic
        // function of (models, samples, incumbents, seed) alone.
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(q);
        Ok(scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::kernel::Kernel;

    #[test]
    fn normal_functions_match_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!((normal_pdf(0.0) - 0.398942).abs() < 1e-5);
        assert!(normal_pdf(5.0) < 2e-6);
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842700).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842700).abs() < 1e-5);
    }

    fn one_d_models() -> Vec<GaussianProcess> {
        // Two objectives over a 1-D θ with an obvious trade-off: o1 = θ, o2 = 1 - θ.
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y1: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let y2: Vec<f64> = xs.iter().map(|x| 1.0 - x[0]).collect();
        vec![
            GaussianProcess::fit(xs.clone(), y1, Kernel::rbf(1.0, 0.4), 1e-5).unwrap(),
            GaussianProcess::fit(xs, y2, Kernel::rbf(1.0, 0.4), 1e-5).unwrap(),
        ]
    }

    fn fake_sample(best: Vec<f64>) -> ParetoFrontSample {
        ParetoFrontSample {
            front: vec![best.clone()],
            per_objective_best: best,
        }
    }

    #[test]
    fn acquisition_is_nonnegative_and_finite() {
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.0, 0.0]), fake_sample(vec![0.1, 0.05])];
        for theta in [[0.0], [0.5], [1.0]] {
            let a = information_gain(&theta, &models, &samples).unwrap();
            assert!(a.is_finite());
            assert!(
                a >= -1e-9,
                "acquisition should be (numerically) non-negative, got {a}"
            );
        }
    }

    #[test]
    fn acquisition_prefers_uncertain_regions_over_known_ones() {
        // Far outside the data the posterior is uncertain; the information gain there should
        // exceed the gain at a densely sampled training location.
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.2, 0.2])];
        let at_data = information_gain(&[0.5], &models, &samples).unwrap();
        let far_away = information_gain(&[3.0], &models, &samples).unwrap();
        assert!(
            far_away > at_data,
            "uncertain point {far_away} should beat well-known point {at_data}"
        );
    }

    #[test]
    fn acquisition_rewards_candidates_likely_to_improve_the_sampled_front() {
        // A candidate whose posterior mean is at or below the sampled front's best value may
        // push the Pareto front outwards, so its expected information gain is higher than a
        // candidate that the sampled front already dominates by a wide margin.
        let models = one_d_models();
        let near_front = information_gain(&[0.5], &models, &[fake_sample(vec![0.5, 0.5])]).unwrap();
        let hopeless = information_gain(&[0.5], &models, &[fake_sample(vec![-2.0, -2.0])]).unwrap();
        assert!(
            near_front > hopeless,
            "candidate near the sampled front ({near_front}) should score above a hopeless one ({hopeless})"
        );
    }

    #[test]
    fn optimizer_returns_candidate_within_bounds() {
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.0, 0.0])];
        let optimizer = AcquisitionOptimizer::new(1, 3.0, AcquisitionOptimizerConfig::default());
        let (theta, value) = optimizer
            .maximize_batch(&models, &samples, &[vec![0.5]], 1, 42)
            .unwrap()
            .remove(0);
        assert_eq!(theta.len(), 1);
        assert!(theta[0] >= -3.0 && theta[0] <= 3.0);
        assert!(value.is_finite());
    }

    #[test]
    fn optimizer_beats_the_average_random_candidate() {
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.1, 0.1])];
        let optimizer = AcquisitionOptimizer::new(1, 3.0, AcquisitionOptimizerConfig::default());
        let (_, best_value) = optimizer
            .maximize_batch(&models, &samples, &[], 1, 7)
            .unwrap()
            .remove(0);
        // Compare against the mean acquisition of a few fixed points.
        let mut mean = 0.0;
        for theta in [[-2.0], [-1.0], [0.0], [1.0], [2.0]] {
            mean += information_gain(&theta, &models, &samples).unwrap();
        }
        mean /= 5.0;
        assert!(best_value >= mean);
    }

    #[test]
    fn optimizer_is_deterministic_per_seed() {
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.0, 0.0])];
        let optimizer = AcquisitionOptimizer::new(1, 3.0, AcquisitionOptimizerConfig::default());
        let a = optimizer
            .maximize_batch(&models, &samples, &[vec![0.2]], 1, 5)
            .unwrap();
        let b = optimizer
            .maximize_batch(&models, &samples, &[vec![0.2]], 1, 5)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn optimizer_rejects_zero_dimension() {
        AcquisitionOptimizer::new(0, 3.0, AcquisitionOptimizerConfig::default());
    }

    #[test]
    fn batch_selection_returns_distinct_top_candidates_in_score_order() {
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.1, 0.1])];
        let optimizer = AcquisitionOptimizer::new(1, 3.0, AcquisitionOptimizerConfig::default());
        let batch = optimizer
            .maximize_batch(&models, &samples, &[vec![0.4]], 4, 21)
            .unwrap();
        assert_eq!(batch.len(), 4);
        for pair in batch.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "batch must be sorted best-first");
        }
        for (theta, value) in &batch {
            assert_eq!(theta.len(), 1);
            assert!(theta[0].abs() <= 3.0);
            assert!(value.is_finite());
        }
    }

    #[test]
    fn batch_head_matches_argmax_for_any_q() {
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.0, 0.0])];
        let optimizer = AcquisitionOptimizer::new(1, 3.0, AcquisitionOptimizerConfig::default());
        let single = optimizer
            .maximize_batch(&models, &samples, &[vec![0.2]], 1, 9)
            .unwrap()
            .remove(0);
        for q in [3, 8] {
            let batch = optimizer
                .maximize_batch(&models, &samples, &[vec![0.2]], q, 9)
                .unwrap();
            assert_eq!(batch[0], single, "q = {q} must not change the argmax");
        }
    }

    #[test]
    fn batched_scores_are_bit_identical_to_per_point_information_gain() {
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.1, 0.1]), fake_sample(vec![0.0, 0.2])];
        let optimizer = AcquisitionOptimizer::new(1, 3.0, AcquisitionOptimizerConfig::default());
        let batch = optimizer
            .maximize_batch(&models, &samples, &[vec![0.3]], 6, 11)
            .unwrap();
        for (theta, value) in &batch {
            let per_point = information_gain(theta, &models, &samples).unwrap();
            assert_eq!(
                *value, per_point,
                "batched score diverged from the per-point path at θ = {theta:?}"
            );
        }
    }

    #[test]
    fn oversized_q_is_capped_at_the_candidate_pool() {
        let models = one_d_models();
        let samples = vec![fake_sample(vec![0.0, 0.0])];
        let config = AcquisitionOptimizerConfig {
            random_candidates: 5,
            local_candidates: 0,
            local_perturbation: 0.1,
        };
        let optimizer = AcquisitionOptimizer::new(1, 3.0, config);
        let batch = optimizer
            .maximize_batch(&models, &samples, &[], 50, 2)
            .unwrap();
        assert_eq!(batch.len(), 5);
    }
}
