//! Marginal-likelihood hyperparameter selection.
//!
//! PaRMIS refits its GP models every iteration from at most a few hundred points, so a simple
//! but robust multi-start grid/coordinate search over (lengthscale, signal variance, noise) is
//! entirely adequate — and considerably harder to get wrong than a hand-rolled gradient
//! optimizer. The search maximizes the exact log marginal likelihood.

use crate::gaussian_process::validate_training_data;
use crate::kernel::{squared_distance_matrix, Kernel, KernelFamily};
use crate::{GaussianProcess, GpError, Result};
use linalg::{vector, Cholesky, Matrix};

/// Configuration of the hyperparameter search.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperoptConfig {
    /// Kernel family to fit.
    pub family: KernelFamily,
    /// Candidate isotropic lengthscales (geometric grid recommended).
    pub lengthscales: Vec<f64>,
    /// Candidate signal variances.
    pub signal_variances: Vec<f64>,
    /// Candidate observation-noise variances.
    pub noise_variances: Vec<f64>,
    /// Number of coordinate-descent refinement passes after the grid search.
    pub refinement_passes: usize,
}

impl Default for HyperoptConfig {
    fn default() -> Self {
        HyperoptConfig {
            family: KernelFamily::Matern52,
            lengthscales: vec![0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0],
            signal_variances: vec![0.25, 1.0, 4.0],
            noise_variances: vec![1e-6, 1e-4, 1e-2],
            refinement_passes: 1,
        }
    }
}

/// Result of a hyperparameter search: the selected model and its score.
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// GP refitted with the best hyperparameters found.
    pub model: GaussianProcess,
    /// Log marginal likelihood of the selected model.
    pub log_marginal_likelihood: f64,
}

/// Fits a GP with hyperparameters chosen by maximizing the log marginal likelihood over the
/// grid in `config`, followed by local coordinate refinement (multiplicative 0.5×/2× probes).
///
/// # Errors
///
/// Returns [`GpError::InvalidData`] if the training data is invalid or the configuration grid
/// is empty, and propagates fitting failures for the *best* configuration (individual grid
/// candidates that fail to factorize are skipped).
///
/// # Examples
///
/// ```
/// use gp::hyperopt::{fit_with_hyperopt, HyperoptConfig};
///
/// # fn main() -> Result<(), gp::GpError> {
/// let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 * 0.3]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (1.5 * x[0]).sin()).collect();
/// let fitted = fit_with_hyperopt(xs, ys, &HyperoptConfig::default())?;
/// assert!(fitted.log_marginal_likelihood.is_finite());
/// # Ok(())
/// # }
/// ```
pub fn fit_with_hyperopt(
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    config: &HyperoptConfig,
) -> Result<FittedModel> {
    if config.lengthscales.is_empty()
        || config.signal_variances.is_empty()
        || config.noise_variances.is_empty()
    {
        return Err(GpError::InvalidData {
            reason: "hyperparameter grid must not be empty".into(),
        });
    }
    validate_training_data(&xs, &ys)?;

    let mut ctx = ScoreContext::new(&xs, &ys, config.family);
    let mut best: Option<(f64, f64, f64, f64)> = None; // (lml, ls, sv, nv)
    for &ls in &config.lengthscales {
        for &sv in &config.signal_variances {
            for &nv in &config.noise_variances {
                if let Some(lml) = ctx.score(ls, sv, nv) {
                    if best.map_or(true, |(b, ..)| lml > b) {
                        best = Some((lml, ls, sv, nv));
                    }
                }
            }
        }
    }
    let (mut best_lml, mut ls, mut sv, mut nv) = best.ok_or_else(|| GpError::InvalidData {
        reason: "no hyperparameter configuration produced a valid model".into(),
    })?;

    // Local multiplicative coordinate refinement around the grid optimum.
    for _ in 0..config.refinement_passes {
        for factor in [0.5, 2.0] {
            if let Some(lml) = ctx.score(ls * factor, sv, nv) {
                if lml > best_lml {
                    best_lml = lml;
                    ls *= factor;
                }
            }
            if let Some(lml) = ctx.score(ls, sv * factor, nv) {
                if lml > best_lml {
                    best_lml = lml;
                    sv *= factor;
                }
            }
            if let Some(lml) = ctx.score(ls, sv, nv * factor) {
                if lml > best_lml {
                    best_lml = lml;
                    nv *= factor;
                }
            }
        }
    }

    // The selected model's Gram is one more map of the same squared distances.
    let ScoreContext {
        squared_distances, ..
    } = ctx;
    let kernel = Kernel::isotropic(config.family, sv, ls)?;
    let model = GaussianProcess::fit_with_gram(xs, ys, kernel, nv, |kernel, _| {
        kernel.gram_from_squared_distances(&squared_distances)
    })?;
    let log_marginal_likelihood = model.log_marginal_likelihood();
    Ok(FittedModel {
        model,
        log_marginal_likelihood,
    })
}

/// Shared state of the grid/refinement scoring loop.
///
/// An isotropic stationary kernel depends on its inputs only through their squared
/// distance, and its Gram matrix factors as `σ² G(ℓ)` where `G` depends only on the
/// lengthscale. The context therefore computes the `O(n² d)` pairwise squared distances once
/// per search, maps them into a unit-signal-variance Gram per lengthscale in `O(n²)`, and
/// rescales that Gram across the whole (signal variance, noise variance) grid. What remains
/// per grid cell is one `O(n³)` Cholesky factorization. It also centres the targets once
/// and reuses one solve buffer.
struct ScoreContext {
    /// Pairwise squared distances of the training inputs.
    squared_distances: Matrix,
    centred: Vec<f64>,
    norm_term: f64,
    family: KernelFamily,
    /// Up to two `(lengthscale, unit-signal-variance Gram)` entries, most recent first. Two
    /// slots (not one) so the coordinate-refinement probes, which alternate between ℓ and
    /// ℓ·factor within a pass, never thrash the cache.
    unit_grams: Vec<(f64, Matrix)>,
    alpha: Vec<f64>,
}

impl ScoreContext {
    fn new(xs: &[Vec<f64>], ys: &[f64], family: KernelFamily) -> Self {
        let y_mean = vector::mean(ys);
        let centred: Vec<f64> = ys.iter().map(|y| y - y_mean).collect();
        let norm_term = -0.5 * ys.len() as f64 * (2.0 * std::f64::consts::PI).ln();
        ScoreContext {
            squared_distances: squared_distance_matrix(xs),
            centred,
            norm_term,
            family,
            unit_grams: Vec::with_capacity(2),
            alpha: Vec::new(),
        }
    }

    /// Scores one hyperparameter configuration by exact log marginal likelihood, returning
    /// `None` if the configuration is invalid or fails to factorize.
    fn score(
        &mut self,
        lengthscale: f64,
        signal_variance: f64,
        noise_variance: f64,
    ) -> Option<f64> {
        if !(signal_variance.is_finite() && signal_variance > 0.0) {
            return None;
        }
        if !(noise_variance.is_finite() && noise_variance >= 0.0) {
            return None;
        }
        if let Some(pos) = self
            .unit_grams
            .iter()
            .position(|(ls, _)| *ls == lengthscale)
        {
            self.unit_grams.swap(0, pos);
        } else {
            let kernel = Kernel::isotropic(self.family, 1.0, lengthscale).ok()?;
            let unit = kernel.gram_from_squared_distances(&self.squared_distances);
            self.unit_grams.insert(0, (lengthscale, unit));
            self.unit_grams.truncate(2);
        }
        let (_, unit) = &self.unit_grams[0];
        let mut k = unit.scale(signal_variance);
        k.add_diagonal(noise_variance.max(1e-10));
        let chol = Cholesky::new_with_jitter(&k, 1e-8, 8).ok()?;
        chol.solve_vec_into(&self.centred, &mut self.alpha).ok()?;
        let lml = -0.5 * vector::dot(&self.centred, &self.alpha) - 0.5 * chol.log_determinant()
            + self.norm_term;
        lml.is_finite().then_some(lml)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.25]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 2.0 + 1.0).collect();
        (xs, ys)
    }

    #[test]
    fn finds_model_that_beats_a_bad_default() {
        let (xs, ys) = smooth_data(16);
        let fitted = fit_with_hyperopt(xs.clone(), ys.clone(), &HyperoptConfig::default()).unwrap();
        let bad = GaussianProcess::fit(xs, ys, Kernel::rbf(0.01, 0.01), 1e-2).unwrap();
        assert!(fitted.log_marginal_likelihood > bad.log_marginal_likelihood());
    }

    #[test]
    fn selected_model_predicts_well() {
        let (xs, ys) = smooth_data(20);
        let fitted = fit_with_hyperopt(xs, ys, &HyperoptConfig::default()).unwrap();
        let (mean, _) = fitted.model.predict(&[1.1]).unwrap();
        let truth = (1.1f64).sin() * 2.0 + 1.0;
        assert!((mean - truth).abs() < 0.2, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn empty_grid_is_rejected() {
        let (xs, ys) = smooth_data(5);
        let config = HyperoptConfig {
            lengthscales: vec![],
            ..Default::default()
        };
        assert!(fit_with_hyperopt(xs, ys, &config).is_err());
    }

    #[test]
    fn invalid_data_is_rejected() {
        let config = HyperoptConfig::default();
        assert!(fit_with_hyperopt(vec![], vec![], &config).is_err());
    }

    #[test]
    fn refinement_never_hurts() {
        let (xs, ys) = smooth_data(14);
        let no_refine = HyperoptConfig {
            refinement_passes: 0,
            ..Default::default()
        };
        let refine = HyperoptConfig {
            refinement_passes: 3,
            ..Default::default()
        };
        let base = fit_with_hyperopt(xs.clone(), ys.clone(), &no_refine).unwrap();
        let refined = fit_with_hyperopt(xs, ys, &refine).unwrap();
        // Refinement may only improve the LML, up to accumulated round-off.
        if refined.log_marginal_likelihood < base.log_marginal_likelihood {
            tolerance::assert_close_abs(
                refined.log_marginal_likelihood,
                base.log_marginal_likelihood,
                1e-9,
                "refinement regressed the log marginal likelihood",
            );
        }
    }

    #[test]
    fn cached_gram_scoring_matches_a_direct_fit() {
        // The rescaled-Gram fast path must agree with building the model outright, including
        // when consecutive cells share a lengthscale and hit the cache.
        let (xs, ys) = smooth_data(12);
        let mut ctx = ScoreContext::new(&xs, &ys, KernelFamily::Matern52);
        for (ls, sv, nv) in [
            (0.5, 1.0, 1e-4),
            (0.5, 2.0, 1e-2), // cache hit on the unit Gram
            (1.5, 0.25, 1e-6),
        ] {
            let scored = ctx.score(ls, sv, nv).unwrap();
            let kernel = Kernel::isotropic(KernelFamily::Matern52, sv, ls).unwrap();
            let direct = GaussianProcess::fit(xs.clone(), ys.clone(), kernel, nv)
                .unwrap()
                .log_marginal_likelihood();
            tolerance::assert_close_abs(
                scored,
                direct,
                1e-9,
                &format!("cached-Gram score vs direct fit at ({ls}, {sv}, {nv})"),
            );
        }
        // Invalid cells are skipped, not fatal.
        assert!(ctx.score(1.0, -1.0, 1e-4).is_none());
        assert!(ctx.score(1.0, 1.0, f64::NAN).is_none());
        assert!(ctx.score(-1.0, 1.0, 1e-4).is_none());
    }

    #[test]
    fn selected_model_is_bit_identical_to_a_direct_fit() {
        // Past 8 points the search's distances run through full 4 × 4 tiles as well as
        // ragged edges.
        for (n, family) in [
            (9, KernelFamily::Matern52),
            (17, KernelFamily::SquaredExponential),
            (42, KernelFamily::Matern52),
        ] {
            let point = |i: usize| -> Vec<f64> {
                (0..5)
                    .map(|d| ((i * 5 + d + 1) as f64 * 0.618_033_988_749_895).fract() * 4.0 - 2.0)
                    .collect()
            };
            let xs: Vec<Vec<f64>> = (0..n).map(point).collect();
            let ys: Vec<f64> = xs.iter().map(|x| x[0].sin() + 0.5 * x[1] * x[2]).collect();
            // Signal variances that are not powers of two, so a Gram scaled in another
            // order than `Kernel::gram`'s would round differently.
            let config = HyperoptConfig {
                family,
                signal_variances: vec![0.3, 1.3, 2.7],
                ..Default::default()
            };
            let fitted = fit_with_hyperopt(xs.clone(), ys.clone(), &config).unwrap();
            let model = &fitted.model;
            let direct =
                GaussianProcess::fit(xs, ys, model.kernel().clone(), model.noise_variance())
                    .unwrap();
            assert_eq!(
                fitted.log_marginal_likelihood.to_bits(),
                direct.log_marginal_likelihood().to_bits(),
                "n = {n}"
            );
            let queries: Vec<Vec<f64>> = (n..n + 7).map(point).collect();
            let bits = |(mean, variance): (f64, f64)| (mean.to_bits(), variance.to_bits());
            for q in model.training_inputs().iter().chain(&queries) {
                assert_eq!(
                    bits(model.predict(q).unwrap()),
                    bits(direct.predict(q).unwrap())
                );
            }
            let batch = |gp: &GaussianProcess| -> Vec<_> {
                gp.predict_batch(&queries)
                    .unwrap()
                    .into_iter()
                    .map(bits)
                    .collect()
            };
            assert_eq!(batch(model), batch(&direct), "n = {n}");
        }
    }

    #[test]
    fn rbf_family_is_supported() {
        let (xs, ys) = smooth_data(10);
        let config = HyperoptConfig {
            family: KernelFamily::SquaredExponential,
            ..Default::default()
        };
        let fitted = fit_with_hyperopt(xs, ys, &config).unwrap();
        assert_eq!(
            fitted.model.kernel().family(),
            KernelFamily::SquaredExponential
        );
    }
}
