//! Exact Gaussian-process regression.

use crate::kernel::Kernel;
use crate::{GpError, Result};
use linalg::{vector, Cholesky, Matrix};

/// An exact Gaussian-process regressor with zero prior mean and i.i.d. observation noise,
/// matching the statistical model of the paper (§IV-A).
///
/// Internally the model stores the Cholesky factor of `K + σ_n² I` and the weight vector
/// `α = (K + σ_n² I)⁻¹ y`, so posterior predictions cost one kernel-vector product plus a
/// triangular solve.
///
/// # Examples
///
/// ```
/// use gp::{GaussianProcess, kernel::Kernel};
///
/// # fn main() -> Result<(), gp::GpError> {
/// let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 0.5]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin()).collect();
/// let gp = GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 1.0), 1e-6)?;
/// let (mean, var) = gp.predict(&[1.0])?;
/// assert!((mean - 1.0f64.sin()).abs() < 0.1);
/// assert!(var < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    y_mean: f64,
    kernel: Kernel,
    noise_variance: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    /// Centred targets `y - ȳ`, cached at fit/update time so the marginal likelihood (and
    /// target swaps) never re-centre on the fly.
    centred: Vec<f64>,
}

impl GaussianProcess {
    /// Fits a GP to the training pairs `(xs[i], ys[i])`.
    ///
    /// The targets are internally centred (their mean is subtracted and added back at
    /// prediction time) so the zero-mean prior is a reasonable default for objectives with a
    /// large offset such as execution times.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidData`] if the inputs are empty, of inconsistent dimension or
    /// mismatched lengths, [`GpError::InvalidHyperparameter`] for a negative noise variance,
    /// and [`GpError::Linalg`] if the kernel matrix cannot be factorized.
    pub fn fit(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        kernel: Kernel,
        noise_variance: f64,
    ) -> Result<Self> {
        Self::fit_with_gram(xs, ys, kernel, noise_variance, Kernel::gram)
    }

    /// [`fit`](Self::fit) with the kernel matrix built by `gram(&kernel, &xs)` once the
    /// inputs have passed `fit`'s validation. The hyperparameter search passes a map of the
    /// squared distances it has already computed; `gram` must return what
    /// [`Kernel::gram`] would. Counts one full fit in [`crate::stats`], like `fit`.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](Self::fit).
    pub(crate) fn fit_with_gram(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        kernel: Kernel,
        noise_variance: f64,
        gram: impl FnOnce(&Kernel, &[Vec<f64>]) -> Matrix,
    ) -> Result<Self> {
        validate_training_data(&xs, &ys)?;
        if !(noise_variance.is_finite() && noise_variance >= 0.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "noise_variance",
                value: noise_variance,
            });
        }

        let y_mean = vector::mean(&ys);
        let centred: Vec<f64> = ys.iter().map(|y| y - y_mean).collect();

        let chol = Self::factorize(gram(&kernel, &xs), noise_variance)?;
        let alpha = chol.solve_vec(&centred)?;

        Ok(GaussianProcess {
            xs,
            ys,
            y_mean,
            kernel,
            noise_variance,
            chol,
            alpha,
            centred,
        })
    }

    /// Factorizes `K + σ_n² I` from the kernel matrix `gram` with the crate's standard
    /// nugget floor and jitter retry policy. Shared by [`fit`](Self::fit) and the
    /// degenerate-extension fallback of the incremental update, so both paths produce the
    /// same factor for the same system — and both count as a from-scratch fit in
    /// [`crate::stats`], so the operation counters cannot miss a run that silently degrades
    /// into per-iteration refactorizations.
    fn factorize(mut gram: Matrix, noise_variance: f64) -> Result<Cholesky> {
        gram.add_diagonal(noise_variance.max(1e-10));
        let chol = Cholesky::new_with_jitter(&gram, 1e-8, 8)?;
        crate::stats::record_full_fit();
        Ok(chol)
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if the model has no training data (never true for a fitted model).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.xs[0].len()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Observation-noise variance σ_n².
    pub fn noise_variance(&self) -> f64 {
        self.noise_variance
    }

    /// Training inputs.
    pub fn training_inputs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Training targets (uncentred, as supplied).
    pub fn training_targets(&self) -> &[f64] {
        &self.ys
    }

    /// Mean of the training targets (the constant added back to predictions).
    pub fn target_mean(&self) -> f64 {
        self.y_mean
    }

    /// Posterior predictive mean and variance at a query point.
    ///
    /// The variance is the *latent* function variance (without observation noise), clamped at
    /// a tiny positive floor to protect downstream `ln σ` computations.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidData`] if the query dimension does not match the training
    /// dimension.
    pub fn predict(&self, x: &[f64]) -> Result<(f64, f64)> {
        if x.len() != self.dim() {
            return Err(GpError::InvalidData {
                reason: format!(
                    "query has dimension {} but the model expects {}",
                    x.len(),
                    self.dim()
                ),
            });
        }
        crate::stats::record_predict_point();
        let k_star = self.kernel.cross(x, &self.xs);
        let mean = self.y_mean + vector::dot(&k_star, &self.alpha);
        let v = self.chol.solve_lower(&k_star)?;
        let variance = (self.kernel.eval(x, x) - vector::dot(&v, &v)).max(1e-12);
        Ok((mean, variance))
    }

    /// Posterior predictive mean and variance for a whole block of query points.
    ///
    /// Builds the full cross-covariance matrix once ([`Kernel::cross_matrix`]) and answers
    /// every query with a single blocked forward substitution
    /// ([`linalg::Cholesky::solve_lower_matrix_in_place`]) instead of one `O(n²)` triangular
    /// solve per point: scoring `m` candidates costs one cache-contiguous `O(n² m)` pass and
    /// two allocations total. Each returned `(mean, variance)` pair is **bit-identical** to
    /// what [`predict`](Self::predict) returns for that query — the accumulation order of
    /// every dot product is preserved — so callers can batch opportunistically without
    /// changing results.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidData`] if any query dimension does not match the training
    /// dimension.
    pub fn predict_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<(f64, f64)>> {
        for q in queries {
            if q.len() != self.dim() {
                return Err(GpError::InvalidData {
                    reason: format!(
                        "query has dimension {} but the model expects {}",
                        q.len(),
                        self.dim()
                    ),
                });
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        crate::stats::record_predict_batch();
        let m = queries.len();
        // K* as an n x m block: row i holds k(xs[i], ·) against every query, contiguously.
        let mut k_star = self.kernel.cross_matrix(&self.xs, queries);

        // Posterior means: accumulate K*ᵀ α by streaming over the rows of K*, which adds the
        // i-th term of every query's dot product in the same ascending order as the scalar
        // `predict` path.
        let mut means = vec![0.0; m];
        for (i, &a) in self.alpha.iter().enumerate() {
            for (mean, k) in means.iter_mut().zip(k_star.row(i)) {
                *mean += k * a;
            }
        }

        // V = L⁻¹ K*: one blocked solve for the whole query block, then the posterior
        // variances are the per-column squared norms of V, again accumulated row by row.
        self.chol.solve_lower_matrix_in_place(&mut k_star)?;
        let mut squared = vec![0.0; m];
        for i in 0..self.len() {
            for (sq, v) in squared.iter_mut().zip(k_star.row(i)) {
                *sq += v * v;
            }
        }

        Ok(queries
            .iter()
            .zip(means.iter().zip(&squared))
            .map(|(q, (&mean, &sq))| {
                let variance = (self.kernel.eval(q, q) - sq).max(1e-12);
                (self.y_mean + mean, variance)
            })
            .collect())
    }

    /// Posterior predictive standard deviation at a query point.
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict).
    pub fn predict_std(&self, x: &[f64]) -> Result<(f64, f64)> {
        let (m, v) = self.predict(x)?;
        Ok((m, v.sqrt()))
    }

    /// Log marginal likelihood of the training data under the current hyperparameters
    /// (Rasmussen & Williams, Eq. 2.30). Used by [`crate::hyperopt`] for model selection.
    ///
    /// Uses the centred-target vector cached at fit/update time, so repeated calls do no
    /// per-call re-centring work beyond one `O(n)` dot product.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.len() as f64;
        let data_fit = -0.5 * vector::dot(&self.centred, &self.alpha);
        let complexity = -0.5 * self.chol.log_determinant();
        let norm = -0.5 * n * (2.0 * std::f64::consts::PI).ln();
        data_fit + complexity + norm
    }

    /// Returns the model extended with the inputs `new_xs`, with `ys` as the full
    /// replacement target vector (old and new points alike), reusing the cached Cholesky
    /// factor.
    ///
    /// This is the search loop's per-iteration update (Algorithm 1, line 6): new
    /// evaluations arrive *and* every target is re-standardized against the grown history.
    /// Instead of the seed's from-scratch `O(n³)` refit, the kernel matrix grows by one
    /// row/column per new input via [`linalg::Cholesky::extend`] in `O(n²)`, and the
    /// recentred weight vector `α` is recovered with one pair of triangular solves at the
    /// end — no call to [`fit`](Self::fit). The kernel matrix does not depend on the
    /// targets, so with no new inputs this is a target swap at the cost of those two solves.
    /// If an extension is numerically degenerate (e.g. a near-duplicate input makes the new
    /// pivot non-positive), the kernel matrix is refactorized from scratch with the standard
    /// jitter policy, so the method never fails where `fit` would have succeeded.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidData`] for dimension mismatches, a target vector whose
    /// length is not `self.len() + new_xs.len()`, or non-finite targets, and
    /// [`GpError::Linalg`] if even the jittered fallback cannot factorize.
    pub fn with_observations_and_targets(&self, new_xs: &[Vec<f64>], ys: Vec<f64>) -> Result<Self> {
        if ys.len() != self.len() + new_xs.len() {
            return Err(GpError::InvalidData {
                reason: format!(
                    "{} inputs but {} targets",
                    self.len() + new_xs.len(),
                    ys.len()
                ),
            });
        }
        if new_xs.iter().any(|x| x.len() != self.dim()) {
            return Err(GpError::InvalidData {
                reason: "inputs have inconsistent dimensions".into(),
            });
        }
        if ys.iter().any(|y| !y.is_finite()) {
            return Err(GpError::InvalidData {
                reason: "targets must be finite".into(),
            });
        }

        let mut xs = self.xs.clone();
        xs.reserve(new_xs.len());
        let mut chol = self.chol.clone();
        let mut degenerate = false;
        for x in new_xs {
            if !degenerate {
                let cross = self.kernel.cross(x, &xs);
                let diag = self.kernel.eval(x, x) + self.noise_variance.max(1e-10);
                match chol.extend(&cross, diag) {
                    Ok(()) => crate::stats::record_incremental_update(),
                    Err(linalg::LinalgError::NotPositiveDefinite { .. }) => degenerate = true,
                    Err(e) => return Err(e.into()),
                }
            }
            xs.push(x.clone());
        }
        if degenerate {
            chol = Self::factorize(self.kernel.gram(&xs), self.noise_variance)?;
        }

        let y_mean = vector::mean(&ys);
        let centred: Vec<f64> = ys.iter().map(|y| y - y_mean).collect();
        let alpha = chol.solve_vec(&centred)?;
        Ok(GaussianProcess {
            xs,
            ys,
            y_mean,
            kernel: self.kernel.clone(),
            noise_variance: self.noise_variance,
            chol,
            alpha,
            centred,
        })
    }
}

/// Rejects training data [`GaussianProcess::fit`] cannot use: no points, a target count
/// that differs from the input count, inputs without a shared positive dimension, or a
/// non-finite target.
pub(crate) fn validate_training_data(xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
    if xs.is_empty() {
        return Err(GpError::InvalidData {
            reason: "no training points".into(),
        });
    }
    if xs.len() != ys.len() {
        return Err(GpError::InvalidData {
            reason: format!("{} inputs but {} targets", xs.len(), ys.len()),
        });
    }
    let dim = xs[0].len();
    if dim == 0 {
        return Err(GpError::InvalidData {
            reason: "inputs must have at least one dimension".into(),
        });
    }
    if xs.iter().any(|x| x.len() != dim) {
        return Err(GpError::InvalidData {
            reason: "inputs have inconsistent dimensions".into(),
        });
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return Err(GpError::InvalidData {
            reason: "targets must be finite".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_gp() -> GaussianProcess {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
        let ys = vec![0.0, 0.8, 0.9, 0.1, -0.8];
        GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 1.0), 1e-6).unwrap()
    }

    #[test]
    fn interpolates_training_points_with_small_noise() {
        let gp = toy_gp();
        for (x, y) in gp.training_inputs().iter().zip(gp.training_targets()) {
            let (mean, var) = gp.predict(x).unwrap();
            assert!((mean - y).abs() < 1e-3, "mean {mean} vs target {y}");
            assert!(var < 1e-3);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let gp = toy_gp();
        let (_, var_near) = gp.predict(&[2.0]).unwrap();
        let (_, var_far) = gp.predict(&[10.0]).unwrap();
        assert!(var_far > var_near);
        // Far from all data the variance approaches the prior signal variance.
        assert!((var_far - 1.0).abs() < 0.05);
    }

    #[test]
    fn far_field_mean_reverts_to_target_mean() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![10.0, 12.0];
        let gp = GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 0.5), 1e-6).unwrap();
        let (mean, _) = gp.predict(&[100.0]).unwrap();
        assert!(
            (mean - 11.0).abs() < 1e-6,
            "far-field mean should revert to 11, got {mean}"
        );
    }

    #[test]
    fn validates_inputs() {
        let k = Kernel::rbf(1.0, 1.0);
        assert!(GaussianProcess::fit(vec![], vec![], k.clone(), 1e-6).is_err());
        assert!(GaussianProcess::fit(vec![vec![0.0]], vec![1.0, 2.0], k.clone(), 1e-6).is_err());
        assert!(GaussianProcess::fit(
            vec![vec![0.0], vec![1.0, 2.0]],
            vec![1.0, 2.0],
            k.clone(),
            1e-6
        )
        .is_err());
        assert!(GaussianProcess::fit(vec![vec![0.0]], vec![f64::NAN], k.clone(), 1e-6).is_err());
        assert!(GaussianProcess::fit(vec![vec![0.0]], vec![1.0], k.clone(), -1.0).is_err());
        assert!(GaussianProcess::fit(vec![vec![]], vec![1.0], k, 1e-6).is_err());
    }

    #[test]
    fn predict_rejects_wrong_dimension() {
        let gp = toy_gp();
        assert!(gp.predict(&[0.0, 1.0]).is_err());
    }

    #[test]
    fn log_marginal_likelihood_prefers_sensible_lengthscale() {
        // Data drawn from a smooth function: a ridiculous tiny lengthscale should have a
        // lower marginal likelihood than a moderate one.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.4]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.8).sin()).collect();
        let good = GaussianProcess::fit(xs.clone(), ys.clone(), Kernel::rbf(1.0, 1.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        let bad = GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 0.01), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        assert!(good > bad, "good {good} should exceed bad {bad}");
    }

    /// `gp` extended with the observations `(new_xs, new_ys)`, its own targets kept.
    fn with_observations(
        gp: &GaussianProcess,
        new_xs: &[Vec<f64>],
        new_ys: &[f64],
    ) -> Result<GaussianProcess> {
        let ys = gp
            .training_targets()
            .iter()
            .chain(new_ys)
            .copied()
            .collect();
        gp.with_observations_and_targets(new_xs, ys)
    }

    #[test]
    fn with_observation_extends_model() {
        let gp = toy_gp();
        let updated = with_observations(&gp, &[vec![5.0]], &[-1.5]).unwrap();
        assert_eq!(updated.len(), gp.len() + 1);
        let (mean, var) = updated.predict(&[5.0]).unwrap();
        assert!((mean + 1.5).abs() < 1e-2);
        assert!(var < 1e-2);
        // Original model is untouched.
        assert_eq!(gp.len(), 5);
    }

    #[test]
    fn incremental_update_matches_full_refit() {
        let gp = toy_gp();
        let incremental = with_observations(&gp, &[vec![5.0]], &[-1.5]).unwrap();
        let mut xs: Vec<Vec<f64>> = gp.training_inputs().to_vec();
        let mut ys: Vec<f64> = gp.training_targets().to_vec();
        xs.push(vec![5.0]);
        ys.push(-1.5);
        let full = GaussianProcess::fit(xs, ys, gp.kernel().clone(), gp.noise_variance()).unwrap();
        for q in [-1.0, 0.7, 2.2, 5.0, 8.0] {
            let (mi, vi) = incremental.predict(&[q]).unwrap();
            let (mf, vf) = full.predict(&[q]).unwrap();
            assert!((mi - mf).abs() < 1e-8, "mean diverged at {q}: {mi} vs {mf}");
            assert!(
                (vi - vf).abs() < 1e-8,
                "variance diverged at {q}: {vi} vs {vf}"
            );
        }
        assert!(
            (incremental.log_marginal_likelihood() - full.log_marginal_likelihood()).abs() < 1e-8
        );
    }

    #[test]
    fn with_observations_appends_a_batch() {
        let gp = toy_gp();
        let updated = with_observations(&gp, &[vec![5.0], vec![6.0]], &[-1.5, -0.9]).unwrap();
        assert_eq!(updated.len(), 7);
        let (mean, _) = updated.predict(&[6.0]).unwrap();
        assert!((mean + 0.9).abs() < 1e-2);
        // Empty batch is the identity.
        let same = with_observations(&gp, &[], &[]).unwrap();
        assert_eq!(same.len(), gp.len());
        assert_eq!(same.predict(&[1.3]).unwrap(), gp.predict(&[1.3]).unwrap());
    }

    #[test]
    fn with_observations_and_targets_matches_the_two_step_update() {
        let gp = toy_gp();
        let new_xs = vec![vec![5.0], vec![6.0]];
        // Re-scaled targets for all seven points, as the search loop produces.
        let full_ys: Vec<f64> = vec![0.0, 0.4, 0.45, 0.05, -0.4, -0.75, -0.45];
        let one_step = gp
            .with_observations_and_targets(&new_xs, full_ys.clone())
            .unwrap();
        let two_step = with_observations(&gp, &new_xs, &full_ys[5..])
            .unwrap()
            .with_observations_and_targets(&[], full_ys.clone())
            .unwrap();
        assert_eq!(one_step.training_targets(), full_ys.as_slice());
        for q in [0.3, 2.1, 5.5, 7.0] {
            assert_eq!(
                one_step.predict(&[q]).unwrap(),
                two_step.predict(&[q]).unwrap()
            );
        }
        // Length mismatch between targets and total inputs is rejected.
        assert!(gp
            .with_observations_and_targets(&new_xs, vec![0.0; 5])
            .is_err());
    }

    #[test]
    fn with_observations_validates_input() {
        let gp = toy_gp();
        assert!(with_observations(&gp, &[vec![1.0]], &[]).is_err());
        assert!(with_observations(&gp, &[vec![1.0, 2.0]], &[0.5]).is_err());
        assert!(with_observations(&gp, &[vec![1.0]], &[f64::NAN]).is_err());
    }

    #[test]
    fn duplicate_observation_falls_back_to_jittered_refactorization() {
        // Appending an exact duplicate of a training point with ~zero noise makes the
        // extended kernel matrix numerically singular: the rank-one extension must detect
        // the non-positive pivot and recover via the jittered from-scratch path.
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0.3, 0.9];
        let gp = GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 1.0), 0.0).unwrap();
        let updated = with_observations(&gp, &[vec![1.0]], &[0.9]).unwrap();
        assert_eq!(updated.len(), 3);
        let (mean, _) = updated.predict(&[1.0]).unwrap();
        assert!((mean - 0.9).abs() < 1e-2);
    }

    #[test]
    fn with_targets_swaps_targets_without_refactorizing() {
        let gp = toy_gp();
        let flipped: Vec<f64> = gp.training_targets().iter().map(|y| -y).collect();
        let swapped = gp
            .with_observations_and_targets(&[], flipped.clone())
            .unwrap();
        let refit = GaussianProcess::fit(
            gp.training_inputs().to_vec(),
            flipped,
            gp.kernel().clone(),
            gp.noise_variance(),
        )
        .unwrap();
        for q in [0.5, 2.5, 6.0] {
            let (ms, vs) = swapped.predict(&[q]).unwrap();
            let (mr, vr) = refit.predict(&[q]).unwrap();
            assert!((ms - mr).abs() < 1e-10);
            assert!((vs - vr).abs() < 1e-10);
        }
        assert!(gp.with_observations_and_targets(&[], vec![1.0]).is_err());
        assert!(gp
            .with_observations_and_targets(&[], vec![f64::INFINITY; 5])
            .is_err());
    }

    #[test]
    fn predict_batch_is_bit_identical_to_per_point_predict() {
        let gp = toy_gp();
        let queries: Vec<Vec<f64>> = (-3..8).map(|i| vec![i as f64 * 0.77]).collect();
        let batch = gp.predict_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, pair) in queries.iter().zip(&batch) {
            assert_eq!(*pair, gp.predict(q).unwrap(), "diverged at query {q:?}");
        }
        assert!(gp.predict_batch(&[]).unwrap().is_empty());
        assert!(gp.predict_batch(&[vec![0.0, 1.0]]).is_err());
    }

    #[test]
    fn noisy_observations_smooth_the_fit() {
        let xs = vec![vec![0.0], vec![0.0]];
        let ys = vec![1.0, -1.0];
        // Two conflicting observations at the same point: with noise the posterior mean is
        // their average.
        let gp = GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 1.0), 0.5).unwrap();
        let (mean, _) = gp.predict(&[0.0]).unwrap();
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn accessors_report_configuration() {
        let gp = toy_gp();
        assert_eq!(gp.len(), 5);
        assert!(!gp.is_empty());
        assert_eq!(gp.dim(), 1);
        assert_eq!(gp.noise_variance(), 1e-6);
        assert_eq!(gp.training_targets().len(), 5);
        assert!((gp.target_mean() - 0.2).abs() < 1e-12);
        assert_eq!(gp.kernel().signal_variance(), 1.0);
    }

    #[test]
    fn multi_dimensional_inputs_work() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0.0, 1.0, 1.0, 2.0];
        let gp = GaussianProcess::fit(xs, ys, Kernel::matern52(1.0, 1.0), 1e-6).unwrap();
        let (mean, _) = gp.predict(&[0.5, 0.5]).unwrap();
        assert!((mean - 1.0).abs() < 0.2);
    }
}
