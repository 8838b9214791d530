//! Stationary covariance functions.
//!
//! PaRMIS places independent GP priors over the policy-parameter space. Two standard
//! stationary kernels are provided, each with one isotropic lengthscale shared by every
//! input dimension.

use crate::{GpError, Result};
use linalg::{vector, Matrix, RowPanels};

/// Family of the stationary kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFamily {
    /// Squared-exponential (RBF / Gaussian) kernel: infinitely smooth samples.
    SquaredExponential,
    /// Matérn-5/2 kernel: twice-differentiable samples, the usual BO default.
    Matern52,
}

/// A stationary covariance function `k(x, x') = σ² g(r)` where `r` is the scaled distance.
///
/// # Examples
///
/// ```
/// use gp::kernel::Kernel;
///
/// let k = Kernel::rbf(1.0, 0.5);
/// // A kernel evaluated at identical inputs returns the signal variance.
/// assert!((k.eval(&[0.3, 0.7], &[0.3, 0.7]) - 1.0).abs() < 1e-12);
/// // Covariance decays with distance.
/// assert!(k.eval(&[0.0, 0.0], &[1.0, 1.0]) < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    family: KernelFamily,
    signal_variance: f64,
    lengthscale: f64,
}

impl Kernel {
    /// Creates a squared-exponential kernel with an isotropic lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `signal_variance` or `lengthscale` is not strictly positive and finite.
    pub fn rbf(signal_variance: f64, lengthscale: f64) -> Self {
        Self::isotropic(
            KernelFamily::SquaredExponential,
            signal_variance,
            lengthscale,
        )
        .expect("rbf constructor arguments must be positive and finite")
    }

    /// Creates a Matérn-5/2 kernel with an isotropic lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `signal_variance` or `lengthscale` is not strictly positive and finite.
    pub fn matern52(signal_variance: f64, lengthscale: f64) -> Self {
        Self::isotropic(KernelFamily::Matern52, signal_variance, lengthscale)
            .expect("matern52 constructor arguments must be positive and finite")
    }

    /// Creates an isotropic kernel of the given family, validating the hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidHyperparameter`] if a hyperparameter is non-positive or
    /// non-finite.
    pub fn isotropic(family: KernelFamily, signal_variance: f64, lengthscale: f64) -> Result<Self> {
        for (name, value) in [
            ("signal_variance", signal_variance),
            ("lengthscale", lengthscale),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(GpError::InvalidHyperparameter { name, value });
            }
        }
        Ok(Kernel {
            family,
            signal_variance,
            lengthscale,
        })
    }

    /// Kernel family.
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Signal variance σ².
    pub fn signal_variance(&self) -> f64 {
        self.signal_variance
    }

    /// Lengthscale ℓ, shared by every input dimension.
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// Returns a copy of this kernel with a different isotropic lengthscale, preserving the
    /// family and signal variance. Used by the hyperparameter search.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidHyperparameter`] if the new value is invalid.
    pub fn with_lengthscale(&self, lengthscale: f64) -> Result<Self> {
        Self::isotropic(self.family, self.signal_variance, lengthscale)
    }

    /// Returns a copy of this kernel with a different signal variance.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidHyperparameter`] if the new value is invalid.
    pub fn with_signal_variance(&self, signal_variance: f64) -> Result<Self> {
        Self::isotropic(self.family, signal_variance, self.lengthscale)
    }

    /// Scaled squared distance `‖x − y‖² / ℓ²`, the first step of [`eval`](Self::eval).
    fn scaled_sq_dist(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "kernel inputs must share dimension");
        self.scaled(vector::squared_distance(x, y))
    }

    /// A squared distance divided by ℓ², exactly as [`eval`](Self::eval) scales it.
    fn scaled(&self, squared_distance: f64) -> f64 {
        squared_distance / (self.lengthscale * self.lengthscale)
    }

    /// Covariance at the scaled squared distance `r2`, the second step of
    /// [`eval`](Self::eval). Every Gram and cross-covariance entry goes through it.
    fn covariance(&self, r2: f64) -> f64 {
        match self.family {
            KernelFamily::SquaredExponential => self.signal_variance * (-0.5 * r2).exp(),
            KernelFamily::Matern52 => {
                let r = r2.sqrt();
                let sqrt5_r = 5.0f64.sqrt() * r;
                self.signal_variance * (1.0 + sqrt5_r + 5.0 * r2 / 3.0) * (-sqrt5_r).exp()
            }
        }
    }

    /// Evaluates the covariance between two points.
    ///
    /// # Panics
    ///
    /// Panics if the points have different dimensions.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.covariance(self.scaled_sq_dist(x, y))
    }

    /// Builds the Gram matrix `K[i][j] = k(xs[i], xs[j])`, every entry bit-identical to
    /// [`eval`](Self::eval) on its pair.
    ///
    /// The kernel depends on its inputs only through their squared distance, so it maps the
    /// pairwise squared distances, the lower triangle walked by
    /// [`RowPanels::lower_squared_distances`] and mirrored, through its covariance.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`eval`](Self::eval).
    pub fn gram(&self, xs: &[Vec<f64>]) -> Matrix {
        self.gram_from_squared_distances(&squared_distance_matrix(xs))
    }

    /// The Gram matrix over inputs whose pairwise squared distances are
    /// `squared_distances` (from [`squared_distance_matrix`]): an `O(n²)` element-wise map,
    /// bit-identical to [`gram`](Self::gram) over those inputs. Only the lower triangle is
    /// mapped and then mirrored, which is exact because the distances are symmetric. A
    /// hyperparameter search computes the distances once and maps them per lengthscale.
    pub(crate) fn gram_from_squared_distances(&self, squared_distances: &Matrix) -> Matrix {
        let n = squared_distances.rows();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let value = self.covariance(self.scaled(squared_distances[(i, j)]));
                out[(i, j)] = value;
                out[(j, i)] = value;
            }
        }
        out
    }

    /// Builds the cross-covariance vector between a query point and the training inputs.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`eval`](Self::eval).
    pub fn cross(&self, x: &[f64], xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|xi| self.eval(x, xi)).collect()
    }

    /// Builds the cross-covariance matrix `K[i][j] = k(xs[i], queries[j])` between the
    /// training inputs (rows) and a block of query points (columns) as one row-major
    /// allocation, every entry bit-identical to [`eval`](Self::eval) on its pair.
    ///
    /// This is the batched counterpart of [`cross`](Self::cross), ready to be handed to a
    /// blocked triangular solve. It packs the training inputs once, walks the queries
    /// against them in point tiles ([`RowPanels::squared_distances`]) and maps the squared
    /// distances through its covariance in place.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`eval`](Self::eval).
    pub fn cross_matrix(&self, xs: &[Vec<f64>], queries: &[Vec<f64>]) -> Matrix {
        let mut k = squared_distances(xs, queries);
        for entry in k.as_mut_slice() {
            *entry = self.covariance(self.scaled(*entry));
        }
        k
    }
}

/// Pairwise squared distances `‖xs[i] − xs[j]‖²` as a symmetric matrix, every entry
/// bit-identical to [`vector::squared_distance`] on its pair, in either order: the lower
/// triangle walked by [`RowPanels::lower_squared_distances`] and mirrored.
///
/// # Panics
///
/// Panics if the inputs differ in dimension.
pub(crate) fn squared_distance_matrix(xs: &[Vec<f64>]) -> Matrix {
    let n = xs.len();
    let mut out = Matrix::zeros(n, n);
    let data = out.as_mut_slice();
    packed(xs).lower_squared_distances(
        |j| &xs[j],
        |rows, first, sums| {
            for (j, column) in (first..).zip(sums.iter()) {
                for (i, entry) in rows.clone().zip(column) {
                    data[i * n + j] = *entry;
                    data[j * n + i] = *entry;
                }
            }
        },
    );
    out
}

/// `xs` packed into [`RowPanels`].
///
/// # Panics
///
/// Panics if the inputs differ in dimension.
fn packed(xs: &[Vec<f64>]) -> RowPanels {
    let dim = xs.first().map_or(0, Vec::len);
    RowPanels::from_rows(xs.len(), dim, |i, row| {
        assert_eq!(xs[i].len(), dim, "kernel inputs must share dimension");
        row.copy_from_slice(&xs[i]);
    })
}

/// The `xs.len() × ys.len()` matrix of squared distances `‖xs[i] − ys[j]‖²`, every entry
/// bit-identical to [`vector::squared_distance`]`(xs[i], ys[j])`: `xs` packed into
/// [`RowPanels`] and walked against every `ys[j]`.
///
/// # Panics
///
/// Panics if the inputs differ in dimension.
fn squared_distances(xs: &[Vec<f64>], ys: &[Vec<f64>]) -> Matrix {
    let mut out = Matrix::zeros(xs.len(), ys.len());
    let cols = ys.len();
    let data = out.as_mut_slice();
    packed(xs).squared_distances(
        cols,
        |j| &ys[j],
        |rows, first, sums| {
            for (j, column) in (first..).zip(sums.iter()) {
                for (i, entry) in rows.clone().zip(column) {
                    data[i * cols + j] = *entry;
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbf_properties() {
        let k = Kernel::rbf(2.0, 1.0);
        assert_eq!(k.family(), KernelFamily::SquaredExponential);
        assert!((k.eval(&[0.0], &[0.0]) - 2.0).abs() < 1e-12);
        // Symmetry.
        assert_eq!(k.eval(&[0.0], &[1.0]), k.eval(&[1.0], &[0.0]));
        // Monotone decay with distance.
        assert!(k.eval(&[0.0], &[0.5]) > k.eval(&[0.0], &[1.5]));
        // Known value: exp(-0.5) at unit distance with unit lengthscale.
        assert!((k.eval(&[0.0], &[1.0]) / 2.0 - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn matern_properties() {
        let k = Kernel::matern52(1.0, 2.0);
        assert_eq!(k.family(), KernelFamily::Matern52);
        assert!((k.eval(&[1.0, 1.0], &[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(k.eval(&[0.0], &[1.0]) > k.eval(&[0.0], &[3.0]));
        assert!(k.eval(&[0.0], &[10.0]) < 0.05);
    }

    #[test]
    fn matern_is_rougher_than_rbf_at_long_range() {
        // At several lengthscales of separation the Matérn kernel retains more covariance
        // than the RBF (heavier tail).
        let rbf = Kernel::rbf(1.0, 1.0);
        let mat = Kernel::matern52(1.0, 1.0);
        assert!(mat.eval(&[0.0], &[3.0]) > rbf.eval(&[0.0], &[3.0]));
    }

    #[test]
    fn constructor_validation() {
        assert!(Kernel::isotropic(KernelFamily::SquaredExponential, -1.0, 1.0).is_err());
        assert!(Kernel::isotropic(KernelFamily::SquaredExponential, 1.0, 0.0).is_err());
        assert!(Kernel::isotropic(KernelFamily::Matern52, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn with_methods_replace_hyperparameters() {
        let k = Kernel::rbf(1.0, 1.0);
        let k2 = k.with_lengthscale(2.0).unwrap();
        assert_eq!(k2.lengthscale(), 2.0);
        let k3 = k.with_signal_variance(4.0).unwrap();
        assert_eq!(k3.signal_variance(), 4.0);
        assert!(k.with_lengthscale(-1.0).is_err());
        assert!(k.with_signal_variance(0.0).is_err());
    }

    /// `n` deterministic, irregular points in `[-1, 1)^dim`; `salt` varies the set.
    fn irregular_points(n: usize, dim: usize, salt: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| {
                        let t = ((i * dim + d) * 7 + salt + 1) as f64 * 0.618_033_988_749_895;
                        t.fract() * 2.0 - 1.0
                    })
                    .collect()
            })
            .collect()
    }

    /// Point counts below, on and past one 8-row panel and every tile width of the packed
    /// walk.
    const TILE_EDGE_SIZES: [usize; 7] = [1, 3, 4, 6, 8, 9, 17];

    /// Kernels of both families, for 3-dimensional inputs.
    fn three_dimensional_kernels() -> [Kernel; 2] {
        [Kernel::rbf(1.5, 0.7), Kernel::matern52(0.8, 1.2)]
    }

    /// Checks the Gram matrix against `eval` on the copy this CPU dispatches to and on the
    /// portable one.
    fn assert_gram_matches_eval(kernel: &Kernel, xs: &[Vec<f64>]) {
        assert_gram_copy_matches_eval(kernel, xs, kernel.gram(xs));
        assert_gram_copy_matches_eval(kernel, xs, linalg::simd::portable(|| kernel.gram(xs)));
    }

    fn assert_gram_copy_matches_eval(kernel: &Kernel, xs: &[Vec<f64>], g: Matrix) {
        let n = xs.len();
        assert_eq!(g.shape(), (n, n));
        for i in 0..n {
            assert_eq!(g[(i, i)], kernel.signal_variance());
            for j in 0..n {
                let want = kernel.eval(&xs[i], &xs[j]);
                assert_eq!(g[(i, j)].to_bits(), want.to_bits(), "({i},{j}) of {n}");
                assert_eq!(g[(i, j)].to_bits(), g[(j, i)].to_bits(), "({i},{j}) of {n}");
            }
        }
    }

    #[test]
    fn gram_matrix_is_symmetric_with_signal_diagonal() {
        for kernel in three_dimensional_kernels() {
            for n in TILE_EDGE_SIZES {
                assert_gram_matches_eval(&kernel, &irregular_points(n, 3, n));
            }
        }
        // The paper's dimension at the largest training set of a 300-iteration search.
        assert_gram_matches_eval(&Kernel::matern52(1.0, 12.0), &irregular_points(300, 501, 0));
    }

    /// Checks `cross_matrix` against `cross` on the copy this CPU dispatches to and on the
    /// portable one.
    fn assert_cross_matrix_matches_cross(kernel: &Kernel, xs: &[Vec<f64>], queries: &[Vec<f64>]) {
        let dispatched = kernel.cross_matrix(xs, queries);
        let portable = linalg::simd::portable(|| kernel.cross_matrix(xs, queries));
        for m in [dispatched, portable] {
            assert_eq!(m.shape(), (xs.len(), queries.len()));
            for (j, q) in queries.iter().enumerate() {
                for (i, ci) in kernel.cross(q, xs).iter().enumerate() {
                    assert_eq!(m[(i, j)].to_bits(), ci.to_bits(), "mismatch at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn cross_covariance_matches_elementwise_eval() {
        let k = Kernel::matern52(1.0, 1.0);
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        let c = k.cross(&[0.5], &xs);
        for (i, xi) in xs.iter().enumerate() {
            assert_eq!(c[i], k.eval(&[0.5], xi));
        }
    }

    #[test]
    fn cross_matrix_matches_per_point_cross() {
        for kernel in three_dimensional_kernels() {
            for n in TILE_EDGE_SIZES {
                for m in TILE_EDGE_SIZES {
                    let xs = irregular_points(n, 3, 1);
                    let queries = irregular_points(m, 3, 2);
                    assert_cross_matrix_matches_cross(&kernel, &xs, &queries);
                }
            }
        }
        // The acquisition's block: 300 training inputs × 128 candidates at the paper's
        // dimension.
        assert_cross_matrix_matches_cross(
            &Kernel::matern52(1.0, 12.0),
            &irregular_points(300, 501, 3),
            &irregular_points(128, 501, 4),
        );
    }

    #[test]
    #[should_panic]
    fn eval_rejects_dimension_mismatch() {
        Kernel::rbf(1.0, 1.0).eval(&[0.0], &[0.0, 1.0]);
    }
}
