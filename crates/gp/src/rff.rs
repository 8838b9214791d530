//! Random Fourier feature (RFF) approximation and posterior function sampling.
//!
//! PaRMIS needs to draw *entire functions* from each objective's GP posterior so that a cheap
//! multi-objective solver (NSGA-II) can optimize the sampled functions and produce a sampled
//! Pareto front O*_s (paper §IV-B, step 1, citing Rahimi & Recht 2008). The standard recipe:
//!
//! 1. Approximate the stationary kernel with `M` random features
//!    `φ(x) = √(2σ²/M) · cos(Wx + b)` where the rows of `W` are drawn from the kernel's
//!    spectral density and `b ~ U[0, 2π)`.
//! 2. The GP becomes Bayesian linear regression over `φ`; its weight posterior is Gaussian
//!    with mean `μ = A⁻¹Φᵀy` and covariance `σ_n²A⁻¹` where `A = ΦᵀΦ + σ_n²I`.
//! 3. With `A = LLᵀ` factored once for the mean, a weight draw is `w = μ + σ_n·L⁻ᵀz` for
//!    standard-normal `z`: `Cov(L⁻ᵀz) = (LLᵀ)⁻¹ = A⁻¹`, so the draw has the posterior
//!    covariance without inverting `A` or factoring it twice. Each draw yields a
//!    deterministic, cheap-to-evaluate sample function `f̃(x) = φ(x)ᵀw`.
//!
//! # Batched evaluation
//!
//! NSGA-II asks a sampled function for a whole population at a time, so
//! [`PosteriorSample::eval_batch_into`] answers a row-major block of query points in one
//! pass: the feature products `frequencies × Xᵀ` followed by a `cos`/weight sweep. At the
//! paper's shape (θ ∈ ℝ⁵⁰¹, 150 features, 40 points) the products are nearly all of the
//! work, ~1000 flops per feature and point against one `cos`.
//!
//! [`RffSampler::new`] therefore stores the frequencies only once, as [`RowPanels`]: `k`-major
//! panels of 8 features, drawn in the same RNG order as a row-major matrix. Each row is
//! drawn with `fastmath`'s blocked Box–Muller ([`fastmath::normal::fill_standard_normal`]),
//! which takes the same uniforms in the same order as per-element `StandardNormal` draws;
//! the draw is the same on both precision tiers.
//!
//! The two tiers walk the panels differently:
//!
//! - [`Precision::SeedExact`], the reference tier, takes [`RowPanels::dots`]: one step
//!   updates 8 features × 4 points on AVX2 when the CPU has it (checked at run time), and
//!   every sum runs in the same order as [`vector::dot`] over the frequency row as drawn.
//!   Each term is `(scale·cos(wx + b))·w` with libm `cos`.
//! - [`Precision::Fast`] takes [`RowPanels::fused_dots`]: in-order `mul_add` chains,
//!   8 features × 6 points per step on AVX2 + FMA. The phases are added to a whole
//!   8-feature tile and [`fastmath::fast_cos_block`] runs over it inside the walk's SIMD
//!   copy; each term is `(scale·w)·cos`.
//!
//! On both, every point takes its features in ascending order, so batched answers are
//! **bit-identical** to the per-point [`PosteriorSample::eval`], which runs the same walk on
//! a one-point tile, on any instruction set. The training-set feature matrix Φ inside
//! [`RffSampler::new`] is tier-independent: unfused products and libm `cos`. Sampler and
//! sample share the panels and phases through `Arc`, and [`RffSampler::sample_with`] reuses
//! a caller-provided [`WeightScratch`] across draws, so a warm acquisition loop draws and
//! evaluates sample functions without reallocating its feature machinery;
//! `crates/bench/tests/allocation_contracts.rs` counts the allocations.

use crate::kernel::{Kernel, KernelFamily};
use crate::{GaussianProcess, GpError, Result};
use fastmath::Precision;
use linalg::{vector, Cholesky, Matrix, RowPanels};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{ChiSquared, Distribution, StandardNormal};
use std::sync::Arc;

/// Factory for posterior function samples of a fitted [`GaussianProcess`].
///
/// # Examples
///
/// ```
/// use gp::{GaussianProcess, RffSampler, kernel::Kernel};
///
/// # fn main() -> Result<(), gp::GpError> {
/// let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.4]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| x[0].cos()).collect();
/// let gp = GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 1.0), 1e-4)?;
/// let sampler = RffSampler::new(&gp, 200, 42)?;
/// let f = sampler.sample(7)?;
/// // The sampled function should roughly agree with the posterior mean near the data.
/// let (mean, _) = gp.predict(&[2.0])?;
/// assert!((f.eval(&[2.0]) - mean).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RffSampler {
    /// Random feature frequencies, one row per feature (shared with every drawn sample).
    frequencies: Arc<RowPanels>,
    /// Random phase offsets, one per feature (shared with every drawn sample).
    phases: Arc<Vec<f64>>,
    /// Feature scaling √(2σ²/M).
    feature_scale: f64,
    /// Posterior mean `μ` of the feature weights.
    weight_mean: Vec<f64>,
    /// Cholesky factor `L` of the weight precision `A = ΦᵀΦ + σ_n²I`.
    chol_a: Cholesky,
    /// Noise standard deviation `σ_n`, the scale of a draw's `L⁻ᵀz` term.
    noise_std: f64,
    /// Constant added back to every prediction (training-target mean).
    offset: f64,
    /// Which math tier drawn samples evaluate on (construction and weight draws are
    /// tier-independent; only the products and the cosine in `eval`/`eval_batch_into`
    /// differ).
    precision: Precision,
}

/// A single deterministic function drawn from the GP posterior.
///
/// The frequencies and phases are shared with the originating [`RffSampler`] (and its
/// sibling samples) through `Arc`; only the weight vector is owned per sample.
#[derive(Debug, Clone)]
pub struct PosteriorSample {
    frequencies: Arc<RowPanels>,
    phases: Arc<Vec<f64>>,
    feature_scale: f64,
    weights: Vec<f64>,
    offset: f64,
    precision: Precision,
}

/// Reusable buffers for the weight draw inside [`RffSampler::sample_with`].
///
/// Holds the iid standard-normal vector `z` and its correlated image `L⁻ᵀz`; both retain
/// capacity across draws, so a warm scratch makes each sample's only allocation the weight
/// vector the returned [`PosteriorSample`] owns.
#[derive(Debug, Clone, Default)]
pub struct WeightScratch {
    /// iid standard-normal draws, one per feature.
    z: Vec<f64>,
    /// `L⁻ᵀz` where `L` is the Cholesky factor of the weight precision `A`.
    correlated: Vec<f64>,
}

impl RffSampler {
    /// Builds a sampler for `gp` using `num_features` random Fourier features.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidData`] if `num_features == 0` and propagates linear-algebra
    /// failures while forming the weight posterior.
    pub fn new(gp: &GaussianProcess, num_features: usize, seed: u64) -> Result<Self> {
        if num_features == 0 {
            return Err(GpError::InvalidData {
                reason: "num_features must be positive".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = gp.dim();
        let kernel = gp.kernel();
        let m = num_features;

        let frequencies =
            RowPanels::from_rows(m, dim, |_, row| draw_frequencies(kernel, &mut rng, row));
        let phases: Vec<f64> = (0..m)
            .map(|_| rng.gen_range(0.0..(2.0 * std::f64::consts::PI)))
            .collect();
        let feature_scale = (2.0 * kernel.signal_variance() / m as f64).sqrt();

        // Feature matrix over the training inputs, stored transposed: row j of Φᵀ is
        // feature j at every training input.
        let xs = gp.training_inputs();
        let n = xs.len();
        let mut phi_t = Matrix::zeros(m, n);
        frequencies.dots(
            n,
            |i| &xs[i],
            |rows, first, sums| {
                for (i, projections) in (first..).zip(sums.iter()) {
                    for (j, wx) in rows.clone().zip(projections) {
                        phi_t[(j, i)] = feature_scale * (*wx + phases[j]).cos();
                    }
                }
            },
        );

        // Weight posterior: A = ΦᵀΦ + σ_n² I = L Lᵀ, mean = A⁻¹ Φᵀ y_c, cov = σ_n² A⁻¹.
        let noise = gp.noise_variance().max(1e-8);
        let mut a = row_products(&phi_t);
        a.add_diagonal(noise);
        let chol_a = Cholesky::new_with_jitter(&a, 1e-10, 10)?;

        let y_centred: Vec<f64> = gp
            .training_targets()
            .iter()
            .map(|y| y - gp.target_mean())
            .collect();
        let phi_t_y = phi_t.mat_vec(&y_centred)?;
        let weight_mean = chol_a.solve_vec(&phi_t_y)?;

        Ok(RffSampler {
            frequencies: Arc::new(frequencies),
            phases: Arc::new(phases),
            feature_scale,
            weight_mean,
            chol_a,
            noise_std: noise.sqrt(),
            offset: gp.target_mean(),
            precision: Precision::SeedExact,
        })
    }

    /// Returns this sampler drawing samples that evaluate on the given math tier.
    ///
    /// Frequencies, phases and the weight posterior are identical across tiers (the
    /// spectral draw happens at construction, before the knob applies); only
    /// [`PosteriorSample::eval`] / [`PosteriorSample::eval_batch_into`] switch, under
    /// [`Precision::Fast`] to fused feature products and [`fastmath::fast_cos_block`]
    /// (each cosine within `1e-12` absolute of libm's).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The math tier drawn samples evaluate on.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of random features in use.
    pub fn num_features(&self) -> usize {
        self.phases.len()
    }

    /// Input dimensionality of sampled functions.
    pub fn dim(&self) -> usize {
        self.frequencies.row_len()
    }

    /// Draws one posterior function sample. Different seeds give independent samples;
    /// the same seed reproduces the same function.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures (which cannot occur for a well-formed sampler).
    pub fn sample(&self, seed: u64) -> Result<PosteriorSample> {
        self.sample_with(seed, &mut WeightScratch::default())
    }

    /// [`sample`](Self::sample) with a caller-provided weight-draw scratch.
    ///
    /// Bit-identical to `sample` for the same seed; reusing `scratch` across draws (the
    /// acquisition loop draws one function per objective per iteration) removes the
    /// per-draw normal and correlated-vector allocations.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures (which cannot occur for a well-formed sampler).
    pub fn sample_with(&self, seed: u64, scratch: &mut WeightScratch) -> Result<PosteriorSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = self.num_features();
        scratch.z.clear();
        scratch.z.extend((0..m).map(|_| {
            let z: f64 = StandardNormal.sample(&mut rng);
            z
        }));
        self.chol_a
            .solve_upper_into(&scratch.z, &mut scratch.correlated)?;
        let mut weights = self.weight_mean.clone();
        vector::axpy(self.noise_std, &scratch.correlated, &mut weights);
        Ok(PosteriorSample {
            frequencies: Arc::clone(&self.frequencies),
            phases: Arc::clone(&self.phases),
            feature_scale: self.feature_scale,
            weights,
            offset: self.offset,
            precision: self.precision,
        })
    }

    /// Evaluates the posterior *mean* of the RFF approximation at `x` (useful for testing the
    /// fidelity of the approximation against the exact GP).
    pub fn approximate_mean(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        let mut acc = 0.0;
        self.frequencies.dots(
            1,
            |_| x,
            |rows, _, sums| {
                for (j, wx) in rows.zip(&sums[0]) {
                    acc += (self.feature_scale * (wx + self.phases[j]).cos()) * self.weight_mean[j];
                }
            },
        );
        acc + self.offset
    }
}

impl PosteriorSample {
    /// Evaluates the sampled function at `x`.
    ///
    /// Runs the batched kernel on a one-point tile, so the result is bit-identical to the
    /// same point's entry from [`eval_batch_into`](Self::eval_batch_into).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        crate::stats::record_rff_point_eval();
        let mut out = [0.0];
        self.eval_points(|_| x, &mut out);
        out[0]
    }

    /// The math tier this sample evaluates on.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Evaluates the sampled function at a whole row-major block of query points at once,
    /// writing one value per point into `out` (`points.len() == out.len() * dim`).
    ///
    /// One `frequencies × Xᵀ` product through [`RowPanels::dots`] (on the fast tier
    /// [`RowPanels::fused_dots`]), each tile of projections folded straight into its
    /// points' sums. Per point the operation order matches
    /// [`eval`](Self::eval) exactly, so results are bit-identical; the pass allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `points.len() != out.len() * dim`.
    pub fn eval_batch_into(&self, points: &[f64], out: &mut [f64]) {
        let dim = self.dim();
        assert_eq!(
            points.len(),
            out.len() * dim,
            "query block dimension mismatch"
        );
        crate::stats::record_rff_feature_matrix_product();
        self.eval_points(|p| &points[p * dim..(p + 1) * dim], out);
    }

    /// Writes the sampled function's value at `point(p)` into `out[p]` for every `p`: the
    /// features' terms summed per point in ascending feature order from `0.0`, then the
    /// offset.
    ///
    /// The exact tier takes unfused products, libm `cos` and `(scale·cos)·w`. The fast tier
    /// takes fused products, adds the phases to a whole 8-feature tile, runs
    /// [`fastmath::fast_cos_block`] over it (inlined into the walk's SIMD copy) and adds
    /// `(scale·w)·cos`.
    fn eval_points<'a>(&self, point: impl Fn(usize) -> &'a [f64], out: &mut [f64]) {
        out.fill(0.0);
        let (scale, phases, weights) = (self.feature_scale, &self.phases[..], &self.weights[..]);
        match self.precision {
            Precision::SeedExact => {
                self.frequencies
                    .dots(out.len(), point, |rows, first, sums| {
                        for (out_p, projections) in out[first..].iter_mut().zip(sums.iter()) {
                            for (j, wx) in rows.clone().zip(projections) {
                                *out_p += (scale * (wx + phases[j]).cos()) * weights[j];
                            }
                        }
                    });
            }
            Precision::Fast => {
                // Forced inline: only inside the walk's AVX2 + FMA copy does the block
                // cosine vectorize. Left to the inliner, the visitor stayed a call into
                // code compiled for the baseline target, at about twice the cost per cosine.
                self.frequencies.fused_dots(
                    out.len(),
                    point,
                    #[inline(always)]
                    |rows, first, sums| {
                        // Padding lanes get phase and coefficient 0 and are never summed.
                        let lane = |v: &[f64], l: usize| v.get(rows.start + l).map_or(0.0, |v| *v);
                        let phase: [f64; RowPanels::LANES] =
                            std::array::from_fn(|l| lane(phases, l));
                        let coeff: [f64; RowPanels::LANES] =
                            std::array::from_fn(|l| scale * lane(weights, l));
                        for (out_p, args) in out[first..].iter_mut().zip(sums.iter_mut()) {
                            for (arg, phase) in args.iter_mut().zip(phase) {
                                *arg += phase;
                            }
                            fastmath::fast_cos_block(args);
                            for (coeff, cos) in coeff[..rows.len()].iter().zip(args.iter()) {
                                *out_p += coeff * cos;
                            }
                        }
                    },
                );
            }
        }
        for v in out.iter_mut() {
            *v += self.offset;
        }
    }

    /// Input dimensionality of the sample.
    pub fn dim(&self) -> usize {
        self.frequencies.row_len()
    }
}

/// Draws one feature's spectral frequencies for `kernel` into `row`, scaled by its
/// lengthscale.
fn draw_frequencies(kernel: &Kernel, rng: &mut StdRng, row: &mut [f64]) {
    // Matérn-5/2 spectral density is a multivariate Student-t with ν = 5 degrees of
    // freedom: w = z / sqrt(u / ν) with z ~ N(0, 1/ℓ²), u ~ χ²(ν).
    let t_scale = match kernel.family() {
        KernelFamily::SquaredExponential => 1.0,
        KernelFamily::Matern52 => {
            let chi: ChiSquared = ChiSquared::new(5.0).expect("valid degrees of freedom");
            let u = chi.sample(rng);
            (5.0 / u).sqrt()
        }
    };
    let lengthscale = kernel.lengthscale();
    // The blocked Box–Muller of `fastmath` draws the same uniforms in the same order as
    // per-element `StandardNormal` draws, each within 1e-9 of the scalar value. Its slice
    // kernels inline into the dispatched copy, which gives the portable copy's bits.
    linalg::simd::dispatch(
        #[inline(always)]
        |_| {
            fastmath::normal::fill_standard_normal(rng, row);
            for w in row.iter_mut() {
                *w = t_scale * *w / lengthscale;
            }
        },
    );
}

/// The Gram matrix of the rows of `rows`: entry `(i, j)` is the dot product of rows `i` and
/// `j`, the same ascending sum as entry `(i, j)` of `rows.mat_mul(&rows.transpose())` (which
/// starts from `+0.0` and skips zero terms, so only an entry made of signed zeros, or of a
/// zero times an infinity, can differ). With `rows` = Φᵀ it is `ΦᵀΦ`, walked by
/// [`RowPanels::lower_dots`] over Φ's columns and mirrored, which is exact: each term
/// `a·b` rounds as `b·a`.
fn row_products(rows: &Matrix) -> Matrix {
    let (m, n) = rows.shape();
    let panels = RowPanels::from_rows(m, n, |i, row| row.copy_from_slice(rows.row(i)));
    let mut out = Matrix::zeros(m, m);
    panels.lower_dots(
        |j| rows.row(j),
        |tile_rows, first, sums| {
            for (j, column) in (first..).zip(sums.iter()) {
                for (i, entry) in tile_rows.clone().zip(column) {
                    out[(i, j)] = *entry;
                    out[(j, i)] = *entry;
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    fn fitted_gp() -> GaussianProcess {
        let xs: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 * 0.3]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() + 2.0).collect();
        GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 1.0), 1e-4).unwrap()
    }

    #[test]
    fn rejects_zero_features() {
        let gp = fitted_gp();
        assert!(RffSampler::new(&gp, 0, 1).is_err());
    }

    #[test]
    fn approximate_mean_tracks_exact_posterior_mean() {
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 400, 3).unwrap();
        for q in [0.5, 1.7, 3.3] {
            let (exact, _) = gp.predict(&[q]).unwrap();
            let approx = sampler.approximate_mean(&[q]);
            assert!(
                (exact - approx).abs() < 0.25,
                "at {q}: exact {exact} vs rff {approx}"
            );
        }
    }

    #[test]
    fn approximate_variance_tracks_exact_posterior_variance() {
        // Φ feeds the weight covariance, so the spread of the drawn functions checks the
        // second moment the way `approximate_mean` checks the first, near the data, at its
        // edge and beyond it.
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 400, 3).unwrap();
        let samples: Vec<_> = (0..400).map(|s| sampler.sample(s).unwrap()).collect();
        for q in [0.5, 1.7, 3.3, 4.45, 5.0, 6.0, 8.0] {
            let (_, exact) = gp.predict(&[q]).unwrap();
            let values: Vec<f64> = samples.iter().map(|f| f.eval(&[q])).collect();
            let ratio = vector::variance(&values) / exact;
            assert!(
                (0.6..=1.4).contains(&ratio),
                "at {q}: rff variance is {ratio}× the exact {exact}"
            );
        }
    }

    #[test]
    fn samples_stay_near_data_and_spread_far_away() {
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 300, 11).unwrap();
        let samples: Vec<_> = (0..12).map(|s| sampler.sample(s).unwrap()).collect();

        // Near training data all samples should agree closely with the posterior mean.
        let (mean_near, _) = gp.predict(&[1.5]).unwrap();
        let spread_near = spread(&samples, &[1.5]);
        let centre_near = centre(&samples, &[1.5]);
        assert!((centre_near - mean_near).abs() < 0.3);
        assert!(spread_near < 0.5);

        // Far outside the data the sample spread should be noticeably larger.
        let spread_far = spread(&samples, &[30.0]);
        assert!(
            spread_far > spread_near,
            "far spread {spread_far} should exceed near spread {spread_near}"
        );
    }

    fn spread(samples: &[PosteriorSample], x: &[f64]) -> f64 {
        let vals: Vec<f64> = samples.iter().map(|s| s.eval(x)).collect();
        vector::max(&vals) - vector::min(&vals)
    }

    fn centre(samples: &[PosteriorSample], x: &[f64]) -> f64 {
        let vals: Vec<f64> = samples.iter().map(|s| s.eval(x)).collect();
        vector::mean(&vals)
    }

    #[test]
    fn same_seed_reproduces_sample() {
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 100, 5).unwrap();
        let a = sampler.sample(99).unwrap();
        let b = sampler.sample(99).unwrap();
        for q in [0.0, 1.0, 2.0] {
            assert_eq!(a.eval(&[q]), b.eval(&[q]));
        }
        let c = sampler.sample(100).unwrap();
        assert_ne!(a.eval(&[1.0]), c.eval(&[1.0]));
    }

    #[test]
    fn matern_kernel_sampling_works() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * x[0]).collect();
        let gp = GaussianProcess::fit(xs, ys, Kernel::matern52(1.0, 1.5), 1e-4).unwrap();
        let sampler = RffSampler::new(&gp, 300, 17).unwrap();
        let f = sampler.sample(0).unwrap();
        let (mean, _) = gp.predict(&[2.0]).unwrap();
        assert!((f.eval(&[2.0]) - mean).abs() < 0.6);
        assert_eq!(f.dim(), 1);
        assert_eq!(sampler.dim(), 1);
        assert_eq!(sampler.num_features(), 300);
    }

    #[test]
    fn multi_dimensional_sampling() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![0.5, 0.5],
        ];
        let ys = vec![0.0, 1.0, 1.0, 2.0, 1.0];
        let gp = GaussianProcess::fit(xs, ys, Kernel::rbf(1.0, 1.0), 1e-4).unwrap();
        let sampler = RffSampler::new(&gp, 200, 23).unwrap();
        let f = sampler.sample(1).unwrap();
        let v = f.eval(&[0.5, 0.5]);
        assert!(v.is_finite());
        assert!((v - 1.0).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn eval_rejects_wrong_dimension() {
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 50, 1).unwrap();
        let f = sampler.sample(0).unwrap();
        f.eval(&[1.0, 2.0]);
    }

    /// The frequency rows `RffSampler::new(gp, features, seed)` draws, unpacked.
    fn drawn_rows(gp: &GaussianProcess, features: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..features)
            .map(|_| {
                let mut row = vec![0.0; gp.dim()];
                draw_frequencies(gp.kernel(), &mut rng, &mut row);
                row
            })
            .collect()
    }

    #[test]
    fn dispatched_spectral_draws_match_the_portable_fill_standard_normal_bitwise() {
        // Both kernel families, at a toy dimension and at θ's: the copy this CPU
        // dispatches to, the forced-portable copy and `fill_standard_normal` called
        // outside any dispatch (so compiled for the baseline target), scaled the same way.
        for kernel in [Kernel::rbf(1.3, 0.7), Kernel::matern52(0.9, 2.5)] {
            for dim in [1, 3, 129, 501] {
                let draw = |seed: u64| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut row = vec![0.0; dim];
                    draw_frequencies(&kernel, &mut rng, &mut row);
                    (row, rng.state())
                };
                let reference = |seed: u64| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let t_scale = match kernel.family() {
                        KernelFamily::SquaredExponential => 1.0,
                        KernelFamily::Matern52 => {
                            (5.0 / ChiSquared::new(5.0).unwrap().sample(&mut rng)).sqrt()
                        }
                    };
                    let mut row = vec![0.0; dim];
                    fastmath::normal::fill_standard_normal(&mut rng, &mut row);
                    for w in row.iter_mut() {
                        *w = t_scale * *w / kernel.lengthscale();
                    }
                    (row, rng.state())
                };
                for seed in [0, 7, 2_593_262_622] {
                    let bits = |(row, state): (Vec<f64>, [u64; 4])| {
                        (row.iter().map(|w| w.to_bits()).collect::<Vec<_>>(), state)
                    };
                    let want = bits(reference(seed));
                    assert_eq!(bits(draw(seed)), want, "dispatched, dim {dim}, seed {seed}");
                    let portable = linalg::simd::portable(|| draw(seed));
                    assert_eq!(bits(portable), want, "portable, dim {dim}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn packed_row_products_match_mat_mul_bitwise_on_both_copies() {
        // Ragged feature (row) counts around one and two 8-row panels and ragged training
        // set sizes, on the copy this CPU dispatches to and on the portable one.
        let mut rng = StdRng::seed_from_u64(3);
        for m in [1, 7, 8, 9, 13, 17, 150] {
            for n in [1, 2, 5, 13, 55] {
                let rows = Matrix::from_fn(m, n, |_, _| {
                    let z: f64 = StandardNormal.sample(&mut rng);
                    z
                });
                let want = rows.mat_mul(&rows.transpose()).unwrap();
                for portable in [false, true] {
                    let got = if portable {
                        linalg::simd::portable(|| row_products(&rows))
                    } else {
                        row_products(&rows)
                    };
                    assert_eq!(got.shape(), (m, m));
                    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "m {m}, n {n}, portable {portable}: entry ({}, {})",
                            i / m,
                            i % m
                        );
                    }
                }
            }
        }
    }

    /// The fast tier's feature product: an in-order `mul_add` chain from `-0.0`.
    fn fused_dot(row: &[f64], x: &[f64]) -> f64 {
        row.iter()
            .zip(x)
            .fold(-0.0, |acc, (w, x)| w.mul_add(*x, acc))
    }

    /// Checks `eval_batch_into` and per-point `eval` bit for bit on `precision` against a
    /// reference that takes `vector::dot` (on the fast tier the scalar `mul_add` fold) over
    /// the frequency rows as drawn, so the packing and the kernel are both checked: on a
    /// 2-D GP for feature counts below, on and past one and two 8-lane panels and point
    /// counts on every remainder of a 4- and a 6-point tile, and at the paper's shape of
    /// 150 features × 40 points × 501 dimensions.
    fn assert_batch_matches_per_point(precision: Precision) {
        fn check(
            gp: &GaussianProcess,
            features: usize,
            seed: u64,
            precision: Precision,
            queries: &[Vec<f64>],
        ) {
            let sampler = RffSampler::new(gp, features, seed)
                .unwrap()
                .with_precision(precision);
            let f = sampler.sample(4).unwrap();
            assert_eq!(f.precision(), precision);
            let rows = drawn_rows(gp, features, seed);
            let reference = |x: &[f64]| {
                let mut acc = 0.0;
                for (j, row) in rows.iter().enumerate() {
                    acc += match precision {
                        Precision::SeedExact => {
                            let arg = vector::dot(row, x) + f.phases[j];
                            (f.feature_scale * arg.cos()) * f.weights[j]
                        }
                        Precision::Fast => {
                            let arg = fused_dot(row, x) + f.phases[j];
                            (f.feature_scale * f.weights[j]) * fastmath::fast_cos(arg)
                        }
                    };
                }
                acc + f.offset
            };
            let flat: Vec<f64> = queries.iter().flatten().copied().collect();
            let mut batched = vec![0.0; queries.len()];
            f.eval_batch_into(&flat, &mut batched);
            for (q, b) in queries.iter().zip(&batched) {
                let want = reference(q).to_bits();
                let context = format!(
                    "{precision:?}, {features} features, {} points",
                    queries.len()
                );
                assert_eq!(b.to_bits(), want, "batched eval diverged: {context}");
                assert_eq!(
                    f.eval(q).to_bits(),
                    want,
                    "per-point eval diverged: {context}"
                );
            }
        }

        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.3],
            vec![0.2, 1.0],
            vec![1.0, 1.0],
            vec![0.5, 0.5],
            vec![-0.4, 0.9],
        ];
        let ys = vec![0.0, 1.3, 1.2, 2.0, 1.0, 0.5];
        for kernel in [Kernel::rbf(1.0, 0.8), Kernel::matern52(1.2, 0.9)] {
            let gp = GaussianProcess::fit(xs.clone(), ys.clone(), kernel, 1e-4).unwrap();
            for features in [1, 7, 8, 9, 16, 17] {
                for count in [1, 2, 3, 4, 5, 6, 7, 8, 13, 17] {
                    let queries: Vec<Vec<f64>> = (0..count)
                        .map(|i| vec![-1.0 + 0.17 * i as f64, 2.0 - 0.21 * i as f64])
                        .collect();
                    check(&gp, features, 31, precision, &queries);
                }
            }
        }

        let dim = 501;
        let point = |i: usize| -> Vec<f64> {
            (0..dim)
                .map(|d| ((i * 7919 + d * 104_729) % 1000) as f64 / 1000.0 - 0.5)
                .collect()
        };
        let xs: Vec<Vec<f64>> = (0..12).map(point).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
        let gp = GaussianProcess::fit(xs, ys, Kernel::matern52(1.0, 3.0), 1e-3).unwrap();
        let queries: Vec<Vec<f64>> = (100..140).map(point).collect();
        check(&gp, 150, 5, precision, &queries);
    }

    #[test]
    fn eval_batch_into_is_bit_identical_to_per_point_eval() {
        assert_batch_matches_per_point(Precision::SeedExact);
    }

    #[test]
    fn eval_batch_into_handles_empty_block() {
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 30, 2).unwrap();
        let f = sampler.sample(0).unwrap();
        let mut out: Vec<f64> = Vec::new();
        f.eval_batch_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic]
    fn eval_batch_into_rejects_ragged_block() {
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 30, 2).unwrap();
        let f = sampler.sample(0).unwrap();
        let mut out = vec![0.0; 2];
        // 3 values cannot form two 1-D points.
        f.eval_batch_into(&[1.0, 2.0, 3.0], &mut out);
    }

    #[test]
    fn sample_with_reused_scratch_matches_fresh_sample() {
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 90, 8).unwrap();
        let mut scratch = WeightScratch::default();
        // Warm the scratch with a different draw first: reuse must not leak state.
        let _ = sampler.sample_with(1, &mut scratch).unwrap();
        let reused = sampler.sample_with(42, &mut scratch).unwrap();
        let fresh = sampler.sample(42).unwrap();
        for q in [0.0, 0.7, 2.9] {
            assert_eq!(reused.eval(&[q]), fresh.eval(&[q]));
        }
    }

    #[test]
    fn fast_tier_eval_batch_into_is_bit_identical_to_per_point_eval() {
        assert_batch_matches_per_point(Precision::Fast);
    }

    #[test]
    fn fast_tier_sample_tracks_exact_tier_within_tolerance() {
        let gp = fitted_gp();
        let exact = RffSampler::new(&gp, 200, 13).unwrap();
        let fast = RffSampler::new(&gp, 200, 13)
            .unwrap()
            .with_precision(Precision::Fast);
        // Frequencies, phases and weight posterior are tier-independent, so the same
        // seed draws the same posterior function; only the cosine evaluation differs.
        let fe = exact.sample(7).unwrap();
        let ff = fast.sample(7).unwrap();
        let mut stats = tolerance::ErrorStats::new("fast-vs-exact rff sample");
        for i in 0..200 {
            let q = -2.0 + 0.04 * i as f64;
            stats.record(q, ff.eval(&[q]), fe.eval(&[q]));
        }
        // 200 features, each cosine within 1e-12 abs, scaled by feature weights: the
        // accumulated divergence stays far below any modelling tolerance.
        stats.assert_max_abs(1e-9);
    }

    #[test]
    fn fast_tier_tracks_exact_tier_at_the_paper_shape() {
        // 150 features × 40 points × 501 dimensions, 20 draws: the fused products and the
        // polynomial cosine together stay within 1e-9 of the exact tier's values.
        let dim = 501;
        let point = |i: usize| -> Vec<f64> {
            (0..dim)
                .map(|d| ((i * 7919 + d * 104_729) % 1000) as f64 / 1000.0 - 0.5)
                .collect()
        };
        let xs: Vec<Vec<f64>> = (0..30).map(point).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
        let gp = GaussianProcess::fit(xs, ys, Kernel::matern52(1.0, 3.0), 1e-3).unwrap();
        let exact = RffSampler::new(&gp, 150, 21).unwrap();
        let fast = exact.clone().with_precision(Precision::Fast);
        let queries: Vec<f64> = (200..240).flat_map(point).collect();
        let (mut e, mut f) = (vec![0.0; 40], vec![0.0; 40]);
        let mut stats = tolerance::ErrorStats::new("fast-vs-exact rff sample at 150 × 40 × 501");
        for draw in 0..20u64 {
            exact
                .sample(draw)
                .unwrap()
                .eval_batch_into(&queries, &mut e);
            fast.sample(draw).unwrap().eval_batch_into(&queries, &mut f);
            for (p, (fv, ev)) in f.iter().zip(&e).enumerate() {
                stats.record((draw as usize * 40 + p) as f64, *fv, *ev);
            }
        }
        stats.assert_max_abs(1e-9);
    }

    #[test]
    fn fast_tier_sampling_is_deterministic() {
        let gp = fitted_gp();
        let sampler = RffSampler::new(&gp, 100, 5)
            .unwrap()
            .with_precision(Precision::Fast);
        let a = sampler.sample(99).unwrap();
        let b = sampler.sample(99).unwrap();
        for q in [0.0, 1.0, 2.0, 17.5] {
            assert_eq!(a.eval(&[q]), b.eval(&[q]));
        }
    }
}
