//! Gaussian-process regression substrate for the PaRMIS reproduction.
//!
//! PaRMIS models each design objective (execution time, energy, PPW, …) with an independent
//! Gaussian process over the DRM-policy parameter space θ (paper §IV-A). This crate provides
//! everything those statistical models need:
//!
//! * [`kernel`] — stationary covariance functions (squared-exponential / RBF and Matérn-5/2)
//!   with one isotropic lengthscale.
//! * [`GaussianProcess`] — exact GP regression with Cholesky-based posterior mean/variance,
//!   log marginal likelihood, and incremental refitting as new policy evaluations arrive.
//! * [`hyperopt`] — marginal-likelihood hyperparameter selection via multi-start
//!   coordinate search (no gradients needed at the scale PaRMIS operates at).
//! * [`rff`] — random Fourier feature approximation used to draw *functions* from the GP
//!   posterior (Rahimi & Recht, 2008), the first step of the paper's Pareto-front sampling.
//!
//! # Examples
//!
//! ```
//! use gp::{GaussianProcess, kernel::Kernel};
//!
//! # fn main() -> Result<(), gp::GpError> {
//! let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
//! let ys = vec![0.0, 1.0, 0.0, -1.0];
//! let kernel = Kernel::rbf(1.0, 1.0);
//! let gp = GaussianProcess::fit(xs, ys, kernel, 1e-6)?;
//! let (mean, var) = gp.predict(&[1.5])?;
//! assert!(var >= 0.0);
//! assert!(mean.abs() < 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gaussian_process;
pub mod hyperopt;
pub mod kernel;
pub mod rff;
pub mod stats;

pub use error::GpError;
pub use gaussian_process::GaussianProcess;
pub use rff::{PosteriorSample, RffSampler, WeightScratch};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, GpError>;
