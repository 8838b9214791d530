//! Small dense linear-algebra kernels used by the PaRMIS reproduction.
//!
//! The Gaussian-process substrate (`gp` crate) needs dense symmetric matrices, Cholesky
//! factorization, triangular solves and a handful of vector helpers. Rather than pulling a
//! heavyweight linear-algebra dependency, this crate implements exactly what is required with
//! a small, well-tested surface:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual arithmetic.
//! * [`Cholesky`] — lower-triangular factorization of symmetric positive-definite matrices,
//!   with solves, log-determinant and sampling support.
//! * [`vector`] — free functions over `&[f64]` slices (dot products, norms, axpy, …).
//! * [`RowPanels`] — matrix rows packed for SIMD dot products and squared distances against
//!   many points: an unfused, a fused multiply-add and a squared-distance walk.
//! * [`simd`] — the one run-time dispatch: runs a kernel in a copy compiled with AVX2 and
//!   FMA where the CPU has both, and in the portable copy otherwise.
//!
//! # Examples
//!
//! ```
//! use linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), linalg::LinalgError> {
//! // Solve A x = b for a small SPD system.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let chol = Cholesky::new(&a)?;
//! let x = chol.solve_vec(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! assert!((1.0 * x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// One item opts out: `simd::dispatch`, the call into the AVX2 + FMA copy of a kernel.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]
#![warn(missing_docs)]

mod cholesky;
mod error;
mod matrix;
mod panels;
pub mod simd;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use panels::RowPanels;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
