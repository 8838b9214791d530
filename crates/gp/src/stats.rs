//! Process-wide operation counters for the GP substrate.
//!
//! The incremental-refit and batched-prediction engine is only worth its complexity if the
//! search loop actually goes through the cheap paths. These counters let integration tests
//! assert that (e.g.) a `Parmis::run` performed rank-one Cholesky extensions instead of
//! from-scratch refits, without timing anything — wall-clock assertions flake on shared
//! machines, operation counts do not.
//!
//! Counters are global atomics (`Relaxed` ordering — they are statistics, not
//! synchronization), so tests that assert on them should either run in their own process or
//! use `>=` comparisons against a [`snapshot`] taken after [`reset`].

use std::sync::atomic::{AtomicU64, Ordering};

static FULL_FITS: AtomicU64 = AtomicU64::new(0);
static INCREMENTAL_UPDATES: AtomicU64 = AtomicU64::new(0);
static PREDICT_POINTS: AtomicU64 = AtomicU64::new(0);
static PREDICT_BATCHES: AtomicU64 = AtomicU64::new(0);
static RFF_FEATURE_MATRIX_PRODUCTS: AtomicU64 = AtomicU64::new(0);
static RFF_POINT_EVALS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// From-scratch `O(n³)` fits ([`crate::GaussianProcess::fit`]).
    pub full_fits: u64,
    /// Rank-one `O(n²)` Cholesky extensions performed by incremental updates
    /// ([`crate::GaussianProcess::with_observations_and_targets`]).
    pub incremental_updates: u64,
    /// Per-point posterior predictions ([`crate::GaussianProcess::predict`]).
    pub predict_points: u64,
    /// Batched posterior predictions ([`crate::GaussianProcess::predict_batch`]), each
    /// answering any number of queries with one blocked solve.
    pub predict_batches: u64,
    /// Batched posterior-sample evaluations ([`crate::PosteriorSample::eval_batch_into`]),
    /// each answering a whole population with one fused `frequencies × Xᵀ` feature-matrix
    /// product.
    pub rff_feature_matrix_products: u64,
    /// Per-point posterior-sample evaluations ([`crate::PosteriorSample::eval`]), which
    /// recompute every random feature for a single point.
    pub rff_point_evals: u64,
}

/// Resets every counter to zero.
pub fn reset() {
    FULL_FITS.store(0, Ordering::Relaxed);
    INCREMENTAL_UPDATES.store(0, Ordering::Relaxed);
    PREDICT_POINTS.store(0, Ordering::Relaxed);
    PREDICT_BATCHES.store(0, Ordering::Relaxed);
    RFF_FEATURE_MATRIX_PRODUCTS.store(0, Ordering::Relaxed);
    RFF_POINT_EVALS.store(0, Ordering::Relaxed);
}

/// Returns the current value of every counter.
pub fn snapshot() -> OpCounts {
    OpCounts {
        full_fits: FULL_FITS.load(Ordering::Relaxed),
        incremental_updates: INCREMENTAL_UPDATES.load(Ordering::Relaxed),
        predict_points: PREDICT_POINTS.load(Ordering::Relaxed),
        predict_batches: PREDICT_BATCHES.load(Ordering::Relaxed),
        rff_feature_matrix_products: RFF_FEATURE_MATRIX_PRODUCTS.load(Ordering::Relaxed),
        rff_point_evals: RFF_POINT_EVALS.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_full_fit() {
    FULL_FITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_incremental_update() {
    INCREMENTAL_UPDATES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_predict_point() {
    PREDICT_POINTS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_predict_batch() {
    PREDICT_BATCHES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_rff_feature_matrix_product() {
    RFF_FEATURE_MATRIX_PRODUCTS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_rff_point_eval() {
    RFF_POINT_EVALS.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record_full_fit();
        record_incremental_update();
        record_incremental_update();
        let s = snapshot();
        assert!(s.full_fits >= 1);
        assert!(s.incremental_updates >= 2);
        reset();
        // Another test in this process may race a fresh increment in, so only assert the
        // reset did not fail outright.
        assert!(snapshot().full_fits < s.full_fits + 1);
    }
}
