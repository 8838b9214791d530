//! Property-based tests for the Gaussian-process substrate.

use gp::kernel::{Kernel, KernelFamily};
use gp::GaussianProcess;
use proptest::prelude::*;

fn xs_strategy() -> impl Strategy<Value = Vec<f64>> {
    // Distinct-ish 1-D inputs in [0, 10).
    prop::collection::btree_set(0u32..1000, 3..12)
        .prop_map(|set| set.into_iter().map(|v| v as f64 * 0.01).collect())
}

fn hyper_strategy() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.1f64..3.0, 0.2f64..4.0, 1e-6f64..1e-2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernel_is_symmetric_and_bounded(
        (ls, sv, _) in hyper_strategy(),
        a in prop::collection::vec(-5.0f64..5.0, 3),
        b in prop::collection::vec(-5.0f64..5.0, 3),
    ) {
        for family in [KernelFamily::SquaredExponential, KernelFamily::Matern52] {
            let k = Kernel::isotropic(family, sv, ls).unwrap();
            let kab = k.eval(&a, &b);
            let kba = k.eval(&b, &a);
            prop_assert!((kab - kba).abs() < 1e-12);
            prop_assert!(kab <= sv + 1e-12);
            prop_assert!(kab >= 0.0);
            prop_assert!((k.eval(&a, &a) - sv).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_matrix_is_positive_semidefinite(
        xs in xs_strategy(),
        (ls, sv, _) in hyper_strategy(),
    ) {
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let k = Kernel::rbf(sv, ls);
        let mut gram = k.gram(&pts);
        // Adding a small jitter must make the Gram matrix positive definite (it is PSD).
        gram.add_diagonal(1e-8);
        prop_assert!(linalg::Cholesky::new_with_jitter(&gram, 1e-8, 10).is_ok());
    }

    #[test]
    fn posterior_variance_is_nonnegative_and_bounded_by_prior(
        xs in xs_strategy(),
        (ls, sv, noise) in hyper_strategy(),
        query in 0.0f64..10.0,
    ) {
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 0.7).sin()).collect();
        let gp = GaussianProcess::fit(pts, ys, Kernel::rbf(sv, ls), noise).unwrap();
        let (_, var) = gp.predict(&[query]).unwrap();
        prop_assert!(var >= 0.0);
        prop_assert!(var <= sv + 1e-6, "posterior variance {} exceeds prior {}", var, sv);
    }

    #[test]
    fn prediction_at_training_point_is_close_with_small_noise(
        xs in xs_strategy(),
        (ls, sv, _) in hyper_strategy(),
    ) {
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 0.5).cos()).collect();
        let gp = GaussianProcess::fit(pts.clone(), ys.clone(), Kernel::rbf(sv, ls), 1e-8).unwrap();
        // Interpolation property: residual at training points is tiny relative to signal.
        for (x, y) in pts.iter().zip(&ys) {
            let (mean, _) = gp.predict(x).unwrap();
            prop_assert!((mean - y).abs() < 0.05, "residual {} too large", (mean - y).abs());
        }
    }

    #[test]
    fn log_marginal_likelihood_is_finite(
        xs in xs_strategy(),
        (ls, sv, noise) in hyper_strategy(),
    ) {
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.3 + 1.0).collect();
        let gp = GaussianProcess::fit(pts, ys, Kernel::matern52(sv, ls), noise).unwrap();
        prop_assert!(gp.log_marginal_likelihood().is_finite());
    }

    #[test]
    fn incremental_update_matches_full_fit(
        xs in xs_strategy(),
        (ls, sv, noise) in hyper_strategy(),
        new_x in 0.0f64..10.0,
        new_y in -2.0f64..2.0,
        query in 0.0f64..10.0,
    ) {
        // Fit on all but the last point, add it incrementally, and compare against fitting
        // the full data from scratch: the rank-one Cholesky extension must agree to 1e-8 on
        // predictions and marginal likelihood.
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 0.6).sin()).collect();
        let kernel = Kernel::matern52(sv, ls);
        let base = GaussianProcess::fit(pts.clone(), ys.clone(), kernel.clone(), noise).unwrap();
        let mut full_xs = pts;
        let mut full_ys = ys;
        full_xs.push(vec![new_x]);
        full_ys.push(new_y);
        let incremental = base
            .with_observations_and_targets(&[vec![new_x]], full_ys.clone())
            .unwrap();
        let full = GaussianProcess::fit(full_xs, full_ys, kernel, noise).unwrap();

        let (mi, vi) = incremental.predict(&[query]).unwrap();
        let (mf, vf) = full.predict(&[query]).unwrap();
        prop_assert!((mi - mf).abs() < 1e-8, "mean {} vs {}", mi, mf);
        prop_assert!((vi - vf).abs() < 1e-8, "variance {} vs {}", vi, vf);
        prop_assert!(
            (incremental.log_marginal_likelihood() - full.log_marginal_likelihood()).abs() < 1e-8
        );
    }

    #[test]
    fn predict_batch_agrees_exactly_with_per_point_predict(
        xs in xs_strategy(),
        (ls, sv, noise) in hyper_strategy(),
        queries in prop::collection::vec(0.0f64..10.0, 1..9),
    ) {
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 0.4).cos()).collect();
        let gp = GaussianProcess::fit(pts, ys, Kernel::rbf(sv, ls), noise).unwrap();
        let block: Vec<Vec<f64>> = queries.iter().map(|&q| vec![q]).collect();
        let batched = gp.predict_batch(&block).unwrap();
        for (q, pair) in block.iter().zip(&batched) {
            // Bit-identical, not merely close: the batched path preserves the scalar path's
            // accumulation order.
            prop_assert_eq!(*pair, gp.predict(q).unwrap());
        }
    }
}
