//! Property-based tests for the dense linear-algebra kernels.

use linalg::{vector, Cholesky, Matrix, RowPanels};
use proptest::prelude::*;

/// Strategy producing small vectors of well-behaved floats.
fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len)
}

/// Strategy producing a random matrix with entries in [-10, 10].
fn matrix_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("length matches"))
}

/// Longest operand row the tile properties draw.
const MAX_TILE_LEN: usize = 12;
/// Most rows the packed-panel property draws: two panels of 8 and one more.
const MAX_PANEL_ROWS: usize = 17;
/// Most points the packed-panel properties draw: two of the fused walk's 6-point tiles and
/// one more.
const MAX_PANEL_POINTS: usize = 13;

/// Strategy producing floats that are mostly ordinary and otherwise a signed zero, a
/// subnormal, a huge value, ±∞ or NaN, so tile and panel sums can cancel to a signed zero,
/// underflow, overflow or turn NaN.
fn edge_float() -> impl Strategy<Value = f64> {
    (0usize..24, -100.0f64..100.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => x * 1e-3 * f64::MIN_POSITIVE,
        3 => x * 1e306,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => f64::NAN,
        _ => x,
    })
}

/// Whether two sums agree bit for bit. A NaN result only has to be NaN: Rust leaves the
/// sign and payload of a NaN produced by arithmetic unspecified.
fn same_sum(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The three packed walks of `RowPanels`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Walk {
    Dots,
    FusedDots,
    SquaredDistances,
}

/// Walks `rows` rows and `count` points, each the first `len` entries of its own
/// [`MAX_TILE_LEN`]-long stretch of `data`, through `walk`, and checks every entry once
/// against its scalar reference: `vector::dot`, the scalar `mul_add` fold or
/// `vector::squared_distance`.
fn assert_panel_walk_matches(walk: Walk, rows: usize, count: usize, len: usize, data: &[f64]) {
    let row = |i: usize| &data[i * MAX_TILE_LEN..i * MAX_TILE_LEN + len];
    let point = |p: usize| row(MAX_PANEL_ROWS + p);
    let reference = |a: &[f64], b: &[f64]| match walk {
        Walk::Dots => vector::dot(a, b),
        Walk::FusedDots => a.iter().zip(b).fold(-0.0, |acc, (x, y)| x.mul_add(*y, acc)),
        Walk::SquaredDistances => vector::squared_distance(a, b),
    };
    let panels = RowPanels::from_rows(rows, len, |r, out| out.copy_from_slice(row(r)));
    let mut seen = 0;
    let visit = |tile_rows: std::ops::Range<usize>, first: usize, sums: &mut [[f64; 8]]| {
        for (p, point_sums) in (first..).zip(sums.iter()) {
            for (r, got) in tile_rows.clone().zip(point_sums) {
                let want = reference(row(r), point(p));
                assert!(
                    same_sum(*got, want),
                    "{walk:?}: row {r} of {rows}, point {p} of {count}, length {len}: \
                     {got:e} vs {want:e}"
                );
                seen += 1;
            }
        }
    };
    match walk {
        Walk::Dots => panels.dots(count, point, visit),
        Walk::FusedDots => panels.fused_dots(count, point, visit),
        Walk::SquaredDistances => panels.squared_distances(count, point, visit),
    }
    assert_eq!(seen, rows * count);
}

/// Builds a symmetric positive-definite matrix as B Bᵀ + n·I from arbitrary B.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n).prop_map(move |b| {
        let mut spd = b.mat_mul(&b.transpose()).expect("square product");
        spd.add_diagonal(n as f64);
        spd
    })
}

proptest! {
    #[test]
    fn dot_is_commutative(a in vec_strategy(8), b in vec_strategy(8)) {
        let ab = vector::dot(&a, &b);
        let ba = vector::dot(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn norm_is_nonnegative_and_zero_only_for_zero(a in vec_strategy(6)) {
        let n = vector::norm2(&a);
        prop_assert!(n >= 0.0);
        if a.iter().all(|&x| x == 0.0) {
            prop_assert_eq!(n, 0.0);
        }
    }

    #[test]
    fn triangle_inequality_for_distance(
        a in vec_strategy(5),
        b in vec_strategy(5),
        c in vec_strategy(5),
    ) {
        let ac = vector::distance(&a, &c);
        let ab = vector::distance(&a, &b);
        let bc = vector::distance(&b, &c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn transpose_is_involutive(m in matrix_strategy(4)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identity(m in matrix_strategy(3), v in vec_strategy(3)) {
        // (Mᵀ)ᵀ v == M v
        let direct = m.mat_vec(&v).unwrap();
        let via_transpose = m.transpose().transpose().mat_vec(&v).unwrap();
        for (a, b) in direct.iter().zip(&via_transpose) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_reconstructs_spd_matrix(a in spd_strategy(4)) {
        let chol = Cholesky::new(&a).expect("spd matrix factorizes");
        let l = chol.factor();
        let rebuilt = l.mat_mul(&l.transpose()).unwrap();
        prop_assert!(rebuilt.max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn cholesky_solve_satisfies_system(a in spd_strategy(4), b in vec_strategy(4)) {
        let chol = Cholesky::new(&a).expect("spd matrix factorizes");
        let x = chol.solve_vec(&b).unwrap();
        let ax = a.mat_vec(&x).unwrap();
        for (lhs, rhs) in ax.iter().zip(&b) {
            prop_assert!((lhs - rhs).abs() < 1e-5, "residual too large: {} vs {}", lhs, rhs);
        }
    }

    #[test]
    fn cholesky_log_det_is_finite_and_consistent(a in spd_strategy(3)) {
        let chol = Cholesky::new(&a).unwrap();
        let logdet = chol.log_determinant();
        prop_assert!(logdet.is_finite());
        // log det(A) must equal 2 * sum(log diag(L)) by construction; re-derive from factor.
        let manual: f64 = (0..3).map(|i| chol.factor()[(i, i)].ln()).sum::<f64>() * 2.0;
        prop_assert!((logdet - manual).abs() < 1e-12);
    }

    #[test]
    fn spd_matrices_are_symmetric(a in spd_strategy(4)) {
        prop_assert!(a.is_symmetric(1e-9));
    }

    #[test]
    fn cholesky_extend_matches_from_scratch(a in spd_strategy(5)) {
        // Factor the leading 4x4 block, extend by the last row/column, and compare against
        // the from-scratch factorization of the full 5x5 matrix.
        let leading = Matrix::from_fn(4, 4, |i, j| a[(i, j)]);
        let mut incremental = Cholesky::new(&leading).expect("leading block is SPD");
        let b: Vec<f64> = (0..4).map(|j| a[(4, j)]).collect();
        incremental.extend(&b, a[(4, 4)]).expect("extension of an SPD matrix is SPD");
        let full = Cholesky::new(&a).expect("full matrix is SPD");
        prop_assert!(
            incremental.factor().max_abs_diff(full.factor()).unwrap() < 1e-8,
            "extended factor diverged from the from-scratch factor"
        );
    }

    #[test]
    fn blocked_matrix_solve_matches_vector_solves(a in spd_strategy(4), b in vec_strategy(8)) {
        let chol = Cholesky::new(&a).unwrap();
        let rhs = Matrix::from_vec(4, 2, b).unwrap();
        let mut blocked = rhs.clone();
        chol.solve_lower_matrix_in_place(&mut blocked).unwrap();
        for j in 0..2 {
            let y = chol.solve_lower(&rhs.col(j)).unwrap();
            for i in 0..4 {
                prop_assert_eq!(blocked[(i, j)], y[i]);
            }
        }
    }

    #[test]
    fn lerp_endpoints(a in vec_strategy(4), b in vec_strategy(4)) {
        let at_zero = vector::lerp(&a, &b, 0.0);
        let at_one = vector::lerp(&a, &b, 1.0);
        for i in 0..4 {
            prop_assert!((at_zero[i] - a[i]).abs() < 1e-12);
            prop_assert!((at_one[i] - b[i]).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn row_panel_dots_equal_dot_bitwise(
        rows in 0usize..=MAX_PANEL_ROWS,
        count in 0usize..=MAX_PANEL_POINTS,
        len in 0usize..=MAX_TILE_LEN,
        data in prop::collection::vec(
            edge_float(),
            (MAX_PANEL_ROWS + MAX_PANEL_POINTS) * MAX_TILE_LEN,
        ),
    ) {
        assert_panel_walk_matches(Walk::Dots, rows, count, len, &data);
    }

    #[test]
    fn row_panel_fused_dots_equal_mul_add_fold_bitwise(
        rows in 0usize..=MAX_PANEL_ROWS,
        count in 0usize..=MAX_PANEL_POINTS,
        len in 0usize..=MAX_TILE_LEN,
        data in prop::collection::vec(
            edge_float(),
            (MAX_PANEL_ROWS + MAX_PANEL_POINTS) * MAX_TILE_LEN,
        ),
    ) {
        assert_panel_walk_matches(Walk::FusedDots, rows, count, len, &data);
    }

    #[test]
    fn row_panel_squared_distances_equal_squared_distance_bitwise(
        rows in 0usize..=MAX_PANEL_ROWS,
        count in 0usize..=MAX_PANEL_POINTS,
        len in 0usize..=MAX_TILE_LEN,
        data in prop::collection::vec(
            edge_float(),
            (MAX_PANEL_ROWS + MAX_PANEL_POINTS) * MAX_TILE_LEN,
        ),
    ) {
        assert_panel_walk_matches(Walk::SquaredDistances, rows, count, len, &data);
    }
}
