//! Cholesky factorization of symmetric positive-definite matrices.

use crate::{vector, LinalgError, Matrix, Result};

/// Rows and columns per register tile of [`Cholesky::new`].
///
/// Chosen by measurement: at n = 300, 4 × 4 tiles factor in ~1.3 ms against ~3.9 ms for one
/// entry at a time (one core of a shared 2-vCPU Xeon VM, default x86-64 target); 2 × 2 and
/// 8 × 8 tiles were slower.
const TILE: usize = 4;

/// Completes entry `(i, j)` of the factor from its finished chain `sum`: the pivot
/// `√sum` on the diagonal, `sum / l[j][j]` below it.
fn finish_entry(l: &mut Matrix, i: usize, j: usize, sum: f64) -> Result<()> {
    if i == j {
        if sum <= 0.0 || !sum.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        l[(i, i)] = sum.sqrt();
    } else {
        l[(i, j)] = sum / l[(j, j)];
    }
    Ok(())
}

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite matrix `A = L Lᵀ`.
///
/// The factorization is the workhorse of Gaussian-process regression: it provides linear
/// solves against the kernel matrix, the log-determinant needed by the marginal likelihood,
/// and correlated Gaussian sampling (`L⁻ᵀz` for standard-normal `z` has covariance `A⁻¹`).
///
/// # Examples
///
/// ```
/// use linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// // Reconstruct A = L Lᵀ
/// let l = chol.factor();
/// let rebuilt = l.mat_mul(&l.transpose())?;
/// assert!(rebuilt.max_abs_diff(&a)? < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Each entry of the factor is the chain `a[i][j] − Σ_{k<j} l[i][k]·l[j][k]` in
    /// ascending `k`, divided by the pivot `l[j][j]` below the diagonal or square-rooted on
    /// it. The rows are walked in blocks of 4: each 4 × 4 tile of a block runs the
    /// `k`-prefix its entries share as independent chains side by side, then finishes every
    /// entry's remaining terms in order, so each entry is bit-identical to a
    /// one-entry-at-a-time loop. Rows past the last full block take one chain per entry.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] naming the first row whose pivot is
    /// non-positive or non-finite.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let subtract = |acc: f64, x: f64, y: f64| acc - x * y;
        let mut l = Matrix::zeros(n, n);
        let tiled_rows = n - n % TILE;
        for i0 in (0..tiled_rows).step_by(TILE) {
            // The tiles left of the diagonal block, then the diagonal block itself.
            for j0 in (0..=i0).step_by(TILE) {
                let prefix: [[f64; TILE]; TILE] = vector::fold_tile(
                    j0,
                    std::array::from_fn(|r| std::array::from_fn(|c| a[(i0 + r, j0 + c)])),
                    std::array::from_fn(|r| l.row(i0 + r)),
                    std::array::from_fn(|c| l.row(j0 + c)),
                    subtract,
                );
                for (i, prefix_i) in (i0..).zip(prefix) {
                    for (j, mut sum) in (j0..=i).zip(prefix_i) {
                        for k in j0..j {
                            sum -= l[(i, k)] * l[(j, k)];
                        }
                        finish_entry(&mut l, i, j, sum)?;
                    }
                }
            }
        }
        // The rows past the last full block: one chain per entry.
        for i in tiled_rows..n {
            for j in 0..=i {
                let [[sum]] = vector::fold_tile(j, [[a[(i, j)]]], [l.row(i)], [l.row(j)], subtract);
                finish_entry(&mut l, i, j, sum)?;
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `a`, retrying with a growing diagonal jitter if the matrix is numerically
    /// indefinite. This is the standard defence for nearly-singular GP kernel matrices.
    ///
    /// Starts at `initial_jitter` and multiplies by 10 for up to `max_attempts` attempts.
    ///
    /// # Errors
    ///
    /// Returns the final [`LinalgError::NotPositiveDefinite`] if every attempt fails, or
    /// [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for invalid input.
    pub fn new_with_jitter(a: &Matrix, initial_jitter: f64, max_attempts: usize) -> Result<Self> {
        match Cholesky::new(a) {
            Ok(c) => return Ok(c),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        let mut jitter = initial_jitter.max(f64::MIN_POSITIVE);
        let mut last_err = LinalgError::NotPositiveDefinite { pivot: 0 };
        for _ in 0..max_attempts {
            let mut jittered = a.clone();
            jittered.add_diagonal(jitter);
            match Cholesky::new(&jittered) {
                Ok(c) => return Ok(c),
                Err(e @ LinalgError::NotPositiveDefinite { .. }) => {
                    last_err = e;
                    jitter *= 10.0;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Extends the factorization of an `n x n` matrix `A` to the `(n+1) x (n+1)` matrix
    ///
    /// ```text
    /// A' = [ A    b ]
    ///      [ bᵀ   d ]
    /// ```
    ///
    /// in `O(n²)` instead of refactorizing from scratch in `O(n³)`: the new off-diagonal row
    /// of the factor is `l = L⁻¹ b` (one forward substitution) and the new pivot is
    /// `sqrt(d - l·l)` (Rasmussen & Williams, GPML 2006, Appx. A.3). This is the workhorse of
    /// incremental Gaussian-process refits, which append exactly one observation per search
    /// iteration.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n` and
    /// [`LinalgError::NotPositiveDefinite`] if the extended matrix is not positive definite
    /// (the caller should fall back to a from-scratch jittered factorization).
    pub fn extend(&mut self, b: &[f64], d: f64) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        let row = self.solve_lower(b)?;
        let pivot_sq = d - crate::vector::dot(&row, &row);
        if pivot_sq <= 0.0 || !pivot_sq.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: n });
        }
        let pivot = pivot_sq.sqrt();

        // Copy the old factor into the top-left block of the grown matrix row by row
        // (both are row-major, so each copy is contiguous).
        let mut grown = Matrix::zeros(n + 1, n + 1);
        {
            let src = self.l.as_slice();
            let dst = grown.as_mut_slice();
            for i in 0..n {
                dst[i * (n + 1)..i * (n + 1) + n].copy_from_slice(&src[i * n..(i + 1) * n]);
            }
            dst[n * (n + 1)..n * (n + 1) + n].copy_from_slice(&row);
            dst[n * (n + 1) + n] = pivot;
        }
        self.l = grown;
        Ok(())
    }

    /// Returns the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension `n` of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    fn check_rhs_len(&self, len: usize) -> Result<()> {
        let n = self.dim();
        if len != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {len}"),
            });
        }
        Ok(())
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.check_rhs_len(b.len())?;
        let mut y = b.to_vec();
        self.forward_substitute_in_place(&mut y);
        Ok(y)
    }

    /// Solves `Lᵀ x = y` (backward substitution) into a caller-supplied buffer. The buffer
    /// is cleared and refilled.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `y.len() != n`.
    pub fn solve_upper_into(&self, y: &[f64], x: &mut Vec<f64>) -> Result<()> {
        self.check_rhs_len(y.len())?;
        x.clear();
        x.extend_from_slice(y);
        self.backward_substitute_in_place(x);
        Ok(())
    }

    /// Solves the full system `A x = b` where `A = L Lᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_vec_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-supplied buffer (forward then backward substitution in
    /// place). The buffer is cleared and refilled.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve_vec_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        self.check_rhs_len(b.len())?;
        x.clear();
        x.extend_from_slice(b);
        self.forward_substitute_in_place(x);
        self.backward_substitute_in_place(x);
        Ok(())
    }

    /// In-place forward substitution `v <- L⁻¹ v`.
    fn forward_substitute_in_place(&self, v: &mut [f64]) {
        let n = self.dim();
        for i in 0..n {
            let row = self.l.row(i);
            let mut sum = v[i];
            for (k, &vk) in v.iter().enumerate().take(i) {
                sum -= row[k] * vk;
            }
            v[i] = sum / row[i];
        }
    }

    /// In-place backward substitution `v <- L⁻ᵀ v`.
    fn backward_substitute_in_place(&self, v: &mut [f64]) {
        let n = self.dim();
        for i in (0..n).rev() {
            let mut sum = v[i];
            for (k, &vk) in v.iter().enumerate().skip(i + 1) {
                sum -= self.l[(k, i)] * vk;
            }
            v[i] = sum / self.l[(i, i)];
        }
    }

    /// Solves `L Y = B` for a whole right-hand-side block in place.
    ///
    /// The forward substitution walks `B` row by row, so every inner loop streams over a
    /// contiguous row-major slice — solving an `n x m` block costs one `O(n² m)` pass with
    /// unit-stride access instead of `m` strided column extractions. Each column of the
    /// result is bit-identical to [`solve_lower`](Self::solve_lower) on that column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `B.rows() != n`.
    pub fn solve_lower_matrix_in_place(&self, b: &mut Matrix) -> Result<()> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("matrix with {n} rows"),
                found: format!("matrix with {} rows", b.rows()),
            });
        }
        let m = b.cols();
        if m == 0 {
            return Ok(());
        }
        let data = b.as_mut_slice();
        for i in 0..n {
            let l_row = self.l.row(i);
            let (head, tail) = data.split_at_mut(i * m);
            let row_i = &mut tail[..m];
            for (k, row_k) in head.chunks_exact(m).enumerate() {
                let l_ik = l_row[k];
                for (yi, yk) in row_i.iter_mut().zip(row_k) {
                    *yi -= l_ik * yk;
                }
            }
            let pivot = l_row[i];
            for yi in row_i.iter_mut() {
                *yi /= pivot;
            }
        }
        Ok(())
    }

    /// Log-determinant of `A`, computed as `2 Σ log L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar row-order factorization that [`Cholesky::new`] tiles: one entry at a time,
    /// each chain in ascending `k`. Every tiled factor and failing pivot must equal its own.
    fn row_order_reference(a: &Matrix) -> Result<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// `B Bᵀ` for an `n × rank` matrix `B` with irregular entries in `[-0.5, 0.5)`, plus
    /// `shift` on the diagonal: positive definite for `shift > 0`, rank-deficient for
    /// `shift = 0` and `rank < n`.
    fn irregular_gram(n: usize, rank: usize, shift: f64) -> Matrix {
        let b = Matrix::from_fn(n, rank, |i, k| {
            ((i * rank + k + 1) as f64 * 0.618_033_988_749_895).fract() - 0.5
        });
        let mut a = b.mat_mul(&b.transpose()).unwrap();
        a.add_diagonal(shift);
        a
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_factor_equals_the_row_order_reference_bitwise() {
        for n in (1..=9).chain([13, 150, 301]) {
            let a = irregular_gram(n, n, 1.0 / n as f64);
            let tiled = Cholesky::new(&a).unwrap();
            let reference = row_order_reference(&a).unwrap();
            assert_eq!(bits(tiled.factor()), bits(&reference), "n = {n}");
        }
    }

    #[test]
    fn tiled_factor_fails_on_the_reference_pivot() {
        for n in (1..=9).chain([13, 150]) {
            // Rounding decides where a rank-deficient matrix fails, if it fails at all.
            let deficient = irregular_gram(n, n / 2, 0.0);
            let tiled = Cholesky::new(&deficient).map(|c| bits(c.factor()));
            let reference = row_order_reference(&deficient).map(|l| bits(&l));
            assert_eq!(tiled, reference, "n = {n}, rank {}", n / 2);
            for pivot in [0, n / 2, n - 1] {
                let mut negative = irregular_gram(n, n, 1.0);
                negative[(pivot, pivot)] = -1.0;
                let mut nan = irregular_gram(n, n, 1.0);
                nan[(pivot, 0)] = f64::NAN;
                nan[(0, pivot)] = f64::NAN;
                for a in [negative, nan] {
                    let expected = LinalgError::NotPositiveDefinite { pivot };
                    assert_eq!(row_order_reference(&a).err(), Some(expected.clone()));
                    assert_eq!(Cholesky::new(&a).err(), Some(expected), "n = {n}");
                }
            }
        }
    }

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap()
    }

    #[test]
    fn factorization_reconstructs_input() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let rebuilt = l.mat_mul(&l.transpose()).unwrap();
        assert!(rebuilt.max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn solve_matches_direct_substitution() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 3.0];
        let x = chol.solve_vec(&b).unwrap();
        let ax = a.mat_vec(&x).unwrap();
        for (lhs, rhs) in ax.iter().zip(&b) {
            assert!((lhs - rhs).abs() < 1e-10);
        }
    }

    #[test]
    fn log_determinant_matches_known_value() {
        // det of diag(2, 3, 4) is 24.
        let a = Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[0.0, 3.0, 0.0], &[0.0, 0.0, 4.0]]).unwrap();
        let chol = Cholesky::new(&a).unwrap();
        assert!((chol.log_determinant() - 24.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd_and_non_square() {
        let not_pd = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&not_pd),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let not_square = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&not_square),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn jitter_recovers_semi_definite_matrix() {
        // Rank-deficient matrix (outer product), PSD but not PD.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::new(&a).is_err());
        let chol = Cholesky::new_with_jitter(&a, 1e-10, 12).unwrap();
        assert_eq!(chol.dim(), 2);
        // The jittered solve should still roughly satisfy A x ≈ b for b in the column space.
        let x = chol.solve_vec(&[2.0, 2.0]).unwrap();
        let ax = a.mat_vec(&x).unwrap();
        assert!((ax[0] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn jitter_passes_through_other_errors() {
        let not_square = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new_with_jitter(&not_square, 1e-9, 5),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let chol = Cholesky::new(&spd3()).unwrap();
        assert!(chol.solve_vec(&[1.0, 2.0]).is_err());
        assert!(chol.solve_lower(&[1.0]).is_err());
        assert!(chol.solve_upper_into(&[1.0], &mut Vec::new()).is_err());
        assert!(chol
            .solve_lower_matrix_in_place(&mut Matrix::zeros(2, 2))
            .is_err());
    }

    fn spd4() -> Matrix {
        Matrix::from_rows(&[
            &[8.0, 2.0, 1.0, 0.5],
            &[2.0, 6.0, 2.0, 1.0],
            &[1.0, 2.0, 5.0, 2.0],
            &[0.5, 1.0, 2.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn extend_matches_from_scratch_factorization() {
        let a = spd4();
        let leading = Matrix::from_fn(3, 3, |i, j| a[(i, j)]);
        let mut chol = Cholesky::new(&leading).unwrap();
        chol.extend(&[a[(3, 0)], a[(3, 1)], a[(3, 2)]], a[(3, 3)])
            .unwrap();
        let full = Cholesky::new(&a).unwrap();
        assert_eq!(chol.dim(), 4);
        assert!(chol.factor().max_abs_diff(full.factor()).unwrap() < 1e-10);
    }

    #[test]
    fn extend_rejects_indefinite_extension_and_bad_lengths() {
        let mut chol = Cholesky::new(&spd3()).unwrap();
        // A huge off-diagonal coupling with a tiny new diagonal cannot be SPD.
        assert!(matches!(
            chol.extend(&[100.0, 0.0, 0.0], 1.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 3 })
        ));
        assert!(chol.extend(&[1.0], 1.0).is_err());
        // The failed attempts must not have corrupted the factor.
        assert_eq!(chol.dim(), 3);
        let x = chol.solve_vec(&[1.0, 2.0, 3.0]).unwrap();
        let ax = spd3().mat_vec(&x).unwrap();
        assert!((ax[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn blocked_matrix_solves_match_per_column_vector_solves() {
        let a = spd4();
        let chol = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(4, 5, |i, j| (i as f64 - 1.3) * (j as f64 + 0.7));
        let mut lower = b.clone();
        chol.solve_lower_matrix_in_place(&mut lower).unwrap();
        for j in 0..5 {
            let y = chol.solve_lower(&b.col(j)).unwrap();
            for i in 0..4 {
                assert_eq!(
                    lower[(i, j)],
                    y[i],
                    "the blocked solve diverged at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn blocked_solves_accept_zero_column_rhs() {
        let chol = Cholesky::new(&spd3()).unwrap();
        let mut empty = Matrix::zeros(3, 0);
        chol.solve_lower_matrix_in_place(&mut empty).unwrap();
        assert_eq!(empty.shape(), (3, 0));
    }

    #[test]
    fn into_variants_reuse_buffers_and_match_allocating_solves() {
        let chol = Cholesky::new(&spd3()).unwrap();
        let b = [1.0, -2.0, 3.0];
        let mut buf = vec![99.0; 17]; // deliberately wrong size and contents
        let y = chol.solve_lower(&b).unwrap();
        // Forward then backward substitution is the full solve, bit for bit.
        chol.solve_upper_into(&y, &mut buf).unwrap();
        assert_eq!(buf, chol.solve_vec(&b).unwrap());
        chol.solve_vec_into(&b, &mut buf).unwrap();
        assert_eq!(buf, chol.solve_vec(&b).unwrap());
        assert!(chol.solve_vec_into(&[1.0], &mut buf).is_err());
    }
}
