//! Free functions over `&[f64]` slices.
//!
//! These helpers are deliberately panic-on-mismatch: callers inside this workspace always
//! control both operands, and a silent wrong-length dot product would be a far worse bug than
//! a loud panic. Each function documents its panic condition.

/// Seed of every dot-product and squared-distance sum. `-0.0` is the exact additive
/// identity (`-0.0 + x` is `x` bit for bit, `+0.0` included), so a term chain sums as if
/// unseeded and an all-`-0.0` chain keeps its sign. Spelled out because `Iterator::sum` for
/// `f64` seeds with `-0.0` only on newer toolchains; older ones seed with `+0.0`.
pub(crate) const DOT_SEED: f64 = -0.0;

/// Dot product of two equal-length slices, summed in index order from `-0.0`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(linalg::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).fold(DOT_SEED, |acc, (x, y)| acc + x * y)
}

/// The one tile loop of the crate: runs the `R·C` chains
/// `acc[r][c] = step(acc[r][c], a[r][k], b[c][k])` for `k` in `0..len`, each in ascending
/// `k` from its own seed, side by side.
///
/// Each chain takes exactly the steps a scalar loop over `k` would, so it is bit-identical
/// to that loop; running the chains together lets their latencies overlap. The Cholesky
/// factorization runs its tiles through it. Only the first `len` entries of each slice are
/// read.
///
/// # Panics
///
/// Panics if a slice is shorter than `len`.
#[inline(always)]
pub(crate) fn fold_tile<const R: usize, const C: usize>(
    len: usize,
    mut acc: [[f64; C]; R],
    a: [&[f64]; R],
    b: [&[f64]; C],
    step: impl Fn(f64, f64, f64) -> f64,
) -> [[f64; C]; R] {
    // Re-slicing to the shared length lets the compiler drop the per-element bounds checks.
    let a = a.map(|s| &s[..len]);
    let b = b.map(|s| &s[..len]);
    for k in 0..len {
        for (acc_r, a_r) in acc.iter_mut().zip(&a) {
            let x = a_r[k];
            for (acc_rc, b_c) in acc_r.iter_mut().zip(&b) {
                *acc_rc = step(*acc_rc, x, b_c[k]);
            }
        }
    }
    acc
}

/// Euclidean (L2) norm.
///
/// # Examples
///
/// ```
/// assert_eq!(linalg::vector::norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices, summed in index order from
/// `-0.0` like [`dot`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance length mismatch");
    a.iter()
        .zip(b)
        .fold(DOT_SEED, |acc, (x, y)| acc + (x - y) * (x - y))
}

/// Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Element-wise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Returns `a` scaled by `alpha` as a new vector.
pub fn scale(alpha: f64, a: &[f64]) -> Vec<f64> {
    a.iter().map(|x| alpha * x).collect()
}

/// Arithmetic mean of a slice; returns 0.0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Sample variance (divides by `n`); returns 0.0 for slices shorter than 2.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Standard deviation derived from [`variance`].
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Maximum value of a slice; returns negative infinity for an empty slice.
pub fn max(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Minimum value of a slice; returns positive infinity for an empty slice.
pub fn min(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Clamps every element of `a` into `[lo, hi]`, returning a new vector.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn clamp(a: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    assert!(lo <= hi, "clamp requires lo <= hi");
    a.iter().map(|x| x.clamp(lo, hi)).collect()
}

/// Linearly interpolates between `a` and `b` with weight `t` in `[0, 1]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn lerp(a: &[f64], b: &[f64], t: f64) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "lerp length mismatch");
    a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_distance() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn all_negative_zero_products_sum_to_negative_zero() {
        // Every product is -0.0, so only a -0.0 seed keeps the sign of the exact sum.
        let (a, b) = ([-0.0, 0.0, 3.0], [1.0, -2.0, -0.0]);
        assert_eq!(dot(&a, &b).to_bits(), (-0.0f64).to_bits());
        assert_eq!(dot(&[], &[]).to_bits(), (-0.0f64).to_bits());
        // The packed kernel seeds every lane the same way: row a with point b, row b with
        // point a, and an empty row with an empty point.
        let rows = [a, b];
        let panels = crate::RowPanels::from_rows(2, 3, |r, row| row.copy_from_slice(&rows[r]));
        let mut sums = [[f64::NAN; 2]; 2];
        panels.dots(
            2,
            |p| &rows[1 - p][..],
            |tile_rows, first, products| {
                for (p, point_sums) in (first..).zip(products.iter()) {
                    for r in tile_rows.clone() {
                        sums[r][p] = point_sums[r - tile_rows.start];
                    }
                }
            },
        );
        assert_eq!(sums[0][0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(sums[1][1].to_bits(), (-0.0f64).to_bits());
        let empty = crate::RowPanels::from_rows(1, 0, |_, _| {});
        empty.dots(
            1,
            |_| &[],
            |_, _, sums| {
                assert_eq!(sums[0][0].to_bits(), (-0.0f64).to_bits());
            },
        );
    }

    #[test]
    fn empty_squared_distances_are_negative_zero() {
        // Every term is >= +0.0, so the seed only shows when there is no term, in the
        // scalar chain and in the packed walk alike.
        assert_eq!(squared_distance(&[], &[]).to_bits(), (-0.0f64).to_bits());
        let empty = crate::RowPanels::from_rows(1, 0, |_, _| {});
        empty.squared_distances(
            2,
            |_| &[],
            |_, _, sums| {
                assert!(sums.iter().all(|s| s[0].to_bits() == (-0.0f64).to_bits()));
            },
        );
        assert_eq!(
            squared_distance(&[-0.0], &[0.0]).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn axpy_add_sub_scale() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[3.0, 4.0], &[1.0, 2.0]), vec![2.0, 2.0]);
        assert_eq!(scale(0.5, &[2.0, 4.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn statistics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn extremes_and_arg() {
        assert_eq!(max(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(min(&[1.0, 5.0, 3.0]), 1.0);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn clamp_and_lerp() {
        assert_eq!(clamp(&[-1.0, 0.5, 2.0], 0.0, 1.0), vec![0.0, 0.5, 1.0]);
        assert_eq!(lerp(&[0.0, 10.0], &[10.0, 20.0], 0.5), vec![5.0, 15.0]);
        assert_eq!(lerp(&[0.0], &[10.0], 0.0), vec![0.0]);
        assert_eq!(lerp(&[0.0], &[10.0], 1.0), vec![10.0]);
    }

    #[test]
    #[should_panic]
    fn clamp_invalid_bounds_panics() {
        clamp(&[1.0], 2.0, 1.0);
    }
}
