//! Rows packed for SIMD dot products against many points.
//!
//! A row-major matrix hands a dot-product kernel one contiguous row at a time, so the
//! compiler finds no lanes to fill: every product is its own add-latency-bound chain.
//! [`RowPanels`] stores the rows `k`-major in panels of 8 rows instead, so the
//! `k`-th entries of a panel's 8 rows sit side by side and one step of the kernel updates 8
//! independent sums with a pair of 256-bit AVX2 operations (four 128-bit ones on the
//! baseline x86-64 target). Each lane stays its own in-order sum from `-0.0`, so every
//! product is bit-identical to [`vector::dot`](crate::vector::dot).
//!
//! The kernel is written once and compiled twice: for the build target, and with AVX2
//! enabled. [`RowPanels::dots`] picks the AVX2 copy when `is_x86_feature_detected!("avx2")`
//! says the CPU runs it; the two give the same bits, since Rust never fuses a multiply and
//! an add into an FMA. They differ only in how many points one kernel call takes, which
//! changes no sum.

use crate::vector::DOT_SEED;
use std::ops::Range;

/// Rows per panel: one SIMD lane per row.
const LANES: usize = 8;

/// Points per kernel tile in the AVX2 copy: 4 points × [`LANES`] rows are 8 independent
/// 256-bit sums, which hide the add latency and leave registers for the operands.
const AVX2_POINTS: usize = 4;

/// Points per kernel tile in the portable copy. On x86-64 without AVX2 the 4 × 8 tile needs
/// all 16 of SSE2's registers for its sums and spills: at 150 rows × 40 points × 501 it took
/// ~1.0 ms against ~0.65 ms for 2-point tiles (one core of a shared Xeon VM).
const PORTABLE_POINTS: usize = 2;

/// The rows of a `rows × row_len` matrix, packed `k`-major into zero-padded panels of 8
/// rows for [`dots`](Self::dots).
///
/// # Examples
///
/// ```
/// use linalg::{vector, RowPanels};
///
/// let rows = [[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]];
/// let panels = RowPanels::from_rows(3, 2, |r, row| row.copy_from_slice(&rows[r]));
/// let point = [3.0, 4.0];
/// let mut products = vec![];
/// panels.dots(1, |_| &point[..], |r, _, sums| products.push((r, sums[0])));
/// let expected: Vec<_> = (0..3).map(|r| (r, vector::dot(&rows[r], &point))).collect();
/// assert_eq!(products, expected);
/// ```
#[derive(Debug, Clone)]
pub struct RowPanels {
    rows: usize,
    row_len: usize,
    /// Panel `p` holds rows `LANES·p ..`; entry `(LANES·p + l, k)` sits at
    /// `(p·row_len + k)·LANES + l`. Lanes past the last row are `0.0`.
    data: Vec<f64>,
}

impl RowPanels {
    /// Packs `rows` rows of length `row_len`, calling `fill(r, row)` for `r` in ascending
    /// order to write row `r` into a zeroed `row_len`-long buffer.
    pub fn from_rows(rows: usize, row_len: usize, mut fill: impl FnMut(usize, &mut [f64])) -> Self {
        let mut data = vec![0.0; rows.div_ceil(LANES) * row_len * LANES];
        let mut row = vec![0.0; row_len];
        for r in 0..rows {
            row.fill(0.0);
            fill(r, &mut row);
            let panel = &mut data[(r / LANES) * row_len * LANES..][..row_len * LANES];
            for (column, v) in panel.chunks_exact_mut(LANES).zip(&row) {
                column[r % LANES] = *v;
            }
        }
        RowPanels {
            rows,
            row_len,
            data,
        }
    }

    /// Length of every row.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Walks the dot products of every row with each of `count` points `point(p)`, each
    /// bit-identical to [`vector::dot`](crate::vector::dot)`(row r, point(p))`.
    ///
    /// Calls `visit(r, first, sums)` with row `r`'s products with the points
    /// `first..first + sums.len()` (at most 4 of them; `sums` is scratch the visitor may
    /// overwrite). Every point sees the rows in ascending order, so a visitor that
    /// accumulates per point sums in the same order as a loop over the rows. Nothing is
    /// allocated.
    ///
    /// # Panics
    ///
    /// Panics if a point's length differs from [`row_len`](Self::row_len).
    pub fn dots<'a>(
        &self,
        count: usize,
        point: impl Fn(usize) -> &'a [f64],
        visit: impl FnMut(usize, usize, &mut [f64]),
    ) {
        self.dots_on(true, count, point, visit);
    }

    /// [`dots`](Self::dots) on the AVX2 copy of the kernel when `allow_avx2` is set and
    /// the CPU runs AVX2, and on the build target's copy otherwise.
    #[allow(unsafe_code)]
    fn dots_on<'a>(
        &self,
        allow_avx2: bool,
        count: usize,
        point: impl Fn(usize) -> &'a [f64],
        visit: impl FnMut(usize, usize, &mut [f64]),
    ) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if allow_avx2 && is_x86_feature_detected!("avx2") {
            /// [`walk`] compiled with AVX2 enabled.
            ///
            /// # Safety
            ///
            /// The CPU running it must support AVX2.
            #[target_feature(enable = "avx2")]
            unsafe fn walk_avx2<'p>(
                panels: &RowPanels,
                count: usize,
                point: impl Fn(usize) -> &'p [f64],
                visit: impl FnMut(usize, usize, &mut [f64]),
            ) {
                walk::<AVX2_POINTS>(panels, count, point, visit);
            }
            // SAFETY: `walk_avx2` only requires AVX2, and `is_x86_feature_detected!("avx2")`
            // has just confirmed that this CPU supports it.
            return unsafe { walk_avx2(self, count, point, visit) };
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let _ = allow_avx2;
        walk::<PORTABLE_POINTS>(self, count, point, visit);
    }
}

/// The body of [`RowPanels::dots`]: every panel against every tile of up to `POINTS`
/// points (at most 4). Inlined into both of its callers, so the kernel is compiled once per
/// instruction set.
#[inline(always)]
fn walk<'a, const POINTS: usize>(
    panels: &RowPanels,
    count: usize,
    point: impl Fn(usize) -> &'a [f64],
    mut visit: impl FnMut(usize, usize, &mut [f64]),
) {
    let panel_len = panels.row_len * LANES;
    for first_row in (0..panels.rows).step_by(LANES) {
        let panel = &panels.data[first_row * panels.row_len..][..panel_len];
        let rows = first_row..(first_row + LANES).min(panels.rows);
        for first in (0..count).step_by(POINTS) {
            let rows = rows.clone();
            match (count - first).min(POINTS) {
                1 => tile::<1>(panel, rows, first, &point, &mut visit),
                2 => tile::<2>(panel, rows, first, &point, &mut visit),
                3 => tile::<3>(panel, rows, first, &point, &mut visit),
                _ => tile::<POINTS>(panel, rows, first, &point, &mut visit),
            }
        }
    }
}

/// Runs [`kernel`] on `panel`, which holds `rows`, and the points `first..first + C`, and
/// hands each row's products to `visit`.
#[inline(always)]
fn tile<'a, const C: usize>(
    panel: &[f64],
    rows: Range<usize>,
    first: usize,
    point: &impl Fn(usize) -> &'a [f64],
    visit: &mut impl FnMut(usize, usize, &mut [f64]),
) {
    // `black_box` makes the kernel store its sums whole before the visitor reads them.
    // Without it, in the copy the fast tier's visitor (an inlined polynomial cosine) is
    // compiled into, LLVM's SLP vectorizer grouped the accumulators across lanes and spilled
    // them: that tier's `eval_batch_into` at the paper's shape took 0.8–1.0 ms instead of
    // 0.3–0.4 ms.
    let sums = std::hint::black_box(kernel::<C>(
        panel,
        std::array::from_fn(|c| point(first + c)),
    ));
    for (lane, r) in rows.enumerate() {
        let mut products: [f64; C] = std::array::from_fn(|c| sums[c][lane]);
        visit(r, first, &mut products);
    }
}

/// The micro-kernel: the dot products of the [`LANES`] rows of `panel` with each of `C`
/// points.
///
/// Lane `l` of point `c` is the chain `acc = acc + row_l[k] · x_c[k]` for ascending `k`
/// from [`DOT_SEED`], exactly the steps of [`vector::dot`](crate::vector::dot); the
/// `LANES · C` chains only run side by side.
///
/// # Panics
///
/// Panics if a point's length differs from the panel's row length.
#[inline(always)]
fn kernel<const C: usize>(panel: &[f64], points: [&[f64]; C]) -> [[f64; LANES]; C] {
    let len = panel.len() / LANES;
    assert!(
        points.iter().all(|x| x.len() == len),
        "RowPanels::dots length mismatch"
    );
    // Re-slicing to the checked length lets the compiler drop the per-element bounds checks.
    let points = points.map(|x| &x[..len]);
    let mut acc = [[DOT_SEED; LANES]; C];
    for k in 0..len {
        let column: &[f64; LANES] = panel[k * LANES..][..LANES]
            .try_into()
            .expect("a panel column holds LANES entries");
        for c in 0..C {
            let x_k = points[c][k];
            for l in 0..LANES {
                acc[c][l] += column[l] * x_k;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot;

    /// Whether two sums agree bit for bit. A NaN result only has to be NaN: Rust leaves the
    /// sign and payload of a NaN produced by arithmetic unspecified.
    fn same_sum(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Runs one copy of the kernel over `rows × points` and checks that every product is
    /// visited once, in ascending row order per point, bit-identical to `dot`.
    fn assert_dots_match(allow_avx2: bool, rows: &[Vec<f64>], points: &[Vec<f64>]) {
        let len = points.first().or(rows.first()).map_or(0, Vec::len);
        let panels = RowPanels::from_rows(rows.len(), len, |r, row| {
            row.copy_from_slice(&rows[r]);
        });
        let mut next_row = vec![0; points.len()];
        panels.dots_on(
            allow_avx2,
            points.len(),
            |p| &points[p],
            |r, first, sums| {
                assert!(sums.len() <= AVX2_POINTS && first + sums.len() <= points.len());
                for (p, got) in (first..).zip(sums.iter()) {
                    assert_eq!(next_row[p], r, "point {p} saw row {r} out of order");
                    next_row[p] += 1;
                    let want = dot(&rows[r], &points[p]);
                    assert!(
                        same_sum(*got, want),
                        "avx2 {allow_avx2}: row {r} of {}, point {p} of {}, length {len}: \
                         {got:e} vs {want:e}",
                        rows.len(),
                        points.len()
                    );
                }
            },
        );
        assert!(next_row.iter().all(|&seen| seen == rows.len()));
    }

    /// A value from a fixed pseudo-random stream: ordinary floats in `[-2, 2)`, and with
    /// `edges` set, one in three drawn from ±0.0, subnormals, huge values, ±∞ and NaN so
    /// the sums cancel to signed zeros, underflow, overflow and turn NaN.
    fn value(state: &mut u64, edges: bool) -> f64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let bits = *state >> 11;
        let x = bits as f64 / (1u64 << 53) as f64 * 4.0 - 2.0;
        if !edges {
            return x;
        }
        match bits % 24 {
            0 => 0.0,
            1 => -0.0,
            2 => x * 1e-3 * f64::MIN_POSITIVE,
            3 => x * 1e306,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::NAN,
            7 => -f64::MIN_POSITIVE / 4.0,
            _ => x,
        }
    }

    #[test]
    fn both_kernel_copies_match_dot_bitwise_on_every_lane_and_tile_edge() {
        // Row counts below, on and past one and two panels, and the paper's 150 features;
        // point counts on every tile remainder; lengths from empty to θ ∈ ℝ⁵⁰¹. The AVX2
        // copy runs where the CPU has it; elsewhere both runs take the portable copy.
        let mut state = 7;
        for edges in [false, true] {
            for rows in [1, 7, 8, 9, 16, 17, 150] {
                for count in [0, 1, 2, 3, 4, 5, 40] {
                    for len in [0, 1, 7, 501] {
                        let mut draw = |n: usize| -> Vec<Vec<f64>> {
                            (0..n)
                                .map(|_| (0..len).map(|_| value(&mut state, edges)).collect())
                                .collect()
                        };
                        let (rows, points) = (draw(rows), draw(count));
                        assert_dots_match(false, &rows, &points);
                        assert_dots_match(true, &rows, &points);
                    }
                }
            }
        }
    }

    #[test]
    fn packing_keeps_every_entry_and_zero_pads_the_last_panel() {
        let panels = RowPanels::from_rows(9, 3, |r, row| {
            for (k, v) in row.iter_mut().enumerate() {
                *v = (10 * r + k) as f64;
            }
        });
        assert_eq!((panels.rows, panels.row_len()), (9, 3));
        assert_eq!(panels.data.len(), 2 * 3 * LANES);
        for r in 0..9 {
            for k in 0..3 {
                let at = ((r / LANES) * 3 + k) * LANES + r % LANES;
                assert_eq!(panels.data[at], (10 * r + k) as f64);
            }
        }
        let padding = (3 * LANES..6 * LANES).filter(|i| i % LANES != 0);
        assert!(padding.map(|i| panels.data[i]).all(|v| v.to_bits() == 0));
        assert!(RowPanels::from_rows(0, 5, |_, _| unreachable!())
            .data
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "RowPanels::dots length mismatch")]
    fn dots_length_mismatch_panics() {
        let panels = RowPanels::from_rows(2, 2, |_, row| row.fill(1.0));
        panels.dots(1, |_| &[1.0, 2.0, 3.0][..], |_, _, _| {});
    }
}
