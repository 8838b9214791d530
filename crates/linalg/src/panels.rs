//! Rows packed for SIMD dot products and squared distances against many points.
//!
//! A row-major matrix hands a dot-product kernel one contiguous row at a time, so the
//! compiler finds no lanes to fill: every product is its own add-latency-bound chain.
//! [`RowPanels`] stores the rows `k`-major in panels of 8 rows instead, so the
//! `k`-th entries of a panel's 8 rows sit side by side and one step of the kernel updates 8
//! independent sums with a pair of 256-bit AVX2 operations (four 128-bit ones on the
//! baseline x86-64 target).
//!
//! # Three walks
//!
//! One micro-kernel runs three kinds of step, each lane an in-order chain from `-0.0`:
//!
//! - [`RowPanels::dots`] steps `acc + a·x`, so every product is bit-identical to
//!   [`vector::dot`](crate::vector::dot).
//! - [`RowPanels::fused_dots`] steps `a.mul_add(x, acc)`, so every product is
//!   bit-identical to the scalar fold
//!   `a.iter().zip(b).fold(-0.0, |acc, (x, y)| x.mul_add(*y, acc))`. One rounding per step
//!   instead of two, and one instruction.
//! - [`RowPanels::squared_distances`] steps `acc + (a − x)·(a − x)`, unfused, so every
//!   entry is bit-identical to
//!   [`vector::squared_distance`](crate::vector::squared_distance) in either argument
//!   order (`a − x` and `x − a` round to the same magnitude). The GP kernel's Gram and
//!   cross-covariance matrices walk it.
//!
//! All three hand the caller one tile at a time: `visit(rows, first, sums)` with
//! `sums[c][lane]` the result of row `rows.start + lane` with point `first + c`. Lanes
//! past `rows.end` belong to the zero padding of the last panel, and callers ignore them.
//! Every point sees the tiles of ascending rows in turn, so a visitor that accumulates per
//! point over `rows` in ascending order sums in the same order as a loop over the rows.
//! A visitor inlined into the copy of the walk that calls it is compiled for that copy's
//! instruction set, so one written for 8 lanes runs at its SIMD width; the RFF fast tier
//! forces that inlining for its block cosine.
//!
//! # Dispatch
//!
//! The walk is written once, generic over its step, and runs through
//! [`simd::dispatch`](crate::simd::dispatch): in the copy compiled with AVX2 and FMA when
//! the CPU has both, and in the portable copy otherwise. Only the tile width differs:
//!
//! | walk | AVX2 + FMA copy | portable copy |
//! |------|-----------------|---------------|
//! | `dots` | 4 points per tile | 2 |
//! | `fused_dots` | 6 | 2 |
//! | `squared_distances` | 4 | 2 |
//!
//! Every copy gives the same bits: Rust never contracts a multiply and an add into an FMA,
//! and `f64::mul_add` is always the correctly rounded fused operation. Where the build
//! target has no FMA instruction (baseline x86-64), the portable `mul_add` is a call into
//! the C library's software `fma`: the bits are right and the speed is low. x86 CPUs
//! without FMA hardware predate AVX2, so on any AVX2 machine every walk runs the wide
//! copy. The tile width changes how many points one kernel call takes, which changes no
//! sum.

use crate::vector::DOT_SEED;
use std::ops::Range;

/// Rows per panel: one SIMD lane per row.
const LANES: usize = RowPanels::LANES;

/// Points per kernel tile in the portable copy. On x86-64 without AVX2 the 4 × 8 tile needs
/// all 16 of SSE2's registers for its sums and spills: at 150 rows × 40 points × 501 it took
/// ~1.0 ms against ~0.65 ms for 2-point tiles (one core of a shared Xeon VM).
const PORTABLE_POINTS: usize = 2;

/// The most points any copy puts in one tile: the size of the walk's sums buffer. The
/// match in [`walk`] has an arm for every narrower tile.
const MAX_POINTS: usize = 6;

/// One step of a lane's chain, and the tile width of the wide copy that runs it.
trait Step {
    /// Points per kernel tile in the AVX2 + FMA copy, at most [`MAX_POINTS`].
    const WIDE_POINTS: usize;

    /// The lane's next partial sum after row entry `a` meets point entry `x`.
    fn step(acc: f64, a: f64, x: f64) -> f64;
}

/// The unfused product step of [`RowPanels::dots`]. 4 points × [`LANES`] rows are 8
/// independent 256-bit sums on AVX2, which hide the add latency and leave registers for
/// the operands.
struct Dot;

impl Step for Dot {
    const WIDE_POINTS: usize = 4;

    #[inline(always)]
    fn step(acc: f64, a: f64, x: f64) -> f64 {
        acc + a * x
    }
}

/// The fused step of [`RowPanels::fused_dots`]. 6 points × [`LANES`] rows are 12 of AVX2's
/// 16 registers, and one fused step per pair leaves room for the column and the broadcast
/// point entry. At 150 rows × 40 points × 501 the walk took ~165 µs against ~173 µs for
/// 4-point tiles, and the RFF fast tier's whole evaluation ~190 µs against ~198 µs (10th
/// percentiles of 2,000 calls, one core of a shared Xeon VM).
struct Fused;

impl Step for Fused {
    const WIDE_POINTS: usize = 6;

    #[inline(always)]
    fn step(acc: f64, a: f64, x: f64) -> f64 {
        a.mul_add(x, acc)
    }
}

/// The squared-distance step of [`RowPanels::squared_distances`]. Each step holds a
/// difference besides the sums, so the wide copy keeps the unfused walk's 4-point tiles.
struct Distance;

impl Step for Distance {
    const WIDE_POINTS: usize = 4;

    #[inline(always)]
    fn step(acc: f64, a: f64, x: f64) -> f64 {
        acc + (a - x) * (a - x)
    }
}

const _: () = assert!(
    Dot::WIDE_POINTS <= MAX_POINTS
        && Fused::WIDE_POINTS <= MAX_POINTS
        && Distance::WIDE_POINTS <= MAX_POINTS
        && PORTABLE_POINTS <= MAX_POINTS
);

/// The rows of a `rows × row_len` matrix, packed `k`-major into zero-padded panels of
/// [`LANES`](Self::LANES) rows for [`dots`](Self::dots),
/// [`fused_dots`](Self::fused_dots) and [`squared_distances`](Self::squared_distances).
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
/// panels.dots(1, |_| &point[..], |rows, _, sums| {
///     products.extend(rows.clone().zip(&sums[0]).map(|(r, s)| (r, *s)));
/// });
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
    /// Rows per panel, and so lanes per tile row of `sums`: one SIMD lane per row.
    pub const LANES: usize = 8;

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
    /// Calls `visit(rows, first, sums)` once per tile: `sums[c][lane]` is the product of
    /// row `rows.start + lane` with point `first + c`, for up to 6 points (`sums` is
    /// scratch the visitor may overwrite). Lanes past `rows.end` are padding. Every point
    /// sees its tiles in ascending row order. Nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if a point's length differs from [`row_len`](Self::row_len).
    pub fn dots<'a>(
        &self,
        count: usize,
        point: impl Fn(usize) -> &'a [f64],
        visit: impl FnMut(Range<usize>, usize, &mut [[f64; LANES]]),
    ) {
        self.walk_on::<Dot>(count, false, point, visit);
    }

    /// [`dots`](Self::dots) with every lane an in-order fused multiply-add chain: each
    /// product is bit-identical to the scalar fold
    /// `row.iter().zip(point).fold(-0.0, |acc, (a, x)| a.mul_add(*x, acc))` on every CPU.
    ///
    /// # Panics
    ///
    /// Panics if a point's length differs from [`row_len`](Self::row_len).
    pub fn fused_dots<'a>(
        &self,
        count: usize,
        point: impl Fn(usize) -> &'a [f64],
        visit: impl FnMut(Range<usize>, usize, &mut [[f64; LANES]]),
    ) {
        self.walk_on::<Fused>(count, false, point, visit);
    }

    /// [`dots`](Self::dots) with every lane the squared distance of its row to the point,
    /// bit-identical to [`vector::squared_distance`](crate::vector::squared_distance)
    /// `(row r, point(p))` (and to the same with the arguments swapped).
    ///
    /// # Panics
    ///
    /// Panics if a point's length differs from [`row_len`](Self::row_len).
    pub fn squared_distances<'a>(
        &self,
        count: usize,
        point: impl Fn(usize) -> &'a [f64],
        visit: impl FnMut(Range<usize>, usize, &mut [[f64; LANES]]),
    ) {
        self.walk_on::<Distance>(count, false, point, visit);
    }

    /// [`dots`](Self::dots) of the rows with themselves, lower triangle only: `point(p)`
    /// must be row `p`, and each panel of rows meets only the points up to its last row,
    /// so every product `(r, p)` with `p ≤ r` is visited once (with the rest of the
    /// panel's diagonal block). A Gram matrix of the rows needs only these, mirrored; it
    /// takes about half the steps of `dots(rows, …)`.
    ///
    /// # Panics
    ///
    /// Panics if a point's length differs from [`row_len`](Self::row_len).
    pub fn lower_dots<'a>(
        &self,
        point: impl Fn(usize) -> &'a [f64],
        visit: impl FnMut(Range<usize>, usize, &mut [[f64; LANES]]),
    ) {
        self.walk_on::<Dot>(self.rows, true, point, visit);
    }

    /// [`squared_distances`](Self::squared_distances) of the rows with themselves, lower
    /// triangle only, as [`lower_dots`](Self::lower_dots) walks the products.
    ///
    /// # Panics
    ///
    /// Panics if a point's length differs from [`row_len`](Self::row_len).
    pub fn lower_squared_distances<'a>(
        &self,
        point: impl Fn(usize) -> &'a [f64],
        visit: impl FnMut(Range<usize>, usize, &mut [[f64; LANES]]),
    ) {
        self.walk_on::<Distance>(self.rows, true, point, visit);
    }

    /// The walk of step `S` through [`simd::dispatch`](crate::simd::dispatch), at the tile
    /// width of the copy it runs in; with `lower`, each panel stops at the point of its
    /// last row.
    fn walk_on<'a, S: Step>(
        &self,
        count: usize,
        lower: bool,
        point: impl Fn(usize) -> &'a [f64],
        visit: impl FnMut(Range<usize>, usize, &mut [[f64; LANES]]),
    ) {
        crate::simd::dispatch(
            #[inline(always)]
            |wide| match (wide, S::WIDE_POINTS) {
                (false, _) => walk::<S, PORTABLE_POINTS>(self, count, lower, point, visit),
                (true, 6) => walk::<S, 6>(self, count, lower, point, visit),
                (true, _) => walk::<S, 4>(self, count, lower, point, visit),
            },
        );
    }
}

/// The body of every walk: every panel against every tile of up to `POINTS` points, each
/// tile's sums handed to `visit` from one call site. Inlined into each copy of
/// [`RowPanels::walk_on`], so the kernel and the visitor are compiled once per instruction
/// set.
#[inline(always)]
fn walk<'a, S: Step, const POINTS: usize>(
    panels: &RowPanels,
    count: usize,
    lower: bool,
    point: impl Fn(usize) -> &'a [f64],
    mut visit: impl FnMut(Range<usize>, usize, &mut [[f64; LANES]]),
) {
    let panel_len = panels.row_len * LANES;
    let mut sums = [[0.0; LANES]; MAX_POINTS];
    for first_row in (0..panels.rows).step_by(LANES) {
        let panel = &panels.data[first_row * panels.row_len..][..panel_len];
        let rows = first_row..(first_row + LANES).min(panels.rows);
        let count = if lower { rows.end.min(count) } else { count };
        for first in (0..count).step_by(POINTS) {
            let width = (count - first).min(POINTS);
            match width {
                1 => tile::<S, 1>(panel, first, &point, &mut sums),
                2 => tile::<S, 2>(panel, first, &point, &mut sums),
                3 => tile::<S, 3>(panel, first, &point, &mut sums),
                4 => tile::<S, 4>(panel, first, &point, &mut sums),
                5 => tile::<S, 5>(panel, first, &point, &mut sums),
                _ => tile::<S, POINTS>(panel, first, &point, &mut sums),
            }
            visit(rows.clone(), first, &mut sums[..width]);
        }
    }
}

/// Runs [`kernel`] on `panel` and the points `first..first + C`, and stores the tile's
/// sums in `sums[..C]`.
#[inline(always)]
fn tile<'a, S: Step, const C: usize>(
    panel: &[f64],
    first: usize,
    point: &impl Fn(usize) -> &'a [f64],
    sums: &mut [[f64; LANES]; MAX_POINTS],
) {
    let points = std::array::from_fn(|c| point(first + c));
    sums[..C].copy_from_slice(&kernel::<S, C>(panel, points));
}

/// The micro-kernel: the chains of the [`LANES`] rows of `panel` with each of `C` points.
///
/// Lane `l` of point `c` is the chain `acc = S::step(acc, row_l[k], x_c[k])` for ascending
/// `k` from [`DOT_SEED`], exactly the steps of the scalar reference (for [`Dot`]
/// [`vector::dot`](crate::vector::dot)); the `LANES · C` chains only run side by side.
///
/// # Panics
///
/// Panics if a point's length differs from the panel's row length.
#[inline(always)]
fn kernel<S: Step, const C: usize>(panel: &[f64], points: [&[f64]; C]) -> [[f64; LANES]; C] {
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
                acc[c][l] = S::step(acc[c][l], column[l], x_k);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{dot, squared_distance};

    /// Whether two sums agree bit for bit. A NaN result only has to be NaN: Rust leaves the
    /// sign and payload of a NaN produced by arithmetic unspecified.
    fn same_sum(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The scalar reference of [`RowPanels::fused_dots`]: an in-order `mul_add` chain from
    /// `-0.0`.
    fn fused_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).fold(-0.0, |acc, (x, y)| x.mul_add(*y, acc))
    }

    /// Runs one walk of step `S` over `rows × points`, on the portable copy when
    /// `portable` is set and on the dispatched one otherwise, and checks that every entry
    /// is visited once, in ascending row order per point, bit-identical to
    /// `reference(row, point)`.
    fn assert_walk_matches<S: Step>(
        portable: bool,
        reference: fn(&[f64], &[f64]) -> f64,
        rows: &[Vec<f64>],
        points: &[Vec<f64>],
    ) {
        let len = points.first().or(rows.first()).map_or(0, Vec::len);
        let panels = RowPanels::from_rows(rows.len(), len, |r, row| {
            row.copy_from_slice(&rows[r]);
        });
        let mut next_row = vec![0; points.len()];
        let mut walk = || {
            panels.walk_on::<S>(
                points.len(),
                false,
                |p| &points[p],
                |tile_rows, first, sums| {
                    assert!(!sums.is_empty() && sums.len() <= MAX_POINTS);
                    assert!(first + sums.len() <= points.len());
                    assert!(tile_rows.start % LANES == 0 && tile_rows.len() <= LANES);
                    assert!(!tile_rows.is_empty() && tile_rows.end <= rows.len());
                    for (p, point_sums) in (first..).zip(sums.iter()) {
                        for (r, got) in tile_rows.clone().zip(point_sums) {
                            assert_eq!(next_row[p], r, "point {p} saw row {r} out of order");
                            next_row[p] += 1;
                            let want = reference(&rows[r], &points[p]);
                            assert!(
                                same_sum(*got, want),
                                "{}, portable {portable}: row {r} of {}, point {p} of {}, \
                                 length {len}: {got:e} vs {want:e}",
                                std::any::type_name::<S>(),
                                rows.len(),
                                points.len()
                            );
                        }
                    }
                },
            )
        };
        if portable {
            crate::simd::portable(walk);
        } else {
            walk();
        }
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

    /// Runs `check` on a grid of rows and points: row counts below, on and past one and two
    /// panels, and the paper's 150 features; point counts on every tile remainder of both
    /// tile widths; lengths from empty to θ ∈ ℝ⁵⁰¹; ordinary and edge-float data.
    fn for_each_grid_case(mut check: impl FnMut(&[Vec<f64>], &[Vec<f64>])) {
        let mut state = 7;
        for edges in [false, true] {
            for rows in [1, 7, 8, 9, 16, 17, 150] {
                for count in [0, 1, 2, 3, 4, 5, 6, 7, 13, 40] {
                    for len in [0, 1, 7, 501] {
                        let mut draw = |n: usize| -> Vec<Vec<f64>> {
                            (0..n)
                                .map(|_| (0..len).map(|_| value(&mut state, edges)).collect())
                                .collect()
                        };
                        let (rows, points) = (draw(rows), draw(count));
                        check(&rows, &points);
                    }
                }
            }
        }
    }

    #[test]
    fn both_kernel_copies_match_dot_bitwise_on_every_lane_and_tile_edge() {
        // The AVX2 + FMA copy runs where the CPU has both; elsewhere both runs take the
        // portable copy.
        for_each_grid_case(|rows, points| {
            assert_walk_matches::<Dot>(true, dot, rows, points);
            assert_walk_matches::<Dot>(false, dot, rows, points);
        });
    }

    #[test]
    fn both_fused_copies_match_the_scalar_mul_add_fold_bitwise() {
        // The portable copy's `mul_add` is the C library's `fma` on targets without the
        // instruction.
        for_each_grid_case(|rows, points| {
            assert_walk_matches::<Fused>(true, fused_dot, rows, points);
            assert_walk_matches::<Fused>(false, fused_dot, rows, points);
        });
    }

    #[test]
    fn both_distance_copies_match_squared_distance_bitwise() {
        // Row and point counts below, on and past one panel and every tile width, at the
        // dimensions of the tests' toy inputs and of θ; each entry against the reference in
        // both argument orders.
        let swapped = |a: &[f64], b: &[f64]| squared_distance(b, a);
        let mut state = 11;
        for edges in [false, true] {
            for rows in [1, 7, 8, 9, 13, 17] {
                for count in [1, 7, 8, 9, 13, 17] {
                    for len in [1, 3, 501] {
                        let mut draw = |n: usize| -> Vec<Vec<f64>> {
                            (0..n)
                                .map(|_| (0..len).map(|_| value(&mut state, edges)).collect())
                                .collect()
                        };
                        let (rows, points) = (draw(rows), draw(count));
                        for portable in [true, false] {
                            assert_walk_matches::<Distance>(
                                portable,
                                squared_distance,
                                &rows,
                                &points,
                            );
                            assert_walk_matches::<Distance>(portable, swapped, &rows, &points);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lower_walks_visit_each_panel_up_to_its_last_row_bitwise_on_both_copies() {
        let mut state = 13;
        for edges in [false, true] {
            for count in [0, 1, 7, 8, 9, 13, 17, 150] {
                for len in [0, 3, 55] {
                    let rows: Vec<Vec<f64>> = (0..count)
                        .map(|_| (0..len).map(|_| value(&mut state, edges)).collect())
                        .collect();
                    let panels = RowPanels::from_rows(count, len, |r, row| {
                        row.copy_from_slice(&rows[r]);
                    });
                    for portable in [true, false] {
                        for distances in [false, true] {
                            let mut seen = vec![vec![false; count]; count];
                            let visit =
                                |tile_rows: Range<usize>,
                                 first: usize,
                                 sums: &mut [[f64; LANES]]| {
                                    for (p, point_sums) in (first..).zip(sums.iter()) {
                                        assert!(
                                            p < tile_rows.end,
                                            "point {p} past row {}",
                                            tile_rows.end
                                        );
                                        for (r, got) in tile_rows.clone().zip(point_sums) {
                                            let want = if distances {
                                                squared_distance(&rows[r], &rows[p])
                                            } else {
                                                dot(&rows[r], &rows[p])
                                            };
                                            assert!(
                                                same_sum(*got, want),
                                                "({r}, {p}): {got:e} vs {want:e}"
                                            );
                                            assert!(!seen[r][p], "({r}, {p}) visited twice");
                                            seen[r][p] = true;
                                        }
                                    }
                                };
                            let walk = || {
                                if distances {
                                    panels.lower_squared_distances(|p| &rows[p], visit);
                                } else {
                                    panels.lower_dots(|p| &rows[p], visit);
                                }
                            };
                            if portable {
                                crate::simd::portable(walk);
                            } else {
                                walk();
                            }
                            for (r, seen_r) in seen.iter().enumerate() {
                                let panel_end = (r / LANES * LANES + LANES).min(count);
                                for (p, &seen_rp) in seen_r.iter().enumerate() {
                                    assert_eq!(seen_rp, p < panel_end, "({r}, {p}) of {count}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_and_unfused_walks_round_differently() {
        // −(1 + 2ε) + (1 + ε)² is ε² exactly when fused, and 0 unfused, where the product
        // rounds to 1 + 2ε first.
        let e = f64::EPSILON;
        let row = [-1.0, 1.0 + e];
        let point = [1.0 + 2.0 * e, 1.0 + e];
        let panels = RowPanels::from_rows(1, 2, |_, out| out.copy_from_slice(&row));
        let mut got = [0.0; 2];
        panels.dots(1, |_| &point[..], |_, _, sums| got[0] = sums[0][0]);
        panels.fused_dots(1, |_| &point[..], |_, _, sums| got[1] = sums[0][0]);
        assert_eq!(got[0].to_bits(), dot(&row, &point).to_bits());
        assert_eq!(got[1].to_bits(), fused_dot(&row, &point).to_bits());
        assert_eq!((got[0], got[1]), (0.0, e * e));
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

    #[test]
    #[should_panic(expected = "RowPanels::dots length mismatch")]
    fn squared_distances_length_mismatch_panics() {
        let panels = RowPanels::from_rows(2, 2, |_, row| row.fill(1.0));
        panels.squared_distances(1, |_| &[1.0][..], |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "RowPanels::dots length mismatch")]
    fn fused_dots_length_mismatch_panics() {
        let panels = RowPanels::from_rows(2, 2, |_, row| row.fill(1.0));
        panels.fused_dots(1, |_| &[1.0][..], |_, _, _| {});
    }
}
