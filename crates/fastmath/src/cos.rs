//! Range-reduced polynomial cosine.
//!
//! The kernel is the classical Cody–Waite / Cephes construction: round `|x|·2/π` to the
//! nearest integer `n` with the 1.5·2⁵² magic-number trick (round-to-nearest without a
//! libm call, and the quadrant `n mod 4` falls out of the low mantissa bits), subtract
//! `n·π/2` in two parts (`PIO2_1` carries the first 33 bits of π/2 so `n·PIO2_1` is
//! exact for `n < 2²⁰`, `PIO2_1T` carries the remainder), then evaluate the Cephes
//! double-precision minimax polynomials for sin/cos on the reduced `r ∈ [-π/4, π/4]`.
//!
//! The construction is valid for `|x| <= MAX_FAST_ARG` (1e6); beyond that — and for
//! NaN/±∞ — the kernel delegates to libm, so propagation semantics are libm's exactly.
//! Subnormals and ±0 fall in the `n = 0` branch where the reduction is the identity.
//!
//! Error contract (enforced in `tests/accuracy.rs`): absolute error vs `f64::cos` is
//! `<= 1e-12` over the whole fast domain; sweeps observe `<= 2` ULP.
//!
//! [`fast_cos_slice`] / [`fast_cos_block`] apply the same kernel over a slice or a
//! fixed-size block with a straight-line (mask-based, branch-free) main pass so the
//! compiler can vectorize, and a separate patch-up pass for the rare out-of-domain lanes.
//! They are **bit-identical to mapping [`fast_cos`] element-wise** — chunking never changes
//! bits, which is what lets the fast tier commit stable goldens of its own.

// The reduction splits and polynomial coefficients are the published fdlibm/Cephes
// double-precision values, kept verbatim — their extra decimal digits pin each constant
// to the intended bit pattern.
#![allow(clippy::excessive_precision)]

/// Largest `|x|` handled by the polynomial path; beyond this [`fast_cos`] uses libm.
///
/// At 1e6 the two-part reduction still carries ~1e-20 of absolute reduction error,
/// leaving orders of magnitude of margin under the 1e-12 contract.
pub const MAX_FAST_ARG: f64 = 1.0e6;

/// 2/π, the reduction scale.
const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;

/// 1.5·2⁵²: adding and subtracting rounds to the nearest integer (for `|v| < 2⁵¹`) and
/// leaves the integer in the low mantissa bits of the sum.
const MAGIC: f64 = 6755399441055744.0;

/// First 33 bits of π/2 — `n·PIO2_1` is exact for `n < 2²⁰`.
const PIO2_1: f64 = 1.57079632673412561417e0;
/// π/2 − [`PIO2_1`], to full double precision.
const PIO2_1T: f64 = 6.07710050650619224932e-11;

/// Cephes `sincof`: minimax for `(sin r − r)/(r·r²)` on `|r| <= π/4`, low order last.
const SINCOF: [f64; 6] = [
    1.58962301576546568060e-10,
    -2.50507477628578072866e-8,
    2.75573136213857245213e-6,
    -1.98412698295895385996e-4,
    8.33333333332211858878e-3,
    -1.66666666666666307295e-1,
];

/// Cephes `coscof`: minimax for `(cos r − 1 + r²/2)/r⁴` on `|r| <= π/4`, low order last.
const COSCOF: [f64; 6] = [
    -1.13585365213876817300e-11,
    2.08757008419747316778e-9,
    -2.75573141792967388112e-7,
    2.48015872888517179954e-5,
    -1.38888888888730564116e-3,
    4.16666666666665929218e-2,
];

/// `sin r` for reduced `r ∈ [-π/4, π/4]`, via `r + r·r²·P(r²)`.
#[inline(always)]
fn sin_kernel(r: f64, z: f64) -> f64 {
    let p = (((((SINCOF[0] * z + SINCOF[1]) * z + SINCOF[2]) * z + SINCOF[3]) * z + SINCOF[4]) * z
        + SINCOF[5])
        * z;
    r + r * p
}

/// `cos r` for reduced `r ∈ [-π/4, π/4]`, via `1 − r²/2 + r⁴·Q(r²)`.
#[inline(always)]
fn cos_kernel(z: f64) -> f64 {
    let q = ((((COSCOF[0] * z + COSCOF[1]) * z + COSCOF[2]) * z + COSCOF[3]) * z + COSCOF[4]) * z
        + COSCOF[5];
    1.0 - 0.5 * z + z * z * q
}

/// The branch-free core: valid only for finite `|x| <= MAX_FAST_ARG`.
///
/// Computes both the sin and the cos polynomial and picks by quadrant parity with a
/// select and a sign-bit XOR, so a slice of these compiles to straight-line code.
#[inline(always)]
fn fast_cos_core(x: f64) -> f64 {
    let ax = x.abs();
    // Magic rounding: t's low two mantissa bits are n mod 4, t - MAGIC is n exactly.
    let t = ax * FRAC_2_PI + MAGIC;
    let q = t.to_bits();
    let n = t - MAGIC;
    // Two-part Cody–Waite reduction: r = ax - n·(π/2) to ~86 bits of π/2.
    let r = (ax - n * PIO2_1) - n * PIO2_1T;
    let z = r * r;
    let s = sin_kernel(r, z);
    let c = cos_kernel(z);
    // cos(n·π/2 + r): quadrants 0..3 give  c, -s, -c, s. The pick is a bit mask rather
    // than a select, so a block of these vectorizes as integer and/or lanes.
    let odd = 0u64.wrapping_sub(q & 1);
    let v = (c.to_bits() & !odd) | (s.to_bits() & odd);
    let sign = ((q.wrapping_add(1)) & 2) << 62;
    f64::from_bits(v ^ sign)
}

/// Whether `x` is inside the polynomial kernel's domain (finite and `|x| <= 1e6`).
#[inline(always)]
fn in_fast_domain(x: f64) -> bool {
    // A NaN comparison is false, so NaN routes to libm along with ±∞ and huge args.
    x.abs() <= MAX_FAST_ARG
}

/// Bounded-error cosine: `|fast_cos(x) − cos(x)| <= 1e-12` for `|x| <= 1e6`.
///
/// Outside that domain — including NaN and ±∞ — the result **is** `f64::cos(x)`, so
/// special-value propagation matches libm bit for bit.
///
/// # Examples
///
/// ```
/// use fastmath::fast_cos;
///
/// assert!((fast_cos(1.0) - 1.0f64.cos()).abs() <= 1e-12);
/// assert_eq!(fast_cos(0.0), 1.0);
/// assert!(fast_cos(f64::NAN).is_nan());
/// ```
#[inline]
pub fn fast_cos(x: f64) -> f64 {
    if in_fast_domain(x) {
        fast_cos_core(x)
    } else {
        x.cos()
    }
}

/// Replaces every element of `xs` with its [`fast_cos`], chunk-friendly.
///
/// Bit-identical to `for v in xs { *v = fast_cos(*v) }`: whole 8-element blocks go through
/// [`fast_cos_block`], and the tail through [`fast_cos`].
#[inline(always)]
pub fn fast_cos_slice(xs: &mut [f64]) {
    let mut blocks = xs.chunks_exact_mut(8);
    for block in &mut blocks {
        fast_cos_block::<8>(
            block
                .try_into()
                .expect("chunks_exact_mut yields 8 elements"),
        );
    }
    for v in blocks.into_remainder() {
        *v = fast_cos(*v);
    }
}

/// Replaces every lane of `xs` with its [`fast_cos`]: one straight-line pass over the
/// whole block, then libm for the out-of-domain lanes.
///
/// Bit-identical to `for v in xs { *v = fast_cos(*v) }`. The main pass runs the
/// branch-free core over clamped arguments, so inlined into a function compiled for a wide
/// SIMD target it vectorizes across the block; the rare lanes with `|x| > 1e6`, NaN or ±∞
/// are patched with libm in a separate `#[cold]` pass. `gp::rff` runs it on each 8-feature
/// tile of the fast tier's posterior-sample evaluation, inside the AVX2 + FMA copy of
/// `linalg::RowPanels::fused_dots`.
///
/// # Examples
///
/// ```
/// use fastmath::{fast_cos, fast_cos_block};
///
/// let mut block = [0.0, 1.0, -2.5, 3.0e7];
/// fast_cos_block(&mut block);
/// assert_eq!(block.map(f64::to_bits), [0.0, 1.0, -2.5, 3.0e7].map(|x| fast_cos(x).to_bits()));
/// ```
#[inline(always)]
pub fn fast_cos_block<const N: usize>(xs: &mut [f64; N]) {
    let args = *xs;
    let mut any_outside = false;
    for (v, x) in xs.iter_mut().zip(args) {
        any_outside |= !in_fast_domain(x);
        *v = fast_cos_core(x.clamp(-MAX_FAST_ARG, MAX_FAST_ARG));
    }
    if any_outside {
        patch_out_of_domain(&args, xs);
    }
}

/// Overwrites `xs[i]` with libm's `cos(args[i])` wherever `args[i]` is outside the
/// polynomial's domain.
#[cold]
#[inline(never)]
fn patch_out_of_domain(args: &[f64], xs: &mut [f64]) {
    for (v, &x) in xs.iter_mut().zip(args) {
        if !in_fast_domain(x) {
            *v = x.cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_libm_on_simple_points() {
        for &x in &[0.0, 0.5, 1.0, -1.0, 3.0, -7.5, 100.0, 1e5, 999_999.0] {
            assert!(
                (fast_cos(x) - x.cos()).abs() <= 1e-12,
                "x={x}: {} vs {}",
                fast_cos(x),
                x.cos()
            );
        }
    }

    #[test]
    fn zero_and_subnormals_are_exact() {
        assert_eq!(fast_cos(0.0), 1.0);
        assert_eq!(fast_cos(-0.0), 1.0);
        assert_eq!(fast_cos(f64::from_bits(1)), 1.0);
        assert_eq!(fast_cos(-f64::MIN_POSITIVE), 1.0);
    }

    #[test]
    fn out_of_domain_delegates_to_libm() {
        for &x in &[1.0e7, -3.5e9, 1.0e300, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                fast_cos(x) == x.cos() || (fast_cos(x).is_nan() && x.cos().is_nan()),
                "x={x}"
            );
        }
        assert!(fast_cos(f64::NAN).is_nan());
    }

    #[test]
    fn slice_is_bit_identical_to_scalar() {
        let mut xs: Vec<f64> = (0..257).map(|i| (i as f64) * 0.37 - 40.0).collect();
        xs.push(f64::NAN);
        xs.push(2.0e8);
        xs.push(f64::INFINITY);
        let scalar: Vec<f64> = xs.iter().map(|&x| fast_cos(x)).collect();
        fast_cos_slice(&mut xs);
        for (got, want) in xs.iter().zip(scalar.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
