//! Range-reduced exponential and logarithm.
//!
//! `fast_exp` is the Cephes double-precision construction: round `x/ln 2` to the
//! nearest integer `k` (magic-number rounding, no libm call), subtract `k·ln 2` in two
//! parts so the reduced `r ∈ [-ln2/2, ln2/2]` is computed without cancellation error,
//! evaluate the degree-(2,3) rational minimax for `eʳ`, and scale by `2ᵏ` with an
//! exponent-field bit insert. `fast_ln` is the fdlibm construction: normalize the
//! mantissa to `[√2/2, √2)` via the exponent field, then evaluate the `log(1+f)`
//! rational series with the two-part `ln 2` recombination.
//!
//! Both delegate to libm outside their fast domain (overflow/underflow range for exp;
//! non-positive, subnormal or non-finite inputs for ln), so special-value semantics are
//! libm's exactly. The slice forms are bit-identical to mapping the scalar forms.
//!
//! Error contracts (enforced in `tests/accuracy.rs`): relative error `<= 1e-12`
//! (typically `<= 2` ULP) for `fast_exp` on `|x| <= 700`; absolute error
//! `<= max(1e-12, 1e-12·|ln x|)` for `fast_ln` on normal positive inputs.

// Published Cephes/fdlibm coefficients, kept verbatim — the extra decimal digits pin
// each constant to the intended bit pattern.
#![allow(clippy::excessive_precision)]

/// `|x|` bound for the exp polynomial path; beyond it [`fast_exp`] uses libm. Inside
/// it `2ᵏ` scaling never leaves the normal range (`k <= 1011`).
pub const MAX_FAST_EXP_ARG: f64 = 700.0;

/// 1.5·2⁵² magic-rounding constant (valid for `|v| < 2⁵¹`; `k` here is `<= 1011`).
const MAGIC: f64 = 6755399441055744.0;

/// log₂ e, the exp reduction scale.
const LOG2E: f64 = std::f64::consts::LOG2_E;

/// High bits of ln 2 (Cephes split): `k·LN2_HI` is exact for the `k` range of exp.
const LN2_HI: f64 = 6.93145751953125e-1;
/// ln 2 − [`LN2_HI`], to full double precision.
const LN2_LO: f64 = 1.42860682030941723212e-6;

/// Cephes exp numerator `P`: `e^r = 1 + 2r·P(r²)/(Q(r²) − r·P(r²))`.
const EXP_P: [f64; 3] = [
    1.26177193074810590878e-4,
    3.02994407707441961300e-2,
    9.99999999999999999910e-1,
];

/// Cephes exp denominator `Q`.
const EXP_Q: [f64; 4] = [
    3.00198505138664455042e-6,
    2.52448340349684104192e-3,
    2.27265548208155028766e-1,
    2.00000000000000000005e0,
];

/// fdlibm log series coefficients `Lg1..Lg7`.
const LG: [f64; 7] = [
    6.666666666666735130e-1,
    3.999999999940941908e-1,
    2.857142874366239149e-1,
    2.222219843214978396e-1,
    1.818357216161805012e-1,
    1.531383769920937332e-1,
    1.479819860511658591e-1,
];

/// High bits of ln 2 for the log recombination (fdlibm split, different from Cephes').
const LOG_LN2_HI: f64 = 6.93147180369123816490e-1;
/// ln 2 − [`LOG_LN2_HI`].
const LOG_LN2_LO: f64 = 1.90821492927058770002e-10;

/// The branch-free exp core: valid only for finite `|x| <= MAX_FAST_EXP_ARG`.
#[inline(always)]
fn fast_exp_core(x: f64) -> f64 {
    // Magic rounding of x/ln2; k as integer for the exponent insert below.
    let t = x * LOG2E + MAGIC;
    let k = t - MAGIC;
    // Two-part Cody–Waite reduction: r = x − k·ln2, |r| <= ln2/2.
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let z = r * r;
    let p = r * ((EXP_P[0] * z + EXP_P[1]) * z + EXP_P[2]);
    let q = ((EXP_Q[0] * z + EXP_Q[1]) * z + EXP_Q[2]) * z + EXP_Q[3];
    let e = 1.0 + 2.0 * p / (q - p);
    // 2ᵏ via the exponent field: k ∈ [-1011, 1011], so 1023 + k stays in (0, 2047). The
    // integer k is read off t's mantissa (t = MAGIC + k holds it in its low bits), which
    // is `k as i64` exactly but stays in integer lanes where AVX2 has no f64 → i64
    // conversion.
    let k_int = (t.to_bits() as i64).wrapping_sub(MAGIC.to_bits() as i64);
    let two_k = f64::from_bits(((1023 + k_int) as u64) << 52);
    e * two_k
}

/// Whether `x` is inside the exp polynomial domain (finite and `|x| <= 700`).
#[inline(always)]
fn in_exp_domain(x: f64) -> bool {
    x.abs() <= MAX_FAST_EXP_ARG
}

/// Bounded-error exponential: relative error `<= 1e-12` vs libm for `|x| <= 700`.
///
/// Outside that domain — including NaN and ±∞ — the result **is** `f64::exp(x)`.
///
/// # Examples
///
/// ```
/// use fastmath::fast_exp;
///
/// let rel = (fast_exp(1.0) - 1.0f64.exp()).abs() / 1.0f64.exp();
/// assert!(rel <= 1e-12);
/// assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
/// assert!(fast_exp(f64::NAN).is_nan());
/// ```
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if in_exp_domain(x) {
        fast_exp_core(x)
    } else {
        x.exp()
    }
}

/// Replaces every element of `xs` with its [`fast_exp`]; bit-identical to the scalar
/// map, with a branch-free main pass and a libm patch-up pass for out-of-domain lanes.
#[inline(always)]
pub fn fast_exp_slice(xs: &mut [f64]) {
    const B: usize = 64;
    let mut orig = [0.0f64; B];
    let mut base = 0;
    while base < xs.len() {
        let n = B.min(xs.len() - base);
        let chunk = &mut xs[base..base + n];
        orig[..n].copy_from_slice(chunk);
        // Branch-free main pass (clamping keeps the core's arithmetic finite on lanes
        // the patch pass will overwrite anyway).
        for v in chunk.iter_mut() {
            *v = fast_exp_core(v.clamp(-MAX_FAST_EXP_ARG, MAX_FAST_EXP_ARG));
        }
        for (v, &x) in chunk.iter_mut().zip(orig[..n].iter()) {
            if !in_exp_domain(x) {
                *v = x.exp();
            }
        }
        base += n;
    }
}

/// The fdlibm log core: valid only for positive, normal, finite `x`.
#[inline(always)]
fn fast_ln_core(x: f64) -> f64 {
    let bits = x.to_bits();
    let mut k = ((bits >> 52) as i64) - 1023;
    // Mantissa normalized to [1, 2); shift to [√2/2, √2) so f = m − 1 is small.
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        k += 1;
    }
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    // `k as f64`, exactly, through the mantissa of MAGIC + k (|k| < 2⁵¹), for the same
    // reason as in the exp core.
    let dk = f64::from_bits((MAGIC.to_bits() as i64).wrapping_add(k) as u64) - MAGIC;
    dk * LOG_LN2_HI - ((s * (f - r) - dk * LOG_LN2_LO) - f)
}

/// Whether `x` is inside the ln fast domain (positive, normal, finite).
#[inline(always)]
fn in_ln_domain(x: f64) -> bool {
    (f64::MIN_POSITIVE..=f64::MAX).contains(&x)
}

/// Bounded-error natural logarithm for positive normal inputs; delegates to libm for
/// `x <= 0`, subnormals, NaN and ∞.
///
/// # Examples
///
/// ```
/// use fastmath::fast_ln;
///
/// assert!((fast_ln(10.0) - 10.0f64.ln()).abs() <= 1e-12 * 10.0f64.ln().abs().max(1.0));
/// assert!(fast_ln(-1.0).is_nan());
/// assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
/// ```
#[inline]
pub fn fast_ln(x: f64) -> f64 {
    if in_ln_domain(x) {
        fast_ln_core(x)
    } else {
        x.ln()
    }
}

/// Replaces every element of `xs` with its [`fast_ln`]; bit-identical to the scalar
/// map. The mantissa-shift branch in the core is a select, so the main pass stays
/// straight-line; out-of-domain lanes are patched with libm in a second pass.
#[inline(always)]
pub fn fast_ln_slice(xs: &mut [f64]) {
    const B: usize = 64;
    let mut orig = [0.0f64; B];
    let mut base = 0;
    while base < xs.len() {
        let n = B.min(xs.len() - base);
        let chunk = &mut xs[base..base + n];
        orig[..n].copy_from_slice(chunk);
        for v in chunk.iter_mut() {
            *v = fast_ln_core(v.max(f64::MIN_POSITIVE));
        }
        for (v, &x) in chunk.iter_mut().zip(orig[..n].iter()) {
            if !in_ln_domain(x) {
                *v = x.ln();
            }
        }
        base += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_matches_libm_on_simple_points() {
        for &x in &[0.0, 1.0, -1.0, 0.5, -20.0, 100.0, -700.0, 700.0, 1e-8] {
            let (got, want) = (fast_exp(x), x.exp());
            let rel = (got - want).abs() / want.max(f64::MIN_POSITIVE);
            assert!(rel <= 1e-12, "x={x}: {got} vs {want} (rel {rel:e})");
        }
        assert_eq!(fast_exp(0.0), 1.0);
    }

    #[test]
    fn exp_out_of_domain_delegates_to_libm() {
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(710.0), f64::INFINITY);
        assert_eq!(fast_exp(-746.0), 0.0);
        assert!(fast_exp(f64::NAN).is_nan());
    }

    #[test]
    fn ln_matches_libm_on_simple_points() {
        for &x in &[1.0, 2.0, 0.5, 1e-10, 1e10, std::f64::consts::E, 0.9999999] {
            let (got, want) = (fast_ln(x), x.ln());
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "x={x}: {got} vs {want}"
            );
        }
        assert_eq!(fast_ln(1.0), 0.0);
    }

    #[test]
    fn ln_out_of_domain_delegates_to_libm() {
        assert!(fast_ln(-1.0).is_nan());
        assert!(fast_ln(f64::NAN).is_nan());
        assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
        assert_eq!(fast_ln(f64::INFINITY), f64::INFINITY);
        let sub = f64::from_bits(12345);
        assert_eq!(fast_ln(sub), sub.ln());
    }

    #[test]
    fn slices_are_bit_identical_to_scalars() {
        let mut xs: Vec<f64> = (0..257).map(|i| (i as f64) * 0.11 - 14.0).collect();
        xs.extend([f64::NAN, 1000.0, f64::NEG_INFINITY]);
        let scalar: Vec<f64> = xs.iter().map(|&x| fast_exp(x)).collect();
        let mut got = xs.clone();
        fast_exp_slice(&mut got);
        for (g, w) in got.iter().zip(scalar.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }

        let mut ys: Vec<f64> = (1..300).map(|i| (i as f64) * 0.37).collect();
        ys.extend([0.0, -3.0, f64::NAN, f64::from_bits(7)]);
        let scalar: Vec<f64> = ys.iter().map(|&y| fast_ln(y)).collect();
        fast_ln_slice(&mut ys);
        for (g, w) in ys.iter().zip(scalar.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
