//! Error-contract suite for the fast tier.
//!
//! Every bound asserted here is a documented contract from the `fastmath` crate docs:
//! the kernels may differ from libm, but only by this much, only inside their fast
//! domains, and never on special values (which delegate to libm outright). Sweeps fold
//! through `tolerance::ErrorStats` so a regression reports the worst offending input,
//! not just the first failure. The proptest RNG is deterministic (vendored harness), so
//! these are regression tests, not flaky statistical gates.

use fastmath::normal::{fill_standard_normal, LogNormalBlock};
use fastmath::{fast_cos, fast_cos_block, fast_cos_slice, fast_exp, fast_ln};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};
use tolerance::{assert_close_abs, assert_close_ulps, ErrorStats};

/// Documented |Δcos| bound over the fast domain.
const COS_ABS_BOUND: f64 = 1e-12;
/// Documented relative bound for exp over |x| <= 700, in ULPs (4 ULP ≈ 9e-16 relative).
const EXP_ULP_BOUND: u64 = 4;
/// Documented ULP bound for ln on normal positive inputs.
const LN_ULP_BOUND: u64 = 4;

// ---------------------------------------------------------------------------
// Dense sweeps: worst-case error over structured grids, reported via ErrorStats.
// ---------------------------------------------------------------------------

#[test]
fn cos_sweep_small_angles_stays_within_two_ulps() {
    let mut stats = ErrorStats::new("fast_cos on [-20, 20]");
    for i in -20_000..=20_000 {
        let x = i as f64 * 1e-3;
        stats.record(x, fast_cos(x), x.cos());
    }
    stats.assert_max_ulps(2);
    stats.assert_max_abs(COS_ABS_BOUND);
}

#[test]
fn cos_sweep_full_fast_domain_stays_within_abs_bound() {
    let mut stats = ErrorStats::new("fast_cos on [-1e6, 1e6]");
    for i in -100_000..=100_000 {
        let x = i as f64 * 10.0 + 0.123_456_789;
        if x.abs() <= 1e6 {
            stats.record(x, fast_cos(x), x.cos());
        }
    }
    stats.assert_max_abs(COS_ABS_BOUND);
}

#[test]
fn exp_sweep_stays_within_ulp_bound() {
    let mut stats = ErrorStats::new("fast_exp on [-700, 700]");
    for i in -70_000..=70_000 {
        let x = i as f64 * 1e-2 + 3.3e-3;
        if x.abs() <= 700.0 {
            stats.record(x, fast_exp(x), x.exp());
        }
    }
    stats.assert_max_ulps(EXP_ULP_BOUND);
}

#[test]
fn ln_sweep_stays_within_ulp_bound() {
    let mut stats = ErrorStats::new("fast_ln over decades");
    // Geometric sweep across the whole normal range plus a fine sweep around 1 (the
    // cancellation-sensitive region that matters for Box–Muller's ln(u1)).
    let mut x = 1e-300;
    while x < 1e300 {
        stats.record(x, fast_ln(x), x.ln());
        x *= 1.37;
    }
    for i in 1..=20_000 {
        let y = i as f64 * 1e-4; // (0, 2]
        stats.record(y, fast_ln(y), y.ln());
    }
    stats.assert_max_ulps(LN_ULP_BOUND);
}

// ---------------------------------------------------------------------------
// Randomized contracts over the full domains.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn cos_contract_holds_on_random_fast_domain_inputs(x in -1.0e6f64..1.0e6) {
        assert_close_abs(fast_cos(x), x.cos(), COS_ABS_BOUND, "fast_cos random");
    }

    #[test]
    fn cos_near_multiples_of_half_pi(
        k in -636_619i64..636_619,
        jitter in -1.0e-8f64..1.0e-8,
    ) {
        // k·π/2 spans the whole fast domain; the jitter lands x where the reduced
        // argument is tiny and the quadrant polynomials hand off to each other.
        let x = k as f64 * std::f64::consts::FRAC_PI_2 + jitter;
        if x.abs() <= 1.0e6 {
            assert_close_abs(fast_cos(x), x.cos(), COS_ABS_BOUND, "fast_cos near k*pi/2");
        }
    }

    #[test]
    fn cos_beyond_fast_domain_is_libm_bit_for_bit(x in 1.0e6f64..1.0e12) {
        for v in [x + 1.0, -(x + 1.0)] {
            prop_assert_eq!(fast_cos(v).to_bits(), v.cos().to_bits());
        }
    }

    #[test]
    fn exp_contract_holds_on_random_inputs(x in -700.0f64..700.0) {
        assert_close_ulps(fast_exp(x), x.exp(), EXP_ULP_BOUND, "fast_exp random");
    }

    #[test]
    fn ln_contract_holds_on_random_inputs(x in 1.0e-12f64..1.0e12) {
        assert_close_ulps(fast_ln(x), x.ln(), LN_ULP_BOUND, "fast_ln random");
    }

    #[test]
    fn subnormal_cos_and_exp_are_exact(bits in 1u64..4_503_599_627_370_496) {
        // All positive subnormals: cos and exp round to exactly 1.0, matching libm.
        let x = f64::from_bits(bits);
        prop_assert_eq!(fast_cos(x), 1.0);
        prop_assert_eq!(fast_cos(-x), 1.0);
        prop_assert_eq!(fast_exp(x), 1.0);
        prop_assert_eq!(fast_ln(x).to_bits(), x.ln().to_bits());
    }
}

// ---------------------------------------------------------------------------
// Block and slice kernels: bit-identical to the scalar kernel, lane by lane.
// ---------------------------------------------------------------------------

/// Whether `got` is `want` bit for bit, or both are NaN (Rust leaves a computed NaN's sign
/// and payload unspecified).
fn same_value(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// Checks `fast_cos_block` and `fast_cos_slice` against `fast_cos` on every lane of `xs`.
fn assert_block_matches_scalar<const N: usize>(xs: [f64; N]) {
    let mut block = xs;
    fast_cos_block(&mut block);
    let mut slice = xs.to_vec();
    fast_cos_slice(&mut slice);
    for (lane, x) in xs.iter().enumerate() {
        let want = fast_cos(*x);
        assert!(same_value(block[lane], want), "block lane {lane} of {xs:?}");
        assert!(same_value(slice[lane], want), "slice lane {lane} of {xs:?}");
    }
}

/// Lanes outside the polynomial's domain or on its edges: NaN, ±∞, |x| > 1e6, the domain
/// boundary and its successor, ±0, subnormals and the smallest normal.
const EDGE_LANES: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0e6,
    1.000_000_000_000_000_1e6,
    -3.5e9,
    1.0e300,
    0.0,
    -0.0,
    5e-324,
    -2.2e-310,
    f64::MIN_POSITIVE,
];

#[test]
fn block_cos_mixes_edge_lanes_with_in_domain_lanes_bit_identically() {
    // Every edge value in every lane of an 8-lane block of ordinary arguments, then
    // blocks made only of edge values, then blocks of 1 and 3 lanes.
    let ordinary = [0.5, -1.25, 3.0, 7.5, -40.0, 123.456, 999_999.0, -2.0e5];
    for edge in EDGE_LANES {
        for lane in 0..8 {
            let mut xs = ordinary;
            xs[lane] = edge;
            assert_block_matches_scalar(xs);
        }
    }
    for window in EDGE_LANES.windows(8) {
        assert_block_matches_scalar::<8>(window.try_into().unwrap());
    }
    assert_block_matches_scalar([f64::NAN]);
    assert_block_matches_scalar([1.0, 2.0e7, -0.0]);
    assert_block_matches_scalar(ordinary);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn block_cos_is_fast_cos_on_every_lane(
        xs in prop::collection::vec(-2.0e6f64..2.0e6, 8),
        edges in prop::collection::vec(0usize..(4 * EDGE_LANES.len()), 8),
    ) {
        // About one lane in four replaced by an edge value.
        let mut block = [0.0; 8];
        for ((lane, x), e) in block.iter_mut().zip(xs).zip(edges) {
            *lane = EDGE_LANES.get(e).copied().unwrap_or(x);
        }
        assert_block_matches_scalar(block);
    }
}

// ---------------------------------------------------------------------------
// Pinned regression cases: explicit edge inputs, exact expectations.
// ---------------------------------------------------------------------------

#[test]
fn pinned_zero_signs() {
    assert_eq!(fast_cos(0.0).to_bits(), 1.0f64.to_bits());
    assert_eq!(fast_cos(-0.0).to_bits(), 1.0f64.to_bits());
    assert_eq!(fast_exp(0.0).to_bits(), 1.0f64.to_bits());
    assert_eq!(fast_exp(-0.0).to_bits(), 1.0f64.to_bits());
    assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
    assert_eq!(fast_ln(-0.0), f64::NEG_INFINITY);
}

#[test]
fn pinned_non_finite_propagation() {
    assert!(fast_cos(f64::NAN).is_nan());
    assert!(fast_cos(f64::INFINITY).is_nan());
    assert!(fast_cos(f64::NEG_INFINITY).is_nan());
    assert!(fast_exp(f64::NAN).is_nan());
    assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
    assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
    assert!(fast_ln(f64::NAN).is_nan());
    assert_eq!(fast_ln(f64::INFINITY), f64::INFINITY);
    assert!(fast_ln(-1.0).is_nan());
    assert!(fast_ln(f64::NEG_INFINITY).is_nan());
}

#[test]
fn pinned_fast_domain_boundaries() {
    // The largest in-domain magnitude and its successor (which delegates to libm).
    let hi = 1.0e6;
    assert_close_abs(fast_cos(hi), hi.cos(), COS_ABS_BOUND, "cos at +1e6");
    assert_close_abs(fast_cos(-hi), (-hi).cos(), COS_ABS_BOUND, "cos at -1e6");
    let above = f64::from_bits(hi.to_bits() + 1);
    assert_eq!(fast_cos(above).to_bits(), above.cos().to_bits());
    assert_eq!(fast_cos(-above).to_bits(), (-above).cos().to_bits());

    assert_close_ulps(fast_exp(700.0), 700.0f64.exp(), EXP_ULP_BOUND, "exp at 700");
    assert_close_ulps(
        fast_exp(-700.0),
        (-700.0f64).exp(),
        EXP_ULP_BOUND,
        "exp at -700",
    );
    // Just past the domain: still finite for libm (exp overflows near 709.78).
    assert_eq!(fast_exp(709.0).to_bits(), 709.0f64.exp().to_bits());
    assert_eq!(fast_exp(-745.0).to_bits(), (-745.0f64).exp().to_bits());
}

#[test]
fn pinned_half_pi_neighborhood() {
    // cos(π/2 + δ) ≈ -δ: the reduced argument is ~1e-17, the sin polynomial's hardest
    // region for *relative* error — the contract is absolute, pin it explicitly.
    let half_pi = std::f64::consts::FRAC_PI_2;
    for &x in &[
        half_pi,
        -half_pi,
        3.0 * half_pi,
        1000.0 * half_pi,
        999_999.0 * half_pi / 2.0,
    ] {
        assert_close_abs(fast_cos(x), x.cos(), COS_ABS_BOUND, "cos at k*pi/2");
    }
}

#[test]
fn pinned_ln_cancellation_region() {
    // ln(1 ± ε): f = m − 1 is computed exactly; the result must track libm's tiny value.
    for &x in &[
        1.0 + f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
        0.999_999_999,
        1.000_000_001,
    ] {
        assert_close_ulps(fast_ln(x), x.ln(), LN_ULP_BOUND, "ln near 1");
    }
    assert_eq!(fast_ln(1.0).to_bits(), 0.0f64.to_bits());
}

// ---------------------------------------------------------------------------
// Distribution-level checks for the batched normal draws.
// ---------------------------------------------------------------------------

fn scalar_normal<R: RngCore>(rng: &mut R) -> f64 {
    // `rand_distr::StandardNormal`, verbatim.
    let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Two-sample Kolmogorov–Smirnov statistic.
fn ks_statistic(a: &mut [f64], b: &mut [f64]) -> f64 {
    a.sort_by(|x, y| x.partial_cmp(y).expect("finite draws"));
    b.sort_by(|x, y| x.partial_cmp(y).expect("finite draws"));
    let (n, m) = (a.len(), b.len());
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < n && j < m {
        if a[i] <= b[j] {
            i += 1;
        } else {
            j += 1;
        }
        d = d.max((i as f64 / n as f64 - j as f64 / m as f64).abs());
    }
    d
}

#[test]
fn batched_normal_moments_match_standard_normal() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0001);
    let mut draws = vec![0.0; 100_000];
    fill_standard_normal(&mut rng, &mut draws);
    let n = draws.len() as f64;
    let mean = draws.iter().sum::<f64>() / n;
    let var = draws.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / n;
    let skew = draws.iter().map(|z| (z - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
    assert!(mean.abs() < 0.01, "mean {mean}");
    assert!((var - 1.0).abs() < 0.02, "variance {var}");
    assert!(skew.abs() < 0.05, "skewness {skew}");
}

#[test]
fn batched_normal_ks_matches_scalar_path_on_same_stream() {
    // Same seed → same uniforms → the empirical CDFs are kernel-error apart: the KS
    // statistic collapses to (near) zero.
    let mut fast = vec![0.0; 20_000];
    fill_standard_normal(&mut StdRng::seed_from_u64(123), &mut fast);
    let mut exact_rng = StdRng::seed_from_u64(123);
    let mut exact: Vec<f64> = (0..20_000).map(|_| scalar_normal(&mut exact_rng)).collect();
    let d = ks_statistic(&mut fast, &mut exact);
    assert!(d <= 1e-4, "same-stream KS {d}");
}

#[test]
fn batched_normal_ks_matches_scalar_path_across_streams() {
    // Independent seeds: a conventional two-sample KS bound (n = m = 20000, the 0.001
    // critical value is ~0.0195; deterministic seeds, so this is a regression pin).
    let mut fast = vec![0.0; 20_000];
    fill_standard_normal(&mut StdRng::seed_from_u64(2024), &mut fast);
    let mut exact_rng = StdRng::seed_from_u64(977);
    let mut exact: Vec<f64> = (0..20_000).map(|_| scalar_normal(&mut exact_rng)).collect();
    let d = ks_statistic(&mut fast, &mut exact);
    assert!(d <= 0.02, "cross-stream KS {d}");
}

#[test]
fn lognormal_block_mean_matches_theory() {
    // E[exp(σZ)] = exp(σ²/2); σ = 0.2 keeps the tail mild enough for a tight check.
    let sigma = 0.2f64;
    let mut rng = StdRng::seed_from_u64(55);
    let mut stream = LogNormalBlock::new(sigma);
    let n = 200_000;
    let mean = (0..n).map(|_| stream.next_factor(&mut rng)).sum::<f64>() / n as f64;
    let theory = (sigma * sigma / 2.0).exp();
    assert!(
        (mean - theory).abs() < 0.005,
        "lognormal mean {mean} vs {theory}"
    );
}

#[test]
fn per_draw_error_bound_against_scalar_path() {
    // The documented per-draw bound: same uniforms, |fast − exact| <= 1e-9.
    let mut fast = vec![0.0; 4096];
    fill_standard_normal(&mut StdRng::seed_from_u64(7), &mut fast);
    let mut exact_rng = StdRng::seed_from_u64(7);
    let mut stats = ErrorStats::new("batched normal vs scalar Box-Muller");
    for (i, &z) in fast.iter().enumerate() {
        stats.record(i as f64, z, scalar_normal(&mut exact_rng));
    }
    stats.assert_max_abs(1e-9);
}
