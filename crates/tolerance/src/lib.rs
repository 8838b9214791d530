//! Shared numeric-comparison helpers for the accuracy test suites.
//!
//! The fast-math tier (the `fastmath` crate and its call sites in `gp` / `soc-sim`)
//! promises *bounded* error against the seed-exact scalar paths rather than bit-identity.
//! Those bounds are contracts, so the tests that enforce them need comparison helpers that
//! (a) speak the same units the contracts are written in — ULPs for kernel-level
//! comparisons against libm, absolute/relative error for end-to-end trajectories — and
//! (b) report the *worst* offender over a sweep, not just the first failure, so a bound
//! regression is diagnosable from the CI log alone.
//!
//! Three layers:
//!
//! - [`ulp_diff`] / [`abs_diff`] / [`rel_diff`]: raw distance measures.
//! - [`assert_close_ulps`] / [`assert_close_abs`] / [`assert_close_rel`]: single-pair
//!   assertions with formatted context on failure.
//! - [`ErrorStats`]: a fold over many comparisons that tracks the maximum error and the
//!   input that produced it, with [`ErrorStats::assert_max_ulps`] /
//!   [`ErrorStats::assert_max_abs`] reporting the full worst-case context on failure.

/// Distance in units-in-the-last-place between two finite doubles.
///
/// Uses the standard order-preserving map from IEEE-754 bit patterns to a signed
/// integer line, so the distance is well defined across zero (`-0.0` and `+0.0` are 0
/// ULPs apart). Returns `u64::MAX` if either input is NaN; infinities of equal sign
/// compare equal (0 ULPs) and are `u64::MAX` from everything else.
///
/// # Examples
///
/// ```
/// use tolerance::ulp_diff;
///
/// assert_eq!(ulp_diff(1.0, 1.0), 0);
/// assert_eq!(ulp_diff(1.0, 1.0 + f64::EPSILON), 1);
/// assert_eq!(ulp_diff(-0.0, 0.0), 0);
/// assert_eq!(ulp_diff(1.0, f64::NAN), u64::MAX);
/// ```
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    if a == b {
        // Covers -0.0 == 0.0 and equal-signed infinities.
        return 0;
    }
    if a.is_infinite() || b.is_infinite() {
        return u64::MAX;
    }
    let to_line = |x: f64| -> i64 {
        let bits = x.to_bits() as i64;
        // Map negative floats onto the negative half of the integer line so the
        // ordering of the line matches the ordering of the floats.
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    };
    let (la, lb) = (to_line(a), to_line(b));
    la.abs_diff(lb)
}

/// Absolute difference `|a - b|`; NaN inputs yield NaN (which fails any bound check).
pub fn abs_diff(a: f64, b: f64) -> f64 {
    (a - b).abs()
}

/// Relative difference `|a - b| / max(|a|, |b|)`, or the absolute difference when both
/// magnitudes are below `f64::MIN_POSITIVE` (so near-zero pairs don't divide by zero).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale < f64::MIN_POSITIVE {
        abs_diff(a, b)
    } else {
        abs_diff(a, b) / scale
    }
}

/// Asserts `a` and `b` are within `max_ulps` units-in-the-last-place.
///
/// # Panics
///
/// Panics with both values, their ULP distance and the caller's context if the bound is
/// exceeded (or either value is NaN while the other is not).
#[track_caller]
pub fn assert_close_ulps(a: f64, b: f64, max_ulps: u64, context: &str) {
    let d = ulp_diff(a, b);
    assert!(
        d <= max_ulps,
        "{context}: {a:e} vs {b:e} differ by {d} ULPs (allowed {max_ulps}); abs diff {:e}",
        abs_diff(a, b),
    );
}

/// Asserts `|a - b| <= max_abs`.
///
/// # Panics
///
/// Panics with both values, the absolute difference and the caller's context if the
/// bound is exceeded or the difference is NaN.
#[track_caller]
pub fn assert_close_abs(a: f64, b: f64, max_abs: f64, context: &str) {
    let d = abs_diff(a, b);
    assert!(
        d <= max_abs,
        "{context}: {a:e} vs {b:e} differ by {d:e} (allowed {max_abs:e}; {} ULPs)",
        ulp_diff(a, b),
    );
}

/// Asserts `rel_diff(a, b) <= max_rel`.
///
/// # Panics
///
/// Panics with both values, the relative difference and the caller's context if the
/// bound is exceeded or the difference is NaN.
#[track_caller]
pub fn assert_close_rel(a: f64, b: f64, max_rel: f64, context: &str) {
    let d = rel_diff(a, b);
    assert!(
        d <= max_rel,
        "{context}: {a:e} vs {b:e} differ by rel {d:e} (allowed {max_rel:e})",
    );
}

/// Fold over many `(input, got, want)` comparisons tracking the worst absolute and ULP
/// error and the inputs that produced them.
///
/// # Examples
///
/// ```
/// use tolerance::ErrorStats;
///
/// let mut stats = ErrorStats::new("cos sweep");
/// for i in 0..1000 {
///     let x = i as f64 * 0.01;
///     stats.record(x, x.cos(), x.cos());
/// }
/// stats.assert_max_ulps(0);
/// stats.assert_max_abs(0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ErrorStats {
    label: String,
    count: u64,
    max_abs: f64,
    max_abs_at: f64,
    max_ulps: u64,
    max_ulps_at: f64,
}

impl ErrorStats {
    /// Creates an empty fold labelled `label` (shown in failure reports).
    pub fn new(label: &str) -> Self {
        Self {
            label: label.to_string(),
            count: 0,
            max_abs: 0.0,
            max_abs_at: f64::NAN,
            max_ulps: 0,
            max_ulps_at: f64::NAN,
        }
    }

    /// Records one comparison of `got` against `want` at sweep input `at`.
    pub fn record(&mut self, at: f64, got: f64, want: f64) {
        self.count += 1;
        let a = abs_diff(got, want);
        // NaN-vs-NaN agreement is 0 error; NaN vs non-NaN surfaces as max ULPs below.
        if a > self.max_abs {
            self.max_abs = a;
            self.max_abs_at = at;
        }
        let u = ulp_diff(got, want);
        if (got.is_nan() != want.is_nan()) || (!got.is_nan() && u > self.max_ulps) {
            self.max_ulps = if got.is_nan() != want.is_nan() {
                u64::MAX
            } else {
                u
            };
            self.max_ulps_at = at;
        }
    }

    /// Number of comparisons recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Worst absolute error seen so far (0.0 if nothing recorded).
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Worst ULP distance seen so far (0 if nothing recorded).
    pub fn max_ulps(&self) -> u64 {
        self.max_ulps
    }

    /// Asserts the worst ULP distance over the whole sweep is `<= max_ulps`.
    ///
    /// # Panics
    ///
    /// Panics with the worst offender's input and both error measures otherwise.
    #[track_caller]
    pub fn assert_max_ulps(&self, max_ulps: u64) {
        assert!(
            self.max_ulps <= max_ulps,
            "{}: worst ULP error {} at input {:e} exceeds allowed {} \
             ({} comparisons, worst abs {:e} at {:e})",
            self.label,
            self.max_ulps,
            self.max_ulps_at,
            max_ulps,
            self.count,
            self.max_abs,
            self.max_abs_at,
        );
    }

    /// Asserts the worst absolute error over the whole sweep is `<= max_abs`.
    ///
    /// # Panics
    ///
    /// Panics with the worst offender's input and both error measures otherwise.
    #[track_caller]
    pub fn assert_max_abs(&self, max_abs: f64) {
        assert!(
            self.max_abs <= max_abs,
            "{}: worst abs error {:e} at input {:e} exceeds allowed {:e} \
             ({} comparisons, worst ULP {} at {:e})",
            self.label,
            self.max_abs,
            self.max_abs_at,
            max_abs,
            self.count,
            self.max_ulps,
            self.max_ulps_at,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_diff_counts_representable_steps() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_diff(1.0 + f64::EPSILON, 1.0), 1);
        assert_eq!(ulp_diff(1.5, 1.5 + 3.0 * f64::EPSILON), 3);
    }

    #[test]
    fn ulp_diff_is_well_defined_across_zero() {
        assert_eq!(ulp_diff(-0.0, 0.0), 0);
        assert_eq!(ulp_diff(0.0, f64::from_bits(1)), 1);
        assert_eq!(ulp_diff(-f64::from_bits(1), f64::from_bits(1)), 2);
    }

    #[test]
    fn ulp_diff_handles_non_finite() {
        assert_eq!(ulp_diff(f64::NAN, f64::NAN), u64::MAX);
        assert_eq!(ulp_diff(1.0, f64::NAN), u64::MAX);
        assert_eq!(ulp_diff(f64::INFINITY, f64::INFINITY), 0);
        assert_eq!(ulp_diff(f64::NEG_INFINITY, f64::INFINITY), u64::MAX);
        assert_eq!(ulp_diff(f64::INFINITY, 1.0), u64::MAX);
    }

    #[test]
    fn rel_diff_handles_near_zero() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(1.0, 1.1) - 0.1 / 1.1).abs() < 1e-15);
    }

    #[test]
    fn assertions_pass_within_bounds() {
        assert_close_ulps(1.0, 1.0 + f64::EPSILON, 1, "one ulp apart");
        assert_close_abs(1.0, 1.0 + 1e-13, 1e-12, "within abs bound");
        assert_close_rel(100.0, 100.0 + 1e-11, 1e-12, "within rel bound");
    }

    #[test]
    #[should_panic(expected = "ULPs")]
    fn ulp_assertion_reports_distance() {
        assert_close_ulps(1.0, 1.0 + 4.0 * f64::EPSILON, 2, "too far");
    }

    #[test]
    #[should_panic(expected = "allowed")]
    fn abs_assertion_reports_difference() {
        assert_close_abs(1.0, 2.0, 1e-12, "way off");
    }

    #[test]
    #[should_panic(expected = "allowed")]
    fn nan_fails_abs_assertion() {
        assert_close_abs(f64::NAN, 1.0, 1e9, "nan must not sneak through");
    }

    #[test]
    fn error_stats_track_worst_offender() {
        let mut stats = ErrorStats::new("sweep");
        stats.record(0.0, 1.0, 1.0);
        stats.record(2.0, 1.0, 1.0 + 2.0 * f64::EPSILON);
        stats.record(1.0, 1.0, 1.0 + f64::EPSILON);
        assert_eq!(stats.count(), 3);
        assert_eq!(stats.max_ulps(), 2);
        assert!((stats.max_abs() - 2.0 * f64::EPSILON).abs() < 1e-18);
        stats.assert_max_ulps(2);
        stats.assert_max_abs(3.0 * f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "worst ULP error")]
    fn error_stats_report_worst_input_on_failure() {
        let mut stats = ErrorStats::new("sweep");
        stats.record(7.0, 1.0, 1.0 + 8.0 * f64::EPSILON);
        stats.assert_max_ulps(1);
    }

    #[test]
    fn error_stats_flag_nan_disagreement() {
        let mut stats = ErrorStats::new("nan");
        stats.record(0.5, f64::NAN, 1.0);
        assert_eq!(stats.max_ulps(), u64::MAX);
    }

    #[test]
    fn error_stats_accept_nan_agreement() {
        let mut stats = ErrorStats::new("nan both");
        stats.record(0.5, f64::NAN, f64::NAN);
        stats.assert_max_ulps(0);
    }
}
