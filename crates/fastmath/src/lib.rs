//! Precision-tiered math kernels for the PaRMIS hot paths.
//!
//! The seed implementation spent its model-side time on scalar libm `cos` over RFF
//! features and its noisy simulation on per-epoch scalar Box–Muller draws. This crate is
//! the explicit trade: a **fast tier** of polynomial, range-reduced, chunk-friendly kernels
//! whose error against libm is *bounded and tested* rather than zero, selected by the
//! [`Precision`] knob. The search (`parmis::ParmisConfig`) defaults to
//! [`Precision::Fast`]; [`Precision::default`], the evaluators, the platform and scenario
//! files keep [`Precision::SeedExact`], the reference tier.
//!
//! # Tiers
//!
//! | Tier | Semantics | Pinned by |
//! |------|-----------|-----------|
//! | [`Precision::SeedExact`] | The reference tier: libm `cos`/`exp`/`ln`, per-draw Box–Muller noise, unfused RFF feature products. | scenario-matrix goldens, determinism/equivalence suites, `tests/fast_vs_exact.rs` as the comparison baseline |
//! | [`Precision::Fast`] | This crate's kernels and fused RFF feature products. Still fully deterministic (same seeds → same bits), just not the *same* bits as libm. The search's default. | `tests/goldens/fastmath_{acq,sim}.json`, the error-contract proptests in `crates/fastmath/tests/accuracy.rs`, and the `fast_vs_exact` tolerance suites |
//!
//! Both tiers draw the RFF spectral frequencies with [`normal::fill_standard_normal`].
//!
//! # Error contracts (enforced by `tests/accuracy.rs`)
//!
//! | Kernel | Domain | Bound vs libm |
//! |--------|--------|---------------|
//! | [`fast_cos`] | `\|x\| <= 1e6` | absolute error `<= 1e-12` (typically `<= 2` ULP) |
//! | [`fast_cos`] | `\|x\| > 1e6`, `±0`, subnormal, NaN, ±∞ | delegates to libm — exact |
//! | [`fast_exp`] | `\|x\| <= 700` | relative error `<= 1e-12` (typically `<= 2` ULP) |
//! | [`fast_exp`] | outside, NaN, ±∞ | delegates to libm — exact |
//! | [`fast_ln`] | normal positive finite `x` | absolute error `<= max(1e-12, 1e-12·\|ln x\|)` |
//! | [`fast_ln`] | `x <= 0`, subnormal, NaN, ∞ | delegates to libm — exact |
//! | [`normal::fill_standard_normal`] | — | per-draw `<= 1e-9` absolute vs the scalar Box–Muller on the *same* uniform stream; distribution-level moment + KS bounds |
//!
//! The slice and block kernels ([`fast_cos_slice`], [`fast_cos_block`], [`fast_exp_slice`],
//! [`fast_ln_slice`]) produce **bit-identical results to their scalar counterparts**,
//! element for element — they exist so the main loop is straight-line (masks and selects
//! instead of branches) and auto-vectorizable, with the rare out-of-domain lanes patched in
//! a separate pass. That invariant is what lets the fast tier commit its own goldens: a
//! chunked evaluation order never changes the bits.
//!
//! # Who consumes this
//!
//! - `gp::rff::PosteriorSample::eval_batch_into` runs [`fast_cos_block`] over each
//!   8-feature tile of fused feature products when the sampler is built with
//!   [`Precision::Fast`], inlined into the AVX2 + FMA copy of
//!   `linalg::RowPanels::fused_dots`.
//! - `gp::rff::RffSampler::new` draws every frequency row with
//!   [`normal::fill_standard_normal`], on both tiers.
//! - `soc_sim::platform::Platform` swaps its per-epoch `LogNormal` draws for a
//!   [`normal::LogNormalBlock`] fed by the same dedicated noise RNG (identical uniform
//!   consumption order, so fast-tier noise factors track the exact tier to ~1e-12).
//! - `parmis::ParmisConfig::precision` / `EvaluatorBuilder::precision` /
//!   `soc_sim::scenario::Scenario::precision` thread the knob end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

pub mod cos;
pub mod exp;
pub mod normal;

pub use cos::{fast_cos, fast_cos_block, fast_cos_slice};
pub use exp::{fast_exp, fast_exp_slice, fast_ln, fast_ln_slice};

/// Which math tier a component runs on.
///
/// `SeedExact` (this type's default, and the default of the evaluators, the platform and
/// scenario files) is the reference tier: the seed implementation's exact scalar
/// arithmetic, which the scenario goldens and the `fast_vs_exact` tolerance suites compare
/// against. `Fast` (the default of `parmis::ParmisConfig`, so of every search) selects this
/// crate's kernels and fused RFF feature products: deterministic, bounded-error,
/// chunk-friendly. The fast tier has its *own* committed goldens
/// (`tests/goldens/fastmath_{acq,sim}.json`), so both tiers are regression-pinned; they are
/// just pinned to different bits.
///
/// Serializes as the variant name (`"SeedExact"` / `"Fast"`); scenario JSON written
/// before this axis existed omits the field and parses as `SeedExact` via `Option`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// The reference tier: libm scalar ops, per-draw Box–Muller noise, unfused RFF
    /// feature products.
    #[default]
    SeedExact,
    /// This crate's bounded-error kernels (chunked polynomial cos/exp/ln, batched
    /// Box–Muller over pre-drawn uniform blocks) and fused RFF feature products.
    Fast,
}

impl Precision {
    /// Every precision tier, in declaration order.
    pub const ALL: [Precision; 2] = [Precision::SeedExact, Precision::Fast];

    /// Stable kebab-case name used in reports and scenario files.
    pub fn name(&self) -> &'static str {
        match self {
            Precision::SeedExact => "seed-exact",
            Precision::Fast => "fast",
        }
    }

    /// Looks a tier up by its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Precision> {
        Precision::ALL.iter().copied().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_seed_exact() {
        assert_eq!(Precision::default(), Precision::SeedExact);
    }

    #[test]
    fn names_round_trip() {
        for p in Precision::ALL {
            assert_eq!(Precision::from_name(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(Precision::from_name("exact"), None);
    }

    #[test]
    fn serde_round_trips_as_variant_name() {
        for p in Precision::ALL {
            let v = p.to_json_value();
            let back = Precision::from_json_value(&v).expect("round trip");
            assert_eq!(back, p);
        }
    }
}
