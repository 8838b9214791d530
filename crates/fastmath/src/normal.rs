//! Batched Box–Muller draws over pre-drawn uniform blocks.
//!
//! The seed-exact noise path (`rand_distr`'s `LogNormal`) draws two uniforms and pays a
//! scalar `ln`, `sqrt`, `cos` and `exp` *per epoch, per factor* — the pinned hot spot of
//! the noisy simulation. The fast tier batches: it pre-draws a block of uniforms from
//! the same RNG **in the same per-draw order as the scalar path** (`u1 = (1 −
//! next_f64()).max(MIN_POSITIVE)` then `u2 = next_f64()`, per variate) and then runs the
//! transcendental pipeline over the whole block with the chunk-friendly kernels.
//!
//! Consuming the RNG in the scalar order is a deliberate trade: the fast tier's draws
//! are then the *same* uniforms the exact tier would have used, so each fast noise
//! factor tracks its exact counterpart to kernel error (~1e-12 relative) instead of
//! being an independent realization. That is what lets the end-to-end
//! "fast-vs-exact Pareto fronts agree" suites use tight tolerances. The speedup comes
//! from batching the `ln`/`cos`/`exp` work, not from re-ordering the stream. (The block
//! may leave the RNG ahead of where the scalar path would — callers hand the stream a
//! *dedicated* noise RNG, as `soc_sim::Platform` does.)

use crate::{cos, exp};
use rand::RngCore;

/// Draws per refill of a [`LogNormalBlock`] (a stack-sized scratch; no heap involved).
pub const NOISE_BLOCK: usize = 128;

const TWO_PI: f64 = std::f64::consts::TAU;

/// Fills `out` with standard-normal draws via batched Box–Muller.
///
/// Draw-for-draw equivalent of `rand_distr::StandardNormal`: variate `i` consumes the
/// same two uniforms (in the same order) as `i` scalar draws would, and differs from
/// the scalar value only by the fast-kernel error (`<= 1e-9` absolute, enforced by the
/// accuracy suite; distribution-level moment/KS bounds are tested on top).
///
/// Inlined with its slice kernels, so a caller that runs it inside
/// `linalg::simd::dispatch` gets it compiled for the wide copy, with the same bits.
#[inline(always)]
pub fn fill_standard_normal<R: RngCore + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut u2 = [0.0f64; NOISE_BLOCK];
    let mut base = 0;
    while base < out.len() {
        let n = NOISE_BLOCK.min(out.len() - base);
        let block = &mut out[base..base + n];
        let angles = &mut u2[..n];
        for (radius, angle) in block.iter_mut().zip(angles.iter_mut()) {
            *radius = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
            *angle = rng.next_f64();
        }
        // radius := sqrt(-2 ln u1), angle := cos(2π u2), then multiply through.
        exp::fast_ln_slice(block);
        for radius in block.iter_mut() {
            *radius = (-2.0 * *radius).sqrt();
        }
        for angle in angles.iter_mut() {
            *angle *= TWO_PI;
        }
        cos::fast_cos_slice(angles);
        for (radius, angle) in block.iter_mut().zip(angles.iter()) {
            *radius *= *angle;
        }
        base += n;
    }
}

/// A buffered stream of log-normal factors `exp(σ·z)`, `z ~ N(0, 1)`.
///
/// Drop-in fast-tier replacement for per-epoch `LogNormal::sample` calls: construction
/// is allocation-free (the buffer is a fixed array), and [`next_factor`] consumes the
/// RNG in the scalar path's per-variate order so factor `i` tracks the scalar factor
/// `i` to kernel error. Refills batch the whole `ln → sqrt → cos → exp` pipeline.
///
/// [`next_factor`]: LogNormalBlock::next_factor
///
/// # Examples
///
/// ```
/// use fastmath::normal::LogNormalBlock;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut stream = LogNormalBlock::new(0.01);
/// let factor = stream.next_factor(&mut rng);
/// assert!(factor > 0.0 && (factor - 1.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct LogNormalBlock {
    sigma: f64,
    buf: [f64; NOISE_BLOCK],
    len: usize,
    pos: usize,
}

impl LogNormalBlock {
    /// Creates a stream of `exp(σ·z)` factors.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "LogNormalBlock sigma must be finite and >= 0, got {sigma}"
        );
        Self {
            sigma,
            buf: [0.0; NOISE_BLOCK],
            len: 0,
            pos: 0,
        }
    }

    /// The σ this stream was built with.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Returns the next log-normal factor, refilling the block from `rng` if drained.
    pub fn next_factor<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.pos == self.len {
            self.refill(rng);
        }
        let factor = self.buf[self.pos];
        self.pos += 1;
        factor
    }

    fn refill<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        fill_standard_normal(rng, &mut self.buf);
        for z in self.buf.iter_mut() {
            *z *= self.sigma;
        }
        exp::fast_exp_slice(&mut self.buf);
        self.len = NOISE_BLOCK;
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// The scalar path's draw, verbatim (mirrors `rand_distr::StandardNormal`).
    fn scalar_normal<R: RngCore>(rng: &mut R) -> f64 {
        let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn batched_draws_track_scalar_draws_on_the_same_stream() {
        let mut fast_rng = StdRng::seed_from_u64(42);
        let mut exact_rng = StdRng::seed_from_u64(42);
        let mut out = [0.0; 500];
        fill_standard_normal(&mut fast_rng, &mut out);
        for (i, &z) in out.iter().enumerate() {
            let want = scalar_normal(&mut exact_rng);
            assert!(
                (z - want).abs() <= 1e-9,
                "draw {i}: fast {z} vs exact {want}"
            );
        }
    }

    #[test]
    fn lognormal_factors_track_the_scalar_lognormal() {
        let sigma = 0.01;
        let mut fast_rng = StdRng::seed_from_u64(9);
        let mut exact_rng = StdRng::seed_from_u64(9);
        let mut stream = LogNormalBlock::new(sigma);
        for i in 0..300 {
            let fast = stream.next_factor(&mut fast_rng);
            let exact = (sigma * scalar_normal(&mut exact_rng)).exp();
            assert!(
                ((fast - exact) / exact).abs() <= 1e-9,
                "factor {i}: fast {fast} vs exact {exact}"
            );
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = LogNormalBlock::new(0.05);
            (0..NOISE_BLOCK * 2 + 3)
                .map(|_| s.next_factor(&mut rng))
                .collect::<Vec<_>>()
        };
        let (a, b) = (draw(1234), draw(1234));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_ne!(draw(1)[0].to_bits(), draw(2)[0].to_bits());
    }

    #[test]
    fn sigma_zero_yields_unit_factors() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = LogNormalBlock::new(0.0);
        for _ in 0..10 {
            assert_eq!(s.next_factor(&mut rng), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be finite")]
    fn negative_sigma_is_rejected() {
        LogNormalBlock::new(-0.1);
    }
}
