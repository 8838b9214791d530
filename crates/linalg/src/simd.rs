//! The workspace's one run-time SIMD dispatch.
//!
//! Rust compiles for a baseline instruction set (SSE2 on x86-64), so a loop that could fill
//! 256-bit lanes runs at 128 bits unless the function around it is compiled for more.
//! [`dispatch`] runs a kernel in one of two copies: a copy compiled with AVX2 and FMA enabled
//! when the CPU has both (checked with `is_x86_feature_detected!`), and the portable copy
//! otherwise. The kernel learns which copy it runs in from its `bool` argument, which is a
//! constant inside each copy, so a kernel can pick a tile width per copy for free.
//!
//! # Writing a kernel
//!
//! Pass a closure marked `#[inline(always)]`, and make every function it calls on the hot
//! path `#[inline(always)]` too: only code inlined into the copy is compiled for the copy's
//! instruction set. A closure or callee left out of line is compiled once, for the baseline
//! target, whichever copy calls it.
//!
//! Both copies must give the same bits. Rust never contracts a multiply and an add into a
//! fused multiply-add, so plain arithmetic rounds the same in both; `f64::mul_add` is
//! correctly rounded in both (an instruction in the wide copy, the C library's software
//! `fma` on a baseline target), and so are `sqrt` and the comparisons. Where the sign of a
//! zero or the choice between NaNs matters, spell `min`, `max` and `clamp` as comparisons:
//! their instruction sequences may differ between copies in exactly those cases.
//!
//! [`portable`] forces the portable copy on the current thread, so a test can check both
//! copies against each other on a CPU that runs the wide one.
//!
//! # Examples
//!
//! ```
//! use linalg::simd;
//!
//! let xs = [1.0, 2.0, 3.0];
//! let sum = |xs: &[f64]| simd::dispatch(#[inline(always)] |_| xs.iter().fold(-0.0, |acc, x| acc + x));
//! assert_eq!(sum(&xs), 6.0);
//! assert_eq!(simd::portable(|| sum(&xs)).to_bits(), sum(&xs).to_bits());
//! assert!(!simd::portable(|| simd::dispatch(|wide| wide)));
//! ```

use std::cell::Cell;

thread_local! {
    /// Set while [`portable`] runs on this thread.
    static FORCE_PORTABLE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `kernel(true)` in a copy compiled with AVX2 and FMA when this CPU has both, and
/// `kernel(false)` in the portable copy otherwise (or inside [`portable`]).
///
/// Nothing is allocated. See the [module docs](self) for what a kernel must do to run at
/// the wide copy's width and to give the same bits in both copies.
#[allow(unsafe_code)]
#[inline]
pub fn dispatch<R>(kernel: impl FnOnce(bool) -> R) -> R {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if !FORCE_PORTABLE.with(Cell::get)
        && is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
    {
        /// `kernel(true)`, compiled with AVX2 and FMA enabled.
        ///
        /// # Safety
        ///
        /// The CPU running it must support AVX2 and FMA.
        #[target_feature(enable = "avx2,fma")]
        unsafe fn avx2_fma<R>(kernel: impl FnOnce(bool) -> R) -> R {
            kernel(true)
        }
        // SAFETY: `avx2_fma` only requires AVX2 and FMA, and `is_x86_feature_detected!`
        // has just confirmed both on this CPU.
        return unsafe { avx2_fma(kernel) };
    }
    kernel(false)
}

/// Runs `f` with every [`dispatch`] on this thread inside it taking the portable copy.
///
/// For tests: on a CPU with AVX2 and FMA, `portable(|| work())` against `work()` checks
/// the two copies against each other. Calls nest, and a panic inside `f` restores the
/// previous setting.
pub fn portable<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the thread's setting when dropped, on return or unwind.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_PORTABLE.with(|force| force.set(self.0));
        }
    }
    let _restore = Restore(FORCE_PORTABLE.with(|force| force.replace(true)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_forces_the_portable_copy_and_restores_the_setting() {
        let wide_here = dispatch(|wide| wide);
        assert!(!portable(|| dispatch(|wide| wide)));
        assert!(!portable(|| portable(|| dispatch(|wide| wide))));
        assert_eq!(dispatch(|wide| wide), wide_here);
        let unwound = std::panic::catch_unwind(|| portable(|| panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!(dispatch(|wide| wide), wide_here);
    }

    #[test]
    fn the_wide_copy_runs_exactly_where_the_cpu_has_avx2_and_fma() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let expected = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let expected = false;
        assert_eq!(dispatch(|wide| wide), expected);
    }
}
