//! Process-wide operation counters for the multi-objective substrate.
//!
//! The flat-buffer NSGA-II engine is only worth its complexity if the acquisition pipeline
//! actually routes through it. Mirroring the `gp::stats` design, these counters let
//! integration tests assert that (e.g.) a `Parmis::run` evolved its sampled-front
//! populations through the batched engine — generation by generation — without timing
//! anything: wall-clock assertions flake on shared machines, operation counts do not.
//!
//! Counters are global atomics (`Relaxed` ordering — they are statistics, not
//! synchronization), so tests that assert on them should either run in their own process or
//! use `>=` comparisons against a [`snapshot`] taken after [`reset`].

use std::sync::atomic::{AtomicU64, Ordering};

static NSGA2_GENERATIONS: AtomicU64 = AtomicU64::new(0);
static DOMINANCE_COMPARISONS: AtomicU64 = AtomicU64::new(0);
static FLAT_SORTS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// NSGA-II generations evolved by the flat engine (one per selection + variation +
    /// environmental-selection round, across every `run`/`solve` call).
    pub nsga2_generations: u64,
    /// Unordered candidate pairs whose dominance relation flat non-dominated sorting
    /// resolves: each [`crate::dominance::fast_non_dominated_sort_flat`] pass over `n`
    /// points adds `n·(n−1)/2`. With three or more objectives every pair is compared once,
    /// in both directions; with two, a sort and one sweep settle the same pairs.
    pub dominance_comparisons: u64,
    /// Flat index-based non-dominated sorts performed by the engine.
    pub flat_sorts: u64,
}

/// Resets every counter to zero.
pub fn reset() {
    NSGA2_GENERATIONS.store(0, Ordering::Relaxed);
    DOMINANCE_COMPARISONS.store(0, Ordering::Relaxed);
    FLAT_SORTS.store(0, Ordering::Relaxed);
}

/// Returns the current value of every counter.
pub fn snapshot() -> OpCounts {
    OpCounts {
        nsga2_generations: NSGA2_GENERATIONS.load(Ordering::Relaxed),
        dominance_comparisons: DOMINANCE_COMPARISONS.load(Ordering::Relaxed),
        flat_sorts: FLAT_SORTS.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_generation() {
    NSGA2_GENERATIONS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_dominance_comparisons(pairs: u64) {
    DOMINANCE_COMPARISONS.fetch_add(pairs, Ordering::Relaxed);
}

pub(crate) fn record_flat_sort() {
    FLAT_SORTS.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record_generation();
        record_flat_sort();
        record_dominance_comparisons(12);
        let s = snapshot();
        assert!(s.nsga2_generations >= 1);
        assert!(s.flat_sorts >= 1);
        assert!(s.dominance_comparisons >= 12);
        reset();
        // Another test in this process may race a fresh increment in, so only assert the
        // reset did not fail outright.
        assert!(snapshot().dominance_comparisons < s.dominance_comparisons + 12);
    }
}
