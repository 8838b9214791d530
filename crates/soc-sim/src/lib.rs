//! Analytic big.LITTLE heterogeneous SoC simulator.
//!
//! The PaRMIS paper evaluates on a physical Odroid-XU3 board (Samsung Exynos 5422: four A15
//! "Big" cores, four A7 "Little" cores, per-cluster DVFS, on-board power sensors) running 12
//! MiBench/CortexSuite benchmarks. That hardware is not available to this reproduction, so
//! this crate provides the closest synthetic equivalent: an analytic platform model that
//! exposes exactly the observables the DRM-policy learning problem needs —
//!
//! * a **decision space** of (active Big cores, active Little cores, Big frequency, Little
//!   frequency) tuples identical in size and structure to the paper's 4 940 configurations
//!   ([`config`]),
//! * a **performance model** capturing frequency scaling, memory-boundedness and parallel
//!   scaling across heterogeneous clusters ([`perf`]),
//! * a **power/energy model** with per-cluster dynamic (`C·V²·f`) and static components and
//!   realistic Exynos-5422-like voltage/frequency operating points ([`power`], [`cluster`]),
//! * the **hardware-counter features** of Table I regenerated every decision epoch
//!   ([`counters`]),
//! * twelve **synthetic applications** that mirror the phase behaviour of the paper's
//!   benchmarks ([`apps`], [`workload`]), plus deterministic **workload generators**
//!   (bursty, periodic, io-idle, multi-app interleave) for scenario diversity,
//! * the four stock **Linux governors** used as baselines ([`governor`]),
//! * a **platform runner** that executes an application under any [`DrmController`] and
//!   reports execution time, energy, PPW and peak temperature ([`platform`]), with a
//!   lumped-RC **thermal model** (optional per-cluster junction refinement, [`thermal`])
//!   and **DVFS transition costs** (latency + energy, [`TransitionModel`]), and
//! * a **scenario registry** of named (platform, workload, constraints) triples with
//!   lossless JSON round-tripping ([`scenario`]) — the regression axis of the cross-
//!   scenario golden matrix. Besides the Exynos-5422 preset there are asymmetric
//!   hexa-core and wearable-class platforms ([`SocSpec::hexa_asym`], [`SocSpec::wearable`]).
//!
//! # Quick start
//!
//! ```
//! use soc_sim::apps::Benchmark;
//! use soc_sim::governor::OndemandGovernor;
//! use soc_sim::platform::Platform;
//!
//! # fn main() -> Result<(), soc_sim::SocError> {
//! let platform = Platform::odroid_xu3();
//! let app = Benchmark::Qsort.application();
//! let mut governor = OndemandGovernor::new(platform.spec().clone());
//! let summary = platform.run_application(&app, &mut governor, 0)?;
//! assert!(summary.execution_time_s > 0.0);
//! assert!(summary.energy_j > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod cluster;
pub mod config;
pub mod counters;
pub mod engine;
mod error;
pub mod governor;
pub mod perf;
pub mod platform;
pub mod power;
pub mod scenario;
pub mod thermal;
pub mod workload;

pub use config::{DecisionSpace, DrmDecision};
pub use counters::CounterSnapshot;
pub use engine::{DecisionEntry, DecisionTable};
pub use error::SocError;
pub use fastmath::Precision;
pub use platform::{DrmController, EpochResult, Platform, RunAggregates, SocSpec, TransitionModel};
pub use scenario::Scenario;
pub use thermal::{PerClusterThermal, ThermalModel, ThermalState};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, SocError>;

// The parallel batched evaluation engine (`parmis::evaluation::ParallelEvaluator`) shares
// platforms and applications across scoped worker threads and clones them into sweep arms.
// Everything here is plain owned data — no interior mutability, no `Rc` — so these bounds
// hold structurally; the assertions turn an accidental regression (e.g. someone caching
// state in a `RefCell`) into a compile error at the crate boundary.
#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_worker_shareable<T: Send + Sync + Clone>() {}

    #[test]
    fn platform_types_can_cross_worker_threads() {
        assert_worker_shareable::<Platform>();
        assert_worker_shareable::<SocSpec>();
        assert_worker_shareable::<DecisionSpace>();
        assert_worker_shareable::<DrmDecision>();
        assert_worker_shareable::<workload::Application>();
        assert_worker_shareable::<workload::PhaseSpec>();
        assert_worker_shareable::<apps::Benchmark>();
        assert_worker_shareable::<CounterSnapshot>();
        assert_worker_shareable::<RunAggregates>();
        assert_worker_shareable::<DecisionTable>();
        assert_worker_shareable::<EpochResult>();
        assert_worker_shareable::<Scenario>();
        assert_worker_shareable::<scenario::WorkloadSpec>();
        assert_worker_shareable::<scenario::ScenarioConstraints>();
        assert_worker_shareable::<ThermalModel>();
        assert_worker_shareable::<ThermalState>();
    }
}
