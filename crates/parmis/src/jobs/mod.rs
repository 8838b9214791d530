//! Crash-safe supervision for fleets of PaRMIS searches.
//!
//! Long multi-objective policy searches are exactly the workloads that die to node
//! preemption, OOM kills and power loss. This module makes that boring: a
//! [`JobSupervisor`] owns a checkpoint directory and drives N concurrent
//! [`Parmis`](crate::framework::Parmis) searches as fuel-bounded segments to
//! completion, surviving a `SIGKILL` at **any** point — including mid-checkpoint-write
//! — with zero corrupt-state panics and final Pareto fronts bit-identical to
//! uninterrupted runs.
//!
//! Three layers:
//!
//! * [`store`] — the durable checkpoint store. Every artifact is persisted with
//!   [`store::atomic_write`] (temp file → `fsync` → `rename` → directory `fsync`), so a
//!   crash leaves the previous generation or the new one, never a torn file. Loads are
//!   digest-verified end to end; corrupt or truncated generations are moved to a
//!   `quarantine/` side-directory (with `.reason.txt` side-cars) and the load falls
//!   back to the newest valid predecessor. Superseded generations are rotated out.
//! * [`journal`] — the journaled job table. Each job walks a validated state machine
//!   (`Pending → Running → Suspended/Done/Failed/Quarantined`) recorded in a
//!   digest-verified `journal.json` written through the same atomic path.
//! * [`supervisor`] — scheduling and recovery. Runnable jobs are picked
//!   deterministically (round-robin in submission order) into waves of at most
//!   `workers` segments, executed on the workspace's ordered
//!   [`parallel_map`](crate::parallel::parallel_map) pool, and journaled in slot
//!   order. A per-segment watchdog (fuel plus wall-clock budget) **suspends and
//!   reschedules** an over-budget segment at its next checkpoint boundary rather than
//!   killing it, by cancelling the segment's scope after a cadence save; faulted
//!   segments are retried under a bounded restart policy before the job is marked
//!   `Failed`. On startup, [`JobSupervisor::open`] scans the directory, verifies every
//!   journal entry and checkpoint digest, and resumes every interrupted job
//!   bit-identically — the resumed segment rebuilds the per-iteration trace-hash chain
//!   from the stored history before any new evaluation happens.
//!
//! Because segmentation, scheduling and supervision never change a search trajectory,
//! the fleet's outcomes are a deterministic function of the job configurations alone:
//! the same fronts for any worker count and any crash/restart history, receipted by
//! [`outcome_digest`].
//!
//! ```no_run
//! use parmis::prelude::*;
//!
//! # fn main() -> Result<(), ParmisError> {
//! let specs: Vec<JobSpec> = (0..4)
//!     .map(|i| {
//!         let config = ParmisConfig { seed: 7 + i, max_iterations: 60, ..ParmisConfig::default() };
//!         JobSpec::new(format!("search-{i}"), config)
//!     })
//!     .collect();
//! let supervisor_config = SupervisorConfig {
//!     workers: 2,
//!     segment_fuel: 20,
//!     checkpoint_every: 5,
//!     ..SupervisorConfig::default()
//! };
//! let mut supervisor = JobSupervisor::open("checkpoints/fleet", supervisor_config)?;
//! let report = supervisor.run(&specs, |_spec| {
//!     let evaluator = SocEvaluator::builder()
//!         .benchmark(Benchmark::Qsort)
//!         .objectives(vec![Objective::ExecutionTime, Objective::Energy])
//!         .build()?;
//!     Ok(Box::new(evaluator) as Box<dyn PolicyEvaluator>)
//! })?;
//! assert!(report.all_done());
//! # Ok(())
//! # }
//! ```

pub mod journal;
pub mod store;
pub mod supervisor;

pub use journal::{can_transition, JobEntry, JobJournal, JobPhase, JOURNAL_FILE};
pub use store::{
    atomic_write, validate_job_id, CheckpointStore, CrashPlan, CrashStage, LoadOutcome,
    QuarantineEvent,
};
pub use supervisor::{
    outcome_digest, FleetReport, JobReport, JobSpec, JobSupervisor, RecoveryReport,
    SupervisorConfig,
};

#[cfg(test)]
pub(crate) mod testutil {
    //! Cheap synthetic search fixtures shared by the jobs unit tests.

    use crate::acquisition::AcquisitionOptimizerConfig;
    use crate::checkpoint::SearchState;
    use crate::evaluation::PolicyEvaluator;
    use crate::framework::{Parmis, ParmisConfig};
    use crate::objective::Objective;
    use crate::pareto_sampling::ParetoSamplingConfig;
    use crate::Result;

    /// Quadratic two-objective toy problem (no SoC simulator involved).
    pub struct TinyEvaluator {
        objectives: Vec<Objective>,
    }

    impl TinyEvaluator {
        pub fn new() -> TinyEvaluator {
            TinyEvaluator {
                objectives: vec![Objective::ExecutionTime, Objective::Energy],
            }
        }
    }

    impl PolicyEvaluator for TinyEvaluator {
        fn parameter_dim(&self) -> usize {
            2
        }

        fn parameter_bound(&self) -> f64 {
            1.5
        }

        fn objectives(&self) -> &[Objective] {
            &self.objectives
        }

        fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
            let spread = 0.1 * theta[1].powi(2);
            Ok(vec![
                theta[0].powi(2) + spread + 1.0,
                (theta[0] - 1.0).powi(2) + spread + 1.0,
            ])
        }
    }

    /// A deliberately tiny configuration so segment/resume machinery tests stay fast.
    pub fn tiny_config(seed: u64, max_iterations: usize) -> ParmisConfig {
        ParmisConfig {
            max_iterations,
            initial_samples: 4,
            num_pareto_samples: 1,
            sampling: ParetoSamplingConfig {
                rff_features: 16,
                nsga_population: 8,
                nsga_generations: 3,
            },
            acquisition: AcquisitionOptimizerConfig {
                random_candidates: 6,
                local_candidates: 2,
                local_perturbation: 0.2,
            },
            refit_hyperparameters_every: 4,
            batch_size: 2,
            seed,
            ..ParmisConfig::default()
        }
    }

    /// A real mid-search [`SearchState`] captured from a fuel-suspended tiny run.
    pub fn tiny_state(seed: u64) -> SearchState {
        Parmis::new(tiny_config(seed, 12))
            .segment(&TinyEvaluator::new(), None, 6, 0, &mut |_| Ok(()))
            .expect("tiny run")
            .into_suspended()
            .expect("fuel suspends before completion")
    }
}
