//! Graceful shutdown: cooperative cancellation for a single search, then a fleet-wide
//! drain under the [`JobSupervisor`] — and the proof that stopping early never costs
//! correctness, because a suspended search resumes **bit-identically**.
//!
//! ```text
//! cargo run --release --example graceful_shutdown
//! ```
//!
//! Two acts:
//!
//! 1. A [`CancelSource`] trips mid-search (here from the evaluator itself, so the demo is
//!    deterministic; in production the trigger is a Ctrl-C handler, a deadline, or a stall
//!    monitor). The search suspends at the next iteration boundary with
//!    [`StopReason::Cancelled`], hands back a serializable [`SearchState`], and resuming
//!    it reproduces the uninterrupted trace-hash chain link for link.
//! 2. A supervised fleet drains mid-run: [`JobSupervisor::drain_source`] is cancelled
//!    while segments are in flight, every job parks as `Suspended`/`Pending` with the
//!    journal flushed, and a later supervisor finishes the fleet with digests identical
//!    to uninterrupted runs. (Set [`SupervisorConfig::drain_on_signals`] to get the same
//!    behaviour from a real `SIGTERM`/`SIGINT` — that path is drilled by the two-process
//!    `job_soak` bench bin.)

use parmis::jobs::outcome_digest;
use parmis::prelude::*;
use parmis_repro::{example_parmis_config, sized};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps an evaluator and trips `source` after `cancel_after` evaluations — a stand-in
/// for an operator pressing Ctrl-C at an unpredictable moment, made deterministic so the
/// example can assert exact outcomes.
struct CancelAfter<E> {
    inner: E,
    served: AtomicUsize,
    cancel_after: usize,
    source: CancelSource,
}

impl<E: PolicyEvaluator> PolicyEvaluator for CancelAfter<E> {
    fn parameter_dim(&self) -> usize {
        self.inner.parameter_dim()
    }

    fn parameter_bound(&self) -> f64 {
        self.inner.parameter_bound()
    }

    fn objectives(&self) -> &[Objective] {
        self.inner.objectives()
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>, ParmisError> {
        if self.served.fetch_add(1, Ordering::SeqCst) + 1 >= self.cancel_after {
            self.source.cancel(CancelReason::User);
        }
        self.inner.evaluate(theta)
    }
}

fn evaluator() -> Result<SocEvaluator, ParmisError> {
    SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(vec![Objective::ExecutionTime, Objective::Energy])
        .build()
}

/// Act 1: cancel one search mid-flight, resume it, audit the trace-hash chain.
fn single_search_cancellation() -> Result<(), Box<dyn std::error::Error>> {
    let config = example_parmis_config(sized(16, 8), 71);
    let uninterrupted = Parmis::new(config.clone()).run(&evaluator()?)?;

    let source = CancelSource::new();
    let cancelling = CancelAfter {
        inner: evaluator()?,
        served: AtomicUsize::new(0),
        cancel_after: config.max_iterations / 2,
        source: source.clone(),
    };
    let step = Parmis::new(config.clone())
        .with_cancel_token(source.token())
        .segment(&cancelling, None, 0, 0, &mut |_| Ok(()))?;
    let (state, reason) = match step {
        SearchStep::Suspended { state, reason } => (state, reason),
        SearchStep::Completed(_) => unreachable!("the token trips before the budget"),
    };
    assert_eq!(reason, StopReason::Cancelled(CancelReason::User));
    println!(
        "act 1: suspended with `{reason}` after {} evaluations (requested at ~{})",
        state.evaluations(),
        config.max_iterations / 2
    );

    // The suspended state round-trips through JSON — exactly what a deployment persists
    // before exiting — and resumes under a fresh, untripped driver.
    let restored = SearchState::from_json(&state.to_json()?)?;
    let resumed = Parmis::new(config)
        .segment(&evaluator()?, Some(restored), 0, 0, &mut |_| Ok(()))?
        .into_completed()
        .expect("no token, no fuel budget: the resumed segment completes");
    assert_eq!(
        uninterrupted.trace_hashes, resumed.trace_hashes,
        "cancellation must only decide when to stop, never what is computed"
    );
    println!(
        "act 1: resume audit passed — {} trace-hash links identical to the uninterrupted run",
        resumed.trace_hashes.len()
    );
    Ok(())
}

/// Act 2: drain a supervised fleet mid-run, then finish it in a second run.
fn fleet_drain() -> Result<(), Box<dyn std::error::Error>> {
    let fleet: Vec<JobSpec> = (0..3)
        .map(|i| {
            let config = example_parmis_config(sized(16, 8), 83 + 5 * i as u64);
            JobSpec::new(format!("search-{i}"), config)
        })
        .collect();
    let references: Vec<u64> = fleet
        .iter()
        .map(|spec| {
            let outcome = Parmis::new(spec.config.clone()).run(&evaluator()?)?;
            Ok::<u64, Box<dyn std::error::Error>>(outcome_digest(&outcome))
        })
        .collect::<Result<_, _>>()?;

    let dir = std::env::temp_dir().join("parmis_graceful_shutdown_example");
    let _ = std::fs::remove_dir_all(&dir);
    let supervisor_config = SupervisorConfig {
        workers: 1,
        segment_fuel: sized(6, 4),
        checkpoint_every: 2,
        ..SupervisorConfig::default()
    };

    // First run: the fourth segment finds the fleet draining — as if SIGTERM arrived —
    // and every job parks at a checkpoint boundary with the journal flushed.
    let mut supervisor = JobSupervisor::open(&dir, supervisor_config.clone())?;
    let drain = supervisor.drain_source();
    let segments_started = AtomicUsize::new(0);
    let report = supervisor.run(&fleet, |_spec| {
        if segments_started.fetch_add(1, Ordering::SeqCst) + 1 == 4 {
            drain.cancel(CancelReason::User);
        }
        Ok(Box::new(evaluator()?))
    })?;
    assert!(report.any_resumable() && !report.all_done());
    for job in &report.jobs {
        assert!(
            matches!(job.phase, JobPhase::Suspended | JobPhase::Pending),
            "a drain leaves only resumable phases"
        );
        println!(
            "act 2: {} parked as {:?} at {} evaluations{}",
            job.id,
            job.phase,
            job.evaluations,
            job.note
                .as_deref()
                .map(|n| format!(" ({n})"))
                .unwrap_or_default()
        );
    }

    // Second run (a later process): the journal is the source of truth; the fleet
    // finishes with fronts bit-identical to never having been interrupted.
    let mut resumed = JobSupervisor::open(&dir, supervisor_config)?;
    let report = resumed.run(&fleet, |_spec| Ok(Box::new(evaluator()?)))?;
    assert!(report.all_done());
    for (job, reference) in report.jobs.iter().zip(&references) {
        assert_eq!(
            job.outcome_digest,
            Some(*reference),
            "drain + resume diverged from the uninterrupted run"
        );
    }
    println!(
        "act 2: drain audit passed — all {} digests identical after resume",
        fleet.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    single_search_cancellation()?;
    fleet_drain()?;
    Ok(())
}
