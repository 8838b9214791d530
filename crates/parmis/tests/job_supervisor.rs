//! Supervised-fleet equivalence suite: a [`JobSupervisor`] driving N concurrent
//! searches as fuel-bounded segments — through crashes, watchdog suspensions, injected
//! backend faults and corrupt checkpoint generations — must finish every job with a
//! final front **bit-identical** to an uninterrupted [`Parmis::run`] of the same
//! configuration, for every worker count.

use parmis::backend::{AnalyticSim, FaultInject, FaultKind};
use parmis::cancel::CancelReason;
use parmis::checkpoint::{config_digest, SearchState};
use parmis::evaluation::{PolicyEvaluator, RetryPolicy, SocEvaluator};
use parmis::framework::{Parmis, ParmisConfig, ParmisOutcome};
use parmis::jobs::{
    atomic_write, outcome_digest, CheckpointStore, JobEntry, JobJournal, JobPhase, JobSpec,
    JobSupervisor, SupervisorConfig, JOURNAL_FILE,
};
use parmis::objective::Objective;
use parmis::Result;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Cheap synthetic evaluator (no SoC simulator) for the fleet-scale tests.
struct SyntheticEvaluator {
    objectives: Vec<Objective>,
}

impl SyntheticEvaluator {
    fn new() -> Self {
        SyntheticEvaluator {
            objectives: vec![Objective::ExecutionTime, Objective::Energy],
        }
    }
}

impl PolicyEvaluator for SyntheticEvaluator {
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

fn tiny_config(seed: u64, max_iterations: usize) -> ParmisConfig {
    ParmisConfig {
        max_iterations,
        initial_samples: 4,
        num_pareto_samples: 1,
        sampling: parmis::pareto_sampling::ParetoSamplingConfig {
            rff_features: 16,
            nsga_population: 8,
            nsga_generations: 3,
        },
        acquisition: parmis::acquisition::AcquisitionOptimizerConfig {
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

fn fleet_specs(n: u64, max_iterations: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec::new(format!("job-{i}"), tiny_config(3 + 2 * i, max_iterations)))
        .collect()
}

fn reference_outcome(config: &ParmisConfig) -> ParmisOutcome {
    Parmis::new(config.clone())
        .run(&SyntheticEvaluator::new())
        .expect("uninterrupted reference run")
}

fn synthetic_factory(_spec: &JobSpec) -> Result<Box<dyn PolicyEvaluator>> {
    Ok(Box::new(SyntheticEvaluator::new()))
}

/// [`SyntheticEvaluator`] with a fixed wall-clock cost per evaluation: sleeping changes
/// nothing about the trajectory, but guarantees a small `segment_wall_ms` budget is
/// exceeded by the first checkpoint boundary even in release builds.
struct SlowEvaluator {
    inner: SyntheticEvaluator,
    per_eval: std::time::Duration,
}

impl PolicyEvaluator for SlowEvaluator {
    fn parameter_dim(&self) -> usize {
        self.inner.parameter_dim()
    }

    fn parameter_bound(&self) -> f64 {
        self.inner.parameter_bound()
    }

    fn objectives(&self) -> &[Objective] {
        self.inner.objectives()
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
        std::thread::sleep(self.per_eval);
        self.inner.evaluate(theta)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parmis-jobs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fleet of 4 searches, segmented by fuel and scheduled over worker pools of 1, 2 and
/// 4 slots, finishes with per-job fronts and trace chains bit-identical to the four
/// uninterrupted runs — worker count and segmentation trade wall-clock only.
#[test]
fn fleet_outcomes_bit_identical_across_worker_counts() {
    let specs = fleet_specs(4, 10);
    let references: Vec<ParmisOutcome> =
        specs.iter().map(|s| reference_outcome(&s.config)).collect();

    for workers in [1usize, 2, 4] {
        let dir = temp_dir(&format!("fleet-w{workers}"));
        let config = SupervisorConfig {
            workers,
            segment_fuel: 4,
            checkpoint_every: 2,
            ..SupervisorConfig::default()
        };
        let mut supervisor = JobSupervisor::open(&dir, config).expect("open");
        let report = supervisor
            .run(&specs, synthetic_factory)
            .expect("fleet run");
        assert!(report.all_done(), "{workers} workers: {report:?}");
        for (spec, reference) in specs.iter().zip(&references) {
            let job = report.job(&spec.id).expect("reported");
            assert!(job.segments > 1, "{}: fuel must segment the run", spec.id);
            assert_eq!(
                job.outcome_digest,
                Some(outcome_digest(reference)),
                "{workers} workers, {}: fleet digest diverged from the uninterrupted run",
                spec.id
            );
            let outcome = job.outcome.as_ref().expect("driven to completion here");
            assert_eq!(outcome.trace_hashes, reference.trace_hashes, "{}", spec.id);
            assert_eq!(
                outcome.front.objective_values(),
                reference.front.objective_values(),
                "{}",
                spec.id
            );
            assert_eq!(outcome.phv_history, reference.phv_history, "{}", spec.id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fuel suspension right after a cadence checkpoint reuses that generation instead of
/// writing the same state again, so every generation a job keeps holds strictly more
/// evaluations than the one before it.
#[test]
fn fuel_segmented_generations_hold_strictly_increasing_evaluations() {
    let dir = temp_dir("generations");
    let specs = fleet_specs(2, 14);
    let config = SupervisorConfig {
        workers: 2,
        segment_fuel: 4,
        checkpoint_every: 2,
        keep_checkpoints: 64,
        ..SupervisorConfig::default()
    };
    let mut supervisor = JobSupervisor::open(&dir, config).expect("open");
    let report = supervisor
        .run(&specs, synthetic_factory)
        .expect("fleet run");
    assert!(report.all_done(), "{report:?}");
    for spec in &specs {
        let evaluations: Vec<usize> = supervisor
            .store()
            .generations(&spec.id)
            .expect("list")
            .iter()
            .map(|(_, path)| {
                let text = std::fs::read_to_string(path).expect("read generation");
                SearchState::from_json(&text)
                    .expect("valid generation")
                    .evaluations()
            })
            .collect();
        assert!(evaluations.len() > 2, "{}: {evaluations:?}", spec.id);
        assert!(
            evaluations.windows(2).all(|pair| pair[0] < pair[1]),
            "{}: generations repeat a state: {evaluations:?}",
            spec.id
        );
        assert_eq!(
            report.job(&spec.id).expect("reported").outcome_digest,
            Some(outcome_digest(&reference_outcome(&spec.config)))
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash recovery: a journal left with `Running` entries (the crash marker) — one job
/// with a mid-search checkpoint, one killed before its first checkpoint — is repaired
/// on open and both jobs finish bit-identical to uninterrupted runs.
#[test]
fn interrupted_jobs_resume_bit_identically_after_simulated_crash() {
    let dir = temp_dir("crash");
    let specs = fleet_specs(2, 10);
    let references: Vec<ParmisOutcome> =
        specs.iter().map(|s| reference_outcome(&s.config)).collect();

    // Fabricate the exact on-disk residue of a SIGKILL mid-wave: job-0 suspended a real
    // fuel-bounded segment into the store, job-1 never checkpointed; the journal records
    // both as Running.
    {
        let store = CheckpointStore::open(&dir, 3).expect("open store");
        let state = Parmis::new(specs[0].config.clone())
            .segment(&SyntheticEvaluator::new(), None, 4, 0, &mut |_| Ok(()))
            .expect("segment")
            .into_suspended()
            .expect("fuel suspends");
        let seq = store.save(&specs[0].id, &state).expect("persist");

        let mut journal = JobJournal::new();
        let mut interrupted = JobEntry::pending(&specs[0].id, config_digest(&specs[0].config));
        interrupted.transition(JobPhase::Running).expect("legal");
        interrupted.segments = 1;
        interrupted.checkpoint_seq = Some(seq);
        interrupted.evaluations = state.evaluations();
        journal.insert(interrupted).expect("insert");
        let mut fresh = JobEntry::pending(&specs[1].id, config_digest(&specs[1].config));
        fresh.transition(JobPhase::Running).expect("legal");
        fresh.segments = 1;
        journal.insert(fresh).expect("insert");
        atomic_write(
            &dir.join(JOURNAL_FILE),
            journal.to_json().expect("serialize").as_bytes(),
        )
        .expect("persist journal");
    }

    let config = SupervisorConfig {
        workers: 2,
        segment_fuel: 4,
        checkpoint_every: 2,
        ..SupervisorConfig::default()
    };
    let mut supervisor = JobSupervisor::open(&dir, config).expect("recovery open");
    let recovered: Vec<&str> = supervisor
        .recovery()
        .interrupted
        .iter()
        .map(String::as_str)
        .collect();
    assert_eq!(recovered, vec!["job-0", "job-1"]);
    assert_eq!(supervisor.jobs()[0].phase, JobPhase::Suspended);
    assert_eq!(supervisor.jobs()[1].phase, JobPhase::Pending);

    let report = supervisor
        .run(&specs, synthetic_factory)
        .expect("fleet run");
    assert!(report.all_done(), "{report:?}");
    for (spec, reference) in specs.iter().zip(&references) {
        let job = report.job(&spec.id).expect("reported");
        assert_eq!(
            job.outcome_digest,
            Some(outcome_digest(reference)),
            "{}: recovery diverged from the uninterrupted run",
            spec.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-segment wall-clock watchdog suspends over-budget segments at their next
/// checkpoint boundary and reschedules them; the job still completes with an
/// uninterrupted-identical front — supervision affects scheduling, never trajectories.
#[test]
fn watchdog_suspension_reschedules_without_changing_the_trajectory() {
    let spec = JobSpec::new("watched", tiny_config(21, 8));
    let reference = reference_outcome(&spec.config);

    let dir = temp_dir("watchdog");
    let config = SupervisorConfig {
        workers: 1,
        segment_fuel: 0, // unlimited fuel: only the watchdog can suspend
        checkpoint_every: 2,
        segment_wall_ms: 1, // over budget at every checkpoint boundary (evals sleep 2 ms)
        ..SupervisorConfig::default()
    };
    let mut supervisor = JobSupervisor::open(&dir, config).expect("open");
    let report = supervisor
        .run(std::slice::from_ref(&spec), |_spec| {
            Ok(Box::new(SlowEvaluator {
                inner: SyntheticEvaluator::new(),
                per_eval: std::time::Duration::from_millis(2),
            }))
        })
        .expect("run");
    let job = report.job("watched").expect("reported");
    assert_eq!(job.phase, JobPhase::Done);
    assert!(
        job.segments > 1,
        "a 1 ms budget must force at least one watchdog suspension (got {} segments)",
        job.segments
    );
    assert_eq!(job.outcome_digest, Some(outcome_digest(&reference)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected backend faults (structured error, contained panic, latency spike) during
/// supervised segments are absorbed by the retry policy; the resumed trajectory — and
/// the final front — stay bit-identical to a fault-free uninterrupted run, and the retry
/// counters record the retries.
#[test]
fn fault_injected_segments_stay_bit_identical_under_retries() {
    let config = ParmisConfig {
        max_iterations: 11,
        initial_samples: 5,
        seed: 41,
        ..tiny_config(41, 11)
    };
    let objectives = vec![Objective::ExecutionTime, Objective::Energy];
    let clean = SocEvaluator::builder()
        .benchmark(soc_sim::apps::Benchmark::Qsort)
        .objectives(objectives.clone())
        .build()
        .unwrap();
    let reference = Parmis::new(config.clone())
        .run(&clean)
        .expect("fault-free reference");

    let dir = temp_dir("faults");
    let supervisor_config = SupervisorConfig {
        workers: 1,
        segment_fuel: 4,
        checkpoint_every: 2,
        ..SupervisorConfig::default()
    };
    let mut supervisor = JobSupervisor::open(&dir, supervisor_config).expect("open");
    let stats_handles = Mutex::new(Vec::new());
    let spec = JobSpec::new("faulty", config);
    let report = supervisor
        .run(std::slice::from_ref(&spec), |_spec| {
            // Every segment gets a fresh evaluator whose backend faults early in the
            // segment: a structured error, then a latency spike, then a contained panic.
            let backend = FaultInject::new(Arc::new(AnalyticSim::new()))
                .fault_on(1, FaultKind::Error)
                .fault_on(2, FaultKind::LatencySpike { micros: 200 })
                .fault_on(3, FaultKind::Panic);
            let evaluator = SocEvaluator::builder()
                .benchmark(soc_sim::apps::Benchmark::Qsort)
                .objectives(vec![Objective::ExecutionTime, Objective::Energy])
                .backend(Arc::new(backend))
                .retry_policy(RetryPolicy::retries(1))
                .build()
                .unwrap();
            stats_handles
                .lock()
                .expect("handles")
                .push(evaluator.retry_stats());
            Ok(Box::new(evaluator))
        })
        .expect("run");
    let job = report.job("faulty").expect("reported");
    assert_eq!(job.phase, JobPhase::Done, "note: {:?}", job.note);
    assert!(job.segments > 1, "fuel must segment the run");
    assert_eq!(
        job.outcome_digest,
        Some(outcome_digest(&reference)),
        "injected faults must not perturb the trajectory"
    );
    let handles = stats_handles.into_inner().expect("handles");
    let retries: usize = handles.iter().map(|s| s.retries()).sum();
    let panics: usize = handles.iter().map(|s| s.contained_panics()).sum();
    assert!(
        retries >= 2,
        "scheduled faults must exercise the retry path"
    );
    assert!(panics >= 1, "the panic fault must be contained, not fatal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt newest checkpoint generation discovered on restart is quarantined; the
/// supervisor falls back to the predecessor generation and still converges to the
/// uninterrupted digest (re-doing at most one cadence window of evaluations).
#[test]
fn corrupt_newest_generation_falls_back_and_still_converges() {
    let dir = temp_dir("rot");
    let spec = JobSpec::new("rotted", tiny_config(33, 10));
    let reference = reference_outcome(&spec.config);

    // Two real generations (4 and 8 evaluations), newest corrupted on disk, journal
    // suspended at the newest.
    {
        let store = CheckpointStore::open(&dir, 3).expect("open store");
        let search = Parmis::new(spec.config.clone());
        let first = search
            .segment(&SyntheticEvaluator::new(), None, 4, 0, &mut |_| Ok(()))
            .expect("segment 1")
            .into_suspended()
            .expect("suspends");
        store.save(&spec.id, &first).expect("gen 1");
        let second = search
            .segment(&SyntheticEvaluator::new(), Some(first), 4, 0, &mut |_| {
                Ok(())
            })
            .expect("segment 2")
            .into_suspended()
            .expect("suspends");
        let seq = store.save(&spec.id, &second).expect("gen 2");

        let newest = store
            .generations(&spec.id)
            .expect("list")
            .pop()
            .expect("two generations")
            .1;
        let text = std::fs::read_to_string(&newest).expect("read");
        std::fs::write(&newest, &text[..text.len() / 2]).expect("truncate newest");

        let mut journal = JobJournal::new();
        let mut entry = JobEntry::pending(&spec.id, config_digest(&spec.config));
        entry.transition(JobPhase::Running).expect("legal");
        entry.segments = 2;
        entry.checkpoint_seq = Some(seq);
        entry.evaluations = second.evaluations();
        entry.transition(JobPhase::Suspended).expect("legal");
        journal.insert(entry).expect("insert");
        atomic_write(
            &dir.join(JOURNAL_FILE),
            journal.to_json().expect("serialize").as_bytes(),
        )
        .expect("persist journal");
    }

    let config = SupervisorConfig {
        workers: 1,
        segment_fuel: 4,
        checkpoint_every: 2,
        ..SupervisorConfig::default()
    };
    let mut supervisor = JobSupervisor::open(&dir, config).expect("recovery open");
    assert!(
        !supervisor.recovery().quarantined.is_empty(),
        "the corrupt generation must be quarantined during the open scan"
    );
    let entry = supervisor.jobs()[0].clone();
    assert_eq!(entry.phase, JobPhase::Suspended);
    assert_eq!(entry.checkpoint_seq, Some(1), "fell back to generation 1");
    assert_eq!(entry.evaluations, 4, "predecessor had 4 evaluations");

    let report = supervisor
        .run(std::slice::from_ref(&spec), synthetic_factory)
        .expect("run");
    let job = report.job(&spec.id).expect("reported");
    assert_eq!(job.phase, JobPhase::Done);
    assert_eq!(
        job.outcome_digest,
        Some(outcome_digest(&reference)),
        "fallback resume must still converge to the uninterrupted digest"
    );
    assert_eq!(
        supervisor.store().quarantined_files().expect("scan").len(),
        1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain mid-run: tripping the drain source suspends the in-flight segment at
/// its next iteration boundary, parks everything else, flushes the journal and returns
/// early with only resumable phases; a later run over the same store finishes the whole
/// fleet bit-identical to uninterrupted references.
#[test]
fn requested_drain_suspends_cleanly_and_resumes_bit_identically() {
    let dir = temp_dir("drain");
    let specs = fleet_specs(3, 10);
    let references: Vec<ParmisOutcome> =
        specs.iter().map(|s| reference_outcome(&s.config)).collect();

    let config = SupervisorConfig {
        workers: 1,
        segment_fuel: 4,
        checkpoint_every: 2,
        ..SupervisorConfig::default()
    };
    let mut supervisor = JobSupervisor::open(&dir, config.clone()).expect("open");
    let drain = supervisor.drain_source();
    let segments_started = AtomicUsize::new(0);
    let report = supervisor
        .run(&specs, |_spec| {
            // With one worker the first three segments belong to the three jobs; the
            // fourth (job-0 resuming) finds the fleet draining before its first round
            // and suspends without recomputing anything.
            if segments_started.fetch_add(1, Ordering::SeqCst) + 1 == 4 {
                drain.cancel(CancelReason::User);
            }
            Ok(Box::new(SyntheticEvaluator::new()))
        })
        .expect("drained run");
    assert!(!report.all_done(), "{report:?}");
    assert!(report.any_resumable(), "{report:?}");
    for spec in &specs {
        let job = report.job(&spec.id).expect("reported");
        assert!(
            matches!(job.phase, JobPhase::Suspended | JobPhase::Pending),
            "{}: a drain must leave only resumable phases, got {:?}",
            spec.id,
            job.phase
        );
    }
    let drained = report.job("job-0").expect("reported");
    assert!(
        drained.note.as_deref().unwrap_or("").contains("[user]"),
        "the drained segment's journal note must carry the root cause, got {:?}",
        drained.note
    );

    // A fresh supervisor (fresh drain source) over the same store finishes the fleet.
    drop(supervisor);
    let mut resumed = JobSupervisor::open(&dir, config).expect("reopen");
    let report = resumed.run(&specs, synthetic_factory).expect("final run");
    assert!(report.all_done(), "{report:?}");
    for (spec, reference) in specs.iter().zip(&references) {
        assert_eq!(
            report.job(&spec.id).expect("reported").outcome_digest,
            Some(outcome_digest(reference)),
            "{}: drain + resume diverged from the uninterrupted run",
            spec.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An expired fleet deadline drains the run early — in-flight segments suspend at the
/// next iteration boundary with the deadline recorded as the cause, nothing is killed or
/// quarantined — and a later run without the budget completes bit-identically.
#[test]
fn fleet_deadline_drains_early_and_a_later_run_completes() {
    let dir = temp_dir("fleet-deadline");
    let specs = fleet_specs(2, 10);
    let references: Vec<ParmisOutcome> =
        specs.iter().map(|s| reference_outcome(&s.config)).collect();

    let slow_factory = |_spec: &JobSpec| -> Result<Box<dyn PolicyEvaluator>> {
        Ok(Box::new(SlowEvaluator {
            inner: SyntheticEvaluator::new(),
            per_eval: std::time::Duration::from_millis(3),
        }))
    };
    let mut supervisor = JobSupervisor::open(
        &dir,
        SupervisorConfig {
            workers: 1,
            segment_fuel: 4,
            checkpoint_every: 2,
            // Two jobs x 10 evaluations x 3 ms/eval needs ~60 ms minimum: a 25 ms fleet
            // budget must expire with resumable work left over.
            fleet_deadline_ms: 25,
            ..SupervisorConfig::default()
        },
    )
    .expect("open");
    let report = supervisor.run(&specs, slow_factory).expect("drained run");
    assert!(!report.all_done(), "{report:?}");
    assert!(report.any_resumable(), "{report:?}");
    for spec in &specs {
        let job = report.job(&spec.id).expect("reported");
        assert!(
            matches!(job.phase, JobPhase::Suspended | JobPhase::Pending),
            "{}: got {:?}",
            spec.id,
            job.phase
        );
        if let Some(note) = &job.note {
            assert!(note.contains("[deadline]"), "{}: note {note:?}", spec.id);
        }
    }

    let mut resumed = JobSupervisor::open(
        &dir,
        SupervisorConfig {
            workers: 1,
            segment_fuel: 4,
            checkpoint_every: 2,
            ..SupervisorConfig::default()
        },
    )
    .expect("reopen without deadline");
    let report = resumed.run(&specs, synthetic_factory).expect("final run");
    assert!(report.all_done(), "{report:?}");
    for (spec, reference) in specs.iter().zip(&references) {
        assert_eq!(
            report.job(&spec.id).expect("reported").outcome_digest,
            Some(outcome_digest(reference)),
            "{}: deadline drain diverged from the uninterrupted run",
            spec.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hung-backend regression: a backend that blocks for a full second (one latency spike
/// on its first run) makes no heartbeat progress, so the segment's stall window passes
/// and its scope latches [`CancelReason::Stall`]; the segment suspends at its next
/// iteration boundary, is rescheduled within the same run, and the job completes
/// bit-identical to a clean uninterrupted run.
#[test]
fn stalled_worker_is_detected_suspended_and_completes_on_restart() {
    let config = tiny_config(67, 6);
    let objectives = vec![Objective::ExecutionTime, Objective::Energy];
    let clean = SocEvaluator::builder()
        .benchmark(soc_sim::apps::Benchmark::Qsort)
        .objectives(objectives.clone())
        .build()
        .unwrap();
    let reference = Parmis::new(config.clone())
        .run(&clean)
        .expect("clean reference");

    // One FaultInject shared across factory calls: the global run counter fires the
    // spike exactly once, on the very first backend run of the first segment.
    let hung_backend = Arc::new(
        FaultInject::new(Arc::new(AnalyticSim::new()))
            .fault_on(0, FaultKind::LatencySpike { micros: 1_000_000 }),
    );

    let dir = temp_dir("stall");
    let mut supervisor = JobSupervisor::open(
        &dir,
        SupervisorConfig {
            workers: 1,
            segment_fuel: 0, // unlimited fuel: only the stall window can interrupt
            checkpoint_every: 2,
            stall_timeout_ms: 300,
            ..SupervisorConfig::default()
        },
    )
    .expect("open");
    let spec = JobSpec::new("hung", config);
    let report = supervisor
        .run(std::slice::from_ref(&spec), |_spec| {
            Ok(Box::new(
                SocEvaluator::builder()
                    .benchmark(soc_sim::apps::Benchmark::Qsort)
                    .objectives(vec![Objective::ExecutionTime, Objective::Energy])
                    .backend(hung_backend.clone())
                    .build()
                    .unwrap(),
            ))
        })
        .expect("run");
    let job = report.job("hung").expect("reported");
    assert_eq!(job.phase, JobPhase::Done, "note: {:?}", job.note);
    assert!(
        job.segments >= 2,
        "the stall window must force at least one suspension (got {} segments)",
        job.segments
    );
    assert_eq!(
        job.outcome_digest,
        Some(outcome_digest(&reference)),
        "a stall suspension must not perturb the trajectory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt journal is itself quarantined and rebuilt from the self-verifying
/// checkpoint files; the rebuilt fleet still completes with uninterrupted digests.
#[test]
fn corrupt_journal_is_rebuilt_from_checkpoints() {
    let dir = temp_dir("journal-rot");
    let spec = JobSpec::new("survivor", tiny_config(55, 10));
    let reference = reference_outcome(&spec.config);
    {
        let store = CheckpointStore::open(&dir, 3).expect("open store");
        let state = Parmis::new(spec.config.clone())
            .segment(&SyntheticEvaluator::new(), None, 4, 0, &mut |_| Ok(()))
            .expect("segment")
            .into_suspended()
            .expect("suspends");
        store.save(&spec.id, &state).expect("gen 1");
        std::fs::write(dir.join(JOURNAL_FILE), b"{torn mid-write").expect("corrupt journal");
    }

    let mut supervisor =
        JobSupervisor::open(&dir, SupervisorConfig::default()).expect("recovery open");
    assert!(supervisor.recovery().journal_rebuilt);
    assert_eq!(supervisor.jobs().len(), 1);
    assert_eq!(supervisor.jobs()[0].phase, JobPhase::Suspended);

    let report = supervisor
        .run(std::slice::from_ref(&spec), synthetic_factory)
        .expect("run");
    assert_eq!(
        report.job(&spec.id).expect("reported").outcome_digest,
        Some(outcome_digest(&reference))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
