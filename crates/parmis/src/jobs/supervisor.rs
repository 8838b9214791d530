//! The crash-safe job supervisor: drives a fleet of PaRMIS searches as fuel-bounded
//! segments through a worker pool, journaling every phase transition and surviving a
//! `SIGKILL` at any point — including mid-checkpoint-write.
//!
//! Scheduling is deterministic: runnable jobs are picked round-robin in submission
//! order, each wave holds at most `workers` jobs, and the wave's results are applied to
//! the journal in slot order (the [`crate::parallel::parallel_map`] discipline). Since
//! every job's trajectory is a deterministic function of its own configuration —
//! segmentation never changes a trajectory — the final fronts are bit-identical to
//! uninterrupted runs for any worker count and any crash/restart history.
//!
//! On top of the crash story sits the *graceful* stop story, built on
//! [`crate::cancel`]: the supervisor owns a drain [`CancelSource`] (tripped by
//! [`request_drain`](JobSupervisor::request_drain), by `SIGTERM`/`SIGINT` when
//! [`SupervisorConfig::drain_on_signals`] is set, or by the fleet-wide deadline budget),
//! and every segment runs under a per-slot child of it. That slot scope latches `Stall`
//! once its stall window passes without a heartbeat, and the segment watchdog cancels it
//! with `Deadline` after a cadence save. All of these suspend jobs at their next
//! checkpoint boundary — never kill them — so timing decides *when* a fleet pauses, never
//! *what* it computes.

use super::journal::{JobEntry, JobJournal, JobPhase, JOURNAL_FILE};
use super::store::{validate_job_id, CheckpointStore, CrashPlan};
use crate::cancel::{CancelReason, CancelSource};
use crate::checkpoint::{config_digest, fold, fold_f64, fold_str, SearchState, TRACE_HASH_SEED};
use crate::error::CheckpointFault;
use crate::evaluation::PolicyEvaluator;
use crate::framework::{Parmis, ParmisConfig, ParmisOutcome, SearchStep, StopReason};
use crate::parallel::{parallel_map, resolve_workers};
use crate::{ParmisError, Result};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Duration;

/// Restart attempts a job gets after a faulted segment, a stall that made no progress or a
/// lost checkpoint store, before it is marked `Failed` (`Quarantined` for the lost store).
const MAX_RESTARTS: usize = 2;

/// One search job: an id (stable across restarts; names the checkpoint files) and the
/// full search configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id; see [`validate_job_id`] for the accepted alphabet.
    pub id: String,
    /// The search configuration. Everything trajectory-affecting is digested and pinned
    /// on first submission; how the search is cut into segments comes from the
    /// [`SupervisorConfig`].
    pub config: ParmisConfig,
}

impl JobSpec {
    /// Convenience constructor.
    pub fn new(id: impl Into<String>, config: ParmisConfig) -> JobSpec {
        JobSpec {
            id: id.into(),
            config,
        }
    }
}

/// Scheduling and robustness knobs of a [`JobSupervisor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Concurrent segment slots (`0` = one per available CPU). Like every other worker
    /// knob in the workspace this trades wall-clock only — outcomes are bit-identical
    /// for any value.
    pub workers: usize,
    /// Fuel budget (evaluations) of one segment, passed to
    /// [`Parmis::segment`]; `0` runs each job to completion in a single segment.
    pub segment_fuel: usize,
    /// Cadence checkpoint interval inside a segment, in evaluations, passed to
    /// [`Parmis::segment`]; `0` disables cadence checkpoints (a segment then persists
    /// only the state it suspends with).
    pub checkpoint_every: usize,
    /// Wall-clock watchdog budget per segment, in milliseconds; `0` disables. A segment
    /// over budget is **suspended at its next checkpoint boundary** — never killed — so
    /// supervision affects scheduling, not trajectories. The watchdog is checked as each
    /// cadence checkpoint is saved (it then cancels the segment's scope with
    /// [`CancelReason::Deadline`]), so it needs a non-zero
    /// [`checkpoint_every`](Self::checkpoint_every) ([`JobSupervisor::open`] rejects it
    /// otherwise), and every suspended segment has made progress.
    pub segment_wall_ms: u64,
    /// Checkpoint generations kept per job (older ones are garbage-collected).
    pub keep_checkpoints: usize,
    /// Fleet-wide wall-clock budget of one [`run`](JobSupervisor::run), in milliseconds;
    /// `0` disables. Expiry drains the whole fleet: in-flight segments suspend at their
    /// next checkpoint boundary, no further waves start.
    pub fleet_deadline_ms: u64,
    /// Stall detection window, in milliseconds; `0` disables. Each segment's scope
    /// latches [`CancelReason::Stall`] once this long passes without a heartbeat
    /// ([`crate::cancel::CancelToken::beat`], once per completed round, so the window must
    /// exceed the longest round), noticed at the segment's next round boundary. A stall
    /// that suspends without new evaluations charges the bounded restart budget (like a
    /// faulted segment); one that still progressed is a clean suspension.
    pub stall_timeout_ms: u64,
    /// Arms the drain source to trip on `SIGTERM`/`SIGINT`
    /// ([`crate::cancel::CancelSource::cancel_on_signals`]) when the supervisor opens,
    /// turning a polite kill into a graceful drain: suspend everything at the next
    /// checkpoint boundary, flush the journal, return. (`SIGKILL` still works — it just
    /// costs a cadence window of re-evaluation instead of nothing.)
    pub drain_on_signals: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 1,
            segment_fuel: 0,
            checkpoint_every: 0,
            segment_wall_ms: 0,
            keep_checkpoints: 3,
            fleet_deadline_ms: 0,
            stall_timeout_ms: 0,
            drain_on_signals: false,
        }
    }
}

/// What the startup recovery scan found and repaired.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Jobs found `Running` in the journal — the marker of a crash mid-segment — and
    /// demoted to `Suspended`/`Pending` (or `Quarantined` if their state was lost).
    pub interrupted: Vec<String>,
    /// Artifacts quarantined during the scan (corrupt checkpoint generations and/or the
    /// journal itself).
    pub quarantined: Vec<String>,
    /// Whether the journal was corrupt and rebuilt from the on-disk checkpoints.
    pub journal_rebuilt: bool,
}

/// Final state of one job after [`JobSupervisor::run`].
#[derive(Debug)]
pub struct JobReport {
    /// Job id.
    pub id: String,
    /// Final phase of the run: terminal (`Done`, `Failed`, `Quarantined`), or a
    /// resumable `Suspended`/`Pending` when the run was drained.
    pub phase: JobPhase,
    /// Segments started across all processes that worked on this job.
    pub segments: usize,
    /// Restart attempts consumed since the last successful segment.
    pub attempts: usize,
    /// Evaluations performed.
    pub evaluations: usize,
    /// Digest of the final fronts + trace chain ([`outcome_digest`]), if `Done`.
    pub outcome_digest: Option<u64>,
    /// Last failure/suspension note, if any.
    pub note: Option<String>,
    /// The full outcome, present when **this** process drove the job to completion
    /// (a job already `Done` in the journal reports its digest only).
    pub outcome: Option<ParmisOutcome>,
}

/// Result of driving a fleet: one [`JobReport`] per spec, in spec order.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-job reports.
    pub jobs: Vec<JobReport>,
}

impl FleetReport {
    /// Whether every job completed (`Done`).
    pub fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.phase == JobPhase::Done)
    }

    /// Whether any job was left in a resumable (non-terminal) phase — the signature of
    /// a drained run.
    pub fn any_resumable(&self) -> bool {
        self.jobs.iter().any(|j| !j.phase.is_terminal())
    }

    /// The report for `id`, if present.
    pub fn job(&self, id: &str) -> Option<&JobReport> {
        self.jobs.iter().find(|j| j.id == id)
    }
}

/// Order-sensitive digest of a finished search: the trace-hash chain, the Pareto front
/// (objectives + parameter tags), the PHV reference point and the final hypervolume.
///
/// Two runs of the same configuration — uninterrupted, segmented, or resumed across
/// process crashes — must produce the same digest; this is the receipt the soak harness
/// compares across kills.
pub fn outcome_digest(outcome: &ParmisOutcome) -> u64 {
    let mut h = fold(TRACE_HASH_SEED, outcome.history.len() as u64);
    for objective in &outcome.objectives {
        h = fold_str(h, &format!("{objective:?}"));
    }
    for &link in &outcome.trace_hashes {
        h = fold(h, link);
    }
    h = fold(h, outcome.front.len() as u64);
    for entry in outcome.front.iter() {
        for &v in &entry.objectives {
            h = fold_f64(h, v);
        }
        for &v in &entry.tag {
            h = fold_f64(h, v);
        }
    }
    for &v in &outcome.reference_point {
        h = fold_f64(h, v);
    }
    fold_f64(h, outcome.final_phv())
}

/// What one segment execution produced (worker-side; applied to the journal in slot
/// order by the supervisor thread).
enum SegmentResult {
    /// The search ran to completion.
    Completed(Box<ParmisOutcome>),
    /// Suspended. `saved` is the newest durable checkpoint this segment produced as
    /// `(seq, evaluations)`; `None` means the segment was cancelled before its first
    /// checkpoint (the job falls back to whatever the journal already records — its
    /// previous checkpoint, or `Pending` if it never had one). `reason` is
    /// [`StopReason::FuelExhausted`] (the normal segmentation rhythm) or
    /// [`StopReason::Cancelled`] (drain, deadline, segment watchdog, stall, signal).
    Suspended {
        saved: Option<(u64, usize)>,
        reason: StopReason,
    },
    /// The segment faulted; subject to the bounded-restart policy.
    Faulted(ParmisError),
    /// No valid checkpoint generation survives to resume from.
    StoreBroken { quarantined: Vec<String> },
}

/// A supervised, crash-safe runtime for fleets of PaRMIS searches.
///
/// See the [module docs](crate::jobs) for the architecture; the short version:
/// [`open`](Self::open) recovers whatever a previous process left behind,
/// [`run`](Self::run) drives every submitted job to a terminal phase, and any
/// `SIGKILL` in between costs at most one cadence window of re-evaluation — never
/// correctness.
#[derive(Debug)]
pub struct JobSupervisor {
    store: CheckpointStore,
    journal: JobJournal,
    config: SupervisorConfig,
    recovery: RecoveryReport,
    rr_cursor: usize,
    /// Root of the cancellation hierarchy: tripping it (drain request, signal, fleet
    /// deadline) suspends every in-flight segment at its next checkpoint boundary.
    drain: CancelSource,
}

impl JobSupervisor {
    /// Opens a supervisor over `dir`, running the recovery scan: stray temp files are
    /// swept, the journal is loaded (digest-verified; a corrupt journal is quarantined
    /// and rebuilt from the checkpoint files), every interrupted job is demoted to a
    /// resumable phase, and every `Suspended` job's newest checkpoint is re-verified —
    /// falling back to the newest valid predecessor if the newest generation is corrupt.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::InvalidConfig`] for a fleet deadline below the segment
    /// watchdog or a watchdog without cadence checkpoints, and [`ParmisError::Checkpoint`]
    /// with [`CheckpointFault::Io`] for filesystem failures (corruption is repaired, not
    /// reported as an error).
    pub fn open(dir: impl AsRef<Path>, config: SupervisorConfig) -> Result<JobSupervisor> {
        Self::open_inner(dir.as_ref(), config, None)
    }

    /// [`open`](Self::open) with an armed [`CrashPlan`] drill (test/soak harness only):
    /// the process aborts during the N-th durable write issued through the store.
    ///
    /// # Errors
    ///
    /// Same as [`open`](Self::open).
    pub fn open_with_crash_plan(
        dir: impl AsRef<Path>,
        config: SupervisorConfig,
        plan: CrashPlan,
    ) -> Result<JobSupervisor> {
        Self::open_inner(dir.as_ref(), config, Some(plan))
    }

    fn open_inner(
        dir: &Path,
        config: SupervisorConfig,
        crash: Option<CrashPlan>,
    ) -> Result<JobSupervisor> {
        // Degenerate-budget guard: a fleet budget below one segment's watchdog floor
        // could never pay for a single suspension cycle — every run would drain before
        // its first checkpoint and the fleet would make no progress, ever.
        if config.fleet_deadline_ms > 0 && config.fleet_deadline_ms < config.segment_wall_ms {
            return Err(ParmisError::InvalidConfig {
                reason: format!(
                    "fleet_deadline_ms ({}) is below the segment watchdog floor \
                     segment_wall_ms ({}); such a fleet budget can never pay for one \
                     segment's suspension cycle",
                    config.fleet_deadline_ms, config.segment_wall_ms
                ),
            });
        }
        // The watchdog is checked only as a cadence checkpoint is saved; without one it
        // could never fire.
        if config.segment_wall_ms > 0 && config.checkpoint_every == 0 {
            return Err(ParmisError::InvalidConfig {
                reason: format!(
                    "segment_wall_ms ({}) needs a non-zero checkpoint_every: the watchdog \
                     is checked only when a cadence checkpoint is saved",
                    config.segment_wall_ms
                ),
            });
        }
        let mut store = CheckpointStore::open(dir, config.keep_checkpoints)?;
        if let Some(plan) = crash {
            store = store.with_crash_plan(plan);
        }
        let mut recovery = RecoveryReport::default();
        let journal_path = store.root().join(JOURNAL_FILE);
        let journal = if journal_path.exists() {
            let text = std::fs::read_to_string(&journal_path).map_err(|e| {
                ParmisError::checkpoint(
                    CheckpointFault::Io,
                    format!("read journal `{}`: {e}", journal_path.display()),
                )
            })?;
            match JobJournal::from_json(&text) {
                Ok(journal) => journal,
                Err(e) => {
                    // The journal itself is corrupt: quarantine it and rebuild the job
                    // table from the checkpoint files (the checkpoints are self-
                    // verifying, so nothing the journal knew is actually lost).
                    store.quarantine(&journal_path, &e.to_string())?;
                    recovery.quarantined.push(JOURNAL_FILE.to_string());
                    recovery.journal_rebuilt = true;
                    Self::rebuild_journal(&store, &mut recovery)?
                }
            }
        } else {
            JobJournal::new()
        };

        let drain = CancelSource::new();
        if config.drain_on_signals {
            drain.cancel_on_signals()?;
        }
        let mut supervisor = JobSupervisor {
            store,
            journal,
            config,
            recovery,
            rr_cursor: 0,
            drain,
        };
        supervisor.reconcile()?;
        supervisor.persist_journal()?;
        Ok(supervisor)
    }

    /// Rebuilds a job table from the on-disk checkpoints alone: every job with a valid
    /// generation becomes `Suspended`; a job whose every generation is corrupt restarts
    /// from scratch with one restart attempt charged.
    fn rebuild_journal(
        store: &CheckpointStore,
        recovery: &mut RecoveryReport,
    ) -> Result<JobJournal> {
        let mut journal = JobJournal::new();
        for job in store.jobs_on_disk()? {
            let load = store.load_latest(&job)?;
            recovery
                .quarantined
                .extend(load.quarantined.iter().map(|q| q.file.clone()));
            let mut entry = match &load.state {
                Some((_, state)) => JobEntry::pending(&job, state.config_digest),
                None => JobEntry::pending(&job, 0),
            };
            entry.transition(JobPhase::Running)?;
            match load.state {
                Some((seq, state)) => {
                    entry.checkpoint_seq = Some(seq);
                    entry.evaluations = state.evaluations();
                    entry.note = Some("rebuilt from checkpoint after journal loss".to_string());
                    entry.transition(JobPhase::Suspended)?;
                }
                None => {
                    charge_checkpoint_loss(
                        &mut entry,
                        "journal lost and no valid checkpoint generation survives; \
                         restarting from scratch",
                    )?;
                }
            }
            journal.insert(entry)?;
        }
        Ok(journal)
    }

    /// Demotes every `Running` entry (crash marker) to a resumable phase and
    /// re-verifies the persistent state behind every `Suspended` entry.
    fn reconcile(&mut self) -> Result<()> {
        let ids: Vec<String> = self
            .journal
            .entries()
            .iter()
            .map(|e| e.id.clone())
            .collect();
        for id in ids {
            let phase = self.journal.get(&id).map(|e| e.phase);
            match phase {
                Some(JobPhase::Running) => {
                    self.recovery.interrupted.push(id.clone());
                    let load = self.store.load_latest(&id)?;
                    self.note_quarantines(&load.quarantined);
                    let entry = self.journal.get_mut(&id).expect("entry exists");
                    match load.state {
                        Some((seq, state)) => {
                            entry.checkpoint_seq = Some(seq);
                            entry.evaluations = state.evaluations();
                            entry.note = Some("interrupted mid-segment; recovered".to_string());
                            entry.transition(JobPhase::Suspended)?;
                        }
                        None if entry.checkpoint_seq.is_none() && entry.evaluations == 0 => {
                            // Crashed during its very first segment, before any
                            // checkpoint: restart from scratch.
                            entry.note = Some("interrupted before first checkpoint".to_string());
                            entry.transition(JobPhase::Pending)?;
                        }
                        None => {
                            charge_checkpoint_loss(
                                entry,
                                "interrupted and no valid checkpoint generation survives; \
                                 restarting from scratch",
                            )?;
                        }
                    }
                }
                Some(JobPhase::Suspended) => {
                    let load = self.store.load_latest(&id)?;
                    self.note_quarantines(&load.quarantined);
                    let entry = self.journal.get_mut(&id).expect("entry exists");
                    match load.state {
                        Some((seq, state)) => {
                            if entry.checkpoint_seq != Some(seq) {
                                entry.note = Some(format!(
                                    "newest generation corrupt; fell back to generation {seq}"
                                ));
                            }
                            entry.checkpoint_seq = Some(seq);
                            entry.evaluations = state.evaluations();
                        }
                        None => {
                            charge_checkpoint_loss(
                                entry,
                                "every checkpoint generation was corrupt; restarting from scratch",
                            )?;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn note_quarantines(&mut self, events: &[super::store::QuarantineEvent]) {
        self.recovery
            .quarantined
            .extend(events.iter().map(|q| q.file.clone()));
    }

    /// The recovery scan's findings from [`open`](Self::open).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The journaled job table (submission order).
    pub fn jobs(&self) -> &[JobEntry] {
        self.journal.entries()
    }

    /// The underlying durable store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Requests a graceful drain: every in-flight segment suspends at its next
    /// checkpoint boundary, [`run`](Self::run) finishes the current wave, flushes the
    /// journal and returns with the drained jobs left `Suspended`/`Pending` — resumable
    /// by a later `run` with the same specs. Idempotent; callable from any thread
    /// holding a [`drain_source`](Self::drain_source) clone while `run` executes.
    pub fn request_drain(&self) {
        self.drain.cancel(CancelReason::User);
    }

    /// A clone of the drain root, for embedders that need to trigger
    /// [`request_drain`](Self::request_drain) from another thread (the supervisor itself
    /// is exclusively borrowed while [`run`](Self::run) executes).
    pub fn drain_source(&self) -> CancelSource {
        self.drain.clone()
    }

    /// Registers `spec`, journaling a `Pending` entry if the job is new.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Invariant`] for an
    /// invalid id, or [`CheckpointFault::Incompatible`] if the job already exists with
    /// a different trajectory-affecting configuration.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<()> {
        validate_job_id(&spec.id)?;
        let digest = config_digest(&spec.config);
        if let Some(entry) = self.journal.get(&spec.id) {
            if entry.config_digest == 0 {
                // Rebuilt after total state loss: adopt the resubmitted configuration.
                self.journal
                    .get_mut(&spec.id)
                    .expect("entry exists")
                    .config_digest = digest;
                return Ok(());
            }
            if entry.config_digest != digest {
                return Err(ParmisError::checkpoint(
                    CheckpointFault::Incompatible,
                    format!(
                        "job `{}` was journaled with config digest {:#018x}, resubmitted with {:#018x}",
                        spec.id, entry.config_digest, digest
                    ),
                ));
            }
            return Ok(());
        }
        self.journal.insert(JobEntry::pending(&spec.id, digest))?;
        Ok(())
    }

    /// Drives every spec to a terminal phase (`Done` / `Failed` / `Quarantined`),
    /// scheduling runnable jobs round-robin in waves of at most
    /// [`SupervisorConfig::workers`] segments. `factory` builds each segment's
    /// evaluator (called in the worker, so evaluators need not be `Send`).
    ///
    /// Safe to call again after a crash with the same specs: jobs already `Done` are
    /// not re-run, interrupted jobs resume from their newest valid checkpoint.
    ///
    /// A drain ([`request_drain`](Self::request_drain), an armed signal, or the fleet
    /// deadline budget) makes `run` return **early but cleanly**: in-flight segments
    /// suspend at their next checkpoint boundary, the journal is flushed, and the
    /// report may contain non-terminal phases (`Suspended` / `Pending`) — all of them
    /// resumable by a later `run` with the same specs.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::InvalidConfig`], before anything is submitted or run, when
    /// two specs share a job id, and [`ParmisError::Checkpoint`] for journal/store
    /// persistence failures. Per-job search failures never fail the fleet — they are
    /// journaled as `Failed` / `Quarantined` and reported.
    pub fn run<F>(&mut self, specs: &[JobSpec], factory: F) -> Result<FleetReport>
    where
        F: Fn(&JobSpec) -> Result<Box<dyn PolicyEvaluator>> + Sync,
    {
        let mut ids = HashSet::with_capacity(specs.len());
        for spec in specs {
            if !ids.insert(spec.id.as_str()) {
                return Err(ParmisError::InvalidConfig {
                    reason: format!("job id `{}` appears more than once in the fleet", spec.id),
                });
            }
        }
        for spec in specs {
            self.submit(spec)?;
        }
        self.persist_journal()?;
        let workers = resolve_workers(self.config.workers);
        let mut outcomes: HashMap<String, ParmisOutcome> = HashMap::new();

        // The run-scoped cancellation scope: a child of the drain root carrying this
        // run's fleet deadline. Every segment runs under a per-slot child of it.
        let run_scope = if self.config.fleet_deadline_ms > 0 {
            self.drain
                .child_with_deadline(Duration::from_millis(self.config.fleet_deadline_ms))
        } else {
            self.drain.child()
        };

        loop {
            if run_scope.is_cancelled() {
                break;
            }
            let wave = self.pick_wave(specs, workers);
            if wave.is_empty() {
                break;
            }
            // Journal the wave as Running *before* any work happens, so a crash inside
            // the wave is visible to the next process as interrupted segments.
            for &(idx, _) in &wave {
                let entry = self
                    .journal
                    .get_mut(&specs[idx].id)
                    .expect("submitted above");
                entry.transition(JobPhase::Running)?;
                entry.segments += 1;
            }
            self.persist_journal()?;

            let results = parallel_map(&wave, workers, |_, &(idx, fresh)| {
                self.run_segment(&specs[idx], fresh, &run_scope, &factory)
            });

            for (&(idx, _), result) in wave.iter().zip(results) {
                let id = specs[idx].id.clone();
                // A segment cancelled through an ancestor scope reports `Parent`;
                // resolve it to the root cause (drain/signal beats fleet deadline) so
                // journal notes name what actually stopped the fleet.
                let result = match result {
                    SegmentResult::Suspended {
                        saved,
                        reason: StopReason::Cancelled(CancelReason::Parent),
                    } => SegmentResult::Suspended {
                        saved,
                        reason: StopReason::Cancelled(
                            self.drain
                                .cancelled()
                                .or_else(|| run_scope.cancelled())
                                .unwrap_or(CancelReason::Parent),
                        ),
                    },
                    other => other,
                };
                if let Some(outcome) = self.apply_segment_result(&id, result)? {
                    outcomes.insert(id, outcome);
                }
            }
            self.persist_journal()?;
        }

        let jobs = specs
            .iter()
            .map(|spec| {
                let entry = self.journal.get(&spec.id).expect("submitted above");
                JobReport {
                    id: entry.id.clone(),
                    phase: entry.phase,
                    segments: entry.segments,
                    attempts: entry.attempts,
                    evaluations: entry.evaluations,
                    outcome_digest: entry.outcome_digest,
                    note: entry.note.clone(),
                    outcome: outcomes.remove(&entry.id),
                }
            })
            .collect();
        Ok(FleetReport { jobs })
    }

    /// Picks the next wave: up to `workers` runnable jobs, round-robin in spec order
    /// starting at the cursor left by the previous wave.
    fn pick_wave(&mut self, specs: &[JobSpec], workers: usize) -> Vec<(usize, bool)> {
        let n = specs.len();
        let mut wave = Vec::new();
        if n == 0 {
            return wave;
        }
        for offset in 0..n {
            let idx = (self.rr_cursor + offset) % n;
            let Some(entry) = self.journal.get(&specs[idx].id) else {
                continue;
            };
            if entry.phase.is_runnable() {
                wave.push((idx, entry.phase == JobPhase::Pending));
                if wave.len() == workers {
                    self.rr_cursor = (idx + 1) % n;
                    return wave;
                }
            }
        }
        self.rr_cursor = 0;
        wave
    }

    /// Executes one segment of `spec` (worker-side, `&self` only) under a fresh child of
    /// `run_scope`: the slot scope whose token the search checks each round.
    fn run_segment<F>(
        &self,
        spec: &JobSpec,
        fresh: bool,
        run_scope: &CancelSource,
        factory: &F,
    ) -> SegmentResult
    where
        F: Fn(&JobSpec) -> Result<Box<dyn PolicyEvaluator>> + Sync,
    {
        let scope = match self.config.stall_timeout_ms {
            0 => run_scope.child(),
            ms => run_scope.child_with_stall_window(Duration::from_millis(ms)),
        };
        let evaluator = match factory(spec) {
            Ok(evaluator) => evaluator,
            Err(e) => return SegmentResult::Faulted(e),
        };
        let resume_from = if fresh {
            None
        } else {
            match self.store.load_latest(&spec.id) {
                Err(e) => return SegmentResult::Faulted(e),
                Ok(load) => match load.state {
                    None => {
                        return SegmentResult::StoreBroken {
                            quarantined: load.quarantined.into_iter().map(|q| q.file).collect(),
                        }
                    }
                    Some((_, state)) => Some(state),
                },
            }
        };
        let search = Parmis::new(spec.config.clone()).with_cancel_token(scope.token());
        // The watchdog is a deadline of its own, not one on the slot scope: a resumed
        // segment whose replay outlasts the budget must still reach its first save.
        let watchdog = (self.config.segment_wall_ms > 0).then(|| {
            CancelSource::with_deadline(Duration::from_millis(self.config.segment_wall_ms))
        });
        let mut last_saved: Option<(u64, usize)> = None;
        let mut sink = |state: &SearchState| -> Result<()> {
            let seq = self.store.save(&spec.id, state)?;
            last_saved = Some((seq, state.evaluations()));
            if watchdog.as_ref().is_some_and(CancelSource::is_cancelled) {
                // Suspend-and-reschedule, never kill: the search stops at the next round
                // boundary, whose state is the one just saved.
                scope.cancel(CancelReason::Deadline);
            }
            Ok(())
        };

        let step = search.segment(
            &*evaluator,
            resume_from,
            self.config.segment_fuel,
            self.config.checkpoint_every,
            &mut sink,
        );

        match step {
            Ok(SearchStep::Completed(outcome)) => SegmentResult::Completed(outcome),
            Ok(SearchStep::Suspended { state, reason }) => {
                // A suspension right after a cadence save holds that save's state: reuse
                // its generation instead of writing the same state again.
                let saved = match last_saved {
                    Some(saved @ (_, evaluations)) if evaluations == state.evaluations() => saved,
                    _ => match self.store.save(&spec.id, &state) {
                        Ok(seq) => (seq, state.evaluations()),
                        Err(e) => return SegmentResult::Faulted(e),
                    },
                };
                SegmentResult::Suspended {
                    saved: Some(saved),
                    reason,
                }
            }
            // A cancellation raised inside the evaluator (a custom backend may return one)
            // unwinds the segment: the job suspends at the last durable checkpoint,
            // losing at most one cadence window of work that a resumed run recomputes
            // bit-identically.
            Err(e) => match e.cancel_reason() {
                Some(reason) => SegmentResult::Suspended {
                    saved: last_saved,
                    reason: StopReason::Cancelled(reason),
                },
                None => SegmentResult::Faulted(e),
            },
        }
    }

    /// Applies one segment result to the journal (supervisor thread, slot order).
    /// Returns the outcome when the segment completed its job.
    fn apply_segment_result(
        &mut self,
        id: &str,
        result: SegmentResult,
    ) -> Result<Option<ParmisOutcome>> {
        let entry = self.journal.get_mut(id).expect("journaled before the wave");
        match result {
            SegmentResult::Completed(outcome) => {
                entry.evaluations = outcome.history.len();
                entry.outcome_digest = Some(outcome_digest(&outcome));
                entry.note = None;
                entry.transition(JobPhase::Done)?;
                Ok(Some(*outcome))
            }
            SegmentResult::Suspended { saved, reason } => {
                let progressed = match saved {
                    Some((_, evaluations)) => evaluations > entry.evaluations,
                    None => false,
                };
                if let Some((seq, evaluations)) = saved {
                    entry.checkpoint_seq = Some(seq);
                    entry.evaluations = evaluations;
                }
                // A stall that suspended without any forward progress is a hung worker,
                // not a scheduling pause: it consumes the bounded restart budget exactly
                // like a faulted segment, so a backend that hangs forever converges to
                // `Failed` instead of being rescheduled indefinitely.
                let charged_stall =
                    reason == StopReason::Cancelled(CancelReason::Stall) && !progressed;
                if charged_stall {
                    entry.attempts += 1;
                } else {
                    entry.attempts = 0;
                }
                entry.note = match reason {
                    StopReason::Cancelled(cause) => {
                        Some(format!("suspended by cancellation [{cause}]"))
                    }
                    _ => None,
                };
                if charged_stall && entry.attempts > MAX_RESTARTS {
                    entry.transition(JobPhase::Failed)?;
                } else if entry.checkpoint_seq.is_some() {
                    entry.transition(JobPhase::Suspended)?;
                } else {
                    // Cancelled before the very first checkpoint: nothing durable exists
                    // yet, so the job simply returns to the queue (`Running → Pending`
                    // is the journal's restart edge) and starts from scratch later —
                    // bit-identical, since trajectories are pure functions of config.
                    entry.transition(JobPhase::Pending)?;
                }
                Ok(None)
            }
            SegmentResult::Faulted(e) => {
                entry.attempts += 1;
                entry.note = Some(e.to_string());
                if entry.attempts > MAX_RESTARTS {
                    entry.transition(JobPhase::Failed)?;
                } else if entry.checkpoint_seq.is_some() {
                    entry.transition(JobPhase::Suspended)?;
                } else {
                    entry.transition(JobPhase::Pending)?;
                }
                Ok(None)
            }
            SegmentResult::StoreBroken { quarantined } => {
                let note = format!(
                    "no valid checkpoint generation survives ({} quarantined); \
                     restarting from scratch",
                    quarantined.len()
                );
                charge_checkpoint_loss(entry, &note)?;
                self.recovery.quarantined.extend(quarantined);
                Ok(None)
            }
        }
    }

    fn persist_journal(&self) -> Result<()> {
        let json = self.journal.to_json()?;
        self.store.write_durable(JOURNAL_FILE, json.as_bytes())
    }
}

/// Handles total persistent-state loss for one job: since trajectories are
/// deterministic, a from-scratch restart still converges bit-identically, so the loss
/// costs one bounded restart attempt and a demotion to `Pending`. Only *recurring* loss beyond the restart budget — storage that keeps
/// eating checkpoints — quarantines the job.
fn charge_checkpoint_loss(entry: &mut JobEntry, note: &str) -> Result<()> {
    entry.checkpoint_seq = None;
    entry.evaluations = 0;
    entry.attempts += 1;
    entry.note = Some(note.to_string());
    if entry.attempts > MAX_RESTARTS {
        entry.transition(JobPhase::Quarantined)
    } else {
        entry.transition(JobPhase::Pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::testutil::tiny_config;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "parmis-supervisor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn failing_factory_exhausts_restarts_and_fails_the_job() {
        let dir = temp_dir("restarts");
        let mut supervisor = JobSupervisor::open(&dir, SupervisorConfig::default()).unwrap();
        let specs = vec![JobSpec::new("doomed", tiny_config(1, 8))];
        let report = supervisor
            .run(&specs, |_spec| {
                Err(ParmisError::Evaluation {
                    reason: "board unreachable".into(),
                })
            })
            .unwrap();
        let job = report.job("doomed").expect("reported");
        assert_eq!(job.phase, JobPhase::Failed);
        assert_eq!(job.attempts, 3, "initial try + {MAX_RESTARTS} restarts");
        assert_eq!(job.segments, 3);
        assert!(job.note.as_deref().unwrap().contains("board unreachable"));
        assert!(!report.all_done());
        // The terminal phase is durable: a reopened supervisor refuses to reschedule.
        drop(supervisor);
        let mut reopened = JobSupervisor::open(&dir, SupervisorConfig::default()).unwrap();
        assert_eq!(reopened.jobs()[0].phase, JobPhase::Failed);
        let report = reopened
            .run(&specs, |_spec| {
                panic!("Failed jobs must not be rescheduled");
            })
            .unwrap();
        assert_eq!(report.job("doomed").unwrap().segments, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgets_below_the_segment_watchdog_floor_are_rejected() {
        let dir = temp_dir("degenerate-budget");
        let err = JobSupervisor::open(
            &dir,
            SupervisorConfig {
                checkpoint_every: 2,
                segment_wall_ms: 5_000,
                fleet_deadline_ms: 100,
                ..SupervisorConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ParmisError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("fleet_deadline_ms"), "{err}");

        // Disabled budgets (0) and budgets at/above the floor are accepted.
        for fleet_deadline_ms in [0, 5_000] {
            JobSupervisor::open(
                &dir,
                SupervisorConfig {
                    checkpoint_every: 2,
                    segment_wall_ms: 5_000,
                    fleet_deadline_ms,
                    ..SupervisorConfig::default()
                },
            )
            .unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_watchdog_without_cadence_checkpoints_is_rejected() {
        // The watchdog is checked only as a cadence checkpoint is saved, so without one
        // it could never fire.
        let dir = temp_dir("watchdog-no-cadence");
        let err = JobSupervisor::open(
            &dir,
            SupervisorConfig {
                segment_wall_ms: 1,
                checkpoint_every: 0,
                ..SupervisorConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ParmisError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("checkpoint_every"), "{err}");

        // A cadence makes the same watchdog valid.
        JobSupervisor::open(
            &dir,
            SupervisorConfig {
                segment_wall_ms: 1,
                checkpoint_every: 2,
                ..SupervisorConfig::default()
            },
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_job_ids_are_rejected_before_anything_runs() {
        for workers in [1, 2] {
            let dir = temp_dir(&format!("duplicate-ids-{workers}"));
            let config = SupervisorConfig {
                workers,
                ..SupervisorConfig::default()
            };
            let mut supervisor = JobSupervisor::open(&dir, config).unwrap();
            let specs = vec![
                JobSpec::new("twin", tiny_config(1, 8)),
                JobSpec::new("twin", tiny_config(1, 8)),
            ];
            let err = supervisor
                .run(&specs, |_spec| {
                    panic!("a fleet with duplicate ids must not start segments");
                })
                .unwrap_err();
            assert!(matches!(err, ParmisError::InvalidConfig { .. }), "{err}");
            assert!(err.to_string().contains("twin"), "{err}");
            assert!(supervisor.jobs().is_empty(), "workers = {workers}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_pre_tripped_drain_leaves_the_fleet_untouched_and_resumable() {
        let dir = temp_dir("pre-drain");
        let mut supervisor = JobSupervisor::open(&dir, SupervisorConfig::default()).unwrap();
        supervisor.request_drain();
        let specs = vec![JobSpec::new("parked", tiny_config(1, 8))];
        let report = supervisor
            .run(&specs, |_spec| {
                panic!("a drained supervisor must not start segments");
            })
            .unwrap();
        let job = report.job("parked").expect("reported");
        assert_eq!(job.phase, JobPhase::Pending);
        assert_eq!(job.segments, 0);
        assert!(report.any_resumable());
        assert!(!report.all_done());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resubmission_with_a_different_config_is_rejected() {
        let dir = temp_dir("resubmit");
        let mut supervisor = JobSupervisor::open(&dir, SupervisorConfig::default()).unwrap();
        supervisor
            .submit(&JobSpec::new("job", tiny_config(1, 8)))
            .unwrap();
        let err = supervisor
            .submit(&JobSpec::new("job", tiny_config(2, 8)))
            .unwrap_err();
        assert_eq!(
            err.checkpoint_fault(),
            Some(CheckpointFault::Incompatible),
            "got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wave_selection_is_round_robin_and_bounded_by_workers() {
        let dir = temp_dir("waves");
        let mut supervisor = JobSupervisor::open(&dir, SupervisorConfig::default()).unwrap();
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(format!("job-{i}"), tiny_config(i as u64, 8)))
            .collect();
        for spec in &specs {
            supervisor.submit(spec).unwrap();
        }
        assert_eq!(
            supervisor.pick_wave(&specs, 3),
            vec![(0, true), (1, true), (2, true)]
        );
        // The cursor advanced: the next wave starts where the last one stopped.
        assert_eq!(
            supervisor.pick_wave(&specs, 3),
            vec![(3, true), (0, true), (1, true)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
