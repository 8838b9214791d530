//! The journaled job table: every supervised search is one [`JobEntry`] in a
//! digest-verified document persisted through the store's atomic writer.
//!
//! The journal is the supervisor's single source of truth across crashes. Every phase
//! transition is validated against the job state machine before it is recorded:
//!
//! ```text
//! Pending ──► Running ──► Done
//!    ▲           │ ▲────► Failed
//!    │           │ │────► Quarantined
//!    │           ▼ │
//!    └─────── Suspended
//! ```
//!
//! (`Running → Pending` and `Suspended → Pending` are the restart edges: a segment that
//! faults before any checkpoint exists — or a job whose every checkpoint generation was
//! quarantined as corrupt — restarts from scratch, charging the bounded restart budget.
//! Because trajectories are deterministic, a from-scratch restart still converges to
//! the bit-identical outcome. On recovery, jobs found `Running` — the marker of a crash
//! mid-segment — are demoted to `Suspended` or `Pending` depending on whether a valid
//! checkpoint survives; `Quarantined` is reserved for persistent-state loss that
//! recurs beyond the restart budget.)

use crate::checkpoint::{fold, fold_str, TRACE_HASH_SEED};
use crate::error::CheckpointFault;
use crate::{ParmisError, Result};
use serde::{Deserialize, Serialize};

/// Journal document layout version. A journal of another version fails verification, so
/// the supervisor quarantines it and rebuilds the job table from the checkpoints.
pub const JOURNAL_FORMAT_VERSION: u32 = 3;

/// File name of the journal inside a store root.
pub const JOURNAL_FILE: &str = "journal.json";

/// Lifecycle phase of a supervised job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Submitted, no checkpoint on disk yet.
    Pending,
    /// A segment is (or was, if the process crashed) executing.
    Running,
    /// Suspended at a checkpoint boundary; resumable.
    Suspended,
    /// Completed; `outcome_digest` records the final fronts and trace chain.
    Done,
    /// Restart budget exhausted; terminal.
    Failed,
    /// Persistent state unrecoverable (every generation corrupt); terminal.
    Quarantined,
}

impl JobPhase {
    /// Stable lower-case name (used in displays, reports and file artifacts).
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Pending => "pending",
            JobPhase::Running => "running",
            JobPhase::Suspended => "suspended",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Quarantined => "quarantined",
        }
    }

    /// Whether the phase is terminal (the scheduler never picks the job again).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed | JobPhase::Quarantined
        )
    }

    /// Whether the scheduler may start a segment for a job in this phase.
    pub fn is_runnable(self) -> bool {
        matches!(self, JobPhase::Pending | JobPhase::Suspended)
    }

    fn ordinal(self) -> u64 {
        match self {
            JobPhase::Pending => 0,
            JobPhase::Running => 1,
            JobPhase::Suspended => 2,
            JobPhase::Done => 3,
            JobPhase::Failed => 4,
            JobPhase::Quarantined => 5,
        }
    }
}

impl std::fmt::Display for JobPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether `from → to` is a legal job state-machine edge.
pub fn can_transition(from: JobPhase, to: JobPhase) -> bool {
    use JobPhase::*;
    matches!(
        (from, to),
        (Pending, Running)
            | (Suspended, Running)
            | (Running, Suspended)
            | (Running, Pending)
            | (Running, Done)
            | (Running, Failed)
            | (Running, Quarantined)
            | (Suspended, Pending)
            | (Suspended, Quarantined)
            | (Pending, Quarantined)
    )
}

/// One supervised job in the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEntry {
    /// Job id (checkpoint file prefix; see [`super::store::validate_job_id`]).
    pub id: String,
    /// Current lifecycle phase.
    pub phase: JobPhase,
    /// Digest of the job's trajectory-affecting configuration
    /// ([`crate::checkpoint::config_digest`]); resubmission with a different
    /// configuration is rejected.
    pub config_digest: u64,
    /// Segments started so far (including crashed ones).
    pub segments: usize,
    /// Evaluations captured in the newest checkpoint (final count once `Done`).
    pub evaluations: usize,
    /// Restart attempts consumed since the last successful segment.
    pub attempts: usize,
    /// Sequence number of the newest durable checkpoint, if any.
    pub checkpoint_seq: Option<u64>,
    /// Digest of the final outcome (fronts + trace chain), set when `Done`. Two
    /// processes that finish the same job must record the same digest — this is the
    /// cross-crash bit-identity receipt.
    pub outcome_digest: Option<u64>,
    /// Last failure/suspension/quarantine detail, for operators.
    pub note: Option<String>,
}

impl JobEntry {
    /// A fresh `Pending` entry for `id` with the given configuration digest.
    pub fn pending(id: impl Into<String>, config_digest: u64) -> JobEntry {
        JobEntry {
            id: id.into(),
            phase: JobPhase::Pending,
            config_digest,
            segments: 0,
            evaluations: 0,
            attempts: 0,
            checkpoint_seq: None,
            outcome_digest: None,
            note: None,
        }
    }

    /// Validated phase transition.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Invariant`] for an
    /// illegal edge.
    pub fn transition(&mut self, to: JobPhase) -> Result<()> {
        if !can_transition(self.phase, to) {
            return Err(ParmisError::checkpoint(
                CheckpointFault::Invariant,
                format!(
                    "illegal job transition {} -> {} for `{}`",
                    self.phase, to, self.id
                ),
            ));
        }
        self.phase = to;
        Ok(())
    }

    fn fold_into(&self, mut h: u64) -> u64 {
        h = fold_str(h, &self.id);
        h = fold(h, self.phase.ordinal());
        h = fold(h, self.config_digest);
        h = fold(h, self.segments as u64);
        h = fold(h, self.evaluations as u64);
        h = fold(h, self.attempts as u64);
        h = fold(h, self.checkpoint_seq.map(|s| s + 1).unwrap_or(0));
        h = fold(h, self.outcome_digest.unwrap_or(0));
        if let Some(note) = &self.note {
            h = fold_str(h, note);
        }
        h
    }

    fn verify(&self) -> Result<()> {
        let invariant = |reason: String| {
            Err(ParmisError::checkpoint(
                CheckpointFault::Invariant,
                format!("journal entry `{}`: {reason}", self.id),
            ))
        };
        super::store::validate_job_id(&self.id)?;
        if self.phase == JobPhase::Done && self.outcome_digest.is_none() {
            return invariant("Done without an outcome digest".into());
        }
        if self.phase == JobPhase::Suspended && self.checkpoint_seq.is_none() {
            return invariant("Suspended without a checkpoint".into());
        }
        if self.phase == JobPhase::Quarantined && self.note.is_none() {
            return invariant("Quarantined without a reason note".into());
        }
        Ok(())
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct JournalDoc {
    format_version: u32,
    entries: Vec<JobEntry>,
    digest: u64,
}

/// The in-memory job table, (de)serialized as a digest-verified document.
#[derive(Debug, Default)]
pub struct JobJournal {
    entries: Vec<JobEntry>,
}

impl JobJournal {
    /// An empty journal.
    pub fn new() -> JobJournal {
        JobJournal::default()
    }

    /// All entries, in submission order.
    pub fn entries(&self) -> &[JobEntry] {
        &self.entries
    }

    /// The entry for `id`, if present.
    pub fn get(&self, id: &str) -> Option<&JobEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Mutable access to the entry for `id`, if present.
    pub fn get_mut(&mut self, id: &str) -> Option<&mut JobEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Appends a new entry.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Invariant`] if the
    /// id collides with an existing entry or the entry violates its own invariants.
    pub fn insert(&mut self, entry: JobEntry) -> Result<()> {
        entry.verify()?;
        if self.get(&entry.id).is_some() {
            return Err(ParmisError::checkpoint(
                CheckpointFault::Invariant,
                format!("duplicate journal entry `{}`", entry.id),
            ));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Serializes the journal as pretty-printed JSON with an embedded content digest.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Serialize`] if
    /// serialization fails.
    pub fn to_json(&self) -> Result<String> {
        let doc = JournalDoc {
            format_version: JOURNAL_FORMAT_VERSION,
            entries: self.entries.clone(),
            digest: digest_entries(&self.entries),
        };
        serde_json::to_string_pretty(&doc).map_err(|e| {
            ParmisError::checkpoint(
                CheckpointFault::Serialize,
                format!("journal serialization failed: {e}"),
            )
        })
    }

    /// Parses and fully verifies a journal document: format version, content digest,
    /// per-entry invariants, id uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with the distinct fault class of whichever
    /// verification failed ([`CheckpointFault::Parse`] / [`VersionMismatch`] /
    /// [`DigestMismatch`] / [`Invariant`]).
    ///
    /// [`VersionMismatch`]: CheckpointFault::VersionMismatch
    /// [`DigestMismatch`]: CheckpointFault::DigestMismatch
    /// [`Invariant`]: CheckpointFault::Invariant
    pub fn from_json(text: &str) -> Result<JobJournal> {
        let doc: JournalDoc = serde_json::from_str(text).map_err(|e| {
            ParmisError::checkpoint(CheckpointFault::Parse, format!("journal parse failed: {e}"))
        })?;
        if doc.format_version != JOURNAL_FORMAT_VERSION {
            return Err(ParmisError::checkpoint(
                CheckpointFault::VersionMismatch,
                format!(
                    "journal format version {} is not supported (expected {})",
                    doc.format_version, JOURNAL_FORMAT_VERSION
                ),
            ));
        }
        let recomputed = digest_entries(&doc.entries);
        if recomputed != doc.digest {
            return Err(ParmisError::checkpoint(
                CheckpointFault::DigestMismatch,
                format!(
                    "journal digest mismatch: recorded {:#018x}, recomputed {:#018x}",
                    doc.digest, recomputed
                ),
            ));
        }
        let mut journal = JobJournal::new();
        for entry in doc.entries {
            journal.insert(entry)?;
        }
        Ok(journal)
    }
}

fn digest_entries(entries: &[JobEntry]) -> u64 {
    let mut h = fold(TRACE_HASH_SEED, u64::from(JOURNAL_FORMAT_VERSION));
    h = fold(h, entries.len() as u64);
    for entry in entries {
        h = entry.fold_into(h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> JobJournal {
        let mut journal = JobJournal::new();
        let mut a = JobEntry::pending("alpha", 11);
        a.transition(JobPhase::Running).unwrap();
        a.segments = 1;
        a.transition(JobPhase::Suspended).unwrap();
        a.checkpoint_seq = Some(1);
        a.evaluations = 9;
        journal.insert(a).unwrap();
        journal.insert(JobEntry::pending("beta", 22)).unwrap();
        journal
    }

    #[test]
    fn state_machine_edges() {
        use JobPhase::*;
        assert!(can_transition(Pending, Running));
        assert!(can_transition(Running, Suspended));
        assert!(can_transition(Running, Pending));
        assert!(can_transition(Suspended, Running));
        assert!(can_transition(Running, Done));
        assert!(
            can_transition(Suspended, Pending),
            "checkpoint-loss restart"
        );
        assert!(!can_transition(Done, Running));
        assert!(!can_transition(Failed, Running));
        assert!(!can_transition(Pending, Done));
        assert!(!can_transition(Quarantined, Running));
        let mut done = JobEntry::pending("x", 0);
        done.transition(JobPhase::Running).unwrap();
        done.outcome_digest = Some(1);
        done.transition(JobPhase::Done).unwrap();
        let err = done.transition(JobPhase::Running).unwrap_err();
        assert_eq!(err.checkpoint_fault(), Some(CheckpointFault::Invariant));
    }

    #[test]
    fn journal_round_trips_with_digest() {
        let journal = sample_journal();
        let json = journal.to_json().unwrap();
        let reloaded = JobJournal::from_json(&json).unwrap();
        assert_eq!(reloaded.entries(), journal.entries());
    }

    #[test]
    fn journal_rejects_tampering_with_distinct_faults() {
        let journal = sample_journal();
        let json = journal.to_json().unwrap();

        let err = JobJournal::from_json(&json[..json.len() / 2]).unwrap_err();
        assert_eq!(err.checkpoint_fault(), Some(CheckpointFault::Parse));

        let bumped = json.replace(
            &format!("\"format_version\": {JOURNAL_FORMAT_VERSION}"),
            "\"format_version\": 9",
        );
        assert_ne!(bumped, json);
        let err = JobJournal::from_json(&bumped).unwrap_err();
        assert_eq!(
            err.checkpoint_fault(),
            Some(CheckpointFault::VersionMismatch)
        );

        let tampered = json.replace("\"evaluations\": 9", "\"evaluations\": 10");
        assert_ne!(tampered, json);
        let err = JobJournal::from_json(&tampered).unwrap_err();
        assert_eq!(
            err.checkpoint_fault(),
            Some(CheckpointFault::DigestMismatch)
        );
    }

    #[test]
    fn journal_rejects_invalid_entries() {
        let mut journal = JobJournal::new();
        journal.insert(JobEntry::pending("dup", 1)).unwrap();
        let err = journal.insert(JobEntry::pending("dup", 1)).unwrap_err();
        assert_eq!(err.checkpoint_fault(), Some(CheckpointFault::Invariant));

        let mut bad = JobEntry::pending("needs-ckpt", 1);
        bad.phase = JobPhase::Suspended;
        let err = journal.insert(bad).unwrap_err();
        assert_eq!(err.checkpoint_fault(), Some(CheckpointFault::Invariant));
        assert!(err.to_string().contains("Suspended without a checkpoint"));
    }
}
