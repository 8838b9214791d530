//! Durable checkpoint store: atomic persistence, digest-verified loads, corruption
//! quarantine, and bounded generation rotation.
//!
//! Every artifact the job layer persists — search checkpoints and the job journal —
//! goes through [`atomic_write`]: write to a same-directory temp file, `fsync` the file,
//! `rename` over the target, then `fsync` the directory. A crash at any point leaves
//! either the previous generation or the new one on disk, never a torn file.
//!
//! Checkpoints are stored one file per generation (`<job>.g<seq>.ckpt.json`), so a
//! corrupt newest generation never costs the job its history: [`CheckpointStore::load_latest`]
//! walks generations newest-first, moves every file that fails
//! [`SearchState::from_json`] verification into the `quarantine/` subdirectory (with a
//! `.reason.txt` side-car naming the [`CheckpointFault`]) and falls back to the newest
//! valid predecessor. Superseded generations beyond the configured keep-depth are
//! garbage-collected after each successful save.

use crate::checkpoint::SearchState;
use crate::error::CheckpointFault;
use crate::{ParmisError, Result};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Name of the quarantine subdirectory inside a store root.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Suffix of checkpoint files inside a store root.
pub const CHECKPOINT_SUFFIX: &str = ".ckpt.json";

fn io_err(context: impl std::fmt::Display, path: &Path, e: &std::io::Error) -> ParmisError {
    ParmisError::checkpoint(
        CheckpointFault::Io,
        format!("{context} `{}`: {e}", path.display()),
    )
}

/// Where in the atomic-write protocol a [`CrashPlan`] drill aborts the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStage {
    /// Abort after the temp file is written and synced but before the rename: the target
    /// still holds the previous generation and a stray `.tmp` file is left behind
    /// (a torn, mid-checkpoint-write crash).
    BeforeRename,
    /// Abort after the rename commits: the new generation is durable but whatever
    /// bookkeeping was supposed to follow never happens.
    AfterRename,
}

/// Crash drill for recovery tests: abort the process (via [`std::process::abort`]) during
/// the N-th durable write issued through this store, at the chosen protocol stage.
///
/// This is how the soak harness kills a supervisor at a deterministic-but-arbitrary
/// point, including mid-checkpoint-write; production stores carry no plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// 1-based index of the durable write to crash in.
    pub on_write: u64,
    /// Protocol stage at which to abort.
    pub stage: CrashStage,
}

/// Writes `bytes` to `path` atomically and durably: temp file in the same directory,
/// `fsync`, `rename`, directory `fsync`. A crash at any point leaves either the old
/// file or the new one, never a torn mix.
///
/// # Errors
///
/// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Io`] if any filesystem
/// step fails.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    atomic_write_staged(path, bytes, None)
}

fn atomic_write_staged(path: &Path, bytes: &[u8], crash: Option<CrashStage>) -> Result<()> {
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        ParmisError::checkpoint(
            CheckpointFault::Io,
            format!("atomic write target has no file name: `{}`", path.display()),
        )
    })?;
    let tmp = dir.join(format!("{file_name}.tmp"));
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create temp file", &tmp, &e))?;
        f.write_all(bytes)
            .map_err(|e| io_err("write temp file", &tmp, &e))?;
        f.sync_all()
            .map_err(|e| io_err("sync temp file", &tmp, &e))?;
    }
    if crash == Some(CrashStage::BeforeRename) {
        std::process::abort();
    }
    fs::rename(&tmp, path).map_err(|e| io_err("commit rename to", path, &e))?;
    // Make the rename itself durable: sync the containing directory.
    if let Ok(d) = fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    if crash == Some(CrashStage::AfterRename) {
        std::process::abort();
    }
    Ok(())
}

/// One generation that failed verification during a load and was quarantined.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEvent {
    /// File name (inside the store root) that was moved to quarantine.
    pub file: String,
    /// The verification fault that condemned it.
    pub fault: CheckpointFault,
    /// Human-readable detail recorded in the `.reason.txt` side-car.
    pub reason: String,
}

/// Result of [`CheckpointStore::load_latest`]: the newest generation that passed full
/// verification (if any survived) plus the quarantine events produced on the way there.
#[derive(Debug)]
pub struct LoadOutcome {
    /// `(sequence, state)` of the newest valid generation, or `None` if every
    /// generation of the job was corrupt (all are now quarantined).
    pub state: Option<(u64, SearchState)>,
    /// Generations quarantined during this load, newest first.
    pub quarantined: Vec<QuarantineEvent>,
}

/// A directory of durable, digest-verified search checkpoints.
///
/// Layout (all writes atomic):
///
/// ```text
/// <root>/
///   journal.json                   # job table (owned by the supervisor)
///   <job>.g<seq>.ckpt.json         # checkpoint generations, seq strictly increasing
///   quarantine/
///     <file>                       # corrupt artifacts, moved aside verbatim
///     <file>.reason.txt            # fault class + detail
///     <file>.1, <file>.1.reason.txt  # a later artifact of the same name, and so on
/// ```
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    keep: usize,
    crash: Option<CrashPlan>,
    writes: AtomicU64,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `root`, keeping at most `keep`
    /// generations per job (`keep` is clamped to ≥ 1). Stray `.tmp` files from an
    /// interrupted atomic write are swept on open — they were never committed and carry
    /// no information the protocol relies on.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Io`] if the directory
    /// tree cannot be created or scanned.
    pub fn open(root: impl Into<PathBuf>, keep: usize) -> Result<CheckpointStore> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("create store root", &root, &e))?;
        let quarantine = root.join(QUARANTINE_DIR);
        fs::create_dir_all(&quarantine)
            .map_err(|e| io_err("create quarantine dir", &quarantine, &e))?;
        let store = CheckpointStore {
            root,
            keep: keep.max(1),
            crash: None,
            writes: AtomicU64::new(0),
        };
        store.sweep_temps()?;
        Ok(store)
    }

    /// Arms a [`CrashPlan`] drill on this store (test/soak harness only).
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> CheckpointStore {
        self.crash = Some(plan);
        self
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine subdirectory.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// Number of durable writes issued through this store so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Writes `bytes` to `<root>/<file>` through the atomic protocol, honoring an armed
    /// crash drill. Used for both checkpoints and the job journal so a drill can hit
    /// either artifact class.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Io`] on any
    /// filesystem failure.
    pub fn write_durable(&self, file: &str, bytes: &[u8]) -> Result<()> {
        let n = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        let crash = self
            .crash
            .filter(|plan| plan.on_write == n)
            .map(|plan| plan.stage);
        atomic_write_staged(&self.root.join(file), bytes, crash)
    }

    /// Persists `state` as the next generation of `job` and garbage-collects
    /// generations beyond the keep-depth. Returns the new sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`]: [`CheckpointFault::Serialize`] if the state
    /// cannot be serialized, [`CheckpointFault::Io`] on filesystem failure,
    /// [`CheckpointFault::Invariant`] for an invalid job id.
    pub fn save(&self, job: &str, state: &SearchState) -> Result<u64> {
        validate_job_id(job)?;
        let json = state.to_json()?;
        let seq = self
            .generations(job)?
            .last()
            .map(|&(seq, _)| seq + 1)
            .unwrap_or(1);
        self.write_durable(&checkpoint_file(job, seq), json.as_bytes())?;
        self.gc(job)?;
        Ok(seq)
    }

    /// All on-disk generations of `job`, sorted by ascending sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Io`] if the root
    /// cannot be scanned.
    pub fn generations(&self, job: &str) -> Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in self.read_root()? {
            if let Some((owner, seq)) = parse_checkpoint_file(&entry) {
                if owner == job {
                    out.push((seq, self.root.join(&entry)));
                }
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(out)
    }

    /// Job ids that have at least one on-disk generation (sorted; used to rebuild a lost
    /// journal from the checkpoint files alone).
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Io`] if the root
    /// cannot be scanned.
    pub fn jobs_on_disk(&self) -> Result<Vec<String>> {
        let mut jobs: Vec<String> = self
            .read_root()?
            .into_iter()
            .filter_map(|name| parse_checkpoint_file(&name).map(|(job, _)| job))
            .collect();
        jobs.sort_unstable();
        jobs.dedup();
        Ok(jobs)
    }

    /// Loads the newest generation of `job` that passes full verification (format
    /// version, content checks, state digest). Every newer generation that fails is
    /// moved to quarantine with a reason side-car; the walk continues to the newest
    /// valid predecessor.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Io`] only for
    /// filesystem failures — corruption is never an error here, it is a quarantine
    /// event recorded in the returned [`LoadOutcome`].
    pub fn load_latest(&self, job: &str) -> Result<LoadOutcome> {
        let mut generations = self.generations(job)?;
        generations.reverse();
        let mut quarantined = Vec::new();
        for (seq, path) in generations {
            let parsed = fs::read_to_string(&path)
                .map_err(|e| io_err("read checkpoint", &path, &e))
                .and_then(|text| SearchState::from_json(&text));
            match parsed {
                Ok(state) => {
                    return Ok(LoadOutcome {
                        state: Some((seq, state)),
                        quarantined,
                    })
                }
                Err(e) => {
                    let fault = e.checkpoint_fault().unwrap_or(CheckpointFault::Invariant);
                    let reason = e.to_string();
                    self.quarantine(&path, &reason)?;
                    quarantined.push(QuarantineEvent {
                        file: file_name_of(&path),
                        fault,
                        reason,
                    });
                }
            }
        }
        Ok(LoadOutcome {
            state: None,
            quarantined,
        })
    }

    /// Moves the artifact at `path` (inside the store root) into `quarantine/` and
    /// writes a `.reason.txt` side-car describing why. Names repeat (once the newest
    /// generation is quarantined, the next save reuses its number; the journal always has
    /// one name), so an artifact whose name is already taken goes to the first free
    /// `<name>.<n>`: earlier evidence is never overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Io`] if the move
    /// fails.
    pub fn quarantine(&self, path: &Path, reason: &str) -> Result<()> {
        let dir = self.quarantine_dir();
        let base = file_name_of(path);
        let mut name = base.clone();
        let mut n = 0;
        while dir.join(&name).exists() {
            n += 1;
            name = format!("{base}.{n}");
        }
        fs::rename(path, dir.join(&name)).map_err(|e| io_err("quarantine", path, &e))?;
        let sidecar = dir.join(format!("{name}.reason.txt"));
        // Best-effort side-car: losing the reason must not fail the recovery path.
        let _ = fs::write(&sidecar, reason.as_bytes());
        Ok(())
    }

    /// Names of quarantined artifacts (side-cars excluded), sorted.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Io`] if the
    /// quarantine directory cannot be scanned.
    pub fn quarantined_files(&self) -> Result<Vec<String>> {
        let dir = self.quarantine_dir();
        let mut out = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("scan quarantine", &dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("scan quarantine", &dir, &e))?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.ends_with(".reason.txt") {
                    out.push(name.to_string());
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn gc(&self, job: &str) -> Result<()> {
        let generations = self.generations(job)?;
        if generations.len() <= self.keep {
            return Ok(());
        }
        let excess = generations.len() - self.keep;
        for (_, path) in &generations[..excess] {
            fs::remove_file(path).map_err(|e| io_err("gc checkpoint", path, &e))?;
        }
        Ok(())
    }

    fn sweep_temps(&self) -> Result<()> {
        for name in self.read_root()? {
            if name.ends_with(".tmp") {
                let path = self.root.join(&name);
                fs::remove_file(&path).map_err(|e| io_err("sweep temp file", &path, &e))?;
            }
        }
        Ok(())
    }

    fn read_root(&self) -> Result<Vec<String>> {
        let entries =
            fs::read_dir(&self.root).map_err(|e| io_err("scan store root", &self.root, &e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("scan store root", &self.root, &e))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }
}

/// Validates a job id for use in checkpoint file names: non-empty, ASCII alphanumeric
/// plus `-` and `_`.
///
/// # Errors
///
/// Returns [`ParmisError::Checkpoint`] with [`CheckpointFault::Invariant`] otherwise.
pub fn validate_job_id(job: &str) -> Result<()> {
    let ok = !job.is_empty()
        && job.len() <= 64
        && job
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if ok {
        Ok(())
    } else {
        Err(ParmisError::checkpoint(
            CheckpointFault::Invariant,
            format!("invalid job id `{job}`: use 1-64 ASCII alphanumeric/`-`/`_` characters"),
        ))
    }
}

fn checkpoint_file(job: &str, seq: u64) -> String {
    format!("{job}.g{seq:08}{CHECKPOINT_SUFFIX}")
}

fn parse_checkpoint_file(name: &str) -> Option<(String, u64)> {
    let stem = name.strip_suffix(CHECKPOINT_SUFFIX)?;
    let (job, seq) = stem.rsplit_once(".g")?;
    let seq: u64 = seq.parse().ok()?;
    if job.is_empty() {
        return None;
    }
    Some((job.to_string(), seq))
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "parmis-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_file_names_round_trip() {
        let name = checkpoint_file("fleet-3_a", 42);
        assert_eq!(name, "fleet-3_a.g00000042.ckpt.json");
        assert_eq!(
            parse_checkpoint_file(&name),
            Some(("fleet-3_a".to_string(), 42))
        );
        assert_eq!(parse_checkpoint_file("journal.json"), None);
        assert_eq!(parse_checkpoint_file(".g01.ckpt.json"), None);
        assert_eq!(parse_checkpoint_file("a.gX.ckpt.json"), None);
    }

    #[test]
    fn job_id_validation() {
        assert!(validate_job_id("job-1_B").is_ok());
        for bad in ["", "a/b", "a.b", "a b", &"x".repeat(65)] {
            let err = validate_job_id(bad).unwrap_err();
            assert_eq!(err.checkpoint_fault(), Some(CheckpointFault::Invariant));
        }
    }

    #[test]
    fn atomic_write_replaces_and_sweeps() {
        let dir = temp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("data.json");
        atomic_write(&target, b"one").unwrap();
        atomic_write(&target, b"two").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"two");
        // A stray temp file (torn write) is swept on store open.
        fs::write(dir.join("data.json.tmp"), b"torn").unwrap();
        let store = CheckpointStore::open(&dir, 2).unwrap();
        assert!(!dir.join("data.json.tmp").exists());
        assert_eq!(store.writes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_newest_generations() {
        let dir = temp_dir("gc");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        let state = crate::jobs::testutil::tiny_state(7);
        for _ in 0..4 {
            store.save("job", &state).unwrap();
        }
        let generations = store.generations("job").unwrap();
        let seqs: Vec<u64> = generations.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_quarantines_corrupt_and_falls_back() {
        let dir = temp_dir("fallback");
        let store = CheckpointStore::open(&dir, 4).unwrap();
        let state = crate::jobs::testutil::tiny_state(11);
        store.save("job", &state).unwrap();
        let seq2 = store.save("job", &state).unwrap();
        // Corrupt the newest generation in place (truncation).
        let newest = store.generations("job").unwrap().pop().unwrap().1;
        let text = fs::read_to_string(&newest).unwrap();
        fs::write(&newest, &text[..text.len() / 2]).unwrap();
        let outcome = store.load_latest("job").unwrap();
        let (seq, loaded) = outcome.state.expect("older generation survives");
        assert_eq!(seq, seq2 - 1);
        assert_eq!(loaded, state);
        assert_eq!(outcome.quarantined.len(), 1);
        assert_eq!(outcome.quarantined[0].fault, CheckpointFault::Parse);
        let quarantined = store.quarantined_files().unwrap();
        assert_eq!(quarantined.len(), 1);
        assert!(quarantined[0].contains(".g"));
        // The reason side-car names the fault.
        let sidecar = store
            .quarantine_dir()
            .join(format!("{}.reason.txt", quarantined[0]));
        let reason = fs::read_to_string(sidecar).unwrap();
        assert!(reason.contains("[parse]"), "side-car was: {reason}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_quarantine_of_one_name_keeps_every_artifact_and_reason() {
        let dir = temp_dir("requarantine");
        let store = CheckpointStore::open(&dir, 4).unwrap();
        let state = crate::jobs::testutil::tiny_state(5);
        // Twice: generations 1-3 saved, the newest (3) corrupted and quarantined by the
        // load. The next save numbers from the newest survivor, so it is 3 again.
        let mut quarantined_names = Vec::new();
        for round in 0..2 {
            while store.generations("job").unwrap().len() < 3 {
                store.save("job", &state).unwrap();
            }
            let (seq, newest) = store.generations("job").unwrap().pop().unwrap();
            assert_eq!(seq, 3);
            fs::write(&newest, format!("{{torn write {round}")).unwrap();
            let outcome = store.load_latest("job").unwrap();
            assert_eq!(outcome.state.expect("older generations survive").0, 2);
            quarantined_names.push(outcome.quarantined[0].file.clone());
        }
        assert_eq!(quarantined_names[0], quarantined_names[1]);
        let files = store.quarantined_files().unwrap();
        assert_eq!(files.len(), 2, "{files:?}");
        for (file, round) in files.iter().zip(0..) {
            let artifact = fs::read_to_string(store.quarantine_dir().join(file)).unwrap();
            assert_eq!(artifact, format!("{{torn write {round}"));
            let sidecar = store.quarantine_dir().join(format!("{file}.reason.txt"));
            assert!(fs::read_to_string(sidecar).unwrap().contains("[parse]"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_with_no_survivor_reports_none() {
        let dir = temp_dir("nosurvivor");
        let store = CheckpointStore::open(&dir, 4).unwrap();
        let state = crate::jobs::testutil::tiny_state(3);
        store.save("job", &state).unwrap();
        for (_, path) in store.generations("job").unwrap() {
            fs::write(path, b"{not json").unwrap();
        }
        let outcome = store.load_latest("job").unwrap();
        assert!(outcome.state.is_none());
        assert_eq!(outcome.quarantined.len(), 1);
        assert!(store.generations("job").unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
