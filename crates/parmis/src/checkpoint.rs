//! Checkpoint/resume state and the trace-hash audit for the resumable search runtime.
//!
//! A long-budget PaRMIS run can be interrupted (fuel exhaustion, a crash, a CI timeout) and
//! continued later **bit-identically**: everything the trajectory depends on is captured in
//! a [`SearchState`] — the observation history, the Pareto archive, the PHV trace, the RNG
//! cursor and the round structure — while the expensive derived quantities (GP Cholesky
//! factors, acquisition scratch) are deliberately excluded and recomputed on load by
//! replaying the exact model-fitting call sequence. A resumed run therefore produces the
//! same [`ParmisOutcome`](crate::framework::ParmisOutcome) as an uninterrupted one, down to
//! the last bit.
//!
//! # Trace hashes
//!
//! Every evaluation appends one link to an FNV-1a-style **hash chain**
//! ([`record_hash`] / [`hash_chain`]): the previous link folded with the record's iteration
//! index, its candidate θ, its observed objective vector, its acquisition value and the RNG
//! cursor at the time the record was appended. The chain is recorded in the checkpoint and
//! in the final outcome, and re-verified on resume — a resumed or replayed run proves
//! bit-identity to the uninterrupted trajectory by producing the same hash sequence, in the
//! style of a deterministic scheduler's replay checks.
//!
//! # Format and versioning
//!
//! Checkpoints serialize through the vendored serde stack as a flat JSON object
//! ([`SearchState::to_json`] / [`SearchState::from_json`]). The layout is guarded by
//! [`FORMAT_VERSION`]; two digests make stale or tampered files fail loudly instead of
//! resuming into a silently divergent trajectory:
//!
//! * `config_digest` — a fold over every **trajectory-affecting** configuration field
//!   (budgets, sampling/acquisition knobs, kernel family, seed, batch size). The one
//!   scheduling knob, `num_workers`, is excluded, and segmentation (fuel, checkpoint
//!   cadence) is not configuration at all, so a run suspended under a small fuel budget
//!   can be resumed under a different one, on any worker count.
//! * `state_digest` — a fold over the state itself (front snapshot, PHV trace, RNG words,
//!   round structure, chain head), recomputed and compared on load.

use crate::framework::{IterationRecord, ParmisConfig};
use crate::objective::Objective;
use crate::{ParmisError, Result};
use fastmath::Precision;
use gp::kernel::KernelFamily;
use moo::ParetoFront;
use serde::{Deserialize, Serialize};

/// Version stamp of the checkpoint JSON layout. Bump on any incompatible change.
pub const FORMAT_VERSION: u32 = 1;

/// FNV-1a 64-bit offset basis: the head of every trace-hash chain.
pub const TRACE_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a-style fold step: mixes a 64-bit word into a running hash.
#[inline]
pub fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Folds an `f64` by its exact bit pattern (so the hash is sensitive to the last ULP).
#[inline]
pub fn fold_f64(hash: u64, value: f64) -> u64 {
    fold(hash, value.to_bits())
}

pub(crate) fn fold_str(hash: u64, text: &str) -> u64 {
    let mut h = fold(hash, text.len() as u64);
    for b in text.bytes() {
        h = fold(h, u64::from(b));
    }
    h
}

/// The hash-chain link appended for one evaluation: the previous link folded with the
/// record's fields (candidate, objectives, acquisition value) and the RNG cursor at the
/// time the record was appended.
pub fn record_hash(previous: u64, record: &IterationRecord, rng_state: &[u64; 4]) -> u64 {
    let mut h = fold(previous, record.iteration as u64);
    h = fold(h, record.theta.len() as u64);
    for &x in &record.theta {
        h = fold_f64(h, x);
    }
    h = fold(h, record.objectives.len() as u64);
    for &x in &record.objectives {
        h = fold_f64(h, x);
    }
    match record.acquisition_value {
        Some(a) => {
            h = fold(h, 1);
            h = fold_f64(h, a);
        }
        None => h = fold(h, 0),
    }
    for &w in rng_state {
        h = fold(h, w);
    }
    h
}

/// The full per-iteration trace-hash chain of a history, given the RNG cursor.
///
/// The main RNG is consumed only while drawing the initial design, which completes
/// atomically before the first record is appended — so a single cursor value covers every
/// link of the chain.
pub fn hash_chain(history: &[IterationRecord], rng_state: &[u64; 4]) -> Vec<u64> {
    let mut hashes = Vec::with_capacity(history.len());
    let mut prev = TRACE_HASH_SEED;
    for record in history {
        prev = record_hash(prev, record, rng_state);
        hashes.push(prev);
    }
    hashes
}

/// Digest over every trajectory-affecting field of a [`ParmisConfig`].
///
/// The scheduling knob `num_workers` is excluded: it changes wall-clock behavior, never the
/// trajectory. Every stored checkpoint carries this digest and resume refuses a mismatch,
/// so the fold order and the folded fields are part of the on-disk format.
/// The precision tier *is* trajectory-affecting, but is folded in only when it differs
/// from the default [`Precision::SeedExact`] so digests of pre-precision checkpoints stay
/// valid.
pub fn config_digest(config: &ParmisConfig) -> u64 {
    let mut h = fold(TRACE_HASH_SEED, config.max_iterations as u64);
    h = fold(h, config.initial_samples as u64);
    h = fold(h, config.num_pareto_samples as u64);
    h = fold(h, config.sampling.rff_features as u64);
    h = fold(h, config.sampling.nsga_population as u64);
    h = fold(h, config.sampling.nsga_generations as u64);
    h = fold(h, config.acquisition.random_candidates as u64);
    h = fold(h, config.acquisition.local_candidates as u64);
    h = fold_f64(h, config.acquisition.local_perturbation);
    h = fold(
        h,
        match config.kernel_family {
            KernelFamily::SquaredExponential => 0,
            KernelFamily::Matern52 => 1,
        },
    );
    h = fold(h, config.refit_hyperparameters_every as u64);
    h = fold(h, config.convergence_window as u64);
    h = fold(h, config.seed);
    h = fold(h, config.batch_size as u64);
    if config.precision != Precision::SeedExact {
        h = fold_str(h, config.precision.name());
    }
    h
}

/// A serializable snapshot of a suspended PaRMIS search, taken at an iteration boundary.
///
/// Holds everything [`Parmis::segment`](crate::framework::Parmis::segment) needs to continue
/// bit-identically; GP factors and solver scratch are recomputed on load. Serialize with
/// [`to_json`](Self::to_json), reload with [`from_json`](Self::from_json) (which verifies
/// the format version, both digests and the full trace-hash chain).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchState {
    /// Checkpoint layout version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Digest of the trajectory-affecting configuration fields ([`config_digest`]).
    pub config_digest: u64,
    /// The design objectives, in evaluator order.
    pub objectives: Vec<Objective>,
    /// The iteration the resumed run continues from (`== history.len()`).
    pub next_iteration: usize,
    /// The xoshiro256++ state words of the main RNG at suspension.
    pub rng_state: Vec<u64>,
    /// Consecutive front-stale iterations (early-stopping counter).
    pub stale_iterations: usize,
    /// Every evaluation performed so far, in order.
    pub history: Vec<IterationRecord>,
    /// Objective vectors of the Pareto archive at suspension (audit snapshot; the archive
    /// is rebuilt from `history` on resume and verified against this).
    pub front_objectives: Vec<Vec<f64>>,
    /// Parameter vectors (tags) of the Pareto archive, aligned with `front_objectives`.
    pub front_tags: Vec<Vec<f64>>,
    /// PHV trajectory of the history so far, against the provisional reference point of
    /// this prefix (informational; the final outcome recomputes the trajectory against the
    /// full-history reference exactly like an uninterrupted run).
    pub phv_trace: Vec<f64>,
    /// Per-iteration trace-hash chain ([`hash_chain`]), re-verified on resume.
    pub trace_hashes: Vec<u64>,
    /// Iteration index at which each completed model-guided round began, strictly
    /// increasing within `1..history.len()` (checked on load). Used to replay the exact
    /// model-fitting call sequence (last hyperopt refit, then each incremental extension)
    /// so the resumed GP cache is bit-identical to the uninterrupted one.
    pub round_starts: Vec<usize>,
    /// Digest over the snapshot itself, recomputed and checked on load.
    pub state_digest: u64,
}

use crate::error::CheckpointFault;

fn checkpoint_error(fault: CheckpointFault, reason: impl Into<String>) -> ParmisError {
    ParmisError::checkpoint(fault, reason)
}

impl SearchState {
    /// Snapshots a running search (framework-internal; all digests are computed here).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        config: &ParmisConfig,
        objectives: &[Objective],
        history: &[IterationRecord],
        front: &ParetoFront<Vec<f64>>,
        stale_iterations: usize,
        rng_state: [u64; 4],
        trace_hashes: &[u64],
        round_starts: &[usize],
        phv_trace: Vec<f64>,
    ) -> SearchState {
        let mut state = SearchState {
            format_version: FORMAT_VERSION,
            config_digest: config_digest(config),
            objectives: objectives.to_vec(),
            next_iteration: history.len(),
            rng_state: rng_state.to_vec(),
            stale_iterations,
            history: history.to_vec(),
            front_objectives: front.iter().map(|e| e.objectives.clone()).collect(),
            front_tags: front.iter().map(|e| e.tag.clone()).collect(),
            phv_trace,
            trace_hashes: trace_hashes.to_vec(),
            round_starts: round_starts.to_vec(),
            state_digest: 0,
        };
        state.state_digest = state.compute_state_digest();
        state
    }

    /// Number of evaluations captured in this state.
    pub fn evaluations(&self) -> usize {
        self.history.len()
    }

    /// The last link of the trace-hash chain (`None` for an empty state).
    pub fn last_trace_hash(&self) -> Option<u64> {
        self.trace_hashes.last().copied()
    }

    /// Serializes the state as pretty-printed JSON through the vendored serde stack.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] if a captured value cannot be represented
    /// (non-finite floats never occur in a state captured by the framework).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| {
            checkpoint_error(
                CheckpointFault::Serialize,
                format!("checkpoint serialization failed: {e}"),
            )
        })
    }

    /// Parses and fully verifies a checkpoint previously written by
    /// [`to_json`](Self::to_json): format version, state digest, trace-hash chain and
    /// internal shape invariants all must hold.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] for malformed JSON, an unknown format version,
    /// or any integrity violation (a tampered or truncated state).
    pub fn from_json(text: &str) -> Result<SearchState> {
        let state: SearchState = serde_json::from_str(text).map_err(|e| {
            checkpoint_error(
                CheckpointFault::Parse,
                format!("checkpoint parse failed: {e}"),
            )
        })?;
        state.verify_integrity()?;
        Ok(state)
    }

    /// The RNG state words as a fixed-size array.
    pub(crate) fn rng_words(&self) -> Result<[u64; 4]> {
        <[u64; 4]>::try_from(self.rng_state.as_slice()).map_err(|_| {
            checkpoint_error(
                CheckpointFault::Invariant,
                "checkpoint RNG state must have exactly 4 words",
            )
        })
    }

    fn compute_state_digest(&self) -> u64 {
        let mut h = fold(TRACE_HASH_SEED, u64::from(self.format_version));
        h = fold(h, self.config_digest);
        for o in &self.objectives {
            h = fold_str(h, &format!("{o:?}"));
        }
        h = fold(h, self.next_iteration as u64);
        for &w in &self.rng_state {
            h = fold(h, w);
        }
        h = fold(h, self.stale_iterations as u64);
        h = fold(h, self.trace_hashes.len() as u64);
        h = fold(h, self.last_trace_hash().unwrap_or(TRACE_HASH_SEED));
        for &b in &self.round_starts {
            h = fold(h, b as u64);
        }
        h = fold(h, self.front_objectives.len() as u64);
        for (objectives, tag) in self.front_objectives.iter().zip(&self.front_tags) {
            for &x in objectives {
                h = fold_f64(h, x);
            }
            for &x in tag {
                h = fold_f64(h, x);
            }
        }
        h = fold(h, self.phv_trace.len() as u64);
        for &x in &self.phv_trace {
            h = fold_f64(h, x);
        }
        h
    }

    /// Verifies the state's internal consistency without reference to a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] naming the first violated invariant.
    pub fn verify_integrity(&self) -> Result<()> {
        if self.format_version != FORMAT_VERSION {
            return Err(checkpoint_error(
                CheckpointFault::VersionMismatch,
                format!(
                    "checkpoint format version {} is not the supported version {FORMAT_VERSION}",
                    self.format_version
                ),
            ));
        }
        if self.rng_state.len() != 4 {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                "checkpoint RNG state must have exactly 4 words",
            ));
        }
        if self.objectives.is_empty() {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                "checkpoint has no objectives",
            ));
        }
        let n = self.history.len();
        if self.next_iteration != n {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                format!(
                    "next_iteration {} disagrees with history length {n}",
                    self.next_iteration
                ),
            ));
        }
        if self.trace_hashes.len() != n || self.phv_trace.len() != n {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                "trace-hash chain / PHV trace length disagrees with the history",
            ));
        }
        if self.front_objectives.len() != self.front_tags.len() {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                "front snapshot objectives/tags are misaligned",
            ));
        }
        let k = self.objectives.len();
        for (i, record) in self.history.iter().enumerate() {
            if record.iteration != i {
                return Err(checkpoint_error(
                    CheckpointFault::Invariant,
                    format!(
                        "history record {i} carries iteration index {}",
                        record.iteration
                    ),
                ));
            }
            if record.objectives.len() != k {
                return Err(checkpoint_error(
                    CheckpointFault::Invariant,
                    format!(
                        "history record {i} has {} objectives, expected {k}",
                        record.objectives.len()
                    ),
                ));
            }
            let finite = record
                .theta
                .iter()
                .chain(&record.objectives)
                .all(|x| x.is_finite())
                && record.acquisition_value.map_or(true, f64::is_finite);
            if !finite {
                return Err(checkpoint_error(
                    CheckpointFault::Invariant,
                    format!("history record {i} contains non-finite values"),
                ));
            }
        }
        if !self.phv_trace.iter().all(|x| x.is_finite()) {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                "PHV trace contains non-finite values",
            ));
        }
        // A round's start is recorded before its evaluations and states are captured only
        // between rounds, so every start indexes a record and the starts strictly increase.
        let starts_in_range = self.round_starts.iter().all(|&b| (1..n).contains(&b));
        if !starts_in_range || self.round_starts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                format!(
                    "round starts {:?} are not strictly increasing within 1..{n}",
                    self.round_starts
                ),
            ));
        }
        let rng = self.rng_words()?;
        if hash_chain(&self.history, &rng) != self.trace_hashes {
            return Err(checkpoint_error(
                CheckpointFault::TraceHashBreak,
                "trace-hash chain does not match the recorded history (state was tampered \
                 with, or written by an incompatible build)",
            ));
        }
        if self.compute_state_digest() != self.state_digest {
            return Err(checkpoint_error(
                CheckpointFault::DigestMismatch,
                "state digest mismatch (checkpoint is corrupt)",
            ));
        }
        Ok(())
    }

    /// Full resume-compatibility check against a configuration and an evaluator's
    /// objectives; returns the Pareto archive rebuilt from the history (verified against
    /// the snapshot).
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] on any integrity or compatibility violation.
    pub(crate) fn verify_for(
        &self,
        config: &ParmisConfig,
        objectives: &[Objective],
    ) -> Result<ParetoFront<Vec<f64>>> {
        self.verify_integrity()?;
        if self.config_digest != config_digest(config) {
            return Err(checkpoint_error(
                CheckpointFault::Incompatible,
                "configuration digest mismatch: the resuming ParmisConfig differs from the \
                 one that wrote this checkpoint in a trajectory-affecting field",
            ));
        }
        if self.objectives != objectives {
            return Err(checkpoint_error(
                CheckpointFault::Incompatible,
                format!(
                    "checkpoint objectives {:?} do not match the evaluator's {objectives:?}",
                    self.objectives
                ),
            ));
        }
        let mut front: ParetoFront<Vec<f64>> = ParetoFront::new(objectives.len());
        for record in &self.history {
            front.insert(record.objectives.clone(), record.theta.clone());
        }
        let rebuilt_objectives: Vec<&Vec<f64>> = front.iter().map(|e| &e.objectives).collect();
        let snapshot_objectives: Vec<&Vec<f64>> = self.front_objectives.iter().collect();
        let rebuilt_tags: Vec<&Vec<f64>> = front.iter().map(|e| &e.tag).collect();
        let snapshot_tags: Vec<&Vec<f64>> = self.front_tags.iter().collect();
        if rebuilt_objectives != snapshot_objectives || rebuilt_tags != snapshot_tags {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                "Pareto archive rebuilt from the history does not match the checkpoint's \
                 front snapshot",
            ));
        }
        Ok(front)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, bias: f64) -> IterationRecord {
        IterationRecord {
            iteration: i,
            theta: vec![bias, -bias],
            objectives: vec![1.0 + bias, 2.0 - bias],
            acquisition_value: if i > 0 { Some(0.5 * bias) } else { None },
        }
    }

    fn toy_state() -> SearchState {
        toy_state_with_round_starts(&[2, 3])
    }

    fn toy_state_with_round_starts(round_starts: &[usize]) -> SearchState {
        let config = ParmisConfig::default();
        let history: Vec<IterationRecord> = (0..4).map(|i| record(i, i as f64 * 0.1)).collect();
        let mut front = ParetoFront::new(2);
        for r in &history {
            front.insert(r.objectives.clone(), r.theta.clone());
        }
        let rng = [1, 2, 3, 4];
        let hashes = hash_chain(&history, &rng);
        SearchState::capture(
            &config,
            &[Objective::ExecutionTime, Objective::Energy],
            &history,
            &front,
            1,
            rng,
            &hashes,
            round_starts,
            vec![0.0, 0.1, 0.2, 0.3],
        )
    }

    #[test]
    fn hash_chain_is_deterministic_and_sensitive() {
        let history: Vec<IterationRecord> = (0..3).map(|i| record(i, 0.2)).collect();
        let rng = [9, 8, 7, 6];
        let a = hash_chain(&history, &rng);
        let b = hash_chain(&history, &rng);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);

        // Flipping one objective bit, the RNG cursor, or the acquisition value all change
        // the chain from that link on.
        let mut tampered = history.clone();
        tampered[1].objectives[0] = f64::from_bits(tampered[1].objectives[0].to_bits() ^ 1);
        let t = hash_chain(&tampered, &rng);
        assert_eq!(t[0], a[0]);
        assert_ne!(t[1], a[1]);
        assert_ne!(t[2], a[2]);
        assert_ne!(hash_chain(&history, &[9, 8, 7, 5]), a);
        let mut acq = history.clone();
        acq[2].acquisition_value = None;
        assert_ne!(hash_chain(&acq, &rng)[2], a[2]);
    }

    #[test]
    fn config_digest_covers_trajectory_fields_only() {
        let base = ParmisConfig::default();
        let digest = config_digest(&base);
        assert_eq!(digest, config_digest(&base.clone()));

        // Trajectory-affecting changes move the digest…
        for changed in [
            ParmisConfig {
                seed: base.seed ^ 1,
                ..base.clone()
            },
            ParmisConfig {
                max_iterations: base.max_iterations + 1,
                ..base.clone()
            },
            ParmisConfig {
                batch_size: base.batch_size + 1,
                ..base.clone()
            },
            ParmisConfig {
                refit_hyperparameters_every: base.refit_hyperparameters_every + 1,
                ..base.clone()
            },
        ] {
            assert_ne!(config_digest(&changed), digest);
        }

        // The fast precision tier changes the trajectory and must move the digest, but
        // the default SeedExact tier is folded as *absence* so legacy digests stay valid.
        let fast = ParmisConfig {
            precision: Precision::Fast,
            ..base.clone()
        };
        assert_ne!(config_digest(&fast), digest);

        // …the scheduling knob does not.
        let rescheduled = ParmisConfig {
            num_workers: 7,
            ..base
        };
        assert_eq!(config_digest(&rescheduled), digest);
    }

    #[test]
    fn state_round_trips_losslessly_through_json() {
        let state = toy_state();
        let json = state.to_json().unwrap();
        let back = SearchState::from_json(&json).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.evaluations(), 4);
        assert_eq!(back.last_trace_hash(), state.trace_hashes.last().copied());
    }

    #[test]
    fn tampered_checkpoints_are_rejected() {
        let state = toy_state();
        let json = state.to_json().unwrap();

        // Alter an objective value in the serialized history.
        let tampered = json.replacen("1.1", "1.125", 1);
        assert_ne!(tampered, json);
        let err = SearchState::from_json(&tampered).unwrap_err();
        assert!(matches!(err, ParmisError::Checkpoint { .. }), "{err}");

        // An unknown format version is refused outright.
        let mut wrong_version = state.clone();
        wrong_version.format_version = FORMAT_VERSION + 1;
        assert!(wrong_version.verify_integrity().is_err());

        // A truncated hash chain is refused.
        let mut truncated = state.clone();
        truncated.trace_hashes.pop();
        assert!(truncated.verify_integrity().is_err());

        // Malformed JSON is a structured checkpoint error, not a panic.
        assert!(matches!(
            SearchState::from_json("{"),
            Err(ParmisError::Checkpoint { .. })
        ));
    }

    #[test]
    fn round_starts_out_of_range_or_not_increasing_are_rejected() {
        // Both states carry a valid digest, so only the round-start invariant can fail.
        for starts in [[2, 4], [3, 2]] {
            let json = toy_state_with_round_starts(&starts).to_json().unwrap();
            let err = SearchState::from_json(&json).unwrap_err();
            assert_eq!(
                err.checkpoint_fault(),
                Some(CheckpointFault::Invariant),
                "{starts:?}: {err}"
            );
        }
    }

    #[test]
    fn verify_for_checks_config_and_objectives() {
        let state = toy_state();
        let config = ParmisConfig::default();
        let objectives = [Objective::ExecutionTime, Objective::Energy];
        let front = state.verify_for(&config, &objectives).unwrap();
        assert_eq!(front.len(), state.front_objectives.len());

        let other = ParmisConfig {
            seed: 1234,
            ..config.clone()
        };
        assert!(state.verify_for(&other, &objectives).is_err());
        assert!(state
            .verify_for(
                &config,
                &[Objective::ExecutionTime, Objective::PeakTemperature]
            )
            .is_err());

        // The worker count is resume-compatible by design.
        let rescheduled = ParmisConfig {
            num_workers: 3,
            ..config
        };
        assert!(state.verify_for(&rescheduled, &objectives).is_ok());
    }
}
