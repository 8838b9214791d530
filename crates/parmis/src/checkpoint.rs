//! Checkpoint/resume state and the trace-hash audit for the resumable search runtime.
//!
//! A long-budget PaRMIS run can be interrupted (fuel exhaustion, a crash, a CI timeout) and
//! continued later **bit-identically**. A [`SearchState`] stores only what cannot be
//! derived: the observation history (Algorithm 1's aggregate training data), the RNG
//! cursor and the round structure. Everything else is a function of those and the
//! configuration, and a resume rebuilds it with the code that built it the first time: the
//! Pareto archive, the early-stopping counter and the trace-hash chain by appending every
//! stored record through the search's one append step, and the GP Cholesky factors by
//! replaying the exact model-fitting call sequence. A resumed run therefore produces the
//! same [`ParmisOutcome`](crate::framework::ParmisOutcome) as an uninterrupted one, down to
//! the last bit.
//!
//! # Trace hashes
//!
//! Every evaluation appends one link to an FNV-1a-style **hash chain**
//! ([`record_hash`] / [`hash_chain`]): the previous link folded with the record's iteration
//! index, its candidate θ, its observed objective vector, its acquisition value and the RNG
//! cursor at the time the record was appended. The chain is carried by the final outcome;
//! a checkpoint stores none of it, but its state digest folds the chain head recomputed
//! from the stored history. A resumed or replayed run proves bit-identity to the
//! uninterrupted trajectory by producing the same hash sequence, in the style of a
//! deterministic scheduler's replay checks.
//!
//! # Format and versioning
//!
//! Checkpoints serialize through the vendored serde stack as a flat JSON object
//! ([`SearchState::to_json`] / [`SearchState::from_json`]). The layout is guarded by
//! [`FORMAT_VERSION`]; two digests make stale or tampered files fail loudly instead of
//! resuming into a silently divergent trajectory:
//!
//! * `config_digest` — a fold over every **trajectory-affecting** configuration field
//!   (budgets, sampling/acquisition knobs, kernel family, seed, batch size, precision
//!   tier). The one scheduling knob, `num_workers`, is excluded, and segmentation (fuel,
//!   checkpoint cadence) is not configuration at all, so a run suspended under a small
//!   fuel budget can be resumed under a different one, on any worker count.
//! * `state_digest` — a fold over the state itself (objectives, RNG words, round
//!   structure, history length and the chain head recomputed from the history),
//!   recomputed and compared on load, so an edit to any stored record fails the load.

use crate::framework::{IterationRecord, ParmisConfig};
use crate::objective::Objective;
use crate::{ParmisError, Result};
use gp::kernel::KernelFamily;
use serde::{Deserialize, Serialize};

/// Version stamp of the checkpoint JSON layout. Bump on any incompatible change.
pub const FORMAT_VERSION: u32 = 2;

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
/// so the fold order and the folded fields are part of the on-disk format. The precision
/// tier's name is folded last.
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
    fold_str(h, config.precision.name())
}

/// A serializable snapshot of a suspended PaRMIS search, taken at an iteration boundary.
///
/// Holds only what [`Parmis::segment`](crate::framework::Parmis::segment) cannot derive:
/// the history, the RNG words and the round starts. The Pareto archive, the early-stopping
/// counter, the trace-hash chain and the GP factors are rebuilt on resume. Serialize with
/// [`to_json`](Self::to_json), reload with [`from_json`](Self::from_json) (which verifies
/// the format version, the content and the state digest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchState {
    /// Checkpoint layout version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Digest of the trajectory-affecting configuration fields ([`config_digest`]).
    pub config_digest: u64,
    /// The design objectives, in evaluator order.
    pub objectives: Vec<Objective>,
    /// The xoshiro256++ state words of the main RNG at suspension.
    pub rng_state: Vec<u64>,
    /// Every evaluation performed so far, in order.
    pub history: Vec<IterationRecord>,
    /// Iteration index at which each completed model-guided round began, strictly
    /// increasing within `1..history.len()` (checked on load). Used to replay the exact
    /// model-fitting call sequence (last hyperopt refit, then each incremental extension)
    /// so the resumed GP cache is bit-identical to the uninterrupted one.
    pub round_starts: Vec<usize>,
    /// Digest over the snapshot itself, including the head of the trace-hash chain
    /// recomputed from `history`; recomputed and checked on load.
    pub state_digest: u64,
}

use crate::error::CheckpointFault;

fn checkpoint_error(fault: CheckpointFault, reason: impl Into<String>) -> ParmisError {
    ParmisError::checkpoint(fault, reason)
}

impl SearchState {
    /// Snapshots a running search (framework-internal; the state digest is computed here).
    pub(crate) fn capture(
        config: &ParmisConfig,
        objectives: &[Objective],
        history: &[IterationRecord],
        rng_state: [u64; 4],
        round_starts: &[usize],
    ) -> SearchState {
        let mut state = SearchState {
            format_version: FORMAT_VERSION,
            config_digest: config_digest(config),
            objectives: objectives.to_vec(),
            rng_state: rng_state.to_vec(),
            history: history.to_vec(),
            round_starts: round_starts.to_vec(),
            state_digest: 0,
        };
        state.state_digest = state.compute_state_digest(&rng_state);
        state
    }

    /// Number of evaluations captured in this state.
    pub fn evaluations(&self) -> usize {
        self.history.len()
    }

    /// The trace-hash chain of the stored history ([`hash_chain`]), recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] if the state does not hold exactly 4 RNG words.
    pub fn trace_hashes(&self) -> Result<Vec<u64>> {
        Ok(hash_chain(&self.history, &self.rng_words()?))
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
    /// [`to_json`](Self::to_json): format version, internal shape invariants and the state
    /// digest all must hold.
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

    fn compute_state_digest(&self, rng: &[u64; 4]) -> u64 {
        let mut h = fold(TRACE_HASH_SEED, u64::from(self.format_version));
        h = fold(h, self.config_digest);
        for o in &self.objectives {
            h = fold_str(h, &format!("{o:?}"));
        }
        for &w in rng {
            h = fold(h, w);
        }
        for &b in &self.round_starts {
            h = fold(h, b as u64);
        }
        h = fold(h, self.history.len() as u64);
        let head = self.history.iter().fold(TRACE_HASH_SEED, |link, record| {
            record_hash(link, record, rng)
        });
        fold(h, head)
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
        let rng = self.rng_words()?;
        if self.objectives.is_empty() {
            return Err(checkpoint_error(
                CheckpointFault::Invariant,
                "checkpoint has no objectives",
            ));
        }
        let n = self.history.len();
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
        if self.compute_state_digest(&rng) != self.state_digest {
            return Err(checkpoint_error(
                CheckpointFault::DigestMismatch,
                "state digest mismatch (checkpoint is corrupt)",
            ));
        }
        Ok(())
    }

    /// Full resume-compatibility check against a configuration and an evaluator's
    /// objectives and policy parameter count.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::Checkpoint`] on any integrity or compatibility violation.
    pub(crate) fn verify_for(
        &self,
        config: &ParmisConfig,
        objectives: &[Objective],
        parameter_dim: usize,
    ) -> Result<()> {
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
        if let Some(record) = self.history.iter().find(|r| r.theta.len() != parameter_dim) {
            return Err(checkpoint_error(
                CheckpointFault::Incompatible,
                format!(
                    "checkpoint record {} has {} policy parameters, the evaluator's policy \
                     has {parameter_dim}",
                    record.iteration,
                    record.theta.len()
                ),
            ));
        }
        Ok(())
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
        SearchState::capture(
            &config,
            &[Objective::ExecutionTime, Objective::Energy],
            &history,
            [1, 2, 3, 4],
            round_starts,
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

        // The exact precision tier changes the trajectory and must move the digest.
        let exact = ParmisConfig {
            precision: fastmath::Precision::SeedExact,
            ..base.clone()
        };
        assert_ne!(config_digest(&exact), digest);

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
        assert_eq!(
            back.trace_hashes().unwrap(),
            hash_chain(&state.history, &[1, 2, 3, 4])
        );
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

        // A truncated history is refused.
        let mut truncated = state.clone();
        truncated.history.pop();
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
        state.verify_for(&config, &objectives, 2).unwrap();

        let other = ParmisConfig {
            seed: 1234,
            ..config.clone()
        };
        assert!(state.verify_for(&other, &objectives, 2).is_err());
        assert!(state
            .verify_for(
                &config,
                &[Objective::ExecutionTime, Objective::PeakTemperature],
                2
            )
            .is_err());

        // The worker count is resume-compatible by design.
        let rescheduled = ParmisConfig {
            num_workers: 3,
            ..config
        };
        assert!(state.verify_for(&rescheduled, &objectives, 2).is_ok());
    }
}
