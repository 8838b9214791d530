//! Corruption-matrix regression suite: every way a checkpoint artifact can rot on disk
//! — truncation, bit flips, version skew, digest/field tampering — must surface as a
//! distinct structured [`ParmisError::Checkpoint`] fault, and **never** a panic. The
//! same matrix is replayed through the durable store, which must quarantine the corrupt
//! generation (with a reason side-car) and fall back to the newest valid predecessor.

use parmis::checkpoint::SearchState;
use parmis::evaluation::PolicyEvaluator;
use parmis::framework::{Parmis, ParmisConfig};
use parmis::jobs::CheckpointStore;
use parmis::objective::Objective;
use parmis::{CheckpointFault, ParmisError, Result};
use std::path::PathBuf;

/// Cheap synthetic evaluator so a real mid-search checkpoint is fast to produce.
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

fn tiny_config(seed: u64) -> ParmisConfig {
    ParmisConfig {
        max_iterations: 12,
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

/// A real checkpoint captured from a fuel-suspended search (not a hand-built fixture).
fn real_checkpoint(seed: u64) -> (SearchState, String) {
    let state = Parmis::new(tiny_config(seed))
        .segment(&SyntheticEvaluator::new(), None, 8, 0, &mut |_| Ok(()))
        .expect("tiny run")
        .into_suspended()
        .expect("fuel suspends before completion");
    let json = state.to_json().expect("serialize");
    (state, json)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parmis-corruption-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts the parse attempt survived: either a structured checkpoint fault, or (for a
/// benign mutation, e.g. a whitespace flip) a state identical to the original.
fn assert_survives(original: &SearchState, mutated: &str, label: &str) -> Option<CheckpointFault> {
    let attempt = std::panic::catch_unwind(|| SearchState::from_json(mutated));
    let result = attempt.unwrap_or_else(|_| panic!("{label}: from_json panicked"));
    match result {
        Ok(state) => {
            assert_eq!(&state, original, "{label}: silent semantic change accepted");
            None
        }
        Err(e) => {
            let fault = e.checkpoint_fault();
            assert!(
                fault.is_some(),
                "{label}: checkpoint failure must carry a structured fault, got {e}"
            );
            fault
        }
    }
}

#[test]
fn truncation_at_every_depth_is_a_parse_fault() {
    let (state, json) = real_checkpoint(3);
    for percent in [0, 10, 25, 50, 75, 90, 99] {
        let cut = json.len() * percent / 100;
        let fault = assert_survives(&state, &json[..cut], &format!("truncate@{percent}%"));
        assert_eq!(
            fault,
            Some(CheckpointFault::Parse),
            "truncate@{percent}%: truncation must classify as a parse fault"
        );
    }
}

#[test]
fn bit_flips_at_every_offset_stride_never_panic_or_pass_silently() {
    let (state, json) = real_checkpoint(5);
    let bytes = json.as_bytes();
    // Flip one bit every 7 bytes — several hundred distinct corruptions across every
    // region of the document (metadata, history, hashes, digests).
    for offset in (0..bytes.len()).step_by(7) {
        for bit in [0u8, 3, 6] {
            let mut corrupt = bytes.to_vec();
            corrupt[offset] ^= 1 << bit;
            let Ok(text) = String::from_utf8(corrupt) else {
                continue; // non-UTF8 never reaches from_json (read_to_string rejects it)
            };
            assert_survives(&state, &text, &format!("flip@{offset}:{bit}"));
        }
    }
}

#[test]
fn targeted_tampering_yields_distinct_fault_classes() {
    let (state, json) = real_checkpoint(7);

    let bumped = json.replace("\"format_version\": 1", "\"format_version\": 2");
    assert_ne!(bumped, json);
    assert_eq!(
        assert_survives(&state, &bumped, "version bump"),
        Some(CheckpointFault::VersionMismatch)
    );

    let recorded = format!("\"state_digest\": {}", state.state_digest);
    let tampered = json.replace(&recorded, "\"state_digest\": 1");
    assert_ne!(tampered, json);
    assert_eq!(
        assert_survives(&state, &tampered, "state digest"),
        Some(CheckpointFault::DigestMismatch)
    );

    // Rewriting one recorded trace-hash link breaks the chain before the digest check.
    let link = state.trace_hashes[state.trace_hashes.len() / 2];
    let tampered = json.replacen(&link.to_string(), "1", 1);
    assert_ne!(tampered, json);
    assert_eq!(
        assert_survives(&state, &tampered, "trace link"),
        Some(CheckpointFault::TraceHashBreak)
    );

    // Editing an observed value without re-folding the chain is also a chain break.
    let mut edited: SearchState = state.clone();
    edited.history[0].objectives[0] += 0.25;
    let tampered = edited.to_json().expect("serialize");
    assert_eq!(
        assert_survives(&state, &tampered, "history value"),
        Some(CheckpointFault::TraceHashBreak)
    );

    // Malformed RNG state is a shape invariant.
    let mut edited = state.clone();
    edited.rng_state.pop();
    let tampered = edited.to_json().expect("serialize");
    assert_eq!(
        assert_survives(&state, &tampered, "rng shape"),
        Some(CheckpointFault::Invariant)
    );

    // Misaligned next_iteration is a shape invariant too.
    let mut edited = state.clone();
    edited.next_iteration += 1;
    let tampered = edited.to_json().expect("serialize");
    assert_eq!(
        assert_survives(&state, &tampered, "next_iteration"),
        Some(CheckpointFault::Invariant)
    );

    for garbage in ["", "{}", "null", "[1,2,3]", "{\"format_version\": 1}"] {
        assert_eq!(
            assert_survives(&state, garbage, "garbage"),
            Some(CheckpointFault::Parse),
            "garbage `{garbage}`"
        );
    }
}

/// The durable store replays the matrix at the directory level: a corrupt newest
/// generation is quarantined (side-car naming the fault) and the load falls back to the
/// newest valid predecessor; when every generation is corrupt the job reports a clean
/// "nothing survives" outcome instead of an error or a panic.
#[test]
fn store_quarantines_matrix_corruptions_and_falls_back() {
    let (state, json) = real_checkpoint(9);
    let mutations: Vec<(&str, String)> = vec![
        ("truncated", json[..json.len() / 3].to_string()),
        ("garbage", "{not json".to_string()),
        (
            "version",
            json.replace("\"format_version\": 1", "\"format_version\": 2"),
        ),
        (
            "digest",
            json.replace(
                &format!("\"state_digest\": {}", state.state_digest),
                "\"state_digest\": 1",
            ),
        ),
    ];
    for (label, mutated) in mutations {
        assert_ne!(mutated, json, "{label}: mutation must change the document");
        let dir = temp_dir(&format!("store-{label}"));
        let store = CheckpointStore::open(&dir, 4).expect("open");
        store.save("job", &state).expect("save generation 1");
        store.save("job", &state).expect("save generation 2");
        let newest = store
            .generations("job")
            .expect("list")
            .pop()
            .expect("two generations")
            .1;
        std::fs::write(&newest, &mutated).expect("corrupt newest in place");

        let outcome = store.load_latest("job").expect("load never errors on rot");
        let (seq, survivor) = outcome.state.expect("predecessor survives");
        assert_eq!(seq, 1, "{label}: fell back to the first generation");
        assert_eq!(survivor, state, "{label}: survivor is bit-identical");
        assert_eq!(outcome.quarantined.len(), 1, "{label}");
        assert_eq!(
            store.quarantined_files().expect("scan").len(),
            1,
            "{label}: corrupt generation moved aside"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Directly resuming a tampered state is rejected with a structured error before any
/// evaluation happens — the search engine can't be tricked into running on rot.
#[test]
fn resume_rejects_tampered_state_with_structured_error() {
    let (state, _) = real_checkpoint(11);
    let mut tampered = state;
    tampered.history[1].theta[0] += 1.0;
    let err = Parmis::new(tiny_config(11))
        .segment(
            &SyntheticEvaluator::new(),
            Some(tampered),
            0,
            0,
            &mut |_| Ok(()),
        )
        .expect_err("tampered state must be rejected");
    assert!(matches!(err, ParmisError::Checkpoint { .. }), "got {err}");
    assert_eq!(
        err.checkpoint_fault(),
        Some(CheckpointFault::TraceHashBreak)
    );
}
