//! Two-process checkpoint→kill→resume smoke: the CI gate for crash durability.
//!
//! ```text
//! cargo run --release -p bench --bin resume_smoke -- [--quick] [--max-seconds N]
//! ```
//!
//! The orchestrator (no `--phase` flag) spawns **itself** twice: a `first` phase that runs
//! the search under a fuel budget, writes the suspended [`SearchState`] as checkpoint JSON
//! plus a trace-hash log, and exits — a stand-in for a killed process, since nothing
//! survives it but the files — and a `resume` phase in a fresh process that loads the
//! checkpoint, verifies it, and finishes the search. The orchestrator then runs the same
//! search uninterrupted in-process and compares the full trace-hash chains link by link;
//! the first phase's log, recomputed from the checkpoint's history, must be a non-empty
//! prefix of the uninterrupted chain, and its length is the reported suspension point.
//! `--max-seconds` additionally puts the first segment under a deadline token
//! ([`CancelSource::with_deadline`], the cooperative wall-clock budget): the segment
//! suspends on whichever of the deadline or the fuel backstop fires first, and the audit
//! is unchanged either way — deadlines decide *when* a segment suspends, never what it
//! computes. Set `PARMIS_RESULTS_DIR` to keep the checkpoint, the hash logs and
//! `BENCH_resume_smoke.json` as artifacts.

use bench::report;
use parmis::jobs::atomic_write;
use parmis::prelude::*;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::Command;

fn smoke_config(quick: bool) -> ParmisConfig {
    use parmis::acquisition::AcquisitionOptimizerConfig;
    use parmis::pareto_sampling::ParetoSamplingConfig;
    ParmisConfig {
        max_iterations: if quick { 10 } else { 20 },
        initial_samples: if quick { 4 } else { 6 },
        num_pareto_samples: 1,
        sampling: ParetoSamplingConfig {
            rff_features: 40,
            nsga_population: 12,
            nsga_generations: 5,
        },
        acquisition: AcquisitionOptimizerConfig {
            random_candidates: 12,
            local_candidates: 4,
            local_perturbation: 0.2,
        },
        refit_hyperparameters_every: 5,
        batch_size: 2,
        seed: 29,
        ..ParmisConfig::default()
    }
}

fn evaluator() -> SocEvaluator {
    SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap_or_else(|e| die(&format!("building the evaluator failed: {e}")))
}

fn hash_log(hashes: &[u64]) -> String {
    let mut out = String::new();
    for (i, h) in hashes.iter().enumerate() {
        out.push_str(&format!("{i}\t{h:#018x}\n"));
    }
    out
}

fn die(message: &str) -> ! {
    eprintln!("resume_smoke: {message}");
    std::process::exit(1)
}

/// Phase 1 (child process): run until the fuel budget — or, with `--max-seconds`, the
/// wall-clock deadline — suspends the search, persist the checkpoint and its trace-hash
/// log, and exit. The process boundary *is* the kill.
fn phase_first(quick: bool, checkpoint: &Path, max_seconds: Option<u64>) {
    let config = smoke_config(quick);
    let fuel = config.max_iterations / 2;
    let mut search = Parmis::new(config);
    if let Some(secs) = max_seconds {
        let deadline = CancelSource::with_deadline(std::time::Duration::from_secs(secs));
        search = search.with_cancel_token(deadline.token());
    }
    let step = search
        .segment(&evaluator(), None, fuel, 0, &mut |_| Ok(()))
        .unwrap_or_else(|e| die(&format!("first segment failed: {e}")));
    let reason = step.stop_reason();
    let state = match step {
        SearchStep::Suspended { state, .. } => *state,
        SearchStep::Completed(_) => die("first segment completed instead of suspending"),
    };
    println!("first: suspended by `{reason}`");
    let json = state
        .to_json()
        .unwrap_or_else(|e| die(&format!("checkpoint serialization failed: {e}")));
    // Durable atomic writes (temp + fsync + rename): a kill during persistence leaves
    // no torn checkpoint for the resume phase to trip over.
    atomic_write(checkpoint, json.as_bytes())
        .unwrap_or_else(|e| die(&format!("writing {} failed: {e}", checkpoint.display())));
    let hashes = state
        .trace_hashes()
        .unwrap_or_else(|e| die(&format!("recomputing the trace-hash chain failed: {e}")));
    atomic_write(
        &checkpoint.with_extension("first.hashes"),
        hash_log(&hashes).as_bytes(),
    )
    .unwrap_or_else(|e| die(&format!("writing hash log failed: {e}")));
    println!(
        "first: suspended after {} evaluations, checkpoint {} ({} bytes)",
        state.evaluations(),
        checkpoint.display(),
        json.len()
    );
}

/// Phase 2 (child process): a fresh process that knows nothing but the checkpoint path —
/// load, verify, resume to completion, persist the full trace-hash chain.
fn phase_resume(quick: bool, checkpoint: &Path) {
    let json = std::fs::read_to_string(checkpoint)
        .unwrap_or_else(|e| die(&format!("reading {} failed: {e}", checkpoint.display())));
    let state =
        SearchState::from_json(&json).unwrap_or_else(|e| die(&format!("checkpoint rejected: {e}")));
    println!(
        "resume: loaded checkpoint at evaluation {} (state digest verified)",
        state.evaluations()
    );
    let outcome = Parmis::new(smoke_config(quick))
        .segment(&evaluator(), Some(state), 0, 0, &mut |_| Ok(()))
        .unwrap_or_else(|e| die(&format!("resume failed: {e}")))
        .into_completed()
        .unwrap_or_else(|| die("resumed segment suspended again (fuel should be unlimited)"));
    atomic_write(
        &checkpoint.with_extension("final.hashes"),
        hash_log(&outcome.trace_hashes).as_bytes(),
    )
    .unwrap_or_else(|e| die(&format!("writing final hash log failed: {e}")));
    println!(
        "resume: completed with {} evaluations, {} front policies, PHV {:.3}",
        outcome.history.len(),
        outcome.front.len(),
        outcome.final_phv()
    );
}

#[derive(Serialize)]
struct ResumeSmokeReport {
    quick: bool,
    evaluations: usize,
    checkpoint_bytes: usize,
    suspended_at: usize,
    hash_links: usize,
    bitwise_match: bool,
}

/// Orchestrator: drive both phases as separate OS processes, then audit them against an
/// uninterrupted in-process run.
fn orchestrate(quick: bool, max_seconds: Option<u64>, results_dir: &Path) {
    report::print_header(
        "resume smoke",
        "two-process checkpoint → kill → resume with trace-hash audit",
    );
    std::fs::create_dir_all(results_dir)
        .unwrap_or_else(|e| die(&format!("creating {} failed: {e}", results_dir.display())));
    let checkpoint = results_dir.join("resume_smoke_checkpoint.json");

    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(&format!("cannot locate own executable: {e}")));
    for phase in ["first", "resume"] {
        let mut cmd = Command::new(&exe);
        cmd.args(["--phase", phase, "--checkpoint"])
            .arg(&checkpoint);
        if quick {
            cmd.arg("--quick");
        }
        if let (Some(secs), "first") = (max_seconds, phase) {
            cmd.args(["--max-seconds", &secs.to_string()]);
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| die(&format!("spawning phase {phase} failed: {e}")));
        if !status.success() {
            die(&format!("phase {phase} exited with {status}"));
        }
    }

    // Audit: the resumed chain must equal the uninterrupted in-process chain bit for bit.
    let reference = Parmis::new(smoke_config(quick))
        .run(&evaluator())
        .unwrap_or_else(|e| die(&format!("reference run failed: {e}")));
    let read_log = |extension: &str| {
        std::fs::read_to_string(checkpoint.with_extension(extension))
            .unwrap_or_else(|e| die(&format!("reading {extension} log failed: {e}")))
    };
    let first_log = read_log("first.hashes");
    let resumed_log = read_log("final.hashes");
    let reference_log = hash_log(&reference.trace_hashes);
    if first_log.is_empty() || !reference_log.starts_with(&first_log) {
        die("trace-hash audit FAILED: the first phase's chain is not a prefix of the uninterrupted run");
    }
    if resumed_log != reference_log {
        die("trace-hash audit FAILED: resumed chain diverged from the uninterrupted run");
    }
    let suspended_at = first_log.lines().count();
    println!(
        "trace-hash audit passed: {} links identical across kill/resume (suspended after {suspended_at})",
        reference.trace_hashes.len()
    );

    let checkpoint_bytes = std::fs::metadata(&checkpoint).map(|m| m.len()).unwrap_or(0) as usize;
    report::write_json(
        "BENCH_resume_smoke",
        &ResumeSmokeReport {
            quick,
            evaluations: reference.history.len(),
            checkpoint_bytes,
            suspended_at,
            hash_links: reference.trace_hashes.len(),
            bitwise_match: true,
        },
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut phase: Option<String> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut max_seconds: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--max-seconds" => {
                i += 1;
                let secs: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--max-seconds needs a u64"));
                if secs == 0 {
                    // A zero budget expires before the first model-guided round, so the
                    // first segment could never make progress past the initial design.
                    die("--max-seconds must be positive");
                }
                max_seconds = Some(secs);
            }
            "--phase" => {
                i += 1;
                phase = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--phase needs first|resume"))
                        .clone(),
                );
            }
            "--checkpoint" => {
                i += 1;
                checkpoint = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--checkpoint needs a path")),
                ));
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    match phase.as_deref() {
        None => {
            let results_dir = std::env::var("PARMIS_RESULTS_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|_| std::env::temp_dir().join("parmis_resume_smoke"));
            orchestrate(quick, max_seconds, &results_dir);
        }
        Some("first") => phase_first(
            quick,
            &checkpoint.unwrap_or_else(|| die("--phase first needs --checkpoint")),
            max_seconds,
        ),
        Some("resume") => phase_resume(
            quick,
            &checkpoint.unwrap_or_else(|| die("--phase resume needs --checkpoint")),
        ),
        Some(other) => die(&format!("unknown phase {other}")),
    }
}
