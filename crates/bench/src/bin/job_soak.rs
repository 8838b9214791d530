//! Job-supervisor kill soak: the CI gate for crash-safe fleet supervision.
//!
//! ```text
//! cargo run --release -p bench --bin job_soak -- [--quick] [--seed N] [--max-seconds N]
//! ```
//!
//! The orchestrator (no `--phase` flag) first computes reference outcome digests by
//! running a 4-job fleet uninterrupted in-process. Then, for worker counts {1, 2, 4},
//! it first drills the **graceful path** — a supervisor child armed with
//! [`SupervisorConfig::drain_on_signals`] receives a real `SIGTERM` mid-fleet, drains
//! every job to a checkpoint boundary, and must exit 0 with only resumable phases and
//! zero quarantined files (a polite shutdown is not a crash) — and then the **crash
//! path**: it repeatedly spawns itself as a supervisor process over the same checkpoint
//! directory and kills it at a randomized point (seed logged; rerun with `--seed` to
//! reproduce):
//!
//! * a timer thread that SIGKILLs the process mid-segment after a random delay, or
//! * an armed [`CrashPlan`] that aborts during the N-th durable write — *before* or
//!   *after* the atomic rename, i.e. mid-checkpoint-write;
//!
//! and, after the first kill, corrupts the newest checkpoint generation of one job in
//! place to exercise quarantine fallback. Each restart must recover cleanly (no
//! corrupt-state panic); the final run completes the fleet and writes per-job outcome
//! digests, which must be **bit-identical** to the uninterrupted references for every
//! worker count. `--max-seconds` maps the whole drill schedule onto a
//! [`parmis::cancel`] deadline source: once the budget expires, remaining drain/kill
//! drills are skipped and every fleet is driven straight to completion, so soak length
//! is time-bounded instead of fuel-guessed. Set `PARMIS_RESULTS_DIR` to keep the fleet
//! directories (journal + quarantine) and `BENCH_job_soak.json` as artifacts.

use bench::report;
use parmis::jobs::{
    atomic_write, outcome_digest, CrashPlan, CrashStage, JobPhase, JobSpec, JobSupervisor,
    SupervisorConfig,
};
use parmis::prelude::*;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::Command;

const FLEET: u64 = 4;

fn die(message: &str) -> ! {
    eprintln!("job_soak: {message}");
    std::process::exit(1)
}

fn job_config(quick: bool, index: u64) -> ParmisConfig {
    use parmis::acquisition::AcquisitionOptimizerConfig;
    use parmis::pareto_sampling::ParetoSamplingConfig;
    ParmisConfig {
        max_iterations: if quick { 8 } else { 14 },
        initial_samples: 4,
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
        seed: 173 + 31 * index,
        ..ParmisConfig::default()
    }
}

fn fleet_specs(quick: bool) -> Vec<JobSpec> {
    (0..FLEET)
        .map(|i| JobSpec::new(format!("soak-{i}"), job_config(quick, i)))
        .collect()
}

fn supervisor_config(workers: usize, drain_on_signals: bool) -> SupervisorConfig {
    SupervisorConfig {
        workers,
        segment_fuel: 4,
        checkpoint_every: 2,
        drain_on_signals,
        ..SupervisorConfig::default()
    }
}

fn evaluator() -> Result<SocEvaluator, ParmisError> {
    SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
}

fn evaluator_factory(_spec: &JobSpec) -> Result<Box<dyn PolicyEvaluator>, ParmisError> {
    Ok(Box::new(evaluator()?))
}

/// Seeded xorshift64* — all kill-schedule randomness flows from the logged seed.
struct SoakRng(u64);

impl SoakRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// How one supervisor attempt is scheduled to die (or allowed to finish).
#[derive(Debug, Clone, Copy)]
enum KillMode {
    /// SIGKILL from a timer thread after this many milliseconds.
    Timer(u64),
    /// Abort during the N-th durable write, at the given protocol stage.
    Write(u64, CrashStage),
    /// No kill: the attempt must complete the fleet.
    Clean,
}

/// Child phase: open the supervisor over `dir` (recovering whatever the previous
/// process left), optionally arm a kill or a delayed `SIGTERM`, drive the fleet, and
/// persist the per-job digests on completion. Under `term_after_ms` the supervisor is
/// opened with [`SupervisorConfig::drain_on_signals`]: the signal drains the fleet to a
/// checkpoint boundary and the process exits **0** with only resumable phases — the
/// graceful path the orchestrator asserts is distinct from the SIGKILL crash path.
fn phase_drive(
    quick: bool,
    dir: &Path,
    workers: usize,
    kill: KillMode,
    term_after_ms: Option<u64>,
) {
    if let KillMode::Timer(ms) = kill {
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            let pid = std::process::id().to_string();
            // A real SIGKILL: no destructors, no unwinding — the hard crash the
            // supervisor must survive. Fall back to abort if kill(1) is missing.
            let _ = Command::new("kill").args(["-9", &pid]).status();
            std::process::abort();
        });
    }

    let config = supervisor_config(workers, term_after_ms.is_some());
    let supervisor = match kill {
        KillMode::Write(on_write, stage) => {
            JobSupervisor::open_with_crash_plan(dir, config, CrashPlan { on_write, stage })
        }
        _ => JobSupervisor::open(dir, config),
    };
    let mut supervisor = supervisor.unwrap_or_else(|e| die(&format!("recovery open failed: {e}")));
    let recovery = supervisor.recovery();
    println!(
        "drive: recovered (interrupted: {:?}, quarantined: {:?}, journal_rebuilt: {})",
        recovery.interrupted, recovery.quarantined, recovery.journal_rebuilt
    );

    if let Some(ms) = term_after_ms {
        // The drain handler is armed (the supervisor is open): a real SIGTERM from here
        // on is a graceful drain, not a kill.
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            let pid = std::process::id().to_string();
            let _ = Command::new("kill").args(["-TERM", &pid]).status();
        });
    }

    let specs = fleet_specs(quick);
    let fleet = supervisor
        .run(&specs, evaluator_factory)
        .unwrap_or_else(|e| die(&format!("fleet run failed: {e}")));

    if term_after_ms.is_some() && !fleet.all_done() {
        // Drained mid-fleet: every job must have parked at a checkpoint boundary in a
        // resumable phase — nothing failed, nothing quarantined, journal flushed.
        for job in &fleet.jobs {
            if !matches!(
                job.phase,
                JobPhase::Done | JobPhase::Suspended | JobPhase::Pending
            ) {
                die(&format!(
                    "drain left job {} in non-resumable phase {} (note: {:?})",
                    job.id,
                    job.phase.name(),
                    job.note
                ));
            }
            println!(
                "drive: {} drained as {} at {} evaluations",
                job.id,
                job.phase.name(),
                job.evaluations
            );
        }
        println!("drive: SIGTERM drain complete, exiting cleanly");
        return;
    }

    let mut lines = String::new();
    for job in &fleet.jobs {
        if job.phase != JobPhase::Done {
            die(&format!(
                "job {} ended {} instead of done (note: {:?})",
                job.id,
                job.phase.name(),
                job.note
            ));
        }
        let digest = job
            .outcome_digest
            .unwrap_or_else(|| die(&format!("job {} has no outcome digest", job.id)));
        lines.push_str(&format!("{}\t{digest:#018x}\n", job.id));
        println!(
            "drive: {} done after {} segments, {} evaluations, digest {digest:#018x}",
            job.id, job.segments, job.evaluations
        );
    }
    atomic_write(&dir.join("digests.tsv"), lines.as_bytes())
        .unwrap_or_else(|e| die(&format!("writing digests failed: {e}")));
}

/// Flip one bit in the newest checkpoint generation of a random job — the in-place rot
/// the quarantine path must absorb.
fn corrupt_one_checkpoint(dir: &Path, rng: &mut SoakRng) {
    let store = parmis::jobs::CheckpointStore::open(dir, 32)
        .unwrap_or_else(|e| die(&format!("opening store for corruption drill failed: {e}")));
    let jobs = store
        .jobs_on_disk()
        .unwrap_or_else(|e| die(&format!("scanning store failed: {e}")));
    if jobs.is_empty() {
        return; // killed before the first checkpoint ever landed
    }
    let job = &jobs[(rng.next() % jobs.len() as u64) as usize];
    let Some((seq, path)) = store
        .generations(job)
        .unwrap_or_else(|e| die(&format!("listing generations failed: {e}")))
        .pop()
    else {
        return;
    };
    let mut bytes = std::fs::read(&path)
        .unwrap_or_else(|e| die(&format!("reading {} failed: {e}", path.display())));
    let offset = (rng.next() % bytes.len() as u64) as usize;
    bytes[offset] ^= 1 << (rng.next() % 8);
    std::fs::write(&path, &bytes)
        .unwrap_or_else(|e| die(&format!("corrupting {} failed: {e}", path.display())));
    println!("orchestrator: corrupted {job} generation {seq} (bit flip at byte {offset})");
}

#[derive(Serialize)]
struct WorkerSoakReport {
    workers: usize,
    drain_drills: usize,
    kills: usize,
    attempts: usize,
    corruption_drills: usize,
    quarantined_files: usize,
    bitwise_match: bool,
}

#[derive(Serialize)]
struct JobSoakReport {
    quick: bool,
    seed: u64,
    fleet: usize,
    max_seconds: Option<u64>,
    time_budget_expired: bool,
    runs: Vec<WorkerSoakReport>,
}

fn read_digests(dir: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(dir.join("digests.tsv"))
        .unwrap_or_else(|e| die(&format!("reading digests failed: {e}")));
    text.lines()
        .filter_map(|line| {
            let (job, digest) = line.split_once('\t')?;
            Some((job.to_string(), digest.to_string()))
        })
        .collect()
}

fn orchestrate(quick: bool, seed: u64, max_seconds: Option<u64>, results_dir: &Path) {
    report::print_header(
        "job soak",
        "supervised fleet vs SIGTERM drain / randomized SIGKILL / mid-write crashes / rot",
    );
    println!("kill-schedule seed = {seed} (rerun with --seed {seed})");
    // The soak's wall-clock bound rides the same deadline machinery the searches use:
    // a cancel scope whose deadline trips once the budget is spent. Expiry never
    // abandons a fleet — it skips the remaining drills and drives straight to Clean.
    let time_budget = max_seconds.map(|secs| {
        println!("time budget: {secs}s (--max-seconds, mapped onto a cancel deadline scope)");
        CancelSource::new().child_with_deadline(std::time::Duration::from_secs(secs))
    });
    let budget_expired =
        |budget: &Option<CancelSource>| budget.as_ref().is_some_and(CancelSource::is_cancelled);
    std::fs::create_dir_all(results_dir)
        .unwrap_or_else(|e| die(&format!("creating {} failed: {e}", results_dir.display())));

    // Uninterrupted references: plain Parmis::run, no supervisor involved at all.
    let specs = fleet_specs(quick);
    let references: Vec<(String, String)> = specs
        .iter()
        .map(|spec| {
            let outcome = evaluator()
                .and_then(|soc| Parmis::new(spec.config.clone()).run(&soc))
                .unwrap_or_else(|e| die(&format!("reference run {} failed: {e}", spec.id)));
            (
                spec.id.clone(),
                format!("{:#018x}", outcome_digest(&outcome)),
            )
        })
        .collect();
    println!(
        "references: {} uninterrupted digests computed",
        references.len()
    );

    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(&format!("cannot locate own executable: {e}")));
    let mut rng = SoakRng(seed);
    let max_kills = if quick { 2 } else { 4 };
    let mut runs = Vec::new();
    let mut all_match = true;

    for workers in [1usize, 2, 4] {
        let dir = results_dir.join(format!("fleet-w{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut drain_drills = 0usize;
        let mut kills = 0usize;
        let mut attempts = 0usize;
        let mut corruption_drills = 0usize;

        // Graceful-drain drill: a SIGTERM mid-fleet must come back exit-0 (the drain
        // path, unlike every SIGKILL below, is not a crash), leave only resumable
        // phases in the journal, and quarantine nothing.
        if !budget_expired(&time_budget) {
            attempts += 1;
            drain_drills += 1;
            // The handler is armed before the child's timer starts counting, so even a
            // near-zero delay is a graceful drain, never a default-disposition kill.
            let term_ms = rng.range(5, if quick { 100 } else { 1000 });
            let mut cmd = Command::new(&exe);
            cmd.args(["--phase", "drive", "--dir"])
                .arg(&dir)
                .args(["--workers", &workers.to_string()])
                .args(["--term-after-ms", &term_ms.to_string()]);
            if quick {
                cmd.arg("--quick");
            }
            println!("orchestrator: workers={workers} drain drill (SIGTERM after {term_ms} ms)");
            let status = cmd
                .status()
                .unwrap_or_else(|e| die(&format!("spawning drain drill failed: {e}")));
            if !status.success() {
                die(&format!(
                    "drain drill (workers={workers}) exited with {status}: SIGTERM must \
                     drain gracefully, not crash"
                ));
            }
            let quarantined = parmis::jobs::CheckpointStore::open(&dir, 32)
                .and_then(|s| s.quarantined_files())
                .map(|q| q.len())
                .unwrap_or(0);
            if quarantined != 0 {
                die(&format!(
                    "drain drill (workers={workers}) quarantined {quarantined} files: a \
                     graceful drain must not tear state"
                ));
            }
        }

        loop {
            attempts += 1;
            let mode = if kills >= max_kills || budget_expired(&time_budget) {
                KillMode::Clean
            } else if rng.next() % 2 == 0 {
                KillMode::Timer(rng.range(5, if quick { 400 } else { 1500 }))
            } else {
                let stage = if rng.next() % 2 == 0 {
                    CrashStage::BeforeRename
                } else {
                    CrashStage::AfterRename
                };
                KillMode::Write(rng.range(1, 24), stage)
            };
            let mut cmd = Command::new(&exe);
            cmd.args(["--phase", "drive", "--dir"])
                .arg(&dir)
                .args(["--workers", &workers.to_string()]);
            if quick {
                cmd.arg("--quick");
            }
            match mode {
                KillMode::Timer(ms) => {
                    cmd.args(["--kill-after-ms", &ms.to_string()]);
                }
                KillMode::Write(n, stage) => {
                    let stage = match stage {
                        CrashStage::BeforeRename => "before-rename",
                        CrashStage::AfterRename => "after-rename",
                    };
                    cmd.args(["--crash-write", &n.to_string(), "--crash-stage", stage]);
                }
                KillMode::Clean => {}
            }
            println!("orchestrator: workers={workers} attempt={attempts} mode={mode:?}");
            let status = cmd
                .status()
                .unwrap_or_else(|e| die(&format!("spawning drive failed: {e}")));
            if status.success() {
                break;
            }
            if matches!(mode, KillMode::Clean) {
                die(&format!(
                    "clean attempt (workers={workers}) failed with {status}: recovery is broken"
                ));
            }
            kills += 1;
            println!("orchestrator: supervisor died ({status}); drilling recovery");
            if kills == 1 {
                corrupt_one_checkpoint(&dir, &mut rng);
                corruption_drills += 1;
            }
        }

        let digests = read_digests(&dir);
        let matched = digests == references;
        if !matched {
            eprintln!(
                "job_soak: workers={workers} digests diverged\n  reference: {references:?}\n  \
                 recovered: {digests:?}"
            );
            all_match = false;
        }
        let quarantined_files = parmis::jobs::CheckpointStore::open(&dir, 32)
            .and_then(|s| s.quarantined_files())
            .map(|q| q.len())
            .unwrap_or(0);
        println!(
            "workers={workers}: {drain_drills} drains, {kills} kills, {attempts} attempts, \
             {quarantined_files} quarantined, bitwise_match={matched}"
        );
        runs.push(WorkerSoakReport {
            workers,
            drain_drills,
            kills,
            attempts,
            corruption_drills,
            quarantined_files,
            bitwise_match: matched,
        });
    }

    if budget_expired(&time_budget) {
        println!("time budget expired: remaining drills were skipped, all fleets completed");
    }
    report::write_json(
        "BENCH_job_soak",
        &JobSoakReport {
            quick,
            seed,
            fleet: FLEET as usize,
            max_seconds,
            time_budget_expired: budget_expired(&time_budget),
            runs,
        },
    );
    if !all_match {
        die("bitwise audit FAILED: a recovered fleet diverged from the uninterrupted runs");
    }
    println!("bitwise audit passed: all fleets identical to uninterrupted runs");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut phase: Option<String> = None;
    let mut dir: Option<PathBuf> = None;
    let mut workers = 1usize;
    let mut kill_after_ms: Option<u64> = None;
    let mut term_after_ms: Option<u64> = None;
    let mut crash_write: Option<u64> = None;
    let mut crash_stage = CrashStage::BeforeRename;
    let mut max_seconds: Option<u64> = None;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = Some(
                    value(&args, &mut i, "--seed")
                        .parse()
                        .unwrap_or_else(|_| die("--seed needs a u64")),
                )
            }
            "--phase" => phase = Some(value(&args, &mut i, "--phase")),
            "--dir" => dir = Some(PathBuf::from(value(&args, &mut i, "--dir"))),
            "--workers" => {
                workers = value(&args, &mut i, "--workers")
                    .parse()
                    .unwrap_or_else(|_| die("--workers needs a usize"))
            }
            "--kill-after-ms" => {
                kill_after_ms = Some(
                    value(&args, &mut i, "--kill-after-ms")
                        .parse()
                        .unwrap_or_else(|_| die("--kill-after-ms needs a u64")),
                )
            }
            "--term-after-ms" => {
                term_after_ms = Some(
                    value(&args, &mut i, "--term-after-ms")
                        .parse()
                        .unwrap_or_else(|_| die("--term-after-ms needs a u64")),
                )
            }
            "--max-seconds" => {
                max_seconds = Some(
                    value(&args, &mut i, "--max-seconds")
                        .parse()
                        .unwrap_or_else(|_| die("--max-seconds needs a u64")),
                )
            }
            "--crash-write" => {
                crash_write = Some(
                    value(&args, &mut i, "--crash-write")
                        .parse()
                        .unwrap_or_else(|_| die("--crash-write needs a u64")),
                )
            }
            "--crash-stage" => {
                crash_stage = match value(&args, &mut i, "--crash-stage").as_str() {
                    "before-rename" => CrashStage::BeforeRename,
                    "after-rename" => CrashStage::AfterRename,
                    other => die(&format!("unknown crash stage {other}")),
                }
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    match phase.as_deref() {
        None => {
            let results_dir = std::env::var("PARMIS_RESULTS_DIR")
                .map(|d| PathBuf::from(d).join("job_soak"))
                .unwrap_or_else(|_| std::env::temp_dir().join("parmis_job_soak"));
            let seed = seed.unwrap_or_else(|| {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.subsec_nanos() as u64)
                    .unwrap_or(0);
                (u64::from(std::process::id()) << 20) ^ nanos | 1
            });
            orchestrate(quick, seed, max_seconds, &results_dir);
        }
        Some("drive") => {
            let dir = dir.unwrap_or_else(|| die("--phase drive needs --dir"));
            let kill = match (kill_after_ms, crash_write) {
                (Some(ms), _) => KillMode::Timer(ms),
                (None, Some(n)) => KillMode::Write(n, crash_stage),
                (None, None) => KillMode::Clean,
            };
            phase_drive(quick, &dir, workers, kill, term_after_ms);
        }
        Some(other) => die(&format!("unknown phase {other}")),
    }
}
