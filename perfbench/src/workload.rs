//! The three workloads, their set-up, and their untraced timed part.
//!
//! Every workload drives the public `parmis` API exactly as a user would, inputs derived
//! from the benchmark seed only:
//!
//! * `app_seq` — one `SocEvaluator` search on `spectral` (time, energy) with
//!   `ExperimentBudget::parmis_config` at 100 iterations, batch 1, one thread, `SeedExact`.
//!   The paper's shape: front sampling is ~95 % of the wall time, GP fitting ~1 % and policy
//!   evaluation ~0.1 %, so a front-sampling change shows here and a GP-fit change should not.
//! * `global_long` — one `GlobalEvaluator` search over all 12 applications, 300 iterations
//!   (the paper's convergence horizon), batch 4, evaluated by a 2-worker
//!   `ParallelEvaluator` (what `Parmis::run_parallel` builds). The training set grows to
//!   n = 300, so hyperparameter refits, posterior builds and acquisition scoring carry a
//!   real share, and it is the only workload with parallel, multi-application evaluation.
//! * `fleet_resume` — a `JobSupervisor` running 4 jobs (spectral, qsort, sha, fft) at 100
//!   iterations, batch 4, `segment_fuel` 20, `checkpoint_every` 4, one worker, with
//!   `Precision::Fast` on both the sampler and the evaluator. It is the only workload that
//!   pays for checkpoint save/load/verify and resume replay, writes through the store's
//!   fsync path, and runs the `fastmath` kernels.
//!
//! `fleet_resume` needs a fresh store directory for every supervisor it opens: in a reused
//! directory `JobSupervisor::open` finds every job `Done` and the run measures nothing.
//! [`Fixture::build`] therefore refuses a directory that already exists.

use crate::clock::RoundClock;
use baselines::sweep::evaluate_controller;
use bench::ExperimentBudget;
use moo::hypervolume::hypervolume;
use parmis::evaluation::{GlobalEvaluator, ParallelEvaluator, RetryStats};
use parmis::framework::{Parmis, ParmisConfig, ParmisOutcome};
use parmis::jobs::{JobSpec, JobSupervisor, SupervisorConfig};
use parmis::prelude::{Benchmark, Objective, PolicyEvaluator, Precision, SocEvaluator};
use soc_sim::governor::default_governors;
use soc_sim::platform::Platform;
use soc_sim::workload::Application;
use std::collections::HashSet;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Result type of the benchmark.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// The design objectives of every workload.
pub const OBJECTIVES: [Objective; 2] = Objective::TIME_ENERGY;

/// Measurement seed of the stock-governor reference runs.
const GOVERNOR_SEED: u64 = 29;

/// Applications of the `fleet_resume` jobs, one job each.
const FLEET_APPS: [Benchmark; 4] = [
    Benchmark::Spectral,
    Benchmark::Qsort,
    Benchmark::Sha,
    Benchmark::Fft,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AppSeq,
    GlobalLong,
    FleetResume,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::AppSeq,
        Workload::GlobalLong,
        Workload::FleetResume,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AppSeq => "app_seq",
            Workload::GlobalLong => "global_long",
            Workload::FleetResume => "fleet_resume",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fixed hypervolume reference of one search: 1.1× the worst stock-governor value per
/// objective. It depends only on the applications, never on the search trajectory, so
/// `phv` values from two commits are comparable.
#[derive(Debug, Clone)]
pub struct PhvReference {
    point: Vec<f64>,
    governor_hv: f64,
}

impl PhvReference {
    /// Runs the four stock governors on `applications` (objectives averaged across them,
    /// as the evaluator averages) and derives the reference point.
    fn from_governors(applications: &[Application]) -> Res<PhvReference> {
        let platform = Platform::odroid_xu3();
        let k = OBJECTIVES.len();
        let mut points = Vec::new();
        for mut governor in default_governors(platform.spec()) {
            let mut mean = vec![0.0; k];
            for app in applications {
                let v =
                    evaluate_controller(&platform, app, &mut *governor, &OBJECTIVES, GOVERNOR_SEED);
                for (m, x) in mean.iter_mut().zip(v) {
                    *m += x / applications.len() as f64;
                }
            }
            points.push(mean);
        }
        let point: Vec<f64> = (0..k)
            .map(|j| {
                1.1 * points
                    .iter()
                    .map(|p| p[j])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let governor_hv = hypervolume(points, &point);
        if !(governor_hv.is_finite() && governor_hv > 0.0) {
            return Err(format!("stock governors span no hypervolume against {point:?}").into());
        }
        Ok(PhvReference { point, governor_hv })
    }

    /// Hypervolume of `front` divided by the stock governors' hypervolume.
    pub fn ratio(&self, front: Vec<Vec<f64>>) -> f64 {
        hypervolume(front, &self.point) / self.governor_hv
    }
}

/// One search of a workload: its configuration, evaluator and PHV reference.
pub struct Search {
    /// Job id (fleet) or application set name.
    pub id: &'static str,
    pub config: ParmisConfig,
    pub evaluator: Box<dyn PolicyEvaluator + Sync>,
    pub retry_stats: Arc<RetryStats>,
    /// Simulator runs per evaluation.
    pub applications: usize,
    pub reference: PhvReference,
    benchmark: Option<Benchmark>,
}

impl Search {
    fn new(
        id: &'static str,
        config: ParmisConfig,
        evaluator: SocEvaluator,
        benchmark: Option<Benchmark>,
    ) -> Res<Search> {
        let reference = PhvReference::from_governors(evaluator.applications())?;
        Ok(Search {
            id,
            config,
            retry_stats: evaluator.retry_stats(),
            applications: evaluator.applications().len(),
            evaluator: Box::new(evaluator),
            reference,
            benchmark,
        })
    }

    fn global(config: ParmisConfig) -> Res<Search> {
        let evaluator = GlobalEvaluator::all_benchmarks(OBJECTIVES.to_vec());
        let soc = evaluator.as_soc_evaluator();
        let reference = PhvReference::from_governors(soc.applications())?;
        Ok(Search {
            id: "global",
            config,
            retry_stats: soc.retry_stats(),
            applications: soc.applications().len(),
            evaluator: Box::new(evaluator),
            reference,
            benchmark: None,
        })
    }

    /// Runs `f` against this search's evaluator as the search sees it: wrapped in a
    /// `ParallelEvaluator` when the configuration asks for more than one worker.
    pub fn with_evaluator<R>(&self, f: impl FnOnce(&dyn PolicyEvaluator) -> R) -> R {
        if self.config.num_workers > 1 {
            f(&ParallelEvaluator::new(
                &*self.evaluator,
                self.config.num_workers,
            ))
        } else {
            f(&*self.evaluator)
        }
    }

    /// Evaluation failures of this search's evaluator so far.
    pub fn eval_failures(&self) -> u64 {
        failures(&self.retry_stats)
    }
}

/// Retries, degraded runs and contained panics recorded by an evaluator.
fn failures(stats: &RetryStats) -> u64 {
    (stats.retries() + stats.degraded_runs() + stats.contained_panics()) as u64
}

/// The evaluator of one `fleet_resume` job (built per segment by the supervisor too).
fn fleet_evaluator(benchmark: Benchmark) -> parmis::Result<SocEvaluator> {
    SocEvaluator::builder()
        .benchmark(benchmark)
        .objectives(OBJECTIVES.to_vec())
        .precision(Precision::Fast)
        .build()
}

fn fleet_supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        workers: 1,
        segment_fuel: 20,
        checkpoint_every: 4,
        ..SupervisorConfig::default()
    }
}

/// What the set-up builds: everything the timed part needs.
pub struct Fixture {
    pub searches: Vec<Search>,
    /// The opened supervisor and its store directory (`fleet_resume` only).
    pub fleet: Option<(JobSupervisor, PathBuf)>,
}

impl Fixture {
    /// The set-up: evaluator and platform construction, the stock-governor reference
    /// runs, and (for `fleet_resume`) opening a supervisor on the fresh directory `store`.
    pub fn build(workload: Workload, seed: u64, store: &Path) -> Res<Fixture> {
        let budget = |iterations, batch, threads| ExperimentBudget {
            parmis_iterations: iterations,
            parmis_batch: batch,
            threads,
            ..ExperimentBudget::standard()
        };
        let (searches, fleet) = match workload {
            Workload::AppSeq => {
                let config = budget(100, 1, 1).parmis_config(seed);
                let evaluator = SocEvaluator::builder()
                    .benchmark(Benchmark::Spectral)
                    .objectives(OBJECTIVES.to_vec())
                    .build()?;
                let search = Search::new("spectral", config, evaluator, Some(Benchmark::Spectral))?;
                (vec![search], None)
            }
            Workload::GlobalLong => {
                let config = budget(300, 4, 2).parmis_config(seed);
                (vec![Search::global(config)?], None)
            }
            Workload::FleetResume => {
                let mut searches = Vec::new();
                for (i, benchmark) in FLEET_APPS.into_iter().enumerate() {
                    let mut config = budget(100, 4, 1).parmis_config(seed.wrapping_add(i as u64));
                    config.precision = Precision::Fast;
                    let evaluator = fleet_evaluator(benchmark)?;
                    searches.push(Search::new(
                        benchmark.name(),
                        config,
                        evaluator,
                        Some(benchmark),
                    )?);
                }
                if store.exists() {
                    return Err(format!(
                        "store directory {} already exists; fleet_resume needs a fresh one",
                        store.display()
                    )
                    .into());
                }
                let supervisor = JobSupervisor::open(store, fleet_supervisor_config())?;
                (searches, Some((supervisor, store.to_path_buf())))
            }
        };
        Ok(Fixture { searches, fleet })
    }

    /// Removes the fleet store directory, if any.
    pub fn cleanup(self) -> Res<()> {
        if let Some((supervisor, dir)) = self.fleet {
            drop(supervisor);
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(())
    }

    /// The timed part with tracing off: one search (`app_seq`, `global_long`) or the whole
    /// supervised fleet (`fleet_resume`).
    pub fn run_untraced(&mut self) -> Res<Measured> {
        let rounds = Arc::new(Mutex::new(Vec::new()));
        let (wall, outcomes, fleet) = match &mut self.fleet {
            None => {
                let started = Instant::now();
                let mut outcomes = Vec::new();
                for search in &self.searches {
                    let parmis = Parmis::new(search.config.clone());
                    let outcome = search.with_evaluator(|evaluator| {
                        parmis.run(&RoundClock::fresh(evaluator, Arc::clone(&rounds)))
                    })?;
                    outcomes.push(outcome);
                }
                (started.elapsed(), outcomes, None)
            }
            Some((supervisor, dir)) => {
                let (wall, outcomes, stats) = run_fleet(supervisor, dir, &self.searches, &rounds)?;
                (wall, outcomes, Some(stats))
            }
        };
        let failures = match &fleet {
            None => self.searches.iter().map(Search::eval_failures).sum(),
            Some(stats) => stats.eval_failures + stats.quarantined as u64,
        };
        let rounds_ms = Arc::try_unwrap(rounds)
            .map_err(|_| "round clocks outlived the search")?
            .into_inner()?;
        Ok(Measured {
            wall,
            rounds_ms,
            outcomes,
            failures,
            fleet,
        })
    }

    /// Runs every search once, uninterrupted and untraced, with plain `Parmis::run`.
    pub fn run_uninterrupted(&self) -> Res<(Duration, Vec<ParmisOutcome>)> {
        let started = Instant::now();
        let mut outcomes = Vec::new();
        for search in &self.searches {
            let parmis = Parmis::new(search.config.clone());
            outcomes.push(search.with_evaluator(|evaluator| parmis.run(evaluator))?);
        }
        Ok((started.elapsed(), outcomes))
    }
}

/// Supervisor-side facts of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetStats {
    pub segments: usize,
    pub quarantined: usize,
    pub store_writes: u64,
    pub store_bytes: u64,
    pub eval_failures: u64,
}

fn run_fleet(
    supervisor: &mut JobSupervisor,
    dir: &Path,
    searches: &[Search],
    rounds: &Arc<Mutex<Vec<f64>>>,
) -> Res<(Duration, Vec<ParmisOutcome>, FleetStats)> {
    let specs: Vec<JobSpec> = searches
        .iter()
        .map(|s| JobSpec::new(s.id, s.config.clone()))
        .collect();
    let started_jobs = Mutex::new(HashSet::new());
    let retry_stats = Mutex::new(Vec::new());
    let started = Instant::now();
    let report = supervisor.run(&specs, |spec| {
        let search = searches
            .iter()
            .find(|s| s.id == spec.id)
            .expect("every spec comes from a search");
        let evaluator = fleet_evaluator(search.benchmark.expect("fleet jobs have one app"))?;
        retry_stats
            .lock()
            .expect("no factory panics while holding the lock")
            .push(evaluator.retry_stats());
        // A job's first segment starts fresh: its initial design only sets the round clock.
        // Later segments resume, and their first round counts from the segment start.
        let fresh = started_jobs
            .lock()
            .expect("no factory panics while holding the lock")
            .insert(spec.id.clone());
        let rounds = Arc::clone(rounds);
        let clock = if fresh {
            RoundClock::fresh(evaluator, rounds)
        } else {
            RoundClock::resumed(evaluator, rounds)
        };
        Ok(Box::new(clock) as Box<dyn PolicyEvaluator>)
    })?;
    let wall = started.elapsed();

    if !report.all_done() {
        return Err("a fleet job did not reach `Done`".into());
    }
    let segments = report.jobs.iter().map(|j| j.segments).sum();
    let outcomes = report
        .jobs
        .into_iter()
        .map(|j| j.outcome.ok_or("a finished job carries no outcome"))
        .collect::<Result<Vec<_>, _>>()?;
    let quarantined = std::fs::read_dir(supervisor.store().quarantine_dir())?.count()
        + supervisor.recovery().quarantined.len();
    let eval_failures = retry_stats.into_inner()?.iter().map(|s| failures(s)).sum();
    let stats = FleetStats {
        segments,
        quarantined,
        store_writes: supervisor.store().writes(),
        store_bytes: dir_bytes(dir)?,
        eval_failures,
    };
    Ok((wall, outcomes, stats))
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// What one untraced timed part measured.
pub struct Measured {
    pub wall: Duration,
    /// Latency of every model-guided round, in milliseconds.
    pub rounds_ms: Vec<f64>,
    /// One outcome per search, in search order.
    pub outcomes: Vec<ParmisOutcome>,
    /// Evaluations that errored, retried or degraded, plus quarantined store files.
    pub failures: u64,
    pub fleet: Option<FleetStats>,
}
