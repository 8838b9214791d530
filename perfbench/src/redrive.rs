//! The traced run: Algorithm 1 re-driven step by step through the layers' public
//! functions, with a span around every call, the way `Parmis::drive` calls them.
//!
//! The re-drive mirrors private details of `crates/parmis/src/framework.rs`: the
//! hyperparameter grid and its lengthscale scaling, the refit cadence, the target
//! standardization, the incremental-update fallback, and the seed mixing of the sampler,
//! the front samples, NSGA-II and the acquisition. If any of them drifts, the traced
//! history stops matching the untraced one and the benchmark fails instead of reporting
//! numbers for a different computation.

use crate::trace::{Layer, Trace};
use crate::workload::{Res, Search};
use gp::hyperopt::{fit_with_hyperopt, HyperoptConfig};
use gp::{GaussianProcess, PosteriorSample, RffSampler, WeightScratch};
use moo::nsga2::{Nsga2, Nsga2Config, Nsga2Engine};
use moo::ParetoFront;
use parmis::acquisition::AcquisitionOptimizer;
use parmis::checkpoint::{record_hash, TRACE_HASH_SEED};
use parmis::evaluation::PolicyEvaluator;
use parmis::framework::{IterationRecord, ParmisConfig};
use parmis::pareto_sampling::ParetoFrontSample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The library's process-global operation counters (`gp::stats`, `moo::stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LibraryCounts {
    pub gp: gp::stats::OpCounts,
    pub moo: moo::stats::OpCounts,
}

impl LibraryCounts {
    /// Resets the counters before the work they should count. Each workload runs in a
    /// process of its own and its passes run one after another, so the values read
    /// afterwards count exactly that work.
    pub fn reset() {
        gp::stats::reset();
        moo::stats::reset();
    }

    /// The counters' values since the last reset.
    pub fn read() -> LibraryCounts {
        LibraryCounts {
            gp: gp::stats::snapshot(),
            moo: moo::stats::snapshot(),
        }
    }
}

/// Operation counts of one traced pass: the library's counters plus the ones the
/// benchmark counts at the layer boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub library: LibraryCounts,
    pub evaluations: u64,
    pub sim_runs: u64,
    /// Evaluations retried, degraded or panicked (`RetryStats`).
    pub eval_failures: u64,
    pub rff_builds: u64,
    /// Multiply-adds ×2 of the `frequencies × Xᵀ` products inside `eval_batch_into`.
    pub rff_flop: u64,
    pub candidates_scored: u64,
}

/// One traced pass over every search of a workload.
pub struct TracedPass {
    pub wall: Duration,
    pub trace: Trace,
    pub counts: Counts,
    /// Per search: the history and its trace-hash chain.
    pub histories: Vec<(Vec<IterationRecord>, Vec<u64>)>,
}

/// Runs every search once through the traced re-drive.
pub fn traced_pass(searches: &[Search]) -> Res<TracedPass> {
    let failures_before: u64 = searches.iter().map(Search::eval_failures).sum();
    let mut trace = Trace::default();
    let mut counts = Counts::default();
    LibraryCounts::reset();
    let started = Instant::now();
    let mut histories = Vec::new();
    for search in searches {
        let replayed = search.with_evaluator(|evaluator| {
            redrive(
                &search.config,
                evaluator,
                search.applications,
                &mut trace,
                &mut counts,
            )
        })?;
        histories.push(replayed);
    }
    let wall = started.elapsed();
    counts.library = LibraryCounts::read();
    counts.eval_failures =
        searches.iter().map(Search::eval_failures).sum::<u64>() - failures_before;
    Ok(TracedPass {
        wall,
        trace,
        counts,
        histories,
    })
}

/// Reusable solver state across rounds, as `AcquisitionScratch` keeps it.
#[derive(Default)]
struct Scratch {
    engine: Nsga2Engine,
    weights: WeightScratch,
    column: Vec<f64>,
    pareto: Vec<usize>,
}

fn redrive(
    cfg: &ParmisConfig,
    evaluator: &dyn PolicyEvaluator,
    applications: usize,
    trace: &mut Trace,
    counts: &mut Counts,
) -> Res<(Vec<IterationRecord>, Vec<u64>)> {
    let dim = evaluator.parameter_dim();
    let bound = evaluator.parameter_bound();
    let k = evaluator.objectives().len();
    let search_span = trace.open(Layer::Search);

    // Initial design (Algorithm 1, line 1).
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut history: Vec<IterationRecord> = Vec::with_capacity(cfg.max_iterations);
    let mut hashes: Vec<u64> = Vec::with_capacity(cfg.max_iterations);
    let mut front: ParetoFront<Vec<f64>> = ParetoFront::new(k);
    let initial = cfg.initial_samples.min(cfg.max_iterations).max(2);
    let initial_thetas: Vec<Vec<f64>> = (0..initial)
        .map(|_| (0..dim).map(|_| rng.gen_range(-bound..bound)).collect())
        .collect();
    let values = evaluate(evaluator, &initial_thetas, applications, trace, counts)?;
    let rng_words = rng.state();
    let mut record = |history: &mut Vec<IterationRecord>, r: IterationRecord| {
        let previous = hashes.last().copied().unwrap_or(TRACE_HASH_SEED);
        hashes.push(record_hash(previous, &r, &rng_words));
        history.push(r);
    };
    for (i, (theta, objectives)) in initial_thetas.into_iter().zip(values).enumerate() {
        check_objective_vector(&objectives, k)?;
        front.insert(objectives.clone(), theta.clone());
        record(
            &mut history,
            IterationRecord {
                iteration: i,
                theta,
                objectives,
                acquisition_value: None,
            },
        );
    }

    // Model-guided rounds (Algorithm 1, lines 2-8).
    let mut models: Option<Vec<GaussianProcess>> = None;
    let mut scratch = Scratch::default();
    let mut stale = 0usize;
    let mut iteration = history.len();
    'rounds: while iteration < cfg.max_iterations {
        let round_span = trace.open(Layer::Round);
        let q = cfg.batch_size.min(cfg.max_iterations - iteration).max(1);
        let xs: Vec<Vec<f64>> = history.iter().map(|r| r.theta.clone()).collect();
        fit_models(
            cfg,
            &xs,
            &history,
            dim,
            bound,
            iteration,
            &mut models,
            trace,
        )?;
        let fitted = models.as_deref().expect("fit_models fills the cache");
        let samples = sample_fronts(
            cfg,
            fitted,
            dim,
            bound,
            iteration,
            &mut scratch,
            trace,
            counts,
        )?;

        let incumbents: Vec<Vec<f64>> = front.tags().into_iter().cloned().collect();
        let span = trace.open(Layer::Acquisition);
        let optimizer = AcquisitionOptimizer::new(dim, bound, cfg.acquisition.clone());
        let selected = optimizer.maximize_batch(
            fitted,
            &samples,
            &incumbents,
            q,
            cfg.seed ^ (iteration as u64).wrapping_mul(0xB5297A4D),
        )?;
        trace.close(span);
        counts.candidates_scored += (cfg.acquisition.random_candidates
            + if incumbents.is_empty() {
                0
            } else {
                cfg.acquisition.local_candidates
            }) as u64;

        let thetas: Vec<Vec<f64>> = selected.iter().map(|(theta, _)| theta.clone()).collect();
        let values = evaluate(evaluator, &thetas, applications, trace, counts)?;
        let evaluated = selected.len();
        for (slot, ((theta, acquisition), objectives)) in
            selected.into_iter().zip(values).enumerate()
        {
            check_objective_vector(&objectives, k)?;
            let improved = front.insert(objectives.clone(), theta.clone());
            record(
                &mut history,
                IterationRecord {
                    iteration: iteration + slot,
                    theta,
                    objectives,
                    acquisition_value: Some(acquisition),
                },
            );
            stale = if improved { 0 } else { stale + 1 };
            if cfg.convergence_window > 0 && stale >= cfg.convergence_window {
                trace.close(round_span);
                break 'rounds;
            }
        }
        iteration += evaluated;
        trace.close(round_span);
    }
    trace.close(search_span);
    Ok((history, hashes))
}

fn evaluate(
    evaluator: &dyn PolicyEvaluator,
    thetas: &[Vec<f64>],
    applications: usize,
    trace: &mut Trace,
    counts: &mut Counts,
) -> Res<Vec<Vec<f64>>> {
    let span = trace.open(Layer::Evaluation);
    let values = evaluator.evaluate_batch(thetas)?;
    trace.close(span);
    counts.evaluations += thetas.len() as u64;
    counts.sim_runs += (thetas.len() * applications) as u64;
    Ok(values)
}

fn check_objective_vector(v: &[f64], k: usize) -> Res<()> {
    if v.len() != k || v.iter().any(|x| !x.is_finite()) {
        return Err(format!("evaluator returned an invalid objective vector {v:?}").into());
    }
    Ok(())
}

/// Algorithm 1, line 3: one GP per objective on standardized targets, refit with
/// hyperparameter search on the refit cadence and extended incrementally in between.
#[allow(clippy::too_many_arguments)]
fn fit_models(
    cfg: &ParmisConfig,
    xs: &[Vec<f64>],
    history: &[IterationRecord],
    dim: usize,
    bound: f64,
    iteration: usize,
    cache: &mut Option<Vec<GaussianProcess>>,
    trace: &mut Trace,
) -> Res<()> {
    let refit = cache.is_none()
        || iteration.saturating_sub(cfg.initial_samples) % cfg.refit_hyperparameters_every == 0;
    let previous = cache.take();
    let k = history[0].objectives.len();
    let mut models = Vec::with_capacity(k);
    for j in 0..k {
        let raw: Vec<f64> = history.iter().map(|r| r.objectives[j]).collect();
        let mean = linalg::vector::mean(&raw);
        let std = linalg::vector::std_dev(&raw).max(1e-9);
        let ys: Vec<f64> = raw.iter().map(|y| (y - mean) / std).collect();
        if refit {
            let span = trace.open(Layer::Hyperopt);
            let typical_distance = bound * (2.0 * dim as f64 / 3.0).sqrt();
            let config = HyperoptConfig {
                family: cfg.kernel_family,
                lengthscales: [0.25, 0.5, 1.0, 2.0]
                    .iter()
                    .map(|f| f * typical_distance)
                    .collect(),
                signal_variances: vec![0.5, 1.0, 2.0],
                noise_variances: vec![1e-4, 1e-2],
                refinement_passes: 1,
            };
            let fitted = fit_with_hyperopt(xs.to_vec(), ys, &config)?;
            trace.close(span);
            models.push(fitted.model);
        } else {
            let prev = &previous.as_ref().expect("cache present when not refitting")[j];
            let span = trace.open(Layer::Extend);
            let model = match prev.with_observations_and_targets(&xs[prev.len()..], ys.clone()) {
                Ok(model) => model,
                Err(_) => GaussianProcess::fit(
                    xs.to_vec(),
                    ys,
                    prev.kernel().clone(),
                    prev.noise_variance(),
                )?,
            };
            trace.close(span);
            models.push(model);
        }
    }
    *cache = Some(models);
    Ok(())
}

/// Algorithm 1, line 4 (part 1): RFF posterior samplers, then one NSGA-II solve per
/// Pareto-front sample.
#[allow(clippy::too_many_arguments)]
fn sample_fronts(
    cfg: &ParmisConfig,
    models: &[GaussianProcess],
    dim: usize,
    bound: f64,
    iteration: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    counts: &mut Counts,
) -> Res<Vec<ParetoFrontSample>> {
    let sampler_seed = cfg.seed ^ (iteration as u64).wrapping_mul(0x9e3779b97f4a7c15);
    let mut samplers = Vec::with_capacity(models.len());
    for (i, model) in models.iter().enumerate() {
        let span = trace.open(Layer::RffBuild);
        let sampler = RffSampler::new(
            model,
            cfg.sampling.rff_features,
            sampler_seed.wrapping_add(i as u64 * 0x9e37),
        )?
        .with_precision(cfg.precision);
        trace.close(span);
        counts.rff_builds += 1;
        samplers.push(sampler);
    }
    let base_seed = cfg.seed ^ (iteration as u64) << 8;
    (0..cfg.num_pareto_samples)
        .map(|s| {
            let sample_seed = base_seed.wrapping_add(s as u64 * 104729);
            sample_front(
                cfg,
                &samplers,
                dim,
                bound,
                sample_seed,
                scratch,
                trace,
                counts,
            )
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn sample_front(
    cfg: &ParmisConfig,
    samplers: &[RffSampler],
    dim: usize,
    bound: f64,
    sample_seed: u64,
    scratch: &mut Scratch,
    trace: &mut Trace,
    counts: &mut Counts,
) -> Res<ParetoFrontSample> {
    let Scratch {
        engine,
        weights,
        column,
        pareto,
    } = scratch;
    let mut functions: Vec<PosteriorSample> = Vec::with_capacity(samplers.len());
    for (i, sampler) in samplers.iter().enumerate() {
        let span = trace.open(Layer::RffDraw);
        functions.push(sampler.sample_with(sample_seed.wrapping_add(i as u64 * 7919), weights)?);
        trace.close(span);
    }

    let span = trace.open(Layer::Nsga2);
    let nsga_config = Nsga2Config {
        population_size: cfg.sampling.nsga_population.max(4) & !1,
        generations: cfg.sampling.nsga_generations.max(1),
        seed: sample_seed ^ 0xD1CE,
        ..Default::default()
    };
    let solver = Nsga2::new(vec![-bound; dim], vec![bound; dim], nsga_config)?;
    let k = functions.len();
    let features = cfg.sampling.rff_features as u64;
    engine.solve(&solver, k, |points, out| {
        for (j, f) in functions.iter().enumerate() {
            column.clear();
            column.resize(points.count(), 0.0);
            let eval_span = trace.open(Layer::RffEval);
            f.eval_batch_into(points.as_slice(), column);
            trace.close(eval_span);
            counts.rff_flop += 2 * features * (points.count() * dim) as u64;
            for (p, v) in column.iter().enumerate() {
                out[p * k + j] = *v;
            }
        }
    });
    trace.close(span);

    engine.pareto_indices_into(pareto);
    let objectives = engine.objectives();
    let front: Vec<Vec<f64>> = pareto
        .iter()
        .map(|&i| objectives[i * k..(i + 1) * k].to_vec())
        .collect();
    Ok(ParetoFrontSample::from_front(front)?)
}

/// Whether two histories are identical bit for bit.
pub fn same_history(a: &[IterationRecord], b: &[IterationRecord]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.iteration == y.iteration
                && bits(&x.theta) == bits(&y.theta)
                && bits(&x.objectives) == bits(&y.objectives)
                && x.acquisition_value.map(f64::to_bits) == y.acquisition_value.map(f64::to_bits)
        })
}
