//! The seed acquisition-sampling path, preserved verbatim as a benchmarking baseline.
//!
//! The flat-buffer batched engine (`moo::nsga2::Nsga2Engine` +
//! `gp::PosteriorSample::eval_batch_into`, driven by `parmis::pareto_sampling`) replaced the
//! original per-point loop, which stored populations as `Vec<Vec<f64>>`, re-allocated the
//! offspring block, the combined population, the non-dominated-sort adjacency lists and the
//! per-front crowding clones on every generation, and answered every candidate with
//! `population × k` independent random-feature recomputations. That seed loop is reproduced
//! here — same RNG consumption, same floating-point operation order, against the same
//! public `moo::dominance` and `gp` APIs — so the release timing gates can measure the
//! flat engine against the exact code it replaced, and the `acq_equivalence` proptest
//! suite can pin that the rewrite is bit-identical.
//!
//! This module is **not** a supported optimization API: use [`moo::nsga2::Nsga2`] (or the
//! batched [`moo::nsga2::Nsga2Engine`]) and [`parmis::pareto_sampling`] for real work.

use gp::{GaussianProcess, PosteriorSample, RffSampler};
use moo::dominance::{crowding_distance, fast_non_dominated_sort};
use moo::nsga2::{
    FlatPopulation, Nsga2Config, Population, CROSSOVER_ETA, CROSSOVER_PROBABILITY, MUTATION_ETA,
};
use parmis::pareto_sampling::ParetoSamplingConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed `Nsga2::run`: nested-`Vec` populations, per-point evaluation, per-generation
/// allocation of offspring/combined/rank/crowding buffers.
///
/// # Panics
///
/// Panics exactly as the seed did: empty/odd configurations are the caller's problem (the
/// fixtures mirror `Nsga2::new`-validated inputs), and the objective function must return a
/// consistent, non-zero number of objectives.
pub fn nsga2_run_seed<F: FnMut(&[f64]) -> Vec<f64>>(
    lower: &[f64],
    upper: &[f64],
    config: &Nsga2Config,
    mut evaluate: F,
) -> Population {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let dim = lower.len();
    let pop_size = config.population_size;
    let mutation_p = 1.0 / dim as f64;

    let mut decisions: Vec<Vec<f64>> = (0..pop_size)
        .map(|_| {
            (0..dim)
                .map(|d| {
                    if lower[d] == upper[d] {
                        // The one divergence from the seed: the seed panicked on an empty
                        // `gen_range`; the fixed coordinate is pinned instead, mirroring
                        // the engine so degenerate-bound problems stay comparable.
                        lower[d]
                    } else {
                        rng.gen_range(lower[d]..upper[d])
                    }
                })
                .collect()
        })
        .collect();
    let mut objectives: Vec<Vec<f64>> = decisions.iter().map(|x| evaluate(x)).collect();
    let n_obj = objectives[0].len();
    assert!(
        n_obj > 0,
        "objective function must return at least one value"
    );
    assert!(
        objectives.iter().all(|o| o.len() == n_obj),
        "objective function returned inconsistent dimensions"
    );

    for _gen in 0..config.generations {
        // --- selection + variation -> offspring of the same size
        let ranks = fast_non_dominated_sort(&objectives);
        let crowding = per_front_crowding_seed(&objectives, &ranks);

        let mut offspring: Vec<Vec<f64>> = Vec::with_capacity(pop_size);
        while offspring.len() < pop_size {
            let p1 = tournament_seed(&mut rng, &ranks, &crowding);
            let p2 = tournament_seed(&mut rng, &ranks, &crowding);
            let (mut c1, mut c2) =
                crossover_seed(&mut rng, lower, upper, &decisions[p1], &decisions[p2]);
            mutate_seed(&mut rng, lower, upper, &mut c1, mutation_p);
            mutate_seed(&mut rng, lower, upper, &mut c2, mutation_p);
            offspring.push(c1);
            if offspring.len() < pop_size {
                offspring.push(c2);
            }
        }
        let offspring_obj: Vec<Vec<f64>> = offspring.iter().map(|x| evaluate(x)).collect();

        // --- environmental selection over parents + offspring
        let mut combined_dec = decisions;
        combined_dec.extend(offspring);
        let mut combined_obj = objectives;
        combined_obj.extend(offspring_obj);

        let ranks = fast_non_dominated_sort(&combined_obj);
        let crowding = per_front_crowding_seed(&combined_obj, &ranks);
        let mut order: Vec<usize> = (0..combined_dec.len()).collect();
        order.sort_by(|&a, &b| {
            ranks[a].cmp(&ranks[b]).then(
                crowding[b]
                    .partial_cmp(&crowding[a])
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        order.truncate(pop_size);

        decisions = order.iter().map(|&i| combined_dec[i].clone()).collect();
        objectives = order.iter().map(|&i| combined_obj[i].clone()).collect();
    }

    Population {
        decisions,
        objectives,
    }
}

/// The seed SBX crossover: allocates both children per mating pair.
fn crossover_seed(
    rng: &mut StdRng,
    lower: &[f64],
    upper: &[f64],
    p1: &[f64],
    p2: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let mut c1 = p1.to_vec();
    let mut c2 = p2.to_vec();
    if rng.gen::<f64>() > CROSSOVER_PROBABILITY {
        return (c1, c2);
    }
    let eta = CROSSOVER_ETA;
    for d in 0..p1.len() {
        if rng.gen::<f64>() > 0.5 {
            continue;
        }
        let (x1, x2) = (p1[d].min(p2[d]), p1[d].max(p2[d]));
        if (x2 - x1).abs() < 1e-14 {
            continue;
        }
        let u: f64 = rng.gen();
        let beta = if u <= 0.5 {
            (2.0 * u).powf(1.0 / (eta + 1.0))
        } else {
            (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (eta + 1.0))
        };
        let v1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
        let v2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
        c1[d] = v1.clamp(lower[d], upper[d]);
        c2[d] = v2.clamp(lower[d], upper[d]);
    }
    (c1, c2)
}

/// The seed polynomial mutation.
fn mutate_seed(rng: &mut StdRng, lower: &[f64], upper: &[f64], x: &mut [f64], probability: f64) {
    let eta = MUTATION_ETA;
    for (d, xd) in x.iter_mut().enumerate() {
        if rng.gen::<f64>() > probability {
            continue;
        }
        let (lo, hi) = (lower[d], upper[d]);
        let span = hi - lo;
        let u: f64 = rng.gen();
        let delta = if u < 0.5 {
            (2.0 * u).powf(1.0 / (eta + 1.0)) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta + 1.0))
        };
        *xd = (*xd + delta * span).clamp(lo, hi);
    }
}

/// The seed per-front crowding: clones every front's points before scoring them.
fn per_front_crowding_seed(objectives: &[Vec<f64>], ranks: &[usize]) -> Vec<f64> {
    let mut crowding = vec![0.0; objectives.len()];
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for front in 0..=max_rank {
        let members: Vec<usize> = ranks
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == front)
            .map(|(i, _)| i)
            .collect();
        let pts: Vec<Vec<f64>> = members.iter().map(|&i| objectives[i].clone()).collect();
        let d = crowding_distance(&pts);
        for (idx, &member) in members.iter().enumerate() {
            crowding[member] = d[idx];
        }
    }
    crowding
}

/// The seed binary tournament on (rank, crowding distance).
fn tournament_seed(rng: &mut StdRng, ranks: &[usize], crowding: &[f64]) -> usize {
    let n = ranks.len();
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n);
    if ranks[a] < ranks[b] {
        a
    } else if ranks[b] < ranks[a] {
        b
    } else if crowding[a] >= crowding[b] {
        a
    } else {
        b
    }
}

/// The shared fixture of the release timing gates and the allocation contracts: two
/// 3-dimensional GP models with opposing trends (a genuine model Pareto trade-off), fitted
/// on a deterministic design. Keeping it here (next to the seed baseline) keeps them all on
/// the same problem.
pub fn probe_models() -> Vec<GaussianProcess> {
    let dim = 3;
    let xs: Vec<Vec<f64>> = (0..30)
        .map(|i| {
            let t = i as f64 / 29.0 * 6.0 - 3.0;
            (0..dim)
                .map(|d| t * (1.0 - 0.3 * d as f64) + 0.15 * d as f64)
                .collect()
        })
        .collect();
    let y1: Vec<f64> = xs.iter().map(|x| x[0] + 0.1 * x[2] + 0.05 * x[1]).collect();
    let y2: Vec<f64> = xs.iter().map(|x| -x[0] + 0.2 * x[1]).collect();
    let kernel = gp::kernel::Kernel::matern52(1.0, 2.0);
    vec![
        GaussianProcess::fit(xs.clone(), y1, kernel.clone(), 1e-4).expect("valid fit"),
        GaussianProcess::fit(xs, y2, kernel, 1e-4).expect("valid fit"),
    ]
}

/// The sampling configuration the gates and the allocation contracts run: 200 random features,
/// a 40-individual population evolved for 30 generations — the shape named by the
/// acquisition speed contract.
pub fn probe_sampling_config() -> ParetoSamplingConfig {
    ParetoSamplingConfig {
        rff_features: 200,
        nsga_population: 40,
        nsga_generations: 30,
    }
}

/// The NSGA-II *machinery* probe of the acquisition gate: a 6-D box and a
/// near-free bi-objective so the measurement isolates population storage, sorting,
/// crowding, selection and variation. Returns `(lower, upper, config)` at the contract
/// shape (40-pop/30-gen).
pub fn probe_machinery_problem() -> (Vec<f64>, Vec<f64>, Nsga2Config) {
    let dim = 6;
    (
        vec![-2.0; dim],
        vec![2.0; dim],
        Nsga2Config {
            population_size: probe_sampling_config().nsga_population,
            generations: probe_sampling_config().nsga_generations,
            seed: 21,
        },
    )
}

/// The machinery probe's objective through the seed interface, which forces one
/// `Vec<f64>` per evaluated point.
pub fn probe_machinery_eval(x: &[f64]) -> Vec<f64> {
    vec![
        x.iter().map(|v| v * v).sum(),
        x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum(),
    ]
}

/// The machinery probe's objective through the batched interface, writing straight into
/// the flat objective block (each path pays exactly the cost its interface imposes).
pub fn probe_machinery_eval_flat(points: &FlatPopulation<'_>, out: &mut [f64]) {
    for i in 0..points.count() {
        let (mut o1, mut o2) = (0.0, 0.0);
        for v in points.row(i) {
            o1 += v * v;
            o2 += (v - 1.0) * (v - 1.0);
        }
        out[2 * i] = o1;
        out[2 * i + 1] = o2;
    }
}

/// A seed-path Pareto-front sample: same fields as
/// [`parmis::pareto_sampling::ParetoFrontSample`], kept separate so the baseline never
/// routes through the rewritten constructor.
#[derive(Debug, Clone)]
pub struct SeedFrontSample {
    /// Objective vectors of the sampled front (minimization).
    pub front: Vec<Vec<f64>>,
    /// Per-objective minimum over the sampled front.
    pub per_objective_best: Vec<f64>,
}

/// The seed RFF samplers of `ParetoFrontSampler::new`: one per objective model, with the
/// seed's exact per-objective seed derivation.
///
/// # Panics
///
/// Panics if RFF construction fails (mirrors the fixtures' `unwrap`, not seed behaviour).
pub fn build_seed_samplers(
    models: &[GaussianProcess],
    rff_features: usize,
    seed: u64,
) -> Vec<RffSampler> {
    models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            RffSampler::new(m, rff_features, seed.wrapping_add(i as u64 * 0x9e37))
                .expect("valid RFF construction")
        })
        .collect()
}

/// The seed `ParetoFrontSampler::sample`: draw one posterior function per objective, solve
/// the cheap multi-objective problem with the seed NSGA-II loop evaluating every candidate
/// point-by-point, and reduce the resulting front.
pub fn sample_front_seed(
    samplers: &[RffSampler],
    parameter_bound: f64,
    config: &ParetoSamplingConfig,
    sample_seed: u64,
) -> SeedFrontSample {
    let dim = samplers[0].dim();
    let functions: Vec<PosteriorSample> = samplers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.sample(sample_seed.wrapping_add(i as u64 * 7919))
                .expect("valid posterior sample")
        })
        .collect();

    let nsga_config = Nsga2Config {
        population_size: config.nsga_population.max(4) & !1,
        generations: config.nsga_generations.max(1),
        seed: sample_seed ^ 0xD1CE,
    };
    let lower = vec![-parameter_bound; dim];
    let upper = vec![parameter_bound; dim];
    let population = nsga2_run_seed(&lower, &upper, &nsga_config, |theta| {
        functions.iter().map(|f| f.eval(theta)).collect()
    });
    let front = population.pareto_front();

    let k = samplers.len();
    let mut per_objective_best = vec![f64::INFINITY; k];
    for point in &front {
        for (best, v) in per_objective_best.iter_mut().zip(point) {
            *best = best.min(*v);
        }
    }
    SeedFrontSample {
        front,
        per_objective_best,
    }
}
