//! NSGA-II (Deb et al., 2002) for continuous box-constrained multi-objective problems.
//!
//! PaRMIS uses NSGA-II to solve the *cheap* multi-objective problem over functions sampled
//! from the GP posteriors (paper §IV-B step 1); the RL/IL baselines and ablations reuse it as
//! a generic Pareto solver. The algorithm is the textbook one: fast non-dominated sorting,
//! crowding distance, binary tournament selection, simulated binary crossover (SBX) and
//! polynomial mutation.
//!
//! # Flat-buffer evolution engine
//!
//! The evolutionary loop runs on a scratch-owning [`Nsga2Engine`] that stores decisions and
//! objectives as row-major flat `Vec<f64>` blocks (`[x₀₀ … x₀ᵈ, x₁₀ …]`), reuses every
//! generation buffer — the combined parent+offspring block, ranks, crowding distances,
//! selection order, offspring rows and the non-dominated-sort adjacency scratch — across
//! generations *and* across solves, and evaluates offspring through one batched callback
//! `FnMut(&FlatPopulation, &mut [f64])` per generation instead of a call per point. After
//! the engine's buffers have warmed up (first solve at a given shape), a generation performs
//! **zero heap allocations**; `crates/bench/tests/allocation_contracts.rs` pins this with a
//! counting allocator.
//!
//! Selection order, RNG consumption and floating-point operation order are exactly those of
//! the original per-point loop, so the evolved [`Population`] is bit-identical to the seed
//! implementation for every seed — `bench::seedpath_acq` preserves that loop verbatim and
//! the `acq_equivalence` proptest suite compares the two. [`Nsga2::run`] is a thin adapter
//! that wraps a per-point objective function into the batched callback.
//!
//! The `#[ignore]`d gate in `crates/bench/tests/acq_speed_gate.rs` asserts the ≥2×
//! machinery contract in release mode.

use crate::dominance::{
    fast_non_dominated_sort_flat, non_dominated_indices, non_dominated_indices_flat,
    per_front_crowding_flat, stable_sort_indices, DominanceScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probability of applying SBX crossover to a mating pair.
pub const CROSSOVER_PROBABILITY: f64 = 0.9;
/// SBX distribution index (larger values produce children closer to the parents).
pub const CROSSOVER_ETA: f64 = 15.0;
/// Polynomial-mutation distribution index. Each gene mutates with probability
/// `1 / dimension`.
pub const MUTATION_ETA: f64 = 20.0;

/// Configuration of an NSGA-II run. The variation operators use the fixed
/// [`CROSSOVER_PROBABILITY`], [`CROSSOVER_ETA`] and [`MUTATION_ETA`].
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size (kept constant across generations). Must be even and >= 4.
    pub population_size: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// RNG seed so runs are reproducible.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population_size: 80,
            generations: 60,
            seed: 0x5eed_5eed,
        }
    }
}

/// A solved population: decision vectors and their objective values, plus the Pareto subset.
#[derive(Debug, Clone)]
pub struct Population {
    /// Decision-space points of the final population.
    pub decisions: Vec<Vec<f64>>,
    /// Objective vectors corresponding to [`Self::decisions`].
    pub objectives: Vec<Vec<f64>>,
}

impl Population {
    /// Returns the indices of the non-dominated members.
    pub fn pareto_indices(&self) -> Vec<usize> {
        non_dominated_indices(&self.objectives)
    }

    /// Returns the Pareto-optimal `(decision, objectives)` pairs of the population.
    pub fn pareto_set(&self) -> Vec<(Vec<f64>, Vec<f64>)> {
        self.pareto_indices()
            .into_iter()
            .map(|i| (self.decisions[i].clone(), self.objectives[i].clone()))
            .collect()
    }

    /// Returns only the Pareto-optimal objective vectors.
    pub fn pareto_front(&self) -> Vec<Vec<f64>> {
        self.pareto_indices()
            .into_iter()
            .map(|i| self.objectives[i].clone())
            .collect()
    }
}

/// NSGA-II solver over a box-constrained continuous decision space.
///
/// # Examples
///
/// ```
/// use moo::nsga2::{Nsga2, Nsga2Config};
///
/// // Minimal bi-objective problem: f1 = x², f2 = (x - 2)² over x ∈ [-4, 4].
/// let config = Nsga2Config { population_size: 40, generations: 30, ..Default::default() };
/// let solver = Nsga2::new(vec![-4.0], vec![4.0], config).unwrap();
/// let pop = solver.run(|x| vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)]);
/// // The Pareto set of this problem is x ∈ [0, 2].
/// for (x, _) in pop.pareto_set() {
///     assert!(x[0] > -0.5 && x[0] < 2.5);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Nsga2 {
    lower: Vec<f64>,
    upper: Vec<f64>,
    config: Nsga2Config,
}

impl Nsga2 {
    /// Creates a solver for the box `[lower, upper]`.
    ///
    /// A dimension with `lower[d] == upper[d]` is *degenerate*: the coordinate is pinned to
    /// that value in every individual (no random draw, and crossover/mutation leave it in
    /// place), rather than panicking on an empty sampling range.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string if the bounds are empty, of mismatched length,
    /// inverted (`lower[d] > upper[d]`), or if the configuration is invalid (odd/small
    /// population, zero generations).
    pub fn new(lower: Vec<f64>, upper: Vec<f64>, config: Nsga2Config) -> Result<Self, String> {
        if lower.is_empty() {
            return Err("decision space must have at least one dimension".into());
        }
        if lower.len() != upper.len() {
            return Err(format!(
                "bounds length mismatch: {} vs {}",
                lower.len(),
                upper.len()
            ));
        }
        if lower.iter().zip(&upper).any(|(l, u)| l > u) {
            return Err("every lower bound must not exceed its upper bound".into());
        }
        if config.population_size < 4 || config.population_size % 2 != 0 {
            return Err("population_size must be an even number >= 4".into());
        }
        if config.generations == 0 {
            return Err("generations must be positive".into());
        }
        Ok(Nsga2 {
            lower,
            upper,
            config,
        })
    }

    /// Dimension of the decision space.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Runs the evolutionary loop, evaluating objective vectors with `evaluate`.
    ///
    /// The objective function must return the same number of objectives for every point; this
    /// is asserted on every evaluation. This is a thin per-point adapter over the flat
    /// [`Nsga2Engine`]: use [`run_batched`](Self::run_batched) (or [`Nsga2Engine::solve`]
    /// with a long-lived engine) when a whole population can be answered at once.
    pub fn run<F: FnMut(&[f64]) -> Vec<f64>>(&self, mut evaluate: F) -> Population {
        let mut engine = Nsga2Engine::new();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        engine.init_population(self, &mut rng);

        // Per-point initial evaluation: the objective count is inferred from the first
        // point, exactly like the original loop.
        let pop_size = self.config.population_size;
        let mut initial = Vec::new();
        let mut n_obj = 0usize;
        for i in 0..pop_size {
            let o = evaluate(engine.initial_row(i));
            if i == 0 {
                n_obj = o.len();
                assert!(
                    n_obj > 0,
                    "objective function must return at least one value"
                );
            }
            assert!(
                o.len() == n_obj,
                "objective function returned inconsistent dimensions"
            );
            initial.extend(o);
        }
        engine.install_initial_objectives(n_obj, &initial);

        engine.evolve(
            self,
            &mut rng,
            &mut |points: &FlatPopulation<'_>, out: &mut [f64]| {
                for i in 0..points.count() {
                    let o = evaluate(points.row(i));
                    assert!(
                        o.len() == n_obj,
                        "objective function returned inconsistent dimensions"
                    );
                    out[i * n_obj..(i + 1) * n_obj].copy_from_slice(&o);
                }
            },
        );
        engine.to_population()
    }

    /// Runs the evolutionary loop with a **batched** objective callback on a caller-owned
    /// engine, then materializes the final [`Population`].
    ///
    /// `evaluate` receives every to-be-scored population (initial parents, then one
    /// offspring block per generation) as a [`FlatPopulation`] and must fill the row-major
    /// `count × num_objectives` output block. Reusing `engine` across calls (even across
    /// differently-seeded solves of the same shape) keeps every generation allocation-free.
    pub fn run_batched<F: FnMut(&FlatPopulation<'_>, &mut [f64])>(
        &self,
        engine: &mut Nsga2Engine,
        num_objectives: usize,
        evaluate: F,
    ) -> Population {
        engine.solve(self, num_objectives, evaluate);
        engine.to_population()
    }

    /// Simulated binary crossover (SBX) writing both children in place.
    ///
    /// `c1`/`c2` start as copies of the parents; the per-gene draw order matches the seed
    /// implementation exactly.
    fn crossover_into(
        &self,
        rng: &mut StdRng,
        p1: &[f64],
        p2: &[f64],
        c1: &mut [f64],
        c2: &mut [f64],
    ) {
        c1.copy_from_slice(p1);
        c2.copy_from_slice(p2);
        if rng.gen::<f64>() > CROSSOVER_PROBABILITY {
            return;
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
            c1[d] = v1.clamp(self.lower[d], self.upper[d]);
            c2[d] = v2.clamp(self.lower[d], self.upper[d]);
        }
    }

    /// Polynomial mutation, each gene with probability `1 / dimension`. Degenerate
    /// (pinned) dimensions have zero span, so the mutated coordinate is unchanged.
    fn mutate(&self, rng: &mut StdRng, x: &mut [f64]) {
        let probability = 1.0 / x.len() as f64;
        let eta = MUTATION_ETA;
        for (d, xd) in x.iter_mut().enumerate() {
            if rng.gen::<f64>() > probability {
                continue;
            }
            let (lo, hi) = (self.lower[d], self.upper[d]);
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
}

/// A borrowed, row-major view of a population's decision vectors.
///
/// Row `i` is the decision vector of individual `i`; the backing storage is one contiguous
/// `count × dim` block inside the [`Nsga2Engine`], so batched evaluators can hand the whole
/// population to a matrix kernel without gathering.
#[derive(Debug, Clone, Copy)]
pub struct FlatPopulation<'a> {
    data: &'a [f64],
    count: usize,
    dim: usize,
}

impl<'a> FlatPopulation<'a> {
    /// Wraps a row-major `count × dim` slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != count * dim`.
    pub fn new(data: &'a [f64], count: usize, dim: usize) -> Self {
        assert_eq!(data.len(), count * dim, "flat population shape mismatch");
        FlatPopulation { data, count, dim }
    }

    /// Number of individuals.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Decision-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th decision vector.
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole row-major block.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

/// Scratch-owning flat-buffer NSGA-II evolution engine.
///
/// The engine owns every buffer the evolutionary loop needs — the combined
/// parent+offspring decision and objective blocks (parents in rows `0..pop`, offspring in
/// rows `pop..2·pop`), per-generation ranks/crowding for both the parent and the combined
/// population, the environmental-selection order, gather buffers, and the
/// [`DominanceScratch`] of the index-based non-dominated sort. Buffers are resized on the
/// first solve of a given shape and reused verbatim afterwards, so a warm engine evolves
/// each generation — and each subsequent [`solve`](Self::solve) — with zero heap
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct Nsga2Engine {
    /// Row-major decisions: `2·pop × dim`, parents first.
    combined_dec: Vec<f64>,
    /// Row-major objectives: `2·pop × k`, parents first.
    combined_obj: Vec<f64>,
    /// Gather target for the surviving decisions (`pop × dim`).
    select_dec: Vec<f64>,
    /// Gather target for the surviving objectives (`pop × k`).
    select_obj: Vec<f64>,
    /// Front index of every parent (tournament selection).
    parent_ranks: Vec<usize>,
    /// Crowding distance of every parent (tournament selection).
    parent_crowding: Vec<f64>,
    /// Front index over the combined population (environmental selection).
    ranks: Vec<usize>,
    /// Crowding distance over the combined population (environmental selection).
    crowding: Vec<f64>,
    /// Environmental-selection permutation of `0..2·pop`.
    order: Vec<usize>,
    /// Merge buffer for the environmental-selection sort.
    order_scratch: Vec<usize>,
    /// Adjacency and membership scratch of the flat dominance passes.
    dominance: DominanceScratch,
    pop_size: usize,
    dim: usize,
    num_obj: usize,
}

impl Nsga2Engine {
    /// Creates an empty engine; buffers are sized lazily by the first solve.
    pub fn new() -> Self {
        Nsga2Engine::default()
    }

    /// Runs a full NSGA-II solve of `problem` with a batched objective callback, leaving
    /// the final population in the engine (see [`decisions`](Self::decisions),
    /// [`objectives`](Self::objectives), [`to_population`](Self::to_population)).
    ///
    /// `evaluate` is called once for the initial parents and once per generation for the
    /// offspring block; it must fill the row-major `count × num_objectives` output slice.
    ///
    /// # Panics
    ///
    /// Panics if `num_objectives == 0`.
    pub fn solve<F: FnMut(&FlatPopulation<'_>, &mut [f64])>(
        &mut self,
        problem: &Nsga2,
        num_objectives: usize,
        mut evaluate: F,
    ) {
        assert!(num_objectives > 0, "at least one objective is required");
        let mut rng = StdRng::seed_from_u64(problem.config.seed);
        self.init_population(problem, &mut rng);
        self.install_num_objectives(num_objectives);
        let pop = self.pop_size;
        {
            let points = FlatPopulation::new(&self.combined_dec[..pop * self.dim], pop, self.dim);
            evaluate(&points, &mut self.combined_obj[..pop * num_objectives]);
        }
        self.evolve(problem, &mut rng, &mut evaluate);
    }

    /// Final population size (0 before the first solve).
    pub fn population_size(&self) -> usize {
        self.pop_size
    }

    /// Number of objectives of the last solve.
    pub fn num_objectives(&self) -> usize {
        self.num_obj
    }

    /// Decision vectors of the final population, as a flat view.
    pub fn decisions(&self) -> FlatPopulation<'_> {
        FlatPopulation::new(
            &self.combined_dec[..self.pop_size * self.dim],
            self.pop_size,
            self.dim,
        )
    }

    /// Row-major `pop × k` objective block of the final population.
    pub fn objectives(&self) -> &[f64] {
        &self.combined_obj[..self.pop_size * self.num_obj]
    }

    /// Indices of the non-dominated members of the final population, ascending, written
    /// into `out` (cleared first). Allocation-free for a warm `out`.
    pub fn pareto_indices_into(&self, out: &mut Vec<usize>) {
        non_dominated_indices_flat(self.objectives(), self.pop_size, self.num_obj, out);
    }

    /// Materializes the final population as nested vectors (the [`Nsga2::run`] interface).
    pub fn to_population(&self) -> Population {
        let decisions = (0..self.pop_size)
            .map(|i| self.decisions().row(i).to_vec())
            .collect();
        let objectives = (0..self.pop_size)
            .map(|i| self.objectives()[i * self.num_obj..(i + 1) * self.num_obj].to_vec())
            .collect();
        Population {
            decisions,
            objectives,
        }
    }

    /// Sizes the decision buffers for `problem` and draws the initial population into the
    /// parent block. Degenerate dimensions (`lower[d] == upper[d]`) are pinned without
    /// consuming a random draw; every other coordinate consumes exactly one `gen_range`,
    /// in the seed order.
    fn init_population(&mut self, problem: &Nsga2, rng: &mut StdRng) {
        let dim = problem.dim();
        let pop = problem.config.population_size;
        self.pop_size = pop;
        self.dim = dim;
        self.combined_dec.clear();
        self.combined_dec.resize(2 * pop * dim, 0.0);
        self.select_dec.clear();
        self.select_dec.resize(pop * dim, 0.0);
        for i in 0..pop {
            for d in 0..dim {
                self.combined_dec[i * dim + d] = if problem.lower[d] == problem.upper[d] {
                    problem.lower[d]
                } else {
                    rng.gen_range(problem.lower[d]..problem.upper[d])
                };
            }
        }
    }

    /// The `i`-th initial decision vector (valid after [`init_population`](Self::init_population)).
    fn initial_row(&self, i: usize) -> &[f64] {
        &self.combined_dec[i * self.dim..(i + 1) * self.dim]
    }

    /// Sizes the objective buffers for `k` objectives per point.
    fn install_num_objectives(&mut self, k: usize) {
        self.num_obj = k;
        self.combined_obj.clear();
        self.combined_obj.resize(2 * self.pop_size * k, 0.0);
        self.select_obj.clear();
        self.select_obj.resize(self.pop_size * k, 0.0);
    }

    /// Installs pre-computed objectives for the initial parents (per-point adapter path).
    fn install_initial_objectives(&mut self, k: usize, values: &[f64]) {
        self.install_num_objectives(k);
        self.combined_obj[..self.pop_size * k].copy_from_slice(values);
    }

    /// The generation loop: selection + variation + batched evaluation + environmental
    /// selection, entirely over the engine's flat buffers.
    fn evolve<F: FnMut(&FlatPopulation<'_>, &mut [f64])>(
        &mut self,
        problem: &Nsga2,
        rng: &mut StdRng,
        evaluate: &mut F,
    ) {
        let pop = self.pop_size;
        let dim = self.dim;
        let k = self.num_obj;

        for _gen in 0..problem.config.generations {
            crate::stats::record_generation();

            // --- selection + variation -> offspring block of the same size
            fast_non_dominated_sort_flat(
                &self.combined_obj[..pop * k],
                pop,
                k,
                &mut self.parent_ranks,
                &mut self.dominance,
            );
            per_front_crowding_flat(
                &self.combined_obj[..pop * k],
                pop,
                k,
                &self.parent_ranks,
                &mut self.parent_crowding,
                &mut self.dominance,
            );

            {
                let (parents, offspring) = self.combined_dec.split_at_mut(pop * dim);
                let mut produced = 0;
                while produced < pop {
                    let p1 = tournament(rng, &self.parent_ranks, &self.parent_crowding);
                    let p2 = tournament(rng, &self.parent_ranks, &self.parent_crowding);
                    // The pair always fits: population sizes are even by construction.
                    let (c1, c2) =
                        offspring[produced * dim..(produced + 2) * dim].split_at_mut(dim);
                    problem.crossover_into(
                        rng,
                        &parents[p1 * dim..(p1 + 1) * dim],
                        &parents[p2 * dim..(p2 + 1) * dim],
                        c1,
                        c2,
                    );
                    problem.mutate(rng, c1);
                    problem.mutate(rng, c2);
                    produced += 2;
                }
            }
            {
                let points = FlatPopulation::new(&self.combined_dec[pop * dim..], pop, dim);
                evaluate(&points, &mut self.combined_obj[pop * k..]);
            }

            // --- environmental selection over parents + offspring
            fast_non_dominated_sort_flat(
                &self.combined_obj,
                2 * pop,
                k,
                &mut self.ranks,
                &mut self.dominance,
            );
            per_front_crowding_flat(
                &self.combined_obj,
                2 * pop,
                k,
                &self.ranks,
                &mut self.crowding,
                &mut self.dominance,
            );
            self.order.clear();
            self.order.extend(0..2 * pop);
            {
                let (ranks, crowding) = (&self.ranks, &self.crowding);
                stable_sort_indices(&mut self.order, &mut self.order_scratch, |a, b| {
                    ranks[a].cmp(&ranks[b]).then(
                        crowding[b]
                            .partial_cmp(&crowding[a])
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                });
            }
            for (slot, &src) in self.order[..pop].iter().enumerate() {
                self.select_dec[slot * dim..(slot + 1) * dim]
                    .copy_from_slice(&self.combined_dec[src * dim..(src + 1) * dim]);
                self.select_obj[slot * k..(slot + 1) * k]
                    .copy_from_slice(&self.combined_obj[src * k..(src + 1) * k]);
            }
            self.combined_dec[..pop * dim].copy_from_slice(&self.select_dec);
            self.combined_obj[..pop * k].copy_from_slice(&self.select_obj);
        }
    }
}

/// Binary tournament on (rank, crowding distance).
fn tournament(rng: &mut StdRng, ranks: &[usize], crowding: &[f64]) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervolume::hypervolume;

    fn small_config(seed: u64) -> Nsga2Config {
        Nsga2Config {
            population_size: 40,
            generations: 40,
            seed,
        }
    }

    /// ZDT1-like convex bi-objective benchmark over [0,1]^d.
    fn zdt1(x: &[f64]) -> Vec<f64> {
        let f1 = x[0];
        let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / (x.len() - 1) as f64;
        let f2 = g * (1.0 - (f1 / g).sqrt());
        vec![f1, f2]
    }

    #[test]
    fn validates_configuration() {
        assert!(Nsga2::new(vec![], vec![], Nsga2Config::default()).is_err());
        assert!(Nsga2::new(vec![0.0], vec![1.0, 2.0], Nsga2Config::default()).is_err());
        assert!(Nsga2::new(vec![1.0], vec![0.0], Nsga2Config::default()).is_err());
        let bad_pop = Nsga2Config {
            population_size: 5,
            ..Default::default()
        };
        assert!(Nsga2::new(vec![0.0], vec![1.0], bad_pop).is_err());
        let bad_gen = Nsga2Config {
            generations: 0,
            ..Default::default()
        };
        assert!(Nsga2::new(vec![0.0], vec![1.0], bad_gen).is_err());
    }

    #[test]
    fn schaffer_problem_converges_to_known_front() {
        // Schaffer N.1: f1 = x², f2 = (x-2)²; Pareto set is x ∈ [0, 2].
        let solver = Nsga2::new(vec![-10.0], vec![10.0], small_config(7)).unwrap();
        let pop = solver.run(|x| vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)]);
        let pareto = pop.pareto_set();
        assert!(!pareto.is_empty());
        let inside = pareto
            .iter()
            .filter(|(x, _)| x[0] >= -0.2 && x[0] <= 2.2)
            .count();
        assert!(
            inside as f64 / pareto.len() as f64 > 0.9,
            "most pareto points must lie in [0, 2], got {inside}/{}",
            pareto.len()
        );
    }

    #[test]
    fn zdt1_front_approaches_theoretical_hypervolume() {
        let dim = 6;
        let solver = Nsga2::new(vec![0.0; dim], vec![1.0; dim], small_config(13)).unwrap();
        let pop = solver.run(zdt1);
        let front = pop.pareto_front();
        let hv = hypervolume(front, &[1.1, 1.1]);
        // The true front f2 = 1 - sqrt(f1) has HV ≈ 0.756 w.r.t. (1.1, 1.1); a short run on a
        // 6-D ZDT1 should reach a good fraction of it.
        assert!(hv > 0.5, "hypervolume too small: {hv}");
    }

    #[test]
    fn population_respects_bounds() {
        let solver = Nsga2::new(vec![-1.0, 2.0], vec![1.0, 3.0], small_config(3)).unwrap();
        let pop = solver.run(|x| vec![x[0].abs(), (x[1] - 2.5).abs()]);
        for d in &pop.decisions {
            assert!(d[0] >= -1.0 && d[0] <= 1.0);
            assert!(d[1] >= 2.0 && d[1] <= 3.0);
        }
        assert_eq!(pop.decisions.len(), 40);
        assert_eq!(pop.objectives.len(), 40);
    }

    #[test]
    fn runs_are_reproducible_for_same_seed() {
        let mk = || {
            let solver = Nsga2::new(vec![-5.0], vec![5.0], small_config(99)).unwrap();
            solver.run(|x| vec![x[0] * x[0], (x[0] - 1.0).powi(2)])
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.objectives, b.objectives);
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let solver = Nsga2::new(vec![-5.0], vec![5.0], small_config(seed)).unwrap();
            solver.run(|x| vec![x[0] * x[0], (x[0] - 1.0).powi(2)])
        };
        let a = run(1);
        let b = run(2);
        assert_ne!(a.decisions, b.decisions);
    }

    #[test]
    fn degenerate_bounds_pin_the_fixed_coordinate() {
        // lower[d] == upper[d] used to panic in the initializer (`gen_range` on an empty
        // range); it must instead pin the coordinate for the whole run.
        let solver = Nsga2::new(vec![0.5, -1.0], vec![0.5, 1.0], small_config(11)).unwrap();
        let pop = solver.run(|x| vec![x[1] * x[1], (x[1] - 0.7).powi(2)]);
        assert_eq!(pop.decisions.len(), 40);
        for d in &pop.decisions {
            assert_eq!(d[0], 0.5, "degenerate coordinate must stay pinned");
            assert!(d[1] >= -1.0 && d[1] <= 1.0);
        }
        // Fully degenerate box: every individual is the single feasible point.
        let solver = Nsga2::new(vec![1.0, 2.0], vec![1.0, 2.0], small_config(12)).unwrap();
        let pop = solver.run(|x| vec![x[0], x[1]]);
        for d in &pop.decisions {
            assert_eq!(d, &vec![1.0, 2.0]);
        }
        // Inverted bounds are still rejected.
        assert!(Nsga2::new(vec![1.0], vec![0.5], small_config(1)).is_err());
    }

    #[test]
    fn run_batched_matches_per_point_run_bit_for_bit() {
        let mk_solver = || Nsga2::new(vec![0.0; 4], vec![1.0; 4], small_config(37)).unwrap();
        let per_point = mk_solver().run(zdt1);
        let mut engine = Nsga2Engine::new();
        let batched = mk_solver().run_batched(&mut engine, 2, |points, out| {
            for i in 0..points.count() {
                let o = zdt1(points.row(i));
                out[2 * i..2 * i + 2].copy_from_slice(&o);
            }
        });
        assert_eq!(per_point.decisions, batched.decisions);
        assert_eq!(per_point.objectives, batched.objectives);
        // Engine accessors agree with the materialized population.
        assert_eq!(engine.population_size(), 40);
        assert_eq!(engine.num_objectives(), 2);
        let mut pareto = Vec::new();
        engine.pareto_indices_into(&mut pareto);
        assert_eq!(pareto, batched.pareto_indices());
    }

    #[test]
    fn engine_reuse_across_solves_is_stateless() {
        // A warm engine (even one warmed on a different shape) must reproduce exactly what
        // a fresh engine computes.
        let mut engine = Nsga2Engine::new();
        let warm = Nsga2::new(vec![-2.0; 6], vec![2.0; 6], small_config(3)).unwrap();
        warm.run_batched(&mut engine, 2, |points, out| {
            for i in 0..points.count() {
                let o = zdt1(
                    &points
                        .row(i)
                        .iter()
                        .map(|v| v.abs() / 2.0)
                        .collect::<Vec<_>>(),
                );
                out[2 * i..2 * i + 2].copy_from_slice(&o);
            }
        });
        let solver = Nsga2::new(vec![0.0; 3], vec![1.0; 3], small_config(21)).unwrap();
        let eval = |points: &FlatPopulation<'_>, out: &mut [f64]| {
            for i in 0..points.count() {
                out[2 * i..2 * i + 2].copy_from_slice(&zdt1(points.row(i)));
            }
        };
        let reused = solver.run_batched(&mut engine, 2, eval);
        let fresh = solver.run_batched(&mut Nsga2Engine::new(), 2, eval);
        assert_eq!(reused.decisions, fresh.decisions);
        assert_eq!(reused.objectives, fresh.objectives);
    }

    #[test]
    fn pareto_front_is_internally_non_dominated() {
        let solver = Nsga2::new(vec![0.0; 3], vec![1.0; 3], small_config(21)).unwrap();
        let pop = solver.run(zdt1);
        let front = pop.pareto_front();
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!crate::dominance::dominates(a, b));
                }
            }
        }
    }
}
