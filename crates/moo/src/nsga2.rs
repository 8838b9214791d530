//! NSGA-II (Deb et al., 2002) for continuous box-constrained multi-objective problems.
//!
//! PaRMIS uses NSGA-II to solve the *cheap* multi-objective problem over functions sampled
//! from the GP posteriors (paper §IV-B step 1). The algorithm is the textbook one: fast
//! non-dominated sorting, crowding distance, binary tournament selection, simulated binary
//! crossover (SBX) and polynomial mutation.
//!
//! # Flat-buffer evolution engine
//!
//! The evolutionary loop runs on a scratch-owning [`Nsga2Engine`] that stores decisions and
//! objectives as row-major flat `Vec<f64>` blocks (`[x₀₀ … x₀ᵈ, x₁₀ …]`), reuses every
//! generation buffer — the parent, offspring and survivor blocks, ranks, crowding
//! distances, selection order, the variation step's coins and spread factors and the
//! non-dominated-sort scratch — across generations *and* across solves, and
//! evaluates offspring through one batched callback `FnMut(&FlatPopulation, &mut [f64])`
//! per generation instead of a call per point. After the engine's buffers have warmed up
//! (first solve at a given shape), a generation performs **zero heap allocations**;
//! `crates/bench/tests/allocation_contracts.rs` pins this with a counting allocator.
//! [`Nsga2Engine::solve`] is the one way to run a solve; the final population stays in the
//! engine ([`Nsga2Engine::decisions`], [`Nsga2Engine::objectives`],
//! [`Nsga2Engine::pareto_indices_into`]).
//!
//! # Variation
//!
//! Each generation breeds the offspring in pairs. The operators and their distributions
//! are the textbook ones:
//!
//! - **SBX crossover** ([`CROSSOVER_PROBABILITY`] = 0.9 per pair, each gene crossed with
//!   probability ½, [`CROSSOVER_ETA`] = 15): a crossed gene with parents `x₁ ≤ x₂` gets
//!   the children `½((1 ± β)x₁ + (1 ∓ β)x₂)`, clamped to the box, with the spread factor
//!   `β = (2u)^{1/16}` for `u ≤ ½` and `(2(1 − u))^{−1/16}` otherwise. A gene whose
//!   parents differ by less than `1e-14` is left as it is.
//! - **Polynomial mutation** (each gene with probability `1/d`, [`MUTATION_ETA`] = 20):
//!   `x + δ·(upper − lower)`, clamped, with `δ = (2u)^{1/21} − 1` for `u < ½` and
//!   `1 − (2(1 − u))^{1/21}` otherwise.
//! - A pinned coordinate (`lower == upper`) never moves: its parents agree, and its
//!   mutation span is zero.
//!
//! Per pair, the step draws from the solve's one RNG in this order:
//!
//! 1. two binary tournaments on (rank, crowding distance), two `gen_range` draws each;
//! 2. one uniform, against [`CROSSOVER_PROBABILITY`];
//! 3. for a crossing pair, one 64-bit word per 64 genes whose bits are the crossing coins
//!    (bit `i mod 64` of word `⌊i/64⌋` crosses gene `i`), then one uniform per crossed
//!    gene, in ascending gene order;
//! 4. the mutations of the first child, then of the second: the positions as geometric
//!    gaps, `⌊ln(1 − v)/ln(1 − 1/d)⌋` genes skipped before the next mutated one, with one
//!    uniform `v` per mutated gene plus one that ends the child, each mutated gene's `u`
//!    drawn right after its gap.
//!
//! Gaps of that law leave each gene mutated independently with probability `1/d`, as a
//! coin per gene would, at two draws per child instead of `d`. The spread factors of a
//! pair are computed in one pass over its uniforms (a 16th root from an exponent split,
//! two table lookups and a short polynomial; every `β` is within `1e-12` relative of
//! `powf`'s, in fact a few ulps); the children start as copies of the parents, and only
//! the crossed genes, found by walking the set coin bits, are blended.

use crate::dominance::{
    fast_non_dominated_sort_flat, non_dominated_indices_flat, per_front_crowding_flat,
    stable_sort_indices, DominanceScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// An NSGA-II problem over a box-constrained continuous decision space: the box and the run
/// configuration. [`Nsga2Engine::solve`] runs it.
///
/// # Examples
///
/// ```
/// use moo::nsga2::{Nsga2, Nsga2Config, Nsga2Engine};
///
/// // Minimal bi-objective problem: f1 = x², f2 = (x - 2)² over x ∈ [-4, 4].
/// let config = Nsga2Config { population_size: 40, generations: 30, ..Default::default() };
/// let solver = Nsga2::new(vec![-4.0], vec![4.0], config).unwrap();
/// let mut engine = Nsga2Engine::new();
/// engine.solve(&solver, 2, |points, out| {
///     for (i, o) in out.chunks_exact_mut(2).enumerate() {
///         let x = points.row(i)[0];
///         o.copy_from_slice(&[x * x, (x - 2.0) * (x - 2.0)]);
///     }
/// });
/// // The Pareto set of this problem is x ∈ [0, 2].
/// let mut pareto = Vec::new();
/// engine.pareto_indices_into(&mut pareto);
/// for i in pareto {
///     let x = engine.decisions().row(i);
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
/// The engine owns every buffer the evolutionary loop needs — the parent and offspring
/// decision blocks and the combined objective block (parents in rows `0..pop`, offspring
/// in rows `pop..2·pop`), per-generation ranks/crowding for both the parent and the
/// combined population, the environmental-selection order, the survivor gather buffers
/// (the decisions' swapped in as the next parents), the variation step's buffers, and the
/// [`DominanceScratch`] of the non-dominated sort. Buffers are resized on the
/// first solve of a given shape and reused verbatim afterwards, so a warm engine evolves
/// each generation — and each subsequent [`solve`](Self::solve) — with zero heap
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct Nsga2Engine {
    /// Row-major parent decisions: `pop × dim`.
    parent_dec: Vec<f64>,
    /// Row-major offspring decisions: `pop × dim`.
    offspring_dec: Vec<f64>,
    /// Row-major objectives: `2·pop × k`, parents first.
    combined_obj: Vec<f64>,
    /// Gather target for the surviving decisions (`pop × dim`), swapped with
    /// `parent_dec` once filled.
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
    /// Coins and spread factors of the variation step.
    variation: Variation,
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
    /// [`objectives`](Self::objectives) and [`pareto_indices_into`](Self::pareto_indices_into)).
    ///
    /// `evaluate` is called once for the initial parents and once per generation for the
    /// offspring block; it must fill the row-major `count × num_objectives` output slice.
    /// Reusing the engine across solves (even of other shapes and seeds) gives the same
    /// population as a fresh engine, and keeps every generation allocation-free.
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
            let points = FlatPopulation::new(&self.parent_dec, pop, self.dim);
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
        FlatPopulation::new(&self.parent_dec, self.pop_size, self.dim)
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

    /// Sizes the decision buffers for `problem` and draws the initial population into the
    /// parent block. Degenerate dimensions (`lower[d] == upper[d]`) are pinned without
    /// consuming a random draw; every other coordinate consumes exactly one `gen_range`,
    /// in the seed order.
    fn init_population(&mut self, problem: &Nsga2, rng: &mut StdRng) {
        let dim = problem.dim();
        let pop = problem.config.population_size;
        self.pop_size = pop;
        self.dim = dim;
        self.parent_dec.clear();
        self.parent_dec.resize(pop * dim, 0.0);
        self.offspring_dec.clear();
        self.offspring_dec.resize(pop * dim, 0.0);
        self.select_dec.clear();
        self.select_dec.resize(pop * dim, 0.0);
        self.variation.resize(dim);
        for i in 0..pop {
            for d in 0..dim {
                self.parent_dec[i * dim + d] = if problem.lower[d] == problem.upper[d] {
                    problem.lower[d]
                } else {
                    rng.gen_range(problem.lower[d]..problem.upper[d])
                };
            }
        }
    }

    /// Sizes the objective buffers for `k` objectives per point.
    fn install_num_objectives(&mut self, k: usize) {
        self.num_obj = k;
        self.combined_obj.clear();
        self.combined_obj.resize(2 * self.pop_size * k, 0.0);
        self.select_obj.clear();
        self.select_obj.resize(self.pop_size * k, 0.0);
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

            self.breed_offspring(problem, rng);
            {
                let points = FlatPopulation::new(&self.offspring_dec, pop, dim);
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
                let (block, row) = if src < pop {
                    (&self.parent_dec, src)
                } else {
                    (&self.offspring_dec, src - pop)
                };
                self.select_dec[slot * dim..(slot + 1) * dim]
                    .copy_from_slice(&block[row * dim..(row + 1) * dim]);
                self.select_obj[slot * k..(slot + 1) * k]
                    .copy_from_slice(&self.combined_obj[src * k..(src + 1) * k]);
            }
            std::mem::swap(&mut self.parent_dec, &mut self.select_dec);
            self.combined_obj[..pop * k].copy_from_slice(&self.select_obj);
        }
    }

    /// The variation step: fills the offspring rows with children bred in pairs from
    /// tournament winners among the parents (see the [module docs](self) for the operators
    /// and the draw schedule).
    fn breed_offspring(&mut self, problem: &Nsga2, rng: &mut StdRng) {
        let dim = self.dim;
        let (parents, offspring) = (&self.parent_dec, &mut self.offspring_dec);
        let (ranks, crowding) = (&self.parent_ranks[..], &self.parent_crowding[..]);
        let bounds = (&problem.lower[..], &problem.upper[..]);
        let log_keep = mutation_log_keep(dim);
        // The pairs always fit: population sizes are even by construction.
        for pair in offspring.chunks_exact_mut(2 * dim) {
            let p1 = tournament(rng, ranks, crowding);
            let p2 = tournament(rng, ranks, crowding);
            let (c1, c2) = pair.split_at_mut(dim);
            crossover(
                rng,
                [&parents[p1 * dim..][..dim], &parents[p2 * dim..][..dim]],
                bounds,
                &mut self.variation,
                [c1, c2],
            );
            mutate(rng, log_keep, bounds, c1);
            mutate(rng, log_keep, bounds, c2);
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

// The spread factors take a 16th root.
const _: () = assert!(CROSSOVER_ETA + 1.0 == 16.0);

/// `1 / (η_m + 1)`, the exponent of a polynomial-mutation step.
const MUTATION_EXPONENT: f64 = 1.0 / (MUTATION_ETA + 1.0);

/// The variation step's buffers, sized once per decision-space dimension.
#[derive(Debug, Clone, Default)]
struct Variation {
    /// The crossing coins of the current pair: bit `i % 64` of word `i / 64` crosses gene
    /// `i`; bits past the last gene are clear.
    coins: Vec<u64>,
    /// The current pair's uniforms, one per crossed gene in ascending order, turned into
    /// spread factors in place.
    spread: Vec<f64>,
}

impl Variation {
    /// Sizes the buffers for `dim` genes (allocating only when they grow).
    fn resize(&mut self, dim: usize) {
        self.coins.resize(dim.div_ceil(64), 0);
        self.spread.resize(dim, 0.0);
    }
}

/// `ln(1 − 1/dim)`, the scale of [`mutate`]'s geometric gaps (`−∞` at `dim = 1`, where
/// every gene mutates).
fn mutation_log_keep(dim: usize) -> f64 {
    (-1.0 / dim as f64).ln_1p()
}

/// SBX crossover of one pair: writes the children of `parents` into `children` (see the
/// [module docs](self)). Draws the pair's crossing uniform, and for a crossing pair the
/// coin words and one uniform per crossed gene.
fn crossover(
    rng: &mut StdRng,
    parents: [&[f64]; 2],
    (lower, upper): (&[f64], &[f64]),
    variation: &mut Variation,
    children: [&mut [f64]; 2],
) {
    let [x, y] = parents;
    let [c1, c2] = children;
    // The children start as the parents; a crossing pair then blends its crossed genes.
    c1.copy_from_slice(x);
    c2.copy_from_slice(y);
    if rng.gen::<f64>() > CROSSOVER_PROBABILITY {
        return;
    }
    let dim = x.len();
    let Variation { coins, spread } = variation;
    let coins = &mut coins[..dim.div_ceil(64)];
    for word in coins.iter_mut() {
        *word = rng.next_u64();
    }
    if dim % 64 != 0 {
        coins[dim / 64] &= (1u64 << (dim % 64)) - 1;
    }
    let crossed = coins.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    let spread = &mut spread[..crossed];
    for u in spread.iter_mut() {
        *u = rng.gen::<f64>();
    }
    spread_factors(spread);
    // Each crossed gene takes its spread factor, in ascending gene order.
    let mut factors = spread.iter();
    for (w, &word) in coins.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = 64 * w + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let beta = *factors.next().expect("one spread factor per crossed gene");
            let (a, b) = (x[i], y[i]);
            let (x1, x2) = if b < a { (b, a) } else { (a, b) };
            if (x2 - x1).abs() < 1e-14 {
                continue;
            }
            c1[i] = clamp(
                0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2),
                lower[i],
                upper[i],
            );
            c2[i] = clamp(
                0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2),
                lower[i],
                upper[i],
            );
        }
    }
}

/// Replaces every uniform `u` in `us` with its SBX spread factor: `(2u)^{1/16}` for
/// `u ≤ ½` and `(2(1 − u))^{−1/16}` otherwise.
///
/// With `t = 2u` or `2(1 − u)` written as `2^{16q + r}·m_j·(1 + z)` (`r < 16`,
/// `m_j = 1 + j/32` the top five bits of the mantissa, `0 ≤ z < 1/32`), the factor is the
/// product `2^{±q} · 2^{±r/16} · m_j^{±1/16} · (1 + z)^{±1/16}`: an exponent insert, two
/// [`SpreadTables`] lookups and a degree-8 binomial polynomial, ~6 ns against four chained
/// square roots' ~10 ns and `powf`'s ~20 ns. Each factor is within a few ulps of `powf`'s,
/// and the tables are built from correctly rounded operations only, so the bits are the
/// same on every target.
fn spread_factors(us: &mut [f64]) {
    const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;
    const ONE: u64 = 0x3ff0_0000_0000_0000;
    let tables = SpreadTables::get();
    for u in us.iter_mut() {
        let low = *u <= 0.5;
        // Both are exact: doubling, and 1 − u for u in (½, 1). `t` is 0 or normal: `u` is
        // a multiple of 2⁻⁵³.
        let t = if low { 2.0 * *u } else { 2.0 * (1.0 - *u) };
        let sign = usize::from(!low);
        let bits = t.to_bits();
        let e = (bits >> 52) as i64 - 1023;
        let j = ((bits >> 47) & 31) as usize;
        let m = f64::from_bits((bits & MANTISSA) | ONE);
        // Exact: m and m_j share their exponent and leading bits.
        let z = (m - f64::from_bits(ONE | (j as u64) << 47)) * tables.reciprocal[j];
        let c = &tables.binomial[sign];
        let series = c[8] * z + c[7];
        let series = ((((((series * z + c[6]) * z + c[5]) * z + c[4]) * z + c[3]) * z + c[2]) * z
            + c[1])
            * z
            + c[0];
        let (q, r) = (e >> 4, (e & 15) as usize);
        let q = if low { q } else { -q };
        let two_q = f64::from_bits(((1023 + q) as u64) << 52);
        let root = two_q * tables.two[sign][r] * tables.mantissa[sign][j] * series;
        *u = if t == 0.0 { 0.0 } else { root };
    }
}

/// The constants of [`spread_factors`], index 0 for the exponent `1/16` and 1 for
/// `−1/16`, built once from correctly rounded operations (square roots, quotients and
/// products), so they are the same on every target.
#[derive(Debug)]
struct SpreadTables {
    /// `2^{±r/16}` for `r < 16`.
    two: [[f64; 16]; 2],
    /// `m_j^{±1/16}` for `m_j = 1 + j/32`.
    mantissa: [[f64; 32]; 2],
    /// `1/m_j`.
    reciprocal: [f64; 32],
    /// The binomial series of `(1 + z)^{±1/16}` up to `z⁸`; at `z < 1/32` the first term
    /// left out is below `1e-15` of the sum.
    binomial: [[f64; 9]; 2],
}

impl SpreadTables {
    /// The tables, built on first use.
    fn get() -> &'static SpreadTables {
        static TABLES: std::sync::OnceLock<SpreadTables> = std::sync::OnceLock::new();
        TABLES.get_or_init(SpreadTables::new)
    }

    fn new() -> Self {
        let root16 = |x: f64| x.sqrt().sqrt().sqrt().sqrt();
        let mut tables = SpreadTables {
            two: [[0.0; 16]; 2],
            mantissa: [[0.0; 32]; 2],
            reciprocal: [0.0; 32],
            binomial: [[1.0; 9]; 2],
        };
        for r in 0..16 {
            let power = f64::from_bits((1023 + r as u64) << 52);
            tables.two[0][r] = root16(power);
            tables.two[1][r] = root16(1.0 / power);
        }
        for j in 0..32 {
            let m = 1.0 + j as f64 / 32.0;
            tables.mantissa[0][j] = root16(m);
            tables.mantissa[1][j] = 1.0 / tables.mantissa[0][j];
            tables.reciprocal[j] = 1.0 / m;
        }
        for (series, exponent) in tables.binomial.iter_mut().zip([1.0 / 16.0, -1.0 / 16.0]) {
            for k in 1..series.len() {
                series[k] = series[k - 1] * (exponent - (k - 1) as f64) / k as f64;
            }
        }
        tables
    }
}

/// Polynomial mutation of one child, each gene with probability `1/d`: the mutated genes
/// are found by geometric gaps of scale `log_keep` (from [`mutation_log_keep`]), one
/// uniform per gap and one per mutated gene.
fn mutate(rng: &mut StdRng, log_keep: f64, (lower, upper): (&[f64], &[f64]), child: &mut [f64]) {
    // `⌊ln(v)/ln(1 − p)⌋` for v uniform in (0, 1]: P(gap ≥ g) = (1 − p)^g. The cast
    // floors the non-negative quotient (−0.0 included) and saturates a huge one.
    let gap = |rng: &mut StdRng| ((1.0 - rng.gen::<f64>()).ln() / log_keep) as usize;
    let mut gene = gap(rng);
    while gene < child.len() {
        let (lo, hi) = (lower[gene], upper[gene]);
        let u: f64 = rng.gen();
        let delta = if u < 0.5 {
            (2.0 * u).powf(MUTATION_EXPONENT) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(MUTATION_EXPONENT)
        };
        child[gene] = clamp(child[gene] + delta * (hi - lo), lo, hi);
        gene = gene.saturating_add(1).saturating_add(gap(rng));
    }
}

/// `f64::clamp` spelled as comparisons, without its bounds assertion (the box is validated
/// once).
fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    let v = if v < lo { lo } else { v };
    if v > hi {
        hi
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervolume::hypervolume;
    use rand::Rng;

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

    /// Solves `problem` on a fresh engine, answering each point with the bi-objective `f`.
    fn solve(problem: &Nsga2, f: impl Fn(&[f64]) -> Vec<f64>) -> Nsga2Engine {
        let mut engine = Nsga2Engine::new();
        engine.solve(problem, 2, |points, out| {
            for (i, o) in out.chunks_exact_mut(2).enumerate() {
                o.copy_from_slice(&f(points.row(i)));
            }
        });
        engine
    }

    /// The final population's decision vectors.
    fn decisions(engine: &Nsga2Engine) -> Vec<&[f64]> {
        let points = engine.decisions();
        (0..points.count()).map(|i| points.row(i)).collect()
    }

    /// The decision vectors and the objective vectors of the final non-dominated members.
    fn pareto_set(engine: &Nsga2Engine) -> Vec<(&[f64], &[f64])> {
        let mut pareto = Vec::new();
        engine.pareto_indices_into(&mut pareto);
        let k = engine.num_objectives();
        pareto
            .into_iter()
            .map(|i| {
                (
                    engine.decisions().row(i),
                    &engine.objectives()[i * k..][..k],
                )
            })
            .collect()
    }

    /// The objective vectors of the final non-dominated members.
    fn pareto_front(engine: &Nsga2Engine) -> Vec<Vec<f64>> {
        pareto_set(engine)
            .into_iter()
            .map(|(_, o)| o.to_vec())
            .collect()
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
        let engine = solve(&solver, |x| vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)]);
        let pareto = pareto_set(&engine);
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
        let front = pareto_front(&solve(&solver, zdt1));
        let hv = hypervolume(front, &[1.1, 1.1]);
        // The true front f2 = 1 - sqrt(f1) has HV ≈ 0.756 w.r.t. (1.1, 1.1); a short run on a
        // 6-D ZDT1 should reach a good fraction of it.
        assert!(hv > 0.5, "hypervolume too small: {hv}");
    }

    #[test]
    fn population_respects_bounds() {
        let solver = Nsga2::new(vec![-1.0, 2.0], vec![1.0, 3.0], small_config(3)).unwrap();
        let engine = solve(&solver, |x| vec![x[0].abs(), (x[1] - 2.5).abs()]);
        for d in decisions(&engine) {
            assert!(d[0] >= -1.0 && d[0] <= 1.0);
            assert!(d[1] >= 2.0 && d[1] <= 3.0);
        }
        assert_eq!(engine.population_size(), 40);
        assert_eq!(engine.num_objectives(), 2);
        assert_eq!(engine.objectives().len(), 40 * 2);
    }

    #[test]
    fn runs_are_reproducible_for_same_seed() {
        let mk = || {
            let solver = Nsga2::new(vec![-5.0], vec![5.0], small_config(99)).unwrap();
            solve(&solver, |x| vec![x[0] * x[0], (x[0] - 1.0).powi(2)])
        };
        let a = mk();
        let b = mk();
        assert_eq!(decisions(&a), decisions(&b));
        assert_eq!(a.objectives(), b.objectives());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let solver = Nsga2::new(vec![-5.0], vec![5.0], small_config(seed)).unwrap();
            solve(&solver, |x| vec![x[0] * x[0], (x[0] - 1.0).powi(2)])
        };
        let a = run(1);
        let b = run(2);
        assert_ne!(decisions(&a), decisions(&b));
    }

    #[test]
    fn degenerate_bounds_pin_the_fixed_coordinate() {
        // lower[d] == upper[d] used to panic in the initializer (`gen_range` on an empty
        // range); it must instead pin the coordinate for the whole run.
        let solver = Nsga2::new(vec![0.5, -1.0], vec![0.5, 1.0], small_config(11)).unwrap();
        let engine = solve(&solver, |x| vec![x[1] * x[1], (x[1] - 0.7).powi(2)]);
        assert_eq!(decisions(&engine).len(), 40);
        for d in decisions(&engine) {
            assert_eq!(d[0], 0.5, "degenerate coordinate must stay pinned");
            assert!(d[1] >= -1.0 && d[1] <= 1.0);
        }
        // Fully degenerate box: every individual is the single feasible point.
        let solver = Nsga2::new(vec![1.0, 2.0], vec![1.0, 2.0], small_config(12)).unwrap();
        let engine = solve(&solver, |x| vec![x[0], x[1]]);
        for d in decisions(&engine) {
            assert_eq!(d, [1.0, 2.0]);
        }
        // Inverted bounds are still rejected.
        assert!(Nsga2::new(vec![1.0], vec![0.5], small_config(1)).is_err());
    }

    #[test]
    fn engine_reuse_across_solves_is_stateless() {
        // A warm engine (even one warmed on a different shape) must reproduce exactly what
        // a fresh engine computes.
        let mut engine = Nsga2Engine::new();
        let warm = Nsga2::new(vec![-2.0; 6], vec![2.0; 6], small_config(3)).unwrap();
        engine.solve(&warm, 2, |points, out| {
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
        engine.solve(&solver, 2, eval);
        let mut fresh = Nsga2Engine::new();
        fresh.solve(&solver, 2, eval);
        assert_eq!(decisions(&engine), decisions(&fresh));
        assert_eq!(engine.objectives(), fresh.objectives());
    }

    /// One-sample Kolmogorov–Smirnov statistic of `sample` against the CDF `cdf`.
    fn ks_statistic(mut sample: Vec<f64>, cdf: impl Fn(f64) -> f64) -> f64 {
        sample.sort_by(f64::total_cmp);
        let n = sample.len() as f64;
        sample
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = cdf(x);
                (f - i as f64 / n).max((i + 1) as f64 / n - f)
            })
            .fold(0.0, f64::max)
    }

    /// The spread factors of `count` uniforms drawn from `seed`.
    fn drawn_spread_factors(seed: u64, count: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut us: Vec<f64> = (0..count).map(|_| rng.gen::<f64>()).collect();
        spread_factors(&mut us);
        us
    }

    #[test]
    fn spread_factors_follow_the_sbx_law() {
        // β ≤ 1 comes from u ≤ ½ and has CDF b¹⁶ there; β > 1 comes from u > ½, and 1/β has
        // CDF c¹⁶. Each half holds ~20,000 draws; the 1 % critical value is 1.628/√n.
        let betas = drawn_spread_factors(17, 40_000);
        let (low, high): (Vec<f64>, Vec<f64>) = betas.iter().partition(|&&b| b <= 1.0);
        let high: Vec<f64> = high.iter().map(|b| 1.0 / b).collect();
        for (name, half) in [("lower", low), ("upper", high)] {
            let n = half.len();
            assert!(n >= 19_000, "{name} half holds only {n} draws");
            let d = ks_statistic(half, |b| b.clamp(0.0, 1.0).powi(16));
            let critical = 1.628 / (n as f64).sqrt();
            assert!(
                d < critical,
                "{name} half: KS D = {d} ≥ {critical} at n = {n}"
            );
        }
    }

    #[test]
    fn spread_factors_track_powf() {
        let mut us = vec![
            0.0,
            f64::EPSILON / 2.0,
            1e-300,
            0.25,
            0.5 - f64::EPSILON / 4.0,
            0.5,
            0.5 + f64::EPSILON / 2.0,
            0.75,
            1.0 - f64::EPSILON / 2.0,
        ];
        let mut rng = StdRng::seed_from_u64(5);
        us.extend((0..10_003).map(|_| rng.gen::<f64>()));
        let mut betas = us.clone();
        spread_factors(&mut betas);
        for (u, beta) in us.iter().zip(&betas) {
            let want = if *u <= 0.5 {
                (2.0 * u).powf(1.0 / (CROSSOVER_ETA + 1.0))
            } else {
                (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (CROSSOVER_ETA + 1.0))
            };
            let error = if want == 0.0 {
                *beta
            } else {
                (beta - want) / want
            };
            assert!(
                error.abs() <= 1e-12,
                "u = {u:e}: β = {beta:e} vs powf {want:e}"
            );
        }
    }

    #[test]
    fn pairs_cross_at_nine_tenths_and_genes_at_one_half() {
        // Parents 0 and 1 inside a wide box: a crossed gene's children are ½(1 ∓ β) and
        // ½(1 ± β), never the parents' values unless β is exactly 1.
        let (dim, pairs) = (100, 20_000);
        let (lower, upper) = (vec![-10.0; dim], vec![10.0; dim]);
        let (x, y) = (vec![0.0; dim], vec![1.0; dim]);
        let mut variation = Variation::default();
        variation.resize(dim);
        let mut rng = StdRng::seed_from_u64(23);
        let (mut c1, mut c2) = (vec![0.0; dim], vec![0.0; dim]);
        let (mut crossing_pairs, mut crossed_genes) = (0usize, 0usize);
        for _ in 0..pairs {
            crossover(
                &mut rng,
                [&x, &y],
                (&lower, &upper),
                &mut variation,
                [&mut c1, &mut c2],
            );
            let crossed = c1.iter().filter(|&&v| v != 0.0).count();
            assert_eq!(crossed, c2.iter().filter(|&&v| v != 1.0).count());
            crossing_pairs += usize::from(crossed > 0);
            crossed_genes += crossed;
        }
        let pair_rate = crossing_pairs as f64 / pairs as f64;
        let sigma = (0.9 * 0.1 / pairs as f64).sqrt();
        assert!(
            (pair_rate - 0.9).abs() < 4.0 * sigma,
            "pair crossing rate {pair_rate}"
        );
        let genes = (crossing_pairs * dim) as f64;
        let gene_rate = crossed_genes as f64 / genes;
        let sigma = (0.25 / genes).sqrt();
        assert!(
            (gene_rate - 0.5).abs() < 4.0 * sigma,
            "per-gene crossing rate {gene_rate}"
        );
    }

    #[test]
    fn one_gene_mutates_per_child_on_average_and_every_gene_at_dimension_one() {
        let mut rng = StdRng::seed_from_u64(29);
        let (dim, children) = (501, 20_000);
        let (lower, upper) = (vec![-1.0; dim], vec![1.0; dim]);
        let log_keep = mutation_log_keep(dim);
        let mut child = vec![0.0; dim];
        let mut mutated = 0usize;
        for _ in 0..children {
            child.fill(0.0);
            mutate(&mut rng, log_keep, (&lower, &upper), &mut child);
            mutated += child.iter().filter(|&&v| v != 0.0).count();
        }
        let mean = mutated as f64 / children as f64;
        // Binomial(501, 1/501) has variance 1 − 1/501.
        let sigma = ((1.0 - 1.0 / dim as f64) / children as f64).sqrt();
        assert!(
            (mean - 1.0).abs() < 4.0 * sigma,
            "mean mutated genes {mean}"
        );

        let log_keep = mutation_log_keep(1);
        for _ in 0..1_000 {
            let mut gene = [0.0];
            mutate(&mut rng, log_keep, (&[-1.0], &[1.0]), &mut gene);
            assert_ne!(gene[0], 0.0, "the only gene must mutate");
        }
    }

    #[test]
    fn every_child_stays_in_the_box_and_pinned_coordinates_never_move() {
        // A narrow box around the optimum so clamps fire, with every third coordinate
        // pinned; every offspring block the evaluator sees is checked.
        let dim = 70;
        let lower: Vec<f64> = (0..dim)
            .map(|d| if d % 3 == 0 { 0.25 } else { -0.1 })
            .collect();
        let upper: Vec<f64> = (0..dim)
            .map(|d| if d % 3 == 0 { 0.25 } else { 0.3 })
            .collect();
        let solver = Nsga2::new(lower.clone(), upper.clone(), small_config(31)).unwrap();
        let mut checked = 0;
        Nsga2Engine::new().solve(&solver, 2, |points, out| {
            for i in 0..points.count() {
                let x = points.row(i);
                for d in 0..dim {
                    assert!(
                        lower[d] <= x[d] && x[d] <= upper[d],
                        "gene {d} left the box"
                    );
                    if d % 3 == 0 {
                        assert_eq!(x[d], 0.25, "pinned gene {d} moved");
                    }
                }
                checked += 1;
                out[2 * i] = x.iter().map(|v| v * v).sum();
                out[2 * i + 1] = x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum();
            }
        });
        assert_eq!(checked, 40 * 41);
    }

    #[test]
    fn pareto_front_is_internally_non_dominated() {
        let solver = Nsga2::new(vec![0.0; 3], vec![1.0; 3], small_config(21)).unwrap();
        let front = pareto_front(&solve(&solver, zdt1));
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!crate::dominance::dominates(a, b));
                }
            }
        }
    }
}
