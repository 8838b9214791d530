//! Acquisition-engine speedup report: measures the flat-buffer batched front-sampling
//! pipeline against the preserved seed path ([`bench::seedpath_acq`]) and emits the ratios
//! as `BENCH_acq.json` (into `$PARMIS_RESULTS_DIR` when set).
//!
//! Criterion groups:
//!
//! * `front_sample_200f_40x25` — one end-to-end `ParetoFrontSampler::sample` (draw one RFF
//!   function per objective, NSGA-II solve, front reduction): warm-scratch flat engine vs.
//!   the seed per-point loop on the shared probe problem.
//! * `rff_eval_batch80` — one 200-feature posterior sample answering 80 points:
//!   `eval_batch_into` vs. the per-point `eval` loop.
//! * `nsga2_machinery_40x30` — the evolutionary machinery isolated on a near-free synthetic
//!   objective: flat engine vs. the seed `Vec<Vec<f64>>` loop.
//!
//! The binary also asserts, via a counting global allocator, that a warm engine's
//! allocation count does **not** grow with the generation count — the "zero per-generation
//! heap allocation" contract of the flat rewrite — that one warm `eval_batch_into` at
//! the paper's 150 features × 40 points × 501 dimensions allocates nothing, and that one
//! warm-scratch `sample_with` at that shape allocates only the returned weight vector.
//!
//! `cargo bench -p bench --bench bench_acq` for the timed report; `-- --test` (CI smoke
//! mode) runs every routine once, untimed, and skips the JSON emission.

use bench::report::{fmt, print_header, write_json};
use bench::seedpath_acq::{
    self, build_seed_samplers, probe_models, probe_sampling_config, sample_front_seed,
};
use criterion::Criterion;
use fastmath::Precision;
use gp::kernel::Kernel;
use gp::{GaussianProcess, RffSampler, WeightScratch};
use moo::nsga2::{Nsga2, Nsga2Config, Nsga2Engine};
use parmis::pareto_sampling::{AcquisitionScratch, ParetoFrontSampler, ParetoSamplingConfig};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counts heap allocations so the bench can assert the warm engine allocates nothing per
/// generation. Deallocations are uncounted — only the allocation count matters here.
struct CountingAllocator;

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOCATION_COUNT.load(Ordering::Relaxed);
    f();
    ALLOCATION_COUNT.load(Ordering::Relaxed) - before
}

/// One measured seed-vs-flat comparison.
#[derive(Debug, Serialize)]
struct AcqBenchRow {
    name: String,
    seed_ms: f64,
    flat_ms: f64,
    /// seed_ms / flat_ms — how much cheaper the flat batched path is.
    speedup: f64,
}

fn row(name: &str, seed: Duration, flat: Duration) -> AcqBenchRow {
    let seed_ms = seed.as_secs_f64() * 1e3;
    let flat_ms = flat.as_secs_f64() * 1e3;
    AcqBenchRow {
        name: name.to_string(),
        seed_ms,
        flat_ms,
        speedup: seed_ms / flat_ms.max(1e-12),
    }
}

/// The zero-per-generation-allocation contract: once the engine (and the RFF machinery it
/// drives) is warm, evolving 10× more generations must not add a single heap allocation —
/// the whole per-generation loop runs on reused flat buffers.
fn assert_allocations_stay_flat() {
    let models = probe_models();
    let config = probe_sampling_config();
    let sampler_seed = 11u64;
    let samplers = build_seed_samplers(&models, config.rff_features, sampler_seed);
    let functions: Vec<gp::PosteriorSample> = samplers
        .iter()
        .map(|s| s.sample(3).expect("valid draw"))
        .collect();
    let k = functions.len();
    let dim = samplers[0].dim();

    let mut engine = Nsga2Engine::new();
    let mut column: Vec<f64> = Vec::new();
    let mut run = |generations: usize| {
        let nsga = Nsga2::new(
            vec![-3.0; dim],
            vec![3.0; dim],
            Nsga2Config {
                population_size: config.nsga_population,
                generations,
                seed: 99,
            },
        )
        .expect("valid problem");
        allocations_during(|| {
            engine.solve(&nsga, k, |points, out| {
                for (j, f) in functions.iter().enumerate() {
                    column.clear();
                    column.resize(points.count(), 0.0);
                    f.eval_batch_into(points.as_slice(), &mut column);
                    for (p, v) in column.iter().enumerate() {
                        out[p * k + j] = *v;
                    }
                }
            });
        })
    };
    // Warm-up at the largest shape, then measure: a warm engine must be allocation-free
    // regardless of how many generations it evolves.
    run(30);
    let allocs_3 = run(3);
    let allocs_30 = run(30);
    assert_eq!(
        allocs_3, allocs_30,
        "warm NSGA-II solves must not allocate per generation: {allocs_3} allocations at \
         3 generations vs {allocs_30} at 30"
    );
    assert_eq!(
        allocs_30, 0,
        "a warm engine solve must be entirely allocation-free, saw {allocs_30}"
    );
    println!("allocation flatness: {allocs_3}@3gen == {allocs_30}@30gen == 0 ok");
}

/// The same contract at the paper's shape, where the feature products are nearly all of
/// the work (the rows above run at dimension 3): one warm `eval_batch_into` of a
/// 150-feature sample over 40 points in θ ∈ ℝ⁵⁰¹, on whichever kernel copy
/// `linalg::RowPanels::dots` picks for this CPU, allocates nothing on either tier.
fn assert_paper_shape_eval_allocates_nothing() {
    let model = paper_shape_model();
    let points: Vec<f64> = (100..140).flat_map(paper_shape_point).collect();
    let mut out = vec![0.0; 40];
    for precision in [Precision::SeedExact, Precision::Fast] {
        let f = RffSampler::new(&model, 150, 5)
            .expect("valid sampler")
            .with_precision(precision)
            .sample(9)
            .expect("valid draw");
        f.eval_batch_into(&points, &mut out);
        let allocs = allocations_during(|| f.eval_batch_into(&points, &mut out));
        assert_eq!(
            allocs, 0,
            "a warm {precision:?} eval_batch_into at 150 × 40 × 501 must not allocate, saw {allocs}"
        );
    }
    println!("paper-shape eval_batch_into: 0 allocations on both tiers ok");
}

/// `WeightScratch`'s contract at the same shape: once the scratch is warm, a 150-feature
/// `sample_with` allocates exactly once, for the weight vector the returned sample owns.
fn assert_warm_weight_draw_allocates_once() {
    let model = paper_shape_model();
    for precision in [Precision::SeedExact, Precision::Fast] {
        let sampler = RffSampler::new(&model, 150, 5)
            .expect("valid sampler")
            .with_precision(precision);
        let mut scratch = WeightScratch::default();
        sampler.sample_with(8, &mut scratch).expect("valid draw");
        let allocs = allocations_during(|| {
            drop(sampler.sample_with(9, &mut scratch).expect("valid draw"));
        });
        assert_eq!(
            allocs, 1,
            "a warm-scratch {precision:?} sample_with at 150 features must allocate only the \
             weight vector, saw {allocs} allocations"
        );
    }
    println!("paper-shape warm sample_with: 1 allocation on both tiers ok");
}

/// Query point `i` in θ ∈ ℝ⁵⁰¹ for the paper-shape allocation checks.
fn paper_shape_point(i: usize) -> Vec<f64> {
    (0..501)
        .map(|d| ((i * 7919 + d * 104_729) % 1000) as f64 / 1000.0 - 0.5)
        .collect()
}

/// A Matérn-5/2 model over 12 points in θ ∈ ℝ⁵⁰¹.
fn paper_shape_model() -> GaussianProcess {
    let xs: Vec<Vec<f64>> = (0..12).map(paper_shape_point).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
    GaussianProcess::fit(xs, ys, Kernel::matern52(1.0, 3.0), 1e-3).expect("valid fit")
}

fn bench_front_sample(c: &mut Criterion, rows: &mut Vec<AcqBenchRow>) {
    let models = probe_models();
    // Slightly smaller than the gate shape so the timed report stays quick; the gate runs
    // the full probe_sampling_config shape.
    let config = ParetoSamplingConfig {
        nsga_generations: 25,
        ..probe_sampling_config()
    };
    let sampler_seed = 5u64;
    let samplers = build_seed_samplers(&models, config.rff_features, sampler_seed);
    let sampler =
        ParetoFrontSampler::new(&models, 3.0, config.clone(), sampler_seed).expect("valid sampler");
    let mut scratch = AcquisitionScratch::default();
    // Warm the scratch so the measurement sees the steady-state (framework) behaviour.
    sampler.sample_with(&mut scratch, 0).expect("valid sample");

    let mut sample_seed = 0u64;
    let seed = c.bench_timed("front_sample_200f_40x25/seed_path", |b| {
        b.iter(|| {
            sample_seed = sample_seed.wrapping_add(1);
            sample_front_seed(&samplers, 3.0, &config, sample_seed)
        })
    });
    let mut sample_seed = 0u64;
    let flat = c.bench_timed("front_sample_200f_40x25/flat_engine", |b| {
        b.iter(|| {
            sample_seed = sample_seed.wrapping_add(1);
            sampler
                .sample_with(&mut scratch, sample_seed)
                .expect("valid sample")
        })
    });
    rows.push(row("front_sample_200f_40x25", seed, flat));
}

fn bench_rff_eval_batch(c: &mut Criterion, rows: &mut Vec<AcqBenchRow>) {
    let models = probe_models();
    let sampler = RffSampler::new(&models[0], 200, 7).expect("valid sampler");
    let f = sampler.sample(1).expect("valid draw");
    let dim = sampler.dim();
    let points: Vec<f64> = (0..80 * dim)
        .map(|i| -2.0 + 0.05 * (i % 80) as f64)
        .collect();
    let mut out = vec![0.0; 80];

    let seed = c.bench_timed("rff_eval_batch80/per_point", |b| {
        b.iter(|| {
            for (p, o) in out.iter_mut().enumerate() {
                *o = f.eval(&points[p * dim..(p + 1) * dim]);
            }
        })
    });
    let flat = c.bench_timed("rff_eval_batch80/batched", |b| {
        b.iter(|| f.eval_batch_into(&points, &mut out))
    });
    rows.push(row("rff_eval_batch80", seed, flat));
}

/// Fast-tier rows: the same shapes as above, but comparing the seed-exact tier against
/// [`Precision::Fast`] (polynomial cosine kernels) on the *same* flat engine. Here
/// `seed_ms` is the seed-exact tier and `flat_ms` the fast tier, so `speedup` is the
/// exact→fast ratio the release gate (`fastmath_speed_gate`) asserts on.
fn bench_fast_tier(c: &mut Criterion, rows: &mut Vec<AcqBenchRow>) {
    let models = probe_models();
    let config = ParetoSamplingConfig {
        nsga_generations: 25,
        ..probe_sampling_config()
    };
    let sampler_seed = 5u64;
    let exact =
        ParetoFrontSampler::new(&models, 3.0, config.clone(), sampler_seed).expect("valid sampler");
    let fast = ParetoFrontSampler::new_with_precision(
        &models,
        3.0,
        config.clone(),
        sampler_seed,
        Precision::Fast,
    )
    .expect("valid sampler");
    let mut scratch = AcquisitionScratch::default();
    exact.sample_with(&mut scratch, 0).expect("valid sample");
    fast.sample_with(&mut scratch, 0).expect("valid sample");

    let mut sample_seed = 0u64;
    let exact_time = c.bench_timed("front_sample_fast_tier/seed_exact", |b| {
        b.iter(|| {
            sample_seed = sample_seed.wrapping_add(1);
            exact
                .sample_with(&mut scratch, sample_seed)
                .expect("valid sample")
        })
    });
    let mut sample_seed = 0u64;
    let fast_time = c.bench_timed("front_sample_fast_tier/fast", |b| {
        b.iter(|| {
            sample_seed = sample_seed.wrapping_add(1);
            fast.sample_with(&mut scratch, sample_seed)
                .expect("valid sample")
        })
    });
    rows.push(row("front_sample_fast_tier", exact_time, fast_time));

    // The 80-point batched posterior evaluation in isolation — the cosine-bound inner loop
    // the fast tier targets.
    let exact_sampler = RffSampler::new(&models[0], 200, 7).expect("valid sampler");
    let fast_sampler = RffSampler::new(&models[0], 200, 7)
        .expect("valid sampler")
        .with_precision(Precision::Fast);
    let exact_f = exact_sampler.sample(1).expect("valid draw");
    let fast_f = fast_sampler.sample(1).expect("valid draw");
    let dim = exact_sampler.dim();
    let points: Vec<f64> = (0..80 * dim)
        .map(|i| -2.0 + 0.05 * (i % 80) as f64)
        .collect();
    let mut out = vec![0.0; 80];

    // The fast batched path shares the exact path's allocation contract: warm, then zero.
    fast_f.eval_batch_into(&points, &mut out);
    let fast_allocs = allocations_during(|| fast_f.eval_batch_into(&points, &mut out));
    assert_eq!(
        fast_allocs, 0,
        "the fast-tier batched posterior evaluation must stay allocation-free"
    );

    let exact_time = c.bench_timed("rff_eval_batch80_fast_tier/seed_exact", |b| {
        b.iter(|| exact_f.eval_batch_into(&points, &mut out))
    });
    let fast_time = c.bench_timed("rff_eval_batch80_fast_tier/fast", |b| {
        b.iter(|| fast_f.eval_batch_into(&points, &mut out))
    });
    rows.push(row("rff_eval_batch80_fast_tier", exact_time, fast_time));
}

fn bench_nsga2_machinery(c: &mut Criterion, rows: &mut Vec<AcqBenchRow>) {
    // The shared machinery probe ([`seedpath_acq::probe_machinery_problem`]) isolates the
    // evolutionary machinery with a near-free objective — the gate asserts >= 2x on this
    // exact problem, so the BENCH_acq.json row and the gated ratio stay comparable.
    let (lower, upper, config) = seedpath_acq::probe_machinery_problem();

    let seed = c.bench_timed("nsga2_machinery_40x30/seed_path", |b| {
        b.iter(|| {
            seedpath_acq::nsga2_run_seed(
                &lower,
                &upper,
                &config,
                seedpath_acq::probe_machinery_eval,
            )
        })
    });
    let solver = Nsga2::new(lower.clone(), upper.clone(), config).expect("valid problem");
    let mut engine = Nsga2Engine::new();
    let flat = c.bench_timed("nsga2_machinery_40x30/flat_engine", |b| {
        b.iter(|| {
            engine.solve(&solver, 2, seedpath_acq::probe_machinery_eval_flat);
        })
    });
    rows.push(row("nsga2_machinery_40x30", seed, flat));
}

fn main() {
    let quick = std::env::var("PARMIS_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick");
    let mut criterion = Criterion::default().sample_size(if quick { 4 } else { 10 });

    print_header(
        "BENCH_acq",
        "flat-buffer batched acquisition engine vs the seed per-point sampling loop",
    );
    assert_allocations_stay_flat();
    assert_paper_shape_eval_allocates_nothing();
    assert_warm_weight_draw_allocates_once();

    let mut rows = Vec::new();
    bench_front_sample(&mut criterion, &mut rows);
    bench_rff_eval_batch(&mut criterion, &mut rows);
    bench_fast_tier(&mut criterion, &mut rows);
    bench_nsga2_machinery(&mut criterion, &mut rows);

    if criterion.is_test_mode() {
        println!("bench_acq smoke: every routine ran once; ratios not measured");
        return;
    }
    println!("name,seed_ms,flat_ms,speedup");
    for r in &rows {
        println!(
            "{},{},{},{}x",
            r.name,
            fmt(r.seed_ms),
            fmt(r.flat_ms),
            fmt(r.speedup)
        );
    }
    write_json("BENCH_acq", &rows);
}
