//! Heap-allocation contracts of the hot loops, checked by a counting global allocator.
//!
//! The streaming simulator, the warm NSGA-II engine and the RFF posterior samples promise
//! not to touch the heap in steady state: a run allocates no more at 1000 epochs than at
//! 100, a warm solve allocates nothing at any generation count, a warm batched evaluation
//! allocates nothing, and a warm-scratch weight draw allocates only the weights it returns.
//! These counts are exact and timing-free, so they hold in debug and release builds alike
//! and on any machine.
//!
//! libtest runs tests on parallel threads, so the allocator counts per thread: each test
//! only sees the allocations of the code it calls. None of the measured code spawns
//! threads.

use fastmath::Precision;
use gp::kernel::Kernel;
use gp::{GaussianProcess, PosteriorSample, RffSampler, WeightScratch};
use moo::nsga2::{Nsga2, Nsga2Config, Nsga2Engine};
use parmis::pareto_sampling::ParetoSamplingConfig;
use policy::drm_policy::{DrmPolicy, PolicyArchitecture};
use soc_sim::config::DrmDecision;
use soc_sim::counters::CounterSnapshot;
use soc_sim::platform::{DrmController, Platform};
use soc_sim::workload::{Application, ApplicationBuilder, PhaseSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations. Deallocations are uncounted — only the
/// allocation count matters here.
struct CountingAllocator;

thread_local! {
    /// `const`-initialised and without a destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers entirely to the system allocator; the counter is a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while the thread is being torn down; nothing is measured
        // then.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations this thread makes while running `f`.
fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Controller pinning one fixed decision.
struct FixedDecisionController(DrmDecision);

impl DrmController for FixedDecisionController {
    fn decide(&mut self, _: &CounterSnapshot, _: &DrmDecision) -> DrmDecision {
        self.0
    }

    fn name(&self) -> &str {
        "fixed"
    }
}

/// A jittered `epochs`-epoch application over one balanced mixed phase: the streaming
/// contract's workload.
fn probe_app(epochs: usize) -> Application {
    let phase = PhaseSpec {
        name: "probe".into(),
        instructions: 40e6,
        parallel_fraction: 0.55,
        memory_refs_per_instr: 0.25,
        l2_miss_rate: 0.05,
        branch_fraction: 0.1,
        branch_miss_rate: 0.05,
        ilp_scale: 0.85,
    };
    ApplicationBuilder::new(format!("sim-bench-{epochs}"))
        .phase(phase, epochs)
        .jitter(0.05)
        .build()
        .expect("valid probe application")
}

/// The zero-per-epoch-allocation contract of the streaming engine: a run's allocation
/// count must not grow with the epoch count — under a fixed controller AND under a learned
/// policy (whose four-head inference reuses the policy-owned `MlpScratch`).
fn assert_allocations_stay_flat(platform: &Platform) {
    let short = probe_app(100);
    let long = probe_app(1000);
    let decision = DrmDecision {
        big_cores: 2,
        little_cores: 2,
        big_freq_mhz: 1400,
        little_freq_mhz: 1000,
    };
    let run = |app: &Application| {
        let mut controller = FixedDecisionController(decision);
        allocations_during(|| {
            platform
                .run_application(app, &mut controller, 7)
                .expect("valid run");
        })
    };
    // Warm-up (lazy thread-local RNG state etc.), then measure both lengths.
    run(&short);
    let allocs_100 = run(&short);
    let allocs_1000 = run(&long);
    assert_eq!(
        allocs_100, allocs_1000,
        "streaming runs must not allocate per epoch: {allocs_100} allocations at 100 epochs \
         vs {allocs_1000} at 1000"
    );
    // Policy-driven runs: per-epoch MLP inference must stay allocation-free too once the
    // policy's scratch has warmed (the per-run delta is epoch-count-invariant).
    let space = platform.spec().decision_space();
    let mut policy = DrmPolicy::random(space, &PolicyArchitecture::paper_default(), 5);
    let mut policy_run = |app: &Application| {
        allocations_during(|| {
            platform
                .run_application(app, &mut policy, 7)
                .expect("valid run");
        })
    };
    policy_run(&short);
    let policy_100 = policy_run(&short);
    let policy_1000 = policy_run(&long);
    assert_eq!(
        policy_100, policy_1000,
        "policy-driven streaming runs must not allocate per epoch: {policy_100} allocations \
         at 100 epochs vs {policy_1000} at 1000"
    );
}

#[test]
fn streaming_runs_allocate_nothing_per_epoch_on_both_tiers() {
    assert_allocations_stay_flat(&Platform::odroid_xu3());
    // The fast-tier noise pipeline (blocked Box–Muller over a fixed-size buffer) shares
    // the contract with the exact path.
    assert_allocations_stay_flat(&Platform::odroid_xu3().with_precision(Precision::Fast));
}

/// The zero-per-generation-allocation contract: once the engine (and the RFF machinery it
/// drives) is warm, evolving 10× more generations must not add a single heap allocation —
/// the whole per-generation loop runs on reused flat buffers.
#[test]
fn warm_nsga2_solves_allocate_nothing_per_generation() {
    let models = probe_models();
    let config = probe_sampling_config();
    let samplers: Vec<RffSampler> = models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            RffSampler::new(m, config.rff_features, 11 + i as u64).expect("valid sampler")
        })
        .collect();
    let functions: Vec<PosteriorSample> = samplers
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
}

/// The same contract at the paper's shape, where the feature products are nearly all of
/// the work (the NSGA-II contract runs at dimension 3): one warm `eval_batch_into` of a
/// 150-feature sample over 40 points in θ ∈ ℝ⁵⁰¹, on whichever kernel copy
/// `linalg::RowPanels::dots` picks for this CPU, allocates nothing on either tier.
#[test]
fn paper_shape_eval_batch_allocates_nothing_on_both_tiers() {
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
}

/// `WeightScratch`'s contract at the same shape: once the scratch is warm, a 150-feature
/// `sample_with` allocates exactly once, for the weight vector the returned sample owns.
#[test]
fn warm_weight_draw_allocates_once_on_both_tiers() {
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
}

/// The fast batched path shares the exact path's allocation contract on the 3-dimensional
/// probe models: a 200-feature sample answering 80 points allocates nothing once warm.
#[test]
fn fast_tier_eval_batch80_allocates_nothing() {
    let models = probe_models();
    let fast_sampler = RffSampler::new(&models[0], 200, 7)
        .expect("valid sampler")
        .with_precision(Precision::Fast);
    let fast_f = fast_sampler.sample(1).expect("valid draw");
    let dim = fast_sampler.dim();
    let points: Vec<f64> = (0..80 * dim)
        .map(|i| -2.0 + 0.05 * (i % 80) as f64)
        .collect();
    let mut out = vec![0.0; 80];
    fast_f.eval_batch_into(&points, &mut out);
    let fast_allocs = allocations_during(|| fast_f.eval_batch_into(&points, &mut out));
    assert_eq!(
        fast_allocs, 0,
        "the fast-tier batched posterior evaluation must stay allocation-free"
    );
}

/// Two 3-dimensional GP models with opposing trends (a genuine model Pareto trade-off),
/// fitted on a deterministic design: the probe problem of the NSGA-II and fast-tier
/// contracts.
fn probe_models() -> Vec<GaussianProcess> {
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
    let kernel = Kernel::matern52(1.0, 2.0);
    vec![
        GaussianProcess::fit(xs.clone(), y1, kernel.clone(), 1e-4).expect("valid fit"),
        GaussianProcess::fit(xs, y2, kernel, 1e-4).expect("valid fit"),
    ]
}

/// The probe's sampling shape: 200 random features, a 40-individual population evolved
/// for 30 generations.
fn probe_sampling_config() -> ParetoSamplingConfig {
    ParetoSamplingConfig {
        rff_features: 200,
        nsga_population: 40,
        nsga_generations: 30,
    }
}

/// Query point `i` in θ ∈ ℝ⁵⁰¹ for the paper-shape contracts.
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
