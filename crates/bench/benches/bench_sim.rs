//! Simulation-engine speedup report: measures the streaming, table-driven epoch loop
//! against the preserved seed path ([`bench::seedpath`]) and emits the ratios as
//! `BENCH_sim.json` (into `$PARMIS_RESULTS_DIR` when set).
//!
//! Criterion groups:
//!
//! * `epoch_loop` — one table-driven `Platform::run_epoch` vs. the seed's
//!   validate-and-rederive epoch.
//! * `full_application` — a 1000-epoch governor run: streaming `run_application_with`
//!   (no per-epoch materialization) vs. the seed's collecting loop.
//! * `evaluate_batch16` — a 16-θ policy-evaluation batch through `SocEvaluator`'s reusable
//!   `SimBuffers` scratch vs. the seed's decode-per-θ, materialize-per-run evaluation.
//! * `scenario_matrix_row` — one golden-matrix row (every stock governor on one scenario):
//!   the streaming `run_scenario_row` vs. the seed path.
//!
//! The binary also asserts, via a counting global allocator, that a streaming run's heap
//! allocation count does **not** grow with the epoch count — the "zero per-epoch heap
//! allocation" contract of the engine rewrite.
//!
//! `cargo bench -p bench --bench bench_sim` for the timed report; `-- --test` (CI smoke
//! mode) runs every routine once, untimed, and skips the JSON emission.

use bench::report::{fmt, print_header, write_json};
use bench::seedpath::{self, probe_app, probe_phase, FixedDecisionController as FixedController};
use criterion::Criterion;
use parmis::evaluation::{PolicyEvaluator, SocEvaluator};
use parmis::objective::{objective_vector, Objective};
use policy::drm_policy::DrmPolicy;
use serde::Serialize;
use soc_sim::apps::Benchmark;
use soc_sim::config::DrmDecision;
use soc_sim::platform::{DiscardEpochs, Platform};
use soc_sim::scenario;
use soc_sim::workload::Application;
use soc_sim::Precision;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counts heap allocations so the bench can assert the streaming loop allocates nothing
/// per epoch. Deallocations are uncounted — only the allocation count matters here.
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

/// One measured seed-vs-streaming comparison.
#[derive(Debug, Serialize)]
struct SimBenchRow {
    name: String,
    seed_ms: f64,
    streaming_ms: f64,
    /// seed_ms / streaming_ms — how much cheaper the streaming, table-driven path is.
    speedup: f64,
}

fn row(name: &str, seed: Duration, streaming: Duration) -> SimBenchRow {
    let seed_ms = seed.as_secs_f64() * 1e3;
    let streaming_ms = streaming.as_secs_f64() * 1e3;
    SimBenchRow {
        name: name.to_string(),
        seed_ms,
        streaming_ms,
        speedup: seed_ms / streaming_ms.max(1e-12),
    }
}

/// The zero-per-epoch-allocation contract: a streaming run's allocation count must not
/// grow with the epoch count — under a fixed controller AND under a learned policy (whose
/// four-head inference reuses the policy-owned `MlpScratch`).
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
        let mut controller = FixedController(decision);
        allocations_during(|| {
            platform
                .run_application_with(app, &mut controller, 7, &mut DiscardEpochs)
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
    let mut policy = DrmPolicy::random(
        space,
        &policy::drm_policy::PolicyArchitecture::paper_default(),
        5,
    );
    let mut policy_run = |app: &Application| {
        allocations_during(|| {
            platform
                .run_application_with(app, &mut policy, 7, &mut DiscardEpochs)
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
    println!(
        "allocation flatness: fixed {allocs_100}@100 == {allocs_1000}@1000, \
         policy {policy_100}@100 == {policy_1000}@1000 ok"
    );
}

fn bench_epoch_loop(c: &mut Criterion, rows: &mut Vec<SimBenchRow>) {
    let platform = Platform::odroid_xu3();
    let phase = probe_phase();
    let decision = DrmDecision {
        big_cores: 3,
        little_cores: 2,
        big_freq_mhz: 1600,
        little_freq_mhz: 800,
    };
    let seed = c.bench_timed("epoch_loop/seed_path", |b| {
        b.iter(|| seedpath::run_epoch_seed(&platform, &decision, &phase).unwrap())
    });
    let streaming = c.bench_timed("epoch_loop/table_driven", |b| {
        b.iter(|| platform.run_epoch(&decision, &phase).unwrap())
    });
    rows.push(row("epoch_loop", seed, streaming));
}

/// `label` distinguishes the default (noisy) platform from the zero-measurement-noise one:
/// the noise model costs two Box–Muller draws per epoch on *both* paths, so the quiet row
/// shows the engine's own win while the noisy row shows the end-to-end effect.
fn bench_full_application(
    c: &mut Criterion,
    rows: &mut Vec<SimBenchRow>,
    platform: &Platform,
    label: &str,
    epochs: usize,
) {
    let app = probe_app(epochs);
    let decision = DrmDecision {
        big_cores: 4,
        little_cores: 4,
        big_freq_mhz: 1800,
        little_freq_mhz: 1200,
    };
    let name = format!("full_application_{epochs}{label}");
    let seed = c.bench_timed(&format!("{name}/seed_path"), |b| {
        b.iter(|| {
            let mut controller = FixedController(decision);
            seedpath::run_application_seed(platform, &app, &mut controller, 7).unwrap()
        })
    });
    let streaming = c.bench_timed(&format!("{name}/streaming"), |b| {
        b.iter(|| {
            let mut controller = FixedController(decision);
            platform
                .run_application_with(&app, &mut controller, 7, &mut DiscardEpochs)
                .unwrap()
        })
    });
    rows.push(row(&name, seed, streaming));
}

/// Fast-tier row: the same noisy 1000-epoch application on the same streaming engine,
/// comparing the seed-exact noise pipeline (scalar Box–Muller through libm) against
/// [`Precision::Fast`] (blocked Box–Muller through the `fastmath` kernels). Here
/// `seed_ms` is the seed-exact tier and `streaming_ms` the fast tier, so `speedup` is
/// the exact→fast ratio the release gate (`fastmath_speed_gate`) asserts on.
fn bench_full_application_fast_tier(c: &mut Criterion, rows: &mut Vec<SimBenchRow>) {
    let exact = Platform::odroid_xu3();
    let fast = Platform::odroid_xu3().with_precision(Precision::Fast);
    let app = probe_app(1000);
    let decision = DrmDecision {
        big_cores: 4,
        little_cores: 4,
        big_freq_mhz: 1800,
        little_freq_mhz: 1200,
    };
    let exact_time = c.bench_timed("full_application_1000_fast_tier/seed_exact", |b| {
        b.iter(|| {
            let mut controller = FixedController(decision);
            exact
                .run_application_with(&app, &mut controller, 7, &mut DiscardEpochs)
                .unwrap()
        })
    });
    let fast_time = c.bench_timed("full_application_1000_fast_tier/fast", |b| {
        b.iter(|| {
            let mut controller = FixedController(decision);
            fast.run_application_with(&app, &mut controller, 7, &mut DiscardEpochs)
                .unwrap()
        })
    });
    rows.push(row(
        "full_application_1000_fast_tier",
        exact_time,
        fast_time,
    ));
}

fn bench_evaluate_batch16(c: &mut Criterion, rows: &mut Vec<SimBenchRow>) {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .expect("a benchmark evaluator always has an application");
    let dim = evaluator.parameter_dim();
    let thetas: Vec<Vec<f64>> = (0..16).map(|i| vec![-0.75 + 0.1 * i as f64; dim]).collect();

    // The seed evaluation: decode a fresh policy per θ, run the materializing seed loop,
    // extract objectives from the full summary.
    let platform = Platform::odroid_xu3();
    let app = Benchmark::Qsort.application();
    let objectives = Objective::TIME_ENERGY.to_vec();
    let seed = c.bench_timed("evaluate_batch16/seed_path", |b| {
        b.iter(|| {
            thetas
                .iter()
                .map(|theta| {
                    let mut policy = DrmPolicy::from_flat_parameters(
                        platform.spec().decision_space(),
                        evaluator.architecture(),
                        theta,
                    );
                    let summary =
                        seedpath::run_application_seed(&platform, &app, &mut policy, 17).unwrap();
                    objective_vector(&objectives, &summary)
                })
                .collect::<Vec<_>>()
        })
    });
    let streaming = c.bench_timed("evaluate_batch16/streaming_scratch", |b| {
        b.iter(|| evaluator.evaluate_batch(&thetas).unwrap())
    });
    rows.push(row("evaluate_batch16", seed, streaming));
}

fn bench_scenario_matrix_row(c: &mut Criterion, rows: &mut Vec<SimBenchRow>) {
    let scenario = scenario::by_name("odroid-qsort-baseline").expect("registered scenario");
    let platform = scenario.platform();
    let app = scenario.application().expect("buildable workload");
    let seed = c.bench_timed("scenario_matrix_row/seed_path", |b| {
        b.iter(|| {
            let mut cells = Vec::new();
            for mut governor in soc_sim::governor::default_governors(platform.spec()) {
                let run =
                    seedpath::run_application_seed(&platform, &app, &mut governor, 0).unwrap();
                cells.push((
                    run.execution_time_s,
                    run.energy_j,
                    run.peak_temperature_c,
                    scenario.constraints.penalty(&run),
                ));
            }
            cells
        })
    });
    // Same prebuilt platform/app as the seed comparator (constructing a Platform builds its
    // decision table, which would otherwise dominate this row and hide the per-epoch win).
    let streaming = c.bench_timed("scenario_matrix_row/streaming", |b| {
        b.iter(|| {
            let mut cells = Vec::new();
            for mut governor in soc_sim::governor::default_governors(platform.spec()) {
                let run = platform
                    .run_application_with(&app, &mut governor, 0, &mut DiscardEpochs)
                    .unwrap();
                cells.push((
                    run.execution_time_s,
                    run.energy_j,
                    run.peak_temperature_c,
                    scenario.constraints.penalty_from_metrics(
                        run.execution_time_s,
                        run.average_power_w,
                        run.peak_temperature_c,
                    ),
                ));
            }
            cells
        })
    });
    rows.push(row("scenario_matrix_row", seed, streaming));
}

fn main() {
    let quick = std::env::var("PARMIS_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick");
    let mut criterion = Criterion::default().sample_size(if quick { 4 } else { 10 });

    print_header(
        "BENCH_sim",
        "streaming/table-driven simulation engine vs the seed epoch loop",
    );
    assert_allocations_stay_flat(&Platform::odroid_xu3());
    // The fast-tier noise pipeline (blocked Box–Muller over a fixed-size buffer) shares
    // the zero-per-epoch-allocation contract with the exact path.
    assert_allocations_stay_flat(&Platform::odroid_xu3().with_precision(Precision::Fast));

    let mut rows = Vec::new();
    bench_epoch_loop(&mut criterion, &mut rows);
    bench_full_application(&mut criterion, &mut rows, &Platform::odroid_xu3(), "", 1000);
    let quiet = Platform::new(soc_sim::platform::SocSpec::new(
        soc_sim::DecisionSpace::exynos5422(),
        soc_sim::perf::PerfModel::default(),
        soc_sim::power::PowerModel::default(),
        0.0,
    ));
    bench_full_application(&mut criterion, &mut rows, &quiet, "_quiet", 1000);
    bench_full_application_fast_tier(&mut criterion, &mut rows);
    bench_evaluate_batch16(&mut criterion, &mut rows);
    bench_scenario_matrix_row(&mut criterion, &mut rows);

    if criterion.is_test_mode() {
        println!("bench_sim smoke: every routine ran once; ratios not measured");
        return;
    }
    println!("name,seed_ms,streaming_ms,speedup");
    for r in &rows {
        println!(
            "{},{},{},{}x",
            r.name,
            fmt(r.seed_ms),
            fmt(r.streaming_ms),
            fmt(r.speedup)
        );
    }
    write_json("BENCH_sim", &rows);
}
