//! Criterion micro-benchmarks for the computational kernels of the reproduction.
//!
//! These quantify the costs the paper discusses qualitatively: the per-decision policy
//! inference latency (Table II), the per-iteration cost of the PaRMIS machinery (GP fitting,
//! posterior-function sampling, acquisition evaluation, NSGA-II front sampling), the PHV
//! metric itself, and the simulator's epoch/application throughput that every experiment
//! rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gp::kernel::Kernel;
use gp::{GaussianProcess, RffSampler};
use moo::hypervolume::hypervolume;
use moo::nsga2::{Nsga2, Nsga2Config};
use parmis::acquisition::information_gain;
use parmis::evaluation::{ParallelEvaluator, PolicyEvaluator, SocEvaluator};
use parmis::objective::Objective;
use parmis::pareto_sampling::{ParetoFrontSampler, ParetoSamplingConfig};
use policy::drm_policy::{DrmPolicy, PolicyArchitecture};
use policy::features::policy_features;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soc_sim::apps::Benchmark;
use soc_sim::config::DrmDecision;
use soc_sim::counters::CounterSnapshot;
use soc_sim::governor::OndemandGovernor;
use soc_sim::platform::Platform;
use soc_sim::DecisionSpace;

fn busy_counters() -> CounterSnapshot {
    CounterSnapshot {
        instructions_retired: 8e7,
        cpu_cycles: 2.4e8,
        branch_mispredictions: 4e5,
        l2_cache_misses: 9e5,
        data_memory_accesses: 2.4e7,
        noncache_external_requests: 7e5,
        little_cluster_utilization_sum: 2.4,
        big_cluster_utilization_per_core: 0.8,
        total_chip_power_w: 4.2,
    }
}

/// Table II: per-decision inference latency of the four-headed MLP policy.
fn bench_policy_inference(c: &mut Criterion) {
    let space = DecisionSpace::exynos5422();
    let policy = DrmPolicy::random(&space, &PolicyArchitecture::paper_default(), 3);
    let features = policy_features(&busy_counters());
    c.bench_function("policy_decision_4_knobs", |b| {
        b.iter(|| std::hint::black_box(policy.decide_indices(std::hint::black_box(&features))))
    });
}

/// Simulator throughput: one epoch and one full application under a governor.
fn bench_simulator(c: &mut Criterion) {
    let platform = Platform::odroid_xu3();
    let app = Benchmark::Qsort.application();
    let decision = DrmDecision {
        big_cores: 2,
        little_cores: 2,
        big_freq_mhz: 1400,
        little_freq_mhz: 1000,
    };
    c.bench_function("soc_sim_single_epoch", |b| {
        b.iter(|| platform.run_epoch(&decision, &app.epochs[0]).unwrap())
    });
    c.bench_function("soc_sim_full_application_ondemand", |b| {
        b.iter(|| {
            let mut governor = OndemandGovernor::new(platform.spec().clone());
            platform.run_application(&app, &mut governor, 0).unwrap()
        })
    });
}

use bench::data::synthetic_gp_data as random_training_data;

/// GP substrate: fitting and posterior prediction at PaRMIS-realistic sizes.
fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp");
    for &n in &[50usize, 150] {
        let (xs, ys) = random_training_data(n, 20, 7);
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                GaussianProcess::fit(xs.clone(), ys.clone(), Kernel::matern52(1.0, 8.0), 1e-4)
                    .unwrap()
            })
        });
        let gp =
            GaussianProcess::fit(xs.clone(), ys.clone(), Kernel::matern52(1.0, 8.0), 1e-4).unwrap();
        let query = vec![0.5; 20];
        group.bench_with_input(BenchmarkId::new("predict", n), &n, |b, _| {
            b.iter(|| gp.predict(std::hint::black_box(&query)).unwrap())
        });
    }
    group.finish();
}

/// The incremental-refit engine: appending one observation via the rank-one Cholesky
/// extension (`with_observation`) against the serial baseline of refitting the same `n + 1`
/// points from scratch. The `full_fit/n` vs `incremental/n` ratio is the speedup tracked by
/// `BENCH_gp.json`.
fn bench_gp_incremental_refit(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp_incremental_refit");
    for &n in &[50usize, 150] {
        let (xs, ys) = random_training_data(n + 1, 20, 7);
        let gp = GaussianProcess::fit(
            xs[..n].to_vec(),
            ys[..n].to_vec(),
            Kernel::matern52(1.0, 8.0),
            1e-4,
        )
        .unwrap();
        let (new_x, new_y) = (xs[n].clone(), ys[n]);
        group.bench_with_input(BenchmarkId::new("full_fit", n), &n, |b, _| {
            b.iter(|| {
                GaussianProcess::fit(xs.clone(), ys.clone(), Kernel::matern52(1.0, 8.0), 1e-4)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                gp.with_observation(std::hint::black_box(new_x.clone()), new_y)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The batched-prediction engine: scoring a PaRMIS-sized 128-candidate pool with one
/// `predict_batch` blocked solve against the serial baseline of 128 per-point `predict`
/// calls (identical results, see `gp` proptests).
fn bench_predict_batch128(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict_batch128");
    for &n in &[50usize, 150] {
        let (xs, ys) = random_training_data(n, 20, 7);
        let gp = GaussianProcess::fit(xs, ys, Kernel::matern52(1.0, 8.0), 1e-4).unwrap();
        let (queries, _) = random_training_data(128, 20, 31);
        group.bench_with_input(BenchmarkId::new("per_point", n), &n, |b, _| {
            b.iter(|| {
                for q in std::hint::black_box(&queries) {
                    std::hint::black_box(gp.predict(q).unwrap());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| gp.predict_batch(std::hint::black_box(&queries)).unwrap())
        });
    }
    group.finish();
}

/// PaRMIS machinery: RFF posterior sampling, NSGA-II front sampling and acquisition scoring.
fn bench_parmis_kernels(c: &mut Criterion) {
    let dim = 20;
    let (xs, ys) = random_training_data(60, dim, 11);
    let (xs2, ys2) = random_training_data(60, dim, 13);
    let models = vec![
        GaussianProcess::fit(xs, ys, Kernel::matern52(1.0, 8.0), 1e-4).unwrap(),
        GaussianProcess::fit(xs2, ys2, Kernel::matern52(1.0, 8.0), 1e-4).unwrap(),
    ];

    c.bench_function("rff_posterior_sample", |b| {
        let sampler = RffSampler::new(&models[0], 150, 3).unwrap();
        b.iter(|| sampler.sample(7).unwrap())
    });

    let sampling_config = ParetoSamplingConfig {
        rff_features: 100,
        nsga_population: 24,
        nsga_generations: 10,
    };
    c.bench_function("pareto_front_sample_rff_nsga2", |b| {
        let sampler = ParetoFrontSampler::new(&models, 3.0, sampling_config.clone(), 5).unwrap();
        b.iter(|| sampler.sample(3).unwrap())
    });

    let sampler = ParetoFrontSampler::new(&models, 3.0, sampling_config, 5).unwrap();
    let samples = vec![sampler.sample(1).unwrap()];
    let theta = vec![0.3; dim];
    c.bench_function("acquisition_information_gain", |b| {
        b.iter(|| information_gain(std::hint::black_box(&theta), &models, &samples).unwrap())
    });
}

/// The batched evaluation engine: a fixed 16-candidate batch through the serial default
/// `evaluate_batch` vs. `ParallelEvaluator` at 2 and 4 workers. The `threads` parameter in
/// the benchmark id is what future PRs track for speedup regressions in `BENCH_*.json`; on a
/// ≥ 4-core machine `parallel/4` should run at least 2× faster than `serial/1`.
fn bench_batch_evaluation(c: &mut Criterion) {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .expect("a benchmark evaluator always has an application");
    let dim = evaluator.parameter_dim();
    let mut rng = StdRng::seed_from_u64(29);
    let thetas: Vec<Vec<f64>> = (0..16)
        .map(|_| (0..dim).map(|_| rng.gen_range(-0.8..0.8)).collect())
        .collect();

    let mut group = c.benchmark_group("policy_evaluation_batch16");
    group.bench_with_input(BenchmarkId::new("serial", 1), &1usize, |b, _| {
        b.iter(|| {
            evaluator
                .evaluate_batch(std::hint::black_box(&thetas))
                .unwrap()
        })
    });
    for &workers in &[2usize, 4] {
        let parallel = ParallelEvaluator::new(evaluator.clone(), workers);
        group.bench_with_input(BenchmarkId::new("parallel", workers), &workers, |b, _| {
            b.iter(|| {
                parallel
                    .evaluate_batch(std::hint::black_box(&thetas))
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// Multi-objective substrate: PHV and NSGA-II on a standard problem.
fn bench_moo(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let points_2d: Vec<Vec<f64>> = (0..200)
        .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
        .collect();
    c.bench_function("hypervolume_2d_200_points", |b| {
        b.iter(|| hypervolume(points_2d.clone(), &[1.1, 1.1]))
    });
    let points_3d: Vec<Vec<f64>> = (0..60)
        .map(|_| {
            vec![
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            ]
        })
        .collect();
    c.bench_function("hypervolume_3d_60_points", |b| {
        b.iter(|| hypervolume(points_3d.clone(), &[1.1, 1.1, 1.1]))
    });
    // A 50-point mutually non-dominated 3-D front (points on a constant-sum simplex), the
    // worst case for the recursive slicer's active-set maintenance.
    let front_3d: Vec<Vec<f64>> = (0..50)
        .map(|_| {
            let x = rng.gen_range(0.0..1.0);
            let y = rng.gen_range(0.0..1.0);
            vec![x, y, 2.5 - x - y]
        })
        .collect();
    c.bench_function("hypervolume_3d_front50", |b| {
        b.iter(|| hypervolume(front_3d.clone(), &[3.0, 3.0, 3.0]))
    });

    c.bench_function("nsga2_zdt1_dim6", |b| {
        let config = Nsga2Config {
            population_size: 40,
            generations: 20,
            ..Default::default()
        };
        b.iter(|| {
            let solver = Nsga2::new(vec![0.0; 6], vec![1.0; 6], config.clone()).unwrap();
            solver.run(|x| {
                let f1 = x[0];
                let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / 5.0;
                vec![f1, g * (1.0 - (f1 / g).sqrt())]
            })
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_policy_inference, bench_simulator, bench_gp, bench_gp_incremental_refit,
        bench_predict_batch128, bench_parmis_kernels, bench_batch_evaluation, bench_moo
}
criterion_main!(benches);
