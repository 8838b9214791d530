//! Backend matrix smoke: one registry scenario through every evaluation backend.
//!
//! ```text
//! cargo run --release -p bench --bin backend_matrix -- [--quick] [--scenario <name>]
//! ```
//!
//! Runs the same θ batch through [`AnalyticSim`] (recording fixtures as it goes) and
//! [`TraceReplay`] (replaying those fixtures), checks that the replayed objective vectors
//! are bit-identical to the recorded run, and reports the per-evaluation cost of each
//! backend plus the analytic/replay cost ratio (the tracked "replay is ≥ 5× cheaper"
//! number). Set `PARMIS_RESULTS_DIR` to also write `BENCH_backends.json`.

use bench::report;
use parmis::backend::{AnalyticSim, TraceReplay};
use parmis::prelude::*;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BackendRow {
    backend: String,
    deterministic: bool,
    batch: usize,
    total_seconds: f64,
    per_eval_micros: f64,
    matches_analytic_bitwise: bool,
}

#[derive(Serialize)]
struct BackendReport {
    scenario: String,
    batch: usize,
    replay_speedup: f64,
    rows: Vec<BackendRow>,
}

fn timed_batch(evaluator: &SocEvaluator, thetas: &[Vec<f64>]) -> (f64, Vec<Vec<f64>>) {
    let start = Instant::now();
    let results = evaluator
        .evaluate_batch(thetas)
        .expect("backend matrix batch evaluation failed");
    (start.elapsed().as_secs_f64(), results)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_name = "odroid-pca-thermal".to_string();
    let mut batch = 64usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => batch = 12,
            "--scenario" => {
                i += 1;
                match args.get(i) {
                    Some(name) => scenario_name = name.clone(),
                    None => {
                        eprintln!("error: --scenario needs a name");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let scenario = match soc_sim::scenario::by_name(&scenario_name) {
        Some(scenario) => scenario,
        None => {
            eprintln!("error: unknown scenario {scenario_name}");
            std::process::exit(2);
        }
    };
    report::print_header(
        "backend matrix",
        "one scenario through AnalyticSim / TraceReplay",
    );
    println!("scenario: {scenario_name}   batch: {batch}");

    let build = |backend: Arc<dyn parmis::backend::EvalBackend>| -> SocEvaluator {
        SocEvaluator::builder()
            .scenario(&scenario)
            .objectives(Objective::TIME_ENERGY.to_vec())
            .backend(backend)
            .build()
            .expect("registry scenarios always build")
    };

    let (recording, _) = AnalyticSim::recording();
    let recorder = Arc::new(recording);
    let analytic = build(recorder.clone());
    let thetas: Vec<Vec<f64>> = (0..batch)
        .map(|i| vec![(i as f64 / batch as f64) - 0.5; analytic.parameter_dim()])
        .collect();

    // Warm-up records the fixture; the timed analytic pass then runs without recording.
    let (_, recorded_results) = timed_batch(&analytic, &thetas);
    let fixtures = recorder.snapshot_traces().expect("recorder was attached");
    let (analytic_s, analytic_results) = timed_batch(&build(Arc::new(AnalyticSim::new())), &thetas);
    assert_eq!(
        recorded_results, analytic_results,
        "recording must not perturb the evaluation"
    );

    let replay_eval = build(Arc::new(TraceReplay::new(fixtures)));
    let (replay_s, replay_results) = timed_batch(&replay_eval, &thetas);
    let replay_matches = replay_results == analytic_results;
    assert!(
        replay_matches,
        "replayed objectives must be bit-identical to the recorded run"
    );

    let per_eval = |total_s: f64| total_s / batch as f64 * 1e6;
    let rows = vec![
        BackendRow {
            backend: "analytic-sim".into(),
            deterministic: true,
            batch,
            total_seconds: analytic_s,
            per_eval_micros: per_eval(analytic_s),
            matches_analytic_bitwise: true,
        },
        BackendRow {
            backend: "trace-replay".into(),
            deterministic: true,
            batch,
            total_seconds: replay_s,
            per_eval_micros: per_eval(replay_s),
            matches_analytic_bitwise: replay_matches,
        },
    ];
    report::print_table(
        "backends",
        &["backend", "per_eval_us", "total_s", "bitwise_vs_analytic"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.backend.clone(),
                    report::fmt(r.per_eval_micros),
                    report::fmt(r.total_seconds),
                    r.matches_analytic_bitwise.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let replay_speedup = if replay_s > 0.0 {
        analytic_s / replay_s
    } else {
        f64::INFINITY
    };
    println!("replay speedup over analytic simulation: {replay_speedup:.1}x (tracked >= 5x)");

    report::write_json(
        "BENCH_backends",
        &BackendReport {
            scenario: scenario_name,
            batch,
            replay_speedup,
            rows,
        },
    );
}
