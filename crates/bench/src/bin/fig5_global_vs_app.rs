//! Figure 5: global vs. application-specific Pareto-frontier DRM policies.
//!
//! PaRMIS is trained once over all applications ("global" policies) and the PHV it achieves on
//! each individual application is normalized by the PHV of the application-specific policies.
//! The paper finds the global policies within ~2 % of (and occasionally better than) the
//! application-specific ones.
//!
//! ```text
//! cargo run --release -p bench --bin fig5_global_vs_app [-- --quick | --iterations N | --apps a,b]
//! ```

use bench::harness::{front_of, run_global_parmis, run_parmis, ExperimentArgs};
use bench::report::{fmt, print_header, print_table, write_json};
use moo::hypervolume::{common_reference_point, hypervolume, normalized};
use parmis::objective::Objective;
use serde::Serialize;

#[derive(Serialize)]
struct GlobalVsApp {
    benchmark: String,
    app_specific_phv: f64,
    global_phv: f64,
    normalized_global: f64,
}

fn main() {
    let ExperimentArgs {
        budget,
        apps: benchmarks,
    } = ExperimentArgs::from_args();
    let objectives = Objective::TIME_ENERGY;
    print_header(
        "Figure 5",
        "Normalized PHV of global Pareto-frontier policies w.r.t. application-specific policies",
    );

    // Train the global policy set once over all requested applications.
    let (global_eval, global_outcome) = run_global_parmis(&benchmarks, &objectives, &budget, 41);
    println!(
        "global run: {} Pareto-frontier policies from {} evaluations\n",
        global_outcome.front.len(),
        global_outcome.history.len()
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (i, benchmark) in benchmarks.iter().enumerate() {
        // Application-specific PaRMIS front.
        let app_outcome = run_parmis(*benchmark, &objectives, &budget, 200 + i as u64);
        let app_front = app_outcome.front.objective_values();

        // Evaluate every global Pareto policy on this application and keep the non-dominated set.
        let global_points: Vec<Vec<f64>> = global_outcome
            .front
            .tags()
            .iter()
            .map(|theta| {
                global_eval
                    .evaluate_on(theta, *benchmark)
                    .expect("global policy evaluation failed")
            })
            .collect();
        let global_front = front_of(global_points).objective_values();

        let reference = common_reference_point(&[&app_front, &global_front], 0.05);
        let app_phv = hypervolume(app_front, &reference);
        let global_phv = hypervolume(global_front, &reference);
        let norm = normalized(global_phv, app_phv);
        println!(
            "{}: app-specific PHV {:.4}, global PHV {:.4}, normalized {:.3}",
            benchmark.name(),
            app_phv,
            global_phv,
            norm
        );
        rows.push(vec![
            benchmark.name().to_string(),
            fmt(app_phv),
            fmt(global_phv),
            fmt(norm),
        ]);
        results.push(GlobalVsApp {
            benchmark: benchmark.name().to_string(),
            app_specific_phv: app_phv,
            global_phv,
            normalized_global: norm,
        });
    }

    print_table(
        "Figure 5: global vs application-specific PHV",
        &[
            "benchmark",
            "app_specific_phv",
            "global_phv",
            "normalized_global",
        ],
        &rows,
    );
    let avg = results.iter().map(|r| r.normalized_global).sum::<f64>() / results.len() as f64;
    println!("\naverage normalized global PHV: {avg:.3} (paper: within ~2% of 1.0 on average)");
    write_json("fig5_global_vs_app", &results);
}
