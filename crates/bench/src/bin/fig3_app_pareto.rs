//! Figure 3: application-specific Pareto fronts (execution time vs. energy) for Qsort and
//! PCA, comparing PaRMIS against RL, IL and the four default governors.
//!
//! ```text
//! cargo run --release -p bench --bin fig3_app_pareto [-- --quick | --iterations N]
//! ```

use bench::harness::{collect_method_fronts, phv_with_common_reference, ExperimentArgs};
use bench::report::{fmt, print_header, print_table, write_json};
use moo::dominance::dominates;
use parmis::objective::Objective;
use serde::Serialize;
use soc_sim::apps::Benchmark;

#[derive(Serialize)]
struct FigureData {
    benchmark: String,
    fronts: Vec<bench::MethodFront>,
    phv: Vec<(String, f64)>,
}

fn main() {
    let budget = ExperimentArgs::from_args().budget;
    print_header(
        "Figure 3",
        "Application-specific Pareto fronts (execution time [s] vs energy [J]) for Qsort and PCA",
    );

    let mut all = Vec::new();
    for benchmark in [Benchmark::Qsort, Benchmark::Pca] {
        println!("\n=== {} ===", benchmark.name());
        let fronts = collect_method_fronts(benchmark, &Objective::TIME_ENERGY, &budget, 11);

        for front in &fronts {
            let rows: Vec<Vec<String>> = front
                .points
                .iter()
                .map(|p| vec![front.method.clone(), fmt(p[0]), fmt(p[1])])
                .collect();
            print_table(
                &format!("{} / {}", benchmark.name(), front.method),
                &["method", "execution_time_s", "energy_j"],
                &rows,
            );
        }

        // Paper observation 1: the PaRMIS front dominates the RL and IL fronts.
        let parmis_points = &fronts.iter().find(|f| f.method == "parmis").unwrap().points;
        for baseline in [
            "rl",
            "il",
            "performance",
            "powersave",
            "ondemand",
            "interactive",
        ] {
            let Some(points) = fronts
                .iter()
                .find(|f| f.method == baseline)
                .map(|f| &f.points)
            else {
                continue;
            };
            let dominated = points
                .iter()
                .filter(|p| parmis_points.iter().any(|q| dominates(q, p)))
                .count();
            println!(
                "{}: {}/{} {} points dominated by the PaRMIS front",
                benchmark.name(),
                dominated,
                points.len(),
                baseline
            );
        }

        let phv = phv_with_common_reference(&fronts);
        let rows: Vec<Vec<String>> = phv.iter().map(|(m, v)| vec![m.clone(), fmt(*v)]).collect();
        print_table(
            &format!("{} PHV (common reference)", benchmark.name()),
            &["method", "phv"],
            &rows,
        );

        all.push(FigureData {
            benchmark: benchmark.name().to_string(),
            fronts,
            phv,
        });
    }
    write_json("fig3_app_pareto", &all);
}
