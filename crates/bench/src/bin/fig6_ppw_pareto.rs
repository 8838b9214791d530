//! Figure 6: application-specific Pareto fronts trading off PPW (performance per watt) and
//! execution time, for Basicmath and Dijkstra.
//!
//! PPW is the paper's "complex objective": RL and IL cannot be trained for it directly, so —
//! exactly as in §V-E — their energy/time-trained policy sets are re-evaluated under the
//! (time, PPW) objective pair, while PaRMIS optimizes the pair natively.
//!
//! ```text
//! cargo run --release -p bench --bin fig6_ppw_pareto [-- --quick | --iterations N]
//! ```

use bench::harness::{collect_method_fronts, phv_with_common_reference, ExperimentArgs};
use bench::report::{fmt, print_header, print_table, write_json};
use parmis::objective::{reporting_vector, Objective};
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
        "Figure 6",
        "Application-specific Pareto fronts for PPW vs execution time (Basicmath, Dijkstra)",
    );

    let objectives = Objective::TIME_PPW;
    let mut all = Vec::new();
    for benchmark in [Benchmark::Basicmath, Benchmark::Dijkstra] {
        println!("\n=== {} ===", benchmark.name());
        let fronts = collect_method_fronts(benchmark, &objectives, &budget, 23);

        for front in &fronts {
            let rows: Vec<Vec<String>> = front
                .points
                .iter()
                .map(|p| {
                    let reporting = reporting_vector(&objectives, p);
                    vec![front.method.clone(), fmt(reporting[0]), fmt(reporting[1])]
                })
                .collect();
            print_table(
                &format!("{} / {}", benchmark.name(), front.method),
                &["method", "execution_time_s", "ppw"],
                &rows,
            );
        }

        let phv = phv_with_common_reference(&fronts);
        let rows: Vec<Vec<String>> = phv.iter().map(|(m, v)| vec![m.clone(), fmt(*v)]).collect();
        print_table(
            &format!(
                "{} PHV (common reference, minimization space)",
                benchmark.name()
            ),
            &["method", "phv"],
            &rows,
        );
        all.push(FigureData {
            benchmark: benchmark.name().to_string(),
            fronts,
            phv,
        });
    }
    write_json("fig6_ppw_pareto", &all);
}
