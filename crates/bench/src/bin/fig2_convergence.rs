//! Figure 2: convergence of PaRMIS — Pareto hypervolume of the uncovered front vs. the number
//! of iterations, for the Blowfish and Spectral benchmarks.
//!
//! ```text
//! cargo run --release -p bench --bin fig2_convergence [-- --quick | --iterations N]
//! ```

use bench::harness::{run_parmis, ExperimentArgs};
use bench::report::{print_header, print_series, write_json};
use parmis::objective::Objective;
use serde::Serialize;
use soc_sim::apps::Benchmark;

#[derive(Serialize)]
struct ConvergenceSeries {
    benchmark: String,
    phv_by_iteration: Vec<f64>,
    converged_within: usize,
}

fn main() {
    let budget = ExperimentArgs::from_args().budget;
    print_header(
        "Figure 2",
        "PaRMIS convergence: PHV of the uncovered Pareto front vs. iterations (execution time, energy)",
    );
    println!(
        "budget: {} PaRMIS iterations per application\n",
        budget.parmis_iterations
    );

    let mut all = Vec::new();
    for benchmark in [Benchmark::Blowfish, Benchmark::Spectral] {
        let outcome = run_parmis(benchmark, &Objective::TIME_ENERGY, &budget, 7);
        let series: Vec<(f64, f64)> = outcome
            .phv_history
            .iter()
            .enumerate()
            .map(|(i, phv)| (i as f64, *phv))
            .collect();
        print_series(benchmark.name(), "iteration", "phv", &series);

        // Report the iteration after which PHV stopped improving by more than 0.5 %.
        let final_phv = outcome.final_phv();
        let converged_within = outcome
            .phv_history
            .iter()
            .position(|phv| *phv >= final_phv * 0.995)
            .map(|i| i + 1)
            .unwrap_or(outcome.phv_history.len());
        println!(
            "{}: final PHV {:.4}, within 0.5% of final after {} iterations (paper: converges within ~300 of 500)\n",
            benchmark.name(),
            final_phv,
            converged_within
        );
        all.push(ConvergenceSeries {
            benchmark: benchmark.name().to_string(),
            phv_by_iteration: outcome.phv_history.clone(),
            converged_within,
        });
    }
    write_json("fig2_convergence", &all);
}
