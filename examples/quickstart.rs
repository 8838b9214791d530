//! Quickstart: find Pareto-frontier DRM policies for one application with PaRMIS and pick a
//! policy for a desired trade-off at "runtime".
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use parmis::prelude::*;
use parmis_repro::{example_parmis_config, sized};
use soc_sim::platform::Platform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Choose the target application and the objectives to trade off.
    let benchmark = Benchmark::Qsort;
    let objectives = vec![Objective::ExecutionTime, Objective::Energy];
    println!(
        "PaRMIS quickstart: {} / (execution time, energy)",
        benchmark
    );

    // 2. Offline phase: run the information-theoretic search for Pareto-frontier policies.
    let evaluator = SocEvaluator::builder()
        .benchmark(benchmark)
        .objectives(objectives)
        .build()?;
    let outcome = Parmis::new(example_parmis_config(sized(30, 8), 7)).run(&evaluator)?;
    println!(
        "evaluated {} candidate policies, found {} Pareto-frontier policies (PHV {:.3})",
        outcome.history.len(),
        outcome.front.len(),
        outcome.final_phv()
    );
    for entry in outcome.front.iter() {
        println!(
            "  policy: execution time {:.2} s, energy {:.2} J",
            entry.objectives[0], entry.objectives[1]
        );
    }

    // 3. Online phase: the user prefers energy savings (e.g. the battery is low), so select
    //    the Pareto policy with an energy-leaning scalarization and run it.
    let preferred = outcome
        .front
        .select_by(|o| 0.2 * o[0] + 0.8 * o[1])
        .expect("front is never empty after a successful run");
    let mut policy = evaluator.policy_for(&preferred.tag).with_name("selected");
    let platform = Platform::odroid_xu3();
    let run = platform.run_application(&benchmark.application(), &mut policy, 123)?;
    println!(
        "selected policy re-run: {:.2} s, {:.2} J, {:.2} W average ({} decision epochs)",
        run.execution_time_s, run.energy_j, run.average_power_w, run.epochs
    );
    Ok(())
}
