//! Resumable search: run PaRMIS under a fuel budget, suspend mid-search, serialize the
//! checkpoint to JSON, restore it and resume — then prove via the trace-hash chain that
//! the stitched-together run followed the uninterrupted trajectory bit for bit.
//!
//! ```text
//! cargo run --release --example resumable_search
//! ```

use parmis::prelude::*;
use parmis_repro::{example_parmis_config, sized};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(vec![Objective::ExecutionTime, Objective::Energy])
        .build()?;

    let budget = sized(24, 8);
    let config = example_parmis_config(budget, 11);
    println!(
        "resumable search: {} evaluations, suspending every {} (fuel budget)",
        config.max_iterations,
        config.max_iterations / 2
    );

    // Reference: the same search, uninterrupted.
    let uninterrupted = Parmis::new(config.clone()).run(&evaluator)?;

    // Fuel-bounded: the search suspends at an iteration boundary once the per-segment
    // evaluation budget is spent, handing back a serializable state.
    let fuel = config.max_iterations / 2;
    let search = Parmis::new(config);
    let mut segments = 1;
    let mut step = search.segment(&evaluator, None, fuel, 0, &mut |_| Ok(()))?;
    let resumed = loop {
        match step {
            SearchStep::Completed(outcome) => break *outcome,
            SearchStep::Suspended { state, .. } => {
                // Simulated kill: everything is dropped except the checkpoint JSON. A
                // real deployment writes this to disk (see the `resume_smoke` bench bin
                // for the two-process version).
                let json = state.to_json()?;
                println!(
                    "segment {segments}: suspended after {} evaluations ({} checkpoint bytes)",
                    state.evaluations(),
                    json.len()
                );
                let restored = SearchState::from_json(&json)?;
                step = search.segment(&evaluator, Some(restored), fuel, 0, &mut |_| Ok(()))?;
                segments += 1;
            }
        }
    };
    println!("completed in {segments} segments");

    // The audit trail: per-iteration trace hashes fold every candidate, objective vector
    // and the RNG cursor. Identical chains mean identical trajectories — not just
    // similar-looking fronts.
    assert_eq!(
        uninterrupted.trace_hashes, resumed.trace_hashes,
        "resumed run diverged from the uninterrupted trajectory"
    );
    assert_eq!(uninterrupted.phv_history, resumed.phv_history);
    println!(
        "trace-hash audit passed: {} links, final hash {:#018x}",
        resumed.trace_hashes.len(),
        resumed.trace_hashes.last().copied().unwrap_or(0)
    );
    println!(
        "front: {} Pareto-frontier policies, PHV {:.3}",
        resumed.front.len(),
        resumed.final_phv()
    );
    Ok(())
}
