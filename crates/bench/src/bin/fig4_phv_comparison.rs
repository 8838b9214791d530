//! Figure 4: normalized PHV of the RL and IL baselines w.r.t. PaRMIS for application-specific
//! optimization of (execution time, energy), across all 12 benchmarks.
//!
//! The paper reports PaRMIS achieving on average 13 % higher PHV than RL and 23 % higher than
//! IL; the reproduced numbers should show the same ordering (both normalized values below 1).
//!
//! ```text
//! cargo run --release -p bench --bin fig4_phv_comparison [-- --quick | --iterations N | --apps qsort,pca]
//! ```

use bench::harness::{collect_method_fronts, phv_summary, ExperimentArgs};
use bench::report::{fmt, print_header, print_run_context, print_table, write_json};
use parmis::objective::Objective;

fn main() {
    let ExperimentArgs {
        budget,
        apps: benchmarks,
    } = ExperimentArgs::from_args();
    print_header(
        "Figure 4",
        "Normalized PHV of RL and IL w.r.t. PaRMIS, application-specific (execution time, energy)",
    );

    print_run_context(budget.effective_threads(), budget.parmis_batch);

    let mut summaries = Vec::new();
    for (i, benchmark) in benchmarks.iter().enumerate() {
        let fronts =
            collect_method_fronts(*benchmark, &Objective::TIME_ENERGY, &budget, 100 + i as u64);
        let summary = phv_summary(*benchmark, &fronts, &budget);
        println!(
            "{}: PaRMIS PHV {:.4}, RL {:.3}, IL {:.3} (normalized)",
            summary.benchmark, summary.parmis_phv, summary.rl_normalized, summary.il_normalized
        );
        summaries.push(summary);
    }

    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.benchmark.clone(),
                "1.000".to_string(),
                fmt(s.rl_normalized),
                fmt(s.il_normalized),
                s.threads.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 4: normalized PHV per application",
        &["benchmark", "parmis", "rl", "il", "threads"],
        &rows,
    );

    let avg_rl = summaries.iter().map(|s| s.rl_normalized).sum::<f64>() / summaries.len() as f64;
    let avg_il = summaries.iter().map(|s| s.il_normalized).sum::<f64>() / summaries.len() as f64;
    println!("\naverage normalized PHV: rl {avg_rl:.3}, il {avg_il:.3}");
    println!(
        "PaRMIS advantage: {:.1}% over RL (paper: ~13%), {:.1}% over IL (paper: ~23%)",
        (1.0 / avg_rl.max(1e-9) - 1.0) * 100.0,
        (1.0 / avg_il.max(1e-9) - 1.0) * 100.0
    );
    write_json("fig4_phv_comparison", &summaries);
}
