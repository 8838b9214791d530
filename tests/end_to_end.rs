//! Cross-crate integration tests: the full PaRMIS pipeline (simulator → policies → GP models →
//! information-gain search → Pareto front) plus the baselines, exercised end to end on small
//! budgets.

use baselines::sweep::{governor_results, il_front, rl_front};
use moo::dominance::dominates;
use moo::hypervolume::{common_reference_point, hypervolume};
use parmis::evaluation::{GlobalEvaluator, PolicyEvaluator, SocEvaluator};
use parmis::framework::Parmis;
use parmis::objective::Objective;
use parmis_repro::{example_parmis_config, example_sweep_config};
use soc_sim::apps::Benchmark;
use soc_sim::platform::Platform;

#[test]
fn parmis_end_to_end_improves_over_random_and_respects_invariants() {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Fft)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap();
    let outcome = Parmis::new(example_parmis_config(16, 3))
        .run(&evaluator)
        .expect("PaRMIS run succeeds");

    assert_eq!(outcome.history.len(), 16);
    assert!(!outcome.front.is_empty());
    // PHV trajectory is monotone non-decreasing.
    for pair in outcome.phv_history.windows(2) {
        assert!(pair[1] + 1e-12 >= pair[0]);
    }
    // The front entries are mutually non-dominated and correspond to real evaluations.
    let values = outcome.front.objective_values();
    for (i, a) in values.iter().enumerate() {
        for (j, b) in values.iter().enumerate() {
            if i != j {
                assert!(!dominates(a, b));
            }
        }
    }
    // Every front tag decodes into a policy of the right dimensionality.
    for theta in outcome.front.tags() {
        assert_eq!(theta.len(), evaluator.parameter_dim());
    }
}

#[test]
fn parmis_front_policies_beat_fixed_governor_extremes_somewhere() {
    // The learned front should contain at least one policy that is strictly better than the
    // powersave governor in time and at least one that is strictly better than the
    // performance governor in energy — i.e. it genuinely spans the trade-off space.
    let benchmark = Benchmark::Qsort;
    let evaluator = SocEvaluator::builder()
        .benchmark(benchmark)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap();
    let outcome = Parmis::new(example_parmis_config(20, 5))
        .run(&evaluator)
        .expect("PaRMIS run succeeds");

    let governors = governor_results(benchmark, &Objective::TIME_ENERGY);
    let powersave = &governors.iter().find(|(n, _)| n == "powersave").unwrap().1;
    let performance = &governors
        .iter()
        .find(|(n, _)| n == "performance")
        .unwrap()
        .1;

    let front = outcome.front.objective_values();
    assert!(
        front.iter().any(|p| p[0] < powersave[0]),
        "some learned policy should be faster than powersave"
    );
    assert!(
        front.iter().any(|p| p[1] < performance[1]),
        "some learned policy should use less energy than the performance governor"
    );
}

#[test]
fn baselines_and_parmis_are_comparable_under_a_common_reference() {
    let benchmark = Benchmark::Blowfish;
    let objectives = Objective::TIME_ENERGY.to_vec();

    let evaluator = SocEvaluator::builder()
        .benchmark(benchmark)
        .objectives(objectives.clone())
        .build()
        .unwrap();
    let parmis_outcome = Parmis::new(example_parmis_config(18, 9))
        .run(&evaluator)
        .expect("PaRMIS run succeeds");
    let sweep = example_sweep_config(7);
    let rl = rl_front(benchmark, &objectives, &sweep);
    let il = il_front(benchmark, &objectives, &sweep);

    let parmis_points = parmis_outcome.front.objective_values();
    let rl_points = rl.objective_values();
    let il_points = il.objective_values();
    let reference = common_reference_point(&[&parmis_points, &rl_points, &il_points], 0.05);

    let phv_parmis = hypervolume(parmis_points, &reference);
    let phv_rl = hypervolume(rl_points, &reference);
    let phv_il = hypervolume(il_points, &reference);
    // All methods produce valid, positive hypervolumes against the shared reference.
    assert!(phv_parmis > 0.0);
    assert!(phv_rl > 0.0);
    assert!(phv_il > 0.0);
    // With even this tiny budget PaRMIS should not be drastically worse than the baselines.
    assert!(
        phv_parmis > 0.5 * phv_rl.max(phv_il),
        "parmis {phv_parmis} vs rl {phv_rl} / il {phv_il}"
    );
}

#[test]
fn global_policies_transfer_to_individual_applications() {
    let benchmarks = [Benchmark::Sha, Benchmark::Dijkstra];
    let objectives = Objective::TIME_ENERGY.to_vec();
    let global = GlobalEvaluator::for_benchmarks(&benchmarks, objectives);
    let outcome = Parmis::new(example_parmis_config(14, 13))
        .run(&global)
        .expect("global PaRMIS run succeeds");

    for benchmark in benchmarks {
        for theta in outcome.front.tags() {
            let value = global
                .evaluate_on(theta, benchmark)
                .expect("per-application evaluation succeeds");
            assert_eq!(value.len(), 2);
            assert!(value.iter().all(|v| v.is_finite() && *v > 0.0));
        }
    }
}

#[test]
fn ppw_objective_pipeline_produces_positive_reported_ppw() {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Basicmath)
        .objectives(Objective::TIME_PPW.to_vec())
        .build()
        .unwrap();
    let outcome = Parmis::new(example_parmis_config(12, 17))
        .run(&evaluator)
        .expect("PaRMIS run succeeds");
    for reported in outcome.reporting_front() {
        assert!(reported[0] > 0.0, "execution time is positive");
        assert!(reported[1] > 0.0, "reported PPW is positive");
    }
}

#[test]
fn selected_pareto_policy_is_reproducible_on_the_platform() {
    // Selecting a policy from the front and re-running it on the platform should reproduce
    // its archived objective values up to measurement noise.
    let benchmark = Benchmark::Kmeans;
    let evaluator = SocEvaluator::builder()
        .benchmark(benchmark)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap();
    let outcome = Parmis::new(example_parmis_config(14, 19))
        .run(&evaluator)
        .expect("PaRMIS run succeeds");
    let entry = outcome
        .front
        .select_by(|o| 0.5 * o[0] + 0.5 * o[1])
        .expect("front is non-empty");

    let mut policy = evaluator.policy_for(&entry.tag);
    let platform = Platform::odroid_xu3();
    let run = platform
        .run_application(&benchmark.application(), &mut policy, 17)
        .expect("selected policy runs");
    let rel_err = (run.execution_time_s - entry.objectives[0]).abs() / entry.objectives[0];
    assert!(
        rel_err < 0.1,
        "re-run execution time {} should match archived {} within noise",
        run.execution_time_s,
        entry.objectives[0]
    );
}
