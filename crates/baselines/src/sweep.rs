//! Scalarization sweeps and governor evaluation: building the baseline Pareto fronts the
//! paper's figures compare PaRMIS against.
//!
//! RL and IL optimize a *fixed* linear combination of execution time and energy; to obtain a
//! Pareto front they must be re-run over a sweep of scalarization weights (§V-B). The paper
//! also reuses those very policies when evaluating the PPW objective, because neither method
//! can be trained for PPW directly (§V-E) — so evaluation objectives are decoupled from the
//! training scalarization here.

use crate::il::{train_il_policy, IlConfig};
use crate::rl::{train_q_policy, RlConfig};
use moo::scalarize::WeightVector;
use moo::ParetoFront;
use parmis::objective::{objective_vector, Objective};
use parmis::parallel::parallel_map;
use soc_sim::apps::Benchmark;
use soc_sim::governor::default_governors;
use soc_sim::platform::{DrmController, Platform};
use soc_sim::workload::Application;

/// Configuration of a baseline sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Number of scalarization weight vectors to sweep (evenly spaced on the 2-simplex).
    pub weight_count: usize,
    /// RL training hyperparameters.
    pub rl: RlConfig,
    /// IL training hyperparameters.
    pub il: IlConfig,
    /// Measurement-noise seed used for the final evaluation runs.
    pub eval_seed: u64,
    /// Worker threads the sweep arms are trained on (`0` = one per available CPU). Each arm
    /// derives its own training seed from the arm index, and arm results are merged into the
    /// Pareto archive in arm order, so the resulting front does not depend on this knob.
    pub num_workers: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            weight_count: 7,
            rl: RlConfig::default(),
            il: IlConfig::default(),
            eval_seed: 29,
            num_workers: 1,
        }
    }
}

/// Evaluates one controller on one application, returning the minimization objective vector.
pub fn evaluate_controller(
    platform: &Platform,
    app: &Application,
    controller: &mut dyn DrmController,
    objectives: &[Objective],
    seed: u64,
) -> Vec<f64> {
    let run = platform
        .run_application(app, controller, seed)
        .expect("controllers under evaluation only emit valid decisions");
    objective_vector(objectives, &run)
}

/// Evaluates the four stock governors on a benchmark.
///
/// Returns `(governor name, minimization objective vector)` for ondemand, interactive,
/// performance and powersave — the single trade-off points shown in Figs. 3 and 6.
pub fn governor_results(benchmark: Benchmark, objectives: &[Objective]) -> Vec<(String, Vec<f64>)> {
    let platform = Platform::odroid_xu3();
    let app = benchmark.application();
    default_governors(platform.spec())
        .into_iter()
        .map(|mut governor| {
            let values = evaluate_controller(&platform, &app, &mut governor, objectives, 29);
            (governor.name().to_string(), values)
        })
        .collect()
}

/// Trains the RL baseline across a scalarization sweep and returns its Pareto front on the
/// requested evaluation objectives. The front's tags name the scalarization that produced
/// each surviving policy.
pub fn rl_front(
    benchmark: Benchmark,
    objectives: &[Objective],
    config: &SweepConfig,
) -> ParetoFront<String> {
    let platform = Platform::odroid_xu3();
    let app = benchmark.application();
    let weights = WeightVector::sweep_2d(config.weight_count);
    // Train the scalarization arms in parallel: each arm's seed derives from its index, and
    // parallel_map returns arm results in arm order, so the merged front is identical for
    // any worker count.
    let arms = parallel_map(&weights, config.num_workers, |i, arm_weights| {
        let mut rl_config = config.rl.clone();
        rl_config.seed = config.rl.seed.wrapping_add(i as u64 * 13);
        let mut policy = train_q_policy(&platform, &app, arm_weights, &rl_config);
        let values =
            evaluate_controller(&platform, &app, &mut policy, objectives, config.eval_seed);
        (values, policy.name().to_string())
    });
    let mut front = ParetoFront::new(objectives.len());
    for (values, name) in arms {
        front.insert(values, name);
    }
    front
}

/// Trains the IL baseline across a scalarization sweep and returns its Pareto front on the
/// requested evaluation objectives. Arms run in parallel exactly like [`rl_front`].
pub fn il_front(
    benchmark: Benchmark,
    objectives: &[Objective],
    config: &SweepConfig,
) -> ParetoFront<String> {
    let platform = Platform::odroid_xu3();
    let app = benchmark.application();
    let weights = WeightVector::sweep_2d(config.weight_count);
    let arms = parallel_map(&weights, config.num_workers, |i, arm_weights| {
        let mut il_config = config.il.clone();
        il_config.seed = config.il.seed.wrapping_add(i as u64 * 7);
        let mut outcome = train_il_policy(&platform, &app, arm_weights, &il_config);
        let values = evaluate_controller(
            &platform,
            &app,
            &mut outcome.policy,
            objectives,
            config.eval_seed,
        );
        (values, outcome.policy.name().to_string())
    });
    let mut front = ParetoFront::new(objectives.len());
    for (values, name) in arms {
        front.insert(values, name);
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            weight_count: 3,
            rl: RlConfig {
                episodes: 4,
                ..Default::default()
            },
            il: IlConfig {
                oracle_stride: 113,
                training: policy::training::TrainingConfig {
                    epochs: 10,
                    learning_rate: 0.08,
                    seed: 1,
                },
                ..Default::default()
            },
            eval_seed: 5,
            num_workers: 1,
        }
    }

    #[test]
    fn governor_results_cover_the_four_defaults() {
        let results = governor_results(Benchmark::Qsort, &Objective::TIME_ENERGY);
        let names: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["ondemand", "interactive", "performance", "powersave"]
        );
        for (_, v) in &results {
            assert_eq!(v.len(), 2);
            assert!(v.iter().all(|x| *x > 0.0));
        }
        // performance governor is the fastest of the four; powersave draws the least energy
        // per unit time but takes much longer.
        let time_of = |name: &str| {
            results
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v[0])
                .unwrap()
        };
        assert!(time_of("performance") < time_of("powersave"));
        assert!(time_of("ondemand") < time_of("powersave"));
    }

    #[test]
    fn rl_sweep_produces_a_valid_front() {
        let front = rl_front(Benchmark::Blowfish, &Objective::TIME_ENERGY, &tiny_sweep());
        assert!(!front.is_empty());
        assert!(front.len() <= 3);
        for entry in front.iter() {
            assert!(entry.tag.starts_with("rl-"));
            assert_eq!(entry.objectives.len(), 2);
        }
    }

    #[test]
    fn il_sweep_produces_a_valid_front() {
        let front = il_front(Benchmark::Sha, &Objective::TIME_ENERGY, &tiny_sweep());
        assert!(!front.is_empty());
        for entry in front.iter() {
            assert!(entry.tag.starts_with("il-"));
        }
    }

    #[test]
    fn sweep_fronts_are_identical_for_any_worker_count() {
        let serial = tiny_sweep();
        for workers in [2, 4] {
            let parallel = SweepConfig {
                num_workers: workers,
                ..tiny_sweep()
            };
            let a = rl_front(Benchmark::Qsort, &Objective::TIME_ENERGY, &serial);
            let b = rl_front(Benchmark::Qsort, &Objective::TIME_ENERGY, &parallel);
            assert_eq!(
                a.objective_values(),
                b.objective_values(),
                "rl, workers = {workers}"
            );
            let a = il_front(Benchmark::Qsort, &Objective::TIME_ENERGY, &serial);
            let b = il_front(Benchmark::Qsort, &Objective::TIME_ENERGY, &parallel);
            assert_eq!(
                a.objective_values(),
                b.objective_values(),
                "il, workers = {workers}"
            );
        }
    }

    #[test]
    fn sweeps_can_be_scored_on_ppw_objectives() {
        // The paper reuses the energy/time-trained baselines for the PPW evaluation; the
        // resulting objective vectors must follow the minimization convention (negated PPW).
        let front = rl_front(Benchmark::Basicmath, &Objective::TIME_PPW, &tiny_sweep());
        for entry in front.iter() {
            assert!(entry.objectives[0] > 0.0);
            assert!(entry.objectives[1] < 0.0);
        }
    }
}
