//! Experiment runners shared by the figure/table binaries.

use baselines::sweep::{governor_results, il_front, rl_front, SweepConfig};
use baselines::{IlConfig, RlConfig};
use moo::hypervolume::{common_reference_point, hypervolume, normalized};
use moo::ParetoFront;
use parmis::acquisition::AcquisitionOptimizerConfig;
use parmis::evaluation::{GlobalEvaluator, SocEvaluator};
use parmis::framework::{Parmis, ParmisConfig, ParmisOutcome};
use parmis::objective::Objective;
use parmis::pareto_sampling::ParetoSamplingConfig;
use policy::training::TrainingConfig;
use serde::Serialize;
use soc_sim::apps::Benchmark;
use soc_sim::governor::default_governors;
use soc_sim::platform::DiscardEpochs;
use soc_sim::scenario::{self, Scenario};

/// How much compute an experiment binary is allowed to spend.
///
/// The figure binaries default to a "standard" budget that reproduces the paper's qualitative
/// results in minutes on a laptop; `--quick` (or `PARMIS_QUICK=1`) shrinks everything for
/// smoke tests and `--iterations N` overrides the PaRMIS evaluation budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentBudget {
    /// PaRMIS evaluation budget (the paper runs up to 500, converging by ~300).
    pub parmis_iterations: usize,
    /// Number of scalarization weights for the RL/IL sweeps.
    pub sweep_weights: usize,
    /// RL episodes per scalarization.
    pub rl_episodes: usize,
    /// Oracle decision-space stride for IL.
    pub il_stride: usize,
    /// IL supervised-training epochs.
    pub il_epochs: usize,
    /// Worker threads for batched policy evaluation and sweep-arm training (`0` = one per
    /// available CPU). Results are bit-identical for any value; this only trades wall-clock.
    pub threads: usize,
    /// Candidates selected and evaluated per PaRMIS iteration (`batch_size`); `1` is the
    /// paper's sequential loop.
    pub parmis_batch: usize,
}

impl ExperimentBudget {
    /// The default budget used when no flags are passed.
    pub fn standard() -> Self {
        ExperimentBudget {
            parmis_iterations: 120,
            sweep_weights: 7,
            rl_episodes: 25,
            il_stride: 7,
            il_epochs: 50,
            threads: 0,
            parmis_batch: 1,
        }
    }

    /// A small budget for smoke tests and CI.
    pub fn quick() -> Self {
        ExperimentBudget {
            parmis_iterations: 18,
            sweep_weights: 3,
            rl_episodes: 4,
            il_stride: 101,
            il_epochs: 10,
            threads: 0,
            parmis_batch: 1,
        }
    }

    /// Parses the budget from command-line arguments (`--quick`, `--iterations N`,
    /// `--threads N`, `--batch N`) and the `PARMIS_QUICK` environment variable.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick_env = std::env::var("PARMIS_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false);
        let mut budget = if quick_env || args.iter().any(|a| a == "--quick") {
            ExperimentBudget::quick()
        } else {
            ExperimentBudget::standard()
        };
        let flag = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|pos| args.get(pos + 1))
                .and_then(|v| v.parse::<usize>().ok())
        };
        if let Some(n) = flag("--iterations") {
            budget.parmis_iterations = n.max(5);
        }
        if let Some(n) = flag("--threads") {
            budget.threads = n;
        }
        if let Some(n) = flag("--batch") {
            budget.parmis_batch = n.max(1);
        }
        budget
    }

    /// The worker count actually used after resolving the "all CPUs" sentinel.
    pub fn effective_threads(&self) -> usize {
        parmis::parallel::resolve_workers(self.threads)
    }

    /// PaRMIS configuration matching this budget.
    pub fn parmis_config(&self, seed: u64) -> ParmisConfig {
        let quick = self.parmis_iterations < 40;
        ParmisConfig {
            max_iterations: self.parmis_iterations,
            initial_samples: (self.parmis_iterations / 10).clamp(4, 12),
            num_pareto_samples: 1,
            sampling: if quick {
                ParetoSamplingConfig {
                    rff_features: 60,
                    nsga_population: 16,
                    nsga_generations: 8,
                }
            } else {
                ParetoSamplingConfig::default()
            },
            acquisition: if quick {
                AcquisitionOptimizerConfig {
                    random_candidates: 32,
                    local_candidates: 12,
                    local_perturbation: 0.2,
                }
            } else {
                AcquisitionOptimizerConfig::default()
            },
            kernel_family: gp::kernel::KernelFamily::Matern52,
            refit_hyperparameters_every: 20,
            convergence_window: 0,
            seed,
            batch_size: self.parmis_batch,
            num_workers: self.threads,
            ..ParmisConfig::default()
        }
    }

    /// Baseline sweep configuration matching this budget.
    pub fn sweep_config(&self, seed: u64) -> SweepConfig {
        SweepConfig {
            weight_count: self.sweep_weights,
            rl: RlConfig {
                episodes: self.rl_episodes,
                seed,
                ..Default::default()
            },
            il: IlConfig {
                oracle_stride: self.il_stride,
                training: TrainingConfig {
                    epochs: self.il_epochs,
                    learning_rate: 0.06,
                    seed,
                },
                ..Default::default()
            },
            eval_seed: 29,
            num_workers: self.threads,
        }
    }
}

/// A named Pareto front (or single point set) produced by one method on one benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct MethodFront {
    /// Method name (`parmis`, `rl`, `il`, or a governor name).
    pub method: String,
    /// Minimization objective vectors of the front.
    pub points: Vec<Vec<f64>>,
}

/// Per-benchmark PHV comparison of PaRMIS against the two learned baselines.
#[derive(Debug, Clone, Serialize)]
pub struct PhvSummary {
    /// Benchmark name.
    pub benchmark: String,
    /// Absolute PHV of PaRMIS.
    pub parmis_phv: f64,
    /// PHV of RL normalized by the PaRMIS PHV.
    pub rl_normalized: f64,
    /// PHV of IL normalized by the PaRMIS PHV.
    pub il_normalized: f64,
    /// Worker threads the experiment ran with (results are thread-count invariant; the
    /// column exists so BENCH_*.json speedup comparisons know what produced each number).
    pub threads: usize,
}

/// Runs PaRMIS for one benchmark with this budget, evaluating candidate batches across the
/// budget's worker threads.
pub fn run_parmis(
    benchmark: Benchmark,
    objectives: &[Objective],
    budget: &ExperimentBudget,
    seed: u64,
) -> ParmisOutcome {
    let evaluator = SocEvaluator::builder()
        .benchmark(benchmark)
        .objectives(objectives.to_vec())
        .build()
        .expect("a benchmark evaluator always has an application");
    Parmis::new(budget.parmis_config(seed))
        .run_parallel(&evaluator)
        .expect("PaRMIS run failed")
}

/// Runs PaRMIS once over the whole application suite (global policies, Fig. 5).
pub fn run_global_parmis(
    benchmarks: &[Benchmark],
    objectives: &[Objective],
    budget: &ExperimentBudget,
    seed: u64,
) -> (GlobalEvaluator, ParmisOutcome) {
    let evaluator = GlobalEvaluator::for_benchmarks(benchmarks, objectives.to_vec());
    let outcome = Parmis::new(budget.parmis_config(seed))
        .run_parallel(&evaluator)
        .expect("global PaRMIS run failed");
    (evaluator, outcome)
}

/// Collects the method fronts (PaRMIS, RL, IL, governors) for one benchmark.
pub fn collect_method_fronts(
    benchmark: Benchmark,
    objectives: &[Objective],
    budget: &ExperimentBudget,
    seed: u64,
) -> Vec<MethodFront> {
    let parmis_outcome = run_parmis(benchmark, objectives, budget, seed);
    let sweep = budget.sweep_config(seed);
    let rl = rl_front(benchmark, objectives, &sweep);
    let il = il_front(benchmark, objectives, &sweep);
    let governors = governor_results(benchmark, objectives);

    let mut fronts = vec![
        MethodFront {
            method: "parmis".into(),
            points: parmis_outcome.front.objective_values(),
        },
        MethodFront {
            method: "rl".into(),
            points: rl.objective_values(),
        },
        MethodFront {
            method: "il".into(),
            points: il.objective_values(),
        },
    ];
    for (name, point) in governors {
        fronts.push(MethodFront {
            method: name,
            points: vec![point],
        });
    }
    fronts
}

/// Computes the PHV of every method front against a reference point shared by all of them
/// (the paper stresses that a common reference point is required for fair comparison, §V-C).
pub fn phv_with_common_reference(fronts: &[MethodFront]) -> Vec<(String, f64)> {
    let all: Vec<&[Vec<f64>]> = fronts.iter().map(|f| f.points.as_slice()).collect();
    let reference = common_reference_point(&all, 0.05);
    fronts
        .iter()
        .map(|f| (f.method.clone(), hypervolume(f.points.clone(), &reference)))
        .collect()
}

/// Builds the Fig. 4 / Fig. 7 style normalized-PHV summary for one benchmark.
pub fn phv_summary(
    benchmark: Benchmark,
    fronts: &[MethodFront],
    budget: &ExperimentBudget,
) -> PhvSummary {
    let phv = phv_with_common_reference(fronts);
    let get = |name: &str| {
        phv.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let parmis = get("parmis");
    PhvSummary {
        benchmark: benchmark.name().to_string(),
        parmis_phv: parmis,
        rl_normalized: normalized(get("rl"), parmis),
        il_normalized: normalized(get("il"), parmis),
        threads: budget.effective_threads(),
    }
}

/// Which scenarios a scenario-aware binary should process, parsed from the command line.
///
/// `--list-scenarios` lists the registry and exits; `--scenario <name>` selects one
/// registered scenario; `--scenario-json <path>` loads a scenario definition from a JSON
/// file (the [`Scenario::to_json`] format); no flag means the full registry.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSelection {
    /// Print the registry and exit.
    List,
    /// Run exactly these scenarios.
    Some(Vec<Scenario>),
}

impl ScenarioSelection {
    /// Parses the selection from the process arguments.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown scenario name, an unreadable or
    /// malformed `--scenario-json` file, a flag without its value, conflicting flags, or a
    /// misspelled `--scenario…` flag (so a typo cannot silently select the full registry).
    pub fn from_args() -> Result<Self, String> {
        Self::from_arg_list(std::env::args().skip(1))
    }

    /// [`from_args`](Self::from_args) over an explicit argument list (testable core).
    ///
    /// Both `--flag value` and `--flag=value` spellings are accepted. Arguments unrelated
    /// to scenario selection are ignored, so binaries can mix these flags with their own.
    ///
    /// # Errors
    ///
    /// See [`from_args`](Self::from_args).
    pub fn from_arg_list(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut name: Option<String> = None;
        let mut json_path: Option<String> = None;
        let mut list = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value_for = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            if arg == "--list-scenarios" {
                list = true;
            } else if arg == "--scenario" {
                name = Some(value_for("--scenario")?);
            } else if let Some(v) = arg.strip_prefix("--scenario=") {
                name = Some(v.to_string());
            } else if arg == "--scenario-json" {
                json_path = Some(value_for("--scenario-json")?);
            } else if let Some(v) = arg.strip_prefix("--scenario-json=") {
                json_path = Some(v.to_string());
            } else if arg.starts_with("--scenario") || arg.starts_with("--list-scenario") {
                // A near-miss spelling must not silently fall through to "run everything".
                return Err(format!(
                    "unrecognized flag `{arg}`; did you mean --scenario, --scenario-json or \
                     --list-scenarios?"
                ));
            }
        }
        if list {
            return Ok(ScenarioSelection::List);
        }
        if name.is_some() && json_path.is_some() {
            return Err("pass either --scenario or --scenario-json, not both".into());
        }
        if let Some(name) = name {
            let scenario = scenario::by_name(&name).ok_or_else(|| {
                format!("unknown scenario `{name}`; run with --list-scenarios to see the registry")
            })?;
            return Ok(ScenarioSelection::Some(vec![scenario]));
        }
        if let Some(path) = json_path {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let scenario = Scenario::from_json(&text).map_err(|e| e.to_string())?;
            return Ok(ScenarioSelection::Some(vec![scenario]));
        }
        Ok(ScenarioSelection::Some(scenario::registry()))
    }
}

/// One (scenario, governor) cell of the cross-scenario regression matrix.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioCell {
    /// Scenario name.
    pub scenario: String,
    /// Governor name.
    pub governor: String,
    /// Total execution time in seconds.
    pub execution_time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Peak junction temperature in °C.
    pub peak_temperature_c: f64,
    /// Weighted constraint-violation penalty of the run (zero when all limits are met).
    pub constraint_penalty: f64,
}

/// Runs one scenario under every stock governor with a fixed measurement seed, producing
/// the snapshot tuples the golden regression suite pins down.
///
/// # Errors
///
/// Returns a message if the scenario's workload fails to build or a run fails.
pub fn run_scenario_row(scenario: &Scenario) -> Result<Vec<ScenarioCell>, String> {
    let platform = scenario.platform();
    let app = scenario
        .application()
        .map_err(|e| format!("{}: {e}", scenario.name))?;
    let mut cells = Vec::new();
    for mut governor in default_governors(platform.spec()) {
        // Streaming runner: the golden cells only need aggregates, so no per-epoch trace
        // is materialized (aggregates are bit-identical to the collecting path).
        let run = platform
            .run_application_with(&app, &mut governor, 0, &mut DiscardEpochs)
            .map_err(|e| format!("{} under {}: {e}", scenario.name, governor.name()))?;
        cells.push(ScenarioCell {
            scenario: scenario.name.clone(),
            governor: governor.name().to_string(),
            execution_time_s: run.execution_time_s,
            energy_j: run.energy_j,
            peak_temperature_c: run.peak_temperature_c,
            constraint_penalty: scenario.constraints.penalty_from_metrics(
                run.execution_time_s,
                run.average_power_w,
                run.peak_temperature_c,
            ),
        });
    }
    Ok(cells)
}

/// Runs the full cross-scenario matrix ([`run_scenario_row`] for every given scenario).
///
/// # Errors
///
/// Propagates the first row failure.
pub fn run_scenario_matrix(scenarios: &[Scenario]) -> Result<Vec<ScenarioCell>, String> {
    let mut cells = Vec::new();
    for scenario in scenarios {
        cells.extend(run_scenario_row(scenario)?);
    }
    Ok(cells)
}

/// Extracts the non-dominated archive of an arbitrary point set (helper for Fig. 5, where a
/// global policy set is re-evaluated per application).
pub fn front_of(points: Vec<Vec<f64>>) -> ParetoFront<()> {
    let dim = points.first().map(|p| p.len()).unwrap_or(1);
    let mut front = ParetoFront::new(dim);
    for p in points {
        front.insert(p, ());
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_scale_as_expected() {
        let quick = ExperimentBudget::quick();
        let standard = ExperimentBudget::standard();
        assert!(quick.parmis_iterations < standard.parmis_iterations);
        assert!(quick.rl_episodes < standard.rl_episodes);
        assert!(quick.il_stride > standard.il_stride);
        let cfg = quick.parmis_config(1);
        assert_eq!(cfg.max_iterations, quick.parmis_iterations);
        assert!(cfg.sampling.rff_features <= 60);
        let cfg = standard.parmis_config(1);
        assert_eq!(
            cfg.sampling.rff_features,
            ParetoSamplingConfig::default().rff_features
        );
        let sweep = quick.sweep_config(3);
        assert_eq!(sweep.weight_count, 3);
        assert_eq!(sweep.rl.episodes, 4);
        assert_eq!(sweep.num_workers, quick.threads);
    }

    #[test]
    fn parallelism_knobs_flow_into_the_parmis_config() {
        let budget = ExperimentBudget {
            threads: 4,
            parmis_batch: 6,
            ..ExperimentBudget::quick()
        };
        let cfg = budget.parmis_config(7);
        assert_eq!(cfg.num_workers, 4);
        assert_eq!(cfg.batch_size, 6);
        assert_eq!(budget.effective_threads(), 4);
        assert!(ExperimentBudget::quick().effective_threads() >= 1);
    }

    #[test]
    fn phv_with_common_reference_orders_methods_sensibly() {
        // A front that dominates another must have at least as large a PHV.
        let better = MethodFront {
            method: "a".into(),
            points: vec![vec![1.0, 1.0], vec![0.5, 2.0]],
        };
        let worse = MethodFront {
            method: "b".into(),
            points: vec![vec![2.0, 2.0]],
        };
        let phv = phv_with_common_reference(&[better, worse]);
        assert!(phv[0].1 > phv[1].1);
    }

    #[test]
    fn phv_summary_normalizes_against_parmis() {
        let fronts = vec![
            MethodFront {
                method: "parmis".into(),
                points: vec![vec![1.0, 1.0]],
            },
            MethodFront {
                method: "rl".into(),
                points: vec![vec![1.5, 1.5]],
            },
            MethodFront {
                method: "il".into(),
                points: vec![vec![2.0, 2.0]],
            },
        ];
        let budget = ExperimentBudget::quick();
        let summary = phv_summary(Benchmark::Qsort, &fronts, &budget);
        assert_eq!(summary.benchmark, "qsort");
        assert!(summary.parmis_phv > 0.0);
        assert!(summary.rl_normalized < 1.0);
        assert!(summary.il_normalized < summary.rl_normalized);
        assert_eq!(summary.threads, budget.effective_threads());
        assert!(summary.threads >= 1);
    }

    #[test]
    fn front_of_filters_dominated_points() {
        let front = front_of(vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0]]);
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn scenario_rows_cover_all_governors_and_are_deterministic() {
        let scenario = scenario::by_name("odroid-qsort-baseline").unwrap();
        let row = run_scenario_row(&scenario).unwrap();
        let governors: Vec<&str> = row.iter().map(|c| c.governor.as_str()).collect();
        assert_eq!(
            governors,
            vec!["ondemand", "interactive", "performance", "powersave"]
        );
        for cell in &row {
            assert!(cell.execution_time_s > 0.0);
            assert!(cell.energy_j > 0.0);
            assert!(cell.peak_temperature_c >= 25.0);
            assert_eq!(cell.constraint_penalty, 0.0, "baseline is unconstrained");
        }
        let again = run_scenario_row(&scenario).unwrap();
        for (a, b) in row.iter().zip(&again) {
            assert_eq!(a.execution_time_s, b.execution_time_s);
            assert_eq!(a.energy_j, b.energy_j);
            assert_eq!(a.peak_temperature_c, b.peak_temperature_c);
        }
    }

    fn select(args: &[&str]) -> Result<ScenarioSelection, String> {
        ScenarioSelection::from_arg_list(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn scenario_selection_parses_both_flag_spellings_and_rejects_near_misses() {
        assert_eq!(select(&["--list-scenarios"]), Ok(ScenarioSelection::List));
        let by_space = select(&["--scenario", "odroid-qsort-baseline"]).unwrap();
        let by_equals = select(&["--scenario=odroid-qsort-baseline"]).unwrap();
        assert_eq!(by_space, by_equals);
        match by_space {
            ScenarioSelection::Some(s) => assert_eq!(s[0].name, "odroid-qsort-baseline"),
            other => panic!("expected one scenario, got {other:?}"),
        }
        // No flags: the whole registry.
        match select(&["--quick"]).unwrap() {
            ScenarioSelection::Some(s) => assert_eq!(s.len(), scenario::registry().len()),
            other => panic!("expected full registry, got {other:?}"),
        }
        // Misspellings and misuse fail loudly instead of silently running everything.
        assert!(select(&["--scenaros", "x"]).is_ok(), "unrelated flags pass");
        assert!(select(&["--scenarios", "x"]).is_err());
        assert!(select(&["--scenario"]).is_err());
        assert!(select(&["--scenario", "not-registered"]).is_err());
        assert!(select(&["--scenario-json"]).is_err());
        assert!(select(&["--scenario-json", "/nonexistent/path.json"]).is_err());
        assert!(select(&[
            "--scenario",
            "odroid-qsort-baseline",
            "--scenario-json",
            "x"
        ])
        .is_err());
        assert!(select(&["--list-scenarioz"]).is_err());
    }

    #[test]
    fn scenario_matrix_concatenates_rows_in_registry_order() {
        let scenarios: Vec<_> = scenario::registry().into_iter().take(2).collect();
        let cells = run_scenario_matrix(&scenarios).unwrap();
        assert_eq!(cells.len(), 8);
        assert!(cells[..4].iter().all(|c| c.scenario == scenarios[0].name));
        assert!(cells[4..].iter().all(|c| c.scenario == scenarios[1].name));
    }
}
