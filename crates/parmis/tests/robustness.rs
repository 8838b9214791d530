//! Regression suite for inputs that used to panic (or poison results with NaN): every
//! case here once crashed the process or produced undefined values from user-reachable
//! entry points, and must now be a structured error or a well-defined value.

use parmis::evaluation::{PolicyEvaluator, SocEvaluator};
use parmis::framework::{Parmis, ParmisConfig, ParmisOutcome};
use parmis::objective::Objective;
use parmis::pareto_sampling::{ParetoFrontSampler, ParetoSamplingConfig};
use parmis::{ParmisError, Result};
use soc_sim::apps::Benchmark;

/// A θ of the wrong dimension used to panic inside the policy decoder
/// (`set_flat_parameters`); it is now a structured evaluation error on every public
/// entry point that accepts a parameter vector.
#[test]
fn wrong_dimension_theta_is_a_structured_error() {
    let evaluator = SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .unwrap();
    let short = vec![0.1; evaluator.parameter_dim() - 1];

    let err = evaluator.run_summaries(&short).unwrap_err();
    assert!(matches!(err, ParmisError::Evaluation { .. }), "{err}");
    assert!(err.to_string().contains("dimension"), "{err}");

    let err = evaluator.evaluate(&short).unwrap_err();
    assert!(matches!(err, ParmisError::Evaluation { .. }), "{err}");

    let mut buffers = evaluator.sim_buffers();
    let err = evaluator.evaluate_with(&short, &mut buffers).unwrap_err();
    assert!(matches!(err, ParmisError::Evaluation { .. }), "{err}");
}

/// Constructing a Pareto-front sampler with no objective models used to be an
/// `assert!`; it is now an invalid-configuration error.
#[test]
fn empty_model_set_is_rejected_by_the_sampler() {
    let models: &[gp::GaussianProcess] = &[];
    let err = ParetoFrontSampler::new(models, 1.0, ParetoSamplingConfig::default(), 7).unwrap_err();
    assert!(matches!(err, ParmisError::InvalidConfig { .. }), "{err}");
    assert!(
        err.to_string().contains("at least one objective model"),
        "{err}"
    );
}

/// Evaluator used by the configuration-validation regressions below.
struct BadBoundEvaluator {
    bound: f64,
    objectives: Vec<Objective>,
}

impl PolicyEvaluator for BadBoundEvaluator {
    fn parameter_dim(&self) -> usize {
        2
    }

    fn parameter_bound(&self) -> f64 {
        self.bound
    }

    fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    fn evaluate(&self, theta: &[f64]) -> Result<Vec<f64>> {
        Ok(vec![theta[0].abs() + 1.0, theta[1].abs() + 1.0])
    }
}

/// A NaN (or otherwise non-positive) parameter bound used to sail through validation
/// and blow up deep inside candidate sampling; `refit_hyperparameters_every == 0` used
/// to divide by zero in the model-refit cadence. Both are now validation errors.
#[test]
fn nan_bound_and_zero_refit_cadence_are_validation_errors() {
    for bad_bound in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        let evaluator = BadBoundEvaluator {
            bound: bad_bound,
            objectives: vec![Objective::ExecutionTime, Objective::Energy],
        };
        let err = Parmis::new(ParmisConfig::default())
            .run(&evaluator)
            .unwrap_err();
        assert!(
            matches!(err, ParmisError::InvalidConfig { .. }),
            "bound {bad_bound}: {err}"
        );
    }

    let evaluator = BadBoundEvaluator {
        bound: 1.0,
        objectives: vec![Objective::ExecutionTime, Objective::Energy],
    };
    let config = ParmisConfig {
        refit_hyperparameters_every: 0,
        ..ParmisConfig::default()
    };
    let err = Parmis::new(config).run(&evaluator).unwrap_err();
    assert!(matches!(err, ParmisError::InvalidConfig { .. }), "{err}");
    assert!(
        err.to_string().contains("refit_hyperparameters_every"),
        "{err}"
    );
}

/// A zero-evaluation outcome used to compute its PHV reference point as a fold over an
/// empty history, yielding a NaN reference and a NaN `final_phv()`. The degenerate
/// outcome is now fully defined: empty archive, finite all-margin reference point,
/// `final_phv() == 0`.
#[test]
fn zero_iteration_outcome_has_no_nan() {
    let outcome = ParmisOutcome::empty(vec![Objective::ExecutionTime, Objective::Energy]);
    assert!(outcome.front.is_empty());
    assert!(outcome.history.is_empty());
    assert!(outcome.phv_history.is_empty());
    assert!(outcome.trace_hashes.is_empty());
    assert_eq!(outcome.final_phv(), 0.0);
    assert_eq!(outcome.reference_point.len(), 2);
    assert!(
        outcome.reference_point.iter().all(|r| r.is_finite()),
        "reference point must be finite: {:?}",
        outcome.reference_point
    );
    assert!(outcome.converged_at.is_none());
}
