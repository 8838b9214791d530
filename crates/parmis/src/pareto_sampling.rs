//! Pareto-front sampling from the GP posteriors (paper §IV-B, step 1).
//!
//! To evaluate the information-gain acquisition, PaRMIS needs samples of the optimal Pareto
//! front under the current statistical models. Each sample is produced by drawing one
//! function per objective from its GP posterior (via random Fourier features) and solving the
//! resulting *cheap* multi-objective optimization problem over the policy-parameter box with
//! NSGA-II. Only the per-objective extrema of the sampled front are needed by the
//! closed-form entropy expression, but the full front is kept for diagnostics and tests.
//!
//! # Batched engine
//!
//! The NSGA-II solve runs on the flat-buffer [`moo::nsga2::Nsga2Engine`]: each generation's
//! offspring block is answered by `k` calls to
//! [`PosteriorSample::eval_batch_into`](gp::PosteriorSample::eval_batch_into) — one fused
//! feature-matrix product per objective function over the whole population — instead of
//! `population × k` per-point feature recomputations. An [`AcquisitionScratch`] carries the
//! engine, the RFF weight-draw buffers and the per-objective output column across
//! [`sample`](ParetoFrontSampler::sample) calls (the framework keeps one alive across
//! iterations), so a warm sampler evolves each generation with zero heap allocation. The
//! sampled fronts are **bit-identical** to the original per-point loop for every seed; the
//! `acq_equivalence` suite in the bench crate pins this against the preserved seed path.

use crate::{ParmisError, Result};
use fastmath::Precision;
use gp::{GaussianProcess, PosteriorSample, RffSampler, WeightScratch};
use moo::nsga2::{Nsga2, Nsga2Config, Nsga2Engine};

/// Configuration of the front-sampling step.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoSamplingConfig {
    /// Number of random Fourier features per posterior function sample.
    pub rff_features: usize,
    /// NSGA-II population size for the cheap multi-objective solve.
    pub nsga_population: usize,
    /// NSGA-II generation count.
    pub nsga_generations: usize,
}

impl Default for ParetoSamplingConfig {
    fn default() -> Self {
        ParetoSamplingConfig {
            rff_features: 150,
            nsga_population: 40,
            nsga_generations: 25,
        }
    }
}

/// One sampled Pareto front of the model.
#[derive(Debug, Clone)]
pub struct ParetoFrontSample {
    /// Objective vectors of the sampled front (minimization).
    pub front: Vec<Vec<f64>>,
    /// Per-objective minimum over the sampled front: the truncation point `y*_s` of Eq. 6-8
    /// (adapted to minimization; see [`crate::acquisition`]).
    pub per_objective_best: Vec<f64>,
}

impl ParetoFrontSample {
    /// Builds a sample from its front, computing the per-objective extrema.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::DegenerateFront`] if the front is empty or any per-objective
    /// best is non-finite — either would leak `f64::INFINITY` (or `NaN`) into the
    /// closed-form information gain and silently corrupt every acquisition score.
    pub fn from_front(front: Vec<Vec<f64>>) -> Result<Self> {
        if front.is_empty() {
            return Err(ParmisError::DegenerateFront {
                reason: "sampled front has no points".into(),
            });
        }
        let k = front[0].len();
        let mut per_objective_best = vec![f64::INFINITY; k];
        for point in &front {
            for (best, v) in per_objective_best.iter_mut().zip(point) {
                *best = best.min(*v);
            }
        }
        if per_objective_best.iter().any(|b| !b.is_finite()) {
            return Err(ParmisError::DegenerateFront {
                reason: format!("non-finite per-objective extrema {per_objective_best:?}"),
            });
        }
        Ok(ParetoFrontSample {
            front,
            per_objective_best,
        })
    }
}

/// Reusable solver state for [`ParetoFrontSampler::sample_with`].
///
/// Owns the flat NSGA-II engine, the RFF weight-draw buffers and the per-objective batched
/// output column. Keeping one scratch alive across samples — and across framework
/// iterations — means the per-generation hot path never touches the allocator once warm.
#[derive(Debug, Default)]
pub struct AcquisitionScratch {
    /// Flat-buffer NSGA-II evolution engine.
    engine: Nsga2Engine,
    /// Weight-draw buffers shared by every objective's posterior-sample draw.
    weights: WeightScratch,
    /// One objective function's values over a whole population.
    objective_column: Vec<f64>,
    /// Pareto member indices of the final population.
    pareto: Vec<usize>,
}

/// Draws Pareto-front samples from a set of per-objective GP models.
#[derive(Debug)]
pub struct ParetoFrontSampler {
    samplers: Vec<RffSampler>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    config: ParetoSamplingConfig,
}

impl ParetoFrontSampler {
    /// Builds a sampler for the given per-objective models over the box
    /// `[-parameter_bound, parameter_bound]^d`.
    ///
    /// # Errors
    ///
    /// Returns [`ParmisError::InvalidConfig`] for an empty model set and propagates RFF
    /// construction failures.
    pub fn new(
        models: &[GaussianProcess],
        parameter_bound: f64,
        config: ParetoSamplingConfig,
        seed: u64,
    ) -> Result<Self> {
        Self::new_with_precision(models, parameter_bound, config, seed, Precision::SeedExact)
    }

    /// [`new`](Self::new) with an explicit evaluation [`Precision`] tier.
    ///
    /// The posterior draws (frequencies, phases, weights) are tier-independent, so the
    /// sampled functions are the *same* functions under either tier; only the cosine
    /// feature evaluation inside NSGA-II switches to the fast kernels, within the error
    /// contract documented in [`fastmath`].
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn new_with_precision(
        models: &[GaussianProcess],
        parameter_bound: f64,
        config: ParetoSamplingConfig,
        seed: u64,
        precision: Precision,
    ) -> Result<Self> {
        if models.is_empty() {
            return Err(crate::ParmisError::InvalidConfig {
                reason: "Pareto-front sampling needs at least one objective model".into(),
            });
        }
        let dim = models[0].dim();
        let samplers = models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                RffSampler::new(m, config.rff_features, seed.wrapping_add(i as u64 * 0x9e37))
                    .map(|s| s.with_precision(precision))
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(ParetoFrontSampler {
            samplers,
            lower: vec![-parameter_bound; dim],
            upper: vec![parameter_bound; dim],
            config,
        })
    }

    /// Number of objectives.
    pub fn num_objectives(&self) -> usize {
        self.samplers.len()
    }

    /// Draws one Pareto-front sample (deterministic in `sample_seed`).
    ///
    /// # Errors
    ///
    /// Propagates posterior-sampling failures and rejects degenerate fronts
    /// ([`ParmisError::DegenerateFront`]).
    pub fn sample(&self, sample_seed: u64) -> Result<ParetoFrontSample> {
        self.sample_with(&mut AcquisitionScratch::default(), sample_seed)
    }

    /// [`sample`](Self::sample) against a caller-owned [`AcquisitionScratch`].
    ///
    /// Bit-identical to `sample` for the same seed; reusing the scratch across samples and
    /// iterations keeps the NSGA-II generations and the RFF weight draws allocation-free.
    ///
    /// # Errors
    ///
    /// Same as [`sample`](Self::sample).
    pub fn sample_with(
        &self,
        scratch: &mut AcquisitionScratch,
        sample_seed: u64,
    ) -> Result<ParetoFrontSample> {
        let AcquisitionScratch {
            engine,
            weights,
            objective_column,
            pareto,
        } = scratch;
        let functions: Vec<PosteriorSample> = self
            .samplers
            .iter()
            .enumerate()
            .map(|(i, s)| s.sample_with(sample_seed.wrapping_add(i as u64 * 7919), weights))
            .collect::<std::result::Result<Vec<_>, _>>()?;

        let nsga_config = Nsga2Config {
            population_size: self.config.nsga_population.max(4) & !1,
            generations: self.config.nsga_generations.max(1),
            seed: sample_seed ^ 0xD1CE,
            ..Default::default()
        };
        let solver = Nsga2::new(self.lower.clone(), self.upper.clone(), nsga_config)
            .expect("bounds and configuration are valid by construction");

        // One batched feature-matrix product per objective function per generation: the k
        // functions share the engine's flat decision block and the scratch output column.
        let k = self.num_objectives();
        engine.solve(&solver, k, |points, out| {
            for (j, f) in functions.iter().enumerate() {
                objective_column.clear();
                objective_column.resize(points.count(), 0.0);
                f.eval_batch_into(points.as_slice(), objective_column);
                for (p, v) in objective_column.iter().enumerate() {
                    out[p * k + j] = *v;
                }
            }
        });

        engine.pareto_indices_into(pareto);
        let objectives = engine.objectives();
        let front: Vec<Vec<f64>> = pareto
            .iter()
            .map(|&i| objectives[i * k..(i + 1) * k].to_vec())
            .collect();
        ParetoFrontSample::from_front(front)
    }

    /// Draws `count` independent Pareto-front samples.
    ///
    /// # Errors
    ///
    /// Propagates posterior-sampling failures.
    pub fn sample_many(&self, count: usize, base_seed: u64) -> Result<Vec<ParetoFrontSample>> {
        self.sample_many_with(&mut AcquisitionScratch::default(), count, base_seed)
    }

    /// [`sample_many`](Self::sample_many) against a caller-owned scratch.
    ///
    /// # Errors
    ///
    /// Same as [`sample_many`](Self::sample_many).
    pub fn sample_many_with(
        &self,
        scratch: &mut AcquisitionScratch,
        count: usize,
        base_seed: u64,
    ) -> Result<Vec<ParetoFrontSample>> {
        (0..count)
            .map(|s| self.sample_with(scratch, base_seed.wrapping_add(s as u64 * 104729)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::kernel::Kernel;

    /// Builds two tiny GP models over a 2-D parameter space with opposing trends, so the
    /// model's Pareto front is a genuine trade-off.
    fn toy_models() -> Vec<GaussianProcess> {
        let xs: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let t = i as f64 / 11.0 * 6.0 - 3.0;
                vec![t, -t * 0.5]
            })
            .collect();
        let y1: Vec<f64> = xs.iter().map(|x| x[0] + 0.1 * x[1]).collect();
        let y2: Vec<f64> = xs.iter().map(|x| -x[0] + 0.2 * x[1]).collect();
        vec![
            GaussianProcess::fit(xs.clone(), y1, Kernel::rbf(1.0, 2.0), 1e-4).unwrap(),
            GaussianProcess::fit(xs, y2, Kernel::rbf(1.0, 2.0), 1e-4).unwrap(),
        ]
    }

    fn small_config() -> ParetoSamplingConfig {
        ParetoSamplingConfig {
            rff_features: 80,
            nsga_population: 20,
            nsga_generations: 10,
        }
    }

    #[test]
    fn sampler_produces_nonempty_fronts_with_consistent_dimensions() {
        let models = toy_models();
        let sampler = ParetoFrontSampler::new(&models, 3.0, small_config(), 1).unwrap();
        assert_eq!(sampler.num_objectives(), 2);
        let sample = sampler.sample(0).unwrap();
        assert!(!sample.front.is_empty());
        assert_eq!(sample.per_objective_best.len(), 2);
        for p in &sample.front {
            assert_eq!(p.len(), 2);
            for (v, best) in p.iter().zip(&sample.per_objective_best) {
                assert!(v >= best);
            }
        }
    }

    #[test]
    fn sampled_front_is_non_dominated() {
        let models = toy_models();
        let sampler = ParetoFrontSampler::new(&models, 3.0, small_config(), 2).unwrap();
        let sample = sampler.sample(5).unwrap();
        for (i, a) in sample.front.iter().enumerate() {
            for (j, b) in sample.front.iter().enumerate() {
                if i != j {
                    assert!(!moo::dominates(a, b));
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let models = toy_models();
        let sampler = ParetoFrontSampler::new(&models, 3.0, small_config(), 3).unwrap();
        let a = sampler.sample(7).unwrap();
        let b = sampler.sample(7).unwrap();
        assert_eq!(a.front, b.front);
        let c = sampler.sample(8).unwrap();
        assert_ne!(a.per_objective_best, c.per_objective_best);
    }

    #[test]
    fn sample_many_returns_requested_count() {
        let models = toy_models();
        let sampler = ParetoFrontSampler::new(&models, 3.0, small_config(), 4).unwrap();
        let samples = sampler.sample_many(3, 11).unwrap();
        assert_eq!(samples.len(), 3);
    }

    #[test]
    fn reused_scratch_reproduces_fresh_scratch_samples() {
        let models = toy_models();
        let sampler = ParetoFrontSampler::new(&models, 3.0, small_config(), 6).unwrap();
        let mut scratch = AcquisitionScratch::default();
        // Warm the scratch on a different seed first, then compare against fresh-scratch
        // draws: the engine and weight buffers must not leak state between samples.
        let _ = sampler.sample_with(&mut scratch, 3).unwrap();
        for seed in [0, 9, 17] {
            let warm = sampler.sample_with(&mut scratch, seed).unwrap();
            let fresh = sampler.sample(seed).unwrap();
            assert_eq!(warm.front, fresh.front);
            assert_eq!(warm.per_objective_best, fresh.per_objective_best);
        }
    }

    #[test]
    fn from_front_rejects_degenerate_fronts() {
        // An empty front used to leak f64::INFINITY into `per_objective_best` (and from
        // there into every information-gain score); it must be a structured error.
        let err = ParetoFrontSample::from_front(vec![]).unwrap_err();
        assert!(matches!(err, ParmisError::DegenerateFront { .. }));
        assert!(err.to_string().contains("degenerate"));

        let err = ParetoFrontSample::from_front(vec![vec![f64::NAN, 1.0]]).unwrap_err();
        assert!(matches!(err, ParmisError::DegenerateFront { .. }));

        let ok = ParetoFrontSample::from_front(vec![vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        assert_eq!(ok.per_objective_best, vec![1.0, 1.0]);
    }

    #[test]
    fn trade_off_models_give_conflicting_extrema() {
        // Since objective 1 increases with x0 and objective 2 decreases with x0, the sampled
        // front should span a range in both objectives rather than collapse to a point.
        let models = toy_models();
        let sampler = ParetoFrontSampler::new(&models, 3.0, small_config(), 5).unwrap();
        let sample = sampler.sample(1).unwrap();
        if sample.front.len() >= 2 {
            let spread0: f64 = sample
                .front
                .iter()
                .map(|p| p[0])
                .fold(f64::NEG_INFINITY, f64::max)
                - sample.per_objective_best[0];
            assert!(
                spread0 > 0.1,
                "front should span objective 0, spread {spread0}"
            );
        }
    }
}
