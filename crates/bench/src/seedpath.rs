//! The seed simulation path, preserved verbatim as a benchmarking baseline.
//!
//! The table-driven engine (`soc_sim::engine`, `Platform::run_application`) replaced the
//! original epoch loop, which re-validated every decision with linear OPP-table
//! scans, re-derived per-decision cluster power from the models on every epoch, recomputed
//! `energy = time · power` three times per epoch, and materialized a `Vec<EpochResult>` plus
//! fresh identity `String`s per run. That seed loop is reproduced here — against the same
//! public model APIs, operation for operation — so the release timing gates can measure the
//! streaming engine against the exact code it replaced, and the equivalence tests below can
//! pin that the rewrite is bit-identical.
//!
//! This module is **not** a supported simulation API: use
//! [`soc_sim::platform::Platform::run_application`] (or
//! [`run_application_traced`](soc_sim::platform::Platform::run_application_traced) for the
//! per-epoch trace) for real work.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};
use soc_sim::config::DrmDecision;
use soc_sim::counters::CounterSnapshot;
use soc_sim::platform::{DrmController, EpochResult, Platform, RunAggregates};
use soc_sim::workload::{Application, ApplicationBuilder, PhaseSpec};

/// Controller pinning one fixed decision — the shared fixture of the release timing gates
/// and the allocation contracts, so all of them measure the same controller behaviour.
pub struct FixedDecisionController(pub DrmDecision);

impl DrmController for FixedDecisionController {
    fn decide(&mut self, _: &CounterSnapshot, _: &DrmDecision) -> DrmDecision {
        self.0
    }

    fn name(&self) -> &str {
        "fixed"
    }
}

/// The probe phase the timing gates and the allocation contracts run: a balanced mixed
/// workload.
pub fn probe_phase() -> PhaseSpec {
    PhaseSpec {
        name: "probe".into(),
        instructions: 40e6,
        parallel_fraction: 0.55,
        memory_refs_per_instr: 0.25,
        l2_miss_rate: 0.05,
        branch_fraction: 0.1,
        branch_miss_rate: 0.05,
        ilp_scale: 0.85,
    }
}

/// A jittered `epochs`-epoch application over [`probe_phase`] — the shared measurement
/// workload. Keeping it here (next to the seed baseline) keeps the `#[ignore]`d gates and
/// the allocation contracts on the same workload.
pub fn probe_app(epochs: usize) -> Application {
    ApplicationBuilder::new(format!("sim-bench-{epochs}"))
        .phase(probe_phase(), epochs)
        .jitter(0.05)
        .build()
        .expect("valid probe application")
}

/// The seed's `Platform::run_epoch`: validate (linear scans), then derive performance,
/// power (two more OPP scans inside `cluster_power`) and counters from the models.
///
/// # Errors
///
/// Returns [`soc_sim::SocError::InvalidDecision`] exactly as the seed did.
pub fn run_epoch_seed(
    platform: &Platform,
    decision: &DrmDecision,
    phase: &PhaseSpec,
) -> soc_sim::Result<EpochResult> {
    let spec = platform.spec();
    spec.decision_space().validate(decision)?;
    let big = spec.big_cluster();
    let little = spec.little_cluster();
    let perf = spec.perf_model().run_epoch(big, little, decision, phase);
    let power = spec
        .power_model()
        .epoch_power(big, little, decision, phase, &perf);
    let counters = CounterSnapshot::from_epoch(big, little, decision, phase, &perf, &power);
    let power_w = power.total_w();
    Ok(EpochResult {
        decision: *decision,
        time_s: perf.time_s,
        energy_j: power_w * perf.time_s,
        power_w,
        big_power_w: power.big_w,
        little_power_w: power.little_w,
        temperature_c: spec.thermal_model().ambient_c,
        counters,
    })
}

/// The seed's `Platform::run_application`: the materializing epoch loop with per-epoch
/// validation, throttle-cap scans, and the triple `energy = time · power` recomputation.
/// Returns the run's aggregates and its per-epoch trace, as
/// [`Platform::run_application_traced`] does.
///
/// # Errors
///
/// Returns [`soc_sim::SocError::InvalidDecision`] if the controller leaves the decision
/// space, exactly as the seed did.
pub fn run_application_seed(
    platform: &Platform,
    app: &Application,
    controller: &mut dyn DrmController,
    seed: u64,
) -> soc_sim::Result<(RunAggregates, Vec<EpochResult>)> {
    let spec = platform.spec();
    controller.reset();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let noise = spec.measurement_noise();
    let noise_dist = if noise > 0.0 {
        Some(LogNormal::new(0.0, noise).expect("valid lognormal"))
    } else {
        None
    };

    let mut previous = spec.decision_space().initial_decision();
    let mut counters = CounterSnapshot::zeroed();
    let mut epochs = Vec::with_capacity(app.epoch_count());
    let mut total_time = 0.0;
    let mut total_energy = 0.0;
    let mut total_instructions = 0.0;
    let thermal = *spec.thermal_model();
    let mut thermal_state = thermal.initial_state();
    let mut peak_temperature_c = thermal_state.hottest_c();

    for phase in &app.epochs {
        let requested = controller.decide(&counters, &previous);
        let throttling = thermal.throttles(&thermal_state);
        let decision = thermal.cap_decision(
            throttling,
            &requested,
            spec.big_cluster(),
            spec.little_cluster(),
        );
        let mut result = run_epoch_seed(platform, &decision, phase)?;
        let leakage_scale = thermal.leakage_multiplier(thermal_state.die_c);
        result.power_w *= leakage_scale;
        result.big_power_w *= leakage_scale;
        result.little_power_w *= leakage_scale;
        result.counters.total_chip_power_w = result.power_w;
        result.energy_j = result.time_s * result.power_w;
        let switch_s = spec.transition_model().switch_time_s(&previous, &decision);
        if switch_s > 0.0 {
            result.time_s += switch_s;
            result.energy_j = result.time_s * result.power_w;
        }
        if let Some(dist) = &noise_dist {
            let time_factor: f64 = dist.sample(&mut rng);
            let power_factor: f64 = dist.sample(&mut rng);
            result.time_s *= time_factor;
            result.power_w *= power_factor;
            result.big_power_w *= power_factor;
            result.little_power_w *= power_factor;
            result.energy_j = result.time_s * result.power_w;
            result.counters.total_chip_power_w = result.power_w;
        }
        let switch_j = spec
            .transition_model()
            .switch_energy_j(&previous, &decision);
        if switch_j > 0.0 {
            result.energy_j += switch_j;
        }
        total_time += result.time_s;
        total_energy += result.energy_j;
        total_instructions += phase.instructions;
        thermal_state = thermal.advance(
            &thermal_state,
            result.big_power_w,
            result.little_power_w,
            result.power_w,
            result.time_s,
        );
        result.temperature_c = thermal_state.hottest_c();
        if result.temperature_c > peak_temperature_c {
            peak_temperature_c = result.temperature_c;
        }
        counters = result.counters;
        previous = decision;
        epochs.push(result);
    }

    let average_power_w = if total_time > 0.0 {
        total_energy / total_time
    } else {
        0.0
    };
    let ppw = if total_energy > 0.0 {
        total_instructions / 1e9 / total_energy
    } else {
        0.0
    };

    let aggregates = RunAggregates {
        epochs: epochs.len(),
        execution_time_s: total_time,
        energy_j: total_energy,
        instructions: total_instructions,
        average_power_w,
        ppw,
        peak_temperature_c,
    };
    Ok((aggregates, epochs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_sim::governor::default_governors;

    /// The contract behind every seed-vs-streaming timing gate: the table-driven engine is
    /// bit-identical to the seed path it replaced, in every aggregate and every epoch,
    /// across platforms and controllers.
    #[test]
    fn seed_path_and_streaming_engine_are_bit_identical() {
        for platform in [
            Platform::odroid_xu3(),
            Platform::hexa_asym(),
            Platform::wearable(),
        ] {
            let app = soc_sim::workload::bursty(
                "equivalence",
                soc_sim::workload::PhaseSpec {
                    name: "p".into(),
                    instructions: 40e6,
                    parallel_fraction: 0.6,
                    memory_refs_per_instr: 0.22,
                    l2_miss_rate: 0.05,
                    branch_fraction: 0.1,
                    branch_miss_rate: 0.04,
                    ilp_scale: 0.8,
                },
                5.0,
                7,
                2,
                60,
                0.1,
                3,
            )
            .unwrap();
            for mut governor in default_governors(platform.spec()) {
                let seeded = run_application_seed(&platform, &app, &mut governor, 11).unwrap();
                let traced = platform
                    .run_application_traced(&app, &mut governor, 11)
                    .unwrap();
                assert_eq!(seeded, traced, "run diverged under {}", governor.name());
            }
        }
    }

    #[test]
    fn seed_epoch_and_table_epoch_agree_across_the_whole_space() {
        let platform = Platform::odroid_xu3();
        let phase = PhaseSpec {
            name: "probe".into(),
            instructions: 25e6,
            parallel_fraction: 0.5,
            memory_refs_per_instr: 0.3,
            l2_miss_rate: 0.06,
            branch_fraction: 0.12,
            branch_miss_rate: 0.05,
            ilp_scale: 0.75,
        };
        for decision in platform.spec().decision_space().iter().step_by(17) {
            assert_eq!(
                run_epoch_seed(&platform, &decision, &phase).unwrap(),
                platform.run_epoch(&decision, &phase).unwrap(),
                "epoch diverged at {decision}"
            );
        }
    }
}
