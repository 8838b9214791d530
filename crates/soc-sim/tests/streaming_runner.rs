//! Equivalence suite for the streaming, table-driven simulation engine.
//!
//! The engine rewrite (PR 4) must be invisible in the numbers: for any platform, workload,
//! controller and measurement seed, the streaming runner's aggregates are bit-identical to
//! the materializing `run_application`, the sink observes exactly the epochs the summary
//! materializes, and every `DecisionTable` entry matches freshly-derived model values.
//! A deterministic regression test additionally pins the per-epoch energy ordering
//! semantics (energy = final time × final power, plus the un-noised switch penalty).

use proptest::prelude::*;
use soc_sim::config::DrmDecision;
use soc_sim::counters::CounterSnapshot;
use soc_sim::engine::DecisionTable;
use soc_sim::platform::{CollectEpochs, DiscardEpochs, DrmController, Platform};
use soc_sim::power::PowerModel;
use soc_sim::workload::{ApplicationBuilder, PhaseSpec};

/// Deterministic SplitMix64 index stream: drives the walk controller through the knob grid,
/// exercising throttle capping, switch penalties and every frequency level.
struct WalkController {
    state: u64,
}

impl WalkController {
    fn new(seed: u64) -> Self {
        WalkController {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn draw(&mut self, bound: usize) -> usize {
        self.state = self
            .state
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (self.state >> 33) as usize % bound.max(1)
    }
}

/// Controller that emits valid decisions for a specific platform by clamping knob indices
/// drawn from the walk (`decision_from_knob_indices` clamps out-of-range indices).
struct SpaceWalk {
    walk: WalkController,
    space: soc_sim::DecisionSpace,
}

impl SpaceWalk {
    fn new(platform: &Platform, seed: u64) -> Self {
        SpaceWalk {
            walk: WalkController::new(seed),
            space: platform.spec().decision_space().clone(),
        }
    }
}

impl DrmController for SpaceWalk {
    fn decide(&mut self, _: &CounterSnapshot, _: &DrmDecision) -> DrmDecision {
        let indices = [
            self.walk.draw(64),
            self.walk.draw(64),
            self.walk.draw(64),
            self.walk.draw(64),
        ];
        self.space.decision_from_knob_indices(indices)
    }

    fn name(&self) -> &str {
        "space-walk"
    }
}

fn platform_for(index: u8) -> Platform {
    match index % 3 {
        0 => Platform::odroid_xu3(),
        1 => Platform::hexa_asym(),
        _ => Platform::wearable(),
    }
}

fn phase_strategy() -> impl Strategy<Value = PhaseSpec> {
    (
        1.0e6f64..5.0e8,
        0.0f64..1.0,
        0.01f64..0.6,
        0.0f64..0.2,
        0.0f64..0.3,
        0.0f64..0.3,
        0.3f64..1.0,
    )
        .prop_map(
            |(instructions, parallel, mem, miss, branch, branch_miss, ilp)| PhaseSpec {
                name: "prop".into(),
                instructions,
                parallel_fraction: parallel,
                memory_refs_per_instr: mem,
                l2_miss_rate: miss,
                branch_fraction: branch,
                branch_miss_rate: branch_miss,
                ilp_scale: ilp,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random platforms, workloads, controllers and measurement seeds, the streaming
    /// aggregates are bit-identical to the materializing summary, and the collecting sink
    /// observes exactly the epochs the summary materializes.
    #[test]
    fn streaming_aggregates_match_the_materializing_runner(
        platform_idx in 0u8..3,
        phase in phase_strategy(),
        epochs in 1usize..40,
        jitter in 0.0f64..0.3,
        controller_seed in 0u64..u64::MAX,
        run_seed in 0u64..u64::MAX,
    ) {
        let platform = platform_for(platform_idx);
        let app = ApplicationBuilder::new("prop-app")
            .phase(phase, epochs)
            .jitter(jitter)
            .seed(controller_seed ^ 0xABCD)
            .build()
            .unwrap();

        let summary = platform
            .run_application(&app, &mut SpaceWalk::new(&platform, controller_seed), run_seed)
            .unwrap();

        let mut discard = DiscardEpochs;
        let aggregates = platform
            .run_application_with(
                &app,
                &mut SpaceWalk::new(&platform, controller_seed),
                run_seed,
                &mut discard,
            )
            .unwrap();

        prop_assert_eq!(aggregates.epochs, summary.epochs.len());
        prop_assert_eq!(aggregates.execution_time_s, summary.execution_time_s);
        prop_assert_eq!(aggregates.energy_j, summary.energy_j);
        prop_assert_eq!(aggregates.average_power_w, summary.average_power_w);
        prop_assert_eq!(aggregates.ppw, summary.ppw);
        prop_assert_eq!(aggregates.peak_temperature_c, summary.peak_temperature_c);
        prop_assert_eq!(aggregates.instructions, app.total_instructions());

        // The collecting sink sees exactly the summary's epoch trace.
        let mut collector = CollectEpochs::with_capacity(app.epoch_count());
        platform
            .run_application_with(
                &app,
                &mut SpaceWalk::new(&platform, controller_seed),
                run_seed,
                &mut collector,
            )
            .unwrap();
        prop_assert_eq!(collector.epochs(), &summary.epochs[..]);
    }

    /// `run_epoch` through the table matches values freshly derived from the perf/power
    /// models for arbitrary phases and in-space decisions.
    #[test]
    fn table_epoch_matches_freshly_derived_models(
        platform_idx in 0u8..3,
        phase in phase_strategy(),
        knobs in (0usize..64, 0usize..64, 0usize..64, 0usize..64),
    ) {
        let platform = platform_for(platform_idx);
        let spec = platform.spec();
        let d = spec
            .decision_space()
            .decision_from_knob_indices([knobs.0, knobs.1, knobs.2, knobs.3]);
        let result = platform.run_epoch(&d, &phase).unwrap();

        let big = spec.big_cluster();
        let little = spec.little_cluster();
        let perf = spec.perf_model().run_epoch(big, little, &d, &phase);
        let power = spec.power_model().epoch_power(big, little, &d, &phase, &perf);
        prop_assert_eq!(result.time_s, perf.time_s);
        prop_assert_eq!(result.power_w, power.total_w());
        prop_assert_eq!(result.big_power_w, power.big_w);
        prop_assert_eq!(result.little_power_w, power.little_w);
        prop_assert_eq!(result.energy_j, power.total_w() * perf.time_s);
        let counters = CounterSnapshot::from_epoch(big, little, &d, &phase, &perf, &power);
        prop_assert_eq!(result.counters, counters);
    }
}

/// Every `DecisionTable` entry of every platform preset matches freshly-derived model
/// values — exhaustively over the whole decision space (4 940 + 3 600 + 216 entries).
#[test]
fn decision_tables_match_the_models_exhaustively() {
    for platform in [
        Platform::odroid_xu3(),
        Platform::hexa_asym(),
        Platform::wearable(),
    ] {
        let spec = platform.spec();
        let space = spec.decision_space();
        let thermal = spec.thermal_model();
        let table = platform.decision_table();
        let model = PowerModel::default();
        assert_eq!(table.len(), space.len());
        // The platform's table must agree with one rebuilt from scratch.
        assert_eq!(*table, DecisionTable::new(space, thermal));
        for (i, d) in space.iter().enumerate() {
            let entry = table.entry(i);
            assert_eq!(entry.decision, d);
            for u in [0.0, 0.5, 1.0] {
                assert_eq!(
                    entry.big_power_w(u),
                    model.cluster_power(space.big_cluster(), d.big_freq_mhz, d.big_cores, u)
                );
                assert_eq!(
                    entry.little_power_w(u),
                    model.cluster_power(
                        space.little_cluster(),
                        d.little_freq_mhz,
                        d.little_cores,
                        u
                    )
                );
            }
            assert_eq!(
                table.entry(entry.throttled_index).decision,
                thermal.cap_decision(true, &d, space.big_cluster(), space.little_cluster())
            );
        }
    }
}

/// Pins the epoch energy ordering semantics (the seed recomputed `energy = time · power`
/// three times; the streaming engine computes it once, at the end of the adjustment chain):
///
/// 1. leakage and measurement noise scale the **power** factor,
/// 2. switch latency and measurement noise stretch the **time** factor,
/// 3. `energy_j` is exactly `time_s · power_w` over the final factors,
/// 4. the switch **energy** penalty is added afterwards, outside the noise model.
#[test]
fn epoch_energy_is_final_time_times_final_power_plus_switch_energy() {
    // hexa_asym has non-zero switch energy AND measurement noise, so every term is live.
    let platform = Platform::hexa_asym();
    let spec = platform.spec();
    assert!(spec.transition_model().freq_switch_energy_mj > 0.0);
    assert!(spec.measurement_noise() > 0.0);

    let phase = PhaseSpec {
        name: "p".into(),
        instructions: 60e6,
        parallel_fraction: 0.5,
        memory_refs_per_instr: 0.25,
        l2_miss_rate: 0.04,
        branch_fraction: 0.1,
        branch_miss_rate: 0.05,
        ilp_scale: 0.85,
    };
    let app = ApplicationBuilder::new("energy-ordering")
        .phase(phase, 30)
        .jitter(0.1)
        .build()
        .unwrap();
    let summary = platform
        .run_application(&app, &mut SpaceWalk::new(&platform, 99), 5)
        .unwrap();

    let mut previous = spec.decision_space().initial_decision();
    let mut any_switch_energy = false;
    for (i, epoch) in summary.epochs.iter().enumerate() {
        let switch_j = spec
            .transition_model()
            .switch_energy_j(&previous, &epoch.decision);
        any_switch_energy |= switch_j > 0.0;
        assert_eq!(
            epoch.energy_j,
            epoch.time_s * epoch.power_w + switch_j,
            "epoch {i}: energy must be final time × final power plus the switch penalty"
        );
        assert_eq!(
            epoch.counters.total_chip_power_w, epoch.power_w,
            "epoch {i}: the power counter must carry the final (noised) power"
        );
        previous = epoch.decision;
    }
    assert!(
        any_switch_energy,
        "the walk must change configurations so the switch-energy term is exercised"
    );
    // Totals remain the plain sums of the per-epoch values.
    let time: f64 = summary.epochs.iter().map(|e| e.time_s).sum();
    let energy: f64 = summary.epochs.iter().map(|e| e.energy_j).sum();
    assert_eq!(summary.execution_time_s, time);
    assert_eq!(summary.energy_j, energy);
}

/// Out-of-space requests from a controller surface the same validation error through the
/// table-driven path as the seed's per-epoch `validate`.
#[test]
fn invalid_controller_decisions_still_error() {
    struct Rogue;
    impl DrmController for Rogue {
        fn decide(&mut self, _: &CounterSnapshot, _: &DrmDecision) -> DrmDecision {
            DrmDecision {
                big_cores: 9,
                little_cores: 1,
                big_freq_mhz: 1000,
                little_freq_mhz: 1000,
            }
        }
    }
    let platform = Platform::odroid_xu3();
    let app = ApplicationBuilder::new("rogue")
        .phase(
            PhaseSpec {
                name: "p".into(),
                instructions: 1e6,
                parallel_fraction: 0.5,
                memory_refs_per_instr: 0.1,
                l2_miss_rate: 0.01,
                branch_fraction: 0.1,
                branch_miss_rate: 0.05,
                ilp_scale: 0.9,
            },
            2,
        )
        .build()
        .unwrap();
    let err = platform
        .run_application_with(&app, &mut Rogue, 0, &mut DiscardEpochs)
        .unwrap_err();
    assert!(err.to_string().contains("big cores"), "got: {err}");
}
