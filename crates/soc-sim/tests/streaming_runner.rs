//! Equivalence suite for the streaming, table-driven simulation engine.
//!
//! The engine must be invisible in the numbers: for any platform, workload, controller and
//! measurement seed, the untraced `run_application` and the traced
//! `run_application_traced` return bit-identical aggregates, the trace sums to them in
//! order, and every `DecisionTable` entry matches freshly-derived model values.
//! A deterministic regression test additionally pins the per-epoch energy ordering
//! semantics (energy = final time × final power, plus the un-noised switch penalty).
//!
//! Two committed digests pin the numbers themselves. They were computed while the seed's
//! epoch loop was still in the tree and proved the engine bit-identical to it, so they hold
//! the seed's bits: a change to the engine that moves one bit of one epoch moves a digest.

use proptest::prelude::*;
use soc_sim::config::DrmDecision;
use soc_sim::counters::CounterSnapshot;
use soc_sim::engine::DecisionTable;
use soc_sim::governor::default_governors;
use soc_sim::platform::{DrmController, EpochResult, Platform, RunAggregates};
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

    /// For random platforms, workloads, controllers and measurement seeds, the untraced and
    /// traced runs return bit-identical aggregates, the trace holds one entry per epoch,
    /// and its in-order time and energy sums are the aggregates' totals.
    #[test]
    fn traced_and_untraced_runs_return_identical_aggregates(
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

        let aggregates = platform
            .run_application(&app, &mut SpaceWalk::new(&platform, controller_seed), run_seed)
            .unwrap();
        let (traced, trace) = platform
            .run_application_traced(
                &app,
                &mut SpaceWalk::new(&platform, controller_seed),
                run_seed,
            )
            .unwrap();

        prop_assert_eq!(aggregates, traced);
        prop_assert_eq!(trace.len(), aggregates.epochs);
        let time: f64 = trace.iter().map(|e| e.time_s).sum();
        let energy: f64 = trace.iter().map(|e| e.energy_j).sum();
        prop_assert_eq!(time.to_bits(), aggregates.execution_time_s.to_bits());
        prop_assert_eq!(energy.to_bits(), aggregates.energy_j.to_bits());
        prop_assert_eq!(aggregates.instructions, app.total_instructions());
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
    let (summary, epochs) = platform
        .run_application_traced(&app, &mut SpaceWalk::new(&platform, 99), 5)
        .unwrap();

    let mut previous = spec.decision_space().initial_decision();
    let mut any_switch_energy = false;
    for (i, epoch) in epochs.iter().enumerate() {
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
    let time: f64 = epochs.iter().map(|e| e.time_s).sum();
    let energy: f64 = epochs.iter().map(|e| e.energy_j).sum();
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
    let err = platform.run_application(&app, &mut Rogue, 0).unwrap_err();
    assert!(err.to_string().contains("big cores"), "got: {err}");
}

/// FNV-1a over the little-endian bytes of each word, in order, continuing from `hash`.
fn fnv1a(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(hash, |hash, word| {
        word.to_le_bytes().iter().fold(hash, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// The FNV-1a offset basis: the digest of nothing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every field of a run's aggregates as digest words: integers widened, floats as their
/// bits. The destructuring is exhaustive, so a new field fails to compile here.
fn aggregate_words(run: &RunAggregates) -> impl Iterator<Item = u64> {
    let RunAggregates {
        epochs,
        execution_time_s,
        energy_j,
        instructions,
        average_power_w,
        ppw,
        peak_temperature_c,
    } = *run;
    std::iter::once(epochs as u64).chain(
        [
            execution_time_s,
            energy_j,
            instructions,
            average_power_w,
            ppw,
            peak_temperature_c,
        ]
        .map(f64::to_bits),
    )
}

/// Every field of an epoch (its decision and counters included) as digest words, like
/// [`aggregate_words`].
fn epoch_words(epoch: &EpochResult) -> impl Iterator<Item = u64> {
    let EpochResult {
        decision,
        time_s,
        energy_j,
        power_w,
        big_power_w,
        little_power_w,
        temperature_c,
        counters,
    } = *epoch;
    let DrmDecision {
        big_cores,
        little_cores,
        big_freq_mhz,
        little_freq_mhz,
    } = decision;
    let CounterSnapshot {
        instructions_retired,
        cpu_cycles,
        branch_mispredictions,
        l2_cache_misses,
        data_memory_accesses,
        noncache_external_requests,
        little_cluster_utilization_sum,
        big_cluster_utilization_per_core,
        total_chip_power_w,
    } = counters;
    [
        u64::from(big_cores),
        u64::from(little_cores),
        u64::from(big_freq_mhz),
        u64::from(little_freq_mhz),
    ]
    .into_iter()
    .chain(
        [
            time_s,
            energy_j,
            power_w,
            big_power_w,
            little_power_w,
            temperature_c,
            instructions_retired,
            cpu_cycles,
            branch_mispredictions,
            l2_cache_misses,
            data_memory_accesses,
            noncache_external_requests,
            little_cluster_utilization_sum,
            big_cluster_utilization_per_core,
            total_chip_power_w,
        ]
        .map(f64::to_bits),
    )
}

/// A bursty 60-epoch application under each default governor on every platform preset,
/// with measurement seed 11: the aggregates and every epoch of each traced run, in order.
/// This pins thermal throttling, switch penalties, leakage and the measurement noise of the
/// whole epoch loop.
#[test]
fn traced_bursty_runs_match_their_committed_digest() {
    let mut hash = FNV_OFFSET;
    for platform in [
        Platform::odroid_xu3(),
        Platform::hexa_asym(),
        Platform::wearable(),
    ] {
        let base = PhaseSpec {
            name: "p".into(),
            instructions: 40e6,
            parallel_fraction: 0.6,
            memory_refs_per_instr: 0.22,
            l2_miss_rate: 0.05,
            branch_fraction: 0.1,
            branch_miss_rate: 0.04,
            ilp_scale: 0.8,
        };
        let app = soc_sim::workload::bursty("equivalence", base, 5.0, 7, 2, 60, 0.1, 3).unwrap();
        for mut governor in default_governors(platform.spec()) {
            let (aggregates, trace) = platform
                .run_application_traced(&app, &mut governor, 11)
                .unwrap();
            hash = fnv1a(hash, aggregate_words(&aggregates));
            hash = fnv1a(hash, trace.iter().flat_map(epoch_words));
        }
    }
    assert_eq!(
        hash, TRACED_BURSTY_RUNS_DIGEST,
        "the traced bursty runs moved: {hash:#018x}"
    );
}

/// One `Platform::run_epoch` of a fixed probe phase at every decision of the Odroid-XU3
/// space, in the space's order: the per-decision performance, power and counter models.
#[test]
fn every_decision_epoch_matches_its_committed_digest() {
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
    let space = platform.spec().decision_space();
    let hash = space.iter().fold(FNV_OFFSET, |hash, decision| {
        fnv1a(
            hash,
            epoch_words(&platform.run_epoch(&decision, &phase).unwrap()),
        )
    });
    assert_eq!(space.len(), 4940);
    assert_eq!(
        hash, EVERY_DECISION_EPOCH_DIGEST,
        "the probe-phase epochs moved: {hash:#018x}"
    );
}

/// Digest of [`traced_bursty_runs_match_their_committed_digest`]'s runs.
const TRACED_BURSTY_RUNS_DIGEST: u64 = 0x5770_c20a_8a5f_a9a7;

/// Digest of [`every_decision_epoch_matches_its_committed_digest`]'s epochs.
const EVERY_DECISION_EPOCH_DIGEST: u64 = 0xdc89_8af5_f4f1_9618;
