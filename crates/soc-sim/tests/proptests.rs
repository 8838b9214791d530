//! Property-based tests for the SoC simulator substrate.

use proptest::prelude::*;
use soc_sim::cluster::ClusterParams;
use soc_sim::config::{DecisionSpace, DrmDecision};
use soc_sim::counters::CounterSnapshot;
use soc_sim::perf::PerfModel;
use soc_sim::platform::{DrmController, Platform};
use soc_sim::power::{PowerModel, ThermalModel};
use soc_sim::scenario::{self, Scenario};
use soc_sim::workload::{ApplicationBuilder, PhaseSpec};

/// A controller pinning one fixed decision (test helper).
struct Fixed(DrmDecision);

impl DrmController for Fixed {
    fn decide(&mut self, _: &CounterSnapshot, _: &DrmDecision) -> DrmDecision {
        self.0
    }
}

/// Strategy producing an arbitrary valid decision of the Exynos 5422 space.
fn decision_strategy() -> impl Strategy<Value = DrmDecision> {
    (0u8..=4, 1u8..=4, 0usize..19, 0usize..13).prop_map(|(big, little, bf, lf)| {
        let space = DecisionSpace::exynos5422();
        space.decision_from_knob_indices([big as usize, little as usize - 1, bf, lf])
    })
}

/// Strategy producing a physically valid workload phase.
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_enumerable_decision_is_valid(d in decision_strategy()) {
        let space = DecisionSpace::exynos5422();
        prop_assert!(space.validate(&d).is_ok());
        // Knob index round-trip.
        let idx = space.knob_indices_of(&d).unwrap();
        prop_assert_eq!(space.decision_from_knob_indices(idx), d);
    }

    #[test]
    fn epoch_time_and_attribution_are_physical(d in decision_strategy(), phase in phase_strategy()) {
        let big = ClusterParams::exynos5422_big();
        let little = ClusterParams::exynos5422_little();
        let perf = PerfModel::default().run_epoch(&big, &little, &d, &phase);
        prop_assert!(perf.time_s > 0.0 && perf.time_s.is_finite());
        prop_assert!(perf.big_utilization >= 0.0 && perf.big_utilization <= 1.0);
        prop_assert!(perf.little_utilization >= 0.0 && perf.little_utilization <= 1.0);
        let attributed = perf.big_instructions + perf.little_instructions;
        prop_assert!((attributed - phase.instructions).abs() / phase.instructions < 1e-6);
        // Busy core-seconds can never exceed wall time times active cores.
        prop_assert!(perf.big_busy_core_s <= d.big_cores as f64 * perf.time_s + 1e-9);
        prop_assert!(perf.little_busy_core_s <= d.little_cores as f64 * perf.time_s + 1e-9);
    }

    #[test]
    fn raising_frequency_never_slows_an_epoch(phase in phase_strategy(), level in 0usize..18) {
        let big = ClusterParams::exynos5422_big();
        let little = ClusterParams::exynos5422_little();
        let model = PerfModel::default();
        let space = DecisionSpace::exynos5422();
        let lo = space.decision_from_knob_indices([4, 0, level, 5]);
        let hi = space.decision_from_knob_indices([4, 0, level + 1, 5]);
        let t_lo = model.run_epoch(&big, &little, &lo, &phase).time_s;
        let t_hi = model.run_epoch(&big, &little, &hi, &phase).time_s;
        prop_assert!(t_hi <= t_lo + 1e-12);
    }

    #[test]
    fn power_is_positive_and_monotone_in_utilization(
        d in decision_strategy(),
        phase in phase_strategy(),
        util in 0.0f64..1.0,
    ) {
        let big = ClusterParams::exynos5422_big();
        let power = PowerModel::default();
        let p_low = power.cluster_power(&big, d.big_freq_mhz, d.big_cores.max(1), util * 0.5);
        let p_high = power.cluster_power(&big, d.big_freq_mhz, d.big_cores.max(1), util);
        prop_assert!(p_low > 0.0);
        prop_assert!(p_high + 1e-12 >= p_low);
        let _ = phase;
    }

    #[test]
    fn epoch_energy_is_power_times_time(d in decision_strategy(), phase in phase_strategy()) {
        let big = ClusterParams::exynos5422_big();
        let little = ClusterParams::exynos5422_little();
        let perf = PerfModel::default().run_epoch(&big, &little, &d, &phase);
        let power = PowerModel::default();
        let breakdown = power.epoch_power(&big, &little, &d, &phase, &perf);
        let energy = power.epoch_energy(&big, &little, &d, &phase, &perf);
        prop_assert!((energy - breakdown.total_w() * perf.time_s).abs() < 1e-9);
        prop_assert!(breakdown.total_w() > 0.0);
    }

    #[test]
    fn power_and_energy_are_nonnegative_and_monotone_in_frequency_at_fixed_work(
        phase in phase_strategy(),
        cores in 1u8..=4,
        util in 0.0f64..=1.0,
        level in 0usize..18,
    ) {
        // Cluster power at a fixed utilization and core count never decreases when only the
        // frequency (and its rail voltage) rises.
        let big = ClusterParams::exynos5422_big();
        let power = PowerModel::default();
        let lo_mhz = big.opp_at_level(level).frequency_mhz;
        let hi_mhz = big.opp_at_level(level + 1).frequency_mhz;
        let p_lo = power.cluster_power(&big, lo_mhz, cores, util);
        let p_hi = power.cluster_power(&big, hi_mhz, cores, util);
        prop_assert!(p_lo >= 0.0 && p_hi >= 0.0);
        prop_assert!(p_hi + 1e-12 >= p_lo, "power fell from {p_lo} to {p_hi} W");

        // Whole-epoch energy for the same fixed work is non-negative at every frequency.
        let little = ClusterParams::exynos5422_little();
        let space = DecisionSpace::exynos5422();
        let d = space.decision_from_knob_indices([cores as usize, 2, level, 6]);
        let perf = PerfModel::default().run_epoch(&big, &little, &d, &phase);
        let energy = power.epoch_energy(&big, &little, &d, &phase, &perf);
        prop_assert!(energy >= 0.0 && energy.is_finite());
    }

    #[test]
    fn counters_conserve_instructions_across_epochs(
        d in decision_strategy(),
        epochs in 3usize..20,
        seed in 0u64..1000,
    ) {
        // Whatever the configuration, noise seed or thermal trajectory, the retired
        // instructions reported by the per-epoch counters sum to exactly the work the
        // application carried in.
        let platform = Platform::odroid_xu3();
        let app = ApplicationBuilder::new("conserve")
            .phase(PhaseSpec {
                name: "p".into(),
                instructions: 60e6,
                parallel_fraction: 0.5,
                memory_refs_per_instr: 0.25,
                l2_miss_rate: 0.04,
                branch_fraction: 0.1,
                branch_miss_rate: 0.05,
                ilp_scale: 0.85,
            }, epochs)
            .jitter(0.2)
            .seed(seed)
            .build()
            .unwrap();
        let (_, epochs) = platform.run_application_traced(&app, &mut Fixed(d), seed).unwrap();
        let retired: f64 = epochs.iter().map(|e| e.counters.instructions_retired).sum();
        let carried = app.total_instructions();
        prop_assert!(
            (retired - carried).abs() / carried < 1e-9,
            "counters retired {retired} of {carried} instructions"
        );
    }

    #[test]
    fn thermal_trajectory_stays_bounded_and_respects_the_throttle_cap(
        level in 10usize..19,
        epochs in 20usize..60,
        seed in 0u64..100,
    ) {
        // Run a hot fixed configuration end to end: the recorded temperature may never
        // exceed the steady state of the hottest observed power draw, and any epoch that
        // starts throttled must run at or below the Big throttle ceiling.
        let platform = Platform::odroid_xu3();
        let thermal = *platform.spec().thermal_model();
        let space = platform.spec().decision_space().clone();
        let d = space.decision_from_knob_indices([4, 3, level, 12]);
        let app = ApplicationBuilder::new("hot")
            .phase(PhaseSpec {
                name: "burn".into(),
                instructions: 120e6,
                parallel_fraction: 0.9,
                memory_refs_per_instr: 0.1,
                l2_miss_rate: 0.01,
                branch_fraction: 0.05,
                branch_miss_rate: 0.02,
                ilp_scale: 0.95,
            }, epochs)
            .jitter(0.05)
            .seed(seed)
            .build()
            .unwrap();
        let (run, epochs) = platform.run_application_traced(&app, &mut Fixed(d), seed).unwrap();
        let max_power = epochs.iter().map(|e| e.power_w).fold(0.0, f64::max);
        let ceiling = thermal.steady_state_c(max_power) + 1e-9;
        prop_assert!(run.peak_temperature_c <= ceiling);
        prop_assert!(run.peak_temperature_c >= thermal.ambient_c);
        let mut previous_temp = thermal.ambient_c;
        for epoch in &epochs {
            prop_assert!(epoch.temperature_c <= ceiling && epoch.temperature_c.is_finite());
            if thermal.is_throttling(previous_temp) {
                prop_assert!(
                    epoch.decision.big_freq_mhz <= thermal.throttle_big_freq_mhz,
                    "epoch starting at {previous_temp} C ran the Big cluster at {} MHz",
                    epoch.decision.big_freq_mhz
                );
            }
            previous_temp = epoch.temperature_c;
        }
    }

    #[test]
    fn scenario_serde_round_trip_is_lossless(
        index in 0usize..14,
        thermal_limit in 30.0f64..120.0,
        power_budget in 0.05f64..8.0,
        deadline in 0.5f64..60.0,
        weight in 0.0f64..10.0,
        mask in 0u8..8,
        seed in 0u64..u64::MAX,
    ) {
        // Start from a registered scenario, scramble every constraint and the workload seed
        // with arbitrary floats/ints, and demand bit-exact JSON round-tripping.
        let registry = scenario::registry();
        let mut s = registry[index % registry.len()].clone();
        s.constraints.thermal_limit_c = (mask & 1 != 0).then_some(thermal_limit);
        s.constraints.power_budget_w = (mask & 2 != 0).then_some(power_budget);
        s.constraints.deadline_s = (mask & 4 != 0).then_some(deadline);
        s.constraints.penalty_weight = weight;
        s.workload.seed = seed;
        let back = Scenario::from_json(&s.to_json()).expect("round-trip parses");
        prop_assert_eq!(back, s);
    }

    #[test]
    fn thermal_step_is_bounded_by_ambient_and_steady_state(
        power_w in 0.0f64..12.0,
        dt in 0.001f64..5.0,
        start in 25.0f64..110.0,
    ) {
        let thermal = ThermalModel::default();
        let next = thermal.step(start, power_w, dt);
        let steady = thermal.steady_state_c(power_w);
        let lo = start.min(steady) - 1e-9;
        let hi = start.max(steady) + 1e-9;
        prop_assert!(next >= lo && next <= hi, "temperature {next} left [{lo}, {hi}]");
        prop_assert!(thermal.leakage_multiplier(next) >= 1.0);
    }
}
