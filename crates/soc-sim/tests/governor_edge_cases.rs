//! Governor edge cases: exactly-threshold utilization, single-core clusters and degenerate
//! (min == max) frequency tables. These are the corners the scenario registry's smaller
//! platform presets (one-core wearable "Big" cluster, short OPP tables) started exercising.

use soc_sim::cluster::{build_opps, ClusterKind, ClusterParams};
use soc_sim::config::{DecisionSpace, DrmDecision};
use soc_sim::counters::CounterSnapshot;
use soc_sim::governor::{
    default_governors, InteractiveGovernor, OndemandGovernor, PerformanceGovernor,
    PowersaveGovernor,
};
use soc_sim::perf::PerfModel;
use soc_sim::platform::{DrmController, Platform, SocSpec};
use soc_sim::power::PowerModel;
use soc_sim::workload::{ApplicationBuilder, PhaseSpec};

fn busy(big_util: f64, little_util_sum: f64) -> CounterSnapshot {
    CounterSnapshot {
        big_cluster_utilization_per_core: big_util,
        little_cluster_utilization_sum: little_util_sum,
        ..CounterSnapshot::zeroed()
    }
}

fn phase() -> PhaseSpec {
    PhaseSpec {
        name: "edge".into(),
        instructions: 30e6,
        parallel_fraction: 0.4,
        memory_refs_per_instr: 0.2,
        l2_miss_rate: 0.03,
        branch_fraction: 0.1,
        branch_miss_rate: 0.04,
        ilp_scale: 0.8,
    }
}

/// A cluster with a single operating point (min == max frequency table).
fn single_opp_cluster(kind: ClusterKind, cores: u8, mhz: u32) -> ClusterParams {
    ClusterParams {
        kind,
        core_count: cores,
        opps: build_opps(mhz, mhz, 100, 0.9, 1.1),
        peak_ipc: 1.0,
        capacitance_nf: 0.2,
        leakage_w_per_v2: 0.05,
        miss_stall_overhead_cycles: 8.0,
        branch_miss_penalty_cycles: 10.0,
    }
}

#[test]
fn exactly_threshold_utilization_holds_the_current_frequency() {
    // ondemand: up threshold is strict (> 0.80), down threshold is strict (< 0.30) —
    // matching the kernel, a load sitting exactly on either threshold changes nothing.
    let spec = SocSpec::exynos5422();
    let previous = DrmDecision {
        big_cores: 4,
        little_cores: 4,
        big_freq_mhz: 1000,
        little_freq_mhz: 800,
    };
    let mut ondemand = OndemandGovernor::new(spec.clone());
    // big load = per-core-util x cores (0.20 x 4 = 0.80 exactly); little load = the raw sum.
    let at_up = ondemand.decide(&busy(0.20, 0.80), &previous);
    assert_eq!(
        at_up.big_freq_mhz, 1000,
        "exactly 0.80 must not jump to max"
    );
    assert_eq!(at_up.little_freq_mhz, 800);
    let at_down = ondemand.decide(&busy(0.075, 0.30), &previous);
    assert_eq!(
        at_down.big_freq_mhz, 1000,
        "exactly 0.30 must not step down"
    );
    assert_eq!(at_down.little_freq_mhz, 800);

    // interactive: same discipline at its 0.85 / 0.40 thresholds.
    let mut interactive = InteractiveGovernor::new(spec);
    let at_hi = interactive.decide(&busy(0.2125, 0.85), &previous);
    assert_eq!(at_hi.big_freq_mhz, 1000, "exactly 0.85 must not ramp");
    let at_lo = interactive.decide(&busy(0.10, 0.40), &previous);
    assert_eq!(at_lo.big_freq_mhz, 1000, "exactly 0.40 must not decay");
}

#[test]
fn single_core_clusters_run_every_governor_without_panicking() {
    let space = DecisionSpace::new(
        single_opp_cluster(ClusterKind::Big, 1, 1000),
        ClusterParams {
            opps: build_opps(200, 600, 100, 0.7, 0.9),
            ..single_opp_cluster(ClusterKind::Little, 1, 600)
        },
        1,
    );
    let spec = SocSpec::new(space, PerfModel::default(), PowerModel::default(), 0.0);
    let platform = Platform::new(spec.clone());
    let app = ApplicationBuilder::new("single-core")
        .phase(phase(), 6)
        .cycles(2)
        .build()
        .unwrap();
    for mut governor in default_governors(&spec) {
        let (run, epochs) = platform
            .run_application_traced(&app, &mut governor, 0)
            .unwrap_or_else(|e| panic!("{} panicked/failed on 1+1 cores: {e}", governor.name()));
        assert!(run.execution_time_s > 0.0);
        for epoch in &epochs {
            spec.decision_space().validate(&epoch.decision).unwrap();
        }
    }
}

#[test]
fn min_equals_max_frequency_tables_saturate_instead_of_panicking() {
    let big = single_opp_cluster(ClusterKind::Big, 2, 1500);
    // Regression for build_opps: a degenerate range used to divide by zero into NaN volts.
    assert_eq!(big.opps.len(), 1);
    assert!(big.opps[0].voltage_v.is_finite());
    assert_eq!(big.min_frequency_mhz(), big.max_frequency_mhz());

    let little = single_opp_cluster(ClusterKind::Little, 2, 400);
    let space = DecisionSpace::new(big, little, 1);
    assert_eq!(space.knob_cardinalities().big_freq_options, 1);
    let spec = SocSpec::new(space, PerfModel::default(), PowerModel::default(), 0.0);
    let previous = spec.decision_space().initial_decision();
    assert_eq!(previous.big_freq_mhz, 1500);

    // ondemand's down-step and interactive's up-ramp both hit the table edge immediately.
    let mut ondemand = OndemandGovernor::new(spec.clone());
    let idle = ondemand.decide(&busy(0.0, 0.0), &previous);
    assert_eq!(idle.big_freq_mhz, 1500);
    assert_eq!(idle.little_freq_mhz, 400);
    let hot = ondemand.decide(&busy(1.0, 2.0), &previous);
    assert_eq!(hot.big_freq_mhz, 1500);

    let mut interactive = InteractiveGovernor::new(spec.clone());
    let ramp = interactive.decide(&busy(1.0, 2.0), &previous);
    assert_eq!(
        ramp.big_freq_mhz, 1500,
        "opp_at_level must clamp at the top"
    );
    let decay = interactive.decide(&busy(0.0, 0.0), &previous);
    assert_eq!(
        decay.big_freq_mhz, 1500,
        "saturating_sub must clamp at the bottom"
    );

    // The pinned-extreme governors agree on the only available frequency.
    let mut perf = PerformanceGovernor::new(spec.clone());
    let mut save = PowersaveGovernor::new(spec.clone());
    let p = perf.decide(&CounterSnapshot::zeroed(), &previous);
    let s = save.decide(&CounterSnapshot::zeroed(), &previous);
    assert_eq!(p.big_freq_mhz, s.big_freq_mhz);

    // And a full run completes.
    let platform = Platform::new(spec);
    let app = ApplicationBuilder::new("pinned")
        .phase(phase(), 5)
        .build()
        .unwrap();
    let run = platform.run_application(&app, &mut ondemand, 1).unwrap();
    assert_eq!(run.epochs, 5);
}

#[test]
fn wearable_preset_governors_respect_its_tiny_decision_space() {
    // The wearable preset has a single-core Big cluster and short OPP tables — the concrete
    // platform that motivated these edge cases.
    let platform = Platform::wearable();
    let spec = platform.spec().clone();
    let app = ApplicationBuilder::new("wearable-burst")
        .phase(phase(), 8)
        .cycles(2)
        .build()
        .unwrap();
    for mut governor in default_governors(&spec) {
        let (run, epochs) = platform
            .run_application_traced(&app, &mut governor, 3)
            .unwrap();
        for epoch in &epochs {
            spec.decision_space().validate(&epoch.decision).unwrap();
            assert!(epoch.decision.big_cores <= 1);
            assert!(epoch.decision.little_cores <= 2);
        }
        assert!(run.peak_temperature_c >= 25.0);
    }
}
