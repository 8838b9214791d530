//! Hardware-counter features (Table I of the paper).
//!
//! The DRM policies observe the system state through nine features collected every decision
//! epoch: instructions retired, CPU cycles, branch mispredictions, L2 cache misses, data
//! memory accesses, non-cache external memory requests, the summed Little-cluster utilization,
//! the per-core Big-cluster utilization and total chip power. The platform synthesizes these
//! from the performance and power models so learned policies consume exactly the feature
//! vector the paper describes.

use crate::cluster::ClusterParams;
use crate::config::DrmDecision;
use crate::perf::EpochPerf;
use crate::power::PowerBreakdown;
use crate::workload::PhaseSpec;
use serde::{Deserialize, Serialize};

/// Number of counter features (the rows of Table I).
pub const FEATURE_COUNT: usize = 9;

/// Names of the features in the order produced by [`CounterSnapshot::to_features`].
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "instructions_retired",
    "cpu_cycles",
    "branch_mispredictions",
    "l2_cache_misses",
    "data_memory_accesses",
    "noncache_external_requests",
    "little_cluster_utilization_sum",
    "big_cluster_utilization_per_core",
    "total_chip_power_w",
];

/// Hardware-counter snapshot of one finished decision epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Dynamic instructions retired during the epoch.
    pub instructions_retired: f64,
    /// Total busy CPU cycles summed over all active cores.
    pub cpu_cycles: f64,
    /// Branch mispredictions during the epoch.
    pub branch_mispredictions: f64,
    /// L2 cache misses during the epoch.
    pub l2_cache_misses: f64,
    /// Data memory accesses during the epoch.
    pub data_memory_accesses: f64,
    /// Non-cacheable external memory requests during the epoch.
    pub noncache_external_requests: f64,
    /// Sum of per-core utilizations of the Little cluster (0–4 on the Exynos 5422).
    pub little_cluster_utilization_sum: f64,
    /// Average per-core utilization of the Big cluster in `[0, 1]`.
    pub big_cluster_utilization_per_core: f64,
    /// Average total chip power during the epoch in watts.
    pub total_chip_power_w: f64,
}

impl CounterSnapshot {
    /// A zeroed snapshot, used as the observation for the very first decision of a run
    /// (before any epoch has executed).
    pub fn zeroed() -> Self {
        CounterSnapshot {
            instructions_retired: 0.0,
            cpu_cycles: 0.0,
            branch_mispredictions: 0.0,
            l2_cache_misses: 0.0,
            data_memory_accesses: 0.0,
            noncache_external_requests: 0.0,
            little_cluster_utilization_sum: 0.0,
            big_cluster_utilization_per_core: 0.0,
            total_chip_power_w: 0.0,
        }
    }

    /// Synthesizes the counters of an epoch from the simulator's performance and power
    /// results.
    pub fn from_epoch(
        big: &ClusterParams,
        little: &ClusterParams,
        decision: &DrmDecision,
        phase: &PhaseSpec,
        perf: &EpochPerf,
        power: &PowerBreakdown,
    ) -> Self {
        let big_opp_mhz = if decision.big_cores > 0 {
            decision.big_freq_mhz as f64
        } else {
            0.0
        };
        let little_opp_mhz = decision.little_freq_mhz as f64;
        // Busy cycles = busy core-seconds x clock.
        let cpu_cycles = perf.big_busy_core_s * big_opp_mhz * 1e6
            + perf.little_busy_core_s * little_opp_mhz * 1e6;
        let data_memory_accesses = phase.instructions * phase.memory_refs_per_instr;
        let l2_cache_misses = data_memory_accesses * phase.l2_miss_rate;
        // A fixed share of misses bypasses the cache hierarchy entirely (device/uncached
        // traffic); keep the proportion small but non-zero so the feature carries signal.
        let noncache_external_requests = l2_cache_misses * 0.85 + data_memory_accesses * 0.002;
        let branch_mispredictions =
            phase.instructions * phase.branch_fraction * phase.branch_miss_rate;
        let _ = (big, little); // cluster parameters reserved for future counter refinements

        CounterSnapshot {
            instructions_retired: phase.instructions,
            cpu_cycles,
            branch_mispredictions,
            l2_cache_misses,
            data_memory_accesses,
            noncache_external_requests,
            little_cluster_utilization_sum: perf.little_utilization * decision.little_cores as f64,
            big_cluster_utilization_per_core: perf.big_utilization,
            total_chip_power_w: power.total_w(),
        }
    }

    /// Returns the features as a fixed-size array in [`FEATURE_NAMES`] order.
    pub fn to_features(&self) -> [f64; FEATURE_COUNT] {
        [
            self.instructions_retired,
            self.cpu_cycles,
            self.branch_mispredictions,
            self.l2_cache_misses,
            self.data_memory_accesses,
            self.noncache_external_requests,
            self.little_cluster_utilization_sum,
            self.big_cluster_utilization_per_core,
            self.total_chip_power_w,
        ]
    }

    /// Returns the features scaled to roughly unit magnitude, suitable as MLP inputs.
    ///
    /// Count-type features are log-compressed (`ln(1 + x)` divided by a per-feature scale
    /// estimated from typical epoch magnitudes); utilizations and power are linearly scaled.
    pub fn to_normalized_features(&self) -> [f64; FEATURE_COUNT] {
        let raw = self.to_features();
        let mut out = [0.0; FEATURE_COUNT];
        // Typical epoch magnitudes used as normalization constants (counts are per-epoch).
        const LOG_SCALE: [f64; 6] = [18.0, 19.0, 13.0, 12.0, 17.0, 12.0];
        for i in 0..6 {
            out[i] = (1.0 + raw[i]).ln() / LOG_SCALE[i];
        }
        out[6] = raw[6] / 4.0; // little utilization sum: 0..4
        out[7] = raw[7]; // big per-core utilization: already 0..1
        out[8] = raw[8] / 8.0; // total power: 0..~8 W
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterParams;
    use crate::perf::PerfModel;
    use crate::power::PowerModel;

    fn phase() -> PhaseSpec {
        PhaseSpec {
            name: "mixed".into(),
            instructions: 60e6,
            parallel_fraction: 0.5,
            memory_refs_per_instr: 0.3,
            l2_miss_rate: 0.05,
            branch_fraction: 0.12,
            branch_miss_rate: 0.06,
            ilp_scale: 0.8,
        }
    }

    fn snapshot(decision: DrmDecision) -> CounterSnapshot {
        let big = ClusterParams::exynos5422_big();
        let little = ClusterParams::exynos5422_little();
        let ph = phase();
        let perf = PerfModel::default().run_epoch(&big, &little, &decision, &ph);
        let power = PowerModel::default().epoch_power(&big, &little, &decision, &ph, &perf);
        CounterSnapshot::from_epoch(&big, &little, &decision, &ph, &perf, &power)
    }

    #[test]
    fn feature_vector_has_table1_layout() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
        let snap = snapshot(DrmDecision {
            big_cores: 2,
            little_cores: 2,
            big_freq_mhz: 1200,
            little_freq_mhz: 800,
        });
        let features = snap.to_features();
        assert_eq!(features.len(), FEATURE_COUNT);
        assert_eq!(features[0], snap.instructions_retired);
        assert_eq!(features[8], snap.total_chip_power_w);
    }

    #[test]
    fn counters_reflect_workload_characteristics() {
        let snap = snapshot(DrmDecision {
            big_cores: 4,
            little_cores: 4,
            big_freq_mhz: 2000,
            little_freq_mhz: 1400,
        });
        let ph = phase();
        assert_eq!(snap.instructions_retired, ph.instructions);
        assert!((snap.data_memory_accesses - ph.instructions * 0.3).abs() < 1.0);
        assert!((snap.l2_cache_misses - snap.data_memory_accesses * 0.05).abs() < 1.0);
        assert!(snap.branch_mispredictions > 0.0);
        assert!(snap.noncache_external_requests < snap.data_memory_accesses);
        assert!(snap.cpu_cycles > snap.instructions_retired); // CPI > 1 for this mix
        assert!(snap.total_chip_power_w > 1.0);
    }

    #[test]
    fn utilization_counters_track_active_clusters() {
        let all_cores = snapshot(DrmDecision {
            big_cores: 4,
            little_cores: 4,
            big_freq_mhz: 1000,
            little_freq_mhz: 1000,
        });
        assert!(all_cores.big_cluster_utilization_per_core > 0.0);
        assert!(all_cores.little_cluster_utilization_sum > 0.0);
        assert!(all_cores.little_cluster_utilization_sum <= 4.0);

        let little_only = snapshot(DrmDecision {
            big_cores: 0,
            little_cores: 2,
            big_freq_mhz: 200,
            little_freq_mhz: 1000,
        });
        assert_eq!(little_only.big_cluster_utilization_per_core, 0.0);
        assert!(little_only.little_cluster_utilization_sum > 0.0);
    }

    #[test]
    fn zeroed_snapshot_is_all_zero() {
        let z = CounterSnapshot::zeroed();
        assert!(z.to_features().iter().all(|&f| f == 0.0));
    }

    #[test]
    fn normalized_features_are_bounded() {
        let snap = snapshot(DrmDecision {
            big_cores: 4,
            little_cores: 4,
            big_freq_mhz: 2000,
            little_freq_mhz: 1400,
        });
        for (i, f) in snap.to_normalized_features().iter().enumerate() {
            assert!(
                *f >= 0.0 && *f <= 2.5,
                "normalized feature {i} ({}) out of range: {f}",
                FEATURE_NAMES[i]
            );
        }
        // The zeroed snapshot normalizes to all zeros.
        assert!(CounterSnapshot::zeroed()
            .to_normalized_features()
            .iter()
            .all(|&f| f == 0.0));
    }

    #[test]
    fn higher_frequency_produces_more_cycles_for_memory_bound_epochs() {
        let lo = snapshot(DrmDecision {
            big_cores: 4,
            little_cores: 1,
            big_freq_mhz: 600,
            little_freq_mhz: 200,
        });
        let hi = snapshot(DrmDecision {
            big_cores: 4,
            little_cores: 1,
            big_freq_mhz: 2000,
            little_freq_mhz: 200,
        });
        // Same instructions, but stalls inflate busy cycles at higher frequency.
        assert!(hi.cpu_cycles > lo.cpu_cycles);
    }
}
