//! The four-headed DRM policy of the paper: one MLP per control knob.

use crate::features::{policy_feature_array, POLICY_INPUT_DIM};
use crate::mlp::{Mlp, MlpScratch};
use serde::{Deserialize, Serialize};
use soc_sim::config::{DecisionSpace, DrmDecision, KnobCardinalities};
use soc_sim::counters::CounterSnapshot;
use soc_sim::platform::DrmController;
use std::sync::Arc;

/// The four control knobs, in decision-tuple order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Number of active Big cores.
    BigCores,
    /// Number of active Little cores.
    LittleCores,
    /// Big-cluster frequency level.
    BigFrequency,
    /// Little-cluster frequency level.
    LittleFrequency,
}

impl Knob {
    /// All knobs in decision-tuple order.
    pub const ALL: [Knob; 4] = [
        Knob::BigCores,
        Knob::LittleCores,
        Knob::BigFrequency,
        Knob::LittleFrequency,
    ];
}

/// Network architecture shared by all four heads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyArchitecture {
    /// Sizes of the hidden layers (the paper uses two ReLU hidden layers).
    pub hidden_layers: Vec<usize>,
}

impl PolicyArchitecture {
    /// The architecture used throughout the reproduction: two small hidden layers, keeping
    /// the per-policy memory near the ~1 KB the paper reports (Table II).
    pub fn paper_default() -> Self {
        PolicyArchitecture {
            hidden_layers: vec![5, 4],
        }
    }

    /// Full layer-size vector for a head with `output_dim` actions.
    pub fn layer_sizes(&self, output_dim: usize) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.hidden_layers.len() + 2);
        sizes.push(POLICY_INPUT_DIM);
        sizes.extend_from_slice(&self.hidden_layers);
        sizes.push(output_dim);
        sizes
    }
}

impl Default for PolicyArchitecture {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A learned DRM policy: four MLP heads mapping the Table-I features to one categorical
/// action per knob, convertible to and from a single flat parameter vector θ.
///
/// The policy implements [`DrmController`], so the simulator can execute it directly; PaRMIS
/// treats [`to_flat_parameters`](Self::to_flat_parameters) as the point θ its Gaussian
/// processes model.
#[derive(Debug, Clone)]
pub struct DrmPolicy {
    space: DecisionSpace,
    architecture: PolicyArchitecture,
    heads: Vec<Mlp>,
    name: Arc<str>,
    /// Forward-pass buffers reused across heads and epochs by [`DrmController::decide`], so
    /// the epoch loop performs no heap allocation once they have grown to the widest layer.
    /// Transient state, excluded from equality.
    scratch: MlpScratch,
}

impl PartialEq for DrmPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.architecture == other.architecture
            && self.heads == other.heads
            && self.name == other.name
    }
}

impl DrmPolicy {
    /// Hard bound applied to every parameter when policies are created from search vectors:
    /// PaRMIS searches θ ∈ [−BOUND, BOUND]^d.
    pub const PARAMETER_BOUND: f64 = 3.0;

    /// Creates a policy with all parameters zero (every knob distribution uniform).
    pub fn zeros(space: &DecisionSpace, architecture: &PolicyArchitecture) -> Self {
        let cards = space.knob_cardinalities();
        let heads = head_output_dims(&cards)
            .iter()
            .map(|&out| Mlp::zeros(&architecture.layer_sizes(out)))
            .collect();
        DrmPolicy {
            space: space.clone(),
            architecture: architecture.clone(),
            heads,
            name: Arc::from("drm-policy"),
            scratch: MlpScratch::new(),
        }
    }

    /// Creates a policy with randomly initialized heads.
    pub fn random(space: &DecisionSpace, architecture: &PolicyArchitecture, seed: u64) -> Self {
        let cards = space.knob_cardinalities();
        let heads = head_output_dims(&cards)
            .iter()
            .enumerate()
            .map(|(i, &out)| {
                Mlp::random(
                    &architecture.layer_sizes(out),
                    seed.wrapping_add(i as u64 * 7919),
                )
            })
            .collect();
        DrmPolicy {
            space: space.clone(),
            architecture: architecture.clone(),
            heads,
            name: Arc::from("drm-policy"),
            scratch: MlpScratch::new(),
        }
    }

    /// Builds a policy from a flat parameter vector θ (clamped to
    /// [`PARAMETER_BOUND`](Self::PARAMETER_BOUND)).
    ///
    /// # Panics
    ///
    /// Panics if `theta.len()` differs from
    /// [`parameter_count_for`](Self::parameter_count_for).
    pub fn from_flat_parameters(
        space: &DecisionSpace,
        architecture: &PolicyArchitecture,
        theta: &[f64],
    ) -> Self {
        let mut policy = DrmPolicy::zeros(space, architecture);
        policy.set_flat_parameters(theta);
        policy
    }

    /// Number of parameters a policy of this architecture has on this decision space.
    pub fn parameter_count_for(space: &DecisionSpace, architecture: &PolicyArchitecture) -> usize {
        let cards = space.knob_cardinalities();
        head_output_dims(&cards)
            .iter()
            .map(|&out| Mlp::zeros(&architecture.layer_sizes(out)).parameter_count())
            .sum()
    }

    /// Total number of parameters across all four heads.
    pub fn parameter_count(&self) -> usize {
        self.heads.iter().map(Mlp::parameter_count).sum()
    }

    /// Approximate storage footprint of the policy in bytes, assuming 32-bit weights as the
    /// paper's user-space governor implementation uses (Table II reports ~1 KB per policy).
    pub fn storage_bytes(&self) -> usize {
        self.parameter_count() * std::mem::size_of::<f32>()
    }

    /// Flattens all four heads into a single θ vector (head order: Big cores, Little cores,
    /// Big frequency, Little frequency).
    pub fn to_flat_parameters(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.parameter_count());
        for h in &self.heads {
            flat.extend(h.to_flat_parameters());
        }
        flat
    }

    /// Replaces all parameters from a flat θ vector, clamping every entry to
    /// ±[`PARAMETER_BOUND`](Self::PARAMETER_BOUND).
    ///
    /// # Panics
    ///
    /// Panics if `theta.len()` differs from [`parameter_count`](Self::parameter_count).
    pub fn set_flat_parameters(&mut self, theta: &[f64]) {
        assert_eq!(
            theta.len(),
            self.parameter_count(),
            "theta has the wrong length"
        );
        let mut offset = 0;
        for h in &mut self.heads {
            let n = h.parameter_count();
            let clamped: Vec<f64> = theta[offset..offset + n]
                .iter()
                .map(|v| v.clamp(-Self::PARAMETER_BOUND, Self::PARAMETER_BOUND))
                .collect();
            h.set_flat_parameters(&clamped);
            offset += n;
        }
    }

    /// The decision space this policy acts on.
    pub fn decision_space(&self) -> &DecisionSpace {
        &self.space
    }

    /// The shared head architecture.
    pub fn architecture(&self) -> &PolicyArchitecture {
        &self.architecture
    }

    /// Mutable access to one head (used by the imitation-learning trainer).
    pub fn head_mut(&mut self, knob: Knob) -> &mut Mlp {
        &mut self.heads[knob_index(knob)]
    }

    /// Read-only access to one head.
    pub fn head(&self, knob: Knob) -> &Mlp {
        &self.heads[knob_index(knob)]
    }

    /// Sets the controller name used in run reports.
    pub fn with_name(mut self, name: impl Into<Arc<str>>) -> Self {
        self.name = name.into();
        self
    }

    /// Computes the per-knob action indices for a feature vector (greedy argmax per head).
    ///
    /// One [`MlpScratch`] is shared across the four heads, so per-decision inference costs
    /// two small buffer allocations instead of the ~9 per head the naive forward pass made.
    pub fn decide_indices(&self, features: &[f64]) -> [usize; 4] {
        let mut scratch = MlpScratch::new();
        let mut indices = [0usize; 4];
        for (i, head) in self.heads.iter().enumerate() {
            indices[i] = head.predict_class_with(features, &mut scratch);
        }
        indices
    }

    /// Computes the decision for a raw counter snapshot.
    pub fn decide_for_counters(&self, counters: &CounterSnapshot) -> DrmDecision {
        let features = policy_feature_array(counters);
        let indices = self.decide_indices(&features);
        self.space.decision_from_knob_indices(indices)
    }
}

impl DrmController for DrmPolicy {
    fn decide(&mut self, counters: &CounterSnapshot, _previous: &DrmDecision) -> DrmDecision {
        // Same computation as `decide_for_counters`, but through the policy-owned scratch:
        // the `&mut self` of the controller interface is what makes the per-epoch forward
        // passes allocation-free.
        let features = policy_feature_array(counters);
        let mut indices = [0usize; 4];
        for (i, head) in self.heads.iter().enumerate() {
            indices[i] = head.predict_class_with(&features, &mut self.scratch);
        }
        self.space.decision_from_knob_indices(indices)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

fn knob_index(knob: Knob) -> usize {
    match knob {
        Knob::BigCores => 0,
        Knob::LittleCores => 1,
        Knob::BigFrequency => 2,
        Knob::LittleFrequency => 3,
    }
}

fn head_output_dims(cards: &KnobCardinalities) -> [usize; 4] {
    cards.as_array()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_sim::apps::Benchmark;
    use soc_sim::platform::Platform;

    fn space() -> DecisionSpace {
        DecisionSpace::exynos5422()
    }

    #[test]
    fn parameter_count_is_consistent_across_constructors() {
        let arch = PolicyArchitecture::paper_default();
        let s = space();
        let zero = DrmPolicy::zeros(&s, &arch);
        let rand = DrmPolicy::random(&s, &arch, 5);
        assert_eq!(zero.parameter_count(), rand.parameter_count());
        assert_eq!(
            zero.parameter_count(),
            DrmPolicy::parameter_count_for(&s, &arch)
        );
        // Four heads with outputs 5, 4, 19, 13 over a 9-input, [5,4]-hidden network.
        let expect: usize = [5usize, 4, 19, 13]
            .iter()
            .map(|&out| (9 * 5 + 5) + (5 * 4 + 4) + (4 * out + out))
            .sum();
        assert_eq!(zero.parameter_count(), expect);
    }

    #[test]
    fn storage_footprint_is_around_one_kilobyte() {
        let policy = DrmPolicy::zeros(&space(), &PolicyArchitecture::paper_default());
        let kb = policy.storage_bytes() as f64 / 1024.0;
        assert!(
            kb > 0.5 && kb < 4.0,
            "storage {kb} KiB outside the expected ballpark"
        );
    }

    #[test]
    fn flat_parameter_roundtrip_preserves_decisions() {
        let arch = PolicyArchitecture::paper_default();
        let s = space();
        let policy = DrmPolicy::random(&s, &arch, 11);
        let theta = policy.to_flat_parameters();
        let rebuilt = DrmPolicy::from_flat_parameters(&s, &arch, &theta);
        let counters = CounterSnapshot {
            instructions_retired: 5e7,
            cpu_cycles: 1.2e8,
            branch_mispredictions: 2e5,
            l2_cache_misses: 4e5,
            data_memory_accesses: 1.5e7,
            noncache_external_requests: 3e5,
            little_cluster_utilization_sum: 1.5,
            big_cluster_utilization_per_core: 0.6,
            total_chip_power_w: 2.5,
        };
        assert_eq!(
            policy.decide_for_counters(&counters),
            rebuilt.decide_for_counters(&counters)
        );
    }

    #[test]
    fn set_flat_parameters_clamps_to_bound() {
        let arch = PolicyArchitecture::paper_default();
        let s = space();
        let mut policy = DrmPolicy::zeros(&s, &arch);
        let n = policy.parameter_count();
        policy.set_flat_parameters(&vec![100.0; n]);
        assert!(policy
            .to_flat_parameters()
            .iter()
            .all(|&v| v <= DrmPolicy::PARAMETER_BOUND));
    }

    #[test]
    fn decisions_are_always_valid() {
        let arch = PolicyArchitecture::paper_default();
        let s = space();
        for seed in 0..20 {
            let policy = DrmPolicy::random(&s, &arch, seed);
            let counters = CounterSnapshot::zeroed();
            let d = policy.decide_for_counters(&counters);
            assert!(
                s.validate(&d).is_ok(),
                "random policy produced invalid decision {d}"
            );
        }
    }

    #[test]
    fn different_parameters_produce_different_behaviour() {
        let arch = PolicyArchitecture::paper_default();
        let s = space();
        let platform = Platform::odroid_xu3();
        let app = Benchmark::Fft.application();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8 {
            let mut policy = DrmPolicy::random(&s, &arch, seed * 31 + 1);
            let summary = platform.run_application(&app, &mut policy, 0).unwrap();
            seen.insert(format!("{:.4}", summary.execution_time_s));
        }
        assert!(
            seen.len() >= 3,
            "random policies should induce diverse execution times, got {seen:?}"
        );
    }

    #[test]
    fn policy_acts_as_a_controller() {
        let arch = PolicyArchitecture::paper_default();
        let s = space();
        let platform = Platform::odroid_xu3();
        let mut policy = DrmPolicy::random(&s, &arch, 3).with_name("parmis-candidate");
        let summary = platform
            .run_application(&Benchmark::Qsort.application(), &mut policy, 1)
            .unwrap();
        assert_eq!(policy.name(), "parmis-candidate");
        assert!(summary.execution_time_s > 0.0);
        // Every epoch decision stayed inside the decision space (run_application validates).
        assert_eq!(summary.epochs, Benchmark::Qsort.application().epoch_count());
    }

    #[test]
    fn heads_are_individually_addressable() {
        let arch = PolicyArchitecture::paper_default();
        let s = space();
        let mut policy = DrmPolicy::zeros(&s, &arch);
        assert_eq!(policy.head(Knob::BigCores).output_dim(), 5);
        assert_eq!(policy.head(Knob::LittleCores).output_dim(), 4);
        assert_eq!(policy.head(Knob::BigFrequency).output_dim(), 19);
        assert_eq!(policy.head(Knob::LittleFrequency).output_dim(), 13);
        // Mutating a head changes the flat parameter vector.
        let before = policy.to_flat_parameters();
        policy
            .head_mut(Knob::BigFrequency)
            .sgd_step(&[0.1; 9], 3, 0.5);
        assert_ne!(before, policy.to_flat_parameters());
        assert_eq!(Knob::ALL.len(), 4);
    }
}
