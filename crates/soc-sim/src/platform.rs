//! The platform runner: executes applications under a DRM controller and reports the
//! observables the paper's evaluation uses (execution time, energy, PPW, per-epoch counters).

use crate::cluster::ClusterParams;
use crate::config::{DecisionSpace, DrmDecision};
use crate::counters::CounterSnapshot;
use crate::engine::{DecisionEntry, DecisionTable};
use crate::perf::PerfModel;
use crate::power::{PowerBreakdown, PowerModel, ThermalModel};
use crate::workload::Application;
use crate::{Result, SocError};
use fastmath::normal::LogNormalBlock;
use fastmath::Precision;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Costs of switching between DRM decisions at an epoch boundary.
///
/// Changing a cluster's frequency requires re-locking the PLL and re-settling the voltage
/// rail (hundreds of microseconds on the Exynos 5422); turning cores on or off goes through
/// the Linux hotplug path and costs milliseconds. On top of the latency, each transition can
/// charge an energy penalty (rail re-regulation, cache flush + state migration on hotplug).
/// Controllers that thrash between configurations — notably per-epoch greedy oracles that
/// ignore switching costs — pay for it here, exactly as they would on the real board.
///
/// The energy penalties default to **zero** so that platforms which predate them (and every
/// committed golden result) keep bit-identical energy totals; the newer platform presets
/// opt in with non-zero values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionModel {
    /// Time cost of changing one cluster's frequency, in milliseconds.
    pub freq_switch_ms: f64,
    /// Time cost per core brought online or taken offline, in milliseconds.
    pub hotplug_ms_per_core: f64,
    /// Energy cost of changing one cluster's frequency, in millijoules.
    pub freq_switch_energy_mj: f64,
    /// Energy cost per core brought online or taken offline, in millijoules.
    pub hotplug_energy_mj_per_core: f64,
}

impl Default for TransitionModel {
    fn default() -> Self {
        TransitionModel {
            freq_switch_ms: 0.2,
            hotplug_ms_per_core: 2.0,
            freq_switch_energy_mj: 0.0,
            hotplug_energy_mj_per_core: 0.0,
        }
    }
}

impl TransitionModel {
    /// Number of cluster-frequency changes and core on/off transitions between two decisions.
    fn switch_counts(previous: &DrmDecision, next: &DrmDecision) -> (u32, u32) {
        let freq_changes = u32::from(previous.big_freq_mhz != next.big_freq_mhz)
            + u32::from(previous.little_freq_mhz != next.little_freq_mhz);
        let core_changes = u32::from(previous.big_cores.abs_diff(next.big_cores))
            + u32::from(previous.little_cores.abs_diff(next.little_cores));
        (freq_changes, core_changes)
    }

    /// Extra wall-clock seconds incurred when switching from `previous` to `next`.
    pub fn switch_time_s(&self, previous: &DrmDecision, next: &DrmDecision) -> f64 {
        let (freq_changes, core_changes) = TransitionModel::switch_counts(previous, next);
        let ms = self.freq_switch_ms * freq_changes as f64
            + self.hotplug_ms_per_core * core_changes as f64;
        ms / 1e3
    }

    /// Extra joules drawn when switching from `previous` to `next` (zero with the default
    /// penalties).
    pub fn switch_energy_j(&self, previous: &DrmDecision, next: &DrmDecision) -> f64 {
        let (freq_changes, core_changes) = TransitionModel::switch_counts(previous, next);
        let mj = self.freq_switch_energy_mj * freq_changes as f64
            + self.hotplug_energy_mj_per_core * core_changes as f64;
        mj / 1e3
    }
}

/// Full static description of a simulated SoC: decision space plus model constants.
#[derive(Debug, Clone, PartialEq)]
pub struct SocSpec {
    decision_space: DecisionSpace,
    perf_model: PerfModel,
    power_model: PowerModel,
    transition_model: TransitionModel,
    thermal_model: ThermalModel,
    /// Relative standard deviation of the multiplicative measurement noise applied to epoch
    /// time and power (mimics sensor and run-to-run variation on the real board).
    measurement_noise: f64,
}

impl SocSpec {
    /// The Exynos-5422-like platform used throughout the reproduction.
    pub fn exynos5422() -> Self {
        SocSpec {
            decision_space: DecisionSpace::exynos5422(),
            perf_model: PerfModel::default(),
            power_model: PowerModel::default(),
            transition_model: TransitionModel::default(),
            thermal_model: ThermalModel::default(),
            measurement_noise: 0.01,
        }
    }

    /// An asymmetric big.LITTLE SoC in the style of a mid-2020s phone part: two fast
    /// out-of-order cores plus four efficiency cores, with per-cluster junction tracking,
    /// hottest-junction throttling and non-zero DVFS transition energy.
    pub fn hexa_asym() -> Self {
        SocSpec {
            decision_space: DecisionSpace::hexa_asym(),
            perf_model: PerfModel::default(),
            power_model: PowerModel {
                mem_base_power_w: 0.15,
                mem_energy_per_access_nj: 5.0,
                soc_base_power_w: 0.25,
            },
            transition_model: TransitionModel {
                freq_switch_ms: 0.15,
                hotplug_ms_per_core: 1.5,
                freq_switch_energy_mj: 0.8,
                hotplug_energy_mj_per_core: 6.0,
            },
            thermal_model: crate::thermal::ThermalModel {
                ambient_c: 25.0,
                resistance_c_per_w: 9.5,
                time_constant_s: 1.6,
                leakage_per_degree: 0.005,
                throttle_trip_c: 82.0,
                throttle_big_freq_mhz: 1400,
                per_cluster: Some(crate::thermal::PerClusterThermal::default()),
            },
            measurement_noise: 0.01,
        }
    }

    /// A wearable-class low-power SoC: one small application core plus two efficiency cores,
    /// a tiny package with a skin-temperature-driven trip point, Little-cluster throttling
    /// and comparatively expensive DVFS transitions.
    pub fn wearable() -> Self {
        SocSpec {
            decision_space: DecisionSpace::wearable(),
            perf_model: PerfModel {
                dram_latency_ns: 120.0,
                parallel_sync_overhead: 0.05,
                row_miss_fraction: 0.35,
            },
            power_model: PowerModel {
                mem_base_power_w: 0.02,
                mem_energy_per_access_nj: 4.0,
                soc_base_power_w: 0.03,
            },
            transition_model: TransitionModel {
                freq_switch_ms: 0.5,
                hotplug_ms_per_core: 3.0,
                freq_switch_energy_mj: 0.3,
                hotplug_energy_mj_per_core: 2.0,
            },
            thermal_model: crate::thermal::ThermalModel {
                ambient_c: 25.0,
                resistance_c_per_w: 45.0,
                time_constant_s: 1.2,
                leakage_per_degree: 0.006,
                throttle_trip_c: 38.0,
                throttle_big_freq_mhz: 600,
                per_cluster: Some(crate::thermal::PerClusterThermal {
                    big_resistance_c_per_w: 6.0,
                    little_resistance_c_per_w: 3.0,
                    cluster_time_constant_s: 0.3,
                    hysteresis_c: 2.0,
                    throttle_little: true,
                    throttle_little_freq_mhz: 400,
                }),
            },
            measurement_noise: 0.01,
        }
    }

    /// Builds a spec from explicit components.
    pub fn new(
        decision_space: DecisionSpace,
        perf_model: PerfModel,
        power_model: PowerModel,
        measurement_noise: f64,
    ) -> Self {
        SocSpec {
            decision_space,
            perf_model,
            power_model,
            transition_model: TransitionModel::default(),
            thermal_model: ThermalModel::default(),
            measurement_noise: measurement_noise.clamp(0.0, 0.2),
        }
    }

    /// The decision-transition cost model.
    pub fn transition_model(&self) -> &TransitionModel {
        &self.transition_model
    }

    /// The package thermal model.
    pub fn thermal_model(&self) -> &ThermalModel {
        &self.thermal_model
    }

    /// The platform's decision space.
    pub fn decision_space(&self) -> &DecisionSpace {
        &self.decision_space
    }

    /// The performance-model constants.
    pub fn perf_model(&self) -> &PerfModel {
        &self.perf_model
    }

    /// The power-model constants.
    pub fn power_model(&self) -> &PowerModel {
        &self.power_model
    }

    /// Big-cluster parameters (shorthand).
    pub fn big_cluster(&self) -> &ClusterParams {
        self.decision_space.big_cluster()
    }

    /// Little-cluster parameters (shorthand).
    pub fn little_cluster(&self) -> &ClusterParams {
        self.decision_space.little_cluster()
    }

    /// Relative standard deviation of the multiplicative measurement noise.
    pub fn measurement_noise(&self) -> f64 {
        self.measurement_noise
    }
}

/// A dynamic resource manager: observes the previous epoch's counters and selects the
/// configuration for the next epoch.
///
/// Implemented by the stock governors ([`crate::governor`]), by the learned MLP policies in
/// the `policy` crate and by the RL/IL baselines.
pub trait DrmController {
    /// Chooses the configuration for the next epoch.
    ///
    /// `counters` are the hardware counters of the epoch that just finished (zeroed for the
    /// very first decision) and `previous` is the configuration that epoch ran with.
    fn decide(&mut self, counters: &CounterSnapshot, previous: &DrmDecision) -> DrmDecision;

    /// Called once before an application starts so stateful controllers can reset.
    fn reset(&mut self) {}

    /// Short name used in reports.
    fn name(&self) -> &str {
        "controller"
    }
}

impl<T: DrmController + ?Sized> DrmController for Box<T> {
    fn decide(&mut self, counters: &CounterSnapshot, previous: &DrmDecision) -> DrmDecision {
        (**self).decide(counters, previous)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Result of one decision epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochResult {
    /// Configuration the epoch ran with.
    pub decision: DrmDecision,
    /// Wall-clock duration in seconds (after measurement noise).
    pub time_s: f64,
    /// Energy in joules (after measurement noise).
    pub energy_j: f64,
    /// Average power in watts.
    pub power_w: f64,
    /// Big-cluster rail share of `power_w`, in watts (drives the per-cluster thermal model).
    pub big_power_w: f64,
    /// Little-cluster rail share of `power_w`, in watts.
    pub little_power_w: f64,
    /// Hottest tracked junction temperature at the end of the epoch, in °C. Standalone
    /// [`Platform::run_epoch`] calls report the ambient temperature; the full application
    /// runner overwrites it with the evolving thermal trajectory.
    pub temperature_c: f64,
    /// Hardware counters observed for this epoch.
    pub counters: CounterSnapshot,
}

/// Aggregate observables of one application run: the only record of a simulator run.
///
/// The epoch loop folds them as it goes; [`Platform::run_application_traced`] additionally
/// returns the per-epoch trace, whose in-order time and energy sums equal these totals bit
/// for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunAggregates {
    /// Number of decision epochs executed.
    pub epochs: usize,
    /// Total execution time in seconds.
    pub execution_time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Total dynamic instructions executed.
    pub instructions: f64,
    /// Average power in watts.
    pub average_power_w: f64,
    /// Performance-per-watt in giga-instructions per joule.
    pub ppw: f64,
    /// Hottest junction temperature reached at any epoch boundary, in °C.
    pub peak_temperature_c: f64,
}

/// The simulated platform: runs applications epoch by epoch under a [`DrmController`].
///
/// Construction precomputes the platform's [`DecisionTable`] (per-decision cluster state,
/// validity and throttle targets) and the measurement-noise distribution, so the epoch loop
/// is pure table lookups plus the phase-dependent model math. The table is shared behind an
/// `Arc`: cloning a platform never rebuilds it.
#[derive(Debug, Clone)]
pub struct Platform {
    spec: SocSpec,
    table: Arc<DecisionTable>,
    noise_dist: Option<LogNormal>,
    precision: Precision,
}

/// The per-run measurement-noise source, resolved once per application run from the
/// platform's precision tier.
///
/// Both variants consume the dedicated noise RNG in the same per-factor order (two
/// uniforms per factor), so the fast tier's factors track the exact tier's to kernel
/// error (~1e-12 relative) instead of being an independent realization.
// The `Fast` variant carries its fixed 128-draw block inline (~1 KiB): the source is
// resolved once per application run and lives on the runner's stack, and boxing it would
// put a heap allocation on the zero-allocation streaming path the bench asserts flat.
#[allow(clippy::large_enum_variant)]
enum NoiseSource {
    /// The seed's scalar Box–Muller (`rand_distr::LogNormal`), bit-identical.
    Exact(LogNormal),
    /// Batched Box–Muller over pre-drawn uniform blocks ([`fastmath::normal`]).
    Fast(LogNormalBlock),
}

impl NoiseSource {
    #[inline]
    fn next_factor(&mut self, rng: &mut StdRng) -> f64 {
        match self {
            NoiseSource::Exact(dist) => dist.sample(rng),
            NoiseSource::Fast(stream) => stream.next_factor(rng),
        }
    }
}

impl Platform {
    /// Creates the Exynos-5422-like platform used in all experiments.
    pub fn odroid_xu3() -> Self {
        Platform::new(SocSpec::exynos5422())
    }

    /// Creates the asymmetric hexa-core platform preset ([`SocSpec::hexa_asym`]).
    pub fn hexa_asym() -> Self {
        Platform::new(SocSpec::hexa_asym())
    }

    /// Creates the wearable-class platform preset ([`SocSpec::wearable`]).
    pub fn wearable() -> Self {
        Platform::new(SocSpec::wearable())
    }

    /// Creates a platform from an explicit spec, precomputing its decision table.
    pub fn new(spec: SocSpec) -> Self {
        let table = DecisionTable::new(spec.decision_space(), spec.thermal_model());
        let noise = spec.measurement_noise;
        let noise_dist = if noise > 0.0 {
            Some(LogNormal::new(0.0, noise).expect("valid lognormal"))
        } else {
            None
        };
        Platform {
            spec,
            table: Arc::new(table),
            noise_dist,
            precision: Precision::SeedExact,
        }
    }

    /// Returns this platform running on the given math tier.
    ///
    /// [`Precision::SeedExact`] (the default) keeps the seed's scalar Box–Muller noise
    /// path, bit-identical to every committed golden. [`Precision::Fast`] swaps the
    /// per-epoch draws for [`fastmath::normal::LogNormalBlock`] batches fed by the same
    /// dedicated noise RNG — deterministic, pinned by `tests/goldens/fastmath_sim.json`,
    /// and within ~1e-12 relative of the exact factors. Cloning shares the decision
    /// table either way.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The math tier this platform runs on.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The platform's static description.
    pub fn spec(&self) -> &SocSpec {
        &self.spec
    }

    /// The platform's precomputed per-decision lookup table.
    pub fn decision_table(&self) -> &DecisionTable {
        &self.table
    }

    /// Resolves a decision to its dense table index, reproducing the seed's validation
    /// errors for decisions outside the space.
    #[inline]
    fn resolve_index(&self, decision: &DrmDecision) -> Result<usize> {
        match self.table.index_of(decision) {
            Some(index) => Ok(index),
            None => {
                // Table coverage is exactly the decision space, so validate() produces the
                // seed's error; the fallback arm guards against an (impossible) divergence.
                self.spec.decision_space().validate(decision)?;
                Err(SocError::InvalidDecision {
                    reason: format!("{decision} is valid but missing from the decision table"),
                })
            }
        }
    }

    /// Computes one epoch's result from a precomputed table entry and throughput state (no
    /// validation, no OPP scans, only phase-dependent math). Bit-identical to the seed's
    /// `run_epoch` body for every decision in the space.
    #[inline]
    fn epoch_from_entry(
        &self,
        entry: &DecisionEntry,
        phase: &crate::workload::PhaseSpec,
        throughput: &crate::perf::EpochThroughput,
    ) -> EpochResult {
        let big = self.spec.big_cluster();
        let little = self.spec.little_cluster();
        let decision = &entry.decision;
        let perf = PerfModel::run_epoch_with(throughput, decision, phase);
        let ips = if perf.time_s > 0.0 {
            phase.instructions / perf.time_s
        } else {
            0.0
        };
        let power = PowerBreakdown {
            big_w: entry.big_power_w(perf.big_utilization),
            little_w: entry.little_power_w(perf.little_utilization),
            mem_w: self.spec.power_model().memory_power(phase, ips),
            base_w: self.spec.power_model().soc_base_power_w,
        };
        let counters = CounterSnapshot::from_epoch(big, little, decision, phase, &perf, &power);
        let power_w = power.total_w();
        EpochResult {
            decision: *decision,
            time_s: perf.time_s,
            energy_j: power_w * perf.time_s,
            power_w,
            big_power_w: power.big_w,
            little_power_w: power.little_w,
            temperature_c: self.spec.thermal_model().ambient_c,
            counters,
        }
    }

    /// Runs a single epoch under `decision`, returning its result (without measurement
    /// noise; the application runner adds noise so that repeated evaluations differ slightly).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SocError::InvalidDecision`] if the decision is outside the platform's
    /// decision space.
    pub fn run_epoch(
        &self,
        decision: &DrmDecision,
        phase: &crate::workload::PhaseSpec,
    ) -> Result<EpochResult> {
        let entry = self.table.entry(self.resolve_index(decision)?);
        let throughput = self.spec.perf_model().epoch_throughput(
            self.spec.big_cluster(),
            self.spec.little_cluster(),
            &entry.decision,
            phase,
        );
        Ok(self.epoch_from_entry(entry, phase, &throughput))
    }

    /// Runs `app` end to end under `controller`, folding the aggregates without
    /// materializing per-epoch results.
    ///
    /// This is the simulation hot path: the loop performs no heap allocation per epoch —
    /// decisions resolve through the precomputed [`DecisionTable`] (including throttle
    /// capping), and only the phase-dependent performance/power math runs per epoch.
    ///
    /// `seed` controls the deterministic measurement noise; two runs with the same seed,
    /// application and controller produce identical aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SocError::InvalidDecision`] if the controller emits a configuration
    /// outside the decision space (learned policies built from knob indices cannot trigger
    /// this, but hand-written controllers can).
    pub fn run_application(
        &self,
        app: &Application,
        controller: &mut dyn DrmController,
        seed: u64,
    ) -> Result<RunAggregates> {
        self.run_epochs(app, controller, seed, None)
    }

    /// [`run_application`](Self::run_application) that also returns every epoch, in
    /// execution order. The aggregates are bit-identical to the untraced run's.
    ///
    /// # Errors
    ///
    /// As [`run_application`](Self::run_application).
    pub fn run_application_traced(
        &self,
        app: &Application,
        controller: &mut dyn DrmController,
        seed: u64,
    ) -> Result<(RunAggregates, Vec<EpochResult>)> {
        let mut trace = Vec::with_capacity(app.epoch_count());
        let aggregates = self.run_epochs(app, controller, seed, Some(&mut trace))?;
        Ok((aggregates, trace))
    }

    /// The epoch loop behind both entry points; pushes each finished epoch onto `trace`
    /// when one is given.
    fn run_epochs(
        &self,
        app: &Application,
        controller: &mut dyn DrmController,
        seed: u64,
        mut trace: Option<&mut Vec<EpochResult>>,
    ) -> Result<RunAggregates> {
        controller.reset();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let mut noise = match (self.noise_dist, self.precision) {
            (Some(dist), Precision::SeedExact) => Some(NoiseSource::Exact(dist)),
            (Some(_), Precision::Fast) => Some(NoiseSource::Fast(LogNormalBlock::new(
                self.spec.measurement_noise,
            ))),
            (None, _) => None,
        };

        let mut previous = self.spec.decision_space().initial_decision();
        let mut counters = CounterSnapshot::zeroed();
        let mut total_time = 0.0;
        let mut total_energy = 0.0;
        let mut total_instructions = 0.0;
        let thermal = *self.spec.thermal_model();
        let transition = *self.spec.transition_model();
        let mut thermal_state = thermal.initial_state();
        let mut peak_temperature_c = thermal_state.hottest_c();
        // Last (decision index, phase rates) → throughput state. Consecutive epochs almost
        // always repeat both (generators jitter only instruction counts; controllers hold
        // decisions across stretches), so the throughput derivation — the only part of the
        // epoch model that is not instruction-scaled — runs once per stretch instead of
        // once per epoch. Memoized values are the exact f64s a fresh derivation produces.
        let mut throughput_memo: Option<(usize, [f64; 5], crate::perf::EpochThroughput)> = None;
        // Last requested decision → dense index, for the same repeat-stretch reason: a hit
        // replaces even the two binary searches with one 12-byte comparison.
        let mut lookup_memo: Option<(DrmDecision, usize)> = None;

        for phase in &app.epochs {
            let requested = controller.decide(&counters, &previous);
            // Thermal throttling: while the throttle is engaged the clusters cannot exceed
            // their ceilings, regardless of what the controller asked for. The throttled
            // target of every in-space decision is precomputed; out-of-space requests fall
            // back to the slow capping path so the seed's semantics (the *capped* decision
            // is what gets validated) are preserved exactly.
            let throttling = thermal.throttles(&thermal_state);
            let mut index = match &lookup_memo {
                Some((memo_decision, memo_index)) if *memo_decision == requested => *memo_index,
                _ => match self.table.index_of(&requested) {
                    Some(index) => {
                        lookup_memo = Some((requested, index));
                        index
                    }
                    None => {
                        let capped = thermal.cap_decision(
                            throttling,
                            &requested,
                            self.spec.big_cluster(),
                            self.spec.little_cluster(),
                        );
                        // cap_decision is idempotent, so the throttle re-application below
                        // is harmless for this (error-bound) path.
                        self.resolve_index(&capped)?
                    }
                },
            };
            if throttling {
                index = self.table.entry(index).throttled_index;
            }
            let entry = self.table.entry(index);
            let decision = entry.decision;
            let rates = [
                phase.memory_refs_per_instr,
                phase.l2_miss_rate,
                phase.branch_fraction,
                phase.branch_miss_rate,
                phase.ilp_scale,
            ];
            let throughput = match &throughput_memo {
                Some((memo_index, memo_rates, memo_tp))
                    if *memo_index == index && *memo_rates == rates =>
                {
                    *memo_tp
                }
                _ => {
                    let tp = self.spec.perf_model().epoch_throughput(
                        self.spec.big_cluster(),
                        self.spec.little_cluster(),
                        &decision,
                        phase,
                    );
                    throughput_memo = Some((index, rates, tp));
                    tp
                }
            };
            let mut result = self.epoch_from_entry(entry, phase, &throughput);
            // Temperature-dependent leakage inflates the measured power.
            let leakage_scale = thermal.leakage_multiplier(thermal_state.die_c);
            result.power_w *= leakage_scale;
            result.big_power_w *= leakage_scale;
            result.little_power_w *= leakage_scale;
            // Pay the DVFS / hotplug switching latency for changing the configuration; the
            // extra time is spent at the new configuration's power level.
            let switch_s = transition.switch_time_s(&previous, &decision);
            if switch_s > 0.0 {
                result.time_s += switch_s;
            }
            if let Some(source) = &mut noise {
                let time_factor: f64 = source.next_factor(&mut rng);
                let power_factor: f64 = source.next_factor(&mut rng);
                result.time_s *= time_factor;
                result.power_w *= power_factor;
                result.big_power_w *= power_factor;
                result.little_power_w *= power_factor;
            }
            result.counters.total_chip_power_w = result.power_w;
            // Energy is computed exactly once, after every adjustment to its two factors
            // (leakage and noise scale the power, switch latency and noise stretch the
            // time). The seed recomputed `time · power` after each step and overwrote the
            // previous value, so folding the chain into one final product is bit-identical;
            // only the switch *energy* penalty sits outside the measurement-noise model.
            result.energy_j = result.time_s * result.power_w;
            let switch_j = transition.switch_energy_j(&previous, &decision);
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
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(result);
            }
        }

        let average_power_w = if total_time > 0.0 {
            total_energy / total_time
        } else {
            0.0
        };
        // PPW = throughput per watt = (instr / s) / W = instr / J; report in giga-instructions
        // per joule so the magnitudes resemble the paper's 0.4–1.2 range.
        let ppw = if total_energy > 0.0 {
            total_instructions / 1e9 / total_energy
        } else {
            0.0
        };

        Ok(RunAggregates {
            epochs: app.epoch_count(),
            execution_time_s: total_time,
            energy_j: total_energy,
            instructions: total_instructions,
            average_power_w,
            ppw,
            peak_temperature_c,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ApplicationBuilder, PhaseSpec};

    struct FixedController(DrmDecision);

    impl DrmController for FixedController {
        fn decide(&mut self, _: &CounterSnapshot, _: &DrmDecision) -> DrmDecision {
            self.0
        }

        fn name(&self) -> &str {
            "fixed"
        }
    }

    fn test_phase() -> PhaseSpec {
        PhaseSpec {
            name: "p".into(),
            instructions: 60e6,
            parallel_fraction: 0.5,
            memory_refs_per_instr: 0.25,
            l2_miss_rate: 0.04,
            branch_fraction: 0.1,
            branch_miss_rate: 0.05,
            ilp_scale: 0.85,
        }
    }

    fn test_app(epochs: usize) -> Application {
        ApplicationBuilder::new("test-app")
            .phase(test_phase(), epochs)
            .jitter(0.05)
            .build()
            .unwrap()
    }

    #[test]
    fn epoch_run_validates_decisions() {
        let platform = Platform::odroid_xu3();
        let bad = DrmDecision {
            big_cores: 9,
            little_cores: 1,
            big_freq_mhz: 1000,
            little_freq_mhz: 1000,
        };
        assert!(platform.run_epoch(&bad, &test_phase()).is_err());
    }

    #[test]
    fn run_summary_accumulates_epochs() {
        let platform = Platform::odroid_xu3();
        let app = test_app(10);
        let decision = DrmDecision {
            big_cores: 2,
            little_cores: 2,
            big_freq_mhz: 1400,
            little_freq_mhz: 1000,
        };
        let (summary, epochs) = platform
            .run_application_traced(&app, &mut FixedController(decision), 3)
            .unwrap();
        assert_eq!(summary.epochs, 10);
        assert_eq!(epochs.len(), 10);
        let sum_time: f64 = epochs.iter().map(|e| e.time_s).sum();
        let sum_energy: f64 = epochs.iter().map(|e| e.energy_j).sum();
        assert!((sum_time - summary.execution_time_s).abs() < 1e-9);
        assert!((sum_energy - summary.energy_j).abs() < 1e-9);
        assert!(summary.ppw > 0.0);
        assert!(summary.average_power_w > 0.0);
    }

    #[test]
    fn runs_are_reproducible_for_identical_seeds() {
        let platform = Platform::odroid_xu3();
        let app = test_app(8);
        let decision = DrmDecision {
            big_cores: 1,
            little_cores: 3,
            big_freq_mhz: 800,
            little_freq_mhz: 600,
        };
        let a = platform
            .run_application(&app, &mut FixedController(decision), 42)
            .unwrap();
        let b = platform
            .run_application(&app, &mut FixedController(decision), 42)
            .unwrap();
        assert_eq!(a, b);
        let c = platform
            .run_application(&app, &mut FixedController(decision), 43)
            .unwrap();
        assert_ne!(a.execution_time_s, c.execution_time_s);
        // Noise is small: within a couple of percent.
        assert!((a.execution_time_s - c.execution_time_s).abs() / a.execution_time_s < 0.05);
    }

    #[test]
    fn performance_config_dominates_powersave_in_time_but_not_energy() {
        let platform = Platform::odroid_xu3();
        let app = test_app(12);
        let space = platform.spec().decision_space().clone();
        let perf = platform
            .run_application(&app, &mut FixedController(space.performance_decision()), 1)
            .unwrap();
        let save = platform
            .run_application(&app, &mut FixedController(space.powersave_decision()), 1)
            .unwrap();
        assert!(perf.execution_time_s < save.execution_time_s);
        assert!(perf.average_power_w > save.average_power_w);
        // Energy trade-off: the fast configuration burns more joules than the frugal one on
        // this balanced workload.
        assert!(perf.energy_j > save.energy_j);
    }

    #[test]
    fn boxed_controllers_are_usable() {
        let platform = Platform::odroid_xu3();
        let app = test_app(3);
        let d = DrmDecision {
            big_cores: 0,
            little_cores: 2,
            big_freq_mhz: 200,
            little_freq_mhz: 800,
        };
        let mut boxed: Box<dyn DrmController> = Box::new(FixedController(d));
        let (_, epochs) = platform
            .run_application_traced(&app, &mut boxed, 5)
            .unwrap();
        assert_eq!(boxed.name(), "fixed");
        assert_eq!(epochs[0].decision, d);
    }

    #[test]
    fn sustained_maximum_performance_triggers_thermal_throttling() {
        // Running flat out heats the package past the trip point; later epochs must then run
        // at the throttled Big frequency even though the controller keeps requesting 2 GHz.
        // A long, power-hungry benchmark (PCA) gives the package time to heat up.
        let platform = Platform::odroid_xu3();
        let app = crate::apps::Benchmark::Pca.application();
        let space = platform.spec().decision_space().clone();
        let (_, epochs) = platform
            .run_application_traced(&app, &mut FixedController(space.performance_decision()), 0)
            .unwrap();
        let throttle_cap = platform.spec().thermal_model().throttle_big_freq_mhz;
        let first = epochs.first().unwrap();
        assert_eq!(
            first.decision.big_freq_mhz, 2000,
            "cold start runs unthrottled"
        );
        let throttled_epochs = epochs
            .iter()
            .filter(|e| e.decision.big_freq_mhz == throttle_cap)
            .count();
        assert!(
            throttled_epochs > 0,
            "sustained max-performance operation must hit thermal throttling"
        );
        // A frugal configuration never throttles.
        let (_, cool) = platform
            .run_application_traced(&app, &mut FixedController(space.powersave_decision()), 0)
            .unwrap();
        assert!(cool.iter().all(|e| e.decision.big_freq_mhz == 200));
    }

    #[test]
    fn leakage_heating_makes_late_epochs_more_expensive_than_early_ones() {
        let platform = Platform::odroid_xu3();
        let app = test_app(40);
        let space = platform.spec().decision_space().clone();
        // A warm but not throttling configuration: leakage rises with temperature, so the
        // average power of the last epochs exceeds the first epoch's.
        let decision = DrmDecision {
            big_cores: 4,
            little_cores: 4,
            big_freq_mhz: 1400,
            little_freq_mhz: 1000,
        };
        space.validate(&decision).unwrap();
        let (_, epochs) = platform
            .run_application_traced(&app, &mut FixedController(decision), 0)
            .unwrap();
        let first_power = epochs[0].power_w;
        let late_power: f64 = epochs[30..].iter().map(|e| e.power_w).sum::<f64>() / 10.0;
        assert!(
            late_power > first_power * 1.02,
            "late epochs ({late_power} W) should draw more power than the first ({first_power} W)"
        );
    }

    #[test]
    fn transition_model_charges_for_frequency_and_core_changes() {
        let model = TransitionModel::default();
        let a = DrmDecision {
            big_cores: 4,
            little_cores: 4,
            big_freq_mhz: 1000,
            little_freq_mhz: 800,
        };
        // No change: free.
        assert_eq!(model.switch_time_s(&a, &a), 0.0);
        // One frequency change.
        let b = DrmDecision {
            big_freq_mhz: 1200,
            ..a
        };
        assert!((model.switch_time_s(&a, &b) - 0.0002).abs() < 1e-12);
        // Two frequency changes plus two cores hotplugged off.
        let c = DrmDecision {
            big_cores: 2,
            big_freq_mhz: 1200,
            little_freq_mhz: 600,
            ..a
        };
        assert!((model.switch_time_s(&a, &c) - (0.0004 + 0.004)).abs() < 1e-12);
    }

    /// A controller that alternates between two very different configurations every epoch.
    struct ThrashingController {
        flip: bool,
    }

    impl DrmController for ThrashingController {
        fn decide(&mut self, _: &CounterSnapshot, _: &DrmDecision) -> DrmDecision {
            self.flip = !self.flip;
            if self.flip {
                DrmDecision {
                    big_cores: 4,
                    little_cores: 4,
                    big_freq_mhz: 2000,
                    little_freq_mhz: 1400,
                }
            } else {
                DrmDecision {
                    big_cores: 0,
                    little_cores: 1,
                    big_freq_mhz: 2000,
                    little_freq_mhz: 1400,
                }
            }
        }

        fn name(&self) -> &str {
            "thrash"
        }
    }

    #[test]
    fn configuration_thrashing_costs_time_relative_to_a_stable_controller() {
        // Compare a thrashing controller against pinning each of its two configurations on a
        // platform without measurement noise; the thrash run must be slower than the average
        // of the two pinned runs because of the hotplug penalties it keeps paying.
        let spec = SocSpec::new(
            DecisionSpace::exynos5422(),
            crate::perf::PerfModel::default(),
            crate::power::PowerModel::default(),
            0.0,
        );
        let platform = Platform::new(spec);
        let app = test_app(20);
        let thrash = platform
            .run_application(&app, &mut ThrashingController { flip: false }, 0)
            .unwrap();
        let fast = platform
            .run_application(
                &app,
                &mut FixedController(DrmDecision {
                    big_cores: 4,
                    little_cores: 4,
                    big_freq_mhz: 2000,
                    little_freq_mhz: 1400,
                }),
                0,
            )
            .unwrap();
        let small = platform
            .run_application(
                &app,
                &mut FixedController(DrmDecision {
                    big_cores: 0,
                    little_cores: 1,
                    big_freq_mhz: 2000,
                    little_freq_mhz: 1400,
                }),
                0,
            )
            .unwrap();
        let stable_mean = (fast.execution_time_s + small.execution_time_s) / 2.0;
        assert!(
            thrash.execution_time_s > stable_mean,
            "thrashing ({}) should be slower than the mean of its two pinned configurations ({})",
            thrash.execution_time_s,
            stable_mean
        );
    }

    #[test]
    fn ppw_magnitude_is_in_papers_range() {
        // The paper's Fig. 6 reports PPW roughly between 0.4 and 1.2; the simulator should
        // land in the same order of magnitude.
        let platform = Platform::odroid_xu3();
        let app = test_app(10);
        let space = platform.spec().decision_space().clone();
        for d in [space.performance_decision(), space.powersave_decision()] {
            let s = platform
                .run_application(&app, &mut FixedController(d), 2)
                .unwrap();
            assert!(
                s.ppw > 0.05 && s.ppw < 5.0,
                "ppw {} out of plausible range",
                s.ppw
            );
        }
    }
}
