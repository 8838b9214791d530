//! Workload description: phases, decision epochs and applications.
//!
//! Following DyPO and the paper's experimental setup (§V-A "Decision interval"), an
//! application is modelled as a sequence of *decision epochs*. Each epoch is a cluster of
//! macro-blocks with stable characteristics; the DRM policy observes the hardware counters of
//! the finished epoch and picks the configuration for the next one. Since the real
//! MiBench/CortexSuite profiling traces are not available, each benchmark is described by a
//! small set of [`PhaseSpec`]s (compute-bound, memory-bound, …) that are expanded into a
//! repeatable epoch sequence with deterministic jitter.

use crate::{Result, SocError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Workload characteristics of one program phase, expressed per dynamic instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Short human-readable phase name (e.g. `"sort-partition"`).
    pub name: String,
    /// Dynamic instructions executed in one epoch of this phase.
    pub instructions: f64,
    /// Fraction of the work that can run on multiple cores (Amdahl parallel fraction).
    pub parallel_fraction: f64,
    /// Data-memory accesses per instruction.
    pub memory_refs_per_instr: f64,
    /// L2 cache misses per data-memory access.
    pub l2_miss_rate: f64,
    /// Branches per instruction.
    pub branch_fraction: f64,
    /// Mispredictions per branch.
    pub branch_miss_rate: f64,
    /// Instruction-level-parallelism scale in (0, 1]: multiplies the cluster's peak IPC.
    pub ilp_scale: f64,
}

impl PhaseSpec {
    /// Validates that every characteristic lies in its physical range.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] naming the first out-of-range field.
    pub fn validate(&self) -> Result<()> {
        let checks: [(&'static str, f64, f64, f64); 7] = [
            ("instructions", self.instructions, 1.0, 1e12),
            ("parallel_fraction", self.parallel_fraction, 0.0, 1.0),
            (
                "memory_refs_per_instr",
                self.memory_refs_per_instr,
                0.0,
                1.0,
            ),
            ("l2_miss_rate", self.l2_miss_rate, 0.0, 1.0),
            ("branch_fraction", self.branch_fraction, 0.0, 1.0),
            ("branch_miss_rate", self.branch_miss_rate, 0.0, 1.0),
            ("ilp_scale", self.ilp_scale, 0.05, 1.0),
        ];
        for (name, value, lo, hi) in checks {
            if !(value.is_finite() && value >= lo && value <= hi) {
                return Err(SocError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }

    /// Returns a copy of the phase with its instruction count scaled by `factor` (used to add
    /// deterministic epoch-to-epoch jitter).
    pub fn scaled(&self, factor: f64) -> PhaseSpec {
        PhaseSpec {
            instructions: (self.instructions * factor).max(1.0),
            ..self.clone()
        }
    }
}

/// A fully expanded application: an ordered sequence of per-epoch phase specifications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    /// Benchmark name (e.g. `"qsort"`).
    pub name: Arc<str>,
    /// One [`PhaseSpec`] per decision epoch, in execution order.
    pub epochs: Vec<PhaseSpec>,
}

impl Application {
    /// Creates an application after validating every epoch.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::EmptyApplication`] for an empty epoch list and propagates
    /// [`PhaseSpec::validate`] failures.
    pub fn new(name: impl Into<Arc<str>>, epochs: Vec<PhaseSpec>) -> Result<Self> {
        let name = name.into();
        if epochs.is_empty() {
            return Err(SocError::EmptyApplication {
                name: name.to_string(),
            });
        }
        for e in &epochs {
            e.validate()?;
        }
        Ok(Application { name, epochs })
    }

    /// Number of decision epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Total dynamic instructions across all epochs.
    pub fn total_instructions(&self) -> f64 {
        self.epochs.iter().map(|e| e.instructions).sum()
    }
}

/// Builder that expands a set of phases into a deterministic epoch sequence.
///
/// The builder interleaves the phases in round-robin order, repeating the cycle `cycles`
/// times, and applies a deterministic ±`jitter` modulation to the instruction counts so that
/// consecutive epochs of the same phase are similar but not identical — mimicking the
/// epoch-to-epoch variability of the real traces.
///
/// # Examples
///
/// ```
/// use soc_sim::workload::{ApplicationBuilder, PhaseSpec};
///
/// # fn main() -> Result<(), soc_sim::SocError> {
/// let phase = PhaseSpec {
///     name: "compute".into(),
///     instructions: 50e6,
///     parallel_fraction: 0.5,
///     memory_refs_per_instr: 0.2,
///     l2_miss_rate: 0.02,
///     branch_fraction: 0.1,
///     branch_miss_rate: 0.05,
///     ilp_scale: 0.9,
/// };
/// let app = ApplicationBuilder::new("demo")
///     .phase(phase, 3)
///     .cycles(4)
///     .jitter(0.1)
///     .build()?;
/// assert_eq!(app.epoch_count(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApplicationBuilder {
    name: String,
    phases: Vec<(PhaseSpec, usize)>,
    cycles: usize,
    jitter: f64,
    seed: u64,
}

impl ApplicationBuilder {
    /// Starts a builder for an application called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ApplicationBuilder {
            name: name.into(),
            phases: Vec::new(),
            cycles: 1,
            jitter: 0.0,
            seed: 0x9e3779b97f4a7c15,
        }
    }

    /// Adds a phase that contributes `epochs_per_cycle` consecutive epochs to every cycle.
    pub fn phase(mut self, spec: PhaseSpec, epochs_per_cycle: usize) -> Self {
        self.phases.push((spec, epochs_per_cycle));
        self
    }

    /// Sets how many times the phase cycle repeats (default 1).
    pub fn cycles(mut self, cycles: usize) -> Self {
        self.cycles = cycles.max(1);
        self
    }

    /// Sets the relative instruction-count jitter in `[0, 0.5]` (default 0).
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 0.5);
        self
    }

    /// Sets the deterministic jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Expands the phases into a concrete [`Application`].
    ///
    /// # Errors
    ///
    /// Returns [`SocError::EmptyApplication`] if no phases were added (or all have zero
    /// epochs per cycle) and propagates phase validation failures.
    pub fn build(self) -> Result<Application> {
        let mut epochs = Vec::new();
        let mut hash = self.seed;
        for cycle in 0..self.cycles {
            for (spec, count) in &self.phases {
                for rep in 0..*count {
                    // SplitMix64-style deterministic pseudo-noise in [-1, 1].
                    hash = hash
                        .wrapping_add(0x9e3779b97f4a7c15)
                        .wrapping_mul(0xbf58476d1ce4e5b9)
                        ^ (cycle as u64 + 1).wrapping_mul(rep as u64 + 13);
                    let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
                    let noise = (unit * 2.0 - 1.0) * self.jitter;
                    epochs.push(spec.scaled(1.0 + noise));
                }
            }
        }
        Application::new(self.name, epochs)
    }
}

// ---------------------------------------------------------------------------------------------
// Scenario workload generators.
//
// The paper's benchmarks are steady phase cycles; real device workloads are not. These
// generators synthesize the other shapes the scenario registry needs — bursty interactive
// load, periodic sensor duty cycles, io-wait-dominated idling and multi-app interleaves —
// all with deterministic seeded jitter so every scenario is exactly reproducible.
// ---------------------------------------------------------------------------------------------

/// One SplitMix64 draw in `[0, 1)`; the deterministic noise source of the generators.
fn unit_noise(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Signed jitter factor `1 ± jitter` drawn from `state`.
fn jitter_factor(state: &mut u64, jitter: f64) -> f64 {
    1.0 + (unit_noise(state) * 2.0 - 1.0) * jitter.clamp(0.0, 0.5)
}

/// Bursty workload: long quiet stretches of `base` punctuated every `period` epochs by
/// `burst_len` epochs carrying `burst_scale`× the instructions (an interactive app servicing
/// input events). Deterministic for a given `seed`.
///
/// # Errors
///
/// Propagates [`Application::new`] validation failures (e.g. `epochs == 0`).
#[allow(clippy::too_many_arguments)] // mirrors the other generators' flat parameter style
pub fn bursty(
    name: impl Into<Arc<str>>,
    base: PhaseSpec,
    burst_scale: f64,
    period: usize,
    burst_len: usize,
    epochs: usize,
    jitter: f64,
    seed: u64,
) -> Result<Application> {
    let period = period.max(1);
    let burst_len = burst_len.min(period);
    let mut state = seed ^ 0xb529_7a4d_3f84_d5b5;
    let mut specs = Vec::with_capacity(epochs);
    for i in 0..epochs {
        let in_burst = (i % period) < burst_len;
        let scale = if in_burst { burst_scale.max(0.05) } else { 1.0 };
        let mut spec = base.scaled(scale * jitter_factor(&mut state, jitter));
        spec.name = format!("{}-{}", base.name, if in_burst { "burst" } else { "quiet" });
        specs.push(spec);
    }
    Application::new(name, specs)
}

/// Periodic workload: the instruction count of `base` is modulated by
/// `1 + depth · sin(2π · i / period)` — a sensor-fusion or media pipeline with a fixed duty
/// cycle — plus deterministic seeded jitter.
///
/// # Errors
///
/// Propagates [`Application::new`] validation failures (e.g. `epochs == 0`).
pub fn periodic(
    name: impl Into<Arc<str>>,
    base: PhaseSpec,
    period: usize,
    depth: f64,
    epochs: usize,
    jitter: f64,
    seed: u64,
) -> Result<Application> {
    let period = period.max(2);
    let depth = depth.clamp(0.0, 0.95);
    let mut state = seed ^ 0x94d0_49bb_1331_11eb;
    let mut specs = Vec::with_capacity(epochs);
    for i in 0..epochs {
        let angle = 2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64;
        let scale = 1.0 + depth * angle.sin();
        let mut spec = base.scaled(scale * jitter_factor(&mut state, jitter));
        spec.name = format!("{}-phase{}", base.name, i % period);
        specs.push(spec);
    }
    Application::new(name, specs)
}

/// Io-idle workload: each epoch is either an `active` epoch or an io-wait epoch (tiny
/// serial instruction count standing in for a core blocked on storage/radio), with the idle
/// epochs placed by a seeded coin weighted by `idle_fraction`.
///
/// # Errors
///
/// Propagates [`Application::new`] validation failures (e.g. `epochs == 0`).
pub fn io_idle(
    name: impl Into<Arc<str>>,
    active: PhaseSpec,
    idle_fraction: f64,
    epochs: usize,
    jitter: f64,
    seed: u64,
) -> Result<Application> {
    let idle_fraction = idle_fraction.clamp(0.0, 1.0);
    let idle = PhaseSpec {
        name: format!("{}-iowait", active.name),
        instructions: (active.instructions * 0.02).max(1.0),
        parallel_fraction: 0.0,
        memory_refs_per_instr: 0.05,
        l2_miss_rate: 0.01,
        branch_fraction: 0.05,
        branch_miss_rate: 0.02,
        ilp_scale: 0.3,
    };
    let mut state = seed ^ 0xd1b5_4a32_d192_ed03;
    let mut specs = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let is_idle = unit_noise(&mut state) < idle_fraction;
        let source = if is_idle { &idle } else { &active };
        let spec = source.scaled(jitter_factor(&mut state, jitter));
        specs.push(spec);
    }
    Application::new(name, specs)
}

/// Multi-app interleave: merges the epochs of several applications into one timeline,
/// preserving each application's internal epoch order and drawing the next contributor with
/// probability proportional to its remaining epochs (a seeded fair scheduler). Phase names
/// are prefixed with the contributing application so traces stay attributable.
///
/// # Errors
///
/// Returns [`SocError::EmptyApplication`] when `apps` is empty (or all empty).
pub fn interleave(
    name: impl Into<Arc<str>>,
    apps: &[Application],
    seed: u64,
) -> Result<Application> {
    let mut cursors = vec![0usize; apps.len()];
    let total: usize = apps.iter().map(Application::epoch_count).sum();
    let mut state = seed ^ 0xbf58_476d_1ce4_e5b9;
    let mut specs = Vec::with_capacity(total);
    while specs.len() < total {
        let remaining_total = total - specs.len();
        let mut draw = (unit_noise(&mut state) * remaining_total as f64) as usize;
        draw = draw.min(remaining_total - 1);
        let mut chosen = 0;
        for (idx, app) in apps.iter().enumerate() {
            let remaining = app.epoch_count() - cursors[idx];
            if draw < remaining {
                chosen = idx;
                break;
            }
            draw -= remaining;
        }
        let mut spec = apps[chosen].epochs[cursors[chosen]].clone();
        spec.name = format!("{}:{}", apps[chosen].name, spec.name);
        cursors[chosen] += 1;
        specs.push(spec);
    }
    Application::new(name, specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, instructions: f64) -> PhaseSpec {
        PhaseSpec {
            name: name.into(),
            instructions,
            parallel_fraction: 0.4,
            memory_refs_per_instr: 0.25,
            l2_miss_rate: 0.03,
            branch_fraction: 0.12,
            branch_miss_rate: 0.04,
            ilp_scale: 0.8,
        }
    }

    #[test]
    fn phase_validation_catches_out_of_range_values() {
        assert!(phase("ok", 1e6).validate().is_ok());
        let mut p = phase("bad", 1e6);
        p.parallel_fraction = 1.4;
        assert!(p.validate().is_err());
        let mut p = phase("bad", 0.0);
        p.instructions = 0.0;
        assert!(p.validate().is_err());
        let mut p = phase("bad", 1e6);
        p.ilp_scale = 0.0;
        assert!(p.validate().is_err());
        let mut p = phase("bad", 1e6);
        p.l2_miss_rate = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn application_requires_epochs() {
        assert!(matches!(
            Application::new("empty", vec![]),
            Err(SocError::EmptyApplication { .. })
        ));
        let app = Application::new("one", vec![phase("a", 2e6)]).unwrap();
        assert_eq!(app.epoch_count(), 1);
        assert_eq!(app.total_instructions(), 2e6);
    }

    #[test]
    fn builder_expands_cycles_and_phases_in_order() {
        let app = ApplicationBuilder::new("two-phase")
            .phase(phase("a", 10e6), 2)
            .phase(phase("b", 20e6), 1)
            .cycles(3)
            .build()
            .unwrap();
        assert_eq!(app.epoch_count(), 9);
        // Pattern per cycle: a, a, b.
        assert_eq!(app.epochs[0].name, "a");
        assert_eq!(app.epochs[1].name, "a");
        assert_eq!(app.epochs[2].name, "b");
        assert_eq!(app.epochs[3].name, "a");
    }

    #[test]
    fn builder_jitter_is_deterministic_and_bounded() {
        let build = || {
            ApplicationBuilder::new("jittered")
                .phase(phase("a", 100e6), 4)
                .cycles(5)
                .jitter(0.2)
                .seed(77)
                .build()
                .unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same seed must give the same application");
        for e in &a.epochs {
            assert!(e.instructions >= 80e6 - 1.0 && e.instructions <= 120e6 + 1.0);
        }
        // Jitter actually perturbs the counts.
        assert!(a
            .epochs
            .iter()
            .any(|e| (e.instructions - 100e6).abs() > 1e3));

        let c = ApplicationBuilder::new("jittered")
            .phase(phase("a", 100e6), 4)
            .cycles(5)
            .jitter(0.2)
            .seed(78)
            .build()
            .unwrap();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn builder_without_phases_fails() {
        assert!(ApplicationBuilder::new("empty").cycles(3).build().is_err());
    }

    #[test]
    fn bursty_alternates_quiet_and_burst_epochs_deterministically() {
        let build = || bursty("web", phase("ui", 20e6), 6.0, 8, 2, 40, 0.1, 9).unwrap();
        let app = build();
        assert_eq!(app, build(), "same seed must reproduce the workload");
        assert_eq!(app.epoch_count(), 40);
        let bursts: Vec<&PhaseSpec> = app
            .epochs
            .iter()
            .filter(|e| e.name.ends_with("burst"))
            .collect();
        assert_eq!(bursts.len(), 10, "2 of every 8 epochs are bursts");
        let quiet_mean = app
            .epochs
            .iter()
            .filter(|e| e.name.ends_with("quiet"))
            .map(|e| e.instructions)
            .sum::<f64>()
            / 30.0;
        let burst_mean = bursts.iter().map(|e| e.instructions).sum::<f64>() / 10.0;
        assert!(
            burst_mean > 4.0 * quiet_mean,
            "bursts ({burst_mean}) must dwarf quiet epochs ({quiet_mean})"
        );
        assert_ne!(
            app,
            bursty("web", phase("ui", 20e6), 6.0, 8, 2, 40, 0.1, 10).unwrap()
        );
    }

    #[test]
    fn periodic_modulation_cycles_with_the_requested_period() {
        let app = periodic("sensor", phase("fuse", 30e6), 10, 0.8, 30, 0.0, 3).unwrap();
        assert_eq!(app.epoch_count(), 30);
        // With zero jitter the pattern repeats exactly every period.
        for i in 0..10 {
            assert_eq!(app.epochs[i].instructions, app.epochs[i + 10].instructions);
        }
        let max = app
            .epochs
            .iter()
            .map(|e| e.instructions)
            .fold(0.0, f64::max);
        let min = app
            .epochs
            .iter()
            .map(|e| e.instructions)
            .fold(f64::INFINITY, f64::min);
        assert!(max > 2.0 * min, "depth 0.8 should swing the load heavily");
    }

    #[test]
    fn io_idle_mixes_idle_epochs_at_roughly_the_requested_rate() {
        let app = io_idle("sync", phase("copy", 50e6), 0.5, 200, 0.05, 11).unwrap();
        let idle = app
            .epochs
            .iter()
            .filter(|e| e.name.contains("iowait"))
            .count();
        assert!(
            (60..=140).contains(&idle),
            "idle fraction 0.5 should yield roughly half idle epochs, got {idle}/200"
        );
        assert_eq!(
            app,
            io_idle("sync", phase("copy", 50e6), 0.5, 200, 0.05, 11).unwrap()
        );
        // Idle epochs are serial and tiny.
        let idle_epoch = app
            .epochs
            .iter()
            .find(|e| e.name.contains("iowait"))
            .unwrap();
        assert_eq!(idle_epoch.parallel_fraction, 0.0);
        assert!(idle_epoch.instructions < 5e6);
    }

    #[test]
    fn interleave_preserves_per_app_epoch_order_and_total_work() {
        let a = Application::new(
            "a",
            vec![phase("a0", 1e6), phase("a1", 2e6), phase("a2", 3e6)],
        )
        .unwrap();
        let b = Application::new("b", vec![phase("b0", 4e6), phase("b1", 5e6)]).unwrap();
        let merged = interleave("mix", &[a.clone(), b.clone()], 5).unwrap();
        assert_eq!(merged.epoch_count(), 5);
        assert_eq!(
            merged.total_instructions(),
            a.total_instructions() + b.total_instructions()
        );
        // Per-app subsequences stay in order.
        let order_of = |prefix: &str| {
            merged
                .epochs
                .iter()
                .filter(|e| e.name.starts_with(prefix))
                .map(|e| e.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(order_of("a:"), vec!["a:a0", "a:a1", "a:a2"]);
        assert_eq!(order_of("b:"), vec!["b:b0", "b:b1"]);
        assert_eq!(merged, interleave("mix", &[a, b], 5).unwrap());
        assert!(interleave("empty", &[], 5).is_err());
    }

    #[test]
    fn scaled_preserves_other_fields() {
        let p = phase("a", 100.0);
        let s = p.scaled(0.5);
        assert_eq!(s.instructions, 50.0);
        assert_eq!(s.parallel_fraction, p.parallel_fraction);
        assert_eq!(s.name, p.name);
        // Scaling never produces non-positive instruction counts.
        assert_eq!(p.scaled(0.0).instructions, 1.0);
    }
}
