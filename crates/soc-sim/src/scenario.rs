//! Scenarios: named (platform, workload, constraints) triples and their registry.
//!
//! The paper evaluates its learned DRM policies across many benchmarks on one board. This
//! module makes "which platform, running what, under which limits" a first-class, enumerable
//! and serializable axis: a [`Scenario`] names a [`PlatformPreset`], a [`WorkloadSpec`]
//! (either a paper benchmark or one of the synthetic [`crate::workload`] generators) and a
//! set of [`ScenarioConstraints`] (thermal / power / deadline limits with a penalty weight).
//!
//! The [`registry`] enumerates the stock scenarios every change to the simulator, governors
//! or optimizers is regression-tested against (`tests/scenario_matrix.rs` snapshots each of
//! them under every stock governor). Scenarios round-trip losslessly through JSON via
//! [`Scenario::to_json`] / [`Scenario::from_json`], so external scenario files can be loaded
//! by the bench harness with `--scenario`.
//!
//! # Adding a scenario
//!
//! Append a [`Scenario`] to [`registry`] (give it a unique kebab-case name), then regenerate
//! the golden matrix with `UPDATE_GOLDENS=1 cargo test --test scenario_matrix` and commit
//! both the code and the refreshed goldens.

use crate::apps::Benchmark;
use crate::platform::{Platform, RunAggregates, SocSpec};
use crate::workload::{self, Application, PhaseSpec};
use crate::{Result, SocError};
use fastmath::Precision;
use serde::{Deserialize, Serialize};

/// A named, fully static platform definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformPreset {
    /// The Exynos-5422-like Odroid-XU3 board of the paper (4 Big + 4 Little).
    OdroidXu3,
    /// Asymmetric phone-class hexa-core (2 Big + 4 Little) with per-cluster thermal
    /// tracking and non-zero DVFS switch energy ([`SocSpec::hexa_asym`]).
    HexaAsym,
    /// Wearable-class low-power SoC (1 + 2 cores) with a skin-temperature trip point
    /// ([`SocSpec::wearable`]).
    Wearable,
}

impl PlatformPreset {
    /// Every preset, in registry order.
    pub const ALL: [PlatformPreset; 3] = [
        PlatformPreset::OdroidXu3,
        PlatformPreset::HexaAsym,
        PlatformPreset::Wearable,
    ];

    /// Stable lower-case name used in reports and scenario files.
    pub fn name(&self) -> &'static str {
        match self {
            PlatformPreset::OdroidXu3 => "odroid-xu3",
            PlatformPreset::HexaAsym => "hexa-asym",
            PlatformPreset::Wearable => "wearable",
        }
    }

    /// Looks a preset up by its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<PlatformPreset> {
        PlatformPreset::ALL
            .iter()
            .copied()
            .find(|p| p.name() == name)
    }

    /// The full static SoC description of this preset.
    pub fn spec(&self) -> SocSpec {
        match self {
            PlatformPreset::OdroidXu3 => SocSpec::exynos5422(),
            PlatformPreset::HexaAsym => SocSpec::hexa_asym(),
            PlatformPreset::Wearable => SocSpec::wearable(),
        }
    }

    /// A runnable platform built from this preset.
    pub fn platform(&self) -> Platform {
        Platform::new(self.spec())
    }
}

impl std::fmt::Display for PlatformPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which generator a [`WorkloadSpec`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The named paper benchmark, verbatim ([`Benchmark::application`]).
    Benchmark,
    /// Bursty interactive load derived from the benchmark's lead phase
    /// ([`workload::bursty`]; `intensity` = burst scale).
    Bursty,
    /// Periodic duty-cycled load ([`workload::periodic`]; `intensity` = modulation depth).
    Periodic,
    /// Io-wait-dominated load ([`workload::io_idle`]; `intensity` = idle fraction).
    IoIdle,
    /// Deterministic multi-app interleave of all named benchmarks
    /// ([`workload::interleave`]).
    Interleave,
}

/// Serializable description of a scenario's workload.
///
/// The same struct covers every generator; fields a generator does not use are ignored (and
/// conventionally zero). `benchmarks` holds [`Benchmark::name`]s: one entry for everything
/// except [`WorkloadKind::Interleave`], which takes two or more.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Which generator to run.
    pub kind: WorkloadKind,
    /// Source benchmark name(s).
    pub benchmarks: Vec<String>,
    /// Epoch count for the synthetic generators (ignored for `Benchmark`/`Interleave`).
    pub epochs: usize,
    /// Period in epochs for `Bursty` (burst spacing) and `Periodic` (duty cycle).
    pub period: usize,
    /// Generator-specific intensity: burst scale, modulation depth or idle fraction.
    pub intensity: f64,
    /// Relative instruction-count jitter in `[0, 0.5]`.
    pub jitter: f64,
    /// Seed of the deterministic generator noise.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The named paper benchmark, verbatim.
    pub fn benchmark(benchmark: Benchmark) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::Benchmark,
            benchmarks: vec![benchmark.name().to_string()],
            epochs: 0,
            period: 0,
            intensity: 0.0,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Bursty load built from `benchmark`'s lead phase.
    pub fn bursty(
        benchmark: Benchmark,
        burst_scale: f64,
        period: usize,
        epochs: usize,
        seed: u64,
    ) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::Bursty,
            benchmarks: vec![benchmark.name().to_string()],
            epochs,
            period,
            intensity: burst_scale,
            jitter: 0.08,
            seed,
        }
    }

    /// Periodic duty-cycled load built from `benchmark`'s lead phase.
    pub fn periodic(
        benchmark: Benchmark,
        depth: f64,
        period: usize,
        epochs: usize,
        seed: u64,
    ) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::Periodic,
            benchmarks: vec![benchmark.name().to_string()],
            epochs,
            period,
            intensity: depth,
            jitter: 0.05,
            seed,
        }
    }

    /// Io-wait-dominated load built from `benchmark`'s lead phase.
    pub fn io_idle(benchmark: Benchmark, idle_fraction: f64, epochs: usize, seed: u64) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::IoIdle,
            benchmarks: vec![benchmark.name().to_string()],
            epochs,
            period: 0,
            intensity: idle_fraction,
            jitter: 0.06,
            seed,
        }
    }

    /// Deterministic interleave of several benchmarks.
    pub fn interleave(benchmarks: &[Benchmark], seed: u64) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::Interleave,
            benchmarks: benchmarks.iter().map(|b| b.name().to_string()).collect(),
            epochs: 0,
            period: 0,
            intensity: 0.0,
            jitter: 0.0,
            seed,
        }
    }

    fn resolve(&self, index: usize) -> Result<Benchmark> {
        let name = self
            .benchmarks
            .get(index)
            .ok_or_else(|| SocError::Scenario {
                reason: format!(
                    "workload needs at least {} benchmark name(s), got {}",
                    index + 1,
                    self.benchmarks.len()
                ),
            })?;
        Benchmark::from_name(name).ok_or_else(|| SocError::Scenario {
            reason: format!("unknown benchmark `{name}`"),
        })
    }

    /// The lead phase of the first named benchmark — the seed material for the generators.
    fn base_phase(&self) -> Result<PhaseSpec> {
        let app = self.resolve(0)?.application();
        Ok(app.epochs[0].clone())
    }

    /// Checks the generator parameters a loaded spec might carry out of range, so a
    /// misconfigured JSON file fails loudly instead of silently degenerating (e.g. a zero
    /// bursty period would make *every* epoch a burst).
    fn validate_generator_params(&self) -> Result<()> {
        let fail = |reason: String| Err(SocError::Scenario { reason });
        if !self.intensity.is_finite() || !self.jitter.is_finite() {
            return fail(format!(
                "intensity ({}) and jitter ({}) must be finite",
                self.intensity, self.jitter
            ));
        }
        match self.kind {
            WorkloadKind::Bursty if self.period < 2 => {
                fail(format!("bursty needs period >= 2, got {}", self.period))
            }
            WorkloadKind::Periodic if self.period < 2 => {
                fail(format!("periodic needs period >= 2, got {}", self.period))
            }
            _ => Ok(()),
        }
    }

    /// Expands the spec into a concrete [`Application`].
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Scenario`] for unknown benchmark names or out-of-range generator
    /// parameters, and propagates generator validation failures.
    pub fn build(&self) -> Result<Application> {
        self.validate_generator_params()?;
        match self.kind {
            WorkloadKind::Benchmark => Ok(self.resolve(0)?.application()),
            WorkloadKind::Bursty => workload::bursty(
                self.workload_name(),
                self.base_phase()?,
                self.intensity,
                self.period,
                (self.period / 4).max(1),
                self.epochs,
                self.jitter,
                self.seed,
            ),
            WorkloadKind::Periodic => workload::periodic(
                self.workload_name(),
                self.base_phase()?,
                self.period,
                self.intensity,
                self.epochs,
                self.jitter,
                self.seed,
            ),
            WorkloadKind::IoIdle => workload::io_idle(
                self.workload_name(),
                self.base_phase()?,
                self.intensity,
                self.epochs,
                self.jitter,
                self.seed,
            ),
            WorkloadKind::Interleave => {
                if self.benchmarks.len() < 2 {
                    return Err(SocError::Scenario {
                        reason: "interleave needs at least two benchmarks".into(),
                    });
                }
                let apps = (0..self.benchmarks.len())
                    .map(|i| self.resolve(i).map(|b| b.application()))
                    .collect::<Result<Vec<_>>>()?;
                workload::interleave(self.workload_name(), &apps, self.seed)
            }
        }
    }

    /// Human-readable name of the generated application.
    fn workload_name(&self) -> String {
        let prefix = match self.kind {
            WorkloadKind::Benchmark => "bench",
            WorkloadKind::Bursty => "bursty",
            WorkloadKind::Periodic => "periodic",
            WorkloadKind::IoIdle => "io-idle",
            WorkloadKind::Interleave => "interleave",
        };
        format!("{prefix}-{}", self.benchmarks.join("+"))
    }
}

/// Run-level limits a scenario imposes, each optional.
///
/// Violations are reported as a single scalar penalty: the sum of the *relative* overshoots
/// of every active limit, scaled by `penalty_weight`. The `parmis` evaluators add this
/// penalty to every objective, steering the search away from configurations that break the
/// scenario's constraints without hard-rejecting them (Algorithm 1 only needs objective
/// values).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConstraints {
    /// Peak junction temperature limit in °C.
    pub thermal_limit_c: Option<f64>,
    /// Average power budget in watts.
    pub power_budget_w: Option<f64>,
    /// Execution-time deadline in seconds.
    pub deadline_s: Option<f64>,
    /// Multiplier applied to the summed relative violations.
    pub penalty_weight: f64,
}

impl Default for ScenarioConstraints {
    fn default() -> Self {
        ScenarioConstraints::unconstrained()
    }
}

impl ScenarioConstraints {
    /// No limits: the penalty is always zero.
    pub fn unconstrained() -> Self {
        ScenarioConstraints {
            thermal_limit_c: None,
            power_budget_w: None,
            deadline_s: None,
            penalty_weight: 1.0,
        }
    }

    /// Only a peak-temperature limit.
    pub fn thermal(limit_c: f64, penalty_weight: f64) -> Self {
        ScenarioConstraints {
            thermal_limit_c: Some(limit_c),
            penalty_weight,
            ..ScenarioConstraints::unconstrained()
        }
    }

    /// Summed relative violation of every active limit, scaled by the penalty weight
    /// (zero when the run satisfies the scenario).
    pub fn penalty(&self, run: &RunAggregates) -> f64 {
        let overshoot = |value: f64, limit: Option<f64>| match limit {
            Some(limit) if limit > 0.0 => ((value - limit) / limit).max(0.0),
            _ => 0.0,
        };
        self.penalty_weight
            * (overshoot(run.peak_temperature_c, self.thermal_limit_c)
                + overshoot(run.average_power_w, self.power_budget_w)
                + overshoot(run.execution_time_s, self.deadline_s))
    }

    /// `true` when the run violates none of the limits.
    ///
    /// Checks the raw limits directly — deliberately independent of `penalty_weight`, so a
    /// zero (or even negative) weight cannot make a violating run look compliant.
    pub fn is_satisfied(&self, run: &RunAggregates) -> bool {
        let within = |value: f64, limit: Option<f64>| limit.map_or(true, |limit| value <= limit);
        within(run.peak_temperature_c, self.thermal_limit_c)
            && within(run.average_power_w, self.power_budget_w)
            && within(run.execution_time_s, self.deadline_s)
    }
}

/// A named (platform, workload, constraints) triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique kebab-case identifier (`--scenario` argument, golden-file key).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Which platform the scenario runs on.
    pub platform: PlatformPreset,
    /// What the platform runs.
    pub workload: WorkloadSpec,
    /// Which limits apply.
    pub constraints: ScenarioConstraints,
    /// Which math tier this scenario's platform runs on (`None` = consumer default,
    /// [`Precision::SeedExact`]). Optional so pre-precision scenario JSON still parses.
    pub precision: Option<Precision>,
}

impl Scenario {
    /// A runnable platform for this scenario, on the scenario's pinned precision tier
    /// (or [`Precision::SeedExact`] when the scenario does not pin one).
    pub fn platform(&self) -> Platform {
        self.platform
            .platform()
            .with_precision(self.precision.unwrap_or_default())
    }

    /// The concrete application this scenario runs.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadSpec::build`] failures.
    pub fn application(&self) -> Result<Application> {
        self.workload.build()
    }

    /// Pretty-printed JSON form of the scenario.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario fields are always finite")
    }

    /// Parses a scenario from JSON text (the inverse of [`to_json`](Self::to_json)).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Scenario`] for malformed JSON, a shape mismatch, or constraints
    /// that could not bind: a `penalty_weight` that is negative or not finite, or a limit
    /// that is not finite and positive. A negative weight turns violations into rewards,
    /// and [`ScenarioConstraints::penalty`] treats a zero limit as no limit.
    pub fn from_json(text: &str) -> Result<Self> {
        let scenario: Scenario = serde_json::from_str(text).map_err(|e| SocError::Scenario {
            reason: e.to_string(),
        })?;
        let c = &scenario.constraints;
        let invalid = |what: &str, value: f64| SocError::Scenario {
            reason: format!("{what} = {value} would switch the constraint off"),
        };
        if !(c.penalty_weight.is_finite() && c.penalty_weight >= 0.0) {
            return Err(invalid("penalty_weight", c.penalty_weight));
        }
        for (name, limit) in [
            ("thermal_limit_c", c.thermal_limit_c),
            ("power_budget_w", c.power_budget_w),
            ("deadline_s", c.deadline_s),
        ] {
            match limit {
                Some(limit) if !(limit.is_finite() && limit > 0.0) => {
                    return Err(invalid(name, limit))
                }
                _ => {}
            }
        }
        Ok(scenario)
    }
}

/// Builds the stock scenario registry (14 scenarios spanning all three platform presets and
/// all five workload kinds).
pub fn registry() -> Vec<Scenario> {
    let scenario = |name: &str,
                    description: &str,
                    platform: PlatformPreset,
                    workload: WorkloadSpec,
                    constraints: ScenarioConstraints| Scenario {
        name: name.to_string(),
        description: description.to_string(),
        platform,
        workload,
        constraints,
        precision: None,
    };
    vec![
        scenario(
            "odroid-qsort-baseline",
            "The paper's headline single-app setup: qsort on the Odroid-XU3",
            PlatformPreset::OdroidXu3,
            WorkloadSpec::benchmark(Benchmark::Qsort),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "odroid-dijkstra-memory",
            "Memory-latency-bound pointer chasing on the Odroid-XU3",
            PlatformPreset::OdroidXu3,
            WorkloadSpec::benchmark(Benchmark::Dijkstra),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "odroid-pca-thermal",
            "Sustained data-parallel PCA against an 80 C junction limit",
            PlatformPreset::OdroidXu3,
            WorkloadSpec::benchmark(Benchmark::Pca),
            ScenarioConstraints::thermal(80.0, 4.0),
        ),
        scenario(
            "odroid-bursty-web",
            "Interactive bursty load (qsort-derived) on the Odroid-XU3",
            PlatformPreset::OdroidXu3,
            WorkloadSpec::bursty(Benchmark::Qsort, 6.0, 10, 60, 21),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "odroid-periodic-media",
            "Duty-cycled media pipeline (motionest-derived) on the Odroid-XU3",
            PlatformPreset::OdroidXu3,
            WorkloadSpec::periodic(Benchmark::MotionEst, 0.7, 12, 60, 22),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "odroid-io-idle-sync",
            "Io-wait-dominated background sync (sha-derived) on the Odroid-XU3",
            PlatformPreset::OdroidXu3,
            WorkloadSpec::io_idle(Benchmark::Sha, 0.55, 60, 23),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "odroid-multiapp-mix",
            "Three-app interleave (qsort + kmeans + sha) on the Odroid-XU3",
            PlatformPreset::OdroidXu3,
            WorkloadSpec::interleave(&[Benchmark::Qsort, Benchmark::Kmeans, Benchmark::Sha], 24),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "hexa-kmeans-parallel",
            "Data-parallel kmeans on the asymmetric hexa-core",
            PlatformPreset::HexaAsym,
            WorkloadSpec::benchmark(Benchmark::Kmeans),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "hexa-spectral-thermal",
            "Dense linear algebra against the hexa-core's 82 C hottest-junction trip",
            PlatformPreset::HexaAsym,
            WorkloadSpec::benchmark(Benchmark::Spectral),
            ScenarioConstraints::thermal(82.0, 4.0),
        ),
        scenario(
            "hexa-bursty-app-switch",
            "Bursty foreground/background app switching on the hexa-core",
            PlatformPreset::HexaAsym,
            WorkloadSpec::bursty(Benchmark::Fft, 5.0, 8, 64, 25),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "hexa-multiapp-deadline",
            "Two-app interleave (fft + aes) with a soft deadline on the hexa-core",
            PlatformPreset::HexaAsym,
            WorkloadSpec::interleave(&[Benchmark::Fft, Benchmark::Aes], 26),
            ScenarioConstraints {
                deadline_s: Some(8.0),
                penalty_weight: 2.0,
                ..ScenarioConstraints::unconstrained()
            },
        ),
        scenario(
            "wearable-sensor-periodic",
            "Periodic sensor fusion (basicmath-derived) on the wearable",
            PlatformPreset::Wearable,
            WorkloadSpec::periodic(Benchmark::Basicmath, 0.8, 10, 80, 27),
            ScenarioConstraints {
                power_budget_w: Some(0.25),
                penalty_weight: 2.0,
                ..ScenarioConstraints::unconstrained()
            },
        ),
        scenario(
            "wearable-io-idle-radio",
            "Radio-bound io-idle trickle (stringsearch-derived) on the wearable",
            PlatformPreset::Wearable,
            WorkloadSpec::io_idle(Benchmark::StringSearch, 0.7, 80, 28),
            ScenarioConstraints::unconstrained(),
        ),
        scenario(
            "wearable-crypto-skin-temp",
            "Sustained crypto (sha) against the wearable's 38 C skin-temperature limit",
            PlatformPreset::Wearable,
            WorkloadSpec::benchmark(Benchmark::Sha),
            ScenarioConstraints::thermal(38.0, 4.0),
        ),
    ]
}

/// Names of every registered scenario, in registry order.
pub fn names() -> Vec<String> {
    registry().into_iter().map(|s| s.name).collect()
}

/// Looks a registered scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_twelve_unique_buildable_scenarios() {
        let all = registry();
        assert!(all.len() >= 12, "only {} scenarios registered", all.len());
        let names: std::collections::HashSet<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "scenario names must be unique");
        for s in &all {
            let app = s.application().unwrap_or_else(|e| {
                panic!("scenario {} failed to build its workload: {e}", s.name)
            });
            assert!(app.epoch_count() >= 5, "{}: workload too short", s.name);
            let platform = s.platform();
            assert!(!platform.spec().decision_space().is_empty());
            assert_eq!(by_name(&s.name).as_ref(), Some(s));
        }
        // All presets and workload kinds are exercised.
        for preset in PlatformPreset::ALL {
            assert!(all.iter().any(|s| s.platform == preset), "{preset} unused");
        }
        for kind in [
            WorkloadKind::Benchmark,
            WorkloadKind::Bursty,
            WorkloadKind::Periodic,
            WorkloadKind::IoIdle,
            WorkloadKind::Interleave,
        ] {
            assert!(all.iter().any(|s| s.workload.kind == kind));
        }
        assert_eq!(super::names().len(), all.len());
        assert!(by_name("not-a-scenario").is_none());
    }

    #[test]
    fn scenarios_round_trip_through_json() {
        for s in registry() {
            let json = s.to_json();
            let back = Scenario::from_json(&json)
                .unwrap_or_else(|e| panic!("{} failed to re-parse: {e}", s.name));
            assert_eq!(back, s, "lossless round-trip for {}", s.name);
        }
        assert!(Scenario::from_json("{").is_err());
        assert!(Scenario::from_json("{\"name\":\"x\"}").is_err());

        // A scenario file cannot switch its own constraints off: a negative weight would
        // reward violations, and a zero limit is no limit.
        let thermal = by_name("odroid-pca-thermal").unwrap();
        let mut negative = thermal.clone();
        negative.constraints.penalty_weight = -4.0;
        assert!(matches!(
            Scenario::from_json(&negative.to_json()),
            Err(SocError::Scenario { .. })
        ));
        let mut zero_limit = thermal.clone();
        zero_limit.constraints.thermal_limit_c = Some(0.0);
        assert!(matches!(
            Scenario::from_json(&zero_limit.to_json()),
            Err(SocError::Scenario { .. })
        ));
        // A zero weight stays legal.
        let mut zero_weight = thermal;
        zero_weight.constraints.penalty_weight = 0.0;
        assert_eq!(
            Scenario::from_json(&zero_weight.to_json()).unwrap(),
            zero_weight
        );
    }

    #[test]
    fn backend_selection_round_trips_and_legacy_json_stays_parseable() {
        for tier in Precision::ALL {
            assert_eq!(Precision::from_name(tier.name()), Some(tier));
            assert_eq!(tier.to_string(), tier.name());
        }
        assert_eq!(Precision::from_name("exactish"), None);

        // The registry default pins no precision tier; pinned or absent, the tier survives
        // the JSON round trip.
        let pristine = by_name("odroid-qsort-baseline").unwrap();
        assert_eq!(pristine.precision, None);
        for precision in [None, Some(Precision::SeedExact), Some(Precision::Fast)] {
            let mut s = pristine.clone();
            s.precision = precision;
            let back = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(back, s, "round trip for {precision:?}");
        }

        // A pinned precision reaches the scenario's platform; absent means SeedExact.
        assert_eq!(pristine.platform().precision(), Precision::SeedExact);
        let mut fast = pristine.clone();
        fast.precision = Some(Precision::Fast);
        assert_eq!(fast.platform().precision(), Precision::Fast);

        // Files written before the precision axis existed have no `precision` key and
        // parse as unpinned.
        let mut legacy = serde_json::from_str_value(&pristine.to_json()).unwrap();
        let serde::Value::Object(fields) = &mut legacy else {
            panic!("scenario JSON is an object");
        };
        let before = fields.len();
        fields.retain(|(k, _)| k != "precision");
        assert_eq!(fields.len(), before - 1);
        let legacy = <Scenario as serde::Deserialize>::from_json_value(&legacy)
            .unwrap_or_else(|e| panic!("legacy JSON without `precision` must parse: {e}"));
        assert_eq!(legacy, pristine);

        // Files written while a scenario could pin an evaluation backend carry a `backend`
        // key. Unknown keys are ignored, so a file with any backend selection it ever held
        // (or README's kebab-case spelling) parses back to the scenario it was written from.
        let json = pristine.to_json();
        for backend in [
            "null",
            "\"AnalyticSim\"",
            "\"TraceReplay\"",
            "\"FaultInject\"",
            "\"trace-replay\"",
        ] {
            let pinned = format!("{{\"backend\": {backend},{}", &json[1..]);
            let back = Scenario::from_json(&pinned)
                .unwrap_or_else(|e| panic!("JSON with backend {backend} must parse: {e}"));
            assert_eq!(back, pristine, "JSON with backend {backend}");
        }
    }

    #[test]
    fn constraint_penalties_scale_with_relative_overshoot() {
        let mut run = RunAggregates {
            epochs: 0,
            execution_time_s: 10.0,
            energy_j: 20.0,
            instructions: 10e9,
            average_power_w: 2.0,
            ppw: 0.5,
            peak_temperature_c: 90.0,
        };
        let free = ScenarioConstraints::unconstrained();
        assert_eq!(free.penalty(&run), 0.0);
        assert!(free.is_satisfied(&run));

        let thermal = ScenarioConstraints::thermal(80.0, 4.0);
        assert!((thermal.penalty(&run) - 4.0 * (10.0 / 80.0)).abs() < 1e-12);
        assert!(!thermal.is_satisfied(&run));
        run.peak_temperature_c = 75.0;
        assert!(thermal.is_satisfied(&run));

        let tight = ScenarioConstraints {
            power_budget_w: Some(1.0),
            deadline_s: Some(5.0),
            penalty_weight: 1.0,
            thermal_limit_c: None,
        };
        // power overshoot (2-1)/1 = 1, deadline overshoot (10-5)/5 = 1.
        assert!((tight.penalty(&run) - 2.0).abs() < 1e-12);

        // A zero penalty weight silences the penalty but must NOT make a violating run
        // look compliant: is_satisfied checks the raw limits.
        run.peak_temperature_c = 100.0;
        let muted = ScenarioConstraints {
            penalty_weight: 0.0,
            ..ScenarioConstraints::thermal(80.0, 4.0)
        };
        assert_eq!(muted.penalty(&run), 0.0);
        assert!(!muted.is_satisfied(&run));
    }

    #[test]
    fn platform_presets_resolve_by_name() {
        for p in PlatformPreset::ALL {
            assert_eq!(PlatformPreset::from_name(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(PlatformPreset::from_name("nope"), None);
        // The preset decision spaces have the documented sizes.
        assert_eq!(
            PlatformPreset::OdroidXu3.spec().decision_space().len(),
            4940
        );
        assert_eq!(PlatformPreset::HexaAsym.spec().decision_space().len(), 3600);
        assert_eq!(PlatformPreset::Wearable.spec().decision_space().len(), 216);
    }

    #[test]
    fn workload_spec_errors_are_descriptive() {
        let mut spec = WorkloadSpec::benchmark(Benchmark::Qsort);
        spec.benchmarks[0] = "not-a-benchmark".into();
        let err = spec.build().unwrap_err();
        assert!(err.to_string().contains("not-a-benchmark"), "{err}");

        let empty = WorkloadSpec {
            benchmarks: Vec::new(),
            ..WorkloadSpec::benchmark(Benchmark::Qsort)
        };
        assert!(empty.build().is_err());

        let mut pair = WorkloadSpec::interleave(&[Benchmark::Fft, Benchmark::Aes], 1);
        pair.benchmarks.pop();
        let err = pair.build().unwrap_err();
        assert!(err.to_string().contains("two benchmarks"), "{err}");

        // Degenerate generator parameters from a loaded file fail loudly rather than
        // silently producing an all-burst / aperiodic workload.
        let mut zero_period = WorkloadSpec::bursty(Benchmark::Qsort, 6.0, 0, 24, 1);
        let err = zero_period.build().unwrap_err();
        assert!(err.to_string().contains("period"), "{err}");
        zero_period.kind = WorkloadKind::Periodic;
        assert!(zero_period.build().is_err());
        let mut nan_intensity = WorkloadSpec::io_idle(Benchmark::Sha, f64::NAN, 24, 1);
        let err = nan_intensity.build().unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        nan_intensity.intensity = 0.5;
        assert!(nan_intensity.build().is_ok());
    }
}
