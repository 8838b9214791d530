//! Design objectives.
//!
//! The paper evaluates three objectives — execution time, energy and performance-per-watt
//! (PPW) — and stresses that PaRMIS accepts *any* objective set because it only needs the
//! scalar value of each objective for a finished run (§V-A "Design objectives", §V-E). All
//! objectives are converted to minimization internally; PPW (which users want to maximize) is
//! negated.

use serde::{Deserialize, Serialize};
use soc_sim::platform::RunAggregates;

/// A design objective extracted from a finished application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Total execution time in seconds (minimized).
    ExecutionTime,
    /// Total energy in joules (minimized).
    Energy,
    /// Performance per watt (maximized; stored negated so every objective is minimized).
    PerformancePerWatt,
    /// Average power in watts (minimized). Not used by the paper's headline results but
    /// handy for ablations and examples.
    AveragePower,
    /// Peak junction temperature in °C (minimized). Pairs with execution time for
    /// thermal-aware scenario optimization, where staying cool is itself a design goal.
    PeakTemperature,
}

impl Objective {
    /// Objective pairs used by the paper's two main experiment families.
    pub const TIME_ENERGY: [Objective; 2] = [Objective::ExecutionTime, Objective::Energy];
    /// Execution time and PPW, the "complex objective" experiment of §V-E.
    pub const TIME_PPW: [Objective; 2] = [Objective::ExecutionTime, Objective::PerformancePerWatt];
    /// Execution time and peak temperature, the thermal-aware scenario trade-off.
    pub const TIME_PEAK_TEMP: [Objective; 2] =
        [Objective::ExecutionTime, Objective::PeakTemperature];

    /// Short name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::ExecutionTime => "execution_time_s",
            Objective::Energy => "energy_j",
            Objective::PerformancePerWatt => "ppw",
            Objective::AveragePower => "average_power_w",
            Objective::PeakTemperature => "peak_temperature_c",
        }
    }

    /// Extracts the minimization value of this objective from a finished run.
    pub fn value_from(&self, run: &RunAggregates) -> f64 {
        match self {
            Objective::ExecutionTime => run.execution_time_s,
            Objective::Energy => run.energy_j,
            Objective::PerformancePerWatt => -run.ppw,
            Objective::AveragePower => run.average_power_w,
            Objective::PeakTemperature => run.peak_temperature_c,
        }
    }

    /// Converts an internal minimization value back to the natural reporting scale
    /// (i.e. undoes the negation applied to maximized objectives).
    pub fn to_reporting_value(&self, minimization_value: f64) -> f64 {
        match self {
            Objective::PerformancePerWatt => -minimization_value,
            _ => minimization_value,
        }
    }

    /// `true` if users naturally maximize this objective.
    pub fn is_maximized(&self) -> bool {
        matches!(self, Objective::PerformancePerWatt)
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Extracts the full minimization objective vector for a run.
pub fn objective_vector(objectives: &[Objective], run: &RunAggregates) -> Vec<f64> {
    objectives.iter().map(|o| o.value_from(run)).collect()
}

/// Converts a minimization objective vector back to reporting scale, element by element.
pub fn reporting_vector(objectives: &[Objective], minimization: &[f64]) -> Vec<f64> {
    objectives
        .iter()
        .zip(minimization)
        .map(|(o, v)| o.to_reporting_value(*v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RunAggregates {
        RunAggregates {
            epochs: 0,
            execution_time_s: 2.0,
            energy_j: 5.0,
            instructions: 4e9,
            average_power_w: 2.5,
            ppw: 0.8,
            peak_temperature_c: 61.5,
        }
    }

    #[test]
    fn extraction_matches_summary_fields() {
        let s = summary();
        assert_eq!(Objective::ExecutionTime.value_from(&s), 2.0);
        assert_eq!(Objective::Energy.value_from(&s), 5.0);
        assert_eq!(Objective::PerformancePerWatt.value_from(&s), -0.8);
        assert_eq!(Objective::AveragePower.value_from(&s), 2.5);
        assert_eq!(Objective::PeakTemperature.value_from(&s), 61.5);
        assert!(!Objective::PeakTemperature.is_maximized());
        assert_eq!(
            objective_vector(&Objective::TIME_PEAK_TEMP, &s),
            vec![2.0, 61.5]
        );
    }

    #[test]
    fn ppw_roundtrips_through_reporting_conversion() {
        let s = summary();
        let min_value = Objective::PerformancePerWatt.value_from(&s);
        assert_eq!(
            Objective::PerformancePerWatt.to_reporting_value(min_value),
            0.8
        );
        assert!(Objective::PerformancePerWatt.is_maximized());
        assert!(!Objective::Energy.is_maximized());
    }

    #[test]
    fn vectors_follow_objective_order() {
        let s = summary();
        let v = objective_vector(&Objective::TIME_PPW, &s);
        assert_eq!(v, vec![2.0, -0.8]);
        let r = reporting_vector(&Objective::TIME_PPW, &v);
        assert_eq!(r, vec![2.0, 0.8]);
        let v = objective_vector(&Objective::TIME_ENERGY, &s);
        assert_eq!(v, vec![2.0, 5.0]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Objective::ExecutionTime.to_string(), "execution_time_s");
        assert_eq!(Objective::PerformancePerWatt.name(), "ppw");
    }
}
