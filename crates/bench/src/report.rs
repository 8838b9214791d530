//! Plain-text and JSON reporting helpers for the figure/table binaries.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Prints a header line for an experiment, mirroring the figure/table it reproduces.
pub fn print_header(experiment: &str, description: &str) {
    println!("==================================================================");
    println!("{experiment}: {description}");
    println!("==================================================================");
}

/// Prints a two-column series (e.g. PHV vs. iteration) with a short label.
pub fn print_series(label: &str, x_name: &str, y_name: &str, series: &[(f64, f64)]) {
    println!("-- {label} ({x_name} vs {y_name})");
    for (x, y) in series {
        println!("{label},{x:.4},{y:.6}");
    }
}

/// Prints the parallelism context of a run (effective worker threads and PaRMIS batch
/// size), so a logged run is attributable to a machine shape. Results themselves are
/// thread-count invariant.
pub fn print_run_context(threads: usize, batch: usize) {
    println!("run context: threads={threads} batch={batch}");
}

/// Prints a labelled table of rows, comma separated, with a header row.
pub fn print_table(label: &str, columns: &[&str], rows: &[Vec<String>]) {
    println!("-- {label}");
    println!("{}", columns.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Writes `data` as pretty JSON into `$PARMIS_RESULTS_DIR/<name>.json` when the environment
/// variable is set; silently does nothing otherwise. Errors are reported on stderr but never
/// abort the experiment.
pub fn write_json<T: Serialize>(name: &str, data: &T) {
    let Ok(dir) = std::env::var("PARMIS_RESULTS_DIR") else {
        return;
    };
    let path = PathBuf::from(dir).join(format!("{name}.json"));
    match serde_json::to_string_pretty(data) {
        Ok(json) => {
            if let Some(parent) = path.parent() {
                let _ = fs::create_dir_all(parent);
            }
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Formats a floating-point value with a sensible number of digits for tables.
pub fn fmt(value: f64) -> String {
    if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_switches_precision_with_magnitude() {
        assert_eq!(fmt(1234.5678), "1234.6");
        assert_eq!(fmt(12.34567), "12.346");
        assert_eq!(fmt(0.123456), "0.1235");
    }

    #[test]
    fn write_json_respects_env_var() {
        let dir = std::env::temp_dir().join("parmis-report-test");
        std::env::set_var("PARMIS_RESULTS_DIR", &dir);
        write_json("unit-test", &vec![1, 2, 3]);
        let path = dir.join("unit-test.json");
        assert!(path.exists());
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        std::env::remove_var("PARMIS_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
