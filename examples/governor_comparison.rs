//! Governor comparison: run the four stock Linux governors plus a pinned userspace
//! configuration on every benchmark and print the resulting time/energy/PPW table — a tour of
//! the simulator substrate without any learning involved.
//!
//! ```text
//! cargo run --release --example governor_comparison
//! ```

use parmis_repro::quick_mode;
use soc_sim::apps::Benchmark;
use soc_sim::config::DrmDecision;
use soc_sim::governor::{default_governors, UserspaceGovernor};
use soc_sim::platform::Platform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::odroid_xu3();
    println!(
        "{:<14} {:<12} {:>10} {:>10} {:>9} {:>8}",
        "benchmark", "governor", "time [s]", "energy [J]", "power [W]", "PPW"
    );

    let benchmarks: &[Benchmark] = if quick_mode() {
        &Benchmark::ALL[..3]
    } else {
        &Benchmark::ALL[..]
    };
    for &benchmark in benchmarks {
        let app = benchmark.application();
        // The four kernel governors...
        for mut governor in default_governors(platform.spec()) {
            let run = platform.run_application(&app, &mut governor, 0)?;
            println!(
                "{:<14} {:<12} {:>10.2} {:>10.2} {:>9.2} {:>8.3}",
                benchmark.name(),
                governor.name(),
                run.execution_time_s,
                run.energy_j,
                run.average_power_w,
                run.ppw
            );
        }
        // ...plus a hand-picked balanced userspace configuration: two Big cores at 1.4 GHz
        // and two Little cores at 1.0 GHz.
        let mut userspace = UserspaceGovernor::new(DrmDecision {
            big_cores: 2,
            little_cores: 2,
            big_freq_mhz: 1400,
            little_freq_mhz: 1000,
        });
        let run = platform.run_application(&app, &mut userspace, 0)?;
        println!(
            "{:<14} {:<12} {:>10.2} {:>10.2} {:>9.2} {:>8.3}",
            benchmark.name(),
            "userspace",
            run.execution_time_s,
            run.energy_j,
            run.average_power_w,
            run.ppw
        );
        println!();
    }
    Ok(())
}
