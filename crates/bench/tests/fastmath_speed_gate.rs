//! Release-mode wall-clock gate for the fast precision tier ([`Precision::Fast`]) on the
//! simulator.
//!
//! The two Box–Muller log-normal draws per epoch are an identical RNG-stream-mandated cost
//! on both simulation paths (`sim_speed_gate`), compressing the noisy full-application win
//! to ~1.4×. With the blocked fast-math noise pipeline, the fast-tier streaming run must
//! beat the seed path on the *noisy* 1000-epoch application by at least **1.5×**.
//!
//! Front sampling has no gate here: its fast tier is the search's default, and `perfbench`
//! measures it end to end (`moo.nsga2_s` and `gp.rff_eval_s` in a traced run).
//!
//! Timing assertions are meaningless in debug builds and flake under noisy neighbours, so
//! this stays `#[ignore]`d; run it with `cargo test -q -p bench --release -- --ignored` on
//! a quiet machine.

use bench::seedpath::{self, probe_app, FixedDecisionController as FixedController};
use fastmath::Precision;
use soc_sim::config::DrmDecision;
use soc_sim::platform::Platform;
use std::time::{Duration, Instant};

#[test]
#[ignore = "wall-clock sensitive; run in release mode on a quiet machine"]
fn fast_tier_lifts_the_noise_bound_on_the_noisy_full_application() {
    // The default Odroid platform keeps its measurement noise (0.01), so both paths pay
    // the per-epoch noise pipeline — the cost the fast tier is built to cut.
    let exact = Platform::odroid_xu3();
    let fast = Platform::odroid_xu3().with_precision(Precision::Fast);
    let app = probe_app(1000);
    let decision = DrmDecision {
        big_cores: 4,
        little_cores: 4,
        big_freq_mhz: 1800,
        little_freq_mhz: 1200,
    };

    // Warm both paths.
    let mut controller = FixedController(decision);
    std::hint::black_box(seedpath::run_application_seed(&exact, &app, &mut controller, 7).unwrap());
    std::hint::black_box(fast.run_application(&app, &mut controller, 7).unwrap());

    let (batches, reps) = (5u32, 4u32);
    let mut seed_time = Duration::MAX;
    let mut fast_time = Duration::MAX;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..reps {
            let mut controller = FixedController(decision);
            std::hint::black_box(
                seedpath::run_application_seed(&exact, &app, &mut controller, 7).unwrap(),
            );
        }
        seed_time = seed_time.min(start.elapsed());
        let start = Instant::now();
        for _ in 0..reps {
            let mut controller = FixedController(decision);
            std::hint::black_box(fast.run_application(&app, &mut controller, 7).unwrap());
        }
        fast_time = fast_time.min(start.elapsed());
    }
    let ratio = seed_time.as_secs_f64() / fast_time.as_secs_f64();
    assert!(
        fast_time.as_secs_f64() * 1.5 <= seed_time.as_secs_f64(),
        "expected >= 1.5x from the fast tier on the noisy 1000-epoch application: fast \
         {fast_time:?}, seed path {seed_time:?} ({ratio:.2}x)"
    );
    println!("fastmath gate: noisy full application {ratio:.2}x (>= 1.5x)");
}
