//! Release-mode wall-clock gate for the fast precision tier ([`Precision::Fast`]).
//!
//! The two structural caps the earlier engine gates document are exactly what the fast
//! tier removes:
//!
//! 1. **Acquisition** (`acq_speed_gate`): at the gate's 3-dimensional probe ~75 % of an
//!    end-to-end `ParetoFrontSampler::sample()` is `cos` over the random features (at
//!    dim 501 each `cos` comes with a 501-term dot product, which dominates instead),
//!    and bit-identity pinned those to libm on both the seed and the flat path — capping
//!    the end-to-end win near 1.1×. With the fast polynomial cosine in the flat engine,
//!    the end-to-end fast-tier `sample()` must beat the seed-exact per-point path by at
//!    least **2×**.
//! 2. **Simulation** (`sim_speed_gate`): the two Box–Muller log-normal draws per epoch
//!    are an identical RNG-stream-mandated cost on both simulation paths, compressing
//!    the noisy full-application win to ~1.4×. With the blocked fast-math noise
//!    pipeline, the fast-tier streaming run must beat the seed path on the *noisy*
//!    1000-epoch application by at least **1.5×**.
//!
//! Timing assertions are meaningless in debug builds and flake under noisy neighbours, so
//! this stays `#[ignore]`d; run it with `cargo test -q -p bench --release -- --ignored` on
//! a quiet machine.

use bench::seedpath::{self, probe_app, FixedDecisionController as FixedController};
use bench::seedpath_acq::{build_seed_samplers, probe_models, probe_sampling_config};
use fastmath::Precision;
use parmis::pareto_sampling::{AcquisitionScratch, ParetoFrontSampler};
use soc_sim::config::DrmDecision;
use soc_sim::platform::Platform;
use std::time::{Duration, Instant};

#[test]
#[ignore = "wall-clock sensitive; run in release mode on a quiet machine"]
fn fast_tier_lifts_the_cos_bound_on_end_to_end_sampling() {
    let models = probe_models();
    let config = probe_sampling_config();
    let sampler_seed = 17u64;
    let seed_samplers = build_seed_samplers(&models, config.rff_features, sampler_seed);
    let fast = ParetoFrontSampler::new_with_precision(
        &models,
        3.0,
        config.clone(),
        sampler_seed,
        Precision::Fast,
    )
    .expect("valid sampler");
    let mut scratch = AcquisitionScratch::default();
    // Warm both paths; agreement is covered by the accuracy suites, not re-checked here
    // (the tiers are *not* bit-identical by design).
    std::hint::black_box(seedpath_acq_sample(&seed_samplers, &config, 1_000_000));
    fast.sample_with(&mut scratch, 1_000_000)
        .expect("valid sample");

    // Interleaved min-of-batches: the minimum over several short batches discards noisy
    // neighbour interference on both sides symmetrically.
    let (batches, reps) = (4u64, 4u64);
    let mut seed_time = Duration::MAX;
    let mut fast_time = Duration::MAX;
    for batch in 0..batches {
        let start = Instant::now();
        for s in 0..reps {
            std::hint::black_box(seedpath_acq_sample(
                &seed_samplers,
                &config,
                batch * reps + s,
            ));
        }
        seed_time = seed_time.min(start.elapsed());
        let start = Instant::now();
        for s in 0..reps {
            std::hint::black_box(
                fast.sample_with(&mut scratch, batch * reps + s)
                    .expect("valid sample"),
            );
        }
        fast_time = fast_time.min(start.elapsed());
    }
    let ratio = seed_time.as_secs_f64() / fast_time.as_secs_f64();
    assert!(
        fast_time.as_secs_f64() * 2.0 <= seed_time.as_secs_f64(),
        "expected >= 2x from the fast tier on an end-to-end 2-objective, 200-feature, \
         40-pop/30-gen sample(): fast {fast_time:?}, seed-exact {seed_time:?} ({ratio:.2}x)"
    );
    println!("fastmath gate: end-to-end sample() {ratio:.2}x (>= 2x)");
}

fn seedpath_acq_sample(
    samplers: &[gp::RffSampler],
    config: &parmis::pareto_sampling::ParetoSamplingConfig,
    seed: u64,
) -> bench::seedpath_acq::SeedFrontSample {
    bench::seedpath_acq::sample_front_seed(samplers, 3.0, config, seed)
}

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
