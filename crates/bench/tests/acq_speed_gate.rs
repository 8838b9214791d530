//! Release-mode wall-clock gate for the flat-buffer batched acquisition engine.
//!
//! Two contracts on the shared probe shape (2 objectives, 200 random features,
//! 40-individual population, 30 generations):
//!
//! 1. The NSGA-II evolution machinery the rewrite replaced — population storage, sorting,
//!    crowding, selection, variation — must be at least **2×** faster on the flat engine
//!    than on the preserved seed loop.
//! 2. End-to-end, a warm-scratch `ParetoFrontSampler::sample_with` must beat the seed
//!    per-point path outright.
//!
//! The end-to-end ratio is structurally capped well below the machinery ratio: at this
//! 3-dimensional probe ~75 % of a `sample()` is `cos` evaluations of the random features
//! (at dim 501 each `cos` comes with a 501-term dot product, which dominates instead), and
//! bit-identity (the `acq_equivalence` contract) pins those to the exact same scalar
//! operations on both paths — the same situation as the simulation engine's Box–Muller
//! noise draws, which were an identical cost on both simulation paths. The engine's full
//! win therefore shows where the model is cheap relative to the evolution, and as
//! allocation-freedom (see `allocation_contracts.rs`) everywhere else.
//!
//! Timing assertions are meaningless in debug builds and flake under noisy neighbours, so
//! this stays `#[ignore]`d; run it with `cargo test -q -p bench --release -- --ignored` on
//! a quiet machine.

use bench::seedpath_acq::{
    self, build_seed_samplers, probe_models, probe_sampling_config, sample_front_seed,
};
use moo::nsga2::{Nsga2, Nsga2Engine};
use parmis::pareto_sampling::{AcquisitionScratch, ParetoFrontSampler};
use std::time::Instant;

#[test]
#[ignore = "wall-clock sensitive; run in release mode on a quiet machine"]
fn acquisition_sampling_doubles_throughput() {
    // --- contract 1: the evolution machinery, isolated by a near-free objective --------
    // The shared probe is [`seedpath_acq::probe_machinery_problem`]. The seed interface
    // forces one `Vec<f64>` per evaluated point; the batched callback writes straight into
    // the flat objective block — each path pays exactly the cost its interface imposes.
    let (lower, upper, nsga_config) = seedpath_acq::probe_machinery_problem();
    let solver = Nsga2::new(lower.clone(), upper.clone(), nsga_config.clone()).unwrap();
    let mut engine = Nsga2Engine::new();
    engine.solve(&solver, 2, seedpath_acq::probe_machinery_eval_flat);

    // Interleaved min-of-batches: the minimum over several short batches discards noisy
    // neighbour interference on both sides symmetrically, which a single long loop cannot.
    let (batches, reps) = (6u32, 5u32);
    let mut seed_machinery = std::time::Duration::MAX;
    let mut flat_machinery = std::time::Duration::MAX;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(seedpath_acq::nsga2_run_seed(
                &lower,
                &upper,
                &nsga_config,
                seedpath_acq::probe_machinery_eval,
            ));
        }
        seed_machinery = seed_machinery.min(start.elapsed());
        let start = Instant::now();
        for _ in 0..reps {
            engine.solve(&solver, 2, seedpath_acq::probe_machinery_eval_flat);
            std::hint::black_box(engine.objectives());
        }
        flat_machinery = flat_machinery.min(start.elapsed());
    }
    assert!(
        flat_machinery.as_secs_f64() * 2.0 <= seed_machinery.as_secs_f64(),
        "expected >= 2x speedup from the flat engine on the 2-objective, 40-pop/30-gen \
         evolution machinery: flat {flat_machinery:?}, seed {seed_machinery:?} ({:.2}x)",
        seed_machinery.as_secs_f64() / flat_machinery.as_secs_f64()
    );

    // --- contract 2: end-to-end sample() on the full probe problem ----------------------
    let models = probe_models();
    let config = probe_sampling_config();
    let sampler_seed = 17u64;
    let samplers = build_seed_samplers(&models, config.rff_features, sampler_seed);
    let sampler =
        ParetoFrontSampler::new(&models, 3.0, config.clone(), sampler_seed).expect("valid sampler");
    let mut scratch = AcquisitionScratch::default();

    // Warm both paths, and check the comparison is honest: same front, bit for bit,
    // before any timing.
    let warm_seed = 1_000_000u64;
    let seed_sample = sample_front_seed(&samplers, 3.0, &config, warm_seed);
    let flat_sample = sampler
        .sample_with(&mut scratch, warm_seed)
        .expect("valid sample");
    assert_eq!(seed_sample.front, flat_sample.front);
    assert_eq!(
        seed_sample.per_objective_best,
        flat_sample.per_objective_best
    );

    let (batches, reps) = (4u64, 4u64);
    let mut seed_time = std::time::Duration::MAX;
    let mut flat_time = std::time::Duration::MAX;
    for batch in 0..batches {
        let start = Instant::now();
        for s in 0..reps {
            std::hint::black_box(sample_front_seed(&samplers, 3.0, &config, batch * reps + s));
        }
        seed_time = seed_time.min(start.elapsed());
        let start = Instant::now();
        for s in 0..reps {
            std::hint::black_box(
                sampler
                    .sample_with(&mut scratch, batch * reps + s)
                    .expect("valid sample"),
            );
        }
        flat_time = flat_time.min(start.elapsed());
    }
    let end_to_end = seed_time.as_secs_f64() / flat_time.as_secs_f64();
    assert!(
        flat_time.as_secs_f64() * 1.1 <= seed_time.as_secs_f64(),
        "the flat path must beat the seed path end-to-end on a 2-objective, 200-feature, \
         40-pop/30-gen sample: flat {flat_time:?}, seed {seed_time:?} ({end_to_end:.2}x)"
    );
    println!(
        "acquisition gate: machinery {:.2}x (>= 2x), end-to-end sample() {end_to_end:.2}x \
         (cos-bound; see module docs)",
        seed_machinery.as_secs_f64() / flat_machinery.as_secs_f64()
    );
}
