//! `perfbench`: end-to-end benchmark of the PaRMIS search.
//!
//! ```text
//! perfbench --workload <app_seq|global_long|fleet_resume> --seed <n> --seconds <s>
//!           --trace <0|1> --store <dir>
//! ```
//!
//! Runs one workload in this process (so the process-global `gp::stats`/`moo::stats`
//! counters and `VmHWM` see no other work) and prints, as its last stdout line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off: the set-up is timed
//!   over and over for one second, then the timed part (one search, or the whole fleet)
//!   runs, and runs again while another repetition would still end within `--seconds`;
//!   medians are reported.
//! * `--trace 1` runs the timed part untraced once, the same searches once more
//!   uninterrupted with plain `Parmis::run`, then twice through the traced re-drive (see
//!   `redrive.rs`), and reports the per-layer metrics of the first traced pass. It exits
//!   non-zero, with no metrics, unless every history equals the uninterrupted one bit for
//!   bit, the traced pass counts what the uninterrupted run counted, and both traced
//!   passes count exactly the same operations.
//!
//! `--store` names a directory that must not exist yet; `fleet_resume` opens each
//! supervisor on a fresh subdirectory of it. See `README.md` for why each workload exists
//! and which end-to-end metric each per-layer metric should move.

mod clock;
mod redrive;
mod trace;
mod workload;

use parmis::framework::ParmisOutcome;
use redrive::{same_history, traced_pass, LibraryCounts};
use std::path::PathBuf;
use std::time::Instant;
use trace::Layer;
use workload::{Fixture, Measured, Res, Workload};

/// Set-ups are repeated for this long before the first repetition; `setup_s` is the
/// median of these and of the set-up of every repetition.
const SETUP_WINDOW_S: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    store: PathBuf,
}

fn parse_args() -> Res<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Res<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>").into())
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: match seed.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16)?,
            None => seed.parse()?,
        },
        seconds: value("--seconds")?.parse()?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got `{other}`").into()),
        },
        store: PathBuf::from(value("--store")?),
    })
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.store.exists() {
            return Err(format!("--store {} already exists", args.store.display()).into());
        }
        std::fs::create_dir_all(&args.store)?;
        let result = if args.trace {
            traced(&args)
        } else {
            untraced(&args)
        };
        std::fs::remove_dir_all(&args.store)?;
        result
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints the metrics as a table, then the result object as the last line.
fn report(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Res<()> {
    let mut json = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value).into());
        }
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    Ok(())
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Harrell–Davis estimate of the `p` quantile (0 < p < 1): the mean of the order
/// statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each interval
/// [(i-1)/n, i/n]. A single order statistic jumps when one slow round crosses its rank,
/// and round latencies have gaps (`global_long`'s refit rounds sit 50-400 % above the
/// rest, right around p85): over five runs of `global_long` the nearest-rank p85 spread
/// by 20 % (interquartile range over median), this estimate by 9 %.
fn harrell_davis(values: &[f64], p: f64) -> f64 {
    /// Midpoints per interval of the numerical integration.
    const STEPS: usize = 32;
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let step = 1.0 / (n * STEPS) as f64;
    // Log of the unnormalized Beta density at every midpoint; the weights are normalized
    // below, so the Beta function itself is never needed.
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|j| {
            let x = (j as f64 + 0.5) * step;
            (a - 1.0) * x.ln() + (b - 1.0) * (-x).ln_1p()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = log_density
        .chunks(STEPS)
        .map(|c| c.iter().map(|l| (l - peak).exp()).sum())
        .collect();
    let total: f64 = weights.iter().sum();
    weights.iter().zip(&sorted).map(|(w, v)| w * v).sum::<f64>() / total
}

/// Rank of the nearest-rank `p` percentile (0 < p < 100) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn print_trace_hashes(workload: Workload, ids: &[&str], outcomes: &[ParmisOutcome]) {
    for (id, outcome) in ids.iter().zip(outcomes) {
        let last = outcome.trace_hashes.last().copied().unwrap_or_default();
        println!("trace-hash {} {id} {last:#018x}", workload.name());
    }
}

/// Checks one outcome of a search configured for `iterations` evaluations.
fn check_outcome(id: &str, outcome: &ParmisOutcome, iterations: usize) -> Res<()> {
    let fail = |what: &str| -> Res<()> { Err(format!("search {id}: {what}").into()) };
    if outcome.history.len() != iterations || outcome.trace_hashes.len() != iterations {
        return fail("history does not cover the budget");
    }
    let values = outcome.front.objective_values();
    if values.is_empty() {
        return fail("empty Pareto front");
    }
    for (i, a) in values.iter().enumerate() {
        if values
            .iter()
            .enumerate()
            .any(|(j, b)| i != j && moo::dominates(b, a))
        {
            return fail("front holds a dominated point");
        }
        if !outcome.history.iter().any(|r| &r.objectives == a) {
            return fail("front point was never evaluated");
        }
    }
    Ok(())
}

/// Set-up samples of one `--trace 0` run.
struct Setups<'a> {
    args: &'a Args,
    built: usize,
    seconds: Vec<f64>,
}

impl Setups<'_> {
    /// One timed set-up, on a fresh store directory.
    fn build(&mut self) -> Res<Fixture> {
        self.built += 1;
        let store = self.args.store.join(format!("fixture-{}", self.built));
        let t = Instant::now();
        let fixture = Fixture::build(self.args.workload, self.args.seed, &store)?;
        self.seconds.push(t.elapsed().as_secs_f64());
        Ok(fixture)
    }

    /// Set-ups whose fixtures are discarded, timed for `SETUP_WINDOW_S` seconds. A set-up
    /// takes 0.4-3 ms, so a fixed few dozen would sample the host for a few milliseconds
    /// only, and one slow spell of a shared host would move the median. They run before
    /// the first search so that every seed times them in the same process state: the heap
    /// a search leaves behind depends on its seed.
    fn window(&mut self) -> Res<()> {
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < SETUP_WINDOW_S {
            self.build()?.cleanup()?;
        }
        Ok(())
    }
}

fn untraced(args: &Args) -> Res<()> {
    let started = Instant::now();
    let mut setups = Setups {
        args,
        built: 0,
        seconds: Vec::new(),
    };
    setups.window()?;
    let mut runs: Vec<Measured> = Vec::new();
    loop {
        let mut fixture = setups.build()?;
        runs.push(fixture.run_untraced()?);
        let ids: Vec<&str> = fixture.searches.iter().map(|s| s.id).collect();
        print_trace_hashes(
            args.workload,
            &ids,
            &runs.last().expect("just pushed").outcomes,
        );
        // Stop before a repetition that would end after `--seconds`.
        let last_wall = runs.last().expect("just pushed").wall.as_secs_f64();
        if started.elapsed().as_secs_f64() + last_wall > args.seconds {
            let result = summarize(args, &fixture.searches, &runs, &setups.seconds);
            fixture.cleanup()?;
            return result;
        }
        fixture.cleanup()?;
    }
}

fn summarize(
    args: &Args,
    searches: &[workload::Search],
    runs: &[Measured],
    setups: &[f64],
) -> Res<()> {
    // Every repetition runs the same configuration, so every repetition must reproduce
    // the same trajectory.
    let first = &runs[0];
    for run in &runs[1..] {
        for (a, b) in first.outcomes.iter().zip(&run.outcomes) {
            if a.trace_hashes != b.trace_hashes {
                return Err("a repeated search took a different trajectory".into());
            }
        }
    }
    for (search, outcome) in searches.iter().zip(&first.outcomes) {
        check_outcome(search.id, outcome, search.config.max_iterations)?;
    }
    let failed: u64 = runs.iter().map(|r| r.failures).sum();
    let attempted: u64 = runs
        .iter()
        .flat_map(|r| &r.outcomes)
        .map(|o| o.history.len() as u64 + 1)
        .sum();

    let walls: Vec<f64> = runs.iter().map(|r| r.wall.as_secs_f64()).collect();
    let rounds: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.rounds_ms.iter().copied())
        .collect();
    let beyond_p85 = rounds.len() - nearest_rank(rounds.len(), 85.0);
    if beyond_p85 < 10 * runs.len() {
        return Err(format!("only {beyond_p85} rounds beyond p85").into());
    }
    let phv = searches
        .iter()
        .zip(&first.outcomes)
        .map(|(s, o)| s.reference.ratio(o.front.objective_values()))
        .sum::<f64>()
        / searches.len() as f64;
    println!(
        "workload {}: {} repetition(s) of {:?} s, {} rounds ({} beyond p85), {} set-ups",
        args.workload.name(),
        runs.len(),
        walls,
        rounds.len(),
        beyond_p85,
        setups.len()
    );
    println!(
        "  {:<28} {:>16.6} ratio",
        "error_rate",
        failed as f64 / attempted as f64
    );
    report(
        failed == 0,
        attempted,
        failed,
        &[
            metric("wall_s", median(&walls), "s"),
            metric("setup_s", median(setups), "s"),
            metric("round_p50_ms", harrell_davis(&rounds, 0.50), "ms"),
            metric("round_p85_ms", harrell_davis(&rounds, 0.85), "ms"),
            metric("phv", phv, "ratio"),
            metric(
                "success_rate",
                1.0 - failed as f64 / attempted as f64,
                "ratio",
            ),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
    )
}

fn traced(args: &Args) -> Res<()> {
    let mut fixture = Fixture::build(args.workload, args.seed, &args.store.join("fixture"))?;
    let ids: Vec<&'static str> = fixture.searches.iter().map(|s| s.id).collect();

    // The workload's untraced timed part, then the same searches run uninterrupted with
    // plain `Parmis::run`: the reference the traced run must reproduce, and the baseline
    // of the supervision cost (`jobs.*`, which only `fleet_resume` pays).
    LibraryCounts::reset();
    let untraced = fixture.run_untraced()?;
    let untraced_counts = LibraryCounts::read();
    LibraryCounts::reset();
    let (reference_wall, reference) = fixture.run_uninterrupted()?;
    let reference_counts = LibraryCounts::read();
    for (id, (timed, plain)) in ids.iter().zip(untraced.outcomes.iter().zip(&reference)) {
        if !same_history(&timed.history, &plain.history) {
            return Err(format!("search {id}: timed history differs from uninterrupted").into());
        }
    }
    let fleet = untraced.fleet;
    if fleet.as_ref().is_some_and(|f| f.quarantined > 0) {
        return Err("the fleet quarantined store files".into());
    }
    print_trace_hashes(args.workload, &ids, &reference);

    let first = traced_pass(&fixture.searches)?;
    let second = traced_pass(&fixture.searches)?;
    for (id, (outcome, (history, hashes))) in ids.iter().zip(reference.iter().zip(&first.histories))
    {
        if !same_history(&outcome.history, history) || &outcome.trace_hashes != hashes {
            return Err(
                format!("search {id}: traced history differs from the untraced run").into(),
            );
        }
    }
    if first.counts.library != reference_counts {
        return Err(format!(
            "traced library counts {:?} differ from the untraced run's {:?}",
            first.counts.library, reference_counts
        )
        .into());
    }
    if first.counts != second.counts {
        return Err(format!(
            "two traced passes counted differently: {:?} vs {:?}",
            first.counts, second.counts
        )
        .into());
    }

    let wall = first.wall.as_secs_f64();
    let t = |layer| first.trace.self_time(layer).as_secs_f64();
    let other = wall - first.trace.covered().as_secs_f64();
    let c = &first.counts;
    let gflop = c.rff_flop as f64 * 1e-9;
    let fleet_count = |f: fn(&workload::FleetStats) -> u64| fleet.as_ref().map_or(0, f) as f64;
    println!(
        "workload {}: traced wall {:.3} s, untraced {:.3} s, {} spans, other {:.2} % of traced wall",
        args.workload.name(),
        wall,
        reference_wall.as_secs_f64(),
        first.trace.len(),
        100.0 * other / wall
    );
    let evaluations: u64 = reference.iter().map(|o| o.history.len() as u64).sum();
    let failed = fixture
        .searches
        .iter()
        .map(|s| s.eval_failures())
        .sum::<u64>()
        + fleet.as_ref().map_or(0, |f| f.eval_failures);
    report(
        failed == 0,
        4 * (evaluations + ids.len() as u64),
        failed,
        &[
            metric("gp.hyperopt_s", t(Layer::Hyperopt), "s"),
            metric("gp.full_fits", c.library.gp.full_fits as f64, "count"),
            metric("gp.extend_s", t(Layer::Extend), "s"),
            metric(
                "gp.incremental_updates",
                c.library.gp.incremental_updates as f64,
                "count",
            ),
            metric("gp.rff_build_s", t(Layer::RffBuild), "s"),
            metric("gp.rff_draw_s", t(Layer::RffDraw), "s"),
            metric("gp.rff_builds", c.rff_builds as f64, "count"),
            metric("gp.rff_eval_s", t(Layer::RffEval), "s"),
            metric(
                "gp.rff_products",
                c.library.gp.rff_feature_matrix_products as f64,
                "count",
            ),
            metric("gp.rff_eval_gflop", gflop, "GFLOP"),
            metric("gp.rff_eval_gflops", gflop / t(Layer::RffEval), "GFLOP/s"),
            metric("moo.nsga2_s", t(Layer::Nsga2), "s"),
            metric(
                "moo.nsga2_generations",
                c.library.moo.nsga2_generations as f64,
                "count",
            ),
            metric(
                "moo.dominance_comparisons",
                c.library.moo.dominance_comparisons as f64,
                "count",
            ),
            metric("parmis.acquisition_s", t(Layer::Acquisition), "s"),
            metric(
                "gp.predict_batches",
                c.library.gp.predict_batches as f64,
                "count",
            ),
            metric(
                "parmis.candidates_scored",
                c.candidates_scored as f64,
                "count",
            ),
            metric("parmis.evaluation_s", t(Layer::Evaluation), "s"),
            metric("parmis.evaluations", c.evaluations as f64, "count"),
            metric("parmis.sim_runs", c.sim_runs as f64, "count"),
            metric("parmis.eval_retries", c.eval_failures as f64, "count"),
            metric(
                "jobs.overhead_s",
                untraced.wall.as_secs_f64() - reference_wall.as_secs_f64(),
                "s",
            ),
            metric("jobs.segments", fleet_count(|f| f.segments as u64), "count"),
            metric(
                "jobs.replay_full_fits",
                untraced_counts.gp.full_fits as f64 - reference_counts.gp.full_fits as f64,
                "count",
            ),
            metric(
                "jobs.store_writes",
                fleet_count(|f| f.store_writes),
                "count",
            ),
            metric("jobs.store_bytes", fleet_count(|f| f.store_bytes), "bytes"),
            metric(
                "jobs.quarantined",
                fleet_count(|f| f.quarantined as u64),
                "count",
            ),
            metric("parmis.other_s", other, "s"),
            metric("trace.overhead_s", wall - reference_wall.as_secs_f64(), "s"),
        ],
    )?;
    fixture.cleanup()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_estimates_the_quantile() {
        let values: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert!((harrell_davis(&values, 0.5) - 51.0).abs() < 1e-9);
        let p85 = harrell_davis(&values, 0.85);
        assert!((85.0..88.0).contains(&p85), "{p85}");
    }
}
