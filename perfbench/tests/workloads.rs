//! Every workload passes its output checks, untraced and traced, at the
//! pinned default seed and at another seed that changes its inputs.

use bhive_perfbench::corpus::DEFAULT_SEED;
use bhive_perfbench::{run, Report, RunSpec, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

fn spec(workload: Workload, seed: u64, trace: bool, seconds: Duration) -> RunSpec {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-tests")
        .join(format!("{}-{seed}-{trace}", workload.name()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("test scratch directory");
    RunSpec {
        workload,
        seed,
        seconds,
        trace,
        work,
    }
}

fn passing(workload: Workload, seed: u64, trace: bool) -> Report {
    passing_for(workload, seed, trace, Duration::from_millis(300))
}

fn passing_for(workload: Workload, seed: u64, trace: bool, seconds: Duration) -> Report {
    let report = run(&spec(workload, seed, trace, seconds));
    assert!(
        report.correct(),
        "{} seed {seed}: {:?}",
        workload.name(),
        report.problems
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let line = report.result_json(trace);
    let table = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        assert!(
            line.contains(&format!("\"{name}\":{{\"value\":")),
            "{name} missing"
        );
        assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
    }
    if !trace {
        for (name, _) in END_TO_END {
            assert!(report.values[name] > 0.0, "{name} must never read 0");
        }
    }
    report
}

#[test]
fn corpus_workloads_pass_at_two_seeds_with_different_inputs() {
    let mut digests = Vec::new();
    for seed in [DEFAULT_SEED, DEFAULT_SEED + 1] {
        let cold = passing(Workload::CorpusCold, seed, false);
        let warm = passing(Workload::CorpusWarm, seed, false);
        assert_eq!(cold.counts["corpus.csv_fnv"], warm.counts["corpus.csv_fnv"]);
        assert_eq!(
            cold.counts["cache.accepted_cycles"],
            warm.counts["cache.accepted_cycles"]
        );
        digests.push(cold.counts["corpus.csv_fnv"].clone());
    }
    assert_ne!(
        digests[0], digests[1],
        "another seed measures another corpus"
    );
}

#[test]
fn traced_corpus_cold_rows_account_for_the_wall() {
    let report = passing(Workload::CorpusCold, DEFAULT_SEED + 1, true);
    let v = |name: &str| report.values[name];
    let stages = [
        "asm.encode_us",
        "harness.monitor.us_per_attempt",
        "sim.prepare.us_per_attempt",
        "sim.simulate.us_per_attempt",
        "harness.trials.us_per_attempt",
        "harness.profiler.unattributed_us",
    ];
    let sum: f64 = stages.iter().map(|s| v(s)).sum();
    let total = v("harness.profiler.us_per_attempt");
    assert!(
        (sum - total).abs() <= 1e-9 * total.max(1.0),
        "{sum} vs {total}"
    );
    assert!(v("sim.simulate.passes_per_attempt") > 2.0);
    assert!(v("harness.cache.inserts") > 0.0 && v("harness.cache.gets") > 0.0);
    assert!(report.counts["replay.attempts"].parse::<u64>().unwrap() > 900);
    // The learning layer's rows ride on this workload's traced run.
    assert!(v("learn.calibrate.simulations") > 10_000.0);
    assert!(v("learn.calibrate.measure_ms") > 0.0);
}

#[test]
fn corpus_warm_traced_passes() {
    // Long enough for the embedded serve loop to reach 200 misses.
    let report = passing_for(
        Workload::CorpusWarm,
        DEFAULT_SEED + 1,
        true,
        Duration::from_secs(2),
    );
    assert_eq!(
        report.values["harness.cache.inserts"], 0.0,
        "warm runs insert nothing"
    );
    assert!(report.values["harness.cache.open_ms"] > 0.0);
    // The serving layer's rows ride on this workload's traced run.
    assert!(report.values["serve.hit_p50_us"] > 0.0);
    assert!(report.values["serve.parse_us"] > 0.0);
    assert!(
        !report.values.contains_key("harness.monitor.us_per_attempt"),
        "no block reaches the profiler"
    );
}

#[test]
fn serve_mix_passes_untraced_and_traced() {
    let report = passing(Workload::ServeMix, DEFAULT_SEED + 1, false);
    assert!(report.attempted >= 200);
    let traced = passing(Workload::ServeMix, DEFAULT_SEED + 2, true);
    assert!(traced.values["serve.miss_p95_us"] > traced.values["serve.hit_p50_us"]);
    assert_eq!(traced.values["serve.rejected"], 0.0);
}

#[test]
fn calibrate_passes_untraced_and_traced() {
    passing(Workload::Calibrate, DEFAULT_SEED, false);
    let traced = passing(Workload::Calibrate, DEFAULT_SEED, true);
    assert!(traced.values["learn.calibrate.simulations"] > 10_000.0);
    assert_eq!(traced.values["harness.monitor.faults_per_attempt"], 0.0);
}
