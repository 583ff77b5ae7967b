//! The BHive pipeline benchmark: four workloads through the library
//! calls `bhive measure`, `bhive serve` and `bhive calibrate` make, with
//! host-time end-to-end metrics, per-layer rows from a separate traced
//! run, and a correctness check on every output.
//!
//! Every time is **host** time. The simulated machine stands in for real
//! CPUs and nothing here validates it against hardware, so simulated
//! statistics serve only as exact-repeat correctness checks.

pub mod calib;
pub mod corpus;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sys;

use spans::Recorder;
use stats::share;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload in untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in traced runs. A row
/// whose layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_ms", "ms"),
    ("corpus.probe_battery_ms", "ms"),
    ("asm.encode_us", "us"),
    ("asm.hex_decode_us", "us"),
    ("harness.monitor.us_per_attempt", "us"),
    ("harness.monitor.faults_per_attempt", "count"),
    ("harness.monitor.ns_per_executed_inst", "ns"),
    ("sim.lower.hit_share", "ratio"),
    ("sim.prepare.us_per_attempt", "us"),
    ("sim.simulate.us_per_attempt", "us"),
    ("sim.simulate.passes_per_attempt", "count"),
    ("sim.simulate.ns_per_inst", "ns"),
    ("harness.trials.us_per_attempt", "us"),
    ("harness.profiler.us_per_attempt", "us"),
    ("harness.profiler.unattributed_us", "us"),
    ("harness.cache.open_ms", "ms"),
    ("harness.cache.get_ns", "ns"),
    ("harness.cache.gets", "count"),
    ("harness.cache.insert_us", "us"),
    ("harness.cache.inserts", "count"),
    ("harness.cache.log_bytes", "count"),
    ("harness.parallel.unattributed_ms", "ms"),
    ("harness.parallel.dedup_share", "ratio"),
    ("eval.write_csv_ms", "ms"),
    ("serve.hit_p50_us", "us"),
    ("serve.hit_p95_us", "us"),
    ("serve.miss_p50_us", "us"),
    ("serve.miss_p95_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.admit_ns", "ns"),
    ("serve.respond_us", "us"),
    ("serve.hit_unattributed_us", "us"),
    ("serve.miss_wait_us", "us"),
    ("serve.hit_share", "ratio"),
    ("serve.rejected", "count"),
    ("learn.calibrate.measure_ms", "ms"),
    ("learn.calibrate.fit_ms", "ms"),
    ("learn.calibrate.simulations", "count"),
    ("learn.calibrate.us_per_simulation", "us"),
    ("harness.obs.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusCold,
    CorpusWarm,
    ServeMix,
    Calibrate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CorpusCold,
        Workload::CorpusWarm,
        Workload::ServeMix,
        Workload::Calibrate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus-cold",
            Workload::CorpusWarm => "corpus-warm",
            Workload::ServeMix => "serve-mix",
            Workload::Calibrate => "calibrate",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: Duration,
    /// Traced run: per-layer rows instead of end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for caches, sockets and written spans.
    pub work: PathBuf,
}

/// Times the set-up this many times per run and reports the fastest.
pub const SETUP_REPS: usize = 5;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: passes, requests, calibrations.
    pub attempted: u64,
    /// Operations that failed: a rejected, timed-out or erroring
    /// request, or an output that failed its check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Deterministic counts: identical for every run of the same code on
    /// the same seed.
    pub counts: BTreeMap<String, String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed operation when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name, value);
    }

    pub fn count(&mut self, name: impl Into<String>, value: impl ToString) {
        self.counts.insert(name.into(), value.to_string());
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: every metric of the run's mode, by name, with
    /// its unit. Per-layer rows the workload never set read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured.
    pub fn result_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Runs `f` [`SETUP_REPS`] times, tearing down all but the last result,
/// and returns it with the steady set-up time in seconds.
pub fn timed_setup<T>(mut f: impl FnMut(usize) -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        last = Some(f(rep));
        times.push(started.elapsed().as_secs_f64());
    }
    let steady = stats::steady_time(&times).expect("at least one set-up");
    (last.expect("at least one set-up"), steady)
}

/// A fresh, empty directory.
pub fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("scratch directory is creatable");
    path.to_path_buf()
}

/// FNV-1a of the running executable, so deterministic counts are only
/// ever compared between runs of the same build.
pub fn build_id() -> u64 {
    let exe = std::env::current_exe().expect("current executable path");
    bhive_asm::fnv1a_64(&std::fs::read(exe).expect("readable executable"))
}

/// Compares `report.counts` with the counts an earlier run of the same
/// build, workload, seed and mode stored under `dir`, or stores them
/// when this is the first such run. A difference is a failed check.
pub fn repeat_counts(report: &mut Report, dir: &Path, key: &str) {
    std::fs::create_dir_all(dir).expect("counts directory is creatable");
    let path = dir.join(format!("{key}.txt"));
    let text: String = report
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let differs: Vec<&str> = previous
                .lines()
                .zip(text.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a)
                .collect();
            report.check(previous == text, || {
                format!("deterministic counts differ from an earlier run: {differs:?}")
            });
        }
        Err(_) => {
            let tmp = dir.join(format!("{key}.{}.tmp", std::process::id()));
            std::fs::write(&tmp, &text).expect("counts file is writable");
            std::fs::rename(&tmp, &path).expect("counts file is renamable");
        }
    }
}

/// Estimates what recording cost the traced run: its span count times
/// the measured cost of one span, against the traced spans' total.
pub fn trace_overhead(report: &mut Report, rec: &Recorder) {
    const PROBES: u64 = 100_000;
    let mut probe = Recorder::new();
    let started = Instant::now();
    for i in 0..PROBES {
        let id = probe.enter("probe", i);
        probe.exit(id);
    }
    let per_span_ns = started.elapsed().as_nanos() as f64 / PROBES as f64;
    let roots: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.ns() as f64)
        .sum();
    report.set(
        "trace.overhead_pct",
        100.0 * share(rec.spans().len() as f64 * per_span_ns, roots),
    );
}

/// Writes the run's spans under the scratch directory's parent, where
/// they outlive the run.
pub fn write_spans(spec: &RunSpec, rec: &Recorder) {
    let dir = spec
        .work
        .parent()
        .expect("scratch directory has a parent")
        .join("spans");
    std::fs::create_dir_all(&dir).expect("spans directory is creatable");
    let path = dir.join(format!("{}-seed{}.jsonl", spec.workload.name(), spec.seed));
    rec.write_jsonl(&path).expect("spans are writable");
}

/// Runs `workload` traced for half of `spec`'s time and copies the rows
/// `keep` selects into `report`. `serve-mix` and `calibrate` are too
/// unsteady on a shared 2-CPU host to carry a bound of their own, so
/// their layer rows ride on the traced runs of the gated workloads.
pub fn embed(spec: &RunSpec, workload: Workload, report: &mut Report, keep: fn(&str) -> bool) {
    let name = spec.work.file_name().expect("scratch directory has a name");
    let work = spec
        .work
        .with_file_name(format!("{}-{}", name.to_string_lossy(), workload.name()));
    let embedded = run(&RunSpec {
        workload,
        seconds: spec.seconds / 2,
        trace: true,
        work: fresh_dir(&work),
        ..spec.clone()
    });
    let _ = std::fs::remove_dir_all(&work);
    for (name, value) in &embedded.values {
        if keep(name) {
            report.set(name, *value);
        }
    }
    report.attempted += embedded.attempted;
    report.failed += embedded.failed;
    report.problems.extend(embedded.problems);
    report.notes.extend(embedded.notes);
    let prefix = workload.name();
    report.counts.extend(
        embedded
            .counts
            .into_iter()
            .map(|(k, v)| (format!("{prefix}.{k}"), v)),
    );
}

/// Runs one workload.
pub fn run(spec: &RunSpec) -> Report {
    match spec.workload {
        Workload::CorpusCold => corpus::cold(spec),
        Workload::CorpusWarm => corpus::warm(spec),
        Workload::ServeMix => serve::run(spec),
        Workload::Calibrate => calib::run(spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut report = Report::default();
        report.set("setup_s", 0.5);
        report.set("ops_per_s", 1234.5678);
        report.set("peak_rss_mb", 20.25);
        report.set("serve.parse_us", 1.5);
        let line = report.result_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"ops_per_s\":{\"value\":1234.5678,\"unit\":\"1/s\"}"));
        assert!(!line.contains("serve.parse_us"));
        let traced = report.result_json(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"serve.parse_us\":{\"value\":1.5,"));
        report.check(false, || "broken".into());
        assert!(report.result_json(false).contains("\"correct\":false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
