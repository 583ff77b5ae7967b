//! `corpus-cold` and `corpus-warm`: the main generated corpus through
//! `MeasuredCorpus::measure_with_stats_cached` at one thread, then
//! `write_csv` — what `bhive measure --cache DIR` runs.

use crate::replay::{self, staged_rows, ReplayCounts};
use crate::spans::Recorder;
use crate::stats::{median, share, steady_rate, unattributed};
use crate::{
    embed, fresh_dir, sys, timed_setup, trace_overhead, write_spans, Report, RunSpec, Workload,
};
use bhive_asm::BasicBlock;
use bhive_corpus::{Corpus, Scale};
use bhive_eval::MeasuredCorpus;
use bhive_harness::{
    MeasurementCache, ObsConfig, ProfileConfig, ProfileStats, Profiler, Supervision,
};
use bhive_sim::Machine;
use bhive_uarch::UarchKind;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Blocks per application: ten applications give 1,000 rows, of which
/// about 3% are duplicates.
pub const SCALE_PER_APP: usize = 100;
/// The measured microarchitecture.
pub const UARCH: UarchKind = UarchKind::Haswell;
/// The seed whose CSV digest is pinned below.
pub const DEFAULT_SEED: u64 = 1;
/// FNV-1a of the measured CSV for [`DEFAULT_SEED`]. Any change to the
/// generator, the simulator or the method moves it.
pub const PINNED_CSV_FNV: u64 = 0x2b0b_5196_8306_99c3;

/// The workload's corpus for `seed`.
pub fn generate(seed: u64) -> Corpus {
    Corpus::generate(Scale::PerApp(SCALE_PER_APP), seed)
}

pub fn config() -> ProfileConfig {
    ProfileConfig::bhive()
}

/// One `bhive measure` pass.
pub struct Pass {
    pub measure_s: f64,
    pub csv_s: f64,
    pub process_cpu_s: f64,
    pub thread_cpu_s: f64,
    pub csv: Vec<u8>,
    pub stats: ProfileStats,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.measure_s + self.csv_s
    }
}

/// Measures `corpus` against the cache in `dir`, then writes the CSV.
pub fn pass(corpus: &Corpus, dir: &Path, supervision: &Supervision) -> Pass {
    let (cpu0, thread0) = (sys::process_cpu(), sys::thread_cpu());
    let started = Instant::now();
    let (measured, stats) = MeasuredCorpus::measure_with_stats_supervised(
        corpus,
        UARCH,
        &config(),
        1,
        Some(dir),
        supervision,
    );
    let measure_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut csv = Vec::new();
    measured.write_csv(&mut csv).expect("CSV writes to memory");
    let csv_s = started.elapsed().as_secs_f64();
    Pass {
        measure_s,
        csv_s,
        process_cpu_s: (sys::process_cpu() - cpu0).as_secs_f64(),
        thread_cpu_s: (sys::thread_cpu() - thread0).as_secs_f64(),
        csv,
        stats,
    }
}

/// The corpus's distinct blocks in first-seen order, with their keys.
pub fn distinct(corpus: &Corpus, profiler: &Profiler) -> Vec<(u64, BasicBlock)> {
    let mut seen = HashSet::new();
    corpus
        .basic_blocks()
        .into_iter()
        .filter_map(|block| {
            let key = profiler.content_key(&block)?;
            seen.insert(key).then_some((key, block))
        })
        .collect()
}

fn profiler() -> Profiler {
    Profiler::new(UARCH.desc(), config())
}

/// Timed passes until `spec.seconds` have gone by (at least one), and
/// the peak RSS after the first; a cold pass gets a fresh cache
/// directory from `dir_for`.
fn passes(
    spec: &RunSpec,
    corpus: &Corpus,
    dir_for: impl Fn(usize) -> std::path::PathBuf,
    cold: bool,
) -> (Vec<Pass>, f64) {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut rss_mb = 0.0;
    while out.is_empty() || started.elapsed() < spec.seconds {
        let dir = dir_for(out.len());
        if cold {
            fresh_dir(&dir);
        }
        out.push(pass(corpus, &dir, &Supervision::default()));
        if out.len() == 1 {
            rss_mb = sys::peak_rss_mb();
        }
        if cold && out.len() > 1 {
            let _ = std::fs::remove_dir_all(dir_for(out.len() - 2));
        }
    }
    (out, rss_mb)
}

/// Checks every pass wrote `expected` and resolved the same blocks the
/// same way.
fn check_passes(report: &mut Report, passes: &[Pass], expected: &[u8], label: &str) {
    report.attempted += passes.len() as u64;
    for (i, p) in passes.iter().enumerate() {
        report.check(p.csv == expected, || {
            format!("{label} pass {i}: CSV differs from the reference")
        });
        report.check(p.stats.failures == passes[0].stats.failures, || {
            format!("{label} pass {i}: failure mix differs from pass 0")
        });
    }
}

fn csv_counts(report: &mut Report, corpus: &Corpus, csv: &[u8], stats: &ProfileStats) {
    report.count("corpus.rows", corpus.len());
    report.count(
        "corpus.csv_fnv",
        format!("{:016x}", bhive_asm::fnv1a_64(csv)),
    );
    report.count(
        "corpus.csv_rows",
        csv.iter().filter(|&&b| b == b'\n').count() - 1,
    );
    for (category, n) in &stats.failures {
        report.count(format!("corpus.failures.{category}"), n);
    }
}

/// Σ accepted cycles and faults over the cache's records, and its log
/// size: what the measured blocks were, independent of how fast.
fn cache_counts(report: &mut Report, dir: &Path, keys: &[(u64, BasicBlock)]) {
    let cache = MeasurementCache::open(dir, UARCH, &config()).expect("filled cache opens");
    let (mut accepted, mut faults, mut records) = (0u64, 0u64, 0u64);
    for (key, _) in keys {
        if let Some(outcome) = cache.get(*key) {
            records += 1;
            if let Ok(m) = outcome.as_result() {
                accepted += m.hi.accepted_cycles + m.lo.accepted_cycles;
                faults += u64::from(m.faults_serviced);
            }
        }
    }
    report.count("cache.records", records);
    report.count("cache.accepted_cycles", accepted);
    report.count("cache.faults", faults);
    report.count("cache.log_bytes", log_bytes(dir));
}

fn log_bytes(dir: &Path) -> u64 {
    std::fs::metadata(MeasurementCache::log_path(dir, UARCH)).map_or(0, |m| m.len())
}

/// The pinned-digest check, for the default seed only.
fn check_pin(report: &mut Report, seed: u64, csv: &[u8]) {
    if seed == DEFAULT_SEED {
        let digest = bhive_asm::fnv1a_64(csv);
        report.check(digest == PINNED_CSV_FNV, || {
            format!("CSV digest {digest:016x} differs from the pinned {PINNED_CSV_FNV:016x}")
        });
    }
}

fn pass_notes(report: &mut Report, label: &str, passes: &[Pass], ops: impl Fn(&Pass) -> f64) {
    let wall: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let cpu: Vec<f64> = passes.iter().map(|p| p.process_cpu_s).collect();
    let thread: Vec<f64> = passes.iter().map(|p| p.thread_cpu_s).collect();
    report.note(format!(
        "{label}: {} passes, {} ops each; median wall {:.4} s, process CPU {:.4} s, driving-thread CPU {:.4} s",
        passes.len(),
        ops(&passes[0]),
        median(&wall).unwrap_or(0.0),
        median(&cpu).unwrap_or(0.0),
        median(&thread).unwrap_or(0.0),
    ));
    report.note(format!("{label} pass walls (s): {wall:.4?}"));
    report.note(format!("{label} pass cpus (s): {cpu:.4?}"));
}

/// Set-up shared by both corpus workloads: generate the corpus, then one
/// untimed-by-the-metric cold pass into `dir`, which warms the host's
/// lazy state and, for `corpus-warm`, is the filled cache.
fn setup(spec: &RunSpec, dir: &Path) -> (Corpus, Pass, Vec<f64>, f64) {
    let mut generate_ms = Vec::new();
    let ((corpus, fill), setup_s) = timed_setup(
        |_| {
            let started = Instant::now();
            let corpus = generate(spec.seed);
            generate_ms.push(started.elapsed().as_secs_f64() * 1e3);
            fresh_dir(dir);
            let fill = pass(&corpus, dir, &Supervision::default());
            (corpus, fill)
        },
        drop,
    );
    (corpus, fill, generate_ms, setup_s)
}

/// `corpus-cold`: every pass profiles the whole corpus into a fresh cache.
pub fn cold(spec: &RunSpec) -> Report {
    let mut report = Report::default();
    let fill_dir = spec.work.join("setup");
    let (corpus, fill, generate_ms, setup_s) = setup(spec, &fill_dir);
    let profiler = profiler();
    let keys = distinct(&corpus, &profiler);
    let budget = if spec.trace {
        spec.seconds / 2
    } else {
        spec.seconds
    };
    let (timed, rss_mb) = passes(
        &RunSpec {
            seconds: budget,
            ..spec.clone()
        },
        &corpus,
        |i| spec.work.join(format!("cold-{i}")),
        true,
    );
    check_passes(&mut report, &timed, &fill.csv, "cold");
    check_pin(&mut report, spec.seed, &fill.csv);

    // The last pass's cache replayed warm must give the same CSV.
    let last_dir = spec.work.join(format!("cold-{}", timed.len() - 1));
    let warm = pass(&corpus, &last_dir, &Supervision::default());
    report.attempted += 1;
    report.check(warm.csv == fill.csv, || {
        "warm replay CSV differs from cold".into()
    });
    csv_counts(&mut report, &corpus, &fill.csv, &fill.stats);
    report.count("corpus.distinct", fill.stats.unique_blocks);
    cache_counts(&mut report, &last_dir, &keys);
    pass_notes(&mut report, "corpus-cold", &timed, |p| {
        p.stats.unique_blocks as f64
    });

    let rates: Vec<f64> = timed
        .iter()
        .map(|p| p.stats.unique_blocks as f64 / p.wall_s())
        .collect();
    if spec.trace {
        traced_cold(spec, &mut report, &corpus, &keys, &timed, &generate_ms);
    } else {
        report.set("setup_s", setup_s);
        report.set("ops_per_s", steady_rate(&rates).expect("at least one pass"));
        report.set("peak_rss_mb", rss_mb);
    }
    report
}

/// The traced half of `corpus-cold`: the staged replay beside
/// `profile_with` on every distinct block, the cache calls replayed, and
/// observability on against off.
fn traced_cold(
    spec: &RunSpec,
    report: &mut Report,
    corpus: &Corpus,
    keys: &[(u64, BasicBlock)],
    timed: &[Pass],
    generate_ms: &[f64],
) {
    let profiler = profiler();
    let mut rec = Recorder::new();
    let mut counts = ReplayCounts::default();
    let mut replay_machine = Machine::new(profiler.uarch(), 0);
    let mut profile_machine = Machine::new(profiler.uarch(), 0);
    let mut outcomes = Vec::with_capacity(keys.len());
    for (i, (_, block)) in keys.iter().enumerate() {
        match replay::profile_and_replay(
            &profiler,
            block,
            &mut replay_machine,
            &mut profile_machine,
            &mut rec,
            i as u64,
            &mut counts,
        ) {
            Ok(outcome) => outcomes.push(outcome),
            Err(diff) => {
                report.check(false, || diff);
                return;
            }
        }
    }
    report.attempted += counts.attempts;

    // The cache calls the pipeline makes, in its order: open, one lookup
    // per distinct key (all misses), one insert per measured block.
    let dir = fresh_dir(&spec.work.join("traced-cache"));
    let mut cache = rec.time("harness.cache.open", 0, || {
        MeasurementCache::open(&dir, UARCH, &config()).expect("fresh cache opens")
    });
    let mut inserts = 0u64;
    for (i, ((key, _), outcome)) in keys.iter().zip(&outcomes).enumerate() {
        let hit = rec.time("harness.cache.get", i as u64, || cache.get(*key).is_some());
        report.check(!hit, || format!("block {i}: fresh cache already holds it"));
        let record: bhive_harness::CachedOutcome = outcome.clone().into();
        if !record.is_transient_failure() {
            inserts += 1;
            rec.time("harness.cache.insert", i as u64, || {
                cache.insert(*key, record)
            })
            .expect("cache insert succeeds");
        }
    }
    drop(cache);

    staged_rows(report, &rec, &counts, replay_machine.lower_stats());
    cache_rows(report, &rec, keys.len() as u64, inserts, log_bytes(&dir));
    // The pool, dedup and fan-out are what the untraced wall leaves once
    // the profiler, the cache calls and the CSV writer are taken out.
    let wall_ms = median_of(timed, Pass::wall_s) * 1e3;
    let csv_ms = median_of(timed, |p| p.csv_s) * 1e3;
    let mut attributed_ms = [
        "harness.profile_with",
        "harness.cache.open",
        "harness.cache.get",
        "harness.cache.insert",
    ]
    .map(|n| rec.total_ns(n) as f64 / 1e6)
    .to_vec();
    attributed_ms.push(csv_ms);
    report.set(
        "harness.parallel.unattributed_ms",
        unattributed(wall_ms, &attributed_ms),
    );
    report.set(
        "harness.parallel.dedup_share",
        share((corpus.len() - keys.len()) as f64, corpus.len() as f64),
    );
    report.set("eval.write_csv_ms", csv_ms);
    report.set("corpus.generate_ms", median(generate_ms).unwrap_or(0.0));
    report.set("harness.obs.overhead_pct", obs_overhead(spec, corpus));
    trace_overhead(report, &rec);
    write_spans(spec, &rec);
    account(report, timed, &rec, &counts);
    // The learning layer's rows, from calibration traced beside.
    embed(spec, Workload::Calibrate, report, |name| {
        name.starts_with("learn.") || name == "corpus.probe_battery_ms"
    });
}

/// Prints how the untraced wall splits into the traced rows.
fn account(report: &mut Report, timed: &[Pass], rec: &Recorder, counts: &ReplayCounts) {
    let wall_ms = median_of(timed, Pass::wall_s) * 1e3;
    let by_name = rec.self_by_name();
    let ms = |name: &str| by_name.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e6);
    let v = |name: &str| report.values.get(name).copied().unwrap_or(0.0);
    let attempts = counts.attempts as f64;
    let rows = [
        ("asm.encode", v("asm.encode_us") * attempts / 1e3),
        (
            "harness.monitor",
            v("harness.monitor.us_per_attempt") * attempts / 1e3,
        ),
        (
            "sim.prepare",
            v("sim.prepare.us_per_attempt") * attempts / 1e3,
        ),
        (
            "sim.simulate",
            v("sim.simulate.us_per_attempt") * attempts / 1e3,
        ),
        (
            "harness.trials",
            v("harness.trials.us_per_attempt") * attempts / 1e3,
        ),
        (
            "harness.profiler.unattributed",
            v("harness.profiler.unattributed_us") * attempts / 1e3,
        ),
        (
            "harness.cache",
            ms("harness.cache.open") + ms("harness.cache.get") + ms("harness.cache.insert"),
        ),
        (
            "harness.parallel.unattributed",
            v("harness.parallel.unattributed_ms"),
        ),
        ("eval.write_csv", v("eval.write_csv_ms")),
    ];
    let sum: f64 = rows.iter().map(|(_, ms)| ms).sum();
    report.note(format!(
        "accounting of the untraced median pass ({wall_ms:.3} ms):"
    ));
    for (name, ms) in rows {
        report.note(format!(
            "  {name:<32} {ms:>10.3} ms  {:>6.2}%",
            100.0 * share(ms, wall_ms)
        ));
    }
    report.note(format!("  {:<32} {sum:>10.3} ms", "sum of rows"));
    report.check((sum - wall_ms).abs() <= 1e-6 * wall_ms, || {
        format!("layer rows sum to {sum} ms, not the untraced {wall_ms} ms")
    });
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn cache_rows(report: &mut Report, rec: &Recorder, gets: u64, inserts: u64, log_bytes: u64) {
    let ns = |name: &str| rec.total_ns(name) as f64;
    report.set("harness.cache.open_ms", ns("harness.cache.open") / 1e6);
    report.set("harness.cache.gets", gets as f64);
    report.set(
        "harness.cache.get_ns",
        share(ns("harness.cache.get"), gets as f64),
    );
    report.set("harness.cache.inserts", inserts as f64);
    report.set(
        "harness.cache.insert_us",
        share(ns("harness.cache.insert"), inserts as f64) / 1e3,
    );
    report.set("harness.cache.log_bytes", log_bytes as f64);
}

/// Cold passes with observability on against off, interleaved and
/// alternating which goes first; the percentage the medians differ.
fn obs_overhead(spec: &RunSpec, corpus: &Corpus) -> f64 {
    const PAIRS: usize = 3;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let observed = Supervision::with_obs(ObsConfig::on());
    for i in 0..PAIRS {
        for obs_first in [i % 2 == 0, i % 2 != 0] {
            let dir = fresh_dir(&spec.work.join("obs"));
            if obs_first {
                on.push(pass(corpus, &dir, &observed).measure_s);
            } else {
                off.push(pass(corpus, &dir, &Supervision::default()).measure_s);
            }
        }
    }
    let (on, off) = (median(&on).unwrap_or(0.0), median(&off).unwrap_or(0.0));
    100.0 * (share(on, off) - 1.0)
}

/// `corpus-warm`: every pass answers the whole corpus from the cache the
/// set-up filled.
pub fn warm(spec: &RunSpec) -> Report {
    let mut report = Report::default();
    let dir = spec.work.join("filled");
    let (corpus, fill, generate_ms, setup_s) = setup(spec, &dir);
    let profiler = profiler();
    let keys = distinct(&corpus, &profiler);
    let budget = if spec.trace {
        spec.seconds / 2
    } else {
        spec.seconds
    };
    let (timed, rss_mb) = passes(
        &RunSpec {
            seconds: budget,
            ..spec.clone()
        },
        &corpus,
        |_| dir.clone(),
        false,
    );
    check_passes(&mut report, &timed, &fill.csv, "warm");
    for (i, p) in timed.iter().enumerate() {
        report.check(p.stats.threads == 0, || {
            format!("warm pass {i}: a block reached the profiler")
        });
    }
    check_pin(&mut report, spec.seed, &fill.csv);
    csv_counts(&mut report, &corpus, &fill.csv, &fill.stats);
    cache_counts(&mut report, &dir, &keys);
    pass_notes(&mut report, "corpus-warm", &timed, |_| corpus.len() as f64);

    if spec.trace {
        let mut rec = Recorder::new();
        let cache = rec.time("harness.cache.open", 0, || {
            MeasurementCache::open(&dir, UARCH, &config()).expect("filled cache opens")
        });
        for (i, (key, block)) in keys.iter().enumerate() {
            let hit = rec.time("harness.cache.get", i as u64, || cache.get(*key).is_some());
            report.check(hit, || format!("block {i}: filled cache misses it"));
            let _ = rec.time(replay::ENCODE, i as u64, || block.encode_spanned());
        }
        drop(cache);
        cache_rows(&mut report, &rec, keys.len() as u64, 0, log_bytes(&dir));
        let encode = rec.total_ns(replay::ENCODE) as f64;
        report.set("asm.encode_us", share(encode, keys.len() as f64) / 1e3);
        let wall_ms = median_of(&timed, Pass::wall_s) * 1e3;
        let csv_ms = median_of(&timed, |p| p.csv_s) * 1e3;
        let open_ms = rec.total_ns("harness.cache.open") as f64 / 1e6;
        let get_ms = rec.total_ns("harness.cache.get") as f64 / 1e6;
        report.set(
            "harness.parallel.unattributed_ms",
            unattributed(wall_ms, &[open_ms, get_ms, csv_ms]),
        );
        report.set(
            "harness.parallel.dedup_share",
            share((corpus.len() - keys.len()) as f64, corpus.len() as f64),
        );
        report.set("eval.write_csv_ms", csv_ms);
        report.set("corpus.generate_ms", median(&generate_ms).unwrap_or(0.0));
        trace_overhead(&mut report, &rec);
        write_spans(spec, &rec);
        // The serving layer's rows: the same corpus's warm cache answered
        // over `bhive serve`.
        embed(spec, Workload::ServeMix, &mut report, |name| {
            name.starts_with("serve.") || name == "asm.hex_decode_us"
        });
    } else {
        let rates: Vec<f64> = timed
            .iter()
            .map(|p| corpus.len() as f64 / p.wall_s())
            .collect();
        report.set("setup_s", setup_s);
        report.set("ops_per_s", steady_rate(&rates).expect("at least one pass"));
        report.set("peak_rss_mb", rss_mb);
    }
    report
}
