//! `calibrate`: `bhive calibrate` on Ivy Bridge, Haswell and Skylake
//! with the full probe battery, no cache, one thread. Its inputs are a
//! pure function of the microarchitecture, so the seed does not change
//! them.

use crate::replay::{self, staged_rows, ReplayCounts};
use crate::spans::Recorder;
use crate::stats::{median, share, steady_rate, unattributed};
use crate::{timed_setup, trace_overhead, write_spans, Report, RunSpec};
use bhive_asm::BasicBlock;
use bhive_corpus::probe_battery;
use bhive_harness::{profile_corpus_supervised, Profiler, Supervision};
use bhive_learn::calibrate::{calib_config, calibrate, CalibrationOptions, CalibrationReport};
use bhive_sim::{LowerStats, Machine};
use bhive_uarch::UarchKind;
use std::time::Instant;

pub const UARCHES: [UarchKind; 3] = [UarchKind::IvyBridge, UarchKind::Haswell, UarchKind::Skylake];

fn options() -> CalibrationOptions {
    CalibrationOptions {
        threads: 1,
        ..CalibrationOptions::default()
    }
}

/// The probe blocks of each microarchitecture's battery.
fn batteries() -> Vec<Vec<BasicBlock>> {
    UARCHES
        .iter()
        .map(|u| {
            probe_battery(u.desc().supports_avx2, false)
                .probes
                .into_iter()
                .map(|p| p.block)
                .collect()
        })
        .collect()
}

/// One calibration of every microarchitecture: the reports, their
/// bytes, and the wall time of each.
struct Pass {
    reports: Vec<CalibrationReport>,
    json: Vec<String>,
    seconds: Vec<f64>,
    process_cpu_s: f64,
}

fn pass() -> Pass {
    let cpu0 = crate::sys::process_cpu();
    let mut out = Pass {
        reports: Vec::new(),
        json: Vec::new(),
        seconds: Vec::new(),
        process_cpu_s: 0.0,
    };
    for u in UARCHES {
        let started = Instant::now();
        let report = calibrate(u.desc(), &options())
            .expect("uncached calibration cannot fail")
            .report;
        out.seconds.push(started.elapsed().as_secs_f64());
        out.json.push(report.to_json());
        out.reports.push(report);
    }
    out.process_cpu_s = (crate::sys::process_cpu() - cpu0).as_secs_f64();
    out
}

pub fn run(spec: &RunSpec) -> Report {
    let mut report = Report::default();
    let mut battery_ms = Vec::new();
    let ((blocks, reference), setup_s) = timed_setup(
        |_| {
            let started = Instant::now();
            let blocks = batteries();
            battery_ms.push(started.elapsed().as_secs_f64() * 1e3);
            // The warm-up calibration is also the reference the timed
            // passes must repeat byte for byte.
            (blocks, pass())
        },
        drop,
    );
    for ((u, r), json) in UARCHES.iter().zip(&reference.reports).zip(&reference.json) {
        report.check(r.drift_count == 0, || {
            format!("{u:?}: {} entries drifted", r.drift_count)
        });
        report.count(
            format!("calibrate.{}.simulations", u.short_name()),
            r.simulations,
        );
        report.count(
            format!("calibrate.{}.measured_probes", u.short_name()),
            r.measured_probes,
        );
        report.count(
            format!("calibrate.{}.failed_probes", u.short_name()),
            r.failed_probes,
        );
        report.count(format!("calibrate.{}.drift", u.short_name()), r.drift_count);
        report.count(
            format!("calibrate.{}.report_fnv", u.short_name()),
            format!("{:016x}", bhive_asm::fnv1a_64(json.as_bytes())),
        );
    }
    let probes: usize = reference.reports.iter().map(|r| r.probe_count).sum();

    let budget = if spec.trace {
        spec.seconds / 2
    } else {
        spec.seconds
    };
    let started = Instant::now();
    let mut timed = Vec::new();
    let mut rss_mb = 0.0;
    while timed.is_empty() || started.elapsed() < budget {
        let p = pass();
        if timed.is_empty() {
            rss_mb = crate::sys::peak_rss_mb();
        }
        report.attempted += 1;
        report.check(p.json == reference.json, || {
            format!(
                "calibration pass {}: report bytes differ from the set-up's",
                timed.len()
            )
        });
        timed.push(p);
    }
    let walls: Vec<f64> = timed.iter().map(|p| p.seconds.iter().sum()).collect();
    let cpu: Vec<f64> = timed.iter().map(|p| p.process_cpu_s).collect();
    report.note(format!(
        "calibrate: {} passes of {probes} probes; median wall {:.4} s, process CPU {:.4} s",
        timed.len(),
        median(&walls).unwrap_or(0.0),
        median(&cpu).unwrap_or(0.0),
    ));
    report.note(format!("calibrate pass cpus (s): {cpu:.4?}"));
    for (i, u) in UARCHES.iter().enumerate() {
        let times: Vec<f64> = timed.iter().map(|p| p.seconds[i]).collect();
        report.note(format!(
            "calibrate {} walls (s): {times:.4?}",
            u.short_name()
        ));
    }

    if spec.trace {
        traced(spec, &mut report, &blocks, &timed, &reference, &battery_ms);
    } else {
        let rates: Vec<f64> = walls.iter().map(|w| probes as f64 / w).collect();
        report.set("setup_s", setup_s);
        report.set("ops_per_s", steady_rate(&rates).expect("at least one pass"));
        report.set("peak_rss_mb", rss_mb);
    }
    report
}

/// Splits calibration into its measurement phase — the supervised
/// pipeline over the battery under `calib_config` — and the fit, and
/// replays every probe through the stage calls.
fn traced(
    spec: &RunSpec,
    report: &mut Report,
    batteries: &[Vec<BasicBlock>],
    timed: &[Pass],
    reference: &Pass,
    battery_ms: &[f64],
) {
    let mut rec = Recorder::new();
    let mut counts = ReplayCounts::default();
    let mut lower = LowerStats::default();
    let mut request = 0u64;
    for (u, blocks) in UARCHES.iter().zip(batteries) {
        let profiler = Profiler::new(u.desc(), calib_config());
        rec.time("learn.calibrate.measure", 0, || {
            profile_corpus_supervised(&profiler, blocks, 1, None, &Supervision::default())
        });
        let mut a = Machine::new(profiler.uarch(), 0);
        let mut b = Machine::new(profiler.uarch(), 0);
        for block in blocks {
            if let Err(diff) = replay::profile_and_replay(
                &profiler,
                block,
                &mut a,
                &mut b,
                &mut rec,
                request,
                &mut counts,
            ) {
                report.check(false, || diff);
            }
            request += 1;
        }
        lower.hits += a.lower_stats().hits;
        lower.misses += a.lower_stats().misses;
    }
    report.attempted += counts.attempts;
    staged_rows(report, &rec, &counts, lower);

    let measure_ms = rec.total_ns("learn.calibrate.measure") as f64 / 1e6;
    let calibrate_ms = median(
        &timed
            .iter()
            .map(|p| p.seconds.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0)
        * 1e3;
    let fit_ms = unattributed(calibrate_ms, &[measure_ms]);
    let simulations: u64 = reference.reports.iter().map(|r| r.simulations).sum();
    report.set("learn.calibrate.measure_ms", measure_ms);
    report.set("learn.calibrate.fit_ms", fit_ms);
    report.set("learn.calibrate.simulations", simulations as f64);
    report.set(
        "learn.calibrate.us_per_simulation",
        share(fit_ms * 1e3, simulations as f64),
    );
    report.set("corpus.probe_battery_ms", median(battery_ms).unwrap_or(0.0));
    trace_overhead(report, &rec);
    write_spans(spec, &rec);
}
