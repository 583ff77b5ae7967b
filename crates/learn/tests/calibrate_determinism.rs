//! Calibration determinism: the emitted `calibration_report.json` is
//! byte-identical at any worker thread count, warm or cold cache, and
//! across a kill/resume of the cached measurement run. The `calib.*`
//! observability section is deterministic the same way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bhive_harness::ObsConfig;
use bhive_learn::calibrate::{calibrate, CalibrationError, CalibrationOptions};
use bhive_uarch::UarchKind;

fn run(opts: CalibrationOptions) -> Result<bhive_learn::CalibrationOutcome, CalibrationError> {
    calibrate(UarchKind::IvyBridge.desc(), &opts)
}

fn quick_opts() -> CalibrationOptions {
    CalibrationOptions {
        quick: true,
        ..Default::default()
    }
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let mut reports = Vec::new();
    for threads in [1, 4, 8] {
        let outcome = run(CalibrationOptions {
            threads,
            ..quick_opts()
        })
        .expect("calibration completes");
        reports.push(outcome.report.to_json());
    }
    assert_eq!(reports[0], reports[1], "1 vs 4 threads");
    assert_eq!(reports[0], reports[2], "1 vs 8 threads");
}

#[test]
fn report_survives_kill_and_resume() {
    let cold = run(CalibrationOptions {
        threads: 2,
        ..quick_opts()
    })
    .expect("cold calibration")
    .report
    .to_json();

    let dir = tempdir("calib_kill_resume");

    // Kill: a pre-triggered stop flag interrupts the measurement run
    // before it completes; calibration reports Interrupted instead of
    // fitting partial data.
    let stop = Arc::new(AtomicBool::new(true));
    let killed = run(CalibrationOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        stop: Some(stop),
        ..quick_opts()
    });
    assert!(
        matches!(killed, Err(CalibrationError::Interrupted)),
        "pre-triggered stop must interrupt"
    );

    // A stop raised mid-run (from another thread) either interrupts or
    // loses the race and completes; whatever was cached must not
    // change the eventual report.
    let stop = Arc::new(AtomicBool::new(false));
    let racing = {
        let trigger = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            trigger.store(true, Ordering::SeqCst);
        });
        run(CalibrationOptions {
            threads: 2,
            cache_dir: Some(dir.clone()),
            stop: Some(stop),
            ..quick_opts()
        })
    };
    if let Ok(outcome) = racing {
        assert_eq!(outcome.report.to_json(), cold, "survived the race");
    }

    // Resume: same cache directory, no stop — completes from whatever
    // the interrupted runs persisted, byte-identical to the cold run.
    let resumed = run(CalibrationOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..quick_opts()
    })
    .expect("resumed calibration");
    assert_eq!(resumed.report.to_json(), cold, "resume equals cold");

    // Fully warm rerun: every probe served from cache, same bytes.
    let warm = run(CalibrationOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..quick_opts()
    })
    .expect("warm calibration");
    assert_eq!(warm.report.to_json(), cold, "warm equals cold");
    assert!(
        warm.stats.cache.as_ref().is_some_and(|c| c.hits > 0),
        "warm run must hit the cache"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn calib_observability_is_deterministic() {
    let mut sections = Vec::new();
    for threads in [1, 4] {
        let outcome = run(CalibrationOptions {
            threads,
            obs: ObsConfig::on(),
            ..quick_opts()
        })
        .expect("calibration completes");
        let obs = outcome.obs.expect("obs enabled");
        // The calib stage: events are keyed by entry ordinal, so the
        // sequence is a pure function of the report.
        let calib_events: Vec<String> = obs
            .events
            .iter()
            .filter(|e| e.kind().starts_with("calib-"))
            .map(|e| format!("{:?}", e))
            .collect();
        assert!(!calib_events.is_empty(), "calib events present");
        let counters: Vec<(String, u64)> = obs
            .metrics
            .counters()
            .filter(|(name, _)| name.starts_with("calib."))
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        assert!(!counters.is_empty(), "calib counters present");
        sections.push((calib_events, counters));
    }
    assert_eq!(sections[0], sections[1], "1 vs 4 threads");
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bhive_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
