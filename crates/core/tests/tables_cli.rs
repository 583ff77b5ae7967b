//! End-to-end tests that `--tables` changes what a run measures and
//! predicts, and that sharded runs carry the tables to their workers.
//!
//! The table under test is a calibrated Haswell table with the `alu`
//! row made slower (latency 3): unlike the drift-free fitted table of
//! `calibrate_cli.rs`, a `--tables` that was silently ignored cannot
//! pass here.

use bhive::uarch::FittedTables;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const SCALE: &str = "4";
const SEED: &str = "7";

fn bhive(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bhive"))
        .args(args)
        .env_remove("BHIVE_CACHE")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bhive binary runs");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(stdin.as_bytes())
        .expect("stdin writes");
    let out = child.wait_with_output().expect("bhive finishes");
    assert!(out.status.success(), "bhive {args:?} failed: {out:?}");
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bhive-tables-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Calibrates Haswell (quick battery) and writes the fitted table with
/// the `alu` latency raised to 3 cycles.
fn hot_table(dir: &Path) -> PathBuf {
    let fitted = dir.join("fitted.json");
    bhive(
        &[
            "calibrate",
            "--uarch",
            "hsw",
            "--quick",
            "--no-cache",
            "--report",
            dir.join("report.json").to_str().unwrap(),
            "--out",
            fitted.to_str().unwrap(),
        ],
        "",
    );
    let (kind, mut overrides) = FittedTables::load(&fitted).expect("fitted table loads");
    let alu = overrides
        .get("alu")
        .expect("the quick battery fits the alu row");
    overrides.set("alu", 3, alu.port_set());
    let hot = dir.join("hot.json");
    FittedTables::new(kind, overrides)
        .save(&hot)
        .expect("hot table saves");
    hot
}

fn measure(extra: &[&str]) -> Output {
    let mut args = vec![
        "measure", "--uarch", "hsw", "--scale", SCALE, "--seed", SEED,
    ];
    args.extend_from_slice(extra);
    bhive(&args, "")
}

/// The supervisor's replay line for the main corpus.
fn replay_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find(|line| line.starts_with("profiling Main/hsw:"))
        .unwrap_or_else(|| panic!("no replay line in {out:?}"))
        .to_string()
}

#[test]
fn tables_change_measure_and_shard_bit_identically() {
    let dir = temp_dir("measure");
    let hot = hot_table(&dir);
    let hot = hot.to_str().unwrap();
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();

    let shipped = measure(&["--no-cache"]);
    let serial = measure(&["--no-cache", "--tables", hot]);
    assert_ne!(
        serial.stdout, shipped.stdout,
        "a hot alu row must change the measured CSV"
    );

    let sharded = measure(&[
        "--workers",
        "2",
        "--threads",
        "2",
        "--cache",
        cache,
        "--tables",
        hot,
    ]);
    assert_eq!(
        sharded.stdout, serial.stdout,
        "sharded --tables output must be byte-identical to serial"
    );
    let replay = replay_line(&sharded);
    assert!(
        replay.contains(" 0 misses"),
        "the merge must keep the fitted records: {replay}"
    );

    // Shipped tables on the same cache directory: the fitted run's shard
    // reports must not certify, so both shards run again.
    let reshipped = measure(&["--workers", "2", "--threads", "2", "--cache", cache]);
    assert_eq!(reshipped.stdout, shipped.stdout);
    let stderr = String::from_utf8_lossy(&reshipped.stderr);
    assert!(
        stderr.contains("round 1: 2 of 2 shard(s) to run"),
        "reports must not certify across tables: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tables_change_profile_and_predict() {
    let dir = temp_dir("predict");
    let hot = hot_table(&dir);
    let hot = hot.to_str().unwrap();

    let block = "add rax, 1\nadd rax, 1\n";
    let shipped = bhive(&["profile", "--uarch", "hsw"], block);
    let fitted = bhive(&["profile", "--uarch", "hsw", "--tables", hot], block);
    let throughput = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|line| line.starts_with("throughput:"))
            .unwrap_or_else(|| panic!("no throughput in {out:?}"))
            .to_string()
    };
    assert_ne!(throughput(&shipped), throughput(&fitted));

    let predict = |extra: &[&str]| {
        let mut args = vec!["predict", "--uarch", "hsw", "--scale", "3", "--no-cache"];
        args.extend_from_slice(extra);
        let out = bhive(&args, block);
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|line| line.starts_with("iaca"))
            .unwrap_or_else(|| panic!("no iaca row in {out:?}"))
            .to_string()
    };
    assert_ne!(predict(&[]), predict(&["--tables", hot]));
    let _ = std::fs::remove_dir_all(&dir);
}
