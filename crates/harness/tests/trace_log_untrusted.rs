//! A trace log on disk is untrusted input: a crash can cut it at any
//! byte, and anything can be appended to it. Whatever the bytes,
//! `TraceLog::open` must succeed without panicking, truncate the file to
//! exactly its longest valid-line prefix, report what it dropped through
//! `recovery()` (and report `None` when it dropped nothing), and leave a
//! log that takes an append and reopens clean.

use bhive_asm::parse_block;
use bhive_harness::{
    profile_corpus_supervised, ObsConfig, ProfileConfig, Profiler, RunObs, Supervision, TraceLog,
};
use bhive_uarch::Uarch;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A real observed run: events, metrics and wall lines of every kind.
fn run_obs() -> &'static RunObs {
    static OBS: OnceLock<RunObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let blocks = [
            parse_block("add rax, 1\nimul rbx, rcx").unwrap(),
            parse_block("mov rax, qword ptr [rbx]\nadd rax, 1").unwrap(),
        ];
        let supervision = Supervision::with_obs(ObsConfig::on());
        let report = profile_corpus_supervised(&profiler, &blocks, 1, None, &supervision);
        report.stats.obs.expect("observed run")
    })
}

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bhive-trace-untrusted-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A valid two-run log, written by `TraceLog` itself.
fn valid_log() -> &'static [u8] {
    static LOG: OnceLock<Vec<u8>> = OnceLock::new();
    LOG.get_or_init(|| {
        let dir = fresh_dir();
        let path = dir.join("trace.jsonl");
        let mut log = TraceLog::open(&path).unwrap();
        log.append_run("first", run_obs()).unwrap();
        log.append_run("second", run_obs()).unwrap();
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    })
}

/// Byte offsets where a line of the valid log starts (the last one is
/// the log's length).
fn line_starts() -> Vec<usize> {
    let log = valid_log();
    std::iter::once(0)
        .chain(
            log.iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect()
}

/// Opens `bytes` as a trace log and checks the recovery contract, given
/// that the longest valid-line prefix of `bytes` is `valid` bytes long.
fn check(bytes: &[u8], valid: usize) -> Result<(), TestCaseError> {
    let dir = fresh_dir();
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, bytes).unwrap();
    let opened = TraceLog::open(&path);
    prop_assert!(opened.is_ok(), "open failed: {:?}", opened.err());
    let mut log = opened.unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    prop_assert!(
        on_disk == bytes[..valid],
        "kept {} bytes, want the {valid}-byte valid prefix",
        on_disk.len()
    );
    match log.recovery() {
        None => prop_assert_eq!(valid, bytes.len(), "dropped bytes without a recovery"),
        Some(recovery) => {
            prop_assert!(
                valid < bytes.len(),
                "recovery reported with nothing dropped"
            );
            prop_assert_eq!(recovery.dropped_bytes, (bytes.len() - valid) as u64);
            prop_assert_eq!(recovery.valid_len, valid as u64);
        }
    }
    log.append_run("after", run_obs()).unwrap();
    drop(log);
    let reopened = TraceLog::open(&path).unwrap();
    prop_assert!(
        reopened.recovery().is_none(),
        "an append after recovery must reopen clean: {:?}",
        reopened.recovery()
    );
    prop_assert!(std::fs::read(&path).unwrap().starts_with(&bytes[..valid]));
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
    Ok(())
}

/// `line` with its checksum changed by `delta` (non-zero): still valid
/// JSON of the right shape, but the checksum no longer matches.
fn with_bad_checksum(line: &str, delta: u64) -> String {
    let digits = line.strip_prefix("{\"sum\":").expect("sum comes first");
    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap();
    let sum: u64 = digits[..end].parse().unwrap();
    format!("{{\"sum\":{}{}", sum.wrapping_add(delta), &digits[end..])
}

#[test]
fn the_valid_log_opens_clean() {
    check(valid_log(), valid_log().len()).unwrap();
    assert!(line_starts().len() > 8, "the log holds lines of every kind");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A crash can cut the log at any byte: the torn line goes, every
    /// complete line before it stays.
    #[test]
    fn cut_at_any_byte(cut in 0usize..1_048_576) {
        let log = valid_log();
        let cut = cut % (log.len() + 1);
        let valid = line_starts().into_iter().filter(|&s| s <= cut).max().unwrap();
        check(&log[..cut], valid)?;
    }

    /// Arbitrary bytes (invalid UTF-8 included) after the last line.
    #[test]
    fn arbitrary_bytes_appended(junk in vec(any::<u8>(), 0..256), invalid_at in 0usize..256) {
        let mut bytes = valid_log().to_vec();
        bytes.extend_from_slice(&junk);
        check(&bytes, valid_log().len())?;
        // The same junk with a byte that is never UTF-8 and a newline,
        // so it reads as a complete but undecodable line.
        let mut junk = junk;
        junk.insert(invalid_at % (junk.len() + 1), 0xFF);
        junk.push(b'\n');
        let mut bytes = valid_log().to_vec();
        bytes.extend_from_slice(&junk);
        check(&bytes, valid_log().len())?;
    }

    /// A well-formed line with a wrong checksum, at any line boundary:
    /// it and everything after it go.
    #[test]
    fn bad_checksum_line(at in 0usize..1024, source in 0usize..1024, delta in 1u64..u64::MAX) {
        let log = valid_log();
        let starts = line_starts();
        let at = starts[at % starts.len()];
        let line = std::str::from_utf8(log).unwrap().lines().nth(source % (starts.len() - 1)).unwrap();
        let mut bytes = log[..at].to_vec();
        bytes.extend_from_slice(with_bad_checksum(line, delta).as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&log[at..]);
        check(&bytes, at)?;
    }

    /// Deeply nested JSON, bare or in the body of a record, at any line
    /// boundary: the parser's recursion depth is not the input's choice.
    #[test]
    fn deeply_nested_line(at in 0usize..1024, depth in 0usize..5000, wrapped in any::<bool>()) {
        let log = valid_log();
        let starts = line_starts();
        let at = starts[at % starts.len()];
        let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let line = if wrapped {
            format!("{{\"sum\":1,\"body\":{nested}}}")
        } else {
            nested
        };
        let mut bytes = log[..at].to_vec();
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&log[at..]);
        check(&bytes, at)?;
    }
}
