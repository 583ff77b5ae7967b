//! Golden pins for measured output: a seeded 200-row Haswell corpus
//! measured under both page-mapping policies must keep its CSV bytes,
//! its failure mix and its total serviced page faults. The values were
//! recorded before the monitor learned to resume page faults in place,
//! so any change to what the mapping loop, the executors or the timing
//! model produce shows up here first. A second pin covers the on-disk
//! cache log of a noisy run with retries.

use bhive::asm::fnv1a_64;
use bhive::corpus::{Corpus, Scale};
use bhive::eval::MeasuredCorpus;
use bhive::harness::{
    profile_corpus, profile_corpus_cached, MeasurementCache, PageMapping, ProfileConfig, Profiler,
    Supervision,
};
use bhive::uarch::UarchKind;

/// Twenty blocks for each of the ten applications.
const ROWS_PER_APP: usize = 20;
const SEED: u64 = 15;

struct Golden {
    csv_fnv: u64,
    failures: &'static [(&'static str, usize)],
    faults_serviced: u64,
}

fn check(mapping: PageMapping, golden: &Golden) {
    let corpus = Corpus::generate(Scale::PerApp(ROWS_PER_APP), SEED);
    assert_eq!(corpus.len(), 200);
    let profiler = Profiler::new(
        UarchKind::Haswell.desc(),
        ProfileConfig::bhive().with_page_mapping(mapping),
    );
    let (measured, stats) =
        MeasuredCorpus::measure(&corpus, &profiler, 2, None, &Supervision::default());
    let mut csv = Vec::new();
    measured.write_csv(&mut csv).expect("CSV writes to memory");
    let failures: Vec<(&str, usize)> = stats.failures.into_iter().collect();
    let report = profile_corpus(&profiler, &corpus.basic_blocks(), 2);
    let faults_serviced: u64 = report
        .measurements()
        .map(|(_, m)| u64::from(m.faults_serviced))
        .sum();
    assert_eq!(
        (fnv1a_64(&csv), failures.as_slice(), faults_serviced),
        (golden.csv_fnv, golden.failures, golden.faults_serviced),
        "{mapping:?}: (CSV FNV-1a, failure mix, Σ faults_serviced) moved"
    );
}

#[test]
fn single_page_output_is_pinned() {
    check(
        PageMapping::SinglePage,
        &Golden {
            csv_fnv: 0x3125_b7c6_c9c5_62f9,
            failures: &[
                ("invalid-address", 8),
                ("misaligned", 1),
                ("too-many-faults", 5),
            ],
            faults_serviced: 282,
        },
    );
}

#[test]
fn per_page_output_is_pinned() {
    check(
        PageMapping::PerPage,
        &Golden {
            csv_fnv: 0x2032_66e1_f447_b21f,
            failures: &[
                ("dirty-counters", 2),
                ("invalid-address", 8),
                ("misaligned", 1),
                ("too-many-faults", 5),
            ],
            faults_serviced: 258,
        },
    );
}

/// A 1,100-row Haswell corpus (the seed-0xBE5C 250-block corpus walked
/// with stride 7) profiled with realistic noise and a retry budget of
/// 2 into a fresh cache at 1 thread must keep its success count and the
/// exact bytes of the JSONL cache log. That covers trial sampling,
/// modal filtering, the retry chain and the record encoding at once. At
/// 2 threads the log's record order varies, so only 1 thread is pinned.
#[test]
fn cache_log_of_a_noisy_run_is_pinned() {
    let unique = Corpus::generate(Scale::PerApp(25), 0xBE5C).basic_blocks();
    let blocks: Vec<_> = (0..1100)
        .map(|i| unique[(i * 7) % unique.len()].clone())
        .collect();
    let config = ProfileConfig::bhive().with_retries(2);
    let profiler = Profiler::new(UarchKind::Haswell.desc(), config.clone());
    let dir = std::env::temp_dir().join(format!("bhive-golden-cache-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cache =
        MeasurementCache::open(&dir, UarchKind::Haswell, &config).expect("cache dir opens");
    let report = profile_corpus_cached(&profiler, &blocks, 1, Some(&mut cache));
    drop(cache);
    let log = std::fs::read(MeasurementCache::log_path(&dir, UarchKind::Haswell))
        .expect("cache log exists");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (report.successes(), log.len(), fnv1a_64(&log)),
        (1042, 220_756, 0x56f3_de4b_a5c4_e529),
        "(successes, cache log bytes, cache log FNV-1a) moved"
    );
}
