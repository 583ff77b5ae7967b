//! Golden pins for measured output: a seeded 200-row Haswell corpus
//! measured under both page-mapping policies must keep its CSV bytes,
//! its failure mix and its total serviced page faults. The values were
//! recorded before the monitor learned to resume page faults in place,
//! so any change to what the mapping loop, the executors or the timing
//! model produce shows up here first.

use bhive::asm::fnv1a_64;
use bhive::corpus::{Corpus, Scale};
use bhive::eval::MeasuredCorpus;
use bhive::harness::{profile_corpus, PageMapping, ProfileConfig, Profiler, Supervision};
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
