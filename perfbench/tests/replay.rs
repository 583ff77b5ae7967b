//! The staged replay reproduces `Profiler::profile_with` bit for bit.

use bhive_asm::parse_block;
use bhive_corpus::probe_battery;
use bhive_harness::{ProfileConfig, Profiler};
use bhive_learn::calibrate::calib_config;
use bhive_perfbench::corpus;
use bhive_perfbench::replay::{
    profile_and_replay, staged_attempt, ReplayCounts, MONITOR, SIMULATE,
};
use bhive_perfbench::spans::Recorder;
use bhive_sim::Machine;
use bhive_uarch::Uarch;

#[test]
fn replay_matches_profile_with_on_corpus_blocks() {
    let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive());
    let blocks = corpus::distinct(&corpus::generate(3), &profiler);
    let (mut a, mut b) = (
        Machine::new(profiler.uarch(), 0),
        Machine::new(profiler.uarch(), 0),
    );
    let mut rec = Recorder::new();
    let mut counts = ReplayCounts::default();
    for (i, (_, block)) in blocks.iter().take(300).enumerate() {
        let _outcome = profile_and_replay(
            &profiler,
            block,
            &mut a,
            &mut b,
            &mut rec,
            i as u64,
            &mut counts,
        )
        .unwrap_or_else(|diff| panic!("{diff}"));
    }
    assert_eq!(counts.attempts, 300);
    assert!(
        counts.successes > 250,
        "most corpus blocks measure: {counts:?}"
    );
    assert!(
        !counts.failures.is_empty(),
        "the corpus has failing blocks too"
    );
    assert!(counts.faults > 0 && counts.sim_passes > 0);
    // Both machines saw the same blocks, so their lowering caches agree.
    assert_eq!(a.lower_stats(), b.lower_stats());
    assert_eq!(rec.self_by_name()[MONITOR].1, counts.monitored);
    assert_eq!(rec.self_by_name()[SIMULATE].1, counts.sim_passes / 2);
}

#[test]
fn replay_matches_profile_with_on_case_studies_and_failures() {
    let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive());
    let texts = [
        "add rdi, 1\nmov eax, edx\nshr rdx, 8\nxor al, byte ptr [rdi - 1]\nmovzx eax, al\nxor rdx, qword ptr [8*rax + 0x41108]\ncmp rdi, rcx",
        "xor edx, edx\ndiv ecx\ntest edx, edx",
        "vxorps xmm2, xmm2, xmm2",
        "xor ebx, ebx\nmov rax, qword ptr [rbx]",
        "mov rax, qword ptr [rbx + 0x3c]",
    ];
    let mut machine = Machine::new(profiler.uarch(), 0);
    for text in texts {
        let block = parse_block(text).expect("valid block");
        let mut rec = Recorder::new();
        let replayed = staged_attempt(
            &profiler,
            &block,
            &mut machine,
            &mut rec,
            0,
            &mut ReplayCounts::default(),
        );
        assert_eq!(replayed, profiler.profile(&block), "{text}");
    }
}

#[test]
fn replay_matches_profile_with_on_the_probe_battery() {
    let profiler = Profiler::new(Uarch::skylake(), calib_config());
    let battery = probe_battery(true, true);
    let (mut a, mut b) = (
        Machine::new(profiler.uarch(), 0),
        Machine::new(profiler.uarch(), 0),
    );
    let mut rec = Recorder::new();
    let mut counts = ReplayCounts::default();
    for (i, probe) in battery.probes.iter().enumerate() {
        let _outcome = profile_and_replay(
            &profiler,
            &probe.block,
            &mut a,
            &mut b,
            &mut rec,
            i as u64,
            &mut counts,
        )
        .unwrap_or_else(|diff| panic!("{}: {diff}", probe.id));
    }
    assert_eq!(counts.successes, counts.attempts, "probes never fail");
    assert_eq!(counts.faults, 0, "probes never fault");
}
