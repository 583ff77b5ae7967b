//! Differential tests for the cache-only warm-up: `Machine::simulate_double`
//! must return exactly what the paper's literal double execution returns —
//! flush both caches, simulate the prefix once and discard the result,
//! simulate it again — on random corpus blocks, every shipped uarch, both
//! harness unroll prefixes of one preparation. Every case also pins the
//! static bound that fallback (c) relies on against the literal warm-up's
//! cycle count, and each fallback gets a constructed case.

use bhive_asm::{fnv1a_64, parse_block, BasicBlock};
use bhive_corpus::{generate_block, Application};
use bhive_sim::{
    Cache, CodeLayout, DynInst, ExecFault, Machine, NoiseConfig, NonConvergence, PhysPage,
    PreparedTrace, SimScratch, TimingModel, TimingResult, WarmupFallback, CODE_BASE,
};
use bhive_uarch::{CacheParams, Uarch};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const FILL: u64 = 0x1234_5600;

/// The harness's default unroll factors and L1I budget.
const LO: u32 = 50;
const HI: u32 = 100;
const I_CACHE_BUDGET: u32 = 16 * 1024;

/// The paper's double execution, spelled out: cold caches, a warm-up
/// pass whose result is discarded, then the measured pass.
fn literal_pair(
    model: &TimingModel<'_>,
    prep: &PreparedTrace,
    n_insts: usize,
) -> Result<TimingResult, NonConvergence> {
    let uarch = model.uarch();
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let mut scratch = SimScratch::default();
    model.simulate_with(prep, n_insts, &mut l1i, &mut l1d, &mut scratch)?;
    model.simulate_with(prep, n_insts, &mut l1i, &mut l1d, &mut scratch)
}

/// The literal warm-up pass alone, from cold caches.
fn literal_warmup(
    model: &TimingModel<'_>,
    prep: &PreparedTrace,
    n_insts: usize,
) -> Result<TimingResult, NonConvergence> {
    let uarch = model.uarch();
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    model.simulate_with(
        prep,
        n_insts,
        &mut l1i,
        &mut l1d,
        &mut SimScratch::default(),
    )
}

/// What `warm_caches` decides for a prefix, on fresh caches.
fn warm_outcome(
    model: &TimingModel<'_>,
    prep: &PreparedTrace,
    n_insts: usize,
) -> Result<u64, WarmupFallback> {
    let uarch = model.uarch();
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    model.warm_caches(prep, n_insts, &mut l1i, &mut l1d)
}

/// Minimal stand-in for the harness monitor: executes `unroll` copies,
/// mapping every faulting page to one shared frame until the block runs
/// fault-free. `None` for blocks the monitor would reject.
fn map_and_trace(machine: &mut Machine, block: &BasicBlock, unroll: u32) -> Option<Vec<DynInst>> {
    let mut shared: Option<PhysPage> = None;
    for _ in 0..64 {
        machine.reset(FILL);
        machine.set_ftz_daz(true);
        machine.memory_mut().refill_all(FILL);
        match machine.execute_unrolled(block.insts(), unroll) {
            Ok(trace) => return Some(trace),
            Err(ExecFault::Seg(fault)) => {
                if fault.vaddr < 0x1000 || fault.vaddr >= (1 << 47) {
                    return None;
                }
                let phys = *shared.get_or_insert_with(|| machine.memory_mut().alloc_page(FILL));
                machine.memory_mut().map(fault.vaddr, phys);
            }
            Err(_) => return None,
        }
    }
    None
}

/// The harness's `(lo, hi)` rule: shrink both factors for large blocks
/// so `hi` copies stay within the L1I budget.
fn factors(block_bytes: u32) -> (u32, u32) {
    let hi = HI.min((I_CACHE_BUDGET / block_bytes.max(1)).max(4)).max(2);
    let lo = LO.min(hi / 2).clamp(1, hi - 1);
    (lo, hi)
}

/// Checks `simulate_double` against the literal pair on the `n_insts`
/// prefix of `trace`, and fallback (c)'s bound against the literal
/// warm-up whenever `warm_caches` claims one. Returns the warm-up
/// decision so callers can tell the replay from a fallback.
fn check_prefix(
    machine: &mut Machine,
    model: &TimingModel<'_>,
    trace: &[DynInst],
    layout: &CodeLayout,
    n_insts: usize,
) -> Result<u64, WarmupFallback> {
    let prep = model.prepare(trace, layout);
    machine.prepare_timing(model, trace, layout);
    let double = machine.simulate_double(model, n_insts);
    assert_eq!(
        double,
        literal_pair(model, &prep, n_insts),
        "{:?}, {n_insts} insts",
        model.uarch().kind
    );
    let outcome = warm_outcome(model, &prep, n_insts);
    if let Ok(bound) = outcome {
        let cycles = literal_warmup(model, &prep, n_insts).map(|r| r.cycles);
        assert!(
            matches!(cycles, Ok(c) if c <= bound),
            "{:?}, {n_insts} insts: warm-up {cycles:?} vs bound {bound}",
            model.uarch().kind
        );
    }
    outcome
}

/// Profiles one generated block on every uarch at both unroll prefixes.
/// Returns how many prefixes took the cache-only warm-up.
fn check_block(block: &BasicBlock) -> usize {
    let Ok(encoded) = block.encode() else {
        return 0;
    };
    let (lo, hi) = factors(encoded.len() as u32);
    let mut replayed = 0;
    for uarch in [Uarch::ivy_bridge(), Uarch::haswell(), Uarch::skylake()] {
        let mut machine = Machine::new(uarch, 0);
        machine.recycle(fnv1a_64(&encoded), NoiseConfig::quiet());
        let Some(trace) = map_and_trace(&mut machine, block, hi) else {
            continue;
        };
        let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
        let model = TimingModel::new(block.insts(), uarch);
        for copies in [lo, hi] {
            let n = copies as usize * block.len();
            if check_prefix(&mut machine, &model, &trace, &layout, n).is_ok() {
                replayed += 1;
            }
        }
    }
    replayed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random corpus blocks (AVX2 ones included; they fault on Ivy
    /// Bridge and are skipped there): the cache-only warm-up equals the
    /// literal pair, and the literal warm-up never exceeds the bound
    /// fallback (c) relies on.
    #[test]
    fn double_equals_literal_pair_within_the_bound(seed in any::<u64>(), app_idx in 0usize..12) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(Application::ALL[app_idx], &mut rng);
        check_block(&block);
    }
}

/// Latency-bound kernels, where the bound's latency and blocking terms
/// carry it: dependent multiplies, divisions, square roots, a
/// pointer-chasing load chain, and subnormal assists (FTZ/DAZ off).
#[test]
fn latency_bound_kernels_stay_within_the_bound() {
    for text in [
        "imul rax, rax\nimul rax, rbx",
        "xor edx, edx\ndiv rcx\nmov rcx, rax\nadd rcx, 7",
        "sqrtsd xmm0, xmm0\ndivsd xmm0, xmm1",
        "and rax, 0x38\nmov rax, qword ptr [rbx + rax]",
    ] {
        let block = parse_block(text).unwrap();
        assert!(check_block(&block) > 0, "{text}");
    }
    let block = bhive_corpus::special::subnormal_block();
    let uarch = Uarch::haswell();
    let mut machine = Machine::new(uarch, 0);
    machine.reset(FILL);
    let trace = machine.execute_unrolled(block.insts(), HI).unwrap();
    assert!(trace.iter().any(|d| d.effects.subnormal));
    let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
    let model = TimingModel::new(block.insts(), uarch);
    for n in [LO as usize * block.len(), trace.len()] {
        let outcome = check_prefix(&mut machine, &model, &trace, &layout, n);
        assert!(outcome.is_ok(), "{n} insts: {outcome:?}");
    }
}

/// The replay is the common case, not a rarely taken branch: on a fixed
/// corpus sample every profilable prefix skips the simulated warm-up.
#[test]
fn corpus_sample_takes_the_replay() {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut replayed = 0;
    for app in Application::ALL {
        for _ in 0..2 {
            replayed += check_block(&generate_block(app, &mut rng));
        }
    }
    assert!(replayed >= 60, "only {replayed} prefixes took the replay");
}

/// The paper's case-study blocks, division and all.
#[test]
fn case_study_blocks_take_the_replay() {
    for block in [
        bhive_corpus::special::updcrc(),
        bhive_corpus::special::case_study_division(),
        bhive_corpus::special::case_study_zero_idiom(),
        bhive_corpus::special::tensorflow_cnn_block(),
    ] {
        assert!(check_block(&block) > 0, "{block}");
    }
}

/// A block whose unrolled code overflows the L1I: the L1I replay is
/// exact, LRU thrashing included.
#[test]
fn l1i_overflow_is_replayed_exactly() {
    let text: String = (0..200)
        .map(|i| format!("add rax, {}\n", 0x100 + i))
        .collect();
    let block = parse_block(&text).unwrap();
    let uarch = Uarch::haswell();
    let mut machine = Machine::new(uarch, 0);
    machine.reset(FILL);
    let trace = machine.execute_unrolled(block.insts(), 100).unwrap();
    let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
    let model = TimingModel::new(block.insts(), uarch);
    for n in [4 * block.len(), trace.len()] {
        let outcome = check_prefix(&mut machine, &model, &trace, &layout, n);
        assert!(outcome.is_ok(), "{n} insts: {outcome:?}");
    }
    let prep = model.prepare(&trace, &layout);
    let measured = literal_pair(&model, &prep, trace.len()).unwrap();
    assert!(measured.l1i_misses > 0, "100 copies must miss in the L1I");
}

/// Fallback (a): with a one-line L1D, two lines of one page conflict, so
/// the warm-up's end state depends on issue order and is simulated.
#[test]
fn l1d_conflict_falls_back_to_the_literal_pair() {
    let uarch: &'static Uarch = Box::leak(Box::new(Uarch {
        l1d: CacheParams {
            size_bytes: 64,
            line_bytes: 64,
            ways: 1,
        },
        ..Uarch::haswell().clone()
    }));
    let block = parse_block(
        "mov rax, qword ptr [rbx]\nmov rcx, qword ptr [rbx + 64]\nadd rax, rcx\n\
         mov qword ptr [rbx + 128], rax",
    )
    .unwrap();
    let mut machine = Machine::new(uarch, 0);
    let trace = map_and_trace(&mut machine, &block, 8).unwrap();
    let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
    let model = TimingModel::new(block.insts(), uarch);
    for n in [block.len(), trace.len()] {
        let outcome = check_prefix(&mut machine, &model, &trace, &layout, n);
        assert_eq!(outcome, Err(WarmupFallback::Eviction), "{n} insts");
    }
    let prep = model.prepare(&trace, &layout);
    let measured = literal_pair(&model, &prep, trace.len()).unwrap();
    assert!(measured.l1d_read_misses > 0, "the conflict must miss");
}

/// A reservation station that can never hold a uop: the replay's
/// premises fail, and the error carries the literal pair's exact fields.
#[test]
fn starved_rs_reports_the_literal_nonconvergence() {
    let starved: &'static Uarch = Box::leak(Box::new(Uarch {
        rs_size: 0,
        ..Uarch::haswell().clone()
    }));
    let block = parse_block("add rax, 1\nadd rbx, 1").unwrap();
    let mut machine = Machine::new(starved, 0);
    machine.reset(FILL);
    let trace = machine.execute_unrolled(block.insts(), 4).unwrap();
    let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
    let model = TimingModel::new(block.insts(), starved);
    let outcome = check_prefix(&mut machine, &model, &trace, &layout, trace.len());
    assert_eq!(outcome, Err(WarmupFallback::Unbounded));
    let err = machine.simulate_double(&model, trace.len()).unwrap_err();
    assert_eq!(err.retired, 0);
    assert_eq!(err.total_insts, trace.len());
}

/// The empty prefix is a fixed point.
#[test]
fn empty_prefix_is_identical() {
    let block = parse_block("add rax, 1").unwrap();
    let uarch = Uarch::haswell();
    let mut machine = Machine::new(uarch, 0);
    machine.reset(FILL);
    let trace = machine.execute_unrolled(block.insts(), 2).unwrap();
    let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
    let model = TimingModel::new(block.insts(), uarch);
    assert_eq!(
        check_prefix(&mut machine, &model, &trace, &layout, 0),
        Ok(0)
    );
}
