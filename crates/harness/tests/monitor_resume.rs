//! Resume-in-place against the paper's restart loop.
//!
//! The monitor maps a faulting page and resumes the block at the
//! faulting instruction. The paper's Fig. 2 monitor instead re-initializes
//! the child and re-runs the block from the top after every fault; that
//! loop lives here, verbatim, as the referee. Over generated blocks from
//! every application profile and hand-picked fault corners, on Ivy
//! Bridge, Haswell and Skylake, under both page policies, at the
//! profiler's large unroll factor and at a small one, the two must agree
//! on everything the mapping stage produces: the outcome (trace, mapped
//! pages, faults), the page table, the `PageMapped` events, the failure,
//! the machine's registers and mapped memory — and, through the rest of
//! the pipeline, the `Measurement` of `Profiler::profile_attempt`.

use bhive_asm::{fnv1a_64, BasicBlock, Inst};
use bhive_corpus::{generate_block, Application};
use bhive_harness::{
    monitor_observed, AttemptEvent, MappingOutcome, Measurement, PageMapping, ProfileConfig,
    ProfileFailure, Profiler, RetryPolicy, TrialSet, UnrollStrategy,
};
use bhive_sim::{
    CodeLayout, CpuState, DynInst, ExecFault, Machine, PhysPage, TimingModel, CODE_BASE, PAGE_SIZE,
};
use bhive_uarch::Uarch;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The paper's monitor: full re-initialization and a restart from the
/// top after every serviced fault.
fn restart_monitor(
    machine: &mut Machine,
    insts: &[Inst],
    unroll: u32,
    config: &ProfileConfig,
    sink: &mut dyn FnMut(AttemptEvent),
) -> Result<MappingOutcome, ProfileFailure> {
    let crash = |fault: ExecFault| ProfileFailure::Crash {
        fault: fault.to_string(),
    };
    let mut faults = 0u32;
    let mut shared_page: Option<PhysPage> = None;
    let mut trace = Vec::new();
    loop {
        machine.reset(config.fill);
        machine.set_ftz_daz(config.disable_gradual_underflow);
        machine.memory_mut().refill_all(config.fill);
        match machine.execute_unrolled_into(insts, unroll, &mut trace) {
            Ok(()) => {
                return Ok(MappingOutcome {
                    trace,
                    mapped_pages: machine.memory().mapped_page_count(),
                    faults,
                })
            }
            Err(ExecFault::Seg(fault)) => {
                if config.page_mapping == PageMapping::None {
                    return Err(crash(ExecFault::Seg(fault)));
                }
                if fault.vaddr < 0x1000 || fault.vaddr >= 1 << 47 {
                    return Err(ProfileFailure::InvalidAddress { vaddr: fault.vaddr });
                }
                faults += 1;
                if faults > config.max_faults {
                    return Err(ProfileFailure::TooManyFaults { faults });
                }
                let mem = machine.memory_mut();
                let phys = match config.page_mapping {
                    PageMapping::SinglePage => {
                        *shared_page.get_or_insert_with(|| mem.alloc_page(config.fill))
                    }
                    _ => mem.alloc_page(config.fill),
                };
                mem.map(fault.vaddr, phys);
                sink(AttemptEvent::PageMapped {
                    vaddr_page: fault.vaddr & !0xFFF,
                    fault: faults,
                });
            }
            Err(other) => return Err(crash(other)),
        }
    }
}

/// Everything observable a mapping stage leaves behind.
#[derive(Debug, PartialEq)]
struct MappingView {
    outcome: Result<(Vec<DynInst>, usize, u32), ProfileFailure>,
    events: Vec<AttemptEvent>,
    /// vpage → frame for every page the events name.
    page_table: Vec<(u64, PhysPage)>,
    mapped_page_count: usize,
    state: CpuState,
    /// Every byte of those pages.
    memory: Vec<u8>,
}

type Monitor = fn(
    &mut Machine,
    &[Inst],
    u32,
    &ProfileConfig,
    &mut dyn FnMut(AttemptEvent),
) -> Result<MappingOutcome, ProfileFailure>;

/// Runs `monitor` on a freshly recycled machine, as the profiler does.
fn map_with(
    monitor: Monitor,
    block: &BasicBlock,
    uarch: &'static Uarch,
    unroll: u32,
    config: &ProfileConfig,
) -> MappingView {
    let mut machine = Machine::new(uarch, 0);
    machine.recycle(11, config.noise);
    machine.set_ftz_daz(config.disable_gradual_underflow);
    let mut events = Vec::new();
    let outcome = monitor(&mut machine, block.insts(), unroll, config, &mut |e| {
        events.push(e)
    })
    .map(|m| (m.trace, m.mapped_pages, m.faults));
    let mem = machine.memory();
    let mut page_table = Vec::new();
    let mut memory = Vec::new();
    for event in &events {
        if let AttemptEvent::PageMapped { vaddr_page, .. } = *event {
            let (frame, _) = mem.translate(vaddr_page, false).expect("mapped page");
            page_table.push((vaddr_page, frame));
            let mut page = vec![0u8; PAGE_SIZE as usize];
            mem.read(vaddr_page, &mut page).expect("mapped page reads");
            memory.extend_from_slice(&page);
        }
    }
    MappingView {
        outcome,
        events,
        page_table,
        mapped_page_count: mem.mapped_page_count(),
        state: machine.state().clone(),
        memory,
    }
}

/// `Profiler::profile_attempt` for attempt 0, with the restart monitor
/// in place of the library's: the same stage calls in the same order.
fn restart_profile(
    config: &ProfileConfig,
    block: &BasicBlock,
    machine: &mut Machine,
) -> Result<Measurement, ProfileFailure> {
    if !machine.uarch().supports_avx2 && block.uses_avx2() {
        return Err(ProfileFailure::UnsupportedIsa);
    }
    let (encoded, spans) = block
        .encode_spanned()
        .map_err(|e| ProfileFailure::Encoding {
            message: e.to_string(),
        })?;
    let (lo_factor, hi_factor) = config.unroll.factors(encoded.len() as u32);
    machine.recycle(RetryPolicy::seed_for(fnv1a_64(&encoded), 0), config.noise);
    machine.set_ftz_daz(config.disable_gradual_underflow);
    let trials = RetryPolicy::trials_for(0, config.trials);
    let mapping = restart_monitor(machine, block.insts(), hi_factor, config, &mut |_| {})?;

    let layout = CodeLayout::from_spans(spans, CODE_BASE);
    let model = machine.take_timing_model(block.insts());
    machine.prepare_timing(&model, &mapping.trace, &layout);
    let (trace, n_hi) = (&mapping.trace, mapping.trace.len());
    let hi = measure(config, machine, &model, trace, hi_factor, n_hi, trials)?;
    let lo = if lo_factor == hi_factor {
        hi.clone()
    } else {
        let n_lo = lo_factor as usize * block.len();
        measure(config, machine, &model, trace, lo_factor, n_lo, trials)?
    };
    let throughput = if hi.unroll == lo.unroll {
        hi.accepted_cycles as f64 / f64::from(hi.unroll)
    } else {
        if hi.accepted_cycles < lo.accepted_cycles {
            return Err(ProfileFailure::NegativeDelta {
                lo_cycles: lo.accepted_cycles,
                hi_cycles: hi.accepted_cycles,
                lo_unroll: lo.unroll,
                hi_unroll: hi.unroll,
            });
        }
        (hi.accepted_cycles as f64 - lo.accepted_cycles as f64) / f64::from(hi.unroll - lo.unroll)
    };
    Ok(Measurement {
        throughput,
        subnormal_events: hi.counters.subnormal_events,
        misaligned_refs: hi.counters.misaligned_mem_refs,
        lo,
        hi,
        mapped_pages: mapping.mapped_pages,
        faults_serviced: mapping.faults,
        attempt: 0,
    })
}

/// One unroll factor: the double simulation, the misalignment and
/// invariant filters, the trials and the clean-modal acceptance rule.
fn measure(
    config: &ProfileConfig,
    machine: &mut Machine,
    model: &TimingModel<'_>,
    trace: &[DynInst],
    unroll: u32,
    n_insts: usize,
    trials: u32,
) -> Result<TrialSet, ProfileFailure> {
    let timing =
        machine
            .simulate_double(model, n_insts)
            .map_err(|nc| ProfileFailure::NonConvergent {
                cycle_budget: nc.cycle_budget,
                retired: nc.retired as u64,
                total_insts: nc.total_insts as u64,
            })?;
    let subnormal_events = trace[..n_insts]
        .iter()
        .filter(|d| d.effects.subnormal)
        .count() as u64;
    if config.drop_misaligned && timing.misaligned > 0 {
        return Err(ProfileFailure::Misaligned {
            count: timing.misaligned,
        });
    }
    let mut base = machine.observe(&timing);
    base.context_switches = 0;
    base.core_cycles = timing.cycles;
    base.subnormal_events = subnormal_events;
    if config.enforce_invariants && !base.is_clean() {
        return Err(ProfileFailure::DirtyCounters { counters: base });
    }
    let mut cycles = Vec::new();
    let mut clean = 0u32;
    let mut histogram: BTreeMap<u64, u32> = BTreeMap::new();
    for _ in 0..trials {
        let observed = machine.observe(&timing);
        cycles.push(observed.core_cycles);
        if observed.context_switches == 0 && (!config.enforce_invariants || observed.is_clean()) {
            clean += 1;
            *histogram.entry(observed.core_cycles).or_default() += 1;
        }
    }
    // Highest count wins; ties go to the lowest cycle count.
    let (accepted_cycles, identical) =
        histogram.iter().fold(
            (0u64, 0u32),
            |best, (&c, &n)| {
                if n > best.1 {
                    (c, n)
                } else {
                    best
                }
            },
        );
    if identical < config.min_clean_identical {
        return Err(ProfileFailure::Unreproducible {
            clean,
            identical,
            required: config.min_clean_identical,
        });
    }
    let mut counters = base;
    counters.core_cycles = accepted_cycles;
    Ok(TrialSet {
        unroll,
        cycles,
        clean,
        identical,
        accepted_cycles,
        counters,
    })
}

/// The paper's configuration with `mapping` at the profiler's factors
/// (`small == false`) or at a small pair.
fn config(mapping: PageMapping, small: bool) -> ProfileConfig {
    let mut config = ProfileConfig::bhive().with_page_mapping(mapping);
    if small {
        config.unroll = UnrollStrategy::TwoFactor {
            lo: 2,
            hi: 4,
            i_cache_budget: 16 * 1024,
        };
    }
    config
}

/// Checks one block across uarches, page policies and unroll sizes.
/// Returns the faults the resuming monitor serviced.
fn resume_matches_restart(block: &BasicBlock) -> u64 {
    let Ok(encoded) = block.encode() else {
        return 0;
    };
    let mut faults = 0;
    for uarch in [Uarch::ivy_bridge(), Uarch::haswell(), Uarch::skylake()] {
        for mapping in [PageMapping::SinglePage, PageMapping::PerPage] {
            for small in [false, true] {
                let config = config(mapping, small);
                let (_, hi) = config.unroll.factors(encoded.len() as u32);
                let at = format!("{:?} {mapping:?} unroll {hi}:\n{block}", uarch.kind);
                let resumed = map_with(monitor_observed, block, uarch, hi, &config);
                let restarted = map_with(restart_monitor, block, uarch, hi, &config);
                assert_eq!(resumed, restarted, "mapping stage differs on {at}");
                faults += resumed.events.len() as u64;

                let profiler = Profiler::new(uarch, config.clone());
                let measured = profiler.profile_attempt(block, &mut Machine::new(uarch, 0), 0);
                let reference = restart_profile(&config, block, &mut Machine::new(uarch, 0));
                assert_eq!(measured, reference, "measurement differs on {at}");
            }
        }
    }
    faults
}

#[test]
fn generated_blocks_resume_like_they_restart() {
    let mut faults = 0;
    for seed in 0..4u64 {
        for app in Application::ALL {
            let mut rng = SmallRng::seed_from_u64(seed ^ fnv1a_64(app.name().as_bytes()));
            faults += resume_matches_restart(&generate_block(app, &mut rng));
        }
    }
    assert!(faults > 0, "no generated block faulted");
}

/// Blocks chosen for their mapping-stage outcome: several faults per
/// copy, a page walker that exhausts the fault budget at the large
/// factor, the null page, a non-mappable pointer, a divide error after
/// faults, stack traffic, and a read-modify-write across a page edge.
#[test]
fn corner_blocks_resume_like_they_restart() {
    let corners = [
        "add rdi, 1\nmov eax, edx\nshr rdx, 8\nxor al, byte ptr [rdi - 1]\n\
         movzx eax, al\nxor rdx, qword ptr [8*rax + 0x4110a]\ncmp rdi, rcx",
        "mov rax, qword ptr [rbx]\nadd rbx, 0x1000",
        "xor ebx, ebx\nmov rax, qword ptr [rbx]",
        "mov rax, qword ptr [rbx]\nmov rcx, qword ptr [rax]",
        "mov eax, dword ptr [rbx]\nmov rcx, qword ptr [rax]",
        "mov rax, qword ptr [rbx + 0x3000]\nxor ecx, ecx\nxor edx, edx\ndiv ecx",
        "push rax\npop rbx\npush rcx\nmov qword ptr [rsp + 0x2000], rbx",
        "add qword ptr [rbx + 0x9fc], rax\nmov rcx, qword ptr [rbx + 0x5000]",
    ];
    for text in corners {
        let block = bhive_asm::parse_block(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        resume_matches_restart(&block);
    }
}
