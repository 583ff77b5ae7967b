//! Fault atomicity: an instruction that faults leaves registers, flags
//! and memory exactly as they were before it, on both executors (the
//! predecoded `ExecOp` path and the reference interpreter). The mapping
//! monitor relies on this to map the faulting page and resume the block
//! at that instruction instead of restarting it from the top.
//!
//! Each block is stepped one instruction at a time, mapping pages the
//! way the monitor does, and every fault is checked against a snapshot
//! of the architectural state and of every mapped byte taken just before
//! the faulting instruction.

use bhive_asm::{BasicBlock, Inst};
use bhive_corpus::{generate_block, Application};
use bhive_sim::{DynInst, ExecFault, Machine, Memory, PhysPage, PAGE_SIZE};
use bhive_uarch::Uarch;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const FILL: u64 = 0x1234_5600;
/// Faults serviced per block before the walk stops (page walkers would
/// otherwise run to the unroll factor).
const MAX_FAULTS: usize = 32;

/// The two executors, stepped through one-instruction blocks.
#[derive(Debug, Clone, Copy)]
enum Executor {
    Lowered,
    Reference,
}

impl Executor {
    fn step(self, machine: &mut Machine, inst: &Inst) -> Result<(), ExecFault> {
        let mut trace: Vec<DynInst> = Vec::new();
        let insts = std::slice::from_ref(inst);
        match self {
            Executor::Lowered => machine.execute_unrolled_into(insts, 1, &mut trace),
            Executor::Reference => machine.execute_unrolled_reference_into(insts, 1, &mut trace),
        }
    }
}

/// Every byte of every mapped page, in mapping order.
fn mapped_bytes(mem: &Memory, pages: &[u64]) -> Vec<u8> {
    let mut out = vec![0u8; pages.len() * PAGE_SIZE as usize];
    for (chunk, &page) in out.chunks_exact_mut(PAGE_SIZE as usize).zip(pages) {
        mem.read(page, chunk).expect("mapped page reads");
    }
    out
}

/// Steps `unroll` copies of `block` on `executor`, mapping each faulting
/// page (one shared frame, or a frame per page) and retrying the
/// faulting instruction, and checks every fault left no trace. Returns
/// the number of faults checked.
fn faults_are_atomic(
    block: &BasicBlock,
    unroll: u32,
    per_page: bool,
    executor: Executor,
) -> Result<usize, TestCaseError> {
    let mut machine = Machine::new(Uarch::haswell(), 0);
    machine.reset(FILL);
    let mut pages: Vec<u64> = Vec::new();
    let mut shared: Option<PhysPage> = None;
    let mut checked = 0usize;
    for copy in 0..unroll {
        for (idx, inst) in block.insts().iter().enumerate() {
            loop {
                let state = machine.state().clone();
                let bytes = mapped_bytes(machine.memory(), &pages);
                let fault = match executor.step(&mut machine, inst) {
                    Ok(()) => break,
                    Err(fault) => fault,
                };
                checked += 1;
                let at = format!("{executor:?} copy {copy} inst {idx} `{inst}`: {fault}");
                prop_assert_eq!(machine.state(), &state, "registers or flags moved: {}", at);
                prop_assert!(
                    mapped_bytes(machine.memory(), &pages) == bytes,
                    "memory moved: {}",
                    at
                );
                let ExecFault::Seg(seg) = fault else {
                    return Ok(checked); // #DE, #GP, #UD: the monitor gives up
                };
                if seg.vaddr < 0x1000 || seg.vaddr >= 1 << 47 || pages.len() >= MAX_FAULTS {
                    return Ok(checked);
                }
                let mem = machine.memory_mut();
                let phys = if per_page {
                    mem.alloc_page(FILL)
                } else {
                    *shared.get_or_insert_with(|| mem.alloc_page(FILL))
                };
                mem.map(seg.vaddr, phys);
                pages.push(seg.vaddr & !(PAGE_SIZE - 1));
            }
        }
    }
    Ok(checked)
}

/// Both executors, which must also agree on how many faults they saw.
fn check_both(block: &BasicBlock, unroll: u32, per_page: bool) -> Result<usize, TestCaseError> {
    let lowered = faults_are_atomic(block, unroll, per_page, Executor::Lowered)?;
    let reference = faults_are_atomic(block, unroll, per_page, Executor::Reference)?;
    prop_assert_eq!(lowered, reference, "executors saw different fault counts");
    Ok(lowered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated blocks from every application profile, under both page
    /// policies, on both executors.
    #[test]
    fn generated_blocks_fault_atomically(
        seed in any::<u64>(),
        app_idx in 0usize..Application::ALL.len(),
        unroll in 1u32..6,
        per_page in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(Application::ALL[app_idx], &mut rng);
        if block.encode().is_err() {
            return Ok(());
        }
        check_both(&block, unroll, per_page)?;
    }
}

/// Hand-picked blocks whose faulting instruction has a side effect it
/// could leak: the stack pointer of `push`/`pop`, a load before a
/// faulting store, flags before a read-modify-write store, and accesses
/// that fault on the second of two pages. The fill pattern puts `rbx`
/// and `rsp` at `0x1234_5600`, so `+ 0x9fc` straddles a page boundary.
#[test]
fn corner_blocks_fault_atomically() {
    let corners = [
        "push rax\npop rbx\npush rcx",
        "push qword ptr [rbx + 0x3000]",
        "pop qword ptr [rbx + 0x2000]",
        "pop qword ptr [rsp + 0x4000]",
        "push rsp\npop rsp\npush rsp",
        "mov rax, qword ptr [rbx]\nmov qword ptr [rbx + 0x5000], rax",
        "add qword ptr [rbx + 0x9fc], rax\nadc rcx, rcx",
        "xor dword ptr [rbx + 0x6000], 1\nsbb rax, rdx",
        "inc qword ptr [rsp]\nneg qword ptr [rbx + 0x19fc]",
        "shl qword ptr [rbx + 0x7000], cl\nnot qword ptr [rbx + 0x8000]",
        "sete byte ptr [rbx + 0x9000]\ncmove rcx, qword ptr [rbx + 0xa000]",
        "movups xmmword ptr [rbx + 0x9f8], xmm0\nmovups xmm1, xmmword ptr [rbx + 0x29f8]",
        "addps xmm2, xmmword ptr [rbx + 0xb000]\nmovd dword ptr [rbx + 0xc000], xmm2",
        "mov ecx, 2\nshr rcx, 1\ndiv ecx",
    ];
    for text in corners {
        let block = bhive_asm::parse_block(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        for unroll in [1u32, 4] {
            for per_page in [false, true] {
                let checked =
                    check_both(&block, unroll, per_page).unwrap_or_else(|e| panic!("{text}: {e}"));
                // A corner that never faults checks nothing.
                assert!(checked > 0, "{text}: no fault");
            }
        }
    }
}
