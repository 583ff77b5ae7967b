//! Feature extraction for the learned (Ithemal-like) model.

use bhive_asm::{BasicBlock, Mnemonic, MnemonicClass, Operand, VecWidth};
use bhive_uarch::{decompose, Uarch};
use std::collections::HashMap;

/// Number of features produced by [`block_features`].
pub const FEATURE_DIMS: usize = 31;

/// Extracts the feature vector the Ithemal-like regressor consumes.
///
/// The features are functions of the block text plus *publicly derivable*
/// structure (uop counts and analytic throughput bounds computed from the
/// port tables) — the kind of information a token-level neural model
/// learns to extract from raw assembly.
pub fn block_features(block: &BasicBlock, uarch: &Uarch) -> Vec<f64> {
    let mut n_loads = 0f64;
    let mut n_stores = 0f64;
    let mut n_vec = 0f64;
    let mut n_ymm = 0f64;
    let mut n_div = 0f64;
    let mut n_mul = 0f64;
    let mut n_shift = 0f64;
    let mut n_fp_arith = 0f64;
    let mut n_fma = 0f64;
    let mut n_shuffle = 0f64;
    let mut n_branchy = 0f64;
    let mut n_eliminated = 0f64;
    let mut uop_count = 0f64;
    let mut slot_count = 0f64;
    let mut pressure = [0f64; 8];
    let mut longest_blocking = 0f64;
    // Memory-dependence signals the static analyzers cannot act on but a
    // learned model can: pointer chasing (a loaded value later used as an
    // address) and store-to-load forwarding within the block.
    let mut n_ptr_chase = 0f64;
    let mut n_store_forward = 0f64;
    let mut loaded_regs: Vec<u8> = Vec::new();
    let mut store_sites: Vec<(Option<u8>, i32)> = Vec::new();

    for inst in block.iter() {
        let class = inst.mnemonic().class();
        if let Some(mem) = inst.mem_operand() {
            let site = (mem.base.map(|r| r.number()), mem.disp);
            for reg in mem.address_regs() {
                if loaded_regs.contains(&reg.number()) {
                    n_ptr_chase += 1.0;
                }
            }
            if inst.loads_memory() && store_sites.contains(&site) {
                n_store_forward += 1.0;
            }
            if inst.stores_memory() {
                store_sites.push(site);
            }
        }
        if inst.loads_memory() {
            n_loads += 1.0;
            for reg in inst.gpr_writes() {
                if !loaded_regs.contains(&reg.number()) {
                    loaded_regs.push(reg.number());
                }
            }
        }
        if inst.stores_memory() {
            n_stores += 1.0;
        }
        if inst.mnemonic().is_sse() {
            n_vec += 1.0;
        }
        if inst
            .operands()
            .iter()
            .any(|op| matches!(op, Operand::Vec(v) if v.width() == VecWidth::Ymm))
        {
            n_ymm += 1.0;
        }
        match class {
            MnemonicClass::Div | MnemonicClass::FpDiv | MnemonicClass::FpSqrt => n_div += 1.0,
            MnemonicClass::Mul | MnemonicClass::VecIntMul => n_mul += 1.0,
            MnemonicClass::Shift | MnemonicClass::VecShift => n_shift += 1.0,
            MnemonicClass::FpAdd | MnemonicClass::FpMul | MnemonicClass::Fma => {
                n_fp_arith += 1.0;
                if class == MnemonicClass::Fma {
                    n_fma += 1.0;
                }
            }
            MnemonicClass::VecShuffle => n_shuffle += 1.0,
            MnemonicClass::CondMove | MnemonicClass::CondSet | MnemonicClass::Branch => {
                n_branchy += 1.0;
            }
            _ => {}
        }
        let recipe = decompose(inst, uarch);
        if recipe.eliminated {
            n_eliminated += 1.0;
        }
        uop_count += recipe.uops.len() as f64;
        slot_count += f64::from(recipe.frontend_slots);
        for uop in &recipe.uops {
            let ports: Vec<_> = uop.ports.iter().collect();
            let share = f64::from(uop.blocking.max(1)) / ports.len().max(1) as f64;
            for p in ports {
                pressure[p.index() as usize] += share;
            }
            longest_blocking = longest_blocking.max(f64::from(uop.blocking));
        }
    }

    // Analytic bounds: port-pressure bound and a steady-state critical
    // path computed over two unrolled copies (difference isolates the
    // loop-carried chain).
    let pressure_bound = pressure.iter().copied().fold(0.0f64, f64::max);
    let chain2 = chain_depth(block, uarch, 2);
    let chain1 = chain_depth(block, uarch, 1);
    let carried_chain = (chain2 - chain1).max(0.0);
    let frontend_bound = slot_count / f64::from(uarch.issue_width);
    let max_bound = pressure_bound.max(carried_chain).max(frontend_bound);

    vec![
        block.len() as f64,
        block.encoded_len().unwrap_or(block.len() * 4) as f64,
        n_loads,
        n_stores,
        n_vec,
        n_ymm,
        n_div,
        n_mul,
        n_shift,
        n_fp_arith,
        n_fma,
        n_shuffle,
        n_branchy,
        n_eliminated,
        uop_count,
        slot_count,
        pressure_bound,
        chain1,
        carried_chain,
        frontend_bound,
        longest_blocking,
        // The max of the three classic bounds — itself a strong predictor
        // the learned model can calibrate.
        max_bound,
        // Log-scale copies of the bound features: the regression target is
        // log-throughput, so these make the dominant relationship linear.
        max_bound.max(1e-3).ln(),
        pressure_bound.max(1e-3).ln(),
        (carried_chain + 1.0).ln(),
        (frontend_bound + 1.0).ln(),
        (block.len() as f64).ln(),
        (uop_count + 1.0).ln(),
        (longest_blocking + 1.0).ln(),
        n_ptr_chase,
        n_store_forward,
    ]
}

/// Critical-path latency of `copies` unrolled copies of the block, using
/// per-uarch latencies and register/flag dependencies.
fn chain_depth(block: &BasicBlock, uarch: &Uarch, copies: usize) -> f64 {
    let mut ready: HashMap<u8, f64> = HashMap::new(); // gpr number -> ready time
    let mut vec_ready: HashMap<u8, f64> = HashMap::new();
    let mut flags_ready = 0f64;
    let mut depth = 0f64;

    for _ in 0..copies {
        for inst in block.iter() {
            let recipe = decompose(inst, uarch);
            let latency: f64 = recipe.uops.iter().map(|u| f64::from(u.latency)).sum();
            let mut start = 0f64;
            for reg in inst.gpr_reads() {
                start = start.max(*ready.get(&reg.number()).unwrap_or(&0.0));
            }
            for vec in inst.vec_reads() {
                start = start.max(*vec_ready.get(&vec.number()).unwrap_or(&0.0));
            }
            if matches!(
                inst.mnemonic(),
                Mnemonic::Adc | Mnemonic::Sbb | Mnemonic::Cmov | Mnemonic::Set | Mnemonic::Jcc
            ) {
                start = start.max(flags_ready);
            }
            let end = if recipe.eliminated {
                start
            } else {
                start + latency
            };
            for reg in inst.gpr_writes() {
                ready.insert(reg.number(), end);
            }
            for vec in inst.vec_writes() {
                vec_ready.insert(vec.number(), end);
            }
            if matches!(
                inst.mnemonic().class(),
                MnemonicClass::Alu | MnemonicClass::Shift | MnemonicClass::Mul
            ) {
                flags_ready = end;
            }
            depth = depth.max(end);
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_block;

    #[test]
    fn dims_are_stable() {
        let block = parse_block("add rax, 1\nmov rbx, qword ptr [rcx]").unwrap();
        let f = block_features(&block, Uarch::haswell());
        assert_eq!(f.len(), FEATURE_DIMS);
    }

    #[test]
    fn features_reflect_structure() {
        let scalar = parse_block("add rax, 1\nadd rbx, 2").unwrap();
        let vector = parse_block("vfmadd231ps ymm0, ymm1, ymm2").unwrap();
        let fs = block_features(&scalar, Uarch::haswell());
        let fv = block_features(&vector, Uarch::haswell());
        // Vector counts.
        assert_eq!(fs[4], 0.0);
        assert_eq!(fv[4], 1.0);
        assert_eq!(fv[5], 1.0, "ymm presence");
        assert_eq!(fv[10], 1.0, "fma count");
    }

    #[test]
    fn carried_chain_detects_dependences() {
        let chained = parse_block("imul rax, rax").unwrap();
        let independent = parse_block("imul rax, rbx").unwrap();
        let fc = block_features(&chained, Uarch::haswell());
        let fi = block_features(&independent, Uarch::haswell());
        // Feature 18 is the loop-carried chain.
        assert!(fc[18] >= 3.0, "chained imul: {}", fc[18]);
        // `imul rax, rbx` still chains through rax (it reads rax too),
        // so compare against a truly independent producer.
        let free = parse_block("mov rax, 1").unwrap();
        let ff = block_features(&free, Uarch::haswell());
        assert!(ff[18] <= fi[18]);
    }

    #[test]
    fn bound_feature_dominates() {
        let block = parse_block("div ecx").unwrap();
        let f = block_features(&block, Uarch::haswell());
        let max_bound = f[21];
        assert!(max_bound >= f[16] && max_bound >= f[18]);
        assert!(max_bound > 10.0, "divider occupancy dominates: {max_bound}");
        // And the log copy is consistent.
        assert!((f[22] - max_bound.ln()).abs() < 1e-9);
    }
}
