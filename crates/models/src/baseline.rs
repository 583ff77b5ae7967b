//! A naive additive per-instruction table model (ablation baseline).

use crate::{isa_unsupported, ThroughputModel};
use bhive_asm::BasicBlock;
use bhive_uarch::{decompose, Uarch, UarchKind};

/// The simplest possible cost model: sum of per-instruction reciprocal
/// throughputs, ignoring parallelism between instructions entirely.
///
/// This is the "per-instruction cost table" approach the paper's
/// Background section describes as insufficient ("they do not lead
/// directly to validating performance models at basic block level") —
/// included as an ablation baseline for the evaluation.
#[derive(Debug, Clone)]
pub struct BaselineTableModel {
    uarch: &'static Uarch,
}

impl BaselineTableModel {
    /// A baseline on `uarch`'s tables.
    pub fn new(uarch: &'static Uarch) -> BaselineTableModel {
        BaselineTableModel { uarch }
    }
}

impl ThroughputModel for BaselineTableModel {
    fn name(&self) -> &'static str {
        "inst-table"
    }

    fn uarch(&self) -> UarchKind {
        self.uarch.kind
    }

    fn predict(&self, block: &BasicBlock) -> Option<f64> {
        if block.is_empty() || isa_unsupported(block, self.uarch) {
            return None;
        }
        let mut total = 0.0f64;
        for inst in block.iter() {
            let recipe = decompose(inst, self.uarch);
            if recipe.eliminated {
                total += 0.25; // rename slot
                continue;
            }
            // Reciprocal throughput of the instruction in isolation:
            // the busiest port's occupancy.
            let mut pressure = [0f64; 8];
            for uop in &recipe.uops {
                let ports: Vec<_> = uop.ports.iter().collect();
                let share = f64::from(uop.blocking.max(1)) / ports.len().max(1) as f64;
                for p in ports {
                    pressure[p.index() as usize] += share;
                }
            }
            total += pressure.iter().copied().fold(0.0f64, f64::max);
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_block;

    #[test]
    fn additive_model_ignores_parallelism() {
        let model = BaselineTableModel::new(Uarch::haswell());
        let one = parse_block("add rax, 1").unwrap();
        let four = parse_block("add rax, 1\nadd rbx, 1\nadd rcx, 1\nadd rsi, 1").unwrap();
        let t1 = model.predict(&one).unwrap();
        let t4 = model.predict(&four).unwrap();
        assert!(
            (t4 - 4.0 * t1).abs() < 1e-9,
            "purely additive: {t1} vs {t4}"
        );
    }

    #[test]
    fn divider_dominates() {
        let model = BaselineTableModel::new(Uarch::haswell());
        let tp = model.predict(&parse_block("div ecx").unwrap()).unwrap();
        assert!(tp > 15.0, "{tp}");
    }
}
