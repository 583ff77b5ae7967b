//! # bhive-models
//!
//! The four basic-block throughput predictors the paper validates,
//! reimplemented behind one [`ThroughputModel`] trait:
//!
//! * [`IacaModel`] — Intel's analyzer: it *knows* the proprietary
//!   optimizations of the (simulated) hardware — zero idioms, move
//!   elimination, micro-/macro-fusion — but carries the case-study bug of
//!   costing 64-by-32-bit division as the 128-by-64-bit form.
//! * [`McaModel`] — llvm-mca: the same scheduler skeleton driven by
//!   LLVM's *scheduling-model* tables, which miss zero idioms, collapse a
//!   load-op instruction into one serialized uop (the Fig. "scheduling"
//!   mis-scheduling), and are noticeably less tuned for Skylake.
//! * [`OsacaModel`] — a port-pressure analyzer with the instruction-parser
//!   gaps the paper reported upstream (immediate-to-memory forms silently
//!   treated as nops; byte-wide memory ALU forms rejected outright).
//! * [`IthemalModel`] — a learned predictor trained on measured corpus
//!   data ([`IthemalModel::train`]); best on average, but weak on
//!   vectorized blocks because the training distribution contains few of
//!   them — exactly the imbalance the Ithemal authors reported.
//!
//! A trivial [`BaselineTableModel`] (sum of per-instruction reciprocal
//! throughputs) is included for ablation.
//!
//! All static models share the [`schedule`]-producing port simulator in
//! this crate, so the `bhive fig-schedule`-style comparisons can show
//! *why* two models disagree, not just that they do.
//!
//! # Example
//!
//! ```
//! use bhive_models::{IacaModel, McaModel, ThroughputModel};
//! use bhive_uarch::Uarch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's zero-idiom case study: IACA recognizes the idiom,
//! // llvm-mca charges a full vector XOR.
//! let block = bhive_asm::parse_block("vxorps xmm2, xmm2, xmm2")?;
//! let iaca = IacaModel::new(Uarch::haswell());
//! let mca = McaModel::new(Uarch::haswell());
//! let iaca_tp = iaca.predict(&block).unwrap();
//! let mca_tp = mca.predict(&block).unwrap();
//! assert!(iaca_tp < 0.5 && mca_tp >= 0.9);
//! # Ok(())
//! # }
//! ```

mod baseline;
mod features;
mod iaca;
mod ithemal;
mod mca;
mod osaca;
mod perturb;
pub mod schedule;
mod scheduler;

pub use baseline::BaselineTableModel;
pub use features::block_features;
pub use iaca::IacaModel;
pub use ithemal::{IthemalConfig, IthemalModel};
pub use mca::McaModel;
pub use osaca::OsacaModel;
pub use schedule::{Schedule, ScheduledUop};

use bhive_asm::BasicBlock;
use bhive_uarch::{Uarch, UarchKind};

/// A basic-block (inverse-)throughput predictor.
///
/// Implementations return the predicted average number of cycles one
/// iteration of the block takes at steady state — IACA's definition of
/// throughput, used throughout the paper.
pub trait ThroughputModel: Send + Sync {
    /// Short tool name (`iaca`, `llvm-mca`, `ithemal`, `osaca`).
    fn name(&self) -> &'static str;

    /// The microarchitecture the model targets.
    fn uarch(&self) -> UarchKind;

    /// Predicts the block's steady-state cycles-per-iteration, or `None`
    /// when the tool cannot analyze the block (OSACA's parser failures,
    /// AVX2 blocks on Ivy Bridge, ...).
    fn predict(&self, block: &BasicBlock) -> Option<f64>;

    /// The predicted execution schedule, for simulator-style models that
    /// can produce one (IACA, llvm-mca). Learned models return `None`:
    /// as the paper notes, Ithemal reports a single number without an
    /// interpretable trace.
    fn schedule(&self, _block: &BasicBlock) -> Option<Schedule> {
        None
    }
}

/// True when a block cannot run on the given microarchitecture at all
/// (AVX2/FMA on Ivy Bridge); every model refuses such blocks.
pub(crate) fn isa_unsupported(block: &BasicBlock, uarch: &Uarch) -> bool {
    !uarch.supports_avx2 && block.uses_avx2()
}
