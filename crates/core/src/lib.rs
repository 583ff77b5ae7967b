//! # bhive
//!
//! A Rust reproduction of **BHive: A Benchmark Suite and Measurement
//! Framework for Validating x86-64 Basic Block Performance Models**
//! (IISWC 2019).
//!
//! This facade crate re-exports the full public surface of the suite:
//!
//! | Crate | Role |
//! |---|---|
//! | [`asm`] | x86-64 subset: parser, printer, encoder, decoder, [`asm::BasicBlock`] |
//! | [`uarch`] | Ivy Bridge / Haswell / Skylake port tables and uop recipes |
//! | [`sim`] | the simulated machine measurements are taken on |
//! | [`harness`] | the measurement framework (page-mapping monitor, two-factor unrolling, clean-trial filters) |
//! | [`corpus`] | the benchmark-suite generators and the paper's fixed blocks |
//! | [`models`] | the four throughput predictors under validation |
//! | [`learn`] | LDA, SGD regression, evaluation statistics |
//! | [`eval`] | experiment drivers — one per paper table/figure |
//! | [`serve`] | the `bhive serve` daemon: warm-cache throughput answers over a socket |
//!
//! The `bhive` binary exposes every experiment as a subcommand; run
//! `bhive help` for the list.
//!
//! # Quickstart
//!
//! ```
//! use bhive::harness::{ProfileConfig, Profiler};
//! use bhive::models::{IacaModel, ThroughputModel};
//! use bhive::uarch::Uarch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let block = bhive::asm::parse_block("xor edx, edx\ndiv ecx\ntest edx, edx")?;
//!
//! // Measure on the simulated Haswell.
//! let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive());
//! let measured = profiler.profile(&block)?.throughput;
//!
//! // Ask the IACA-like model.
//! let predicted = IacaModel::new(Uarch::haswell()).predict(&block).unwrap();
//!
//! // The paper's case study: measured ~21.6, IACA predicts ~98.
//! assert!(predicted > 2.0 * measured);
//! # Ok(())
//! # }
//! ```

pub use bhive_asm as asm;
pub use bhive_corpus as corpus;
pub use bhive_eval as eval;
pub use bhive_harness as harness;
pub use bhive_learn as learn;
pub use bhive_models as models;
pub use bhive_serve as serve;
pub use bhive_sim as sim;
pub use bhive_uarch as uarch;
