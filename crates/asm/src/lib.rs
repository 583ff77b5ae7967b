//! # bhive-asm
//!
//! x86-64 instruction representation for the BHive-rs benchmark suite.
//!
//! This crate provides the assembly-level substrate every other crate builds
//! on:
//!
//! * typed registers ([`Gpr`], [`VecReg`]), operands ([`Operand`], [`MemRef`])
//!   and instructions ([`Inst`], [`Mnemonic`]);
//! * an Intel-syntax parser ([`parse_inst`], [`parse_block`]) and printer
//!   (`Display` impls);
//! * a binary encoder/decoder for the supported subset
//!   ([`encode_inst`], [`decode_inst`]) producing real x86-64 machine code
//!   (REX/VEX/ModRM/SIB) — encoded lengths drive the instruction-cache model
//!   in `bhive-sim`;
//! * [`BasicBlock`], the unit of profiling, with the hex wire format used by
//!   the published BHive suite.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), bhive_asm::AsmError> {
//! use bhive_asm::{parse_block, BasicBlock};
//!
//! let block = parse_block(
//!     "add rdi, 1\n\
//!      mov eax, edx\n\
//!      shr rdx, 8\n\
//!      xor al, byte ptr [rdi - 1]\n\
//!      movzx eax, al\n\
//!      xor rdx, qword ptr [8*rax + 0x4110a]\n\
//!      cmp rdi, rcx",
//! )?;
//! assert_eq!(block.len(), 7);
//! let bytes = block.encode()?;
//! let round_trip = BasicBlock::decode(&bytes)?;
//! assert_eq!(block, round_trip);
//! # Ok(())
//! # }
//! ```

mod att;
mod block;
mod cond;
mod decode;
mod encode;
mod error;
mod inst;
mod operand;
mod parse;
mod print;
mod reg;
mod spec;

pub use att::{parse_block_att, parse_inst_att};
pub use block::{fnv1a_64, BasicBlock, BlockBuilder, InstSpans};
pub use cond::Cond;
pub use decode::{decode_inst, decode_stream};
pub use encode::{encode_inst, encoded_len};
pub use error::AsmError;
pub use inst::{Inst, Mnemonic, MnemonicClass};
pub use operand::{MemRef, Operand, Scale};
pub use parse::{parse_block, parse_inst};
pub use reg::{Gpr, OpSize, VecReg, VecWidth};
