//! # W32: the wearable RISC instruction set of the Stitch architecture
//!
//! This crate defines the instruction set executed by the in-order cores of
//! the Stitch many-core reproduction (Tan et al., ISCA 2018):
//!
//! - [`Reg`] / [`op::AluOp`] / [`instr::Instr`] — the architectural state and
//!   instruction forms, including the two-word *custom instructions* that
//!   drive the polymorphic patches;
//! - [`custom`] — the custom-instruction (ISE) descriptor table carried by a
//!   binary, with the 19-bit per-patch control words of the paper;
//! - [`mod@encode`] — the 32-bit binary encoding with a full decoder, so
//!   programs can round-trip through machine code;
//! - [`program`] — label-based [`program::ProgramBuilder`] plus the linked
//!   [`program::Program`] form consumed by the simulator;
//! - [`asm`] — a small text assembler for the same mnemonics;
//! - [`rec`] — the little-endian record codec every binary artifact of
//!   the workspace (store files, verified artifacts, sweep points, chip
//!   snapshots) is written and read with, with typed decode errors;
//! - [`hash`] — the one fast deterministic hasher for maps keyed by
//!   values the program makes itself.
//!
//! Operations are classified into the paper's four groups via
//! [`op::OpClass`]: arithmetic/logic (`A`), shift (`S`), multiply (`M`) and
//! local-memory access (`T`). The polymorphic patch templates
//! `{AT-MA}`, `{AT-AS}` and `{AT-SA}` are chains over these classes.
//!
//! ```
//! use stitch_isa::program::ProgramBuilder;
//! use stitch_isa::Reg;
//!
//! # fn main() -> Result<(), stitch_isa::IsaError> {
//! let mut b = ProgramBuilder::new();
//! let (t0, t1) = (Reg::R4, Reg::R5);
//! b.li(t0, 21);
//! b.addi(t1, t0, 21);
//! b.halt();
//! let program = b.build()?;
//! assert_eq!(program.instrs.len(), 3);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod custom;
pub mod encode;
pub mod hash;
pub mod instr;
pub mod op;
pub mod program;
pub mod rec;
pub mod reg;

pub use custom::{CiDescriptor, CiId, CiTable, CustomInstr};
pub use encode::{decode, decode_program, encode, encode_program};
pub use hash::{FastBuildHasher, FastHasher};
pub use instr::{Cond, Instr, Operand, Width};
pub use op::{AluOp, OpClass};
pub use program::{Program, ProgramBuilder};
pub use rec::{fnv1a64, DecodeError, OrCorrupt, Rec, RecView};
pub use reg::Reg;

use std::fmt;

/// Memory-map constants shared by the whole workspace.
///
/// The SPM is an extension of the main-memory address space (paper §III-C);
/// each core sees *its own* 4 KB scratchpad through the same window, and the
/// crossbar configuration registers of the inter-patch NoC are memory mapped.
pub mod memmap {
    /// Size of simulated DRAM in bytes (paper Table II: 512 MB).
    pub const DRAM_SIZE: u32 = 512 * 1024 * 1024;
    /// Base address of the per-tile scratchpad window.
    pub const SPM_BASE: u32 = 0x8000_0000;
    /// Size of each tile's scratchpad (paper §III-C: 4 KB suffices for all kernels).
    pub const SPM_SIZE: u32 = 4 * 1024;
    /// Base address of the memory-mapped crossbar configuration registers
    /// (one word per tile switch, paper §III-B).
    pub const XBAR_CFG_BASE: u32 = 0xF000_0000;

    /// Returns `true` if `addr` falls inside the scratchpad window.
    #[must_use]
    pub fn is_spm(addr: u32) -> bool {
        (SPM_BASE..SPM_BASE + SPM_SIZE).contains(&addr)
    }

    /// Returns `true` if `addr` is a crossbar configuration register.
    #[must_use]
    pub fn is_xbar_cfg(addr: u32) -> bool {
        (XBAR_CFG_BASE..XBAR_CFG_BASE + 64 * 4).contains(&addr)
    }
}

/// Errors produced while building, encoding or assembling W32 programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// An immediate operand does not fit the encoding field.
    ImmediateOutOfRange {
        /// Mnemonic of the offending instruction.
        what: &'static str,
        /// The value that did not fit.
        value: i64,
        /// Number of bits available.
        bits: u32,
    },
    /// A label was referenced but never bound to a position.
    UnboundLabel(String),
    /// A label was bound twice.
    DuplicateLabel(String),
    /// A branch target is outside the encodable displacement.
    BranchOutOfRange {
        /// Source instruction index.
        from: usize,
        /// Destination instruction index.
        to: usize,
    },
    /// The binary word stream could not be decoded.
    Decode {
        /// Offending word.
        word: u32,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Text-assembler syntax error.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Human-readable message.
        msg: String,
    },
    /// A custom instruction referenced a descriptor missing from the table.
    UnknownCi(u16),
    /// A custom instruction has an invalid operand arity.
    BadCiArity {
        /// Number of inputs requested.
        inputs: usize,
        /// Number of outputs requested.
        outputs: usize,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::ImmediateOutOfRange { what, value, bits } => {
                write!(
                    f,
                    "immediate {value} for {what} does not fit in {bits} bits"
                )
            }
            IsaError::UnboundLabel(l) => write!(f, "label `{l}` was never bound"),
            IsaError::DuplicateLabel(l) => write!(f, "label `{l}` bound twice"),
            IsaError::BranchOutOfRange { from, to } => {
                write!(
                    f,
                    "branch from instruction {from} to {to} exceeds displacement range"
                )
            }
            IsaError::Decode { word, reason } => {
                write!(f, "cannot decode word {word:#010x}: {reason}")
            }
            IsaError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            IsaError::UnknownCi(id) => write!(f, "custom instruction id {id} not in CI table"),
            IsaError::BadCiArity { inputs, outputs } => {
                write!(
                    f,
                    "custom instruction arity {inputs}-in/{outputs}-out exceeds 4-in/2-out"
                )
            }
        }
    }
}

impl std::error::Error for IsaError {}
