//! # In-order core model
//!
//! A single-issue, in-order pipeline executing the W32 ISA at cycle
//! granularity, with the polymorphic patch integrated in parallel to the
//! execute stage (paper §VI-D). The core is platform-agnostic: the chip
//! simulator implements [`Platform`] to supply memory, the NIC, and patch
//! execution (local or fused over the inter-patch NoC).
//!
//! ## Timing model (documented in DESIGN.md)
//!
//! | event | cycles |
//! |---|---|
//! | ALU / shift / branch not taken | 1 |
//! | multiply (`mul`, `mulh`) | [`MUL_LATENCY`] |
//! | taken branch / jump | 1 + [`BRANCH_PENALTY`] |
//! | load/store | 1 on D$/SPM hit, +30 on miss |
//! | custom instruction | 1 (single-cycle, even when fused) |
//! | `send` (n words) | 1 + n (NIC copy) |
//! | `recv` (n words) | 1 + n once the message arrived; polls while empty |
//!
//! Instruction fetch goes through the I-cache; a miss stalls the front end
//! for the DRAM latency. Custom instructions occupy two words but issue in
//! a single cycle once fetched (both words must be resident).

pub mod core;
pub mod stats;
pub mod translate;
#[cfg(test)]
mod uop;

pub use crate::core::{Core, CoreSnapshot, CoreState, CustomOutcome, Platform, StepOutcome};
pub use stats::CoreStats;
pub use translate::{LaneHost, LaneRun, TransCache, WindowParams};

/// Multiply latency on the base pipeline, in cycles. The open-source
/// Amber core the paper synthesizes uses an iterative multiplier (tens of
/// cycles); we model a conservative 6-cycle multiply. The multiplier in
/// an `{AT-MA}` patch executes within the single-cycle custom
/// instruction — the key reason multiply-rich kernels favour those
/// patches.
pub const MUL_LATENCY: u32 = 8;

/// Extra cycles paid by a taken branch or jump (pipeline refill).
pub const BRANCH_PENALTY: u32 = 2;

use std::fmt;
use stitch_isa::custom::CiId;

/// Errors surfaced while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuError {
    /// PC left the program text.
    PcOutOfRange {
        /// The offending instruction index.
        pc: u32,
    },
    /// A custom instruction had no binding for this tile (the stitcher
    /// never allocated a patch for it).
    UnboundCustom(CiId),
    /// A receive found a message of unexpected length.
    MessageLengthMismatch {
        /// Words expected by the `recv`.
        expected: u32,
        /// Words in the arrived message.
        got: u32,
    },
    /// Jump/branch target outside the text.
    BadTarget {
        /// The target instruction index.
        target: u32,
    },
    /// A `send` named a destination tile that does not exist on this
    /// chip. Left unchecked, such a flit would route toward
    /// out-of-mesh coordinates and wedge the network forever; the
    /// platform rejects it before injection instead.
    BadSendTarget {
        /// The destination tile id the program supplied.
        target: u32,
    },
    /// A custom instruction hit a faulted patch or severed fused circuit
    /// while the active fault plan forbids graceful degradation (strict
    /// mode). The chip simulator translates this into its typed
    /// `SimError::Faulted`.
    PatchFaulted {
        /// The custom instruction that detected the fault.
        ci: CiId,
        /// What was found broken.
        kind: PatchFaultKind,
    },
}

/// Hardware component a strict-mode custom instruction found broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchFaultKind {
    /// The local patch datapath is dead.
    PatchDead,
    /// The fused partner patch or a crossbar switch on the circuit is
    /// dead, so the inter-patch handshake cannot complete.
    CircuitDead,
}

impl fmt::Display for PatchFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchFaultKind::PatchDead => write!(f, "patch datapath dead"),
            PatchFaultKind::CircuitDead => write!(f, "fused circuit severed"),
        }
    }
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program text"),
            CpuError::UnboundCustom(id) => {
                write!(
                    f,
                    "custom instruction {id} has no patch binding on this tile"
                )
            }
            CpuError::MessageLengthMismatch { expected, got } => {
                write!(f, "recv expected {expected} words, message has {got}")
            }
            CpuError::BadTarget { target } => write!(f, "control transfer to {target}"),
            CpuError::BadSendTarget { target } => {
                write!(f, "send addressed to nonexistent tile {target}")
            }
            CpuError::PatchFaulted { ci, kind } => {
                write!(f, "custom instruction {ci} hit a hardware fault: {kind}")
            }
        }
    }
}

impl std::error::Error for CpuError {}
