//! Micro-op lowering for the translated execution engine.
//!
//! The simulator's fast path (see `stitch-cpu`'s translated engine and
//! the chip's compute windows in `stitch-sim`) lowers each loaded W32
//! program once into the flat table defined here — one [`UOpSlot`] per
//! instruction, indexed by pc — instead of re-matching the [`Instr`]
//! tree on every executed instruction.
//!
//! Lowering is purely *structural*: operand registers and immediates are
//! pre-extracted, control-flow targets resolved against the program
//! text, and each micro-op carries its instruction-fetch footprint (word
//! offset and word count). No cycle costs are assigned here — latencies
//! are the executor's business, so the cycle model keeps living in
//! exactly one place per instruction class and the lowered form can
//! never drift from it.
//!
//! Because slot `i` models the instruction at pc `i`, the executor can
//! enter, stop (for horizon clamps) and hand back to the interpreter at
//! any pc. Instructions the translated engine must never retire on its
//! own — `send`/`recv` (NIC events), `halt` (liveness bookkeeping), and
//! statically out-of-range jump targets — lower to [`UOp::Exit`].

use crate::custom::{CiId, CustomInstr};
use crate::instr::{Cond, Instr, Operand, Width};
use crate::op::AluOp;
use crate::reg::Reg;

/// One lowered micro-op: one W32 instruction.
///
/// Operands are pre-extracted so the executor touches no [`Instr`]
/// variants on the hot path. `Custom`, `Store` and `Jalr` keep *runtime*
/// side conditions (unbound/faulted patches, crossbar-config stores,
/// out-of-range indirect targets) that the executor re-checks before
/// committing to inline execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UOp {
    /// No operation.
    Nop,
    /// Register-register ALU op: `rd = rs1 <op> rs2`.
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Register-immediate ALU op: `rd = rs1 <op> imm`.
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i32,
    },
    /// Load upper immediate with the shift pre-applied: `rd = val`.
    Lui {
        /// Destination register.
        rd: Reg,
        /// `imm << 12`, precomputed at lowering time.
        val: u32,
    },
    /// Memory load `rd = mem[base + offset]`.
    Load {
        /// Access width.
        w: Width,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Memory store `mem[base + offset] = rs`. The executor must bounce
    /// crossbar-config stores back to the interpreter (they reconfigure
    /// the inter-patch network, a chip-level event).
    Store {
        /// Access width.
        w: Width,
        /// Source data register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Custom (ISE) instruction with its operand plumbing pre-resolved.
    /// The executor inlines it only while the patch fabric is healthy
    /// and the CI is bound; otherwise it is a runtime side exit.
    Custom {
        /// CI-table index.
        id: CiId,
        /// The four raw input slots (unused slots read `r0`).
        ins: [Reg; 4],
        /// First output register, if any.
        out0: Option<Reg>,
        /// Second output register, if any.
        out1: Option<Reg>,
    },
    /// Conditional branch; falls through to the next pc when not taken.
    /// Lowered only when `target` is in range, so taken dispatch can
    /// never fault.
    Branch {
        /// Condition.
        cond: Cond,
        /// First comparison operand.
        rs1: Reg,
        /// Second comparison operand.
        rs2: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Unconditional jump-and-link; `rd` receives the next pc.
    Jal {
        /// Link destination register.
        rd: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Indirect jump-and-link through `rs`. The executor must bounce
    /// out-of-range runtime targets to the interpreter (which raises
    /// the architectural `BadTarget` fault with the exact partial
    /// effects of the real pipeline).
    Jalr {
        /// Link destination register.
        rd: Reg,
        /// Register holding the target instruction index.
        rs: Reg,
    },
    /// The interpreter must execute this instruction: `send`/`recv`/
    /// `halt`, or a `branch`/`jal` whose static target lies past the text.
    Exit,
}

/// A micro-op plus its instruction-fetch footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UOpSlot {
    /// Word offset of the instruction within the program text (the
    /// executor turns this into a byte address in fetch space).
    pub off: u32,
    /// Number of 32-bit words fetched (custom instructions are two).
    pub words: u32,
    /// The lowered operation.
    pub op: UOp,
}

/// Lowers one instruction of a text of `len` instructions.
///
/// A static jump target equal to `len` is legal (the *next* step faults
/// with `PcOutOfRange`); past it the jump itself faults in the
/// interpreter, so it lowers to [`UOp::Exit`].
#[must_use]
pub fn lower(instr: &Instr, len: u32) -> UOp {
    match *instr {
        Instr::Nop => UOp::Nop,
        Instr::Alu { op, rd, rs1, src2 } => match src2 {
            Operand::Reg(rs2) => UOp::AluRR { op, rd, rs1, rs2 },
            Operand::Imm(imm) => UOp::AluRI { op, rd, rs1, imm },
        },
        Instr::Lui { rd, imm } => UOp::Lui { rd, val: imm << 12 },
        Instr::Load {
            w,
            rd,
            base,
            offset,
        } => UOp::Load {
            w,
            rd,
            base,
            offset,
        },
        Instr::Store {
            w,
            rs,
            base,
            offset,
        } => UOp::Store {
            w,
            rs,
            base,
            offset,
        },
        Instr::Custom(ref ci) => lower_custom(ci),
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } if target <= len => UOp::Branch {
            cond,
            rs1,
            rs2,
            target,
        },
        Instr::Jal { rd, target } if target <= len => UOp::Jal { rd, target },
        Instr::Jalr { rd, rs } => UOp::Jalr { rd, rs },
        Instr::Branch { .. }
        | Instr::Jal { .. }
        | Instr::Halt
        | Instr::Send { .. }
        | Instr::Recv { .. } => UOp::Exit,
    }
}

/// Lowers a whole program text: slot `i` models the instruction at pc
/// `i`, with its word offset accumulated from the widths before it.
#[must_use]
pub fn lower_program(instrs: &[Instr]) -> Vec<UOpSlot> {
    let len = instrs.len() as u32;
    let mut off = 0;
    instrs
        .iter()
        .map(|instr| {
            let slot = UOpSlot {
                off,
                words: instr.words(),
                op: lower(instr, len),
            };
            off += slot.words;
            slot
        })
        .collect()
}

/// Lowers the custom instruction's operand plumbing.
fn lower_custom(ci: &CustomInstr) -> UOp {
    UOp::Custom {
        id: ci.ci,
        ins: ci.input_slots(),
        out0: ci.outputs().first().copied(),
        out1: ci.outputs().get(1).copied(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn straight_line_block_lowers_one_to_one() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 5);
        b.addi(Reg::R2, Reg::R1, 3);
        b.sw(Reg::R2, Reg::R1, 0);
        b.halt();
        let p = b.build().expect("program");
        let table = lower_program(&p.instrs);
        assert_eq!(table.len(), p.instrs.len());
        assert_eq!(table[3].op, UOp::Exit, "halt hands back to the interpreter");
        // Fetch footprints follow the word offsets.
        for (i, s) in table.iter().enumerate() {
            assert_eq!(s.off, i as u32);
            assert_eq!(s.words, 1);
        }
    }

    #[test]
    fn branch_terminates_block_with_resolved_targets() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 10);
        let top = b.bound_label();
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(Cond::Ne, Reg::R1, Reg::R0, top);
        b.halt();
        let p = b.build().expect("program");
        let table = lower_program(&p.instrs);
        match table[2].op {
            UOp::Branch { target, .. } => assert_eq!(target, 1),
            other => panic!("expected branch uop, got {other:?}"),
        }
    }

    #[test]
    fn mid_block_entry_is_legal() {
        // Lowering is per instruction, so the slot at any pc is exactly
        // that instruction lowered on its own: entering there is legal.
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        b.li(Reg::R2, 2);
        b.li(Reg::R3, 3);
        b.halt();
        let p = b.build().expect("program");
        let table = lower_program(&p.instrs);
        let len = p.instrs.len() as u32;
        for (i, instr) in p.instrs.iter().enumerate() {
            assert_eq!(table[i].op, lower(instr, len), "pc {i}");
        }
    }

    #[test]
    fn out_of_range_static_target_lowers_to_side_exit() {
        // Hand-assembled: a branch whose target is past the text end.
        let instrs = vec![
            Instr::Branch {
                cond: Cond::Eq,
                rs1: Reg::R0,
                rs2: Reg::R0,
                target: 99,
            },
            Instr::Halt,
        ];
        assert_eq!(lower_program(&instrs)[0].op, UOp::Exit);
        // `target == len` is legal (the next step faults, not the jump).
        let instrs = vec![Instr::Jal {
            rd: Reg::R0,
            target: 1,
        }];
        assert!(matches!(
            lower_program(&instrs)[0].op,
            UOp::Jal { target: 1, .. }
        ));
    }

    #[test]
    fn custom_lowering_preserves_operand_plumbing() {
        use crate::custom::{CiDescriptor, CiStage, PatchClass};
        let mut b = ProgramBuilder::new();
        let id = b.define_ci(CiDescriptor::single(
            CiId(0),
            "t",
            CiStage::new(PatchClass::AtMa, 0),
        ));
        b.li(Reg::R1, 20);
        b.custom(id, &[Reg::R1, Reg::R2], &[Reg::R3, Reg::R4])
            .expect("custom");
        b.halt();
        let p = b.build().expect("program");
        let table = lower_program(&p.instrs);
        assert_eq!(table[1].words, 2, "custom instructions are two words");
        assert_eq!(table[2].off, 3, "the halt follows the custom's two words");
        match table[1].op {
            UOp::Custom {
                id,
                ins,
                out0,
                out1,
            } => {
                assert_eq!(id, CiId(0));
                assert_eq!(ins, [Reg::R1, Reg::R2, Reg::R0, Reg::R0]);
                assert_eq!(out0, Some(Reg::R3));
                assert_eq!(out1, Some(Reg::R4));
            }
            other => panic!("expected custom uop, got {other:?}"),
        }
    }
}
