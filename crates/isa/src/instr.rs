//! Instruction forms of the W32 ISA.

use crate::custom::CustomInstr;
use crate::op::AluOp;
use crate::reg::Reg;
use std::fmt;

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 8-bit access (zero-extended on load).
    Byte,
    /// 16-bit access (zero-extended on load).
    Half,
    /// 32-bit access.
    Word,
}

impl Width {
    /// Size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
        }
    }

    /// Encoding code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Width::Byte => 0,
            Width::Half => 1,
            Width::Word => 2,
        }
    }

    /// Inverse of [`Width::code`].
    #[must_use]
    pub fn from_code(c: u8) -> Option<Width> {
        match c {
            0 => Some(Width::Byte),
            1 => Some(Width::Half),
            2 => Some(Width::Word),
            _ => None,
        }
    }
}

/// Branch condition, evaluated on two register operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// All conditions in encoding order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];

    /// Evaluates the condition.
    #[must_use]
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// Encoding code.
    #[must_use]
    pub fn code(self) -> u8 {
        // Every variant appears in `ALL` in declaration order (pinned
        // by the encode/decode roundtrip tests); the discriminant is
        // the panic-free fallback should they ever diverge.
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .unwrap_or(self as usize) as u8
    }

    /// Inverse of [`Cond::code`].
    #[must_use]
    pub fn from_code(c: u8) -> Option<Cond> {
        Self::ALL.get(c as usize).copied()
    }

    /// Branch mnemonic (`beq`, `bne`, ...).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        }
    }
}

/// Second ALU operand: register or sign-extended 11-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand (must fit in 11 signed bits for encoding).
    Imm(i32),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// A single W32 instruction with *resolved* control-flow targets
/// (absolute instruction indices within the program text).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// No operation.
    Nop,
    /// ALU operation `rd = rs1 <op> src2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// Load upper immediate: `rd = imm << 12`.
    Lui {
        /// Destination register.
        rd: Reg,
        /// 20-bit immediate placed in the upper bits.
        imm: u32,
    },
    /// Memory load `rd = mem[base + offset]`.
    Load {
        /// Access width.
        w: Width,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset (14-bit).
        offset: i32,
    },
    /// Memory store `mem[base + offset] = rs`.
    Store {
        /// Access width.
        w: Width,
        /// Source data register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset (14-bit).
        offset: i32,
    },
    /// Conditional branch to absolute instruction index `target`.
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
    /// Jump-and-link to absolute instruction index; `rd` receives the
    /// return instruction index (use `Reg::R0` for a plain jump).
    Jal {
        /// Link destination register.
        rd: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Indirect jump-and-link through `rs` (holds an instruction index).
    Jalr {
        /// Link destination register.
        rd: Reg,
        /// Register holding the target instruction index.
        rs: Reg,
    },
    /// Custom (ISE) instruction executed on a polymorphic patch.
    Custom(CustomInstr),
    /// Send `len` words starting at local address `addr` to tile `dst`
    /// (register operands; NIC-assisted, blocking until enqueued).
    Send {
        /// Register holding the destination tile id.
        dst: Reg,
        /// Register holding the source byte address.
        addr: Reg,
        /// Register holding the word count.
        len: Reg,
    },
    /// Blocking receive of `len` words from tile `src` into address `addr`.
    Recv {
        /// Register holding the expected source tile id.
        src: Reg,
        /// Register holding the destination byte address.
        addr: Reg,
        /// Register holding the word count.
        len: Reg,
    },
    /// Stop the core.
    Halt,
}

impl Instr {
    /// Registers read by this instruction (for dataflow analysis).
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(4);
        self.each_use(|r| v.push(r));
        v
    }

    /// [`Instr::uses`] as a register mask (bit *i* = `r<i>`), without
    /// allocating.
    #[must_use]
    pub fn use_mask(&self) -> u32 {
        let mut m = 0;
        self.each_use(|r| m |= 1 << r.index());
        m
    }

    /// Calls `f` on every register read, in operand order, skipping `r0`.
    fn each_use(&self, mut f: impl FnMut(Reg)) {
        let mut read = |r: Reg| {
            if !r.is_zero() {
                f(r);
            }
        };
        match self {
            Instr::Nop | Instr::Halt | Instr::Lui { .. } | Instr::Jal { .. } => {}
            Instr::Alu { rs1, src2, .. } => {
                read(*rs1);
                if let Operand::Reg(r) = src2 {
                    read(*r);
                }
            }
            Instr::Load { base, .. } => read(*base),
            Instr::Store { rs, base, .. } => {
                read(*rs);
                read(*base);
            }
            Instr::Branch { rs1, rs2, .. } => {
                read(*rs1);
                read(*rs2);
            }
            Instr::Jalr { rs, .. } => read(*rs),
            Instr::Custom(ci) => {
                for &r in ci.inputs() {
                    read(r);
                }
            }
            Instr::Send { dst, addr, len } => {
                read(*dst);
                read(*addr);
                read(*len);
            }
            Instr::Recv { src, addr, len } => {
                read(*src);
                read(*addr);
                read(*len);
            }
        }
    }

    /// Registers written by this instruction.
    #[must_use]
    pub fn defs(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(2);
        self.each_def(|r| v.push(r));
        v
    }

    /// [`Instr::defs`] as a register mask (bit *i* = `r<i>`), without
    /// allocating.
    #[must_use]
    pub fn def_mask(&self) -> u32 {
        let mut m = 0;
        self.each_def(|r| m |= 1 << r.index());
        m
    }

    /// Calls `f` on every register written, in operand order, skipping
    /// `r0`.
    fn each_def(&self, mut f: impl FnMut(Reg)) {
        let mut write = |r: Reg| {
            if !r.is_zero() {
                f(r);
            }
        };
        match self {
            Instr::Alu { rd, .. }
            | Instr::Lui { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. } => write(*rd),
            Instr::Custom(ci) => {
                for &r in ci.outputs() {
                    write(r);
                }
            }
            _ => {}
        }
    }

    /// Returns `true` if this instruction ends a basic block
    /// (branch, jump, halt, send/recv act as scheduling barriers).
    #[must_use]
    pub fn is_block_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. }
                | Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Halt
                | Instr::Send { .. }
                | Instr::Recv { .. }
        )
    }

    /// Number of 32-bit words this instruction occupies in the binary
    /// (custom instructions are two words, paper §III-A).
    #[must_use]
    pub fn words(&self) -> u32 {
        match self {
            Instr::Custom(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Nop => write!(f, "nop"),
            Instr::Alu { op, rd, rs1, src2 } => match src2 {
                Operand::Reg(_) => write!(f, "{op} {rd}, {rs1}, {src2}"),
                Operand::Imm(_) => write!(f, "{op}i {rd}, {rs1}, {src2}"),
            },
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Instr::Load {
                w,
                rd,
                base,
                offset,
            } => {
                write!(f, "l{} {rd}, {offset}({base})", width_suffix(*w))
            }
            Instr::Store {
                w,
                rs,
                base,
                offset,
            } => {
                write!(f, "s{} {rs}, {offset}({base})", width_suffix(*w))
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                write!(f, "{} {rs1}, {rs2}, @{target}", cond.mnemonic())
            }
            Instr::Jal { rd, target } => {
                if rd.is_zero() {
                    write!(f, "j @{target}")
                } else {
                    write!(f, "jal {rd}, @{target}")
                }
            }
            Instr::Jalr { rd, rs } => {
                if rd.is_zero() {
                    write!(f, "jr {rs}")
                } else {
                    write!(f, "jalr {rd}, {rs}")
                }
            }
            Instr::Custom(ci) => write!(f, "{ci}"),
            Instr::Send { dst, addr, len } => write!(f, "send {dst}, {addr}, {len}"),
            Instr::Recv { src, addr, len } => write!(f, "recv {src}, {addr}, {len}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

fn width_suffix(w: Width) -> &'static str {
    match w {
        Width::Byte => "b",
        Width::Half => "h",
        Width::Word => "w",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(u32::MAX, 0), "-1 < 0 signed");
        assert!(!Cond::Ltu.eval(u32::MAX, 0));
        assert!(Cond::Ge.eval(0, u32::MAX));
        assert!(Cond::Geu.eval(u32::MAX, u32::MAX));
        for c in Cond::ALL {
            assert_eq!(Cond::from_code(c.code()), Some(c));
        }
    }

    #[test]
    fn uses_and_defs() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::R3,
            rs1: Reg::R1,
            src2: Operand::Reg(Reg::R2),
        };
        assert_eq!(i.uses(), vec![Reg::R1, Reg::R2]);
        assert_eq!(i.defs(), vec![Reg::R3]);

        let st = Instr::Store {
            w: Width::Word,
            rs: Reg::R4,
            base: Reg::R5,
            offset: 8,
        };
        assert_eq!(st.uses(), vec![Reg::R4, Reg::R5]);
        assert!(st.defs().is_empty());

        // Zero register never appears in use/def sets.
        let z = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::R0,
            rs1: Reg::R0,
            src2: Operand::Imm(1),
        };
        assert!(z.uses().is_empty());
        assert!(z.defs().is_empty());
        assert_eq!((z.use_mask(), z.def_mask()), (0, 0));
    }

    #[test]
    fn masks_match_the_register_lists() {
        let mask = |regs: Vec<Reg>| regs.iter().fold(0u32, |m, r| m | (1 << r.index()));
        let ci = CustomInstr::new(
            crate::CiId(0),
            &[Reg::R7, Reg::R0, Reg::R9],
            &[Reg::R10, Reg::R11],
        )
        .expect("custom instruction");
        let instrs = [
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg::R3,
                rs1: Reg::R1,
                src2: Operand::Reg(Reg::R2),
            },
            Instr::Store {
                w: Width::Word,
                rs: Reg::R4,
                base: Reg::R5,
                offset: 8,
            },
            Instr::Jal {
                rd: Reg::R31,
                target: 0,
            },
            Instr::Send {
                dst: Reg::R1,
                addr: Reg::R2,
                len: Reg::R3,
            },
            Instr::Custom(ci),
            Instr::Halt,
        ];
        for i in &instrs {
            assert_eq!(i.use_mask(), mask(i.uses()), "{i}");
            assert_eq!(i.def_mask(), mask(i.defs()), "{i}");
        }
        assert_eq!(Instr::Custom(ci).uses(), vec![Reg::R7, Reg::R9]);
    }

    #[test]
    fn terminators() {
        assert!(Instr::Halt.is_block_terminator());
        assert!(Instr::Jal {
            rd: Reg::R0,
            target: 0
        }
        .is_block_terminator());
        assert!(!Instr::Nop.is_block_terminator());
    }

    #[test]
    fn display_forms() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::R3,
            rs1: Reg::R1,
            src2: Operand::Imm(-4),
        };
        assert_eq!(i.to_string(), "addi r3, r1, -4");
        let l = Instr::Load {
            w: Width::Word,
            rd: Reg::R2,
            base: Reg::SP,
            offset: 12,
        };
        assert_eq!(l.to_string(), "lw r2, 12(sp)");
    }

    #[test]
    fn width_codes() {
        for w in [Width::Byte, Width::Half, Width::Word] {
            assert_eq!(Width::from_code(w.code()), Some(w));
        }
        assert_eq!(Width::from_code(3), None);
        assert_eq!(Width::Word.bytes(), 4);
    }
}
