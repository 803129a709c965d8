//! Binary encoding of W32 instructions.
//!
//! Every instruction occupies one 32-bit word except custom instructions,
//! which are two words (the second word carries the remaining operand
//! specifiers — the paper's "two-word size custom instruction"). Branch and
//! jump displacements are PC-relative in *words*; the [`Instr`] form stores
//! absolute instruction indices, and [`encode_program`]/[`decode_program`]
//! translate between the two.

use crate::custom::{CiId, CustomInstr};
use crate::instr::{Cond, Instr, Operand, Width};
use crate::op::AluOp;
use crate::reg::Reg;
use crate::IsaError;

/// Instruction opcodes (bits `[31:26]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
enum Opcode {
    Nop = 0,
    AluRr = 1,
    AluRi = 2,
    Lui = 3,
    Load = 4,
    Store = 5,
    Branch = 6,
    Jal = 7,
    Jalr = 8,
    Custom = 9,
    Send = 10,
    Recv = 11,
    Halt = 12,
}

fn field(value: u32, shift: u32, bits: u32) -> u32 {
    (value & ((1 << bits) - 1)) << shift
}

fn extract(word: u32, shift: u32, bits: u32) -> u32 {
    (word >> shift) & ((1 << bits) - 1)
}

fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn check_signed(what: &'static str, value: i64, bits: u32) -> Result<u32, IsaError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if value < min || value > max {
        return Err(IsaError::ImmediateOutOfRange { what, value, bits });
    }
    Ok((value as u32) & ((1 << bits) - 1))
}

fn reg_at(word: u32, shift: u32) -> Result<Reg, IsaError> {
    Reg::from_index(extract(word, shift, 5) as u8).ok_or(IsaError::Decode {
        word,
        reason: "bad register field",
    })
}

/// Encodes one instruction located at word address `pc` (in words).
///
/// Returns the encoded words (one or two).
///
/// # Errors
///
/// Fails when an immediate or displacement exceeds its field width.
pub fn encode(
    instr: &Instr,
    pc: u32,
    target_words: impl Fn(u32) -> u32,
) -> Result<Vec<u32>, IsaError> {
    let (words, n) = encode_words(instr, pc, target_words)?;
    Ok(words[..n].to_vec())
}

/// [`encode`] without allocating: the words in a fixed pair, and how
/// many of them the instruction uses.
fn encode_words(
    instr: &Instr,
    pc: u32,
    target_words: impl Fn(u32) -> u32,
) -> Result<([u32; 2], usize), IsaError> {
    let op = |o: Opcode| (o as u32) << 26;
    let one = |w: u32| Ok(([w, 0], 1));
    match instr {
        Instr::Nop => one(op(Opcode::Nop)),
        Instr::Halt => one(op(Opcode::Halt)),
        Instr::Alu {
            op: aop,
            rd,
            rs1,
            src2,
        } => match src2 {
            Operand::Reg(rs2) => one(op(Opcode::AluRr)
                | field(aop.code().into(), 22, 4)
                | field(rd.index().into(), 17, 5)
                | field(rs1.index().into(), 12, 5)
                | field(rs2.index().into(), 7, 5)),
            Operand::Imm(imm) => {
                let enc = check_signed("alu immediate", i64::from(*imm), 12)?;
                one(op(Opcode::AluRi)
                    | field(aop.code().into(), 22, 4)
                    | field(rd.index().into(), 17, 5)
                    | field(rs1.index().into(), 12, 5)
                    | field(enc, 0, 12))
            }
        },
        Instr::Lui { rd, imm } => {
            if *imm >= (1 << 20) {
                return Err(IsaError::ImmediateOutOfRange {
                    what: "lui",
                    value: i64::from(*imm),
                    bits: 20,
                });
            }
            one(op(Opcode::Lui) | field(rd.index().into(), 21, 5) | field(*imm, 0, 20))
        }
        Instr::Load {
            w,
            rd,
            base,
            offset,
        } => {
            let enc = check_signed("load offset", i64::from(*offset), 14)?;
            one(op(Opcode::Load)
                | field(w.code().into(), 24, 2)
                | field(rd.index().into(), 19, 5)
                | field(base.index().into(), 14, 5)
                | field(enc, 0, 14))
        }
        Instr::Store {
            w,
            rs,
            base,
            offset,
        } => {
            let enc = check_signed("store offset", i64::from(*offset), 14)?;
            one(op(Opcode::Store)
                | field(w.code().into(), 24, 2)
                | field(rs.index().into(), 19, 5)
                | field(base.index().into(), 14, 5)
                | field(enc, 0, 14))
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let disp = i64::from(target_words(*target)) - i64::from(pc);
            let enc = check_signed("branch displacement", disp, 13)?;
            one(op(Opcode::Branch)
                | field(cond.code().into(), 23, 3)
                | field(rs1.index().into(), 18, 5)
                | field(rs2.index().into(), 13, 5)
                | field(enc, 0, 13))
        }
        Instr::Jal { rd, target } => {
            let disp = i64::from(target_words(*target)) - i64::from(pc);
            let enc = check_signed("jump displacement", disp, 21)?;
            one(op(Opcode::Jal) | field(rd.index().into(), 21, 5) | field(enc, 0, 21))
        }
        Instr::Jalr { rd, rs } => one(op(Opcode::Jalr)
            | field(rd.index().into(), 21, 5)
            | field(rs.index().into(), 16, 5)),
        Instr::Send { dst, addr, len } => one(op(Opcode::Send)
            | field(dst.index().into(), 21, 5)
            | field(addr.index().into(), 16, 5)
            | field(len.index().into(), 11, 5)),
        Instr::Recv { src, addr, len } => one(op(Opcode::Recv)
            | field(src.index().into(), 21, 5)
            | field(addr.index().into(), 16, 5)
            | field(len.index().into(), 11, 5)),
        Instr::Custom(ci) => {
            let ins = ci.input_slots();
            let outs = ci.outputs();
            let w0 = op(Opcode::Custom)
                | field(u32::from(ci.ci.0), 16, 10)
                | field(ins[0].index().into(), 11, 5)
                | field(ins[1].index().into(), 6, 5)
                | field(ci.inputs().len() as u32, 3, 3)
                | field(outs.len() as u32, 1, 2);
            let out0 = outs.first().copied().unwrap_or(Reg::R0);
            let out1 = outs.get(1).copied().unwrap_or(Reg::R0);
            let w1 = field(ins[2].index().into(), 27, 5)
                | field(ins[3].index().into(), 22, 5)
                | field(out0.index().into(), 17, 5)
                | field(out1.index().into(), 12, 5);
            Ok(([w0, w1], 2))
        }
    }
}

/// Decodes the instruction at word address `pc`.
///
/// `words` is the remaining word stream starting at `pc`. Returns the
/// instruction (with control-flow targets still expressed as *word*
/// addresses; see [`decode_program`]) and the number of words consumed.
///
/// # Errors
///
/// Fails on unknown opcodes or malformed fields.
#[inline]
pub fn decode(words: &[u32], pc: u32) -> Result<(Instr, u32), IsaError> {
    let word = *words.first().ok_or(IsaError::Decode {
        word: 0,
        reason: "empty stream",
    })?;
    let opcode = word >> 26;
    let instr = match opcode {
        x if x == Opcode::Nop as u32 => Instr::Nop,
        x if x == Opcode::Halt as u32 => Instr::Halt,
        x if x == Opcode::AluRr as u32 => {
            let aop = AluOp::from_code(extract(word, 22, 4) as u8).ok_or(IsaError::Decode {
                word,
                reason: "bad alu op",
            })?;
            Instr::Alu {
                op: aop,
                rd: reg_at(word, 17)?,
                rs1: reg_at(word, 12)?,
                src2: Operand::Reg(reg_at(word, 7)?),
            }
        }
        x if x == Opcode::AluRi as u32 => {
            let aop = AluOp::from_code(extract(word, 22, 4) as u8).ok_or(IsaError::Decode {
                word,
                reason: "bad alu op",
            })?;
            Instr::Alu {
                op: aop,
                rd: reg_at(word, 17)?,
                rs1: reg_at(word, 12)?,
                src2: Operand::Imm(sign_extend(extract(word, 0, 12), 12)),
            }
        }
        x if x == Opcode::Lui as u32 => Instr::Lui {
            rd: reg_at(word, 21)?,
            imm: extract(word, 0, 20),
        },
        x if x == Opcode::Load as u32 => Instr::Load {
            w: Width::from_code(extract(word, 24, 2) as u8).ok_or(IsaError::Decode {
                word,
                reason: "bad width",
            })?,
            rd: reg_at(word, 19)?,
            base: reg_at(word, 14)?,
            offset: sign_extend(extract(word, 0, 14), 14),
        },
        x if x == Opcode::Store as u32 => Instr::Store {
            w: Width::from_code(extract(word, 24, 2) as u8).ok_or(IsaError::Decode {
                word,
                reason: "bad width",
            })?,
            rs: reg_at(word, 19)?,
            base: reg_at(word, 14)?,
            offset: sign_extend(extract(word, 0, 14), 14),
        },
        x if x == Opcode::Branch as u32 => {
            let cond = Cond::from_code(extract(word, 23, 3) as u8).ok_or(IsaError::Decode {
                word,
                reason: "bad condition",
            })?;
            let disp = sign_extend(extract(word, 0, 13), 13);
            Instr::Branch {
                cond,
                rs1: reg_at(word, 18)?,
                rs2: reg_at(word, 13)?,
                target: pc.wrapping_add_signed(disp),
            }
        }
        x if x == Opcode::Jal as u32 => {
            let disp = sign_extend(extract(word, 0, 21), 21);
            Instr::Jal {
                rd: reg_at(word, 21)?,
                target: pc.wrapping_add_signed(disp),
            }
        }
        x if x == Opcode::Jalr as u32 => Instr::Jalr {
            rd: reg_at(word, 21)?,
            rs: reg_at(word, 16)?,
        },
        x if x == Opcode::Send as u32 => Instr::Send {
            dst: reg_at(word, 21)?,
            addr: reg_at(word, 16)?,
            len: reg_at(word, 11)?,
        },
        x if x == Opcode::Recv as u32 => Instr::Recv {
            src: reg_at(word, 21)?,
            addr: reg_at(word, 16)?,
            len: reg_at(word, 11)?,
        },
        x if x == Opcode::Custom as u32 => {
            let w1 = *words.get(1).ok_or(IsaError::Decode {
                word,
                reason: "custom instruction truncated (missing second word)",
            })?;
            let n_ins = extract(word, 3, 3) as usize;
            let n_outs = extract(word, 1, 2) as usize;
            if n_ins > 4 || n_outs > 2 {
                return Err(IsaError::Decode {
                    word,
                    reason: "bad custom arity",
                });
            }
            let all_ins = [
                reg_at(word, 11)?,
                reg_at(word, 6)?,
                reg_at(w1, 27)?,
                reg_at(w1, 22)?,
            ];
            let all_outs = [reg_at(w1, 17)?, reg_at(w1, 12)?];
            let ci = CustomInstr::new(
                CiId(extract(word, 16, 10) as u16),
                &all_ins[..n_ins],
                &all_outs[..n_outs],
            )
            .map_err(|_| IsaError::Decode {
                word,
                reason: "bad custom arity",
            })?;
            return Ok((Instr::Custom(ci), 2));
        }
        _ => {
            return Err(IsaError::Decode {
                word,
                reason: "unknown opcode",
            })
        }
    };
    Ok((instr, 1))
}

/// Encodes a whole instruction sequence to machine words, translating the
/// absolute instruction-index targets into word-relative displacements.
///
/// # Errors
///
/// Fails when a displacement or immediate does not fit.
pub fn encode_program(instrs: &[Instr]) -> Result<Vec<u32>, IsaError> {
    // Word offset of each instruction (custom instructions take 2 words).
    let mut word_of = Vec::with_capacity(instrs.len() + 1);
    let mut off = 0u32;
    for i in instrs {
        word_of.push(off);
        off += i.words();
    }
    word_of.push(off);
    let lookup = |idx: u32| word_of.get(idx as usize).copied().unwrap_or(off);

    let mut out = Vec::with_capacity(off as usize);
    for (i, instr) in instrs.iter().enumerate() {
        let (words, n) = encode_words(instr, word_of[i], lookup)?;
        out.extend_from_slice(&words[..n]);
    }
    Ok(out)
}

/// Decodes a machine-word stream back into instructions with absolute
/// instruction-index control-flow targets (inverse of [`encode_program`]).
///
/// # Errors
///
/// Fails on malformed words or targets landing inside a two-word
/// instruction.
pub fn decode_program(words: &[u32]) -> Result<Vec<Instr>, IsaError> {
    let mut instrs = Vec::new();
    let mut word_to_index = vec![u32::MAX; words.len() + 1];
    let mut pc = 0u32;
    while (pc as usize) < words.len() {
        word_to_index[pc as usize] = instrs.len() as u32;
        let (instr, n) = decode(&words[pc as usize..], pc)?;
        instrs.push(instr);
        pc += n;
    }
    word_to_index[words.len()] = instrs.len() as u32;

    // Second pass: rewrite word targets to instruction indices.
    for instr in &mut instrs {
        let fix = |t: &mut u32, word: u32| -> Result<(), IsaError> {
            let idx = word_to_index
                .get(*t as usize)
                .copied()
                .filter(|&i| i != u32::MAX)
                .ok_or(IsaError::Decode {
                    word,
                    reason: "branch into middle of instruction",
                })?;
            *t = idx;
            Ok(())
        };
        match instr {
            Instr::Branch { target, .. } => fix(target, 0)?,
            Instr::Jal { target, .. } => fix(target, 0)?,
            _ => {}
        }
    }
    Ok(instrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::CiId;

    fn round_trip(instrs: Vec<Instr>) {
        let words = encode_program(&instrs).expect("encode");
        let back = decode_program(&words).expect("decode");
        assert_eq!(back, instrs);
    }

    #[test]
    fn round_trip_basic() {
        round_trip(vec![
            Instr::Nop,
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg::R1,
                rs1: Reg::R2,
                src2: Operand::Reg(Reg::R3),
            },
            Instr::Alu {
                op: AluOp::Sra,
                rd: Reg::R4,
                rs1: Reg::R5,
                src2: Operand::Imm(-7),
            },
            Instr::Lui {
                rd: Reg::R6,
                imm: 0xFFFFF,
            },
            Instr::Load {
                w: Width::Word,
                rd: Reg::R7,
                base: Reg::SP,
                offset: -16,
            },
            Instr::Store {
                w: Width::Byte,
                rs: Reg::R8,
                base: Reg::R9,
                offset: 8191,
            },
            Instr::Send {
                dst: Reg::R1,
                addr: Reg::R2,
                len: Reg::R3,
            },
            Instr::Recv {
                src: Reg::R1,
                addr: Reg::R2,
                len: Reg::R3,
            },
            Instr::Jalr {
                rd: Reg::LR,
                rs: Reg::R10,
            },
            Instr::Halt,
        ]);
    }

    #[test]
    fn round_trip_control_flow_across_custom() {
        // A custom instruction (2 words) sits between a branch and its
        // target, exercising the index<->word translation.
        let ci = CustomInstr::new(CiId(5), &[Reg::R1, Reg::R2, Reg::R3], &[Reg::R4]).unwrap();
        round_trip(vec![
            Instr::Branch {
                cond: Cond::Ne,
                rs1: Reg::R1,
                rs2: Reg::R0,
                target: 3,
            },
            Instr::Custom(ci),
            Instr::Nop,
            Instr::Jal {
                rd: Reg::R0,
                target: 0,
            },
            Instr::Halt,
        ]);
    }

    #[test]
    fn immediate_range_checked() {
        let too_big = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::R1,
            rs1: Reg::R1,
            src2: Operand::Imm(1 << 12),
        };
        assert!(matches!(
            encode_program(&[too_big]),
            Err(IsaError::ImmediateOutOfRange { bits: 12, .. })
        ));
        let ok = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::R1,
            rs1: Reg::R1,
            src2: Operand::Imm(2047),
        };
        assert!(encode_program(&[ok]).is_ok());
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        let bad = 0x3F << 26;
        assert!(matches!(decode(&[bad], 0), Err(IsaError::Decode { .. })));
    }

    #[test]
    fn decode_rejects_truncated_custom() {
        let ci = CustomInstr::new(CiId(1), &[Reg::R1], &[Reg::R2]).unwrap();
        let words = encode(&Instr::Custom(ci), 0, |t| t).unwrap();
        assert_eq!(words.len(), 2);
        assert!(decode(&words[..1], 0).is_err());
    }

    #[test]
    fn custom_encodes_two_words() {
        let ci = CustomInstr::new(
            CiId(1023),
            &[Reg::R31, Reg::R30, Reg::R29, Reg::R28],
            &[Reg::R27, Reg::R26],
        )
        .unwrap();
        let instrs = vec![Instr::Custom(ci), Instr::Halt];
        let words = encode_program(&instrs).unwrap();
        assert_eq!(words.len(), 3);
        assert_eq!(decode_program(&words).unwrap(), instrs);
    }
}
