//! 19-bit control words of the polymorphic patches.
//!
//! Layout (bit 0 = LSB). Stage 1 is common to all three classes:
//!
//! ```text
//! [2:0]  a1_op    ALU operation (8 A-class ops)
//! [4:3]  a1_src1  in0..in3
//! [6:5]  a1_src2  in0..in3
//! [8:7]  t1_mode  0=bypass, 1=load, 2=store (store data is in2)
//! ```
//!
//! Stage 2 occupies bits `[18:9]` and differs per class — see
//! [`AtMaControl`], [`AtAsControl`], [`AtSaControl`]. Outputs are fixed
//! wiring: `out0` = stage-2 result, `out1` = LMAU (`T1`) result; a pure
//! `{AT}` pattern therefore reads its result from `out1` and configures
//! stage 2 as a pass-through.
//!
//! The LOCUS special functional unit uses a wider control word
//! ([`LocusControl`], three chained micro-operations) reflecting its much
//! larger area budget in the paper (Table III).

use crate::{PatchClass, PatchError};
use stitch_isa::op::AluOp;

/// The eight A-class operations encodable in the 3-bit `a*_op` fields.
pub const A_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Nor,
    AluOp::Slt,
    AluOp::Sltu,
];

/// The three shifter operations plus pass-through.
pub const S_OPS: [Option<AluOp>; 4] = [Some(AluOp::Sll), Some(AluOp::Srl), Some(AluOp::Sra), None];

fn a_op_code(op: AluOp) -> Option<u32> {
    A_OPS.iter().position(|&o| o == op).map(|i| i as u32)
}

fn a_op_from(code: u32) -> AluOp {
    A_OPS[(code & 7) as usize]
}

fn s_op_code(op: Option<AluOp>) -> Option<u32> {
    S_OPS.iter().position(|&o| o == op).map(|i| i as u32)
}

/// LMAU mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum T1Mode {
    /// Pass the ALU result through.
    #[default]
    Bypass,
    /// Replace the ALU result with `spm[a1_out]`.
    Load,
    /// Write `in2` to `spm[a1_out]`; `T1` output is the ALU result.
    Store,
}

impl T1Mode {
    fn code(self) -> u32 {
        match self {
            T1Mode::Bypass => 0,
            T1Mode::Load => 1,
            T1Mode::Store => 2,
        }
    }

    fn from_code(c: u32) -> Result<Self, &'static str> {
        match c {
            0 => Ok(T1Mode::Bypass),
            1 => Ok(T1Mode::Load),
            2 => Ok(T1Mode::Store),
            _ => Err("t1_mode 3 is reserved"),
        }
    }
}

/// Selector over the four patch inputs.
pub type InSel = u8; // 0..=3

/// Selector over `{A1, T1, in2, in3}` used by stage-2 operand muxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sel4 {
    /// Stage-1 ALU output.
    A1,
    /// LMAU output.
    T1,
    /// Third patch input.
    In2,
    /// Fourth patch input.
    In3,
}

impl Sel4 {
    fn code(self) -> u32 {
        match self {
            Sel4::A1 => 0,
            Sel4::T1 => 1,
            Sel4::In2 => 2,
            Sel4::In3 => 3,
        }
    }

    fn from_code(c: u32) -> Self {
        match c & 3 {
            0 => Sel4::A1,
            1 => Sel4::T1,
            2 => Sel4::In2,
            _ => Sel4::In3,
        }
    }
}

/// Common stage-1 configuration (`A1` + `T1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stage1 {
    /// A-class operation of `A1`.
    pub a1_op: AluOp,
    /// First `A1` operand (`in0..in3`).
    pub a1_src1: InSel,
    /// Second `A1` operand.
    pub a1_src2: InSel,
    /// LMAU mode.
    pub t1: T1Mode,
}

impl Default for Stage1 {
    fn default() -> Self {
        // Pass in0 through: or(in0, in0) = in0, LMAU bypass.
        Stage1 {
            a1_op: AluOp::Or,
            a1_src1: 0,
            a1_src2: 0,
            t1: T1Mode::Bypass,
        }
    }
}

impl Stage1 {
    fn pack(self) -> Result<u32, &'static str> {
        let op = a_op_code(self.a1_op).ok_or("a1_op must be an A-class op")?;
        if self.a1_src1 > 3 || self.a1_src2 > 3 {
            return Err("input selector out of range");
        }
        Ok(op
            | (u32::from(self.a1_src1) << 3)
            | (u32::from(self.a1_src2) << 5)
            | (self.t1.code() << 7))
    }

    fn unpack(bits: u32) -> Result<Self, &'static str> {
        Ok(Stage1 {
            a1_op: a_op_from(bits & 7),
            a1_src1: ((bits >> 3) & 3) as u8,
            a1_src2: ((bits >> 5) & 3) as u8,
            t1: T1Mode::from_code((bits >> 7) & 3)?,
        })
    }
}

/// `{AT-MA}` stage 2: multiplier feeding an ALU.
///
/// ```text
/// [10:9]  m_src1   Sel4
/// [12:11] m_src2   Sel4
/// [13]    a2_src1  0 = multiplier output, 1 = A1 output
///                  (the paper's "intermediate connection" enabling {AA})
/// [16:14] a2_op
/// [18:17] a2_src2  Sel4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtMaControl {
    /// Stage-1 configuration.
    pub s1: Stage1,
    /// Multiplier first operand.
    pub m_src1: Sel4,
    /// Multiplier second operand.
    pub m_src2: Sel4,
    /// `false`: A2 first operand is the product; `true`: it is `A1`.
    pub a2_takes_a1: bool,
    /// A-class operation of `A2`.
    pub a2_op: AluOp,
    /// A2 second operand.
    pub a2_src2: Sel4,
}

impl Default for AtMaControl {
    fn default() -> Self {
        // out0 = A1 (pass-through): a2 = or(A1, A1).
        AtMaControl {
            s1: Stage1::default(),
            m_src1: Sel4::A1,
            m_src2: Sel4::A1,
            a2_takes_a1: true,
            a2_op: AluOp::Or,
            a2_src2: Sel4::A1,
        }
    }
}

/// `{AT-AS}` stage 2: ALU feeding a shifter.
///
/// ```text
/// [11:9]  a2_op
/// [13:12] a2_src1  Sel4
/// [15:14] a2_src2  Sel4
/// [17:16] s_op     0=sll 1=srl 2=sra 3=bypass
/// [18]    s_amt    0 = in2, 1 = in3 (shift amount source)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtAsControl {
    /// Stage-1 configuration.
    pub s1: Stage1,
    /// A-class operation of `A2`.
    pub a2_op: AluOp,
    /// A2 first operand.
    pub a2_src1: Sel4,
    /// A2 second operand.
    pub a2_src2: Sel4,
    /// Shift operation; `None` passes the A2 result through.
    pub s_op: Option<AluOp>,
    /// `false`: amount from `in2`; `true`: from `in3`.
    pub s_amt_in3: bool,
}

impl Default for AtAsControl {
    fn default() -> Self {
        AtAsControl {
            s1: Stage1::default(),
            a2_op: AluOp::Or,
            a2_src1: Sel4::A1,
            a2_src2: Sel4::A1,
            s_op: None,
            s_amt_in3: false,
        }
    }
}

/// `{AT-SA}` stage 2: shifter feeding an ALU.
///
/// ```text
/// [10:9]  s_in     Sel4 (shifter data input)
/// [12:11] s_op     0=sll 1=srl 2=sra 3=bypass
/// [13]    s_amt    0 = in2, 1 = in3
/// [16:14] a2_op
/// [18:17] a2_src2  Sel4 (a2_src1 is the shifter output, fixed)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtSaControl {
    /// Stage-1 configuration.
    pub s1: Stage1,
    /// Shifter data input.
    pub s_in: Sel4,
    /// Shift operation; `None` is pass-through.
    pub s_op: Option<AluOp>,
    /// `false`: amount from `in2`; `true`: from `in3`.
    pub s_amt_in3: bool,
    /// A-class operation of `A2` (first operand = shifter output).
    pub a2_op: AluOp,
    /// A2 second operand.
    pub a2_src2: Sel4,
}

impl Default for AtSaControl {
    fn default() -> Self {
        AtSaControl {
            s1: Stage1::default(),
            s_in: Sel4::A1,
            s_op: None,
            s_amt_in3: false,
            a2_op: AluOp::Or,
            a2_src2: Sel4::A1,
        }
    }
}

/// One micro-operation of the LOCUS SFU chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocusOp {
    /// Operation (any A/S-class op; like CCA's adder/logic/shift
    /// triangle, the SFU has neither a multiplier nor memory access).
    pub op: AluOp,
    /// First operand: `0..=3` patch inputs, `4..` = earlier micro-op result.
    pub src1: u8,
    /// Second operand, same encoding.
    pub src2: u8,
}

/// Control state of the LOCUS special functional unit: up to two chained
/// micro-operations over the four inputs (a CCA-style depth-2 operation
/// chain; crucially, no local-memory access — the decisive difference
/// from the polymorphic patches, paper §VI-C).
///
/// The SFU result `out0` is the last micro-op's output; `out1` is the
/// first micro-op's output.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LocusControl {
    /// The micro-op chain (1..=3 entries).
    pub ops: Vec<LocusOp>,
}

/// A decoded patch control word, tied to its class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ControlWord {
    /// `{AT-MA}` configuration.
    AtMa(AtMaControl),
    /// `{AT-AS}` configuration.
    AtAs(AtAsControl),
    /// `{AT-SA}` configuration.
    AtSa(AtSaControl),
    /// LOCUS SFU configuration.
    Locus(LocusControl),
}

impl ControlWord {
    /// The patch class this control word drives.
    #[must_use]
    pub fn class(&self) -> PatchClass {
        match self {
            ControlWord::AtMa(_) => PatchClass::AtMa,
            ControlWord::AtAs(_) => PatchClass::AtAs,
            ControlWord::AtSa(_) => PatchClass::AtSa,
            ControlWord::Locus(_) => PatchClass::LocusSfu,
        }
    }

    /// `true` if the LMAU performs a load or store.
    #[must_use]
    pub fn uses_memory(&self) -> bool {
        match self {
            ControlWord::AtMa(c) => c.s1.t1 != T1Mode::Bypass,
            ControlWord::AtAs(c) => c.s1.t1 != T1Mode::Bypass,
            ControlWord::AtSa(c) => c.s1.t1 != T1Mode::Bypass,
            ControlWord::Locus(_) => false,
        }
    }

    /// Packs into the 19-bit control field (Stitch classes) or the wider
    /// LOCUS encoding.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::BadControl`] if a field is not encodable
    /// (e.g. an M-class op in an ALU slot).
    pub fn pack(&self) -> Result<u32, PatchError> {
        let bad = |reason| PatchError::BadControl {
            class: self.class(),
            bits: 0,
            reason,
        };
        match self {
            ControlWord::AtMa(c) => {
                let s1 = c.s1.pack().map_err(bad)?;
                let a2 = a_op_code(c.a2_op).ok_or_else(|| bad("a2_op must be A-class"))?;
                Ok(s1
                    | (c.m_src1.code() << 9)
                    | (c.m_src2.code() << 11)
                    | (u32::from(c.a2_takes_a1) << 13)
                    | (a2 << 14)
                    | (c.a2_src2.code() << 17))
            }
            ControlWord::AtAs(c) => {
                let s1 = c.s1.pack().map_err(bad)?;
                let a2 = a_op_code(c.a2_op).ok_or_else(|| bad("a2_op must be A-class"))?;
                let s = s_op_code(c.s_op).ok_or_else(|| bad("s_op must be a shift"))?;
                Ok(s1
                    | (a2 << 9)
                    | (c.a2_src1.code() << 12)
                    | (c.a2_src2.code() << 14)
                    | (s << 16)
                    | (u32::from(c.s_amt_in3) << 18))
            }
            ControlWord::AtSa(c) => {
                let s1 = c.s1.pack().map_err(bad)?;
                let a2 = a_op_code(c.a2_op).ok_or_else(|| bad("a2_op must be A-class"))?;
                let s = s_op_code(c.s_op).ok_or_else(|| bad("s_op must be a shift"))?;
                Ok(s1
                    | (c.s_in.code() << 9)
                    | (s << 11)
                    | (u32::from(c.s_amt_in3) << 13)
                    | (a2 << 14)
                    | (c.a2_src2.code() << 17))
            }
            ControlWord::Locus(c) => {
                // 3 micro-ops x (op:4, src1:3, src2:3) = 30 bits; a count
                // in the top 2 bits. The LOCUS SFU is not bit-budgeted to
                // 19 bits — it is the paper's big conventional ISE unit.
                if c.ops.is_empty() || c.ops.len() > 2 {
                    return Err(bad("locus chain must have 1..=2 ops"));
                }
                let mut bits = (c.ops.len() as u32) << 30;
                for (i, op) in c.ops.iter().enumerate() {
                    if op.op.class() == stitch_isa::OpClass::M {
                        return Err(bad("the SFU has no multiplier (CCA-style A/S chains)"));
                    }
                    if op.src1 as usize >= 4 + i || op.src2 as usize >= 4 + i {
                        return Err(bad("micro-op source references later op"));
                    }
                    let enc = u32::from(op.op.code())
                        | (u32::from(op.src1) << 4)
                        | (u32::from(op.src2) << 7);
                    bits |= enc << (i * 10);
                }
                Ok(bits)
            }
        }
    }

    /// Decodes a packed control word for `class`.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::BadControl`] on reserved encodings.
    pub fn unpack(class: PatchClass, bits: u32) -> Result<Self, PatchError> {
        let bad = |reason| PatchError::BadControl {
            class,
            bits,
            reason,
        };
        match class {
            PatchClass::AtMa => Ok(ControlWord::AtMa(AtMaControl {
                s1: Stage1::unpack(bits).map_err(bad)?,
                m_src1: Sel4::from_code(bits >> 9),
                m_src2: Sel4::from_code(bits >> 11),
                a2_takes_a1: (bits >> 13) & 1 == 1,
                a2_op: a_op_from(bits >> 14),
                a2_src2: Sel4::from_code(bits >> 17),
            })),
            PatchClass::AtAs => Ok(ControlWord::AtAs(AtAsControl {
                s1: Stage1::unpack(bits).map_err(bad)?,
                a2_op: a_op_from(bits >> 9),
                a2_src1: Sel4::from_code(bits >> 12),
                a2_src2: Sel4::from_code(bits >> 14),
                s_op: S_OPS[((bits >> 16) & 3) as usize],
                s_amt_in3: (bits >> 18) & 1 == 1,
            })),
            PatchClass::AtSa => Ok(ControlWord::AtSa(AtSaControl {
                s1: Stage1::unpack(bits).map_err(bad)?,
                s_in: Sel4::from_code(bits >> 9),
                s_op: S_OPS[((bits >> 11) & 3) as usize],
                s_amt_in3: (bits >> 13) & 1 == 1,
                a2_op: a_op_from(bits >> 14),
                a2_src2: Sel4::from_code(bits >> 17),
            })),
            PatchClass::LocusSfu => {
                let count = (bits >> 30) as usize;
                if count == 0 || count > 2 {
                    return Err(bad("bad locus op count"));
                }
                let mut ops = Vec::with_capacity(count);
                for i in 0..count {
                    let enc = (bits >> (i * 10)) & 0x3FF;
                    let op =
                        AluOp::from_code((enc & 0xF) as u8).ok_or_else(|| bad("bad locus op"))?;
                    ops.push(LocusOp {
                        op,
                        src1: ((enc >> 4) & 7) as u8,
                        src2: ((enc >> 7) & 7) as u8,
                    });
                }
                Ok(ControlWord::Locus(LocusControl { ops }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage1_round_trip() {
        for op in A_OPS {
            for t1 in [T1Mode::Bypass, T1Mode::Load, T1Mode::Store] {
                let s = Stage1 {
                    a1_op: op,
                    a1_src1: 2,
                    a1_src2: 3,
                    t1,
                };
                let bits = s.pack().unwrap();
                assert!(bits < (1 << 9));
                assert_eq!(Stage1::unpack(bits).unwrap(), s);
            }
        }
    }

    #[test]
    fn stage1_rejects_non_a_ops() {
        let s = Stage1 {
            a1_op: AluOp::Mul,
            ..Stage1::default()
        };
        assert!(s.pack().is_err());
        let s = Stage1 {
            a1_op: AluOp::Sll,
            ..Stage1::default()
        };
        assert!(s.pack().is_err());
    }

    #[test]
    fn all_class_words_fit_19_bits() {
        let words = [
            ControlWord::AtMa(AtMaControl::default()),
            ControlWord::AtAs(AtAsControl::default()),
            ControlWord::AtSa(AtSaControl::default()),
        ];
        for w in words {
            let bits = w.pack().unwrap();
            assert!(bits < (1 << 19), "{w:?} packed to {bits:#x}");
            assert_eq!(ControlWord::unpack(w.class(), bits).unwrap(), w);
        }
    }

    #[test]
    fn locus_round_trip() {
        let c = ControlWord::Locus(LocusControl {
            ops: vec![
                LocusOp {
                    op: AluOp::Add,
                    src1: 0,
                    src2: 1,
                },
                LocusOp {
                    op: AluOp::Sll,
                    src1: 4,
                    src2: 2,
                },
            ],
        });
        let bits = c.pack().unwrap();
        assert_eq!(ControlWord::unpack(PatchClass::LocusSfu, bits).unwrap(), c);
    }

    #[test]
    fn locus_rejects_forward_references() {
        let c = ControlWord::Locus(LocusControl {
            ops: vec![LocusOp {
                op: AluOp::Add,
                src1: 5,
                src2: 0,
            }],
        });
        assert!(c.pack().is_err());
    }

    #[test]
    fn uses_memory_flag() {
        let mut c = AtMaControl::default();
        assert!(!ControlWord::AtMa(c).uses_memory());
        c.s1.t1 = T1Mode::Load;
        assert!(ControlWord::AtMa(c).uses_memory());
    }

    /// Any 19-bit pattern with a non-reserved t1 field decodes, and
    /// re-packing is the identity (totality of the decoder). Exhaustive
    /// over all 2^19 control words — no sampling needed.
    #[test]
    fn decode_encode_identity() {
        for bits in 0u32..(1 << 19) {
            for class in PatchClass::STITCH {
                match ControlWord::unpack(class, bits) {
                    Ok(w) => {
                        let repacked = w.pack().unwrap();
                        assert_eq!(ControlWord::unpack(class, repacked).unwrap(), w);
                    }
                    Err(_) => {
                        // Only the reserved t1_mode=3 encoding may fail.
                        assert_eq!((bits >> 7) & 3, 3, "bits {bits:#x}");
                    }
                }
            }
        }
    }
}
