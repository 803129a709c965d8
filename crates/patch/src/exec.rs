//! Functional evaluation of (possibly fused) patches.

use crate::control::{AtAsControl, AtMaControl, AtSaControl, ControlWord, Sel4, T1Mode};
use std::collections::HashMap;
use stitch_isa::op::AluOp;

/// Scratchpad port used by the LMAU during custom-instruction execution.
///
/// Addresses are byte offsets within the executing tile's SPM window.
pub trait SpmPort {
    /// Loads the word at `offset`.
    fn load(&mut self, offset: u32) -> u32;
    /// Stores `value` at `offset`.
    fn store(&mut self, offset: u32, value: u32);
}

/// A simple in-memory [`SpmPort`] for tests and the compiler's speedup
/// estimation. Every word reads 0 until written; offsets are rounded
/// down to a word boundary.
#[derive(Debug, Clone)]
pub struct MapSpm {
    dense: Vec<u32>,
    sparse: HashMap<u32, u32>,
}

impl Default for MapSpm {
    fn default() -> Self {
        Self {
            dense: vec![0; Self::DENSE_WORDS],
            sparse: HashMap::new(),
        }
    }
}

impl MapSpm {
    /// Word offsets below this bound live in a dense array: the low
    /// 4 KiB, which covers every word the ISE differential check presets
    /// and compares. Offsets above it fall back to a sparse map.
    pub const DENSE_WORDS: usize = 1024;

    /// Creates an empty scratchpad.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-populates a word (word-aligned byte offset).
    pub fn set(&mut self, offset: u32, value: u32) {
        match self.dense.get_mut((offset / 4) as usize) {
            Some(word) => *word = value,
            None => {
                self.sparse.insert(offset & !3, value);
            }
        }
    }

    /// Resets every word to `preset` followed by zeros: word `i` of the
    /// dense window reads `preset[i]`, every other word reads 0, exactly
    /// as a new scratchpad after `set(4 * i, preset[i])` for each `i`.
    /// Keeps the allocation, so a caller running many trials builds its
    /// scratchpads once.
    ///
    /// # Panics
    ///
    /// If `preset` is longer than the dense window (1,024 words).
    pub fn reset(&mut self, preset: &[u32]) {
        let (head, tail) = self.dense.split_at_mut(preset.len());
        head.copy_from_slice(preset);
        tail.fill(0);
        self.sparse.clear();
    }

    /// The dense window, [`MapSpm::DENSE_WORDS`] words: element `i` is
    /// the word at byte offset `4 * i`.
    #[must_use]
    pub fn dense_words(&self) -> &[u32] {
        &self.dense
    }

    /// Reads back a word without counting as an access.
    #[must_use]
    pub fn get(&self, offset: u32) -> u32 {
        match self.dense.get((offset / 4) as usize) {
            Some(&word) => word,
            None => self.sparse.get(&(offset & !3)).copied().unwrap_or(0),
        }
    }
}

impl SpmPort for MapSpm {
    fn load(&mut self, offset: u32) -> u32 {
        self.get(offset)
    }

    fn store(&mut self, offset: u32, value: u32) {
        self.set(offset, value);
    }
}

/// The two 32-bit results of a patch evaluation.
///
/// `out0` is the stage-2 result; `out1` is the LMAU (`T1`) output — the
/// loaded value for `T1Mode::Load`, otherwise the stage-1 ALU result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchOutput {
    /// Stage-2 result.
    pub out0: u32,
    /// LMAU result.
    pub out1: u32,
}

struct Stage1Out {
    a1: u32,
    t1: u32,
}

fn run_stage1(c: &crate::control::Stage1, ins: [u32; 4], spm: &mut dyn SpmPort) -> Stage1Out {
    let a1 = c
        .a1_op
        .eval(ins[c.a1_src1 as usize], ins[c.a1_src2 as usize]);
    let t1 = match c.t1 {
        T1Mode::Bypass => a1,
        T1Mode::Load => spm.load(a1),
        T1Mode::Store => {
            spm.store(a1, ins[2]);
            a1
        }
    };
    Stage1Out { a1, t1 }
}

fn sel4(sel: Sel4, s1: &Stage1Out, ins: [u32; 4]) -> u32 {
    match sel {
        Sel4::A1 => s1.a1,
        Sel4::T1 => s1.t1,
        Sel4::In2 => ins[2],
        Sel4::In3 => ins[3],
    }
}

fn eval_atma(c: &AtMaControl, ins: [u32; 4], spm: &mut dyn SpmPort) -> PatchOutput {
    let s1 = run_stage1(&c.s1, ins, spm);
    let product = AluOp::Mul.eval(sel4(c.m_src1, &s1, ins), sel4(c.m_src2, &s1, ins));
    let a2_src1 = if c.a2_takes_a1 { s1.a1 } else { product };
    let out0 = c.a2_op.eval(a2_src1, sel4(c.a2_src2, &s1, ins));
    PatchOutput { out0, out1: s1.t1 }
}

fn eval_atas(c: &AtAsControl, ins: [u32; 4], spm: &mut dyn SpmPort) -> PatchOutput {
    let s1 = run_stage1(&c.s1, ins, spm);
    let a2 = c
        .a2_op
        .eval(sel4(c.a2_src1, &s1, ins), sel4(c.a2_src2, &s1, ins));
    let out0 = match c.s_op {
        Some(op) => op.eval(a2, if c.s_amt_in3 { ins[3] } else { ins[2] }),
        None => a2,
    };
    PatchOutput { out0, out1: s1.t1 }
}

fn eval_atsa(c: &AtSaControl, ins: [u32; 4], spm: &mut dyn SpmPort) -> PatchOutput {
    let s1 = run_stage1(&c.s1, ins, spm);
    let s_in = sel4(c.s_in, &s1, ins);
    let shifted = match c.s_op {
        Some(op) => op.eval(s_in, if c.s_amt_in3 { ins[3] } else { ins[2] }),
        None => s_in,
    };
    let out0 = c.a2_op.eval(shifted, sel4(c.a2_src2, &s1, ins));
    PatchOutput { out0, out1: s1.t1 }
}

fn eval_locus(c: &crate::control::LocusControl, ins: [u32; 4]) -> PatchOutput {
    // Slots 0..4 hold the inputs, slot 4 + i micro-op i's result. The
    // chain has 1..=3 ops, so it fits on the stack: this runs on every
    // LOCUS activation. Eight slots cover every 3-bit source operand, so
    // no control word can index out of range; an unwritten slot reads 0.
    let mut vals = [0u32; 8];
    vals[..4].copy_from_slice(&ins);
    let mut last = 3;
    for (slot, op) in (4..7).zip(&c.ops) {
        vals[slot] = op
            .op
            .eval(vals[usize::from(op.src1)], vals[usize::from(op.src2)]);
        last = slot;
    }
    PatchOutput {
        out0: vals[last],
        // Zero when the chain is empty.
        out1: vals[4],
    }
}

/// Evaluates one patch with the given control word.
///
/// The four `ins` words are the register-file operands of the custom
/// instruction (unused slots are zero). The LOCUS SFU ignores `spm`.
pub fn eval_single(control: &ControlWord, ins: [u32; 4], spm: &mut dyn SpmPort) -> PatchOutput {
    match control {
        ControlWord::AtMa(c) => eval_atma(c, ins, spm),
        ControlWord::AtAs(c) => eval_atas(c, ins, spm),
        ControlWord::AtSa(c) => eval_atsa(c, ins, spm),
        ControlWord::Locus(c) => eval_locus(c, ins),
    }
}

/// Evaluates a fused pair of patches (paper Fig 4(e), Fig 5).
///
/// The 166-bit inter-patch link carries four data words. The first patch
/// consumes the original operands and replaces the first two words with
/// its outputs; the second patch therefore sees
/// `[p1.out0, p1.out1, in2, in3]`. The final results travel back to the
/// issuing core. Memory (`T`) operations of either stage address the SPM
/// given in `spm` — the compiler's mapper restricts `T` ops of fused
/// instructions to the first (local) patch so a single SPM is involved
/// (see DESIGN.md, substitution notes).
pub fn eval_fused(
    first: &ControlWord,
    second: &ControlWord,
    ins: [u32; 4],
    spm: &mut dyn SpmPort,
) -> PatchOutput {
    let stage1 = eval_single(first, ins, spm);
    let forwarded = [stage1.out0, stage1.out1, ins[2], ins[3]];
    eval_single(second, forwarded, spm)
}

/// Cycle count of the equivalent W32 *software* sequence for one control
/// word — the cost model of a demoted custom instruction.
///
/// When a patch fails, the runtime falls back to the scalar form the
/// compiler substituted from: one single-cycle ALU op per active ALU or
/// shifter, one single-cycle SPM access for an LMAU load/store, and
/// `mul_latency` cycles for an engaged `{AT-MA}` multiplier. Unused units
/// cost nothing. Values are computed by the same [`eval_single`] /
/// [`eval_fused`] dataflow, so degradation changes cycles, never results.
#[must_use]
pub fn software_cycles(control: &ControlWord, mul_latency: u32) -> u32 {
    let stage1 = |s: &crate::control::Stage1| 1 + u32::from(s.t1 != T1Mode::Bypass);
    match control {
        ControlWord::AtMa(c) => {
            let mul = if c.a2_takes_a1 { 0 } else { mul_latency };
            stage1(&c.s1) + mul + 1
        }
        ControlWord::AtAs(c) => stage1(&c.s1) + 1 + u32::from(c.s_op.is_some()),
        ControlWord::AtSa(c) => stage1(&c.s1) + u32::from(c.s_op.is_some()) + 1,
        ControlWord::Locus(c) => (c.ops.len() as u32).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{LocusControl, LocusOp, Stage1};

    fn ins(a: u32, b: u32, c: u32, d: u32) -> [u32; 4] {
        [a, b, c, d]
    }

    #[test]
    fn map_spm_is_word_addressed_across_the_dense_window() {
        let mut spm = MapSpm::new();
        // 4092 is the last dense word, 4096 the first sparse one.
        assert_eq!(MapSpm::DENSE_WORDS * 4, 4096);
        for (offset, value) in [(4092, 1), (4096, 2), (0xFFFF_FFFC, 3)] {
            assert_eq!(spm.get(offset), 0, "unwritten word {offset:#x} reads 0");
            spm.set(offset, value);
            assert_eq!(spm.get(offset), value);
        }
        // Unaligned offsets address the word that contains them, on both
        // sides of the boundary.
        spm.set(4094, 11);
        assert_eq!(spm.get(4092), 11);
        spm.set(4099, 12);
        assert_eq!(spm.get(4096), 12);
        assert_eq!(spm.get(0xFFFF_FFFF), 3);
        assert_eq!(spm.get(4100), 0, "the word after a sparse write stays 0");
        // A clone is independent of the original in both tiers.
        let mut copy = spm.clone();
        copy.set(4092, 21);
        copy.set(4096, 22);
        assert_eq!((spm.get(4092), spm.get(4096)), (11, 12));
        assert_eq!((copy.get(4092), copy.get(4096)), (21, 22));
        // The port view agrees with `get`/`set`.
        SpmPort::store(&mut spm, 0x2001, 7);
        assert_eq!(SpmPort::load(&mut spm, 0x2000), 7);
    }

    #[test]
    fn reset_matches_a_fresh_preset_scratchpad() {
        let preset: Vec<u32> = (1..=512).collect();
        let mut fresh = MapSpm::new();
        for (i, &v) in preset.iter().enumerate() {
            fresh.set(4 * i as u32, v);
        }
        // Dirty both tiers, then reset.
        let mut reused = MapSpm::new();
        for offset in [0, 2044, 2048, 4092, 4096, 0xFFFF_FFFC] {
            reused.set(offset, 0xDEAD);
        }
        reused.reset(&preset);
        assert_eq!(reused.dense_words(), fresh.dense_words());
        assert_eq!(reused.dense_words().len(), MapSpm::DENSE_WORDS);
        for offset in [0, 2044, 2048, 4092, 4096, 0xFFFF_FFFC] {
            assert_eq!(reused.get(offset), fresh.get(offset), "{offset:#x}");
        }
    }

    #[test]
    fn atma_mul_add() {
        // out0 = (in0 + in1) ... no: mul(in2, in3) + a1 where a1 = in0+in1.
        let c = AtMaControl {
            s1: Stage1 {
                a1_op: AluOp::Add,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Bypass,
            },
            m_src1: Sel4::In2,
            m_src2: Sel4::In3,
            a2_takes_a1: false,
            a2_op: AluOp::Add,
            a2_src2: Sel4::A1,
        };
        let mut spm = MapSpm::new();
        let out = eval_single(&ControlWord::AtMa(c), ins(10, 20, 3, 4), &mut spm);
        assert_eq!(out.out0, 3 * 4 + 30);
        assert_eq!(out.out1, 30);
    }

    #[test]
    fn atma_aa_chain_via_intermediate_connection() {
        // {AA}: a2 = (in0 - in1) ^ in2, multiplier bypassed.
        let c = AtMaControl {
            s1: Stage1 {
                a1_op: AluOp::Sub,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Bypass,
            },
            m_src1: Sel4::A1,
            m_src2: Sel4::A1,
            a2_takes_a1: true,
            a2_op: AluOp::Xor,
            a2_src2: Sel4::In2,
        };
        let mut spm = MapSpm::new();
        let out = eval_single(&ControlWord::AtMa(c), ins(9, 4, 0xF0, 0), &mut spm);
        assert_eq!(out.out0, 5 ^ 0xF0);
    }

    #[test]
    fn lmau_load_feeds_stage2() {
        // a1 = in0 + in1 (address); t1 = spm[a1]; out0 = t1 * in2 + 0.
        let mut spm = MapSpm::new();
        spm.set(24, 7);
        let c = AtMaControl {
            s1: Stage1 {
                a1_op: AluOp::Add,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Load,
            },
            m_src1: Sel4::T1,
            m_src2: Sel4::In2,
            a2_takes_a1: false,
            a2_op: AluOp::Or,
            a2_src2: Sel4::T1,
        };
        let out = eval_single(&ControlWord::AtMa(c), ins(16, 8, 6, 0), &mut spm);
        assert_eq!(out.out1, 7, "loaded word on out1");
        assert_eq!(out.out0, (7 * 6) | 7);
    }

    #[test]
    fn lmau_store_writes_in2() {
        let mut spm = MapSpm::new();
        let c = AtAsControl {
            s1: Stage1 {
                a1_op: AluOp::Add,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Store,
            },
            ..AtAsControl::default()
        };
        let out = eval_single(&ControlWord::AtAs(c), ins(32, 4, 123, 0), &mut spm);
        assert_eq!(spm.get(36), 123);
        assert_eq!(out.out1, 36, "address passes through on store");
    }

    #[test]
    fn atas_add_then_shift() {
        // out0 = (in0 + in1) << in2  (the paper's Fig 4(c) pattern half).
        let c = AtAsControl {
            s1: Stage1::default(),
            a2_op: AluOp::Add,
            a2_src1: Sel4::In2,
            a2_src2: Sel4::In3,
            s_op: Some(AluOp::Sll),
            s_amt_in3: false,
        };
        // Note: a2 uses in2/in3; shift amount from in2 as well.
        let mut spm = MapSpm::new();
        let out = eval_single(&ControlWord::AtAs(c), ins(0, 0, 3, 5), &mut spm);
        assert_eq!(out.out0, (3 + 5) << 3);
    }

    #[test]
    fn atsa_shift_then_add() {
        // out0 = (in2 >> in3... amount in3) + a1 where a1 = in0 & in1.
        let c = AtSaControl {
            s1: Stage1 {
                a1_op: AluOp::And,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Bypass,
            },
            s_in: Sel4::In2,
            s_op: Some(AluOp::Srl),
            s_amt_in3: true,
            a2_op: AluOp::Add,
            a2_src2: Sel4::A1,
        };
        let mut spm = MapSpm::new();
        let out = eval_single(&ControlWord::AtSa(c), ins(0xFF, 0x0F, 64, 2), &mut spm);
        assert_eq!(out.out0, (64 >> 2) + 0x0F);
    }

    #[test]
    fn locus_chain() {
        // (in0 + in1) << in2
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
        let mut spm = MapSpm::new();
        let out = eval_single(&c, ins(2, 3, 4, 5), &mut spm);
        assert_eq!(out.out0, (2 + 3) << 4);
        assert_eq!(out.out1, 5, "first micro-op result on out1");
    }

    fn locus(ops: &[(AluOp, u8, u8)]) -> ControlWord {
        ControlWord::Locus(LocusControl {
            ops: ops
                .iter()
                .map(|&(op, src1, src2)| LocusOp { op, src1, src2 })
                .collect(),
        })
    }

    #[test]
    fn locus_one_op_chain_drives_both_outputs() {
        let out = eval_single(
            &locus(&[(AluOp::Sub, 3, 0)]),
            ins(4, 0, 0, 10),
            &mut MapSpm::new(),
        );
        assert_eq!(out.out0, 6, "last op's result on out0");
        assert_eq!(out.out1, 6, "first op's result on out1");
    }

    #[test]
    fn locus_two_op_chain_reads_an_earlier_result() {
        // (in0 ^ in1) - in3
        let out = eval_single(
            &locus(&[(AluOp::Xor, 0, 1), (AluOp::Sub, 4, 3)]),
            ins(0b1100, 0b1010, 0, 1),
            &mut MapSpm::new(),
        );
        assert_eq!(out.out0, 0b0110 - 1);
        assert_eq!(out.out1, 0b0110);
    }

    #[test]
    fn locus_three_op_chain_reads_every_earlier_slot() {
        // t0 = in0 + in1; t1 = t0 << in2; out0 = t1 | t0
        let out = eval_single(
            &locus(&[(AluOp::Add, 0, 1), (AluOp::Sll, 4, 2), (AluOp::Or, 5, 4)]),
            ins(1, 2, 4, 0),
            &mut MapSpm::new(),
        );
        assert_eq!(out.out0, ((1 + 2) << 4) | (1 + 2));
        assert_eq!(out.out1, 1 + 2);
    }

    #[test]
    fn fused_forwarding() {
        // First patch computes (in0 + in1) on out0 (pass-through stage 2);
        // second patch multiplies that by the ride-along in2.
        let first = ControlWord::AtMa(AtMaControl {
            s1: Stage1 {
                a1_op: AluOp::Add,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Bypass,
            },
            ..AtMaControl::default()
        });
        let second = ControlWord::AtMa(AtMaControl {
            s1: Stage1::default(), // a1 = or(in0, in0) = p1.out0
            m_src1: Sel4::A1,
            m_src2: Sel4::In2,
            a2_takes_a1: false,
            a2_op: AluOp::Or,
            a2_src2: Sel4::A1,
        });
        let mut spm = MapSpm::new();
        let out = eval_fused(&first, &second, ins(6, 7, 10, 0), &mut spm);
        assert_eq!(out.out0, (13 * 10) | 13);
    }

    #[test]
    fn fig4e_pattern_single_cycle() {
        // Paper Fig 4: ((a + b) << 2) + ((c - d) >> 1) style pattern split
        // over two {AT-AS} patches: p1 computes (a+b)<<2 via A2+S; p2
        // computes... p2.a1 consumes p1 outputs; p2.A2 adds shifted ride-
        // along. Here: p1.out0 = (in0+in1)<<1 (amount from in2=1);
        // p2: a1 = or(p1out0, p1out0); a2 = a1 + in3; out = a2 (s bypass).
        let p1 = ControlWord::AtAs(AtAsControl {
            s1: Stage1::default(),
            a2_op: AluOp::Add,
            a2_src1: Sel4::In2,
            a2_src2: Sel4::In3,
            s_op: Some(AluOp::Sll),
            s_amt_in3: false,
        });
        // wait: shift amount = in2 which is also operand; use values where
        // that is intended: in2=2 -> (2+5)<<2.
        let p2 = ControlWord::AtAs(AtAsControl {
            s1: Stage1::default(), // passes p1.out0
            a2_op: AluOp::Add,
            a2_src1: Sel4::A1,
            a2_src2: Sel4::In2, // ride-along in2
            s_op: None,
            s_amt_in3: false,
        });
        let mut spm = MapSpm::new();
        let out = eval_fused(&p1, &p2, ins(0, 0, 2, 5), &mut spm);
        assert_eq!(out.out0, ((2 + 5) << 2) + 2);
    }

    #[test]
    fn software_cycles_counts_active_units() {
        const MUL: u32 = 8;
        // Full {AT-MA}: stage-1 ALU + load + multiply + stage-2 ALU.
        let full = ControlWord::AtMa(AtMaControl {
            s1: Stage1 {
                a1_op: AluOp::Add,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Load,
            },
            a2_takes_a1: false,
            ..AtMaControl::default()
        });
        assert_eq!(software_cycles(&full, MUL), 2 + MUL + 1);
        // Multiplier bypassed ({AA} pattern): no mul charge.
        let aa = ControlWord::AtMa(AtMaControl {
            a2_takes_a1: true,
            ..AtMaControl::default()
        });
        assert_eq!(software_cycles(&aa, MUL), 1 + 1);
        // {AT-AS} without shifter engaged.
        let atas = ControlWord::AtAs(AtAsControl::default());
        assert_eq!(software_cycles(&atas, MUL), 2);
        // LOCUS chain: one cycle per micro-op.
        let locus = ControlWord::Locus(LocusControl {
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
        assert_eq!(software_cycles(&locus, MUL), 2);
        // A demoted CI is never cheaper than the 1-cycle patch it replaces.
        for cw in [&full, &aa, &atas, &locus] {
            assert!(software_cycles(cw, MUL) >= 1);
        }
    }
}
