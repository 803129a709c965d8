//! Binary codecs for the verify-level artifact types.
//!
//! Everything an artifact carries bottoms out in four shared shapes —
//! W32 [`Program`]s, packed patch [`ControlWord`]s, [`IseCheck`]
//! equivalence obligations, and verify [`Report`]s — encoded here over
//! the [`Rec`]/[`RecView`] record codec. Higher layers (the compiler's
//! kernel artifacts, the workbench's prepared-app artifacts) compose
//! these.
//!
//! Design rules, shared with the store files:
//!
//! * **Deterministic bytes** — unordered containers (program symbols,
//!   per-CI control maps) are serialized in sorted order, so the encoded
//!   form doubles as a content-hash input.
//! * **Decode never trusts** — every read is bounds-checked, every
//!   collection count is checked against the remaining input divided by
//!   its element's minimum encoded size before anything is reserved for
//!   it ([`RecView::seq_len`]), every code is re-validated through the
//!   owning type's own constructor/decoder (`decode_program`,
//!   `ControlWord::unpack`, `AluOp::from_code`), and any failure is a
//!   typed [`DecodeError`]. At the store boundary an artifact that does
//!   not decode reads as absent and the caller recomputes.
//! * **Static strings intern** — a [`Diagnostic`]'s `code` is
//!   `&'static str`; decoding matches it against the table of known
//!   codes and treats unknown codes as corruption.

use crate::{DecodeError, OrCorrupt, Rec, RecView};
use stitch_isa::custom::{CiStage, PatchClass};
use stitch_isa::program::DataSegment;
use stitch_isa::{decode_program, encode_program, AluOp, CiDescriptor, CiId, CiTable, Program};
use stitch_noc::TileId;
use stitch_patch::ControlWord;
use stitch_verify::{
    Diagnostic, IseCheck, IseMapping, IseNode, IseOp, IseOperand, IseOut, IseSubgraph, Report,
    Severity, Span,
};

/// Every stable diagnostic code an artifact may carry (DESIGN.md §12).
/// Decoding interns against this table; an unknown code means the file
/// does not come from this verifier build and reads as absent.
const KNOWN_CODES: &[&str] = &[
    "W32-TARGET",
    "W32-FALLOFF",
    "W32-CI",
    "W32-CONTROL",
    "W32-DATA",
    "W32-UNINIT",
    "W32-DEAD",
    "W32-UNREACH",
    "ISE-ARITY",
    "ISE-DEAD",
    "ISE-DIFF",
    "ISE-MEM",
    "ISE-OPERANDS",
    "ISE-PACK",
    "ISE-SHAPE",
    "ISE-SYM",
    "ISE-TOPO",
    "PLAN-SHAPE",
    "PLAN-TILE",
    "PLAN-SHARED",
    "PLAN-CLASS",
    "PLAN-PARTNER",
    "PLAN-HOPS",
    "PLAN-TIMING",
    "PLAN-CIRCUIT",
    "PLAN-BROKEN",
    "PLAN-MULTI",
    "PLAN-CONFLICT",
    "PLAN-CYCLE",
    "COMM-PEER",
    "COMM-SELF",
    "COMM-ASYM",
    "COMM-CYCLE",
    "COMM-XY",
    "COMM-UNREACH",
    "COMPILE-INVARIANT",
];

/// Minimum encoded size of a [`Program`] (four empty sections), for
/// sizing [`RecView::seq_len`] checks over program collections.
pub const MIN_PROGRAM_BYTES: usize = 16;

fn intern_code(code: &str) -> Option<&'static str> {
    KNOWN_CODES.iter().find(|&&k| k == code).copied()
}

/// Stable wire code of a patch class.
fn class_code(c: PatchClass) -> u8 {
    match c {
        PatchClass::AtMa => 0,
        PatchClass::AtAs => 1,
        PatchClass::AtSa => 2,
        PatchClass::LocusSfu => 3,
    }
}

fn class_from_code(c: u8) -> Option<PatchClass> {
    Some(match c {
        0 => PatchClass::AtMa,
        1 => PatchClass::AtAs,
        2 => PatchClass::AtSa,
        3 => PatchClass::LocusSfu,
        _ => return None,
    })
}

/// Encodes a patch class.
pub fn put_class(rec: &mut Rec, c: PatchClass) {
    rec.u8(class_code(c));
}

/// Decodes a patch class.
pub fn get_class(v: &mut RecView<'_>) -> Result<PatchClass, DecodeError> {
    class_from_code(v.u8()?).or_corrupt("patch class")
}

/// Encodes a control word as `(class, packed bits)`. Returns `None` for
/// a word the hardware encoding cannot express (such a word can never
/// have passed verification, so no valid artifact contains one).
pub fn put_control(rec: &mut Rec, c: &ControlWord) -> Option<()> {
    put_class(rec, c.class());
    rec.u32(c.pack().ok()?);
    Some(())
}

/// Decodes a control word through [`ControlWord::unpack`]'s own
/// validation.
pub fn get_control(v: &mut RecView<'_>) -> Result<ControlWord, DecodeError> {
    let class = get_class(v)?;
    ControlWord::unpack(class, v.u32()?).or_corrupt("control word")
}

/// Encodes a complete linked program: instruction words, data segments,
/// the custom-instruction table, and symbols (sorted, so the bytes are
/// deterministic and usable as a content-hash input).
pub fn put_program(rec: &mut Rec, p: &Program) -> Option<()> {
    rec.words(&encode_program(&p.instrs).ok()?);
    rec.u32(p.data.len() as u32);
    for seg in &p.data {
        rec.u32(seg.base);
        rec.words(&seg.words);
    }
    rec.u32(p.ci_table.len() as u32);
    for desc in p.ci_table.iter() {
        rec.str(&desc.name);
        rec.u32(desc.covers);
        rec.u8(desc.stages.len() as u8);
        for s in &desc.stages {
            rec.u8(class_code(s.class));
            rec.u32(s.control);
        }
    }
    let mut symbols: Vec<(&String, &u32)> = p.symbols.iter().collect();
    symbols.sort();
    rec.u32(symbols.len() as u32);
    for (name, addr) in symbols {
        rec.str(name);
        rec.u32(*addr);
    }
    Some(())
}

/// Decodes a program; instruction words go through [`decode_program`]'s
/// full validation.
pub fn get_program(v: &mut RecView<'_>) -> Result<Program, DecodeError> {
    let instrs = decode_program(&v.words()?).or_corrupt("instruction words")?;
    // base + word count
    let n_data = v.seq_len(8, "data segment count")?;
    let mut data = Vec::with_capacity(n_data);
    for _ in 0..n_data {
        let base = v.u32()?;
        data.push(DataSegment {
            base,
            words: v.words()?,
        });
    }
    // name + covers + stage count + one stage
    let n_ci = v.seq_len(14, "custom instruction count")?;
    let mut ci_table = CiTable::new();
    for _ in 0..n_ci {
        let name = v.str()?.to_string();
        let covers = v.u32()?;
        let n_stages = v.u8()? as usize;
        if !(1..=2).contains(&n_stages) {
            return Err(DecodeError::corrupt("custom instruction stage count"));
        }
        let mut stages = Vec::with_capacity(n_stages);
        for _ in 0..n_stages {
            let class = get_class(v)?;
            stages.push(CiStage::new(class, v.u32()?));
        }
        // `push` reassigns sequential ids, so decoding in file order
        // reproduces the encoded id assignment exactly.
        ci_table.push(CiDescriptor {
            id: CiId(0),
            name,
            stages,
            covers,
        });
    }
    // name + address
    let n_sym = v.seq_len(8, "symbol count")?;
    let mut symbols = std::collections::HashMap::with_capacity(n_sym);
    for _ in 0..n_sym {
        let name = v.str()?.to_string();
        let addr = v.u32()?;
        symbols.insert(name, addr);
    }
    Ok(Program {
        instrs,
        data,
        ci_table,
        symbols,
    })
}

/// Encodes a verify report.
pub fn put_report(rec: &mut Rec, r: &Report) {
    let diags = r.diagnostics();
    rec.u32(diags.len() as u32);
    for d in diags {
        rec.u8(match d.severity {
            Severity::Warning => 0,
            Severity::Error => 1,
        });
        rec.str(d.code);
        match d.span {
            Span::None => rec.u8(0),
            Span::Pc(pc) => {
                rec.u8(1);
                rec.u32(pc);
            }
            Span::Tile(t) => {
                rec.u8(2);
                rec.u8(t.0);
            }
            Span::Node(n) => {
                rec.u8(3);
                rec.u64(n as u64);
            }
            Span::Ci(id) => {
                rec.u8(4);
                rec.u32(u32::from(id));
            }
            Span::Kernel(k) => {
                rec.u8(5);
                rec.u64(k as u64);
            }
        }
        rec.str(&d.message);
    }
}

/// Decodes a verify report; diagnostic codes are interned against the
/// static known-codes table.
pub fn get_report(v: &mut RecView<'_>) -> Result<Report, DecodeError> {
    // severity + code + span tag + message
    let n = v.seq_len(10, "diagnostic count")?;
    let mut report = Report::new();
    for _ in 0..n {
        let severity = match v.tag("severity")? {
            false => Severity::Warning,
            true => Severity::Error,
        };
        let code = intern_code(v.str()?).or_corrupt("diagnostic code")?;
        let span = match v.u8()? {
            0 => Span::None,
            1 => Span::Pc(v.u32()?),
            2 => Span::Tile(TileId(v.u8()?)),
            3 => Span::Node(usize::try_from(v.u64()?).or_corrupt("span node")?),
            4 => Span::Ci(u16::try_from(v.u32()?).or_corrupt("span ci")?),
            5 => Span::Kernel(usize::try_from(v.u64()?).or_corrupt("span kernel")?),
            _ => return Err(DecodeError::corrupt("span tag")),
        };
        let message = v.str()?.to_string();
        report.push(Diagnostic {
            severity,
            code,
            span,
            message,
        });
    }
    Ok(report)
}

fn put_operand(rec: &mut Rec, o: IseOperand) {
    match o {
        IseOperand::Node(n) => {
            rec.u8(0);
            rec.u64(n as u64);
        }
        IseOperand::Ext(e) => {
            rec.u8(1);
            rec.u64(e as u64);
        }
    }
}

fn get_operand(v: &mut RecView<'_>) -> Result<IseOperand, DecodeError> {
    Ok(match v.u8()? {
        0 => IseOperand::Node(usize::try_from(v.u64()?).or_corrupt("operand index")?),
        1 => IseOperand::Ext(usize::try_from(v.u64()?).or_corrupt("operand index")?),
        _ => return Err(DecodeError::corrupt("operand tag")),
    })
}

/// Encodes one custom instruction's equivalence obligation.
pub fn put_ise_check(rec: &mut Rec, c: &IseCheck) -> Option<()> {
    rec.str(&c.name);
    rec.u32(u32::from(c.ci));
    rec.u64(c.subgraph.n_ext as u64);
    rec.u32(c.subgraph.nodes.len() as u32);
    for node in &c.subgraph.nodes {
        match node.op {
            IseOp::Alu(op) => {
                rec.u8(0);
                rec.u8(op.code());
            }
            IseOp::Load => rec.u8(1),
            IseOp::Store => rec.u8(2),
        }
        rec.u8(node.srcs.len() as u8);
        for &s in &node.srcs {
            put_operand(rec, s);
        }
    }
    rec.u8(c.mapping.controls.len() as u8);
    for ctl in &c.mapping.controls {
        put_control(rec, ctl)?;
    }
    for slot in c.mapping.input_slots {
        match slot {
            None => rec.u8(0),
            Some(e) => {
                rec.u8(1);
                rec.u64(e as u64);
            }
        }
    }
    rec.u32(c.mapping.outputs.len() as u32);
    for &(node, port) in &c.mapping.outputs {
        rec.u64(node as u64);
        rec.u8(match port {
            IseOut::Out0 => 0,
            IseOut::Out1 => 1,
        });
    }
    Some(())
}

/// Minimum encoded size of an [`IseCheck`]: name, ci, `n_ext`, node
/// count, control count, four input slots, output count.
pub const MIN_ISE_CHECK_BYTES: usize = 29;

/// Decodes one custom instruction's equivalence obligation.
pub fn get_ise_check(v: &mut RecView<'_>) -> Result<IseCheck, DecodeError> {
    let name = v.str()?.to_string();
    let ci = u16::try_from(v.u32()?).or_corrupt("ise ci id")?;
    let n_ext = usize::try_from(v.u64()?).or_corrupt("ise n_ext")?;
    // op tag + source count
    let n_nodes = v.seq_len(2, "ise node count")?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let op = match v.u8()? {
            0 => IseOp::Alu(AluOp::from_code(v.u8()?).or_corrupt("ise alu op")?),
            1 => IseOp::Load,
            2 => IseOp::Store,
            _ => return Err(DecodeError::corrupt("ise op tag")),
        };
        let n_srcs = v.u8()? as usize;
        let mut srcs = Vec::with_capacity(n_srcs);
        for _ in 0..n_srcs {
            srcs.push(get_operand(v)?);
        }
        nodes.push(IseNode { op, srcs });
    }
    let n_controls = v.u8()? as usize;
    if n_controls > 2 {
        return Err(DecodeError::corrupt("ise control count"));
    }
    let mut controls = Vec::with_capacity(n_controls);
    for _ in 0..n_controls {
        controls.push(get_control(v)?);
    }
    let mut input_slots = [None; 4];
    for slot in &mut input_slots {
        *slot = match v.tag("ise input slot")? {
            false => None,
            true => Some(usize::try_from(v.u64()?).or_corrupt("ise input slot")?),
        };
    }
    // node + port
    let n_outputs = v.seq_len(9, "ise output count")?;
    let mut outputs = Vec::with_capacity(n_outputs);
    for _ in 0..n_outputs {
        let node = usize::try_from(v.u64()?).or_corrupt("ise output node")?;
        let port = match v.tag("ise output port")? {
            false => IseOut::Out0,
            true => IseOut::Out1,
        };
        outputs.push((node, port));
    }
    Ok(IseCheck {
        name,
        ci,
        subgraph: IseSubgraph { nodes, n_ext },
        mapping: IseMapping {
            controls,
            input_slots,
            outputs,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_isa::{ProgramBuilder, Reg};

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.symbol("out", 0x400);
        b.data_segment(0x100, vec![1, 2, 3]);
        b.li(Reg::R1, 5);
        let top = b.bound_label();
        b.mul(Reg::R4, Reg::R1, Reg::R1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(stitch_isa::Cond::Ne, Reg::R1, Reg::R0, top);
        b.sw(Reg::R4, Reg::R10, 0);
        b.halt();
        b.build().expect("program")
    }

    #[test]
    fn program_round_trips() {
        let p = sample_program();
        let mut rec = Rec::new();
        put_program(&mut rec, &p).expect("encode");
        let bytes = rec.into_bytes();
        let mut v = RecView::new(&bytes);
        let q = get_program(&mut v).expect("decode");
        assert_eq!(v.finish(), Ok(()));
        assert_eq!(p, q);
    }

    /// A program section count that fits the remaining *bytes* but not
    /// the remaining *elements* is rejected before anything is reserved.
    #[test]
    fn program_counts_are_checked_against_element_size() {
        let mut rec = Rec::new();
        rec.words(&[]);
        rec.u32(3); // three data segments of >= 8 bytes each ...
        rec.raw(&[0; 20]); // ... cannot fit in 20 bytes
        let bytes = rec.into_bytes();
        assert_eq!(
            get_program(&mut RecView::new(&bytes)),
            Err(DecodeError::corrupt("data segment count"))
        );
        let mut rec = Rec::new();
        put_program(&mut rec, &Program::default()).expect("encode");
        let mut bytes = rec.into_bytes();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&2u32.to_le_bytes()); // symbol count
        bytes.extend_from_slice(&[0; 15]); // two symbols need >= 16
        assert_eq!(
            get_program(&mut RecView::new(&bytes)),
            Err(DecodeError::corrupt("symbol count"))
        );
    }

    #[test]
    fn ise_check_counts_are_checked_against_element_size() {
        let mut rec = Rec::new();
        rec.str("ci");
        rec.u32(0);
        rec.u64(2);
        rec.u32(4); // four nodes of >= 2 bytes each cannot fit in 7
        rec.raw(&[0; 7]);
        let bytes = rec.into_bytes();
        assert_eq!(
            get_ise_check(&mut RecView::new(&bytes)),
            Err(DecodeError::corrupt("ise node count"))
        );
        let mut rec = Rec::new();
        rec.str("ci");
        rec.u32(0);
        rec.u64(2);
        rec.u32(0); // no nodes
        rec.u8(0); // no controls
        rec.raw(&[0; 4]); // four empty input slots
        rec.u32(2); // two outputs of 9 bytes cannot fit in 17
        rec.raw(&[0; 17]);
        let bytes = rec.into_bytes();
        assert_eq!(
            get_ise_check(&mut RecView::new(&bytes)),
            Err(DecodeError::corrupt("ise output count"))
        );
    }

    #[test]
    fn program_decode_survives_truncation_and_corruption() {
        let p = sample_program();
        let mut rec = Rec::new();
        put_program(&mut rec, &p).expect("encode");
        let bytes = rec.into_bytes();
        for cut in 0..bytes.len() {
            let _ = get_program(&mut RecView::new(&bytes[..cut]));
        }
        for i in 0..bytes.len() {
            let mut dented = bytes.clone();
            dented[i] ^= 0xff;
            // Must not panic; may decode to a different valid program
            // (the artifact checksum rejects that case upstream).
            let _ = get_program(&mut RecView::new(&dented));
        }
    }

    #[test]
    fn report_round_trips_with_interned_codes() {
        let mut r = Report::new();
        r.push(Diagnostic::warning(
            "W32-DEAD",
            Span::Pc(7),
            "r15 written but never read",
        ));
        r.push(Diagnostic::error(
            "PLAN-TILE",
            Span::Tile(TileId(3)),
            "tile out of range",
        ));
        r.push(Diagnostic::error("ISE-DIFF", Span::Ci(2), "mismatch"));
        let mut rec = Rec::new();
        put_report(&mut rec, &r);
        let bytes = rec.into_bytes();
        let q = get_report(&mut RecView::new(&bytes)).expect("decode");
        assert_eq!(r, q);
    }

    #[test]
    fn unknown_diagnostic_code_reads_as_absent() {
        let mut rec = Rec::new();
        rec.u32(1);
        rec.u8(1);
        rec.str("W32-BOGUS");
        rec.u8(0);
        rec.str("msg");
        let bytes = rec.into_bytes();
        assert_eq!(
            get_report(&mut RecView::new(&bytes)),
            Err(DecodeError::corrupt("diagnostic code"))
        );
    }

    #[test]
    fn every_live_diagnostic_code_is_known() {
        // The intern table must cover every code the analyses can emit;
        // a missing entry would silently demote cache hits to misses.
        for code in [
            "W32-TARGET",
            "W32-DEAD",
            "ISE-SYM",
            "ISE-DEAD",
            "PLAN-BROKEN",
            "COMM-XY",
            "COMPILE-INVARIANT",
        ] {
            assert!(intern_code(code).is_some(), "{code} missing");
        }
    }
}
