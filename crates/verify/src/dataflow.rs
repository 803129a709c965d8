//! Analysis 1 — W32 dataflow lints over a linked [`Program`].
//!
//! Builds its own lightweight control-flow graph (independent of the
//! compiler's `Cfg`, so the verifier never trusts the artifact producer)
//! and checks:
//!
//! - **Errors** (definite violations): branch/jump targets outside the
//!   text (`W32-TARGET`), control flow falling off the end of the text
//!   (`W32-FALLOFF`), custom instructions referencing a missing CI-table
//!   entry (`W32-CI`) or carrying a control word that does not decode
//!   for its class (`W32-CONTROL`), fused descriptors whose second stage
//!   touches memory (`W32-CI-MEM`), and data segments that are
//!   misaligned or outside the DRAM/SPM windows (`W32-DATA`).
//! - **Warnings** (lints): registers read before any definition on some
//!   path (`W32-UNINIT` — the cores reset registers to zero, so this is
//!   advisory), dead stores to registers (`W32-DEAD`), and unreachable
//!   blocks (`W32-UNREACH`).

use crate::diag::{Diagnostic, Report, Span};
use std::collections::BTreeSet;
use stitch_isa::memmap::{DRAM_SIZE, SPM_BASE, SPM_SIZE};
use stitch_isa::{Instr, Program};
use stitch_patch::{ControlWord, PatchClass};

/// Register set as a 32-bit mask (bit *i* = `r<i>`).
type RegSet = u32;

/// Every instruction's `(uses, defs)` register sets, built once per
/// program: the fixpoints and the reporting walks read these masks and
/// fetch the register lists only where a diagnostic fires.
fn reg_masks(p: &Program) -> Vec<(RegSet, RegSet)> {
    p.instrs
        .iter()
        .map(|i| (i.use_mask(), i.def_mask()))
        .collect()
}

/// A basic block: instruction range `[start, end]` inclusive.
struct Block {
    start: usize,
    end: usize,
    succs: Vec<usize>,
}

/// Mini-CFG over the program text, built from scratch.
struct MiniCfg {
    blocks: Vec<Block>,
    /// Entry points: block 0 plus return points of calls when the
    /// program contains indirect jumps.
    roots: Vec<usize>,
    reachable: Vec<bool>,
}

fn leaders(p: &Program) -> BTreeSet<usize> {
    let n = p.instrs.len();
    let mut set = BTreeSet::new();
    set.insert(0);
    for (i, instr) in p.instrs.iter().enumerate() {
        match instr {
            Instr::Branch { target, .. } | Instr::Jal { target, .. } => {
                if (*target as usize) < n {
                    set.insert(*target as usize);
                }
                if i + 1 < n {
                    set.insert(i + 1);
                }
            }
            Instr::Jalr { .. } | Instr::Halt | Instr::Send { .. } | Instr::Recv { .. }
                if i + 1 < n =>
            {
                set.insert(i + 1);
            }
            _ => {}
        }
    }
    set
}

fn build_cfg(p: &Program, report: &mut Report) -> MiniCfg {
    let n = p.instrs.len();
    let starts: Vec<usize> = leaders(p).into_iter().collect();
    let mut blocks = Vec::with_capacity(starts.len());
    let mut block_of = vec![0usize; n];
    for (b, &start) in starts.iter().enumerate() {
        let end = starts.get(b + 1).map_or(n, |&next| next) - 1;
        for slot in &mut block_of[start..=end] {
            *slot = b;
        }
        blocks.push(Block {
            start,
            end,
            succs: Vec::new(),
        });
    }

    let mut has_jalr = false;
    let mut call_returns: Vec<usize> = Vec::new();
    for block in &mut blocks {
        let end = block.end;
        let succs: Vec<usize> = match &p.instrs[end] {
            Instr::Branch { target, .. } => {
                let mut s = Vec::new();
                if (*target as usize) < n {
                    s.push(block_of[*target as usize]);
                } else {
                    report.push(Diagnostic::error(
                        "W32-TARGET",
                        Span::Pc(end as u32),
                        format!("branch target @{target} is outside the {n}-instruction text"),
                    ));
                }
                if end + 1 < n {
                    s.push(block_of[end + 1]);
                } else {
                    report.push(Diagnostic::error(
                        "W32-FALLOFF",
                        Span::Pc(end as u32),
                        "conditional branch at the end of the text can fall off the program",
                    ));
                }
                s
            }
            Instr::Jal { rd, target } => {
                if !rd.is_zero() && end + 1 < n {
                    call_returns.push(block_of[end + 1]);
                }
                if (*target as usize) < n {
                    vec![block_of[*target as usize]]
                } else {
                    report.push(Diagnostic::error(
                        "W32-TARGET",
                        Span::Pc(end as u32),
                        format!("jump target @{target} is outside the {n}-instruction text"),
                    ));
                    Vec::new()
                }
            }
            Instr::Jalr { .. } => {
                has_jalr = true;
                Vec::new()
            }
            Instr::Halt => Vec::new(),
            _ => {
                if end + 1 < n {
                    vec![block_of[end + 1]]
                } else {
                    report.push(Diagnostic::error(
                        "W32-FALLOFF",
                        Span::Pc(end as u32),
                        "control flow falls off the end of the text (missing halt?)",
                    ));
                    Vec::new()
                }
            }
        };
        block.succs = succs;
    }

    // Indirect jumps make return edges invisible; treat every call's
    // return point as an extra root so nothing downstream of a `jalr`
    // is misreported.
    let mut roots = vec![0usize];
    if has_jalr {
        roots.extend(call_returns);
    }

    let mut reachable = vec![false; blocks.len()];
    let mut stack: Vec<usize> = roots.clone();
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reachable[b], true) {
            continue;
        }
        stack.extend(blocks[b].succs.iter().copied());
    }

    MiniCfg {
        blocks,
        roots,
        reachable,
    }
}

fn check_custom_instrs(p: &Program, report: &mut Report) {
    for (pc, instr) in p.instrs.iter().enumerate() {
        let Instr::Custom(ci) = instr else { continue };
        let desc = match p.ci_table.get(ci.ci) {
            Ok(d) => d,
            Err(e) => {
                report.push(Diagnostic::error(
                    "W32-CI",
                    Span::Pc(pc as u32),
                    format!("{e}"),
                ));
                continue;
            }
        };
        if desc.stages.is_empty() || desc.stages.len() > 2 {
            report.push(Diagnostic::error(
                "W32-CI",
                Span::Ci(ci.ci.0),
                format!(
                    "descriptor `{}` has {} stages (1 or 2 expected)",
                    desc.name,
                    desc.stages.len()
                ),
            ));
            continue;
        }
        let mut words = Vec::new();
        for (s, stage) in desc.stages.iter().enumerate() {
            // A LOCUS word does not survive the descriptor's 19-bit
            // truncation (its op count lives in bits 30–31); the
            // executable truth for every class is the decoded
            // `ControlWord` bound at load time, which the ISE analysis
            // checks, so only the three 19-bit patch classes are
            // decodable from the descriptor itself.
            if stage.class == PatchClass::LocusSfu {
                continue;
            }
            match ControlWord::unpack(stage.class, stage.control) {
                Ok(cw) => words.push(cw),
                Err(e) => report.push(Diagnostic::error(
                    "W32-CONTROL",
                    Span::Ci(ci.ci.0),
                    format!("stage {s} of `{}` does not decode: {e}", desc.name),
                )),
            }
        }
        // Fused instructions must keep memory traffic on the first
        // (local) patch: only one SPM is reachable over the link.
        if let [_, second] = words.as_slice() {
            if second.uses_memory() {
                report.push(Diagnostic::error(
                    "W32-CI-MEM",
                    Span::Ci(ci.ci.0),
                    format!(
                        "second stage of fused `{}` uses the LMAU (memory must stay local)",
                        desc.name
                    ),
                ));
            }
        }
    }
}

fn check_data_segments(p: &Program, report: &mut Report) {
    for (i, seg) in p.data.iter().enumerate() {
        if seg.base % 4 != 0 {
            report.push(Diagnostic::error(
                "W32-DATA",
                Span::None,
                format!("data segment {i} base {:#x} is not word aligned", seg.base),
            ));
            continue;
        }
        let bytes = seg.words.len() as u64 * 4;
        let end = u64::from(seg.base) + bytes;
        let in_dram = end <= u64::from(DRAM_SIZE);
        let in_spm = seg.base >= SPM_BASE && end <= u64::from(SPM_BASE) + u64::from(SPM_SIZE);
        if !in_dram && !in_spm {
            report.push(Diagnostic::error(
                "W32-DATA",
                Span::None,
                format!(
                    "data segment {i} [{:#x}, {end:#x}) is outside DRAM and the SPM window",
                    seg.base
                ),
            ));
        }
    }
}

/// Forward use-def pass: warns on registers read before any definition
/// on some path. Entry-block registers start undefined except `r0`.
fn check_uninit(p: &Program, cfg: &MiniCfg, masks: &[(RegSet, RegSet)], report: &mut Report) {
    let nb = cfg.blocks.len();
    // Per-block: registers definitely defined on *every* path to entry.
    let mut defined_in = vec![u32::MAX; nb];
    for &r in &cfg.roots {
        defined_in[r] = 0;
    }
    let gen_of = |b: &Block| masks[b.start..=b.end].iter().fold(0, |m, &(_, d)| m | d);
    let gens: Vec<RegSet> = cfg.blocks.iter().map(gen_of).collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        for &s in &blk.succs {
            preds[s].push(b);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            if !cfg.reachable[b] {
                continue;
            }
            let mut inp = if cfg.roots.contains(&b) { 0 } else { u32::MAX };
            for &pr in &preds[b] {
                if cfg.reachable[pr] {
                    inp &= defined_in[pr] | gens[pr];
                }
            }
            if cfg.roots.contains(&b) {
                inp = 0;
            }
            if inp != defined_in[b] {
                defined_in[b] = inp;
                changed = true;
            }
        }
    }
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut defined = defined_in[b];
        for (pc, &(uses, defs)) in (blk.start..).zip(&masks[blk.start..=blk.end]) {
            if uses & !defined != 0 {
                for r in p.instrs[pc].uses() {
                    if defined & (1 << r.index()) == 0 {
                        report.push(Diagnostic::warning(
                            "W32-UNINIT",
                            Span::Pc(pc as u32),
                            format!("{r} may be read before it is written (reads reset value 0)"),
                        ));
                    }
                }
            }
            defined |= defs;
        }
    }
}

/// Backward liveness pass: warns on register writes that no path ever
/// reads before the next write or program end.
fn check_dead_stores(p: &Program, cfg: &MiniCfg, masks: &[(RegSet, RegSet)], report: &mut Report) {
    let nb = cfg.blocks.len();
    let mut live_in = vec![0u32; nb];
    let use_def_of = |b: &Block| {
        // `uses` = registers read before being written in the block;
        // `defs` = registers written in the block.
        let mut uses = 0u32;
        let mut defs = 0u32;
        for &(u, d) in &masks[b.start..=b.end] {
            uses |= u & !defs;
            defs |= d;
        }
        (uses, defs)
    };
    let flows: Vec<(RegSet, RegSet)> = cfg.blocks.iter().map(use_def_of).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut out = 0u32;
            for &s in &cfg.blocks[b].succs {
                out |= live_in[s];
            }
            let (uses, defs) = flows[b];
            let inp = uses | (out & !defs);
            if inp != live_in[b] {
                live_in[b] = inp;
                changed = true;
            }
        }
    }
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut live = blk.succs.iter().fold(0u32, |m, &s| m | live_in[s]);
        for pc in (blk.start..=blk.end).rev() {
            let (uses, defs) = masks[pc];
            if defs & !live != 0 {
                for r in p.instrs[pc].defs() {
                    if live & (1 << r.index()) == 0 {
                        report.push(Diagnostic::warning(
                            "W32-DEAD",
                            Span::Pc(pc as u32),
                            format!("{r} is written here but never read afterwards"),
                        ));
                    }
                    live &= !(1 << r.index());
                }
            }
            live = (live & !defs) | uses;
        }
    }
}

/// Runs all W32 dataflow lints over a linked program.
#[must_use]
pub fn check_program(p: &Program) -> Report {
    let mut report = Report::new();
    if p.instrs.is_empty() {
        return report;
    }
    let cfg = build_cfg(p, &mut report);
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            report.push(Diagnostic::warning(
                "W32-UNREACH",
                Span::Pc(blk.start as u32),
                format!(
                    "block @{}..@{} is unreachable from the entry point",
                    blk.start, blk.end
                ),
            ));
        }
    }
    check_custom_instrs(p, &mut report);
    check_data_segments(p, &mut report);
    let masks = reg_masks(p);
    check_uninit(p, &cfg, &masks, &mut report);
    check_dead_stores(p, &cfg, &masks, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_isa::{Cond, ProgramBuilder, Reg};

    fn simple_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 4);
        let top = b.bound_label();
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(Cond::Ne, Reg::R1, Reg::R0, top);
        b.sw(Reg::R1, Reg::R0, 0x100);
        b.halt();
        b.build().expect("build")
    }

    #[test]
    fn clean_program_has_no_errors() {
        let r = check_program(&simple_loop());
        assert!(r.is_clean(), "unexpected errors:\n{r}");
    }

    #[test]
    fn bad_branch_target_is_error() {
        let mut p = simple_loop();
        for i in &mut p.instrs {
            if let Instr::Branch { target, .. } = i {
                *target = 999;
            }
        }
        let r = check_program(&p);
        assert!(r.has_error("W32-TARGET"), "{r}");
    }

    #[test]
    fn missing_halt_is_error() {
        let mut p = simple_loop();
        p.instrs.pop();
        let r = check_program(&p);
        assert!(r.has_error("W32-FALLOFF"), "{r}");
    }

    #[test]
    fn unknown_ci_is_error() {
        use stitch_isa::{CiId, CustomInstr, Instr};
        let mut p = simple_loop();
        let ci = CustomInstr::new(CiId(7), &[Reg::R1], &[Reg::R2]).expect("arity");
        p.instrs.insert(0, Instr::Custom(ci));
        // Fix up the branch target shifted by the insertion.
        for i in &mut p.instrs {
            if let Instr::Branch { target, .. } = i {
                *target += 1;
            }
        }
        let r = check_program(&p);
        assert!(r.has_error("W32-CI"), "{r}");
    }

    #[test]
    fn uninitialized_read_is_warning_not_error() {
        let mut b = ProgramBuilder::new();
        b.add(Reg::R3, Reg::R1, Reg::R2); // r1, r2 never written
        b.halt();
        let p = b.build().expect("build");
        let r = check_program(&p);
        assert!(r.is_clean());
        assert!(r.diagnostics().iter().any(|d| d.code == "W32-UNINIT"));
    }

    #[test]
    fn dead_store_is_warning() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        b.li(Reg::R1, 2); // first write is dead
        b.sw(Reg::R1, Reg::R0, 0x100);
        b.halt();
        let p = b.build().expect("build");
        let r = check_program(&p);
        assert!(r.is_clean());
        assert!(r.diagnostics().iter().any(|d| d.code == "W32-DEAD"));
    }

    #[test]
    fn unreachable_block_is_warning() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.jump(end);
        b.addi(Reg::R1, Reg::R0, 1); // skipped
        b.bind(end).expect("bind");
        b.halt();
        let p = b.build().expect("build");
        let r = check_program(&p);
        assert!(r.is_clean());
        assert!(r.diagnostics().iter().any(|d| d.code == "W32-UNREACH"));
    }

    #[test]
    fn bad_data_segment_is_error() {
        let mut p = simple_loop();
        p.data.push(stitch_isa::program::DataSegment {
            base: 0xF000_0001,
            words: vec![1],
        });
        let r = check_program(&p);
        assert!(r.has_error("W32-DATA"), "{r}");
    }
}
