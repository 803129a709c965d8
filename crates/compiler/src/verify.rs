//! Bridge between the compiler's internal types and the `stitch-verify`
//! static-analysis suite.
//!
//! The verifier deliberately knows nothing about the compiler (no
//! dependency cycle): this module converts a chosen candidate and its
//! mapping into the neutral [`IseCheck`] obligation, and
//! [`verify_kernel`] aggregates the full pre-simulation report for one
//! kernel — W32 dataflow lints over the baseline and every rewritten
//! variant, plus an independent equivalence check of every custom
//! instruction.

use crate::dfg::{BlockDfg, NodeOp, Src};
use crate::driver::KernelVariants;
use crate::mapper::OutPort;
use crate::rewrite::Chosen;
use crate::CompilerError;
use stitch_isa::Program;
use stitch_verify::{
    check_ise, check_program, mark_proven, IseCheck, IseMapping, IseNode, IseOp, IseOperand,
    IseOut, IseSubgraph, Report,
};

/// Converts a chosen candidate + mapping into the verifier's neutral
/// equivalence obligation.
///
/// # Errors
///
/// [`CompilerError::Invariant`] when the candidate references state the
/// DFG does not have (a compiler bug, not a user error).
pub fn ise_check(
    name: &str,
    ci: u16,
    dfg: &BlockDfg,
    chosen: &Chosen,
) -> Result<IseCheck, CompilerError> {
    let cand = &chosen.candidate;
    let local_of = |block_nid: usize| cand.nodes.iter().position(|&n| n == block_nid);
    let ext_of = |s: &Src| cand.ext_inputs.iter().position(|e| e == s);

    let operand = |s: &Src| -> Result<IseOperand, CompilerError> {
        if let Src::Node(m) = s {
            if let Some(local) = local_of(*m) {
                return Ok(IseOperand::Node(local));
            }
        }
        ext_of(s).map(IseOperand::Ext).ok_or_else(|| {
            CompilerError::invariant(format!(
                "{name}: operand {s:?} is neither a member nor an external input"
            ))
        })
    };

    let mut nodes = Vec::with_capacity(cand.nodes.len());
    for &nid in &cand.nodes {
        let node = dfg.nodes.get(nid).ok_or_else(|| {
            CompilerError::invariant(format!("{name}: candidate node {nid} outside the DFG"))
        })?;
        let op = match node.op {
            NodeOp::Alu(op) => IseOp::Alu(op),
            NodeOp::Load => IseOp::Load,
            NodeOp::Store => IseOp::Store,
            NodeOp::Other => {
                return Err(CompilerError::invariant(format!(
                    "{name}: ineligible node {nid} inside a candidate"
                )))
            }
        };
        let srcs = node.srcs.iter().map(&operand).collect::<Result<_, _>>()?;
        nodes.push(IseNode { op, srcs });
    }

    let mut input_slots = [None; 4];
    for (slot, src) in chosen.mapping.input_slots.iter().enumerate() {
        if let Some(s) = src {
            input_slots[slot] = Some(ext_of(s).ok_or_else(|| {
                CompilerError::invariant(format!(
                    "{name}: input slot {slot} wires {s:?}, which is not an external input"
                ))
            })?);
        }
    }

    let mut outputs = Vec::with_capacity(chosen.mapping.outputs.len());
    for &(block_nid, port) in &chosen.mapping.outputs {
        let local = local_of(block_nid).ok_or_else(|| {
            CompilerError::invariant(format!("{name}: output node {block_nid} is not a member"))
        })?;
        let port = match port {
            OutPort::Out0 => IseOut::Out0,
            OutPort::Out1 => IseOut::Out1,
        };
        outputs.push((local, port));
    }

    Ok(IseCheck {
        name: name.to_string(),
        ci,
        subgraph: IseSubgraph {
            nodes,
            n_ext: cand.ext_inputs.len(),
        },
        mapping: IseMapping {
            controls: chosen.mapping.controls.clone(),
            input_slots,
            outputs,
        },
    })
}

/// Number of [`check_ise`] calls in this process that the verifier's
/// proof memo answered without a proof (diagnostic, e.g. for benchmark
/// reports). Reads 0 in a fresh process.
#[must_use]
pub fn verify_memo_hits() -> u64 {
    stitch_verify::ise_memo_hits()
}

/// Full static verification of one compiled kernel: dataflow lints over
/// the baseline and every variant program, plus semantic-equivalence
/// checks of every custom instruction the variants carry.
///
/// The returned report is *clean* ([`Report::is_clean`]) for every
/// artifact the compiler emits; the driver gates on this before any
/// measurement, and the fuzz harness re-checks it as an oracle.
///
/// Each obligation is proven at most once per process ([`check_ise`]),
/// so re-verifying a kernel the driver already gated costs its lints.
#[must_use]
pub fn verify_kernel(kv: &KernelVariants) -> Report {
    let mut report = check_program(&kv.baseline);
    for v in &kv.variants {
        report.merge(verify_variant(&v.program, &v.ise_checks));
    }
    report
}

/// Records the obligations of `kv` as proven when `report`, e.g. one
/// reloaded with `kv` from the persistent artifact store, is empty, so
/// later [`verify_kernel`] gates on the same content skip their proofs.
/// A report with any diagnostic vouches for nothing.
pub fn seed_verify_memo(kv: &KernelVariants, report: Report) {
    if report.is_empty() {
        kv.variants
            .iter()
            .flat_map(|v| &v.ise_checks)
            .for_each(mark_proven);
    }
}

/// What "a variant is proven" means: the rewritten `program` passes the
/// dataflow lints and every custom instruction's obligation in `checks`
/// passes [`check_ise`]. [`crate::accelerate_all`] gates each variant on
/// this before it ships, and [`verify_kernel`] re-runs it.
#[must_use]
pub(crate) fn verify_variant(program: &Program, checks: &[IseCheck]) -> Report {
    let mut report = check_program(program);
    for c in checks {
        report.merge(check_ise(c));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::enumerate::{enumerate_candidates, EnumerateLimits};
    use crate::mapper::{map_candidate, PatchConfig};
    use stitch_isa::{ProgramBuilder, Reg};
    use stitch_patch::PatchClass;

    #[test]
    fn adapter_round_trips_a_real_mapping() {
        let mut b = ProgramBuilder::new();
        b.mul(Reg::R4, Reg::R1, Reg::R2);
        b.add(Reg::R5, Reg::R4, Reg::R3);
        b.sw(Reg::R5, Reg::R10, 0);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let dfg = BlockDfg::build(&p, &cfg, &cfg.blocks[0]);
        let cands = enumerate_candidates(&dfg, EnumerateLimits::default());
        let chosen = cands
            .iter()
            .find_map(|c| {
                (c.len() == 2)
                    .then(|| map_candidate(&dfg, c, PatchConfig::Single(PatchClass::AtMa)))
                    .flatten()
                    .map(|m| Chosen {
                        candidate: c.clone(),
                        mapping: m,
                    })
            })
            .expect("a 2-node mul+add candidate maps onto {AT-MA}");
        let check = ise_check("t", 0, &dfg, &chosen).expect("adapter");
        assert_eq!(check.subgraph.nodes.len(), 2);
        let r = check_ise(&check);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn verify_kernel_memoizes_by_content() {
        use crate::{compile_kernel, PatchConfig};
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 9);
        let top = b.bound_label();
        b.mul(Reg::R4, Reg::R1, Reg::R1);
        b.add(Reg::R5, Reg::R4, Reg::R1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(stitch_isa::Cond::Ne, Reg::R1, Reg::R0, top);
        b.sw(Reg::R5, Reg::R10, 0);
        b.halt();
        let p = b.build().expect("program");
        let kv = compile_kernel(
            "memo-test",
            &p,
            &[PatchConfig::Single(PatchClass::AtMa)],
            None,
        )
        .expect("compiles");
        let count = |kv: &KernelVariants| -> u64 {
            kv.variants.iter().map(|v| v.ise_checks.len() as u64).sum()
        };
        assert!(count(&kv) > 0, "the kernel carries custom instructions");
        // The compile gate proved every obligation, so re-verifying the
        // kernel answers each one from the proof memo.
        let before = verify_memo_hits();
        let first = verify_kernel(&kv);
        assert!(first.is_clean(), "{first}");
        assert!(verify_memo_hits() - before >= count(&kv));
        assert_eq!(first, verify_kernel(&kv));
        // The memo keys by content: the same kernel under another name
        // carries the same obligations, and its compile proves none anew.
        let before = verify_memo_hits();
        let renamed = compile_kernel(
            "memo-test-2",
            &p,
            &[PatchConfig::Single(PatchClass::AtMa)],
            None,
        )
        .expect("compiles");
        assert_eq!(count(&renamed), count(&kv));
        assert!(verify_memo_hits() - before >= count(&kv));
    }
}
