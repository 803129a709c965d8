//! Analysis 2 — ISE semantic equivalence.
//!
//! A custom instruction is correct when the (possibly fused) patch
//! datapath selected by its control words computes the same function as
//! the dataflow subgraph it replaced. The compiler hands the verifier a
//! *neutral* obligation — an [`IseCheck`] pairing the replaced subgraph
//! with the mapping — and this module re-derives equivalence from
//! scratch, without trusting the mapper:
//!
//! 1. **Structural checks** (`ISE-*` errors): operand arities, register
//!    file port bounds (≤ 4 inputs / ≤ 2 outputs), topological operand
//!    order, packable control words, and the fused-memory restriction
//!    (only the first patch may touch the SPM).
//! 2. **Differential interpretation** (`ISE-DIFF` errors): the subgraph
//!    is interpreted under its reference semantics and compared with
//!    [`stitch_patch::eval_single`]/[`eval_fused`] over many random
//!    input vectors and scratchpad images, including the full final SPM
//!    contents.
//! 3. **Symbolic evaluation** (`ISE-SYM` warning): for memory-free
//!    mappings, both sides are evaluated to normalized symbolic terms
//!    and compared structurally. Normalization is incomplete, so a term
//!    mismatch with a passing differential check is only a warning.
//!
//! An instruction with no outputs and no store (`ISE-DEAD`) is also only
//! a warning: the compiler legitimately emits one when every def of a
//! selected candidate is dead, and it is trivially equivalent to the
//! dead code it replaced.

use crate::diag::{Diagnostic, Report, Span};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use stitch_isa::AluOp;
use stitch_patch::{eval_fused, eval_single, ControlWord, MapSpm, Sel4};

/// Operation of one subgraph node, mirroring the compiler's DFG ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IseOp {
    /// ALU/shift/multiply operation on two operands.
    Alu(AluOp),
    /// Word load from the scratchpad: `srcs = [addr]`.
    Load,
    /// Word store to the scratchpad: `srcs = [addr, data]`; the node's
    /// value is the address (matching the LMAU pass-through).
    Store,
}

/// Operand of a subgraph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IseOperand {
    /// Result of an earlier node of the same subgraph.
    Node(usize),
    /// External input, identified by a dense id `0..n_ext`.
    Ext(usize),
}

/// One node of the replaced dataflow subgraph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IseNode {
    /// Operation.
    pub op: IseOp,
    /// Operands (2 for ALU and Store, 1 for Load).
    pub srcs: Vec<IseOperand>,
}

/// The replaced subgraph, in topological order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IseSubgraph {
    /// Nodes; operands may only reference earlier nodes.
    pub nodes: Vec<IseNode>,
    /// Number of distinct external inputs.
    pub n_ext: usize,
}

/// Which patch output carries a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IseOut {
    /// Stage-2 result.
    Out0,
    /// LMAU result.
    Out1,
}

/// The mapping side of the obligation: control words plus the operand
/// wiring chosen by the mapper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IseMapping {
    /// One control word per patch (two for a fused pair).
    pub controls: Vec<ControlWord>,
    /// External input id feeding each of the four operand slots.
    pub input_slots: [Option<usize>; 4],
    /// Subgraph node index and patch port of each live output.
    pub outputs: Vec<(usize, IseOut)>,
}

/// One custom instruction's complete equivalence obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IseCheck {
    /// Kernel or candidate name (diagnostics only).
    pub name: String,
    /// Custom-instruction id within the binary.
    pub ci: u16,
    /// The replaced subgraph.
    pub subgraph: IseSubgraph,
    /// The mapping to verify against it.
    pub mapping: IseMapping,
}

/// Number of random trials of the differential interpreter. This is
/// the only differential check a mapping gets: the compiler's mapper
/// synthesizes without testing, and its `accelerate_all` gate runs this
/// check (with the structural and symbolic ones) on every custom
/// instruction it ships.
const DIFF_TRIALS: u64 = 64;
/// SPM words preset per trial.
const SPM_PRESET_WORDS: usize = 512;
/// SPM words compared after each trial: the whole dense window of a
/// [`MapSpm`], so stores past the preset are compared too.
const SPM_COMPARE_WORDS: usize = 1024;

// `spm_divergence` slices the compared window out of each scratchpad's
// dense words, so the window must fit inside them.
const _: () = assert!(SPM_COMPARE_WORDS <= MapSpm::DENSE_WORDS);

/// FNV-1a over the derived `Hash` of an obligation's `(subgraph,
/// mapping)`, what its verdict depends on (the name and ci only label
/// diagnostics), so its trial seed is the same in every process and on
/// every host. The key holds only bytes, bools and `usize`s, and enum
/// discriminants arrive as `isize`; both wide kinds are fed as 64
/// little-endian bits.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.write(&(n as u64).to_le_bytes());
    }

    fn write_isize(&mut self, n: isize) {
        self.write(&(n as u64).to_le_bytes());
    }
}

fn stable_hash(check: &IseCheck) -> u64 {
    let mut h = Fnv1a(0xCBF2_9CE4_8422_2325);
    (&check.subgraph, &check.mapping).hash(&mut h);
    h.finish()
}

/// Obligations proven clean in this process: each subgraph with the
/// mappings proven against it. A probe borrows the obligation's parts,
/// so a memo hit clones nothing. Process-wide like the mapper's search
/// cache, because most hits cross `accelerate_all` calls (DESIGN.md §8).
type ProvenMemo = HashMap<IseSubgraph, Vec<IseMapping>>;

fn proven() -> MutexGuard<'static, ProvenMemo> {
    static PROVEN: OnceLock<Mutex<ProvenMemo>> = OnceLock::new();
    PROVEN
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn is_proven(memo: &ProvenMemo, check: &IseCheck) -> bool {
    memo.get(&check.subgraph)
        .is_some_and(|mappings| mappings.contains(&check.mapping))
}

/// [`check_ise`] calls answered by the proof memo so far.
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);

/// Number of [`check_ise`] calls answered by the process-wide proof
/// memo instead of a proof (diagnostic, e.g. for benchmark reports).
#[must_use]
pub fn ise_memo_hits() -> u64 {
    MEMO_HITS.load(Ordering::Relaxed)
}

/// Records `check` as proven clean without running its proof, e.g.
/// when a stored artifact's empty report already vouches for it.
pub fn mark_proven(check: &IseCheck) {
    let mut memo = proven();
    if !is_proven(&memo, check) {
        memo.entry(check.subgraph.clone())
            .or_default()
            .push(check.mapping.clone());
    }
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.0 = x;
        x
    }
}

fn structural(check: &IseCheck) -> Report {
    let mut report = Report::new();
    let sub = &check.subgraph;
    let map = &check.mapping;
    if sub.n_ext > 4 {
        report.push(Diagnostic::error(
            "ISE-ARITY",
            Span::Ci(check.ci),
            format!(
                "{} external inputs exceed the 4 register-file read ports",
                sub.n_ext
            ),
        ));
    }
    let has_store = sub.nodes.iter().any(|n| n.op == IseOp::Store);
    if map.outputs.len() > 2 {
        report.push(Diagnostic::error(
            "ISE-ARITY",
            Span::Ci(check.ci),
            format!(
                "{} outputs exceed the 2 register-file write ports",
                map.outputs.len()
            ),
        ));
    } else if map.outputs.is_empty() && !has_store {
        // A store-only instruction is observable through the SPM; a
        // memory-free one with no outputs computes nothing at all.
        // The compiler legitimately emits these when every def of a
        // selected candidate turns out dead (nothing uses the values
        // later), so this is advisory — the instruction is trivially
        // equivalent to the dead code it replaced, just wasteful.
        report.push(Diagnostic::warning(
            "ISE-DEAD",
            Span::Ci(check.ci),
            "no outputs and no store: the instruction has no observable effect",
        ));
    }
    if map.controls.is_empty() || map.controls.len() > 2 {
        report.push(Diagnostic::error(
            "ISE-SHAPE",
            Span::Ci(check.ci),
            format!("{} control words (1 or 2 expected)", map.controls.len()),
        ));
    }
    for (i, node) in sub.nodes.iter().enumerate() {
        let expected = match node.op {
            IseOp::Alu(_) | IseOp::Store => 2,
            IseOp::Load => 1,
        };
        if node.srcs.len() != expected {
            report.push(Diagnostic::error(
                "ISE-OPERANDS",
                Span::Node(i),
                format!(
                    "{:?} node has {} operands ({expected} expected)",
                    node.op,
                    node.srcs.len()
                ),
            ));
        }
        for s in &node.srcs {
            match *s {
                IseOperand::Node(j) if j >= i => report.push(Diagnostic::error(
                    "ISE-TOPO",
                    Span::Node(i),
                    format!("operand references node {j}, violating topological order"),
                )),
                IseOperand::Ext(e) if e >= sub.n_ext => report.push(Diagnostic::error(
                    "ISE-OPERANDS",
                    Span::Node(i),
                    format!(
                        "external operand id {e} out of range (n_ext = {})",
                        sub.n_ext
                    ),
                )),
                _ => {}
            }
        }
    }
    let stores = sub.nodes.iter().filter(|n| n.op == IseOp::Store).count();
    if stores > 1 {
        report.push(Diagnostic::error(
            "ISE-MEM",
            Span::Ci(check.ci),
            format!("{stores} store nodes; a patch performs at most one SPM write"),
        ));
    }
    for slot in map.input_slots.iter().flatten() {
        if *slot >= sub.n_ext {
            report.push(Diagnostic::error(
                "ISE-OPERANDS",
                Span::Ci(check.ci),
                format!("input slot wires external id {slot} out of range"),
            ));
        }
    }
    for &(node, _) in &map.outputs {
        if node >= sub.nodes.len() {
            report.push(Diagnostic::error(
                "ISE-OPERANDS",
                Span::Ci(check.ci),
                format!(
                    "output references node {node} outside the {}-node subgraph",
                    sub.nodes.len()
                ),
            ));
        }
    }
    for (i, cw) in map.controls.iter().enumerate() {
        if let Err(e) = cw.pack() {
            report.push(Diagnostic::error(
                "ISE-PACK",
                Span::Ci(check.ci),
                format!("control word {i} does not pack: {e}"),
            ));
        }
    }
    if let [_, second] = map.controls.as_slice() {
        if second.uses_memory() {
            report.push(Diagnostic::error(
                "ISE-MEM",
                Span::Ci(check.ci),
                "second patch of a fused pair uses the LMAU; memory must stay on the local patch",
            ));
        }
    }
    report
}

/// Reference interpretation of the subgraph (the compiler's substituted
/// scalar semantics: a store's value is its address), into `vals`.
fn reference_eval(sub: &IseSubgraph, ext: &[u32], spm: &mut MapSpm, vals: &mut Vec<u32>) {
    vals.clear();
    for node in &sub.nodes {
        let v = |s: &IseOperand| match *s {
            IseOperand::Node(j) => vals[j],
            IseOperand::Ext(e) => ext[e],
        };
        let out = match node.op {
            IseOp::Alu(op) => op.eval(v(&node.srcs[0]), v(&node.srcs[1])),
            IseOp::Load => {
                let addr = v(&node.srcs[0]);
                spm.get(addr)
            }
            IseOp::Store => {
                let addr = v(&node.srcs[0]);
                spm.set(addr, v(&node.srcs[1]));
                addr
            }
        };
        vals.push(out);
    }
}

/// Runs the differential trials. Both scratchpads are built once and
/// reset from the same preset before every trial, so each trial starts
/// from identical memory, exactly as two freshly preset scratchpads.
fn differential(check: &IseCheck, seed: u64) -> Report {
    let mut report = Report::new();
    let sub = &check.subgraph;
    let map = &check.mapping;
    // A xorshift state of 0 would stay 0.
    let mut rng = XorShift(seed | 1);
    let mut ext = vec![0u32; sub.n_ext];
    let mut preset = [0u32; SPM_PRESET_WORDS];
    let mut ref_vals = Vec::with_capacity(sub.nodes.len());
    let (mut spm_ref, mut spm_patch) = (MapSpm::new(), MapSpm::new());
    for trial in 0..DIFF_TRIALS {
        for e in &mut ext {
            *e = (rng.next() as u32 % 1024) & !3;
        }
        for w in &mut preset {
            *w = rng.next() as u32;
        }
        spm_ref.reset(&preset);
        spm_patch.reset(&preset);
        reference_eval(sub, &ext, &mut spm_ref, &mut ref_vals);

        let mut ins = [0u32; 4];
        for (slot, ext_id) in map.input_slots.iter().enumerate() {
            if let Some(e) = ext_id {
                ins[slot] = ext[*e];
            }
        }
        let out = match map.controls.as_slice() {
            [c] => eval_single(c, ins, &mut spm_patch),
            [c1, c2] => eval_fused(c1, c2, ins, &mut spm_patch),
            _ => return report, // shape errors already reported
        };
        for &(node, port) in &map.outputs {
            let want = ref_vals[node];
            let got = match port {
                IseOut::Out0 => out.out0,
                IseOut::Out1 => out.out1,
            };
            if want != got {
                report.push(Diagnostic::error(
                    "ISE-DIFF",
                    Span::Node(node),
                    format!(
                        "`{}` ci{}: trial {trial} {:?} produced {got:#x}, reference computes {want:#x}",
                        check.name, check.ci, port
                    ),
                ));
                return report;
            }
        }
        if let Some(d) = spm_divergence(check, trial, &spm_ref, &spm_patch) {
            report.push(d);
            return report;
        }
    }
    report
}

/// Compares the first [`SPM_COMPARE_WORDS`] words of the two
/// scratchpads after a trial; on a mismatch, the `ISE-DIFF` error names
/// the lowest diverging word.
fn spm_divergence(
    check: &IseCheck,
    trial: u64,
    spm_ref: &MapSpm,
    spm_patch: &MapSpm,
) -> Option<Diagnostic> {
    let want = &spm_ref.dense_words()[..SPM_COMPARE_WORDS];
    let got = &spm_patch.dense_words()[..SPM_COMPARE_WORDS];
    if want == got {
        return None;
    }
    let i = want.iter().zip(got).position(|(a, b)| a != b)?;
    Some(Diagnostic::error(
        "ISE-DIFF",
        Span::Ci(check.ci),
        format!(
            "`{}`: trial {trial} SPM word {i} diverges (patch {:#x}, reference {:#x})",
            check.name, got[i], want[i]
        ),
    ))
}

// ---- symbolic evaluation ---------------------------------------------------

/// Symbolic term over the external inputs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Term {
    Const(u32),
    In(usize),
    Op(AluOp, Box<Term>, Box<Term>),
}

fn commutative(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Nor | AluOp::Mul
    )
}

/// Bottom-up normalization: constant folding, commutative operand
/// ordering, and identity/idempotence collapse. Incomplete by design —
/// used for a warning-level cross-check only.
fn normalize(t: Term) -> Term {
    let Term::Op(op, a, b) = t else { return t };
    let a = normalize(*a);
    let b = normalize(*b);
    if let (Term::Const(x), Term::Const(y)) = (&a, &b) {
        return Term::Const(op.eval(*x, *y));
    }
    // Identity elements and pass-through idioms the mapper synthesizes.
    match (op, &a, &b) {
        (AluOp::Add | AluOp::Or | AluOp::Xor, x, Term::Const(0)) => return x.clone(),
        (AluOp::Add | AluOp::Or | AluOp::Xor, Term::Const(0), x) => return x.clone(),
        (AluOp::Sub | AluOp::Sll | AluOp::Srl | AluOp::Sra, x, Term::Const(0)) => return x.clone(),
        (AluOp::And | AluOp::Or, x, y) if x == y => return x.clone(),
        _ => {}
    }
    let (a, b) = if commutative(op) && b < a {
        (b, a)
    } else {
        (a, b)
    };
    Term::Op(op, Box::new(a), Box::new(b))
}

/// Symbolic version of the stage-1/stage-2 datapath. Only called for
/// memory-free mappings, so `t1` is always the `a1` pass-through.
fn patch_terms(cw: &ControlWord, ins: &[Term; 4]) -> (Term, Term) {
    let op2 = |op: AluOp, a: Term, b: Term| Term::Op(op, Box::new(a), Box::new(b));
    match cw {
        ControlWord::AtMa(c) => {
            let a1 = op2(
                c.s1.a1_op,
                ins[c.s1.a1_src1 as usize].clone(),
                ins[c.s1.a1_src2 as usize].clone(),
            );
            let sel = |s: Sel4| match s {
                Sel4::A1 | Sel4::T1 => a1.clone(),
                Sel4::In2 => ins[2].clone(),
                Sel4::In3 => ins[3].clone(),
            };
            let product = op2(AluOp::Mul, sel(c.m_src1), sel(c.m_src2));
            let a2_src1 = if c.a2_takes_a1 { a1.clone() } else { product };
            (op2(c.a2_op, a2_src1, sel(c.a2_src2)), a1)
        }
        ControlWord::AtAs(c) => {
            let a1 = op2(
                c.s1.a1_op,
                ins[c.s1.a1_src1 as usize].clone(),
                ins[c.s1.a1_src2 as usize].clone(),
            );
            let sel = |s: Sel4| match s {
                Sel4::A1 | Sel4::T1 => a1.clone(),
                Sel4::In2 => ins[2].clone(),
                Sel4::In3 => ins[3].clone(),
            };
            let a2 = op2(c.a2_op, sel(c.a2_src1), sel(c.a2_src2));
            let amt = if c.s_amt_in3 {
                ins[3].clone()
            } else {
                ins[2].clone()
            };
            let out0 = match c.s_op {
                Some(sop) => op2(sop, a2, amt),
                None => a2,
            };
            (out0, a1)
        }
        ControlWord::AtSa(c) => {
            let a1 = op2(
                c.s1.a1_op,
                ins[c.s1.a1_src1 as usize].clone(),
                ins[c.s1.a1_src2 as usize].clone(),
            );
            let sel = |s: Sel4| match s {
                Sel4::A1 | Sel4::T1 => a1.clone(),
                Sel4::In2 => ins[2].clone(),
                Sel4::In3 => ins[3].clone(),
            };
            let s_in = sel(c.s_in);
            let amt = if c.s_amt_in3 {
                ins[3].clone()
            } else {
                ins[2].clone()
            };
            let shifted = match c.s_op {
                Some(sop) => op2(sop, s_in, amt),
                None => s_in,
            };
            (op2(c.a2_op, shifted, sel(c.a2_src2)), a1)
        }
        ControlWord::Locus(c) => {
            let mut vals: Vec<Term> = ins.to_vec();
            for lop in &c.ops {
                let t = op2(
                    lop.op,
                    vals[lop.src1 as usize].clone(),
                    vals[lop.src2 as usize].clone(),
                );
                vals.push(t);
            }
            let out0 = vals.last().cloned().unwrap_or(Term::Const(0));
            let out1 = vals.get(4).cloned().unwrap_or(Term::Const(0));
            (out0, out1)
        }
    }
}

fn uses_memory_anywhere(check: &IseCheck) -> bool {
    check
        .subgraph
        .nodes
        .iter()
        .any(|n| matches!(n.op, IseOp::Load | IseOp::Store))
        || check.mapping.controls.iter().any(ControlWord::uses_memory)
}

fn symbolic(check: &IseCheck) -> Report {
    let mut report = Report::new();
    if uses_memory_anywhere(check) {
        return report; // differential interpretation covers memory
    }
    let sub = &check.subgraph;
    let map = &check.mapping;

    // Reference terms, node by node.
    let mut ref_terms: Vec<Term> = Vec::with_capacity(sub.nodes.len());
    for node in &sub.nodes {
        let t = |s: &IseOperand| match *s {
            IseOperand::Node(j) => ref_terms[j].clone(),
            IseOperand::Ext(e) => Term::In(e),
        };
        let IseOp::Alu(op) = node.op else {
            return report;
        };
        ref_terms.push(Term::Op(
            op,
            Box::new(t(&node.srcs[0])),
            Box::new(t(&node.srcs[1])),
        ));
    }

    // Patch terms through the (possibly fused) datapath.
    let mut ins: [Term; 4] = [
        Term::Const(0),
        Term::Const(0),
        Term::Const(0),
        Term::Const(0),
    ];
    for (slot, ext_id) in map.input_slots.iter().enumerate() {
        if let Some(e) = ext_id {
            ins[slot] = Term::In(*e);
        }
    }
    let (out0, out1) = match map.controls.as_slice() {
        [c] => patch_terms(c, &ins),
        [c1, c2] => {
            let (p0, p1) = patch_terms(c1, &ins);
            let forwarded = [p0, p1, ins[2].clone(), ins[3].clone()];
            patch_terms(c2, &forwarded)
        }
        _ => return report,
    };

    for &(node, port) in &map.outputs {
        let want = normalize(ref_terms[node].clone());
        let got = normalize(match port {
            IseOut::Out0 => out0.clone(),
            IseOut::Out1 => out1.clone(),
        });
        if want != got {
            report.push(Diagnostic::warning(
                "ISE-SYM",
                Span::Node(node),
                format!(
                    "`{}` ci{}: normalized symbolic forms differ on {:?} \
                     (differential interpretation passed; normalization is incomplete)",
                    check.name, check.ci, port
                ),
            ));
        }
    }
    report
}

/// Verifies one custom instruction's equivalence obligation.
///
/// The verdict is a pure function of the subgraph and the mapping: the
/// differential trials are seeded from them, never from the name or
/// ci. An obligation that proves clean with no warnings is proven once
/// per process; later calls with the same subgraph and mapping return
/// the empty report at once. An obligation with any diagnostic is
/// proven again on every call, so its messages name the caller's
/// obligation.
#[must_use]
pub fn check_ise(check: &IseCheck) -> Report {
    if is_proven(&proven(), check) {
        MEMO_HITS.fetch_add(1, Ordering::Relaxed);
        return Report::new();
    }
    let report = prove(check, stable_hash(check));
    if report.is_empty() {
        mark_proven(check);
    }
    report
}

fn prove(check: &IseCheck, seed: u64) -> Report {
    let mut report = structural(check);
    if !report.is_clean() {
        // Structural violations make interpretation meaningless (and
        // possibly out of bounds); stop here.
        return report;
    }
    let diff = differential(check, seed);
    let diff_clean = diff.is_clean();
    report.merge(diff);
    if diff_clean {
        report.merge(symbolic(check));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_patch::{AtMaControl, Stage1, T1Mode};

    /// `out0 = (in0 + in1) * in2` on an `{AT-MA}` patch.
    fn mul_add_check() -> IseCheck {
        let sub = IseSubgraph {
            nodes: vec![
                IseNode {
                    op: IseOp::Alu(AluOp::Add),
                    srcs: vec![IseOperand::Ext(0), IseOperand::Ext(1)],
                },
                IseNode {
                    op: IseOp::Alu(AluOp::Mul),
                    srcs: vec![IseOperand::Node(0), IseOperand::Ext(2)],
                },
            ],
            n_ext: 3,
        };
        // a2 = product | in3, and in3 is unused (zero) -> passthrough.
        let correct = ControlWord::AtMa(AtMaControl {
            s1: Stage1 {
                a1_op: AluOp::Add,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Bypass,
            },
            m_src1: Sel4::A1,
            m_src2: Sel4::In2,
            a2_takes_a1: false,
            a2_op: AluOp::Or,
            a2_src2: Sel4::In3,
        });
        IseCheck {
            name: "mul_add".into(),
            ci: 0,
            subgraph: sub,
            mapping: IseMapping {
                controls: vec![correct],
                input_slots: [Some(0), Some(1), Some(2), None],
                outputs: vec![(1, IseOut::Out0)],
            },
        }
    }

    #[test]
    fn correct_mapping_verifies_clean() {
        let r = check_ise(&mul_add_check());
        assert!(r.is_clean(), "{r}");
        assert!(r.is_empty(), "no warnings expected either:\n{r}");
    }

    #[test]
    fn swapped_operand_is_rejected() {
        let mut check = mul_add_check();
        // Swap the wiring of ext0 and ext2: computes (in2 + in1) * in0.
        check.mapping.input_slots = [Some(2), Some(1), Some(0), None];
        let r = check_ise(&check);
        assert!(r.has_error("ISE-DIFF"), "{r}");
    }

    #[test]
    fn wrong_alu_op_is_rejected() {
        let mut check = mul_add_check();
        if let ControlWord::AtMa(c) = &mut check.mapping.controls[0] {
            c.s1.a1_op = AluOp::Sub;
        }
        let r = check_ise(&check);
        assert!(r.has_error("ISE-DIFF"), "{r}");
    }

    #[test]
    fn arity_violations_are_structural_errors() {
        let mut check = mul_add_check();
        check.subgraph.n_ext = 5;
        let r = check_ise(&check);
        assert!(r.has_error("ISE-ARITY"), "{r}");

        let mut check = mul_add_check();
        check.subgraph.nodes[1].srcs = vec![IseOperand::Node(1), IseOperand::Ext(0)];
        let r = check_ise(&check);
        assert!(r.has_error("ISE-TOPO"), "{r}");
    }

    #[test]
    fn fused_memory_restriction_enforced() {
        let mut check = mul_add_check();
        let mem = ControlWord::AtMa(AtMaControl {
            s1: Stage1 {
                a1_op: AluOp::Add,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Load,
            },
            ..AtMaControl::default()
        });
        let first = check.mapping.controls[0].clone();
        check.mapping.controls = vec![first, mem];
        let r = check_ise(&check);
        assert!(r.has_error("ISE-MEM"), "{r}");
    }

    #[test]
    fn store_semantics_verify() {
        // spm[in0 + in1] = in2; node value is the address.
        let sub = IseSubgraph {
            nodes: vec![
                IseNode {
                    op: IseOp::Alu(AluOp::Add),
                    srcs: vec![IseOperand::Ext(0), IseOperand::Ext(1)],
                },
                IseNode {
                    op: IseOp::Store,
                    srcs: vec![IseOperand::Node(0), IseOperand::Ext(2)],
                },
            ],
            n_ext: 3,
        };
        let cw = ControlWord::AtMa(AtMaControl {
            s1: Stage1 {
                a1_op: AluOp::Add,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Store,
            },
            m_src1: Sel4::A1,
            m_src2: Sel4::A1,
            a2_takes_a1: true,
            a2_op: AluOp::Or,
            a2_src2: Sel4::A1,
        });
        let check = IseCheck {
            name: "store".into(),
            ci: 1,
            subgraph: sub,
            mapping: IseMapping {
                controls: vec![cw],
                input_slots: [Some(0), Some(1), Some(2), None],
                outputs: vec![(1, IseOut::Out1)],
            },
        };
        let r = check_ise(&check);
        assert!(r.is_clean(), "{r}");

        // Mutating the stored value wiring must be caught via the SPM
        // content comparison.
        let mut bad = check;
        bad.mapping.input_slots = [Some(0), Some(1), Some(1), None];
        let r = check_ise(&bad);
        assert!(r.has_error("ISE-DIFF"), "{r}");
    }

    /// `spm[in0 + in1] = in2` on an `{AT-MA}` patch whose stage-1 ALU
    /// computes the address with `a1_op`; `Add` is the correct mapping.
    fn store_check(a1_op: AluOp) -> IseCheck {
        let sub = IseSubgraph {
            nodes: vec![
                IseNode {
                    op: IseOp::Alu(AluOp::Add),
                    srcs: vec![IseOperand::Ext(0), IseOperand::Ext(1)],
                },
                IseNode {
                    op: IseOp::Store,
                    srcs: vec![IseOperand::Node(0), IseOperand::Ext(2)],
                },
            ],
            n_ext: 3,
        };
        let cw = ControlWord::AtMa(AtMaControl {
            s1: Stage1 {
                a1_op,
                a1_src1: 0,
                a1_src2: 1,
                t1: T1Mode::Store,
            },
            ..AtMaControl::default()
        });
        IseCheck {
            name: "spm_store".into(),
            ci: 4,
            subgraph: sub,
            mapping: IseMapping {
                controls: vec![cw],
                input_slots: [Some(0), Some(1), Some(2), None],
                outputs: Vec::new(),
            },
        }
    }

    #[test]
    fn misplaced_store_names_the_lowest_diverging_word() {
        assert!(check_ise(&store_check(AluOp::Add)).is_empty());
        // The patch stores `in2` at `in0 | in1` instead of `in0 + in1`.
        let bad = store_check(AluOp::Or);
        let seed = 0x5EED;
        let r = differential(&bad, seed);
        assert!(r.has_error("ISE-DIFF"), "{r}");
        // Replay the trials one word at a time, as two fresh scratchpads
        // compared word by word, to find the first divergence.
        let mut rng = XorShift(seed | 1);
        let want = (0..DIFF_TRIALS).find_map(|trial| {
            let ext: Vec<u32> = (0..3).map(|_| (rng.next() as u32 % 1024) & !3).collect();
            let (mut a, mut b) = (MapSpm::new(), MapSpm::new());
            for i in 0..SPM_PRESET_WORDS as u32 {
                let v = rng.next() as u32;
                a.set(i * 4, v);
                b.set(i * 4, v);
            }
            a.set(ext[0].wrapping_add(ext[1]), ext[2]);
            b.set(ext[0] | ext[1], ext[2]);
            (0..SPM_COMPARE_WORDS as u32)
                .find(|&i| a.get(i * 4) != b.get(i * 4))
                .map(|i| {
                    format!(
                        "trial {trial} SPM word {i} diverges (patch {:#x}, reference {:#x})",
                        b.get(i * 4),
                        a.get(i * 4)
                    )
                })
        });
        let want = want.expect("the misplaced store diverges in some trial");
        let text = r.to_string();
        assert!(text.contains(&want), "want `{want}` in:\n{text}");
        assert!(text.contains("`spm_store`:"), "{text}");
    }

    #[test]
    fn divergence_past_the_preset_is_reported() {
        let check = store_check(AluOp::Add);
        let preset: Vec<u32> = (0..SPM_PRESET_WORDS as u32).map(|i| i * 7 + 1).collect();
        let (mut reference, mut patch) = (MapSpm::new(), MapSpm::new());
        reference.reset(&preset);
        patch.reset(&preset);
        assert!(spm_divergence(&check, 0, &reference, &patch).is_none());
        // Words 512..1023 are outside the preset but inside the window.
        for word in [512u32, 700, 1023] {
            patch.reset(&preset);
            patch.set(word * 4, 0xBEEF);
            let d = spm_divergence(&check, 3, &reference, &patch).expect("compared");
            assert_eq!(d.code, "ISE-DIFF");
            assert_eq!(
                d.message,
                format!(
                    "`spm_store`: trial 3 SPM word {word} diverges (patch 0xbeef, reference 0x0)"
                )
            );
        }
        // The lowest of several diverging words is named.
        patch.reset(&preset);
        patch.set(900 * 4, 1);
        patch.set(600 * 4, 2);
        patch.set(10 * 4, 3);
        let d = spm_divergence(&check, 0, &reference, &patch).expect("compared");
        assert!(
            d.message
                .contains("SPM word 10 diverges (patch 0x3, reference 0x47)"),
            "{}",
            d.message
        );
        // Word 1024 is past the compared window.
        patch.reset(&preset);
        patch.set(1024 * 4, 0xBEEF);
        assert!(spm_divergence(&check, 0, &reference, &patch).is_none());
    }

    /// `mul_add_check` relabelled, and its defective copy with the
    /// wiring of ext0 and ext2 swapped.
    fn labelled(name: &str, ci: u16) -> (IseCheck, IseCheck) {
        let mut check = mul_add_check();
        check.name = name.into();
        check.ci = ci;
        let mut bad = check.clone();
        bad.mapping.input_slots = [Some(2), Some(1), Some(0), None];
        (check, bad)
    }

    #[test]
    fn verdict_ignores_name_and_ci() {
        let (a, _) = labelled("fft", 3);
        let (b, _) = labelled("ifft", 11);
        let (ra, rb) = (check_ise(&a), check_ise(&b));
        assert!(ra.is_empty(), "{ra}");
        assert_eq!(ra, rb);
    }

    #[test]
    fn defects_name_their_own_obligation() {
        for (name, ci) in [("fft", 3), ("ifft", 11)] {
            let (_, bad) = labelled(name, ci);
            let r = check_ise(&bad);
            assert!(r.has_error("ISE-DIFF"), "{r}");
            let text = r.to_string();
            assert!(text.contains(&format!("`{name}` ci{ci}:")), "{text}");
        }
    }

    #[test]
    fn defects_are_never_memoised() {
        let (_, bad) = labelled("pool", 5);
        let first = check_ise(&bad);
        assert!(first.has_error("ISE-DIFF"), "{first}");
        assert_eq!(check_ise(&bad), first, "a defect fails every time");
    }

    #[test]
    fn proving_a_clean_copy_does_not_admit_its_mutant() {
        let (good, bad) = labelled("dtw", 9);
        assert!(check_ise(&good).is_empty());
        assert!(check_ise(&good).is_empty());
        let r = check_ise(&bad);
        assert!(r.has_error("ISE-DIFF"), "{r}");
    }

    #[test]
    fn symbolic_matches_for_clean_mapping() {
        // The clean mapping produces no ISE-SYM warning.
        let r = check_ise(&mul_add_check());
        assert_eq!(r.len(), 0, "{r}");
    }
}
