//! Convex candidate-subgraph enumeration under the 4-input/2-output
//! constraint (paper §IV: "ISE identifier ... generates the custom
//! instruction candidates from the DFGs under the 4-input/2-output
//! constraint").

use crate::dfg::{BlockDfg, NodeOp, Src};
use std::collections::HashSet;
use stitch_isa::{FastBuildHasher, Reg};

/// Register-port bounds of a custom instruction: at most four distinct
/// external inputs, two outputs and one store (paper §IV).
const MAX_INPUTS: usize = 4;
const MAX_OUTPUTS: usize = 2;

/// Enumeration bounds.
#[derive(Debug, Clone, Copy)]
pub struct EnumerateLimits {
    /// Maximum nodes per candidate (a fused patch pair has at most eight
    /// functional units).
    pub max_nodes: usize,
    /// Maximum candidates kept per block.
    pub max_candidates: usize,
}

impl Default for EnumerateLimits {
    fn default() -> Self {
        EnumerateLimits {
            max_nodes: 8,
            max_candidates: 512,
        }
    }
}

/// A candidate custom instruction: a convex, connected set of eligible
/// DFG nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Member node ids, ascending.
    pub nodes: Vec<usize>,
    /// Distinct external value sources consumed by the candidate.
    pub ext_inputs: Vec<Src>,
    /// Nodes whose values are needed outside the candidate.
    pub outputs: Vec<usize>,
    /// Base-pipeline cycles the candidate would save if it executed in a
    /// single cycle (sum of member costs minus one).
    pub saved_cycles: u32,
}

impl Candidate {
    /// Number of member operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for an (invalid) empty candidate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of store operations inside.
    #[must_use]
    pub fn store_count(&self, dfg: &BlockDfg) -> usize {
        self.nodes
            .iter()
            .filter(|&&n| dfg.nodes[n].op == NodeOp::Store)
            .count()
    }
}

/// Bitmask type for blocks of up to 128 instructions.
type Mask = u128;

fn bit(i: usize) -> Mask {
    1u128 << i
}

struct Ctx<'a> {
    dfg: &'a BlockDfg,
    /// Transitive data+order successors of each node.
    reach: Vec<Mask>,
    eligible: Mask,
    limits: EnumerateLimits,
    seen: HashSet<Mask, FastBuildHasher>,
    out: Vec<Candidate>,
}

/// Builds transitive reachability (node -> all transitive successors).
fn reachability(dfg: &BlockDfg) -> Vec<Mask> {
    let n = dfg.len();
    let mut reach = vec![0 as Mask; n];
    // Nodes are in topological (block) order, so a reverse sweep works.
    let mut direct_succ = vec![0 as Mask; n];
    for nid in 0..n {
        for p in dfg.preds(nid) {
            direct_succ[p] |= bit(nid);
        }
    }
    for nid in (0..n).rev() {
        let mut r = direct_succ[nid];
        let mut rest = direct_succ[nid];
        while rest != 0 {
            let s = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            r |= reach[s];
        }
        reach[nid] = r;
    }
    reach
}

/// Computes a candidate's interface; returns `None` when it violates the
/// 4-in/2-out constraint or contains more than one store.
///
/// The interface is gathered into fixed arrays and the walk stops at the
/// first bound it breaks, so only candidates that fit allocate.
fn interface(dfg: &BlockDfg, set: Mask) -> Option<Candidate> {
    let mut ext = [Src::Ext(Reg::R0); MAX_INPUTS];
    let mut n_ext = 0;
    let mut outputs = [0usize; MAX_OUTPUTS];
    let mut n_out = 0;
    let mut saved: u32 = 0;
    let mut stores = 0usize;
    let mut m = set;
    while m != 0 {
        let nid = m.trailing_zeros() as usize;
        m &= m - 1;
        let node = &dfg.nodes[nid];
        saved += node.cost;
        if node.op == NodeOp::Store {
            stores += 1;
            if stores > 1 {
                return None;
            }
        }
        for s in &node.srcs {
            let is_ext = match s {
                Src::Node(p) => set & bit(*p) == 0,
                Src::Ext(_) => true,
            };
            if is_ext && !ext[..n_ext].contains(s) {
                *ext.get_mut(n_ext)? = *s;
                n_ext += 1;
            }
        }
        // Output if consumed outside or live after the block.
        let outside_use = dfg.consumers[nid].iter().any(|&c| set & bit(c) == 0);
        if node.def.is_some() && (outside_use || dfg.live_after_block[nid]) {
            *outputs.get_mut(n_out)? = nid;
            n_out += 1;
        }
    }
    Some(Candidate {
        nodes: members(set),
        ext_inputs: ext[..n_ext].to_vec(),
        outputs: outputs[..n_out].to_vec(),
        saved_cycles: saved.saturating_sub(1),
    })
}

/// The node ids of `set`, ascending.
fn members(set: Mask) -> Vec<usize> {
    let mut nodes = Vec::with_capacity(set.count_ones() as usize);
    let mut m = set;
    while m != 0 {
        nodes.push(m.trailing_zeros() as usize);
        m &= m - 1;
    }
    nodes
}

/// `true` when `set` is convex: no path from inside leaves and re-enters.
fn convex(ctx: &Ctx<'_>, set: Mask) -> bool {
    // For every node u in set and successor v not in set, v must not
    // reach any node of set.
    let mut m = set;
    while m != 0 {
        let u = m.trailing_zeros() as usize;
        m &= m - 1;
        let outside_succ = ctx.reach[u] & !set;
        let mut om = outside_succ;
        while om != 0 {
            let v = om.trailing_zeros() as usize;
            om &= om - 1;
            if ctx.reach[v] & set != 0 {
                return false;
            }
        }
    }
    true
}

fn neighbors(dfg: &BlockDfg, set: Mask) -> Mask {
    let mut nb: Mask = 0;
    let mut m = set;
    while m != 0 {
        let nid = m.trailing_zeros() as usize;
        m &= m - 1;
        for s in &dfg.nodes[nid].srcs {
            if let Src::Node(p) = s {
                nb |= bit(*p);
            }
        }
        for &c in &dfg.consumers[nid] {
            nb |= bit(c);
        }
    }
    nb & !set
}

fn grow(ctx: &mut Ctx<'_>, set: Mask, min_node: usize) {
    if ctx.out.len() >= ctx.limits.max_candidates {
        return;
    }
    if set.count_ones() as usize >= ctx.limits.max_nodes {
        return;
    }
    let mut nb = neighbors(ctx.dfg, set) & ctx.eligible;
    // Only grow toward ids >= min_node's seed to avoid duplicates of the
    // same set discovered from different seeds; dedup set handles the rest.
    while nb != 0 {
        let v = nb.trailing_zeros() as usize;
        nb &= nb - 1;
        if v < min_node {
            continue;
        }
        let next = set | bit(v);
        if !ctx.seen.insert(next) {
            continue;
        }
        if !convex(ctx, next) {
            continue;
        }
        if let Some(c) = interface(ctx.dfg, next) {
            if c.len() >= 2 {
                ctx.out.push(c);
            }
        }
        // Grow past an interface violation too: it can be repaired by
        // growing (an internal edge may disappear), within the node bound.
        grow(ctx, next, min_node);
        if ctx.out.len() >= ctx.limits.max_candidates {
            return;
        }
    }
}

/// Enumerates connected convex candidates of `dfg` (each with at least
/// two operations — single-op candidates rarely pay for a CI, except
/// single loads which are included).
#[must_use]
pub fn enumerate_candidates(dfg: &BlockDfg, limits: EnumerateLimits) -> Vec<Candidate> {
    if dfg.len() > 128 {
        // Mask width bound; blocks this large never appear in kernels.
        return Vec::new();
    }
    let eligible: Mask = dfg
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.eligible())
        .fold(0, |m, (i, _)| m | bit(i));
    let mut ctx = Ctx {
        reach: reachability(dfg),
        dfg,
        eligible,
        limits,
        seen: HashSet::default(),
        out: Vec::new(),
    };
    for seed in 0..dfg.len() {
        if eligible & bit(seed) == 0 {
            continue;
        }
        let set = bit(seed);
        ctx.seen.insert(set);
        // Single-node candidates: keep loads (memory inclusion is the
        // decisive advantage of patches over the LOCUS SFU).
        if let Some(c) = interface(dfg, set) {
            if dfg.nodes[seed].op == NodeOp::Load || dfg.nodes[seed].cost > 1 {
                ctx.out.push(c);
            }
        }
        grow(&mut ctx, set, seed);
    }
    ctx.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use stitch_isa::memmap::SPM_BASE;
    use stitch_isa::{ProgramBuilder, Reg};

    fn candidates_of(build: impl FnOnce(&mut ProgramBuilder)) -> (BlockDfg, Vec<Candidate>) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let dfg = BlockDfg::build(&p, &cfg, &cfg.blocks[0]);
        let cands = enumerate_candidates(&dfg, EnumerateLimits::default());
        (dfg, cands)
    }

    #[test]
    fn finds_add_mul_chain() {
        let (_, cands) = candidates_of(|b| {
            b.add(Reg::R3, Reg::R1, Reg::R2);
            b.mul(Reg::R4, Reg::R3, Reg::R5);
            b.sw(Reg::R4, Reg::R10, 0); // keep the result live
        });
        assert!(
            cands.iter().any(|c| c.nodes == vec![0, 1]),
            "chain candidate missing: {cands:?}"
        );
        let chain = cands.iter().find(|c| c.nodes == vec![0, 1]).unwrap();
        // Inputs r1, r2, r5; output node 1.
        assert_eq!(chain.ext_inputs.len(), 3);
        assert_eq!(chain.outputs, vec![1]);
        // add(1) + mul(MUL_LATENCY) - 1 cycles saved.
        assert_eq!(chain.saved_cycles, stitch_cpu::MUL_LATENCY);
    }

    #[test]
    fn respects_input_constraint() {
        // A 2-node candidate with 5 distinct inputs must be rejected; the
        // tree of adds with shared inputs is fine.
        let (_, cands) = candidates_of(|b| {
            b.add(Reg::R5, Reg::R1, Reg::R2);
            b.add(Reg::R6, Reg::R3, Reg::R4);
            b.add(Reg::R7, Reg::R5, Reg::R6); // whole tree: 4 inputs - ok
            b.add(Reg::R8, Reg::R7, Reg::R9); // adding this: 5 inputs
        });
        assert!(cands.iter().any(|c| c.nodes == vec![0, 1, 2]));
        assert!(!cands.iter().any(|c| c.nodes == vec![0, 1, 2, 3]));
    }

    #[test]
    fn respects_output_constraint() {
        // Three parallel adds all escaping -> any 3-node candidate has 3
        // outputs; pairs have 2 and are allowed (connected via shared input).
        let (_, cands) = candidates_of(|b| {
            b.add(Reg::R4, Reg::R1, Reg::R2);
            b.add(Reg::R5, Reg::R1, Reg::R2);
            b.add(Reg::R6, Reg::R1, Reg::R2);
            b.sw(Reg::R4, Reg::R10, 0);
            b.sw(Reg::R5, Reg::R10, 4);
            b.sw(Reg::R6, Reg::R10, 8);
        });
        assert!(!cands
            .iter()
            .any(|c| c.nodes.len() == 3 && c.nodes.iter().all(|&n| n < 3)));
    }

    #[test]
    fn convexity_enforced() {
        // a -> (other) -> c: candidate {a, c} would be non-convex because
        // the ineligible middle node both consumes a and feeds c.
        let (dfg, cands) = candidates_of(|b| {
            b.add(Reg::R3, Reg::R1, Reg::R2); // a (node 0)
            b.addi(Reg::R4, Reg::R3, 1); // ineligible middle (node 1)
            b.add(Reg::R5, Reg::R4, Reg::R3); // c (node 2)
        });
        assert_eq!(dfg.nodes[1].op, NodeOp::Other);
        assert!(!cands.iter().any(|c| c.nodes == vec![0, 2]), "{cands:?}");
    }

    #[test]
    fn single_load_candidate_kept() {
        let (dfg, cands) = candidates_of(|b| {
            b.li(Reg::R1, i64::from(SPM_BASE));
            b.lw(Reg::R2, Reg::R1, 0);
            b.sw(Reg::R2, Reg::R3, 0); // non-SPM store keeps r2 live
        });
        let load = dfg.nodes.iter().position(|n| n.op == NodeOp::Load).unwrap();
        assert!(cands.iter().any(|c| c.nodes == vec![load]));
    }

    #[test]
    fn load_compute_store_chain() {
        let (_, cands) = candidates_of(|b| {
            b.li(Reg::R1, i64::from(SPM_BASE));
            b.addi(Reg::R2, Reg::R1, 0); // SPM ptr copy (ineligible: imm)
            b.lw(Reg::R3, Reg::R1, 0);
            b.add(Reg::R4, Reg::R3, Reg::R5);
            b.sw(Reg::R4, Reg::R1, 0);
        });
        // load -> add -> store should appear as one candidate.
        assert!(
            cands
                .iter()
                .any(|c| c.len() == 3 && c.saved_cycles == 2 && c.outputs.len() <= 1),
            "{cands:?}"
        );
    }

    #[test]
    fn two_stores_rejected() {
        let (_, cands) = candidates_of(|b| {
            b.li(Reg::R1, i64::from(SPM_BASE));
            b.addi(Reg::R9, Reg::R1, 4);
            b.mv(Reg::R2, Reg::R1);
            b.sw(Reg::R3, Reg::R2, 0);
            b.sw(Reg::R4, Reg::R2, 0);
        });
        for c in &cands {
            assert!(c.nodes.iter().filter(|&&n| n >= 3).count() <= 2);
        }
    }
}
