//! Reference candidate enumerator: the allocating search the compiler
//! shipped before its interface check moved onto fixed arrays, written
//! against the public `BlockDfg`. `stitch_compiler::enumerate_candidates`
//! must return exactly its candidates, in the same order.

use std::collections::HashSet;
use stitch_compiler::{BlockDfg, Candidate, EnumerateLimits, NodeOp, Src};

type Mask = u128;

fn bit(i: usize) -> Mask {
    1u128 << i
}

struct Ctx<'a> {
    dfg: &'a BlockDfg,
    reach: Vec<Mask>,
    eligible: Mask,
    limits: EnumerateLimits,
    seen: HashSet<Mask>,
    out: Vec<Candidate>,
}

fn reachability(dfg: &BlockDfg) -> Vec<Mask> {
    let n = dfg.len();
    let mut reach = vec![0 as Mask; n];
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

fn interface(dfg: &BlockDfg, set: Mask) -> Option<Candidate> {
    let mut ext: Vec<Src> = Vec::new();
    let mut outputs: Vec<usize> = Vec::new();
    let mut nodes: Vec<usize> = Vec::new();
    let mut saved: u32 = 0;
    let mut stores = 0usize;
    let mut m = set;
    while m != 0 {
        let nid = m.trailing_zeros() as usize;
        m &= m - 1;
        let node = &dfg.nodes[nid];
        nodes.push(nid);
        saved += node.cost;
        if node.op == NodeOp::Store {
            stores += 1;
        }
        for s in &node.srcs {
            let is_ext = match s {
                Src::Node(p) => set & bit(*p) == 0,
                Src::Ext(_) => true,
            };
            if is_ext && !ext.contains(s) {
                ext.push(*s);
            }
        }
        let outside_use = dfg.consumers[nid].iter().any(|&c| set & bit(c) == 0);
        if node.def.is_some() && (outside_use || dfg.live_after_block[nid]) {
            outputs.push(nid);
        }
    }
    if ext.len() > 4 || outputs.len() > 2 || stores > 1 {
        return None;
    }
    Some(Candidate {
        nodes,
        ext_inputs: ext,
        outputs,
        saved_cycles: saved.saturating_sub(1),
    })
}

fn convex(ctx: &Ctx<'_>, set: Mask) -> bool {
    let mut m = set;
    while m != 0 {
        let u = m.trailing_zeros() as usize;
        m &= m - 1;
        let mut om = ctx.reach[u] & !set;
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
        grow(ctx, next, min_node);
        if ctx.out.len() >= ctx.limits.max_candidates {
            return;
        }
    }
}

/// The reference `enumerate_candidates`.
pub fn enumerate_candidates(dfg: &BlockDfg, limits: EnumerateLimits) -> Vec<Candidate> {
    if dfg.len() > 128 {
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
        seen: HashSet::new(),
        out: Vec::new(),
    };
    for seed in 0..dfg.len() {
        if eligible & bit(seed) == 0 {
            continue;
        }
        let set = bit(seed);
        ctx.seen.insert(set);
        if let Some(c) = interface(dfg, set) {
            if dfg.nodes[seed].op == NodeOp::Load || dfg.nodes[seed].cost > 1 {
                ctx.out.push(c);
            }
        }
        grow(&mut ctx, set, seed);
    }
    ctx.out
}
