//! Dataflow graphs of basic blocks.

use crate::cfg::{BasicBlock, Cfg};
use stitch_cpu::MUL_LATENCY;
use stitch_isa::instr::{Instr, Operand, Width};
use stitch_isa::op::AluOp;
use stitch_isa::program::Program;
use stitch_isa::reg::Reg;

/// Operation kind of a DFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeOp {
    /// Register-register ALU/shift/multiply operation.
    Alu(AluOp),
    /// SPM word load (offset-0 addressing, base is an SPM pointer).
    Load,
    /// SPM word store (offset-0 addressing).
    Store,
    /// Anything not eligible for custom instructions (immediates,
    /// non-SPM memory, control flow, NIC ops...).
    Other,
}

impl NodeOp {
    /// Operation class, when ISE-eligible.
    #[must_use]
    pub fn class(self) -> Option<stitch_isa::OpClass> {
        match self {
            NodeOp::Alu(op) => Some(op.class()),
            NodeOp::Load | NodeOp::Store => Some(stitch_isa::OpClass::T),
            NodeOp::Other => None,
        }
    }
}

/// A value source of a node operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Produced by another node of the same block.
    Node(usize),
    /// The value `reg` holds at block entry.
    Ext(Reg),
}

/// One DFG node (an instruction of the block).
#[derive(Debug, Clone)]
pub struct DfgNode {
    /// Absolute instruction index in the program.
    pub instr_index: usize,
    /// Operation kind.
    pub op: NodeOp,
    /// Operand sources: ALU `[a, b]`, load `[addr]`, store `[addr, data]`;
    /// empty for `Other` nodes (their dependencies still appear as edges).
    pub srcs: Vec<Src>,
    /// Destination register, if any.
    pub def: Option<Reg>,
    /// Execute cycles on the base pipeline.
    pub cost: u32,
    /// Ordering predecessors (memory/sequencing edges), node ids.
    pub order_preds: Vec<usize>,
    /// Data predecessors of `Other` nodes (all register inputs).
    pub data_preds: Vec<usize>,
    /// Whether the underlying instruction touches memory (any kind).
    pub is_mem: bool,
    /// Whether it writes memory (store/recv) or sends.
    pub is_mem_write: bool,
}

impl DfgNode {
    /// `true` when the node may enter a custom instruction.
    #[must_use]
    pub fn eligible(&self) -> bool {
        !matches!(self.op, NodeOp::Other)
    }
}

/// The DFG of one basic block.
#[derive(Debug, Clone)]
pub struct BlockDfg {
    /// Owning block id.
    pub block_id: usize,
    /// Nodes in block order (node id = position).
    pub nodes: Vec<DfgNode>,
    /// Consumers of each node's value (data edges).
    pub consumers: Vec<Vec<usize>>,
    /// Whether each node's value is live after the block ends.
    pub live_after_block: Vec<bool>,
}

impl BlockDfg {
    /// Builds the DFG of `block` within `program`.
    ///
    /// Eligibility of loads/stores uses the CFG's SPM-pointer facts
    /// (paper §III-C: only scratchpad-resident data may be accessed from
    /// inside custom instructions).
    #[must_use]
    pub fn build(program: &Program, _cfg: &Cfg, block: &BasicBlock) -> Self {
        let instrs = &program.instrs;
        let mut spm_ptrs = block.spm_ptrs_in.clone();
        // Last in-block definition of each register, by register index.
        let mut last_def: [Option<usize>; 32] = [None; 32];
        let mut nodes: Vec<DfgNode> = Vec::with_capacity(block.len());
        let mut consumers: Vec<Vec<usize>> = Vec::with_capacity(block.len());
        let mut last_store: Option<usize> = None;
        let mut loads_since_store: Vec<usize> = Vec::new();

        let def_of = |last_def: &[Option<usize>; 32], r: Reg| last_def[usize::from(r.index())];
        let src_of = |r: Reg, last_def: &[Option<usize>; 32]| {
            def_of(last_def, r).map_or(Src::Ext(r), Src::Node)
        };

        for (nid, i) in block.range().enumerate() {
            let instr = &instrs[i];
            let (op, srcs): (NodeOp, Vec<Src>) = match instr {
                Instr::Alu {
                    op,
                    rs1,
                    src2: Operand::Reg(rs2),
                    ..
                } if *op != AluOp::Mulh => (
                    NodeOp::Alu(*op),
                    vec![src_of(*rs1, &last_def), src_of(*rs2, &last_def)],
                ),
                Instr::Load {
                    w: Width::Word,
                    base,
                    offset: 0,
                    ..
                } if spm_ptrs.contains(base) => (NodeOp::Load, vec![src_of(*base, &last_def)]),
                Instr::Store {
                    w: Width::Word,
                    rs,
                    base,
                    offset: 0,
                } if spm_ptrs.contains(base) => (
                    NodeOp::Store,
                    vec![src_of(*base, &last_def), src_of(*rs, &last_def)],
                ),
                _ => (NodeOp::Other, Vec::new()),
            };

            // Data predecessors (all kinds, for scheduling).
            let mut data_preds: Vec<usize> = instr
                .uses()
                .iter()
                .filter_map(|&r| def_of(&last_def, r))
                .collect();
            data_preds.sort_unstable();
            data_preds.dedup();

            // Memory/sequencing order edges.
            let mut order_preds = Vec::new();
            let is_mem = matches!(
                instr,
                Instr::Load { .. } | Instr::Store { .. } | Instr::Send { .. } | Instr::Recv { .. }
            );
            let is_write = matches!(
                instr,
                Instr::Store { .. } | Instr::Recv { .. } | Instr::Send { .. }
            );
            if is_mem {
                if let Some(s) = last_store {
                    order_preds.push(s);
                }
                if is_write {
                    order_preds.extend(loads_since_store.iter().copied());
                }
            }
            // Terminators order after everything (handled by scheduler
            // keeping them last; no explicit edges needed).

            let cost = match instr {
                Instr::Alu { op, .. } if op.class() == stitch_isa::OpClass::M => MUL_LATENCY,
                _ => 1,
            };

            // Register consumers bookkeeping.
            for r in instr.uses() {
                if let Some(p) = def_of(&last_def, r) {
                    consumers[p].push(nid);
                }
            }

            nodes.push(DfgNode {
                instr_index: i,
                op,
                srcs,
                def: instr.defs().first().copied(),
                cost,
                order_preds,
                data_preds,
                is_mem,
                is_mem_write: is_write,
            });
            consumers.push(Vec::new());

            if is_write {
                last_store = Some(nid);
                loads_since_store.clear();
            } else if is_mem {
                loads_since_store.push(nid);
            }
            for d in instr.defs() {
                last_def[usize::from(d.index())] = Some(nid);
            }
            // Update SPM facts instruction by instruction.
            spm_ptrs = crate::cfg::transfer_spm(&spm_ptrs, &instrs[i..=i]);
        }

        // Liveness beyond the block: a node's value escapes when its def
        // register is not redefined later in the block and is in live_out.
        let mut live_after = vec![false; nodes.len()];
        for (nid, node) in nodes.iter().enumerate() {
            if let Some(d) = node.def {
                let redefined = nodes[nid + 1..].iter().any(|m| m.def == Some(d));
                live_after[nid] = !redefined && block.live_out.contains(&d);
            }
        }

        BlockDfg {
            block_id: block.id,
            nodes,
            consumers,
            live_after_block: live_after,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for an empty block.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Data+order predecessor ids of a node (deduplicated).
    #[must_use]
    pub fn preds(&self, nid: usize) -> Vec<usize> {
        let n = &self.nodes[nid];
        let mut p: Vec<usize> = n
            .srcs
            .iter()
            .filter_map(|s| match s {
                Src::Node(i) => Some(*i),
                Src::Ext(_) => None,
            })
            .chain(n.order_preds.iter().copied())
            .chain(n.data_preds.iter().copied())
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_isa::memmap::SPM_BASE;
    use stitch_isa::ProgramBuilder;

    fn dfg_of(build: impl FnOnce(&mut ProgramBuilder)) -> (Program, Cfg, BlockDfg) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let dfg = BlockDfg::build(&p, &cfg, &cfg.blocks[0]);
        (p, cfg, dfg)
    }

    #[test]
    fn chains_data_edges() {
        let (_, _, dfg) = dfg_of(|b| {
            b.add(Reg::R3, Reg::R1, Reg::R2);
            b.mul(Reg::R4, Reg::R3, Reg::R3);
            b.sub(Reg::R5, Reg::R4, Reg::R1);
        });
        assert_eq!(
            dfg.nodes[0].srcs,
            vec![Src::Ext(Reg::R1), Src::Ext(Reg::R2)]
        );
        assert_eq!(dfg.nodes[1].srcs, vec![Src::Node(0), Src::Node(0)]);
        assert_eq!(dfg.nodes[2].srcs, vec![Src::Node(1), Src::Ext(Reg::R1)]);
        assert_eq!(dfg.consumers[0], vec![1, 1]);
        assert!(dfg.nodes[1].cost > 1, "multiply is multi-cycle");
    }

    #[test]
    fn spm_load_is_eligible_dram_is_not() {
        let (_, _, dfg) = dfg_of(|b| {
            b.li(Reg::R1, i64::from(SPM_BASE));
            b.li(Reg::R2, 0x2000);
            b.lw(Reg::R3, Reg::R1, 0); // SPM -> eligible
            b.lw(Reg::R4, Reg::R2, 0); // DRAM -> not
            b.lw(Reg::R5, Reg::R1, 8); // non-zero offset -> not
        });
        let load_nodes: Vec<_> = dfg.nodes.iter().filter(|n| n.op == NodeOp::Load).collect();
        assert_eq!(load_nodes.len(), 1);
        assert!(dfg
            .nodes
            .iter()
            .any(|n| n.op == NodeOp::Other && n.instr_index >= 2));
    }

    #[test]
    fn store_ordering_edges() {
        let (_, _, dfg) = dfg_of(|b| {
            b.li(Reg::R1, i64::from(SPM_BASE));
            b.lw(Reg::R2, Reg::R1, 0);
            b.sw(Reg::R2, Reg::R1, 0); // store after load: ordered
            b.lw(Reg::R3, Reg::R1, 0); // load after store: ordered
        });
        let store_id = dfg
            .nodes
            .iter()
            .position(|n| n.op == NodeOp::Store)
            .unwrap();
        let last_load = dfg.len() - 2; // before halt
        assert!(dfg.nodes[store_id].order_preds.contains(&(store_id - 1)));
        assert!(dfg.nodes[last_load].order_preds.contains(&store_id));
    }

    #[test]
    fn live_after_block() {
        let mut b = ProgramBuilder::new();
        b.add(Reg::R3, Reg::R1, Reg::R2); // dead after block? no: used below
        b.add(Reg::R4, Reg::R3, Reg::R3); // r4 live (stored later)
        b.add(Reg::R3, Reg::R4, Reg::R4); // redefines r3
        let skip = b.label();
        b.jump(skip);
        b.bind(skip).unwrap();
        b.sw(Reg::R3, Reg::R5, 0);
        b.sw(Reg::R4, Reg::R5, 4);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let dfg = BlockDfg::build(&p, &cfg, &cfg.blocks[0]);
        assert!(
            !dfg.live_after_block[0],
            "first r3 def is redefined in-block"
        );
        assert!(dfg.live_after_block[1], "r4 escapes");
        assert!(dfg.live_after_block[2], "second r3 def escapes");
    }

    #[test]
    fn immediates_are_ineligible() {
        let (_, _, dfg) = dfg_of(|b| {
            b.addi(Reg::R1, Reg::R1, 1);
            b.add(Reg::R2, Reg::R1, Reg::R1);
        });
        assert_eq!(dfg.nodes[0].op, NodeOp::Other);
        assert!(dfg.nodes[1].eligible());
        // Scheduling dependency still tracked via data_preds.
        assert_eq!(dfg.nodes[1].data_preds, vec![0]);
    }
}
