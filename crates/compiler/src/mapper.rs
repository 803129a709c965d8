//! Mapping ISE candidates onto patches and synthesizing control words.
//!
//! The paper uses a greedy graph-based mapper (§IV, refs [11, 45]). Here
//! the candidate subgraphs are small (a fused pair has at most eight
//! functional units), so the mapper performs an exact backtracking search
//! over
//!
//! 1. node → functional-unit assignments (class-compatible, injective),
//! 2. external value → input-slot assignments (store data is pinned to
//!    `in2`, shift amounts to `in2`/`in3`, fused ride-alongs to
//!    `in2`/`in3`),
//! 3. per-class control-word synthesis honoring every operand-mux option
//!    of the 19-bit encodings (including pass-through tricks: `or(x, x)`
//!    on an idle ALU, shifter bypass, and `add(x, unused-slot)` — unused
//!    operand slots read the zero register).
//!
//! The mapper only synthesizes: it does not prove its mappings.
//! [`crate::accelerate_all`] proves every mapping that reaches a
//! rewritten program with `stitch_verify::check_ise` (structural checks,
//! differential trials and a symbolic check against the candidate DFG),
//! and an unsound mapping fails the compile with
//! [`crate::CompilerError::Verify`] instead of shipping a wrong custom
//! instruction.

use crate::dfg::{BlockDfg, NodeOp, Src};
use crate::enumerate::Candidate;
use std::collections::HashMap;
use stitch_isa::op::AluOp;
use stitch_isa::FastBuildHasher;
use stitch_patch::control::{Sel4, Stage1};
use stitch_patch::{
    AtAsControl, AtMaControl, AtSaControl, ControlWord, LocusControl, LocusOp, PatchClass, T1Mode,
};

/// A patch configuration a kernel can be compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatchConfig {
    /// One patch of the given class (used locally).
    Single(PatchClass),
    /// A fused pair: local class, then remote class.
    Pair(PatchClass, PatchClass),
    /// The LOCUS SFU (no memory ops, never fused).
    Locus,
}

impl PatchConfig {
    /// All configurations explored by the driver: three singles first (so
    /// ties prefer cheaper allocations), then all ordered pairs, then
    /// LOCUS.
    #[must_use]
    pub fn all() -> Vec<PatchConfig> {
        let mut v: Vec<PatchConfig> = PatchClass::STITCH
            .iter()
            .map(|&c| PatchConfig::Single(c))
            .collect();
        for &a in &PatchClass::STITCH {
            for &b in &PatchClass::STITCH {
                v.push(PatchConfig::Pair(a, b));
            }
        }
        v.push(PatchConfig::Locus);
        v
    }

    /// Display name (`{AT-MA}`, `{AT-MA,AT-AS}`, `LOCUS-SFU`).
    #[must_use]
    pub fn name(self) -> String {
        match self {
            PatchConfig::Single(c) => c.name().to_string(),
            PatchConfig::Pair(a, b) => format!(
                "{{{},{}}}",
                a.name().trim_matches(['{', '}']),
                b.name().trim_matches(['{', '}'])
            ),
            PatchConfig::Locus => "LOCUS-SFU".to_string(),
        }
    }
}

impl std::fmt::Display for PatchConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Where a candidate output appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutPort {
    /// Stage-2 result port.
    Out0,
    /// LMAU result port.
    Out1,
}

/// A successful mapping of a candidate onto a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// The configuration mapped onto.
    pub config: PatchConfig,
    /// Control words (one, or two for pairs).
    pub controls: Vec<ControlWord>,
    /// External value driven into each input slot (`None` = unused).
    pub input_slots: [Option<Src>; 4],
    /// Output wiring: `(block-level node id, port)` per candidate output.
    pub outputs: Vec<(usize, OutPort)>,
}

// ---------------------------------------------------------------------
// Candidate view: nodes with candidate-relative sources.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CSrc {
    /// Index within the (sub-)view's node list.
    Internal(usize),
    /// External value (block-level source).
    External(Src),
    /// Marker: the slot carries a live value on the shared fused-pair
    /// operand bus that this patch does not read — it is not zero and not
    /// assignable.
    Busy,
}

#[derive(Debug, Clone)]
struct CNode {
    /// Block-level node id.
    id: usize,
    op: NodeOp,
    alu: Option<AluOp>,
    srcs: Vec<CSrc>,
}

struct View {
    nodes: Vec<CNode>,
    /// Candidate outputs as indices into `nodes`.
    outputs: Vec<usize>,
    ext: Vec<Src>,
}

fn build_view(dfg: &BlockDfg, cand: &Candidate) -> View {
    // View index of a block-level node (a candidate has at most eight).
    let pos = |n: usize| cand.nodes.iter().position(|&x| x == n);
    let nodes = cand
        .nodes
        .iter()
        .map(|&n| {
            let node = &dfg.nodes[n];
            let srcs = node
                .srcs
                .iter()
                .map(|s| match s {
                    Src::Node(p) => match pos(*p) {
                        Some(i) => CSrc::Internal(i),
                        None => CSrc::External(*s),
                    },
                    Src::Ext(_) => CSrc::External(*s),
                })
                .collect();
            let alu = match node.op {
                NodeOp::Alu(op) => Some(op),
                _ => None,
            };
            CNode {
                id: n,
                op: node.op,
                alu,
                srcs,
            }
        })
        .collect();
    View {
        nodes,
        outputs: cand
            .outputs
            .iter()
            .map(|&o| pos(o).expect("candidate outputs are candidate members"))
            .collect(),
        ext: cand.ext_inputs.clone(),
    }
}

// ---------------------------------------------------------------------
// Per-patch synthesis
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    A1,
    T1,
    M,
    A2,
    S,
}

fn units_for(class: PatchClass) -> &'static [Unit] {
    match class {
        PatchClass::AtMa => &[Unit::A1, Unit::T1, Unit::M, Unit::A2],
        PatchClass::AtAs | PatchClass::AtSa => &[Unit::A1, Unit::T1, Unit::A2, Unit::S],
        PatchClass::LocusSfu => &[],
    }
}

fn unit_accepts(u: Unit, op: NodeOp) -> bool {
    match (u, op) {
        (Unit::A1 | Unit::A2, NodeOp::Alu(op)) => op.class() == stitch_isa::OpClass::A,
        (Unit::S, NodeOp::Alu(op)) => op.class() == stitch_isa::OpClass::S,
        (Unit::M, NodeOp::Alu(op)) => op == AluOp::Mul,
        (Unit::T1, NodeOp::Load | NodeOp::Store) => true,
        _ => false,
    }
}

/// What a wire inside the patch carries during synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    /// Value of a view node.
    Node(usize),
    /// An external input slot's value.
    Slot(u8),
    /// Constant zero (unused slot / idle unit).
    Zero,
}

struct PatchSynth {
    control: ControlWord,
    out0: Wire,
    out1: Wire,
}

/// The view node each functional unit computes, indexed by
/// `Unit as usize` (`None` = the unit is idle).
type UnitAssign = [Option<usize>; 5];

/// Maps external values to input slots for one patch.
#[derive(Debug, Clone)]
struct SlotMap {
    ext_of_slot: [Option<CSrc>; 4],
}

impl SlotMap {
    fn slot_of(&self, e: CSrc) -> Option<u8> {
        (0..4u8).find(|&i| self.ext_of_slot[i as usize] == Some(e))
    }

    fn free_slot_from(&self, start: u8) -> Option<u8> {
        (start..4).find(|&i| self.ext_of_slot[i as usize].is_none())
    }
}

fn as_in_sel(s: CSrc, slots: &SlotMap) -> Option<u8> {
    match s {
        CSrc::External(_) => slots.slot_of(s),
        CSrc::Internal(_) | CSrc::Busy => None,
    }
}

fn commutative(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Nor | AluOp::Mul
    )
}

/// Synthesizes one patch's control word for a unit assignment + slot map.
///
/// `want_out1_pass`: a value that must be exposed on `out1` via an idle
/// `A1` + `T1` pass-through (used when a fused second patch must forward
/// a first-patch value back to the core). `a1_pass_choice`: when `A1` and
/// `T1` are otherwise idle, route this external through `A1` (`or(x,x)`)
/// so stage 2 can reach operands sitting on slots 0/1.
#[allow(clippy::too_many_lines)]
fn synth_patch(
    class: PatchClass,
    view: &View,
    assign: &UnitAssign,
    slots: &SlotMap,
    want_out1_pass: Option<CSrc>,
    a1_pass_choice: Option<CSrc>,
) -> Option<PatchSynth> {
    let a1_node = assign[Unit::A1 as usize];
    let t1_node = assign[Unit::T1 as usize];
    let m_node = assign[Unit::M as usize];
    let a2_node = assign[Unit::A2 as usize];
    let s_node = assign[Unit::S as usize];

    // ---- stage 1 --------------------------------------------------------
    let mut a1_pass: Option<CSrc> = None;
    let mut s1 = if let Some(n) = a1_node {
        let node = &view.nodes[n];
        let op = node.alu?;
        let (x, y) = (node.srcs[0], node.srcs[1]);
        let direct = as_in_sel(x, slots).zip(as_in_sel(y, slots));
        let swapped = if commutative(op) {
            as_in_sel(y, slots).zip(as_in_sel(x, slots))
        } else {
            None
        };
        let (src1, src2) = direct.or(swapped)?;
        Stage1 {
            a1_op: op,
            a1_src1: src1,
            a1_src2: src2,
            t1: T1Mode::Bypass,
        }
    } else if let Some(t) = t1_node {
        // A1 passes the T node's address operand through.
        let addr = view.nodes[t].srcs[0];
        let slot = as_in_sel(addr, slots)?;
        a1_pass = Some(addr);
        Stage1 {
            a1_op: AluOp::Or,
            a1_src1: slot,
            a1_src2: slot,
            t1: T1Mode::Bypass,
        }
    } else if let Some(p) = want_out1_pass {
        let slot = as_in_sel(p, slots)?;
        a1_pass = Some(p);
        Stage1 {
            a1_op: AluOp::Or,
            a1_src1: slot,
            a1_src2: slot,
            t1: T1Mode::Bypass,
        }
    } else if let Some(p) = a1_pass_choice {
        let slot = as_in_sel(p, slots)?;
        a1_pass = Some(p);
        Stage1 {
            a1_op: AluOp::Or,
            a1_src1: slot,
            a1_src2: slot,
            t1: T1Mode::Bypass,
        }
    } else {
        Stage1 {
            a1_op: AluOp::Or,
            a1_src1: 0,
            a1_src2: 0,
            t1: T1Mode::Bypass,
        }
    };

    // What the A1 wire carries.
    let a1_wire = match (a1_node, a1_pass) {
        (Some(n), _) => Wire::Node(n),
        (None, Some(pass @ CSrc::External(_))) => Wire::Slot(slots.slot_of(pass)?),
        (None, Some(CSrc::Internal(_))) => return None,
        _ => slot_wire(slots, 0), // idle: passes in0 (zero if unused)
    };

    // T1 configuration; also determines the out1 wire.
    let mut out1_wire = a1_wire;
    if let Some(t) = t1_node {
        let node = &view.nodes[t];
        let addr_ok = match node.srcs[0] {
            CSrc::Internal(i) => a1_node == Some(i),
            e @ CSrc::External(_) => a1_node.is_none() && a1_pass == Some(e),
            CSrc::Busy => false,
        };
        if !addr_ok {
            return None;
        }
        match node.op {
            NodeOp::Load => {
                s1.t1 = T1Mode::Load;
                out1_wire = Wire::Node(t);
            }
            NodeOp::Store => {
                let data = node.srcs[1];
                if slots.slot_of(data) != Some(2) {
                    return None;
                }
                s1.t1 = T1Mode::Store;
                // out1 carries the address — not a usable value.
                out1_wire = Wire::Zero;
            }
            NodeOp::Alu(_) | NodeOp::Other => return None,
        }
        if want_out1_pass.is_some() {
            return None; // T1 busy, cannot also pass a foreign value
        }
    } else if want_out1_pass.is_some() && a1_node.is_some() {
        return None; // A1 busy computing
    }

    // Stage-2 mux resolution.
    let sel4_of = |s: CSrc| -> Option<Sel4> {
        match s {
            CSrc::Internal(i) => {
                if a1_node == Some(i) {
                    Some(Sel4::A1)
                } else if t1_node == Some(i) && view.nodes[i].op == NodeOp::Load {
                    Some(Sel4::T1)
                } else {
                    None
                }
            }
            CSrc::External(_) => match slots.slot_of(s) {
                Some(2) => Some(Sel4::In2),
                Some(3) => Some(Sel4::In3),
                Some(_) if a1_pass == Some(s) => Some(Sel4::A1),
                _ => None,
            },
            CSrc::Busy => None,
        }
    };
    let wire_of = |sel: Sel4| -> Wire {
        match sel {
            Sel4::A1 => a1_wire,
            Sel4::T1 => match t1_node {
                Some(t) if view.nodes[t].op == NodeOp::Load => Wire::Node(t),
                _ => a1_wire, // bypass
            },
            Sel4::In2 => slot_wire(slots, 2),
            Sel4::In3 => slot_wire(slots, 3),
        }
    };

    match class {
        PatchClass::AtMa => {
            let (m_src1, m_src2) = if let Some(m) = m_node {
                let node = &view.nodes[m];
                let direct = sel4_of(node.srcs[0]).zip(sel4_of(node.srcs[1]));
                direct.or_else(|| sel4_of(node.srcs[1]).zip(sel4_of(node.srcs[0])))?
            } else {
                (Sel4::A1, Sel4::A1)
            };
            let (a2_takes_a1, a2_op, a2_src2, out0) = if let Some(a2) = a2_node {
                let node = &view.nodes[a2];
                let op = node.alu?;
                let try_order = |x: CSrc, y: CSrc| -> Option<(bool, Sel4)> {
                    let takes_a1 = match x {
                        CSrc::Internal(i) if m_node == Some(i) => false,
                        CSrc::Internal(i) if a1_node == Some(i) => true,
                        e @ CSrc::External(_) if a1_node.is_none() && a1_pass == Some(e) => true,
                        _ => return None,
                    };
                    Some((takes_a1, sel4_of(y)?))
                };
                let (takes_a1, s2) = try_order(node.srcs[0], node.srcs[1]).or_else(|| {
                    commutative(op)
                        .then(|| try_order(node.srcs[1], node.srcs[0]))
                        .flatten()
                })?;
                (takes_a1, op, s2, Wire::Node(a2))
            } else if let Some(m) = m_node {
                // Pass the product through: add(M, zero-slot).
                let zero = slots.free_slot_from(2)?;
                let z = if zero == 2 { Sel4::In2 } else { Sel4::In3 };
                (false, AluOp::Add, z, Wire::Node(m))
            } else {
                (true, AluOp::Or, Sel4::A1, a1_wire)
            };
            Some(PatchSynth {
                control: ControlWord::AtMa(AtMaControl {
                    s1,
                    m_src1,
                    m_src2,
                    a2_takes_a1,
                    a2_op,
                    a2_src2,
                }),
                out0,
                out1: out1_wire,
            })
        }
        PatchClass::AtAs => {
            let (a2_op, a2_src1, a2_src2, a2_wire) = if let Some(a2) = a2_node {
                let node = &view.nodes[a2];
                let op = node.alu?;
                let direct = sel4_of(node.srcs[0]).zip(sel4_of(node.srcs[1]));
                let swapped = if commutative(op) {
                    sel4_of(node.srcs[1]).zip(sel4_of(node.srcs[0]))
                } else {
                    None
                };
                let (a, b) = direct.or(swapped)?;
                (op, a, b, Wire::Node(a2))
            } else if let Some(sn) = s_node {
                // A2 passes the shifter's data operand: or(x, x).
                let data = view.nodes[sn].srcs[0];
                let sel = sel4_of(data)?;
                (AluOp::Or, sel, sel, wire_of(sel))
            } else {
                (AluOp::Or, Sel4::A1, Sel4::A1, a1_wire)
            };
            let (s_op, s_amt_in3, out0) = if let Some(sn) = s_node {
                let node = &view.nodes[sn];
                let op = node.alu?;
                let data_ok = match node.srcs[0] {
                    CSrc::Internal(i) => {
                        a2_node == Some(i) || (a2_node.is_none() && a2_wire == Wire::Node(i))
                    }
                    e @ CSrc::External(_) => {
                        a2_node.is_none() && sel4_of(e).is_some_and(|s| wire_of(s) == a2_wire)
                    }
                    CSrc::Busy => false,
                };
                if !data_ok {
                    return None;
                }
                let amt_in3 = match as_in_sel(node.srcs[1], slots)? {
                    2 => false,
                    3 => true,
                    _ => return None,
                };
                (Some(op), amt_in3, Wire::Node(sn))
            } else {
                (None, false, a2_wire)
            };
            Some(PatchSynth {
                control: ControlWord::AtAs(AtAsControl {
                    s1,
                    a2_op,
                    a2_src1,
                    a2_src2,
                    s_op,
                    s_amt_in3,
                }),
                out0,
                out1: out1_wire,
            })
        }
        PatchClass::AtSa => {
            let (s_in, s_op, s_amt_in3, s_wire) = if let Some(sn) = s_node {
                let node = &view.nodes[sn];
                let op = node.alu?;
                let data = sel4_of(node.srcs[0])?;
                let amt_in3 = match as_in_sel(node.srcs[1], slots)? {
                    2 => false,
                    3 => true,
                    _ => return None,
                };
                (data, Some(op), amt_in3, Wire::Node(sn))
            } else if let Some(a2) = a2_node {
                // Shifter bypasses one of A2's operands.
                let node = &view.nodes[a2];
                let op = node.alu?;
                if let Some(sel) = sel4_of(node.srcs[0]) {
                    (sel, None, false, wire_of(sel))
                } else if commutative(op) {
                    let sel = sel4_of(node.srcs[1])?;
                    (sel, None, false, wire_of(sel))
                } else {
                    return None;
                }
            } else {
                (Sel4::A1, None, false, a1_wire)
            };
            let (a2_op, a2_src2, out0) = if let Some(a2) = a2_node {
                let node = &view.nodes[a2];
                let op = node.alu?;
                let order = |x: CSrc, y: CSrc| -> Option<Sel4> {
                    let x_is_shift = match x {
                        CSrc::Internal(i) => {
                            s_node == Some(i) || (s_node.is_none() && s_wire == Wire::Node(i))
                        }
                        e @ CSrc::External(_) => {
                            s_node.is_none() && sel4_of(e).is_some_and(|s| wire_of(s) == s_wire)
                        }
                        CSrc::Busy => false,
                    };
                    if x_is_shift {
                        sel4_of(y)
                    } else {
                        None
                    }
                };
                let src2 = order(node.srcs[0], node.srcs[1]).or_else(|| {
                    commutative(op)
                        .then(|| order(node.srcs[1], node.srcs[0]))
                        .flatten()
                })?;
                (op, src2, Wire::Node(a2))
            } else if let Some(sn) = s_node {
                let zero = slots.free_slot_from(2)?;
                let z = if zero == 2 { Sel4::In2 } else { Sel4::In3 };
                (AluOp::Add, z, Wire::Node(sn))
            } else {
                (AluOp::Or, Sel4::A1, a1_wire)
            };
            Some(PatchSynth {
                control: ControlWord::AtSa(AtSaControl {
                    s1,
                    s_in,
                    s_op,
                    s_amt_in3,
                    a2_op,
                    a2_src2,
                }),
                out0,
                out1: out1_wire,
            })
        }
        PatchClass::LocusSfu => None,
    }
}

fn slot_wire(slots: &SlotMap, slot: u8) -> Wire {
    if slots.ext_of_slot[slot as usize].is_some() {
        Wire::Slot(slot)
    } else {
        Wire::Zero
    }
}

// ---------------------------------------------------------------------
// Search drivers
// ---------------------------------------------------------------------

fn unit_assignments(class: PatchClass, nodes: &[CNode]) -> Vec<UnitAssign> {
    fn rec(
        units: &[Unit],
        nodes: &[CNode],
        idx: usize,
        current: &mut UnitAssign,
        out: &mut Vec<UnitAssign>,
    ) {
        if idx == nodes.len() {
            out.push(*current);
            return;
        }
        for &u in units {
            if current[u as usize].is_some() || !unit_accepts(u, nodes[idx].op) {
                continue;
            }
            current[u as usize] = Some(idx);
            rec(units, nodes, idx + 1, current, out);
            current[u as usize] = None;
        }
    }
    let mut out = Vec::new();
    rec(units_for(class), nodes, 0, &mut [None; 5], &mut out);
    out
}

/// A set of input slots as a bitmask: bit `s` allows slot `s`.
type SlotSet = u8;

/// Every input slot.
const ANY_SLOT: SlotSet = 0b1111;

/// The one-slot set `{s}`.
fn only_slot(s: u8) -> SlotSet {
    1 << s
}

/// Slot-choice constraints: each external may be restricted to a set of
/// slots (store data -> `{2}`, ride-alongs -> `{2, 3}`, ...). At most
/// four externals are pinned at once: store data and two ride-alongs on
/// a first patch, or two carried values and two ride-alongs on a second.
#[derive(Default)]
struct Pinned {
    pins: [Option<(CSrc, SlotSet)>; 4],
}

impl Pinned {
    /// The slots `e` is restricted to, if it is pinned.
    fn get(&self, e: CSrc) -> Option<SlotSet> {
        self.pins.iter().flatten().find(|p| p.0 == e).map(|p| p.1)
    }

    /// Pins `e` to `slots`, replacing an earlier pin of `e`.
    fn insert(&mut self, e: CSrc, slots: SlotSet) {
        // Pins are never removed, so the first free entry follows every
        // used one.
        let at = self
            .pins
            .iter()
            .position(|p| p.is_none_or(|p| p.0 == e))
            .expect("at most four externals are pinned at once");
        self.pins[at] = Some((e, slots));
    }
}

fn slot_maps(ext: &[CSrc], pinned: &Pinned) -> Vec<SlotMap> {
    fn rec(ext: &[CSrc], idx: usize, pinned: &Pinned, map: &mut SlotMap, out: &mut Vec<SlotMap>) {
        if idx == ext.len() {
            out.push(map.clone());
            return;
        }
        let e = ext[idx];
        let allowed = pinned.get(e).unwrap_or(ANY_SLOT);
        for s in 0..4u8 {
            if allowed & only_slot(s) != 0 && map.ext_of_slot[s as usize].is_none() {
                map.ext_of_slot[s as usize] = Some(e);
                rec(ext, idx + 1, pinned, map, out);
                map.ext_of_slot[s as usize] = None;
            }
        }
    }
    let mut out = Vec::new();
    rec(
        ext,
        0,
        pinned,
        &mut SlotMap {
            ext_of_slot: [None; 4],
        },
        &mut out,
    );
    out
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Memo key: a candidate view rendered as plain data, plus the target
/// configuration. Two candidates with equal keys describe the same
/// computation over the same block-level value names, so the (pure,
/// deterministic) mapping search returns the same result for both.
#[derive(Hash, PartialEq, Eq)]
struct ViewKey {
    nodes: Vec<(usize, NodeOp, Vec<CSrc>)>,
    outputs: Vec<usize>,
    ext: Vec<Src>,
    config: PatchConfig,
}

impl ViewKey {
    fn new(view: &View, config: PatchConfig) -> Self {
        ViewKey {
            nodes: view
                .nodes
                .iter()
                .map(|n| (n.id, n.op, n.srcs.clone()))
                .collect(),
            outputs: view.outputs.clone(),
            ext: view.ext.clone(),
            config,
        }
    }
}

/// Process-wide memo of search results, shared across sweep worker
/// threads. The pair search is exponential in candidate size, and sweeps
/// re-plan the same hot loops for every architecture and frame count;
/// identical views recur constantly. The search is a pure function of
/// the key, so concurrent misses at worst duplicate work — they cannot
/// disagree.
static MAP_CACHE: std::sync::OnceLock<std::sync::Mutex<MapTable>> = std::sync::OnceLock::new();

/// Search results by view; only looked up by key, never iterated.
type MapTable = HashMap<ViewKey, Option<Mapping>, FastBuildHasher>;

/// Tries to map `cand` onto `config`, returning a synthesized
/// [`Mapping`]. The mapping is not proven here: [`crate::accelerate_all`]
/// proves each one it ships with `stitch_verify::check_ise`.
#[must_use]
pub fn map_candidate(dfg: &BlockDfg, cand: &Candidate, config: PatchConfig) -> Option<Mapping> {
    let view = build_view(dfg, cand);
    let key = ViewKey::new(&view, config);
    let cache = MAP_CACHE.get_or_init(|| std::sync::Mutex::new(HashMap::default()));
    if let Some(hit) = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&key)
    {
        return hit.clone();
    }
    let m = match config {
        PatchConfig::Single(class) => map_single_view(&view, class),
        PatchConfig::Pair(a, b) => map_pair_view(&view, a, b),
        PatchConfig::Locus => map_locus_view(&view),
    };
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(key, m.clone());
    m
}

fn pin_store_data(view: &View, assign: &UnitAssign) -> Option<Pinned> {
    let mut pinned = Pinned::default();
    if let Some(t) = assign[Unit::T1 as usize] {
        if view.nodes[t].op == NodeOp::Store {
            match view.nodes[t].srcs[1] {
                e @ CSrc::External(_) => pinned.insert(e, only_slot(2)),
                CSrc::Internal(_) | CSrc::Busy => return None,
            }
        }
    }
    Some(pinned)
}

/// Pass-through choices for an idle A1: none, or any external.
fn a1_choices(ext: &[CSrc]) -> Vec<Option<CSrc>> {
    let mut v = vec![None];
    v.extend(ext.iter().map(|e| Some(*e)));
    v
}

fn map_single_view(view: &View, class: PatchClass) -> Option<Mapping> {
    let ext: Vec<CSrc> = view.ext.iter().map(|e| CSrc::External(*e)).collect();
    for assign in unit_assignments(class, &view.nodes) {
        let Some(pinned) = pin_store_data(view, &assign) else {
            continue;
        };
        for slots in slot_maps(&ext, &pinned) {
            for a1p in a1_choices(&ext) {
                let Some(synth) = synth_patch(class, view, &assign, &slots, None, a1p) else {
                    continue;
                };
                if let Some(m) = finish_single(view, PatchConfig::Single(class), &synth, &slots) {
                    return Some(m);
                }
            }
        }
    }
    None
}

fn finish_single(
    view: &View,
    config: PatchConfig,
    synth: &PatchSynth,
    slots: &SlotMap,
) -> Option<Mapping> {
    let mut outputs = Vec::new();
    for &o in &view.outputs {
        let port = if synth.out0 == Wire::Node(o) {
            OutPort::Out0
        } else if synth.out1 == Wire::Node(o) {
            OutPort::Out1
        } else {
            return None;
        };
        if outputs.iter().any(|(_, p)| *p == port) {
            return None;
        }
        outputs.push((view.nodes[o].id, port));
    }
    Some(Mapping {
        config,
        controls: vec![synth.control.clone()],
        input_slots: export_slots(slots),
        outputs,
    })
}

fn export_slots(slots: &SlotMap) -> [Option<Src>; 4] {
    let mut out = [None; 4];
    for (i, e) in slots.ext_of_slot.iter().enumerate() {
        if let Some(CSrc::External(src)) = e {
            out[i] = Some(*src);
        }
    }
    out
}

fn map_pair_view(view: &View, c1: PatchClass, c2: PatchClass) -> Option<Mapping> {
    let n = view.nodes.len();
    if !(2..=8).contains(&n) {
        return None;
    }
    for split in 1u32..(1 << n) - 1 {
        let in_s2 = |i: usize| split & (1 << i) != 0;
        if view
            .nodes
            .iter()
            .enumerate()
            .any(|(i, nd)| in_s2(i) && matches!(nd.op, NodeOp::Load | NodeOp::Store))
        {
            continue; // no memory ops on the remote patch
        }
        // Edges must only go S1 -> S2.
        let bad_edge = view.nodes.iter().enumerate().any(|(i, nd)| {
            nd.srcs
                .iter()
                .any(|s| matches!(s, CSrc::Internal(j) if !in_s2(i) && in_s2(*j)))
        });
        if bad_edge {
            continue;
        }
        // S1 values needed downstream.
        let mut cross: Vec<usize> = Vec::new();
        for (i, nd) in view.nodes.iter().enumerate() {
            if in_s2(i) {
                for s in &nd.srcs {
                    if let CSrc::Internal(j) = s {
                        if !in_s2(*j) && !cross.contains(j) {
                            cross.push(*j);
                        }
                    }
                }
            }
        }
        let s1_escapes: Vec<usize> = view
            .outputs
            .iter()
            .copied()
            .filter(|&o| !in_s2(o))
            .collect();
        let mut carried = cross.clone();
        for &e in &s1_escapes {
            if !carried.contains(&e) {
                carried.push(e);
            }
        }
        if carried.len() > 2 || s1_escapes.len() > 1 {
            continue;
        }
        if let Some(m) = try_pair_split(view, c1, c2, split, &carried, &s1_escapes) {
            return Some(m);
        }
    }
    None
}

#[allow(clippy::too_many_lines)]
fn try_pair_split(
    view: &View,
    c1: PatchClass,
    c2: PatchClass,
    split: u32,
    carried: &[usize],
    s1_escapes: &[usize],
) -> Option<Mapping> {
    let in_s2 = |i: usize| split & (1 << i) != 0;
    let (mut s1_ids, mut s2_ids) = (Vec::new(), Vec::new());
    for i in 0..view.nodes.len() {
        if in_s2(i) {
            s2_ids.push(i);
        } else {
            s1_ids.push(i);
        }
    }

    // Sub-view builder: nodes outside `ids` become pseudo-externals keyed
    // by the block-level id (Src::Node(block_id)).
    let sub_view = |ids: &[usize], outputs: Vec<usize>| -> View {
        let remap = |src: CSrc| -> CSrc {
            match src {
                CSrc::Internal(j) => match ids.iter().position(|&x| x == j) {
                    Some(p) => CSrc::Internal(p),
                    None => CSrc::External(Src::Node(view.nodes[j].id)),
                },
                e => e,
            }
        };
        let nodes: Vec<CNode> = ids
            .iter()
            .map(|&i| {
                let n = &view.nodes[i];
                CNode {
                    id: n.id,
                    op: n.op,
                    alu: n.alu,
                    srcs: n.srcs.iter().map(|&s| remap(s)).collect(),
                }
            })
            .collect();
        let mut ext: Vec<Src> = Vec::new();
        for n in &nodes {
            for s in &n.srcs {
                if let CSrc::External(e) = s {
                    if !ext.contains(e) {
                        ext.push(*e);
                    }
                }
            }
        }
        View {
            nodes,
            outputs,
            ext,
        }
    };

    let carried_positions: Vec<usize> = carried
        .iter()
        .map(|&c| s1_ids.iter().position(|&x| x == c))
        .collect::<Option<_>>()?;
    let v1 = sub_view(&s1_ids, carried_positions);
    let s2_outputs: Vec<usize> = view
        .outputs
        .iter()
        .filter(|&&o| in_s2(o))
        .map(|&o| s2_ids.iter().position(|&x| x == o))
        .collect::<Option<_>>()?;
    let v2 = sub_view(&s2_ids, s2_outputs);

    // Ride-along externals: v2 externals that are not carried S1 values.
    // They travel on the shared 4-word bus, so they must sit on slots 2/3
    // of the issuing core's operands — and the *first* patch's slot
    // assignment must place them there (whether or not it reads them).
    let carried_ids: Vec<usize> = carried.iter().map(|&c| view.nodes[c].id).collect();
    let ride: Vec<CSrc> = v2
        .ext
        .iter()
        .filter(|e| !matches!(e, Src::Node(id) if carried_ids.contains(id)))
        .map(|e| CSrc::External(*e))
        .collect();
    if ride.len() > 2 {
        return None;
    }

    // Joint slot universe for the first patch: its own externals plus the
    // ride-alongs.
    let mut ext1: Vec<CSrc> = v1.ext.iter().map(|e| CSrc::External(*e)).collect();
    for r in &ride {
        if !ext1.contains(r) {
            ext1.push(*r);
        }
    }

    for assign1 in unit_assignments(c1, &v1.nodes) {
        let Some(mut pinned1) = pin_store_data(&v1, &assign1) else {
            continue;
        };
        for r in &ride {
            // Store-data pin (slot 2) wins if the ride is also the store
            // data; both constraints are compatible since 2 is in {2,3}.
            if pinned1.get(*r).is_none() {
                pinned1.insert(*r, only_slot(2) | only_slot(3));
            }
        }
        for slots1 in slot_maps(&ext1, &pinned1) {
            for a1p in a1_choices(&ext1) {
                let Some(synth1) = synth_patch(c1, &v1, &assign1, &slots1, None, a1p) else {
                    continue;
                };

                // Which carried value sits on which first-patch port?
                let wire_for = |c: usize| -> Option<Wire> {
                    s1_ids.iter().position(|&x| x == c).map(Wire::Node)
                };
                let arrangements: Vec<Vec<(usize, u8)>> = match carried {
                    [] => vec![vec![]],
                    [a] => vec![vec![(*a, 0)], vec![(*a, 1)]],
                    [a, b] => vec![vec![(*a, 0), (*b, 1)], vec![(*b, 0), (*a, 1)]],
                    _ => return None,
                };
                for arr in arrangements {
                    if arr.iter().any(|&(c, port)| {
                        let w = if port == 0 { synth1.out0 } else { synth1.out1 };
                        wire_for(c).is_none_or(|wf| w != wf)
                    }) {
                        continue;
                    }

                    let mut pinned2 = Pinned::default();
                    for &(c, port) in &arr {
                        let key = CSrc::External(Src::Node(view.nodes[c].id));
                        pinned2.insert(key, only_slot(port));
                    }
                    let Some(ride_slots) = ride
                        .iter()
                        .map(|r| slots1.slot_of(*r))
                        .collect::<Option<Vec<_>>>()
                    else {
                        continue; // a ride-along the slot map never placed
                    };
                    for (r, s) in ride.iter().zip(ride_slots) {
                        pinned2.insert(*r, only_slot(s));
                    }
                    let ext2: Vec<CSrc> = v2.ext.iter().map(|e| CSrc::External(*e)).collect();
                    let pass = s1_escapes
                        .first()
                        .map(|&c| CSrc::External(Src::Node(view.nodes[c].id)));
                    for assign2 in unit_assignments(c2, &v2.nodes) {
                        for mut slots2 in slot_maps(&ext2, &pinned2) {
                            // Mark bus words the second patch does not
                            // read: slots 0/1 always carry the first
                            // patch's outputs; slots 2/3 carry whatever
                            // the core's operand slots hold.
                            for s in 0..4usize {
                                if slots2.ext_of_slot[s].is_some() {
                                    continue;
                                }
                                let bus_live = if s < 2 {
                                    true
                                } else {
                                    slots1.ext_of_slot[s].is_some()
                                };
                                if bus_live {
                                    slots2.ext_of_slot[s] = Some(CSrc::Busy);
                                }
                            }
                            let a1p2s = a1_choices(&ext2);
                            for a1p2 in a1p2s {
                                let Some(synth2) =
                                    synth_patch(c2, &v2, &assign2, &slots2, pass, a1p2)
                                else {
                                    continue;
                                };
                                if let Some(m) = finish_pair(
                                    view, c1, c2, &s2_ids, &synth1, &synth2, &slots1, &slots2,
                                    s1_escapes,
                                ) {
                                    return Some(m);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn finish_pair(
    view: &View,
    c1: PatchClass,
    c2: PatchClass,
    s2_ids: &[usize],
    synth1: &PatchSynth,
    synth2: &PatchSynth,
    slots1: &SlotMap,
    slots2: &SlotMap,
    s1_escapes: &[usize],
) -> Option<Mapping> {
    let mut outputs = Vec::new();
    for &o in &view.outputs {
        let port = if let Some(pos) = s2_ids.iter().position(|&x| x == o) {
            if synth2.out0 == Wire::Node(pos) {
                OutPort::Out0
            } else if synth2.out1 == Wire::Node(pos) {
                OutPort::Out1
            } else {
                return None;
            }
        } else {
            // An escaping S1 value arrives at patch2 in its pinned slot
            // and must appear on one of patch2's ports as that slot's
            // wire.
            if !s1_escapes.contains(&o) {
                return None;
            }
            let key = CSrc::External(Src::Node(view.nodes[o].id));
            let slot = slots2.slot_of(key)?;
            if synth2.out1 == Wire::Slot(slot) {
                OutPort::Out1
            } else if synth2.out0 == Wire::Slot(slot) {
                OutPort::Out0
            } else {
                return None;
            }
        };
        if outputs.iter().any(|(_, p)| *p == port) {
            return None;
        }
        outputs.push((view.nodes[o].id, port));
    }

    // Ride-alongs are already part of slots1, so the exported operand
    // assignment covers everything the core must supply.
    Some(Mapping {
        config: PatchConfig::Pair(c1, c2),
        controls: vec![synth1.control.clone(), synth2.control.clone()],
        input_slots: export_slots(slots1),
        outputs,
    })
}

fn map_locus_view(view: &View) -> Option<Mapping> {
    if view.nodes.len() > 2 || view.ext.len() > 4 {
        return None;
    }
    if view
        .nodes
        .iter()
        .any(|n| matches!(n.op, NodeOp::Load | NodeOp::Store | NodeOp::Other))
    {
        return None;
    }
    let mut input_slots = [None; 4];
    for (i, e) in view.ext.iter().enumerate() {
        input_slots[i] = Some(*e);
    }
    // Externals are distinct, so each sits in the slot of its position.
    let slot_of = |e: Src| view.ext.iter().position(|&x| x == e).map(|i| i as u8);
    let mut ops = Vec::new();
    for (i, n) in view.nodes.iter().enumerate() {
        let op = n.alu?;
        if op.class() == stitch_isa::OpClass::M {
            return None; // the SFU has no multiplier
        }
        let code = |s: CSrc| -> Option<u8> {
            match s {
                CSrc::External(e) => slot_of(e),
                CSrc::Internal(j) if j < i => Some(4 + j as u8),
                CSrc::Internal(_) | CSrc::Busy => None,
            }
        };
        ops.push(LocusOp {
            op,
            src1: code(n.srcs[0])?,
            src2: code(n.srcs[1])?,
        });
    }
    let mut outputs = Vec::new();
    for &o in &view.outputs {
        let port = if o == view.nodes.len() - 1 {
            OutPort::Out0
        } else if o == 0 && view.nodes.len() > 1 {
            OutPort::Out1
        } else {
            return None;
        };
        if outputs.iter().any(|(_, p)| *p == port) {
            return None;
        }
        outputs.push((view.nodes[o].id, port));
    }
    Some(Mapping {
        config: PatchConfig::Locus,
        controls: vec![ControlWord::Locus(LocusControl { ops })],
        input_slots,
        outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::enumerate::{enumerate_candidates, EnumerateLimits};
    use stitch_isa::memmap::SPM_BASE;
    use stitch_isa::{ProgramBuilder, Reg};

    fn setup(build: impl FnOnce(&mut ProgramBuilder)) -> (BlockDfg, Vec<Candidate>) {
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
    fn maps_mul_add_on_atma() {
        let (dfg, cands) = setup(|b| {
            b.mul(Reg::R4, Reg::R1, Reg::R2);
            b.add(Reg::R5, Reg::R4, Reg::R3);
            b.sw(Reg::R5, Reg::R10, 0);
        });
        let cand = cands
            .iter()
            .find(|c| c.len() == 2)
            .expect("chain candidate");
        let m = map_candidate(&dfg, cand, PatchConfig::Single(PatchClass::AtMa))
            .expect("maps on {AT-MA}");
        assert_eq!(m.controls.len(), 1);
        assert!(
            map_candidate(&dfg, cand, PatchConfig::Single(PatchClass::AtAs)).is_none(),
            "{{AT-AS}} has no multiplier"
        );
    }

    #[test]
    fn maps_add_shift_on_atas() {
        let (dfg, cands) = setup(|b| {
            b.add(Reg::R4, Reg::R1, Reg::R2);
            b.alu(AluOp::Sll, Reg::R5, Reg::R4, Reg::R3);
            b.sw(Reg::R5, Reg::R10, 0);
        });
        let cand = cands.iter().find(|c| c.len() == 2).expect("chain");
        assert!(map_candidate(&dfg, cand, PatchConfig::Single(PatchClass::AtAs)).is_some());
        // {AT-SA} also handles A-then-S by computing the add on its
        // stage-1 ALU and shifting in stage 2.
        assert!(map_candidate(&dfg, cand, PatchConfig::Single(PatchClass::AtSa)).is_some());
    }

    #[test]
    fn maps_shift_add_on_atsa() {
        let (dfg, cands) = setup(|b| {
            b.alu(AluOp::Srl, Reg::R4, Reg::R1, Reg::R2);
            b.add(Reg::R5, Reg::R4, Reg::R3);
            b.sw(Reg::R5, Reg::R10, 0);
        });
        let cand = cands.iter().find(|c| c.len() == 2).expect("chain");
        assert!(map_candidate(&dfg, cand, PatchConfig::Single(PatchClass::AtSa)).is_some());
        assert!(
            map_candidate(&dfg, cand, PatchConfig::Single(PatchClass::AtAs)).is_none(),
            "on {{AT-AS}} the shifter is last; nothing can consume it"
        );
    }

    #[test]
    fn maps_load_compute_on_single_patch() {
        let (dfg, cands) = setup(|b| {
            b.li(Reg::R1, i64::from(SPM_BASE));
            b.add(Reg::R2, Reg::R1, Reg::R6);
            b.lw(Reg::R3, Reg::R2, 0);
            b.mul(Reg::R4, Reg::R3, Reg::R5);
            b.sw(Reg::R4, Reg::R7, 0); // non-SPM store keeps r4 live
        });
        let cand = cands
            .iter()
            .filter(|c| c.len() == 3)
            .find(|c| c.nodes.iter().any(|&n| dfg.nodes[n].op == NodeOp::Load))
            .expect("load chain candidate");
        let m = map_candidate(&dfg, cand, PatchConfig::Single(PatchClass::AtMa))
            .expect("A-T-M chain maps on {AT-MA}");
        assert!(m.controls[0].uses_memory());
        assert!(map_candidate(&dfg, cand, PatchConfig::Locus).is_none());
    }

    #[test]
    fn locus_maps_pure_compute() {
        let (dfg, cands) = setup(|b| {
            b.add(Reg::R4, Reg::R1, Reg::R2);
            b.alu(AluOp::Sll, Reg::R5, Reg::R4, Reg::R3);
        });
        let cand = cands.iter().find(|c| c.len() == 2).expect("chain");
        let m = map_candidate(&dfg, cand, PatchConfig::Locus).expect("locus chain");
        assert!(matches!(m.controls[0], ControlWord::Locus(_)));
        // And the SFU has no multiplier: mul chains do not map.
        let (dfg2, cands2) = setup(|b| {
            b.add(Reg::R4, Reg::R1, Reg::R2);
            b.mul(Reg::R5, Reg::R4, Reg::R3);
        });
        let cand2 = cands2.iter().find(|c| c.len() == 2).expect("chain");
        assert!(map_candidate(&dfg2, cand2, PatchConfig::Locus).is_none());
    }

    #[test]
    fn pair_maps_larger_pattern() {
        // ((a+b)^2 - (a+b)) >> c : A,M,A,S — too big for any single patch.
        let (dfg, cands) = setup(|b| {
            b.add(Reg::R5, Reg::R1, Reg::R2);
            b.mul(Reg::R6, Reg::R5, Reg::R5);
            b.sub(Reg::R7, Reg::R6, Reg::R5);
            b.alu(AluOp::Srl, Reg::R8, Reg::R7, Reg::R3);
            b.sw(Reg::R8, Reg::R10, 0);
        });
        let cand = cands
            .iter()
            .find(|c| c.len() == 4)
            .expect("4-node candidate");
        let m = map_candidate(
            &dfg,
            cand,
            PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa),
        );
        assert!(m.is_some(), "pair mapping should succeed");
        assert_eq!(m.unwrap().controls.len(), 2);
        for c in PatchClass::STITCH {
            assert!(
                map_candidate(&dfg, cand, PatchConfig::Single(c)).is_none(),
                "A/M/A/S chain cannot fit a single {c}"
            );
        }
    }

    #[test]
    fn store_data_rides_in2() {
        let (dfg, cands) = setup(|b| {
            b.li(Reg::R1, i64::from(SPM_BASE));
            b.add(Reg::R2, Reg::R1, Reg::R6);
            b.sw(Reg::R5, Reg::R2, 0);
        });
        let cand = cands
            .iter()
            .find(|c| c.len() == 2 && c.store_count(&dfg) == 1)
            .expect("addr+store candidate");
        let m = map_candidate(&dfg, cand, PatchConfig::Single(PatchClass::AtMa))
            .expect("store chain maps");
        assert_eq!(m.input_slots[2], Some(Src::Ext(Reg::R5)));
    }

    /// The search drivers as they were over hashed containers: a unit
    /// assignment as a map from unit to node, a pin as a slot list.
    fn unit_assignments_reference(
        class: PatchClass,
        nodes: &[CNode],
    ) -> Vec<HashMap<usize, usize>> {
        fn rec(
            units: &[Unit],
            nodes: &[CNode],
            idx: usize,
            current: &mut HashMap<usize, usize>,
            out: &mut Vec<HashMap<usize, usize>>,
        ) {
            if idx == nodes.len() {
                out.push(current.clone());
                return;
            }
            for &u in units {
                if current.contains_key(&(u as usize)) || !unit_accepts(u, nodes[idx].op) {
                    continue;
                }
                current.insert(u as usize, idx);
                rec(units, nodes, idx + 1, current, out);
                current.remove(&(u as usize));
            }
        }
        let mut out = Vec::new();
        rec(units_for(class), nodes, 0, &mut HashMap::new(), &mut out);
        out
    }

    fn slot_maps_reference(
        ext: &[CSrc],
        pinned: &HashMap<CSrc, Vec<u8>>,
    ) -> Vec<[Option<CSrc>; 4]> {
        fn rec(
            ext: &[CSrc],
            idx: usize,
            pinned: &HashMap<CSrc, Vec<u8>>,
            map: &mut [Option<CSrc>; 4],
            out: &mut Vec<[Option<CSrc>; 4]>,
        ) {
            if idx == ext.len() {
                out.push(*map);
                return;
            }
            let e = ext[idx];
            let slots: Vec<u8> = match pinned.get(&e) {
                Some(s) => s.clone(),
                None => (0..4).collect(),
            };
            for s in slots {
                if map[s as usize].is_none() {
                    map[s as usize] = Some(e);
                    rec(ext, idx + 1, pinned, map, out);
                    map[s as usize] = None;
                }
            }
        }
        let mut out = Vec::new();
        rec(ext, 0, pinned, &mut [None; 4], &mut out);
        out
    }

    /// Every sequence of `len` items drawn from `0..choices`, in
    /// lexicographic order.
    fn sequences(choices: usize, len: usize) -> Vec<Vec<usize>> {
        (0..len).fold(vec![vec![]], |acc, _| {
            acc.iter()
                .flat_map(|prefix| {
                    (0..choices).map(move |c| {
                        let mut next = prefix.clone();
                        next.push(c);
                        next
                    })
                })
                .collect()
        })
    }

    #[test]
    fn unit_assignments_match_the_map_based_search() {
        let ops = [
            NodeOp::Alu(AluOp::Add),
            NodeOp::Alu(AluOp::Sll),
            NodeOp::Alu(AluOp::Mul),
            NodeOp::Load,
            NodeOp::Store,
            NodeOp::Other,
        ];
        let mut assignments = 0;
        for len in 0..=5 {
            for seq in sequences(ops.len(), len) {
                let nodes: Vec<CNode> = seq
                    .iter()
                    .enumerate()
                    .map(|(id, &o)| CNode {
                        id,
                        op: ops[o],
                        alu: None,
                        srcs: Vec::new(),
                    })
                    .collect();
                for class in PatchClass::STITCH {
                    let want: Vec<UnitAssign> = unit_assignments_reference(class, &nodes)
                        .iter()
                        .map(|m| {
                            let mut a = [None; 5];
                            for (&u, &n) in m {
                                a[u] = Some(n);
                            }
                            a
                        })
                        .collect();
                    let got = unit_assignments(class, &nodes);
                    assert_eq!(got, want, "{class} over {seq:?}");
                    assignments += got.len();
                }
            }
        }
        assert!(assignments > 0, "the sweep must reach real assignments");
    }

    #[test]
    fn slot_maps_match_the_map_based_search() {
        let ext: Vec<CSrc> = [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5]
            .iter()
            .map(|&r| CSrc::External(Src::Ext(r)))
            .collect();
        // Pin choices per external: unpinned, or one of the slot lists
        // the mapper pins (store data, ride-alongs, carried ports).
        let pins: [Option<&[u8]>; 6] = [
            None,
            Some(&[2]),
            Some(&[2, 3]),
            Some(&[0]),
            Some(&[1]),
            Some(&[3]),
        ];
        let mut maps = 0;
        for len in 0..=5 {
            for seq in sequences(pins.len(), len) {
                if seq.iter().filter(|&&p| pins[p].is_some()).count() > 4 {
                    continue; // the mapper never pins more than four
                }
                let mut reference = HashMap::new();
                let mut pinned = Pinned::default();
                for (e, &p) in ext.iter().zip(&seq) {
                    if let Some(slots) = pins[p] {
                        reference.insert(*e, slots.to_vec());
                        pinned.insert(*e, slots.iter().fold(0, |m, &s| m | only_slot(s)));
                    }
                }
                let got: Vec<[Option<CSrc>; 4]> = slot_maps(&ext[..len], &pinned)
                    .iter()
                    .map(|m| m.ext_of_slot)
                    .collect();
                assert_eq!(got, slot_maps_reference(&ext[..len], &reference), "{seq:?}");
                maps += got.len();
            }
        }
        assert!(maps > 1000, "the sweep must reach real slot maps");
    }

    #[test]
    fn a_later_pin_replaces_an_earlier_one() {
        let (a, b) = (
            CSrc::External(Src::Ext(Reg::R1)),
            CSrc::External(Src::Ext(Reg::R2)),
        );
        let mut pinned = Pinned::default();
        pinned.insert(a, only_slot(2));
        pinned.insert(b, ANY_SLOT);
        pinned.insert(a, only_slot(3));
        assert_eq!(pinned.get(a), Some(only_slot(3)));
        assert_eq!(pinned.get(b), Some(ANY_SLOT));
        assert_eq!(pinned.get(CSrc::Busy), None);
    }

    #[test]
    fn all_mappings_verified_via_every_config() {
        // Every mapping the synthesizer emits, under every configuration,
        // must pass the same equivalence proof `accelerate_all` gates on.
        let (dfg, cands) = setup(|b| {
            b.li(Reg::R1, i64::from(SPM_BASE));
            b.add(Reg::R2, Reg::R1, Reg::R9);
            b.lw(Reg::R3, Reg::R2, 0);
            b.mul(Reg::R4, Reg::R3, Reg::R5);
            b.add(Reg::R6, Reg::R4, Reg::R7);
            b.alu(AluOp::Sll, Reg::R8, Reg::R6, Reg::R10);
            b.sw(Reg::R8, Reg::R11, 0);
        });
        let mut mapped = 0;
        for cand in &cands {
            for cfg in PatchConfig::all() {
                let Some(mapping) = map_candidate(&dfg, cand, cfg) else {
                    continue;
                };
                let chosen = crate::rewrite::Chosen {
                    candidate: cand.clone(),
                    mapping,
                };
                let check = crate::verify::ise_check("t", 0, &dfg, &chosen).expect("adapter");
                let report = stitch_verify::check_ise(&check);
                assert!(report.is_clean(), "{cfg}: {report}");
                mapped += 1;
            }
        }
        assert!(mapped > 0, "at least some mappings must exist");
    }
}
