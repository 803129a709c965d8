//! Structural digests: per-point result hashes and ISE obligation keys.
//!
//! Every value is fed field by field with explicit tags and lengths, never
//! through `{:?}` text, so a digest changes exactly when a result does
//! and does not move when a `Debug` impl is reformatted.

use stitch::{PatchClass, PatchConfig, StitchPlan, TileId};
use stitch_verify::{IseCheck, IseOp, IseOperand, IseOut};

/// FNV-1a over a byte stream, with typed little-endian writers.
#[derive(Debug, Clone)]
pub struct Fnv {
    hash: u64,
    /// The bytes fed so far, kept only when building an exact key.
    bytes: Option<Vec<u8>>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    pub fn new() -> Self {
        Fnv {
            hash: FNV_OFFSET,
            bytes: None,
        }
    }

    fn keeping_bytes() -> Self {
        Fnv {
            hash: FNV_OFFSET,
            bytes: Some(Vec::new()),
        }
    }

    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        if let Some(kept) = &mut self.bytes {
            kept.extend_from_slice(bytes);
        }
        self
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.raw(&[v])
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    pub fn len(&mut self, n: usize) -> &mut Self {
        self.u64(n as u64)
    }

    pub fn finish(&self) -> u64 {
        self.hash
    }
}

fn class(h: &mut Fnv, c: PatchClass) {
    h.u8(c as u8);
}

fn tile(h: &mut Fnv, t: Option<TileId>) {
    match t {
        None => h.u8(0),
        Some(t) => h.u8(1).u8(t.0),
    };
}

fn config(h: &mut Fnv, c: PatchConfig) {
    match c {
        PatchConfig::Single(a) => {
            h.u8(0);
            class(h, a);
        }
        PatchConfig::Pair(a, b) => {
            h.u8(1);
            class(h, a);
            class(h, b);
        }
        PatchConfig::Locus => {
            h.u8(2);
        }
    }
}

/// Feeds a stitching plan's decisions: placement, granted acceleration
/// and reserved circuits. The human-readable decision log is not part
/// of the result.
pub fn plan(h: &mut Fnv, p: &StitchPlan) {
    h.len(p.tiles.len());
    for t in &p.tiles {
        h.u8(t.0);
    }
    h.len(p.accel.len());
    for a in &p.accel {
        match a {
            None => {
                h.u8(0);
            }
            Some(g) => {
                h.u8(1);
                config(h, g.config);
                tile(h, g.partner);
                h.u32(g.hops);
            }
        }
    }
    h.len(p.circuits.len());
    for &(from, to) in &p.circuits {
        h.u8(from.0).u8(to.0);
    }
}

/// Digest of one point's result: its plan, simulated cycles and every
/// node's output words.
pub fn point(p: &StitchPlan, cycles: u64, outputs: &[Vec<u32>]) -> u64 {
    let mut h = Fnv::new();
    plan(&mut h, p);
    h.u64(cycles);
    h.len(outputs.len());
    for node in outputs {
        h.len(node.len());
        for &w in node {
            h.u32(w);
        }
    }
    h.finish()
}

/// Structural key of an ISE equivalence obligation with its name and
/// custom-instruction id left out: two obligations with equal keys are
/// the same proof.
pub fn ise_key(c: &IseCheck) -> Vec<u8> {
    let mut h = Fnv::keeping_bytes();
    h.len(c.subgraph.n_ext).len(c.subgraph.nodes.len());
    for n in &c.subgraph.nodes {
        match n.op {
            IseOp::Alu(op) => h.u8(0).u8(op as u8),
            IseOp::Load => h.u8(1),
            IseOp::Store => h.u8(2),
        };
        h.len(n.srcs.len());
        for s in &n.srcs {
            match *s {
                IseOperand::Node(i) => h.u8(0).len(i),
                IseOperand::Ext(i) => h.u8(1).len(i),
            };
        }
    }
    h.len(c.mapping.controls.len());
    for w in &c.mapping.controls {
        class(&mut h, w.class());
        match w.pack() {
            Ok(bits) => h.u8(0).u32(bits),
            Err(_) => h.u8(1),
        };
    }
    for slot in c.mapping.input_slots {
        match slot {
            None => h.u8(0),
            Some(i) => h.u8(1).len(i),
        };
    }
    h.len(c.mapping.outputs.len());
    for &(node, port) in &c.mapping.outputs {
        h.len(node).u8(match port {
            IseOut::Out0 => 0,
            IseOut::Out1 => 1,
        });
    }
    h.bytes.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_compiler::GrantedAccel;
    use stitch_isa::AluOp;
    use stitch_verify::{IseMapping, IseNode, IseSubgraph};

    fn sample_plan() -> StitchPlan {
        StitchPlan {
            tiles: vec![TileId(0), TileId(5)],
            accel: vec![
                None,
                Some(GrantedAccel {
                    config: PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa),
                    partner: Some(TileId(6)),
                    hops: 1,
                }),
            ],
            circuits: vec![(TileId(5), TileId(6))],
            log: vec!["placed".to_string()],
        }
    }

    #[test]
    fn digest_is_stable_and_sees_every_field() {
        let p = sample_plan();
        let outputs = vec![vec![1, 2, 3], vec![4]];
        let d = point(&p, 1000, &outputs);
        assert_eq!(d, point(&p, 1000, &outputs));
        assert_ne!(d, point(&p, 1001, &outputs));
        assert_ne!(d, point(&p, 1000, &[vec![1, 2, 3], vec![5]]));
        // Lengths are framed: moving a word between nodes changes it.
        assert_ne!(d, point(&p, 1000, &[vec![1, 2], vec![3, 4]]));
        let mut q = sample_plan();
        q.accel[1].as_mut().unwrap().partner = Some(TileId(7));
        assert_ne!(d, point(&q, 1000, &outputs));
        let mut r = sample_plan();
        r.accel[1].as_mut().unwrap().config = PatchConfig::Pair(PatchClass::AtSa, PatchClass::AtMa);
        assert_ne!(d, point(&r, 1000, &outputs));
        // The decision log is commentary, not result.
        let mut s = sample_plan();
        s.log.push("more".to_string());
        assert_eq!(d, point(&s, 1000, &outputs));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of "a".
        assert_eq!(Fnv::new().raw(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }

    fn check(name: &str, ci: u16, op: AluOp) -> IseCheck {
        IseCheck {
            name: name.to_string(),
            ci,
            subgraph: IseSubgraph {
                nodes: vec![IseNode {
                    op: IseOp::Alu(op),
                    srcs: vec![IseOperand::Ext(0), IseOperand::Ext(1)],
                }],
                n_ext: 2,
            },
            mapping: IseMapping {
                controls: Vec::new(),
                input_slots: [Some(0), Some(1), None, None],
                outputs: vec![(0, IseOut::Out0)],
            },
        }
    }

    #[test]
    fn ise_key_ignores_name_and_ci_only() {
        let a = ise_key(&check("fft", 0, AluOp::Add));
        assert_eq!(a, ise_key(&check("ifft", 7, AluOp::Add)));
        assert_ne!(a, ise_key(&check("fft", 0, AluOp::Sub)));
        let mut c = check("fft", 0, AluOp::Add);
        c.mapping.input_slots = [Some(1), Some(0), None, None];
        assert_ne!(a, ise_key(&c));
    }
}
