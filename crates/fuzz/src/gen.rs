//! Seeded input generators and mutators.
//!
//! Everything here is a pure function of a [`SimRng`] stream, so any
//! generated input — and any mutant derived from it — reproduces from
//! the seed alone. No external fuzzing engine, no `rand`: the workspace
//! xorshift generator is the only entropy source.

use stitch_isa::op::AluOp;
use stitch_isa::{memmap, Cond, Program, ProgramBuilder, Reg};
use stitch_noc::FlitSnapshot as Flit;
use stitch_sim::{ChipSnapshot, SimRng, TileId};

/// Registers the program generator shuffles data through. `R10` is the
/// loop counter and `R12`/`R13` the DRAM/SPM base pointers, so they
/// never appear as a random destination.
const DATA: [Reg; 8] = [
    Reg::R1,
    Reg::R2,
    Reg::R3,
    Reg::R4,
    Reg::R5,
    Reg::R6,
    Reg::R7,
    Reg::R8,
];

const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];

fn reg(rng: &mut SimRng) -> Reg {
    DATA[rng.index(DATA.len())]
}

fn src(rng: &mut SimRng) -> Reg {
    if rng.chance(1, 8) {
        Reg::R0
    } else {
        reg(rng)
    }
}

/// Emits one random loop-body instruction. Memory offsets stay inside
/// the first 1 KiB of the DRAM scratch region / SPM window so accesses
/// always land in mapped memory.
fn random_instr(b: &mut ProgramBuilder, rng: &mut SimRng) {
    match rng.index(8) {
        0 => {
            let op = AluOp::ALL[rng.index(AluOp::ALL.len())];
            b.alu(op, reg(rng), src(rng), src(rng));
        }
        1 => {
            let op = AluOp::ALL[rng.index(AluOp::ALL.len())];
            let imm = rng.below(4096) as i32 - 2048;
            b.alui(op, reg(rng), src(rng), imm);
        }
        2 => {
            b.lui(reg(rng), rng.below(1 << 20) as u32);
        }
        3 => {
            let base = if rng.chance(1, 2) { Reg::R12 } else { Reg::R13 };
            b.lw(reg(rng), base, (rng.index(256) * 4) as i32);
        }
        4 => {
            let base = if rng.chance(1, 2) { Reg::R12 } else { Reg::R13 };
            b.sw(src(rng), base, (rng.index(256) * 4) as i32);
        }
        5 => {
            b.lb(reg(rng), Reg::R12, rng.index(1024) as i32);
        }
        6 => {
            b.sb(src(rng), Reg::R12, rng.index(1024) as i32);
        }
        _ => {
            // Forward branch over one instruction: every condition gets
            // exercised and block shapes stay varied.
            let skip = b.label();
            b.branch(CONDS[rng.index(6)], src(rng), src(rng), skip);
            b.addi(reg(rng), src(rng), rng.below(64) as i32);
            b.bind_once(skip);
        }
    }
}

/// A random, always-terminating single-tile compute program: seeded
/// data registers, a bounded loop over a random instruction mix, and a
/// final `halt`.
#[must_use]
pub fn random_program(rng: &mut SimRng) -> Program {
    let mut b = ProgramBuilder::new();
    for r in DATA {
        b.li(r, rng.below(1 << 16) as i64);
    }
    b.li(Reg::R12, 0x1000);
    b.li(Reg::R13, i64::from(memmap::SPM_BASE));
    b.li(Reg::R10, 1 + rng.below(12) as i64);
    let top = b.bound_label();
    let body = 2 + rng.index(14);
    for _ in 0..body {
        random_instr(&mut b, rng);
    }
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.halt();
    b.build().expect("generated program is well formed")
}

/// A compute loop of 1–100 `mul` trips: the busy stretch between a
/// tile's messages, so a cycle cap often stops the chain with a tile
/// waiting in `recv` and a message in flight.
fn compute_pad(b: &mut ProgramBuilder, rng: &mut SimRng) {
    b.li(Reg::R20, 1 + rng.below(100) as i64);
    let top = b.bound_label();
    b.mul(Reg::R21, Reg::R20, Reg::R20);
    b.add(Reg::R22, Reg::R22, Reg::R21);
    b.addi(Reg::R20, Reg::R20, -1);
    b.branch(Cond::Ne, Reg::R20, Reg::R0, top);
}

/// A random 2–4 tile send/recv chain. The source emits a few frames of
/// up to 24 words (six mesh packets), middles bump-and-forward, the
/// sink accumulates, and every tile computes for a while per frame.
/// Always terminates fault-free, so hangs under mutation or fault
/// injection are findings, not noise.
#[must_use]
pub fn random_pipeline(rng: &mut SimRng) -> Vec<(TileId, Program)> {
    let k = 2 + rng.index(3);
    let mut tiles: Vec<u8> = (0..16).collect();
    for i in 0..k {
        let j = i + rng.index(16 - i);
        tiles.swap(i, j);
    }
    let chain = &tiles[..k];
    let frames = 1 + rng.below(3) as i64;
    let len = 1 + rng.below(24) as i64;
    let mut programs = Vec::new();

    let mut b = ProgramBuilder::new();
    b.li(Reg::R10, frames);
    b.li(Reg::R1, 0x1000);
    b.li(Reg::R2, 1 + rng.below(1000) as i64);
    b.li(Reg::R3, i64::from(chain[1]));
    b.li(Reg::R4, len);
    let top = b.bound_label();
    compute_pad(&mut b, rng);
    for w in 0..len {
        b.sw(Reg::R2, Reg::R1, (w * 4) as i32);
    }
    b.send(Reg::R3, Reg::R1, Reg::R4);
    b.addi(Reg::R2, Reg::R2, 7);
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.halt();
    programs.push((TileId(chain[0]), b.build().expect("source")));

    for m in 1..k - 1 {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R10, frames);
        b.li(Reg::R1, 0x1000);
        b.li(Reg::R5, i64::from(chain[m - 1]));
        b.li(Reg::R6, i64::from(chain[m + 1]));
        b.li(Reg::R4, len);
        let top = b.bound_label();
        b.recv(Reg::R5, Reg::R1, Reg::R4);
        b.lw(Reg::R2, Reg::R1, 0);
        b.addi(Reg::R2, Reg::R2, 1);
        b.sw(Reg::R2, Reg::R1, 0);
        compute_pad(&mut b, rng);
        b.send(Reg::R6, Reg::R1, Reg::R4);
        b.addi(Reg::R10, Reg::R10, -1);
        b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
        b.halt();
        programs.push((TileId(chain[m]), b.build().expect("middle")));
    }

    let mut b = ProgramBuilder::new();
    b.li(Reg::R10, frames);
    b.li(Reg::R1, 0x1000);
    b.li(Reg::R5, i64::from(chain[k - 2]));
    b.li(Reg::R4, len);
    b.li(Reg::R7, 0);
    let top = b.bound_label();
    b.recv(Reg::R5, Reg::R1, Reg::R4);
    b.lw(Reg::R2, Reg::R1, 0);
    b.add(Reg::R7, Reg::R7, Reg::R2);
    compute_pad(&mut b, rng);
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.li(Reg::R8, 0x4000);
    b.sw(Reg::R7, Reg::R8, 0);
    b.halt();
    programs.push((TileId(chain[k - 1]), b.build().expect("sink")));

    programs
}

/// One round of word-level mutation: bit flips, word replacement,
/// duplication, deletion, swap, or truncation.
pub fn mutate_words(words: &mut Vec<u32>, rng: &mut SimRng) {
    if words.is_empty() {
        words.push(rng.next_u32());
        return;
    }
    let rounds = 1 + rng.index(3);
    for _ in 0..rounds {
        let i = rng.index(words.len());
        match rng.index(6) {
            0 => words[i] ^= 1 << rng.index(32),
            1 => words[i] = rng.next_u32(),
            2 => {
                let w = words[i];
                words.insert(i, w);
            }
            3 => {
                if words.len() > 1 {
                    words.remove(i);
                }
            }
            4 => {
                let j = rng.index(words.len());
                words.swap(i, j);
            }
            _ => words.truncate(i.max(1)),
        }
        if words.is_empty() {
            words.push(rng.next_u32());
        }
    }
}

/// One round of byte-level mutation (snapshot blobs): truncation, bit
/// flips, byte replacement, or splicing a random run.
pub fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut SimRng) {
    if bytes.is_empty() {
        bytes.push(rng.next_u32() as u8);
        return;
    }
    let rounds = 1 + rng.index(3);
    for _ in 0..rounds {
        let i = rng.index(bytes.len());
        match rng.index(4) {
            0 => bytes.truncate(i.max(1)),
            1 => bytes[i] ^= 1 << rng.index(8),
            2 => bytes[i] = rng.next_u32() as u8,
            _ => {
                let n = 1 + rng.index(8);
                for _ in 0..n {
                    bytes.insert(i, rng.next_u32() as u8);
                }
            }
        }
        if bytes.is_empty() {
            bytes.push(rng.next_u32() as u8);
        }
    }
}

/// Structure-aware snapshot mutation: changes one geometry field of a
/// decoded checkpoint — an SPM image length, a cache's line count, a
/// per-tile vector length, or a router buffer past its capacity — so the
/// re-encoded blob still decodes but no longer fits the chip. Byte-level
/// mutants almost never survive decoding to reach those restore checks.
/// The same holds for the scheduling state: one case moves a waiting
/// core's pc past the text or off its `recv`, or pushes `next_wake`
/// ahead of every ready core.
pub fn perturb_geometry(snap: &mut ChipSnapshot, rng: &mut SimRng) {
    let tile = rng.index(snap.mems.len());
    let mem = &mut snap.mems[tile];
    match rng.index(5) {
        0 => mem.spm.data = vec![0; rng.index(mem.spm.data.len())].into(),
        1 => {
            let cache = if rng.chance(1, 2) {
                &mut mem.icache
            } else {
                &mut mem.dcache
            };
            cache.lines.truncate(rng.index(cache.lines.len()));
        }
        2 => {
            snap.busy_until.pop();
        }
        3 => {
            let waiter = snap.waiting_on.iter().position(Option::is_some);
            match (waiter.and_then(|i| snap.cores[i].as_mut()), rng.index(3)) {
                (Some(core), 0) => core.pc = 10_000 + rng.below(1 << 20) as u32,
                (Some(core), 1) => core.pc = core.pc.wrapping_add(1),
                _ => snap.next_wake = snap.cycle + 1 + rng.below(1_000_000),
            }
        }
        _ => {
            let router = rng.index(snap.mesh.routers.len());
            let inputs = &mut snap.mesh.routers[router].inputs;
            let flit = Flit {
                dst: TileId(0),
                src: TileId(0),
                is_head: true,
                is_tail: true,
                word: 0,
                msg_id: 0,
                msg_len: 1,
                injected_at: 0,
                ready_at: 0,
            };
            // Far past any router's buffer capacity.
            inputs[rng.index(inputs.len())] = vec![flit; 64];
        }
    }
}

/// Little-endian flattening of a word image (the on-disk corpus form).
#[must_use]
pub fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Inverse of [`words_to_bytes`]; trailing partial words are dropped,
/// mirroring how a loader would treat a truncated image.
#[must_use]
pub fn bytes_to_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// A syntactically valid random JSON document of bounded depth.
#[must_use]
pub fn random_json(rng: &mut SimRng) -> String {
    fn value(rng: &mut SimRng, depth: usize, out: &mut String) {
        let leafy = depth == 0 || rng.chance(1, 2);
        if leafy {
            match rng.index(4) {
                0 => out.push_str("null"),
                1 => out.push_str(if rng.chance(1, 2) { "true" } else { "false" }),
                2 => out.push_str(&format!("{}", rng.below(100_000) as i64 - 50_000)),
                _ => out.push_str(&format!("\"s{}\"", rng.below(1000))),
            }
            return;
        }
        if rng.chance(1, 2) {
            out.push('[');
            let n = rng.index(4);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                value(rng, depth - 1, out);
            }
            out.push(']');
        } else {
            out.push('{');
            let n = rng.index(4);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"k{i}\":"));
                value(rng, depth - 1, out);
            }
            out.push('}');
        }
    }
    let mut out = String::new();
    let depth = 1 + rng.index(6);
    value(rng, depth, &mut out);
    out
}
