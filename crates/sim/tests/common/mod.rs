//! Shared randomized workload generators for the integration-test
//! binaries (`equivalence.rs`, `faults.rs`).
//!
//! Each generator is fully deterministic in its seed, so a failing case
//! reproduces from the seed alone.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::HashMap;
use stitch_isa::custom::{CiDescriptor, CiId, CiStage, PatchClass};
use stitch_isa::op::AluOp;
use stitch_isa::{Cond, Program, ProgramBuilder, Reg};
use stitch_patch::{AtAsControl, AtSaControl, ControlWord, Sel4, Stage1};
use stitch_sim::{Chip, ChipConfig, CiBinding, SimRng, TileId};

/// Address the pipeline sink writes its accumulated checksum to.
pub const SINK_ADDR: u32 = 0x4000;

/// Emits a compute loop with a random trip count: multi-cycle `mul`s
/// create the busy gaps the fast path is designed to skip.
fn compute_pad(b: &mut ProgramBuilder, rng: &mut SimRng) {
    let n = 1 + rng.index(40) as i64;
    b.li(Reg::R20, n);
    let top = b.bound_label();
    b.mul(Reg::R21, Reg::R20, Reg::R20);
    b.add(Reg::R22, Reg::R22, Reg::R21);
    b.addi(Reg::R20, Reg::R20, -1);
    b.branch(Cond::Ne, Reg::R20, Reg::R0, top);
}

/// A random linear pipeline: `chain[0]` produces `frames` messages of
/// `len` words, middle tiles bump the first word and forward, the last
/// tile accumulates into [`SINK_ADDR`]. Always terminates, so any
/// Timeout/Deadlock on a fault-free run is a bug.
pub fn random_pipeline(seed: u64) -> Vec<(TileId, Program)> {
    let mut rng = SimRng::new(seed);
    let k = 2 + rng.index(6); // 2..=7 tiles in the chain
    let mut tiles: Vec<u8> = (0..16).collect();
    for i in 0..k {
        let j = i + rng.index(16 - i);
        tiles.swap(i, j);
    }
    let chain = &tiles[..k];
    let frames = 1 + rng.index(4) as i64;
    let len = 1 + rng.index(8) as i64; // up to 2 mesh packets
    let mut programs = Vec::new();

    // Source.
    let mut b = ProgramBuilder::new();
    b.li(Reg::R10, frames);
    b.li(Reg::R1, 0x1000);
    b.li(Reg::R2, 1 + rng.index(1000) as i64);
    b.li(Reg::R3, i64::from(chain[1]));
    b.li(Reg::R4, len);
    let top = b.bound_label();
    compute_pad(&mut b, &mut rng);
    for w in 0..len {
        b.sw(Reg::R2, Reg::R1, (w * 4) as i32);
    }
    b.send(Reg::R3, Reg::R1, Reg::R4);
    b.addi(Reg::R2, Reg::R2, 7);
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.halt();
    programs.push((TileId(chain[0]), b.build().expect("source program")));

    // Middles.
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
        compute_pad(&mut b, &mut rng);
        b.send(Reg::R6, Reg::R1, Reg::R4);
        b.addi(Reg::R10, Reg::R10, -1);
        b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
        b.halt();
        programs.push((TileId(chain[m]), b.build().expect("middle program")));
    }

    // Sink.
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
    compute_pad(&mut b, &mut rng);
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.li(Reg::R8, SINK_ADDR as i64);
    b.sw(Reg::R7, Reg::R8, 0);
    b.halt();
    programs.push((TileId(chain[k - 1]), b.build().expect("sink program")));

    programs
}

/// A chip loaded with [`random_pipeline`]`(seed)`.
pub fn pipeline_chip(seed: u64) -> Chip {
    let mut chip = Chip::new(ChipConfig::stitch_16());
    for (tile, program) in random_pipeline(seed) {
        chip.load_program(tile, &program).unwrap();
    }
    chip
}

/// Sink tile of [`random_pipeline`]`(seed)` — where the checksum lands.
pub fn pipeline_sink(seed: u64) -> TileId {
    random_pipeline(seed).last().expect("nonempty pipeline").0
}

/// Fused custom-instruction workload (paper Fig 5 pair {AT-AS}+{AT-SA}):
/// tile 1 iterates a fused CI (partner tile 9) with per-iteration inputs
/// while tile 0 runs an independent compute loop. The CI accumulates
/// into R9 of tile 1.
pub fn fused_chip(seed: u64) -> Chip {
    let mut rng = SimRng::new(seed);
    let mut chip = Chip::new(ChipConfig::stitch_16());
    chip.reserve_circuit(TileId(1), TileId(9)).expect("circuit");
    let first = ControlWord::AtAs(AtAsControl {
        s1: Stage1::default(),
        a2_op: AluOp::Add,
        a2_src1: Sel4::In2,
        a2_src2: Sel4::In3,
        s_op: None,
        s_amt_in3: false,
    });
    let second = ControlWord::AtSa(AtSaControl {
        s1: Stage1::default(),
        s_in: Sel4::A1,
        s_op: Some(AluOp::Sll),
        s_amt_in3: true,
        a2_op: AluOp::Add,
        a2_src2: Sel4::In2,
    });
    let mut b = ProgramBuilder::new();
    let ci = b.define_ci(CiDescriptor::fused(
        CiId(0),
        "addshladd",
        CiStage::new(PatchClass::AtAs, first.pack().expect("pack")),
        CiStage::new(PatchClass::AtSa, second.pack().expect("pack")),
    ));
    let iters = 4 + rng.index(12) as i64;
    b.li(Reg::R10, iters);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, 0);
    b.li(Reg::R3, 1 + rng.index(50) as i64);
    b.li(Reg::R4, rng.index(3) as i64);
    b.li(Reg::R9, 0);
    let top = b.bound_label();
    b.custom(ci, &[Reg::R1, Reg::R2, Reg::R3, Reg::R4], &[Reg::R5])
        .expect("ci");
    b.add(Reg::R9, Reg::R9, Reg::R5);
    b.addi(Reg::R3, Reg::R3, 3);
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.halt();
    let bindings = HashMap::from([(
        0u16,
        CiBinding::Fused {
            first,
            partner: TileId(9),
            second,
        },
    )]);
    chip.load_kernel(TileId(1), &b.build().expect("fused program"), bindings)
        .expect("load fused kernel");

    // Independent compute on another tile so the chains interleave.
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 10 + rng.index(60) as i64);
    let top = b.bound_label();
    b.mul(Reg::R2, Reg::R1, Reg::R1);
    b.addi(Reg::R1, Reg::R1, -1);
    b.branch(Cond::Ne, Reg::R1, Reg::R0, top);
    b.halt();
    chip.load_program(TileId(0), &b.build().expect("compute program"))
        .unwrap();
    chip
}

/// Tiles of [`streaming_chip`]: producer, consumer, and the tile that
/// only computes.
pub const STREAM_TILES: [TileId; 3] = [TileId(0), TileId(10), TileId(15)];

/// A producer (tile 0) streams `iters` messages of `words` words to a
/// consumer (tile 10) that waits in `recv` for each, after `pad` trips
/// of a `mul` loop per message, while tile 15 computes for about as
/// long as the stream lasts. Each message spends tens of cycles in the
/// mesh with the consumer waiting and the other two tiles busy.
pub fn streaming_chip(iters: i64, words: i64, pad: i64) -> Chip {
    let [producer, consumer, worker] = STREAM_TILES;
    let mut b = ProgramBuilder::new();
    b.li(Reg::R10, iters);
    b.li(Reg::R1, 0x1000);
    b.li(Reg::R3, i64::from(consumer.0));
    b.li(Reg::R4, words);
    let top = b.bound_label();
    b.li(Reg::R20, pad);
    let inner = b.bound_label();
    b.mul(Reg::R21, Reg::R20, Reg::R20);
    b.add(Reg::R22, Reg::R22, Reg::R21);
    b.addi(Reg::R20, Reg::R20, -1);
    b.branch(Cond::Ne, Reg::R20, Reg::R0, inner);
    b.sw(Reg::R22, Reg::R1, 0);
    b.send(Reg::R3, Reg::R1, Reg::R4);
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.halt();
    let source = b.build().expect("producer program");

    let mut b = ProgramBuilder::new();
    b.li(Reg::R10, iters);
    b.li(Reg::R1, 0x1000);
    b.li(Reg::R5, i64::from(producer.0));
    b.li(Reg::R4, words);
    b.li(Reg::R7, 0);
    let top = b.bound_label();
    b.recv(Reg::R5, Reg::R1, Reg::R4);
    b.lw(Reg::R2, Reg::R1, 0);
    b.add(Reg::R7, Reg::R7, Reg::R2);
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.li(Reg::R8, i64::from(SINK_ADDR));
    b.sw(Reg::R7, Reg::R8, 0);
    b.halt();
    let sink = b.build().expect("consumer program");

    let mut b = ProgramBuilder::new();
    b.li(Reg::R20, iters * pad);
    let top = b.bound_label();
    b.mul(Reg::R21, Reg::R20, Reg::R20);
    b.add(Reg::R22, Reg::R22, Reg::R21);
    b.addi(Reg::R20, Reg::R20, -1);
    b.branch(Cond::Ne, Reg::R20, Reg::R0, top);
    b.halt();
    let compute = b.build().expect("worker program");

    let mut chip = Chip::new(ChipConfig::stitch_16());
    chip.load_program(producer, &source).unwrap();
    chip.load_program(consumer, &sink).unwrap();
    chip.load_program(worker, &compute).unwrap();
    chip
}
