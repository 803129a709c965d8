//! Differential fuzz harness for the translated engine (ISSUE 6).
//!
//! Randomized W32 programs — dense ALU mixes over every [`AluOp`], word
//! and byte memory traffic against both DRAM and the SPM, forward
//! branches on every condition, `jal`/`jalr` subroutine calls,
//! single-patch custom instructions, and the multi-tile `send`/`recv`
//! pipelines from `common` — run once through the translated fast path
//! (`Chip::run`, micro-op windows) and once through the
//! tick-by-tick reference loop (`Chip::run_reference`). Summaries,
//! final cycles, architectural results, and truncated-budget *error*
//! outcomes must all match bit-for-bit.
//!
//! Seed base and count are env-overridable, mirroring the other
//! randomized oracles (`faults.rs`, `snapshot.rs`):
//! `STITCH_FUZZ_SEED_BASE=1234 STITCH_FUZZ_SEEDS=50 cargo test -q -p
//! stitch-sim --test fuzz_translate`. A failing case reproduces from
//! the printed seed alone.

mod common;

use std::collections::HashMap;

use common::{fused_chip, pipeline_chip, pipeline_sink, SINK_ADDR};
use stitch_isa::custom::{CiDescriptor, CiId, CiStage, PatchClass};
use stitch_isa::op::AluOp;
use stitch_isa::{memmap, Cond, ProgramBuilder, Reg};
use stitch_patch::{AtMaControl, ControlWord, Sel4, Stage1};
use stitch_sim::{Chip, ChipConfig, CiBinding, SimRng, TileId};

const BUDGET: u64 = 50_000_000;

fn seed_base() -> u64 {
    std::env::var("STITCH_FUZZ_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF0_22_00)
}

fn seed_count() -> u64 {
    std::env::var("STITCH_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

/// Data registers the generator shuffles values through. `R10` is the
/// loop counter, `R12`/`R13` the DRAM/SPM base pointers, `LR` belongs
/// to the call/return pair — none of them may appear as a random `rd`.
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

fn reg(rng: &mut SimRng) -> Reg {
    DATA[rng.index(DATA.len())]
}

/// Source operand: mostly data registers, sometimes the hardwired zero.
fn src(rng: &mut SimRng) -> Reg {
    if rng.chance(1, 8) {
        Reg::R0
    } else {
        reg(rng)
    }
}

/// Emits one random loop-body instruction. Offsets stay inside the
/// first 1 KiB of each region so byte and word accesses always land in
/// mapped memory.
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
            let off = (rng.index(256) * 4) as i32;
            b.lw(reg(rng), base, off);
        }
        4 => {
            let base = if rng.chance(1, 2) { Reg::R12 } else { Reg::R13 };
            let off = (rng.index(256) * 4) as i32;
            b.sw(src(rng), base, off);
        }
        5 => {
            let off = rng.index(1024) as i32;
            b.lb(reg(rng), Reg::R12, off);
        }
        6 => {
            let off = rng.index(1024) as i32;
            b.sb(src(rng), Reg::R12, off);
        }
        _ => {
            // Forward branch over one instruction: every condition gets
            // exercised, and the skipped slot keeps block shapes varied.
            const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];
            let skip = b.label();
            b.branch(CONDS[rng.index(6)], src(rng), src(rng), skip);
            b.addi(reg(rng), src(rng), rng.below(64) as i32);
            b.bind(skip).expect("forward label binds");
        }
    }
}

/// A random single-tile compute program: seeded data registers, a
/// bounded loop of [`random_instr`] bodies with occasional subroutine
/// calls (`jal`/`jalr`), an optional `{AT-MA}` multiply-add custom
/// instruction, and a final checksum store to [`SINK_ADDR`].
fn random_compute_chip(seed: u64) -> Chip {
    let mut rng = SimRng::new(seed);
    let mut chip = Chip::new(ChipConfig::stitch_16());
    let with_ci = rng.chance(1, 2);

    let control = ControlWord::AtMa(AtMaControl {
        s1: Stage1::default(),
        m_src1: Sel4::In2,
        m_src2: Sel4::In3,
        a2_takes_a1: false,
        a2_op: AluOp::Add,
        a2_src2: Sel4::A1,
    });

    let mut b = ProgramBuilder::new();
    let ci = with_ci.then(|| {
        b.define_ci(CiDescriptor::single(
            CiId(0),
            "madd",
            CiStage::new(PatchClass::AtMa, control.pack().expect("pack")),
        ))
    });
    for r in DATA {
        b.li(r, rng.below(1 << 20) as i64);
    }
    b.li(Reg::R12, 0x1000);
    b.li(Reg::R13, i64::from(memmap::SPM_BASE));
    b.li(Reg::R10, 1 + rng.index(24) as i64);
    let done = b.label();
    let sub = b.label();
    let top = b.bound_label();
    for _ in 0..4 + rng.index(10) {
        random_instr(&mut b, &mut rng);
    }
    if rng.chance(1, 2) {
        b.call(sub);
    }
    if let Some(ci) = ci {
        b.custom(ci, &[Reg::R1, Reg::R2, Reg::R3, Reg::R4], &[Reg::R5])
            .expect("4-in/1-out CI");
    }
    b.addi(Reg::R10, Reg::R10, -1);
    b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
    b.jump(done);
    // Subroutine: a couple of random ops, returned through `lr`.
    b.bind(sub).expect("subroutine label binds");
    random_instr(&mut b, &mut rng);
    random_instr(&mut b, &mut rng);
    b.ret();
    b.bind(done).expect("exit label binds");
    for r in DATA {
        b.add(Reg::R9, Reg::R9, r);
    }
    b.li(Reg::R11, i64::from(SINK_ADDR));
    b.sw(Reg::R9, Reg::R11, 0);
    b.halt();
    let program = b.build().expect("random compute program encodes");

    if with_ci {
        // Tile 0 carries the {AT-MA} patch in the stitch_16 layout.
        let bindings = HashMap::from([(0u16, CiBinding::Single { control })]);
        chip.load_kernel(TileId(0), &program, bindings)
            .expect("load random kernel");
    } else {
        chip.load_program(TileId(0), &program).unwrap();
    }
    chip
}

/// One differential case: the translated engine and the reference loop
/// must agree on the summary, the final cycle, and (when given) the
/// architectural checksum; a truncated budget must produce the *same
/// typed error* from both. Returns the translated windows committed, so
/// callers can assert the fast path actually fired.
fn differential(seed: u64, make: &dyn Fn(u64) -> Chip, sink: Option<TileId>) -> u64 {
    let mut fast = make(seed);
    assert!(fast.translation_enabled(), "translation must default on");
    let fast_sum = fast
        .run(BUDGET)
        .unwrap_or_else(|e| panic!("seed {seed}: translated run failed: {e}"));
    let mut reference = make(seed);
    let ref_sum = reference
        .run_reference(BUDGET)
        .unwrap_or_else(|e| panic!("seed {seed}: reference run failed: {e}"));
    assert_eq!(
        fast_sum, ref_sum,
        "seed {seed}: translated summary diverges from the reference loop"
    );
    assert_eq!(
        fast.cycle(),
        reference.cycle(),
        "seed {seed}: engines end on different cycles"
    );
    if let Some(tile) = sink {
        assert_eq!(
            fast.peek_u32(tile, SINK_ADDR),
            reference.peek_u32(tile, SINK_ADDR),
            "seed {seed}: architectural checksum diverges"
        );
    }

    // Error outcomes must agree too: interrupt both engines at the same
    // random budget strictly inside the run and compare the full result,
    // Ok or Err.
    let mut rng = SimRng::new(seed ^ 0xD1FF_BEEF);
    let stop = 1 + rng.below(fast.cycle().max(2) - 1);
    let mut a = make(seed);
    let mut b = make(seed);
    assert_eq!(
        a.run(stop),
        b.run_reference(stop),
        "seed {seed}: outcomes diverge at budget {stop}"
    );
    assert_eq!(
        a.cycle(),
        b.cycle(),
        "seed {seed}: interrupted engines end on different cycles"
    );

    fast.translation_stats().windows
}

/// Random compute programs (ALU mixes, byte/word memory, calls, CIs):
/// the core fuzz loop of the translated engine.
#[test]
fn random_compute_programs_match_reference() {
    let base = seed_base();
    let mut windows = 0;
    for i in 0..seed_count() {
        windows += differential(base + i, &random_compute_chip, Some(TileId(0)));
    }
    assert!(
        windows > 0,
        "no translated window ever committed — the fuzz harness lost its teeth"
    );
}

/// Random multi-tile pipelines: `send`/`recv` side exits, mesh traffic,
/// and cross-tile timing under translation.
#[test]
fn random_pipelines_match_reference() {
    let base = seed_base() ^ 0x9E_37_79;
    let mut windows = 0;
    for i in 0..seed_count() {
        let seed = base + i;
        windows += differential(seed, &pipeline_chip, Some(pipeline_sink(seed)));
    }
    assert!(windows > 0, "pipelines never committed a translated window");
}

/// Random fused-CI workloads: the inter-patch circuit path (partner
/// activations, fused outcome plumbing) under translation.
#[test]
fn random_fused_workloads_match_reference() {
    let base = seed_base() ^ 0x51_7C_4B;
    let mut windows = 0;
    for i in 0..seed_count() {
        windows += differential(base + i, &fused_chip, None);
    }
    assert!(
        windows > 0,
        "fused workloads never committed a translated window"
    );
}
