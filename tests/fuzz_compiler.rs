//! Compiler fuzzing: random arithmetic loop kernels must survive the
//! whole enumerate → map → rewrite → simulate flow with bit-identical
//! outputs (compile_kernel fails loudly on any divergence, so `Ok` here
//! *is* the soundness assertion).
//!
//! Two independent oracles check every compiled artifact:
//!
//! 1. the `stitch-verify` static suite must come back **clean** (no
//!    errors) on the baseline and every variant — also the
//!    zero-false-positive property of the verifier itself, since these
//!    are all legitimate compiler outputs;
//! 2. the differential simulation inside `compile_kernel` must find the
//!    output regions bit-identical.
//!
//! The same random kernels, and every block of every shipped kernel,
//! also pin the candidate enumerator against its reference search
//! (`support/enumerate_reference.rs`): identical candidates, in order.
//!
//! `STITCH_FUZZ_SEEDS` overrides the seed count (default 24; CI runs
//! 128).

#[path = "support/enumerate_reference.rs"]
mod enumerate_reference;

use stitch_compiler::{
    compile_kernel, enumerate_candidates, verify_kernel, BlockDfg, Cfg, EnumerateLimits,
    PatchConfig,
};
use stitch_isa::op::AluOp;
use stitch_isa::{Cond, Program, ProgramBuilder, Reg};
use stitch_patch::PatchClass;

/// Ops eligible for patches (register-register, no control flow).
const OPS: [AluOp; 11] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Nor,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Mul,
];

/// Builds a kernel whose loop body is the given random op/operand list.
/// Registers r2..=r9 hold evolving state; r10..=r13 hold constants.
fn random_kernel(body: &[(u8, u8, u8, u8)], iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    // Seed state and constants.
    for (i, r) in (2..=9u8).enumerate() {
        b.li(Reg::from_index(r).expect("reg"), (i as i64 + 1) * 37 % 256);
    }
    b.li(Reg::R10, 1);
    b.li(Reg::R11, 3);
    b.li(Reg::R12, 5);
    b.li(Reg::R13, 7);
    b.li(Reg::R1, iters);
    let top = b.bound_label();
    for &(op, rd, rs1, rs2) in body {
        let op = OPS[(op as usize) % OPS.len()];
        let rd = Reg::from_index(2 + rd % 8).expect("rd");
        let rs1 = Reg::from_index(2 + rs1 % 12).expect("rs1");
        let rs2 = Reg::from_index(2 + rs2 % 12).expect("rs2");
        b.alu(op, rd, rs1, rs2);
    }
    b.addi(Reg::R1, Reg::R1, -1);
    b.branch(Cond::Ne, Reg::R1, Reg::R0, top);
    // Publish the whole state so every def is live.
    b.li(Reg::R14, 0x4000);
    for (i, r) in (2..=9u8).enumerate() {
        b.sw(Reg::from_index(r).expect("reg"), Reg::R14, (i * 4) as i32);
    }
    b.halt();
    b.build().expect("valid random kernel")
}

/// Env knob with a default, matching the fault/snapshot suites.
fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The seeds of this run: `STITCH_FUZZ_SEEDS` widens the sweep
/// (default 24; CI runs 128); `STITCH_FUZZ_SEED_BASE` shifts it onto
/// fresh kernels for randomized CI batches. A failure prints the
/// offending seed — replay with STITCH_FUZZ_SEED_BASE=<seed>
/// STITCH_FUZZ_SEEDS=1.
fn seeds() -> std::ops::Range<u64> {
    let base = env_u64("STITCH_FUZZ_SEED_BASE", 0);
    base..base + env_u64("STITCH_FUZZ_SEEDS", 24)
}

/// The random kernel of `seed`.
fn seeded_kernel(seed: u64) -> Program {
    let mut rng = stitch_sim::SimRng::new(0xF022 + seed);
    let body: Vec<(u8, u8, u8, u8)> = (0..rng.range(2, 10))
        .map(|_| {
            (
                rng.next_u32() as u8,
                rng.next_u32() as u8,
                rng.next_u32() as u8,
                rng.next_u32() as u8,
            )
        })
        .collect();
    random_kernel(&body, 40)
}

/// Asserts that the enumerator returns its reference's candidates, in
/// order, on every block of `program`; returns how many it compared.
fn assert_enumerator_matches_reference(what: &str, program: &Program) -> usize {
    let cfg = Cfg::build(program);
    let mut compared = 0;
    for block in &cfg.blocks {
        let dfg = BlockDfg::build(program, &cfg, block);
        let want = enumerate_reference::enumerate_candidates(&dfg, EnumerateLimits::default());
        let got = enumerate_candidates(&dfg, EnumerateLimits::default());
        assert_eq!(
            got, want,
            "{what}: block {} enumerates differently",
            block.id
        );
        compared += got.len();
    }
    compared
}

#[test]
fn enumerator_matches_reference_on_random_kernels() {
    for seed in seeds() {
        assert_enumerator_matches_reference(&format!("seed {seed}"), &seeded_kernel(seed));
    }
}

#[test]
fn enumerator_matches_reference_on_every_kernel_block() {
    let mut compared = 0;
    for kernel in stitch_kernels::all_kernels() {
        let program = kernel.standalone().expect("kernel assembles");
        compared += assert_enumerator_matches_reference(kernel.spec().name, &program);
    }
    for app in stitch_apps::App::all() {
        for (i, node) in app.nodes.iter().enumerate() {
            let program = node.kernel.standalone().expect("kernel assembles");
            compared += assert_enumerator_matches_reference(&node.name, &program);
            // The node program the workbench accelerates, unwired.
            let node_program =
                stitch_apps::build_placement_free_program(&app, i, stitch::DEFAULT_FRAMES)
                    .expect("node program assembles");
            compared += assert_enumerator_matches_reference(&node.name, &node_program);
        }
    }
    assert!(compared > 1000, "only {compared} candidates compared");
}

#[test]
fn random_kernels_accelerate_soundly() {
    for seed in seeds() {
        let program = seeded_kernel(seed);
        let configs = [
            PatchConfig::Single(PatchClass::AtMa),
            PatchConfig::Single(PatchClass::AtSa),
            PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtAs),
            PatchConfig::Locus,
        ];
        // compile_kernel differentially checks the 8-word output region
        // of every produced variant against the baseline run; an unsound
        // rewrite or mapping surfaces as Err here.
        let kv = compile_kernel("fuzz", &program, &configs, Some((0x4000, 8)))
            .expect("sound acceleration");
        // Second oracle: the static verifier must accept every artifact
        // the compiler just produced. An error here is either a real
        // compiler bug or a verifier false positive — both are bugs.
        let report = verify_kernel(&kv);
        assert!(
            report.is_clean(),
            "seed {seed}: verifier rejected a legitimate compiler output:\n{report}"
        );
        for v in &kv.variants {
            assert!(v.cycles <= kv.baseline_cycles, "seed {seed}");
        }
    }
}
