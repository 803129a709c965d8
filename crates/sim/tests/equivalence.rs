//! Golden equivalence tests for the event-driven fast path.
//!
//! `Chip::run` fast-forwards the clock — through translated windows or
//! plain cycle skips — whenever no waiting core has a deliverable
//! message, up to the first cycle a message in flight could reach one;
//! the mesh keeps ticking on its own through the jump. These tests pin
//! the invariant: over randomized
//! multi-tile message-passing pipelines and fused custom-instruction
//! workloads — with and without an active [`FaultPlan`] — the fast path
//! must produce a `RunSummary` bit-identical to the naive cycle-by-cycle
//! `Chip::run_reference` loop.

mod common;

use common::{fused_chip, pipeline_chip, streaming_chip, STREAM_TILES};
use stitch_isa::{Cond, ProgramBuilder, Reg};
use stitch_noc::PortDir;
use stitch_sim::{
    Chip, ChipConfig, FaultKind, FaultPlan, FaultSpace, FaultedKind, RunBudget, SimError, TileId,
    TraceConfig,
};

const BUDGET: u64 = 50_000_000;

#[test]
fn fast_path_matches_reference_on_random_pipelines() {
    for seed in 0..24u64 {
        let mut fast = pipeline_chip(0xE0_0100 + seed);
        let mut naive = pipeline_chip(0xE0_0100 + seed);
        let a = fast.run(BUDGET).expect("fast run terminates");
        let b = naive
            .run_reference(BUDGET)
            .expect("reference run terminates");
        assert_eq!(a, b, "summary diverges for seed {seed}");
        assert_eq!(
            fast.cycle(),
            naive.cycle(),
            "clock diverges for seed {seed}"
        );
    }
}

#[test]
fn fast_path_matches_reference_on_fused_ci_workloads() {
    for seed in 0..16u64 {
        let mut fast = fused_chip(0xF5_ED00 + seed);
        let mut naive = fused_chip(0xF5_ED00 + seed);
        let a = fast.run(BUDGET).expect("fast run terminates");
        let b = naive
            .run_reference(BUDGET)
            .expect("reference run terminates");
        assert_eq!(a, b, "summary diverges for seed {seed}");
        assert!(
            a.total_fused() > 0,
            "workload must exercise fusion (seed {seed})"
        );
    }
}

/// The translated (per-instruction micro-op) engine is on by default in
/// `Chip::run`; with it forced off, `run`'s fast path only skips
/// cycles and the interpreter executes every instruction. Both must
/// agree bit-for-bit — and the translated side must actually have
/// fired, otherwise this test is vacuous.
#[test]
fn translated_engine_fires_and_matches_interpreter() {
    for seed in 0..8u64 {
        let mut translated = pipeline_chip(0xE0_0100 + seed);
        let mut interp = pipeline_chip(0xE0_0100 + seed);
        interp.set_translation(false);
        assert!(translated.translation_enabled());
        assert!(!interp.translation_enabled());
        let a = translated.run(BUDGET).expect("translated run terminates");
        let b = interp.run(BUDGET).expect("interpreted run terminates");
        assert_eq!(a, b, "summary diverges for seed {seed}");
        assert_eq!(
            translated.cycle(),
            interp.cycle(),
            "clock diverges for seed {seed}"
        );
        let ts = translated.translation_stats();
        assert!(ts.windows > 0, "no window fired (seed {seed})");
        assert!(ts.uops_executed > 0, "no translated uops (seed {seed})");
        assert!(ts.blocks_translated > 0, "nothing lowered (seed {seed})");
        assert_eq!(interp.translation_stats().uops_executed, 0);
    }
    // Fused CI workloads exercise the custom-instruction inline path
    // and the translation cache (tight CI loops re-enter their block).
    for seed in 0..8u64 {
        let mut translated = fused_chip(0xF5_ED00 + seed);
        let mut interp = fused_chip(0xF5_ED00 + seed);
        interp.set_translation(false);
        let a = translated.run(BUDGET).expect("translated run terminates");
        let b = interp.run(BUDGET).expect("interpreted run terminates");
        assert_eq!(a, b, "fused summary diverges for seed {seed}");
        let ts = translated.translation_stats();
        assert!(
            ts.cache_hits > ts.blocks_translated,
            "loops must mostly hit the translation cache (seed {seed}: {ts:?})"
        );
    }
}

/// `Chip::run` has one fast-forward path with two outcomes: a window
/// (translated lanes ran) or a skip (none could). Each way of turning
/// the lanes off — translation off, a tracer, a `memory_pages` cap —
/// must leave the skip firing, and the default run must take both.
#[test]
fn fast_forward_windows_and_skips_on_each_branch() {
    type Setup = fn(&mut Chip);
    let branches: [(&str, Setup, bool); 4] = [
        ("translated", |_| {}, true),
        ("interpreted", |c| c.set_translation(false), false),
        ("traced", |c| c.set_trace(&TraceConfig::full(16)), false),
        (
            "memory-capped",
            |c| {
                c.set_budget(RunBudget {
                    memory_pages: Some(u64::MAX),
                    ..RunBudget::unlimited()
                })
            },
            false,
        ),
    ];
    for (name, setup, windows) in branches {
        for seed in 0..4u64 {
            let mut fast = pipeline_chip(0xE0_0100 + seed);
            let mut naive = pipeline_chip(0xE0_0100 + seed);
            setup(&mut fast);
            setup(&mut naive);
            let a = fast.run(BUDGET).expect("fast run terminates");
            let b = naive
                .run_reference(BUDGET)
                .expect("reference run terminates");
            assert_eq!(a, b, "{name}: summary diverges for seed {seed}");
            assert_eq!(fast.cycle(), naive.cycle(), "{name}: clock, seed {seed}");
            assert!(fast.skipped_cycles() > 0, "{name}: no skip (seed {seed})");
            let ts = fast.translation_stats();
            assert_eq!(ts.windows > 0, windows, "{name}: windows {ts:?}");
        }
    }
}

#[test]
fn fast_path_is_deterministic() {
    for seed in [3u64, 11, 19] {
        let mut first = pipeline_chip(0xD0_0D00 + seed);
        let mut second = pipeline_chip(0xD0_0D00 + seed);
        let a = first.run(BUDGET).expect("run");
        let b = second.run(BUDGET).expect("run");
        assert_eq!(a, b, "two identical runs diverge for seed {seed}");
        assert_eq!(
            first.peek_u32(TileId(0), 0x1000),
            second.peek_u32(TileId(0), 0x1000)
        );
    }
}

/// The fast path must also reproduce reference *failure* behavior:
/// deadlocks are reported with identical waiting sets and cycle counts.
#[test]
fn fast_path_matches_reference_on_deadlock() {
    let deadlocked = || {
        let mut chip = Chip::new(ChipConfig::stitch_16());
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 7); // tile 7 never sends
        b.li(Reg::R2, 0x1000);
        b.li(Reg::R3, 1);
        b.recv(Reg::R1, Reg::R2, Reg::R3);
        b.halt();
        chip.load_program(TileId(2), &b.build().expect("program"))
            .unwrap();
        chip
    };
    let mut fast = deadlocked();
    let mut naive = deadlocked();
    let a = fast.run(100_000).expect_err("deadlock");
    let b = naive.run_reference(100_000).expect_err("deadlock");
    assert_eq!(a, b);
    assert_eq!(fast.cycle(), naive.cycle());
}

/// Timeouts fire after exactly the same budget on both paths.
#[test]
fn fast_path_matches_reference_on_timeout() {
    let endless = || {
        let mut chip = Chip::new(ChipConfig::stitch_16());
        let mut b = ProgramBuilder::new();
        let top = b.bound_label();
        b.mul(Reg::R1, Reg::R2, Reg::R3);
        b.branch(Cond::Eq, Reg::R0, Reg::R0, top);
        b.halt();
        chip.load_program(TileId(4), &b.build().expect("program"))
            .unwrap();
        chip
    };
    let mut fast = endless();
    let mut naive = endless();
    let a = fast.run(10_000).expect_err("timeout");
    let b = naive.run_reference(10_000).expect_err("timeout");
    assert_eq!(a, b);
    assert_eq!(fast.cycle(), naive.cycle());
}

/// Compute-only faults (patch death, switch death, config upsets) must be
/// invisible to the fast path's cycle skipping: both engines apply each
/// event at exactly its scheduled cycle — including events that land
/// inside an idle window the fast path would otherwise elide — so
/// summaries, clocks, and fault counters all stay bit-identical.
#[test]
fn fast_path_matches_reference_under_compute_faults() {
    // Short horizon so faults land while the CI loop is still running.
    let space = FaultSpace {
        tiles: 10, // covers the fused pair on tiles 1 and 9
        horizon: 500,
        max_events: 4,
        allow_transient: true,
        ..FaultSpace::default()
    }
    .compute_only();
    for seed in 0..16u64 {
        let plan = FaultPlan::random(0xFA_0000 + seed, &space);
        let mut fast = fused_chip(0xF5_ED00 + seed);
        let mut naive = fused_chip(0xF5_ED00 + seed);
        fast.set_fault_plan(plan.clone());
        naive.set_fault_plan(plan);
        let a = fast.run(BUDGET).expect("fast run terminates");
        let b = naive
            .run_reference(BUDGET)
            .expect("reference run terminates");
        assert_eq!(a, b, "summary diverges under faults for seed {seed}");
        assert_eq!(
            fast.cycle(),
            naive.cycle(),
            "clock diverges under faults for seed {seed}"
        );
        assert_eq!(
            fast.fault_stats(),
            naive.fault_stats(),
            "fault bookkeeping diverges for seed {seed}"
        );
    }
}

/// Full fault space, link faults included, over message-passing
/// pipelines: both engines must agree bit-for-bit on the outcome —
/// identical summaries on success, identical typed errors (Timeout,
/// Deadlock, Faulted) otherwise — and on the clock and fault counters.
#[test]
fn fast_path_matches_reference_under_link_faults() {
    let space = FaultSpace {
        tiles: 16,
        horizon: 20_000,
        max_events: 4,
        compute_only: false,
        allow_transient: true,
    };
    for seed in 0..16u64 {
        let plan = FaultPlan::random(0x11_F000 + seed, &space);
        let mut fast = pipeline_chip(0xE0_0100 + seed);
        let mut naive = pipeline_chip(0xE0_0100 + seed);
        fast.set_fault_plan(plan.clone());
        naive.set_fault_plan(plan);
        let a = fast.run(BUDGET);
        let b = naive.run_reference(BUDGET);
        assert_eq!(a, b, "outcome diverges under link faults for seed {seed}");
        assert_eq!(
            fast.cycle(),
            naive.cycle(),
            "clock diverges under link faults for seed {seed}"
        );
        assert_eq!(
            fast.fault_stats(),
            naive.fault_stats(),
            "fault bookkeeping diverges for seed {seed}"
        );
    }
}

/// Fault-active chips run on the translated path: on compute-only plans
/// the healthy patches and the settled demotion rungs retire their
/// custom instructions inside windows. Translation on, translation off
/// and the reference loop must still agree on the summary, the clock
/// and every fault counter — and the windows must actually have carried
/// the customs, or the equality above proves nothing about them.
#[test]
fn fast_path_matches_reference_under_compute_faults_in_windows() {
    let space = FaultSpace {
        tiles: 10, // covers the fused pair on tiles 1 and 9
        horizon: 500,
        max_events: 4,
        allow_transient: true,
        ..FaultSpace::default()
    }
    .compute_only();
    let mut demotions = 0;
    for seed in 0..16u64 {
        let plan = FaultPlan::random(0xFA_0000 + seed, &space);
        let mut chips = [0, 1, 2].map(|_| {
            let mut chip = fused_chip(0xF5_ED00 + seed);
            chip.set_fault_plan(plan.clone());
            chip
        });
        chips[1].set_translation(false);
        let [translated, interpreted, naive] = &mut chips;
        let a = translated.run(BUDGET).expect("translated run terminates");
        let b = interpreted.run(BUDGET).expect("interpreted run terminates");
        let c = naive
            .run_reference(BUDGET)
            .expect("reference run terminates");
        assert_eq!(a, b, "translation on/off diverge under faults, seed {seed}");
        assert_eq!(
            a, c,
            "fast path and reference diverge under faults, seed {seed}"
        );
        assert_eq!(translated.cycle(), naive.cycle(), "clock, seed {seed}");
        assert_eq!(interpreted.cycle(), naive.cycle(), "clock, seed {seed}");
        let stats = translated.fault_stats();
        assert_eq!(stats, interpreted.fault_stats(), "fault stats, seed {seed}");
        assert_eq!(stats, naive.fault_stats(), "fault stats, seed {seed}");
        demotions += stats.demotions;
        let ts = translated.translation_stats();
        assert!(ts.batched_cycles > 0, "no window fired (seed {seed})");
        assert!(ts.uops_executed > 0, "no translated uops (seed {seed})");
        // Before windows ran customs under a plan, every custom retired
        // in the interpreter; now most of them retire in windows.
        let interpreted_instrs = a.total_instructions() - ts.uops_executed;
        assert!(
            interpreted_instrs < a.total_custom(),
            "customs left the window (seed {seed}: {interpreted_instrs} interpreted, {} customs)",
            a.total_custom()
        );
    }
    assert!(demotions > 0, "no plan demoted a custom instruction");
}

/// A producer streams 64-word messages to a waiting consumer while a
/// third tile computes: with the mesh busy for tens of cycles per
/// message, windows must keep running instead of ticking the chip
/// until the mesh drains. Translation on and off both match the
/// reference, and the translated run ticks under 2% of its cycles.
#[test]
fn windows_run_while_messages_are_in_flight() {
    for (iters, words, pad) in [(12, 64, 150), (6, 96, 150)] {
        let mut naive = streaming_chip(iters, words, pad);
        let want = naive.run_reference(BUDGET).expect("reference run");
        assert!(want.mesh.packets_delivered >= 16 * iters as u64);
        for translate in [true, false] {
            let mut fast = streaming_chip(iters, words, pad);
            fast.set_translation(translate);
            let got = fast.run(BUDGET).expect("fast run");
            assert_eq!(got, want, "translation {translate}, {words} words");
            assert_eq!(fast.cycle(), naive.cycle(), "translation {translate}");
            if translate {
                let ts = fast.translation_stats();
                let ticked = got.cycles - ts.batched_cycles - fast.skipped_cycles();
                assert!(
                    ticked * 50 < got.cycles,
                    "{ticked} of {} cycles ticked ({ts:?})",
                    got.cycles
                );
            }
        }
    }
}

/// A link fault walls a sender in: its message can never leave, so the
/// mesh stall probe crosses `MESH_STALL_TICKS` while a worker tile runs
/// ahead in a window and nobody waits. The jumps must stop so that
/// `MeshStall` fires on the reference's cycle.
#[test]
fn mesh_stall_lands_on_the_reference_cycle_inside_a_window() {
    let [producer, _, worker] = STREAM_TILES;
    let mut plan = FaultPlan::new(7);
    for dir in [PortDir::East, PortDir::South] {
        plan.push(
            1,
            FaultKind::MeshLinkFail {
                tile: producer,
                dir,
                until: None,
            },
        );
    }
    let build = || {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R3, 10);
        b.li(Reg::R4, 0x100);
        b.li(Reg::R5, 8);
        b.send(Reg::R3, Reg::R4, Reg::R5);
        b.halt();
        let sender = b.build().expect("sender");
        let mut chip = Chip::new(ChipConfig::stitch_16());
        chip.load_program(producer, &sender).unwrap();
        chip.load_program(worker, &spin_loop(20_000)).unwrap();
        chip.set_fault_plan(plan.clone());
        chip
    };
    let mut naive = build();
    let want = naive.run_reference(BUDGET);
    assert!(
        matches!(
            want,
            Err(SimError::Faulted {
                kind: FaultedKind::MeshStall,
                ..
            })
        ),
        "{want:?}"
    );
    for translate in [true, false] {
        let mut fast = build();
        fast.set_translation(translate);
        assert_eq!(fast.run(BUDGET), want, "translation {translate}");
        assert_eq!(fast.cycle(), naive.cycle(), "translation {translate}");
        if translate {
            let jumped = fast.translation_stats().batched_cycles + fast.skipped_cycles();
            assert!(jumped > 9_000, "only {jumped} cycles jumped");
        }
    }
}

/// A `trips`-iteration `mul` loop, then `halt`.
fn spin_loop(trips: i64) -> stitch_isa::Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R20, trips);
    let top = b.bound_label();
    b.mul(Reg::R21, Reg::R20, Reg::R20);
    b.addi(Reg::R20, Reg::R20, -1);
    b.branch(Cond::Ne, Reg::R20, Reg::R0, top);
    b.halt();
    b.build().expect("spin loop")
}
