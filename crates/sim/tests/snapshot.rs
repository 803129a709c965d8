//! Snapshot-equivalence oracle for checkpoint/restore (ISSUE 3).
//!
//! The property under test: interrupt a run at a random cycle, capture a
//! [`ChipSnapshot`], round-trip it through the binary codec, restore it
//! into a *fresh* chip (same programs loaded), and resume — the resumed
//! run must be bit-identical to the uninterrupted one: same
//! [`RunSummary`] counters, same final cycle, same architectural
//! results, same [`FaultStats`]. Engines are crossed deliberately (fast
//! path to capture, reference loop to resume, and vice versa), so the
//! oracle also re-pins engine equivalence through a checkpoint boundary.
//!
//! Seed base and count are env-overridable, mirroring `faults.rs`:
//! `STITCH_SNAPSHOT_SEED_BASE=1234 STITCH_SNAPSHOT_SEEDS=25 cargo test
//! -q -p stitch-sim --test snapshot`.

mod common;

use common::{fused_chip, pipeline_chip, pipeline_sink, streaming_chip, SINK_ADDR};
use stitch_isa::{Cond, ProgramBuilder, Reg};
use stitch_sim::{
    Chip, ChipSnapshot, FaultKind, FaultPlan, FaultSpace, SimError, SimRng, SnapshotError, TileId,
};

const BUDGET: u64 = 5_000_000;

fn seed_base() -> u64 {
    std::env::var("STITCH_SNAPSHOT_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5A_A9_00)
}

fn seed_count() -> u64 {
    std::env::var("STITCH_SNAPSHOT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

/// Compute-only fault space aimed at the fused pair (tiles 1 and 9),
/// matching the one the fault property tests use: plans from it never
/// block completion, so the oracle's "run finishes" precondition holds.
fn ci_space() -> FaultSpace {
    FaultSpace {
        tiles: 10,
        horizon: 500,
        max_events: 4,
        allow_transient: true,
        ..FaultSpace::default()
    }
    .compute_only()
}

/// One oracle case: run `make(seed)` to completion, then re-run it,
/// interrupt at a random cycle, checkpoint, codec-round-trip, restore
/// into a fresh chip, resume, and demand bit-identical behavior.
///
/// `fast_capture` picks the engine for the uninterrupted and the
/// interrupted runs; `fast_resume` picks the engine for the resumed leg.
/// Returns the fault injections seen, so callers can assert their
/// fault-active harness actually had teeth.
fn oracle(
    seed: u64,
    make: &dyn Fn(u64) -> Chip,
    plan: Option<&FaultPlan>,
    fast_capture: bool,
    fast_resume: bool,
) -> u64 {
    let run = |chip: &mut Chip, fast: bool, budget: u64| {
        if fast {
            chip.run(budget)
        } else {
            chip.run_reference(budget)
        }
    };

    // Uninterrupted baseline.
    let mut clean = make(seed);
    if let Some(p) = plan {
        clean.set_fault_plan(p.clone());
    }
    let clean_sum = run(&mut clean, fast_capture, BUDGET)
        .unwrap_or_else(|e| panic!("seed {seed}: uninterrupted run failed: {e}"));
    let total = clean.cycle();
    assert!(total > 1, "seed {seed}: run too short to interrupt");

    // Interrupted run: stop somewhere strictly inside the run.
    let mut rng = SimRng::new(seed ^ 0x5AFE_C0DE);
    let stop = 1 + rng.below(total - 1);
    let mut partial = make(seed);
    if let Some(p) = plan {
        partial.set_fault_plan(p.clone());
    }
    match run(&mut partial, fast_capture, stop) {
        Err(SimError::Timeout { .. }) => {}
        other => panic!("seed {seed}: interrupt at {stop}/{total} gave {other:?}"),
    }
    let snap = partial.checkpoint();
    assert_eq!(snap.cycle, stop, "seed {seed}: checkpoint cycle drifted");

    // The wire format must reproduce the snapshot exactly.
    let bytes = snap.encode();
    let decoded = ChipSnapshot::decode(&bytes)
        .unwrap_or_else(|e| panic!("seed {seed}: decode of own encoding failed: {e}"));
    assert_eq!(decoded, snap, "seed {seed}: codec round-trip not identical");

    // Resume in a fresh chip (same programs, virgin dynamic state).
    let mut resumed = make(seed);
    resumed
        .restore(&decoded)
        .unwrap_or_else(|e| panic!("seed {seed}: restore into fresh chip failed: {e}"));
    let resumed_sum = run(&mut resumed, fast_resume, BUDGET)
        .unwrap_or_else(|e| panic!("seed {seed}: resumed run failed: {e}"));

    assert_eq!(
        resumed.cycle(),
        total,
        "seed {seed}: resumed run ended on a different cycle"
    );
    // The resumed summary counts cycles from the restore point; shift it
    // back to the common origin and demand bitwise equality.
    let mut adjusted = resumed_sum;
    adjusted.cycles += snap.cycle;
    assert_eq!(
        adjusted, clean_sum,
        "seed {seed}: resumed summary diverges from the uninterrupted run"
    );
    let (cs, rs) = (clean.fault_stats(), resumed.fault_stats());
    assert_eq!(
        cs, rs,
        "seed {seed}: fault bookkeeping diverges across the checkpoint"
    );
    cs.injected
}

/// Fault-free pipelines: resume must be bit-identical, architectural
/// results included, under all four capture/resume engine pairings.
#[test]
fn resumed_pipeline_runs_are_bit_identical() {
    let base = seed_base();
    for i in 0..seed_count() {
        let seed = base + i;
        let (fast_capture, fast_resume) = (i % 4 < 2, i % 2 == 0);
        oracle(seed, &pipeline_chip, None, fast_capture, fast_resume);

        // Spot-check the architectural result too (the summary pins
        // counters, not memory contents) on a subset — one extra full
        // run per checked seed.
        if i % 8 == 0 {
            let sink = pipeline_sink(seed);
            let mut clean = pipeline_chip(seed);
            clean.run(BUDGET).expect("pipeline completes");
            let mut partial = pipeline_chip(seed);
            let stop = clean.cycle() / 2;
            assert!(matches!(
                partial.run(stop.max(1)),
                Err(SimError::Timeout { .. })
            ));
            let snap = partial.checkpoint();
            let mut resumed = pipeline_chip(seed);
            resumed.restore(&snap).expect("restore");
            resumed.run(BUDGET).expect("resumed pipeline completes");
            assert_eq!(
                resumed.peek_u32(sink, SINK_ADDR),
                clean.peek_u32(sink, SINK_ADDR),
                "seed {seed}: resumed run produced a different checksum"
            );
        }
    }
}

/// Fault-active runs: the checkpoint may land before, between, or after
/// scheduled fault events; the restored fault runtime must replay them
/// identically. Fused CI workloads exercise the degradation ladder
/// (scrubs, demotions) across the checkpoint boundary.
#[test]
fn resumed_fault_active_runs_are_bit_identical() {
    let base = seed_base();
    let space = ci_space();
    let mut injected = 0;
    for i in 0..seed_count() {
        let seed = base + i;
        let plan = FaultPlan::random(seed, &space);
        let (fast_capture, fast_resume) = (i % 4 < 2, i % 2 == 0);
        injected += oracle(seed, &fused_chip, Some(&plan), fast_capture, fast_resume);
    }
    assert!(
        injected > 0,
        "no plan injected anything — fault-active oracle lost its teeth"
    );
}

/// Restoring into a chip that does not match the snapshot fails with a
/// typed error and leaves the chip untouched — never panics, never
/// half-applies.
#[test]
fn restore_into_mismatched_chip_is_typed_and_harmless() {
    let seed = seed_base();
    let mut donor = pipeline_chip(seed);
    assert!(matches!(donor.run(200), Err(SimError::Timeout { .. })));
    let good = donor.checkpoint();

    // Wrong topology.
    let mut bad_topo = good.clone();
    bad_topo.topo.width = 2;
    bad_topo.topo.height = 2;
    let mut target = pipeline_chip(seed);
    match target.restore(&bad_topo) {
        Err(SnapshotError::TopologyMismatch { expected, found }) => {
            assert_eq!(expected, (4, 4));
            assert_eq!(found, (2, 2));
        }
        other => panic!("topology mismatch not detected: {other:?}"),
    }

    // Wrong program pattern: the snapshot holds core state for tiles the
    // target never loaded.
    let mut empty = Chip::new(stitch_sim::ChipConfig::stitch_16());
    assert!(matches!(
        empty.restore(&good),
        Err(SnapshotError::Mismatch { .. })
    ));
    // ... and the reverse: the target has a loaded tile the snapshot
    // does not cover.
    let fresh = Chip::new(stitch_sim::ChipConfig::stitch_16());
    let fresh_snap = fresh.checkpoint();
    let mut loaded = pipeline_chip(seed);
    assert!(matches!(
        loaded.restore(&fresh_snap),
        Err(SnapshotError::Mismatch { .. })
    ));

    // Truncated per-tile vectors.
    let mut short = good.clone();
    short.busy_until.pop();
    assert!(matches!(
        target.restore(&short),
        Err(SnapshotError::Mismatch { .. })
    ));

    // The failed restores above left `target` untouched: it still
    // resumes from its own (virgin) state and completes normally.
    assert_eq!(target.cycle(), 0);
    target.restore(&good).expect("matching restore succeeds");
    target.run(BUDGET).expect("restored chip completes");
}

/// Restores a decodable snapshot that `bend` made misfit the chip —
/// `make()` after `stop` cycles of its workload: the restore must fail
/// with `Mismatch { what }` before touching any state, patch network
/// included, and the chip must still take the unbent snapshot and
/// complete.
fn assert_rejected(
    make: &dyn Fn() -> Chip,
    stop: u64,
    bend: impl Fn(&mut ChipSnapshot),
    what: &str,
) {
    let mut donor = make();
    assert!(matches!(donor.run(stop), Err(SimError::Timeout { .. })));
    let good = donor.checkpoint();
    let mut bad = good.clone();
    bend(&mut bad);
    // The misfit survives the codec: fit is the restore's to check.
    let bad = ChipSnapshot::decode(&bad.encode()).expect("bent snapshot decodes");
    let mut target = make();
    let before = target.checkpoint().encode();
    match target.restore(&bad) {
        Err(SnapshotError::Mismatch { what: got }) => assert_eq!(got, what),
        other => panic!("{what} mismatch not detected: {other:?}"),
    }
    assert_eq!(target.checkpoint().encode(), before, "{what}: chip changed");
    target.restore(&good).expect("matching restore succeeds");
    target.run(BUDGET).expect("restored chip completes");
}

/// [`assert_rejected`] on the fused workload, whose memory geometry
/// `bend` changes.
fn assert_geometry_rejected(bend: impl Fn(&mut ChipSnapshot), what: &str) {
    let seed = seed_base() ^ 0x6E0;
    assert_rejected(&|| fused_chip(seed), 100, bend, what);
}

#[test]
fn restore_rejects_short_spm_image_untouched() {
    assert_geometry_rejected(
        |s| s.mems[3].spm.data = vec![0u8; 16].into_boxed_slice(),
        "SPM image length",
    );
}

#[test]
fn restore_rejects_missing_cache_lines_untouched() {
    assert_geometry_rejected(|s| s.mems[0].icache.lines.truncate(1), "icache line count");
}

/// Tile 0 runs a 5,000-trip `mul` loop and then sends one word to tile
/// 1, which waits in `recv` (pc 3) the whole time.
fn compute_then_send_chip() -> Chip {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 5000);
    let top = b.bound_label();
    b.mul(Reg::R2, Reg::R1, Reg::R1);
    b.addi(Reg::R1, Reg::R1, -1);
    b.branch(Cond::Ne, Reg::R1, Reg::R0, top);
    b.li(Reg::R3, 1);
    b.li(Reg::R4, 0x100);
    b.li(Reg::R5, 1);
    b.send(Reg::R3, Reg::R4, Reg::R5);
    b.halt();
    let sender = b.build().expect("sender");
    let mut b = ProgramBuilder::new();
    b.li(Reg::R3, 0);
    b.li(Reg::R4, 0x100);
    b.li(Reg::R5, 1);
    b.recv(Reg::R3, Reg::R4, Reg::R5);
    b.halt();
    let receiver = b.build().expect("receiver");
    let mut chip = Chip::new(stitch_sim::ChipConfig::stitch_16());
    chip.load_program(TileId(0), &sender).expect("tile 0");
    chip.load_program(TileId(1), &receiver).expect("tile 1");
    chip
}

/// A waiting core is re-polled, and its fetches batch-replayed, at its
/// pc; a snapshot that parks it anywhere but on a `recv` (pc 3 of tile
/// 1) is refused before the chip is touched.
#[test]
fn restore_rejects_waiting_core_off_its_recv() {
    for pc in [10_000, 0, 4] {
        let bend = |s: &mut ChipSnapshot| {
            assert!(s.waiting_on[1].is_some(), "tile 1 waits in recv");
            s.cores[1].as_mut().expect("tile 1 loaded").pc = pc;
        };
        assert_rejected(
            &compute_then_send_chip,
            200,
            bend,
            "waiting core not parked on a recv",
        );
    }
}

/// A forged `next_wake` past a ready core's next step must not let the
/// fast path skip that core: the resumed run matches the reference loop
/// with translation on and off.
#[test]
fn restored_next_wake_cannot_skip_a_ready_core() {
    let mut donor = compute_then_send_chip();
    assert!(matches!(donor.run(200), Err(SimError::Timeout { .. })));
    let mut snap = donor.checkpoint();
    assert!(snap.waiting_on[0].is_none(), "tile 0 is ready");
    snap.next_wake = snap.cycle + 1_000_000;
    let mut reference = compute_then_send_chip();
    reference.restore(&snap).expect("restore");
    let want = reference.run_reference(BUDGET).expect("reference run");
    for translate in [true, false] {
        let mut chip = compute_then_send_chip();
        chip.set_translation(translate);
        chip.restore(&snap).expect("restore");
        let got = chip.run(BUDGET).expect("fast run");
        assert_eq!(chip.cycle(), reference.cycle(), "translation {translate}");
        assert_eq!(got, want, "translation {translate}");
    }
}

/// A periodic rollback checkpoint taken after a restore is a full image
/// of the restored chip, not the pre-restore checkpoint patched with the
/// pages written since.
#[test]
fn rollback_checkpoint_after_restore_is_a_full_image() {
    for seed in seed_base()..seed_base() + 20 {
        let mut donor = pipeline_chip(seed);
        assert!(matches!(donor.run(200), Err(SimError::Timeout { .. })));
        let mid = donor.checkpoint();

        let mut chip = pipeline_chip(seed);
        chip.enable_rollback(1, 4);
        chip.restore(&mid).expect("matching restore succeeds");
        let _ = chip.run(1);
        assert_eq!(
            chip.checkpoint_bytes(),
            Some(chip.checkpoint().encode().len() as u64),
            "seed {seed}: rollback checkpoint misses pages of the restored image"
        );
    }
}

/// Snapshot *files* that were truncated or corrupted in flight decode to
/// typed errors (or, for payload-byte flips, to a structurally valid
/// snapshot) — never a panic, never an unbounded allocation.
#[test]
fn truncated_and_corrupted_snapshot_files_are_typed() {
    let seed = seed_base() ^ 0xF11E;
    let mut chip = fused_chip(seed);
    assert!(matches!(chip.run(100), Err(SimError::Timeout { .. })));
    let bytes = chip.checkpoint().encode();

    // Round-trip through an actual file, the way the sweep harness
    // stores manifests.
    let path = std::env::temp_dir().join(format!("stitch-snap-test-{seed:x}.bin"));
    std::fs::write(&path, &bytes).expect("write snapshot file");
    let reread = std::fs::read(&path).expect("read snapshot file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(reread, bytes);
    ChipSnapshot::decode(&reread).expect("file round-trip decodes");

    // Truncations: every short prefix of the header region, then a
    // deterministic spread across the payload (every prefix is covered
    // by the codec's unit tests on a small snapshot; quadratic cost
    // rules it out here).
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    let mut rng = SimRng::new(seed);
    cuts.extend((0..256).map(|_| rng.index(bytes.len())));
    for cut in cuts {
        assert!(
            ChipSnapshot::decode(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} decoded successfully",
            bytes.len()
        );
    }

    // Corruptions: single-byte flips anywhere must never panic; flips in
    // the magic/version header must be rejected outright.
    for i in 0..8 {
        let mut dented = bytes.clone();
        dented[i] ^= 0xA5;
        assert!(
            ChipSnapshot::decode(&dented).is_err(),
            "corrupted header byte {i} was accepted"
        );
    }
    for _ in 0..100 {
        let mut dented = bytes.clone();
        let at = rng.index(dented.len());
        dented[at] ^= 1 << rng.index(8);
        // Payload flips may still decode (a register value is just a
        // different register value); the property is totality.
        let _ = ChipSnapshot::decode(&dented);
    }
}

/// The rollback rung above demotion: a *transient* switch fault on the
/// fused circuit, detected while a checkpoint is armed, is recovered by
/// rewinding and replaying with the fault window masked — the run
/// finishes at full fused-ISE throughput, bit-identical to the healthy
/// run, with the recovery visible only in [`FaultStats::rollbacks`].
#[test]
fn rollback_recovers_transient_circuit_fault_without_demotion() {
    let seed = seed_base() ^ 0x0_11B;
    let mut healthy = fused_chip(seed);
    let healthy_sum = healthy.run(BUDGET).expect("healthy run completes");
    assert!(healthy_sum.total_fused() > 0, "workload must fuse");
    let total = healthy.cycle();

    // Transient fault on the partner tile's inter-patch switch, covering
    // the rest of the run; `until` is finite, so the rollback rung (not
    // demotion) handles it.
    let plan = FaultPlan::new(seed).with(
        20,
        FaultKind::SwitchFail {
            tile: TileId(9),
            until: Some(total + 1_000),
        },
    );
    for fast in [true, false] {
        let mut chip = fused_chip(seed);
        // Order matters: `set_fault_plan` installs a fresh fault runtime,
        // so the rollback rung must be armed afterwards.
        chip.set_fault_plan(plan.clone());
        chip.enable_rollback(1_000_000, 4);
        let sum = if fast {
            chip.run(BUDGET)
        } else {
            chip.run_reference(BUDGET)
        }
        .expect("rollback run completes");

        // The replay masks the fault window, so the run is bit-identical
        // to the healthy one — full fused throughput, no demotion, no
        // watchdog cost.
        assert_eq!(sum, healthy_sum, "rollback replay diverged (fast={fast})");
        assert_eq!(chip.cycle(), total);
        let fs = chip.fault_stats();
        assert_eq!(fs.rollbacks, 1, "exactly one rollback (fast={fast})");
        assert_eq!(fs.demotions, 0, "no demotion (fast={fast})");
        assert_eq!(fs.watchdog_trips, 0, "no watchdog cost (fast={fast})");
        assert_eq!(fs.injected, 1);
    }

    // With the budget exhausted (or rollback never armed), the same
    // fault falls through to the ordinary ladder: watchdog + demotion,
    // still completing with correct values.
    let mut chip = fused_chip(seed);
    chip.set_fault_plan(plan.clone());
    chip.enable_rollback(1_000_000, 0);
    let sum = chip.run(BUDGET).expect("degraded run completes");
    let fs = chip.fault_stats();
    assert_eq!(fs.rollbacks, 0, "zero budget must never roll back");
    assert!(fs.demotions > 0, "ladder fall-through must demote");
    assert!(
        sum.total_fused() < healthy_sum.total_fused(),
        "demoted run cannot be at full fused throughput"
    );
}

/// Runs the streaming workload until a message is in flight to the
/// waiting consumer, then checkpoints it.
fn in_flight_checkpoint() -> ChipSnapshot {
    let mut donor = streaming_chip(4, 64, 150);
    let mut stop = 0;
    loop {
        stop += 97;
        let _ = donor.run(97);
        let snap = donor.checkpoint();
        if snap.mesh.stats.packets_sent > snap.mesh.stats.packets_delivered
            && snap.waiting_on.iter().any(Option::is_some)
        {
            return snap;
        }
        assert!(stop < 100_000, "no message ever in flight");
    }
}

/// A checkpoint taken with flits in flight and the consumer waiting
/// resumes bit-identically on every engine: the window that follows the
/// restore stops where the reference delivers.
#[test]
fn checkpoint_with_flits_in_flight_resumes_bit_identically() {
    let snap = ChipSnapshot::decode(&in_flight_checkpoint().encode()).expect("round trip");
    let mut reference = streaming_chip(4, 64, 150);
    reference.restore(&snap).expect("restore");
    let want = reference.run_reference(BUDGET).expect("reference run");
    for translate in [true, false] {
        let mut chip = streaming_chip(4, 64, 150);
        chip.set_translation(translate);
        chip.restore(&snap).expect("restore");
        let got = chip.run(BUDGET).expect("fast run");
        assert_eq!(got, want, "translation {translate}");
        assert_eq!(chip.cycle(), reference.cycle(), "translation {translate}");
        assert_eq!(
            chip.peek_u32(TileId(10), SINK_ADDR),
            reference.peek_u32(TileId(10), SINK_ADDR),
            "translation {translate}: checksum"
        );
    }
}

/// Packet counters that disagree with the flits in flight are refused
/// before the chip is touched: a mesh that claimed every packet
/// delivered would read idle and freeze its flits.
#[test]
fn restore_rejects_forged_packet_counters_untouched() {
    let good = in_flight_checkpoint();
    for delivered in [
        good.mesh.stats.packets_sent,
        good.mesh.stats.packets_sent + 1,
    ] {
        let mut bad = good.clone();
        bad.mesh.stats.packets_delivered = delivered;
        let bad = ChipSnapshot::decode(&bad.encode()).expect("forged snapshot decodes");
        let mut target = streaming_chip(4, 64, 150);
        let before = target.checkpoint().encode();
        assert!(
            matches!(target.restore(&bad), Err(SnapshotError::Mesh(_))),
            "{delivered} delivered accepted"
        );
        assert_eq!(target.checkpoint().encode(), before, "chip changed");
        target.restore(&good).expect("genuine restore");
        target.run(BUDGET).expect("restored chip completes");
    }
}
