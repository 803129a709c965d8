//! Mutation-kill suite for the `stitch-verify` static analyses.
//!
//! Zero false positives is only half of a verifier's contract; the other
//! half is that it actually *catches* broken artifacts. Each test here
//! takes a **real** compiled/reserved artifact, applies one class of
//! seeded defect, and asserts the corresponding analysis rejects it:
//!
//! * swap the operand wiring of a real `IseCheck` mapping → `ISE-DIFF`;
//! * sever one switch of a reserved inter-patch circuit → `PLAN-BROKEN`;
//! * retarget a branch of a compiled program out of the text →
//!   `W32-TARGET`.
//!
//! Every test first asserts the *unmutated* artifact verifies clean, so
//! a kill can only come from the seeded defect.

use stitch_compiler::{compile_kernel, KernelVariants, PatchConfig};
use stitch_isa::op::AluOp;
use stitch_isa::{Cond, Instr, Program, ProgramBuilder, Reg};
use stitch_noc::{PatchNet, TileId, Topology};
use stitch_patch::PatchClass;
use stitch_verify::{check_circuits, check_ise, check_program};

/// A kernel whose hot loop is a chain of *asymmetric* ops (`sub`), so
/// that swapping two external-input slots of any mapped candidate
/// changes the computed function.
fn sub_chain_kernel() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R2, 9000);
    b.li(Reg::R3, 37);
    b.li(Reg::R4, 5);
    b.li(Reg::R1, 40);
    let top = b.bound_label();
    b.alu(AluOp::Sub, Reg::R2, Reg::R2, Reg::R3);
    b.alu(AluOp::Sub, Reg::R2, Reg::R2, Reg::R4);
    b.alu(AluOp::Xor, Reg::R5, Reg::R2, Reg::R3);
    b.addi(Reg::R1, Reg::R1, -1);
    b.branch(Cond::Ne, Reg::R1, Reg::R0, top);
    b.li(Reg::R14, 0x4000);
    b.sw(Reg::R2, Reg::R14, 0);
    b.sw(Reg::R5, Reg::R14, 4);
    b.halt();
    b.build().expect("valid kernel")
}

fn compiled() -> KernelVariants {
    let configs = [
        PatchConfig::Single(PatchClass::AtMa),
        PatchConfig::Single(PatchClass::AtAs),
        PatchConfig::Single(PatchClass::AtSa),
        PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtAs),
    ];
    compile_kernel("mut", &sub_chain_kernel(), &configs, Some((0x4000, 8)))
        .expect("kernel compiles and self-verifies")
}

#[test]
fn swapped_mapping_operand_is_killed_by_ise_diff() {
    let kv = compiled();
    // Every compiled variant already passed the gate; re-check one
    // obligation, then corrupt its operand wiring.
    let mut killed = 0;
    let mut candidates = 0;
    for v in &kv.variants {
        for check in &v.ise_checks {
            assert!(
                check_ise(check).is_clean(),
                "pristine obligation must verify clean"
            );
            // Swap the first two bound external-input slots.
            let slots: Vec<usize> = (0..4)
                .filter(|&s| check.mapping.input_slots[s].is_some())
                .collect();
            let [a, b] = slots[..2.min(slots.len())] else {
                continue;
            };
            candidates += 1;
            let mut mutant = check.clone();
            mutant.mapping.input_slots.swap(a, b);
            if mutant.mapping.input_slots == check.mapping.input_slots {
                continue;
            }
            let report = check_ise(&mutant);
            assert!(
                report.has_error("ISE-DIFF"),
                "swapping slots {a}<->{b} of `{}` must change the function \
                 (sub is not commutative), got:\n{report}",
                check.name
            );
            killed += 1;
        }
    }
    assert!(
        candidates > 0 && killed > 0,
        "the sub-chain kernel must yield at least one mutable obligation \
         ({candidates} candidates, {killed} killed)"
    );
}

#[test]
fn severed_circuit_switch_is_killed_by_plan_broken() {
    let topo = Topology::stitch_4x4();
    let mut net = PatchNet::new(topo);
    let circuits = [(TileId(0), TileId(1)), (TileId(5), TileId(7))];
    for &(from, to) in &circuits {
        net.reserve(from, to).expect("circuit reserves");
    }
    assert!(
        check_circuits(&net, &circuits).is_clean(),
        "pristine reserved circuits must verify clean"
    );
    // Kill one switch along the second circuit: overwrite tile6's
    // config register with the all-unconnected word, severing the
    // 5→7 route through it.
    net.write_config_register(TileId(6), 0o777_777)
        .expect("config register write succeeds");
    let report = check_circuits(&net, &circuits);
    assert!(
        report.has_error("PLAN-BROKEN"),
        "a severed switch must break the circuit walk, got:\n{report}"
    );
}

#[test]
fn retargeted_branch_is_killed_by_w32_target() {
    let kv = compiled();
    assert!(
        check_program(&kv.baseline).is_clean(),
        "pristine baseline must verify clean"
    );
    let mut mutant = kv.baseline.clone();
    let pc = mutant
        .instrs
        .iter()
        .position(|i| matches!(i, Instr::Branch { .. }))
        .expect("the kernel has a loop branch");
    let bogus = mutant.instrs.len() as u32 + 17;
    if let Instr::Branch { target, .. } = &mut mutant.instrs[pc] {
        *target = bogus;
    }
    let report = check_program(&mutant);
    assert!(
        report.has_error("W32-TARGET"),
        "a branch to instruction {bogus} (past the text) must be rejected, got:\n{report}"
    );
}

/// End-to-end mutation-kill and poisoning tests for the persistent
/// verified-artifact cache: a mutated input must never be served a stale
/// artifact, and a corrupted artifact must read as absent and be
/// re-verified live — with the live result byte-identical to the
/// original clean report.
mod artifact_cache {
    use std::fs;
    use std::path::PathBuf;
    use std::sync::Arc;
    use stitch::{Arch, ArtifactStore, Workbench, DEFAULT_FRAMES};

    fn fresh_store(tag: &str) -> (Arc<ArtifactStore>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("stitch-mutation-kill-{tag}-{}", std::process::id()));
        let store = Arc::new(ArtifactStore::open(&dir).expect("open store"));
        store.clear().expect("start empty");
        (store, dir)
    }

    #[test]
    fn warm_workbench_reloads_artifacts_and_mutated_inputs_miss() {
        let (store, dir) = fresh_store("warm");
        let app = stitch_apps::gesture();
        let kernels = stitch_kernels::all_kernels();
        let kernel = kernels.first().expect("kernels exist");

        let mut cold = Workbench::new();
        cold.set_artifact_store(Arc::clone(&store));
        let kv_cold = cold.variants(kernel.as_ref()).expect("compiles");
        let report_cold = cold
            .verify_app(&app, Arch::Stitch, DEFAULT_FRAMES)
            .expect("gate runs");
        assert!(report_cold.is_clean());
        assert!(store.completed() > 0, "cold pass must populate the store");
        let (hits_cold, misses_cold) = (store.hits(), store.misses());

        // A brand-new workbench (fresh in-memory caches, as a new process
        // would start) must serve kernel and prepared app from the store
        // and reproduce identical artifacts.
        let mut warm = Workbench::new();
        warm.set_artifact_store(Arc::clone(&store));
        let kv_warm = warm.variants(kernel.as_ref()).expect("compiles");
        let report_warm = warm
            .verify_app(&app, Arch::Stitch, DEFAULT_FRAMES)
            .expect("gate runs");
        assert_eq!(kv_cold, kv_warm);
        assert_eq!(report_cold, report_warm);
        assert!(store.hits() > hits_cold, "warm pass must hit the store");
        assert_eq!(store.misses(), misses_cold, "a warm pass must never miss");

        // Mutation kill: a changed input (the frame count participates in
        // the app key) must miss and re-run the pipeline, never reuse.
        let misses_before = store.misses();
        let mut mutated = Workbench::new();
        mutated.set_artifact_store(Arc::clone(&store));
        let r = mutated
            .verify_app(&app, Arch::Stitch, DEFAULT_FRAMES + 1)
            .expect("gate runs");
        assert!(r.is_clean());
        assert!(
            store.misses() > misses_before,
            "a mutated frame count must miss the store"
        );
        // So must a different architecture.
        let misses_before = store.misses();
        let r = mutated
            .verify_app(&app, Arch::Baseline, DEFAULT_FRAMES)
            .expect("gate runs");
        assert!(r.is_clean());
        assert!(
            store.misses() > misses_before,
            "a mutated architecture must miss the store"
        );

        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn poisoned_artifacts_read_as_absent_and_reverify_live() {
        let (store, dir) = fresh_store("poison");
        let app = stitch_apps::gesture();

        let mut cold = Workbench::new();
        cold.set_artifact_store(Arc::clone(&store));
        let clean = cold
            .verify_app(&app, Arch::Stitch, DEFAULT_FRAMES)
            .expect("gate runs");
        assert!(clean.is_clean());

        // Poison every stored artifact, cycling through the corpus:
        // truncation, a flipped payload bit, and a clobbered magic.
        let files: Vec<PathBuf> = fs::read_dir(store.dir())
            .expect("store dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "art"))
            .collect();
        assert!(!files.is_empty(), "the cold pass stored artifacts");
        for (i, f) in files.iter().enumerate() {
            let mut bytes = fs::read(f).expect("read artifact");
            match i % 3 {
                0 => bytes.truncate(bytes.len() / 2),
                1 => {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x40;
                }
                _ => bytes[0] ^= 0xFF,
            }
            fs::write(f, &bytes).expect("write poisoned artifact");
        }

        // Every poisoned file must read as absent (no hit), and the live
        // re-verify must reproduce the original clean report exactly.
        let hits_before = store.hits();
        let mut warm = Workbench::new();
        warm.set_artifact_store(Arc::clone(&store));
        let live = warm
            .verify_app(&app, Arch::Stitch, DEFAULT_FRAMES)
            .expect("gate runs");
        assert_eq!(clean, live, "live re-verify must match the clean report");
        assert_eq!(
            store.hits(),
            hits_before,
            "a poisoned artifact must never be served"
        );

        let _ = fs::remove_dir_all(dir);
    }
}
