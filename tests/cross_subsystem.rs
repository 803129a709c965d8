//! Cross-subsystem integration tests: compiler x patches x NoC x chip.

use std::collections::HashMap;
use stitch::{PatchClass, PatchConfig, TileId};
use stitch_compiler::compile_kernel;
use stitch_kernels::{all_kernels, Kernel};
use stitch_patch::{eval_fused, eval_single, MapSpm};
use stitch_sim::{Chip, ChipConfig};

/// Every kernel, accelerated for its best single and best pair, produces
/// the same output as the baseline (the driver enforces this; the test
/// pins it as an invariant over the full kernel suite).
#[test]
fn every_kernel_accelerates_soundly() {
    let configs = vec![
        PatchConfig::Single(PatchClass::AtMa),
        PatchConfig::Single(PatchClass::AtSa),
        PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtAs),
    ];
    for k in all_kernels() {
        let spec = k.spec();
        let kv = compile_kernel(
            spec.name,
            &k.standalone().unwrap(),
            &configs,
            Some((spec.output_addr, spec.output_words as usize)),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for v in &kv.variants {
            assert!(
                v.cycles <= kv.baseline_cycles,
                "{}/{}: acceleration must not slow the kernel",
                spec.name,
                v.config
            );
        }
    }
}

/// The control words the compiler synthesizes decode from their packed
/// 19-bit form to semantically identical words (hardware loadability).
#[test]
fn synthesized_control_words_pack_and_unpack() {
    let k = stitch_kernels::signal::FirFilter::new(64, 4);
    let spec = k.spec();
    let kv = compile_kernel(
        spec.name,
        &k.standalone().unwrap(),
        &[PatchConfig::Single(PatchClass::AtMa)],
        Some((spec.output_addr, spec.output_words as usize)),
    )
    .expect("compile");
    let v = kv
        .variant(PatchConfig::Single(PatchClass::AtMa))
        .expect("variant");
    assert!(!v.ci_controls.is_empty());
    for controls in v.ci_controls.values() {
        for cw in controls {
            let packed = cw.pack().expect("packable");
            let back = stitch_patch::ControlWord::unpack(cw.class(), packed).expect("unpack");
            // Same behaviour on sample inputs.
            let ins = [32, 8, 12, 3];
            let mut s1 = MapSpm::new();
            let mut s2 = MapSpm::new();
            for i in 0..32 {
                s1.set(i * 4, i * 7);
                s2.set(i * 4, i * 7);
            }
            assert_eq!(
                eval_single(cw, ins, &mut s1),
                eval_single(&back, ins, &mut s2),
                "packed control word diverges"
            );
        }
    }
}

/// A fused custom instruction executed through the chip equals the same
/// control words evaluated directly — the chip's patch path is exact.
#[test]
fn chip_fused_execution_matches_direct_evaluation() {
    use stitch_isa::custom::{CiDescriptor, CiId, CiStage};
    use stitch_isa::op::AluOp;
    use stitch_isa::{ProgramBuilder, Reg};
    use stitch_patch::{AtAsControl, AtSaControl, ControlWord, Sel4, Stage1};

    let first = ControlWord::AtAs(AtAsControl {
        s1: Stage1 {
            a1_op: AluOp::Add,
            a1_src1: 0,
            a1_src2: 1,
            t1: stitch_patch::T1Mode::Bypass,
        },
        a2_op: AluOp::Xor,
        a2_src1: Sel4::A1,
        a2_src2: Sel4::In2,
        s_op: Some(AluOp::Sll),
        s_amt_in3: true,
    });
    let second = ControlWord::AtSa(AtSaControl {
        s1: Stage1::default(),
        s_in: Sel4::A1,
        s_op: Some(AluOp::Srl),
        s_amt_in3: true,
        a2_op: AluOp::Add,
        a2_src2: Sel4::In2,
    });
    let ins = [21u32, 9, 5, 2];
    let mut spm = MapSpm::new();
    let expect = eval_fused(&first, &second, ins, &mut spm);

    let mut chip = Chip::new(ChipConfig::stitch_16());
    chip.reserve_circuit(TileId(1), TileId(9)).expect("circuit");
    let mut b = ProgramBuilder::new();
    let ci = b.define_ci(CiDescriptor::fused(
        CiId(0),
        "x",
        CiStage::new(PatchClass::AtAs, first.pack().expect("pack")),
        CiStage::new(PatchClass::AtSa, second.pack().expect("pack")),
    ));
    b.li(Reg::R1, i64::from(ins[0]));
    b.li(Reg::R2, i64::from(ins[1]));
    b.li(Reg::R3, i64::from(ins[2]));
    b.li(Reg::R4, i64::from(ins[3]));
    b.custom(
        ci,
        &[Reg::R1, Reg::R2, Reg::R3, Reg::R4],
        &[Reg::R5, Reg::R6],
    )
    .expect("custom");
    b.halt();
    let bindings = HashMap::from([(
        0u16,
        stitch_sim::CiBinding::Fused {
            first,
            partner: TileId(9),
            second,
        },
    )]);
    chip.load_kernel(TileId(1), &b.build().expect("program"), bindings)
        .expect("load");
    chip.run(10_000).expect("run");
    assert_eq!(chip.core_reg(TileId(1), Reg::R5), Some(expect.out0));
    assert_eq!(chip.core_reg(TileId(1), Reg::R6), Some(expect.out1));
}

/// Kernels dispatched onto *different tiles* behave identically —
/// placement independence of the memory system and NIC.
#[test]
fn kernel_is_placement_independent() {
    let k = stitch_kernels::misc::Histogram::new(256);
    let spec = k.spec();
    let expected = k.reference(&k.input());
    for tile in [0u8, 5, 15] {
        let mut chip = Chip::new(ChipConfig::stitch_16());
        chip.load_program(TileId(tile), &k.standalone().unwrap())
            .unwrap();
        chip.run(2_000_000_000).expect("run");
        let got = chip.peek_words(TileId(tile), spec.output_addr, expected.len());
        assert_eq!(got, expected, "tile {tile}");
    }
}

/// Regression pin: the crc kernel verifies with **zero** warnings. An
/// earlier compiler emission left a dead `li` in its compute loop that
/// produced 14 `W32-DEAD` advisories across the variant set; the pin
/// keeps the warning path clean so a future regression is loud.
#[test]
fn crc_kernel_verifies_with_zero_warnings() {
    let crc = all_kernels()
        .into_iter()
        .find(|k| k.spec().name == "crc")
        .expect("crc kernel exists");
    let program = crc.standalone().expect("assembles");
    let kv = compile_kernel("crc", &program, &PatchConfig::all(), None).expect("compiles");
    let report = stitch_compiler::verify_kernel(&kv);
    assert!(report.is_clean(), "crc must verify clean:\n{report}");
    assert_eq!(
        report.warning_count(),
        0,
        "crc must verify without advisories:\n{report}"
    );
}

/// Regression pin: the APP3 x Baseline pre-simulation gate reports
/// **zero** warnings. Before the dead-code fix it reported 4 `W32-DEAD`
/// advisories (all traced to the crc kernel's emission); the full grid
/// is swept by the `verify_report` bench, this pins the one point that
/// regressed.
#[test]
fn app3_baseline_gate_reports_zero_warnings() {
    let mut ws = stitch::Workbench::new();
    let app = stitch_apps::svm_app();
    let report = ws
        .verify_app(&app, stitch::Arch::Baseline, stitch::DEFAULT_FRAMES)
        .expect("gate runs");
    assert!(report.is_clean(), "APP3/Baseline:\n{report}");
    assert_eq!(
        report.warning_count(),
        0,
        "APP3/Baseline must gate without advisories:\n{report}"
    );
}
