//! Persistent verified-kernel artifacts.
//!
//! Composes the shared codecs from `stitch-cache` into the compiler's
//! own artifact shapes — a full [`KernelVariants`] bundle together with
//! the clean verify [`Report`] that admitted it, and a [`StitchPlan`] —
//! and derives their SHA-256 content keys:
//!
//! * [`kernel_input_key`] hashes the compiler's *inputs* (kernel name,
//!   standalone program bytes, configuration list, output check, and
//!   [`VERIFIER_VERSION`]), so a warm sweep can skip compilation and
//!   verification entirely: same inputs, same artifact. This key
//!   addresses kernel artifacts in a `stitch_cache::ArtifactStore`;
//!   the report is stored inside the artifact, never on its own.
//!
//! The key folds in [`VERIFIER_VERSION`], so upgrading the static
//! analyses retires every stored verdict at once. Decoding never
//! trusts: the `get_*` decoders return a typed [`DecodeError`] for any
//! malformed byte, and at the store boundary such an artifact reads as
//! absent and the caller falls back to the live compile + verify path.

use crate::driver::{AcceleratedKernel, KernelVariants};
use crate::mapper::PatchConfig;
use crate::stitcher::{GrantedAccel, StitchPlan};
use stitch_cache::codec::{
    get_class, get_control, get_ise_check, get_program, get_report, put_class, put_control,
    put_ise_check, put_program, put_report, MIN_ISE_CHECK_BYTES, MIN_PROGRAM_BYTES,
};
use stitch_cache::{DecodeError, OrCorrupt, Rec, RecView, Sha256};
use stitch_noc::TileId;
use stitch_verify::{Report, VERIFIER_VERSION};

/// Encodes a patch configuration.
pub fn put_patch_config(rec: &mut Rec, c: PatchConfig) {
    match c {
        PatchConfig::Single(class) => {
            rec.u8(0);
            put_class(rec, class);
        }
        PatchConfig::Pair(local, remote) => {
            rec.u8(1);
            put_class(rec, local);
            put_class(rec, remote);
        }
        PatchConfig::Locus => rec.u8(2),
    }
}

/// Decodes a patch configuration.
pub fn get_patch_config(v: &mut RecView<'_>) -> Result<PatchConfig, DecodeError> {
    Ok(match v.u8()? {
        0 => PatchConfig::Single(get_class(v)?),
        1 => PatchConfig::Pair(get_class(v)?, get_class(v)?),
        2 => PatchConfig::Locus,
        _ => return Err(DecodeError::corrupt("patch config")),
    })
}

/// Encodes one accelerated variant. Per-CI control maps are serialized
/// in sorted id order, so the bytes are deterministic.
pub fn put_accelerated(rec: &mut Rec, a: &AcceleratedKernel) -> Option<()> {
    put_patch_config(rec, a.config);
    put_program(rec, &a.program)?;
    let mut cis: Vec<(&u16, &Vec<stitch_patch::ControlWord>)> = a.ci_controls.iter().collect();
    cis.sort_by_key(|(id, _)| **id);
    rec.u32(cis.len() as u32);
    for (id, controls) in cis {
        rec.u32(u32::from(*id));
        rec.u8(controls.len() as u8);
        for c in controls {
            put_control(rec, c)?;
        }
    }
    rec.u64(a.custom_count as u64);
    rec.u64(a.cycles);
    rec.u32(a.ise_checks.len() as u32);
    for check in &a.ise_checks {
        put_ise_check(rec, check)?;
    }
    Some(())
}

/// Minimum encoded size of an [`AcceleratedKernel`]: config, program,
/// CI count, `custom_count`, cycles, check count.
const MIN_ACCELERATED_BYTES: usize = 1 + MIN_PROGRAM_BYTES + 4 + 8 + 8 + 4;

/// Decodes one accelerated variant.
pub fn get_accelerated(v: &mut RecView<'_>) -> Result<AcceleratedKernel, DecodeError> {
    let config = get_patch_config(v)?;
    let program = get_program(v)?;
    // id + control count
    let n_cis = v.seq_len(5, "ci control count")?;
    let mut ci_controls = std::collections::HashMap::with_capacity(n_cis);
    for _ in 0..n_cis {
        let id = u16::try_from(v.u32()?).or_corrupt("ci id")?;
        let n = v.u8()? as usize;
        if n > 2 {
            return Err(DecodeError::corrupt("ci control word count"));
        }
        let mut controls = Vec::with_capacity(n);
        for _ in 0..n {
            controls.push(get_control(v)?);
        }
        ci_controls.insert(id, controls);
    }
    let custom_count = usize::try_from(v.u64()?).or_corrupt("custom count")?;
    let cycles = v.u64()?;
    let n_checks = v.seq_len(MIN_ISE_CHECK_BYTES, "ise check count")?;
    let mut ise_checks = Vec::with_capacity(n_checks);
    for _ in 0..n_checks {
        ise_checks.push(get_ise_check(v)?);
    }
    Ok(AcceleratedKernel {
        config,
        program,
        ci_controls,
        custom_count,
        cycles,
        ise_checks,
    })
}

/// Encodes a full kernel-variants bundle.
pub fn put_kernel_variants(rec: &mut Rec, kv: &KernelVariants) -> Option<()> {
    rec.str(&kv.name);
    put_program(rec, &kv.baseline)?;
    rec.u64(kv.baseline_cycles);
    rec.u32(kv.variants.len() as u32);
    for variant in &kv.variants {
        put_accelerated(rec, variant)?;
    }
    Some(())
}

/// Decodes a full kernel-variants bundle.
pub fn get_kernel_variants(v: &mut RecView<'_>) -> Result<KernelVariants, DecodeError> {
    let name = v.str()?.to_string();
    let baseline = get_program(v)?;
    let baseline_cycles = v.u64()?;
    let n = v.seq_len(MIN_ACCELERATED_BYTES, "variant count")?;
    let mut variants = Vec::with_capacity(n);
    for _ in 0..n {
        variants.push(get_accelerated(v)?);
    }
    Ok(KernelVariants {
        name,
        baseline,
        baseline_cycles,
        variants,
    })
}

/// Encodes a stitch plan.
pub fn put_stitch_plan(rec: &mut Rec, plan: &StitchPlan) {
    rec.u32(plan.tiles.len() as u32);
    for t in &plan.tiles {
        rec.u8(t.0);
    }
    rec.u32(plan.accel.len() as u32);
    for grant in &plan.accel {
        match grant {
            None => rec.u8(0),
            Some(g) => {
                rec.u8(1);
                put_patch_config(rec, g.config);
                match g.partner {
                    None => rec.u8(0),
                    Some(p) => {
                        rec.u8(1);
                        rec.u8(p.0);
                    }
                }
                rec.u32(g.hops);
            }
        }
    }
    rec.u32(plan.circuits.len() as u32);
    for (from, to) in &plan.circuits {
        rec.u8(from.0);
        rec.u8(to.0);
    }
    rec.u32(plan.log.len() as u32);
    for line in &plan.log {
        rec.str(line);
    }
}

/// Decodes a stitch plan.
pub fn get_stitch_plan(v: &mut RecView<'_>) -> Result<StitchPlan, DecodeError> {
    let n_tiles = v.seq_len(1, "plan tile count")?;
    let tiles = v.bytes(n_tiles)?.iter().map(|&t| TileId(t)).collect();
    let n_accel = v.seq_len(1, "plan grant count")?;
    let mut accel = Vec::with_capacity(n_accel);
    for _ in 0..n_accel {
        accel.push(match v.tag("plan grant presence")? {
            false => None,
            true => {
                let config = get_patch_config(v)?;
                let partner = match v.tag("plan partner presence")? {
                    false => None,
                    true => Some(TileId(v.u8()?)),
                };
                let hops = v.u32()?;
                Some(GrantedAccel {
                    config,
                    partner,
                    hops,
                })
            }
        });
    }
    let n_circuits = v.seq_len(2, "plan circuit count")?;
    let mut circuits = Vec::with_capacity(n_circuits);
    for _ in 0..n_circuits {
        circuits.push((TileId(v.u8()?), TileId(v.u8()?)));
    }
    let n_log = v.seq_len(4, "plan log count")?;
    let mut log = Vec::with_capacity(n_log);
    for _ in 0..n_log {
        log.push(v.str()?.to_string());
    }
    Ok(StitchPlan {
        tiles,
        accel,
        circuits,
        log,
    })
}

/// Encodes a kernel artifact: the compiled variants bundle *together
/// with* the verify report that admitted it. Returns `None` for an
/// artifact the wire format cannot express (such an artifact can never
/// have passed verification).
#[must_use]
pub fn encode_kernel_artifact(kv: &KernelVariants, report: &Report) -> Option<Vec<u8>> {
    let mut rec = Rec::new();
    put_kernel_variants(&mut rec, kv)?;
    put_report(&mut rec, report);
    Some(rec.into_bytes())
}

/// Decodes a kernel artifact. Every failure mode returns `None`: the
/// artifact reads as absent and the caller compiles + verifies live.
#[must_use]
pub fn decode_kernel_artifact(bytes: &[u8]) -> Option<(KernelVariants, Report)> {
    get_kernel_artifact(bytes).ok()
}

fn get_kernel_artifact(bytes: &[u8]) -> Result<(KernelVariants, Report), DecodeError> {
    let mut v = RecView::new(bytes);
    let kv = get_kernel_variants(&mut v)?;
    let report = get_report(&mut v)?;
    v.finish()?;
    Ok((kv, report))
}

/// Content key of a kernel compile: a SHA-256 over everything
/// [`crate::compile_kernel`] consumes — the kernel name, the standalone
/// program's encoded bytes, the configuration list, the optional output
/// check — plus [`VERIFIER_VERSION`]. Two compiles with equal keys
/// produce byte-identical artifacts, so a stored artifact under this
/// key substitutes for the whole compile + verify pipeline.
///
/// Returns `None` when the program cannot be encoded (it could then
/// never have compiled either).
#[must_use]
pub fn kernel_input_key(
    name: &str,
    program: &stitch_isa::Program,
    configs: &[PatchConfig],
    output_check: Option<(u32, usize)>,
) -> Option<String> {
    let mut h = Sha256::new();
    h.field(b"stitch-kernel-artifact");
    h.field(&VERIFIER_VERSION.to_le_bytes());
    h.field(name.as_bytes());
    let mut rec = Rec::new();
    put_program(&mut rec, program)?;
    h.field(rec.as_bytes());
    let mut cfgs = Rec::new();
    cfgs.u32(configs.len() as u32);
    for &c in configs {
        put_patch_config(&mut cfgs, c);
    }
    match output_check {
        None => cfgs.u8(0),
        Some((addr, words)) => {
            cfgs.u8(1);
            cfgs.u32(addr);
            cfgs.u64(words as u64);
        }
    }
    h.field(cfgs.as_bytes());
    Some(format!("k-{name}-{}", h.finalize_hex()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        compile_kernel, seed_verify_memo, stitch_application, verify_kernel, verify_memo_hits,
        AppKernel,
    };
    use stitch_isa::{ProgramBuilder, Reg};

    fn sample_kernel() -> stitch_isa::Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 9);
        let top = b.bound_label();
        b.mul(Reg::R4, Reg::R1, Reg::R1);
        b.add(Reg::R5, Reg::R4, Reg::R1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(stitch_isa::Cond::Ne, Reg::R1, Reg::R0, top);
        b.sw(Reg::R5, Reg::R10, 0);
        b.halt();
        b.build().expect("program")
    }

    fn sample_variants() -> KernelVariants {
        compile_kernel("artifact-test", &sample_kernel(), &PatchConfig::all(), None)
            .expect("compiles")
    }

    #[test]
    fn kernel_artifact_round_trips() {
        let kv = sample_variants();
        let report = verify_kernel(&kv);
        let bytes = encode_kernel_artifact(&kv, &report).expect("encode");
        let (kv2, report2) = decode_kernel_artifact(&bytes).expect("decode");
        assert_eq!(kv, kv2);
        assert_eq!(report, report2);
    }

    /// Pins the artifact layout: decoding and re-encoding a compiled
    /// kernel's artifact reproduces its bytes exactly.
    #[test]
    fn kernel_artifact_re_encodes_byte_for_byte() {
        let kv = sample_variants();
        let bytes = encode_kernel_artifact(&kv, &verify_kernel(&kv)).expect("encode");
        let (kv2, report2) = decode_kernel_artifact(&bytes).expect("decode");
        assert_eq!(encode_kernel_artifact(&kv2, &report2), Some(bytes));
    }

    /// A stored report vouches for its artifact's obligations only when
    /// it is empty. The decoded artifact here carries defective copies
    /// of its obligations, which no proof can pass and no other test
    /// builds: each gains an unwired external input and has slot 0
    /// rewired to it.
    #[test]
    fn seeded_report_marks_obligations_proven_only_when_empty() {
        let kv = compile_kernel(
            "memo-roundtrip",
            &sample_kernel(),
            &PatchConfig::all(),
            None,
        )
        .expect("compiles");
        let bytes = encode_kernel_artifact(&kv, &verify_kernel(&kv)).expect("encode");
        let (mut decoded, _) = decode_kernel_artifact(&bytes).expect("decode");
        let checks = decoded.variants.iter_mut().flat_map(|v| &mut v.ise_checks);
        for c in checks.filter(|c| c.subgraph.n_ext < 4) {
            c.mapping.input_slots[0] = Some(c.subgraph.n_ext);
            c.subgraph.n_ext += 1;
        }
        let obligations = || decoded.variants.iter().flat_map(|v| &v.ise_checks);
        let defects = obligations()
            .filter(|c| !stitch_verify::check_ise(c).is_clean())
            .count();
        assert!(defects > 0, "some rewired obligation must be defective");

        // A report with a diagnostic skips no proof: every defect is
        // found again.
        let mut flagged = Report::new();
        flagged.push(stitch_verify::Diagnostic::warning(
            "W32-DEAD",
            stitch_verify::Span::None,
            "a stored advisory",
        ));
        seed_verify_memo(&decoded, flagged);
        assert_eq!(verify_kernel(&decoded).error_count(), defects);

        // An empty report marks every obligation proven, defects
        // included: each is then a memo hit.
        let hits = verify_memo_hits();
        seed_verify_memo(&decoded, Report::new());
        assert!(verify_kernel(&decoded).is_clean());
        assert!(verify_memo_hits() - hits >= obligations().count() as u64);
    }

    #[test]
    fn kernel_artifact_decode_survives_truncation() {
        let kv = sample_variants();
        let report = verify_kernel(&kv);
        let bytes = encode_kernel_artifact(&kv, &report).expect("encode");
        for cut in 0..bytes.len() {
            let _ = decode_kernel_artifact(&bytes[..cut]);
        }
    }

    #[test]
    fn stitch_plan_round_trips() {
        let kv = sample_variants();
        let kernels = [
            AppKernel {
                name: "a".into(),
                home: TileId(0),
                variants: kv.clone(),
            },
            AppKernel {
                name: "b".into(),
                home: TileId(1),
                variants: kv,
            },
        ];
        let arch = stitch_sim::Arch::Stitch;
        let plan = stitch_application(&kernels, &stitch_sim::ChipConfig::for_arch(arch), arch);
        let mut rec = Rec::new();
        put_stitch_plan(&mut rec, &plan);
        let bytes = rec.into_bytes();
        let mut v = RecView::new(&bytes);
        let plan2 = get_stitch_plan(&mut v).expect("decode");
        assert_eq!(v.finish(), Ok(()));
        assert_eq!(plan, plan2);
    }

    /// Counts that fit the remaining *bytes* but not the remaining
    /// *elements* are rejected before anything is reserved for them.
    #[test]
    fn counts_are_checked_against_element_size() {
        // Two accelerated variants need >= 82 bytes; 81 remain.
        let mut rec = Rec::new();
        rec.str("k");
        put_program(&mut rec, &stitch_isa::Program::default()).expect("encode");
        rec.u64(0);
        rec.u32(2);
        rec.raw(&[0; 81]);
        let bytes = rec.into_bytes();
        let got = get_kernel_variants(&mut RecView::new(&bytes)).map(|_| ());
        assert_eq!(got, Err(DecodeError::corrupt("variant count")));
        // Three CI control entries need >= 15 bytes; 14 remain.
        let mut rec = Rec::new();
        put_patch_config(&mut rec, PatchConfig::Locus);
        put_program(&mut rec, &stitch_isa::Program::default()).expect("encode");
        rec.u32(3);
        rec.raw(&[0; 14]);
        let bytes = rec.into_bytes();
        let got = get_accelerated(&mut RecView::new(&bytes)).map(|_| ());
        assert_eq!(got, Err(DecodeError::corrupt("ci control count")));
        // Four circuits need >= 8 bytes; 7 remain.
        let mut rec = Rec::new();
        rec.u32(0);
        rec.u32(0);
        rec.u32(4);
        rec.raw(&[0; 7]);
        let bytes = rec.into_bytes();
        let got = get_stitch_plan(&mut RecView::new(&bytes)).map(|_| ());
        assert_eq!(got, Err(DecodeError::corrupt("plan circuit count")));
    }

    /// Mutation-kill: any change to a compile input — program bytes,
    /// configuration list, output check, name — must change the content
    /// key, so a stale artifact can never satisfy a mutated input.
    #[test]
    fn mutated_inputs_miss_the_kernel_key() {
        let p = sample_kernel();
        let configs = PatchConfig::all();
        let base = kernel_input_key("k", &p, &configs, None).expect("key");

        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 10); // one immediate changed
        let top = b.bound_label();
        b.mul(Reg::R4, Reg::R1, Reg::R1);
        b.add(Reg::R5, Reg::R4, Reg::R1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(stitch_isa::Cond::Ne, Reg::R1, Reg::R0, top);
        b.sw(Reg::R5, Reg::R10, 0);
        b.halt();
        let mutated = b.build().expect("program");

        assert_ne!(
            base,
            kernel_input_key("k", &mutated, &configs, None).expect("key"),
            "mutated program must miss"
        );
        assert_ne!(
            base,
            kernel_input_key("k2", &p, &configs, None).expect("key"),
            "renamed kernel must miss"
        );
        assert_ne!(
            base,
            kernel_input_key("k", &p, &configs[..1], None).expect("key"),
            "different config list must miss"
        );
        assert_ne!(
            base,
            kernel_input_key("k", &p, &configs, Some((0x400, 4))).expect("key"),
            "different output check must miss"
        );
    }

    /// The report persists inside the kernel artifact under
    /// [`kernel_input_key`]; reloading it reproduces the live verdict, and
    /// seeding the memo with it makes the next gate an in-process hit.
    #[test]
    fn stored_verify_report_round_trips_and_seeds() {
        let dir =
            std::env::temp_dir().join(format!("stitch-verify-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = stitch_cache::ArtifactStore::open(&dir).expect("open");
        let kv = sample_variants();
        let key = kernel_input_key("artifact-test", &sample_kernel(), &PatchConfig::all(), None)
            .expect("key");
        let bytes = encode_kernel_artifact(&kv, &verify_kernel(&kv)).expect("encode");
        store.store(&key, &bytes).expect("store");
        let (decoded, report) =
            decode_kernel_artifact(&store.load(&key).expect("load")).expect("decode");
        assert_eq!(report, verify_kernel(&kv));
        let hits = verify_memo_hits();
        seed_verify_memo(&decoded, report);
        let _ = verify_kernel(&decoded);
        assert!(
            verify_memo_hits() > hits,
            "seeded report must be a memo hit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
