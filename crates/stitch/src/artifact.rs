//! Persistent prepared-application artifacts.
//!
//! The workbench's [`prepare`](crate::Workbench) pipeline — compile
//! every node's kernel, run Algorithm 1, wire and accelerate every
//! node program, statically verify the lot — is a pure function of the
//! app definition, the architecture, the frame count, and the
//! failed-patch mask. This module gives that output a durable form: an
//! encoded `(plan, node loads, clean report)` bundle stored in an
//! [`stitch_cache::ArtifactStore`] under a SHA-256 key over exactly
//! those inputs (plus `stitch_verify::VERIFIER_VERSION`), so a warm
//! process reloads the whole prepared app instead of re-running the
//! pipeline.
//!
//! Decoding never trusts: every program re-validates through
//! `decode_program`, every control word through `ControlWord::unpack`,
//! any malformed byte is a typed `DecodeError`, and such a bundle reads
//! as absent — the workbench then falls back to the live pipeline,
//! which is always correct.

use crate::workbench::NodeLoad;
use std::sync::Arc;
use stitch_apps::App;
use stitch_cache::codec::{get_program, get_report, put_program, put_report, MIN_PROGRAM_BYTES};
use stitch_cache::{sha256, DecodeError, Rec, RecView, Sha256};
use stitch_compiler::artifact::{
    get_accelerated, get_stitch_plan, put_accelerated, put_stitch_plan,
};
use stitch_compiler::StitchPlan;
use stitch_isa::Program;
use stitch_noc::TileId;
use stitch_sim::Arch;
use stitch_verify::{Report, VERIFIER_VERSION};

/// Content key of one prepared-app pipeline run: a SHA-256 over every
/// input [`crate::Workbench`]'s prepare step reads — the app name, the
/// architecture, the frame count, the failed-patch mask, and per node
/// its name, home tile, communication edges, and the kernel's encoded
/// standalone program — plus [`VERIFIER_VERSION`].
///
/// Returns `None` when any node's program cannot be assembled or
/// encoded; the caller then skips the cache and the live pipeline
/// reports the real error.
#[must_use]
pub(crate) fn app_input_key(
    app: &App,
    arch: Arch,
    frames: u32,
    masked: &[TileId],
) -> Option<String> {
    let mut h = Sha256::new();
    h.field(b"stitch-prepared-app");
    h.field(&VERIFIER_VERSION.to_le_bytes());
    h.field(app.name.as_bytes());
    h.field(&[arch_code(arch)]);
    h.field(&frames.to_le_bytes());
    let mut rec = Rec::new();
    rec.u32(masked.len() as u32);
    for t in masked {
        rec.u8(t.0);
    }
    rec.u32(app.nodes.len() as u32);
    for node in &app.nodes {
        rec.str(&node.name);
        rec.u8(node.home.0);
        for edges in [&node.recvs, &node.sends] {
            rec.u32(edges.len() as u32);
            for e in edges {
                rec.u64(e.peer as u64);
                rec.u32(e.addr);
                rec.u32(e.words);
            }
        }
        let standalone = node.kernel.standalone().ok()?;
        put_program(&mut rec, &standalone)?;
    }
    h.field(rec.as_bytes());
    Some(format!("app-{}-{}", app.name, h.finalize_hex()))
}

/// The architecture's code in [`app_input_key`]: fixed per variant, so a
/// renamed variant keeps its key (a `Debug` string would not).
fn arch_code(arch: Arch) -> u8 {
    match arch {
        Arch::Baseline => 0,
        Arch::Locus => 1,
        Arch::StitchNoFusion => 2,
        Arch::Stitch => 3,
    }
}

/// Structural digest of a program: SHA-256 over its store encoding
/// (instruction words, data segments, CI table and symbols), never its
/// `Debug` text. It keys the workbench's in-memory profile and node
/// tiers. `None` when the program cannot be encoded.
pub(crate) fn program_digest(program: &Program) -> Option<[u8; 32]> {
    let mut rec = Rec::new();
    put_program(&mut rec, program)?;
    Some(sha256(rec.as_bytes()))
}

/// Encodes a prepared app: the stitch plan, every node's executable
/// load, and the clean verify report that admitted them. Returns
/// `None` for a bundle the wire format cannot express (such a bundle
/// can never have passed verification).
#[must_use]
pub(crate) fn encode_prepared(
    plan: &StitchPlan,
    loads: &[NodeLoad],
    report: &Report,
) -> Option<Vec<u8>> {
    let mut rec = Rec::new();
    put_stitch_plan(&mut rec, plan);
    rec.u32(loads.len() as u32);
    for load in loads {
        put_program(&mut rec, &load.program)?;
        match &load.accel {
            None => rec.u8(0),
            Some((a, partner)) => {
                rec.u8(1);
                put_accelerated(&mut rec, a)?;
                match partner {
                    None => rec.u8(0),
                    Some(p) => {
                        rec.u8(1);
                        rec.u8(p.0);
                    }
                }
            }
        }
    }
    put_report(&mut rec, report);
    Some(rec.into_bytes())
}

/// Decodes a prepared app. Every failure mode returns `None`: the
/// artifact reads as absent and the workbench re-runs the pipeline.
#[must_use]
pub(crate) fn decode_prepared(bytes: &[u8]) -> Option<(StitchPlan, Vec<NodeLoad>, Report)> {
    get_prepared(bytes).ok()
}

fn get_prepared(bytes: &[u8]) -> Result<(StitchPlan, Vec<NodeLoad>, Report), DecodeError> {
    let mut v = RecView::new(bytes);
    let plan = get_stitch_plan(&mut v)?;
    // program + accel presence
    let n = v.seq_len(MIN_PROGRAM_BYTES + 1, "node load count")?;
    let mut loads = Vec::with_capacity(n);
    for _ in 0..n {
        let program = get_program(&mut v)?;
        let accel = match v.tag("accel presence")? {
            false => None,
            true => {
                let a = Arc::new(get_accelerated(&mut v)?);
                let partner = match v.tag("partner presence")? {
                    false => None,
                    true => Some(TileId(v.u8()?)),
                };
                Some((a, partner))
            }
        };
        loads.push(NodeLoad { program, accel });
    }
    let report = get_report(&mut v)?;
    v.finish()?;
    Ok((plan, loads, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_verify::Diagnostic;

    #[test]
    fn app_key_changes_with_every_input() {
        let app = stitch_apps::gesture();
        let base = app_input_key(&app, Arch::Stitch, 12, &[]).expect("key");
        let per_arch: std::collections::HashSet<String> = Arch::ALL
            .iter()
            .map(|&arch| app_input_key(&app, arch, 12, &[]).expect("key"))
            .collect();
        assert_eq!(per_arch.len(), Arch::ALL.len(), "every arch keys apart");
        assert_ne!(
            base,
            app_input_key(&app, Arch::Stitch, 13, &[]).expect("key"),
            "different frame count must miss"
        );
        assert_ne!(
            base,
            app_input_key(&app, Arch::Stitch, 12, &[TileId(3)]).expect("key"),
            "different fault mask must miss"
        );
        let other = stitch_apps::cnn();
        assert_ne!(
            base,
            app_input_key(&other, Arch::Stitch, 12, &[]).expect("key"),
            "different app must miss"
        );
        // Same inputs, same key: the address is a pure content hash.
        assert_eq!(
            base,
            app_input_key(&app, Arch::Stitch, 12, &[]).expect("key")
        );
    }

    #[test]
    fn prepared_bundle_round_trips() {
        use stitch_compiler::{compile_kernel, stitch_application, AppKernel, PatchConfig};
        use stitch_isa::{ProgramBuilder, Reg};

        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 9);
        let top = b.bound_label();
        b.mul(Reg::R4, Reg::R1, Reg::R1);
        b.add(Reg::R5, Reg::R4, Reg::R1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(stitch_isa::Cond::Ne, Reg::R1, Reg::R0, top);
        b.sw(Reg::R5, Reg::R10, 0);
        b.halt();
        let program = b.build().expect("program");
        let kv = compile_kernel("rt", &program, &PatchConfig::all(), None).expect("compiles");
        let kernels = [AppKernel {
            name: "rt".into(),
            home: TileId(0),
            variants: kv.clone(),
        }];
        let plan = stitch_application(
            &kernels,
            &stitch_sim::ChipConfig::for_arch(Arch::Stitch),
            Arch::Stitch,
        );

        let accel = kv.variants.first().cloned().map(|a| (Arc::new(a), None));
        let loads = vec![
            NodeLoad {
                program: program.clone(),
                accel,
            },
            NodeLoad {
                program,
                accel: None,
            },
        ];
        let mut report = Report::new();
        report.push(Diagnostic::warning(
            "W32-DEAD",
            stitch_verify::Span::Pc(3),
            "advisory",
        ));

        let bytes = encode_prepared(&plan, &loads, &report).expect("encode");
        let (plan2, loads2, report2) = decode_prepared(&bytes).expect("decode");
        assert_eq!(plan, plan2);
        assert_eq!(loads.len(), loads2.len());
        for (a, b) in loads.iter().zip(&loads2) {
            assert_eq!(a.program, b.program);
            assert_eq!(a.accel, b.accel);
        }
        assert_eq!(report, report2);

        // Truncation never panics and never yields a bundle.
        for cut in 0..bytes.len() {
            assert!(decode_prepared(&bytes[..cut]).is_none());
        }
    }
}
