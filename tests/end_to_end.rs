//! End-to-end integration tests: the full compile → stitch → simulate
//! flow must preserve application semantics across architectures.

use stitch::{Arch, FaultKind, FaultPlan, RunBudget, Workbench};
use stitch_apps::App;

/// The same application must produce bit-identical node outputs on every
/// architecture — custom instructions, fusion and kernel relocation are
/// pure optimizations.
#[test]
fn app3_outputs_identical_across_architectures() {
    let mut ws = Workbench::new();
    let app = stitch_apps::svm_app();
    let frames = 3;
    let reference = ws.run_app(&app, Arch::Baseline, frames).expect("baseline");
    for arch in [Arch::Locus, Arch::StitchNoFusion, Arch::Stitch] {
        let run = ws.run_app(&app, arch, frames).expect("run");
        for (i, n) in app.nodes.iter().enumerate() {
            assert_eq!(
                run.node_outputs[i], reference.node_outputs[i],
                "{}: node {} differs on {arch}",
                app.name, n.name
            );
        }
    }
}

#[test]
fn app4_outputs_identical_with_fusion() {
    let mut ws = Workbench::new();
    let app = stitch_apps::transport();
    let frames = 3;
    let reference = ws.run_app(&app, Arch::Baseline, frames).expect("baseline");
    let stitched = ws.run_app(&app, Arch::Stitch, frames).expect("stitch");
    assert!(stitched.plan.fused() > 0, "APP4 must exercise fusion");
    for (i, n) in app.nodes.iter().enumerate() {
        assert_eq!(
            stitched.node_outputs[i], reference.node_outputs[i],
            "node {} differs under fusion",
            n.name
        );
    }
    assert!(
        stitched.throughput_fps > reference.throughput_fps,
        "fusion must improve APP4 throughput"
    );
}

/// Full Stitch never loses to the no-fusion configuration, and the
/// no-fusion configuration never loses to the baseline (on throughput).
#[test]
fn architecture_ordering_holds_for_every_app() {
    let mut ws = Workbench::new();
    for app in App::all() {
        let base = ws.run_app(&app, Arch::Baseline, 6).expect("baseline");
        let nof = ws
            .run_app(&app, Arch::StitchNoFusion, 6)
            .expect("no-fusion");
        let full = ws.run_app(&app, Arch::Stitch, 6).expect("stitch");
        assert!(
            nof.throughput_fps >= base.throughput_fps * 0.99,
            "{}: w/o fusion must not lose to baseline",
            app.name
        );
        assert!(
            full.throughput_fps >= nof.throughput_fps * 0.97,
            "{}: fusion must not lose meaningfully to no-fusion",
            app.name
        );
    }
}

/// The degradation ladder at application level (DESIGN.md §9): killing
/// the patch under an accelerated kernel must leave the app's outputs
/// bit-identical, whichever rung catches it — the recovery re-stitch
/// for a known-permanent death, or runtime demotion to the W32 software
/// fallback when no recovery mapping is available.
#[test]
fn failed_patch_degrades_gracefully_at_app_level() {
    let mut ws = Workbench::new();
    let app = stitch_apps::svm_app();
    let frames = 3;
    let clean = ws.run_app(&app, Arch::Stitch, frames).expect("clean run");
    let tile = (0..app.nodes.len())
        .find(|&i| clean.plan.accel[i].is_some())
        .map(|i| clean.plan.tiles[i])
        .expect("APP3 accelerates at least one kernel");

    // Permanent death: the stitcher re-runs with the patch masked, so
    // acceleration routes around it and nothing is left to demote.
    let plan = FaultPlan::new(1).with(0, FaultKind::PatchFail { tile, until: None });
    let recovered = ws
        .run_app_faulted(&app, Arch::Stitch, frames, &plan)
        .expect("recovery run completes");
    assert_eq!(
        recovered.node_outputs, clean.node_outputs,
        "recovery mapping changed outputs"
    );
    assert_eq!(recovered.fault_stats.demotions, 0);
    assert!(
        recovered.plan.log.iter().any(|l| l.contains("masked out")),
        "recovery stitch must record the mask"
    );

    // Same fault minus the foreknowledge (a transient that never heals
    // within the run): the original mapping still binds CIs to the dead
    // patch, so the runtime demotes them — outputs identical, cycles up.
    let plan = FaultPlan::new(2).with(
        0,
        FaultKind::PatchFail {
            tile,
            until: Some(u64::MAX),
        },
    );
    let demoted = ws
        .run_app_faulted(&app, Arch::Stitch, frames, &plan)
        .expect("demoted run completes");
    assert_eq!(
        demoted.node_outputs, clean.node_outputs,
        "software fallback changed outputs"
    );
    assert!(
        demoted.fault_stats.demotions > 0,
        "the dead patch's CIs must demote at runtime"
    );
    assert!(
        demoted.summary.cycles >= clean.summary.cycles,
        "demotion must not make the run faster"
    );
}

/// An enabled-but-roomy budget (every axis capped far above what the
/// apps need) runs every check yet must not perturb a single simulated
/// bit. That disabled budgets cost no wall clock is the fig12 overhead
/// gate's job (`perf_report --check-overhead`).
#[test]
fn roomy_budget_is_bit_identical_on_every_app() {
    let roomy = Some(u64::MAX / 2);
    let mut plain = Workbench::new();
    // A clone shares the compile memo; the budget only reaches the chip.
    let mut budgeted = plain.clone();
    budgeted.set_budget(RunBudget {
        cycles: roomy,
        memory_pages: roomy,
        messages: roomy,
        in_flight_messages: roomy,
        trace_events: roomy,
        snapshot_bytes: roomy,
    });
    for app in App::all() {
        let base = plain.run_app(&app, Arch::Stitch, 2).expect("clean run");
        let guarded = budgeted
            .run_app(&app, Arch::Stitch, 2)
            .expect("clean run under a roomy budget");
        assert_eq!(base.summary, guarded.summary, "{}: summary", app.name);
        assert_eq!(
            base.throughput_fps.to_bits(),
            guarded.throughput_fps.to_bits(),
            "{}: throughput",
            app.name
        );
        assert_eq!(base.node_outputs, guarded.node_outputs, "{}", app.name);
    }
}

/// The power model must track the paper's anchors on real runs.
#[test]
fn power_model_anchors() {
    let mut ws = Workbench::new();
    let app = stitch_apps::gesture();
    let base = ws.run_app(&app, Arch::Baseline, 6).expect("baseline");
    let full = ws.run_app(&app, Arch::Stitch, 6).expect("stitch");
    assert!(
        base.power_mw < full.power_mw,
        "accelerators and the inter-patch NoC add power"
    );
    assert!(
        (40.0..180.0).contains(&full.power_mw),
        "Stitch power plausible around the paper's 140 mW, got {}",
        full.power_mw
    );
}

/// Stitching plans must be loadable: every circuit reserves cleanly and
/// every granted binding passes the chip's validation (this is implicitly
/// exercised by run_app; here we assert the plan's internal consistency).
#[test]
fn plans_are_internally_consistent() {
    let mut ws = Workbench::new();
    for app in App::all() {
        let run = ws.run_app(&app, Arch::Stitch, 2).expect("run");
        // Tiles are a permutation.
        let mut tiles: Vec<u8> = run.plan.tiles.iter().map(|t| t.0).collect();
        tiles.sort_unstable();
        tiles.dedup();
        assert_eq!(tiles.len(), app.nodes.len(), "{}: tile collision", app.name);
        // Each fused kernel's partner differs from its own tile.
        for (i, a) in run.plan.accel.iter().enumerate() {
            if let Some(g) = a {
                if let Some(p) = g.partner {
                    assert_ne!(p, run.plan.tiles[i], "{}: self-fusion", app.name);
                }
            }
        }
    }
}
