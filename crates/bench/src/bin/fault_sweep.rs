//! Graceful-degradation curve: Fig 12 application throughput under an
//! increasing number of permanently failed patches.
//!
//! For each app, the sweep first runs the fault-free Stitch mapping,
//! then kills 1..=4 of the patches that mapping actually allocated (the
//! worst case — failing idle patches would be free) and re-runs through
//! the recovery path: the stitcher re-runs with the dead patches masked,
//! falling back from fused pair to single patch to software per kernel,
//! and the fault plan is installed on the chip so any residual use of a
//! dead patch would demote at runtime.
//!
//! Three properties are asserted, matching ISSUE 2's acceptance
//! criteria: outputs stay bit-identical to the fault-free run, the curve
//! is monotone (more dead patches never helps), and it never cliffs
//! below the all-software baseline — the ladder bottoms out at W32
//! software, not at zero. Results land in `BENCH_faults.json`; see
//! EXPERIMENTS.md ("Fault injection and graceful degradation").
//!
//! The sweep is **crash-safe** (ISSUE 3): every point — clean, software
//! baseline, and each degraded run — is persisted atomically to the
//! `BENCH_faults.points/` point store the moment it completes. Run with
//! `--resume` to skip completed points after a kill; the reassembled
//! `BENCH_faults.json` is bit-identical to an uninterrupted run's
//! because the report is always built from the stored records (floats
//! round-trip as IEEE-754 bit patterns). Without `--resume` the
//! store is cleared and everything recomputes.

use bench::JsonObject;
use stitch::{
    Arch, ArtifactStore, DecodeError, FaultKind, FaultPlan, Rec, RecView, TileId, Workbench,
    DEFAULT_FRAMES,
};
use stitch_apps::App;

/// Patches to fail, cumulatively.
const MAX_FAILED: usize = 4;

/// Tolerance for the monotonicity check: masking one more patch may
/// shuffle the greedy stitcher's placement enough to win back a percent.
const MONOTONE_SLACK: f64 = 1.02;

/// Point-store directory for crash-safe resume.
const POINTS_DIR: &str = "BENCH_faults.points";

/// Payload format version; bump on layout changes so stale point records
/// read as absent and recompute.
const REC_VERSION: u8 = 1;

/// Everything a sweep point contributes to the report and to the
/// cross-point assertions, in storable form.
struct PointRec {
    throughput_fps: f64,
    accelerated: u64,
    fused: u64,
    injected: u64,
    demotions: u64,
    rollbacks: u64,
    /// Patch-kill targets derived from the plan (clean points only).
    targets: Vec<TileId>,
    /// Per-node output words, for the bit-identity check.
    outputs: Vec<Vec<u32>>,
}

fn encode_point(p: &PointRec) -> Vec<u8> {
    let mut rec = Rec::new();
    rec.u8(REC_VERSION);
    rec.f64(p.throughput_fps);
    rec.u64(p.accelerated);
    rec.u64(p.fused);
    rec.u64(p.injected);
    rec.u64(p.demotions);
    rec.u64(p.rollbacks);
    rec.u8(p.targets.len() as u8);
    for t in &p.targets {
        rec.u8(t.0);
    }
    rec.u32(p.outputs.len() as u32);
    for node in &p.outputs {
        rec.words(node);
    }
    rec.into_bytes()
}

fn decode_point(bytes: &[u8]) -> Result<PointRec, DecodeError> {
    let mut v = RecView::new(bytes);
    if v.u8()? != REC_VERSION {
        return Err(DecodeError::corrupt("point record version"));
    }
    let throughput_fps = v.f64()?;
    let accelerated = v.u64()?;
    let fused = v.u64()?;
    let injected = v.u64()?;
    let demotions = v.u64()?;
    let rollbacks = v.u64()?;
    let targets = (0..v.u8()?)
        .map(|_| v.u8().map(TileId))
        .collect::<Result<_, _>>()?;
    let outputs = (0..v.seq_len(4, "node output count")?)
        .map(|_| v.words())
        .collect::<Result<_, _>>()?;
    v.finish()?;
    Ok(PointRec {
        throughput_fps,
        accelerated,
        fused,
        injected,
        demotions,
        rollbacks,
        targets,
        outputs,
    })
}

/// Loads the point from the point store, or computes it and persists it
/// atomically before returning. All report assembly downstream uses the
/// returned record only, so resumed and fresh sweeps emit identical
/// bytes.
fn point(store: &ArtifactStore, key: &str, compute: impl FnOnce() -> PointRec) -> PointRec {
    if let Some(rec) = store.load(key).and_then(|b| decode_point(&b).ok()) {
        return rec;
    }
    let rec = compute();
    store
        .store(key, &encode_point(&rec))
        .unwrap_or_else(|e| panic!("persist sweep point {key}: {e}"));
    rec
}

fn main() {
    let resume = std::env::args().any(|a| a == "--resume");
    println!(
        "{}",
        bench::header("Fault sweep: throughput vs failed patches")
    );
    let store = ArtifactStore::open(POINTS_DIR).expect("open sweep point store");
    if resume {
        println!(
            "resuming: {} completed point(s) in {POINTS_DIR}/",
            store.completed()
        );
    } else {
        store.clear().expect("clear sweep point store");
    }
    let mut ws = Workbench::new();
    let apps = App::all();
    ws.prewarm(&apps);

    let mut app_reports = Vec::new();
    let mut worst_retention = f64::INFINITY;
    for app in &apps {
        let clean = point(
            &store,
            &format!("{}-f{DEFAULT_FRAMES}-clean", app.name),
            || {
                let run = ws
                    .run_app(app, Arch::Stitch, DEFAULT_FRAMES)
                    .expect("fault-free run");
                // Kill the patches the fault-free mapping actually uses:
                // host tiles of accelerated kernels first, then fused
                // partners.
                let mut targets: Vec<TileId> = Vec::new();
                for (i, accel) in run.plan.accel.iter().enumerate() {
                    if accel.is_some() && !targets.contains(&run.plan.tiles[i]) {
                        targets.push(run.plan.tiles[i]);
                    }
                }
                for accel in run.plan.accel.iter().flatten() {
                    if let Some(p) = accel.partner {
                        if !targets.contains(&p) {
                            targets.push(p);
                        }
                    }
                }
                targets.truncate(MAX_FAILED);
                PointRec {
                    throughput_fps: run.throughput_fps,
                    accelerated: run.plan.accelerated() as u64,
                    fused: run.plan.fused() as u64,
                    injected: run.fault_stats.injected,
                    demotions: run.fault_stats.demotions,
                    rollbacks: run.fault_stats.rollbacks,
                    targets,
                    outputs: run.node_outputs,
                }
            },
        );
        let software = point(
            &store,
            &format!("{}-f{DEFAULT_FRAMES}-software", app.name),
            || {
                let run = ws
                    .run_app(app, Arch::Baseline, DEFAULT_FRAMES)
                    .expect("software baseline");
                PointRec {
                    throughput_fps: run.throughput_fps,
                    accelerated: 0,
                    fused: 0,
                    injected: 0,
                    demotions: 0,
                    rollbacks: 0,
                    targets: Vec::new(),
                    outputs: Vec::new(),
                }
            },
        );

        println!(
            "{:>6}: clean {:>7.0} fps ({} accelerated, {} fused), software {:>7.0} fps",
            app.name, clean.throughput_fps, clean.accelerated, clean.fused, software.throughput_fps
        );

        let mut points = Vec::new();
        let mut prev_fps = clean.throughput_fps;
        for k in 1..=clean.targets.len() {
            let run = point(
                &store,
                &format!("{}-f{DEFAULT_FRAMES}-failed{k}", app.name),
                || {
                    let mut plan = FaultPlan::new(k as u64);
                    for &t in &clean.targets[..k] {
                        plan.push(
                            0,
                            FaultKind::PatchFail {
                                tile: t,
                                until: None,
                            },
                        );
                    }
                    let run = ws
                        .run_app_faulted(app, Arch::Stitch, DEFAULT_FRAMES, &plan)
                        .expect("degraded run completes");
                    PointRec {
                        throughput_fps: run.throughput_fps,
                        accelerated: run.plan.accelerated() as u64,
                        fused: run.plan.fused() as u64,
                        injected: run.fault_stats.injected,
                        demotions: run.fault_stats.demotions,
                        rollbacks: run.fault_stats.rollbacks,
                        targets: Vec::new(),
                        outputs: run.node_outputs,
                    }
                },
            );

            // The assertions run on the stored records, so a resumed
            // sweep re-checks every property, not only the points it
            // recomputed. Degradation must never change values.
            assert_eq!(
                run.outputs, clean.outputs,
                "{}: outputs changed with {k} failed patches",
                app.name
            );
            // The recovery mapping routes around dead patches entirely,
            // so nothing is left to demote at runtime.
            assert_eq!(
                run.demotions, 0,
                "{}: recovery mapping still touched a dead patch",
                app.name
            );
            // Monotone: one more dead patch never helps (within greedy
            // placement noise)...
            assert!(
                run.throughput_fps <= prev_fps * MONOTONE_SLACK,
                "{}: throughput rose from {prev_fps:.0} to {:.0} fps at {k} failed patches",
                app.name,
                run.throughput_fps
            );
            // ...and never cliffs below the all-software floor.
            assert!(
                run.throughput_fps >= software.throughput_fps * 0.98,
                "{}: fell below the software floor at {k} failed patches",
                app.name
            );

            let rel = run.throughput_fps / clean.throughput_fps;
            println!(
                "        {k} failed: {:>7.0} fps ({:>5.1}% of clean, {} still accelerated)",
                run.throughput_fps,
                rel * 100.0,
                run.accelerated
            );
            let mut pt = JsonObject::new();
            pt.int("failed_patches", k as u64)
                .float("throughput_fps", run.throughput_fps)
                .float("relative_to_clean", rel)
                .int("accelerated_kernels", run.accelerated)
                .int("fused_kernels", run.fused)
                .int("faults_injected", run.injected)
                .int("demotions", run.demotions)
                .int("rollbacks", run.rollbacks);
            points.push(pt);
            prev_fps = run.throughput_fps;
            worst_retention = worst_retention.min(rel);
        }

        let mut report = JsonObject::new();
        report
            .str("app", app.name)
            .float("clean_fps", clean.throughput_fps)
            .float("software_fps", software.throughput_fps)
            .int("clean_demotions", clean.demotions)
            .int("accelerated_kernels", clean.accelerated)
            .int("fused_kernels", clean.fused)
            .array("degradation", &points);
        app_reports.push(report);
    }

    let mut root = JsonObject::new();
    root.int("frames", u64::from(DEFAULT_FRAMES))
        .int("max_failed_patches", MAX_FAILED as u64)
        .float("worst_relative_throughput", worst_retention)
        .array("apps", &app_reports);
    std::fs::write("BENCH_faults.json", root.render_pretty()).expect("write BENCH_faults.json");

    println!("{}", "-".repeat(72));
    println!(
        "worst-case retention across apps: {:.1}% of fault-free throughput",
        worst_retention * 100.0
    );
    println!("degradation is monotone and outputs stayed bit-identical everywhere");
    println!("\nwrote BENCH_faults.json");
}
