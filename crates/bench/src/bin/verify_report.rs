//! `stitch-verify` report: the static verification suite over every
//! real artifact the workbench produces, through the persistent
//! verified-artifact store, cold then warm.
//!
//! The cold pass attaches an empty [`stitch::ArtifactStore`] to a fresh
//! workbench and runs the full compile→verify pipeline: every paper
//! kernel is compiled for every patch configuration and its artifact
//! set (baseline + variants + per-CI equivalence obligations) is
//! re-verified with `stitch_compiler::verify_kernel`, then the
//! pre-simulation gate ([`Workbench::verify_app`]: plan legality,
//! circuit replay + walk, communication graph, XY routes, W32 lints)
//! runs for every app × architecture point of the Fig 12 grid. It runs
//! first in the process, so its wall includes every ISE proof. The
//! warm pass hands the same store to a *brand-new* workbench (empty
//! in-memory caches, as a new process would start) and repeats the
//! sequence: everything must reload from disk, with zero store misses,
//! at < 5% of the cold wall.
//!
//! Every point must verify **clean** (zero errors) — a non-zero error
//! count fails the binary, making this a regression harness for false
//! positives as well as a benchmark. Per-layer verify times are the
//! benchmark's `verify.*` layers. Writes `BENCH_verify.json`; see
//! EXPERIMENTS.md for the recipe. Set `STITCH_ARTIFACT_DIR` to place
//! the store somewhere persistent (default: a per-run temp dir).

use std::sync::Arc;
use std::time::Instant;

use bench::JsonObject;
use stitch::{Arch, ArtifactStore, Workbench, DEFAULT_FRAMES};
use stitch_apps::App;
use stitch_compiler::{verify_kernel, verify_memo_hits};
use stitch_kernels::{all_kernels, Kernel};

/// Totals of one compile→verify pass over every kernel and every
/// app × arch point.
struct Pass {
    ms: f64,
    obligations: u64,
    memo_hits: u64,
    kernel_warnings: u64,
    app_points: u64,
    app_warnings: u64,
}

/// One pass on a fresh workbench that shares only `store`.
fn pass(store: &Arc<ArtifactStore>, kernels: &[Box<dyn Kernel>], apps: &[App]) -> Pass {
    let mut ws = Workbench::new();
    ws.set_artifact_store(Arc::clone(store));
    let (mut obligations, mut memo_hits, mut kernel_warnings) = (0, 0, 0);
    let (mut app_points, mut app_warnings) = (0, 0);
    let t = Instant::now();
    for k in kernels {
        let kv = ws.variants(k.as_ref()).expect("kernel compiles");
        // Count proof-memo hits around `verify_kernel` only: the gate's
        // `accelerate_all` below hits the memo too.
        let hits = verify_memo_hits();
        let report = verify_kernel(&kv);
        memo_hits += verify_memo_hits() - hits;
        assert!(
            report.is_clean(),
            "{}: verifier rejected a shipped artifact:\n{report}",
            kv.name
        );
        for v in &kv.variants {
            obligations += v.ise_checks.len() as u64;
        }
        kernel_warnings += report.warning_count() as u64;
    }
    for app in apps {
        for &arch in Arch::ALL.iter() {
            let report = ws
                .verify_app(app, arch, DEFAULT_FRAMES)
                .expect("pipeline produces verifiable artifacts");
            assert!(
                report.is_clean(),
                "{}/{arch:?}: the gate rejected a legitimate run:\n{report}",
                app.name
            );
            app_points += 1;
            app_warnings += report.warning_count() as u64;
        }
    }
    Pass {
        ms: t.elapsed().as_secs_f64() * 1e3,
        obligations,
        memo_hits,
        kernel_warnings,
        app_points,
        app_warnings,
    }
}

fn main() {
    println!("{}", bench::header("stitch-verify static analysis"));
    let store_dir = std::env::var("STITCH_ARTIFACT_DIR").map_or_else(
        |_| std::env::temp_dir().join(format!("stitch-artifacts-bench-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let store = Arc::new(ArtifactStore::open(&store_dir).expect("open artifact store"));
    store.clear().expect("start from an empty store");
    let kernels = all_kernels();
    let apps = App::all();

    let cold = pass(&store, &kernels, &apps);
    let (cold_hits, cold_misses) = (store.hits(), store.misses());
    let warm = pass(&store, &kernels, &apps);
    let (warm_hits, warm_misses) = (store.hits() - cold_hits, store.misses() - cold_misses);
    let warm_share = warm.ms / cold.ms;
    let artifact_files = store.completed() as u64;
    if std::env::var("STITCH_ARTIFACT_DIR").is_err() {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    assert_eq!(
        cold.memo_hits, cold.obligations,
        "the compile proved every obligation, so re-verifying must hit the memo"
    );
    assert_eq!(warm_misses, 0, "a warm pass must never miss the store");
    assert!(
        warm_share < 0.05,
        "warm compile+verify must cost < 5% of cold wall \
         (cold {:.1} ms, warm {:.1} ms)",
        cold.ms,
        warm.ms
    );

    let rows = [
        ("kernel artifacts verified", kernels.len().to_string()),
        ("ISE equivalence obligations", cold.obligations.to_string()),
        ("app gate points (all clean)", cold.app_points.to_string()),
        ("artifact files", artifact_files.to_string()),
        (
            "artifact store cold/warm",
            format!(
                "{:.1} / {:.1} ms ({:.2}%)",
                cold.ms,
                warm.ms,
                warm_share * 100.0
            ),
        ),
        (
            "warm store hits/misses",
            format!("{warm_hits} / {warm_misses}"),
        ),
    ];
    for (name, value) in rows {
        println!("{}", bench::row(name, "-", &value));
    }

    let mut json = JsonObject::new();
    json.int("kernels", kernels.len() as u64)
        .int("ise_obligations", cold.obligations)
        .int("kernel_warnings", cold.kernel_warnings)
        .int("kernel_memo_hits", cold.memo_hits)
        .int("app_points", cold.app_points)
        .int("app_errors", 0)
        .int("app_warnings", cold.app_warnings)
        .float("artifact_cold_ms", cold.ms)
        .float("artifact_warm_ms", warm.ms)
        .float("artifact_warm_share", warm_share)
        .int("artifact_files", artifact_files)
        .int("artifact_warm_hits", warm_hits)
        .int("artifact_warm_misses", warm_misses);
    std::fs::write("BENCH_verify.json", json.render_pretty()).expect("write BENCH_verify.json");
    println!("\nWrote BENCH_verify.json");
}
