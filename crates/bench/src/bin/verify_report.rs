//! `stitch-verify` report: diagnostics and wall time of the static
//! verification suite over every real artifact the workbench produces.
//!
//! Two legs:
//!
//! 1. **Kernel leg** — every paper kernel is compiled for every patch
//!    configuration, then the full artifact set (baseline + variants +
//!    per-CI equivalence obligations) is re-verified with
//!    `stitch_compiler::verify_kernel`, the compile done before the
//!    clock starts. The compile's own gate already proved every
//!    obligation, so the leg times the lints plus one proof-memo hit
//!    per obligation, and asserts that every obligation hit.
//! 2. **Application leg** — the pre-simulation gate
//!    ([`Workbench::verify_app`]) runs for every app × architecture
//!    point of the Fig 12 grid: plan legality, circuit replay + walk,
//!    communication graph, XY routes, and W32 lints. The timing here
//!    includes the compile→stitch pipeline that *produces* the verified
//!    artifacts (the gate cannot run without them); the kernel-compile
//!    part is served from a prewarmed cache.
//! 3. **Artifact-store leg** — the persistent verified-artifact cache,
//!    cold then warm. The cold pass attaches an empty
//!    [`stitch::ArtifactStore`] to a fresh workbench and runs the full
//!    compile→verify pipeline for every kernel and every app × arch
//!    point, populating the store. The warm pass hands the same store
//!    to a *brand-new* workbench (empty in-memory caches, as a new
//!    process would start) and repeats the sequence: everything must
//!    reload from disk. The binary asserts the warm leg costs < 5% of
//!    the cold leg's compile+verify wall.
//!
//! Every point must verify **clean** (zero errors) — a non-zero error
//! count fails the binary, making this a regression harness for false
//! positives as well as a benchmark. Writes `BENCH_verify.json`; see
//! EXPERIMENTS.md for the recipe. Set `STITCH_ARTIFACT_DIR` to place
//! the leg-3 store somewhere persistent (default: a per-run temp dir).

use std::sync::Arc;
use std::time::Instant;

use bench::JsonObject;
use stitch::{Arch, ArtifactStore, Workbench, DEFAULT_FRAMES};
use stitch_apps::App;
use stitch_compiler::{verify_kernel, verify_memo_hits};
use stitch_kernels::all_kernels;

fn main() {
    println!("{}", bench::header("stitch-verify static analysis"));

    let mut ws = Workbench::new();
    let mut json = JsonObject::new();

    // Leg 1: re-verification of every compiled kernel artifact.
    let kernels = all_kernels();
    // Compile everything first: compiles hit the proof memo too, and
    // only the re-verification's hits are counted below.
    for k in &kernels {
        ws.variants(k.as_ref()).expect("kernel compiles");
    }
    let hits_before = verify_memo_hits();
    let mut kernel_rows = Vec::new();
    let mut kernel_ms_total = 0.0;
    let mut kernel_warnings = 0u64;
    let mut obligations = 0u64;
    println!(
        "{:>12} {:>9} {:>7} {:>7} {:>9}",
        "kernel", "variants", "CIs", "warn", "verify ms"
    );
    for k in &kernels {
        let kv = ws.variants(k.as_ref()).expect("kernel compiles");
        let cis: u64 = kv.variants.iter().map(|v| v.ise_checks.len() as u64).sum();
        let t = Instant::now();
        let report = verify_kernel(&kv);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            report.is_clean(),
            "{}: verifier rejected a shipped artifact:\n{report}",
            kv.name
        );
        println!(
            "{:>12} {:>9} {:>7} {:>7} {:>9.2}",
            kv.name,
            kv.variants.len(),
            cis,
            report.warning_count(),
            ms
        );
        kernel_ms_total += ms;
        kernel_warnings += report.warning_count() as u64;
        obligations += cis;
        let mut row = JsonObject::new();
        row.str("kernel", &kv.name)
            .int("variants", kv.variants.len() as u64)
            .int("ise_obligations", cis)
            .int("warnings", report.warning_count() as u64)
            .float("verify_ms", ms);
        kernel_rows.push(row);
    }

    let memo_hits = verify_memo_hits() - hits_before;
    assert_eq!(
        memo_hits, obligations,
        "the compile proved every obligation, so re-verifying must hit the memo"
    );
    println!("\nre-verify: {kernel_ms_total:.2} ms for {memo_hits} proof-memo hits");

    // Leg 2: the pre-simulation gate on the full app × arch grid.
    let apps = App::all();
    ws.prewarm(&apps);
    let mut app_rows = Vec::new();
    let mut gate_ms_total = 0.0;
    let mut gate_warnings = 0u64;
    println!(
        "\n{:>6} {:>10} {:>7} {:>7} {:>9}",
        "app", "arch", "errors", "warn", "gate ms"
    );
    for app in &apps {
        for &arch in Arch::ALL.iter() {
            let t = Instant::now();
            let report = ws
                .verify_app(app, arch, DEFAULT_FRAMES)
                .expect("pipeline produces verifiable artifacts");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(
                report.is_clean(),
                "{}/{arch:?}: the gate rejected a legitimate run:\n{report}",
                app.name
            );
            println!(
                "{:>6} {:>10} {:>7} {:>7} {:>9.2}",
                app.name,
                format!("{arch:?}"),
                report.error_count(),
                report.warning_count(),
                ms
            );
            gate_ms_total += ms;
            gate_warnings += report.warning_count() as u64;
            let mut row = JsonObject::new();
            row.str("app", app.name)
                .str("arch", &format!("{arch:?}"))
                .int("errors", report.error_count() as u64)
                .int("warnings", report.warning_count() as u64)
                .float("gate_ms", ms);
            app_rows.push(row);
        }
    }

    // Leg 3: the persistent artifact store, cold then warm. Each pass
    // uses a fresh workbench (cold in-memory caches, as a new process
    // would start); only the on-disk store carries over.
    let store_dir = std::env::var("STITCH_ARTIFACT_DIR").map_or_else(
        |_| std::env::temp_dir().join(format!("stitch-artifacts-bench-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let store = Arc::new(ArtifactStore::open(&store_dir).expect("open artifact store"));
    store.clear().expect("start from an empty store");

    let run_leg = |store: &Arc<ArtifactStore>| -> f64 {
        let mut ws = Workbench::new();
        ws.set_artifact_store(Arc::clone(store));
        let t = Instant::now();
        for k in &kernels {
            let kv = ws.variants(k.as_ref()).expect("kernel compiles");
            assert!(verify_kernel(&kv).is_clean());
        }
        for app in &apps {
            for &arch in Arch::ALL.iter() {
                let report = ws
                    .verify_app(app, arch, DEFAULT_FRAMES)
                    .expect("pipeline produces verifiable artifacts");
                assert!(report.is_clean());
            }
        }
        t.elapsed().as_secs_f64() * 1e3
    };

    let artifact_cold_ms = run_leg(&store);
    let (cold_hits, cold_misses) = (store.hits(), store.misses());
    let artifact_warm_ms = run_leg(&store);
    let (warm_hits, warm_misses) = (store.hits() - cold_hits, store.misses() - cold_misses);
    let warm_share = artifact_warm_ms / artifact_cold_ms;
    println!(
        "\nartifact store ({} files): cold {artifact_cold_ms:.1} ms, \
         warm {artifact_warm_ms:.1} ms ({:.2}% of cold), warm hits {warm_hits}, \
         warm misses {warm_misses}",
        store.completed(),
        warm_share * 100.0
    );
    assert_eq!(warm_misses, 0, "a warm pass must never miss the store");
    assert!(
        warm_share < 0.05,
        "warm compile+verify must cost < 5% of cold wall \
         (cold {artifact_cold_ms:.1} ms, warm {artifact_warm_ms:.1} ms)"
    );
    let artifact_files = store.completed() as u64;
    if std::env::var("STITCH_ARTIFACT_DIR").is_err() {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    println!("{}", "-".repeat(72));
    println!(
        "{}",
        bench::row("kernel artifacts verified", "-", &kernels.len().to_string())
    );
    println!(
        "{}",
        bench::row("ISE equivalence obligations", "-", &obligations.to_string())
    );
    println!(
        "{}",
        bench::row(
            "kernel re-verify wall",
            "-",
            &format!("{kernel_ms_total:.1} ms")
        )
    );
    println!(
        "{}",
        bench::row(
            "app gate points (all clean)",
            "-",
            &app_rows.len().to_string()
        )
    );
    println!(
        "{}",
        bench::row("app gate wall", "-", &format!("{gate_ms_total:.1} ms"))
    );
    println!(
        "{}",
        bench::row(
            "artifact store cold/warm",
            "-",
            &format!(
                "{artifact_cold_ms:.1} / {artifact_warm_ms:.1} ms ({:.2}%)",
                warm_share * 100.0
            )
        )
    );

    json.int("kernels", kernels.len() as u64)
        .int("ise_obligations", obligations)
        .int("kernel_warnings", kernel_warnings)
        .float("kernel_verify_ms", kernel_ms_total)
        .int("kernel_memo_hits", memo_hits)
        .int("app_points", app_rows.len() as u64)
        .int("app_errors", 0)
        .int("app_warnings", gate_warnings)
        .float("app_gate_ms", gate_ms_total)
        .float("artifact_cold_ms", artifact_cold_ms)
        .float("artifact_warm_ms", artifact_warm_ms)
        .float("artifact_warm_share", warm_share)
        .int("artifact_files", artifact_files)
        .int("artifact_warm_hits", warm_hits)
        .int("artifact_warm_misses", warm_misses)
        .array("kernel_leg", &kernel_rows)
        .array("app_leg", &app_rows);
    std::fs::write("BENCH_verify.json", json.render_pretty()).expect("write BENCH_verify.json");
    println!("\nWrote BENCH_verify.json");
}
