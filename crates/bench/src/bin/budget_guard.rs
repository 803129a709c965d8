//! Budget-sandboxing regression guard.
//!
//! An enabled-but-roomy budget (every axis capped far above what the
//! apps need) must not perturb simulation by a single bit. Each app's
//! clean Stitch throughput is recomputed with and without the roomy
//! budget, asserted bit-identical, and checked against the committed
//! `clean_fps` in `BENCH_faults.json`. That disabled budgets cost no
//! wall clock is checked by the fig12 overhead gate,
//! `perf_report --check-overhead`.
//!
//! Run from the repo root: `cargo run --release -p bench --bin
//! budget_guard`.

use stitch::{Arch, JsonValue, RunBudget, Workbench, DEFAULT_FRAMES};
use stitch_apps::App;

/// A budget that is enabled (so every check runs) but generous enough
/// that no axis can fire on the benchmark apps.
fn roomy_budget() -> RunBudget {
    RunBudget {
        cycles: Some(u64::MAX / 2),
        memory_pages: Some(u64::MAX / 2),
        messages: Some(u64::MAX / 2),
        in_flight_messages: Some(u64::MAX / 2),
        trace_events: Some(u64::MAX / 2),
        snapshot_bytes: Some(u64::MAX / 2),
    }
}

fn main() {
    if let Some(flag) = std::env::args().nth(1) {
        panic!("unknown flag {flag}");
    }
    println!("{}", bench::header("Budgets-enabled bit-stability"));
    let committed = std::fs::read_to_string("BENCH_faults.json").expect("read BENCH_faults.json");
    let committed = JsonValue::parse(&committed).expect("parse BENCH_faults.json");
    let apps = committed
        .get("apps")
        .and_then(JsonValue::as_array)
        .expect("BENCH_faults.json apps");

    for app in App::all() {
        let mut plain = Workbench::new();
        let baseline = plain
            .run_app(&app, Arch::Stitch, DEFAULT_FRAMES)
            .expect("clean run");

        let mut budgeted = Workbench::new();
        budgeted.set_budget(roomy_budget());
        let guarded = budgeted
            .run_app(&app, Arch::Stitch, DEFAULT_FRAMES)
            .expect("clean run under roomy budget");

        assert_eq!(
            baseline.summary, guarded.summary,
            "{}: a roomy budget perturbed the run summary",
            app.name
        );
        assert!(
            baseline.throughput_fps == guarded.throughput_fps,
            "{}: a roomy budget perturbed throughput ({} vs {})",
            app.name,
            baseline.throughput_fps,
            guarded.throughput_fps
        );

        let committed_fps = apps
            .iter()
            .find(|a| a.get("app").and_then(JsonValue::as_str) == Some(app.name))
            .and_then(|a| a.get("clean_fps"))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{}: no clean_fps in BENCH_faults.json", app.name));
        // The report rounds to three decimals; compare at that grain.
        let recomputed = format!("{:.3}", guarded.throughput_fps);
        let committed = format!("{committed_fps:.3}");
        assert_eq!(
            recomputed, committed,
            "{}: clean throughput drifted from BENCH_faults.json",
            app.name
        );
        println!(
            "{:>6}: clean {recomputed} fps — identical with budgets enabled, matches baseline",
            app.name
        );
    }
    println!("budgets-enabled runs are bit-identical on every app");
}
