//! The repository's benchmark: end-to-end and per-layer host time of the
//! Stitch pipeline on four Fig 12 workloads. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_grid --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced replay (`--trace 1`).

mod arith;
mod common;
mod digest;
mod fault;
mod grid;
mod host;
mod ledger;
mod replay;
mod report;
mod traced;

use common::Args;
use report::{result_line, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["cold_grid", "warm_grid", "fault_grid", "traced_grid"];

fn usage(why: &str) -> ExitCode {
    eprintln!("{why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// A traced run of one workload that also reports the metrics named
/// `prefix*` of `extra`, a traced run of another; operations and checks
/// of both count.
fn with_layers(mut base: Outcome, extra: Outcome, prefix: &str) -> Outcome {
    base.attempted += extra.attempted;
    base.failed += extra.failed;
    base.checks_ok &= extra.checks_ok;
    base.metrics.extend(
        extra
            .metrics
            .into_iter()
            .filter(|(name, _)| name.starts_with(prefix)),
    );
    base
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a whole number");
    };
    // Child processes the workloads start.
    if argv.iter().any(|a| a == "--cold-child") {
        grid::cold_child(seed, argv.iter().any(|a| a == "--setup-only"));
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--warm-child") {
        let Some(store) = flag("--store") else {
            return usage("--warm-child needs --store <dir>");
        };
        grid::warm_child(store, seed);
        return ExitCode::SUCCESS;
    }
    let Some(seconds) = flag("--seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("--seconds must be a number");
    };
    let trace = match flag("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let args = Args {
        seed,
        seconds,
        trace,
    };
    let workload = flag("--workload").unwrap_or_default();
    // The benchmark's workloads are `cold_grid` and `fault_grid`; their
    // traced runs also replay `warm_grid` (the cache layer) and
    // `traced_grid` (the trace layer), whose own timings spread past any
    // useful bound on a shared host. Those two stay runnable alone.
    let run: fn(Args) -> Outcome = match (workload, trace) {
        ("cold_grid", false) => grid::cold,
        ("cold_grid", true) => |a| with_layers(grid::cold_traced(a), grid::warm(a), "cache."),
        ("fault_grid", true) => |a| with_layers(fault::fault(a), traced::traced(a), "trace."),
        ("warm_grid", _) => grid::warm,
        ("fault_grid", _) => fault::fault,
        ("traced_grid", _) => traced::traced,
        _ => return usage(&format!("unknown workload {workload:?}")),
    };
    // Worker threads of the timed region: the untraced grids sweep on
    // every hardware thread; fault plans, traced points and every replay
    // run on one.
    let workers = match workload {
        "cold_grid" | "warm_grid" if !trace => host::nproc(),
        _ => 1,
    };
    println!("{}", host::record(workers));
    println!(
        "workload: {workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );

    let mut outcome = run(args);
    let names = if trace {
        // Layers a workload does not exercise read 0.
        for &(name, _) in PER_LAYER {
            outcome.metrics.entry(name).or_insert(0.0);
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    for (name, d) in &outcome.digests {
        println!("digest {name} {d:016x}");
    }
    println!(
        "failed share: {}/{} = {}",
        outcome.failed,
        outcome.attempted,
        arith::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    println!("{}", result_line(&outcome, names));
    ExitCode::SUCCESS
}
