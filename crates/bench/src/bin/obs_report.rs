//! Observability report: traces the gesture app (APP1) on all four
//! architecture variants, reconciles every windowed counter against the
//! `RunSummary` the run produced, and writes the numbers to
//! `BENCH_obs.json` plus a Chrome-trace-event export
//! (`BENCH_obs.trace.json`) loadable in `ui.perfetto.dev`. See
//! EXPERIMENTS.md ("Capturing a trace") for the viewing recipe.
//!
//! Reconciliation is exact on fault-free runs: the windowed metrics are
//! derived from the same event stream both simulator engines emit, so
//! every total must land on the corresponding `RunSummary` counter to
//! the last unit — any drift is a tracing bug, and this binary panics
//! on it. That tracing costs nothing when it is off is checked by the
//! fig12 overhead gate, `perf_report --check-overhead`.

use bench::JsonObject;
use stitch::{to_chrome_trace, Arch, EventKind, JsonValue, TraceConfig, Workbench, DEFAULT_FRAMES};

/// Simulated nanoseconds per cycle at the 200 MHz prototype clock.
const NS_PER_CYCLE: u64 = 5;

/// Trace export path (one file, for the full-Stitch run).
const TRACE_PATH: &str = "BENCH_obs.trace.json";

fn main() {
    println!("{}", bench::header("Observability report (gesture / APP1)"));
    let app = stitch_apps::gesture();
    let cfg = TraceConfig::new(16);
    let window = cfg.window.expect("default config collects windows");
    let mut ws = Workbench::new();
    ws.set_trace(Some(cfg));

    let mut arch_rows = Vec::new();
    let mut trace_bytes = 0u64;
    let mut trace_events = 0u64;
    for arch in Arch::ALL {
        let run = ws.run_app(&app, arch, DEFAULT_FRAMES).expect("traced run");
        let s = &run.summary;
        let windows = s.windows.as_ref().expect("windowed metrics collected");
        let capture = run.trace.as_ref().expect("event stream captured");
        assert_eq!(capture.dropped, 0, "{arch}: ring buffer overflowed");

        // Every windowed total must reconcile exactly with the summary.
        let totals = windows.tile_totals();
        assert_eq!(totals.len(), s.tiles.len());
        for (t, (w, tile)) in totals.iter().zip(&s.tiles).enumerate() {
            assert_eq!(
                w.busy_cycles,
                tile.core.busy_cycles(),
                "{arch}: busy, tile {t}"
            );
            assert_eq!(
                w.recv_wait_cycles, tile.core.recv_wait_cycles,
                "{arch}: recv-wait, tile {t}"
            );
            assert_eq!(
                w.retired, tile.core.instructions,
                "{arch}: retired, tile {t}"
            );
            assert_eq!(
                w.activations, tile.patch_activations,
                "{arch}: activations, tile {t}"
            );
            assert_eq!(
                w.demotions, tile.core.demoted_ops,
                "{arch}: demotions, tile {t}"
            );
            assert_eq!(
                w.icache_misses, tile.icache.misses,
                "{arch}: icache, tile {t}"
            );
            assert_eq!(
                w.dcache_misses, tile.dcache.misses,
                "{arch}: dcache, tile {t}"
            );
        }
        let link_flits: u64 = windows.link_totals().iter().flatten().sum();
        assert_eq!(
            link_flits, s.mesh.flit_hops,
            "{arch}: link heatmap vs flit hops"
        );

        // The control-plane ring must reconcile with the mesh counters
        // and the circuit table.
        let count = |k: EventKind| capture.events.iter().filter(|e| e.kind() == k).count() as u64;
        let sent_packets: u64 = capture
            .events
            .iter()
            .filter_map(|e| match *e {
                stitch::TraceEvent::MessageSend { packets, .. } => Some(u64::from(packets)),
                _ => None,
            })
            .sum();
        assert_eq!(sent_packets, s.mesh.packets_sent, "{arch}: packets sent");
        assert_eq!(
            count(EventKind::PacketDeliver),
            s.mesh.packets_delivered,
            "{arch}: packets delivered"
        );
        assert_eq!(
            count(EventKind::CircuitReserve) as usize,
            s.circuits,
            "{arch}: circuit reservations"
        );
        let running = s.tiles.iter().filter(|t| t.core.instructions > 0).count() as u64;
        assert_eq!(
            count(EventKind::Halt),
            running,
            "{arch}: every running core halts once"
        );

        println!(
            "{:>18}: {:>9} cycles, {:>7} events captured, {:>4} windows — reconciled",
            arch.name(),
            s.cycles,
            capture.events.len(),
            windows.windows.len()
        );

        // The full-Stitch run is the interesting one to look at.
        if arch == Arch::Stitch {
            let json = to_chrome_trace(capture, s.windows.as_ref(), s.tiles.len(), NS_PER_CYCLE);
            let parsed = JsonValue::parse(&json).expect("trace export is valid JSON");
            let events = parsed
                .get("traceEvents")
                .and_then(JsonValue::as_array)
                .expect("traceEvents array");
            assert!(!events.is_empty(), "trace export has no events");
            assert_eq!(
                parsed.get("displayTimeUnit").and_then(JsonValue::as_str),
                Some("ns")
            );
            trace_bytes = json.len() as u64;
            trace_events = events.len() as u64;
            std::fs::write(TRACE_PATH, &json).expect("write trace export");
            println!(
                "{:>18}  wrote {TRACE_PATH} ({trace_events} trace events, {} KiB)",
                "",
                trace_bytes / 1024
            );
        }

        let busy: u64 = totals.iter().map(|w| w.busy_cycles).sum();
        let wait: u64 = totals.iter().map(|w| w.recv_wait_cycles).sum();
        let mut row = JsonObject::new();
        row.str("arch", arch.name())
            .int("cycles", s.cycles)
            .int("instructions", s.total_instructions())
            .int("busy_cycles", busy)
            .int("recv_wait_cycles", wait)
            .int(
                "activations",
                s.tiles.iter().map(|t| t.patch_activations).sum(),
            )
            .int("demotions", s.total_demoted())
            .int("flit_hops", s.mesh.flit_hops)
            .int("captured_events", capture.events.len() as u64)
            .int("dropped_events", capture.dropped)
            .int("metric_windows", windows.windows.len() as u64)
            .float("throughput_fps", run.throughput_fps)
            .float("power_mw", run.power_mw);
        arch_rows.push(row);
    }

    let mut trace = JsonObject::new();
    trace
        .str("file", TRACE_PATH)
        .int("bytes", trace_bytes)
        .int("events", trace_events)
        .int("ns_per_cycle", NS_PER_CYCLE);
    let mut root = JsonObject::new();
    root.str("app", app.name)
        .int("frames", u64::from(DEFAULT_FRAMES))
        .int("window_cycles", window)
        .object("trace", &trace)
        .array("arches", &arch_rows);
    let rendered = root.render_pretty();
    // Belt and braces: the report itself must be parseable, NaN-free
    // JSON (the parser rejects bare NaN/Infinity tokens).
    JsonValue::parse(&rendered).expect("BENCH_obs.json is valid JSON");
    std::fs::write("BENCH_obs.json", rendered).expect("write BENCH_obs.json");
    println!("{}", "-".repeat(72));
    println!("all windowed totals reconcile exactly with RunSummary on every arch");
    println!("\nwrote BENCH_obs.json and {TRACE_PATH}");
}
