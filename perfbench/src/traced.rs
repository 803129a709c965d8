//! `traced_grid`: APP1 on all four archs with the simulator's tracer on
//! (`TraceConfig::new(16)`, windowed metrics) and every capture
//! exported with `to_chrome_trace` into memory.
//!
//! Every traced point must reconcile: its windowed totals must equal
//! its `RunSummary` and the ring buffer must drop nothing.

use crate::arith::{median, median_index, ratio, shuffle};
use crate::common::{point_name, prepare_points, prewarmed, secs, variants_of, Args, GridPass};
use crate::host::{peak_rss_mb, Clock};
use crate::ledger::{self_times, Ledger};
use crate::replay;
use crate::report::{accounts_for_wall, layers, Metrics, Outcome, SimTally};
use std::time::Instant;
use stitch::{
    to_chrome_trace, AppRun, Arch, Error, JsonValue, SweepPoint, TraceConfig, Workbench,
    DEFAULT_FRAMES,
};
use stitch_apps::App;

/// Simulated nanoseconds per cycle at the 200 MHz clock, for the export.
const NS_PER_CYCLE: u64 = 5;

/// Checks that a traced run's windowed metrics and event stream agree
/// with its summary.
fn reconcile(run: &AppRun) -> Result<(), String> {
    let s = &run.summary;
    let windows = s.windows.as_ref().ok_or("no windowed metrics")?;
    let capture = run.trace.as_ref().ok_or("no event stream")?;
    if capture.dropped != 0 {
        return Err(format!("{} events dropped", capture.dropped));
    }
    let totals = windows.tile_totals();
    if totals.len() != s.tiles.len() {
        return Err("window tile count differs from the summary".into());
    }
    for (t, (w, tile)) in totals.iter().zip(&s.tiles).enumerate() {
        let same = w.busy_cycles == tile.core.busy_cycles()
            && w.recv_wait_cycles == tile.core.recv_wait_cycles
            && w.retired == tile.core.instructions
            && w.activations == tile.patch_activations
            && w.demotions == tile.core.demoted_ops
            && w.icache_misses == tile.icache.misses
            && w.dcache_misses == tile.dcache.misses;
        if !same {
            return Err(format!("tile {t}: windowed totals differ from the summary"));
        }
    }
    let flits: u64 = windows.link_totals().iter().flatten().sum();
    if flits != s.mesh.flit_hops {
        return Err("link heatmap differs from the mesh's flit hops".into());
    }
    Ok(())
}

fn export(run: &AppRun) -> Option<String> {
    let s = &run.summary;
    Some(to_chrome_trace(
        run.trace.as_ref()?,
        s.windows.as_ref(),
        s.tiles.len(),
        NS_PER_CYCLE,
    ))
}

/// Checks a pass of traced runs: the grid checks, reconciliation, and
/// (when `exports` is given) that each export parses as JSON.
fn check(
    apps: &[App],
    points: &[SweepPoint],
    runs: &[Result<AppRun, Error>],
    exports: Option<&[Option<String>]>,
) -> GridPass {
    let mut pass = GridPass::check(apps, points, runs);
    for (i, (p, r)) in points.iter().zip(runs).enumerate() {
        let Ok(run) = r else { continue };
        let mut bad = reconcile(run).err();
        if let Some(exports) = exports {
            let parsed = exports[i].as_deref().map(JsonValue::parse);
            if !matches!(parsed, Some(Ok(_))) {
                bad = Some("trace export is not valid JSON".into());
            }
        }
        if let Some(why) = bad {
            eprintln!("{}: {why}", point_name(&apps[p.app], p.arch));
            pass.failed += 1;
        }
    }
    pass
}

/// One untraced-harness pass: every point through the tracing
/// workbench, then its export.
fn pass(
    ws: &mut Workbench,
    apps: &[App],
    points: &[SweepPoint],
) -> (f64, Vec<Result<AppRun, Error>>, Vec<Option<String>>) {
    let t = Instant::now();
    let mut runs = Vec::new();
    let mut exports = Vec::new();
    for p in points {
        let run = ws.run_app(&apps[p.app], p.arch, DEFAULT_FRAMES);
        exports.push(run.as_ref().ok().and_then(export));
        runs.push(run);
    }
    (secs(t), runs, exports)
}

pub fn traced(args: Args) -> Outcome {
    let mut o = Outcome::default();
    let setup = Clock::start();
    let apps = vec![stitch_apps::gesture()];
    let mut points: Vec<SweepPoint> = Arch::ALL
        .iter()
        .map(|&arch| SweepPoint { app: 0, arch })
        .collect();
    shuffle(&mut points, args.seed);
    let cfg = TraceConfig::new(16);
    let mut ws = prewarmed(vec![stitch_apps::gesture()], None);
    ws.set_trace(Some(cfg.clone()));
    for p in &points {
        match ws.verify_app(&apps[0], p.arch, DEFAULT_FRAMES) {
            Ok(report) => o.checks_ok &= report.is_clean(),
            Err(e) => {
                eprintln!("{}: prepare failed: {e}", point_name(&apps[0], p.arch));
                o.checks_ok = false;
            }
        }
    }
    let setup_s = setup.cpu_s();

    if args.trace {
        traced_replay(args, &mut ws, &cfg, &apps, &points, &mut o);
        return o;
    }

    let start = Instant::now();
    let mut cpus = Vec::new();
    let mut first: Option<GridPass> = None;
    loop {
        let clock = Clock::start();
        let (_, runs, mut exports) = pass(&mut ws, &apps, &points);
        cpus.push(clock.cpu_s());
        // Parsing every export is slow; the first pass proves the format.
        if first.is_some() {
            exports.clear();
        }
        let mut p = check(
            &apps,
            &points,
            &runs,
            first.is_none().then_some(&exports[..]),
        );
        if let Some(f) = &first {
            p.compare(&f.digests, "first pass");
        }
        o.attempted += points.len() as u64;
        o.failed += p.failed;
        first.get_or_insert(p);
        if secs(start) >= args.seconds {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let cpu = median(&cpus).unwrap_or(f64::NAN);
    o.metrics = Metrics::from([
        ("cpu_s", cpu),
        ("setup_s", setup_s),
        ("sim_cycles_per_cpu_s", first.sim.cycles as f64 / cpu),
        ("peak_rss_mb", peak_rss_mb()),
        ("paper_gap", first.paper_gap(apps.len()).unwrap_or(f64::NAN)),
        ("fault_retention", 1.0),
    ]);
    o.digests = first.digests;
    println!("traced_grid: {} pass(es)", cpus.len());
    o
}

/// `traced_grid`, traced: one harness pass, then replay passes timing
/// the traced `Chip::run` and the export of each point; finally the
/// same points untraced, for `trace.capture_overhead`.
fn traced_replay(
    args: Args,
    ws: &mut Workbench,
    cfg: &TraceConfig,
    apps: &[App],
    points: &[SweepPoint],
    o: &mut Outcome,
) {
    let prepared = match variants_of(ws, apps)
        .and_then(|v| prepare_points(&v, apps, points, DEFAULT_FRAMES))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("replay set-up: {e}");
            o.checks_ok = false;
            return;
        }
    };
    let (untraced_wall, runs, exports) = pass(ws, apps, points);
    let reference = check(apps, points, &runs, Some(&exports));
    o.attempted += points.len() as u64;
    o.failed += reference.failed;

    struct TracePass {
        wall: f64,
        ledger: Ledger,
        traced: SimTally,
        bytes: usize,
        events: usize,
        dropped: u64,
    }
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let mut l = Ledger::new();
        let (mut bytes, mut events, mut dropped) = (0, 0, 0);
        let mut runs = Vec::new();
        for p in points {
            let prep = &prepared[&(p.app, p.arch)];
            let run = replay::run(
                &mut l,
                prep,
                &apps[p.app],
                p.arch,
                DEFAULT_FRAMES,
                None,
                Some(cfg),
                "trace.run",
            );
            if let Ok(r) = &run {
                bytes += l.span("trace.export", |_| export(r)).map_or(0, |j| j.len());
                if let Some(c) = &r.trace {
                    events += c.events.len();
                    dropped += c.dropped;
                }
            }
            runs.push(run);
        }
        let wall = l.now();
        let mut p = check(apps, points, &runs, None);
        p.compare(&reference.digests, "untraced-harness run");
        o.attempted += points.len() as u64;
        o.failed += p.failed;
        o.checks_ok &= accounts_for_wall(l.spans(), wall, 0.05);
        passes.push(TracePass {
            wall,
            ledger: l,
            traced: p.sim,
            bytes,
            events,
            dropped,
        });
        if secs(start) >= args.seconds {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let tp = &passes[median_index(&walls)];

    // The same points with the tracer off: the denominator of the
    // capture overhead. Tracing must not change any result.
    let mut plain = Ledger::new();
    let runs: Vec<Result<AppRun, Error>> = points
        .iter()
        .map(|p| {
            let prep = &prepared[&(p.app, p.arch)];
            replay::run(
                &mut plain,
                prep,
                &apps[p.app],
                p.arch,
                DEFAULT_FRAMES,
                None,
                None,
                "sim.run",
            )
        })
        .collect();
    let mut p = GridPass::check(apps, points, &runs);
    p.compare(&reference.digests, "traced run");
    o.attempted += points.len() as u64;
    o.failed += p.failed;
    let sim = p.sim;

    let mut m = layers(&tp.ledger, tp.wall, &sim);
    let run_s = self_times(plain.spans())
        .get("sim.run")
        .copied()
        .unwrap_or(0.0);
    m.insert("sim.run_s", run_s);
    m.insert(
        "sim.host_ns_per_cycle",
        ratio(run_s * 1e9, sim.cycles as f64),
    );
    m.extend([
        ("trace.capture_overhead", ratio(m["trace.run_s"], run_s)),
        ("trace.export_bytes", tp.bytes as f64),
        ("trace.events", tp.events as f64),
        ("trace.dropped", tp.dropped as f64),
        ("trace.batched_fraction", tp.traced.batched_fraction()),
        ("trace_overhead_s", tp.wall - untraced_wall),
    ]);
    o.metrics = m;
    o.digests = reference.digests;
    println!("traced_grid: {} replay pass(es)", passes.len());
}
