//! The Fig 12 grid workloads.
//!
//! * `cold_grid` — a user's first run: every repetition is a fresh
//!   process with empty memos and no artifact store, running the
//!   threaded grid sweep `fig12_app_throughput` runs.
//! * `warm_grid` — the same grid served from an `ArtifactStore` that
//!   set-up fills; every pass is a fresh `Workbench` on that store.

use crate::arith::{median, median_index, shuffle};
use crate::common::{prepare_points, prewarmed, secs, variants_of, Args, GridPass, Scratch};
use crate::host::{cpu_seconds, nproc, peak_rss_mb, Clock};
use crate::ledger::Ledger;
use crate::replay::{self, distinct_kernels, kernel_key};
use crate::report::{accounts_for_wall, layers, Metrics, Outcome};
use std::collections::{BTreeMap, HashMap};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;
use stitch::{AppRun, ArtifactStore, Error, PatchConfig, SweepPoint, Workbench, DEFAULT_FRAMES};
use stitch_apps::App;
use stitch_compiler::{
    decode_kernel_artifact, kernel_input_key, seed_verify_memo, verify_memo_hits,
};

/// The grid in the order `seed` gives.
fn shuffled_grid(apps: &[App], seed: u64) -> Vec<SweepPoint> {
    let mut points = Workbench::full_grid(apps);
    shuffle(&mut points, seed);
    points
}

/// Seed of pass `k` of a run seeded `seed`.
fn pass_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64)
}

/// Extra set-up-only children per `cold_grid` run.
const COLD_SETUPS: usize = 8;

/// One cold repetition, as its process reported it.
struct ColdRep {
    wall_s: f64,
    /// CPU seconds of the sweep, every worker counted.
    cpu_s: f64,
    setup_s: f64,
    rss_mb: f64,
    /// Spawn to exit, as the parent saw it.
    process_s: f64,
    cycles: u64,
    failed: u64,
    attempted: u64,
    cold_start: bool,
    paper_gap: Option<f64>,
    digests: BTreeMap<String, u64>,
}

/// The child side of a cold repetition: one grid sweep in this fresh
/// process, reported on stdout for the parent. With `setup_only` the
/// child stops once its inputs are built.
pub fn cold_child(seed: u64, setup_only: bool) {
    // Cold-start guard: the compiler's verify memo is process-global and
    // cannot be cleared, so only a fresh process measures a cold run.
    let memo_hits = verify_memo_hits();
    let apps = App::all();
    let points = shuffled_grid(&apps, seed);
    let mut ws = Workbench::new();
    let cold_start = memo_hits == 0 && ws.artifact_store().is_none();
    // Set-up ends here: the process's CPU seconds so far cover starting
    // it and building the inputs.
    let setup_cpu_s = cpu_seconds();
    if setup_only {
        println!("report setup_cpu_s={setup_cpu_s}");
        return;
    }

    let t = Instant::now();
    let clock = Clock::start();
    let runs = ws.sweep(&apps, &points, DEFAULT_FRAMES, nproc());
    let cpu_s = clock.cpu_s();
    let wall_s = secs(t);

    let pass = GridPass::check(&apps, &points, &runs);
    let gap = pass
        .paper_gap(apps.len())
        .map_or_else(|| "none".to_string(), |g| g.to_string());
    println!(
        "report wall_s={wall_s} cpu_s={cpu_s} setup_cpu_s={setup_cpu_s} \
         rss_mb={} cycles={} failed={} attempted={} \
         cold_start={cold_start} paper_gap={gap}",
        peak_rss_mb(),
        pass.sim.cycles,
        pass.failed,
        points.len(),
    );
    for (name, d) in &pass.digests {
        println!("digest {name} {d:016x}");
    }
}

/// What a child process printed: its `report key=value ...` fields and
/// digests, plus the parent's view of it.
struct ChildReport {
    /// Spawn to exit.
    process_s: f64,
    fields: HashMap<String, String>,
    digests: BTreeMap<String, u64>,
}

impl ChildReport {
    fn get(&self, k: &str) -> Result<&str, String> {
        self.fields
            .get(k)
            .map(String::as_str)
            .ok_or_else(|| format!("child did not report {k}"))
    }

    fn num(&self, k: &str) -> Result<f64, String> {
        self.get(k)?.parse().map_err(|e| format!("child {k}: {e}"))
    }

    /// CPU seconds from the child's start until its inputs were built.
    fn setup_s(&self) -> Result<f64, String> {
        self.num("setup_cpu_s")
    }
}

/// Runs this benchmark's binary with `args` and waits for it.
fn spawn_child(args: &[&str]) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let process_s = secs(t);
    if !out.status.success() {
        return Err(format!("{args:?} exited with {}", out.status));
    }
    let mut report = ChildReport {
        process_s,
        fields: HashMap::new(),
        digests: BTreeMap::new(),
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("report") => {
                for kv in words {
                    if let Some((k, v)) = kv.split_once('=') {
                        report.fields.insert(k.to_string(), v.to_string());
                    }
                }
            }
            Some("digest") => {
                if let (Some(name), Some(hex)) = (words.next(), words.next()) {
                    if let Ok(d) = u64::from_str_radix(hex, 16) {
                        report.digests.insert(name.to_string(), d);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(report)
}

/// A cold child; with `setup_only` it exits once its inputs are built.
fn spawn_cold_child(seed: u64, setup_only: bool) -> Result<ChildReport, String> {
    let seed = seed.to_string();
    let mut args = vec!["--cold-child", "--seed", &seed];
    if setup_only {
        args.push("--setup-only");
    }
    spawn_child(&args)
}

fn spawn_cold(seed: u64) -> Result<ColdRep, String> {
    let r = spawn_cold_child(seed, false)?;
    Ok(ColdRep {
        wall_s: r.num("wall_s")?,
        cpu_s: r.num("cpu_s")?,
        setup_s: r.setup_s()?,
        rss_mb: r.num("rss_mb")?,
        process_s: r.process_s,
        cycles: r.num("cycles")? as u64,
        failed: r.num("failed")? as u64,
        attempted: r.num("attempted")? as u64,
        cold_start: r.get("cold_start")? == "true",
        paper_gap: r.get("paper_gap")?.parse().ok(),
        digests: r.digests,
    })
}

/// `cold_grid`, untraced: fresh-process repetitions until the next one
/// would overrun `--seconds` (at least one).
pub fn cold(args: Args) -> Outcome {
    let start = Instant::now();
    let mut o = Outcome::default();
    let mut reps: Vec<ColdRep> = Vec::new();
    loop {
        match spawn_cold(args.seed) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                eprintln!("{e}");
                o.checks_ok = false;
                break;
            }
        }
        let per_rep = median(&reps.iter().map(|r| r.process_s).collect::<Vec<_>>()).unwrap_or(0.0);
        if secs(start) + per_rep > args.seconds {
            break;
        }
    }
    let Some(first) = reps.first() else {
        return Outcome::not_started("no cold repetition completed");
    };
    for rep in &reps {
        o.attempted += rep.attempted;
        o.failed += rep.failed;
        // Every repetition must compute the same grid.
        let mut pass = GridPass {
            digests: rep.digests.clone(),
            ..GridPass::default()
        };
        o.failed += pass.compare(&first.digests, "first repetition");
        o.checks_ok &= rep.cold_start && rep.paper_gap == first.paper_gap;
    }
    o.digests = first.digests.clone();
    let med = |f: fn(&ColdRep) -> f64| {
        median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let cpu = med(|r| r.cpu_s);
    // A repetition's set-up takes milliseconds, so more children are
    // started just to be set up, and the median over all is reported.
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    for _ in 0..COLD_SETUPS {
        match spawn_cold_child(args.seed, true).and_then(|r| r.setup_s()) {
            Ok(s) => setups.push(s),
            Err(e) => {
                eprintln!("{e}");
                o.checks_ok = false;
            }
        }
    }
    o.metrics = Metrics::from([
        ("cpu_s", cpu),
        ("setup_s", median(&setups).unwrap_or(f64::NAN)),
        ("sim_cycles_per_cpu_s", first.cycles as f64 / cpu),
        ("peak_rss_mb", med(|r| r.rss_mb)),
        ("paper_gap", first.paper_gap.unwrap_or(f64::NAN)),
        ("fault_retention", 1.0),
    ]);
    println!("cold_grid: {} fresh-process repetition(s)", reps.len());
    o
}

/// `cold_grid`, traced: one untraced repetition in a fresh process as
/// the reference, then the stage-by-stage replay in this process, whose
/// memos are still empty.
pub fn cold_traced(args: Args) -> Outcome {
    let reference = match spawn_cold(args.seed) {
        Ok(r) => r,
        Err(e) => return Outcome::not_started(e),
    };
    let mut o = Outcome::default();
    o.attempted += reference.attempted;
    o.failed += reference.failed;
    o.checks_ok &= reference.cold_start && verify_memo_hits() == 0;

    let apps = App::all();
    let points = shuffled_grid(&apps, args.seed);
    let mut l = Ledger::new();
    let mut variants = HashMap::new();
    for k in distinct_kernels(&apps) {
        match replay::compile(&mut l, k) {
            Ok(kv) => {
                variants.insert(kernel_key(k), kv);
            }
            Err(e) => eprintln!("{}: compile failed: {e}", k.spec().name),
        }
    }
    let runs: Vec<Result<AppRun, Error>> = points
        .iter()
        .map(|p| {
            let app = &apps[p.app];
            let prep = replay::prepare(&mut l, &variants, app, p.arch, DEFAULT_FRAMES, &[])?;
            replay::run(
                &mut l,
                &prep,
                app,
                p.arch,
                DEFAULT_FRAMES,
                None,
                None,
                "sim.run",
            )
        })
        .collect();
    let wall = l.now();

    let mut pass = GridPass::check(&apps, &points, &runs);
    pass.compare(&reference.digests, "untraced run");
    o.attempted += points.len() as u64;
    o.failed += pass.failed;
    o.checks_ok &= accounts_for_wall(l.spans(), wall, 0.05);
    o.metrics = layers(&l, wall, &pass.sim);
    o.metrics
        .insert("trace_overhead_s", wall - reference.wall_s);
    o.digests = pass.digests;
    o
}

/// One untraced warm pass: a fresh store handle and a fresh workbench.
fn warm_pass(
    store_dir: &std::path::Path,
    apps: &[App],
    points: &[SweepPoint],
) -> (f64, GridPass, u64, u64) {
    let t = Instant::now();
    let store = Arc::new(ArtifactStore::open(store_dir).expect("reopen the artifact store"));
    let mut ws = Workbench::new();
    ws.set_artifact_store(Arc::clone(&store));
    let runs = ws.sweep(apps, points, DEFAULT_FRAMES, nproc());
    let wall = secs(t);
    (
        wall,
        GridPass::check(apps, points, &runs),
        store.hits(),
        store.misses(),
    )
}

/// The child side of a warm pass: one sweep of the grid in the order
/// `seed` gives, from the store in `store_dir`, in this fresh process.
pub fn warm_child(store_dir: &str, seed: u64) {
    let apps = App::all();
    let points = shuffled_grid(&apps, seed);
    let clock = Clock::start();
    let (_, pass, hits, misses) = warm_pass(std::path::Path::new(store_dir), &apps, &points);
    let cpu_s = clock.cpu_s();
    println!(
        "report cpu_s={cpu_s} rss_mb={} hits={hits} misses={misses} failed={}",
        peak_rss_mb(),
        pass.failed
    );
    for (name, d) in &pass.digests {
        println!("digest {name} {d:016x}");
    }
}

/// `warm_grid`: set-up fills a store with every kernel and prepared
/// point; passes then run the grid from it.
pub fn warm(args: Args) -> Outcome {
    let scratch = match Scratch::new("warm") {
        Ok(s) => s,
        Err(e) => return Outcome::not_started(format!("scratch directory: {e}")),
    };
    let mut o = Outcome::default();
    let setup = Clock::start();
    let apps = App::all();
    let points = shuffled_grid(&apps, args.seed);
    let store = Arc::new(ArtifactStore::open(&scratch.0).expect("open the artifact store"));
    let mut fill = prewarmed(App::all(), Some(store));
    let runs = fill.sweep(&apps, &points, DEFAULT_FRAMES, nproc());
    let setup_s = setup.cpu_s();
    let reference = GridPass::check(&apps, &points, &runs);
    o.attempted += points.len() as u64;
    o.failed += reference.failed;
    o.digests = reference.digests.clone();

    if args.trace {
        warm_traced(
            args, &scratch, &mut fill, &apps, &points, &reference, &mut o,
        );
        return o;
    }

    // Every pass is a fresh process with its own point order. The
    // order sets the two workers' load balance, and the simulator's
    // speed differs between processes by up to a fifth, so a run's
    // median must not hang on one order or one process.
    let dir = scratch.0.to_string_lossy().into_owned();
    let start = Instant::now();
    let mut cpus = Vec::new();
    let mut rss = Vec::new();
    loop {
        let seed = pass_seed(args.seed, cpus.len()).to_string();
        let child = spawn_child(&["--warm-child", "--store", &dir, "--seed", &seed]);
        let r = child.and_then(|r| {
            let mut pass = GridPass {
                digests: r.digests.clone(),
                failed: r.num("failed")? as u64,
                ..GridPass::default()
            };
            pass.compare(&reference.digests, "store-filling run");
            // Every lookup must be served: a miss means the pass compiled.
            let served = r.num("misses")? == 0.0;
            Ok((r.num("cpu_s")?, r.num("rss_mb")?, pass.failed, served))
        });
        match r {
            Ok((cpu, mb, failed, served)) => {
                o.checks_ok &= served;
                o.attempted += points.len() as u64;
                o.failed += failed;
                cpus.push(cpu);
                rss.push(mb);
            }
            Err(e) => {
                eprintln!("{e}");
                o.checks_ok = false;
                break;
            }
        }
        if secs(start) >= args.seconds {
            break;
        }
    }
    let cpu = median(&cpus).unwrap_or(f64::NAN);
    o.metrics = Metrics::from([
        ("cpu_s", cpu),
        ("setup_s", setup_s),
        ("sim_cycles_per_cpu_s", reference.sim.cycles as f64 / cpu),
        ("peak_rss_mb", median(&rss).unwrap_or(f64::NAN)),
        (
            "paper_gap",
            reference.paper_gap(apps.len()).unwrap_or(f64::NAN),
        ),
        ("fault_retention", 1.0),
    ]);
    println!("warm_grid: {} pass(es)", cpus.len());
    o
}

/// Content keys of the artifacts in a store directory.
fn stored_keys(dir: &std::path::Path) -> Vec<(String, u64)> {
    let mut keys: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let path = e.path();
                    (path.extension()? == "art").then_some(())?;
                    let key = path.file_stem()?.to_str()?.to_string();
                    Some((key, e.metadata().ok()?.len()))
                })
                .collect()
        })
        .unwrap_or_default();
    keys.sort();
    keys
}

/// `warm_grid`, traced: one untraced pass, then replay passes that load
/// every artifact and simulate every point one call at a time.
fn warm_traced(
    args: Args,
    scratch: &Scratch,
    fill: &mut Workbench,
    apps: &[App],
    points: &[SweepPoint],
    reference: &GridPass,
    o: &mut Outcome,
) {
    // Untimed: the prepared artifacts the replay simulates.
    let prepared = match variants_of(fill, apps)
        .and_then(|v| prepare_points(&v, apps, points, DEFAULT_FRAMES))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("replay set-up: {e}");
            o.checks_ok = false;
            return;
        }
    };
    let kernels = distinct_kernels(apps);
    let stored = stored_keys(&scratch.0);
    let kernel_keys: Vec<Option<String>> = kernels
        .iter()
        .map(|k| {
            let spec = k.spec();
            let program = k.standalone().ok()?;
            let output = Some((spec.output_addr, spec.output_words as usize));
            kernel_input_key(spec.name, &program, &PatchConfig::all(), output)
        })
        .collect();
    let point_keys: Vec<&String> = stored
        .iter()
        .map(|(k, _)| k)
        .filter(|k| !kernel_keys.iter().flatten().any(|kk| kk == *k))
        .collect();
    o.checks_ok &= point_keys.len() == points.len();

    let (untraced_wall, mut pass, hits, misses) = warm_pass(&scratch.0, apps, points);
    pass.compare(&reference.digests, "store-filling run");
    o.attempted += points.len() as u64;
    o.failed += pass.failed;

    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let mut l = Ledger::new();
        let store = ArtifactStore::open(&scratch.0).expect("reopen the artifact store");
        let mut loaded = 0;
        for (k, key) in kernels.iter().zip(&kernel_keys) {
            let _program = l.span("apps.build", |_| k.standalone());
            let hit = l.span("cache.load", |_| {
                let (kv, report) = decode_kernel_artifact(&store.load(key.as_ref()?)?)?;
                seed_verify_memo(&kv, report);
                Some(())
            });
            loaded += usize::from(hit.is_some());
        }
        for key in &point_keys {
            loaded += usize::from(l.span("cache.load", |_| store.load(key)).is_some());
        }
        o.checks_ok &= loaded == kernels.len() + point_keys.len();
        let runs: Vec<Result<AppRun, Error>> = points
            .iter()
            .map(|p| {
                let prep = &prepared[&(p.app, p.arch)];
                replay::run(
                    &mut l,
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
        let wall = l.now();
        let mut pass = GridPass::check(apps, points, &runs);
        pass.compare(&reference.digests, "untraced run");
        o.attempted += points.len() as u64;
        o.failed += pass.failed;
        o.checks_ok &= accounts_for_wall(l.spans(), wall, 0.05);
        passes.push((wall, l, pass.sim));
        if secs(start) >= args.seconds {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let (wall, l, sim) = &passes[median_index(&walls)];
    o.metrics = layers(l, *wall, sim);

    // The write path set-up pays: store every artifact again into an
    // empty directory.
    let mut writes = Ledger::new();
    let source = ArtifactStore::open(&scratch.0).expect("reopen the artifact store");
    let copy = ArtifactStore::open(scratch.0.join("rewrite")).expect("open a second store");
    for (key, _) in &stored {
        if let Some(payload) = source.load(key) {
            o.checks_ok &= writes
                .span("cache.store", |_| copy.store(key, &payload))
                .is_ok();
        }
    }
    let store_s = writes.spans().iter().map(|s| s.duration()).sum();
    o.metrics.extend([
        ("cache.store_s", store_s),
        ("cache.hits", hits as f64),
        ("cache.misses", misses as f64),
        (
            "cache.hit_ratio",
            crate::arith::ratio(hits as f64, (hits + misses) as f64),
        ),
        ("cache.bytes", stored.iter().map(|(_, n)| *n as f64).sum()),
        ("trace_overhead_s", wall - untraced_wall),
    ]);
    println!("warm_grid: {} replay pass(es)", passes.len());
}
