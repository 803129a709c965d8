//! `fault_grid`: every app on `Arch::Stitch` under seeded, compute-only
//! random fault plans.
//!
//! A compute-only plan may kill patches and switches or upset patch
//! configurations, but never a mesh link, so every node's output must
//! stay bit-identical to the clean run. Each distinct failed-patch mask
//! misses the workbench's prepare memo and re-runs Algorithm 1, node
//! acceleration and the gate; the simulator runs its demotion path.

use crate::arith::{geomean, median_index, paper_gap, shuffle, PAPER_FIG12};
use crate::common::{point_name, prewarmed, secs, variants_of, Args};
use crate::digest;
use crate::host::{nproc, peak_rss_mb, Clock};
use crate::ledger::Ledger;
use crate::replay::{self, Prepared};
use crate::report::{accounts_for_wall, layers, Metrics, Outcome, SimTally};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;
use stitch::{AppRun, Arch, Error, FaultPlan, FaultSpace, TileId, Workbench, DEFAULT_FRAMES};
use stitch_apps::App;

/// Fault plans in a run: four (one per app) per `SECONDS_PER_FOUR`
/// seconds of `--seconds`, rounded, so one pass fills the run. Plan `j`
/// targets app `j % 4`.
fn plan_count(seconds: f64) -> u64 {
    4 * ((seconds / SECONDS_PER_FOUR).round() as u64).max(1)
}
/// Host seconds four plans take on two workers of the reference host.
const SECONDS_PER_FOUR: f64 = 2.0;
/// Plan `j` is `FaultPlan::random(PLAN_SEED + j, ..)`. The plans depend
/// only on `--seconds`, so `fault_retention` is exact; `--seed` only
/// orders them.
const PLAN_SEED: u64 = 1000;

/// The clean Stitch run of one app, which faulted runs must match.
struct Clean {
    fps: f64,
    outputs: Vec<Vec<u32>>,
}

/// Checked results of one pass over the plans.
#[derive(Default)]
struct FaultPass {
    failed: u64,
    digests: BTreeMap<String, u64>,
    retention: Vec<f64>,
    injected: u64,
    demotions: u64,
    cycles: u64,
}

impl FaultPass {
    fn check(
        apps: &[App],
        plans: &[(usize, FaultPlan)],
        clean: &[Clean],
        runs: &[Result<AppRun, Error>],
    ) -> Self {
        let mut pass = FaultPass::default();
        for ((a, plan), r) in plans.iter().zip(runs) {
            let name = format!(
                "{}/plan{}",
                point_name(&apps[*a], Arch::Stitch),
                plan.seed()
            );
            match r {
                Err(e) => {
                    pass.failed += 1;
                    eprintln!("{name}: failed: {e}");
                }
                Ok(run) => {
                    if run.node_outputs != clean[*a].outputs {
                        pass.failed += 1;
                        eprintln!("{name}: node outputs differ from the clean run's");
                    }
                    pass.digests.insert(
                        name,
                        digest::point(&run.plan, run.summary.cycles, &run.node_outputs),
                    );
                    pass.retention.push(run.throughput_fps / clean[*a].fps);
                    pass.injected += run.fault_stats.injected;
                    pass.demotions += run.fault_stats.demotions;
                    pass.cycles += run.summary.cycles;
                }
            }
        }
        pass
    }

    fn compare(&mut self, reference: &BTreeMap<String, u64>, what: &str) {
        for (name, d) in reference {
            if self.digests.get(name) != Some(d) {
                eprintln!("{name}: result differs from the {what}");
                self.failed += 1;
            }
        }
    }
}

/// One untraced pass: every plan through `run_app_faulted`, on `nproc`
/// workers. Each worker is a clone of `ws` (clones share its prepare
/// memo) and owns whole apps, so no two workers prepare the same mask.
fn pass(
    ws: &Workbench,
    apps: &[App],
    plans: &[(usize, FaultPlan)],
) -> (f64, Vec<Result<AppRun, Error>>) {
    let workers = nproc().min(apps.len());
    let clones: Vec<Workbench> = (0..workers).map(|_| ws.clone()).collect();
    let t = Instant::now();
    let mut runs: Vec<Option<Result<AppRun, Error>>> = plans.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = clones
            .into_iter()
            .enumerate()
            .map(|(w, mut ws)| {
                s.spawn(move || {
                    plans
                        .iter()
                        .enumerate()
                        .filter(|(_, (a, _))| a % workers == w)
                        .map(|(i, (a, plan))| {
                            (
                                i,
                                ws.run_app_faulted(&apps[*a], Arch::Stitch, DEFAULT_FRAMES, plan),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("a fault worker panicked") {
                runs[i] = Some(r);
            }
        }
    });
    let wall = secs(t);
    (
        wall,
        runs.into_iter()
            .map(|r| r.expect("every plan ran on its app's worker"))
            .collect(),
    )
}

pub fn fault(args: Args) -> Outcome {
    let mut o = Outcome::default();
    let apps = App::all();
    // Set-up: compile every kernel, then the clean references and the
    // Baseline runs `paper_gap` needs. Their prepared points stay in the
    // workbench's memo, as in a fault campaign that starts from a clean
    // mapping.
    let setup = Clock::start();
    let mut ws = prewarmed(App::all(), None);
    let mut clean = Vec::new();
    let mut speedups = Vec::new();
    for app in &apps {
        let stitch = ws.run_app(app, Arch::Stitch, DEFAULT_FRAMES);
        let baseline = ws.run_app(app, Arch::Baseline, DEFAULT_FRAMES);
        match (stitch, baseline) {
            (Ok(s), Ok(b)) => {
                o.checks_ok &= s.node_outputs == b.node_outputs;
                speedups.push(s.throughput_fps / b.throughput_fps);
                clean.push(Clean {
                    fps: s.throughput_fps,
                    outputs: s.node_outputs,
                });
            }
            (s, b) => {
                return Outcome::not_started(format!(
                    "{}: clean run failed: {:?} {:?}",
                    app.name,
                    s.err(),
                    b.err()
                ));
            }
        }
    }
    let setup_s = setup.cpu_s();

    let space = FaultSpace::default().compute_only();
    let mut plans: Vec<(usize, FaultPlan)> = (0..plan_count(args.seconds))
        .map(|j| ((j % 4) as usize, FaultPlan::random(PLAN_SEED + j, &space)))
        .collect();
    shuffle(&mut plans, args.seed);

    if args.trace {
        fault_traced(args, &mut ws, &apps, &plans, &clean, &mut o);
        return o;
    }

    let clock = Clock::start();
    let (_, runs) = pass(&ws, &apps, &plans);
    let cpu = clock.cpu_s();
    let p = FaultPass::check(&apps, &plans, &clean, &runs);
    o.attempted += plans.len() as u64;
    o.failed += p.failed;
    o.metrics = Metrics::from([
        ("cpu_s", cpu),
        ("setup_s", setup_s),
        ("sim_cycles_per_cpu_s", p.cycles as f64 / cpu),
        ("peak_rss_mb", peak_rss_mb()),
        (
            "paper_gap",
            paper_gap(&[(geomean(&speedups), stitch_paper())]),
        ),
        ("fault_retention", geomean(&p.retention)),
    ]);
    println!(
        "fault_grid: {} plans, {} faults injected, {} demotions",
        plans.len(),
        p.injected,
        p.demotions
    );
    o.digests = p.digests;
    o
}

/// The paper's Fig 12 Stitch geomean.
fn stitch_paper() -> f64 {
    PAPER_FIG12
        .iter()
        .find(|(a, _)| *a == Arch::Stitch)
        .map_or(f64::NAN, |(_, p)| *p)
}

/// `fault_grid`, traced: one untraced pass, then replay passes in which
/// each new mask re-prepares and each plan re-gates and simulates.
fn fault_traced(
    args: Args,
    ws: &mut Workbench,
    apps: &[App],
    plans: &[(usize, FaultPlan)],
    clean: &[Clean],
    o: &mut Outcome,
) {
    // Untimed: the replay's memo starts where the workbench's did, with
    // the clean Stitch point of every app.
    let mut scratch = Ledger::new();
    let seeded = variants_of(ws, apps).and_then(|variants| {
        let clean_points = (0..apps.len())
            .map(|a| {
                let p = replay::prepare(
                    &mut scratch,
                    &variants,
                    &apps[a],
                    Arch::Stitch,
                    DEFAULT_FRAMES,
                    &[],
                )?;
                Ok(((a, Vec::new()), Rc::new(p)))
            })
            .collect::<Result<HashMap<_, _>, Error>>()?;
        Ok((variants, clean_points))
    });
    let (variants, clean_points) = match seeded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("replay set-up: {e}");
            o.checks_ok = false;
            return;
        }
    };
    let (untraced_wall, runs) = pass(ws, apps, plans);
    let reference = FaultPass::check(apps, plans, clean, &runs);
    o.attempted += plans.len() as u64;
    o.failed += reference.failed;

    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let mut l = Ledger::new();
        let mut memo: HashMap<(usize, Vec<TileId>), Rc<Prepared>> = clean_points.clone();
        let mut runs = Vec::new();
        for (a, plan) in plans {
            let app = &apps[*a];
            let key = (*a, plan.failed_patches());
            if !memo.contains_key(&key) {
                l.count("fault.restitches", 1);
                match replay::prepare(&mut l, &variants, app, Arch::Stitch, DEFAULT_FRAMES, &key.1)
                {
                    Ok(p) => {
                        memo.insert(key.clone(), Rc::new(p));
                    }
                    Err(e) => {
                        runs.push(Err(e));
                        continue;
                    }
                }
            }
            runs.push(replay::run(
                &mut l,
                &memo[&key],
                app,
                Arch::Stitch,
                DEFAULT_FRAMES,
                Some(plan),
                None,
                "fault.run",
            ));
        }
        let wall = l.now();
        let mut p = FaultPass::check(apps, plans, clean, &runs);
        p.compare(&reference.digests, "untraced run");
        o.attempted += plans.len() as u64;
        o.failed += p.failed;
        o.checks_ok &= accounts_for_wall(l.spans(), wall, 0.05);
        passes.push((wall, l, p));
        if secs(start) >= args.seconds {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let (wall, l, p) = &passes[median_index(&walls)];
    o.metrics = layers(l, *wall, &SimTally::default());
    o.metrics.extend([
        ("fault.injected", p.injected as f64),
        ("fault.demotions", p.demotions as f64),
        ("trace_overhead_s", wall - untraced_wall),
    ]);
    o.digests = reference.digests;
    println!("fault_grid: {} replay pass(es)", passes.len());
}
