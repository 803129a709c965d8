//! The traced replay: the compile → verify → stitch → simulate pipeline
//! rebuilt from the repository's public calls, one span per call.
//!
//! Each function mirrors one library entry point step for step, so the
//! replay computes exactly what the untraced run computes:
//!
//! | here | mirrors |
//! |---|---|
//! | [`accelerate`] | `stitch_compiler::accelerate_all` |
//! | [`compile`] | `stitch_compiler::compile_kernel` |
//! | [`prepare`] | `Workbench::prepare` without an artifact store |
//! | [`gate`] | the workbench's pre-simulation verify gate |
//! | [`run`] | `Workbench::run_app` after `prepare` |
//!
//! The benchmark checks the mirror: every replayed point's plan, cycles
//! and outputs must equal the untraced run's, or the point fails.

use crate::ledger::Ledger;
use std::collections::HashMap;
use stitch::{AppRun, Error};
use stitch_apps::{build_node_program, App};
use stitch_compiler::{
    enumerate_candidates, map_candidate, profile_program, rewrite_program, select_candidates,
    stitch_application_masked, AcceleratedKernel, AppKernel, BlockDfg, Cfg, Chosen, CompilerError,
    EnumerateLimits, KernelVariants, PatchConfig, StitchPlan, HOT_THRESHOLD,
};
use stitch_isa::Program;
use stitch_kernels::Kernel;
use stitch_mem::TileMemoryConfig;
use stitch_noc::{PatchNet, PortDir};
use stitch_patch::PatchClass;
use stitch_power::average_power_mw;
use stitch_sim::{Arch, Chip, ChipConfig, FaultKind, FaultPlan, TileId, Topology, TraceConfig};
use stitch_verify::{
    check_circuits, check_comm, check_ise, check_plan, check_program, check_routes, AccelView,
    CommEdge, CommNode, ConfigView, PlanView, Report,
};

/// The compiler's cycle budget for profiling and measurement runs.
const MEASURE_BUDGET: u64 = 200_000_000;
/// The workbench's cycle budget for application runs.
const APP_BUDGET: u64 = 4_000_000_000;

/// The workbench's kernel-cache key: kernels with equal keys compile
/// once per process.
pub fn kernel_key(k: &dyn Kernel) -> String {
    let s = k.spec();
    format!("{}/{}x{}", s.name, s.input_words, s.output_words)
}

/// The distinct kernels of `apps`, in the order the workbench's
/// `prewarm` first compiles them.
pub fn distinct_kernels(apps: &[App]) -> Vec<&dyn Kernel> {
    let mut seen = std::collections::HashSet::new();
    apps.iter()
        .flat_map(|a| &a.nodes)
        .map(|n| n.kernel.as_ref())
        .filter(|k| seen.insert(kernel_key(*k)))
        .collect()
}

/// `accelerate_all`, stage by stage.
pub fn accelerate(
    l: &mut Ledger,
    name: &str,
    program: &Program,
    configs: &[PatchConfig],
) -> Result<Vec<AcceleratedKernel>, CompilerError> {
    let profile = l.span("compiler.profile", |_| {
        profile_program(program, MEASURE_BUDGET)
    })?;
    let (cfg, hot, dfgs, candidates) = l.span("compiler.enumerate", |l| {
        let cfg = Cfg::build(program);
        let hot = profile.hot_blocks(&cfg, HOT_THRESHOLD);
        let mut dfgs = HashMap::new();
        let mut candidates = HashMap::new();
        for &b in &hot {
            let dfg = BlockDfg::build(program, &cfg, &cfg.blocks[b]);
            let cands = enumerate_candidates(&dfg, EnumerateLimits::default());
            l.count("compiler.candidates", cands.len());
            candidates.insert(b, cands);
            dfgs.insert(b, dfg);
        }
        (cfg, hot, dfgs, candidates)
    });

    let mut out = Vec::new();
    for &config in configs {
        let mut plans: HashMap<usize, Vec<Chosen>> = HashMap::new();
        for &b in &hot {
            let dfg = &dfgs[&b];
            let mapped: Vec<Chosen> = l.span("compiler.map", |l| {
                candidates[&b]
                    .iter()
                    .filter_map(|c| {
                        l.count("compiler.map_calls", 1);
                        let m = map_candidate(dfg, c, config).or_else(|| match config {
                            PatchConfig::Pair(c1, _) => {
                                l.count("compiler.map_calls", 1);
                                map_candidate(dfg, c, PatchConfig::Single(c1))
                            }
                            _ => None,
                        })?;
                        Some(Chosen {
                            candidate: c.clone(),
                            mapping: m,
                        })
                    })
                    .collect()
            });
            let chosen = l.span("compiler.rewrite", |_| select_candidates(dfg, mapped));
            plans.insert(b, chosen);
        }
        if plans.values().all(Vec::is_empty) {
            continue;
        }
        let rewritten = l.span("compiler.rewrite", |_| {
            rewrite_program(program, &cfg, &dfgs, &plans, name)
        })?;
        if rewritten.custom_count == 0 {
            continue;
        }
        let mut report = l.span("verify.lint", |_| check_program(&rewritten.program));
        for check in &rewritten.ise_checks {
            l.count("verify.ise_obligations", 1);
            l.note("verify.ise_distinct", crate::digest::ise_key(check));
            report.merge(l.span("verify.ise", |_| check_ise(check)));
        }
        if !report.is_clean() {
            return Err(CompilerError::Verify(report));
        }
        out.push(AcceleratedKernel {
            config,
            program: rewritten.program,
            ci_controls: rewritten.ci_controls,
            custom_count: rewritten.custom_count,
            cycles: 0,
            ise_checks: rewritten.ise_checks,
        });
    }
    Ok(out)
}

/// The compiler's single-tile measurement chip for a configuration.
fn measurement_chip(config: Option<PatchConfig>) -> ChipConfig {
    let mut patches = vec![None; 16];
    let tile_mem = match config {
        None => return ChipConfig::baseline_16(),
        Some(PatchConfig::Locus) => {
            patches = vec![Some(PatchClass::LocusSfu); 16];
            TileMemoryConfig::baseline()
        }
        Some(PatchConfig::Single(c)) => {
            patches[0] = Some(c);
            TileMemoryConfig::stitch()
        }
        Some(PatchConfig::Pair(c1, c2)) => {
            patches[0] = Some(c1);
            patches[1] = Some(c2);
            TileMemoryConfig::stitch()
        }
    };
    ChipConfig {
        topo: Topology::stitch_4x4(),
        tile_mem,
        patches,
    }
}

/// Runs the unmodified program (`variant == None`) or an accelerated
/// variant standalone on tile 0; returns cycles and the output region.
fn measure(
    program: &Program,
    variant: Option<&AcceleratedKernel>,
    output: Option<(u32, usize)>,
) -> Result<(u64, Vec<u32>), CompilerError> {
    let mut chip = Chip::new(measurement_chip(variant.map(|v| v.config)));
    let err = |e: &dyn std::fmt::Display| CompilerError::Rewrite(format!("measurement: {e}"));
    match variant {
        None => chip.load_program(TileId(0), program).map_err(|e| err(&e))?,
        Some(v) => {
            let fused = matches!(v.config, PatchConfig::Pair(..));
            if fused {
                chip.reserve_circuit(TileId(0), TileId(1))
                    .map_err(|e| err(&e))?;
            }
            chip.load_kernel(
                TileId(0),
                &v.program,
                v.bindings(fused.then_some(TileId(1)))?,
            )
            .map_err(|e| err(&e))?;
        }
    }
    let summary = chip.run(MEASURE_BUDGET).map_err(|e| err(&e))?;
    let out = output.map_or_else(Vec::new, |(a, n)| chip.peek_words(TileId(0), a, n));
    Ok((summary.cycles, out))
}

/// `compile_kernel`, stage by stage, for every patch configuration.
pub fn compile(l: &mut Ledger, kernel: &dyn Kernel) -> Result<KernelVariants, Error> {
    let spec = kernel.spec();
    let program = l.span("apps.build", |_| kernel.standalone())?;
    let output = Some((spec.output_addr, spec.output_words as usize));
    l.span("compiler.compile", |l| {
        let baseline_report = l.span("verify.lint", |_| check_program(&program));
        if !baseline_report.is_clean() {
            return Err(CompilerError::Verify(baseline_report).into());
        }
        let accel = accelerate(l, spec.name, &program, &PatchConfig::all())?;
        let (baseline_cycles, expected) =
            l.span("compiler.measure", |_| measure(&program, None, output))?;
        let mut variants = Vec::new();
        for mut a in accel {
            let (cycles, got) =
                l.span("compiler.measure", |_| measure(&program, Some(&a), output))?;
            if got != expected {
                return Err(CompilerError::Rewrite(format!(
                    "{}/{}: accelerated output differs from baseline",
                    spec.name, a.config
                ))
                .into());
            }
            a.cycles = cycles;
            variants.push(a);
        }
        l.count("compiler.variants", variants.len());
        Ok(KernelVariants {
            name: spec.name.to_string(),
            baseline: program.clone(),
            baseline_cycles,
            variants,
        })
    })
}

/// One node's executable artifact, as the workbench loads it.
pub struct NodeLoad {
    pub program: Program,
    pub accel: Option<(AcceleratedKernel, Option<TileId>)>,
}

/// A prepared point: the stitch plan, every node's program, and the
/// fault-free gate report.
pub struct Prepared {
    pub cfg: ChipConfig,
    pub plan: StitchPlan,
    pub loads: Vec<NodeLoad>,
    pub report: Report,
}

/// `Workbench::prepare`: Algorithm 1 with `mask` patches dead, node
/// program assembly, node acceleration, and the fault-free gate.
/// `variants` maps [`kernel_key`] to compiled kernels.
pub fn prepare(
    l: &mut Ledger,
    variants: &HashMap<String, KernelVariants>,
    app: &App,
    arch: Arch,
    frames: u32,
    mask: &[TileId],
) -> Result<Prepared, Error> {
    l.span("stitch.prepare", |l| {
        let app_kernels: Vec<AppKernel> = app
            .nodes
            .iter()
            .map(|n| {
                let key = kernel_key(n.kernel.as_ref());
                let kv = variants.get(&key).ok_or_else(|| {
                    CompilerError::invariant(format!("kernel {key} was not compiled"))
                })?;
                Ok(AppKernel {
                    name: n.name.clone(),
                    home: n.home,
                    variants: kv.clone(),
                })
            })
            .collect::<Result<_, Error>>()?;
        let cfg = ChipConfig::for_arch(arch);
        let plan = l.span("compiler.stitcher", |_| {
            stitch_application_masked(&app_kernels, &cfg, arch, mask)
        });
        let mut loads = Vec::new();
        for i in 0..app.nodes.len() {
            let program = l.span("apps.build", |_| {
                build_node_program(app, i, frames, &plan.tiles)
            })?;
            let accel = match &plan.accel[i] {
                None => None,
                Some(granted) => l
                    .span("compiler.node_accel", |l| {
                        accelerate(l, &app.nodes[i].name, &program, &[granted.config])
                    })?
                    .into_iter()
                    .next()
                    .map(|a| (a, granted.partner)),
            };
            loads.push(NodeLoad { program, accel });
        }
        let report = gate(l, app, &cfg, &plan, None, &loads);
        Ok(Prepared {
            cfg,
            plan,
            loads,
            report,
        })
    })
}

/// The pre-simulation gate: plan legality, circuit integrity, the
/// communication graph and routes under `fault`'s dead links, and the
/// lints of every unaccelerated node program.
pub fn gate(
    l: &mut Ledger,
    app: &App,
    cfg: &ChipConfig,
    plan: &StitchPlan,
    fault: Option<&FaultPlan>,
    loads: &[NodeLoad],
) -> Report {
    let mut report = l.span("verify.gate", |_| {
        let mut report = Report::new();
        let view = PlanView {
            tiles: plan.tiles.clone(),
            accel: plan
                .accel
                .iter()
                .map(|a| {
                    a.as_ref().map(|g| AccelView {
                        config: match g.config {
                            PatchConfig::Single(c) => ConfigView::Single(c),
                            PatchConfig::Pair(c1, c2) => ConfigView::Pair(c1, c2),
                            PatchConfig::Locus => ConfigView::Locus,
                        },
                        partner: g.partner,
                        hops: g.hops,
                    })
                })
                .collect(),
            circuits: plan.circuits.clone(),
        };
        report.merge(check_plan(cfg.topo, &cfg.patches, &view));
        let mut net = PatchNet::new(cfg.topo);
        for &(from, to) in &plan.circuits {
            let _ = net.reserve(from, to);
        }
        report.merge(check_circuits(&net, &plan.circuits));
        let edges = |es: &[stitch_apps::Edge]| {
            es.iter()
                .map(|e| CommEdge {
                    peer: e.peer,
                    words: e.words,
                })
                .collect()
        };
        let nodes: Vec<CommNode> = app
            .nodes
            .iter()
            .map(|n| CommNode {
                sends: edges(&n.sends),
                recvs: edges(&n.recvs),
            })
            .collect();
        report.merge(check_comm(&nodes));
        let dead: Vec<(TileId, PortDir)> = fault
            .map(|fp| {
                fp.events()
                    .iter()
                    .filter(|e| e.cycle == 0)
                    .filter_map(|e| match e.kind {
                        FaultKind::MeshLinkFail {
                            tile,
                            dir,
                            until: None,
                        } => Some((tile, dir)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        report.merge(check_routes(cfg.topo, &plan.tiles, &nodes, &dead));
        report
    });
    for load in loads.iter().filter(|n| n.accel.is_none()) {
        report.merge(l.span("verify.lint", |_| check_program(&load.program)));
    }
    report
}

/// `Workbench::run_app` on a prepared point: gate (re-run against the
/// fault plan's dead links when there is one), load the chip, simulate.
/// The simulation span is named `run_span`, so callers can tell
/// plain, faulted and traced runs apart.
#[allow(clippy::too_many_arguments)] // one argument per workbench setting
pub fn run(
    l: &mut Ledger,
    prep: &Prepared,
    app: &App,
    arch: Arch,
    frames: u32,
    fault: Option<&FaultPlan>,
    trace: Option<&TraceConfig>,
    run_span: &'static str,
) -> Result<AppRun, Error> {
    let report = match fault {
        None => prep.report.clone(),
        Some(_) => gate(l, app, &prep.cfg, &prep.plan, fault, &prep.loads),
    };
    if !report.is_clean() {
        return Err(Error::Verify(report));
    }
    let mut chip = l.span("sim.load", |_| -> Result<Chip, Error> {
        let mut chip = Chip::new(prep.cfg.clone());
        if let Some(tc) = trace {
            chip.set_trace(tc);
        }
        if let Some(fp) = fault {
            chip.set_fault_plan(fp.clone());
        }
        for &(from, to) in &prep.plan.circuits {
            chip.reserve_circuit(from, to)?;
        }
        for (i, load) in prep.loads.iter().enumerate() {
            match &load.accel {
                Some((a, partner)) => {
                    chip.load_kernel(prep.plan.tiles[i], &a.program, a.bindings(*partner)?)?;
                }
                None => chip.load_program(prep.plan.tiles[i], &load.program)?,
            }
        }
        Ok(chip)
    })?;
    let summary = l.span(run_span, |_| chip.run(APP_BUDGET))?;
    let throughput_fps = if summary.cycles == 0 {
        0.0
    } else {
        f64::from(frames) / summary.seconds()
    };
    let node_outputs = app
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let spec = n.kernel.spec();
            chip.peek_words(
                prep.plan.tiles[i],
                spec.output_addr,
                spec.output_words as usize,
            )
        })
        .collect();
    Ok(AppRun {
        app_name: app.name,
        arch,
        frames,
        power_mw: average_power_mw(arch, &summary),
        summary,
        plan: prep.plan.clone(),
        throughput_fps,
        node_outputs,
        skipped_cycles: chip.skipped_cycles(),
        translation: chip.translation_stats(),
        fault_stats: chip.fault_stats(),
        trace: chip.take_trace(),
    })
}
