//! The experiment workbench: compile → stitch → simulate → measure.

use crate::artifact::{app_input_key, decode_prepared, encode_prepared, program_digest};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use stitch_apps::{build_node_program, build_placement_free_program, App};
use stitch_cache::ArtifactStore;
use stitch_compiler::{
    accelerate_all, accelerate_profiled, compile_kernel, decode_kernel_artifact,
    encode_kernel_artifact, kernel_input_key, profile_program, seed_verify_memo,
    stitch_application_masked, verify_kernel, AcceleratedKernel, AppKernel, CompilerError,
    KernelVariants, PatchConfig, ProfileReport, StitchPlan, MEASURE_BUDGET,
};
use stitch_isa::Program;
use stitch_kernels::Kernel;
use stitch_noc::{PatchNet, PortDir, TileId};
use stitch_power::{average_power_mw, PowerBreakdown};
use stitch_sim::{
    Arch, Chip, ChipConfig, FaultKind, FaultPlan, FaultStats, RunBudget, RunSummary, SimError,
    TraceCapture, TraceConfig, TranslationStats,
};
use stitch_verify::{
    check_circuits, check_comm, check_plan, check_program, check_routes, AccelView, CommEdge,
    CommNode, ConfigView, PlanView, Report,
};

/// Simulation budget for application runs.
const APP_BUDGET: u64 = 4_000_000_000;

/// Facade error type.
#[derive(Debug)]
pub enum Error {
    /// Compiler-flow failure.
    Compiler(CompilerError),
    /// Simulator failure.
    Sim(SimError),
    /// Program assembly failure (kernel/node program construction).
    Program(stitch_isa::IsaError),
    /// The pre-simulation static verifier rejected the run: the stitch
    /// plan, a reserved circuit, the communication graph, or a node
    /// program failed a `stitch-verify` check. The report carries the
    /// individual diagnostics.
    Verify(Report),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compiler(e) => write!(f, "{e}"),
            Error::Sim(e) => write!(f, "{e}"),
            Error::Program(e) => write!(f, "program assembly: {e}"),
            Error::Verify(r) => write!(
                f,
                "static verification rejected the run ({} error(s)):\n{r}",
                r.error_count()
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<CompilerError> for Error {
    fn from(e: CompilerError) -> Self {
        Error::Compiler(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<stitch_isa::IsaError> for Error {
    fn from(e: stitch_isa::IsaError) -> Self {
        Error::Program(e)
    }
}

/// Result of one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// `APP1`..`APP4`.
    pub app_name: &'static str,
    /// Architecture simulated.
    pub arch: Arch,
    /// Frames processed.
    pub frames: u32,
    /// Chip statistics.
    pub summary: RunSummary,
    /// The stitching plan used.
    pub plan: StitchPlan,
    /// Steady-state throughput in frames per second (200 MHz clock).
    pub throughput_fps: f64,
    /// Average chip power (model), mW.
    pub power_mw: f64,
    /// Final output region of every node (for cross-architecture
    /// differential checks): `outputs[i]` is node i's
    /// `spec().output_words` words at `spec().output_addr`.
    pub node_outputs: Vec<Vec<u32>>,
    /// Cycles the event-driven fast path elided (0 on the reference
    /// engine) — a diagnostic, deliberately outside `summary`.
    pub skipped_cycles: u64,
    /// Translated-engine counters (all zero on the reference engine) —
    /// like `skipped_cycles`, a diagnostic outside `summary`.
    pub translation: TranslationStats,
    /// Fault-handling counters (all zero on a fault-free run).
    pub fault_stats: FaultStats,
    /// Captured event stream, when the workbench had tracing enabled
    /// (see [`Workbench::set_trace`]). The windowed metrics live in
    /// `summary.windows`.
    pub trace: Option<TraceCapture>,
}

impl AppRun {
    /// Power breakdown of this run.
    #[must_use]
    pub fn power_breakdown(&self) -> PowerBreakdown {
        PowerBreakdown::for_run(self.arch, &self.summary)
    }
}

/// A row of the Fig 11 kernel-speedup table.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Baseline cycles.
    pub baseline_cycles: u64,
    /// LOCUS SFU speedup (1.0 when no variant exists).
    pub locus: f64,
    /// Best single-patch speedup and its class.
    pub single: f64,
    /// Configuration achieving `single`.
    pub single_config: Option<PatchConfig>,
    /// Best stitched (fused pair) speedup.
    pub stitched: f64,
    /// Configuration achieving `stitched`.
    pub stitched_config: Option<PatchConfig>,
}

/// One (app, arch) point of a [`Workbench::sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Index into the app slice handed to `sweep`.
    pub app: usize,
    /// Architecture to simulate.
    pub arch: Arch,
}

/// Which simulator loop drives [`Workbench::run_app`].
///
/// Both produce bit-identical [`RunSummary`]s; `Reference` exists for
/// equivalence testing and as the performance baseline in
/// `perf_report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Event-driven fast path ([`Chip::run`]).
    #[default]
    EventDriven,
    /// Naive cycle-by-cycle loop ([`Chip::run_reference`]).
    Reference,
}

/// Compiles kernels (with caching), runs the stitching algorithm and the
/// chip simulator.
///
/// Every clone of a workbench shares one memo of compiled kernels,
/// prepared apps, node profiles and node accelerations, so the worker
/// clones of a threaded sweep or kernel table compile and stitch each
/// input once between them.
#[derive(Default, Clone)]
pub struct Workbench {
    memo: Arc<Memo>,
    /// Persistent verified-artifact store; when set, compiled kernels
    /// and prepared apps are reloaded across processes (see
    /// [`Workbench::set_artifact_store`]).
    artifacts: Option<Arc<ArtifactStore>>,
    engine: SimEngine,
    trace: Option<TraceConfig>,
    budget: RunBudget,
}

/// The in-memory tier of [`Workbench::variants`] and
/// [`Workbench::prepare`], shared by every clone of a workbench.
///
/// `profiles` and `nodes` are the two tiers below `prepared`, so a new
/// failed-patch mask re-places its nodes without re-profiling them.
/// They have no store tier: a stored prepared point skips them whole.
#[derive(Default)]
struct Memo {
    kernels: Mutex<HashMap<String, Arc<KernelVariants>>>,
    prepared: Mutex<HashMap<PrepKey, Arc<Prepared>>>,
    /// Profiles of placement-free node programs
    /// ([`build_placement_free_program`]), by [`program_digest`].
    profiles: Mutex<HashMap<[u8; 32], Arc<ProfileReport>>>,
    /// One acceleration per wired node (see [`NodeKey`]); `None` when
    /// the granted configuration found no candidate.
    nodes: Mutex<HashMap<NodeKey, Option<Arc<AcceleratedKernel>>>>,
}

/// Everything one node's acceleration reads: the node name (it labels
/// the CI descriptors), the granted configuration and the
/// [`program_digest`] of the wired program. Sibling nodes with equal
/// programs still accelerate once each.
type NodeKey = (String, PatchConfig, [u8; 32]);

/// Identity of one compile→stitch pipeline output: everything
/// [`Workbench::prepare`] reads besides the (immutable) app definition
/// and the kernel-variant cache. Fault plans enter only through the
/// permanently-failed-patch mask, which is exactly what the stitcher
/// consumes.
type PrepKey = (&'static str, Arch, u32, Vec<TileId>);

/// Memoized output of [`Workbench::prepare`] plus the fault-free static
/// verification report over those artifacts. Stored behind an `Arc` that
/// all workbench clones share, so sweep workers and repeated runs of the
/// same (app, arch, frames, mask) point skip the whole pipeline.
struct Prepared {
    plan: StitchPlan,
    loads: Vec<NodeLoad>,
    /// `verify_run` with no fault plan. Runs carrying a fault plan
    /// re-verify against its dead-link set instead of using this.
    clean_report: Report,
}

impl Workbench {
    /// Creates an empty workbench.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the simulator loop used by subsequent runs (clones made by
    /// the sweep harness inherit it).
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.engine = engine;
    }

    /// Installs hard resource caps for subsequent runs (see
    /// [`RunBudget`]): the sandbox for untrusted guest programs.
    /// Exceeding a cap fails the run with the typed
    /// `SimError::BudgetExhausted` instead of a wall-clock kill, on
    /// either engine at the identical cycle. The default is unlimited.
    /// Sweep-worker clones inherit the setting.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// Attaches a persistent [`ArtifactStore`]: compiled kernel
    /// variants and fully prepared apps are written to it (keyed by a
    /// SHA-256 content hash over their *inputs* plus the verifier
    /// version) and reloaded on later runs — including by other
    /// processes — so warm sweeps skip the compile + verify pipeline
    /// entirely. A reloaded empty verify report also marks the
    /// kernel's ISE obligations proven in this process. Sweep-worker
    /// clones share the store (and its
    /// hit/miss counters) through the `Arc`.
    ///
    /// The store is a cache, never an oracle: any invalid file reads
    /// as absent and the live pipeline runs instead.
    pub fn set_artifact_store(&mut self, store: Arc<ArtifactStore>) {
        self.artifacts = Some(store);
    }

    /// The attached artifact store, if any.
    #[must_use]
    pub fn artifact_store(&self) -> Option<&Arc<ArtifactStore>> {
        self.artifacts.as_ref()
    }

    /// Enables event tracing for subsequent runs (`None` disables it).
    /// Each run gets a fresh tracer per the config; the captured stream
    /// comes back in [`AppRun::trace`] and the windowed metrics in
    /// `summary.windows`. Sweep-worker clones inherit the setting.
    pub fn set_trace(&mut self, cfg: Option<TraceConfig>) {
        self.trace = cfg;
    }

    fn cache_key(kernel: &dyn Kernel) -> String {
        let s = kernel.spec();
        format!("{}/{}x{}", s.name, s.input_words, s.output_words)
    }

    /// Compiled variants for one kernel (cached).
    ///
    /// # Errors
    ///
    /// Propagates compiler failures.
    pub fn variants(&mut self, kernel: &dyn Kernel) -> Result<KernelVariants, Error> {
        let spec = kernel.spec();
        let output_check = Some((spec.output_addr, spec.output_words as usize));
        let standalone = OnceCell::new();
        let program = || standalone.get_or_init(|| kernel.standalone());
        let kv = memoized(
            &self.memo.kernels,
            Self::cache_key(kernel),
            self.artifacts.as_deref(),
            // A stored artifact under the input key *is* the output of
            // this exact compile (same program bytes, config list, output
            // check, verifier version) together with the clean report
            // that admitted it, so a valid hit skips compilation, cycle
            // measurement, and verification in one step.
            || {
                let program = program().as_ref().ok()?;
                kernel_input_key(spec.name, program, &PatchConfig::all(), output_check)
            },
            |payload| {
                let (kv, report) = decode_kernel_artifact(payload)?;
                (report.is_clean() && kv.name == spec.name).then(|| {
                    seed_verify_memo(&kv, report);
                    Arc::new(kv)
                })
            },
            || {
                let program = program().as_ref().map_err(Clone::clone)?;
                let kv = compile_kernel(spec.name, program, &PatchConfig::all(), output_check)?;
                Ok(Arc::new(kv))
            },
            |kv| {
                let report = verify_kernel(kv);
                report
                    .is_clean()
                    .then(|| encode_kernel_artifact(kv, &report))?
            },
        )?;
        Ok(KernelVariants::clone(&kv))
    }

    fn kernel_row(kernel: &dyn Kernel, kv: &KernelVariants) -> KernelRow {
        let speed = |v: Option<&stitch_compiler::AcceleratedKernel>| {
            v.map_or(1.0, |v| kv.baseline_cycles as f64 / v.cycles as f64)
        };
        let single = kv.best_among(|c| matches!(c, PatchConfig::Single(_)));
        let stitched =
            kv.best_among(|c| matches!(c, PatchConfig::Single(_) | PatchConfig::Pair(..)));
        KernelRow {
            name: kernel.spec().name.to_string(),
            baseline_cycles: kv.baseline_cycles,
            locus: speed(
                kv.variant(PatchConfig::Locus)
                    .filter(|v| v.cycles < kv.baseline_cycles),
            ),
            single: speed(single),
            single_config: single.map(|v| v.config),
            stitched: speed(stitched),
            stitched_config: stitched.map(|v| v.config),
        }
    }

    /// The Fig 11 table: per-kernel speedups for LOCUS / best single /
    /// best stitched.
    ///
    /// # Errors
    ///
    /// Propagates compiler failures.
    pub fn kernel_table(&mut self, kernels: &[Box<dyn Kernel>]) -> Result<Vec<KernelRow>, Error> {
        self.kernel_table_threaded(kernels, 1)
    }

    /// [`Workbench::kernel_table`] with per-kernel compilation fanned out
    /// over `threads` OS threads (`0` = one per hardware thread). Row
    /// order matches `kernels`; the workers' clones compile into the
    /// memo this workbench shares with them.
    ///
    /// # Errors
    ///
    /// Propagates compiler failures.
    pub fn kernel_table_threaded(
        &mut self,
        kernels: &[Box<dyn Kernel>],
        threads: usize,
    ) -> Result<Vec<KernelRow>, Error> {
        self.pool(kernels.len(), threads, |ws, i| {
            let k = kernels[i].as_ref();
            Ok(Self::kernel_row(k, &ws.variants(k)?))
        })
        .into_iter()
        .collect()
    }

    /// Runs one application on one architecture for `frames` frames.
    ///
    /// The full flow of the paper: compile each distinct kernel for every
    /// patch configuration, run Algorithm 1 to place kernels and allocate
    /// patches/circuits, accelerate each node's wired program with its
    /// granted configuration, load the chip and simulate to completion.
    ///
    /// # Errors
    ///
    /// Propagates compiler and simulator failures.
    pub fn run_app(&mut self, app: &App, arch: Arch, frames: u32) -> Result<AppRun, Error> {
        self.run_app_inner(app, arch, frames, None)
    }

    /// [`Workbench::run_app`] with an injected [`FaultPlan`].
    ///
    /// Models the full degradation ladder: permanently failed patches are
    /// masked out of the stitching re-run (the recovery mapping routes
    /// acceleration around them, falling back from fused pair to single
    /// patch to software), and the remaining plan — transient faults,
    /// switch failures, config upsets, link faults — is installed on the
    /// chip for the runtime mechanisms (demotion, watchdog, scrub,
    /// fault-aware routing) to handle as the run unfolds.
    ///
    /// # Errors
    ///
    /// Propagates compiler and simulator failures, including the typed
    /// `SimError::Faulted` for wedged networks or strict-mode plans.
    pub fn run_app_faulted(
        &mut self,
        app: &App,
        arch: Arch,
        frames: u32,
        fault_plan: &FaultPlan,
    ) -> Result<AppRun, Error> {
        self.run_app_inner(app, arch, frames, Some(fault_plan))
    }

    /// Steps 1–3 of the run pipeline: compile kernel variants, run
    /// Algorithm 1 (with permanently dead patches masked out), and
    /// build every per-node program the chip would execute,
    /// accelerating where the plan grants it.
    ///
    /// The result is memoized in the memo every clone of this workbench
    /// shares: the pipeline is a pure function of the key (app, arch,
    /// frames, failed-patch mask), so repeated sweep points — and all
    /// sixteen workers of a grid sweep — compile and stitch each point
    /// once. The fault-free verification report is memoized alongside
    /// (it depends only on the same key). With an artifact store
    /// attached, a stored prepared-app bundle under the input key
    /// replaces the whole pipeline, so the memo persists across
    /// processes.
    fn prepare(
        &mut self,
        app: &App,
        arch: Arch,
        frames: u32,
        fault_plan: Option<&FaultPlan>,
    ) -> Result<Arc<Prepared>, Error> {
        // Already sorted and deduped, so it is a canonical cache key.
        let masked = fault_plan
            .map(FaultPlan::failed_patches)
            .unwrap_or_default();
        let (memo, store) = (Arc::clone(&self.memo), self.artifacts.clone());
        memoized(
            &memo.prepared,
            (app.name, arch, frames, masked.clone()),
            store.as_deref(),
            || app_input_key(app, arch, frames, &masked),
            |payload| {
                let (plan, loads, clean_report) = decode_prepared(payload)?;
                let fits = plan.tiles.len() == app.nodes.len() && loads.len() == app.nodes.len();
                fits.then(|| {
                    Arc::new(Prepared {
                        plan,
                        loads,
                        clean_report,
                    })
                })
            },
            || {
                self.build_prepared(app, arch, frames, &masked)
                    .map(Arc::new)
            },
            // Only verified-clean bundles become artifacts: a reloaded
            // bundle substitutes for the live verify gate.
            |p| {
                let clean = p.clean_report.is_clean();
                clean.then(|| encode_prepared(&p.plan, &p.loads, &p.clean_report))?
            },
        )
    }

    /// The live compile→stitch→wire→verify pipeline behind
    /// [`Workbench::prepare`].
    fn build_prepared(
        &mut self,
        app: &App,
        arch: Arch,
        frames: u32,
        masked: &[TileId],
    ) -> Result<Prepared, Error> {
        // 1. Variants for each node's kernel (cached across nodes/archs).
        let mut app_kernels = Vec::new();
        for n in &app.nodes {
            app_kernels.push(AppKernel {
                name: n.name.clone(),
                home: n.home,
                variants: self.variants(n.kernel.as_ref())?,
            });
        }

        // 2. Algorithm 1, with permanently dead patches masked out.
        let chip_cfg = ChipConfig::for_arch(arch);
        let plan = stitch_application_masked(&app_kernels, &chip_cfg, arch, masked);

        // 3. Build every per-node program the chip will execute.
        let mut loads: Vec<NodeLoad> = Vec::new();
        for i in 0..app.nodes.len() {
            let program = build_node_program(app, i, frames, &plan.tiles)?;
            let accel = match &plan.accel[i] {
                None => None,
                Some(granted) => self
                    .accelerate_node(app, i, frames, &program, granted.config)?
                    .map(|a| (a, granted.partner)),
            };
            loads.push(NodeLoad { program, accel });
        }
        let clean_report = verify_run(app, &chip_cfg, &plan, None, &loads);
        Ok(Prepared {
            plan,
            loads,
            clean_report,
        })
    }

    /// Node `node`'s wired `program` accelerated for its granted
    /// `config`: exactly `accelerate_all(name, program, &[config])`'s
    /// first variant, or `None` when the wired program exposed no
    /// candidate for the configuration (the node then runs
    /// unaccelerated).
    ///
    /// Memoized per wired node, and profiled once per placement-free
    /// program: a re-stitch that re-wires a node (it or a peer moved)
    /// reuses its profile, and one that leaves its wiring unchanged
    /// reuses its acceleration.
    fn accelerate_node(
        &self,
        app: &App,
        node: usize,
        frames: u32,
        program: &Program,
        config: PatchConfig,
    ) -> Result<Option<Arc<AcceleratedKernel>>, Error> {
        let name = &app.nodes[node].name;
        let free = build_placement_free_program(app, node, frames)?;
        let (Some(free_key), Some(wired_key)) = (program_digest(&free), program_digest(program))
        else {
            // A program the codec cannot encode has no digest, so it
            // bypasses the tiers.
            let accel = accelerate_all(name, program, &[config])?;
            return Ok(accel.into_iter().next().map(Arc::new));
        };
        in_memory(&self.memo.nodes, (name.clone(), config, wired_key), || {
            let profile = in_memory(&self.memo.profiles, free_key, || {
                Ok(Arc::new(profile_program(&free, MEASURE_BUDGET)?))
            })?;
            let accel = accelerate_profiled(name, program, &profile, &[config])?;
            Ok(accel.into_iter().next().map(Arc::new))
        })
    }

    /// Runs the full compile→stitch pipeline for one (app, arch) point
    /// and returns the static verifier's report *without* simulating.
    ///
    /// This is the report the pre-simulation gate inside
    /// [`Workbench::run_app`] acts on: a clean report here is exactly
    /// the condition under which the run would be admitted to the
    /// simulator.
    ///
    /// # Errors
    ///
    /// Propagates compiler and program-assembly failures (the stages
    /// that produce the artifacts under verification).
    pub fn verify_app(&mut self, app: &App, arch: Arch, frames: u32) -> Result<Report, Error> {
        Ok(self.prepare(app, arch, frames, None)?.clean_report.clone())
    }

    fn run_app_inner(
        &mut self,
        app: &App,
        arch: Arch,
        frames: u32,
        fault_plan: Option<&FaultPlan>,
    ) -> Result<AppRun, Error> {
        let prep = self.prepare(app, arch, frames, fault_plan)?;
        let chip_cfg = ChipConfig::for_arch(arch);
        let Prepared {
            ref plan,
            ref loads,
            ref clean_report,
        } = *prep;

        // Static verification gate: plan legality, circuit integrity,
        // the communication graph, route reachability under the fault
        // mask, and W32 lints — all proven before the chip exists.
        // Fault-free runs reuse the memoized report; a fault plan
        // contributes a dead-link set to `check_routes`, so those runs
        // re-verify against it.
        let report = match fault_plan {
            None => clean_report.clone(),
            Some(_) => verify_run(app, &chip_cfg, plan, fault_plan, loads),
        };
        if !report.is_clean() {
            return Err(Error::Verify(report));
        }

        // 4. Load the verified artifacts onto the chip.
        let mut chip = Chip::new(chip_cfg);
        // Tracing starts before circuit reservation so stitch-time
        // `CircuitReserve` events are part of the stream.
        if let Some(tc) = &self.trace {
            chip.set_trace(tc);
        }
        if self.budget != RunBudget::unlimited() {
            chip.set_budget(self.budget);
        }
        if let Some(fp) = fault_plan {
            chip.set_fault_plan(fp.clone());
        }
        for &(from, to) in &plan.circuits {
            chip.reserve_circuit(from, to)?;
        }
        for (i, load) in loads.iter().enumerate() {
            match &load.accel {
                Some((a, partner)) => {
                    chip.load_kernel(plan.tiles[i], &a.program, a.bindings(*partner)?)?;
                }
                None => chip.load_program(plan.tiles[i], &load.program)?,
            }
        }

        // 5. Simulate.
        let summary = match self.engine {
            SimEngine::EventDriven => chip.run(APP_BUDGET)?,
            SimEngine::Reference => chip.run_reference(APP_BUDGET)?,
        };
        let throughput_fps = if summary.cycles == 0 {
            0.0
        } else {
            f64::from(frames) / summary.seconds()
        };
        let power_mw = average_power_mw(arch, &summary);
        let node_outputs = (0..app.nodes.len())
            .map(|i| {
                let spec = app.nodes[i].kernel.spec();
                chip.peek_words(plan.tiles[i], spec.output_addr, spec.output_words as usize)
            })
            .collect();
        Ok(AppRun {
            app_name: app.name,
            arch,
            frames,
            summary,
            plan: plan.clone(),
            throughput_fps,
            power_mw,
            skipped_cycles: chip.skipped_cycles(),
            translation: chip.translation_stats(),
            fault_stats: chip.fault_stats(),
            node_outputs,
            trace: chip.take_trace(),
        })
    }

    /// Worker-thread count used by the sweep entry points when callers
    /// pass `0`: one per available hardware thread.
    #[must_use]
    pub fn default_threads() -> usize {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }

    /// The worker-pool width [`Workbench::sweep`] actually uses for
    /// `threads` requested workers over `points` sweep points (`0` =
    /// one per hardware thread; never wider than the point count).
    /// Exposed so reports can record the real pool width rather than
    /// the requested one.
    #[must_use]
    pub fn sweep_workers(threads: usize, points: usize) -> usize {
        let t = if threads == 0 {
            Self::default_threads()
        } else {
            threads
        };
        t.min(points).max(1)
    }

    /// Compiles the variants of every kernel appearing in `apps` so that
    /// sweep workers start from a warm, read-only cache. Compile errors
    /// are left for the affected sweep points to report individually.
    pub fn prewarm(&mut self, apps: &[App]) {
        for app in apps {
            for n in &app.nodes {
                let _ = self.variants(n.kernel.as_ref());
            }
        }
    }

    /// Every architecture × every app, as sweep points grouped by app,
    /// each app's points in `Arch::ALL` order.
    #[must_use]
    pub fn full_grid(apps: &[App]) -> Vec<SweepPoint> {
        (0..apps.len())
            .flat_map(|app| Arch::ALL.iter().map(move |&arch| SweepPoint { app, arch }))
            .collect()
    }

    /// Runs every sweep point across `threads` OS threads (`0` = one per
    /// hardware thread), returning results in `points` order regardless
    /// of completion order.
    ///
    /// Every kernel is compiled up front, sequentially, so the workers
    /// start from a warm memo; each worker owns a clone of this
    /// workbench and the clones share that memo, taking its locks only
    /// to look up or insert. Each point is an independent
    /// compile→stitch→simulate pipeline, so results are identical to
    /// running the points sequentially.
    pub fn sweep(
        &mut self,
        apps: &[App],
        points: &[SweepPoint],
        frames: u32,
        threads: usize,
    ) -> Vec<Result<AppRun, Error>> {
        if points.is_empty() {
            return Vec::new();
        }
        self.prewarm(apps);
        self.pool(points.len(), threads, |ws, i| {
            let p = points[i];
            ws.run_app(&apps[p.app], p.arch, frames)
        })
    }

    /// The one worker pool: runs `job(ws, i)` for every `i < n` on
    /// [`Workbench::sweep_workers`]`(threads, n)` workers and returns
    /// the results in index order regardless of completion order.
    /// Workers claim indices from a shared atomic counter, each on its
    /// own clone of this workbench. A single worker runs inline on
    /// `self`: spawning a thread just to feed it through a channel
    /// gains nothing.
    fn pool<T: Send>(
        &mut self,
        n: usize,
        threads: usize,
        job: impl Fn(&mut Self, usize) -> T + Sync,
    ) -> Vec<T> {
        let workers = Self::sweep_workers(threads, n);
        if workers == 1 {
            return (0..n).map(|i| job(self, i)).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        thread::scope(|s| {
            for _ in 0..workers {
                let (tx, next, job, mut ws) = (tx.clone(), &next, &job, self.clone());
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, job(&mut ws, i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, r) in rx {
                out[i] = Some(r);
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every job produced a result"))
            .collect()
    }
}

/// The one memo ladder behind every tier of [`Memo`]: the in-memory
/// `tier` that every clone shares; then the attached artifact store,
/// whose key is computed only when one is attached and whose payload
/// counts only if `load` accepts it; then `build`, whose output `save`
/// encodes for a best-effort store write. The result then joins the
/// memory tier. No lock is held while loading or building. Values are
/// `Arc`s (or options of them), so a hit clones a pointer.
fn memoized<K: Eq + Hash, V: Clone>(
    tier: &Mutex<HashMap<K, V>>,
    key: K,
    store: Option<&ArtifactStore>,
    store_key: impl FnOnce() -> Option<String>,
    load: impl FnOnce(&[u8]) -> Option<V>,
    build: impl FnOnce() -> Result<V, Error>,
    save: impl FnOnce(&V) -> Option<Vec<u8>>,
) -> Result<V, Error> {
    if let Some(v) = lock(tier).get(&key) {
        return Ok(v.clone());
    }
    let store = store.and_then(|s| Some((s, store_key()?)));
    let loaded = store.as_ref().and_then(|(s, sk)| load(&s.load(sk)?));
    let v = match loaded {
        Some(v) => v,
        None => {
            let v = build()?;
            if let Some((s, sk)) = &store {
                if let Some(payload) = save(&v) {
                    // Best-effort: a failed write costs a later process a
                    // rebuild, never correctness.
                    let _ = s.store(sk, &payload);
                }
            }
            v
        }
    };
    lock(tier).insert(key, v.clone());
    Ok(v)
}

/// [`memoized`] for an in-memory tier with no store behind it.
fn in_memory<K: Eq + Hash, V: Clone>(
    tier: &Mutex<HashMap<K, V>>,
    key: K,
    build: impl FnOnce() -> Result<V, Error>,
) -> Result<V, Error> {
    memoized(tier, key, None, || None, |_| None, build, |_| None)
}

/// Locks a memo tier. Every critical section is one `get` or `insert`,
/// which leaves the map valid, so a lock poisoned by a panicking worker
/// is recovered rather than skipped.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One node's executable artifact: the wired program, plus the
/// accelerated kernel (and its fused partner) when the plan granted
/// acceleration and the compiler found a mapping.
pub(crate) struct NodeLoad {
    pub(crate) program: Program,
    pub(crate) accel: Option<(Arc<AcceleratedKernel>, Option<TileId>)>,
}

/// The pre-simulation static gate: verifies everything a run is about
/// to hand the chip.
///
/// * **Plan legality** — tile assignments, patch classes, pair
///   adjacency/timing, and one-owner-per-patch resourcing
///   (`check_plan`);
/// * **Circuit integrity** — the plan's circuits are replayed on a
///   fresh [`PatchNet`] (the same deterministic Dijkstra the chip
///   uses) and each is walked switch-by-switch (`check_circuits`);
/// * **Communication** — send/recv matching and comm-graph acyclicity
///   (`check_comm`), plus XY-route reachability under the fault mask
///   (`check_routes`); only link faults present from cycle 0 and
///   permanent belong to the *static* mask — later or healing faults
///   are the runtime fault-aware router's problem;
/// * **W32 lints** — `check_program` over each plain wired program.
///   Accelerated programs were already gated inside
///   `stitch_compiler::accelerate_all` (including the per-CI
///   equivalence proof), so they are not re-linted here.
fn verify_run(
    app: &App,
    cfg: &ChipConfig,
    plan: &StitchPlan,
    fault_plan: Option<&FaultPlan>,
    loads: &[NodeLoad],
) -> Report {
    let mut report = Report::new();

    // Plan legality.
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

    // Circuit integrity: replay the reservations, then walk each leg.
    let mut net = PatchNet::new(cfg.topo);
    for &(from, to) in &plan.circuits {
        // A failed reservation leaves the circuit unconfigured; the
        // walk below then reports it as PLAN-BROKEN.
        let _ = net.reserve(from, to);
    }
    report.merge(check_circuits(&net, &plan.circuits));

    // Communication graph and routes.
    let nodes: Vec<CommNode> = app
        .nodes
        .iter()
        .map(|n| CommNode {
            sends: n
                .sends
                .iter()
                .map(|e| CommEdge {
                    peer: e.peer,
                    words: e.words,
                })
                .collect(),
            recvs: n
                .recvs
                .iter()
                .map(|e| CommEdge {
                    peer: e.peer,
                    words: e.words,
                })
                .collect(),
        })
        .collect();
    report.merge(check_comm(&nodes));
    let dead: Vec<(TileId, PortDir)> = fault_plan
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

    // W32 lints on the plain wired programs.
    for load in loads {
        if load.accel.is_none() {
            report.merge(check_program(&load.program));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_apps::NodeSpec;
    use stitch_kernels::misc::Histogram;
    use stitch_kernels::signal::UpdateFeature;
    use stitch_sim::FaultSpace;

    fn small_kernels() -> Vec<Box<dyn Kernel>> {
        vec![Box::new(Histogram::new(8)), Box::new(UpdateFeature::new(8))]
    }

    /// Two independent source nodes over the small kernels: the
    /// cheapest app the full pipeline accepts.
    fn tiny_app() -> App {
        let nodes = small_kernels()
            .into_iter()
            .zip(0u8..)
            .map(|(kernel, home)| NodeSpec {
                name: kernel.spec().name.to_string(),
                kernel,
                home: TileId(home),
                recvs: Vec::new(),
                sends: Vec::new(),
            })
            .collect();
        App {
            name: "tiny",
            title: "two independent small kernels",
            nodes,
        }
    }

    /// SHA-256 of the store encodings the compile layers produce: each
    /// distinct kernel of `App::all()` compiled over `PatchConfig::all()`
    /// (`encode_kernel_artifact` with its verify report), then each
    /// Fig 12 grid point's prepared bundle at `DEFAULT_FRAMES`
    /// (`encode_prepared`). A change that moves any compiled bit fails
    /// `compile_outputs_match_pinned_digests`; a deliberate model
    /// change re-pins from the table the failure prints and says why.
    const PINNED_DIGESTS: &[(&str, &str)] = &[
        (
            "kernel update/128x128",
            "c9006673d839539b214f6ccecde146768815aabfeb6f50d0fd99301e82e6f173",
        ),
        (
            "kernel fft/128x128",
            "0a1257266440e49f448c599f914b669c7e7f8970251c703178563910144fbcc8",
        ),
        (
            "kernel update/768x768",
            "21a9e5149986f41294e7e0f34da3836d2915429c9bf1e79ebcf24efe2c326cd3",
        ),
        (
            "kernel fir/256x249",
            "3834768e1b50157931203e26ca174bfd6a5f878cad2caedde3730eb179889756",
        ),
        (
            "kernel ifft/128x192",
            "1a24ecb1aa7370b97cf924b499508aec3d20cf9d5990dad45f17fe8b7bfce4cf",
        ),
        (
            "kernel classify/192x5",
            "e73c9882320da3bc67310c7d52419f23e62565643697fc780ff784585731567d",
        ),
        (
            "kernel 2dconv/256x196",
            "d274ef882a8d12a0a1f802baf12e4ba1c9c7709b64c3022d8a7ff407f27316cd",
        ),
        (
            "kernel pool/832x208",
            "8857bb191b2a74ba58dc82a6d6b2561892b29392cad277f6a77fd0044a6efe0f",
        ),
        (
            "kernel pool/208x52",
            "768f637a9eeafecb26be2b629d7cc7462eef39eb570ea925774f2fb5ff98e7fc",
        ),
        (
            "kernel fc/52x10",
            "45dc27612c9fa955fa3d6ccccb96986489915a3a07671788619e15a756065094",
        ),
        (
            "kernel histogram/768x256",
            "bb755951530ecc8cf5bd60f0feae442584de01cf09fc246985bd96eb797b2d57",
        ),
        (
            "kernel svm/64x5",
            "c653d7c3ef1e7b81d351e106c5eff77a048992874bbbff13d08e1e3a36d395ac",
        ),
        (
            "kernel aes/16x16",
            "ee3086ec3d35b7f55b04fd243abdc3bf23438017fc38e3da62dbf5b0e1056125",
        ),
        (
            "kernel crc/32x1",
            "d8f817c886c1058eb323583caffddbf703cbc14c19631bbfc609208f25e91dd7",
        ),
        (
            "kernel aesdec/16x16",
            "dde4eafbbfdf221fed1dbb75f1d55b52cdb58477df55583a5be6a37b2fce7528",
        ),
        (
            "kernel dtw/128x1",
            "580ff1bf902bf9b91620eecd3978a366397cfe1358ad41af74beea3a6676b948",
        ),
        (
            "kernel svm/5x4",
            "44debf64e0f3bce2cdfc72bd61b5ce8daaa5b9f6c4eb00d17787f2bafed275da",
        ),
        (
            "point APP1/Baseline",
            "90b2a5ff6ac5dace4d5453ebd8082302f345609a7e679be132f3dcb7b8d14fb1",
        ),
        (
            "point APP1/Locus",
            "6044cdb1ee353a047a0e8a56b018e2830cc37114d4d79f8b55c0e308d0c37519",
        ),
        (
            "point APP1/StitchNoFusion",
            "68a0185ef3c627c28c801c9efa9d414bacbea2bf3709eb1063714e1234f89119",
        ),
        (
            "point APP1/Stitch",
            "f63d1c41f81518aba41ae95ea65cd93de63ee7d379046c8151248610f8f38090",
        ),
        (
            "point APP2/Baseline",
            "708f5bf7395a1a75f1abb0883ec0d0ba83af2e68ec416e585c6691c15fbaec02",
        ),
        (
            "point APP2/Locus",
            "7c7bc11561bdb86a2a77323e9842be8797f48979bc7768cf06c8c95e199ae74c",
        ),
        (
            "point APP2/StitchNoFusion",
            "b6aad1fb48f7e439e2e57a95be00fff02b54f3def4cc8ba84580af2ba712f43a",
        ),
        (
            "point APP2/Stitch",
            "5d12355b0e1c270e0a69d3e58f7fea7507507953c1c39037d95160ef1e6921c7",
        ),
        (
            "point APP3/Baseline",
            "e077ac9c13ff351aec825ffd6617e85265b2ea5f065048d6b2353d50d355ae05",
        ),
        (
            "point APP3/Locus",
            "44886c8eb993605259133313d319d88d7cf92a3562a81db7b80a96aaacdd32c7",
        ),
        (
            "point APP3/StitchNoFusion",
            "4845fb7be8c07ab84321e5787bbc14dacf8645ca22c671c58a35ec88c63f3903",
        ),
        (
            "point APP3/Stitch",
            "b6ba2ce6aa866c28a3e156a3e5c27a3cf0a39c78a5efaf6c3e40cae796de6a3e",
        ),
        (
            "point APP4/Baseline",
            "77a6e3847697d6c26a9e5588c1e98c78224ce0ce22259c199f4cc71cedd17272",
        ),
        (
            "point APP4/Locus",
            "363ee045ed146144e6fd7df0cec60638b50c2daf287975b1db79a7a001f7f7dc",
        ),
        (
            "point APP4/StitchNoFusion",
            "0f3bef3d510ea9988ef0094a11257163c0ff49bc9e234b4be4933236b7445cc6",
        ),
        (
            "point APP4/Stitch",
            "fe75b9d587effece62921b92b7a990b8daee7b9e010fdbf0129e937e37a8b3be",
        ),
    ];

    #[test]
    fn compile_outputs_match_pinned_digests() {
        let apps = App::all();
        let mut wb = Workbench::new();
        let mut got: Vec<(String, String)> = Vec::new();
        for node in apps.iter().flat_map(|a| &a.nodes) {
            let kernel = node.kernel.as_ref();
            let label = format!("kernel {}", Workbench::cache_key(kernel));
            if got.iter().any(|(l, _)| *l == label) {
                continue;
            }
            let kv = wb.variants(kernel).expect("kernel compiles");
            let bytes = stitch_compiler::encode_kernel_artifact(&kv, &verify_kernel(&kv))
                .expect("kernel artifact encodes");
            got.push((label, stitch_cache::sha256_hex(&bytes)));
        }
        for p in Workbench::full_grid(&apps) {
            let app = &apps[p.app];
            let prepared = wb
                .prepare(app, p.arch, crate::DEFAULT_FRAMES, None)
                .expect("grid point prepares");
            let bytes = encode_prepared(&prepared.plan, &prepared.loads, &prepared.clean_report)
                .expect("prepared bundle encodes");
            got.push((
                format!("point {}/{:?}", app.name, p.arch),
                stitch_cache::sha256_hex(&bytes),
            ));
        }
        let want: Vec<(String, String)> = PINNED_DIGESTS
            .iter()
            .map(|&(l, d)| (l.to_string(), d.to_string()))
            .collect();
        let table: String = got
            .iter()
            .map(|(l, d)| format!("        (\"{l}\", \"{d}\"),\n"))
            .collect();
        assert_eq!(got, want, "compile outputs moved; today's table:\n{table}");
    }

    #[test]
    fn clones_share_compiled_kernels() {
        let dir = std::env::temp_dir().join(format!("stitch-wb-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).expect("open store"));
        let mut ws = Workbench::new();
        ws.set_artifact_store(Arc::clone(&store));
        let k = Histogram::new(8);
        let compiled = ws.clone().variants(&k).expect("compile");
        let lookups = store.hits() + store.misses();
        let reused = ws.variants(&k).expect("memo hit");
        assert_eq!(
            store.hits() + store.misses(),
            lookups,
            "a clone's compile must reach the original through the shared memo"
        );
        assert_eq!(reused.baseline_cycles, compiled.baseline_cycles);
        assert_eq!(reused.variants.len(), compiled.variants.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threaded_kernel_table_matches_sequential() {
        let kernels = small_kernels();
        let threaded = Workbench::new()
            .kernel_table_threaded(&kernels, 2)
            .expect("threaded table");
        let sequential = Workbench::new()
            .kernel_table(&kernels)
            .expect("sequential table");
        assert_eq!(threaded, sequential);
    }

    #[test]
    fn threaded_sweep_matches_sequential_runs() {
        let apps = [tiny_app()];
        let points: Vec<SweepPoint> = [Arch::Baseline, Arch::Stitch]
            .into_iter()
            .map(|arch| SweepPoint { app: 0, arch })
            .collect();
        let swept = Workbench::new().sweep(&apps, &points, 1, 2);
        for (p, r) in points.iter().zip(swept) {
            let swept = r.expect("swept run");
            let fresh = Workbench::new()
                .run_app(&apps[p.app], p.arch, 1)
                .expect("sequential run");
            assert_eq!(swept.summary, fresh.summary, "{:?}", p.arch);
            assert_eq!(swept.node_outputs, fresh.node_outputs, "{:?}", p.arch);
            assert_eq!(swept.plan, fresh.plan, "{:?}", p.arch);
        }
    }

    /// Every load of `prep` is what the memo-free pipeline builds: the
    /// wired program, and for a granted node exactly `accelerate_all`'s
    /// variant of it.
    fn assert_loads_exact(app: &App, frames: u32, prep: &Prepared, what: &str) {
        for (i, load) in prep.loads.iter().enumerate() {
            let name = &app.nodes[i].name;
            let wired = build_node_program(app, i, frames, &prep.plan.tiles).expect("wires");
            assert_eq!(load.program, wired, "{what} {name}: wired program");
            let direct = prep.plan.accel[i].as_ref().and_then(|g| {
                let accel = accelerate_all(name, &wired, &[g.config]).expect("accelerates");
                accel.into_iter().next().map(|a| (a, g.partner))
            });
            let memoized = load
                .accel
                .as_ref()
                .map(|(a, p)| (AcceleratedKernel::clone(a), *p));
            assert_eq!(memoized, direct, "{what} {name}: acceleration");
        }
    }

    #[test]
    fn node_tiers_are_exact_and_masks_reuse_profiles() {
        const FRAMES: u32 = 2;
        let space = FaultSpace::default().compute_only();
        let mut ws = Workbench::new();
        let mut profiled = std::collections::HashSet::new();
        for app in App::all() {
            for arch in Arch::ALL {
                let prep = ws.prepare(&app, arch, FRAMES, None).expect("prepares");
                assert_loads_exact(&app, FRAMES, &prep, &format!("{}/{arch:?}", app.name));
                for (i, _) in prep
                    .plan
                    .accel
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.is_some())
                {
                    let free = build_placement_free_program(&app, i, FRAMES).expect("builds");
                    profiled.insert(program_digest(&free).expect("encodes"));
                }
            }
            let entries = lock(&ws.memo.profiles).len();
            // Two plans with distinct, non-empty failed-patch masks.
            let mut masks = std::collections::HashSet::from([Vec::new()]);
            let masked = (0..)
                .map(|seed| FaultPlan::random(seed, &space))
                .filter(|plan| masks.insert(plan.failed_patches()))
                .take(2);
            for plan in masked {
                let what = format!("{}/plan{}", app.name, plan.seed());
                let prep = ws
                    .prepare(&app, Arch::Stitch, FRAMES, Some(&plan))
                    .expect("prepares");
                assert_loads_exact(&app, FRAMES, &prep, &what);
                assert_eq!(
                    lock(&ws.memo.profiles).len(),
                    entries,
                    "{what}: a masked re-prepare must not profile"
                );
            }
        }
        // One profile per distinct placement-free program: the 64 nodes
        // of the four apps share 18.
        assert_eq!(lock(&ws.memo.profiles).len(), profiled.len());
        assert!(profiled.len() <= 18, "{} profiles", profiled.len());
    }
}
