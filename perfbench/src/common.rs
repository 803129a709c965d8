//! Pieces shared by the workloads: arguments, the scratch directory,
//! kernel lists and the Fig 12 grid's correctness checks.

use crate::digest;
use crate::host::nproc;
use crate::ledger::Ledger;
use crate::replay::{self, kernel_key, Prepared};
use crate::report::SimTally;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use stitch::{AppRun, Arch, ArtifactStore, Error, SweepPoint, Workbench};
use stitch_apps::App;
use stitch_compiler::KernelVariants;
use stitch_kernels::Kernel;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A directory under `.perfbench/` in the working directory, removed
/// when dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".perfbench");
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The distinct kernels of `apps`, owned, in `prewarm` order.
fn owned_kernels(apps: Vec<App>) -> Vec<Box<dyn Kernel>> {
    let mut seen = HashSet::new();
    apps.into_iter()
        .flat_map(|a| a.nodes)
        .map(|n| n.kernel)
        .filter(|k| seen.insert(kernel_key(k.as_ref())))
        .collect()
}

/// A workbench (optionally on an artifact store) with every kernel of
/// `apps` compiled on `nproc` threads and an empty prepare memo.
pub fn prewarmed(apps: Vec<App>, store: Option<Arc<ArtifactStore>>) -> Workbench {
    let mut ws = Workbench::new();
    if let Some(store) = store {
        ws.set_artifact_store(store);
    }
    if let Err(e) = ws.kernel_table_threaded(&owned_kernels(apps), nproc()) {
        eprintln!("prewarm: {e}");
    }
    ws
}

/// Compiled variants of every distinct kernel of `apps`, read back
/// from a workbench that already compiled them.
pub fn variants_of(
    ws: &mut Workbench,
    apps: &[App],
) -> Result<HashMap<String, KernelVariants>, Error> {
    replay::distinct_kernels(apps)
        .into_iter()
        .map(|k| Ok((kernel_key(k), ws.variants(k)?)))
        .collect()
}

/// Prepares `points` through the replay, untimed: the artifacts a
/// later replay pass simulates.
pub fn prepare_points(
    variants: &HashMap<String, KernelVariants>,
    apps: &[App],
    points: &[SweepPoint],
    frames: u32,
) -> Result<HashMap<(usize, Arch), Prepared>, Error> {
    let mut scratch = Ledger::new();
    points
        .iter()
        .map(|p| {
            let prep = replay::prepare(&mut scratch, variants, &apps[p.app], p.arch, frames, &[])?;
            Ok(((p.app, p.arch), prep))
        })
        .collect()
}

/// Name of a grid point in digests and messages.
pub fn point_name(app: &App, arch: Arch) -> String {
    format!("{}/{arch:?}", app.name)
}

/// The checked results of one pass over grid points.
#[derive(Debug, Default)]
pub struct GridPass {
    pub failed: u64,
    pub digests: BTreeMap<String, u64>,
    pub fps: HashMap<(usize, Arch), f64>,
    pub sim: SimTally,
}

impl GridPass {
    /// Checks every point: it must have run, and its node outputs must
    /// equal the `Baseline` arch's for the same app.
    pub fn check(apps: &[App], points: &[SweepPoint], runs: &[Result<AppRun, Error>]) -> Self {
        let baseline: HashMap<usize, &Vec<Vec<u32>>> = points
            .iter()
            .zip(runs)
            .filter(|(p, _)| p.arch == Arch::Baseline)
            .filter_map(|(p, r)| r.as_ref().ok().map(|run| (p.app, &run.node_outputs)))
            .collect();
        let mut pass = GridPass::default();
        for (p, r) in points.iter().zip(runs) {
            let name = point_name(&apps[p.app], p.arch);
            match r {
                Err(e) => {
                    pass.failed += 1;
                    eprintln!("{name}: failed: {e}");
                }
                Ok(run) => {
                    if baseline.get(&p.app) != Some(&&run.node_outputs) {
                        pass.failed += 1;
                        eprintln!("{name}: node outputs differ from the Baseline arch's");
                    }
                    pass.digests.insert(
                        name,
                        digest::point(&run.plan, run.summary.cycles, &run.node_outputs),
                    );
                    pass.fps.insert((p.app, p.arch), run.throughput_fps);
                    pass.sim.add(run);
                }
            }
        }
        pass
    }

    /// Counts this pass's points whose digest differs from (or is
    /// missing in) `reference` as failed; returns how many.
    pub fn compare(&mut self, reference: &BTreeMap<String, u64>, what: &str) -> u64 {
        let bad = reference
            .iter()
            .filter(|(name, d)| self.digests.get(*name) != Some(d))
            .inspect(|(name, _)| eprintln!("{name}: result differs from the {what}"))
            .count() as u64;
        self.failed += bad;
        bad
    }

    /// `paper_gap` over the Fig 12 geomeans of `apps` apps, when every
    /// point of the grid ran.
    pub fn paper_gap(&self, apps: usize) -> Option<f64> {
        let complete = (0..apps).all(|a| {
            Arch::ALL
                .iter()
                .all(|&arch| self.fps.contains_key(&(a, arch)))
        });
        complete.then(|| {
            crate::arith::paper_gap(&crate::arith::fig12_geomeans(apps, |a, arch| {
                self.fps[&(a, arch)]
            }))
        })
    }
}
