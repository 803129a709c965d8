//! End-to-end kernel acceleration driver.
//!
//! For one kernel program the driver runs the whole Fig-6 flow for every
//! patch configuration: profile → hot blocks → candidates → map → select
//! → rewrite, then *measures* each variant's cycle count on the
//! cycle-level chip simulator (single tile, correct cache/SPM geometry,
//! a reserved one-hop circuit for fused pairs). It also differentially
//! checks that each accelerated variant computes the same output region
//! as the original program.

use crate::cfg::Cfg;
use crate::dfg::BlockDfg;
use crate::enumerate::{enumerate_candidates, EnumerateLimits};
use crate::mapper::{map_candidate, PatchConfig};
use crate::profile::{profile_program, ProfileReport};
use crate::rewrite::{rewrite_program, select_candidates, Chosen};
use crate::verify::verify_variant;
use crate::{CompilerError, HOT_THRESHOLD, MEASURE_BUDGET};
use std::collections::HashMap;
use stitch_isa::program::Program;
use stitch_mem::TileMemoryConfig;
use stitch_noc::TileId;
use stitch_patch::{ControlWord, PatchClass};
use stitch_sim::{Chip, ChipConfig, CiBinding, Topology};

/// An accelerated variant of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratedKernel {
    /// Configuration compiled for.
    pub config: PatchConfig,
    /// The rewritten program.
    pub program: Program,
    /// Control words per custom-instruction id.
    pub ci_controls: HashMap<u16, Vec<ControlWord>>,
    /// Static custom instructions inserted.
    pub custom_count: usize,
    /// Measured standalone cycles.
    pub cycles: u64,
    /// Per-custom-instruction equivalence obligations, re-checkable at
    /// any time via `stitch_verify::check_ise`.
    pub ise_checks: Vec<stitch_verify::IseCheck>,
}

impl AcceleratedKernel {
    /// Builds the simulator bindings for this variant when the kernel
    /// runs on `tile` with optional fused `partner`.
    ///
    /// # Errors
    ///
    /// [`CompilerError::Invariant`] when a fused variant is bound without
    /// a partner tile or a control-word list has an impossible length.
    pub fn bindings(
        &self,
        partner: Option<TileId>,
    ) -> Result<HashMap<u16, CiBinding>, CompilerError> {
        self.ci_controls
            .iter()
            .map(|(id, controls)| {
                let b = match controls.as_slice() {
                    [c] => CiBinding::Single { control: c.clone() },
                    [c1, c2] => CiBinding::Fused {
                        first: c1.clone(),
                        partner: partner.ok_or_else(|| {
                            CompilerError::invariant(format!(
                                "ci{id}: fused variant bound without a partner tile"
                            ))
                        })?,
                        second: c2.clone(),
                    },
                    other => {
                        return Err(CompilerError::invariant(format!(
                            "ci{id}: {} control words (1 or 2 expected)",
                            other.len()
                        )))
                    }
                };
                Ok((*id, b))
            })
            .collect()
    }

    /// `true` when any custom instruction is fused.
    #[must_use]
    pub fn is_fused(&self) -> bool {
        matches!(self.config, PatchConfig::Pair(..))
            && self.ci_controls.values().any(|c| c.len() == 2)
    }
}

/// All compiled variants of one kernel, plus the baseline measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelVariants {
    /// Kernel name.
    pub name: String,
    /// The unmodified program.
    pub baseline: Program,
    /// Baseline cycles on the (no-accelerator) chip.
    pub baseline_cycles: u64,
    /// Variants that actually contain custom instructions and were
    /// verified, by configuration.
    pub variants: Vec<AcceleratedKernel>,
}

impl KernelVariants {
    /// The variant for a configuration, if it exists.
    #[must_use]
    pub fn variant(&self, config: PatchConfig) -> Option<&AcceleratedKernel> {
        self.variants.iter().find(|v| v.config == config)
    }

    /// Best (lowest-cycle) variant among `allowed`.
    #[must_use]
    pub fn best_among(&self, allowed: impl Fn(PatchConfig) -> bool) -> Option<&AcceleratedKernel> {
        self.variants
            .iter()
            .filter(|v| allowed(v.config))
            .min_by_key(|v| v.cycles)
    }

    /// Speedup of a configuration over the baseline.
    #[must_use]
    pub fn speedup(&self, config: PatchConfig) -> Option<f64> {
        self.variant(config)
            .map(|v| self.baseline_cycles as f64 / v.cycles as f64)
    }
}

/// Compiles a kernel for every configuration and measures all variants.
///
/// `output` optionally names a `(address, words)` region compared between
/// the baseline and each variant run (differential correctness check).
///
/// # Errors
///
/// Propagates profiling/rewrite failures; a variant whose output region
/// differs from the baseline is reported as a rewrite error.
pub fn compile_kernel(
    name: &str,
    program: &Program,
    configs: &[PatchConfig],
    output: Option<(u32, usize)>,
) -> Result<KernelVariants, CompilerError> {
    // The input program must itself pass the dataflow lints before the
    // flow spends any time on it.
    let baseline_report = stitch_verify::check_program(program);
    if !baseline_report.is_clean() {
        return Err(CompilerError::Verify(baseline_report));
    }
    let accel = accelerate_all(name, program, configs)?;
    let (baseline_cycles, expected) = measure_baseline(program, output)?;
    let mut variants = Vec::new();
    for a in accel {
        let mut a = a;
        let (cycles, got) = measure_variant(&a, output)?;
        if got != expected {
            return Err(CompilerError::Rewrite(format!(
                "{name}/{}: accelerated output differs from baseline",
                a.config
            )));
        }
        a.cycles = cycles;
        variants.push(a);
    }
    Ok(KernelVariants {
        name: name.to_string(),
        baseline: program.clone(),
        baseline_cycles,
        variants,
    })
}

/// Runs the compile flow (no measurement) for each configuration,
/// keeping variants that inserted at least one custom instruction:
/// [`profile_program`], then [`accelerate_profiled`].
///
/// # Errors
///
/// Propagates profiling failures and those of [`accelerate_profiled`].
pub fn accelerate_all(
    name: &str,
    program: &Program,
    configs: &[PatchConfig],
) -> Result<Vec<AcceleratedKernel>, CompilerError> {
    let profile = profile_program(program, MEASURE_BUDGET)?;
    accelerate_profiled(name, program, &profile, configs)
}

/// [`accelerate_all`] after its profiling step: hot blocks come from
/// `profile`, everything else from `program`.
///
/// `profile` need not come from `program` itself, only from a program
/// the profiler cannot tell apart from it. A node program and its
/// placement-free twin (`stitch_apps::build_placement_free_program`)
/// are such a pair, so one profile serves every placement of a node.
///
/// This is where every synthesized mapping is proven: each variant must
/// pass the W32 lints and `stitch_verify::check_ise` on every custom
/// instruction before it is returned.
///
/// # Errors
///
/// [`CompilerError::Invariant`] when `profile` does not cover exactly
/// `program`'s instructions; rewrite failures. A variant that fails the
/// proof — e.g. a mapping whose control words do not compute its
/// candidate (ISE-DIFF) — fails the whole compile with
/// [`CompilerError::Verify`]; it is never silently dropped.
pub fn accelerate_profiled(
    name: &str,
    program: &Program,
    profile: &ProfileReport,
    configs: &[PatchConfig],
) -> Result<Vec<AcceleratedKernel>, CompilerError> {
    if profile.instr_counts.len() != program.instrs.len() {
        return Err(CompilerError::invariant(format!(
            "{name}: profile covers {} instructions, program has {}",
            profile.instr_counts.len(),
            program.instrs.len()
        )));
    }
    let cfg = Cfg::build(program);
    let hot = profile.hot_blocks(&cfg, HOT_THRESHOLD);

    let mut dfgs: HashMap<usize, BlockDfg> = HashMap::new();
    let mut candidates: HashMap<usize, Vec<crate::enumerate::Candidate>> = HashMap::new();
    for &b in &hot {
        let dfg = BlockDfg::build(program, &cfg, &cfg.blocks[b]);
        let cands = enumerate_candidates(&dfg, EnumerateLimits::default());
        candidates.insert(b, cands);
        dfgs.insert(b, dfg);
    }

    let mut out = Vec::new();
    for &config in configs {
        let mut plans: HashMap<usize, Vec<Chosen>> = HashMap::new();
        for &b in &hot {
            let dfg = &dfgs[&b];
            let mapped: Vec<Chosen> = candidates[&b]
                .iter()
                .filter_map(|c| {
                    // A kernel granted a fused pair still owns its local
                    // patch: candidates that do not need both patches map
                    // onto the first patch alone.
                    let m = map_candidate(dfg, c, config).or_else(|| match config {
                        PatchConfig::Pair(c1, _) => map_candidate(dfg, c, PatchConfig::Single(c1)),
                        _ => None,
                    })?;
                    Some(Chosen {
                        candidate: c.clone(),
                        mapping: m,
                    })
                })
                .collect();
            plans.insert(b, select_candidates(dfg, mapped));
        }
        if plans.values().all(Vec::is_empty) {
            continue;
        }
        let rewritten = rewrite_program(program, &cfg, &dfgs, &plans, name)?;
        if rewritten.custom_count == 0 {
            continue;
        }
        // Static verification gate: the rewritten program must pass the
        // W32 dataflow lints and every custom instruction must be
        // independently proven equivalent to the subgraph it replaced.
        let report = verify_variant(&rewritten.program, &rewritten.ise_checks);
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

/// Chip geometry used to measure one configuration.
fn measurement_chip(config: Option<PatchConfig>) -> ChipConfig {
    let topo = Topology::stitch_4x4();
    match config {
        None => ChipConfig::baseline_16(),
        Some(PatchConfig::Locus) => ChipConfig {
            topo,
            tile_mem: TileMemoryConfig::baseline(),
            patches: vec![Some(PatchClass::LocusSfu); 16],
        },
        Some(PatchConfig::Single(c)) => {
            let mut patches = vec![None; 16];
            patches[0] = Some(c);
            ChipConfig {
                topo,
                tile_mem: TileMemoryConfig::stitch(),
                patches,
            }
        }
        Some(PatchConfig::Pair(c1, c2)) => {
            let mut patches = vec![None; 16];
            patches[0] = Some(c1);
            patches[1] = Some(c2);
            ChipConfig {
                topo,
                tile_mem: TileMemoryConfig::stitch(),
                patches,
            }
        }
    }
}

fn measure_baseline(
    program: &Program,
    output: Option<(u32, usize)>,
) -> Result<(u64, Vec<u32>), CompilerError> {
    let mut chip = Chip::new(measurement_chip(None));
    chip.load_program(TileId(0), program).unwrap();
    let summary = chip
        .run(MEASURE_BUDGET)
        .map_err(|e| CompilerError::Profile(format!("baseline measurement: {e}")))?;
    let out = output.map_or_else(Vec::new, |(a, n)| chip.peek_words(TileId(0), a, n));
    Ok((summary.cycles, out))
}

fn measure_variant(
    variant: &AcceleratedKernel,
    output: Option<(u32, usize)>,
) -> Result<(u64, Vec<u32>), CompilerError> {
    let mut chip = Chip::new(measurement_chip(Some(variant.config)));
    if matches!(variant.config, PatchConfig::Pair(..)) {
        chip.reserve_circuit(TileId(0), TileId(1))
            .map_err(|e| CompilerError::Rewrite(format!("measurement circuit: {e}")))?;
    }
    let partner = matches!(variant.config, PatchConfig::Pair(..)).then_some(TileId(1));
    chip.load_kernel(TileId(0), &variant.program, variant.bindings(partner)?)
        .map_err(|e| CompilerError::Rewrite(format!("load variant: {e}")))?;
    let summary = chip
        .run(MEASURE_BUDGET)
        .map_err(|e| CompilerError::Rewrite(format!("variant measurement: {e}")))?;
    let out = output.map_or_else(Vec::new, |(a, n)| chip.peek_words(TileId(0), a, n));
    Ok((summary.cycles, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_isa::memmap::SPM_BASE;
    use stitch_isa::{Cond, ProgramBuilder, Reg};

    /// A small dot-product-flavoured kernel: SPM-resident arrays,
    /// multiply-accumulate loop, DRAM output.
    fn dot_kernel(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        // Fill SPM: a[i] = i+1, b[i] = 2i+1.
        b.li(Reg::R1, i64::from(SPM_BASE));
        b.li(Reg::R2, n);
        b.li(Reg::R3, 1); // a value
        b.li(Reg::R4, 1); // b value
        b.li(Reg::R20, 4); // stride
        b.mv(Reg::R5, Reg::R1); // a ptr
        b.addi(Reg::R6, Reg::R1, (n * 4) as i32); // b ptr
        let fill = b.bound_label();
        b.sw(Reg::R3, Reg::R5, 0);
        b.sw(Reg::R4, Reg::R6, 0);
        b.addi(Reg::R3, Reg::R3, 1);
        b.addi(Reg::R4, Reg::R4, 2);
        b.add(Reg::R5, Reg::R5, Reg::R20);
        b.add(Reg::R6, Reg::R6, Reg::R20);
        b.addi(Reg::R2, Reg::R2, -1);
        b.branch(Cond::Ne, Reg::R2, Reg::R0, fill);
        // acc = sum a[i]*b[i], hot loop with register addressing.
        b.li(Reg::R2, n);
        b.mv(Reg::R5, Reg::R1);
        b.addi(Reg::R6, Reg::R1, (n * 4) as i32);
        b.li(Reg::R7, 0); // acc
        let loop_ = b.bound_label();
        b.lw(Reg::R8, Reg::R5, 0);
        b.lw(Reg::R9, Reg::R6, 0);
        b.mul(Reg::R10, Reg::R8, Reg::R9);
        b.add(Reg::R7, Reg::R7, Reg::R10);
        b.add(Reg::R5, Reg::R5, Reg::R20);
        b.add(Reg::R6, Reg::R6, Reg::R20);
        b.addi(Reg::R2, Reg::R2, -1);
        b.branch(Cond::Ne, Reg::R2, Reg::R0, loop_);
        b.li(Reg::R11, 0x4000);
        b.sw(Reg::R7, Reg::R11, 0);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn dot_kernel_accelerates_and_verifies() {
        let program = dot_kernel(32);
        let kv = compile_kernel(
            "dot",
            &program,
            &[PatchConfig::Single(PatchClass::AtMa), PatchConfig::Locus],
            Some((0x4000, 1)),
        )
        .unwrap();
        assert!(kv.baseline_cycles > 0);
        let atma = kv
            .variant(PatchConfig::Single(PatchClass::AtMa))
            .expect("AT-MA variant");
        assert!(atma.custom_count >= 1);
        assert!(
            atma.cycles < kv.baseline_cycles,
            "acceleration must help: {} vs {}",
            atma.cycles,
            kv.baseline_cycles
        );
        let s = kv.speedup(PatchConfig::Single(PatchClass::AtMa)).unwrap();
        assert!(s > 1.05, "speedup {s}");
        // LOCUS cannot include the loads, so if it produced a variant it
        // must not beat {AT-MA} here.
        if let Some(l) = kv.variant(PatchConfig::Locus) {
            assert!(l.cycles >= atma.cycles, "memory inclusion should win");
        }
    }

    #[test]
    fn fused_pair_variant_measures() {
        // Kernel with a long A-M-A-S-A chain that only a pair covers
        // fully: t = r2 + acc; u = t*t; v = u - t; w = v >> r4; acc += w.
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 200);
        b.li(Reg::R2, 3);
        b.li(Reg::R4, 2);
        b.li(Reg::R7, 0);
        let loop_ = b.bound_label();
        b.add(Reg::R10, Reg::R2, Reg::R7);
        b.mul(Reg::R11, Reg::R10, Reg::R10);
        b.sub(Reg::R12, Reg::R11, Reg::R10);
        b.alu(stitch_isa::AluOp::Srl, Reg::R13, Reg::R12, Reg::R4);
        b.add(Reg::R7, Reg::R7, Reg::R13);
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(Cond::Ne, Reg::R1, Reg::R0, loop_);
        b.li(Reg::R14, 0x4000);
        b.sw(Reg::R7, Reg::R14, 0);
        b.halt();
        let program = b.build().unwrap();
        let kv = compile_kernel(
            "chain",
            &program,
            &[
                PatchConfig::Single(PatchClass::AtMa),
                PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa),
            ],
            Some((0x4000, 1)),
        )
        .unwrap();
        let pair = kv
            .variant(PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa))
            .expect("pair variant");
        assert!(pair.is_fused());
        let single = kv
            .variant(PatchConfig::Single(PatchClass::AtMa))
            .expect("single");
        assert!(
            pair.cycles <= single.cycles,
            "fusion should not lose: pair {} vs single {}",
            pair.cycles,
            single.cycles
        );
        assert!(pair.cycles < kv.baseline_cycles);
    }

    #[test]
    fn best_among_filters() {
        let program = dot_kernel(16);
        let kv = compile_kernel(
            "dot16",
            &program,
            &[
                PatchConfig::Single(PatchClass::AtMa),
                PatchConfig::Single(PatchClass::AtAs),
            ],
            Some((0x4000, 1)),
        )
        .unwrap();
        let best = kv
            .best_among(|c| matches!(c, PatchConfig::Single(_)))
            .expect("some single");
        assert!(best.cycles <= kv.baseline_cycles);
    }
}
