//! Algorithm 1: the stitching algorithm.
//!
//! Greedy, bottleneck-driven allocation of patches to the kernels of a
//! multi-kernel application (paper §IV). Each iteration accelerates the
//! current bottleneck kernel with the best still-unchecked patch (or
//! fused patch pair), finds a contention-free circuit with Dijkstra
//! (`FindPath`), relocates the kernel onto a tile holding one of its
//! patches (`LocateKernel`), and updates its execution time — until no
//! patch is left or the bottleneck cannot be improved.

use crate::driver::KernelVariants;
use crate::mapper::PatchConfig;
use stitch_noc::{PatchNet, TileId};
use stitch_patch::fused_path_legal;
use stitch_sim::{Arch, ChipConfig};

/// One kernel of a multi-kernel application, with its compiled variants.
#[derive(Debug, Clone)]
pub struct AppKernel {
    /// Kernel name (diagnostics).
    pub name: String,
    /// Initial (pipeline-order) tile.
    pub home: TileId,
    /// Compiled variants with measured standalone cycles.
    pub variants: KernelVariants,
}

/// Acceleration granted to one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantedAccel {
    /// The chosen configuration.
    pub config: PatchConfig,
    /// Fused partner tile, when the configuration is a pair.
    pub partner: Option<TileId>,
    /// Circuit hops (per direction) for fused configurations.
    pub hops: u32,
}

/// Final placement and acceleration decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchPlan {
    /// Per kernel (same order as the input): assigned tile.
    pub tiles: Vec<TileId>,
    /// Per kernel: granted acceleration, if any.
    pub accel: Vec<Option<GrantedAccel>>,
    /// Reserved inter-patch circuits `(from, to)`.
    pub circuits: Vec<(TileId, TileId)>,
    /// Human-readable log of the algorithm's decisions.
    pub log: Vec<String>,
}

impl StitchPlan {
    /// Number of kernels accelerated.
    #[must_use]
    pub fn accelerated(&self) -> usize {
        self.accel.iter().flatten().count()
    }

    /// Number of fused kernels.
    #[must_use]
    pub fn fused(&self) -> usize {
        self.accel
            .iter()
            .flatten()
            .filter(|a| a.partner.is_some())
            .count()
    }

    /// Renders the stitching map (Fig 10-style).
    #[must_use]
    pub fn render(&self, kernels: &[AppKernel]) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, k) in kernels.iter().enumerate() {
            let _ = write!(s, "{:>12} @ {}", k.name, self.tiles[i]);
            match &self.accel[i] {
                Some(a) => {
                    let _ = write!(s, "  <- {}", a.config);
                    if let Some(p) = a.partner {
                        let _ = write!(s, " fused with {p} ({} hops)", a.hops);
                    }
                }
                None => {
                    let _ = write!(s, "  (software)");
                }
            }
            s.push('\n');
        }
        s
    }
}

/// Runs Algorithm 1 for `arch` over the chip's patch layout.
///
/// `kernels` must not exceed the tile count, and home tiles must be
/// distinct.
#[must_use]
pub fn stitch_application(kernels: &[AppKernel], chip: &ChipConfig, arch: Arch) -> StitchPlan {
    stitch_application_masked(kernels, chip, arch, &[])
}

/// [`stitch_application`] with the patches on `masked` tiles treated as
/// unavailable — the recovery entry point of the fault-degradation
/// ladder.
///
/// When a patch fails permanently at runtime, the runtime first demotes
/// the affected custom instructions to their W32 software sequence
/// (correct but slow); re-running the stitcher with the dead patches
/// masked then produces a fresh mapping that routes acceleration around
/// the failures — a fused pair falls back to a healthy single patch or
/// to software, exactly as if the chip had been manufactured without
/// those patches. Masked tiles can still *host* kernels (their core and
/// memories are healthy); they just contribute no patch and join no
/// fused circuit.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn stitch_application_masked(
    kernels: &[AppKernel],
    chip: &ChipConfig,
    arch: Arch,
    masked: &[TileId],
) -> StitchPlan {
    let n = kernels.len();
    let mut tiles: Vec<TileId> = kernels.iter().map(|k| k.home).collect();
    let mut accel: Vec<Option<GrantedAccel>> = vec![None; n];
    let mut circuits: Vec<(TileId, TileId)> = Vec::new();
    let mut log: Vec<String> = Vec::new();

    match arch {
        Arch::Baseline => {
            return StitchPlan {
                tiles,
                accel,
                circuits,
                log,
            };
        }
        Arch::Locus => {
            // Every core has an identical SFU: each kernel independently
            // takes its LOCUS variant when beneficial.
            for (i, k) in kernels.iter().enumerate() {
                if let Some(v) = k.variants.variant(PatchConfig::Locus) {
                    if v.cycles < k.variants.baseline_cycles {
                        accel[i] = Some(GrantedAccel {
                            config: PatchConfig::Locus,
                            partner: None,
                            hops: 0,
                        });
                        log.push(format!("{}: LOCUS SFU ({} cycles)", k.name, v.cycles));
                    }
                }
            }
            return StitchPlan {
                tiles,
                accel,
                circuits,
                log,
            };
        }
        Arch::StitchNoFusion | Arch::Stitch => {}
    }

    // Occupancy: which kernel sits on each tile.
    let mut occupant: Vec<Option<usize>> = vec![None; chip.topo.tiles()];
    for (i, t) in tiles.iter().enumerate() {
        occupant[t.index()] = Some(i);
    }
    let mut locked = vec![false; n];
    let mut patch_used = vec![false; chip.topo.tiles()];
    for &t in masked {
        if !patch_used[t.index()] && chip.patches[t.index()].is_some() {
            log.push(format!("{t}: patch masked out (fault recovery)"));
        }
        patch_used[t.index()] = true;
    }
    let mut checked: Vec<Vec<PatchConfig>> = vec![Vec::new(); n];
    let mut time: Vec<u64> = kernels.iter().map(|k| k.variants.baseline_cycles).collect();
    let mut net = PatchNet::new(chip.topo);

    let allow = |c: PatchConfig| match (arch, c) {
        (_, PatchConfig::Locus) => false,
        (Arch::StitchNoFusion, PatchConfig::Single(_)) => true,
        (Arch::StitchNoFusion, PatchConfig::Pair(..)) => false,
        (Arch::Stitch, _) => true,
        _ => false,
    };

    // while there is patch available do ...
    let mut exhausted = vec![false; n];
    for _iteration in 0..8 * chip.topo.tiles() {
        if !patch_used
            .iter()
            .enumerate()
            .any(|(t, &used)| !used && chip.patches[t].is_some())
        {
            break; // all patches consumed
        }
        // kernel = Bottleneck(A) among kernels that can still improve.
        // (The paper's Algorithm 1 returns when the bottleneck has no
        // option; the evaluation's "w/o fusion" configuration still lets
        // every kernel use its local patch, so we keep arbitrating the
        // remaining kernels instead — non-bottleneck acceleration does
        // not change throughput but matches §VI-B's description.)
        let Some(k) = (0..n)
            .filter(|&i| !exhausted[i] && !kernels[i].variants.variants.is_empty())
            .max_by_key(|&i| time[i])
        else {
            break;
        };
        // patches = BestPatches(kernel, checked)
        // A fused pair consumes two patches; require it to (a) beat the
        // best single-patch option by a margin and (b) leave enough free
        // patches for the remaining kernels that still want one —
        // otherwise a pair-hungry bottleneck class (e.g. thirteen 2dconv
        // kernels) starves its own siblings.
        let best_single = kernels[k]
            .variants
            .variants
            .iter()
            .filter(|v| allow(v.config) && matches!(v.config, PatchConfig::Single(_)))
            .map(|v| v.cycles)
            .min();
        let free_patches = patch_used
            .iter()
            .enumerate()
            .filter(|&(t, &used)| !used && chip.patches[t].is_some())
            .count();
        let worth_pairing = |cycles: u64| {
            let beats_single = match best_single {
                Some(s) => (cycles as f64) < s as f64 * 0.95,
                None => true,
            };
            // Every kernel that would remain hotter than the fused
            // kernel's new time must still be able to receive a patch of
            // its own afterwards; otherwise the pair starves the real
            // bottleneck (e.g. a thirteenth identical 2dconv).
            let critical_peers = (0..n)
                .filter(|&i| {
                    i != k
                        && !exhausted[i]
                        && accel[i].is_none()
                        && time[i] > cycles
                        && kernels[i]
                            .variants
                            .variants
                            .iter()
                            .any(|v| allow(v.config) && v.cycles < time[i])
                })
                .count();
            beats_single && free_patches >= 2 && free_patches - 2 >= critical_peers
        };
        let mut options: Vec<&crate::driver::AcceleratedKernel> = kernels[k]
            .variants
            .variants
            .iter()
            .filter(|v| {
                allow(v.config)
                    && !checked[k].contains(&v.config)
                    && v.cycles < time[k]
                    && (matches!(v.config, PatchConfig::Single(_)) || worth_pairing(v.cycles))
            })
            .collect();
        options.sort_by_key(|v| v.cycles);
        if options.is_empty() {
            log.push(format!("{}: no further option", kernels[k].name));
            exhausted[k] = true;
            continue;
        }

        let mut granted = false;
        for v in options {
            match v.config {
                PatchConfig::Single(class) => {
                    // A tile with this class whose patch is free and whose
                    // occupant can swap homes with k.
                    let slot = chip
                        .tiles_with(class)
                        .into_iter()
                        .filter(|t| !patch_used[t.index()])
                        .find(|t| {
                            let occ = occupant[t.index()];
                            occ == Some(k) || occ.is_none_or(|o| !locked[o])
                        });
                    let Some(t) = slot else {
                        checked[k].push(v.config);
                        continue;
                    };
                    relocate(&mut tiles, &mut occupant, k, t);
                    locked[k] = true;
                    patch_used[t.index()] = true;
                    time[k] = v.cycles;
                    log.push(format!(
                        "{} -> {} single {} ({} cycles)",
                        kernels[k].name, t, class, v.cycles
                    ));
                    granted = true;
                }
                PatchConfig::Pair(c1, c2) => {
                    // First tile hosts the kernel; the second patch is
                    // borrowed (its tile's kernel keeps running).
                    let mut best: Option<(TileId, TileId, u32)> = None;
                    for t1 in chip.tiles_with(c1) {
                        if patch_used[t1.index()] {
                            continue;
                        }
                        let occ = occupant[t1.index()];
                        if !(occ == Some(k) || occ.is_none_or(|o| !locked[o])) {
                            continue;
                        }
                        for t2 in chip.tiles_with(c2) {
                            if t2 == t1 || patch_used[t2.index()] {
                                continue;
                            }
                            let hops = chip.topo.distance(t1, t2);
                            if !fused_path_legal(c1, c2, hops) {
                                continue;
                            }
                            if best.is_none_or(|(_, _, h)| hops < h) {
                                best = Some((t1, t2, hops));
                            }
                        }
                    }
                    // FindPath: reserve the circuit; on contention try to
                    // fall back to any legal pair.
                    let mut reserved = None;
                    if let Some((t1, t2, _)) = best {
                        if let Ok(c) = net.reserve(t1, t2) {
                            if fused_path_legal(c1, c2, c.hops) {
                                reserved = Some((t1, t2, c.hops));
                            }
                            // An illegal-after-detour circuit stays
                            // reserved but unused; extremely rare on the
                            // 4x4 mesh — treat as checked.
                        }
                    }
                    let Some((t1, t2, hops)) = reserved else {
                        checked[k].push(v.config);
                        continue;
                    };
                    relocate(&mut tiles, &mut occupant, k, t1);
                    locked[k] = true;
                    patch_used[t1.index()] = true;
                    patch_used[t2.index()] = true;
                    circuits.push((t1, t2));
                    time[k] = v.cycles;
                    accel[k] = Some(GrantedAccel {
                        config: v.config,
                        partner: Some(t2),
                        hops,
                    });
                    log.push(format!(
                        "{} -> {} fused {}+{} via {} hops ({} cycles)",
                        kernels[k].name, t1, c1, c2, hops, v.cycles
                    ));
                    granted = true;
                }
                // `allow()` filters LOCUS out of the option list; if one
                // slips through (a future `allow` change), skip it rather
                // than abort the whole stitch.
                PatchConfig::Locus => {
                    checked[k].push(v.config);
                    continue;
                }
            }
            if granted {
                if accel[k].is_none() {
                    accel[k] = Some(GrantedAccel {
                        config: v.config,
                        partner: None,
                        hops: 0,
                    });
                }
                break;
            }
        }
        if !granted {
            // Every viable option of this kernel was checked against the
            // remaining resources; stop considering it.
            exhausted[k] = true;
        } else {
            // A granted kernel keeps exactly one configuration; it never
            // receives a second allocation.
            exhausted[k] = true;
        }
    }

    StitchPlan {
        tiles,
        accel,
        circuits,
        log,
    }
}

/// Moves kernel `k` onto tile `t`, swapping with the displaced occupant.
fn relocate(tiles: &mut [TileId], occupant: &mut [Option<usize>], k: usize, t: TileId) {
    let from = tiles[k];
    if from == t {
        return;
    }
    let displaced = occupant[t.index()];
    tiles[k] = t;
    occupant[t.index()] = Some(k);
    occupant[from.index()] = displaced;
    if let Some(d) = displaced {
        tiles[d] = from;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::AcceleratedKernel;
    use std::collections::HashMap;
    use stitch_isa::program::Program;
    use stitch_patch::PatchClass;

    fn fake_variant(config: PatchConfig, cycles: u64) -> AcceleratedKernel {
        AcceleratedKernel {
            config,
            program: Program::default(),
            ci_controls: HashMap::new(),
            custom_count: 1,
            cycles,
            ise_checks: Vec::new(),
        }
    }

    fn fake_kernel(
        name: &str,
        home: u8,
        baseline: u64,
        variants: Vec<(PatchConfig, u64)>,
    ) -> AppKernel {
        AppKernel {
            name: name.into(),
            home: TileId(home),
            variants: KernelVariants {
                name: name.into(),
                baseline: Program::default(),
                baseline_cycles: baseline,
                variants: variants
                    .into_iter()
                    .map(|(c, cy)| fake_variant(c, cy))
                    .collect(),
            },
        }
    }

    #[test]
    fn baseline_grants_nothing() {
        let kernels = vec![fake_kernel(
            "k",
            0,
            1000,
            vec![(PatchConfig::Single(PatchClass::AtMa), 500)],
        )];
        let plan = stitch_application(&kernels, &ChipConfig::stitch_16(), Arch::Baseline);
        assert_eq!(plan.accelerated(), 0);
    }

    #[test]
    fn locus_grants_everyone_with_variant() {
        let kernels = vec![
            fake_kernel("a", 0, 1000, vec![(PatchConfig::Locus, 800)]),
            fake_kernel("b", 1, 900, vec![(PatchConfig::Locus, 950)]), // slower: skip
        ];
        let plan = stitch_application(&kernels, &ChipConfig::locus_16(), Arch::Locus);
        assert_eq!(plan.accelerated(), 1);
        assert!(plan.accel[0].is_some());
        assert!(plan.accel[1].is_none());
    }

    #[test]
    fn bottleneck_gets_patch_and_relocates() {
        let cfg = ChipConfig::stitch_16();
        // Tile 1 is {AT-AS}; kernel b (the bottleneck) wants one.
        let kernels = vec![
            fake_kernel("a", 0, 500, vec![]),
            fake_kernel(
                "b",
                3,
                2000,
                vec![(PatchConfig::Single(PatchClass::AtAs), 700)],
            ),
        ];
        let plan = stitch_application(&kernels, &cfg, Arch::Stitch);
        assert_eq!(plan.accelerated(), 1);
        let t = plan.tiles[1];
        assert_eq!(cfg.patches[t.index()], Some(PatchClass::AtAs));
    }

    #[test]
    fn fused_pair_reserves_circuit() {
        let cfg = ChipConfig::stitch_16();
        let kernels = vec![fake_kernel(
            "hot",
            0,
            10_000,
            vec![(PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa), 3000)],
        )];
        let plan = stitch_application(&kernels, &cfg, Arch::Stitch);
        assert_eq!(plan.fused(), 1);
        assert_eq!(plan.circuits.len(), 1);
        let a = plan.accel[0].expect("granted");
        assert!(a.partner.is_some());
        assert!(a.hops >= 1);
    }

    #[test]
    fn no_fusion_arch_rejects_pairs() {
        let cfg = ChipConfig::stitch_16();
        let kernels = vec![fake_kernel(
            "hot",
            0,
            10_000,
            vec![
                (PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa), 3000),
                (PatchConfig::Single(PatchClass::AtMa), 5000),
            ],
        )];
        let plan = stitch_application(&kernels, &cfg, Arch::StitchNoFusion);
        assert_eq!(plan.fused(), 0);
        assert_eq!(plan.accelerated(), 1);
        assert_eq!(
            plan.accel[0].unwrap().config,
            PatchConfig::Single(PatchClass::AtMa)
        );
    }

    #[test]
    fn patches_are_not_double_allocated() {
        let cfg = ChipConfig::stitch_16();
        // Five kernels all want {AT-AS}; only four exist.
        let kernels: Vec<AppKernel> = (0..5)
            .map(|i| {
                fake_kernel(
                    &format!("k{i}"),
                    i,
                    1000 + u64::from(i),
                    vec![(PatchConfig::Single(PatchClass::AtAs), 400)],
                )
            })
            .collect();
        let plan = stitch_application(&kernels, &cfg, Arch::Stitch);
        assert_eq!(plan.accelerated(), 4, "only four {{AT-AS}} patches exist");
        // All accelerated kernels sit on distinct {AT-AS} tiles.
        let mut seen = Vec::new();
        for (i, a) in plan.accel.iter().enumerate() {
            if a.is_some() {
                let t = plan.tiles[i];
                assert_eq!(cfg.patches[t.index()], Some(PatchClass::AtAs));
                assert!(!seen.contains(&t));
                seen.push(t);
            }
        }
    }

    #[test]
    fn masked_patch_is_never_allocated() {
        let cfg = ChipConfig::stitch_16();
        let kernels = vec![fake_kernel(
            "k",
            0,
            1000,
            vec![(PatchConfig::Single(PatchClass::AtAs), 400)],
        )];
        // Mask every {AT-AS} tile but one: the kernel must land there.
        let atas = cfg.tiles_with(PatchClass::AtAs);
        let (last, masked) = atas.split_last().expect("four {AT-AS} patches");
        let plan = stitch_application_masked(&kernels, &cfg, Arch::Stitch, masked);
        assert_eq!(plan.accelerated(), 1);
        assert_eq!(plan.tiles[0], *last);

        // Mask all of them: the kernel stays in software.
        let plan = stitch_application_masked(&kernels, &cfg, Arch::Stitch, &atas);
        assert_eq!(plan.accelerated(), 0);
        assert!(plan.log.iter().any(|l| l.contains("masked out")));
    }

    #[test]
    fn masked_partner_downgrades_fused_pair() {
        let cfg = ChipConfig::stitch_16();
        // The kernel prefers a fused pair but keeps a single fallback;
        // masking every second-class patch must force the single.
        let kernels = vec![fake_kernel(
            "hot",
            0,
            10_000,
            vec![
                (PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa), 3000),
                (PatchConfig::Single(PatchClass::AtMa), 5000),
            ],
        )];
        let masked = cfg.tiles_with(PatchClass::AtSa);
        let plan = stitch_application_masked(&kernels, &cfg, Arch::Stitch, &masked);
        assert_eq!(plan.fused(), 0);
        assert_eq!(plan.accelerated(), 1);
        assert_eq!(
            plan.accel[0].expect("granted").config,
            PatchConfig::Single(PatchClass::AtMa)
        );
        assert!(plan.circuits.is_empty());
    }

    #[test]
    fn empty_mask_matches_unmasked_plan() {
        let cfg = ChipConfig::stitch_16();
        let kernels = vec![fake_kernel(
            "hot",
            0,
            10_000,
            vec![(PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa), 3000)],
        )];
        let a = stitch_application(&kernels, &cfg, Arch::Stitch);
        let b = stitch_application_masked(&kernels, &cfg, Arch::Stitch, &[]);
        assert_eq!(a.tiles, b.tiles);
        assert_eq!(a.accel, b.accel);
        assert_eq!(a.circuits, b.circuits);
    }

    #[test]
    fn render_mentions_fusion() {
        let cfg = ChipConfig::stitch_16();
        let kernels = vec![fake_kernel(
            "fft",
            0,
            10_000,
            vec![(PatchConfig::Pair(PatchClass::AtMa, PatchClass::AtSa), 3000)],
        )];
        let plan = stitch_application(&kernels, &cfg, Arch::Stitch);
        let txt = plan.render(&kernels);
        assert!(txt.contains("fft"));
        assert!(txt.contains("fused with"));
    }
}
