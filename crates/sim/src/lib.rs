//! # The Stitch chip simulator
//!
//! Cycle-level model of the 16-tile prototype (paper Fig 2): each tile has
//! an in-order core (`stitch-cpu`), private caches + scratchpad
//! (`stitch-mem`), an optional polymorphic patch, and a NIC on the
//! buffered inter-core mesh; the patches are interconnected by the
//! compiler-scheduled bufferless network (`stitch-noc`).
//!
//! The main type is [`Chip`]: load one program per tile (with its
//! custom-instruction [`CiBinding`]s produced by the compiler/stitcher),
//! reserve inter-patch circuits, then [`Chip::run`] until every core
//! halts. The returned [`RunSummary`] carries per-tile and chip-level
//! statistics consumed by the power model and the benchmark harness.
//!
//! ```
//! use stitch_sim::{Chip, ChipConfig};
//! use stitch_isa::{ProgramBuilder, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut chip = Chip::new(ChipConfig::stitch_16());
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::R1, 7);
//! b.li(Reg::R2, 0x1000);
//! b.sw(Reg::R1, Reg::R2, 0);
//! b.halt();
//! chip.load_program(stitch_noc::TileId(0), &b.build()?)?;
//! let summary = chip.run(1_000_000)?;
//! assert!(summary.cycles > 0);
//! assert_eq!(chip.peek_u32(stitch_noc::TileId(0), 0x1000), 7);
//! # Ok(())
//! # }
//! ```

pub mod chip;
pub mod faults;
pub mod snapshot;
pub mod summary;

pub use chip::{
    Blocked, BlockedOp, BudgetResource, Chip, CiBinding, FaultedKind, RunBudget, SimError,
    TranslationStats,
};
pub use faults::FaultStats;
pub use snapshot::{ChipSnapshot, FaultRuntimeSnapshot, SnapshotError};
pub use summary::{RunSummary, TileSummary};

pub use stitch_fault::{FaultEvent, FaultKind, FaultPlan, FaultSpace, SimRng};
pub use stitch_noc::{TileId, Topology};
pub use stitch_trace::{
    to_chrome_trace, EventKind, EventMask, JsonValue, TileWindow, TraceCapture, TraceConfig,
    TraceEvent, TraceWindows, Tracer, WindowMetrics, NO_PARTNER,
};

use stitch_isa::custom::PatchClass;
use stitch_mem::TileMemoryConfig;

/// Clock frequency of the prototype in Hz (paper: 200 MHz).
pub const CLOCK_HZ: u64 = 200_000_000;

/// Architecture variants evaluated in the paper (§VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// 16-core message-passing chip without any ISE acceleration; larger
    /// 8 KB D-cache instead of an SPM.
    Baseline,
    /// One conventional LOCUS-style SFU per core (no load/store inside
    /// custom instructions, no fusion).
    Locus,
    /// Stitch patches, local use only (no fusion).
    StitchNoFusion,
    /// Full Stitch: heterogeneous patches plus fusion over the
    /// compiler-scheduled NoC.
    Stitch,
}

impl Arch {
    /// All four variants, in the paper's presentation order.
    pub const ALL: [Arch; 4] = [
        Arch::Baseline,
        Arch::Locus,
        Arch::StitchNoFusion,
        Arch::Stitch,
    ];

    /// Display name used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Arch::Baseline => "baseline",
            Arch::Locus => "LOCUS",
            Arch::StitchNoFusion => "Stitch w/o fusion",
            Arch::Stitch => "Stitch",
        }
    }

    /// Whether fused (two-patch) custom instructions are permitted.
    #[must_use]
    pub fn allows_fusion(self) -> bool {
        self == Arch::Stitch
    }

    /// Whether custom instructions may contain load/store (T) operations.
    #[must_use]
    pub fn allows_memory_ops(self) -> bool {
        matches!(self, Arch::Stitch | Arch::StitchNoFusion)
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Static configuration of a chip instance.
#[derive(Debug, Clone)]
pub struct ChipConfig {
    /// Mesh geometry.
    pub topo: Topology,
    /// Per-tile memory geometry.
    pub tile_mem: TileMemoryConfig,
    /// Patch class per tile (`None` = no accelerator).
    pub patches: Vec<Option<PatchClass>>,
}

impl ChipConfig {
    /// The paper's heterogeneous 16-tile layout: 8 `{AT-MA}`,
    /// 4 `{AT-AS}`, 4 `{AT-SA}` interleaved so that every class is
    /// reachable within a short fused path from anywhere (Fig 2).
    #[must_use]
    pub fn stitch_16() -> Self {
        use PatchClass::{AtAs, AtMa, AtSa};
        let layout = [
            AtMa, AtAs, AtMa, AtSa, //
            AtAs, AtMa, AtSa, AtMa, //
            AtMa, AtSa, AtMa, AtAs, //
            AtSa, AtMa, AtAs, AtMa,
        ];
        ChipConfig {
            topo: Topology::stitch_4x4(),
            tile_mem: TileMemoryConfig::stitch(),
            patches: layout.into_iter().map(Some).collect(),
        }
    }

    /// Baseline 16-tile chip: no patches, 8 KB D-cache.
    #[must_use]
    pub fn baseline_16() -> Self {
        ChipConfig {
            topo: Topology::stitch_4x4(),
            tile_mem: TileMemoryConfig::baseline(),
            patches: vec![None; 16],
        }
    }

    /// LOCUS 16-tile chip: one identical SFU per core, baseline memory
    /// (the SFU has no LMAU, so the D-cache stays at 8 KB).
    #[must_use]
    pub fn locus_16() -> Self {
        ChipConfig {
            topo: Topology::stitch_4x4(),
            tile_mem: TileMemoryConfig::baseline(),
            patches: vec![Some(PatchClass::LocusSfu); 16],
        }
    }

    /// Configuration for an architecture variant.
    #[must_use]
    pub fn for_arch(arch: Arch) -> Self {
        match arch {
            Arch::Baseline => Self::baseline_16(),
            Arch::Locus => Self::locus_16(),
            Arch::StitchNoFusion | Arch::Stitch => Self::stitch_16(),
        }
    }

    /// Tiles whose patch is of `class`.
    #[must_use]
    pub fn tiles_with(&self, class: PatchClass) -> Vec<TileId> {
        self.patches
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == Some(class))
            .map(|(i, _)| TileId(i as u8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_patch_mix() {
        let cfg = ChipConfig::stitch_16();
        assert_eq!(cfg.tiles_with(PatchClass::AtMa).len(), 8);
        assert_eq!(cfg.tiles_with(PatchClass::AtAs).len(), 4);
        assert_eq!(cfg.tiles_with(PatchClass::AtSa).len(), 4);
    }

    #[test]
    fn arch_capabilities() {
        assert!(!Arch::Baseline.allows_fusion());
        assert!(!Arch::Locus.allows_memory_ops());
        assert!(!Arch::StitchNoFusion.allows_fusion());
        assert!(Arch::StitchNoFusion.allows_memory_ops());
        assert!(Arch::Stitch.allows_fusion());
        assert_eq!(Arch::Stitch.name(), "Stitch");
    }

    #[test]
    fn baseline_has_bigger_dcache() {
        let b = ChipConfig::baseline_16();
        assert_eq!(b.tile_mem.dcache.size_bytes, 8 * 1024);
        assert!(!b.tile_mem.has_spm);
        let s = ChipConfig::stitch_16();
        assert_eq!(s.tile_mem.dcache.size_bytes, 4 * 1024);
        assert!(s.tile_mem.has_spm);
    }
}
