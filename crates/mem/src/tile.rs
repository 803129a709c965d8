//! Per-tile memory sequencer: routes core/patch accesses to SPM,
//! crossbar-configuration registers or cached DRAM.

use crate::cache::{Cache, CacheConfig};
use crate::dram::Dram;
use crate::spm::Spm;
use stitch_isa::instr::Width;
use stitch_isa::memmap;

/// Whether an access came from instruction fetch or the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (I-cache).
    Fetch,
    /// Data load/store (D-cache / SPM / MMIO).
    Data,
}

/// Result of a data access: the value (for loads) and the cycle cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResult {
    /// Loaded value (zero for stores).
    pub value: u32,
    /// Latency in cycles, including any DRAM penalty.
    pub latency: u32,
    /// Set when the access wrote a crossbar configuration register; the
    /// chip routes it to the inter-patch NoC switch. `(switch_index, value)`.
    pub xbar_write: Option<(u32, u32)>,
}

impl MemResult {
    /// Whether the access paid a miss penalty. SPM and crossbar accesses
    /// are always single-cycle, so any latency above [`crate::HIT_LATENCY`]
    /// is a cache miss — the same predicate the cache's own miss counter
    /// uses, which keeps observers reconcilable with [`crate::CacheStats`].
    #[must_use]
    pub fn is_miss(&self) -> bool {
        self.latency > crate::HIT_LATENCY
    }
}

/// Cache geometry selection for one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileMemoryConfig {
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
    /// Data-cache geometry.
    pub dcache: CacheConfig,
    /// Whether the tile has an SPM (Stitch tiles: yes; the baseline
    /// trades the SPM for a larger D-cache, paper §VI-B).
    pub has_spm: bool,
}

impl TileMemoryConfig {
    /// Stitch tile: 8 KB I$, 4 KB D$, 4 KB SPM.
    #[must_use]
    pub fn stitch() -> Self {
        TileMemoryConfig {
            icache: CacheConfig::icache_8k(),
            dcache: CacheConfig::dcache_4k(),
            has_spm: true,
        }
    }

    /// Baseline tile: 8 KB I$, 8 KB D$, no SPM.
    #[must_use]
    pub fn baseline() -> Self {
        TileMemoryConfig {
            icache: CacheConfig::icache_8k(),
            dcache: CacheConfig::dcache_8k(),
            has_spm: false,
        }
    }
}

/// One tile's private memory system.
///
/// ```
/// use stitch_mem::{TileMemory, TileMemoryConfig};
/// use stitch_isa::instr::Width;
/// use stitch_isa::memmap::SPM_BASE;
///
/// let mut m = TileMemory::new(TileMemoryConfig::stitch());
/// m.store(0x1000, 42, Width::Word);
/// assert_eq!(m.load(0x1000, Width::Word).value, 42);
/// // SPM accesses always cost one cycle.
/// m.store(SPM_BASE + 8, 7, Width::Word);
/// assert_eq!(m.load(SPM_BASE + 8, Width::Word).latency, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TileMemory {
    cfg: TileMemoryConfig,
    dram: Dram,
    icache: Cache,
    dcache: Cache,
    spm: Spm,
}

impl TileMemory {
    /// Creates a cold tile memory.
    #[must_use]
    pub fn new(cfg: TileMemoryConfig) -> Self {
        TileMemory {
            cfg,
            dram: Dram::new(),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            spm: Spm::new(),
        }
    }

    /// Configuration used to build this memory.
    #[must_use]
    pub fn config(&self) -> TileMemoryConfig {
        self.cfg
    }

    /// Latency of fetching the instruction word at byte address `addr`.
    pub fn fetch(&mut self, addr: u32) -> u32 {
        self.icache.access(addr, false).latency
    }

    /// Registers `times` repeated re-fetches of the `words`-word
    /// instruction at byte address `addr` (all icache hits), as if
    /// [`TileMemory::fetch`] had been called for each word each time.
    /// Backs the simulator's batched recv-poll fast path.
    pub fn record_repeat_fetches(&mut self, addr: u32, words: u32, times: u64) {
        let mut addrs = [0u32; 4];
        let words = (words as usize).min(addrs.len());
        for (w, slot) in addrs[..words].iter_mut().enumerate() {
            *slot = addr + (w as u32) * 4;
        }
        self.icache.record_repeat_hits(&addrs[..words], times);
    }

    /// Performs a data load.
    pub fn load(&mut self, addr: u32, w: Width) -> MemResult {
        if self.cfg.has_spm && memmap::is_spm(addr) {
            let off = addr - memmap::SPM_BASE;
            let value = match w {
                Width::Byte => u32::from(self.spm.read_u8(off)),
                Width::Half => u32::from(self.spm.read_u16(off)),
                Width::Word => self.spm.read_u32(off),
            };
            return MemResult {
                value,
                latency: crate::HIT_LATENCY,
                xbar_write: None,
            };
        }
        let lookup = self.dcache.access(addr, false);
        let value = match w {
            Width::Byte => u32::from(self.dram.read_u8(addr)),
            Width::Half => u32::from(self.dram.read_u16(addr)),
            Width::Word => self.dram.read_u32(addr),
        };
        MemResult {
            value,
            latency: lookup.latency,
            xbar_write: None,
        }
    }

    /// Performs a data store.
    pub fn store(&mut self, addr: u32, value: u32, w: Width) -> MemResult {
        if memmap::is_xbar_cfg(addr) {
            let index = (addr - memmap::XBAR_CFG_BASE) / 4;
            return MemResult {
                value: 0,
                latency: crate::HIT_LATENCY,
                xbar_write: Some((index, value)),
            };
        }
        if self.cfg.has_spm && memmap::is_spm(addr) {
            let off = addr - memmap::SPM_BASE;
            match w {
                Width::Byte => self.spm.write_u8(off, value as u8),
                Width::Half => self.spm.write_u16(off, value as u16),
                Width::Word => self.spm.write_u32(off, value),
            }
            return MemResult {
                value: 0,
                latency: crate::HIT_LATENCY,
                xbar_write: None,
            };
        }
        let lookup = self.dcache.access(addr, true);
        match w {
            Width::Byte => self.dram.write_u8(addr, value as u8),
            Width::Half => self.dram.write_u16(addr, value as u16),
            Width::Word => self.dram.write_u32(addr, value),
        }
        MemResult {
            value: 0,
            latency: lookup.latency,
            xbar_write: None,
        }
    }

    /// Direct SPM access for the patch LMAU (one cycle, part of the custom
    /// instruction's single-cycle execution — no stall accounting here).
    pub fn spm_lmau_load(&mut self, offset: u32) -> u32 {
        self.spm.read_u32(offset)
    }

    /// Direct SPM store for the patch LMAU.
    pub fn spm_lmau_store(&mut self, offset: u32, value: u32) {
        self.spm.write_u32(offset, value);
    }

    /// Host-side (zero-cost) memory write used to load programs and inputs.
    pub fn poke_words(&mut self, base: u32, words: &[u32]) {
        if self.cfg.has_spm && memmap::is_spm(base) {
            self.spm.load_words(base - memmap::SPM_BASE, words);
        } else {
            self.dram.load_words(base, words);
        }
    }

    /// Host-side memory read used to extract results.
    #[must_use]
    pub fn peek_words(&mut self, base: u32, count: usize) -> Vec<u32> {
        if self.cfg.has_spm && memmap::is_spm(base) {
            (0..count)
                .map(|i| self.spm.read_u32(base - memmap::SPM_BASE + (i * 4) as u32))
                .collect()
        } else {
            self.dram.read_words(base, count)
        }
    }

    /// Host-side single-word read.
    #[must_use]
    pub fn peek_u32(&mut self, addr: u32) -> u32 {
        self.peek_words(addr, 1)[0]
    }

    /// Instruction-cache statistics.
    #[must_use]
    pub fn icache_stats(&self) -> crate::CacheStats {
        self.icache.stats()
    }

    /// Data-cache statistics.
    #[must_use]
    pub fn dcache_stats(&self) -> crate::CacheStats {
        self.dcache.stats()
    }

    /// SPM `(reads, writes)` counters.
    #[must_use]
    pub fn spm_counts(&self) -> (u64, u64) {
        self.spm.access_counts()
    }

    /// Number of DRAM pages this tile has materialized (the SPM is a
    /// fixed-size array and never grows). This is the per-tile input to
    /// the chip-level memory-page budget.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.dram.resident_pages()
    }

    /// Captures a full snapshot of the tile's memory system (DRAM pages
    /// sparsely, caches and SPM whole).
    #[must_use]
    pub fn snapshot(&self) -> TileMemorySnapshot {
        TileMemorySnapshot {
            dram: self.dram.snapshot(),
            icache: self.icache.snapshot(),
            dcache: self.dcache.snapshot(),
            spm: self.spm.snapshot(),
        }
    }

    /// Checks that `snap` fits this memory's geometry: the SPM image is
    /// exactly the SPM's size and each cache holds exactly one line per
    /// way of every set. Snapshots are untrusted input, so a clean pass
    /// here is the precondition for [`TileMemory::restore`].
    ///
    /// # Errors
    ///
    /// The name of the first mismatched component.
    pub fn check_snapshot(&self, snap: &TileMemorySnapshot) -> Result<(), &'static str> {
        let lines = |c: CacheConfig| (c.sets() * c.ways) as usize;
        if snap.spm.data.len() != self.spm.size() as usize {
            return Err("SPM image length");
        }
        if snap.icache.lines.len() != lines(self.cfg.icache) {
            return Err("icache line count");
        }
        if snap.dcache.lines.len() != lines(self.cfg.dcache) {
            return Err("dcache line count");
        }
        Ok(())
    }

    /// Restores a snapshot that passed [`TileMemory::check_snapshot`].
    pub fn restore(&mut self, snap: &TileMemorySnapshot) {
        self.dram.restore(&snap.dram);
        self.icache.restore(&snap.icache);
        self.dcache.restore(&snap.dcache);
        self.spm.restore(&snap.spm);
    }
}

/// Snapshot of one tile's memory system: sparse DRAM pages, both cache
/// tag/LRU arrays (with counters), and SPM contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMemorySnapshot {
    /// Backing DRAM pages (sparse, sorted).
    pub dram: crate::DramSnapshot,
    /// Instruction-cache residency and counters.
    pub icache: crate::CacheSnapshot,
    /// Data-cache residency and counters.
    pub dcache: crate::CacheSnapshot,
    /// Scratchpad contents and counters.
    pub spm: crate::SpmSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_spm_window() {
        let mut m = TileMemory::new(TileMemoryConfig::stitch());
        m.store(memmap::SPM_BASE + 4, 99, Width::Word);
        assert_eq!(m.load(memmap::SPM_BASE + 4, Width::Word).value, 99);
        // SPM traffic must not touch the D-cache.
        assert_eq!(m.dcache_stats().accesses, 0);
        assert_eq!(m.spm_counts(), (1, 1));
    }

    #[test]
    fn baseline_has_no_spm_window() {
        let mut m = TileMemory::new(TileMemoryConfig::baseline());
        // Without an SPM the window is ordinary (cached) memory.
        m.store(memmap::SPM_BASE + 4, 5, Width::Word);
        assert_eq!(m.load(memmap::SPM_BASE + 4, Width::Word).value, 5);
        assert!(m.dcache_stats().accesses >= 2);
    }

    #[test]
    fn xbar_writes_are_intercepted() {
        let mut m = TileMemory::new(TileMemoryConfig::stitch());
        let r = m.store(memmap::XBAR_CFG_BASE + 8, 0xABCD, Width::Word);
        assert_eq!(r.xbar_write, Some((2, 0xABCD)));
        // And do not land in DRAM.
        assert_eq!(m.peek_u32(memmap::XBAR_CFG_BASE + 8), 0);
    }

    #[test]
    fn dram_miss_then_hit_latency() {
        let mut m = TileMemory::new(TileMemoryConfig::stitch());
        let miss = m.load(0x2000, Width::Word);
        let hit = m.load(0x2004, Width::Word);
        assert_eq!(miss.latency, crate::HIT_LATENCY + crate::DRAM_LATENCY);
        assert_eq!(hit.latency, crate::HIT_LATENCY);
    }

    #[test]
    fn lmau_path_reads_spm() {
        let mut m = TileMemory::new(TileMemoryConfig::stitch());
        m.poke_words(memmap::SPM_BASE, &[11, 22]);
        assert_eq!(m.spm_lmau_load(4), 22);
        m.spm_lmau_store(8, 33);
        assert_eq!(m.peek_u32(memmap::SPM_BASE + 8), 33);
    }

    #[test]
    fn fetch_uses_icache() {
        let mut m = TileMemory::new(TileMemoryConfig::stitch());
        assert_eq!(m.fetch(0x100), crate::HIT_LATENCY + crate::DRAM_LATENCY);
        assert_eq!(m.fetch(0x104), crate::HIT_LATENCY);
        assert_eq!(m.icache_stats().accesses, 2);
    }

    #[test]
    fn byte_and_half_widths() {
        let mut m = TileMemory::new(TileMemoryConfig::stitch());
        m.store(0x3000, 0xAABBCCDD, Width::Word);
        assert_eq!(m.load(0x3000, Width::Byte).value, 0xDD);
        assert_eq!(m.load(0x3002, Width::Half).value, 0xAABB);
        m.store(0x3001, 0x11, Width::Byte);
        assert_eq!(m.load(0x3000, Width::Word).value, 0xAABB11DD);
    }
}
