//! Set-associative write-back cache (tag/timing model).

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Block (line) size in bytes; must be a power of two.
    pub block_bytes: u32,
}

impl CacheConfig {
    /// The paper's 8 KB 2-way instruction cache with 64 B blocks.
    #[must_use]
    pub fn icache_8k() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            ways: 2,
            block_bytes: 64,
        }
    }

    /// The paper's 4 KB 2-way data cache (Stitch tiles).
    #[must_use]
    pub fn dcache_4k() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024,
            ways: 2,
            block_bytes: 64,
        }
    }

    /// The baseline's 8 KB 2-way data cache (no SPM).
    #[must_use]
    pub fn dcache_8k() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            ways: 2,
            block_bytes: 64,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two block size
    /// or capacity not divisible by `ways * block_bytes`).
    #[must_use]
    pub fn sets(&self) -> u32 {
        assert!(
            self.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(self.ways > 0 && self.size_bytes > 0);
        let sets = self.size_bytes / (self.ways * self.block_bytes);
        assert!(
            sets.is_power_of_two() && sets * self.ways * self.block_bytes == self.size_bytes,
            "inconsistent cache geometry"
        );
        sets
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty blocks evicted (write-backs to DRAM).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when no accesses happened.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One cache way; a [`CacheSnapshot`] holds these verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Line {
    /// Block resident.
    pub valid: bool,
    /// Block modified since fill.
    pub dirty: bool,
    /// Address tag.
    pub tag: u32,
    /// Monotonic timestamp of the last touch, for LRU.
    pub lru: u64,
}

/// Snapshot of one cache way: the live [`Line`] itself.
pub use self::Line as LineSnapshot;

/// Full residency/timing snapshot of a [`Cache`]: every line (including
/// LRU timestamps — replacement order is part of the simulator's
/// bit-identical equivalence contract), counters, and the LRU clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// All lines, in `set * ways + way` order.
    pub lines: Vec<Line>,
    /// Counters at capture time.
    pub stats: CacheStats,
    /// LRU clock at capture time.
    pub tick: u64,
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the block was resident.
    pub hit: bool,
    /// Block address written back to memory on eviction, if any.
    pub writeback: Option<u32>,
    /// Access latency in cycles (hit latency or hit+DRAM).
    pub latency: u32,
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// This models residency and timing; data contents live in the tile's
/// backing store (see crate docs for why that is exact here).
///
/// ```
/// use stitch_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::dcache_4k());
/// assert!(!c.access(0x100, false).hit);  // cold miss
/// assert!(c.access(0x104, false).hit);   // same 64B block
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    set_mask: u32,
    block_shift: u32,
}

impl Cache {
    /// Creates a cold cache with the given geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            sets: vec![Line::default(); (sets * cfg.ways) as usize],
            stats: CacheStats::default(),
            tick: 0,
            set_mask: sets - 1,
            block_shift: cfg.block_bytes.trailing_zeros(),
        }
    }

    /// Geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Access counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (not residency).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_range(&self, addr: u32) -> (usize, usize, u32) {
        let block = addr >> self.block_shift;
        let set = block & self.set_mask;
        let tag = block >> self.set_mask.count_ones();
        let start = (set * self.cfg.ways) as usize;
        (start, start + self.cfg.ways as usize, tag)
    }

    /// Performs one access; `write` marks the block dirty.
    ///
    /// On a miss the block is allocated (write-allocate) and the LRU way
    /// evicted, reporting a write-back when the victim was dirty.
    pub fn access(&mut self, addr: u32, write: bool) -> Lookup {
        self.tick += 1;
        self.stats.accesses += 1;
        let (start, end, tag) = self.set_range(addr);

        // Hit path.
        for line in &mut self.sets[start..end] {
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                line.dirty |= write;
                self.stats.hits += 1;
                return Lookup {
                    hit: true,
                    writeback: None,
                    latency: crate::HIT_LATENCY,
                };
            }
        }

        // Miss: evict LRU way. A degenerate zero-way geometry has no
        // line to allocate into — every access is a straight DRAM miss.
        self.stats.misses += 1;
        let Some(victim_idx) = (start..end).min_by_key(|&i| (self.sets[i].valid, self.sets[i].lru))
        else {
            return Lookup {
                hit: false,
                writeback: None,
                latency: crate::HIT_LATENCY + crate::DRAM_LATENCY,
            };
        };
        let victim = self.sets[victim_idx];
        let writeback = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            let set_index = (victim_idx / self.cfg.ways as usize) as u32;
            Some(((victim.tag << self.set_mask.count_ones()) | set_index) << self.block_shift)
        } else {
            None
        };
        self.sets[victim_idx] = Line {
            valid: true,
            dirty: write,
            tag,
            lru: self.tick,
        };
        Lookup {
            hit: false,
            writeback,
            latency: crate::HIT_LATENCY + crate::DRAM_LATENCY,
        }
    }

    /// Registers `times` repetitions of the access sequence `addrs` (all
    /// reads), which must every one be resident — exactly as if
    /// `access(addr, false)` had been called in that interleaving.
    ///
    /// Used by the simulator's event-driven fast path to batch a waiting
    /// core's identical instruction re-fetches without replaying them.
    /// The caller guarantees residency (the sequence was executed at
    /// least once immediately before); a non-resident address is
    /// defensively skipped — its LRU timestamp simply stays stale.
    pub fn record_repeat_hits(&mut self, addrs: &[u32], times: u64) {
        if times == 0 || addrs.is_empty() {
            return;
        }
        let total = addrs.len() as u64 * times;
        let base_tick = self.tick;
        self.tick += total;
        self.stats.accesses += total;
        self.stats.hits += total;
        // Only the final repetition's timestamps survive; assigning them
        // in sequence order reproduces duplicate-block updates too.
        let last_round = base_tick + addrs.len() as u64 * (times - 1);
        for (j, &addr) in addrs.iter().enumerate() {
            let (start, end, tag) = self.set_range(addr);
            let Some(line) = self.sets[start..end]
                .iter_mut()
                .find(|l| l.valid && l.tag == tag)
            else {
                continue;
            };
            line.lru = last_round + j as u64 + 1;
        }
    }

    /// Returns `true` if the block containing `addr` is resident (no state
    /// change, no stats).
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        let (start, end, tag) = self.set_range(addr);
        self.sets[start..end]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates everything, discarding dirty state (used when reloading
    /// a tile between experiment runs).
    pub fn flush(&mut self) {
        for line in &mut self.sets {
            *line = Line::default();
        }
    }

    /// Captures residency, LRU order and counters.
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            lines: self.sets.clone(),
            stats: self.stats,
            tick: self.tick,
        }
    }

    /// Restores a snapshot captured from a cache with the same geometry
    /// (the chip validates geometry before restoring; a mismatched line
    /// count is a caller bug and panics).
    pub fn restore(&mut self, snap: &CacheSnapshot) {
        self.sets.copy_from_slice(&snap.lines);
        self.stats = snap.stats;
        self.tick = snap.tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::icache_8k().sets(), 64);
        assert_eq!(CacheConfig::dcache_4k().sets(), 32);
        assert_eq!(CacheConfig::dcache_8k().sets(), 64);
    }

    #[test]
    #[should_panic(expected = "inconsistent cache geometry")]
    fn bad_geometry_panics() {
        let _ = CacheConfig {
            size_bytes: 3000,
            ways: 2,
            block_bytes: 64,
        }
        .sets();
    }

    #[test]
    fn spatial_locality_hits() {
        let mut c = Cache::new(CacheConfig::dcache_4k());
        assert!(!c.access(0x000, false).hit);
        for off in (4..64).step_by(4) {
            assert!(c.access(off, false).hit, "same block at offset {off}");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 15);
    }

    #[test]
    fn lru_within_set() {
        let cfg = CacheConfig::dcache_4k(); // 32 sets, 2 ways, 64B blocks
        let mut c = Cache::new(cfg);
        let stride = cfg.block_bytes * cfg.sets(); // same set, different tags
        c.access(0, false); // tag A
        c.access(stride, false); // tag B
        c.access(0, false); // touch A -> B is LRU
        c.access(2 * stride, false); // evicts B
        assert!(c.probe(0), "A stays resident");
        assert!(!c.probe(stride), "B evicted");
        assert!(c.probe(2 * stride));
    }

    #[test]
    fn writeback_address_reconstruction() {
        let cfg = CacheConfig::dcache_4k();
        let mut c = Cache::new(cfg);
        let stride = cfg.block_bytes * cfg.sets();
        let dirty_addr = 5 * cfg.block_bytes + 8; // set 5, dirtied
        c.access(dirty_addr, true);
        c.access(dirty_addr + stride, false); // fill the other way
        let evict = c.access(dirty_addr + 2 * stride, false); // evict dirty
        assert_eq!(evict.writeback, Some(5 * cfg.block_bytes));
    }

    #[test]
    fn miss_latency_includes_dram() {
        let mut c = Cache::new(CacheConfig::dcache_4k());
        assert_eq!(
            c.access(0, false).latency,
            crate::HIT_LATENCY + crate::DRAM_LATENCY
        );
        assert_eq!(c.access(0, false).latency, crate::HIT_LATENCY);
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(CacheConfig::dcache_4k());
        c.access(0x40, true);
        assert!(c.probe(0x40));
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn miss_rate() {
        let mut c = Cache::new(CacheConfig::dcache_4k());
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    /// Deterministic xorshift32 driving the randomized cases below (the
    /// offline sandbox has no `proptest`).
    fn xorshift(state: &mut u32) -> u32 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        *state = x;
        x
    }

    /// The working set fits in the cache => after a warm-up pass every
    /// subsequent access hits (no conflict surprises under LRU for a
    /// working set no larger than one way span per set).
    #[test]
    fn small_working_set_always_hits() {
        for seed in 1u32..=48 {
            let mut s = seed.wrapping_mul(0x9E37_79B9) | 1;
            let len = 1 + (xorshift(&mut s) as usize) % 15;
            let blocks: Vec<u32> = (0..len).map(|_| xorshift(&mut s) % 32).collect();
            let cfg = CacheConfig::dcache_4k();
            let mut c = Cache::new(cfg);
            // Use distinct sets (block index < #sets) so each block maps alone.
            let mut uniq = blocks;
            uniq.sort_unstable();
            uniq.dedup();
            for &b in &uniq {
                c.access(b * cfg.block_bytes, false);
            }
            for &b in &uniq {
                assert!(
                    c.access(b * cfg.block_bytes, true).hit,
                    "seed {seed} block {b}"
                );
            }
        }
    }

    /// Stats always balance: hits + misses == accesses.
    #[test]
    fn stats_balance() {
        for seed in 1u32..=48 {
            let mut s = seed.wrapping_mul(0x0051_7CC1) | 1;
            let len = 1 + (xorshift(&mut s) as usize) % 199;
            let addrs: Vec<u32> = (0..len).map(|_| xorshift(&mut s) % 0x10_0000).collect();
            let mut c = Cache::new(CacheConfig::dcache_4k());
            for (i, a) in addrs.iter().enumerate() {
                c.access(*a, i % 3 == 0);
            }
            let st = c.stats();
            assert_eq!(st.hits + st.misses, st.accesses, "seed {seed}");
            assert_eq!(st.accesses, addrs.len() as u64, "seed {seed}");
        }
    }
}
