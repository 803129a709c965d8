//! Sparse DRAM backing store.

use std::collections::HashMap;
use stitch_isa::FastBuildHasher;

const PAGE_BITS: u32 = 12;
/// Bytes per DRAM page (the granularity of allocation and snapshots).
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Resident pages by page index. Every simulated load/store resolves a
/// page, so the default SipHash would be a measurable per-instruction
/// cost; page indices are small dense integers for which the workspace's
/// multiplicative [`stitch_isa::FastHasher`] distributes fine.
type PageMap = HashMap<u32, Box<[u8; PAGE_SIZE]>, FastBuildHasher>;

/// A sparsely allocated, byte-addressable main memory.
///
/// Reads of untouched memory return zero; pages are allocated on first
/// write. Word accesses are little-endian and need not be aligned (the
/// sequencer in `TileMemory` enforces alignment policy).
///
/// ```
/// use stitch_mem::Dram;
/// let mut d = Dram::new();
/// d.write_u32(0x1000, 0xDEAD_BEEF);
/// assert_eq!(d.read_u32(0x1000), 0xDEAD_BEEF);
/// assert_eq!(d.read_u8(0x1000), 0xEF); // little endian
/// assert_eq!(d.read_u32(0xFFFF_0000), 0); // untouched
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dram {
    pages: PageMap,
}

/// Sparse copy of a [`Dram`]'s resident pages, sorted by page index,
/// produced by [`Dram::snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramSnapshot {
    /// `(page index, page contents)` pairs in ascending page order.
    pub pages: Vec<(u32, Box<[u8; PAGE_SIZE]>)>,
}

impl Dram {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Dram {
            pages: PageMap::default(),
        }
    }

    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_BITS)).map(AsRef::as_ref)
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_BITS)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Captures a full (but sparse) copy of every resident page.
    #[must_use]
    pub fn snapshot(&self) -> DramSnapshot {
        let mut pages: Vec<_> = self.pages.iter().map(|(k, v)| (*k, v.clone())).collect();
        pages.sort_unstable_by_key(|(k, _)| *k);
        DramSnapshot { pages }
    }

    /// Replaces the entire memory contents with a snapshot's pages.
    /// Pages allocated after the snapshot are dropped (absent pages read
    /// as zero, identical to their pre-allocation behaviour).
    pub fn restore(&mut self, snap: &DramSnapshot) {
        self.pages.clear();
        for (idx, contents) in &snap.pages {
            self.pages.insert(*idx, contents.clone());
        }
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let page = self.page_mut(addr);
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a 16-bit little-endian value.
    #[must_use]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from(self.read_u8(addr)) | (u16::from(self.read_u8(addr.wrapping_add(1))) << 8)
    }

    /// Writes a 16-bit little-endian value.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_u8(addr, value as u8);
        self.write_u8(addr.wrapping_add(1), (value >> 8) as u8);
    }

    /// Reads a 32-bit little-endian value.
    #[must_use]
    pub fn read_u32(&self, addr: u32) -> u32 {
        // Fast path when the word sits inside one page.
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                return u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]);
            }
            return 0;
        }
        (0..4).fold(0u32, |acc, i| {
            acc | (u32::from(self.read_u8(addr.wrapping_add(i))) << (8 * i))
        })
    }

    /// Writes a 32-bit little-endian value.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[off..off + 4].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Copies a slice of words into memory starting at `base`.
    pub fn load_words(&mut self, base: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(base.wrapping_add((i * 4) as u32), *w);
        }
    }

    /// Reads `count` consecutive words starting at `base`.
    #[must_use]
    pub fn read_words(&self, base: u32, count: usize) -> Vec<u32> {
        (0..count)
            .map(|i| self.read_u32(base.wrapping_add((i * 4) as u32)))
            .collect()
    }

    /// Number of resident 4 KB pages (for footprint assertions in tests).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let d = Dram::new();
        assert_eq!(d.read_u32(0), 0);
        assert_eq!(d.read_u8(u32::MAX), 0);
        assert_eq!(d.resident_pages(), 0);
    }

    #[test]
    fn byte_and_word_consistency() {
        let mut d = Dram::new();
        d.write_u32(100, 0x0403_0201);
        assert_eq!(d.read_u8(100), 1);
        assert_eq!(d.read_u8(101), 2);
        assert_eq!(d.read_u8(102), 3);
        assert_eq!(d.read_u8(103), 4);
        assert_eq!(d.read_u16(100), 0x0201);
        assert_eq!(d.read_u16(102), 0x0403);
    }

    #[test]
    fn cross_page_word() {
        let mut d = Dram::new();
        let addr = (1 << PAGE_BITS) - 2; // spans two pages
        d.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(d.read_u32(addr), 0xAABB_CCDD);
        assert_eq!(d.resident_pages(), 2);
    }

    #[test]
    fn bulk_words() {
        let mut d = Dram::new();
        d.load_words(0x400, &[1, 2, 3, 4]);
        assert_eq!(d.read_words(0x400, 4), vec![1, 2, 3, 4]);
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

    #[test]
    fn write_read_round_trip() {
        let mut s = 0xDEAD_BEEF;
        for _ in 0..256 {
            let addr = xorshift(&mut s) % 0x2000_0000;
            let value = xorshift(&mut s);
            let mut d = Dram::new();
            d.write_u32(addr, value);
            assert_eq!(d.read_u32(addr), value, "addr {addr:#x}");
        }
    }

    #[test]
    fn snapshot_refresh_copies_only_dirty_pages() {
        // A fresh capture after more writes holds every written page,
        // old and new, and restoring it drops pages allocated later.
        let mut d = Dram::new();
        d.write_u32(0x0000, 1);
        d.write_u32(0x5000, 2);
        assert_eq!(d.snapshot().pages.len(), 2);
        d.write_u32(0x5000, 3); // rewrite an existing page
        d.write_u32(0x9000, 4); // allocate a new page
        let snap = d.snapshot();
        assert_eq!(snap.pages.len(), 3);
        let mut fresh = Dram::new();
        fresh.restore(&snap);
        assert_eq!(fresh.read_u32(0x0000), 1);
        assert_eq!(fresh.read_u32(0x5000), 3);
        assert_eq!(fresh.read_u32(0x9000), 4);
        d.write_u32(0xF000, 9);
        d.restore(&snap);
        assert_eq!(d.read_u32(0xF000), 0);
        assert_eq!(d.resident_pages(), 3);
    }

    #[test]
    fn refresh_after_restore_stays_consistent() {
        // snapshot -> restore -> snapshot is the identity, and a capture
        // after restore reflects the restored image, not the pages
        // written before it.
        let mut d = Dram::new();
        d.write_u32(0x1000, 7);
        let snap = d.snapshot();
        d.write_u32(0x1000, 6);
        d.write_u32(0x2000, 8);
        d.restore(&snap);
        assert_eq!(d.snapshot(), snap);
        d.write_u32(0x3000, 9);
        let later = d.snapshot();
        assert_eq!(later.pages.len(), 2);
        assert_eq!(later.pages[0], snap.pages[0]);
    }

    #[test]
    fn disjoint_writes_do_not_interfere() {
        let mut s = 0x1234_5678;
        let mut cases = 0;
        while cases < 256 {
            let a = xorshift(&mut s) % 1_000_000;
            let b = xorshift(&mut s) % 1_000_000;
            if a.abs_diff(b) < 4 {
                continue;
            }
            cases += 1;
            let (va, vb) = (xorshift(&mut s), xorshift(&mut s));
            let mut d = Dram::new();
            d.write_u32(a, va);
            d.write_u32(b, vb);
            assert_eq!(d.read_u32(a), va, "a={a:#x} b={b:#x}");
            assert_eq!(d.read_u32(b), vb, "a={a:#x} b={b:#x}");
        }
    }
}
