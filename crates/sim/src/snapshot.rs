//! Deterministic chip checkpoints: capture, restore, and a versioned
//! binary codec for disk persistence.
//!
//! A [`ChipSnapshot`] is the complete dynamic state of a [`crate::Chip`]
//! mid-run: every core's architectural state, every tile's memory image
//! (sparse DRAM pages, cache tag/LRU arrays, scratchpad), both networks
//! (buffered flits, wormhole ownership, reassemblies, reserved circuits
//! and switch configurations), the chip's scheduling bookkeeping, and
//! the fault runtime (plan, component deadlines, counters). Program
//! *text* and custom-instruction bindings are load-time artifacts and
//! deliberately excluded: a snapshot restores into a chip that has the
//! same programs loaded, which [`crate::Chip::restore`] validates.
//!
//! The on-disk format is written with the workspace's one record codec,
//! [`stitch_isa::rec`] ([`Rec`]/[`RecView`]): an 8-byte magic, a version
//! word, the mesh topology, then the state in a fixed field order, all
//! little-endian. Decoding is total — truncated, oversized, or corrupt
//! inputs surface as a typed [`SnapshotError`] (the codec's
//! [`DecodeError`] mapped onto `Truncated`/`Corrupt`/`TrailingBytes`),
//! never a panic — and every collection count is checked against the
//! remaining input ([`RecView::seq_len`]) before allocation.

use crate::faults::FaultStats;
use crate::{TileId, Topology};
use std::fmt;
use stitch_cpu::{CoreSnapshot, CoreState, CoreStats};
use stitch_fault::{FaultKind, FaultPlan};
use stitch_isa::rec::{DecodeError, OrCorrupt, Rec, RecView};
use stitch_mem::{
    CacheSnapshot, CacheStats, DramSnapshot, LineSnapshot, SpmSnapshot, TileMemorySnapshot,
    PAGE_SIZE,
};
use stitch_noc::{
    Circuit, FlitSnapshot, MeshError, MeshSnapshot, MeshStats, Message, PatchNetError,
    PatchNetSnapshot, PortDir, ReassemblySnapshot, RouterSnapshot,
};

/// Magic prefix of the on-disk snapshot format.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"STCHSNAP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be decoded or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is newer/older than this build understands.
    UnsupportedVersion {
        /// Version word found in the header.
        found: u32,
    },
    /// The input ended before the encoded state was complete.
    Truncated,
    /// Bytes remain after the last encoded field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A field holds a value outside its domain (bad enum tag, an
    /// impossible length, a boolean that is neither 0 nor 1, ...).
    Corrupt {
        /// Which field was malformed.
        what: &'static str,
    },
    /// The snapshot was captured on a chip with a different mesh.
    TopologyMismatch {
        /// `(width, height)` of the restoring chip.
        expected: (u8, u8),
        /// `(width, height)` recorded in the snapshot.
        found: (u8, u8),
    },
    /// The snapshot is internally consistent but does not fit the chip
    /// it is being restored into (missing program, wrong vector sizes).
    Mismatch {
        /// What did not line up.
        what: &'static str,
    },
    /// The inter-patch network rejected the recorded configuration.
    PatchNet(PatchNetError),
    /// The mesh rejected the recorded network state.
    Mesh(MeshError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a chip snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot")
            }
            SnapshotError::Corrupt { what } => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::TopologyMismatch { expected, found } => write!(
                f,
                "snapshot topology {}x{} does not match chip {}x{}",
                found.0, found.1, expected.0, expected.1
            ),
            SnapshotError::Mismatch { what } => {
                write!(f, "snapshot does not fit this chip: {what}")
            }
            SnapshotError::PatchNet(e) => write!(f, "snapshot patch-net state rejected: {e}"),
            SnapshotError::Mesh(e) => write!(f, "snapshot mesh state rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<PatchNetError> for SnapshotError {
    fn from(e: PatchNetError) -> Self {
        SnapshotError::PatchNet(e)
    }
}

impl From<MeshError> for SnapshotError {
    fn from(e: MeshError) -> Self {
        SnapshotError::Mesh(e)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => SnapshotError::Truncated,
            DecodeError::Corrupt { what } => SnapshotError::Corrupt { what },
            DecodeError::TrailingBytes { extra } => SnapshotError::TrailingBytes { extra },
        }
    }
}

/// Snapshot of the fault runtime: the installed plan plus every piece of
/// replay-visible state (the chip-managed rollback arming flag and the
/// transient pending-mask queue are excluded — both are empty/derived at
/// every checkpoint boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRuntimeSnapshot {
    /// The installed fault plan (events sorted by cycle).
    pub plan: FaultPlan,
    /// Index of the next unapplied event.
    pub next: u64,
    /// Per tile: patch down while `cycle < patch_down_until`.
    pub patch_down_until: Vec<u64>,
    /// Per tile: switch down while `cycle < switch_down_until`.
    pub switch_down_until: Vec<u64>,
    /// Per tile: rollback mask deadline for the patch.
    pub patch_mask_until: Vec<u64>,
    /// Per tile: rollback mask deadline for the switch.
    pub switch_mask_until: Vec<u64>,
    /// Per tile: a config upset awaits its scrub.
    pub config_upset: Vec<bool>,
    /// `(tile, ci)` pairs that already paid the watchdog cost (sorted).
    pub watchdog_tripped: Vec<(u8, u16)>,
    /// Counters at capture time.
    pub stats: FaultStats,
}

/// Complete dynamic state of a chip at one cycle boundary.
///
/// Captured by [`crate::Chip::checkpoint`], reinstalled by
/// [`crate::Chip::restore`], persisted with [`ChipSnapshot::encode`] /
/// [`ChipSnapshot::decode`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSnapshot {
    /// Mesh geometry of the captured chip (restore is refused into a
    /// chip with a different topology).
    pub topo: Topology,
    /// Simulation cycle at capture time.
    pub cycle: u64,
    /// Per-tile core state (`None` = no program loaded on that tile).
    pub cores: Vec<Option<CoreSnapshot>>,
    /// Per-tile memory images.
    pub mems: Vec<TileMemorySnapshot>,
    /// Inter-core mesh state.
    pub mesh: MeshSnapshot,
    /// Inter-patch network state (switch words + reserved circuits).
    pub patchnet: PatchNetSnapshot,
    /// Per-tile: cycle until which the core is executing its current
    /// instruction.
    pub busy_until: Vec<u64>,
    /// Per-tile: source tile of a parked `recv`, if blocked.
    pub waiting_on: Vec<Option<u32>>,
    /// Per-tile patch activation counters.
    pub activations: Vec<u64>,
    /// Dropped crossbar-configuration writes so far.
    pub xbar_errors: u64,
    /// The fast path's cached earliest wake-up.
    pub next_wake: u64,
    /// Cycles elided by the fast path so far (diagnostic).
    pub skipped: u64,
    /// Fault runtime, when a plan is installed.
    pub faults: Option<FaultRuntimeSnapshot>,
}

impl ChipSnapshot {
    /// Serializes into the versioned binary format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Rec::new();
        w.raw(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u8(self.topo.width);
        w.u8(self.topo.height);
        w.u64(self.cycle);
        w.u64(self.xbar_errors);
        w.u64(self.next_wake);
        w.u64(self.skipped);
        w.u32(self.cores.len() as u32);
        for core in &self.cores {
            match core {
                None => w.u8(0),
                Some(c) => {
                    w.u8(1);
                    put_core(&mut w, c);
                }
            }
        }
        w.u32(self.mems.len() as u32);
        for m in &self.mems {
            put_tile_memory(&mut w, m);
        }
        w.u64s(&self.busy_until);
        w.u32(self.waiting_on.len() as u32);
        for slot in &self.waiting_on {
            match slot {
                None => w.u8(0),
                Some(src) => {
                    w.u8(1);
                    w.u32(*src);
                }
            }
        }
        w.u64s(&self.activations);
        put_mesh(&mut w, &self.mesh);
        put_patchnet(&mut w, &self.patchnet);
        match &self.faults {
            None => w.u8(0),
            Some(fr) => {
                w.u8(1);
                put_fault_runtime(&mut w, fr);
            }
        }
        w.into_bytes()
    }

    /// Parses the versioned binary format.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] decoding variant; never panics on malformed
    /// input.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut d = RecView::new(bytes);
        if d.bytes(8)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let topo = Topology {
            width: d.u8()?,
            height: d.u8()?,
        };
        let cycle = d.u64()?;
        let xbar_errors = d.u64()?;
        let next_wake = d.u64()?;
        let skipped = d.u64()?;
        let n_cores = d.seq_len(1, "core count")?;
        let mut cores = Vec::with_capacity(n_cores);
        for _ in 0..n_cores {
            cores.push(match d.tag("core presence")? {
                false => None,
                true => Some(get_core(&mut d)?),
            });
        }
        let n_mems = d.seq_len(1, "memory count")?;
        let mut mems = Vec::with_capacity(n_mems);
        for _ in 0..n_mems {
            mems.push(get_tile_memory(&mut d)?);
        }
        let busy_until = d.u64s()?;
        let n_waiting = d.seq_len(1, "waiting_on count")?;
        let mut waiting_on = Vec::with_capacity(n_waiting);
        for _ in 0..n_waiting {
            waiting_on.push(match d.tag("waiting_on presence")? {
                false => None,
                true => Some(d.u32()?),
            });
        }
        let activations = d.u64s()?;
        let mesh = get_mesh(&mut d)?;
        let patchnet = get_patchnet(&mut d)?;
        let faults = match d.tag("fault runtime presence")? {
            false => None,
            true => Some(get_fault_runtime(&mut d)?),
        };
        d.finish()?;
        Ok(ChipSnapshot {
            topo,
            cycle,
            cores,
            mems,
            mesh,
            patchnet,
            busy_until,
            waiting_on,
            activations,
            xbar_errors,
            next_wake,
            skipped,
            faults,
        })
    }
}

// ---------------------------------------------------------------------
// Writers.

fn put_core(w: &mut Rec, c: &CoreSnapshot) {
    for r in &c.regs {
        w.u32(*r);
    }
    w.u32(c.pc);
    w.u8(match c.state {
        CoreState::Running => 0,
        CoreState::Halted => 1,
    });
    put_core_stats(w, &c.stats);
}

fn put_core_stats(w: &mut Rec, s: &CoreStats) {
    for v in [
        s.cycles,
        s.instructions,
        s.alu_ops,
        s.mul_ops,
        s.mem_ops,
        s.custom_ops,
        s.fused_ops,
        s.demoted_ops,
        s.branches,
        s.branches_taken,
        s.fetch_stall_cycles,
        s.mem_stall_cycles,
        s.recv_wait_cycles,
        s.words_sent,
        s.words_received,
    ] {
        w.u64(v);
    }
}

fn put_cache_stats(w: &mut Rec, s: &CacheStats) {
    for v in [s.accesses, s.hits, s.misses, s.writebacks] {
        w.u64(v);
    }
}

fn put_tile_memory(w: &mut Rec, m: &TileMemorySnapshot) {
    put_dram(w, &m.dram);
    put_cache(w, &m.icache);
    put_cache(w, &m.dcache);
    put_spm(w, &m.spm);
}

fn put_dram(w: &mut Rec, d: &DramSnapshot) {
    w.u32(d.pages.len() as u32);
    for (idx, page) in &d.pages {
        w.u32(*idx);
        w.raw(&page[..]);
    }
}

fn put_cache(w: &mut Rec, c: &CacheSnapshot) {
    w.u32(c.lines.len() as u32);
    for line in &c.lines {
        w.u8(u8::from(line.valid) | (u8::from(line.dirty) << 1));
        w.u32(line.tag);
        w.u64(line.lru);
    }
    put_cache_stats(w, &c.stats);
    w.u64(c.tick);
}

fn put_spm(w: &mut Rec, s: &SpmSnapshot) {
    w.blob(&s.data);
    w.u64(s.reads);
    w.u64(s.writes);
}

fn put_flit(w: &mut Rec, f: &FlitSnapshot) {
    w.u8(f.dst.0);
    w.u8(f.src.0);
    w.u8(u8::from(f.is_head) | (u8::from(f.is_tail) << 1));
    w.u32(f.word);
    w.u64(f.msg_id);
    w.u32(f.msg_len);
    w.u64(f.injected_at);
    w.u64(f.ready_at);
}

fn put_flits(w: &mut Rec, flits: &[FlitSnapshot]) {
    w.u32(flits.len() as u32);
    for f in flits {
        put_flit(w, f);
    }
}

fn put_mesh(w: &mut Rec, m: &MeshSnapshot) {
    w.u32(m.routers.len() as u32);
    for r in &m.routers {
        for port in &r.inputs {
            put_flits(w, port);
        }
        for owner in &r.out_owner {
            w.u8(owner.unwrap_or(0xFF));
        }
        w.raw(&r.rr);
    }
    w.u32(m.inject.len() as u32);
    for tile in &m.inject {
        w.u32(tile.len() as u32);
        for packet in tile {
            put_flits(w, packet);
        }
    }
    w.u32(m.assembling.len() as u32);
    for tile in &m.assembling {
        w.u32(tile.len() as u32);
        for asm in tile {
            w.u8(asm.src.0);
            w.u64(asm.msg_id);
            w.u32(asm.expected);
            w.words(&asm.words);
        }
    }
    w.u32(m.delivered.len() as u32);
    for tile in &m.delivered {
        w.u32(tile.len() as u32);
        for msg in tile {
            w.u8(msg.src.0);
            w.words(&msg.words);
        }
    }
    for v in [
        m.stats.packets_sent,
        m.stats.packets_delivered,
        m.stats.flit_hops,
        m.stats.total_packet_latency,
    ] {
        w.u64(v);
    }
    w.u64(m.cycle);
    w.u64(m.next_msg_id);
    w.u32(m.link_down_until.len() as u32);
    for dirs in &m.link_down_until {
        for v in dirs {
            w.u64(*v);
        }
    }
    w.u8(u8::from(m.any_link_faults));
    w.u64(m.stalled_ticks);
}

fn put_patchnet(w: &mut Rec, p: &PatchNetSnapshot) {
    w.words(&p.switches);
    w.u32(p.circuits.len() as u32);
    for c in &p.circuits {
        w.u8(c.from.0);
        w.u8(c.to.0);
        w.u32(c.tiles.len() as u32);
        for t in &c.tiles {
            w.u8(t.0);
        }
        w.u32(c.hops);
    }
}

fn put_fault_runtime(w: &mut Rec, fr: &FaultRuntimeSnapshot) {
    w.u64(fr.plan.seed());
    w.u8(u8::from(fr.plan.degrade()));
    w.u32(fr.plan.events().len() as u32);
    for ev in fr.plan.events() {
        w.u64(ev.cycle);
        match &ev.kind {
            FaultKind::PatchFail { tile, until } => {
                w.u8(0);
                w.u8(tile.0);
                put_opt_u64(w, *until);
            }
            FaultKind::SwitchFail { tile, until } => {
                w.u8(1);
                w.u8(tile.0);
                put_opt_u64(w, *until);
            }
            FaultKind::ConfigUpset { tile } => {
                w.u8(2);
                w.u8(tile.0);
            }
            FaultKind::MeshLinkFail { tile, dir, until } => {
                w.u8(3);
                w.u8(tile.0);
                w.u8(dir.code() as u8);
                put_opt_u64(w, *until);
            }
        }
    }
    w.u64(fr.next);
    w.u64s(&fr.patch_down_until);
    w.u64s(&fr.switch_down_until);
    w.u64s(&fr.patch_mask_until);
    w.u64s(&fr.switch_mask_until);
    w.u32(fr.config_upset.len() as u32);
    for b in &fr.config_upset {
        w.u8(u8::from(*b));
    }
    w.u32(fr.watchdog_tripped.len() as u32);
    for (tile, ci) in &fr.watchdog_tripped {
        w.u8(*tile);
        w.u16(*ci);
    }
    for v in [
        fr.stats.injected,
        fr.stats.demotions,
        fr.stats.watchdog_trips,
        fr.stats.scrubs,
        fr.stats.rollbacks,
    ] {
        w.u64(v);
    }
}

fn put_opt_u64(w: &mut Rec, v: Option<u64>) {
    match v {
        None => w.u8(0),
        Some(x) => {
            w.u8(1);
            w.u64(x);
        }
    }
}

// ---------------------------------------------------------------------
// Readers.

fn get_core(d: &mut RecView<'_>) -> Result<CoreSnapshot, DecodeError> {
    let mut regs = [0u32; 32];
    for r in &mut regs {
        *r = d.u32()?;
    }
    let pc = d.u32()?;
    let state = match d.tag("core state")? {
        false => CoreState::Running,
        true => CoreState::Halted,
    };
    let stats = get_core_stats(d)?;
    Ok(CoreSnapshot {
        regs,
        pc,
        state,
        stats,
    })
}

fn get_core_stats(d: &mut RecView<'_>) -> Result<CoreStats, DecodeError> {
    Ok(CoreStats {
        cycles: d.u64()?,
        instructions: d.u64()?,
        alu_ops: d.u64()?,
        mul_ops: d.u64()?,
        mem_ops: d.u64()?,
        custom_ops: d.u64()?,
        fused_ops: d.u64()?,
        demoted_ops: d.u64()?,
        branches: d.u64()?,
        branches_taken: d.u64()?,
        fetch_stall_cycles: d.u64()?,
        mem_stall_cycles: d.u64()?,
        recv_wait_cycles: d.u64()?,
        words_sent: d.u64()?,
        words_received: d.u64()?,
    })
}

fn get_cache_stats(d: &mut RecView<'_>) -> Result<CacheStats, DecodeError> {
    Ok(CacheStats {
        accesses: d.u64()?,
        hits: d.u64()?,
        misses: d.u64()?,
        writebacks: d.u64()?,
    })
}

fn get_tile_memory(d: &mut RecView<'_>) -> Result<TileMemorySnapshot, DecodeError> {
    Ok(TileMemorySnapshot {
        dram: get_dram(d)?,
        icache: get_cache(d)?,
        dcache: get_cache(d)?,
        spm: get_spm(d)?,
    })
}

fn get_dram(d: &mut RecView<'_>) -> Result<DramSnapshot, DecodeError> {
    let n = d.seq_len(4 + PAGE_SIZE, "dram page count")?;
    let mut pages = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = d.u32()?;
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page.copy_from_slice(d.bytes(PAGE_SIZE)?);
        pages.push((idx, page));
    }
    Ok(DramSnapshot { pages })
}

/// Two flag bits (bit 0, bit 1) packed in one byte; anything above is
/// corruption.
fn get_flags(d: &mut RecView<'_>, what: &'static str) -> Result<(bool, bool), DecodeError> {
    let flags = d.u8()?;
    if flags > 3 {
        return Err(DecodeError::Corrupt { what });
    }
    Ok((flags & 1 != 0, flags & 2 != 0))
}

fn get_cache(d: &mut RecView<'_>) -> Result<CacheSnapshot, DecodeError> {
    let n = d.seq_len(13, "cache line count")?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        let (valid, dirty) = get_flags(d, "cache line flags")?;
        lines.push(LineSnapshot {
            valid,
            dirty,
            tag: d.u32()?,
            lru: d.u64()?,
        });
    }
    Ok(CacheSnapshot {
        lines,
        stats: get_cache_stats(d)?,
        tick: d.u64()?,
    })
}

fn get_spm(d: &mut RecView<'_>) -> Result<SpmSnapshot, DecodeError> {
    Ok(SpmSnapshot {
        data: d.blob()?.into(),
        reads: d.u64()?,
        writes: d.u64()?,
    })
}

fn get_flit(d: &mut RecView<'_>) -> Result<FlitSnapshot, DecodeError> {
    let dst = TileId(d.u8()?);
    let src = TileId(d.u8()?);
    let (is_head, is_tail) = get_flags(d, "flit flags")?;
    Ok(FlitSnapshot {
        dst,
        src,
        is_head,
        is_tail,
        word: d.u32()?,
        msg_id: d.u64()?,
        msg_len: d.u32()?,
        injected_at: d.u64()?,
        ready_at: d.u64()?,
    })
}

fn get_flits(d: &mut RecView<'_>) -> Result<Vec<FlitSnapshot>, DecodeError> {
    let n = d.seq_len(34, "flit count")?;
    (0..n).map(|_| get_flit(d)).collect()
}

fn get_mesh(d: &mut RecView<'_>) -> Result<MeshSnapshot, DecodeError> {
    let n_routers = d.seq_len(1, "router count")?;
    let mut routers = Vec::with_capacity(n_routers);
    for _ in 0..n_routers {
        let mut router = RouterSnapshot::default();
        for port in &mut router.inputs {
            *port = get_flits(d)?;
        }
        for owner in &mut router.out_owner {
            *owner = match d.u8()? {
                0xFF => None,
                p => Some(p),
            };
        }
        let rr = d.bytes(router.rr.len())?;
        router.rr.copy_from_slice(rr);
        routers.push(router);
    }
    let n_inject = d.seq_len(4, "inject tile count")?;
    let mut inject = Vec::with_capacity(n_inject);
    for _ in 0..n_inject {
        let n_packets = d.seq_len(4, "inject packet count")?;
        let mut packets = Vec::with_capacity(n_packets);
        for _ in 0..n_packets {
            packets.push(get_flits(d)?);
        }
        inject.push(packets);
    }
    let n_asm_tiles = d.seq_len(4, "reassembly tile count")?;
    let mut assembling = Vec::with_capacity(n_asm_tiles);
    for _ in 0..n_asm_tiles {
        let n_asm = d.seq_len(17, "reassembly count")?;
        let mut tile = Vec::with_capacity(n_asm);
        for _ in 0..n_asm {
            tile.push(ReassemblySnapshot {
                src: TileId(d.u8()?),
                msg_id: d.u64()?,
                expected: d.u32()?,
                words: d.words()?,
            });
        }
        assembling.push(tile);
    }
    let n_del_tiles = d.seq_len(4, "delivered tile count")?;
    let mut delivered = Vec::with_capacity(n_del_tiles);
    for _ in 0..n_del_tiles {
        let n_msgs = d.seq_len(5, "delivered message count")?;
        let mut tile = Vec::with_capacity(n_msgs);
        for _ in 0..n_msgs {
            tile.push(Message {
                src: TileId(d.u8()?),
                words: d.words()?,
            });
        }
        delivered.push(tile);
    }
    let stats = MeshStats {
        packets_sent: d.u64()?,
        packets_delivered: d.u64()?,
        flit_hops: d.u64()?,
        total_packet_latency: d.u64()?,
    };
    let cycle = d.u64()?;
    let next_msg_id = d.u64()?;
    let n_links = d.seq_len(32, "link fault count")?;
    let mut link_down_until = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        let mut dirs = [0u64; 4];
        for v in &mut dirs {
            *v = d.u64()?;
        }
        link_down_until.push(dirs);
    }
    let any_link_faults = d.tag("any_link_faults")?;
    let stalled_ticks = d.u64()?;
    Ok(MeshSnapshot {
        routers,
        inject,
        assembling,
        delivered,
        stats,
        cycle,
        next_msg_id,
        link_down_until,
        any_link_faults,
        stalled_ticks,
    })
}

fn get_patchnet(d: &mut RecView<'_>) -> Result<PatchNetSnapshot, DecodeError> {
    let switches = d.words()?;
    let n = d.seq_len(10, "circuit count")?;
    let mut circuits = Vec::with_capacity(n);
    for _ in 0..n {
        let from = TileId(d.u8()?);
        let to = TileId(d.u8()?);
        let n_tiles = d.seq_len(1, "circuit tile count")?;
        let tiles = d.bytes(n_tiles)?.iter().map(|b| TileId(*b)).collect();
        circuits.push(Circuit {
            from,
            to,
            tiles,
            hops: d.u32()?,
        });
    }
    Ok(PatchNetSnapshot { switches, circuits })
}

fn get_fault_runtime(d: &mut RecView<'_>) -> Result<FaultRuntimeSnapshot, DecodeError> {
    let seed = d.u64()?;
    let degrade = d.tag("fault plan mode")?;
    let mut plan = FaultPlan::new(seed);
    if !degrade {
        plan = plan.strict();
    }
    let n_events = d.seq_len(10, "fault event count")?;
    for _ in 0..n_events {
        let cycle = d.u64()?;
        let kind = match d.u8()? {
            0 => FaultKind::PatchFail {
                tile: TileId(d.u8()?),
                until: get_opt_u64(d)?,
            },
            1 => FaultKind::SwitchFail {
                tile: TileId(d.u8()?),
                until: get_opt_u64(d)?,
            },
            2 => FaultKind::ConfigUpset {
                tile: TileId(d.u8()?),
            },
            3 => FaultKind::MeshLinkFail {
                tile: TileId(d.u8()?),
                dir: *PortDir::ALL
                    .get(usize::from(d.u8()?))
                    .or_corrupt("link fault direction")?,
                until: get_opt_u64(d)?,
            },
            _ => return Err(DecodeError::corrupt("fault kind tag")),
        };
        plan.push(cycle, kind);
    }
    let next = d.u64()?;
    let patch_down_until = d.u64s()?;
    let switch_down_until = d.u64s()?;
    let patch_mask_until = d.u64s()?;
    let switch_mask_until = d.u64s()?;
    let n_upsets = d.seq_len(1, "config upset count")?;
    let mut config_upset = Vec::with_capacity(n_upsets);
    for _ in 0..n_upsets {
        config_upset.push(d.tag("config upset flag")?);
    }
    let n_watchdog = d.seq_len(3, "watchdog entry count")?;
    let mut watchdog_tripped = Vec::with_capacity(n_watchdog);
    for _ in 0..n_watchdog {
        watchdog_tripped.push((d.u8()?, d.u16()?));
    }
    let stats = FaultStats {
        injected: d.u64()?,
        demotions: d.u64()?,
        watchdog_trips: d.u64()?,
        scrubs: d.u64()?,
        rollbacks: d.u64()?,
    };
    Ok(FaultRuntimeSnapshot {
        plan,
        next,
        patch_down_until,
        switch_down_until,
        patch_mask_until,
        switch_mask_until,
        config_upset,
        watchdog_tripped,
        stats,
    })
}

fn get_opt_u64(d: &mut RecView<'_>) -> Result<Option<u64>, DecodeError> {
    Ok(match d.tag("optional u64")? {
        false => None,
        true => Some(d.u64()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> ChipSnapshot {
        use crate::{Chip, ChipConfig};
        Chip::new(ChipConfig::stitch_16()).checkpoint()
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = tiny_snapshot();
        let bytes = snap.encode();
        let back = ChipSnapshot::decode(&bytes).unwrap();
        assert_eq!(snap, back);
    }

    /// Pins the writer byte for byte: a committed fuzz-corpus snapshot
    /// (a mid-run chip with dirty pages, flits in flight and a fault
    /// plan) must re-encode to exactly the bytes it was decoded from.
    #[test]
    fn committed_snapshot_re_encodes_byte_for_byte() {
        let bytes = include_bytes!("../../fuzz/corpus/snapshot/snap-ok-1.bin");
        let snap = ChipSnapshot::decode(bytes).expect("committed snapshot decodes");
        assert_eq!(snap.encode(), bytes.as_slice());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = tiny_snapshot().encode();
        bytes[0] ^= 0xFF;
        assert_eq!(ChipSnapshot::decode(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut bytes = tiny_snapshot().encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            ChipSnapshot::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn every_truncation_is_typed_never_panics() {
        let bytes = tiny_snapshot().encode();
        // Chop the snapshot at every prefix length; each must fail with a
        // typed error (mostly Truncated, occasionally Corrupt when a
        // length field is cut mid-value).
        for len in 0..bytes.len() {
            let err = ChipSnapshot::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::Corrupt { .. }
                        | SnapshotError::BadMagic
                ),
                "prefix {len}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut bytes = tiny_snapshot().encode();
        bytes.extend_from_slice(&[0, 1, 2]);
        assert_eq!(
            ChipSnapshot::decode(&bytes),
            Err(SnapshotError::TrailingBytes { extra: 3 })
        );
    }

    #[test]
    fn corrupt_length_cannot_cause_huge_allocation() {
        let bytes = tiny_snapshot().encode();
        // Overwrite the core-count length word with u32::MAX; decode must
        // reject it before allocating.
        let off = 8 + 4 + 2 + 8 * 4; // magic + version + topo + 4 u64 header fields
        let mut evil = bytes.clone();
        evil[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ChipSnapshot::decode(&evil).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            SnapshotError::BadMagic.to_string(),
            "not a chip snapshot (bad magic)"
        );
        let e = SnapshotError::TopologyMismatch {
            expected: (4, 4),
            found: (2, 2),
        };
        assert_eq!(
            e.to_string(),
            "snapshot topology 2x2 does not match chip 4x4"
        );
    }
}
