//! The 16-tile chip: cores, memories, patches and both networks.

use crate::faults::{
    FaultRuntime, FaultStats, PendingMask, Rung, MESH_STALL_TICKS, WATCHDOG_RETRIES,
    WATCHDOG_TIMEOUT_CYCLES,
};
use crate::snapshot::{ChipSnapshot, SnapshotError};
use crate::summary::{RunSummary, TileSummary};
use crate::{ChipConfig, TileId};
use std::collections::HashMap;
use std::fmt;
use stitch_cpu::{
    Core, CoreState, CpuError, CustomOutcome, LaneHost, PatchFaultKind, Platform, StepOutcome,
    TransCache, WindowParams, MUL_LATENCY,
};
use stitch_fault::{FaultKind, FaultPlan};
use stitch_isa::custom::CiId;
use stitch_isa::instr::Width;
use stitch_isa::memmap;
use stitch_isa::program::Program;
use stitch_mem::{TileMemory, HIT_LATENCY};
use stitch_noc::mesh::{Mesh, MeshConfig};
use stitch_noc::{PatchNet, PatchNetError};
use stitch_patch::{
    eval_fused, eval_single, fused_path_legal, software_cycles, ControlWord, SpmPort,
};
use stitch_trace::{TraceCapture, TraceConfig, TraceEvent, Tracer, NO_PARTNER};

/// Where a custom instruction executes, as decided by the stitcher.
#[derive(Debug, Clone, PartialEq)]
pub enum CiBinding {
    /// A single patch on the issuing tile.
    Single {
        /// Decoded control word (class must match the tile's patch).
        control: ControlWord,
    },
    /// A fused pair: the issuing tile's patch plus a remote patch reached
    /// through a reserved inter-patch circuit.
    Fused {
        /// Control word of the local (first) patch.
        first: ControlWord,
        /// The remote tile providing the second patch.
        partner: TileId,
        /// Control word of the remote (second) patch.
        second: ControlWord,
    },
}

impl CiBinding {
    /// The remote tile of a fused pair; `None` for a single patch.
    pub(crate) fn partner(&self) -> Option<TileId> {
        match self {
            CiBinding::Single { .. } => None,
            CiBinding::Fused { partner, .. } => Some(*partner),
        }
    }
}

/// Index of `ci`'s entry in a tile's binding table (sorted by CI id),
/// shared by the interpreter and translated windows. The compiler
/// numbers a program's custom instructions `0..n`, so entry `ci` is
/// probed first; hand-built tables with gaps fall back to a binary
/// search.
fn binding_slot(bindings: &[(u16, CiBinding)], ci: CiId) -> Option<usize> {
    let at = usize::from(ci.0);
    match bindings.get(at) {
        Some((id, _)) if *id == ci.0 => Some(at),
        _ => bindings.binary_search_by_key(&ci.0, |(id, _)| *id).ok(),
    }
}

/// Simulator errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A core faulted.
    Cpu {
        /// Faulting tile.
        tile: TileId,
        /// Underlying error.
        error: CpuError,
    },
    /// `max_cycles` elapsed before every core halted.
    Timeout {
        /// The cycle budget that was exhausted.
        max_cycles: u64,
    },
    /// Every running core is blocked in `recv` with no traffic in flight.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// The blocked tiles and what each is waiting for.
        waiting: Vec<Blocked>,
    },
    /// A custom-instruction binding is inconsistent with the chip.
    BadBinding {
        /// Tile being loaded.
        tile: TileId,
        /// Explanation.
        reason: String,
    },
    /// Inter-patch network error (reservation conflicts etc.).
    PatchNet(PatchNetError),
    /// An injected hardware fault was detected and the active
    /// [`FaultPlan`] forbids graceful degradation (strict mode), or the
    /// mesh was wedged by link faults.
    Faulted {
        /// Tile where the fault was detected.
        tile: TileId,
        /// Cycle of detection.
        cycle: u64,
        /// What was found broken.
        kind: FaultedKind,
    },
    /// A runtime self-check failed: the chip could not restore its own
    /// rollback checkpoint — a simulator bug, not a modelled fault.
    InvariantViolation {
        /// Which component's invariant broke (`"rollback"`).
        component: &'static str,
        /// Cycle at which the check failed.
        cycle: u64,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A hard cap installed via [`Chip::set_budget`] was exceeded. This
    /// is the sandbox verdict for untrusted guest programs: the run is
    /// cut off with a typed error instead of a wall-clock kill, and
    /// both engines report the identical `at_cycle`.
    BudgetExhausted {
        /// The resource axis whose cap was hit.
        resource: BudgetResource,
        /// The installed cap (a count of the resource's unit).
        limit: u64,
        /// Simulation cycle at which the excess was detected.
        at_cycle: u64,
    },
    /// A host/loader operation named a tile that does not exist on this
    /// chip's topology.
    UnknownTile {
        /// The out-of-range tile.
        tile: TileId,
        /// Number of tiles the chip actually has.
        tiles: usize,
    },
}

/// Resource axis of a [`RunBudget`] cap (see
/// [`SimError::BudgetExhausted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// Simulated cycles elapsed in the current `run`.
    Cycles,
    /// DRAM pages materialized across all tiles (the fixed-size SPMs
    /// never grow, so resident DRAM pages are the chip's only elastic
    /// memory).
    MemoryPages,
    /// Total NoC packets injected over the chip's lifetime.
    Messages,
    /// NoC packets in flight (injected but not yet delivered).
    InFlightMessages,
    /// Trace events emitted by the chip's tracer.
    TraceEvents,
    /// Encoded size of the periodic rollback checkpoint, in bytes
    /// (checked at every checkpoint refresh).
    SnapshotBytes,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetResource::Cycles => write!(f, "sim cycles"),
            BudgetResource::MemoryPages => write!(f, "resident memory pages"),
            BudgetResource::Messages => write!(f, "NoC messages"),
            BudgetResource::InFlightMessages => write!(f, "in-flight NoC messages"),
            BudgetResource::TraceEvents => write!(f, "trace events"),
            BudgetResource::SnapshotBytes => write!(f, "snapshot bytes"),
        }
    }
}

/// Hard resource caps for a simulation run (see [`Chip::set_budget`]).
///
/// `None` on an axis means unlimited; the default budget is unlimited
/// on every axis and adds a single predicted-taken branch per tick.
/// Every cap is inclusive: a run may consume exactly `limit` units, and
/// fails with [`SimError::BudgetExhausted`] on the first tick that ends
/// with the count above it.
///
/// Enforcement is engine-identical by construction: every counted
/// resource mutates only inside [`Chip::tick`] (the fast path's cycle
/// skips execute no instructions and move no flits, and the translated
/// engine is switched off while a memory-page cap is installed because
/// windows execute stores inline), so the post-tick check fires at the
/// same cycle in [`Chip::run`] and [`Chip::run_reference`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Cap on simulated cycles per `run` call.
    pub cycles: Option<u64>,
    /// Cap on DRAM pages resident across all tiles.
    pub memory_pages: Option<u64>,
    /// Cap on total NoC packets injected (lifetime counter).
    pub messages: Option<u64>,
    /// Cap on NoC packets simultaneously in flight.
    pub in_flight_messages: Option<u64>,
    /// Cap on trace events emitted.
    pub trace_events: Option<u64>,
    /// Cap on the encoded size of the periodic rollback checkpoint.
    pub snapshot_bytes: Option<u64>,
}

impl RunBudget {
    /// No caps on any axis (the default).
    #[must_use]
    pub const fn unlimited() -> Self {
        RunBudget {
            cycles: None,
            memory_pages: None,
            messages: None,
            in_flight_messages: None,
            trace_events: None,
            snapshot_bytes: None,
        }
    }

    /// Whether every axis is uncapped.
    #[must_use]
    pub const fn is_unlimited(&self) -> bool {
        self.cycles.is_none() && self.no_post_tick_caps() && self.snapshot_bytes.is_none()
    }

    /// Whether none of the axes checked after each tick is capped
    /// (everything but `cycles`, which the run loop checks at its top,
    /// and `snapshot_bytes`, checked at checkpoint refreshes).
    #[must_use]
    const fn no_post_tick_caps(&self) -> bool {
        self.memory_pages.is_none()
            && self.messages.is_none()
            && self.in_flight_messages.is_none()
            && self.trace_events.is_none()
    }
}

/// One blocked tile in a [`SimError::Deadlock`] report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocked {
    /// The blocked tile.
    pub tile: TileId,
    /// The message operation it is parked in.
    pub op: BlockedOp,
}

/// The blocking operation of a deadlocked tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOp {
    /// Parked in `recv`, waiting for a message from `from`.
    Recv {
        /// Peer tile the receive is waiting on.
        from: TileId,
    },
    /// Parked in `send` toward `to`. The current NIC model has unbounded
    /// injection queues, so sends never block today; the variant keeps
    /// the report format complete for bounded-queue NIC models.
    Send {
        /// Peer tile the send is addressed to.
        to: TileId,
    },
}

impl fmt::Display for Blocked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            BlockedOp::Recv { from } => write!(f, "{} blocked in recv from {from}", self.tile),
            BlockedOp::Send { to } => write!(f, "{} blocked in send to {to}", self.tile),
        }
    }
}

/// What a [`SimError::Faulted`] run found broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultedKind {
    /// A patch datapath is dead (strict mode forbids demotion).
    PatchDead,
    /// A fused circuit is severed (strict mode forbids demotion).
    CircuitDead,
    /// The inter-core mesh made no progress for `MESH_STALL_TICKS` ticks
    /// while traffic was in flight — link faults isolated a router.
    MeshStall,
}

impl From<PatchFaultKind> for FaultedKind {
    fn from(k: PatchFaultKind) -> Self {
        match k {
            PatchFaultKind::PatchDead => FaultedKind::PatchDead,
            PatchFaultKind::CircuitDead => FaultedKind::CircuitDead,
        }
    }
}

impl fmt::Display for FaultedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultedKind::PatchDead => write!(f, "patch datapath dead"),
            FaultedKind::CircuitDead => write!(f, "fused circuit severed"),
            FaultedKind::MeshStall => write!(f, "mesh wedged by link faults"),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Cpu { tile, error } => write!(f, "{tile}: {error}"),
            SimError::Timeout { max_cycles } => {
                write!(f, "simulation exceeded {max_cycles} cycles")
            }
            SimError::Deadlock { cycle, waiting } => {
                write!(f, "deadlock at cycle {cycle};")?;
                for (i, b) in waiting.iter().enumerate() {
                    write!(f, "{} {b}", if i == 0 { "" } else { "," })?;
                }
                Ok(())
            }
            SimError::BadBinding { tile, reason } => write!(f, "bad binding on {tile}: {reason}"),
            SimError::PatchNet(e) => write!(f, "inter-patch NoC: {e}"),
            SimError::Faulted { tile, cycle, kind } => {
                write!(f, "{tile} faulted at cycle {cycle}: {kind}")
            }
            SimError::InvariantViolation {
                component,
                cycle,
                detail,
            } => {
                write!(
                    f,
                    "{component} invariant violated at cycle {cycle}: {detail}"
                )
            }
            SimError::BudgetExhausted {
                resource,
                limit,
                at_cycle,
            } => {
                write!(
                    f,
                    "budget exhausted at cycle {at_cycle}: {resource} cap {limit}"
                )
            }
            SimError::UnknownTile { tile, tiles } => {
                write!(f, "{tile} outside the {tiles}-tile topology")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<PatchNetError> for SimError {
    fn from(e: PatchNetError) -> Self {
        SimError::PatchNet(e)
    }
}

/// Scratchpad adapter handing the patch LMAU a tile's SPM.
struct SpmAdapter<'a>(&'a mut TileMemory);

impl SpmPort for SpmAdapter<'_> {
    fn load(&mut self, offset: u32) -> u32 {
        self.0.spm_lmau_load(offset)
    }

    fn store(&mut self, offset: u32, value: u32) {
        self.0.spm_lmau_store(offset, value);
    }
}

/// Retires one activation of `binding` on a rung that runs it:
/// evaluates the dataflow, counts patch activations and demotions, and
/// charges the rung's execute cycles. Both engines retire customs here.
///
/// The software fallback runs the same dataflow through the same
/// evaluator, so values and SPM effects stay bit-identical; only the
/// cycle charge changes. A [`Rung::Rollback`] activation runs healthy —
/// the restore that follows discards it.
fn retire_custom(
    binding: &CiBinding,
    rung: Rung,
    tile: TileId,
    inputs: [u32; 4],
    mem: &mut TileMemory,
    activations: &mut [u64],
    faults: Option<&mut FaultRuntime>,
) -> CustomOutcome {
    let o = match *binding {
        CiBinding::Single { ref control } => {
            let out = eval_single(control, inputs, &mut SpmAdapter(mem));
            if rung == Rung::Software {
                CustomOutcome {
                    out,
                    fused: false,
                    cycles: software_cycles(control, MUL_LATENCY),
                    demoted: true,
                }
            } else {
                activations[tile.index()] += 1;
                CustomOutcome::healthy(out, false)
            }
        }
        CiBinding::Fused {
            ref first,
            partner,
            ref second,
        } => {
            let out = eval_fused(first, second, inputs, &mut SpmAdapter(mem));
            match rung {
                Rung::Software => CustomOutcome {
                    out,
                    fused: false,
                    cycles: software_cycles(first, MUL_LATENCY)
                        + software_cycles(second, MUL_LATENCY),
                    demoted: true,
                },
                Rung::LocalOnly { .. } => {
                    activations[tile.index()] += 1;
                    CustomOutcome {
                        out,
                        fused: false,
                        cycles: 1 + software_cycles(second, MUL_LATENCY),
                        demoted: true,
                    }
                }
                _ => {
                    activations[tile.index()] += 1;
                    activations[partner.index()] += 1;
                    CustomOutcome::healthy(out, true)
                }
            }
        }
    };
    if let (true, Some(f)) = (o.demoted, faults) {
        f.stats.demotions += 1;
    }
    o
}

/// Per-core view of the chip, implementing the CPU's [`Platform`].
struct TilePlatform<'a> {
    tile: TileId,
    cycle: u64,
    mem: &'a mut TileMemory,
    /// `(ci, binding)` pairs sorted by CI id, looked up with
    /// [`binding_slot`].
    bindings: &'a [(u16, CiBinding)],
    mesh: &'a mut Mesh,
    patchnet: &'a mut PatchNet,
    activations: &'a mut [u64],
    xbar_errors: &'a mut u64,
    /// Set when a store reconfigures a crossbar this cycle, so the chip
    /// re-validates circuit legality right after the tick.
    xbar_reconfigured: &'a mut bool,
    faults: Option<&'a mut FaultRuntime>,
    /// [`Chip::rollback_armed`] for this tick.
    rollback_armed: bool,
    tracer: &'a mut Tracer,
}

impl TilePlatform<'_> {
    /// Reports a cache access that paid more than the hit latency. The
    /// fast path's skipped windows only ever replay icache *hits*
    /// (repeated-poll fetches), so miss events stay engine-identical.
    #[inline]
    fn note_miss(&mut self, icache: bool, latency: u32) {
        if latency > HIT_LATENCY {
            let (cycle, tile) = (self.cycle, self.tile.0);
            self.tracer.emit(|| TraceEvent::CacheMiss {
                cycle,
                tile,
                icache,
                penalty: latency - HIT_LATENCY,
            });
        }
    }
}

impl Platform for TilePlatform<'_> {
    fn fetch(&mut self, byte_addr: u32) -> u32 {
        let latency = self.mem.fetch(byte_addr);
        self.note_miss(true, latency);
        latency
    }

    fn load(&mut self, addr: u32, w: Width) -> (u32, u32) {
        let r = self.mem.load(addr, w);
        self.note_miss(false, r.latency);
        (r.value, r.latency)
    }

    fn store(&mut self, addr: u32, value: u32, w: Width) -> u32 {
        let r = self.mem.store(addr, value, w);
        self.note_miss(false, r.latency);
        if let Some((index, word)) = r.xbar_write {
            let target = TileId(index as u8);
            if index as usize >= self.patchnet.topology().tiles()
                || self.patchnet.write_config_register(target, word).is_err()
            {
                *self.xbar_errors += 1;
            } else {
                *self.xbar_reconfigured = true;
            }
        }
        r.latency
    }

    fn exec_custom(&mut self, ci: CiId, inputs: [u32; 4]) -> Result<CustomOutcome, CpuError> {
        let slot = binding_slot(self.bindings, ci).ok_or(CpuError::UnboundCustom(ci))?;
        let binding = &self.bindings[slot].1;
        let (cycle, tile) = (self.cycle, self.tile.0);
        let mut extra = 0;
        let mut rung = Rung::Healthy;
        if let Some(f) = self.faults.as_deref_mut() {
            // Parity is checked when the control words are driven: the
            // local patch's, then a fused partner's.
            for t in std::iter::once(self.tile).chain(binding.partner()) {
                let scrubbed = f.scrub(t);
                if scrubbed > 0 {
                    self.tracer.emit(|| TraceEvent::Scrub { cycle, tile: t.0 });
                }
                extra += scrubbed;
            }
            (rung, _) = f.rung(
                self.tile,
                ci,
                binding,
                self.patchnet,
                cycle,
                self.rollback_armed,
            );
            match rung {
                Rung::Healthy => {}
                Rung::Faulted(kind) => return Err(CpuError::PatchFaulted { ci, kind }),
                Rung::Rollback => f.queue_rollback(self.tile, binding, self.patchnet, cycle),
                Rung::Software => self.tracer.emit(|| TraceEvent::Demote {
                    cycle,
                    tile,
                    to_software: true,
                }),
                Rung::LocalOnly { first_trip } => {
                    // The fused handshake times out. The first detection
                    // per (tile, CI) pays the bounded watchdog retries;
                    // the demotion is then remembered and later
                    // activations go straight to the fallback.
                    if first_trip {
                        f.watchdog_tripped.insert((tile, ci.0));
                        f.stats.watchdog_trips += 1;
                        extra += WATCHDOG_RETRIES * WATCHDOG_TIMEOUT_CYCLES;
                        self.tracer
                            .emit(|| TraceEvent::WatchdogTrip { cycle, tile });
                    }
                    self.tracer.emit(|| TraceEvent::Demote {
                        cycle,
                        tile,
                        to_software: false,
                    });
                }
            }
        }
        let mut o = retire_custom(
            binding,
            rung,
            self.tile,
            inputs,
            self.mem,
            self.activations,
            self.faults.as_deref_mut(),
        );
        if rung != Rung::Software {
            let fused = o.fused;
            let partner = binding
                .partner()
                .filter(|_| fused)
                .map_or(NO_PARTNER, |p| p.0);
            self.tracer.emit(|| TraceEvent::PatchActivate {
                cycle,
                tile,
                partner,
                fused,
            });
        }
        o.cycles += extra;
        Ok(o)
    }

    fn send(&mut self, dst: u32, addr: u32, len: u32) -> Result<(), CpuError> {
        // Reject out-of-mesh destinations before the u8 truncation: an
        // injected flit addressed past the mesh edge would never route
        // (no neighbor toward its coords) and would wedge the network
        // with no typed error.
        if dst as usize >= self.mesh.tiles() {
            return Err(CpuError::BadSendTarget { target: dst });
        }
        let words = self.mem.peek_words(addr, len as usize);
        self.mesh
            .send_traced(self.tile, TileId(dst as u8), &words, self.tracer);
        Ok(())
    }

    fn try_recv(&mut self, src: u32, addr: u32, len: u32) -> Result<Option<u32>, CpuError> {
        match self.mesh.pop_delivered(self.tile, TileId(src as u8)) {
            None => Ok(None),
            Some(msg) => {
                if msg.words.len() as u32 != len {
                    return Err(CpuError::MessageLengthMismatch {
                        expected: len,
                        got: msg.words.len() as u32,
                    });
                }
                self.mem.poke_words(addr, &msg.words);
                // The completing poll happens on a real tick in both
                // engines (a deliverable message blocks the fast path), so
                // this event is engine-identical.
                let (cycle, tile) = (self.cycle, self.tile.0);
                self.tracer.emit(|| TraceEvent::RecvDone {
                    cycle,
                    tile,
                    from: src as u8,
                    words: len,
                });
                Ok(Some(len))
            }
        }
    }
}

/// Chip services for one lane of a translated compute window: the
/// subset of [`TilePlatform`] a window can retire exactly.
///
/// Windows only run while tracing is off, so no trace event is ever due
/// here. Custom instructions run on the rungs [`Rung::inline`] accepts,
/// as of each activation's own start cycle; a pending config scrub or
/// any other rung side-exits to the interpreter before the I-fetch, as
/// does a crossbar-config store.
struct WindowHost<'a> {
    tile: TileId,
    mem: &'a mut TileMemory,
    /// The interpreter's binding table, looked up with [`binding_slot`].
    bindings: &'a [(u16, CiBinding)],
    /// Per binding slot: the rung [`FaultRuntime::rung`] last decided
    /// in this window and the cycle it holds until. Reset to "expired"
    /// at the lane's window start — fault state changes between windows
    /// through events, scrubs, watchdog trips and rollbacks, but inside
    /// one only through commutative counters — so an activation before
    /// the horizon reuses the rung instead of deciding it again.
    rungs: &'a mut [(Rung, u64)],
    activations: &'a mut [u64],
    faults: Option<&'a mut FaultRuntime>,
    /// [`Chip::rollback_armed`] for this window.
    rollback_armed: bool,
    patchnet: &'a PatchNet,
    /// I-cache line of the most recent fetch (`u64::MAX` = no streak),
    /// for the fetch-streak fast path below.
    fetch_line: u64,
    /// An address inside the streak line (any word works: residency and
    /// LRU are per-line).
    fetch_addr: u32,
    /// Same-line fetches after the streak's first, not yet recorded.
    fetch_hits: u64,
    /// `log2(icache line bytes)`.
    line_shift: u32,
}

impl WindowHost<'_> {
    /// Replays the pending fetch streak onto the i-cache.
    ///
    /// Consecutive fetches to one resident line are guaranteed hits —
    /// within a window only this lane's fetches touch its (dedicated)
    /// i-cache, and a just-accessed line cannot be evicted without
    /// another access to its set. Each streak member was therefore
    /// charged `HIT_LATENCY` up front; this applies the deferred state
    /// effects (LRU clock, timestamps, hit counters) in one batch,
    /// before the next real access — exactly the order the per-word
    /// path would have produced.
    fn flush_fetch_streak(&mut self) {
        if self.fetch_hits > 0 {
            self.mem
                .record_repeat_fetches(self.fetch_addr, 1, self.fetch_hits);
            self.fetch_hits = 0;
        }
    }

    /// Decides the rung of binding `slot` at `t` and remembers it until
    /// its horizon; `None` when a config scrub is pending. Only a memo
    /// miss gets here, and a hit never needs the scrub check: the miss
    /// that filled the slot found no scrub pending, and pending scrubs
    /// are constant within a window.
    #[cold]
    #[inline(never)]
    fn decide_rung(&mut self, slot: usize, ci: CiId, t: u64) -> Option<Rung> {
        let f = self.faults.as_deref()?;
        let binding = &self.bindings[slot].1;
        if f.scrub_pending(self.tile, binding) {
            return None;
        }
        let memo = f.rung(
            self.tile,
            ci,
            binding,
            self.patchnet,
            t,
            self.rollback_armed,
        );
        self.rungs[slot] = memo;
        Some(memo.0)
    }
}

impl<'a> LaneHost for WindowHost<'a> {
    fn fetch(&mut self, byte_addr: u32) -> u32 {
        let line = u64::from(byte_addr >> self.line_shift);
        if line == self.fetch_line {
            self.fetch_hits += 1;
            return HIT_LATENCY;
        }
        self.flush_fetch_streak();
        self.fetch_line = line;
        self.fetch_addr = byte_addr;
        self.mem.fetch(byte_addr)
    }

    fn load(&mut self, addr: u32, w: Width) -> (u32, u32) {
        let r = self.mem.load(addr, w);
        (r.value, r.latency)
    }

    fn store(&mut self, addr: u32, value: u32, w: Width) -> u32 {
        // Crossbar-config addresses were bounced by `store_side_exits`,
        // so this store can never carry an xbar write.
        self.mem.store(addr, value, w).latency
    }

    fn store_side_exits(&self, addr: u32) -> bool {
        memmap::is_xbar_cfg(addr)
    }

    type Custom = (&'a CiBinding, Rung);

    #[inline]
    fn prepare_custom(&mut self, ci: CiId, t: u64) -> Option<Self::Custom> {
        let bindings: &'a [(u16, CiBinding)] = self.bindings;
        let slot = binding_slot(bindings, ci)?;
        let binding = &bindings[slot].1;
        if self.faults.is_none() {
            return Some((binding, Rung::Healthy));
        }
        // Lane cycles only grow, so a rung decided earlier in this window
        // still holds before its horizon.
        let (mut rung, until) = self.rungs[slot];
        if t >= until {
            rung = self.decide_rung(slot, ci, t)?;
        }
        rung.inline().then_some((binding, rung))
    }

    fn exec_custom(&mut self, (binding, rung): Self::Custom, inputs: [u32; 4]) -> CustomOutcome {
        retire_custom(
            binding,
            rung,
            self.tile,
            inputs,
            self.mem,
            self.activations,
            self.faults.as_deref_mut(),
        )
    }
}

/// Diagnostic counters for the translated window engine.
///
/// Like [`Chip::skipped_cycles`], these describe how the fast path got
/// to the answer, not the answer itself — they are not part of
/// snapshots or [`RunSummary`], which stay bit-identical to the
/// reference loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Compute windows committed (clock jumps through translated code).
    pub windows: u64,
    /// Cycles the clock jumped over at window commits.
    pub batched_cycles: u64,
    /// Instructions retired by the translated engine.
    pub uops_executed: u64,
    /// Distinct window entry points — pcs where a window started or a
    /// jump landed — summed over tiles (named for the basic blocks each
    /// entry once lowered).
    pub blocks_translated: u64,
    /// Repeated entries at an already-entered pc, summed over tiles.
    pub cache_hits: u64,
}

/// The simulated chip.
pub struct Chip {
    cfg: ChipConfig,
    cores: Vec<Option<Core>>,
    mems: Vec<TileMemory>,
    bindings: Vec<Vec<(u16, CiBinding)>>,
    /// Per tile, one window rung memo slot per binding (see
    /// `WindowHost::rungs`); sized at load, reset at each window start.
    rungs: Vec<Vec<(Rung, u64)>>,
    busy_until: Vec<u64>,
    waiting_on: Vec<Option<u32>>,
    mesh: Mesh,
    patchnet: PatchNet,
    activations: Vec<u64>,
    xbar_errors: u64,
    cycle: u64,
    /// Loaded cores that have not halted (maintained incrementally so the
    /// run loop never rescans every tile).
    live: usize,
    /// Cores currently blocked in `recv` (`waiting_on[i].is_some()`).
    waiting: usize,
    /// Earliest `busy_until` among non-waiting live cores after the last
    /// tick (`u64::MAX` when none; `0` when stale, e.g. after a load).
    /// Maintained by `tick` so the fast path's skip decision is O(1).
    next_wake: u64,
    /// Cycles elided by the fast path (diagnostic; not part of the
    /// summary, which must stay bit-identical to the reference loop).
    skipped: u64,
    /// Translated (windowed) execution enabled for `run`.
    translate: bool,
    /// Per-tile window entry bookkeeping (cleared on program swap; not
    /// part of snapshots — diagnostics only, windows read the text).
    trans: Vec<TransCache>,
    /// Translated-engine diagnostics (windows, batched cycles, uops).
    tstats: TranslationStats,
    /// Installed fault plan and its runtime state, if any. `None` keeps
    /// every fault check off the hot paths of fault-free runs.
    faults: Option<FaultRuntime>,
    /// A store reconfigured a crossbar during the current tick.
    xbar_reconfigured: bool,
    /// Hard resource caps for untrusted runs (unlimited by default).
    budget: RunBudget,
    /// Periodic-checkpoint + transient-fault-replay state, when enabled.
    rollback: Option<RollbackState>,
    /// Observability event recorder. Disabled by default (one branch per
    /// would-be event); not part of snapshots — an observer, not chip
    /// state — so rollback replays append to the same stream.
    tracer: Tracer,
}

/// State of the checkpoint-rollback rung (see [`Chip::enable_rollback`]).
struct RollbackState {
    /// Cycles between periodic checkpoint refreshes.
    interval: u64,
    /// Remaining rollback retries before detections fall through to the
    /// ordinary degradation ladder.
    budget_left: u32,
    /// Cycle of the next periodic checkpoint refresh.
    next_checkpoint: u64,
    /// The most recent checkpoint (boxed: a full chip image is large).
    last: Option<Box<ChipSnapshot>>,
}

impl Chip {
    /// Creates an idle chip.
    #[must_use]
    pub fn new(cfg: ChipConfig) -> Self {
        let n = cfg.topo.tiles();
        Chip {
            mems: (0..n).map(|_| TileMemory::new(cfg.tile_mem)).collect(),
            cores: (0..n).map(|_| None).collect(),
            bindings: vec![Vec::new(); n],
            rungs: vec![Vec::new(); n],
            busy_until: vec![0; n],
            waiting_on: vec![None; n],
            mesh: Mesh::new(MeshConfig {
                topo: cfg.topo,
                buffer_flits: 8,
            }),
            patchnet: PatchNet::new(cfg.topo),
            activations: vec![0; n],
            xbar_errors: 0,
            cycle: 0,
            live: 0,
            waiting: 0,
            next_wake: 0,
            skipped: 0,
            translate: true,
            trans: (0..n).map(|_| TransCache::new()).collect(),
            tstats: TranslationStats::default(),
            faults: None,
            xbar_reconfigured: false,
            budget: RunBudget::unlimited(),
            rollback: None,
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Enables event tracing per `cfg` (the tile count is taken from the
    /// chip's own topology). Replaces any previously collected trace.
    /// Call before `run` so the stream covers the whole execution.
    pub fn set_trace(&mut self, cfg: &TraceConfig) {
        let cfg = TraceConfig {
            tiles: self.cfg.topo.tiles(),
            ..cfg.clone()
        };
        self.tracer = Tracer::new(&cfg);
    }

    /// Tears tracing down and returns the retained event stream, or
    /// `None` if tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<TraceCapture> {
        self.tracer.take_capture()
    }

    /// Installs a fault plan to be replayed during subsequent runs.
    /// Event cycles are absolute simulation cycles; install the plan
    /// before the first `run` so they line up with the schedule.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultRuntime::new(plan, self.cfg.topo.tiles()));
    }

    /// Fault-handling counters (all zero when no plan is installed).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Installs hard resource caps for subsequent runs (see
    /// [`RunBudget`]). Exceeding a cap fails the run with the typed
    /// [`SimError::BudgetExhausted`] instead of a wall-clock kill, at
    /// the identical cycle on both engines.
    ///
    /// A `memory_pages` cap disables the translated engine for the
    /// capped runs: translated windows execute stores (and thus DRAM
    /// page allocation) inline across a multi-cycle jump, which would
    /// blur the exact cycle the cap is crossed. Translation on/off is
    /// already bit-identical, so only throughput is affected while the
    /// cap is in place.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// The installed resource caps (unlimited unless
    /// [`Chip::set_budget`] was called).
    #[must_use]
    pub fn budget(&self) -> RunBudget {
        self.budget
    }

    /// Captures the complete dynamic state of the chip.
    ///
    /// Program text and custom-instruction bindings are load-time
    /// artifacts and are *not* captured; [`Chip::restore`] expects a chip
    /// with the same programs loaded.
    #[must_use]
    pub fn checkpoint(&self) -> ChipSnapshot {
        ChipSnapshot {
            topo: self.cfg.topo,
            cycle: self.cycle,
            cores: self
                .cores
                .iter()
                .map(|c| c.as_ref().map(Core::snapshot))
                .collect(),
            mems: self.mems.iter().map(TileMemory::snapshot).collect(),
            mesh: self.mesh.snapshot(),
            patchnet: self.patchnet.snapshot(),
            busy_until: self.busy_until.clone(),
            waiting_on: self.waiting_on.clone(),
            activations: self.activations.clone(),
            xbar_errors: self.xbar_errors,
            next_wake: self.next_wake,
            skipped: self.skipped,
            faults: self.faults.as_ref().map(FaultRuntime::snapshot),
        }
    }

    /// Reinstalls a previously captured state. The snapshot must come
    /// from a chip with the same topology and the same pattern of loaded
    /// programs (text and bindings are not part of the snapshot); resumed
    /// execution is then bit-identical to the run the snapshot was taken
    /// from.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TopologyMismatch`] / [`SnapshotError::Mismatch`]
    /// when the snapshot does not fit this chip (per-tile vector lengths,
    /// fault-runtime shape, loaded-core pattern, a waiting core whose pc
    /// holds no `recv`, SPM image length, cache line counts), a
    /// propagated
    /// [`SnapshotError::Mesh`] when the recorded network state is
    /// malformed (bad port/tile indices, over-capacity buffers, packet
    /// counters that disagree with the flits in flight), or a
    /// propagated [`SnapshotError::PatchNet`] if the recorded switch
    /// state is invalid. The chip is unmodified on error.
    pub fn restore(&mut self, snap: &ChipSnapshot) -> Result<(), SnapshotError> {
        let n = self.cfg.topo.tiles();
        if snap.topo != self.cfg.topo {
            return Err(SnapshotError::TopologyMismatch {
                expected: (self.cfg.topo.width, self.cfg.topo.height),
                found: (snap.topo.width, snap.topo.height),
            });
        }
        if snap.cores.len() != n
            || snap.mems.len() != n
            || snap.busy_until.len() != n
            || snap.waiting_on.len() != n
            || snap.activations.len() != n
        {
            return Err(SnapshotError::Mismatch {
                what: "per-tile vector length",
            });
        }
        self.mesh.validate_snapshot(&snap.mesh)?;
        if let Some(fr) = &snap.faults {
            if fr.patch_down_until.len() != n
                || fr.switch_down_until.len() != n
                || fr.patch_mask_until.len() != n
                || fr.switch_mask_until.len() != n
                || fr.config_upset.len() != n
            {
                return Err(SnapshotError::Mismatch {
                    what: "fault-runtime vector length",
                });
            }
            if fr.next as usize > fr.plan.len() {
                return Err(SnapshotError::Mismatch {
                    what: "fault event index beyond plan",
                });
            }
        }
        for (m, s) in self.mems.iter().zip(&snap.mems) {
            m.check_snapshot(s)
                .map_err(|what| SnapshotError::Mismatch { what })?;
        }
        for ((have, want), waits) in self.cores.iter().zip(&snap.cores).zip(&snap.waiting_on) {
            match (have, want) {
                (Some(_), Some(_)) | (None, None) => {}
                (None, Some(_)) => {
                    return Err(SnapshotError::Mismatch {
                        what: "snapshot holds core state for an unloaded tile",
                    })
                }
                (Some(_), None) => {
                    return Err(SnapshotError::Mismatch {
                        what: "snapshot lacks core state for a loaded tile",
                    })
                }
            }
            // A waiting core re-polls (and the fast path batch-replays
            // the fetches of) the `recv` at its pc, so it must sit on one.
            if waits.is_some() {
                let parked = have
                    .as_ref()
                    .zip(want.as_ref())
                    .is_some_and(|(c, s)| s.state == CoreState::Running && c.recv_at(s.pc));
                if !parked {
                    return Err(SnapshotError::Mismatch {
                        what: "waiting core not parked on a recv",
                    });
                }
            }
        }
        // Validation done; the patch-net restore re-validates its own
        // switch words, and rebuilding a chip-captured snapshot cannot
        // fail, so mutation starts here.
        self.patchnet.restore(&snap.patchnet)?;
        for (core, cs) in self.cores.iter_mut().zip(&snap.cores) {
            if let (Some(c), Some(s)) = (core.as_mut(), cs.as_ref()) {
                c.restore(s);
            }
        }
        for (m, s) in self.mems.iter_mut().zip(&snap.mems) {
            m.restore(s);
        }
        // Already validated above, so this cannot fail mid-mutation.
        self.mesh.restore(&snap.mesh)?;
        self.busy_until.clone_from(&snap.busy_until);
        self.waiting_on.clone_from(&snap.waiting_on);
        self.activations.clone_from(&snap.activations);
        self.xbar_errors = snap.xbar_errors;
        self.cycle = snap.cycle;
        // `tick` never leaves the wake-up past a ready core's next step,
        // so this clamp keeps a captured value and stops a forged one
        // from skipping a core that should run.
        self.next_wake = (0..n)
            .filter(|&i| {
                snap.waiting_on[i].is_none()
                    && self.cores[i]
                        .as_ref()
                        .is_some_and(|c| c.state() == CoreState::Running)
            })
            .map(|i| snap.busy_until[i])
            .fold(snap.next_wake, u64::min);
        self.skipped = snap.skipped;
        self.faults = snap.faults.as_ref().map(FaultRuntime::from_snapshot);
        // The incremental counters are derived state: recompute them.
        self.live = self
            .cores
            .iter()
            .flatten()
            .filter(|c| c.state() != CoreState::Halted)
            .count();
        self.waiting = self.waiting_on.iter().filter(|w| w.is_some()).count();
        self.xbar_reconfigured = false;
        Ok(())
    }

    /// Arms the topmost rung of the degradation ladder: keep a periodic
    /// checkpoint (refreshed every `interval` cycles) and, when a
    /// *transient* patch/switch fault is detected, roll back to it and
    /// replay with the fault window masked instead of demoting — at most
    /// `budget` times per run, after which detections fall through to the
    /// ordinary ladder. Takes the first checkpoint immediately, so call
    /// it after programs are loaded. Each rollback is counted in
    /// [`FaultStats::rollbacks`].
    pub fn enable_rollback(&mut self, interval: u64, budget: u32) {
        let interval = interval.max(1);
        let snap = Box::new(self.checkpoint());
        let cycle = self.cycle;
        self.tracer.emit(|| TraceEvent::Checkpoint { cycle });
        self.rollback = Some(RollbackState {
            interval,
            budget_left: budget,
            next_checkpoint: self.cycle + interval,
            last: Some(snap),
        });
    }

    /// Encoded size in bytes of the current rollback checkpoint, or
    /// `None` when rollback is disabled (or its snapshot was consumed).
    /// This is the quantity the `snapshot_bytes` budget axis caps.
    #[must_use]
    pub fn checkpoint_bytes(&self) -> Option<u64> {
        self.rollback
            .as_ref()
            .and_then(|r| r.last.as_deref())
            .map(|s| s.encode().len() as u64)
    }

    /// True while a checkpoint and a rollback retry budget are both
    /// available; fault detections only request rollbacks while armed.
    /// Only the rollback service between ticks changes it, so it is
    /// fixed for a whole tick or window.
    fn rollback_armed(&self) -> bool {
        self.rollback
            .as_ref()
            .is_some_and(|r| r.budget_left > 0 && r.last.is_some())
    }

    /// Runs right after every tick while rollback is enabled: serves a
    /// rollback request queued by this tick's fault detections, or else
    /// refreshes the periodic checkpoint when due. Ordered this way so a
    /// detection can never be checkpointed over before it is served.
    fn rollback_service(&mut self) -> Result<(), SimError> {
        let pending = match self.faults.as_mut() {
            Some(f) if !f.pending_masks.is_empty() => std::mem::take(&mut f.pending_masks),
            _ => Vec::new(),
        };
        if !pending.is_empty() {
            return self.serve_rollback(pending);
        }
        let due = self
            .rollback
            .as_ref()
            .is_some_and(|r| self.cycle >= r.next_checkpoint);
        if due {
            let snap = Box::new(self.checkpoint());
            let cycle = self.cycle;
            self.tracer.emit(|| TraceEvent::Checkpoint { cycle });
            if let Some(rb) = self.rollback.as_mut() {
                rb.last = Some(snap);
                rb.next_checkpoint = self.cycle + rb.interval;
            }
            // Snapshot-size budget: checked right where the checkpoint
            // grows. Both engines refresh at identical cycles (the fast
            // path never jumps a periodic checkpoint), so the failing
            // cycle is engine-identical.
            if let Some(cap) = self.budget.snapshot_bytes {
                let size = self
                    .rollback
                    .as_ref()
                    .and_then(|r| r.last.as_deref())
                    .map_or(0, |s| s.encode().len() as u64);
                if size > cap {
                    return Err(SimError::BudgetExhausted {
                        resource: BudgetResource::SnapshotBytes,
                        limit: cap,
                        at_cycle: self.cycle,
                    });
                }
            }
        }
        Ok(())
    }

    /// Performs one rollback: rewinds the chip to the last checkpoint and
    /// installs the requested masks so the replay reads the faulted
    /// components as healthy until their recovery cycles.
    fn serve_rollback(&mut self, pending: Vec<PendingMask>) -> Result<(), SimError> {
        // Mask state must survive the rewind (the checkpoint predates the
        // detection): merge-max the pre-restore masks plus the new
        // requests back in afterwards. A request is only ever queued by a
        // detection inside an active fault runtime while a checkpoint is
        // armed; should either be gone regardless, the requests are
        // dropped and the ordinary degradation ladder picks the fault up
        // at its next detection.
        let Some(f) = self.faults.as_ref() else {
            return Ok(());
        };
        let mut patch_mask = f.patch_mask_until.clone();
        let mut switch_mask = f.switch_mask_until.clone();
        for m in &pending {
            let slot = if m.switch {
                &mut switch_mask[m.tile]
            } else {
                &mut patch_mask[m.tile]
            };
            *slot = (*slot).max(m.until);
        }
        let rollbacks = f.stats.rollbacks + 1;
        let Some(snap) = self.rollback.as_mut().and_then(|r| r.last.take()) else {
            return Ok(());
        };
        let (cycle, to_cycle) = (self.cycle, snap.cycle);
        self.tracer
            .emit(|| TraceEvent::Rollback { cycle, to_cycle });
        // The checkpoint was captured from this very chip, so a failed
        // restore is a simulator bug, reported as a typed invariant
        // violation rather than a panic. The tracer is not chip state and
        // survives the restore.
        if let Err(e) = self.restore(&snap) {
            return Err(SimError::InvariantViolation {
                component: "rollback",
                cycle,
                detail: format!("restore of the chip's own checkpoint failed: {e}"),
            });
        }
        if let Some(rb) = self.rollback.as_mut() {
            rb.last = Some(snap);
            rb.budget_left -= 1;
        }
        // `restore` preserves the fault runtime it was captured with.
        if let Some(f) = self.faults.as_mut() {
            for i in 0..patch_mask.len() {
                f.patch_mask_until[i] = f.patch_mask_until[i].max(patch_mask[i]);
                f.switch_mask_until[i] = f.switch_mask_until[i].max(switch_mask[i]);
            }
            f.stats.rollbacks = rollbacks;
        }
        Ok(())
    }

    /// Configuration.
    #[must_use]
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Read access to the inter-patch network.
    #[must_use]
    pub fn patchnet(&self) -> &PatchNet {
        &self.patchnet
    }

    /// Checks a host-supplied tile id against the topology, so loader
    /// paths never index per-tile vectors with untrusted ids.
    fn check_tile(&self, tile: TileId) -> Result<(), SimError> {
        let tiles = self.cfg.topo.tiles();
        if tile.index() >= tiles {
            return Err(SimError::UnknownTile { tile, tiles });
        }
        Ok(())
    }

    /// Loads a program without custom-instruction bindings.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTile`] when `tile` is outside the topology.
    pub fn load_program(&mut self, tile: TileId, program: &Program) -> Result<(), SimError> {
        self.check_tile(tile)?;
        // No bindings, nothing else to validate: install directly.
        self.install_kernel(tile, program, HashMap::new());
        Ok(())
    }

    /// Loads a program plus the stitcher's custom-instruction bindings.
    ///
    /// Validates that each binding's patch classes match the chip layout,
    /// that fused bindings have a reserved circuit meeting the single-cycle
    /// timing constraint, and that remote stages perform no memory (`T`)
    /// operations.
    ///
    /// # Errors
    ///
    /// [`SimError::BadBinding`] with an explanation on any inconsistency.
    pub fn load_kernel(
        &mut self,
        tile: TileId,
        program: &Program,
        bindings: HashMap<u16, CiBinding>,
    ) -> Result<(), SimError> {
        self.validate_bindings(tile, &bindings)?;
        self.install_kernel(tile, program, bindings);
        Ok(())
    }

    /// Checks every binding against the chip layout; all of
    /// [`Chip::load_kernel`]'s error paths live here.
    fn validate_bindings(
        &self,
        tile: TileId,
        bindings: &HashMap<u16, CiBinding>,
    ) -> Result<(), SimError> {
        self.check_tile(tile)?;
        let bad = |reason: String| SimError::BadBinding { tile, reason };
        for (ci, b) in bindings {
            match b {
                CiBinding::Single { control } => {
                    let have = self.cfg.patches[tile.index()];
                    if have != Some(control.class()) {
                        return Err(bad(format!(
                            "ci{ci}: tile has {have:?}, control targets {}",
                            control.class()
                        )));
                    }
                }
                CiBinding::Fused {
                    first,
                    partner,
                    second,
                } => {
                    self.check_tile(*partner)?;
                    let local = self.cfg.patches[tile.index()];
                    let remote = self.cfg.patches[partner.index()];
                    if local != Some(first.class()) {
                        return Err(bad(format!(
                            "ci{ci}: local patch is {local:?}, control targets {}",
                            first.class()
                        )));
                    }
                    if remote != Some(second.class()) {
                        return Err(bad(format!(
                            "ci{ci}: remote patch is {remote:?}, control targets {}",
                            second.class()
                        )));
                    }
                    if second.uses_memory() {
                        return Err(bad(format!(
                            "ci{ci}: remote stage performs T ops (disjoint SPMs)"
                        )));
                    }
                    let Some(circuit) = self.patchnet.circuit(tile, *partner) else {
                        return Err(bad(format!("ci{ci}: no circuit {tile} -> {partner}")));
                    };
                    if !fused_path_legal(first.class(), second.class(), circuit.hops) {
                        return Err(bad(format!(
                            "ci{ci}: {} + {} at {} hops misses the 5 ns cycle",
                            first.class(),
                            second.class(),
                            circuit.hops
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Infallible tail of a kernel load: installs the program, resets the
    /// core, and replaces the binding table (pre-validated or empty).
    fn install_kernel(
        &mut self,
        tile: TileId,
        program: &Program,
        bindings: HashMap<u16, CiBinding>,
    ) {
        // Load text data segments and reset the core.
        for seg in &program.data {
            self.mems[tile.index()].poke_words(seg.base, &seg.words);
        }
        let i = tile.index();
        // Keep the live/waiting counters consistent if a core is replaced.
        if self.cores[i]
            .as_ref()
            .is_some_and(|c| c.state() != CoreState::Halted)
        {
            self.live -= 1;
        }
        if self.waiting_on[i].take().is_some() {
            self.waiting -= 1;
        }
        self.cores[i] = Some(Core::new(program));
        self.trans[i].invalidate();
        self.live += 1;
        let mut table: Vec<(u16, CiBinding)> = bindings.into_iter().collect();
        table.sort_by_key(|(id, _)| *id);
        self.rungs[i] = vec![(Rung::Healthy, 0); table.len()];
        self.bindings[i] = table;
        self.busy_until[i] = self.cycle;
        self.next_wake = 0; // stale until the next tick
    }

    /// Reserves an inter-patch circuit (stitcher API).
    ///
    /// # Errors
    ///
    /// Propagates [`PatchNetError`] on contention.
    pub fn reserve_circuit(
        &mut self,
        from: TileId,
        to: TileId,
    ) -> Result<stitch_noc::Circuit, SimError> {
        let circuit = self.patchnet.reserve(from, to)?;
        let (cycle, hops) = (self.cycle, circuit.hops);
        self.tracer.emit(|| TraceEvent::CircuitReserve {
            cycle,
            from: from.0,
            to: to.0,
            hops: hops.min(u32::from(u8::MAX)) as u8,
        });
        Ok(circuit)
    }

    /// Host write into a tile's memory (inputs, parameters).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTile`] when `tile` is outside the topology.
    pub fn poke_words(&mut self, tile: TileId, base: u32, words: &[u32]) -> Result<(), SimError> {
        self.check_tile(tile)?;
        self.mems[tile.index()].poke_words(base, words);
        Ok(())
    }

    /// Host read from a tile's memory (results). An out-of-topology
    /// tile reads as empty — observation never panics.
    #[must_use]
    pub fn peek_words(&mut self, tile: TileId, base: u32, count: usize) -> Vec<u32> {
        self.mems
            .get_mut(tile.index())
            .map_or_else(Vec::new, |m| m.peek_words(base, count))
    }

    /// Host read of a single word. An out-of-topology tile reads as 0.
    #[must_use]
    pub fn peek_u32(&mut self, tile: TileId, addr: u32) -> u32 {
        self.mems
            .get_mut(tile.index())
            .map_or(0, |m| m.peek_u32(addr))
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether every loaded core has halted.
    ///
    /// O(1) via the maintained live-core counter (checked against a full
    /// scan in debug builds).
    #[must_use]
    pub fn all_halted(&self) -> bool {
        let fast = self.live == 0;
        debug_assert_eq!(
            fast,
            self.cores
                .iter()
                .flatten()
                .all(|c| c.state() == CoreState::Halted)
        );
        fast
    }

    /// Advances the chip one cycle.
    ///
    /// # Errors
    ///
    /// Propagates core faults as [`SimError::Cpu`].
    pub fn tick(&mut self) -> Result<(), SimError> {
        self.cycle += 1;
        if self.faults.is_some() {
            self.apply_due_faults();
        }
        self.mesh.tick_traced(&mut self.tracer);
        let n = self.cfg.topo.tiles();
        // Earliest future step among live cores that are *not* parked in
        // `recv` (waiting cores poll every cycle; the fast path batches
        // those polls separately).
        let mut next_wake = u64::MAX;
        let rollback_armed = self.rollback_armed();
        for i in 0..n {
            if self.busy_until[i] > self.cycle {
                next_wake = next_wake.min(self.busy_until[i]);
                continue;
            }
            let Some(core) = self.cores[i].as_mut() else {
                continue;
            };
            if core.state() == CoreState::Halted {
                continue;
            }
            let mut plat = TilePlatform {
                tile: TileId(i as u8),
                cycle: self.cycle,
                mem: &mut self.mems[i],
                bindings: &self.bindings[i],
                mesh: &mut self.mesh,
                patchnet: &mut self.patchnet,
                activations: &mut self.activations,
                xbar_errors: &mut self.xbar_errors,
                xbar_reconfigured: &mut self.xbar_reconfigured,
                faults: self.faults.as_mut(),
                rollback_armed,
                tracer: &mut self.tracer,
            };
            let outcome = core.step(&mut plat);
            let halted_now = core.state() == CoreState::Halted;
            match outcome {
                Ok(StepOutcome::Retired { cycles }) => {
                    self.busy_until[i] = self.cycle + u64::from(cycles.max(1)) - 1;
                    if self.waiting_on[i].take().is_some() {
                        self.waiting -= 1;
                    }
                    let cycle = self.cycle;
                    self.tracer.emit(|| TraceEvent::Retire {
                        cycle,
                        tile: i as u8,
                        cost: cycles.max(1),
                    });
                    if halted_now {
                        // `halt` retires like any instruction; the core
                        // leaves the live set here.
                        self.live -= 1;
                        self.tracer.emit(|| TraceEvent::Halt {
                            cycle,
                            tile: i as u8,
                        });
                    } else {
                        next_wake = next_wake.min(self.busy_until[i]);
                    }
                }
                Ok(StepOutcome::WaitingRecv { src }) => {
                    if self.waiting_on[i].replace(src).is_none() {
                        self.waiting += 1;
                        // Transition into waiting only — repeated failed
                        // polls are event-free, so the fast path's batch
                        // replay leaves the stream unchanged.
                        let cycle = self.cycle;
                        self.tracer.emit(|| TraceEvent::RecvWait {
                            cycle,
                            tile: i as u8,
                            from: src as u8,
                        });
                    }
                }
                Ok(StepOutcome::Halted) => {}
                // Strict-mode fault detections become the typed error the
                // property harness asserts on.
                Err(CpuError::PatchFaulted { kind, .. }) => {
                    return Err(SimError::Faulted {
                        tile: TileId(i as u8),
                        cycle: self.cycle,
                        kind: kind.into(),
                    })
                }
                Err(error) => {
                    return Err(SimError::Cpu {
                        tile: TileId(i as u8),
                        error,
                    })
                }
            }
        }
        self.next_wake = next_wake;
        let reconfigured = std::mem::take(&mut self.xbar_reconfigured);
        self.debug_check_tick(reconfigured);
        Ok(())
    }

    /// Debug-build self-checks after every tick: mesh flit conservation
    /// while traffic is in flight, and inter-patch circuit legality after
    /// a crossbar reconfiguration. A failure is a simulator bug, not a
    /// modelled fault; release builds compile the checks out.
    fn debug_check_tick(&self, reconfigured: bool) {
        debug_assert!(
            self.mesh.idle() || self.mesh.check_invariants().is_ok(),
            "mesh invariant violated at cycle {}: {:?}",
            self.cycle,
            self.mesh.check_invariants()
        );
        debug_assert!(
            !reconfigured || self.patchnet.validate_circuits().is_ok(),
            "patchnet invariant violated at cycle {}: {:?}",
            self.cycle,
            self.patchnet.validate_circuits()
        );
    }

    /// Applies every fault event whose cycle has been reached.
    ///
    /// Runs at the top of [`Chip::tick`] — after the clock advances,
    /// before the mesh moves — and [`Chip::fast_forward`] never jumps
    /// past a pending event, so both engines apply each fault at exactly
    /// its scheduled cycle.
    fn apply_due_faults(&mut self) {
        loop {
            let Some(f) = self.faults.as_mut() else {
                return;
            };
            let Some(ev) = f.plan.events().get(f.next) else {
                return;
            };
            if ev.cycle > self.cycle {
                return;
            }
            let kind = ev.kind.clone();
            f.next += 1;
            f.stats.injected += 1;
            let cycle = self.cycle;
            self.tracer.emit(|| TraceEvent::FaultInject {
                cycle,
                tile: kind.tile().0,
                kind: kind.trace_code(),
            });
            f.apply(&kind);
            if let FaultKind::MeshLinkFail { tile, dir, until } = kind {
                self.mesh
                    .set_link_fault(tile, dir, until.unwrap_or(u64::MAX));
            }
        }
    }

    /// Converts a wedged mesh — no flit movement for [`MESH_STALL_TICKS`]
    /// ticks while traffic is in flight — into a typed fault. Armed only
    /// while a fault plan is installed: a healthy mesh never stalls, and
    /// gating on the plan guarantees fault-free runs are unaffected.
    fn check_mesh_stall(&self) -> Result<(), SimError> {
        if self.faults.is_none() || self.mesh.stalled_ticks() < MESH_STALL_TICKS {
            return Ok(());
        }
        let tile = self
            .waiting_on
            .iter()
            .position(Option::is_some)
            .map_or(TileId(0), |i| TileId(i as u8));
        Err(SimError::Faulted {
            tile,
            cycle: self.cycle,
            kind: FaultedKind::MeshStall,
        })
    }

    /// Runs until every core halts, using the event-driven fast path.
    ///
    /// Until the next side exit, fault event, checkpoint or possible
    /// delivery to a waiting core, the intermediate cycles are fully
    /// deterministic: ready cores run translated code, busy cores stall,
    /// waiting cores repeat the same failed poll and the mesh moves its
    /// flits on its own. Each iteration makes one fast-forward call that
    /// jumps over such a stretch — ticking only the mesh, and only while
    /// flits are in flight — and replays the batched poll side effects,
    /// instead of ticking the whole chip through it. Produces a
    /// [`RunSummary`] bit-identical to [`Chip::run_reference`].
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] after `max_cycles`, [`SimError::Deadlock`]
    /// when all running cores block on `recv` with no traffic in flight,
    /// or a propagated core fault.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, SimError> {
        let start = self.cycle;
        let deadline = start.saturating_add(max_cycles);
        // The cycle budget acts like a second deadline with a typed
        // error; the fast-forward horizon is clamped below the earlier of
        // the two so either fires on its exact cycle.
        let budget_deadline = self
            .budget
            .cycles
            .map_or(u64::MAX, |cap| start.saturating_add(cap));
        let horizon = deadline.min(budget_deadline);
        while !self.all_halted() {
            if self.cycle >= budget_deadline {
                return Err(SimError::BudgetExhausted {
                    resource: BudgetResource::Cycles,
                    limit: self.budget.cycles.unwrap_or(0),
                    at_cycle: self.cycle,
                });
            }
            if self.cycle >= deadline {
                return Err(SimError::Timeout { max_cycles });
            }
            self.fast_forward(horizon);
            self.tick()?;
            if self.rollback.is_some() {
                self.rollback_service()?;
            }
            if !self.budget.no_post_tick_caps() {
                self.check_budget()?;
            }
            self.check_mesh_stall()?;
            // Deadlock is only possible when every live core is parked in
            // `recv` and nothing is in flight; the O(1) gate keeps the
            // per-tile scan out of the common case.
            if self.waiting > 0 && self.waiting == self.live && self.mesh.idle() {
                self.check_deadlock()?;
            }
        }
        Ok(self.summary(self.cycle - start))
    }

    /// Runs until every core halts with the naive cycle-by-cycle loop.
    ///
    /// This is the golden reference for [`Chip::run`]: it advances one
    /// tick at a time and re-checks halting and deadlock every cycle.
    /// Kept (and exercised by the equivalence tests) to pin down the
    /// fast path's cycle-skipping invariant.
    ///
    /// # Errors
    ///
    /// Same contract as [`Chip::run`].
    pub fn run_reference(&mut self, max_cycles: u64) -> Result<RunSummary, SimError> {
        let start = self.cycle;
        while !self.all_halted() {
            if let Some(cap) = self.budget.cycles {
                if self.cycle - start >= cap {
                    return Err(SimError::BudgetExhausted {
                        resource: BudgetResource::Cycles,
                        limit: cap,
                        at_cycle: self.cycle,
                    });
                }
            }
            if self.cycle - start >= max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            self.tick()?;
            if self.rollback.is_some() {
                self.rollback_service()?;
            }
            if !self.budget.no_post_tick_caps() {
                self.check_budget()?;
            }
            self.check_mesh_stall()?;
            self.check_deadlock()?;
        }
        Ok(self.summary(self.cycle - start))
    }

    /// Post-tick budget enforcement (all axes but `cycles`, which the
    /// run loops check at their top, and `snapshot_bytes`, checked at
    /// checkpoint refresh). Runs only when some axis is capped; every
    /// counted resource mutates exclusively inside [`Chip::tick`], so
    /// the first failing cycle is identical on both engines.
    #[cold]
    fn check_budget(&mut self) -> Result<(), SimError> {
        let at_cycle = self.cycle;
        let over = |resource, limit| SimError::BudgetExhausted {
            resource,
            limit,
            at_cycle,
        };
        let mesh = self.mesh.stats();
        if let Some(cap) = self.budget.messages {
            if mesh.packets_sent > cap {
                return Err(over(BudgetResource::Messages, cap));
            }
        }
        if let Some(cap) = self.budget.in_flight_messages {
            if mesh.packets_sent - mesh.packets_delivered > cap {
                return Err(over(BudgetResource::InFlightMessages, cap));
            }
        }
        if let Some(cap) = self.budget.memory_pages {
            let pages: u64 = self.mems.iter().map(|m| m.resident_pages() as u64).sum();
            if pages > cap {
                return Err(over(BudgetResource::MemoryPages, cap));
            }
        }
        if let Some(cap) = self.budget.trace_events {
            if self.tracer.events_emitted() > cap {
                return Err(over(BudgetResource::TraceEvents, cap));
            }
        }
        Ok(())
    }

    /// The fast path: jumps the clock over cycles whose outcome is
    /// already fixed, so the tick loop only runs the cycles where
    /// something interacts.
    ///
    /// Fires only when no waiting core has a deliverable message (each
    /// jumped tick would repeat the same failed `recv` poll). The
    /// horizon is clamped below the deadline and the next scheduled
    /// fault / periodic checkpoint, so nothing the interpreter would have
    /// interleaved can land inside the jump. While flits are in flight
    /// the mesh keeps ticking through the jump on its own
    /// ([`Mesh::advance_to`]) — cores never touch it between their
    /// side exits — and the horizon is clamped twice more:
    ///
    /// - *delivery*: below the earliest cycle at which a message can
    ///   complete delivery to a waiting `(tile, src)` pair
    ///   ([`Mesh::delivery_bound`]), or to any tile when every live core
    ///   waits, since the mesh falling idle then is the deadlock check's
    ///   cycle;
    /// - *stall*: under a fault plan, below the first cycle at which the
    ///   stall probe could reach [`MESH_STALL_TICKS`], so a wedged mesh
    ///   fails on the reference's cycle.
    ///
    /// A traced run jumps only an idle mesh: its flit and delivery
    /// events are emitted by ticks.
    ///
    /// With translation on, tracing off and no `memory_pages` cap (whose
    /// crossing cycle needs per-tick stores — see [`Chip::set_budget`]),
    /// every ready core first runs through the window engine over its
    /// decoded text up to the horizon or a side exit (send/recv/halt,
    /// crossbar-config store, a custom whose fault-ladder rung needs the
    /// interpreter, architectural fault). Under a fault plan the horizon
    /// stops before the next plan event, but a transient fault's
    /// recovery cycle is not an event and can fall inside the window, so
    /// customs read their rung at their own start cycle (see
    /// [`FaultRuntime::rung`]). If any lane retired an instruction the jump
    /// is a *window*: the clock moves to the fence before the earliest
    /// side exit, counted as batched cycles. Otherwise the jump is a
    /// *skip* — the case of a window in which no lane ran: the clock
    /// moves to the cycle before the earliest wake-up (`next_wake`,
    /// maintained by [`Chip::tick`]), counted as skipped cycles.
    ///
    /// A lane's new `busy_until` is the start cycle of its next
    /// unexecuted instruction, which is precisely where the tick loop
    /// would have put it, and the waiting cores' per-cycle poll side
    /// effects are replayed in one batch — so every summary, snapshot,
    /// and error stays bit-identical to [`Chip::run_reference`].
    fn fast_forward(&mut self, deadline: u64) {
        let mesh_busy = !self.mesh.idle();
        if mesh_busy && self.tracer.is_enabled() {
            return;
        }
        for (i, src) in self.waiting_on.iter().enumerate() {
            if let Some(src) = src {
                if self.mesh.has_delivered(TileId(i as u8), TileId(*src as u8)) {
                    return;
                }
            }
        }
        let mut horizon = deadline.saturating_sub(1);
        // Faults are applied at the top of their exact tick, and both
        // engines refresh checkpoints at exactly the same cycle.
        if let Some(next_fault) = self
            .faults
            .as_ref()
            .and_then(FaultRuntime::next_event_cycle)
        {
            horizon = horizon.min(next_fault.saturating_sub(1));
        }
        if let Some(rb) = self.rollback.as_ref() {
            horizon = horizon.min(rb.next_checkpoint.saturating_sub(1));
        }
        if mesh_busy {
            if self.waiting > 0 {
                let every = self.waiting == self.live;
                let waiting_on = &self.waiting_on;
                let delivery = self.mesh.delivery_bound(|dst, src| {
                    every || waiting_on[dst.index()].is_some_and(|w| w as u8 == src.0)
                });
                horizon = horizon.min(delivery.saturating_sub(1));
            }
            if self.faults.is_some() {
                let stall = MESH_STALL_TICKS.saturating_sub(self.mesh.stalled_ticks());
                horizon = horizon.min((self.cycle + stall).saturating_sub(1));
            }
        }
        if horizon <= self.cycle {
            return;
        }
        if self.translate && !self.tracer.is_enabled() && self.budget.memory_pages.is_none() {
            if let Some(fence) = self.run_lanes(horizon) {
                if fence > self.cycle {
                    self.tstats.windows += 1;
                    self.tstats.batched_cycles += fence - self.cycle;
                    self.jump_to(fence);
                    // Busy-until values changed wholesale; let the next
                    // tick recompute the wake heuristic from scratch.
                    self.next_wake = 0;
                    return;
                }
            }
        }
        // Every live core waits on an idle mesh: leave that state to the
        // deadlock check. On a busy mesh the delivery clamp already
        // stops the skip before anything can reach them.
        if self.next_wake == u64::MAX && !mesh_busy {
            return;
        }
        let target = self.next_wake.saturating_sub(1).min(horizon);
        if target > self.cycle {
            self.skipped += target - self.cycle;
            self.jump_to(target);
        }
    }

    /// Runs every ready core through the translated engine up to
    /// `horizon`. Returns the fence — the last cycle before any lane's
    /// side exit — when at least one lane retired an instruction, `None`
    /// when none did. Every lane's `busy_until` is exact either way.
    fn run_lanes(&mut self, horizon: u64) -> Option<u64> {
        let mut fence = horizon;
        let mut progressed = false;
        let rollback_armed = self.rollback_armed();
        for i in 0..self.cores.len() {
            if self.waiting_on[i].is_some() {
                continue;
            }
            let Some(core) = self.cores[i].as_mut() else {
                continue;
            };
            if core.state() == CoreState::Halted {
                continue;
            }
            let start = (self.cycle + 1).max(self.busy_until[i]);
            if start > horizon {
                continue;
            }
            let line_shift = self.mems[i].config().icache.block_bytes.trailing_zeros();
            let rungs = &mut self.rungs[i];
            rungs.fill((Rung::Healthy, 0));
            let mut host = WindowHost {
                tile: TileId(i as u8),
                mem: &mut self.mems[i],
                bindings: &self.bindings[i],
                rungs,
                activations: &mut self.activations,
                faults: self.faults.as_mut(),
                rollback_armed,
                patchnet: &self.patchnet,
                fetch_line: u64::MAX,
                fetch_addr: 0,
                fetch_hits: 0,
                line_shift,
            };
            let run = core.run_translated(
                &mut self.trans[i],
                &mut host,
                WindowParams { start, horizon },
            );
            // The streak's deferred i-cache effects must land before the
            // interpreter (or the next window) touches this tile.
            host.flush_fetch_streak();
            // The lane's next instruction starts at `next_start` whether
            // it stopped for the horizon or a side exit; parking
            // busy_until there reproduces the tick loop's spacing.
            self.busy_until[i] = run.next_start;
            if run.executed > 0 {
                progressed = true;
                self.tstats.uops_executed += run.executed;
            }
            if run.side_exit {
                // The interpreter must execute this lane's instruction
                // at `next_start`; the clock may advance at most to the
                // cycle before it.
                fence = fence.min(run.next_start.saturating_sub(1));
            }
        }
        progressed.then_some(fence)
    }

    /// Moves the clock to `target`, replaying the waiting cores'
    /// per-cycle poll side effects — instruction-fetch icache hits and
    /// `recv_wait_cycles` — in one batch, while the mesh advances on its
    /// own, one tick per cycle as long as flits are in flight.
    fn jump_to(&mut self, target: u64) {
        let polls = target - self.cycle;
        if self.waiting > 0 {
            for i in 0..self.waiting_on.len() {
                if self.waiting_on[i].is_none() {
                    continue;
                }
                // `waiting_on[i]` is only populated by `tick` for a
                // loaded, non-halted core; anything else has no poll
                // footprint to batch.
                let Some(core) = self.cores[i].as_mut() else {
                    continue;
                };
                let (addr, words) = core.poll_footprint();
                core.record_skipped_polls(polls);
                self.mems[i].record_repeat_fetches(addr, words, polls);
            }
        }
        self.mesh.advance_to(target);
        self.cycle = target;
    }

    /// Enables or disables the translated (windowed) engine used by
    /// [`Chip::run`]. On by default; disabling forces every
    /// instruction through the interpreter (the fast path then only
    /// skips). Results are bit-identical either way.
    pub fn set_translation(&mut self, enabled: bool) {
        self.translate = enabled;
    }

    /// True when the translated engine is enabled for [`Chip::run`].
    #[must_use]
    pub fn translation_enabled(&self) -> bool {
        self.translate
    }

    /// Diagnostic counters for the translated engine, including the
    /// per-tile translation caches' lifetime totals.
    #[must_use]
    pub fn translation_stats(&self) -> TranslationStats {
        let mut s = self.tstats;
        for c in &self.trans {
            s.blocks_translated += c.translated;
            s.cache_hits += c.hits;
        }
        s
    }

    /// Total resident DRAM pages across every tile — the quantity the
    /// `memory_pages` budget axis caps.
    #[must_use]
    pub fn resident_pages(&self) -> u64 {
        self.mems.iter().map(|m| m.resident_pages() as u64).sum()
    }

    /// Lifetime trace events emitted so far — the quantity the
    /// `trace_events` budget axis caps. Zero when tracing is disabled.
    #[must_use]
    pub fn trace_events_emitted(&self) -> u64 {
        self.tracer.events_emitted()
    }

    /// Entry points of translated windows — where a window started or a
    /// jump landed — as `(tile index, entry pc)` pairs. This is the
    /// coverage signal the fuzzer feeds back on: a mutated program that
    /// lights up a new entry exercised a control-flow path no earlier
    /// input reached.
    #[must_use]
    pub fn translation_coverage(&self) -> Vec<(usize, u32)> {
        self.trans
            .iter()
            .enumerate()
            .flat_map(|(tile, c)| c.covered_entries().map(move |pc| (tile, pc)))
            .collect()
    }

    /// Cycles the fast path jumped over instead of ticking (diagnostic).
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped
    }

    fn check_deadlock(&self) -> Result<(), SimError> {
        if !self.mesh.idle() {
            return Ok(());
        }
        // First pass: allocation-free scan that bails as soon as any core
        // can still make progress.
        let mut stuck = 0usize;
        for (i, core) in self.cores.iter().enumerate() {
            let Some(core) = core else { continue };
            if core.state() == CoreState::Halted {
                continue;
            }
            if self.busy_until[i] > self.cycle {
                return Ok(()); // someone is still executing
            }
            match self.waiting_on[i] {
                Some(src) => {
                    if self.mesh.has_delivered(TileId(i as u8), TileId(src as u8)) {
                        return Ok(()); // message available, will progress
                    }
                    stuck += 1;
                }
                None => return Ok(()), // running normally
            }
        }
        if stuck == 0 {
            return Ok(());
        }
        // Genuine deadlock: only now build the report, with each tile's
        // blocked operation and peer.
        let waiting = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.as_ref().is_some_and(|c| c.state() != CoreState::Halted))
            .filter_map(|(i, _)| {
                self.waiting_on[i].map(|src| Blocked {
                    tile: TileId(i as u8),
                    op: BlockedOp::Recv {
                        from: TileId(src as u8),
                    },
                })
            })
            .collect();
        Err(SimError::Deadlock {
            cycle: self.cycle,
            waiting,
        })
    }

    /// Collects statistics for the elapsed run.
    fn summary(&self, cycles: u64) -> RunSummary {
        let tiles = (0..self.cfg.topo.tiles())
            .map(|i| TileSummary {
                core: self.cores[i]
                    .as_ref()
                    .map(|c| *c.stats())
                    .unwrap_or_default(),
                icache: self.mems[i].icache_stats(),
                dcache: self.mems[i].dcache_stats(),
                spm: self.mems[i].spm_counts(),
                patch_activations: self.activations[i],
            })
            .collect();
        RunSummary {
            cycles,
            tiles,
            mesh: self.mesh.stats(),
            circuits: self.patchnet.circuits().len(),
            windows: self.tracer.windows_snapshot(self.cycle),
        }
    }

    /// Register value of a tile's core (post-run inspection). `None`
    /// for unloaded or out-of-topology tiles.
    #[must_use]
    pub fn core_reg(&self, tile: TileId, r: stitch_isa::Reg) -> Option<u32> {
        self.cores
            .get(tile.index())
            .and_then(Option::as_ref)
            .map(|c| c.reg(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_isa::custom::{CiDescriptor, CiStage, PatchClass};
    use stitch_isa::op::AluOp;
    use stitch_isa::{Cond, ProgramBuilder, Reg};
    use stitch_patch::{AtMaControl, Sel4, Stage1, T1Mode};

    fn stitch_chip() -> Chip {
        Chip::new(ChipConfig::stitch_16())
    }

    #[test]
    fn single_tile_compute() {
        let mut chip = stitch_chip();
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 6);
        b.li(Reg::R2, 7);
        b.mul(Reg::R3, Reg::R1, Reg::R2);
        b.li(Reg::R4, 0x2000);
        b.sw(Reg::R3, Reg::R4, 0);
        b.halt();
        chip.load_program(TileId(0), &b.build().unwrap()).unwrap();
        let s = chip.run(1_000_000).unwrap();
        assert_eq!(chip.peek_u32(TileId(0), 0x2000), 42);
        assert!(s.cycles > 0);
        assert_eq!(s.tiles[0].core.mul_ops, 1);
    }

    #[test]
    fn two_tile_message_passing() {
        let mut chip = stitch_chip();
        // Tile 0: sends [10, 20, 30] to tile 5.
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x1000);
        b.li(Reg::R2, 10);
        b.sw(Reg::R2, Reg::R1, 0);
        b.li(Reg::R2, 20);
        b.sw(Reg::R2, Reg::R1, 4);
        b.li(Reg::R2, 30);
        b.sw(Reg::R2, Reg::R1, 8);
        b.li(Reg::R3, 5); // destination
        b.li(Reg::R4, 3); // words
        b.send(Reg::R3, Reg::R1, Reg::R4);
        b.halt();
        chip.load_program(TileId(0), &b.build().unwrap()).unwrap();

        // Tile 5: receives and sums into 0x3000.
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x1000);
        b.li(Reg::R3, 0); // source tile
        b.li(Reg::R4, 3);
        b.recv(Reg::R3, Reg::R1, Reg::R4);
        b.lw(Reg::R5, Reg::R1, 0);
        b.lw(Reg::R6, Reg::R1, 4);
        b.lw(Reg::R7, Reg::R1, 8);
        b.add(Reg::R5, Reg::R5, Reg::R6);
        b.add(Reg::R5, Reg::R5, Reg::R7);
        b.li(Reg::R8, 0x3000);
        b.sw(Reg::R5, Reg::R8, 0);
        b.halt();
        chip.load_program(TileId(5), &b.build().unwrap()).unwrap();

        chip.run(1_000_000).unwrap();
        assert_eq!(chip.peek_u32(TileId(5), 0x3000), 60);
    }

    #[test]
    fn deadlock_detected() {
        let mut chip = stitch_chip();
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1); // wait on tile 1, which never sends
        b.li(Reg::R2, 0x1000);
        b.li(Reg::R3, 1);
        b.recv(Reg::R1, Reg::R2, Reg::R3);
        b.halt();
        chip.load_program(TileId(0), &b.build().unwrap()).unwrap();
        match chip.run(100_000) {
            Err(SimError::Deadlock { cycle, waiting }) => {
                assert!(cycle > 0, "deadlock reports its detection cycle");
                assert_eq!(
                    waiting,
                    vec![Blocked {
                        tile: TileId(0),
                        op: BlockedOp::Recv { from: TileId(1) },
                    }]
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_report_is_readable() {
        let err = SimError::Deadlock {
            cycle: 412,
            waiting: vec![
                Blocked {
                    tile: TileId(2),
                    op: BlockedOp::Recv { from: TileId(7) },
                },
                Blocked {
                    tile: TileId(7),
                    op: BlockedOp::Send { to: TileId(2) },
                },
            ],
        };
        assert_eq!(
            err.to_string(),
            "deadlock at cycle 412; tile3 blocked in recv from tile8, tile8 blocked in send to tile3"
        );
    }

    #[test]
    fn custom_instruction_on_local_patch() {
        let mut chip = stitch_chip();
        // Tile 0 has {AT-MA}; build CI: out0 = in0*in1 + in2.
        let control = ControlWord::AtMa(AtMaControl {
            s1: Stage1::default(),
            m_src1: Sel4::In2,
            m_src2: Sel4::In3,
            a2_takes_a1: false,
            a2_op: AluOp::Add,
            a2_src2: Sel4::A1,
        });
        // a1 = or(in0,in0) = in0; product = in2*in3; out0 = product + in0.
        let mut b = ProgramBuilder::new();
        let ci = b.define_ci(CiDescriptor::single(
            CiId(0),
            "madd",
            CiStage::new(PatchClass::AtMa, control.pack().unwrap()),
        ));
        b.li(Reg::R1, 100);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 6);
        b.li(Reg::R4, 7);
        b.custom(ci, &[Reg::R1, Reg::R2, Reg::R3, Reg::R4], &[Reg::R5])
            .unwrap();
        b.halt();
        let program = b.build().unwrap();
        let bindings = HashMap::from([(0u16, CiBinding::Single { control })]);
        chip.load_kernel(TileId(0), &program, bindings).unwrap();
        let s = chip.run(100_000).unwrap();
        assert_eq!(chip.core_reg(TileId(0), Reg::R5), Some(6 * 7 + 100));
        assert_eq!(s.tiles[0].patch_activations, 1);
        assert_eq!(s.total_custom(), 1);
        assert_eq!(s.total_fused(), 0);
    }

    #[test]
    fn fused_custom_instruction() {
        let mut chip = stitch_chip();
        // Fuse tile1 ({AT-AS}) with tile9 ({AT-SA}), paper Fig 5 pair.
        chip.reserve_circuit(TileId(1), TileId(9)).unwrap();
        // First ({AT-AS}): a2 = in2 + in3; s = a2 << 1? shift amount comes
        // from in2... use bypass: out0 = in2 + in3.
        let first = ControlWord::AtAs(stitch_patch::AtAsControl {
            s1: Stage1::default(),
            a2_op: AluOp::Add,
            a2_src1: Sel4::In2,
            a2_src2: Sel4::In3,
            s_op: None,
            s_amt_in3: false,
        });
        // Second ({AT-SA}): receives [p1.out0, p1.out1, in2, in3];
        // s = p1.out0 << in3? amount from in3 (ride-along). Then a2 = s + in2.
        let second = ControlWord::AtSa(stitch_patch::AtSaControl {
            s1: Stage1::default(),
            s_in: Sel4::A1, // a1 = or(in0,in0) = p1.out0
            s_op: Some(AluOp::Sll),
            s_amt_in3: true,
            a2_op: AluOp::Add,
            a2_src2: Sel4::In2,
        });
        let mut b = ProgramBuilder::new();
        let ci = b.define_ci(CiDescriptor::fused(
            CiId(0),
            "addshladd",
            CiStage::new(PatchClass::AtAs, first.pack().unwrap()),
            CiStage::new(PatchClass::AtSa, second.pack().unwrap()),
        ));
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 5); // in2
        b.li(Reg::R4, 2); // in3
        b.custom(ci, &[Reg::R1, Reg::R2, Reg::R3, Reg::R4], &[Reg::R5])
            .unwrap();
        b.halt();
        let program = b.build().unwrap();
        let bindings = HashMap::from([(
            0u16,
            CiBinding::Fused {
                first,
                partner: TileId(9),
                second,
            },
        )]);
        chip.load_kernel(TileId(1), &program, bindings).unwrap();
        let s = chip.run(100_000).unwrap();
        // p1.out0 = 5 + 2 = 7; second: (7 << 2) + 5 = 33.
        assert_eq!(chip.core_reg(TileId(1), Reg::R5), Some(33));
        assert_eq!(s.total_fused(), 1);
        assert_eq!(s.tiles[1].patch_activations, 1);
        assert_eq!(s.tiles[9].patch_activations, 1);
    }

    #[test]
    fn binding_validation_rejects_wrong_class() {
        let mut chip = stitch_chip();
        let control = ControlWord::AtAs(stitch_patch::AtAsControl::default());
        let mut b = ProgramBuilder::new();
        let ci = b.define_ci(CiDescriptor::single(
            CiId(0),
            "x",
            CiStage::new(PatchClass::AtAs, 0),
        ));
        b.custom(ci, &[Reg::R1], &[Reg::R2]).unwrap();
        b.halt();
        // Tile 0 has {AT-MA}, not {AT-AS}.
        let err = chip.load_kernel(
            TileId(0),
            &b.build().unwrap(),
            HashMap::from([(0u16, CiBinding::Single { control })]),
        );
        assert!(matches!(err, Err(SimError::BadBinding { .. })));
    }

    #[test]
    fn binding_validation_requires_circuit() {
        let mut chip = stitch_chip();
        let first = ControlWord::AtAs(stitch_patch::AtAsControl::default());
        let second = ControlWord::AtSa(stitch_patch::AtSaControl::default());
        let mut b = ProgramBuilder::new();
        let ci = b.define_ci(CiDescriptor::fused(
            CiId(0),
            "x",
            CiStage::new(PatchClass::AtAs, 0),
            CiStage::new(PatchClass::AtSa, 0),
        ));
        b.custom(ci, &[Reg::R1], &[Reg::R2]).unwrap();
        b.halt();
        // No circuit reserved between tile1 and tile9.
        let err = chip.load_kernel(
            TileId(1),
            &b.build().unwrap(),
            HashMap::from([(
                0u16,
                CiBinding::Fused {
                    first,
                    partner: TileId(9),
                    second,
                },
            )]),
        );
        assert!(matches!(err, Err(SimError::BadBinding { .. })));
    }

    #[test]
    fn binding_validation_rejects_remote_memory_ops() {
        let mut chip = stitch_chip();
        chip.reserve_circuit(TileId(1), TileId(9)).unwrap();
        let first = ControlWord::AtAs(stitch_patch::AtAsControl::default());
        let second = ControlWord::AtSa(stitch_patch::AtSaControl {
            s1: Stage1 {
                t1: T1Mode::Load,
                ..Stage1::default()
            },
            ..stitch_patch::AtSaControl::default()
        });
        let mut b = ProgramBuilder::new();
        let ci = b.define_ci(CiDescriptor::fused(
            CiId(0),
            "x",
            CiStage::new(PatchClass::AtAs, 0),
            CiStage::new(PatchClass::AtSa, 0),
        ));
        b.custom(ci, &[Reg::R1], &[Reg::R2]).unwrap();
        b.halt();
        let err = chip.load_kernel(
            TileId(1),
            &b.build().unwrap(),
            HashMap::from([(
                0u16,
                CiBinding::Fused {
                    first,
                    partner: TileId(9),
                    second,
                },
            )]),
        );
        assert!(matches!(err, Err(SimError::BadBinding { .. })));
    }

    #[test]
    fn unbound_custom_instruction_faults() {
        let mut chip = stitch_chip();
        let mut b = ProgramBuilder::new();
        let ci = b.define_ci(CiDescriptor::single(
            CiId(0),
            "x",
            CiStage::new(PatchClass::AtMa, 0),
        ));
        b.custom(ci, &[Reg::R1], &[Reg::R2]).unwrap();
        b.halt();
        chip.load_program(TileId(0), &b.build().unwrap()).unwrap();
        match chip.run(10_000) {
            Err(SimError::Cpu {
                tile,
                error: CpuError::UnboundCustom(_),
            }) => {
                assert_eq!(tile, TileId(0));
            }
            other => panic!("expected unbound custom fault, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_ring_of_four_tiles() {
        // tile0 -> tile1 -> tile2 -> tile3, three frames, each adds 1.
        let mut chip = stitch_chip();
        let frames = 3u32;

        // Source (tile 0): sends values 100, 200, 300 to tile 1.
        let mut b = ProgramBuilder::new();
        b.li(Reg::R10, i64::from(frames));
        b.li(Reg::R1, 0x1000);
        b.li(Reg::R2, 100);
        let top = b.bound_label();
        b.sw(Reg::R2, Reg::R1, 0);
        b.li(Reg::R3, 1);
        b.li(Reg::R4, 1);
        b.send(Reg::R3, Reg::R1, Reg::R4);
        b.addi(Reg::R2, Reg::R2, 100);
        b.addi(Reg::R10, Reg::R10, -1);
        b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
        b.halt();
        chip.load_program(TileId(0), &b.build().unwrap()).unwrap();

        // Middle tiles 1, 2: recv from prev, add 1, send to next.
        for t in 1..=2u8 {
            let mut b = ProgramBuilder::new();
            b.li(Reg::R10, i64::from(frames));
            b.li(Reg::R1, 0x1000);
            b.li(Reg::R5, i64::from(t) - 1); // prev tile
            b.li(Reg::R6, i64::from(t) + 1); // next tile
            b.li(Reg::R4, 1);
            let top = b.bound_label();
            b.recv(Reg::R5, Reg::R1, Reg::R4);
            b.lw(Reg::R2, Reg::R1, 0);
            b.addi(Reg::R2, Reg::R2, 1);
            b.sw(Reg::R2, Reg::R1, 0);
            b.send(Reg::R6, Reg::R1, Reg::R4);
            b.addi(Reg::R10, Reg::R10, -1);
            b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
            b.halt();
            chip.load_program(TileId(t), &b.build().unwrap()).unwrap();
        }

        // Sink (tile 3): accumulates into 0x4000.
        let mut b = ProgramBuilder::new();
        b.li(Reg::R10, i64::from(frames));
        b.li(Reg::R1, 0x1000);
        b.li(Reg::R5, 2);
        b.li(Reg::R4, 1);
        b.li(Reg::R7, 0);
        let top = b.bound_label();
        b.recv(Reg::R5, Reg::R1, Reg::R4);
        b.lw(Reg::R2, Reg::R1, 0);
        b.add(Reg::R7, Reg::R7, Reg::R2);
        b.addi(Reg::R10, Reg::R10, -1);
        b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
        b.li(Reg::R8, 0x4000);
        b.sw(Reg::R7, Reg::R8, 0);
        b.halt();
        chip.load_program(TileId(3), &b.build().unwrap()).unwrap();

        chip.run(10_000_000).unwrap();
        // (100+2) + (200+2) + (300+2) = 606
        assert_eq!(chip.peek_u32(TileId(3), 0x4000), 606);
    }

    #[test]
    fn xbar_store_configures_patchnet() {
        let mut chip = stitch_chip();
        let mut b = ProgramBuilder::new();
        // Write "North drives East" into switch 5's register:
        // out East is index 1; in North code 0 -> bits [5:3] = 0; all other
        // outputs unconnected (7).
        let mut word: i64 = 0;
        for out in 0..6 {
            let code = if out == 1 { 0 } else { 7 };
            word |= code << (3 * out);
        }
        b.li(Reg::R1, i64::from(stitch_isa::memmap::XBAR_CFG_BASE as i32));
        b.li(Reg::R2, word);
        b.sw(Reg::R2, Reg::R1, 5 * 4);
        b.halt();
        chip.load_program(TileId(0), &b.build().unwrap()).unwrap();
        chip.run(10_000).unwrap();
        use stitch_noc::PortDir;
        assert_eq!(
            chip.patchnet().switch(TileId(5)).driver(PortDir::East),
            Some(PortDir::North)
        );
    }

    /// The `madd` kernel from `custom_instruction_on_local_patch`:
    /// `R5 = 6*7 + 100` via one CI on tile 0's {AT-MA} patch.
    fn madd_kernel() -> (Program, HashMap<u16, CiBinding>) {
        let control = ControlWord::AtMa(AtMaControl {
            s1: Stage1::default(),
            m_src1: Sel4::In2,
            m_src2: Sel4::In3,
            a2_takes_a1: false,
            a2_op: AluOp::Add,
            a2_src2: Sel4::A1,
        });
        let mut b = ProgramBuilder::new();
        let ci = b.define_ci(CiDescriptor::single(
            CiId(0),
            "madd",
            CiStage::new(PatchClass::AtMa, control.pack().unwrap()),
        ));
        b.li(Reg::R1, 100);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 6);
        b.li(Reg::R4, 7);
        b.custom(ci, &[Reg::R1, Reg::R2, Reg::R3, Reg::R4], &[Reg::R5])
            .unwrap();
        b.halt();
        let bindings = HashMap::from([(0u16, CiBinding::Single { control })]);
        (b.build().unwrap(), bindings)
    }

    #[test]
    fn failed_patch_demotes_to_software_with_identical_result() {
        let (program, bindings) = madd_kernel();
        let mut healthy = stitch_chip();
        healthy
            .load_kernel(TileId(0), &program, bindings.clone())
            .unwrap();
        let hs = healthy.run(100_000).unwrap();

        let mut faulted = stitch_chip();
        faulted.set_fault_plan(FaultPlan::new(1).with(
            0,
            FaultKind::PatchFail {
                tile: TileId(0),
                until: None,
            },
        ));
        faulted.load_kernel(TileId(0), &program, bindings).unwrap();
        let fs = faulted.run(100_000).unwrap();

        // Same architectural result, software cycle cost, no activation.
        assert_eq!(faulted.core_reg(TileId(0), Reg::R5), Some(6 * 7 + 100));
        assert_eq!(fs.tiles[0].patch_activations, 0);
        assert_eq!(fs.tiles[0].core.demoted_ops, 1);
        assert_eq!(faulted.fault_stats().demotions, 1);
        assert!(fs.cycles > hs.cycles, "demotion must cost extra cycles");
    }

    #[test]
    fn strict_mode_reports_typed_fault() {
        let (program, bindings) = madd_kernel();
        let mut chip = stitch_chip();
        chip.set_fault_plan(
            FaultPlan::new(2)
                .with(
                    0,
                    FaultKind::PatchFail {
                        tile: TileId(0),
                        until: None,
                    },
                )
                .strict(),
        );
        chip.load_kernel(TileId(0), &program, bindings).unwrap();
        match chip.run(100_000) {
            Err(SimError::Faulted { tile, kind, .. }) => {
                assert_eq!(tile, TileId(0));
                assert_eq!(kind, FaultedKind::PatchDead);
            }
            other => panic!("expected typed fault, got {other:?}"),
        }
    }

    #[test]
    fn severed_circuit_demotes_fused_ci_after_watchdog() {
        // Same fused kernel as `fused_custom_instruction`, but a switch on
        // the circuit dies before the CI issues.
        let mut chip = stitch_chip();
        chip.reserve_circuit(TileId(1), TileId(9)).unwrap();
        let first = ControlWord::AtAs(stitch_patch::AtAsControl {
            s1: Stage1::default(),
            a2_op: AluOp::Add,
            a2_src1: Sel4::In2,
            a2_src2: Sel4::In3,
            s_op: None,
            s_amt_in3: false,
        });
        let second = ControlWord::AtSa(stitch_patch::AtSaControl {
            s1: Stage1::default(),
            s_in: Sel4::A1,
            s_op: Some(AluOp::Sll),
            s_amt_in3: true,
            a2_op: AluOp::Add,
            a2_src2: Sel4::In2,
        });
        let mut b = ProgramBuilder::new();
        let ci = b.define_ci(CiDescriptor::fused(
            CiId(0),
            "addshladd",
            CiStage::new(PatchClass::AtAs, first.pack().unwrap()),
            CiStage::new(PatchClass::AtSa, second.pack().unwrap()),
        ));
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 5);
        b.li(Reg::R4, 2);
        b.custom(ci, &[Reg::R1, Reg::R2, Reg::R3, Reg::R4], &[Reg::R5])
            .unwrap();
        b.halt();
        chip.set_fault_plan(FaultPlan::new(3).with(
            0,
            FaultKind::SwitchFail {
                tile: TileId(9),
                until: None,
            },
        ));
        chip.load_kernel(
            TileId(1),
            &b.build().unwrap(),
            HashMap::from([(
                0u16,
                CiBinding::Fused {
                    first,
                    partner: TileId(9),
                    second,
                },
            )]),
        )
        .unwrap();
        let s = chip.run(100_000).unwrap();
        // Same value as the healthy fused run, but demoted: the local
        // patch computed stage one, software emulated stage two.
        assert_eq!(chip.core_reg(TileId(1), Reg::R5), Some(33));
        assert_eq!(s.total_fused(), 0);
        assert_eq!(s.tiles[1].core.demoted_ops, 1);
        assert_eq!(s.tiles[1].patch_activations, 1);
        assert_eq!(s.tiles[9].patch_activations, 0);
        let stats = chip.fault_stats();
        assert_eq!(stats.watchdog_trips, 1);
        assert_eq!(stats.demotions, 1);
        assert_eq!(stats.injected, 1);
    }

    #[test]
    fn transient_patch_fault_recovers() {
        // Patch on tile 0 is down for cycles [0, 40); a CI executed after
        // recovery runs on the patch again.
        let (program, bindings) = madd_kernel();
        let mut chip = stitch_chip();
        chip.set_fault_plan(FaultPlan::new(4).with(
            0,
            FaultKind::PatchFail {
                tile: TileId(0),
                until: Some(1),
            },
        ));
        chip.load_kernel(TileId(0), &program, bindings).unwrap();
        let s = chip.run(100_000).unwrap();
        // The fault recovered at cycle 1, long before the CI issued
        // (four `li` instructions precede it).
        assert_eq!(chip.core_reg(TileId(0), Reg::R5), Some(142));
        assert_eq!(s.tiles[0].core.demoted_ops, 0);
        assert_eq!(s.tiles[0].patch_activations, 1);
    }

    #[test]
    fn config_upset_scrubs_at_fixed_cost() {
        let (program, bindings) = madd_kernel();
        let mut healthy = stitch_chip();
        healthy
            .load_kernel(TileId(0), &program, bindings.clone())
            .unwrap();
        let hs = healthy.run(100_000).unwrap();

        let mut upset = stitch_chip();
        upset.set_fault_plan(FaultPlan::new(5).with(0, FaultKind::ConfigUpset { tile: TileId(0) }));
        upset.load_kernel(TileId(0), &program, bindings).unwrap();
        let us = upset.run(100_000).unwrap();

        assert_eq!(upset.core_reg(TileId(0), Reg::R5), Some(142));
        assert_eq!(upset.fault_stats().scrubs, 1);
        // The scrub charges exactly its fixed cost on the core counter
        // (wall-clock grows one less: the issue cycle overlaps).
        assert_eq!(
            us.tiles[0].core.cycles,
            hs.tiles[0].core.cycles + u64::from(crate::faults::CONFIG_SCRUB_CYCLES)
        );
        assert!(us.cycles > hs.cycles);
    }

    /// Loops a custom instruction `iters` times on tile 1 (`R5` = its
    /// result, accumulated into `R9`, with `in2` stepping each
    /// iteration): stage one of `fused_custom_instruction`'s `addshladd`
    /// alone on tile 1's {AT-AS} patch, or the whole pair (partner tile
    /// 9) when `fused`. The plan is installed before the kernel loads.
    fn ci_loop_chip(fused: bool, iters: i64, plan: FaultPlan) -> Chip {
        let mut chip = stitch_chip();
        chip.reserve_circuit(TileId(1), TileId(9)).unwrap();
        chip.set_fault_plan(plan);
        let first = ControlWord::AtAs(stitch_patch::AtAsControl {
            s1: Stage1::default(),
            a2_op: AluOp::Add,
            a2_src1: Sel4::In2,
            a2_src2: Sel4::In3,
            s_op: None,
            s_amt_in3: false,
        });
        let second = ControlWord::AtSa(stitch_patch::AtSaControl {
            s1: Stage1::default(),
            s_in: Sel4::A1,
            s_op: Some(AluOp::Sll),
            s_amt_in3: true,
            a2_op: AluOp::Add,
            a2_src2: Sel4::In2,
        });
        let stage_one = CiStage::new(PatchClass::AtAs, first.pack().unwrap());
        let mut b = ProgramBuilder::new();
        let (ci, binding) = if fused {
            let stage_two = CiStage::new(PatchClass::AtSa, second.pack().unwrap());
            let desc = CiDescriptor::fused(CiId(0), "addshladd", stage_one, stage_two);
            let binding = CiBinding::Fused {
                first,
                partner: TileId(9),
                second,
            };
            (b.define_ci(desc), binding)
        } else {
            let desc = CiDescriptor::single(CiId(0), "add", stage_one);
            (b.define_ci(desc), CiBinding::Single { control: first })
        };
        b.li(Reg::R10, iters);
        b.li(Reg::R1, 100);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 5);
        b.li(Reg::R4, 2);
        let top = b.bound_label();
        b.custom(ci, &[Reg::R1, Reg::R2, Reg::R3, Reg::R4], &[Reg::R5])
            .unwrap();
        b.add(Reg::R9, Reg::R9, Reg::R5);
        b.addi(Reg::R3, Reg::R3, 1);
        b.addi(Reg::R10, Reg::R10, -1);
        b.branch(Cond::Ne, Reg::R10, Reg::R0, top);
        b.halt();
        chip.load_kernel(
            TileId(1),
            &b.build().unwrap(),
            HashMap::from([(0u16, binding)]),
        )
        .unwrap();
        chip
    }

    /// Runs `build()`'s chip on the translated fast path, on the fast
    /// path with translation off, and on `run_reference`, and asserts
    /// the three agree on the outcome, the clock, every register and
    /// every fault counter. Returns the translated chip and its outcome.
    fn three_engines(build: impl Fn() -> Chip) -> (Chip, Result<RunSummary, SimError>) {
        let mut translated = build();
        let mut interpreted = build();
        interpreted.set_translation(false);
        let mut naive = build();
        let a = translated.run(100_000);
        assert_eq!(a, interpreted.run(100_000), "translation on vs off");
        assert_eq!(a, naive.run_reference(100_000), "fast path vs reference");
        for other in [&interpreted, &naive] {
            assert_eq!(translated.cycle(), other.cycle());
            assert_eq!(translated.fault_stats(), other.fault_stats());
            for t in 0..16u8 {
                for r in 0..32u8 {
                    let r = Reg::from_index(r).unwrap();
                    assert_eq!(
                        translated.core_reg(TileId(t), r),
                        other.core_reg(TileId(t), r)
                    );
                }
            }
        }
        (translated, a)
    }

    /// Instructions the interpreter retired on the translated run — a
    /// window that carried the customs leaves fewer than there are
    /// customs.
    fn interpreted_instrs(chip: &Chip, s: &RunSummary) -> u64 {
        s.total_instructions() - chip.translation_stats().uops_executed
    }

    #[test]
    fn partner_config_upset_scrubs_identically_on_every_engine() {
        // The upset lands on the *partner* mid-loop: the next fused CI
        // side-exits, the interpreter scrubs tile 9's configuration, and
        // later activations return to the window.
        let plan = FaultPlan::new(6).with(40, FaultKind::ConfigUpset { tile: TileId(9) });
        let (chip, s) = three_engines(|| ci_loop_chip(true, 30, plan.clone()));
        let s = s.unwrap();
        assert_eq!(chip.fault_stats().scrubs, 1);
        assert_eq!(s.total_fused(), 30);
        assert!(interpreted_instrs(&chip, &s) < s.total_custom());
    }

    #[test]
    fn severed_circuit_demotes_identically_before_and_after_the_trip() {
        // Permanent severing before the first CI: the first activation
        // trips the watchdog in the interpreter, the rest demote inline.
        // Mid-loop severing: healthy fused activations first.
        for at in [0, 60] {
            let plan = FaultPlan::new(7).with(
                at,
                FaultKind::SwitchFail {
                    tile: TileId(9),
                    until: None,
                },
            );
            let (chip, s) = three_engines(|| ci_loop_chip(true, 30, plan.clone()));
            let s = s.unwrap();
            let stats = chip.fault_stats();
            assert_eq!(stats.watchdog_trips, 1, "severed at {at}");
            assert_eq!(stats.demotions, s.total_demoted(), "severed at {at}");
            assert_eq!(s.total_fused() + stats.demotions, 30, "severed at {at}");
            assert_eq!(at == 0, s.total_fused() == 0, "severed at {at}");
            assert!(interpreted_instrs(&chip, &s) < s.total_custom());
        }
    }

    #[test]
    fn transient_patch_recovery_inside_a_window_matches_every_engine() {
        // The recovery cycle is not a plan event, so nothing stops the
        // window there: the rung must be read at each activation's own
        // start cycle — software before cycle 120, the patch after.
        for fused in [false, true] {
            let plan = FaultPlan::new(8).with(
                0,
                FaultKind::PatchFail {
                    tile: TileId(1),
                    until: Some(120),
                },
            );
            let (chip, s) = three_engines(|| ci_loop_chip(fused, 40, plan.clone()));
            let s = s.unwrap();
            let demoted = chip.fault_stats().demotions;
            assert!(demoted > 0 && demoted < 40, "fused={fused}: {demoted}");
            assert_eq!(s.tiles[1].patch_activations, 40 - demoted);
            assert!(interpreted_instrs(&chip, &s) < s.total_custom());
        }
    }

    /// Runs the fused loop under one transient `fault` that recovers at
    /// `recovery`, mid-loop, on all three engines: the first activation
    /// trips the watchdog, later ones demote until the recovery cycle and
    /// fuse after it. Fewer interpreted instructions than either count
    /// means windows retired customs on both sides of the recovery.
    fn fused_recovery_inside_a_window(fault: FaultKind, recovery: u64) {
        let plan = FaultPlan::new(11).with(0, fault);
        let (chip, s) = three_engines(|| ci_loop_chip(true, 40, plan.clone()));
        let s = s.unwrap();
        let stats = chip.fault_stats();
        assert_eq!(stats.watchdog_trips, 1);
        assert_eq!(stats.demotions, s.total_demoted());
        assert_eq!(s.total_fused() + stats.demotions, 40);
        assert!(chip.cycle() > recovery);
        let interpreted = interpreted_instrs(&chip, &s);
        assert!(
            interpreted < stats.demotions.min(s.total_fused()),
            "{interpreted} interpreted, {} demoted, {} fused",
            stats.demotions,
            s.total_fused()
        );
    }

    #[test]
    fn transient_mid_path_switch_recovery_inside_a_window_matches_every_engine() {
        // Tile 5's switch is the bypass hop of the 1 -> 9 circuit.
        let fault = FaultKind::SwitchFail {
            tile: TileId(5),
            until: Some(200),
        };
        fused_recovery_inside_a_window(fault, 200);
    }

    #[test]
    fn transient_partner_patch_recovery_inside_a_window_matches_every_engine() {
        let fault = FaultKind::PatchFail {
            tile: TileId(9),
            until: Some(200),
        };
        fused_recovery_inside_a_window(fault, 200);
    }

    #[test]
    fn strict_plan_faults_identically_on_every_engine() {
        for (fused, tile, kind) in [
            (false, TileId(1), FaultedKind::PatchDead),
            (true, TileId(9), FaultedKind::PatchDead),
            (true, TileId(9), FaultedKind::CircuitDead),
        ] {
            let fault = match (fused, kind) {
                (true, FaultedKind::CircuitDead) => FaultKind::SwitchFail { tile, until: None },
                _ => FaultKind::PatchFail { tile, until: None },
            };
            let plan = FaultPlan::new(9).with(50, fault).strict();
            let (_, outcome) = three_engines(|| ci_loop_chip(fused, 30, plan.clone()));
            // A dead partner patch severs the circuit as seen from tile 1.
            let expected = if fused {
                FaultedKind::CircuitDead
            } else {
                kind
            };
            match outcome {
                Err(SimError::Faulted {
                    tile: TileId(1),
                    cycle,
                    kind,
                }) => {
                    assert!(cycle >= 50);
                    assert_eq!(kind, expected);
                }
                other => panic!("expected a typed fault on tile 1, got {other:?}"),
            }
        }
    }

    #[test]
    fn rollback_past_a_transient_fault_matches_every_engine() {
        for fused in [false, true] {
            let fault = if fused {
                FaultKind::SwitchFail {
                    tile: TileId(9),
                    until: Some(130),
                }
            } else {
                FaultKind::PatchFail {
                    tile: TileId(1),
                    until: Some(130),
                }
            };
            let plan = FaultPlan::new(10).with(100, fault);
            let (chip, s) = three_engines(|| {
                let mut chip = ci_loop_chip(fused, 40, plan.clone());
                chip.enable_rollback(64, 4);
                chip
            });
            s.unwrap();
            let stats = chip.fault_stats();
            assert!(stats.rollbacks >= 1, "fused={fused}: {stats:?}");
            assert_eq!(stats.demotions, 0, "fused={fused}: {stats:?}");
        }
    }
}
