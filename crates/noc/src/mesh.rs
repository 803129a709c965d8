//! Flit-level model of the conventional inter-core mesh (paper Table II).
//!
//! - 2-D mesh, XY dimension-order routing (deadlock free);
//! - wormhole switching with credit-based input buffering;
//! - 5-stage routers: a flit becomes eligible for switch traversal
//!   [`ROUTER_PIPELINE`] cycles after entering an input buffer, and link
//!   traversal to the next router takes one further cycle;
//! - 1-flit control packets and 5-flit data packets (head + four 32-bit
//!   payload words on the 16-bit-wide link modelled at packet granularity);
//! - messages longer than four words are segmented into multiple packets
//!   and reassembled at the destination NIC.

use crate::{PortDir, TileId, Topology};
use std::collections::VecDeque;
use stitch_trace::{TraceEvent, Tracer};

/// Router pipeline depth in cycles (5-stage router, Table II).
pub const ROUTER_PIPELINE: u64 = 5;
/// Link traversal latency in cycles.
pub const LINK_LATENCY: u64 = 1;
/// Maximum payload words per data packet (16-byte data packets).
pub const MAX_PAYLOAD_WORDS: usize = 4;

/// Packet class, sized per the paper (1-flit control, 5-flit data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Single-flit control packet.
    Control,
    /// Head + up-to-four payload flits.
    Data,
}

/// Network configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Geometry.
    pub topo: Topology,
    /// Input-buffer capacity per port, in flits.
    pub buffer_flits: usize,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            topo: Topology::stitch_4x4(),
            buffer_flits: 8,
        }
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Packets injected.
    pub packets_sent: u64,
    /// Packets fully delivered.
    pub packets_delivered: u64,
    /// Flit-hops traversed (energy proxy).
    pub flit_hops: u64,
    /// Sum of packet latencies (injection to delivery), cycles.
    pub total_packet_latency: u64,
}

impl MeshStats {
    /// Mean end-to-end packet latency in cycles.
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.total_packet_latency as f64 / self.packets_delivered as f64
        }
    }
}

/// One flit, buffered at a router or queued for injection; a
/// [`MeshSnapshot`] holds these verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Destination tile.
    pub dst: TileId,
    /// Source tile.
    pub src: TileId,
    /// Head flit of its packet.
    pub is_head: bool,
    /// Tail flit of its packet.
    pub is_tail: bool,
    /// Payload word (heads of control packets carry one word too).
    pub word: u32,
    /// Message id for reassembly.
    pub msg_id: u64,
    /// Total words of the whole message (carried on every head).
    pub msg_len: u32,
    /// Injection cycle (for latency accounting).
    pub injected_at: u64,
    /// Cycle at which the flit becomes eligible at its current router.
    pub ready_at: u64,
}

/// Snapshot of one in-flight flit: the live [`Flit`] itself.
pub use self::Flit as FlitSnapshot;

const PORTS: usize = 5; // N,E,S,W + Local

/// Why a [`MeshSnapshot`] was rejected by [`Mesh::validate_snapshot`].
///
/// Snapshots cross a trust boundary — they may come from a file a user
/// edited or a fuzzer generated — so every malformed shape or value is
/// reported as a typed error before any mesh state is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshError {
    /// A per-tile vector's length does not match the topology.
    Shape {
        /// Which vector was mis-sized.
        what: &'static str,
        /// Length found in the snapshot.
        got: usize,
        /// Tile count of the restoring mesh.
        want: usize,
    },
    /// A port index (wormhole owner or round-robin pointer) is outside
    /// the 5-port router.
    BadPort {
        /// Router holding the bad value.
        router: usize,
        /// The out-of-range port index.
        port: usize,
    },
    /// A flit, reassembly, or message names a tile outside the mesh.
    BadTileRef {
        /// The out-of-range tile index.
        tile: u8,
        /// Tile count of the restoring mesh.
        tiles: usize,
    },
    /// An input buffer holds more flits than its credit-managed capacity.
    OverfullBuffer {
        /// Router holding the over-capacity buffer.
        router: usize,
        /// Input port of the buffer.
        port: usize,
        /// Flits recorded in the snapshot.
        flits: usize,
        /// Configured capacity in flits.
        capacity: usize,
    },
    /// The packet counters disagree with the flits in flight: more
    /// packets delivered than sent, an outstanding-packet count that is
    /// not the number of tail flits in injection queues and router
    /// buffers, or a reassembly whose message has no tail flit left.
    Conservation {
        /// Which rule the snapshot breaks.
        what: &'static str,
    },
    /// A reassembly holds more payload words than its message declares.
    OversizedReassembly {
        /// Destination tile of the reassembly.
        tile: usize,
        /// Words recorded.
        words: usize,
        /// Words the message header promised.
        expected: u32,
    },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::Shape { what, got, want } => {
                write!(
                    f,
                    "snapshot {what} has {got} entries, mesh has {want} tiles"
                )
            }
            MeshError::BadPort { router, port } => {
                write!(
                    f,
                    "router {router} names port {port} (routers have {PORTS} ports)"
                )
            }
            MeshError::BadTileRef { tile, tiles } => {
                write!(f, "tile index {tile} outside the {tiles}-tile mesh")
            }
            MeshError::OverfullBuffer {
                router,
                port,
                flits,
                capacity,
            } => write!(
                f,
                "router {router} port {port} holds {flits} flits, capacity {capacity}"
            ),
            MeshError::Conservation { what } => {
                write!(f, "snapshot breaks flit conservation: {what}")
            }
            MeshError::OversizedReassembly {
                tile,
                words,
                expected,
            } => write!(
                f,
                "reassembly at tile {tile} holds {words} words of a {expected}-word message"
            ),
        }
    }
}

impl std::error::Error for MeshError {}

/// Output port for a flit at `here` by XY dimension-order routing.
fn route_xy(topo: &Topology, here: TileId, dst: TileId) -> usize {
    let (c, d) = (topo.coord(here), topo.coord(dst));
    if d.x > c.x {
        port_index(PortDir::East)
    } else if d.x < c.x {
        port_index(PortDir::West)
    } else if d.y > c.y {
        port_index(PortDir::South)
    } else if d.y < c.y {
        port_index(PortDir::North)
    } else {
        4 // local
    }
}

fn port_index(p: PortDir) -> usize {
    match p {
        PortDir::North => 0,
        PortDir::East => 1,
        PortDir::South => 2,
        PortDir::West => 3,
        PortDir::Reg | PortDir::Patch => 4, // local
    }
}

/// Cycles one hop adds to a flit's trip: the router pipeline at the
/// next router plus the link into it.
const HOP: u64 = ROUTER_PIPELINE + LINK_LATENCY;

/// Input port a flit leaving through output `out` (N, E, S, W) enters
/// at the neighbouring router.
fn opposite(out: usize) -> usize {
    (out + 2) % 4
}

#[derive(Debug, Default)]
struct Router {
    inputs: [VecDeque<Flit>; PORTS],
    /// Bit `p` is set while `inputs[p]` holds a flit. Derived state:
    /// kept by [`Router::push`] / [`Router::pop`], rebuilt on restore.
    occupied: u8,
    /// Wormhole state: which input currently owns each output port.
    out_owner: [Option<usize>; PORTS],
    /// Round-robin pointer per output.
    rr: [usize; PORTS],
}

impl Router {
    fn push(&mut self, port: usize, flit: Flit) {
        self.inputs[port].push_back(flit);
        self.occupied |= 1 << port;
    }

    fn pop(&mut self, port: usize) -> Option<Flit> {
        let flit = self.inputs[port].pop_front();
        if self.inputs[port].is_empty() {
            self.occupied &= !(1 << port);
        }
        flit
    }
}

/// A fully delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender tile.
    pub src: TileId,
    /// Payload words.
    pub words: Vec<u32>,
}

/// One in-progress message reassembly at a destination NIC; a
/// [`MeshSnapshot`] holds these verbatim.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reassembly {
    /// Sender tile.
    pub src: TileId,
    /// Message id.
    pub msg_id: u64,
    /// Total words expected.
    pub expected: u32,
    /// Words received so far.
    pub words: Vec<u32>,
}

/// Snapshot of one in-progress reassembly: the live [`Reassembly`] itself.
pub use self::Reassembly as ReassemblySnapshot;

/// Snapshot of one router: buffered flits plus wormhole/arbiter state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// Input buffers in port order (N, E, S, W, local).
    pub inputs: [Vec<Flit>; PORTS],
    /// Which input currently owns each output port.
    pub out_owner: [Option<u8>; PORTS],
    /// Round-robin pointer per output.
    pub rr: [u8; PORTS],
}

/// Complete state of a [`Mesh`]: every buffered flit, credit-relevant
/// occupancy, wormhole ownership, pending injections, reassemblies,
/// delivered-but-unread messages, statistics, and fault state. Captured
/// by [`Mesh::snapshot`] and reinstalled by [`Mesh::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshSnapshot {
    /// Per-router buffered flits and arbiter state.
    pub routers: Vec<RouterSnapshot>,
    /// Per-tile injection queues (packets awaiting the local port).
    pub inject: Vec<Vec<Vec<Flit>>>,
    /// Per-tile in-flight reassemblies.
    pub assembling: Vec<Vec<Reassembly>>,
    /// Per-tile delivered messages not yet consumed.
    pub delivered: Vec<Vec<Message>>,
    /// Traffic statistics at capture time.
    pub stats: MeshStats,
    /// Network clock at capture time.
    pub cycle: u64,
    /// Next message id to allocate.
    pub next_msg_id: u64,
    /// Per-tile, per-direction link-fault deadlines.
    pub link_down_until: Vec<[u64; 4]>,
    /// Whether any link fault was ever injected.
    pub any_link_faults: bool,
    /// Consecutive no-progress ticks at capture time.
    pub stalled_ticks: u64,
}

/// One switch-traversal decision, collected first so the per-cycle update
/// stays atomic. Stored in a scratch buffer owned by [`Mesh`] so `tick`
/// allocates nothing in steady state.
#[derive(Debug)]
struct Move {
    from_router: usize,
    from_port: usize,
    to_router: Option<usize>, // None = ejected locally
    to_port: usize,
    /// Output port the flit traverses at `from_router` (recorded at
    /// selection time so wormhole ownership follows the port actually
    /// used, even if fault-aware routing would answer differently on a
    /// later cycle).
    out: usize,
}

/// The buffered inter-core mesh.
///
/// Advance it one cycle at a time with [`Mesh::tick`]; inject messages
/// with [`Mesh::send`]; delivered messages appear per destination tile via
/// [`Mesh::pop_delivered`].
#[derive(Debug)]
pub struct Mesh {
    cfg: MeshConfig,
    routers: Vec<Router>,
    /// Per-tile injection queues (packets waiting to enter the local port).
    inject: Vec<VecDeque<VecDeque<Flit>>>,
    /// Per-tile in-flight reassemblies.
    assembling: Vec<Vec<Reassembly>>,
    /// Per-tile delivered messages.
    delivered: Vec<VecDeque<Message>>,
    stats: MeshStats,
    cycle: u64,
    next_msg_id: u64,
    /// Flits in injection queues and router buffers. Derived state: kept
    /// by `send`, injection and ejection, recomputed on restore.
    in_flight: usize,
    /// XY output port from each tile (row) to each destination (column),
    /// `tiles × tiles`; fixed by the topology.
    xy: Vec<u8>,
    /// Neighbouring router through each of N, E, S, W (`None` at the
    /// mesh edge); fixed by the topology.
    links: Vec<[Option<u8>; 4]>,
    /// Scratch buffer for switch-traversal moves (reused across ticks).
    scratch_moves: Vec<Move>,
    /// Per-tile, per-direction (N,E,S,W) cycle until which the outgoing
    /// link is down (`0` = healthy, `u64::MAX` = permanently down). The
    /// link is unusable while `cycle < link_down_until[t][d]`.
    link_down_until: Vec<[u64; 4]>,
    /// Set once any link fault is injected; gates the fault-aware
    /// routing fallback so fault-free runs take the original XY path.
    any_link_faults: bool,
    /// Consecutive ticks in which traffic was in flight but no flit
    /// moved — the probe a fault-aware simulator uses to convert a
    /// wedged network into a typed error instead of a silent hang.
    stalled_ticks: u64,
}

impl Mesh {
    /// Creates an idle mesh.
    #[must_use]
    pub fn new(cfg: MeshConfig) -> Self {
        let n = cfg.topo.tiles();
        let dirs = [PortDir::North, PortDir::East, PortDir::South, PortDir::West];
        let tile = |i: usize| TileId(i as u8);
        Mesh {
            xy: (0..n * n)
                .map(|k| route_xy(&cfg.topo, tile(k / n), tile(k % n)) as u8)
                .collect(),
            links: (0..n)
                .map(|t| dirs.map(|d| cfg.topo.neighbor(tile(t), d).map(|x| x.0)))
                .collect(),
            in_flight: 0,
            cfg,
            routers: (0..n).map(|_| Router::default()).collect(),
            inject: vec![VecDeque::new(); n],
            assembling: (0..n).map(|_| Vec::new()).collect(),
            delivered: vec![VecDeque::new(); n],
            stats: MeshStats::default(),
            cycle: 0,
            next_msg_id: 0,
            scratch_moves: Vec::new(),
            link_down_until: vec![[0; 4]; n],
            any_link_faults: false,
            stalled_ticks: 0,
        }
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// Number of tiles (routers) on the mesh.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.cfg.topo.tiles()
    }

    /// [`Mesh::send`] with the injection reported to `tracer`.
    pub fn send_traced(&mut self, src: TileId, dst: TileId, words: &[u32], tracer: &mut Tracer) {
        let before = self.stats.packets_sent;
        self.send(src, dst, words);
        let packets = self.stats.packets_sent - before;
        tracer.emit(|| TraceEvent::MessageSend {
            cycle: self.cycle,
            src: src.0,
            dst: dst.0,
            words: words.len() as u32,
            packets: packets as u32,
        });
    }

    /// Queues a message of `words` from `src` to `dst`, segmenting it into
    /// data packets (or a single control packet when empty).
    pub fn send(&mut self, src: TileId, dst: TileId, words: &[u32]) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let msg_len = words.len() as u32;
        // Empty messages still produce one (control) packet.
        let empty: &[u32] = &[];
        let chunks = words
            .chunks(MAX_PAYLOAD_WORDS)
            .chain(std::iter::once(empty).take(usize::from(words.is_empty())));
        for chunk in chunks {
            let mut flits = VecDeque::with_capacity(1 + chunk.len());
            flits.push_back(Flit {
                dst,
                src,
                is_head: true,
                is_tail: chunk.is_empty(),
                word: 0,
                msg_id,
                msg_len,
                injected_at: self.cycle,
                ready_at: self.cycle,
            });
            for (i, w) in chunk.iter().enumerate() {
                flits.push_back(Flit {
                    dst,
                    src,
                    is_head: false,
                    is_tail: i + 1 == chunk.len(),
                    word: *w,
                    msg_id,
                    msg_len,
                    injected_at: self.cycle,
                    ready_at: self.cycle,
                });
            }
            self.in_flight += flits.len();
            self.inject[src.index()].push_back(flits);
            self.stats.packets_sent += 1;
        }
    }

    /// Pops the next fully received message at `tile` from `src`, if any.
    pub fn pop_delivered(&mut self, tile: TileId, src: TileId) -> Option<Message> {
        let q = &mut self.delivered[tile.index()];
        let pos = q.iter().position(|m| m.src == src)?;
        q.remove(pos)
    }

    /// Returns whether a message from `src` is waiting at `tile`.
    #[must_use]
    pub fn has_delivered(&self, tile: TileId, src: TileId) -> bool {
        self.delivered[tile.index()].iter().any(|m| m.src == src)
    }

    /// True when no flit sits in any injection queue or router buffer,
    /// so that a tick is a pure clock advance.
    ///
    /// O(1): a derived flit count that `send`, injection and ejection
    /// keep and `restore` recomputes (checked against the exhaustive
    /// scan in debug builds). It never trusts the packet counters, so a
    /// restored snapshot cannot make a busy mesh read idle.
    #[must_use]
    pub fn idle(&self) -> bool {
        let fast = self.in_flight == 0;
        debug_assert_eq!(fast, self.idle_exhaustive());
        fast
    }

    /// Structural idle check — scans every queue. Kept as the oracle for
    /// the counter-based [`Mesh::idle`].
    fn idle_exhaustive(&self) -> bool {
        self.inject.iter().all(VecDeque::is_empty)
            && self
                .routers
                .iter()
                .all(|r| r.inputs.iter().all(VecDeque::is_empty))
    }

    /// Advances the network clock to `target`, leaving exactly the state
    /// `target - cycle` calls to [`Mesh::tick`] would.
    ///
    /// It ticks once per cycle while flits are in flight, at full
    /// flit-level fidelity, and sets the clock directly once the mesh is
    /// idle: an idle tick only moves the clock and clears the stall
    /// probe. The simulator's event-driven fast path calls it for every
    /// jump. Nothing is traced, so callers that trace jump only an idle
    /// mesh, whose ticks emit nothing.
    pub fn advance_to(&mut self, target: u64) {
        while self.cycle < target && !self.idle() {
            self.tick();
        }
        if self.cycle < target {
            self.cycle = target;
            self.stalled_ticks = 0;
        }
    }

    /// Earliest cycle at which a message whose `(dst, src)` pair
    /// satisfies `wanted` can complete delivery, or `u64::MAX` when no
    /// such message has a flit in flight. A lower bound, never later
    /// than the real delivery:
    ///
    /// - a flit in a router buffer ejects no earlier than
    ///   `max(ready_at, now + 1) + HOP × hops`, hops being the Manhattan
    ///   distance to its destination (a misroute only adds hops);
    /// - a flit still in an injection queue adds one more
    ///   [`ROUTER_PIPELINE`];
    /// - a destination ejects at most one flit per cycle, so a message
    ///   with `k` flits left needs `k − 1` cycles after its first one.
    ///
    /// A message is delivered when its last flit ejects, so its bound is
    /// the maximum over its flits; the result is the minimum over
    /// messages. O(flits in flight).
    #[must_use]
    pub fn delivery_bound(&self, mut wanted: impl FnMut(TileId, TileId) -> bool) -> u64 {
        // Per message (keyed by dst, src and id): earliest and latest
        // flit bound, and flits left. Flits of one message sit next to
        // each other in every queue, so the search from the back almost
        // always stops at the last entry.
        type Key = (TileId, TileId, u64);
        let mut msgs: Vec<(Key, u64, u64, u64)> = Vec::new();
        let mut note = |f: &Flit, at: u64| {
            let key = (f.dst, f.src, f.msg_id);
            match msgs.iter_mut().rev().find(|m| m.0 == key) {
                Some(m) => {
                    m.1 = m.1.min(at);
                    m.2 = m.2.max(at);
                    m.3 += 1;
                }
                None => msgs.push((key, at, at, 1)),
            }
        };
        let next = self.cycle + 1;
        let topo = &self.cfg.topo;
        for (t, q) in self.inject.iter().enumerate() {
            for f in q.iter().flatten() {
                if wanted(f.dst, f.src) {
                    let hops = u64::from(topo.distance(TileId(t as u8), f.dst));
                    note(f, next + ROUTER_PIPELINE + HOP * hops);
                }
            }
        }
        for (r, router) in self.routers.iter().enumerate() {
            if router.occupied == 0 {
                continue;
            }
            for f in router.inputs.iter().flatten() {
                if wanted(f.dst, f.src) {
                    let hops = u64::from(topo.distance(TileId(r as u8), f.dst));
                    // `ready_at` may come from a restored snapshot.
                    note(f, f.ready_at.max(next).saturating_add(HOP * hops));
                }
            }
        }
        msgs.iter()
            .map(|&(_, first, last, flits)| last.max(first.saturating_add(flits - 1)))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Marks the bidirectional mesh link between `tile` and its `dir`
    /// neighbor as down until `until` (use `u64::MAX` for a permanent
    /// fault). Calls naming a nonexistent neighbor or the local port are
    /// ignored — there is no link to fail.
    pub fn set_link_fault(&mut self, tile: TileId, dir: PortDir, until: u64) {
        let d = port_index(dir);
        if d == 4 {
            return;
        }
        let Some(next) = self.cfg.topo.neighbor(tile, dir) else {
            return;
        };
        let fwd = &mut self.link_down_until[tile.index()][d];
        *fwd = (*fwd).max(until);
        let back = &mut self.link_down_until[next.index()][port_index(dir.opposite())];
        *back = (*back).max(until);
        self.any_link_faults = true;
    }

    /// Whether the outgoing link at `here` through port `out` is usable
    /// this cycle.
    fn link_up(&self, here: TileId, out: usize) -> bool {
        out >= 4 || self.cycle >= self.link_down_until[here.index()][out]
    }

    /// Consecutive ticks in which traffic was in flight but nothing
    /// moved. A fault-aware runtime treats a large value as a wedged
    /// network (e.g. every route to a destination severed) and reports a
    /// typed fault; the counter is free of false positives beyond the
    /// router-pipeline fill delay, which is why callers use a threshold
    /// far above [`ROUTER_PIPELINE`].
    #[must_use]
    pub fn stalled_ticks(&self) -> u64 {
        self.stalled_ticks
    }

    /// Output port for a flit at `here`, with a deterministic fault-aware
    /// fallback when the preferred XY link is down: first the productive
    /// port of the other dimension, then any live link in fixed N,E,S,W
    /// order (a misroute — forward progress over minimality). When every
    /// link is down the preferred port is returned and the flit simply
    /// waits; the stall probe converts that into a typed fault upstream.
    /// Fault-free runs never leave the XY path.
    fn route(&self, here: TileId, dst: TileId) -> usize {
        let preferred = usize::from(self.xy[here.index() * self.tiles() + dst.index()]);
        if preferred == 4 || !self.any_link_faults || self.link_up(here, preferred) {
            return preferred;
        }
        let (c, d) = (self.cfg.topo.coord(here), self.cfg.topo.coord(dst));
        let vertical = if d.y > c.y {
            port_index(PortDir::South)
        } else {
            port_index(PortDir::North)
        };
        let horizontal = if d.x > c.x {
            port_index(PortDir::East)
        } else {
            port_index(PortDir::West)
        };
        let productive = if preferred == horizontal && d.y != c.y {
            Some(vertical)
        } else if preferred == vertical && d.x != c.x {
            Some(horizontal)
        } else {
            None
        };
        let candidates = productive.into_iter().chain(0..4usize);
        for out in candidates {
            if out == preferred {
                continue;
            }
            let dir = [PortDir::North, PortDir::East, PortDir::South, PortDir::West][out];
            if self.cfg.topo.neighbor(here, dir).is_some() && self.link_up(here, out) {
                return out;
            }
        }
        preferred
    }

    /// Advances the network one cycle.
    pub fn tick(&mut self) {
        self.tick_traced(&mut Tracer::disabled());
    }

    /// [`Mesh::tick`] with per-link flit hops and packet deliveries
    /// reported to `tracer`. Idle ticks emit nothing — the event-driven
    /// fast path may replace them with [`Mesh::advance_to`] without
    /// changing the event stream.
    ///
    /// The cost follows occupancy: only routers holding a flit arbitrate,
    /// and each finds its inputs, and the inputs requesting each output,
    /// as bitmasks.
    pub fn tick_traced(&mut self, tracer: &mut Tracer) {
        self.cycle += 1;
        // An idle tick is a pure clock advance: no flit sits in any
        // injection queue or router buffer, so the scans below would all
        // come up empty.
        if self.idle() {
            self.stalled_ticks = 0;
            return;
        }
        let n = self.cfg.topo.tiles();
        let mut progressed = false;

        // 1. Injection: move waiting flits into the local input buffer.
        for t in 0..n {
            if self.inject[t].is_empty() {
                continue;
            }
            let free = self.cfg.buffer_flits - self.routers[t].inputs[4].len();
            let mut moved = 0;
            while moved < free {
                let Some(front) = self.inject[t].front_mut() else {
                    break;
                };
                let Some(mut flit) = front.pop_front() else {
                    self.inject[t].pop_front();
                    continue;
                };
                flit.ready_at = self.cycle + ROUTER_PIPELINE;
                self.routers[t].push(4, flit);
                moved += 1;
                progressed = true;
            }
            // Drop exhausted packet shells.
            while matches!(self.inject[t].front(), Some(f) if f.is_empty()) {
                self.inject[t].pop_front();
            }
        }

        // 2. Switch traversal: per router, per output port, forward at
        // most one eligible flit, honoring wormhole ownership and
        // downstream credits. Collect moves first to keep the update
        // atomic within the cycle; the buffer is taken from (and
        // returned to) `self` so steady-state ticks allocate nothing.
        // Credits are read from start-of-cycle occupancy: an input
        // buffer is fed by exactly one upstream output port, which
        // forwards at most one flit per cycle, so no buffer is claimed
        // twice within a cycle.
        let mut moves = std::mem::take(&mut self.scratch_moves);
        moves.clear();
        for r in 0..n {
            // A router with every input buffer empty can pick nothing on
            // any output (wormhole ownership and round-robin state only
            // act on resident flits).
            let occupied = self.routers[r].occupied;
            if occupied == 0 {
                continue;
            }
            let here = TileId(r as u8);
            // Inputs whose front flit is ready this cycle: `body` when it
            // is a body flit (it follows its wormhole owner's port), and
            // `wants[out]` when it is a head flit routed to `out`.
            let mut body = 0u8;
            let mut wants = [0u8; PORTS];
            let mut left = occupied;
            while left != 0 {
                let p = left.trailing_zeros() as usize;
                left &= left - 1;
                let Some(f) = self.routers[r].inputs[p].front() else {
                    continue;
                };
                if f.ready_at > self.cycle {
                    continue;
                }
                if f.is_head {
                    wants[self.route(here, f.dst)] |= 1 << p;
                } else {
                    body |= 1 << p;
                }
            }
            for (out, &want) in wants.iter().enumerate() {
                let router = &self.routers[r];
                let pick = if let Some(input) = router.out_owner[out] {
                    // Wormhole: only the owning input may use this output.
                    // Body flits follow the head's output unconditionally;
                    // re-checking `route` per flit is redundant while
                    // routes are static and would strand mid-packet flits
                    // when a link fault changes the route's answer.
                    ((body | want) & (1 << input) != 0).then_some(input)
                } else if want == 0 {
                    None
                } else {
                    // Round-robin among inputs with an eligible head flit:
                    // rotate the request mask so `rr[out]` is bit 0.
                    let start = router.rr[out];
                    let m = u32::from(want);
                    let rotated = ((m >> start) | (m << (PORTS - start))) & ((1 << PORTS) - 1);
                    Some((start + rotated.trailing_zeros() as usize) % PORTS)
                };
                let Some(input) = pick else { continue };

                if out == 4 {
                    // Ejection is always possible (NIC sinks flits).
                    moves.push(Move {
                        from_router: r,
                        from_port: input,
                        to_router: None,
                        to_port: 0,
                        out,
                    });
                } else {
                    let Some(next) = self.links[r][out] else {
                        continue;
                    };
                    if self.any_link_faults && !self.link_up(here, out) {
                        continue; // link is down; the flit waits in place
                    }
                    let (next, in_port) = (usize::from(next), opposite(out));
                    if self.routers[next].inputs[in_port].len() >= self.cfg.buffer_flits {
                        continue; // no downstream buffer space
                    }
                    moves.push(Move {
                        from_router: r,
                        from_port: input,
                        to_router: Some(next),
                        to_port: in_port,
                        out,
                    });
                }
            }
        }

        // 3. Apply moves.
        progressed |= !moves.is_empty();
        for m in moves.drain(..) {
            // Selection picks at most one move per input port per cycle
            // (an input's head-of-line flit targets exactly one output),
            // and only when that flit exists — an empty pop would mean
            // the move was stale, and is defensively dropped. Credits
            // are derived from buffer occupancy each tick, so dropping
            // it leaves nothing to repair.
            let Some(flit) = self.routers[m.from_router].pop(m.from_port) else {
                continue;
            };
            let here = TileId(m.from_router as u8);
            // Maintain wormhole ownership along the port actually used.
            let router = &mut self.routers[m.from_router];
            if flit.is_head {
                router.out_owner[m.out] = Some(m.from_port);
                router.rr[m.out] = (m.from_port + 1) % PORTS;
            }
            if flit.is_tail {
                router.out_owner[m.out] = None;
            }
            match m.to_router {
                None => {
                    self.in_flight -= 1;
                    self.eject(here, flit, tracer);
                }
                Some(next) => {
                    self.stats.flit_hops += 1;
                    tracer.emit(|| TraceEvent::FlitHop {
                        cycle: self.cycle,
                        tile: here.0,
                        dir: m.out as u8,
                    });
                    let mut f = flit;
                    f.ready_at = self.cycle + HOP;
                    self.routers[next].push(m.to_port, f);
                }
            }
        }
        self.scratch_moves = moves;
        if progressed {
            self.stalled_ticks = 0;
        } else {
            self.stalled_ticks += 1;
        }
    }

    fn eject(&mut self, tile: TileId, flit: Flit, tracer: &mut Tracer) {
        let slot = self.assembling[tile.index()]
            .iter()
            .position(|a| a.src == flit.src && a.msg_id == flit.msg_id);
        let idx = match slot {
            Some(i) => i,
            None => {
                self.assembling[tile.index()].push(Reassembly {
                    src: flit.src,
                    msg_id: flit.msg_id,
                    expected: flit.msg_len,
                    words: Vec::new(),
                });
                self.assembling[tile.index()].len() - 1
            }
        };
        if !flit.is_head {
            self.assembling[tile.index()][idx].words.push(flit.word);
        }
        if flit.is_tail {
            self.stats.packets_delivered += 1;
            self.stats.total_packet_latency += self.cycle - flit.injected_at;
            tracer.emit(|| TraceEvent::PacketDeliver {
                cycle: self.cycle,
                src: flit.src.0,
                dst: tile.0,
                latency: (self.cycle - flit.injected_at) as u32,
            });
        }
        let done = self.assembling[tile.index()][idx].words.len() as u32
            >= self.assembling[tile.index()][idx].expected;
        if done && flit.is_tail {
            let a = self.assembling[tile.index()].remove(idx);
            self.delivered[tile.index()].push_back(Message {
                src: a.src,
                words: a.words,
            });
        }
    }

    /// Captures the complete network state (scratch buffers excluded —
    /// they are transient within one `tick`).
    #[must_use]
    pub fn snapshot(&self) -> MeshSnapshot {
        MeshSnapshot {
            routers: self
                .routers
                .iter()
                .map(|r| RouterSnapshot {
                    inputs: std::array::from_fn(|p| r.inputs[p].iter().copied().collect()),
                    out_owner: std::array::from_fn(|p| r.out_owner[p].map(|o| o as u8)),
                    rr: std::array::from_fn(|p| r.rr[p] as u8),
                })
                .collect(),
            inject: self
                .inject
                .iter()
                .map(|q| q.iter().map(|pkt| pkt.iter().copied().collect()).collect())
                .collect(),
            assembling: self.assembling.clone(),
            delivered: self
                .delivered
                .iter()
                .map(|q| q.iter().cloned().collect())
                .collect(),
            stats: self.stats,
            cycle: self.cycle,
            next_msg_id: self.next_msg_id,
            link_down_until: self.link_down_until.clone(),
            any_link_faults: self.any_link_faults,
            stalled_ticks: self.stalled_ticks,
        }
    }

    /// Checks that a snapshot fits this mesh without touching any state:
    /// per-tile vectors match the topology, every wormhole owner and
    /// round-robin pointer names a real port, every flit/reassembly/
    /// message names a real tile, no buffer exceeds its credit-managed
    /// capacity, no reassembly holds more words than its message
    /// declares, and the packet counters agree with the tail flits in
    /// flight. Snapshots are untrusted input (they may come from an
    /// edited or fuzzed file), so a clean pass here is the precondition
    /// for [`Mesh::restore`].
    ///
    /// # Errors
    ///
    /// The first [`MeshError`] found.
    pub fn validate_snapshot(&self, snap: &MeshSnapshot) -> Result<(), MeshError> {
        let n = self.cfg.topo.tiles();
        for (what, got) in [
            ("router vector", snap.routers.len()),
            ("inject vector", snap.inject.len()),
            ("assembling vector", snap.assembling.len()),
            ("delivered vector", snap.delivered.len()),
            ("link-fault vector", snap.link_down_until.len()),
        ] {
            if got != n {
                return Err(MeshError::Shape { what, got, want: n });
            }
        }
        let tile_ok = |t: TileId| {
            if t.index() < n {
                Ok(())
            } else {
                Err(MeshError::BadTileRef {
                    tile: t.0,
                    tiles: n,
                })
            }
        };
        let flit_ok = |f: &Flit| {
            tile_ok(f.dst)?;
            tile_ok(f.src)
        };
        for (r, s) in snap.routers.iter().enumerate() {
            for p in 0..PORTS {
                if s.inputs[p].len() > self.cfg.buffer_flits {
                    return Err(MeshError::OverfullBuffer {
                        router: r,
                        port: p,
                        flits: s.inputs[p].len(),
                        capacity: self.cfg.buffer_flits,
                    });
                }
                for f in &s.inputs[p] {
                    flit_ok(f)?;
                }
                if let Some(o) = s.out_owner[p] {
                    if usize::from(o) >= PORTS {
                        return Err(MeshError::BadPort {
                            router: r,
                            port: usize::from(o),
                        });
                    }
                }
                if usize::from(s.rr[p]) >= PORTS {
                    return Err(MeshError::BadPort {
                        router: r,
                        port: usize::from(s.rr[p]),
                    });
                }
            }
        }
        for q in &snap.inject {
            for pkt in q {
                for f in pkt {
                    flit_ok(f)?;
                }
            }
        }
        for (t, v) in snap.assembling.iter().enumerate() {
            for a in v {
                tile_ok(a.src)?;
                if a.words.len() > a.expected as usize {
                    return Err(MeshError::OversizedReassembly {
                        tile: t,
                        words: a.words.len(),
                        expected: a.expected,
                    });
                }
            }
        }
        for q in &snap.delivered {
            for m in q {
                tile_ok(m.src)?;
            }
        }
        // Flit conservation: every packet sent and not yet delivered has
        // exactly one tail flit in flight, and every open reassembly
        // still waits for a tail of its own message. `idle`, `advance_to`
        // and `delivery_bound` all read the flits, never the counters.
        let conservation = |what| Err(MeshError::Conservation { what });
        let tails: Vec<(TileId, TileId, u64)> = snap
            .inject
            .iter()
            .flatten()
            .flatten()
            .chain(snap.routers.iter().flat_map(|r| r.inputs.iter().flatten()))
            .filter(|f| f.is_tail)
            .map(|f| (f.dst, f.src, f.msg_id))
            .collect();
        let Some(outstanding) = snap
            .stats
            .packets_sent
            .checked_sub(snap.stats.packets_delivered)
        else {
            return conservation("more packets delivered than sent");
        };
        if outstanding != tails.len() as u64 {
            return conservation("outstanding packets differ from tail flits in flight");
        }
        for (t, v) in snap.assembling.iter().enumerate() {
            let dst = TileId(t as u8);
            if v.iter().any(|a| !tails.contains(&(dst, a.src, a.msg_id))) {
                return conservation("open reassembly with no tail flit in flight");
            }
        }
        Ok(())
    }

    /// Restores a snapshot. Validation runs first
    /// ([`Mesh::validate_snapshot`]); on error the mesh is unmodified.
    ///
    /// # Errors
    ///
    /// Any [`MeshError`] the snapshot fails validation with.
    pub fn restore(&mut self, snap: &MeshSnapshot) -> Result<(), MeshError> {
        self.validate_snapshot(snap)?;
        for (r, s) in self.routers.iter_mut().zip(&snap.routers) {
            r.occupied = 0;
            for p in 0..PORTS {
                r.inputs[p].clear();
                r.inputs[p].extend(s.inputs[p].iter().copied());
                if !s.inputs[p].is_empty() {
                    r.occupied |= 1 << p;
                }
                r.out_owner[p] = s.out_owner[p].map(usize::from);
                r.rr[p] = usize::from(s.rr[p]);
            }
        }
        for (q, s) in self.inject.iter_mut().zip(&snap.inject) {
            q.clear();
            q.extend(
                s.iter()
                    .map(|pkt| pkt.iter().copied().collect::<VecDeque<_>>()),
            );
        }
        self.in_flight = self
            .inject
            .iter()
            .flatten()
            .chain(self.routers.iter().flat_map(|r| r.inputs.iter()))
            .map(VecDeque::len)
            .sum();
        self.assembling.clone_from(&snap.assembling);
        for (q, s) in self.delivered.iter_mut().zip(&snap.delivered) {
            q.clear();
            q.extend(s.iter().cloned());
        }
        self.stats = snap.stats;
        self.cycle = snap.cycle;
        self.next_msg_id = snap.next_msg_id;
        self.link_down_until.clone_from(&snap.link_down_until);
        self.any_link_faults = snap.any_link_faults;
        self.stalled_ticks = snap.stalled_ticks;
        Ok(())
    }

    /// Structural invariant check: buffer occupancy never exceeds the
    /// credit-managed capacity, and flits are conserved — every packet
    /// injected and not yet delivered has exactly one tail flit somewhere
    /// in the network (no duplication, no loss), and no reassembly holds
    /// more words than its message declares. The derived occupancy masks
    /// and flit count must match the buffers.
    ///
    /// Returns a description of the first violation found. Runs an
    /// exhaustive scan, so callers gate it (the chip runs it in debug
    /// builds only).
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (r, router) in self.routers.iter().enumerate() {
            for (p, q) in router.inputs.iter().enumerate() {
                if q.len() > self.cfg.buffer_flits {
                    return Err(format!(
                        "router {r} input port {p} holds {} flits, capacity {} \
                         (credit conservation violated)",
                        q.len(),
                        self.cfg.buffer_flits
                    ));
                }
            }
            let mask = (0..PORTS)
                .filter(|&p| !router.inputs[p].is_empty())
                .fold(0u8, |m, p| m | 1 << p);
            if mask != router.occupied {
                return Err(format!(
                    "router {r} occupancy mask {:05b} but non-empty inputs {mask:05b}",
                    router.occupied
                ));
            }
        }
        let flits = self
            .inject
            .iter()
            .flatten()
            .map(VecDeque::len)
            .sum::<usize>()
            + self
                .routers
                .iter()
                .flat_map(|r| r.inputs.iter())
                .map(VecDeque::len)
                .sum::<usize>();
        if flits != self.in_flight {
            return Err(format!(
                "{flits} flits in flight but the derived count reads {}",
                self.in_flight
            ));
        }
        let mut tails: u64 = 0;
        for router in &self.routers {
            for q in &router.inputs {
                tails += q.iter().filter(|f| f.is_tail).count() as u64;
            }
        }
        for q in &self.inject {
            for pkt in q {
                tails += pkt.iter().filter(|f| f.is_tail).count() as u64;
            }
        }
        let outstanding = self.stats.packets_sent - self.stats.packets_delivered;
        if tails != outstanding {
            return Err(format!(
                "{tails} tail flits in flight but {outstanding} packets outstanding \
                 (flit duplicated or lost)"
            ));
        }
        for (t, v) in self.assembling.iter().enumerate() {
            for a in v {
                if a.words.len() as u32 > a.expected {
                    return Err(format!(
                        "tile {t} reassembly of msg {} from {} holds {} words, expected {} \
                         (flit duplicated)",
                        a.msg_id,
                        a.src.0,
                        a.words.len(),
                        a.expected
                    ));
                }
            }
        }
        Ok(())
    }

    /// Runs the network until idle or `max_cycles`, returning cycles spent.
    pub fn drain(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycle;
        while !self.idle() && self.cycle - start < max_cycles {
            self.tick();
        }
        self.cycle - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(MeshConfig::default())
    }

    #[test]
    fn delivers_short_message() {
        let mut m = mesh();
        m.send(TileId(0), TileId(3), &[7, 8]);
        m.drain(10_000);
        let msg = m.pop_delivered(TileId(3), TileId(0)).expect("delivered");
        assert_eq!(msg.words, vec![7, 8]);
        assert!(m.pop_delivered(TileId(3), TileId(0)).is_none());
    }

    #[test]
    fn latency_scales_with_hops() {
        // 1 hop vs 6 hops: latency difference ~= 5 x (pipeline + link).
        let mut m1 = mesh();
        m1.send(TileId(0), TileId(1), &[1]);
        m1.drain(10_000);
        let l1 = m1.stats().avg_latency();

        let mut m6 = mesh();
        m6.send(TileId(0), TileId(15), &[1]);
        m6.drain(10_000);
        let l6 = m6.stats().avg_latency();
        assert!(
            l6 > l1 + 4.0 * (ROUTER_PIPELINE + LINK_LATENCY) as f64 - 1.0,
            "l1={l1} l6={l6}"
        );
    }

    #[test]
    fn long_messages_are_segmented_and_reassembled() {
        let mut m = mesh();
        let words: Vec<u32> = (0..23).collect();
        m.send(TileId(2), TileId(13), &words);
        m.drain(100_000);
        let msg = m.pop_delivered(TileId(13), TileId(2)).expect("delivered");
        assert_eq!(msg.words, words);
        assert_eq!(m.stats().packets_sent, 6); // ceil(23/4)
        assert_eq!(m.stats().packets_delivered, 6);
    }

    #[test]
    fn zero_length_message_is_control_packet() {
        let mut m = mesh();
        m.send(TileId(5), TileId(6), &[]);
        m.drain(10_000);
        let msg = m.pop_delivered(TileId(6), TileId(5)).expect("delivered");
        assert!(msg.words.is_empty());
        assert_eq!(m.stats().packets_sent, 1);
    }

    #[test]
    fn messages_from_same_source_keep_order() {
        let mut m = mesh();
        m.send(TileId(0), TileId(15), &[1]);
        m.send(TileId(0), TileId(15), &[2]);
        m.drain(100_000);
        assert_eq!(
            m.pop_delivered(TileId(15), TileId(0)).unwrap().words,
            vec![1]
        );
        assert_eq!(
            m.pop_delivered(TileId(15), TileId(0)).unwrap().words,
            vec![2]
        );
    }

    #[test]
    fn cross_traffic_all_delivered() {
        let mut m = mesh();
        // All 16 tiles send to their diagonal opposite simultaneously.
        for t in 0..16u8 {
            m.send(TileId(t), TileId(15 - t), &[u32::from(t); 10]);
        }
        m.drain(1_000_000);
        assert!(m.idle(), "network drains under all-to-all traffic");
        for t in 0..16u8 {
            let msg = m
                .pop_delivered(TileId(15 - t), TileId(t))
                .expect("delivered");
            assert_eq!(msg.words, vec![u32::from(t); 10]);
        }
    }

    #[test]
    fn pop_filters_by_source() {
        let mut m = mesh();
        m.send(TileId(1), TileId(0), &[11]);
        m.send(TileId(2), TileId(0), &[22]);
        m.drain(100_000);
        assert_eq!(
            m.pop_delivered(TileId(0), TileId(2)).unwrap().words,
            vec![22]
        );
        assert_eq!(
            m.pop_delivered(TileId(0), TileId(1)).unwrap().words,
            vec![11]
        );
    }

    #[test]
    fn flit_hops_counted() {
        let mut m = mesh();
        m.send(TileId(0), TileId(1), &[1, 2, 3, 4]); // 5 flits, 1 hop
        m.drain(10_000);
        assert_eq!(m.stats().flit_hops, 5);
    }

    #[test]
    fn link_fault_reroutes_around_dead_link() {
        let mut m = mesh();
        // Kill the direct XY first hop (tile0 -> tile1 eastward).
        m.set_link_fault(TileId(0), PortDir::East, u64::MAX);
        m.send(TileId(0), TileId(3), &[41, 42]);
        m.drain(100_000);
        assert!(m.idle(), "message reroutes around the dead link");
        let msg = m.pop_delivered(TileId(3), TileId(0)).expect("delivered");
        assert_eq!(msg.words, vec![41, 42]);
    }

    #[test]
    fn transient_link_fault_recovers() {
        let mut m = mesh();
        // Sever every link of tile 5 until cycle 200: traffic through it
        // must wait, then flow again.
        for dir in [PortDir::North, PortDir::East, PortDir::South, PortDir::West] {
            m.set_link_fault(TileId(5), dir, 200);
        }
        m.send(TileId(5), TileId(6), &[9]);
        m.drain(100_000);
        assert!(m.idle(), "traffic resumes after the transient fault");
        let msg = m.pop_delivered(TileId(6), TileId(5)).expect("delivered");
        assert_eq!(msg.words, vec![9]);
        assert!(m.cycle() >= 200, "delivery waited for link recovery");
    }

    #[test]
    fn severed_source_raises_stall_probe() {
        let mut m = mesh();
        // Isolate tile 0 completely; its outbound packet can never leave
        // the local input buffer, so nothing in the network ever moves.
        for dir in [PortDir::North, PortDir::East, PortDir::South, PortDir::West] {
            m.set_link_fault(TileId(0), dir, u64::MAX);
        }
        m.send(TileId(0), TileId(15), &[1]);
        m.drain(5_000);
        assert!(!m.idle(), "packet is wedged");
        assert!(
            m.stalled_ticks() > 1_000,
            "stall probe flags the wedged network (got {})",
            m.stalled_ticks()
        );
    }

    #[test]
    fn snapshot_mid_flight_resumes_identically() {
        // Capture while traffic is in flight; the restored mesh must
        // finish the run with identical deliveries and statistics.
        let mut m = mesh();
        for t in 0..8u8 {
            m.send(TileId(t), TileId(15 - t), &[u32::from(t); 7]);
        }
        for _ in 0..9 {
            m.tick();
        }
        assert!(!m.idle(), "traffic still in flight at capture");
        let snap = m.snapshot();

        let mut replica = mesh();
        replica.restore(&snap).expect("own snapshot restores");
        m.drain(100_000);
        replica.drain(100_000);
        assert_eq!(m.stats(), replica.stats());
        assert_eq!(m.cycle(), replica.cycle());
        for t in 0..8u8 {
            let a = m.pop_delivered(TileId(15 - t), TileId(t)).unwrap();
            let b = replica.pop_delivered(TileId(15 - t), TileId(t)).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn restore_rejects_counters_that_disagree_with_the_flits() {
        let mut m = mesh();
        m.send(TileId(0), TileId(15), &[7; 8]);
        for _ in 0..3 {
            m.tick();
        }
        let good = m.snapshot();
        let mut all_delivered = good.clone();
        all_delivered.stats.packets_delivered = all_delivered.stats.packets_sent;
        let mut over_delivered = good.clone();
        over_delivered.stats.packets_delivered = over_delivered.stats.packets_sent + 1;
        let mut stray = good.clone();
        stray.assembling[3].push(Reassembly {
            src: TileId(1),
            msg_id: 99,
            expected: 4,
            words: vec![1],
        });
        let mut replica = mesh();
        for bad in [all_delivered, over_delivered, stray] {
            assert!(
                matches!(replica.restore(&bad), Err(MeshError::Conservation { .. })),
                "forged counters accepted: {:?}",
                bad.stats
            );
            assert!(
                replica.idle(),
                "a refused restore leaves the mesh as it was"
            );
        }
        replica.restore(&good).expect("genuine snapshot restores");
        replica.drain(10_000);
        let msg = replica
            .pop_delivered(TileId(15), TileId(0))
            .expect("delivered");
        assert_eq!(msg.words, vec![7; 8]);
    }

    #[test]
    fn invariants_hold_throughout_a_run() {
        let mut m = mesh();
        for t in 0..16u8 {
            m.send(TileId(t), TileId(15 - t), &[u32::from(t); 10]);
        }
        while !m.idle() {
            m.tick();
            m.check_invariants().expect("invariants hold");
        }
    }

    #[test]
    fn invariant_checker_detects_lost_flit() {
        let mut m = mesh();
        m.send(TileId(0), TileId(3), &[1, 2]);
        m.tick();
        // Forge a loss: claim a packet delivered that never arrived.
        m.stats.packets_delivered += 1;
        assert!(m.check_invariants().is_err());
    }

    #[test]
    fn fault_free_stall_probe_stays_low() {
        let mut m = mesh();
        for t in 0..16u8 {
            m.send(TileId(t), TileId(15 - t), &[u32::from(t); 10]);
        }
        let mut max_stall = 0;
        while !m.idle() {
            m.tick();
            max_stall = max_stall.max(m.stalled_ticks());
        }
        assert!(
            max_stall <= ROUTER_PIPELINE + LINK_LATENCY + 1,
            "healthy traffic never looks stalled (max {max_stall})"
        );
    }
}
