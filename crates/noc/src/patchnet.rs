//! The compiler-scheduled, bufferless inter-patch network (paper §III-B).
//!
//! Each tile has a 6x6 crossbar switch whose outputs are driven by
//! clockless repeaters — signals either bypass asynchronously toward the
//! next hop or stop at the local patch. There is **no routing or flow
//! control logic**: the compiler configures every switch before the
//! application starts (one memory-mapped configuration register per
//! switch) and guarantees contention-freedom statically. This module is
//! that static model: circuit reservation with conflict detection, plus
//! the configuration-register encoding.

use crate::{TileId, Topology};
use std::fmt;

/// Ports of an inter-patch NoC switch (6 inputs x 6 outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Toward the tile above.
    North,
    /// Toward the tile to the right.
    East,
    /// Toward the tile below.
    South,
    /// Toward the tile to the left.
    West,
    /// The local core's register file (operand injection/ejection).
    Reg,
    /// The local patch.
    Patch,
}

impl PortDir {
    /// All six ports in configuration-register order.
    pub const ALL: [PortDir; 6] = [
        PortDir::North,
        PortDir::East,
        PortDir::South,
        PortDir::West,
        PortDir::Reg,
        PortDir::Patch,
    ];

    /// The opposite mesh direction (`Reg`/`Patch` map to themselves).
    #[must_use]
    pub fn opposite(self) -> PortDir {
        match self {
            PortDir::North => PortDir::South,
            PortDir::South => PortDir::North,
            PortDir::East => PortDir::West,
            PortDir::West => PortDir::East,
            other => other,
        }
    }

    /// Stable numeric code of this port (its index in [`PortDir::ALL`]);
    /// the configuration-register and snapshot wire encoding.
    #[must_use]
    pub fn code(self) -> u32 {
        match self {
            PortDir::North => 0,
            PortDir::East => 1,
            PortDir::South => 2,
            PortDir::West => 3,
            PortDir::Reg => 4,
            PortDir::Patch => 5,
        }
    }

    /// Inverse of [`PortDir::code`]; `None` for out-of-range codes.
    #[must_use]
    pub fn from_code(c: u32) -> Option<PortDir> {
        Self::ALL.get(c as usize).copied()
    }
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PortDir::North => "N",
            PortDir::East => "E",
            PortDir::South => "S",
            PortDir::West => "W",
            PortDir::Reg => "REG",
            PortDir::Patch => "PATCH",
        };
        write!(f, "{s}")
    }
}

/// Errors from circuit reservation / switch configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchNetError {
    /// An output port is already driven by a different input.
    OutputConflict {
        /// Switch (tile) index.
        tile: TileId,
        /// The contended output port.
        port: PortDir,
    },
    /// No contention-free path exists between the two tiles.
    NoPath {
        /// Circuit source tile.
        from: TileId,
        /// Circuit destination tile.
        to: TileId,
    },
    /// A configuration-register value did not decode.
    BadConfigWord(u32),
    /// Endpoints must differ.
    SameTile(TileId),
    /// A switch index outside the topology was addressed.
    BadTile {
        /// The out-of-range switch index.
        index: u32,
        /// Number of switches in the network.
        tiles: u32,
    },
    /// A restored circuit record is structurally impossible: its path is
    /// too short, its endpoints disagree with the path, consecutive hops
    /// are not mesh neighbors, or its hop count is wrong. Snapshots are
    /// untrusted input, so these are reported, never assumed away.
    MalformedCircuit {
        /// Circuit source tile as recorded.
        from: TileId,
        /// Circuit destination tile as recorded.
        to: TileId,
        /// What was impossible about it.
        detail: &'static str,
    },
    /// A reserved circuit's path is no longer driven by the switch state
    /// (a reconfigure broke it) — reported by [`PatchNet::validate_circuits`].
    BrokenCircuit {
        /// Circuit source tile.
        from: TileId,
        /// Circuit destination tile.
        to: TileId,
        /// The switch whose configuration no longer carries the circuit.
        tile: TileId,
    },
}

impl fmt::Display for PatchNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchNetError::OutputConflict { tile, port } => {
                write!(f, "output port {port} of {tile}'s switch is already driven")
            }
            PatchNetError::NoPath { from, to } => {
                write!(f, "no contention-free circuit from {from} to {to}")
            }
            PatchNetError::BadConfigWord(w) => write!(f, "bad crossbar config word {w:#x}"),
            PatchNetError::SameTile(t) => write!(f, "circuit endpoints are both {t}"),
            PatchNetError::BadTile { index, tiles } => {
                write!(f, "switch index {index} outside the {tiles}-tile network")
            }
            PatchNetError::MalformedCircuit { from, to, detail } => {
                write!(f, "circuit record {from}->{to} is malformed: {detail}")
            }
            PatchNetError::BrokenCircuit { from, to, tile } => {
                write!(
                    f,
                    "circuit {from}->{to} no longer driven at {tile}'s switch"
                )
            }
        }
    }
}

impl std::error::Error for PatchNetError {}

/// A reserved bidirectional circuit between a core's register file and a
/// remote patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    /// Issuing tile (operands injected from this core's register file).
    pub from: TileId,
    /// Tile whose patch terminates the circuit.
    pub to: TileId,
    /// Tiles traversed, including both endpoints.
    pub tiles: Vec<TileId>,
    /// Switch hops between the two patches (per direction).
    pub hops: u32,
}

/// One switch's crossbar state: for each output port, the input port that
/// drives it (if any).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchConfig {
    drives: [Option<PortDir>; 6],
}

impl SwitchConfig {
    /// Which input drives `out`, if configured.
    #[must_use]
    pub fn driver(&self, out: PortDir) -> Option<PortDir> {
        self.drives[out.code() as usize]
    }

    fn set(&mut self, out: PortDir, input: PortDir) {
        self.drives[out.code() as usize] = Some(input);
    }

    /// Packs into the memory-mapped configuration-register format: 3 bits
    /// per output port (0–5 = driving input, 7 = unconnected), outputs in
    /// [`PortDir::ALL`] order — 18 bits total.
    #[must_use]
    pub fn pack(&self) -> u32 {
        let mut w = 0u32;
        for (i, d) in self.drives.iter().enumerate() {
            let code = d.map_or(7, PortDir::code);
            w |= code << (3 * i);
        }
        w
    }

    /// Decodes a configuration-register value.
    ///
    /// # Errors
    ///
    /// Returns [`PatchNetError::BadConfigWord`] on reserved input codes.
    pub fn unpack(word: u32) -> Result<Self, PatchNetError> {
        let mut cfg = SwitchConfig::default();
        for i in 0..6 {
            let code = (word >> (3 * i)) & 7;
            cfg.drives[i] = match code {
                7 => None,
                c => Some(PortDir::from_code(c).ok_or(PatchNetError::BadConfigWord(word))?),
            };
        }
        Ok(cfg)
    }
}

/// The whole inter-patch network: one statically configured switch per
/// tile, plus the circuits reserved on it. A chip holds one circuit per
/// fused pair — a handful — so [`PatchNet::circuit`] scans them in
/// reservation order; there is no index to keep in step.
///
/// ```
/// use stitch_noc::{PatchNet, TileId};
///
/// let mut net = PatchNet::new_4x4();
/// // Fuse patch2 and patch10 (paper Fig 5, zero-based tiles 1 and 9):
/// let circuit = net.reserve(TileId(1), TileId(9)).unwrap();
/// assert_eq!(circuit.hops, 2); // via tile6's switch
/// ```
#[derive(Debug, Clone)]
pub struct PatchNet {
    topo: Topology,
    switches: Vec<SwitchConfig>,
    circuits: Vec<Circuit>,
}

impl PatchNet {
    /// Creates an unconfigured network over `topo`.
    #[must_use]
    pub fn new(topo: Topology) -> Self {
        PatchNet {
            topo,
            switches: vec![SwitchConfig::default(); topo.tiles()],
            circuits: Vec::new(),
        }
    }

    /// The paper's 4x4 network.
    #[must_use]
    pub fn new_4x4() -> Self {
        Self::new(Topology::stitch_4x4())
    }

    /// Geometry.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Current switch state of a tile.
    #[must_use]
    pub fn switch(&self, tile: TileId) -> &SwitchConfig {
        &self.switches[tile.index()]
    }

    /// Configures one crossbar connection, failing on output contention.
    ///
    /// # Errors
    ///
    /// [`PatchNetError::BadTile`] when `tile` names no switch;
    /// [`PatchNetError::OutputConflict`] if `out` is already driven by a
    /// *different* input (reconfiguring the same connection is idempotent).
    pub fn connect(
        &mut self,
        tile: TileId,
        input: PortDir,
        out: PortDir,
    ) -> Result<(), PatchNetError> {
        let tiles = self.topo.tiles() as u32;
        let Some(sw) = self.switches.get_mut(tile.index()) else {
            return Err(PatchNetError::BadTile {
                index: u32::from(tile.0),
                tiles,
            });
        };
        match sw.driver(out) {
            Some(existing) if existing != input => {
                Err(PatchNetError::OutputConflict { tile, port: out })
            }
            _ => {
                sw.set(out, input);
                Ok(())
            }
        }
    }

    /// Applies a raw memory-mapped configuration-register write
    /// (wholesale replacement of one switch's crossbar state). This is the
    /// runtime path used by `cfgxbar` stores; it performs no contention
    /// check — the compiler is responsible, exactly as in the paper.
    ///
    /// # Errors
    ///
    /// Returns [`PatchNetError::BadConfigWord`] on undecodable values and
    /// [`PatchNetError::BadTile`] when `tile` names no switch (a stray
    /// store into the configuration window).
    pub fn write_config_register(&mut self, tile: TileId, word: u32) -> Result<(), PatchNetError> {
        let Some(slot) = self.switches.get_mut(tile.index()) else {
            return Err(PatchNetError::BadTile {
                index: u32::from(tile.0),
                tiles: self.topo.tiles() as u32,
            });
        };
        *slot = SwitchConfig::unpack(word)?;
        Ok(())
    }

    /// Reserves a bidirectional circuit from the core at `from` to the
    /// patch at `to`, using Dijkstra over contention-free switch outputs
    /// (the paper's `FindPath`). Both directions of the path are claimed.
    ///
    /// # Errors
    ///
    /// - [`PatchNetError::BadTile`] when either endpoint names no switch;
    /// - [`PatchNetError::SameTile`] when `from == to` (the local patch
    ///   needs no circuit);
    /// - [`PatchNetError::NoPath`] when every route contends with existing
    ///   circuits.
    pub fn reserve(&mut self, from: TileId, to: TileId) -> Result<Circuit, PatchNetError> {
        let tiles = self.topo.tiles();
        for t in [from, to] {
            if t.index() >= tiles {
                return Err(PatchNetError::BadTile {
                    index: u32::from(t.0),
                    tiles: tiles as u32,
                });
            }
        }
        if from == to {
            return Err(PatchNetError::SameTile(from));
        }
        let path = self
            .shortest_free_path(from, to)
            .ok_or(PatchNetError::NoPath { from, to })?;

        // Claim the forward direction: Reg -> ... -> Patch, and the
        // return: Patch -> ... -> Reg.
        let hops = (path.len() - 1) as u32;
        for i in 0..path.len() {
            let tile = path[i];
            // Port facing the previous/next tile on the path.
            let toward_prev = (i > 0).then(|| dir_between(self.topo, tile, path[i - 1]));
            let toward_next =
                (i + 1 < path.len()).then(|| dir_between(self.topo, tile, path[i + 1]));
            // Forward leg: REG/prev-facing in -> next-facing/PATCH out.
            self.connect(
                tile,
                toward_prev.unwrap_or(PortDir::Reg),
                toward_next.unwrap_or(PortDir::Patch),
            )?;
            // Return leg mirrors it.
            self.connect(
                tile,
                toward_next.unwrap_or(PortDir::Patch),
                toward_prev.unwrap_or(PortDir::Reg),
            )?;
        }

        let circuit = Circuit {
            from,
            to,
            tiles: path,
            hops,
        };
        self.circuits.push(circuit.clone());
        Ok(circuit)
    }

    /// Looks up a previously reserved circuit (the latest, should a raw
    /// `cfgxbar` write have freed its endpoints for a second one).
    #[must_use]
    pub fn circuit(&self, from: TileId, to: TileId) -> Option<&Circuit> {
        self.circuits
            .iter()
            .rev()
            .find(|c| c.from == from && c.to == to)
    }

    /// All reserved circuits.
    #[must_use]
    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// Clears all circuits and switch state (between applications).
    pub fn clear(&mut self) {
        for sw in &mut self.switches {
            *sw = SwitchConfig::default();
        }
        self.circuits.clear();
    }

    /// Captures switch configurations (packed register format) and the
    /// reserved circuits.
    #[must_use]
    pub fn snapshot(&self) -> PatchNetSnapshot {
        PatchNetSnapshot {
            switches: self.switches.iter().map(SwitchConfig::pack).collect(),
            circuits: self.circuits.clone(),
        }
    }

    /// Restores a snapshot. Snapshots are untrusted (an edited or fuzzed
    /// file reaches this through the chip's snapshot decoder), so every
    /// recorded circuit is structurally validated before any state is
    /// mutated; on error the network is unmodified. Whether the switch
    /// state still *carries* each circuit is deliberately not checked
    /// here — a raw `cfgxbar` write can legitimately sever a circuit on a
    /// live chip, and such states must round-trip;
    /// [`PatchNet::validate_circuits`] owns that legality question.
    ///
    /// # Errors
    ///
    /// [`PatchNetError::BadConfigWord`] if a packed switch word does not
    /// decode, [`PatchNetError::BadTile`] on a switch-count mismatch or an
    /// out-of-range circuit tile, and [`PatchNetError::MalformedCircuit`]
    /// on a structurally impossible circuit record.
    pub fn restore(&mut self, snap: &PatchNetSnapshot) -> Result<(), PatchNetError> {
        if snap.switches.len() != self.switches.len() {
            return Err(PatchNetError::BadTile {
                index: snap.switches.len() as u32,
                tiles: self.topo.tiles() as u32,
            });
        }
        let mut switches = Vec::with_capacity(snap.switches.len());
        for &w in &snap.switches {
            switches.push(SwitchConfig::unpack(w)?);
        }
        for (i, c) in snap.circuits.iter().enumerate() {
            circuit_shape(self.topo, c)?;
            // Only `tiles * (tiles - 1)` endpoint pairs exist, so this
            // scan meets a duplicate within that many circuits.
            let earlier = &snap.circuits[..i];
            if earlier.iter().any(|e| (e.from, e.to) == (c.from, c.to)) {
                return Err(PatchNetError::MalformedCircuit {
                    from: c.from,
                    to: c.to,
                    detail: "duplicate circuit for the same endpoint pair",
                });
            }
        }
        self.switches = switches;
        self.circuits = snap.circuits.clone();
        Ok(())
    }

    /// Verifies that every reserved circuit is still carried by the
    /// current switch state (both directions at every hop). A raw
    /// `cfgxbar` write can silently sever a circuit — this is the
    /// legality check debug builds of the chip run after every
    /// reconfigure.
    ///
    /// # Errors
    ///
    /// [`PatchNetError::BrokenCircuit`] naming the first bad switch.
    pub fn validate_circuits(&self) -> Result<(), PatchNetError> {
        for c in &self.circuits {
            circuit_carried(&self.switches, self.topo, c)?;
        }
        Ok(())
    }

    /// Dijkstra (uniform weights, so effectively BFS) over switches whose
    /// relevant output ports are still free in *both* directions.
    fn shortest_free_path(&self, from: TileId, to: TileId) -> Option<Vec<TileId>> {
        // Endpoint ports must be free: from's Reg-out (return delivery)
        // and to's Patch-out (forward delivery).
        if self.switch(from).driver(PortDir::Reg).is_some()
            || self.switch(to).driver(PortDir::Patch).is_some()
        {
            return None;
        }
        let n = self.topo.tiles();
        let mut dist = vec![u32::MAX; n];
        let mut prev: Vec<Option<TileId>> = vec![None; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[from.index()] = 0;
        heap.push(std::cmp::Reverse((0u32, from.0)));
        while let Some(std::cmp::Reverse((d, t))) = heap.pop() {
            let tile = TileId(t);
            if d > dist[tile.index()] {
                continue;
            }
            if tile == to {
                break;
            }
            for dir in [PortDir::North, PortDir::East, PortDir::South, PortDir::West] {
                let Some(next) = self.topo.neighbor(tile, dir) else {
                    continue;
                };
                // Forward uses `dir`-out at `tile`; return uses
                // `dir.opposite()`-out at `next`.
                if self.switch(tile).driver(dir).is_some()
                    || self.switch(next).driver(dir.opposite()).is_some()
                {
                    continue;
                }
                let nd = d + 1;
                if nd < dist[next.index()] {
                    dist[next.index()] = nd;
                    prev[next.index()] = Some(tile);
                    heap.push(std::cmp::Reverse((nd, next.0)));
                }
            }
        }
        if dist[to.index()] == u32::MAX {
            return None;
        }
        let mut path = vec![to];
        let mut cursor = to;
        while let Some(p) = prev[cursor.index()] {
            path.push(p);
            cursor = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], from);
        Some(path)
    }
}

/// Snapshot of the inter-patch network: per-switch packed configuration
/// registers plus the reserved circuits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchNetSnapshot {
    /// Packed 18-bit configuration word per switch, in tile order.
    pub switches: Vec<u32>,
    /// Reserved circuits, in reservation order.
    pub circuits: Vec<Circuit>,
}

/// Structural validation of an untrusted circuit record: every tile is
/// inside the topology, the path has at least two tiles, its ends match
/// the recorded endpoints, consecutive tiles are mesh neighbors, and the
/// hop count matches the path length.
fn circuit_shape(topo: Topology, c: &Circuit) -> Result<(), PatchNetError> {
    let tiles = topo.tiles();
    for &t in c.tiles.iter().chain([&c.from, &c.to]) {
        if t.index() >= tiles {
            return Err(PatchNetError::BadTile {
                index: u32::from(t.0),
                tiles: tiles as u32,
            });
        }
    }
    let malformed = |detail| PatchNetError::MalformedCircuit {
        from: c.from,
        to: c.to,
        detail,
    };
    if c.tiles.len() < 2 {
        return Err(malformed("path shorter than two tiles"));
    }
    if c.tiles.first() != Some(&c.from) || c.tiles.last() != Some(&c.to) {
        return Err(malformed("endpoints disagree with path"));
    }
    for pair in c.tiles.windows(2) {
        if topo.distance(pair[0], pair[1]) != 1 {
            return Err(malformed("consecutive path tiles are not neighbors"));
        }
    }
    if c.hops != (c.tiles.len() - 1) as u32 {
        return Err(malformed("hop count disagrees with path length"));
    }
    Ok(())
}

/// Checks that `switches` drives both legs of `c` at every hop. Shared by
/// [`PatchNet::validate_circuits`] and the snapshot restore path;
/// indexes through `get` so an out-of-range tile is a typed error, never
/// a panic.
fn circuit_carried(
    switches: &[SwitchConfig],
    topo: Topology,
    c: &Circuit,
) -> Result<(), PatchNetError> {
    for i in 0..c.tiles.len() {
        let tile = c.tiles[i];
        let Some(sw) = switches.get(tile.index()) else {
            return Err(PatchNetError::BadTile {
                index: u32::from(tile.0),
                tiles: switches.len() as u32,
            });
        };
        let toward_prev = (i > 0).then(|| dir_between(topo, tile, c.tiles[i - 1]));
        let toward_next = (i + 1 < c.tiles.len()).then(|| dir_between(topo, tile, c.tiles[i + 1]));
        let fwd_in = toward_prev.unwrap_or(PortDir::Reg);
        let fwd_out = toward_next.unwrap_or(PortDir::Patch);
        if sw.driver(fwd_out) != Some(fwd_in) || sw.driver(fwd_in) != Some(fwd_out) {
            return Err(PatchNetError::BrokenCircuit {
                from: c.from,
                to: c.to,
                tile,
            });
        }
    }
    Ok(())
}

/// Mesh direction from `a` to an adjacent tile `b`.
fn dir_between(topo: Topology, a: TileId, b: TileId) -> PortDir {
    let (ca, cb) = (topo.coord(a), topo.coord(b));
    if cb.x > ca.x {
        PortDir::East
    } else if cb.x < ca.x {
        PortDir::West
    } else if cb.y > ca.y {
        PortDir::South
    } else {
        PortDir::North
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_word_round_trip() {
        let mut cfg = SwitchConfig::default();
        cfg.set(PortDir::Patch, PortDir::North);
        cfg.set(PortDir::South, PortDir::Reg);
        let w = cfg.pack();
        assert_eq!(SwitchConfig::unpack(w).unwrap(), cfg);
        assert!(w < (1 << 18), "18-bit register");
    }

    #[test]
    fn bad_config_word_rejected() {
        // Input code 6 is reserved.
        assert!(SwitchConfig::unpack(6).is_err());
    }

    #[test]
    fn paper_fig5_circuit() {
        // patch2 and patch10 stitched; patch6's switch provides the
        // bypass (1-based naming). Zero-based: 1 -> 9 via 5.
        let mut net = PatchNet::new_4x4();
        let c = net.reserve(TileId(1), TileId(9)).unwrap();
        assert_eq!(c.tiles, vec![TileId(1), TileId(5), TileId(9)]);
        assert_eq!(c.hops, 2);
        // tile6 (index 5) must be configured as a pure bypass:
        let sw = net.switch(TileId(5));
        assert_eq!(sw.driver(PortDir::South), Some(PortDir::North));
        assert_eq!(sw.driver(PortDir::North), Some(PortDir::South));
        // Endpoints: source injects from REG, destination stops at PATCH.
        assert_eq!(
            net.switch(TileId(1)).driver(PortDir::South),
            Some(PortDir::Reg)
        );
        assert_eq!(
            net.switch(TileId(9)).driver(PortDir::Patch),
            Some(PortDir::North)
        );
        assert_eq!(
            net.switch(TileId(9)).driver(PortDir::North),
            Some(PortDir::Patch)
        );
        assert_eq!(
            net.switch(TileId(1)).driver(PortDir::Reg),
            Some(PortDir::South)
        );
    }

    #[test]
    fn contention_is_detected() {
        let mut net = PatchNet::new_4x4();
        net.reserve(TileId(1), TileId(9)).unwrap();
        // A second circuit through the same column contends at tile 5.
        let err = net.reserve(TileId(1), TileId(13));
        assert!(err.is_err());
    }

    #[test]
    fn reroutes_around_contention() {
        let mut net = PatchNet::new_4x4();
        // Occupy the straight path 0->1->2.
        net.reserve(TileId(0), TileId(2)).unwrap();
        // 0 cannot start another circuit (REG busy), but 4 -> 6 must
        // dodge nothing; and 1 -> 3... 1's REG is free.
        let c = net.reserve(TileId(4), TileId(6)).unwrap();
        assert_eq!(c.hops, 2);
        // A circuit that would naturally go through the occupied row
        // detours: 1 -> 2 direct East is blocked (output E of switch 1
        // drives toward 2 already).
        let c2 = net.reserve(TileId(1), TileId(2));
        // Switch1's East output is taken by the 0->2 circuit, so the path
        // must detour (e.g. via row 1). It exists because row 1 is now
        // partially used by 4->6 but alternatives remain.
        match c2 {
            Ok(c) => assert!(c.hops > 1, "must detour, got {:?}", c.tiles),
            Err(PatchNetError::NoPath { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn same_tile_rejected() {
        let mut net = PatchNet::new_4x4();
        assert_eq!(
            net.reserve(TileId(3), TileId(3)),
            Err(PatchNetError::SameTile(TileId(3)))
        );
    }

    #[test]
    fn clear_releases_everything() {
        let mut net = PatchNet::new_4x4();
        net.reserve(TileId(1), TileId(9)).unwrap();
        net.clear();
        assert!(net.circuits().is_empty());
        assert!(net.reserve(TileId(1), TileId(9)).is_ok());
    }

    #[test]
    fn circuit_lookup() {
        let mut net = PatchNet::new_4x4();
        let pairs = [(2, 10), (1, 9), (4, 6), (12, 15)];
        let reserved: Vec<Circuit> = pairs
            .iter()
            .map(|&(a, b)| net.reserve(TileId(a), TileId(b)).unwrap())
            .collect();
        for (&(a, b), c) in pairs.iter().zip(&reserved) {
            assert_eq!(net.circuit(TileId(a), TileId(b)), Some(c));
        }
        // Direction matters, and a pair never reserved is absent.
        assert!(net.circuit(TileId(10), TileId(2)).is_none());
        assert!(net.circuit(TileId(0), TileId(15)).is_none());
    }

    #[test]
    fn write_config_register_is_unchecked() {
        let mut net = PatchNet::new_4x4();
        let mut cfg = SwitchConfig::default();
        cfg.set(PortDir::East, PortDir::West);
        net.write_config_register(TileId(5), cfg.pack()).unwrap();
        assert_eq!(
            net.switch(TileId(5)).driver(PortDir::East),
            Some(PortDir::West)
        );
    }

    #[test]
    fn write_config_register_rejects_bad_tile() {
        let mut net = PatchNet::new_4x4();
        let err = net.write_config_register(TileId(99), 0).unwrap_err();
        assert_eq!(
            err,
            PatchNetError::BadTile {
                index: 99,
                tiles: 16
            }
        );
    }

    #[test]
    fn snapshot_round_trip_restores_circuits_and_switches() {
        let mut net = PatchNet::new_4x4();
        net.reserve(TileId(1), TileId(9)).unwrap();
        net.reserve(TileId(2), TileId(10)).unwrap();
        let snap = net.snapshot();

        let mut replica = PatchNet::new_4x4();
        replica.restore(&snap).unwrap();
        assert_eq!(replica.circuits(), net.circuits());
        for t in 0..16u8 {
            assert_eq!(replica.switch(TileId(t)), net.switch(TileId(t)));
        }
        // Restored circuits are found again.
        assert!(replica.circuit(TileId(1), TileId(9)).is_some());
        // And contention is still detected after restore.
        assert!(replica.reserve(TileId(1), TileId(13)).is_err());
    }

    #[test]
    fn restore_rejects_wrong_switch_count() {
        let mut net = PatchNet::new_4x4();
        let snap = PatchNetSnapshot {
            switches: vec![0; 4],
            circuits: Vec::new(),
        };
        assert!(matches!(
            net.restore(&snap),
            Err(PatchNetError::BadTile { .. })
        ));
    }

    #[test]
    fn restore_rejects_duplicate_endpoint_pair() {
        let mut donor = PatchNet::new_4x4();
        donor.reserve(TileId(2), TileId(10)).unwrap();
        donor.reserve(TileId(1), TileId(9)).unwrap();
        let mut snap = donor.snapshot();
        let again = snap.circuits[1].clone();
        snap.circuits.push(again);

        let mut net = PatchNet::new_4x4();
        net.reserve(TileId(4), TileId(6)).unwrap();
        let before = net.snapshot();
        assert_eq!(
            net.restore(&snap),
            Err(PatchNetError::MalformedCircuit {
                from: TileId(1),
                to: TileId(9),
                detail: "duplicate circuit for the same endpoint pair",
            })
        );
        // Rejected before any state was replaced.
        assert_eq!(net.snapshot(), before);
        // The same pair in the other direction is a different circuit.
        snap.circuits.pop();
        snap.circuits.push(Circuit {
            from: TileId(9),
            to: TileId(1),
            tiles: vec![TileId(9), TileId(5), TileId(1)],
            hops: 2,
        });
        net.restore(&snap).unwrap();
        assert_eq!(net.circuits().len(), 3);
    }

    #[test]
    fn validate_circuits_catches_severed_path() {
        let mut net = PatchNet::new_4x4();
        net.reserve(TileId(1), TileId(9)).unwrap();
        net.validate_circuits().unwrap();
        // A raw reconfigure of the bypass switch severs the circuit.
        net.write_config_register(TileId(5), SwitchConfig::default().pack())
            .unwrap();
        let err = net.validate_circuits().unwrap_err();
        assert_eq!(
            err,
            PatchNetError::BrokenCircuit {
                from: TileId(1),
                to: TileId(9),
                tile: TileId(5),
            }
        );
    }

    #[test]
    fn max_distance_reservable_on_empty_net() {
        let mut net = PatchNet::new_4x4();
        let c = net.reserve(TileId(0), TileId(15)).unwrap();
        assert_eq!(c.hops, 6);
    }
}
