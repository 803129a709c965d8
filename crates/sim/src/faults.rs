//! Runtime side of the fault subsystem: the mutable state the chip
//! threads through a run while replaying a [`FaultPlan`].
//!
//! The *plan* (which component breaks, when) lives in `stitch-fault`;
//! this module holds the *mechanism*: which patches and switches are
//! currently down, which configurations are awaiting a parity scrub, and
//! which fused bindings already paid their watchdog timeout. The patch
//! half of the degradation ladder is decided in one place,
//! [`FaultRuntime::rung`], which both the interpreter
//! (`TilePlatform::exec_custom` in [`crate::chip`]) and translated
//! windows read — the interpreter per activation, a window once per
//! binding until the rung's horizon; link faults are handled by the mesh
//! stall probe.
//!
//! The ladder's topmost rung — checkpoint rollback for *transient*
//! faults — also keeps its runtime state here: per-component mask
//! deadlines that make a rolled-back fault window read as healthy during
//! the replay, and the pending-mask queue a detection fills to ask the
//! chip for a rollback (serviced by `Chip` right after the tick).

use crate::chip::CiBinding;
use crate::snapshot::FaultRuntimeSnapshot;
use crate::TileId;
use std::collections::HashSet;
use stitch_cpu::PatchFaultKind;
use stitch_fault::{FaultKind, FaultPlan};
use stitch_isa::custom::CiId;
use stitch_noc::PatchNet;

/// Cycles of one fused-handshake watchdog window.
pub const WATCHDOG_TIMEOUT_CYCLES: u32 = 8;

/// Bounded watchdog retries before a fused CI demotes to software.
pub const WATCHDOG_RETRIES: u32 = 3;

/// Cycle cost of re-scrubbing a patch configuration after a parity error
/// (the control word is re-driven from the custom instruction itself).
pub const CONFIG_SCRUB_CYCLES: u32 = 12;

/// Consecutive motionless mesh ticks treated as a hard NoC fault. Healthy
/// traffic never idles the switch fabric for more than the router
/// pipeline fill (~6 cycles); this threshold leaves orders of magnitude
/// of margin while still converting a wedged network into a typed error
/// long before a run budget expires.
pub const MESH_STALL_TICKS: u64 = 10_000;

/// Counters for fault handling during a run (diagnostics; deliberately
/// not part of [`crate::RunSummary`], whose equality pins architectural
/// behavior, not fault bookkeeping — though these too evolve identically
/// in the fast path and the reference engine). After a run that fails
/// part-way, `demotions` is like the rest of the chip state: a window
/// lane may have retired demoted customs past the failing cycle, so only
/// the error itself is engine-identical then.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events applied so far.
    pub injected: u64,
    /// Custom-instruction activations executed via the software fallback.
    pub demotions: u64,
    /// Fused handshakes that timed out and paid the bounded retry cost.
    pub watchdog_trips: u64,
    /// Config-parity scrubs performed.
    pub scrubs: u64,
    /// Checkpoint rollbacks taken to replay past a transient fault.
    pub rollbacks: u64,
}

/// The degradation-ladder rung one custom-instruction activation takes,
/// as decided by [`FaultRuntime::rung`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// The patch — and for a fused CI the partner and the circuit — is
    /// live: single-cycle on the fabric.
    Healthy,
    /// Strict plan: the detection is a typed error.
    Faulted(PatchFaultKind),
    /// Every blocker is transient and a checkpoint is armed: the chip
    /// rolls back and replays with the blockers masked. The activation
    /// itself runs healthy; the restore discards it.
    Rollback,
    /// The local patch is down: the whole CI runs in software.
    Software,
    /// The fused circuit is severed: stage one on the local patch, stage
    /// two in software. The first activation per `(tile, ci)` pays the
    /// bounded watchdog retries.
    LocalOnly {
        /// True while the `(tile, ci)` watchdog has not tripped yet.
        first_trip: bool,
    },
}

impl Rung {
    /// True when a translated window may retire the activation itself.
    /// These rungs change fault state only through commutative counters
    /// (`demotions`, patch activations), so window lanes stay
    /// independent; every other rung side-exits to the interpreter.
    pub fn inline(self) -> bool {
        matches!(
            self,
            Rung::Healthy | Rung::Software | Rung::LocalOnly { first_trip: false }
        )
    }
}

/// One component masked by a rollback: during the replay the component
/// reads healthy until the underlying transient fault's recovery cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingMask {
    /// Masks the inter-patch switch (`true`) or the patch datapath.
    pub switch: bool,
    /// Tile index of the masked component.
    pub tile: usize,
    /// First cycle at which the mask expires (the fault's recovery
    /// cycle — beyond it the component is genuinely healthy again).
    pub until: u64,
}

/// Mutable fault state for one run.
pub(crate) struct FaultRuntime {
    /// The installed plan (events sorted by cycle).
    pub plan: FaultPlan,
    /// Index of the next unapplied event.
    pub next: usize,
    /// Per tile: the patch is down while `cycle < patch_down_until`.
    pub patch_down_until: Vec<u64>,
    /// Per tile: the crossbar switch is down while `cycle < …`.
    pub switch_down_until: Vec<u64>,
    /// Per tile: rollback mask — while `cycle < patch_mask_until` the
    /// patch reads healthy even if down (replay of a rolled-back window).
    pub patch_mask_until: Vec<u64>,
    /// Per tile: rollback mask for the inter-patch switch.
    pub switch_mask_until: Vec<u64>,
    /// Per tile: a config upset awaits its parity scrub.
    pub config_upset: Vec<bool>,
    /// `(tile, ci)` pairs that already paid the watchdog timeout; later
    /// activations go straight to the software fallback.
    pub watchdog_tripped: HashSet<(u8, u16)>,
    /// Counters.
    pub stats: FaultStats,
    /// Masks requested by detections during the current tick; drained by
    /// the chip's rollback service immediately after the tick.
    pub pending_masks: Vec<PendingMask>,
}

impl FaultRuntime {
    pub fn new(plan: FaultPlan, tiles: usize) -> Self {
        FaultRuntime {
            plan,
            next: 0,
            patch_down_until: vec![0; tiles],
            switch_down_until: vec![0; tiles],
            patch_mask_until: vec![0; tiles],
            switch_mask_until: vec![0; tiles],
            config_upset: vec![false; tiles],
            watchdog_tripped: HashSet::new(),
            stats: FaultStats::default(),
            pending_masks: Vec::new(),
        }
    }

    /// Cycle of the next unapplied event, if any — the fast path never
    /// skips past it, so faults fire on the same cycle in both engines.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.plan.events().get(self.next).map(|e| e.cycle)
    }

    /// Applies one plan event to the patches, switches and
    /// configurations; overlapping transient faults accumulate to the
    /// latest recovery cycle. Mesh link faults belong to the mesh and are
    /// left to the caller.
    pub fn apply(&mut self, kind: &FaultKind) {
        match *kind {
            FaultKind::PatchFail { tile, until } => {
                let slot = &mut self.patch_down_until[tile.index()];
                *slot = (*slot).max(until.unwrap_or(u64::MAX));
            }
            FaultKind::SwitchFail { tile, until } => {
                let slot = &mut self.switch_down_until[tile.index()];
                *slot = (*slot).max(until.unwrap_or(u64::MAX));
            }
            FaultKind::ConfigUpset { tile } => self.config_upset[tile.index()] = true,
            FaultKind::MeshLinkFail { .. } => {}
        }
    }

    /// Whether `tile`'s patch datapath is down at `cycle`. A rollback
    /// mask overrides the fault: during a masked replay the patch reads
    /// healthy.
    pub fn patch_down(&self, tile: TileId, cycle: u64) -> bool {
        let i = tile.index();
        down(self.patch_down_until[i], self.patch_mask_until[i], cycle)
    }

    /// Whether `tile`'s inter-patch switch is down at `cycle` (mask-aware
    /// like [`FaultRuntime::patch_down`]).
    pub fn switch_down(&self, tile: TileId, cycle: u64) -> bool {
        let i = tile.index();
        down(self.switch_down_until[i], self.switch_mask_until[i], cycle)
    }

    /// Whether an activation of `binding` on `tile` would scrub a
    /// configuration first — the local patch's or, fused, the partner's.
    pub fn scrub_pending(&self, tile: TileId, binding: &CiBinding) -> bool {
        self.config_upset[tile.index()]
            || binding
                .partner()
                .is_some_and(|p| self.config_upset[p.index()])
    }

    /// Consumes a pending config upset on `tile`, returning the scrub
    /// penalty in cycles (0 when the configuration is clean). Detection
    /// happens on the next activation — parity is checked when the
    /// control word is driven — and the scrub restores the correct
    /// configuration from the instruction stream, so values are never
    /// affected.
    pub fn scrub(&mut self, tile: TileId) -> u32 {
        if std::mem::take(&mut self.config_upset[tile.index()]) {
            self.stats.scrubs += 1;
            CONFIG_SCRUB_CYCLES
        } else {
            0
        }
    }

    /// The ladder rung an activation of `binding` on `tile` takes at
    /// `cycle`, and its horizon: the first cycle after `cycle` at which a
    /// fault deadline or rollback mask the decision read expires
    /// (`u64::MAX` when none will). The one ladder decision both engines
    /// read: `TilePlatform::exec_custom` acts on every rung and ignores
    /// the horizon; a translated window retires the rungs
    /// [`Rung::inline`] accepts, side-exits the rest, and reuses the rung
    /// for the binding's later activations before the horizon. Config
    /// scrubs are not rungs — they are consumed (or, in a window,
    /// side-exited on) before the rung is read.
    /// A transient fault rolls back only while `rollback_armed`: the chip
    /// holds a checkpoint and retry budget, so a queued rollback request
    /// is always serviceable.
    ///
    /// Only plan events, rollbacks and first watchdog trips change the
    /// rest of what this reads, and none of those happens inside a
    /// window, so the rung is constant on `[cycle, until)` there.
    pub fn rung(
        &self,
        tile: TileId,
        ci: CiId,
        binding: &CiBinding,
        patchnet: &PatchNet,
        cycle: u64,
        rollback_armed: bool,
    ) -> (Rung, u64) {
        let mut until = u64::MAX;
        let local = tile.index();
        let (kind, transient) = if down_at(
            self.patch_down_until[local],
            self.patch_mask_until[local],
            cycle,
            &mut until,
        ) {
            let transient = self.patch_down_until[local] != u64::MAX;
            (PatchFaultKind::PatchDead, transient)
        } else if let Some(partner) = binding.partner() {
            match patchnet.circuit(tile, partner) {
                Some(c) => {
                    // The partner patch and every switch on the path are
                    // read, down or not: which of them block decides both
                    // the rung and whether a rollback could mask it.
                    let (mut blocked, mut transient) = (false, true);
                    let mut read = |down_until: u64, mask_until: u64| {
                        if down_at(down_until, mask_until, cycle, &mut until) {
                            blocked = true;
                            transient &= down_until != u64::MAX;
                        }
                    };
                    let p = partner.index();
                    read(self.patch_down_until[p], self.patch_mask_until[p]);
                    for t in &c.tiles {
                        let s = t.index();
                        read(self.switch_down_until[s], self.switch_mask_until[s]);
                    }
                    if !blocked {
                        return (Rung::Healthy, until);
                    }
                    (PatchFaultKind::CircuitDead, transient)
                }
                // Bindings are validated at load time, so the circuit
                // exists; treat absence as severed, defensively, with
                // nothing a rollback could mask.
                None => (PatchFaultKind::CircuitDead, false),
            }
        } else {
            return (Rung::Healthy, until);
        };
        let rung = if !self.plan.degrade() {
            Rung::Faulted(kind)
        } else if rollback_armed && transient {
            // Masking a permanent blocker would replay into the same
            // wall forever, so only all-transient blockers roll back.
            Rung::Rollback
        } else if kind == PatchFaultKind::PatchDead {
            Rung::Software
        } else {
            Rung::LocalOnly {
                first_trip: !self.watchdog_tripped.contains(&(tile.0, ci.0)),
            }
        };
        (rung, until)
    }

    /// Queues the masks for a [`Rung::Rollback`] decided by
    /// [`FaultRuntime::rung`] at the same `cycle`: the local patch, or
    /// every down component on the fused circuit.
    pub fn queue_rollback(
        &mut self,
        tile: TileId,
        binding: &CiBinding,
        patchnet: &PatchNet,
        cycle: u64,
    ) {
        if self.patch_down(tile, cycle) {
            self.pending_masks.push(PendingMask {
                switch: false,
                tile: tile.index(),
                until: self.patch_down_until[tile.index()],
            });
        } else if let Some(partner) = binding.partner() {
            if let Some(c) = patchnet.circuit(tile, partner) {
                let masks: Vec<PendingMask> =
                    self.circuit_blockers(partner, &c.tiles, cycle).collect();
                self.pending_masks.extend(masks);
            }
        }
    }

    /// The down components blocking a fused circuit to `partner` over
    /// `path` at `cycle`, as the masks a rollback past them installs.
    fn circuit_blockers<'s>(
        &'s self,
        partner: TileId,
        path: &'s [TileId],
        cycle: u64,
    ) -> impl Iterator<Item = PendingMask> + 's {
        let patch = self.patch_down(partner, cycle).then(|| PendingMask {
            switch: false,
            tile: partner.index(),
            until: self.patch_down_until[partner.index()],
        });
        let switches = path
            .iter()
            .filter(move |t| self.switch_down(**t, cycle))
            .map(|t| PendingMask {
                switch: true,
                tile: t.index(),
                until: self.switch_down_until[t.index()],
            });
        patch.into_iter().chain(switches)
    }

    /// Captures the runtime state (the transient `pending_masks` queue is
    /// always empty at checkpoint points — the chip services it right
    /// after every tick, before checkpointing).
    pub fn snapshot(&self) -> FaultRuntimeSnapshot {
        let mut watchdog: Vec<(u8, u16)> = self.watchdog_tripped.iter().copied().collect();
        watchdog.sort_unstable();
        FaultRuntimeSnapshot {
            plan: self.plan.clone(),
            next: self.next as u64,
            patch_down_until: self.patch_down_until.clone(),
            switch_down_until: self.switch_down_until.clone(),
            patch_mask_until: self.patch_mask_until.clone(),
            switch_mask_until: self.switch_mask_until.clone(),
            config_upset: self.config_upset.clone(),
            watchdog_tripped: watchdog,
            stats: self.stats,
        }
    }

    /// Rebuilds the runtime from a snapshot (lengths validated by the
    /// chip before this is called).
    pub fn from_snapshot(snap: &FaultRuntimeSnapshot) -> Self {
        FaultRuntime {
            plan: snap.plan.clone(),
            next: snap.next as usize,
            patch_down_until: snap.patch_down_until.clone(),
            switch_down_until: snap.switch_down_until.clone(),
            patch_mask_until: snap.patch_mask_until.clone(),
            switch_mask_until: snap.switch_mask_until.clone(),
            config_upset: snap.config_upset.clone(),
            watchdog_tripped: snap.watchdog_tripped.iter().copied().collect(),
            stats: snap.stats,
            pending_masks: Vec::new(),
        }
    }
}

/// Whether a component with fault deadline `down_until` and rollback
/// mask `mask_until` is down at `cycle`: faulted and not masked.
fn down(down_until: u64, mask_until: u64, cycle: u64) -> bool {
    down_until > cycle && mask_until <= cycle
}

/// [`down`], also lowering `until` to the first cycle after `cycle` at
/// which the answer can change — the component's next deadline or mask
/// expiry.
fn down_at(down_until: u64, mask_until: u64, cycle: u64, until: &mut u64) -> bool {
    for edge in [down_until, mask_until] {
        if edge > cycle {
            *until = (*until).min(edge);
        }
    }
    down(down_until, mask_until, cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_fault::{FaultSpace, SimRng};
    use stitch_patch::{AtAsControl, ControlWord};

    /// First seed of the horizon property: the fault harness's
    /// `STITCH_FAULT_SEED_BASE`, so one randomized batch covers both.
    fn seed_base() -> u64 {
        std::env::var("STITCH_FAULT_SEED_BASE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xFA_17_00)
    }

    /// A random runtime state over tiles 0..10: every event of a random
    /// compute-only plan applied, a few random rollback masks, sometimes
    /// a tripped watchdog, and strict mode one time in four.
    fn random_runtime(seed: u64) -> FaultRuntime {
        let space = FaultSpace {
            tiles: 10,
            horizon: 2_000,
            max_events: 6,
            allow_transient: true,
            ..FaultSpace::default()
        }
        .compute_only();
        let mut rng = SimRng::new(seed ^ 0x5EED_0F4A);
        let mut plan = FaultPlan::random(seed, &space);
        if rng.chance(1, 4) {
            plan = plan.strict();
        }
        let mut f = FaultRuntime::new(plan.clone(), 16);
        for ev in plan.events() {
            f.apply(&ev.kind);
        }
        for _ in 0..rng.index(5) {
            let tile = rng.index(10);
            let until = rng.below(6_000);
            if rng.chance(1, 2) {
                f.patch_mask_until[tile] = until;
            } else {
                f.switch_mask_until[tile] = until;
            }
        }
        if rng.chance(1, 2) {
            f.watchdog_tripped.insert((1, 1));
        }
        f
    }

    #[test]
    fn rung_holds_until_its_horizon() {
        let mut net = PatchNet::new_4x4();
        let path = net.reserve(TileId(1), TileId(9)).unwrap().tiles;
        let control = ControlWord::AtAs(AtAsControl::default());
        let single = CiBinding::Single {
            control: control.clone(),
        };
        let fused = CiBinding::Fused {
            first: control.clone(),
            partner: TileId(9),
            second: control,
        };
        let plans = std::env::var("STITCH_FAULT_PLANS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(100u64);
        let base = seed_base();
        for seed in base..base + plans {
            let f = random_runtime(seed);
            let armed = seed % 2 == 0;
            for (ci, binding) in [(CiId(0), &single), (CiId(1), &fused)] {
                // Every deadline and mask of a component the rung reads.
                let mut edges = vec![f.patch_down_until[1], f.patch_mask_until[1]];
                if binding.partner().is_some() {
                    edges.extend([f.patch_down_until[9], f.patch_mask_until[9]]);
                    for t in &path {
                        edges.push(f.switch_down_until[t.index()]);
                        edges.push(f.switch_mask_until[t.index()]);
                    }
                }
                // Probe at, just before and well before each edge, plus
                // a few arbitrary cycles.
                let mut probes = vec![0, 1_000, 5_000, 9_000];
                for &e in edges.iter().filter(|&&e| e != u64::MAX) {
                    probes.extend([e, e.saturating_sub(1), e.saturating_sub(300)]);
                }
                for t in probes {
                    let (rung, until) = f.rung(TileId(1), ci, binding, &net, t, armed);
                    let at = format!("seed {seed}, ci {}, cycle {t}", ci.0);
                    assert!(until > t, "{at}: horizon {until} not after the cycle");
                    assert!(
                        until == u64::MAX || edges.contains(&until),
                        "{at}: horizon {until} is no component's deadline or mask"
                    );
                    for later in t..until.min(t + 512) {
                        let (again, _) = f.rung(TileId(1), ci, binding, &net, later, armed);
                        assert_eq!(again, rung, "{at}: rung changed at {later} < {until}");
                    }
                }
            }
        }
    }
}
