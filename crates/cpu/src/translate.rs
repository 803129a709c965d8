//! Translated execution: the window engine.
//!
//! [`Core::step`] interprets one [`stitch_isa::Instr`] per call — exact,
//! but it pays platform dispatch and per-step bookkeeping on every
//! retired instruction. This module executes whole *compute windows*
//! instead: stretches where the chip has proven no chip-level event
//! (message delivery, fault injection, checkpoint, deadline) can land.
//! Within a window the core dispatches straight on its decoded text
//! (`instrs[pc]`, fetched at `word_offsets[pc]`) on a stack-local copy
//! of its register file that is committed back when the window ends; a
//! per-core [`TransCache`] only records which pcs windows entered.
//!
//! Every instruction, jumps included, takes one path through the
//! window's dispatch loop: horizon check, side-exit check, I-fetch
//! charge, execute, retire, and cycle spacing.
//!
//! ## Bit-exactness contract
//!
//! The executor reproduces `Core::step`'s cycle accounting *exactly* —
//! same I-cache fetch stalls, same per-class latencies, same statistics
//! fields — so a run interleaving windows with interpreted ticks is
//! indistinguishable from a pure reference run. Anything the window
//! cannot retire exactly is a **side exit**: the lane stops *before*
//! executing the instruction (in particular before its I-fetch, which
//! mutates cache state) and reports the cycle at which the interpreter
//! must execute it instead. Side exits are:
//!
//! - `send` / `recv` / `halt` (NIC traffic and liveness are chip events),
//! - a pc at or past the end of the text (architectural fault),
//! - a `branch` or `jal` whose static target lies past the text, taken
//!   or not (the interpreter faults on it),
//! - `jalr` whose runtime target is out of range (fault with partial
//!   effects only the interpreter replays exactly),
//! - stores into the crossbar-config window (chip reconfiguration),
//! - custom instructions the host's [`LaneHost::prepare_custom`]
//!   rejects at their start cycle: an unbound CI, or — under a fault
//!   plan — a pending config scrub, a strict-plan detection, a rollback
//!   request or a first watchdog trip. Healthy patches and the settled
//!   demotion rungs retire inside the window.
//!
//! The cycle a lane reports back (`next_start`) is always the start
//! cycle of the *next unexecuted* instruction, which is exactly the
//! `busy_until` value the chip's tick loop would have converged to.

use crate::core::{Core, CustomOutcome, TextImage, TEXT_BASE};
use crate::stats::CoreStats;
use crate::{BRANCH_PENALTY, MUL_LATENCY};
use stitch_isa::custom::CiId;
use stitch_isa::instr::{Instr, Operand, Width};
use stitch_isa::op::{AluOp, OpClass};
use stitch_isa::reg::Reg;

/// Services a compute window needs from the chip. A deliberately smaller
/// surface than [`crate::Platform`]: no NIC, and custom execution is
/// infallible — the window asks [`LaneHost::prepare_custom`] first and
/// bails to the interpreter for anything that could fail or touch state
/// other lanes read.
pub trait LaneHost {
    /// Latency (cycles) of fetching the instruction word at `byte_addr`.
    fn fetch(&mut self, byte_addr: u32) -> u32;

    /// Data load; returns `(value, latency)`.
    fn load(&mut self, addr: u32, w: Width) -> (u32, u32);

    /// Data store; returns latency. Never called for addresses where
    /// [`LaneHost::store_side_exits`] returns true.
    fn store(&mut self, addr: u32, value: u32, w: Width) -> u32;

    /// True when a store to `addr` must be executed by the interpreter
    /// (crossbar-config writes reconfigure the chip).
    fn store_side_exits(&self, addr: u32) -> bool;

    /// What [`LaneHost::prepare_custom`] decided for one custom
    /// instruction: everything [`LaneHost::exec_custom`] needs to retire it.
    type Custom;

    /// Decides, before the I-fetch of custom instruction `ci` starting at
    /// cycle `t`, whether the window can retire it. `None` — the CI is
    /// unbound on this tile, or its fault-ladder rung at `t` needs the
    /// interpreter — makes the lane side-exit without perturbing cache
    /// state. Within one window a lane asks at non-decreasing `t`, so a
    /// host may remember a decision until the state behind it can change.
    fn prepare_custom(&mut self, ci: CiId, t: u64) -> Option<Self::Custom>;

    /// Executes a custom instruction [`LaneHost::prepare_custom`] accepted.
    fn exec_custom(&mut self, custom: Self::Custom, inputs: [u32; 4]) -> CustomOutcome;
}

/// Per-core window bookkeeping for the loaded program: which pcs
/// windows entered, and two lifetime counters. The windows themselves
/// read the core's decoded text, so nothing here can go stale but the
/// entry bitmap, which the chip clears whenever a tile's program is
/// swapped.
#[derive(Debug, Clone, Default)]
pub struct TransCache {
    /// `entered[pc]`: a window started, or a jump landed, at `pc`
    /// (empty until the first window after a program load).
    entered: Vec<bool>,
    /// Distinct entry pcs over the cache's lifetime.
    pub translated: u64,
    /// Repeated entries at an already-entered pc.
    pub hits: u64,
}

impl TransCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the entry pcs (program swap). Counters survive — they
    /// describe the cache's lifetime, not one program.
    pub fn invalidate(&mut self) {
        self.entered.clear();
    }

    /// Entry pcs of the loaded program — where windows started and jumps
    /// landed. The fuzzer uses this as its coverage signal: a mutated
    /// program that lights up a new entry pc reached a control-flow path
    /// the corpus had not.
    pub fn covered_entries(&self) -> impl Iterator<Item = u32> + '_ {
        self.entered
            .iter()
            .enumerate()
            .filter(|(_, &hit)| hit)
            .map(|(pc, _)| pc as u32)
    }
}

/// Window bounds and capabilities for one lane run.
#[derive(Debug, Clone, Copy)]
pub struct WindowParams {
    /// Cycle at which the lane's first instruction starts (its current
    /// `busy_until`, clamped below by the chip clock).
    pub start: u64,
    /// Last cycle an instruction may *start* on. Chosen by the chip so
    /// no fault event, checkpoint, or deadline lands at or before it.
    pub horizon: u64,
}

/// What one lane did inside a window.
#[derive(Debug, Clone, Copy)]
pub struct LaneRun {
    /// Start cycle of the next unexecuted instruction — the lane's new
    /// `busy_until`.
    pub next_start: u64,
    /// True when the lane stopped at an instruction the interpreter must
    /// execute (at cycle `next_start`); false when it merely ran out of
    /// horizon.
    pub side_exit: bool,
    /// Instructions retired inside the window.
    pub executed: u64,
}

/// Reads `r` from the window's lane-local register copy (`R0` is zero).
#[inline(always)]
fn reg_get(regs: &[u32; 32], r: Reg) -> u32 {
    if r.is_zero() {
        0
    } else {
        regs[r.index() as usize]
    }
}

/// Writes `r` in the window's lane-local register copy (`R0` ignored).
#[inline(always)]
fn reg_set(regs: &mut [u32; 32], r: Reg, value: u32) {
    if !r.is_zero() {
        regs[r.index() as usize] = value;
    }
}

/// Charges the I-fetch for an instruction occupying `words` words at
/// byte address `base`, exactly as `Core::step` does: per-word latency
/// accumulates, stalls beyond one cycle per word count as fetch stalls,
/// and the base cost of the words themselves is deducted (it is part of
/// the instruction's execute charge).
#[inline]
fn fetch_charge<H: LaneHost>(host: &mut H, stats: &mut CoreStats, base: u32, words: u32) -> u32 {
    let mut cycles = 0u32;
    for w in 0..words {
        let lat = host.fetch(base + w * 4);
        cycles += lat;
        stats.fetch_stall_cycles += u64::from(lat.saturating_sub(1));
    }
    cycles.saturating_sub(words)
}

/// Execute latency of an ALU op, counted in its class's statistic.
#[inline(always)]
fn alu_cycles(op: AluOp, stats: &mut CoreStats) -> u32 {
    if op.class() == OpClass::M {
        stats.mul_ops += 1;
        MUL_LATENCY
    } else {
        stats.alu_ops += 1;
        1
    }
}

impl Core {
    /// Runs this core's lane through one compute window.
    ///
    /// Executes the decoded text starting at the current pc, first
    /// instruction starting at `p.start`, stopping when the next
    /// instruction would start past `p.horizon` or at a side exit (see
    /// the module docs for the exact rules). The window works on a
    /// stack-local copy of the registers; pc, registers, and statistics
    /// are committed back to the core on return.
    ///
    /// The caller must only invoke this on a running, non-waiting core.
    pub fn run_translated<H: LaneHost>(
        &mut self,
        cache: &mut TransCache,
        host: &mut H,
        p: WindowParams,
    ) -> LaneRun {
        let TextImage {
            instrs,
            word_offsets,
        } = &self.text;
        let arch = &mut self.arch;
        let len = instrs.len() as u32;
        if cache.entered.is_empty() {
            cache.entered = vec![false; instrs.len()];
        }
        // A stack-local register copy: 128 contiguous bytes with
        // compile-time-bounded indices, committed back below.
        let mut regs = arch.regs;
        let mut stats = arch.stats;
        let mut pc = arch.pc;
        let mut t = p.start;
        let mut executed = 0u64;
        let mut side_exit = false;
        // True at the window's first instruction and after every jump:
        // the pc is an entry point, counted in the cache's statistics.
        let mut entry = true;
        loop {
            if t > p.horizon {
                break;
            }
            let Some(instr) = instrs.get(pc as usize) else {
                // The interpreter raises PcOutOfRange at cycle `t`.
                side_exit = true;
                break;
            };
            if entry {
                entry = false;
                if std::mem::replace(&mut cache.entered[pc as usize], true) {
                    cache.hits += 1;
                } else {
                    cache.translated += 1;
                }
            }
            let base = TEXT_BASE + word_offsets[pc as usize] * 4;
            let words = instr.words();
            let mut next = pc + 1;
            // Each arm runs its side-exit check before the I-fetch, so
            // the interpreter replays a bounced instruction from scratch.
            let cycles = match *instr {
                Instr::Nop => fetch_charge(host, &mut stats, base, words) + 1,
                Instr::Alu { op, rd, rs1, src2 } => {
                    let fetch = fetch_charge(host, &mut stats, base, words);
                    let b = match src2 {
                        Operand::Reg(rs2) => reg_get(&regs, rs2),
                        Operand::Imm(imm) => imm as u32,
                    };
                    let value = op.eval(reg_get(&regs, rs1), b);
                    reg_set(&mut regs, rd, value);
                    fetch + alu_cycles(op, &mut stats)
                }
                Instr::Lui { rd, imm } => {
                    let fetch = fetch_charge(host, &mut stats, base, words);
                    reg_set(&mut regs, rd, imm << 12);
                    stats.alu_ops += 1;
                    fetch + 1
                }
                Instr::Load {
                    w,
                    rd,
                    base: rb,
                    offset,
                } => {
                    let fetch = fetch_charge(host, &mut stats, base, words);
                    let addr = reg_get(&regs, rb).wrapping_add_signed(offset);
                    let (value, lat) = host.load(addr, w);
                    reg_set(&mut regs, rd, value);
                    stats.mem_ops += 1;
                    stats.mem_stall_cycles += u64::from(lat.saturating_sub(1));
                    fetch + lat
                }
                Instr::Store {
                    w,
                    rs,
                    base: rb,
                    offset,
                } => {
                    // Crossbar-config stores reconfigure the chip.
                    let addr = reg_get(&regs, rb).wrapping_add_signed(offset);
                    if host.store_side_exits(addr) {
                        side_exit = true;
                        break;
                    }
                    let fetch = fetch_charge(host, &mut stats, base, words);
                    let lat = host.store(addr, reg_get(&regs, rs), w);
                    stats.mem_ops += 1;
                    stats.mem_stall_cycles += u64::from(lat.saturating_sub(1));
                    fetch + lat
                }
                Instr::Custom(ref ci) => {
                    // Decided at this instruction's own start cycle: a
                    // transient fault can recover inside a window, so its
                    // rung may change there.
                    let Some(custom) = host.prepare_custom(ci.ci, t) else {
                        side_exit = true;
                        break;
                    };
                    let inputs = ci.input_slots().map(|r| reg_get(&regs, r));
                    let fetch = fetch_charge(host, &mut stats, base, words);
                    let o = host.exec_custom(custom, inputs);
                    let outs = ci.outputs();
                    if let Some(&r) = outs.first() {
                        reg_set(&mut regs, r, o.out.out0);
                    }
                    if let Some(&r) = outs.get(1) {
                        reg_set(&mut regs, r, o.out.out1);
                    }
                    stats.custom_ops += 1;
                    stats.fused_ops += u64::from(o.fused);
                    stats.demoted_ops += u64::from(o.demoted);
                    fetch + o.cycles.max(1)
                }
                // A static target equal to `len` is legal (the *next*
                // instruction faults with PcOutOfRange); past it the
                // jump itself faults, taken or not, in the interpreter.
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } if target <= len => {
                    let fetch = fetch_charge(host, &mut stats, base, words);
                    entry = true;
                    stats.branches += 1;
                    if cond.eval(reg_get(&regs, rs1), reg_get(&regs, rs2)) {
                        stats.branches_taken += 1;
                        next = target;
                        fetch + 1 + BRANCH_PENALTY
                    } else {
                        fetch + 1
                    }
                }
                Instr::Jal { rd, target } if target <= len => {
                    let fetch = fetch_charge(host, &mut stats, base, words);
                    reg_set(&mut regs, rd, next);
                    entry = true;
                    next = target;
                    stats.branches += 1;
                    stats.branches_taken += 1;
                    fetch + 1 + BRANCH_PENALTY
                }
                Instr::Jalr { rd, rs } => {
                    let target = reg_get(&regs, rs);
                    if target > len {
                        // BadTarget retires rd and the stats before
                        // faulting; only the interpreter replays that
                        // partial effect exactly.
                        side_exit = true;
                        break;
                    }
                    let fetch = fetch_charge(host, &mut stats, base, words);
                    reg_set(&mut regs, rd, next);
                    entry = true;
                    next = target;
                    stats.branches += 1;
                    stats.branches_taken += 1;
                    fetch + 1 + BRANCH_PENALTY
                }
                Instr::Branch { .. }
                | Instr::Jal { .. }
                | Instr::Halt
                | Instr::Send { .. }
                | Instr::Recv { .. } => {
                    side_exit = true;
                    break;
                }
            };
            stats.instructions += 1;
            stats.cycles += u64::from(cycles);
            executed += 1;
            pc = next;
            // The tick loop spaces instructions by max(cycles - 1, 1)
            // (busy_until lands on cycle + cycles - 1, and the next
            // tick is at least one cycle later).
            t += u64::from((cycles.max(1) - 1).max(1));
        }
        arch.regs = regs;
        arch.pc = pc;
        arch.stats = stats;
        LaneRun {
            next_start: t,
            side_exit,
            executed,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{CoreState, CpuError, Platform, StepOutcome};
    use stitch_isa::{Cond, Program, ProgramBuilder};
    use stitch_patch::PatchOutput;

    /// Flat memory + unit-latency fetch host, usable both as the
    /// interpreter `Platform` and as a window `LaneHost`, so a test can
    /// drive the same program through both engines. Its customs compute
    /// `out0 = in0 + in1` and `out1 = in0 ^ in1`.
    #[derive(Clone)]
    pub(crate) struct FlatHost {
        pub(crate) mem: Vec<u8>,
        /// Every fetched byte address, in order.
        pub(crate) fetched: Vec<u32>,
    }

    impl FlatHost {
        pub(crate) fn new() -> Self {
            FlatHost {
                mem: vec![0; 0x10000],
                fetched: Vec::new(),
            }
        }

        fn rd(&self, addr: u32, w: Width) -> u32 {
            let a = addr as usize % self.mem.len();
            match w {
                Width::Byte => u32::from(self.mem[a]),
                Width::Half => u32::from(u16::from_le_bytes([self.mem[a], self.mem[a + 1]])),
                Width::Word => u32::from_le_bytes([
                    self.mem[a],
                    self.mem[a + 1],
                    self.mem[a + 2],
                    self.mem[a + 3],
                ]),
            }
        }

        fn wr(&mut self, addr: u32, value: u32, w: Width) {
            let a = addr as usize % self.mem.len();
            match w {
                Width::Byte => self.mem[a] = value as u8,
                Width::Half => self.mem[a..a + 2].copy_from_slice(&(value as u16).to_le_bytes()),
                Width::Word => self.mem[a..a + 4].copy_from_slice(&value.to_le_bytes()),
            }
        }
    }

    impl Platform for FlatHost {
        fn fetch(&mut self, byte_addr: u32) -> u32 {
            self.fetched.push(byte_addr);
            1
        }
        fn load(&mut self, addr: u32, w: Width) -> (u32, u32) {
            (self.rd(addr, w), 1)
        }
        fn store(&mut self, addr: u32, value: u32, w: Width) -> u32 {
            self.wr(addr, value, w);
            1
        }
        fn exec_custom(
            &mut self,
            _ci: CiId,
            inputs: [u32; 4],
        ) -> Result<CustomOutcome, crate::CpuError> {
            Ok(CustomOutcome::healthy(
                PatchOutput {
                    out0: inputs[0].wrapping_add(inputs[1]),
                    out1: inputs[0] ^ inputs[1],
                },
                false,
            ))
        }
        fn send(&mut self, _dst: u32, _addr: u32, _len: u32) -> Result<(), CpuError> {
            Ok(())
        }
        fn try_recv(
            &mut self,
            _src: u32,
            _addr: u32,
            _len: u32,
        ) -> Result<Option<u32>, crate::CpuError> {
            Ok(None)
        }
    }

    impl LaneHost for FlatHost {
        fn fetch(&mut self, byte_addr: u32) -> u32 {
            self.fetched.push(byte_addr);
            1
        }
        fn load(&mut self, addr: u32, w: Width) -> (u32, u32) {
            (self.rd(addr, w), 1)
        }
        fn store(&mut self, addr: u32, value: u32, w: Width) -> u32 {
            self.wr(addr, value, w);
            1
        }
        fn store_side_exits(&self, addr: u32) -> bool {
            stitch_isa::memmap::is_xbar_cfg(addr)
        }
        type Custom = CiId;
        fn prepare_custom(&mut self, ci: CiId, _t: u64) -> Option<CiId> {
            Some(ci)
        }
        fn exec_custom(&mut self, ci: CiId, inputs: [u32; 4]) -> CustomOutcome {
            Platform::exec_custom(self, ci, inputs).expect("flat host customs are infallible")
        }
    }

    fn loop_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, iters);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 0x4000);
        let top = b.bound_label();
        b.addi(Reg::R2, Reg::R2, 3);
        b.mul(Reg::R4, Reg::R2, Reg::R2);
        b.sw(Reg::R4, Reg::R3, 0);
        b.lw(Reg::R5, Reg::R3, 0);
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(Cond::Ne, Reg::R1, Reg::R0, top);
        b.halt();
        b.build().expect("program")
    }

    /// Steps the interpreter through the whole program, reproducing the
    /// chip tick's busy-until spacing, and returns the final clock.
    fn interpret(core: &mut Core, host: &mut FlatHost, start: u64) -> u64 {
        let mut t = start;
        loop {
            match core.step(host).expect("step") {
                StepOutcome::Retired { cycles } => {
                    if core.state() == CoreState::Halted {
                        return t;
                    }
                    t += u64::from((cycles.max(1) - 1).max(1));
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn window_matches_interpreter_exactly() {
        let program = loop_program(50);
        let mut ref_core = Core::new(&program);
        let mut ref_host = FlatHost::new();
        let halt_start = interpret(&mut ref_core, &mut ref_host, 1);

        let mut core = Core::new(&program);
        let mut host = FlatHost::new();
        let mut cache = TransCache::new();
        let run = core.run_translated(
            &mut cache,
            &mut host,
            WindowParams {
                start: 1,
                horizon: u64::MAX,
            },
        );
        // The window stops at the halt, which the interpreter then
        // retires at exactly the reference clock.
        assert!(run.side_exit);
        assert_eq!(run.next_start, halt_start);
        // Everything except the halt retired inside the window.
        assert_eq!(run.executed + 1, ref_core.stats().instructions);
        // Architectural state matches the reference just before halt.
        for r in 0..32u8 {
            let r = Reg::from_index(r).expect("reg");
            assert_eq!(core.reg(r), ref_core.reg(r), "register {r:?}");
        }
        assert_eq!(host.fetched.len() + 1, ref_host.fetched.len());
        assert_eq!(host.mem, ref_host.mem);
        // Stats match except the halt's own retire (1 instruction, 1
        // cycle on this unit-latency host).
        let s = core.stats();
        let q = ref_core.stats();
        assert_eq!(s.instructions + 1, q.instructions);
        assert_eq!(s.cycles + 1, q.cycles);
        assert_eq!(s.alu_ops, q.alu_ops);
        assert_eq!(s.mul_ops, q.mul_ops);
        assert_eq!(s.mem_ops, q.mem_ops);
        assert_eq!(s.branches, q.branches);
        assert_eq!(s.branches_taken, q.branches_taken);
        assert_eq!(s.fetch_stall_cycles, q.fetch_stall_cycles);
    }

    #[test]
    fn window_respects_horizon_and_resumes() {
        let program = loop_program(50);
        let mut ref_core = Core::new(&program);
        let mut ref_host = FlatHost::new();
        let halt_start = interpret(&mut ref_core, &mut ref_host, 1);

        let mut core = Core::new(&program);
        let mut host = FlatHost::new();
        let mut cache = TransCache::new();
        // Run in many small windows; the clock must be preserved across
        // horizon stops.
        let mut t = 1u64;
        let mut windows = 0u64;
        loop {
            let run = core.run_translated(
                &mut cache,
                &mut host,
                WindowParams {
                    start: t,
                    horizon: t + 7,
                },
            );
            t = run.next_start;
            windows += 1;
            if run.side_exit {
                break;
            }
        }
        assert_eq!(t, halt_start, "clock diverged across {windows} windows");
        assert_eq!(host.mem, ref_host.mem);
        assert!(cache.hits > cache.translated, "loop re-enters cached block");
    }

    #[test]
    fn bank_keeps_lanes_disjoint_and_r0_zero() {
        // A window that targets r0 must leave it zero, and running one
        // core's window must leave every other core's registers alone.
        let mut b = ProgramBuilder::new();
        b.addi(Reg::R0, Reg::R0, 123);
        b.li(Reg::R5, 77);
        b.add(Reg::R6, Reg::R5, Reg::R0);
        b.halt();
        let program = b.build().expect("program");
        let mut core = Core::new(&program);
        let mut other = Core::new(&program);
        other.set_reg(Reg::R5, 88);
        let before = other.snapshot();
        let mut host = FlatHost::new();
        let run = core.run_translated(
            &mut TransCache::new(),
            &mut host,
            WindowParams {
                start: 1,
                horizon: u64::MAX,
            },
        );
        assert!(run.side_exit, "stops at the halt");
        assert_eq!(core.arch.regs[0], 0, "r0 stays zero in the register file");
        assert_eq!(core.reg(Reg::R5), 77);
        assert_eq!(core.reg(Reg::R6), 77);
        assert_eq!(other.snapshot(), before);
    }

    #[test]
    fn cache_invalidation_drops_blocks_but_keeps_counters() {
        let program = loop_program(3);
        let mut cache = TransCache::new();
        let whole = WindowParams {
            start: 1,
            horizon: u64::MAX,
        };
        // One window enters at pc 0, jumps back to the loop head (pc 3)
        // twice, and falls through to the halt (pc 9) once.
        Core::new(&program).run_translated(&mut cache, &mut FlatHost::new(), whole);
        assert_eq!(cache.covered_entries().collect::<Vec<_>>(), [0, 3, 9]);
        assert_eq!((cache.translated, cache.hits), (3, 1));
        Core::new(&program).run_translated(&mut cache, &mut FlatHost::new(), whole);
        assert_eq!((cache.translated, cache.hits), (3, 5));
        cache.invalidate();
        assert!(cache.entered.is_empty());
        assert_eq!(cache.covered_entries().count(), 0);
        Core::new(&program).run_translated(&mut cache, &mut FlatHost::new(), whole);
        assert_eq!(cache.translated, 6, "entries re-counted after invalidation");
    }
}
