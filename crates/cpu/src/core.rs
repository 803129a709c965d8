//! The in-order, single-issue core.

use crate::{CoreStats, CpuError, BRANCH_PENALTY, MUL_LATENCY};
use stitch_isa::custom::CiId;
use stitch_isa::instr::{Instr, Operand, Width};
use stitch_isa::op::OpClass;
use stitch_isa::program::Program;
use stitch_isa::reg::Reg;
use stitch_patch::PatchOutput;

/// Base byte address of a tile's program text (instruction fetch space).
pub const TEXT_BASE: u32 = 0x0100_0000;

/// Result of executing one custom instruction on the platform.
///
/// A healthy patch retires in one cycle ([`CustomOutcome::healthy`]); a
/// faulted one may demote to the equivalent W32 software sequence, which
/// produces the same values at a higher cycle cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomOutcome {
    /// The two architectural results.
    pub out: PatchOutput,
    /// True when the CI genuinely executed as a fused pair of patches.
    pub fused: bool,
    /// Execute-stage cycles charged for the instruction (≥ 1).
    pub cycles: u32,
    /// True when the binding was demoted to the software fallback.
    pub demoted: bool,
}

impl CustomOutcome {
    /// The fault-free outcome: single-cycle execution on the patch.
    #[must_use]
    pub fn healthy(out: PatchOutput, fused: bool) -> Self {
        CustomOutcome {
            out,
            fused,
            cycles: 1,
            demoted: false,
        }
    }
}

/// Services the chip provides to a core: memory, patches, and the NIC.
pub trait Platform {
    /// Latency (cycles) of fetching the instruction word at `byte_addr`.
    fn fetch(&mut self, byte_addr: u32) -> u32;

    /// Data load; returns `(value, latency)`.
    fn load(&mut self, addr: u32, w: Width) -> (u32, u32);

    /// Data store; returns latency.
    fn store(&mut self, addr: u32, value: u32, w: Width) -> u32;

    /// Executes custom instruction `ci` with the four operand words.
    ///
    /// Returns the patch outputs, the cycle charge, and whether the
    /// binding executed fused or demoted (see [`CustomOutcome`]).
    ///
    /// # Errors
    ///
    /// [`CpuError::UnboundCustom`] when the stitcher allocated no patch;
    /// [`CpuError::PatchFaulted`] when a fault plan in strict mode hits a
    /// dead patch or severed fused circuit.
    fn exec_custom(&mut self, ci: CiId, inputs: [u32; 4]) -> Result<CustomOutcome, CpuError>;

    /// Sends `len` words starting at local address `addr` to tile `dst`
    /// (NIC DMA; the platform reads the words functionally).
    ///
    /// # Errors
    ///
    /// [`CpuError::BadSendTarget`] when `dst` names a tile that does not
    /// exist on the platform (an unchecked flit would wedge the mesh).
    fn send(&mut self, dst: u32, addr: u32, len: u32) -> Result<(), CpuError>;

    /// Attempts to receive a message from tile `src`; on success the
    /// platform writes it to `addr` and returns its word count.
    ///
    /// # Errors
    ///
    /// [`CpuError::MessageLengthMismatch`] when the arrived message does
    /// not have `len` words.
    fn try_recv(&mut self, src: u32, addr: u32, len: u32) -> Result<Option<u32>, CpuError>;
}

/// Execution state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Fetch/execute proceeding.
    Running,
    /// `halt` retired; the core is finished.
    Halted,
}

/// Result of stepping the core by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired, consuming this many cycles.
    Retired {
        /// Cycles consumed, including stalls.
        cycles: u32,
    },
    /// A `recv` found no message; one polling cycle was consumed.
    WaitingRecv {
        /// The tile being waited on.
        src: u32,
    },
    /// The core halted (no cycles consumed).
    Halted,
}

/// Immutable program image held by a core: decoded instruction text plus
/// the word-offset table used for I-cache addressing.
///
/// Kept separate from the mutable [`ArchState`] so that `step` can borrow
/// the current instruction from the text while updating registers and
/// statistics — the hot loop never clones an [`Instr`].
#[derive(Debug, Clone)]
pub(crate) struct TextImage {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) word_offsets: Vec<u32>,
}

/// Mutable architectural state: registers, PC, run state, counters —
/// everything `step` mutates, and so also the core's snapshot
/// ([`CoreSnapshot`]).
///
/// The program text is *not* part of it — a snapshot restores into a
/// core running the same program (the chip validates program identity
/// before restoring). Statistics are included because the simulator's
/// `RunSummary` equivalence contract extends to every counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Architectural register file.
    pub regs: [u32; 32],
    /// Program counter (instruction index).
    pub pc: u32,
    /// Run state.
    pub state: CoreState,
    /// Counters accumulated so far.
    pub stats: CoreStats,
}

/// Architectural snapshot of one core: its [`ArchState`] itself.
pub use self::ArchState as CoreSnapshot;

impl ArchState {
    /// Reads a register (the zero register reads zero).
    fn reg(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    /// Writes a register (writes to the zero register are discarded).
    fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    fn jump_to(&mut self, target: u32, text_len: usize) -> Result<(), CpuError> {
        if target as usize > text_len {
            return Err(CpuError::BadTarget { target });
        }
        self.pc = target;
        Ok(())
    }
}

/// One W32 core: architectural registers, PC and statistics.
///
/// The core holds its decoded program (instruction text plus the
/// word-offset table used for I-cache addressing); data memory, patches
/// and the NIC live behind the [`Platform`] trait.
#[derive(Debug, Clone)]
pub struct Core {
    pub(crate) text: TextImage,
    pub(crate) arch: ArchState,
}

impl Core {
    /// Creates a core at `pc = 0` over a program.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let mut word_offsets = Vec::with_capacity(program.instrs.len());
        let mut off = 0;
        for i in &program.instrs {
            word_offsets.push(off);
            off += i.words();
        }
        Core {
            text: TextImage {
                instrs: program.instrs.clone(),
                word_offsets,
            },
            arch: ArchState {
                regs: [0; 32],
                pc: 0,
                state: CoreState::Running,
                stats: CoreStats::default(),
            },
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> CoreState {
        self.arch.state
    }

    /// Current program counter (instruction index).
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.arch.pc
    }

    /// Reads a register (the zero register reads zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.arch.reg(r)
    }

    /// Writes a register (writes to the zero register are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.arch.set_reg(r, value);
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.arch.stats
    }

    /// Restarts the core (registers, pc, state; statistics are kept).
    pub fn reset(&mut self) {
        self.arch.regs = [0; 32];
        self.arch.pc = 0;
        self.arch.state = CoreState::Running;
    }

    /// Captures the core's full architectural state.
    #[must_use]
    pub fn snapshot(&self) -> CoreSnapshot {
        self.arch.clone()
    }

    /// Restores a previously captured snapshot. The program text is left
    /// untouched and the pc is not checked against it: a pc past the
    /// text faults with a typed [`CpuError::PcOutOfRange`] on the next
    /// [`Core::step`], but a caller that treats the core as parked in
    /// `recv` must first check [`Core::recv_at`] (`Chip::restore` does).
    pub fn restore(&mut self, snap: &CoreSnapshot) {
        self.arch.clone_from(snap);
    }

    /// Number of instructions in the loaded program text (used by the
    /// chip to validate that a snapshot matches the loaded workload).
    #[must_use]
    pub fn text_len(&self) -> usize {
        self.text.instrs.len()
    }

    /// True when instruction `pc` of the text is a `recv` — the only
    /// instruction a core can wait on.
    #[must_use]
    pub fn recv_at(&self, pc: u32) -> bool {
        matches!(self.text.instrs.get(pc as usize), Some(Instr::Recv { .. }))
    }

    /// Byte address and word count of the instruction the core is parked
    /// on. Used by the simulator's fast path to batch the instruction
    /// re-fetches of a polling `recv`.
    #[must_use]
    pub fn poll_footprint(&self) -> (u32, u32) {
        let pc = self.arch.pc as usize;
        let instr = &self.text.instrs[pc];
        debug_assert!(
            self.recv_at(self.arch.pc),
            "poll footprint of a non-recv instruction"
        );
        (TEXT_BASE + self.text.word_offsets[pc] * 4, instr.words())
    }

    /// Accounts `polls` skipped failed `recv` polls: each would have
    /// burned one core cycle and one recv-wait cycle. The caller accounts
    /// the matching instruction re-fetches on the tile memory separately.
    pub fn record_skipped_polls(&mut self, polls: u64) {
        self.arch.stats.recv_wait_cycles += polls;
        self.arch.stats.cycles += polls;
    }

    /// Executes one instruction against `platform`.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`] on malformed control flow, unbound custom
    /// instructions, or message length mismatches.
    pub fn step<P: Platform>(&mut self, platform: &mut P) -> Result<StepOutcome, CpuError> {
        // Split-borrow: `instr` borrows the immutable text image while the
        // body mutates `cpu` — no per-step clone of the instruction.
        let text = &self.text;
        let cpu = &mut self.arch;
        if cpu.state == CoreState::Halted {
            return Ok(StepOutcome::Halted);
        }
        let Some(instr) = text.instrs.get(cpu.pc as usize) else {
            return Err(CpuError::PcOutOfRange { pc: cpu.pc });
        };

        // Fetch (all words of the instruction).
        let base = TEXT_BASE + text.word_offsets[cpu.pc as usize] * 4;
        let mut cycles = 0u32;
        for w in 0..instr.words() {
            let lat = platform.fetch(base + w * 4);
            cycles += lat;
            cpu.stats.fetch_stall_cycles += u64::from(lat.saturating_sub(1));
        }
        // The fetch pipeline overlaps with execute: only *stall* cycles
        // (I-cache misses) add latency. The base execute cycle per
        // instruction class is added below. Both words of a custom
        // instruction are fetched in one front-end cycle (the paper counts
        // custom instructions as single-cycle, Fig 4), so per-word hit
        // cycles are removed here and only miss stalls remain.
        cycles = cycles.saturating_sub(instr.words());

        let mut next_pc = cpu.pc + 1;
        match instr {
            Instr::Nop => cycles += 1,
            Instr::Halt => {
                cpu.state = CoreState::Halted;
                cpu.stats.instructions += 1;
                cpu.stats.cycles += u64::from(cycles + 1);
                return Ok(StepOutcome::Retired { cycles: cycles + 1 });
            }
            Instr::Alu { op, rd, rs1, src2 } => {
                let a = cpu.reg(*rs1);
                let b = match src2 {
                    Operand::Reg(r) => cpu.reg(*r),
                    Operand::Imm(v) => *v as u32,
                };
                cpu.set_reg(*rd, op.eval(a, b));
                match op.class() {
                    OpClass::M => {
                        cycles += MUL_LATENCY;
                        cpu.stats.mul_ops += 1;
                    }
                    _ => {
                        cycles += 1;
                        cpu.stats.alu_ops += 1;
                    }
                }
            }
            Instr::Lui { rd, imm } => {
                cpu.set_reg(*rd, imm << 12);
                cycles += 1;
                cpu.stats.alu_ops += 1;
            }
            Instr::Load {
                w,
                rd,
                base,
                offset,
            } => {
                let addr = cpu.reg(*base).wrapping_add_signed(*offset);
                let (value, lat) = platform.load(addr, *w);
                cpu.set_reg(*rd, value);
                cycles += lat;
                cpu.stats.mem_ops += 1;
                cpu.stats.mem_stall_cycles += u64::from(lat.saturating_sub(1));
            }
            Instr::Store {
                w,
                rs,
                base,
                offset,
            } => {
                let addr = cpu.reg(*base).wrapping_add_signed(*offset);
                let lat = platform.store(addr, cpu.reg(*rs), *w);
                cycles += lat;
                cpu.stats.mem_ops += 1;
                cpu.stats.mem_stall_cycles += u64::from(lat.saturating_sub(1));
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                cycles += 1;
                cpu.stats.branches += 1;
                if cond.eval(cpu.reg(*rs1), cpu.reg(*rs2)) {
                    cpu.stats.branches_taken += 1;
                    cycles += BRANCH_PENALTY;
                    next_pc = *target;
                }
            }
            Instr::Jal { rd, target } => {
                cpu.set_reg(*rd, cpu.pc + 1);
                cycles += 1 + BRANCH_PENALTY;
                cpu.stats.branches += 1;
                cpu.stats.branches_taken += 1;
                next_pc = *target;
            }
            Instr::Jalr { rd, rs } => {
                let target = cpu.reg(*rs);
                cpu.set_reg(*rd, cpu.pc + 1);
                cycles += 1 + BRANCH_PENALTY;
                cpu.stats.branches += 1;
                cpu.stats.branches_taken += 1;
                next_pc = target;
            }
            Instr::Custom(ci) => {
                let slots = ci.input_slots();
                let inputs = [
                    cpu.reg(slots[0]),
                    cpu.reg(slots[1]),
                    cpu.reg(slots[2]),
                    cpu.reg(slots[3]),
                ];
                let o = platform.exec_custom(ci.ci, inputs)?;
                let outs = ci.outputs();
                if let Some(r0) = outs.first() {
                    cpu.set_reg(*r0, o.out.out0);
                }
                if let Some(r1) = outs.get(1) {
                    cpu.set_reg(*r1, o.out.out1);
                }
                // Single-cycle execution on a healthy patch (the paper's
                // headline); a demoted CI charges its software-sequence
                // cost instead.
                cycles += o.cycles.max(1);
                cpu.stats.custom_ops += 1;
                if o.fused {
                    cpu.stats.fused_ops += 1;
                }
                if o.demoted {
                    cpu.stats.demoted_ops += 1;
                }
            }
            Instr::Send { dst, addr, len } => {
                let n = cpu.reg(*len);
                platform.send(cpu.reg(*dst), cpu.reg(*addr), n)?;
                cycles += 1 + n;
                cpu.stats.words_sent += u64::from(n);
            }
            Instr::Recv { src, addr, len } => {
                let src_tile = cpu.reg(*src);
                let n = cpu.reg(*len);
                match platform.try_recv(src_tile, cpu.reg(*addr), n)? {
                    Some(words) => {
                        cycles += 1 + words;
                        cpu.stats.words_received += u64::from(words);
                    }
                    None => {
                        cpu.stats.recv_wait_cycles += 1;
                        cpu.stats.cycles += 1;
                        return Ok(StepOutcome::WaitingRecv { src: src_tile });
                    }
                }
            }
        }

        cpu.stats.instructions += 1;
        cpu.stats.cycles += u64::from(cycles);
        cpu.jump_to(next_pc, text.instrs.len())?;
        Ok(StepOutcome::Retired { cycles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use stitch_isa::program::ProgramBuilder;

    /// Minimal platform: flat memory, perfect caches, no patches/NIC.
    #[derive(Default)]
    struct TestPlatform {
        mem: HashMap<u32, u32>,
        inbox: Vec<(u32, Vec<u32>)>,
        sent: Vec<(u32, u32, u32)>,
    }

    impl Platform for TestPlatform {
        fn fetch(&mut self, _addr: u32) -> u32 {
            1
        }
        fn load(&mut self, addr: u32, _w: Width) -> (u32, u32) {
            (self.mem.get(&(addr & !3)).copied().unwrap_or(0), 1)
        }
        fn store(&mut self, addr: u32, value: u32, _w: Width) -> u32 {
            self.mem.insert(addr & !3, value);
            1
        }
        fn exec_custom(&mut self, _ci: CiId, inputs: [u32; 4]) -> Result<CustomOutcome, CpuError> {
            Ok(CustomOutcome::healthy(
                PatchOutput {
                    out0: inputs[0].wrapping_add(inputs[1]),
                    out1: inputs[0],
                },
                false,
            ))
        }
        fn send(&mut self, dst: u32, addr: u32, len: u32) -> Result<(), CpuError> {
            self.sent.push((dst, addr, len));
            Ok(())
        }
        fn try_recv(&mut self, src: u32, _addr: u32, len: u32) -> Result<Option<u32>, CpuError> {
            if let Some(pos) = self.inbox.iter().position(|(s, _)| *s == src) {
                let (_, words) = self.inbox.remove(pos);
                if words.len() as u32 != len {
                    return Err(CpuError::MessageLengthMismatch {
                        expected: len,
                        got: words.len() as u32,
                    });
                }
                Ok(Some(len))
            } else {
                Ok(None)
            }
        }
    }

    fn run(p: &Program) -> (Core, TestPlatform) {
        let mut core = Core::new(p);
        let mut plat = TestPlatform::default();
        for _ in 0..100_000 {
            match core.step(&mut plat).unwrap() {
                StepOutcome::Halted => break,
                StepOutcome::WaitingRecv { .. } => panic!("unexpected wait"),
                StepOutcome::Retired { .. } => {}
            }
        }
        (core, plat)
    }

    #[test]
    fn arithmetic_loop() {
        // sum 1..=10
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 10);
        b.li(Reg::R2, 0);
        let top = b.bound_label();
        b.add(Reg::R2, Reg::R2, Reg::R1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(stitch_isa::Cond::Ne, Reg::R1, Reg::R0, top);
        b.halt();
        let (core, _) = run(&b.build().unwrap());
        assert_eq!(core.reg(Reg::R2), 55);
        assert_eq!(core.stats().branches, 10);
        assert_eq!(core.stats().branches_taken, 9);
    }

    #[test]
    fn memory_round_trip() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x1000);
        b.li(Reg::R2, 1234);
        b.sw(Reg::R2, Reg::R1, 8);
        b.lw(Reg::R3, Reg::R1, 8);
        b.halt();
        let (core, _) = run(&b.build().unwrap());
        assert_eq!(core.reg(Reg::R3), 1234);
        assert_eq!(core.stats().mem_ops, 2);
    }

    #[test]
    fn mul_costs_more() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 6);
        b.mul(Reg::R2, Reg::R1, Reg::R1);
        b.halt();
        let (core, _) = run(&b.build().unwrap());
        assert_eq!(core.reg(Reg::R2), 36);
        assert_eq!(core.stats().mul_ops, 1);
        // li(1) + mul(MUL_LATENCY) + halt(1)
        assert_eq!(core.stats().cycles, 1 + u64::from(MUL_LATENCY) + 1);
    }

    #[test]
    fn taken_branch_penalty() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.jump(skip); // taken: 1 + BRANCH_PENALTY
        b.nop();
        b.bind(skip).unwrap();
        b.halt();
        let (core, _) = run(&b.build().unwrap());
        assert_eq!(core.stats().cycles, u64::from(1 + BRANCH_PENALTY) + 1);
        assert_eq!(core.stats().instructions, 2, "nop is skipped");
    }

    #[test]
    fn custom_instruction_single_cycle() {
        use stitch_isa::custom::{CiDescriptor, CiStage, PatchClass};
        let mut b = ProgramBuilder::new();
        let id = b.define_ci(CiDescriptor::single(
            CiId(0),
            "t",
            CiStage::new(PatchClass::AtMa, 0),
        ));
        b.li(Reg::R1, 20);
        b.li(Reg::R2, 22);
        b.custom(id, &[Reg::R1, Reg::R2], &[Reg::R3, Reg::R4])
            .unwrap();
        b.halt();
        let (core, _) = run(&b.build().unwrap());
        assert_eq!(core.reg(Reg::R3), 42, "out0 = a+b in test platform");
        assert_eq!(core.reg(Reg::R4), 20, "out1 = a");
        assert_eq!(core.stats().custom_ops, 1);
        // li + li + custom (single cycle) + halt
        assert_eq!(core.stats().cycles, 1 + 1 + 1 + 1);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        let func = b.label();
        b.li(Reg::R1, 1);
        b.call(func);
        b.halt();
        b.bind(func).unwrap();
        b.addi(Reg::R1, Reg::R1, 41);
        b.ret();
        let (core, _) = run(&b.build().unwrap());
        assert_eq!(core.reg(Reg::R1), 42);
    }

    #[test]
    fn send_and_recv() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 3); // peer tile
        b.li(Reg::R2, 0x100); // addr
        b.li(Reg::R3, 4); // len
        b.send(Reg::R1, Reg::R2, Reg::R3);
        b.recv(Reg::R1, Reg::R2, Reg::R3);
        b.halt();
        let p = b.build().unwrap();
        let mut core = Core::new(&p);
        let mut plat = TestPlatform::default();
        // Run until the recv blocks.
        let mut waited = false;
        for _ in 0..10 {
            match core.step(&mut plat).unwrap() {
                StepOutcome::WaitingRecv { src } => {
                    assert_eq!(src, 3);
                    waited = true;
                    break;
                }
                StepOutcome::Halted => panic!("halted before recv"),
                StepOutcome::Retired { .. } => {}
            }
        }
        assert!(waited);
        assert_eq!(plat.sent, vec![(3, 0x100, 4)]);
        // Deliver the message and resume.
        plat.inbox.push((3, vec![9, 9, 9, 9]));
        loop {
            if core.step(&mut plat).unwrap() == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(core.stats().words_received, 4);
        assert!(core.stats().recv_wait_cycles >= 1);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R0, 99);
        b.add(Reg::R1, Reg::R0, Reg::R0);
        b.halt();
        let (core, _) = run(&b.build().unwrap());
        assert_eq!(core.reg(Reg::R1), 0);
    }

    #[test]
    fn bad_jalr_target_is_error() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 4000);
        b.emit(Instr::Jalr {
            rd: Reg::R0,
            rs: Reg::R1,
        });
        b.halt();
        let p = b.build().unwrap();
        let mut core = Core::new(&p);
        let mut plat = TestPlatform::default();
        let err = loop {
            match core.step(&mut plat) {
                Ok(StepOutcome::Halted) => panic!("expected jalr error"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(err, CpuError::BadTarget { target: 4000 });
    }
}
