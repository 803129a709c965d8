//! Per-instruction dispatch tests of the window engine.
//!
//! A *uop* is one instruction retired inside a compute window
//! (`TranslationStats::uops_executed` in the simulator counts them).
//! These tests pin what the window decides per instruction — what it
//! retires, where it side-exits, what it fetches — against the
//! interpreter: every program runs to its end once through windows
//! (the interpreter executing each side exit, as the chip does) and
//! once through [`Core::step`] alone, and both must agree on the
//! outcome, the clock, the architectural state, memory and the fetch
//! trace.

#[cfg(test)]
mod tests {
    use crate::core::TEXT_BASE;
    use crate::translate::tests::FlatHost;
    use crate::{Core, CoreState, CpuError, StepOutcome, TransCache, WindowParams};
    use stitch_isa::{Cond, Instr, Program, ProgramBuilder, Reg};

    /// How one engine finished: the halt's start cycle, or the fault the
    /// interpreter raised.
    type Outcome = Result<u64, CpuError>;

    /// Drives `core` from cycle 1 to its halt or first fault with the
    /// chip tick's spacing. With a cache, unbounded windows retire what
    /// they can and the interpreter executes each side exit; without
    /// one the interpreter runs everything (the reference). Returns the
    /// outcome and the instructions windows retired.
    fn drive(
        core: &mut Core,
        host: &mut FlatHost,
        mut cache: Option<&mut TransCache>,
    ) -> (Outcome, u64) {
        let mut t = 1;
        let mut windowed = 0;
        loop {
            if let Some(cache) = cache.as_deref_mut() {
                let whole = WindowParams {
                    start: t,
                    horizon: u64::MAX,
                };
                let run = core.run_translated(cache, host, whole);
                assert!(
                    run.side_exit,
                    "an unbounded window stops only at a side exit"
                );
                t = run.next_start;
                windowed += run.executed;
            }
            match core.step(host) {
                Ok(StepOutcome::Retired { cycles }) => {
                    if core.state() == CoreState::Halted {
                        return (Ok(t), windowed);
                    }
                    t += u64::from((cycles.max(1) - 1).max(1));
                }
                Ok(other) => panic!("unexpected outcome {other:?}"),
                Err(e) => return (Err(e), windowed),
            }
        }
    }

    /// Runs `program` from `pc` through windows and through the
    /// interpreter alone and asserts they agree on everything. Returns
    /// the windowed run's outcome, core, host, cache and window-retired
    /// instruction count.
    fn matches_interpreter(
        program: &Program,
        pc: u32,
    ) -> (Outcome, Core, FlatHost, TransCache, u64) {
        let start = |core: &mut Core| {
            let mut s = core.snapshot();
            s.pc = pc;
            core.restore(&s);
        };
        let mut ref_core = Core::new(program);
        start(&mut ref_core);
        let mut ref_host = FlatHost::new();
        let (want, _) = drive(&mut ref_core, &mut ref_host, None);

        let mut core = Core::new(program);
        start(&mut core);
        let mut host = FlatHost::new();
        let mut cache = TransCache::new();
        let (got, windowed) = drive(&mut core, &mut host, Some(&mut cache));
        assert_eq!(got, want, "outcome from pc {pc}");
        assert_eq!(core.snapshot(), ref_core.snapshot(), "state from pc {pc}");
        assert_eq!(host.mem, ref_host.mem, "memory from pc {pc}");
        assert_eq!(host.fetched, ref_host.fetched, "fetch trace from pc {pc}");
        (got, core, host, cache, windowed)
    }

    #[test]
    fn straight_line_block_lowers_one_to_one() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 5);
        b.addi(Reg::R2, Reg::R1, 3);
        b.sw(Reg::R2, Reg::R1, 0);
        b.halt();
        let p = b.build().expect("program");
        let (out, core, host, _, windowed) = matches_interpreter(&p, 0);
        assert!(out.is_ok());
        assert_eq!(windowed, 3, "everything but the halt retires in the window");
        assert_eq!(core.reg(Reg::R2), 8);
        // One single-word fetch per instruction, in text order.
        let want: Vec<u32> = (0..4).map(|i| TEXT_BASE + 4 * i).collect();
        assert_eq!(host.fetched, want);
    }

    #[test]
    fn branch_terminates_block_with_resolved_targets() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 10);
        let top = b.bound_label();
        b.addi(Reg::R1, Reg::R1, -1);
        b.branch(Cond::Ne, Reg::R1, Reg::R0, top);
        b.halt();
        let p = b.build().expect("program");
        let (out, core, _, cache, windowed) = matches_interpreter(&p, 0);
        assert!(out.is_ok());
        assert_eq!(windowed, 21, "li + ten loop trips");
        assert_eq!(core.reg(Reg::R1), 0);
        assert_eq!(
            (core.stats().branches, core.stats().branches_taken),
            (10, 9)
        );
        // The taken branches land on the loop head; the last falls
        // through to the halt.
        assert_eq!(cache.covered_entries().collect::<Vec<_>>(), [0, 1, 3]);
    }

    #[test]
    fn mid_block_entry_is_legal() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        b.li(Reg::R2, 2);
        b.li(Reg::R3, 3);
        b.halt();
        let p = b.build().expect("program");
        for pc in 0..p.instrs.len() as u32 {
            let (out, _, _, cache, windowed) = matches_interpreter(&p, pc);
            assert!(out.is_ok());
            assert_eq!(windowed, 3 - u64::from(pc), "pc {pc}");
            assert_eq!(cache.covered_entries().next(), Some(pc), "pc {pc}");
        }
    }

    #[test]
    fn out_of_range_static_target_lowers_to_side_exit() {
        // A branch past the text side-exits before its fetch whether or
        // not it is taken; the interpreter then faults on the taken one
        // and falls through the untaken one.
        for (cond, want) in [
            (Cond::Eq, Err(CpuError::BadTarget { target: 99 })),
            (Cond::Ne, Ok(2)),
        ] {
            let p = Program {
                instrs: vec![
                    Instr::Branch {
                        cond,
                        rs1: Reg::R0,
                        rs2: Reg::R0,
                        target: 99,
                    },
                    Instr::Halt,
                ],
                ..Program::default()
            };
            let mut core = Core::new(&p);
            let mut host = FlatHost::new();
            let whole = WindowParams {
                start: 1,
                horizon: u64::MAX,
            };
            let run = core.run_translated(&mut TransCache::new(), &mut host, whole);
            assert!(run.side_exit && run.executed == 0 && run.next_start == 1);
            assert!(host.fetched.is_empty(), "side exit before the I-fetch");
            let (out, _, _, _, windowed) = matches_interpreter(&p, 0);
            assert_eq!((out, windowed), (want, 0), "{cond:?}");
        }
        // `target == len` is legal: the jal retires in the window and
        // the interpreter faults on the pc past the text.
        let p = Program {
            instrs: vec![Instr::Jal {
                rd: Reg::R0,
                target: 1,
            }],
            ..Program::default()
        };
        let (out, _, _, _, windowed) = matches_interpreter(&p, 0);
        assert_eq!((out, windowed), (Err(CpuError::PcOutOfRange { pc: 1 }), 1));
    }

    #[test]
    fn custom_lowering_preserves_operand_plumbing() {
        use stitch_isa::custom::{CiDescriptor, CiId, CiStage, PatchClass};
        let mut b = ProgramBuilder::new();
        let id = b.define_ci(CiDescriptor::single(
            CiId(0),
            "t",
            CiStage::new(PatchClass::AtMa, 0),
        ));
        b.li(Reg::R1, 20);
        b.li(Reg::R2, 22);
        b.custom(id, &[Reg::R1, Reg::R2], &[Reg::R3, Reg::R4])
            .expect("custom");
        b.halt();
        let p = b.build().expect("program");
        let (out, core, host, _, windowed) = matches_interpreter(&p, 0);
        assert!(out.is_ok());
        assert_eq!(windowed, 3, "the custom retires in the window");
        assert_eq!(core.stats().custom_ops, 1);
        // Inputs read slots r1, r2 (unused slots read r0); both outputs
        // land in order.
        assert_eq!((core.reg(Reg::R3), core.reg(Reg::R4)), (42, 20 ^ 22));
        // The custom fetches two words; the halt follows them.
        let want: Vec<u32> = (0..5).map(|i| TEXT_BASE + 4 * i).collect();
        assert_eq!(host.fetched, want);
    }
}
