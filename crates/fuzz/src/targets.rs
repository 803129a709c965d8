//! The five fuzz targets.
//!
//! Each target is a pure function of a seed (plus, for the coverage-fed
//! differential target, the accumulated [`CoverageMap`]): it builds an
//! input, drives it through the hardened surface, and *returns a
//! classification string* instead of panicking. Any panic that escapes
//! a target is, by construction, a finding.
//!
//! | target | surface | oracle |
//! |---|---|---|
//! | `decode` | raw words → decode → verify → sim | typed errors, budgeted run |
//! | `differential` | mutated-but-verified programs | `run` == `run_reference` |
//! | `faults` | random pipelines × random `FaultPlan`s | translated `run` == untranslated `run` == `run_reference` |
//! | `snapshot` | truncated / bit-flipped snapshot blobs | typed `SnapshotError` |
//! | `json` | mutated JSON trace documents | typed parse error, depth cap |

use std::collections::HashMap;

use stitch_isa::{decode_program, encode_program, CiTable, Program};
use stitch_sim::{
    Chip, ChipConfig, ChipSnapshot, FaultPlan, FaultSpace, RunBudget, RunSummary, SimError, SimRng,
    TileId,
};
use stitch_trace::{JsonValue, JSON_MAX_DEPTH};
use stitch_verify::check_program;

use crate::coverage::CoverageMap;
use crate::gen;

/// The named fuzz targets, in the order the driver runs them.
pub const TARGETS: [Target; 5] = [
    Target::Decode,
    Target::Differential,
    Target::Faults,
    Target::Snapshot,
    Target::Json,
];

/// One fuzz target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Raw word images through decode → verify → budgeted sim.
    Decode,
    /// Mutated-but-verified programs, differential across both engines.
    Differential,
    /// Random fault plans over pipelines, differential across three engines.
    Faults,
    /// Truncated / corrupted snapshot blobs through the codec.
    Snapshot,
    /// Hostile JSON through the trace-viewer parser.
    Json,
}

impl Target {
    /// Stable lowercase name (CLI argument and corpus directory).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Target::Decode => "decode",
            Target::Differential => "differential",
            Target::Faults => "faults",
            Target::Snapshot => "snapshot",
            Target::Json => "json",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Target> {
        TARGETS.into_iter().find(|t| t.name() == s)
    }
}

/// The sandbox every fuzzed guest runs under: generous enough for any
/// generated workload, tight enough that a hostile mutant can neither
/// spin forever nor exhaust host memory. Identical caps on both
/// engines keep the differential oracle exact.
#[must_use]
pub fn sandbox_budget() -> RunBudget {
    RunBudget {
        cycles: Some(200_000),
        memory_pages: Some(4096),
        messages: Some(10_000),
        in_flight_messages: Some(1024),
        trace_events: None,
        snapshot_bytes: None,
    }
}

/// Wraps a bare instruction vector the way a host loader would: no
/// data segments, no CI descriptors, no symbols — exactly what decoding
/// an untrusted word image yields.
pub fn program_from_words(words: &[u32]) -> Result<Program, stitch_isa::IsaError> {
    Ok(Program {
        instrs: decode_program(words)?,
        data: Vec::new(),
        ci_table: CiTable::default(),
        symbols: HashMap::new(),
    })
}

fn classify(outcome: &Result<RunSummary, SimError>) -> &'static str {
    match outcome {
        Ok(_) => "sim-ok",
        Err(SimError::Timeout { .. }) => "sim-timeout",
        Err(SimError::Deadlock { .. }) => "sim-deadlock",
        Err(SimError::Faulted { .. }) => "sim-faulted",
        Err(SimError::BudgetExhausted { .. }) => "sim-budget",
        Err(SimError::Cpu { .. }) => "sim-cpu",
        Err(_) => "sim-err",
    }
}

/// The differential targets' budget: like [`sandbox_budget`] but with
/// no page cap, because a `memory_pages` cap switches the translated
/// engine off (windows execute stores inline, which would blur the
/// crossing cycle) and the coverage signal lives in the translator's
/// entry points. Allocation stays bounded regardless: a store resolves
/// at most one new page per cycle, so the cycle cap is also a page cap.
#[must_use]
pub fn differential_budget() -> RunBudget {
    RunBudget {
        memory_pages: None,
        ..sandbox_budget()
    }
}

/// Runs `programs` on a fresh chip under `budget` with the translated
/// engine.
fn budgeted_run(
    programs: &[(TileId, Program)],
    budget: RunBudget,
) -> (Chip, Result<RunSummary, SimError>) {
    let mut chip = Chip::new(ChipConfig::stitch_16());
    chip.set_budget(budget);
    for (tile, p) in programs {
        chip.load_program(*tile, p)
            .expect("generator tiles in range");
    }
    let r = chip.run(u64::MAX);
    (chip, r)
}

/// Same workload through the naive reference loop.
fn budgeted_reference(
    programs: &[(TileId, Program)],
    budget: RunBudget,
) -> Result<RunSummary, SimError> {
    let mut chip = Chip::new(ChipConfig::stitch_16());
    chip.set_budget(budget);
    for (tile, p) in programs {
        chip.load_program(*tile, p)
            .expect("generator tiles in range");
    }
    chip.run_reference(u64::MAX)
}

/// Replays a decode-target input: an arbitrary little-endian word
/// image through decode → verify → budgeted sim. Returns the
/// classification; never panics.
pub fn replay_decode(bytes: &[u8]) -> &'static str {
    let words = gen::bytes_to_words(bytes);
    let Ok(program) = program_from_words(&words) else {
        return "decode-err";
    };
    // The static verifier runs on everything that decodes; its verdict
    // is recorded but deliberately NOT a gate — the simulator itself
    // must survive unverified programs, since a hostile host can skip
    // the verifier entirely.
    let clean = check_program(&program).is_clean();
    let (_, outcome) = budgeted_run(&[(TileId(0), program)], sandbox_budget());
    if clean {
        classify(&outcome)
    } else if outcome.is_ok() {
        "unverified-sim-ok"
    } else {
        "unverified-sim-err"
    }
}

/// Decode target: random word soup half the time, a mutated valid
/// encoding the other half (mutants reach much deeper than noise).
pub fn run_decode(seed: u64) -> &'static str {
    let mut rng = SimRng::new(seed);
    let words = if rng.chance(1, 2) {
        let len = 1 + rng.index(64);
        rng.words(len)
    } else {
        let program = gen::random_program(&mut rng);
        let mut words = encode_program(&program.instrs).expect("generator encodes");
        gen::mutate_words(&mut words, &mut rng);
        words
    };
    replay_decode(&gen::words_to_bytes(&words))
}

/// Replays a differential-target input: a word image that must decode
/// and verify cleanly, then produce bit-identical outcomes on both
/// engines. Panics on divergence (that is the oracle).
pub fn replay_differential(bytes: &[u8]) -> &'static str {
    let words = gen::bytes_to_words(bytes);
    let Ok(program) = program_from_words(&words) else {
        return "decode-err";
    };
    if !check_program(&program).is_clean() {
        return "verify-reject";
    }
    let programs = [(TileId(0), program)];
    let (_, fast) = budgeted_run(&programs, differential_budget());
    let reference = budgeted_reference(&programs, differential_budget());
    assert_eq!(fast, reference, "engine divergence on verified mutant");
    classify(&fast)
}

/// Differential target with coverage feedback: mutate a valid program,
/// keep the mutant when it survives verification, and report whether
/// the run lit translator entry points no earlier input reached. Returns
/// `(classification, words-if-new-coverage)`.
pub fn run_differential(seed: u64, coverage: &mut CoverageMap) -> (&'static str, Option<Vec<u32>>) {
    let mut rng = SimRng::new(seed);
    let program = gen::random_program(&mut rng);
    let mut words = encode_program(&program.instrs).expect("generator encodes");
    gen::mutate_words(&mut words, &mut rng);

    // Fall back to the unmutated program when the mutant fails the
    // decode → verify gate, so every seed exercises the differential.
    let candidate = program_from_words(&words)
        .ok()
        .filter(|p| check_program(p).is_clean())
        .unwrap_or(program);
    let words = encode_program(&candidate.instrs).expect("candidate encodes");

    let programs = [(TileId(0), candidate)];
    let (chip, fast) = budgeted_run(&programs, differential_budget());
    let reference = budgeted_reference(&programs, differential_budget());
    assert_eq!(
        fast, reference,
        "seed {seed}: engine divergence on verified program"
    );
    let fresh = coverage.absorb(&chip);
    (classify(&fast), (fresh > 0).then_some(words))
}

/// Fault-plan differential: a random pipeline under a random plan must
/// behave bit-identically on all three engines — the translated fast
/// path, the fast path with translation off, and the reference loop —
/// including every typed error path the plan can force, the clock it
/// stops at and the fault counters.
pub fn run_faults(seed: u64) -> &'static str {
    let mut rng = SimRng::new(seed);
    let programs = gen::random_pipeline(&mut rng);
    // Short horizon: the generated pipelines drain within a couple of
    // thousand cycles, so a longer horizon would schedule most events
    // after the workload already halted.
    let space = FaultSpace {
        tiles: 16,
        horizon: 2_000,
        max_events: 4,
        allow_transient: true,
        ..FaultSpace::default()
    };
    let plan = FaultPlan::random(seed, &space);

    let mut chips = [0, 1, 2].map(|_| {
        let mut chip = Chip::new(ChipConfig::stitch_16());
        chip.set_budget(sandbox_budget());
        for (tile, p) in &programs {
            chip.load_program(*tile, p)
                .expect("pipeline tiles in range");
        }
        chip.set_fault_plan(plan.clone());
        chip
    });
    chips[1].set_translation(false);
    let [translated, interpreted, reference] = &mut chips;
    let a = translated.run(u64::MAX);
    let b = interpreted.run(u64::MAX);
    let c = reference.run_reference(u64::MAX);
    assert_eq!(
        a, b,
        "seed {seed}: translation on/off diverge under fault plan"
    );
    assert_eq!(a, c, "seed {seed}: engine divergence under fault plan");
    for other in [&*interpreted, &*reference] {
        assert_eq!(translated.cycle(), other.cycle(), "seed {seed}: clock");
        assert_eq!(
            translated.fault_stats(),
            other.fault_stats(),
            "seed {seed}: fault counters"
        );
    }
    classify(&a)
}

/// Replays a snapshot-target input: an arbitrary blob through the
/// codec, and — when it decodes — through `Chip::restore` into a
/// fresh chip, since a structurally valid blob can still disagree
/// with the chip it lands on. Returns `snap-ok` / `snap-restore-err`
/// / `snap-err`; never panics.
pub fn replay_snapshot(bytes: &[u8]) -> &'static str {
    match ChipSnapshot::decode(bytes) {
        Ok(snap) => {
            let mut chip = Chip::new(ChipConfig::stitch_16());
            match chip.restore(&snap) {
                Ok(()) => "snap-ok",
                Err(_) => "snap-restore-err",
            }
        }
        Err(_) => "snap-err",
    }
}

/// Snapshot codec target: checkpoint a mid-flight chip, then drive
/// progressively nastier corruptions of the blob through decode *and*
/// `Chip::restore` on a twin chip carrying the same workload — the
/// real restore path. Corruptions are byte mutations and, one in four,
/// a decoded snapshot with one geometry field perturbed
/// ([`gen::perturb_geometry`]), which reaches restore's validation. The
/// pristine blob must round-trip and restore; every corruption must
/// come back as a typed `SnapshotError` or a coherent restored state,
/// never a panic. Returns the last corruption's class and, for corpus
/// harvesting, every blob it classified with its class on the twin:
/// the pristine blob (`snap-ok`) first, then each corruption.
pub fn run_snapshot(seed: u64) -> (&'static str, Vec<(&'static str, Vec<u8>)>) {
    let mut rng = SimRng::new(seed);
    let programs = gen::random_pipeline(&mut rng);
    let mut chip = Chip::new(ChipConfig::stitch_16());
    // A small cycle cap parks the run mid-flight, with traffic and
    // dirty pages in the snapshot.
    chip.set_budget(RunBudget {
        cycles: Some(50 + rng.below(2000)),
        ..RunBudget::unlimited()
    });
    for (tile, p) in &programs {
        chip.load_program(*tile, p)
            .expect("pipeline tiles in range");
    }
    let _ = chip.run(u64::MAX);
    let pristine = chip.checkpoint().encode();
    let snap = match ChipSnapshot::decode(&pristine) {
        Ok(s) => s,
        Err(e) => panic!("seed {seed}: pristine snapshot failed to round-trip: {e:?}"),
    };

    // A twin with the same workload loaded is the legitimate restore
    // target; the pristine blob must land cleanly on it.
    let mut twin = Chip::new(ChipConfig::stitch_16());
    for (tile, p) in &programs {
        twin.load_program(*tile, p)
            .expect("pipeline tiles in range");
    }
    twin.restore(&snap)
        .unwrap_or_else(|e| panic!("seed {seed}: pristine snapshot failed to restore: {e:?}"));

    let mut inputs = vec![("snap-ok", pristine.clone())];
    for _ in 0..8 {
        let blob = if rng.chance(1, 4) {
            let mut s = snap.clone();
            gen::perturb_geometry(&mut s, &mut rng);
            s.encode()
        } else {
            let mut blob = pristine.clone();
            gen::mutate_bytes(&mut blob, &mut rng);
            blob
        };
        let class = match ChipSnapshot::decode(&blob) {
            Ok(s) => match twin.restore(&s) {
                Ok(()) => "snap-ok",
                Err(_) => "snap-restore-err",
            },
            Err(_) => "snap-err",
        };
        inputs.push((class, blob));
    }
    // Whatever the last restore left behind, the chip must still
    // simulate without panicking under the sandbox budget.
    twin.set_budget(sandbox_budget());
    let _ = twin.run(u64::MAX);
    // Raw noise, too — the decoder sees fully attacker-controlled
    // bytes, and the bytes-only replay path (fresh chip) must hold.
    let noise: Vec<u8> = (0..rng.index(256)).map(|_| rng.next_u32() as u8).collect();
    let _ = replay_snapshot(&noise);
    let _ = replay_snapshot(&pristine);
    let last = inputs.last().map_or("snap-ok", |(class, _)| *class);
    (last, inputs)
}

/// Replays a JSON-target input. Returns `json-ok` / `json-err`; never
/// panics regardless of input bytes.
#[must_use]
pub fn replay_json(bytes: &[u8]) -> &'static str {
    let text = String::from_utf8_lossy(bytes);
    match JsonValue::parse(&text) {
        Ok(_) => "json-ok",
        Err(_) => "json-err",
    }
}

/// JSON parser target: valid documents must parse, mutants must come
/// back typed, and nesting past the documented cap must be rejected
/// rather than overflow the stack.
pub fn run_json(seed: u64) -> &'static str {
    let mut rng = SimRng::new(seed);
    let doc = gen::random_json(&mut rng);
    assert!(
        JsonValue::parse(&doc).is_ok(),
        "seed {seed}: generator emitted invalid JSON: {doc}"
    );

    let mut bytes = doc.into_bytes();
    for _ in 0..4 {
        gen::mutate_bytes(&mut bytes, &mut rng);
        let _ = replay_json(&bytes);
    }

    // Hostile nesting: one level past the cap must fail cleanly.
    let depth = JSON_MAX_DEPTH + 1 + rng.index(64);
    let mut deep = String::new();
    for _ in 0..depth {
        deep.push('[');
    }
    assert!(
        JsonValue::parse(&deep).is_err(),
        "seed {seed}: unterminated deep nesting must be rejected"
    );
    let balanced: String = "[".repeat(depth) + &"]".repeat(depth);
    assert!(
        JsonValue::parse(&balanced).is_err(),
        "seed {seed}: nesting past MAX_DEPTH must be rejected"
    );
    replay_json(&bytes)
}
