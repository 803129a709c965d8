//! Fixed-seed fuzz sweeps and minimized-corpus replay.
//!
//! Each sweep runs `seed_count()` cases (default 256, the CI floor)
//! from `seed_base()`; both knobs are env-overridable so a failing
//! case reproduces from its printed seed:
//!
//! ```text
//! STITCH_FUZZ_SEED_BASE=<seed> STITCH_FUZZ_SEEDS=1 \
//!     cargo test -q -p stitch-fuzz --test targets
//! ```
//!
//! The corpus replay tests pin every checked-in input to the
//! classification encoded in its file name, so codec or decoder
//! changes that silently reclassify a hardened case fail loudly.

use std::collections::BTreeMap;

use stitch_fuzz::{corpus, seed_base, seed_count, targets, CoverageMap, Target};

#[test]
fn decode_sweep_never_panics() {
    let base = seed_base();
    let mut hist: BTreeMap<&'static str, u64> = BTreeMap::new();
    for i in 0..seed_count() {
        *hist.entry(targets::run_decode(base + i)).or_default() += 1;
    }
    // The sweep must exercise both the reject and the survive paths,
    // or the generator has rotted into noise.
    assert!(
        hist.get("decode-err").copied().unwrap_or(0) > 0,
        "no input was rejected by the decoder: {hist:?}"
    );
    assert!(
        hist.iter().any(|(k, _)| *k != "decode-err"),
        "every input died in decode — mutants never reach the sim: {hist:?}"
    );
}

#[test]
fn differential_sweep_holds_and_covers() {
    let base = seed_base();
    let mut coverage = CoverageMap::new();
    let mut ok = 0u64;
    for i in 0..seed_count() {
        let (class, _) = targets::run_differential(base + i, &mut coverage);
        if class == "sim-ok" {
            ok += 1;
        }
    }
    assert!(ok > 0, "no differential case completed");
    assert!(
        !coverage.is_empty(),
        "translator coverage stayed empty — feedback signal is dead"
    );
}

#[test]
fn fault_plan_sweep_holds() {
    let base = seed_base();
    let mut hist: BTreeMap<&'static str, u64> = BTreeMap::new();
    for i in 0..seed_count() {
        *hist.entry(targets::run_faults(base + i)).or_default() += 1;
    }
    assert!(
        hist.get("sim-ok").copied().unwrap_or(0) > 0,
        "no fault plan let the pipeline finish — space too hostile: {hist:?}"
    );
}

#[test]
fn snapshot_sweep_never_panics() {
    let base = seed_base();
    let mut hist: BTreeMap<&'static str, u64> = BTreeMap::new();
    for i in 0..seed_count() {
        let (class, inputs) = targets::run_snapshot(base + i);
        assert!(!inputs[0].1.is_empty(), "the pristine blob comes first");
        *hist.entry(class).or_default() += 1;
    }
    // Structure-aware cases must reach restore's validation, or it is
    // pinned by hand-made corpus blobs alone. About one seed in four
    // ends on one, so a small manual batch may legitimately draw none.
    if seed_count() >= 64 {
        assert!(
            hist.get("snap-restore-err").copied().unwrap_or(0) > 0,
            "no corruption reached Chip::restore's validation: {hist:?}"
        );
    }
}

#[test]
fn snapshot_harvest_keeps_the_classified_inputs() {
    // The corpus harvest keeps what the sweep itself classified, so a
    // restore-side rejection the histogram counts reaches the corpus.
    let base = seed_base();
    let mut hist: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut seen = BTreeMap::new();
    for seed in base..base + 32 {
        *hist
            .entry(corpus::harvest_snapshot(seed, &mut seen))
            .or_default() += 1;
    }
    if hist.contains_key("snap-restore-err") {
        let blob = seen
            .get("snap-restore-err")
            .unwrap_or_else(|| panic!("no snap-restore-err input harvested: {hist:?}"));
        assert_ne!(
            targets::replay_snapshot(blob),
            "snap-err",
            "a restore-side case decodes"
        );
    }
    assert!(
        seen.contains_key("snap-ok"),
        "the pristine blob is harvested"
    );
}

#[test]
fn json_sweep_never_panics() {
    let base = seed_base();
    for i in 0..seed_count() {
        targets::run_json(base + i);
    }
}

fn replay(target: Target, f: impl Fn(&[u8]) -> &'static str) {
    let inputs = corpus::load(target);
    assert!(
        !inputs.is_empty(),
        "checked-in corpus for '{}' is missing — regenerate with \
         `cargo run -p stitch-fuzz -- {} --write-corpus`",
        target.name(),
        target.name()
    );
    for (expected, bytes) in inputs {
        let got = f(&bytes);
        assert_eq!(
            got,
            expected,
            "corpus input for '{}' reclassified ({} bytes)",
            target.name(),
            bytes.len()
        );
    }
}

#[test]
fn corpus_decode_replays() {
    replay(Target::Decode, targets::replay_decode);
}

#[test]
fn corpus_differential_replays() {
    let inputs = corpus::load(Target::Differential);
    assert!(!inputs.is_empty(), "differential corpus missing");
    for (expected, bytes) in inputs {
        let got = targets::replay_differential(&bytes);
        // Coverage inputs are prefixed `cov-<class>`.
        let want = expected.strip_prefix("cov-").unwrap_or(&expected);
        assert_eq!(got, want, "differential corpus input reclassified");
    }
}

#[test]
fn corpus_faults_replays() {
    let inputs = corpus::load(Target::Faults);
    assert!(!inputs.is_empty(), "faults corpus missing");
    for (expected, bytes) in inputs {
        let mut seed = [0u8; 8];
        seed.copy_from_slice(&bytes[..8]);
        let got = targets::run_faults(u64::from_le_bytes(seed));
        assert_eq!(got, expected, "fault corpus seed reclassified");
    }
}

#[test]
fn corpus_snapshot_replays() {
    replay(Target::Snapshot, targets::replay_snapshot);
}

#[test]
fn corpus_json_replays() {
    replay(Target::Json, targets::replay_json);
}
