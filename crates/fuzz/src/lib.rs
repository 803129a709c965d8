//! Coverage-guided fuzzing harness for untrusted guest inputs (ISSUE 7).
//!
//! The simulator's contract for hostile inputs is: every byte stream a
//! host could hand it — W32 word images, snapshot blobs, JSON trace
//! documents — either round-trips through the typed error enums
//! (`IsaError`, `SimError`, `SnapshotError`, JSON parse errors) or
//! simulates to completion under a [`stitch_sim::RunBudget`]. Nothing
//! panics, hangs, or allocates without bound.
//!
//! This crate packages that contract as five deterministic fuzz
//! targets (see [`targets`]), a coverage feedback signal fed by
//! the window engine's entry pcs ([`coverage`]), seeded input
//! generators and mutators that need nothing outside the workspace
//! ([`gen`] drives [`stitch_sim::SimRng`]), and a checked-in minimized
//! corpus replayed by unit tests ([`corpus`]).
//!
//! Every case reproduces from a `u64` seed alone:
//!
//! ```text
//! STITCH_FUZZ_SEED_BASE=<seed> STITCH_FUZZ_SEEDS=1 \
//!     cargo test -q -p stitch-fuzz --test targets
//! ```
//!
//! or, interactively, `cargo run -p stitch-fuzz -- <target> --base
//! <seed> --seeds 1`.

pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod targets;

pub use coverage::CoverageMap;
pub use targets::{Target, TARGETS};

/// First seed of a fuzzing sweep. Override with
/// `STITCH_FUZZ_SEED_BASE`.
#[must_use]
pub fn seed_base() -> u64 {
    std::env::var("STITCH_FUZZ_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF0_22_07)
}

/// Number of seeds per target in one sweep (the CI floor is 256).
/// Override with `STITCH_FUZZ_SEEDS`.
#[must_use]
pub fn seed_count() -> u64 {
    std::env::var("STITCH_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}
