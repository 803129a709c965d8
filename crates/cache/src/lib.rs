//! # stitch-cache — content-addressed store of verified artifacts
//!
//! Compiling and statically verifying a kernel costs seconds; doing it
//! again for byte-identical inputs costs the same seconds for nothing.
//! This crate makes verified artifacts first-class, shippable objects:
//! an [`ArtifactStore`] is a directory of self-checking files, each
//! holding a compiled artifact *together with* the clean verify report
//! that admitted it, keyed by a SHA-256 content hash over the inputs
//! that produced it (program bytes, ISE mappings, plan, architecture
//! parameters, and the verifier version).
//!
//! The trust model is deliberately asymmetric:
//!
//! * A **hit** requires everything to line up — file magic/version, the
//!   echoed key, the checksum, a fully valid decode, and a key derived
//!   from a strong hash of the very inputs being asked about. Then the
//!   stored report *is* the verification result.
//! * A **miss** is always safe: the caller compiles and verifies live,
//!   exactly as without the cache. Truncated, bit-flipped,
//!   version-bumped, or impersonating files all read as misses.
//!
//! The same store is the record store of crash-safe resumable sweeps:
//! `Workbench::sweep_resumable` and the sweep drivers keep one
//! self-checking file per completed point in it, so a killed sweep
//! resumes where it stopped.
//!
//! The crate sits below the compiler and workbench (it depends only on
//! `stitch-isa`/`-patch`/`-noc`/`-verify`), so both can persist and
//! reload their artifacts without dependency cycles. Every byte it
//! reads or writes goes through the workspace's one record codec,
//! `stitch_isa::rec` ([`Rec`]/[`RecView`], typed [`DecodeError`]s),
//! re-exported here and by the `stitch` crate; the chip snapshot uses
//! the same codec.

pub mod codec;
pub mod sha256;
pub mod store;

pub use sha256::{sha256, sha256_hex, Sha256};
pub use stitch_isa::rec::{fnv1a64, DecodeError, OrCorrupt, Rec, RecView};
pub use store::ArtifactStore;
