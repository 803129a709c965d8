//! # The Stitch compiler toolchain (paper §IV, Fig 6)
//!
//! Reimplementation of the paper's automated flow:
//!
//! 1. [`profile`] — run a kernel standalone and count basic-block
//!    executions; blocks above the 5% occurrence threshold are *hot*;
//! 2. [`mod@cfg`] — control-flow graph, liveness, and the SPM-pointer analysis
//!    that decides which load/store operations may enter custom
//!    instructions (their data must live in the scratchpad, §III-C);
//! 3. [`dfg`] — dataflow graphs of hot blocks;
//! 4. [`enumerate`] — convex candidate subgraphs under the 4-input /
//!    2-output register-port constraint;
//! 5. [`mapper`] — a backtracking mapper placing candidates onto a patch
//!    (or a fused pair, or the LOCUS SFU) and synthesizing the 19-bit
//!    control words;
//! 6. [`rewrite`] — ISE selection (non-overlapping, by dynamic benefit)
//!    and code rewriting that replaces the covered operations with custom
//!    instructions;
//! 7. [`driver`] — generates all per-patch-configuration variants of a
//!    kernel and measures their speedups on the cycle-level simulator;
//! 8. [`lcs`] — the multi-round longest-common-substring analysis over hot
//!    operation chains that motivated the `{AT-MA}`/`{AT-AS}`/`{AT-SA}`
//!    patch mix (§III-A);
//! 9. [`stitcher`] — Algorithm 1: greedy bottleneck-driven allocation of
//!    patches (and inter-patch circuits, via Dijkstra) to the kernels of a
//!    multi-kernel application;
//! 10. [`verify`] — the bridge into the `stitch-verify` static-analysis
//!     suite: every compiled artifact is linted and every custom
//!     instruction independently proven equivalent to the subgraph it
//!     replaced, before any simulation (the mapper itself does not test
//!     its mappings);
//! 11. [`artifact`] — persistent, content-addressed artifacts: codecs
//!     for the compiler's output types plus the SHA-256 input keys that
//!     let a warm run reload a verified kernel instead of recompiling.

pub mod artifact;
pub mod cfg;
pub mod dfg;
pub mod driver;
pub mod enumerate;
pub mod lcs;
pub mod mapper;
pub mod profile;
pub mod rewrite;
pub mod stitcher;
pub mod verify;

pub use artifact::{decode_kernel_artifact, encode_kernel_artifact, kernel_input_key};
pub use cfg::{BasicBlock, Cfg};
pub use dfg::{BlockDfg, NodeOp, Src};
pub use driver::{
    accelerate_all, accelerate_profiled, compile_kernel, AcceleratedKernel, KernelVariants,
};
pub use enumerate::{enumerate_candidates, Candidate, EnumerateLimits};
pub use lcs::{chain_analysis, critical_chain, ChainReport, ChainRound};
pub use mapper::{map_candidate, Mapping, OutPort, PatchConfig};
pub use profile::{profile_program, ProfileReport};
pub use rewrite::{accelerate_block, rewrite_program, select_candidates, Chosen, RewriteResult};
pub use stitcher::{
    stitch_application, stitch_application_masked, AppKernel, GrantedAccel, StitchPlan,
};
pub use verify::{ise_check, seed_verify_memo, verify_kernel, verify_memo_hits};

use std::fmt;

/// Hot-block detection threshold: a block is hot when it accounts for at
/// least this fraction of dynamic instructions (paper §III-A uses a 5%
/// occurrence-rate threshold).
pub const HOT_THRESHOLD: f64 = 0.05;

/// Step and cycle budget of the flow's profiling and measurement runs.
pub const MEASURE_BUDGET: u64 = 200_000_000;

/// Errors produced by the compiler flow.
#[derive(Debug, Clone, PartialEq)]
pub enum CompilerError {
    /// Profiling execution faulted.
    Profile(String),
    /// The rewritten program failed validation or simulation.
    Rewrite(String),
    /// Stitching could not produce a valid plan.
    Stitch(String),
    /// The static verifier rejected a compiled artifact; the report
    /// carries the individual diagnostics.
    Verify(stitch_verify::Report),
    /// An internal compiler invariant was violated (a bug, reported as a
    /// diagnostic instead of a panic).
    Invariant(stitch_verify::Diagnostic),
}

impl CompilerError {
    /// Builds an [`CompilerError::Invariant`] from a bare message.
    #[must_use]
    pub fn invariant(message: impl Into<String>) -> Self {
        CompilerError::Invariant(stitch_verify::Diagnostic::error(
            "COMPILE-INVARIANT",
            stitch_verify::Span::None,
            message,
        ))
    }
}

impl fmt::Display for CompilerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompilerError::Profile(m) => write!(f, "profiling failed: {m}"),
            CompilerError::Rewrite(m) => write!(f, "rewrite failed: {m}"),
            CompilerError::Stitch(m) => write!(f, "stitching failed: {m}"),
            CompilerError::Verify(r) => {
                write!(
                    f,
                    "verification failed ({} error(s)):\n{r}",
                    r.error_count()
                )
            }
            CompilerError::Invariant(d) => write!(f, "compiler invariant violated: {d}"),
        }
    }
}

impl std::error::Error for CompilerError {}
