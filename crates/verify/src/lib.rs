//! # stitch-verify — static verification of Stitch artifacts
//!
//! A static-analysis pass suite run by the compiler driver after
//! instruction-set-extension rewriting and by the workbench before any
//! simulation. Four analyses share one diagnostics framework
//! ([`Diagnostic`]/[`Report`]):
//!
//! 1. **W32 dataflow lints** ([`check_program`]) — control-flow
//!    reconstruction over the instruction stream with jump-target and
//!    fall-off bounds checks, custom-instruction table validation,
//!    data-segment bounds, plus use-def (uninitialized read), liveness
//!    (dead store), and reachability lints.
//! 2. **ISE semantic equivalence** ([`check_ise`]) — every custom
//!    instruction's patch datapath is checked against the dataflow
//!    subgraph it replaced: structural well-formedness, exhaustive-random
//!    differential interpretation against reference W32 semantics, and a
//!    symbolic-evaluation cross-check for memory-free datapaths. Each
//!    distinct obligation is proven once per process.
//! 3. **Stitch-plan legality** ([`check_plan`], [`check_circuits`]) —
//!    patch class/placement/exclusivity bounds, fused-pair adjacency and
//!    single-cycle timing, and inter-patch switch-fabric coherence
//!    (every circuit walkable, no multicast, no port sharing, no routing
//!    cycles).
//! 4. **Static communication checks** ([`check_comm`], [`check_routes`])
//!    — send/recv matching, communication-graph cycle detection (static
//!    deadlock-freedom), and XY-route legality under mesh fault masks.
//!
//! Only `Error`-severity diagnostics gate; lints that depend on
//! environment details the analyses cannot see (cores reset registers to
//! zero, symbolic normalization is incomplete) are `Warning`s, keeping
//! the verifier free of false positives on compiler output.
//!
//! The crate deliberately depends only on `stitch-isa`, `stitch-patch`,
//! and `stitch-noc`, so both the compiler and the workbench can call
//! into it without dependency cycles; they adapt their richer internal
//! types ([`IseCheck`], [`PlanView`], [`CommNode`]) at the boundary.

pub mod comm;
pub mod dataflow;
pub mod diag;
pub mod ise;
pub mod plan;

pub use comm::{check_comm, check_routes, CommEdge, CommNode};
pub use dataflow::check_program;
pub use diag::{Diagnostic, Report, Severity, Span};
pub use ise::{
    check_ise, ise_memo_hits, mark_proven, IseCheck, IseMapping, IseNode, IseOp, IseOperand,
    IseOut, IseSubgraph,
};
pub use plan::{check_circuits, check_plan, AccelView, ConfigView, PlanView};

/// Version of the static-analysis suite. Participates in every
/// persistent verified-artifact cache key: bumping it (do so whenever a
/// check's semantics change) retires every stored report at once, so a
/// stale verdict can never satisfy a newer verifier.
pub const VERIFIER_VERSION: u32 = 2;
