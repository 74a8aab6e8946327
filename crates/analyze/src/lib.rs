//! Self-hosted static analysis for the FedCav workspace.
//!
//! A dependency-free linter with two layers. The lexical layer matches
//! token sequences file by file; the semantic layer parses every file's
//! item tree ([`parser`]), builds a conservative workspace call graph
//! ([`callgraph`]), and scopes its rules by *reachability from the
//! round-loop roots* instead of by configured file lists.
//!
//! The invariants enforced:
//!
//! * [`rules::NoPanicInRoundLoop`] — the fault-tolerant round loop (PR 1)
//!   must degrade on client failure, never panic. Semantic: flags
//!   `unwrap`/`expect`/`panic!`-family/`[…]` indexing in any function
//!   reachable from `Simulation` (and its `ShardedSimulation` facade),
//!   `CentralizedTrainer`, the `fl::stages` pipeline, or any
//!   `Strategy`/`FaultModel`/`Interceptor` impl.
//! * The determinism auditor ([`rules::HashIterationOrder`],
//!   [`rules::WallclockInRoundLoop`], [`rules::SpawnOutsideExecutor`],
//!   [`rules::EnvReadOutsideOverride`]) — same reachability scope; flags
//!   the four nondeterminism sources that would silently void the
//!   bit-identity proofs: hash-order iteration, wall-clock reads, stray
//!   thread spawns, ambient env reads.
//! * [`rules::RawExpLn`] — `exp`/`ln` belong behind `fedcav-tensor`'s
//!   guarded numerics (log-sum-exp, clipped softmax), not scattered as raw
//!   calls that overflow for large losses.
//! * [`rules::UncheckedFloatCmp`] — NaN must not panic a sort or scramble
//!   a median; `total_cmp` only.
//! * [`rules::NoDebugOutput`] — library crates stay silent; stdout belongs
//!   to the bench harness.
//!
//! The pipeline: [`lexer::lex`] turns source into tokens (strings and
//! comments can never false-positive, because rules match token sequences,
//! not text); [`rules::SourceFile::parse`] layers on suppression comments
//! and `#[cfg(test)]` region detection; [`parser::parse_items`] recovers
//! the `fn`/`impl`/`trait`/`mod` item tree; [`engine::Engine`] runs the
//! per-file rules under the path [`rules::Config`] and the workspace rules
//! under call-graph reachability; the `fedcav-analyze` binary walks the
//! workspace, applies the committed [`baseline`] ratchet, and exits
//! nonzero under `--deny`.
//!
//! Findings are suppressed inline with a mandatory reason:
//!
//! ```text
//! // fedcav-lint: allow(raw-exp-ln, reason = "Box-Muller; u1 clamped away from 0")
//! ```
//!
//! Like `fedcav-trace`, this crate is std-only by design.

#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod diagnostics;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod suppress;
pub mod walk;

pub use baseline::{Baseline, BaselineEntry, BaselineOutcome};
pub use callgraph::{CallGraph, FnKey, Workspace, WorkspaceFile};
pub use diagnostics::{render_json, Diagnostic, Severity};
pub use engine::Engine;
pub use parser::{parse_items, FnItem};
pub use rules::{Config, PathRules, RootSpec, Rule, SourceFile, WorkspaceContext, WorkspaceRule};
pub use walk::walk_rs_files;
