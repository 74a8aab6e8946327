//! `no-panic-in-round-loop`: the fault-tolerant round loop must degrade,
//! never die.
//!
//! PR 1 made `Simulation::run_round` survive crashing clients, corrupted
//! uploads and missed deadlines — a client failure costs the round one
//! contribution, never the whole simulation. A stray `unwrap()` on that
//! path undoes the entire design: one malformed update panics the server
//! instead of quarantining the client.
//!
//! Scope is **semantic, not configured**: the rule flags panicking
//! constructs (`unwrap`/`expect`, `panic!`-family macros, `[…]` index and
//! range-index expressions) in any function the workspace call graph
//! ([`crate::callgraph`]) marks reachable from the round-loop roots —
//! `Simulation` (the one round driver, over datasets or a population),
//! its `ShardedSimulation` facade, `CentralizedTrainer`, the
//! `fl::stages` free functions, and every `Strategy`/`FaultModel`/
//! `Interceptor` impl. There is no hand-maintained file list to extend
//! when a new crate grows onto the hot path; writing code the loop can
//! call *is* opting into the contract.

use super::{WorkspaceContext, WorkspaceRule};
use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};

/// See the module docs.
pub struct NoPanicInRoundLoop;

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords after which a `[` opens an array literal or slice type, not an
/// index expression (`for x in [..]`, `return [..]`, `&mut [f32]`, …).
const KEYWORDS: [&str; 22] = [
    "as", "break", "const", "dyn", "else", "enum", "fn", "for", "if", "impl", "in", "let", "loop",
    "match", "move", "mut", "ref", "return", "static", "unsafe", "where", "while",
];

/// Scan a token slice for panicking constructs, reporting each as
/// `(token, message)`. Shared between the workspace rule and its fixtures.
pub fn scan_panic_sites(code: &[&Token], mut report: impl FnMut(&Token, String)) {
    for (i, t) in code.iter().enumerate() {
        // `.unwrap(` / `.expect(`
        if t.is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
            && code.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            let name = &code[i + 1];
            report(
                name,
                format!(
                    "`.{}()` can panic the round loop; return a graceful error \
                     (quarantine/degrade via FaultPolicy) instead",
                    name.text
                ),
            );
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            report(
                t,
                format!(
                    "`{}!` aborts the round; a failed client must degrade the round, \
                     not kill the simulation",
                    t.text
                ),
            );
        }
        // `expr[i]`: an index expression is a `[` directly after an
        // identifier, `)` or `]`. (Attributes are `#[`, macros `![`,
        // array types `: [T; N]` — none of those match.)
        if t.is_punct('[')
            && i > 0
            && ((code[i - 1].kind == TokenKind::Ident
                && !KEYWORDS.contains(&code[i - 1].text.as_str()))
                || code[i - 1].is_punct(')')
                || code[i - 1].is_punct(']'))
        {
            report(
                t,
                "`[…]` indexing panics out of bounds; use `.get()` / iterators so a \
                 malformed update degrades gracefully"
                    .to_string(),
            );
        }
    }
}

impl WorkspaceRule for NoPanicInRoundLoop {
    fn name(&self) -> &'static str {
        "no-panic-in-round-loop"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panicking macro/[i] indexing in any function reachable from \
         the round-loop roots (call-graph derived): a client failure must cost one \
         contribution, never the round"
    }

    fn check(&self, ctx: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>) {
        for (key, root) in ctx.reachable() {
            let wf = &ctx.ws.files[key.0];
            let item = &wf.fns[key.1];
            let Some((lo, hi)) = item.body else { continue };
            let code = wf.source.code();
            let via = ctx.provenance(key, root);
            scan_panic_sites(&code[lo..hi], |tok, msg| {
                out.push(Diagnostic {
                    file: wf.source.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    rule: self.name(),
                    severity: Severity::Error,
                    message: format!("{msg} [{via}]"),
                });
            });
        }
    }
}
