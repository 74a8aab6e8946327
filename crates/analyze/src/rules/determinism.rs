//! The determinism auditor: a rule family flagging nondeterminism sources
//! in bit-identity-contracted code.
//!
//! The reproduction's central guarantees are bitwise: Eq. 9 contribution
//! weights identical across the materialized, streaming, and parallel
//! aggregation paths; blocked kernels identical across runs and thread
//! counts. Those proofs assume the code they cover is *deterministic* —
//! no iteration order borrowed from a hash table, no wall-clock value
//! feeding a computation, no thread spawned outside the executor's
//! deterministic fold, no environment read outside the sanctioned
//! `FEDCAV_*` override points. Each rule here flags one nondeterminism
//! source, scoped — like `no-panic-in-round-loop` — to the functions the
//! workspace call graph marks reachable from the round-loop roots.
//!
//! * [`HashIterationOrder`] — iterating a `HashMap`/`HashSet` (`.iter()`,
//!   `.keys()`, `.values()`, `.drain()`, `.retain()`, `for … in &map`)
//!   observes `RandomState` order. Keyed access (`.get`, `.entry`,
//!   `.insert`, `.contains_key`, `.remove`) stays legal.
//! * [`WallclockInRoundLoop`] — `Instant::now`/`SystemTime::now` outside
//!   `fedcav-trace`. Telemetry-only reads at sanctioned sites carry an
//!   inline allow comment with a reason.
//! * [`SpawnOutsideExecutor`] — `thread::spawn`/`thread::scope` anywhere
//!   but `fl::executor`, whose index-keyed fold is the one proven
//!   bit-identical to sequential execution.
//! * [`EnvReadOutsideOverride`] — `env::var` outside the sanctioned
//!   override points (`FEDCAV_EXECUTOR` in `fl::executor`,
//!   `FEDCAV_BACKEND` in `tensor::backend`): configuration must flow
//!   through constructors,
//!   not ambient process state.

use super::{WorkspaceContext, WorkspaceRule};
use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};

/// Iteration-order methods on hash collections. Keyed accessors are
/// deliberately absent.
const ITER_METHODS: [&str; 8] =
    ["iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "retain"];

/// Collect the identifiers in `code` (a whole file) that are declared with
/// a `HashMap`/`HashSet` type: field or binding ascriptions
/// (`name: HashMap<…>`, `name: &mut HashSet<…>`) and initializer bindings
/// (`let name = HashMap::new()`).
fn hash_typed_names(code: &[&Token]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over the path prefix (`std :: collections ::`).
        let mut j = i;
        while j >= 2
            && code[j - 1].is_punct(':')
            && code[j - 2].is_punct(':')
        {
            if j >= 3 && code[j - 3].kind == TokenKind::Ident {
                j -= 3;
            } else {
                break;
            }
        }
        // Ascription: `name : [& mut] <path>`.
        let mut k = j;
        while k >= 1 && (code[k - 1].is_punct('&') || code[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k >= 2 && code[k - 1].is_punct(':') && !code.get(k.wrapping_sub(2)).is_some_and(|p| p.is_punct(':')) {
            if let Some(name) = code.get(k - 2).filter(|n| n.kind == TokenKind::Ident) {
                names.push(name.text.clone());
                continue;
            }
        }
        // Initializer: `let [mut] name = HashMap :: …`.
        if j >= 2 && code[j - 1].is_punct('=') {
            if let Some(name) = code.get(j - 2).filter(|n| n.kind == TokenKind::Ident) {
                names.push(name.text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// See the module docs.
pub struct HashIterationOrder;

impl WorkspaceRule for HashIterationOrder {
    fn name(&self) -> &'static str {
        "hash-iteration-order"
    }

    fn description(&self) -> &'static str {
        "no HashMap/HashSet iteration in round-loop-reachable code: RandomState order \
         leaks into float accumulation; keyed lookup is fine, iteration needs a \
         sorted/Vec-backed structure"
    }

    fn check(&self, ctx: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>) {
        for (key, root) in ctx.reachable() {
            let wf = &ctx.ws.files[key.0];
            let item = &wf.fns[key.1];
            let Some((lo, hi)) = item.body else { continue };
            let code = wf.source.code();
            let names = hash_typed_names(&code);
            if names.is_empty() {
                continue;
            }
            let via = ctx.provenance(key, root);
            let body = &code[lo..hi];
            for (i, t) in body.iter().enumerate() {
                if t.kind != TokenKind::Ident || !names.iter().any(|n| n == &t.text) {
                    continue;
                }
                // `name.iter()` / `self.name.keys()` …
                if body.get(i + 1).is_some_and(|p| p.is_punct('.'))
                    && body
                        .get(i + 2)
                        .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
                    && body.get(i + 3).is_some_and(|p| p.is_punct('('))
                {
                    let m = &body[i + 2];
                    out.push(self.diag(
                        &wf.source.path,
                        m,
                        format!(
                            "`{}.{}()` iterates a hash collection in RandomState order \
                             [{via}]",
                            t.text, m.text
                        ),
                    ));
                }
                // `for pat in [&][mut] [self.]name { …`
                if body.get(i + 1).is_some_and(|p| p.is_punct('{')) {
                    let mut k = i;
                    while k >= 1
                        && (body[k - 1].is_punct('&')
                            || body[k - 1].is_ident("mut")
                            || body[k - 1].is_punct('.')
                            || body[k - 1].is_ident("self"))
                    {
                        k -= 1;
                    }
                    if k >= 1 && body[k - 1].is_ident("in") {
                        out.push(self.diag(
                            &wf.source.path,
                            t,
                            format!(
                                "`for … in {}` iterates a hash collection in RandomState \
                                 order [{via}]",
                                t.text
                            ),
                        ));
                    }
                }
            }
        }
    }
}

impl HashIterationOrder {
    fn diag(&self, file: &str, at: &Token, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line: at.line,
            col: at.col,
            rule: self.name(),
            severity: Severity::Error,
            message,
        }
    }
}

/// Scan one reachable body for `Qualifier::method(` patterns and report.
fn scan_path_calls(
    ctx: &WorkspaceContext<'_>,
    rule: &'static str,
    heads: &[&str],
    methods: &[&str],
    describe: &str,
    out: &mut Vec<Diagnostic>,
) {
    for (key, root) in ctx.reachable() {
        let wf = &ctx.ws.files[key.0];
        let item = &wf.fns[key.1];
        let Some((lo, hi)) = item.body else { continue };
        let code = wf.source.code();
        let via = ctx.provenance(key, root);
        let body = &code[lo..hi];
        for (i, t) in body.iter().enumerate() {
            if t.kind == TokenKind::Ident
                && heads.contains(&t.text.as_str())
                && body.get(i + 1).is_some_and(|p| p.is_punct(':'))
                && body.get(i + 2).is_some_and(|p| p.is_punct(':'))
                && body.get(i + 3).is_some_and(|m| {
                    m.kind == TokenKind::Ident && methods.contains(&m.text.as_str())
                })
            {
                let m = &body[i + 3];
                out.push(Diagnostic {
                    file: wf.source.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule,
                    severity: Severity::Error,
                    message: format!("`{}::{}` {describe} [{via}]", t.text, m.text),
                });
            }
        }
    }
}

/// See the module docs.
pub struct WallclockInRoundLoop;

impl WorkspaceRule for WallclockInRoundLoop {
    fn name(&self) -> &'static str {
        "wallclock-in-round-loop"
    }

    fn description(&self) -> &'static str {
        "no Instant::now/SystemTime::now in round-loop-reachable code outside \
         fedcav-trace: wall-clock values must feed telemetry, never the model"
    }

    fn check(&self, ctx: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>) {
        scan_path_calls(
            ctx,
            self.name(),
            &["Instant", "SystemTime"],
            &["now"],
            "reads the wall clock inside bit-identity-contracted code; route timing \
             through fedcav-trace spans, or allow with a telemetry-only reason",
            out,
        );
    }
}

/// See the module docs.
pub struct SpawnOutsideExecutor;

impl WorkspaceRule for SpawnOutsideExecutor {
    fn name(&self) -> &'static str {
        "spawn-outside-executor"
    }

    fn description(&self) -> &'static str {
        "no thread::spawn/thread::scope in round-loop-reachable code outside \
         fl::executor: parallelism is only bit-identical under the executor's \
         index-keyed fold"
    }

    fn check(&self, ctx: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>) {
        scan_path_calls(
            ctx,
            self.name(),
            &["thread"],
            &["spawn", "scope", "Builder"],
            "spawns threads outside the deterministic client executor; results folded \
             off the executor's index-keyed queue are the only parallelism proven \
             bit-identical",
            out,
        );
    }
}

/// See the module docs.
pub struct EnvReadOutsideOverride;

impl WorkspaceRule for EnvReadOutsideOverride {
    fn name(&self) -> &'static str {
        "env-read-outside-override"
    }

    fn description(&self) -> &'static str {
        "no env::var in round-loop-reachable code outside the sanctioned FEDCAV_* \
         override points (fl::executor, tensor::backend): configuration flows through \
         constructors, not ambient process state"
    }

    fn check(&self, ctx: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>) {
        scan_path_calls(
            ctx,
            self.name(),
            &["env"],
            &["var", "var_os", "vars", "vars_os"],
            "reads the process environment mid-computation; only the documented \
             FEDCAV_* override points may consult env, at init, in their own files",
            out,
        );
    }
}
