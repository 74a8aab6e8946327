//! The rule framework: parsed source files, the per-file [`Rule`] trait,
//! the semantic [`WorkspaceRule`] trait, and configuration.

mod debug_output;
mod determinism;
mod float_cmp;
mod no_panic;
mod raw_exp_ln;

pub use debug_output::NoDebugOutput;
pub use determinism::{
    EnvReadOutsideOverride, HashIterationOrder, SpawnOutsideExecutor, WallclockInRoundLoop,
};
pub use float_cmp::UncheckedFloatCmp;
pub use no_panic::{scan_panic_sites, NoPanicInRoundLoop};
pub use raw_exp_ln::RawExpLn;

use crate::callgraph::{CallGraph, FnKey, Workspace};
use crate::diagnostics::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};
use crate::suppress::{self, Suppression};

/// A lexed source file plus the derived facts rules need: which lines are
/// test code, and which suppressions are in force.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Suppressions found in comments.
    pub suppressions: Vec<Suppression>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lex and pre-analyze a file. The returned diagnostics are malformed
    /// suppression comments (`bad-suppression`).
    pub fn parse(path: &str, src: &str) -> (SourceFile, Vec<Diagnostic>) {
        let tokens = lex(src);
        let (suppressions, diags) = suppress::scan(path, &tokens);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let test_ranges = test_ranges(&code);
        (SourceFile { path: path.to_string(), tokens, suppressions, test_ranges }, diags)
    }

    /// The non-comment tokens, in order (what rule matchers scan).
    pub fn code(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| !t.is_comment()).collect()
    }

    /// Whether `line` falls inside a `#[cfg(test)]` module or `#[test]` fn.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// Whether a finding of `rule` at `line` is silenced by a suppression.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions.iter().any(|s| s.covers(rule, line))
    }
}

/// Find line ranges of test-only items: any item annotated `#[test]`,
/// `#[cfg(test)]`, or any cfg attribute mentioning `test` (conservatively
/// including e.g. `#[cfg(any(test, feature = "x"))]`, but *not*
/// `#[cfg(not(test))]`). The range runs from the attribute to the end of
/// the item (the matching `}` or the terminating `;`).
fn test_ranges(code: &[&Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        let (is_test, after_attr) = scan_attr(code, i + 1);
        if !is_test {
            i = after_attr;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = after_attr;
        while j < code.len()
            && code[j].is_punct('#')
            && code.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            let (_, next) = scan_attr(code, j + 1);
            j = next;
        }
        // Consume the item: a brace-delimited body, or a `;`-terminated
        // item if no brace appears first.
        let mut depth = 0usize;
        let mut end_line = code.get(j).map(|t| t.line).unwrap_or(start_line);
        while j < code.len() {
            let t = code[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end_line = t.line;
                    j += 1;
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                end_line = t.line;
                j += 1;
                break;
            }
            end_line = t.line;
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j;
    }
    ranges
}

/// Scan an attribute whose `[` is at `open`. Returns (mentions-test, index
/// just past the closing `]`). "Mentions test" means an ident token `test`
/// appears and no ident `not` does.
fn scan_attr(code: &[&Token], open: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut k = open;
    while k < code.len() {
        let t = code[k];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return (has_test && !has_not, k + 1);
            }
        } else if t.kind == TokenKind::Ident {
            has_test |= t.text == "test";
            has_not |= t.text == "not";
        }
        k += 1;
    }
    (false, code.len())
}

/// A per-file lint rule: scans one file's tokens and reports findings.
pub trait Rule {
    /// Kebab-case rule name, used in output, configuration and suppressions.
    fn name(&self) -> &'static str;
    /// One-line description of the invariant the rule encodes.
    fn description(&self) -> &'static str;
    /// Scan `code` (the file's non-comment tokens) and push findings.
    fn check(&self, file: &SourceFile, code: &[&Token], out: &mut Vec<Diagnostic>);
}

/// Everything a semantic pass sees: the parsed workspace, its call graph,
/// and the reachability map from the configured round-loop roots.
pub struct WorkspaceContext<'a> {
    /// Every parsed file with its item tree.
    pub ws: &'a Workspace,
    /// The resolved call graph.
    pub graph: &'a CallGraph,
    /// For each graph node: `Some(root node id)` it was first reached from,
    /// or `None` when unreachable from every root.
    pub origin: &'a [Option<usize>],
    /// The configuration in force.
    pub config: &'a Config,
}

impl WorkspaceContext<'_> {
    /// Every reachable function, as `(function, witness root)` keys.
    pub fn reachable(&self) -> impl Iterator<Item = (FnKey, FnKey)> + '_ {
        self.origin
            .iter()
            .enumerate()
            .filter_map(|(id, o)| o.map(|r| (self.graph.nodes[id], self.graph.nodes[r])))
    }

    /// The provenance tail appended to semantic findings, so a reader knows
    /// *why* a function is in scope without consulting the graph.
    pub fn provenance(&self, key: FnKey, root: FnKey) -> String {
        let here = self.ws.qualified_name(key);
        if key == root {
            format!("in round-loop root `{here}`")
        } else {
            format!("in `{here}`, reachable from `{}`", self.ws.qualified_name(root))
        }
    }
}

/// A semantic rule: runs once over the whole workspace with call-graph
/// context, instead of file by file.
pub trait WorkspaceRule {
    /// Kebab-case rule name, used in output, configuration and suppressions.
    fn name(&self) -> &'static str;
    /// One-line description of the invariant the rule encodes.
    fn description(&self) -> &'static str;
    /// Inspect the workspace and push findings.
    fn check(&self, ctx: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>);
}

/// Where reachability starts: the round-loop entry points. Everything the
/// call graph can reach from here inherits the no-panic and determinism
/// contracts — there is no per-file include list to maintain.
#[derive(Debug, Clone, Default)]
pub struct RootSpec {
    /// Methods of named impl types: `("Simulation", None)` = every method,
    /// `("Simulation", Some("run_round"))` = that one.
    pub type_methods: Vec<(String, Option<String>)>,
    /// Every function in an `impl <trait> for …` block (or trait default
    /// method) for these trait names. Conservative dispatch means these are
    /// reachable from any `dyn` call site; naming them as roots also covers
    /// impls that are only constructed by user code.
    pub trait_impls: Vec<String>,
    /// Free functions in files whose path contains one of these substrings
    /// (the `fl::stages` pipeline functions).
    pub free_fn_paths: Vec<String>,
}

impl RootSpec {
    /// Whether `f` (an item of the file at `path`) is a root.
    pub fn is_root(&self, f: &crate::parser::FnItem, path: &str) -> bool {
        if let Some(ty) = f.self_type.as_deref() {
            if self
                .type_methods
                .iter()
                .any(|(t, m)| t == ty && m.as_deref().is_none_or(|m| m == f.name))
            {
                return true;
            }
        }
        if let Some(tr) = f.trait_name.as_deref() {
            if self.trait_impls.iter().any(|t| t == tr) {
                return true;
            }
        }
        f.self_type.is_none() && self.free_fn_paths.iter().any(|p| path.contains(p.as_str()))
    }
}

/// Where one rule applies, expressed as substring matches on the
/// workspace-relative path (forward slashes). Empty `include` = everywhere.
#[derive(Debug, Clone, Default)]
pub struct PathRules {
    /// If non-empty, the rule only runs on paths containing one of these.
    pub include: Vec<String>,
    /// Paths containing any of these are skipped.
    pub exclude: Vec<String>,
    /// Skip findings inside `#[cfg(test)]` / `#[test]` regions.
    pub skip_test_code: bool,
}

impl PathRules {
    /// Whether the rule runs on `path` at all.
    pub fn applies_to(&self, path: &str) -> bool {
        if self.exclude.iter().any(|p| path.contains(p.as_str())) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|p| path.contains(p.as_str()))
    }
}

/// The engine's configuration: global path excludes, per-rule scoping, and
/// the reachability roots for the semantic passes.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Paths containing any of these are never linted (test suites, bench
    /// harnesses, examples, build output).
    pub global_exclude: Vec<String>,
    /// Path *prefixes* of crates excluded from the call graph: code that
    /// sits above the simulation in the dependency graph (the bench
    /// harness, the analyzer itself, the top-level binary). Nothing the
    /// round loop links against can call into these, so conservative
    /// name-based dispatch must not manufacture edges to them. Their
    /// `Strategy`-like impls (bench-local fault injectors) likewise run
    /// only under the harness, never inside the shipped loop.
    pub graph_exclude: Vec<String>,
    /// Per-rule path scoping, keyed by rule name. A rule with no entry runs
    /// everywhere (minus global excludes), test code included. For semantic
    /// rules the entry holds *exemptions* (sanctioned sites), not scope —
    /// scope is call-graph reachability.
    pub per_rule: Vec<(&'static str, PathRules)>,
    /// Round-loop reachability roots for the semantic passes.
    pub roots: RootSpec,
}

impl Config {
    /// Whether `path` is linted at all.
    pub fn lints_path(&self, path: &str) -> bool {
        !self.global_exclude.iter().any(|p| path.contains(p.as_str()))
    }

    /// Whether `path` participates in the call graph (and therefore in the
    /// semantic rules' scope).
    pub fn graphs_path(&self, path: &str) -> bool {
        !self.graph_exclude.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// The scoping for `rule`, if configured.
    pub fn rules_for(&self, rule: &str) -> Option<&PathRules> {
        self.per_rule.iter().find(|(name, _)| *name == rule).map(|(_, p)| p)
    }

    /// The workspace policy: which invariant holds where.
    ///
    /// * `no-panic-in-round-loop` and the determinism family
    ///   (`hash-iteration-order`, `wallclock-in-round-loop`,
    ///   `spawn-outside-executor`, `env-read-outside-override`) are
    ///   *semantic*: they apply to every function the call graph marks
    ///   reachable from the [`RootSpec`] roots — `Simulation` (the one
    ///   round driver; its private source and per-shard helpers are
    ///   reached through `run_round`), the `ShardedSimulation` facade,
    ///   `CentralizedTrainer`, the `fl::stages` pipeline functions, and
    ///   every `Strategy`/`FaultModel`/`Interceptor` impl. Their
    ///   `PathRules` entries list only the sanctioned exemption sites
    ///   (`fedcav-trace` may read the clock; `fl::executor` may spawn and
    ///   read `FEDCAV_EXECUTOR`; `tensor::backend` may read
    ///   `FEDCAV_BACKEND`).
    /// * `raw-exp-ln` — everywhere except `fedcav-tensor::numerics`, the one
    ///   sanctioned home of clipped/max-subtracted exp/ln (Eq. 7/9, §4.2.3).
    /// * `unchecked-float-cmp` — everywhere, tests included: `total_cmp` is
    ///   strictly better and NaN-safe.
    /// * `no-debug-output` — library crates and the machine-readable bench
    ///   surfaces (`kernelbench`, the `kernel_bench` binary): those must go
    ///   through locked/explicit writers. Only the TSV printer
    ///   (`output.rs`), the interactive `tune_fig4` and `robustness_matrix`
    ///   harness binaries (their artifacts are written with `fs::write`;
    ///   stderr is progress narration), and crate `main.rs` entry points
    ///   are licensed to print.
    pub fn fedcav_default() -> Config {
        Config {
            global_exclude: vec![
                "/target/".to_string(),
                "tests/".to_string(),
                "benches/".to_string(),
                "examples/".to_string(),
            ],
            graph_exclude: vec![
                "crates/analyze/".to_string(),
                "crates/bench/".to_string(),
                "src/".to_string(),
            ],
            per_rule: vec![
                (
                    "no-panic-in-round-loop",
                    PathRules { include: Vec::new(), exclude: Vec::new(), skip_test_code: true },
                ),
                (
                    "hash-iteration-order",
                    PathRules { include: Vec::new(), exclude: Vec::new(), skip_test_code: true },
                ),
                (
                    "wallclock-in-round-loop",
                    PathRules {
                        include: Vec::new(),
                        exclude: vec!["crates/trace/".to_string()],
                        skip_test_code: true,
                    },
                ),
                (
                    "spawn-outside-executor",
                    PathRules {
                        include: Vec::new(),
                        exclude: vec!["crates/fl/src/executor.rs".to_string()],
                        skip_test_code: true,
                    },
                ),
                (
                    "env-read-outside-override",
                    PathRules {
                        include: Vec::new(),
                        exclude: vec![
                            "crates/fl/src/executor.rs".to_string(),
                            "crates/tensor/src/backend.rs".to_string(),
                        ],
                        skip_test_code: true,
                    },
                ),
                (
                    "raw-exp-ln",
                    PathRules {
                        include: Vec::new(),
                        exclude: vec!["crates/tensor/src/numerics.rs".to_string()],
                        skip_test_code: true,
                    },
                ),
                (
                    "unchecked-float-cmp",
                    PathRules { include: Vec::new(), exclude: Vec::new(), skip_test_code: false },
                ),
                (
                    "no-debug-output",
                    PathRules {
                        include: Vec::new(),
                        exclude: vec![
                            "crates/bench/src/output.rs".to_string(),
                            "crates/bench/src/bin/tune_fig4.rs".to_string(),
                            "crates/bench/src/bin/robustness_matrix.rs".to_string(),
                            "src/main.rs".to_string(),
                        ],
                        skip_test_code: true,
                    },
                ),
            ],
            roots: RootSpec {
                type_methods: vec![
                    ("Simulation".to_string(), None),
                    ("ShardedSimulation".to_string(), None),
                    ("CentralizedTrainer".to_string(), None),
                ],
                trait_impls: vec![
                    "Strategy".to_string(),
                    "FaultModel".to_string(),
                    "Interceptor".to_string(),
                ],
                free_fn_paths: vec!["crates/fl/src/stages/".to_string()],
            },
        }
    }
}

/// The per-file rule set, in reporting order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(RawExpLn), Box::new(UncheckedFloatCmp), Box::new(NoDebugOutput)]
}

/// The semantic (workspace) rule set, in reporting order.
pub fn default_workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(NoPanicInRoundLoop),
        Box::new(HashIterationOrder),
        Box::new(WallclockInRoundLoop),
        Box::new(SpawnOutsideExecutor),
        Box::new(EnvReadOutsideOverride),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_lines_are_test_code() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let (f, _) = SourceFile::parse("x.rs", src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_fn_with_stacked_attrs_is_test_code() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() {\n    x();\n}\n";
        let (f, _) = SourceFile::parse("x.rs", src);
        assert!(f.in_test_code(4));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn shipping_code() {\n    y();\n}\n";
        let (f, _) = SourceFile::parse("x.rs", src);
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn cfg_test_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n";
        let (f, _) = SourceFile::parse("x.rs", src);
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn path_rules_matching() {
        let p = PathRules {
            include: vec!["crates/fl/src/server.rs".to_string()],
            exclude: vec!["crates/fl/src/server_old.rs".to_string()],
            skip_test_code: true,
        };
        assert!(p.applies_to("crates/fl/src/server.rs"));
        assert!(!p.applies_to("crates/fl/src/client.rs"));
        let all = PathRules::default();
        assert!(all.applies_to("anything.rs"));
    }

    #[test]
    fn default_config_scopes_are_sane() {
        let c = Config::fedcav_default();
        assert!(!c.lints_path("crates/fl/tests/integration.rs"));
        assert!(!c.lints_path("crates/bench/benches/kernels.rs"));
        assert!(c.lints_path("crates/fl/src/server.rs"));
        // The semantic rules carry no include lists: scope is reachability.
        let np = c.rules_for("no-panic-in-round-loop").expect("configured");
        assert!(np.include.is_empty(), "no hand-maintained include list");
        assert!(np.applies_to("crates/fl/src/server.rs"));
        assert!(np.applies_to("crates/nn/src/dense.rs"));
        // Determinism exemptions: only the sanctioned sites are excluded.
        let wc = c.rules_for("wallclock-in-round-loop").expect("configured");
        assert!(!wc.applies_to("crates/trace/src/tracer.rs"));
        assert!(wc.applies_to("crates/fl/src/centralized.rs"));
        let sp = c.rules_for("spawn-outside-executor").expect("configured");
        assert!(!sp.applies_to("crates/fl/src/executor.rs"));
        assert!(sp.applies_to("crates/fl/src/server.rs"));
        let ev = c.rules_for("env-read-outside-override").expect("configured");
        assert!(!ev.applies_to("crates/fl/src/executor.rs"));
        assert!(!ev.applies_to("crates/tensor/src/backend.rs"));
        assert!(ev.applies_to("crates/tensor/src/matmul.rs"), "matmul no longer reads env");
        assert!(ev.applies_to("crates/fl/src/server.rs"));
        let exp = c.rules_for("raw-exp-ln").expect("configured");
        assert!(!exp.applies_to("crates/tensor/src/numerics.rs"));
        assert!(exp.applies_to("crates/fl/src/latency.rs"));
        let dbg_rule = c.rules_for("no-debug-output").expect("configured");
        assert!(!dbg_rule.applies_to("crates/bench/src/output.rs"));
        assert!(!dbg_rule.applies_to("crates/bench/src/bin/tune_fig4.rs"));
        assert!(!dbg_rule.applies_to("crates/bench/src/bin/robustness_matrix.rs"));
        assert!(!dbg_rule.applies_to("crates/analyze/src/main.rs"));
        assert!(dbg_rule.applies_to("crates/nn/src/dense.rs"));
        // The kernel-bench surfaces are deliberately IN scope: they write
        // the machine-readable artifact and must use explicit writers.
        assert!(dbg_rule.applies_to("crates/bench/src/kernelbench.rs"));
        assert!(dbg_rule.applies_to("crates/bench/src/bin/kernel_bench.rs"));
    }

    #[test]
    fn root_spec_matches_types_traits_and_stage_paths() {
        let roots = Config::fedcav_default().roots;
        let mk = |name: &str, self_type: Option<&str>, trait_name: Option<&str>| {
            crate::parser::FnItem {
                name: name.to_string(),
                modules: Vec::new(),
                self_type: self_type.map(String::from),
                trait_name: trait_name.map(String::from),
                has_receiver: true,
                line: 1,
                end_line: 1,
                body: None,
            }
        };
        assert!(roots.is_root(&mk("run_round", Some("Simulation"), None), "crates/fl/src/server.rs"));
        assert!(roots.is_root(&mk("new", Some("ShardedSimulation"), None), "crates/fl/src/sharded.rs"));
        assert!(roots
            .is_root(&mk("aggregate", Some("FedAvg"), Some("Strategy")), "crates/fl/src/fedavg.rs"));
        let mut free = mk("run", None, None);
        free.has_receiver = false;
        assert!(roots.is_root(&free, "crates/fl/src/stages/sampling.rs"));
        assert!(!roots.is_root(&free, "crates/fl/src/aggregate.rs"));
        assert!(!roots.is_root(&mk("helper", Some("Dataset"), None), "crates/data/src/lib.rs"));
    }
}
