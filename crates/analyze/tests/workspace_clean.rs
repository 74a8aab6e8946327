//! The acceptance gate: the full semantic pipeline run over its own
//! workspace — including this crate's sources — must produce zero findings
//! beyond the committed baseline (`analyze-baseline.json`). Any *new*
//! violation anywhere in the repo fails `cargo test` before it ever reaches
//! CI's `fedcav-analyze --deny` step; a *fixed* legacy finding must lower
//! its baseline entry's count with it (stale entries fail too, so the
//! ratchet only tightens).

use fedcav_analyze::{walk_rs_files, Baseline, Config, Engine};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/analyze -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the workspace root")
}

#[test]
fn the_workspace_is_lint_clean_modulo_the_baseline() {
    let root = workspace_root();
    assert!(root.join("Cargo.toml").is_file(), "walked from the wrong root: {root:?}");

    let (files, walk_errors) = walk_rs_files(root);
    assert!(walk_errors.is_empty(), "walk errors: {walk_errors:?}");
    assert!(files.len() > 50, "expected the whole workspace, found {} files", files.len());

    let engine = Engine::with_default_rules(Config::fedcav_default());
    let (diags, read_errors) = engine.lint_files(root, &files);
    assert!(read_errors.is_empty(), "read errors: {read_errors:?}");

    let baseline_path = root.join("analyze-baseline.json");
    let raw = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path.display()));
    let baseline = Baseline::parse(&raw).unwrap_or_else(|e| panic!("bad baseline: {e}"));
    let outcome = baseline.apply(diags);

    let report: Vec<String> = outcome.new.iter().map(|d| d.human()).collect();
    assert!(
        outcome.new.is_empty(),
        "fedcav-analyze found {} NEW violation(s) in the workspace (fix them or \
         justify them in analyze-baseline.json):\n{}",
        outcome.new.len(),
        report.join("\n")
    );
    let stale: Vec<String> = outcome
        .stale
        .iter()
        .map(|&i| {
            let e = &baseline.entries[i];
            format!("{} ({} of {})", e.file, outcome.matched[i], e.count)
        })
        .collect();
    assert!(
        outcome.stale.is_empty(),
        "baseline entries match fewer findings than their count — lower the count \
         (or delete the entry at 0) so the ratchet tightens: {stale:?}"
    );
}

#[test]
fn every_baseline_entry_carries_a_real_reason() {
    // `Baseline::parse` already rejects empty reasons; this guards against
    // committing the `--write-baseline` skeleton's TODO placeholders.
    let raw = std::fs::read_to_string(workspace_root().join("analyze-baseline.json")).unwrap();
    let baseline = Baseline::parse(&raw).unwrap();
    assert!(!baseline.entries.is_empty(), "empty baseline should just be deleted");
    for e in &baseline.entries {
        assert!(
            !e.reason.starts_with("TODO"),
            "{}:{} baseline entry still has a placeholder reason",
            e.file,
            e.rule
        );
    }
}

#[test]
fn the_linter_lints_its_own_sources() {
    // Guard against the walk silently skipping this crate: the self-clean
    // test above is only meaningful if analyze's own files are in the set.
    let root = workspace_root();
    let (files, _) = walk_rs_files(root);
    for needle in ["analyze/src/lexer.rs", "analyze/src/suppress.rs", "analyze/src/engine.rs"] {
        assert!(
            files.iter().any(|f| f.to_string_lossy().replace('\\', "/").ends_with(needle)),
            "{needle} missing from the walk"
        );
    }
}
