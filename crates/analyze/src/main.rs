//! `fedcav-analyze`: lint the workspace.
//!
//! ```text
//! fedcav-analyze [ROOT] [--deny] [--json] [--json-out PATH] [--list-rules]
//!                [--baseline PATH] [--write-baseline PATH]
//! ```
//!
//! * `ROOT` — directory to walk (default: the workspace root containing
//!   this crate, else the current directory).
//! * `--deny` — exit 1 if any non-baselined finding is produced (CI mode).
//! * `--json` — print findings as a JSON array instead of human lines.
//! * `--json-out PATH` — additionally write the JSON report to `PATH`.
//! * `--list-rules` — print the registered rules and exit.
//! * `--baseline PATH` — tolerate the legacy findings listed in `PATH`,
//!   up to each entry's `count` (see [`fedcav_analyze::baseline`]). When
//!   the flag is absent,
//!   `ROOT/analyze-baseline.json` is loaded if it exists.
//! * `--write-baseline PATH` — write the current findings as a baseline
//!   file with per-entry counts (reasons stamped `TODO` — justify each
//!   before committing).
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 new findings
//! under `--deny`, 2 usage or IO error (including an unparseable
//! baseline: a ratchet that cannot be read must not silently admit
//! findings).

use fedcav_analyze::{render_json, walk_rs_files, Baseline, Config, Engine};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    deny: bool,
    json: bool,
    json_out: Option<PathBuf>,
    list_rules: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn default_root() -> PathBuf {
    // When run via `cargo run -p fedcav-analyze`, the workspace root is two
    // levels above this crate's manifest; fall back to cwd otherwise.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: default_root(),
        deny: false,
        json: false,
        json_out: None,
        list_rules: false,
        baseline: None,
        write_baseline: None,
    };
    let mut args = std::env::args().skip(1);
    let mut root_set = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--json-out" => {
                let p = args.next().ok_or("--json-out requires a path")?;
                opts.json_out = Some(PathBuf::from(p));
            }
            "--list-rules" => opts.list_rules = true,
            "--baseline" => {
                let p = args.next().ok_or("--baseline requires a path")?;
                opts.baseline = Some(PathBuf::from(p));
            }
            "--write-baseline" => {
                let p = args.next().ok_or("--write-baseline requires a path")?;
                opts.write_baseline = Some(PathBuf::from(p));
            }
            "--help" | "-h" => return Err("help".to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if root_set {
                    return Err(format!("unexpected extra argument `{path}`"));
                }
                opts.root = PathBuf::from(path);
                root_set = true;
            }
        }
    }
    Ok(opts)
}

const USAGE: &str = "usage: fedcav-analyze [ROOT] [--deny] [--json] [--json-out PATH] \
                     [--list-rules] [--baseline PATH] [--write-baseline PATH]";

/// The baseline file CI commits at the workspace root.
const DEFAULT_BASELINE: &str = "analyze-baseline.json";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) if e == "help" => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("fedcav-analyze: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let engine = Engine::with_default_rules(Config::fedcav_default());

    if opts.list_rules {
        for (name, desc) in engine.rule_list() {
            println!("{name}\n    {desc}");
        }
        return ExitCode::SUCCESS;
    }

    if !opts.root.is_dir() {
        eprintln!("fedcav-analyze: `{}` is not a directory", opts.root.display());
        return ExitCode::from(2);
    }

    // Load the ratchet: explicit --baseline must exist and parse; the
    // implicit root baseline is used only when present.
    let baseline_path = opts
        .baseline
        .clone()
        .or_else(|| Some(opts.root.join(DEFAULT_BASELINE)).filter(|p| p.is_file()));
    let baseline = match &baseline_path {
        Some(p) => match std::fs::read_to_string(p).map_err(|e| e.to_string()).and_then(|s| {
            Baseline::parse(&s)
        }) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("fedcav-analyze: baseline {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => Baseline::empty(),
    };

    let (files, walk_errors) = walk_rs_files(&opts.root);
    let (diags, read_errors) = engine.lint_files(&opts.root, &files);

    let mut io_failed = false;
    for e in walk_errors.iter().chain(&read_errors) {
        eprintln!("fedcav-analyze: io error: {e}");
        io_failed = true;
    }

    if let Some(path) = &opts.write_baseline {
        if let Err(e) = std::fs::write(path, Baseline::render(&diags)) {
            eprintln!("fedcav-analyze: cannot write {}: {e}", path.display());
            io_failed = true;
        } else {
            eprintln!(
                "fedcav-analyze: wrote {} finding(s) to {} — replace each TODO reason before \
                 committing",
                diags.len(),
                path.display()
            );
        }
    }

    let outcome = baseline.apply(diags.clone());

    if opts.json {
        println!("{}", render_json(&outcome.new));
    } else {
        for d in &outcome.new {
            println!("{}", d.human());
        }
        for (i, d) in &outcome.legacy {
            eprintln!(
                "fedcav-analyze: tolerated (baseline: {}): {}",
                baseline.entries[*i].reason,
                d.human()
            );
        }
        eprintln!(
            "fedcav-analyze: {} file(s) checked, {} finding(s) ({} new, {} baselined)",
            files.len(),
            diags.len(),
            outcome.new.len(),
            outcome.legacy.len()
        );
    }
    for i in &outcome.stale {
        let e = &baseline.entries[*i];
        eprintln!(
            "fedcav-analyze: stale baseline entry ({} in {}, {}): matched {} of its count {} \
             — lower the count, or delete the entry at 0",
            e.rule, e.file, e.context, outcome.matched[*i], e.count
        );
    }
    // The full (pre-baseline) report is the CI artifact: it must show
    // everything, tolerated or not.
    if let Some(path) = &opts.json_out {
        if let Err(e) = std::fs::write(path, render_json(&diags) + "\n") {
            eprintln!("fedcav-analyze: cannot write {}: {e}", path.display());
            io_failed = true;
        }
    }

    if io_failed {
        ExitCode::from(2)
    } else if opts.deny && !outcome.new.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
