//! The findings baseline: a committed ratchet that lets `--deny` stay red
//! for *new* findings while legacy ones are paid down deliberately.
//!
//! A baseline is a JSON file of entries, each naming a rule, a file, a
//! message-substring `context` to pin the specific finding, the **count**
//! of such findings it tolerates, and a **mandatory reason** explaining
//! why they are tolerated rather than fixed:
//!
//! ```json
//! {
//!   "version": 1,
//!   "entries": [
//!     { "rule": "wallclock-in-round-loop",
//!       "file": "crates/fl/src/centralized.rs",
//!       "context": "Instant::now",
//!       "count": 2,
//!       "reason": "phase telemetry only; feeds RoundRecord.phases, never the model" }
//!   ]
//! }
//! ```
//!
//! The ratchet discipline:
//! * a finding matched by an entry with room left under its `count` is
//!   *legacy*: reported as tolerated, never failing `--deny`;
//! * a finding matched by no entry, or only by entries whose `count` is
//!   used up, is *new*: `--deny` fails — so a new finding in a baselined
//!   file cannot hide behind the old ones;
//! * an entry matching fewer findings than its `count` is *stale*:
//!   reported so the count (or, at zero, the entry) goes down as debt is
//!   paid — the baseline only ever ratchets down.
//!
//! Entries are matched by exact rule + file and `message.contains(context)`
//! (empty context pins the whole file for that rule). Like the rest of the
//! crate, parsing is std-only: a minimal recursive-descent JSON reader that
//! rejects what it does not understand rather than guessing.

use crate::diagnostics::{json_str, Diagnostic};

/// One tolerated legacy finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule name, matched exactly.
    pub rule: String,
    /// Workspace-relative file, matched exactly.
    pub file: String,
    /// Substring the finding's message must contain; empty matches any
    /// message of `rule` in `file`.
    pub context: String,
    /// How many matching findings this entry tolerates (at least 1).
    pub count: usize,
    /// Why this finding is tolerated (mandatory, non-empty).
    pub reason: String,
}

/// A parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Tolerated findings, in file order.
    pub entries: Vec<BaselineEntry>,
}

/// The result of filtering findings through a baseline.
#[derive(Debug)]
pub struct BaselineOutcome {
    /// Findings no entry matched: these fail `--deny`.
    pub new: Vec<Diagnostic>,
    /// `(entry index, finding)` pairs for tolerated legacy findings.
    pub legacy: Vec<(usize, Diagnostic)>,
    /// Findings tolerated per entry, by entry index (at most its `count`).
    pub matched: Vec<usize>,
    /// Indices of entries that matched fewer findings than their `count`
    /// — stale debt: lower the count, or delete the entry at zero.
    pub stale: Vec<usize>,
}

impl Baseline {
    /// An empty baseline: every finding is new.
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Parse a baseline file. Errors name what was malformed — a baseline
    /// that cannot be read must fail the run, not silently admit findings.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let (value, rest) = Json::parse(src.trim())?;
        if !rest.trim().is_empty() {
            return Err("trailing content after baseline JSON".to_string());
        }
        let Json::Obj(fields) = value else {
            return Err("baseline root must be a JSON object".to_string());
        };
        let version = fields.iter().find(|(k, _)| k == "version").map(|(_, v)| v);
        match version {
            Some(Json::Num(n)) if *n == 1.0 => {}
            Some(_) => return Err("baseline `version` must be the number 1".to_string()),
            None => return Err("baseline missing `version`".to_string()),
        }
        let Some((_, Json::Arr(items))) = fields.iter().find(|(k, _)| k == "entries") else {
            return Err("baseline missing `entries` array".to_string());
        };
        let mut entries = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let Json::Obj(e) = item else {
                return Err(format!("baseline entry {i} is not an object"));
            };
            let get = |k: &str| -> Option<String> {
                e.iter().find(|(key, _)| key == k).and_then(|(_, v)| match v {
                    Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
            };
            let rule = get("rule").ok_or_else(|| format!("entry {i}: missing `rule`"))?;
            let file = get("file").ok_or_else(|| format!("entry {i}: missing `file`"))?;
            let context = get("context").unwrap_or_default();
            let count = match e.iter().find(|(key, _)| key == "count").map(|(_, v)| v) {
                Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 1.0 => *n as usize,
                Some(_) => {
                    return Err(format!("entry {i}: `count` must be a whole number of at least 1"))
                }
                None => return Err(format!("entry {i}: missing `count`")),
            };
            let reason = get("reason").ok_or_else(|| format!("entry {i}: missing `reason`"))?;
            if reason.trim().is_empty() {
                return Err(format!(
                    "entry {i} ({rule} in {file}): `reason` is mandatory — say why this \
                     finding is tolerated instead of fixed"
                ));
            }
            entries.push(BaselineEntry { rule, file, context, count, reason });
        }
        Ok(Baseline { entries })
    }

    /// Split findings into new vs. baseline-tolerated, and report stale
    /// entries. An entry tolerates up to `count` findings (e.g. one reason
    /// covering every line of a file); findings past every matching
    /// entry's `count` are new.
    pub fn apply(&self, diags: Vec<Diagnostic>) -> BaselineOutcome {
        let mut matched = vec![0usize; self.entries.len()];
        let mut new = Vec::new();
        let mut legacy = Vec::new();
        for d in diags {
            let hit = self.entries.iter().zip(&matched).position(|(e, &m)| {
                m < e.count
                    && e.rule == d.rule
                    && e.file == d.file
                    && (e.context.is_empty() || d.message.contains(&e.context))
            });
            match hit {
                Some(i) => {
                    matched[i] += 1;
                    legacy.push((i, d));
                }
                None => new.push(d),
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&matched)
            .enumerate()
            .filter(|(_, (e, &m))| m < e.count)
            .map(|(i, _)| i)
            .collect();
        BaselineOutcome { new, legacy, matched, stale }
    }

    /// Render findings as a fresh baseline file — one entry per distinct
    /// `(rule, file, context)`, where context is the finding's leading
    /// backtick-quoted construct (so the entry survives line churn but not
    /// findings of a different shape), counting the findings it covers.
    /// Reasons are stamped `TODO` — the
    /// author must replace each with a real justification before
    /// committing, which is the point: baselining is a decision, not a
    /// default.
    pub fn render(diags: &[Diagnostic]) -> String {
        let mut keys: Vec<(String, &'static str, String)> = diags
            .iter()
            .map(|d| {
                let context = d
                    .message
                    .split('`')
                    .nth(1)
                    .map(|c| format!("`{c}`"))
                    .unwrap_or_default();
                (d.file.clone(), d.rule, context)
            })
            .collect();
        keys.sort();
        let mut counted: Vec<(&(String, &'static str, String), usize)> = Vec::new();
        for key in &keys {
            match counted.last_mut() {
                Some((last, n)) if *last == key => *n += 1,
                _ => counted.push((key, 1)),
            }
        }
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
        for (i, ((file, rule, context), count)) in counted.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"rule\": {}, \"file\": {}, \"context\": {}, \"count\": {count}, \
                 \"reason\": {} }}{}\n",
                json_str(rule),
                json_str(file),
                json_str(context),
                json_str("TODO: justify this legacy finding or fix it"),
                if i + 1 < counted.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A parsed JSON value — only what a baseline file needs.
#[derive(Debug)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(f64),
    #[allow(dead_code)]
    Bool(bool),
    Null,
}

impl Json {
    /// Parse one value off the front of `s`; returns the value and the rest.
    fn parse(s: &str) -> Result<(Json, &str), String> {
        let s = s.trim_start();
        let mut chars = s.chars();
        match chars.next() {
            Some('{') => {
                let mut rest = s[1..].trim_start();
                let mut fields = Vec::new();
                if let Some(r) = rest.strip_prefix('}') {
                    return Ok((Json::Obj(fields), r));
                }
                loop {
                    let (key, r) = Json::parse(rest)?;
                    let Json::Str(key) = key else {
                        return Err("object key must be a string".to_string());
                    };
                    let r = r.trim_start();
                    let r = r.strip_prefix(':').ok_or("expected `:` after key")?;
                    let (val, r) = Json::parse(r)?;
                    fields.push((key, val));
                    let r = r.trim_start();
                    if let Some(r) = r.strip_prefix(',') {
                        rest = r.trim_start();
                    } else if let Some(r) = r.strip_prefix('}') {
                        return Ok((Json::Obj(fields), r));
                    } else {
                        return Err("expected `,` or `}` in object".to_string());
                    }
                }
            }
            Some('[') => {
                let mut rest = s[1..].trim_start();
                let mut items = Vec::new();
                if let Some(r) = rest.strip_prefix(']') {
                    return Ok((Json::Arr(items), r));
                }
                loop {
                    let (val, r) = Json::parse(rest)?;
                    items.push(val);
                    let r = r.trim_start();
                    if let Some(r) = r.strip_prefix(',') {
                        rest = r.trim_start();
                    } else if let Some(r) = r.strip_prefix(']') {
                        return Ok((Json::Arr(items), r));
                    } else {
                        return Err("expected `,` or `]` in array".to_string());
                    }
                }
            }
            Some('"') => {
                let mut out = String::new();
                let mut it = s[1..].char_indices();
                while let Some((i, c)) = it.next() {
                    match c {
                        '"' => return Ok((Json::Str(out), &s[1 + i + 1..])),
                        '\\' => match it.next() {
                            Some((_, '"')) => out.push('"'),
                            Some((_, '\\')) => out.push('\\'),
                            Some((_, '/')) => out.push('/'),
                            Some((_, 'n')) => out.push('\n'),
                            Some((_, 'r')) => out.push('\r'),
                            Some((_, 't')) => out.push('\t'),
                            Some((_, 'u')) => {
                                let mut code = 0u32;
                                for _ in 0..4 {
                                    let (_, h) =
                                        it.next().ok_or("truncated \\u escape")?;
                                    code = code * 16
                                        + h.to_digit(16).ok_or("bad \\u escape")?;
                                }
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err("bad string escape".to_string()),
                        },
                        c => out.push(c),
                    }
                }
                Err("unterminated string".to_string())
            }
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let end = s
                    .find(|c: char| {
                        !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                    })
                    .unwrap_or(s.len());
                let n: f64 =
                    s[..end].parse().map_err(|_| format!("bad number `{}`", &s[..end]))?;
                Ok((Json::Num(n), &s[end..]))
            }
            _ if s.starts_with("true") => Ok((Json::Bool(true), &s[4..])),
            _ if s.starts_with("false") => Ok((Json::Bool(false), &s[5..])),
            _ if s.starts_with("null") => Ok((Json::Null, &s[4..])),
            _ => Err(format!("unexpected JSON at `{}`", s.chars().take(20).collect::<String>())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;

    fn diag(rule: &'static str, file: &str, message: &str) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line: 1,
            col: 1,
            rule,
            severity: Severity::Error,
            message: message.to_string(),
        }
    }

    #[test]
    fn roundtrip_render_parse_apply() {
        let d = diag("wallclock-in-round-loop", "crates/fl/src/centralized.rs", "`Instant::now` reads the wall clock");
        let rendered = Baseline::render(std::slice::from_ref(&d));
        let b = Baseline::parse(&rendered).expect("rendered baseline parses");
        assert_eq!(b.entries.len(), 1);
        assert_eq!(b.entries[0].context, "`Instant::now`");
        let out = b.apply(vec![d]);
        assert!(out.new.is_empty());
        assert_eq!(out.legacy.len(), 1);
        assert!(out.stale.is_empty());
    }

    #[test]
    fn unmatched_findings_are_new_and_unused_entries_stale() {
        let b = Baseline::parse(
            r#"{ "version": 1, "entries": [
                { "rule": "r-old", "file": "a.rs", "context": "", "count": 1, "reason": "legacy" }
            ] }"#,
        )
        .unwrap();
        let out = b.apply(vec![diag("r-new", "b.rs", "fresh finding")]);
        assert_eq!(out.new.len(), 1);
        assert!(out.legacy.is_empty());
        assert_eq!(out.stale, vec![0]);
    }

    #[test]
    fn one_entry_covers_multiple_findings() {
        let b = Baseline::parse(
            r#"{ "version": 1, "entries": [
                { "rule": "r", "file": "a.rs", "context": "`x`", "count": 2, "reason": "both sites checked" }
            ] }"#,
        )
        .unwrap();
        let out = b.apply(vec![diag("r", "a.rs", "use of `x` one"), diag("r", "a.rs", "use of `x` two")]);
        assert_eq!(out.legacy.len(), 2);
        assert!(out.new.is_empty());
    }

    #[test]
    fn missing_reason_is_rejected() {
        let err = Baseline::parse(
            r#"{ "version": 1, "entries": [ { "rule": "r", "file": "a.rs", "count": 1, "reason": " " } ] }"#,
        )
        .unwrap_err();
        assert!(err.contains("reason"), "{err}");
        let err2 = Baseline::parse(
            r#"{ "version": 1, "entries": [ { "rule": "r", "file": "a.rs", "count": 1 } ] }"#,
        )
        .unwrap_err();
        assert!(err2.contains("reason"), "{err2}");
    }

    fn entry(count: usize) -> Baseline {
        Baseline::parse(&format!(
            r#"{{ "version": 1, "entries": [
                {{ "rule": "r", "file": "a.rs", "context": "`x`", "count": {count}, "reason": "checked" }}
            ] }}"#
        ))
        .unwrap()
    }

    #[test]
    fn findings_beyond_an_entrys_count_are_new() {
        let findings = || (0..3).map(|i| diag("r", "a.rs", &format!("use of `x` #{i}"))).collect();
        let out = entry(2).apply(findings());
        assert_eq!(out.legacy.len(), 2);
        assert_eq!(out.new.len(), 1, "the third `x` must not hide behind the first two");
        assert_eq!(out.new[0].message, "use of `x` #2");
        assert_eq!(out.matched, vec![2]);
        assert!(out.stale.is_empty());
        // A second entry for the same finding shape extends the allowance.
        let two = Baseline::parse(
            r#"{ "version": 1, "entries": [
                { "rule": "r", "file": "a.rs", "context": "`x`", "count": 2, "reason": "first" },
                { "rule": "r", "file": "a.rs", "context": "", "count": 1, "reason": "rest" }
            ] }"#,
        )
        .unwrap();
        let out = two.apply(findings());
        assert!(out.new.is_empty());
        assert_eq!(out.matched, vec![2, 1]);
    }

    #[test]
    fn an_entry_matching_fewer_findings_than_its_count_is_stale() {
        let out = entry(3).apply(vec![diag("r", "a.rs", "use of `x`")]);
        assert!(out.new.is_empty());
        assert_eq!(out.matched, vec![1]);
        assert_eq!(out.stale, vec![0], "count 3 over 1 finding must be lowered");
        let exact = entry(1).apply(vec![diag("r", "a.rs", "use of `x`")]);
        assert!(exact.stale.is_empty());
    }

    #[test]
    fn render_counts_findings_per_entry() {
        let d = vec![
            diag("r", "b.rs", "use of `x` here"),
            diag("r", "a.rs", "use of `x` here"),
            diag("r", "a.rs", "use of `x` there"),
            diag("r", "a.rs", "use of `y`"),
        ];
        let b = Baseline::parse(&Baseline::render(&d)).expect("rendered baseline parses");
        let counts: Vec<_> =
            b.entries.iter().map(|e| (e.file.as_str(), e.context.as_str(), e.count)).collect();
        assert_eq!(counts, vec![("a.rs", "`x`", 2), ("a.rs", "`y`", 1), ("b.rs", "`x`", 1)]);
        let out = b.apply(d);
        assert!(out.new.is_empty() && out.stale.is_empty());
    }

    #[test]
    fn missing_or_invalid_count_is_rejected() {
        for count in ["", r#""count": 0,"#, r#""count": 1.5,"#, r#""count": "2","#] {
            let src = format!(
                r#"{{ "version": 1, "entries": [ {{ "rule": "r", "file": "a.rs", {count} "reason": "ok" }} ] }}"#
            );
            let err = Baseline::parse(&src).unwrap_err();
            assert!(err.contains("count"), "{count}: {err}");
        }
    }

    #[test]
    fn malformed_json_is_an_error_not_an_empty_baseline() {
        assert!(Baseline::parse("{ \"version\": 1, \"entries\": [").is_err());
        assert!(Baseline::parse("[]").is_err());
        assert!(Baseline::parse("{ \"entries\": [] }").is_err());
        assert!(Baseline::parse("{ \"version\": 2, \"entries\": [] }").is_err());
    }
}
