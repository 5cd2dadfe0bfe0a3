//! `fc-lint`: workspace-wide static protocol analysis for the fc stack.
//!
//! A lightweight Rust tokenizer ([`lexer`]) and brace-scoped block parser
//! ([`scope`]) feed a small set of protocol rules ([`rules`]):
//!
//! | rule | checks |
//! |---|---|
//! | `lock-discipline` | guards held across fsync / channel send / generation or routing publish; inconsistent pairwise lock order |
//! | `commit-order` | temp-write→fsync→rename, WAL-append-before-apply, persist-before-manifest orderings |
//! | `panic-free` | no `unwrap`/`expect`/panicking macros in any non-test workspace code |
//! | `hot-path-strict` | the PR 2 rule: panic-free *and* index-free inside the recovery/serving hot-path scopes |
//! | `hot-alloc` | allocations inside descent/probe hot paths (the flat-arena rewrite worklist) |
//!
//! Findings can be silenced two ways, both auditable:
//!
//! * inline: `// fc-lint: allow(<rule>) -- <reason>` (the reason is
//!   required — a reason-less suppression is itself a finding, and so is
//!   one that silences no finding of a rule that ran);
//! * the committed baseline `lint-baseline.txt` for grandfathered
//!   workspace-sweep findings ([`baseline`]).
//!
//! Every rule ships with a canary fixture pair under
//! `crates/lint/fixtures/` (`<rule>_bad.rs` must be flagged,
//! `<rule>_good.rs` must stay clean); `tests/lint_selftest.rs` asserts
//! both, so the analyzer is itself tested the same way the PR 2 discipline
//! analyzer gates on detected canaries.

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod source;

use baseline::Baseline;
use lexer::{lex, SpannedTok};
use scope::{functions, FnItem};
use source::SourceFile;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (e.g. `lock-discipline`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable diagnostic.
    pub message: String,
    /// Trimmed raw source line, used for baseline matching.
    pub content: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A preprocessed file plus its token stream and function map. Tokens are
/// lexed over non-test code only (`code_end`).
pub struct Analyzed {
    pub src: SourceFile,
    pub toks: Vec<SpannedTok>,
    pub fns: Vec<FnItem>,
}

impl Analyzed {
    fn new(src: SourceFile) -> Analyzed {
        let toks = lex(&src.code, src.code_end);
        let fns = functions(&toks);
        Analyzed { src, toks, fns }
    }

    /// The trimmed raw source at 1-based `line` (empty when out of range).
    pub fn raw_line(&self, line: usize) -> String {
        self.src
            .raw
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    }
}

/// Side effects a function (transitively) performs, for the lock rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// Calls `sync_all`/`sync_data` (possibly through callees).
    pub fsync: bool,
    /// Sends on a channel.
    pub send: bool,
    /// Publishes a generation or routing state (`.write()` on its cell).
    pub publish: bool,
}

impl Effects {
    fn any(&self) -> bool {
        self.fsync || self.send || self.publish
    }

    fn union(&mut self, other: Effects) -> bool {
        let before = *self;
        self.fsync |= other.fsync;
        self.send |= other.send;
        self.publish |= other.publish;
        *self != before
    }
}

/// The analyzed workspace: every non-test source file under `crates/`,
/// plus the transitive function-effect map the lock rule consumes.
pub struct Workspace {
    pub files: Vec<Analyzed>,
    /// Function name → transitive effects (name-based over-approximation:
    /// same-named functions merge, which errs toward reporting).
    pub effects: HashMap<String, Effects>,
    /// Fixture/selftest mode: rules apply to every file instead of their
    /// configured path scopes.
    pub force_apply: bool,
}

impl Workspace {
    /// Load every `.rs` file under `<root>/crates`, skipping `target/`
    /// and fixture corpora.
    pub fn load(root: &Path) -> Result<Workspace, Vec<String>> {
        let mut paths = Vec::new();
        collect_rs(&root.join("crates"), &mut paths);
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        let mut errors = Vec::new();
        for path in &paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            match SourceFile::load(path, &rel) {
                Ok(src) => files.push(Analyzed::new(src)),
                Err(e) => errors.push(e),
            }
        }
        if !errors.is_empty() {
            return Err(errors);
        }
        Ok(Workspace::from_files(files, false))
    }

    /// A one-file workspace for fixture selftests: rules apply regardless
    /// of their path scopes.
    pub fn single(path: &Path) -> Result<Workspace, String> {
        let rel = path.to_string_lossy().replace('\\', "/");
        let src = SourceFile::load(path, &rel)?;
        Ok(Workspace::from_files(vec![Analyzed::new(src)], true))
    }

    /// Same as [`Workspace::single`] but over in-memory source.
    pub fn single_text(rel: &str, text: &str) -> Workspace {
        Workspace::from_files(vec![Analyzed::new(SourceFile::from_text(rel, text))], true)
    }

    fn from_files(files: Vec<Analyzed>, force_apply: bool) -> Workspace {
        let effects = compute_effects(&files);
        Workspace {
            files,
            effects,
            force_apply,
        }
    }

    /// Look up a file by workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&Analyzed> {
        self.files.iter().find(|f| f.src.rel == rel)
    }
}

/// Direct + transitive effect computation: seed each function with the
/// effects its own body performs, then propagate through call tokens
/// (`name(`, `.name(`, `path::name(`) by name to a fixpoint. The
/// arguments of a `spawn(..)` call are skipped: a spawned closure runs on
/// its own thread, under none of the spawner's guards.
fn compute_effects(files: &[Analyzed]) -> HashMap<String, Effects> {
    // Method names that must never propagate by bare name: they collide
    // with std APIs (`Vec::swap`, atomics' `swap`, io `write`) and the
    // direct patterns below already catch the real sites.
    const NO_PROPAGATE: &[&str] = &[
        "swap",
        "send",
        "lock",
        "read",
        "write",
        "sync_all",
        "sync_data",
    ];
    let mut map: HashMap<String, Effects> = HashMap::new();
    // Call lists per function, gathered once.
    let mut calls: Vec<(String, Vec<String>)> = Vec::new();
    for file in files {
        for f in &file.fns {
            let body = &file.toks[f.body_start..=f.body_end.min(file.toks.len() - 1)];
            let mut eff = Effects::default();
            let mut callees = Vec::new();
            let mut i = 0;
            while i < body.len() {
                if let Some(name) = call_at(body, i) {
                    match name {
                        "spawn" => i = closing_paren(body, i),
                        "sync_all" | "sync_data" => eff.fsync = true,
                        "send" if body.get(i.wrapping_sub(1)).is_some_and(|t| t.is('.')) => {
                            eff.send = true
                        }
                        "write" if publishes_at(body, i) => eff.publish = true,
                        _ if !NO_PROPAGATE.contains(&name) => callees.push(name.to_owned()),
                        _ => {}
                    }
                }
                i += 1;
            }
            map.entry(f.name.clone()).or_default().union(eff);
            calls.push((f.name.clone(), callees));
        }
    }
    // Fixpoint: merge callee effects into callers until stable.
    loop {
        let mut changed = false;
        for (name, callees) in &calls {
            let mut acc = Effects::default();
            for c in callees {
                if let Some(e) = map.get(c) {
                    acc.union(*e);
                }
            }
            if acc.any() {
                if let Some(e) = map.get_mut(name) {
                    changed |= e.union(acc);
                }
            }
        }
        if !changed {
            break;
        }
    }
    map
}

/// If token `i` is an identifier immediately followed by `(` — optionally
/// through a `::<...>` turbofish — return its name.
pub(crate) fn call_at(toks: &[SpannedTok], i: usize) -> Option<&str> {
    let name = toks.get(i)?.ident()?;
    let mut j = i + 1;
    // Skip `::<...>` (turbofish) between name and call parens.
    if toks.get(j).is_some_and(|t| t.is(':')) && toks.get(j + 1).is_some_and(|t| t.is(':')) {
        if toks.get(j + 2).is_some_and(|t| t.is('<')) {
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < toks.len() {
                if toks[k].is('<') {
                    depth += 1;
                } else if toks[k].is('>') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
        } else {
            // `path::name(...)`: the *next* segment is the call, not this
            // identifier.
            return None;
        }
    }
    if toks.get(j).is_some_and(|t| t.is('(')) {
        Some(name)
    } else {
        None
    }
}

/// Index of the `)` closing the first `(` after token `i` (the last
/// index when unbalanced).
fn closing_paren(toks: &[SpannedTok], i: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is('(') {
            depth += 1;
        } else if t.is(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Whether the receiver chain of the method call at token `i` (an ident
/// preceded by `.`) contains an identifier containing `needle`.
pub(crate) fn receiver_mentions(toks: &[SpannedTok], i: usize, needle: &str) -> bool {
    let mut j = i;
    // Walk back over `ident . ident . ... .` before the method name.
    while j >= 1 && toks[j - 1].is('.') {
        if j < 2 {
            return false;
        }
        match toks[j - 2].ident() {
            Some(id) => {
                if id.contains(needle) {
                    return true;
                }
                j -= 2;
            }
            None => return false,
        }
    }
    false
}

/// Whether token `i` is the `write` of a `.write()` on a generation or
/// routing cell: the publish of a new generation or routing state.
pub(crate) fn publishes_at(toks: &[SpannedTok], i: usize) -> bool {
    toks.get(i).and_then(|t| t.ident()) == Some("write")
        && i >= 1
        && toks[i - 1].is('.')
        && toks.get(i + 1).is_some_and(|t| t.is('('))
        && toks.get(i + 2).is_some_and(|t| t.is(')'))
        && (receiver_mentions(toks, i, "generation") || receiver_mentions(toks, i, "routing"))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let skip = path
                .file_name()
                .is_some_and(|n| n == "target" || n == "fixtures");
            if !skip {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Outcome of a lint run, after suppression and baseline filtering.
pub struct Report {
    /// Findings that fail the run.
    pub findings: Vec<Finding>,
    /// Findings silenced by reasoned inline suppressions.
    pub suppressed: usize,
    /// Findings silenced by the committed baseline.
    pub grandfathered: usize,
    /// Baseline entries no longer matched by any finding.
    pub stale_baseline: Vec<String>,
    /// Rules that ran.
    pub rules_run: Vec<&'static str>,
}

/// Run `rule_ids` (every registered rule when empty) over the workspace at
/// `root`, applying suppressions and — for baselined rules — the baseline
/// at `baseline_path`.
pub fn run(
    root: &Path,
    rule_ids: &[String],
    baseline_path: Option<&Path>,
) -> Result<Report, Vec<String>> {
    let ws = Workspace::load(root)?;
    let rules = rules::select(rule_ids).map_err(|e| vec![e])?;
    let mut baseline = match baseline_path {
        Some(p) => Baseline::load(p).map_err(|e| vec![e])?,
        None => Baseline::default(),
    };
    let mut raw = Vec::new();
    for rule in &rules {
        rule.check(&ws, &mut raw);
    }
    rules::check_suppression_comments(&ws, &mut raw);
    let rules_run: Vec<&'static str> = rules.iter().map(|r| r.id()).collect();
    let suppressed = apply_suppressions(&ws, &rules_run, &mut raw);
    let mut report = Report {
        findings: Vec::new(),
        suppressed,
        grandfathered: 0,
        stale_baseline: Vec::new(),
        rules_run,
    };
    let baselined: BTreeMap<&str, bool> = rules.iter().map(|r| (r.id(), r.baselined())).collect();
    for f in raw {
        if baselined.get(f.rule).copied().unwrap_or(false) && baseline.consume(&f) {
            report.grandfathered += 1;
        } else {
            report.findings.push(f);
        }
    }
    report.stale_baseline = baseline.stale();
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Run every baselined rule and render a fresh baseline for the surviving
/// (post-suppression) findings.
pub fn render_baseline(root: &Path) -> Result<String, Vec<String>> {
    let report = run(root, &[], None)?;
    let baselined: Vec<&str> = rules::all()
        .iter()
        .filter(|r| r.baselined())
        .map(|r| r.id())
        .collect();
    let keep: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| baselined.contains(&f.rule))
        .collect();
    Ok(Baseline::render(&keep))
}

/// Run a single rule over one fixture file (selftest entry point):
/// path scopes are ignored, suppressions are honored (and reported when
/// they silence nothing), no baseline.
pub fn check_fixture(rule_id: &str, path: &Path) -> Result<Vec<Finding>, String> {
    let ws = Workspace::single(path)?;
    let rules = rules::select(std::slice::from_ref(&rule_id.to_owned()))?;
    let mut out = Vec::new();
    for rule in &rules {
        rule.check(&ws, &mut out);
    }
    rules::check_suppression_comments(&ws, &mut out);
    let ran: Vec<&str> = rules.iter().map(|r| r.id()).collect();
    apply_suppressions(&ws, &ran, &mut out);
    Ok(out)
}

/// Drop every finding a reasoned inline suppression silences and return
/// how many were dropped. Then report, as a `suppression` finding, every
/// reasoned non-test suppression naming a rule in `rules_run` that
/// silenced none of that rule's findings: it excuses nothing, so it only
/// hides the next real finding on its line.
fn apply_suppressions(ws: &Workspace, rules_run: &[&str], findings: &mut Vec<Finding>) -> usize {
    let mut used: HashSet<(String, usize, &str)> = HashSet::new();
    let before = findings.len();
    findings.retain(|f| {
        let silenced = ws
            .file(&f.file)
            .is_some_and(|a| a.src.is_suppressed(f.rule, f.line));
        if silenced {
            used.insert((f.file.clone(), f.line, f.rule));
        }
        !silenced
    });
    let dropped = before - findings.len();
    for file in &ws.files {
        for s in &file.src.suppressions {
            if s.at_line > file.src.code_end || !s.has_reason {
                continue;
            }
            for r in &s.rules {
                let key = (file.src.rel.clone(), s.target_line, r.as_str());
                if rules_run.contains(&r.as_str()) && !used.contains(&key) {
                    findings.push(Finding {
                        rule: "suppression",
                        file: file.src.rel.clone(),
                        line: s.at_line,
                        message: format!(
                            "fc-lint suppression `allow({r})` silences no `{r}` finding — delete it"
                        ),
                        content: file.raw_line(s.at_line),
                    });
                }
            }
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{PanicFree, Rule};

    #[test]
    fn a_suppression_that_silences_nothing_is_reported() {
        let src = "\
fn f(v: Option<u32>) -> u32 {
    // fc-lint: allow(panic-free) -- stale: nothing below can panic
    v.unwrap_or(0)
}
fn g(v: Option<u32>) -> u32 {
    v.unwrap() // fc-lint: allow(panic-free) -- the caller checked it
}
";
        let ws = Workspace::single_text("t.rs", src);
        let mut out = Vec::new();
        PanicFree.check(&ws, &mut out);
        assert_eq!(apply_suppressions(&ws, &["panic-free"], &mut out), 1);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), ("suppression", 2));
        assert!(out[0].message.contains("silences no"), "{}", out[0].message);

        // A rule that did not run cannot vouch for its suppressions.
        let mut none = Vec::new();
        assert_eq!(apply_suppressions(&ws, &["hot-alloc"], &mut none), 0);
        assert!(none.is_empty(), "{none:?}");
    }
}
