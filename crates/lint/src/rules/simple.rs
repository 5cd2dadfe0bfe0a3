//! The line-lexical rules: workspace panic-freedom, the strict hot-path
//! scopes inherited from PR 2, traced-buffer escapes, and the hot-path
//! allocation worklist.

use super::Rule;
use crate::{Analyzed, Finding, Workspace};

/// `panic-free`: no `.unwrap()`, `.expect()`, or panicking macros in any
/// non-test workspace code. Pre-existing sites are grandfathered in the
/// committed baseline; new ones fail. (`.unwrap_or*` never matches — the
/// patterns require the opening paren.)
pub struct PanicFree;

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

impl Rule for PanicFree {
    fn id(&self) -> &'static str {
        "panic-free"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panicking macros in non-test workspace code (baselined)"
    }

    fn baselined(&self) -> bool {
        true
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            scan_lines(file, 0, file.src.code_end, PANIC_PATTERNS, out, |pat| {
                (
                    "panic-free",
                    format!(
                        "`{}` in non-test code — return a typed error instead \
                         (or suppress with a reason / baseline if grandfathered)",
                        pat.trim_end_matches('(')
                    ),
                )
            });
        }
    }
}

/// `hot-path-strict`: the PR 2 rule, scoped to the recovery/serving hot
/// paths — panic-free *and* free of direct slice indexing, so a corrupt
/// structure surfaces as a blamed typed error, never a panic. The scope
/// list is validated against the filesystem: a renamed path or function
/// is a finding (scope rot), not a silent un-lint.
pub struct HotPathStrict;

/// What part of a file the strict rule applies to.
#[derive(Clone, Copy)]
pub enum StrictScope {
    /// The brace-matched body of the named `fn`.
    Fn(&'static str),
    /// Everything up to the trailing `#[cfg(test)]` module.
    UntilTests,
}

/// The strict hot-path scope list (kept from PR 2, extended since).
pub const STRICT_SCOPES: &[(&str, StrictScope)] = &[
    (
        "crates/catalog/src/cascade.rs",
        StrictScope::Fn("checked_descend"),
    ),
    (
        "crates/core/src/explicit.rs",
        StrictScope::Fn("audit_locate"),
    ),
    ("crates/resilience/src/audit.rs", StrictScope::UntilTests),
    ("crates/resilience/src/repair.rs", StrictScope::UntilTests),
    ("crates/serve/src/worker.rs", StrictScope::UntilTests),
    ("crates/shard/src/partition.rs", StrictScope::UntilTests),
    ("crates/shard/src/router.rs", StrictScope::UntilTests),
    ("crates/store/src/snapshot.rs", StrictScope::UntilTests),
    ("crates/store/src/wal.rs", StrictScope::UntilTests),
    ("crates/store/src/recover.rs", StrictScope::UntilTests),
    ("crates/store/src/manifest.rs", StrictScope::UntilTests),
    // PR 9: the wire — hostile bytes reach these paths directly, so the
    // frame decode loop, accept loop, and drain path must surface every
    // anomaly as a typed error, never a panic or an unchecked index.
    ("crates/net/src/proto.rs", StrictScope::UntilTests),
    ("crates/net/src/server.rs", StrictScope::UntilTests),
    // PR 10: the incremental cascade — these walk pointer-linked slot
    // arenas that fault injection corrupts on purpose, so every torn
    // link, bad bridge, or out-of-range slot must come back as a blamed
    // `DynError`, never a panic or an unchecked index.
    (
        "crates/dyn/src/cascade.rs",
        StrictScope::Fn("search_path_into"),
    ),
    ("crates/dyn/src/cascade.rs", StrictScope::Fn("locate_ge")),
    ("crates/dyn/src/cascade.rs", StrictScope::Fn("descend_from")),
    (
        "crates/dyn/src/cascade.rs",
        StrictScope::Fn("native_successor_from"),
    ),
    ("crates/dyn/src/cascade.rs", StrictScope::Fn("apply_insert")),
    ("crates/dyn/src/cascade.rs", StrictScope::Fn("apply_remove")),
];

impl Rule for HotPathStrict {
    fn id(&self) -> &'static str {
        "hot-path-strict"
    }

    fn description(&self) -> &'static str {
        "panic-free AND index-free hot-path scopes; configured scopes must exist (no scope rot)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        if ws.force_apply {
            for file in &ws.files {
                check_strict(file, 0, file.src.code_end, out);
            }
            return;
        }
        for &(rel, scope) in STRICT_SCOPES {
            let Some(file) = ws.file(rel) else {
                // Scope rot: a rename must not silently un-lint a hot path.
                out.push(Finding {
                    rule: "hot-path-strict",
                    file: rel.to_owned(),
                    line: 1,
                    message: format!(
                        "scope rot: configured hot-path scope `{rel}` no longer exists \
                         on disk — update STRICT_SCOPES to follow the rename"
                    ),
                    content: String::new(),
                });
                continue;
            };
            match scope {
                StrictScope::UntilTests => check_strict(file, 0, file.src.code_end, out),
                StrictScope::Fn(name) => match file.fns.iter().find(|f| f.name == name) {
                    Some(f) => {
                        let start = f.line.saturating_sub(1);
                        let end = file
                            .toks
                            .get(f.body_end)
                            .map_or(file.src.code_end, |t| t.line);
                        check_strict(file, start, end, out);
                    }
                    None => out.push(Finding {
                        rule: "hot-path-strict",
                        file: rel.to_owned(),
                        line: 1,
                        message: format!(
                            "scope rot: scoped `fn {name}` not found in `{rel}` — \
                             update STRICT_SCOPES to follow the rename"
                        ),
                        content: String::new(),
                    }),
                },
            }
        }
    }
}

fn check_strict(file: &Analyzed, start: usize, end: usize, out: &mut Vec<Finding>) {
    scan_lines(file, start, end, PANIC_PATTERNS, out, |pat| {
        (
            "hot-path-strict",
            format!(
                "`{}` in a panic-free hot-path scope — return a blamed error instead",
                pat.trim_end_matches('(')
            ),
        )
    });
    for (i, line) in file.src.code.iter().enumerate().take(end).skip(start) {
        if let Some(col) = find_direct_index(line) {
            out.push(Finding {
                rule: "hot-path-strict",
                file: file.src.rel.clone(),
                line: i + 1,
                message: format!(
                    "direct slice indexing (col {}) in a bounds-blamed region — \
                     use `.get(..)` and blame the entry",
                    col + 1
                ),
                content: file.raw_line(i + 1),
            });
        }
    }
}

/// `hot-alloc`: allocations inside the descent/probe hot paths. These are
/// exactly the sites ROADMAP item 1's flat-arena rewrite will remove;
/// the baseline file is the worklist, and any *new* allocation in a hot
/// path fails immediately.
pub struct HotAlloc;

const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new(",
    "vec![",
    "with_capacity(",
    ".to_vec(",
    ".clone(",
    ".collect(",
    "Box::new(",
    "Arc::new(",
    "String::new(",
    ".to_string(",
    ".to_owned(",
    "format!(",
];

/// Descent/probe functions whose allocations feed the flat-arena
/// worklist. Validated for scope rot like the strict scopes.
pub const HOT_FNS: &[(&str, &[&str])] = &[
    (
        "crates/catalog/src/cascade.rs",
        &["descend", "checked_descend"],
    ),
    ("crates/catalog/src/search.rs", &["search_path_fc"]),
    ("crates/core/src/explicit.rs", &["search_explicit_inner"]),
    ("crates/serve/src/worker.rs", &["execute"]),
    // PR 10: the per-key incremental update path — its whole point is
    // per-key-touched cost, so an allocation here is a design regression,
    // not a worklist item.
    (
        "crates/dyn/src/cascade.rs",
        &[
            "search_path_into",
            "locate_ge",
            "descend_from",
            "native_successor_from",
            "apply_insert",
            "apply_remove",
        ],
    ),
];

impl Rule for HotAlloc {
    fn id(&self) -> &'static str {
        "hot-alloc"
    }

    fn description(&self) -> &'static str {
        "allocations in descent/probe hot paths (flat-arena rewrite worklist; baselined)"
    }

    fn baselined(&self) -> bool {
        true
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        if ws.force_apply {
            for file in &ws.files {
                for f in &file.fns {
                    check_alloc(file, f.line, body_end_line(file, f), out);
                }
            }
            return;
        }
        for &(rel, fn_names) in HOT_FNS {
            let Some(file) = ws.file(rel) else {
                out.push(scope_rot("hot-alloc", rel, "file"));
                continue;
            };
            for name in fn_names {
                match file.fns.iter().find(|f| f.name == *name) {
                    Some(f) => check_alloc(file, f.line, body_end_line(file, f), out),
                    None => out.push(scope_rot("hot-alloc", rel, name)),
                }
            }
        }
    }
}

fn body_end_line(file: &Analyzed, f: &crate::scope::FnItem) -> usize {
    file.toks
        .get(f.body_end)
        .map_or(file.src.code_end, |t| t.line)
}

pub(super) fn scope_rot(rule: &'static str, rel: &str, what: &str) -> Finding {
    Finding {
        rule,
        file: rel.to_owned(),
        line: 1,
        message: format!(
            "scope rot: configured scope entry `{what}` missing from `{rel}` — \
             update the scope list to follow the rename"
        ),
        content: String::new(),
    }
}

fn check_alloc(file: &Analyzed, start_line: usize, end_line: usize, out: &mut Vec<Finding>) {
    scan_lines(
        file,
        start_line.saturating_sub(1),
        end_line,
        ALLOC_PATTERNS,
        out,
        |pat| {
            (
                "hot-alloc",
                format!(
                    "allocation `{}` in a descent/probe hot path — flat-arena \
                     rewrite worklist (ROADMAP item 1)",
                    pat.trim_end_matches('(')
                ),
            )
        },
    );
}

/// Scan stripped lines `[start, end)` for any of `patterns`, producing one
/// finding per (line, pattern) via `describe`.
fn scan_lines(
    file: &Analyzed,
    start: usize,
    end: usize,
    patterns: &[&str],
    out: &mut Vec<Finding>,
    describe: impl Fn(&str) -> (&'static str, String),
) {
    for (i, line) in file.src.code.iter().enumerate().take(end).skip(start) {
        for pat in patterns {
            if line.contains(pat) {
                let (rule, message) = describe(pat);
                out.push(Finding {
                    rule,
                    file: file.src.rel.clone(),
                    line: i + 1,
                    message,
                    content: file.raw_line(i + 1),
                });
            }
        }
    }
}

/// Column of the first direct-indexing site: a `[` whose previous
/// non-space character is an identifier char, `)`, or `]`. Array/slice
/// type syntax and attributes never match — whether preceded by a
/// punctuation token (`&`, `:`, `#`, `<`, ...), a lifetime (`&'a [u8]`),
/// or the `mut` keyword (`&mut [u8]`) — and `vec![..]` / other macro
/// brackets are skipped because `!` precedes the bracket.
pub fn find_direct_index(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let Some(j) = bytes[..i].iter().rposition(|&c| c != b' ') else {
            continue;
        };
        let p = bytes[j];
        if p == b')' || p == b']' {
            return Some(i);
        }
        if !(p.is_ascii_alphanumeric() || p == b'_') {
            continue;
        }
        // Walk back over the identifier: a lifetime or the `mut`
        // keyword precedes a slice *type*, not an index expression.
        let mut s = j;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        let is_lifetime = s > 0 && bytes[s - 1] == b'\'';
        if !is_lifetime && &line[s..=j] != "mut" {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn run(rule: &dyn Rule, src: &str) -> Vec<Finding> {
        let ws = Workspace::single_text("t.rs", src);
        let mut out = Vec::new();
        rule.check(&ws, &mut out);
        out
    }

    #[test]
    fn panic_free_catches_macros_and_methods_outside_tests() {
        let f = run(
            &PanicFree,
            "fn f() { x.unwrap(); panic!(\"no\"); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let f = run(
            &PanicFree,
            "fn f() { x.unwrap_or_else(|p| p.into_inner()); y.unwrap_or(0); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn direct_indexing_is_caught_and_types_are_not() {
        assert!(find_direct_index("let y = keys[i];").is_some());
        assert!(find_direct_index("bridges[0][5] += 1;").is_some());
        assert!(find_direct_index("f(x)[0]").is_some());
        assert!(find_direct_index("fn f(keys: &[K]) -> [u32; 4] {").is_none());
        assert!(find_direct_index("fn take(&mut self) -> Result<&'a [u8], E> {").is_none());
        assert!(find_direct_index("fn read(r: &mut R, buf: &mut [u8]) {").is_none());
        assert!(find_direct_index("let x = is_mut[0];").is_some());
        assert!(find_direct_index("#[cfg(test)]").is_none());
        assert!(find_direct_index("vec![1, 2]").is_none());
    }

    #[test]
    fn strict_flags_indexing_in_fixture_mode() {
        let f = run(&HotPathStrict, "fn hot() { let x = v[0].unwrap(); }\n");
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn hot_alloc_flags_allocations_in_fixture_mode() {
        let f = run(
            &HotAlloc,
            "fn descend(v: &[u32]) -> Vec<u32> { v.to_vec() }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("flat-arena"));
    }
}
