//! The rule registry and the shared scope configuration.
//!
//! Every rule implements [`Rule`] and registers in [`all`]. Rules whose
//! findings may be grandfathered via the committed baseline return `true`
//! from [`Rule::baselined`]; the strict protocol rules (`hot-path-strict`,
//! `commit-order`) are zero-tolerance — only reasoned inline suppressions
//! can silence them.

mod commit;
mod locks;
mod simple;

use crate::{Finding, Workspace};

pub use commit::CommitOrder;
pub use locks::LockDiscipline;
pub use simple::{HotAlloc, HotPathStrict, PanicFree};

/// A static-analysis rule.
pub trait Rule {
    /// Stable id, used in `allow(...)`, `--rule`, baseline entries, and
    /// fixture file names.
    fn id(&self) -> &'static str;
    /// One-line description for `xtask lint --list`.
    fn description(&self) -> &'static str;
    /// Whether the committed baseline may grandfather this rule's
    /// findings.
    fn baselined(&self) -> bool {
        false
    }
    /// Emit findings for the workspace.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Every registered rule, in reporting order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(LockDiscipline),
        Box::new(CommitOrder),
        Box::new(HotPathStrict),
        Box::new(PanicFree),
        Box::new(HotAlloc),
    ]
}

/// Resolve rule ids to rules; empty input selects all.
pub fn select(ids: &[String]) -> Result<Vec<Box<dyn Rule>>, String> {
    let registry = all();
    if ids.is_empty() {
        return Ok(registry);
    }
    let mut out = Vec::new();
    for id in ids {
        match registry.iter().position(|r| r.id() == id) {
            Some(_) => {}
            None => {
                let known: Vec<&str> = registry.iter().map(|r| r.id()).collect();
                return Err(format!("unknown rule `{id}` (known: {})", known.join(", ")));
            }
        }
    }
    for r in all() {
        if ids.iter().any(|id| id == r.id()) {
            out.push(r);
        }
    }
    Ok(out)
}

/// The meta-rule over the suppression grammar itself: every
/// `fc-lint: allow(...)` must carry a non-empty `-- <reason>` and name
/// only known rule ids. Runs on every lint invocation.
pub fn check_suppression_comments(ws: &Workspace, out: &mut Vec<Finding>) {
    let known: Vec<&'static str> = all().iter().map(|r| r.id()).collect();
    for file in &ws.files {
        for s in &file.src.suppressions {
            if s.at_line > file.src.code_end {
                // Suppressions inside test modules are inert (rules skip
                // test code) — don't audit them.
                continue;
            }
            if !s.has_reason {
                out.push(Finding {
                    rule: "suppression",
                    file: file.src.rel.clone(),
                    line: s.at_line,
                    message: "fc-lint suppression without a required reason \
                              (grammar: `fc-lint: allow(<rule>) -- <reason>`)"
                        .into(),
                    content: file.raw_line(s.at_line),
                });
            }
            for r in &s.rules {
                if !known.contains(&r.as_str()) {
                    out.push(Finding {
                        rule: "suppression",
                        file: file.src.rel.clone(),
                        line: s.at_line,
                        message: format!(
                            "fc-lint suppression names unknown rule `{r}` (known: {})",
                            known.join(", ")
                        ),
                        content: file.raw_line(s.at_line),
                    });
                }
            }
        }
    }
}

/// Whether `rel` falls inside the crates the concurrency rules watch.
pub(crate) fn in_concurrent_crates(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/")
        || rel.starts_with("crates/shard/src/")
        || rel.starts_with("crates/store/src/")
        || rel.starts_with("crates/net/src/")
}

/// Whether `rel` is part of the network ingress, where the
/// socket-write-under-guard event class applies (a blocked peer must
/// never be able to extend a lock hold).
pub(crate) fn in_net_crate(rel: &str) -> bool {
    rel.starts_with("crates/net/src/")
}

/// The crate a workspace-relative path belongs to (for per-crate lock
/// identity scoping).
pub(crate) fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or(rel)
}
