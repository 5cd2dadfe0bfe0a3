//! `commit-order`: syntactic commit-point ordering inside each function
//! of the durability layer.
//!
//! The durability contract has three orderings that a refactor must never
//! silently invert — each is checked *within a function body* by token
//! position, so an "ack before fsync" slip fails `xtask lint` in CI, not
//! the kill -9 crash gate three jobs later:
//!
//! 1. **temp-write → fsync → rename** — any function that both writes
//!    file bytes (`write_all`) and commits via `rename` must fsync
//!    between the last write and the first rename: renaming an unsynced
//!    temp file can commit garbage after a crash.
//! 2. **WAL-append before in-memory apply** — a function that both
//!    appends to the WAL (`append`/`append_batch`) and applies ops to a
//!    live service (`svc.update_batch(..)` / `cluster.update_batch(..)`)
//!    must append first: the acked batch must be on disk before any
//!    reader can observe its effects.
//! 3. **persist before manifest commit** — a function that persists
//!    epoch/snapshot data and commits a manifest (`write_manifest`) must
//!    persist first: the manifest rename is the commit point, and
//!    committing a manifest that points at unwritten data is a torn
//!    split.
//!
//! Scope: `crates/store/src/{snapshot,wal,manifest,frame,store}.rs` and
//! `crates/shard/src/durable.rs`. A scoped file missing from the
//! workspace is a finding (scope rot), not a silent un-lint.

use super::simple::scope_rot;
use super::Rule;
use crate::lexer::SpannedTok;
use crate::{call_at, Finding, Workspace};

pub struct CommitOrder;

const SCOPE: &[&str] = &[
    "crates/store/src/snapshot.rs",
    "crates/store/src/wal.rs",
    "crates/store/src/manifest.rs",
    "crates/store/src/frame.rs",
    "crates/store/src/store.rs",
    "crates/shard/src/durable.rs",
];

impl Rule for CommitOrder {
    fn id(&self) -> &'static str {
        "commit-order"
    }

    fn description(&self) -> &'static str {
        "temp-write→fsync→rename, WAL-append-before-apply, persist-before-manifest orderings"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        if !ws.force_apply {
            return check_scope(ws, SCOPE, out);
        }
        for file in &ws.files {
            check_file(file, out);
        }
    }
}

/// Check every file of `scope`, reporting each one the workspace lacks.
fn check_scope(ws: &Workspace, scope: &[&str], out: &mut Vec<Finding>) {
    for &rel in scope {
        match ws.file(rel) {
            Some(file) => check_file(file, out),
            None => out.push(scope_rot("commit-order", rel, "file")),
        }
    }
}

fn check_file(file: &crate::Analyzed, out: &mut Vec<Finding>) {
    for f in &file.fns {
        if f.body_start >= file.toks.len() || f.body_end >= file.toks.len() {
            continue;
        }
        let body = &file.toks[f.body_start..=f.body_end];
        check_body(&file.src.rel, &f.name, body, file, out);
    }
}

fn check_body(
    rel: &str,
    fn_name: &str,
    body: &[SpannedTok],
    file: &crate::Analyzed,
    out: &mut Vec<Finding>,
) {
    let mut last_write: Option<usize> = None;
    let mut syncs: Vec<usize> = Vec::new();
    let mut first_rename: Option<usize> = None;
    let mut first_append: Option<usize> = None;
    let mut first_apply: Option<usize> = None;
    let mut first_persist: Option<usize> = None;
    let mut first_manifest: Option<usize> = None;

    for i in 0..body.len() {
        let Some(name) = call_at(body, i) else {
            continue;
        };
        let after_dot = i >= 1 && body[i - 1].is('.');
        match name {
            "write_all" if after_dot => last_write = Some(i),
            "sync_all" | "sync_data" if after_dot => syncs.push(i),
            "rename" => {
                first_rename.get_or_insert(i);
            }
            "append" | "append_batch" if after_dot => {
                first_append.get_or_insert(i);
            }
            "update_batch" if after_dot && receiver_is(body, i, &["svc", "cluster"]) => {
                first_apply.get_or_insert(i);
            }
            "persist_epoch" | "persist_snapshot" | "write_snapshot_file" => {
                first_persist.get_or_insert(i);
            }
            "write_manifest" => {
                first_manifest.get_or_insert(i);
            }
            _ => {}
        }
    }

    let mut report = |at: usize, msg: String| {
        out.push(Finding {
            rule: "commit-order",
            file: rel.to_owned(),
            line: body[at].line,
            message: format!("{msg} in `{fn_name}`"),
            content: file.raw_line(body[at].line),
        });
    };

    // 1. temp-write → fsync → rename.
    if let (Some(w), Some(r)) = (last_write, first_rename) {
        if w < r && !syncs.iter().any(|&s| w < s && s < r) {
            report(
                r,
                "commit point out of order: `rename` commits bytes never fsynced — \
                 the temp-write→fsync→rename protocol requires a sync between the \
                 last `write_all` and the rename"
                    .into(),
            );
        }
    }

    // 2. WAL-append before in-memory apply.
    if let (Some(a), Some(p)) = (first_append, first_apply) {
        if p < a {
            report(
                p,
                "write-ahead violated: in-memory apply precedes the WAL append — \
                 an acked batch would not survive a crash between the two"
                    .into(),
            );
        }
    } else if first_apply.is_some() && first_append.is_none() {
        report(
            first_apply.unwrap_or(0),
            "in-memory apply with no WAL append in the same function — durable \
             mutators must log before applying (or route through one that does)"
                .into(),
        );
    }

    // 3. persist before manifest commit.
    if let (Some(p), Some(m)) = (first_persist, first_manifest) {
        if m < p {
            report(
                m,
                "manifest committed before the data it points at was persisted — \
                 the manifest rename is the commit point and must come last"
                    .into(),
            );
        }
    }
}

/// Whether the receiver ident directly before `.name(` at `i` is one of
/// `wanted` (e.g. `self.svc.update_batch(..)` → `svc`).
fn receiver_is(body: &[SpannedTok], i: usize, wanted: &[&str]) -> bool {
    if i >= 2 && body[i - 1].is('.') {
        if let Some(id) = body[i - 2].ident() {
            return wanted.contains(&id);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn findings(src: &str) -> Vec<Finding> {
        let ws = Workspace::single_text("t.rs", src);
        let mut out = Vec::new();
        CommitOrder.check(&ws, &mut out);
        out
    }

    #[test]
    fn missing_scoped_file_is_scope_rot() {
        let ws = Workspace::single_text("crates/store/src/wal.rs", "fn f() {}\n");
        let mut out = Vec::new();
        check_scope(
            &ws,
            &["crates/store/src/wal.rs", "crates/store/src/gone.rs"],
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "commit-order");
        assert_eq!(out[0].file, "crates/store/src/gone.rs");
        assert!(out[0].message.contains("scope rot"), "{out:?}");
    }

    #[test]
    fn rename_without_intervening_fsync_is_flagged() {
        let f = findings(
            "fn bad(f: &F) {\n    f.write_all(b);\n    fs::rename(a, b);\n    f.sync_all();\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("never fsynced"));
        let ok = findings(
            "fn good(f: &F) {\n    f.write_all(b);\n    f.sync_all();\n    fs::rename(a, b);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn gated_fsync_between_write_and_rename_passes() {
        // The real atomic_write gates fsync on a flag; the token still
        // sits between write and rename, which is what the rule checks.
        let ok = findings(
            "fn write(f: &F, fsync: bool) {\n    f.write_all(b);\n    if fsync { f.sync_all(); }\n    fs::rename(a, b);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn apply_before_append_is_flagged() {
        let f = findings(
            "fn bad(&self, ops: &[Op]) {\n    self.svc.update_batch(ops);\n    self.store.append_batch(ops);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("write-ahead violated"));
        let ok = findings(
            "fn good(&self, ops: &[Op]) {\n    self.store.append_batch(ops);\n    self.svc.update_batch(ops);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn apply_with_no_append_at_all_is_flagged() {
        let f = findings("fn bad(&self, ops: &[Op]) {\n    self.cluster.update_batch(ops);\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("no WAL append"));
    }

    #[test]
    fn manifest_before_persist_is_flagged() {
        let f = findings(
            "fn bad(&self) {\n    write_manifest::<K>(d, m, true);\n    persist_epoch(c, d, e, s);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("commit point and must come last"));
        let ok = findings(
            "fn good(&self) {\n    persist_epoch(c, d, e, s);\n    write_manifest::<K>(d, m, true);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }
}
