//! `lock-discipline`: the static guard-scope graph.
//!
//! For every `Mutex`/`RwLock` acquisition in the serving, sharding, and
//! durability crates (`.lock()`, `.read()`, `.write()` with empty
//! argument lists) the rule computes the guard's static scope:
//!
//! * `let g = ...lock()...;` pins the guard until its enclosing block
//!   closes or an explicit `drop(g)`;
//! * an un-bound acquisition (`self.lock().wal.append(..)`) is a
//!   statement-temporary, live to the end of its statement.
//!
//! Inside a live guard scope the rule reports:
//!
//! * **fsync under guard** — a call that (transitively, via the
//!   name-propagated effect map) reaches `sync_all`/`sync_data`: holding
//!   a lock across a disk flush serializes every peer behind hardware
//!   latency;
//! * **channel send under guard** — `.send(..)` can park the sender on a
//!   bounded channel while peers spin on the lock;
//! * **publish under guard** — `.write()` on a generation or routing
//!   cell (a receiver naming `generation` or `routing`), or a call
//!   reaching one: the write lock waits for every in-flight pin to
//!   release its read lock, so whoever holds the outer guard waits behind
//!   readers, and the cell nests inside that lock's order;
//! * **socket write under guard** (`crates/net` only) — `.write_all(..)`
//!   or `.flush(..)` while a guard is live: a slow or stalled peer's TCP
//!   backpressure would extend the hold for as long as the kernel buffer
//!   stays full, turning one bad client into a server-wide stall;
//! * **inconsistent lock order** — if two named locks of one crate are
//!   ever acquired in both `A→B` and `B→A` nested order anywhere in that
//!   crate, both sites are reported (the classic deadlock shape).
//!
//! Identity is lexical (the receiver's field name), scoped per crate so
//! same-named fields in different crates cannot alias. Acquisitions whose
//! receiver is just `self` participate in held-across checks but not in
//! order checks (no stable identity).
//!
//! Some of these holds are *intentional* (a WAL whose append order must
//! equal the apply order serializes by design); those sites carry
//! `// fc-lint: allow(lock-discipline) -- <reason>` so the decision is
//! written down next to the code.

use super::{crate_of, in_concurrent_crates, in_net_crate, Rule};
use crate::lexer::SpannedTok;
use crate::scope::FnItem;
use crate::{call_at, publishes_at, Analyzed, Effects, Finding, Workspace};
use std::collections::{BTreeMap, BTreeSet};

pub struct LockDiscipline;

/// How long a guard lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardEnd {
    /// Until the brace depth drops below this binding depth.
    Block(i32),
    /// Until the next `;` at this depth (statement temporary).
    Stmt(i32),
}

#[derive(Debug, Clone)]
struct Guard {
    /// Lock identity: receiver field name, or `None` for bare `self`.
    name: Option<String>,
    /// Bound variable (`let g = ...`), for `drop(g)` tracking.
    bound: Option<String>,
    end: GuardEnd,
    line: usize,
}

impl Rule for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "no guard held across fsync/send/publish/socket write; \
         consistent pairwise lock order"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // (crate, outer, inner) -> first site, for the order graph.
        let mut edges: BTreeMap<(String, String, String), (String, usize, String)> =
            BTreeMap::new();
        for file in &ws.files {
            if !ws.force_apply && !in_concurrent_crates(&file.src.rel) {
                continue;
            }
            for f in &file.fns {
                scan_fn(ws, file, f, out, &mut edges);
            }
        }
        // Inconsistent pairwise order: both A→B and B→A observed within
        // one crate.
        for ((krate, a, b), (file, line, fn_name)) in &edges {
            if a < b {
                if let Some((file2, line2, fn2)) = edges.get(&(krate.clone(), b.clone(), a.clone()))
                {
                    for (fi, li, fun, first, second) in
                        [(file, line, fn_name, a, b), (file2, line2, fn2, b, a)]
                    {
                        out.push(Finding {
                            rule: "lock-discipline",
                            file: fi.clone(),
                            line: *li,
                            message: format!(
                                "inconsistent lock order: `{first}` then `{second}` in `{fun}` \
                                 but the reverse order also occurs in crate `{krate}` — \
                                 pick one global order or merge the locks"
                            ),
                            content: String::new(),
                        });
                    }
                }
            }
        }
        // Baseline-style content for order findings: fill from files.
        for f in out.iter_mut().filter(|f| f.content.is_empty()) {
            if let Some(a) = ws.file(&f.file) {
                f.content = a.raw_line(f.line);
            }
        }
    }
}

/// Walk one function body tracking guard scopes and events.
fn scan_fn(
    ws: &Workspace,
    file: &Analyzed,
    f: &FnItem,
    out: &mut Vec<Finding>,
    edges: &mut BTreeMap<(String, String, String), (String, usize, String)>,
) {
    let toks = &file.toks;
    if f.body_start >= toks.len() || f.body_end >= toks.len() {
        return;
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    let mut depth = 0i32;
    let mut i = f.body_start;
    while i <= f.body_end {
        let t = &toks[i];
        if t.is('{') {
            depth += 1;
        } else if t.is('}') {
            depth -= 1;
            guards.retain(|g| match g.end {
                GuardEnd::Block(d) | GuardEnd::Stmt(d) => depth >= d,
            });
        } else if t.is(';') {
            guards.retain(|g| !matches!(g.end, GuardEnd::Stmt(d) if d == depth));
        }

        // Explicit early drop: `drop(g)`.
        if call_at(toks, i) == Some("drop") {
            if let Some(arg) = toks.get(i + 2).and_then(|t| t.ident()) {
                guards.retain(|g| g.bound.as_deref() != Some(arg));
            }
        }

        // New acquisition: `. lock ( )` / `. read ( )` / `. write ( )`.
        if let Some(mut acq) = acquisition_at(toks, i) {
            // A publish is itself an acquisition (`.write()` on a cell):
            // judge it against the guards already live, then skip its
            // method token so it is not judged against itself.
            report_event(ws, file, f, i + 1, &guards, &mut reported, out);
            // Guard ends are depth-relative to the acquisition site.
            acq.end = match acq.end {
                GuardEnd::Block(_) => GuardEnd::Block(depth),
                GuardEnd::Stmt(_) => GuardEnd::Stmt(depth),
            };
            for g in guards.iter().filter(|g| g.name.is_some()) {
                if let (Some(outer), Some(inner)) = (&g.name, &acq.name) {
                    if outer != inner {
                        edges
                            .entry((
                                crate_of(&file.src.rel).to_owned(),
                                outer.clone(),
                                inner.clone(),
                            ))
                            .or_insert_with(|| {
                                (file.src.rel.clone(), toks[i].line, f.name.clone())
                            });
                    }
                }
            }
            guards.push(acq);
            i += 2;
            continue;
        }

        report_event(ws, file, f, i, &guards, &mut reported, out);
        i += 1;
    }
}

/// Report the effectful event at token `i`, if any, against the newest
/// live guard (one finding per line keeps diagnostics readable).
fn report_event(
    ws: &Workspace,
    file: &Analyzed,
    f: &FnItem,
    i: usize,
    guards: &[Guard],
    reported: &mut BTreeSet<usize>,
    out: &mut Vec<Finding>,
) {
    let toks = &file.toks;
    let (Some(holder), Some(tok)) = (guards.last(), toks.get(i)) else {
        return;
    };
    if reported.contains(&tok.line) {
        return;
    }
    // The socket-write event class applies to the ingress crate (and to
    // fixture mode, so the canary corpus exercises it).
    let net_scope = ws.force_apply || in_net_crate(&file.src.rel);
    let Some((what, via)) = event_at(ws, toks, i, net_scope) else {
        return;
    };
    let holder = match &holder.name {
        Some(n) => format!("`{n}` (line {})", holder.line),
        None => format!("self-lock (line {})", holder.line),
    };
    out.push(Finding {
        rule: "lock-discipline",
        file: file.src.rel.clone(),
        line: tok.line,
        message: format!(
            "guard {holder} held across {what}{via} in `{}` — \
             shrink the guard scope or record why with \
             `fc-lint: allow(lock-discipline) -- <reason>`",
            f.name
        ),
        content: file.raw_line(tok.line),
    });
    reported.insert(tok.line);
}

/// Detect a lock acquisition at token `i` (the `.` of `.lock()` etc.).
fn acquisition_at(toks: &[SpannedTok], i: usize) -> Option<Guard> {
    if !toks[i].is('.') {
        return None;
    }
    let m = toks.get(i + 1)?.ident()?;
    if !matches!(m, "lock" | "read" | "write") {
        return None;
    }
    // Empty argument list only: `.read(buf)` is io, `.read()` is RwLock.
    if !(toks.get(i + 2).is_some_and(|t| t.is('(')) && toks.get(i + 3).is_some_and(|t| t.is(')'))) {
        return None;
    }
    // Receiver chain: `a.b.c` walking back from the `.`; identity is the
    // last field name (first non-`self` ident walking back).
    let mut j = i;
    let mut name: Option<String> = None;
    let mut chain_start = i;
    while j >= 1 {
        let Some(id) = toks.get(j - 1).and_then(|t| t.ident()) else {
            break;
        };
        if name.is_none() && id != "self" {
            name = Some(id.to_owned());
        }
        chain_start = j - 1;
        if j >= 3 && toks[j - 2].is('.') {
            j -= 2;
        } else {
            break;
        }
    }
    if chain_start == i {
        // Receiver is not a simple ident chain (e.g. a call result):
        // treat as an anonymous statement-temporary guard.
        return Some(Guard {
            name: None,
            bound: None,
            end: GuardEnd::Stmt(0), // depth fixed up by caller? — use current depth below
            line: toks[i].line,
        });
    }
    // Binding: `let [mut] g = <chain>...`.
    let mut bound = None;
    let mut end = GuardEnd::Stmt(0);
    if chain_start >= 3 && toks[chain_start - 1].is('=') && toks[chain_start - 2].ident().is_some()
    {
        let var = toks[chain_start - 2].ident().unwrap_or_default().to_owned();
        let let_at = if toks[chain_start - 3].ident() == Some("let") {
            true
        } else {
            toks[chain_start - 3].ident() == Some("mut")
                && chain_start >= 4
                && toks[chain_start - 4].ident() == Some("let")
        };
        if let_at {
            bound = Some(var);
            end = GuardEnd::Block(0);
        }
    }
    Some(Guard {
        name,
        bound,
        end,
        line: toks[i].line,
    })
}

/// Detect an effectful event at token `i`, returning a description and
/// the propagation note. `net_scope` enables the socket-write class
/// (ingress crate + fixture mode only: the store's WAL writes under its
/// append lock are that layer's documented serialization point).
fn event_at(
    ws: &Workspace,
    toks: &[SpannedTok],
    i: usize,
    net_scope: bool,
) -> Option<(String, String)> {
    let after_dot = i >= 1 && toks[i - 1].is('.');
    let name = call_at(toks, i)?;
    match name {
        "sync_all" | "sync_data" if after_dot => {
            Some(("a disk fsync".into(), format!(" (`{name}`)")))
        }
        "send" if after_dot => Some(("a channel send".into(), String::new())),
        "write" if publishes_at(toks, i) => Some(("a publish".into(), String::new())),
        "write_all" | "flush" if after_dot && net_scope => {
            Some(("a socket write".into(), format!(" (`{name}`)")))
        }
        // `.lock()`/`.read()`/`.write()` are acquisitions, not events.
        "lock" | "read" | "write" | "swap" | "send" | "sync_all" | "sync_data" | "write_all"
        | "flush" => None,
        _ => {
            let eff: Effects = *ws.effects.get(name)?;
            if eff.fsync {
                Some(("a disk fsync".into(), format!(" (via call to `{name}`)")))
            } else if eff.publish {
                Some(("a publish".into(), format!(" (via call to `{name}`)")))
            } else if eff.send {
                Some(("a channel send".into(), format!(" (via call to `{name}`)")))
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn findings(src: &str) -> Vec<Finding> {
        let ws = Workspace::single_text("t.rs", src);
        let mut out = Vec::new();
        LockDiscipline.check(&ws, &mut out);
        out
    }

    #[test]
    fn direct_fsync_under_bound_guard_is_flagged() {
        let f = findings("fn f(s: &S) {\n    let _g = s.m.lock();\n    s.file.sync_all();\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("disk fsync"), "{}", f[0].message);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn scoped_guard_does_not_leak_past_its_block() {
        let f = findings(
            "fn f(s: &S) {\n    {\n        let _g = s.m.lock();\n    }\n    s.file.sync_all();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn explicit_drop_ends_the_guard() {
        let f = findings(
            "fn f(s: &S) {\n    let g = s.m.lock();\n    drop(g);\n    s.file.sync_all();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn transitive_fsync_through_local_fn_is_flagged() {
        let f = findings(
            "fn helper(f: &F) { f.sync_data(); }\n\
             fn g(s: &S, f: &F) {\n    let _g = s.m.lock();\n    helper(f);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("via call to `helper`"));
    }

    #[test]
    fn a_spawned_closure_is_not_an_effect_of_its_spawner() {
        let f = findings(
            "fn work(tx: &T) { tx.send(1); }\n\
             fn boot(s: &S) { thread::spawn(move || work(&tx)); }\n\
             fn f(s: &S) {\n    let _g = s.m.lock();\n    boot(s);\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn statement_temporary_guard_covers_its_own_statement_only() {
        let f = findings(
            "fn f(s: &S) {\n    s.inner.lock().wal.sync_all();\n    s.file.sync_all();\n}\n",
        );
        assert_eq!(f.len(), 1, "temporary ends at `;`: {f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn generation_publish_under_guard_is_flagged() {
        let f = findings(
            "fn f(s: &S) {\n    let _g = s.m.lock();\n    *s.generation.write() = x;\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("a publish"), "{}", f[0].message);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn atomic_swap_without_epoch_receiver_is_not_publish() {
        let f = findings("fn f(s: &S) {\n    let _g = s.m.lock();\n    s.state.swap(1);\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unguarded_publish_and_other_writes_are_not_flagged() {
        let f = findings(
            "fn f(s: &S) {\n    *s.routing.write() = x;\n}\n\
             fn g(s: &S) {\n    let _g = s.m.lock();\n    *s.table.write() = x;\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn socket_write_under_guard_is_flagged() {
        let f = findings(
            "fn f(s: &S, frame: &[u8]) {\n    let _g = s.conns.lock();\n    \
             s.stream.write_all(frame);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("socket write"), "{}", f[0].message);
    }

    #[test]
    fn socket_write_after_release_is_clean() {
        let f = findings(
            "fn f(s: &S, frame: &[u8]) {\n    {\n        let _g = s.conns.lock();\n    }\n    \
             s.stream.write_all(frame);\n    s.stream.flush();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn inconsistent_order_is_reported_at_both_sites() {
        let f = findings(
            "fn ab(s: &S) { let _a = s.m.lock(); let _b = s.n.lock(); }\n\
             fn ba(s: &S) { let _a = s.n.lock(); let _b = s.m.lock(); }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .all(|x| x.message.contains("inconsistent lock order")));
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = findings(
            "fn ab(s: &S) { let _a = s.m.lock(); let _b = s.n.lock(); }\n\
             fn ab2(s: &S) { let _a = s.m.lock(); let _b = s.n.lock(); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rwlock_read_counts_but_io_read_does_not() {
        let f = findings(
            "fn f(s: &S, buf: &mut [u8]) {\n    let _g = s.nodes.read();\n    s.file.sync_all();\n}\n\
             fn g(s: &S, buf: &mut [u8]) {\n    s.file.read(buf);\n    s.file.sync_all();\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }
}
