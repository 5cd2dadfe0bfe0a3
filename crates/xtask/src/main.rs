//! Repo automation tasks, built on the `fc-lint` static-analysis library.
//!
//! ```text
//! cargo run -p xtask -- lint                  # fast legacy gate: hot-path-strict
//! cargo run -p xtask -- lint --all            # every rule + suppressions + committed baseline
//! cargo run -p xtask -- lint --rule <id>...   # specific rules (see --list)
//! cargo run -p xtask -- lint --json           # findings as a JSON array on stdout
//! cargo run -p xtask -- lint --update-baseline  # regenerate lint-baseline.txt
//! cargo run -p xtask -- lint --list           # registered rules
//! cargo run -p xtask -- ci                    # full local gate: fmt, clippy, lint --all, tests
//! ```
//!
//! Rules, the suppression grammar (`// fc-lint: allow(<rule>) -- <reason>`),
//! and the baseline workflow are documented in DESIGN.md §13 and in the
//! `fc-lint` crate docs.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("ci") => run_ci(),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (available: lint, ci)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- <lint|ci> [options]");
            ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root; the fallback keeps this binary
    // panic-free (its own lint applies to it).
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Parsed `lint` options.
#[derive(Debug, Default, PartialEq)]
struct LintArgs {
    all: bool,
    json: bool,
    list: bool,
    update_baseline: bool,
    rules: Vec<String>,
}

fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut out = LintArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => out.all = true,
            "--json" => out.json = true,
            "--list" => out.list = true,
            "--update-baseline" => out.update_baseline = true,
            "--rule" => match it.next() {
                Some(r) => out.rules.push(r.clone()),
                None => return Err("--rule needs a rule id (see --list)".into()),
            },
            other => return Err(format!("unknown lint option `{other}`")),
        }
    }
    if out.all && !out.rules.is_empty() {
        return Err("--all and --rule are mutually exclusive".into());
    }
    Ok(out)
}

/// The fast pre-`--all` gate: the original zero-tolerance hot-path rule.
const LEGACY_RULES: &[&str] = &["hot-path-strict"];

const BASELINE_FILE: &str = "lint-baseline.txt";

fn run_lint(args: &[String]) -> ExitCode {
    let opts = match parse_lint_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = repo_root();

    if opts.list {
        for rule in fc_lint::rules::all() {
            let baselined = if rule.baselined() { " [baselined]" } else { "" };
            println!("{:18} {}{baselined}", rule.id(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    if opts.update_baseline {
        return update_baseline(&root);
    }

    let rule_ids: Vec<String> = if opts.all {
        Vec::new() // empty selection = every registered rule
    } else if !opts.rules.is_empty() {
        opts.rules.clone()
    } else {
        LEGACY_RULES.iter().map(|s| (*s).to_owned()).collect()
    };

    // Only load the baseline when a selected rule can consume it;
    // otherwise every entry would report stale.
    let selected = match fc_lint::rules::select(&rule_ids) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_path = root.join(BASELINE_FILE);
    let baseline = selected
        .iter()
        .any(|r| r.baselined())
        .then_some(baseline_path.as_path());

    let report = match fc_lint::run(&root, &rule_ids, baseline) {
        Ok(r) => r,
        Err(errs) => {
            for e in errs {
                eprintln!("xtask lint: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    if opts.json {
        println!("{}", findings_json(&report.findings));
    } else {
        for f in &report.findings {
            eprintln!("lint: {f}");
        }
        for s in &report.stale_baseline {
            eprintln!(
                "lint: warning: stale baseline entry (fixed or moved — run \
                 `cargo run -p xtask -- lint --update-baseline`): {s}"
            );
        }
    }

    if report.findings.is_empty() {
        if !opts.json {
            println!(
                "xtask lint: OK ({} rule(s): {}; {} suppressed, {} baselined)",
                report.rules_run.len(),
                report.rules_run.join(", "),
                report.suppressed,
                report.grandfathered,
            );
        }
        ExitCode::SUCCESS
    } else {
        if !opts.json {
            eprintln!("xtask lint: {} finding(s)", report.findings.len());
        }
        ExitCode::FAILURE
    }
}

fn update_baseline(root: &Path) -> ExitCode {
    match fc_lint::render_baseline(root) {
        Ok(text) => {
            let path = root.join(BASELINE_FILE);
            let entries = text.lines().filter(|l| !l.starts_with('#')).count();
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("xtask lint: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("xtask lint: wrote {entries} baseline entr(ies) to {BASELINE_FILE}");
            ExitCode::SUCCESS
        }
        Err(errs) => {
            for e in errs {
                eprintln!("xtask lint: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

fn findings_json(findings: &[fc_lint::Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"content\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            json_escape(&f.content),
        ));
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `xtask ci`: the full local gate in CI order, stopping at the first
/// failure so a broken step is the last thing on screen.
fn run_ci() -> ExitCode {
    let root = repo_root();
    let steps: &[(&str, &[&str])] = &[
        ("cargo fmt --check", &["fmt", "--all", "--", "--check"]),
        (
            "cargo clippy -D warnings",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
        ),
        (
            "xtask lint --all",
            &["run", "-q", "-p", "xtask", "--", "lint", "--all"],
        ),
        ("cargo test", &["test", "-q", "--workspace"]),
    ];
    for (label, args) in steps {
        println!("==> {label}");
        let status = Command::new("cargo")
            .args(*args)
            .current_dir(&root)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("xtask ci: step `{label}` failed ({s})");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask ci: step `{label}` could not run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("xtask ci: all steps passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_args_parse() {
        let a = parse_lint_args(&["--all".into(), "--json".into()]).unwrap();
        assert!(a.all && a.json && a.rules.is_empty());
        let b = parse_lint_args(&["--rule".into(), "commit-order".into()]).unwrap();
        assert_eq!(b.rules, vec!["commit-order".to_owned()]);
        assert!(parse_lint_args(&["--rule".into()]).is_err());
        assert!(parse_lint_args(&["--bogus".into()]).is_err());
        assert!(parse_lint_args(&["--all".into(), "--rule".into(), "x".into()]).is_err());
    }

    #[test]
    fn json_is_escaped() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let f = fc_lint::Finding {
            rule: "panic-free",
            file: "crates/a.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
            content: "x.unwrap()".into(),
        };
        let j = findings_json(std::slice::from_ref(&f));
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\\\"no\\\""));
    }
}
