//! `heax-lint` — a hand-rolled static analyzer that machine-checks the
//! workspace's safety contracts.
//!
//! Eight PRs of this reproduction piled up load-bearing invariants that
//! existed only as comments and reviewer memory: lazy-reduction domain
//! contracts on the NTT/Shoup kernels, panic-freedom on every
//! wire-decode path, saturating-only arithmetic on fault counters, and
//! poison-recovering lock discipline in the thread pool. This crate
//! turns each of them into a mechanical check, in the repo's
//! no-external-deps style: a small lexer/line-scanner (no `syn`) plus a
//! rule engine with per-rule IDs, file/line diagnostics, and an
//! allowlist syntax.
//!
//! | rule | name                | contract |
//! |------|---------------------|----------|
//! | L0   | allow-syntax        | `heax-lint: allow(..)` directives are well-formed |
//! | L1   | domain-contract     | lazy kernels and `mul_red_lazy` call sites carry `// DOMAIN: [0,kp)` |
//! | L2   | decode-totality     | no panic paths in `serialize.rs`, `wire.rs`, `deserialize_*` |
//! | L3   | safety-comment      | every `unsafe` block/impl has a `// SAFETY:` justification |
//! | L4   | saturating-counters | `*Stats`/`*Report` fields mutate via `saturating_*` only |
//! | L5   | lock-discipline     | `.lock()` recovers poisoning via `into_inner` |
//! | L6   | protocol-constants  | PROTOCOL.md agrees with enums and wire constants |
//!
//! Suppress a finding with a justified allow comment on the same line or
//! the line above:
//!
//! ```text
//! // heax-lint: allow(L2) -- documented precondition API, not a decode path
//! ```
//!
//! # Example
//!
//! ```
//! use std::path::Path;
//! let dir = std::env::temp_dir().join("heax-lint-doc-example");
//! std::fs::create_dir_all(&dir).unwrap();
//! std::fs::write(dir.join("wire.rs"), "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n").unwrap();
//! let diags = heax_lint::lint_tree(&dir).unwrap();
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule.code(), "L2");
//! assert_eq!(diags[0].line, 2);
//! ```

#![forbid(unsafe_code)]

pub mod diag;
pub mod rules;
pub mod scanner;

pub use diag::{Diagnostic, RuleId};
pub use scanner::SourceFile;

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// The normative markdown document the doc-consistency rule checks
/// against (`PROTOCOL.md`).
#[derive(Debug)]
pub struct Doc {
    /// Path relative to the linted tree root.
    pub rel: PathBuf,
    /// Full document text.
    pub text: String,
}

/// Everything the engine loaded from one tree.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned Rust sources, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// `PROTOCOL.md`, when the tree has one.
    pub protocol: Option<Doc>,
}

/// Directory names never descended into: build output, vendored deps,
/// VCS metadata, and the lint's own intentionally-failing fixtures.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "node_modules"];

fn walk(root: &Path, dir: &Path, ws: &mut Workspace) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(root, &path, ws)?;
            }
            continue;
        }
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path)?;
            ws.files.push(scanner::scan(&path, &rel, &text));
        } else if name == "PROTOCOL.md" && ws.protocol.is_none() {
            let text = std::fs::read_to_string(&path)?;
            ws.protocol = Some(Doc { rel, text });
        }
    }
    Ok(())
}

/// Loads and scans every Rust file (plus `PROTOCOL.md`) under
/// `root`, skipping `vendor/`, `target/`, and fixture trees.
pub fn load_tree(root: &Path) -> io::Result<Workspace> {
    let mut ws = Workspace {
        files: Vec::new(),
        protocol: None,
    };
    walk(root, root, &mut ws)?;
    ws.files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(ws)
}

/// Runs every rule over a loaded workspace and applies allowlists.
/// Returned diagnostics are sorted by `(path, line, rule)`.
pub fn lint(ws: &Workspace) -> Vec<Diagnostic> {
    let fields = rules::counters::collect_fields(&ws.files);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut allows: HashMap<PathBuf, Vec<diag::AllowDirective>> = HashMap::new();
    for f in &ws.files {
        diags.extend(rules::domain::check(f));
        diags.extend(rules::totality::check(f));
        diags.extend(rules::safety::check(f));
        diags.extend(rules::counters::check(f, &fields));
        diags.extend(rules::locks::check(f));
        let comments = f
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.comment.is_empty())
            .map(|(i, l)| (i + 1, l.comment.clone()));
        let (file_allows, l0) = diag::parse_allows(&f.rel, comments);
        allows.insert(f.rel.clone(), file_allows);
        diags.extend(l0);
    }
    diags.extend(rules::protocol::check(&ws.files, ws.protocol.as_ref()));
    let mut out: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| match allows.get(&d.path) {
            Some(a) => diag::apply_allows(vec![d.clone()], a).pop().is_some(),
            None => true,
        })
        .collect();
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Convenience: [`load_tree`] + [`lint`].
pub fn lint_tree(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint(&load_tree(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(files: &[(&str, &str)]) -> tempdir::Tree {
        tempdir::Tree::new(files)
    }

    /// Minimal self-cleaning temp-tree helper (no external tempdir crate).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static SEQ: AtomicU64 = AtomicU64::new(0);

        pub struct Tree {
            pub root: PathBuf,
        }

        impl Tree {
            pub fn new(files: &[(&str, &str)]) -> Tree {
                let root = std::env::temp_dir().join(format!(
                    "heax-lint-test-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                for (rel, text) in files {
                    let path = root.join(rel);
                    if let Some(dir) = path.parent() {
                        std::fs::create_dir_all(dir).unwrap();
                    }
                    std::fs::write(path, text).unwrap();
                }
                Tree { root }
            }
        }

        impl Drop for Tree {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.root);
            }
        }
    }

    #[test]
    fn allow_directive_suppresses_and_is_audited() {
        let t = tree(&[(
            "wire.rs",
            "fn f(x: Option<u8>) -> u8 {\n    // heax-lint: allow(L2) -- test corpus value, proven present\n    x.unwrap()\n}\n",
        )]);
        assert!(lint_tree(&t.root).unwrap().is_empty());
        let t2 = tree(&[(
            "wire.rs",
            "fn f(x: Option<u8>) -> u8 {\n    // heax-lint: allow(L2)\n    x.unwrap()\n}\n",
        )]);
        let d = lint_tree(&t2.root).unwrap();
        // Missing reason: the directive is rejected (L0) and the L2 still fires.
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|x| x.rule == RuleId::L0));
        assert!(d.iter().any(|x| x.rule == RuleId::L2));
    }

    #[test]
    fn vendor_and_target_are_skipped() {
        let t = tree(&[
            (
                "vendor/x/wire.rs",
                "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
            (
                "target/debug/wire.rs",
                "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
            ("src/ok.rs", "pub fn fine() {}\n"),
        ]);
        assert!(lint_tree(&t.root).unwrap().is_empty());
    }

    #[test]
    fn diagnostics_are_sorted_and_carry_relative_paths() {
        let t = tree(&[
            (
                "b/wire.rs",
                "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
            ),
            (
                "a/serialize.rs",
                "fn g(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
            ),
        ]);
        let d = lint_tree(&t.root).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].path, Path::new("a/serialize.rs"));
        assert_eq!(d[1].path, Path::new("b/wire.rs"));
    }
}
