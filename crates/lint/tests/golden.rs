//! Golden-fixture suite for the lint rules.
//!
//! Every directory under `tests/fixtures/` is a miniature source tree
//! that is linted as a whole. A fixture's `EXPECT.txt` lists the exact
//! diagnostics it must produce, one per line, in report order:
//!
//! ```text
//! L2 wire.rs:6
//! ```
//!
//! A missing (or empty) `EXPECT.txt` means the tree must lint clean —
//! that is the `*_pass` half of each rule's pair. The workspace walker
//! never descends into `fixtures/`, so the intentionally-failing trees
//! cannot fail the real `--workspace` run.

use std::path::PathBuf;

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(fixtures_root())
        .expect("tests/fixtures exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

fn expectations(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(dir.join("EXPECT.txt"))
        .unwrap_or_default()
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn render(d: &heax_lint::Diagnostic) -> String {
    format!("{} {}:{}", d.rule.code(), d.path.display(), d.line)
}

#[test]
fn fixtures_match_expectations() {
    let dirs = fixture_dirs();
    assert!(
        dirs.len() >= 14,
        "expected the full fixture set, found {}",
        dirs.len()
    );
    for dir in &dirs {
        let got: Vec<String> = heax_lint::lint_tree(dir)
            .expect("fixture tree lints")
            .iter()
            .map(render)
            .collect();
        let want = expectations(dir);
        assert_eq!(got, want, "fixture `{}` diagnostics drifted", dir.display());
    }
}

#[test]
fn every_rule_has_pass_and_fail_coverage() {
    let mut failing: Vec<String> = Vec::new();
    let mut clean = 0usize;
    for dir in fixture_dirs() {
        let want = expectations(&dir);
        if want.is_empty() {
            clean += 1;
        }
        failing.extend(
            want.into_iter()
                .filter_map(|l| l.split_whitespace().next().map(str::to_string)),
        );
    }
    for rule in heax_lint::RuleId::ALL {
        assert!(
            failing.iter().any(|c| c == rule.code()),
            "no failing fixture exercises rule {}",
            rule.code()
        );
    }
    assert!(
        clean >= 7,
        "expected a passing fixture per rule, found {clean}"
    );
}

/// The acceptance scenario from the issue: seed a violation into a
/// scratch file and check the report pinpoints rule, path, and line.
#[test]
fn seeded_violation_is_pinpointed() {
    let dir = std::env::temp_dir().join(format!(
        "heax-lint-seeded-{}-{}",
        std::process::id(),
        line!()
    ));
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("src/scratch.rs"),
        "pub fn grow(v: &mut Vec<u8>) {\n    let p = v.as_mut_ptr();\n    unsafe { *p = 7 };\n}\n",
    )
    .unwrap();
    let diags = heax_lint::lint_tree(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, heax_lint::RuleId::L3);
    assert_eq!(diags[0].path, std::path::Path::new("src/scratch.rs"));
    assert_eq!(diags[0].line, 3);
    assert!(diags[0].render().contains("[L3 safety-comment]"));
}
