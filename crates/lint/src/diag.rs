//! Diagnostics, rule identities, and the allowlist syntax.
//!
//! A finding is suppressed by an *allow directive* placed on the same
//! line or the line directly above it:
//!
//! ```text
//! // heax-lint: allow(L5) -- a poisoned queue is unrecoverable here; the panic is the report
//! ```
//!
//! The `-- reason` part is mandatory; a directive without a non-empty
//! reason is itself reported (rule `L0`), so suppressions always carry
//! their justification into the tree.

use std::fmt;
use std::path::PathBuf;

/// Identity of a lint rule. `L2` and `L3` are retired, their numbers
/// not reused: decode totality and `// SAFETY:` comments are clippy
/// lints the compiler enforces (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Allowlist hygiene: malformed `heax-lint:` directives.
    L0,
    /// Domain-contract annotations on lazy-reduction kernels.
    L1,
    /// Saturating-only mutation of `*Stats` / `*Report` counters.
    L4,
    /// Lock discipline: `.lock()` must recover from poisoning.
    L5,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 4] = [RuleId::L0, RuleId::L1, RuleId::L4, RuleId::L5];

    /// Short machine-readable code (`"L1"` …), as used in allow directives.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::L0 => "L0",
            RuleId::L1 => "L1",
            RuleId::L4 => "L4",
            RuleId::L5 => "L5",
        }
    }

    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::L0 => "allow-syntax",
            RuleId::L1 => "domain-contract",
            RuleId::L4 => "saturating-counters",
            RuleId::L5 => "lock-discipline",
        }
    }

    /// Parses a rule code (`"L4"`), case-sensitively.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One finding: a rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// File the finding is anchored to.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what the contract requires.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        rule: RuleId,
        path: impl Into<PathBuf>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            path: path.into(),
            line,
            message: message.into(),
        }
    }

    /// `path:line: [L5 lock-discipline] message` — the CLI output format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A parsed `heax-lint: allow(...)` directive.
#[derive(Debug)]
pub struct AllowDirective {
    /// 1-based line the directive comment sits on.
    pub line: usize,
    /// Rules the directive suppresses.
    pub rules: Vec<RuleId>,
}

/// Extracts allow directives from a file's per-line comments. Malformed
/// directives (bad rule id, missing `-- reason`) are reported as `L0`
/// diagnostics instead of silently suppressing anything.
pub fn parse_allows(
    path: &std::path::Path,
    comments: impl Iterator<Item = (usize, String)>,
) -> (Vec<AllowDirective>, Vec<Diagnostic>) {
    const MARKER: &str = "heax-lint:";
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for (line, comment) in comments {
        // Directives live in plain `//` comments only; `///` and `//!`
        // doc text may *mention* the syntax without being a directive.
        let plain = comment
            .trim_start()
            .strip_prefix("//")
            .is_some_and(|rest| !rest.starts_with('/') && !rest.starts_with('!'));
        if !plain {
            continue;
        }
        let Some(at) = comment.find(MARKER) else {
            continue;
        };
        let rest = comment[at + MARKER.len()..].trim_start();
        let bad = |msg: &str| Diagnostic::new(RuleId::L0, path, line, msg.to_string());
        let Some(args) = rest.strip_prefix("allow(") else {
            diags.push(bad(
                "heax-lint directive must be `allow(<rule>, …) -- reason`",
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            diags.push(bad("unterminated rule list in heax-lint allow directive"));
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for id in args[..close].split(',') {
            match RuleId::parse(id.trim()) {
                Some(r) => rules.push(r),
                None => {
                    diags.push(bad(&format!(
                        "unknown rule id `{}` in allow directive",
                        id.trim()
                    )));
                    ok = false;
                }
            }
        }
        let reason = args[close + 1..].trim_start();
        let reason = reason.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            diags.push(bad("allow directive needs a justification: `-- <reason>`"));
            ok = false;
        }
        if ok && !rules.is_empty() {
            allows.push(AllowDirective { line, rules });
        }
    }
    (allows, diags)
}

/// Drops diagnostics covered by an allow directive on the same line or
/// the line directly above.
pub fn apply_allows(diags: Vec<Diagnostic>, allows: &[AllowDirective]) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            !allows
                .iter()
                .any(|a| a.rules.contains(&d.rule) && (a.line == d.line || a.line + 1 == d.line))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(comment: &str) -> (Vec<AllowDirective>, Vec<Diagnostic>) {
        parse_allows(
            Path::new("x.rs"),
            std::iter::once((3usize, comment.to_string())),
        )
    }

    #[test]
    fn well_formed_allow_parses() {
        let (allows, diags) = parse("// heax-lint: allow(L1, L4) -- measured, safe");
        assert!(diags.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rules, vec![RuleId::L1, RuleId::L4]);
    }

    #[test]
    fn missing_reason_is_reported_and_ignored() {
        let (allows, diags) = parse("// heax-lint: allow(L5)");
        assert!(allows.is_empty());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::L0);
    }

    #[test]
    fn unknown_rule_is_reported() {
        let (allows, diags) = parse("// heax-lint: allow(L9) -- nope");
        assert!(allows.is_empty());
        assert_eq!(diags[0].rule, RuleId::L0);
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let allow = AllowDirective {
            line: 3,
            rules: vec![RuleId::L5],
        };
        let mk = |line| Diagnostic::new(RuleId::L5, "x.rs", line, "m");
        let out = apply_allows(vec![mk(3), mk(4), mk(5)], &[allow]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 5);
    }
}
