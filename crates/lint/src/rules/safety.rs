//! **L3 · safety-comment** — every `unsafe` block or `unsafe impl` must
//! be justified by a `// SAFETY:` comment.
//!
//! All but one crate `#![forbid(unsafe_code)]`; the exception is
//! `heax-math`, in two places: the scoped thread-pool (`exec.rs`), whose
//! lifetime-erasure tricks are exactly where a wrong refactor becomes UB,
//! and the 8-lane AVX-512 IFMA kernels (`ifma.rs`), whose
//! `target_feature` calls are sound only behind the host-feature check
//! that mints their token and whose vector loads, stores and gathers go
//! through raw pointers. The rule
//! requires the justification to sit in the comment block directly above
//! the statement containing the `unsafe` token (or trailing on the same
//! line). `unsafe fn` declarations are exempt — their contract is the
//! signature's documentation — and, unlike the other rules, test code is
//! **not** exempt: UB in a test harness is still UB.

use crate::diag::{Diagnostic, RuleId};
use crate::rules::{is_ident_char, last_nonspace, token_positions};
use crate::scanner::SourceFile;

/// True when the `unsafe` token at byte `pos` introduces an `unsafe fn`
/// or `unsafe trait` declaration (exempt) rather than a block/impl.
fn is_decl(code: &str, pos: usize) -> bool {
    let after = code[pos + "unsafe".len()..].trim_start();
    after.starts_with("fn") && !after[2..].chars().next().is_some_and(is_ident_char)
        || after.starts_with("trait") && !after[5..].chars().next().is_some_and(is_ident_char)
}

/// Walks from 0-based line `at` up to the first line of the enclosing
/// statement (a line whose predecessor ends a statement or opens a
/// block), then reports whether the contiguous comment block above it —
/// or a same-line comment anywhere in the statement — says `SAFETY:`.
fn has_safety_comment(file: &SourceFile, at: usize) -> bool {
    let mut start = at;
    loop {
        if file.lines[start].comment.contains("SAFETY:") {
            return true;
        }
        if start == 0 {
            return false;
        }
        let prev = &file.lines[start - 1];
        let prev_code = prev.code.trim_end();
        let continues =
            !prev_code.is_empty() && !matches!(last_nonspace(prev_code), Some(';' | '{' | '}'));
        if continues {
            start -= 1;
            continue;
        }
        break;
    }
    // Comment block directly above the statement start.
    let mut i = start;
    while i > 0 {
        i -= 1;
        let l = &file.lines[i];
        if !l.code.trim().is_empty() {
            return false;
        }
        if l.comment.contains("SAFETY:") {
            return true;
        }
        if l.comment.is_empty() {
            return false;
        }
    }
    false
}

/// Runs the rule over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, l) in file.lines.iter().enumerate() {
        for pos in token_positions(&l.code, "unsafe") {
            // `unsafe` must be a keyword use, not part of a path.
            if l.code[pos + 6..].chars().next().is_some_and(is_ident_char) {
                continue;
            }
            if is_decl(&l.code, pos) {
                continue;
            }
            if !has_safety_comment(file, i) {
                diags.push(Diagnostic::new(
                    RuleId::L3,
                    &file.rel,
                    i + 1,
                    "`unsafe` without a `// SAFETY:` justification in the comment directly above",
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;
    use std::path::Path;

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&scan(Path::new("x.rs"), Path::new("x.rs"), src))
    }

    #[test]
    fn bare_unsafe_block_fires() {
        let d = run("fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn commented_block_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn comment_above_multiline_statement_passes() {
        let src = "fn f(t: &T) {\n    // SAFETY: lifetime erasure only.\n    let e: *const T =\n        unsafe { std::mem::transmute(t) };\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unsafe_impl_requires_comment() {
        let d = run("struct J;\nunsafe impl Send for J {}\n");
        assert_eq!(d.len(), 1);
        let ok = run("struct J;\n// SAFETY: plain data.\nunsafe impl Send for J {}\n");
        assert!(ok.is_empty());
    }

    #[test]
    fn unsafe_fn_decl_is_exempt() {
        assert!(run("unsafe fn raw(p: *const u8) -> u8 {\n    *p\n}\n").is_empty());
    }

    #[test]
    fn test_code_is_not_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n";
        assert_eq!(run(src).len(), 1);
    }
}
