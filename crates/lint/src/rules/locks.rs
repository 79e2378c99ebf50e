//! **L5 · lock-discipline** — `.lock()` recovers from poisoning.
//!
//! The executor thread pool re-raises worker panics *after* making the
//! shared state consistent again, so a poisoned mutex is an expected,
//! recoverable condition (PR 4). Unwrapping a `.lock()` turns one
//! panicking request into a permanently wedged server. The sanctioned
//! pattern is
//!
//! ```text
//! self.state.lock().unwrap_or_else(PoisonError::into_inner)
//! ```
//!
//! The rule flags `.lock()` followed by `.unwrap()` / `.expect(` (looking
//! across line breaks), and `.unwrap_or_else(..)` handlers that do not
//! mention `into_inner`. Binding the `Result` (match / if-let) is
//! accepted — that is visibly handling the error.

use crate::diag::{Diagnostic, RuleId};
use crate::rules::token_positions;
use crate::scanner::SourceFile;

/// How far past `.lock()` the rule reads to classify the follow-up.
const LOOKAHEAD_LINES: usize = 3;

/// Runs the rule over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if file.is_test_path() {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for (i, l) in file.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for at in token_positions(&l.code, ".lock()") {
            let pos = at + ".lock()".len();
            // Same-line remainder plus a few following lines.
            let mut after = l.code[pos..].to_string();
            for next in file.lines.iter().skip(i + 1).take(LOOKAHEAD_LINES) {
                after.push(' ');
                after.push_str(next.code.trim());
            }
            let after = after.trim_start();
            let verdict = if after.starts_with(".unwrap()") {
                Some("`.lock().unwrap()` drops poison recovery")
            } else if after.starts_with(".expect(") {
                Some("`.lock().expect(...)` drops poison recovery")
            } else if after.starts_with(".unwrap_or_else(") {
                let handler: String = after.chars().take(160).collect();
                if handler.contains("into_inner") {
                    None
                } else {
                    Some("`.lock().unwrap_or_else(..)` must recover the guard via `PoisonError::into_inner`")
                }
            } else {
                None
            };
            if let Some(msg) = verdict {
                diags.push(Diagnostic::new(
                    RuleId::L5,
                    &file.rel,
                    i + 1,
                    format!("{msg}; use `.lock().unwrap_or_else(PoisonError::into_inner)`"),
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
    fn lock_unwrap_fires() {
        let d = run("fn f(m: &Mutex<u8>) -> u8 {\n    *m.lock().unwrap()\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn multiline_unwrap_fires() {
        let d = run("fn f(m: &Mutex<u8>) -> u8 {\n    *m\n        .lock()\n        .unwrap()\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn into_inner_recovery_passes() {
        let src = "fn f(m: &Mutex<u8>) -> u8 {\n    *m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n";
        assert!(run(src).is_empty());
        let src2 =
            "fn f(m: &Mutex<u8>) -> u8 {\n    *m.lock().unwrap_or_else(|e| e.into_inner())\n}\n";
        assert!(run(src2).is_empty());
    }

    #[test]
    fn swallowing_handler_fires() {
        let d =
            run("fn f(m: &Mutex<u8>) {\n    let _ = m.lock().unwrap_or_else(|_| panic!());\n}\n");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn binding_the_result_passes() {
        let src =
            "fn f(m: &Mutex<u8>) {\n    if let Ok(g) = m.lock() {\n        drop(g);\n    }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(m: &Mutex<u8>) { m.lock().unwrap(); }\n}\n";
        assert!(run(src).is_empty());
    }
}
