//! **L1 · domain-contract** — lazy-reduction kernels must declare their
//! working domain, and annotated call sites must agree with the callee.
//!
//! The NTT/Shoup hot path (PR 3) keeps values in relaxed residue domains
//! (`[0,p)`, `[0,2p)`, `[0,4p)`) and defers reduction; mixing domains is
//! a silent-corruption hazard that the type system cannot see. This rule
//! makes the contract machine-readable:
//!
//! * every kernel whose name carries a `lazy` or `reduced` segment must
//!   be annotated `// DOMAIN: [0,kp)` in the comment block directly
//!   above its `fn` line (predicates with an `is` segment, such as a
//!   `kernel_is_lazy` query, are exempt);
//! * every `mul_red_lazy` **call site** must carry a `// DOMAIN:`
//!   annotation (trailing on the call line or on the line above) stating
//!   the domain of the value it produces;
//! * within one file, an annotated call to a kernel defined in the same
//!   file must agree with the kernel's declared domain.

use crate::diag::{Diagnostic, RuleId};
use crate::rules::is_ident_char;
use crate::scanner::SourceFile;
use std::collections::HashMap;

/// Name segments that mark a lazy-reduction kernel.
const KERNEL_SEGMENTS: [&str; 2] = ["lazy", "reduced"];
/// The canonical annotation forms.
const DOMAINS: [&str; 3] = ["[0,p)", "[0,2p)", "[0,4p)"];
/// The one function whose *call sites* must always be annotated.
const MANDATORY_CALLEE: &str = "mul_red_lazy";

/// True when `name` is a lazy-reduction kernel by naming convention.
pub fn is_kernel_name(name: &str) -> bool {
    let segs: Vec<&str> = name.split('_').collect();
    if segs.contains(&"is") {
        return false;
    }
    segs.iter().any(|s| KERNEL_SEGMENTS.contains(s))
}

/// Extracts a `DOMAIN:` annotation from comment text. `Some(Ok(d))` is a
/// canonical domain, `Some(Err(tok))` a malformed one, `None` no
/// annotation at all.
pub fn parse_domain(comment: &str) -> Option<Result<&'static str, String>> {
    let at = comment.find("DOMAIN:")?;
    let tok = comment[at + "DOMAIN:".len()..]
        .split_whitespace()
        .next()
        .unwrap_or("");
    match DOMAINS.iter().find(|d| **d == tok) {
        Some(d) => Some(Ok(d)),
        None => Some(Err(tok.to_string())),
    }
}

/// Call or definition occurrence of an identifier followed by `(`.
struct Occurrence {
    line: usize, // 0-based
    name: String,
    is_def: bool,
}

/// Finds `name(` occurrences on a code line, tagging definitions
/// (`fn name(`) separately from call sites.
fn occurrences(code: &str, line: usize, out: &mut Vec<Occurrence>) {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if is_ident_char(chars[i]) && (i == 0 || !is_ident_char(chars[i - 1])) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            let name: String = chars[start..i].iter().collect();
            let mut j = i;
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if chars.get(j) == Some(&'(') {
                // Preceded by the `fn` keyword → a definition.
                let before: String = chars[..start].iter().collect();
                let is_def = before
                    .trim_end()
                    .rsplit(|c: char| !is_ident_char(c))
                    .next()
                    .is_some_and(|t| t == "fn");
                out.push(Occurrence { line, name, is_def });
            }
        } else {
            i += 1;
        }
    }
}

/// Finds the `DOMAIN:` annotation attached to a definition at 0-based
/// line `at`: the trailing comment of the `fn` line itself, or any line
/// of the contiguous comment/attribute block directly above it.
fn def_annotation(file: &SourceFile, at: usize) -> Option<Result<&'static str, String>> {
    if let Some(d) = parse_domain(&file.lines[at].comment) {
        return Some(d);
    }
    let mut i = at;
    while i > 0 {
        i -= 1;
        let l = &file.lines[i];
        let code = l.code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if !code.is_empty() && !is_attr {
            break;
        }
        if let Some(d) = parse_domain(&l.comment) {
            return Some(d);
        }
    }
    None
}

/// Annotation attached to a call site at 0-based line `at`: trailing on
/// the same line, or the comment of the line directly above.
fn call_annotation(file: &SourceFile, at: usize) -> Option<Result<&'static str, String>> {
    parse_domain(&file.lines[at].comment).or_else(|| {
        at.checked_sub(1)
            .and_then(|p| parse_domain(&file.lines[p].comment))
    })
}

/// Runs the rule over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if file.is_test_path() {
        return Vec::new();
    }
    let mut occ = Vec::new();
    for (i, l) in file.lines.iter().enumerate() {
        if !l.in_test {
            occurrences(&l.code, i, &mut occ);
        }
    }
    let mut diags = Vec::new();
    // Pass 1: kernel definitions must be annotated; record declared
    // domains for the agreement check.
    let mut declared: HashMap<String, &'static str> = HashMap::new();
    for o in occ.iter().filter(|o| o.is_def && is_kernel_name(&o.name)) {
        match def_annotation(file, o.line) {
            Some(Ok(d)) => {
                declared.insert(o.name.clone(), d);
            }
            Some(Err(tok)) => diags.push(Diagnostic::new(
                RuleId::L1,
                &file.rel,
                o.line + 1,
                format!(
                    "kernel `{}` has a malformed DOMAIN annotation `{tok}` (expected [0,p), [0,2p) or [0,4p))",
                    o.name
                ),
            )),
            None => diags.push(Diagnostic::new(
                RuleId::L1,
                &file.rel,
                o.line + 1,
                format!(
                    "lazy kernel `{}` lacks a `// DOMAIN: [0,kp)` annotation declaring its lazy-reduction domain",
                    o.name
                ),
            )),
        }
    }
    // Pass 2: call sites. `mul_red_lazy` calls must be annotated; any
    // annotated call to a same-file kernel must agree with its
    // declaration.
    for o in occ.iter().filter(|o| !o.is_def) {
        let ann = call_annotation(file, o.line);
        if o.name == MANDATORY_CALLEE && ann.is_none() {
            diags.push(Diagnostic::new(
                RuleId::L1,
                &file.rel,
                o.line + 1,
                format!(
                    "`{MANDATORY_CALLEE}` call site lacks a `// DOMAIN: [0,kp)` annotation for the value it produces"
                ),
            ));
            continue;
        }
        match ann {
            Some(Err(tok)) if is_kernel_name(&o.name) => diags.push(Diagnostic::new(
                RuleId::L1,
                &file.rel,
                o.line + 1,
                format!(
                    "call to `{}` has a malformed DOMAIN annotation `{tok}` (expected [0,p), [0,2p) or [0,4p))",
                    o.name
                ),
            )),
            Some(Ok(d)) => {
                if let Some(decl) = declared.get(&o.name) {
                    if *decl != d {
                        diags.push(Diagnostic::new(
                            RuleId::L1,
                            &file.rel,
                            o.line + 1,
                            format!(
                                "call annotated `DOMAIN: {d}` disagrees with `{}`'s declared `DOMAIN: {decl}` in this module",
                                o.name
                            ),
                        ));
                    }
                }
            }
            _ => {}
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
        check(&scan(Path::new("k.rs"), Path::new("k.rs"), src))
    }

    #[test]
    fn kernel_names() {
        assert!(is_kernel_name("forward_lazy"));
        assert!(is_kernel_name("forward_reduced_auto"));
        assert!(is_kernel_name("mul_red_lazy"));
        assert!(!is_kernel_name("reduced_kernel_is_lazy"));
        assert!(!is_kernel_name("forward_auto"));
        assert!(!is_kernel_name("rescale"));
    }

    #[test]
    fn unannotated_kernel_fires() {
        let d = run("pub fn forward_lazy(a: &mut [u64]) {\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn doc_block_annotation_satisfies() {
        let src = "/// Harvey butterflies.\n/// DOMAIN: [0,4p)\n#[inline]\npub fn forward_lazy(a: &mut [u64]) {\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unannotated_mul_red_lazy_call_fires() {
        let d = run("fn f(w: &W, p: &P) -> u64 {\n    w.mul_red_lazy(1, p)\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn mismatched_call_fires() {
        let src = "/// DOMAIN: [0,2p)\nfn mul_red_lazy(x: u64) -> u64 { x }\nfn g() {\n    mul_red_lazy(3); // DOMAIN: [0,4p)\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("disagrees"));
    }

    #[test]
    fn agreeing_call_passes() {
        let src = "/// DOMAIN: [0,2p)\nfn mul_red_lazy(x: u64) -> u64 { x }\nfn g() {\n    mul_red_lazy(3); // DOMAIN: [0,2p)\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t(w: &W, p: &P) { w.mul_red_lazy(1, p); }\n}\n";
        assert!(run(src).is_empty());
    }
}
