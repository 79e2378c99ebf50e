//! **L4 · saturating-counters** — metric counters never wrap or panic.
//!
//! Fault and serving counters (`*Stats` / `*Report` structs) are
//! monotonically-growing telemetry; an overflow must clamp, not panic in
//! debug builds or wrap in release (PR 8 made every fault counter
//! saturating). The rule collects every integer-typed field of a struct
//! whose name ends in `Stats` or `Report`, workspace-wide, and flags any
//! compound-assignment mutation (`+=`, `-=`, …) of such a field — the
//! only sanctioned mutation is `s.f = s.f.saturating_add(x)` (plain `=`
//! stores, `.max(`-style high-water updates included, remain legal).

use crate::diag::{Diagnostic, RuleId};
use crate::rules::{is_ident_char, token_positions};
use crate::scanner::SourceFile;
use std::collections::HashMap;

/// Integer type names whose fields the rule tracks.
const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];
/// Compound-assignment operators forbidden on counter fields.
const COMPOUND_OPS: [&str; 10] = ["+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "|=", "&=", "^="];

/// Map from field name to the counter struct that declares it.
pub type FieldMap = HashMap<String, String>;

/// Collects integer fields of `*Stats` / `*Report` structs across all
/// scanned files.
pub fn collect_fields(files: &[SourceFile]) -> FieldMap {
    let mut map = FieldMap::new();
    for file in files {
        for (i, l) in file.lines.iter().enumerate() {
            if l.in_test {
                continue;
            }
            let Some(name) = struct_decl(&l.code) else {
                continue;
            };
            if !(name.ends_with("Stats") || name.ends_with("Report")) {
                continue;
            }
            // Body lines start at depth + 1; the first line back at the
            // struct's own depth is past the closing brace.
            for body in &file.lines[i + 1..] {
                if body.depth <= l.depth {
                    break;
                }
                if let Some((field, ty)) = field_decl(&body.code) {
                    if INT_TYPES.contains(&ty.as_str()) {
                        map.insert(field, name.clone());
                    }
                }
            }
        }
    }
    map
}

/// Extracts the name from a `struct Foo {` / `pub struct Foo {` line.
fn struct_decl(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t
        .strip_prefix("pub struct ")
        .or_else(|| t.strip_prefix("pub(crate) struct "))
        .or_else(|| t.strip_prefix("struct "))?;
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    (!name.is_empty() && code.contains('{')).then_some(name)
}

/// Extracts `(field, type)` from a struct-body field line.
fn field_decl(code: &str) -> Option<(String, String)> {
    let t = code.trim();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let (name, rest) = t.split_once(':')?;
    let name = name.trim();
    if name.is_empty() || !name.chars().all(is_ident_char) {
        return None;
    }
    let ty = rest.trim().trim_end_matches(',').trim();
    Some((name.to_string(), ty.to_string()))
}

/// Runs the mutation check over one file against the workspace field map.
pub fn check(file: &SourceFile, fields: &FieldMap) -> Vec<Diagnostic> {
    if file.is_test_path() || fields.is_empty() {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for (i, l) in file.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for (field, owner) in fields {
            let needle = format!(".{field}");
            for pos in token_positions(&l.code, &needle) {
                let from = pos + needle.len();
                // Field access must end exactly at the needle.
                if l.code[from..].chars().next().is_some_and(is_ident_char) {
                    continue;
                }
                let after = l.code[from..].trim_start();
                if let Some(op) = COMPOUND_OPS.iter().find(|op| after.starts_with(**op)) {
                    diags.push(Diagnostic::new(
                        RuleId::L4,
                        &file.rel,
                        i + 1,
                        format!(
                            "counter field `{field}` of `{owner}` mutated with `{op}`; use `{field} = {field}.saturating_*(..)`"
                        ),
                    ));
                }
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

    fn ws(src: &str) -> (Vec<SourceFile>, FieldMap) {
        let f = scan(Path::new("m.rs"), Path::new("m.rs"), src);
        let files = vec![f];
        let map = collect_fields(&files);
        (files, map)
    }

    const STATS: &str = "pub struct ServerStats {\n    pub flushes: u64,\n    pub busy_us: f64,\n    pub label: String,\n}\n";

    #[test]
    fn integer_fields_are_collected_floats_are_not() {
        let (_, map) = ws(STATS);
        assert_eq!(map.get("flushes").map(String::as_str), Some("ServerStats"));
        assert!(!map.contains_key("busy_us"));
        assert!(!map.contains_key("label"));
    }

    #[test]
    fn compound_assignment_fires() {
        let src = format!("{STATS}fn f(s: &mut ServerStats) {{\n    s.flushes += 1;\n}}\n");
        let (files, map) = ws(&src);
        let d = check(&files[0], &map);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 7);
    }

    #[test]
    fn saturating_and_plain_stores_pass() {
        let src = format!(
            "{STATS}fn f(s: &mut ServerStats) {{\n    s.flushes = s.flushes.saturating_add(1);\n    s.busy_us += 0.5;\n}}\n"
        );
        let (files, map) = ws(&src);
        assert!(check(&files[0], &map).is_empty());
    }

    #[test]
    fn prefix_fields_do_not_collide() {
        let src = format!("{STATS}fn f(x: &mut Other) {{\n    x.flushes_total += 1;\n}}\n");
        let (files, map) = ws(&src);
        assert!(check(&files[0], &map).is_empty());
    }

    #[test]
    fn non_counter_structs_are_ignored() {
        let (_, map) = ws("pub struct Reader {\n    pub pos: usize,\n}\n");
        assert!(map.is_empty());
    }
}
