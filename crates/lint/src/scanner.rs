//! Hand-rolled lexical pass over Rust source.
//!
//! The analyzer deliberately avoids `syn`/`proc-macro2` (the build image
//! has no crates.io access and the workspace vendors everything), so this
//! module implements the minimum lexical understanding the rules need:
//!
//! * a character-level state machine that classifies every byte of a
//!   source file as **code**, **comment**, or **string-literal content**
//!   (handling nested block comments, raw strings, byte strings, char
//!   literals vs. lifetimes, and escapes);
//! * a structural post-pass that tracks brace depth to mark
//!   `#[cfg(test)]` / `#[test]` regions and the innermost enclosing
//!   function of every line.
//!
//! Rules then operate on per-line views: `code` (literal contents and
//! comments blanked out), `comment` (the comment text of the line), and
//! `strings` (the contents of string literals started on the line).

use std::path::{Path, PathBuf};

/// One physical source line, split into the channels the rules consume.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Source text with comments removed and string/char literal
    /// contents blanked (quote characters are kept so tokens do not
    /// merge across a removed literal).
    pub code: String,
    /// Concatenated comment text appearing on this line, including the
    /// `//` / `/*` markers.
    pub comment: String,
    /// Contents of string and byte-string literals that *start* on this
    /// line (raw and escaped forms included, escapes left undecoded).
    pub strings: Vec<String>,
    /// True when the line sits inside a `#[cfg(test)]` or `#[test]`
    /// item, or the whole file lives under a test-like directory.
    pub in_test: bool,
    /// Brace depth at the start of the line.
    pub depth: u32,
    /// Name of the innermost function enclosing (or entered on) this
    /// line, when one is known.
    pub fn_name: Option<String>,
}

/// A scanned source file: the path it was loaded from, its path relative
/// to the lint root, and the per-line lexical channels.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute (or as-given) path, used for diagnostics.
    pub path: PathBuf,
    /// Path relative to the linted tree root; component names drive
    /// per-rule scoping (e.g. `tests/`, `benches/`).
    pub rel: PathBuf,
    /// The scanned lines, index 0 = line 1.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// True when the file lives under a `tests/`, `benches/` or
    /// `examples/` directory *below the lint root* — integration tests
    /// and benches are exempt from the production-contract rules.
    pub fn is_test_path(&self) -> bool {
        self.rel.components().any(|c| {
            matches!(
                c.as_os_str().to_str(),
                Some("tests" | "benches" | "examples")
            )
        })
    }
}

/// Lexer state carried across lines.
enum State {
    Code,
    LineComment,
    Block(u32),
    Str { raw_hashes: Option<u32> },
    Char,
}

/// Scans `text` into per-line channels and runs the structural post-pass.
pub fn scan(path: &Path, rel: &Path, text: &str) -> SourceFile {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut cur_string = String::new();
    let mut state = State::Code;
    let mut i = 0usize;
    let n = chars.len();
    macro_rules! flush_line {
        () => {{
            if let State::Str { .. } = state {
                // A literal spanning lines: bank what we have so far so
                // per-line rules still see the prefix.
                if !cur_string.is_empty() {
                    cur.strings.push(std::mem::take(&mut cur_string));
                }
            }
            lines.push(std::mem::take(&mut cur));
        }};
    }
    while i < n {
        let c = chars[i];
        if c == '\n' {
            if let State::LineComment = state {
                state = State::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && i + 1 < n && chars[i + 1] == '/' {
                    state = State::LineComment;
                    cur.comment.push_str("//");
                    i += 2;
                } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                    state = State::Block(1);
                    cur.comment.push_str("/*");
                    cur.code.push(' ');
                    i += 2;
                } else if c == '"' {
                    state = State::Str { raw_hashes: None };
                    cur.code.push('"');
                    i += 1;
                } else if c == 'r' || c == 'b' {
                    // Possible raw/byte string prefix; only when not part
                    // of a preceding identifier.
                    let prev_ident = cur
                        .code
                        .chars()
                        .last()
                        .is_some_and(|p| p.is_alphanumeric() || p == '_');
                    match raw_prefix(&chars[i..]) {
                        Some((skip, hashes)) if !prev_ident => {
                            cur.code.push('"');
                            state = State::Str { raw_hashes: hashes };
                            i += skip;
                        }
                        _ => {
                            cur.code.push(c);
                            i += 1;
                        }
                    }
                } else if c == '\'' {
                    // Char literal vs. lifetime.
                    if is_char_literal(&chars[i..]) {
                        cur.code.push('\'');
                        state = State::Char;
                        i += 1;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::Block(depth) => {
                if c == '*' && i + 1 < n && chars[i + 1] == '/' {
                    cur.comment.push_str("*/");
                    i += 2;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                    cur.comment.push_str("/*");
                    i += 2;
                    state = State::Block(depth + 1);
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' && i + 1 < n {
                        cur_string.push(c);
                        cur_string.push(chars[i + 1]);
                        i += 2;
                    } else if c == '"' {
                        cur.code.push('"');
                        cur.strings.push(std::mem::take(&mut cur_string));
                        state = State::Code;
                        i += 1;
                    } else {
                        cur_string.push(c);
                        i += 1;
                    }
                }
                Some(h) => {
                    if c == '"' && closes_raw(&chars[i..], h) {
                        cur.code.push('"');
                        cur.strings.push(std::mem::take(&mut cur_string));
                        state = State::Code;
                        i += 1 + h as usize;
                    } else {
                        cur_string.push(c);
                        i += 1;
                    }
                }
            },
            State::Char => {
                if c == '\\' && i + 1 < n {
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    flush_line!();
    let mut file = SourceFile {
        path: path.to_path_buf(),
        rel: rel.to_path_buf(),
        lines,
    };
    structure_pass(&mut file);
    file
}

/// Recognizes `r"`, `r#"`, `b"`, `br##"` … at the head of `s`.
/// Returns `(chars_to_skip, raw_hash_count)`; `None` hash count means a
/// plain (escaped) byte string.
fn raw_prefix(s: &[char]) -> Option<(usize, Option<u32>)> {
    let mut j = 0;
    if s[j] == 'b' {
        j += 1;
    }
    let raw = j < s.len() && s[j] == 'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0u32;
    while raw && j < s.len() && s[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j < s.len() && s[j] == '"' && (raw || s[0] == 'b') {
        Some((j + 1, raw.then_some(hashes)))
    } else {
        None
    }
}

/// True when `"` at `s[0]` followed by `hashes` `#`s closes a raw string.
fn closes_raw(s: &[char], hashes: u32) -> bool {
    let h = hashes as usize;
    s.len() > h && s[1..=h].iter().all(|&c| c == '#')
}

/// Distinguishes `'a'` / `'\n'` (char literal) from `'a` (lifetime).
fn is_char_literal(s: &[char]) -> bool {
    // s[0] is the opening quote.
    if s.len() < 3 {
        return false;
    }
    if s[1] == '\\' {
        return true;
    }
    s[1] != '\'' && s[2] == '\''
}

/// Extracts the identifier starting at `chars[i]`.
fn ident_at(chars: &[char], mut i: usize) -> String {
    let mut out = String::new();
    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
        out.push(chars[i]);
        i += 1;
    }
    out
}

/// Finds `fn <name>` on a code line, returning the name.
fn fn_decl_name(code: &str) -> Option<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i + 1 < chars.len() {
        if chars[i] == 'f'
            && chars[i + 1] == 'n'
            && (i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_'))
            && chars.get(i + 2).is_some_and(|c| c.is_whitespace())
        {
            let mut j = i + 2;
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            let name = ident_at(&chars, j);
            if !name.is_empty() {
                return Some(name);
            }
        }
        i += 1;
    }
    None
}

/// Brace-depth post-pass: marks `#[cfg(test)]` regions and records the
/// innermost enclosing function per line.
fn structure_pass(file: &mut SourceFile) {
    let path_test = file.is_test_path();
    let mut depth: u32 = 0;
    let mut fn_stack: Vec<(String, u32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    // Depth at which the current #[cfg(test)] item opened its brace;
    // the region ends when depth returns to this value.
    let mut test_at: Option<u32> = None;
    let mut pending_test = false;
    for line in &mut file.lines {
        line.depth = depth;
        let mut line_fn = fn_stack.last().map(|(n, _)| n.clone());
        if line.code.contains("#[cfg(test)]") || line.code.trim_start().starts_with("#[test]") {
            pending_test = true;
        }
        if let Some(name) = fn_decl_name(&line.code) {
            pending_fn = Some(name);
        }
        line.in_test = path_test || pending_test || test_at.is_some();
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending_test {
                        test_at = Some(depth);
                        pending_test = false;
                    }
                    if let Some(name) = pending_fn.take() {
                        line_fn = Some(name.clone());
                        fn_stack.push((name, depth));
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_at == Some(depth) {
                        test_at = None;
                    }
                    if fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                        fn_stack.pop();
                    }
                }
                // `#[cfg(test)] use …;` / trait method signatures end the
                // pending item without opening a brace.
                ';' if depth == line.depth => {
                    pending_test = false;
                    pending_fn = None;
                }
                _ => {}
            }
        }
        line.fn_name = line_fn;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn scan_str(text: &str) -> SourceFile {
        scan(Path::new("x.rs"), Path::new("x.rs"), text)
    }

    #[test]
    fn comments_and_strings_are_split() {
        let f = scan_str("let x = \"a // not comment\"; // real\n");
        assert_eq!(f.lines[0].code.trim(), "let x = \"\";");
        assert_eq!(f.lines[0].comment, "// real");
        assert_eq!(f.lines[0].strings, vec!["a // not comment"]);
    }

    #[test]
    fn raw_and_byte_strings() {
        let f = scan_str("let m = *b\"HEAW\"; let r = r#\"x \" y\"#;\n");
        assert_eq!(f.lines[0].strings, vec!["HEAW", "x \" y"]);
        assert!(!f.lines[0].code.contains("HEAW"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = scan_str("fn f<'a>(x: &'a str) -> char { 'b' }\n");
        assert!(f.lines[0].code.contains("&'a str"));
        assert!(!f.lines[0].code.contains('b'));
    }

    #[test]
    fn block_comments_nest() {
        let f = scan_str("/* a /* b */ still */ code();\n");
        assert_eq!(f.lines[0].code.trim(), "code();");
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = scan_str(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn enclosing_fn_is_tracked() {
        let src = "fn deserialize_x(b: &[u8]) -> u8 {\n    b[0]\n}\nfn other() {\n    1;\n}\n";
        let f = scan_str(src);
        assert_eq!(f.lines[1].fn_name.as_deref(), Some("deserialize_x"));
        assert_eq!(f.lines[4].fn_name.as_deref(), Some("other"));
    }

    #[test]
    fn multiline_signature_binds_to_fn() {
        let src = "fn deserialize_y(\n    b: &[u8],\n) -> u8 {\n    b[0]\n}\n";
        let f = scan_str(src);
        assert_eq!(f.lines[3].fn_name.as_deref(), Some("deserialize_y"));
    }
}
