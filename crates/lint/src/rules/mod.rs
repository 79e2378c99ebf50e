//! The rule set. Each submodule implements one rule over the scanned
//! line channels; `lib.rs` wires them together and applies allowlists.

pub mod counters;
pub mod domain;
pub mod locks;
pub mod protocol;
pub mod safety;
pub mod totality;

/// True for characters that can continue a Rust identifier.
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte positions where `needle` occurs in `hay` with no identifier
/// character immediately before it (so `assert!` does not match inside
/// `debug_assert!`). The needle's own first character anchors the match.
pub(crate) fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let needs_boundary = needle.chars().next().is_some_and(is_ident_char);
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = hay[from..].find(needle) {
        let pos = from + at;
        let bounded = !needs_boundary
            || hay[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !is_ident_char(c));
        if bounded {
            out.push(pos);
        }
        from = pos + needle.len();
    }
    out
}

/// The last non-whitespace char of `s`, if any.
pub(crate) fn last_nonspace(s: &str) -> Option<char> {
    s.chars().rev().find(|c| !c.is_whitespace())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundary_excludes_identifier_prefixes() {
        assert_eq!(
            token_positions("debug_assert!(x); assert!(y);", "assert!").len(),
            1
        );
        assert_eq!(token_positions(".unwrap().unwrap()", ".unwrap()").len(), 2);
    }
}
