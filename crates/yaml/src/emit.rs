//! Block-style emitter. `parse(to_string(v))` reconstructs `v` for every
//! value the parser can produce (verified by a proptest round-trip in
//! `tests/roundtrip.rs`).
//!
//! Everything is written straight into the one output buffer: there is
//! one quoting routine (`push_string`), and a caller that knows the
//! shape of its document can stream `key: value` lines through
//! [`push_str_entry`] / [`push_int_entry`] and get the bytes
//! [`to_string`] would produce for the equivalent top-level mapping
//! without building the tree.

use crate::scanner::infer_non_string;
use crate::value::{format_float, Yaml};
use std::fmt::Write;

/// Serialize a value as a block-style YAML document (trailing newline
/// included for non-empty documents).
pub fn to_string(v: &Yaml) -> String {
    let mut out = String::new();
    emit_node(v, 0, &mut out);
    out
}

/// Append the top-level mapping entry `key: value` for a string value,
/// newline included — byte for byte what [`to_string`] emits for
/// `(key, Yaml::Str(value))` in a root mapping.
pub fn push_str_entry(out: &mut String, key: &str, value: &str) {
    push_string(key, out);
    out.push_str(": ");
    push_string(value, out);
    out.push('\n');
}

/// Append the top-level mapping entry `key: value` for an integer
/// value, newline included — [`push_str_entry`]'s sibling for
/// `(key, Yaml::Int(value))`.
pub fn push_int_entry(out: &mut String, key: &str, value: i64) {
    push_string(key, out);
    writeln!(out, ": {value}").expect("writing to a String cannot fail");
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push(' ');
    }
}

fn emit_node(v: &Yaml, indent: usize, out: &mut String) {
    match v {
        Yaml::Map(m) if !m.is_empty() => {
            for (k, val) in m {
                push_indent(indent, out);
                // Keys never contain the separator pattern after quoting.
                push_string(k, out);
                out.push(':');
                emit_value_after_key(val, indent, out);
            }
        }
        Yaml::Seq(s) if !s.is_empty() => {
            for item in s {
                push_indent(indent, out);
                out.push('-');
                emit_value_after_key(item, indent, out);
            }
        }
        other => {
            push_indent(indent, out);
            push_scalar_or_empty_flow(other, out);
            out.push('\n');
        }
    }
}

/// Emit a value that follows `key:` or `-` on the same line (scalars,
/// empty collections) or as an indented block (non-empty collections).
fn emit_value_after_key(v: &Yaml, indent: usize, out: &mut String) {
    match v {
        Yaml::Map(m) if !m.is_empty() => {
            out.push('\n');
            emit_node(v, indent + 2, out);
        }
        Yaml::Seq(s) if !s.is_empty() => {
            out.push('\n');
            emit_node(v, indent + 2, out);
        }
        Yaml::Null => out.push('\n'),
        other => {
            out.push(' ');
            push_scalar_or_empty_flow(other, out);
            out.push('\n');
        }
    }
}

fn push_scalar_or_empty_flow(v: &Yaml, out: &mut String) {
    match v {
        Yaml::Null => out.push('~'),
        Yaml::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Yaml::Int(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
        Yaml::Float(f) => out.push_str(&format_float(*f)),
        Yaml::Str(s) => push_string(s, out),
        Yaml::Seq(_) => out.push_str("[]"),
        Yaml::Map(_) => out.push_str("{}"),
    }
}

/// Append a string scalar (or mapping key): plain when it reads back as
/// the same string, double-quoted with escapes otherwise.
fn push_string(s: &str, out: &mut String) {
    if !needs_quoting(s) {
        out.push_str(s);
        return;
    }
    out.reserve(s.len() + 2);
    out.push('"');
    // Every escaped character is ASCII, so the runs between them are
    // whole characters, copied as they stand.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0 => "\\0",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Whether `s` must be quoted to read back as the same string: the
/// first and last bytes are looked at once, the rest in one pass.
fn needs_quoting(s: &str) -> bool {
    let (Some(&first), Some(&last)) = (s.as_bytes().first(), s.as_bytes().last()) else {
        return true;
    };
    // Leading/trailing whitespace would be eaten by trimming.
    if s.starts_with(char::is_whitespace) || s.ends_with(char::is_whitespace) {
        return true;
    }
    // An indicator up front would be read as structure, a comment or a
    // quoted scalar; a separator colon at the end as a mapping entry.
    if matches!(
        first,
        b'#' | b'[' | b'{' | b'"' | b'\'' | b'&' | b'*' | b'!' | b'|' | b'>' | b'%' | b'@'
    ) || s == "-"
        || s.starts_with("- ")
        || last == b':'
    {
        return true;
    }
    // Would be re-parsed as a different type.
    if infer_non_string(s).is_some() {
        return true;
    }
    // Anywhere: a line break, tab or NUL; a separator colon (`: `); a
    // trailing comment (` #`). Multi-byte characters are bytes of 0x80
    // and above, so none of them match.
    let mut prev = 0u8;
    for &b in s.as_bytes() {
        if matches!(b, b'\n' | b'\t' | b'\r' | 0)
            || (prev, b) == (b':', b' ')
            || (prev, b) == (b' ', b'#')
        {
            return true;
        }
        prev = b;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use proptest::prelude::*;

    /// `push_string` as it was before it went over a string once: the
    /// decision below, then an escape or a push per character.
    fn push_string_reference(s: &str, out: &mut String) {
        if !needs_quoting_reference(s) {
            out.push_str(s);
            return;
        }
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                '\0' => out.push_str("\\0"),
                other => out.push(other),
            }
        }
        out.push('"');
    }

    /// `needs_quoting` as it was: one `trim`, `contains` or prefix
    /// search per rule.
    fn needs_quoting_reference(s: &str) -> bool {
        if s.is_empty() {
            return true;
        }
        if s != s.trim() {
            return true;
        }
        if infer_non_string(s).is_some() {
            return true;
        }
        if s == "-" || s.starts_with("- ") || s.starts_with('#') {
            return true;
        }
        if s.starts_with(['[', '{', '"', '\'', '&', '*', '!', '|', '>', '%', '@']) {
            return true;
        }
        if s.ends_with(':') || s.contains(": ") {
            return true;
        }
        if s.contains('\n') || s.contains('\t') || s.contains('\r') || s.contains('\0') {
            return true;
        }
        if s.contains(" #") {
            return true;
        }
        false
    }

    /// Every shape the emitter quotes, and near misses of each.
    const QUOTED: [&str; 40] = [
        "", " lead", "trail ", "a: b", "ends:", "a #b", "#", "- x", "-", "42", "-7", "0.1", "0x1F",
        "1e3", "~", "null", "true", "False", ".inf", "\"q\"", "'q'", "[x]", "{x}", "b\\s\\", "a:b",
        "a#b", "-x", "--", "+5", ".nan", "0X1f", "nul", "Tru", "1e", "\u{a0}a", "\u{2028}",
        "\u{85}", "tab\tin", "nul\0in", "cr\rin",
    ];

    /// Printable ASCII with line breaks and tabs, the request fields'
    /// alphabet, and a second one of the bytes the rules look at, with
    /// multi-byte and Unicode whitespace characters among them.
    fn arb_scalar() -> impl Strategy<Value = String> {
        const ALPHABET: [char; 16] = [
            ' ', ':', '#', '-', '.', '0', '7', 'e', 'x', 't', '\n', '\0', 'é', '\u{a0}',
            '\u{2028}', '漢',
        ];
        prop_oneof![
            "[ -~\\n\\t]{0,40}",
            prop::collection::vec(0..ALPHABET.len(), 0..12)
                .prop_map(|letters| letters.into_iter().map(|i| ALPHABET[i]).collect()),
            (0..QUOTED.len()).prop_map(|i| QUOTED[i].to_string()),
        ]
    }

    /// `s` as [`push_string`] and as its reference write it.
    fn both_ways(s: &str) -> (String, String) {
        let (mut one_pass, mut reference) = (String::new(), String::new());
        push_string(s, &mut one_pass);
        push_string_reference(s, &mut reference);
        (one_pass, reference)
    }

    #[test]
    fn one_pass_quoting_writes_as_the_reference_on_every_quoted_shape() {
        for s in QUOTED {
            assert_eq!(needs_quoting(s), needs_quoting_reference(s), "{s:?}");
            let (one_pass, reference) = both_ways(s);
            assert_eq!(one_pass, reference);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The intent ledger journals encoded requests, so neither the
        /// quoting decision nor a byte of the quoted form may move for
        /// any string.
        #[test]
        fn one_pass_quoting_writes_as_the_reference(s in arb_scalar()) {
            prop_assert_eq!(needs_quoting(&s), needs_quoting_reference(&s), "{:?}", s);
            let (one_pass, reference) = both_ways(&s);
            prop_assert_eq!(one_pass, reference);
        }
    }

    fn round_trip(v: &Yaml) {
        let text = to_string(v);
        let back = parse(&text).unwrap_or_else(|e| panic!("emitted text failed to parse: {e}\n{text}"));
        assert_eq!(&back, v, "round-trip mismatch; emitted:\n{text}");
    }

    #[test]
    fn emits_listing_like_document() {
        let doc = Yaml::Map(vec![
            (
                "rai".into(),
                Yaml::Map(vec![
                    ("version".into(), Yaml::Float(0.1)),
                    ("image".into(), Yaml::Str("webgpu/rai:root".into())),
                ]),
            ),
            (
                "commands".into(),
                Yaml::Map(vec![(
                    "build".into(),
                    Yaml::Seq(vec![
                        Yaml::Str("echo \"Building project\"".into()),
                        Yaml::Str("cmake /src".into()),
                        Yaml::Str("make".into()),
                    ]),
                )]),
            ),
        ]);
        let text = to_string(&doc);
        assert!(text.contains("rai:\n  version: 0.1\n  image: webgpu/rai:root\n"));
        assert!(text.contains("  build:\n    - "));
        round_trip(&doc);
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Yaml::Null,
            Yaml::Bool(true),
            Yaml::Bool(false),
            Yaml::Int(0),
            Yaml::Int(-42),
            Yaml::Float(0.25),
            Yaml::Str("plain".into()),
            Yaml::Str("needs: quoting".into()),
            Yaml::Str("0.1".into()),
            Yaml::Str("".into()),
            Yaml::Str("has # comment-ish".into()),
            Yaml::Str("multi\nline\tstuff".into()),
            Yaml::Str("- looks like a seq".into()),
            Yaml::Str("true".into()),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn empty_collections_round_trip() {
        round_trip(&Yaml::Map(vec![("a".into(), Yaml::Seq(vec![]))]));
        round_trip(&Yaml::Map(vec![("a".into(), Yaml::Map(vec![]))]));
        round_trip(&Yaml::Seq(vec![Yaml::Seq(vec![]), Yaml::Map(vec![])]));
    }

    #[test]
    fn deep_nesting_round_trips() {
        let doc = Yaml::Seq(vec![
            Yaml::Map(vec![
                ("name".into(), Yaml::Str("team a".into())),
                (
                    "runs".into(),
                    Yaml::Seq(vec![Yaml::Float(0.45), Yaml::Float(0.47)]),
                ),
            ]),
            Yaml::Seq(vec![Yaml::Seq(vec![Yaml::Int(1)])]),
            Yaml::Null,
        ]);
        round_trip(&doc);
    }

    #[test]
    fn quoted_key_round_trips() {
        let doc = Yaml::Map(vec![("weird: key".into(), Yaml::Int(1))]);
        round_trip(&doc);
    }
}
