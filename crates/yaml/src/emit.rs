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

fn needs_quoting(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    // Leading/trailing whitespace would be eaten by trimming.
    if s != s.trim() {
        return true;
    }
    // Would be re-parsed as a different type or as structure.
    if infer_non_string(s).is_some() {
        return true;
    }
    if s == "-" || s.starts_with("- ") || s.starts_with('#') {
        return true;
    }
    if s.starts_with(['[', '{', '"', '\'', '&', '*', '!', '|', '>', '%', '@']) {
        return true;
    }
    // A separator colon would make it look like a mapping entry.
    if s.ends_with(':') || s.contains(": ") {
        return true;
    }
    if s.contains('\n') || s.contains('\t') || s.contains('\r') || s.contains('\0') {
        return true;
    }
    // A ` #` would be scanned as a trailing comment.
    if s.contains(" #") {
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

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
