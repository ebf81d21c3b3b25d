//! Block-style emitter. `parse(to_string(v))` reconstructs `v` for every
//! value the parser can produce (verified by a proptest round-trip in
//! `tests/roundtrip.rs`).
//!
//! Everything is written straight into the one output buffer: there is
//! one quoting routine (`push_string`), and a caller that knows the
//! shape of its document can stream `key: value` lines through
//! [`push_str_entry`] / [`push_int_entry`] and get the bytes
//! [`to_string`] would produce for the equivalent top-level mapping
//! without building the tree. [`read_str_entry`] / [`read_int_entry`]
//! read such a line back as the parser reads it, and only a line the
//! writer wrote.

use crate::scanner::infer_non_string;
use crate::value::{format_float, Yaml};

/// Serialize a value as a block-style YAML document (trailing newline
/// included for non-empty documents).
pub fn to_string(v: &Yaml) -> String {
    let mut out = String::new();
    emit_node(v, 0, &mut out);
    out
}

/// Append the top-level mapping entry `key: value` for a string value,
/// newline included — byte for byte what [`to_string`] emits for
/// `(key, Yaml::Str(value))` in a root mapping. `key` is a plain key,
/// one the emitter writes as it stands (a literal such as `job_id`).
pub fn push_str_entry(out: &mut String, key: &str, value: &str) {
    debug_assert!(!needs_quoting(key), "{key:?} is not a plain key");
    out.push_str(key);
    out.push_str(": ");
    push_string(value, out);
    out.push('\n');
}

/// Append the top-level mapping entry `key: value` for an integer
/// value, newline included — [`push_str_entry`]'s sibling for
/// `(key, Yaml::Int(value))`.
pub fn push_int_entry(out: &mut String, key: &str, value: i64) {
    debug_assert!(!needs_quoting(key), "{key:?} is not a plain key");
    out.push_str(key);
    out.push_str(": ");
    out.push_str(decimal(value, &mut [0; 20]));
    out.push('\n');
}

/// The value of a line [`push_str_entry`] wrote for `key` (line break
/// excluded), as the parser reads it; `None` for any line but the
/// one the writer writes for that value, however the parser reads it.
///
/// The writer's line is `key`, `: ` and the value's written bytes,
/// which the parser reads back as that key and value; so the key is
/// compared as the literal it is and only the value is read. The
/// writer leaves a string plain exactly when the parser reads it back
/// as itself (`needs_quoting`), so a plain value is its own reading. A
/// quoted one is unescaped in one pass that holds it to the writer's
/// form as it goes: every `"` and `\` and every byte the writer escapes
/// is escaped, by an escape the writer writes, and the closing quote
/// ends the line.
pub fn read_str_entry(line: &str, key: &str) -> Option<String> {
    let written = after_key(line, key)?;
    let Some(quoted) = written.strip_prefix('"') else {
        return (!needs_quoting(written)).then(|| written.to_string());
    };
    let mut rest = quoted.strip_suffix('"')?;
    let mut value = String::with_capacity(rest.len());
    // Whether an escape stood for a byte that quotes a string wherever
    // it is; otherwise the value is asked whether it needs its quotes.
    let mut forced = false;
    while let Some(at) = rest.bytes().position(|b| CLASS[usize::from(b)] & ESCAPED != 0) {
        // A bare `"` or a raw byte the writer escapes is not its line.
        if rest.as_bytes()[at] != b'\\' {
            return None;
        }
        value.push_str(&rest[..at]);
        let (c, forces) = match rest.as_bytes().get(at + 1)? {
            b'n' => ('\n', true),
            b't' => ('\t', true),
            b'r' => ('\r', true),
            b'0' => ('\0', true),
            b'"' => ('"', false),
            b'\\' => ('\\', false),
            _ => return None,
        };
        value.push(c);
        forced |= forces;
        rest = &rest[at + 2..];
    }
    value.push_str(rest);
    (forced || needs_quoting(&value)).then_some(value)
}

/// [`read_str_entry`]'s sibling for a line [`push_int_entry`] wrote.
/// The parser reads a plain scalar that `i64::from_str` takes as that
/// integer, so a value the writer wrote is read by the one and checked
/// against the writer's digits.
pub fn read_int_entry(line: &str, key: &str) -> Option<i64> {
    let written = after_key(line, key)?;
    let value = written.parse().ok()?;
    (decimal(value, &mut [0; 20]) == written).then_some(value)
}

/// `value` in decimal, as `Display` writes it, in `digits` (`i64::MIN`
/// is the longest, at 20 bytes).
fn decimal(value: i64, digits: &mut [u8; 20]) -> &str {
    let mut at = digits.len();
    let mut rest = value.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if value < 0 {
        at -= 1;
        digits[at] = b'-';
    }
    std::str::from_utf8(&digits[at..]).expect("ASCII digits")
}

/// What follows the `key: ` the entry writers put at the front of
/// `line`, `key` being the plain key they write as it stands.
fn after_key<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    debug_assert!(!needs_quoting(key), "{key:?} is not a plain key");
    line.strip_prefix(key)?.strip_prefix(": ")
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
        Yaml::Int(i) => out.push_str(decimal(*i, &mut [0; 20])),
        Yaml::Float(f) => out.push_str(&format_float(*f)),
        Yaml::Str(s) => push_string(s, out),
        Yaml::Seq(_) => out.push_str("[]"),
        Yaml::Map(_) => out.push_str("{}"),
    }
}

/// Append a string scalar (or mapping key): plain when it reads back as
/// the same string, double-quoted with escapes otherwise. One pass over
/// the bytes decides both: it stops once it knows the string is quoted
/// and where its first escape is, and the copy resumes from there.
fn push_string(s: &str, out: &mut String) {
    let (quoted, first_escape) = body_pass(s.as_bytes(), quoted_by_its_ends(s), true);
    if !quoted {
        out.push_str(s);
        return;
    }
    out.reserve(s.len() + 2);
    out.push('"');
    let Some(mut run) = first_escape else {
        out.push_str(s);
        out.push('"');
        return;
    };
    out.push_str(&s[..run]);
    // Every escaped character is ASCII, so the runs between them are
    // whole characters, copied as they stand.
    for (i, &b) in s.as_bytes().iter().enumerate().skip(run) {
        let Some(escape) = escape(b) else { continue };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The escape a quoted string writes for byte `b`, if it needs one.
fn escape(b: u8) -> Option<&'static str> {
    if CLASS[usize::from(b)] & ESCAPED == 0 {
        return None;
    }
    Some(match b {
        b'"' => "\\\"",
        b'\\' => "\\\\",
        b'\n' => "\\n",
        b'\t' => "\\t",
        b'\r' => "\\r",
        _ => "\\0",
    })
}

/// A byte a quoted string writes as an escape: `"`, `\`, a line break,
/// tab or NUL.
const ESCAPED: u8 = 1;
/// A byte that quotes a string wherever it stands: a line break, tab
/// or NUL.
const FORCES: u8 = 2;
/// Half of a pair that quotes a string: `: ` (a separator colon) or
/// ` #` (a trailing comment).
const PAIRS: u8 = 4;

/// The classes of each byte. Multi-byte characters are bytes of 0x80
/// and above, so none of them has one.
const CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    class[b'"' as usize] = ESCAPED;
    class[b'\\' as usize] = ESCAPED;
    class[b'\n' as usize] = ESCAPED | FORCES;
    class[b'\t' as usize] = ESCAPED | FORCES;
    class[b'\r' as usize] = ESCAPED | FORCES;
    class[0] = ESCAPED | FORCES;
    class[b':' as usize] = PAIRS;
    class[b' ' as usize] = PAIRS;
    class[b'#' as usize] = PAIRS;
    class
};

/// The one pass over a string's bytes: whether it is quoted (`quoted`
/// says what its ends decided), and, when `escapes` asks, where the
/// first byte its quoted form escapes is. Stops as soon as both are
/// known.
fn body_pass(bytes: &[u8], mut quoted: bool, escapes: bool) -> (bool, Option<usize>) {
    let mut first_escape = None;
    let mut prev = 0u8;
    for (i, &b) in bytes.iter().enumerate() {
        let class = CLASS[usize::from(b)];
        if class != 0 {
            quoted |= class & FORCES != 0 || (prev, b) == (b':', b' ') || (prev, b) == (b' ', b'#');
            if class & ESCAPED != 0 && first_escape.is_none() {
                first_escape = Some(i);
            }
            if quoted && (first_escape.is_some() || !escapes) {
                break;
            }
        }
        prev = b;
    }
    (quoted, first_escape)
}

/// Whether `s` must be quoted to read back as the same string.
fn needs_quoting(s: &str) -> bool {
    quoted_by_its_ends(s) || body_pass(s.as_bytes(), false, false).0
}

/// The quoting rules that look at a string as a whole, its first and
/// last characters and the type it would read as; [`body_pass`] looks
/// at the rest.
fn quoted_by_its_ends(s: &str) -> bool {
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
    infer_non_string(s).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{block_scalar_style, is_sequence_entry, parse, read_inline, read_key};
    use crate::scanner::{scan_line, split_key};
    use proptest::prelude::*;

    /// The entry of the one-line document `line` (line break excluded) as
    /// [`parse`](crate::parse) reads it: a `key: value` mapping entry at
    /// column 0, trailing comment stripped, key and value by the scalar,
    /// quoting and flow rules of a block mapping. A value whose body would
    /// follow on later lines reads as the document's end leaves it: `key:`
    /// is null, a block scalar header the empty string. `None` when that
    /// document is not one such entry, or does not parse.
    fn read_entry(line: &str) -> Option<(String, Yaml)> {
        let line = scan_line(line, 1).ok()??;
        if line.indent != 0 || is_sequence_entry(line.content) {
            return None;
        }
        let (raw_key, rest) = split_key(line.content)?;
        let key = read_key(raw_key, 1).ok()?.into_owned();
        let value = if rest.is_empty() {
            Yaml::Null
        } else if block_scalar_style(rest).is_some() {
            Yaml::Str(String::new())
        } else {
            // The mapping around the entry is one nesting level.
            read_inline(rest, 1, 1).ok()?
        };
        Some((key, value))
    }


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

        /// Integers are written as `Display` writes them.
        #[test]
        fn decimal_is_display(n in prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -10i64..10]) {
            let mut digits = [0; 20];
            prop_assert_eq!(decimal(n, &mut digits), n.to_string());
        }

        /// The one-line reader is the parser: on any line, it reads the
        /// one entry of the mapping at column 0 the line parses to, and
        /// nothing else.
        #[test]
        fn read_entry_reads_as_the_parser(pieces in prop::collection::vec(0usize..28, 0..12)) {
            const PIECES: [&str; 28] = [
                "k", "v", ": ", ":", " ", "#", " #", "\"", "'", "[", "]", "{", "}", ", ", "- ", "-", "|", ">-",
                "\\", "\\n", "0", "1.5", "~", "true", "\t", "\r", "é", "---",
            ];
            let line: String = pieces.iter().map(|&i| PIECES[i]).collect();
            let parsed = match parse(&line) {
                Ok(Yaml::Map(mut m)) if m.len() == 1 && !line.starts_with(' ') => m.pop(),
                _ => None,
            };
            prop_assert_eq!(read_entry(&line), parsed, "{:?}", line);
        }

        /// Only the writer's own line reads back, and it reads back as
        /// what was written.
        #[test]
        fn entries_read_back_only_as_written(s in arb_scalar(), n in any::<i64>(), pad in 0usize..4) {
            let mut line = String::new();
            push_str_entry(&mut line, "key", &s);
            let line = line.strip_suffix('\n').expect("an entry ends its line");
            prop_assert_eq!(read_str_entry(line, "key"), Some(s.clone()));
            prop_assert_eq!(read_str_entry(line, "other"), None);
            // The same value to the parser, in other bytes.
            let padded = format!("{line}{}", " ".repeat(pad + 1));
            prop_assert_eq!(read_str_entry(&padded, "key"), None);
            prop_assert_eq!(read_str_entry(&format!("{line} # c"), "key"), None);
            let mut int_line = String::new();
            push_int_entry(&mut int_line, "id", n);
            let int_line = int_line.strip_suffix('\n').expect("an entry ends its line");
            prop_assert_eq!(read_int_entry(int_line, "id"), Some(n));
            prop_assert_eq!(read_str_entry(int_line, "id"), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The strict readers are their definition: the whole line read
        /// as the parser reads it, kept only if the writer writes
        /// exactly that line for what was read.
        #[test]
        fn strict_readers_are_the_parser_and_the_writer(pieces in prop::collection::vec(0usize..26, 0..10)) {
            const PIECES: [&str; 26] = [
                "k", "v", ": ", ":", " ", " #", "\"", "'", "[", "{", "}", ", ", "- ", "-", "|",
                "\\", "\\n", "\\t", "0", "1.5", "~", "true", "\t", "é", "\"q\\n\"", "\"q\"",
            ];
            let value: String = pieces.iter().map(|&i| PIECES[i]).collect();
            let line = format!("k: {value}");
            let written = |v: &Yaml| {
                let mut out = String::new();
                match v {
                    Yaml::Str(s) => push_str_entry(&mut out, "k", s),
                    Yaml::Int(n) => push_int_entry(&mut out, "k", *n),
                    _ => return None,
                }
                out.pop();
                Some(out)
            };
            let definition = read_entry(&line)
                .filter(|(k, v)| k == "k" && written(v).as_deref() == Some(line.as_str()))
                .map(|(_, v)| v);
            let strict = read_str_entry(&line, "k")
                .map(Yaml::Str)
                .or_else(|| read_int_entry(&line, "k").map(Yaml::Int));
            prop_assert_eq!(strict, definition, "{:?}", line);
        }
    }

    #[test]
    fn entries_in_other_spellings_do_not_read_back() {
        for (line, key) in [
            ("id: +7", "id"),
            ("id: 07", "id"),
            ("id: 0x7", "id"),
            ("id: -0", "id"),
            ("id:  7", "id"),
            (" id: 7", "id"),
            ("\"id\": 7", "id"),
        ] {
            assert_eq!(read_int_entry(line, key), None, "{line:?}");
        }
        assert_eq!(read_int_entry("id: -7", "id"), Some(-7));
        for line in ["k: \"v\"", "k: 'v'", "k: v\r", "k: \"a\tb\"", "k: [v]", "'k': v", "k: \"a\\x41\""] {
            assert_eq!(read_str_entry(line, "k"), None, "{line:?}");
        }
        assert_eq!(read_str_entry("k: \"a\\tb\"", "k").as_deref(), Some("a\tb"));
        assert_eq!(read_str_entry("k: v", "k").as_deref(), Some("v"));
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
