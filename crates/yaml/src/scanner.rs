//! Line scanner: turns raw text into indentation-classified logical
//! lines with comments stripped, plus scalar lexing helpers shared by
//! the block and flow parsers.

use crate::error::{YamlError, YamlResult};
use crate::value::Yaml;

/// One significant source line. `content` borrows from the document
/// being parsed, so a `Line` is four words and `Copy`: scanning a
/// document allocates the `Vec` of lines and nothing per line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Line<'a> {
    /// 1-based source line number (for diagnostics).
    pub(crate) number: usize,
    /// Number of leading spaces.
    pub(crate) indent: usize,
    /// Content with indentation and trailing comment removed.
    pub(crate) content: &'a str,
}

/// Split a document into significant lines. Blank lines and whole-line
/// comments are dropped; trailing comments are stripped unless the `#`
/// appears inside a quoted span. Tabs in indentation are rejected, as in
/// real YAML.
pub(crate) fn scan(src: &str) -> YamlResult<Vec<Line<'_>>> {
    // A build file's lines run 15–30 bytes; the estimate is bounded by
    // the document, so a file of blank lines cannot reserve a slot each.
    let mut out = Vec::with_capacity(src.len() / 16 + 1);
    for (i, raw) in src.lines().enumerate() {
        if let Some(line) = scan_line(raw, i + 1)? {
            out.push(line);
        }
    }
    Ok(out)
}

/// One source line (line break excluded) as [`scan`] sees it: `None`
/// for a blank line, a whole-line comment or a document marker.
pub(crate) fn scan_line(raw: &str, number: usize) -> YamlResult<Option<Line<'_>>> {
    let without_indent = raw.trim_start_matches(' ');
    let indent = raw.len() - without_indent.len();
    if without_indent.starts_with('\t') {
        return Err(YamlError::new(number, "tab characters may not be used for indentation"));
    }
    let content = strip_comment(without_indent).trim_end();
    // Document markers: tolerated, treated as separators we skip (RAI
    // build files are single-document).
    if content.is_empty() || content == "---" || content == "..." {
        return Ok(None);
    }
    Ok(Some(Line {
        number,
        indent,
        content,
    }))
}

/// Remove a trailing `#`-comment, honouring single/double quotes.
/// A `#` only starts a comment at the beginning of the content or when
/// preceded by whitespace (so `image: webgpu/rai#root` keeps its `#`).
fn strip_comment(s: &str) -> &str {
    let bytes = s.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single && !escaped(bytes, i) => in_double = !in_double,
            b'#' if !in_single && !in_double
                && (i == 0 || bytes[i - 1] == b' ' || bytes[i - 1] == b'\t') => {
                    return &s[..i];
                }
            _ => {}
        }
        i += 1;
    }
    s
}

/// Whether the `"` at `bytes[i]` is escaped: preceded by an odd run of
/// backslashes (`"x\\"` closes its scalar; `"x\""` does not).
fn escaped(bytes: &[u8], i: usize) -> bool {
    bytes[..i].iter().rev().take_while(|&&b| b == b'\\').count() % 2 == 1
}

/// Split a mapping line `key: value` at the first *separator* colon — a
/// colon followed by a space or end of content, outside quotes. Returns
/// `(key, rest)` where `rest` may be empty. Returns `None` if the line is
/// not a mapping entry (no separator colon).
pub(crate) fn split_key(content: &str) -> Option<(&str, &str)> {
    let bytes = content.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single && !escaped(bytes, i) => in_double = !in_double,
            b':' if !in_single && !in_double => {
                if i + 1 == bytes.len() {
                    return Some((content[..i].trim_end(), ""));
                }
                if bytes[i + 1] == b' ' {
                    return Some((content[..i].trim_end(), content[i + 2..].trim_start()));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse a scalar token with YAML 1.1-ish type inference.
pub(crate) fn parse_scalar(token: &str, line: usize) -> YamlResult<Yaml> {
    let t = token.trim();
    if t.is_empty() {
        return Ok(Yaml::Null);
    }
    if let Some(q) = t.strip_prefix('"') {
        return parse_double_quoted(q, line);
    }
    if let Some(q) = t.strip_prefix('\'') {
        return parse_single_quoted(q, line);
    }
    Ok(infer_plain(t))
}

/// Type inference for plain (unquoted) scalars.
pub(crate) fn infer_plain(t: &str) -> Yaml {
    infer_non_string(t).unwrap_or_else(|| Yaml::Str(t.to_string()))
}

/// The non-string value a plain scalar reads as, if any. The emitter
/// asks this to decide whether a string must be quoted, so it must not
/// allocate for the (usual) answer "it is just a string".
pub(crate) fn infer_non_string(t: &str) -> Option<Yaml> {
    // Every non-string plain scalar starts with one of these bytes: the
    // null, boolean and special-float spellings below, a sign, a digit
    // or a decimal point.
    let lead = t.as_bytes().first().copied();
    if !matches!(
        lead,
        Some(b'~' | b'n' | b'N' | b't' | b'T' | b'f' | b'F' | b'.' | b'+' | b'-' | b'0'..=b'9')
    ) {
        return None;
    }
    match t {
        "~" | "null" | "Null" | "NULL" => return Some(Yaml::Null),
        "true" | "True" | "TRUE" => return Some(Yaml::Bool(true)),
        "false" | "False" | "FALSE" => return Some(Yaml::Bool(false)),
        ".inf" | "+.inf" => return Some(Yaml::Float(f64::INFINITY)),
        "-.inf" => return Some(Yaml::Float(f64::NEG_INFINITY)),
        ".nan" => return Some(Yaml::Float(f64::NAN)),
        _ => {}
    }
    if let Ok(i) = t.parse::<i64>() {
        return Some(Yaml::Int(i));
    }
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        if let Ok(i) = i64::from_str_radix(hex, 16) {
            return Some(Yaml::Int(i));
        }
    }
    if looks_numeric(t) {
        if let Ok(f) = t.parse::<f64>() {
            return Some(Yaml::Float(f));
        }
    }
    None
}

/// Guard against `parse::<f64>` accepting things users mean as strings
/// (e.g. "nan", "infinity", "1e") — only digit-led decimal forms count.
fn looks_numeric(t: &str) -> bool {
    let t = t.strip_prefix(['+', '-']).unwrap_or(t);
    let mut chars = t.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_digit() || (c == '.' && matches!(chars.next(), Some(d) if d.is_ascii_digit())))
        && t.chars().all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
}

fn parse_double_quoted(rest: &str, line: usize) -> YamlResult<Yaml> {
    let mut out = String::with_capacity(rest.len());
    // Every byte that ends a run is ASCII, so the runs between them are
    // whole characters, copied as they stand.
    let mut tail = rest;
    while let Some(at) = tail.bytes().position(|b| b == b'"' || b == b'\\') {
        out.push_str(&tail[..at]);
        let after = &tail[at + 1..];
        if tail.as_bytes()[at] == b'"' {
            if !after.trim().is_empty() {
                return Err(YamlError::new(line, format!("trailing characters after closing quote: {after:?}")));
            }
            return Ok(Yaml::Str(out));
        }
        out.push(match after.as_bytes().first() {
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'0') => '\0',
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(_) => {
                let other = after.chars().next().expect("a byte starts a character");
                return Err(YamlError::new(line, format!("unknown escape \\{other}")));
            }
            None => return Err(YamlError::new(line, "unterminated escape")),
        });
        tail = &after[1..];
    }
    Err(YamlError::new(line, "unterminated double-quoted scalar"))
}

fn parse_single_quoted(rest: &str, line: usize) -> YamlResult<Yaml> {
    let mut out = String::with_capacity(rest.len());
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        if c == '\'' {
            if chars.as_str().starts_with('\'') {
                // '' is an escaped quote.
                out.push('\'');
                chars.next();
            } else {
                let tail = chars.as_str();
                if !tail.trim().is_empty() {
                    return Err(YamlError::new(line, format!("trailing characters after closing quote: {tail:?}")));
                }
                return Ok(Yaml::Str(out));
            }
        } else {
            out.push(c);
        }
    }
    Err(YamlError::new(line, "unterminated single-quoted scalar"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_strips_blanks_and_comments() {
        let src = "# header\n\nrai:\n  version: 0.1  # trailing\n   \n";
        let lines = scan(src).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].content, "rai:");
        assert_eq!(lines[0].indent, 0);
        assert_eq!(lines[1].content, "version: 0.1");
        assert_eq!(lines[1].indent, 2);
        assert_eq!(lines[1].number, 4);
    }

    #[test]
    fn scan_rejects_tab_indent() {
        assert!(scan("a:\n\tb: 1").is_err());
    }

    #[test]
    fn hash_inside_value_is_kept() {
        let lines = scan("image: webgpu/rai#root\n").unwrap();
        assert_eq!(lines[0].content, "image: webgpu/rai#root");
    }

    #[test]
    fn hash_inside_quotes_is_kept() {
        let lines = scan("msg: \"a # b\"\n").unwrap();
        assert_eq!(lines[0].content, "msg: \"a # b\"");
        let lines = scan("msg: 'a # b' # real comment\n").unwrap();
        assert_eq!(lines[0].content, "msg: 'a # b'");
    }

    #[test]
    fn document_markers_skipped() {
        let lines = scan("---\na: 1\n...\n").unwrap();
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn split_key_basic() {
        assert_eq!(split_key("version: 0.1"), Some(("version", "0.1")));
        assert_eq!(split_key("commands:"), Some(("commands", "")));
        assert_eq!(split_key("echo hello"), None);
        // URL-ish colons without a following space are not separators.
        assert_eq!(split_key("image: webgpu/rai:root"), Some(("image", "webgpu/rai:root")));
        assert_eq!(split_key("http://example.com"), None);
    }

    #[test]
    fn split_key_respects_quotes() {
        assert_eq!(split_key("'a: b': c"), Some(("'a: b'", "c")));
        assert_eq!(split_key("\"k: x\": v"), Some(("\"k: x\"", "v")));
    }

    #[test]
    fn quote_closes_after_an_escaped_backslash() {
        // `\\"` is an escaped backslash followed by the closing quote:
        // the comment after it is a comment, the colon a separator.
        let lines = scan("a: \"x\\\\\" # c\n- echo \"C:\\\\\" # note\n").unwrap();
        assert_eq!(lines[0].content, "a: \"x\\\\\"");
        assert_eq!(lines[1].content, "- echo \"C:\\\\\"");
        assert_eq!(split_key("\"k\\\\\": v"), Some(("\"k\\\\\"", "v")));
        // An odd run still escapes the quote.
        assert_eq!(scan("a: \"x\\\" # c\"\n").unwrap()[0].content, "a: \"x\\\" # c\"");
        assert_eq!(split_key("\"k\\\": v\": w"), Some(("\"k\\\": v\"", "w")));
    }

    #[test]
    fn scalar_inference() {
        assert_eq!(parse_scalar("42", 1).unwrap(), Yaml::Int(42));
        assert_eq!(parse_scalar("-7", 1).unwrap(), Yaml::Int(-7));
        assert_eq!(parse_scalar("0.1", 1).unwrap(), Yaml::Float(0.1));
        assert_eq!(parse_scalar("1e3", 1).unwrap(), Yaml::Float(1000.0));
        assert_eq!(parse_scalar("true", 1).unwrap(), Yaml::Bool(true));
        assert_eq!(parse_scalar("null", 1).unwrap(), Yaml::Null);
        assert_eq!(parse_scalar("~", 1).unwrap(), Yaml::Null);
        assert_eq!(parse_scalar("", 1).unwrap(), Yaml::Null);
        assert_eq!(parse_scalar("0x1F", 1).unwrap(), Yaml::Int(31));
        assert_eq!(parse_scalar("make -j4", 1).unwrap(), Yaml::Str("make -j4".into()));
        // Things float-parseable but not digit-led stay strings.
        assert_eq!(parse_scalar("nan", 1).unwrap(), Yaml::Str("nan".into()));
        assert_eq!(parse_scalar("infinity", 1).unwrap(), Yaml::Str("infinity".into()));
    }

    #[test]
    fn quoted_scalars() {
        assert_eq!(parse_scalar("\"12\"", 1).unwrap(), Yaml::Str("12".into()));
        assert_eq!(parse_scalar("\"a\\nb\"", 1).unwrap(), Yaml::Str("a\nb".into()));
        assert_eq!(parse_scalar("'it''s'", 1).unwrap(), Yaml::Str("it's".into()));
        assert!(parse_scalar("\"unterminated", 1).is_err());
        assert!(parse_scalar("'unterminated", 1).is_err());
        assert!(parse_scalar("\"x\" junk", 1).is_err());
        assert!(parse_scalar("\"bad \\q escape\"", 1).is_err());
    }
}
