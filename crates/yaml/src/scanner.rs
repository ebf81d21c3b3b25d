//! Line scanner: turns raw text into indentation-classified logical
//! lines with comments stripped, plus scalar lexing helpers shared by
//! the block and flow parsers.

use crate::error::{YamlError, YamlResult};
use crate::value::Scalar;
#[cfg(test)]
use crate::value::Yaml;
use std::borrow::Cow;

/// One significant source line. `content` borrows from the document
/// being parsed, so a `Line` is four words and `Copy`: scanning a
/// document allocates nothing per line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Line<'a> {
    /// 1-based source line number (for diagnostics).
    pub(crate) number: usize,
    /// Number of leading spaces.
    pub(crate) indent: usize,
    /// Content with indentation and trailing comment removed.
    pub(crate) content: &'a str,
}

/// How many significant lines a document's scan holds in place, on the
/// parser's stack, before it moves them to the heap. A build file has
/// 9–11.
pub(crate) const LINES_IN_PLACE: usize = 16;

/// Split a document into significant lines: into `in_place` while they
/// fit, into `spilled` when they do not. Blank lines and whole-line
/// comments are dropped; trailing comments are stripped unless the `#`
/// appears inside a quoted scalar. Tabs in indentation are rejected, as
/// in real YAML.
pub(crate) fn scan<'a, 'l>(
    src: &'a str,
    in_place: &'l mut [Line<'a>; LINES_IN_PLACE],
    spilled: &'l mut Vec<Line<'a>>,
) -> YamlResult<&'l [Line<'a>]> {
    let mut len = 0;
    for (i, raw) in lines(src).enumerate() {
        let Some(line) = scan_line(raw, i + 1)? else { continue };
        if len < LINES_IN_PLACE {
            in_place[len] = line;
        } else {
            if len == LINES_IN_PLACE {
                // A line runs 15–30 bytes; the estimate is bounded by
                // the document, so a file of blank lines cannot reserve
                // a slot each.
                spilled.reserve(src.len() / 16 + 1);
                spilled.extend_from_slice(&in_place[..]);
            }
            spilled.push(line);
        }
        len += 1;
    }
    Ok(if len <= LINES_IN_PLACE { &in_place[..len] } else { &spilled[..] })
}

/// The lines of a document as `str::lines` splits them, a line break
/// being `\n` or `\r\n`. Build file lines are short: each is found by
/// a loop over its bytes, which is cheaper than a `memchr` call's setup.
pub(crate) fn lines(src: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(src).filter(|s| !s.is_empty());
    std::iter::from_fn(move || {
        let text = rest?;
        let Some(at) = text.bytes().position(|b| b == b'\n') else {
            rest = None;
            return Some(text);
        };
        rest = Some(&text[at + 1..]).filter(|r| !r.is_empty());
        let line = &text[..at];
        Some(line.strip_suffix('\r').unwrap_or(line))
    })
}

/// One source line (line break excluded) as [`scan`] sees it: `None`
/// for a blank line, a whole-line comment or a document marker.
pub(crate) fn scan_line(raw: &str, number: usize) -> YamlResult<Option<Line<'_>>> {
    let indent = raw.bytes().take_while(|&b| b == b' ').count();
    let without_indent = &raw[indent..];
    if without_indent.starts_with('\t') {
        return Err(YamlError::new(number, "tab characters may not be used for indentation"));
    }
    let content = trim_end(strip_comment(without_indent));
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

/// Remove a trailing `#`-comment, honouring quoted scalars. A `#` only
/// starts a comment at the beginning of the content or when preceded by
/// whitespace (so `image: webgpu/rai#root` keeps its `#`).
fn strip_comment(s: &str) -> &str {
    let bytes = s.as_bytes();
    let comment = find_unquoted(s, b'#', |i| i == 0 || matches!(bytes[i - 1], b' ' | b'\t'));
    comment.map_or(s, |i| &s[..i])
}

/// Split a mapping line `key: value` at the first *separator* colon — a
/// colon followed by a space or end of content, outside quoted
/// scalars. Returns `(key, rest)` where `rest` may be empty. Returns
/// `None` if the line is not a mapping entry (no separator colon).
pub(crate) fn split_key(content: &str) -> Option<(&str, &str)> {
    let bytes = content.as_bytes();
    let i = find_unquoted(content, b':', |i| matches!(bytes.get(i + 1), None | Some(b' ')))?;
    Some((trim_end(&content[..i]), trim_start(content.get(i + 2..).unwrap_or(""))))
}

/// The first `target` byte of a line's content that `accept` takes and
/// that lies outside quoted scalars. Most lines hold no quote before
/// it, and are answered by two searches for a byte; the others by
/// [`walk_unquoted`].
fn find_unquoted(text: &str, target: u8, accept: impl Fn(usize) -> bool) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0;
    let first = loop {
        let i = from + bytes[from..].iter().position(|&b| b == target)?;
        if accept(i) {
            break i;
        }
        from = i + 1;
    };
    if !bytes[..first].iter().any(|&b| b == b'\'' || b == b'"') {
        return Some(first);
    }
    walk_unquoted(bytes, target, accept)
}

/// [`find_unquoted`], byte by byte. A quote opens a quoted scalar only
/// where a scalar begins (YAML 1.2 §7.3): at the start of the content,
/// after a `- ` entry indicator or a `: ` separator, and inside a flow
/// collection after its `[`, `{` or `,`. Inside a plain scalar `'` and
/// `"` are literal. An unterminated quoted scalar runs to the end of
/// the line.
fn walk_unquoted(bytes: &[u8], target: u8, accept: impl Fn(usize) -> bool) -> Option<usize> {
    let spaced = |i: usize| matches!(bytes.get(i + 1), None | Some(b' '));
    // Whether a scalar may begin here (spaces skipped), and how many
    // flow collections are open.
    let (mut begins, mut flow) = (true, 0usize);
    let mut i = 0;
    loop {
        // A run of other bytes is plain text: no scalar begins after it.
        let run = bytes[i..].iter().position(|&b| SPECIAL[usize::from(b)])?;
        if run > 0 {
            begins = false;
            i += run;
        }
        let b = bytes[i];
        if b == target && accept(i) {
            return Some(i);
        }
        match b {
            b'\'' | b'"' if begins => {
                i = past_quoted(bytes, i);
                begins = false;
                continue;
            }
            b' ' | b'\t' => {}
            b'-' => begins &= spaced(i),
            // A flow mapping's value may follow its colon unspaced.
            b':' => begins = flow > 0 || spaced(i),
            b'[' | b'{' if begins || flow > 0 => {
                flow += 1;
                begins = true;
            }
            b']' | b'}' => {
                flow = flow.saturating_sub(1);
                begins = false;
            }
            b',' => begins = flow > 0,
            _ => begins = false,
        }
        i += 1;
    }
}

/// The bytes [`walk_unquoted`] looks at one by one: whitespace, quotes,
/// the indicators that begin a scalar or a flow collection, and the
/// `#` and `:` it is asked for.
const SPECIAL: [bool; 256] = {
    let mut special = [false; 256];
    let bytes = b" \t'\"-:[]{},#";
    let mut i = 0;
    while i < bytes.len() {
        special[bytes[i] as usize] = true;
        i += 1;
    }
    special
};

/// The position just past the quoted scalar that opens at `bytes[open]`:
/// after its closing quote, or the end of the line if it has none.
/// `\` escapes the next byte of a double-quoted scalar; `''` is a quote
/// inside a single-quoted one.
fn past_quoted(bytes: &[u8], open: usize) -> usize {
    let quote = bytes[open];
    let mut i = open + 1;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'\\' if quote == b'"' => i += 2,
            b'\'' if quote == b'\'' && bytes.get(i + 1) == Some(&b'\'') => i += 2,
            _ if b == quote => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// `str::trim` (Unicode whitespace), with the usual case — a visible
/// ASCII byte at each end, so no character needs decoding — answered
/// from those bytes. [`trim_start`] and [`trim_end`] do one end each.
pub(crate) fn trim(s: &str) -> &str {
    trim_end(trim_start(s))
}

pub(crate) fn trim_start(s: &str) -> &str {
    if s.as_bytes().first().is_some_and(u8::is_ascii_graphic) {
        return s;
    }
    s.trim_start()
}

pub(crate) fn trim_end(s: &str) -> &str {
    if s.as_bytes().last().is_some_and(u8::is_ascii_graphic) {
        return s;
    }
    s.trim_end()
}

/// Parse a scalar token with YAML 1.1-ish type inference.
#[cfg(test)]
pub(crate) fn parse_scalar(token: &str, line: usize) -> YamlResult<Yaml> {
    read_scalar(token, line).map(Yaml::from)
}

/// Read a scalar token with YAML 1.1-ish type inference, borrowing its
/// text from `token` unless an escape has to be undone.
pub(crate) fn read_scalar(token: &str, line: usize) -> YamlResult<Scalar<'_>> {
    let t = trim(token);
    if t.is_empty() {
        return Ok(Scalar::Null);
    }
    if let Some(q) = t.strip_prefix('"') {
        return read_double_quoted(q, line);
    }
    if let Some(q) = t.strip_prefix('\'') {
        return read_single_quoted(q, line);
    }
    Ok(infer_non_string(t).unwrap_or(Scalar::Str(Cow::Borrowed(t))))
}

/// The non-string value a plain scalar reads as, if any. The emitter
/// asks this to decide whether a string must be quoted, so it must not
/// allocate for the (usual) answer "it is just a string".
pub(crate) fn infer_non_string(t: &str) -> Option<Scalar<'static>> {
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
        "~" | "null" | "Null" | "NULL" => return Some(Scalar::Null),
        "true" | "True" | "TRUE" => return Some(Scalar::Bool(true)),
        "false" | "False" | "FALSE" => return Some(Scalar::Bool(false)),
        ".inf" | "+.inf" => return Some(Scalar::Float(f64::INFINITY)),
        "-.inf" => return Some(Scalar::Float(f64::NEG_INFINITY)),
        ".nan" => return Some(Scalar::Float(f64::NAN)),
        _ => {}
    }
    if let Ok(i) = t.parse::<i64>() {
        return Some(Scalar::Int(i));
    }
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        if let Ok(i) = i64::from_str_radix(hex, 16) {
            return Some(Scalar::Int(i));
        }
    }
    if looks_numeric(t) {
        if let Ok(f) = t.parse::<f64>() {
            return Some(Scalar::Float(f));
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

/// What may follow a quoted scalar's closing quote: whitespace only.
fn closed(after: &str, line: usize) -> YamlResult<()> {
    if after.trim().is_empty() {
        return Ok(());
    }
    Err(YamlError::new(line, format!("trailing characters after closing quote: {after:?}")))
}

/// The double-quoted scalar whose body (opening quote excluded) starts
/// `rest`: the body itself when it holds no escape.
fn read_double_quoted(rest: &str, line: usize) -> YamlResult<Scalar<'_>> {
    let mut out = String::new();
    // Every byte that ends a run is ASCII, so the runs between them are
    // whole characters, copied as they stand.
    let mut tail = rest;
    while let Some(at) = tail.bytes().position(|b| b == b'"' || b == b'\\') {
        let after = &tail[at + 1..];
        if tail.as_bytes()[at] == b'"' {
            closed(after, line)?;
            if tail.len() == rest.len() {
                return Ok(Scalar::Str(Cow::Borrowed(&rest[..at])));
            }
            out.push_str(&tail[..at]);
            return Ok(Scalar::Str(Cow::Owned(out)));
        }
        out.reserve(rest.len());
        out.push_str(&tail[..at]);
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

/// The single-quoted scalar whose body (opening quote excluded) starts
/// `rest`: the body itself when it holds no `''`.
fn read_single_quoted(rest: &str, line: usize) -> YamlResult<Scalar<'_>> {
    let mut out = String::new();
    let mut tail = rest;
    while let Some(at) = tail.find('\'') {
        let after = &tail[at + 1..];
        if let Some(more) = after.strip_prefix('\'') {
            // '' is an escaped quote.
            out.reserve(rest.len());
            out.push_str(&tail[..=at]);
            tail = more;
            continue;
        }
        closed(after, line)?;
        if tail.len() == rest.len() {
            return Ok(Scalar::Str(Cow::Borrowed(&rest[..at])));
        }
        out.push_str(&tail[..at]);
        return Ok(Scalar::Str(Cow::Owned(out)));
    }
    Err(YamlError::new(line, "unterminated single-quoted scalar"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_all(src: &str) -> YamlResult<Vec<Line<'_>>> {
        let (mut in_place, mut spilled) = ([Line::default(); LINES_IN_PLACE], Vec::new());
        scan(src, &mut in_place, &mut spilled).map(<[_]>::to_vec)
    }

    #[test]
    fn scan_strips_blanks_and_comments() {
        let src = "# header\n\nrai:\n  version: 0.1  # trailing\n   \n";
        let lines = scan_all(src).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].content, "rai:");
        assert_eq!(lines[0].indent, 0);
        assert_eq!(lines[1].content, "version: 0.1");
        assert_eq!(lines[1].indent, 2);
        assert_eq!(lines[1].number, 4);
    }

    #[test]
    fn scan_rejects_tab_indent() {
        assert!(scan_all("a:\n\tb: 1").is_err());
    }

    #[test]
    fn hash_inside_value_is_kept() {
        let lines = scan_all("image: webgpu/rai#root\n").unwrap();
        assert_eq!(lines[0].content, "image: webgpu/rai#root");
    }

    #[test]
    fn hash_inside_quotes_is_kept() {
        let lines = scan_all("msg: \"a # b\"\n").unwrap();
        assert_eq!(lines[0].content, "msg: \"a # b\"");
        let lines = scan_all("msg: 'a # b' # real comment\n").unwrap();
        assert_eq!(lines[0].content, "msg: 'a # b'");
    }

    #[test]
    fn document_markers_skipped() {
        let lines = scan_all("---\na: 1\n...\n").unwrap();
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
        let lines = scan_all("a: \"x\\\\\" # c\n- echo \"C:\\\\\" # note\n").unwrap();
        assert_eq!(lines[0].content, "a: \"x\\\\\"");
        assert_eq!(lines[1].content, "- echo \"C:\\\\\"");
        assert_eq!(split_key("\"k\\\\\": v"), Some(("\"k\\\\\"", "v")));
        // An odd run still escapes the quote.
        assert_eq!(scan_all("a: \"x\\\" # c\"\n").unwrap()[0].content, "a: \"x\\\" # c\"");
        assert_eq!(split_key("\"k\\\": v\": w"), Some(("\"k\\\": v\"", "w")));
    }

    #[test]
    fn a_quote_inside_a_plain_scalar_is_literal() {
        // A quote opens a quoted scalar only where a scalar begins: in
        // the middle of a plain one it is a character like any other,
        // and the comment after it is still a comment.
        assert_eq!(scan_all("- echo don't # note\n").unwrap()[0].content, "- echo don't");
        assert_eq!(scan_all("k: it's a value # c\n").unwrap()[0].content, "k: it's a value");
        assert_eq!(split_key("it's: x"), Some(("it's", "x")));
        // Where a scalar begins, in block and flow context, it still
        // opens one.
        assert_eq!(scan_all("- 'a # b' # c\n").unwrap()[0].content, "- 'a # b'");
        assert_eq!(scan_all("k: [x, 'a # b'] # c\n").unwrap()[0].content, "k: [x, 'a # b']");
        assert_eq!(scan_all("k: {a:'x # y'}\n").unwrap()[0].content, "k: {a:'x # y'}");
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
