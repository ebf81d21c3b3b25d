//! Recursive-descent block parser over scanned lines, plus a small flow
//! (`[..]` / `{..}`) parser for inline collections.

use crate::error::{YamlError, YamlResult};
use crate::scanner::{parse_scalar, scan, split_key, Line};
use crate::value::Yaml;
use std::borrow::Cow;

/// Deepest nesting a document may have, block and flow levels counted
/// together. Both parsers recurse once per level, and the documents
/// are students' build files: without a cap a few KB of `[[[[…` run a
/// worker thread out of stack, which aborts the process. The shipped
/// build files nest 3 levels; a block level costs about 3.5 KB of
/// stack in a debug build, so 32 of them fit a 256 KiB stack twice
/// over.
const MAX_DEPTH: usize = 32;

/// Enter one more nesting level, on the line numbered `line`.
fn descend(depth: &mut usize, line: usize) -> YamlResult<()> {
    *depth += 1;
    if *depth > MAX_DEPTH {
        return Err(YamlError::new(line, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    Ok(())
}

/// Parse a single YAML document.
///
/// An empty (or comment-only) document parses to [`Yaml::Null`].
pub fn parse(src: &str) -> YamlResult<Yaml> {
    let lines = scan(src)?;
    if lines.is_empty() {
        return Ok(Yaml::Null);
    }
    let root_indent = lines[0].indent;
    let raw = src.lines().collect();
    let mut p = Parser { lines, pos: 0, raw, depth: 0 };
    let value = p.parse_node(root_indent)?;
    if let Some(extra) = p.peek() {
        return Err(YamlError::new(
            extra.number,
            format!("unexpected content after document root: {:?}", extra.content),
        ));
    }
    Ok(value)
}

/// Everything the parser looks at borrows from the document (`'a`);
/// it allocates only for the values it returns.
struct Parser<'a> {
    lines: Vec<Line<'a>>,
    pos: usize,
    /// The raw source lines (1-based via index+0): block scalars need
    /// them because the scanner strips comments and blank lines.
    raw: Vec<&'a str>,
    /// Nesting levels open at `pos` (see [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Line<'a>> {
        self.lines.get(self.pos).copied()
    }

    fn bump(&mut self) -> Line<'a> {
        let l = self.lines[self.pos];
        self.pos += 1;
        l
    }

    /// Parse the node whose first line is at `self.pos`, expected at
    /// exactly `indent`.
    fn parse_node(&mut self, indent: usize) -> YamlResult<Yaml> {
        let line = self
            .peek()
            .ok_or_else(|| YamlError::new(0, "unexpected end of document"))?;
        if line.indent != indent {
            return Err(YamlError::new(
                line.number,
                format!("bad indentation: expected column {indent}, found {}", line.indent),
            ));
        }
        descend(&mut self.depth, line.number)?;
        let node = if is_sequence_entry(line.content) {
            self.parse_sequence(indent)
        } else if split_key(line.content).is_some() {
            self.parse_mapping(indent)
        } else {
            // Top-level / nested scalar (or flow collection) with folding.
            self.bump();
            self.parse_inline_value(line.content, indent, line.number)
        }?;
        self.depth -= 1;
        Ok(node)
    }

    fn parse_mapping(&mut self, indent: usize) -> YamlResult<Yaml> {
        let mut map: Vec<(String, Yaml)> = Vec::new();
        while let Some(line) = self.peek() {
            if line.indent < indent {
                break;
            }
            if line.indent > indent {
                return Err(YamlError::new(
                    line.number,
                    format!("bad indentation inside mapping: expected column {indent}"),
                ));
            }
            if is_sequence_entry(line.content) {
                return Err(YamlError::new(
                    line.number,
                    "sequence entry found where a mapping key was expected",
                ));
            }
            self.bump();
            let Some((raw_key, rest)) = split_key(line.content) else {
                return Err(YamlError::new(
                    line.number,
                    format!("expected `key: value`, found {:?}", line.content),
                ));
            };
            let key = parse_scalar(raw_key, line.number)?
                .into_scalar_string()
                .ok_or_else(|| YamlError::new(line.number, "mapping key must be a scalar"))?;
            if map.iter().any(|(k, _)| *k == key) {
                return Err(YamlError::new(line.number, format!("duplicate mapping key {key:?}")));
            }
            let value = if rest.is_empty() {
                // `key:` — nested block, or null if nothing deeper follows.
                match self.peek() {
                    Some(next) if next.indent > indent => {
                        let child_indent = next.indent;
                        self.parse_node(child_indent)?
                    }
                    _ => Yaml::Null,
                }
            } else if let Some(style) = block_scalar_style(rest) {
                self.parse_block_scalar(style, indent, line.number)?
            } else {
                self.parse_inline_value(rest, indent, line.number)?
            };
            map.push((key, value));
        }
        Ok(Yaml::Map(map))
    }

    fn parse_sequence(&mut self, indent: usize) -> YamlResult<Yaml> {
        let mut seq = Vec::new();
        while let Some(line) = self.peek() {
            if line.indent < indent {
                break;
            }
            if line.indent > indent {
                return Err(YamlError::new(
                    line.number,
                    format!("bad indentation inside sequence: expected column {indent}"),
                ));
            }
            if !is_sequence_entry(line.content) {
                break;
            }
            self.bump();
            if line.content == "-" {
                // Dash alone: nested block on following deeper lines.
                match self.peek() {
                    Some(next) if next.indent > indent => {
                        let child_indent = next.indent;
                        seq.push(self.parse_node(child_indent)?);
                    }
                    _ => seq.push(Yaml::Null),
                }
                continue;
            }
            let rest = line.content[1..].trim_start();
            let rest_col = indent + (line.content.len() - rest.len());
            if split_key(rest).is_some() && !starts_quoted_or_flow(rest) {
                // `- key: value` opens a mapping whose first entry sits on
                // the dash line. Re-inject the remainder as a virtual line
                // at the column where it begins.
                self.lines.insert(
                    self.pos,
                    Line {
                        number: line.number,
                        indent: rest_col,
                        content: rest,
                    },
                );
                seq.push(self.parse_node(rest_col)?);
            } else if let Some(style) = block_scalar_style(rest) {
                seq.push(self.parse_block_scalar(style, indent, line.number)?);
            } else {
                seq.push(self.parse_inline_value(rest, indent, line.number)?);
            }
        }
        Ok(Yaml::Seq(seq))
    }

    /// Parse a block scalar whose header (`|`, `|-`, `>`, `>-`) sat on
    /// the line numbered `header_line` at `parent_indent`. Content is
    /// every following raw line that is blank or indented deeper than
    /// the parent; the scanner's view of those lines is skipped.
    fn parse_block_scalar(
        &mut self,
        style: BlockStyle,
        parent_indent: usize,
        header_line: usize,
    ) -> YamlResult<Yaml> {
        // Collect the raw content region.
        let mut content: Vec<&str> = Vec::new();
        let mut last_line = header_line;
        for (idx, &raw) in self.raw.iter().enumerate().skip(header_line) {
            let number = idx + 1;
            let trimmed = raw.trim_start_matches(' ');
            let indent = raw.len() - trimmed.len();
            if trimmed.is_empty() {
                content.push("");
                last_line = number;
                continue;
            }
            if indent <= parent_indent {
                break;
            }
            content.push(raw);
            last_line = number;
        }
        // Trim trailing blank lines out of the region (they belong to
        // whatever comes next).
        while content.last().is_some_and(|l| l.trim().is_empty()) {
            content.pop();
            last_line -= 1;
        }
        if content.is_empty() {
            // An empty block scalar is the empty string.
            return Ok(Yaml::Str(String::new()));
        }
        // The block's own indentation is the indent of its first
        // non-blank line.
        let block_indent = content
            .iter()
            .find(|l| !l.trim().is_empty())
            .map(|l| l.len() - l.trim_start_matches(' ').len())
            .unwrap_or(parent_indent + 1);
        let stripped: Vec<&str> = content
            .iter()
            .map(|l| l.get(block_indent..).unwrap_or(""))
            .collect();

        // Skip the scanned lines consumed by this block.
        while self
            .peek()
            .is_some_and(|l| l.number > header_line && l.number <= last_line)
        {
            self.pos += 1;
        }

        let mut text = match style.folded {
            false => stripped.join("\n"),
            true => {
                // Folding: single newlines become spaces, blank lines
                // become newlines.
                let mut out = String::new();
                let mut pending_break = false;
                for line in &stripped {
                    if line.trim().is_empty() {
                        out.push('\n');
                        pending_break = false;
                    } else {
                        if pending_break {
                            out.push(' ');
                        }
                        out.push_str(line);
                        pending_break = true;
                    }
                }
                out
            }
        };
        if !style.chomp {
            text.push('\n');
        }
        Ok(Yaml::Str(text))
    }

    /// Fold plain-scalar continuation lines (strictly deeper indent, not a
    /// new sequence entry) into `first`, joined with single spaces. This
    /// is what lets Listing 1 split `nvprof … ./ece408 …` over two lines.
    ///
    /// Borrows `first` unless a continuation is actually folded in.
    fn fold_continuations(&mut self, first: &'a str, indent: usize) -> Cow<'a, str> {
        let mut out = Cow::Borrowed(first);
        if starts_quoted_or_flow(first) {
            return out;
        }
        while let Some(next) = self.peek() {
            // A deeper line that itself looks like structure (sequence
            // entry or mapping key) is not a continuation — leaving it
            // here lets the enclosing block report a clear indentation
            // error, as real YAML does.
            if next.indent <= indent
                || is_sequence_entry(next.content)
                || split_key(next.content).is_some()
            {
                break;
            }
            self.bump();
            let folded = out.to_mut();
            folded.push(' ');
            folded.push_str(next.content.trim());
        }
        out
    }

    /// Parse a value that starts on the current line (after `key:` or
    /// `-`, or a bare scalar node) and may fold onto following lines.
    fn parse_inline_value(&mut self, rest: &'a str, indent: usize, number: usize) -> YamlResult<Yaml> {
        let folded = self.fold_continuations(rest, indent);
        self.parse_inline_scalar_or_flow(&folded, number)
    }

    fn parse_inline_scalar_or_flow(&mut self, text: &str, number: usize) -> YamlResult<Yaml> {
        let t = text.trim();
        if t.starts_with('[') || t.starts_with('{') {
            let mut fp = FlowParser {
                chars: t.char_indices().collect(),
                pos: 0,
                line: number,
                depth: self.depth,
            };
            let v = fp.parse_value()?;
            fp.skip_ws();
            if fp.pos < fp.chars.len() {
                return Err(YamlError::new(number, "trailing characters after flow collection"));
            }
            Ok(v)
        } else {
            parse_scalar(t, number)
        }
    }
}

/// Block-scalar header style.
#[derive(Clone, Copy)]
struct BlockStyle {
    /// `>` (folded) vs `|` (literal).
    folded: bool,
    /// `-` chomping indicator: strip the final newline.
    chomp: bool,
}

fn block_scalar_style(rest: &str) -> Option<BlockStyle> {
    match rest {
        "|" => Some(BlockStyle { folded: false, chomp: false }),
        "|-" => Some(BlockStyle { folded: false, chomp: true }),
        ">" => Some(BlockStyle { folded: true, chomp: false }),
        ">-" => Some(BlockStyle { folded: true, chomp: true }),
        _ => None,
    }
}

fn is_sequence_entry(content: &str) -> bool {
    content == "-" || content.starts_with("- ")
}

fn starts_quoted_or_flow(s: &str) -> bool {
    matches!(s.as_bytes().first(), Some(b'"' | b'\'' | b'[' | b'{'))
}

/// Minimal flow-style parser: `[a, b]`, `{k: v, …}`, nesting allowed;
/// must be complete on one (folded) line.
struct FlowParser {
    chars: Vec<(usize, char)>,
    pos: usize,
    line: usize,
    /// Nesting levels open at `pos`, the enclosing block's included.
    depth: usize,
}

impl FlowParser {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].1 == ' ' {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn parse_value(&mut self) -> YamlResult<Yaml> {
        self.skip_ws();
        match self.peek() {
            Some(open @ ('[' | '{')) => {
                descend(&mut self.depth, self.line)?;
                let node = if open == '[' { self.parse_seq() } else { self.parse_map() }?;
                self.depth -= 1;
                Ok(node)
            }
            Some('"') | Some('\'') => {
                let token = self.take_quoted()?;
                parse_scalar(&token, self.line)
            }
            Some(_) => {
                let token = self.take_plain();
                parse_scalar(&token, self.line)
            }
            None => Err(YamlError::new(self.line, "unexpected end of flow value")),
        }
    }

    fn parse_seq(&mut self) -> YamlResult<Yaml> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(']') => {
                    self.pos += 1;
                    return Ok(Yaml::Seq(items));
                }
                None => return Err(YamlError::new(self.line, "unterminated flow sequence")),
                _ => {}
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some(']') => {}
                other => {
                    return Err(YamlError::new(
                        self.line,
                        format!("expected `,` or `]` in flow sequence, found {other:?}"),
                    ))
                }
            }
        }
    }

    fn parse_map(&mut self) -> YamlResult<Yaml> {
        self.pos += 1; // consume '{'
        let mut map = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('}') => {
                    self.pos += 1;
                    return Ok(Yaml::Map(map));
                }
                None => return Err(YamlError::new(self.line, "unterminated flow mapping")),
                _ => {}
            }
            let key_tok = match self.peek() {
                Some('"') | Some('\'') => self.take_quoted()?,
                _ => self.take_plain_until_colon(),
            };
            let key = parse_scalar(key_tok.trim(), self.line)?
                .into_scalar_string()
                .ok_or_else(|| YamlError::new(self.line, "flow mapping key must be a scalar"))?;
            self.skip_ws();
            if self.peek() != Some(':') {
                return Err(YamlError::new(self.line, "expected `:` in flow mapping"));
            }
            self.pos += 1;
            let value = self.parse_value()?;
            if map.iter().any(|(k, _)| *k == key) {
                return Err(YamlError::new(self.line, format!("duplicate mapping key {key:?}")));
            }
            map.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some('}') => {}
                other => {
                    return Err(YamlError::new(
                        self.line,
                        format!("expected `,` or `}}` in flow mapping, found {other:?}"),
                    ))
                }
            }
        }
    }

    /// Take a quoted token including its quotes, handling escapes.
    fn take_quoted(&mut self) -> YamlResult<String> {
        let quote = self.peek().expect("caller checked");
        let start = self.pos;
        self.pos += 1;
        while let Some(c) = self.peek() {
            if c == '\\' && quote == '"' {
                self.pos += 2;
                continue;
            }
            if c == quote {
                // Single-quote doubling escape.
                if quote == '\'' && self.chars.get(self.pos + 1).map(|&(_, c)| c) == Some('\'') {
                    self.pos += 2;
                    continue;
                }
                self.pos += 1;
                let token: String = self.chars[start..self.pos].iter().map(|&(_, c)| c).collect();
                return Ok(token);
            }
            self.pos += 1;
        }
        Err(YamlError::new(self.line, "unterminated quoted scalar in flow context"))
    }

    fn take_plain(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if matches!(c, ',' | ']' | '}' | '[' | '{') {
                break;
            }
            self.pos += 1;
        }
        self.chars[start..self.pos]
            .iter()
            .map(|&(_, c)| c)
            .collect::<String>()
            .trim()
            .to_string()
    }

    fn take_plain_until_colon(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if matches!(c, ':' | ',' | ']' | '}') {
                break;
            }
            self.pos += 1;
        }
        self.chars[start..self.pos]
            .iter()
            .map(|&(_, c)| c)
            .collect::<String>()
            .trim()
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Listing 1 — the default `rai-build.yml`.
    const LISTING_1: &str = r#"
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build:
    - echo "Building project"
    - cmake /src
    - make
    - ./ece408 /data/test10.hdf5 /data/model.hdf5
    - nvprof --export-profile timeline.nvprof
      ./ece408 data/test10.hdf5 /data/model.hdf5
"#;

    /// Paper Listing 2 — the enforced final-submission build file.
    const LISTING_2: &str = r#"
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build:
    - echo "Submitting project"
    - cp -r /src /build/submission_code
    - cmake /src
    - make
    - /usr/bin/time ./ece408 /data/testfull.hdf5
      /data/model.hdf5 10000
"#;

    #[test]
    fn parses_listing_1() {
        let doc = parse(LISTING_1).unwrap();
        assert_eq!(doc.path(&["rai", "version"]).and_then(Yaml::as_f64), Some(0.1));
        assert_eq!(
            doc.path(&["rai", "image"]).and_then(Yaml::as_str),
            Some("webgpu/rai:root")
        );
        let build = doc.path(&["commands", "build"]).unwrap().as_seq().unwrap();
        assert_eq!(build.len(), 5);
        assert_eq!(build[0].as_str(), Some("echo \"Building project\""));
        assert_eq!(build[2].as_str(), Some("make"));
        // The folded two-line nvprof command is joined with a space.
        assert_eq!(
            build[4].as_str(),
            Some("nvprof --export-profile timeline.nvprof ./ece408 data/test10.hdf5 /data/model.hdf5")
        );
    }

    #[test]
    fn parses_listing_2() {
        let doc = parse(LISTING_2).unwrap();
        let build = doc.path(&["commands", "build"]).unwrap().as_seq().unwrap();
        assert_eq!(build.len(), 5);
        assert_eq!(
            build[4].as_str(),
            Some("/usr/bin/time ./ece408 /data/testfull.hdf5 /data/model.hdf5 10000")
        );
    }

    #[test]
    fn literal_block_scalar() {
        let src = "script: |\n  cmake /src\n  make -j4\n\n  ./ece408 a b\nnext: 1\n";
        let doc = parse(src).unwrap();
        assert_eq!(
            doc.get("script").and_then(Yaml::as_str),
            Some("cmake /src\nmake -j4\n\n./ece408 a b\n")
        );
        assert_eq!(doc.get("next").and_then(Yaml::as_i64), Some(1));
    }

    #[test]
    fn literal_block_scalar_chomped() {
        let doc = parse("s: |-\n  one\n  two\n").unwrap();
        assert_eq!(doc.get("s").and_then(Yaml::as_str), Some("one\ntwo"));
    }

    #[test]
    fn folded_block_scalar() {
        let src = "msg: >\n  a long sentence\n  wrapped over lines\n\n  second paragraph\n";
        let doc = parse(src).unwrap();
        assert_eq!(
            doc.get("msg").and_then(Yaml::as_str),
            Some("a long sentence wrapped over lines\nsecond paragraph\n")
        );
        let chomped = parse("m: >-\n  a\n  b\n").unwrap();
        assert_eq!(chomped.get("m").and_then(Yaml::as_str), Some("a b"));
    }

    #[test]
    fn block_scalar_in_sequence() {
        let src = "cmds:\n  - |\n    line one\n    line two\n  - make\n";
        let doc = parse(src).unwrap();
        let cmds = doc.get("cmds").unwrap().as_seq().unwrap();
        assert_eq!(cmds[0].as_str(), Some("line one\nline two\n"));
        assert_eq!(cmds[1].as_str(), Some("make"));
    }

    #[test]
    fn block_scalar_preserves_hash_and_colons() {
        // Comments and `key:`-looking text inside a block are literal.
        let src = "s: |\n  # not a comment\n  key: value\n";
        let doc = parse(src).unwrap();
        assert_eq!(
            doc.get("s").and_then(Yaml::as_str),
            Some("# not a comment\nkey: value\n")
        );
    }

    #[test]
    fn empty_block_scalar_is_empty_string() {
        let doc = parse("s: |\nnext: 2\n").unwrap();
        assert_eq!(doc.get("s").and_then(Yaml::as_str), Some(""));
        assert_eq!(doc.get("next").and_then(Yaml::as_i64), Some(2));
    }

    #[test]
    fn scalar_ending_in_escaped_backslash_closes() {
        let doc = parse("a: \"x\\\\\" # c\n\"k\\\\\": v\ncmds:\n  - echo \"C:\\\\\" # note\n").unwrap();
        assert_eq!(doc.get("a").and_then(Yaml::as_str), Some("x\\"));
        assert_eq!(doc.get("k\\").and_then(Yaml::as_str), Some("v"));
        let cmds = doc.get("cmds").unwrap().as_seq().unwrap();
        assert_eq!(cmds[0].as_str(), Some("echo \"C:\\\\\""));
    }

    #[test]
    fn under_indented_block_line_is_not_sliced_mid_character() {
        // The block's indent (4) falls inside the `é` of the shallower
        // second line; that line contributes nothing rather than
        // panicking the worker on a student's build file.
        let doc = parse("s: |\n    a\n  aé\n").unwrap();
        assert_eq!(doc.get("s").and_then(Yaml::as_str), Some("a\n\n"));
    }

    /// Nesting in each of the three recursive shapes: `flow` brackets
    /// on one line, `block` levels of mapping and of sequence.
    fn nested(flow: usize, block: usize) -> [String; 3] {
        let brackets = format!("a: {}1{}\n", "[".repeat(flow), "]".repeat(flow));
        let indented = |entry: &str| -> String {
            (0..block).map(|i| format!("{}{entry}\n", " ".repeat(i))).collect()
        };
        [brackets, indented("k:"), indented("-")]
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        // The `a:` mapping around the brackets is a level too.
        for doc in nested(MAX_DEPTH - 1, MAX_DEPTH) {
            parse(&doc).unwrap();
        }
        for doc in nested(MAX_DEPTH, MAX_DEPTH + 1) {
            parse(&doc).unwrap_err();
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // An overflow aborts the process: it cannot be caught. On this
        // stack uncapped recursion overflows within a few hundred
        // levels. (Block levels cost a line each, indentation
        // included, so 2 000 of them are a 2 MB document.)
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| nested(10_000, 2_000).map(|doc| parse(&doc)))
            .unwrap()
            .join()
            .unwrap();
        let lines: Vec<usize> = parsed
            .into_iter()
            .map(|r| {
                let err = r.unwrap_err();
                assert!(err.message.contains("nesting deeper"), "got: {err}");
                err.line
            })
            .collect();
        // Flow nests on its one line under the `a:` mapping; a block
        // level is a line.
        assert_eq!(lines, [1, MAX_DEPTH + 1, MAX_DEPTH + 1]);
    }

    #[test]
    fn empty_document_is_null() {
        assert_eq!(parse("").unwrap(), Yaml::Null);
        assert_eq!(parse("# only comments\n\n").unwrap(), Yaml::Null);
    }

    #[test]
    fn scalar_document() {
        assert_eq!(parse("42").unwrap(), Yaml::Int(42));
        assert_eq!(parse("hello world").unwrap(), Yaml::Str("hello world".into()));
    }

    #[test]
    fn nested_sequences_and_maps() {
        let src = "teams:\n  - name: a\n    size: 2\n  - name: b\n    size: 4\n";
        let doc = parse(src).unwrap();
        let teams = doc.get("teams").unwrap().as_seq().unwrap();
        assert_eq!(teams.len(), 2);
        assert_eq!(teams[0].get("name").and_then(Yaml::as_str), Some("a"));
        assert_eq!(teams[1].get("size").and_then(Yaml::as_i64), Some(4));
    }

    #[test]
    fn sequence_of_sequences() {
        let src = "-\n  - 1\n  - 2\n-\n  - 3\n";
        let doc = parse(src).unwrap();
        let outer = doc.as_seq().unwrap();
        assert_eq!(outer[0].as_seq().unwrap().len(), 2);
        assert_eq!(outer[1].as_seq().unwrap()[0], Yaml::Int(3));
    }

    #[test]
    fn dash_alone_with_nothing_deeper_is_null() {
        let doc = parse("- 1\n-\n").unwrap();
        assert_eq!(doc, Yaml::Seq(vec![Yaml::Int(1), Yaml::Null]));
    }

    #[test]
    fn key_with_no_value_is_null() {
        let doc = parse("a:\nb: 1\n").unwrap();
        assert_eq!(doc.get("a"), Some(&Yaml::Null));
        assert_eq!(doc.get("b"), Some(&Yaml::Int(1)));
    }

    #[test]
    fn flow_collections() {
        let doc = parse("nums: [1, 2, 3]\nmeta: {gpu: true, mem: 8}\nempty: []\n").unwrap();
        assert_eq!(
            doc.get("nums").unwrap(),
            &Yaml::Seq(vec![Yaml::Int(1), Yaml::Int(2), Yaml::Int(3)])
        );
        assert_eq!(doc.path(&["meta", "gpu"]).and_then(Yaml::as_bool), Some(true));
        assert_eq!(doc.get("empty").unwrap(), &Yaml::Seq(vec![]));
    }

    #[test]
    fn nested_flow() {
        let doc = parse("m: [[1, 2], {a: [3]}]\n").unwrap();
        let m = doc.get("m").unwrap().as_seq().unwrap();
        assert_eq!(m[0], Yaml::Seq(vec![Yaml::Int(1), Yaml::Int(2)]));
        assert_eq!(m[1].path(&["a"]).unwrap(), &Yaml::Seq(vec![Yaml::Int(3)]));
    }

    #[test]
    fn flow_with_quoted_strings() {
        let doc = parse("xs: ['a, b', \"c: d\"]\n").unwrap();
        assert_eq!(
            doc.get("xs").unwrap(),
            &Yaml::Seq(vec![Yaml::Str("a, b".into()), Yaml::Str("c: d".into())])
        );
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert!(parse("a: 1\na: 2\n").is_err());
        assert!(parse("m: {a: 1, a: 2}\n").is_err());
    }

    #[test]
    fn bad_indentation_rejected() {
        let err = parse("a: 1\n   b: 2\n").unwrap_err();
        assert!(err.message.contains("indentation"), "got: {err}");
        assert!(parse("xs:\n  - 1\n    - 2\n").is_err());
    }

    #[test]
    fn unterminated_flow_rejected() {
        assert!(parse("xs: [1, 2\n").is_err());
        assert!(parse("m: {a: 1\n").is_err());
    }

    #[test]
    fn sequence_where_key_expected_rejected() {
        assert!(parse("a: 1\n- 2\n").is_err());
    }

    #[test]
    fn quoted_values_suppress_type_inference() {
        let doc = parse("v: \"0.1\"\nw: 0.1\n").unwrap();
        assert_eq!(doc.get("v").unwrap(), &Yaml::Str("0.1".into()));
        assert_eq!(doc.get("w").unwrap(), &Yaml::Float(0.1));
    }

    #[test]
    fn mapping_value_folding() {
        let doc = parse("cmd: nvprof --export x\n  ./prog a b\nnext: 1\n").unwrap();
        assert_eq!(doc.get("cmd").and_then(Yaml::as_str), Some("nvprof --export x ./prog a b"));
        assert_eq!(doc.get("next").and_then(Yaml::as_i64), Some(1));
    }

    #[test]
    fn colon_in_plain_value_kept() {
        let doc = parse("image: webgpu/rai:root\n").unwrap();
        assert_eq!(doc.get("image").and_then(Yaml::as_str), Some("webgpu/rai:root"));
    }

    #[test]
    fn student_variation_extra_config() {
        // An extended file a student might write: extra resources block.
        let src = "rai:\n  version: 0.2\n  image: webgpu/rai:cuda9\nresources:\n  gpus: 2\n  network: false\ncommands:\n  build:\n    - make -j8\n";
        let doc = parse(src).unwrap();
        assert_eq!(doc.path(&["resources", "gpus"]).and_then(Yaml::as_i64), Some(2));
        assert_eq!(doc.path(&["resources", "network"]).and_then(Yaml::as_bool), Some(false));
    }
}
