//! Recursive-descent block parser over scanned lines, plus a small flow
//! (`[..]` / `{..}`) parser for inline collections.
//!
//! The block parser hands what it reads to a [`Consumer`], in document
//! order. [`parse`] reads into the [`Yaml`] tree; a reader that wants a
//! few fields of a document keeps those and lets the rest go by, with
//! the same grammar, the same checks and the same errors
//! ([`parse_with`]).

use crate::error::{YamlError, YamlResult};
use crate::scanner::{lines, read_scalar, scan, split_key, trim, trim_start, Line, LINES_IN_PLACE};
use crate::value::{Scalar, Yaml};
use std::borrow::Cow;
use std::collections::HashSet;

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

/// What the block parser hands its reads to, in document order. Each
/// node is read in a *slot* the consumer names — the root's, the one
/// [`key`](Consumer::key) gives the value under a key, the one
/// [`item`](Consumer::item) gives a sequence's next item — so a
/// consumer can tell where it is without keeping a path.
pub trait Consumer<'a> {
    /// Where a node sits, as far as the consumer tells places apart.
    type Slot: Copy;
    /// What a node is read into.
    type Node;
    /// A mapping being read.
    type Map;
    /// A sequence being read.
    type Seq;

    /// A scalar, read in slot `at`.
    fn scalar(&mut self, at: Self::Slot, value: Scalar<'a>) -> Self::Node;
    /// A mapping opens in slot `at`.
    fn map(&mut self, at: Self::Slot) -> Self::Map;
    /// The slot of the value under `key`, read next. `key` is not a
    /// repeat: a repeated key is an error before this is asked.
    fn key(&mut self, map: &Self::Map, key: &str) -> Self::Slot;
    /// The value read under `key`.
    fn entry(&mut self, map: &mut Self::Map, key: Cow<'a, str>, value: Self::Node);
    /// The mapping is complete.
    fn end_map(&mut self, map: Self::Map) -> Self::Node;
    /// A sequence of `len` items opens in slot `at`.
    fn seq(&mut self, at: Self::Slot, len: usize) -> Self::Seq;
    /// The slot of the sequence's next item, read next.
    fn item(&mut self, seq: &Self::Seq) -> Self::Slot;
    /// The item read.
    fn push(&mut self, seq: &mut Self::Seq, item: Self::Node);
    /// The sequence is complete.
    fn end_seq(&mut self, seq: Self::Seq) -> Self::Node;

    /// A flow collection (`[..]`, `{..}`), read whole in slot `at`.
    /// Handed on as the block collection of the same content, entry by
    /// entry, unless the consumer keeps the value as it is.
    fn flow(&mut self, at: Self::Slot, value: Yaml) -> Self::Node {
        match value {
            Yaml::Map(entries) => {
                let mut map = self.map(at);
                for (key, value) in entries {
                    let slot = self.key(&map, &key);
                    let node = self.flow(slot, value);
                    self.entry(&mut map, Cow::Owned(key), node);
                }
                self.end_map(map)
            }
            Yaml::Seq(items) => {
                let mut seq = self.seq(at, items.len());
                for item in items {
                    let slot = self.item(&seq);
                    let node = self.flow(slot, item);
                    self.push(&mut seq, node);
                }
                self.end_seq(seq)
            }
            Yaml::Null => self.scalar(at, Scalar::Null),
            Yaml::Bool(b) => self.scalar(at, Scalar::Bool(b)),
            Yaml::Int(i) => self.scalar(at, Scalar::Int(i)),
            Yaml::Float(f) => self.scalar(at, Scalar::Float(f)),
            Yaml::Str(s) => self.scalar(at, Scalar::Str(Cow::Owned(s))),
        }
    }
}

/// [`parse`]'s consumer: every node into its [`Yaml`] value.
struct Tree;

impl<'a> Consumer<'a> for Tree {
    type Slot = ();
    type Node = Yaml;
    type Map = Vec<(String, Yaml)>;
    type Seq = Vec<Yaml>;

    fn scalar(&mut self, _: (), value: Scalar<'a>) -> Yaml {
        value.into()
    }
    fn map(&mut self, _: ()) -> Self::Map {
        Vec::new()
    }
    fn key(&mut self, _: &Self::Map, _: &str) {}
    fn entry(&mut self, map: &mut Self::Map, key: Cow<'a, str>, value: Yaml) {
        map.push((key.into_owned(), value));
    }
    fn end_map(&mut self, map: Self::Map) -> Yaml {
        Yaml::Map(map)
    }
    fn seq(&mut self, _: (), len: usize) -> Self::Seq {
        Vec::with_capacity(len)
    }
    fn item(&mut self, _: &Self::Seq) {}
    fn push(&mut self, seq: &mut Self::Seq, item: Yaml) {
        seq.push(item);
    }
    fn end_seq(&mut self, seq: Self::Seq) -> Yaml {
        Yaml::Seq(seq)
    }
    fn flow(&mut self, _: (), value: Yaml) -> Yaml {
        value
    }
}

/// Parse a single YAML document.
///
/// An empty (or comment-only) document parses to [`Yaml::Null`].
pub fn parse(src: &str) -> YamlResult<Yaml> {
    parse_with(src, &mut Tree, ())
}

/// Read a single YAML document into `consumer`, its root in slot
/// `root`: [`parse`]'s grammar, checks and errors, with every node
/// handed to the consumer instead of built. An empty (or comment-only)
/// document is a null scalar.
pub fn parse_with<'a, C: Consumer<'a>>(src: &'a str, consumer: &mut C, root: C::Slot) -> YamlResult<C::Node> {
    let (mut in_place, mut spilled) = ([Line::default(); LINES_IN_PLACE], Vec::new());
    let lines = scan(src, &mut in_place, &mut spilled)?;
    if lines.is_empty() {
        return Ok(consumer.scalar(root, Scalar::Null));
    }
    let root_indent = lines[0].indent;
    let mut p = Parser {
        src,
        lines,
        pos: 0,
        pending: None,
        raw: Vec::new(),
        depth: 0,
        out: consumer,
    };
    let value = p.parse_node(root_indent, root)?;
    if let Some(extra) = p.peek() {
        return Err(YamlError::new(
            extra.number,
            format!("unexpected content after document root: {:?}", extra.content),
        ));
    }
    Ok(value)
}

/// Everything the parser looks at borrows from the document (`'a`);
/// it allocates only for what its consumer keeps.
struct Parser<'a, 'l, 'c, C> {
    src: &'a str,
    lines: &'l [Line<'a>],
    pos: usize,
    /// A line read before `lines[pos]`: the entry that opens a mapping
    /// on a `- key: value` line, at the column where it begins.
    pending: Option<Line<'a>>,
    /// The raw source lines (line `n` at index `n - 1`), for block
    /// scalars, which the scanner's view (comments and blank lines
    /// gone) cannot serve. Indexed on the first block scalar, once.
    raw: Vec<&'a str>,
    /// Nesting levels open at `pos` (see [`MAX_DEPTH`]).
    depth: usize,
    out: &'c mut C,
}

impl<'a, C: Consumer<'a>> Parser<'a, '_, '_, C> {
    fn peek(&self) -> Option<Line<'a>> {
        self.pending.or_else(|| self.lines.get(self.pos).copied())
    }

    fn bump(&mut self) -> Line<'a> {
        if let Some(l) = self.pending.take() {
            return l;
        }
        let l = self.lines[self.pos];
        self.pos += 1;
        l
    }

    /// Parse the node whose first line is at `self.pos`, expected at
    /// exactly `indent`, in slot `at`.
    fn parse_node(&mut self, indent: usize, at: C::Slot) -> YamlResult<C::Node> {
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
            self.parse_sequence(indent, at)
        } else if let Some(entry) = split_key(line.content) {
            self.parse_mapping(indent, entry, at)
        } else {
            // Top-level / nested scalar (or flow collection) with folding.
            self.bump();
            self.parse_inline_value(line.content, indent, line.number, at)
        }?;
        self.depth -= 1;
        Ok(node)
    }

    /// Parse the mapping whose first line, at `self.pos`, splits into
    /// `first`.
    fn parse_mapping(&mut self, indent: usize, first: (&'a str, &'a str), at: C::Slot) -> YamlResult<C::Node> {
        let mut map = self.out.map(at);
        let mut keys = Keys::default();
        let mut entry = Some(first);
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
            let Some((raw_key, rest)) = entry.take().or_else(|| split_key(line.content)) else {
                return Err(YamlError::new(
                    line.number,
                    format!("expected `key: value`, found {:?}", line.content),
                ));
            };
            let key = read_key(raw_key, line.number)?;
            if keys.repeats(key.clone()) {
                return Err(YamlError::new(line.number, format!("duplicate mapping key {key:?}")));
            }
            let slot = self.out.key(&map, &key);
            let value = if rest.is_empty() {
                // `key:` — nested block, or null if nothing deeper follows.
                match self.peek() {
                    Some(next) if next.indent > indent => self.parse_node(next.indent, slot)?,
                    _ => self.out.scalar(slot, Scalar::Null),
                }
            } else if let Some(style) = block_scalar_style(rest) {
                self.parse_block_scalar(style, indent, line.number, slot)?
            } else {
                self.parse_inline_value(rest, indent, line.number, slot)?
            };
            self.out.entry(&mut map, key, value);
        }
        Ok(self.out.end_map(map))
    }

    fn parse_sequence(&mut self, indent: usize, at: C::Slot) -> YamlResult<C::Node> {
        let mut seq = self.out.seq(at, self.entries_at(indent));
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
            let slot = self.out.item(&seq);
            let item = if line.content == "-" {
                // Dash alone: nested block on following deeper lines.
                match self.peek() {
                    Some(next) if next.indent > indent => self.parse_node(next.indent, slot)?,
                    _ => self.out.scalar(slot, Scalar::Null),
                }
            } else {
                let rest = trim_start(&line.content[1..]);
                let rest_col = indent + (line.content.len() - rest.len());
                if split_key(rest).is_some() && !starts_quoted_or_flow(rest) {
                    // `- key: value` opens a mapping whose first entry sits
                    // on the dash line: its remainder is read next, as a
                    // line at the column where it begins.
                    self.pending = Some(Line {
                        number: line.number,
                        indent: rest_col,
                        content: rest,
                    });
                    self.parse_node(rest_col, slot)?
                } else if let Some(style) = block_scalar_style(rest) {
                    self.parse_block_scalar(style, indent, line.number, slot)?
                } else {
                    self.parse_inline_value(rest, indent, line.number, slot)?
                }
            };
            self.out.push(&mut seq, item);
        }
        Ok(self.out.end_seq(seq))
    }

    /// How many entries the sequence at column `indent` that opens at
    /// the next line reads, if it reads to its end: the entries at that
    /// column up to the first shallower line or other line at it.
    fn entries_at(&self, indent: usize) -> usize {
        // A pending line is the sequence's first entry.
        let pending = usize::from(self.pending.is_some());
        pending
            + self.lines[self.pos..]
                .iter()
                .take_while(|l| l.indent > indent || (l.indent == indent && is_sequence_entry(l.content)))
                .filter(|l| l.indent == indent)
                .count()
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
        at: C::Slot,
    ) -> YamlResult<C::Node> {
        if self.raw.is_empty() {
            self.raw = lines(self.src).collect();
        }
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
            return Ok(self.out.scalar(at, Scalar::Str(Cow::Borrowed(""))));
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
            self.bump();
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
        Ok(self.out.scalar(at, Scalar::Str(Cow::Owned(text))))
    }

    /// Fold plain-scalar continuation lines (strictly deeper indent, not a
    /// new sequence entry) into `first`, joined with single spaces. This
    /// is what lets Listing 1 split `nvprof … ./ece408 …` over two lines.
    ///
    /// Borrows `first` unless a continuation is actually folded in, and
    /// sizes the folded text before it writes it.
    fn fold_continuations(&mut self, first: &'a str, indent: usize) -> Cow<'a, str> {
        if starts_quoted_or_flow(first) {
            return Cow::Borrowed(first);
        }
        // The value's own line has been read, and it is no pending one.
        debug_assert!(self.pending.is_none());
        // A deeper line that itself looks like structure (sequence
        // entry or mapping key) is not a continuation — leaving it
        // here lets the enclosing block report a clear indentation
        // error, as real YAML does.
        let (count, len) = self.lines[self.pos..]
            .iter()
            .take_while(|next| {
                next.indent > indent && !is_sequence_entry(next.content) && split_key(next.content).is_none()
            })
            .fold((0, first.len()), |(count, len), next| (count + 1, len + 1 + trim(next.content).len()));
        if count == 0 {
            return Cow::Borrowed(first);
        }
        let mut folded = String::with_capacity(len);
        folded.push_str(first);
        for next in &self.lines[self.pos..self.pos + count] {
            folded.push(' ');
            folded.push_str(trim(next.content));
        }
        self.pos += count;
        Cow::Owned(folded)
    }

    /// Parse a value that starts on the current line (after `key:` or
    /// `-`, or a bare scalar node) and may fold onto following lines.
    fn parse_inline_value(&mut self, rest: &'a str, indent: usize, number: usize, at: C::Slot) -> YamlResult<C::Node> {
        let depth = self.depth;
        let text = match self.fold_continuations(rest, indent) {
            Cow::Borrowed(text) => {
                return Ok(match read_inline_parts(text, number, depth)? {
                    Inline::Scalar(value) => self.out.scalar(at, value),
                    Inline::Flow(value) => self.out.flow(at, value),
                })
            }
            Cow::Owned(text) => text,
        };
        let value = match read_inline_parts(&text, number, depth)? {
            Inline::Scalar(value) => value,
            Inline::Flow(value) => return Ok(self.out.flow(at, value)),
        };
        // A folded plain scalar is the folded text: moved, not copied.
        let whole = matches!(&value, Scalar::Str(Cow::Borrowed(s)) if s.len() == text.len());
        let value = if whole {
            drop(value);
            Scalar::Str(Cow::Owned(text))
        } else {
            value.into_owned()
        };
        Ok(self.out.scalar(at, value))
    }
}

/// A value complete on its line: a scalar, borrowed from the line where
/// it can be, or a flow collection.
enum Inline<'t> {
    Scalar(Scalar<'t>),
    Flow(Yaml),
}

/// A value complete on its line (continuations folded in), on the line
/// numbered `line` under `depth` open nesting levels.
fn read_inline_parts(text: &str, line: usize, depth: usize) -> YamlResult<Inline<'_>> {
    let t = trim(text);
    if !(t.starts_with('[') || t.starts_with('{')) {
        return read_scalar(t, line).map(Inline::Scalar);
    }
    let mut fp = FlowParser {
        text: t,
        chars: t.char_indices().collect(),
        pos: 0,
        line,
        depth,
    };
    let v = fp.parse_value()?;
    fp.skip_ws();
    if fp.pos < fp.chars.len() {
        return Err(YamlError::new(line, "trailing characters after flow collection"));
    }
    Ok(Inline::Flow(v))
}

/// [`read_inline_parts`] as a [`Yaml`] value: the reading the tests'
/// one-line reference reader takes a value by.
#[cfg(test)]
pub(crate) fn read_inline(text: &str, line: usize, depth: usize) -> YamlResult<Yaml> {
    Ok(match read_inline_parts(text, line, depth)? {
        Inline::Scalar(value) => value.into(),
        Inline::Flow(value) => value,
    })
}

/// A block mapping's key as the parser reads it: a scalar, rendered as
/// a string.
pub(crate) fn read_key(raw: &str, line: usize) -> YamlResult<Cow<'_, str>> {
    Ok(read_scalar(raw, line)?.into_string())
}

/// How many keys a mapping is scanned for a repeat before it keeps a set
/// of them. Every mapping a build file has is scanned, and allocates
/// nothing for it; a student's mapping of 64 000 keys costs linear time.
const SCANNED_KEYS: usize = 16;

/// The keys of a mapping under construction: while there are at most
/// [`SCANNED_KEYS`] and each is a slice of the document, in place; past
/// that, in a set.
struct Keys<'k> {
    first: [&'k str; SCANNED_KEYS],
    len: usize,
    set: Option<HashSet<Cow<'k, str>>>,
}

impl Default for Keys<'_> {
    fn default() -> Self {
        Keys { first: [""; SCANNED_KEYS], len: 0, set: None }
    }
}

impl<'k> Keys<'k> {
    /// Whether `key` is already a key of the mapping; it is one after.
    fn repeats(&mut self, key: Cow<'k, str>) -> bool {
        match (&mut self.set, key) {
            (None, Cow::Borrowed(key)) if self.len < SCANNED_KEYS => {
                if self.first[..self.len].contains(&key) {
                    return true;
                }
                self.first[self.len] = key;
                self.len += 1;
                false
            }
            (set, key) => {
                let first = &self.first[..self.len];
                let set = set.get_or_insert_with(|| first.iter().map(|&k| Cow::Borrowed(k)).collect());
                !set.insert(key)
            }
        }
    }
}

/// Block-scalar header style.
#[derive(Clone, Copy)]
pub(crate) struct BlockStyle {
    /// `>` (folded) vs `|` (literal).
    folded: bool,
    /// `-` chomping indicator: strip the final newline.
    chomp: bool,
}

pub(crate) fn block_scalar_style(rest: &str) -> Option<BlockStyle> {
    match rest {
        "|" => Some(BlockStyle { folded: false, chomp: false }),
        "|-" => Some(BlockStyle { folded: false, chomp: true }),
        ">" => Some(BlockStyle { folded: true, chomp: false }),
        ">-" => Some(BlockStyle { folded: true, chomp: true }),
        _ => None,
    }
}

pub(crate) fn is_sequence_entry(content: &str) -> bool {
    content == "-" || content.starts_with("- ")
}

fn starts_quoted_or_flow(s: &str) -> bool {
    matches!(s.as_bytes().first(), Some(b'"' | b'\'' | b'[' | b'{'))
}

/// Minimal flow-style parser: `[a, b]`, `{k: v, …}`, nesting allowed;
/// must be complete on one (folded) line. Tokens are slices of `text`.
struct FlowParser<'t> {
    text: &'t str,
    chars: Vec<(usize, char)>,
    pos: usize,
    line: usize,
    /// Nesting levels open at `pos`, the enclosing block's included.
    depth: usize,
}

impl<'t> FlowParser<'t> {
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
                Ok(read_scalar(token, self.line)?.into())
            }
            Some(_) => {
                let token = self.take_plain();
                Ok(read_scalar(token, self.line)?.into())
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
        let mut keys = Keys::default();
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
            let key = read_scalar(key_tok.trim(), self.line)?.into_string();
            self.skip_ws();
            if self.peek() != Some(':') {
                return Err(YamlError::new(self.line, "expected `:` in flow mapping"));
            }
            self.pos += 1;
            let value = self.parse_value()?;
            if keys.repeats(key.clone()) {
                return Err(YamlError::new(self.line, format!("duplicate mapping key {key:?}")));
            }
            map.push((key.into_owned(), value));
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

    /// The text from char `start` up to the current position.
    fn since(&self, start: usize) -> &'t str {
        let at = |pos: usize| self.chars.get(pos).map_or(self.text.len(), |&(i, _)| i);
        &self.text[at(start)..at(self.pos)]
    }

    /// Take a quoted token including its quotes, handling escapes.
    fn take_quoted(&mut self) -> YamlResult<&'t str> {
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
                return Ok(self.since(start));
            }
            self.pos += 1;
        }
        Err(YamlError::new(self.line, "unterminated quoted scalar in flow context"))
    }

    fn take_plain(&mut self) -> &'t str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if matches!(c, ',' | ']' | '}' | '[' | '{') {
                break;
            }
            self.pos += 1;
        }
        self.since(start).trim()
    }

    fn take_plain_until_colon(&mut self) -> &'t str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if matches!(c, ':' | ',' | ']' | '}') {
                break;
            }
            self.pos += 1;
        }
        self.since(start).trim()
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

    /// A mapping, a flow mapping and a sequence of one-key mappings,
    /// `entries` keys each: the shapes whose parse was quadratic (a scan
    /// of the keys so far per key; a line inserted into the line list
    /// per `- key: value` entry).
    fn wide(entries: usize) -> [String; 3] {
        let map = (0..entries).map(|i| format!("k{i}: v\n")).collect();
        let flow: Vec<String> = (0..entries).map(|i| format!("k{i}: v")).collect();
        let seq = (0..entries).map(|i| format!("- k{i}: v\n")).collect();
        [map, format!("m: {{{}}}\n", flow.join(", ")), seq]
    }

    #[test]
    fn a_wide_build_file_parses_in_linear_time() {
        // A file tree admits a 64 MiB build file, parsed by the client
        // and again by the worker before any sandbox limit applies. At
        // 2^16 entries (0.6–0.8 MB) each shape takes 0.26–0.35 s in a
        // debug build and 40–60 ms in release; the quadratic parser took
        // 37 s, 24 s and 1.9 s in debug.
        let entries = 1 << 16;
        for (shape, doc) in ["mapping", "flow mapping", "sequence"].into_iter().zip(wide(entries)) {
            let start = std::time::Instant::now();
            let parsed = parse(&doc).unwrap();
            let took = start.elapsed();
            let len = match &parsed {
                Yaml::Map(m) if m.len() == 1 => m[0].1.as_map().map_or(0, <[_]>::len),
                Yaml::Map(m) => m.len(),
                Yaml::Seq(s) => s.len(),
                _ => 0,
            };
            assert_eq!(len, entries, "{shape}");
            assert!(took < std::time::Duration::from_secs(1), "{shape} of {entries} entries took {took:?}");
        }
        // A repeat past the scanned keys is found, of a key from before
        // the set was built or after.
        for doc in &wide(64)[..2] {
            for (late, early) in [("k40", "k7"), ("k50", "k40")] {
                let repeated = doc.replacen(&format!("{late}: v"), &format!("{early}: v"), 1);
                let err = parse(&repeated).unwrap_err();
                assert!(err.message.contains(&format!("duplicate mapping key \"{early}\"")), "{err}");
            }
        }
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
