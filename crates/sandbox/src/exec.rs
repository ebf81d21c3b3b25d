//! The build-command interpreter.
//!
//! Executes the `rai-build.yml` command vocabulary deterministically
//! against a container's in-memory filesystem, charging simulated time
//! and memory. The vocabulary is what courses issue: the paper's
//! listings (`echo`, `cmake`, `make`, program execution, `nvprof
//! [--export-profile FILE]`, `/usr/bin/time`, `cp -r`), `time`, `cat`,
//! `grep`, `sleep` and `true`, and the *denied* network tools. Anything
//! else is `sh: <name>: command not found`, exit 127.

use crate::container::{Container, KillReason, LogStream};
use crate::decimal::{Clock, Fixed4, Millis};
use crate::image::hdf5_item_count;
use crate::layers::Resolved;
use crate::perf::{ExecMode, PerfSpec};
use rai_archive::text;
use rai_archive::tree::{TreeError, MAX_PATH_BYTES};
use rai_sim::SimDuration;
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::ops::Deref;

/// Outcome of one command.
pub struct CmdResult {
    /// Process exit code (0 = success; 137 = killed).
    pub exit_code: i32,
    /// Simulated wall-clock the command consumed.
    pub(crate) duration: SimDuration,
    /// Set when the command tripped a resource limit.
    pub(crate) killed: Option<KillReason>,
}

impl CmdResult {
    fn ok(duration: SimDuration) -> Self {
        CmdResult {
            exit_code: 0,
            duration,
            killed: None,
        }
    }

    fn fail(exit_code: i32, duration: SimDuration) -> Self {
        CmdResult {
            exit_code,
            duration,
            killed: None,
        }
    }

    fn killed(reason: KillReason, duration: SimDuration) -> Self {
        CmdResult {
            exit_code: 137,
            duration,
            killed: Some(reason),
        }
    }
}

/// Marker prefix for "compiled binaries" in the container filesystem.
const BINARY_MAGIC: &str = "RAIBIN\n";

/// Where `cmake` writes the Makefile and `make` reads it: `Makefile`
/// in [`WORKDIR`](crate::container::WORKDIR).
const MAKEFILE: Resolved<'static> = Resolved::Work("Makefile");

/// What `make` reserves for a binary: the magic, `// `, a directive
/// whose numbers print in up to 20 characters each, and the newline.
/// A longer one (a student's 300-digit `full_ms`) grows the buffer.
const BINARY_BYTES: usize = 128;

/// What a program run prints its internal timer after (`Done with N
/// queries in elapsed = X.XXX s`, see `run_program`).
const ELAPSED: &[u8] = b"elapsed = ";

/// A program's internal timer, read from one of its output lines: the
/// first word after the line's first `elapsed = `, in seconds. The
/// worker's report and the client's receipt both read it here.
pub fn internal_timer(line: &str) -> Option<f64> {
    after_elapsed(line)?.split_whitespace().next()?.parse().ok()
}

/// The text after the first `elapsed = ` of an output line, up to the
/// next one: exactly `line.split("elapsed = ").nth(1)`, found from the
/// line's `=` bytes instead of a substring searcher built per line.
fn after_elapsed(line: &str) -> Option<&str> {
    // The `=` is the needle's ninth byte.
    let start = find_from(line, ELAPSED, 8, 0)? + ELAPSED.len();
    let end = find_from(line, ELAPSED, 8, start).unwrap_or(line.len());
    Some(&line[start..end])
}

/// Where the first `needle` that begins at or after byte `from` of
/// `hay` begins: a `memchr` for the needle's byte at `rare` (an ASCII
/// byte the haystack seldom holds), then a compare around each hit.
/// `from` is a char boundary. A needle that overlaps no shifted copy of
/// itself (every one here) read left to right from the end of the last
/// match finds `split`'s matches.
pub(crate) fn find_from(hay: &str, needle: &[u8], rare: usize, from: usize) -> Option<usize> {
    let probe = char::from(needle[rare]);
    let mut scan = from;
    // `str::find` of one ASCII char is core's word-at-a-time memchr,
    // and a hit is a char boundary to resume after.
    while let Some(hit) = hay[scan..].find(probe) {
        let at = scan + hit;
        if at >= from + rare && hay.as_bytes()[at - rare..].starts_with(needle) {
            return Some(at - rare);
        }
        scan = at + 1;
    }
    None
}

/// The ASCII bytes `char::is_whitespace` accepts, as bits of a mask
/// over the bytes below 64. `\x0B` (vertical tab) is one of them, and
/// not one of `u8::is_ascii_whitespace`'s.
const SPACES: u64 = 1 << b' ' | 1 << b'\t' | 1 << b'\n' | 1 << 0x0B | 1 << 0x0C | 1 << b'\r';

/// The ASCII bytes a word ends at in a command line: a space or a
/// quote mark.
const WORD_ENDS: u64 = SPACES | 1 << b'\'' | 1 << b'"';

/// Whether `b` is one of the bytes in `mask` (all below 64).
fn in_mask(mask: u64, b: u8) -> bool {
    b < 64 && mask >> b & 1 == 1
}

/// The length of the character at byte `at` of `s` if
/// `char::is_whitespace` accepts it, else 0. Only the lead byte of a
/// multi-byte character is decoded; a continuation byte begins none.
fn space_at(s: &str, at: usize) -> usize {
    match s.as_bytes()[at] {
        b @ 0..=0x7F => usize::from(in_mask(SPACES, b)),
        0x80..=0xBF => 0,
        _ => s[at..].chars().next().filter(|c| c.is_whitespace()).map_or(0, char::len_utf8),
    }
}

/// Whether a word ends at byte `at` of `s`: a quote mark or a space.
fn ends_word(s: &str, at: usize) -> bool {
    match s.as_bytes()[at] {
        b @ 0..=0x7F => in_mask(WORD_ENDS, b),
        _ => space_at(s, at) > 0,
    }
}

/// Words a command line is expected to hold at most: `nvprof
/// --export-profile FILE ./prog ARG ARG` is six.
const WORDS: usize = 8;

/// A command line's words: up to [`WORDS`] of them in place, a longer
/// line's all in a `Vec`. Read as a slice.
pub(crate) struct Words<'a> {
    inline: [Cow<'a, str>; WORDS],
    len: usize,
    spilled: Vec<Cow<'a, str>>,
}

impl<'a> Words<'a> {
    fn push(&mut self, word: Cow<'a, str>) {
        if self.len < WORDS {
            self.inline[self.len] = word;
            self.len += 1;
            return;
        }
        if self.spilled.is_empty() {
            self.spilled.extend(self.inline.iter_mut().map(std::mem::take));
        }
        self.spilled.push(word);
    }
}

impl<'a> Deref for Words<'a> {
    type Target = [Cow<'a, str>];

    fn deref(&self) -> &Self::Target {
        if self.spilled.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

#[cfg(test)]
impl fmt::Debug for Words<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
impl<'a, T> PartialEq<Vec<T>> for Words<'a>
where
    Cow<'a, str>: PartialEq<T>,
{
    fn eq(&self, other: &Vec<T>) -> bool {
        self[..] == other[..]
    }
}

/// Split a command line into words, honouring single/double quotes.
/// A word borrows from `cmd` while its characters are contiguous there
/// (`make`, `"Building project"`): it is kept as the span `start..end`
/// of `cmd` (empty when `start == end`), and only a quote mark *inside*
/// it (`a"b c"d`) makes quote removal splice an owned one. The line is
/// read a run of word bytes at a time, sliced once where a word ends.
pub(crate) fn shell_words(cmd: &str) -> Words<'_> {
    let bytes = cmd.as_bytes();
    let mut words = Words { inline: Default::default(), len: 0, spilled: Vec::new() };
    let (mut start, mut end) = (0, 0);
    let mut spliced: Option<String> = None;
    let mut in_single = false;
    let mut in_double = false;
    let mut at = 0;
    while at < bytes.len() {
        let run_start = at;
        let b = bytes[at];
        match b {
            b'\'' if !in_double => {
                in_single = !in_single;
                at += 1;
                continue;
            }
            b'"' if !in_single => {
                in_double = !in_double;
                at += 1;
                continue;
            }
            _ => {}
        }
        let space = space_at(cmd, at);
        if space > 0 && !in_single && !in_double {
            if let Some(word) = spliced.take() {
                words.push(Cow::Owned(word));
            } else if start < end {
                words.push(Cow::Borrowed(&cmd[start..end]));
            }
            (start, end) = (0, 0);
            at += space;
            continue;
        }
        // A space inside quotes or a quote of the other kind is part of
        // the word, a run of one character; anything else starts a run
        // of word bytes.
        if space > 0 {
            at += space;
        } else {
            at += 1;
            if b != b'\'' && b != b'"' {
                while at < bytes.len() && !ends_word(cmd, at) {
                    at += 1;
                }
            }
        }
        if let Some(word) = &mut spliced {
            word.push_str(&cmd[run_start..at]);
        } else if start == end {
            (start, end) = (run_start, at);
        } else if end == run_start {
            end = at;
        } else {
            spliced = Some([&cmd[start..end], &cmd[run_start..at]].concat());
        }
    }
    if let Some(word) = spliced {
        words.push(Cow::Owned(word));
    } else if start < end {
        words.push(Cow::Borrowed(&cmd[start..end]));
    }
    words
}

/// Words printed with a space between them, straight into whatever
/// the formatter writes to (`echo`'s line, the command `nvprof`
/// profiles).
struct Joined<'a, W>(&'a [W]);

impl<W: AsRef<str>> fmt::Display for Joined<'_, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, word) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            f.write_str(word.as_ref())?;
        }
        Ok(())
    }
}

/// Commands that would require network access.
const NETWORK_TOOLS: &[&str] = &[
    "curl", "wget", "git", "apt", "apt-get", "pip", "pip3", "ping", "ssh", "scp", "nc", "netcat",
];

/// Split a command line on top-level `&&`, honouring quotes (students
/// write `cmake /src && make` in their build files). The pieces are
/// trimmed slices of `cmd`.
pub(crate) fn split_chain(cmd: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(cmd);
    std::iter::from_fn(move || {
        let tail = rest?;
        let bytes = tail.as_bytes();
        let mut in_single = false;
        let mut in_double = false;
        let mut cut = None;
        // Quote marks and `&` are ASCII, so a byte scan finds exactly
        // the characters a `char` scan would; a line without `&` (most
        // of them) is one piece.
        let scan = if bytes.contains(&b'&') { bytes } else { &[] };
        for (at, &b) in scan.iter().enumerate() {
            match b {
                b'\'' if !in_double => in_single = !in_single,
                b'"' if !in_single => in_double = !in_double,
                b'&' if !in_single && !in_double && bytes.get(at + 1) == Some(&b'&') => {
                    cut = Some(at);
                    break;
                }
                _ => {}
            }
        }
        let part = match cut {
            Some(at) => {
                rest = Some(&tail[at + 2..]);
                &tail[..at]
            }
            None => {
                rest = None;
                tail
            }
        };
        Some(part.trim())
    })
}

/// How many wrappers (`time`, `nvprof`) may nest around a command.
/// Each is a level of recursion in [`dispatch`], and the command line
/// is the student's: unbounded, `time time time … true` overflows the
/// worker thread's stack, which aborts the process.
const MAX_WRAPPER_DEPTH: usize = 16;

pub(crate) fn execute(container: &mut Container, cmd: &str) -> CmdResult {
    // `a && b && c` short-circuits like a shell.
    let mut total = SimDuration::ZERO;
    let mut last = CmdResult::ok(SimDuration::ZERO);
    for part in split_chain(cmd) {
        let words = shell_words(part);
        if words.is_empty() {
            continue;
        }
        last = dispatch(container, &words, 0);
        total += last.duration;
        if last.exit_code != 0 {
            break;
        }
    }
    CmdResult {
        exit_code: last.exit_code,
        duration: total,
        killed: last.killed,
    }
}

/// Run one command (`words` is never empty) under `depth` wrappers.
fn dispatch(container: &mut Container, words: &[Cow<'_, str>], depth: usize) -> CmdResult {
    let argv0 = words[0].as_ref();
    let args = &words[1..];
    if depth > MAX_WRAPPER_DEPTH {
        container.log(
            LogStream::Stderr,
            format_args!("sh: {argv0}: wrapper nesting too deep"),
        );
        return CmdResult::fail(2, SimDuration::MILLI);
    }
    match argv0 {
        "echo" => run_echo(container, args),
        "cmake" => run_cmake(container, args),
        "make" => run_make(container, args),
        "nvprof" => run_nvprof(container, args, depth),
        "/usr/bin/time" | "time" => run_time(container, args, depth),
        "cp" => run_cp(container, args),
        "cat" => run_cat(container, args),
        "grep" => run_grep(container, args),
        "true" => CmdResult::ok(SimDuration::MILLI),
        "sleep" => run_sleep(args),
        t if NETWORK_TOOLS.contains(&t) => {
            container.log(
                LogStream::Stderr,
                format_args!("{t}: network access is disabled inside RAI containers"),
            );
            CmdResult::fail(1, SimDuration::from_millis(5))
        }
        prog if is_program_invocation(prog) => run_program(container, words),
        other => {
            container.log(
                LogStream::Stderr,
                format_args!("sh: {other}: command not found"),
            );
            CmdResult::fail(127, SimDuration::MILLI)
        }
    }
}

fn is_program_invocation(argv0: &str) -> bool {
    argv0.starts_with("./") || argv0.starts_with('/')
}

fn run_echo(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    container.log(LogStream::Stdout, format_args!("{}", Joined(args)));
    CmdResult::ok(SimDuration::MILLI)
}

fn run_sleep(args: &[Cow<'_, str>]) -> CmdResult {
    let secs: f64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0.0);
    CmdResult::ok(SimDuration::from_secs_f64(secs))
}

/// `cmake <srcdir>`: requires `CMakeLists.txt`, records the executable
/// target, and "generates a Makefile" in the working directory.
fn run_cmake(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let srcdir = args.first().map_or("/src", |a| a);
    let [head, src] = container.resolve_path(srcdir).pieces();
    let lists_path = [head, src, "/CMakeLists.txt"].concat();
    let Some(lists) = container.fs.get(Resolved::Root(&lists_path)).cloned() else {
        container.log(
            LogStream::Stderr,
            format_args!("CMake Error: The source directory \"{srcdir}\" does not appear to contain CMakeLists.txt."),
        );
        return CmdResult::fail(1, SimDuration::from_millis(120));
    };
    let lists = text(&lists);
    let target = parse_add_executable(&lists).unwrap_or("a.out");
    let makefile = ["# generated by rai cmake\nSRCDIR=", head, src, "\nTARGET=", target, "\n"].concat();
    if container.fs.insert(MAKEFILE, makefile.into_bytes()).is_err() {
        return no_space(container, "cmake", "Makefile", SimDuration::from_millis(120));
    }
    container.log(LogStream::Stdout, format_args!("-- The CUDA compiler identification is NVIDIA"));
    container.log(
        LogStream::Stdout,
        format_args!("-- Hunter disabled: dependencies provided by the base image"),
    );
    container.log(
        LogStream::Stdout,
        format_args!("-- Configuring done; generating Makefile for target '{target}'"),
    );
    // cmake configure latency: fixed, small.
    CmdResult::ok(SimDuration::from_millis(900))
}

fn parse_add_executable(cmake: &str) -> Option<&str> {
    // `x` is the needle's sixth byte.
    let idx = find_from(cmake, b"add_executable(", 5, 0)?;
    let rest = &cmake[idx + "add_executable(".len()..];
    let end = rest.find(|c: char| c.is_whitespace() || c == ')' || c == '(');
    let name = &rest[..end.unwrap_or(rest.len())];
    (!name.is_empty()).then_some(name)
}

/// `make`: "compiles" the sources — time proportional to source bytes,
/// diagnostics for marked sources, and a binary carrying the perf spec.
fn run_make(container: &mut Container, _args: &[Cow<'_, str>]) -> CmdResult {
    let Some(makefile) = container.fs.get(MAKEFILE).cloned() else {
        container.log(
            LogStream::Stderr,
            format_args!("make: *** No targets specified and no makefile found.  Stop."),
        );
        return CmdResult::fail(2, SimDuration::from_millis(10));
    };
    let makefile = text(&makefile);
    let srcdir = extract_var(&makefile, "SRCDIR=").unwrap_or("src");
    let target = extract_var(&makefile, "TARGET=").unwrap_or("a.out");

    // One ordered walk of the files under `SRCDIR` (a path as the tree
    // keeps it, or there is none) reads each source as text once: its
    // length, its markers and, until one is found, its directive. Only
    // a marked source's path is copied, for the diagnostic that names
    // it. (`str::contains` of a short needle is a SIMD scan; a
    // course-sized source holds the bytes any one-byte probe would
    // look for.)
    let is_source = |path: &str| [".cu", ".cpp", ".cc", ".c"].iter().any(|s| path.ends_with(s));
    // A path the tree keeps has no leading `/` to strip.
    let kept = if srcdir.starts_with('/') { "" } else { srcdir };
    let mut spec = None;
    let sources: Vec<Source> = container
        .fs
        .walk(Resolved::Root(kept))
        .filter(|(path, _)| is_source(path))
        .map(|(path, data)| {
            let text = text(data);
            if spec.is_none() {
                spec = PerfSpec::parse(&text);
            }
            let syntax_error = text.contains("RAI_SYNTAX_ERROR");
            let marked = syntax_error || text.contains("RAI_WARNING");
            Source {
                len: text.len(),
                syntax_error,
                path: marked.then(|| [srcdir, "/", path].concat()),
            }
        })
        .collect();
    if sources.is_empty() {
        container.log(
            LogStream::Stderr,
            format_args!("make: *** no source files found under {srcdir}.  Stop."),
        );
        return CmdResult::fail(2, SimDuration::from_millis(10));
    }

    let total_bytes: usize = sources.iter().map(|s| s.len).sum();
    // Compile-time model: fixed nvcc startup plus per-KB cost.
    let duration =
        SimDuration::from_millis(1_500) + SimDuration::from_millis((total_bytes as u64 / 1024) * 40);
    let mem = 512 * 1024 * 1024;
    if let Some(kill) = container.charge(duration, mem) {
        return CmdResult::killed(kill, duration);
    }

    // Diagnostics: a marked syntax error aborts the build.
    for source in &sources {
        let Some(path) = &source.path else { continue };
        if source.syntax_error {
            container.log(
                LogStream::Stderr,
                format_args!("/{path}(1): error: expected a ';' (nvcc exited with status 2)"),
            );
            container.log(LogStream::Stderr, format_args!("make: *** [{target}] Error 2"));
            return CmdResult::fail(2, duration);
        }
        container.log(
            LogStream::Stderr,
            format_args!("/{path}(1): warning: variable declared but never referenced"),
        );
    }

    // The first directive wins, else the baseline default.
    let spec = spec.unwrap_or_default();
    for source in &sources {
        container.log(
            LogStream::Stdout,
            format_args!("[ nvcc ] compiling ({} bytes)", source.len),
        );
    }
    // The binary is the magic and the directive, written into a buffer
    // sized for any directive a course's numbers make.
    let mut binary = String::with_capacity(BINARY_BYTES);
    binary.push_str(BINARY_MAGIC);
    binary.push_str("// ");
    spec.write_directive(&mut binary);
    binary.push('\n');
    // The target name is the student's (`add_executable`): one the
    // filesystem refuses fails the link, not the worker.
    match container.fs.insert(Resolved::Work(target), binary.into_bytes()) {
        Ok(()) => {}
        Err(TreeError::NoSpace) => return no_space(container, "/usr/bin/ld", target, duration),
        Err(TreeError::Path(_)) => {
            container
                .log(LogStream::Stderr, format_args!("/usr/bin/ld: cannot open output file {target}"));
            container.log(LogStream::Stderr, format_args!("make: *** [{target}] Error 1"));
            return CmdResult::fail(2, duration);
        }
    }
    container.log(LogStream::Stdout, format_args!("[100%] Built target {target}"));
    CmdResult::ok(duration)
}

/// What `make` reads from a source.
struct Source {
    /// Bytes of its text.
    len: usize,
    /// It holds `RAI_SYNTAX_ERROR`.
    syntax_error: bool,
    /// Its path, kept only when it holds `RAI_SYNTAX_ERROR` or
    /// `RAI_WARNING`, for the diagnostic that names it.
    path: Option<String>,
}

/// The value of the first `VAR=value` line; `assign` is `"VAR="`:
/// exactly `makefile.lines().find_map(|l| l.strip_prefix(assign))`,
/// found from the `=` bytes, which a Makefile holds one of a line.
fn extract_var<'a>(makefile: &'a str, assign: &str) -> Option<&'a str> {
    let needle = assign.as_bytes();
    let mut from = 0;
    let at = loop {
        let at = find_from(makefile, needle, needle.len() - 1, from)?;
        if at == 0 || makefile.as_bytes()[at - 1] == b'\n' {
            break at;
        }
        from = at + 1;
    };
    Some(to_line_end(&makefile[at + needle.len()..]))
}

/// `text` up to the end of its first line, as `str::lines` ends it: at
/// a `\n`, taking one `\r` before it along.
pub(crate) fn to_line_end(text: &str) -> &str {
    match text.find('\n') {
        Some(nl) => text[..nl].strip_suffix('\r').unwrap_or(&text[..nl]),
        None => text,
    }
}

/// Run a compiled program (`./ece408 /data/test10.hdf5 /data/model.hdf5`).
fn run_program(container: &mut Container, words: &[Cow<'_, str>]) -> CmdResult {
    let prog_path = container.resolve_path(&words[0]);
    let Some(bin) = container.fs.get(prog_path).cloned() else {
        container.log(
            LogStream::Stderr,
            format_args!("sh: {}: No such file or directory", words[0]),
        );
        return CmdResult::fail(127, SimDuration::MILLI);
    };
    let content = text(&bin);
    let Some(spec_text) = content.strip_prefix(BINARY_MAGIC) else {
        container.log(
            LogStream::Stderr,
            format_args!("sh: {}: Permission denied (not an executable)", words[0]),
        );
        return CmdResult::fail(126, SimDuration::MILLI);
    };
    let spec = PerfSpec::parse(spec_text).unwrap_or_default();

    // Dataset selection: an explicit integer argument wins (Listing 2's
    // trailing `10000`), else the first .hdf5 argument with a nonzero
    // item count.
    let mut items: Option<u64> = words[1..]
        .iter()
        .find_map(|a| a.parse::<u64>().ok());
    let mut missing_file: Option<&str> = None;
    for arg in &words[1..] {
        if arg.ends_with(".hdf5") {
            let path = container.resolve_path(arg);
            match container.fs.get(path) {
                Some(data) => {
                    if items.is_none() {
                        if let Some(n) = hdf5_item_count(data).filter(|&n| n > 0) {
                            items = Some(n);
                        }
                    }
                }
                None => missing_file = Some(arg),
            }
        }
    }
    if let Some(missing) = missing_file {
        container.log(
            LogStream::Stderr,
            format_args!("unable to open dataset file {missing}"),
        );
        return CmdResult::fail(1, SimDuration::from_millis(40));
    }
    let Some(items) = items else {
        container.log(
            LogStream::Stderr,
            format_args!("usage: ece408 <data.hdf5> <model.hdf5> [count]"),
        );
        return CmdResult::fail(1, SimDuration::from_millis(5));
    };

    if spec.mode == ExecMode::Gpu && container.limits.gpus == 0 {
        container.log(
            LogStream::Stderr,
            format_args!("CUDA error: no CUDA-capable device is detected"),
        );
        return CmdResult::fail(1, SimDuration::from_millis(60));
    }

    let duration =
        SimDuration::from_secs_f64(spec.runtime_ms(items) * container.time_dilation / 1000.0);
    if let Some(kill) = container.charge(duration, spec.memory_bytes) {
        if kill == KillReason::OutOfMemory {
            container.log(LogStream::Stderr, format_args!("Killed"));
        }
        return CmdResult::killed(kill, duration);
    }

    container.log(LogStream::Stdout, format_args!("Loading fashion-mnist data...done"));
    container.log(LogStream::Stdout, format_args!("Loading model...done"));
    container.log(
        LogStream::Stdout,
        format_args!("Done with {items} queries in elapsed = {} s", Millis(duration.as_millis())),
    );
    container.log(LogStream::Stdout, format_args!("Correctness: {}", Fixed4(spec.accuracy)));
    CmdResult::ok(duration)
}

/// `nvprof [--export-profile FILE] <cmd…>`: profile a program run.
fn run_nvprof(container: &mut Container, args: &[Cow<'_, str>], depth: usize) -> CmdResult {
    if container.limits.gpus == 0 {
        container.log(
            LogStream::Stderr,
            format_args!("======== Error: unified memory profiling failed (no CUDA device)."),
        );
        return CmdResult::fail(1, SimDuration::from_millis(50));
    }
    let mut profile_out: Option<&str> = None;
    let mut rest = args;
    if rest.first().is_some_and(|first| first == "--export-profile") {
        profile_out = rest.get(1).map(|file| file.as_ref());
        rest = &rest[2.min(rest.len())..];
    }
    if rest.is_empty() {
        container.log(LogStream::Stderr, format_args!("nvprof: no application specified"));
        return CmdResult::fail(1, SimDuration::MILLI);
    }
    let application = Joined(rest);
    container.log(LogStream::Stderr, format_args!("==PROF== Profiling application: {application}"));
    let inner = dispatch(container, rest, depth + 1);
    if inner.killed.is_some() {
        return inner;
    }
    // Profiling overhead: ~10% of the profiled run.
    let overhead = inner.duration * 0.1;
    if let Some(file) = profile_out {
        let path = container.resolve_path(file);
        let words: usize = rest.iter().map(|w| w.len() + 1).sum();
        // Header, the command, `span_ms=` and a u64's digits.
        let mut blob = String::with_capacity(21 + words + 29);
        let _ = write!(
            blob,
            "NVPROF-TIMELINE\ncmd={application}\nspan_ms={}\n",
            inner.duration.as_millis()
        );
        if let Err(TreeError::NoSpace) = container.fs.insert(path, blob.into_bytes()) {
            return no_space(container, "nvprof", file, inner.duration + overhead);
        }
        container.log(
            LogStream::Stderr,
            format_args!("==PROF== Generated result file: {file}"),
        );
    }
    CmdResult {
        exit_code: inner.exit_code,
        duration: inner.duration + overhead,
        killed: None,
    }
}

/// `/usr/bin/time <cmd…>`: run and report elapsed on stderr — "the
/// results from the time command are shown to the instructors during
/// grading."
fn run_time(container: &mut Container, args: &[Cow<'_, str>], depth: usize) -> CmdResult {
    if args.is_empty() {
        return CmdResult::fail(1, SimDuration::MILLI);
    }
    let inner = dispatch(container, args, depth + 1);
    let secs = inner.duration.as_secs_f64();
    container.log(
        LogStream::Stderr,
        format_args!(
            "{:.2}user {:.2}system {}elapsed 99%CPU",
            secs * 0.98,
            secs * 0.02,
            Clock(secs),
        ),
    );
    inner
}

/// A write the filesystem refused because the tree is full
/// (`MAX_ENTRIES` files or `MAX_TREE_BYTES` bytes): `who` says so on
/// stderr and the command exits 1.
fn no_space(container: &mut Container, who: &str, path: &str, duration: SimDuration) -> CmdResult {
    container
        .log(LogStream::Stderr, format_args!("{who}: cannot write '{path}': No space left on device"));
    CmdResult::fail(1, duration)
}

/// `cp [-r] <src> <dst>`.
fn run_cp(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let recursive = args.iter().any(|a| a == "-r");
    let paths: Vec<&str> = args.iter().map(|a| a.as_ref()).filter(|&a| a != "-r").collect();
    if paths.len() != 2 {
        container.log(LogStream::Stderr, format_args!("cp: expected source and destination"));
        return CmdResult::fail(1, SimDuration::MILLI);
    }
    let src = container.resolve_path(paths[0]);
    let dst = container.resolve_path(paths[1]);
    // A destination the filesystem refuses (past `MAX_PATH_BYTES`,
    // `..`, an empty component, or no room left) fails the copy, as it
    // fails `cp`.
    let cannot_create = |container: &mut Container, e: TreeError| {
        let reason = match e {
            TreeError::Path(e) if e.0.len() > MAX_PATH_BYTES => "File name too long",
            TreeError::Path(_) => "Invalid argument",
            TreeError::NoSpace => "No space left on device",
        };
        container.log(LogStream::Stderr, format_args!("cp: cannot create '{}': {reason}", paths[1]));
        CmdResult::fail(1, SimDuration::MILLI)
    };
    if let Some(data) = container.fs.get(src).cloned() {
        // Single file copy.
        return match container.fs.insert(dst, data) {
            Ok(()) => CmdResult::ok(SimDuration::from_millis(5)),
            Err(e) => cannot_create(container, e),
        };
    }
    // Directory copy.
    if container.fs.walk(src).next().is_none() {
        container.log(
            LogStream::Stderr,
            format_args!("cp: cannot stat '{}': No such file or directory", paths[0]),
        );
        return CmdResult::fail(1, SimDuration::MILLI);
    }
    if !recursive {
        container.log(
            LogStream::Stderr,
            format_args!("cp: -r not specified; omitting directory '{}'", paths[0]),
        );
        return CmdResult::fail(1, SimDuration::MILLI);
    }
    match container.fs.copy_dir(src, dst) {
        // Copy latency: 200 MB/s.
        Ok(copied) => CmdResult::ok(SimDuration::from_millis(5 + copied / (200 * 1024))),
        Err(e) => cannot_create(container, e),
    }
}

fn run_cat(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let mut code = 0;
    for a in args {
        let path = container.resolve_path(a);
        match container.fs.get(path).cloned() {
            Some(data) => {
                for line in text(&data).lines() {
                    container.log(LogStream::Stdout, format_args!("{line}"));
                }
            }
            None => {
                container.log(
                    LogStream::Stderr,
                    format_args!("cat: {a}: No such file or directory"),
                );
                code = 1;
            }
        }
    }
    CmdResult::fail(code, SimDuration::MILLI)
}

/// `grep <pattern> <files…>`: substring match, exit 1 when nothing
/// matches (students grep build logs and sources).
fn run_grep(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let Some((pattern, files)) = args.split_first() else {
        container.log(LogStream::Stderr, format_args!("usage: grep PATTERN [FILE]..."));
        return CmdResult::fail(2, SimDuration::MILLI);
    };
    let mut matched = false;
    for file in files {
        let path = container.resolve_path(file);
        match container.fs.get(path).cloned() {
            Some(data) => {
                for line in text(&data).lines().filter(|l| l.contains(pattern.as_ref())) {
                    matched = true;
                    container.log(LogStream::Stdout, format_args!("{line}"));
                }
            }
            None => {
                container.log(
                    LogStream::Stderr,
                    format_args!("grep: {file}: No such file or directory"),
                );
                return CmdResult::fail(2, SimDuration::MILLI);
            }
        }
    }
    CmdResult::fail(i32::from(!matched), SimDuration::MILLI)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::WORKDIR;
    use proptest::prelude::*;

    /// The tokeniser this module shipped until the borrowed one
    /// replaced it: every word an owned `String` built a character at
    /// a time. Kept as the oracle the borrowed one must agree with.
    fn reference_shell_words(cmd: &str) -> Vec<String> {
        let mut words = Vec::new();
        let mut cur = String::new();
        let mut in_single = false;
        let mut in_double = false;
        for c in cmd.chars() {
            match c {
                '\'' if !in_double => in_single = !in_single,
                '"' if !in_single => in_double = !in_double,
                c if c.is_whitespace() && !in_single && !in_double => {
                    if !cur.is_empty() {
                        words.push(std::mem::take(&mut cur));
                    }
                }
                c => cur.push(c),
            }
        }
        if !cur.is_empty() {
            words.push(cur);
        }
        words
    }

    /// The `&&` splitter of the same vintage.
    fn reference_split_chain(cmd: &str) -> Vec<String> {
        let mut parts = Vec::new();
        let mut cur = String::new();
        let mut in_single = false;
        let mut in_double = false;
        let mut chars = cmd.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '\'' if !in_double => {
                    in_single = !in_single;
                    cur.push(c);
                }
                '"' if !in_single => {
                    in_double = !in_double;
                    cur.push(c);
                }
                '&' if !in_single && !in_double && chars.peek() == Some(&'&') => {
                    chars.next();
                    parts.push(std::mem::take(&mut cur));
                }
                c => cur.push(c),
            }
        }
        parts.push(cur);
        parts.into_iter().map(|p| p.trim().to_string()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        // The alphabet is what the tokenisers branch on — both quote
        // marks, `&`, every ASCII space (the vertical tab and form feed
        // `char::is_whitespace` accepts among them) and multi-byte ones
        // (NEL, the line separator) — plus ordinary and multi-byte word
        // characters, so quotes open, close, stay unterminated and land
        // inside words.
        #[test]
        fn tokeniser_equals_reference(
            line in "[ab/.\\-'\"& \t\n\r\u{0B}\u{0C}\u{85}\u{2028}\u{a0}\u{3000}é漢🦀]{0,40}",
        ) {
            prop_assert_eq!(shell_words(&line), reference_shell_words(&line));
        }

        #[test]
        fn chain_split_equals_reference(line in "[ab/.\\-'\"& \t\n\u{a0}\u{3000}é漢🦀]{0,40}") {
            let parts: Vec<&str> = split_chain(&line).collect();
            prop_assert_eq!(&parts, &reference_split_chain(&line));
            // Word for word, the whole line as `execute` reads it.
            for (part, reference) in parts.iter().zip(reference_split_chain(&line)) {
                prop_assert_eq!(shell_words(part), reference_shell_words(&reference));
            }
        }

        // Lines made of the needle, its pieces and near misses: none,
        // one, several, back to back or sharing bytes, amid multi-byte
        // text.
        #[test]
        fn after_elapsed_equals_split(pieces in prop::collection::vec(0usize..10, 0..10)) {
            const PIECES: [&str; 10] = [
                "elapsed = ", "elapsed", " = ", "=", "elapsed =", "lapsed = ", "elapsed == ", "1.234 s", " ", "é",
            ];
            let line: String = pieces.iter().map(|&i| PIECES[i]).collect();
            prop_assert_eq!(after_elapsed(&line), line.split("elapsed = ").nth(1));
        }

        // Makefiles of `VAR=` lines, near misses, values, CRs and
        // line breaks.
        #[test]
        fn makefile_vars_equal_line_search(picks in prop::collection::vec(0usize..9, 0..16)) {
            const PIECES: [&str; 9] =
                ["SRCDIR=", "TARGET=", "XSRCDIR=", "SRCDIR", "=", "src", "\n", "\r", "\r\n"];
            let makefile: String = picks.iter().map(|&i| PIECES[i]).collect();
            for assign in ["SRCDIR=", "TARGET="] {
                prop_assert_eq!(
                    extract_var(&makefile, assign),
                    makefile.lines().find_map(|l| l.strip_prefix(assign))
                );
            }
        }
    }

    #[test]
    fn after_elapsed_reads_what_split_does() {
        for line in [
            "",
            "Correctness: 0.8451",
            "Done with 10000 queries in elapsed = 1.234 s",
            "elapsed = ",
            "elapsed = 1 s elapsed = 2 s",
            "elapsed = elapsed = elapsed = ",
            "elapsedelapsed = 3 s",
            "elapsed == 4 s, elapsed =5 s",
            "é elapsed = ü",
        ] {
            assert_eq!(after_elapsed(line), line.split("elapsed = ").nth(1), "{line:?}");
        }
        assert_eq!(after_elapsed("in elapsed = 1.234 s"), Some("1.234 s"));
    }

    #[test]
    fn words_borrow_unless_a_quote_splices() {
        let borrowed = |cmd| shell_words(cmd).iter().all(|w| matches!(w, Cow::Borrowed(_)));
        assert!(borrowed("cmake /src"));
        assert!(borrowed("echo \"Building project\" 'and more'"));
        assert!(borrowed("nvprof --export-profile timeline.nvprof ./ece408 /data/test10.hdf5"));
        assert_eq!(shell_words("a\"b c\"d e''"), vec!["ab cd", "e"]);
        assert!(!borrowed("a\"b c\"d"));
        // Empty quotes make no word, as before.
        assert_eq!(shell_words("echo \"\" ''"), vec!["echo"]);
    }

    #[test]
    fn shell_word_splitting() {
        assert_eq!(
            shell_words("echo \"Building project\""),
            vec!["echo", "Building project"]
        );
        assert_eq!(
            shell_words("./ece408 /data/test10.hdf5 /data/model.hdf5"),
            vec!["./ece408", "/data/test10.hdf5", "/data/model.hdf5"]
        );
        assert_eq!(shell_words("echo 'a  b'  c"), vec!["echo", "a  b", "c"]);
        assert_eq!(shell_words("   "), Vec::<String>::new());
        assert_eq!(shell_words("echo \u{a0}né  'unterminated q"), vec!["echo", "né", "unterminated q"]);
    }

    #[test]
    fn chain_splitting() {
        let split = |cmd| split_chain(cmd).collect::<Vec<_>>();
        assert_eq!(split("cmake /src && make"), vec!["cmake /src", "make"]);
        assert_eq!(split("echo 'a && b'"), vec!["echo 'a && b'"]);
        assert_eq!(split("a&&b && c"), vec!["a", "b", "c"]);
        assert_eq!(split("single"), vec!["single"]);
        assert_eq!(split("a &&& b &&"), vec!["a", "& b", ""]);
        assert_eq!(split(""), vec![""]);
    }

    #[test]
    fn time_carries_rounded_seconds_into_the_minutes() {
        use crate::image::ImageRegistry;
        use crate::limits::ResourceLimits;
        let registry = ImageRegistry::course_default();
        let image = registry.resolve("webgpu/rai:root").expect("whitelisted");
        let cases =
            [("59.994", " 0:59.99elapsed"), ("59.996", " 1:00.00elapsed"), ("119.996", " 2:00.00elapsed")];
        for (sleep, clock) in cases {
            let mut container = Container::create(image, ResourceLimits::default());
            assert_eq!(container.run_command(&format!("/usr/bin/time sleep {sleep}")).exit_code, 0);
            let report = container.destroy();
            let line = report.lines().last().expect("time reports").text;
            assert!(line.contains(clock), "{sleep} s: {line}");
        }
    }

    #[test]
    fn parse_add_executable_name() {
        assert_eq!(
            parse_add_executable("project(x)\nadd_executable(ece408 src/main.cu)\n"),
            Some("ece408")
        );
        assert_eq!(parse_add_executable("nothing here"), None);
    }

    #[test]
    fn extract_makefile_var() {
        let m = "# generated\nSRCDIR=src\nTARGET=ece408\n";
        assert_eq!(extract_var(m, "SRCDIR="), Some("src"));
        assert_eq!(extract_var(m, "TARGET="), Some("ece408"));
        assert_eq!(extract_var(m, "MISSING="), None);
        assert_eq!(MAKEFILE.pieces().concat(), [WORKDIR, "/Makefile"].concat());
    }
}
