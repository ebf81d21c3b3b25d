//! The build-command interpreter.
//!
//! Executes the `rai-build.yml` command vocabulary deterministically
//! against a container's in-memory filesystem, charging simulated time
//! and memory. The vocabulary covers everything in the paper's listings
//! (`echo`, `cmake`, `make`, program execution, `nvprof`,
//! `/usr/bin/time`, `cp -r`) plus the obvious student variations
//! (`ls`, `cat`, `mkdir`, `rm`) and the *denied* network tools.

use crate::container::{Container, KillReason, LogStream};
use crate::image::hdf5_item_count;
use crate::perf::{ExecMode, PerfSpec};
use rai_archive::tree::{TreeError, MAX_PATH_BYTES};
use rai_sim::SimDuration;
use std::borrow::Cow;

/// Outcome of one command.
#[derive(Clone, Debug, PartialEq, Eq)]
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
pub(crate) const BINARY_MAGIC: &str = "RAIBIN\n";

/// Split a command line into words, honouring single/double quotes.
/// A word borrows from `cmd` while its characters are contiguous there
/// (`make`, `"Building project"`); only a quote mark *inside* a word
/// (`a"b c"d`) makes quote removal splice an owned one.
pub fn shell_words(cmd: &str) -> Vec<Cow<'_, str>> {
    let mut words = Vec::new();
    let mut cur = Cow::Borrowed("");
    // Where in `cmd` the borrowed `cur` ends.
    let mut cur_end = 0;
    let mut in_single = false;
    let mut in_double = false;
    for (at, c) in cmd.char_indices() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            c if c.is_whitespace() && !in_single && !in_double => {
                if !cur.is_empty() {
                    words.push(std::mem::replace(&mut cur, Cow::Borrowed("")));
                }
            }
            c => {
                let next = at + c.len_utf8();
                match cur {
                    Cow::Borrowed(span) if span.is_empty() || cur_end == at => {
                        cur = Cow::Borrowed(&cmd[at - span.len()..next]);
                    }
                    _ => cur.to_mut().push(c),
                }
                cur_end = next;
            }
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

/// Commands that would require network access.
const NETWORK_TOOLS: &[&str] = &[
    "curl", "wget", "git", "apt", "apt-get", "pip", "pip3", "ping", "ssh", "scp", "nc", "netcat",
];

/// Split a command line on top-level `&&`, honouring quotes (students
/// write `cmake /src && make` in their build files). The pieces are
/// trimmed slices of `cmd`.
pub fn split_chain(cmd: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(cmd);
    std::iter::from_fn(move || {
        let tail = rest?;
        let bytes = tail.as_bytes();
        let mut in_single = false;
        let mut in_double = false;
        let mut cut = None;
        // Quote marks and `&` are ASCII, so a byte scan finds exactly
        // the characters a `char` scan would.
        for (at, &b) in bytes.iter().enumerate() {
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
            format!("sh: {argv0}: wrapper nesting too deep"),
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
        "ls" => run_ls(container, args),
        "cat" => run_cat(container, args),
        "mkdir" => CmdResult::ok(SimDuration::MILLI), // dirs are implicit
        "rm" => run_rm(container, args),
        "grep" => run_grep(container, args),
        "head" => run_head(container, args),
        "wc" => run_wc(container, args),
        "pwd" => {
            let d = format!("/{}", container.workdir());
            container.log(LogStream::Stdout, d);
            CmdResult::ok(SimDuration::MILLI)
        }
        "env" => {
            for line in [
                "PATH=/usr/local/cuda/bin:/usr/bin:/bin",
                "CUDA_HOME=/usr/local/cuda",
                "HOME=/root",
            ] {
                container.log(LogStream::Stdout, line.to_string());
            }
            CmdResult::ok(SimDuration::MILLI)
        }
        "true" | ":" => CmdResult::ok(SimDuration::MILLI),
        "false" => CmdResult::fail(1, SimDuration::MILLI),
        "sleep" => run_sleep(container, args),
        t if NETWORK_TOOLS.contains(&t) => {
            container.log(
                LogStream::Stderr,
                format!("{t}: network access is disabled inside RAI containers"),
            );
            CmdResult::fail(1, SimDuration::from_millis(5))
        }
        prog if is_program_invocation(prog) => run_program(container, words),
        other => {
            container.log(
                LogStream::Stderr,
                format!("sh: {other}: command not found"),
            );
            CmdResult::fail(127, SimDuration::MILLI)
        }
    }
}

fn is_program_invocation(argv0: &str) -> bool {
    argv0.starts_with("./") || argv0.starts_with('/')
}

fn run_echo(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    container.log(LogStream::Stdout, args.join(" "));
    CmdResult::ok(SimDuration::MILLI)
}

fn run_sleep(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let secs: f64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0.0);
    let _ = container;
    CmdResult::ok(SimDuration::from_secs_f64(secs))
}

/// `cmake <srcdir>`: requires `CMakeLists.txt`, records the executable
/// target, and "generates a Makefile" in the working directory.
fn run_cmake(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let srcdir = args.iter().find(|a| !a.starts_with('-')).map_or("/src", |a| a);
    let src = container.resolve_path(srcdir);
    let lists_path = [&src, "/CMakeLists.txt"].concat();
    let Some(lists) = container.fs.get(&lists_path).cloned() else {
        container.log(
            LogStream::Stderr,
            format!("CMake Error: The source directory \"{srcdir}\" does not appear to contain CMakeLists.txt."),
        );
        return CmdResult::fail(1, SimDuration::from_millis(120));
    };
    let text = String::from_utf8_lossy(&lists);
    let target = parse_add_executable(&text).unwrap_or("a.out");
    let makefile = format!("# generated by rai cmake\nSRCDIR={src}\nTARGET={target}\n");
    let makefile_path = container.in_workdir("Makefile");
    if container.fs.insert(&makefile_path, makefile.into_bytes()).is_err() {
        return no_space(container, "cmake", "Makefile", SimDuration::from_millis(120));
    }
    container.log(LogStream::Stdout, "-- The CUDA compiler identification is NVIDIA".to_string());
    container.log(
        LogStream::Stdout,
        "-- Hunter disabled: dependencies provided by the base image".to_string(),
    );
    container.log(
        LogStream::Stdout,
        format!("-- Configuring done; generating Makefile for target '{target}'"),
    );
    // cmake configure latency: fixed, small.
    CmdResult::ok(SimDuration::from_millis(900))
}

fn parse_add_executable(cmake: &str) -> Option<&str> {
    let idx = cmake.find("add_executable(")?;
    let rest = &cmake[idx + "add_executable(".len()..];
    let end = rest.find(|c: char| c.is_whitespace() || c == ')' || c == '(');
    let name = &rest[..end.unwrap_or(rest.len())];
    (!name.is_empty()).then_some(name)
}

/// `make`: "compiles" the sources — time proportional to source bytes,
/// diagnostics for marked sources, and a binary carrying the perf spec.
fn run_make(container: &mut Container, _args: &[Cow<'_, str>]) -> CmdResult {
    let makefile_path = container.in_workdir("Makefile");
    let Some(makefile) = container.fs.get(&makefile_path).cloned() else {
        container.log(
            LogStream::Stderr,
            "make: *** No targets specified and no makefile found.  Stop.".to_string(),
        );
        return CmdResult::fail(2, SimDuration::from_millis(10));
    };
    let text = String::from_utf8_lossy(&makefile);
    let srcdir = extract_var(&text, "SRCDIR=").unwrap_or("src");
    let target = extract_var(&text, "TARGET=").unwrap_or("a.out");

    // Collect compilable sources: shared handles on the file bytes,
    // read as text in place.
    let files: Vec<_> = container
        .fs
        .iter()
        .filter(|(path, _)| {
            let in_srcdir = path.strip_prefix(srcdir).is_some_and(|p| p.starts_with('/'));
            in_srcdir && [".cu", ".cpp", ".cc", ".c"].iter().any(|s| path.ends_with(s))
        })
        .map(|(path, data)| (path.to_string(), data.clone()))
        .collect();
    let sources: Vec<(&str, Cow<'_, str>)> = files
        .iter()
        .map(|(path, data)| (path.as_str(), String::from_utf8_lossy(data)))
        .collect();
    if sources.is_empty() {
        container.log(
            LogStream::Stderr,
            format!("make: *** no source files found under {srcdir}.  Stop."),
        );
        return CmdResult::fail(2, SimDuration::from_millis(10));
    }

    let total_bytes: usize = sources.iter().map(|(_, s)| s.len()).sum();
    // Compile-time model: fixed nvcc startup plus per-KB cost.
    let duration =
        SimDuration::from_millis(1_500) + SimDuration::from_millis((total_bytes as u64 / 1024) * 40);
    let mem = 512 * 1024 * 1024;
    if let Some(kill) = container.charge(duration, mem) {
        return CmdResult::killed(kill, duration);
    }

    // Diagnostics: a marked syntax error aborts the build.
    for (path, text) in &sources {
        if text.contains("RAI_SYNTAX_ERROR") {
            container.log(
                LogStream::Stderr,
                format!("/{path}(1): error: expected a ';' (nvcc exited with status 2)"),
            );
            container.log(LogStream::Stderr, format!("make: *** [{target}] Error 2"));
            return CmdResult::fail(2, duration);
        }
        if text.contains("RAI_WARNING") {
            container.log(
                LogStream::Stderr,
                format!("/{path}(1): warning: variable declared but never referenced"),
            );
        }
    }

    let spec = PerfSpec::from_sources(sources.iter().map(|(_, s)| s.as_ref()));
    for (_, text) in &sources {
        container.log(
            LogStream::Stdout,
            format!("[ nvcc ] compiling ({} bytes)", text.len()),
        );
    }
    let binary = [BINARY_MAGIC, "// ", &spec.to_directive(), "\n"].concat();
    // The target name is the student's (`add_executable`): one the
    // filesystem refuses fails the link, not the worker.
    let bin_path = container.in_workdir(target);
    match container.fs.insert(&bin_path, binary.into_bytes()) {
        Ok(()) => {}
        Err(TreeError::NoSpace) => return no_space(container, "/usr/bin/ld", target, duration),
        Err(TreeError::Path(_)) => {
            container
                .log(LogStream::Stderr, format!("/usr/bin/ld: cannot open output file {target}"));
            container.log(LogStream::Stderr, format!("make: *** [{target}] Error 1"));
            return CmdResult::fail(2, duration);
        }
    }
    container.log(LogStream::Stdout, format!("[100%] Built target {target}"));
    CmdResult::ok(duration)
}

/// The value of the first `VAR=value` line; `assign` is `"VAR="`.
fn extract_var<'a>(makefile: &'a str, assign: &str) -> Option<&'a str> {
    makefile.lines().find_map(|l| l.strip_prefix(assign))
}

/// Run a compiled program (`./ece408 /data/test10.hdf5 /data/model.hdf5`).
fn run_program(container: &mut Container, words: &[Cow<'_, str>]) -> CmdResult {
    let prog_path = container.resolve_path(&words[0]);
    let Some(bin) = container.fs.get(&prog_path).cloned() else {
        container.log(
            LogStream::Stderr,
            format!("sh: {}: No such file or directory", words[0]),
        );
        return CmdResult::fail(127, SimDuration::MILLI);
    };
    let content = String::from_utf8_lossy(&bin);
    let Some(spec_text) = content.strip_prefix(BINARY_MAGIC) else {
        container.log(
            LogStream::Stderr,
            format!("sh: {}: Permission denied (not an executable)", words[0]),
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
            match container.fs.get(&path) {
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
            format!("unable to open dataset file {missing}"),
        );
        return CmdResult::fail(1, SimDuration::from_millis(40));
    }
    let Some(items) = items else {
        container.log(
            LogStream::Stderr,
            "usage: ece408 <data.hdf5> <model.hdf5> [count]".to_string(),
        );
        return CmdResult::fail(1, SimDuration::from_millis(5));
    };

    if spec.mode == ExecMode::Gpu && container.limits.gpus == 0 {
        container.log(
            LogStream::Stderr,
            "CUDA error: no CUDA-capable device is detected".to_string(),
        );
        return CmdResult::fail(1, SimDuration::from_millis(60));
    }

    let scale = container.program_time_scale();
    let duration = SimDuration::from_secs_f64(spec.runtime_ms(items) * scale / 1000.0);
    if let Some(kill) = container.charge(duration, spec.memory_bytes) {
        if kill == KillReason::OutOfMemory {
            container.log(LogStream::Stderr, "Killed".to_string());
        }
        return CmdResult::killed(kill, duration);
    }

    container.log(LogStream::Stdout, "Loading fashion-mnist data...done".to_string());
    container.log(LogStream::Stdout, "Loading model...done".to_string());
    container.log(
        LogStream::Stdout,
        format!(
            "Done with {items} queries in elapsed = {:.3} s",
            duration.as_secs_f64()
        ),
    );
    container.log(LogStream::Stdout, format!("Correctness: {:.4}", spec.accuracy));
    CmdResult::ok(duration)
}

/// `nvprof [--export-profile FILE] <cmd…>`: profile a program run.
fn run_nvprof(container: &mut Container, args: &[Cow<'_, str>], depth: usize) -> CmdResult {
    if container.limits.gpus == 0 {
        container.log(
            LogStream::Stderr,
            "======== Error: unified memory profiling failed (no CUDA device).".to_string(),
        );
        return CmdResult::fail(1, SimDuration::from_millis(50));
    }
    let mut profile_out: Option<&str> = None;
    let mut rest = args;
    while let Some(first) = rest.first() {
        if first == "--export-profile" {
            profile_out = rest.get(1).map(|file| file.as_ref());
            rest = &rest[2.min(rest.len())..];
        } else if first.starts_with("--") {
            rest = &rest[1..];
        } else {
            break;
        }
    }
    if rest.is_empty() {
        container.log(LogStream::Stderr, "nvprof: no application specified".to_string());
        return CmdResult::fail(1, SimDuration::MILLI);
    }
    let application = rest.join(" ");
    container.log(
        LogStream::Stderr,
        ["==PROF== Profiling application: ", &application].concat(),
    );
    let inner = dispatch(container, rest, depth + 1);
    if inner.killed.is_some() {
        return inner;
    }
    // Profiling overhead: ~10% of the profiled run.
    let overhead = inner.duration * 0.1;
    if let Some(file) = profile_out {
        let path = container.resolve_path(file);
        let blob = format!("NVPROF-TIMELINE\ncmd={application}\nspan_ms={}\n", inner.duration.as_millis());
        if let Err(TreeError::NoSpace) = container.fs.insert(&path, blob.into_bytes()) {
            return no_space(container, "nvprof", file, inner.duration + overhead);
        }
        container.log(
            LogStream::Stderr,
            format!("==PROF== Generated result file: {file}"),
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
        format!(
            "{:.2}user {:.2}system {}:{:05.2}elapsed 99%CPU",
            secs * 0.98,
            secs * 0.02,
            (secs as u64) / 60,
            secs % 60.0,
        ),
    );
    inner
}

/// A write the filesystem refused because the tree is full
/// (`MAX_ENTRIES` files or `MAX_TREE_BYTES` bytes): `who` says so on
/// stderr and the command exits 1.
fn no_space(container: &mut Container, who: &str, path: &str, duration: SimDuration) -> CmdResult {
    container
        .log(LogStream::Stderr, format!("{who}: cannot write '{path}': No space left on device"));
    CmdResult::fail(1, duration)
}

/// `cp [-r] <src> <dst>`.
fn run_cp(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let recursive = args.iter().any(|a| a == "-r" || a == "-R" || a == "-a");
    let paths: Vec<&str> = args.iter().map(|a| a.as_ref()).filter(|a| !a.starts_with('-')).collect();
    if paths.len() != 2 {
        container.log(LogStream::Stderr, "cp: expected source and destination".to_string());
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
        container.log(LogStream::Stderr, format!("cp: cannot create '{}': {reason}", paths[1]));
        CmdResult::fail(1, SimDuration::MILLI)
    };
    if let Some(data) = container.fs.get(&src).cloned() {
        // Single file copy.
        return match container.fs.insert(&dst, data) {
            Ok(()) => CmdResult::ok(SimDuration::from_millis(5)),
            Err(e) => cannot_create(container, e),
        };
    }
    // Directory copy.
    let sub = container.fs.subtree(&src);
    if sub.is_empty() {
        container.log(
            LogStream::Stderr,
            format!("cp: cannot stat '{}': No such file or directory", paths[0]),
        );
        return CmdResult::fail(1, SimDuration::MILLI);
    }
    if !recursive {
        container.log(
            LogStream::Stderr,
            format!("cp: -r not specified; omitting directory '{}'", paths[0]),
        );
        return CmdResult::fail(1, SimDuration::MILLI);
    }
    if let Err(e) = container.fs.mount(&dst, &sub) {
        return cannot_create(container, e);
    }
    // Copy latency: 200 MB/s.
    CmdResult::ok(SimDuration::from_millis(5 + sub.total_size() / (200 * 1024)))
}

fn run_ls(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let dir = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .map_or(Cow::Borrowed(container.workdir()), |a| container.resolve_path(a));
    let prefix = [&dir, "/"].concat();
    let mut names: Vec<String> = Vec::new();
    for path in container.fs.paths() {
        if let Some(rest) = path.strip_prefix(&prefix) {
            let first = rest.split('/').next().unwrap_or(rest);
            if !names.iter().any(|n| n == first) {
                names.push(first.to_string());
            }
        } else if path == dir {
            names.push(dir.rsplit('/').next().unwrap_or(&dir).to_string());
        }
    }
    names.sort();
    container.log(LogStream::Stdout, names.join("  "));
    CmdResult::ok(SimDuration::MILLI)
}

fn run_cat(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let mut code = 0;
    for a in args.iter().filter(|a| !a.starts_with('-')) {
        let path = container.resolve_path(a);
        match container.fs.get(&path).cloned() {
            Some(data) => {
                for line in String::from_utf8_lossy(&data).lines() {
                    container.log(LogStream::Stdout, line.to_string());
                }
            }
            None => {
                container.log(
                    LogStream::Stderr,
                    format!("cat: {a}: No such file or directory"),
                );
                code = 1;
            }
        }
    }
    CmdResult {
        exit_code: code,
        duration: SimDuration::MILLI,
        killed: None,
    }
}

/// `grep <pattern> <files…>`: substring match, exit 1 when nothing
/// matches (students grep build logs and sources).
fn run_grep(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let positional: Vec<&str> = args.iter().map(|a| a.as_ref()).filter(|a| !a.starts_with('-')).collect();
    let Some((pattern, files)) = positional.split_first() else {
        container.log(LogStream::Stderr, "usage: grep PATTERN [FILE]...".to_string());
        return CmdResult::fail(2, SimDuration::MILLI);
    };
    let mut matched = false;
    for file in files {
        let path = container.resolve_path(file);
        match container.fs.get(&path).cloned() {
            Some(data) => {
                let text = String::from_utf8_lossy(&data);
                for line in text.lines().filter(|l| l.contains(pattern)) {
                    matched = true;
                    container.log(LogStream::Stdout, line.to_string());
                }
            }
            None => {
                container.log(
                    LogStream::Stderr,
                    format!("grep: {file}: No such file or directory"),
                );
                return CmdResult::fail(2, SimDuration::MILLI);
            }
        }
    }
    CmdResult::fail(i32::from(!matched), SimDuration::MILLI)
}

/// `head [-n N] <file>`.
fn run_head(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let mut n = 10usize;
    let mut file = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "-n" {
            n = iter.next().and_then(|v| v.parse().ok()).unwrap_or(10);
        } else if !a.starts_with('-') {
            file = Some(a.as_ref());
        }
    }
    let Some(file) = file else {
        return CmdResult::fail(1, SimDuration::MILLI);
    };
    let path = container.resolve_path(file);
    match container.fs.get(&path).cloned() {
        Some(data) => {
            for line in String::from_utf8_lossy(&data).lines().take(n) {
                container.log(LogStream::Stdout, line.to_string());
            }
            CmdResult::ok(SimDuration::MILLI)
        }
        None => {
            container.log(
                LogStream::Stderr,
                format!("head: cannot open '{file}' for reading"),
            );
            CmdResult::fail(1, SimDuration::MILLI)
        }
    }
}

/// `wc -l <file>`: line count (the only wc mode students use here).
fn run_wc(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let Some(file) = args.iter().find(|a| !a.starts_with('-')) else {
        return CmdResult::fail(1, SimDuration::MILLI);
    };
    let path = container.resolve_path(file);
    match container.fs.get(&path).cloned() {
        Some(data) => {
            let lines = String::from_utf8_lossy(&data).lines().count();
            container.log(LogStream::Stdout, format!("{lines} {file}"));
            CmdResult::ok(SimDuration::MILLI)
        }
        None => {
            container.log(LogStream::Stderr, format!("wc: {file}: No such file or directory"));
            CmdResult::fail(1, SimDuration::MILLI)
        }
    }
}

fn run_rm(container: &mut Container, args: &[Cow<'_, str>]) -> CmdResult {
    let recursive = args.iter().any(|a| matches!(a.as_ref(), "-r" | "-R" | "-rf" | "-fr"));
    let mut code = 0;
    for a in args.iter().filter(|a| !a.starts_with('-')) {
        let p = container.resolve_path(a);
        if container.fs.remove(&p).is_some() {
            continue;
        }
        if recursive && container.fs.remove_dir(&p) > 0 {
            continue;
        }
        container.log(
            LogStream::Stderr,
            format!("rm: cannot remove '/{p}': No such file or directory"),
        );
        code = 1;
    }
    CmdResult::fail(code, SimDuration::MILLI)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // marks, `&`, ASCII and multi-byte whitespace — plus ordinary
        // and multi-byte word characters, so quotes open, close, stay
        // unterminated and land inside words.
        #[test]
        fn tokeniser_equals_reference(line in "[ab/.\\-'\"& \t\n\u{a0}\u{3000}é漢🦀]{0,40}") {
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
    }
}
