//! Container lifecycle: create from an image, mount volumes, run the
//! build script, collect the execution report, destroy.

use crate::exec::{execute, CmdResult};
use crate::image::Image;
use crate::layers::{Layers, Resolved};
use crate::limits::{ResourceLimits, MEMORY_BYTES};
use rai_archive::FileTree;
use rai_sim::SimDuration;
use std::fmt::{self, Write as _};

/// Why a container was killed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillReason {
    /// Memory limit exceeded.
    OutOfMemory,
    /// The 1-hour (configurable) lifetime elapsed.
    LifetimeExceeded,
}

/// Container state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerStatus {
    /// Created, nothing run yet.
    Created,
    /// Commands ran; the last one exited with this code.
    Exited(i32),
    /// A resource limit killed it.
    Killed(KillReason),
}

/// Which stream a log line was written to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogStream {
    /// Standard output.
    Stdout,
    /// Standard error.
    Stderr,
}

/// One line of container output, owned: what an interactive session
/// hands back for the command it ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogLine {
    /// stdout or stderr.
    pub(crate) stream: LogStream,
    /// The text (no trailing newline).
    pub text: String,
}

impl LogLine {
    /// Render as the client prints it (stderr lines get a marker).
    pub fn render(&self) -> String {
        match self.stream {
            LogStream::Stdout => self.text.clone(),
            LogStream::Stderr => format!("[stderr] {}", self.text),
        }
    }
}

/// One line of a [`JobOutput`], borrowed from its buffer.
#[derive(Debug)]
pub struct OutputLine<'a> {
    /// stdout or stderr.
    pub stream: LogStream,
    /// The text (no trailing newline).
    pub text: &'a str,
}

impl From<OutputLine<'_>> for LogLine {
    fn from(line: OutputLine<'_>) -> Self {
        LogLine { stream: line.stream, text: line.text.to_string() }
    }
}

/// A job's output lines: their text back to back in one buffer, and
/// per line the stream it went to and where in the buffer it ends.
/// Lines are charged against [`MAX_OUTPUT_BYTES`] as they are written
/// (see [`Container`]'s `log`).
pub struct JobOutput {
    text: String,
    /// Per line in order, its stream and where its text ends in `text`.
    ends: Vec<(LogStream, u32)>,
    /// Bytes charged against [`MAX_OUTPUT_BYTES`] so far.
    charged: usize,
}

impl JobOutput {
    /// Room for a Listing 1 or Listing 2 job's whole output (16 lines
    /// of 584 bytes; 11 lines of 395 bytes), so that neither buffer
    /// grows on the course's own build files.
    fn with_room() -> Self {
        JobOutput {
            text: String::with_capacity(640),
            ends: Vec::with_capacity(16),
            charged: 0,
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes of line text (no separators).
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The lines in order.
    pub(crate) fn lines(&self) -> impl DoubleEndedIterator<Item = OutputLine<'_>> + ExactSizeIterator {
        self.lines_from(0)
    }

    /// The lines from the `first`th on (none if there are fewer).
    pub fn lines_from(
        &self,
        first: usize,
    ) -> impl DoubleEndedIterator<Item = OutputLine<'_>> + ExactSizeIterator {
        (first.min(self.ends.len())..self.ends.len()).map(move |i| {
            let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev].1 as usize);
            let (stream, end) = self.ends[i];
            OutputLine { stream, text: &self.text[start..end as usize] }
        })
    }

    /// Write one line. The line that takes the job past
    /// [`MAX_OUTPUT_BYTES`] is cut to the longest prefix that fits the
    /// cap together with one stderr line saying so ([`TRUNCATED`]),
    /// which follows it; every later line is dropped.
    fn push(&mut self, stream: LogStream, line: fmt::Arguments<'_>) {
        if self.charged > MAX_OUTPUT_BYTES {
            return;
        }
        let start = self.text.len();
        match line.as_str() {
            Some(literal) => self.text.push_str(literal),
            None => {
                // Writing into a `String` cannot fail.
                let _ = self.text.write_fmt(line);
            }
        }
        let room = MAX_OUTPUT_BYTES - self.charged;
        self.charged += self.text.len() - start + LINE_OVERHEAD;
        if self.charged <= MAX_OUTPUT_BYTES {
            self.end_line(stream);
            return;
        }
        let mut keep = room.saturating_sub(2 * LINE_OVERHEAD + TRUNCATED.len());
        while !self.text.is_char_boundary(start + keep) {
            keep -= 1;
        }
        self.text.truncate(start + keep);
        if keep > 0 {
            self.end_line(stream);
        }
        self.text.push_str(TRUNCATED);
        self.end_line(LogStream::Stderr);
    }

    /// Close the line the buffer's tail holds. Kept text is under
    /// [`MAX_OUTPUT_BYTES`], so its end fits a `u32`.
    fn end_line(&mut self, stream: LogStream) {
        self.ends.push((stream, self.text.len() as u32));
    }
}

impl fmt::Debug for JobOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lines()).finish()
    }
}

/// What the worker ships back after the container is destroyed.
pub struct ExecutionReport {
    /// Final status.
    pub(crate) status: ContainerStatus,
    /// All output lines in order.
    pub output: JobOutput,
    /// Total simulated wall-clock consumed.
    pub elapsed: SimDuration,
    /// The `/build` directory contents (uploaded to the file server).
    pub build_dir: FileTree,
}

impl ExecutionReport {
    /// Whether every command succeeded.
    pub fn success(&self) -> bool {
        matches!(self.status, ContainerStatus::Exited(0))
    }

    /// The output lines in order.
    pub fn lines(&self) -> impl DoubleEndedIterator<Item = OutputLine<'_>> + ExactSizeIterator {
        self.output.lines()
    }

    /// The program-reported elapsed time ("elapsed = X.XXX s"), i.e. the
    /// *internal timer* students see; `None` if no program ran.
    pub fn internal_timer_secs(&self) -> Option<f64> {
        self.lines().rev().find_map(|l| crate::exec::internal_timer(l.text))
    }
}

/// What one job may log: 640 KiB, the per-job share of the paper's
/// 25 GB of logs over ≈ 40 000 submissions. Output is a resource like
/// memory and lifetime — a job's lines are held in one buffer, copied
/// into one log message, kept by the broker until the client drains it and
/// summed into the submissions row — but running over it costs only
/// the rest of the output, never the job: see `Container::log`.
pub const MAX_OUTPUT_BYTES: usize = 640 * 1024;

/// What a line is charged beyond its text, so that a flood of empty
/// lines is bounded too: the five bytes that frame it on the log topic.
const LINE_OVERHEAD: usize = 5;

/// The stderr line that ends a job's output at [`MAX_OUTPUT_BYTES`].
const TRUNCATED: &str = "… output truncated";

/// The working directory (normalized, no leading slash): `/build`.
pub(crate) const WORKDIR: &str = "build";

/// A running (simulated) container. Its filesystem is the paper's
/// layers: the image's files and the project mounted at `/src`, both
/// held by reference and never written, under one upper layer that
/// every write lands in and whose `/build` is the report's build tree
/// (see `layers`). Starting, mounting and ending a job copy no path.
pub struct Container {
    /// The merged filesystem: image rootfs, the volume, the upper layer.
    pub(crate) fs: Layers,
    /// Resource limits in force.
    pub(crate) limits: ResourceLimits,
    status: ContainerStatus,
    output: JobOutput,
    elapsed: SimDuration,
    /// Multiplier applied to program runtimes (every host runs at the
    /// paper's K80 speed; only contention slows a program).
    pub(crate) time_dilation: f64,
}

impl Container {
    /// Create a container from a base image. The worker then mounts
    /// `/src` (the student's project) and uses `/build` as the working
    /// directory, per the paper.
    pub fn create(image: &Image, limits: ResourceLimits) -> Self {
        Container {
            fs: Layers::new(&image.rootfs),
            limits,
            status: ContainerStatus::Created,
            output: JobOutput::with_room(),
            elapsed: SimDuration::ZERO,
            time_dilation: 1.0,
        }
    }

    /// Host-side time dilation (>1.0 = contention from co-scheduled
    /// jobs). Models why the staff switched workers to one job at a
    /// time during the benchmarking weeks.
    pub fn set_time_dilation(&mut self, dilation: f64) {
        self.time_dilation = dilation.max(1.0);
    }

    /// Mount a read-only volume at an absolute path (`/src`; a mount
    /// point is the deployment's, never a student's). The container
    /// keeps `tree` by reference: no file is copied, and a write under
    /// the mount point lands in the container's own upper layer, so
    /// `tree` and every other container that mounts it read what it
    /// held. A volume with a file whose path under the mount point
    /// would pass [`rai_archive::tree::MAX_PATH_BYTES`], or that would
    /// take the filesystem past its bounds, is not mounted; the log
    /// says so and the commands run without it.
    pub fn mount(&mut self, path: &'static str, tree: &FileTree) {
        if let Err(e) = self.fs.mount(path, tree) {
            self.log(LogStream::Stderr, format_args!("mount: {path} not mounted: {e}"));
        }
    }

    /// Resolve a command-line path against the container filesystem:
    /// an absolute path less its leading `/`; `./x` and bare names
    /// relative to the working directory. Either is a slice of `arg`.
    pub(crate) fn resolve_path<'a>(&self, arg: &'a str) -> Resolved<'a> {
        match arg.strip_prefix('/') {
            Some(abs) => Resolved::Root(abs),
            None => Resolved::Work(arg.strip_prefix("./").unwrap_or(arg)),
        }
    }

    /// Write a line of output: a literal is copied, anything else is
    /// formatted straight into the job's buffer. Past
    /// [`MAX_OUTPUT_BYTES`] the line is cut and the output ends (see
    /// [`JobOutput`]); the commands keep running and exit as they
    /// would have.
    pub(crate) fn log(&mut self, stream: LogStream, line: fmt::Arguments<'_>) {
        self.output.push(stream, line);
    }

    /// Charge a command's resource use against the limits. Returns the
    /// kill reason if a limit is tripped.
    pub(crate) fn charge(&mut self, duration: SimDuration, memory: u64) -> Option<KillReason> {
        if memory > MEMORY_BYTES {
            return Some(KillReason::OutOfMemory);
        }
        if self.elapsed + duration > self.limits.max_lifetime {
            return Some(KillReason::LifetimeExceeded);
        }
        None
    }

    /// Run one command. Returns its result; the container's status,
    /// elapsed time and log are updated.
    pub fn run_command(&mut self, cmd: &str) -> CmdResult {
        if let ContainerStatus::Killed(reason) = self.status {
            return CmdResult { exit_code: 137, duration: SimDuration::ZERO, killed: Some(reason) };
        }
        let mut result = execute(self, cmd);
        // Centralized lifetime enforcement: any command (including ones
        // that don't model memory, like `sleep`) is killed when it would
        // run past the container deadline.
        if result.killed.is_none() && self.elapsed + result.duration > self.limits.max_lifetime {
            result = CmdResult {
                exit_code: 137,
                duration: result.duration,
                killed: Some(KillReason::LifetimeExceeded),
            };
        }
        // Lifetime accrues even when the command is the one that tripped
        // the limit (clamped at the cap).
        self.elapsed = (self.elapsed + result.duration).min(self.limits.max_lifetime);
        self.status = match result.killed {
            Some(reason) => ContainerStatus::Killed(reason),
            None => ContainerStatus::Exited(result.exit_code),
        };
        result
    }

    /// Run a build script (the `commands.build` list): commands run in
    /// order; a failing command aborts the remainder, like the worker's
    /// step executor.
    pub fn run_script<'a>(&mut self, commands: impl IntoIterator<Item = &'a str>) {
        for cmd in commands {
            let r = self.run_command(cmd);
            if r.exit_code != 0 {
                break;
            }
        }
    }

    /// Destroy the container and produce the execution report ("after
    /// the execution is complete, the worker creates a .tar.bz2 of the
    /// container's /build directory"): the upper layer's `/build`,
    /// handed over as it stands.
    pub fn destroy(self) -> ExecutionReport {
        let Container { fs, status, output, elapsed, .. } = self;
        ExecutionReport { status, output, elapsed, build_dir: fs.into_build() }
    }

    /// The output so far (interactive sessions read each command's
    /// lines from it instead of waiting for `destroy`).
    pub fn output(&self) -> &JobOutput {
        &self.output
    }

    /// Current status.
    pub fn status(&self) -> ContainerStatus {
        self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageRegistry;
    use proptest::prelude::*;

    /// The log this module kept until the output buffer replaced it: a
    /// `Vec` of owned lines, each charged, cut and capped as it came.
    /// Kept as the oracle the buffer must agree with.
    fn reference_log(lines: &[(LogStream, String)]) -> Vec<LogLine> {
        let mut log = Vec::new();
        let mut logged = 0;
        for (stream, text) in lines {
            if logged > MAX_OUTPUT_BYTES {
                break;
            }
            let mut text = text.clone();
            let room = MAX_OUTPUT_BYTES - logged;
            logged += text.len() + LINE_OVERHEAD;
            if logged <= MAX_OUTPUT_BYTES {
                log.push(LogLine { stream: *stream, text });
                continue;
            }
            let mut keep = room.saturating_sub(2 * LINE_OVERHEAD + TRUNCATED.len());
            while !text.is_char_boundary(keep) {
                keep -= 1;
            }
            if keep > 0 {
                text.truncate(keep);
                log.push(LogLine { stream: *stream, text });
            }
            log.push(LogLine { stream: LogStream::Stderr, text: TRUNCATED.to_string() });
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Lines of one- to four-byte characters and empty ones, short
        // and long, on both streams: under the cap, across it and past
        // it, the crossing line cut inside a character.
        #[test]
        fn output_buffer_equals_per_line_log(
            shapes in prop::collection::vec(
                (any::<bool>(), 0usize..5, 0usize..3, 0usize..60_000),
                0..40,
            ),
        ) {
            const PIECES: [&str; 5] = ["", "a", "é", "漢", "🦀"];
            let lines: Vec<(LogStream, String)> = shapes
                .iter()
                .map(|&(stderr, piece, long, n)| {
                    let stream = if stderr { LogStream::Stderr } else { LogStream::Stdout };
                    let n = if long == 0 { n } else { n % 8 };
                    (stream, PIECES[piece].repeat(n))
                })
                .collect();
            let mut output = JobOutput::with_room();
            for (stream, text) in &lines {
                output.push(*stream, format_args!("{text}"));
            }
            let written: Vec<LogLine> = output.lines().map(LogLine::from).collect();
            prop_assert_eq!(written, reference_log(&lines));
            // Watermarked reads see the same lines from any point.
            let from = shapes.len() / 2;
            let tail: Vec<LogLine> = output.lines_from(from).map(LogLine::from).collect();
            prop_assert_eq!(&tail[..], &reference_log(&lines)[from.min(output.len())..]);
        }
    }

    #[test]
    fn literal_lines_are_copied_and_charged_like_formatted_ones() {
        let mut output = JobOutput::with_room();
        output.push(LogStream::Stdout, format_args!("Loading model...done"));
        output.push(LogStream::Stderr, format_args!("{}", "Killed"));
        output.push(LogStream::Stdout, format_args!(""));
        let lines: Vec<OutputLine<'_>> = output.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!((lines[0].stream, lines[0].text), (LogStream::Stdout, "Loading model...done"));
        assert_eq!((lines[1].stream, lines[1].text), (LogStream::Stderr, "Killed"));
        assert_eq!(lines[2].text, "");
        assert_eq!(output.charged, 20 + 6 + 3 * LINE_OVERHEAD);
        // A flood of empty lines is charged its framing and capped.
        for _ in 0..MAX_OUTPUT_BYTES {
            output.push(LogStream::Stdout, format_args!(""));
        }
        assert_eq!(output.lines().last().map(|l| l.text), Some(TRUNCATED));
        assert!(output.len() < MAX_OUTPUT_BYTES / LINE_OVERHEAD + 2);
    }

    /// A student project with a GPU implementation at 470 ms full-dataset.
    fn project(perf: &str) -> FileTree {
        FileTree::new()
            .with(
                "CMakeLists.txt",
                &b"cmake_minimum_required(VERSION 3.0)\nadd_executable(ece408 main.cu)\n"[..],
            )
            .with(
                "main.cu",
                format!("// {perf}\n__global__ void forward() {{}}\nint main() {{}}\n").into_bytes(),
            )
    }

    fn gpu_project() -> FileTree {
        project("rai:perf mode=gpu full_ms=470 acc=0.93 mem_mb=2048")
    }

    /// A report's lines, owned.
    fn owned_log(report: ExecutionReport) -> Vec<LogLine> {
        report.lines().map(LogLine::from).collect()
    }

    fn make_container(tree: &FileTree, limits: ResourceLimits) -> Container {
        let reg = ImageRegistry::course_default();
        let img = reg.resolve("webgpu/rai:root").unwrap();
        let mut c = Container::create(img, limits);
        c.mount("/src", tree);
        c
    }

    /// The paper's Listing 1 default build, minus the YAML wrapper.
    const LISTING1_CMDS: [&str; 5] = [
        "echo \"Building project\"",
        "cmake /src",
        "make",
        "./ece408 /data/test10.hdf5 /data/model.hdf5",
        "nvprof --export-profile timeline.nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5",
    ];

    #[test]
    fn listing1_full_pipeline() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        c.run_script(LISTING1_CMDS);
        let report = c.destroy();
        assert!(report.success(), "log: {:#?}", report.output);
        // echo landed in the log.
        assert!(report.lines().any(|l| l.text == "Building project"));
        // The run reported its internal timer.
        let secs = report.internal_timer_secs().unwrap();
        // test10 = 10 items: 35ms setup + 470 * 10/10000 ≈ 0.035s.
        assert!(secs < 0.1, "small dataset run should be fast, got {secs}");
        // nvprof produced the timeline file in /build.
        assert!(report.build_dir.contains("timeline.nvprof"));
        // The binary is in /build too.
        assert!(report.build_dir.contains("ece408"));
    }

    #[test]
    fn listing2_final_submission_pipeline() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        c.run_script([
            "echo \"Submitting project\"",
            "cp -r /src /build/submission_code",
            "cmake /src",
            "make",
            "/usr/bin/time ./ece408 /data/testfull.hdf5 /data/model.hdf5 10000",
        ]);
        let report = c.destroy();
        assert!(report.success(), "log: {:#?}", report.output);
        // Source snapshot captured for the graders.
        assert!(report.build_dir.contains("submission_code/main.cu"));
        // Internal timer ≈ 470ms + 35ms setup.
        let secs = report.internal_timer_secs().unwrap();
        assert!((secs - 0.505).abs() < 0.01, "got {secs}");
        // /usr/bin/time reported to stderr for the instructors.
        assert!(report
            .lines()
            .any(|l| l.stream == LogStream::Stderr && l.text.contains("elapsed")));
    }

    #[test]
    fn a_volume_is_read_only() {
        // A build that writes under /src writes into its own container:
        // it reads its write back, and neither the mounted tree nor a
        // second container mounting it sees the write.
        let project = gpu_project();
        let lines = |c: Container| -> Vec<String> { owned_log(c.destroy()).into_iter().map(|l| l.text).collect() };
        let mut c = make_container(&project, ResourceLimits::default());
        assert_eq!(c.run_command("cp /src/CMakeLists.txt /src/main.cu").exit_code, 0);
        assert_eq!(c.run_command("cat /src/main.cu").exit_code, 0);
        let report = c.destroy();
        assert!(report.lines().any(|l| l.text.starts_with("cmake_minimum_required")));
        assert!(report.build_dir.is_empty(), "a write under /src is not in /build");
        assert_eq!(project, gpu_project());
        let mut other = make_container(&project, ResourceLimits::default());
        assert_eq!(other.run_command("cat /src/main.cu").exit_code, 0);
        assert_eq!(lines(other)[1], "__global__ void forward() {}");
    }

    #[test]
    fn cpu_baseline_takes_half_hour_on_full_dataset() {
        let tree = project("no directive here");
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["cmake /src", "make", "./ece408 /data/testfull.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        assert!(report.success(), "log: {:#?}", report.output);
        let secs = report.internal_timer_secs().unwrap();
        assert!((1_790.0..=1_810.0).contains(&secs), "~30 min, got {secs}");
    }

    #[test]
    fn gpu_program_without_gpu_fails() {
        let mut c =
            make_container(&gpu_project(), ResourceLimits { gpus: 0, ..Default::default() });
        c.run_script(["cmake /src", "make", "./ece408 /data/test10.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        assert!(!report.success());
        assert!(report
            .lines()
            .any(|l| l.text.contains("no CUDA-capable device")));
    }

    #[test]
    fn syntax_error_aborts_script() {
        let tree = FileTree::new()
            .with("CMakeLists.txt", &b"add_executable(ece408 main.cu)"[..])
            .with("main.cu", &b"RAI_SYNTAX_ERROR int main(){}"[..]);
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["cmake /src", "make", "./ece408 /data/test10.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        assert_eq!(report.status, ContainerStatus::Exited(2));
        assert!(report.lines().any(|l| l.text.contains("error:")));
        // The program never ran.
        assert!(report.internal_timer_secs().is_none());
    }

    #[test]
    fn missing_cmakelists_fails_cleanly() {
        let tree = FileTree::new().with("main.cu", &b"int main(){}"[..]);
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["cmake /src", "make"]);
        let report = c.destroy();
        assert!(!report.success());
        assert!(report.lines().any(|l| l.text.contains("CMakeLists.txt")));
    }

    #[test]
    fn oom_kill() {
        let tree = project("rai:perf mode=gpu full_ms=100 acc=0.9 mem_mb=9000");
        let mut c = make_container(&tree, ResourceLimits::default()); // 8 GB cap
        c.run_script(["cmake /src", "make", "./ece408 /data/test10.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        assert_eq!(report.status, ContainerStatus::Killed(KillReason::OutOfMemory));
        assert!(report.lines().any(|l| l.text == "Killed"));
    }

    #[test]
    fn lifetime_kill_on_infinite_loop() {
        // A "hang" (sleep longer than the lifetime cap).
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        c.run_script(["sleep 4000"]); // > 1 hour
        let report = c.destroy();
        assert_eq!(
            report.status,
            ContainerStatus::Killed(KillReason::LifetimeExceeded)
        );
        assert!(report.elapsed <= ResourceLimits::default().max_lifetime);
    }

    #[test]
    fn killed_container_refuses_further_commands() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        c.run_command("sleep 4000");
        let r = c.run_command("echo should-not-run");
        assert_eq!(r.exit_code, 137);
        let report = c.destroy();
        assert!(!report.lines().any(|l| l.text == "should-not-run"));
    }

    #[test]
    fn network_tools_denied() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        for cmd in ["curl http://example.com", "git clone x", "apt-get install y", "pip install z"] {
            let r = c.run_command(cmd);
            assert_ne!(r.exit_code, 0, "{cmd} should fail");
        }
        let report = c.destroy();
        assert!(report
            .lines()
            .any(|l| l.text.contains("network access is disabled")));
    }

    #[test]
    fn unknown_command_is_127() {
        // No course issues the shell's other builtins: each is unknown
        // like any made-up name, and leaves the filesystem alone.
        for cmd in [
            "frobnicate --all",
            "ls /build",
            "rm -r /src",
            "head -n 1 /src/main.cu",
            "wc -l /src/main.cu",
            "pwd",
            "env",
            "mkdir /build/x",
            ": noop",
            "false",
        ] {
            let mut c = make_container(&gpu_project(), ResourceLimits::default());
            let before = c.fs.flat();
            assert_eq!(c.run_command(cmd).exit_code, 127, "{cmd}");
            assert_eq!(c.fs.flat(), before, "{cmd}");
            let name = cmd.split(' ').next().unwrap();
            let log = owned_log(c.destroy());
            assert_eq!(log, [LogLine { stream: LogStream::Stderr, text: format!("sh: {name}: command not found") }]);
        }
    }

    #[test]
    fn paths_the_filesystem_refuses_fail_the_command_not_the_worker() {
        let max = rai_archive::tree::MAX_PATH_BYTES;
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        // `/build/` and the name: one byte past the bound, for a
        // directory and for a single file.
        let long = "a".repeat(max + 1 - "build/".len());
        assert_eq!(c.run_command(&format!("cp -r /src /build/{long}")).exit_code, 1);
        assert_eq!(c.run_command(&format!("cp /src/main.cu /build/{long}")).exit_code, 1);
        assert_eq!(c.run_command("cp /src/main.cu /build/../main.cu").exit_code, 1);
        let fits = &long[1..];
        assert_eq!(c.run_command(&format!("cp /src/main.cu /build/{fits}")).exit_code, 0);
        // A project file whose /src path would pass the bound keeps
        // the whole volume out; a target name past it fails the link.
        let too_deep = FileTree::new().with(&"m".repeat(max - 3), &b"x"[..]);
        let mut mounted = make_container(&too_deep, ResourceLimits::default());
        assert!(mounted.fs.subtree(Resolved::Root("src")).is_empty());
        let lists = Resolved::Root("src/CMakeLists.txt");
        mounted.fs.insert(lists, format!("add_executable({long})")).unwrap();
        mounted.fs.insert(Resolved::Root("src/main.cu"), &b"int main(){}"[..]).unwrap();
        assert_eq!(mounted.run_command("cmake /src").exit_code, 0);
        assert_eq!(mounted.run_command("make").exit_code, 2);
        // So does one that is no file name at all (the worker used to
        // panic on both).
        mounted.fs.insert(lists, &b"add_executable(..)"[..]).unwrap();
        assert_eq!(mounted.run_command("cmake /src").exit_code, 0);
        assert_eq!(mounted.run_command("make").exit_code, 2);

        let report = c.destroy();
        let refusals: Vec<&str> = report.lines().map(|l| l.text).collect();
        assert_eq!(refusals.len(), 3, "{refusals:?}");
        assert!(refusals[..2].iter().all(|l| {
            l.starts_with("cp: cannot create '/build/a") && l.ends_with("': File name too long")
        }));
        assert_eq!(refusals[2], "cp: cannot create '/build/../main.cu': Invalid argument");
        assert_eq!(report.build_dir.paths().collect::<Vec<_>>(), [fits]);
        let log = owned_log(mounted.destroy());
        assert!(log[0].text.starts_with("mount: /src not mounted: invalid path"), "{:?}", log[0]);
        let links: Vec<&str> =
            log.iter().map(|l| l.text.as_str()).filter(|l| l.contains("/usr/bin/ld")).collect();
        assert_eq!(links.len(), 2, "{links:?}");
        assert!(links[0].starts_with("/usr/bin/ld: cannot open output file a"));
        assert_eq!(links[1], "/usr/bin/ld: cannot open output file ..");
    }

    #[test]
    fn a_full_filesystem_fails_the_write_with_a_stderr_line() {
        use rai_archive::tree::{MAX_ENTRIES, MAX_TREE_BYTES};
        let stderr_of = |c: Container| -> Vec<String> {
            let log = owned_log(c.destroy());
            log.into_iter().filter(|l| l.stream == LogStream::Stderr).map(|l| l.text).collect()
        };
        // Each `cp -r /build /build/dN` doubles `/build` for free (the
        // copies share their bytes) until the entry bound stops it.
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        let mut script = vec!["cp -r /src /build/s".to_string()];
        script.extend((0..17).map(|n| format!("cp -r /build /build/d{n}")));
        let codes: Vec<i32> = script.iter().map(|cmd| c.run_command(cmd).exit_code).collect();
        let refused =
            codes.iter().position(|&code| code != 0).expect("the bound stops the doubling");
        assert!(codes[..refused].iter().all(|&code| code == 0));
        assert!(codes[refused..].iter().all(|&code| code == 1), "{codes:?}");
        assert!((MAX_ENTRIES / 2..=MAX_ENTRIES).contains(&c.fs.len()), "{} files", c.fs.len());
        let lines = stderr_of(c);
        assert_eq!(lines.len(), codes.len() - refused);
        assert_eq!(
            lines[0],
            format!("cp: cannot create '/build/d{}': No space left on device", refused - 1)
        );

        // Shared bytes count once per path: a big file doubled runs
        // into the byte bound long before the entry bound.
        let big = gpu_project().with("big.bin", vec![7u8; 8 << 20]);
        let mut c = make_container(&big, ResourceLimits::default());
        let codes: Vec<i32> = script.iter().map(|cmd| c.run_command(cmd).exit_code).collect();
        assert!(codes.contains(&1), "{codes:?}");
        assert!(c.fs.total_size() <= MAX_TREE_BYTES && c.fs.len() < 64, "{} files", c.fs.len());
        assert!(stderr_of(c)[0].ends_with("': No space left on device"));

        // A tree holding its last file: every command that would add
        // one says so and exits 1; the worker is none the wiser.
        let fill = |c: &mut Container| {
            let mut i = 0;
            while c.fs.insert(Resolved::Root(&format!("build/f{i}")), &b"x"[..]).is_ok() {
                i += 1;
            }
            assert_eq!(c.fs.len(), MAX_ENTRIES);
        };
        let mut full = make_container(&gpu_project(), ResourceLimits::default());
        fill(&mut full);
        let mut linked = make_container(&gpu_project(), ResourceLimits::default());
        linked.run_script(["cmake /src"]);
        fill(&mut linked);
        let mut profiled = make_container(&gpu_project(), ResourceLimits::default());
        profiled.run_script(["cmake /src", "make"]);
        fill(&mut profiled);
        for cmd in ["cmake /src", "cp /src/main.cu /build/x", "cp -r /src /build/y"] {
            assert_eq!(full.run_command(cmd).exit_code, 1, "{cmd}");
        }
        assert_eq!(linked.run_command("make").exit_code, 1);
        let nvprof = "nvprof --export-profile t.nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5";
        assert_eq!(profiled.run_command(nvprof).exit_code, 1);
        assert_eq!(
            stderr_of(full),
            [
                "cmake: cannot write 'Makefile': No space left on device",
                "cp: cannot create '/build/x': No space left on device",
                "cp: cannot create '/build/y': No space left on device",
            ]
        );
        assert_eq!(
            stderr_of(linked),
            ["/usr/bin/ld: cannot write 'ece408': No space left on device"]
        );
        assert_eq!(
            stderr_of(profiled).last().map(String::as_str),
            Some("nvprof: cannot write 't.nvprof': No space left on device")
        );
    }

    #[test]
    fn wrappers_nest_to_a_bounded_depth() {
        let run = |wrappers: usize| {
            let mut c = make_container(&gpu_project(), ResourceLimits::default());
            let r = c.run_command(&format!("{}true", "time ".repeat(wrappers)));
            (r.exit_code, owned_log(c.destroy()))
        };
        let (code, log) = run(16);
        assert_eq!(code, 0);
        assert_eq!(log.iter().filter(|l| l.text.contains("elapsed")).count(), 16);
        let (code, log) = run(17);
        assert_eq!(code, 2);
        assert!(log.iter().any(|l| {
            l.stream == LogStream::Stderr && l.text == "sh: true: wrapper nesting too deep"
        }));
    }

    #[test]
    fn a_hundred_thousand_wrappers_fail_the_command_not_the_thread() {
        // One level of interpreter recursion per wrapper word: without
        // the depth cap this overflows the stack, and an overflow is an
        // abort — no `join` would see it. 2 MiB is a worker thread's
        // stack; 4 000 `time ` words (20 KB) were enough.
        for wrapper in ["time ", "/usr/bin/time ", "nvprof ", "nvprof --export-profile p time "] {
            let cmd = format!("{}true", wrapper.repeat(100_000));
            let job = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let mut c = make_container(&gpu_project(), ResourceLimits::default());
                    c.run_script([cmd.as_str(), "echo never-runs"]);
                    c.destroy()
                })
                .expect("spawn");
            let report = job.join().expect("the interpreter thread survives");
            assert_eq!(report.status, ContainerStatus::Exited(2), "{wrapper}");
            // `nvprof` echoes the command line it wraps — 700 KB here,
            // at each of 16 levels — so its refusal comes after the
            // output cap; `time` prints nothing on the way down.
            let said_why = report.lines().any(|l| l.text.ends_with("wrapper nesting too deep"));
            let truncated = report.lines().last().is_some_and(|l| l.text == "… output truncated");
            assert!(said_why || (truncated && wrapper.starts_with("nvprof")), "{wrapper}");
            let kept: usize = report.lines().map(|l| l.text.len()).sum();
            assert!(kept <= MAX_OUTPUT_BYTES, "{wrapper}: {kept} bytes of log");
            assert!(!report.lines().any(|l| l.text == "never-runs"));
        }
    }

    #[test]
    fn command_chains_short_circuit() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        // A chained student build file: one line, full pipeline.
        let r = c.run_command("cmake /src && make && ./ece408 /data/test10.hdf5 /data/model.hdf5");
        assert_eq!(r.exit_code, 0);
        // Failure in the middle stops the chain.
        let r = c.run_command("grep never-there /src/main.cu && echo never-runs");
        assert_eq!(r.exit_code, 1);
        let report = c.destroy();
        assert!(report.lines().any(|l| l.text.contains("elapsed =")));
        assert!(!report.lines().any(|l| l.text == "never-runs"));
    }

    #[test]
    fn grep_prints_matching_lines_and_exits_1_on_none() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        assert_eq!(c.run_command("grep global /src/main.cu").exit_code, 0);
        let report = c.destroy();
        assert_eq!(report.lines().map(|l| l.text).collect::<Vec<_>>(), ["__global__ void forward() {}"]);
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        assert_eq!(c.run_command("grep nonexistent-needle /src/main.cu").exit_code, 1);
    }

    #[test]
    fn warnings_do_not_fail_build() {
        let tree = FileTree::new()
            .with("CMakeLists.txt", &b"add_executable(ece408 main.cu)"[..])
            .with(
                "main.cu",
                &b"// RAI_WARNING unused var\n// rai:perf mode=gpu full_ms=500 acc=0.9 mem_mb=100\n"[..],
            );
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["cmake /src", "make"]);
        let report = c.destroy();
        assert!(report.success());
        assert!(report.lines().any(|l| l.text.contains("warning:")));
    }

    #[test]
    fn make_over_thousands_of_marked_sources_takes_linear_time() {
        // 4 000 one-line sources, each marked: every `make` names each
        // in a warning. Looking a marked source's path up by walking
        // the tree again made one `make` ≈ 8M steps here, and a build
        // file may repeat `make` until the container's lifetime ends.
        const SOURCES: usize = 4_000;
        const MAKES: usize = 40;
        let mut tree =
            FileTree::new().with("CMakeLists.txt", &b"add_executable(ece408 k0.cu)"[..]);
        for i in 0..SOURCES {
            tree.insert(format!("k{i}.cu"), &b"RAI_WARNING\n"[..]).unwrap();
        }
        let mut c = make_container(&tree, ResourceLimits::default());
        assert_eq!(c.run_command("cmake /src").exit_code, 0);
        let started = std::time::Instant::now();
        for _ in 0..MAKES {
            assert_eq!(c.run_command("make").exit_code, 0);
        }
        let elapsed = started.elapsed();
        let report = c.destroy();
        const WARNING: &str = "(1): warning: variable declared but never referenced";
        // The first `make`'s warnings fit under the output cap; the
        // rest of the makes run past it.
        assert!(report.lines().filter(|l| l.text.ends_with(WARNING)).count() >= SOURCES);
        assert!(report.lines().any(|l| l.text == ["/src/k3999.cu", WARNING].concat()));
        assert_eq!(report.lines().last().map(|l| l.text), Some("… output truncated"));
        assert!(elapsed < std::time::Duration::from_secs(2), "{MAKES} makes took {elapsed:?}");
    }

    #[test]
    fn output_past_the_cap_is_cut_at_a_char_boundary_and_said_so_once() {
        // 39 lines of 16 KiB fit; the 40th, 24 000 bytes of three-byte
        // characters, crosses 640 KiB one byte into a character.
        let big = "x".repeat(16 * 1024 - 1) + "\n";
        let wide = "漢".repeat(8_000);
        let text = big.repeat(39) + &wide + "\nnever logged\n";
        let tree = gpu_project().with("big.txt", text.into_bytes()).with("under.txt", big.repeat(39));
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["cat /src/big.txt", "cat /src/big.txt", "echo after"]);
        let report = c.destroy();
        assert!(report.success(), "truncation is not a failure: {:?}", report.status);
        let log = owned_log(report);
        let (last, kept) = log.split_last().unwrap();
        assert_eq!((last.stream, last.text.as_str()), (LogStream::Stderr, TRUNCATED));
        let (cut, whole) = kept.split_last().unwrap();
        assert_eq!(whole.len(), 39);
        assert!(whole.iter().all(|l| l.text.len() == big.len() - 1));
        // The crossing line keeps the most whole characters that fit
        // with the note: one more byte would fit, one more character not.
        assert_eq!(cut.stream, LogStream::Stdout);
        assert!(!cut.text.is_empty() && wide.starts_with(&cut.text), "{} bytes", cut.text.len());
        let charged: usize = log.iter().map(|l| l.text.len() + LINE_OVERHEAD).sum();
        assert_eq!(MAX_OUTPUT_BYTES - charged, 1, "{charged} bytes charged");

        // A job under the cap is untouched, to the line.
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["cat /src/under.txt", "echo after"]);
        let report = c.destroy();
        assert_eq!(report.output.len(), 40);
        assert_eq!(report.lines().nth(39).unwrap().text, "after");
    }

    #[test]
    fn time_dilation_inflates_measured_runtime() {
        let run = |dilation: f64| {
            let mut c = make_container(&gpu_project(), ResourceLimits::default());
            c.set_time_dilation(dilation);
            c.run_script(["cmake /src", "make", "./ece408 /data/testfull.hdf5 /data/model.hdf5"]);
            c.destroy().internal_timer_secs().unwrap()
        };
        let clean = run(1.0);
        let contended = run(1.5);
        assert!(contended > clean * 1.4, "clean={clean} contended={contended}");
        // Dilation below 1.0 clamps (no speedup from contention).
        let clamped = run(0.5);
        assert!((clamped - clean).abs() < 1e-9);
    }

    #[test]
    fn missing_dataset_file_errors() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        c.run_script(["cmake /src", "make", "./ece408 /data/nonexistent.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        assert!(!report.success());
        assert!(report
            .lines()
            .any(|l| l.text.contains("unable to open dataset")));
    }
}
