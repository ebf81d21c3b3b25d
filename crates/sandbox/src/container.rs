//! Container lifecycle: create from an image, mount volumes, run the
//! build script, collect the execution report, destroy.

use crate::exec::{execute, CmdResult};
use crate::image::Image;
use crate::limits::ResourceLimits;
use rai_archive::FileTree;
use rai_sim::SimDuration;
use std::borrow::Cow;

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

/// One line of container output, as forwarded to the log topic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogLine {
    /// stdout or stderr.
    pub stream: LogStream,
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

/// What the worker ships back after the container is destroyed.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Final status.
    pub status: ContainerStatus,
    /// All output lines in order.
    pub log: Vec<LogLine>,
    /// Total simulated wall-clock consumed.
    pub elapsed: SimDuration,
    /// Peak resident memory observed.
    pub peak_memory: u64,
    /// The `/build` directory contents (uploaded to the file server).
    pub build_dir: FileTree,
    /// Per-command durations, in order (instructors' timing view).
    pub command_durations: Vec<SimDuration>,
}

impl ExecutionReport {
    /// Whether every command succeeded.
    pub fn success(&self) -> bool {
        matches!(self.status, ContainerStatus::Exited(0))
    }

    /// The program-reported elapsed time ("elapsed = X.XXX s"), i.e. the
    /// *internal timer* students see; `None` if no program ran.
    pub fn internal_timer_secs(&self) -> Option<f64> {
        self.log.iter().rev().find_map(|l| {
            let rest = l.text.split("elapsed = ").nth(1)?;
            rest.split_whitespace().next()?.parse().ok()
        })
    }
}

/// What one job may log: 640 KiB, the per-job share of the paper's
/// 25 GB of logs over ≈ 40 000 submissions. Output is a resource like
/// memory and lifetime — a job's lines are held here, copied into one
/// log message, kept by the broker until the client drains it and
/// summed into the submissions row — but running over it costs only
/// the rest of the output, never the job: see [`Container::log`].
pub const MAX_OUTPUT_BYTES: usize = 640 * 1024;

/// What a line is charged beyond its text, so that a flood of empty
/// lines is bounded too: the five bytes that frame it on the log topic.
const LINE_OVERHEAD: usize = 5;

/// A running (simulated) container.
pub struct Container {
    /// The merged filesystem: image rootfs + mounted volumes + workdir.
    pub fs: FileTree,
    /// Resource limits in force.
    pub limits: ResourceLimits,
    image_name: String,
    workdir: String,
    status: ContainerStatus,
    log: Vec<LogLine>,
    /// Bytes charged against [`MAX_OUTPUT_BYTES`] so far.
    logged: usize,
    elapsed: SimDuration,
    peak_memory: u64,
    command_durations: Vec<SimDuration>,
    gpu_speed: f64,
    time_dilation: f64,
}

impl Container {
    /// Create a container from a base image. The worker then mounts
    /// `/src` (the student's project) and uses `/build` as the working
    /// directory, per the paper.
    pub fn create(image: &Image, limits: ResourceLimits) -> Self {
        Container {
            fs: image.rootfs.clone(),
            limits,
            image_name: image.name.clone(),
            workdir: "build".to_string(),
            status: ContainerStatus::Created,
            log: Vec::new(),
            logged: 0,
            elapsed: SimDuration::ZERO,
            peak_memory: 0,
            command_durations: Vec::new(),
            gpu_speed: 1.0,
            time_dilation: 1.0,
        }
    }

    /// Relative GPU throughput of the host (1.0 = the paper's K80
    /// baseline; the early G2/K40 fleet is slower). Scales GPU-mode
    /// program runtimes.
    pub fn set_gpu_speed(&mut self, speed: f64) {
        self.gpu_speed = speed.max(0.01);
    }

    /// Host-side time dilation (>1.0 = contention from co-scheduled
    /// jobs). Models why the staff switched workers to one job at a
    /// time during the benchmarking weeks.
    pub fn set_time_dilation(&mut self, dilation: f64) {
        self.time_dilation = dilation.max(1.0);
    }

    /// Effective multiplier applied to GPU program runtimes.
    pub(crate) fn program_time_scale(&self, gpu: bool) -> f64 {
        let base = if gpu { 1.0 / self.gpu_speed } else { 1.0 };
        base * self.time_dilation
    }

    /// Mount a read-only volume at an absolute path (e.g. `/src`).
    pub fn mount(&mut self, path: &str, tree: &FileTree) {
        self.fs
            .mount(path.trim_start_matches('/'), tree)
            .expect("mount path is valid");
    }

    /// The working directory (normalized, no leading slash).
    pub fn workdir(&self) -> &str {
        &self.workdir
    }

    /// The image this container was started from.
    pub fn image_name(&self) -> &str {
        &self.image_name
    }

    /// Resolve a command-line path against the container filesystem:
    /// absolute paths strip the leading `/`; `./x` and bare names are
    /// relative to the working directory. An absolute path resolves to
    /// a slice of itself.
    pub fn resolve_path<'a>(&self, arg: &'a str) -> Cow<'a, str> {
        match arg.strip_prefix('/') {
            Some(abs) => Cow::Borrowed(abs),
            None => {
                let rel = arg.strip_prefix("./").unwrap_or(arg);
                Cow::Owned(self.in_workdir(rel))
            }
        }
    }

    /// `name` under the working directory, as a filesystem path. One
    /// exact allocation (`format!` sizes a path this short at zero and
    /// grows it twice).
    pub(crate) fn in_workdir(&self, name: &str) -> String {
        [self.workdir.as_str(), "/", name].concat()
    }

    /// Append a log line. The line that takes the job past
    /// [`MAX_OUTPUT_BYTES`] is replaced by one stderr line saying so,
    /// and every later one is dropped; the commands keep running and
    /// exit as they would have.
    pub fn log(&mut self, stream: LogStream, text: String) {
        if self.logged > MAX_OUTPUT_BYTES {
            return;
        }
        self.logged += text.len() + LINE_OVERHEAD;
        self.log.push(if self.logged > MAX_OUTPUT_BYTES {
            LogLine { stream: LogStream::Stderr, text: "… output truncated".to_string() }
        } else {
            LogLine { stream, text }
        });
    }

    /// Charge a command's resource use against the limits. Returns the
    /// kill reason if a limit is tripped.
    pub(crate) fn charge(&mut self, duration: SimDuration, memory: u64) -> Option<KillReason> {
        self.peak_memory = self.peak_memory.max(memory);
        if memory > self.limits.memory_bytes {
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
        if let ContainerStatus::Killed(_) = self.status {
            return CmdResult {
                exit_code: 137,
                duration: SimDuration::ZERO,
                killed: match self.status {
                    ContainerStatus::Killed(r) => Some(r),
                    _ => None,
                },
            };
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
        self.command_durations.push(result.duration);
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
    /// container's /build directory").
    pub fn destroy(self) -> ExecutionReport {
        let build_dir = self.fs.subtree(&self.workdir);
        ExecutionReport {
            status: self.status,
            log: self.log,
            elapsed: self.elapsed,
            peak_memory: self.peak_memory,
            build_dir,
            command_durations: self.command_durations,
        }
    }

    /// Snapshot of the log so far (interactive sessions stream output
    /// incrementally instead of waiting for `destroy`).
    pub fn log_snapshot(&self) -> Vec<LogLine> {
        self.log.clone()
    }

    /// Elapsed simulated time so far.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
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
        assert!(report.success(), "log: {:#?}", report.log);
        // echo landed in the log.
        assert!(report.log.iter().any(|l| l.text == "Building project"));
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
        assert!(report.success(), "log: {:#?}", report.log);
        // Source snapshot captured for the graders.
        assert!(report.build_dir.contains("submission_code/main.cu"));
        // Internal timer ≈ 470ms + 35ms setup.
        let secs = report.internal_timer_secs().unwrap();
        assert!((secs - 0.505).abs() < 0.01, "got {secs}");
        // /usr/bin/time reported to stderr for the instructors.
        assert!(report
            .log
            .iter()
            .any(|l| l.stream == LogStream::Stderr && l.text.contains("elapsed")));
    }

    #[test]
    fn cpu_baseline_takes_half_hour_on_full_dataset() {
        let tree = project("no directive here");
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["cmake /src", "make", "./ece408 /data/testfull.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        assert!(report.success(), "log: {:#?}", report.log);
        let secs = report.internal_timer_secs().unwrap();
        assert!((1_790.0..=1_810.0).contains(&secs), "~30 min, got {secs}");
    }

    #[test]
    fn gpu_program_without_gpu_fails() {
        let mut c = make_container(&gpu_project(), ResourceLimits::cpu_only());
        c.run_script(["cmake /src", "make", "./ece408 /data/test10.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        assert!(!report.success());
        assert!(report
            .log
            .iter()
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
        assert!(report.log.iter().any(|l| l.text.contains("error:")));
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
        assert!(report.log.iter().any(|l| l.text.contains("CMakeLists.txt")));
    }

    #[test]
    fn oom_kill() {
        let tree = project("rai:perf mode=gpu full_ms=100 acc=0.9 mem_mb=9000");
        let mut c = make_container(&tree, ResourceLimits::default()); // 8 GB cap
        c.run_script(["cmake /src", "make", "./ece408 /data/test10.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        assert_eq!(report.status, ContainerStatus::Killed(KillReason::OutOfMemory));
        assert!(report.log.iter().any(|l| l.text == "Killed"));
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
        assert!(!report.log.iter().any(|l| l.text == "should-not-run"));
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
            .log
            .iter()
            .any(|l| l.text.contains("network access is disabled")));
    }

    #[test]
    fn network_enabled_session_allows_tools() {
        let mut c = make_container(
            &gpu_project(),
            ResourceLimits::default().with_network(true),
        );
        assert_eq!(c.run_command("curl http://example.com").exit_code, 0);
    }

    #[test]
    fn unknown_command_is_127() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        let r = c.run_command("frobnicate --all");
        assert_eq!(r.exit_code, 127);
    }

    #[test]
    fn misc_shell_commands() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        c.run_script([
            "cmake /src",
            "make",
            "ls /build",
            "cat /src/CMakeLists.txt",
            "rm /build/Makefile",
        ]);
        let report = c.destroy();
        assert!(report.success(), "log: {:#?}", report.log);
        assert!(report.log.iter().any(|l| l.text.contains("ece408")));
        assert!(report.log.iter().any(|l| l.text.contains("add_executable")));
        assert!(!report.build_dir.contains("Makefile"));
    }

    #[test]
    fn rm_takes_recursion_from_flags_not_from_operand_spelling() {
        // `mirror` has an `r` in it and `copy` does not; neither is a
        // flag, so a plain `rm` refuses both directories alike.
        for dir in ["mirror", "copy"] {
            let mut c = make_container(&gpu_project(), ResourceLimits::default());
            assert_eq!(c.run_command(&format!("cp -r /src /build/{dir}")).exit_code, 0);
            assert_eq!(c.run_command(&format!("rm {dir}")).exit_code, 1);
            assert!(c.fs.contains(&format!("build/{dir}/main.cu")), "rm {dir} kept the directory");
            assert_eq!(c.run_command(&format!("rm -f {dir}/main.cu")).exit_code, 0, "files need no -r");
            let report = c.destroy();
            assert!(report.log.iter().any(|l| l.text.contains(&format!("cannot remove '/build/{dir}'"))));
        }
        for flag in ["-r", "-R", "-rf", "-fr"] {
            let mut c = make_container(&gpu_project(), ResourceLimits::default());
            c.run_command("cp -r /src /build/copy");
            assert_eq!(c.run_command(&format!("rm {flag} copy")).exit_code, 0, "rm {flag}");
            assert!(c.fs.subtree("build/copy").is_empty());
        }
    }

    #[test]
    fn wrappers_nest_to_a_bounded_depth() {
        let run = |wrappers: usize| {
            let mut c = make_container(&gpu_project(), ResourceLimits::default());
            let r = c.run_command(&format!("{}true", "time ".repeat(wrappers)));
            (r.exit_code, c.destroy().log)
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
            let said_why = report.log.iter().any(|l| l.text.ends_with("wrapper nesting too deep"));
            let truncated = report.log.last().is_some_and(|l| l.text == "… output truncated");
            assert!(said_why || (truncated && wrapper.starts_with("nvprof")), "{wrapper}");
            let kept: usize = report.log.iter().map(|l| l.text.len()).sum();
            assert!(kept <= MAX_OUTPUT_BYTES, "{wrapper}: {kept} bytes of log");
            assert!(!report.log.iter().any(|l| l.text == "never-runs"));
        }
    }

    #[test]
    fn command_chains_short_circuit() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        // A chained student build file: one line, full pipeline.
        let r = c.run_command("cmake /src && make && ./ece408 /data/test10.hdf5 /data/model.hdf5");
        assert_eq!(r.exit_code, 0);
        // Failure in the middle stops the chain.
        let r = c.run_command("false && echo never-runs");
        assert_eq!(r.exit_code, 1);
        let report = c.destroy();
        assert!(report.log.iter().any(|l| l.text.contains("elapsed =")));
        assert!(!report.log.iter().any(|l| l.text == "never-runs"));
    }

    #[test]
    fn text_tools() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        c.run_script([
            "grep global /src/main.cu",
            "head -n 1 /src/main.cu",
            "wc -l /src/main.cu",
            "pwd",
            "env",
        ]);
        let report = c.destroy();
        assert!(report.success(), "log: {:#?}", report.log);
        assert!(report.log.iter().any(|l| l.text.contains("__global__")));
        assert!(report.log.iter().any(|l| l.text == "/build"));
        assert!(report.log.iter().any(|l| l.text.starts_with("PATH=")));
        // grep with no match exits 1.
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
        assert!(report.log.iter().any(|l| l.text.contains("warning:")));
    }

    #[test]
    fn output_past_the_cap_is_dropped_and_said_so_once() {
        // 16 KiB lines: the 40th is the one that would cross 640 KiB.
        let big = "x".repeat(16 * 1024 - 1) + "\n";
        let tree = gpu_project().with("big.txt", big.repeat(64).into_bytes());
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["cat /src/big.txt", "cat /src/big.txt", "echo after"]);
        let report = c.destroy();
        assert!(report.success(), "truncation is not a failure: {:?}", report.status);
        assert_eq!(report.command_durations.len(), 3, "every command still ran");
        let (last, kept) = report.log.split_last().unwrap();
        assert_eq!((last.stream, last.text.as_str()), (LogStream::Stderr, "… output truncated"));
        assert_eq!(kept.len(), 39);
        let charged: usize = kept.iter().map(|l| l.text.len() + LINE_OVERHEAD).sum();
        assert!(charged <= MAX_OUTPUT_BYTES && charged + big.len() + LINE_OVERHEAD > MAX_OUTPUT_BYTES);

        // A job under the cap is untouched, to the line.
        let mut c = make_container(&tree, ResourceLimits::default());
        c.run_script(["head -n 39 /src/big.txt", "echo after"]);
        let report = c.destroy();
        assert_eq!(report.log.len(), 40);
        assert_eq!(report.log[39].text, "after");
    }

    #[test]
    fn per_command_durations_recorded() {
        let mut c = make_container(&gpu_project(), ResourceLimits::default());
        c.run_script(["echo hi", "cmake /src", "make"]);
        let report = c.destroy();
        assert_eq!(report.command_durations.len(), 3);
        assert!(report.command_durations[2] > report.command_durations[0]);
        assert_eq!(
            report.elapsed,
            report
                .command_durations
                .iter()
                .fold(SimDuration::ZERO, |a, &d| a + d)
        );
    }

    #[test]
    fn gpu_speed_scales_gpu_runtime_only() {
        // Same program on a K40-class host (0.6× K80) runs ~1.67× longer.
        let run = |speed: f64| {
            let mut c = make_container(&gpu_project(), ResourceLimits::default());
            c.set_gpu_speed(speed);
            c.run_script(["cmake /src", "make", "./ece408 /data/testfull.hdf5 /data/model.hdf5"]);
            c.destroy().internal_timer_secs().unwrap()
        };
        let k80 = run(1.0);
        let k40 = run(0.6);
        assert!((k40 / k80 - 1.0 / 0.6).abs() < 0.01, "k80={k80} k40={k40}");
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
            .log
            .iter()
            .any(|l| l.text.contains("unable to open dataset")));
    }
}
