//! Container lifecycle: create from an image, mount volumes, run the
//! build script, collect the execution report, destroy.

use crate::exec::{execute, CmdResult};
use crate::image::Image;
use crate::limits::{ResourceLimits, MEMORY_BYTES};
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
    /// The `/build` directory contents (uploaded to the file server).
    pub build_dir: FileTree,
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
/// the rest of the output, never the job: see `Container::log`.
pub const MAX_OUTPUT_BYTES: usize = 640 * 1024;

/// What a line is charged beyond its text, so that a flood of empty
/// lines is bounded too: the five bytes that frame it on the log topic.
const LINE_OVERHEAD: usize = 5;

/// A running (simulated) container.
pub struct Container {
    /// The merged filesystem: image rootfs + mounted volumes + workdir.
    pub fs: FileTree,
    /// Resource limits in force.
    pub(crate) limits: ResourceLimits,
    workdir: String,
    status: ContainerStatus,
    log: Vec<LogLine>,
    /// Bytes charged against [`MAX_OUTPUT_BYTES`] so far.
    logged: usize,
    elapsed: SimDuration,
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
            workdir: "build".to_string(),
            status: ContainerStatus::Created,
            log: Vec::new(),
            logged: 0,
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

    /// Multiplier applied to program runtimes: the time dilation alone
    /// (every host runs at the paper's K80 speed).
    pub(crate) fn program_time_scale(&self) -> f64 {
        self.time_dilation
    }

    /// Mount a read-only volume at an absolute path (e.g. `/src`). A
    /// volume with a file whose path under the mount point would pass
    /// [`rai_archive::tree::MAX_PATH_BYTES`] is not mounted; the log
    /// says so and the commands run without it.
    pub fn mount(&mut self, path: &str, tree: &FileTree) {
        if let Err(e) = self.fs.mount(path.trim_start_matches('/'), tree) {
            self.log(LogStream::Stderr, format!("mount: {path} not mounted: {e}"));
        }
    }

    /// The working directory (normalized, no leading slash).
    pub(crate) fn workdir(&self) -> &str {
        &self.workdir
    }

    /// Resolve a command-line path against the container filesystem:
    /// absolute paths strip the leading `/`; `./x` and bare names are
    /// relative to the working directory. An absolute path resolves to
    /// a slice of itself.
    pub(crate) fn resolve_path<'a>(&self, arg: &'a str) -> Cow<'a, str> {
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
    pub(crate) fn log(&mut self, stream: LogStream, text: String) {
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
        ExecutionReport { status: self.status, log: self.log, elapsed: self.elapsed, build_dir }
    }

    /// Snapshot of the log so far (interactive sessions stream output
    /// incrementally instead of waiting for `destroy`).
    pub fn log_snapshot(&self) -> Vec<LogLine> {
        self.log.clone()
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
        let mut c =
            make_container(&gpu_project(), ResourceLimits { gpus: 0, ..Default::default() });
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
        assert!(mounted.fs.subtree("src").is_empty());
        mounted.fs.insert("src/CMakeLists.txt", format!("add_executable({long})")).unwrap();
        mounted.fs.insert("src/main.cu", &b"int main(){}"[..]).unwrap();
        assert_eq!(mounted.run_command("cmake /src").exit_code, 0);
        assert_eq!(mounted.run_command("make").exit_code, 2);
        // So does one that is no file name at all (the worker used to
        // panic on both).
        mounted.fs.insert("src/CMakeLists.txt", &b"add_executable(..)"[..]).unwrap();
        assert_eq!(mounted.run_command("cmake /src").exit_code, 0);
        assert_eq!(mounted.run_command("make").exit_code, 2);

        let report = c.destroy();
        let refusals: Vec<&str> = report.log.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(refusals.len(), 3, "{refusals:?}");
        assert!(refusals[..2].iter().all(|l| {
            l.starts_with("cp: cannot create '/build/a") && l.ends_with("': File name too long")
        }));
        assert_eq!(refusals[2], "cp: cannot create '/build/../main.cu': Invalid argument");
        assert_eq!(report.build_dir.paths().collect::<Vec<_>>(), [fits]);
        let log = mounted.destroy().log;
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
            let log = c.destroy().log;
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
            while c.fs.insert(&format!("build/f{i}"), &b"x"[..]).is_ok() {
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
