//! Property tests for the container runtime: arbitrary student input —
//! command lines, build scripts, file contents — must never panic the
//! worker, never escape the filesystem sandbox, and always respect the
//! resource limits.

use proptest::prelude::*;
use rai_archive::FileTree;
use rai_sandbox::exec::{shell_words, split_chain};
use rai_sandbox::{Container, ContainerStatus, ImageRegistry, ResourceLimits};

fn container() -> Container {
    let reg = ImageRegistry::course_default();
    let image = reg.resolve("webgpu/rai:root").expect("whitelisted");
    Container::create(image, ResourceLimits::default())
}

/// Structure-aware mutation: `cmd` under `depth` wrapper words. Each
/// wrapper is one level of interpreter recursion, and a stack overflow
/// is an abort, not a panic — a flat 80-character draw never gets deep
/// enough to find one.
fn wrap(cmd: &str, depth: usize, kind: u8) -> String {
    let wrapper = match kind % 4 {
        0 => "time ",
        1 => "/usr/bin/time ",
        2 => "nvprof ",
        _ => "nvprof --export-profile p.nvprof time ",
    };
    format!("{}{cmd}", wrapper.repeat(depth))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_command_lines_never_panic(
        cmd in "[ -~\\t\\n\u{a0}é漢🦀]{0,80}",
        depth in 0usize..6000,
        kind in any::<u8>(),
    ) {
        let mut c = container();
        let _ = c.run_command(&cmd);
        let _ = c.run_command(&wrap(&cmd, depth, kind));
    }

    #[test]
    fn arbitrary_scripts_terminate_with_a_status(
        cmds in prop::collection::vec("[ -~]{0,40}", 0..8)
    ) {
        let mut c = container();
        c.run_script(cmds.iter().map(String::as_str));
        let report = c.destroy();
        // Whatever happened, we got a definite status and a bounded
        // lifetime.
        prop_assert!(matches!(
            report.status,
            ContainerStatus::Created | ContainerStatus::Exited(_) | ContainerStatus::Killed(_)
        ));
        prop_assert!(report.elapsed <= ResourceLimits::default().max_lifetime);
    }

    #[test]
    fn shell_words_round_trip_simple_tokens(
        tokens in prop::collection::vec("[a-zA-Z0-9_./-]{1,10}", 1..6)
    ) {
        let line = tokens.join(" ");
        prop_assert_eq!(shell_words(&line), tokens);
    }

    #[test]
    fn shell_words_never_panics(line in "[ -~\\t\\n\u{a0}é漢🦀]{0,120}") {
        let _ = shell_words(&line);
        let _ = split_chain(&line).count();
    }

    #[test]
    fn mounted_files_cannot_escape_the_tree(
        name in "[a-z]{1,8}",
        data in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Whatever a project contains, it lands under /src and path
        // traversal components are rejected at the FileTree layer.
        let mut tree = FileTree::new();
        tree.insert(&name, data).expect("simple name is valid");
        prop_assert!(tree.insert("../escape", b"x".to_vec()).is_err());
        prop_assert!(tree.insert("a/../../b", b"x".to_vec()).is_err());
        let mut c = container();
        c.mount("/src", &tree);
        let mounted_path = format!("src/{name}");
        prop_assert!(c.fs.contains(&mounted_path));
    }

    #[test]
    fn memory_limit_always_enforced(mem_mb in 1u64..20_000) {
        let tree = FileTree::new()
            .with("CMakeLists.txt", &b"add_executable(ece408 main.cu)"[..])
            .with(
                "main.cu",
                format!("// rai:perf mode=gpu full_ms=10 acc=0.9 mem_mb={mem_mb}\n").into_bytes(),
            );
        let mut c = container();
        c.mount("/src", &tree);
        c.run_script(["cmake /src", "make", "./ece408 /data/test10.hdf5 /data/model.hdf5"]);
        let report = c.destroy();
        let limit = ResourceLimits::default().memory_bytes;
        if mem_mb * 1024 * 1024 > limit {
            prop_assert!(matches!(report.status, ContainerStatus::Killed(_)), "{mem_mb}MB should OOM");
        } else {
            prop_assert!(report.success(), "{mem_mb}MB fits under the cap");
        }
    }
}
