//! A demonstration `rai` client driving an in-process deployment.
//!
//! Because this reproduction has no remote infrastructure, the binary
//! stands up a deployment, registers a demo team, and then executes the
//! given client subcommand against it — loading real project
//! directories from disk via `-p`:
//!
//! ```text
//! cargo run --release --bin rai-demo -- help
//! cargo run --release --bin rai-demo -- version
//! cargo run --release --bin rai-demo -- -p /path/to/project
//! cargo run --release --bin rai-demo -- submit -p /path/to/project
//! ```
//!
//! Without `-p` pointing at a real directory, a bundled sample CUDA
//! project is used, so `cargo run --bin rai-demo` works out of the box.

use rai::archive::FileTree;
use rai::core::cli::{execute, CliCommand, USAGE};
use rai::core::client::ProjectDir;
use rai::core::system::{RaiSystem, SystemConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let command = match CliCommand::parse(&arg_refs) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    let mut system = RaiSystem::new(SystemConfig::default());
    let creds = system.register_team("demo-team", &["you"]);

    let load = |path: &str| -> Result<FileTree, String> {
        if path == "." && !std::path::Path::new("rai-build.yml").exists() {
            // No project in cwd: fall back to the bundled sample.
            return Ok(ProjectDir::sample_cuda_project().with_final_artifacts().tree);
        }
        FileTree::from_disk(std::path::Path::new(path)).map_err(|e| e.to_string())
    };

    let output = execute(&mut system, &creds, &command, load);
    print!("{output}");
}
