//! The command-line surface of the RAI client.
//!
//! The paper's client is "an interactive command line tool used for
//! project job submissions" with subcommands (`rai`, `rai submit`,
//! ranking checks) and a `-p` project-path flag. This module parses
//! that argv surface and renders the outputs; the examples and the
//! facade binary drive it against an in-process deployment.

use crate::client::{ProjectDir, SubmitMode, SubmitReceipt};
use crate::commands;
use crate::system::RaiSystem;
use rai_auth::Credentials;
use rai_archive::FileTree;

/// A parsed client invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliCommand {
    /// `rai [-p <dir>]` — development run.
    Run {
        /// Project directory (defaults to `.`).
        path: String,
    },
    /// `rai submit [-p <dir>]` — final submission.
    Submit {
        /// Project directory (defaults to `.`).
        path: String,
    },
    /// `rai rankings` — show the leaderboard.
    Rankings,
    /// `rai history [-n <limit>]` — show the team's submissions.
    History {
        /// Maximum rows.
        limit: usize,
    },
    /// `rai version` — the build information students paste into bug
    /// reports.
    Version,
    /// `rai help`.
    Help,
}

/// Argv parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rai: {}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
usage: rai [subcommand] [flags]
  rai [-p <dir>]           submit a development run of the project at <dir>
  rai submit [-p <dir>]    make the final competition submission
  rai rankings             show the (anonymized) leaderboard
  rai history [-n <N>]     show your team's last N submissions
  rai version              print client build information
  rai help                 this text
";

impl CliCommand {
    /// Parse an argv slice (without the program name).
    pub fn parse(args: &[&str]) -> Result<CliCommand, CliError> {
        fn take_flag<'a>(args: &[&'a str], flag: &str) -> Result<(Option<&'a str>, Vec<&'a str>), CliError> {
            let mut value = None;
            let mut rest = Vec::new();
            let mut i = 0;
            while i < args.len() {
                if args[i] == flag {
                    value = Some(
                        *args
                            .get(i + 1)
                            .ok_or_else(|| CliError(format!("{flag} requires a value")))?,
                    );
                    i += 2;
                } else {
                    rest.push(args[i]);
                    i += 1;
                }
            }
            Ok((value, rest))
        }

        let (path, rest) = take_flag(args, "-p")?;
        let path = path.unwrap_or(".").to_string();
        match rest.as_slice() {
            [] => Ok(CliCommand::Run { path }),
            ["submit"] => Ok(CliCommand::Submit { path }),
            ["rankings"] | ["ranking"] => Ok(CliCommand::Rankings),
            ["history"] => Ok(CliCommand::History { limit: 10 }),
            ["history", "-n", n] => n
                .parse()
                .map(|limit| CliCommand::History { limit })
                .map_err(|_| CliError(format!("invalid history limit {n:?}"))),
            ["version"] => Ok(CliCommand::Version),
            ["help"] | ["--help"] | ["-h"] => Ok(CliCommand::Help),
            other => Err(CliError(format!(
                "unknown arguments {:?}; try `rai help`",
                other.join(" ")
            ))),
        }
    }
}

/// Version string compiled into this client (see `delivery` for the
/// cross-compile matrix that stamps real commits).
pub(crate) fn version_string() -> String {
    format!(
        "rai client (reproduction) version {} spec-version {}",
        env!("CARGO_PKG_VERSION"),
        crate::spec::SUPPORTED_VERSION
    )
}

/// Execute a parsed command against a deployment on behalf of `creds`,
/// loading project directories through `load` (tests inject in-memory
/// trees; the facade binary uses `FileTree::from_disk`). Returns the
/// text the client prints.
pub fn execute(
    system: &mut RaiSystem,
    creds: &Credentials,
    command: &CliCommand,
    load: impl Fn(&str) -> Result<FileTree, String>,
) -> String {
    let run = |system: &mut RaiSystem, path: &str, mode: SubmitMode| -> String {
        let tree = match load(path) {
            Ok(t) => t,
            Err(e) => return format!("rai: cannot read project at {path:?}: {e}\n"),
        };
        let project = ProjectDir::new(tree);
        let result = match mode {
            SubmitMode::Run => system.submit(creds, &project),
            SubmitMode::Submit => system.submit_final(creds, &project),
        };
        match result {
            Ok(receipt) => render_receipt(&receipt),
            Err(e) => format!("rai: {e}\n"),
        }
    };
    match command {
        CliCommand::Run { path } => run(system, path, SubmitMode::Run),
        CliCommand::Submit { path } => run(system, path, SubmitMode::Submit),
        CliCommand::Rankings => commands::rankings(&system.rankings(), &creds.user_name),
        CliCommand::History { limit } => commands::history_text(system.db(), &creds.user_name, *limit),
        CliCommand::Version => format!("{}\n", version_string()),
        CliCommand::Help => USAGE.to_string(),
    }
}

fn render_receipt(receipt: &SubmitReceipt) -> String {
    let mut out = String::new();
    for line in &receipt.log {
        out.push_str(line);
        out.push('\n');
    }
    if let Some(url) = &receipt.build_url {
        out.push_str(&format!("build output: {url}\n"));
    }
    out.push_str(if receipt.success {
        "job succeeded\n"
    } else {
        "job FAILED\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    #[test]
    fn parse_surface() {
        assert_eq!(CliCommand::parse(&[]), Ok(CliCommand::Run { path: ".".into() }));
        assert_eq!(
            CliCommand::parse(&["-p", "proj"]),
            Ok(CliCommand::Run { path: "proj".into() })
        );
        assert_eq!(
            CliCommand::parse(&["submit", "-p", "proj"]),
            Ok(CliCommand::Submit { path: "proj".into() })
        );
        assert_eq!(
            CliCommand::parse(&["-p", "proj", "submit"]),
            Ok(CliCommand::Submit { path: "proj".into() })
        );
        assert_eq!(CliCommand::parse(&["rankings"]), Ok(CliCommand::Rankings));
        assert_eq!(
            CliCommand::parse(&["history"]),
            Ok(CliCommand::History { limit: 10 })
        );
        assert_eq!(
            CliCommand::parse(&["history", "-n", "3"]),
            Ok(CliCommand::History { limit: 3 })
        );
        assert_eq!(CliCommand::parse(&["version"]), Ok(CliCommand::Version));
        assert_eq!(CliCommand::parse(&["help"]), Ok(CliCommand::Help));
        assert!(CliCommand::parse(&["-p"]).is_err());
        assert!(CliCommand::parse(&["frobnicate"]).is_err());
        assert!(CliCommand::parse(&["history", "-n", "lots"]).is_err());
    }

    #[test]
    fn execute_run_and_queries() {
        let mut system = RaiSystem::new(SystemConfig {
            rate_limit: None,
            ..Default::default()
        });
        let creds = system.register_team("cli-team", &[]);
        let project = ProjectDir::sample_cuda_project();
        let load = |path: &str| -> Result<FileTree, String> {
            if path == "proj" {
                Ok(project.tree.clone())
            } else {
                Err("no such directory".to_string())
            }
        };

        let out = execute(&mut system, &creds, &CliCommand::Run { path: "proj".into() }, load);
        assert!(out.contains("Building project"), "{out}");
        assert!(out.contains("job succeeded"));
        assert!(out.contains("build output:"));

        let out = execute(&mut system, &creds, &CliCommand::History { limit: 5 }, load);
        assert!(out.contains("run"), "{out}");

        let out = execute(&mut system, &creds, &CliCommand::Rankings, load);
        assert!(out.contains("no final submissions"), "{out}");

        let out = execute(
            &mut system,
            &creds,
            &CliCommand::Run { path: "missing".into() },
            load,
        );
        assert!(out.contains("cannot read project"), "{out}");

        let out = execute(&mut system, &creds, &CliCommand::Version, load);
        assert!(out.contains("rai client"));
        assert!(execute(&mut system, &creds, &CliCommand::Help, load).contains("usage:"));
    }

    #[test]
    fn execute_submit_reports_missing_artifacts() {
        let mut system = RaiSystem::new(SystemConfig {
            rate_limit: None,
            ..Default::default()
        });
        let creds = system.register_team("cli-team", &[]);
        let tree = ProjectDir::sample_cuda_project().tree;
        let load = move |_: &str| Ok(tree.clone());
        let out = execute(&mut system, &creds, &CliCommand::Submit { path: ".".into() }, &load);
        assert!(out.contains("USAGE"), "{out}");
    }
}
