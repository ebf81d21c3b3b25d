//! Interactive sessions — the paper's future work, implemented.
//!
//! §VIII: "Future work of RAI includes allowing instructors to
//! configure interactive sessions to enable more debugging and
//! profiling tools." An interactive session keeps one container alive
//! across commands (instead of one container per job), with a longer
//! lifetime than a job's — which is why sessions are gated on
//! instructor authorization.

use rai_archive::FileTree;
use rai_sandbox::{Container, ContainerStatus, ImageRegistry, LogLine, ResourceLimits};
use rai_sim::SimDuration;
use std::collections::HashSet;
use std::sync::Arc;

/// The image every session runs (the whitelist still applies).
const SESSION_IMAGE: &str = "webgpu/rai:root";

/// Total lifetime cap of a session (longer than the 1-hour job cap).
const SESSION_LIFETIME: SimDuration = SimDuration::from_hours(8);

/// Why a session could not be opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Caller is not an authorized instructor.
    NotAuthorized,
    /// Image rejected by the whitelist.
    Image(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NotAuthorized => {
                write!(f, "interactive sessions require instructor authorization")
            }
            SessionError::Image(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Output of one interactive command.
#[derive(Clone, Debug)]
pub struct ExecOutput {
    /// Exit code.
    pub exit_code: i32,
    /// Lines produced by this command only.
    pub lines: Vec<LogLine>,
}

/// A live interactive session.
pub struct InteractiveSession {
    container: Container,
    log_watermark: usize,
    closed: bool,
}

/// Grants and opens sessions. Holds the set of instructor access keys.
#[derive(Clone, Default)]
pub(crate) struct SessionBroker {
    instructors: HashSet<String>,
    images: Arc<ImageRegistry>,
}

impl SessionBroker {
    /// A broker over an image registry.
    pub(crate) fn new(images: Arc<ImageRegistry>) -> Self {
        SessionBroker {
            instructors: HashSet::new(),
            images,
        }
    }

    /// Authorize an access key for interactive sessions.
    pub(crate) fn grant(&mut self, access_key: &str) {
        self.instructors.insert(access_key.to_string());
    }

    /// Whether a key may open sessions.
    pub(crate) fn is_instructor(&self, access_key: &str) -> bool {
        self.instructors.contains(access_key)
    }

    /// Open a session: whitelist-checked image, one persistent
    /// container, `/src` mounted from `project`.
    pub(crate) fn open(
        &self,
        access_key: &str,
        project: &FileTree,
    ) -> Result<InteractiveSession, SessionError> {
        if !self.is_instructor(access_key) {
            return Err(SessionError::NotAuthorized);
        }
        let image =
            self.images.resolve(SESSION_IMAGE).map_err(|e| SessionError::Image(e.to_string()))?;
        let limits = ResourceLimits::default().with_max_lifetime(SESSION_LIFETIME);
        let mut container = Container::create(image, limits);
        container.mount("/src", project);
        Ok(InteractiveSession { container, log_watermark: 0, closed: false })
    }
}

impl InteractiveSession {
    /// Execute one command in the persistent container. State (files
    /// under `/build`, the generated Makefile, compiled binaries)
    /// persists across calls — the property batch jobs lack.
    pub fn exec(&mut self, cmd: &str) -> ExecOutput {
        if self.closed {
            return ExecOutput { exit_code: 130, lines: vec![] };
        }
        let result = self.container.run_command(cmd);
        // Snapshot only the lines this command appended.
        let report_so_far = self.container_log();
        let lines = report_so_far[self.log_watermark..].to_vec();
        self.log_watermark = report_so_far.len();
        if matches!(self.container.status(), ContainerStatus::Killed(_)) {
            self.closed = true;
        }
        ExecOutput { exit_code: result.exit_code, lines }
    }

    fn container_log(&self) -> Vec<LogLine> {
        // Container exposes its log only via destroy(); mirror by
        // cloning here through a cheap accessor.
        self.container.log_snapshot()
    }

    /// Close the session, returning the `/build` directory (uploaded to
    /// the file server by the caller, like a job's output).
    pub fn close(mut self) -> FileTree {
        self.closed = true;
        let report = self.container.destroy();
        report.build_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ProjectDir;

    fn broker_with_instructor() -> (SessionBroker, &'static str) {
        let mut b = SessionBroker::new(Arc::new(ImageRegistry::course_default()));
        b.grant("prof-key");
        (b, "prof-key")
    }

    #[test]
    fn students_cannot_open_sessions() {
        let (broker, _) = broker_with_instructor();
        match broker.open("student-key", &FileTree::new()) {
            Err(e) => assert_eq!(e, SessionError::NotAuthorized),
            Ok(_) => panic!("students must not open sessions"),
        }
    }

    #[test]
    fn state_persists_across_commands() {
        let (broker, key) = broker_with_instructor();
        let project = ProjectDir::sample_cuda_project();
        let mut session = broker.open(key, &project.tree).unwrap();
        assert_eq!(session.exec("cmake /src").exit_code, 0);
        // `make` sees the Makefile cmake generated earlier — persistent state.
        assert_eq!(session.exec("make").exit_code, 0);
        let run = session.exec("./ece408 /data/test10.hdf5 /data/model.hdf5");
        assert_eq!(run.exit_code, 0);
        assert!(run.lines.iter().any(|l| l.text.contains("elapsed =")));
        // Each exec reports only its own lines.
        assert!(!run.lines.iter().any(|l| l.text.contains("Configuring")));
        let build = session.close();
        assert!(build.contains("ece408"));
    }

    #[test]
    fn session_dies_on_lifetime_and_refuses_more() {
        let (broker, key) = broker_with_instructor();
        let mut session = broker.open(key, &FileTree::new()).unwrap();
        let out = session.exec(&format!("sleep {}", SESSION_LIFETIME.as_secs() + 1));
        assert_eq!(out.exit_code, 137);
        assert_eq!(session.exec("echo zombie").exit_code, 130);
    }
}
