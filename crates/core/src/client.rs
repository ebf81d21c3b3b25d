//! The RAI client (paper §V "Client Execution").
//!
//! The client performs the paper's eight steps: ① check the project
//! directory and its `rai-build.yml` (falling back to the Listing 1
//! default), ② verify credentials, ③ compress the directory to
//! `.tar.bz2` and upload it to the file server, ④ push a job request
//! onto the queue, ⑤ subscribe to the `log_${job_id}` topic, ⑥ print
//! messages until `End`, ⑦ (submissions) let the server record
//! execution time and team, ⑧ exit on `End`.

use crate::delta::{DeltaUploader, PreparedUpload};
use crate::protocol::{decode_block, routes, JobKind, JobRequest, LogFrame};
use crate::spec::{BuildSpec, SpecError, DEFAULT_BUILD_YML, FINAL_SUBMISSION_YML};
use rai_archive::{write_container, FileTree};
use rai_auth::{sign_request, Credentials};
use rai_broker::{Broker, PublishError, RecvError, Subscription};
use rai_db::{doc, Database};
use rai_store::{ObjectStore, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bucket the client uploads packed projects to.
pub const UPLOAD_BUCKET: &str = "rai-uploads";
/// Bounded attempts the client makes against a transiently unavailable
/// file server or broker before surfacing the error to the student.
const CLIENT_RETRY_ATTEMPTS: u32 = 4;
/// Bucket workers upload `/build` outputs to.
pub const BUILD_BUCKET: &str = "rai-builds";

/// Development run vs final submission: the client's name for the
/// [`JobKind`] it puts in the request.
pub type SubmitMode = JobKind;

/// A student project directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProjectDir {
    /// The files.
    pub tree: FileTree,
}

impl ProjectDir {
    /// Wrap an existing tree.
    pub fn new(tree: FileTree) -> Self {
        ProjectDir { tree }
    }

    /// The project's `rai-build.yml`, if present.
    pub fn build_yml(&self) -> Option<String> {
        self.tree
            .get("rai-build.yml")
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// A plausible CUDA project with the given performance directive —
    /// the knob the workload models turn per team.
    pub fn cuda_project_with_perf(full_ms: f64, accuracy: f64, mem_mb: u64) -> Self {
        let main_cu = format!(
            "// ECE408 final project — convolutional forward pass\n\
             // rai:perf mode=gpu full_ms={full_ms} acc={accuracy} mem_mb={mem_mb}\n\
             #include <cmath>\n\
             __global__ void conv_forward_kernel(float* y, const float* x, const float* k) {{\n\
                 const int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
                 y[i] = x[i] * k[0];\n\
             }}\n\
             int main(int argc, char** argv) {{ return 0; }}\n"
        );
        let tree = FileTree::new()
            .with("rai-build.yml", DEFAULT_BUILD_YML.as_bytes().to_vec())
            .with(
                "CMakeLists.txt",
                &b"cmake_minimum_required(VERSION 3.0)\nproject(ece408)\nadd_executable(ece408 main.cu)\n"[..],
            )
            .with("main.cu", main_cu.into_bytes());
        ProjectDir { tree }
    }

    /// The quickstart sample: a healthy GPU implementation.
    pub fn sample_cuda_project() -> Self {
        Self::cuda_project_with_perf(470.0, 0.93, 2048)
    }

    /// The provided serial baseline (~30 minutes on the full dataset).
    pub fn baseline_cpu_project() -> Self {
        let tree = FileTree::new()
            .with("rai-build.yml", DEFAULT_BUILD_YML.as_bytes().to_vec())
            .with(
                "CMakeLists.txt",
                &b"cmake_minimum_required(VERSION 3.0)\nadd_executable(ece408 main.cpp)\n"[..],
            )
            .with(
                "main.cpp",
                &b"// provided serial CPU baseline (no perf directive)\nint main() { return 0; }\n"[..],
            );
        ProjectDir { tree }
    }

    /// Switch the project's build file to benchmark on the *full*
    /// dataset — what students do "in the last week of the course …
    /// performing benchmarks and sensitive profiling" (§VII), and what
    /// makes early serial-baseline runs take ~30 minutes.
    pub fn with_full_dataset_build(mut self) -> Self {
        let yml = self
            .build_yml()
            .unwrap_or_else(|| DEFAULT_BUILD_YML.to_string())
            .replace("test10.hdf5", "testfull.hdf5");
        self.tree
            .insert("rai-build.yml", yml.into_bytes())
            .expect("static path");
        self
    }

    /// Add the final-submission artifacts (USAGE and report.pdf).
    pub fn with_final_artifacts(mut self) -> Self {
        self.tree
            .insert(
                "USAGE",
                &b"Run `rai -p . submit`; profile results referenced in report section 3.\n"[..],
            )
            .expect("static path");
        self.tree
            .insert("report.pdf", &b"%PDF-1.4\n% 8-page project report\n"[..])
            .expect("static path");
        self
    }
}

/// Submit-time failures.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// Project tree was empty.
    EmptyProject,
    /// The build file failed to parse/validate.
    Spec(SpecError),
    /// A required final-submission file is absent.
    MissingRequiredFile(&'static str),
    /// Per-user rate limit hit.
    RateLimited {
        /// Seconds until the next attempt is allowed.
        retry_after_secs: u64,
    },
    /// File-server upload failed.
    Upload(String),
    /// Queue publish failed (back-pressure).
    Publish(String),
    /// No `End` frame arrived in time.
    Timeout,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::EmptyProject => write!(f, "project directory is empty"),
            SubmitError::Spec(e) => write!(f, "{e}"),
            SubmitError::MissingRequiredFile(name) => {
                write!(f, "final submission requires {name} in the project directory")
            }
            SubmitError::RateLimited { retry_after_secs } => {
                write!(f, "rate limited: retry in {retry_after_secs}s")
            }
            SubmitError::Upload(e) => write!(f, "upload failed: {e}"),
            SubmitError::Publish(e) => write!(f, "queue publish failed: {e}"),
            SubmitError::Timeout => write!(f, "timed out waiting for job completion"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<SpecError> for SubmitError {
    fn from(e: SpecError) -> Self {
        SubmitError::Spec(e)
    }
}

impl From<StoreError> for SubmitError {
    fn from(e: StoreError) -> Self {
        SubmitError::Upload(e.to_string())
    }
}

impl From<PublishError> for SubmitError {
    fn from(e: PublishError) -> Self {
        SubmitError::Publish(e.to_string())
    }
}

/// Completed-job receipt, assembled from the log stream.
#[derive(Clone, Debug)]
pub struct SubmitReceipt {
    /// Job id.
    pub job_id: u64,
    /// Whether the job succeeded end-to-end.
    pub success: bool,
    /// Rendered log lines, in order (what the student saw).
    pub log: Vec<String>,
    /// Key of the uploaded `/build` archive on the file server.
    pub build_url: Option<String>,
    /// The program's self-reported runtime (the student-visible timer).
    pub internal_timer_secs: Option<f64>,
}

/// A job in flight: hold it and drain frames until `End`.
pub struct PendingJob {
    /// Job id.
    pub job_id: u64,
    subscription: Subscription,
}

impl PendingJob {
    /// Drain frames until `End` or `timeout` of wall-clock inactivity:
    /// one receive and one ack per message, each a block of frames
    /// rendered in order.
    pub fn wait(self, timeout: Duration) -> Result<SubmitReceipt, SubmitError> {
        let mut log = Vec::new();
        let mut build_url = None;
        let mut internal = None;
        loop {
            let msg = match self.subscription.recv_timeout(timeout) {
                Ok(m) => m,
                Err(RecvError::Timeout) | Err(RecvError::Closed) => return Err(SubmitError::Timeout),
            };
            self.subscription.ack(msg.id);
            for frame in decode_block(&msg.body_str()) {
                match frame {
                    LogFrame::Out(line) => {
                        if let Some(rest) = line.split("elapsed = ").nth(1) {
                            if let Some(v) = rest.split_whitespace().next() {
                                internal = v.parse().ok().or(internal);
                            }
                        }
                        log.push(line);
                    }
                    LogFrame::Err(line) => log.push(format!("[stderr] {line}")),
                    LogFrame::Status(line) => log.push(format!("[rai] {line}")),
                    LogFrame::BuildUrl(url) => build_url = Some(url),
                    LogFrame::End { success } => {
                        return Ok(SubmitReceipt {
                            job_id: self.job_id,
                            success,
                            log,
                            build_url,
                            internal_timer_secs: internal,
                        })
                    }
                }
            }
        }
    }
}

/// The student-side client.
pub struct RaiClient {
    creds: Credentials,
    team: String,
    broker: Broker,
    store: ObjectStore,
    next_job_id: Arc<AtomicU64>,
    /// Durable deployments journal a submission intent here before
    /// publishing, so a crash between "accepted" and "queued" is
    /// recoverable (DESIGN.md §14).
    intents: Option<Database>,
}

impl RaiClient {
    /// A client for `creds`, submitting on behalf of `team`.
    pub fn new(
        creds: Credentials,
        team: &str,
        broker: Broker,
        store: ObjectStore,
        next_job_id: Arc<AtomicU64>,
    ) -> Self {
        RaiClient {
            creds,
            team: team.to_string(),
            broker,
            store,
            next_job_id,
            intents: None,
        }
    }

    /// Journal submission intents to `db`'s `intents` collection (and
    /// through its write-ahead log) before publishing. Only meaningful
    /// when `db` has a WAL attached.
    pub fn with_intent_ledger(mut self, db: Database) -> Self {
        self.intents = Some(db);
        self
    }

    /// The credentials in use.
    pub fn credentials(&self) -> &Credentials {
        &self.creds
    }

    /// The team this client submits for.
    pub fn team(&self) -> &str {
        &self.team
    }

    /// Resolve the effective build file for a submission: students'
    /// files for runs; the enforced Listing 2 file for final
    /// submissions; the Listing 1 default when no file exists.
    pub fn effective_build_yml(project: &ProjectDir, mode: SubmitMode) -> Result<String, SubmitError> {
        let text = match mode {
            SubmitMode::Submit => FINAL_SUBMISSION_YML.to_string(),
            SubmitMode::Run => project
                .build_yml()
                .unwrap_or_else(|| DEFAULT_BUILD_YML.to_string()),
        };
        // Validate before shipping: cheap client-side feedback.
        BuildSpec::parse(&text)?;
        Ok(text)
    }

    /// Steps ①–⑤: package, upload, enqueue, subscribe. Returns the
    /// pending job to wait on.
    pub fn begin_submit(&self, project: &ProjectDir, mode: SubmitMode) -> Result<PendingJob, SubmitError> {
        // ① Project and build-file checks.
        if project.tree.is_empty() {
            return Err(SubmitError::EmptyProject);
        }
        if mode == SubmitMode::Submit {
            // "The submission required the presence of the USAGE … and
            // report.pdf" (paper §V).
            for required in ["USAGE", "report.pdf"] {
                if !project.tree.contains(required) {
                    return Err(SubmitError::MissingRequiredFile(match required {
                        "USAGE" => "USAGE",
                        _ => "report.pdf",
                    }));
                }
            }
        }
        let build_yml = Self::effective_build_yml(project, mode)?;

        // ② Credential sanity (full verification happens worker-side).
        debug_assert!(!self.creds.access_key.is_empty() && !self.creds.secret_key.is_empty());

        // ③ Package and delta-upload the project directory: the tree
        // is serialized to the archive container and shipped as a
        // chunk manifest, so a resubmission uploads only the chunks
        // the file server does not already hold (DESIGN.md §10).
        let job_id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        let prepared = PreparedUpload::prepare(write_container(&project.tree));
        let upload_key = format!("{}/{job_id:08x}.tar.bz2", self.team.replace(' ', "-"));
        // A transient file-server outage surfaces to the student as a
        // long upload, not a failed submission: retry a few times
        // before giving up. The container was chunked once, above; a
        // retry only repeats the store conversation.
        let mut attempts = 0;
        loop {
            attempts += 1;
            match DeltaUploader::new().upload_prepared(
                &self.store,
                UPLOAD_BUCKET,
                &upload_key,
                &prepared,
                [
                    ("team", self.team.as_str()),
                    ("kind", mode.upload_tag()),
                ],
            ) {
                Ok(_) => break,
                Err(StoreError::Unavailable) if attempts < CLIENT_RETRY_ATTEMPTS => continue,
                Err(e) => return Err(e.into()),
            }
        }

        // ④ Create and push the signed job request.
        let mut request = JobRequest {
            job_id,
            access_key: self.creds.access_key.clone(),
            signature: String::new(),
            team: self.team.clone(),
            upload_bucket: UPLOAD_BUCKET.to_string(),
            upload_key,
            build_yml,
            kind: mode,
        };
        request.signature = sign_request(
            &self.creds.secret_key,
            &self.creds.access_key,
            &request.signing_payload(),
        );
        let encoded = request.encode();

        // Durability point: journal the accepted submission *before*
        // publishing and force it to stable storage. If the process
        // dies with the request queued (or about to be), recovery
        // finds the intent, sees no terminal submissions row, and
        // re-publishes — zero lost submissions (DESIGN.md §14).
        if let Some(db) = &self.intents {
            db.collection("intents").write().insert_one(doc! {
                "job_id" => job_id as i64,
                "team" => self.team.as_str(),
                "state" => "pending",
                "req" => encoded.as_str(),
            });
            db.sync_wal();
        }
        let mut attempts = 0;
        let published = loop {
            attempts += 1;
            match self.broker.publish(routes::TASK_TOPIC, encoded.clone()) {
                Ok(_) => break Ok(()),
                Err(PublishError::Unavailable { .. }) if attempts < CLIENT_RETRY_ATTEMPTS => {
                    continue
                }
                Err(e) => break Err(e),
            }
        };
        if let Some(db) = &self.intents {
            // "rejected" intents surfaced an error to the student and
            // are never re-published; "published" ones are in the
            // at-least-once pipeline.
            let state = if published.is_ok() { "published" } else { "rejected" };
            db.collection("intents").write().update_one(
                &doc! { "job_id" => job_id as i64 },
                &doc! { "$set" => doc! { "state" => state } },
                false,
            );
        }
        published?;

        // ⑤ Subscribe to the ephemeral log topic. (The topic backlog
        // holds any frames the worker emitted before we got here.)
        let subscription = self
            .broker
            .subscribe_ephemeral(&routes::log_topic(job_id), routes::LOG_CHANNEL);
        Ok(PendingJob {
            job_id,
            subscription,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_build_yml_per_mode() {
        let p = ProjectDir::sample_cuda_project();
        // One enum under both names.
        let _: JobKind = SubmitMode::Run;
        let run = RaiClient::effective_build_yml(&p, SubmitMode::Run).unwrap();
        assert!(run.contains("test10.hdf5"), "dev runs use the student's file");
        let fin = RaiClient::effective_build_yml(&p, SubmitMode::Submit).unwrap();
        assert!(fin.contains("testfull.hdf5"), "finals use the enforced file");
        assert!(fin.contains("submission_code"));
    }

    #[test]
    fn default_used_when_no_build_file() {
        let mut p = ProjectDir::sample_cuda_project();
        p.tree.remove("rai-build.yml");
        let run = RaiClient::effective_build_yml(&p, SubmitMode::Run).unwrap();
        assert_eq!(run, DEFAULT_BUILD_YML);
    }

    #[test]
    fn invalid_student_build_file_rejected_client_side() {
        let mut p = ProjectDir::sample_cuda_project();
        p.tree
            .insert("rai-build.yml", &b"rai:\n  version: 99.0\n  image: x\ncommands:\n  build:\n    - make\n"[..])
            .unwrap();
        assert!(matches!(
            RaiClient::effective_build_yml(&p, SubmitMode::Run),
            Err(SubmitError::Spec(SpecError::UnsupportedVersion(_)))
        ));
        // Final submissions ignore the student's (broken) file entirely.
        assert!(RaiClient::effective_build_yml(&p, SubmitMode::Submit).is_ok());
    }

    #[test]
    fn final_artifacts_helper() {
        let p = ProjectDir::sample_cuda_project().with_final_artifacts();
        assert!(p.tree.contains("USAGE"));
        assert!(p.tree.contains("report.pdf"));
    }

    #[test]
    fn sample_projects_have_expected_shape() {
        let gpu = ProjectDir::sample_cuda_project();
        assert!(gpu.build_yml().unwrap().contains("webgpu/rai:root"));
        assert!(gpu.tree.contains("CMakeLists.txt"));
        let cpu = ProjectDir::baseline_cpu_project();
        let src = cpu.tree.get("main.cpp").unwrap();
        assert!(!String::from_utf8_lossy(src).contains("rai:perf"));
    }
}
