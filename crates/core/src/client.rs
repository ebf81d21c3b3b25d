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
use crate::protocol::{block_lines, routes, FrameLine, JobKind, JobRequest, Tag};
use crate::spec::{
    BuildSpec, SpecError, DEFAULT_BUILD_YML, FINAL_SUBMISSION_FILES, FINAL_SUBMISSION_YML,
};
use rai_archive::digits::hex;
use rai_archive::FileTree;
use rai_auth::{Credentials, HmacKey};
use rai_broker::{Broker, Bytes, PublishError, Subscription};
use rai_db::{doc, Database};
use rai_store::{ObjectStore, StoreError};
use std::borrow::Cow;
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

/// Write the object key a job of `team` stores under:
/// `{team}/{job_id:08x}{suffix}`, the team's spaces written as dashes.
/// The one derivation of both keys a job names: the client stores a
/// job's upload under it with suffix `.tar.bz2` ([`upload_key`]), the
/// worker runs a job only from that key ([`is_upload_key`]) and stores
/// its `/build` under suffix `-build.tar.bz2` ([`build_key`]).
fn write_job_key(
    out: &mut impl std::fmt::Write,
    team: &str,
    job_id: u64,
    suffix: &str,
) -> std::fmt::Result {
    let mut words = team.split(' ');
    out.write_str(words.next().unwrap_or_default())?;
    for word in words {
        out.write_str("-")?;
        out.write_str(word)?;
    }
    out.write_str("/")?;
    out.write_str(hex(job_id, 8).as_str())?;
    out.write_str(suffix)
}

/// The key `team`'s job `job_id` is stored under with `suffix`.
fn job_key(team: &str, job_id: u64, suffix: &str) -> String {
    // `/`, at least eight hex digits and the suffix.
    let mut key = String::with_capacity(team.len() + 9 + suffix.len());
    write_job_key(&mut key, team, job_id, suffix).expect("writing to a String cannot fail");
    key
}

/// The object key the client uploads job `job_id` of `team` under.
fn upload_key(team: &str, job_id: u64) -> String {
    job_key(team, job_id, UPLOAD_SUFFIX)
}

/// The object key the worker uploads the `/build` of job `job_id` of
/// `team` under.
pub(crate) fn build_key(team: &str, job_id: u64) -> String {
    job_key(team, job_id, "-build.tar.bz2")
}

/// What follows the job id in an upload's key.
const UPLOAD_SUFFIX: &str = ".tar.bz2";

/// Whether `key` is the object key of `team`'s upload for job `job_id`,
/// compared as the key is written, without building it.
pub(crate) fn is_upload_key(key: &str, team: &str, job_id: u64) -> bool {
    /// A writer that takes what is written off the front of the key.
    struct Expect<'k>(&'k str);
    impl std::fmt::Write for Expect<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(std::fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Expect(key);
    write_job_key(&mut rest, team, job_id, UPLOAD_SUFFIX).is_ok() && rest.0.is_empty()
}

/// Development run vs final submission: the client's name for the
/// [`JobKind`] it puts in the request.
pub type SubmitMode = JobKind;

/// A student project directory.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectDir {
    /// The files.
    pub tree: FileTree,
}

impl ProjectDir {
    /// Wrap an existing tree.
    pub(crate) fn new(tree: FileTree) -> Self {
        ProjectDir { tree }
    }

    /// The project's `rai-build.yml`, if present.
    pub(crate) fn build_yml(&self) -> Option<String> {
        self.tree
            .get("rai-build.yml")
            .map(|b| rai_archive::text(b).into_owned())
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
#[derive(Debug)]
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
#[derive(Debug)]
pub struct SubmitReceipt {
    /// Job id.
    pub job_id: u64,
    /// Whether the job succeeded end-to-end.
    pub success: bool,
    /// The log, line by line (what the student saw).
    pub log: Transcript,
    /// Key of the uploaded `/build` archive on the file server.
    pub build_url: Option<String>,
    /// The program's self-reported runtime (the student-visible timer).
    pub internal_timer_secs: Option<f64>,
}

/// A job's log as the student sees it, kept as the blocks its messages
/// carried and rendered into lines only when read (DESIGN.md §11
/// "Output path"): stdout text as it stands, stderr as `[stderr] …`,
/// worker notes as `[rai] …`; the build URL and `End` are not lines,
/// and nothing after `End` is. A frame with an unknown tag is stdout,
/// an escaped frame reads unescaped, and a body that is not UTF-8 reads
/// lossily. `Debug` prints the lines.
pub struct Transcript {
    blocks: Vec<Bytes>,
    lines: usize,
}

impl Transcript {
    /// How many lines the log has.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// Whether the log has no line.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// The lines, in order: borrowed from the blocks unless a line is
    /// tagged (`[stderr]`, `[rai]`), escaped or not UTF-8.
    pub fn iter(&self) -> Lines<'_> {
        Lines { blocks: self.blocks.iter(), frames: Frames(None) }
    }
}

impl std::fmt::Debug for Transcript {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'t> IntoIterator for &'t Transcript {
    type Item = Cow<'t, str>;
    type IntoIter = Lines<'t>;

    fn into_iter(self) -> Lines<'t> {
        self.iter()
    }
}

/// The lines of a [`Transcript`].
pub struct Lines<'t> {
    blocks: std::slice::Iter<'t, Bytes>,
    frames: Frames<'t>,
}

impl<'t> Iterator for Lines<'t> {
    type Item = Cow<'t, str>;

    fn next(&mut self) -> Option<Cow<'t, str>> {
        loop {
            let Some(line) = self.frames.next() else {
                self.frames = Frames::new(self.blocks.next()?);
                continue;
            };
            // A line break is never part of a character, so each line
            // reads as it did in the whole body, lossily if need be.
            let line = match std::str::from_utf8(line) {
                Ok(line) => render(FrameLine::read(line)),
                Err(_) => {
                    let line = String::from_utf8_lossy(line);
                    render(FrameLine::read(&line)).map(|l| Cow::Owned(l.into_owned()))
                }
            };
            match line {
                Rendered::Line(line) => return Some(line),
                Rendered::Url => {}
                Rendered::End => {
                    (self.blocks, self.frames) = ([].iter(), Frames(None));
                    return None;
                }
            }
        }
    }
}

/// The frame lines of a block body, in order; an empty body has none.
struct Frames<'b>(Option<&'b [u8]>);

impl<'b> Frames<'b> {
    fn new(body: &'b [u8]) -> Self {
        Frames((!body.is_empty()).then_some(body))
    }
}

impl<'b> Iterator for Frames<'b> {
    type Item = &'b [u8];

    fn next(&mut self) -> Option<&'b [u8]> {
        let body = self.0?;
        let (line, rest) = match body.iter().position(|&b| b == b'\n') {
            Some(at) => (&body[..at], Some(&body[at + 1..])),
            None => (body, None),
        };
        self.0 = rest;
        Some(line)
    }
}

/// A frame as the transcript shows it.
enum Rendered<'l> {
    Line(Cow<'l, str>),
    Url,
    End,
}

impl<'l> Rendered<'l> {
    fn map(self, f: impl FnOnce(Cow<'l, str>) -> Cow<'static, str>) -> Rendered<'static> {
        match self {
            Rendered::Line(line) => Rendered::Line(f(line)),
            Rendered::Url => Rendered::Url,
            Rendered::End => Rendered::End,
        }
    }
}

fn render(frame: FrameLine<'_>) -> Rendered<'_> {
    Rendered::Line(match frame.tag {
        Tag::Out => frame.text(),
        Tag::Err => Cow::Owned(format!("[stderr] {}", frame.text())),
        Tag::Status => Cow::Owned(format!("[rai] {}", frame.text())),
        Tag::BuildUrl => return Rendered::Url,
        Tag::End => return Rendered::End,
    })
}

/// A job in flight: hold it and drain frames until `End`.
pub struct PendingJob {
    /// Job id.
    pub job_id: u64,
    subscription: Subscription,
}

impl PendingJob {
    /// Drain frames until `End` or `timeout` of wall-clock inactivity:
    /// one receive and one ack per message. Each block is kept as it
    /// arrived and read once in place, for its line count, the build
    /// URL, the internal timer and `End`; no line is rendered.
    pub fn wait(self, timeout: Duration) -> Result<SubmitReceipt, SubmitError> {
        // A job is three or four messages (DESIGN.md §11).
        let mut log = Transcript { blocks: Vec::with_capacity(4), lines: 0 };
        let (mut build_url, mut internal) = (None, None);
        loop {
            let Some(msg) = self.subscription.recv_timeout(timeout) else {
                return Err(SubmitError::Timeout);
            };
            self.subscription.ack(msg.id);
            let body = msg.body_str();
            let end = block_lines(&body).find_map(|line| {
                let frame = FrameLine::read(line);
                match frame.tag {
                    Tag::Out => {
                        log.lines += 1;
                        // The timer is read from the unescaped text. Most
                        // lines hold no `=`, which a loop over their few
                        // bytes rules out sooner than a searcher.
                        if frame.raw.bytes().any(|b| b == b'=') {
                            internal = rai_sandbox::exec::internal_timer(&frame.text()).or(internal);
                        }
                    }
                    Tag::Err | Tag::Status => log.lines += 1,
                    Tag::BuildUrl => build_url = Some(frame.text().into_owned()),
                    Tag::End => return Some(frame.raw == "ok"),
                }
                None
            });
            drop(body);
            log.blocks.push(msg.body);
            if let Some(success) = end {
                return Ok(SubmitReceipt {
                    job_id: self.job_id,
                    success,
                    log,
                    build_url,
                    internal_timer_secs: internal,
                });
            }
        }
    }
}

/// The student-side client.
pub struct RaiClient {
    creds: Credentials,
    /// The secret key, scheduled once for every request this client
    /// signs.
    key: HmacKey,
    team: String,
    broker: Broker,
    store: ObjectStore,
    next_job_id: Arc<AtomicU64>,
    /// Durable deployments journal each accepted submission here as
    /// one `{job_id, req}` intent before publishing, so a crash
    /// between "accepted" and "queued" is recoverable; only a refused
    /// publish writes again, to mark its intent `rejected` and sync the
    /// mark (DESIGN.md §14).
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
            key: HmacKey::new(creds.secret_key.as_bytes()),
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
    pub(crate) fn with_intent_ledger(mut self, db: Database) -> Self {
        self.intents = Some(db);
        self
    }

    /// The credentials in use.
    pub(crate) fn credentials(&self) -> &Credentials {
        &self.creds
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
        BuildSpec::check(&text)?;
        Ok(text)
    }

    /// Steps ①–⑤: package, upload, subscribe, enqueue. Returns the
    /// pending job to wait on.
    pub fn begin_submit(&self, project: &ProjectDir, mode: SubmitMode) -> Result<PendingJob, SubmitError> {
        // ① Project and build-file checks.
        if project.tree.is_empty() {
            return Err(SubmitError::EmptyProject);
        }
        if mode == SubmitMode::Submit {
            let missing = FINAL_SUBMISSION_FILES.into_iter().find(|name| !project.tree.contains(name));
            if let Some(name) = missing {
                return Err(SubmitError::MissingRequiredFile(name));
            }
        }
        let build_yml = Self::effective_build_yml(project, mode)?;

        // ② Credential sanity (full verification happens worker-side).
        debug_assert!(!self.creds.access_key.is_empty() && !self.creds.secret_key.is_empty());

        // ③ Package and delta-upload the project directory: the tree
        // is serialized to the archive container — chunked as it is
        // written — and shipped as a chunk manifest, so a resubmission
        // uploads only the chunks the file server does not already
        // hold (DESIGN.md §10).
        let job_id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        let prepared = PreparedUpload::archive(&project.tree);
        let upload_key = upload_key(&self.team, job_id);
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
        request.signature = self.key.sign(&self.creds.access_key, &request.signing_payload());
        let encoded = request.encode();

        // ⑤ Subscribe to the job's ephemeral log topic before the push:
        // only this subscription creates the topic, and no frame the
        // worker emits can precede its reader. A rejected push drops
        // it, and the topic with it.
        let subscription = self
            .broker
            .subscribe_ephemeral(&routes::log_topic(job_id), routes::LOG_CHANNEL);

        // Durability point: journal the accepted submission *before*
        // publishing and force it to stable storage. If the process
        // dies with the request queued (or about to be), recovery
        // finds the intent, sees no terminal submissions row, and
        // re-publishes — zero lost submissions (DESIGN.md §14).
        if let Some(db) = &self.intents {
            db.write().intents.insert_one(doc! {
                "job_id" => job_id as i64,
                "req" => encoded.as_str(),
            });
            db.sync_wal();
        }
        // One body for every attempt: a retry publishes the same bytes.
        let body = Bytes::from(encoded);
        let mut attempts = 0;
        let published = loop {
            attempts += 1;
            match self.broker.publish(routes::TASK_TOPIC, body.clone()) {
                Ok(_) => break Ok(()),
                Err(PublishError::Unavailable { .. }) if attempts < CLIENT_RETRY_ATTEMPTS => {
                    continue
                }
                Err(e) => break Err(e),
            }
        };
        if let (Err(_), Some(db)) = (&published, &self.intents) {
            // A refused publish surfaced an error to the student: the
            // mark keeps recovery from re-publishing it, so it is synced
            // before the error is returned, like the intent it marks.
            // Every other intent is in the at-least-once pipeline.
            db.write().intents.update_one(
                &doc! { "job_id" => job_id as i64 },
                &doc! { "$set" => doc! { "rejected" => true } },
                false,
            );
            db.sync_wal();
        }
        published?;
        Ok(PendingJob {
            job_id,
            subscription,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn the_upload_key_is_written_and_checked_by_one_derivation() {
        let key = upload_key("gpu gophers", 0xDEAD);
        assert_eq!(key, "gpu-gophers/0000dead.tar.bz2");
        assert!(is_upload_key(&key, "gpu gophers", 0xDEAD));
        for (other, team, job_id) in [
            ("gpu-gophers/0000dead.tar.bz2", "gpu-gophers", 0xBEEF),
            ("gpu-gophers/0000dead.tar.bz2", "gpu gopher", 0xDEAD),
            ("gpu-gophers/0000dead.tar.bz2x", "gpu gophers", 0xDEAD),
            ("gpu-gophers/0000dead.tar", "gpu gophers", 0xDEAD),
            ("team-b/0000dead.tar.bz2", "gpu gophers", 0xDEAD),
        ] {
            assert!(!is_upload_key(other, team, job_id), "{other} for {team} {job_id:x}");
        }
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

    /// What `wait` made of a job's messages before it kept their
    /// bodies: every frame decoded and rendered into a `String` as it
    /// arrived. `(lines, success, build URL, timer)`.
    type Eager = (Vec<String>, bool, Option<String>, Option<f64>);

    fn reference_wait(bodies: &[Vec<u8>]) -> Option<Eager> {
        use crate::protocol::{decode_block, LogFrame};
        let (mut log, mut build_url, mut internal) = (Vec::new(), None, None);
        for body in bodies {
            for frame in decode_block(&String::from_utf8_lossy(body)) {
                match frame {
                    LogFrame::Out(line) => {
                        let rest = line.split("elapsed = ").nth(1);
                        if let Some(v) = rest.and_then(|rest| rest.split_whitespace().next()) {
                            internal = v.parse().ok().or(internal);
                        }
                        log.push(line);
                    }
                    LogFrame::Err(line) => log.push(format!("[stderr] {line}")),
                    LogFrame::Status(line) => log.push(format!("[rai] {line}")),
                    LogFrame::BuildUrl(url) => build_url = Some(url),
                    LogFrame::End { success } => return Some((log, success, build_url, internal)),
                }
            }
        }
        None
    }

    /// A block body: frame lines of known, escaped and unknown tags
    /// over text with escapes, `elapsed = ` markers, and bytes that are
    /// not UTF-8; sometimes a line break at the end, or nothing at all.
    fn arb_body() -> impl Strategy<Value = Vec<u8>> {
        const TAGS: [&[u8]; 13] = [
            b"out ", b"err ", b"sts ", b"url ", b"end ", b"out\\ ", b"err\\ ", b"sts\\ ", b"url\\ ",
            b"end\\ ", b"v2 ", b"", b"out",
        ];
        const TEXT: [&[u8]; 15] = [
            b"a", b" ", b"\\", b"\\n", b"\\\\", b"elapsed = ", b"0.5", b"1e3", b"x", "é".as_bytes(),
            b"\xff", b"\xc3", b"ok", b"\r", b"fail",
        ];
        let line = (0..TAGS.len(), prop::collection::vec(0..TEXT.len(), 0..6)).prop_map(|(tag, text)| {
            let mut line = TAGS[tag].to_vec();
            text.into_iter().for_each(|t| line.extend_from_slice(TEXT[t]));
            line
        });
        (prop::collection::vec(line, 0..6), any::<bool>()).prop_map(|(lines, trailing)| {
            let mut body = lines.join(&b'\n');
            if trailing && !body.is_empty() {
                body.push(b'\n');
            }
            body
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The transcript kept as blocks reads as the lines the eager
        /// loop rendered, and `wait` finds what that loop found.
        #[test]
        fn a_transcript_reads_as_the_eager_rendering(
            mut bodies in prop::collection::vec(arb_body(), 0..5),
            closing in arb_body(),
            success in any::<bool>(),
        ) {
            // However the random blocks end, a last one ends the job.
            let mut last = closing;
            last.extend_from_slice(if success { b"\nend ok" } else { b"\nend fail" });
            bodies.push(last);
            let expected = reference_wait(&bodies).expect("the last block ends the job");

            let broker = Broker::default();
            let topic = routes::log_topic(1);
            let subscription = broker.subscribe_ephemeral(&topic, routes::LOG_CHANNEL);
            for body in &bodies {
                broker.publish_ephemeral(&topic, body.clone()).expect("publish");
            }
            let pending = PendingJob { job_id: 1, subscription };
            let receipt = pending.wait(Duration::from_secs(5)).expect("the job ends");
            let lines: Vec<String> = receipt.log.iter().map(Cow::into_owned).collect();
            prop_assert_eq!(&lines, &expected.0);
            prop_assert_eq!(receipt.log.len(), expected.0.len());
            prop_assert_eq!(format!("{:?}", receipt.log), format!("{:?}", expected.0));
            prop_assert_eq!(receipt.success, expected.1);
            prop_assert_eq!(receipt.build_url, expected.2);
            prop_assert_eq!(receipt.internal_timer_secs.map(f64::to_bits), expected.3.map(f64::to_bits));
        }
    }
}
