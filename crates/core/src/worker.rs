//! The RAI worker (paper §V "Worker Operations").
//!
//! A worker ① subscribes to the `rai` task channel, ② parses and
//! authenticates incoming job messages, ③ starts a sandboxed container
//! from the whitelisted base image (pulling it on first use), ④
//! downloads the client's project archive and mounts it at `/src` with
//! `/build` as the working directory, ⑤ executes the build commands,
//! forwarding stdout/stderr to the job's log topic, and ⑥ uploads the
//! `/build` directory to the file server, publishes its URL, destroys
//! the container and sends `End`.
//!
//! "The worker can be configured to have multiple jobs in flight" —
//! [`WorkerConfig::max_in_flight`]; contention noise from the other
//! slots is what made the staff switch to single-job workers for the
//! benchmark weeks (reproduced by the concurrency ablation, which
//! builds its workers directly). A [`crate::RaiSystem`] fleet is always
//! single-job: its round commits every claim before the next pop, so a
//! second slot could never fill.
//!
//! Every job takes the one path — pop, claim, execute, commit — and
//! every worker holds a [`Telemetry`] and a [`FaultInjector`]: its own
//! registry and an inert plan until a deployment hands it the shared
//! ones.
//!
//! ## Failure model
//!
//! Processing is at-least-once: a job message is acked only after its
//! terminal database record lands. Transient store/db faults are
//! absorbed by a bounded [`RetryPolicy`] whose backoff accrues into the
//! job's simulated service time. An injected crash or stall
//! ([`FaultInjector::crash_decision`]) aborts processing *without*
//! acking, so the broker redelivers; side effects are idempotent (the
//! `/build` upload overwrites the same key, the submission row is an
//! upsert keyed on `job_id`), so redelivered work records exactly once.

use crate::client::BUILD_BUCKET;
use crate::delta::{DeltaUploader, PreparedUpload};
use crate::protocol::{push_output, routes, JobKind, JobRequest, LogFrame};
use crate::spec::BuildSpec;
use rai_archive::{restore_shared, write_container, FileTree};
use rai_auth::CredentialRegistry;
use rai_broker::{Broker, MessageId, Subscription};
use rai_db::{doc, Database, DbError, Value};
use rai_faults::{CrashKind, CrashPoint, FaultInjector, FaultPlan, RetryPolicy};
use rai_sandbox::{Container, ContainerStatus, Image, ImageRegistry, LogStream, ResourceLimits};
use rai_sim::{SimDuration, SimTime};
use rai_telemetry::{component, names, stage, Telemetry};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Worker configuration ("these limits can be changed using the RAI
/// worker configuration file").
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Identifier recorded with each submission (e.g. `p2-worker-07`).
    pub worker_id: String,
    /// Job slots on this host (1 during benchmarking weeks). A job is
    /// measured with the other `max_in_flight - 1` slots as neighbours.
    pub max_in_flight: usize,
    /// Container resource limits.
    pub limits: ResourceLimits,
    /// Seed for this worker's contention-noise RNG.
    pub noise_seed: u64,
    /// Retry policy wrapping worker↔store and worker↔db operations.
    pub retry: RetryPolicy,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker_id: "worker-0".to_string(),
            max_in_flight: 1,
            limits: ResourceLimits::default(),
            noise_seed: 0,
            retry: RetryPolicy::default(),
        }
    }
}

/// What processing one job produced (consumed by the discrete-event
/// driver to advance virtual time).
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job id.
    pub job_id: u64,
    /// Team that submitted.
    pub team: String,
    /// Run or final submission.
    pub kind: JobKind,
    /// Whether the build+run succeeded.
    pub success: bool,
    /// Total simulated time the job occupied the worker (pull +
    /// transfers + container execution + retry backoff).
    pub service_time: SimDuration,
    /// The measured program runtime (internal timer), if a program ran.
    pub measured_secs: Option<f64>,
}

/// An injected mid-job failure: the worker died (or froze) while
/// holding an unacked message.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Job being processed when the fault hit.
    pub job_id: u64,
    /// Team that submitted it.
    pub team: String,
    /// Pipeline point where the fault landed.
    pub point: CrashPoint,
    /// Death vs freeze (a freeze holds its claim until the broker's
    /// message timeout reclaims it).
    pub kind: CrashKind,
    /// Simulated time burnt before the fault hit (the driver still
    /// advances the clock by this much).
    pub wasted: SimDuration,
}

/// What one scheduling step of the worker produced.
#[derive(Clone, Debug)]
pub enum StepEvent {
    /// Queue empty or at the in-flight limit.
    Idle,
    /// A job ran to a terminal state and its message was acked.
    Done(JobOutcome),
    /// The worker crashed or stalled mid-job; the message was *not*
    /// acked. After a crash, call [`Worker::crash_recover`]; after a
    /// stall, the claim times out via `Broker::reclaim_expired`.
    Crashed(CrashReport),
}

/// A task message popped from the broker but not yet claimed: the
/// output of the order-defining half of the claim phase (DESIGN.md
/// §12).
///
/// The pop half — `try_recv`, message decode, malformed-ack,
/// in-flight accounting — is what fixes a round's job composition and
/// claim order. The rest of the claim (auth, spec parse, image pull,
/// project fetch) is [`Worker::claim_popped`].
pub struct PoppedTask {
    msg_id: MessageId,
    request: JobRequest,
    attempt: u64,
}

impl PoppedTask {
    /// Id of the popped job.
    pub fn job_id(&self) -> u64 {
        self.request.job_id
    }
}

/// One delivery attempt of one job: what claim, execute and commit
/// hand from each to the next.
struct Attempt {
    /// Broker message backing this attempt; acked at the terminal row.
    msg_id: MessageId,
    request: JobRequest,
    /// Broker delivery count, from 1.
    attempt: u64,
    /// Claim-time clock: every stage span of this attempt is stamped
    /// `started + accumulated service time`.
    started: SimTime,
    /// Service time accrued so far (pull, fetch backoff and transfer,
    /// then the run, the upload and the record).
    service_time: SimDuration,
    /// Log-frame bytes accounted so far.
    log_bytes: u64,
}

impl Attempt {
    /// The span tree's `u32` attempt tag (attempt 0 is reserved for the
    /// client submit subtree).
    fn tag(&self) -> u32 {
        u32::try_from(self.attempt.max(1)).unwrap_or(u32::MAX)
    }

    /// This attempt dying at `point` with everything so far wasted.
    fn crashed(&self, point: CrashPoint, kind: CrashKind) -> CrashReport {
        CrashReport {
            job_id: self.request.job_id,
            team: self.request.team.clone(),
            point,
            kind,
            wasted: self.service_time,
        }
    }
}

/// An attempt that ends before its build output exists; claim and
/// execute both pass it through to [`Worker::commit`] untouched.
enum Halt {
    /// Rejected before a container could start (auth, spec, image, or
    /// fetch failure); commit records the terminal row and acks.
    Reject {
        user: String,
        outcome: &'static str,
    },
    /// An injected crash/stall landed.
    Crashed { kind: CrashKind, point: CrashPoint },
}

/// A job claimed from the broker with its claim-phase work done.
///
/// The claim phase (DESIGN.md §12) runs everything that touches shared
/// services or per-worker state — message pop, parse, auth, build-spec
/// parse, image whitelist + pull accounting, and the project fetch from
/// the store. What remains is pure: a `ClaimedJob` owns every input
/// the build+run needs (project tree, image, limits, dilation,
/// pre-drawn crash decisions), which is why [`Worker::execute`] takes
/// it by value without touching the worker at all.
pub struct ClaimedJob {
    job: Attempt,
    plan: ClaimPlan,
}

/// How the claim phase resolved.
// One plan exists per in-flight claim (bounded by the fleet size), so
// the `Run` variant's size costs nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
enum ClaimPlan {
    Halt(Halt),
    /// Everything the sandbox run needs, self-contained.
    Run {
        user: String,
        spec: BuildSpec,
        image: Arc<Image>,
        project: FileTree,
        limits: ResourceLimits,
        dilation: f64,
        /// Crash decisions are pure functions of (seed, job, attempt,
        /// point), so they are drawn at claim time; the execute phase
        /// then needs no access to the injector.
        crash_build: Option<CrashKind>,
        crash_upload: Option<CrashKind>,
    },
}

/// What the sandbox run looked like, in service time: commit derives
/// the BUILT and RAN spans and both sandbox metrics from it, so trace
/// insertion stays in claim order.
struct RunFacts {
    from: SimDuration,
    to: SimDuration,
    limit_killed: bool,
}

/// A claim after its execute phase: the container ran (or the claim
/// carried a rejection/crash through untouched) and every side effect
/// is buffered, waiting for [`Worker::commit`] to apply it in claim
/// order.
pub struct ExecutedJob {
    /// `log_bytes` now counts the frames of `output` too.
    job: Attempt,
    /// The container's stdout/stderr, encoded as one block of `out` /
    /// `err` frames and unpublished: log publishing is faultable, so
    /// it must hit the broker in deterministic claim order. Empty when
    /// no container ran or it printed nothing.
    output: String,
    /// Set once a container ran, whatever became of the attempt after.
    run: Option<RunFacts>,
    outcome: ExecOutcome,
}

/// How the execute phase resolved.
enum ExecOutcome {
    Halt(Halt),
    Built {
        user: String,
        prepared: PreparedUpload,
        container_len: u64,
        build_key: String,
        success: bool,
        measured: Option<f64>,
        elapsed: SimDuration,
    },
}

/// The worker agent.
pub struct Worker {
    config: WorkerConfig,
    broker: Broker,
    store: rai_store::ObjectStore,
    db: Database,
    registry: Arc<RwLock<CredentialRegistry>>,
    images: Arc<ImageRegistry>,
    subscription: Subscription,
    cached_images: HashSet<String>,
    active_jobs: usize,
    rng: StdRng,
    telemetry: Telemetry,
    injector: FaultInjector,
}

impl Worker {
    /// Create a worker and subscribe it to `rai/tasks`. It records into
    /// a registry of its own, on the store's clock, and nothing is
    /// injected, until a deployment replaces either.
    pub fn new(
        config: WorkerConfig,
        broker: Broker,
        store: rai_store::ObjectStore,
        db: Database,
        registry: Arc<RwLock<CredentialRegistry>>,
        images: Arc<ImageRegistry>,
    ) -> Self {
        let subscription = broker.subscribe(routes::TASK_TOPIC, routes::TASK_CHANNEL);
        let rng = StdRng::seed_from_u64(config.noise_seed);
        let telemetry = Telemetry::new(store.clock().clone());
        Worker {
            config,
            broker,
            store,
            db,
            registry,
            images,
            subscription,
            cached_images: HashSet::new(),
            active_jobs: 0,
            rng,
            telemetry,
            injector: FaultInjector::new(FaultPlan::none(0)),
        }
    }

    /// Record through `telemetry` (a deployment's shared handle) from
    /// now on: stage timings, job traces, and the active-jobs gauge.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Consult `injector` for crash/stall decisions, per job attempt,
    /// from now on.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// This worker's id.
    pub fn id(&self) -> &str {
        &self.config.worker_id
    }

    /// Contention-noise multiplier for this host: a single-slot worker
    /// measures cleanly; each of the other `max_in_flight - 1` slots
    /// adds up to ~12% noise (PCIe/host contention on a shared K80
    /// host) — the lever behind the paper's "the worker accepts only
    /// one task at a time – this makes the performance timing more
    /// accurate and repeatable", measured by the concurrency ablation.
    fn contention_dilation(&mut self) -> f64 {
        match self.config.max_in_flight.saturating_sub(1) {
            0 => 1.0,
            neighbours => {
                let per_job: f64 = self.rng.gen_range(0.02..0.12);
                1.0 + per_job * neighbours as f64
            }
        }
    }

    /// Pop and fully process one task message. Returns `None` when the
    /// queue is empty, this worker is at its in-flight limit, or the
    /// job crashed mid-flight (in which case the worker restarts
    /// immediately and the message redelivers). Fault-aware drivers
    /// should use [`Worker::try_step`] instead.
    pub fn step(&mut self) -> Option<JobOutcome> {
        match self.try_step() {
            StepEvent::Idle => None,
            StepEvent::Done(outcome) => Some(outcome),
            StepEvent::Crashed(_) => {
                self.crash_recover();
                None
            }
        }
    }

    /// Pop one task message and run it, reporting crashes instead of
    /// hiding them. A crashed job's message is left unacked: a `Crash`
    /// releases it when [`Worker::crash_recover`] drops the old
    /// subscription; a `Stall` holds it until the broker's message
    /// timeout (`reclaim_expired`) fires.
    ///
    /// Claim → execute → commit back to back; the round
    /// ([`crate::RaiSystem::run_round`]) runs the same phases regrouped
    /// across workers (DESIGN.md §12).
    pub fn try_step(&mut self) -> StepEvent {
        let Some(popped) = self.pop_task() else { return StepEvent::Idle };
        let claimed = self.claim_popped(popped);
        self.commit(Worker::execute(claimed))
    }

    /// The first half of a claim: pop one task message and run its
    /// order-defining bookkeeping (decode, malformed-ack, redelivery
    /// counting, in-flight accounting) without touching auth, images,
    /// or the store. Returns `None` when the queue is empty or this
    /// worker is at its in-flight limit. The claim counts against the
    /// limit until [`Worker::commit`] (or [`Worker::crash_recover`])
    /// releases it.
    pub fn pop_task(&mut self) -> Option<PoppedTask> {
        loop {
            if self.active_jobs >= self.config.max_in_flight {
                return None;
            }
            let msg = self.subscription.try_recv()?;
            let Some(request) = JobRequest::decode(&msg.body_str()) else {
                self.telemetry.counter(names::JOBS_MALFORMED_TOTAL, &[]).inc();
                eprintln!(
                    "worker {}: dropping malformed task message {} ({} bytes)",
                    self.config.worker_id,
                    msg.id,
                    msg.body.len()
                );
                self.subscription.ack(msg.id);
                continue;
            };
            let attempt = u64::from(msg.attempts.max(1));
            if attempt > 1 {
                self.telemetry.counter(names::REDELIVERIES_TOTAL, &[]).inc();
            }
            self.active_jobs += 1;
            self.set_active_gauge();
            return Some(PoppedTask { msg_id: msg.id, request, attempt });
        }
    }

    /// Restart after a crash: a fresh subscription claims a new
    /// subscriber id, and dropping the old one releases its unacked
    /// claims back to the queue (or to the dead-letter topic once over
    /// the broker's attempt cap).
    pub fn crash_recover(&mut self) {
        let fresh = self.broker.subscribe(routes::TASK_TOPIC, routes::TASK_CHANNEL);
        drop(std::mem::replace(&mut self.subscription, fresh));
        self.active_jobs = 0;
        self.set_active_gauge();
    }

    fn set_active_gauge(&self) {
        self.telemetry
            .gauge(names::WORKER_ACTIVE_JOBS, &[("worker", &self.config.worker_id)])
            .set(self.active_jobs as f64);
    }

    /// Count a finished job and record its end-to-end service time.
    fn note_outcome(&self, job: &Attempt, outcome: &str) {
        self.telemetry
            .counter(names::JOBS_TOTAL, &[("kind", job.request.kind.as_str()), ("outcome", outcome)])
            .inc();
        self.telemetry
            .histogram(names::JOB_TOTAL_SECONDS, &[], 0.0, 30.0, 40)
            .record(job.service_time.as_secs_f64());
    }

    /// Count the extra attempts a retried operation burnt.
    fn note_retries(&self, op: &'static str, attempts: u32) {
        if attempts > 1 {
            self.telemetry
                .counter(names::RETRIES_TOTAL, &[("op", op)])
                .add(u64::from(attempts - 1));
        }
    }

    /// Record a lifecycle stage as a causal span `[started + from,
    /// started + to]` under this delivery attempt's subtree, and its
    /// duration in the per-stage histogram. A zero-width span
    /// (`from == to`) marks an instantaneous lifecycle event.
    fn note_stage(
        &self,
        job: &Attempt,
        stage_name: &'static str,
        comp: &'static str,
        from: SimDuration,
        to: SimDuration,
    ) {
        let (start, end) = (job.started + from, job.started + to);
        self.telemetry.trace_span(job.request.job_id, job.tag(), stage_name, comp, start, end);
        self.telemetry
            .histogram(names::JOB_STAGE_SECONDS, &[("stage", stage_name)], 0.0, 5.0, 24)
            .record((to.saturating_sub(from)).as_secs_f64());
    }

    /// Record a lifecycle event that is not a timed stage: a zero-width
    /// span at `started + at`, and no histogram sample.
    fn mark(&self, job: &Attempt, stage_name: &'static str, comp: &'static str, at: SimDuration) {
        let at = job.started + at;
        self.telemetry.trace_span(job.request.job_id, job.tag(), stage_name, comp, at, at);
    }

    /// Seed for one operation's retry jitter, stable across runs.
    fn op_seed(&self, job_id: u64, attempt: u64, op: u64) -> u64 {
        self.config.noise_seed
            ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ attempt.rotate_left(32)
            ^ op.wrapping_mul(0xD1B5_4A32_D192_ED03)
    }

    /// The injector's crash/stall decision for `point`, if any. Pure in
    /// (seed, job, attempt, point) — drawing it early at claim time
    /// yields the same decision the sequential pipeline drew in place.
    fn crash_decision_at(&self, job: &Attempt, point: CrashPoint) -> Option<CrashKind> {
        self.injector.crash_decision(job.request.job_id, job.attempt, point)
    }

    /// The claim tail for an already-popped task: auth, build-spec
    /// parse, image resolve/pull, and the project fetch — everything
    /// up to the sandbox, serially against shared services.
    pub fn claim_popped(&mut self, popped: PoppedTask) -> ClaimedJob {
        let PoppedTask { msg_id, request, attempt } = popped;
        let log_topic = routes::log_topic(request.job_id);
        // Bytes of log traffic this job generates (the paper reports
        // 25 GB of logs and metadata across the semester).
        let accepted = LogFrame::Status(format!("job accepted by {}", self.config.worker_id));
        let mut job = Attempt {
            msg_id,
            request,
            attempt,
            // All stage timestamps are `started + accumulated service
            // time`: the driver advances the shared clock only after
            // the round commits, so stamping the logical time keeps
            // per-job traces monotone.
            started: self.store.clock().now(),
            service_time: SimDuration::ZERO,
            log_bytes: 0,
        };
        // Delivery from the broker opens this attempt's subtree.
        self.mark(&job, stage::DEQUEUED, component::BROKER, SimDuration::ZERO);
        job.log_bytes += publish_frames(&self.broker, &log_topic, &[accepted]);
        let reject = |broker: &Broker, reason: String| {
            publish_frames(
                broker,
                &log_topic,
                &[LogFrame::Err(reason), LogFrame::End { success: false }],
            )
        };
        let halted = |job: Attempt, halt: Halt| ClaimedJob { job, plan: ClaimPlan::Halt(halt) };

        // ② Check the credentials.
        let auth = self
            .registry
            .read()
            .authenticate(&job.request.access_key, &job.request.signing_payload(), &job.request.signature)
            .map(str::to_string);
        let user = match auth {
            Ok(u) => u,
            Err(e) => {
                job.log_bytes += reject(&self.broker, format!("authentication failed: {e}"));
                // The recorded row carries the rejection in place of a
                // user name — there is no authenticated user to name.
                let user = "auth-rejected".to_string();
                return halted(job, Halt::Reject { user, outcome: "auth-rejected" });
            }
        };

        // Parse the build file embedded in the job message.
        let spec = match BuildSpec::parse(&job.request.build_yml) {
            Ok(s) => s,
            Err(e) => {
                job.log_bytes += reject(&self.broker, e.to_string());
                return halted(job, Halt::Reject { user, outcome: "bad-spec" });
            }
        };

        // ③ Resolve the image (whitelist) and pull if not cached.
        let image = match self.images.resolve(&spec.image) {
            Ok(img) => img.clone(),
            Err(e) => {
                job.log_bytes += reject(&self.broker, e.to_string());
                return halted(job, Halt::Reject { user, outcome: "image-rejected" });
            }
        };
        if !self.cached_images.contains(&image.name) {
            let pulling = LogFrame::Status(format!("pulling image {}...", image.name));
            job.log_bytes += publish_frames(&self.broker, &log_topic, &[pulling]);
            let before_pull = job.service_time;
            job.service_time += self.images.pull_latency(&image.name);
            self.cached_images.insert(image.name.clone());
            self.note_stage(&job, stage::PULLED, component::SANDBOX, before_pull, job.service_time);
            self.telemetry.counter(names::SANDBOX_IMAGE_PULLS_TOTAL, &[]).inc();
        }

        // ④ Download the project archive and mount it.
        if let Some(kind) = self.crash_decision_at(&job, CrashPoint::Fetch) {
            return halted(job, Halt::Crashed { kind, point: CrashPoint::Fetch });
        }
        let before_fetch = job.service_time;
        let fetched = self.config.retry.run(
            self.op_seed(job.request.job_id, attempt, 1),
            |_| self.store.get(&job.request.upload_bucket, &job.request.upload_key),
        );
        self.note_retries("store_get", fetched.attempts);
        job.service_time += fetched.backoff;
        let project = match fetched
            .result
            .map_err(|e| e.to_string())
            .and_then(|obj| restore_shared(&obj.data).map_err(|e| e.to_string()))
        {
            Ok(tree) => tree,
            Err(e) => {
                job.log_bytes += reject(&self.broker, format!("failed to fetch project: {e}"));
                return halted(job, Halt::Reject { user, outcome: "fetch-failed" });
            }
        };
        // Transfer latency: 100 MB/s from the file server. The span
        // covers backoff + transfer — everything the store fetch cost.
        job.service_time += SimDuration::from_millis(project.total_size() / (100 * 1024) + 1);
        self.note_stage(&job, stage::FETCHED, component::STORE, before_fetch, job.service_time);

        let mut limits = self.config.limits;
        if let Some(gpus) = spec.gpus {
            // The spec may *lower* the GPU count (future machine
            // requirements); it cannot exceed what the worker offers.
            limits.gpus = limits.gpus.min(gpus);
        }
        let plan = ClaimPlan::Run {
            user,
            spec,
            image,
            project,
            limits,
            dilation: self.contention_dilation(),
            crash_build: self.crash_decision_at(&job, CrashPoint::Build),
            crash_upload: self.crash_decision_at(&job, CrashPoint::Upload),
        };
        ClaimedJob { job, plan }
    }

    /// Run a claimed job's execute phase: the sandboxed build + run
    /// and upload preparation (⑤ and the pure half of ⑥).
    ///
    /// This is an associated function on purpose — it consumes the
    /// claim by value and touches neither the worker nor any shared
    /// service. Every side effect (log frames, stage spans, the
    /// upload) is buffered into the returned [`ExecutedJob`] for
    /// [`Worker::commit`] to apply in claim order.
    pub fn execute(claimed: ClaimedJob) -> ExecutedJob {
        let ClaimedJob { mut job, plan } = claimed;
        let mut output = String::new();
        let mut run = None;
        let outcome = match plan {
            ClaimPlan::Halt(halt) => ExecOutcome::Halt(halt),
            ClaimPlan::Run {
                user,
                spec,
                image,
                project,
                limits,
                dilation,
                crash_build,
                crash_upload,
            } => 'run: {
                if let Some(kind) = crash_build {
                    break 'run ExecOutcome::Halt(Halt::Crashed { kind, point: CrashPoint::Build });
                }
                let mut container = Container::create(&image, limits);
                container.mount("/src", &project);
                container.set_time_dilation(dilation);

                // ⑤ Execute the build commands, buffering output.
                container.run_script(spec.build.iter().map(String::as_str));
                let report = container.destroy();
                // Tag, space and separator are five bytes a line.
                output.reserve(report.log.iter().map(|l| l.text.len() + 5).sum());
                for line in &report.log {
                    let stderr = line.stream == LogStream::Stderr;
                    job.log_bytes += push_output(&mut output, stderr, &line.text) as u64;
                }
                let from = job.service_time;
                job.service_time += report.elapsed;
                run = Some(RunFacts {
                    from,
                    to: job.service_time,
                    limit_killed: matches!(report.status, ContainerStatus::Killed(_)),
                });

                if let Some(kind) = crash_upload {
                    break 'run ExecOutcome::Halt(Halt::Crashed { kind, point: CrashPoint::Upload });
                }
                // The pure half of ⑥: archive /build and chunk it.
                // The store conversation happens at commit.
                let build_container = write_container(&report.build_dir);
                let build_key = format!(
                    "{}/{:08x}-build.tar.bz2",
                    job.request.team.replace(' ', "-"),
                    job.request.job_id
                );
                ExecOutcome::Built {
                    user,
                    container_len: build_container.len() as u64,
                    prepared: PreparedUpload::prepare(build_container),
                    build_key,
                    success: report.success(),
                    measured: report.internal_timer_secs(),
                    elapsed: report.elapsed,
                }
            }
        };
        #[cfg(test)]
        phase_log::record("execute", job.request.job_id);
        ExecutedJob { job, output, run, outcome }
    }

    /// Apply an executed job's buffered effects and seal it: publish the
    /// output block, replay the run's spans, commit the upload and the
    /// database records, then ack the message (terminal) or report the
    /// crash (unacked). Round drivers must call this in claim order —
    /// it is the only phase after the claim that talks to
    /// broker/store/db, so commit order *is* the fault-draw order.
    pub fn commit(&mut self, executed: ExecutedJob) -> StepEvent {
        let ExecutedJob { mut job, output, run, outcome } = executed;
        #[cfg(test)]
        phase_log::record("commit", job.request.job_id);
        let log_topic = routes::log_topic(job.request.job_id);
        // Flush the execute phase's buffered effects first, in the
        // order a single pass would have produced them: the output
        // block (publishing is faultable, and best-effort like every
        // log publish), then spans, then sandbox metrics.
        if !output.is_empty() {
            let _ = self.broker.publish_ephemeral(&log_topic, output);
        }
        if let Some(run) = &run {
            self.note_stage(&job, stage::BUILT, component::SANDBOX, run.from, run.from);
            self.note_stage(&job, stage::RAN, component::SANDBOX, run.from, run.to);
            self.telemetry
                .histogram(names::SANDBOX_RUN_SECONDS, &[], 0.0, 5.0, 24)
                .record((run.to - run.from).as_secs_f64());
            if run.limit_killed {
                self.telemetry.counter(names::SANDBOX_LIMIT_KILLS_TOTAL, &[]).inc();
            }
        }

        // `Ok((success, measured))` once the terminal row has landed.
        // Failure to persist it is a crash: the message stays unacked
        // and redelivers to a (hopefully healthier) attempt.
        let sealed = match outcome {
            ExecOutcome::Halt(Halt::Crashed { kind, point }) => Err(job.crashed(point, kind)),
            ExecOutcome::Halt(Halt::Reject { user, outcome }) => {
                match self.record_submission(&job, &user, None, SimDuration::ZERO, false) {
                    Ok(backoff) => {
                        let before_record = job.service_time;
                        job.service_time += backoff;
                        self.note_stage(&job, stage::RECORDED, component::DB, before_record, job.service_time);
                        self.note_outcome(&job, outcome);
                        Ok((false, None))
                    }
                    Err(_) => Err(job.crashed(CrashPoint::Record, CrashKind::Crash)),
                }
            }
            ExecOutcome::Built {
                user,
                prepared,
                container_len,
                build_key,
                success,
                measured,
                elapsed,
            } => 'built: {
                // ⑥ Commit the upload and send the URL + End, as one
                // block. The key is a pure function of (team, job_id):
                // a redelivered attempt overwrites its own previous
                // upload instead of duplicating it.
                let request = &job.request;
                let before_upload = job.service_time;
                let upload = self.config.retry.run(
                    self.op_seed(request.job_id, job.attempt, 2),
                    |_| {
                        DeltaUploader::new().upload_prepared(
                            &self.store,
                            BUILD_BUCKET,
                            &build_key,
                            &prepared,
                            [
                                ("team", request.team.as_str()),
                                ("kind", request.kind.upload_tag()),
                                ("source", request.upload_key.as_str()),
                            ],
                        )
                    },
                );
                self.note_retries("store_put", upload.attempts);
                job.service_time += upload.backoff;
                // A presigned URL (valid 7 days) so the student
                // downloads the archive without holding file-server
                // credentials.
                let build_url = upload.result.is_ok().then(|| {
                    let expires = self.store.clock().now() + SimDuration::from_days(7);
                    LogFrame::BuildUrl(self.store.presign(BUILD_BUCKET, &build_key, expires))
                });
                // Transfer time is charged on the bytes that actually
                // crossed the wire: a delta upload of a near-identical
                // build tree is a few manifest-sized writes, not a
                // whole re-archive. The span covers backoff + transfer,
                // mirroring the fetch span.
                let wire_bytes = match &upload.result {
                    Ok(receipt) => receipt.wire_bytes(),
                    Err(_) => container_len,
                };
                job.service_time += SimDuration::from_millis(wire_bytes / (100 * 1024) + 1);
                self.note_stage(&job, stage::UPLOADED, component::STORE, before_upload, job.service_time);
                let closing = [build_url, Some(LogFrame::End { success })];
                job.log_bytes += publish_frames(&self.broker, &log_topic, closing.iter().flatten());

                // ⑦ Record the submission metadata.
                let recorded = self
                    .record_submission(&job, &user, measured, elapsed, success)
                    .and_then(|backoff| {
                        if job.request.kind == JobKind::Submit && success {
                            Ok(backoff + self.record_ranking(&job.request, measured, elapsed, &build_key)?)
                        } else {
                            Ok(backoff)
                        }
                    });
                let Ok(backoff) = recorded else {
                    break 'built Err(job.crashed(CrashPoint::Record, CrashKind::Crash));
                };
                let before_record = job.service_time;
                job.service_time += backoff;
                self.note_stage(&job, stage::RECORDED, component::DB, before_record, job.service_time);
                if let Some(kind) = self.crash_decision_at(&job, CrashPoint::Ack) {
                    break 'built Err(job.crashed(CrashPoint::Ack, kind));
                }
                self.mark(&job, stage::GRADED, component::WORKER, job.service_time);
                self.note_outcome(&job, if success { "ok" } else { "failed" });
                Ok((success, measured))
            }
        };

        if let Err(report) = &sealed {
            // Close the attempt's subtree with a zero-width crash
            // marker so the trace shows where the wasted work ended —
            // the next delivery opens a sibling attempt subtree.
            self.mark(&job, stage::CRASHED, component::FAULT, report.wasted);
        }
        self.active_jobs = self.active_jobs.saturating_sub(1);
        self.set_active_gauge();
        match sealed {
            Ok((success, measured_secs)) => {
                self.subscription.ack(job.msg_id);
                StepEvent::Done(JobOutcome {
                    job_id: job.request.job_id,
                    team: job.request.team,
                    kind: job.request.kind,
                    success,
                    service_time: job.service_time,
                    measured_secs,
                })
            }
            Err(report) => {
                self.telemetry
                    .counter(names::WORKER_CRASHES_TOTAL, &[("kind", report.kind.label())])
                    .inc();
                StepEvent::Crashed(report)
            }
        }
    }

    /// Submission metadata — "execution times, run-times, and logs …
    /// useful for grading or any other coursework auditing process."
    /// Upserts keyed on `job_id` so a redelivered attempt overwrites
    /// its own row rather than double-counting the submission. Returns
    /// the retry backoff to fold into the job's service time.
    fn record_submission(
        &self,
        job: &Attempt,
        user: &str,
        measured_secs: Option<f64>,
        wall: SimDuration,
        success: bool,
    ) -> Result<SimDuration, DbError> {
        let request = &job.request;
        let guarded = self.config.retry.run(
            self.op_seed(request.job_id, 0, 3),
            |_| self.db.guard(),
        );
        self.note_retries("db_record", guarded.attempts);
        guarded.result?;
        self.db.collection("submissions").write().update_one(
            &doc! { "job_id" => request.job_id },
            &doc! { "$set" => doc!{
                "team" => request.team.as_str(),
                "user" => user,
                "kind" => request.kind.as_str(),
                "success" => success,
                "internal_secs" => measured_secs.map(Value::from).unwrap_or(Value::Null),
                "wall_secs" => wall.as_secs_f64(),
                "worker" => self.config.worker_id.as_str(),
                "upload_key" => request.upload_key.as_str(),
                "log_bytes" => job.log_bytes,
            } },
            true,
        );
        Ok(guarded.backoff)
    }

    /// Final-submission ranking — "the timing results are recorded onto
    /// the ranking database, and overwrites existing timing records.
    /// Both the results from the internal timer and the output from
    /// /usr/bin/time are recorded with only the internal timer visible
    /// to students."
    fn record_ranking(
        &self,
        request: &JobRequest,
        measured_secs: Option<f64>,
        wall: SimDuration,
        build_key: &str,
    ) -> Result<SimDuration, DbError> {
        let Some(secs) = measured_secs else { return Ok(SimDuration::ZERO) };
        let guarded = self.config.retry.run(
            self.op_seed(request.job_id, 0, 4),
            |_| self.db.guard(),
        );
        self.note_retries("db_record", guarded.attempts);
        guarded.result?;
        self.db.collection("rankings").write().update_one(
            &doc! { "team" => request.team.as_str() },
            &doc! { "$set" => doc!{
                "runtime_secs" => secs,
                "time_cmd_secs" => wall.as_secs_f64(),
                "job_id" => request.job_id,
                "build_key" => build_key,
            } },
            true,
        );
        Ok(guarded.backoff)
    }
}

/// Publish `frames` on a job's log topic as one block — one message,
/// one fault draw — and return their accounted bytes (Σ
/// `encode().len()`, which the submissions row keeps as `log_bytes`).
/// Log publishing is best-effort: a refused publish or a full log
/// topic must not take the worker down.
fn publish_frames<'a>(
    broker: &Broker,
    log_topic: &str,
    frames: impl IntoIterator<Item = &'a LogFrame>,
) -> u64 {
    let mut block = String::new();
    let bytes: usize = frames.into_iter().map(|f| f.encode_into(&mut block)).sum();
    let _ = broker.publish_ephemeral(log_topic, block);
    bytes as u64
}

/// Per-thread record of `(phase, job_id)` in call order, so a test can
/// see how a round driver sequenced the otherwise unobservable (pure)
/// execute phase against the commits.
#[cfg(test)]
pub(crate) mod phase_log {
    use std::cell::RefCell;

    thread_local! {
        static LOG: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
    }

    pub(crate) fn record(phase: &'static str, job_id: u64) {
        LOG.with(|log| log.borrow_mut().push((phase, job_id)));
    }

    /// Drain this thread's record.
    pub(crate) fn take() -> Vec<(&'static str, u64)> {
        LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ProjectDir, RaiClient, SubmitMode};
    use rai_auth::KeyGenerator;
    use rai_faults::FaultPlan;
    use rai_sim::VirtualClock;
    use rai_store::{LifecycleRule, ObjectStore};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    struct Rig {
        broker: Broker,
        store: ObjectStore,
        db: Database,
        registry: Arc<RwLock<CredentialRegistry>>,
        images: Arc<ImageRegistry>,
        next_id: Arc<AtomicU64>,
    }

    fn rig() -> Rig {
        let store = ObjectStore::new(VirtualClock::new());
        store
            .create_bucket(crate::client::UPLOAD_BUCKET, LifecycleRule::one_month_after_last_use())
            .unwrap();
        store
            .create_bucket(BUILD_BUCKET, LifecycleRule::Keep)
            .unwrap();
        Rig {
            broker: Broker::default(),
            store,
            db: Database::new(),
            registry: Arc::new(RwLock::new(CredentialRegistry::new())),
            images: Arc::new(ImageRegistry::course_default()),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    fn client_and_worker(rig: &Rig, team: &str) -> (RaiClient, Worker) {
        let creds = KeyGenerator::from_seed(99).generate(team);
        rig.registry.write().register(creds.clone());
        let client = RaiClient::new(
            creds,
            team,
            rig.broker.clone(),
            rig.store.clone(),
            rig.next_id.clone(),
        );
        let worker = Worker::new(
            WorkerConfig::default(),
            rig.broker.clone(),
            rig.store.clone(),
            rig.db.clone(),
            rig.registry.clone(),
            rig.images.clone(),
        );
        (client, worker)
    }

    #[test]
    fn end_to_end_run_submission() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "gpu-gophers");
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let outcome = worker.step().expect("worker should pick up the job");
        assert!(outcome.success);
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(receipt.success);
        assert!(receipt.log.iter().any(|l| l.contains("Building project")));
        assert!(receipt.log.iter().any(|l| l.contains("Built target ece408")));
        assert!(receipt.build_url.is_some());
        assert!(receipt.internal_timer_secs.is_some());
        // Submission recorded in the database.
        let subs = rig.db.collection("submissions");
        assert_eq!(subs.read().len(), 1);
        // Run (not submit): no ranking entry.
        assert_eq!(rig.db.collection("rankings").read().len(), 0);
    }

    #[test]
    fn end_to_end_final_submission_records_ranking() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "gpu-gophers");
        let project = ProjectDir::sample_cuda_project().with_final_artifacts();
        let pending = client.begin_submit(&project, SubmitMode::Submit).unwrap();
        worker.step().unwrap();
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(receipt.success, "log: {:#?}", receipt.log);
        // Enforced Listing 2: full dataset + submission_code copy.
        assert!(receipt.log.iter().any(|l| l.contains("Submitting project")));
        // ~505ms for the 470ms spec.
        let secs = receipt.internal_timer_secs.unwrap();
        assert!((0.4..0.7).contains(&secs), "got {secs}");
        let rankings = rig.db.collection("rankings");
        let row = rankings.read().find_one(&doc! { "team" => "gpu-gophers" }).unwrap();
        assert!(row.get("runtime_secs").unwrap().as_f64().unwrap() > 0.0);
        assert!(row.get("time_cmd_secs").unwrap().as_f64().is_some());
        // The /build archive includes the submitted source snapshot.
        let build_url = receipt.build_url.unwrap();
        let obj = rig.store.get_presigned(&build_url).unwrap();
        let tree = restore_shared(&obj.data).unwrap();
        assert!(tree.contains("submission_code/main.cu"));
    }

    #[test]
    fn ranking_overwritten_by_later_submission() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        for _ in 0..2 {
            let project = ProjectDir::sample_cuda_project().with_final_artifacts();
            let pending = client.begin_submit(&project, SubmitMode::Submit).unwrap();
            worker.step().unwrap();
            pending.wait(Duration::from_millis(500)).unwrap();
        }
        assert_eq!(rig.db.collection("rankings").read().len(), 1, "one row per team");
        assert_eq!(rig.db.collection("submissions").read().len(), 2);
    }

    #[test]
    fn unauthenticated_job_rejected() {
        let rig = rig();
        // Client whose creds were never registered server-side.
        let creds = KeyGenerator::from_seed(123).generate("intruder");
        let client = RaiClient::new(
            creds,
            "intruder",
            rig.broker.clone(),
            rig.store.clone(),
            rig.next_id.clone(),
        );
        let mut worker = Worker::new(
            WorkerConfig::default(),
            rig.broker.clone(),
            rig.store.clone(),
            rig.db.clone(),
            rig.registry.clone(),
            rig.images.clone(),
        );
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let outcome = worker.step().unwrap();
        assert!(!outcome.success);
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(!receipt.success);
        assert!(receipt
            .log
            .iter()
            .any(|l| l.contains("authentication failed")));
    }

    #[test]
    fn non_whitelisted_image_rejected() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "sneaky");
        let mut project = ProjectDir::sample_cuda_project();
        project
            .tree
            .insert(
                "rai-build.yml",
                &b"rai:\n  version: 0.1\n  image: malicious/miner:latest\ncommands:\n  build:\n    - echo mining\n"[..],
            )
            .unwrap();
        let pending = client.begin_submit(&project, SubmitMode::Run).unwrap();
        let outcome = worker.step().unwrap();
        assert!(!outcome.success);
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(receipt.log.iter().any(|l| l.contains("not whitelisted")));
    }

    #[test]
    fn build_failure_reported_to_client() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-broken");
        let mut project = ProjectDir::sample_cuda_project();
        project
            .tree
            .insert("main.cu", &b"RAI_SYNTAX_ERROR\n"[..])
            .unwrap();
        let pending = client.begin_submit(&project, SubmitMode::Run).unwrap();
        let outcome = worker.step().unwrap();
        assert!(!outcome.success);
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(!receipt.success);
        assert!(receipt.log.iter().any(|l| l.contains("error:")));
    }

    #[test]
    fn image_pull_charged_once() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        let p1 = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let first = worker.step().unwrap();
        p1.wait(Duration::from_millis(500)).unwrap();
        let p2 = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let second = worker.step().unwrap();
        p2.wait(Duration::from_millis(500)).unwrap();
        // First job pays the multi-GB image pull; the second doesn't.
        assert!(first.service_time > second.service_time + SimDuration::from_secs(20));
    }

    #[test]
    fn worker_step_on_empty_queue_is_none() {
        let rig = rig();
        let (_client, mut worker) = client_and_worker(&rig, "team-a");
        assert!(worker.step().is_none());
    }

    #[test]
    fn a_bare_worker_records_its_jobs() {
        // No `set_telemetry`: the worker's own registry, on the store's
        // clock, holds the job's trace and counters.
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        assert!(worker.step().expect("job runs").success);
        let trace = worker.telemetry.job_trace(pending.job_id).expect("the job is traced");
        assert!(trace.is_monotone());
        for stage in [stage::DEQUEUED, stage::PULLED, stage::FETCHED, stage::RAN, stage::GRADED] {
            assert!(trace.stage_time(stage).is_some(), "no {stage} span");
        }
        let metrics = worker.telemetry.snapshot();
        assert_eq!(metrics.counter(names::JOBS_TOTAL, &[("kind", "run"), ("outcome", "ok")]), Some(1));
        assert_eq!(metrics.counter_total(names::SANDBOX_IMAGE_PULLS_TOTAL), 1);
        assert_eq!(metrics.counter_total(names::WORKER_CRASHES_TOTAL), 0);
    }

    #[test]
    fn a_job_among_neighbours_measures_slower() {
        // `max_in_flight` has one reader: a host with four slots
        // measures a job with three neighbours' contention.
        let measured_with = |max_in_flight: usize| {
            let rig = rig();
            let (client, _) = client_and_worker(&rig, "team-a");
            let mut worker = Worker::new(
                WorkerConfig { max_in_flight, noise_seed: 42, ..Default::default() },
                rig.broker.clone(),
                rig.store.clone(),
                rig.db.clone(),
                rig.registry.clone(),
                rig.images.clone(),
            );
            let project = ProjectDir::sample_cuda_project().with_final_artifacts();
            client.begin_submit(&project, SubmitMode::Submit).unwrap();
            worker.step().expect("job runs").measured_secs.expect("program ran")
        };
        let (alone, crowded) = (measured_with(1), measured_with(4));
        assert_eq!(alone, 0.505, "a single slot measures the program, nothing else");
        assert!(crowded > alone * 1.05, "three neighbours: {crowded} vs {alone}");
    }

    #[test]
    fn malformed_message_dropped_and_counted() {
        let rig = rig();
        let (_client, mut worker) = client_and_worker(&rig, "team-a");
        let telemetry = Telemetry::new(rig.store.clock().clone());
        worker.set_telemetry(telemetry.clone());
        rig.broker
            .publish(routes::TASK_TOPIC, &b"totally not a job"[..])
            .unwrap();
        assert!(worker.step().is_none());
        // Message was acked, not requeued.
        let stats = rig.broker.topic_stats(routes::TASK_TOPIC).unwrap();
        assert_eq!(stats.depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(
            telemetry.snapshot().counter_total(names::JOBS_MALFORMED_TOTAL),
            1,
            "malformed message counted"
        );
    }

    /// What a registered team can do without the client: upload any
    /// bytes, sign any build file, publish. Such a job must end like
    /// every rejected or failed one — `outcome` counted, a terminal
    /// failed row, the message acked — and never take the worker down.
    fn assert_ends_failed(upload: Vec<u8>, build_yml: String, outcome: &str) {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        let telemetry = Telemetry::new(rig.store.clock().clone());
        worker.set_telemetry(telemetry.clone());
        let creds = client.credentials();
        let upload_key = "team-a/00000001.tar.bz2";
        rig.store.put(crate::client::UPLOAD_BUCKET, upload_key, upload, []).unwrap();
        let mut request = JobRequest {
            job_id: 1,
            access_key: creds.access_key.clone(),
            signature: String::new(),
            team: "team-a".to_string(),
            upload_bucket: crate::client::UPLOAD_BUCKET.to_string(),
            upload_key: upload_key.to_string(),
            build_yml,
            kind: JobKind::Run,
        };
        request.signature =
            rai_auth::sign_request(&creds.secret_key, &creds.access_key, &request.signing_payload());
        rig.broker.publish(routes::TASK_TOPIC, request.encode()).unwrap();

        assert!(!worker.step().expect("the job is claimed").success);
        let counted = telemetry
            .snapshot()
            .counter(names::JOBS_TOTAL, &[("kind", "run"), ("outcome", outcome)]);
        assert_eq!(counted, Some(1), "rejected as {outcome}");
        let row = rig.db.collection("submissions").read().find_one(&doc! { "job_id" => 1u64 });
        assert_eq!(row.expect("terminal row").get("success"), Some(&Value::Bool(false)));
        let stats = rig.broker.topic_stats(routes::TASK_TOPIC).unwrap();
        assert_eq!((stats.depth, stats.in_flight), (0, 0), "acked, not requeued");
    }

    #[test]
    fn deeply_nested_build_file_is_a_rejected_job_not_a_dead_worker() {
        // Uncapped, 10 000 brackets overflow this thread's stack, and
        // an overflow aborts the process: nothing could catch it, and
        // the message would redeliver to the next worker.
        let build_yml = format!("a: {}1{}\n", "[".repeat(10_000), "]".repeat(10_000));
        let upload = write_container(&ProjectDir::sample_cuda_project().tree);
        assert_ends_failed(upload, build_yml, "bad-spec");
    }

    #[test]
    fn retired_compressed_upload_is_rejected_like_any_non_container() {
        // `RAIZ1` framed the LZSS bundle format workers once sniffed for
        // and decompressed; it is no longer a format, just not a
        // container.
        let mut upload = b"RAIZ1\0\0\0".to_vec();
        upload.extend_from_slice(&write_container(&ProjectDir::sample_cuda_project().tree));
        assert_ends_failed(upload, crate::spec::DEFAULT_BUILD_YML.to_string(), "fetch-failed");
    }

    #[test]
    fn transient_store_fault_retried_within_job() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        let telemetry = Telemetry::new(rig.store.clock().clone());
        worker.set_telemetry(telemetry.clone());
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        // One store fault after the client's upload: the worker's fetch
        // hits it and retries.
        rig.store.inject_faults(1);
        let outcome = worker.step().expect("job still completes");
        assert!(outcome.success);
        pending.wait(Duration::from_millis(500)).unwrap();
        let retried = telemetry.snapshot().counter_total(names::RETRIES_TOTAL);
        assert!(retried >= 1, "fetch retry counted, got {retried}");
    }

    #[test]
    fn crash_after_record_redelivers_and_records_exactly_once() {
        // Find a seed where job 1 dies at the Ack point on attempt 1
        // (after its upload + db record landed) and survives attempt 2
        // — the idempotency stress case.
        let plan_for = |seed: u64| FaultPlan {
            worker_crash: 0.35,
            ..FaultPlan::none(seed)
        };
        let all_points = [CrashPoint::Fetch, CrashPoint::Build, CrashPoint::Upload, CrashPoint::Ack];
        let seed = (0..2_000u64)
            .find(|&s| {
                let inj = FaultInjector::new(plan_for(s));
                matches!(inj.crash_decision(1, 1, CrashPoint::Ack), Some(CrashKind::Crash))
                    && all_points.iter().all(|&p| inj.crash_decision(1, 2, p).is_none())
            })
            .expect("some seed crashes job 1 at Ack on attempt 1 only");

        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        worker.set_fault_injector(FaultInjector::new(plan_for(seed)));
        let project = ProjectDir::sample_cuda_project().with_final_artifacts();
        let pending = client.begin_submit(&project, SubmitMode::Submit).unwrap();

        let StepEvent::Crashed(report) = worker.try_step() else {
            panic!("attempt 1 should crash");
        };
        assert_eq!(report.point, CrashPoint::Ack);
        // Side effects of attempt 1 already landed...
        assert_eq!(rig.db.collection("submissions").read().len(), 1);
        assert_eq!(rig.db.collection("rankings").read().len(), 1);

        // ...the restart releases the claim and attempt 2 reprocesses.
        worker.crash_recover();
        let StepEvent::Done(outcome) = worker.try_step() else {
            panic!("attempt 2 should complete");
        };
        assert!(outcome.success);
        pending.wait(Duration::from_millis(500)).unwrap();

        // Exactly one terminal row per job / per team, no duplicates.
        assert_eq!(rig.db.collection("submissions").read().len(), 1);
        assert_eq!(rig.db.collection("rankings").read().len(), 1);
        let row = rig
            .db
            .collection("submissions")
            .read()
            .find_one(&doc! { "job_id" => 1 })
            .unwrap();
        assert_eq!(row.get("success"), Some(&Value::Bool(true)));
        // Queue fully drained: nothing lost, nothing stuck in flight.
        let stats = rig.broker.topic_stats(routes::TASK_TOPIC).unwrap();
        assert_eq!((stats.depth, stats.in_flight), (0, 0));
    }

    #[test]
    fn poison_job_crashes_every_attempt_until_dead_lettered() {
        let mut plan = FaultPlan::none(7);
        plan.poison_every = Some(1); // every job is poison
        let mut rig = rig();
        rig.broker = Broker::new(rai_broker::BrokerConfig {
            max_attempts: 3,
            ..Default::default()
        });
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        worker.set_fault_injector(FaultInjector::new(plan));
        let dead = rig.broker.subscribe(
            &rai_broker::dead_letter_topic(routes::TASK_TOPIC, routes::TASK_CHANNEL),
            "audit",
        );
        client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        for _ in 0..3 {
            match worker.try_step() {
                StepEvent::Crashed(r) => {
                    assert_eq!(r.point, CrashPoint::Build);
                    worker.crash_recover();
                }
                other => panic!("poison job should crash every attempt, got {other:?}"),
            }
        }
        // Attempt cap reached: the message moved to the dead-letter
        // topic instead of the ready queue.
        assert!(worker.step().is_none(), "queue is empty for the worker");
        let msg = dead.try_recv().expect("poison job dead-lettered");
        assert!(JobRequest::decode(&msg.body_str()).is_some());
        dead.ack(msg.id);
        assert_eq!(rig.db.collection("submissions").read().len(), 0, "never reached a record");
    }

    /// The 16 lines Listing 1 prints for the sample project, as the
    /// client renders them.
    const LISTING1_OUTPUT: [&str; 16] = [
        "Building project",
        "-- The CUDA compiler identification is NVIDIA",
        "-- Hunter disabled: dependencies provided by the base image",
        "-- Configuring done; generating Makefile for target 'ece408'",
        "[ nvcc ] compiling (327 bytes)",
        "[100%] Built target ece408",
        "Loading fashion-mnist data...done",
        "Loading model...done",
        "Done with 10 queries in elapsed = 0.035 s",
        "Correctness: 0.9300",
        "[stderr] ==PROF== Profiling application: ./ece408 /data/test10.hdf5 /data/model.hdf5",
        "Loading fashion-mnist data...done",
        "Loading model...done",
        "Done with 10 queries in elapsed = 0.035 s",
        "Correctness: 0.9300",
        "[stderr] ==PROF== Generated result file: timeline.nvprof",
    ];

    /// Submit the sample project, run it on `worker`, and return how
    /// many messages its log topic carried (counted before the client
    /// drains it) with the receipt.
    fn submit_and_count(
        rig: &Rig,
        client: &RaiClient,
        worker: &mut Worker,
        mode: SubmitMode,
    ) -> (u64, crate::client::SubmitReceipt) {
        let project = ProjectDir::sample_cuda_project().with_final_artifacts();
        let pending = client.begin_submit(&project, mode).unwrap();
        worker.step().expect("job runs");
        let topic = routes::log_topic(pending.job_id);
        let published = rig.broker.topic_stats(&topic).expect("live until drained").published;
        (published, pending.wait(Duration::from_millis(500)).unwrap())
    }

    #[test]
    fn sample_project_transcripts_are_pinned() {
        // What the student sees, entry for entry: the worker's status
        // notes under `[rai]`, stdout bare, stderr under `[stderr]`;
        // `url` and `end` surface as fields, not lines.
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "gpu-gophers");
        let (_, run) = submit_and_count(&rig, &client, &mut worker, SubmitMode::Run);
        let mut expected = vec!["[rai] job accepted by worker-0", "[rai] pulling image webgpu/rai:root..."];
        expected.extend(LISTING1_OUTPUT);
        assert_eq!(run.log, expected);
        assert!(run.success);
        assert_eq!(run.internal_timer_secs, Some(0.035));
        let url = run.build_url.expect("url frame");
        assert!(url.starts_with("rai-s3://rai-builds/gpu-gophers/00000001-build.tar.bz2?expires="), "{url}");

        // The enforced Listing 2 file, on the now warm worker.
        let (_, fin) = submit_and_count(&rig, &client, &mut worker, SubmitMode::Submit);
        assert_eq!(
            fin.log,
            [
                "[rai] job accepted by worker-0",
                "Submitting project",
                "-- The CUDA compiler identification is NVIDIA",
                "-- Hunter disabled: dependencies provided by the base image",
                "-- Configuring done; generating Makefile for target 'ece408'",
                "[ nvcc ] compiling (327 bytes)",
                "[100%] Built target ece408",
                "Loading fashion-mnist data...done",
                "Loading model...done",
                "Done with 10000 queries in elapsed = 0.505 s",
                "Correctness: 0.9300",
                "[stderr] 0.49user 0.01system 0:00.51elapsed 99%CPU",
            ]
        );
        assert!(fin.success);
        assert_eq!(fin.internal_timer_secs, Some(0.505));
        assert!(fin.build_url.expect("url frame").contains("/00000002-build.tar.bz2?"));
    }

    #[test]
    fn a_job_is_three_log_messages() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        // A worker's first job says it is pulling the image: one more.
        let (cold, _) = submit_and_count(&rig, &client, &mut worker, SubmitMode::Run);
        assert_eq!(cold, 4, "accepted | pulling image | output | url+end");
        let (warm, receipt) = submit_and_count(&rig, &client, &mut worker, SubmitMode::Run);
        assert_eq!(warm, 3, "accepted | output | url+end");
        assert_eq!(receipt.log.len(), 1 + LISTING1_OUTPUT.len(), "one entry per frame all the same");

        // A rejection is the accepted note, then `err` + `end` together.
        let intruder = RaiClient::new(
            KeyGenerator::from_seed(123).generate("intruder"),
            "intruder",
            rig.broker.clone(),
            rig.store.clone(),
            rig.next_id.clone(),
        );
        let (rejected, receipt) = submit_and_count(&rig, &intruder, &mut worker, SubmitMode::Run);
        assert_eq!(rejected, 2, "accepted | err+end");
        assert!(!receipt.success);
        assert_eq!(receipt.log.len(), 2);
        assert!(receipt.log[1].starts_with("[stderr] authentication failed"), "{:?}", receipt.log);
    }

    #[test]
    fn log_bytes_is_the_sum_of_the_frames_not_of_the_framing() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        // A second channel on the log topic sees a copy of every message.
        let topic = routes::log_topic(pending.job_id);
        let audit = rig.broker.subscribe_ephemeral(&topic, "audit");
        worker.step().expect("job runs");
        let bodies: Vec<String> = std::iter::from_fn(|| audit.try_recv())
            .map(|m| m.body_str().into_owned())
            .collect();
        assert_eq!(bodies.len(), 4);
        assert_eq!(bodies[0], "sts job accepted by worker-0", "a one-frame block is the frame");
        assert_eq!(bodies[2].lines().count(), LISTING1_OUTPUT.len());
        assert!(bodies[3].starts_with("url rai-s3://") && bodies[3].ends_with("\nend ok"), "{}", bodies[3]);

        let frames: Vec<LogFrame> = bodies.iter().flat_map(|b| crate::protocol::decode_block(b)).collect();
        assert_eq!(frames.len(), 2 + LISTING1_OUTPUT.len() + 2);
        let frame_bytes: usize = frames.iter().map(|f| f.encode().len()).sum();
        let row = rig.db.collection("submissions").read().find_one(&doc! { "job_id" => 1u64 }).unwrap();
        assert_eq!(row.get("log_bytes"), Some(&Value::from(frame_bytes as u64)));
        // The line separators — fifteen in the output block, one in
        // the closing block — are framing: carried, not counted.
        let carried: usize = bodies.iter().map(String::len).sum();
        assert_eq!(carried, frame_bytes + (LISTING1_OUTPUT.len() - 1) + 1);
    }

    #[test]
    fn a_flood_of_output_is_capped_everywhere_it_would_be_held() {
        // 2 MiB of `cat`: uncapped, the container holds it, the block
        // copies it, the topic keeps it, the client copies it again and
        // the row counts it.
        use rai_sandbox::MAX_OUTPUT_BYTES;
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        let mut project = ProjectDir::sample_cuda_project();
        let line = "0123456789abcdef".repeat(4);
        project.tree.insert("big.txt", (line.clone() + "\n").repeat(1 << 14).into_bytes()).unwrap();
        project
            .tree
            .insert(
                "rai-build.yml",
                &b"rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    - cat /src/big.txt\n    - cat /src/big.txt\n"[..],
            )
            .unwrap();
        let pending = client.begin_submit(&project, SubmitMode::Run).unwrap();
        let topic = routes::log_topic(pending.job_id);
        let audit = rig.broker.subscribe_ephemeral(&topic, "audit");
        assert!(worker.step().expect("job runs").success, "the exit status is the commands'");

        // What the worker itself says around the output — accepted,
        // pulling image, truncated, url, end — fits in this.
        const WORKER_FRAMES: usize = 512;
        let bodies: Vec<String> = std::iter::from_fn(|| audit.try_recv())
            .map(|m| m.body_str().into_owned())
            .collect();
        assert_eq!(bodies.len(), 4, "accepted | pulling image | output | url+end");
        assert!(bodies[2].len() > MAX_OUTPUT_BYTES / 2, "the block is the flood");
        assert!(bodies[2].len() <= MAX_OUTPUT_BYTES + WORKER_FRAMES, "block of {} bytes", bodies[2].len());
        let on_topic: usize = bodies.iter().map(String::len).sum();
        assert!(on_topic <= MAX_OUTPUT_BYTES + WORKER_FRAMES, "{on_topic} bytes on the topic");

        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(receipt.success && receipt.build_url.is_some());
        let transcript: usize = receipt.log.iter().map(String::len).sum();
        assert!(transcript <= MAX_OUTPUT_BYTES + WORKER_FRAMES, "{transcript} bytes of transcript");
        // `End` is a field of the receipt, so the truncation note is
        // the transcript's last line, after the last line that fit.
        let [.., fit, note] = &receipt.log[..] else { panic!("a two-line transcript at least") };
        assert_eq!((fit, note.as_str()), (&line, "[stderr] … output truncated"));

        let row = rig.db.collection("submissions").read().find_one(&doc! { "job_id" => 1u64 }).unwrap();
        let log_bytes = row.get("log_bytes").and_then(Value::as_i64).expect("counted") as usize;
        assert!(bodies[2].len() / 2 < log_bytes && log_bytes <= MAX_OUTPUT_BYTES + WORKER_FRAMES, "{log_bytes}");
    }

    #[test]
    fn crash_at_upload_has_still_flushed_the_output() {
        let plan_for = |seed: u64| FaultPlan {
            worker_crash: 0.35,
            ..FaultPlan::none(seed)
        };
        let seed = (0..2_000u64)
            .find(|&s| {
                let inj = FaultInjector::new(plan_for(s));
                [CrashPoint::Fetch, CrashPoint::Build].iter().all(|&p| inj.crash_decision(1, 1, p).is_none())
                    && inj.crash_decision(1, 1, CrashPoint::Upload).is_some()
            })
            .expect("some seed fails job 1 at Upload on attempt 1");
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        worker.set_fault_injector(FaultInjector::new(plan_for(seed)));
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let audit = rig.broker.subscribe_ephemeral(&routes::log_topic(pending.job_id), "audit");
        let StepEvent::Crashed(report) = worker.try_step() else { panic!("attempt 1 should crash") };
        assert_eq!(report.point, CrashPoint::Upload);
        // The build ran, so the student has its output — accepted,
        // pulling image, the block — but no url and no end yet.
        let bodies: Vec<String> = std::iter::from_fn(|| audit.try_recv())
            .map(|m| m.body_str().into_owned())
            .collect();
        assert_eq!(bodies.len(), 3);
        let output: Vec<LogFrame> = crate::protocol::decode_block(&bodies[2]).collect();
        assert_eq!(output.len(), LISTING1_OUTPUT.len());
        assert_eq!(output[0], LogFrame::Out("Building project".into()));
        assert!(!bodies.iter().any(|b| b.contains("end ")));
    }

    #[test]
    fn deeply_wrapped_command_is_a_failed_job_not_a_dead_worker() {
        // One interpreter recursion per `time`: uncapped, this command
        // overflows the worker thread's stack — an abort, so the
        // message would redeliver and kill the next worker too.
        let build_yml = format!(
            "rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    - {}true\n",
            "time ".repeat(100_000)
        );
        let upload = write_container(&ProjectDir::sample_cuda_project().tree);
        assert_ends_failed(upload, build_yml, "failed");
    }
}
