//! Whole-system assembly: one call stands up the broker, file server,
//! database, credential registry, image registry and a worker fleet —
//! the in-process equivalent of the paper's Fig. 1 deployment.

use crate::client::{
    PendingJob, ProjectDir, RaiClient, SubmitError, SubmitMode, SubmitReceipt, BUILD_BUCKET,
    UPLOAD_BUCKET,
};
use crate::interactive::{InteractiveSession, SessionBroker, SessionError};
use crate::ranking::RankingBoard;
use crate::ratelimit::{RateDecision, RateLimiter};
use crate::worker::{
    ClaimedJob, ExecutedJob, JobOutcome, PoppedTask, StepEvent, Worker, WorkerConfig,
};
use parking_lot::RwLock;
use rai_auth::{Credentials, CredentialRegistry, KeyGenerator};
use rai_broker::{Broker, BrokerConfig};
use rai_faults::{CrashKind, FaultInjector, FaultPlan};
use rai_db::{doc, Database};
use rai_sandbox::ImageRegistry;
use rai_sim::{SimDuration, VirtualClock};
use rai_store::{LifecycleRule, ObjectStore, StoreRecovery, StoreUsage};
use rai_telemetry::{component, names, stage, MetricsSnapshot, Telemetry};
use rai_wal::{DurabilityConfig, LogBackend, Wal};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deployment configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Worker count. Each worker runs one job at a time on a K80-speed
    /// GPU ([`WorkerConfig::default`]).
    pub workers: usize,
    /// Per-user minimum submission interval; `None` disables.
    pub rate_limit: Option<SimDuration>,
    /// Seed for key generation and worker noise.
    pub seed: u64,
    /// Per-message delivery cap before the broker dead-letters it
    /// (0 disables). Bounds redelivery loops from poison jobs.
    pub broker_attempts: u32,
    /// Deterministic fault plan; `None` (and [`FaultPlan::none`]) run
    /// the system fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Tuning for the write-ahead logs behind the database and the
    /// object store. Whether they exist is chosen by constructor, not
    /// here: [`RaiSystem::with_clock_durable`] and
    /// [`RaiSystem::recover_with_clock`] attach them to the backends
    /// they are given, [`RaiSystem::with_clock`] runs in memory and
    /// never reads this (DESIGN.md §14).
    pub durability: DurabilityConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            workers: 1,
            rate_limit: Some(SimDuration::from_secs(30)),
            seed: 0x5EED,
            broker_attempts: 8,
            fault_plan: None,
            durability: DurabilityConfig::default(),
        }
    }
}

/// What crash recovery replayed from the two write-ahead logs.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Database replay outcome.
    pub db: rai_db::DbRecovery,
    /// Object-store replay outcome.
    pub store: StoreRecovery,
}

/// Aggregate usage numbers (paper §VII "Resource Usage").
#[derive(Clone, Debug)]
pub struct SystemReport {
    /// File-server usage.
    pub store: StoreUsage,
    /// Telemetry snapshot (counters, gauges, stage histograms).
    pub metrics: MetricsSnapshot,
}

/// An in-process RAI deployment.
pub struct RaiSystem {
    clock: VirtualClock,
    broker: Broker,
    store: ObjectStore,
    db: Database,
    registry: Arc<RwLock<CredentialRegistry>>,
    images: Arc<ImageRegistry>,
    workers: Vec<Worker>,
    rate_limiter: Option<RateLimiter>,
    keygen: KeyGenerator,
    next_job_id: Arc<AtomicU64>,
    sessions: SessionBroker,
    telemetry: Telemetry,
    injector: Option<FaultInjector>,
}

/// In-flight timeout used when a stalled worker holds a claim:
/// [`RaiSystem::settle`] advances the clock past it and reclaims.
const MESSAGE_TIMEOUT: SimDuration = SimDuration::from_mins(10);

/// What the commits of one [`RaiSystem::run_round`] left for
/// [`RaiSystem::settle`].
#[derive(Debug, Default)]
#[must_use = "a driver that owns the clock settles the round"]
pub struct RoundTally {
    /// Summed service time (or wasted time, for crashes) of the
    /// committed jobs.
    advance: SimDuration,
    /// Whether a committed job stalled, holding its claim.
    stalled: bool,
    /// Workers whose committed job crashed or stalled.
    crashed: Vec<usize>,
    /// Whether the visitor cut the round short.
    cut_short: bool,
}

impl RaiSystem {
    /// Stand up a deployment.
    pub fn new(config: SystemConfig) -> Self {
        let clock = VirtualClock::new();
        Self::with_clock(config, clock)
    }

    /// Stand up a deployment on an existing clock (for discrete-event
    /// drivers).
    pub fn with_clock(config: SystemConfig, clock: VirtualClock) -> Self {
        let store = ObjectStore::new(clock.clone());
        let db = Database::new();
        Self::finish_deploy(config, clock, db, store, None)
    }

    /// Stand up a *durable* deployment: every committed database and
    /// store mutation is journaled to the supplied log backends, and
    /// [`RaiSystem::recover_with_clock`] can rebuild the deployment
    /// from them after a crash (DESIGN.md §14).
    pub fn with_clock_durable(
        config: SystemConfig,
        clock: VirtualClock,
        db_log: Arc<dyn LogBackend>,
        store_log: Arc<dyn LogBackend>,
    ) -> Self {
        let store = ObjectStore::new(clock.clone());
        let db = Database::new();
        // Attach before the first mutation so the logs cover the whole
        // history — bucket creation and index builds included.
        db.attach_wal(Wal::open(db_log, config.durability));
        store.attach_wal(Wal::open(store_log, config.durability));
        Self::finish_deploy(config, clock, db, store, None)
    }

    /// Rebuild a deployment from its write-ahead logs after a crash.
    ///
    /// Process state (broker queues, worker claims, in-memory
    /// credentials) died with the process and is stood up fresh;
    /// durable state (database, store) is replayed. The caller then
    /// re-registers teams in their original order (credentials are
    /// deterministic in seed + order), re-subscribes any audit taps,
    /// and calls [`RaiSystem::republish_pending`] to re-enqueue
    /// accepted submissions that never reached a terminal row — the
    /// at-least-once path that makes a mid-run kill recoverable.
    ///
    /// `injector` carries over the *environment's* fault state: the
    /// injector's draw counters model the outside world (which doesn't
    /// reset when the service restarts), so restart-resume runs pass
    /// the pre-kill injector here. `None` creates a fresh one from
    /// `config.fault_plan`.
    pub fn recover_with_clock(
        config: SystemConfig,
        clock: VirtualClock,
        db_log: Arc<dyn LogBackend>,
        store_log: Arc<dyn LogBackend>,
        injector: Option<FaultInjector>,
    ) -> (Self, RecoveryReport) {
        let (db, db_recovery) = Database::recover(Wal::open(db_log, config.durability));
        let (store, store_recovery) =
            ObjectStore::recover(clock.clone(), Wal::open(store_log, config.durability));
        let system = Self::finish_deploy(config, clock, db, store, injector);
        // Job ids resume after the highest journaled intent so
        // post-recovery submissions never collide with replayed ones.
        let max_seen = system
            .db
            .collection("intents")
            .read()
            .find(&doc! {})
            .iter()
            .filter_map(|row| row.get("job_id").and_then(rai_db::Value::as_i64))
            .max()
            .unwrap_or(0);
        system.next_job_id.store(max_seen as u64 + 1, Ordering::Relaxed);
        (system, RecoveryReport { db: db_recovery, store: store_recovery })
    }

    /// Shared tail of every constructor: buckets/indexes (idempotent —
    /// replayed state is left alone), fault layer, worker fleet,
    /// telemetry collectors.
    fn finish_deploy(
        config: SystemConfig,
        clock: VirtualClock,
        db: Database,
        store: ObjectStore,
        injector_override: Option<FaultInjector>,
    ) -> Self {
        let broker = Broker::with_clock(
            BrokerConfig { max_attempts: config.broker_attempts },
            clock.clone(),
        );
        if !store.has_bucket(UPLOAD_BUCKET) {
            store
                .create_bucket(UPLOAD_BUCKET, LifecycleRule::one_month_after_last_use())
                .expect("bucket absence just checked");
        }
        if !store.has_bucket(BUILD_BUCKET) {
            store
                .create_bucket(BUILD_BUCKET, LifecycleRule::AfterUpload(SimDuration::from_days(90)))
                .expect("bucket absence just checked");
        }
        // The write paths these serve: one submissions upsert per job
        // attempt (keyed by job_id), one rankings upsert per final
        // submission (keyed by team), leaderboard reads sorted by
        // runtime_secs, and team lookups at registration.
        db.collection("submissions").write().create_index("job_id");
        let rankings = db.collection("rankings");
        rankings.write().create_index("team");
        rankings.write().create_index("runtime_secs");
        db.collection("teams").write().create_index("team");
        if db.wal().is_some() {
            // The recovery path scans intents by job_id (one point
            // lookup per accepted submission).
            db.collection("intents").write().create_index("job_id");
        }
        let registry = Arc::new(RwLock::new(CredentialRegistry::new()));
        let images = Arc::new(ImageRegistry::course_default());
        let telemetry = Telemetry::new(clock.clone());
        // Attach the deterministic fault layer before any traffic
        // flows. A recovery pass hands in the pre-crash injector: its
        // draw counters model the environment, which does not reset
        // when the service restarts.
        let injector = injector_override
            .or_else(|| config.fault_plan.clone().map(FaultInjector::new));
        if let Some(inj) = &injector {
            store.set_fault_injector(inj.clone());
            db.set_fault_injector(inj.clone());
            broker.set_fault_injector(inj.clone());
        }
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let mut w = Worker::new(
                    WorkerConfig {
                        worker_id: format!("worker-{i:02}"),
                        noise_seed: config.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                        ..Default::default()
                    },
                    broker.clone(),
                    store.clone(),
                    db.clone(),
                    registry.clone(),
                    images.clone(),
                );
                w.set_telemetry(telemetry.clone());
                if let Some(inj) = &injector {
                    w.set_fault_injector(inj.clone());
                }
                w
            })
            .collect();
        // Pull-style collectors: broker / store / db keep their own
        // counters; these mirror them into the registry at snapshot time.
        {
            let broker = broker.clone();
            telemetry.register_collector(move |reg| {
                let s = broker.stats();
                reg.counter(names::BROKER_PUBLISHED_TOTAL, &[]).store(s.published);
                reg.counter(names::BROKER_ACKED_TOTAL, &[]).store(s.acked);
                reg.counter(names::BROKER_REQUEUED_TOTAL, &[]).store(s.requeued);
                reg.counter(names::DEAD_LETTERED_TOTAL, &[]).store(s.dead_lettered);
                reg.gauge(names::BROKER_QUEUE_DEPTH, &[]).set(s.depth as f64);
                reg.gauge(names::BROKER_IN_FLIGHT, &[]).set(s.in_flight as f64);
                reg.gauge(names::BROKER_CHANNELS, &[]).set(s.channels as f64);
            });
            if let Some(inj) = injector.clone() {
                telemetry.register_collector(move |reg| {
                    for (kind, n) in inj.injected_counts() {
                        reg.counter(names::FAULTS_INJECTED_TOTAL, &[("kind", kind)]).store(n);
                    }
                });
            }
            let store2 = store.clone();
            telemetry.register_collector(move |reg| {
                let u = store2.usage();
                reg.counter(names::STORE_BYTES_UPLOADED_TOTAL, &[]).store(u.bytes_uploaded);
                reg.counter(names::STORE_BYTES_DOWNLOADED_TOTAL, &[]).store(u.bytes_downloaded);
                reg.counter(names::STORE_PUTS_TOTAL, &[]).store(u.puts);
                reg.counter(names::STORE_GETS_TOTAL, &[]).store(u.gets);
                reg.counter(names::STORE_EXPIRED_TOTAL, &[]).store(u.expired);
                reg.gauge(names::STORE_BYTES_STORED, &[]).set(u.bytes_stored as f64);
                reg.gauge(names::STORE_OBJECTS, &[]).set(u.objects as f64);
                // Dedup split: logical = what a plain store would hold,
                // physical = distinct chunk bytes actually resident.
                reg.gauge(names::STORE_BYTES_LOGICAL, &[]).set(u.bytes_stored as f64);
                reg.gauge(names::STORE_BYTES_PHYSICAL, &[]).set(u.bytes_physical as f64);
                reg.gauge(names::STORE_METADATA_BYTES, &[]).set(u.metadata_bytes as f64);
                reg.gauge(names::STORE_CHUNKS, &[]).set(u.chunks as f64);
                reg.counter(names::STORE_CHUNKS_DEDUP_TOTAL, &[]).store(u.chunks_dedup_total);
                reg.counter(names::STORE_BYTES_WIRE_TOTAL, &[]).store(u.bytes_wire);
                reg.counter(names::STORE_DELTA_PUTS_TOTAL, &[]).store(u.delta_puts);
                // Contended wait on the store's state lock. A host
                // fact — it varies with scheduling, never with the
                // simulation.
                reg.counter(names::LOCK_WAIT_MICROS_TOTAL, &[]).store(store2.lock_wait_micros());
            });
            let db2 = db.clone();
            telemetry.register_collector(move |reg| {
                let t = db2.total_stats();
                reg.counter(names::DB_INSERTS_TOTAL, &[]).store(t.inserts);
                reg.counter(names::DB_QUERIES_TOTAL, &[]).store(t.queries);
                reg.counter(names::DB_UPDATES_TOTAL, &[]).store(t.updates);
            });
            // Write-ahead log counters, one label set per journal.
            for (label, wal) in [("db", db.wal()), ("store", store.wal())] {
                let Some(wal) = wal else { continue };
                telemetry.register_collector(move |reg| {
                    let s = wal.stats();
                    let l = &[("log", label)];
                    reg.counter(names::WAL_APPENDS_TOTAL, l).store(s.appends);
                    reg.counter(names::WAL_BYTES_TOTAL, l).store(s.bytes);
                    reg.counter(names::WAL_FSYNC_BATCHES_TOTAL, l).store(s.fsync_batches);
                    reg.counter(names::WAL_REPLAYED_RECORDS_TOTAL, l).store(s.replayed);
                    reg.counter(names::WAL_CORRUPT_RECORDS_DROPPED_TOTAL, l)
                        .store(s.corrupt_dropped);
                    reg.counter(names::WAL_COMPACTIONS_TOTAL, l).store(s.compactions);
                    reg.gauge(names::WAL_SEGMENTS, l).set(s.segments as f64);
                    reg.gauge(names::WAL_LOG_BYTES, l).set(s.log_bytes as f64);
                });
            }
        }
        let rate_limiter = config
            .rate_limit
            .map(|d| RateLimiter::new(clock.clone(), d));
        let images2 = images.clone();
        RaiSystem {
            clock,
            broker,
            store,
            db,
            registry,
            images,
            workers,
            rate_limiter,
            keygen: KeyGenerator::from_seed(config.seed),
            next_job_id: Arc::new(AtomicU64::new(1)),
            sessions: SessionBroker::new(images2),
            telemetry,
            injector,
        }
    }

    /// Register a team (generating credentials) and record its members.
    pub fn register_team(&mut self, team: &str, members: &[&str]) -> Credentials {
        let creds = self.keygen.generate(team);
        self.registry.write().register(creds.clone());
        self.db.collection("teams").write().insert_one(doc! {
            "team" => team,
            "members" => members.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
            "access_key" => creds.access_key.as_str(),
        });
        creds
    }

    /// Re-issue a recovered team's credentials without inserting a new
    /// teams row (the row was replayed from the log). The key
    /// generator is deterministic in (seed, call order), so
    /// re-registering teams in their original order reproduces the
    /// original credentials — and the signatures inside journaled job
    /// requests keep verifying after a restart.
    pub fn reregister_team(&mut self, team: &str) -> Credentials {
        let creds = self.keygen.generate(team);
        self.registry.write().register(creds.clone());
        creds
    }

    /// Journaled submission intents with no terminal submissions row,
    /// in job-id (= original publish) order: `(job_id, encoded
    /// request)`. These are the accepted submissions a crash left
    /// in flight.
    pub(crate) fn pending_intents(&self) -> Vec<(u64, String)> {
        let intents = self.db.collection("intents");
        let submissions = self.db.collection("submissions");
        let mut out: Vec<(u64, String)> = Vec::new();
        for row in intents.read().find(&doc! {}) {
            let Some(id) = row.get("job_id").and_then(rai_db::Value::as_i64) else { continue };
            let Some(state) = row.get("state").and_then(rai_db::Value::as_str) else { continue };
            let Some(req) = row.get("req").and_then(rai_db::Value::as_str) else { continue };
            // "rejected" intents surfaced a visible error to the
            // student; everything else is at-least-once territory.
            if state != "pending" && state != "published" {
                continue;
            }
            if submissions
                .read()
                .find_one(&doc! { "job_id" => id })
                .is_some()
            {
                continue;
            }
            out.push((id as u64, req.to_string()));
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Re-enqueue every pending intent after recovery (the broker's
    /// queues died with the process). Publishes bypass fault
    /// injection — each request already survived its fault roll when
    /// first accepted. Returns how many jobs were re-published.
    pub fn republish_pending(&self) -> u64 {
        let mut republished = 0u64;
        for (_, req) in self.pending_intents() {
            if self
                .broker
                .publish_durable(crate::protocol::routes::TASK_TOPIC, req.into_bytes())
                .is_ok()
            {
                republished += 1;
            }
        }
        republished
    }

    /// Force both write-ahead logs' buffered appends to stable
    /// storage. No-op for non-durable deployments.
    pub fn sync_wals(&self) {
        self.db.sync_wal();
        self.store.sync_wal();
    }

    /// Compact both logs if their size warrants it (quiesced points
    /// only — e.g. between submission rounds). Returns (db, store)
    /// compaction flags.
    pub fn maybe_compact(&self) -> (bool, bool) {
        (self.db.maybe_compact(), self.store.maybe_compact())
    }

    /// Register an instructor: issues credentials and grants interactive
    /// session access (the paper's §VIII future work).
    pub fn register_instructor(&mut self, name: &str) -> Credentials {
        let creds = self.keygen.generate(name);
        self.registry.write().register(creds.clone());
        self.sessions.grant(&creds.access_key);
        creds
    }

    /// Open an interactive session (instructors only).
    pub fn open_session(
        &self,
        creds: &Credentials,
        project: &rai_archive::FileTree,
    ) -> Result<InteractiveSession, SessionError> {
        self.sessions.open(&creds.access_key, project)
    }

    /// A client handle for previously issued credentials.
    pub fn client_for(&self, creds: &Credentials) -> RaiClient {
        let mut client = RaiClient::new(
            creds.clone(),
            &creds.user_name,
            self.broker.clone(),
            self.store.clone(),
            self.next_job_id.clone(),
        );
        if self.db.wal().is_some() {
            // Durable deployments journal a submission intent before
            // publishing, closing the accepted-but-unqueued crash
            // window (DESIGN.md §14).
            client = client.with_intent_ledger(self.db.clone());
        }
        client
    }

    fn check_rate(&self, creds: &Credentials) -> Result<(), SubmitError> {
        if let Some(rl) = &self.rate_limiter {
            if let RateDecision::Denied { retry_after } = rl.check(&creds.access_key) {
                self.telemetry
                    .counter(names::RATELIMIT_DENIED_TOTAL, &[])
                    .inc();
                return Err(SubmitError::RateLimited {
                    retry_after_secs: retry_after.as_secs(),
                });
            }
        }
        Ok(())
    }

    /// Submit a development run and drive it to completion.
    pub fn submit(&mut self, creds: &Credentials, project: &ProjectDir) -> Result<SubmitReceipt, SubmitError> {
        self.submit_mode(creds, project, SubmitMode::Run)
    }

    /// Make a final submission (`rai submit`) and drive it to
    /// completion.
    pub fn submit_final(
        &mut self,
        creds: &Credentials,
        project: &ProjectDir,
    ) -> Result<SubmitReceipt, SubmitError> {
        self.submit_mode(creds, project, SubmitMode::Submit)
    }

    fn submit_mode(
        &mut self,
        creds: &Credentials,
        project: &ProjectDir,
        mode: SubmitMode,
    ) -> Result<SubmitReceipt, SubmitError> {
        let pending = self.begin_submit(creds, project, mode)?;
        let job_id = pending.job_id;
        self.drive_until(|o| o.job_id == job_id);
        pending.wait(Duration::from_millis(500))
    }

    /// Accept one submission without driving it — the one acceptance
    /// path, so the rate limit is checked here: package, upload and
    /// publish through a fresh client for `creds`, then open the job's
    /// trace. Attempt 0 is the client's submit subtree (worker attempts
    /// start at 1); the client uploads and publishes in one step, so
    /// submit and enqueue share a timestamp.
    pub fn begin_submit(
        &self,
        creds: &Credentials,
        project: &ProjectDir,
        mode: SubmitMode,
    ) -> Result<PendingJob, SubmitError> {
        self.check_rate(creds)?;
        let pending = self.client_for(creds).begin_submit(project, mode)?;
        let now = self.clock.now();
        self.telemetry
            .trace_span(pending.job_id, 0, stage::SUBMITTED, component::CLIENT, now, now);
        self.telemetry
            .trace_span(pending.job_id, 0, stage::ENQUEUED, component::BROKER, now, now);
        Ok(pending)
    }

    /// Drive the fleet until `stop` matches an outcome or no worker
    /// makes progress, one settled round at a time: each round pops at
    /// most one job per worker, in worker order. A round that matches
    /// `stop` still commits and settles in full. Returns all outcomes
    /// observed.
    pub(crate) fn drive_until(&mut self, stop: impl Fn(&JobOutcome) -> bool) -> Vec<JobOutcome> {
        let mut outcomes = Vec::new();
        let mut stop_hit = false;
        while !stop_hit {
            let popped: Vec<(usize, PoppedTask)> = self
                .workers
                .iter_mut()
                .enumerate()
                .filter_map(|(wi, w)| w.pop_task().map(|p| (wi, p)))
                .collect();
            if popped.is_empty() {
                break;
            }
            let tally = self.run_round(popped, |event| {
                if let StepEvent::Done(outcome) = event {
                    stop_hit |= stop(&outcome);
                    outcomes.push(outcome);
                }
                ControlFlow::Continue(())
            });
            self.settle(tally);
        }
        outcomes
    }

    /// One scheduling round over already-popped tasks (DESIGN.md §12):
    /// run each claim tail on the worker that popped it, in pop order;
    /// execute every claim; then commit in claim order, handing each
    /// event to `visit`. Who pops is the caller's policy; claim and
    /// commit are the only phases that touch broker/store/db, so commit
    /// order is the fault-draw order.
    ///
    /// `visit` runs between commits. Returning `Break` cuts the round
    /// short — the process dies here: the remaining executions are
    /// dropped with their claims neither acked nor released.
    ///
    /// The round never moves the clock. A driver that owns the clock
    /// passes the tally to [`RaiSystem::settle`]; one whose clock an
    /// event engine owns, and whose jobs cannot crash, drops it.
    pub fn run_round(
        &mut self,
        popped: Vec<(usize, PoppedTask)>,
        mut visit: impl FnMut(StepEvent) -> ControlFlow<()>,
    ) -> RoundTally {
        let claimed: Vec<(usize, ClaimedJob)> = popped
            .into_iter()
            .map(|(wi, p)| (wi, self.workers[wi].claim_popped(p)))
            .collect();
        let executed: Vec<(usize, ExecutedJob)> = claimed
            .into_iter()
            .map(|(wi, claimed)| (wi, Worker::execute(claimed)))
            .collect();
        let mut tally = RoundTally::default();
        for (wi, executed) in executed {
            let event = self.workers[wi].commit(executed);
            match &event {
                StepEvent::Idle => unreachable!("commit always seals its claim"),
                StepEvent::Done(outcome) => tally.advance += outcome.service_time,
                StepEvent::Crashed(report) => {
                    tally.advance += report.wasted;
                    tally.stalled |= report.kind == CrashKind::Stall;
                    tally.crashed.push(wi);
                }
            }
            if visit(event).is_break() {
                tally.cut_short = true;
                break;
            }
        }
        tally
    }

    /// Settle a round: advance the clock once by the committed jobs'
    /// summed service time, then restart the workers whose job crashed
    /// — after a stall, first waiting out the in-flight timeout so the
    /// broker reclaims the held messages. Either way the job messages
    /// survive to a later attempt. A round cut short only advances the
    /// clock: nothing is reclaimed or restarted in a dead process.
    pub fn settle(&mut self, tally: RoundTally) {
        self.clock.advance(tally.advance);
        if tally.cut_short {
            return;
        }
        if tally.stalled {
            // Frozen processes hold their claims until the broker's
            // message timeout passes.
            self.clock.advance(MESSAGE_TIMEOUT);
            self.broker.reclaim_expired(MESSAGE_TIMEOUT);
        }
        for wi in tally.crashed {
            self.workers[wi].crash_recover();
        }
    }

    /// Drain every queued job.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        self.drive_until(|_| false)
    }

    /// The leaderboard.
    pub fn rankings(&self) -> RankingBoard {
        RankingBoard::new(self.db.clone())
    }

    /// Aggregate usage report.
    pub fn report(&self) -> SystemReport {
        SystemReport { store: self.store.usage(), metrics: self.telemetry.snapshot() }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The database (for instructor tooling).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The broker.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The image registry.
    pub fn images(&self) -> &Arc<ImageRegistry> {
        &self.images
    }

    /// The credential registry.
    pub fn registry(&self) -> &Arc<RwLock<CredentialRegistry>> {
        &self.registry
    }

    /// The telemetry handle (metrics registry, spans, job traces).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The attached fault injector, when a fault plan is active.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Direct worker access (ablation experiments).
    pub fn workers_mut(&mut self) -> &mut [Worker] {
        &mut self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let mut system = RaiSystem::new(SystemConfig::default());
        let creds = system.register_team("team-rust", &["alice", "bob"]);
        let receipt = system
            .submit(&creds, &ProjectDir::sample_cuda_project())
            .expect("submission should succeed");
        assert!(receipt.success);
        assert!(receipt.log.iter().any(|l| l.contains("Building project")));
        assert_eq!(system.db().collection("submissions").read().len(), 1);
        assert_eq!(system.db().collection("teams").read().len(), 1);
    }

    #[test]
    fn final_submission_updates_leaderboard() {
        let mut system = RaiSystem::new(SystemConfig {
            rate_limit: None,
            ..Default::default()
        });
        let fast = system.register_team("fast", &[]);
        let slow = system.register_team("slow", &[]);
        system
            .submit_final(
                &fast,
                &ProjectDir::cuda_project_with_perf(400.0, 0.93, 1024).with_final_artifacts(),
            )
            .unwrap();
        system
            .submit_final(
                &slow,
                &ProjectDir::cuda_project_with_perf(1500.0, 0.91, 1024).with_final_artifacts(),
            )
            .unwrap();
        let standings = system.rankings().standings();
        assert_eq!(standings[0].0, "fast");
        assert_eq!(standings[1].0, "slow");
        assert_eq!(system.rankings().rank_of("slow"), Some(2));
    }

    #[test]
    fn rate_limit_enforced_by_system() {
        let mut system = RaiSystem::new(SystemConfig::default());
        let creds = system.register_team("eager", &[]);
        let p = ProjectDir::sample_cuda_project();
        system.submit(&creds, &p).unwrap();
        // The virtual clock advanced by the job's service time (>30 s
        // because of the image pull), so a second submit is allowed;
        // a third immediately after is denied.
        system.submit(&creds, &p).unwrap();
        match system.submit(&creds, &p) {
            Err(SubmitError::RateLimited { retry_after_secs }) => {
                assert!(retry_after_secs <= 30);
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
    }

    /// The path both course drivers take: a default-config system (30 s
    /// per user) limits `begin_submit` itself, not only `submit`.
    #[test]
    fn begin_submit_is_rate_limited() {
        let mut system = RaiSystem::new(SystemConfig::default());
        let creds = system.register_team("eager", &[]);
        let p = ProjectDir::sample_cuda_project();
        system.begin_submit(&creds, &p, SubmitMode::Run).unwrap();
        match system.begin_submit(&creds, &p, SubmitMode::Run) {
            Err(SubmitError::RateLimited { retry_after_secs }) => assert!(retry_after_secs <= 30),
            other => panic!("expected rate limit, got {:?}", other.map(|pending| pending.job_id)),
        }
        let metrics = system.report().metrics;
        assert_eq!(metrics.counter(names::RATELIMIT_DENIED_TOTAL, &[]), Some(1));
    }

    #[test]
    fn usage_report_counts_bytes() {
        let mut system = RaiSystem::new(SystemConfig {
            rate_limit: None,
            ..Default::default()
        });
        let creds = system.register_team("t", &[]);
        for _ in 0..3 {
            system.submit(&creds, &ProjectDir::sample_cuda_project()).unwrap();
        }
        let report = system.report();
        assert_eq!(system.db().collection("submissions").read().len(), 3);
        // 3 project uploads + 3 build-output uploads.
        assert_eq!(report.store.puts, 6);
        assert!(report.store.bytes_uploaded > 0);
        assert!(system.broker().stats().published >= 3);
    }

    #[test]
    fn wired_once() {
        // The injector and the log are deployment wiring: each slot is
        // set at most once, and a second attach is a bug, not a swap.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let injector = || FaultInjector::new(rai_faults::FaultPlan::none(1));
        let wal = || Wal::open(Arc::new(rai_wal::MemDisk::new()), rai_wal::DurabilityConfig::durable());
        let (store, db, broker) = (ObjectStore::new(VirtualClock::new()), Database::new(), Broker::default());
        let attach: [(&str, &dyn Fn()); 5] = [
            ("store injector", &|| store.set_fault_injector(injector())),
            ("store WAL", &|| store.attach_wal(wal())),
            ("database injector", &|| db.set_fault_injector(injector())),
            ("database WAL", &|| db.attach_wal(wal())),
            ("broker injector", &|| broker.set_fault_injector(injector())),
        ];
        for (slot, attach) in attach {
            attach();
            let again = catch_unwind(AssertUnwindSafe(attach)).expect_err(slot);
            let message = again.downcast_ref::<&str>().expect("a literal panic message");
            assert!(message.contains("wired once"), "{slot}: {message}");
        }
    }

    #[test]
    fn telemetry_records_job_lifecycle() {
        let mut system = RaiSystem::new(SystemConfig {
            rate_limit: None,
            ..Default::default()
        });
        let creds = system.register_team("t", &[]);
        let receipt = system.submit(&creds, &ProjectDir::sample_cuda_project()).unwrap();
        let trace = system
            .telemetry()
            .job_trace(receipt.job_id)
            .expect("job should be traced");
        assert!(trace.is_monotone());
        assert!(trace.stage_time(rai_telemetry::stage::SUBMITTED).is_some());
        assert!(trace.stage_time(rai_telemetry::stage::GRADED).is_some());
        let metrics = system.report().metrics;
        assert_eq!(metrics.counter_total(names::JOBS_TOTAL), 1);
        assert!(metrics.counter(names::DB_INSERTS_TOTAL, &[]).unwrap() > 0);
        assert!(!metrics.histograms_named(names::JOB_STAGE_SECONDS).is_empty());
    }

    #[test]
    fn chaos_plan_still_terminates_every_job_exactly_once() {
        let mut system = RaiSystem::new(SystemConfig {
            workers: 3,
            rate_limit: None,
            fault_plan: Some(FaultPlan {
                poison_every: None, // all jobs should eventually succeed
                instance_deaths: Vec::new(),
                ..FaultPlan::chaos(0xC0FFEE)
            }),
            ..Default::default()
        });
        let creds = system.register_team("t", &[]);
        let client = system.client_for(&creds);
        let mut submitted = 0;
        for _ in 0..12 {
            // Client-side retries absorb most injected faults; a
            // publish rejection after retries is a visible (not lost)
            // failure and simply isn't submitted.
            if client
                .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
                .is_ok()
            {
                submitted += 1;
            }
        }
        system.drain();
        // Every accepted submission reached exactly one terminal row.
        assert_eq!(system.db().collection("submissions").read().len(), submitted);
        let tasks = system
            .broker()
            .topic_stats(crate::protocol::routes::TASK_TOPIC)
            .unwrap();
        assert_eq!(tasks.depth, 0, "no job left behind");
        assert_eq!(tasks.in_flight, 0, "no claim leaked");
        assert_eq!(system.broker().stats().dead_lettered, 0, "no poison jobs in this plan");
    }

    #[test]
    fn multiple_workers_share_queue() {
        let mut system = RaiSystem::new(SystemConfig {
            workers: 4,
            rate_limit: None,
            ..Default::default()
        });
        let creds = system.register_team("t", &[]);
        let client = system.client_for(&creds);
        let pendings: Vec<_> = (0..8)
            .map(|_| {
                client
                    .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
                    .unwrap()
            })
            .collect();
        let outcomes = system.drain();
        assert_eq!(outcomes.len(), 8);
        for p in pendings {
            assert!(p.wait(Duration::from_millis(500)).unwrap().success);
        }
    }

    /// Four workers, four queued jobs: worker i will pop job i.
    fn queue_four() -> (RaiSystem, Vec<u64>) {
        let mut system = RaiSystem::new(SystemConfig {
            workers: 4,
            rate_limit: None,
            ..Default::default()
        });
        let creds = system.register_team("t", &[]);
        let client = system.client_for(&creds);
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                let p = ProjectDir::cuda_project_with_perf(300.0 + 50.0 * i as f64, 0.9, 1024);
                client.begin_submit(&p, SubmitMode::Run).unwrap().job_id
            })
            .collect();
        (system, ids)
    }

    #[test]
    fn a_round_executes_every_claim_before_the_first_commit() {
        use crate::worker::phase_log;
        let summary = |o: &JobOutcome| (o.job_id, o.success, o.service_time, o.measured_secs);

        let (mut system, ids) = queue_four();
        phase_log::take();
        let outcomes = system.drive_until(|_| false);
        let log = phase_log::take();
        // One round: four executes, then four commits, both in pop
        // order (worker i popped job i).
        let expect: Vec<(&str, u64)> = ids
            .iter()
            .map(|id| ("execute", *id))
            .chain(ids.iter().map(|id| ("commit", *id)))
            .collect();
        assert_eq!(log, expect);
        assert_eq!(outcomes.iter().map(|o| o.job_id).collect::<Vec<_>>(), ids);
        assert_eq!(system.db().collection("submissions").read().len(), 4);

        // The round is four back-to-back steps, regrouped.
        let (mut stepped, _) = queue_four();
        let steps: Vec<JobOutcome> =
            stepped.workers_mut().iter_mut().map(|w| w.step().expect("one job each")).collect();
        assert_eq!(
            outcomes.iter().map(summary).collect::<Vec<_>>(),
            steps.iter().map(summary).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_round_cut_short_drops_its_uncommitted_tail() {
        let (mut system, ids) = queue_four();
        let task_queue = |system: &RaiSystem| {
            let t = system.broker().topic_stats(crate::protocol::routes::TASK_TOPIC).unwrap();
            (t.depth, t.in_flight)
        };
        let popped: Vec<(usize, PoppedTask)> = system
            .workers_mut()
            .iter_mut()
            .enumerate()
            .map(|(wi, w)| (wi, w.pop_task().expect("one job each")))
            .collect();
        let started = system.clock().now();
        let mut committed = SimDuration::ZERO;
        let mut commits = 0;
        let tally = system.run_round(popped, |event| {
            let StepEvent::Done(outcome) = event else { panic!("fault-free jobs finish") };
            committed += outcome.service_time;
            commits += 1;
            if commits == 2 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
        });
        assert!(tally.cut_short);
        system.settle(tally);
        // The committed prefix landed; the tail's claims are neither
        // acked nor released, and the clock moved by the prefix only.
        assert_eq!(system.db().collection("submissions").read().len(), 2);
        assert_eq!(task_queue(&system), (0, 2));
        assert_eq!(system.clock().now(), started + committed);

        // Restarting the two workers that held the tail releases it to
        // run exactly once.
        for w in &mut system.workers_mut()[2..] {
            w.crash_recover();
        }
        assert_eq!(task_queue(&system), (2, 0));
        let rest = system.drain();
        assert_eq!(rest.iter().map(|o| o.job_id).collect::<Vec<_>>(), ids[2..]);
        assert_eq!(task_queue(&system), (0, 0));
        let rows = system.db().collection("submissions");
        for id in ids {
            assert_eq!(rows.read().find(&doc! { "job_id" => id as i64 }).len(), 1, "job {id}");
        }
    }

    #[test]
    fn durable_system_recovers_db_store_and_resumes_submissions() {
        let db_disk = rai_wal::MemDisk::new();
        let store_disk = rai_wal::MemDisk::new();
        let config = SystemConfig {
            rate_limit: None,
            durability: rai_wal::DurabilityConfig::durable(),
            ..Default::default()
        };
        let clock = VirtualClock::new();
        let mut system = RaiSystem::with_clock_durable(
            config.clone(),
            clock.clone(),
            Arc::new(db_disk.clone()),
            Arc::new(store_disk.clone()),
        );
        let creds = system.register_team("durable", &["alice"]);
        for _ in 0..2 {
            assert!(system.submit(&creds, &ProjectDir::sample_cuda_project()).unwrap().success);
        }
        system.sync_wals();
        let rows_before = system.db().collection("submissions").read().find(&doc! {}).len();
        let usage_before = system.store().usage();
        let at = clock.now();
        drop(system);

        // "Restart": rebuild the whole process from the two logs.
        let clock2 = VirtualClock::starting_at(at);
        let (mut recovered, report) = RaiSystem::recover_with_clock(
            config,
            clock2,
            Arc::new(db_disk),
            Arc::new(store_disk),
            None,
        );
        assert!(report.db.stats.replayed > 0);
        assert!(report.store.stats.replayed > 0);
        assert_eq!(report.db.malformed_dropped, 0);
        assert_eq!(report.store.objects_dropped, 0);
        assert_eq!(
            recovered.db().collection("submissions").read().find(&doc! {}).len(),
            rows_before
        );
        let usage_after = recovered.store().usage();
        assert_eq!(usage_after.objects, usage_before.objects);
        assert_eq!(usage_after.bytes_stored, usage_before.bytes_stored);
        assert_eq!(usage_after.bytes_physical, usage_before.bytes_physical);
        // Completed intents never re-publish.
        assert!(recovered.pending_intents().is_empty());
        assert_eq!(recovered.republish_pending(), 0);
        // The re-issued credentials match (deterministic keygen) and
        // the system keeps accepting work with fresh job ids.
        let creds2 = recovered.reregister_team("durable");
        assert_eq!(creds2.access_key, creds.access_key);
        assert_eq!(creds2.secret_key, creds.secret_key);
        let receipt = recovered.submit(&creds2, &ProjectDir::sample_cuda_project()).unwrap();
        assert!(receipt.success);
        assert_eq!(
            recovered.db().collection("submissions").read().find(&doc! {}).len(),
            rows_before + 1
        );
    }

    #[test]
    fn crash_before_publish_leaves_recoverable_intent() {
        let db_disk = rai_wal::MemDisk::new();
        let store_disk = rai_wal::MemDisk::new();
        let config = SystemConfig {
            rate_limit: None,
            durability: rai_wal::DurabilityConfig::durable(),
            ..Default::default()
        };
        let clock = VirtualClock::new();
        let mut system = RaiSystem::with_clock_durable(
            config.clone(),
            clock.clone(),
            Arc::new(db_disk.clone()),
            Arc::new(store_disk.clone()),
        );
        let creds = system.register_team("t", &[]);
        let client = system.client_for(&creds);
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let job_id = pending.job_id;
        // Crash before any worker touches the queue: the broker's
        // in-memory queue is lost, but the intent (synced at accept
        // time) and the uploaded project (journaled by the store)
        // both survive.
        drop(pending);
        drop(system);
        let clock2 = VirtualClock::starting_at(clock.now());
        let (mut recovered, _) = RaiSystem::recover_with_clock(
            config,
            clock2,
            Arc::new(db_disk),
            Arc::new(store_disk),
            None,
        );
        recovered.reregister_team("t");
        let pending = recovered.pending_intents();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, job_id);
        assert_eq!(recovered.republish_pending(), 1);
        let outcomes = recovered.drain();
        assert_eq!(outcomes.len(), 1);
        // Exactly one terminal row; the job is not pending anymore.
        assert_eq!(
            recovered
                .db()
                .collection("submissions")
                .read()
                .find(&doc! { "job_id" => job_id as i64 })
                .len(),
            1
        );
        assert!(recovered.pending_intents().is_empty());
    }
}
