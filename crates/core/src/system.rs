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
    ClaimedJob, JobOutcome, PoppedTask, StepEvent, Worker, WorkerConfig,
};
use parking_lot::{Mutex, RwLock};
use rai_auth::{Credentials, CredentialRegistry, KeyGenerator};
use rai_broker::{Broker, BrokerConfig};
use rai_faults::{CrashKind, FaultInjector, FaultPlan};
use rai_db::{doc, Database};
use rai_sandbox::ImageRegistry;
use rai_sim::{SimDuration, VirtualClock};
use rai_store::{LifecycleRule, ObjectStore, StoreRecovery, StoreUsage};
use rai_telemetry::{component, names, stage, MetricsSnapshot, Telemetry};
use rai_wal::{DurabilityConfig, MemDisk, Wal};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deployment configuration.
#[derive(Clone)]
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
    /// Deterministic fault plan; the default, [`FaultPlan::none`], runs
    /// the system fault-free.
    pub fault_plan: FaultPlan,
    /// Tuning for the write-ahead logs behind the database and the
    /// object store. Whether they exist is chosen by constructor, not
    /// here: [`RaiSystem::with_clock_durable`] and
    /// [`RaiSystem::recover_with_clock`] attach them to the disks
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
            fault_plan: FaultPlan::none(0),
            durability: DurabilityConfig::default(),
        }
    }
}

/// What crash recovery replayed from the two write-ahead logs.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Database replay outcome.
    pub db: rai_db::DbRecovery,
    /// Object-store replay outcome.
    pub store: StoreRecovery,
}

/// Aggregate usage numbers (paper §VII "Resource Usage").
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
    /// One client per team, under its access key, built the first time
    /// [`RaiSystem::client_for`] is asked for its credentials.
    clients: Mutex<HashMap<String, Arc<RaiClient>>>,
    images: Arc<ImageRegistry>,
    workers: Vec<Worker>,
    rate_limiter: Option<RateLimiter>,
    keygen: KeyGenerator,
    next_job_id: Arc<AtomicU64>,
    sessions: SessionBroker,
    telemetry: Telemetry,
    injector: FaultInjector,
}

/// In-flight timeout used when a stalled worker holds a claim:
/// [`RaiSystem::settle`] advances the clock past it and reclaims.
const MESSAGE_TIMEOUT: SimDuration = SimDuration::from_mins(10);

/// What the commits of one [`RaiSystem::run_round`] left for
/// [`RaiSystem::settle`].
#[derive(Default)]
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
    /// store mutation is journaled to the supplied disks, and
    /// [`RaiSystem::recover_with_clock`] can rebuild the deployment
    /// from them after a crash (DESIGN.md §14).
    pub fn with_clock_durable(
        config: SystemConfig,
        clock: VirtualClock,
        db_disk: Arc<MemDisk>,
        store_disk: Arc<MemDisk>,
    ) -> Self {
        let store = ObjectStore::new(clock.clone());
        let db = Database::new();
        // Attach before the first mutation so the logs cover the whole
        // history — bucket creation and index builds included.
        db.attach_wal(Wal::open(db_disk, config.durability));
        store.attach_wal(Wal::open(store_disk, config.durability));
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
    /// at-least-once path that makes a mid-run kill recoverable. Job
    /// ids resume after the highest journaled intent, a rejected one
    /// included, so no id is handed out twice.
    ///
    /// `injector` carries over the *environment's* fault state: the
    /// injector's draw counters model the outside world (which doesn't
    /// reset when the service restarts), so restart-resume runs pass
    /// the pre-kill injector here. `None` creates a fresh one from
    /// `config.fault_plan`.
    pub fn recover_with_clock(
        config: SystemConfig,
        clock: VirtualClock,
        db_disk: Arc<MemDisk>,
        store_disk: Arc<MemDisk>,
        injector: Option<FaultInjector>,
    ) -> (Self, RecoveryReport) {
        // The two logs lie on two disks and rebuild two states that
        // share nothing, so they replay side by side; each replay is
        // still one thread over one disk, and comes out the same.
        let ((db, db_recovery), (store, store_recovery)) = std::thread::scope(|scope| {
            let store = scope.spawn(|| {
                ObjectStore::recover(clock.clone(), Wal::open(store_disk, config.durability))
            });
            let db = Database::recover(Wal::open(db_disk, config.durability));
            (db, store.join().expect("the store's replay does not panic"))
        });
        let system = Self::finish_deploy(config, clock, db, store, injector);
        // Job ids resume after the highest journaled intent (rejected
        // ones too) so post-recovery submissions never collide with
        // replayed ones.
        let max_seen = system
            .db
            .read()
            .intents
            .scan()
            .filter_map(|row| row.get("job_id").and_then(rai_db::Value::as_i64))
            .max()
            .unwrap_or(0);
        system.next_job_id.store(max_seen as u64 + 1, Ordering::Relaxed);
        (system, RecoveryReport { db: db_recovery, store: store_recovery })
    }

    /// Shared tail of every constructor: buckets/indexes (idempotent —
    /// replayed state is left alone), fault layer, worker fleet.
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
        {
            let mut tables = db.write();
            tables.submissions.create_index("job_id");
            tables.rankings.create_index("team");
            tables.rankings.create_index("runtime_secs");
            tables.teams.create_index("team");
        }
        let registry = Arc::new(RwLock::new(CredentialRegistry::new()));
        let images = Arc::new(ImageRegistry::course_default());
        let telemetry = Telemetry::new(clock.clone());
        // Attach the deterministic fault layer before any traffic
        // flows. A recovery pass hands in the pre-crash injector: its
        // draw counters model the environment, which does not reset
        // when the service restarts.
        let injector =
            injector_override.unwrap_or_else(|| FaultInjector::new(config.fault_plan.clone()));
        store.set_fault_injector(injector.clone());
        db.set_fault_injector(injector.clone());
        broker.set_fault_injector(injector.clone());
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
                w.set_fault_injector(injector.clone());
                w
            })
            .collect();
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
            clients: Mutex::new(HashMap::new()),
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
        self.db.write().teams.insert_one(doc! {
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

    /// Journaled submission intents with no terminal submissions row
    /// and no `rejected` mark, in job-id (= original publish) order:
    /// `(job_id, encoded request)`. These are the accepted submissions
    /// a crash left in flight.
    pub(crate) fn pending_intents(&self) -> Vec<(u64, String)> {
        let tables = self.db.read();
        let mut out: Vec<(u64, String)> = Vec::new();
        for row in tables.intents.scan() {
            // A rejected intent surfaced a visible error to the
            // student; everything else is at-least-once territory.
            if row.get("rejected").is_some() {
                continue;
            }
            let Some(id) = row.get("job_id").and_then(rai_db::Value::as_i64) else { continue };
            let Some(req) = row.get("req").and_then(rai_db::Value::as_str) else { continue };
            if tables.submissions.count(&doc! { "job_id" => id }) > 0 {
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

    /// Compact both logs if their size warrants it, each under the state
    /// lock every append to it is made under (the drivers call it
    /// between submission rounds). Returns (db, store) compaction flags.
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

    /// A client handle for previously issued credentials: one per
    /// team, built — its secret scheduled — the first time it is asked
    /// for, and handed out again for exactly the credentials it was
    /// built from. Credentials that differ in any field get a client of
    /// their own, which replaces the old one; a recovered deployment
    /// starts with none.
    pub fn client_for(&self, creds: &Credentials) -> Arc<RaiClient> {
        let mut clients = self.clients.lock();
        match clients.get(&creds.access_key) {
            Some(client) if client.credentials() == creds => client.clone(),
            _ => {
                let client = Arc::new(self.new_client(creds));
                clients.insert(creds.access_key.clone(), client.clone());
                client
            }
        }
    }

    fn new_client(&self, creds: &Credentials) -> RaiClient {
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
    /// publish through the team's client for `creds`, then open the job's
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
    /// then, in claim order, execute each claim and commit it, handing
    /// each event to `visit`. Who pops is the caller's policy; claim and
    /// commit are the only phases that touch broker/store/db, so commit
    /// order is the fault-draw order, and since execute is pure it does
    /// not matter when it runs before its own commit.
    ///
    /// `visit` runs between commits. Returning `Break` cuts the round
    /// short — the process dies here: the remaining claims are dropped
    /// unexecuted, neither acked nor released.
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
        let mut tally = RoundTally::default();
        for (wi, claimed) in claimed {
            let event = self.workers[wi].commit(Worker::execute(claimed));
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

    /// Aggregate usage report: the file server's usage and a telemetry
    /// snapshot. The broker, store, db, WAL and fault injector keep
    /// their own cumulative stats; the report copies them into the
    /// registry as they stand now, the store's from the one `usage()`
    /// it returns.
    pub fn report(&self) -> SystemReport {
        let t = &self.telemetry;
        let b = self.broker.stats();
        t.counter(names::BROKER_PUBLISHED_TOTAL, &[]).store(b.published);
        t.counter(names::BROKER_ACKED_TOTAL, &[]).store(b.acked);
        t.counter(names::BROKER_REQUEUED_TOTAL, &[]).store(b.requeued);
        t.counter(names::DEAD_LETTERED_TOTAL, &[]).store(b.dead_lettered);
        t.gauge(names::BROKER_QUEUE_DEPTH, &[]).set(b.depth as f64);
        t.gauge(names::BROKER_IN_FLIGHT, &[]).set(b.in_flight as f64);
        t.gauge(names::BROKER_CHANNELS, &[]).set(b.channels as f64);
        let injected = self.injector.injected_counts().iter().map(|&(_, n)| n).sum();
        t.counter(names::FAULTS_INJECTED_TOTAL, &[]).store(injected);
        let u = self.store.usage();
        t.counter(names::STORE_BYTES_UPLOADED_TOTAL, &[]).store(u.bytes_uploaded);
        t.counter(names::STORE_BYTES_DOWNLOADED_TOTAL, &[]).store(u.bytes_downloaded);
        t.counter(names::STORE_PUTS_TOTAL, &[]).store(u.puts);
        t.counter(names::STORE_GETS_TOTAL, &[]).store(u.gets);
        t.gauge(names::STORE_BYTES_STORED, &[]).set(u.bytes_stored as f64);
        t.gauge(names::STORE_BYTES_PHYSICAL, &[]).set(u.bytes_physical as f64);
        t.gauge(names::STORE_METADATA_BYTES, &[]).set(u.metadata_bytes as f64);
        t.gauge(names::STORE_CHUNKS, &[]).set(u.chunks as f64);
        t.counter(names::STORE_CHUNKS_DEDUP_TOTAL, &[]).store(u.chunks_dedup_total);
        t.counter(names::STORE_BYTES_WIRE_TOTAL, &[]).store(u.bytes_wire);
        // Contended wait on the store's state lock. A host fact — it
        // varies with scheduling, never with the simulation.
        t.counter(names::LOCK_WAIT_MICROS_TOTAL, &[]).store(self.store.lock_wait_micros());
        let d = self.db.total_stats();
        t.counter(names::DB_INSERTS_TOTAL, &[]).store(d.inserts);
        t.counter(names::DB_QUERIES_TOTAL, &[]).store(d.queries);
        t.counter(names::DB_UPDATES_TOTAL, &[]).store(d.updates);
        // One label set per journal, on durable deployments.
        for (label, wal) in [("db", self.db.wal()), ("store", self.store.wal())] {
            let Some(wal) = wal else { continue };
            let w = wal.stats();
            let l = &[("log", label)];
            t.counter(names::WAL_APPENDS_TOTAL, l).store(w.appends);
            t.counter(names::WAL_BYTES_TOTAL, l).store(w.bytes);
            t.counter(names::WAL_FSYNC_BATCHES_TOTAL, l).store(w.fsync_batches);
            t.counter(names::WAL_REPLAYED_RECORDS_TOTAL, l).store(w.replayed);
        }
        SystemReport { store: u, metrics: t.snapshot() }
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

    /// The fault injector attached to every service of the deployment
    /// (one executing [`FaultPlan::none`] when no faults are planned).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
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
        assert_eq!(system.db().read().submissions.len(), 1);
        assert_eq!(system.db().read().teams.len(), 1);
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
        assert_eq!(system.db().read().submissions.len(), 3);
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
            fault_plan: FaultPlan {
                poison_every: None, // all jobs should eventually succeed
                instance_deaths: Vec::new(),
                ..FaultPlan::chaos(0xC0FFEE)
            },
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
        assert_eq!(system.db().read().submissions.len(), submitted);
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
    fn a_round_commits_in_pop_order_as_back_to_back_steps() {
        let summary = |o: &JobOutcome| (o.job_id, o.success, o.service_time, o.measured_secs);

        // One round: outcomes in pop order (worker i popped job i).
        let (mut system, ids) = queue_four();
        let outcomes = system.drive_until(|_| false);
        assert_eq!(outcomes.iter().map(|o| o.job_id).collect::<Vec<_>>(), ids);
        assert_eq!(system.db().read().submissions.len(), 4);

        // The round is four back-to-back steps, regrouped.
        let (mut stepped, _) = queue_four();
        let step = |w: &mut Worker| match w.try_step() {
            StepEvent::Done(outcome) => outcome,
            other => panic!("one job each, got {other:?}"),
        };
        let steps: Vec<JobOutcome> = stepped.workers_mut().iter_mut().map(step).collect();
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
        assert_eq!(system.db().read().submissions.len(), 2);
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
        let tables = system.db().read();
        for id in ids {
            assert_eq!(tables.submissions.find(&doc! { "job_id" => id as i64 }).len(), 1, "job {id}");
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
        let rows_before = system.db().read().submissions.find(&doc! {}).len();
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
            recovered.db().read().submissions.find(&doc! {}).len(),
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
            recovered.db().read().submissions.find(&doc! {}).len(),
            rows_before + 1
        );
    }

    #[test]
    fn a_client_serves_only_the_credentials_it_was_built_from() {
        let mut system = RaiSystem::new(SystemConfig { rate_limit: None, ..Default::default() });
        let creds = system.register_team("keyed", &[]);
        let client = system.client_for(&creds);
        assert!(Arc::ptr_eq(&client, &system.client_for(&creds)), "one client per team");
        assert_eq!(client.credentials(), &creds);

        // Credentials that differ in any one field get a client of their
        // own, built from them; the team's own then get theirs again.
        let variants = [
            Credentials { user_name: "other".into(), ..creds.clone() },
            Credentials { access_key: "A".repeat(26), ..creds.clone() },
            Credentials { secret_key: "S".repeat(26), ..creds.clone() },
        ];
        for variant in &variants {
            let other = system.client_for(variant);
            assert!(!Arc::ptr_eq(&other, &client), "{variant:?}");
            assert_eq!(other.credentials(), variant);
            assert_eq!(system.client_for(&creds).credentials(), &creds, "{variant:?}");
        }

        // A client signs with its own secret: a wrong one is refused at
        // the worker, the team's own still passes.
        let p = ProjectDir::sample_cuda_project();
        assert!(!system.submit(&variants[2], &p).unwrap().success);
        assert!(system.submit(&creds, &p).unwrap().success);
        let users: Vec<_> = system.db().read().submissions.scan().map(|row| row.get("user").cloned()).collect();
        assert_eq!(users, [Some("auth-rejected".into()), Some("keyed".into())]);
    }

    #[test]
    fn a_recovered_deployment_signs_with_the_reissued_credentials() {
        let (db_disk, store_disk) = (rai_wal::MemDisk::new(), rai_wal::MemDisk::new());
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
        let first = system.register_team("first", &[]);
        system.register_team("second", &[]);
        let p = ProjectDir::sample_cuda_project();
        assert!(system.submit(&first, &p).unwrap().success);
        system.sync_wals();
        drop(system);

        let (mut recovered, _) = RaiSystem::recover_with_clock(
            config,
            VirtualClock::starting_at(clock.now()),
            Arc::new(db_disk),
            Arc::new(store_disk),
            None,
        );
        assert!(recovered.clients.lock().is_empty(), "a recovered deployment holds no client");
        // Re-registered out of order, the teams get other credentials.
        recovered.reregister_team("second");
        let reissued = recovered.reregister_team("first");
        assert_ne!(reissued, first);
        assert!(!recovered.submit(&first, &p).unwrap().success, "the old key is not registered");
        let receipt = recovered.submit(&reissued, &p).unwrap();
        assert!(receipt.success, "signed with the re-issued key, acting for its team");
        let row = recovered.db().read().submissions.find_one(&doc! { "job_id" => receipt.job_id });
        assert_eq!(row.and_then(|row| row.get("user").cloned()), Some("first".into()));
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
                .read()
                .submissions
                .find(&doc! { "job_id" => job_id as i64 })
                .len(),
            1
        );
        assert!(recovered.pending_intents().is_empty());
    }

    /// Refuse one publish on a durable deployment, let `crash` damage
    /// what the logs had not synced, recover with a broker that takes
    /// publishes again, and check that the refusal stays refused.
    fn a_refusal_outlives(crash: impl FnOnce(&rai_wal::MemDisk)) {
        let (db_disk, store_disk) = (rai_wal::MemDisk::new(), rai_wal::MemDisk::new());
        let config = SystemConfig {
            rate_limit: None,
            durability: rai_wal::DurabilityConfig::durable(),
            ..Default::default()
        };
        let refusing = SystemConfig {
            fault_plan: FaultPlan { broker_publish: 1.0, ..FaultPlan::none(7) },
            ..config.clone()
        };
        let clock = VirtualClock::new();
        let mut system = RaiSystem::with_clock_durable(
            refusing,
            clock.clone(),
            Arc::new(db_disk.clone()),
            Arc::new(store_disk.clone()),
        );
        let creds = system.register_team("t", &[]);
        let p = ProjectDir::sample_cuda_project();
        let refused = system.begin_submit(&creds, &p, SubmitMode::Run);
        assert!(matches!(refused, Err(SubmitError::Publish(_))), "every publish is refused");
        let ids: Vec<_> = system
            .db()
            .read()
            .intents
            .scan()
            .filter_map(|row| row.get("job_id").and_then(rai_db::Value::as_i64))
            .collect();
        let [refused_id] = ids[..] else { panic!("one intent journaled, found {ids:?}") };
        drop(system);
        crash(&db_disk);

        // The broker takes publishes again after the restart.
        let (mut recovered, _) = RaiSystem::recover_with_clock(
            config,
            VirtualClock::starting_at(clock.now()),
            Arc::new(db_disk),
            Arc::new(store_disk),
            None,
        );
        let creds = recovered.reregister_team("t");
        assert!(recovered.pending_intents().is_empty(), "the student saw the refusal");
        assert_eq!(recovered.republish_pending(), 0);
        let receipt = recovered.submit(&creds, &p).unwrap();
        assert!(receipt.success);
        assert!(receipt.job_id > refused_id as u64, "{} reuses the refused id", receipt.job_id);
    }

    #[test]
    fn a_refused_publish_is_never_republished_and_keeps_its_id() {
        a_refusal_outlives(rai_wal::MemDisk::crash_clean);
    }

    #[test]
    fn a_refusal_outlives_a_torn_log_tail() {
        // A mark left unsynced is torn away here, and recovery would
        // run the job its student was told had failed.
        let tear = rai_faults::DiskFaultProfile { seed: 1, torn_tail: 1.0, bit_flip: 0.0, short_read: 0.0 };
        a_refusal_outlives(|disk| drop(disk.crash_with(&tear, 0)));
    }

    #[test]
    fn an_intent_row_is_its_job_id_and_request_and_a_refusal_marks_it() {
        let (accepted, refused) = (["_id", "job_id", "req"].as_slice(), &["_id", "job_id", "rejected", "req"]);
        for (broker_publish, want) in [(0.0, accepted), (1.0, refused)] {
            let mut system = RaiSystem::with_clock_durable(
                SystemConfig {
                    rate_limit: None,
                    durability: rai_wal::DurabilityConfig::durable(),
                    fault_plan: FaultPlan { broker_publish, ..FaultPlan::none(7) },
                    ..Default::default()
                },
                VirtualClock::new(),
                Arc::new(rai_wal::MemDisk::new()),
                Arc::new(rai_wal::MemDisk::new()),
            );
            let creds = system.register_team("t", &[]);
            let _ = system.begin_submit(&creds, &ProjectDir::sample_cuda_project(), SubmitMode::Run);
            let tables = system.db().read();
            let fields: Vec<Vec<&str>> = tables.intents.scan().map(|row| row.0.keys().map(|k| &**k).collect()).collect();
            assert_eq!(fields, [want], "publish refusal rate {broker_publish}");
        }
    }
}
