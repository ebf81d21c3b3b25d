//! Whole-system assembly: one call stands up the broker, file server,
//! database, credential registry, image registry and a worker fleet —
//! the in-process equivalent of the paper's Fig. 1 deployment.

use crate::client::{
    ProjectDir, RaiClient, SubmitError, SubmitMode, SubmitReceipt, BUILD_BUCKET,
    UPLOAD_BUCKET,
};
use crate::interactive::{InteractiveSession, SessionBroker, SessionConfig, SessionError};
use crate::ranking::RankingBoard;
use crate::ratelimit::{RateDecision, RateLimiter};
use crate::worker::{ExecutedJob, JobOutcome, StepEvent, Worker, WorkerConfig};
use parking_lot::RwLock;
use rai_auth::{Credentials, CredentialRegistry, KeyGenerator};
use rai_broker::{Broker, BrokerConfig, BrokerStats};
use rai_faults::{CrashKind, FaultInjector, FaultPlan, RetryPolicy};
use rai_db::{doc, Database};
use rai_exec::Executor;
use rai_sandbox::{ImageRegistry, ResourceLimits};
use rai_sim::{SimDuration, VirtualClock};
use rai_store::{LifecycleRule, ObjectStore, StoreRecovery, StoreUsage};
use rai_telemetry::{component, names, stage, MetricsSnapshot, Telemetry};
use rai_wal::{DurabilityConfig, LogBackend, Wal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deployment configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Worker count.
    pub workers: usize,
    /// Concurrent jobs per worker (paper: >1 early, 1 for benchmarking).
    pub jobs_per_worker: usize,
    /// Relative GPU speed of the fleet (K80 = 1.0).
    pub gpu_speed: f64,
    /// Container limits.
    pub limits: ResourceLimits,
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
    /// Create the hot-path secondary indexes (submissions by `job_id`,
    /// rankings by `team` and `runtime_secs`, teams by `team`) at
    /// deployment time. On: every per-job upsert is a point lookup.
    /// Off: those queries fall back to full collection scans — the
    /// pre-overhaul behaviour, kept as `perf_report`'s reference run.
    /// Results are identical either way; only wall-clock differs.
    pub db_hot_indexes: bool,
    /// Width of the [`rai_exec::Executor`] the payload pipeline
    /// (chunking, digesting, chunk validation) runs on. `1` keeps
    /// every transform inline on the event loop — the preserved
    /// reference configuration — while `N > 1` stands up an N-worker
    /// work-stealing pool. Offloaded work is pure and joined in input
    /// order, so results (and `SemesterResult::fingerprint()`) are
    /// byte-identical at every setting; only wall-clock differs
    /// (DESIGN.md §12).
    pub parallelism: usize,
    /// Durability knobs for the write-ahead logs behind the database
    /// and the object store. Disabled by default — the preserved
    /// in-memory configuration, byte-identical to pre-WAL behaviour.
    /// Takes effect through [`RaiSystem::with_clock_durable`] /
    /// [`RaiSystem::recover_with_clock`], which supply the log
    /// backends (DESIGN.md §14).
    pub durability: DurabilityConfig,
    /// Lock-domain shard count (DESIGN.md §16). Partitions the store's
    /// chunk arena by digest prefix (with one WAL lane per shard under
    /// durability), the database's collections by primary-key hash,
    /// and — fault-free only — [`RaiSystem::drive_until`]'s commit
    /// phase into `shards` lanes keyed by `job_id % shards`. Shard
    /// assignment is a pure function of digest/key/job id, so results
    /// and fingerprints are byte-identical at every setting; only
    /// contention (and therefore wall-clock) changes. `1` — the
    /// default — is the preserved single-lock reference configuration.
    pub shards: usize,
    /// Claim-lane count (DESIGN.md §17). Fault-free only,
    /// [`RaiSystem::drive_until`]'s claim *tail* (auth, build-spec
    /// parse, image resolve, payload fetch) fans out across
    /// `claim_lanes` lanes keyed by a hash of the job's log topic; the
    /// order-defining pop half stays serial and results are re-sorted
    /// into pop order before execute, so outcomes and
    /// `SemesterResult::fingerprint()` are byte-identical at every
    /// setting. `1` — the default — is the preserved serial reference
    /// claim schedule. Fault-plan runs always claim serially because
    /// the injector's draw stream is ordering-visible.
    pub claim_lanes: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            workers: 1,
            jobs_per_worker: 1,
            gpu_speed: 1.0,
            limits: ResourceLimits::default(),
            rate_limit: Some(SimDuration::from_secs(30)),
            seed: 0x5EED,
            broker_attempts: 8,
            fault_plan: None,
            db_hot_indexes: true,
            parallelism: 1,
            durability: DurabilityConfig::default(),
            shards: 1,
            claim_lanes: 1,
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
    /// Broker statistics.
    pub broker: BrokerStats,
    /// Rows in the submissions collection.
    pub submissions: usize,
    /// Registered teams.
    pub teams: usize,
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
    executor: Executor,
    /// Commit-lane count (`config.shards`); lanes are keyed by
    /// `job_id % lanes` (DESIGN.md §16).
    lanes: usize,
    /// Claim-lane count (`config.claim_lanes`); lanes are keyed by a
    /// hash of the job's log topic (DESIGN.md §17).
    claim_lanes: usize,
}

/// In-flight timeout used when a stalled worker holds a claim: the
/// driver advances the clock past it and reclaims.
const MESSAGE_TIMEOUT: SimDuration = SimDuration::from_mins(10);

/// Claim-lane assignment: FNV-1a over the job's log topic, reduced
/// modulo the lane count. Hashing the topic (rather than taking
/// `job_id % lanes` as the commit side does) spreads the adjacent job
/// ids a burst produces across lanes instead of striping them, and
/// keys the lane by the same name the broker's per-topic state is
/// partitioned on (DESIGN.md §17).
fn claim_lane_of(job_id: u64, lanes: usize) -> usize {
    let topic = crate::protocol::routes::log_topic(job_id);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in topic.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % lanes as u64) as usize
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
        let store = ObjectStore::with_shards(clock.clone(), config.shards.max(1));
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
        let shards = config.shards.max(1);
        let store = ObjectStore::with_shards(clock.clone(), shards);
        let db = Database::new();
        // Attach before the first mutation so the logs cover the whole
        // history — bucket creation and index builds included. At
        // `shards > 1` the store's backend is striped into a main
        // object log plus one chunk lane per arena shard; at 1 it
        // carries the legacy single log byte-for-byte.
        db.attach_wal(Wal::open(db_log, config.durability));
        let (main, chunk_wals) =
            ObjectStore::open_store_logs(store_log, config.durability, shards);
        store.attach_logs(main, chunk_wals);
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
        let shards = config.shards.max(1);
        let (db, db_recovery) =
            Database::recover_sharded(Wal::open(db_log, config.durability), shards);
        let (main, chunk_wals) =
            ObjectStore::open_store_logs(store_log, config.durability, shards);
        let (store, store_recovery) =
            ObjectStore::recover_sharded(clock.clone(), main, chunk_wals);
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
            BrokerConfig {
                max_attempts: config.broker_attempts,
                ..Default::default()
            },
            clock.clone(),
        );
        // Hash-partition collections created from here on. A recovered
        // database was already rebuilt at this count; re-stating it is
        // idempotent and covers the fresh-deploy path.
        db.set_shards(config.shards.max(1));
        // One pool for the whole deployment: client uploads, worker
        // uploads and server-side validation share it, mirroring how a
        // real host's cores are shared across the pipeline.
        let executor = Executor::new(config.parallelism);
        store.set_executor(executor.clone());
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
        if config.db_hot_indexes {
            // The write paths these serve: one submissions upsert per
            // job attempt (keyed by job_id), one rankings upsert per
            // final submission (keyed by team), leaderboard reads
            // sorted by runtime_secs, and team lookups at registration.
            db.collection("submissions").write().create_index("job_id");
            let rankings = db.collection("rankings");
            rankings.write().create_index("team");
            rankings.write().create_index("runtime_secs");
            db.collection("teams").write().create_index("team");
        }
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
                        max_in_flight: config.jobs_per_worker.max(1),
                        gpu_speed: config.gpu_speed,
                        limits: config.limits,
                        noise_seed: config.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                        retry: RetryPolicy::default(),
                    },
                    broker.clone(),
                    store.clone(),
                    db.clone(),
                    registry.clone(),
                    images.clone(),
                );
                w.set_telemetry(telemetry.clone());
                w.set_executor(executor.clone());
                if let Some(inj) = &injector {
                    w.set_fault_injector(inj.clone());
                }
                w
            })
            .collect();
        // Pull-style collectors: broker / store / db keep their own
        // counters; these mirror them into the registry at snapshot time.
        {
            let broker2 = broker.clone();
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
                reg.gauge(names::STORE_CHUNKS, &[]).set(u.chunks as f64);
                reg.counter(names::STORE_CHUNKS_DEDUP_TOTAL, &[]).store(u.chunks_dedup_total);
                reg.counter(names::STORE_BYTES_WIRE_TOTAL, &[]).store(u.bytes_wire);
                reg.counter(names::STORE_DELTA_PUTS_TOTAL, &[]).store(u.delta_puts);
                // Lock-domain health (DESIGN.md §16/§17): contended
                // wait across the store's shard locks and the broker's
                // dirty-list stripes, plus per-shard occupancy. Host
                // facts — they vary with scheduling, never with the
                // simulation.
                reg.counter(names::LOCK_WAIT_MICROS_TOTAL, &[])
                    .store(store2.lock_wait_micros() + broker2.lock_wait_micros());
                for (i, n) in store2.shard_chunk_counts().into_iter().enumerate() {
                    let shard = i.to_string();
                    reg.gauge(names::STORE_SHARD_CHUNKS, &[("shard", &shard)]).set(n as f64);
                }
            });
            let db2 = db.clone();
            telemetry.register_collector(move |reg| {
                let t = db2.total_stats();
                reg.counter(names::DB_INSERTS_TOTAL, &[]).store(t.inserts);
                reg.counter(names::DB_QUERIES_TOTAL, &[]).store(t.queries);
                reg.counter(names::DB_UPDATES_TOTAL, &[]).store(t.updates);
                for (i, n) in db2.shard_doc_counts().into_iter().enumerate() {
                    let shard = i.to_string();
                    reg.gauge(names::DB_SHARD_DOCS, &[("shard", &shard)]).set(n as f64);
                }
            });
            // Executor scheduling counters. These describe the *host*
            // machine's work-stealing behaviour, not the simulation, so
            // they vary with pool width and OS scheduling — report-only,
            // never folded into fingerprints or byte-identical exports.
            let exec2 = executor.clone();
            telemetry.register_collector(move |reg| {
                let s = exec2.stats();
                reg.counter(names::EXEC_SPAWNED_TOTAL, &[]).store(s.spawned);
                reg.counter(names::EXEC_INLINE_RUNS_TOTAL, &[]).store(s.inline_runs);
                reg.counter(names::EXEC_STOLEN_TOTAL, &[]).store(s.stolen);
                reg.counter(names::EXEC_PARKED_TOTAL, &[]).store(s.parked);
                reg.counter(names::EXEC_INJECTED_TOTAL, &[]).store(s.injected);
                reg.counter(names::EXEC_BATCHES_TOTAL, &[]).store(s.batches);
                reg.counter(names::EXEC_BATCH_JOBS_TOTAL, &[]).store(s.batch_jobs);
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
            // Sharded layouts add one journal lane per arena shard;
            // report them aggregated under a single label so the
            // exposition stays stable as `shards` varies.
            let lanes = store.chunk_wals();
            if !lanes.is_empty() {
                telemetry.register_collector(move |reg| {
                    let mut agg = rai_wal::WalStats::default();
                    for w in &lanes {
                        let s = w.stats();
                        agg.appends += s.appends;
                        agg.bytes += s.bytes;
                        agg.fsync_batches += s.fsync_batches;
                        agg.replayed += s.replayed;
                        agg.corrupt_dropped += s.corrupt_dropped;
                        agg.compactions += s.compactions;
                        agg.segments += s.segments;
                        agg.log_bytes += s.log_bytes;
                    }
                    let l = &[("log", "store-chunks")];
                    reg.counter(names::WAL_APPENDS_TOTAL, l).store(agg.appends);
                    reg.counter(names::WAL_BYTES_TOTAL, l).store(agg.bytes);
                    reg.counter(names::WAL_FSYNC_BATCHES_TOTAL, l).store(agg.fsync_batches);
                    reg.counter(names::WAL_REPLAYED_RECORDS_TOTAL, l).store(agg.replayed);
                    reg.counter(names::WAL_CORRUPT_RECORDS_DROPPED_TOTAL, l)
                        .store(agg.corrupt_dropped);
                    reg.counter(names::WAL_COMPACTIONS_TOTAL, l).store(agg.compactions);
                    reg.gauge(names::WAL_SEGMENTS, l).set(agg.segments as f64);
                    reg.gauge(names::WAL_LOG_BYTES, l).set(agg.log_bytes as f64);
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
            executor,
            lanes: config.shards.max(1),
            claim_lanes: config.claim_lanes.max(1),
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
    pub fn pending_intents(&self) -> Vec<(u64, String)> {
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
        config: &SessionConfig,
    ) -> Result<InteractiveSession, SessionError> {
        self.sessions.open(&creds.access_key, project, config)
    }

    /// A client handle for previously issued credentials.
    pub fn client_for(&self, creds: &Credentials) -> RaiClient {
        let mut client = RaiClient::with_executor(
            creds.clone(),
            &creds.user_name,
            self.broker.clone(),
            self.store.clone(),
            self.next_job_id.clone(),
            self.executor.clone(),
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
        self.check_rate(creds)?;
        let client = self.client_for(creds);
        let pending = client.begin_submit(project, mode)?;
        let job_id = pending.job_id;
        // The client uploads and publishes in one step, so submit and
        // enqueue share a timestamp in the trace. Attempt 0 is the
        // client's submit subtree; worker attempts start at 1.
        let now = self.clock.now();
        self.telemetry
            .trace_span(job_id, 0, stage::SUBMITTED, component::CLIENT, now, now);
        self.telemetry
            .trace_span(job_id, 0, stage::ENQUEUED, component::BROKER, now, now);
        self.drive_until(|o| o.job_id == job_id);
        pending.wait(Duration::from_millis(500))
    }

    /// Drive the fleet until `stop` matches an outcome or no worker
    /// makes progress, scheduling whole submissions concurrently
    /// (DESIGN.md §15).
    ///
    /// Each round claims at most one job per worker (serially, in
    /// worker order), runs every claim's execute phase on the shared
    /// pool via [`rai_exec::Executor::run_jobs`], then commits in claim
    /// order. Claim and commit are the only phases that touch
    /// broker/store/db, so fault draws, trace artifacts and database
    /// state are byte-identical at every pool width. The clock advances
    /// once per round by the batch's summed service time — the same
    /// total the sequential schedule accumulated job by job. Injected
    /// crashes restart their worker after the round (and stalls
    /// additionally wait out the in-flight timeout before the broker
    /// reclaims the held messages); either way the job messages survive
    /// to a later attempt. Returns all outcomes observed.
    ///
    /// When [`SystemConfig::shards`] > 1 and no fault injector is
    /// attached, the commit phase itself runs across `shards` lanes
    /// keyed by `job_id % lanes` (DESIGN.md §16): commits in different
    /// lanes proceed concurrently, commits within a lane stay in claim
    /// order. Likewise, when [`SystemConfig::claim_lanes`] > 1 the
    /// claim *tail* (auth, spec parse, image resolve, payload fetch)
    /// fans out across claim lanes keyed by a hash of the job's log
    /// topic, while the order-defining pop half stays serial and the
    /// results are re-sorted into pop order (DESIGN.md §17).
    /// Fault-plan runs keep the single-lane reference schedule on both
    /// phases because the injector's draw stream is ordering-visible.
    pub fn drive_until(&mut self, stop: impl Fn(&JobOutcome) -> bool) -> Vec<JobOutcome> {
        let mut outcomes = Vec::new();
        let executor = self.executor.clone();
        let lanes = if self.injector.is_none() { self.lanes } else { 1 };
        let claim_lanes = if self.injector.is_none() { self.claim_lanes } else { 1 };
        loop {
            // Pop phase: serial, round-robin worker order. Popping is
            // the order-defining half of a claim (queue ordering,
            // malformed acks, in-flight accounting), so it always runs
            // on the event loop.
            let popped: Vec<(usize, crate::worker::PoppedTask)> = self
                .workers
                .iter_mut()
                .enumerate()
                .filter_map(|(wi, w)| w.pop_task().map(|p| (wi, p)))
                .collect();
            if popped.is_empty() {
                return outcomes;
            }
            // Claim tail: auth, spec parse, image resolve, payload
            // fetch. Pure per-job against snapshot/read paths, so it
            // may fan out across claim lanes (DESIGN.md §17); results
            // come back re-sorted into pop order either way.
            let claims = self.claim_lanes_run(popped, claim_lanes);
            // Events come back in claim (rank) order on both paths, so
            // the accounting below is path-independent.
            let events: Vec<(usize, StepEvent)> = if lanes > 1 && claims.len() > 1 {
                executor.note_batch(claims.len());
                let executed: Vec<(usize, ExecutedJob)> =
                    executor.par_map(claims, |(wi, claimed)| (wi, Worker::execute(claimed)));
                self.commit_lanes(executed, lanes)
            } else {
                executor.run_jobs(
                    claims,
                    |(wi, claimed)| (wi, Worker::execute(claimed)),
                    |(wi, executed)| (wi, self.workers[wi].commit(executed)),
                )
            };
            let mut advance = SimDuration::ZERO;
            let mut stalled = false;
            let mut crashed: Vec<usize> = Vec::new();
            let mut stop_hit = false;
            for (wi, event) in events {
                match event {
                    StepEvent::Idle => unreachable!("commit always seals its claim"),
                    StepEvent::Done(outcome) => {
                        advance += outcome.service_time;
                        stop_hit |= stop(&outcome);
                        outcomes.push(outcome);
                    }
                    StepEvent::Crashed(report) => {
                        advance += report.wasted;
                        stalled |= report.kind == CrashKind::Stall;
                        crashed.push(wi);
                    }
                }
            }
            self.clock.advance(advance);
            if stalled {
                // Frozen processes hold their claims until the broker's
                // message timeout passes.
                self.clock.advance(MESSAGE_TIMEOUT);
                self.broker.reclaim_expired(MESSAGE_TIMEOUT);
            }
            for wi in crashed {
                self.workers[wi].crash_recover();
            }
            if stop_hit {
                return outcomes;
            }
        }
    }

    /// Commit one round's executed jobs across `lanes` independent
    /// lanes keyed by `job_id % lanes` (DESIGN.md §16). Lanes commit
    /// concurrently on the shared pool; within a lane commits stay in
    /// claim order. Two conflicts force the whole round back onto the
    /// serial claim-order path, because interleaving them would be
    /// outcome-visible: two uploads sharing a chunk digest (the dedup
    /// hit and wire bytes would depend on which lane lands first) and
    /// two ranking writes for the same team (a last-writer-wins
    /// upsert). Returns `(worker, event)` pairs in claim order
    /// regardless of which path ran.
    fn commit_lanes(
        &mut self,
        executed: Vec<(usize, ExecutedJob)>,
        lanes: usize,
    ) -> Vec<(usize, StepEvent)> {
        let conflict = {
            let mut digests = std::collections::HashSet::new();
            let mut teams = std::collections::HashSet::new();
            let mut hit = false;
            for (_, e) in &executed {
                for d in e.upload_digests() {
                    hit |= !digests.insert(d);
                }
                if e.writes_ranking() {
                    hit |= !teams.insert(e.team().to_string());
                }
            }
            hit
        };
        if conflict || executed.len() <= 1 {
            return executed
                .into_iter()
                .map(|(wi, e)| (wi, self.workers[wi].commit(e)))
                .collect();
        }
        let mut buckets: Vec<Vec<(usize, usize, ExecutedJob)>> =
            (0..lanes).map(|_| Vec::new()).collect();
        for (rank, (wi, e)) in executed.into_iter().enumerate() {
            let lane = (e.job_id() % lanes as u64) as usize;
            buckets[lane].push((rank, wi, e));
        }
        // Each worker holds at most one claim per round, so handing
        // each lane exclusive `&mut Worker`s is race-free.
        let mut slots: Vec<Option<&mut Worker>> = self.workers.iter_mut().map(Some).collect();
        let lane_work: Vec<Vec<(usize, usize, &mut Worker, ExecutedJob)>> = buckets
            .into_iter()
            .map(|bucket| {
                bucket
                    .into_iter()
                    .map(|(rank, wi, e)| {
                        let w = slots[wi].take().expect("one claim per worker per round");
                        (rank, wi, w, e)
                    })
                    .collect()
            })
            .filter(|work: &Vec<_>| !work.is_empty())
            .collect();
        let results: Vec<parking_lot::Mutex<Vec<(usize, usize, StepEvent)>>> =
            (0..lane_work.len()).map(|_| parking_lot::Mutex::new(Vec::new())).collect();
        self.executor.scope(|s| {
            for (li, work) in lane_work.into_iter().enumerate() {
                let out = &results[li];
                s.spawn(move || {
                    let mut events = Vec::with_capacity(work.len());
                    for (rank, wi, w, e) in work {
                        events.push((rank, wi, w.commit(e)));
                    }
                    *out.lock() = events;
                });
            }
        });
        let mut all: Vec<(usize, usize, StepEvent)> = results
            .into_iter()
            .flat_map(|m| m.into_inner())
            .collect();
        all.sort_by_key(|(rank, _, _)| *rank);
        all.into_iter().map(|(_, wi, ev)| (wi, ev)).collect()
    }

    /// Run one round's claim tails across `lanes` independent lanes
    /// keyed by [`claim_lane_of`] — an FNV-1a hash of the job's log
    /// topic, so lane assignment is a pure function of the job id
    /// (DESIGN.md §17). Lanes claim concurrently on the shared pool;
    /// within a lane claims stay in pop order, and the flattened
    /// result is re-sorted into pop order before execute, so the
    /// downstream schedule is identical to the serial path. Returns
    /// `(worker, claim)` pairs in pop order regardless of which path
    /// ran.
    fn claim_lanes_run(
        &mut self,
        popped: Vec<(usize, crate::worker::PoppedTask)>,
        lanes: usize,
    ) -> Vec<(usize, crate::worker::ClaimedJob)> {
        if lanes <= 1 || popped.len() <= 1 {
            return popped
                .into_iter()
                .map(|(wi, p)| (wi, self.workers[wi].claim_popped(p)))
                .collect();
        }
        let mut buckets: Vec<Vec<(usize, usize, crate::worker::PoppedTask)>> =
            (0..lanes).map(|_| Vec::new()).collect();
        for (rank, (wi, p)) in popped.into_iter().enumerate() {
            let lane = claim_lane_of(p.job_id(), lanes);
            buckets[lane].push((rank, wi, p));
        }
        // Each worker pops at most one task per round, so handing each
        // lane exclusive `&mut Worker`s is race-free (the same slot
        // discipline as [`RaiSystem::commit_lanes`]).
        let mut slots: Vec<Option<&mut Worker>> = self.workers.iter_mut().map(Some).collect();
        let lane_work: Vec<Vec<(usize, usize, &mut Worker, crate::worker::PoppedTask)>> = buckets
            .into_iter()
            .map(|bucket| {
                bucket
                    .into_iter()
                    .map(|(rank, wi, p)| {
                        let w = slots[wi].take().expect("one pop per worker per round");
                        (rank, wi, w, p)
                    })
                    .collect()
            })
            .filter(|work: &Vec<_>| !work.is_empty())
            .collect();
        let results: Vec<parking_lot::Mutex<Vec<(usize, usize, crate::worker::ClaimedJob)>>> =
            (0..lane_work.len()).map(|_| parking_lot::Mutex::new(Vec::new())).collect();
        self.executor.scope(|s| {
            for (li, work) in lane_work.into_iter().enumerate() {
                let out = &results[li];
                s.spawn(move || {
                    let mut claims = Vec::with_capacity(work.len());
                    for (rank, wi, w, p) in work {
                        claims.push((rank, wi, w.claim_popped(p)));
                    }
                    *out.lock() = claims;
                });
            }
        });
        let mut all: Vec<(usize, usize, crate::worker::ClaimedJob)> = results
            .into_iter()
            .flat_map(|m| m.into_inner())
            .collect();
        all.sort_by_key(|(rank, _, _)| *rank);
        all.into_iter().map(|(_, wi, c)| (wi, c)).collect()
    }

    /// Run externally popped tasks' claim tails across the configured
    /// claim lanes, returning `(worker, claim)` pairs in pop order.
    /// Drivers that pop on their own schedule — the semester's
    /// dispatch loop claims in FIFO arrival order against a capacity
    /// budget — use this to share [`RaiSystem::drive_until`]'s claim
    /// pipeline (DESIGN.md §17). The same serial-fallback rule
    /// applies: fault-plan runs claim serially because the injector's
    /// draw stream is ordering-visible. Callers must pop at most one
    /// task per worker per call.
    pub fn claim_tasks(
        &mut self,
        popped: Vec<(usize, crate::worker::PoppedTask)>,
    ) -> Vec<(usize, crate::worker::ClaimedJob)> {
        let lanes = if self.injector.is_none() { self.claim_lanes } else { 1 };
        self.claim_lanes_run(popped, lanes)
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
        SystemReport {
            store: self.store.usage(),
            broker: self.broker.stats(),
            submissions: self.db.collection("submissions").read().len(),
            teams: self.db.collection("teams").read().len(),
            metrics: self.telemetry.snapshot(),
        }
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

    /// The executor the payload pipeline runs on (sequential when
    /// `parallelism <= 1`).
    pub fn executor(&self) -> &Executor {
        &self.executor
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
        assert_eq!(system.report().submissions, 1);
        assert_eq!(system.report().teams, 1);
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
        assert_eq!(report.submissions, 3);
        // 3 project uploads + 3 build-output uploads.
        assert_eq!(report.store.puts, 6);
        assert!(report.store.bytes_uploaded > 0);
        assert!(report.broker.published >= 3);
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
        // The job went through the scheduler: one single-job round.
        assert_eq!(metrics.counter_total(names::EXEC_BATCHES_TOTAL), 1);
        assert_eq!(metrics.counter_total(names::EXEC_BATCH_JOBS_TOTAL), 1);
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
        assert_eq!(system.report().submissions, submitted);
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

    /// Outcome summaries, final standings, and dedup-visible byte
    /// counters — everything a lane reordering could corrupt.
    type LaneSnapshot = (Vec<(u64, bool, SimDuration)>, Vec<(String, f64)>, usize);

    /// One full run-then-final scenario at a given lane/pool shape,
    /// reduced to everything outcome-visible.
    fn lane_scenario(shards: usize, parallelism: usize, claim_lanes: usize) -> LaneSnapshot {
        let mut system = RaiSystem::new(SystemConfig {
            workers: 4,
            parallelism,
            shards,
            claim_lanes,
            rate_limit: None,
            ..Default::default()
        });
        let teams: Vec<Credentials> = (0..4)
            .map(|i| system.register_team(&format!("team-{i}"), &[]))
            .collect();
        // Distinct payloads per job, so rounds have no shared chunk
        // digests and the multi-lane commit path actually engages.
        for (i, creds) in teams.iter().enumerate() {
            let client = system.client_for(creds);
            for j in 0..2 {
                let n = (i * 2 + j) as f64;
                let p = ProjectDir::cuda_project_with_perf(300.0 + n * 37.0, 0.9, 1024 + i as u64);
                client.begin_submit(&p, SubmitMode::Run).unwrap();
            }
        }
        let mut outcomes = system.drain();
        for (i, creds) in teams.iter().enumerate() {
            let client = system.client_for(creds);
            let p = ProjectDir::cuda_project_with_perf(200.0 + i as f64 * 100.0, 0.95, 2048)
                .with_final_artifacts();
            client.begin_submit(&p, SubmitMode::Submit).unwrap();
        }
        outcomes.extend(system.drain());
        let summary = outcomes
            .into_iter()
            .map(|o| (o.job_id, o.success, o.service_time))
            .collect();
        let usage = system.store().usage();
        let dedup_visible =
            (usage.bytes_wire + usage.chunks_dedup_total + usage.bytes_physical) as usize;
        (summary, system.rankings().standings(), dedup_visible)
    }

    #[test]
    fn commit_lanes_match_single_lane_reference() {
        // The single-lock, width-1 configuration is the reference
        // schedule; lanes and pool width must not change anything
        // outcome-visible (DESIGN.md §16).
        let reference = lane_scenario(1, 1, 1);
        for shards in [4, 16] {
            for parallelism in [1, 8] {
                assert_eq!(
                    lane_scenario(shards, parallelism, 1),
                    reference,
                    "shards={shards} parallelism={parallelism} diverged"
                );
            }
        }
    }

    #[test]
    fn claim_lanes_match_serial_claim_reference() {
        // The serial claim schedule (`claim_lanes == 1`) is the
        // reference; fanning the claim tail across lanes — alone or
        // combined with commit lanes and a wide pool — must not change
        // anything outcome-visible (DESIGN.md §17).
        let reference = lane_scenario(1, 1, 1);
        for claim_lanes in [2, 4, 16] {
            assert_eq!(
                lane_scenario(1, 1, claim_lanes),
                reference,
                "claim_lanes={claim_lanes} diverged"
            );
        }
        for (shards, parallelism, claim_lanes) in [(4, 8, 4), (16, 8, 16)] {
            assert_eq!(
                lane_scenario(shards, parallelism, claim_lanes),
                reference,
                "shards={shards} parallelism={parallelism} claim_lanes={claim_lanes} diverged"
            );
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
