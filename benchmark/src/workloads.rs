//! The four workloads. Each runs the shipped default configuration
//! through public entry points, one closed-loop driver thread: the next
//! submission starts when the previous one returns.

use crate::inputs::{self, BULK_TEAMS};
use rai_archive::restore;
use rai_auth::Credentials;
use rai_core::client::UPLOAD_BUCKET;
use rai_core::{ProjectDir, RaiSystem, SubmitReceipt, SystemConfig};
use rai_faults::DiskFaultProfile;
use rai_store::StoreUsage;
use rai_telemetry::{names, MetricsSnapshot};
use rai_wal::DurabilityConfig;
use rai_workload::semester::run_semester;
use rai_workload::{
    run_recovery, ChaosConfig, KillPoint, RecoveryConfig, SemesterConfig, TeamRoster,
};
use std::time::Instant;

/// Seed of the deployments the bulk workloads stand up (key generation
/// and worker noise). Fixed: `--seed` varies inputs, not the program.
pub const SYSTEM_SEED: u64 = 0x5EED;

/// Fingerprints committed in `BENCH_perf.json` / `BENCH_recovery.json`
/// for the default seed; the run must reproduce them.
pub const DEFAULT_SEED: u64 = 2016;
const SEMESTER_FINGERPRINT_2016: u64 = 0xc9f1_c2aa_0b01_e04a;
const DURABLE_CHAOS_FINGERPRINT_2016: u64 = 0x1912_eb6b_bacb_8fe9;

/// Declares [`Counts`] with a field-wise difference, so a count over
/// part of a run is `after.since(&before)`.
macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Exact counts read from the program's own ledgers.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64),*
        }

        impl Counts {
            /// What was counted after `before` was taken.
            pub fn since(&self, before: &Counts) -> Counts {
                Counts { $($field: self.$field - before.$field),* }
            }
        }
    };
}

counts! {
    bytes_uploaded,
    bytes_downloaded,
    store_puts,
    store_gets,
    /// Chunk references offered by puts: dedup hits plus admissions.
    store_chunks_offered,
    store_chunks_dedup,
    broker_published,
    broker_acked,
    broker_requeued,
    broker_dead_lettered,
    db_inserts,
    db_queries,
    db_updates,
    wal_appends,
    wal_bytes,
    wal_fsync_batches,
    wal_replayed,
    faults_injected,
}

impl Counts {
    pub fn db_ops(&self) -> u64 {
        self.db_inserts + self.db_queries + self.db_updates
    }
}

/// What one iteration of a workload did.
#[derive(Clone, Debug)]
pub struct Iteration {
    /// Wall-clock seconds of the timed region.
    pub wall_s: f64,
    /// Submissions attempted in the timed region.
    pub attempted: u64,
    /// Submissions that completed (reached a receipt or terminal row).
    pub completed: u64,
    /// Failed or timed-out receipts, rejected, lost or duplicated
    /// submissions, and audit errors. Plan-injected dead letters are
    /// expected outcomes, not failures.
    pub failed: u64,
    /// Logical bytes uploaded in the timed region.
    pub payload_bytes: u64,
    /// Bytes that crossed the wire for them.
    pub wire_bytes: u64,
    /// Cumulative logical bytes uploaded at iteration end.
    pub uploaded_total: u64,
    /// Physical bytes resident at iteration end.
    pub physical_bytes: u64,
    /// Digest of every deterministic output; equal across iterations.
    pub fingerprint: u64,
    pub counts: Counts,
}

/// A workload's generated inputs.
pub enum Workload {
    Semester(SemesterConfig),
    BulkFresh(Vec<Vec<ProjectDir>>),
    BulkResubmit(Vec<(ProjectDir, Vec<ProjectDir>)>),
    DurableChaos(RecoveryConfig),
}

impl Workload {
    /// Generate `name`'s inputs from `seed`.
    pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
        Ok(match name {
            "semester" => Workload::Semester(semester_config(seed)),
            "bulk_fresh" => Workload::BulkFresh(inputs::bulk_fresh_trees(seed)),
            "bulk_resubmit" => Workload::BulkResubmit(inputs::bulk_resubmit_trees(seed)),
            "durable_chaos" => Workload::DurableChaos(RecoveryConfig {
                chaos: ChaosConfig::acceptance(seed),
                kill: Some(KillPoint::mid_drive(80, 2)),
                disk_faults: Some(DiskFaultProfile::chaos(seed)),
                durability: DurabilityConfig::durable(),
            }),
            other => return Err(format!("unknown workload '{other}'")),
        })
    }

    /// Untimed warm-up iterations before measuring.
    pub fn warmups(&self) -> usize {
        match self {
            Workload::Semester(_) => 2,
            Workload::BulkFresh(_) | Workload::BulkResubmit(_) => 1,
            Workload::DurableChaos(_) => 5,
        }
    }

    /// The fingerprint this workload must produce at `seed`, where one
    /// is committed.
    pub fn committed_fingerprint(&self, seed: u64) -> Option<u64> {
        match self {
            Workload::Semester(_) if seed == DEFAULT_SEED => Some(SEMESTER_FINGERPRINT_2016),
            Workload::DurableChaos(_) if seed == DEFAULT_SEED => {
                Some(DURABLE_CHAOS_FINGERPRINT_2016)
            }
            _ => None,
        }
    }

    /// Run one iteration and check its outputs. `Err` is a correctness
    /// failure (a wrong output), not a failed submission.
    pub fn iterate(&self) -> Result<Iteration, String> {
        match self {
            Workload::Semester(config) => semester(config),
            Workload::BulkFresh(trees) => bulk_fresh(trees),
            Workload::BulkResubmit(trees) => bulk_resubmit(trees),
            Workload::DurableChaos(config) => durable_chaos(config),
        }
    }
}

/// The flagship course shape on `seed`'s roster and arrivals.
///
/// A 12-team roster's summed activity varies by some 15% between seeds,
/// and submission count, memory and dedup follow it. The arrival rate
/// is scaled so every seed expects the load of the default seed's
/// course: seeds then vary what is submitted and when, not how much.
/// At the default seed the scale is exactly 1 and the course is the
/// committed flagship, fingerprint included.
fn semester_config(seed: u64) -> SemesterConfig {
    let mut config = SemesterConfig::scaled(12, 21, seed);
    let activity = |seed: u64| -> f64 {
        TeamRoster::generate(config.teams, config.students, seed)
            .teams
            .iter()
            .map(|t| t.activity)
            .sum()
    };
    config.arrivals.base_per_hour *= activity(DEFAULT_SEED) / activity(seed);
    config
}

/// The counts every workload's final telemetry snapshot carries.
pub fn counts_from(metrics: &MetricsSnapshot, usage: &StoreUsage) -> Counts {
    Counts {
        bytes_uploaded: usage.bytes_uploaded,
        store_puts: usage.puts,
        store_gets: usage.gets,
        // Every chunk reference a put offered was either resolved
        // against a resident chunk or admitted as a new one; nothing
        // expires inside a run, so resident chunks are the admissions.
        store_chunks_offered: usage.chunks_dedup_total + usage.chunks,
        store_chunks_dedup: usage.chunks_dedup_total,
        bytes_downloaded: usage.bytes_downloaded,
        broker_published: metrics.counter_total(names::BROKER_PUBLISHED_TOTAL),
        broker_acked: metrics.counter_total(names::BROKER_ACKED_TOTAL),
        broker_requeued: metrics.counter_total(names::BROKER_REQUEUED_TOTAL),
        broker_dead_lettered: metrics.counter_total(names::DEAD_LETTERED_TOTAL),
        db_inserts: metrics.counter_total(names::DB_INSERTS_TOTAL),
        db_queries: metrics.counter_total(names::DB_QUERIES_TOTAL),
        db_updates: metrics.counter_total(names::DB_UPDATES_TOTAL),
        wal_appends: metrics.counter_total(names::WAL_APPENDS_TOTAL),
        wal_bytes: metrics.counter_total(names::WAL_BYTES_TOTAL),
        wal_fsync_batches: metrics.counter_total(names::WAL_FSYNC_BATCHES_TOTAL),
        wal_replayed: metrics.counter_total(names::WAL_REPLAYED_RECORDS_TOTAL),
        faults_injected: metrics.counter_total(names::FAULTS_INJECTED_TOTAL),
    }
}

/// FNV-1a over little-endian words, the repo's fingerprint idiom.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn eat_u64(&mut self, n: u64) {
        for b in n.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn semester(config: &SemesterConfig) -> Result<Iteration, String> {
    let start = Instant::now();
    let result = run_semester(config);
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Iteration {
        wall_s,
        // `failures` counts refused submissions as well as failed
        // jobs; `total_submissions` counts the accepted ones.
        attempted: result.total_submissions + result.failures,
        completed: result.total_submissions,
        failed: result.failures,
        payload_bytes: result.store.bytes_uploaded,
        wire_bytes: result.store.bytes_wire,
        uploaded_total: result.store.bytes_uploaded,
        physical_bytes: result.store.bytes_physical,
        fingerprint: result.fingerprint(),
        counts: counts_from(&result.metrics, &result.store),
    })
}

fn durable_chaos(config: &RecoveryConfig) -> Result<Iteration, String> {
    let start = Instant::now();
    let result = run_recovery(config);
    let wall_s = start.elapsed().as_secs_f64();
    if !result.killed || result.recovery.is_none() {
        return Err("the mid-drive kill did not fire".to_string());
    }
    let audit = result.verify();
    let m = &result.metrics;
    let gauge = |name: &str| m.gauge(name, &[]).unwrap_or(0.0) as u64;
    // The recovered store replays its cumulative counters from the log,
    // so the final process's snapshot covers both lives.
    let usage = StoreUsage {
        bytes_physical: gauge(names::STORE_BYTES_PHYSICAL),
        chunks: gauge(names::STORE_CHUNKS),
        chunks_dedup_total: m.counter_total(names::STORE_CHUNKS_DEDUP_TOTAL),
        bytes_uploaded: m.counter_total(names::STORE_BYTES_UPLOADED_TOTAL),
        bytes_wire: m.counter_total(names::STORE_BYTES_WIRE_TOTAL),
        bytes_downloaded: m.counter_total(names::STORE_BYTES_DOWNLOADED_TOTAL),
        puts: m.counter_total(names::STORE_PUTS_TOTAL),
        gets: m.counter_total(names::STORE_GETS_TOTAL),
        ..StoreUsage::default()
    };
    let accepted = result.accepted.len() as u64;
    let failed = result.rejected
        + (result.lost.len() + result.duplicated.len()) as u64
        + u64::from(audit.is_err());
    let iteration = Iteration {
        wall_s,
        attempted: accepted + result.rejected,
        completed: (result.terminal.len() + result.dead_lettered.len()) as u64,
        failed,
        payload_bytes: usage.bytes_uploaded,
        wire_bytes: usage.bytes_wire,
        uploaded_total: usage.bytes_uploaded,
        physical_bytes: usage.bytes_physical,
        fingerprint: result.fingerprint,
        counts: counts_from(m, &usage),
    };
    audit.map(|()| iteration)
}

fn bulk_system() -> (RaiSystem, Vec<Credentials>) {
    let mut system = RaiSystem::new(SystemConfig {
        workers: 2,
        rate_limit: None,
        seed: SYSTEM_SEED,
        durability: DurabilityConfig::default(),
        ..Default::default()
    });
    let creds = (0..BULK_TEAMS)
        .map(|i| system.register_team(&format!("bulk-team-{i:02}"), &[]))
        .collect();
    (system, creds)
}

/// Submit `project` and wait for its receipt; a refused or timed-out
/// submission is a failure with no receipt.
fn submit(
    system: &mut RaiSystem,
    creds: &Credentials,
    project: &ProjectDir,
) -> Option<SubmitReceipt> {
    system.submit(creds, project).ok()
}

/// The upload behind `receipt`, fetched back from the file server and
/// restored, must equal the submitted tree byte for byte.
fn check_round_trip(
    system: &RaiSystem,
    creds: &Credentials,
    receipt: &SubmitReceipt,
    project: &ProjectDir,
) -> Result<(), String> {
    let key = format!(
        "{}/{:08x}.tar.bz2",
        creds.user_name.replace(' ', "-"),
        receipt.job_id
    );
    let object = system
        .store()
        .get(UPLOAD_BUCKET, &key)
        .map_err(|e| format!("fetch {key}: {e}"))?;
    let tree = restore(&object.data).map_err(|e| format!("restore {key}: {e}"))?;
    if tree == project.tree {
        Ok(())
    } else {
        Err(format!(
            "{key} restored to a different tree than was submitted"
        ))
    }
}

/// Fold the timed receipts and the store ledger into an [`Iteration`].
/// Every bulk receipt must be successful: these trees are healthy
/// projects on a fault-free deployment.
fn bulk_iteration(
    system: &RaiSystem,
    wall_s: f64,
    before: StoreUsage,
    receipts: &[Option<SubmitReceipt>],
) -> Result<Iteration, String> {
    let report = system.report();
    let usage = report.store;
    let mut fp = Fingerprint::new();
    for n in [
        usage.bytes_stored,
        usage.bytes_physical,
        usage.bytes_uploaded,
        usage.bytes_wire,
        usage.chunks,
        usage.chunks_dedup_total,
        usage.puts,
        usage.delta_puts,
    ] {
        fp.eat_u64(n);
    }
    for receipt in receipts {
        match receipt {
            Some(r) => {
                fp.eat_u64(r.job_id);
                fp.eat_u64(u64::from(r.success));
                fp.eat_u64(r.log.len() as u64);
            }
            None => fp.eat_u64(u64::MAX),
        }
    }
    let ok = receipts.iter().flatten().filter(|r| r.success).count() as u64;
    if ok != receipts.len() as u64 {
        return Err(format!(
            "{} of {} bulk receipts were not successful",
            receipts.len() as u64 - ok,
            receipts.len()
        ));
    }
    Ok(Iteration {
        wall_s,
        attempted: receipts.len() as u64,
        completed: receipts.iter().flatten().count() as u64,
        failed: receipts.len() as u64 - ok,
        payload_bytes: usage.bytes_uploaded - before.bytes_uploaded,
        wire_bytes: usage.bytes_wire - before.bytes_wire,
        uploaded_total: usage.bytes_uploaded,
        physical_bytes: usage.bytes_physical,
        fingerprint: fp.0,
        counts: counts_from(&report.metrics, &usage),
    })
}

fn bulk_fresh(trees: &[Vec<ProjectDir>]) -> Result<Iteration, String> {
    let (mut system, creds) = bulk_system();
    let rounds = trees[0].len();
    let mut receipts = Vec::with_capacity(trees.len() * rounds);
    let start = Instant::now();
    for round in 0..rounds {
        for (cred, team_trees) in creds.iter().zip(trees) {
            receipts.push(submit(&mut system, cred, &team_trees[round]));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let iteration = bulk_iteration(&system, wall_s, StoreUsage::default(), &receipts)?;
    // The sampled upload moves with the payload, so every tree is
    // checked somewhere across seeds.
    let sample = (iteration.payload_bytes % receipts.len() as u64) as usize;
    if let Some(receipt) = &receipts[sample] {
        let (team, round) = (sample % creds.len(), sample / creds.len());
        check_round_trip(&system, &creds[team], receipt, &trees[team][round])?;
    }
    let wire = iteration.wire_bytes as f64 / iteration.payload_bytes as f64;
    if wire <= 0.9 {
        return Err(format!(
            "fresh trees deduplicated: wire/payload {wire:.3} <= 0.9"
        ));
    }
    Ok(iteration)
}

fn bulk_resubmit(trees: &[(ProjectDir, Vec<ProjectDir>)]) -> Result<Iteration, String> {
    let (mut system, creds) = bulk_system();
    // Untimed: every team's base tree is already on the file server.
    for (cred, (base, _)) in creds.iter().zip(trees) {
        if !submit(&mut system, cred, base).is_some_and(|r| r.success) {
            return Err("base upload failed".to_string());
        }
    }
    let before = system.store().usage();
    let resubmits = trees[0].1.len();
    let mut receipts = Vec::with_capacity(trees.len() * resubmits);
    let start = Instant::now();
    for k in 0..resubmits {
        for (cred, (_, edits)) in creds.iter().zip(trees) {
            receipts.push(submit(&mut system, cred, &edits[k]));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let iteration = bulk_iteration(&system, wall_s, before, &receipts)?;
    let sample = (iteration.wire_bytes % receipts.len() as u64) as usize;
    if let Some(receipt) = &receipts[sample] {
        let (team, k) = (sample % creds.len(), sample / creds.len());
        check_round_trip(&system, &creds[team], receipt, &trees[team].1[k])?;
    }
    let wire = iteration.wire_bytes as f64 / iteration.payload_bytes as f64;
    if wire >= 0.6 {
        return Err(format!(
            "resubmissions did not deduplicate: wire/payload {wire:.3} >= 0.6"
        ));
    }
    Ok(iteration)
}
