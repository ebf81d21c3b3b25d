//! The restart-resume chaos audit: kill the whole process mid-semester,
//! recover from the write-ahead logs, resume, and prove nothing was
//! lost.
//!
//! This is the durability counterpart of [`crate::chaos`]. The same
//! round-structured course runs on a *durable* deployment
//! ([`rai_core::RaiSystem::with_clock_durable`]) whose database and
//! object store journal every committed mutation to a pair of
//! simulated disks. At a seeded kill point the process "dies": every
//! piece of in-memory state — broker queues, worker claims, credential
//! registry, telemetry — is dropped on the floor, optionally with
//! seeded disk faults chewing on the unsynced log tails. The harness
//! then recovers a fresh deployment from the two logs, re-registers
//! the course's teams, re-publishes the accepted-but-unfinished
//! submissions found in the intent ledger, resumes the remaining
//! rounds, and audits the combined run with the exact audit
//! (and fingerprint) the chaos scenario uses:
//!
//! * **zero lost** — every accepted submission reaches a terminal row
//!   or the dead-letter topic, across the kill;
//! * **zero duplicated** — recovery's re-publish never double-counts a
//!   job that already completed;
//! * with a clean kill and a fault-free plan, the recovered run's
//!   fingerprint is **byte-identical** to an uninterrupted same-seed
//!   run.

use crate::chaos::{ChaosConfig, Course};
use rai_cluster::InstanceType;
use rai_core::{RaiSystem, RecoveryReport, SystemConfig};
use rai_faults::{DiskFault, DiskFaultProfile};
use rai_sim::VirtualClock;
use rai_telemetry::MetricsSnapshot;
use rai_wal::{DurabilityConfig, MemDisk, WalStats};
use std::sync::Arc;

/// Where in the run the process dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillPoint {
    /// The submission round the kill lands in (0-based). A round ≥ the
    /// configured round count never fires.
    pub round: usize,
    /// When within the round: `None` kills right after the round's
    /// submissions are accepted (jobs queued, none processed);
    /// `Some(n)` kills after `n` job commits of the round's
    /// processing — between two commits; `Some(u64::MAX)` kills at the
    /// round boundary, after the queue fully drains.
    pub after_steps: Option<u64>,
}

impl KillPoint {
    /// Kill after round `round`'s submissions, before any processing.
    pub fn before_drive(round: usize) -> Self {
        KillPoint { round, after_steps: None }
    }

    /// Kill mid-drive, `steps` worker step events into round `round`.
    pub fn mid_drive(round: usize, steps: u64) -> Self {
        KillPoint { round, after_steps: Some(steps) }
    }

    /// Kill at the boundary after round `round` fully drains.
    pub fn at_boundary(round: usize) -> Self {
        KillPoint { round, after_steps: Some(u64::MAX) }
    }
}

/// Restart-resume run parameters.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// The underlying course + fault plan (shared with [`crate::chaos`]
    /// so recovered runs can be compared against uninterrupted ones).
    pub chaos: ChaosConfig,
    /// The seeded kill point; `None` runs uninterrupted (on the same
    /// durable deployment — the cross-validation baseline).
    pub kill: Option<KillPoint>,
    /// Disk-fault profile applied to the logs' unsynced tails at the
    /// kill ("dirty" crash); `None` crashes clean.
    pub disk_faults: Option<DiskFaultProfile>,
    /// Durability knobs for the two write-ahead logs.
    pub durability: DurabilityConfig,
}

impl RecoveryConfig {
    /// A clean kill of a fault-free quick course — the byte-identity
    /// profile.
    pub fn clean(seed: u64, kill: KillPoint) -> Self {
        let mut chaos = ChaosConfig::quick(seed);
        chaos.plan = rai_faults::FaultPlan::none(seed);
        RecoveryConfig {
            chaos,
            kill: Some(kill),
            disk_faults: None,
            durability: DurabilityConfig::durable(),
        }
    }

    /// A dirty crash of the full quick chaos course: process kill plus
    /// seeded disk faults on the unsynced log tails.
    pub fn dirty(seed: u64, kill: KillPoint) -> Self {
        RecoveryConfig {
            chaos: ChaosConfig::quick(seed),
            kill: Some(kill),
            disk_faults: Some(DiskFaultProfile::chaos(seed)),
            durability: DurabilityConfig::durable(),
        }
    }
}

/// Audited outputs of a restart-resume run.
#[derive(Debug)]
pub struct RecoveryResult {
    /// Job ids accepted across both lives of the process.
    pub accepted: Vec<u64>,
    /// Visible submit failures (not losses).
    pub rejected: u64,
    /// Job ids with a terminal submissions row after the full run.
    pub terminal: Vec<u64>,
    /// Job ids that left via the dead-letter topic (post-recovery tap;
    /// pre-kill dead letters die with the broker and re-earn their
    /// place by re-executing).
    pub dead_lettered: Vec<u64>,
    /// Job ids with more than one row (must be empty).
    pub duplicated: Vec<u64>,
    /// Accepted ids never reaching a terminal state (must be empty).
    pub lost: Vec<u64>,
    /// Final leaderboard.
    pub standings: Vec<(String, f64)>,
    /// The chaos-scenario fingerprint of the terminal state.
    pub fingerprint: u64,
    /// Whether the kill actually fired.
    pub killed: bool,
    /// Jobs the recovered process re-published from the intent ledger.
    pub republished: u64,
    /// What replay reported, when a recovery happened.
    pub recovery: Option<RecoveryReport>,
    /// Disk faults injected at the kill.
    pub disk_faults: Vec<DiskFault>,
    /// Final db-log statistics (appends, replays, corruption drops…).
    pub db_wal: WalStats,
    /// Final store-log statistics.
    pub store_wal: WalStats,
    /// Fleet instances that died mid-run (both lives).
    pub instances_failed: usize,
    /// Telemetry snapshot of the final process.
    pub metrics: MetricsSnapshot,
}

impl RecoveryResult {
    /// The crash-consistency guarantee as one checkable statement:
    /// nothing lost, nothing double-counted, everything accounted.
    pub fn verify(&self) -> Result<(), String> {
        if !self.lost.is_empty() {
            return Err(format!("lost submissions across restart: {:?}", self.lost));
        }
        if !self.duplicated.is_empty() {
            return Err(format!(
                "double-counted submissions after re-publish: {:?}",
                self.duplicated
            ));
        }
        let accounted = self.terminal.len() + self.dead_lettered.len();
        if accounted < self.accepted.len() {
            return Err(format!(
                "{} accepted but only {} accounted for",
                self.accepted.len(),
                accounted
            ));
        }
        Ok(())
    }
}

/// Run the restart-resume scenario and audit it.
pub fn run_recovery(config: &RecoveryConfig) -> RecoveryResult {
    let chaos = &config.chaos;
    let sys_config = SystemConfig {
        durability: config.durability,
        ..chaos.system_config()
    };
    let db_disk = MemDisk::new();
    let store_disk = MemDisk::new();
    let system = RaiSystem::with_clock_durable(
        sys_config.clone(),
        VirtualClock::new(),
        Arc::new(db_disk.clone()),
        Arc::new(store_disk.clone()),
    );
    let mut course = Course::deploy(chaos, system);
    let creds = course.register_teams();

    // A kill round past the end of the course never fires.
    let kill = config.kill.filter(|k| k.round < chaos.rounds);
    course.run_rounds(&creds, 0..kill.map_or(chaos.rounds, |k| k.round));

    let mut republished = 0;
    let mut recovery = None;
    let mut disk_faults = Vec::new();
    if let Some(kill) = kill {
        course.submit_round(&creds, kill.round);
        // `None` dies with the round's jobs queued, none processed. A
        // budget that outlasts the round's work (`at_boundary`'s
        // `u64::MAX` always does) drains the queue, and the process
        // dies between rounds.
        if kill.after_steps.is_some() {
            course.drive(kill.after_steps);
        }

        // ---- The process dies. ----
        let kill_time = course.system.clock().now();
        let remaining_deaths = course.deaths.iter().copied().filter(|t| *t > kill_time).collect();
        let injector = course.system.fault_injector().cloned();
        let pre_kill_failed = course.pool.stats().failed;
        let (accepted, rejected) = (std::mem::take(&mut course.accepted), course.rejected);
        drop(course);
        // The crash chews on the unsynced log tails (or doesn't, for a
        // clean kill). Distinct crash indices keep the two logs' fault
        // draws independent.
        match &config.disk_faults {
            Some(profile) => {
                disk_faults.extend(db_disk.crash_with(profile, 0));
                disk_faults.extend(store_disk.crash_with(profile, 1));
            }
            None => {
                db_disk.crash_clean();
                store_disk.crash_clean();
            }
        }

        // ---- Recovery: a fresh process, the same environment. ----
        // The clock and the fault injector's draw state are the
        // *world*, not process memory — the world does not rewind when
        // a service restarts.
        let (mut system, report) = RaiSystem::recover_with_clock(
            sys_config,
            VirtualClock::starting_at(kill_time),
            Arc::new(db_disk),
            Arc::new(store_disk),
            injector,
        );
        recovery = Some(report);
        // Re-register teams in their original order: the key generator
        // is deterministic in (seed, order), so the journaled job
        // signatures verify against the re-issued credentials.
        for name in chaos.team_names() {
            system.reregister_team(&name);
        }
        republished = system.republish_pending();
        course = Course::deploy(chaos, system);
        course.deaths = remaining_deaths;
        course.accepted = accepted;
        course.rejected = rejected;
        // Pre-seed the failure ledger with the first life's losses.
        for _ in 0..pre_kill_failed {
            let extra = course.pool.launch(InstanceType::p2(), 1);
            course.pool.fail(extra[0]);
        }
        // Finish the killed round — re-published jobs and any the kill
        // left queued run to completion — then resume the rest.
        course.drive(None);
        course.run_rounds(&creds, kill.round + 1..chaos.rounds);
    }

    let audit = course.finish();
    let system = &course.system;
    RecoveryResult {
        rejected: course.rejected,
        terminal: audit.terminal,
        dead_lettered: audit.dead_lettered,
        duplicated: audit.duplicated,
        lost: audit.lost,
        standings: audit.standings,
        fingerprint: audit.fingerprint,
        killed: kill.is_some(),
        republished,
        recovery,
        disk_faults,
        db_wal: system.db().wal().expect("durable deployment").stats(),
        store_wal: system.store().wal().expect("durable deployment").stats(),
        instances_failed: course.pool.stats().failed,
        metrics: system.telemetry().snapshot(),
        accepted: course.accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::run_chaos;

    #[test]
    fn uninterrupted_durable_run_matches_chaos_fingerprint() {
        // Journaling must be an observer: the same seed on a durable
        // deployment produces the exact bytes the in-memory chaos run
        // does.
        let chaos = run_chaos(&ChaosConfig::quick(42));
        let durable = run_recovery(&RecoveryConfig {
            chaos: ChaosConfig::quick(42),
            kill: None,
            disk_faults: None,
            durability: DurabilityConfig::durable(),
        });
        assert!(!durable.killed);
        durable.verify().expect("invariant holds");
        assert_eq!(durable.fingerprint, chaos.fingerprint);
        assert_eq!(durable.accepted, chaos.accepted);
        assert!(durable.db_wal.appends > 0, "db mutations journaled");
        assert!(durable.store_wal.appends > 0, "store mutations journaled");
        // The per-log telemetry collectors see the same numbers.
        for (label, stats) in [("db", &durable.db_wal), ("store", &durable.store_wal)] {
            assert_eq!(
                durable
                    .metrics
                    .counter(rai_telemetry::names::WAL_APPENDS_TOTAL, &[("log", label)]),
                Some(stats.appends)
            );
            assert_eq!(
                durable
                    .metrics
                    .counter(rai_telemetry::names::WAL_FSYNC_BATCHES_TOTAL, &[("log", label)]),
                Some(stats.fsync_batches)
            );
        }
    }

    #[test]
    fn clean_kill_resume_is_byte_identical_fault_free() {
        for kill in [
            KillPoint::before_drive(3),
            KillPoint::mid_drive(5, 2),
            KillPoint::at_boundary(7),
        ] {
            let baseline = run_recovery(&RecoveryConfig { kill: None, ..RecoveryConfig::clean(9, kill) });
            let resumed = run_recovery(&RecoveryConfig::clean(9, kill));
            assert!(resumed.killed, "kill {kill:?} fired");
            resumed.verify().expect("invariant holds");
            assert!(resumed.recovery.is_some());
            assert_eq!(
                resumed.fingerprint, baseline.fingerprint,
                "kill {kill:?}: recovered run differs from uninterrupted run"
            );
            assert_eq!(resumed.accepted, baseline.accepted);
            assert_eq!(resumed.duplicated, Vec::<u64>::new());
        }
    }

    #[test]
    fn mid_drive_kill_under_chaos_plan_loses_nothing() {
        let cfg = RecoveryConfig {
            chaos: ChaosConfig::quick(21),
            kill: Some(KillPoint::mid_drive(6, 3)),
            disk_faults: None,
            durability: DurabilityConfig::durable(),
        };
        let result = run_recovery(&cfg);
        assert!(result.killed);
        result.verify().expect("no-lost across restart under chaos plan");
        assert!(result.recovery.is_some());
        let report = result.recovery.unwrap();
        assert!(report.db.stats.replayed > 0);
        assert!(report.store.stats.replayed > 0);
        assert_eq!(report.db.malformed_dropped, 0, "clean crash corrupts nothing");
        assert_eq!(result.db_wal.corrupt_dropped, 0);
    }

    #[test]
    fn kill_after_compaction_recovers_from_snapshot_plus_tail() {
        // Aggressive compaction thresholds force snapshots mid-course;
        // a later kill must recover from snapshot + tail to the same
        // bytes as the uninterrupted run.
        let durability = DurabilityConfig {
            segment_bytes: 16 << 10,
            compact_min_bytes: 4 << 10,
            compact_factor: 2,
            ..DurabilityConfig::durable()
        };
        let mut cfg = RecoveryConfig::clean(17, KillPoint::mid_drive(9, 1));
        cfg.durability = durability;
        let baseline = run_recovery(&RecoveryConfig { kill: None, ..cfg.clone() });
        assert!(
            baseline.db_wal.compactions > 0 && baseline.store_wal.compactions > 0,
            "thresholds low enough that both logs compacted (db {}, store {})",
            baseline.db_wal.compactions,
            baseline.store_wal.compactions
        );
        let resumed = run_recovery(&cfg);
        assert!(resumed.killed);
        resumed.verify().unwrap();
        assert_eq!(resumed.fingerprint, baseline.fingerprint);
        // Compaction actually bounded the resident log: far fewer
        // bytes on disk than were ever appended.
        assert!(baseline.db_wal.log_bytes < baseline.db_wal.bytes);
    }

    #[test]
    fn dirty_crash_detects_corruption_and_still_loses_nothing() {
        // Disk faults on the unsynced tails: replay must detect and
        // drop the damage (never panic, never silently accept), and
        // the at-least-once path must still account for every
        // accepted submission.
        let mut checked_any_faults = false;
        for seed in [5u64, 6, 7] {
            let result = run_recovery(&RecoveryConfig::dirty(seed, KillPoint::mid_drive(5, 2)));
            assert!(result.killed);
            result.verify().expect("zero lost, zero duplicated after dirty crash");
            if !result.disk_faults.is_empty() {
                checked_any_faults = true;
                // Torn/corrupt damage shows up in the replay ledger,
                // not as lost submissions.
                let stats = [&result.db_wal, &result.store_wal];
                assert!(
                    stats.iter().any(|s| s.corrupt_dropped > 0 || s.torn_bytes > 0),
                    "seed {seed}: faults {:?} left no trace in replay stats",
                    result.disk_faults
                );
            }
        }
        assert!(checked_any_faults, "no seed injected any disk fault");
    }
}
