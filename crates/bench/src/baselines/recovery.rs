//! `BENCH_recovery.json`: kill the durable deployment at seeded
//! points, recover from the write-ahead logs, and render the replay
//! numbers. Per pinned seed:
//!
//! 1. the **clean-kill byte-identity gate** — a fault-free quick course
//!    killed mid-drive, recovered, resumed: the recovered fingerprint
//!    equals the uninterrupted same-seed run's;
//! 2. the **chaos restart audit** — the full quick fault plan with a
//!    mid-drive kill: zero lost, zero duplicated, everything accounted
//!    across the restart;
//! 3. the **dirty-crash audit** — the same kill plus seeded disk
//!    faults on the logs' unsynced tails: the damage must surface in
//!    the replay ledger (torn bytes / corrupt records dropped), never
//!    as lost submissions or a panic;
//! 4. the **compaction gate** — aggressive thresholds so both logs
//!    snapshot mid-course, then a post-compaction kill recovering from
//!    snapshot + tail, byte-identical again.

use super::SEEDS;
use rai_wal::DurabilityConfig;
use rai_workload::chaos::ChaosConfig;
use rai_workload::recovery::{run_recovery, KillPoint, RecoveryConfig};

/// The seeded kill point every scenario uses: mid-drive, a few worker
/// steps into round 5 of the 12-round quick course.
pub const KILL: KillPoint = KillPoint { round: 5, after_steps: Some(2) };

/// Everything deterministic one seed's sweep produces.
pub struct SeedReport {
    pub seed: u64,
    /// Fingerprint shared by the uninterrupted run and every recovered
    /// run of the clean fault-free course.
    pub clean_fingerprint: u64,
    pub clean_accepted: usize,
    /// Chaos-plan restart audit numbers.
    pub chaos_accepted: usize,
    pub chaos_terminal: usize,
    pub chaos_dead_lettered: usize,
    pub chaos_republished: u64,
    pub chaos_db_replayed: u64,
    pub chaos_store_replayed: u64,
    /// Dirty-crash audit numbers (disk-fault draws are seeded, so
    /// these reproduce exactly).
    pub dirty_disk_faults: usize,
    pub dirty_corrupt_dropped: u64,
    pub dirty_torn_bytes: u64,
    pub(crate) dirty_terminal: usize,
    pub(crate) dirty_dead_lettered: usize,
    /// Compaction-gate numbers.
    pub compactions: u64,
    /// Cumulative bytes ever appended across both logs vs bytes
    /// resident after compaction — the log-bound the snapshots buy.
    pub compaction_ratio: f64,
}

fn aggressive() -> DurabilityConfig {
    DurabilityConfig { segment_bytes: 16 << 10, compact_min_bytes: 4 << 10, compact_factor: 2 }
}

fn run_seed(seed: u64) -> SeedReport {
    // 1. Clean-kill byte-identity.
    let clean_cfg = RecoveryConfig::clean(seed, KILL);
    let baseline = run_recovery(&RecoveryConfig { kill: None, ..clean_cfg.clone() });
    baseline.verify().expect("uninterrupted clean run audits");
    let resumed = run_recovery(&clean_cfg);
    assert!(resumed.killed, "seed {seed}: kill point never fired");
    resumed.verify().expect("recovered clean run audits");
    assert_eq!(
        resumed.fingerprint, baseline.fingerprint,
        "seed {seed}: recovered run differs from uninterrupted run"
    );

    // 2. Chaos restart audit. With the quick plan, dead letters exist
    // and every one is a poison id — re-publish must not dead-letter a
    // healthy job.
    let chaos_cfg = RecoveryConfig {
        chaos: ChaosConfig::quick(seed),
        kill: Some(KILL),
        disk_faults: None,
        durability: DurabilityConfig::durable(),
    };
    let chaos = run_recovery(&chaos_cfg);
    assert!(chaos.killed);
    chaos
        .verify()
        .expect("zero lost / zero duplicated across the chaos restart");
    let report = chaos.recovery.expect("a recovery happened");
    let malformed = (report.db.malformed_dropped, report.store.malformed_dropped);
    assert_eq!(malformed, (0, 0), "clean crash corrupts nothing");
    assert!(
        !chaos.dead_lettered.is_empty(),
        "seed {seed}: quick plan should dead-letter its poison jobs"
    );
    for id in &chaos.dead_lettered {
        assert!(chaos_cfg.chaos.plan.is_poison(*id), "seed {seed}: healthy job {id} dead-lettered");
    }

    // 3. Dirty crash.
    let dirty = run_recovery(&RecoveryConfig::dirty(seed, KILL));
    assert!(dirty.killed);
    dirty
        .verify()
        .expect("zero lost / zero duplicated after the dirty crash");
    let damage = dirty.recovery.expect("a recovery happened");
    let (db, store) = (damage.db.stats, damage.store.stats);
    let dirty_corrupt_dropped = db.corrupt_dropped + store.corrupt_dropped;
    let dirty_torn_bytes = db.torn_bytes + store.torn_bytes;
    if !dirty.disk_faults.is_empty() {
        assert!(
            dirty_corrupt_dropped > 0 || dirty_torn_bytes > 0,
            "seed {seed}: injected faults {:?} left no trace in the replay ledger",
            dirty.disk_faults
        );
    }

    // 4. Compaction gate: snapshots mid-course, then a byte-identical
    // post-compaction recovery.
    let mut compact_cfg = RecoveryConfig::clean(seed, KillPoint::mid_drive(9, 1));
    compact_cfg.durability = aggressive();
    let compact_base = run_recovery(&RecoveryConfig { kill: None, ..compact_cfg.clone() });
    assert!(
        compact_base.db_wal.compactions > 0 && compact_base.store_wal.compactions > 0,
        "seed {seed}: compaction thresholds never tripped"
    );
    let compact_resumed = run_recovery(&compact_cfg);
    compact_resumed.verify().expect("post-compaction recovery audits");
    assert_eq!(
        compact_resumed.fingerprint, compact_base.fingerprint,
        "seed {seed}: snapshot + tail recovery differs from uninterrupted run"
    );
    let appended = compact_base.db_wal.bytes + compact_base.store_wal.bytes;
    let resident = compact_base.db_wal.log_bytes + compact_base.store_wal.log_bytes;
    assert!(resident < appended, "compaction must shrink the resident log");

    SeedReport {
        seed,
        clean_fingerprint: baseline.fingerprint,
        clean_accepted: baseline.accepted.len(),
        chaos_accepted: chaos.accepted.len(),
        chaos_terminal: chaos.terminal.len(),
        chaos_dead_lettered: chaos.dead_lettered.len(),
        chaos_republished: chaos.republished,
        chaos_db_replayed: report.db.stats.replayed,
        chaos_store_replayed: report.store.stats.replayed,
        dirty_disk_faults: dirty.disk_faults.len(),
        dirty_corrupt_dropped,
        dirty_torn_bytes,
        dirty_terminal: dirty.terminal.len(),
        dirty_dead_lettered: dirty.dead_lettered.len(),
        compactions: compact_base.db_wal.compactions + compact_base.store_wal.compactions,
        compaction_ratio: appended as f64 / resident.max(1) as f64,
    }
}

/// The recovery baseline: one [`SeedReport`] per pinned seed.
pub struct Recovery {
    pub seeds: Vec<SeedReport>,
}

impl Recovery {
    /// Run the four scenarios on every pinned seed. Panics when a gate
    /// named in the module documentation does not hold.
    pub fn measure() -> Self {
        Recovery { seeds: SEEDS.iter().map(|&seed| run_seed(seed)).collect() }
    }

    /// The text of `BENCH_recovery.json`.
    pub fn render(&self) -> String {
        let list = |f: &dyn Fn(&SeedReport) -> String| -> String {
            self.seeds.iter().map(f).collect::<Vec<_>>().join(", ")
        };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"rai-recovery-bench/5\",\n");
        out.push_str(&format!("  \"seeds\": [{}],\n", list(&|s| s.seed.to_string())));
        out.push_str("  \"clean_kill\": {\n");
        out.push_str(&format!(
            "    \"fingerprints\": [{}],\n",
            list(&|s| format!("\"{:#018x}\"", s.clean_fingerprint))
        ));
        out.push_str(&format!(
            "    \"accepted\": [{}]\n",
            list(&|s| s.clean_accepted.to_string())
        ));
        out.push_str("  },\n");
        out.push_str("  \"chaos_restart\": {\n");
        out.push_str(&format!("    \"accepted\": [{}],\n", list(&|s| s.chaos_accepted.to_string())));
        out.push_str(&format!("    \"terminal\": [{}],\n", list(&|s| s.chaos_terminal.to_string())));
        out.push_str(&format!(
            "    \"dead_lettered\": [{}],\n",
            list(&|s| s.chaos_dead_lettered.to_string())
        ));
        out.push_str(&format!(
            "    \"republished\": [{}],\n",
            list(&|s| s.chaos_republished.to_string())
        ));
        out.push_str(&format!(
            "    \"db_records_replayed\": [{}],\n",
            list(&|s| s.chaos_db_replayed.to_string())
        ));
        out.push_str(&format!(
            "    \"store_records_replayed\": [{}]\n",
            list(&|s| s.chaos_store_replayed.to_string())
        ));
        out.push_str("  },\n");
        out.push_str("  \"dirty_crash\": {\n");
        out.push_str(&format!(
            "    \"disk_faults_injected\": [{}],\n",
            list(&|s| s.dirty_disk_faults.to_string())
        ));
        out.push_str(&format!(
            "    \"corrupt_records_dropped\": [{}],\n",
            list(&|s| s.dirty_corrupt_dropped.to_string())
        ));
        out.push_str(&format!(
            "    \"torn_bytes\": [{}],\n",
            list(&|s| s.dirty_torn_bytes.to_string())
        ));
        out.push_str(&format!("    \"terminal\": [{}],\n", list(&|s| s.dirty_terminal.to_string())));
        out.push_str(&format!(
            "    \"dead_lettered\": [{}],\n",
            list(&|s| s.dirty_dead_lettered.to_string())
        ));
        out.push_str("    \"audit\": \"pass\"\n");
        out.push_str("  },\n");
        out.push_str("  \"compaction\": {\n");
        out.push_str(&format!("    \"compactions\": [{}],\n", list(&|s| s.compactions.to_string())));
        out.push_str(&format!(
            "    \"ratio\": [{}]\n",
            list(&|s| format!("{:.4}", s.compaction_ratio))
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}
