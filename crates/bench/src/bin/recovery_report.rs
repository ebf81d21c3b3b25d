//! **Crash-recovery baseline**: kill the durable deployment at seeded
//! points, recover from the write-ahead logs, and write the replay
//! numbers to `BENCH_recovery.json`.
//!
//! `rai_bench::baselines::Recovery` runs the four gated scenarios per
//! pinned seed (clean-kill byte identity, chaos restart audit,
//! dirty-crash audit, compaction gate) and renders every deterministic
//! field: fingerprints, accepted/terminal/dead-letter/republish counts,
//! replayed-record counts, corruption drops, compaction counts;
//! `cargo test` holds the committed file to the same rendering. This
//! bin prints the report, writes the file, and times one replay
//! (printed to stdout only — wall time is a host fact).
//!
//! ```text
//! cargo run --release -p rai-bench --bin recovery_report
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md.

use rai_bench::baselines::{Recovery, SeedReport, KILL, SEEDS};
use rai_workload::recovery::{run_recovery, RecoveryConfig};

/// Time one recovery and print it: the fault-free course killed at the
/// pinned point, timed around the one `recover_with_clock` call.
fn replay_wall(seed: u64) {
    let result = run_recovery(&RecoveryConfig::clean(seed, KILL));
    let report = result.recovery.expect("recovery happened");
    let wall = result.replay_wall.expect("recovery happened");
    println!(
        "  replay wall (seed {seed}): {:.2} ms over {} records (host fact, not gated)",
        wall.as_secs_f64() * 1e3,
        report.db.stats.replayed + report.store.stats.replayed
    );
}

fn print_seed(s: &SeedReport) {
    println!("  seed {}", s.seed);
    println!(
        "    clean kill       fingerprint {:#018x} over {} accepted, recovered == uninterrupted",
        s.clean_fingerprint, s.clean_accepted
    );
    println!(
        "    chaos restart    {} accepted -> {} terminal + {} dead-lettered, {} republished",
        s.chaos_accepted, s.chaos_terminal, s.chaos_dead_lettered, s.chaos_republished
    );
    println!(
        "    replayed         {} db + {} store records",
        s.chaos_db_replayed, s.chaos_store_replayed
    );
    println!(
        "    dirty crash      {} disk faults -> {} corrupt dropped, {} torn bytes, audit pass",
        s.dirty_disk_faults, s.dirty_corrupt_dropped, s.dirty_torn_bytes
    );
    println!(
        "    compaction       {} snapshots, {:.2}x log-bound",
        s.compactions, s.compaction_ratio
    );
}

fn main() {
    rai_bench::args_or_usage("recovery_report  (no arguments; writes BENCH_recovery.json to the working directory)", 0, &[]);
    rai_bench::header(&format!("crash-recovery baseline — seeds {SEEDS:?}"));
    let recovery = Recovery::measure();
    recovery.seeds.iter().for_each(print_seed);
    replay_wall(SEEDS[0]);

    std::fs::write("BENCH_recovery.json", recovery.render()).expect("write BENCH_recovery.json");
    println!("\nwrote BENCH_recovery.json");
}
