//! The journal's bytes, pinned: a scripted durable history — uploads
//! that dedup, build fetches, ranking upserts, inserts and deletes of
//! every record kind, compactions, a dirty crash and the recovered
//! process carrying on — leaves the same bytes in every segment of both
//! logs as it always has. `BENCH_recovery.json` pins what a recovery
//! *observes*; this pins what the logs *hold*, so a change to how a
//! record is encoded, framed, checksummed or replayed that moves a byte
//! fails here even where no fingerprint notices.
//!
//! It is its own test binary with a single `#[test]`: presigned-URL
//! secrets count the stores a process has made.

use rai::core::client::{ProjectDir, UPLOAD_BUCKET};
use rai::core::system::{RaiSystem, SystemConfig};
use rai::db::doc;
use rai::sim::{SimDuration, VirtualClock};
use rai_faults::DiskFaultProfile;
use rai_wal::{DurabilityConfig, MemDisk};
use std::sync::Arc;

/// FNV-1a 64 over every segment of `disks` in order: its id, its length
/// and its bytes.
fn image_digest(disks: &[&MemDisk]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for disk in disks {
        for id in disk.list_segments() {
            let bytes = disk.read_segment(id);
            eat(&id.to_le_bytes());
            eat(&(bytes.len() as u64).to_le_bytes());
            eat(&bytes);
        }
    }
    h
}

/// The digest [`image_digest`] gives the logs the history below leaves,
/// computed when `insert_many` came to journal one `insert_one` record
/// per document and the history's extra records moved onto the `teams`
/// table.
const JOURNAL_IMAGE_DIGEST: u64 = 0xfde3_bb8c_7638_27b3;

/// Small segments and thresholds, so the history rotates segments and
/// compacts both logs at most round boundaries.
fn config() -> SystemConfig {
    SystemConfig {
        rate_limit: None,
        durability: DurabilityConfig {
            segment_bytes: 16 << 10,
            compact_min_bytes: 16 << 10,
            compact_factor: 1,
        },
        ..SystemConfig::default()
    }
}

/// Team names the request codec has to quote, beside a plain one.
const TEAMS: [&str; 3] = ["gpu-gophers", "warp: nine", "1e3"];

/// One round: every team submits, every other project edited (so half
/// the uploads dedup against the last), finals every third round.
fn round(system: &mut RaiSystem, creds: &[rai::auth::Credentials], round: u64) {
    for (i, c) in creds.iter().enumerate() {
        let speed = 400.0 + 10.0 * ((round + i as u64) / 2) as f64;
        let project = ProjectDir::cuda_project_with_perf(speed, 0.9, 1024);
        let receipt = if round % 3 == 2 {
            system.submit_final(c, &project.with_final_artifacts())
        } else {
            system.submit(c, &project)
        };
        assert!(receipt.expect("accepted").success, "round {round}, team {i}");
    }
}

#[test]
fn a_durable_history_leaves_the_journal_bytes_it_always_has() {
    let (db_disk, store_disk) = (MemDisk::new(), MemDisk::new());
    let mut system = RaiSystem::with_clock_durable(
        config(),
        VirtualClock::new(),
        Arc::new(db_disk.clone()),
        Arc::new(store_disk.clone()),
    );
    let creds: Vec<_> = TEAMS.iter().map(|t| system.register_team(t, &["ann", "bo"])).collect();
    let mut compactions = (0, 0);
    for r in 0..8 {
        round(&mut system, &creds, r);
        system.sync_wals();
        let (db, store) = system.maybe_compact();
        compactions.0 += u32::from(db);
        compactions.1 += u32::from(store);
    }
    assert!(compactions.0 >= 1 && compactions.1 >= 1, "{compactions:?}");

    // Records the submission path does not write: many-document
    // inserts, an index build, deletes, a store delete and a sweep
    // that expires.
    {
        let mut tables = system.db().write();
        let teams = &mut tables.teams;
        teams.insert_many([doc! { "n" => 1, "s" => "a: b" }, doc! { "n" => 2, "x" => 0.5 }]);
        teams.create_index("n");
        teams.delete_many(&doc! { "n" => 1 });
    }
    let uploads = system.store().list(UPLOAD_BUCKET, "").expect("bucket");
    system.store().delete(UPLOAD_BUCKET, &uploads[0].key).expect("listed");
    system.clock().advance(SimDuration::from_days(40));
    assert!(system.store().sweep_lifecycle() > 0);
    round(&mut system, &creds, 8);
    system.sync_wals();

    // Two more rounds' records, the last of them unsynced when the
    // process dies and the crash chews on the tails.
    round(&mut system, &creds, 9);
    round(&mut system, &creds, 10);
    let kill_time = system.clock().now();
    drop(system);
    let profile = DiskFaultProfile::chaos(11);
    let faults = [db_disk.crash_with(&profile, 0), store_disk.crash_with(&profile, 1)];
    assert!(faults.iter().any(|f| !f.is_empty()), "the crash damaged nothing");

    let (mut system, report) = RaiSystem::recover_with_clock(
        config(),
        VirtualClock::starting_at(kill_time),
        Arc::new(db_disk.clone()),
        Arc::new(store_disk.clone()),
        None,
    );
    assert!(report.db.applied > 0 && report.store.stats.replayed > 0);
    let creds: Vec<_> = TEAMS.iter().map(|t| system.reregister_team(t)).collect();
    system.republish_pending();
    system.drain();
    round(&mut system, &creds, 11);
    system.sync_wals();
    system.maybe_compact();
    round(&mut system, &creds, 12);
    system.sync_wals();

    let digest = image_digest(&[&db_disk, &store_disk]);
    assert_eq!(digest, JOURNAL_IMAGE_DIGEST, "journal image digest {digest:#018x}");
}
