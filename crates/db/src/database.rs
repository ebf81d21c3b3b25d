//! The thread-safe database handle: named collections behind RwLocks.

use crate::collection::{Collection, CollectionStats};
use crate::journal::{DbRecord, JournalSink};
use parking_lot::RwLock;
use rai_wal::Wal;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Database-level failure. The in-memory engine itself cannot fail;
/// this models the *connection* to a real MongoDB deployment, which
/// can — and is produced by an attached fault injector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// Transient connection failure; the operation did not happen.
    /// Retryable.
    Unavailable,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Unavailable => write!(f, "database temporarily unavailable"),
        }
    }
}

impl std::error::Error for DbError {}

/// What [`Database::recover`] rebuilt and what it discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbRecovery {
    /// Raw WAL replay accounting (CRC drops, torn bytes).
    pub stats: rai_wal::ReplayStats,
    /// Logical records applied.
    pub applied: u64,
    /// Records whose CRC passed but whose payload didn't parse —
    /// dropped and counted, never a panic.
    pub malformed_dropped: u64,
}

/// A handle to a database of named collections. Cloning shares state.
#[derive(Clone, Default)]
pub struct Database {
    inner: Arc<DbInner>,
}

#[derive(Default)]
struct DbInner {
    collections: RwLock<BTreeMap<String, Arc<RwLock<Collection>>>>,
    /// Deployment wiring, like `wal`: set at most once.
    injector: OnceLock<rai_faults::FaultInjector>,
    wal: OnceLock<Wal>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a seeded fault injector. The engine stays infallible;
    /// [`Database::guard`] consults the injector so callers can model
    /// connection failures at their transaction boundaries.
    /// Deployment wiring: a second injector panics.
    pub fn set_fault_injector(&self, injector: rai_faults::FaultInjector) {
        assert!(self.inner.injector.set(injector).is_ok(), "database fault injector is wired once");
    }

    /// Fail-fast check run at the start of a logical database
    /// operation: returns [`DbError::Unavailable`] when the attached
    /// injector (if any) decides this op's connection drops. Callers
    /// wrap `guard` + collection access in a retry policy.
    pub fn guard(&self) -> Result<(), DbError> {
        match self.inner.injector.get() {
            Some(inj) if inj.should_fail(rai_faults::FaultKind::DbOp) => {
                Err(DbError::Unavailable)
            }
            _ => Ok(()),
        }
    }

    /// Attach a write-ahead log: every committed mutation on every
    /// collection (present and future) is journaled to it. Called by
    /// the system's durable constructors; without it the database
    /// keeps its original zero-overhead in-memory behavior.
    /// Deployment wiring: a second log panics.
    pub fn attach_wal(&self, wal: Wal) {
        assert!(self.inner.wal.set(wal.clone()).is_ok(), "database WAL is wired once");
        for (name, coll) in self.inner.collections.read().iter() {
            coll.write().set_journal(Some(JournalSink::new(wal.clone(), name)));
        }
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<Wal> {
        self.inner.wal.get().cloned()
    }

    /// Force the journal durable. A no-op without an attached WAL.
    pub fn sync_wal(&self) {
        if let Some(wal) = self.inner.wal.get() {
            wal.sync();
        }
    }

    /// Rebuild a database from `wal`'s segments: replay every intact
    /// record through the same mutators that wrote it, on a database
    /// with no WAL yet (nothing is re-journaled), so `_id` assignment,
    /// upserts, and secondary indexes reproduce the exact pre-crash
    /// state; then attach the WAL for new mutations.
    /// Corrupt or malformed records are dropped and counted — recovery
    /// never panics on a damaged log.
    pub fn recover(wal: Wal) -> (Database, DbRecovery) {
        let db = Database::new();
        let replay = wal.replay();
        let mut recovery = DbRecovery { stats: replay.stats, ..DbRecovery::default() };
        for payload in &replay.records {
            match DbRecord::decode(payload) {
                Some(record) => {
                    db.apply(record);
                    recovery.applied += 1;
                }
                None => recovery.malformed_dropped += 1,
            }
        }
        db.attach_wal(wal);
        (db, recovery)
    }

    fn apply(&self, record: DbRecord) {
        match record {
            DbRecord::InsertOne { coll, doc } => {
                self.collection(&coll).write().insert_one(doc);
            }
            DbRecord::InsertMany { coll, docs } => {
                self.collection(&coll).write().insert_many(docs);
            }
            DbRecord::UpdateOne { coll, query, update, upsert } => {
                self.collection(&coll).write().update_one(&query, &update, upsert);
            }
            DbRecord::DeleteMany { coll, query } => {
                self.collection(&coll).write().delete_many(&query);
            }
            DbRecord::CreateIndex { coll, field } => {
                self.collection(&coll).write().create_index(&field);
            }
            DbRecord::SnapshotCollection { coll, next_id, indexes, docs } => {
                self.collection(&coll).write().restore(next_id, indexes, docs);
            }
        }
    }

    /// Compact the WAL when it has outgrown the last snapshot: every
    /// collection is snapshotted (name order) into fresh segments and
    /// the old segments are deleted. Call at quiesced points only.
    /// Returns whether a compaction ran.
    pub fn maybe_compact(&self) -> bool {
        let Some(wal) = self.inner.wal.get() else {
            return false;
        };
        if !wal.should_compact() {
            return false;
        }
        let mut records = Vec::new();
        for name in self.collection_names() {
            let coll = self.collection(&name);
            let guard = coll.read();
            let (next_id, indexes, docs) = guard.snapshot();
            records.push(
                DbRecord::SnapshotCollection { coll: name, next_id, indexes, docs }.encode(),
            );
        }
        wal.compact(records);
        true
    }

    /// Get (creating on first use) a collection handle. Lock it with
    /// `.read()` / `.write()` for queries and mutations.
    pub fn collection(&self, name: &str) -> Arc<RwLock<Collection>> {
        if let Some(c) = self.inner.collections.read().get(name) {
            return c.clone();
        }
        self.inner
            .collections
            .write()
            .entry(name.to_string())
            .or_insert_with(|| {
                let mut coll = Collection::new();
                if let Some(wal) = self.inner.wal.get() {
                    coll.set_journal(Some(JournalSink::new(wal.clone(), name)));
                }
                Arc::new(RwLock::new(coll))
            })
            .clone()
    }

    /// Collection names, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        self.inner.collections.read().keys().cloned().collect()
    }

    /// Per-collection operation counters, sorted by collection name.
    pub fn stats(&self) -> Vec<(String, CollectionStats)> {
        self.inner
            .collections
            .read()
            .iter()
            .map(|(name, coll)| (name.clone(), coll.read().stats()))
            .collect()
    }

    /// Whole-database operation counters.
    pub fn total_stats(&self) -> CollectionStats {
        let mut total = CollectionStats::default();
        for (_, stats) in self.stats() {
            total.merge(stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{doc, Value};

    #[test]
    fn collections_auto_create_and_share() {
        let db = Database::new();
        db.collection("submissions").write().insert_one(doc! { "n" => 1 });
        let db2 = db.clone();
        assert_eq!(db2.collection("submissions").read().len(), 1);
        assert_eq!(db.collection_names(), vec!["submissions"]);
    }

    #[test]
    fn guard_fails_per_injector_plan() {
        let db = Database::new();
        assert_eq!(db.guard(), Ok(()), "no injector: infallible");
        db.set_fault_injector(rai_faults::FaultInjector::new(rai_faults::FaultPlan {
            db_op: 1.0,
            ..rai_faults::FaultPlan::none(9)
        }));
        assert_eq!(db.guard(), Err(DbError::Unavailable));
        let clone = db.clone();
        assert_eq!(clone.guard(), Err(DbError::Unavailable), "clones share the injector");
    }

    #[test]
    fn concurrent_writers_distinct_collections() {
        let db = Database::new();
        let mut handles = Vec::new();
        for t in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let coll = db.collection(&format!("c{}", t % 2));
                for i in 0..100 {
                    coll.write().insert_one(doc! { "t" => t, "i" => i });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = db
            .collection_names()
            .iter()
            .map(|n| db.collection(n).read().len())
            .sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn operation_counters_accumulate() {
        let db = Database::new();
        let coll = db.collection("submissions");
        coll.write().insert_one(doc! { "n" => 1 });
        coll.write().insert_one(doc! { "n" => 2 });
        coll.read().find(&doc! { "n" => 1 });
        coll.read().find_one(&doc! { "n" => 2 });
        coll.write().update_one(&doc! { "n" => 1 }, &doc! { "$set" => doc!{ "n" => 3 } }, false);
        let stats = db.total_stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.updates, 1);
        let per = db.stats();
        assert_eq!(per.len(), 1);
        assert_eq!(per[0].0, "submissions");
        assert_eq!(per[0].1, stats);
    }

    fn fingerprint(db: &Database) -> Vec<(String, Vec<String>)> {
        db.collection_names()
            .into_iter()
            .map(|name| {
                let coll = db.collection(&name);
                let docs =
                    coll.read().find(&doc! {}).iter().map(|d| format!("{d:?}")).collect();
                (name, docs)
            })
            .collect()
    }

    fn durable_db() -> (Database, rai_wal::MemDisk) {
        let disk = rai_wal::MemDisk::new();
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig::durable(),
        );
        let db = Database::new();
        db.attach_wal(wal);
        (db, disk)
    }

    fn reopen(disk: &rai_wal::MemDisk) -> (Database, DbRecovery) {
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig::durable(),
        );
        Database::recover(wal)
    }

    #[test]
    fn recover_replays_to_identical_state() {
        let (db, disk) = durable_db();
        let coll = db.collection("submissions");
        coll.write().create_index("job_id");
        for i in 0..20i64 {
            coll.write().insert_one(doc! { "job_id" => i, "ok" => i % 3 == 0 });
        }
        coll.write().update_one(
            &doc! { "ok" => true },
            &doc! { "$set" => doc!{ "graded" => true } },
            false,
        );
        coll.write().update_one(
            &doc! { "team" => "x" },
            &doc! { "$set" => doc!{ "secs" => 0.5 } },
            true,
        );
        coll.write().delete_many(&doc! { "job_id" => 18 });
        db.collection("teams").write().insert_many([doc! { "team" => "x" }, doc! { "team" => "y" }]);
        db.sync_wal();

        let (recovered, recovery) = reopen(&disk);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(recovery.malformed_dropped, 0);
        assert!(recovery.applied > 20);
        assert_eq!(fingerprint(&db), fingerprint(&recovered));
        // Secondary indexes are rebuilt, not just documents.
        assert_eq!(recovered.collection("submissions").read().snapshot().1, ["job_id"]);
        // Upsert inside update_one journaled as ONE record: no
        // duplicate row after replay.
        assert_eq!(recovered.collection("submissions").read().count(&doc! { "team" => "x" }), 1);
        // And the recovered handle keeps journaling: further mutations
        // survive another crash.
        recovered.collection("submissions").write().insert_one(doc! { "job_id" => 99 });
        recovered.sync_wal();
        let (again, _) = reopen(&disk);
        assert_eq!(fingerprint(&recovered), fingerprint(&again));
    }

    /// The store's `replay_classifies_a_retired_record_tag_as_malformed`,
    /// for the database: tags 3 (`update_many`) and 7 (`drop_collection`)
    /// went with their mutators, and a log that still holds them — here
    /// byte for byte as they were written — loses those records only.
    #[test]
    fn a_retired_record_tag_replays_as_malformed() {
        let (db, disk) = durable_db();
        let wal = db.wal().expect("durable");
        let coll = db.collection("events");
        coll.write().insert_one(doc! { "n" => 1 });
        // Tag 3 was tag 4's layout without the trailing upsert byte.
        let mut update_many = DbRecord::UpdateOne {
            coll: "events".into(),
            query: doc! { "n" => 1 },
            update: doc! { "$set" => doc!{ "n" => 9 } },
            upsert: false,
        }
        .encode();
        update_many[0] = 3;
        update_many.pop();
        wal.append(&update_many);
        let mut drop_collection = vec![7];
        rai_wal::codec::put_str(&mut drop_collection, "events");
        wal.append(&drop_collection);
        coll.write().insert_one(doc! { "n" => 2 });
        db.sync_wal();

        let (recovered, recovery) = reopen(&disk);
        assert_eq!(recovery.malformed_dropped, 2);
        assert_eq!(recovery.applied, 2);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(fingerprint(&db), fingerprint(&recovered));
        assert_eq!(recovered.collection("events").read().len(), 2);
    }

    /// The engine has no operators and stays total: a `$`-keyed filter
    /// condition is a literal that no scalar equals, and an update that
    /// is not a `$set` reports "unchanged" and changes nothing — live,
    /// and again when replay feeds the same records back.
    #[test]
    fn operator_documents_are_literals() {
        let (db, disk) = durable_db();
        let coll = db.collection("rows");
        coll.write().create_index("x");
        coll.write().insert_many([doc! { "x" => 1 }, doc! { "x" => 5 }]);
        let before = fingerprint(&db);

        let range = doc! { "x" => doc!{ "$gt" => 1 } };
        assert!(coll.read().find(&range).is_empty());
        assert_eq!(coll.read().count(&range), 0);
        assert_eq!(coll.write().delete_many(&range), 0);
        for update in [
            doc! { "$inc" => doc!{ "x" => 1 } },
            doc! { "$unset" => doc!{ "x" => true } },
            doc! { "x" => 7 },
        ] {
            let res = coll.write().update_one(&doc! { "x" => 5 }, &update, false);
            assert_eq!((res.matched, res.modified, res.upserted), (1, 0, None), "{update}");
            let res = coll.write().update_one(&range, &update, false);
            assert_eq!((res.matched, res.modified, res.upserted), (0, 0, None), "{update}");
        }
        assert_eq!(fingerprint(&db), before);

        db.sync_wal();
        let (recovered, recovery) = reopen(&disk);
        assert_eq!(recovery.malformed_dropped, 0);
        assert_eq!(recovery.applied, 2 + 1 + 6);
        assert_eq!(fingerprint(&recovered), before);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let disk = rai_wal::MemDisk::new();
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig {
                compact_min_bytes: 1,
                compact_factor: 2,
                ..rai_wal::DurabilityConfig::durable()
            },
        );
        let db = Database::new();
        db.attach_wal(wal);
        let coll = db.collection("rankings");
        coll.write().create_index("team");
        for round in 0..200i64 {
            coll.write().update_one(
                &doc! { "team" => format!("team-{}", round % 5) },
                &doc! { "$set" => doc!{ "secs" => round } },
                true,
            );
        }
        db.sync_wal();
        let before = disk.total_bytes();
        assert!(db.maybe_compact(), "log should have outgrown the (empty) snapshot");
        assert!(disk.total_bytes() < before / 4, "compaction should shrink the log");
        let (recovered, recovery) = reopen(&disk);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(fingerprint(&db), fingerprint(&recovered));
        assert_eq!(recovered.collection("rankings").read().snapshot().1, ["team"]);
    }

    #[test]
    fn torn_tail_drops_only_unsynced_mutations() {
        let (db, disk) = durable_db();
        let coll = db.collection("events");
        for i in 0..10i64 {
            coll.write().insert_one(doc! { "n" => i });
        }
        db.sync_wal(); // first 10 durable
        for i in 10..15i64 {
            coll.write().insert_one(doc! { "n" => i });
        }
        // Dirty crash: the profile tears the unsynced tail.
        let profile = rai_faults::DiskFaultProfile { torn_tail: 1.0, ..rai_faults::DiskFaultProfile::none(3) };
        disk.crash_with(&profile, 0);
        let (recovered, recovery) = reopen(&disk);
        let n = recovered.collection("events").read().len();
        assert!((10..15).contains(&n), "synced rows survive, torn tail lost: {n}");
        assert!(recovery.stats.torn_bytes > 0);
    }

    #[test]
    fn readers_see_writer_results() {
        let db = Database::new();
        let coll = db.collection("rankings");
        coll.write().insert_one(doc! { "team" => "x", "runtime" => 0.5 });
        let found = coll.read().find_one(&doc! { "team" => "x" }).unwrap();
        assert_eq!(found.get("runtime"), Some(&Value::Float(0.5)));
    }
}
