//! The thread-safe database handle: the four [`Tables`] RAI writes
//! behind one `RwLock`, so no lock order and no table made from a name.
//! A mutation journals under the write half; a compaction snapshots and
//! replaces the log under the read half, so no write lands between a
//! table's snapshot and the deletion of the segments that held it.

use crate::collection::{Collection, CollectionStats};
use crate::journal::DbRecord;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use rai_wal::Wal;
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
#[derive(Debug, Default)]
pub struct DbRecovery {
    /// Raw WAL replay accounting (CRC drops, torn bytes).
    pub stats: rai_wal::ReplayStats,
    /// Logical records applied.
    pub applied: u64,
    /// Records whose CRC passed but whose payload didn't parse, or that
    /// name no table — dropped and counted, never a panic.
    pub malformed_dropped: u64,
}

/// The four tables RAI writes.
#[derive(Default)]
pub struct Tables {
    /// One row per job attempt's outcome, keyed by `job_id`.
    pub submissions: Collection,
    /// One row per team's final submission, keyed by `team`.
    pub rankings: Collection,
    /// One row per registered team.
    pub teams: Collection,
    /// One `{job_id, req}` row per accepted submission, when durable.
    pub intents: Collection,
}

impl Tables {
    /// Every table with its name, in name order: the order a
    /// compaction snapshots them in.
    fn named(&self) -> [(&'static str, &Collection); 4] {
        [
            ("intents", &self.intents),
            ("rankings", &self.rankings),
            ("submissions", &self.submissions),
            ("teams", &self.teams),
        ]
    }

    /// [`Tables::named`], mutably.
    fn named_mut(&mut self) -> [(&'static str, &mut Collection); 4] {
        [
            ("intents", &mut self.intents),
            ("rankings", &mut self.rankings),
            ("submissions", &mut self.submissions),
            ("teams", &mut self.teams),
        ]
    }

    /// The table a journal record names, if it is one of the four.
    fn table_mut(&mut self, name: &str) -> Option<&mut Collection> {
        self.named_mut().into_iter().find(|(n, _)| *n == name).map(|(_, table)| table)
    }

    /// Replay one record through the mutator that wrote it. `None` when
    /// the record names no table.
    fn apply(&mut self, record: DbRecord) -> Option<()> {
        match record {
            DbRecord::InsertOne { coll, doc } => {
                self.table_mut(&coll)?.insert_one(doc);
            }
            DbRecord::UpdateOne { coll, query, update, upsert } => {
                self.table_mut(&coll)?.update_one(query, update, upsert);
            }
            DbRecord::DeleteMany { coll, query } => {
                self.table_mut(&coll)?.delete_many(&query);
            }
            DbRecord::CreateIndex { coll, field } => {
                self.table_mut(&coll)?.create_index(&field);
            }
            DbRecord::SnapshotCollection { coll, next_id, indexes, docs } => {
                self.table_mut(&coll)?.restore(next_id, indexes, docs);
            }
        }
        Some(())
    }
}

/// A handle to the database. Cloning shares state.
#[derive(Clone, Default)]
pub struct Database {
    inner: Arc<DbInner>,
}

#[derive(Default)]
struct DbInner {
    tables: RwLock<Tables>,
    /// Deployment wiring, like `wal`: set at most once.
    injector: OnceLock<rai_faults::FaultInjector>,
    wal: OnceLock<Wal>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tables, for queries.
    pub fn read(&self) -> RwLockReadGuard<'_, Tables> {
        self.inner.tables.read()
    }

    /// The tables, for mutations (and queries made with them).
    pub fn write(&self) -> RwLockWriteGuard<'_, Tables> {
        self.inner.tables.write()
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
    /// wrap `guard` + table access in a retry policy.
    pub fn guard(&self) -> Result<(), DbError> {
        match self.inner.injector.get() {
            Some(inj) if inj.should_fail(rai_faults::FaultKind::DbOp) => {
                Err(DbError::Unavailable)
            }
            _ => Ok(()),
        }
    }

    /// Attach a write-ahead log: every committed mutation on every
    /// table is journaled to it. Called by the system's durable
    /// constructors; without it the database keeps its original
    /// zero-overhead in-memory behavior.
    /// Deployment wiring: a second log panics.
    pub fn attach_wal(&self, wal: Wal) {
        assert!(self.inner.wal.set(wal.clone()).is_ok(), "database WAL is wired once");
        for (name, table) in self.write().named_mut() {
            table.set_journal(name, wal.clone());
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
    /// record through the same mutators that wrote it, on tables with
    /// no journal yet (nothing is re-journaled), so `_id` assignment,
    /// upserts, and secondary indexes reproduce the exact pre-crash
    /// state; then attach the WAL for new mutations.
    /// Corrupt or malformed records, and records naming no table, are
    /// dropped and counted — recovery never panics on a damaged log.
    pub fn recover(wal: Wal) -> (Database, DbRecovery) {
        let mut tables = Tables::default();
        let mut recovery = DbRecovery::default();
        recovery.stats = wal.replay_each(|payload| {
            match DbRecord::decode(payload).and_then(|record| tables.apply(record)) {
                Some(()) => recovery.applied += 1,
                None => recovery.malformed_dropped += 1,
            }
        });
        let db = Database {
            inner: Arc::new(DbInner { tables: RwLock::new(tables), ..DbInner::default() }),
        };
        db.attach_wal(wal);
        (db, recovery)
    }

    /// Compact the WAL when it has outgrown the last snapshot: every
    /// table is snapshotted (name order) into fresh segments and the old
    /// segments are deleted, all under the state lock every append is
    /// made under — its read half, so no write lands between a table's
    /// snapshot and the deletion of the records it replaces. Returns
    /// whether a compaction ran.
    pub fn maybe_compact(&self) -> bool {
        let Some(wal) = self.inner.wal.get() else {
            return false;
        };
        if !wal.should_compact() {
            return false;
        }
        let tables = self.read();
        wal.compact(tables.named().map(|(name, table)| {
            let mut record = Vec::new();
            table.write_snapshot(&mut record, name);
            record
        }));
        true
    }

    /// Whole-database operation counters.
    pub fn total_stats(&self) -> CollectionStats {
        let mut total = CollectionStats::default();
        for (_, table) in self.read().named() {
            total.merge(table.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{doc, Value};

    #[test]
    fn clones_share_the_tables() {
        let db = Database::new();
        db.write().submissions.insert_one(doc! { "n" => 1 });
        let db2 = db.clone();
        assert_eq!(db2.read().submissions.len(), 1);
        assert!(db2.read().teams.is_empty());
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
    fn concurrent_writers_to_two_tables() {
        let db = Database::new();
        let mut handles = Vec::new();
        for t in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let mut tables = db.write();
                    let table = if t % 2 == 0 { &mut tables.submissions } else { &mut tables.rankings };
                    table.insert_one(doc! { "t" => t, "i" => i });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let tables = db.read();
        assert_eq!((tables.submissions.len(), tables.rankings.len()), (400, 400));
    }

    #[test]
    fn operation_counters_accumulate() {
        let db = Database::new();
        db.write().submissions.insert_one(doc! { "n" => 1 });
        db.write().submissions.insert_one(doc! { "n" => 2 });
        db.read().submissions.find(&doc! { "n" => 1 });
        db.read().submissions.find_one(&doc! { "n" => 2 });
        db.write().submissions.update_one(&doc! { "n" => 1 }, &doc! { "$set" => doc!{ "n" => 3 } }, false);
        let stats = db.total_stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.updates, 1);
        assert_eq!(db.read().submissions.stats(), stats, "the other tables counted nothing");
    }

    fn fingerprint(db: &Database) -> Vec<(&'static str, Vec<String>)> {
        db.read()
            .named()
            .map(|(name, table)| (name, table.find(&doc! {}).iter().map(|d| format!("{d:?}")).collect()))
            .to_vec()
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
        {
            let mut tables = db.write();
            let coll = &mut tables.submissions;
            coll.create_index("job_id");
            for i in 0..20i64 {
                coll.insert_one(doc! { "job_id" => i, "ok" => i % 3 == 0 });
            }
            coll.update_one(&doc! { "ok" => true }, &doc! { "$set" => doc!{ "graded" => true } }, false);
            coll.update_one(&doc! { "team" => "x" }, &doc! { "$set" => doc!{ "secs" => 0.5 } }, true);
            coll.delete_many(&doc! { "job_id" => 18 });
            tables.teams.insert_many([doc! { "team" => "x" }, doc! { "team" => "y" }]);
        }
        db.sync_wal();

        let (recovered, recovery) = reopen(&disk);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(recovery.malformed_dropped, 0);
        assert!(recovery.applied > 20);
        assert_eq!(fingerprint(&db), fingerprint(&recovered));
        // Secondary indexes are rebuilt, not just documents.
        assert_eq!(recovered.read().submissions.snapshot().1, ["job_id"]);
        // Upsert inside update_one journaled as ONE record: no
        // duplicate row after replay.
        assert_eq!(recovered.read().submissions.count(&doc! { "team" => "x" }), 1);
        // And the recovered handle keeps journaling: further mutations
        // survive another crash.
        recovered.write().submissions.insert_one(doc! { "job_id" => 99 });
        recovered.sync_wal();
        let (again, _) = reopen(&disk);
        assert_eq!(fingerprint(&recovered), fingerprint(&again));
    }

    /// `insert_many` journals the `insert_one` records it is: two
    /// documents, two records.
    #[test]
    fn insert_many_journals_one_record_per_document() {
        let (db, disk) = durable_db();
        db.write().teams.insert_many([doc! { "team" => "x" }, doc! { "team" => "y" }]);
        db.sync_wal();
        let (recovered, recovery) = reopen(&disk);
        assert_eq!((recovery.applied, recovery.malformed_dropped), (2, 0));
        assert_eq!(fingerprint(&db), fingerprint(&recovered));
    }

    /// The store's `replay_classifies_a_retired_record_tag_as_malformed`,
    /// for the database: tags 2 (`insert_many`), 3 (`update_many`) and 7
    /// (`drop_collection`) went with their layouts, and a log that still
    /// holds them — here byte for byte as they were written — loses
    /// those records only. So does a record naming a table that is not
    /// one of the four.
    #[test]
    fn a_retired_record_tag_replays_as_malformed() {
        let (db, disk) = durable_db();
        let wal = db.wal().expect("durable");
        db.write().teams.insert_one(doc! { "n" => 1 });
        // Tag 2 was a table name, a document count and the documents.
        let mut insert_many = vec![2];
        rai_wal::codec::put_str(&mut insert_many, "teams");
        rai_wal::codec::put_u32(&mut insert_many, 0);
        wal.append(&insert_many);
        // Tag 3 was tag 4's layout without the trailing upsert byte.
        let mut update_many = DbRecord::UpdateOne {
            coll: "teams".into(),
            query: doc! { "n" => 1 },
            update: doc! { "$set" => doc!{ "n" => 9 } },
            upsert: false,
        }
        .encode();
        update_many[0] = 3;
        update_many.pop();
        wal.append(&update_many);
        let mut drop_collection = vec![7];
        rai_wal::codec::put_str(&mut drop_collection, "teams");
        wal.append(&drop_collection);
        wal.append(&DbRecord::InsertOne { coll: "events".into(), doc: doc! { "n" => 3 } }.encode());
        db.write().teams.insert_one(doc! { "n" => 2 });
        db.sync_wal();

        let (recovered, recovery) = reopen(&disk);
        assert_eq!(recovery.malformed_dropped, 4);
        assert_eq!(recovery.applied, 2);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(fingerprint(&db), fingerprint(&recovered));
        assert_eq!(recovered.read().teams.len(), 2);
    }

    /// The engine has no operators and stays total: a `$`-keyed filter
    /// condition is a literal that no scalar equals, and an update that
    /// is not a `$set` reports "unchanged" and changes nothing — live,
    /// and again when replay feeds the same records back.
    #[test]
    fn operator_documents_are_literals() {
        let (db, disk) = durable_db();
        db.write().submissions.create_index("x");
        db.write().submissions.insert_many([doc! { "x" => 1 }, doc! { "x" => 5 }]);
        let before = fingerprint(&db);

        let range = doc! { "x" => doc!{ "$gt" => 1 } };
        assert!(db.read().submissions.find(&range).is_empty());
        assert_eq!(db.read().submissions.count(&range), 0);
        assert_eq!(db.write().submissions.delete_many(&range), 0);
        for update in [
            doc! { "$inc" => doc!{ "x" => 1 } },
            doc! { "$unset" => doc!{ "x" => true } },
            doc! { "x" => 7 },
        ] {
            let res = db.write().submissions.update_one(&doc! { "x" => 5 }, &update, false);
            assert_eq!((res.matched, res.modified, res.upserted), (1, 0, None), "{update}");
            let res = db.write().submissions.update_one(&range, &update, false);
            assert_eq!((res.matched, res.modified, res.upserted), (0, 0, None), "{update}");
        }
        assert_eq!(fingerprint(&db), before);

        db.sync_wal();
        let (recovered, recovery) = reopen(&disk);
        assert_eq!(recovery.malformed_dropped, 0);
        assert_eq!(recovery.applied, 3 + 1 + 6);
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
        db.write().rankings.create_index("team");
        for round in 0..200i64 {
            db.write().rankings.update_one(
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
        assert_eq!(recovered.read().rankings.snapshot().1, ["team"]);
    }

    #[test]
    fn torn_tail_drops_only_unsynced_mutations() {
        let (db, disk) = durable_db();
        for i in 0..10i64 {
            db.write().submissions.insert_one(doc! { "n" => i });
        }
        db.sync_wal(); // first 10 durable
        for i in 10..15i64 {
            db.write().submissions.insert_one(doc! { "n" => i });
        }
        // Dirty crash: the profile tears the unsynced tail.
        let profile = rai_faults::DiskFaultProfile { torn_tail: 1.0, ..rai_faults::DiskFaultProfile::none(3) };
        disk.crash_with(&profile, 0);
        let (recovered, recovery) = reopen(&disk);
        let n = recovered.read().submissions.len();
        assert!((10..15).contains(&n), "synced rows survive, torn tail lost: {n}");
        assert!(recovery.stats.torn_bytes > 0);
    }

    #[test]
    fn readers_see_writer_results() {
        let db = Database::new();
        db.write().rankings.insert_one(doc! { "team" => "x", "runtime" => 0.5 });
        let found = db.read().rankings.find_one(&doc! { "team" => "x" }).unwrap();
        assert_eq!(found.get("runtime"), Some(&Value::Float(0.5)));
    }
}
