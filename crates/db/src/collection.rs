//! Collections: document storage, CRUD, cursors, and the (small) query
//! planner that routes an indexed literal through its secondary index.

use crate::index::Index;
use crate::journal::{DbRecord, JournalSink};
use crate::query::matches;
use crate::update::apply_update;
use crate::value::{Document, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Document identifier (stored in the document as `_id`).
pub type DocId = u64;

/// Sort direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (smallest first) — ranking by runtime.
    Asc,
    /// Descending.
    Desc,
}

/// Cursor options for [`Collection::find_with`].
#[derive(Clone, Debug, Default)]
pub struct FindOptions {
    /// Sort by this dotted path.
    pub sort_by: Option<(String, SortOrder)>,
    /// Return at most this many results.
    pub limit: Option<usize>,
}

impl FindOptions {
    /// Sort ascending by `field`.
    pub fn sort_asc(field: &str) -> Self {
        FindOptions {
            sort_by: Some((field.to_string(), SortOrder::Asc)),
            ..Default::default()
        }
    }

    /// Sort descending by `field`.
    pub fn sort_desc(field: &str) -> Self {
        FindOptions {
            sort_by: Some((field.to_string(), SortOrder::Desc)),
            ..Default::default()
        }
    }

    /// Set a limit.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }
}

/// Result of an update call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateResult {
    /// Documents matching the query.
    pub matched: usize,
    /// Documents actually changed.
    pub modified: usize,
    /// Id of a document inserted by upsert, if any.
    pub upserted: Option<DocId>,
}

/// Cumulative operation counters for one collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectionStats {
    /// Documents inserted (including upsert inserts).
    pub inserts: u64,
    /// Read operations (find/find_one/find_with/count/distinct).
    pub queries: u64,
    /// Write operations other than inserts (updates and deletes).
    pub updates: u64,
}

impl CollectionStats {
    /// Element-wise sum, for whole-database aggregation.
    pub fn merge(&mut self, other: CollectionStats) {
        self.inserts += other.inserts;
        self.queries += other.queries;
        self.updates += other.updates;
    }
}

/// An in-memory document collection.
#[derive(Default)]
pub struct Collection {
    docs: BTreeMap<DocId, Document>,
    /// Secondary indexes by dotted path.
    indexes: HashMap<String, Index>,
    next_id: DocId,
    // Atomics so read-path methods (&self) can count themselves.
    inserts: AtomicU64,
    queries: AtomicU64,
    updates: AtomicU64,
    /// Durability hook: when attached, every committed mutation appends
    /// a logical [`DbRecord`] before applying. `None` (the default) is
    /// the preserved zero-overhead in-memory configuration.
    journal: Option<Arc<JournalSink>>,
}

impl Collection {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    fn index_doc(&mut self, id: DocId, doc: &Document) {
        for (field, idx) in self.indexes.iter_mut() {
            if let Some(v) = doc.get_path(field) {
                idx.insert(v, id);
            }
        }
    }

    fn unindex_doc(&mut self, id: DocId, doc: &Document) {
        for (field, idx) in self.indexes.iter_mut() {
            if let Some(v) = doc.get_path(field) {
                idx.remove(v, id);
            }
        }
    }

    fn reindex(&mut self, id: DocId, before: &Document, after: &Document) {
        for (field, idx) in self.indexes.iter_mut() {
            let old = before.get_path(field);
            let new = after.get_path(field);
            if old != new {
                if let Some(v) = old {
                    idx.remove(v, id);
                }
                if let Some(v) = new {
                    idx.insert(v, id);
                }
            }
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> CollectionStats {
        CollectionStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
        }
    }

    /// Attach (or detach) the durability sink. Set by
    /// [`Database`](crate::Database) when a WAL is configured; replay
    /// runs with the sink detached so recovery never re-journals.
    pub(crate) fn set_journal(&mut self, journal: Option<Arc<JournalSink>>) {
        self.journal = journal;
    }

    /// Insert a document, assigning and returning its `_id`.
    pub fn insert_one(&mut self, doc: Document) -> DocId {
        if let Some(j) = &self.journal {
            j.append(&DbRecord::InsertOne { coll: j.coll().to_string(), doc: doc.clone() });
        }
        self.insert_one_inner(doc)
    }

    /// The journal-free insert: what [`Collection::insert_one`],
    /// [`Collection::insert_many`] and upsert each run once their own
    /// record is journaled.
    fn insert_one_inner(&mut self, mut doc: Document) -> DocId {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.next_id += 1;
        let id = self.next_id;
        doc.insert("_id", id);
        self.index_doc(id, &doc);
        self.docs.insert(id, doc);
        id
    }

    /// Insert many documents, journaled as one record.
    pub fn insert_many(&mut self, docs: impl IntoIterator<Item = Document>) -> Vec<DocId> {
        let docs: Vec<Document> = docs.into_iter().collect();
        if let Some(j) = &self.journal {
            j.append(&DbRecord::InsertMany { coll: j.coll().to_string(), docs: docs.clone() });
        }
        docs.into_iter().map(|doc| self.insert_one_inner(doc)).collect()
    }

    /// Build a secondary index on a dotted path (also indexes existing
    /// documents). Re-creating an existing index is a no-op.
    pub fn create_index(&mut self, field: &str) {
        if self.indexes.contains_key(field) {
            return;
        }
        if let Some(j) = &self.journal {
            j.append(&DbRecord::CreateIndex {
                coll: j.coll().to_string(),
                field: field.to_string(),
            });
        }
        let mut idx = Index::new();
        for (id, doc) in &self.docs {
            if let Some(v) = doc.get_path(field) {
                idx.insert(v, *id);
            }
        }
        self.indexes.insert(field.to_string(), idx);
    }

    /// Compaction snapshot: `_id` allocator, indexed paths (sorted),
    /// and every document with its `_id`, in id order.
    pub(crate) fn snapshot(&self) -> (u64, Vec<String>, Vec<Document>) {
        let mut indexes: Vec<String> = self.indexes.keys().cloned().collect();
        indexes.sort_unstable();
        (self.next_id, indexes, self.docs.values().cloned().collect())
    }

    /// Restore from a compaction snapshot: documents land under their
    /// recorded `_id`s and every index is rebuilt. Replay's alone, so
    /// the collection is journal-detached and nothing is re-journaled.
    pub(crate) fn restore(&mut self, next_id: u64, indexes: Vec<String>, docs: Vec<Document>) {
        self.docs.clear();
        self.indexes.clear();
        self.next_id = next_id;
        for doc in docs {
            let id = match doc.get("_id") {
                Some(Value::Int(id)) => *id as DocId,
                // A snapshot doc without a valid _id cannot be placed;
                // skip it rather than corrupt the keyspace.
                _ => continue,
            };
            self.docs.insert(id, doc);
        }
        for field in indexes {
            self.create_index(&field);
        }
    }

    /// Ids of candidate documents for `query`, ascending, via the index
    /// of the first filter field that has a usable one; `None` means
    /// "scan everything". The set is a superset of the documents that
    /// field's literal matches — callers always re-verify the whole
    /// filter with [`matches`]. An index is unusable for a `Null`
    /// literal (a missing field also matches, and missing fields are
    /// not indexed) and while any indexed value is an array (a literal
    /// has containment semantics a whole-value key lookup cannot serve).
    fn candidates(&self, query: &Document) -> Option<Vec<DocId>> {
        query.iter().find_map(|(field, literal)| {
            let idx = self.indexes.get(field.as_str())?;
            match literal {
                Value::Null => None,
                _ if idx.has_array_keys() => None,
                literal => Some(idx.lookup_eq(literal)),
            }
        })
    }

    /// Planner introspection: how many candidate ids the planner would
    /// examine for `query` (`None` = full scan). Exposed for tests and
    /// benches; the number is an upper bound on documents touched.
    pub fn candidate_count(&self, query: &Document) -> Option<usize> {
        self.candidates(query).map(|ids| ids.len())
    }

    /// Ids of documents matching `query`, ascending — the shared scan
    /// core of the read path. No document is cloned here.
    fn matching_ids(&self, query: &Document) -> Vec<DocId> {
        match self.candidates(query) {
            Some(ids) => ids
                .into_iter()
                .filter(|id| self.docs.get(id).is_some_and(|d| matches(query, d)))
                .collect(),
            None => self
                .docs
                .iter()
                .filter(|(_, d)| matches(query, d))
                .map(|(id, _)| *id)
                .collect(),
        }
    }

    /// The lowest-id matching document's id, if any: the scan path
    /// exits at its first match.
    fn first_matching_id(&self, query: &Document) -> Option<DocId> {
        match self.candidates(query) {
            Some(ids) => ids
                .into_iter()
                .find(|id| self.docs.get(id).is_some_and(|d| matches(query, d))),
            None => self.docs.iter().find(|(_, d)| matches(query, d)).map(|(id, _)| *id),
        }
    }

    /// All documents matching `query`, in `_id` order.
    pub fn find(&self, query: &Document) -> Vec<Document> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.matching_ids(query)
            .iter()
            .filter_map(|id| self.docs.get(id))
            .cloned()
            .collect()
    }

    /// Every document, in `_id` order, where it lives: one read
    /// operation, nothing copied.
    pub(crate) fn scan(&self) -> impl Iterator<Item = &Document> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.docs.values()
    }

    /// First matching document.
    pub fn find_one(&self, query: &Document) -> Option<Document> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.first_matching_id(query).and_then(|id| self.docs.get(&id)).cloned()
    }

    /// Find with sort/limit. Missing sort fields order first (as
    /// `Null`).
    ///
    /// Runs as a cursor: matching ids are collected and ordered first,
    /// and only the documents inside the limit are cloned. When the
    /// sort field has an index covering every document, the rows stream
    /// straight out of the index in key order (ties by ascending `_id`)
    /// and the scan stops as soon as `limit` rows matched — `sort+limit`
    /// over a big collection never materialises it.
    pub fn find_with(&self, query: &Document, opts: &FindOptions) -> Vec<Document> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let limit = opts.limit.unwrap_or(usize::MAX);
        if let Some((field, order)) = &opts.sort_by {
            // Index-order fast path. The covering condition (every doc
            // carries the field) guarantees no row would sort as a
            // missing-field Null outside the index.
            let covering = self.indexes.get(field).filter(|idx| idx.len() == self.docs.len());
            if let Some(idx) = covering {
                let mut out = Vec::new();
                for id in idx.ids_in_key_order(*order == SortOrder::Desc) {
                    if out.len() >= limit {
                        break;
                    }
                    let doc = self.docs.get(&id).expect("index entry has a doc");
                    if !matches(query, doc) {
                        continue;
                    }
                    out.push(doc.clone());
                }
                return out;
            }
            // General path: order ids by the sort key (stable, so ties
            // keep `_id` order), then clone only the surviving window.
            let mut ids = self.matching_ids(query);
            let null = Value::Null;
            let key = |id: &DocId| {
                self.docs.get(id)
                    .and_then(|d| d.get_path(field))
                    .unwrap_or(&null)
            };
            ids.sort_by(|a, b| {
                let ord = key(a).cmp_order(key(b));
                match order {
                    SortOrder::Asc => ord,
                    SortOrder::Desc => ord.reverse(),
                }
            });
            return ids
                .into_iter()
                .take(limit)
                .filter_map(|id| self.docs.get(&id))
                .cloned()
                .collect();
        }
        self.matching_ids(query)
            .into_iter()
            .take(limit)
            .filter_map(|id| self.docs.get(&id))
            .cloned()
            .collect()
    }

    /// Count matching documents.
    pub fn count(&self, query: &Document) -> usize {
        self.queries.fetch_add(1, Ordering::Relaxed);
        match self.candidates(query) {
            Some(ids) => ids
                .iter()
                .filter_map(|id| self.docs.get(id))
                .filter(|d| matches(query, d))
                .count(),
            None => self.docs.values().filter(|d| matches(query, d)).count(),
        }
    }

    /// Distinct values of `field` among matching documents.
    ///
    /// Uses the same index-driven candidate planning as `find`/`count`
    /// (both paths visit ids in `_id` order, so the surviving
    /// loose-equality representative is identical either way), and
    /// clones only the distinct values — never a document.
    pub fn distinct(&self, field: &str, query: &Document) -> Vec<Value> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut out: Vec<Value> = Vec::new();
        for id in self.matching_ids(query) {
            let d = self.docs.get(&id).expect("matching id has a doc");
            if let Some(v) = d.get_path(field) {
                if !out.iter().any(|x| x.eq_loose(v)) {
                    out.push(v.clone());
                }
            }
        }
        out.sort_by(|a, b| a.cmp_order(b));
        out
    }

    /// Update the first matching document; optionally insert when
    /// nothing matches (upsert). On upsert the query's fields seed the
    /// new document — this is how RAI's ranking table
    /// does "overwrite existing timing records" per team.
    pub fn update_one(&mut self, query: &Document, update: &Document, upsert: bool) -> UpdateResult {
        if let Some(j) = &self.journal {
            j.append(&DbRecord::UpdateOne {
                coll: j.coll().to_string(),
                query: query.clone(),
                update: update.clone(),
                upsert,
            });
        }
        self.updates.fetch_add(1, Ordering::Relaxed);
        match self.first_matching_id(query) {
            Some(id) => {
                let doc = self.docs.get_mut(&id).expect("id found above");
                let before = doc.clone();
                let modified = apply_update(update, doc);
                if modified {
                    let after = doc.clone();
                    self.reindex(id, &before, &after);
                }
                UpdateResult {
                    matched: 1,
                    modified: usize::from(modified),
                    upserted: None,
                }
            }
            None if upsert => {
                let mut seed = query.clone();
                apply_update(update, &mut seed);
                // The enclosing update_one was already journaled as one
                // record; the upsert insert must not journal again.
                let id = self.insert_one_inner(seed);
                UpdateResult {
                    matched: 0,
                    modified: 0,
                    upserted: Some(id),
                }
            }
            None => UpdateResult::default(),
        }
    }

    /// Delete every matching document; returns how many were removed.
    pub fn delete_many(&mut self, query: &Document) -> usize {
        if let Some(j) = &self.journal {
            j.append(&DbRecord::DeleteMany { coll: j.coll().to_string(), query: query.clone() });
        }
        self.updates.fetch_add(1, Ordering::Relaxed);
        let ids = self.matching_ids(query);
        for id in &ids {
            if let Some(doc) = self.docs.remove(id) {
                self.unindex_doc(*id, &doc);
            }
        }
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn rankings() -> Collection {
        let mut c = Collection::new();
        c.insert_many([
            doc! { "team" => "a", "runtime" => 0.45, "final" => true },
            doc! { "team" => "b", "runtime" => 0.91, "final" => true },
            doc! { "team" => "c", "runtime" => 0.48, "final" => false },
            doc! { "team" => "d", "runtime" => 120.0, "final" => true },
        ]);
        c
    }

    #[test]
    fn insert_assigns_ids() {
        let mut c = Collection::new();
        let id1 = c.insert_one(doc! { "x" => 1 });
        let id2 = c.insert_one(doc! { "x" => 2 });
        assert_ne!(id1, id2);
        assert_eq!(c.len(), 2);
        let d = c.find_one(&doc! { "x" => 1 }).unwrap();
        assert_eq!(d.get("_id"), Some(&Value::Int(id1 as i64)));
    }

    #[test]
    fn find_and_count() {
        let c = rankings();
        assert_eq!(c.find(&doc! { "final" => true }).len(), 3);
        assert_eq!(c.count(&doc! { "runtime" => 0.48, "final" => false }), 1);
        assert_eq!(c.count(&doc! { "runtime" => 0.48, "final" => true }), 0);
        assert_eq!(c.count(&Document::new()), 4);
    }

    #[test]
    fn sorted_ranking_query() {
        let c = rankings();
        let top: Vec<String> = c
            .find_with(
                &doc! { "final" => true },
                &FindOptions::sort_asc("runtime").limit(2),
            )
            .into_iter()
            .map(|d| d.get("team").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(top, vec!["a", "b"]);
    }

    #[test]
    fn descending_sort_with_limit() {
        let c = rankings();
        let slowest = c.find_with(&Document::new(), &FindOptions::sort_desc("runtime").limit(2));
        let teams: Vec<_> = slowest.iter().map(|d| d.get("team").unwrap().as_str().unwrap()).collect();
        assert_eq!(teams, ["d", "b"]);
    }

    #[test]
    fn upsert_ranking_overwrite() {
        let mut c = Collection::new();
        // First final submission creates the row…
        let r1 = c.update_one(
            &doc! { "team" => "x" },
            &doc! { "$set" => doc!{ "runtime" => 1.9 } },
            true,
        );
        assert!(r1.upserted.is_some());
        // …later submissions overwrite it (paper: "overwrites existing
        // timing records").
        let r2 = c.update_one(
            &doc! { "team" => "x" },
            &doc! { "$set" => doc!{ "runtime" => 0.7 } },
            true,
        );
        assert_eq!((r2.matched, r2.modified), (1, 1));
        // The same update again: matched, but nothing changes.
        let r3 = c.update_one(
            &doc! { "team" => "x" },
            &doc! { "$set" => doc!{ "runtime" => 0.7 } },
            true,
        );
        assert_eq!((r3.matched, r3.modified, r3.upserted), (1, 0, None));
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.find_one(&doc! { "team" => "x" }).unwrap().get("runtime"),
            Some(&Value::Float(0.7))
        );
    }

    #[test]
    fn delete_many() {
        let mut c = rankings();
        assert_eq!(c.delete_many(&doc! { "final" => false }), 1);
        assert_eq!(c.len(), 3);
        assert_eq!(c.delete_many(&Document::new()), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn distinct_values() {
        let c = rankings();
        let finals = c.distinct("final", &Document::new());
        assert_eq!(finals, vec![Value::Bool(false), Value::Bool(true)]);
    }

    #[test]
    fn distinct_uses_the_planner_and_matches_the_scan() {
        let mut with_idx = rankings();
        with_idx.create_index("final");
        let without_idx = rankings();
        for q in [
            doc! { "final" => true },
            doc! { "final" => false },
            doc! { "final" => 7 },
        ] {
            assert_eq!(
                with_idx.distinct("team", &q),
                without_idx.distinct("team", &q),
                "indexed vs scan distinct mismatch for {q}"
            );
        }
    }

    #[test]
    fn index_results_equal_scan_results() {
        let mut with_idx = rankings();
        with_idx.create_index("runtime");
        let without_idx = rankings();
        for q in [
            doc! { "runtime" => 0.45 },
            doc! { "runtime" => 120 },
            doc! { "runtime" => 0.91, "final" => true },
            doc! { "runtime" => 0.91, "final" => false },
            doc! { "runtime" => 200.0 },
        ] {
            let a = with_idx.find(&q);
            let b = without_idx.find(&q);
            assert_eq!(a, b, "index vs scan mismatch for {q}");
        }
    }

    #[test]
    fn one_indexed_literal_picks_the_candidates_and_matches_verifies_the_rest() {
        // 200 docs: "kind" is half-and-half, "job" is unique. The first
        // filter field with an index ("job", in key order) serves the
        // candidates; the other field is checked on each of them.
        let mut c = Collection::new();
        for i in 0..200i64 {
            c.insert_one(doc! { "kind" => if i % 2 == 0 { "run" } else { "submit" }, "job" => i });
        }
        c.create_index("kind");
        c.create_index("job");
        let q = doc! { "kind" => "run", "job" => 42 };
        assert_eq!(c.candidate_count(&q), Some(1));
        let hit = c.find(&q);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].get("job"), Some(&Value::Int(42)));
        // A candidate the rest of the filter contradicts is no result.
        let contradictory = doc! { "kind" => "submit", "job" => 42 };
        assert_eq!(c.candidate_count(&contradictory), Some(1));
        assert!(c.find(&contradictory).is_empty());
        assert_eq!(c.count(&contradictory), 0);
        // An unindexed field beside an indexed one: same rule.
        assert_eq!(c.candidate_count(&doc! { "kind" => "run", "n" => 1 }), Some(100));
        assert_eq!(c.candidate_count(&doc! { "n" => 1 }), None);
    }

    #[test]
    fn null_literal_query_falls_back_to_scan() {
        let mut c = Collection::new();
        c.create_index("b");
        c.insert_one(doc! { "a" => 1 }); // no "b": matches the bare Null literal
        c.insert_one(doc! { "b" => Value::Null });
        c.insert_one(doc! { "b" => 5 });
        // A bare Null literal also matches docs missing the field, which
        // are not in the index — the planner must not use it.
        assert_eq!(c.candidate_count(&doc! { "b" => Value::Null }), None);
        assert_eq!(c.find(&doc! { "b" => Value::Null }).len(), 2);
        assert_eq!(c.candidate_count(&doc! { "b" => 5 }), Some(1));
        // Once an array value is indexed, bare-literal containment
        // semantics force non-Null literals back to a scan too.
        c.insert_one(doc! { "b" => vec![5, 6] });
        assert_eq!(c.candidate_count(&doc! { "b" => 5 }), None);
        assert_eq!(c.find(&doc! { "b" => 5 }).len(), 2, "scalar and containing array");
    }

    #[test]
    fn indexed_sort_matches_materialised_sort() {
        let mut indexed = Collection::new();
        let mut plain = Collection::new();
        for i in 0..50i64 {
            // Duplicate runtimes exercise tie-breaking by `_id`.
            let d = doc! { "team" => format!("t{i:02}"), "runtime" => (i % 7) as f64, "final" => i % 3 == 0 };
            indexed.insert_one(d.clone());
            plain.insert_one(d);
        }
        indexed.create_index("runtime");
        for opts in [
            FindOptions::sort_asc("runtime"),
            FindOptions::sort_desc("runtime"),
            FindOptions::sort_asc("runtime").limit(5),
            FindOptions::sort_desc("runtime").limit(40),
        ] {
            let a = indexed.find_with(&doc! { "final" => true }, &opts);
            let b = plain.find_with(&doc! { "final" => true }, &opts);
            assert_eq!(a, b, "index-order sort diverged for {opts:?}");
        }
        // A doc missing the sort field disables the fast path but keeps
        // results identical (missing sorts first, as Null).
        indexed.insert_one(doc! { "team" => "no-runtime", "final" => true });
        plain.insert_one(doc! { "team" => "no-runtime", "final" => true });
        let a = indexed.find_with(&doc! { "final" => true }, &FindOptions::sort_asc("runtime"));
        let b = plain.find_with(&doc! { "final" => true }, &FindOptions::sort_asc("runtime"));
        assert_eq!(a, b);
        assert_eq!(a[0].get("team").unwrap().as_str(), Some("no-runtime"));
    }

    #[test]
    fn index_maintained_through_updates_and_deletes() {
        let mut c = rankings();
        c.create_index("runtime");
        c.update_one(
            &doc! { "team" => "a" },
            &doc! { "$set" => doc!{ "runtime" => 5.0 } },
            false,
        );
        assert_eq!(c.count(&doc! { "runtime" => 0.45 }), 0);
        assert_eq!(c.count(&doc! { "runtime" => 5.0 }), 1);
        c.delete_many(&doc! { "team" => "a" });
        assert_eq!(c.count(&doc! { "runtime" => 5.0 }), 0);
    }

    #[test]
    fn create_index_on_existing_data() {
        let mut c = rankings();
        c.create_index("team");
        assert_eq!(c.candidate_count(&doc! { "team" => "b" }), Some(1));
        assert_eq!(c.find(&doc! { "team" => "b" }).len(), 1);
        // Recreating is a no-op.
        c.create_index("team");
    }

    #[test]
    fn update_one_without_upsert_misses() {
        let mut c = Collection::new();
        let r = c.update_one(&doc! { "team" => "ghost" }, &doc! { "$set" => doc!{ "x" => 1 } }, false);
        assert_eq!(r, UpdateResult::default());
        assert!(c.is_empty());
    }

    /// An identical mixed workload through an indexed and an unindexed
    /// collection: every read path returns the same rows whether the
    /// planner served it from an index or from the scan fallback, and a
    /// snapshot restores to the same collection.
    #[test]
    fn indexed_and_scanned_collections_are_observationally_identical() {
        let build = |indexed: bool| {
            let mut c = Collection::new();
            if indexed {
                c.create_index("runtime");
                c.create_index("team");
            }
            for i in 0..120i64 {
                c.insert_one(doc! {
                    "team" => format!("t{:02}", i % 17),
                    "runtime" => ((i * 7) % 23) as f64 / 4.0,
                    "kind" => if i % 3 == 0 { "submit" } else { "run" },
                    "final" => i % 5 == 0,
                });
            }
            for t in 0..6 {
                c.update_one(
                    &doc! { "team" => format!("t{t:02}"), "kind" => "submit" },
                    &doc! { "$set" => doc!{ "graded" => true, "runtime" => 0.125 * t as f64 } },
                    false,
                );
            }
            c.update_one(
                &doc! { "team" => "t99" },
                &doc! { "$set" => doc!{ "runtime" => 9.5 } },
                true,
            );
            c.delete_many(&doc! { "runtime" => 5.25 });
            c
        };
        let (indexed, scanned) = (build(true), build(false));
        assert_eq!(indexed.len(), scanned.len());
        for q in [
            doc! {},
            doc! { "kind" => "run" },
            doc! { "team" => "t03" },
            doc! { "runtime" => 1.75 },
            doc! { "runtime" => 0.125, "graded" => true },
            doc! { "team" => "none" },
            doc! { "team" => doc!{ "$in" => vec!["t01", "t05"] } },
            doc! { "kind" => "submit", "final" => true },
        ] {
            assert_eq!(indexed.find(&q), scanned.find(&q), "find diverged for {q}");
            assert_eq!(indexed.count(&q), scanned.count(&q));
            assert_eq!(indexed.find_one(&q), scanned.find_one(&q));
            assert_eq!(
                indexed.distinct("team", &q),
                scanned.distinct("team", &q),
                "distinct diverged for {q}"
            );
            for opts in [
                FindOptions::sort_asc("runtime"),
                FindOptions::sort_desc("runtime"),
                FindOptions::sort_asc("runtime").limit(10),
                FindOptions::sort_desc("team").limit(7),
                FindOptions::default().limit(11),
            ] {
                assert_eq!(
                    indexed.find_with(&q, &opts),
                    scanned.find_with(&q, &opts),
                    "find_with diverged for {q} {opts:?}"
                );
            }
        }
        let (next_id, indexes, docs) = indexed.snapshot();
        assert_eq!(indexes, ["runtime", "team"]);
        let mut restored = Collection::new();
        restored.restore(next_id, indexes, docs);
        assert_eq!(restored.snapshot(), indexed.snapshot());
        assert_eq!(restored.find(&doc! {}), indexed.find(&doc! {}));
        assert_eq!(restored.insert_one(doc! { "n" => 1 }), next_id + 1);
    }

    #[test]
    fn covering_sort_breaks_duplicate_keys_by_ascending_id() {
        let mut c = Collection::new();
        for i in 0..40i64 {
            c.insert_one(doc! { "runtime" => (i % 3) as f64, "n" => i });
        }
        c.create_index("runtime");
        // Covering: every doc carries the field.
        let asc = c.find_with(&doc! {}, &FindOptions::sort_asc("runtime"));
        let mut prev: Option<(f64, i64)> = None;
        for d in &asc {
            let rt = match d.get("runtime") {
                Some(Value::Float(f)) => *f,
                other => panic!("runtime missing: {other:?}"),
            };
            let id = match d.get("_id") {
                Some(Value::Int(i)) => *i,
                _ => unreachable!(),
            };
            if let Some((prt, pid)) = prev {
                assert!(rt > prt || (rt == prt && id > pid), "key order broken");
            }
            prev = Some((rt, id));
        }
        assert_eq!(asc.len(), 40);
        // Limit stops the walk early without disturbing order.
        let top3 = c.find_with(&doc! {}, &FindOptions::sort_desc("runtime").limit(3));
        assert_eq!(top3, c.find_with(&doc! {}, &FindOptions::sort_desc("runtime"))[..3].to_vec());
    }
}
