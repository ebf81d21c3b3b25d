//! Durability for the document database: logical mutation records
//! appended to a [`rai_wal::Wal`] and replayed by
//! [`Database::recover`](crate::Database::recover).
//!
//! Records journal the *arguments* of a mutation, not its effects:
//! replay re-executes each mutation through the normal collection
//! methods (with journaling detached), so `_id` assignment, upsert
//! seeding, and index maintenance reproduce byte-identical state from
//! the same deterministic code paths that built it the first time.
//! Compaction snapshots ([`DbRecord::SnapshotCollection`]) are the one
//! exception: they capture docs *with* their `_id`s and are restored
//! verbatim.

use crate::value::{Document, Value};
use rai_wal::codec::{put_str, put_u32, put_u64, Reader};
use rai_wal::Wal;
use std::sync::Arc;

// ---- value codec -----------------------------------------------------

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(3);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Array(items) => {
            out.push(5);
            put_u32(out, items.len() as u32);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Doc(doc) => {
            out.push(6);
            encode_doc(doc, out);
        }
    }
}

fn decode_value(r: &mut Reader<'_>) -> Option<Value> {
    Some(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.u64()? as i64),
        3 => Value::Float(f64::from_bits(r.u64()?)),
        4 => Value::Str(r.str()?),
        5 => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(decode_value(r)?);
            }
            Value::Array(items)
        }
        6 => Value::Doc(decode_doc(r)?),
        _ => return None,
    })
}

fn encode_doc(doc: &Document, out: &mut Vec<u8>) {
    put_u32(out, doc.0.len() as u32);
    for (k, v) in &doc.0 {
        put_str(out, k);
        encode_value(v, out);
    }
}

fn decode_doc(r: &mut Reader<'_>) -> Option<Document> {
    let n = r.u32()? as usize;
    let mut doc = Document::new();
    for _ in 0..n {
        let k = r.str()?;
        let v = decode_value(r)?;
        doc.0.insert(k.into(), v);
    }
    Some(doc)
}

fn encode_docs(docs: &[Document], out: &mut Vec<u8>) {
    put_u32(out, docs.len() as u32);
    for d in docs {
        encode_doc(d, out);
    }
}

fn decode_docs(r: &mut Reader<'_>) -> Option<Vec<Document>> {
    let n = r.u32()? as usize;
    let mut docs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        docs.push(decode_doc(r)?);
    }
    Some(docs)
}

// ---- logical records -------------------------------------------------

/// One committed database mutation, as journaled to the WAL. Each
/// record's leading tag byte is fixed for good: 3 (`update_many`) and 7
/// (`drop_collection`) are retired with their mutators and decode, like
/// any unknown tag, to `None`.
#[derive(Debug, Clone, PartialEq)]
pub enum DbRecord {
    /// `insert_one` — `doc` is the document *before* `_id` assignment.
    InsertOne {
        /// Target collection.
        coll: String,
        /// Document as the caller passed it.
        doc: Document,
    },
    /// `insert_many`, same pre-`_id` convention.
    InsertMany {
        /// Target collection.
        coll: String,
        /// Documents as the caller passed them.
        docs: Vec<Document>,
    },
    /// `update_one(query, update, upsert)`.
    UpdateOne {
        /// Target collection.
        coll: String,
        /// Match predicate.
        query: Document,
        /// The `$set` document.
        update: Document,
        /// Insert when nothing matches.
        upsert: bool,
    },
    /// `delete_many(query)`.
    DeleteMany {
        /// Target collection.
        coll: String,
        /// Match predicate.
        query: Document,
    },
    /// `create_index(field)`.
    CreateIndex {
        /// Target collection.
        coll: String,
        /// Indexed dotted path.
        field: String,
    },
    /// Compaction snapshot of one whole collection: docs carry their
    /// `_id`s and are restored verbatim (indexes rebuilt).
    SnapshotCollection {
        /// Collection name.
        coll: String,
        /// `_id` allocator position.
        next_id: u64,
        /// Indexed dotted paths.
        indexes: Vec<String>,
        /// Every document, `_id` included.
        docs: Vec<Document>,
    },
}

impl DbRecord {
    /// Serialize to a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            DbRecord::InsertOne { coll, doc } => {
                out.push(1);
                put_str(&mut out, coll);
                encode_doc(doc, &mut out);
            }
            DbRecord::InsertMany { coll, docs } => {
                out.push(2);
                put_str(&mut out, coll);
                encode_docs(docs, &mut out);
            }
            DbRecord::UpdateOne { coll, query, update, upsert } => {
                out.push(4);
                put_str(&mut out, coll);
                encode_doc(query, &mut out);
                encode_doc(update, &mut out);
                out.push(u8::from(*upsert));
            }
            DbRecord::DeleteMany { coll, query } => {
                out.push(5);
                put_str(&mut out, coll);
                encode_doc(query, &mut out);
            }
            DbRecord::CreateIndex { coll, field } => {
                out.push(6);
                put_str(&mut out, coll);
                put_str(&mut out, field);
            }
            DbRecord::SnapshotCollection { coll, next_id, indexes, docs } => {
                out.push(8);
                put_str(&mut out, coll);
                put_u64(&mut out, *next_id);
                put_u32(&mut out, indexes.len() as u32);
                for f in indexes {
                    put_str(&mut out, f);
                }
                encode_docs(docs, &mut out);
            }
        }
        out
    }

    /// Deserialize a WAL payload. `None` on malformed input (a record
    /// that passed its CRC but doesn't parse — dropped, never panics).
    pub fn decode(bytes: &[u8]) -> Option<DbRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8()? {
            1 => DbRecord::InsertOne { coll: r.str()?, doc: decode_doc(&mut r)? },
            2 => DbRecord::InsertMany { coll: r.str()?, docs: decode_docs(&mut r)? },
            4 => DbRecord::UpdateOne {
                coll: r.str()?,
                query: decode_doc(&mut r)?,
                update: decode_doc(&mut r)?,
                upsert: r.u8()? != 0,
            },
            5 => DbRecord::DeleteMany { coll: r.str()?, query: decode_doc(&mut r)? },
            6 => DbRecord::CreateIndex { coll: r.str()?, field: r.str()? },
            8 => {
                let coll = r.str()?;
                let next_id = r.u64()?;
                let n = r.u32()? as usize;
                let mut indexes = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    indexes.push(r.str()?);
                }
                DbRecord::SnapshotCollection { coll, next_id, indexes, docs: decode_docs(&mut r)? }
            }
            _ => return None,
        };
        r.done().then_some(rec)
    }
}

/// A collection's journaling hook: knows the collection's name and the
/// database's shared WAL. Held by [`Collection`](crate::Collection) as
/// `Option<Arc<JournalSink>>` — `None` (the default) is the preserved
/// zero-overhead in-memory configuration.
pub struct JournalSink {
    wal: Wal,
    coll: String,
}

impl JournalSink {
    /// Sink journaling `coll`'s mutations to `wal`.
    pub fn new(wal: Wal, coll: &str) -> Arc<Self> {
        Arc::new(JournalSink { wal, coll: coll.to_string() })
    }

    /// The collection this sink journals for.
    pub fn coll(&self) -> &str {
        &self.coll
    }

    /// Append one record for this sink's collection.
    pub fn append(&self, record: &DbRecord) {
        self.wal.append(&record.encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn records_round_trip() {
        let records = vec![
            DbRecord::InsertOne {
                coll: "submissions".into(),
                doc: doc! { "job_id" => 7, "ok" => true, "secs" => 1.25 },
            },
            DbRecord::InsertMany {
                coll: "teams".into(),
                docs: vec![doc! { "team" => "a" }, doc! { "nested" => doc!{ "x" => 1 } }],
            },
            DbRecord::UpdateOne {
                coll: "rankings".into(),
                query: doc! { "team" => "b" },
                update: doc! { "$set" => doc!{ "secs" => 0.5 } },
                upsert: true,
            },
            DbRecord::DeleteMany { coll: "tmp".into(), query: doc! {} },
            DbRecord::CreateIndex { coll: "submissions".into(), field: "job_id".into() },
            DbRecord::SnapshotCollection {
                coll: "submissions".into(),
                next_id: 42,
                indexes: vec!["job_id".into()],
                docs: vec![doc! { "_id" => 1, "job_id" => 7 }],
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(DbRecord::decode(&bytes), Some(rec));
        }
    }

    #[test]
    fn all_value_shapes_round_trip() {
        let doc = doc! {
            "null" => Value::Null,
            "bool" => false,
            "int" => -17,
            "float" => -0.0,
            "str" => "héllo wörld",
            "arr" => Value::Array(vec![Value::Int(1), Value::Str("x".into()), Value::Null]),
            "doc" => doc!{ "inner" => doc!{ "deep" => 3.5 } },
        };
        let rec = DbRecord::InsertOne { coll: "c".into(), doc };
        assert_eq!(DbRecord::decode(&rec.encode()), Some(rec));
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(DbRecord::decode(&[]), None);
        assert_eq!(DbRecord::decode(&[99]), None);
        assert_eq!(DbRecord::decode(&[1, 5, 0, 0, 0, b'x']), None);
        // Trailing garbage after a valid record is rejected too.
        let mut bytes = DbRecord::CreateIndex { coll: "c".into(), field: "f".into() }.encode();
        bytes.push(0);
        assert_eq!(DbRecord::decode(&bytes), None);
        // A retired tag over a payload that parsed while the tag lived.
        let mut retired = vec![7];
        put_str(&mut retired, "c");
        assert_eq!(DbRecord::decode(&retired), None);
    }
}
