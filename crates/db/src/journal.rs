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
//!
//! Every record layout is spelled once, by one writer below: the
//! collection mutators write through them from the documents and the
//! table name they were handed, straight into the log's frame
//! ([`rai_wal::Wal::append_with`]), and [`DbRecord::encode`] calls the
//! same ones.

use crate::value::{Document, Value};
use rai_wal::codec::{put_str, put_u32, put_u64, Reader};

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
        4 => Value::Str(r.str()?.to_string()),
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
        let k = r.str()?.to_string();
        let v = decode_value(r)?;
        doc.0.insert(k.into(), v);
    }
    Some(doc)
}

fn encode_docs<'d>(docs: impl ExactSizeIterator<Item = &'d Document>, out: &mut Vec<u8>) {
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

// ---- writers: one per record layout, tagged by the first byte --------

/// 1 — `insert_one`: `doc` as the caller passed it, before `_id`
/// assignment.
pub(crate) fn write_insert_one(out: &mut Vec<u8>, coll: &str, doc: &Document) {
    out.push(1);
    put_str(out, coll);
    encode_doc(doc, out);
}

/// 4 — `update_one(query, update, upsert)`.
pub(crate) fn write_update_one(
    out: &mut Vec<u8>,
    coll: &str,
    query: &Document,
    update: &Document,
    upsert: bool,
) {
    out.push(4);
    put_str(out, coll);
    encode_doc(query, out);
    encode_doc(update, out);
    out.push(u8::from(upsert));
}

/// 5 — `delete_many(query)`.
pub(crate) fn write_delete_many(out: &mut Vec<u8>, coll: &str, query: &Document) {
    out.push(5);
    put_str(out, coll);
    encode_doc(query, out);
}

/// 6 — `create_index(field)`.
pub(crate) fn write_create_index(out: &mut Vec<u8>, coll: &str, field: &str) {
    out.push(6);
    put_str(out, coll);
    put_str(out, field);
}

/// 8 — a compaction snapshot of one whole collection: the `_id`
/// allocator, the indexed paths and every document with its `_id`.
pub(crate) fn write_snapshot_collection<'a>(
    out: &mut Vec<u8>,
    coll: &str,
    next_id: u64,
    indexes: impl ExactSizeIterator<Item = &'a str>,
    docs: impl ExactSizeIterator<Item = &'a Document>,
) {
    out.push(8);
    put_str(out, coll);
    put_u64(out, next_id);
    put_u32(out, indexes.len() as u32);
    for f in indexes {
        put_str(out, f);
    }
    encode_docs(docs, out);
}

// ---- logical records -------------------------------------------------

/// One committed database mutation, as journaled to the WAL. Each
/// record's leading tag byte is fixed for good: 2 (`insert_many`, which
/// journals the `insert_one` records it is), 3 (`update_many`) and 7
/// (`drop_collection`) are retired and decode, like any unknown tag, to
/// `None`.
#[derive(Debug, Clone, PartialEq)]
pub enum DbRecord {
    /// `insert_one` — `doc` is the document *before* `_id` assignment.
    InsertOne {
        /// Target collection.
        coll: String,
        /// Document as the caller passed it.
        doc: Document,
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
    /// Serialize to a WAL payload, through the writer of the record's
    /// layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            DbRecord::InsertOne { coll, doc } => write_insert_one(&mut out, coll, doc),
            DbRecord::UpdateOne { coll, query, update, upsert } => {
                write_update_one(&mut out, coll, query, update, *upsert);
            }
            DbRecord::DeleteMany { coll, query } => write_delete_many(&mut out, coll, query),
            DbRecord::CreateIndex { coll, field } => write_create_index(&mut out, coll, field),
            DbRecord::SnapshotCollection { coll, next_id, indexes, docs } => {
                let indexes = indexes.iter().map(String::as_str);
                write_snapshot_collection(&mut out, coll, *next_id, indexes, docs.iter());
            }
        }
        out
    }

    /// Deserialize a WAL payload. `None` on malformed input (a record
    /// that passed its CRC but doesn't parse — dropped, never panics).
    pub fn decode(bytes: &[u8]) -> Option<DbRecord> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let coll = r.str()?.to_string();
        let rec = match tag {
            1 => DbRecord::InsertOne { coll, doc: decode_doc(&mut r)? },
            4 => DbRecord::UpdateOne {
                coll,
                query: decode_doc(&mut r)?,
                update: decode_doc(&mut r)?,
                upsert: r.u8()? != 0,
            },
            5 => DbRecord::DeleteMany { coll, query: decode_doc(&mut r)? },
            6 => DbRecord::CreateIndex { coll, field: r.str()?.to_string() },
            8 => {
                let next_id = r.u64()?;
                let n = r.u32()? as usize;
                let mut indexes = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    indexes.push(r.str()?.to_string());
                }
                DbRecord::SnapshotCollection { coll, next_id, indexes, docs: decode_docs(&mut r)? }
            }
            _ => return None,
        };
        r.done().then_some(rec)
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
            DbRecord::InsertOne { coll: "teams".into(), doc: doc! { "nested" => doc!{ "x" => 1 } } },
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
        // Retired tags over payloads that parsed while the tags lived.
        let mut retired = vec![7];
        put_str(&mut retired, "c");
        assert_eq!(DbRecord::decode(&retired), None);
        let mut insert_many = vec![2];
        put_str(&mut insert_many, "c");
        put_u32(&mut insert_many, 0);
        assert_eq!(DbRecord::decode(&insert_many), None);
    }
}
